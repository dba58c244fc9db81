//! The controlled-execution substrate (paper §7.3–§7.5, adapted).
//!
//! C11Tester implements application threads as fibers and borrows a
//! kernel thread's context for TLS (§7.4). The default here is the
//! same design: every model thread of an execution is a fiber on the
//! driver's OS thread (`fiber.rs`). The fallback — the only path on
//! targets without the context switch, and the reference twin the
//! tests compare fibers against — backs each model thread with a
//! pooled OS thread that waits in a futex [`Notifier`] mailbox. Either
//! way this module enforces the same observable discipline:
//!
//! * at most one model thread runs at any instant — the *run token*;
//! * the token moves only at visible operations, to the exact thread
//!   the testing strategy chose;
//! * blocked or descheduled threads stay suspended (fiber) or parked
//!   in their mailbox (OS thread) until handed the token;
//! * aborting an execution (deadlock, assertion failure, race-as-fatal)
//!   poisons the runtime so every suspended thread unwinds and exits
//!   cleanly.
//!
//! The memory-model engine, the enabled-set bookkeeping, and the
//! scheduling policy live a layer above (in the `c11tester` facade);
//! this module is deliberately mechanism-only.

use crate::fiber::Fibers;
use crate::handover::{HandoverKind, Notifier};
use crate::pool::ThreadPool;
use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Panic payload used to unwind model threads when an execution aborts.
/// The runtime swallows it at each thread's root; user `Drop` code runs
/// during the unwind, so model operations detect poisoning and re-raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aborted;

/// What backs the model threads of one execution.
#[derive(Debug)]
enum Backing {
    /// One fiber per model thread, all multiplexed onto the driver's
    /// OS thread (paper §7.3).
    Fibers(Fibers),
    /// One pooled OS thread per model thread, each waiting in its
    /// slot's mailbox. The pool outlives the runtime when shared
    /// ([`Runtime::with_pool`]).
    Pooled {
        slots: Mutex<Vec<Arc<Notifier>>>,
        pool: Arc<ThreadPool>,
    },
}

/// Slot `ix`'s mailbox, cloned out so no caller blocks or wakes a
/// thread while holding the slot-table lock.
fn mailbox(slots: &Mutex<Vec<Arc<Notifier>>>, ix: usize) -> Arc<Notifier> {
    Arc::clone(&slots.lock()[ix])
}

/// The run-token runtime of one execution.
#[derive(Debug)]
pub struct Runtime {
    backing: Backing,
    poisoned: AtomicBool,
}

impl Runtime {
    /// Creates a runtime for one execution. A [`HandoverKind::Park`]
    /// runtime built this way owns a private [`ThreadPool`] that dies
    /// with it; use [`Runtime::with_pool`] to reuse OS threads across
    /// executions.
    pub fn new(kind: HandoverKind) -> Arc<Self> {
        Runtime::build(kind, ThreadPool::new)
    }

    /// Creates a runtime whose [`HandoverKind::Park`] model threads are
    /// dispatched onto `pool`'s reusable workers; `join_all` quiesces
    /// the pool rather than joining threads. Fibers never leave the
    /// driver thread, so a fiber runtime does not retain `pool`.
    pub fn with_pool(kind: HandoverKind, pool: Arc<ThreadPool>) -> Arc<Self> {
        Runtime::build(kind, || pool)
    }

    fn build(kind: HandoverKind, pool: impl FnOnce() -> Arc<ThreadPool>) -> Arc<Self> {
        let backing = match kind.effective() {
            HandoverKind::Fiber => Backing::Fibers(Fibers::new()),
            HandoverKind::Park => Backing::Pooled {
                slots: Mutex::new(Vec::new()),
                pool: pool(),
            },
        };
        Arc::new(Runtime {
            backing,
            poisoned: AtomicBool::new(false),
        })
    }

    /// The handover strategy in use.
    pub fn handover_kind(&self) -> HandoverKind {
        match self.backing {
            Backing::Fibers(_) => HandoverKind::Fiber,
            Backing::Pooled { .. } => HandoverKind::Park,
        }
    }

    /// Whether model threads run as fibers on the driver's OS thread.
    /// When true, the current model thread's identity is slot-derived
    /// ([`Runtime::current_fiber_slot`]) rather than OS-thread-local.
    pub fn is_fiber(&self) -> bool {
        matches!(self.backing, Backing::Fibers(_))
    }

    /// The slot index currently executing on the driver thread, when
    /// in fiber mode.
    pub fn current_fiber_slot(&self) -> Option<usize> {
        match &self.backing {
            Backing::Fibers(fibers) => Some(fibers.current()),
            Backing::Pooled { .. } => None,
        }
    }

    /// Allocates a slot for a new model thread and returns its index.
    /// Slot indices match the engine's `ThreadId::index()`.
    pub fn add_slot(&self) -> usize {
        match &self.backing {
            Backing::Fibers(fibers) => fibers.add_slot(),
            Backing::Pooled { slots, .. } => {
                let mut slots = slots.lock();
                slots.push(Arc::new(Notifier::new(HandoverKind::Park)));
                slots.len() - 1
            }
        }
    }

    /// Binds the calling OS thread as the owner of slot `ix` (required
    /// before its first `park`; binds the driver's native context in
    /// fiber mode).
    pub fn bind_current(&self, ix: usize) {
        match &self.backing {
            Backing::Fibers(fibers) => fibers.bind_driver(ix),
            Backing::Pooled { slots, .. } => mailbox(slots, ix).bind_current(),
        }
    }

    /// Hands the run token to model thread `ix`. In fiber mode the
    /// switch itself happens at the caller's next suspension point
    /// (park or body end), making `wake + park` one atomic handover.
    pub fn wake(&self, ix: usize) {
        match &self.backing {
            Backing::Fibers(fibers) => fibers.wake(ix),
            Backing::Pooled { slots, .. } => mailbox(slots, ix).notify(),
        }
    }

    /// Parks the calling model thread until it is handed the token.
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] if the execution was poisoned — the caller
    /// must unwind (e.g. via `std::panic::panic_any(Aborted)`).
    pub fn park(&self, ix: usize) -> Result<(), Aborted> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(Aborted);
        }
        match &self.backing {
            Backing::Fibers(fibers) => fibers.park(ix),
            Backing::Pooled { slots, .. } => mailbox(slots, ix).wait(),
        }
        if self.poisoned.load(Ordering::Acquire) {
            return Err(Aborted);
        }
        Ok(())
    }

    /// Provisions model thread `ix`: a lazily started fiber, or a
    /// pooled worker that binds its mailbox and waits to be scheduled
    /// for the first time. Either way `body` runs only once the thread
    /// is handed the token, and never after the execution is poisoned.
    ///
    /// The expected [`Aborted`] unwind is swallowed at the thread's
    /// root (the facade records failures before poisoning); any *other*
    /// panic escaping `body` surfaces from [`Runtime::join_all`].
    ///
    /// # Errors
    ///
    /// Returns the OS error message if growing the pool fails (e.g.
    /// transient `EAGAIN`). Recoverable: the runtime is unchanged, so
    /// the caller can poison just the current execution. Fibers acquire
    /// no OS resources here and never fail.
    pub fn spawn(
        self: &Arc<Self>,
        ix: usize,
        body: Box<dyn FnOnce() + Send>,
    ) -> Result<(), String> {
        match &self.backing {
            Backing::Fibers(fibers) => {
                fibers.spawn(ix, body, &self.poisoned);
                Ok(())
            }
            Backing::Pooled { pool, .. } => {
                let rt = Arc::clone(self);
                pool.dispatch(Box::new(move || {
                    rt.bind_current(ix);
                    if rt.park(ix).is_err() {
                        return;
                    }
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
                        if payload.downcast_ref::<Aborted>().is_none() {
                            // Not the cooperative abort unwind: rethrow
                            // so the pool's quiesce reports it.
                            resume_unwind(payload);
                        }
                    }
                }))
            }
        }
    }

    /// Poisons the execution and wakes every parked thread so it can
    /// observe the poison and unwind.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        match &self.backing {
            // Suspended fibers cannot observe anything until switched
            // to; `join_all` resumes each so it unwinds. No notify.
            Backing::Fibers(_) => {}
            Backing::Pooled { slots, .. } => {
                let slots: Vec<Arc<Notifier>> = slots.lock().clone();
                for s in slots {
                    s.notify();
                }
            }
        }
    }

    /// Whether the execution was aborted.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Waits for every model thread of this execution to finish: tears
    /// the fiber group down, or quiesces the backing pool (workers
    /// return to the idle list; no thread teardown). Call only after
    /// the execution completed or was poisoned.
    ///
    /// # Errors
    ///
    /// Returns the collected panic messages if any model thread died
    /// of a panic that escaped its root `catch_unwind` (anything but
    /// the cooperative [`Aborted`] unwind).
    pub fn join_all(&self) -> Result<(), String> {
        match &self.backing {
            Backing::Fibers(fibers) => fibers.finish(self.poisoned.load(Ordering::Acquire)),
            Backing::Pooled { pool, .. } => pool.quiesce(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Drives three model threads around a token ring on `rt` and
    /// asserts the visit order is exactly the handover order — proof
    /// that only one thread runs at a time and control moves where
    /// directed. Shared between the fiber and pooled tests.
    fn run_token_ring(rt: &Arc<Runtime>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let counter = Arc::new(AtomicUsize::new(0));

        let main_slot = rt.add_slot();
        rt.bind_current(main_slot);
        let mut slots = vec![main_slot];
        for _ in 0..3 {
            slots.push(rt.add_slot());
        }
        for (k, &ix) in slots.iter().enumerate().skip(1) {
            let rt2 = Arc::clone(rt);
            let log2 = Arc::clone(&log);
            let counter2 = Arc::clone(&counter);
            let next = if k == 3 { main_slot } else { slots[k + 1] };
            rt.spawn(
                ix,
                Box::new(move || {
                    for round in 0..5 {
                        log2.lock().push((ix, round));
                        counter2.fetch_add(1, Ordering::Relaxed);
                        rt2.wake(next);
                        if round < 4 && rt2.park(ix).is_err() {
                            return;
                        }
                    }
                }),
            )
            .expect("spawn model thread");
        }
        // Kick the ring and wait for it to come back around 5 times.
        for _ in 0..5 {
            rt.wake(slots[1]);
            rt.park(main_slot).expect("not poisoned");
        }
        rt.join_all().expect("no escaped panics");
        assert_eq!(counter.load(Ordering::Relaxed), 15);
        let log = log.lock();
        // Per round, threads appear in ring order.
        for round in 0..5 {
            let entries: Vec<usize> = log
                .iter()
                .filter(|(_, r)| *r == round)
                .map(|(ix, _)| *ix)
                .collect();
            assert_eq!(entries, vec![slots[1], slots[2], slots[3]]);
        }
    }

    #[test]
    fn token_ring_runs_in_order() {
        let rt = Runtime::new(HandoverKind::Park);
        run_token_ring(&rt);
    }

    /// The same ring discipline must hold on pooled workers — and a
    /// second execution on the same pool must reuse them instead of
    /// spawning more.
    #[test]
    fn token_ring_runs_in_order_on_pooled_workers() {
        let pool = ThreadPool::new();
        let rt = Runtime::with_pool(HandoverKind::Park, Arc::clone(&pool));
        run_token_ring(&rt);
        let warm = pool.workers_spawned();
        assert!(warm > 0 && warm <= 3);

        let rt2 = Runtime::with_pool(HandoverKind::Park, Arc::clone(&pool));
        run_token_ring(&rt2);
        assert_eq!(
            pool.workers_spawned(),
            warm,
            "second execution must not grow the pool"
        );
        assert_eq!(pool.dispatches_reused(), 3);
    }

    /// Poisoning wakes parked threads and park reports the abort.
    #[test]
    fn poison_unblocks_parked_threads() {
        let rt = Runtime::new(HandoverKind::Park);
        let parked = rt.add_slot();
        let witnessed_abort = Arc::new(AtomicBool::new(false));
        let w2 = Arc::clone(&witnessed_abort);
        let rt2 = Arc::clone(&rt);
        rt.spawn(
            parked,
            Box::new(move || {
                // Parks forever unless poisoned.
                if rt2.park(parked).is_err() {
                    w2.store(true, Ordering::Release);
                    std::panic::panic_any(Aborted);
                }
            }),
        )
        .expect("spawn model thread");
        // Let the thread start and park (first park is inside spawn).
        rt.wake(parked);
        std::thread::sleep(std::time::Duration::from_millis(20));
        rt.poison();
        // The Aborted unwind is cooperative, not an escaped panic.
        rt.join_all().expect("Aborted unwind is swallowed");
        assert!(witnessed_abort.load(Ordering::Acquire));
        assert!(rt.is_poisoned());
    }

    /// A spawned thread that is never scheduled exits cleanly on abort.
    #[test]
    fn unscheduled_thread_exits_on_poison() {
        let rt = Runtime::new(HandoverKind::Park);
        let ix = rt.add_slot();
        let ran = Arc::new(AtomicBool::new(false));
        let r2 = Arc::clone(&ran);
        rt.spawn(
            ix,
            Box::new(move || {
                r2.store(true, Ordering::Release);
            }),
        )
        .expect("spawn model thread");
        rt.poison();
        rt.join_all().expect("unscheduled exit is clean");
        assert!(
            !ran.load(Ordering::Acquire),
            "body must not run after abort"
        );
    }

    /// park after poison returns the abort error immediately.
    #[test]
    fn park_after_poison_errors() {
        let rt = Runtime::new(HandoverKind::Park);
        let ix = rt.add_slot();
        rt.bind_current(ix);
        rt.poison();
        assert_eq!(rt.park(ix), Err(Aborted));
    }

    /// Regression (silent-loss bugfix): a panic that escapes a model
    /// thread's root `catch_unwind` — anything but the cooperative
    /// `Aborted` unwind — must surface from `join_all`, not vanish.
    #[test]
    fn join_all_surfaces_escaped_panics() {
        let rt = Runtime::new(HandoverKind::Park);
        let ix = rt.add_slot();
        rt.spawn(ix, Box::new(|| panic!("model thread exploded")))
            .expect("spawn model thread");
        rt.wake(ix);
        let err = rt.join_all().expect_err("escaped panic must surface");
        assert!(err.contains("model thread exploded"), "got: {err}");
    }

    /// The fiber runtime honors the same token-ring discipline with
    /// zero OS threads: every model thread is a fiber on this thread.
    #[test]
    fn token_ring_runs_in_order_on_fibers() {
        let rt = Runtime::new(HandoverKind::Fiber);
        assert!(rt.is_fiber());
        run_token_ring(&rt);
        // The runtime is per-execution; a fresh one on the same driver
        // thread reuses the recycled fiber stacks.
        let rt2 = Runtime::new(HandoverKind::Fiber);
        run_token_ring(&rt2);
    }

    /// Fiber poisoning: suspended fibers unwind at teardown (running
    /// their `Drop`/abort paths), never-started fibers never run, and
    /// `park` after poison reports the abort.
    #[test]
    fn fiber_poison_unwinds_suspended_and_skips_unstarted() {
        let rt = Runtime::new(HandoverKind::Fiber);
        let main = rt.add_slot();
        rt.bind_current(main);
        let parked = rt.add_slot();
        let never = rt.add_slot();
        let witnessed = Arc::new(AtomicBool::new(false));
        let ran = Arc::new(AtomicBool::new(false));
        let w2 = Arc::clone(&witnessed);
        let rt2 = Arc::clone(&rt);
        rt.spawn(
            parked,
            Box::new(move || {
                // Hand the token back to the driver and park; only the
                // poisoned teardown resumes us.
                rt2.wake(main);
                if rt2.park(parked).is_err() {
                    w2.store(true, Ordering::Release);
                    std::panic::panic_any(Aborted);
                }
            }),
        )
        .expect("spawn fiber");
        let r2 = Arc::clone(&ran);
        rt.spawn(never, Box::new(move || r2.store(true, Ordering::Release)))
            .expect("spawn fiber");
        rt.wake(parked);
        rt.park(main).expect("not yet poisoned");
        rt.poison();
        rt.join_all().expect("Aborted unwind is swallowed");
        assert!(witnessed.load(Ordering::Acquire));
        assert!(!ran.load(Ordering::Acquire), "unstarted body must not run");
        assert_eq!(rt.park(main), Err(Aborted));
    }

    /// A non-`Aborted` panic in a fiber body surfaces from `join_all`,
    /// exactly like the pooled runtime.
    #[test]
    fn fiber_join_all_surfaces_escaped_panics() {
        let rt = Runtime::new(HandoverKind::Fiber);
        let main = rt.add_slot();
        rt.bind_current(main);
        let ix = rt.add_slot();
        rt.spawn(ix, Box::new(|| panic!("fiber model thread exploded")))
            .expect("spawn fiber");
        rt.wake(ix);
        let err = rt.join_all().expect_err("escaped panic must surface");
        assert!(err.contains("fiber model thread exploded"), "got: {err}");
    }

    /// A shared pool has the same obligation — and stays reusable
    /// after quiesce reported the escaped panic.
    #[test]
    fn pooled_join_all_surfaces_escaped_panics() {
        let pool = ThreadPool::new();
        let rt = Runtime::with_pool(HandoverKind::Park, Arc::clone(&pool));
        let ix = rt.add_slot();
        rt.spawn(ix, Box::new(|| panic!("pooled thread exploded")))
            .expect("dispatch model thread");
        rt.wake(ix);
        let err = rt.join_all().expect_err("escaped panic must surface");
        assert!(err.contains("pooled thread exploded"), "got: {err}");
        // The pool recovered: the next execution is clean.
        let rt2 = Runtime::with_pool(HandoverKind::Park, pool);
        run_token_ring(&rt2);
    }
}
