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
//!   poisons the runtime, after which the token still moves one thread
//!   at a time: the poisoner runs until it exits, its exit hands the
//!   token to the driver, and [`Runtime::join_all`] hands it to each
//!   remaining thread in slot order so it unwinds and exits cleanly.
//!
//! Holding the token is therefore *ownership* of everything the
//! threads of an execution share: the facade keeps its engine in a
//! plain cell and relies on this module for exclusion and for the
//! happens-before edge on every handover (a mailbox's release/acquire
//! pair, or program order on the one fiber thread).
//!
//! The memory-model engine, the enabled-set bookkeeping, and the
//! scheduling policy live a layer above (in the `c11tester` facade);
//! this module is deliberately mechanism-only.

use crate::fiber::Fibers;
use crate::handover::{HandoverKind, Notifier};
use crate::pool::{lock, ThreadPool};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Panic payload used to unwind model threads when an execution aborts.
/// The runtime swallows it at each thread's root; user `Drop` code runs
/// during the unwind, so model operations detect poisoning and re-raise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aborted;

/// One pooled model thread's slot.
#[derive(Debug)]
struct ParkSlot {
    mailbox: Notifier,
    /// A pooled worker is running this slot's task (set at dispatch,
    /// cleared when the task ends). Never set for the driver's slot.
    live: AtomicBool,
}

/// "No slot": the driver has not bound itself yet.
const NO_SLOT: usize = usize::MAX;

/// What backs the model threads of one execution.
#[derive(Debug)]
enum Backing {
    /// One fiber per model thread, all multiplexed onto the driver's
    /// OS thread (paper §7.3).
    Fibers(Fibers),
    /// One pooled OS thread per model thread, each waiting in its
    /// slot's mailbox.
    Pooled {
        slots: Mutex<Vec<Arc<ParkSlot>>>,
        /// The slot bound by [`Runtime::bind_current`]: where a
        /// poisoned execution's token goes when its holder exits.
        driver: AtomicUsize,
        /// The slot holding the token: written by `wake` before the
        /// token leaves, and by the receiver when `park` returns.
        current: AtomicUsize,
        pool: Arc<ThreadPool>,
    },
}

/// Slot `ix`, cloned out so no caller blocks or wakes a thread while
/// holding the slot-table lock.
fn slot(slots: &Mutex<Vec<Arc<ParkSlot>>>, ix: usize) -> Arc<ParkSlot> {
    Arc::clone(&lock(slots)[ix])
}

/// The run-token runtime of one execution at a time: built once,
/// [`Runtime::reset`] between executions.
#[derive(Debug)]
pub struct Runtime {
    backing: Backing,
    poisoned: AtomicBool,
}

/// Ends a pooled model thread's task: marks the slot dead and, if it
/// exits a poisoned execution *holding the token*, passes the token on
/// to the driver (the futex analog of a finished fiber switching back
/// to the driver context). A thread that handed the token on before
/// returning has nothing to pass: whoever holds it now may be the
/// poisoner, still running.
struct ExitSlot<'a> {
    rt: &'a Runtime,
    ix: usize,
    slot: Arc<ParkSlot>,
}

impl Drop for ExitSlot<'_> {
    fn drop(&mut self) {
        let Backing::Pooled {
            slots,
            driver,
            current,
            ..
        } = &self.rt.backing
        else {
            return;
        };
        // Read before `live` clears: `join_all` moves the token on as
        // soon as it sees this slot dead.
        let holds_token = current.load(Ordering::Acquire) == self.ix;
        self.slot.live.store(false, Ordering::Release);
        let driver = driver.load(Ordering::Relaxed);
        if holds_token && driver != NO_SLOT && self.rt.is_poisoned() {
            slot(slots, driver).mailbox.notify();
        }
    }
}

impl Runtime {
    /// Creates a runtime. A [`HandoverKind::Park`] runtime owns the
    /// [`ThreadPool`] its model threads are dispatched onto; the
    /// workers stay alive across [`Runtime::reset`], so after warmup an
    /// execution spawns no OS threads.
    pub fn new(kind: HandoverKind) -> Arc<Self> {
        let backing = match kind.effective() {
            HandoverKind::Fiber => Backing::Fibers(Fibers::new()),
            HandoverKind::Park => Backing::Pooled {
                slots: Mutex::new(Vec::new()),
                driver: AtomicUsize::new(NO_SLOT),
                current: AtomicUsize::new(0),
                pool: ThreadPool::new(),
            },
        };
        Arc::new(Runtime {
            backing,
            poisoned: AtomicBool::new(false),
        })
    }

    /// Returns the runtime to its just-built state for the next
    /// execution, keeping what is expensive to rebuild: the allocation
    /// itself, fiber slot records, and the pooled OS threads. Call
    /// only after [`Runtime::join_all`] (or before any slot exists).
    pub fn reset(&self) {
        match &self.backing {
            Backing::Fibers(fibers) => fibers.reset(),
            Backing::Pooled {
                slots,
                driver,
                current,
                ..
            } => {
                let mut slots = lock(slots);
                debug_assert!(
                    slots.iter().all(|s| !s.live.load(Ordering::Acquire)),
                    "runtime reset with a live pooled model thread"
                );
                slots.clear();
                driver.store(NO_SLOT, Ordering::Relaxed);
                current.store(0, Ordering::Relaxed);
            }
        }
        self.poisoned.store(false, Ordering::Release);
    }

    /// The handover strategy in use.
    pub fn handover_kind(&self) -> HandoverKind {
        match self.backing {
            Backing::Fibers(_) => HandoverKind::Fiber,
            Backing::Pooled { .. } => HandoverKind::Park,
        }
    }

    /// The slot holding the run token: the fiber executing on the
    /// driver thread, or the pooled thread the token was last handed
    /// to. Read by the token holder, this is its own slot — the
    /// facade's notion of "the current model thread" under either
    /// backing.
    #[inline]
    pub fn current_slot(&self) -> usize {
        match &self.backing {
            Backing::Fibers(fibers) => fibers.current(),
            Backing::Pooled { current, .. } => current.load(Ordering::Relaxed),
        }
    }

    /// Allocates a slot for a new model thread and returns its index.
    /// Slot indices match the engine's `ThreadId::index()`.
    pub fn add_slot(&self) -> usize {
        match &self.backing {
            Backing::Fibers(fibers) => fibers.add_slot(),
            Backing::Pooled { slots, .. } => {
                let mut slots = lock(slots);
                slots.push(Arc::new(ParkSlot {
                    mailbox: Notifier::new(HandoverKind::Park),
                    live: AtomicBool::new(false),
                }));
                slots.len() - 1
            }
        }
    }

    /// Binds the calling OS thread as the driver, owner of slot `ix`
    /// and holder of the token (required before its first `park`;
    /// binds the driver's native context in fiber mode).
    pub fn bind_current(&self, ix: usize) {
        match &self.backing {
            Backing::Fibers(fibers) => fibers.bind_driver(ix),
            Backing::Pooled {
                slots,
                driver,
                current,
                ..
            } => {
                slot(slots, ix).mailbox.bind_current();
                driver.store(ix, Ordering::Relaxed);
                current.store(ix, Ordering::Relaxed);
            }
        }
    }

    /// Hands the run token to model thread `ix`. In fiber mode the
    /// switch itself happens at the caller's next suspension point
    /// (park or body end), making `wake + park` one atomic handover.
    pub fn wake(&self, ix: usize) {
        match &self.backing {
            Backing::Fibers(fibers) => fibers.wake(ix),
            Backing::Pooled { slots, current, .. } => {
                current.store(ix, Ordering::Release);
                slot(slots, ix).mailbox.notify();
            }
        }
    }

    /// Parks the calling model thread until it is handed the token.
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] if the execution was poisoned — the caller
    /// must unwind (e.g. via `std::panic::panic_any(Aborted)`).
    pub fn park(&self, ix: usize) -> Result<(), Aborted> {
        match &self.backing {
            Backing::Fibers(fibers) => {
                if self.poisoned.load(Ordering::Acquire) {
                    return Err(Aborted);
                }
                fibers.park(ix);
            }
            Backing::Pooled { slots, current, .. } => {
                // A caller that just handed the token on must wait for
                // it to come back even if the execution is poisoned by
                // then — the thread it woke is running, and may be the
                // poisoner. Only a caller that still holds the token
                // has nobody to wait for.
                let holds_token = current.load(Ordering::Acquire) == ix;
                if !(holds_token && self.poisoned.load(Ordering::Acquire)) {
                    slot(slots, ix).mailbox.wait();
                    current.store(ix, Ordering::Relaxed);
                }
            }
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
            Backing::Pooled { slots, pool, .. } => {
                let rt = Arc::clone(self);
                let slot = slot(slots, ix);
                slot.live.store(true, Ordering::Release);
                let undo = Arc::clone(&slot);
                pool.dispatch(Box::new(move || {
                    let exit = ExitSlot { rt: &rt, ix, slot };
                    exit.slot.mailbox.bind_current();
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
                // No worker backs the slot: nothing for teardown to wake.
                .inspect_err(|_| undo.live.store(false, Ordering::Release))
            }
        }
    }

    /// Poisons the execution. The caller holds the token and keeps it
    /// until it exits; nobody is woken here, so the threads of a
    /// poisoned execution still run one at a time (see the module
    /// docs) and whatever they share stays singly owned while they
    /// unwind.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Whether the execution was aborted.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Waits for every model thread of this execution to finish. In a
    /// poisoned execution it first hands the token to each thread that
    /// is still suspended or parked, lowest slot first and one at a
    /// time, so it observes the poison, unwinds (running `Drop` code)
    /// and exits before the next is resumed. Then tears the fiber group
    /// down, or quiesces the pool (workers return to the idle list; no
    /// thread teardown). Call from the driver, only after the execution
    /// completed or was poisoned.
    ///
    /// # Errors
    ///
    /// Returns the collected panic messages if any model thread died
    /// of a panic that escaped its root `catch_unwind` (anything but
    /// the cooperative [`Aborted`] unwind).
    pub fn join_all(&self) -> Result<(), String> {
        let poisoned = self.poisoned.load(Ordering::Acquire);
        match &self.backing {
            Backing::Fibers(fibers) => fibers.finish(poisoned),
            Backing::Pooled { slots, pool, .. } => {
                if poisoned {
                    let slots: Vec<Arc<ParkSlot>> = lock(slots).clone();
                    for (ix, slot) in slots.iter().enumerate() {
                        if slot.live.load(Ordering::Acquire) {
                            self.wake(ix);
                            pool.wait_until(|| !slot.live.load(Ordering::Acquire));
                        }
                    }
                }
                pool.quiesce()
            }
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
                        log2.lock().unwrap().push((ix, round));
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
        let log = log.lock().unwrap();
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

    fn pool_of(rt: &Runtime) -> &ThreadPool {
        match &rt.backing {
            Backing::Pooled { pool, .. } => pool,
            Backing::Fibers(_) => panic!("fiber runtime has no pool"),
        }
    }

    /// The same ring discipline must hold on a reset runtime — and the
    /// second execution must reuse the pooled workers instead of
    /// spawning more.
    #[test]
    fn token_ring_runs_in_order_on_pooled_workers() {
        let rt = Runtime::new(HandoverKind::Park);
        run_token_ring(&rt);
        let warm = pool_of(&rt).workers_spawned();
        assert!(warm > 0 && warm <= 3);

        rt.reset();
        run_token_ring(&rt);
        assert_eq!(
            pool_of(&rt).workers_spawned(),
            warm,
            "second execution must not grow the pool"
        );
        assert_eq!(pool_of(&rt).dispatches_reused(), 3);
    }

    /// Teardown of a poisoned execution wakes parked threads and park
    /// reports the abort.
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
        assert_eq!(rt.handover_kind(), HandoverKind::Fiber);
        run_token_ring(&rt);
        // A reset runtime reuses its slot records, and a fresh one on
        // the same driver thread the recycled fiber stacks.
        rt.reset();
        run_token_ring(&rt);
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

    /// The pool stays reusable after quiesce reported an escaped
    /// panic.
    #[test]
    fn pooled_join_all_surfaces_escaped_panics() {
        let rt = Runtime::new(HandoverKind::Park);
        let ix = rt.add_slot();
        rt.spawn(ix, Box::new(|| panic!("pooled thread exploded")))
            .expect("dispatch model thread");
        rt.wake(ix);
        let err = rt.join_all().expect_err("escaped panic must surface");
        assert!(err.contains("pooled thread exploded"), "got: {err}");
        // The pool recovered: the next execution is clean.
        rt.reset();
        run_token_ring(&rt);
    }

    /// A poisoned execution's threads unwind one at a time: the
    /// poisoner's exit wakes the driver, and `join_all` resumes the
    /// rest in slot order, each running its `Drop` code to completion
    /// before the next starts — under either backing.
    #[test]
    fn poisoned_teardown_is_sequential_in_slot_order() {
        struct LogOnDrop(usize, Arc<Mutex<Vec<usize>>>, Arc<AtomicUsize>);
        impl Drop for LogOnDrop {
            fn drop(&mut self) {
                // Overlapping unwinds would interleave enter/leave.
                assert_eq!(self.2.fetch_add(1, Ordering::SeqCst), 0, "overlap");
                std::thread::sleep(std::time::Duration::from_millis(2));
                self.1.lock().unwrap().push(self.0);
                self.2.fetch_sub(1, Ordering::SeqCst);
            }
        }
        for kind in [HandoverKind::Fiber, HandoverKind::Park] {
            let rt = Runtime::new(kind);
            let log = Arc::new(Mutex::new(Vec::new()));
            let inside = Arc::new(AtomicUsize::new(0));
            let main = rt.add_slot();
            rt.bind_current(main);
            let slots: Vec<usize> = (0..4).map(|_| rt.add_slot()).collect();
            let poisoner = slots[3];
            for &ix in &slots {
                let rt2 = Arc::clone(&rt);
                let witness = LogOnDrop(ix, Arc::clone(&log), Arc::clone(&inside));
                rt.spawn(
                    ix,
                    Box::new(move || {
                        let _witness = witness;
                        assert_eq!(rt2.current_slot(), ix);
                        if ix == poisoner {
                            rt2.poison();
                        } else {
                            // Pass the token down the line and park.
                            rt2.wake(ix + 1);
                        }
                        if rt2.park(ix).is_err() {
                            std::panic::panic_any(Aborted);
                        }
                    }),
                )
                .expect("spawn model thread");
            }
            rt.wake(slots[0]);
            assert_eq!(
                rt.park(main),
                Err(Aborted),
                "poisoner's exit wakes the driver"
            );
            assert_eq!(rt.current_slot(), main);
            rt.join_all().expect("Aborted unwinds are swallowed");
            assert_eq!(
                *log.lock().unwrap(),
                vec![poisoner, slots[0], slots[1], slots[2]],
                "{kind:?}"
            );
        }
    }

    /// A thread that handed the token on and is about to park must wait
    /// for it even if the thread it woke has poisoned the execution in
    /// the meantime: that thread is still running.
    #[test]
    fn park_waits_out_a_running_poisoner() {
        let rt = Runtime::new(HandoverKind::Park);
        let main = rt.add_slot();
        rt.bind_current(main);
        let ix = rt.add_slot();
        let (poisoned_tx, poisoned_rx) = std::sync::mpsc::channel();
        let exited = Arc::new(AtomicBool::new(false));
        let (rt2, exited2) = (Arc::clone(&rt), Arc::clone(&exited));
        rt.spawn(
            ix,
            Box::new(move || {
                rt2.poison();
                poisoned_tx.send(()).expect("driver listens");
                // Still holding the token: the driver must not run.
                std::thread::sleep(std::time::Duration::from_millis(30));
                exited2.store(true, Ordering::Release);
            }),
        )
        .expect("spawn model thread");
        rt.wake(ix);
        // Force the interleaving: the poison lands before the park.
        poisoned_rx.recv().expect("poisoner ran");
        assert_eq!(rt.park(main), Err(Aborted));
        assert!(
            exited.load(Ordering::Acquire),
            "park returned while the poisoner was still running"
        );
        rt.join_all().expect("clean teardown");
    }

    /// Only the token holder's exit hands the token to the driver: a
    /// thread that woke its successor and is still on its way out when
    /// the successor poisons must not wake the driver beside it.
    #[test]
    fn exit_without_the_token_does_not_wake_the_driver() {
        let rt = Runtime::new(HandoverKind::Park);
        let main = rt.add_slot();
        rt.bind_current(main);
        let early = rt.add_slot();
        let poisoner = rt.add_slot();
        let (poisoned_tx, poisoned_rx) = std::sync::mpsc::channel();
        let exited = Arc::new(AtomicBool::new(false));
        let rt2 = Arc::clone(&rt);
        rt.spawn(
            early,
            Box::new(move || {
                // Finish "normally": pass the token on, then return —
                // but only once the successor has poisoned.
                rt2.wake(poisoner);
                poisoned_rx.recv().expect("poisoner ran");
            }),
        )
        .expect("spawn model thread");
        let (rt2, exited2) = (Arc::clone(&rt), Arc::clone(&exited));
        rt.spawn(
            poisoner,
            Box::new(move || {
                rt2.poison();
                poisoned_tx.send(()).expect("early thread listens");
                // Still holding the token while `early` exits.
                std::thread::sleep(std::time::Duration::from_millis(30));
                exited2.store(true, Ordering::Release);
            }),
        )
        .expect("spawn model thread");
        rt.wake(early);
        assert_eq!(rt.park(main), Err(Aborted));
        assert!(
            exited.load(Ordering::Acquire),
            "driver woke while the poisoner was still running"
        );
        assert_eq!(rt.current_slot(), main);
        rt.join_all().expect("clean teardown");
    }

    /// A fiber runtime belongs to one OS thread per execution: the first
    /// to touch it claims it (before any driver is bound, too), any other
    /// thread's access panics instead of aliasing the bookkeeping and
    /// leaves the owner's execution intact, and `join_all` frees it for
    /// the next execution on any thread.
    #[test]
    fn fiber_runtime_belongs_to_one_thread_per_execution() {
        let rt = Runtime::new(HandoverKind::Fiber);
        let main = rt.add_slot();
        let foreign = |rt: &Arc<Runtime>| {
            let rt2 = Arc::clone(rt);
            let payload = std::thread::spawn(move || rt2.add_slot())
                .join()
                .expect_err("a foreign add_slot must panic");
            let msg = crate::pool::panic_message(payload.as_ref());
            assert!(msg.contains("OS thread other than its owner"), "{msg}");
        };
        foreign(&rt);
        rt.bind_current(main);
        foreign(&rt);
        let ix = rt.add_slot();
        assert_eq!(ix, 1, "the foreign calls allocated nothing");
        rt.spawn(ix, Box::new(|| {})).expect("spawn fiber");
        rt.wake(ix);
        rt.join_all().expect("clean teardown");
        // Freed by join_all: the next execution runs on another thread.
        let rt2 = Arc::clone(&rt);
        std::thread::spawn(move || {
            rt2.reset();
            let main = rt2.add_slot();
            rt2.bind_current(main);
            rt2.join_all().expect("clean teardown");
        })
        .join()
        .expect("a finished runtime runs on a new driver thread");
        rt.reset();
    }
}
