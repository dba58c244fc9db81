//! A pool of reusable OS worker threads for model executions.
//!
//! [`HandoverKind::Park`](crate::HandoverKind::Park) — the fallback
//! where fibers are unavailable, and the twin the tests compare fibers
//! against — backs every model thread with an OS thread. The paper
//! amortizes thread setup across explored executions (§7.3–§7.4); here
//! a [`ThreadPool`] owned by the `Model`'s `Runtime` keeps those OS
//! threads alive across a shard's executions. Per execution,
//! [`Runtime::spawn`](crate::Runtime::spawn) becomes "dispatch the
//! workload closure to an idle pooled worker" and `join_all` becomes
//! [`ThreadPool::quiesce`] — wait until every dispatched closure has
//! returned its worker to the idle list. The pool grows only when an
//! execution needs more concurrent model threads than any execution
//! before it, so after warmup a campaign performs **zero** thread
//! spawns, thread-name allocations, or join round trips per execution.
//!
//! Pooled workers park in the per-slot [`Notifier`](crate::Notifier)
//! mailboxes of the current execution's `Runtime`; the pool owns only
//! thread *creation and teardown*.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Locks `m`, recovering the data if a panic poisoned it: every
/// critical section here leaves its state consistent at each step, and
/// a model thread's panic must not wedge the pool or the slot table.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A closure dispatched onto a pooled worker.
pub type Task = Box<dyn FnOnce() + Send>;

enum Job {
    Run(Task),
    Exit,
}

struct WorkerHandle {
    tx: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// State shared between the pool facade and its worker threads.
struct PoolState {
    /// Workers with no task in flight, ready for dispatch.
    idle: Vec<usize>,
    /// Tasks dispatched but not yet returned.
    active: usize,
    /// Panic messages that escaped a task's root `catch_unwind`
    /// (e.g. re-raised non-`Aborted` payloads). Drained by
    /// [`ThreadPool::quiesce`].
    escaped: Vec<String>,
}

struct Shared {
    state: Mutex<PoolState>,
    cv: Condvar,
}

/// A pool of OS worker threads reused across executions.
///
/// A [`HandoverKind::Park`](crate::HandoverKind::Park)
/// [`Runtime`](crate::Runtime) creates one with [`ThreadPool::new`] and
/// keeps it for its lifetime; `Runtime::join_all` quiesces it at the
/// end of each execution. Dropping the pool shuts the workers down and
/// joins them.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<WorkerHandle>>,
    /// OS threads created over the pool's lifetime (growth events).
    spawned: AtomicU64,
    /// Dispatches served by an already-live idle worker (reuse events).
    reused: AtomicU64,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("spawned", &self.spawned.load(Ordering::Relaxed))
            .field("reused", &self.reused.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ThreadPool {
    /// Creates an empty pool. Workers are spawned lazily on the first
    /// dispatch that finds no idle worker.
    pub fn new() -> Arc<Self> {
        Arc::new(ThreadPool {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    idle: Vec::new(),
                    active: 0,
                    escaped: Vec::new(),
                }),
                cv: Condvar::new(),
            }),
            workers: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        })
    }

    /// Runs `task` on an idle pooled worker, growing the pool by one
    /// thread if none is idle.
    ///
    /// # Errors
    ///
    /// Returns the OS error message if growing the pool fails (e.g.
    /// transient `EAGAIN` under thread pressure). The pool is left
    /// consistent; the caller should fail only the current execution.
    pub fn dispatch(&self, task: Task) -> Result<(), String> {
        let mut workers = lock(&self.workers);
        let reused = {
            let mut st = lock(&self.shared.state);
            st.idle.pop().inspect(|_| st.active += 1)
        };
        if let Some(id) = reused {
            self.reused.fetch_add(1, Ordering::Relaxed);
            // The worker holds its receiver until told to exit, so the
            // send can only fail after Drop began — impossible while the
            // caller still holds `&self`.
            workers[id]
                .tx
                .send(Job::Run(task))
                .expect("pooled worker hung up");
            return Ok(());
        }
        // Grow: spawn a new worker and hand it the task directly. The
        // spawn happens *before* `active` is incremented so a failed
        // spawn leaves nothing to quiesce.
        let id = workers.len();
        let (tx, rx) = channel::<Job>();
        let shared = Arc::clone(&self.shared);
        let handle = std::thread::Builder::new()
            .name(format!("c11tester-pool-{id}"))
            .spawn(move || worker_loop(id, rx, shared))
            .map_err(|e| format!("failed to spawn pooled model thread: {e}"))?;
        self.spawned.fetch_add(1, Ordering::Relaxed);
        lock(&self.shared.state).active += 1;
        tx.send(Job::Run(task)).expect("pooled worker hung up");
        workers.push(WorkerHandle {
            tx,
            handle: Some(handle),
        });
        Ok(())
    }

    /// Waits until every dispatched task has completed and its worker
    /// returned to the idle list — the pooled analog of joining each
    /// per-execution thread, without the thread teardown.
    ///
    /// # Errors
    ///
    /// Returns the joined panic messages if any task's panic escaped
    /// its root `catch_unwind` since the previous quiesce (the pooled
    /// analog of `JoinHandle::join` returning `Err`).
    pub fn quiesce(&self) -> Result<(), String> {
        let mut st = lock(&self.shared.state);
        while st.active > 0 {
            st = self.wait(st);
        }
        if st.escaped.is_empty() {
            Ok(())
        } else {
            let msgs: Vec<String> = st.escaped.drain(..).collect();
            Err(msgs.join("; "))
        }
    }

    /// Blocks until `done()` holds, re-checking it each time a task
    /// ends. `done` must only become true by something a task does
    /// before it returns — the completion bookkeeping that follows
    /// takes the pool lock, so the check cannot miss it.
    pub fn wait_until(&self, mut done: impl FnMut() -> bool) {
        let mut st = lock(&self.shared.state);
        while !done() {
            st = self.wait(st);
        }
    }

    /// Waits for the next task completion (or a spurious wakeup).
    fn wait<'a>(&self, st: MutexGuard<'a, PoolState>) -> MutexGuard<'a, PoolState> {
        self.shared
            .cv
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// OS threads created over the pool's lifetime. Stable after
    /// warmup: a later execution adds workers only if it needs more
    /// concurrent model threads than any execution before it.
    pub fn workers_spawned(&self) -> u64 {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Dispatches served by reusing an already-live idle worker (the
    /// complement of [`ThreadPool::workers_spawned`]).
    pub fn dispatches_reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        let mut workers = lock(&self.workers);
        for w in workers.iter() {
            let _ = w.tx.send(Job::Exit);
        }
        for w in workers.iter_mut() {
            if let Some(h) = w.handle.take() {
                let _ = h.join();
            }
        }
    }
}

fn worker_loop(id: usize, rx: Receiver<Job>, shared: Arc<Shared>) {
    while let Ok(job) = rx.recv() {
        match job {
            Job::Run(task) => {
                let outcome = catch_unwind(AssertUnwindSafe(task));
                let mut st = lock(&shared.state);
                if let Err(payload) = outcome {
                    st.escaped.push(panic_message(payload.as_ref()));
                }
                // Idle-before-decrement: once `active` hits zero every
                // worker is already back on the idle list, so a
                // quiescing dispatcher never observes "no task running
                // yet nothing idle" (which would force a spurious
                // growth spawn after warmup).
                st.idle.push(id);
                st.active -= 1;
                drop(st);
                shared.cv.notify_all();
            }
            Job::Exit => return,
        }
    }
}

/// Renders a panic payload for diagnostics.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn dispatch_runs_tasks_and_quiesce_waits() {
        let pool = ThreadPool::new();
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let c = Arc::clone(&counter);
            pool.dispatch(Box::new(move || {
                c.fetch_add(1, Ordering::Relaxed);
            }))
            .expect("dispatch");
        }
        pool.quiesce().expect("no escaped panics");
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn pool_reuses_workers_across_rounds() {
        let pool = ThreadPool::new();
        for _round in 0..5 {
            for _ in 0..3 {
                pool.dispatch(Box::new(|| {})).expect("dispatch");
            }
            pool.quiesce().expect("quiesce");
        }
        // Growth happened only while no worker was idle; after the
        // first rounds warmed the pool, later rounds reuse. 15 total
        // dispatches, at most a handful of spawns.
        let spawned = pool.workers_spawned();
        let reused = pool.dispatches_reused();
        assert_eq!(spawned + reused, 15);
        assert!(
            spawned <= 3,
            "sequential rounds of 3 need at most 3 workers, spawned {spawned}"
        );
    }

    #[test]
    fn quiesce_surfaces_escaped_panics_then_recovers() {
        let pool = ThreadPool::new();
        pool.dispatch(Box::new(|| panic!("task exploded")))
            .expect("dispatch");
        let err = pool.quiesce().expect_err("escaped panic must surface");
        assert!(err.contains("task exploded"), "got: {err}");
        // The worker survived and the error was drained: the pool is
        // reusable and the next quiesce is clean.
        pool.dispatch(Box::new(|| {})).expect("dispatch");
        pool.quiesce().expect("drained");
    }

    #[test]
    fn lock_survives_a_panicked_holder() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock(&m2);
            panic!("poison attempt");
        })
        .join();
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 1);
    }
}
