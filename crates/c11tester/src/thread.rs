//! Model threads: `spawn`, `JoinHandle`, `yield_now`, `sleep_hint`.
//!
//! Mirrors `std::thread` closely enough that test programs read
//! naturally. Thread creation and join are visible synchronization
//! operations: they are scheduling decision points and establish the
//! *additional-synchronizes-with* happens-before edges of the model.

use crate::ctx::{self, OpClass};
use crate::engine::WaitReason;
use crate::report::Failure;
use c11tester_core::ThreadId;
use c11tester_runtime::Aborted;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Handle to a spawned model thread; [`JoinHandle::join`] blocks the
/// calling model thread until the child finishes.
#[derive(Debug)]
pub struct JoinHandle<T> {
    child: ThreadId,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// The child's model thread id.
    pub fn thread_id(&self) -> ThreadId {
        self.child
    }

    /// Waits for the child to finish and returns its value.
    ///
    /// If the child panicked, the whole execution aborts and is
    /// reported as an assertion violation — `join` never observes it.
    pub fn join(self) -> T {
        ctx::with_ctx(|ctx, parent| {
            let mut eng = ctx::schedule_point(ctx, parent, OpClass::Other);
            while !eng.is_finished(self.child) {
                eng = ctx::block_and_yield(ctx, eng, parent, WaitReason::Join(self.child));
            }
            eng.exec.join(parent, self.child);
        });
        self.result
            .lock()
            .take()
            .expect("joined thread produced no value")
    }
}

/// Spawns a model thread running `f` (a visible operation: everything
/// the parent did so far happens-before the child's first action).
///
/// # Panics
///
/// Panics when called outside [`crate::Model::run`].
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    ctx::with_ctx(|ctx, parent| {
        let child = {
            let mut eng = ctx::schedule_point(ctx, parent, OpClass::Other);
            let child = eng.exec.fork(parent);
            eng.register_thread(child);
            child
        };
        let slot = ctx.runtime.add_slot();
        debug_assert_eq!(slot, child.index());
        let result: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
        let result2 = Arc::clone(&result);
        let ctx2 = ctx.handle();
        let dispatched = ctx.runtime.spawn(
            child.index(),
            Box::new(move || {
                // A pooled worker binds itself for the body and — it
                // outlives the execution — unbinds when the body ends,
                // on the `Aborted` unwind out of `thread_finished` too.
                // A fiber re-binds what its driver thread already has.
                let _bound = ctx::bind(&ctx2);
                let outcome = catch_unwind(AssertUnwindSafe(f));
                match outcome {
                    Ok(v) => {
                        *result2.lock() = Some(v);
                        ctx::thread_finished(&ctx2, child);
                    }
                    Err(payload) => {
                        if payload.downcast_ref::<Aborted>().is_none() {
                            let msg = crate::model::panic_message_pub(payload);
                            ctx::fail_execution(&ctx2, Failure::Panic(msg));
                        }
                    }
                }
            }),
        );
        if let Err(msg) = dispatched {
            // No OS thread backs the child the engine just registered,
            // so the schedule must never reach it: record an
            // infrastructure failure and poison this execution (only).
            // The parent aborts at its next schedule point.
            ctx::fail_execution(ctx, Failure::Infra(msg));
        }
        JoinHandle { child, result }
    })
}

/// Yields the processor: a scheduling decision point that also
/// perturbs the strategy — PCT demotes the yielding thread's priority
/// (so spin-wait loops cannot starve the thread they wait on), the
/// burst strategy ends its quantum, and the random strategy treats it
/// as a plain decision point.
pub fn yield_now() {
    ctx::yield_now();
}

/// Schedule-perturbation hint, standing in for the `sleep` calls the
/// tsan11 data-structure benchmarks use to induce schedule variability
/// (§8.3). Equivalent to [`yield_now`].
pub fn sleep_hint() {
    ctx::perturb();
}

/// The current model thread's id.
///
/// # Panics
///
/// Panics when called outside [`crate::Model::run`].
pub fn current_id() -> ThreadId {
    ctx::with_ctx(|_, tid| tid)
}
