//! Model threads: `spawn`, `JoinHandle`, `yield_now`, `sleep_hint`.
//!
//! Mirrors `std::thread` closely enough that test programs read
//! naturally. Thread creation and join are visible synchronization
//! operations: they are scheduling decision points and establish the
//! *additional-synchronizes-with* happens-before edges of the model.

use crate::ctx::{self, ModelCtx, OpClass};
use crate::engine::WaitReason;
use crate::report::Failure;
use c11tester_core::ThreadId;
use c11tester_runtime::Aborted;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Handle to a spawned model thread; [`JoinHandle::join`] blocks the
/// calling model thread until the child finishes.
///
/// The child's return value waits in its thread's result slot in the
/// engine, not behind the handle: the run token already serialises the
/// child's write and the joiner's read. A value nobody joins is dropped
/// once the execution's threads are gone, before `Model::run_at`
/// returns.
#[derive(Debug)]
pub struct JoinHandle<T> {
    child: ThreadId,
    /// The execution that spawned the child.
    serial: u64,
    result: PhantomData<fn() -> T>,
}

impl<T: 'static> JoinHandle<T> {
    /// The child's model thread id.
    pub fn thread_id(&self) -> ThreadId {
        self.child
    }

    /// Waits for the child to finish and returns its value.
    ///
    /// If the child panicked, the whole execution aborts and is
    /// reported as an assertion violation — `join` never observes it.
    ///
    /// # Panics
    ///
    /// Panics when joined in an execution other than the one that
    /// spawned the child.
    pub fn join(self) -> T {
        let result = ctx::with_ctx(|ctx, parent| {
            let mut eng = ctx::schedule_point(ctx, parent, OpClass::Other);
            assert_eq!(
                eng.serial, self.serial,
                "JoinHandle joined outside the execution that spawned its thread"
            );
            while !eng.is_finished(self.child) {
                eng = ctx::block_and_yield(ctx, eng, parent, WaitReason::Join(self.child));
            }
            eng.exec.join(parent, self.child);
            eng.results[self.child.index()].take()
        });
        *result
            .expect("joined thread produced no value")
            .downcast::<T>()
            .expect("a thread's result has its spawn's type")
    }
}

/// A spawned thread's way back to its context. Not an `Arc`: the
/// context outlives every body. `Model::run_at` returns only after
/// `Runtime::join_all`, by which each body has run to its end or been
/// dropped unstarted, and the `Model` owns the context throughout.
struct CtxPtr(*const ModelCtx);

// SAFETY: `ModelCtx` is `Sync`, and the pointee outlives the body that
// carries the pointer to whichever OS thread runs it (see `CtxPtr`).
unsafe impl Send for CtxPtr {}

impl CtxPtr {
    /// # Safety
    ///
    /// Only from the body the pointer was made for (see `CtxPtr`).
    unsafe fn get(&self) -> &ModelCtx {
        // SAFETY: the caller's contract: the context outlives the body.
        unsafe { &*self.0 }
    }
}

// What the `Send` argument above leans on.
const _: fn() = || {
    fn sync<T: Sync>() {}
    sync::<ModelCtx>();
};

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
        let (child, serial) = {
            let mut eng = ctx::schedule_point(ctx, parent, OpClass::Other);
            let child = eng.exec.fork(parent);
            eng.register_thread(child);
            (child, eng.serial)
        };
        let slot = ctx.runtime.add_slot();
        debug_assert_eq!(slot, child.index());
        let home = CtxPtr(ctx);
        let dispatched = ctx.runtime.spawn(
            child.index(),
            Box::new(move || {
                // SAFETY: this is the body `home` was made for.
                let ctx = unsafe { home.get() };
                // A pooled worker binds itself for the body and — it
                // outlives the execution — unbinds when the body ends,
                // on the `Aborted` unwind out of `thread_finished` too.
                // A fiber re-binds what its driver thread already has.
                let _bound = ctx::bind(ctx);
                match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(v) => ctx::thread_finished(ctx, child, Box::new(v)),
                    Err(payload) => {
                        if payload.downcast_ref::<Aborted>().is_none() {
                            let msg = crate::model::panic_message_pub(payload);
                            ctx::fail_execution(ctx, Failure::Panic(msg));
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
        JoinHandle {
            child,
            serial,
            result: PhantomData,
        }
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
