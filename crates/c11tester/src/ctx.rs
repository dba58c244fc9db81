//! The execution context: thread-local plumbing that routes every model
//! operation of the program under test to the engine, and the
//! scheduling protocol (decision points, blocking, abort).
//!
//! Protocol (paper §3): every *visible operation* — atomic access,
//! fence, thread or synchronization operation — is a scheduling
//! decision point. The announcing thread asks the strategy which thread
//! runs next; if it is not itself, it hands over the run token and
//! parks. When it is next picked, it performs its pending operation and
//! continues. The *write-run* rule skips the decision while a thread
//! performs consecutive relaxed/release plain stores (Fig. 4).
//!
//! Each operation takes the engine once ([`EngineCell`]'s `borrow`): the
//! decision, the operation and the budget check share one borrow, which
//! ends before any `wake`/`park`/`poison` — the token holder owns the
//! engine, so it must let go before the token moves.

use crate::engine::{self, Engine, EngineCell, EngineRef, WaitReason};
use crate::report::Failure;
use c11tester_core::{MemOrder, ObjId, StoreKind, ThreadId};
use c11tester_race::AccessKind;
use c11tester_runtime::{Aborted, Runtime};
use c11tester_telemetry::{phase_start, Phase};
use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::Arc;

/// The execution context of one `Model`: built at its first execution,
/// reset in place for each later one.
pub(crate) struct ModelCtx {
    /// Borrowed by whoever holds the run token, and let go before the
    /// token moves (see [`EngineCell`]).
    pub engine: EngineCell,
    pub runtime: Arc<Runtime>,
    /// Volatile access orders of the model's configuration.
    volatile_orders: (MemOrder, MemOrder),
}

impl std::fmt::Debug for ModelCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelCtx").finish_non_exhaustive()
    }
}

impl ModelCtx {
    pub(crate) fn new(
        engine: Engine,
        runtime: Arc<Runtime>,
        volatile_orders: (MemOrder, MemOrder),
    ) -> Arc<Self> {
        Arc::new(ModelCtx {
            engine: engine::engine_cell(engine),
            runtime,
            volatile_orders,
        })
    }
}

thread_local! {
    /// The binding: the context of the execution this OS thread is
    /// running model code for, null outside one. A plain pointer — no
    /// borrow flag, lazy initialization or destructor — because it is
    /// read on every model operation. Which *model thread* is running
    /// is not stored here: it is the slot holding the run token
    /// ([`Runtime::current_slot`]), under fibers and pooled OS threads
    /// alike.
    static CURRENT: Cell<*const ModelCtx> = const { Cell::new(std::ptr::null()) };
}

/// Keeps the calling OS thread bound to a context; dropping it restores
/// the previous binding (null, except that fibers re-bind the context
/// their driver thread already has).
pub(crate) struct Bound<'a> {
    previous: *const ModelCtx,
    _ctx: PhantomData<&'a ModelCtx>,
}

/// Binds the calling OS thread to `ctx` for as long as the returned
/// guard lives: the driver for the whole execution, a model thread for
/// its body. Pooled workers outlive executions, so the guard — dropped
/// on the `Aborted` unwind too — is what keeps a stale binding from
/// surviving into the next one.
pub(crate) fn bind(ctx: &ModelCtx) -> Bound<'_> {
    install_quiet_panic_hook();
    Bound {
        previous: CURRENT.with(|c| c.replace(ctx)),
        _ctx: PhantomData,
    }
}

impl Drop for Bound<'_> {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.previous));
    }
}

/// Panics inside model threads are *signals* (assertion violations are
/// recorded in the execution report; aborts are control flow), so the
/// default print-a-backtrace hook is suppressed for them. Non-model
/// threads keep the previous hook's behavior.
fn install_quiet_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // Reading the pointer cannot itself panic.
            let in_model = CURRENT.try_with(|c| !c.get().is_null()).unwrap_or(false);
            if !in_model {
                previous(info);
            }
        }));
    });
}

/// Runs `f` with the current model context and the id of the model
/// thread holding the run token.
///
/// # Panics
///
/// Panics when called outside a model execution — model types
/// (`c11tester::sync::atomic::*`, `c11tester::thread`, …) only work
/// inside [`crate::Model::run`].
#[inline]
pub(crate) fn with_ctx<R>(f: impl FnOnce(&ModelCtx, ThreadId) -> R) -> R {
    let ctx = CURRENT.with(Cell::get);
    assert!(
        !ctx.is_null(),
        "c11tester model operation used outside Model::run"
    );
    // SAFETY: a non-null binding was written by `bind` from a
    // `&ModelCtx` that the still-live `Bound` guard borrows (guards
    // restore the previous value on drop, and every guard stacked on
    // this OS thread — a driver and its fibers — holds the same
    // pointer), so the pointee is alive for the duration of `f`.
    let ctx = unsafe { &*ctx };
    f(ctx, ThreadId::from_index(ctx.runtime.current_slot()))
}

/// Raises the abort payload, unwinding the model thread.
fn abort() -> ! {
    std::panic::panic_any(Aborted)
}

/// Checks for a poisoned execution and unwinds the caller out of it —
/// unless it is already unwinding: then this returns `false` and the
/// operation runs in place (no scheduling decision, no blocking), so
/// `Drop` code during an abort neither re-raises nor waits. Such an
/// operation still reaches the engine; [`engine::engine_cell`] says why
/// that is exclusive.
pub(crate) fn poison_check(ctx: &ModelCtx) -> bool {
    if ctx.runtime.is_poisoned() {
        if std::thread::panicking() {
            return false;
        }
        abort();
    }
    true
}

/// Classification of the announced operation, for the write-run rule.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum OpClass {
    /// A plain atomic store with the given order.
    Store(MemOrder),
    /// Any other visible operation.
    Other,
}

/// A scheduling decision point before a visible operation. Returns the
/// engine, borrowed once the calling thread is the one to run, for the
/// operation itself.
pub(crate) fn schedule_point(ctx: &ModelCtx, tid: ThreadId, class: OpClass) -> EngineRef<'_> {
    schedule_point_with(ctx, ctx.engine.borrow(), tid, class)
}

/// [`schedule_point`] for a caller that already took the engine.
fn schedule_point_with<'a>(
    ctx: &'a ModelCtx,
    mut eng: EngineRef<'a>,
    tid: ThreadId,
    class: OpClass,
) -> EngineRef<'a> {
    if !poison_check(ctx) {
        return eng;
    }
    // Write-run rule: consecutive relaxed/release plain stores by the
    // same thread run without interruption.
    if let OpClass::Store(MemOrder::Relaxed | MemOrder::Release) = class {
        if eng.exec.in_store_run(tid) {
            return eng;
        }
    }
    // The announcing thread is running, so it must be Runnable — a
    // Blocked/Finished thread reaching a schedule point is an engine
    // state-machine bug.
    debug_assert!(
        eng.is_runnable(tid),
        "scheduling thread {tid:?} must be runnable"
    );
    let next = eng
        .next_runnable(tid)
        .expect("schedule point with no runnable thread");
    if next != tid {
        drop(eng);
        ctx.runtime.wake(next.index());
        park(ctx, tid);
        eng = ctx.engine.borrow();
    }
    eng
}

/// Parks the current model thread until it is scheduled again.
pub(crate) fn park(ctx: &ModelCtx, tid: ThreadId) {
    if ctx.runtime.park(tid.index()).is_err() {
        if std::thread::panicking() {
            return;
        }
        abort();
    }
}

/// Blocks the current thread for `reason`, hands the token onward, and
/// returns — with the engine borrowed again — once rescheduled. Detects
/// deadlock. Takes the caller's borrow so that finding the resource
/// busy and blocking on it are one engine access.
pub(crate) fn block_and_yield<'a>(
    ctx: &'a ModelCtx,
    mut eng: EngineRef<'a>,
    tid: ThreadId,
    reason: WaitReason,
) -> EngineRef<'a> {
    if !poison_check(ctx) {
        return eng;
    }
    eng.block(tid, reason);
    let next = eng.next_runnable(tid);
    if next.is_none() {
        eng.fail(Failure::Deadlock);
    }
    drop(eng);
    match next {
        None => {
            ctx.runtime.poison();
            abort();
        }
        Some(next) => {
            debug_assert_ne!(next, tid, "a blocked thread cannot be chosen");
            ctx.runtime.wake(next.index());
            park(ctx, tid);
            // Rescheduled: our status was set Runnable by the unblocker.
        }
    }
    ctx.engine.borrow()
}

/// What the token does once a thread has finished.
enum AfterFinish {
    /// Every thread has finished: the execution is complete.
    Complete,
    /// The strategy's pick runs next.
    Switch(ThreadId),
    /// Nothing is runnable: a deadlock, already recorded.
    Deadlock,
}

/// A finished thread's return value, kept for `join`.
pub(crate) type ThreadResult = Box<dyn Any + Send>;

/// Marks thread `tid` finished with its `result` and asks the strategy
/// who runs next.
fn finish_thread(ctx: &ModelCtx, tid: ThreadId, result: Option<ThreadResult>) -> AfterFinish {
    let mut eng = ctx.engine.borrow();
    let slot = &mut eng.results[tid.index()];
    debug_assert!(slot.is_none(), "thread {tid:?} finished twice");
    *slot = result;
    eng.exec.sync_event(tid);
    if eng.finish_thread(tid) {
        return AfterFinish::Complete;
    }
    match eng.next_runnable(tid) {
        Some(next) => AfterFinish::Switch(next),
        None => {
            eng.fail(Failure::Deadlock);
            AfterFinish::Deadlock
        }
    }
}

/// Marks the current (non-main) thread finished, keeping its `result`
/// for `join`, and passes control on. A poisoned execution is joined by
/// nobody: the result is dropped here, on its own thread.
pub(crate) fn thread_finished(ctx: &ModelCtx, tid: ThreadId, result: ThreadResult) {
    if ctx.runtime.is_poisoned() {
        return;
    }
    match finish_thread(ctx, tid, Some(result)) {
        // The driver is parked in `main_finished`.
        AfterFinish::Complete => ctx.runtime.wake(ThreadId::MAIN.index()),
        AfterFinish::Switch(next) => ctx.runtime.wake(next.index()),
        AfterFinish::Deadlock => ctx.runtime.poison(),
    }
}

/// The main thread finished its program: if other threads remain, hand
/// the token onward and wait for the execution to complete.
pub(crate) fn main_finished(ctx: &ModelCtx) {
    let tid = ThreadId::MAIN;
    if ctx.runtime.is_poisoned() {
        return;
    }
    match finish_thread(ctx, tid, None) {
        AfterFinish::Complete => {}
        AfterFinish::Deadlock => ctx.runtime.poison(),
        AfterFinish::Switch(next) => {
            ctx.runtime.wake(next.index());
            // Wait for completion (or abort): the last finishing
            // thread wakes the driver, and so does a poisoner's exit.
            // Any other wake is spurious: park again.
            while ctx.runtime.park(tid.index()).is_ok() && !ctx.engine.borrow().completed {}
        }
    }
}

/// Records a fatal failure and aborts the whole execution.
pub(crate) fn fail_execution(ctx: &ModelCtx, failure: Failure) {
    ctx.engine.borrow().fail(failure);
    ctx.runtime.poison();
}

// ----------------------------------------------------------------------
// Model operations used by the public atomic / cell / sync types.
// ----------------------------------------------------------------------

/// Allocates a model object and registers it with the race detector.
pub(crate) fn new_object(label: Option<String>, volatile: bool) -> ObjId {
    with_ctx(|ctx, _tid| {
        poison_check(ctx);
        let mut eng = ctx.engine.borrow();
        let obj = eng.exec.new_object();
        match label {
            Some(label) => eng.race.register(obj, label, volatile),
            None => {
                eng.anon_objects += 1;
                let ordinal = eng.anon_objects;
                eng.race.register_anonymous(obj, ordinal, volatile);
            }
        }
        obj
    })
}

/// Reports an access to the race detector, timed as its phase.
fn race_check(
    eng: &mut Engine,
    obj: ObjId,
    offset: u32,
    tid: ThreadId,
    kind: AccessKind,
    write: bool,
) {
    let timer = phase_start(Phase::RaceDetect);
    let cv = eng.exec.thread_cv(tid);
    if write {
        eng.race.on_write(obj, offset, tid, cv, kind);
    } else {
        eng.race.on_read(obj, offset, tid, cv, kind);
    }
    if let Some(timer) = timer {
        timer.stop(eng.exec.phase_mut());
    }
}

/// `atomic_init`: a non-atomic initializing store (paper §7.2 — it is
/// implemented as a non-atomic store and may race with concurrent
/// atomic accesses). Not a scheduling point.
pub(crate) fn atomic_init(obj: ObjId, value: u64) {
    with_ctx(|ctx, tid| {
        poison_check(ctx);
        let mut eng = ctx.engine.borrow();
        eng.exec
            .atomic_store(tid, obj, MemOrder::Relaxed, value, StoreKind::NonAtomic);
        race_check(&mut eng, obj, 0, tid, AccessKind::NonAtomic, true);
    });
}

fn race_kind(kind: StoreKind) -> AccessKind {
    match kind {
        StoreKind::Atomic => AccessKind::Atomic,
        StoreKind::NonAtomic => AccessKind::NonAtomic,
        StoreKind::Volatile => AccessKind::Volatile,
    }
}

/// Ends an atomic operation: checks the event budget, lets go of the
/// engine, and only then poisons if the budget is spent (the failure is
/// recorded; every thread aborts at its next operation).
fn finish_op(ctx: &ModelCtx, mut eng: EngineRef<'_>) {
    let spent = !eng.within_budget();
    drop(eng);
    if spent {
        ctx.runtime.poison();
    }
}

/// An atomic (or volatile, or mixed-mode non-atomic) store.
pub(crate) fn atomic_store(obj: ObjId, order: MemOrder, value: u64, kind: StoreKind) {
    with_ctx(|ctx, tid| {
        let mut eng = schedule_point(ctx, tid, OpClass::Store(order));
        eng.exec.atomic_store(tid, obj, order, value, kind);
        race_check(&mut eng, obj, 0, tid, race_kind(kind), true);
        finish_op(ctx, eng);
    });
}

/// An atomic (or volatile) load; returns the value read.
pub(crate) fn atomic_load(obj: ObjId, order: MemOrder, kind: StoreKind) -> u64 {
    with_ctx(|ctx, tid| {
        let mut guard = schedule_point(ctx, tid, OpClass::Other);
        let eng = &mut *guard;
        // Candidate set computed into the engine's reusable buffer.
        let mut cands = std::mem::take(&mut eng.cands_buf);
        eng.exec
            .feasible_read_candidates_into(tid, obj, order, false, &mut cands);
        assert!(
            !cands.is_empty(),
            "atomic load from an object with no feasible store — was the atomic initialized?"
        );
        let choice = eng.scheduler.choose_read(cands.len());
        let value = eng.exec.commit_load(tid, obj, order, cands[choice]);
        cands.clear();
        eng.cands_buf = cands;
        race_check(eng, obj, 0, tid, race_kind(kind), false);
        finish_op(ctx, guard);
        value
    })
}

/// A read-modify-write: reads from an RMW-eligible store, writes
/// `f(value read)`, and returns the value read. `f` runs between the
/// read and the write, with the engine borrowed: a model operation
/// inside it is a re-entry, which the engine cell turns into a panic
/// (an RMW is one indivisible event — there is no state in which a
/// nested operation could run).
pub(crate) fn atomic_rmw(obj: ObjId, order: MemOrder, f: impl FnOnce(u64) -> u64) -> u64 {
    let (Ok(read) | Err(read)) = rmw(obj, order, order, |_| true, f);
    read
}

/// A strong compare-exchange: `Ok(read)` if it read `expected` and
/// wrote `new` under `success`, `Err(read)` if it read anything else,
/// as a load under `failure`.
pub(crate) fn atomic_cas(
    obj: ObjId,
    expected: u64,
    new: u64,
    success: MemOrder,
    failure: MemOrder,
) -> Result<u64, u64> {
    rmw(obj, success, failure, |read| read == expected, |_| new)
}

/// One read decision over the stores an RMW may read: the RMW-feasible
/// stores under `success`. A candidate whose value `matches` is read by
/// an RMW writing `f(value)`; any other by a failed CAS, which is a load
/// under `failure`. Only a `SeqCst` failure over a weaker success
/// constrains that load further (seq_cst is the one order the
/// read-feasibility check distinguishes), so only then are
/// non-matching candidates that are not load-feasible under `failure`
/// dropped before the draw.
fn rmw(
    obj: ObjId,
    success: MemOrder,
    failure: MemOrder,
    matches: impl Fn(u64) -> bool,
    f: impl FnOnce(u64) -> u64,
) -> Result<u64, u64> {
    with_ctx(|ctx, tid| {
        let mut guard = schedule_point(ctx, tid, OpClass::Other);
        let eng = &mut *guard;
        // tsan11-family baselines strengthen RMWs to acq_rel (see
        // `Policy::strengthens_rmw`).
        let success = eng.exec.policy().effective_rmw_order(success);
        let mut cands = std::mem::take(&mut eng.cands_buf);
        eng.exec
            .feasible_read_candidates_into(tid, obj, success, true, &mut cands);
        if failure.is_seq_cst() && !success.is_seq_cst() {
            cands.retain(|&c| {
                matches(eng.exec.store_value(c))
                    || eng.exec.check_read_feasible(tid, obj, failure, c)
            });
        }
        assert!(
            !cands.is_empty(),
            "RMW on an object with no feasible store — was the atomic initialized?"
        );
        let choice = eng.scheduler.choose_read(cands.len());
        let cand = cands[choice];
        let value = eng.exec.store_value(cand);
        let result = if matches(value) {
            let (read, _) = eng.exec.commit_rmw(tid, obj, success, cand, f(value));
            race_check(eng, obj, 0, tid, AccessKind::Atomic, true);
            Ok(read)
        } else {
            let read = eng.exec.commit_load(tid, obj, failure, cand);
            race_check(eng, obj, 0, tid, AccessKind::Atomic, false);
            Err(read)
        };
        cands.clear();
        eng.cands_buf = cands;
        finish_op(ctx, guard);
        result
    })
}

/// An atomic thread fence.
pub(crate) fn fence(order: MemOrder) {
    with_ctx(|ctx, tid| {
        let mut eng = schedule_point(ctx, tid, OpClass::Other);
        eng.exec.fence(tid, order);
        finish_op(ctx, eng);
    });
}

/// A non-atomic read (`write == false`) or write of cell `(obj,
/// offset)` for the race detector. Invisible: no scheduling decision.
fn nonatomic_access(obj: ObjId, offset: u32, write: bool) {
    with_ctx(|ctx, tid| {
        poison_check(ctx);
        let mut eng = ctx.engine.borrow();
        eng.exec.count_normal_access();
        race_check(&mut eng, obj, offset, tid, AccessKind::NonAtomic, write);
    });
}

/// A non-atomic read of cell `(obj, offset)` for the race detector.
pub(crate) fn nonatomic_read(obj: ObjId, offset: u32) {
    nonatomic_access(obj, offset, false);
}

/// A non-atomic write of cell `(obj, offset)` for the race detector.
pub(crate) fn nonatomic_write(obj: ObjId, offset: u32) {
    nonatomic_access(obj, offset, true);
}

/// Explicit scheduling yield. The strategy is told first
/// ([`c11tester_runtime::Scheduler::perturb`]): PCT demotes the
/// yielding thread's priority (how PCT treats `sched_yield` — without
/// this a spin-wait loop whose owner outranks the lock holder would
/// livelock once the change-point budget is spent), burst schedulers
/// end their quantum, and the random strategy ignores the hint.
pub(crate) fn yield_now() {
    perturb();
}

/// Schedule-perturbation hint (the `sleep` the tsan11 benchmarks use,
/// §8.3): ends the current burst and yields.
pub(crate) fn perturb() {
    with_ctx(|ctx, tid| {
        let mut eng = ctx.engine.borrow();
        eng.scheduler.perturb();
        drop(schedule_point_with(ctx, eng, tid, OpClass::Other));
    });
}

/// Volatile access orders `(load, store)` from the active configuration.
pub(crate) fn volatile_orders() -> (MemOrder, MemOrder) {
    with_ctx(|ctx, _| ctx.volatile_orders)
}
