//! The per-execution engine — memory model + race detector + strategy +
//! thread-status bookkeeping — and the cell that holds it.
//!
//! # Token ownership
//!
//! Only one model thread runs at a time (the run token of
//! `c11tester_runtime::executor`), so the engine is plain owned state:
//! whoever holds the token owns it, through [`TokenCell::borrow`], and
//! nothing locks. A `Model` builds one engine at its first execution and
//! [`Engine::begin`]s each later execution on it in place. The engine
//! also holds what the model threads hand each other through `join`:
//! one result slot per thread, next to the thread table.

use crate::config::{Config, Strategy};
use crate::report::Failure;
use c11tester_core::{Execution, ObjId, StoreIdx, ThreadId};
use c11tester_race::RaceDetector;
use c11tester_runtime::{
    BurstScheduler, PctScheduler, RandomScheduler, Scheduler, TokenCell, TokenRef,
};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a thread is not currently runnable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum WaitReason {
    /// Waiting for a thread to finish.
    Join(ThreadId),
    /// Waiting for a mutex to be released.
    Mutex(ObjId),
    /// Waiting on a condition variable.
    Condvar(ObjId),
}

/// Lifecycle state of a model thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Status {
    Runnable,
    Blocked(WaitReason),
    Finished,
}

pub(crate) struct Engine {
    pub exec: Execution,
    pub race: RaceDetector,
    pub scheduler: Box<dyn Scheduler>,
    /// The built-in strategy `scheduler` implements; `None` for a
    /// custom plugin, which then drives every execution.
    builtin: Option<Strategy>,
    pub status: Vec<Status>,
    /// Finished threads' return values, by thread index, until `join`
    /// takes them; what is left the `Model` drops after the execution,
    /// outside any borrow. A `()` result is a zero-sized box: no
    /// allocation.
    pub results: Vec<Option<Box<dyn Any + Send>>>,
    /// Distinguishes this execution from every other one in the process,
    /// so a `JoinHandle` can refuse to be joined in another.
    pub serial: u64,
    pub live: usize,
    pub completed: bool,
    pub failure: Option<Failure>,
    pub max_events: u64,
    /// Labels count for auto-generated atomic names.
    pub anon_objects: u64,
    /// Reusable buffer of runnable threads for scheduling decisions
    /// (one decision per visible operation — no per-step allocation).
    enabled_buf: Vec<ThreadId>,
    /// Reusable buffer for feasible read candidates (one fill per
    /// load/RMW — taken and returned by the ctx hot path).
    pub cands_buf: Vec<StoreIdx>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("live", &self.live)
            .field("completed", &self.completed)
            .field("failure", &self.failure)
            .field("events", &self.exec.now())
            .finish_non_exhaustive()
    }
}

fn builtin_scheduler(seed: u64, strategy: Strategy) -> Box<dyn Scheduler> {
    match strategy {
        Strategy::Random => Box::new(RandomScheduler::new(seed)),
        Strategy::Burst { mean } => Box::new(BurstScheduler::new(seed, mean)),
        Strategy::Pct {
            depth,
            expected_ops,
        } => Box::new(PctScheduler::new(seed, depth, expected_ops)),
    }
}

impl Engine {
    /// Builds the engine of a `Model` and begins its first execution
    /// (on a fresh [`Execution`]). `custom` is the strategy plugin, if
    /// one was installed; built-in strategies are resolved per
    /// execution index in [`Engine::begin`].
    pub(crate) fn new(
        config: &Config,
        execution_index: u64,
        race: RaceDetector,
        custom: Option<Box<dyn Scheduler>>,
    ) -> Self {
        let builtin = custom
            .is_none()
            .then(|| config.strategy_for(execution_index));
        let scheduler = custom
            .or_else(|| builtin.map(|s| builtin_scheduler(config.seed, s)))
            .expect("a custom or a built-in strategy");
        let mut engine = Engine {
            exec: Execution::with_pruning(config.policy, config.prune),
            race,
            scheduler,
            builtin,
            status: Vec::new(),
            results: Vec::new(),
            serial: 0,
            live: 0,
            completed: false,
            failure: None,
            max_events: config.max_events,
            anon_objects: 0,
            enabled_buf: Vec::new(),
            cands_buf: Vec::new(),
        };
        engine.begin_parts(execution_index);
        engine
    }

    /// Begins the next execution in place: the execution state is
    /// [`Execution::reset`] — retaining arenas, the dense location
    /// table, the mo-graph, and every scratch buffer — the detector's
    /// shadow tables are wiped, and the thread table, buffers and
    /// strategy box are reused. Behavior is identical to a freshly
    /// built engine (the recycling determinism contract).
    pub(crate) fn begin(&mut self, config: &Config, execution_index: u64) {
        self.exec.reset(config.policy, config.prune);
        // Built-in strategies are resolved *per execution index*
        // (Config::strategy_for), so a strategy mix assigns each index
        // its own scheduler kind while staying a pure function of
        // (seed, index): `begin_execution` rewinds a box completely, so
        // the box is kept while the strategy stays and rebuilt only
        // when a mix switches kind.
        if let Some(current) = self.builtin {
            let wanted = config.strategy_for(execution_index);
            if wanted != current {
                self.scheduler = builtin_scheduler(config.seed, wanted);
                self.builtin = Some(wanted);
            }
        }
        self.begin_parts(execution_index);
    }

    /// What `new` and `begin` share: everything but the `Execution`.
    fn begin_parts(&mut self, execution_index: u64) {
        self.scheduler.begin_execution(execution_index);
        self.race.begin_execution();
        self.status.clear();
        self.status.push(Status::Runnable);
        // Empty under `Model::begin`, which takes what an unwound
        // `run_at` left here and drops it with the engine let go.
        self.results.clear();
        self.results.push(None);
        static SERIALS: AtomicU64 = AtomicU64::new(0);
        self.serial = SERIALS.fetch_add(1, Ordering::Relaxed);
        self.live = 1;
        self.completed = false;
        self.failure = None;
        self.anon_objects = 0;
    }

    /// Removes the custom strategy plugin, if this engine runs one
    /// (the engine must not begin another execution afterwards).
    pub(crate) fn take_custom_scheduler(&mut self) -> Option<Box<dyn Scheduler>> {
        self.builtin
            .is_none()
            .then(|| std::mem::replace(&mut self.scheduler, Box::new(RandomScheduler::new(0))))
    }

    /// Is the thread currently runnable? (Debug-assert helper for the
    /// scheduling protocol's state-machine invariants.)
    pub(crate) fn is_runnable(&self, t: ThreadId) -> bool {
        matches!(self.status[t.index()], Status::Runnable)
    }

    /// Asks the strategy for the next thread among the currently
    /// runnable ones, or `None` when nothing is runnable (deadlock).
    /// Uses the reusable enabled-set buffer — the per-operation
    /// scheduling decision performs no allocation.
    pub(crate) fn next_runnable(&mut self, current: ThreadId) -> Option<ThreadId> {
        let timer = c11tester_telemetry::phase_start(c11tester_core::Phase::Scheduling);
        self.enabled_buf.clear();
        for (ix, s) in self.status.iter().enumerate() {
            if matches!(s, Status::Runnable) {
                self.enabled_buf.push(ThreadId::from_index(ix));
            }
        }
        if self.enabled_buf.is_empty() {
            return None;
        }
        let next = self.scheduler.next_thread(&self.enabled_buf, current);
        if let Some(timer) = timer {
            timer.stop(self.exec.phase_mut());
        }
        Some(next)
    }

    /// Registers a freshly forked thread as runnable.
    pub(crate) fn register_thread(&mut self, t: ThreadId) {
        debug_assert_eq!(t.index(), self.status.len());
        self.status.push(Status::Runnable);
        self.results.push(None);
        self.live += 1;
    }

    /// Marks a thread blocked. Join waits are mirrored into the core
    /// execution so pruning's `CV_min` can credit the parked joiner
    /// with the join target's clock (§7.1).
    pub(crate) fn block(&mut self, t: ThreadId, reason: WaitReason) {
        if let WaitReason::Join(child) = reason {
            self.exec.set_join_waiting(t, Some(child));
        }
        self.status[t.index()] = Status::Blocked(reason);
    }

    /// Re-enables a specific blocked thread.
    pub(crate) fn unblock_one(&mut self, t: ThreadId) {
        debug_assert!(matches!(self.status[t.index()], Status::Blocked(_)));
        if matches!(self.status[t.index()], Status::Blocked(WaitReason::Join(_))) {
            self.exec.set_join_waiting(t, None);
        }
        self.status[t.index()] = Status::Runnable;
    }

    /// Re-enables every thread blocked for a reason matching `pred`.
    pub(crate) fn unblock_where(&mut self, mut pred: impl FnMut(&WaitReason) -> bool) {
        for (ix, s) in self.status.iter_mut().enumerate() {
            if let Status::Blocked(r) = s {
                if pred(r) {
                    if matches!(r, WaitReason::Join(_)) {
                        self.exec.set_join_waiting(ThreadId::from_index(ix), None);
                    }
                    *s = Status::Runnable;
                }
            }
        }
    }

    /// Threads blocked on a condition variable, in thread order.
    pub(crate) fn condvar_waiters(&self, obj: ObjId) -> Vec<ThreadId> {
        self.status
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Status::Blocked(WaitReason::Condvar(o)) if *o == obj))
            .map(|(ix, _)| ThreadId::from_index(ix))
            .collect()
    }

    /// Marks a thread finished; wakes joiners. Returns `true` if this
    /// completed the execution (no live threads remain).
    pub(crate) fn finish_thread(&mut self, t: ThreadId) -> bool {
        self.exec.finish_thread(t);
        self.status[t.index()] = Status::Finished;
        self.live -= 1;
        self.unblock_where(|r| matches!(r, WaitReason::Join(c) if *c == t));
        if self.live == 0 {
            self.completed = true;
            true
        } else {
            false
        }
    }

    /// Is the thread finished?
    pub(crate) fn is_finished(&self, t: ThreadId) -> bool {
        matches!(self.status[t.index()], Status::Finished)
    }

    /// Records a fatal condition and marks the execution complete.
    pub(crate) fn fail(&mut self, failure: Failure) {
        if self.failure.is_none() {
            self.failure = Some(failure);
        }
        self.completed = true;
    }

    /// Checks the event budget; returns `false` when exhausted (caller
    /// must abort). The bound is inclusive: the execution aborts as
    /// soon as the event count *reaches* `max_events` — a budget of
    /// `n` permits at most `n` events (`Config::max_events` documents
    /// "abort after this many model events").
    pub(crate) fn within_budget(&mut self) -> bool {
        let n = self.exec.now().0;
        if n >= self.max_events {
            self.fail(Failure::TooManyEvents(n));
            false
        } else {
            true
        }
    }
}

/// The cell a `Model`'s engine lives in: plain owned state whose owner
/// is whoever holds the run token (see [`TokenCell`]).
pub(crate) type EngineCell = TokenCell<Engine>;

/// Exclusive access to the engine; releases it on drop (also when an
/// engine assertion unwinds through the borrow).
pub(crate) type EngineRef<'a> = TokenRef<'a, Engine>;

/// Panic message of an overlapping engine borrow.
const REENTRANT: &str = "re-entrant c11tester model operation: the engine is already in use \
     (a model operation was invoked from inside another, e.g. from an \
     `rmw`/`fetch_update` closure, or outside the run-token protocol)";

/// Puts `engine` in its cell, whose tripwire panics on an overlapping
/// borrow: a model operation invoked from inside another (say from a
/// `RawAtomic::rmw` closure), or two threads that both believe they
/// hold the token.
pub(crate) fn engine_cell(engine: Engine) -> EngineCell {
    // SAFETY: the cell is shared by the OS threads backing one
    // execution's model threads, and borrows must never overlap. They do
    // not, by the run-token protocol of `c11tester_runtime::executor`:
    //
    // * A model thread touches the engine only between receiving the
    //   token (its body starting, or `Runtime::park` returning) and
    //   giving it away (`Runtime::wake` + `park`, or its body ending).
    //   Every borrow in this crate is dropped before the
    //   `wake`/`park`/`poison` call that follows it, and at most one
    //   thread holds the token. The driver reads the report out only
    //   after `Runtime::join_all` returned.
    // * Each handover carries a happens-before edge (a futex mailbox's
    //   release/acquire pair; under fibers every model thread is the
    //   same OS thread), so the next owner sees the previous owner's
    //   writes.
    // * The post-poison rule: a poisoned execution takes no more
    //   scheduling decisions, but its threads still unwind through user
    //   `Drop` code, and model operations there do reach the engine
    //   (they run in place, see `ctx::poison_check`). What keeps them
    //   exclusive is that `Runtime::poison` wakes nobody: the poisoner
    //   keeps the token until it exits, its exit — and no other
    //   thread's: one that finished after handing the token on wakes
    //   nobody — passes it to the driver, and `join_all` resumes the
    //   remaining threads one at a time, lowest slot first, each to
    //   completion. So during an unwind the engine is touched by the
    //   one thread currently being unwound, through `borrow` like
    //   everyone else, and by nobody concurrently.
    unsafe { TokenCell::new(engine, REENTRANT) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11tester_core::{MemOrder, StoreKind};

    /// An engine whose budget allows exactly `events` more events on
    /// top of the thread-begin events `Execution::new` already emitted.
    fn engine_with_headroom(events: u64) -> Engine {
        let probe = Engine::new(&Config::new(), 0, RaceDetector::new(), None);
        let base = probe.exec.now().0;
        let config = Config::new().with_max_events(base + events);
        Engine::new(&config, 0, RaceDetector::new(), None)
    }

    #[test]
    fn budget_bound_is_inclusive() {
        let mut eng = engine_with_headroom(3);
        let budget = eng.max_events;
        let obj = eng.exec.new_object();
        let t = c11tester_core::ThreadId::MAIN;
        for _ in 0..2 {
            eng.exec
                .atomic_store(t, obj, MemOrder::Relaxed, 7, StoreKind::Atomic);
            assert!(
                eng.within_budget(),
                "events strictly below the budget must pass"
            );
        }
        // The third store brings the count to exactly `max_events`: the
        // inclusive bound aborts here instead of allowing one extra
        // event past the budget.
        eng.exec
            .atomic_store(t, obj, MemOrder::Relaxed, 7, StoreKind::Atomic);
        assert_eq!(eng.exec.now().0, budget);
        assert!(
            !eng.within_budget(),
            "a budget of n permits at most n events"
        );
        assert_eq!(eng.failure, Some(Failure::TooManyEvents(budget)));
        assert!(eng.completed);
    }

    #[test]
    fn budget_failure_sticks_and_does_not_overwrite() {
        let mut eng = engine_with_headroom(1);
        let budget = eng.max_events;
        let obj = eng.exec.new_object();
        let t = c11tester_core::ThreadId::MAIN;
        eng.exec
            .atomic_store(t, obj, MemOrder::Relaxed, 1, StoreKind::Atomic);
        assert!(!eng.within_budget());
        eng.exec
            .atomic_store(t, obj, MemOrder::Relaxed, 2, StoreKind::Atomic);
        assert!(!eng.within_budget());
        // The recorded failure names the first exceeding count.
        assert_eq!(eng.failure, Some(Failure::TooManyEvents(budget)));
    }

    #[test]
    fn overlapping_borrows_trip_the_wire_and_release_on_unwind() {
        let cell = engine_cell(Engine::new(&Config::new(), 0, RaceDetector::new(), None));
        let nested = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = cell.borrow();
            let _inner = cell.borrow();
        }));
        let payload = nested.expect_err("second borrow must panic");
        let msg = crate::model::panic_message_pub(payload);
        assert!(
            msg.contains("re-entrant c11tester model operation"),
            "{msg}"
        );
        // The unwind dropped the outer guard: the cell is usable again.
        assert_eq!(cell.borrow().live, 1);
    }

    #[test]
    fn begin_switches_builtin_strategy_by_index() {
        let config =
            Config::new().with_mix(crate::StrategyMix::parse("random:1,pct2:1").expect("mix"));
        let mut eng = Engine::new(&config, 0, RaceDetector::new(), None);
        for index in 1..32 {
            eng.begin(&config, index);
            assert_eq!(eng.builtin, Some(config.strategy_for(index)));
            assert_eq!((eng.status.len(), eng.live), (1, 1));
        }
        assert!(eng.take_custom_scheduler().is_none());
    }
}
