//! The [`Model`]: drives one or many controlled executions of a test
//! program (paper §3 `Explore` and §7.6 repeated execution).

use crate::config::{Config, Strategy};
use crate::ctx::{self, ModelCtx, ThreadResult};
use crate::engine::Engine;
use crate::report::{ExecutionReport, Failure, TestReport};
use c11tester_core::{ThreadId, TraceKey, TraceSink};
use c11tester_race::RaceDetector;
use c11tester_runtime::{Runtime, Scheduler};
use c11tester_telemetry::StderrSink;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A testing model: repeatedly executes a program under controlled
/// scheduling, exploring reads-from choices and schedules, detecting
/// data races, assertion violations, and deadlocks.
///
/// Tool state persists *across* executions (paper §7.6): the race
/// detector's dedup history, the strategy's seed stream, and aggregate
/// statistics — while the program's state is reconstructed by re-running
/// the closure (our stand-in for the paper's fork snapshots).
///
/// # Execution indexing and determinism
///
/// Every execution has a global **execution index**, and the built-in
/// strategies derive their random stream from `(config.seed, index)`
/// alone — so execution `i` under a given [`Config`] is reproducible
/// regardless of which model instance (or campaign worker) runs it.
/// [`Model::run`] walks the indices `0, 1, 2, …`; [`Model::run_at`]
/// runs any index, which is how campaign workers run the indices they
/// claim.
///
/// # Examples
///
/// ```
/// use c11tester::{Config, Model};
/// use c11tester::sync::atomic::{AtomicU32, Ordering};
/// use std::sync::Arc;
///
/// let mut model = Model::new(Config::new().with_seed(1));
/// let report = model.run(|| {
///     let x = Arc::new(AtomicU32::new(0));
///     let x2 = Arc::clone(&x);
///     let t = c11tester::thread::spawn(move || {
///         x2.store(1, Ordering::Release);
///     });
///     let _ = x.load(Ordering::Acquire);
///     t.join();
/// });
/// assert!(!report.found_bug());
/// ```
pub struct Model {
    config: Config,
    /// The race detector and the custom strategy plugin
    /// ([`Model::with_scheduler`]) until the first execution moves
    /// them into the context's engine, where they stay.
    race: Option<RaceDetector>,
    scheduler: Option<Box<dyn Scheduler>>,
    /// Whether a custom plugin drives every execution. Built-in
    /// strategies are instead resolved per execution from
    /// `config.strategy_for(index)`, so a [`crate::StrategyMix`] can
    /// vary the scheduler kind per index.
    custom: bool,
    /// The one execution context this model runs every execution on:
    /// engine (execution state, detector, strategy boxes, thread table)
    /// and runtime (fiber slot records or pooled OS threads). Built by
    /// the first `run_at`, reset in place by each later one — retaining
    /// arena, location table, mo-graph, and scratch capacity instead of
    /// reallocating. Behaviorally invisible; see the recycling
    /// determinism contract.
    ctx: Option<Arc<ModelCtx>>,
    /// Global index the next `run` call executes.
    execution_index: u64,
    /// Executions performed by this instance.
    runs: u64,
    /// Destination for structured schedule traces
    /// ([`Model::set_trace_sink`]): an execution buffers its events iff
    /// a sink is installed or `C11TESTER_TRACE` is set, in which case
    /// they go to a [`StderrSink`] — the env var is an alias for stderr
    /// JSONL.
    trace_sink: Option<Box<dyn TraceSink>>,
    /// Epoch component of the trace key (0 unless an adaptive campaign
    /// sets it via [`Model::set_trace_epoch`]).
    trace_epoch: u64,
    /// Report labels handed out so far: one shared allocation per
    /// distinct strategy (`None` = the custom plugin), so an
    /// [`ExecutionReport`] takes a reference count instead of
    /// re-formatting its spec every execution.
    labels: Vec<(Option<Strategy>, Arc<str>)>,
    /// Results no `join` took, swapped out of the engine after each
    /// execution so they drop outside its borrow. Empty between runs;
    /// kept for its capacity.
    unjoined: Vec<Option<ThreadResult>>,
}

/// The reusable pieces of a disassembled [`Model`]
/// ([`Model::into_parts`]): enough to reconstruct the model.
pub struct ModelParts {
    /// The configuration the model ran with.
    pub config: Config,
    /// The custom strategy plugin, if one was installed.
    pub scheduler: Option<Box<dyn Scheduler>>,
    /// The race detector carrying tool state across executions.
    pub race: RaceDetector,
    /// The global index the next execution would have used.
    pub next_execution_index: u64,
}

impl std::fmt::Debug for ModelParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelParts")
            .field("config", &self.config)
            .field("next_execution_index", &self.next_execution_index)
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("config", &self.config)
            .field("execution_index", &self.execution_index)
            .field("runs", &self.runs)
            .finish_non_exhaustive()
    }
}

/// Whether `C11TESTER_TRACE` is set: trace every execution to stderr
/// when no sink is installed. Read once per process (an environment
/// scan takes a process-wide lock).
fn env_trace() -> bool {
    static TRACE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *TRACE.get_or_init(|| std::env::var_os("C11TESTER_TRACE").is_some())
}

impl Model {
    /// Creates a model with the given configuration.
    pub fn new(config: Config) -> Self {
        Model::from_parts(ModelParts {
            config,
            scheduler: None,
            race: RaceDetector::new(),
            next_execution_index: 0,
        })
    }

    /// Creates a model driven by a custom strategy plugin (paper §3:
    /// "C11Tester has a pluggable framework for testing algorithms").
    pub fn with_scheduler(config: Config, scheduler: Box<dyn Scheduler>) -> Self {
        Model::from_parts(ModelParts {
            config,
            scheduler: Some(scheduler),
            race: RaceDetector::new(),
            next_execution_index: 0,
        })
    }

    /// Disassembles the model into its reusable parts.
    pub fn into_parts(mut self) -> ModelParts {
        let (race, scheduler) = match self.ctx.take() {
            Some(ctx) => {
                let mut eng = ctx.engine.borrow();
                (std::mem::take(&mut eng.race), eng.take_custom_scheduler())
            }
            None => (
                self.race.take().expect("race detector present"),
                self.scheduler.take(),
            ),
        };
        ModelParts {
            config: self.config.clone(),
            scheduler,
            race,
            next_execution_index: self.execution_index,
        }
    }

    /// Reassembles a model from [`ModelParts`].
    pub fn from_parts(parts: ModelParts) -> Self {
        Model {
            config: parts.config,
            race: Some(parts.race),
            custom: parts.scheduler.is_some(),
            scheduler: parts.scheduler,
            ctx: None,
            execution_index: parts.next_execution_index,
            runs: 0,
            trace_sink: None,
            trace_epoch: 0,
            labels: Vec::new(),
            unjoined: Vec::new(),
        }
    }

    /// Installs a sink for structured schedule traces, which turns
    /// tracing on for this model's executions: after each one the
    /// committed-event sequence is recorded keyed by `(seed, epoch,
    /// index)`.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.trace_sink = Some(sink);
    }

    /// Builder form of [`Model::set_trace_sink`].
    pub fn with_trace_sink(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Sets the epoch component of the trace key (adaptive campaigns
    /// label executions `(seed, epoch, offset-derived index)`).
    pub fn set_trace_epoch(&mut self, epoch: u64) {
        self.trace_epoch = epoch;
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Number of executions performed by this instance.
    pub fn executions(&self) -> u64 {
        self.runs
    }

    /// The global execution index the next [`Model::run`] will use.
    pub fn next_execution_index(&self) -> u64 {
        self.execution_index
    }

    /// Runs the program once under controlled scheduling at the next
    /// index.
    pub fn run<F>(&mut self, f: F) -> ExecutionReport
    where
        F: Fn() + Send + Sync,
    {
        let index = self.execution_index;
        let report = self.run_at(index, f);
        self.execution_index += 1;
        report
    }

    /// Runs the program once at an explicit global execution index,
    /// without advancing [`Model::next_execution_index`]. With the built-in
    /// strategies this reproduces exactly the execution a campaign (or
    /// any other model over the same [`Config`]) labeled with that
    /// index — the replay entry point for "execution #i raced".
    pub fn run_at<F>(&mut self, execution_index: u64, f: F) -> ExecutionReport
    where
        F: Fn() + Send + Sync,
    {
        let ctx = self.begin(execution_index);
        let runtime = &ctx.runtime;
        let strategy =
            self.label((!self.custom).then(|| self.config.strategy_for(execution_index)));

        // The caller's OS thread doubles as model thread 0.
        let main_slot = runtime.add_slot();
        debug_assert_eq!(main_slot, ThreadId::MAIN.index());
        runtime.bind_current(main_slot);
        let bound = ctx::bind(&ctx);

        let body = catch_unwind(AssertUnwindSafe(&f));
        match body {
            Ok(()) => ctx::main_finished(&ctx),
            Err(payload) => {
                if payload
                    .downcast_ref::<c11tester_runtime::Aborted>()
                    .is_none()
                {
                    let msg = panic_message_pub(payload);
                    ctx::fail_execution(&ctx, Failure::Panic(msg));
                }
                // Aborted: failure already recorded by whoever poisoned.
            }
        }

        // Reap model threads before unbinding: in fiber mode `join_all`
        // unwinds still-suspended fibers on this OS thread, and their
        // `Drop` code reads the binding on the way out.
        let joined = runtime.join_all();
        drop(bound);

        // Every model thread has exited: the engine is the driver's.
        let mut eng = ctx.engine.borrow();
        if let Err(msg) = joined {
            // A panic escaped a model thread's root catch_unwind (TLS
            // destructors, teardown code): surface it instead of
            // dropping it, unless the execution already recorded its
            // own failure.
            eng.fail(Failure::Infra(msg));
        }
        let races = eng.race.take_reports();
        let elided = std::mem::take(&mut eng.race.elided_volatile);
        eng.exec.finalize_alloc_stats();
        // Structured schedule trace: drain the committed-event buffer
        // (non-empty only while tracing is armed) to the sink, keyed by
        // the execution's replay coordinates.
        let trace_events = eng.exec.take_trace_events();
        if !trace_events.is_empty() {
            let key = TraceKey {
                seed: self.config.seed,
                epoch: self.trace_epoch,
                index: execution_index,
            };
            match &mut self.trace_sink {
                Some(sink) => sink.record(key, &trace_events),
                // The C11TESTER_TRACE env var without an installed sink
                // aliases to JSONL on stderr.
                None => StderrSink.record(key, &trace_events),
            }
        }
        let report = ExecutionReport {
            execution_index,
            strategy,
            races,
            failure: eng.failure.take(),
            stats: *eng.exec.stats(),
            elided_volatile_races: elided,
            coverage: eng.exec.take_coverage(),
        };
        std::mem::swap(&mut eng.results, &mut self.unjoined);
        drop(eng);
        // User `Drop` code, run with the engine let go.
        self.unjoined.clear();
        self.runs += 1;
        report
    }

    /// Readies the execution context for `execution_index`: builds it
    /// (fresh engine, fresh runtime) the first time, afterwards resets
    /// both in place. Tool state — the detector's dedup history, a
    /// custom plugin's state — lives in the engine across executions.
    fn begin(&mut self, execution_index: u64) -> Arc<ModelCtx> {
        let trace = self.trace_sink.is_some() || env_trace();
        match &self.ctx {
            Some(ctx) => {
                ctx.runtime.reset();
                let mut eng = ctx.engine.borrow();
                // Results a previous `run_at` left behind when it unwound
                // drop below, with the engine let go, like `run_at`'s.
                std::mem::swap(&mut eng.results, &mut self.unjoined);
                eng.begin(&self.config, execution_index);
                eng.exec.set_trace_buffering(trace);
                drop(eng);
                self.unjoined.clear();
                Arc::clone(ctx)
            }
            None => {
                let mut engine = Engine::new(
                    &self.config,
                    execution_index,
                    self.race.take().expect("race detector present"),
                    self.scheduler.take(),
                );
                engine.exec.set_trace_buffering(trace);
                let ctx = ModelCtx::new(
                    engine,
                    Runtime::new(self.config.handover),
                    (
                        self.config.volatile_load_order,
                        self.config.volatile_store_order,
                    ),
                );
                self.ctx = Some(Arc::clone(&ctx));
                ctx
            }
        }
    }

    /// Runs the next `executions` indices, aggregating detection rates and deduplicated
    /// reports (paper §7.6).
    ///
    /// This is the **serial reference path for campaigns**: a
    /// `c11tester-campaign` run over the same [`Config`] and execution
    /// count produces an aggregate equal to this one for any worker
    /// count, because each execution index behaves identically wherever
    /// it runs and [`TestReport`] aggregation is order-independent.
    pub fn run_many<F>(&mut self, executions: u64, f: F) -> TestReport
    where
        F: Fn() + Send + Sync,
    {
        let mut report = TestReport::default();
        for _ in 0..executions {
            let exec = self.run(&f);
            report.absorb(&exec);
        }
        report
    }

    /// Runs the program `iterations` times (paper §7.6), aggregating
    /// detection rates and distinct reports. Alias of
    /// [`Model::run_many`], kept for the paper-facing vocabulary.
    pub fn check<F>(&mut self, iterations: u64, f: F) -> TestReport
    where
        F: Fn() + Send + Sync,
    {
        self.run_many(iterations, f)
    }

    /// The shared report label of `strategy` (`None` = custom plugin).
    fn label(&mut self, strategy: Option<Strategy>) -> Arc<str> {
        if let Some((_, label)) = self.labels.iter().find(|(s, _)| *s == strategy) {
            return Arc::clone(label);
        }
        let label: Arc<str> = strategy.map_or_else(|| "custom".into(), |s| s.spec().into());
        self.labels.push((strategy, Arc::clone(&label)));
        label
    }
}

pub(crate) fn panic_message_pub(payload: Box<dyn std::any::Any + Send>) -> String {
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

    #[test]
    fn empty_program_completes() {
        let mut model = Model::new(Config::new());
        let report = model.run(|| {});
        assert!(!report.found_bug());
        assert_eq!(report.execution_index, 0);
        let report2 = model.run(|| {});
        assert_eq!(report2.execution_index, 1);
    }

    #[test]
    fn panics_are_reported_as_assertion_violations() {
        let mut model = Model::new(Config::new());
        let report = model.run(|| {
            panic!("invariant violated: queue empty");
        });
        match &report.failure {
            Some(Failure::Panic(msg)) => assert!(msg.contains("invariant violated")),
            other => panic!("expected panic failure, got {other:?}"),
        }
        assert!(report.found_bug());
    }

    #[test]
    fn check_aggregates_runs() {
        let mut model = Model::new(Config::new());
        let report = model.check(5, || {});
        assert_eq!(report.executions, 5);
        assert_eq!(report.executions_with_bug, 0);
        assert_eq!(model.executions(), 5);
    }

    #[test]
    fn run_at_replays_a_specific_index() {
        // The program's outcome is a pure function of the execution
        // index: replaying index 3 on a fresh model must reproduce what
        // a serial model produced there.
        use crate::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let program = || {
            let x = Arc::new(AtomicU32::new(0));
            let x2 = Arc::clone(&x);
            let t = crate::thread::spawn(move || {
                x2.store(1, Ordering::Relaxed);
                x2.store(2, Ordering::Relaxed);
            });
            let _ = x.load(Ordering::Relaxed);
            let _ = x.load(Ordering::Relaxed);
            t.join();
        };
        let mut serial = Model::new(Config::new().with_seed(99));
        let serial_reports: Vec<_> = (0..4).map(|_| serial.run(program)).collect();
        let mut replay = Model::new(Config::new().with_seed(99));
        let r = replay.run_at(3, program);
        assert_eq!(r.execution_index, 3);
        assert_eq!(r.stats, serial_reports[3].stats);
        // run_at does not advance the index `run` uses next.
        assert_eq!(replay.next_execution_index(), 0);
    }

    /// A model whose executions ran on one OS thread runs its next
    /// ones on another, under either handover. The test thread stays
    /// alive meanwhile, so the two threads are told apart.
    #[test]
    fn a_model_moves_between_threads_between_executions() {
        use c11tester_runtime::HandoverKind;
        fn runs(model: &mut Model) {
            for _ in 0..4 {
                let report = model.run(|| {
                    let t = crate::thread::spawn(|| 5u32);
                    crate::thread::yield_now();
                    assert_eq!(t.join(), 5);
                });
                assert!(!report.found_bug(), "{report}");
            }
        }
        for kind in [HandoverKind::Fiber, HandoverKind::Park] {
            let mut model = Model::new(Config::new().with_seed(2).with_handover(kind));
            for _ in 0..2 {
                runs(&mut model);
                model = std::thread::spawn(move || {
                    runs(&mut model);
                    model
                })
                .join()
                .expect("executions on a second thread");
            }
            runs(&mut model);
            assert_eq!(model.executions(), 20);
        }
    }

    /// Results an unwound `run_at` left in the engine drop when the next
    /// execution begins, with the engine let go.
    #[test]
    fn leftover_results_drop_outside_the_engine_borrow() {
        use std::sync::atomic::{AtomicBool, Ordering};
        struct ReachesEngine(Arc<ModelCtx>, Arc<AtomicBool>);
        impl Drop for ReachesEngine {
            fn drop(&mut self) {
                drop(self.0.engine.borrow()); // Trips if still borrowed.
                self.1.store(true, Ordering::Relaxed);
            }
        }
        let mut model = Model::new(Config::new());
        let _ = model.run(|| {});
        let ctx = Arc::clone(model.ctx.as_ref().expect("built by the run"));
        let dropped = Arc::new(AtomicBool::new(false));
        let leftover = ReachesEngine(Arc::clone(&ctx), Arc::clone(&dropped));
        ctx.engine.borrow().results.push(Some(Box::new(leftover)));
        drop(ctx);
        let report = model.run(|| {});
        assert!(!report.found_bug(), "{report}");
        assert!(dropped.load(Ordering::Relaxed));
    }

    #[test]
    fn into_parts_roundtrip_preserves_progression() {
        let mut m = Model::new(Config::new().with_seed(5));
        let _ = m.run(|| {});
        let _ = m.run(|| {});
        let parts = m.into_parts();
        assert_eq!(parts.next_execution_index, 2);
        let mut m2 = Model::from_parts(parts);
        let r = m2.run(|| {});
        assert_eq!(r.execution_index, 2);
        assert_eq!(m2.next_execution_index(), 3);
    }

    #[test]
    fn run_many_aggregate_is_partition_invariant() {
        // Stripe the same 6 indices over 2 and 3 models with `run_at`;
        // merged aggregates must be identical to the serial run_many
        // report.
        use crate::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let program = || {
            let x = Arc::new(AtomicU32::new(0));
            let x2 = Arc::clone(&x);
            let t = crate::thread::spawn(move || {
                x2.store(1, Ordering::Relaxed);
            });
            let _ = x.load(Ordering::Relaxed);
            t.join();
        };
        let config = || Config::new().with_seed(1234);
        let mut serial = Model::new(config());
        let reference = serial.run_many(6, program);
        for workers in [2u64, 3] {
            let mut merged = TestReport::default();
            for w in 0..workers {
                let mut shard = Model::new(config());
                let mut part = TestReport::default();
                for index in (w..6).step_by(workers as usize) {
                    part.absorb(&shard.run_at(index, program));
                }
                merged.merge(&part);
            }
            assert_eq!(merged, reference, "partition over {workers} shards");
        }
    }
}
