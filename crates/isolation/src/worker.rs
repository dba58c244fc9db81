//! The child side of the fork server: `c11campaign --worker`.
//!
//! A worker child is identified purely by **`(target, seed, global
//! index range)`** plus the strategy/policy configuration — never by a
//! closure or any parent-process state — so the executions it runs are
//! the exact executions an in-process campaign would have run at the
//! same indices, and any crash it suffers replays from the same
//! coordinates. The child walks its range serially (stride 1), writes
//! one [`protocol`](crate::protocol) `exec` frame per completed
//! execution to stdout, and finishes with a `done` frame; a child that
//! dies before `done` was mid-execution, and the parent derives the
//! crashing index as `first_index + frames received`.

use crate::protocol::{
    coverage_payload, done_payload, exec_payload, metrics_payload, write_frame, BatchMetrics,
};
use c11tester::{Config, CoverageMap, Model, Policy, StrategyMix};
use c11tester_campaign::{targets, StopReason};
use std::io::Write;
use std::process::ExitCode;

/// Everything a worker child needs to reproduce its slice of the
/// campaign: the flag form (see [`WorkerSpec::to_args`]) is the whole
/// parent→child interface.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkerSpec {
    /// Named workload ([`targets::find`]) to run.
    pub target: String,
    /// The campaign's base seed.
    pub seed: u64,
    /// Memory-model policy.
    pub policy: Policy,
    /// Strategy mix spec, if the campaign mixes strategies.
    pub mix: Option<String>,
    /// First global execution index of the batch.
    pub first_index: u64,
    /// Number of executions in the batch.
    pub executions: u64,
    /// Stop the batch at the first bug (the parent stops dispatching
    /// further batches when it sees the resulting `done` frame).
    pub stop_on_first_bug: bool,
    /// Emit a [`BatchMetrics`] frame (batch alloc counters + phase
    /// profile) just before `done`.
    pub emit_metrics: bool,
    /// Enable phase profiling in the child
    /// ([`c11tester_telemetry::set_profiling`]), so the metrics frame
    /// carries nonzero phase timings.
    pub profile_phases: bool,
    /// Enable behavior-coverage collection in the child
    /// ([`c11tester_telemetry::set_coverage`]); the child folds its
    /// executions' signatures into one [`CoverageMap`] and ships it as
    /// a single `coverage` frame before `done`.
    pub collect_coverage: bool,
    /// Mirror the parent's `--memory-limit` mode into the child:
    /// windowed pruning plus mo-graph arena compaction
    /// ([`Config::with_memory_limit`]).
    pub memory_limit: bool,
}

impl WorkerSpec {
    /// The child command-line for this spec: `--worker` followed by
    /// flag/value pairs ([`parse_worker_args`] is the inverse).
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--worker".to_string(),
            "--target".to_string(),
            self.target.clone(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--policy".to_string(),
            self.policy.name().to_string(),
            "--first-index".to_string(),
            self.first_index.to_string(),
            "--executions".to_string(),
            self.executions.to_string(),
        ];
        if let Some(mix) = &self.mix {
            args.push("--mix".to_string());
            args.push(mix.clone());
        }
        if self.stop_on_first_bug {
            args.push("--stop-on-first-bug".to_string());
        }
        if self.emit_metrics {
            args.push("--emit-metrics".to_string());
        }
        if self.profile_phases {
            args.push("--profile-phases".to_string());
        }
        if self.collect_coverage {
            args.push("--coverage".to_string());
        }
        if self.memory_limit {
            args.push("--memory-limit".to_string());
        }
        args
    }

    /// The model configuration the batch runs under — identical to the
    /// parent campaign's, reconstructed from the flag surface.
    pub fn config(&self) -> Result<Config, String> {
        let mut config = Config::for_policy(self.policy).with_seed(self.seed);
        if let Some(mix) = &self.mix {
            config = config.with_mix(StrategyMix::parse(mix)?);
        }
        if self.memory_limit {
            config = config.with_memory_limit();
        }
        Ok(config)
    }

    /// Runs the batch, streaming frames to `out`. Returns the stop
    /// reason also emitted in the final `done` frame.
    pub fn run(&self, out: &mut impl Write) -> Result<StopReason, String> {
        let target =
            targets::find(&self.target).ok_or(format!("unknown target `{}`", self.target))?;
        if self.profile_phases {
            c11tester_telemetry::set_profiling(true);
        }
        if self.collect_coverage {
            c11tester_telemetry::set_coverage(true);
        }
        let config = self.config()?;
        let mut model = Model::for_shard_from(config, self.first_index, 1);
        let mut reason = StopReason::BudgetExhausted;
        let mut batch = BatchMetrics::default();
        let mut coverage = CoverageMap::new();
        for _ in 0..self.executions {
            let report = model.run(|| target.run());
            let bug = report.found_bug();
            if self.emit_metrics {
                batch.alloc.absorb(&report.stats.alloc);
                batch.phase.absorb(&report.stats.phase);
                batch.graph.absorb(&report.stats.mograph_perf);
            }
            if self.collect_coverage {
                coverage.record(report.execution_index, &report.coverage, &report.races);
            }
            write_frame(out, &exec_payload(&report)).map_err(|e| format!("pipe closed: {e}"))?;
            if bug && self.stop_on_first_bug {
                reason = StopReason::FirstBug;
                break;
            }
        }
        if self.collect_coverage {
            write_frame(out, &coverage_payload(&coverage))
                .map_err(|e| format!("pipe closed: {e}"))?;
        }
        if self.emit_metrics {
            write_frame(out, &metrics_payload(&batch)).map_err(|e| format!("pipe closed: {e}"))?;
        }
        write_frame(out, &done_payload(reason)).map_err(|e| format!("pipe closed: {e}"))?;
        Ok(reason)
    }
}

/// Parses the argument list *after* the leading `--worker` flag (the
/// inverse of [`WorkerSpec::to_args`]).
pub fn parse_worker_args(argv: impl Iterator<Item = String>) -> Result<WorkerSpec, String> {
    let mut target = None;
    let mut seed = None;
    let mut policy = Policy::C11Tester;
    let mut mix = None;
    let mut first_index = None;
    let mut executions = None;
    let mut stop_on_first_bug = false;
    let mut emit_metrics = false;
    let mut profile_phases = false;
    let mut collect_coverage = false;
    let mut memory_limit = false;
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--target" => target = Some(value()?),
            "--seed" => seed = Some(parse_u64(&value()?)?),
            "--policy" => policy = Policy::parse(&value()?)?,
            "--mix" => {
                let spec = value()?;
                StrategyMix::parse(&spec)?; // validate eagerly
                mix = Some(spec);
            }
            "--first-index" => first_index = Some(parse_u64(&value()?)?),
            "--executions" => executions = Some(parse_u64(&value()?)?),
            "--stop-on-first-bug" => stop_on_first_bug = true,
            "--emit-metrics" => emit_metrics = true,
            "--profile-phases" => profile_phases = true,
            "--coverage" => collect_coverage = true,
            "--memory-limit" => memory_limit = true,
            other => return Err(format!("unknown worker flag `{other}`")),
        }
    }
    Ok(WorkerSpec {
        target: target.ok_or("--worker requires --target")?,
        seed: seed.ok_or("--worker requires --seed")?,
        policy,
        mix,
        first_index: first_index.ok_or("--worker requires --first-index")?,
        executions: executions.ok_or("--worker requires --executions")?,
        stop_on_first_bug,
        emit_metrics,
        profile_phases,
        collect_coverage,
        memory_limit,
    })
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: `{s}`"))
}

/// Entry point for the hidden `--worker` CLI mode: parses the
/// remaining arguments, runs the batch against stdout, and maps errors
/// to exit code 2 (the pool treats a nonzero exit before `done` as a
/// crash of the in-flight execution).
pub fn worker_main(argv: impl Iterator<Item = String>) -> ExitCode {
    let spec = match parse_worker_args(argv) {
        Ok(spec) => spec,
        Err(msg) => {
            eprintln!("c11campaign --worker: {msg}");
            return ExitCode::from(2);
        }
    };
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    match spec.run(&mut out) {
        Ok(_) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("c11campaign --worker: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkerSpec {
        WorkerSpec {
            target: "rwlock-buggy".to_string(),
            seed: 0xC11,
            policy: Policy::C11Tester,
            mix: Some("random:2,pct2:1".to_string()),
            first_index: 32,
            executions: 8,
            stop_on_first_bug: false,
            emit_metrics: false,
            profile_phases: false,
            collect_coverage: false,
            memory_limit: false,
        }
    }

    #[test]
    fn args_round_trip_through_the_parser() {
        let spec = spec();
        let parsed = parse_worker_args(spec.to_args().into_iter().skip(1)).expect("parses");
        assert_eq!(parsed, spec);
        let mut minimal = spec.clone();
        minimal.mix = None;
        minimal.stop_on_first_bug = true;
        let parsed = parse_worker_args(minimal.to_args().into_iter().skip(1)).expect("parses");
        assert_eq!(parsed, minimal);
        let mut diagnostic = spec.clone();
        diagnostic.emit_metrics = true;
        diagnostic.profile_phases = true;
        diagnostic.collect_coverage = true;
        diagnostic.memory_limit = true;
        let parsed = parse_worker_args(diagnostic.to_args().into_iter().skip(1)).expect("parses");
        assert_eq!(parsed, diagnostic);
    }

    #[test]
    fn parser_rejects_incomplete_and_unknown_args() {
        assert!(parse_worker_args(std::iter::empty()).is_err());
        let err = parse_worker_args(["--bogus".to_string()].into_iter()).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        let err =
            parse_worker_args(["--target".to_string(), "rwlock-buggy".to_string()].into_iter())
                .unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn worker_batch_reproduces_the_in_process_index_range() {
        use crate::protocol::{parse_frame, read_frame, Frame};
        use c11tester::TestReport;

        let _gate = crate::coverage_gate_lock();
        let spec = spec();
        let mut buf = Vec::new();
        let reason = spec.run(&mut buf).expect("runs");
        assert_eq!(reason, StopReason::BudgetExhausted);

        // Decode the stream and aggregate it like the pool does.
        let mut reader = std::io::BufReader::new(&buf[..]);
        let mut wired = TestReport::default();
        let mut saw_done = false;
        while let Some(payload) = read_frame(&mut reader).expect("frame") {
            match parse_frame(&payload).expect("parses") {
                Frame::Exec(report) => wired.absorb(&report),
                Frame::Metrics(_) => panic!("metrics frame without --emit-metrics"),
                Frame::Coverage(_) => panic!("coverage frame without --coverage"),
                Frame::Done(r) => {
                    assert_eq!(r, StopReason::BudgetExhausted);
                    saw_done = true;
                }
            }
        }
        assert!(saw_done, "stream must terminate with a done frame");

        // Reference: the same global index range run directly.
        let config = spec.config().expect("valid config");
        let mut model = Model::for_shard_from(config, spec.first_index, 1);
        let mut direct = TestReport::default();
        for _ in 0..spec.executions {
            direct.absorb(&model.run(|| {
                c11tester_workloads::ds::rwlock_buggy::run_buggy();
            }));
        }
        assert_eq!(wired, direct);
    }

    #[test]
    fn emit_metrics_streams_a_batch_metrics_frame_before_done() {
        use crate::protocol::{parse_frame, read_frame, Frame};

        let mut spec = spec();
        spec.emit_metrics = true;
        let mut buf = Vec::new();
        spec.run(&mut buf).expect("runs");

        let mut reader = std::io::BufReader::new(&buf[..]);
        let mut metrics = None;
        let mut execs = 0u64;
        let mut done_after_metrics = false;
        while let Some(payload) = read_frame(&mut reader).expect("frame") {
            match parse_frame(&payload).expect("parses") {
                Frame::Exec(_) => execs += 1,
                Frame::Metrics(m) => metrics = Some(m),
                Frame::Coverage(_) => panic!("coverage frame without --coverage"),
                Frame::Done(_) => done_after_metrics = metrics.is_some(),
            }
        }
        assert_eq!(execs, spec.executions);
        assert!(done_after_metrics, "metrics frame must precede done");
        let metrics = metrics.expect("metrics frame present");
        // The batch's alloc counters must cover every execution: the
        // first provisions fresh state, the rest recycle it.
        assert_eq!(
            metrics.alloc.fresh_executions + metrics.alloc.recycled_executions,
            spec.executions
        );
    }

    #[test]
    fn coverage_batch_ships_the_direct_fold_as_one_frame() {
        use crate::protocol::{parse_frame, read_frame, Frame};

        let _gate = crate::coverage_gate_lock();
        let mut spec = spec();
        spec.collect_coverage = true;
        let mut buf = Vec::new();
        spec.run(&mut buf).expect("runs");
        c11tester_telemetry::set_coverage(false);

        let mut reader = std::io::BufReader::new(&buf[..]);
        let mut shipped = None;
        let mut done_after_coverage = false;
        while let Some(payload) = read_frame(&mut reader).expect("frame") {
            match parse_frame(&payload).expect("parses") {
                Frame::Exec(report) => {
                    // Exec frames never carry coverage; it travels batched.
                    assert_eq!(report.coverage, Default::default());
                }
                Frame::Metrics(_) => {}
                Frame::Coverage(map) => shipped = Some(map),
                Frame::Done(_) => done_after_coverage = shipped.is_some(),
            }
        }
        assert!(done_after_coverage, "coverage frame must precede done");
        let shipped = shipped.expect("coverage frame present");

        // Reference: the same index range run directly with coverage on.
        c11tester_telemetry::set_coverage(true);
        let config = spec.config().expect("valid config");
        let mut model = Model::for_shard_from(config, spec.first_index, 1);
        let mut direct = CoverageMap::new();
        for _ in 0..spec.executions {
            let report = model.run(|| {
                c11tester_workloads::ds::rwlock_buggy::run_buggy();
            });
            direct.record(report.execution_index, &report.coverage, &report.races);
        }
        c11tester_telemetry::set_coverage(false);

        assert_eq!(shipped, direct);
        assert_eq!(shipped.collected_executions(), spec.executions);
        assert!(shipped.distinct_total() > 0, "workload explores behaviors");
    }
}
