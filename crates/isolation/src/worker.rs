//! The child side of the fork server: `c11campaign --worker`.
//!
//! A worker child is identified purely by **`(target, seed)`** plus the
//! strategy/policy configuration — never by a closure or any
//! parent-process state. It serves batch [`Request`]s, one line each on
//! stdin, until stdin closes. A request names a global index range, so
//! the executions a child runs are the exact executions an in-process
//! campaign would have run at the same indices, and any crash it suffers
//! replays from the same coordinates (`echo "<index> 1 -" | c11campaign
//! --worker …`).
//!
//! Each batch runs serially (stride 1) on a fresh [`Model`] — the batch
//! is the unit of fresh state — writes one tick per completed execution,
//! then its folded [`TestReport`] as one `batch` frame and a `done`
//! frame ([`protocol`](crate::protocol)). A child that dies mid-batch
//! was mid-execution, and the parent derives the crashing index as
//! `first + ticks received`.

use crate::protocol::{batch_payload, done_payload, write_frame, Request, TICK};
use c11tester::{Config, Model, Policy, StrategyMix, TestReport};
use c11tester_campaign::targets::{self, Target};
use c11tester_campaign::StopReason;
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Instant;

/// Everything a worker child needs to reproduce any slice of the
/// campaign: the flag form (see [`WorkerSpec::to_args`]) is the whole
/// parent→child configuration; index ranges arrive as requests.
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
    /// Stop a batch at its first bug (the parent stops dispatching
    /// further batches when it sees the resulting `done` frame).
    pub stop_on_first_bug: bool,
    /// Enable phase profiling in the child
    /// ([`c11tester_telemetry::set_profiling`]), so the batch frames'
    /// stats carry nonzero phase timings.
    pub profile_phases: bool,
    /// Enable behavior-coverage collection in the child
    /// ([`c11tester_telemetry::set_coverage`]); each batch frame then
    /// carries the batch's coverage map.
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
        ];
        if let Some(mix) = &self.mix {
            args.push("--mix".to_string());
            args.push(mix.clone());
        }
        if self.stop_on_first_bug {
            args.push("--stop-on-first-bug".to_string());
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

    /// The model configuration the batches run under — identical to the
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

    /// Serves batch requests, one line each from `input`, until it
    /// closes, streaming each batch's frames to `out`.
    pub fn serve(&self, input: impl BufRead, out: &mut impl Write) -> Result<(), String> {
        let target =
            targets::find(&self.target).ok_or(format!("unknown target `{}`", self.target))?;
        if self.profile_phases {
            c11tester_telemetry::set_profiling(true);
        }
        if self.collect_coverage {
            c11tester_telemetry::set_coverage(true);
        }
        let config = self.config()?;
        for line in input.lines() {
            let line = line.map_err(|e| format!("cannot read request: {e}"))?;
            let request = Request::parse(&line)?;
            run_batch(&target, &config, self.stop_on_first_bug, request, out)?;
        }
        Ok(())
    }
}

/// Runs one batch: a tick per execution, then the fold and `done`. Stops
/// early at the first bug (if asked) or once the request's time left has
/// passed, checked between executions as an in-process worker does, so
/// a deadline never costs the fold of the executions already run.
fn run_batch(
    target: &Target,
    config: &Config,
    stop_on_first_bug: bool,
    request: Request,
    out: &mut impl Write,
) -> Result<(), String> {
    let started = Instant::now();
    let pipe = |e: std::io::Error| format!("pipe closed: {e}");
    let mut fold = TestReport::default();
    let mut reason = StopReason::BudgetExhausted;
    // Scoped so the model is torn down before the batch ships: a death
    // in teardown must cut the batch, not follow its `done`.
    {
        let mut model = Model::for_shard_from(config.clone(), request.first, 1);
        for _ in 0..request.count {
            if request
                .time_left
                .is_some_and(|left| started.elapsed() >= left)
            {
                reason = StopReason::Deadline;
                break;
            }
            let report = model.run(|| target.run());
            fold.absorb(&report);
            write_frame(out, TICK).map_err(pipe)?;
            if stop_on_first_bug && report.found_bug() {
                reason = StopReason::FirstBug;
                break;
            }
        }
    }
    write_frame(out, &batch_payload(&fold)).map_err(pipe)?;
    write_frame(out, &done_payload(reason)).map_err(pipe)
}

/// Parses the argument list *after* the leading `--worker` flag (the
/// inverse of [`WorkerSpec::to_args`]).
pub fn parse_worker_args(argv: impl Iterator<Item = String>) -> Result<WorkerSpec, String> {
    let mut target = None;
    let mut seed = None;
    let mut policy = Policy::C11Tester;
    let mut mix = None;
    let mut stop_on_first_bug = false;
    let mut profile_phases = false;
    let mut collect_coverage = false;
    let mut memory_limit = false;
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--target" => target = Some(value()?),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("not a number: `{v}`"))?);
            }
            "--policy" => policy = Policy::parse(&value()?)?,
            "--mix" => {
                let spec = value()?;
                StrategyMix::parse(&spec)?; // validate eagerly
                mix = Some(spec);
            }
            "--stop-on-first-bug" => stop_on_first_bug = true,
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
        stop_on_first_bug,
        profile_phases,
        collect_coverage,
        memory_limit,
    })
}

/// Entry point for the hidden `--worker` CLI mode: parses the remaining
/// arguments, serves batch requests from stdin against stdout until
/// stdin closes (exit 0), and maps errors to exit code 2 (the pool
/// treats a nonzero exit before `done` as a crash of the in-flight
/// execution).
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
    match spec.serve(std::io::stdin().lock(), &mut out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("c11campaign --worker: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_frame, read_frame, Frame};
    use c11tester::CoverageMap;

    fn spec() -> WorkerSpec {
        WorkerSpec {
            target: "rwlock-buggy".to_string(),
            seed: 0xC11,
            policy: Policy::C11Tester,
            mix: Some("random:2,pct2:1".to_string()),
            stop_on_first_bug: false,
            profile_phases: false,
            collect_coverage: false,
            memory_limit: false,
        }
    }

    /// One served batch as the parent sees it.
    struct Served {
        ticks: u64,
        fold: TestReport,
        reason: StopReason,
    }

    /// Serves `requests` and decodes the frames batch by batch, checking
    /// the tick → batch → done order.
    fn serve(spec: &WorkerSpec, requests: &str) -> Vec<Served> {
        let mut buf = Vec::new();
        spec.serve(requests.as_bytes(), &mut buf).expect("serves");
        let mut reader = std::io::BufReader::new(&buf[..]);
        let mut batches = Vec::new();
        let (mut ticks, mut fold) = (0, None);
        while let Some(payload) = read_frame(&mut reader).expect("frame") {
            match parse_frame(&payload).expect("parses") {
                Frame::Tick => {
                    assert!(fold.is_none(), "tick after the batch frame");
                    ticks += 1;
                }
                Frame::Batch(report) => fold = Some(*report),
                Frame::Done(reason) => batches.push(Served {
                    ticks: std::mem::take(&mut ticks),
                    fold: fold.take().expect("batch frame precedes done"),
                    reason,
                }),
            }
        }
        assert!(fold.is_none() && ticks == 0, "stream ends with done");
        batches
    }

    /// The executions at `[first, first + count)` run directly.
    fn direct(spec: &WorkerSpec, first: u64, count: u64) -> TestReport {
        let mut model = Model::for_shard_from(spec.config().expect("valid config"), first, 1);
        let mut fold = TestReport::default();
        for _ in 0..count {
            fold.absorb(&model.run(|| {
                c11tester_workloads::ds::rwlock_buggy::run_buggy();
            }));
        }
        fold
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
        // Index ranges arrive as requests, not flags.
        let err = parse_worker_args(["--first-index".to_string(), "0".to_string()].into_iter())
            .unwrap_err();
        assert!(err.contains("unknown worker flag"), "{err}");
    }

    #[test]
    fn worker_batch_reproduces_the_in_process_index_range() {
        let _gate = crate::coverage_gate_lock();
        let spec = spec();
        let served = serve(&spec, "32 8 -\n");
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].ticks, 8);
        assert_eq!(served[0].reason, StopReason::BudgetExhausted);
        assert_eq!(served[0].fold, direct(&spec, 32, 8));
        // A malformed request is an error, not a silently empty batch.
        assert!(spec.serve(&b"32 eight -\n"[..], &mut Vec::new()).is_err());
    }

    #[test]
    fn batch_frame_carries_alloc_counters_of_every_execution() {
        // Two requests to one child: every batch starts on a fresh model
        // (one fresh execution) and recycles within itself.
        let _gate = crate::coverage_gate_lock();
        let served = serve(&spec(), "0 8\t-\n 40 4 -\n");
        assert_eq!(served.len(), 2);
        for (batch, count) in served.iter().zip([8, 4]) {
            let alloc = batch.fold.total_stats.alloc;
            assert_eq!(alloc.fresh_executions, 1);
            assert_eq!(alloc.recycled_executions, count - 1);
        }
    }

    #[test]
    fn coverage_batch_ships_the_direct_fold_as_one_frame() {
        let _gate = crate::coverage_gate_lock();
        let mut spec = spec();
        spec.collect_coverage = true;
        let served = serve(&spec, "32 8 -\n");
        let expected = direct(&spec, 32, 8); // the gate is still on
        c11tester_telemetry::set_coverage(false);

        let shipped = &served[0].fold.coverage;
        assert_eq!(shipped, &expected.coverage);
        assert_eq!(shipped.collected_executions(), 8);
        assert!(shipped.distinct_total() > 0, "workload explores behaviors");
        assert_ne!(shipped, &CoverageMap::new());
    }

    #[test]
    fn a_deadline_mid_batch_ships_the_fold_of_exactly_the_completed_prefix() {
        let _gate = crate::coverage_gate_lock();
        let spec = spec();
        let served = serve(&spec, "100 1000000 40\n");
        let batch = &served[0];
        assert_eq!(batch.reason, StopReason::Deadline);
        assert!(
            batch.ticks > 0 && batch.ticks < 1_000_000,
            "{} executions ran",
            batch.ticks
        );
        assert_eq!(batch.fold.executions, batch.ticks);
        assert_eq!(batch.fold, direct(&spec, 100, batch.ticks));
        // No time left: nothing runs, and the empty fold still ships.
        let served = serve(&spec, "0 5 0\n");
        assert_eq!(served[0].ticks, 0);
        assert_eq!(served[0].fold, TestReport::default());
        assert_eq!(served[0].reason, StopReason::Deadline);
    }

    #[test]
    fn first_bug_ends_the_batch_after_its_tick() {
        let _gate = crate::coverage_gate_lock();
        let mut spec = spec();
        spec.stop_on_first_bug = true;
        let served = serve(&spec, "0 64 -\n");
        let batch = &served[0];
        assert_eq!(batch.reason, StopReason::FirstBug);
        assert_eq!(batch.fold.executions_with_bug, 1, "stops at the first");
        assert_eq!(batch.fold, direct(&spec, 0, batch.ticks));
    }
}
