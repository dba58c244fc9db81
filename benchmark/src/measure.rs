//! The end-to-end pass (`--trace 0`): what a user of the product sees on
//! one workload, measured only from outside — `Campaign::run`,
//! `Campaign::run_target` on a `ForkServer`, and `Model::run_at` — with
//! all tracing off.
//!
//! Load is closed-loop from one process: each trial runs to completion
//! before the next starts. A trial is a fixed execution count through
//! the product entry point; `--seconds` decides how many trials fit.

use crate::record::{meta_json, Check, Metric, PassRecord};
use crate::stats::{percentile, samples_beyond, sorted};
use crate::workloads::{Plan, Verdict, ISOLATE_BATCH};
use c11tester::{Failure, Model, TestReport};
use c11tester_campaign::targets;
use c11tester_campaign::{Campaign, CampaignBudget, Executor};
use c11tester_isolation::ForkServer;
use std::hint::black_box;
use std::process::Command;
use std::time::{Duration, Instant};

/// Cold starts per run; the reported `setup_s` is their median.
const COLD_STARTS: usize = 21;
/// Smallest latency pass, and smallest segment of a longer one: p99
/// then has 25 samples beyond it (ten are the least worth reporting).
const MIN_LATENCY_SAMPLES: u64 = 2_500;
/// Smallest segment of `isolate`'s batch samples (median only).
const ISOLATE_LATENCY_SEGMENT: usize = 100;
/// Fork-server batches timed for `isolate`'s `exec_p50_us`. A batch
/// costs ~5 ms, so the thousand a p99 needs (ten samples beyond it)
/// would take longer than the trials; `isolate` reports no p99.
const ISOLATE_LATENCY_BATCHES: u64 = 400;
/// Executions of the known-answer control campaigns.
const CONTROL_EXECUTIONS: u64 = 2_000;
/// Traces per generated program the independent oracle re-validates.
const ORACLE_TRACES: u64 = 200;

/// Options of one pass.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Measure for at least this long (timed trials only).
    pub seconds: u64,
    /// Tiny budgets: schema and check validation only.
    pub quick: bool,
}

/// FNV-1a over a byte stream — the benchmark's fingerprint of canonical
/// JSON (kept instead of the multi-megabyte strings themselves).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    /// The empty fingerprint.
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Hex form used in output files.
    pub fn hex(self) -> String {
        format!("{:#018x}", self.0)
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// One trial through the product entry point: every target of the plan,
/// `plan.executions` executions each, sequentially.
#[derive(Clone, Debug)]
pub struct Trial {
    /// Wall time inside the product entry point(s).
    pub wall: Duration,
    /// Executions requested.
    pub attempted: u64,
    /// Executions whose report came back.
    pub completed: u64,
    /// Executions that ended in `Failure::Infra`, plus crash records.
    pub infra: u64,
    /// Merged aggregate over all targets (for verdicts and counts).
    pub aggregate: TestReport,
    /// Fingerprint of the concatenated canonical JSON documents.
    pub canonical: Fnv,
}

impl Trial {
    /// Executions per wall second.
    pub fn rate(&self) -> f64 {
        self.completed as f64 / self.wall.as_secs_f64()
    }

    /// Attempted executions that failed: infrastructure failures, crash
    /// records and executions that never completed. Panics and deadlocks
    /// of the program under test are findings, not failures.
    pub fn failed(&self) -> u64 {
        self.infra + (self.attempted - self.completed)
    }
}

fn infra_failures(report: &TestReport) -> u64 {
    report
        .failures
        .iter()
        .filter(|(_, f)| matches!(f, Failure::Infra(_)))
        .count() as u64
}

/// Runs one trial with `workers` campaign workers, in-process or (with
/// `fork`) through the fork server. Only the product call is timed;
/// canonical rendering and fingerprinting happen outside the clock.
pub fn campaign_trial(
    plan: &Plan,
    workers: usize,
    fork: Option<&ForkServer>,
) -> Result<Trial, String> {
    let budget = CampaignBudget::executions(plan.executions);
    let campaign = Campaign::new(plan.config.clone()).with_workers(workers);
    let mut trial = Trial {
        wall: Duration::ZERO,
        attempted: 0,
        completed: 0,
        infra: 0,
        aggregate: TestReport::default(),
        canonical: Fnv::new(),
    };
    for &target in &plan.targets {
        let start = Instant::now();
        let report = match fork {
            Some(fork) => campaign.run_target(fork, &target, &budget)?,
            None => campaign.run(&budget, move || target.run()),
        };
        trial.wall += start.elapsed();
        trial.attempted += plan.executions;
        trial.completed += report.aggregate.executions;
        trial.infra += infra_failures(&report.aggregate) + report.crashes.len() as u64;
        trial.canonical.write(report.canonical_json().as_bytes());
        trial.aggregate.merge(&report.aggregate);
    }
    Ok(trial)
}

/// The fork server `isolate` runs on: children re-enter this binary's
/// `--worker` mode, product-default batch size.
pub fn fork_server() -> Result<ForkServer, String> {
    Ok(ForkServer::current_exe()?.with_batch_size(ISOLATE_BATCH))
}

/// Per-execution latency samples reduced to what the pass reports.
#[derive(Clone, Debug)]
pub struct Latency {
    /// Per-segment medians, in µs.
    pub p50: Vec<f64>,
    /// Per-segment 99th percentiles, in µs.
    pub p99: Vec<f64>,
    /// Samples taken in total.
    pub samples: usize,
    /// Samples beyond p99 in each segment.
    pub beyond_p99: usize,
    /// Executions run.
    pub attempted: u64,
    /// Executions that ended in an infrastructure failure or crash.
    pub failed: u64,
}

impl Latency {
    /// Splits the time-ordered samples (µs) into up to five contiguous
    /// segments of ≥ `min_segment` and takes p50/p99 per segment; the
    /// reported value is the median over segments, so one host hiccup
    /// (which is contiguous in time) cannot set it, and the per-segment
    /// values tell `compare` how far a run disagrees with itself.
    /// Passes too short to split keep all their samples in one segment.
    fn from_samples(us: &[f64], min_segment: usize, attempted: u64, failed: u64) -> Latency {
        let segments = (us.len() / min_segment).clamp(1, 5);
        let len = us.len() / segments;
        let (mut p50, mut p99) = (Vec::new(), Vec::new());
        for seg in us.chunks_exact(len).take(segments) {
            let s = sorted(seg);
            p50.push(percentile(&s, 0.50));
            p99.push(percentile(&s, 0.99));
        }
        Latency {
            p50,
            p99,
            samples: us.len(),
            beyond_p99: samples_beyond(len, 0.99),
            attempted,
            failed,
        }
    }
}

/// A bare single-worker `Model::run_at` loop, no campaign layer around
/// it and no tracing: `per_target` executions of every target from
/// index 0, `Instant` around each call.
#[derive(Clone, Debug)]
pub struct BareLoop {
    /// Per-execution latency in µs, in execution order.
    pub us: Vec<f64>,
    /// Wall time of the whole loop.
    pub wall: Duration,
    /// Executions that ended in `Failure::Infra`.
    pub failed: u64,
    /// Race checks the detectors performed (a `RaceDetector` field the
    /// campaign report drops).
    pub race_checks: u64,
}

impl BareLoop {
    /// Runs the loop.
    pub fn run(plan: &Plan, per_target: u64) -> BareLoop {
        let mut bare = BareLoop {
            us: Vec::with_capacity(per_target as usize * plan.targets.len()),
            wall: Duration::ZERO,
            failed: 0,
            race_checks: 0,
        };
        let begin = Instant::now();
        for &target in &plan.targets {
            let mut model = Model::new(plan.config.clone());
            for index in 0..per_target {
                let start = Instant::now();
                let report = model.run_at(index, || target.run());
                bare.us.push(start.elapsed().as_secs_f64() * 1e6);
                bare.failed += u64::from(matches!(report.failure, Some(Failure::Infra(_))));
                black_box(report);
            }
            bare.race_checks += model.into_parts().race.checks;
        }
        bare.wall = begin.elapsed();
        bare
    }

    /// Executions per wall second.
    pub fn rate(&self) -> f64 {
        self.us.len() as f64 / self.wall.as_secs_f64()
    }
}

/// The in-process latency pass: the bare loop over the trial's indices
/// (at least `MIN_LATENCY_SAMPLES` executions in all).
fn latency_in_process(plan: &Plan, quick: bool) -> Latency {
    let per_target = if quick {
        plan.executions
    } else {
        plan.executions
            .max(MIN_LATENCY_SAMPLES.div_ceil(plan.targets.len() as u64))
    };
    let bare = BareLoop::run(plan, per_target);
    Latency::from_samples(
        &bare.us,
        MIN_LATENCY_SAMPLES as usize,
        bare.us.len() as u64,
        bare.failed,
    )
}

/// `isolate`'s latency pass. The fork server's unit of work is a batch,
/// so the sample is one single-worker batch round trip (child spawn →
/// 64 exec frames → done) divided by the batch size: the per-execution
/// latency a user of `--isolate` pays.
fn latency_isolated(plan: &Plan, fork: &ForkServer, quick: bool) -> Result<Latency, String> {
    let batches = if quick { 4 } else { ISOLATE_LATENCY_BATCHES };
    let budget = CampaignBudget::executions(ISOLATE_BATCH);
    let target = plan.targets[0];
    let mut us = Vec::with_capacity(batches as usize);
    let mut failed = 0;
    for batch in 0..batches {
        let start = Instant::now();
        let outcome = fork.run_range(&plan.config, 1, &target, batch * ISOLATE_BATCH, &budget)?;
        us.push(start.elapsed().as_secs_f64() * 1e6 / ISOLATE_BATCH as f64);
        failed += ISOLATE_BATCH - outcome.aggregate.executions
            + infra_failures(&outcome.aggregate)
            + outcome.crashes.len() as u64;
    }
    Ok(Latency::from_samples(
        &us,
        ISOLATE_LATENCY_SEGMENT,
        batches * ISOLATE_BATCH,
        failed,
    ))
}

/// One cold start, run inside a fresh process (`c11perf cold-start`):
/// resolve the target → build the `Model`/`ForkServer` → first
/// execution's report returned. Generating the workload's inputs (the
/// plan) is the benchmark's work and stays outside the clock.
pub fn cold_start(plan: &Plan) -> Result<Duration, String> {
    let name = plan.targets[0].name;
    let start = Instant::now();
    let target = targets::find(name).ok_or(format!("unknown target `{name}`"))?;
    if plan.workload.isolate {
        let report = Campaign::new(plan.config.clone())
            .with_workers(1)
            .run_target(&fork_server()?, &target, &CampaignBudget::executions(1))?;
        black_box(report);
    } else {
        let mut model = Model::new(plan.config.clone());
        black_box(model.run_at(0, || target.run()));
    }
    Ok(start.elapsed())
}

/// Spawns `count` cold-start children of this binary and returns their
/// self-measured set-up times in seconds.
fn cold_starts(plan: &Plan, count: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot resolve current exe: {e}"))?;
    (0..count)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["cold-start", "--workload", plan.workload.name, "--seed"])
                .arg(plan.seed.to_string())
                .output()
                .map_err(|e| format!("cannot spawn cold-start child: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "cold-start child failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ));
            }
            let nanos: u64 = String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse()
                .map_err(|_| "cold-start child printed no duration".to_string())?;
            Ok(nanos as f64 / 1e9)
        })
        .collect()
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Environment variable naming the file fork-server children append
/// their own `VmHWM` to. Set only around `isolate`'s untimed warm-up
/// trial. (`getrusage(RUSAGE_CHILDREN)` cannot serve: a `vfork`ed
/// child's `ru_maxrss` starts at the *parent's* high-water mark, and a
/// process that `cargo run` exec'd into inherits cargo's rustc children.)
const CHILD_RSS_ENV: &str = "C11PERF_CHILD_RSS_FILE";

/// Called by a `--worker` child after its batch: appends its peak RSS to
/// the file the parent named, if it named one. Best effort — the parent
/// fails the pass if no child reported.
pub fn report_child_rss() {
    use std::io::Write;
    let Some(path) = std::env::var_os(CHILD_RSS_ENV) else {
        return;
    };
    if let (Ok(mb), Ok(mut file)) = (
        peak_rss_mb(),
        std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path),
    ) {
        // One short O_APPEND write per child (the line is formatted
        // first: `writeln!` on a `File` writes piecewise), so lines of
        // concurrent children do not interleave.
        let _ = file.write_all(format!("{mb}\n").as_bytes());
    }
}

/// `isolate`'s warm-up trial with the worker children reporting their
/// peak RSS; returns the trial and the largest report in MB.
fn warmup_reporting_child_rss(plan: &Plan, fork: &ForkServer) -> Result<(Trial, f64), String> {
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("child-rss-{}.txt", std::process::id()));
    std::env::set_var(CHILD_RSS_ENV, &path);
    let trial = campaign_trial(plan, plan.workers, Some(fork));
    std::env::remove_var(CHILD_RSS_ENV);
    let reports = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    let largest = reports
        .lines()
        .filter_map(|l| l.parse::<f64>().ok())
        .fold(0.0, f64::max);
    if largest == 0.0 {
        return Err("no fork-server child reported its peak RSS".to_string());
    }
    Ok((trial?, largest))
}

/// Known-answer controls from the workload definitions (§8.1): the
/// injected-bug targets report at least one bug and their fixed controls
/// none. Run with the `bughunt` workload, whose target they bracket.
fn control_checks(plan: &Plan, quick: bool) -> Vec<Check> {
    let executions = if quick { 200 } else { CONTROL_EXECUTIONS };
    [
        ("seqlock-buggy", true),
        ("seqlock-fixed", false),
        ("rwlock-buggy", true),
        ("rwlock-fixed", false),
    ]
    .into_iter()
    .map(|(name, buggy)| {
        let target = targets::find(name).expect("built-in section-8.1 target");
        let report = Campaign::new(plan.config.clone())
            .with_workers(1)
            .run(&CampaignBudget::executions(executions), move || {
                target.run()
            });
        let bugs = report.aggregate.executions_with_bug;
        Check::new(
            format!(
                "{name} reports {} over {executions} executions",
                if buggy { ">= 1 bug" } else { "0 bugs" }
            ),
            (bugs > 0) == buggy,
            format!("{bugs} executions with a bug"),
        )
    })
    .collect()
}

/// `gen`'s correctness check: the independent C11-axiom oracle (which
/// shares no engine code) re-validates the first traces of each program.
fn oracle_checks(plan: &Plan, quick: bool) -> Check {
    let traces = if quick { 20 } else { ORACLE_TRACES };
    let mut violations = 0usize;
    let mut first = String::new();
    for &pseed in &plan.pseeds {
        let program = c11tester_genprog::Program::generate(pseed);
        for (key, events) in c11tester_genprog::sweep(&program, plan.config.clone(), traces) {
            let found = c11tester_genprog::check_trace(&events);
            if first.is_empty() && !found.is_empty() {
                first = format!(
                    "; first: gen:{pseed} execution {}: {:?}",
                    key.index, found[0]
                );
            }
            violations += found.len();
        }
    }
    Check::new(
        format!(
            "oracle finds no violation on the first {traces} traces of {} programs",
            plan.pseeds.len()
        ),
        violations == 0,
        format!("{violations} violations{first}"),
    )
}

/// The verdict check of a workload's canonical aggregate.
pub fn verdict_check(plan: &Plan, aggregate: &TestReport) -> Option<Check> {
    let (races, bugs) = (
        aggregate.executions_with_race,
        aggregate.executions_with_bug,
    );
    let (what, ok) = match plan.workload.expect {
        Verdict::Bugs => (">= 1 execution with a bug", bugs > 0),
        Verdict::Races => (">= 1 execution with a race", races > 0),
        Verdict::RaceFree => ("0 executions with a race", races == 0),
        Verdict::Oracle | Verdict::Unspecified => return None,
    };
    Some(Check::new(
        format!("known answer: {what}"),
        ok,
        format!("{races} with a race, {bugs} with a bug"),
    ))
}

/// Checks that hold for every pass over a workload, run before timing.
pub fn preflight_checks(plan: &Plan, quick: bool) -> Vec<Check> {
    let mut checks = Vec::new();
    if plan.workload.name == "bughunt" {
        checks.extend(control_checks(plan, quick));
    }
    if plan.workload.expect == Verdict::Oracle {
        checks.push(oracle_checks(plan, quick));
    }
    checks
}

/// Runs the end-to-end pass of `plan`.
pub fn run(plan: &Plan, opts: Options) -> Result<PassRecord, String> {
    // One worker, one CPU (see `affinity`); `isolate` needs its two.
    if !plan.workload.isolate {
        crate::affinity::pin();
    }
    let mut checks = preflight_checks(plan, opts.quick);
    let setup = cold_starts(plan, if opts.quick { 3 } else { COLD_STARTS })?;

    let fork = if plan.workload.isolate {
        Some(fork_server()?)
    } else {
        None
    };
    let (warmup, child_rss) = match &fork {
        Some(fork) => warmup_reporting_child_rss(plan, fork)?,
        None => (campaign_trial(plan, plan.workers, None)?, 0.0),
    };
    let mut trials = Vec::new();
    let mut measured = Duration::ZERO;
    let min_trials = if opts.quick { 2 } else { 3 };
    while trials.len() < min_trials
        || (!opts.quick && measured < Duration::from_secs(opts.seconds) && trials.len() < 64)
    {
        let trial = campaign_trial(plan, plan.workers, fork.as_ref())?;
        measured += trial.wall;
        trials.push(trial);
    }

    let identical = trials.iter().all(|t| t.canonical == warmup.canonical);
    checks.push(Check::new(
        format!(
            "canonical JSON byte-identical across warm-up + {} trials",
            trials.len()
        ),
        identical,
        format!("fnv64 {}", warmup.canonical.hex()),
    ));
    checks.extend(verdict_check(plan, &warmup.aggregate));

    let latency = match &fork {
        Some(fork) => latency_isolated(plan, fork, opts.quick)?,
        None => latency_in_process(plan, opts.quick),
    };

    let mut rss = peak_rss_mb()?;
    let mut rss_note = "VmHWM of this process".to_string();
    if plan.workload.isolate {
        rss += child_rss;
        rss_note = format!("VmHWM of this process + {child_rss:.1} MB largest worker child");
    }

    let attempted =
        warmup.attempted + trials.iter().map(|t| t.attempted).sum::<u64>() + latency.attempted;
    let failed = warmup.failed() + trials.iter().map(Trial::failed).sum::<u64>() + latency.failed;
    let rates: Vec<f64> = trials.iter().map(Trial::rate).collect();
    let bug_rates: Vec<f64> = trials
        .iter()
        .map(|t| t.aggregate.bug_detection_rate())
        .collect();
    let latency_note = if plan.workload.isolate {
        format!(
            "{} batch round trips in {} segments, per-execution share of a 64-execution batch",
            latency.samples,
            latency.p50.len()
        )
    } else {
        format!(
            "{} samples in {} segments, {} beyond p99 per segment",
            latency.samples,
            latency.p50.len(),
            latency.beyond_p99
        )
    };
    let mut metrics = vec![
        Metric::median_of("execs_per_s", "1/s", rates).with_note(format!(
            "{} trials of {} executions, {} worker(s)",
            trials.len(),
            plan.trial_executions(),
            plan.workers
        )),
        Metric::median_of("exec_p50_us", "us", latency.p50).with_note(latency_note.clone()),
        Metric::single("peak_rss_mb", "MB", rss).with_note(rss_note),
        Metric::median_of("setup_s", "s", setup.clone())
            .with_note(format!("median of {} cold starts", setup.len())),
        Metric::median_of("bug_detection_rate", "share", bug_rates).with_note(format!(
            "{} of {} executions",
            warmup.aggregate.executions_with_bug, warmup.aggregate.executions
        )),
        Metric::single("failed_share", "share", failed as f64 / attempted as f64)
            .with_note(format!("{failed} of {attempted} attempted")),
    ];
    if !plan.workload.isolate {
        let p99 = Metric::median_of("exec_p99_us", "us", latency.p99).with_note(latency_note);
        metrics.insert(2, p99);
    }
    Ok(PassRecord {
        meta: meta_json(plan, opts.seconds, opts.quick),
        workload: plan.workload.name,
        trace: 0,
        metrics,
        checks,
        attempted,
        failed,
        canonical: warmup.canonical.hex(),
    })
}
