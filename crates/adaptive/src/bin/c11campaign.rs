//! `c11campaign` — run a (plain or adaptive) exploration campaign on a
//! built-in workload.
//!
//! ```text
//! c11campaign --target seqlock-buggy --executions 1000 --workers 8 --seed 7
//! c11campaign --target rwlock-buggy --stop-on-first-bug
//! c11campaign --target rwlock-buggy --mix random:2,pct2:1,pct3:1
//! c11campaign --target rwlock-buggy --adaptive ucb1 --epoch 100
//! c11campaign --target null-deref-buggy --isolate
//! c11campaign --target spin-forever --isolate --exec-timeout 2
//! c11campaign --target rwlock-buggy --canonical > baseline.json
//! c11campaign --target rwlock-buggy --baseline baseline.json
//! c11campaign --target ms-queue --deadline-secs 10 --json
//! c11campaign --list
//! ```

use c11tester::{Config, DedupHistory, Model, Policy, StrategyMix};
use c11tester_adaptive::AdaptiveCampaign;
use c11tester_campaign::baseline::{BaselineDiff, BaselineSummary};
use c11tester_campaign::cli::{parse_u64, usage_error};
use c11tester_campaign::forensics::{self, CaptureSink, Witness};
use c11tester_campaign::{targets, Campaign, CampaignBudget, EpochTrace};
use c11tester_isolation::ForkServer;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
c11campaign — parallel exploration campaigns over the built-in workloads

USAGE:
    c11campaign --target <NAME> [OPTIONS]
    c11campaign --list

OPTIONS:
    --target <NAME>         workload to campaign on (see --list). The open-ended
                            gen:<PSEED> namespace (decimal or 0x-hex) names
                            seed-generated programs beyond the showcase list
    --executions <N>        execution budget [default: 1000]
    --workers <N>           worker threads [default: all CPUs]
    --seed <N>              base seed (decimal or 0x-hex) [default: 0xC11]
    --policy <P>            c11tester | tsan11 | tsan11rec [default: c11tester]
    --mix <SPEC>            strategy mix: comma-separated <strategy>[:<weight>]
                            entries, where <strategy> is random, burst[@<mean>],
                            or pct<depth>[@<ops>] (e.g. random:4,pct2:2,pct3:1,
                            burst:1). Execution i runs under the strategy
                            assigned from (seed, i); the report gains
                            per-strategy detection columns.
    --adaptive <POLICY>     close the loop: split the budget into epochs and
                            reweight the mix between epochs from the
                            per-strategy detection columns. POLICY is fixed,
                            ucb1[@<c>], coverage-ucb[@<c>] (rewards arms by
                            *new behaviors* discovered — enables coverage
                            collection automatically), or exp3[@<eta>].
                            Without --mix the default arm set
                            random:1,pct2:1,pct3:1,burst:1 is used; the
                            report becomes a c11campaign/v4 epoch trace.
    --epoch <N>             epoch length in executions [default: 64;
                            requires --adaptive]
    --isolate               run executions in child worker processes (fork
                            server): a target that segfaults, aborts, or hangs
                            kills one child, is recorded in the report's
                            crashes column, and the campaign continues. The
                            aggregate is byte-identical to an in-process run
                            on healthy targets.
    --exec-timeout <SECS>   with --isolate: kill a child that spends longer
                            than SECS wall-clock on a single execution and
                            record a timeout crash
    --batch <N>             with --isolate: executions per batch: the unit
                            of fold, fresh state and crash re-run
                            [default: 64]
    --baseline <FILE>       diff this run's detection rates against a saved
                            canonical/full JSON report (v2, v3, or v4); exits
                            3 when a rate regressed beyond the threshold
    --baseline-threshold <R> absolute rate drop tolerated by --baseline
                            [default: 0.05]
    --memory-limit          first-class §7.1 memory limiting: windowed
                            execution-graph pruning plus mo-graph arena
                            compaction, so resident graph state stays bounded
                            on long executions (old trace state is discarded,
                            which may narrow producible behaviors). The window
                            and compaction trigger are deterministic —
                            canonical output is byte-identical at any worker
                            count, in-process or --isolate
    --stop-on-first-bug     stop all workers at the first bug
    --deadline-secs <SECS>  wall-clock deadline for the campaign
    --json                  emit the full JSON report instead of text
    --canonical             emit the canonical (worker-count independent)
                            JSON report — the format --baseline consumes
    --alloc-stats           with --canonical: include the allocation
                            diagnostics block (recycled-vs-fresh execution
                            provisioning, clock-vector spills) inside
                            stats. Off by default — the block depends on
                            worker count and recycling, so it is excluded
                            from the byte-identity contract and goldens.
                            Works with --isolate too: children report their
                            batch counters over the wire in each batch frame.
    --metrics-out <FILE>    write a c11metrics/v1 diagnostic report (phase
                            timings, per-worker utilization, fork-server
                            health, epoch timeline; see docs/METRICS.md)
                            to FILE. Enables phase profiling for the run.
                            Diagnostics never enter the canonical report:
                            stdout stays byte-identical with or without
                            this flag.
    --metrics-format <FMT>  json (default) | chrome: with chrome, FILE gets
                            a Chrome trace-event array — open it in
                            chrome://tracing or https://ui.perfetto.dev
    --coverage-out <FILE>   write a c11coverage/v1 behavior-coverage report to
                            FILE: the distinct rf edges, mo adjacencies, race
                            classes, and interleaving signatures the campaign
                            explored, plus a per-epoch new-behavior growth
                            curve for adaptive runs (see docs/COVERAGE.md).
                            Enables coverage collection for the run; stdout
                            stays byte-identical with or without this flag,
                            and the file is byte-identical for any worker
                            count, in-process or --isolate
    --forensics-dir <DIR>   write one race-NNN.{json,dot} provenance bundle
                            per deduplicated race into DIR: the replay key
                            (seed, epoch, index), every access-pair shape seen
                            behind the dedup key, a committed-event window
                            around the racing object, and a po/rf/mo event
                            graph in Graphviz DOT — rebuilt by re-running each
                            race's witness execution with tracing enabled
    --list                  list available targets
    --help                  show this help

ENVIRONMENT:
    C11TESTER_TRACE=1       stream structured per-event schedule traces
                            (JSONL, one object per committed load/store/RMW,
                            keyed by seed/epoch/index) to stderr
";

/// Arm set used by `--adaptive` when no `--mix` is given.
const DEFAULT_ADAPTIVE_MIX: &str = "random:1,pct2:1,pct3:1,burst:1";

struct Args {
    target: Option<String>,
    executions: u64,
    workers: Option<usize>,
    seed: u64,
    policy: Policy,
    mix: Option<StrategyMix>,
    adaptive: Option<String>,
    epoch: Option<u64>,
    isolate: bool,
    exec_timeout_secs: Option<f64>,
    batch: Option<u64>,
    baseline: Option<String>,
    baseline_threshold: f64,
    memory_limit: bool,
    stop_on_first_bug: bool,
    deadline_secs: Option<f64>,
    json: bool,
    canonical: bool,
    alloc_stats: bool,
    metrics_out: Option<String>,
    metrics_chrome: bool,
    coverage_out: Option<String>,
    forensics_dir: Option<String>,
    list: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        target: None,
        executions: 1000,
        workers: None,
        seed: 0xC11,
        policy: Policy::C11Tester,
        mix: None,
        adaptive: None,
        epoch: None,
        isolate: false,
        exec_timeout_secs: None,
        batch: None,
        baseline: None,
        baseline_threshold: 0.05,
        memory_limit: false,
        stop_on_first_bug: false,
        deadline_secs: None,
        json: false,
        canonical: false,
        alloc_stats: false,
        metrics_out: None,
        metrics_chrome: false,
        coverage_out: None,
        forensics_dir: None,
        list: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--target" => args.target = Some(value()?),
            "--executions" => args.executions = parse_u64(&value()?)?,
            "--workers" => {
                let v = value()?;
                let n: usize = v.parse().map_err(|_| format!("not a number: `{v}`"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".into());
                }
                args.workers = Some(n);
            }
            "--seed" => args.seed = parse_u64(&value()?)?,
            "--policy" => args.policy = Policy::parse(&value()?)?,
            "--mix" => args.mix = Some(StrategyMix::parse(&value()?)?),
            "--adaptive" => {
                let v = value()?;
                // Validate eagerly for a parse-time error message.
                c11tester_adaptive::parse_policy(&v)?;
                args.adaptive = Some(v);
            }
            "--epoch" => {
                let n = parse_u64(&value()?)?;
                if n == 0 {
                    return Err("--epoch must be at least 1".into());
                }
                args.epoch = Some(n);
            }
            "--isolate" => args.isolate = true,
            "--exec-timeout" => {
                let v = value()?;
                let secs: f64 = v.parse().map_err(|_| format!("not a number: `{v}`"))?;
                if !secs.is_finite() || secs <= 0.0 || secs > 1e9 {
                    return Err("--exec-timeout must be a positive number of seconds".into());
                }
                args.exec_timeout_secs = Some(secs);
            }
            "--batch" => {
                let n = parse_u64(&value()?)?;
                if n == 0 {
                    return Err("--batch must be at least 1".into());
                }
                args.batch = Some(n);
            }
            "--baseline" => args.baseline = Some(value()?),
            "--baseline-threshold" => {
                let v = value()?;
                let t: f64 = v.parse().map_err(|_| format!("not a number: `{v}`"))?;
                if !t.is_finite() || !(0.0..=1.0).contains(&t) {
                    return Err("--baseline-threshold must be a rate in [0, 1]".into());
                }
                args.baseline_threshold = t;
            }
            "--memory-limit" => args.memory_limit = true,
            "--stop-on-first-bug" => args.stop_on_first_bug = true,
            "--deadline-secs" => {
                let v = value()?;
                let secs: f64 = v.parse().map_err(|_| format!("not a number: `{v}`"))?;
                // Finite and within Duration range, so from_secs_f64
                // cannot panic (rejects nan/inf/1e20 cleanly).
                if !secs.is_finite() || secs <= 0.0 || secs > 1e9 {
                    return Err("--deadline-secs must be a positive number of seconds".into());
                }
                args.deadline_secs = Some(secs);
            }
            "--json" => args.json = true,
            "--canonical" => args.canonical = true,
            "--alloc-stats" => args.alloc_stats = true,
            "--metrics-out" => args.metrics_out = Some(value()?),
            "--metrics-format" => {
                let v = value()?;
                args.metrics_chrome = match v.to_ascii_lowercase().as_str() {
                    "json" => false,
                    "chrome" => true,
                    _ => return Err(format!("unknown metrics format `{v}` (json | chrome)")),
                };
            }
            "--coverage-out" => args.coverage_out = Some(value()?),
            "--forensics-dir" => args.forensics_dir = Some(value()?),
            "--list" => args.list = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.epoch.is_some() && args.adaptive.is_none() {
        return Err("--epoch requires --adaptive".into());
    }
    if args.exec_timeout_secs.is_some() && !args.isolate {
        return Err("--exec-timeout requires --isolate".into());
    }
    if args.batch.is_some() && !args.isolate {
        return Err("--batch requires --isolate".into());
    }
    if args.json && args.canonical {
        return Err("--json and --canonical are mutually exclusive".into());
    }
    if args.alloc_stats && !args.canonical {
        return Err("--alloc-stats requires --canonical".into());
    }
    if args.metrics_chrome && args.metrics_out.is_none() {
        return Err("--metrics-format requires --metrics-out".into());
    }
    Ok(args)
}

fn list_targets() {
    println!("{:<18} {:<12} DESCRIPTION", "TARGET", "GROUP");
    for t in targets::all() {
        println!("{:<18} {:<12} {}", t.name, t.group, t.description);
    }
}

/// Sets `SIGPIPE` to its default action (`true`), so `c11campaign ... |
/// head` exits quietly instead of panicking on a closed stdout, or back
/// to Rust's ignore (`false`), so the fork server's write to a child
/// that just died is an `EPIPE` it triages rather than the campaign's
/// death. Declared directly since the `libc` crate is unavailable
/// offline.
#[cfg(unix)]
fn default_sigpipe(default: bool) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGPIPE: i32 = 13;
    const SIG_DFL: usize = 0;
    const SIG_IGN: usize = 1;
    unsafe {
        signal(SIGPIPE, if default { SIG_DFL } else { SIG_IGN });
    }
}

#[cfg(not(unix))]
fn default_sigpipe(_default: bool) {}

/// Diffs the current run against the saved baseline; returns the exit
/// code (0 clean, 3 regressed, 2 on load/parse errors).
fn diff_against_baseline(current_canonical: &str, baseline_path: &str, threshold: f64) -> ExitCode {
    let current = match BaselineSummary::parse(current_canonical) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: current report unreadable: {e}");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline `{baseline_path}`: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline = match BaselineSummary::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: baseline `{baseline_path}` unreadable: {e}");
            return ExitCode::from(2);
        }
    };
    let diff = BaselineDiff::compare(&current, &baseline, threshold);
    eprintln!(
        "baseline: {} (seed {:#x}, {} executions, strategy {})",
        baseline.schema, baseline.base_seed, baseline.executions, baseline.strategy,
    );
    eprintln!("{diff}");
    if diff.regressed() {
        eprintln!("error: detection rate regressed beyond {threshold} vs `{baseline_path}`");
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// Replays global execution `index` under `config` with schedule
/// tracing enabled and returns the forensics witness. Deterministic:
/// executions are pure functions of `(seed, index)`, so the replay
/// commits the same events the campaign's worker did.
fn replay_witness(config: &Config, target: targets::Target, epoch: u64, index: u64) -> Witness {
    let was_tracing = c11tester_telemetry::tracing_enabled();
    c11tester_telemetry::set_tracing(true);
    let sink = CaptureSink::new();
    let mut model = Model::new(config.clone()).with_trace_sink(Box::new(sink.clone()));
    model.set_trace_epoch(epoch);
    let report = model.run_at(index, move || target.run());
    c11tester_telemetry::set_tracing(was_tracing);
    let events = sink
        .take()
        .into_iter()
        .find(|(k, _)| k.index == index)
        .map(|(_, ev)| ev)
        .unwrap_or_default();
    Witness {
        epoch,
        report,
        events,
    }
}

/// Forensics bundles for a plain campaign: every witness replays under
/// the campaign's own config (epoch 0).
fn write_plain_forensics(
    dir: &str,
    seed: u64,
    config: &Config,
    target: targets::Target,
    races: &DedupHistory,
) -> Result<forensics::ForensicsSummary, String> {
    forensics::write_bundles(std::path::Path::new(dir), seed, races, |index| {
        Ok(replay_witness(config, target, 0, index))
    })
}

/// Forensics bundles for an adaptive campaign: each witness index is
/// mapped to the epoch that ran it, and replays under that epoch's
/// recorded mix on the base config.
fn write_adaptive_forensics(
    dir: &str,
    seed: u64,
    base_config: &Config,
    target: targets::Target,
    trace: &EpochTrace,
) -> Result<forensics::ForensicsSummary, String> {
    forensics::write_bundles(
        std::path::Path::new(dir),
        seed,
        &trace.aggregate.races,
        |index| {
            let record = trace
                .records
                .iter()
                .find(|r| index >= r.start_index && index < r.start_index + trace.epoch_len)
                .ok_or_else(|| format!("witness execution {index} falls outside every epoch"))?;
            let mix = StrategyMix::parse(&record.mix)?;
            let config = base_config.clone().with_mix(mix);
            Ok(replay_witness(&config, target, record.epoch, index))
        },
    )
}

fn main() -> ExitCode {
    default_sigpipe(true);
    // Hidden fork-server re-entry: `c11campaign --worker …` serves
    // batch requests from stdin, running each batch serially and
    // streaming length-prefixed frames to stdout (see
    // `c11tester_isolation::worker`). Must be the first argument — the
    // fork server always puts it there.
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--worker") {
        argv.next();
        return c11tester_isolation::worker_main(argv);
    }
    let args = match parse_args(argv) {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            return usage_error(&msg, USAGE);
        }
    };
    if args.list {
        list_targets();
        return ExitCode::SUCCESS;
    }
    let Some(name) = args.target.as_deref() else {
        return usage_error("--target (or --list) is required", USAGE);
    };
    let target = match targets::resolve(name) {
        targets::Lookup::Found(t) => t,
        targets::Lookup::MalformedGen(msg) => return usage_error(&msg, USAGE),
        targets::Lookup::Unknown => {
            eprintln!("error: unknown target `{name}`; available targets:\n");
            list_targets();
            return ExitCode::from(2);
        }
    };

    // Phase profiling is opt-in: off, each timer site costs one relaxed
    // atomic load. --metrics-out is what opts in (child workers inherit
    // the gate through the fork server's --profile-phases flag).
    if args.metrics_out.is_some() {
        c11tester_telemetry::set_profiling(true);
    }

    // Coverage collection is opt-in the same way: --coverage-out, or a
    // coverage-driven adaptive policy (which reweights from the deltas),
    // arms the per-execution capture. Child workers inherit the gate
    // through the fork server's --coverage flag.
    let coverage_policy = args
        .adaptive
        .as_deref()
        .is_some_and(|p| p.trim().to_ascii_lowercase().starts_with("coverage"));
    if args.coverage_out.is_some() || coverage_policy {
        c11tester_telemetry::set_coverage(true);
    }

    let mut config = Config::for_policy(args.policy).with_seed(args.seed);
    if args.memory_limit {
        config = config.with_memory_limit();
    }
    if let Some(mix) = args.mix.clone() {
        config = config.with_mix(mix);
    } else if args.adaptive.is_some() {
        config = config.with_mix(StrategyMix::parse(DEFAULT_ADAPTIVE_MIX).expect("valid default"));
    }
    // Kept aside for forensics replays (the campaign consumes `config`).
    let base_config = config.clone();
    let mut budget =
        CampaignBudget::executions(args.executions).with_stop_on_first_bug(args.stop_on_first_bug);
    if let Some(secs) = args.deadline_secs {
        budget = budget.with_deadline(Duration::from_secs_f64(secs));
    }

    // With --isolate, executions run in child processes that re-enter
    // this binary in --worker mode. Their stdin pipes must not deliver
    // SIGPIPE to the campaign until it has finished.
    let fork = if args.isolate {
        default_sigpipe(false);
        match ForkServer::current_exe() {
            Ok(fork) => {
                let fork = match args.batch {
                    Some(n) => fork.with_batch_size(n),
                    None => fork,
                };
                Some(fork.with_exec_timeout(args.exec_timeout_secs.map(Duration::from_secs_f64)))
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        }
    } else {
        None
    };

    // Run the campaign (adaptive or plain, in-process or isolated) and
    // collect the output forms the tail of main needs.
    let (text, full_json, canonical_json, metrics, workers_used) = if let Some(policy) =
        args.adaptive.as_deref()
    {
        let mut campaign = AdaptiveCampaign::new(config)
            .with_epoch_len(args.epoch.unwrap_or(c11tester_adaptive::DEFAULT_EPOCH_LEN));
        campaign = match campaign.with_policy(policy) {
            Ok(c) => c,
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::from(2);
            }
        };
        if let Some(w) = args.workers {
            campaign = campaign.with_workers(w);
        }
        let report = if let Some(fork) = &fork {
            match campaign.run_target(fork, &target, &budget) {
                Ok(report) => report,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::from(2);
                }
            }
        } else {
            campaign.run(&budget, move || target.run())
        };
        if let Some(path) = args.coverage_out.as_deref() {
            if let Err(e) = std::fs::write(path, report.coverage_json() + "\n") {
                eprintln!("error: cannot write coverage to `{path}`: {e}");
                return ExitCode::from(2);
            }
        }
        if let Some(dir) = args.forensics_dir.as_deref() {
            match write_adaptive_forensics(dir, args.seed, &base_config, target, &report.trace) {
                Ok(summary) => eprintln!("forensics: {summary} -> {dir}"),
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::from(2);
                }
            }
        }
        let canonical = if args.alloc_stats {
            report.canonical_json_with_alloc_stats()
        } else {
            report.canonical_json()
        };
        let workers = report.workers;
        (
            report.to_string(),
            report.to_json(),
            canonical,
            report.metrics,
            workers,
        )
    } else {
        let mut campaign = Campaign::new(config);
        if let Some(w) = args.workers {
            campaign = campaign.with_workers(w);
        }
        let report = if let Some(fork) = &fork {
            match campaign.run_target(fork, &target, &budget) {
                Ok(report) => report,
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::from(2);
                }
            }
        } else {
            campaign.run(&budget, move || target.run())
        };
        if let Some(path) = args.coverage_out.as_deref() {
            if let Err(e) = std::fs::write(path, report.coverage_json() + "\n") {
                eprintln!("error: cannot write coverage to `{path}`: {e}");
                return ExitCode::from(2);
            }
        }
        if let Some(dir) = args.forensics_dir.as_deref() {
            match write_plain_forensics(
                dir,
                args.seed,
                &base_config,
                target,
                &report.aggregate.races,
            ) {
                Ok(summary) => eprintln!("forensics: {summary} -> {dir}"),
                Err(msg) => {
                    eprintln!("error: {msg}");
                    return ExitCode::from(2);
                }
            }
        }
        let canonical = if args.alloc_stats {
            report.canonical_json_with_alloc_stats()
        } else {
            report.canonical_json()
        };
        let workers = report.workers;
        (
            report.to_string(),
            report.to_json(),
            canonical,
            report.metrics,
            workers,
        )
    };

    default_sigpipe(true);
    if let Some(path) = args.metrics_out.as_deref() {
        let meta = c11tester_telemetry::MetricsMeta {
            target: target.name.to_string(),
            seed: args.seed,
            policy: args.policy.name().to_string(),
            workers: workers_used as u64,
            isolated: args.isolate,
        };
        let body = if args.metrics_chrome {
            c11tester_telemetry::chrome_trace(&metrics, &meta)
        } else {
            metrics.to_json(&meta)
        };
        if let Err(e) = std::fs::write(path, body + "\n") {
            eprintln!("error: cannot write metrics to `{path}`: {e}");
            return ExitCode::from(2);
        }
    }

    if args.canonical {
        println!("{canonical_json}");
    } else if args.json {
        println!("{full_json}");
    } else {
        println!("target: {} ({})", target.name, target.group);
        print!("{text}");
    }

    if let Some(path) = args.baseline.as_deref() {
        return diff_against_baseline(&canonical_json, path, args.baseline_threshold);
    }
    ExitCode::SUCCESS
}
