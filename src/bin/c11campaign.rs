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
//! c11campaign --target rwlock-buggy --canonical > report.json
//! c11campaign --target ms-queue --deadline-secs 10 --json
//! c11campaign --list
//! ```

use c11tester::{Config, Policy, StrategyMix};
use c11tester_campaign::cli::{parse_u64, usage_error};
use c11tester_campaign::{forensics, json, parse_policy, targets, Campaign, CampaignBudget};
use c11tester_isolation::ForkServer;
use std::path::Path;
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
                            c11campaign/v4 JSON report (docs/SCHEMA.md)
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
                parse_policy(&v)?;
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
    match run(&args, target) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Runs the campaign `args` describe on `target` and writes its
/// report, coverage, forensics and metrics.
fn run(args: &Args, target: targets::Target) -> Result<(), String> {
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
        let mut fork = ForkServer::current_exe()?;
        if let Some(n) = args.batch {
            fork = fork.with_batch_size(n);
        }
        Some(fork.with_exec_timeout(args.exec_timeout_secs.map(Duration::from_secs_f64)))
    } else {
        None
    };

    let mut campaign = Campaign::new(config);
    if let Some(w) = args.workers {
        campaign = campaign.with_workers(w);
    }
    if let Some(policy) = args.adaptive.as_deref() {
        campaign = campaign
            .with_epoch_len(args.epoch.unwrap_or(c11tester_campaign::DEFAULT_EPOCH_LEN))
            .with_policy(policy)?;
    }
    let trace = match &fork {
        Some(fork) => campaign.trace_target(fork, &target, &budget)?,
        None => campaign.trace(&budget, move || target.run()),
    };
    default_sigpipe(true);
    // One report; an adaptive run's trace adds its epochs to it.
    let report = &trace.report;

    if let Some(path) = args.coverage_out.as_deref() {
        std::fs::write(path, json::coverage(report, Some(&trace)) + "\n")
            .map_err(|e| format!("cannot write coverage to `{path}`: {e}"))?;
    }
    if let Some(dir) = args.forensics_dir.as_deref() {
        let races = &report.aggregate.races;
        let summary = forensics::write_bundles(Path::new(dir), args.seed, races, |index| {
            // A witness replays under the mix of the epoch that ran it.
            campaign
                .replay(&trace, index, move || target.run())
                .ok_or_else(|| format!("witness execution {index} falls outside every epoch"))
        })?;
        eprintln!("forensics: {summary} -> {dir}");
    }
    if let Some(path) = args.metrics_out.as_deref() {
        let meta = c11tester_telemetry::MetricsMeta {
            target: target.name.to_string(),
            seed: args.seed,
            policy: args.policy.name().to_string(),
            workers: report.workers as u64,
            isolated: args.isolate,
        };
        let body = if args.metrics_chrome {
            c11tester_telemetry::chrome_trace(&report.metrics, &meta)
        } else {
            report.metrics.to_json(&meta)
        };
        std::fs::write(path, body + "\n")
            .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))?;
    }

    if args.canonical {
        println!(
            "{}",
            json::canonical(report, Some(&trace), args.alloc_stats)
        );
    } else if args.json {
        println!("{}", json::full(report, Some(&trace)));
    } else {
        println!("target: {} ({})", target.name, target.group);
        print!("{trace}");
    }
    Ok(())
}
