//! `c11bench` — the in-tree statistical benchmark harness.
//!
//! Measures campaign throughput (median ± IQR executions/second over
//! repeated fixed-seed trials) on representative workload targets and
//! writes the `c11bench/v1` report to `BENCH_campaign.json` at the
//! repository root, establishing the performance trajectory future PRs
//! are compared against. Every trial re-runs the identical campaign,
//! so the harness simultaneously verifies the recycling determinism
//! contract (byte-identical canonical JSON per trial).
//!
//! ```text
//! c11bench                               # full run, writes BENCH_campaign.json
//! c11bench --baseline-file old.json      # adds per-target speedup columns
//! c11bench --smoke                       # tiny budget + schema/sanity gate (CI)
//! c11bench --targets ms-queue,silo --trials 9
//! ```

use c11tester_bench::statbench::{
    bench_target, parse_baseline_medians, render_json, validate, BenchConfig, DEFAULT_BENCH_TARGETS,
};
use c11tester_campaign::cli::{parse_u64, usage_error};
use c11tester_campaign::targets;
use std::process::ExitCode;

const USAGE: &str = "\
c11bench — in-tree statistical benchmark harness (median + IQR execs/sec)

USAGE:
    c11bench [OPTIONS]

OPTIONS:
    --targets <a,b,c>       comma-separated target names (see `c11campaign
                            --list`) [default: a representative litmus/ds/
                            locks/app mix]. A `group:<name>` entry expands
                            to every target of that group — e.g.
                            `group:graph` is the coherence-graph scaling
                            suite (mpmc-queue-large, ms-queue-large,
                            silo-large)
    --executions <N>        executions per timed trial [default: 300]
    --trials <N>            timed trials per target [default: 7]
    --warmup <N>            untimed warmup trials per target [default: 2]
    --workers <N>           campaign worker threads [default: 1 — fixed so
                            numbers are comparable across hosts]
    --seed <N>              base seed (decimal or 0x-hex) [default: 0xC11]
    --out <FILE>            output path [default: BENCH_campaign.json]
    --baseline-file <FILE>  previous c11bench/v1 JSON; adds baseline and
                            speedup columns per target
    --min-speedup <R>       with --baseline-file: fail (exit 4) if any
                            target's median/baseline ratio drops below R
                            (e.g. 0.98 tolerates a 2% regression). Only
                            meaningful comparing runs on the same host —
                            medians are absolute throughput
    --smoke                 quick schema/sanity gate for CI: tiny budget
                            (20 execs × 3 trials), validates the report
                            (positive medians, full trial vectors, the
                            determinism self-check) and exits non-zero on
                            violation. No absolute-time assertions — safe
                            on slow single-core runners.
    --help                  show this help
";

struct Args {
    targets: Option<Vec<String>>,
    cfg: BenchConfig,
    out: String,
    baseline_file: Option<String>,
    min_speedup: Option<f64>,
    smoke: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        targets: None,
        cfg: BenchConfig::default(),
        out: "BENCH_campaign.json".to_string(),
        baseline_file: None,
        min_speedup: None,
        smoke: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--targets" => {
                args.targets = Some(
                    value()?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--executions" => args.cfg.executions = parse_u64(&value()?)?.max(1),
            "--trials" => args.cfg.trials = parse_u64(&value()?)?.clamp(1, 1000) as u32,
            "--warmup" => args.cfg.warmup = parse_u64(&value()?)?.min(1000) as u32,
            "--workers" => args.cfg.workers = parse_u64(&value()?)?.max(1) as usize,
            "--seed" => args.cfg.seed = parse_u64(&value()?)?,
            "--out" => args.out = value()?,
            "--baseline-file" => args.baseline_file = Some(value()?),
            "--min-speedup" => {
                let v = value()?;
                let r: f64 = v.parse().map_err(|_| format!("not a ratio: `{v}`"))?;
                if !(r.is_finite() && r > 0.0) {
                    return Err(format!("--min-speedup must be a positive ratio, got `{v}`"));
                }
                args.min_speedup = Some(r);
            }
            "--smoke" => args.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.smoke {
        // Small fixed budget: the smoke gate checks schema and
        // determinism, not performance.
        args.cfg.executions = args.cfg.executions.min(20);
        args.cfg.trials = args.cfg.trials.min(3);
        args.cfg.warmup = args.cfg.warmup.min(1);
    }
    if args.min_speedup.is_some() && args.baseline_file.is_none() {
        return Err("--min-speedup requires --baseline-file".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            return usage_error(&msg, USAGE);
        }
    };

    let baseline = match args.baseline_file.as_deref() {
        None => None,
        Some(path) => match std::fs::read_to_string(path) {
            Err(e) => {
                eprintln!("error: cannot read baseline `{path}`: {e}");
                return ExitCode::from(2);
            }
            Ok(text) => match parse_baseline_medians(&text) {
                Err(msg) => {
                    eprintln!("error: baseline `{path}`: {msg}");
                    return ExitCode::from(2);
                }
                Ok(medians) => Some(medians),
            },
        },
    };

    let names: Vec<String> = match &args.targets {
        Some(list) => list.clone(),
        None => DEFAULT_BENCH_TARGETS
            .iter()
            .map(|s| s.to_string())
            .collect(),
    };
    let mut resolved = Vec::with_capacity(names.len());
    for name in &names {
        if let Some(group) = name.strip_prefix("group:") {
            let members: Vec<_> = targets::all()
                .into_iter()
                .filter(|t| t.group.eq_ignore_ascii_case(group))
                .collect();
            if members.is_empty() {
                eprintln!("error: unknown target group `{group}` (see `c11campaign --list`)");
                return ExitCode::from(2);
            }
            resolved.extend(members);
            continue;
        }
        match targets::find(name) {
            Some(t) => resolved.push(t),
            None => {
                eprintln!("error: unknown target `{name}` (see `c11campaign --list`)");
                return ExitCode::from(2);
            }
        }
    }

    let cfg = &args.cfg;
    eprintln!(
        "c11bench: {} target(s), {} execs/trial, {} trial(s) (+{} warmup), \
         {} worker(s), seed {:#x}",
        resolved.len(),
        cfg.executions,
        cfg.trials,
        cfg.warmup,
        cfg.workers,
        cfg.seed,
    );
    println!(
        "{:<18} {:>14} {:>12} {:>12} {:>9}",
        "TARGET", "MEDIAN exec/s", "IQR", "BASELINE", "SPEEDUP"
    );
    let mut results = Vec::with_capacity(resolved.len());
    for target in &resolved {
        let base = baseline.as_ref().and_then(|m| m.get(target.name)).copied();
        let r = bench_target(target, cfg, base);
        println!(
            "{:<18} {:>14.1} {:>12.1} {:>12} {:>9}",
            r.name,
            r.median,
            r.iqr,
            r.baseline_median
                .map(|b| format!("{b:.1}"))
                .unwrap_or_else(|| "-".to_string()),
            r.speedup()
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".to_string()),
        );
        results.push(r);
    }

    let json = render_json(cfg, &results);
    if let Err(e) = std::fs::write(&args.out, format!("{json}\n")) {
        eprintln!("error: cannot write `{}`: {e}", args.out);
        return ExitCode::from(2);
    }
    eprintln!("c11bench: wrote {}", args.out);

    if let Err(msg) = validate(&results, cfg) {
        eprintln!("c11bench: VALIDATION FAILED: {msg}");
        return ExitCode::from(3);
    }
    if args.smoke {
        eprintln!("c11bench: smoke validation passed");
    }
    if let Some(floor) = args.min_speedup {
        let mut regressed = false;
        for r in &results {
            match r.speedup() {
                Some(s) if s < floor => {
                    eprintln!(
                        "c11bench: REGRESSION: `{}` at {:.3}x of baseline \
                         (floor {floor:.3}x)",
                        r.name, s
                    );
                    regressed = true;
                }
                Some(_) => {}
                None => {
                    eprintln!(
                        "c11bench: REGRESSION GATE: baseline has no median for \
                         `{}` — cannot assert the floor",
                        r.name
                    );
                    regressed = true;
                }
            }
        }
        if regressed {
            return ExitCode::from(4);
        }
        eprintln!(
            "c11bench: all {} target(s) at or above {floor:.3}x of baseline",
            results.len()
        );
    }
    ExitCode::SUCCESS
}
