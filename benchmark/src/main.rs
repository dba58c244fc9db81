//! `c11perf` — the layered benchmark of c11tester-rs.
//!
//! ```text
//! c11perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass, one workload
//! c11perf run --seed <n> --out <file> [--seconds <s>] [--quick]      every workload, both passes
//! c11perf compare <a.json> <b.json>                                  A/B verdict table
//! ```
//!
//! See `README.md` beside this package for the workloads, the metric
//! glossary and how to run an A/B.

mod affinity;
mod compare;
mod json;
mod kernels;
mod layers;
mod measure;
mod metrics;
mod record;
mod runall;
mod stats;
mod trace;
mod workloads;

use c11tester_campaign::cli::parse_u64;
use measure::Options;
use std::process::ExitCode;
use workloads::Plan;

const USAGE: &str = "\
c11perf: layered benchmark for c11tester-rs

USAGE:
    c11perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--out <file>]
    c11perf run --seed <n> --out <file> [--seconds <s>] [--quick]
    c11perf compare <a.json> <b.json>

WORKLOADS:
    bughunt queue app races memlimit isolate gen

--trace 0 measures the end-to-end metrics with all tracing off; --trace 1
measures the per-layer metrics and writes benchmark/out/trace-<workload>.json.
The last line of standard output of a single pass is one JSON object with
the keys correct, attempted, failed and metrics.";

/// Default length of the timed part of a pass (`run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 8;

/// Flags shared by the single-pass form and `run`.
#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<u64>,
    out: Option<String>,
    quick: bool,
}

fn parse_flags(args: impl Iterator<Item = String>) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => flags.workload = Some(value()?),
            "--seed" => flags.seed = Some(parse_u64(&value()?)?),
            "--seconds" => flags.seconds = Some(parse_u64(&value()?)?),
            "--trace" => flags.trace = Some(parse_u64(&value()?)?),
            "--out" => flags.out = Some(value()?),
            "--quick" => flags.quick = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(flags)
}

impl Flags {
    fn plan(&self) -> Result<Plan, String> {
        let name = self.workload.as_deref().ok_or("--workload is required")?;
        let workload =
            workloads::find(name).ok_or(format!("unknown workload `{name}` (see --help)"))?;
        Plan::new(workload, self.seed.ok_or("--seed is required")?, self.quick)
    }

    fn options(&self) -> Options {
        Options {
            seconds: self.seconds.unwrap_or(DEFAULT_SECONDS),
            quick: self.quick,
        }
    }
}

/// One pass over one workload — the form the benchmark driver invokes.
fn single_pass(flags: &Flags) -> Result<bool, String> {
    let plan = flags.plan()?;
    let record = match flags.trace.ok_or("--trace is required")? {
        0 => measure::run(&plan, flags.options())?,
        1 => layers::run(&plan, flags.options())?,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    record.print();
    if let Some(path) = &flags.out {
        std::fs::write(path, record.json()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", record.driver_line());
    Ok(record.correct())
}

/// Every workload, both passes, one output file.
fn run_all(flags: &Flags) -> Result<bool, String> {
    runall::run(
        flags.seed.ok_or("run needs --seed")?,
        flags.options().seconds,
        flags.quick,
        flags.out.as_deref().ok_or("run needs --out")?,
    )
}

/// Hidden child mode behind `setup_s`: one self-timed cold start.
fn cold_start(flags: &Flags) -> Result<bool, String> {
    let elapsed = measure::cold_start(&flags.plan()?)?;
    println!("{}", elapsed.as_nanos());
    Ok(true)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let outcome = match args.peek().map(String::as_str) {
        // Fork-server children re-enter here, exactly as they re-enter
        // `c11campaign --worker` in the product.
        Some("--worker") => {
            let code = c11tester_isolation::worker_main(args.skip(1));
            measure::report_child_rss();
            return code;
        }
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some("run") => parse_flags(args.skip(1)).and_then(|f| run_all(&f)),
        Some("compare") => {
            let files: Vec<String> = args.skip(1).collect();
            match files.as_slice() {
                [a, b] => compare::run(a, b),
                _ => Err("compare takes exactly two files".to_string()),
            }
        }
        Some("cold-start") => parse_flags(args.skip(1)).and_then(|f| cold_start(&f)),
        Some(_) => parse_flags(args).and_then(|f| single_pass(&f)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("c11perf: {msg}");
            ExitCode::from(2)
        }
    }
}
