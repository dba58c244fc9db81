//! `paper-tables` — regenerates the paper's evaluation: Tables 1–4,
//! §8.1 and Figure 14, one subcommand each (see `USAGE`).
//!
//! Every table is a module over the harness in `c11tester_bench`; the
//! numbers reproduce the paper's *shape*, not its testbed's absolute
//! values (docs/BENCH.md).

use c11tester_campaign::cli::usage_error;
use std::process::ExitCode;

mod figure14;
mod section8_1;
mod table1;
mod table2;
mod table3;
mod table4;

const USAGE: &str = "\
USAGE: paper-tables <table> [flags]

  table1 [--figure15]          application benchmarks, single-core and all-core
                               (+ Figure 15 speedups and geometric means)
  table2 [--figure16] [--strategies] [--adaptive]
                               data-structure benchmarks: time and race rate
                               (+ Figure 16 bars, per-strategy rates,
                               fixed-vs-adaptive campaigns)
  table3                       operations executed per application benchmark
  table4                       the 25 JSBench variants
  section8.1                   injected-bug detection rates and fixed controls
  figure14                     context-switch cost per handover approach

C11_BENCH_RUNS=<n> overrides each table's repetition count.";

/// A subcommand: name, the flags it accepts, and its entry point (which
/// asks `on(flag)` whether a flag was given).
type Table = (
    &'static str,
    &'static [&'static str],
    fn(&dyn Fn(&str) -> bool),
);

const TABLES: [Table; 6] = [
    ("table1", &["--figure15"], |on| {
        table1::run(on("--figure15"))
    }),
    (
        "table2",
        &["--figure16", "--strategies", "--adaptive"],
        |on| table2::run(on("--figure16"), on("--strategies"), on("--adaptive")),
    ),
    ("table3", &[], |_| table3::run()),
    ("table4", &[], |_| table4::run()),
    ("section8.1", &[], |_| section8_1::run()),
    ("figure14", &[], |_| figure14::run()),
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(name) = args.next() else {
        return usage_error("missing table name", USAGE);
    };
    let Some((_, accepted, run)) = TABLES.iter().find(|(table, ..)| *table == name) else {
        return usage_error(&format!("unknown table `{name}`"), USAGE);
    };
    let flags: Vec<String> = args.collect();
    if let Some(bad) = flags.iter().find(|f| !accepted.contains(&f.as_str())) {
        return usage_error(&format!("{name} does not take `{bad}`"), USAGE);
    }
    run(&|flag| flags.iter().any(|f| f == flag));
    ExitCode::SUCCESS
}
