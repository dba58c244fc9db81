//! §8.1 "Benchmarks with Injected Bugs": bug detection rates for the
//! broken seqlock and reader-writer lock under all three tools.
//!
//! Paper results: C11Tester detects the bugs in 28.8% (seqlock) and
//! 55.3% (rwlock) of 1,000 runs; tsan11 and tsan11rec detect neither in
//! 10,000 runs.
//!
//! ```text
//! paper-tables section8.1
//! ```
//! Set `C11_BENCH_RUNS` to change the run count (default 1000).

use c11tester::Policy;
use c11tester_bench::{columns, paper_model, rule, runs_from_env};
use c11tester_workloads::ds::{rwlock_buggy, seqlock};

/// One row: the bug detection rate of `runs` executions of `body`
/// under each tool.
fn rate_row(name: &str, seed: u64, runs: u64, body: fn()) {
    let rates = Policy::all().map(|p| paper_model(p, seed).check(runs, body).bug_detection_rate());
    println!(
        "{name:<22} {}",
        columns(&rates, |r| format!("{:>11.1}%", 100.0 * r))
    );
}

pub fn run() {
    let runs = u64::from(runs_from_env(1000));
    println!("Section 8.1: injected-bug detection rates ({runs} runs per cell)");
    rule(66);
    println!(
        "{:<22} {}",
        "Benchmark",
        columns(&Policy::all(), |p| format!("{:>12}", p.name()))
    );
    rule(66);

    rate_row("seqlock (buggy)", 0x81, runs, seqlock::run_buggy);
    rate_row("rwlock (buggy)", 0x81, runs, rwlock_buggy::run_buggy);
    rule(66);
    println!("(paper: seqlock 28.8% / 0% / 0%; rwlock 55.3% / 0% / 0%)");

    // Controls: the fixed variants must be clean under every tool.
    let runs = runs.min(200);
    rate_row("seqlock (fixed)", 0x82, runs, seqlock::run_fixed);
    rate_row("rwlock (fixed)", 0x82, runs, rwlock_buggy::run_fixed);
}
