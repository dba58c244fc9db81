//! Table 4: per-variant results for the 25 JSBench benchmarks — wall
//! time under each tool plus the number of normal and atomic operations
//! executed under C11Tester.
//!
//! ```text
//! paper-tables table4
//! ```
//! Set `C11_BENCH_RUNS` to change the timing repetitions (default 3).

use c11tester::Policy;
use c11tester_bench::{columns, paper_model, rule, runs_from_env, time_policy_runs};
use c11tester_workloads::apps::jsbench;

pub fn run() {
    const SEED: u64 = 0x7AB1E4;
    let runs = runs_from_env(3);
    println!("Table 4: individual JSBench benchmarks ({runs} timing runs per cell)");
    rule(96);
    println!(
        "{:<22} {} {:>14} {:>14}",
        "Benchmark",
        columns(&Policy::all(), |p| format!(
            "{:>12}",
            format!("{} ms", p.name())
        )),
        "# normal",
        "# atomic"
    );
    rule(96);
    for v in jsbench::variants() {
        let body = move || {
            jsbench::run(v);
        };
        let times = Policy::all().map(|p| time_policy_runs(p, SEED, runs, body).mean_ms());
        let report = paper_model(Policy::C11Tester, SEED).run(body);
        println!(
            "{:<22} {} {:>14} {:>14}",
            jsbench::name(&v),
            columns(&times, |t| format!("{t:>12.3}")),
            report.stats.normal_accesses,
            report.stats.atomic_ops()
        );
    }
    rule(96);
}
