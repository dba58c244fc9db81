//! Table 1: application-benchmark performance under the three tools in
//! the single-core and all-core configurations — plus Figure 15 (the
//! speedups relative to tsan11 on a single core, with geometric means).
//!
//! The paper reports wall time or throughput per application; here the
//! uniform metric is mean wall time per model execution of each
//! application simulation (lower is better), from which the Figure 15
//! speedups are derived.
//!
//! The single-core configuration pins to CPU 0 and times a serial
//! model, as the paper's `taskset` runs do. The all-core configuration
//! is a **campaign** (`c11tester-campaign`): the repeated-execution
//! workload fans out over every core, which is how the tool actually
//! uses a multicore host — per-execution results are identical to the
//! serial stream by the campaign determinism contract.
//!
//! ```text
//! paper-tables table1 [--figure15]
//! ```
//! Set `C11_BENCH_RUNS` to change the run count (default 10, as in the
//! paper).

use c11tester::Policy;
use c11tester_bench::{
    campaign_mean_ms, campaign_runs, columns, geomean, paper_config, pin_to_single_core, rule,
    runs_from_env, time_policy_runs, unpin_all_cores,
};
use c11tester_workloads::AppBench;

fn measure_config(single_core: bool, runs: u32) -> Vec<(AppBench, [f64; 3])> {
    const SEED: u64 = 0x7AB1E1;
    if single_core {
        if !pin_to_single_core() {
            eprintln!("(single-core pinning unavailable; numbers reflect all cores)");
        }
    } else {
        unpin_all_cores();
    }
    let time_cell = |p: Policy, app: AppBench| -> f64 {
        if single_core {
            // Serial model on the pinned core, as the paper's taskset runs.
            time_policy_runs(p, SEED, runs, move || app.run_default()).mean_ms()
        } else {
            // Campaign over all cores: the repeated-execution stream fans out.
            let report = campaign_runs(paper_config(p, SEED), u64::from(runs), move || {
                app.run_default()
            });
            campaign_mean_ms(&report)
        }
    };
    let out = AppBench::all()
        .into_iter()
        .map(|app| (app, Policy::all().map(|p| time_cell(p, app))))
        .collect();
    unpin_all_cores();
    out
}

pub fn run(figure15: bool) {
    let runs = runs_from_env(10);

    println!("Table 1: application benchmarks, mean wall time per execution (ms, {runs} runs)");
    let mut per_config = Vec::new();
    for (label, single) in [("Single-core", true), ("All-core", false)] {
        println!();
        println!("{label} configuration");
        rule(62);
        println!(
            "{:<10} {}",
            "Test",
            columns(&Policy::all(), |p| format!("{:>14}", p.name()))
        );
        rule(62);
        let rows = measure_config(single, runs);
        for (app, times) in &rows {
            println!(
                "{:<10} {}",
                app.name(),
                columns(times, |t| format!("{t:>14.3}"))
            );
        }
        per_config.push(rows);
    }
    println!();
    println!("(paper shape: C11Tester ≫ tsan11rec; tsan11 fastest overall)");

    if figure15 {
        println!();
        println!("Figure 15: speedup vs tsan11 (single-core), higher is faster");
        rule(62);
        // Baseline: tsan11 in the single-core configuration.
        let baseline: Vec<f64> = per_config[0].iter().map(|(_, t)| t[2]).collect();
        for (cfg_ix, label) in [(0, "(S)"), (1, "(A)")] {
            for (p_ix, policy) in Policy::all().iter().enumerate() {
                let mut speedups = Vec::new();
                for (row_ix, (app, times)) in per_config[cfg_ix].iter().enumerate() {
                    let s = baseline[row_ix] / times[p_ix].max(1e-9);
                    speedups.push(s);
                    println!(
                        "{:<10} {:<14} {:>8.3}x",
                        app.name(),
                        format!("{} {label}", policy.name()),
                        s
                    );
                }
                println!(
                    "{:<10} {:<14} {:>8.3}x  <- geometric mean",
                    "GEOMEAN",
                    format!("{} {label}", policy.name()),
                    geomean(&speedups)
                );
                rule(40);
            }
        }
        println!("(paper geomeans: C11Tester 14.9x/11.1x faster than tsan11rec;");
        println!(" C11Tester 1.6x/3.1x slower than tsan11)");
    }
}
