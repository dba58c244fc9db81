//! Table 2: data-structure benchmarks — time per execution and race
//! detection rate for each tool — plus Figure 16 (the bar-chart view of
//! the same data).
//!
//! Detection rates are computed by a **campaign** over all cores
//! (`c11tester-campaign`): rates and dedup histories are identical to
//! the serial loop's by the campaign determinism contract, while the
//! rate runs finish `~cores`× faster. Per-execution times are measured
//! on a serial sample so multi-worker scheduling noise cannot leak
//! into them.
//!
//! ```text
//! paper-tables table2 [--figure16] [--strategies] [--adaptive]
//! ```
//! Set `C11_BENCH_RUNS` to change the run count (paper: 500).
//!
//! `--strategies` adds a strategy-comparison table: one **mixed**
//! campaign per benchmark (`random:1,pct2:1,pct3:1,burst:1`) whose
//! per-strategy report columns show each scheduling strategy's race
//! detection rate on the same workload — the statistical claim behind
//! C11Tester's pluggable-strategy architecture (§3, §7.6).
//!
//! `--adaptive` adds a fixed-vs-adaptive comparison on the seeded-bug
//! workloads (§8.1): for each buggy benchmark, the bug detection rate
//! and executions-to-first-bug of every fixed single-strategy
//! campaign, of the fixed uniform mix, and of UCB1/EXP3 adaptive
//! campaigns over the same arms at the same seed — the closed loop
//! must reach first-bug no later than the **worst** fixed arm.

use c11tester::{Policy, Strategy, StrategyMix};
use c11tester_adaptive::AdaptiveCampaign;
use c11tester_bench::{
    campaign_runs, columns, paper_config, rule, runs_from_env, time_policy_runs,
};
use c11tester_campaign::CampaignBudget;
use c11tester_workloads::{ds, DsBench};

const SEED: u64 = 0x7AB1E2;

struct Cell {
    time_ms: f64,
    rate: f64,
}

fn measure(bench: DsBench, policy: Policy, runs: u64) -> Cell {
    // Detection rate: campaign over all cores, full run budget.
    let report = campaign_runs(paper_config(policy, SEED), runs, move || bench.run());
    // Timing: serial sample (up to 100 executions of the same stream).
    let timing_runs = u32::try_from(runs.min(100)).expect("at most 100");
    let timing = time_policy_runs(policy, SEED, timing_runs, move || bench.run());
    Cell {
        time_ms: timing.mean_ms(),
        rate: report.race_detection_rate(),
    }
}

/// The scheduling strategies compared by `--strategies` and
/// `--adaptive`, as a uniform mix.
fn arms() -> StrategyMix {
    StrategyMix::parse("random:1,pct2:1,pct3:1,burst:1").expect("valid mix")
}

/// The paper-faithful C11Tester configuration drawing strategies from
/// `mix`.
fn mixed_config(mix: &StrategyMix) -> c11tester::Config {
    paper_config(Policy::C11Tester, SEED).with_mix(mix.clone())
}

/// Strategy-comparison mode: per-strategy detection rates from one
/// mixed campaign per benchmark.
fn strategy_table(runs: u64) {
    let mix = arms();
    let specs: Vec<String> = mix.entries().iter().map(|(s, _)| s.spec()).collect();
    println!();
    println!(
        "Strategy comparison: race detection rate per scheduling strategy \
         (mixed campaign, {runs} executions per benchmark, mix {})",
        mix.spec()
    );
    rule(78);
    print!("{:<18}", "Test");
    for s in &specs {
        print!(" {:>8} {:>6}", s, "execs");
    }
    println!();
    rule(78);
    for bench in DsBench::all() {
        let report = campaign_runs(mixed_config(&mix), runs, move || bench.run());
        print!("{:<18}", bench.name());
        for s in &specs {
            match report.per_strategy().get(s) {
                Some(b) => print!(
                    " {:>7.1}% {:>6}",
                    100.0 * b.race_detection_rate(),
                    b.executions
                ),
                None => print!(" {:>8} {:>6}", "-", 0),
            }
        }
        println!();
        // The per-strategy columns must tile the aggregate exactly.
        assert_eq!(
            report.per_strategy().total_executions(),
            report.aggregate.executions,
            "per-strategy columns must sum to the aggregate"
        );
    }
    rule(78);
}

/// One cell of the adaptive comparison: bug rate and first-bug index.
fn fmt_first_bug(first: Option<u64>) -> String {
    match first {
        Some(ix) => format!("#{ix}"),
        None => "never".to_string(),
    }
}

/// Adaptive-comparison mode: fixed single strategies and the fixed
/// uniform mix vs UCB1/EXP3 adaptive campaigns on the §8.1 seeded-bug
/// workloads.
fn adaptive_table(runs: u64) {
    let mix = arms();
    let epoch_len = (runs / 8).max(1);
    let workloads: &[(&str, fn())] = &[
        ("rwlock-buggy", ds::rwlock_buggy::run_buggy),
        ("seqlock-buggy", ds::seqlock::run_buggy),
    ];
    println!();
    println!(
        "Adaptive comparison: bug detection rate / executions-to-first-bug \
         ({runs} executions per campaign, epoch {epoch_len}, arms {})",
        mix.spec()
    );
    rule(100);
    for (name, body) in workloads {
        println!("{name}:");
        let mut worst_fixed = 0u64;
        for (strategy, _) in mix.entries() {
            let config = paper_config(Policy::C11Tester, SEED).with_strategy(*strategy);
            let report = campaign_runs(config, runs, body);
            let first = report.aggregate.first_bug_execution();
            worst_fixed = worst_fixed.max(first.unwrap_or(u64::MAX));
            println!(
                "  {:<22} {:>6.1}%  first bug {}",
                format!("fixed {}", Strategy::spec(strategy)),
                100.0 * report.bug_detection_rate(),
                fmt_first_bug(first),
            );
        }
        let mixed = campaign_runs(mixed_config(&mix), runs, body);
        println!(
            "  {:<22} {:>6.1}%  first bug {}",
            "fixed mix",
            100.0 * mixed.bug_detection_rate(),
            fmt_first_bug(mixed.aggregate.first_bug_execution()),
        );
        for policy in ["ucb1", "exp3"] {
            // Epoch-driven: the budget runs in `epoch_len`-execution
            // epochs and `policy` reweights the mix between them from
            // the per-strategy detection columns.
            let report = AdaptiveCampaign::new(mixed_config(&mix))
                .with_epoch_len(epoch_len)
                .with_policy(policy)
                .expect("valid reweighting policy")
                .run(&CampaignBudget::executions(runs), body);
            let first = report.first_bug_execution();
            let verdict = if first.unwrap_or(u64::MAX) <= worst_fixed {
                "<= worst fixed"
            } else {
                "SLOWER than worst fixed"
            };
            println!(
                "  {:<22} {:>6.1}%  first bug {}  ({} epochs, final mix {}, {})",
                format!("adaptive {policy}"),
                100.0 * report.bug_detection_rate(),
                fmt_first_bug(first),
                report.trace.epochs(),
                report
                    .trace
                    .records
                    .last()
                    .map(|r| r.mix.as_str())
                    .unwrap_or("-"),
                verdict,
            );
        }
    }
    rule(100);
}

pub fn run(figure16: bool, strategies: bool, adaptive: bool) {
    let runs = u64::from(runs_from_env(500));

    println!("Table 2: data-structure benchmarks ({runs} runs per cell)");
    rule(82);
    println!(
        "{:<18} {}",
        "Test",
        columns(&Policy::all(), |p| format!(
            "{:>12} {:>7}",
            format!("{} ms", p.name()),
            "rate"
        ))
    );
    rule(82);

    let mut rows = Vec::new();
    for bench in DsBench::all() {
        let cells = Policy::all().map(|p| measure(bench, p, runs));
        println!(
            "{:<18} {}",
            bench.name(),
            columns(&cells, |c| format!(
                "{:>12.2} {:>6.1}%",
                c.time_ms,
                100.0 * c.rate
            ))
        );
        rows.push((bench, cells));
    }
    rule(82);
    let averages = [0, 1, 2].map(|i| {
        rows.iter().map(|(_, cells)| cells[i].rate).sum::<f64>() / rows.len().max(1) as f64
    });
    println!(
        "{:<18} {}",
        "Average rate",
        columns(&averages, |avg| format!("{:>12} {:>6.1}%", "", 100.0 * avg))
    );
    println!("(paper averages: C11Tester 75.4%, tsan11rec 51.5%, tsan11 22.3%)");

    if strategies {
        strategy_table(runs);
    }

    if adaptive {
        adaptive_table(runs);
    }

    if figure16 {
        println!();
        println!("Figure 16: per-benchmark execution time (bar = time relative to C11Tester)");
        rule(72);
        for (bench, cells) in &rows {
            let base = cells[0].time_ms.max(1e-9);
            for (policy, c) in Policy::all().iter().zip(cells) {
                let rel = c.time_ms / base;
                let bar = "#".repeat((rel * 8.0).round().min(60.0) as usize);
                println!(
                    "{:<18} {:<10} {:>8.2}ms |{}",
                    bench.name(),
                    policy.name(),
                    c.time_ms,
                    bar
                );
            }
        }
    }
}
