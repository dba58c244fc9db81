//! Table 3: the number of atomic operations (including synchronization
//! operations) and normal shared-memory accesses executed by C11Tester
//! for each application benchmark.
//!
//! ```text
//! paper-tables table3
//! ```

use c11tester::Policy;
use c11tester_bench::{paper_model, rule};
use c11tester_workloads::AppBench;

fn fmt_count(n: u64) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}K", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

pub fn run() {
    println!("Table 3: operations executed per benchmark under C11Tester");
    rule(70);
    println!(
        "{:<12} {:>22} {:>22}",
        "Test", "# normal accesses", "# atomic operations"
    );
    rule(70);
    for app in AppBench::all() {
        let mut model = paper_model(Policy::C11Tester, 0x7AB1E3);
        let report = model.run(move || app.run_default());
        println!(
            "{:<12} {:>22} {:>22}",
            app.name(),
            fmt_count(report.stats.normal_accesses),
            fmt_count(report.stats.atomic_ops())
        );
    }
    rule(70);
    println!("(paper, at production scale: e.g. Silo 63.7M normal / 11.3M atomic;");
    println!(" the simulations preserve the per-app op-mix shape at model scale)");
}
