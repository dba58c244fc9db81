//! The paper reproductions, driven through the real `paper-tables`
//! binary at a tiny `C11_BENCH_RUNS`: every subcommand exits 0 and
//! prints its title, its tool-name header and one row per workload of
//! its table. Numbers are not asserted (shape, not absolute values —
//! docs/BENCH.md) except where the paper's claim is exact: the fixed
//! §8.1 controls are clean under every tool.

use c11tester::Policy;
use c11tester_workloads::apps::jsbench;
use c11tester_workloads::{AppBench, DsBench};
use std::process::{Command, Output};

const PAPER_TABLES: &str = env!("CARGO_BIN_EXE_paper-tables");

fn run(runs: u32, args: &[&str]) -> Output {
    Command::new(PAPER_TABLES)
        .args(args)
        .env("C11_BENCH_RUNS", runs.to_string())
        .output()
        .expect("paper-tables runs")
}

/// Runs a subcommand that must succeed; returns its stdout lines.
fn table(runs: u32, args: &[&str]) -> Vec<String> {
    let out = run(runs, args);
    assert!(
        out.status.success(),
        "paper-tables {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("tables are UTF-8");
    stdout.lines().map(str::to_string).collect()
}

/// Whitespace-separated cells of a line.
fn cells(line: &str) -> Vec<&str> {
    line.split_whitespace().collect()
}

/// Lines whose leading cells spell `label` (labels may contain spaces).
fn rows<'a>(lines: &'a [String], label: &str) -> Vec<&'a String> {
    let want = cells(label);
    lines
        .iter()
        .filter(|l| cells(l).starts_with(&want))
        .collect()
}

/// The header line starting with `first` names the three tools in the
/// paper's column order.
fn assert_tool_header(lines: &[String], first: &str) {
    let header = rows(lines, first);
    let header = header.first().unwrap_or_else(|| {
        panic!("no `{first}` header line in:\n{}", lines.join("\n"));
    });
    let mut at = 0;
    for policy in Policy::all() {
        let found = header[at..].find(policy.name());
        at += found.unwrap_or_else(|| panic!("`{}` missing from: {header}", policy.name()));
    }
}

fn assert_usage_error(args: &[&str], message: &str) {
    let out = run(1, args);
    assert_eq!(out.status.code(), Some(2), "paper-tables {args:?}");
    assert!(out.stdout.is_empty(), "usage errors print no table");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with(&format!("error: {message}\n\n")),
        "unexpected error shape: {stderr}"
    );
    assert!(stderr.contains("USAGE: paper-tables"), "{stderr}");
}

#[test]
fn no_table_unknown_table_and_foreign_flags_are_usage_errors() {
    assert_usage_error(&[], "missing table name");
    assert_usage_error(&["table5"], "unknown table `table5`");
    // Replace, not fork: the old binary spelling is not an alias.
    assert_usage_error(&["section8_1"], "unknown table `section8_1`");
    assert_usage_error(
        &["table3", "--figure15"],
        "table3 does not take `--figure15`",
    );
}

#[test]
fn section8_1_rows_and_clean_controls() {
    let lines = table(2, &["section8.1"]);
    assert!(lines[0].starts_with("Section 8.1: injected-bug detection rates (2 runs"));
    assert_tool_header(&lines, "Benchmark");
    for program in ["seqlock", "rwlock"] {
        let buggy = rows(&lines, &format!("{program} (buggy)"));
        assert_eq!(buggy.len(), 1, "{program} buggy row");
        assert_eq!(cells(buggy[0]).len(), 5, "three rate columns: {}", buggy[0]);
        let fixed = rows(&lines, &format!("{program} (fixed)"));
        assert_eq!(fixed.len(), 1, "{program} control row");
        assert_eq!(
            cells(fixed[0])[2..],
            ["0.0%", "0.0%", "0.0%"],
            "fixed controls are clean under every tool"
        );
    }
}

#[test]
fn table3_counts_operations_for_every_application() {
    let lines = table(1, &["table3"]);
    assert!(lines[0].starts_with("Table 3: operations executed per benchmark under C11Tester"));
    assert_eq!(rows(&lines, "Test # normal accesses").len(), 1);
    for app in AppBench::all() {
        let row = rows(&lines, app.name());
        assert_eq!(row.len(), 1, "{} row", app.name());
        let row = cells(row[0]);
        assert_eq!(row.len(), 3, "normal + atomic counts: {row:?}");
        assert!(row[1..].iter().all(|count| count != &"0"), "{row:?}");
    }
}

#[test]
fn figure14_has_five_rows_in_both_columns() {
    let lines = table(40, &["figure14"]);
    assert!(lines[0].starts_with("Figure 14: context-switch costs"));
    assert_eq!(
        rows(&lines, "Scheduling approach all cores 1 core").len(),
        1
    );
    for approach in [
        "condition variable",
        "futex park/unpark",
        "spinning",
        "spinning w/ yield",
        "fibers (stack switch)",
    ] {
        let row = rows(&lines, approach);
        // "spinning" also prefixes "spinning w/ yield".
        let row = row
            .iter()
            .find(|l| cells(l).len() == cells(approach).len() + 4)
            .unwrap_or_else(|| panic!("no `{approach}` row with two `<n> ns` columns"));
        let row = cells(row);
        let measured = &row[row.len() - 4..];
        assert_eq!((measured[1], measured[3]), ("ns", "ns"), "{row:?}");
        for ns in [measured[0], measured[2]] {
            assert!(ns.parse::<u64>().is_ok(), "{approach}: `{ns}` is a count");
        }
    }
}

#[test]
fn table1_times_every_application_in_both_configurations() {
    let lines = table(2, &["table1", "--figure15"]);
    assert!(lines[0].starts_with("Table 1: application benchmarks"));
    for config in ["Single-core configuration", "All-core configuration"] {
        assert_eq!(rows(&lines, config).len(), 1, "{config}");
    }
    assert_tool_header(&lines, "Test");
    assert_eq!(
        rows(&lines, "Test").len(),
        2,
        "one header per configuration"
    );
    // Figure 15: a speedup row per application and a geomean, for each
    // tool in each configuration.
    let tools = Policy::all().len();
    for app in AppBench::all() {
        assert_eq!(
            rows(&lines, app.name()).len(),
            2 + 2 * tools,
            "{}: a row per configuration + a Figure 15 row per tool and configuration",
            app.name()
        );
    }
    assert!(lines.iter().any(|l| l.starts_with("Figure 15:")));
    assert_eq!(rows(&lines, "GEOMEAN").len(), 2 * tools);
}

#[test]
fn table2_prints_every_benchmark_in_every_section() {
    let tools = Policy::all().len();
    let lines = table(2, &["table2", "--figure16", "--strategies", "--adaptive"]);
    assert!(lines[0].starts_with("Table 2: data-structure benchmarks (2 runs per cell)"));
    assert_tool_header(&lines, "Test");
    assert_eq!(rows(&lines, "Average rate").len(), 1);
    assert!(lines.iter().any(|l| l.starts_with("Strategy comparison:")));
    assert!(lines.iter().any(|l| l.starts_with("Adaptive comparison:")));
    assert!(lines.iter().any(|l| l.starts_with("Figure 16:")));
    for bench in DsBench::all() {
        // Table row + strategy row (exit 0 means the binary's own
        // "per-strategy columns must sum to the aggregate" assertion
        // held) + a Figure 16 bar per tool.
        assert_eq!(
            rows(&lines, bench.name()).len(),
            2 + tools,
            "{} rows",
            bench.name()
        );
    }
    for workload in ["rwlock-buggy:", "seqlock-buggy:"] {
        assert_eq!(rows(&lines, workload).len(), 1, "{workload}");
    }
    for arm in ["fixed mix", "adaptive ucb1", "adaptive exp3"] {
        assert_eq!(rows(&lines, arm).len(), 2, "`{arm}` row per workload");
    }
}

#[test]
fn table4_lists_the_25_jsbench_variants() {
    let lines = table(1, &["table4"]);
    assert!(lines[0].starts_with("Table 4: individual JSBench benchmarks"));
    assert_tool_header(&lines, "Benchmark");
    let variants = jsbench::variants();
    assert_eq!(variants.len(), 25);
    for v in &variants {
        let name = jsbench::name(v);
        let row: Vec<_> = lines
            .iter()
            .filter(|l| cells(l).first() == Some(&name.as_str()))
            .collect();
        assert_eq!(row.len(), 1, "{name} row");
        assert_eq!(cells(row[0]).len(), 6, "3 times + 2 counts: {}", row[0]);
    }
}
