//! End-to-end fork-isolation tests, driven through the real
//! `c11campaign` binary (the fork server re-enters it via the hidden
//! `--worker` mode, so these tests exercise the actual production
//! re-entry path, not a stub).
//!
//! The contracts pinned here (see `ARCHITECTURE.md`):
//!
//! * **healthy-target byte-identity** — fork-isolated canonical JSON
//!   equals in-process canonical JSON, for 1/4/8 workers and odd batch
//!   sizes;
//! * **crash determinism** — a crashing target completes the full
//!   budget with exit 0, and its crash records (signal, strategy,
//!   index) are byte-identical across worker counts, while the same
//!   invocation without `--isolate` dies;
//! * **timeout triage** — `--exec-timeout` kills a wedged child and
//!   records a timeout crash instead of hanging the campaign.

use std::path::Path;
use std::process::{Command, Output};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_c11campaign");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("c11campaign binary runs")
}

fn canonical(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "c11campaign {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("canonical JSON is UTF-8")
}

fn crash_count(json: &str) -> u64 {
    let summary = c11tester_campaign::baseline::BaselineSummary::parse(json)
        .expect("canonical JSON parses as a baseline summary");
    summary.crashes
}

#[test]
fn healthy_target_fork_server_matches_in_process_byte_for_byte() {
    let base = [
        "--target",
        "rwlock-buggy",
        "--executions",
        "48",
        "--seed",
        "7",
        "--mix",
        "random:2,pct2:1",
        "--canonical",
    ];
    let in_process = canonical(&base);
    assert!(in_process.contains("\"schema\":\"c11campaign/v4\""));
    assert!(in_process.contains("\"crashes\":0"));
    for workers in ["1", "4", "8"] {
        let mut args = base.to_vec();
        args.extend(["--isolate", "--workers", workers]);
        assert_eq!(
            canonical(&args),
            in_process,
            "fork-isolated canonical JSON diverged at {workers} workers"
        );
    }
    // Batch size must be invisible too (batches repartition the same
    // global index stream).
    let mut args = base.to_vec();
    args.extend(["--isolate", "--workers", "4", "--batch", "7"]);
    assert_eq!(
        canonical(&args),
        in_process,
        "batch size leaked into the report"
    );
}

/// The read-path fixtures of crates/campaign/tests/determinism.rs
/// (captured before the single-pass read path), through fork-isolated
/// children.
#[test]
fn read_path_fixtures_reproduce_under_isolation() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../campaign/tests/golden");
    for (fixture, args) in [
        (
            "silo_large_graph.json",
            &["--target", "silo-large", "--executions", "50"][..],
        ),
        (
            "gdax_graph.json",
            &["--target", "gdax", "--executions", "100"][..],
        ),
        (
            "mpmc_queue_10x_memlimit.json",
            &[
                "--target",
                "mpmc-queue-10x",
                "--memory-limit",
                "--executions",
                "60",
            ][..],
        ),
    ] {
        let expected =
            std::fs::read_to_string(format!("{golden}/{fixture}")).expect("fixture present");
        let mut args = args.to_vec();
        args.extend([
            "--seed",
            "3089",
            "--workers",
            "4",
            "--isolate",
            "--canonical",
        ]);
        assert_eq!(canonical(&args), expected, "{fixture} under --isolate");
    }
}

/// Runs `target` fork-isolated at each worker count: the campaign
/// must exit 0 with SIGSEGV crash records, completed executions and
/// crashes must tile the budget, and the canonical report must not
/// depend on the worker count. Returns the number of crashes.
fn assert_crashes_are_triaged_deterministically(
    target: &str,
    executions: u64,
    worker_counts: &[&str],
) -> u64 {
    let budget = executions.to_string();
    let base = [
        "--target",
        target,
        "--executions",
        &budget,
        "--seed",
        "7",
        "--isolate",
        "--canonical",
    ];
    let mut reference: Option<String> = None;
    let mut crashes = 0;
    for workers in worker_counts {
        let mut args = base.to_vec();
        args.extend(["--workers", workers]);
        let json = canonical(&args);
        crashes = crash_count(&json);
        assert!(crashes > 0, "crashing target must record crashes");
        assert!(
            json.contains("\"kind\":\"signal\",\"code\":11"),
            "SIGSEGV triaged"
        );
        // Completed executions + crashes tile the whole budget.
        let summary = c11tester_campaign::baseline::BaselineSummary::parse(&json).expect("parses");
        assert_eq!(summary.executions + crashes, executions);
        match &reference {
            None => reference = Some(json),
            Some(expected) => assert_eq!(
                &json, expected,
                "crash records diverged at {workers} workers"
            ),
        }
    }
    crashes
}

#[test]
fn crashing_target_completes_the_budget_and_records_deterministic_crashes() {
    assert_crashes_are_triaged_deterministically("null-deref-buggy", 200, &["1", "4", "8"]);
}

/// Overflowing a model thread's stack faults on the fiber stack's
/// guard page: a SIGSEGV in every execution, not heap corruption.
/// (Off x86_64 model threads are OS threads, whose overflow Rust's
/// runtime turns into SIGABRT instead.)
#[cfg(target_arch = "x86_64")]
#[test]
fn fiber_stack_overflow_is_a_sigsegv_crash_record() {
    let crashes = assert_crashes_are_triaged_deterministically("stack-overflow", 12, &["1", "4"]);
    assert_eq!(crashes, 12, "every execution overflows");
}

#[test]
fn the_same_invocation_without_isolate_dies() {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        let out = run(&[
            "--target",
            "null-deref-buggy",
            "--executions",
            "200",
            "--seed",
            "7",
        ]);
        assert!(
            !out.status.success(),
            "in-process campaign should not survive a segfaulting target"
        );
        assert_eq!(
            out.status.signal(),
            Some(11),
            "the campaign process itself takes the SIGSEGV"
        );
    }
}

#[test]
fn exec_timeout_kills_wedged_children_and_records_timeouts() {
    let json = canonical(&[
        "--target",
        "spin-forever",
        "--executions",
        "2",
        "--seed",
        "7",
        "--isolate",
        "--exec-timeout",
        "0.5",
        "--workers",
        "2",
        "--canonical",
    ]);
    assert_eq!(crash_count(&json), 2, "every spin execution times out");
    assert_eq!(
        json.matches("\"kind\":\"timeout\",\"code\":null").count(),
        2
    );
    // No execution completed, but the campaign itself finished.
    assert!(json.contains("\"executions\":0"));
    assert!(json.contains("\"stop_reason\":\"budget-exhausted\""));
}

#[test]
fn campaign_deadline_kills_a_wedged_child_without_exec_timeout() {
    // A spinning child must not hang the campaign past its deadline
    // even when no per-execution timeout is configured — and running
    // out of campaign time is a deadline stop, not a crash.
    let start = std::time::Instant::now();
    let json = canonical(&[
        "--target",
        "spin-forever",
        "--executions",
        "100",
        "--seed",
        "7",
        "--isolate",
        "--deadline-secs",
        "1",
        "--workers",
        "2",
        "--canonical",
    ]);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "deadline was not enforced while waiting on the child"
    );
    assert!(json.contains("\"stop_reason\":\"deadline\""));
    assert_eq!(crash_count(&json), 0, "a deadline stop is not a crash");
    assert!(json.contains("\"executions\":0"));
}

#[test]
fn adaptive_isolated_campaigns_are_worker_count_independent() {
    let base = [
        "--target",
        "null-deref-buggy",
        "--executions",
        "120",
        "--seed",
        "7",
        "--adaptive",
        "ucb1",
        "--epoch",
        "30",
        "--isolate",
        "--canonical",
    ];
    let mut one = base.to_vec();
    one.extend(["--workers", "1"]);
    let mut four = base.to_vec();
    four.extend(["--workers", "4"]);
    let trace = canonical(&one);
    assert_eq!(trace, canonical(&four));
    assert!(trace.contains("\"adaptive\":{\"policy\":\"ucb1\""));
    assert!(
        crash_count(&trace) > 0,
        "adaptive trace carries the crashes"
    );
    // Per-epoch crash columns are present.
    assert!(trace.contains("\"epoch\":0"));
    assert!(trace.contains("\"crash_records\":[{\"execution\":"));
}

#[test]
fn library_fork_server_reports_crashes_through_run_target() {
    use c11tester::Config;
    use c11tester_campaign::{targets, Campaign, CampaignBudget, CrashKind};
    use c11tester_isolation::ForkServer;

    let target = targets::find("null-deref-buggy").expect("target exists");
    let fork = ForkServer::new(Path::new(BIN)).with_batch_size(16);
    // Handover is not on the worker flag surface: the parent's choice
    // does not reach the children, and the worker rows must say so.
    let parent = Config::new()
        .with_seed(7)
        .with_handover(c11tester::HandoverKind::Park);
    let report = Campaign::new(parent)
        .with_workers(4)
        .run_target(&fork, &target, &CampaignBudget::executions(96))
        .expect("fork server runs");
    let children_run = Config::new().handover.effective().name();
    assert!(report
        .metrics
        .workers
        .iter()
        .all(|w| w.handover == children_run));
    assert!(!report.crashes.is_empty());
    assert!(report
        .crashes
        .iter()
        .all(|c| c.kind == CrashKind::Signal(11)));
    assert_eq!(
        report.aggregate.executions + report.crashes.len() as u64,
        96,
        "completed executions + crashes tile the budget"
    );
    // Crash indices are sorted and unique.
    let indices: Vec<u64> = report.crashes.iter().map(|c| c.index).collect();
    let mut sorted = indices.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(indices, sorted);
}

#[test]
fn library_exec_timeout_defeats_a_spinning_target() {
    use c11tester::Config;
    use c11tester_campaign::{targets, Campaign, CampaignBudget, CrashKind};
    use c11tester_isolation::ForkServer;

    let target = targets::find("spin-forever").expect("target exists");
    let fork = ForkServer::new(Path::new(BIN)).with_exec_timeout(Some(Duration::from_millis(500)));
    let report = Campaign::new(Config::new().with_seed(1))
        .with_workers(2)
        .run_target(&fork, &target, &CampaignBudget::executions(2))
        .expect("fork server runs");
    assert_eq!(report.aggregate.executions, 0);
    assert_eq!(report.crashes.len(), 2);
    assert!(report.crashes.iter().all(|c| c.kind == CrashKind::Timeout));
}
