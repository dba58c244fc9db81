//! End-to-end observability contract, driven through the real
//! `c11campaign` binary:
//!
//! * `--coverage-out` writes a `c11coverage/v1` report that is
//!   **byte-identical** across 1/4/8 workers and in-process vs
//!   `--isolate` (children ship their fold in a batched coverage
//!   frame; merge is order-independent);
//! * collecting coverage never perturbs the default canonical JSON on
//!   stdout — plain and adaptive, any policy;
//! * `--forensics-dir` writes one `race-NNN.{json,dot}` bundle per
//!   deduplicated race, every bundle's replay key reproduces its race
//!   (`verified: true`), the DOT export is structurally sound, and
//!   replaying the witnesses leaves stdout unchanged under `--isolate`;
//! * the `coverage-ucb` adaptive policy runs a worker-count
//!   independent closed loop with a per-epoch new-behavior growth
//!   curve in its coverage report.

use c11tester_telemetry::json::JsonValue;
use std::path::PathBuf;
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_c11campaign");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("c11campaign binary runs")
}

fn run_ok(args: &[&str]) -> (String, String) {
    let out = run(args);
    assert!(
        out.status.success(),
        "c11campaign {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
    )
}

/// Fresh scratch path under the system temp dir, unique per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("c11observability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn coverage_report_is_byte_identical_across_workers_and_isolation() {
    let dir = scratch("cov");
    let base = [
        "--target",
        "rwlock-buggy",
        "--executions",
        "96",
        "--seed",
        "7",
        "--mix",
        "random:2,pct2:1",
        "--canonical",
    ];
    let mut first: Option<(String, String)> = None;
    for (label, extra) in [
        ("w1", vec!["--workers", "1"]),
        ("w4", vec!["--workers", "4"]),
        ("w8i", vec!["--workers", "8", "--isolate"]),
        (
            "w4i-batch7",
            vec!["--workers", "4", "--isolate", "--batch", "7"],
        ),
    ] {
        let cov = dir.join(format!("{label}.json"));
        let cov_str = cov.to_str().expect("utf-8 path");
        let mut args = base.to_vec();
        args.extend(["--coverage-out", cov_str]);
        args.extend(extra.iter().copied());
        let (stdout, _) = run_ok(&args);
        let coverage = std::fs::read_to_string(&cov).expect("coverage file written");
        match &first {
            None => first = Some((coverage, stdout)),
            Some((cov0, stdout0)) => {
                assert_eq!(&coverage, cov0, "coverage diverged at {label}");
                assert_eq!(&stdout, stdout0, "canonical stdout diverged at {label}");
            }
        }
    }
    let (coverage, stdout) = first.expect("ran");
    // Collecting coverage must not perturb the canonical report.
    let (plain_stdout, _) = run_ok(&base);
    assert_eq!(
        stdout, plain_stdout,
        "coverage collection leaked into stdout"
    );
    // And the report itself is a well-formed c11coverage/v1 document.
    let doc = JsonValue::parse(&coverage).expect("coverage JSON parses");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("c11coverage/v1")
    );
    assert_eq!(
        doc.get("collected_executions").and_then(JsonValue::as_u64),
        Some(96)
    );
    let distinct = doc.get("distinct").expect("distinct block");
    assert!(distinct.get("total").and_then(JsonValue::as_u64).unwrap() > 0);
    assert!(distinct.get("races").and_then(JsonValue::as_u64).unwrap() > 0);
    for field in ["rf_edges", "mo_edges", "races", "interleavings"] {
        assert!(
            !doc.get(field)
                .and_then(JsonValue::as_array)
                .expect("behavior array")
                .is_empty(),
            "`{field}` is empty"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forensics_bundles_verify_by_replay_and_export_sound_dot() {
    let dir = scratch("forensics");
    let fdir = dir.join("bundles");
    let fdir_str = fdir.to_str().expect("utf-8 path");
    let base = [
        "--target",
        "rwlock-buggy",
        "--executions",
        "96",
        "--seed",
        "7",
        "--mix",
        "random:2,pct2:1",
        "--workers",
        "4",
        "--isolate",
        "--canonical",
    ];
    let mut args = base.to_vec();
    args.extend(["--forensics-dir", fdir_str]);
    let (stdout, stderr) = run_ok(&args);
    // Replaying witnesses must not perturb the canonical report.
    assert_eq!(stdout, run_ok(&base).0, "forensics leaked into stdout");
    let mut bundles: Vec<String> = std::fs::read_dir(&fdir)
        .expect("forensics dir exists")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf-8"))
        .collect();
    bundles.sort();
    assert!(
        bundles.contains(&"race-000.json".to_string()),
        "no bundle written: {bundles:?}"
    );
    let json_count = bundles.iter().filter(|n| n.ends_with(".json")).count();
    let dot_count = bundles.iter().filter(|n| n.ends_with(".dot")).count();
    assert_eq!(json_count, dot_count, "every race gets both files");
    assert!(
        stderr.contains(&format!(
            "{json_count} forensics bundle(s), {json_count} verified by replay"
        )),
        "not all bundles verified: {stderr}"
    );

    // Every bundle: schema, replay key matching the run, verified.
    for i in 0..json_count {
        let text = std::fs::read_to_string(fdir.join(format!("race-{i:03}.json"))).expect("json");
        let doc = JsonValue::parse(&text).expect("bundle JSON parses");
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some("c11forensics/v1")
        );
        let replay = doc.get("replay").expect("replay key");
        assert_eq!(replay.get("seed").and_then(JsonValue::as_u64), Some(7));
        assert!(replay.get("index").and_then(JsonValue::as_u64).unwrap() < 96);
        assert_eq!(
            doc.get("verified").and_then(JsonValue::as_bool),
            Some(true),
            "bundle {i} replay did not reproduce its race"
        );
        assert!(!doc
            .get("shapes")
            .and_then(JsonValue::as_array)
            .expect("shapes")
            .is_empty());
        let window = doc
            .get("trace")
            .and_then(|t| t.get("window"))
            .and_then(JsonValue::as_array)
            .expect("event window");
        assert!(!window.is_empty(), "bundle {i} has an empty event window");
    }

    // DOT structural check of every bundle (no graphviz in the offline
    // tree: verify shape, balance, and the edge kinds the doc promises).
    for i in 0..dot_count {
        let dot = std::fs::read_to_string(fdir.join(format!("race-{i:03}.dot"))).expect("dot");
        assert!(dot.starts_with("digraph"));
        assert_eq!(
            dot.matches('{').count(),
            dot.matches('}').count(),
            "unbalanced braces"
        );
        assert!(dot.contains("subgraph \"cluster_t"), "no thread clusters");
        assert!(dot.contains("->"), "no edges");
        assert!(dot.contains("label=\"rf\""), "bundle {i} has no rf edges");
        assert!(dot.trim_end().ends_with('}'));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coverage_ucb_closed_loop_is_worker_count_independent_with_growth_curve() {
    let dir = scratch("ucb");
    let base = [
        "--target",
        "rwlock-buggy",
        "--executions",
        "192",
        "--epoch",
        "48",
        "--seed",
        "7",
        "--adaptive",
        "coverage-ucb",
        "--canonical",
    ];
    let mut first: Option<(String, String)> = None;
    for workers in ["1", "4", "8"] {
        let cov = dir.join(format!("w{workers}.json"));
        let cov_str = cov.to_str().expect("utf-8 path");
        let mut args = base.to_vec();
        args.extend(["--workers", workers, "--coverage-out", cov_str]);
        let (stdout, _) = run_ok(&args);
        let coverage = std::fs::read_to_string(&cov).expect("coverage written");
        match &first {
            None => first = Some((coverage, stdout)),
            Some((cov0, stdout0)) => {
                assert_eq!(&coverage, cov0, "coverage diverged at {workers} workers");
                assert_eq!(&stdout, stdout0, "trace diverged at {workers} workers");
            }
        }
    }
    let (coverage, stdout) = first.expect("ran");
    assert!(stdout.contains("\"schema\":\"c11campaign/v4\""));
    assert!(stdout.contains("\"adaptive\":{\"policy\":\"coverage-ucb\""));
    let doc = JsonValue::parse(&coverage).expect("coverage JSON parses");
    let epochs = doc
        .get("epochs")
        .and_then(JsonValue::as_array)
        .expect("epochs array");
    assert_eq!(epochs.len(), 4, "192 executions / 48 per epoch");
    // Epoch 0 discovers everything it sees; the curve values must sum
    // to the overall distinct total (each behavior is new exactly once).
    let total: u64 = epochs
        .iter()
        .map(|e| e.get("new_behaviors").and_then(JsonValue::as_u64).unwrap())
        .sum();
    assert_eq!(
        doc.get("distinct")
            .and_then(|d| d.get("total"))
            .and_then(JsonValue::as_u64),
        Some(total),
        "per-epoch growth curve does not sum to the distinct total"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fixed_policy_trace_is_unchanged_by_coverage_collection() {
    let dir = scratch("fixed");
    let base = [
        "--target",
        "rwlock-buggy",
        "--executions",
        "96",
        "--epoch",
        "48",
        "--seed",
        "7",
        "--adaptive",
        "fixed",
        "--canonical",
    ];
    let (without, _) = run_ok(&base);
    let cov = dir.join("cov.json");
    let mut args = base.to_vec();
    args.extend(["--coverage-out", cov.to_str().expect("utf-8 path")]);
    let (with_cov, _) = run_ok(&args);
    assert_eq!(
        without, with_cov,
        "coverage collection perturbed the fixed-policy trace"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flag_errors_share_one_style_across_binaries() {
    // Every workspace binary reports flag errors through the one
    // helper in `c11tester_campaign::cli`. Pin the shape here (and in
    // `genfuzz_e2e.rs` / `bench/tests/paper_tables.rs` for the others).
    let out = run(&["--metrics-format", "chrome"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: --metrics-format requires --metrics-out\n\n"),
        "unexpected error shape: {stderr}"
    );
    assert!(stderr.contains("USAGE:"), "usage text follows the error");
}
