//! Telemetry end-to-end, driven through the real `c11campaign` binary.
//!
//! Two properties guard the observability layer:
//!
//! * **Diagnostics never leak into behavior.** The canonical
//!   `c11campaign/v4` report must stay byte-identical with and without
//!   `--metrics-out`, at several worker counts, in-process and
//!   fork-isolated — profiling timers and metric channels may cost
//!   nanoseconds, never bytes.
//! * **The `c11metrics/v1` schema is stable.** Metric *values* are
//!   wall-clock measurements and vary run to run, but the set of key
//!   paths in the document is deterministic; it is pinned by a
//!   checked-in golden.

use c11tester_telemetry::json::JsonValue;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};

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

/// A scratch path under the cargo-managed test tmpdir.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir exists");
    dir.join(name)
}

#[test]
fn canonical_report_is_byte_identical_with_and_without_metrics() {
    let base = [
        "--target",
        "rwlock-buggy",
        "--executions",
        "24",
        "--seed",
        "0xFEED",
        "--canonical",
    ];
    for isolate in [false, true] {
        for workers in ["1", "4", "8"] {
            let mut plain = base.to_vec();
            plain.extend(["--workers", workers]);
            if isolate {
                plain.extend(["--isolate", "--batch", "6"]);
            }
            let mut metered = plain.clone();
            let path = scratch(&format!(
                "metrics_identity_{workers}_{}.json",
                if isolate { "isolated" } else { "inproc" }
            ));
            let path = path.to_str().expect("utf-8 tmp path").to_string();
            metered.extend(["--metrics-out", &path]);
            assert_eq!(
                canonical(&metered),
                canonical(&plain),
                "--metrics-out changed canonical bytes at {workers} workers \
                 (isolate: {isolate})"
            );
            let doc = std::fs::read_to_string(&path).expect("metrics file written");
            assert!(doc.contains("\"schema\":\"c11metrics/v1\""));
        }
    }
}

/// Collects every object key path in `v`, with array indices collapsed
/// to `[]` so variable-length sections (workers, epochs) normalize.
fn key_paths(v: &JsonValue, prefix: &str, out: &mut BTreeSet<String>) {
    match v {
        JsonValue::Object(fields) => {
            for (k, val) in fields {
                let p = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                out.insert(p.clone());
                key_paths(val, &p, out);
            }
        }
        JsonValue::Array(items) => {
            for item in items {
                key_paths(item, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

#[test]
fn metrics_schema_shape_matches_golden() {
    // Adaptive + isolated so every optional section (epoch timeline,
    // fork-server health) is populated.
    let path = scratch("metrics_schema.json");
    let path_str = path.to_str().expect("utf-8 tmp path");
    canonical(&[
        "--target",
        "rwlock-buggy",
        "--executions",
        "32",
        "--workers",
        "2",
        "--adaptive",
        "ucb1",
        "--epoch",
        "16",
        "--isolate",
        "--batch",
        "8",
        "--canonical",
        "--metrics-out",
        path_str,
    ]);
    let doc = std::fs::read_to_string(&path).expect("metrics file written");
    let parsed = JsonValue::parse(&doc).expect("metrics file is valid JSON");
    let mut paths = BTreeSet::new();
    key_paths(&parsed, "", &mut paths);
    assert!(
        !parsed
            .get("epochs")
            .and_then(|e| e.as_array())
            .expect("epochs array present")
            .is_empty(),
        "adaptive run must record an epoch timeline"
    );

    let got: Vec<String> = paths.into_iter().collect();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/metrics_v1_schema.txt"
    );
    let golden = std::fs::read_to_string(golden_path)
        .unwrap_or_else(|e| panic!("golden {golden_path} unreadable: {e}"));
    let want: Vec<String> = golden.lines().map(str::to_string).collect();
    assert_eq!(
        got, want,
        "c11metrics/v1 key paths diverged from the golden; if the schema \
         change is intentional, update {golden_path} and docs/METRICS.md"
    );
}

#[test]
fn isolated_adaptive_metrics_carry_phase_totals_fork_health_and_epochs() {
    let path = scratch("metrics_isolated_adaptive.json");
    let path_str = path.to_str().expect("utf-8 tmp path");
    let base = [
        "--target",
        "rwlock-buggy",
        "--adaptive",
        "ucb1",
        "--epoch",
        "24",
        "--executions",
        "48",
        "--seed",
        "7",
        "--workers",
        "4",
        "--isolate",
        "--batch",
        "12",
        "--canonical",
    ];
    let mut metered = base.to_vec();
    metered.extend(["--metrics-out", path_str]);
    assert_eq!(
        canonical(&metered),
        canonical(&base),
        "--metrics-out changed the canonical epoch trace"
    );
    let doc = JsonValue::parse(&std::fs::read_to_string(&path).expect("metrics file written"))
        .expect("metrics file is valid JSON");
    assert_eq!(doc.str_field("schema"), Ok("c11metrics/v1"));
    assert_eq!(doc.bool_field("isolated"), Ok(true));
    let phase = doc.field("phase").expect("phase block");
    assert!(
        phase.u64_field("total_nanos").expect("total") > 0,
        "children must ship their phase profile"
    );
    let fork = doc.field("fork_server").expect("fork_server block");
    assert!(fork.u64_field("spawns").expect("spawns") > 0);
    for row in doc.array_field("worker_utilization").expect("workers") {
        let handover = row.str_field("handover").expect("handover");
        assert!(
            handover.starts_with(|c: char| c.is_ascii_lowercase()),
            "handover `{handover}`"
        );
    }
    let epochs = doc.array_field("epochs").expect("epochs");
    assert_eq!(epochs.len(), 2);
    assert_eq!(epochs[0].u64_field("epoch"), Ok(0));
}

#[test]
fn chrome_export_is_a_wellformed_trace_event_array() {
    let path = scratch("metrics_chrome.json");
    let path_str = path.to_str().expect("utf-8 tmp path");
    canonical(&[
        "--target",
        "rwlock-buggy",
        "--executions",
        "16",
        "--workers",
        "2",
        "--canonical",
        "--metrics-out",
        path_str,
        "--metrics-format",
        "chrome",
    ]);
    let doc = std::fs::read_to_string(&path).expect("chrome trace written");
    let parsed = JsonValue::parse(&doc).expect("chrome trace is valid JSON");
    let events = parsed.as_array().expect("chrome trace is a JSON array");
    assert!(!events.is_empty());
    // Every event carries the required trace-event fields; the first
    // is the process_name metadata record.
    for e in events {
        assert!(e.get("ph").is_some(), "event missing phase type: {e:?}");
        assert!(e.get("pid").is_some(), "event missing pid: {e:?}");
    }
    assert_eq!(
        events[0].get("name").and_then(|n| n.as_str()),
        Some("process_name")
    );
}

#[test]
fn metrics_format_requires_metrics_out() {
    let out = run(&[
        "--target",
        "rwlock-buggy",
        "--canonical",
        "--metrics-format",
        "chrome",
    ]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--metrics-format requires --metrics-out")
    );
}
