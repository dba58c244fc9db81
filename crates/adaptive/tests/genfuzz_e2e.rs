//! End-to-end coverage of the generated-program surface through the
//! real binaries: `gen:<pseed>` campaign targets (determinism across
//! worker counts and isolation, malformed-spec usage errors) and the
//! `c11fuzz` differential fuzzer (clean sweeps, report files, usage
//! errors).

use std::process::{Command, Output};

const CAMPAIGN: &str = env!("CARGO_BIN_EXE_c11campaign");
const FUZZ: &str = env!("CARGO_BIN_EXE_c11fuzz");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn canonical(args: &[&str]) -> String {
    let out = run(CAMPAIGN, args);
    assert!(
        out.status.success(),
        "c11campaign {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("canonical JSON is UTF-8")
}

#[test]
fn gen_target_canonical_json_is_worker_count_and_isolation_invariant() {
    let base = [
        "--target",
        "gen:7",
        "--executions",
        "96",
        "--seed",
        "0xF00D",
        "--canonical",
    ];
    let mut one = base.to_vec();
    one.extend(["--workers", "1"]);
    let reference = canonical(&one);
    assert!(
        reference.contains("\"schema\":\"c11campaign/v4\""),
        "{reference}"
    );
    for workers in ["4", "8"] {
        let mut v = base.to_vec();
        v.extend(["--workers", workers]);
        assert_eq!(
            canonical(&v),
            reference,
            "gen:7 canonical JSON diverged at {workers} workers"
        );
    }
    let mut iso = base.to_vec();
    iso.extend(["--isolate", "--workers", "4"]);
    assert_eq!(
        canonical(&iso),
        reference,
        "gen:7 canonical JSON diverged under --isolate"
    );
}

#[test]
fn gen_targets_beyond_the_showcase_table_resolve() {
    // Any pseed names a target; hex and decimal canonicalize alike.
    let dec = canonical(&["--target", "gen:123456", "--executions", "8", "--canonical"]);
    let hex = canonical(&[
        "--target",
        "gen:0x1E240",
        "--executions",
        "8",
        "--canonical",
    ]);
    assert_eq!(dec, hex, "hex pseed spec must canonicalize to decimal");
}

#[test]
fn malformed_gen_specs_are_usage_errors() {
    for bad in ["gen:", "gen:zzz", "gen:0x", "gen:12q"] {
        let out = run(CAMPAIGN, &["--target", bad, "--executions", "1"]);
        assert_eq!(out.status.code(), Some(2), "`--target {bad}` must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("malformed gen target"),
            "`--target {bad}`: {stderr}"
        );
        assert!(
            stderr.contains("USAGE:"),
            "malformed gen spec is a usage error, got: {stderr}"
        );
        assert!(
            !stderr.contains("unknown target"),
            "malformed spec must not be reported as unknown: {stderr}"
        );
    }
    // A non-gen unknown name keeps the unknown-target shape.
    let out = run(CAMPAIGN, &["--target", "no-such-target"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown target `no-such-target`"),
        "{stderr}"
    );
}

#[test]
fn fuzz_smoke_sweep_is_clean_and_writes_an_empty_report() {
    let dir = std::env::temp_dir().join(format!("c11fuzz-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let report = dir.join("mismatches.json");
    let report_s = report.to_str().expect("utf-8 path");
    let out = run(
        FUZZ,
        &["--count", "8", "--executions", "8", "--report", report_s],
    );
    assert!(
        out.status.success(),
        "c11fuzz smoke sweep failed: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("no mismatches"), "{stdout}");
    let body = std::fs::read_to_string(&report).expect("report written even when clean");
    assert_eq!(body.trim(), "[]", "clean run writes an empty JSON array");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fuzz_cli_usage_errors_exit_2() {
    for args in [
        &["--nope"][..],
        &["--count"][..],
        &["--count", "0"][..],
        &["--pseed", "12q"][..],
        &["--executions", "0"][..],
    ] {
        let out = run(FUZZ, args);
        assert_eq!(out.status.code(), Some(2), "c11fuzz {args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("USAGE:"), "c11fuzz {args:?}: {stderr}");
    }
    let help = run(FUZZ, &["--help"]);
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("c11fuzz"));
}
