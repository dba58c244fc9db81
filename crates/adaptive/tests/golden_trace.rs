//! Golden-schema test for the canonical epoch trace (`c11campaign/v4`).
//!
//! A fixed `(seed, target, mix, policy, epoch, budget)` adaptive
//! campaign must reproduce the checked-in trace **byte for byte** —
//! the same contract the plain-campaign golden reports pin,
//! extended over the closed loop: epoch aggregates are pure functions
//! of `(seed, index range, mix)`, reweighting is a pure function of
//! those aggregates, and the emitter is deterministic.
//!
//! The **CLI** must reproduce it too with these exact parameters
//! (`c11campaign --target rwlock-buggy --adaptive ucb1 --epoch 12
//! --executions 48 --seed 0xC0FFEE --mix random:2,pct2:1,pct3:1
//! --canonical`), in-process and under `--isolate`, and the plain-mix
//! golden `campaign/tests/golden/rwlock_buggy_mixed.json` without
//! `--adaptive`, so the fixtures also pin the CLI plumbing.
//!
//! Regenerate with:
//!
//! ```text
//! cargo test -p c11tester-adaptive --test golden_trace -- --ignored regenerate
//! ```

use c11tester::{Config, StrategyMix};
use c11tester_adaptive::AdaptiveCampaign;
use c11tester_campaign::{Campaign, CampaignBudget, EpochTrace};
use c11tester_workloads::ds::rwlock_buggy;
use std::process::Command;

const SEED: u64 = 0xC0FFEE;
const MIX: &str = "random:2,pct2:1,pct3:1";
const EPOCH_LEN: u64 = 12;
const EXECUTIONS: u64 = 48;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/rwlock_buggy_ucb1.json")
}

fn golden_campaign() -> EpochTrace {
    let config = Config::new()
        .with_seed(SEED)
        .with_mix(StrategyMix::parse(MIX).expect("valid mix"));
    AdaptiveCampaign::new(Campaign::new(config).with_workers(4))
        .with_epoch_len(EPOCH_LEN)
        .with_policy("ucb1")
        .expect("valid policy")
        .run(&CampaignBudget::executions(EXECUTIONS), || {
            rwlock_buggy::run_buggy()
        })
}

#[test]
fn canonical_trace_matches_the_checked_in_golden_report() {
    let expected = std::fs::read_to_string(golden_path())
        .expect("golden file present (regenerate with the ignored `regenerate` test)");
    let actual = golden_campaign().canonical_json();
    assert_eq!(
        actual,
        expected.trim_end(),
        "canonical epoch trace diverged from the golden report; if the \
         schema change is intentional, regenerate the golden file and \
         review the diff"
    );
}

#[test]
fn golden_trace_pins_the_schema_and_columns() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden file present");
    for needle in [
        "\"schema\":\"c11campaign/v4\"",
        "\"crashes\":0",
        "\"crash_records\":[]",
        &format!("\"base_seed\":{SEED}"),
        &format!(
            "\"adaptive\":{{\"policy\":\"ucb1\",\"epoch_len\":{EPOCH_LEN},\
             \"initial_mix\":\"{MIX}\",\"epochs\":4}}"
        ),
        &format!("\"executions\":{EXECUTIONS}"),
        "\"epochs\":[{\"epoch\":0,\"start_index\":0,",
        "\"cumulative\":{\"executions\":12,",
        &format!("\"cumulative\":{{\"executions\":{EXECUTIONS},"),
        "\"first_bug_execution\":",
        "\"per_strategy\":[{\"strategy\":",
        "\"distinct_races\":[",
        "\"stats\":{",
    ] {
        assert!(golden.contains(needle), "golden trace lost `{needle}`");
    }
    // The one JSON reader must accept the golden trace.
    let doc = c11tester_telemetry::json::JsonValue::parse(&golden).expect("trace parses");
    assert_eq!(doc.str_field("schema"), Ok("c11campaign/v4"));
    assert_eq!(doc.u64_field("executions"), Ok(EXECUTIONS));
    assert!(!doc.array_field("per_strategy").expect("columns").is_empty());
}

/// `c11campaign` stdout for `args`, which must succeed.
fn cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_c11campaign"))
        .args(args)
        .output()
        .expect("c11campaign runs");
    assert!(
        out.status.success(),
        "c11campaign {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

#[test]
fn the_cli_reproduces_both_rwlock_goldens() {
    let seed = format!("{SEED:#X}");
    let (epoch, executions) = (EPOCH_LEN.to_string(), EXECUTIONS.to_string());
    let plain = [
        "--target",
        "rwlock-buggy",
        "--executions",
        &executions,
        "--seed",
        &seed,
        "--mix",
        MIX,
        "--canonical",
    ];
    let adaptive = [&plain[..], &["--adaptive", "ucb1", "--epoch", &epoch]].concat();
    let golden = std::fs::read_to_string(golden_path()).expect("golden file present");
    for run in [
        &["--workers", "1"][..],
        &["--workers", "4"],
        &["--isolate", "--workers", "2"],
    ] {
        let out = cli(&[&adaptive[..], run].concat());
        assert!(out == golden, "the adaptive CLI diverged at {run:?}");
    }
    let mixed = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../campaign/tests/golden/rwlock_buggy_mixed.json");
    let mixed = std::fs::read_to_string(mixed).expect("plain golden present");
    let out = cli(&[&plain[..], &["--workers", "4"]].concat());
    assert!(out == mixed, "the plain CLI diverged from its golden");
}

/// Not a test: rewrites the golden file from the current output.
#[test]
#[ignore = "golden-file regeneration helper"]
fn regenerate() {
    std::fs::create_dir_all(golden_path().parent().expect("parent dir")).expect("mkdir");
    let json = golden_campaign().canonical_json();
    std::fs::write(golden_path(), format!("{json}\n")).expect("write golden file");
}
