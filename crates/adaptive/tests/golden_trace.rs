//! Golden-schema test for the canonical epoch trace (`c11campaign/v4`).
//!
//! A fixed `(seed, target, mix, policy, epoch, budget)` adaptive
//! campaign must reproduce the checked-in trace **byte for byte** —
//! the same contract the plain-campaign golden reports pin,
//! extended over the closed loop: epoch aggregates are pure functions
//! of `(seed, index range, mix)`, reweighting is a pure function of
//! those aggregates, and the emitter is deterministic.
//!
//! The CI baseline-diff step runs the **CLI** with these exact
//! parameters (`c11campaign --target rwlock-buggy --adaptive ucb1
//! --epoch 12 --executions 48 --seed 0xC0FFEE --mix random:2,pct2:1,pct3:1
//! --canonical`) and byte-compares against the same file, so the
//! fixture also pins the CLI plumbing.
//!
//! Regenerate with:
//!
//! ```text
//! cargo test -p c11tester-adaptive --test golden_trace -- --ignored regenerate
//! ```

use c11tester::{Config, StrategyMix};
use c11tester_adaptive::{AdaptiveCampaign, AdaptiveReport};
use c11tester_campaign::CampaignBudget;
use c11tester_workloads::ds::rwlock_buggy;

const SEED: u64 = 0xC0FFEE;
const MIX: &str = "random:2,pct2:1,pct3:1";
const EPOCH_LEN: u64 = 12;
const EXECUTIONS: u64 = 48;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/rwlock_buggy_ucb1.json")
}

fn golden_campaign() -> AdaptiveReport {
    let config = Config::new()
        .with_seed(SEED)
        .with_mix(StrategyMix::parse(MIX).expect("valid mix"));
    AdaptiveCampaign::new(config)
        .with_workers(4)
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
    // The baseline reader must accept the golden trace.
    let summary =
        c11tester_campaign::baseline::BaselineSummary::parse(&golden).expect("trace parses");
    assert_eq!(summary.schema, "c11campaign/v4");
    assert_eq!(summary.executions, EXECUTIONS);
    assert!(!summary.per_strategy.is_empty());
}

/// Not a test: rewrites the golden file from the current output.
#[test]
#[ignore = "golden-file regeneration helper"]
fn regenerate() {
    std::fs::create_dir_all(golden_path().parent().expect("parent dir")).expect("mkdir");
    let json = golden_campaign().canonical_json();
    std::fs::write(golden_path(), format!("{json}\n")).expect("write golden file");
}
