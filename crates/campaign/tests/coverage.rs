//! Library-level behavior-coverage contract:
//!
//! * with the gate armed, a campaign's [`CoverageMap`] (and its
//!   `c11coverage/v1` JSON) is byte-identical across 1/4/8 workers and
//!   equal to the serial `Model::run_many` fold;
//! * the coverage gate never perturbs canonical campaign JSON;
//! * the map's race keys agree with the dedup history, and
//!   `collected_executions` counts exactly the gated executions.
//!
//! The gate is a process global; every test here takes `gate_lock()`
//! before touching it (tests in one binary run on parallel threads).

use c11tester::{set_coverage, Config, Model};
use c11tester_campaign::{Campaign, CampaignBudget};
use c11tester_telemetry::json::JsonValue;
use c11tester_workloads::ds::rwlock_buggy;
use std::sync::{Mutex, MutexGuard, PoisonError};

const SEED: u64 = 0xC0FFEE;

fn gate_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn racy() {
    rwlock_buggy::run_buggy();
}

fn campaign(workers: usize) -> c11tester_campaign::CampaignReport {
    Campaign::new(Config::new().with_seed(SEED))
        .with_workers(workers)
        .run(&CampaignBudget::executions(120), racy)
}

#[test]
fn coverage_map_is_worker_count_independent_and_matches_serial() {
    let _gate = gate_lock();
    set_coverage(true);
    let reports: Vec<_> = [1usize, 4, 8].into_iter().map(campaign).collect();
    let serial = Model::new(Config::new().with_seed(SEED)).run_many(120, racy);
    set_coverage(false);

    for r in &reports[1..] {
        assert_eq!(
            r.aggregate.coverage, reports[0].aggregate.coverage,
            "coverage map diverged across worker counts"
        );
        assert_eq!(r.coverage_json(), reports[0].coverage_json());
    }
    assert_eq!(
        reports[0].aggregate.coverage, serial.coverage,
        "parallel fold != serial fold"
    );
    let map = &reports[0].aggregate.coverage;
    assert_eq!(map.collected_executions(), 120);
    assert!(map.distinct_rf_edges() > 0);
    assert!(map.distinct_interleavings() > 0);
    // Race behaviors and the dedup history must agree on the classes.
    assert_eq!(
        map.distinct_races(),
        reports[0].aggregate.races.iter().count() as u64
    );
}

#[test]
fn coverage_json_is_schema_valid_and_gate_off_runs_stay_canonical() {
    let _gate = gate_lock();
    set_coverage(true);
    let with_coverage = campaign(4);
    set_coverage(false);
    let without = campaign(4);

    // The canonical report ignores the gate entirely.
    assert_eq!(
        with_coverage.canonical_json(),
        without.canonical_json(),
        "coverage collection leaked into canonical JSON"
    );
    // Gate off, nothing is collected and the JSON says so.
    assert!(without.aggregate.coverage.is_empty());
    assert_eq!(without.aggregate.coverage.collected_executions(), 0);

    let doc = JsonValue::parse(&with_coverage.coverage_json()).expect("coverage JSON parses");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("c11coverage/v1")
    );
    assert_eq!(doc.get("base_seed").and_then(JsonValue::as_u64), Some(SEED));
    let distinct = doc.get("distinct").expect("distinct block");
    for (field, expect) in [
        (
            "rf_edges",
            with_coverage.aggregate.coverage.distinct_rf_edges(),
        ),
        (
            "mo_edges",
            with_coverage.aggregate.coverage.distinct_mo_edges(),
        ),
        ("races", with_coverage.aggregate.coverage.distinct_races()),
        (
            "interleavings",
            with_coverage.aggregate.coverage.distinct_interleavings(),
        ),
        ("total", with_coverage.aggregate.coverage.distinct_total()),
    ] {
        assert_eq!(
            distinct.get(field).and_then(JsonValue::as_u64),
            Some(expect),
            "distinct.{field}"
        );
    }
    // Plain campaigns carry an empty epochs array (growth curves are
    // an adaptive-trace feature).
    assert_eq!(
        doc.get("epochs").and_then(JsonValue::as_array),
        Some(&[][..])
    );
}
