//! Campaign determinism contract (the tentpole acceptance tests):
//!
//! * same base seed → **byte-identical** aggregated `CampaignReport`
//!   (canonical form) across 1, 4, and 8 workers;
//! * a ≥ 1000-execution campaign on 8 workers produces the same
//!   deduplicated race set and detection-rate counts as the serial
//!   `Model::run_many` path with the same base seed;
//! * stop-on-first-bug on `workloads::ds::rwlock_buggy` ends the
//!   campaign early with the bug in hand;
//! * any single execution replays by `(seed, execution_index)`;
//! * the read-path fixtures — long RMW chains, a race per execution,
//!   windowed pruning with compaction — reproduce byte for byte.

use c11tester::{Config, HandoverKind, Model};
use c11tester_campaign::{Campaign, CampaignBudget, StopReason};
use c11tester_workloads::ds::rwlock_buggy;

const SEED: u64 = 0xDE7EC7;

fn racy() {
    rwlock_buggy::run_buggy();
}

#[test]
fn canonical_report_is_byte_identical_across_1_4_8_workers() {
    let budget = CampaignBudget::executions(120);
    let reports: Vec<_> = [1usize, 4, 8]
        .into_iter()
        .map(|w| {
            Campaign::new(Config::new().with_seed(SEED))
                .with_workers(w)
                .run(&budget, racy)
        })
        .collect();
    let canon: Vec<String> = reports.iter().map(|r| r.canonical_json()).collect();
    assert_eq!(canon[0], canon[1], "1 vs 4 workers");
    assert_eq!(canon[1], canon[2], "4 vs 8 workers");
    // The aggregates are equal as values too, not just as JSON.
    assert_eq!(reports[0].aggregate, reports[1].aggregate);
    assert_eq!(reports[1].aggregate, reports[2].aggregate);
    // And the campaign found real races to aggregate.
    assert!(reports[0].aggregate.executions_with_race > 0);
}

#[test]
fn thousand_execution_campaign_matches_serial_run_many() {
    // The acceptance bar: >= 1000 executions, 8 workers, same dedup
    // race set and detection-rate counts as Model::run_many.
    let executions = 1000;
    let campaign = Campaign::new(Config::new().with_seed(SEED))
        .with_workers(8)
        .run(&CampaignBudget::executions(executions), racy);
    let serial = Model::new(Config::new().with_seed(SEED)).run_many(executions, racy);

    assert_eq!(campaign.aggregate, serial, "full aggregate equality");
    // Spelled out, the fields the acceptance criterion names:
    assert_eq!(
        campaign.aggregate.executions_with_race,
        serial.executions_with_race
    );
    assert_eq!(
        campaign.aggregate.executions_with_bug,
        serial.executions_with_bug
    );
    assert_eq!(
        campaign.aggregate.distinct_races(),
        serial.distinct_races(),
        "deduplicated race sets"
    );
    assert_eq!(campaign.aggregate.executions, executions);
    assert!(serial.executions_with_race > 0, "workload must race");
}

#[test]
fn stop_on_first_bug_ends_the_campaign_early() {
    let budget = CampaignBudget::executions(1_000_000).with_stop_on_first_bug(true);
    let report = Campaign::new(Config::new().with_seed(SEED))
        .with_workers(4)
        .run(&budget, racy);
    assert_eq!(report.stop_reason, StopReason::FirstBug);
    assert!(report.found_bug());
    assert!(
        report.aggregate.executions < 1000,
        "stop-on-first-bug must cut the budget short (ran {})",
        report.aggregate.executions
    );
    assert!(
        !report.aggregate.races.is_empty(),
        "the bug is in the report"
    );
}

#[test]
fn any_campaign_execution_replays_by_seed_and_index() {
    // Pick the first racy execution a campaign found and replay it
    // serially by (seed, index): same races, same stats.
    let report = Campaign::new(Config::new().with_seed(SEED))
        .with_workers(4)
        .run(&CampaignBudget::executions(40), racy);
    let (_, entry) = report
        .aggregate
        .races
        .iter()
        .next()
        .expect("campaign found a race");
    let index = entry.first_execution;

    let mut model = Model::new(Config::new().with_seed(SEED));
    let replayed = model.run_at(index, racy);
    assert_eq!(replayed.execution_index, index);
    assert!(
        replayed.races.iter().any(|r| r.key() == entry.report.key()),
        "replay of execution #{index} must reproduce the race"
    );
}

// ---- the merge path on a failure-heavy target ------------------------
//
// `seqlock-buggy` executions end in `Failure::Panic` ~20 % of the time
// and never race, so these campaigns exercise what the `rwlock-buggy`
// ones above cannot: the index-sorted failure merge of the per-worker
// partials, at volume.

fn torn() {
    c11tester_workloads::ds::seqlock::run_buggy();
}

#[test]
fn failure_heavy_canonical_report_is_byte_identical_across_1_2_3_8_workers() {
    let executions = 2000;
    let budget = CampaignBudget::executions(executions);
    let serial = Model::new(Config::new().with_seed(SEED)).run_many(executions, torn);
    assert!(
        serial.failures.len() > 100,
        "the target must fail at volume (got {})",
        serial.failures.len()
    );
    let mut canon: Option<String> = None;
    for workers in [1usize, 2, 3, 8] {
        let report = Campaign::new(Config::new().with_seed(SEED))
            .with_workers(workers)
            .run(&budget, torn);
        assert_eq!(report.aggregate, serial, "{workers} worker(s) vs run_many");
        let json = report.canonical_json();
        match &canon {
            None => canon = Some(json),
            Some(first) => assert_eq!(&json, first, "1 vs {workers} workers"),
        }
    }
}

/// Every worker hands back exactly one row with its partial report, in
/// worker order, and the rows account for every aggregated execution.
fn assert_worker_rows_sum_to_aggregate(report: &c11tester_campaign::CampaignReport) {
    let rows = &report.metrics.workers;
    assert_eq!(rows.len(), report.workers);
    for (w, row) in rows.iter().enumerate() {
        assert_eq!(row.worker, w as u64, "rows arrive in worker order");
        assert_eq!(
            row.handover,
            Config::new().handover.effective().name(),
            "the effective handover kind travels with the row"
        );
    }
    assert_eq!(
        rows.iter().map(|r| r.executions).sum::<u64>(),
        report.aggregate.executions
    );
    assert_eq!(report.metrics.executions, report.aggregate.executions);
}

#[test]
fn worker_rows_sum_to_the_aggregate_under_every_budget_kind() {
    let campaign = Campaign::new(Config::new().with_seed(SEED)).with_workers(3);

    let fixed = campaign.run(&CampaignBudget::executions(200), torn);
    assert_eq!(fixed.stop_reason, StopReason::BudgetExhausted);
    assert_eq!(fixed.aggregate.executions, 200);
    assert_worker_rows_sum_to_aggregate(&fixed);

    let first_bug = campaign.run(
        &CampaignBudget::executions(1_000_000).with_stop_on_first_bug(true),
        torn,
    );
    assert_eq!(first_bug.stop_reason, StopReason::FirstBug);
    assert!(!first_bug.aggregate.failures.is_empty());
    assert_worker_rows_sum_to_aggregate(&first_bug);

    let deadline = campaign.run(
        &CampaignBudget::executions(u64::MAX).with_deadline(std::time::Duration::from_millis(50)),
        torn,
    );
    assert_eq!(deadline.stop_reason, StopReason::Deadline);
    assert!(deadline.aggregate.executions > 0);
    assert_worker_rows_sum_to_aggregate(&deadline);
}

// ---- read-path fixtures -----------------------------------------------
//
// Canonical reports captured from the commit *before* the single-pass
// read path (`c11campaign --target <t> --seed 3089 --canonical`), on
// the targets the older graph fixtures do not reach: `silo-large`
// (250-long `fetch_add` chain, spun-on lock words), `gdax` (a race in
// every execution) and `mpmc-queue-10x --memory-limit` (pruning and
// compaction beside inserts). A selection, chain-end or pruning change
// that moves one verdict, candidate order or RNG draw shows up here.
// The `--isolate` leg lives in crates/adaptive/tests/isolation.rs,
// where the fork server's binary is; the fiber-vs-park twin on smaller
// programs is handover_twin.rs.

fn assert_matches_fixture(target: &str, executions: u64, memory_limit: bool, fixture: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(fixture);
    let expected = std::fs::read_to_string(&path).expect("fixture present");
    let target = c11tester_campaign::targets::find(target).expect("built-in target");
    let mut config = Config::new().with_seed(3089);
    if memory_limit {
        config = config.with_memory_limit();
    }
    // The default handover at every worker count, and once on its
    // twin: pooled futex park must reproduce the same bytes.
    let park = config.clone().with_handover(HandoverKind::Park);
    for (workers, config) in [(1usize, &config), (4, &config), (8, &config), (4, &park)] {
        let report = Campaign::new(config.clone())
            .with_workers(workers)
            .run(&CampaignBudget::executions(executions), move || {
                target.run()
            });
        assert_eq!(
            format!("{}\n", report.canonical_json()),
            expected,
            "{fixture} diverged at {workers} worker(s), {}",
            config.handover.name()
        );
    }
}

#[test]
fn silo_large_matches_its_parent_generated_fixture() {
    assert_matches_fixture("silo-large", 50, false, "silo_large_graph.json");
}

#[test]
fn gdax_matches_its_parent_generated_fixture() {
    assert_matches_fixture("gdax", 100, false, "gdax_graph.json");
}

#[test]
fn memory_limited_mpmc_queue_10x_matches_its_parent_generated_fixture() {
    assert_matches_fixture("mpmc-queue-10x", 60, true, "mpmc_queue_10x_memlimit.json");
}
