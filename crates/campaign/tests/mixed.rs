//! Determinism contract for **strategy-mixed** campaigns (the
//! acceptance tests of the schedule-diversification tentpole):
//!
//! * a mixed campaign (`random:2,pct2:1,pct3:1`) over `rwlock_buggy`
//!   produces byte-identical canonical JSON for 1, 4, and 8 workers;
//! * the per-strategy columns tile the aggregate exactly (executions,
//!   race/bug counts, and the union of the per-strategy dedup
//!   histories);
//! * the mixed campaign equals the serial `Model::run_many` reference
//!   over the same resolver;
//! * `Model::run_at(i)` replays execution `i` under the same strategy
//!   the campaign assigned it.

use c11tester::{Config, DedupHistory, Model, StrategyMix};
use c11tester_campaign::{Campaign, CampaignBudget};
use c11tester_workloads::ds::rwlock_buggy;

const SEED: u64 = 0x3144;
const MIX: &str = "random:2,pct2:1,pct3:1";

fn racy() {
    rwlock_buggy::run_buggy();
}

fn mixed_config() -> Config {
    Config::new()
        .with_seed(SEED)
        .with_mix(StrategyMix::parse(MIX).expect("valid mix"))
}

#[test]
fn mixed_canonical_json_is_byte_identical_across_1_4_8_workers() {
    let budget = CampaignBudget::executions(120);
    let reports: Vec<_> = [1usize, 4, 8]
        .into_iter()
        .map(|w| {
            Campaign::new(mixed_config())
                .with_workers(w)
                .run(&budget, racy)
        })
        .collect();
    let canon: Vec<String> = reports.iter().map(|r| r.canonical_json()).collect();
    assert_eq!(canon[0], canon[1], "1 vs 4 workers");
    assert_eq!(canon[1], canon[2], "4 vs 8 workers");
    assert_eq!(reports[0].aggregate, reports[1].aggregate);
    assert_eq!(reports[1].aggregate, reports[2].aggregate);
    // The canonical form carries the mix label and per-strategy rows.
    assert!(canon[0].contains(&format!("\"strategy\":\"{MIX}\"")));
    assert!(canon[0].contains("\"per_strategy\":[{\"strategy\":"));
    // All three member strategies actually drove executions.
    assert_eq!(reports[0].per_strategy().len(), 3);
    assert!(reports[0].aggregate.executions_with_race > 0);
}

#[test]
fn per_strategy_columns_sum_exactly_to_the_aggregate() {
    let report = Campaign::new(mixed_config())
        .with_workers(4)
        .run(&CampaignBudget::executions(200), racy);
    let agg = &report.aggregate;
    let ledger = report.per_strategy();

    assert_eq!(ledger.total_executions(), agg.executions);
    let race_sum: u64 = ledger.iter().map(|(_, b)| b.executions_with_race).sum();
    let bug_sum: u64 = ledger.iter().map(|(_, b)| b.executions_with_bug).sum();
    assert_eq!(race_sum, agg.executions_with_race);
    assert_eq!(bug_sum, agg.executions_with_bug);

    // The union of the per-strategy dedup histories is the aggregate
    // history: same race classes, same occurrence counts, same
    // lowest-index exemplars.
    let mut union = DedupHistory::new();
    for (_, bucket) in ledger.iter() {
        union.merge(&bucket.races);
    }
    assert_eq!(union, agg.races);

    // Every bucket's counters are internally consistent.
    for (name, b) in ledger.iter() {
        assert!(b.executions > 0, "empty bucket {name} should not exist");
        assert!(b.executions_with_race <= b.executions);
        assert!(b.executions_with_bug <= b.executions);
        assert!(b.executions_with_race <= b.executions_with_bug);
    }
}

#[test]
fn mixed_campaign_equals_serial_run_many_with_the_same_resolver() {
    let executions = 300;
    let campaign = Campaign::new(mixed_config())
        .with_workers(8)
        .run(&CampaignBudget::executions(executions), racy);
    let serial = Model::new(mixed_config()).run_many(executions, racy);
    assert_eq!(campaign.aggregate, serial, "full aggregate equality");
    assert_eq!(campaign.aggregate.per_strategy, serial.per_strategy);
}

#[test]
fn run_at_replays_under_the_strategy_the_campaign_assigned() {
    let config = mixed_config();
    let mix = config.mix.clone().expect("mix set");
    let campaign = Campaign::new(config.clone())
        .with_workers(4)
        .run(&CampaignBudget::executions(40), racy);

    // The campaign recorded every execution under its assigned
    // strategy; spot-check indices across the whole range by replay.
    let mut replayer = Model::new(config.clone());
    for index in [0u64, 7, 13, 26, 39] {
        let assigned = mix.strategy_at(SEED, index);
        let replayed = replayer.run_at(index, racy);
        assert_eq!(
            *replayed.strategy,
            *assigned.spec(),
            "execution #{index} must replay under its assigned strategy"
        );
    }

    // And a race found by the campaign replays with its race intact at
    // the recorded first_execution index.
    let (_, entry) = campaign
        .aggregate
        .races
        .iter()
        .next()
        .expect("campaign found a race");
    let index = entry.first_execution;
    let replayed = replayer.run_at(index, racy);
    assert_eq!(*replayed.strategy, *mix.strategy_at(SEED, index).spec());
    assert!(
        replayed.races.iter().any(|r| r.key() == entry.report.key()),
        "replay of execution #{index} must reproduce the race"
    );
}

#[test]
fn unmixed_campaign_has_a_single_strategy_bucket() {
    // Control: without a mix the ledger degenerates to one bucket that
    // equals the aggregate.
    let report = Campaign::new(Config::new().with_seed(SEED))
        .with_workers(2)
        .run(&CampaignBudget::executions(50), racy);
    let ledger = report.per_strategy();
    assert_eq!(ledger.len(), 1);
    let (name, bucket) = ledger.iter().next().expect("one bucket");
    assert_eq!(name, "random");
    assert_eq!(bucket.executions, report.aggregate.executions);
    assert_eq!(
        bucket.executions_with_race,
        report.aggregate.executions_with_race
    );
    assert_eq!(bucket.races, report.aggregate.races);
}
