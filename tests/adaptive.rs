//! Determinism and detection contract for **adaptive epoch-driven**
//! campaigns (the acceptance tests of the adaptive tentpole):
//!
//! * an adaptive UCB1 campaign produces **byte-identical**
//!   canonical JSON for 1, 4, and 8 workers;
//! * adaptive with the `Fixed` (no-op) policy equals the plain mixed
//!   campaign over the same budget, in-process and through the fork
//!   server — the closed loop degenerates to the open loop exactly,
//!   down to the embedded report's canonical bytes;
//! * a flagged execution replays by `(seed, epoch, index)` under the
//!   strategy its epoch's mix assigned it;
//! * on a seeded-bug workload, adaptive UCB1 reaches first-bug in no
//!   more executions than the **worst** fixed single-strategy campaign
//!   at the same seed, and shifts weight toward the arm that finds the
//!   bug.

use c11tester::sync::atomic::{AtomicU32, Ordering};
use c11tester::{Config, Model, Strategy, StrategyMix};
use c11tester_campaign::{targets, Campaign, CampaignBudget};
use c11tester_isolation::ForkServer;
use c11tester_workloads::ds::rwlock_buggy;
use std::sync::Arc;

const SEED: u64 = 0xADA;
const MIX: &str = "random:2,pct2:1,pct3:1";

fn racy() {
    rwlock_buggy::run_buggy();
}

fn mixed_config() -> Config {
    Config::new()
        .with_seed(SEED)
        .with_mix(StrategyMix::parse(MIX).expect("valid mix"))
}

/// A depth-2 lost-update bug (cf. the PCT suite): the final count is 1
/// only when a thread is preempted between its load and its store.
/// PCT depth 1 never preempts mid-thread, so the `pct1` arm can never
/// find it — which is what makes the bandit's reweighting observable.
fn lost_update() {
    let c = Arc::new(AtomicU32::new(0));
    let c2 = Arc::clone(&c);
    let t = c11tester::thread::spawn(move || {
        let v = c2.load(Ordering::SeqCst);
        c2.store(v + 1, Ordering::SeqCst);
    });
    let v = c.load(Ordering::SeqCst);
    c.store(v + 1, Ordering::SeqCst);
    t.join();
    assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
}

#[test]
fn adaptive_trace_json_is_byte_identical_across_1_4_8_workers() {
    let budget = CampaignBudget::executions(48);
    let traces: Vec<String> = [1usize, 4, 8]
        .into_iter()
        .map(|w| {
            Campaign::new(mixed_config())
                .with_workers(w)
                .with_epoch_len(12)
                .with_policy("ucb1")
                .expect("valid policy")
                .trace(&budget, racy)
                .canonical_json()
        })
        .collect();
    assert_eq!(traces[0], traces[1], "1 vs 4 workers");
    assert_eq!(traces[1], traces[2], "4 vs 8 workers");
    assert!(traces[0].contains("\"schema\":\"c11campaign/v4\""));
    assert!(traces[0].contains("\"adaptive\":{\"policy\":\"ucb1\",\"epoch_len\":12"));
    assert!(traces[0].contains("\"epochs\":[{\"epoch\":0,"));
    // Exp3 holds to the same contract.
    let exp: Vec<String> = [1usize, 4]
        .into_iter()
        .map(|w| {
            Campaign::new(mixed_config())
                .with_workers(w)
                .with_epoch_len(12)
                .with_policy("exp3")
                .expect("valid policy")
                .trace(&budget, racy)
                .canonical_json()
        })
        .collect();
    assert_eq!(exp[0], exp[1], "exp3: 1 vs 4 workers");
}

#[test]
fn adaptive_with_fixed_policy_equals_the_plain_mixed_campaign() {
    let executions = 60;
    let budget = CampaignBudget::executions(executions);
    let plain = Campaign::new(mixed_config()).with_workers(4);
    let fixed = plain.clone().with_epoch_len(16);
    // Both backends: in-process workers, and fork-server children of
    // the real binary.
    let target = targets::find("rwlock-buggy").expect("target exists");
    let fork = ForkServer::new(env!("CARGO_BIN_EXE_c11campaign")).with_batch_size(7);
    let runs = [
        (fixed.trace(&budget, racy), plain.run(&budget, racy)),
        (
            fixed
                .trace_target(&fork, &target, &budget)
                .expect("fork server runs"),
            plain
                .run_target(&fork, &target, &budget)
                .expect("fork server runs"),
        ),
    ];
    // And both match the serial reference.
    let serial = Model::new(mixed_config()).run_many(executions, racy);
    for (adaptive, plain) in &runs {
        // Fixed never changes the mix, epochs keep the base seed and
        // walk global indices — so the executions are literally the
        // same ones, and the adaptive run's report is the plain
        // campaign's, byte for byte.
        assert_eq!(adaptive.report.canonical_json(), plain.canonical_json());
        assert_eq!(adaptive.report.aggregate, plain.aggregate);
        assert_eq!(adaptive.epochs(), 4);
        assert_eq!(adaptive.mix_trajectory(), vec![MIX; adaptive.epochs()]);
        assert_eq!(adaptive.report.aggregate, serial);
    }
}

#[test]
fn flagged_executions_replay_by_seed_epoch_index() {
    let campaign = Campaign::new(mixed_config())
        .with_workers(4)
        .with_epoch_len(12)
        .with_policy("ucb1")
        .expect("valid policy");
    let trace = campaign.trace(&CampaignBudget::executions(48), racy);

    // Find the epoch containing the aggregate's first flagged
    // execution and replay it by its global index.
    let first = trace
        .report
        .aggregate
        .first_bug_execution()
        .expect("rwlock_buggy races");
    let record = trace
        .records
        .iter()
        .find(|r| first >= r.start_index && first < r.end_index())
        .expect("first bug falls in a completed epoch");
    let replayed = campaign
        .replay(&trace, first, racy)
        .expect("index in range");
    assert_eq!(replayed.epoch, record.epoch);
    assert_eq!(replayed.report.execution_index, first);
    assert!(replayed.report.found_bug(), "replay must reproduce the bug");
    // The replay ran under the strategy the epoch's mix assigned.
    let mix = StrategyMix::parse(&record.mix).expect("trace mix parses");
    assert_eq!(
        *replayed.report.strategy,
        *mix.strategy_at(SEED, first).spec()
    );

    // Spot-check replays across later (reweighted) epochs too: the
    // recorded per-epoch mix governs the assignment, not the initial
    // mix.
    for record in &trace.records {
        let mix = StrategyMix::parse(&record.mix).expect("trace mix parses");
        let index = record.start_index;
        let replayed = campaign
            .replay(&trace, index, racy)
            .expect("epoch start in range");
        assert_eq!(replayed.epoch, record.epoch);
        assert_eq!(
            *replayed.report.strategy,
            *mix.strategy_at(SEED, index).spec()
        );
    }
}

#[test]
fn ucb1_beats_the_worst_fixed_arm_to_first_bug_and_shifts_weight() {
    // Arms: pct1 (structurally blind to the depth-2 bug) and pct2
    // (finds it). The horizon 16 matches the program's length.
    let arms = "pct1@16:1,pct2@16:1";
    let seed = 0x52;
    let executions = 240;
    let config = Config::new()
        .with_seed(seed)
        .with_mix(StrategyMix::parse(arms).expect("valid mix"));
    let adaptive = Campaign::new(config)
        .with_workers(4)
        .with_epoch_len(40)
        .with_policy("ucb1")
        .expect("valid policy")
        .trace(&CampaignBudget::executions(executions), lost_update);

    // Fixed single-strategy campaigns over the same seed and budget.
    let fixed_first_bug = |strategy: &str| {
        let config = Config::new()
            .with_seed(seed)
            .with_strategy(Strategy::parse_spec(strategy).expect("valid spec"));
        Campaign::new(config)
            .with_workers(4)
            .run(&CampaignBudget::executions(executions), lost_update)
            .aggregate
            .first_bug_execution()
    };
    assert_eq!(
        fixed_first_bug("pct1@16"),
        None,
        "depth-1 PCT must be blind to the depth-2 bug"
    );
    let adaptive_first = adaptive.report.aggregate.first_bug_execution();
    assert!(
        adaptive_first.is_some(),
        "adaptive campaign must find the bug: {}",
        adaptive
    );
    // Executions-to-first-bug: no worse than the worst fixed arm
    // (None = never found = worst possible).
    let worst_fixed = ["pct1@16", "pct2@16"]
        .iter()
        .map(|s| fixed_first_bug(s).unwrap_or(u64::MAX))
        .max()
        .expect("two arms");
    assert!(
        adaptive_first.unwrap_or(u64::MAX) <= worst_fixed,
        "adaptive first-bug {adaptive_first:?} vs worst fixed {worst_fixed}"
    );

    // The controller must shift weight toward the productive arm: in
    // the final epoch's mix, pct2 outweighs pct1.
    let last = adaptive.records.last().expect("epochs ran");
    let mix = StrategyMix::parse(&last.mix).expect("trace mix parses");
    let weight = |spec: &str| {
        mix.entries()
            .iter()
            .find(|(s, _)| s.spec() == spec)
            .map(|(_, w)| *w)
            .expect("arm present")
    };
    assert!(
        weight("pct2@16") > weight("pct1@16"),
        "final mix must favor the bug-finding arm: {}",
        last.mix
    );
}

#[test]
fn exp3_also_shifts_weight_toward_the_productive_arm() {
    let config = Config::new()
        .with_seed(0x52)
        .with_mix(StrategyMix::parse("pct1@16:1,pct2@16:1").expect("valid mix"));
    let report = Campaign::new(config)
        .with_workers(2)
        .with_epoch_len(40)
        .with_policy("exp3")
        .expect("valid policy")
        .trace(&CampaignBudget::executions(240), lost_update);
    let last = report.records.last().expect("epochs ran");
    let mix = StrategyMix::parse(&last.mix).expect("trace mix parses");
    let weight = |spec: &str| {
        mix.entries()
            .iter()
            .find(|(s, _)| s.spec() == spec)
            .map(|(_, w)| *w)
            .expect("arm present")
    };
    assert!(
        weight("pct2@16") > weight("pct1@16"),
        "exp3 final mix must favor the bug-finding arm: {}",
        last.mix
    );
}
