//! Seeded property test for shard-local aggregation: a campaign worker
//! folds its own [`TestReport`] and the caller adopts one partial by
//! move and merges the rest by reference. For any report stream, any
//! shard count and any merge order that must equal serial absorption,
//! field for field.

use c11tester::{
    AccessKind, ExecCoverage, ExecStats, ExecutionReport, Failure, RaceKind, RaceReport,
    TestReport, ThreadId,
};
use c11tester_core::rng::SplitMix64;
use c11tester_core::ObjId;

fn race(rng: &mut SplitMix64) -> RaceReport {
    // Four labels × two kinds: few enough classes that dedup, exemplar
    // selection and occurrence counting all see collisions.
    RaceReport {
        label: ["head", "tail", "slot", "len"][rng.below(4) as usize].into(),
        obj: ObjId(1 + rng.below(2)),
        offset: 0,
        kind: [RaceKind::WriteAfterWrite, RaceKind::ReadAfterWrite][rng.below(2) as usize],
        current_tid: ThreadId::from_index(1 + rng.below(2) as usize),
        current_kind: AccessKind::NonAtomic,
        prior_tid: ThreadId::from_index(0),
        prior_atomic: false,
    }
}

fn execution(rng: &mut SplitMix64, index: u64) -> ExecutionReport {
    let mut races: Vec<RaceReport> = Vec::new();
    for _ in 0..rng.below(4).saturating_sub(1) {
        let r = race(rng);
        // Reports are deduplicated within an execution.
        if !races.iter().any(|seen| seen.key() == r.key()) {
            races.push(r);
        }
    }
    let failure = match rng.below(8) {
        0 => Some(Failure::Deadlock),
        1 | 2 => Some(Failure::Panic(format!("torn read #{}", rng.below(5)))),
        3 => Some(Failure::TooManyEvents(rng.below(1000))),
        _ => None,
    };
    let mut coverage = ExecCoverage::default();
    if rng.below(2) == 0 {
        coverage = ExecCoverage::collecting();
        for _ in 0..rng.below(4) {
            coverage.record_rf(rng.below(3), rng.below(3), rng.below(3));
            coverage.record_mo(rng.below(3), rng.below(3), rng.below(3));
        }
        coverage.record_switch(rng.below(6), rng.below(3));
    }
    ExecutionReport {
        execution_index: index,
        strategy: ["random", "pct2", "pct3", "burst"][rng.below(4) as usize].into(),
        races,
        failure,
        stats: ExecStats {
            atomic_loads: rng.below(40),
            atomic_stores: rng.below(40),
            normal_accesses: rng.below(100),
            ..ExecStats::default()
        },
        elided_volatile_races: rng.below(3),
        coverage,
    }
}

#[test]
fn sharded_fold_with_adoption_equals_serial_absorption() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let executions = 1 + rng.below(200);
        let stream: Vec<ExecutionReport> =
            (0..executions).map(|ix| execution(&mut rng, ix)).collect();

        let mut serial = TestReport::default();
        for report in &stream {
            serial.absorb(report);
        }

        // Fold each shard locally. Shards are arbitrary (not just
        // strided) so the failure merge sees every interleaving.
        let shards = 1 + rng.below(8) as usize;
        let mut partials = vec![TestReport::default(); shards];
        for report in &stream {
            partials[rng.below(shards as u64) as usize].absorb(report);
        }

        // Adopt one partial by move, merge the rest in shuffled order.
        for i in (1..partials.len()).rev() {
            partials.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut aggregate = partials.pop().expect("at least one shard");
        for partial in &partials {
            aggregate.merge(partial);
        }

        assert_eq!(aggregate.executions, serial.executions, "seed {seed}");
        assert_eq!(
            aggregate.executions_with_race, serial.executions_with_race,
            "seed {seed}"
        );
        assert_eq!(
            aggregate.executions_with_bug, serial.executions_with_bug,
            "seed {seed}"
        );
        assert_eq!(aggregate.races, serial.races, "seed {seed}: dedup history");
        assert_eq!(
            aggregate.per_strategy, serial.per_strategy,
            "seed {seed}: strategy ledger"
        );
        assert_eq!(aggregate.failures, serial.failures, "seed {seed}: failures");
        assert!(
            aggregate.failures.windows(2).all(|w| w[0].0 < w[1].0),
            "seed {seed}: failures stay index-sorted"
        );
        assert_eq!(
            aggregate.total_stats, serial.total_stats,
            "seed {seed}: stats"
        );
        assert_eq!(
            aggregate.elided_volatile_races, serial.elided_volatile_races,
            "seed {seed}"
        );
        assert_eq!(aggregate.coverage, serial.coverage, "seed {seed}: coverage");
        assert_eq!(aggregate, serial, "seed {seed}: whole report");
    }
}
