//! Property tests for the two mergeable cross-execution histories.
//!
//! The campaign determinism contract rests on an algebraic fact: for
//! any partition of the execution stream across workers (or fork
//! server children), folding each slice separately and merging the
//! results must equal a serial fold of the whole stream. This file
//! checks the underlying laws — commutativity, associativity, and
//! partition invariance over *random* splits and merge orders — for
//! both [`CoverageMap`] and [`DedupHistory`], with the workspace's
//! seeded SplitMix64 stream, so a failing seed replays.

use c11tester_core::rng::SplitMix64;
use c11tester_core::{ExecCoverage, ObjId, ThreadId};
use c11tester_race::{AccessKind, CoverageMap, DedupHistory, RaceKind, RaceReport};

/// One synthetic execution: its coverage signature plus its races.
#[derive(Clone)]
struct Exec {
    index: u64,
    coverage: ExecCoverage,
    races: Vec<RaceReport>,
}

/// A random but deterministic execution stream. Small key spaces on
/// purpose: collisions across executions are what exercise the
/// min/first-sum/occurrence merge arms.
fn stream(seed: u64, len: u64) -> Vec<Exec> {
    let mut rng = SplitMix64::new(seed);
    let labels = ["flag", "head", "seq.data", "buf[0]"];
    let kinds = [
        RaceKind::WriteAfterWrite,
        RaceKind::WriteAfterRead,
        RaceKind::ReadAfterWrite,
    ];
    (0..len)
        .map(|index| {
            let mut coverage = ExecCoverage::collecting();
            for _ in 0..rng.below(4) {
                coverage.record_rf(rng.below(3), rng.below(3), rng.below(3));
            }
            for _ in 0..rng.below(4) {
                coverage.record_mo(rng.below(3), rng.below(3), rng.below(3));
            }
            for _ in 0..rng.below(6) {
                coverage.record_switch(rng.below(32), rng.below(4));
            }
            let races = (0..rng.below(3))
                .map(|_| RaceReport {
                    label: labels[rng.below(labels.len() as u64) as usize].to_string(),
                    obj: ObjId(rng.below(3)),
                    offset: 0,
                    kind: kinds[rng.below(3) as usize],
                    current_tid: ThreadId::from_index(rng.below(4) as usize),
                    current_kind: if rng.below(2) == 0 {
                        AccessKind::NonAtomic
                    } else {
                        AccessKind::Atomic
                    },
                    prior_tid: ThreadId::from_index(rng.below(4) as usize),
                    prior_atomic: rng.below(2) == 0,
                })
                .collect();
            Exec {
                index,
                coverage,
                races,
            }
        })
        .collect()
}

fn coverage_fold(execs: &[Exec]) -> CoverageMap {
    let mut map = CoverageMap::new();
    for e in execs {
        map.record(e.index, &e.coverage, &e.races);
    }
    map
}

fn dedup_fold(execs: &[Exec]) -> DedupHistory {
    let mut history = DedupHistory::new();
    for e in execs {
        // Dedup within the execution first, as the detector does (one
        // record call per (execution, race class)).
        let mut seen = Vec::new();
        for r in &e.races {
            if !seen.contains(&r.key()) {
                seen.push(r.key());
                history.record(e.index, r);
            }
        }
    }
    history
}

/// Splits `execs` into `parts` random slices (some possibly empty),
/// preserving in-slice index order, then returns the slices in a
/// shuffled merge order.
fn random_partition(execs: &[Exec], parts: usize, rng: &mut SplitMix64) -> Vec<Vec<Exec>> {
    let mut slices: Vec<Vec<Exec>> = vec![Vec::new(); parts];
    for e in execs {
        slices[rng.below(parts as u64) as usize].push(e.clone());
    }
    // Fisher–Yates on the slice order: merge order must not matter.
    for i in (1..slices.len()).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        slices.swap(i, j);
    }
    slices
}

#[test]
fn coverage_merge_is_commutative_and_associative() {
    for seed in 1..=10u64 {
        let execs = stream(seed, 60);
        let (a, b, c) = (
            coverage_fold(&execs[..20]),
            coverage_fold(&execs[20..40]),
            coverage_fold(&execs[40..]),
        );
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "seed {seed}: a+b != b+a");
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "seed {seed}: (a+b)+c != a+(b+c)");
    }
}

#[test]
fn dedup_merge_is_commutative_and_associative() {
    for seed in 1..=10u64 {
        let execs = stream(seed, 60);
        let (a, b, c) = (
            dedup_fold(&execs[..20]),
            dedup_fold(&execs[20..40]),
            dedup_fold(&execs[40..]),
        );
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "seed {seed}: a+b != b+a");
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc, "seed {seed}: (a+b)+c != a+(b+c)");
    }
}

#[test]
fn coverage_fold_is_invariant_under_random_partitions() {
    for seed in 1..=20u64 {
        let execs = stream(seed, 100);
        let serial = coverage_fold(&execs);
        let mut rng = SplitMix64::new(seed ^ 0xDEAD_BEEF);
        for parts in [1usize, 2, 3, 7, 16] {
            let mut merged = CoverageMap::new();
            for slice in random_partition(&execs, parts, &mut rng) {
                merged.merge(&coverage_fold(&slice));
            }
            assert_eq!(
                merged, serial,
                "seed {seed}, {parts} parts: partitioned fold diverged"
            );
        }
    }
}

#[test]
fn dedup_fold_is_invariant_under_random_partitions() {
    for seed in 1..=20u64 {
        let execs = stream(seed, 100);
        let serial = dedup_fold(&execs);
        let mut rng = SplitMix64::new(seed ^ 0xFACE_FEED);
        for parts in [1usize, 2, 3, 7, 16] {
            let mut merged = DedupHistory::new();
            for slice in random_partition(&execs, parts, &mut rng) {
                merged.merge(&dedup_fold(&slice));
            }
            assert_eq!(
                merged, serial,
                "seed {seed}, {parts} parts: partitioned fold diverged"
            );
        }
    }
}

#[test]
fn empty_map_is_the_merge_identity() {
    let execs = stream(42, 30);
    let coverage = coverage_fold(&execs);
    let mut with_empty = coverage.clone();
    with_empty.merge(&CoverageMap::new());
    assert_eq!(with_empty, coverage);
    let mut from_empty = CoverageMap::new();
    from_empty.merge(&coverage);
    assert_eq!(from_empty, coverage);

    let dedup = dedup_fold(&execs);
    let mut with_empty = dedup.clone();
    with_empty.merge(&DedupHistory::new());
    assert_eq!(with_empty, dedup);
    let mut from_empty = DedupHistory::new();
    from_empty.merge(&dedup);
    assert_eq!(from_empty, dedup);
}
