//! Per-strategy detection accounting for strategy-mixed campaigns.
//!
//! The paper's evaluation (§7.6, Tables 1–2) shows detection rates
//! depend on *which* controlled-scheduling strategy drives each
//! execution. When a campaign mixes strategies over one execution
//! stream, the aggregate alone hides that signal — the
//! [`StrategyLedger`] keeps one [`StrategyBucket`] per strategy so
//! reports can show per-strategy executions, race counts, and
//! detection rates alongside the aggregate.
//!
//! Like [`DedupHistory`], the ledger is **order-independent and
//! mergeable**: buckets key on the strategy's canonical spec string in
//! a `BTreeMap`, every counter is a sum, and each bucket's dedup
//! history merges commutatively — so any partition of the execution
//! stream over any number of campaign workers aggregates to an
//! identical ledger.

use crate::dedup::DedupHistory;
use crate::report::RaceReport;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Detection counters for one strategy's slice of an execution stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StrategyBucket {
    /// Executions assigned to this strategy.
    pub executions: u64,
    /// Of those, executions that detected at least one data race.
    pub executions_with_race: u64,
    /// Of those, executions that found any bug (race, assertion
    /// violation, or deadlock).
    pub executions_with_bug: u64,
    /// Deduplicated races found by this strategy's executions.
    pub races: DedupHistory,
}

impl StrategyBucket {
    /// Fraction of this strategy's executions that detected a race.
    pub fn race_detection_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.executions_with_race as f64 / self.executions as f64
        }
    }

    /// Fraction of this strategy's executions that found any bug.
    pub fn bug_detection_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.executions_with_bug as f64 / self.executions as f64
        }
    }

    fn merge(&mut self, other: &StrategyBucket) {
        self.executions += other.executions;
        self.executions_with_race += other.executions_with_race;
        self.executions_with_bug += other.executions_with_bug;
        self.races.merge(&other.races);
    }
}

/// An order-independent, mergeable map from strategy spec to its
/// detection counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StrategyLedger {
    buckets: BTreeMap<String, StrategyBucket>,
}

impl StrategyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        StrategyLedger::default()
    }

    /// Records one execution that ran under `strategy`: which races it
    /// exhibited (deduplicated within the execution already) and
    /// whether it found any bug.
    pub fn record(
        &mut self,
        strategy: &str,
        execution_index: u64,
        races: &[RaceReport],
        found_bug: bool,
    ) {
        // Look up by `&str`; the key is allocated only for a new bucket.
        let bucket = match self.buckets.get_mut(strategy) {
            Some(bucket) => bucket,
            None => self.buckets.entry(strategy.to_string()).or_default(),
        };
        bucket.executions += 1;
        if !races.is_empty() {
            bucket.executions_with_race += 1;
        }
        if found_bug {
            bucket.executions_with_bug += 1;
        }
        for race in races {
            bucket.races.record(execution_index, race);
        }
    }

    /// Folds another ledger into this one. Commutative and associative
    /// over disjoint execution sets.
    pub fn merge(&mut self, other: &StrategyLedger) {
        for (name, ob) in &other.buckets {
            match self.buckets.entry(name.clone()) {
                Entry::Vacant(v) => {
                    v.insert(ob.clone());
                }
                Entry::Occupied(mut cur) => cur.get_mut().merge(ob),
            }
        }
    }

    /// Folds one strategy's bucket into the ledger, exactly as
    /// [`StrategyLedger::merge`] folds a one-bucket ledger: how a decoded
    /// ledger is rebuilt.
    pub fn absorb_bucket(&mut self, strategy: String, bucket: StrategyBucket) {
        match self.buckets.entry(strategy) {
            Entry::Vacant(v) => {
                v.insert(bucket);
            }
            Entry::Occupied(mut cur) => cur.get_mut().merge(&bucket),
        }
    }

    /// Number of distinct strategies recorded.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether no execution has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// The bucket for a strategy spec, if any execution ran under it.
    pub fn get(&self, strategy: &str) -> Option<&StrategyBucket> {
        self.buckets.get(strategy)
    }

    /// Buckets in strategy-spec order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &StrategyBucket)> {
        self.buckets.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total executions across all buckets (must equal the aggregate's
    /// execution count — the sum-to-aggregate invariant).
    pub fn total_executions(&self) -> u64 {
        self.buckets.values().map(|b| b.executions).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{AccessKind, RaceKind};
    use c11tester_core::{ObjId, ThreadId};

    fn race(label: &str) -> RaceReport {
        RaceReport {
            label: label.into(),
            obj: ObjId(1),
            offset: 0,
            kind: RaceKind::WriteAfterWrite,
            current_tid: ThreadId::from_index(1),
            current_kind: AccessKind::NonAtomic,
            prior_tid: ThreadId::from_index(0),
            prior_atomic: false,
        }
    }

    #[test]
    fn record_buckets_by_strategy_and_counts() {
        let mut l = StrategyLedger::new();
        l.record("random", 0, &[race("x")], true);
        l.record("random", 1, &[], false);
        l.record("pct2", 2, &[race("x"), race("y")], true);
        assert_eq!(l.len(), 2);
        let r = l.get("random").expect("random bucket");
        assert_eq!(r.executions, 2);
        assert_eq!(r.executions_with_race, 1);
        assert_eq!(r.executions_with_bug, 1);
        assert_eq!(r.races.len(), 1);
        assert!((r.race_detection_rate() - 0.5).abs() < 1e-9);
        let p = l.get("pct2").expect("pct2 bucket");
        assert_eq!(p.executions, 1);
        assert_eq!(p.races.len(), 2);
        assert_eq!(l.total_executions(), 3);
    }

    #[test]
    fn bug_without_race_counts_only_bug() {
        let mut l = StrategyLedger::new();
        l.record("burst", 5, &[], true); // e.g. a deadlock
        let b = l.get("burst").expect("bucket");
        assert_eq!(b.executions_with_race, 0);
        assert_eq!(b.executions_with_bug, 1);
        assert_eq!(b.race_detection_rate(), 0.0);
        assert_eq!(b.bug_detection_rate(), 1.0);
    }

    #[test]
    fn merge_is_order_independent() {
        let observations: Vec<(&str, u64, Vec<RaceReport>, bool)> = vec![
            ("random", 0, vec![race("a")], true),
            ("pct2", 1, vec![], false),
            ("random", 2, vec![race("a"), race("b")], true),
            ("pct3", 3, vec![], true),
            ("pct2", 4, vec![race("b")], true),
        ];
        let build = |ixs: &[usize]| {
            let mut l = StrategyLedger::new();
            for &i in ixs {
                let (s, ex, races, bug) = &observations[i];
                l.record(s, *ex, races, *bug);
            }
            l
        };
        let mut two = build(&[0, 2, 4]);
        two.merge(&build(&[1, 3]));
        let mut three = build(&[3, 1]);
        three.merge(&build(&[4, 0]));
        three.merge(&build(&[2]));
        assert_eq!(two, three);
        assert_eq!(two, build(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn iteration_is_sorted_by_strategy() {
        let mut l = StrategyLedger::new();
        l.record("random", 0, &[], false);
        l.record("burst", 1, &[], false);
        l.record("pct2", 2, &[], false);
        let names: Vec<&str> = l.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["burst", "pct2", "random"]);
    }
}
