//! Mergeable cross-execution race-deduplication history.
//!
//! The paper reports each race **once** across thousands of repeated
//! executions (§7.6): the tool keeps a hash of reported races and
//! suppresses repeats. With campaign-style parallel exploration the
//! history can no longer live in one detector — every worker sees its
//! own slice of the execution stream and the per-worker histories must
//! be *merged* afterwards. [`DedupHistory`] is that mergeable type:
//!
//! * keyed by [`RaceKey`] (the label + conflict-shape hash the
//!   detector already dedups on, extracted from [`RaceReport`]);
//! * each entry keeps the exemplar report from the **lowest execution
//!   index** that exhibited the race, plus an occurrence count — both
//!   are order-independent under [`DedupHistory::merge`], so any
//!   partition of the execution stream over any number of workers
//!   aggregates to an identical history;
//! * iteration is sorted by key (`BTreeMap`), making downstream
//!   reports byte-stable.

use crate::report::{AccessKind, RaceKind, RaceReport};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// The identity of a race class: what the detector and the model layer
/// deduplicate on. Two reports with equal keys are "the same race"
/// reported from different executions or access pairs.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RaceKey {
    /// The racing location's human-readable label.
    pub label: String,
    /// The conflict shape.
    pub kind: RaceKind,
}

impl RaceReport {
    /// The dedup key of this report.
    pub fn key(&self) -> RaceKey {
        RaceKey {
            label: self.label.clone(),
            kind: self.kind,
        }
    }

    /// The access-pair shape of this report — the forensic detail a
    /// [`RaceKey`] deliberately collapses.
    pub fn shape(&self) -> AccessShape {
        AccessShape {
            current_tid: self.current_tid.index() as u64,
            current_kind: self.current_kind,
            prior_tid: self.prior_tid.index() as u64,
            prior_atomic: self.prior_atomic,
        }
    }
}

/// One concrete access-pair shape observed for a race class: which
/// threads collided and how. Several shapes can hide behind one
/// [`RaceKey`] (the dedup identity is `(label, kind)` only); entries
/// record the distinct shapes so forensics output can surface them.
/// Diagnostic — never part of canonical campaign JSON.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct AccessShape {
    /// Thread performing the access that completed the race.
    pub current_tid: u64,
    /// Kind of the current access.
    pub current_kind: AccessKind,
    /// Thread that performed the earlier conflicting access.
    pub prior_tid: u64,
    /// Whether the earlier access was atomic (incl. volatile).
    pub prior_atomic: bool,
}

/// One deduplicated race class with provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DedupEntry {
    /// Exemplar report, taken from the lowest execution index that
    /// exhibited this race (deterministic regardless of worker count).
    pub report: RaceReport,
    /// Lowest execution index that exhibited the race.
    pub first_execution: u64,
    /// Number of executions that exhibited the race.
    pub occurrences: u64,
    /// Every distinct access-pair shape observed for this race class
    /// (the exemplar's shape is always a member). Shapes are rebuilt
    /// from each recorded report, so the set is identical however the
    /// execution stream is partitioned. Diagnostic only — excluded
    /// from canonical JSON.
    pub shapes: BTreeSet<AccessShape>,
}

impl DedupEntry {
    /// Folds another entry of the same race class into this one.
    fn merge(&mut self, other: &DedupEntry) {
        self.occurrences += other.occurrences;
        self.shapes.extend(other.shapes.iter().copied());
        if other.first_execution < self.first_execution {
            self.first_execution = other.first_execution;
            self.report = other.report.clone();
        }
    }
}

/// An order-independent, mergeable history of deduplicated races.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DedupHistory {
    entries: BTreeMap<RaceKey, DedupEntry>,
}

impl DedupHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        DedupHistory::default()
    }

    /// Records that `report` was observed in execution
    /// `execution_index`. Call at most once per (execution, race class)
    /// — the per-execution dedup inside the detector guarantees this —
    /// so `occurrences` counts *executions*, not access pairs.
    pub fn record(&mut self, execution_index: u64, report: &RaceReport) {
        match self.entries.entry(report.key()) {
            Entry::Vacant(v) => {
                v.insert(DedupEntry {
                    report: report.clone(),
                    first_execution: execution_index,
                    occurrences: 1,
                    shapes: BTreeSet::from([report.shape()]),
                });
            }
            Entry::Occupied(mut o) => {
                let e = o.get_mut();
                e.occurrences += 1;
                e.shapes.insert(report.shape());
                if execution_index < e.first_execution {
                    e.first_execution = execution_index;
                    e.report = report.clone();
                }
            }
        }
    }

    /// Folds another history into this one. Merging is commutative and
    /// associative: any partition of an execution stream aggregates to
    /// the same history.
    pub fn merge(&mut self, other: &DedupHistory) {
        for (key, oe) in &other.entries {
            match self.entries.entry(key.clone()) {
                Entry::Vacant(v) => {
                    v.insert(oe.clone());
                }
                Entry::Occupied(mut cur) => cur.get_mut().merge(oe),
            }
        }
    }

    /// Folds one entry into the history, exactly as [`DedupHistory::merge`]
    /// folds a one-entry history: how a decoded history is rebuilt.
    pub fn absorb_entry(&mut self, entry: DedupEntry) {
        match self.entries.entry(entry.report.key()) {
            Entry::Vacant(v) => {
                v.insert(entry);
            }
            Entry::Occupied(mut cur) => cur.get_mut().merge(&entry),
        }
    }

    /// Number of distinct race classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no race has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a race class is present.
    pub fn contains(&self, key: &RaceKey) -> bool {
        self.entries.contains_key(key)
    }

    /// Entries in key order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&RaceKey, &DedupEntry)> {
        self.entries.iter()
    }

    /// The exemplar reports in key order (deterministic).
    pub fn reports(&self) -> Vec<&RaceReport> {
        self.entries.values().map(|e| &e.report).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::AccessKind;
    use c11tester_core::{ObjId, ThreadId};

    fn report(label: &str, kind: RaceKind, tid: usize) -> RaceReport {
        RaceReport {
            label: label.into(),
            obj: ObjId(1),
            offset: 0,
            kind,
            current_tid: ThreadId::from_index(tid),
            current_kind: AccessKind::NonAtomic,
            prior_tid: ThreadId::from_index(0),
            prior_atomic: false,
        }
    }

    #[test]
    fn record_dedups_and_counts_occurrences() {
        let mut h = DedupHistory::new();
        h.record(3, &report("x", RaceKind::WriteAfterWrite, 1));
        h.record(5, &report("x", RaceKind::WriteAfterWrite, 2));
        h.record(5, &report("y", RaceKind::ReadAfterWrite, 2));
        assert_eq!(h.len(), 2);
        let (_, e) = h.iter().next().expect("x entry");
        assert_eq!(e.occurrences, 2);
        assert_eq!(e.first_execution, 3);
        // Exemplar comes from execution 3 (tid 1), not execution 5.
        assert_eq!(e.report.current_tid, ThreadId::from_index(1));
    }

    #[test]
    fn lowest_execution_wins_regardless_of_record_order() {
        let mut a = DedupHistory::new();
        a.record(9, &report("x", RaceKind::WriteAfterWrite, 9));
        a.record(2, &report("x", RaceKind::WriteAfterWrite, 2));
        let (_, e) = a.iter().next().expect("entry");
        assert_eq!(e.first_execution, 2);
        assert_eq!(e.report.current_tid, ThreadId::from_index(2));
    }

    #[test]
    fn merge_is_order_independent() {
        // Partition the same stream of observations two different ways;
        // the merged histories must be identical.
        let observations = [
            (0u64, report("a", RaceKind::WriteAfterWrite, 1)),
            (1, report("b", RaceKind::ReadAfterWrite, 2)),
            (2, report("a", RaceKind::WriteAfterWrite, 3)),
            (3, report("c", RaceKind::WriteAfterRead, 1)),
            (4, report("b", RaceKind::ReadAfterWrite, 0)),
        ];
        let build = |ixs: &[usize]| {
            let mut h = DedupHistory::new();
            for &i in ixs {
                let (ex, r) = &observations[i];
                h.record(*ex, r);
            }
            h
        };
        // Striped over 2 "workers" vs 3 "workers", merged in different orders.
        let mut two = build(&[0, 2, 4]);
        two.merge(&build(&[1, 3]));
        let mut three = build(&[2, 1]);
        three.merge(&build(&[4, 3]));
        three.merge(&build(&[0]));
        assert_eq!(two, three);
        // And equal to the serial history.
        assert_eq!(two, build(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn reports_are_sorted_by_key() {
        let mut h = DedupHistory::new();
        h.record(0, &report("zeta", RaceKind::WriteAfterWrite, 1));
        h.record(0, &report("alpha", RaceKind::WriteAfterWrite, 1));
        let labels: Vec<&str> = h.reports().iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["alpha", "zeta"]);
    }

    #[test]
    fn entries_collect_distinct_access_shapes_without_splitting_keys() {
        let mut h = DedupHistory::new();
        // Same (label, kind) key, three observations, two distinct
        // shapes (tid 1 twice, tid 2 once).
        h.record(0, &report("x", RaceKind::WriteAfterWrite, 1));
        h.record(1, &report("x", RaceKind::WriteAfterWrite, 2));
        h.record(2, &report("x", RaceKind::WriteAfterWrite, 1));
        assert_eq!(h.len(), 1, "shapes must not widen the dedup key");
        let (_, e) = h.iter().next().expect("entry");
        assert_eq!(e.occurrences, 3);
        assert_eq!(e.shapes.len(), 2);
        assert!(e.shapes.contains(&e.report.shape()));
        // Shape union is partition-invariant too.
        let mut a = DedupHistory::new();
        a.record(0, &report("x", RaceKind::WriteAfterWrite, 1));
        a.record(2, &report("x", RaceKind::WriteAfterWrite, 1));
        let mut b = DedupHistory::new();
        b.record(1, &report("x", RaceKind::WriteAfterWrite, 2));
        a.merge(&b);
        assert_eq!(a, h);
    }

    #[test]
    fn key_distinguishes_kind_on_same_label() {
        let mut h = DedupHistory::new();
        h.record(0, &report("x", RaceKind::WriteAfterWrite, 1));
        h.record(0, &report("x", RaceKind::ReadAfterWrite, 1));
        assert_eq!(h.len(), 2);
    }
}
