//! Execution and test reports.
//!
//! C11Tester "reports any races or assertion violations that it
//! discovers" (paper §1). An [`ExecutionReport`] covers one execution;
//! a [`TestReport`] aggregates repeated executions (§7.6), counting how
//! many executions exhibited a bug (the *detection rate* of Tables 2
//! and §8.1) while deduplicating the distinct reports.

use c11tester_core::{ExecCoverage, ExecStats};
pub use c11tester_race::{
    AccessKind, AccessShape, BehaviorStats, CoverageMap, DedupEntry, DedupHistory, RaceKey,
    RaceKind, RaceReport, StrategyBucket, StrategyLedger,
};
use std::fmt;
use std::sync::Arc;

/// A fatal condition that ended an execution early.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    /// All live threads were blocked.
    Deadlock,
    /// A model thread panicked (assertion violation in the program
    /// under test). Carries the panic message.
    Panic(String),
    /// The event budget was exhausted (guards against runaway
    /// schedules; configurable via `Config::max_events`).
    TooManyEvents(u64),
    /// The testing infrastructure itself failed for this execution —
    /// a model-thread spawn/dispatch error, or a panic that escaped a
    /// model thread's root `catch_unwind` (e.g. from TLS destructors
    /// during teardown). Not a bug in the program under test, but it
    /// must surface rather than vanish.
    Infra(String),
}

impl Failure {
    /// Stable machine-readable kind name — the single source for every
    /// JSON emitter (campaign reports, the isolation wire protocol).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Failure::Deadlock => "deadlock",
            Failure::Panic(_) => "panic",
            Failure::TooManyEvents(_) => "too-many-events",
            Failure::Infra(_) => "infra",
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Deadlock => write!(f, "deadlock: all live threads blocked"),
            Failure::Panic(msg) => write!(f, "assertion violation: {msg}"),
            Failure::TooManyEvents(n) => write!(f, "event budget exhausted ({n} events)"),
            Failure::Infra(msg) => write!(f, "infrastructure failure: {msg}"),
        }
    }
}

/// The outcome of a single controlled execution.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// 0-based index of this execution within its [`crate::Model`].
    pub execution_index: u64,
    /// Canonical spec of the strategy that drove this execution
    /// ([`crate::Strategy::spec`]; `"custom"` for plugin schedulers).
    /// Under a [`crate::StrategyMix`] this is the per-index assignment
    /// `config.strategy_for(execution_index)`. Shared: a model hands
    /// every execution of one strategy the same allocation.
    pub strategy: Arc<str>,
    /// Data races detected during this execution (deduplicated within
    /// the execution).
    pub races: Vec<RaceReport>,
    /// Fatal condition, if the execution aborted.
    pub failure: Option<Failure>,
    /// Operation counts (Table 3 bookkeeping).
    pub stats: ExecStats,
    /// Races detected but elided because they involve volatile cells.
    pub elided_volatile_races: u64,
    /// Behavior-coverage signature of this execution (disarmed —
    /// `collected == false` — unless coverage collection was enabled).
    /// Diagnostic only, like the alloc/phase blocks of `stats`.
    pub coverage: ExecCoverage,
}

impl ExecutionReport {
    /// Did this execution exhibit a bug (race, assertion violation, or
    /// deadlock)?
    pub fn found_bug(&self) -> bool {
        !self.races.is_empty() || self.failure.is_some()
    }

    /// Did this execution detect at least one data race?
    pub fn found_race(&self) -> bool {
        !self.races.is_empty()
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "execution #{}: {} race(s), {}",
            self.execution_index,
            self.races.len(),
            match &self.failure {
                None => "completed".to_string(),
                Some(x) => x.to_string(),
            }
        )?;
        for r in &self.races {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

/// Aggregate outcome of repeated executions
/// ([`crate::Model::run_many`] / [`crate::Model::check`], and the
/// serial reference that `c11tester-campaign` reproduces in parallel).
///
/// Aggregation is **order-independent**: absorbing the per-execution
/// reports of any partition of an execution stream (in any order, via
/// [`TestReport::merge`]) yields an identical report, because the race
/// dedup history keys on [`RaceKey`] with lowest-execution-index
/// exemplars, failures are kept sorted by execution index, and every
/// counter is a sum. This is what lets a campaign fan executions over
/// any number of workers and still aggregate byte-identically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TestReport {
    /// Number of executions performed.
    pub executions: u64,
    /// Executions in which at least one data race was detected.
    pub executions_with_race: u64,
    /// Executions in which any bug (race, assertion, deadlock) showed.
    pub executions_with_bug: u64,
    /// Mergeable dedup history of race reports across all executions
    /// (each reported once, as the paper's fork-snapshot dedup does).
    pub races: DedupHistory,
    /// Per-strategy detection accounting: one bucket per strategy spec
    /// that drove at least one execution. Bucket counters always sum
    /// to the aggregate counters above, and the union of the buckets'
    /// dedup histories equals [`TestReport::races`].
    pub per_strategy: StrategyLedger,
    /// Fatal conditions with the execution index they occurred in,
    /// sorted by execution index.
    pub failures: Vec<(u64, Failure)>,
    /// Operation counts accumulated over all executions.
    pub total_stats: ExecStats,
    /// Volatile-race elisions accumulated over all executions.
    pub elided_volatile_races: u64,
    /// Behavior-coverage map over the collecting executions (empty —
    /// and equality-neutral — unless coverage collection was enabled).
    /// Accumulation follows the same partition-invariant discipline as
    /// [`TestReport::races`], so the map is byte-stable across worker
    /// counts and isolation modes.
    pub coverage: CoverageMap,
}

impl TestReport {
    /// Distinct race reports in deterministic (key) order.
    pub fn distinct_races(&self) -> Vec<&RaceReport> {
        self.races.reports()
    }

    /// Number of distinct race classes observed.
    pub fn distinct_race_count(&self) -> usize {
        self.races.len()
    }

    /// Fraction of executions that detected a race (Table 2's "rate").
    pub fn race_detection_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.executions_with_race as f64 / self.executions as f64
        }
    }

    /// Fraction of executions that found any bug (§8.1's rates).
    pub fn bug_detection_rate(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.executions_with_bug as f64 / self.executions as f64
        }
    }

    /// Lowest execution index that exhibited any bug (race, assertion
    /// violation, or deadlock), if one did — the "executions to first
    /// bug" metric adaptive campaigns compare strategies on. Derived
    /// from the dedup history's lowest-index exemplars and the sorted
    /// failure list, so it is order-independent like every other
    /// aggregate field.
    pub fn first_bug_execution(&self) -> Option<u64> {
        let race = self.races.iter().map(|(_, e)| e.first_execution).min();
        let failure = self.failures.first().map(|(ix, _)| *ix);
        match (race, failure) {
            (Some(r), Some(f)) => Some(r.min(f)),
            (r, f) => r.or(f),
        }
    }

    /// Folds one execution's report into the aggregate.
    pub fn absorb(&mut self, report: &ExecutionReport) {
        self.executions += 1;
        if report.found_race() {
            self.executions_with_race += 1;
        }
        if report.found_bug() {
            self.executions_with_bug += 1;
        }
        for race in &report.races {
            self.races.record(report.execution_index, race);
        }
        self.per_strategy.record(
            &report.strategy,
            report.execution_index,
            &report.races,
            report.found_bug(),
        );
        if let Some(f) = &report.failure {
            let at = self
                .failures
                .partition_point(|(ix, _)| *ix <= report.execution_index);
            self.failures
                .insert(at, (report.execution_index, f.clone()));
        }
        self.total_stats.absorb(&report.stats);
        self.elided_volatile_races += report.elided_volatile_races;
        self.coverage
            .record(report.execution_index, &report.coverage, &report.races);
    }

    /// Folds another aggregate into this one. Commutative and
    /// associative over disjoint execution sets: campaigns use this to
    /// combine per-worker aggregates into a report identical to the
    /// serial one.
    pub fn merge(&mut self, other: &TestReport) {
        self.executions += other.executions;
        self.executions_with_race += other.executions_with_race;
        self.executions_with_bug += other.executions_with_bug;
        self.races.merge(&other.races);
        self.per_strategy.merge(&other.per_strategy);
        // Merge two index-sorted failure lists, preserving the
        // invariant: own entries move, only `other`'s are cloned.
        let mine = std::mem::take(&mut self.failures);
        self.failures.reserve(mine.len() + other.failures.len());
        let mut theirs = other.failures.iter().peekable();
        for failure in mine {
            while let Some(earlier) = theirs.next_if(|t| t.0 < failure.0) {
                self.failures.push(earlier.clone());
            }
            self.failures.push(failure);
        }
        self.failures.extend(theirs.cloned());
        self.total_stats.absorb(&other.total_stats);
        self.elided_volatile_races += other.elided_volatile_races;
        self.coverage.merge(&other.coverage);
    }
}

impl fmt::Display for TestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} executions: {} with races ({:.1}%), {} with bugs ({:.1}%), {} distinct race(s)",
            self.executions,
            self.executions_with_race,
            100.0 * self.race_detection_rate(),
            self.executions_with_bug,
            100.0 * self.bug_detection_rate(),
            self.races.len()
        )?;
        for (_, entry) in self.races.iter() {
            writeln!(
                f,
                "  {} [seen in {} execution(s), first #{}]",
                entry.report, entry.occurrences, entry.first_execution
            )?;
        }
        for (ix, fail) in &self.failures {
            writeln!(f, "  execution #{ix}: {fail}")?;
        }
        // Per-strategy columns are only interesting once strategies mix.
        if self.per_strategy.len() > 1 {
            for (name, b) in self.per_strategy.iter() {
                writeln!(
                    f,
                    "  strategy {name}: {} execution(s), {} with races ({:.1}%), {} with bugs ({:.1}%), {} distinct race(s)",
                    b.executions,
                    b.executions_with_race,
                    100.0 * b.race_detection_rate(),
                    b.executions_with_bug,
                    100.0 * b.bug_detection_rate(),
                    b.races.len(),
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_exec(ix: u64) -> ExecutionReport {
        ExecutionReport {
            execution_index: ix,
            strategy: "random".into(),
            races: Vec::new(),
            failure: None,
            stats: ExecStats::default(),
            elided_volatile_races: 0,
            coverage: ExecCoverage::default(),
        }
    }

    #[test]
    fn per_strategy_buckets_sum_to_aggregate() {
        let mut t = TestReport::default();
        for ix in 0..6u64 {
            let mut r = empty_exec(ix);
            if ix % 2 == 1 {
                r.strategy = "pct2".into();
            }
            if ix == 3 {
                r.failure = Some(Failure::Deadlock);
            }
            t.absorb(&r);
        }
        assert_eq!(t.per_strategy.len(), 2);
        assert_eq!(t.per_strategy.total_executions(), t.executions);
        let bug_sum: u64 = t
            .per_strategy
            .iter()
            .map(|(_, b)| b.executions_with_bug)
            .sum();
        assert_eq!(bug_sum, t.executions_with_bug);
        assert_eq!(t.per_strategy.get("pct2").expect("bucket").executions, 3);
        // Mixed buckets show up in the Display rendering.
        assert!(t.to_string().contains("strategy pct2"));
    }

    #[test]
    fn rates_compute_over_absorbed_runs() {
        let mut t = TestReport::default();
        t.absorb(&empty_exec(0));
        let mut with_failure = empty_exec(1);
        with_failure.failure = Some(Failure::Deadlock);
        t.absorb(&with_failure);
        assert_eq!(t.executions, 2);
        assert_eq!(t.executions_with_bug, 1);
        assert_eq!(t.executions_with_race, 0);
        assert!((t.bug_detection_rate() - 0.5).abs() < 1e-9);
        assert_eq!(t.race_detection_rate(), 0.0);
        assert_eq!(t.failures.len(), 1);
    }

    #[test]
    fn merge_matches_serial_absorption() {
        use c11tester_core::{ObjId, ThreadId};
        let race = |label: &str| RaceReport {
            label: label.into(),
            obj: ObjId(1),
            offset: 0,
            kind: RaceKind::WriteAfterWrite,
            current_tid: ThreadId::from_index(1),
            current_kind: AccessKind::NonAtomic,
            prior_tid: ThreadId::from_index(0),
            prior_atomic: false,
        };
        let mut reports: Vec<ExecutionReport> = (0..6).map(empty_exec).collect();
        reports[1].races.push(race("x"));
        reports[4].races.push(race("x"));
        reports[4].races.push(race("y"));
        reports[2].failure = Some(Failure::Deadlock);
        reports[5].failure = Some(Failure::Panic("boom".into()));

        // Serial reference: absorb everything in index order.
        let mut serial = TestReport::default();
        for r in &reports {
            serial.absorb(r);
        }
        // Two workers striped over even/odd indices, merged odd-first.
        let mut even = TestReport::default();
        let mut odd = TestReport::default();
        for r in &reports {
            if r.execution_index % 2 == 0 {
                even.absorb(r);
            } else {
                odd.absorb(r);
            }
        }
        let mut merged = TestReport::default();
        merged.merge(&odd);
        merged.merge(&even);
        assert_eq!(merged, serial);
        assert_eq!(merged.failures.len(), 2);
        assert_eq!(merged.failures[0].0, 2, "failures sorted by index");
        assert_eq!(
            merged.distinct_races().len(),
            2,
            "x deduped across executions"
        );
    }

    #[test]
    fn first_bug_execution_is_the_minimum_over_races_and_failures() {
        use c11tester_core::{ObjId, ThreadId};
        let race = RaceReport {
            label: "x".into(),
            obj: ObjId(1),
            offset: 0,
            kind: RaceKind::WriteAfterWrite,
            current_tid: ThreadId::from_index(1),
            current_kind: AccessKind::NonAtomic,
            prior_tid: ThreadId::from_index(0),
            prior_atomic: false,
        };
        let mut t = TestReport::default();
        assert_eq!(t.first_bug_execution(), None);
        let mut deadlocked = empty_exec(7);
        deadlocked.failure = Some(Failure::Deadlock);
        t.absorb(&deadlocked);
        assert_eq!(t.first_bug_execution(), Some(7));
        let mut racy = empty_exec(4);
        racy.races.push(race);
        t.absorb(&racy);
        assert_eq!(t.first_bug_execution(), Some(4));
    }

    #[test]
    fn display_mentions_failures() {
        let mut r = empty_exec(3);
        r.failure = Some(Failure::Panic("boom".into()));
        assert!(r.to_string().contains("assertion violation: boom"));
        assert!(r.found_bug());
        assert!(!r.found_race());
    }
}
