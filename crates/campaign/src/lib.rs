//! # c11tester-campaign
//!
//! Parallel exploration campaigns for **c11tester-rs**.
//!
//! C11Tester's methodology is statistical (paper §7.6, Tables 1–2):
//! re-run a program under randomized controlled scheduling thousands of
//! times and report the fraction of executions that exhibit each race.
//! The [`c11tester::Model`] drives executions strictly serially on one
//! OS thread; a [`Campaign`] fans the same logical execution stream
//! out over `N` worker threads:
//!
//! * workers claim execution indices from one shared queue
//!   ([`pool`]) and run each on their own [`Model`] with
//!   [`Model::run_at`] — the built-in strategies derive their random
//!   stream from `(seed, index)` alone, so **any single execution is
//!   reproducible by `(seed, execution_index)` regardless of worker
//!   count** or of which worker ran it;
//! * aggregation is **worker-local**: each worker folds its executions
//!   into its own [`TestReport`] (race dedup histories, summed
//!   [`c11tester_core::ExecStats`], detection counts) and hands back
//!   one partial when its loop ends; the caller, which runs worker 0
//!   itself, folds the others into its own with the order-independent
//!   [`TestReport::merge`] — no per-execution cross-thread message;
//! * the resulting [`CampaignReport`] is **byte-identical for any
//!   worker count** (over a fixed budget), and equal to the serial
//!   [`Model::run_many`] aggregate — parallelism is a pure speedup,
//!   never a semantic change.
//!
//! Budgets ([`CampaignBudget`]) bound a campaign by execution count,
//! wall-clock deadline, or first bug found.
//!
//! Campaigns can **mix strategies** (paper §3's pluggable framework,
//! Tables 1–2's strategy-dependent detection rates): configure a
//! [`c11tester::StrategyMix`] (e.g. `random:2,pct2:1,pct3:1`) via
//! [`Config::with_mix`] and each execution index is deterministically
//! assigned a strategy from `(seed, index)` alone — replay-by-index
//! and byte-identical aggregation across worker counts are preserved,
//! and the report gains per-strategy detection columns
//! ([`CampaignReport::per_strategy`]).
//!
//! Campaigns can also run **fork-isolated**: the [`Executor`]
//! abstraction separates what to explore from where executions run.
//! The fork server in the `c11tester-isolation` crate claims batches
//! from the same queue and runs them in child processes so
//! a segfaulting program under test becomes a [`CrashRecord`] in
//! [`CampaignReport::crashes`] instead of killing the campaign
//! (canonical JSON schema `c11campaign/v4`; see `docs/SCHEMA.md`).
//!
//! An adaptive run (the `c11tester-adaptive` crate) is a campaign
//! report too: its [`EpochTrace`] is the [`CampaignReport`] built here
//! plus its epochs, and the [`json`] writers serve both.
//!
//! ```
//! use c11tester_campaign::{Campaign, CampaignBudget};
//! use c11tester::{Config, Model};
//!
//! let config = Config::new().with_seed(7);
//! let campaign = Campaign::new(config.clone()).with_workers(4);
//! let report = campaign.run(&CampaignBudget::executions(40), || {
//!     c11tester_workloads::ds::rwlock_buggy::run_buggy();
//! });
//! assert_eq!(report.aggregate.executions, 40);
//!
//! // The parallel aggregate equals the serial reference:
//! let serial = Model::new(config).run_many(40, || {
//!     c11tester_workloads::ds::rwlock_buggy::run_buggy();
//! });
//! assert_eq!(report.aggregate, serial);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod cli;
mod epoch;
mod exec;
pub mod forensics;
pub mod json;
pub mod pool;
pub mod targets;
pub mod wire;

pub use epoch::{EpochRecord, EpochTrace};
pub use exec::{CrashKind, CrashRecord, Executor, RangeOutcome};
pub use forensics::{CaptureSink, ForensicsSummary, Witness};

use c11tester::{Config, Model, TestReport};
use c11tester_telemetry::CampaignMetrics;
use std::time::Duration;

/// Resource bounds for one campaign.
///
/// A campaign always stops once `max_executions` executions completed;
/// a deadline or stop-on-first-bug bound can end it earlier. Only the
/// fixed-budget mode (no early stop triggered) promises worker-count
/// independent aggregates — an early stop cuts the execution stream at
/// a racy point by construction.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignBudget {
    /// Maximum number of executions (execution indices `0..max`).
    pub max_executions: u64,
    /// Optional wall-clock deadline for the whole campaign.
    pub deadline: Option<Duration>,
    /// Stop all workers as soon as any execution exhibits a bug.
    pub stop_on_first_bug: bool,
}

impl CampaignBudget {
    /// A budget of exactly `max_executions` executions.
    pub fn executions(max_executions: u64) -> Self {
        CampaignBudget {
            max_executions,
            deadline: None,
            stop_on_first_bug: false,
        }
    }

    /// Adds a wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Stops the campaign at the first bug (race, assertion violation,
    /// or deadlock).
    pub fn with_stop_on_first_bug(mut self, stop: bool) -> Self {
        self.stop_on_first_bug = stop;
        self
    }
}

/// Why a campaign ended.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Every execution index in the budget was explored.
    BudgetExhausted,
    /// `stop_on_first_bug` was set and a bug was found.
    FirstBug,
    /// The wall-clock deadline expired.
    Deadline,
}

impl StopReason {
    /// Every stop reason.
    pub const ALL: [StopReason; 3] = [
        StopReason::BudgetExhausted,
        StopReason::FirstBug,
        StopReason::Deadline,
    ];

    /// Stable machine-readable name (used in JSON output).
    pub fn name(self) -> &'static str {
        match self {
            StopReason::BudgetExhausted => "budget-exhausted",
            StopReason::FirstBug => "first-bug",
            StopReason::Deadline => "deadline",
        }
    }

    /// The inverse of [`StopReason::name`].
    pub fn parse(name: &str) -> Result<StopReason, String> {
        StopReason::ALL
            .into_iter()
            .find(|r| r.name() == name)
            .ok_or_else(|| format!("unknown stop reason `{name}`"))
    }
}

/// The aggregated outcome of a campaign.
///
/// `aggregate` carries the memory-model-level result (identical to the
/// serial [`Model::run_many`] report over the same budget);
/// the remaining fields describe the campaign run itself. Timing and
/// worker count are excluded from [`CampaignReport::canonical_json`] so
/// the canonical form is byte-identical across worker counts.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Base seed every execution index derives its stream from.
    pub base_seed: u64,
    /// Memory-model policy name (`C11Tester`, `tsan11`, `tsan11rec`).
    pub policy: &'static str,
    /// Canonical strategy label ([`Config::strategy_label`]): the mix
    /// spec (e.g. `random:2,pct2:1,pct3:1`) when the campaign mixes
    /// strategies, the single strategy's spec otherwise.
    pub strategy: String,
    /// The budget the campaign ran under.
    pub budget: CampaignBudget,
    /// Why the campaign stopped.
    pub stop_reason: StopReason,
    /// Order-independent aggregate over all completed executions.
    pub aggregate: TestReport,
    /// Executions that killed their worker process instead of
    /// completing, sorted by index. Always empty for in-process
    /// campaigns; populated by fork-isolated runs
    /// ([`Campaign::run_target`] with a fork-server [`Executor`]).
    pub crashes: Vec<CrashRecord>,
    /// Number of worker threads used (not part of the canonical form).
    pub workers: usize,
    /// Wall-clock duration (not part of the canonical form).
    pub wall_time: Duration,
    /// Diagnostic campaign telemetry (per-worker utilization, phase
    /// timings, fork-server health). Like `workers` and `wall_time`,
    /// **never** part of the canonical form — see `docs/METRICS.md`.
    pub metrics: CampaignMetrics,
}

impl CampaignReport {
    /// Fraction of executions that detected a race (Table 2's "rate").
    pub fn race_detection_rate(&self) -> f64 {
        self.aggregate.race_detection_rate()
    }

    /// Fraction of executions that found any bug (§8.1's rates).
    pub fn bug_detection_rate(&self) -> f64 {
        self.aggregate.bug_detection_rate()
    }

    /// Executions per wall-clock second.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.aggregate.executions as f64 / secs
        } else {
            0.0
        }
    }

    /// Did any execution exhibit a bug?
    pub fn found_bug(&self) -> bool {
        self.aggregate.executions_with_bug > 0
    }

    /// Per-strategy detection columns: one bucket per strategy that
    /// drove at least one execution (a single bucket for unmixed
    /// campaigns). Bucket counters sum to the aggregate's.
    pub fn per_strategy(&self) -> &c11tester::StrategyLedger {
        &self.aggregate.per_strategy
    }

    /// The canonical (worker-count independent) JSON form: everything
    /// determined by `(config, budget)` alone. Two campaigns over the
    /// same configuration and fixed budget produce byte-identical
    /// canonical JSON for **any** worker counts.
    pub fn canonical_json(&self) -> String {
        json::canonical(self, None, false)
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "campaign: {} executions on {} worker(s) in {:.2?} ({:.0} exec/s), seed {:#x}, strategy {}, {}",
            self.aggregate.executions,
            self.workers,
            self.wall_time,
            self.throughput(),
            self.base_seed,
            self.strategy,
            self.stop_reason.name(),
        )?;
        if !self.crashes.is_empty() {
            writeln!(
                f,
                "crashes: {} execution(s) killed their worker",
                self.crashes.len()
            )?;
            for c in &self.crashes {
                writeln!(f, "  {c}")?;
            }
        }
        write!(f, "{}", self.aggregate)
    }
}

/// A parallel exploration campaign over one configuration.
///
/// See the [crate docs](crate) for the determinism contract.
#[derive(Clone, Debug)]
pub struct Campaign {
    config: Config,
    workers: usize,
}

impl Campaign {
    /// Creates a campaign over `config`, defaulting to one worker per
    /// available CPU.
    pub fn new(config: Config) -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Campaign { config, workers }
    }

    /// Sets the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "a campaign needs at least one worker");
        self.workers = workers;
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The campaign's model configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Runs the campaign: fans executions of `program` out over the
    /// workers until the budget is exhausted (or an early-stop bound
    /// triggers) and merges the workers' aggregates.
    pub fn run<F>(&self, budget: &CampaignBudget, program: F) -> CampaignReport
    where
        F: Fn() + Send + Sync,
    {
        let outcome = self.run_range(0, budget, program);
        let workers = outcome.metrics.workers.len();
        self.report(budget, outcome, workers)
    }

    /// Runs the campaign over the global execution-index range
    /// `first_index .. first_index + budget.max_executions` — the
    /// epoch-granular entry point, the in-process counterpart of
    /// [`Executor::run_range`]. Epoch `e` of an adaptive campaign with
    /// epoch length `L` runs `run_range(e·L, …)` so every epoch keeps
    /// walking the *same* global index stream: an execution is still
    /// reproducible by `(config, global index)` alone, and a
    /// fixed-budget range aggregates byte-identically for any worker
    /// count, exactly like [`Campaign::run`].
    ///
    /// Workers claim one index at a time ([`pool::run_pool`]) and keep
    /// one [`Model`] each for the whole range; `N` workers are the
    /// calling thread plus `N − 1` scoped threads, never more than
    /// there are executions. A panic on any of them is re-raised here.
    pub fn run_range<F>(
        &self,
        first_index: u64,
        budget: &CampaignBudget,
        program: F,
    ) -> RangeOutcome
    where
        F: Fn() + Send + Sync,
    {
        let handover = self.config.handover.effective().name();
        pool::run_pool(self.workers, first_index, budget, 1, handover, |pool| {
            let mut share = pool::Share::default();
            let mut model = Model::new(self.config.clone());
            let Ok(_) = pool::fold_claims(pool, &mut model, &program, &mut share.fold, || {
                Ok::<(), std::convert::Infallible>(())
            });
            Ok(share)
        })
        .expect("in-process workers are infallible")
    }

    /// The report of a range this campaign ran from index 0 on
    /// `workers` workers — the one [`CampaignReport`] constructor, for
    /// plain and adaptive runs alike (an adaptive run folds its epochs
    /// into one outcome first).
    pub fn report(
        &self,
        budget: &CampaignBudget,
        outcome: RangeOutcome,
        workers: usize,
    ) -> CampaignReport {
        CampaignReport {
            base_seed: self.config.seed,
            policy: self.config.policy.name(),
            strategy: self.config.strategy_label(),
            budget: budget.clone(),
            stop_reason: outcome.stop_reason,
            aggregate: outcome.aggregate,
            crashes: outcome.crashes,
            workers,
            wall_time: Duration::from_nanos(outcome.metrics.wall_nanos),
            metrics: outcome.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn racy_program() {
        c11tester_workloads::ds::rwlock_buggy::run_buggy();
    }

    #[test]
    fn campaign_covers_exactly_the_budget() {
        let report = Campaign::new(Config::new().with_seed(3))
            .with_workers(3)
            .run(&CampaignBudget::executions(10), || {});
        assert_eq!(report.aggregate.executions, 10);
        assert_eq!(report.stop_reason, StopReason::BudgetExhausted);
        assert_eq!(report.workers, 3);
        assert!(!report.found_bug());
    }

    #[test]
    fn workers_never_exceed_executions() {
        let report = Campaign::new(Config::new())
            .with_workers(8)
            .run(&CampaignBudget::executions(2), || {});
        assert_eq!(report.workers, 2);
        assert_eq!(report.aggregate.executions, 2);
    }

    #[test]
    fn run_range_partitions_the_global_stream() {
        // Epoch-granular runs over [0,20) + [20,60) must merge to the
        // single campaign over [0,60): same config, same global
        // indices, order-independent aggregation.
        let config = Config::new().with_seed(0xE9);
        let campaign = Campaign::new(config.clone()).with_workers(3);
        let whole = campaign.run(&CampaignBudget::executions(60), racy_program);
        let mut merged = TestReport::default();
        merged.merge(
            &campaign
                .run_range(0, &CampaignBudget::executions(20), racy_program)
                .aggregate,
        );
        merged.merge(
            &campaign
                .run_range(20, &CampaignBudget::executions(40), racy_program)
                .aggregate,
        );
        assert_eq!(merged, whole.aggregate);
    }

    #[test]
    fn campaign_equals_serial_run_many() {
        let config = Config::new().with_seed(0xA5);
        let parallel = Campaign::new(config.clone())
            .with_workers(4)
            .run(&CampaignBudget::executions(60), racy_program);
        let serial = Model::new(config).run_many(60, racy_program);
        assert_eq!(parallel.aggregate, serial);
        assert!(parallel.aggregate.executions_with_race > 0);
    }

    #[test]
    fn deadline_stops_early() {
        let budget = CampaignBudget::executions(u64::MAX).with_deadline(Duration::from_millis(50));
        let report = Campaign::new(Config::new())
            .with_workers(2)
            .run(&budget, racy_program);
        assert_eq!(report.stop_reason, StopReason::Deadline);
        assert!(report.aggregate.executions < u64::MAX);
    }

    #[test]
    fn zero_execution_budget_is_a_noop() {
        let report = Campaign::new(Config::new())
            .with_workers(4)
            .run(&CampaignBudget::executions(0), racy_program);
        assert_eq!(report.aggregate.executions, 0);
        assert_eq!(report.stop_reason, StopReason::BudgetExhausted);
    }
}
