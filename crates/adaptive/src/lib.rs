//! # c11tester-adaptive
//!
//! Adaptive, epoch-driven exploration campaigns: a deterministic
//! bandit controller that **reweights the strategy mix from live
//! detection columns**.
//!
//! C11Tester's detection power is statistical (paper §7.6, Tables
//! 1–2), and *which* scheduling strategy drives each execution changes
//! what gets found — PCT depth-2 reaches lost-update bugs pure random
//! sampling misses, while random scheduling covers broad interleaving
//! mass cheaply. A fixed [`StrategyMix`] spends the execution budget
//! open-loop; an [`AdaptiveCampaign`] closes the loop:
//!
//! 1. the budget is split into fixed-size **epochs**;
//! 2. each epoch runs as an ordinary campaign over a
//!    contiguous range of the global execution-index stream
//!    ([`Campaign::run_range`]) under the current mix;
//! 3. the epoch's merged per-strategy detection columns
//!    ([`c11tester_race::StrategyLedger`]) feed a pluggable
//!    [`Reweighter`] — [`Ucb1`], [`ExpWeights`] (EXP3-style), or the
//!    [`Fixed`] no-op control — which emits the next epoch's mix as a
//!    **pure function of (seed, completed-epoch aggregates)**.
//!
//! Because fixed-budget epoch aggregates are byte-identical across
//! worker counts (the campaign determinism contract) and reweighting
//! is pure, the full adaptive run — including its
//! [`EpochTrace`] canonical JSON (`c11campaign/v4`) — is
//! **byte-identical for any worker count**, and every execution
//! remains replayable by `(seed, epoch, index)`:
//! [`AdaptiveCampaign::replay`] reconstructs the epoch's mix from the
//! trace and re-runs the global index serially.
//!
//! ```
//! use c11tester::{Config, StrategyMix};
//! use c11tester_adaptive::AdaptiveCampaign;
//! use c11tester_campaign::CampaignBudget;
//!
//! let config = Config::new()
//!     .with_seed(7)
//!     .with_mix(StrategyMix::parse("random:1,pct2:1").unwrap());
//! let report = AdaptiveCampaign::new(config)
//!     .with_workers(2)
//!     .with_epoch_len(12)
//!     .with_policy("ucb1")
//!     .unwrap()
//!     .run(&CampaignBudget::executions(36), || {
//!         c11tester_workloads::ds::rwlock_buggy::run_buggy();
//!     });
//! assert_eq!(report.trace.epochs(), 3);
//! assert_eq!(report.aggregate().executions, 36);
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod reweight;

pub use reweight::{parse_policy, CoverageUcb, ExpWeights, Fixed, ReweightCtx, Reweighter, Ucb1};

use c11tester::{Config, CoverageMap, ExecutionReport, Model, StrategyMix, TestReport};
use c11tester_campaign::targets::Target;
use c11tester_campaign::{
    Campaign, CampaignBudget, EpochRecord, EpochTrace, Executor, RangeOutcome, StopReason,
};
use c11tester_telemetry::{CampaignMetrics, EpochMetric};
use std::time::{Duration, Instant};

/// Default epoch length (executions per epoch) when none is set.
pub const DEFAULT_EPOCH_LEN: u64 = 64;

/// An adaptive campaign: epochs of parallel execution under a mix the
/// controller reweights between epochs.
///
/// See the [crate docs](crate) for the determinism contract.
#[derive(Debug)]
pub struct AdaptiveCampaign {
    config: Config,
    initial_mix: StrategyMix,
    workers: usize,
    epoch_len: u64,
    policy: Box<dyn Reweighter>,
}

impl AdaptiveCampaign {
    /// Creates an adaptive campaign over `config`, defaulting to one
    /// worker per CPU, [`DEFAULT_EPOCH_LEN`]-execution epochs, and the
    /// [`Fixed`] (no-op) policy. The arms are the entries of
    /// `config.mix`; a config without a mix gets the single-arm mix of
    /// its fixed strategy (reweighting is then a no-op by
    /// construction).
    pub fn new(mut config: Config) -> Self {
        let initial_mix = match &config.mix {
            Some(mix) => mix.clone(),
            None => StrategyMix::single(config.strategy),
        };
        config = config.with_mix(initial_mix.clone());
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        AdaptiveCampaign {
            config,
            initial_mix,
            workers,
            epoch_len: DEFAULT_EPOCH_LEN,
            policy: Box::new(Fixed),
        }
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

    /// Sets the epoch length (executions per epoch).
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len == 0`.
    pub fn with_epoch_len(mut self, epoch_len: u64) -> Self {
        assert!(epoch_len > 0, "epochs need at least one execution");
        self.epoch_len = epoch_len;
        self
    }

    /// Sets the reweighting policy by spec (`fixed`, `ucb1[@c]`,
    /// `exp3[@eta]`).
    pub fn with_policy(mut self, spec: &str) -> Result<Self, String> {
        self.policy = parse_policy(spec)?;
        Ok(self)
    }

    /// Installs a custom reweighter (the pluggable-controller entry
    /// point). The reweighter must be a pure function of its
    /// [`ReweightCtx`] for the determinism contract to hold.
    pub fn with_reweighter(mut self, policy: Box<dyn Reweighter>) -> Self {
        self.policy = policy;
        self
    }

    /// The base configuration (mix = the initial mix).
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The configured epoch length.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// Runs the adaptive campaign: epochs of `epoch_len` executions
    /// until `budget.max_executions` is reached (the final epoch may
    /// be shorter), a deadline expires, or — with
    /// `budget.stop_on_first_bug` — a bug is found. Only the pure
    /// fixed-budget mode promises worker-count-independent traces
    /// (early stops cut the stream at a racy point, exactly as for
    /// [`Campaign::run`]).
    pub fn run<F>(&self, budget: &CampaignBudget, program: F) -> AdaptiveReport
    where
        F: Fn() + Send + Sync,
    {
        self.run_epochs(budget, |config, first_index, epoch_budget| {
            Ok(Campaign::new(config.clone())
                .with_workers(self.workers)
                .run_range(first_index, epoch_budget, &program))
        })
        .expect("in-process epochs are infallible")
    }

    /// Runs the adaptive campaign on a *named* target through an
    /// [`Executor`] — the process-isolation entry point, mirroring
    /// [`c11tester_campaign::Campaign::run_target`]. Epochs behave
    /// exactly as in [`AdaptiveCampaign::run`]; under a fork server,
    /// crashing executions land in their epoch's
    /// [`EpochRecord::crashes`] and the reweighter's reward signal
    /// counts each crash as a found bug for the strategy that drove
    /// the crashing index (a segfault is the strongest detection
    /// signal a strategy can produce).
    pub fn run_target(
        &self,
        executor: &dyn Executor,
        target: &Target,
        budget: &CampaignBudget,
    ) -> Result<AdaptiveReport, String> {
        self.run_epochs(budget, |config, first_index, epoch_budget| {
            executor.run_range(config, self.workers, target, first_index, epoch_budget)
        })
    }

    /// The shared epoch loop: `run_range` produces each epoch's
    /// [`RangeOutcome`] for a contiguous global index range; reweighting
    /// between epochs is a pure function of the completed-epoch records
    /// plus the crash-aware reward ledger.
    fn run_epochs<R>(
        &self,
        budget: &CampaignBudget,
        mut run_range: R,
    ) -> Result<AdaptiveReport, String>
    where
        R: FnMut(&Config, u64, &CampaignBudget) -> Result<RangeOutcome, String>,
    {
        let start = Instant::now();
        let mut mix = self.initial_mix.clone();
        let mut records: Vec<EpochRecord> = Vec::new();
        let mut aggregate = TestReport::default();
        let mut metrics = CampaignMetrics::default();
        // The reward signal: the merged per-strategy ledger, with every
        // crash booked as a bugged execution for its strategy. Kept
        // separate from `aggregate.per_strategy` so report invariants
        // (bucket counters sum to completed executions) still hold.
        let mut reward_ledger = c11tester::StrategyLedger::new();
        // Coverage bookkeeping for reweighters that reward discovery:
        // the cumulative behavior map plus, per epoch, how many new
        // behaviors each strategy spec was first to exhibit. Both stay
        // empty (and cost nothing) without coverage collection.
        let mut coverage_cumulative = CoverageMap::new();
        let mut coverage_deltas: Vec<std::collections::BTreeMap<String, u64>> = Vec::new();
        let mut stop_reason = StopReason::BudgetExhausted;
        let mut next_index = 0u64;
        let mut epoch = 0u64;
        while next_index < budget.max_executions {
            let len = self.epoch_len.min(budget.max_executions - next_index);
            let mut epoch_budget =
                CampaignBudget::executions(len).with_stop_on_first_bug(budget.stop_on_first_bug);
            if let Some(deadline) = budget.deadline {
                let elapsed = start.elapsed();
                if elapsed >= deadline {
                    stop_reason = StopReason::Deadline;
                    break;
                }
                epoch_budget = epoch_budget.with_deadline(deadline - elapsed);
            }
            let config = self.config.clone().with_mix(mix.clone());
            let epoch_started = Instant::now();
            let RangeOutcome {
                aggregate: epoch_aggregate,
                crashes,
                stop_reason: epoch_stop,
                metrics: epoch_metrics,
            } = run_range(&config, next_index, &epoch_budget)?;
            metrics.absorb(&epoch_metrics);
            metrics.epochs.push(EpochMetric {
                epoch,
                start_index: next_index,
                executions: epoch_aggregate.executions,
                wall_nanos: epoch_started.elapsed().as_nanos() as u64,
                mix: mix.spec(),
            });
            aggregate.merge(&epoch_aggregate);
            reward_ledger.merge(&epoch_aggregate.per_strategy);
            for crash in &crashes {
                reward_ledger.record(&crash.strategy, crash.index, &[], true);
            }
            // Attribute each behavior this epoch was first to exhibit
            // to the strategy that drove its first execution (a pure
            // function of (epoch mix, global index), so the delta is
            // worker-count independent like everything else here).
            let mut delta = std::collections::BTreeMap::new();
            epoch_aggregate
                .coverage
                .for_each_new(&coverage_cumulative, |first_execution| {
                    let spec = config.strategy_for(first_execution).spec();
                    *delta.entry(spec).or_insert(0u64) += 1;
                });
            coverage_cumulative.merge(&epoch_aggregate.coverage);
            coverage_deltas.push(delta);
            records.push(EpochRecord {
                epoch,
                start_index: next_index,
                mix: mix.spec(),
                aggregate: epoch_aggregate,
                crashes,
            });
            if epoch_stop != StopReason::BudgetExhausted {
                stop_reason = epoch_stop;
                break;
            }
            next_index += len;
            epoch += 1;
            if next_index >= budget.max_executions {
                break;
            }
            let ctx = ReweightCtx {
                base_seed: self.config.seed,
                next_epoch: epoch,
                initial_mix: &self.initial_mix,
                epochs: &records,
                cumulative: &reward_ledger,
                coverage_deltas: &coverage_deltas,
            };
            mix = self.policy.reweight(&ctx);
        }
        // Sequential epochs: the campaign's wall clock is the loop's,
        // not the maximum over epochs that `absorb` (a parallel merge)
        // keeps.
        metrics.wall_nanos = start.elapsed().as_nanos() as u64;
        metrics.executions = aggregate.executions;
        Ok(AdaptiveReport {
            trace: EpochTrace {
                base_seed: self.config.seed,
                policy: self.config.policy.name(),
                adaptive_policy: self.policy.spec(),
                epoch_len: self.epoch_len,
                initial_mix: self.initial_mix.spec(),
                budget: budget.clone(),
                stop_reason,
                records,
                aggregate,
            },
            workers: self.workers,
            wall_time: start.elapsed(),
            metrics,
        })
    }

    /// Replays execution `offset` of epoch `epoch` from a trace this
    /// campaign (same config) produced: rebuilds the epoch's mix from
    /// the trace and serially re-runs the **global** index
    /// `start_index + offset`. Returns `None` if the trace has no such
    /// epoch or the offset is outside the epoch's *nominal* index
    /// range (`epoch_len`, clipped by the overall budget). The nominal
    /// range — not the completed-execution count — is the bound
    /// because an early-stopped epoch (first bug, deadline) completes
    /// part of its range, not necessarily a prefix (workers claim
    /// indices concurrently): the flagged execution's index can exceed
    /// the completed count, and replaying any in-range index is
    /// deterministic regardless of whether the campaign happened to
    /// finish it.
    pub fn replay<F>(
        &self,
        trace: &EpochTrace,
        epoch: u64,
        offset: u64,
        program: F,
    ) -> Option<ExecutionReport>
    where
        F: Fn() + Send + Sync,
    {
        let record = trace.record(epoch)?;
        let nominal = trace.epoch_len.min(
            trace
                .budget
                .max_executions
                .saturating_sub(record.start_index),
        );
        if offset >= nominal {
            return None;
        }
        let mix = StrategyMix::parse(&record.mix).ok()?;
        let config = self.config.clone().with_mix(mix);
        Some(Model::new(config).run_at(record.start_index + offset, program))
    }
}

/// The outcome of an adaptive campaign: the canonical [`EpochTrace`]
/// plus run-local facts (worker count, wall time) excluded from the
/// canonical form.
#[derive(Clone, Debug)]
pub struct AdaptiveReport {
    /// The canonical epoch trace (mix trajectory, per-epoch columns,
    /// overall aggregate).
    pub trace: EpochTrace,
    /// Worker threads used (not part of the canonical form).
    pub workers: usize,
    /// Wall-clock duration (not part of the canonical form).
    pub wall_time: Duration,
    /// Diagnostic campaign telemetry with a per-epoch timeline. Like
    /// `workers` and `wall_time`, never part of the canonical form —
    /// see `docs/METRICS.md`.
    pub metrics: CampaignMetrics,
}

impl AdaptiveReport {
    /// The overall aggregate over all epochs.
    pub fn aggregate(&self) -> &TestReport {
        &self.trace.aggregate
    }

    /// Lowest global execution index that exhibited a bug, if any —
    /// the executions-to-first-bug metric.
    pub fn first_bug_execution(&self) -> Option<u64> {
        self.trace.aggregate.first_bug_execution()
    }

    /// Fraction of executions that detected a race.
    pub fn race_detection_rate(&self) -> f64 {
        self.trace.aggregate.race_detection_rate()
    }

    /// Fraction of executions that found any bug.
    pub fn bug_detection_rate(&self) -> f64 {
        self.trace.aggregate.bug_detection_rate()
    }

    /// The canonical (worker-count independent) `c11campaign/v4` JSON.
    pub fn canonical_json(&self) -> String {
        self.trace.canonical_json()
    }

    /// The canonical trace plus the opt-in `alloc` diagnostics block
    /// (`c11campaign --alloc-stats`); not covered by the byte-identity
    /// contract.
    pub fn canonical_json_with_alloc_stats(&self) -> String {
        self.trace.canonical_json_with_alloc_stats()
    }

    /// The `c11coverage/v1` behavior-coverage object with per-epoch
    /// growth curves (see [`EpochTrace::coverage_json`]).
    pub fn coverage_json(&self) -> String {
        self.trace.coverage_json()
    }

    /// The full JSON form: the canonical trace plus campaign timing.
    pub fn to_json(&self) -> String {
        self.trace.full_json(self.workers, self.wall_time)
    }
}

impl std::fmt::Display for AdaptiveReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "adaptive: {} executions on {} worker(s) in {:.2?}, policy {}, initial mix {}",
            self.trace.aggregate.executions,
            self.workers,
            self.wall_time,
            self.trace.adaptive_policy,
            self.trace.initial_mix,
        )?;
        write!(f, "{}", self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn racy() {
        c11tester_workloads::ds::rwlock_buggy::run_buggy();
    }

    fn mixed_config(seed: u64) -> Config {
        Config::new()
            .with_seed(seed)
            .with_mix(StrategyMix::parse("random:2,pct2:1").expect("valid mix"))
    }

    #[test]
    fn epochs_tile_the_budget_including_a_short_tail() {
        let report = AdaptiveCampaign::new(mixed_config(3))
            .with_workers(2)
            .with_epoch_len(8)
            .run(&CampaignBudget::executions(20), || {});
        assert_eq!(report.trace.epochs(), 3);
        let lens: Vec<u64> = report
            .trace
            .records
            .iter()
            .map(|r| r.executions())
            .collect();
        assert_eq!(lens, [8, 8, 4]);
        let starts: Vec<u64> = report.trace.records.iter().map(|r| r.start_index).collect();
        assert_eq!(starts, [0, 8, 16]);
        assert_eq!(report.aggregate().executions, 20);
        assert_eq!(report.trace.stop_reason, StopReason::BudgetExhausted);
    }

    #[test]
    fn unmixed_config_degenerates_to_a_single_arm() {
        let report = AdaptiveCampaign::new(Config::new().with_seed(5))
            .with_workers(1)
            .with_epoch_len(4)
            .with_policy("ucb1")
            .expect("valid policy")
            .run(&CampaignBudget::executions(8), || {});
        assert_eq!(report.trace.initial_mix, "random:1");
        // Both epochs ran the lone arm.
        assert_eq!(report.trace.mix_trajectory(), ["random:1", "random:1"]);
    }

    #[test]
    fn zero_budget_yields_an_empty_trace() {
        let report =
            AdaptiveCampaign::new(mixed_config(1)).run(&CampaignBudget::executions(0), racy);
        assert_eq!(report.trace.epochs(), 0);
        assert_eq!(report.aggregate().executions, 0);
        assert!(report.canonical_json().contains("\"epochs\":[]"));
    }

    #[test]
    fn stop_on_first_bug_ends_the_epoch_loop() {
        let budget = CampaignBudget::executions(1_000).with_stop_on_first_bug(true);
        let campaign = AdaptiveCampaign::new(mixed_config(9))
            .with_workers(2)
            .with_epoch_len(50);
        let report = campaign.run(&budget, racy);
        assert_eq!(report.trace.stop_reason, StopReason::FirstBug);
        assert!(report.aggregate().executions < 1_000);
        assert!(report.aggregate().executions_with_bug > 0);
        // Even though the early stop completed only part of the epoch,
        // not necessarily a prefix, the flagged execution replays: the
        // replay bound is the epoch's nominal range, not its completed
        // count.
        let first = report.first_bug_execution().expect("bug found");
        let record = report
            .trace
            .records
            .iter()
            .find(|r| first >= r.start_index && first < r.start_index + 50)
            .expect("first bug lies in an epoch's nominal range");
        let replayed = campaign
            .replay(
                &report.trace,
                record.epoch,
                first - record.start_index,
                racy,
            )
            .expect("flagged execution must be replayable after an early stop");
        assert_eq!(replayed.execution_index, first);
        assert!(replayed.found_bug());
    }

    #[test]
    fn replay_rejects_out_of_range_coordinates() {
        let campaign = AdaptiveCampaign::new(mixed_config(7)).with_epoch_len(4);
        let report = campaign.run(&CampaignBudget::executions(8), racy);
        assert!(campaign.replay(&report.trace, 0, 0, racy).is_some());
        assert!(campaign.replay(&report.trace, 0, 4, racy).is_none());
        assert!(campaign.replay(&report.trace, 2, 0, racy).is_none());
    }
}
