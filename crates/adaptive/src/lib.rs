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
//! The run's record is an [`EpochTrace`]: the
//! [`CampaignReport`](c11tester_campaign::CampaignReport) a plain
//! campaign over the same config would build, folded over all epochs,
//! plus the epochs themselves. Because fixed-budget epoch aggregates
//! are byte-identical across worker counts (the campaign determinism
//! contract) and reweighting is pure, the full adaptive run —
//! including its canonical JSON (`c11campaign/v4`) — is
//! **byte-identical for any worker count**, and every execution
//! remains replayable by `(seed, epoch, index)`:
//! [`AdaptiveCampaign::replay`] reconstructs the epoch's mix from the
//! trace ([`EpochTrace::config_at`]) and re-runs the global index
//! serially.
//!
//! ```
//! use c11tester::{Config, StrategyMix};
//! use c11tester_adaptive::AdaptiveCampaign;
//! use c11tester_campaign::{Campaign, CampaignBudget};
//!
//! let config = Config::new()
//!     .with_seed(7)
//!     .with_mix(StrategyMix::parse("random:1,pct2:1").unwrap());
//! let trace = AdaptiveCampaign::new(Campaign::new(config).with_workers(2))
//!     .with_epoch_len(12)
//!     .with_policy("ucb1")
//!     .unwrap()
//!     .run(&CampaignBudget::executions(36), || {
//!         c11tester_workloads::ds::rwlock_buggy::run_buggy();
//!     });
//! assert_eq!(trace.epochs(), 3);
//! assert_eq!(trace.report.aggregate.executions, 36);
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
use std::time::Instant;

/// Default epoch length (executions per epoch) when none is set.
pub const DEFAULT_EPOCH_LEN: u64 = 64;

/// An adaptive campaign: epochs of parallel execution under a mix the
/// controller reweights between epochs.
///
/// See the [crate docs](crate) for the determinism contract.
#[derive(Debug)]
pub struct AdaptiveCampaign {
    /// The config (its mix is the initial mix) and the worker count.
    campaign: Campaign,
    epoch_len: u64,
    policy: Box<dyn Reweighter>,
}

impl AdaptiveCampaign {
    /// Creates an adaptive campaign over `campaign`'s config and worker
    /// count, defaulting to [`DEFAULT_EPOCH_LEN`]-execution epochs and
    /// the [`Fixed`] (no-op) policy. The arms are the entries of the
    /// config's mix; a config without a mix gets the single-arm mix of
    /// its fixed strategy (reweighting is then a no-op by
    /// construction).
    pub fn new(campaign: Campaign) -> Self {
        let config = campaign.config();
        let mix = config
            .mix
            .clone()
            .unwrap_or_else(|| StrategyMix::single(config.strategy));
        AdaptiveCampaign {
            campaign: Campaign::new(config.clone().with_mix(mix)).with_workers(campaign.workers()),
            epoch_len: DEFAULT_EPOCH_LEN,
            policy: Box::new(Fixed),
        }
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

    /// The initial mix, whose entries are the arms.
    fn initial_mix(&self) -> &StrategyMix {
        self.campaign
            .config()
            .mix
            .as_ref()
            .expect("`new` sets the initial mix")
    }

    /// Runs the adaptive campaign: epochs of `epoch_len` executions
    /// until `budget.max_executions` is reached (the final epoch may
    /// be shorter), a deadline expires, or — with
    /// `budget.stop_on_first_bug` — a bug is found. Only the pure
    /// fixed-budget mode promises worker-count-independent traces
    /// (early stops cut the stream at a racy point, exactly as for
    /// [`Campaign::run`]).
    pub fn run<F>(&self, budget: &CampaignBudget, program: F) -> EpochTrace
    where
        F: Fn() + Send + Sync,
    {
        let workers = self.campaign.workers();
        self.run_epochs(budget, |config, first_index, epoch_budget| {
            Ok(Campaign::new(config.clone())
                .with_workers(workers)
                .run_range(first_index, epoch_budget, &program))
        })
        .expect("in-process epochs are infallible")
    }

    /// Runs the adaptive campaign on a *named* target through an
    /// [`Executor`] — the process-isolation entry point, mirroring
    /// [`Campaign::run_target`]. Epochs behave exactly as in
    /// [`AdaptiveCampaign::run`]; under a fork server, crashing
    /// executions land in the report's `crashes` (and, by index range,
    /// in their epoch's [`EpochTrace::crashes_in`]), and the
    /// reweighter's reward signal counts each crash as a found bug for
    /// the strategy that drove the crashing index (a segfault is the
    /// strongest detection signal a strategy can produce).
    pub fn run_target(
        &self,
        executor: &dyn Executor,
        target: &Target,
        budget: &CampaignBudget,
    ) -> Result<EpochTrace, String> {
        let workers = self.campaign.workers();
        self.run_epochs(budget, |config, first_index, epoch_budget| {
            executor.run_range(config, workers, target, first_index, epoch_budget)
        })
    }

    /// The shared epoch loop: `run_range` produces each epoch's
    /// [`RangeOutcome`] for a contiguous global index range, and the
    /// epochs fold into one outcome for the campaign's report;
    /// reweighting between epochs is a pure function of the
    /// completed-epoch records plus the crash-aware reward ledger.
    fn run_epochs<R>(&self, budget: &CampaignBudget, mut run_range: R) -> Result<EpochTrace, String>
    where
        R: FnMut(&Config, u64, &CampaignBudget) -> Result<RangeOutcome, String>,
    {
        let start = Instant::now();
        let initial_mix = self.initial_mix();
        let mut mix = initial_mix.clone();
        let mut records: Vec<EpochRecord> = Vec::new();
        let mut total = RangeOutcome {
            aggregate: TestReport::default(),
            crashes: Vec::new(),
            stop_reason: StopReason::BudgetExhausted,
            metrics: CampaignMetrics::default(),
        };
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
        let mut next_index = 0u64;
        let mut epoch = 0u64;
        while next_index < budget.max_executions {
            let len = self.epoch_len.min(budget.max_executions - next_index);
            let mut epoch_budget =
                CampaignBudget::executions(len).with_stop_on_first_bug(budget.stop_on_first_bug);
            if let Some(deadline) = budget.deadline {
                let elapsed = start.elapsed();
                if elapsed >= deadline {
                    total.stop_reason = StopReason::Deadline;
                    break;
                }
                epoch_budget = epoch_budget.with_deadline(deadline - elapsed);
            }
            let config = self.campaign.config().clone().with_mix(mix.clone());
            let epoch_started = Instant::now();
            let outcome = run_range(&config, next_index, &epoch_budget)?;
            total.metrics.absorb(&outcome.metrics);
            total.metrics.epochs.push(EpochMetric {
                epoch,
                start_index: next_index,
                executions: outcome.aggregate.executions,
                wall_nanos: epoch_started.elapsed().as_nanos() as u64,
                mix: mix.spec(),
            });
            total.aggregate.merge(&outcome.aggregate);
            reward_ledger.merge(&outcome.aggregate.per_strategy);
            for crash in &outcome.crashes {
                reward_ledger.record(&crash.strategy, crash.index, &[], true);
            }
            // Epochs cover ascending disjoint ranges, so appending keeps
            // the crash list sorted by index.
            total.crashes.extend(outcome.crashes);
            // Attribute each behavior this epoch was first to exhibit
            // to the strategy that drove its first execution (a pure
            // function of (epoch mix, global index), so the delta is
            // worker-count independent like everything else here).
            let mut delta = std::collections::BTreeMap::new();
            outcome
                .aggregate
                .coverage
                .for_each_new(&coverage_cumulative, |first_execution| {
                    let spec = config.strategy_for(first_execution).spec();
                    *delta.entry(spec).or_insert(0u64) += 1;
                });
            coverage_cumulative.merge(&outcome.aggregate.coverage);
            coverage_deltas.push(delta);
            records.push(EpochRecord {
                epoch,
                start_index: next_index,
                mix: mix.spec(),
                aggregate: outcome.aggregate,
            });
            if outcome.stop_reason != StopReason::BudgetExhausted {
                total.stop_reason = outcome.stop_reason;
                break;
            }
            next_index += len;
            epoch += 1;
            if next_index >= budget.max_executions {
                break;
            }
            let ctx = ReweightCtx {
                base_seed: self.campaign.config().seed,
                next_epoch: epoch,
                initial_mix,
                epochs: &records,
                cumulative: &reward_ledger,
                coverage_deltas: &coverage_deltas,
            };
            mix = self.policy.reweight(&ctx);
        }
        // Sequential epochs: the campaign's wall clock is the loop's,
        // not the maximum over epochs that `absorb` (a parallel merge)
        // keeps.
        total.metrics.wall_nanos = start.elapsed().as_nanos() as u64;
        total.metrics.executions = total.aggregate.executions;
        Ok(EpochTrace {
            report: self.campaign.report(budget, total, self.campaign.workers()),
            adaptive_policy: self.policy.spec(),
            epoch_len: self.epoch_len,
            records,
        })
    }

    /// Replays execution `offset` of epoch `epoch` from a trace this
    /// campaign (same config) produced: rebuilds the epoch's mix from
    /// the trace and serially re-runs the **global** index
    /// `start_index + offset`. Returns `None` if the trace has no such
    /// epoch or the index is outside the epoch's *nominal* range
    /// ([`EpochTrace::config_at`], the lookup forensics replays use
    /// too).
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
        if offset >= trace.epoch_len {
            return None;
        }
        let index = trace.record(epoch)?.start_index + offset;
        let (config, _) = trace.config_at(self.campaign.config(), index)?;
        Some(Model::new(config).run_at(index, program))
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
        let trace = AdaptiveCampaign::new(Campaign::new(mixed_config(3)).with_workers(2))
            .with_epoch_len(8)
            .run(&CampaignBudget::executions(20), || {});
        assert_eq!(trace.epochs(), 3);
        let lens: Vec<u64> = trace.records.iter().map(|r| r.executions()).collect();
        assert_eq!(lens, [8, 8, 4]);
        let starts: Vec<u64> = trace.records.iter().map(|r| r.start_index).collect();
        assert_eq!(starts, [0, 8, 16]);
        assert_eq!(trace.report.aggregate.executions, 20);
        assert_eq!(trace.report.stop_reason, StopReason::BudgetExhausted);
    }

    #[test]
    fn unmixed_config_degenerates_to_a_single_arm() {
        let trace =
            AdaptiveCampaign::new(Campaign::new(Config::new().with_seed(5)).with_workers(1))
                .with_epoch_len(4)
                .with_policy("ucb1")
                .expect("valid policy")
                .run(&CampaignBudget::executions(8), || {});
        assert_eq!(trace.report.strategy, "random:1");
        // Both epochs ran the lone arm.
        assert_eq!(trace.mix_trajectory(), ["random:1", "random:1"]);
    }

    #[test]
    fn zero_budget_yields_an_empty_trace() {
        let trace = AdaptiveCampaign::new(Campaign::new(mixed_config(1)))
            .run(&CampaignBudget::executions(0), racy);
        assert_eq!(trace.epochs(), 0);
        assert_eq!(trace.report.aggregate.executions, 0);
        assert!(trace.canonical_json().contains("\"epochs\":[]"));
    }

    #[test]
    fn stop_on_first_bug_ends_the_epoch_loop() {
        let budget = CampaignBudget::executions(1_000).with_stop_on_first_bug(true);
        let campaign = AdaptiveCampaign::new(Campaign::new(mixed_config(9)).with_workers(2))
            .with_epoch_len(50);
        let trace = campaign.run(&budget, racy);
        assert_eq!(trace.report.stop_reason, StopReason::FirstBug);
        assert!(trace.report.aggregate.executions < 1_000);
        assert!(trace.report.aggregate.executions_with_bug > 0);
        // Even though the early stop completed only part of the epoch,
        // not necessarily a prefix, the flagged execution replays: the
        // replay bound is the epoch's nominal range, not its completed
        // count.
        let first = trace
            .report
            .aggregate
            .first_bug_execution()
            .expect("bug found");
        let record = trace
            .records
            .iter()
            .find(|r| first >= r.start_index && first < r.start_index + 50)
            .expect("first bug lies in an epoch's nominal range");
        let replayed = campaign
            .replay(&trace, record.epoch, first - record.start_index, racy)
            .expect("flagged execution must be replayable after an early stop");
        assert_eq!(replayed.execution_index, first);
        assert!(replayed.found_bug());
    }

    #[test]
    fn replay_rejects_out_of_range_coordinates() {
        let campaign = AdaptiveCampaign::new(Campaign::new(mixed_config(7))).with_epoch_len(4);
        let trace = campaign.run(&CampaignBudget::executions(8), racy);
        assert!(campaign.replay(&trace, 0, 0, racy).is_some());
        assert!(campaign.replay(&trace, 0, 4, racy).is_none());
        assert!(campaign.replay(&trace, 2, 0, racy).is_none());
    }
}
