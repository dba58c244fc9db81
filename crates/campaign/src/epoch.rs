//! The campaign driver and its record.
//!
//! [`Campaign::drive`] is the one loop that turns a configuration, a
//! budget and a range runner (the in-process pool, or an
//! [`crate::Executor`]) into a report. A campaign with an epoch length
//! splits its budget into fixed-size **epochs**: each runs over a
//! contiguous range of the global execution-index stream under that
//! epoch's [`c11tester::StrategyMix`], and the policy
//! ([`crate::Reweighter`]) reweights the mix between epochs from the
//! per-strategy detection columns. A plain campaign is one epoch
//! spanning the budget that records and reweights nothing. The run's
//! record is an [`EpochTrace`]: the [`CampaignReport`] any campaign
//! produces (header, budget, stop reason, overall aggregate, every
//! crash, timing) plus what only an epoched run has — its
//! [`EpochSchedule`] (policy and epoch length) and one [`EpochRecord`]
//! per epoch (mix, aggregate with per-strategy columns). An epoched
//! trace serializes as `c11campaign/v4` canonical JSON with an
//! `adaptive` header and an `epochs` array; a plain one as the plain
//! report's document.
//!
//! Determinism: every epoch keeps the campaign's **base seed** and
//! walks **global** execution indices, so execution `start_index + i`
//! of epoch `e` is reproducible by `(seed, epoch-mix, index)` alone —
//! [`EpochTrace::config_at`] rebuilds the config that ran it for
//! [`c11tester::Model::run_at`]. Because fixed-budget ranges aggregate
//! byte-identically for any worker count and reweighting is a pure
//! function of completed-epoch aggregates, the whole trace (and its
//! canonical JSON) is byte-identical across worker counts.

use crate::exec::CrashRecord;
use crate::{
    json, Campaign, CampaignBudget, CampaignReport, RangeOutcome, ReweightCtx, StopReason,
};
use c11tester::{Config, CoverageMap, StrategyLedger, StrategyMix, TestReport};
use c11tester_telemetry::{CampaignMetrics, EpochMetric};
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed epoch of an epoched campaign.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// 0-based epoch number.
    pub epoch: u64,
    /// First global execution index of the epoch (`epoch · epoch_len`).
    pub start_index: u64,
    /// Canonical spec of the mix that drove this epoch
    /// ([`c11tester::StrategyMix::spec`]) — parse it to replay any of
    /// the epoch's executions by global index.
    pub mix: String,
    /// The epoch's aggregate (including its per-strategy ledger),
    /// identical to a serial run of the same index range.
    pub aggregate: TestReport,
}

impl EpochRecord {
    /// Number of executions this epoch completed.
    pub fn executions(&self) -> u64 {
        self.aggregate.executions
    }

    /// `start_index` plus the number of executions the epoch
    /// *completed*. For a fixed-budget epoch this is one past its last
    /// global index; an early-stopped epoch (first bug, deadline)
    /// completes part of its range, not necessarily a prefix, so a
    /// flagged index may lie at or beyond this bound — use the trace's nominal
    /// `epoch_len` for the full index range.
    pub fn end_index(&self) -> u64 {
        self.start_index + self.aggregate.executions
    }
}

/// How an epoched run split its budget and reweighted its mix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochSchedule {
    /// Canonical spec of the reweighting policy (`fixed`, `ucb1[@c]`,
    /// `exp3[@eta]`, …).
    pub policy: String,
    /// Nominal epoch length in executions (the final epoch may be
    /// shorter when the budget is not a multiple).
    pub epoch_len: u64,
}

/// The record of one campaign run: its report plus its epochs. A plain
/// run has no `schedule` and records no epochs.
#[derive(Clone, Debug)]
pub struct EpochTrace {
    /// The run as a campaign report. Its `strategy` is the initial mix
    /// (epoch 0's), its aggregate is merged over all epochs (equal to a
    /// single campaign over the same index stream when the mix never
    /// changes), its `crashes` are every epoch's in index order, and its
    /// metrics carry a per-epoch timeline.
    pub report: CampaignReport,
    /// The epoch configuration; `None` for a plain run.
    pub schedule: Option<EpochSchedule>,
    /// Completed epochs in order (none for a plain run).
    pub records: Vec<EpochRecord>,
}

impl EpochTrace {
    /// The canonical (worker-count independent) `c11campaign/v4` JSON
    /// form: for an epoched run, the plain report's fields plus an
    /// `adaptive` header and an `epochs` array carrying each epoch's
    /// mix, per-strategy columns, and running cumulative totals; for a
    /// plain run, the plain report's document. Byte-identical for any
    /// worker count over a fixed budget.
    pub fn canonical_json(&self) -> String {
        json::canonical(&self.report, Some(self), false)
    }

    /// Number of completed epochs.
    pub fn epochs(&self) -> usize {
        self.records.len()
    }

    /// Nominal length of each epoch's index range: the schedule's, or
    /// the whole budget for a plain run.
    fn epoch_len(&self) -> u64 {
        self.schedule
            .as_ref()
            .map_or(self.report.budget.max_executions, |s| s.epoch_len)
    }

    /// The mix specs in epoch order — the controller's reweighting
    /// trajectory.
    pub fn mix_trajectory(&self) -> Vec<&str> {
        self.records.iter().map(|r| r.mix.as_str()).collect()
    }

    /// The crashes of one epoch: the part of the report's sorted
    /// `crashes` that lies in the epoch's nominal index range.
    pub fn crashes_in(&self, record: &EpochRecord) -> &[CrashRecord] {
        let crashes = &self.report.crashes;
        let below = |bound: u64| crashes.partition_point(|c| c.index < bound);
        let end = record.start_index.saturating_add(self.epoch_len());
        &crashes[below(record.start_index)..below(end)]
    }

    /// The config and epoch that ran global execution `index`: `base`
    /// (the campaign's config) under the mix of the epoch whose
    /// *nominal* range — `epoch_len`, clipped by the budget — holds the
    /// index. `None` when no completed epoch's range does. The nominal
    /// range, not the completed count, is the bound: an early-stopped
    /// epoch completes part of its range, not necessarily a prefix, and
    /// any in-range index replays deterministically.
    pub fn config_at(&self, base: &Config, index: u64) -> Option<(Config, u64)> {
        if index >= self.report.budget.max_executions {
            return None;
        }
        let epoch_len = self.epoch_len();
        let record = self
            .records
            .iter()
            .find(|r| (r.start_index..r.start_index.saturating_add(epoch_len)).contains(&index))?;
        let mix = StrategyMix::parse(&record.mix).ok()?;
        Some((base.clone().with_mix(mix), record.epoch))
    }
}

impl Campaign {
    /// The one campaign driver: runs `budget` through `run_range`, which
    /// runs the global indices `first_index .. first_index +
    /// range.max_executions` under a config, and folds the ranges into
    /// one report. With an epoch length the ranges are epochs, each
    /// recorded, and the policy picks each next epoch's mix from the
    /// completed epochs' records plus a crash-aware reward ledger; the
    /// loop ends when the budget is covered, a deadline expires, or —
    /// with `budget.stop_on_first_bug` — a bug is found. A plain
    /// campaign is one range spanning the budget.
    pub(crate) fn drive(
        &self,
        budget: &CampaignBudget,
        run_range: &mut dyn FnMut(&Config, u64, &CampaignBudget) -> Result<RangeOutcome, String>,
    ) -> Result<EpochTrace, String> {
        let start = Instant::now();
        let epoch_len = self.epoch_len.unwrap_or(budget.max_executions);
        let mut config = self.config.clone();
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
        let mut reward_ledger = StrategyLedger::new();
        // Coverage bookkeeping for reweighters that reward discovery:
        // the cumulative behavior map plus, per epoch, how many new
        // behaviors each strategy spec was first to exhibit. Both stay
        // empty (and cost nothing) without coverage collection.
        let mut coverage_cumulative = CoverageMap::new();
        let mut coverage_deltas: Vec<BTreeMap<String, u64>> = Vec::new();
        let mut next_index = 0u64;
        let mut epoch = 0u64;
        loop {
            let len = epoch_len.min(budget.max_executions - next_index);
            // An empty budget has no epochs, but a plain run still
            // runs its one (empty) range, as `Campaign::run` always has.
            if len == 0 && self.epoch_len.is_some() {
                break;
            }
            let mut range =
                CampaignBudget::executions(len).with_stop_on_first_bug(budget.stop_on_first_bug);
            if let Some(deadline) = budget.deadline {
                let elapsed = start.elapsed();
                if elapsed >= deadline {
                    total.stop_reason = StopReason::Deadline;
                    break;
                }
                range = range.with_deadline(deadline - elapsed);
            }
            let epoch_started = Instant::now();
            let outcome = run_range(&config, next_index, &range)?;
            if self.epoch_len.is_none() {
                // A plain run is this one range.
                total = outcome;
                break;
            }
            total.metrics.absorb(&outcome.metrics);
            total.metrics.epochs.push(EpochMetric {
                epoch,
                start_index: next_index,
                executions: outcome.aggregate.executions,
                wall_nanos: epoch_started.elapsed().as_nanos() as u64,
                mix: config.strategy_label(),
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
            let mut delta = BTreeMap::new();
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
                mix: config.strategy_label(),
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
            let initial_mix = self.config.mix.as_ref().expect("epochs have arms");
            let mix = self.policy.reweight(&ReweightCtx {
                base_seed: self.config.seed,
                next_epoch: epoch,
                initial_mix,
                epochs: &records,
                cumulative: &reward_ledger,
                coverage_deltas: &coverage_deltas,
            });
            config = config.with_mix(mix);
        }
        // Sequential epochs: the campaign's wall clock is the loop's,
        // not the maximum over epochs that `absorb` (a parallel merge)
        // keeps.
        total.metrics.wall_nanos = start.elapsed().as_nanos() as u64;
        total.metrics.executions = total.aggregate.executions;
        Ok(EpochTrace {
            report: self.report(budget, total),
            schedule: self.epoch_len.map(|epoch_len| EpochSchedule {
                policy: self.policy.spec(),
                epoch_len,
            }),
            records,
        })
    }
}

impl std::fmt::Display for EpochTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let r = &self.report;
        let Some(schedule) = &self.schedule else {
            return write!(f, "{r}");
        };
        writeln!(
            f,
            "adaptive: {} executions on {} worker(s) in {:.2?}, policy {}, initial mix {}",
            r.aggregate.executions, r.workers, r.wall_time, schedule.policy, r.strategy,
        )?;
        writeln!(
            f,
            "adaptive campaign: {} epoch(s) of {} execution(s), policy {}, seed {:#x}, {}",
            self.records.len(),
            schedule.epoch_len,
            schedule.policy,
            r.base_seed,
            r.stop_reason.name(),
        )?;
        let mut cumulative_bugs = 0u64;
        for rec in &self.records {
            cumulative_bugs += rec.aggregate.executions_with_bug;
            let crashes = self.crashes_in(rec).len();
            writeln!(
                f,
                "  epoch {:>3} [{}..{}): mix {} — {}/{} with bugs (cum {}){}",
                rec.epoch,
                rec.start_index,
                rec.end_index(),
                rec.mix,
                rec.aggregate.executions_with_bug,
                rec.aggregate.executions,
                cumulative_bugs,
                if crashes == 0 {
                    String::new()
                } else {
                    format!(", {crashes} crash(es)")
                },
            )?;
        }
        write!(f, "{}", r.aggregate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CampaignBudget, CrashKind, StopReason};
    use c11tester_telemetry::CampaignMetrics;
    use std::time::Duration;

    fn record(epoch: u64, mix: &str) -> EpochRecord {
        EpochRecord {
            epoch,
            start_index: epoch * 8,
            mix: mix.to_string(),
            aggregate: TestReport::default(),
        }
    }

    fn trace(crash_indices: &[u64]) -> EpochTrace {
        EpochTrace {
            report: CampaignReport {
                base_seed: 7,
                policy: "C11Tester",
                strategy: "random:1,pct2:1".to_string(),
                budget: CampaignBudget::executions(16),
                stop_reason: StopReason::BudgetExhausted,
                aggregate: TestReport::default(),
                crashes: crash_indices
                    .iter()
                    .map(|&index| CrashRecord {
                        index,
                        strategy: "random".to_string(),
                        kind: CrashKind::Signal(11),
                    })
                    .collect(),
                workers: 1,
                wall_time: Duration::ZERO,
                metrics: CampaignMetrics::default(),
            },
            schedule: Some(EpochSchedule {
                policy: "ucb1".to_string(),
                epoch_len: 8,
            }),
            records: vec![record(0, "random:1,pct2:1"), record(1, "random:1,pct2:3")],
        }
    }

    #[test]
    fn record_accessors_cover_the_index_range() {
        let mut record = record(2, "random:1");
        record.start_index = 32;
        record.aggregate.executions = 16;
        assert_eq!(record.executions(), 16);
        assert_eq!(record.end_index(), 48);
    }

    #[test]
    fn trace_lookup_and_trajectory() {
        let trace = trace(&[]);
        assert_eq!(trace.epochs(), 2);
        assert_eq!(
            trace.mix_trajectory(),
            ["random:1,pct2:1", "random:1,pct2:3"]
        );
        assert!(trace.to_string().contains("epoch   1"));
    }

    #[test]
    fn epochs_slice_the_reports_crashes_by_nominal_range() {
        let trace = trace(&[1, 7, 8, 15]);
        let indices =
            |r: &EpochRecord| -> Vec<u64> { trace.crashes_in(r).iter().map(|c| c.index).collect() };
        assert_eq!(indices(&trace.records[0]), [1, 7]);
        assert_eq!(indices(&trace.records[1]), [8, 15]);
        assert!(trace.to_string().contains(", 2 crash(es)"));
    }

    #[test]
    fn config_at_resolves_the_epoch_mix_within_the_budget() {
        let trace = trace(&[]);
        let base = Config::new().with_seed(7);
        let (config, epoch) = trace.config_at(&base, 9).expect("index 9 is in epoch 1");
        assert_eq!(epoch, 1);
        assert_eq!(config.strategy_label(), "random:1,pct2:3");
        assert_eq!(config.seed, 7);
        assert!(trace.config_at(&base, 16).is_none(), "past the budget");
    }
}
