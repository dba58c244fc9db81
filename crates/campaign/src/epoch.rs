//! Epoch-granular campaign traces.
//!
//! An adaptive campaign splits its execution budget into fixed-size
//! **epochs**: each epoch runs as an ordinary campaign over a
//! contiguous range of the global execution-index stream
//! ([`crate::Campaign::run_range`]) under that epoch's
//! [`c11tester::StrategyMix`], and a controller reweights the mix
//! between epochs from the per-strategy detection columns. The run's
//! record is an [`EpochTrace`]: the [`CampaignReport`] any campaign
//! produces (header, budget, stop reason, overall aggregate, every
//! crash, timing) plus what only an adaptive run has — its policy, its
//! epoch length and one [`EpochRecord`] per epoch (mix, aggregate with
//! per-strategy columns). It serializes as `c11campaign/v4` canonical
//! JSON with an `adaptive` header and an `epochs` array.
//!
//! Determinism: every epoch keeps the campaign's **base seed** and
//! walks **global** execution indices, so execution `start_index + i`
//! of epoch `e` is reproducible by `(seed, epoch-mix, index)` alone —
//! [`EpochTrace::config_at`] rebuilds the config that ran it for
//! [`c11tester::Model::run_at`]. Because fixed-budget range campaigns
//! aggregate byte-identically for any worker count and reweighting is a
//! pure function of completed-epoch aggregates, the whole trace (and
//! its canonical JSON) is byte-identical across worker counts.

use crate::exec::CrashRecord;
use crate::{json, CampaignReport};
use c11tester::{Config, StrategyMix, TestReport};

/// One completed epoch of an adaptive campaign.
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

/// The record of one adaptive (epoch-driven) campaign run: its
/// campaign report plus its epochs.
#[derive(Clone, Debug)]
pub struct EpochTrace {
    /// The run as a campaign report. Its `strategy` is the initial mix
    /// (epoch 0's), its aggregate is merged over all epochs (equal to a
    /// single campaign over the same index stream when the mix never
    /// changes), its `crashes` are every epoch's in index order, and its
    /// metrics carry a per-epoch timeline.
    pub report: CampaignReport,
    /// Canonical spec of the reweighting policy (`fixed`, `ucb1[@c]`,
    /// `exp3[@eta]`, …).
    pub adaptive_policy: String,
    /// Nominal epoch length in executions (the final epoch may be
    /// shorter when the budget is not a multiple).
    pub epoch_len: u64,
    /// Completed epochs in order.
    pub records: Vec<EpochRecord>,
}

impl EpochTrace {
    /// The canonical (worker-count independent) `c11campaign/v4` JSON
    /// form: the plain report's fields plus an `adaptive` header and an
    /// `epochs` array carrying each epoch's mix, per-strategy columns,
    /// and running cumulative totals. Byte-identical for any worker
    /// count over a fixed budget.
    pub fn canonical_json(&self) -> String {
        json::canonical(&self.report, Some(self), false)
    }

    /// The record for epoch `e`, if it completed.
    pub fn record(&self, epoch: u64) -> Option<&EpochRecord> {
        self.records.iter().find(|r| r.epoch == epoch)
    }

    /// Number of completed epochs.
    pub fn epochs(&self) -> usize {
        self.records.len()
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
        let end = record.start_index.saturating_add(self.epoch_len);
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
        let record = self.records.iter().find(|r| {
            (r.start_index..r.start_index.saturating_add(self.epoch_len)).contains(&index)
        })?;
        let mix = StrategyMix::parse(&record.mix).ok()?;
        Some((base.clone().with_mix(mix), record.epoch))
    }
}

impl std::fmt::Display for EpochTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let r = &self.report;
        writeln!(
            f,
            "adaptive: {} executions on {} worker(s) in {:.2?}, policy {}, initial mix {}",
            r.aggregate.executions, r.workers, r.wall_time, self.adaptive_policy, r.strategy,
        )?;
        writeln!(
            f,
            "adaptive campaign: {} epoch(s) of {} execution(s), policy {}, seed {:#x}, {}",
            self.records.len(),
            self.epoch_len,
            self.adaptive_policy,
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
            adaptive_policy: "ucb1".to_string(),
            epoch_len: 8,
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
        assert_eq!(trace.record(1).expect("epoch 1").mix, "random:1,pct2:3");
        assert!(trace.record(2).is_none());
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
