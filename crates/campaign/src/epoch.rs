//! Epoch-granular campaign traces.
//!
//! An adaptive campaign splits its execution budget into fixed-size
//! **epochs**: each epoch runs as an ordinary sharded campaign over a
//! contiguous range of the global execution-index stream
//! ([`crate::Campaign::run_range`]) under that epoch's
//! [`c11tester::StrategyMix`], and a controller reweights the mix
//! between epochs from the per-strategy detection columns. The
//! [`EpochTrace`] is the closed-loop run's canonical record: one
//! [`EpochRecord`] per epoch (mix, per-strategy columns, aggregate)
//! plus the overall aggregate, serialized as `c11campaign/v4`
//! canonical JSON.
//!
//! Determinism: every epoch keeps the campaign's **base seed** and
//! walks **global** execution indices, so execution `start_index + i`
//! of epoch `e` is reproducible by `(seed, epoch-mix, index)` alone —
//! parse [`EpochRecord::mix`], set it on the base config, and
//! [`c11tester::Model::run_at`] the global index. Because fixed-budget
//! range campaigns aggregate byte-identically for any worker count and
//! reweighting is a pure function of completed-epoch aggregates, the
//! whole trace (and its canonical JSON) is byte-identical across
//! worker counts.

use crate::exec::CrashRecord;
use crate::json;
use crate::{CampaignBudget, StopReason};
use c11tester::TestReport;
use std::time::Duration;

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
    /// Executions of this epoch that killed their worker process,
    /// sorted by index. Always empty for in-process epochs.
    pub crashes: Vec<CrashRecord>,
}

impl EpochRecord {
    /// Number of executions this epoch completed.
    pub fn executions(&self) -> u64 {
        self.aggregate.executions
    }

    /// `start_index` plus the number of executions the epoch
    /// *completed*. For a fixed-budget epoch this is one past its last
    /// global index; an early-stopped epoch (first bug, deadline)
    /// completes a strided subset across workers, so a flagged index
    /// may lie at or beyond this bound — use the trace's nominal
    /// `epoch_len` for the full index range.
    pub fn end_index(&self) -> u64 {
        self.start_index + self.aggregate.executions
    }
}

/// The canonical record of one adaptive (epoch-driven) campaign run.
#[derive(Clone, Debug)]
pub struct EpochTrace {
    /// Base seed shared by every epoch (epochs vary the *mix*, never
    /// the seed, so global indices stay replayable).
    pub base_seed: u64,
    /// Memory-model policy name.
    pub policy: &'static str,
    /// Canonical spec of the reweighting policy (`fixed`, `ucb1[@c]`,
    /// `exp3[@eta]`, …).
    pub adaptive_policy: String,
    /// Nominal epoch length in executions (the final epoch may be
    /// shorter when the budget is not a multiple).
    pub epoch_len: u64,
    /// Canonical spec of the initial mix (epoch 0's mix).
    pub initial_mix: String,
    /// The overall budget the adaptive campaign ran under.
    pub budget: CampaignBudget,
    /// Why the campaign stopped.
    pub stop_reason: StopReason,
    /// Completed epochs in order.
    pub records: Vec<EpochRecord>,
    /// Aggregate merged over all epochs — equal to a single campaign
    /// over the same index stream when the mix never changes.
    pub aggregate: TestReport,
}

impl EpochTrace {
    /// The canonical (worker-count independent) `c11campaign/v4` JSON
    /// form: the plain report's aggregate fields plus an `adaptive`
    /// header and an `epochs` array carrying each epoch's mix,
    /// per-strategy columns, and running cumulative totals.
    /// Byte-identical for any worker count over a fixed budget.
    pub fn canonical_json(&self) -> String {
        json::canonical_trace(self, false)
    }

    /// The canonical trace plus the opt-in `alloc` diagnostics block
    /// inside `stats` (see
    /// [`crate::CampaignReport::canonical_json_with_alloc_stats`]).
    /// Not covered by the byte-identity contract.
    pub fn canonical_json_with_alloc_stats(&self) -> String {
        json::canonical_trace(self, true)
    }

    /// The full JSON form of a run that produced this trace: the
    /// canonical trace plus run-local timing (`workers`, wall seconds,
    /// throughput), shaped like [`crate::CampaignReport::to_json`].
    pub fn full_json(&self, workers: usize, wall_time: Duration) -> String {
        json::full_trace(self, workers, wall_time)
    }

    /// The `c11coverage/v1` behavior-coverage object for the adaptive
    /// run: the overall behavior arrays plus a per-epoch
    /// `new_behaviors` growth curve (see `docs/COVERAGE.md`).
    /// Meaningful only when the run collected coverage; byte-identical
    /// across worker counts, like [`EpochTrace::canonical_json`].
    pub fn coverage_json(&self) -> String {
        json::coverage_trace(self)
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

    /// Every crash record across all epochs, in index order (epochs
    /// cover disjoint ascending index ranges, so concatenation is
    /// already sorted).
    pub fn crash_records(&self) -> Vec<CrashRecord> {
        self.records
            .iter()
            .flat_map(|r| r.crashes.iter().cloned())
            .collect()
    }
}

impl std::fmt::Display for EpochTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "adaptive campaign: {} epoch(s) of {} execution(s), policy {}, seed {:#x}, {}",
            self.records.len(),
            self.epoch_len,
            self.adaptive_policy,
            self.base_seed,
            self.stop_reason.name(),
        )?;
        let mut cumulative_bugs = 0u64;
        for r in &self.records {
            cumulative_bugs += r.aggregate.executions_with_bug;
            writeln!(
                f,
                "  epoch {:>3} [{}..{}): mix {} — {}/{} with bugs (cum {}){}",
                r.epoch,
                r.start_index,
                r.end_index(),
                r.mix,
                r.aggregate.executions_with_bug,
                r.aggregate.executions,
                cumulative_bugs,
                if r.crashes.is_empty() {
                    String::new()
                } else {
                    format!(", {} crash(es)", r.crashes.len())
                },
            )?;
        }
        write!(f, "{}", self.aggregate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accessors_cover_the_index_range() {
        let aggregate = TestReport {
            executions: 16,
            ..Default::default()
        };
        let record = EpochRecord {
            epoch: 2,
            start_index: 32,
            mix: "random:1".to_string(),
            aggregate,
            crashes: Vec::new(),
        };
        assert_eq!(record.executions(), 16);
        assert_eq!(record.end_index(), 48);
    }

    #[test]
    fn trace_lookup_and_trajectory() {
        let record = |epoch: u64, mix: &str| EpochRecord {
            epoch,
            start_index: epoch * 8,
            mix: mix.to_string(),
            aggregate: TestReport::default(),
            crashes: Vec::new(),
        };
        let trace = EpochTrace {
            base_seed: 7,
            policy: "C11Tester",
            adaptive_policy: "ucb1".to_string(),
            epoch_len: 8,
            initial_mix: "random:1,pct2:1".to_string(),
            budget: CampaignBudget::executions(16),
            stop_reason: StopReason::BudgetExhausted,
            records: vec![record(0, "random:1,pct2:1"), record(1, "random:1,pct2:3")],
            aggregate: TestReport::default(),
        };
        assert_eq!(trace.epochs(), 2);
        assert_eq!(trace.record(1).expect("epoch 1").mix, "random:1,pct2:3");
        assert!(trace.record(2).is_none());
        assert_eq!(
            trace.mix_trajectory(),
            ["random:1,pct2:1", "random:1,pct2:3"]
        );
        assert!(trace.to_string().contains("epoch   1"));
    }
}
