//! Execution backends for campaigns: the [`Executor`] abstraction.
//!
//! A [`crate::Campaign`] describes *what* to explore — a configuration,
//! a budget, a global execution-index stream. An [`Executor`] decides
//! *where* those executions run:
//!
//! * in-process — worker **threads** inside the campaign process
//!   ([`crate::Campaign::run`]). Fastest, but a program under
//!   test that segfaults, aborts, or wedges takes the whole campaign
//!   down with it.
//! * `ForkServer` (in the `c11tester-isolation` crate) — worker
//!   **processes**: each pool worker runs the batches it claims in one
//!   long-lived child that re-enters the campaign binary via the hidden
//!   `c11campaign --worker` mode, ticks once per execution and ships
//!   each batch's folded report back over a pipe. A child death becomes
//!   a [`CrashRecord`] instead of a campaign death.
//!
//! Both claim index ranges from one queue and fold them with one
//! function ([`crate::pool`]), and one driver
//! ([`crate::Campaign::trace`] / [`crate::Campaign::trace_target`])
//! folds their ranges into the report.
//!
//! Both backends answer the same question for the same inputs: the
//! aggregate over a fixed-budget index range is **byte-identical**
//! between them on any healthy target, because an execution is a pure
//! function of `(config, global index)` no matter which process runs
//! it. Crashes are part of that determinism story too: whether
//! execution `i` crashes is decided by `(config, i)` alone, so the
//! crash list (sorted by index) is identical across worker counts and
//! batch sizes.
//!
//! The executor interface works on *named* [`Target`]s rather than
//! closures — a child process cannot be handed a closure, only a name
//! it can resolve in its own address space via [`crate::targets`].

use crate::targets::Target;
use crate::{Campaign, CampaignBudget, CampaignReport, EpochTrace, StopReason};
use c11tester::{Config, TestReport};
use c11tester_telemetry::CampaignMetrics;

/// How an isolated execution died.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CrashKind {
    /// The worker process was killed by a signal (e.g. 11 = SIGSEGV,
    /// 6 = SIGABRT).
    Signal(i32),
    /// The worker process exited with a nonzero status without
    /// completing its batch.
    Exit(i32),
    /// The worker process exceeded the per-execution timeout and was
    /// killed by the pool.
    Timeout,
}

impl CrashKind {
    /// Stable machine-readable name (used in JSON output).
    pub fn name(&self) -> &'static str {
        match self {
            CrashKind::Signal(_) => "signal",
            CrashKind::Exit(_) => "exit",
            CrashKind::Timeout => "timeout",
        }
    }

    /// The signal or exit code, when the kind carries one.
    pub fn code(&self) -> Option<i32> {
        match self {
            CrashKind::Signal(n) | CrashKind::Exit(n) => Some(*n),
            CrashKind::Timeout => None,
        }
    }
}

impl std::fmt::Display for CrashKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrashKind::Signal(n) => write!(f, "killed by signal {n}"),
            CrashKind::Exit(n) => write!(f, "exited with status {n}"),
            CrashKind::Timeout => write!(f, "exceeded the execution timeout"),
        }
    }
}

/// One execution that took its worker process down instead of
/// completing — the crash itself is the detection signal (the paper's
/// evaluation targets real crash-prone programs; a segfault under
/// controlled scheduling is a reproducible bug report).
///
/// The record pins the campaign coordinates needed to replay the crash
/// serially: re-run global index [`CrashRecord::index`] under the
/// campaign's config (`Model::run_at`, or `c11campaign --worker` with
/// a one-execution range) and the same schedule — and the same crash —
/// reproduces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashRecord {
    /// Global execution index that was in flight when the worker died.
    pub index: u64,
    /// Canonical spec of the strategy assigned to that index
    /// ([`Config::strategy_for`]).
    pub strategy: String,
    /// How the worker died.
    pub kind: CrashKind,
}

impl std::fmt::Display for CrashRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "execution #{} (strategy {}): {}",
            self.index, self.strategy, self.kind
        )
    }
}

/// The outcome of running one global index range under an executor:
/// the mergeable aggregate over every execution that *completed*, plus
/// a [`CrashRecord`] for every execution that did not.
#[derive(Clone, Debug)]
pub struct RangeOutcome {
    /// Order-independent aggregate over the completed executions.
    pub aggregate: TestReport,
    /// Executions that killed their worker, sorted by index. Always
    /// empty in-process (a crash there kills the campaign).
    pub crashes: Vec<CrashRecord>,
    /// Why the range ended.
    pub stop_reason: StopReason,
    /// Diagnostic telemetry for this range (worker utilization, phase
    /// timings, fork-server health). Never part of the canonical form
    /// and never part of the determinism contract.
    pub metrics: CampaignMetrics,
}

/// A backend that can run a contiguous range of the global
/// execution-index stream for a named target.
///
/// Implementations must preserve the campaign determinism contract:
/// over a fixed budget (no early stop), the returned aggregate and
/// crash list depend only on `(config, first_index, budget)` — not on
/// worker counts, batch sizes, or scheduling of the backend itself.
pub trait Executor: std::fmt::Debug + Sync {
    /// Runs executions `first_index .. first_index +
    /// budget.max_executions` of `target` under `config`, fanning out
    /// over `workers` threads or processes.
    ///
    /// Errors are *infrastructure* failures (the worker binary cannot
    /// be spawned, the pipe protocol broke) — a crashing program under
    /// test is not an error but a [`CrashRecord`].
    fn run_range(
        &self,
        config: &Config,
        workers: usize,
        target: &Target,
        first_index: u64,
        budget: &CampaignBudget,
    ) -> Result<RangeOutcome, String>;
}

impl Campaign {
    /// Runs the campaign on a *named* target through an [`Executor`] —
    /// the entry point that supports process isolation: with a fork
    /// server, crashing executions are recorded in
    /// [`CampaignReport::crashes`] instead of killing the campaign.
    pub fn run_target(
        &self,
        executor: &dyn Executor,
        target: &Target,
        budget: &CampaignBudget,
    ) -> Result<CampaignReport, String> {
        Ok(self.trace_target(executor, target, budget)?.report)
    }

    /// Runs the campaign like [`Campaign::run_target`] and returns its
    /// record with the epochs. Epochs behave exactly as in
    /// [`Campaign::trace`]; under a fork server, crashing executions
    /// land in the report's `crashes` (and, by index range, in their
    /// epoch's [`EpochTrace::crashes_in`]), and the reweighter's reward
    /// signal counts each crash as a found bug for the strategy that
    /// drove the crashing index.
    pub fn trace_target(
        &self,
        executor: &dyn Executor,
        target: &Target,
        budget: &CampaignBudget,
    ) -> Result<EpochTrace, String> {
        self.drive(budget, &mut |config, first_index, range| {
            executor.run_range(config, self.workers, target, first_index, range)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_kinds_render_and_name_stably() {
        assert_eq!(CrashKind::Signal(11).name(), "signal");
        assert_eq!(CrashKind::Signal(11).code(), Some(11));
        assert_eq!(CrashKind::Exit(3).name(), "exit");
        assert_eq!(CrashKind::Timeout.name(), "timeout");
        assert_eq!(CrashKind::Timeout.code(), None);
        let rec = CrashRecord {
            index: 7,
            strategy: "pct2".to_string(),
            kind: CrashKind::Signal(11),
        };
        assert!(rec.to_string().contains("execution #7"));
        assert!(rec.to_string().contains("signal 11"));
    }
}
