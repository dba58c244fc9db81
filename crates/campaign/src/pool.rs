//! The one batch loop both transports share.
//!
//! Workers claim contiguous index ranges from one queue ([`Pool`]) and
//! fold them with one function ([`fold_claims`]); [`run_pool`] drives
//! the workers and assembles their shares into a [`RangeOutcome`].
//! In-process workers ([`crate::Campaign::trace`]) claim one index
//! at a time and fold it on their own thread. A fork-server pool worker
//! (the `c11tester-isolation` crate) claims a batch and sends it to its
//! child process, which folds it as a one-claim pool of its own.

use crate::{CampaignBudget, CrashRecord, RangeOutcome, StopReason};
use c11tester::{Model, TestReport};
use c11tester_telemetry::{CampaignMetrics, ForkHealth, WorkerMetrics};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// One claim on a [`Pool`]: a contiguous index range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Claim {
    /// The claimed indices.
    pub range: Range<u64>,
    /// No index is left in the queue after this claim.
    pub last: bool,
}

/// An index range its workers claim from, and the bounds that stop
/// them early: a deadline, stop-on-first-bug, and the flags every
/// worker shares.
///
/// The cursor and the flags are `Relaxed`: they publish no other data
/// (a `fetch_add` hands out each index once under any ordering), and
/// the workers' folds travel through their join handles.
#[derive(Debug)]
pub struct Pool {
    next: AtomicU64,
    end: u64,
    batch: u64,
    deadline_at: Option<Instant>,
    stop_on_first_bug: bool,
    bug: AtomicBool,
    deadline: AtomicBool,
    failed: AtomicBool,
}

impl Pool {
    /// A pool over `range`, claimed at most `batch` indices at a time
    /// (at least one), stopping at `deadline_at` (if any) and, with
    /// `stop_on_first_bug`, after the first execution that exhibits a
    /// bug.
    pub fn new(
        range: Range<u64>,
        batch: u64,
        deadline_at: Option<Instant>,
        stop_on_first_bug: bool,
    ) -> Self {
        Pool {
            next: AtomicU64::new(range.start),
            end: range.end,
            batch: batch.max(1),
            deadline_at,
            stop_on_first_bug,
            bug: AtomicBool::new(false),
            deadline: AtomicBool::new(false),
            failed: AtomicBool::new(false),
        }
    }

    /// Claims the next at most `batch` indices, in index order; `None`
    /// once the queue is drained or a stop triggered.
    pub fn claim(&self) -> Option<Claim> {
        if self.halted() {
            return None;
        }
        let first = self.next.fetch_add(self.batch, Relaxed);
        if first >= self.end {
            return None;
        }
        let end = self.end.min(first.saturating_add(self.batch));
        Some(Claim {
            range: first..end,
            last: end == self.end,
        })
    }

    /// The instant after which no execution starts.
    pub fn deadline_at(&self) -> Option<Instant> {
        self.deadline_at
    }

    /// Records why a worker stopped (a fork-server child reports it in
    /// its `done` frame), so the other workers stop too.
    pub fn record(&self, reason: StopReason) {
        match reason {
            StopReason::FirstBug => self.bug.store(true, Relaxed),
            StopReason::Deadline => self.deadline.store(true, Relaxed),
            StopReason::BudgetExhausted => {}
        }
    }

    /// Why the range ended: a first bug wins over a deadline.
    pub fn reason(&self) -> StopReason {
        if self.bug.load(Relaxed) {
            StopReason::FirstBug
        } else if self.deadline.load(Relaxed) {
            StopReason::Deadline
        } else {
            StopReason::BudgetExhausted
        }
    }

    /// Whether no further execution may start; notes a passed deadline.
    fn halted(&self) -> bool {
        if self.bug.load(Relaxed) || self.deadline.load(Relaxed) || self.failed.load(Relaxed) {
            return true;
        }
        let expired = self.deadline_at.is_some_and(|at| Instant::now() >= at);
        if expired {
            self.deadline.store(true, Relaxed);
        }
        expired
    }
}

/// Claims ranges from `pool` until it is drained or stopped, runs each
/// claimed index of `program` on `model` (in index order, with
/// [`Model::run_at`]) and folds it into `fold`. The deadline and the
/// shared stop flags are checked before every execution; after it,
/// `each` runs (a fork-server child writes its tick there) and a bug
/// stops the pool if it stops on the first one. Returns why the loop
/// ended.
pub fn fold_claims<F, E>(
    pool: &Pool,
    model: &mut Model,
    program: &F,
    fold: &mut TestReport,
    mut each: impl FnMut() -> Result<(), E>,
) -> Result<StopReason, E>
where
    F: Fn() + Send + Sync,
{
    'claims: while let Some(claim) = pool.claim() {
        for index in claim.range {
            if pool.halted() {
                break 'claims;
            }
            let report = model.run_at(index, program);
            fold.absorb(&report);
            each()?;
            if pool.stop_on_first_bug && report.found_bug() {
                pool.record(StopReason::FirstBug);
                break 'claims;
            }
        }
    }
    Ok(pool.reason())
}

/// What one pool worker hands back through its join handle.
#[derive(Debug, Default)]
pub struct Share {
    /// The fold of every execution the worker completed.
    pub fold: TestReport,
    /// Executions that killed the worker's child process.
    pub crashes: Vec<CrashRecord>,
    /// The worker's fork-server counters (zero in-process).
    pub fork: ForkHealth,
}

/// Runs `work` on up to `workers` pool workers over the indices
/// `first_index .. first_index + budget.max_executions`, claimed
/// `batch` at a time — never more workers than claims. The caller runs
/// worker 0; the others are scoped threads returning their [`Share`]
/// through their join handles. A worker's error stops the others and is
/// returned (the lowest worker's); a worker's panic is re-raised.
/// `handover` labels the worker rows.
pub fn run_pool<W>(
    workers: usize,
    first_index: u64,
    budget: &CampaignBudget,
    batch: u64,
    handover: &'static str,
    work: W,
) -> Result<RangeOutcome, String>
where
    W: Fn(&Pool) -> Result<Share, String> + Sync,
{
    let start = Instant::now();
    let end = first_index.saturating_add(budget.max_executions);
    let pool = Pool::new(
        first_index..end,
        batch,
        budget.deadline.and_then(|d| start.checked_add(d)),
        budget.stop_on_first_bug,
    );
    let claims = (end - first_index).div_ceil(pool.batch);
    let workers = workers.clamp(1, usize::try_from(claims).unwrap_or(usize::MAX).max(1));
    let run = |w: usize| {
        let busy = Instant::now();
        let share = work(&pool);
        if share.is_err() {
            pool.failed.store(true, Relaxed);
        }
        let row = WorkerMetrics {
            worker: w as u64,
            executions: share.as_ref().map_or(0, |s| s.fold.executions),
            busy_nanos: busy.elapsed().as_nanos() as u64,
            handover,
        };
        (share, row)
    };
    let results = std::thread::scope(|scope| {
        let run = &run;
        let spawned: Vec<_> = (1..workers)
            .map(|w| {
                std::thread::Builder::new()
                    .name(format!("c11campaign-{w}"))
                    .spawn_scoped(scope, move || run(w))
                    .expect("failed to spawn campaign worker")
            })
            .collect();
        let mut results = vec![run(0)];
        for handle in spawned {
            results.push(
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
        results
    });

    // Worker 0's share is adopted by move; the others merge into it.
    let mut rows = Vec::with_capacity(workers);
    let mut total: Option<Share> = None;
    for (share, row) in results {
        let share = share?;
        rows.push(row);
        match &mut total {
            None => total = Some(share),
            Some(total) => {
                total.fold.merge(&share.fold);
                total.crashes.extend(share.crashes);
                total.fork.absorb(&share.fork);
            }
        }
    }
    let Share {
        fold: aggregate,
        mut crashes,
        fork,
    } = total.expect("a pool has at least one worker");
    crashes.sort_by_key(|c| c.index);
    let metrics = CampaignMetrics {
        phase: aggregate.total_stats.phase,
        graph: aggregate.total_stats.mograph_perf,
        workers: rows,
        fork,
        executions: aggregate.executions,
        wall_nanos: start.elapsed().as_nanos() as u64,
        ..CampaignMetrics::default()
    };
    Ok(RangeOutcome {
        aggregate,
        crashes,
        stop_reason: pool.reason(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_tile_the_range_in_order_and_flag_the_last() {
        let pool = Pool::new(10..17, 3, None, false);
        let claims: Vec<Claim> = std::iter::from_fn(|| pool.claim()).collect();
        let ranges: Vec<_> = claims.iter().map(|c| c.range.clone()).collect();
        assert_eq!(ranges, [10..13, 13..16, 16..17]);
        let last: Vec<bool> = claims.iter().map(|c| c.last).collect();
        assert_eq!(last, [false, false, true]);
        assert_eq!(pool.claim(), None, "a drained queue stays drained");
    }

    #[test]
    fn a_recorded_stop_ends_claims_and_names_the_reason() {
        let pool = Pool::new(0..100, 1, None, false);
        assert!(pool.claim().is_some());
        pool.record(StopReason::Deadline);
        assert_eq!(pool.claim(), None);
        assert_eq!(pool.reason(), StopReason::Deadline);
        pool.record(StopReason::FirstBug);
        assert_eq!(pool.reason(), StopReason::FirstBug);
        let expired = Pool::new(0..100, 1, Some(Instant::now()), false);
        assert_eq!(expired.claim(), None);
        assert_eq!(expired.reason(), StopReason::Deadline);
    }
}
