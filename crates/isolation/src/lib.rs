//! # c11tester-isolation
//!
//! Process-level isolation for campaigns: a **fork/exec worker pool**
//! in which every batch of executions runs in a child process, so a
//! program under test that segfaults, aborts, or wedges takes down
//! one child — never the campaign.
//!
//! The C11Tester paper evaluates real, crash-prone concurrent
//! programs; for those, the crash *is* the detection signal. The
//! in-process [`c11tester_campaign::Campaign`] cannot express that —
//! one SIGSEGV kills every worker thread and all accumulated state.
//! The [`ForkServer`] implements the campaign's [`Executor`]
//! abstraction differently:
//!
//! 1. the global execution-index range is partitioned into contiguous
//!    **batches**;
//! 2. each batch is handed to a child process that re-enters the
//!    campaign binary via the hidden `c11campaign --worker` mode,
//!    identified **purely by `(target, seed, index range)`** — no
//!    closures, no shared memory — so the child runs exactly the
//!    executions an in-process campaign would have run at those
//!    indices ([`worker::WorkerSpec`]);
//! 3. the child streams one length-prefixed canonical-JSON frame per
//!    completed execution back over its stdout pipe
//!    ([`protocol`]), and the parent folds them into the ordinary
//!    mergeable [`c11tester::TestReport`];
//! 4. a child that dies before its terminal `done` frame was
//!    mid-execution: the parent triages the death (signal, exit code,
//!    or `exec_timeout` kill) into a [`CrashRecord`] at global index
//!    `batch start + frames received`, then **respawns the remainder**
//!    of the batch, so one crash costs one child — the budget always
//!    completes.
//!
//! Determinism is preserved end to end: whether execution `i` crashes
//! is a pure function of `(config, i)` (the same schedule replays the
//! same crash), completed executions aggregate order-independently,
//! and crash records sort by index — so the final
//! [`CampaignReport`](c11tester_campaign::CampaignReport) and its
//! `c11campaign/v4` canonical JSON are **byte-identical across worker
//! counts and batch sizes**, and byte-identical to an in-process run
//! on any healthy target.
//!
//! ```no_run
//! use c11tester::Config;
//! use c11tester_campaign::{targets, Campaign, CampaignBudget};
//! use c11tester_isolation::ForkServer;
//!
//! let target = targets::find("null-deref-buggy").unwrap();
//! let fork = ForkServer::current_exe().unwrap(); // or the c11campaign path
//! let report = Campaign::new(Config::new().with_seed(7))
//!     .with_workers(4)
//!     .run_target(&fork, &target, &CampaignBudget::executions(1000))
//!     .unwrap();
//! println!("{} crashes survived", report.crashes.len());
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod protocol;
pub mod worker;

/// Serializes tests that either flip the process-global coverage gate
/// or compare `TestReport`s built from live executions (which the gate
/// perturbs). Lib tests share one process, so they must not interleave.
#[cfg(test)]
pub(crate) fn coverage_gate_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use worker::{parse_worker_args, worker_main, WorkerSpec};

use crate::protocol::{read_frame, Frame};
use c11tester::{Config, TestReport};
use c11tester_campaign::targets::Target;
use c11tester_campaign::{
    CampaignBudget, CrashKind, CrashRecord, Executor, RangeOutcome, StopReason,
};
use c11tester_telemetry::{CampaignMetrics, ForkHealth, WorkerMetrics};
use std::collections::VecDeque;
use std::io::BufReader;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Default executions per child process.
///
/// Large enough to amortize process startup on healthy targets, small
/// enough that a crash (which costs one respawn of the remainder)
/// stays cheap.
pub const DEFAULT_BATCH_SIZE: u64 = 64;

/// The fork/exec campaign backend: an [`Executor`] whose workers are
/// child processes re-entering the campaign binary in `--worker` mode.
///
/// See the [crate docs](crate) for the protocol and the determinism
/// contract.
#[derive(Clone, Debug)]
pub struct ForkServer {
    program: PathBuf,
    batch_size: u64,
    exec_timeout: Option<Duration>,
}

impl ForkServer {
    /// Creates a fork server whose children run `program` — a binary
    /// that understands `--worker` (in practice: `c11campaign`).
    pub fn new(program: impl Into<PathBuf>) -> Self {
        ForkServer {
            program: program.into(),
            batch_size: DEFAULT_BATCH_SIZE,
            exec_timeout: None,
        }
    }

    /// A fork server re-entering the *current* binary — the right
    /// default when the campaign process is `c11campaign` itself.
    pub fn current_exe() -> Result<ForkServer, String> {
        std::env::current_exe()
            .map(ForkServer::new)
            .map_err(|e| format!("cannot resolve current executable: {e}"))
    }

    /// Sets the number of executions per child process.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn with_batch_size(mut self, batch_size: u64) -> Self {
        assert!(batch_size > 0, "batches need at least one execution");
        self.batch_size = batch_size;
        self
    }

    /// Caps the wall-clock time a child may spend on a single
    /// execution (measured frame-to-frame, so it also covers child
    /// startup). A child exceeding it is killed and the in-flight
    /// execution recorded as a [`CrashKind::Timeout`] crash.
    ///
    /// `None` (the default) waits forever — fine for targets that
    /// always terminate, fatal for `spin-forever`-shaped bugs.
    pub fn with_exec_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.exec_timeout = timeout;
        self
    }

    /// The worker binary children re-enter.
    pub fn program(&self) -> &std::path::Path {
        &self.program
    }

    /// Runs one child over `[first, first + executions)` and folds its
    /// frames into `report`. `Ok(Finished)` means the `done` frame
    /// arrived; `Ok(Died {..})` is a triaged crash of the execution at
    /// `first + completed`; `Ok(DeadlineExpired {..})` means the
    /// campaign deadline passed while the child was working (the child
    /// is killed, completed frames are kept, nothing is recorded as a
    /// crash); `Err` is an infrastructure failure (cannot spawn,
    /// protocol violation from a live child).
    fn run_child(
        &self,
        spec: &WorkerSpec,
        deadline_at: Option<Instant>,
        report: &mut TestReport,
        health: &mut ForkHealth,
    ) -> Result<ChildOutcome, String> {
        let mut child = Command::new(&self.program)
            .args(spec.to_args())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn worker `{}`: {e}", self.program.display()))?;
        health.spawns += 1;
        let mut last_frame_at = Instant::now();
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel::<std::io::Result<String>>();
        let reader = std::thread::spawn(move || {
            let mut input = BufReader::new(stdout);
            loop {
                match read_frame(&mut input) {
                    Ok(Some(payload)) => {
                        if tx.send(Ok(payload)).is_err() {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        break;
                    }
                }
            }
        });
        let mut completed = 0u64;
        let outcome = loop {
            // Wait for the next frame, bounded by the per-execution
            // timeout and/or the campaign deadline (whichever is
            // nearer). Without either, wait forever.
            let wait = match (self.exec_timeout, deadline_at) {
                (None, None) => None,
                (timeout, Some(at)) => {
                    let remaining = at.saturating_duration_since(Instant::now());
                    Some(timeout.map_or(remaining, |t| t.min(remaining)))
                }
                (Some(t), None) => Some(t),
            };
            let msg = match wait {
                Some(timeout) => match rx.recv_timeout(timeout) {
                    Ok(msg) => Some(msg),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        // Distinguish "this execution overran its
                        // budget" from "the whole campaign ran out of
                        // time": only the former is a crash.
                        let deadline_hit = deadline_at.is_some_and(|at| Instant::now() >= at);
                        break Ok(if deadline_hit {
                            ChildOutcome::DeadlineExpired
                        } else {
                            health.timeout_kills += 1;
                            ChildOutcome::Died {
                                completed,
                                kind: CrashKind::Timeout,
                            }
                        });
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => None,
                },
                None => rx.recv().ok(),
            };
            match msg {
                Some(Ok(payload)) => {
                    // Frame round-trip time: the gap between spawn (or
                    // the previous frame) and this frame's arrival.
                    let rtt = last_frame_at.elapsed().as_nanos() as u64;
                    last_frame_at = Instant::now();
                    health.frames += 1;
                    health.frame_rtt_nanos_total += rtt;
                    health.frame_rtt_nanos_max = health.frame_rtt_nanos_max.max(rtt);
                    match protocol::parse_frame(&payload) {
                        Ok(Frame::Exec(exec)) => {
                            report.absorb(&exec);
                            completed += 1;
                        }
                        Ok(Frame::Metrics(m)) => {
                            // Diagnostic-only: alloc, phase, and graph
                            // counters are excluded from stats equality
                            // and from canonical JSON, so folding them
                            // in never perturbs the determinism
                            // contract.
                            report.total_stats.alloc.absorb(&m.alloc);
                            report.total_stats.phase.absorb(&m.phase);
                            report.total_stats.mograph_perf.absorb(&m.graph);
                        }
                        Ok(Frame::Coverage(map)) => {
                            // Diagnostic-only, and mergeable: the
                            // child's batched fold aggregates to the
                            // exact map an in-process run would have
                            // built from the same executions.
                            report.coverage.merge(&map);
                        }
                        Ok(Frame::Done(reason)) => {
                            let _ = child.wait();
                            break Ok(ChildOutcome::Finished(reason));
                        }
                        Err(e) => {
                            // A live child speaking garbage is a bug in
                            // the harness, not in the program under
                            // test.
                            let _ = child.kill();
                            let _ = child.wait();
                            break Err(format!("worker protocol violation: {e}"));
                        }
                    }
                }
                // Stream ended (EOF or cut mid-frame) without `done`:
                // the child died mid-execution. Triage the death.
                Some(Err(_)) | None => {
                    let status = child
                        .wait()
                        .map_err(|e| format!("cannot reap worker: {e}"))?;
                    break Ok(ChildOutcome::Died {
                        completed,
                        kind: triage(status),
                    });
                }
            }
        };
        let _ = reader.join();
        outcome
    }

    /// Processes one batch, respawning children past crashes until the
    /// range is covered or an early stop triggers.
    fn run_batch(
        &self,
        config: &Config,
        template: &WorkerSpec,
        start: u64,
        len: u64,
        deadline_at: Option<Instant>,
    ) -> Result<BatchResult, String> {
        let mut result = BatchResult {
            aggregate: TestReport::default(),
            crashes: Vec::new(),
            stop_reason: StopReason::BudgetExhausted,
            health: ForkHealth::default(),
        };
        let end = start + len;
        let mut cursor = start;
        // Consecutive children that exited (not signal/timeout) without
        // completing a single execution: that is the signature of a
        // broken worker binary, not of a crashing target — escalate to
        // an infrastructure error instead of spawning one child per
        // remaining index.
        let mut barren_exits = 0u32;
        const MAX_BARREN_EXITS: u32 = 3;
        while cursor < end {
            let spec = WorkerSpec {
                first_index: cursor,
                executions: end - cursor,
                ..template.clone()
            };
            if cursor != start {
                // Every spawn past the first covers a post-crash
                // remainder of the batch.
                result.health.respawns += 1;
            }
            match self.run_child(
                &spec,
                deadline_at,
                &mut result.aggregate,
                &mut result.health,
            )? {
                ChildOutcome::Finished(reason) => {
                    result.stop_reason = reason;
                    break;
                }
                ChildOutcome::DeadlineExpired => {
                    result.stop_reason = StopReason::Deadline;
                    break;
                }
                ChildOutcome::Died { completed, kind } => {
                    let index = cursor + completed;
                    if index >= end {
                        // The child died *after* completing every
                        // execution in its range (e.g. killed between
                        // its last exec frame and the `done` frame):
                        // nothing was in flight, so there is no crash
                        // to record.
                        break;
                    }
                    if matches!(kind, CrashKind::Exit(_)) && completed == 0 {
                        barren_exits += 1;
                        if barren_exits >= MAX_BARREN_EXITS {
                            return Err(format!(
                                "worker `{}` exited {barren_exits} times in a row without \
                                 completing a single execution — broken worker binary? \
                                 (it must support `--worker`; run it by hand to see its error)",
                                self.program.display(),
                            ));
                        }
                    } else {
                        barren_exits = 0;
                    }
                    result.crashes.push(CrashRecord {
                        index,
                        strategy: config.strategy_for(index).spec(),
                        kind,
                    });
                    cursor = index + 1;
                }
            }
        }
        Ok(result)
    }
}

/// How one child process ended.
enum ChildOutcome {
    /// The terminal `done` frame arrived.
    Finished(StopReason),
    /// The child died after streaming `completed` exec frames.
    Died { completed: u64, kind: CrashKind },
    /// The campaign deadline expired while the child was working; the
    /// child was killed and its in-flight execution is *not* a crash.
    DeadlineExpired,
}

struct BatchResult {
    aggregate: TestReport,
    crashes: Vec<CrashRecord>,
    stop_reason: StopReason,
    health: ForkHealth,
}

#[cfg(unix)]
fn triage(status: std::process::ExitStatus) -> CrashKind {
    use std::os::unix::process::ExitStatusExt;
    match status.signal() {
        Some(sig) => CrashKind::Signal(sig),
        // Exit 0 without a `done` frame is a protocol violation; keep
        // it visible as an exit-crash rather than silently dropping it.
        None => CrashKind::Exit(status.code().unwrap_or(-1)),
    }
}

#[cfg(not(unix))]
fn triage(status: std::process::ExitStatus) -> CrashKind {
    CrashKind::Exit(status.code().unwrap_or(-1))
}

impl Executor for ForkServer {
    fn name(&self) -> &'static str {
        "fork-server"
    }

    fn run_range(
        &self,
        config: &Config,
        workers: usize,
        target: &Target,
        first_index: u64,
        budget: &CampaignBudget,
    ) -> Result<RangeOutcome, String> {
        let start = Instant::now();
        let deadline_at = budget.deadline.map(|d| start + d);
        let end_index = first_index.saturating_add(budget.max_executions);
        let mut queue = VecDeque::new();
        let mut cursor = first_index;
        while cursor < end_index {
            let len = self.batch_size.min(end_index - cursor);
            queue.push_back((cursor, len));
            cursor += len;
        }
        let workers = workers.clamp(1, queue.len().max(1));
        let queue = Mutex::new(queue);
        // What every child of this range runs, up to its index slice.
        let template = WorkerSpec {
            target: target.name.to_string(),
            seed: config.seed,
            policy: config.policy,
            mix: config.mix.as_ref().map(|m| m.spec()),
            first_index,
            executions: 0,
            stop_on_first_bug: budget.stop_on_first_bug,
            // Children always report batch alloc counters (one
            // tiny frame per batch); phase profiling is forwarded
            // only when the parent itself is profiling.
            emit_metrics: true,
            profile_phases: c11tester_telemetry::profiling_enabled(),
            collect_coverage: c11tester_telemetry::coverage_enabled(),
            memory_limit: config.prune.limits_memory(),
        };
        // Handover is not on the worker flag surface: report the kind
        // the children's own config selects, not the parent's.
        let handover = template.config()?.handover.effective().name();
        let bug_stop = AtomicBool::new(false);
        let deadline_stop = AtomicBool::new(false);
        let failed = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<Result<BatchResult, String>>();
        // Diagnostic side channel: one message per pool thread at exit.
        let (mtx, mrx) = mpsc::channel::<WorkerMetrics>();

        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let mtx = mtx.clone();
                let (queue, template) = (&queue, &template);
                let (bug_stop, deadline_stop, failed) = (&bug_stop, &deadline_stop, &failed);
                scope.spawn(move || {
                    let busy_start = Instant::now();
                    let mut completed = 0u64;
                    loop {
                        if bug_stop.load(Ordering::Relaxed) || failed.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Some(deadline) = budget.deadline {
                            if start.elapsed() >= deadline {
                                deadline_stop.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                        let Some((batch_start, len)) =
                            queue.lock().expect("queue lock").pop_front()
                        else {
                            break;
                        };
                        let result =
                            self.run_batch(config, template, batch_start, len, deadline_at);
                        match &result {
                            Ok(batch) if batch.stop_reason == StopReason::FirstBug => {
                                bug_stop.store(true, Ordering::Relaxed);
                            }
                            Ok(batch) if batch.stop_reason == StopReason::Deadline => {
                                deadline_stop.store(true, Ordering::Relaxed);
                            }
                            Err(_) => failed.store(true, Ordering::Relaxed),
                            Ok(_) => {}
                        }
                        if let Ok(batch) = &result {
                            completed += batch.aggregate.executions;
                        }
                        if tx.send(result).is_err() {
                            break;
                        }
                    }
                    let _ = mtx.send(WorkerMetrics {
                        worker: w as u64,
                        executions: completed,
                        busy_nanos: busy_start.elapsed().as_nanos() as u64,
                        handover,
                    });
                });
            }
            drop(tx);
            drop(mtx);
        });

        let mut aggregate = TestReport::default();
        let mut crashes = Vec::new();
        let mut fork_health = ForkHealth::default();
        while let Ok(result) = rx.recv() {
            let batch = result?;
            aggregate.merge(&batch.aggregate);
            crashes.extend(batch.crashes);
            fork_health.absorb(&batch.health);
        }
        crashes.sort_by_key(|c| c.index);
        let mut worker_metrics: Vec<WorkerMetrics> = mrx.iter().collect();
        worker_metrics.sort_by_key(|m| m.worker);
        let stop_reason = if bug_stop.load(Ordering::Relaxed) {
            StopReason::FirstBug
        } else if deadline_stop.load(Ordering::Relaxed) {
            StopReason::Deadline
        } else {
            StopReason::BudgetExhausted
        };
        let metrics = CampaignMetrics {
            phase: aggregate.total_stats.phase,
            graph: aggregate.total_stats.mograph_perf.to_metrics(),
            workers: worker_metrics,
            fork: fork_health,
            executions: aggregate.executions,
            wall_nanos: start.elapsed().as_nanos() as u64,
            ..CampaignMetrics::default()
        };
        Ok(RangeOutcome {
            aggregate,
            crashes,
            stop_reason,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_covers_program_batch_and_timeout() {
        let fork = ForkServer::new("/bin/true")
            .with_batch_size(16)
            .with_exec_timeout(Some(Duration::from_millis(250)));
        assert_eq!(fork.program(), std::path::Path::new("/bin/true"));
        assert_eq!(fork.batch_size, 16);
        assert_eq!(fork.exec_timeout, Some(Duration::from_millis(250)));
        assert_eq!(fork.name(), "fork-server");
    }

    #[test]
    fn spawn_failure_is_an_error_not_a_crash() {
        // A missing worker binary is an infrastructure failure: the
        // pool must report it instead of fabricating crash records.
        let fork = ForkServer::new("/nonexistent/worker-binary");
        let target = c11tester_campaign::targets::find("rwlock-buggy").expect("target");
        let err = fork
            .run_range(
                &Config::new(),
                2,
                &target,
                0,
                &CampaignBudget::executions(4),
            )
            .unwrap_err();
        assert!(err.contains("cannot spawn worker"), "{err}");
    }

    #[test]
    fn a_worker_binary_that_never_completes_an_execution_is_an_error() {
        // `/bin/false` exits 1 with zero frames every time: that is a
        // broken worker binary, and must escalate to an infrastructure
        // error after a short streak instead of spawning one child per
        // budgeted execution.
        let program = std::path::Path::new("/bin/false");
        if !program.exists() {
            return; // exotic container; the contract is covered on CI
        }
        let fork = ForkServer::new(program);
        let target = c11tester_campaign::targets::find("rwlock-buggy").expect("target");
        let err = fork
            .run_range(
                &Config::new(),
                1,
                &target,
                0,
                &CampaignBudget::executions(1_000),
            )
            .unwrap_err();
        assert!(
            err.contains("without completing a single execution"),
            "{err}"
        );
    }

    // End-to-end fork-server behavior (real children, crashes,
    // timeouts, deadlines) is exercised in
    // crates/adaptive/tests/isolation.rs, where the `c11campaign`
    // binary with its `--worker` mode exists.
}
