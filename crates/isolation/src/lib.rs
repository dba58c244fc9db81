//! # c11tester-isolation
//!
//! Process-level isolation for campaigns: a **fork/exec worker pool**
//! in which executions run in long-lived child processes, so a program
//! under test that segfaults, aborts, or wedges takes down one child —
//! never the campaign.
//!
//! The C11Tester paper evaluates real, crash-prone concurrent
//! programs; for those, the crash *is* the detection signal. The
//! in-process [`c11tester_campaign::Campaign`] cannot express that —
//! one SIGSEGV kills every worker thread and all accumulated state.
//! The [`ForkServer`] implements the campaign's [`Executor`]
//! abstraction differently:
//!
//! 1. pool workers claim contiguous **batches** of the global
//!    execution-index range from the campaign's one queue
//!    ([`c11tester_campaign::pool`]), and each spawns **one child** at its
//!    first batch, re-entering the campaign binary via the hidden
//!    `c11campaign --worker` mode. The child is identified **purely by
//!    `(target, seed)`** plus the configuration flags — no closures, no
//!    shared memory ([`worker::WorkerSpec`]);
//! 2. the worker sends the child one request line per batch (first
//!    index, count, time left) on its stdin; the child runs exactly the
//!    executions an in-process campaign would have run at those
//!    indices, folding them with the in-process fold
//!    ([`c11tester_campaign::pool::fold_claims`]) on a fresh model per
//!    batch;
//! 3. the child writes one empty **tick** frame per completed execution
//!    and ends the batch with one **batch** frame — its fold of the
//!    batch, a lossless [`c11tester::TestReport`] — and a `done` frame
//!    ([`protocol`]); the parent merges the fold;
//! 4. a child that dies mid-batch was mid-execution: the parent triages
//!    the death (signal, exit code, or `exec_timeout` kill) into a
//!    [`CrashRecord`] at global index `first + ticks received`, replaces
//!    the child, **re-runs the completed prefix** (its fold died with
//!    the child) and continues after the crash. Ranges only shrink, so
//!    the budget always completes;
//! 5. when the queue drains or a stop triggers, the worker closes the
//!    child's stdin; the child exits 0 and is reaped. Children never
//!    outlive [`Executor::run_range`].
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
//! The fork server writes requests to pipes whose reader may have just
//! died: the campaign process must not die of `SIGPIPE` while it runs
//! (Rust's default disposition, ignored, is right; `c11campaign`
//! restores the default only to print its report).
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

use crate::protocol::{read_frame, Frame, Request};
use c11tester::{Config, StrategyMix, TestReport};
use c11tester_campaign::pool::{run_pool, Claim, Pool, Share};
use c11tester_campaign::targets::Target;
use c11tester_campaign::{
    CampaignBudget, CrashKind, CrashRecord, Executor, RangeOutcome, StopReason,
};
use c11tester_telemetry::ForkHealth;
use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::process::{ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default executions per batch: the unit of fold, fresh state and
/// crash re-run.
///
/// Large enough that the batch frame and the per-batch model are noise
/// next to the executions, small enough that a crash (which re-runs the
/// batch's completed prefix) stays cheap.
pub const DEFAULT_BATCH_SIZE: u64 = 64;

/// How long the parent waits past the campaign deadline for a child to
/// finish its in-flight execution and ship its batch fold. Children stop
/// between executions once the deadline passes, so only an execution
/// that never returns meets this backstop, which kills the child.
const DEADLINE_GRACE: Duration = Duration::from_secs(1);

/// Consecutive deaths without progress (an exit before the first tick,
/// or a death after the last tick but before the batch frame) after
/// which a batch gives up: the signature of a broken worker binary, not
/// of a crashing target.
const MAX_BARREN_DEATHS: u32 = 3;

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

    /// Sets the number of executions per batch: the unit of fold, fresh
    /// state and crash re-run.
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

    /// Spawns one worker child and the thread that forwards its frames.
    fn spawn(&self, spec: &WorkerSpec, health: &mut ForkHealth) -> Result<Child, String> {
        let mut process = Command::new(&self.program)
            .args(spec.to_args())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn worker `{}`: {e}", self.program.display()))?;
        health.spawns += 1;
        let stdin = process.stdin.take();
        let stdout = process.stdout.take().expect("stdout was piped");
        let (tx, frames) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            // Forward frames until the stream ends or fails (the
            // failure is forwarded too).
            let mut input = BufReader::new(stdout);
            while let Some(frame) = read_frame(&mut input).transpose() {
                let failed = frame.is_err();
                if tx.send(frame).is_err() || failed {
                    break;
                }
            }
        });
        Ok(Child {
            process,
            stdin,
            frames,
            reader: Some(reader),
        })
    }

    /// Sends `request` to `child` and collects its frames, bounded by
    /// the per-execution timeout and the campaign deadline. With `last`
    /// the child's stdin closes behind the request, so the child exits
    /// as soon as it has served it instead of when it is dropped.
    /// `Err` is a protocol violation by a live child (which is killed).
    fn serve(
        &self,
        child: &mut Child,
        request: Request,
        last: bool,
        deadline_at: Option<Instant>,
        health: &mut ForkHealth,
    ) -> Result<Served, String> {
        if let Some(stdin) = child.stdin.as_mut() {
            // A child that died before reading its request shows up as
            // the end of its stream below; the failed write adds nothing.
            let _ = stdin.write_all(request.line().as_bytes());
        }
        if last {
            child.stdin = None;
        }
        let backstop = deadline_at.map(|at| at + DEADLINE_GRACE);
        let mut last_frame_at = Instant::now();
        let (mut ticks, mut fold) = (0u64, None);
        loop {
            // Wait for the next frame, bounded by the per-execution
            // timeout and/or the deadline backstop (whichever is
            // nearer). Without either, wait forever.
            let wait = match (self.exec_timeout, backstop) {
                (None, None) => None,
                (timeout, Some(at)) => {
                    let remaining = at.saturating_duration_since(Instant::now());
                    Some(timeout.map_or(remaining, |t| t.min(remaining)))
                }
                (Some(t), None) => Some(t),
            };
            let msg = match wait {
                Some(wait) => match child.frames.recv_timeout(wait) {
                    Ok(msg) => Some(msg),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        child.kill();
                        // Distinguish "this execution overran its
                        // budget" from "the whole campaign ran out of
                        // time": only the former is a crash.
                        if deadline_at.is_some_and(|at| Instant::now() >= at) {
                            return Ok(Served::DeadlineExpired);
                        }
                        health.timeout_kills += 1;
                        return Ok(Served::Died {
                            ticks,
                            kind: CrashKind::Timeout,
                        });
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => None,
                },
                None => child.frames.recv().ok(),
            };
            let payload = match msg {
                Some(Ok(payload)) => payload,
                // The stream ended, between frames or inside one: the
                // child died mid-batch. Triage the death.
                None => return child.death(ticks),
                Some(Err(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                    return child.death(ticks)
                }
                // Anything else a live child sends is a bug in the
                // harness (or a target writing to stdout), not a crash
                // of the program under test.
                Some(Err(e)) => return child.violation(e),
            };
            // Frame round-trip time: the gap between the request (or
            // the previous frame) and this frame's arrival.
            let rtt = last_frame_at.elapsed().as_nanos() as u64;
            last_frame_at = Instant::now();
            health.frames += 1;
            health.frame_rtt_nanos_total += rtt;
            health.frame_rtt_nanos_max = health.frame_rtt_nanos_max.max(rtt);
            match protocol::parse_frame(&payload) {
                Ok(Frame::Tick) if fold.is_none() && ticks < request.count => ticks += 1,
                Ok(Frame::Batch(report)) if fold.is_none() && report.executions == ticks => {
                    fold = Some(report);
                }
                Ok(Frame::Done(reason)) if fold.is_some() => {
                    return Ok(Served::Finished(fold.take().unwrap_or_default(), reason));
                }
                Ok(_) => {
                    return child.violation(format!(
                        "frame out of order after {ticks} of {} ticks",
                        request.count
                    ))
                }
                Err(e) => return child.violation(e),
            }
        }
    }

    /// Runs the claimed batch on the pool worker's child (spawned here
    /// at the worker's first batch), replacing a child that dies and
    /// re-running past the death until the batch is covered or a stop
    /// triggers. With `claim.last` no batch is left in the queue, so
    /// the child's final request can close its stdin.
    fn run_batch(
        &self,
        config: &Config,
        spec: &WorkerSpec,
        slot: &mut Option<Child>,
        claim: Claim,
        pool: &Pool,
        share: &mut Share,
    ) -> Result<StopReason, String> {
        let deadline_at = pool.deadline_at();
        // Ranges left to run, next on top: the batch, then what deaths
        // leave of it.
        let mut pending = vec![(claim.range.start, claim.range.end - claim.range.start)];
        let mut barren = 0u32;
        while let Some((first, count)) = pending.pop() {
            if slot.is_none() {
                *slot = Some(self.spawn(spec, &mut share.fork)?);
            }
            let child = slot.as_mut().expect("spawned above");
            let request = Request {
                first,
                count,
                time_left: deadline_at.map(|at| at.saturating_duration_since(Instant::now())),
            };
            let last = claim.last && pending.is_empty();
            match self.serve(child, request, last, deadline_at, &mut share.fork)? {
                Served::Finished(fold, reason) => {
                    share.fold.merge(&fold);
                    barren = 0;
                    if reason != StopReason::BudgetExhausted {
                        return Ok(reason);
                    }
                }
                Served::DeadlineExpired => {
                    *slot = None;
                    return Ok(StopReason::Deadline);
                }
                Served::Died { ticks, kind } => {
                    // Replace the dead child at once: one spawn per pool
                    // worker, plus one per death.
                    *slot = None;
                    *slot = Some(self.spawn(spec, &mut share.fork)?);
                    share.fork.respawns += 1;
                    if ticks == count || (matches!(kind, CrashKind::Exit(_)) && ticks == 0) {
                        barren += 1;
                        if barren >= MAX_BARREN_DEATHS {
                            return Err(format!(
                                "worker `{}` died {barren} times in a row without completing \
                                 a single execution or shipping its batch — broken worker \
                                 binary? (it must support `--worker`; run it by hand to see \
                                 its error)",
                                self.program.display(),
                            ));
                        }
                    } else {
                        barren = 0;
                    }
                    if ticks < count {
                        let index = first + ticks;
                        share.crashes.push(CrashRecord {
                            index,
                            strategy: config.strategy_for(index).spec(),
                            kind,
                        });
                        if ticks + 1 < count {
                            pending.push((index + 1, count - ticks - 1));
                        }
                    }
                    // The fold of the completed prefix died with the
                    // child: the replacement runs it again.
                    if ticks > 0 {
                        share.fork.rerun_executions += ticks;
                        pending.push((first, ticks));
                    }
                }
            }
        }
        Ok(StopReason::BudgetExhausted)
    }
}

/// One live worker child: its stdin (requests) and the thread that
/// forwards its frames.
struct Child {
    process: std::process::Child,
    stdin: Option<ChildStdin>,
    frames: mpsc::Receiver<std::io::Result<String>>,
    reader: Option<JoinHandle<()>>,
}

impl Child {
    fn kill(&mut self) {
        let _ = self.process.kill();
        let _ = self.process.wait();
    }

    /// Reaps a child whose stream ended mid-batch and triages how it
    /// died. Nothing more can arrive from it, so a child that closed its
    /// stdout but lingers (blocked on its next request) is killed first
    /// instead of waited on forever; a dead child's exit status is fixed
    /// before its stdout closes, so the kill does not change it.
    fn death(&mut self, ticks: u64) -> Result<Served, String> {
        let _ = self.process.kill();
        let status = self
            .process
            .wait()
            .map_err(|e| format!("cannot reap worker: {e}"))?;
        Ok(Served::Died {
            ticks,
            kind: triage(status),
        })
    }

    fn violation<T>(&mut self, what: impl std::fmt::Display) -> Result<T, String> {
        self.kill();
        Err(format!("worker protocol violation: {what}"))
    }
}

impl Drop for Child {
    /// Closing stdin is how a healthy child is told to exit: it reads
    /// end of input, exits 0, and is reaped here. A dead or killed child
    /// is reaped already.
    fn drop(&mut self) {
        drop(self.stdin.take());
        let _ = self.process.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// How one request to a child ended.
enum Served {
    /// The batch frame and `done` arrived (boxed: a report is two
    /// orders of magnitude larger than the other variants).
    Finished(Box<TestReport>, StopReason),
    /// The child died after `ticks` ticks.
    Died { ticks: u64, kind: CrashKind },
    /// The campaign deadline passed while the child was working, and it
    /// did not ship within [`DEADLINE_GRACE`]; it was killed, and its
    /// in-flight execution is *not* a crash.
    DeadlineExpired,
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

/// Refuses a parent config that differs from the one its children
/// rebuild from the worker flags, naming the first lost field: the
/// children would silently run another configuration. Handover is
/// excluded by design (it changes how threads hand over, not what an
/// execution does).
fn check_carried(parent: &Config, child: &Config) -> Result<(), String> {
    let lost = [
        (
            "volatile_load_order",
            parent.volatile_load_order != child.volatile_load_order,
        ),
        (
            "volatile_store_order",
            parent.volatile_store_order != child.volatile_store_order,
        ),
        ("max_events", parent.max_events != child.max_events),
        ("prune", parent.prune != child.prune),
    ];
    match lost.into_iter().find(|&(_, differs)| differs) {
        Some((field, _)) => Err(format!(
            "the fork server cannot carry `Config::{field}` to its workers \
             (their flags carry seed, policy, strategy mix and --memory-limit)"
        )),
        None => Ok(()),
    }
}

impl Executor for ForkServer {
    fn run_range(
        &self,
        config: &Config,
        workers: usize,
        target: &Target,
        first_index: u64,
        budget: &CampaignBudget,
    ) -> Result<RangeOutcome, String> {
        // What every child of this range runs; batches arrive as
        // requests. The mix always goes over (a single strategy as a
        // one-entry mix, which assigns it to every index), so no child
        // falls back to its policy's default strategy.
        let mix = config
            .mix
            .clone()
            .unwrap_or_else(|| StrategyMix::single(config.strategy));
        let spec = WorkerSpec {
            target: target.name.to_string(),
            seed: config.seed,
            policy: config.policy,
            mix: Some(mix.spec()),
            stop_on_first_bug: budget.stop_on_first_bug,
            // Phase profiling and coverage are forwarded only when the
            // parent itself collects them.
            profile_phases: c11tester_telemetry::profiling_enabled(),
            collect_coverage: c11tester_telemetry::coverage_enabled(),
            memory_limit: config.prune.limits_memory(),
        };
        // Handover is not on the worker flag surface: report the kind
        // the children's own config selects, not the parent's. Any
        // other field the flags lose refuses the range before a spawn.
        let child = spec.config()?;
        check_carried(config, &child)?;
        let handover = child.handover.effective().name();
        run_pool(
            workers,
            first_index,
            budget,
            self.batch_size,
            handover,
            |pool| {
                let mut share = Share::default();
                // Dropping the child closes its stdin, which ends it: healthy
                // children end by end of input, never by kill.
                let mut child = None;
                while let Some(claim) = pool.claim() {
                    let reason =
                        self.run_batch(config, &spec, &mut child, claim, pool, &mut share)?;
                    pool.record(reason);
                }
                Ok(share)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that spawns children. A fake worker script
    /// must not be written while another test forks: the forked child
    /// holds the script's write descriptor until its own `exec`, and
    /// executing the script meanwhile fails with `ETXTBSY`.
    fn spawn_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn builder_covers_program_batch_and_timeout() {
        let fork = ForkServer::new("/bin/true")
            .with_batch_size(16)
            .with_exec_timeout(Some(Duration::from_millis(250)));
        assert_eq!(fork.program(), std::path::Path::new("/bin/true"));
        assert_eq!(fork.batch_size, 16);
        assert_eq!(fork.exec_timeout, Some(Duration::from_millis(250)));
    }

    #[test]
    fn spawn_failure_is_an_error_not_a_crash() {
        // A missing worker binary is an infrastructure failure: the
        // pool must report it instead of fabricating crash records.
        let _spawn = spawn_lock();
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
        let _spawn = spawn_lock();
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

    /// Runs a one-worker range on a fake worker: a `/bin/sh` script with
    /// `body`. `None` when the host has no `/bin/sh`.
    #[cfg(unix)]
    fn run_fake_worker(name: &str, body: &str) -> Option<Result<RangeOutcome, String>> {
        use std::os::unix::fs::PermissionsExt;
        if !std::path::Path::new("/bin/sh").exists() {
            return None; // exotic container; the contract is covered on CI
        }
        let _spawn = spawn_lock();
        let script = std::env::temp_dir().join(format!("c11-{name}-{}", std::process::id()));
        std::fs::write(&script, format!("#!/bin/sh\n{body}\n")).expect("write script");
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755))
            .expect("chmod script");
        let target = c11tester_campaign::targets::find("rwlock-buggy").expect("target");
        let outcome = ForkServer::new(&script).run_range(
            &Config::new(),
            1,
            &target,
            0,
            &CampaignBudget::executions(4),
        );
        let _ = std::fs::remove_file(&script);
        Some(outcome)
    }

    #[cfg(unix)]
    #[test]
    fn a_child_printing_deeply_nested_json_is_a_protocol_violation() {
        // A target may write anything to its stdout. A frame of a
        // megabyte of `[` must end the campaign with an error, not
        // recurse the parent's frame reader off its stack.
        let n = 1 << 20;
        let digest = c11tester_telemetry::fnv1a(&vec![b'['; n]);
        let Some(outcome) = run_fake_worker(
            "nested-worker",
            &format!("echo '{n} {digest:016x}'\nhead -c {n} /dev/zero | tr '\\0' '['\necho"),
        ) else {
            return;
        };
        let err = outcome.unwrap_err();
        assert!(err.contains("worker protocol violation"), "{err}");
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[cfg(unix)]
    #[test]
    fn an_endless_length_line_is_a_bounded_protocol_violation() {
        // 32 MiB of digits and no newline: the parent must stop after
        // the 37 bytes a length line can have, and say so in a short error,
        // instead of buffering (and quoting) the whole stream.
        let Some(outcome) = run_fake_worker(
            "digits-worker",
            "head -c 33554432 /dev/zero | tr '\\0' '1'\ncat > /dev/null",
        ) else {
            return;
        };
        let err = outcome.unwrap_err();
        assert!(err.contains("worker protocol violation"), "{err}");
        assert!(err.contains("longer than 37 bytes"), "{err}");
        assert!(err.len() < 200, "{} bytes of error", err.len());
    }

    #[cfg(unix)]
    #[test]
    fn framing_errors_from_a_live_child_are_violations_not_crashes() {
        // Each child stays alive (reading its stdin) after the bad
        // bytes; none of them died, so none may become a crash record.
        let digest = |payload: &[u8]| format!("{:016x}", c11tester_telemetry::fnv1a(payload));
        for (name, body, expect) in [
            (
                "badlen-worker",
                "printf 'abc\\n'".to_string(),
                "bad frame length line",
            ),
            ("huge-worker", "printf '99999999\\n'".to_string(), "exceeds"),
            (
                "nodigest-worker",
                "printf '2\\nab\\n'".to_string(),
                "bad frame length line",
            ),
            (
                "baddigest-worker",
                format!("printf '2 {}\\nab\\n'", digest(b"ba")),
                "does not match",
            ),
            (
                "notutf8-worker",
                format!("printf '2 {}\\n\\377\\376\\n'", digest(b"\xff\xfe")),
                "not UTF-8",
            ),
            (
                "nonewline-worker",
                format!("printf '2 {}\\nab!'", digest(b"ab")),
                "trailing newline",
            ),
        ] {
            let Some(outcome) = run_fake_worker(name, &format!("{body}\ncat > /dev/null")) else {
                return;
            };
            let err = outcome.unwrap_err();
            assert!(err.contains("worker protocol violation"), "{name}: {err}");
            assert!(err.contains(expect), "{name}: {err}");
        }
    }

    // End-to-end fork-server behavior (real children, crashes,
    // timeouts, deadlines, fork accounting) is exercised in
    // the root package's tests/isolation.rs, where the `c11campaign`
    // binary with its `--worker` mode exists.
}
