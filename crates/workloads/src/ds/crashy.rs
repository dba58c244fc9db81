//! Deliberately crash-prone targets for exercising process isolation.
//!
//! The paper's evaluation runs real, buggy concurrent programs — and
//! real bugs do not stop at data-race reports: a racy read of a
//! not-yet-published pointer dereferences garbage and **segfaults the
//! process**. An in-process campaign cannot survive that; the fork
//! server (`c11tester-isolation`) turns the death into a
//! `CrashRecord`. These targets exist to prove that end to end:
//!
//! * [`run_null_deref`] — relaxed message passing where the consumer
//!   acts on the un-synchronized value: when the racy interleaving
//!   manifests (flag observed, payload still unpublished), it
//!   dereferences a null pointer exactly like the C original would.
//!   Whether a given execution crashes is a pure function of
//!   `(seed, execution index)`, so crash records are as deterministic
//!   as race reports.
//! * [`run_stack_overflow`] — unbounded recursion inside a model
//!   thread. Model threads are fibers on guard-paged stacks, so the
//!   overflow is a SIGSEGV in every execution rather than silent heap
//!   corruption.
//! * [`run_spin_forever`] — a model thread that spins without ever
//!   performing a model operation, so the cooperative scheduler can
//!   never preempt it and the execution wedges forever. Only
//!   meaningful under `--isolate --exec-timeout`; never run it
//!   in-process.

use c11tester::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Reads through a null pointer, killing the process with SIGSEGV —
/// the model-level stand-in for the C idiom of dereferencing a
/// pointer whose initialization the flag store failed to publish.
fn crash_like_the_c_program_would() -> u8 {
    let null: *const u8 = std::ptr::null();
    // SAFETY: none — this is a deliberate, documented crash. The read
    // of address 0 faults on every platform the workspace targets;
    // `read_volatile` keeps the optimizer from eliding it.
    unsafe { std::ptr::read_volatile(null) }
}

/// Message passing with the publication bug *and* the consequence: the
/// producer publishes a payload behind a relaxed flag, and a consumer
/// that sees the flag but reads the unpublished payload (a legal
/// relaxed outcome C11Tester explores deliberately) dereferences null.
///
/// Executions where the schedule/reads-from choices hide the bug
/// complete normally (reporting nothing or only the benign outcome);
/// executions where the stale read manifests **kill the process**.
pub fn run_null_deref() {
    let payload = Arc::new(AtomicU32::named("crashy.payload", 0));
    let flag = Arc::new(AtomicU32::named("crashy.flag", 0));
    let (p2, f2) = (Arc::clone(&payload), Arc::clone(&flag));
    let producer = c11tester::thread::spawn(move || {
        p2.store(42, Ordering::Relaxed);
        f2.store(1, Ordering::Relaxed); // bug: should be Release
    });
    if flag.load(Ordering::Acquire) == 1 && payload.load(Ordering::Relaxed) == 0 {
        // Flag observed but payload unpublished: the C original would
        // now use an uninitialized pointer.
        let _ = crash_like_the_c_program_would();
    }
    producer.join();
}

/// Recurses until the stack runs out. `black_box` keeps every frame's
/// pad live and the call out of tail position, so the optimizer cannot
/// turn the recursion into a loop.
#[allow(unconditional_recursion)]
fn recurse_forever(depth: u64) -> u64 {
    let pad = std::hint::black_box([depth; 32]);
    recurse_forever(depth + 1) + pad[depth as usize % 32]
}

/// Overflows the stack of a spawned model thread: the program-level
/// stand-in for runaway recursion in the code under test. Under fiber
/// handover the fault lands in the stack's guard page and kills the
/// process with SIGSEGV in every execution.
pub fn run_stack_overflow() {
    c11tester::thread::spawn(|| {
        std::hint::black_box(recurse_forever(0));
    })
    .join();
}

/// Spins forever without a single model operation: the cooperative
/// run-token scheduler can never take control back, so the execution
/// hangs — in-process this wedges a campaign worker irrecoverably;
/// under the fork server `--exec-timeout` kills the child and records
/// a timeout `CrashRecord`.
pub fn run_spin_forever() {
    loop {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    // `run_null_deref` can only be exercised from a process that is
    // allowed to die (crates/adaptive/tests/isolation.rs spawns the
    // CLI for that); here we only pin the *healthy* path: executions
    // where the stale read does not manifest must complete and must
    // still be schedulable by the model.
    use c11tester::{Config, Model};

    #[test]
    fn healthy_interleavings_complete() {
        // Seed chosen so the first execution takes the non-crashing
        // path (the producer's stores land before the consumer reads,
        // or the flag read misses): the body itself must be a valid
        // model program.
        let mut model = Model::new(Config::new().with_seed(2));
        let report = model.run(super::run_null_deref);
        assert!(report.failure.is_none());
    }
}
