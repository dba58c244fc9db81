//! Executes a generated [`Program`] under the model.
//!
//! The interpreter is deliberately rigid so the fuzz oracle can reason
//! about traces without spawn/join events:
//!
//! * the main thread (model thread 0) only creates and initializes
//!   the shared locations and mutexes, spawns every worker, and joins
//!   them — it performs **no accesses after the first spawn**, so
//!   every thread-0 trace event is an initialization event that
//!   happens-before everything else (the *init-prefix contract* the
//!   oracle checks structurally);
//! * worker thread `k` of the program runs on model thread `k + 1`
//!   (spawn order), so trace thread ids map one-to-one onto program
//!   threads.

use crate::program::{Op, Program};
use c11tester::sync::atomic::{fence, RawAtomic};
use c11tester::sync::Mutex;
use c11tester::{CaptureSink, Config, Model, TraceEvent, TraceKey};
use std::sync::Arc;

/// Runs one execution of the program body. Call inside a model
/// execution (a [`Model::run`] or campaign closure). Each thread gets
/// its own copy of its ops, because `p` is only borrowed; a program that
/// lives for the whole process runs without copies via [`run_shared`].
pub fn run_program(p: &Program) {
    run_with(p, |ops| ops.to_vec());
}

/// Runs one execution of a program that lives for the whole process —
/// the body behind a `gen:<pseed>` campaign target, which generates its
/// program once when first run. Every thread reads its ops from `p`:
/// nothing is generated or copied per execution.
pub fn run_shared(p: &'static Program) {
    run_with(p, |ops| ops);
}

/// The interpreter: `thread_ops` hands each spawned thread its op list.
fn run_with<'p, O>(p: &'p Program, thread_ops: impl Fn(&'p [Op]) -> O)
where
    O: AsRef<[Op]> + Send + 'static,
{
    let locs: Arc<Vec<RawAtomic>> = Arc::new(
        (0..p.locs)
            .map(|i| RawAtomic::new(Some(format!("g{i}")), 0))
            .collect(),
    );
    let mutexes: Arc<Vec<Mutex<()>>> = Arc::new(
        (0..p.mutexes)
            .map(|i| Mutex::named(format!("m{i}"), ()))
            .collect(),
    );
    let mut handles = Vec::with_capacity(p.threads.len());
    for ops in &p.threads {
        let ops = thread_ops(ops);
        let locs = Arc::clone(&locs);
        let mutexes = Arc::clone(&mutexes);
        handles.push(c11tester::thread::spawn(move || {
            run_ops(ops.as_ref(), &locs, &mutexes)
        }));
    }
    for h in handles {
        h.join();
    }
}

fn run_ops(ops: &[Op], locs: &[RawAtomic], mutexes: &[Mutex<()>]) {
    for op in ops {
        match op {
            Op::Load { loc, ord } => {
                let _ = locs[*loc].load(*ord);
            }
            Op::Store { loc, ord, value } => locs[*loc].store(*value, *ord),
            Op::Rmw { loc, ord, addend } => {
                let _ = locs[*loc].rmw(*ord, |old| old.wrapping_add(*addend));
            }
            Op::Cas {
                loc,
                success,
                failure,
                expected,
                new,
            } => {
                let _ = locs[*loc].compare_exchange(*expected, *new, *success, *failure);
            }
            Op::Fence { ord } => fence(*ord),
            Op::Region { mutex, ops } => {
                let _guard = mutexes[*mutex].lock();
                run_ops(ops, locs, mutexes);
            }
        }
    }
}

/// One captured execution of a sweep: its replay key and trace.
pub type SweepCapture = (TraceKey, Vec<TraceEvent>);

/// Runs `executions` model executions of `p` under `config` with
/// schedule tracing enabled and returns every captured trace in
/// execution-index order. This is the trace feed for the oracle: one
/// `(key, events)` pair per execution, keyed `(seed, 0, index)`.
pub fn sweep(p: &Program, config: Config, executions: u64) -> Vec<SweepCapture> {
    let sink = CaptureSink::new();
    let mut model = Model::new(config).with_trace_sink(Box::new(sink.clone()));
    for _ in 0..executions {
        let report = model.run(|| run_program(p));
        assert!(
            report.failure.is_none(),
            "generated program failed: {:?}",
            report.failure
        );
    }
    let mut captures = sink.take();
    captures.sort_by_key(|(k, _)| k.index);
    captures
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11tester_telemetry::TraceKind;

    #[test]
    fn concurrent_sweeps_each_equal_a_serial_sweep() {
        // Each sweep's model arms tracing through its own sink, so two
        // sweeps running at once cannot switch each other's traces off.
        let p = Program::generate(179);
        let config = || Config::new().with_seed(0xC11);
        let serial = sweep(&p, config(), 200);
        let start = std::sync::Barrier::new(2);
        let concurrent: Vec<_> = std::thread::scope(|s| {
            let sweeps: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        sweep(&p, config(), 200)
                    })
                })
                .collect();
            sweeps
                .into_iter()
                .map(|h| h.join().expect("sweep"))
                .collect()
        });
        for captures in concurrent {
            assert!(captures == serial, "a concurrent sweep diverged");
            for (key, events) in &captures {
                let violations = crate::check_trace(events);
                assert!(violations.is_empty(), "index {}: {violations:?}", key.index);
            }
        }
    }

    #[test]
    fn sweep_traces_are_keyed_and_deterministic() {
        let p = Program::generate(11);
        let a = sweep(&p, Config::new().with_seed(7), 4);
        let b = sweep(&p, Config::new().with_seed(7), 4);
        assert_eq!(a.len(), 4);
        for (i, ((ka, ea), (kb, eb))) in a.iter().zip(&b).enumerate() {
            assert_eq!(ka.index, i as u64);
            assert_eq!(ka.seed, 7);
            assert_eq!(ka, kb);
            assert_eq!(ea, eb, "execution {i} not replay-deterministic");
            assert!(!ea.is_empty());
        }
    }

    #[test]
    fn init_prefix_contract_holds() {
        // Every thread-0 event precedes every worker event, and worker
        // thread ids are 1..=threads.
        for pseed in [0, 3, 11, 42] {
            let p = Program::generate(pseed);
            for (_, events) in sweep(&p, Config::new().with_seed(1), 2) {
                let first_worker = events
                    .iter()
                    .position(|e| e.thread != 0)
                    .expect("workers commit events");
                assert!(
                    events[..first_worker].iter().all(|e| e.thread == 0),
                    "pseed {pseed}: thread-0 event after a worker event"
                );
                assert!(events[first_worker..].iter().all(|e| e.thread != 0));
                for e in &events {
                    assert!((e.thread as usize) <= p.threads.len());
                }
            }
        }
    }

    #[test]
    fn fences_appear_in_traces() {
        // pseed chosen so the program contains a fence.
        let fenced = (0..200)
            .map(Program::generate)
            .find(|p| {
                p.threads
                    .iter()
                    .any(|t| t.iter().any(|op| matches!(op, Op::Fence { .. })))
            })
            .expect("some program has a fence");
        let captures = sweep(&fenced, Config::new().with_seed(3), 2);
        let has_fence = captures
            .iter()
            .any(|(_, ev)| ev.iter().any(|e| e.kind == TraceKind::Fence));
        assert!(has_fence, "fence ops must produce fence trace events");
    }
}
