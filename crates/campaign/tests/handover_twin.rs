//! Fiber-vs-Park twin (library level).
//!
//! The runtime has two ways to run a model thread: a fiber on the
//! driver's OS thread (the default) and a pooled OS thread parked on a
//! futex mailbox (the fallback where fibers are unavailable). The
//! handover must be observationally invisible, so Park is the
//! reference these tests hold the fiber path to:
//!
//! * every execution of a model's stream produces the same report
//!   under either kind;
//! * canonical campaign JSON is byte-identical across kinds at 1/4/8
//!   workers — worker count also permutes which executions share a
//!   warm pool;
//! * the parent-generated graph and memory-limit fixtures reproduce
//!   unmodified under both kinds (`determinism.rs`, which owns them);
//! * a *poisoned* execution is torn down in the same order under both:
//!   the engine has no lock, so eight pooled OS threads unwinding
//!   through model operations in their `Drop` code must do so one at a
//!   time, in the order `join_all` resumes fibers.

use c11tester::{Config, HandoverKind, Model};
use c11tester_campaign::{Campaign, CampaignBudget};

/// 10 child threads + main: wide enough that the Park pool runs well
/// past one worker and fiber stacks are recycled within an execution.
fn wide_program() {
    use c11tester::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let x = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..10)
        .map(|i| {
            let x = Arc::clone(&x);
            c11tester::thread::spawn(move || {
                x.fetch_add(1, Ordering::AcqRel);
                x.store(i + 1, Ordering::Release);
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
}

fn racy_program() {
    c11tester_workloads::ds::rwlock_buggy::run_buggy();
}

fn generated_program() {
    c11tester_genprog::run_program(&c11tester_genprog::Program::generate(3));
}

const PROGRAMS: [(&str, fn()); 3] = [
    ("rwlock_buggy", racy_program),
    ("wide", wide_program),
    ("gen:3", generated_program),
];

#[test]
fn fiber_model_stream_equals_park_per_execution() {
    for (name, program) in PROGRAMS {
        let config = |kind| Config::new().with_seed(0x9001).with_handover(kind);
        let mut fiber = Model::new(config(HandoverKind::Fiber));
        let mut park = Model::new(config(HandoverKind::Park));
        for index in 0..12 {
            // From index 1 on, the Park model re-dispatches onto warm
            // pooled workers and the fiber model onto recycled stacks.
            let (f, p) = (fiber.run(program), park.run(program));
            assert_eq!(f.execution_index, index);
            assert_eq!(
                (&f.races, &f.failure, &f.stats, &f.strategy),
                (&p.races, &p.failure, &p.stats, &p.strategy),
                "{name}: execution {index} diverged fiber-vs-park"
            );
        }
    }
}

#[test]
fn canonical_json_identical_fiber_vs_park_across_worker_counts() {
    let budget = CampaignBudget::executions(24);
    for (name, program) in PROGRAMS {
        let run = |kind, workers| {
            Campaign::new(Config::new().with_seed(0x9002).with_handover(kind))
                .with_workers(workers)
                .run(&budget, program)
                .canonical_json()
        };
        let reference = run(HandoverKind::Park, 1);
        for workers in [1, 4, 8] {
            for kind in [HandoverKind::Fiber, HandoverKind::Park] {
                assert_eq!(
                    run(kind, workers),
                    reference,
                    "{name}: canonical JSON diverged ({}, {workers} workers)",
                    kind.name()
                );
            }
        }
    }
}

/// Eight child threads, each holding a model `Mutex` guard and a
/// [`Noisy`] whose `Drop` performs 60 model operations; thread 5 fails
/// an assertion mid-run. Its own unwind runs those operations as
/// ordinary scheduled ones; then the execution is poisoned and every
/// other thread — parked at a scheduling point or on `gate` — unwinds
/// through the same `Drop` code with nothing to schedule it.
fn poisoned_teardown_program() {
    use c11tester::sync::atomic::{AtomicU64, Ordering};
    use c11tester::sync::Mutex;
    use c11tester::SharedArray;
    use std::sync::Arc;

    struct State {
        words: [AtomicU64; 3],
        cells: SharedArray<u64>,
        gate: Mutex<u64>,
    }

    /// 30 atomic + 30 non-atomic operations on drop.
    struct Noisy(Arc<State>, usize);
    impl Drop for Noisy {
        fn drop(&mut self) {
            let (st, me) = (&self.0, self.1);
            for k in 0..10 {
                let seen = st.words[k % 3].load(Ordering::Acquire);
                st.words[(k + 1) % 3].fetch_add(seen | 1, Ordering::AcqRel);
                st.words[(k + 2) % 3].store(k as u64, Ordering::Release);
                let cell = (me + k) % st.cells.len();
                st.cells.set(cell, st.cells.get(cell) + st.cells.get(me));
            }
        }
    }

    let state = Arc::new(State {
        words: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        cells: SharedArray::named("teardown.cells", 8, 0),
        gate: Mutex::named("teardown.gate", 0),
    });
    let handles: Vec<_> = (0..8)
        .map(|me| {
            let st = Arc::clone(&state);
            c11tester::thread::spawn(move || {
                let own = Mutex::new(me);
                let _held = own.lock();
                let _noisy = Noisy(Arc::clone(&st), me);
                for round in 0..3 {
                    st.words[me % 3].fetch_add(1, Ordering::AcqRel);
                    *st.gate.lock() += round;
                    assert!(me != 5 || round < 1, "thread 5 fails mid-run");
                }
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
}

/// 200 indices per seed where it is cheap and where it matters most:
/// CI runs this file under `cargo test --release`, the build in which
/// the engine cell's tripwire is the only check left. A debug build
/// (tier-1 `cargo test`) takes a fifth of the stream.
const TEARDOWN_INDICES: u64 = if cfg!(debug_assertions) { 40 } else { 200 };

#[test]
fn poisoned_teardown_is_identical_fiber_vs_park() {
    for seed in [0x7EA2_0001_u64, 0x7EA2_0002, 0x7EA2_0003] {
        let config = |kind| Config::new().with_seed(seed).with_handover(kind);
        let mut fiber = Model::new(config(HandoverKind::Fiber));
        let mut park = Model::new(config(HandoverKind::Park));
        for index in 0..TEARDOWN_INDICES {
            let (f, p) = (
                fiber.run(poisoned_teardown_program),
                park.run(poisoned_teardown_program),
            );
            assert!(
                matches!(&f.failure, Some(c11tester::Failure::Panic(m)) if m.contains("thread 5")),
                "seed {seed:#x} execution {index}: {:?}",
                f.failure
            );
            assert_eq!(
                (&f.races, &f.failure, &f.stats),
                (&p.races, &p.failure, &p.stats),
                "seed {seed:#x}: execution {index} diverged fiber-vs-park"
            );
        }
        let budget = CampaignBudget::executions(TEARDOWN_INDICES);
        let run = |kind, workers| {
            Campaign::new(config(kind))
                .with_workers(workers)
                .run(&budget, poisoned_teardown_program)
                .canonical_json()
        };
        let reference = run(HandoverKind::Park, 1);
        for workers in [1, 4, 8] {
            for kind in [HandoverKind::Fiber, HandoverKind::Park] {
                assert!(
                    run(kind, workers) == reference,
                    "seed {seed:#x}: canonical JSON diverged ({}, {workers} workers)",
                    kind.name()
                );
            }
        }
    }
}
