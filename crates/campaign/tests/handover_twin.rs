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
//!   unmodified under both kinds (`determinism.rs`, which owns them).

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
    c11tester_genprog::run_generated(3);
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
