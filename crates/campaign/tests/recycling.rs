//! Recycling determinism contract (library level).
//!
//! The hot-path allocation overhaul recycles `Execution` state between
//! the runs of a `Model` (arena, dense location table, mo-graph, and
//! scratch capacity survive; see `ARCHITECTURE.md` "hot path &
//! allocation discipline"). These tests pin the contract that makes
//! that legal:
//!
//! * a recycled execution is **observationally identical** to a fresh
//!   one — same reports, same behavioral stats, same canonical JSON;
//! * worker count changes *which* executions share a recycled state
//!   (worker `w` recycles along its shard `w, w+N, …`), so canonical
//!   byte-identity across 1/4/8 workers exercises every mixing of
//!   recycled-vs-fresh provisioning;
//! * clock vectors spill transparently past
//!   [`c11tester_core::INLINE_SLOTS`] threads — the inline→spill
//!   transition must be equally invisible;
//! * the whole execution *context* is recycled, not just the
//!   `Execution`: thread table, strategy box, fiber slot records or
//!   pooled OS threads — through executions of any width and any
//!   ending.

use c11tester::{Config, Model, TestReport};
use c11tester_campaign::{json, Campaign, CampaignBudget};

/// A workload with 10 child threads + main: clock vectors must spill
/// past the 8-slot inline capacity, and the spilled vectors are
/// exercised by RMWs, release/acquire pairs, and race-checked
/// non-atomic cells.
fn wide_program() {
    use c11tester::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let x = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..10)
        .map(|i| {
            let x = Arc::clone(&x);
            c11tester::thread::spawn(move || {
                x.fetch_add(1, Ordering::AcqRel);
                let _ = x.load(Ordering::Acquire);
                x.store(i + 1, Ordering::Release);
            })
        })
        .collect();
    for h in handles {
        h.join();
    }
    let final_value = x.load(Ordering::Acquire);
    assert!(final_value <= 20, "model atomics stayed coherent");
}

fn racy_program() {
    c11tester_workloads::ds::rwlock_buggy::run_buggy();
}

/// The strictest form of recycled-vs-fresh: replay every index of a
/// recycling model's stream on brand-new (never-recycled) models and
/// require identical per-execution reports and aggregate.
#[test]
fn recycled_model_stream_equals_fresh_model_replays() {
    let config = || Config::new().with_seed(0xA110C);
    let mut recycling = Model::new(config());
    let mut aggregate = TestReport::default();
    for index in 0..12 {
        // From index 1 on, this model runs on recycled state.
        let recycled_report = recycling.run(racy_program);
        assert_eq!(recycled_report.execution_index, index);
        // A fresh model replaying the same index recycles nothing.
        let mut fresh = Model::new(config());
        let fresh_report = fresh.run_at(index, racy_program);
        assert_eq!(
            recycled_report.races, fresh_report.races,
            "index {index}: races diverged recycled-vs-fresh"
        );
        assert_eq!(
            recycled_report.failure, fresh_report.failure,
            "index {index}: failure diverged recycled-vs-fresh"
        );
        assert_eq!(
            recycled_report.stats, fresh_report.stats,
            "index {index}: behavioral stats diverged recycled-vs-fresh"
        );
        // The provisioning diagnostics *do* see the difference — that
        // is their whole job — without affecting equality above.
        if index > 0 {
            assert_eq!(recycled_report.stats.alloc.recycled_executions, 1);
            assert_eq!(recycled_report.stats.alloc.fresh_executions, 0);
        }
        assert_eq!(fresh_report.stats.alloc.fresh_executions, 1);
        aggregate.absorb(&recycled_report);
    }
    // And the recycling model's aggregate equals the serial reference.
    let serial = Model::new(config()).run_many(12, racy_program);
    assert_eq!(aggregate, serial);
}

/// Canonical byte-identity across worker counts, which permutes the
/// recycled-vs-fresh provisioning of every execution index.
#[test]
fn canonical_json_identical_across_worker_counts_with_recycling() {
    for (name, program) in [
        ("racy", racy_program as fn()),
        ("wide-spill", wide_program as fn()),
    ] {
        let config = Config::new().with_seed(0xBEEF);
        let budget = CampaignBudget::executions(24);
        let reference = Campaign::new(config.clone())
            .with_workers(1)
            .run(&budget, program)
            .canonical_json();
        for workers in [4, 8] {
            let got = Campaign::new(config.clone())
                .with_workers(workers)
                .run(&budget, program)
                .canonical_json();
            assert_eq!(
                got, reference,
                "{name}: canonical JSON diverged at {workers} workers"
            );
        }
    }
}

/// The inline→spill transition of `ClockVector` (>8 threads) is
/// exercised, diagnosed, and behaviorally invisible.
#[test]
fn wide_workload_spills_clock_vectors_deterministically() {
    let config = || Config::new().with_seed(0x51DE);
    let mut recycling = Model::new(config());
    let first = recycling.run(wide_program);
    let second = recycling.run(wide_program);
    // Spills actually happened (11 threads > INLINE_SLOTS = 8)…
    assert!(
        first.stats.alloc.clock_spills > 0,
        "expected spilled clock vectors, got none — workload no longer wide?"
    );
    assert!(second.stats.alloc.clock_spills > 0);
    assert_eq!(second.stats.alloc.recycled_executions, 1);
    // …and the recycled index-1 execution matches a fresh replay.
    let fresh = Model::new(config()).run_at(1, wide_program);
    assert_eq!(second.races, fresh.races);
    assert_eq!(second.stats, fresh.stats);
    assert_eq!(second.failure, fresh.failure);
}

/// The alloc diagnostics stay out of the canonical form unless asked
/// for, and the opt-in form accounts for every execution.
#[test]
fn alloc_stats_only_surface_behind_the_flag() {
    let report = Campaign::new(Config::new().with_seed(9))
        .with_workers(1)
        .run(&CampaignBudget::executions(10), racy_program);
    let canonical = report.canonical_json();
    assert!(
        !canonical.contains("\"alloc\""),
        "default canonical JSON must not carry alloc diagnostics"
    );
    let with_alloc = json::canonical(&report, None, true);
    assert!(with_alloc.contains("\"alloc\":{\"fresh_executions\":"));
    // One worker: the first execution is fresh, the rest recycled.
    assert!(with_alloc.contains("\"alloc\":{\"fresh_executions\":1,\"recycled_executions\":9,"));
    // Stripping the alloc block recovers the canonical form exactly —
    // the flag adds information, never perturbs it.
    let start = with_alloc
        .find(",\"alloc\":{")
        .expect("alloc block present");
    let end = with_alloc[start..].find('}').expect("block closes") + start + 1;
    let stripped = format!("{}{}", &with_alloc[..start], &with_alloc[end..]);
    assert_eq!(stripped, canonical);
}

/// One model, one context, 64 executions of every shape the context
/// has state for: 1, 3 and 11 threads (the thread table and the fiber
/// slot records shrink and grow), a strategy mix (the strategy box is
/// replaced when the index switches kind), and the three ways an execution is cut short —
/// assertion failure, deadlock, event budget — each leaving threads to
/// be torn down mid-flight. Every report must equal the one a fresh
/// model produces for that index alone.
#[test]
fn recycled_context_equals_fresh_across_shapes_and_failures() {
    use c11tester::sync::atomic::{AtomicU64, Ordering};
    use c11tester::sync::{Condvar, Mutex};
    use c11tester::{Failure, HandoverKind, Shared, StrategyMix};
    use std::sync::Arc;

    fn solo() {
        let x = AtomicU64::new(1);
        x.fetch_add(x.load(Ordering::Relaxed), Ordering::AcqRel);
    }
    /// `children` threads racing on a cell and a counter; `then` runs
    /// on the main thread while they are all still live. The cell is
    /// anonymous: its report label is numbered per execution.
    fn fan_out(children: u64, then: impl FnOnce(&AtomicU64)) {
        let x = Arc::new(AtomicU64::new(0));
        let cell = Arc::new(Shared::new(0u64));
        let handles: Vec<_> = (0..children)
            .map(|i| {
                let (x, cell) = (Arc::clone(&x), Arc::clone(&cell));
                c11tester::thread::spawn(move || {
                    x.fetch_add(i + 1, Ordering::Relaxed);
                    cell.set(cell.get() + 1);
                    x.store(i, Ordering::Release);
                })
            })
            .collect();
        then(&x);
        for h in handles {
            h.join();
        }
    }
    fn three_threads() {
        fan_out(2, |_| {});
    }
    fn assertion_failure() {
        fan_out(3, |x| {
            assert!(x.load(Ordering::Acquire) > 1 << 40, "never true")
        });
    }
    fn deadlock() {
        fan_out(2, |_| {
            let (m, cv) = (Mutex::new(()), Condvar::new());
            drop(cv.wait(m.lock())); // nobody notifies
        });
    }
    fn runaway() {
        fan_out(2, |x| {
            for i in 0..10_000 {
                x.store(i, Ordering::SeqCst);
            }
        });
    }
    const PROGRAMS: [(&str, fn()); 7] = [
        ("solo", solo),
        ("assertion", assertion_failure),
        ("three", three_threads),
        ("deadlock", deadlock),
        ("eleven", wide_program),
        ("runaway", runaway),
        ("racy", racy_program),
    ];

    for kind in [HandoverKind::Fiber, HandoverKind::Park] {
        let config = || {
            Config::new()
                .with_seed(0xC0_47E7)
                .with_mix(StrategyMix::parse("random:2,pct2:1,burst:1").expect("mix"))
                .with_max_events(600)
                .with_handover(kind)
        };
        let mut recycling = Model::new(config());
        let mut endings = [0u32; 4];
        for index in 0..64 {
            let (name, program) = PROGRAMS[index as usize % PROGRAMS.len()];
            let recycled = recycling.run(program);
            let fresh = Model::new(config()).run_at(index, program);
            assert_eq!(recycled.execution_index, index);
            assert_eq!(
                (
                    &recycled.strategy,
                    &recycled.races,
                    &recycled.failure,
                    &recycled.stats,
                    recycled.elided_volatile_races
                ),
                (
                    &fresh.strategy,
                    &fresh.races,
                    &fresh.failure,
                    &fresh.stats,
                    fresh.elided_volatile_races
                ),
                "{kind:?}: execution {index} ({name}) diverged recycled-vs-fresh"
            );
            assert_eq!(recycled.stats.alloc.fresh_executions, u64::from(index == 0));
            endings[match recycled.failure {
                None => 0,
                Some(Failure::Panic(_)) => 1,
                Some(Failure::Deadlock) => 2,
                Some(Failure::TooManyEvents(_)) => 3,
                Some(ref other) => panic!("{kind:?}: execution {index} ({name}): {other}"),
            }] += 1;
        }
        assert!(
            endings.iter().all(|&n| n >= 9),
            "{kind:?}: every ending must occur: {endings:?}"
        );
    }
}
