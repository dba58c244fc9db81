//! End-to-end tests for synchronization primitives, blocking, deadlock
//! detection, mixed-mode accesses, volatiles, and pruning under the
//! full stack.

use c11tester::sync::atomic::{AtomicU32, Ordering};
use c11tester::sync::{Condvar, Mutex};
use c11tester::{Config, Failure, Model, PruneConfig, Shared, SharedArray};
use std::sync::Arc;

#[test]
fn mutex_protects_counter() {
    let mut model = Model::new(Config::new().with_seed(41));
    for _ in 0..30 {
        let report = model.run(|| {
            let m = Arc::new(Mutex::new(0u64));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let m = Arc::clone(&m);
                    c11tester::thread::spawn(move || {
                        for _ in 0..4 {
                            *m.lock() += 1;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(*m.lock(), 12);
        });
        assert!(!report.found_bug(), "{report}");
    }
}

#[test]
fn mutex_guarded_shared_data_has_no_race() {
    let mut model = Model::new(Config::new().with_seed(42));
    let report = model.check(30, || {
        let m = Arc::new(Mutex::new(()));
        let d = Arc::new(Shared::named("guarded", 0u32));
        let (m2, d2) = (Arc::clone(&m), Arc::clone(&d));
        let t = c11tester::thread::spawn(move || {
            let _g = m2.lock();
            d2.set(d2.get() + 1);
        });
        {
            let _g = m.lock();
            d.set(d.get() + 1);
        }
        t.join();
        assert_eq!(d.get(), 2);
    });
    assert_eq!(report.executions_with_race, 0, "{report}");
    assert_eq!(report.executions_with_bug, 0, "{report}");
}

#[test]
fn unguarded_shared_data_races() {
    let mut model = Model::new(Config::new().with_seed(43));
    let report = model.check(30, || {
        let d = Arc::new(Shared::named("unguarded", 0u32));
        let d2 = Arc::clone(&d);
        let t = c11tester::thread::spawn(move || {
            d2.set(1);
        });
        d.set(2);
        t.join();
    });
    assert!(report.executions_with_race > 0, "{report}");
    assert!(report
        .distinct_races()
        .iter()
        .any(|r| r.label == "unguarded"));
}

#[test]
fn join_establishes_happens_before() {
    let mut model = Model::new(Config::new().with_seed(44));
    let report = model.check(30, || {
        let d = Arc::new(Shared::named("joined", 0u32));
        let d2 = Arc::clone(&d);
        let t = c11tester::thread::spawn(move || {
            d2.set(5);
        });
        t.join();
        assert_eq!(d.get(), 5);
    });
    assert_eq!(report.executions_with_race, 0, "{report}");
    assert_eq!(report.executions_with_bug, 0, "{report}");
}

#[test]
fn self_deadlock_is_reported() {
    let mut model = Model::new(Config::new().with_seed(45));
    let report = model.run(|| {
        let m = Mutex::new(());
        let _g1 = m.lock();
        let _g2 = m.lock(); // blocks forever: deadlock
    });
    assert_eq!(report.failure, Some(Failure::Deadlock), "{report}");
}

#[test]
fn condvar_wakeups_work() {
    let mut model = Model::new(Config::new().with_seed(46));
    for _ in 0..20 {
        let report = model.run(|| {
            let state = Arc::new((Mutex::new(false), Condvar::new()));
            let s2 = Arc::clone(&state);
            let t = c11tester::thread::spawn(move || {
                let (m, cv) = &*s2;
                let mut g = m.lock();
                *g = true;
                drop(g);
                cv.notify_one();
            });
            let (m, cv) = &*state;
            let g = m.lock();
            let g = cv.wait_while(g, |ready| !*ready);
            assert!(*g);
            drop(g);
            t.join();
        });
        assert!(!report.found_bug(), "{report}");
    }
}

#[test]
fn lost_wakeup_is_a_deadlock() {
    let mut model = Model::new(Config::new().with_seed(47));
    let report = model.run(|| {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let g = m.lock();
        let _g = cv.wait(g); // nobody will ever notify
    });
    assert_eq!(report.failure, Some(Failure::Deadlock), "{report}");
}

#[test]
fn try_lock_never_blocks() {
    let mut model = Model::new(Config::new().with_seed(48));
    let report = model.check(20, || {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let t = c11tester::thread::spawn(move || {
            let _g = m2.lock();
            c11tester::thread::yield_now();
        });
        // Whatever the interleaving, try_lock returns (no deadlock).
        if let Some(mut g) = m.try_lock() {
            *g += 1;
        }
        t.join();
    });
    assert_eq!(report.executions_with_bug, 0, "{report}");
}

#[test]
fn atomic_init_races_with_concurrent_atomics() {
    // §7.2 mixed-mode: a non-atomic store to an atomic location (the
    // atomic_init / memory-reuse pattern) races with unordered atomics.
    let mut model = Model::new(Config::new().with_seed(49));
    let report = model.check(40, || {
        let x = Arc::new(AtomicU32::named("reused", 0));
        let x2 = Arc::clone(&x);
        let t = c11tester::thread::spawn(move || {
            x2.store_nonatomic(7); // non-atomic reinitialization
        });
        let _ = x.load(Ordering::Relaxed);
        t.join();
    });
    assert!(
        report.executions_with_race > 0,
        "mixed-mode race must be detected: {report}"
    );
}

#[test]
fn volatile_races_are_elided_from_reports() {
    use c11tester::VolatileU32;
    let mut model = Model::new(Config::new().with_seed(50));
    let report = model.check(40, || {
        let v = Arc::new(VolatileU32::named("legacy_flag", 0));
        let v2 = Arc::clone(&v);
        let t = c11tester::thread::spawn(move || {
            v2.write(1);
        });
        let _ = v.read();
        t.join();
    });
    assert_eq!(
        report.executions_with_race, 0,
        "volatile races must not be reported: {report}"
    );
    assert!(
        report.elided_volatile_races > 0,
        "volatile races must still be counted: {report}"
    );
}

#[test]
fn shared_array_tracks_elements_independently() {
    let mut model = Model::new(Config::new().with_seed(51));
    let report = model.check(20, || {
        let arr = Arc::new(SharedArray::named("disjoint", 2, 0u32));
        let a2 = Arc::clone(&arr);
        let t = c11tester::thread::spawn(move || {
            a2.set(0, 1);
        });
        arr.set(1, 2); // different element: no race
        t.join();
    });
    assert_eq!(report.executions_with_race, 0, "{report}");
}

#[test]
fn event_budget_aborts_runaway_programs() {
    let mut model = Model::new(Config::new().with_seed(52).with_max_events(500));
    let report = model.run(|| {
        let x = AtomicU32::new(0);
        loop {
            if x.load(Ordering::Relaxed) == 1 {
                break; // never happens
            }
        }
    });
    assert!(
        matches!(report.failure, Some(Failure::TooManyEvents(_))),
        "{report}"
    );
}

#[test]
fn pruning_does_not_change_outcomes() {
    // Same seeds, same program: conservative pruning must not alter
    // observed values (it only retires unreadable history).
    let run = |prune: bool| {
        let cfg = if prune {
            Config::new()
                .with_seed(53)
                .with_prune(PruneConfig::conservative(64))
        } else {
            Config::new().with_seed(53)
        };
        let mut model = Model::new(cfg);
        let log = std::sync::Mutex::new(Vec::new());
        for _ in 0..10 {
            model.run(|| {
                let c = Arc::new(AtomicU32::new(0));
                let m = Arc::new(Mutex::new(()));
                let handles: Vec<_> = (0..2)
                    .map(|_| {
                        let (c, m) = (Arc::clone(&c), Arc::clone(&m));
                        c11tester::thread::spawn(move || {
                            for _ in 0..50 {
                                let _g = m.lock();
                                c.fetch_add(1, Ordering::Relaxed);
                            }
                        })
                    })
                    .collect();
                for h in handles {
                    h.join();
                }
                log.lock().expect("log").push(c.load(Ordering::Acquire));
            });
        }
        log.into_inner().expect("log")
    };
    let unpruned = run(false);
    let pruned = run(true);
    assert_eq!(unpruned, pruned);
    assert!(unpruned.iter().all(|&v| v == 100));
}

#[test]
fn stats_count_operation_categories() {
    let mut model = Model::new(Config::new().with_seed(54));
    let report = model.run(|| {
        let x = AtomicU32::new(0);
        x.store(1, Ordering::Release);
        let _ = x.load(Ordering::Acquire);
        x.fetch_add(1, Ordering::AcqRel);
        c11tester::sync::atomic::fence(Ordering::SeqCst);
        let d = Shared::new(0u32);
        d.set(1);
        let _ = d.get();
    });
    let s = &report.stats;
    assert_eq!(s.atomic_loads, 1);
    assert!(s.atomic_stores >= 1);
    assert_eq!(s.rmws, 1);
    assert_eq!(s.fences, 1);
    assert!(s.normal_accesses >= 3, "init + set + get");
    assert!(s.atomic_ops() >= 4);
}

#[test]
fn rwlock_allows_concurrent_readers_and_excludes_writers() {
    use c11tester::sync::RwLock;
    let mut model = Model::new(Config::new().with_seed(55));
    let report = model.check(30, || {
        let l = Arc::new(RwLock::named("rw", 0u64));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let l = Arc::clone(&l);
                c11tester::thread::spawn(move || {
                    for _ in 0..2 {
                        let mut g = l.write();
                        *g += 1;
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let l = Arc::clone(&l);
                c11tester::thread::spawn(move || {
                    for _ in 0..2 {
                        let g = l.read();
                        assert!(*g <= 4);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join();
        }
        for r in readers {
            r.join();
        }
        assert_eq!(*l.read(), 4);
    });
    assert_eq!(report.executions_with_bug, 0, "{report}");
    assert_eq!(report.executions_with_race, 0, "{report}");
}

#[test]
fn rwlock_guards_shared_data_against_races() {
    use c11tester::sync::RwLock;
    let mut model = Model::new(Config::new().with_seed(56));
    let report = model.check(30, || {
        let l = Arc::new(RwLock::new(()));
        let d = Arc::new(Shared::named("rw.data", 0u32));
        let (l2, d2) = (Arc::clone(&l), Arc::clone(&d));
        let t = c11tester::thread::spawn(move || {
            let _g = l2.write();
            d2.set(1);
        });
        {
            let _g = l.read();
            let _ = d.get();
        }
        t.join();
    });
    assert_eq!(report.executions_with_race, 0, "{report}");
    assert_eq!(report.executions_with_bug, 0, "{report}");
}

#[test]
fn pct_strategy_finds_the_publication_race() {
    use c11tester::Strategy;
    let mut model = Model::new(Config::new().with_seed(57).with_strategy(Strategy::Pct {
        depth: 3,
        expected_ops: 32,
    }));
    let report = model.check(150, || {
        let d = Arc::new(Shared::named("pct.data", 0u32));
        let f = Arc::new(AtomicU32::named("pct.flag", 0));
        let (d2, f2) = (Arc::clone(&d), Arc::clone(&f));
        let t = c11tester::thread::spawn(move || {
            d2.set(9);
            f2.store(1, Ordering::Relaxed);
        });
        if f.load(Ordering::Relaxed) == 1 {
            let _ = d.get();
        }
        t.join();
    });
    assert!(
        report.executions_with_race > 0,
        "PCT should also find the race: {report}"
    );
}

/// A model operation inside a `RawAtomic::rmw` closure runs while the
/// engine is held by the RMW itself. That used to self-deadlock on the
/// engine mutex; it must end the execution as a recorded failure that
/// names the re-entry — whether the RMW runs on the main thread or a
/// spawned one, under either handover — and leave the model usable.
#[test]
fn model_operation_inside_an_rmw_closure_is_a_recorded_failure() {
    use c11tester::sync::atomic::RawAtomic;
    use c11tester::HandoverKind;
    for kind in [HandoverKind::Fiber, HandoverKind::Park] {
        for on_child in [false, true] {
            let mut model = Model::new(Config::new().with_seed(58).with_handover(kind));
            let report = model.run(move || {
                let a = Arc::new(RawAtomic::new(Some("reentry.a".into()), 1));
                let b = Arc::new(RawAtomic::new(Some("reentry.b".into()), 2));
                let nested = move || {
                    a.rmw(Ordering::AcqRel, |old| old + b.load(Ordering::Acquire));
                };
                if on_child {
                    c11tester::thread::spawn(nested).join();
                } else {
                    nested();
                }
            });
            match &report.failure {
                Some(Failure::Panic(msg)) => assert!(
                    msg.contains("re-entrant c11tester model operation"),
                    "{kind:?}, child {on_child}: {msg}"
                ),
                other => panic!("{kind:?}, child {on_child}: expected a panic, got {other:?}"),
            }
            // The campaign continues on the same model.
            let next = model.run(|| {
                let x = AtomicU32::new(0);
                x.fetch_add(1, Ordering::AcqRel);
                assert_eq!(x.load(Ordering::Acquire), 1);
            });
            assert!(!next.found_bug(), "{kind:?}, child {on_child}: {next}");
        }
    }
}

/// Once `Model::run` has returned, the caller's thread is unbound: a
/// model operation panics with the "outside Model::run" message — also
/// after an execution that ended by a panic of the main thread.
#[test]
fn binding_is_cleared_when_run_returns() {
    let mut model = Model::new(Config::new().with_seed(59));
    for fail in [false, true] {
        let report = model.run(move || {
            let x = AtomicU32::new(0);
            let t = c11tester::thread::spawn(c11tester::thread::current_id);
            x.store(1, Ordering::Release);
            assert!(!fail, "main thread fails");
            t.join();
        });
        assert_eq!(report.found_bug(), fail);
        let outside = std::panic::catch_unwind(c11tester::thread::current_id);
        let outside = outside.expect_err("no execution is running");
        let msg = c11tester_runtime::pool::panic_message(outside.as_ref());
        assert!(msg.contains("used outside Model::run"), "{msg}");
    }
}

/// A pooled Park worker outlives the executions it serves. Its binding
/// must be gone once a body has finished — normally or by the abort
/// unwind — so that whatever runs on it later (here: a thread-local's
/// destructor, at pool teardown) gets the "outside Model::run" panic
/// instead of a stale context.
#[test]
fn pooled_worker_is_unbound_after_its_body() {
    use c11tester::HandoverKind;
    use std::sync::Mutex as StdMutex;
    static SEEN: StdMutex<Vec<String>> = StdMutex::new(Vec::new());
    struct Probe;
    impl Drop for Probe {
        fn drop(&mut self) {
            let outcome = std::panic::catch_unwind(c11tester::thread::current_id);
            let msg = match outcome {
                Ok(tid) => format!("still bound as {tid:?}"),
                Err(payload) => c11tester_runtime::pool::panic_message(payload.as_ref()),
            };
            SEEN.lock().expect("probe log").push(msg);
        }
    }
    thread_local!(static PROBE: Probe = const { Probe });

    let mut model = Model::new(
        Config::new()
            .with_seed(60)
            .with_handover(HandoverKind::Park),
    );
    for fail in [false, true] {
        let report = model.run(move || {
            let gate = Arc::new(AtomicU32::new(0));
            let g2 = Arc::clone(&gate);
            let t = c11tester::thread::spawn(move || {
                PROBE.with(|_| ()); // registers the destructor on the worker
                g2.store(1, Ordering::Release);
                // In the failing execution this thread is parked here
                // (or never got this far) when the main thread aborts.
                let _ = g2.load(Ordering::Acquire);
            });
            assert!(!fail, "main thread fails");
            t.join();
        });
        assert_eq!(report.found_bug(), fail);
    }
    drop(model); // joins the pooled workers, running their TLS destructors
    let seen = SEEN.lock().expect("probe log");
    assert!(!seen.is_empty(), "a pooled worker ran the body");
    for msg in seen.iter() {
        assert!(msg.contains("used outside Model::run"), "{msg}");
    }
}
