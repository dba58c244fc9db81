//! Litmus tests for the memory-model fragment (paper §2, §2.2).
//!
//! Each test runs a small program many times under seeded random
//! exploration and checks the *set* of observed outcomes: weak
//! outcomes the fragment allows must eventually appear, and outcomes
//! it forbids must never appear.

use c11tester::sync::atomic::{AtomicU32, Ordering};
use c11tester::{Config, Model, Policy};
use std::collections::HashSet;
use std::sync::Arc;
use std::sync::Mutex as StdMutex;

/// Runs `f` `iters` times and collects the outcomes it returns.
fn outcomes<T, F>(iters: u64, seed: u64, policy: Policy, f: F) -> HashSet<T>
where
    T: std::hash::Hash + Eq + Send + Clone,
    F: Fn() -> T + Send + Sync,
{
    let mut model = Model::new(Config::for_policy(policy).with_seed(seed));
    let seen = StdMutex::new(HashSet::new());
    for _ in 0..iters {
        let report = model.run(|| {
            let v = f();
            seen.lock().expect("outcome set poisoned").insert(v);
        });
        assert!(
            report.failure.is_none(),
            "litmus execution failed: {:?}",
            report.failure
        );
    }
    seen.into_inner().expect("outcome set poisoned")
}

/// Store buffering with relaxed atomics: all four outcomes, including
/// the weak (0, 0), must be observable.
#[test]
fn store_buffering_relaxed_allows_both_zero() {
    let seen = outcomes(300, 11, Policy::C11Tester, || {
        let x = Arc::new(AtomicU32::new(0));
        let y = Arc::new(AtomicU32::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = c11tester::thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            y2.load(Ordering::Relaxed)
        });
        y.store(1, Ordering::Relaxed);
        let r2 = x.load(Ordering::Relaxed);
        let r1 = t.join();
        (r1, r2)
    });
    assert!(seen.contains(&(0, 0)), "weak SB outcome must be producible");
    assert!(seen.contains(&(1, 1)) || seen.contains(&(0, 1)) || seen.contains(&(1, 0)));
}

/// Store buffering with seq_cst atomics: (0, 0) is forbidden.
#[test]
fn store_buffering_seq_cst_forbids_both_zero() {
    let seen = outcomes(300, 12, Policy::C11Tester, || {
        let x = Arc::new(AtomicU32::new(0));
        let y = Arc::new(AtomicU32::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = c11tester::thread::spawn(move || {
            x2.store(1, Ordering::SeqCst);
            y2.load(Ordering::SeqCst)
        });
        y.store(1, Ordering::SeqCst);
        let r2 = x.load(Ordering::SeqCst);
        let r1 = t.join();
        (r1, r2)
    });
    assert!(
        !seen.contains(&(0, 0)),
        "seq_cst forbids both-zero SB, saw {seen:?}"
    );
    assert!(
        seen.len() >= 2,
        "exploration should vary outcomes: {seen:?}"
    );
}

/// The paper's Figure 2 example: with relaxed orders, the
/// counter-intuitive {r1 = 1 ∧ r2 = 0} is allowed.
#[test]
fn message_passing_relaxed_allows_stale_data() {
    let seen = outcomes(300, 13, Policy::C11Tester, || {
        let x = Arc::new(AtomicU32::new(0));
        let y = Arc::new(AtomicU32::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = c11tester::thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            y2.store(1, Ordering::Relaxed);
        });
        let r1 = y.load(Ordering::Relaxed);
        let r2 = x.load(Ordering::Relaxed);
        t.join();
        (r1, r2)
    });
    assert!(
        seen.contains(&(1, 0)),
        "relaxed MP must allow r1=1, r2=0; saw {seen:?}"
    );
}

/// Figure 2 modified (paper §2.1): release/acquire on `y` forbids
/// {r1 = 1 ∧ r2 = 0}.
#[test]
fn message_passing_release_acquire_forbids_stale_data() {
    let seen = outcomes(300, 14, Policy::C11Tester, || {
        let x = Arc::new(AtomicU32::new(0));
        let y = Arc::new(AtomicU32::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = c11tester::thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            y2.store(1, Ordering::Release);
        });
        let r1 = y.load(Ordering::Acquire);
        let r2 = x.load(Ordering::Relaxed);
        t.join();
        (r1, r2)
    });
    assert!(
        !seen.contains(&(1, 0)),
        "release/acquire forbids r1=1, r2=0; saw {seen:?}"
    );
    assert!(seen.contains(&(1, 1)), "synchronized outcome should appear");
}

/// Load buffering (`r1 = r2 = 1` from reading future stores) is
/// excluded by the `hb ∪ sc ∪ rf` acyclicity restriction (§2.2) —
/// the model reads only from already-executed stores.
#[test]
fn load_buffering_is_forbidden() {
    let seen = outcomes(300, 15, Policy::C11Tester, || {
        let x = Arc::new(AtomicU32::new(0));
        let y = Arc::new(AtomicU32::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let t = c11tester::thread::spawn(move || {
            let r1 = x2.load(Ordering::Relaxed);
            y2.store(1, Ordering::Relaxed);
            r1
        });
        let r2 = y.load(Ordering::Relaxed);
        x.store(1, Ordering::Relaxed);
        let r1 = t.join();
        (r1, r2)
    });
    assert!(
        !seen.contains(&(1, 1)),
        "out-of-thin-air/load-buffering outcome must be excluded; saw {seen:?}"
    );
}

/// IRIW with seq_cst: the two readers may not disagree on the order of
/// the independent writes.
#[test]
fn iriw_seq_cst_readers_agree() {
    let seen = outcomes(400, 16, Policy::C11Tester, || {
        let x = Arc::new(AtomicU32::new(0));
        let y = Arc::new(AtomicU32::new(0));
        let (xa, ya) = (Arc::clone(&x), Arc::clone(&y));
        let (xb, yb) = (Arc::clone(&x), Arc::clone(&y));
        let (xc, yc) = (Arc::clone(&x), Arc::clone(&y));
        let w1 = c11tester::thread::spawn(move || xa.store(1, Ordering::SeqCst));
        let w2 = c11tester::thread::spawn(move || ya.store(1, Ordering::SeqCst));
        let r1 = c11tester::thread::spawn(move || {
            let a = xb.load(Ordering::SeqCst);
            let b = yb.load(Ordering::SeqCst);
            (a, b)
        });
        let r2 = c11tester::thread::spawn(move || {
            let b = yc.load(Ordering::SeqCst);
            let a = xc.load(Ordering::SeqCst);
            (a, b)
        });
        w1.join();
        w2.join();
        let (a1, b1) = r1.join();
        let (a2, b2) = r2.join();
        (a1, b1, a2, b2)
    });
    // Disagreement: reader 1 sees x then not-yet y (1,0) while reader 2
    // sees y then not-yet x (0,1).
    assert!(
        !seen.contains(&(1, 0, 0, 1)),
        "seq_cst IRIW readers must agree; saw {seen:?}"
    );
}

/// Coherence (CoRR): one thread never observes the same location going
/// backwards.
#[test]
#[allow(clippy::nonminimal_bool)] // the two forbidden outcomes read clearest separately
fn coherence_read_read() {
    let seen = outcomes(300, 17, Policy::C11Tester, || {
        let x = Arc::new(AtomicU32::new(0));
        let x2 = Arc::clone(&x);
        let t = c11tester::thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            x2.store(2, Ordering::Relaxed);
        });
        let a = x.load(Ordering::Relaxed);
        let b = x.load(Ordering::Relaxed);
        t.join();
        (a, b)
    });
    for &(a, b) in &seen {
        assert!(
            !(a == 2 && b < 2) && !(a == 1 && b == 0),
            "coherence violation observed: ({a}, {b})"
        );
    }
    // The weak-but-legal same-value re-reads and progressions appear.
    assert!(seen.len() >= 3, "expected outcome variety, saw {seen:?}");
}

/// RMW atomicity: concurrent fetch_adds never lose increments.
#[test]
fn rmw_atomicity_no_lost_updates() {
    let mut model = Model::new(Config::new().with_seed(18));
    for _ in 0..50 {
        let report = model.run(|| {
            let c = Arc::new(AtomicU32::new(0));
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&c);
                    c11tester::thread::spawn(move || {
                        for _ in 0..5 {
                            c.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(c.load(Ordering::Relaxed), 20, "lost RMW update");
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
    }
}

/// A strong CAS that fails did not read its expected value, also when
/// its failure order (`SeqCst`) is stronger than its success order
/// (`Release`) — the shrunk `gen:395` shape. The store of 1 is consumed
/// by T1's `fetch_add`, so T2's CAS can succeed only by reading 1
/// before the `fetch_add` does; whatever else it reads, it fails.
#[test]
fn failed_cas_with_a_stronger_failure_order_never_reads_expected() {
    let seen = outcomes(2000, 395, Policy::C11Tester, || {
        let x = Arc::new(AtomicU32::new(0));
        let x2 = Arc::clone(&x);
        let t1 = c11tester::thread::spawn(move || {
            x2.store(1, Ordering::SeqCst);
            x2.fetch_add(2, Ordering::Release)
        });
        let cas = x.compare_exchange(1, 3, Ordering::Release, Ordering::SeqCst);
        (cas, t1.join())
    });
    assert!(
        !seen.iter().any(|&(cas, _)| cas == Err(1)),
        "a failed CAS read its expected value: {seen:?}"
    );
    assert!(seen.iter().any(|&(cas, _)| cas == Ok(1)), "{seen:?}");
    assert!(seen.iter().any(|&(cas, _)| cas.is_err()), "{seen:?}");
}

/// C++20 release sequences: an RMW continues the release sequence, so
/// an acquire load reading the RMW synchronizes with the head store.
#[test]
fn release_sequence_through_rmw() {
    let seen = outcomes(300, 19, Policy::C11Tester, || {
        let data = Arc::new(AtomicU32::new(0));
        let flag = Arc::new(AtomicU32::new(0));
        let (d1, f1) = (Arc::clone(&data), Arc::clone(&flag));
        let (_d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let producer = c11tester::thread::spawn(move || {
            d1.store(42, Ordering::Relaxed);
            f1.store(1, Ordering::Release);
        });
        let bumper = c11tester::thread::spawn(move || {
            // Relaxed RMW: continues the release sequence.
            f2.fetch_add(1, Ordering::Relaxed);
        });
        let r = flag.load(Ordering::Acquire);
        let d = data.load(Ordering::Relaxed);
        producer.join();
        bumper.join();
        (r, d)
    });
    // Reading 2 means the load read the RMW, which read the release
    // store: synchronization must carry through, so data is 42.
    for &(r, d) in &seen {
        if r == 2 {
            assert_eq!(d, 42, "release sequence broken at RMW: ({r}, {d})");
        }
    }
    assert!(
        seen.iter().any(|&(r, _)| r == 2),
        "RMW-continued outcome should appear: {seen:?}"
    );
}

/// Fence synchronization: release fence + relaxed store / relaxed load
/// + acquire fence establishes happens-before (Fig. 9 fence rules).
#[test]
fn fence_release_acquire_synchronizes() {
    use c11tester::sync::atomic::fence;
    let seen = outcomes(300, 20, Policy::C11Tester, || {
        let data = Arc::new(AtomicU32::new(0));
        let flag = Arc::new(AtomicU32::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = c11tester::thread::spawn(move || {
            d2.store(7, Ordering::Relaxed);
            fence(Ordering::Release);
            f2.store(1, Ordering::Relaxed);
        });
        let r = flag.load(Ordering::Relaxed);
        let d = if r == 1 {
            fence(Ordering::Acquire);
            data.load(Ordering::Relaxed)
        } else {
            u32::MAX
        };
        t.join();
        (r, d)
    });
    for &(r, d) in &seen {
        if r == 1 {
            assert_eq!(d, 7, "fence synchronization failed: flag=1 but data={d}");
        }
    }
    assert!(seen.iter().any(|&(r, _)| r == 1));
}

/// The paper's headline fragment difference (§1.1, §8.1): a load may
/// read a store that is modification-ordered *after* a store it is
/// already aware of, i.e. `mo` may disagree with execution order.
/// C11Tester produces the weak outcome; the tsan11-family policies
/// (which require `hb ∪ sc ∪ rf ∪ mo` acyclic) cannot.
#[test]
fn mo_inversion_separates_policies() {
    let run = |policy: Policy| {
        outcomes(400, 21, policy, || {
            let x = Arc::new(AtomicU32::new(0));
            let ready = Arc::new(AtomicU32::new(0));
            let flag = Arc::new(AtomicU32::new(0));
            let (x1, r1) = (Arc::clone(&x), Arc::clone(&ready));
            let (x2, r2, f2) = (Arc::clone(&x), Arc::clone(&ready), Arc::clone(&flag));
            let t1 = c11tester::thread::spawn(move || {
                x1.store(1, Ordering::Relaxed);
                r1.store(1, Ordering::Relaxed); // no synchronization
            });
            let t2 = c11tester::thread::spawn(move || {
                // Wait (without hb!) until x=1 executed.
                while r2.load(Ordering::Relaxed) == 0 {
                    c11tester::thread::yield_now();
                }
                x2.store(2, Ordering::Relaxed);
                f2.store(1, Ordering::Release);
            });
            // Wait until t2 published, with synchronization.
            while flag.load(Ordering::Acquire) == 0 {
                c11tester::thread::yield_now();
            }
            let r = x.load(Ordering::Relaxed);
            t1.join();
            t2.join();
            r
        })
    };
    let full = run(Policy::C11Tester);
    // The acquire gives hb-knowledge of x=2; reading the stale x=1
    // requires ordering x=2 mo-before x=1, against execution order.
    assert!(
        full.contains(&1),
        "C11Tester fragment must produce the mo-inverted read; saw {full:?}"
    );
    assert!(full.contains(&2));
    let restricted = run(Policy::Tsan11Rec);
    assert!(
        !restricted.contains(&1),
        "tsan11rec fragment must forbid the mo-inverted read; saw {restricted:?}"
    );
    assert_eq!(restricted, HashSet::from([2]));
}

/// Figure 4 write-run de-biasing: with consecutive relaxed stores
/// executed as a run, both 1 and 2 must be commonly readable.
#[test]
fn figure4_write_run_outcomes() {
    let seen = outcomes(200, 22, Policy::C11Tester, || {
        let x = Arc::new(AtomicU32::new(0));
        let x2 = Arc::clone(&x);
        let t = c11tester::thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            x2.store(2, Ordering::Relaxed);
        });
        let r = x.load(Ordering::Relaxed);
        t.join();
        r
    });
    assert!(seen.contains(&0));
    assert!(seen.contains(&1), "store 1 must be readable: {seen:?}");
    assert!(seen.contains(&2), "store 2 must be readable: {seen:?}");
}

/// Seeded determinism: identical models produce identical outcome
/// sequences (the paper's repeatability requirement for debugging).
#[test]
fn executions_replay_deterministically() {
    let trace = |seed: u64| {
        let mut model = Model::new(Config::new().with_seed(seed));
        let log = StdMutex::new(Vec::new());
        for _ in 0..30 {
            model.run(|| {
                let x = Arc::new(AtomicU32::new(0));
                let x2 = Arc::clone(&x);
                let t = c11tester::thread::spawn(move || {
                    x2.store(1, Ordering::Relaxed);
                    x2.store(2, Ordering::Relaxed);
                });
                let r = x.load(Ordering::Relaxed);
                t.join();
                log.lock().expect("log").push(r);
            });
        }
        log.into_inner().expect("log")
    };
    assert_eq!(trace(33), trace(33));
    assert_ne!(trace(33), trace(34), "different seeds should differ");
}
