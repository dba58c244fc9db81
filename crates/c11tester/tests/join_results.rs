//! Join results live in per-thread slots of the recycled execution
//! context. Under either handover: values of any type come back through
//! `join`, results nobody joins are dropped exactly once before
//! `Model::run_at` returns — after the execution's context is unbound,
//! so their `Drop` code cannot reach the engine — however the execution
//! ends, and a handle never yields a value from another execution.

use c11tester::sync::atomic::{AtomicU32, Ordering};
use c11tester::sync::Mutex;
use c11tester::thread::{self, JoinHandle};
use c11tester::{Config, Failure, HandoverKind, Model};
use std::sync::atomic::{AtomicU64, Ordering as StdOrdering};
use std::sync::Arc;

const KINDS: [HandoverKind; 2] = [HandoverKind::Fiber, HandoverKind::Park];

/// Live-value accounting for [`Counted`], per test.
#[derive(Default)]
struct Tally {
    made: AtomicU64,
    dropped: AtomicU64,
    /// Drops that ran with no model context bound.
    dropped_unbound: AtomicU64,
}

/// A non-zero-sized result whose drops are counted.
struct Counted {
    value: u64,
    tally: Arc<Tally>,
}

impl Counted {
    fn new(value: u64, tally: &Arc<Tally>) -> Counted {
        tally.made.fetch_add(1, StdOrdering::Relaxed);
        Counted {
            value,
            tally: Arc::clone(tally),
        }
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.tally.dropped.fetch_add(1, StdOrdering::Relaxed);
        // Probe for a bound context with the panic message silenced;
        // one probe at a time, so the hooks are restored in order.
        static PROBE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _one = PROBE.lock().unwrap_or_else(|e| e.into_inner());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let unbound = std::panic::catch_unwind(thread::current_id).is_err();
        std::panic::set_hook(hook);
        if unbound {
            self.tally
                .dropped_unbound
                .fetch_add(1, StdOrdering::Relaxed);
        }
    }
}

#[test]
fn non_zero_sized_results_join_correctly() {
    for kind in KINDS {
        let tally = Arc::new(Tally::default());
        let mut model = Model::new(Config::new().with_seed(3).with_handover(kind));
        for _ in 0..40 {
            let t = Arc::clone(&tally);
            let report = model.run(move || {
                let s = thread::spawn(|| "from a model thread".to_string());
                let v = thread::spawn(|| (0..5u64).collect::<Vec<_>>());
                let t2 = Arc::clone(&t);
                let c = thread::spawn(move || Counted::new(42, &t2));
                let unit = thread::spawn(|| ());
                assert_eq!(v.join(), vec![0, 1, 2, 3, 4]);
                assert_eq!(c.join().value, 42);
                assert_eq!(s.join(), "from a model thread");
                unit.join();
            });
            assert!(!report.found_bug(), "{kind:?}: {report}");
        }
        assert_eq!(tally.made.load(StdOrdering::Relaxed), 40, "{kind:?}");
        assert_eq!(tally.dropped.load(StdOrdering::Relaxed), 40, "{kind:?}");
        // Joined values drop in the program, with the context bound.
        assert_eq!(tally.dropped_unbound.load(StdOrdering::Relaxed), 0);
    }
}

/// Spawns a thread that returns a [`Counted`] nobody joins, and waits
/// until it has finished (its last visible operation precedes its
/// return, so no other thread runs in between).
fn unjoined_result(tally: &Arc<Tally>) {
    let done = Arc::new(AtomicU32::new(0));
    let (d2, t2) = (Arc::clone(&done), Arc::clone(tally));
    let _unjoined = thread::spawn(move || {
        let c = Counted::new(7, &t2);
        d2.store(1, Ordering::Release);
        c
    });
    while done.load(Ordering::Acquire) == 0 {
        thread::yield_now();
    }
}

#[test]
fn unjoined_results_drop_once_after_the_execution_however_it_ends() {
    let endings: [(&str, fn()); 3] = [
        ("passing", || {}),
        ("failing", || panic!("assertion in main")),
        ("deadlocked", || {
            let m = Arc::new(Mutex::new(()));
            let _held = m.lock();
            let m2 = Arc::clone(&m);
            thread::spawn(move || drop(m2.lock())).join();
        }),
    ];
    for kind in KINDS {
        for (ending, end) in endings {
            let tally = Arc::new(Tally::default());
            let mut model = Model::new(Config::new().with_seed(11).with_handover(kind));
            for round in 1..=20u64 {
                let t = Arc::clone(&tally);
                let report = model.run(move || {
                    unjoined_result(&t);
                    end();
                });
                let failure = report.failure.as_ref();
                match ending {
                    "passing" => assert!(failure.is_none(), "{kind:?}: {report}"),
                    "failing" => assert!(matches!(failure, Some(Failure::Panic(_)))),
                    _ => assert_eq!(failure, Some(&Failure::Deadlock), "{kind:?}"),
                }
                // Dropped before `run_at` returned, exactly once, and
                // outside the execution.
                for count in [&tally.made, &tally.dropped, &tally.dropped_unbound] {
                    assert_eq!(count.load(StdOrdering::Relaxed), round, "{kind:?} {ending}");
                }
            }
        }
    }
}

#[test]
fn a_handle_never_yields_a_value_from_another_execution() {
    for kind in KINDS {
        let smuggled: Arc<std::sync::Mutex<Option<JoinHandle<u64>>>> = Arc::default();
        let mut model = Model::new(Config::new().with_seed(5).with_handover(kind));
        let out = Arc::clone(&smuggled);
        let first = model.run(move || {
            *out.lock().unwrap() = Some(thread::spawn(|| 1));
        });
        assert!(!first.found_bug(), "{first}");
        let inn = Arc::clone(&smuggled);
        let second = model.run(move || {
            let mine = thread::spawn(|| 2);
            let theirs = inn
                .lock()
                .unwrap()
                .take()
                .expect("handle from the first run");
            assert_eq!(
                theirs.thread_id(),
                mine.thread_id(),
                "same slot, other execution"
            );
            theirs.join();
        });
        match &second.failure {
            Some(Failure::Panic(msg)) => assert!(
                msg.contains("joined outside the execution that spawned"),
                "{kind:?}: {msg}"
            ),
            other => panic!("{kind:?}: expected the join to be refused, got {other:?}"),
        }
    }
}
