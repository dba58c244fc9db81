//! Dedicated PCT-strategy suite (Burckhardt et al.'s probabilistic
//! concurrency testing, exposed through C11Tester's pluggable-strategy
//! framework, paper §3):
//!
//! * executions are deterministic by `(seed, index)` — replayable with
//!   [`Model::run_at`] like every built-in strategy;
//! * depth sensitivity: a depth-2 bug (one mid-thread preemption
//!   required) is invisible to PCT at depth 1 and found at depth ≥ 2;
//! * change-point/priority-set behavior of the scheduler itself: at
//!   most `depth − 1` preemptions per execution, demotion at change
//!   points, and fresh threads drawing high-band priorities.

use c11tester::sync::atomic::{AtomicU32, Ordering};
use c11tester::{Config, Model, PctScheduler, Scheduler, Strategy, ThreadId};
use std::sync::Arc;

fn pct_config(seed: u64, depth: u32, expected_ops: u64) -> Config {
    Config::new().with_seed(seed).with_strategy(Strategy::Pct {
        depth,
        expected_ops,
    })
}

/// A racy publication program (the paper's Figure-2 shape): enough
/// schedule- and reads-from-dependent behavior to distinguish
/// executions, with a data race PCT can detect.
fn racy_program() {
    let data = Arc::new(c11tester::Shared::named("pct.data", 0u32));
    let flag = Arc::new(AtomicU32::named("pct.flag", 0));
    let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
    let th = c11tester::thread::spawn(move || {
        d2.set(42);
        f2.store(1, Ordering::Relaxed); // bug: should be Release
    });
    if flag.load(Ordering::Relaxed) == 1 {
        let _ = data.get();
    }
    th.join();
}

#[test]
fn pct_execution_is_deterministic_by_seed_and_index() {
    let config = || pct_config(0xBEEF, 3, 64);
    // Serial reference: indices 0..4 on one model.
    let mut serial = Model::new(config());
    let reference: Vec<_> = (0..4).map(|_| serial.run(racy_program)).collect();
    // Each index replays identically on a fresh model.
    for (i, expected) in reference.iter().enumerate() {
        let mut fresh = Model::new(config());
        let replayed = fresh.run_at(i as u64, racy_program);
        assert_eq!(replayed.execution_index, expected.execution_index);
        assert_eq!(replayed.stats, expected.stats, "stats at index {i}");
        let keys =
            |r: &c11tester::ExecutionReport| r.races.iter().map(|x| x.key()).collect::<Vec<_>>();
        assert_eq!(keys(&replayed), keys(expected), "race set at index {i}");
        assert_eq!(&*replayed.strategy, "pct3@64");
    }
    // A different seed steers the stream elsewhere (compare the whole
    // 4-execution stat vector so a single collision can't flake this).
    let mut other = Model::new(pct_config(0xFEED, 3, 64));
    let other_stats: Vec<_> = (0..4).map(|_| other.run(racy_program).stats).collect();
    let ref_stats: Vec<_> = reference.iter().map(|r| r.stats).collect();
    assert_ne!(ref_stats, other_stats, "seed must matter");
}

/// A depth-2 lost-update bug: both threads do a seq_cst load/store
/// increment, so the final count is 1 **only** when one thread is
/// preempted between its load and its store. PCT at depth 1 has zero
/// change points — threads run to completion in priority order and the
/// bug is unreachable; depth ≥ 2 places a change point that can land
/// in the window.
fn lost_update_program() {
    let c = Arc::new(AtomicU32::new(0));
    let c2 = Arc::clone(&c);
    let t = c11tester::thread::spawn(move || {
        let v = c2.load(Ordering::SeqCst);
        c2.store(v + 1, Ordering::SeqCst);
    });
    let v = c.load(Ordering::SeqCst);
    c.store(v + 1, Ordering::SeqCst);
    t.join();
    assert_eq!(c.load(Ordering::SeqCst), 2, "lost update");
}

#[test]
fn pct_depth_1_cannot_find_the_depth_2_bug() {
    let mut model = Model::new(pct_config(0x51, 1, 16));
    let report = model.check(300, lost_update_program);
    assert_eq!(
        report.executions_with_bug, 0,
        "depth-1 PCT never preempts mid-thread: {report}"
    );
}

#[test]
fn pct_depth_2_finds_the_depth_2_bug() {
    let mut model = Model::new(pct_config(0x52, 2, 16));
    let report = model.check(300, lost_update_program);
    assert!(
        report.executions_with_bug > 0,
        "depth-2 PCT must hit the load/store window: {report}"
    );
    // And the failure really is the lost-update assertion.
    assert!(report
        .failures
        .iter()
        .any(|(_, f)| f.to_string().contains("lost update")));
}

#[test]
fn pct_depth_3_also_finds_the_depth_2_bug() {
    // PCT's guarantee is monotone in depth: d change points cover
    // depth-(d ≤ d') bugs too.
    let mut model = Model::new(pct_config(0x53, 3, 16));
    let report = model.check(300, lost_update_program);
    assert!(report.executions_with_bug > 0, "{report}");
}

fn t(ix: usize) -> ThreadId {
    ThreadId::from_index(ix)
}

#[test]
fn pct_preempts_at_most_depth_minus_one_times() {
    // Drive the scheduler directly over a fixed enabled set: after the
    // initial priority ordering settles, every switch away from a
    // still-enabled current thread is a change-point preemption, and
    // there are at most depth − 1 of them.
    let enabled = [t(0), t(1), t(2)];
    for depth in 1..=4u32 {
        for seed in 0..8u64 {
            let mut s = PctScheduler::new(seed, depth, 64);
            s.begin_execution(0);
            let mut cur = s.next_thread(&enabled, t(0));
            let mut preemptions = 0;
            for _ in 0..200 {
                let next = s.next_thread(&enabled, cur);
                if next != cur {
                    preemptions += 1;
                    cur = next;
                }
            }
            assert!(
                preemptions < depth,
                "depth-{depth} PCT preempted {preemptions} times (seed {seed}); \
                 the bound is depth − 1"
            );
        }
    }
}

#[test]
fn pct_change_point_demotes_below_fresh_threads() {
    // expected_ops = 1 forces the single change point of depth 2 to
    // fire on the first step, demoting the current thread to the low
    // band. A thread appearing afterwards draws a high-band priority
    // and must win the next scheduling decision.
    let mut s = PctScheduler::new(7, 2, 1);
    s.begin_execution(0);
    // Only t0 enabled: it runs, the change point fires and demotes it.
    assert_eq!(s.next_thread(&[t(0)], t(0)), t(0));
    // A fresh thread outranks the demoted one.
    assert_eq!(s.next_thread(&[t(0), t(1)], t(0)), t(1));
    // And keeps outranking it on subsequent steps (the demotion is
    // sticky, not a one-shot yield).
    assert_eq!(s.next_thread(&[t(0), t(1)], t(1)), t(1));
}

#[test]
fn pct_decision_stream_varies_across_execution_indices() {
    // begin_execution(i) must reseed priorities and change points from
    // (seed, i): across indices the decision sequences differ.
    let enabled = [t(0), t(1), t(2)];
    let sequence = |index: u64| {
        let mut s = PctScheduler::new(0xC11, 3, 32);
        s.begin_execution(index);
        let mut cur = t(0);
        (0..48)
            .map(|_| {
                cur = s.next_thread(&enabled, cur);
                cur.index()
            })
            .collect::<Vec<_>>()
    };
    let sequences: Vec<_> = (0..20).map(sequence).collect();
    let distinct = sequences
        .iter()
        .collect::<std::collections::HashSet<_>>()
        .len();
    assert!(
        distinct >= 2,
        "20 indices produced only {distinct} distinct schedules"
    );
    // While the same index replays identically.
    assert_eq!(sequence(5), sequence(5));
}

#[test]
fn pct_read_choices_replay_with_the_schedule() {
    // choose_read shares the per-(seed, index) stream: a full model
    // execution under PCT replays reads-from choices too. Exercised
    // through outcome equality on a program whose result depends on
    // reads-from resolution.
    let program = || {
        let x = Arc::new(AtomicU32::new(0));
        let x2 = Arc::clone(&x);
        let th = c11tester::thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            x2.store(2, Ordering::Relaxed);
        });
        let _ = x.load(Ordering::Relaxed);
        let _ = x.load(Ordering::Relaxed);
        th.join();
    };
    let config = || pct_config(0x77, 2, 32);
    let mut a = Model::new(config());
    let runs_a: Vec<_> = (0..8).map(|_| a.run(program).stats).collect();
    let mut b = Model::new(config());
    let runs_b: Vec<_> = (0..8).map(|_| b.run(program).stats).collect();
    assert_eq!(runs_a, runs_b);
}
