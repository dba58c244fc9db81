//! Property-based tests over random programs.
//!
//! Random sequences of atomic operations (stores, loads, RMWs, fences,
//! forks) are replayed through [`Execution`] with generated read
//! choices, and the engine's core invariants are checked:
//!
//! * the mo-graph never acquires a cycle (constraint satisfiability);
//! * **Theorem 1**: clock-vector reachability coincides with graph
//!   reachability for same-location nodes;
//! * loads only read already-executed stores (`hb ∪ sc ∪ rf` acyclic);
//! * per-thread read-read coherence over the lifted execution;
//! * the restricted tsan11 fragment only produces a *subset* of the
//!   full fragment's feasible reads;
//! * conservative pruning never changes feasible read sets;
//! * an [`Execution`] recycled by `reset` is indistinguishable from a
//!   fresh one, whatever ran on it before.
//!
//! The harness generates its cases with the workspace's seeded
//! generator (`c11tester_core::rng`): each property replays a fixed
//! number of seeded random programs, so failures reproduce exactly by
//! seed.

use c11tester_core::rng::Xoshiro256StarStar;
use c11tester_core::{
    Execution, MemOrder, ObjId, Policy, PruneConfig, StoreIdx, StoreKind, ThreadId,
};

const CASES: u64 = 256;

#[derive(Clone, Debug)]
enum Op {
    Store {
        t: u8,
        obj: u8,
        order: u8,
        val: u8,
    },
    Load {
        t: u8,
        obj: u8,
        order: u8,
        choice: u8,
    },
    Rmw {
        t: u8,
        obj: u8,
        order: u8,
        choice: u8,
    },
    Fence {
        t: u8,
        order: u8,
    },
    Fork {
        t: u8,
    },
}

fn order_of(ix: u8) -> MemOrder {
    match ix % 5 {
        0 => MemOrder::Relaxed,
        1 => MemOrder::Acquire,
        2 => MemOrder::Release,
        3 => MemOrder::AcqRel,
        _ => MemOrder::SeqCst,
    }
}

/// Draws a random program of `1..max_len` operations.
fn gen_ops(rng: &mut Xoshiro256StarStar, max_len: usize) -> Vec<Op> {
    let len = rng.gen_range(1..max_len);
    (0..len)
        .map(|_| match rng.gen_range(0..5u8) {
            0 => Op::Store {
                t: rng.gen_range(0..=255u8),
                obj: rng.gen_range(0..=255u8),
                order: rng.gen_range(0..=255u8),
                val: rng.gen_range(0..=255u8),
            },
            1 => Op::Load {
                t: rng.gen_range(0..=255u8),
                obj: rng.gen_range(0..=255u8),
                order: rng.gen_range(0..=255u8),
                choice: rng.gen_range(0..=255u8),
            },
            2 => Op::Rmw {
                t: rng.gen_range(0..=255u8),
                obj: rng.gen_range(0..=255u8),
                order: rng.gen_range(0..=255u8),
                choice: rng.gen_range(0..=255u8),
            },
            3 => Op::Fence {
                t: rng.gen_range(0..=255u8),
                order: rng.gen_range(0..=255u8),
            },
            _ => Op::Fork {
                t: rng.gen_range(0..=255u8),
            },
        })
        .collect()
}

/// Runs `property` against `CASES` seeded random programs.
fn for_random_programs(name: &str, max_len: usize, mut property: impl FnMut(&[Op])) {
    for seed in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(seed ^ 0xC11_7E57);
        let ops = gen_ops(&mut rng, max_len);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&ops)));
        if let Err(payload) = result {
            eprintln!("property `{name}` failed on seed {seed} with ops: {ops:?}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// Replays `ops` on a fresh execution, recording `(thread, obj, store)`
/// for every committed read. Returns the execution and the read log.
fn replay(
    policy: Policy,
    prune: PruneConfig,
    ops: &[Op],
) -> (Execution, Vec<(ThreadId, ObjId, StoreIdx)>) {
    let mut e = Execution::with_pruning(policy, prune);
    let reads = replay_on(&mut e, ops).reads;
    (e, reads)
}

/// One feasible read candidate, identified beyond its arena index: the
/// store's thread, sequence number and value.
type Candidate = (StoreIdx, ThreadId, u64, u64);

/// What a replay observed.
struct Replay {
    /// The feasible read set offered at every load/RMW.
    feasible: Vec<Vec<Candidate>>,
    /// `(thread, obj, store)` of every committed read.
    reads: Vec<(ThreadId, ObjId, StoreIdx)>,
}

/// Replays `ops` on `e` (fresh or just `reset`).
fn replay_on(e: &mut Execution, ops: &[Op]) -> Replay {
    let mut threads = vec![ThreadId::MAIN];
    let objs: Vec<ObjId> = (0..3).map(|_| e.new_object()).collect();
    let mut feasible = Vec::new();
    let mut reads = Vec::new();
    let describe = |e: &Execution, cands: &[StoreIdx]| -> Vec<Candidate> {
        cands
            .iter()
            .map(|&s| (s, e.store(s).tid, e.store(s).seq.0, e.store_value(s)))
            .collect()
    };
    for op in ops {
        match *op {
            Op::Store { t, obj, order, val } => {
                let t = threads[t as usize % threads.len()];
                let obj = objs[obj as usize % objs.len()];
                e.atomic_store(t, obj, order_of(order), u64::from(val), StoreKind::Atomic);
            }
            Op::Load {
                t,
                obj,
                order,
                choice,
            } => {
                let t = threads[t as usize % threads.len()];
                let obj = objs[obj as usize % objs.len()];
                let cands = e.feasible_read_candidates(t, obj, order_of(order), false);
                feasible.push(describe(e, &cands));
                if !cands.is_empty() {
                    let c = cands[choice as usize % cands.len()];
                    e.commit_load(t, obj, order_of(order), c);
                    reads.push((t, obj, c));
                }
            }
            Op::Rmw {
                t,
                obj,
                order,
                choice,
            } => {
                let t = threads[t as usize % threads.len()];
                let obj = objs[obj as usize % objs.len()];
                let cands = e.feasible_read_candidates(t, obj, order_of(order), true);
                feasible.push(describe(e, &cands));
                if !cands.is_empty() {
                    let c = cands[choice as usize % cands.len()];
                    let old = e.store_value(c);
                    e.commit_rmw(t, obj, order_of(order), c, old.wrapping_add(1));
                    reads.push((t, obj, c));
                }
            }
            Op::Fence { t, order } => {
                let t = threads[t as usize % threads.len()];
                e.fence(t, order_of(order));
            }
            Op::Fork { t } => {
                if threads.len() < 4 {
                    let parent = threads[t as usize % threads.len()];
                    threads.push(e.fork(parent));
                }
            }
        }
    }
    Replay { feasible, reads }
}

/// The mo-graph stays acyclic and Theorem 1 holds after any program.
#[test]
fn mograph_acyclic_and_theorem1() {
    for_random_programs("mograph_acyclic_and_theorem1", 40, |ops| {
        let (e, _) = replay(Policy::C11Tester, PruneConfig::disabled(), ops);
        let g = e.mograph();
        assert!(!g.has_cycle_slow(), "mo-graph acquired a cycle");
        // Theorem 1 on every same-location node pair.
        let nodes: Vec<_> = (0..g.len())
            .map(|i| c11tester_core::NodeId(i as u32))
            .filter(|&n| !g.node(n).pruned)
            .collect();
        for &a in &nodes {
            for &b in &nodes {
                if a == b || g.node(a).obj != g.node(b).obj {
                    continue;
                }
                assert_eq!(
                    g.reaches(a, b),
                    g.reaches_slow(a, b),
                    "Theorem 1 violated between {a:?} and {b:?}"
                );
            }
        }
    });
}

/// Loads only ever read stores that already executed, so
/// `hb ∪ sc ∪ rf` is trivially acyclic (Lemma 4).
#[test]
fn reads_only_from_the_past() {
    for_random_programs("reads_only_from_the_past", 40, |ops| {
        let (e, reads) = replay(Policy::C11Tester, PruneConfig::disabled(), ops);
        for &(_, _, s) in &reads {
            assert!(e.store(s).seq <= e.now());
        }
    });
}

/// Per-thread read-read coherence: two successive reads of the same
/// location by one thread never observe stores in anti-mo order.
#[test]
fn read_read_coherence() {
    for_random_programs("read_read_coherence", 40, |ops| {
        let (mut e, reads) = replay(Policy::C11Tester, PruneConfig::disabled(), ops);
        for t_ix in 0..4 {
            let t = ThreadId::from_index(t_ix);
            for obj_ix in 0..3 {
                let mine: Vec<StoreIdx> = reads
                    .iter()
                    .filter(|(rt, robj, _)| *rt == t && robj.0 == obj_ix)
                    .map(|&(_, _, s)| s)
                    .collect();
                for w in mine.windows(2) {
                    let (x, y) = (w[0], w[1]);
                    if x == y {
                        continue;
                    }
                    let nx = e.node_of(x);
                    let ny = e.node_of(y);
                    assert!(
                        !e.mograph().reaches_slow(ny, nx),
                        "CoRR violated: later read saw mo-earlier store"
                    );
                }
            }
        }
    });
}

/// The restricted fragment's feasible reads are a subset of the
/// full fragment's at every step (driving both with the restricted
/// choice, which must be legal in both).
#[test]
fn restricted_fragment_is_a_subset() {
    for_random_programs("restricted_fragment_is_a_subset", 30, |ops| {
        let mut full = Execution::new(Policy::C11Tester);
        let mut restr = Execution::new(Policy::Tsan11);
        let mut threads = vec![ThreadId::MAIN];
        let objs_f: Vec<ObjId> = (0..3).map(|_| full.new_object()).collect();
        let objs_r: Vec<ObjId> = (0..3).map(|_| restr.new_object()).collect();
        for op in ops {
            match *op {
                Op::Store { t, obj, order, val } => {
                    let t = threads[t as usize % threads.len()];
                    full.atomic_store(
                        t,
                        objs_f[obj as usize % 3],
                        order_of(order),
                        u64::from(val),
                        StoreKind::Atomic,
                    );
                    restr.atomic_store(
                        t,
                        objs_r[obj as usize % 3],
                        order_of(order),
                        u64::from(val),
                        StoreKind::Atomic,
                    );
                }
                Op::Load {
                    t,
                    obj,
                    order,
                    choice,
                }
                | Op::Rmw {
                    t,
                    obj,
                    order,
                    choice,
                } => {
                    let for_rmw = matches!(op, Op::Rmw { .. });
                    let t = threads[t as usize % threads.len()];
                    let of = objs_f[obj as usize % 3];
                    let or = objs_r[obj as usize % 3];
                    let cf = full.feasible_read_candidates(t, of, order_of(order), for_rmw);
                    let cr = restr.feasible_read_candidates(t, or, order_of(order), for_rmw);
                    // Candidate sets are over distinct executions; compare
                    // by the identifying (tid, seq) of the stores.
                    let key = |e: &Execution, s: StoreIdx| (e.store(s).tid, e.store(s).seq);
                    let kf: Vec<_> = cf.iter().map(|&s| key(&full, s)).collect();
                    for &s in &cr {
                        assert!(
                            kf.contains(&key(&restr, s)),
                            "restricted fragment allowed a read the full one forbids"
                        );
                    }
                    if !cr.is_empty() {
                        let pick_r = cr[choice as usize % cr.len()];
                        let k = key(&restr, pick_r);
                        let pick_f = cf
                            .iter()
                            .copied()
                            .find(|&s| key(&full, s) == k)
                            .expect("subset property");
                        if for_rmw {
                            let old = restr.store_value(pick_r);
                            restr.commit_rmw(t, or, order_of(order), pick_r, old + 1);
                            full.commit_rmw(t, of, order_of(order), pick_f, old + 1);
                        } else {
                            restr.commit_load(t, or, order_of(order), pick_r);
                            full.commit_load(t, of, order_of(order), pick_f);
                        }
                    }
                }
                Op::Fence { t, order } => {
                    let t = threads[t as usize % threads.len()];
                    full.fence(t, order_of(order));
                    restr.fence(t, order_of(order));
                }
                Op::Fork { t } => {
                    if threads.len() < 4 {
                        let parent = threads[t as usize % threads.len()];
                        let a = full.fork(parent);
                        let b = restr.fork(parent);
                        assert_eq!(a, b);
                        threads.push(a);
                    }
                }
            }
        }
    });
}

/// Conservative pruning never changes the feasible read set of any
/// load (it only retires unreadable history).
#[test]
fn conservative_pruning_is_invisible() {
    for_random_programs("conservative_pruning_is_invisible", 30, |ops| {
        let mut plain = Execution::new(Policy::C11Tester);
        let mut pruned = Execution::with_pruning(Policy::C11Tester, PruneConfig::conservative(8));
        let mut threads = vec![ThreadId::MAIN];
        let objs_a: Vec<ObjId> = (0..3).map(|_| plain.new_object()).collect();
        let objs_b: Vec<ObjId> = (0..3).map(|_| pruned.new_object()).collect();
        for op in ops {
            match *op {
                Op::Store { t, obj, order, val } => {
                    let t = threads[t as usize % threads.len()];
                    plain.atomic_store(
                        t,
                        objs_a[obj as usize % 3],
                        order_of(order),
                        u64::from(val),
                        StoreKind::Atomic,
                    );
                    pruned.atomic_store(
                        t,
                        objs_b[obj as usize % 3],
                        order_of(order),
                        u64::from(val),
                        StoreKind::Atomic,
                    );
                }
                Op::Load {
                    t,
                    obj,
                    order,
                    choice,
                } => {
                    let t = threads[t as usize % threads.len()];
                    let oa = objs_a[obj as usize % 3];
                    let ob = objs_b[obj as usize % 3];
                    let key = |e: &Execution, s: StoreIdx| (e.store(s).tid, e.store(s).seq);
                    let ca = plain.feasible_read_candidates(t, oa, order_of(order), false);
                    let cb = pruned.feasible_read_candidates(t, ob, order_of(order), false);
                    let mut ka: Vec<_> = ca.iter().map(|&s| key(&plain, s)).collect();
                    let mut kb: Vec<_> = cb.iter().map(|&s| key(&pruned, s)).collect();
                    ka.sort_unstable();
                    kb.sort_unstable();
                    assert_eq!(&ka, &kb, "pruning changed a feasible read set");
                    if !ca.is_empty() {
                        let pa = ca[choice as usize % ca.len()];
                        let k = key(&plain, pa);
                        let pb = cb
                            .iter()
                            .copied()
                            .find(|&s| key(&pruned, s) == k)
                            .expect("equal sets");
                        plain.commit_load(t, oa, order_of(order), pa);
                        pruned.commit_load(t, ob, order_of(order), pb);
                    }
                }
                Op::Rmw {
                    t,
                    obj,
                    order,
                    choice,
                } => {
                    let t = threads[t as usize % threads.len()];
                    let oa = objs_a[obj as usize % 3];
                    let ob = objs_b[obj as usize % 3];
                    let key = |e: &Execution, s: StoreIdx| (e.store(s).tid, e.store(s).seq);
                    let ca = plain.feasible_read_candidates(t, oa, order_of(order), true);
                    if ca.is_empty() {
                        continue;
                    }
                    let pa = ca[choice as usize % ca.len()];
                    let k = key(&plain, pa);
                    let cb = pruned.feasible_read_candidates(t, ob, order_of(order), true);
                    let pb = cb.iter().copied().find(|&s| key(&pruned, s) == k);
                    assert!(pb.is_some(), "pruning lost an RMW candidate");
                    let old = plain.store_value(pa);
                    plain.commit_rmw(t, oa, order_of(order), pa, old + 1);
                    pruned.commit_rmw(t, ob, order_of(order), pb.expect("present"), old + 1);
                }
                Op::Fence { t, order } => {
                    let t = threads[t as usize % threads.len()];
                    plain.fence(t, order_of(order));
                    pruned.fence(t, order_of(order));
                }
                Op::Fork { t } => {
                    if threads.len() < 4 {
                        let parent = threads[t as usize % threads.len()];
                        let a = plain.fork(parent);
                        let b = pruned.fork(parent);
                        assert_eq!(a, b);
                        threads.push(a);
                    }
                }
            }
        }
    });
}

/// `reset` leaves nothing behind: every program runs on one long-lived
/// execution, reset between programs, and on a fresh one, and the two
/// must agree on every feasible read set, every committed read and the
/// final statistics. The pruning mode and policy rotate per program, so
/// a reset follows unpruned, pruned, compacted and RMW-heavy runs of
/// either fragment.
#[test]
fn recycled_execution_equals_fresh() {
    let prunes = [
        PruneConfig::disabled(),
        PruneConfig::conservative(8),
        PruneConfig::memory_limited(2),
    ];
    let policies = [Policy::C11Tester, Policy::Tsan11];
    let mut recycled = Execution::new(Policy::C11Tester);
    let mut case = 0;
    // The sweep must actually exercise the state `reset` has to clear.
    let (mut rmws, mut pruned, mut compactions) = (0, 0, 0);
    for_random_programs("recycled_execution_equals_fresh", 400, |ops| {
        let (policy, prune) = (policies[case % 2], prunes[case % 3]);
        case += 1;
        recycled.reset(policy, prune);
        let on_recycled = replay_on(&mut recycled, ops);
        let mut fresh = Execution::with_pruning(policy, prune);
        let on_fresh = replay_on(&mut fresh, ops);
        assert_eq!(on_recycled.feasible, on_fresh.feasible, "read sets differ");
        assert_eq!(on_recycled.reads, on_fresh.reads, "committed reads differ");
        // `ExecStats` equality skips the diagnostics; of those only
        // `alloc` may tell recycled from fresh.
        recycled.finalize_alloc_stats();
        fresh.finalize_alloc_stats();
        let (got, want) = (recycled.stats(), fresh.stats());
        assert_eq!(got, want, "behavioral statistics differ");
        assert_eq!(got.mograph_perf, want.mograph_perf, "graph work differs");
        rmws += want.rmws;
        pruned += want.pruned_stores;
        compactions += want.mograph_perf.compactions;
    });
    assert!(rmws > 0 && pruned > 0 && compactions > 0, "vacuous sweep");
}
