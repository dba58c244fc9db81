//! Property tests: the incremental-topological-order mo-graph against
//! an independent naive reachability oracle.
//!
//! The oracle mirrors only the Fig. 6 edge *semantics* (rmw-chain
//! redirection, rmw edge migration) on plain adjacency lists and
//! answers reachability with a Floyd–Warshall transitive closure — no
//! clock vectors, no order indices, no shared engine code (the same
//! independence discipline as the `c11fuzz` trace oracle). Random
//! operation sequences are biased at the machinery's boundaries:
//! order-violating edge insertions, which force bounded local
//! reorders, and §7.1 prune/compact passes, which tombstone and then
//! physically evict nodes while remapping ids. After every step the
//! O(1) RMW-chain metadata (`chain_end`, `chain_tail`) is also held to
//! the oracle's pointer walk for every live same-location pair.
//!
//! The generator maintains the engine's structural invariants — edges
//! connect same-location stores, per-(thread, location) stores form a
//! CoWW chain, at most one RMW reads from a store, and prune sets are
//! ancestor-closed — because Theorem 1's exactness (and therefore
//! `MoGraph::reaches`) is only promised under them.

use c11tester_core::rng::Xoshiro256StarStar;
use c11tester_core::{MoGraph, NodeId, ObjId, SeqNum, ThreadId};

const CASES: u64 = 32;
const STEPS: usize = 48;
const THREADS: usize = 4;
const OBJS: u64 = 2;

/// The naive mirror: adjacency lists plus the Fig. 6 edge semantics,
/// nothing else.
#[derive(Default)]
struct Oracle {
    obj: Vec<u64>,
    edges: Vec<Vec<usize>>,
    rmw: Vec<Option<usize>>,
    pruned: Vec<bool>,
}

impl Oracle {
    fn add_node(&mut self, obj: u64) -> usize {
        self.obj.push(obj);
        self.edges.push(Vec::new());
        self.rmw.push(None);
        self.pruned.push(false);
        self.obj.len() - 1
    }

    fn len(&self) -> usize {
        self.obj.len()
    }

    /// Fig. 6 `AddEdge` redirection: an edge out of a store that feeds
    /// an RMW lands after the rmw chain's end instead.
    fn chain_end(&self, start: usize, stop: usize) -> usize {
        let mut n = start;
        while let Some(next) = self.rmw[n] {
            if next == stop {
                break;
            }
            n = next;
        }
        n
    }

    fn add_edge(&mut self, from: usize, to: usize) {
        let from = self.chain_end(from, to);
        if from != to && !self.edges[from].contains(&to) {
            self.edges[from].push(to);
        }
    }

    /// Fig. 6 `AddRMWEdge`: install the rmw pointer, migrate `from`'s
    /// outgoing edges onto `rmw`, then add the ordinary edge.
    fn add_rmw_edge(&mut self, from: usize, rmw: usize) {
        assert!(self.rmw[from].is_none(), "store already feeds an RMW");
        self.rmw[from] = Some(rmw);
        let migrated: Vec<usize> = std::mem::take(&mut self.edges[from])
            .into_iter()
            .filter(|&d| d != rmw)
            .collect();
        for d in migrated {
            if !self.edges[rmw].contains(&d) {
                self.edges[rmw].push(d);
            }
        }
        self.add_edge(from, rmw);
    }

    /// Floyd–Warshall transitive closure over mo and rmw edges.
    fn closure(&self) -> Vec<Vec<bool>> {
        let n = self.len();
        let mut c = vec![vec![false; n]; n];
        for (u, row) in c.iter_mut().enumerate() {
            for &v in &self.edges[u] {
                row[v] = true;
            }
            if let Some(r) = self.rmw[u] {
                row[r] = true;
            }
        }
        for k in 0..n {
            let row_k = c[k].clone();
            for row_i in c.iter_mut() {
                if row_i[k] {
                    for (j, &reach) in row_k.iter().enumerate() {
                        if reach {
                            row_i[j] = true;
                        }
                    }
                }
            }
        }
        c
    }

    fn prune(&mut self, ix: usize) {
        self.pruned[ix] = true;
        self.edges[ix].clear();
        self.rmw[ix] = None;
    }

    fn drop_edges_to_pruned(&mut self) {
        let pruned = self.pruned.clone();
        for u in 0..self.len() {
            self.edges[u].retain(|&d| !pruned[d]);
            if let Some(r) = self.rmw[u] {
                if pruned[r] {
                    self.rmw[u] = None;
                }
            }
        }
    }
}

/// One generated case: a random, invariant-respecting operation
/// sequence applied to both implementations with cross-checks after
/// every step.
struct Case {
    g: MoGraph,
    o: Oracle,
    /// Oracle index → graph arena id (rewritten by compaction).
    ids: Vec<NodeId>,
    /// CoWW chain tail per (thread, location), as the engine keeps it.
    tails: [[Option<usize>; OBJS as usize]; THREADS],
    seq: u64,
}

impl Case {
    fn new() -> Self {
        Case {
            g: MoGraph::new(),
            o: Oracle::default(),
            ids: Vec::new(),
            tails: [[None; OBJS as usize]; THREADS],
            seq: 0,
        }
    }

    /// Adds a store node for `(t, obj)` with its CoWW chain edge.
    fn add_store(&mut self, t: usize, obj: u64) -> usize {
        self.seq += 1;
        let id = self
            .g
            .add_node(ThreadId::from_index(t), SeqNum(self.seq), ObjId(obj));
        let ix = self.o.add_node(obj);
        assert_eq!(self.ids.len(), ix);
        self.ids.push(id);
        if let Some(tail) = self.tails[t][obj as usize] {
            self.g.add_edge(self.ids[tail], id);
            self.o.add_edge(tail, ix);
        }
        self.tails[t][obj as usize] = Some(ix);
        ix
    }

    /// Live (unpruned) oracle indices.
    fn live(&self) -> Vec<usize> {
        (0..self.o.len()).filter(|&i| !self.o.pruned[i]).collect()
    }

    /// Attempts one extra mo edge between same-location nodes. With
    /// `bias_reorder`, prefers pairs whose *effective* source (after
    /// rmw-chain redirection) sits later in the maintained order than
    /// the target — exactly the insertions that trigger a bounded
    /// local reorder.
    fn add_random_edge(
        &mut self,
        rng: &mut Xoshiro256StarStar,
        closure: &[Vec<bool>],
        bias_reorder: bool,
    ) {
        let live = self.live();
        if live.len() < 2 {
            return;
        }
        let mut fallback = None;
        for _ in 0..16 {
            let a = live[rng.gen_range(0..live.len())];
            let b = live[rng.gen_range(0..live.len())];
            if a == b || self.o.obj[a] != self.o.obj[b] {
                continue;
            }
            // The edge actually lands at the rmw-chain end; cycle
            // safety and reorder bias are judged there.
            let s = self.o.chain_end(a, b);
            if s == b || closure[b][s] {
                continue;
            }
            let violates = self.g.order_index(self.ids[s]) > self.g.order_index(self.ids[b]);
            if violates || !bias_reorder {
                self.apply_edge(a, b);
                return;
            }
            fallback = Some((a, b));
        }
        if let Some((a, b)) = fallback {
            self.apply_edge(a, b);
        }
    }

    fn apply_edge(&mut self, a: usize, b: usize) {
        self.g.add_edge(self.ids[a], self.ids[b]);
        self.o.add_edge(a, b);
    }

    /// Attempts an RMW: a new same-location store node on `t`'s CoWW
    /// chain that reads from a safe existing store. Safety mirrors the
    /// engine's §4.3 feasibility requirement: migrating `src`'s edges
    /// onto the new node must not order anything before the node's
    /// existing predecessors.
    fn add_random_rmw(&mut self, rng: &mut Xoshiro256StarStar, closure: &[Vec<bool>]) {
        let t = rng.gen_range(0..THREADS);
        let obj = rng.gen_range(0..OBJS);
        let tail = self.tails[t][obj as usize];
        // The CoWW edge out of the tail is itself redirected through
        // the tail's rmw chain, so the new node's real predecessor is
        // the chain's end, not the tail.
        let pred = tail.map(|p| self.o.chain_end(p, usize::MAX));
        let candidates: Vec<usize> = self
            .live()
            .into_iter()
            .filter(|&src| {
                self.o.obj[src] == obj
                    && self.o.rmw[src].is_none()
                    && self.o.edges[src].iter().all(|&d| {
                        // A migrated target must not reach the
                        // predecessor of the node we are about to add.
                        pred.is_none_or(|p| d != p && !closure[d][p])
                    })
            })
            .collect();
        if candidates.is_empty() {
            return;
        }
        let src = candidates[rng.gen_range(0..candidates.len())];
        let n = self.add_store(t, obj);
        self.g.add_rmw_edge(self.ids[src], self.ids[n]);
        self.o.add_rmw_edge(src, n);
    }

    /// §7.1 prune pass: tombstones the ancestor closure of a random
    /// node (ancestor-closedness is the engine's contract — survivors
    /// never needed reachability answers through pruned nodes), then
    /// optionally compacts, rewriting every retained id through the
    /// remap table exactly as the execution layer must.
    fn prune_and_maybe_compact(&mut self, rng: &mut Xoshiro256StarStar, closure: &[Vec<bool>]) {
        let live = self.live();
        if live.is_empty() {
            return;
        }
        let v = live[rng.gen_range(0..live.len())];
        let doomed: Vec<usize> = live
            .into_iter()
            .filter(|&u| u == v || closure[u][v])
            .collect();
        self.prune(&doomed);
        if rng.gen_range(0..2u32) == 0 {
            self.compact();
        }
    }

    /// Tombstones `doomed` on both sides and drops the edges into it.
    fn prune(&mut self, doomed: &[usize]) {
        for &u in doomed {
            self.g.prune_node(self.ids[u]);
            self.o.prune(u);
        }
        self.g.drop_edges_to_pruned();
        self.o.drop_edges_to_pruned();
        for row in self.tails.iter_mut() {
            for tail in row.iter_mut() {
                if tail.is_some_and(|ix| self.o.pruned[ix]) {
                    *tail = None;
                }
            }
        }
    }

    /// Compacts the graph and rebuilds the oracle over the survivors,
    /// renumbering both sides consistently.
    fn compact(&mut self) {
        let remap = self.g.compact().to_vec();
        let mut new_of_old = vec![None; self.o.len()];
        let mut o2 = Oracle::default();
        let mut ids2 = Vec::new();
        for old in 0..self.o.len() {
            if self.o.pruned[old] {
                assert_eq!(
                    remap[self.ids[old].0 as usize], None,
                    "pruned node survived compaction"
                );
                continue;
            }
            let new_id = remap[self.ids[old].0 as usize].expect("live node evicted by compaction");
            new_of_old[old] = Some(o2.add_node(self.o.obj[old]));
            ids2.push(new_id);
        }
        for old in 0..self.o.len() {
            let Some(new) = new_of_old[old] else { continue };
            for &d in &self.o.edges[old] {
                o2.edges[new].push(new_of_old[d].expect("edge to pruned node"));
            }
            o2.rmw[new] = self.o.rmw[old].map(|r| new_of_old[r].expect("rmw to pruned node"));
        }
        for row in self.tails.iter_mut() {
            for tail in row.iter_mut() {
                *tail = tail.and_then(|ix| new_of_old[ix]);
            }
        }
        self.o = o2;
        self.ids = ids2;
    }

    /// The chain metadata against the oracle's pointer walk: for every
    /// live same-location pair, where an edge `a → b` would leave from,
    /// and for every live node, where its chain ends.
    fn check_chains(&self, ctx: &str) {
        let live = self.live();
        for &a in &live {
            assert_eq!(
                self.g.chain_tail(self.ids[a]),
                self.ids[self.o.chain_end(a, usize::MAX)],
                "{ctx}: chain_tail({a})"
            );
            assert!(
                !self.g.chain_downstream(self.ids[a], self.ids[a]),
                "{ctx}: downstream is strict"
            );
            for &b in &live {
                if a == b || self.o.obj[a] != self.o.obj[b] {
                    continue;
                }
                let walked = self.o.chain_end(a, b);
                assert_eq!(
                    self.g.chain_end(self.ids[a], self.ids[b]),
                    self.ids[walked],
                    "{ctx}: chain_end({a}, {b})"
                );
                assert_eq!(
                    self.g.chain_downstream(self.ids[a], self.ids[b]),
                    self.o.rmw[walked] == Some(b),
                    "{ctx}: chain_downstream({a}, {b})"
                );
            }
        }
    }

    /// Cross-checks every pair against the oracle closure:
    /// * the maintained topological order is a valid one;
    /// * graph-traversal reachability equals the naive closure;
    /// * clock-vector reachability (`reaches`) equals it for
    ///   same-location pairs (its documented domain);
    /// * every reachable pair respects the order indices.
    fn check(&self, closure: &[Vec<bool>], ctx: &str) {
        if !self.g.order_is_valid_slow() {
            for (ix, &id) in self.ids.iter().enumerate() {
                let n = self.g.node(id);
                eprintln!(
                    "  ix {ix} id {:?} ord {} tid {:?} obj {:?} edges {:?} rmw {:?} pruned {}",
                    id,
                    self.g.order_index(id),
                    n.tid,
                    n.obj,
                    n.edges,
                    n.rmw,
                    n.pruned
                );
            }
            panic!("{ctx}: order invariant broken");
        }
        assert!(!self.g.has_cycle_slow(), "{ctx}: graph acquired a cycle");
        self.check_chains(ctx);
        let live = self.live();
        for &a in &live {
            for &b in &live {
                if a == b {
                    continue;
                }
                assert_eq!(
                    self.g.reaches_slow(self.ids[a], self.ids[b]),
                    closure[a][b],
                    "{ctx}: traversal disagrees with oracle for {a} -> {b}"
                );
                if self.o.obj[a] == self.o.obj[b] {
                    assert_eq!(
                        self.g.reaches(self.ids[a], self.ids[b]),
                        closure[a][b],
                        "{ctx}: clock vectors disagree with oracle for {a} -> {b}"
                    );
                }
                if closure[a][b] {
                    assert!(
                        self.g.order_index(self.ids[a]) < self.g.order_index(self.ids[b]),
                        "{ctx}: order contradicts reachability for {a} -> {b}"
                    );
                }
            }
        }
    }
}

fn run_case(seed: u64, bias_reorder: bool, with_pruning: bool) {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut case = Case::new();
    for step in 0..STEPS {
        let closure = case.o.closure();
        let roll = rng.gen_range(0..100u32);
        if roll < 30 {
            let t = rng.gen_range(0..THREADS);
            let obj = rng.gen_range(0..OBJS);
            case.add_store(t, obj);
        } else if roll < 70 {
            case.add_random_edge(&mut rng, &closure, bias_reorder);
        } else if roll < 85 {
            case.add_random_rmw(&mut rng, &closure);
        } else if with_pruning {
            case.prune_and_maybe_compact(&mut rng, &closure);
        } else {
            case.add_random_edge(&mut rng, &closure, true);
        }
        let closure = case.o.closure();
        case.check(&closure, &format!("seed {seed} step {step}"));
    }
}

#[test]
fn random_graphs_match_naive_oracle() {
    for seed in 0..CASES {
        run_case(0xA_11CE_0000 + seed, false, false);
    }
}

#[test]
fn reorder_heavy_graphs_match_naive_oracle() {
    // Every edge step hunts for an order-violating insertion first, so
    // the bounded local reorder path runs constantly.
    for seed in 0..CASES {
        run_case(0xB0B_0000 + seed, true, false);
    }
}

#[test]
fn pruned_and_compacted_graphs_match_naive_oracle() {
    // §7.1 boundary: ancestor-closed tombstoning, edge dropping, and
    // physical compaction with id remapping interleave with growth.
    for seed in 0..CASES {
        run_case(0xC0_FFEE_0000 + seed, true, true);
    }
}

#[test]
fn three_hundred_long_rmw_chain_keeps_o1_chain_ends_exact() {
    // One location, every store but the first an RMW of the previous
    // one — the shape of a `fetch_add` counter or a spun-on lock word,
    // where the pointer walk `chain_end` replaced was quadratic.
    const LEN: usize = 300;
    let mut case = Case::new();
    let mut tail = case.add_store(0, 0);
    for i in 1..LEN {
        let n = case.add_store(i % THREADS, 0);
        case.g.add_rmw_edge(case.ids[tail], case.ids[n]);
        case.o.add_rmw_edge(tail, n);
        tail = n;
    }
    assert_eq!(case.g.chain_tail(case.ids[0]), case.ids[tail]);
    case.check_chains("grown");
    // A pruned prefix cuts the chain; tombstones stay in the arena.
    case.prune(&(0..100).collect::<Vec<_>>());
    case.check_chains("prefix pruned");
    // Cut it again in the middle: an anchor-like survivor (150) loses
    // its reader (151), so one chain becomes two.
    case.prune(&[151]);
    assert_eq!(case.g.chain_tail(case.ids[100]), case.ids[150]);
    assert_eq!(case.g.chain_tail(case.ids[152]), case.ids[tail]);
    case.check_chains("middle cut");
    case.compact();
    case.check_chains("compacted");
    assert!(case.g.order_is_valid_slow());
    // And the survivors keep growing.
    let last = case.live().into_iter().max().expect("survivors");
    let n = case.add_store(1, 0);
    case.g.add_rmw_edge(case.ids[last], case.ids[n]);
    case.o.add_rmw_edge(last, n);
    case.check_chains("regrown");
}
