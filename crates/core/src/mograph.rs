//! The modification-order graph (paper §4, Figures 5–7).
//!
//! Nodes represent stores (or the store halves of RMWs). Two edge kinds
//! exist:
//!
//! * an **mo edge** `A → B` encodes the constraint `A mo→ B`;
//! * an **rmw edge** `A ⇒ R` encodes that RMW `R` read from `A` and must
//!   be *immediately* modification-ordered after `A`.
//!
//! The set of constraints is satisfiable iff the graph is acyclic, and
//! C11Tester's central performance trick (§4.2) is to answer
//! reachability queries — the only queries the rollback-free feasibility
//! check of §4.3 needs — with per-node clock vectors instead of graph
//! traversals. Theorem 1: for two same-location nodes in an acyclic
//! graph, `CV_A ≤ CV_B ⇔ B is reachable from A`.
//!
//! # Incremental topological order
//!
//! On top of the clock vectors the graph maintains an **incremental
//! topological order** (Pearce–Kelly / Marchetti-Spaccamela-style): each
//! live node carries an order index, and every edge points from a lower
//! index to a higher one. Order-respecting insertions — the vast
//! majority, since stores mostly arrive in modification order — cost
//! O(1) extra. A violating insertion triggers a *bounded local reorder*
//! of only the affected index range (`shift_region`).
//!
//! The order index powers two fast paths:
//!
//! * [`MoGraph::reaches`] answers negative queries with one integer
//!   compare (`B` reachable from `A` requires `ord(A) < ord(B)`),
//!   skipping the clock-vector comparison entirely;
//! * `AddEdge`'s redundancy test short-circuits the same way.
//!
//! Both gates are exact for the queries the engine issues (same-location
//! live nodes under the CoWW invariant), so the canonical maintenance
//! counters — and therefore the canonical campaign reports — are
//! bit-identical to the traversal-free baseline.
//!
//! # RMW chains
//!
//! `AddEdge` redirects an edge whose source feeds an RMW to the end of
//! the chain of RMWs reading one another, and the feasibility check
//! asks for that end once per prior-set member per candidate. Chains
//! grow to hundreds of nodes (a `fetch_add` counter, a spun-on lock
//! word), so every node records its chain, its position on it and its
//! rmw-predecessor, and every chain its tail: [`MoGraph::chain_end`],
//! [`MoGraph::chain_tail`] and [`MoGraph::chain_downstream`] are O(1).
//!
//! The order additionally enables **tombstone compaction** (§7.1 memory
//! limiting): [`MoGraph::compact`] physically evicts pruned nodes from
//! the arena, compacts survivors to the prefix while preserving their
//! relative topological positions, and returns a remap table so the
//! execution layer can rewrite its retained [`NodeId`]s.

use crate::clock::ClockVector;
use crate::event::{ObjId, SeqNum, ThreadId};
use c11tester_telemetry::GraphMetrics;
use std::cell::Cell;
use std::collections::VecDeque;

/// Index of a node in the [`MoGraph`] arena.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single store node in the mo-graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Mo-graph clock vector of this node (not a happens-before clock!).
    pub cv: ClockVector,
    /// Outgoing mo edges.
    pub edges: Vec<NodeId>,
    /// Outgoing rmw edge, if an RMW read from this store.
    pub rmw: Option<NodeId>,
    /// Thread that performed the store.
    pub tid: ThreadId,
    /// Sequence number of the store.
    pub seq: SeqNum,
    /// Location the store wrote.
    pub obj: ObjId,
    /// Tombstone flag set by pruning (§7.1): edges and clock storage are
    /// released but the arena slot survives so indices stay valid.
    pub pruned: bool,
}

/// Statistics about graph maintenance, surfaced in
/// [`crate::stats::ExecStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MoGraphStats {
    /// Edges actually inserted (after the redundancy check of `AddEdge`).
    pub edges_added: u64,
    /// Edges skipped because the clock-vector test proved them redundant.
    pub edges_redundant: u64,
    /// Clock-vector merges performed during propagation.
    pub merges: u64,
    /// rmw edges installed.
    pub rmw_edges: u64,
}

/// The modification-order constraint graph.
///
/// The node arena is **recyclable**: [`MoGraph::reset`] rewinds the
/// live count to zero without dropping the `Node`s, so a recycled
/// execution re-populates the same slots — retaining each node's
/// edge-list and (spilled) clock-vector capacity — instead of
/// reallocating per execution. Propagation uses a reusable scratch
/// worklist rather than cloning edge lists per visited node.
///
/// Invariant: `order` is a topological order of the live nodes —
/// `order[p]` is the node at position `p`, `ord[n]` its inverse — and
/// every mo/rmw edge `u → v` satisfies `ord[u] < ord[v]`.
#[derive(Clone, Debug, Default)]
pub struct MoGraph {
    nodes: Vec<Node>,
    /// Number of live nodes; `nodes[live..]` are retired slots kept for
    /// recycling and must never be read.
    live: usize,
    stats: MoGraphStats,
    /// Topological position of each node (indexed by node index;
    /// entries at or above `live` are stale).
    ord: Vec<u32>,
    /// Node at each topological position; always `live` entries.
    order: Vec<NodeId>,
    /// Live nodes currently tombstoned by pruning (compaction resets
    /// this when it evicts them).
    pruned_count: usize,
    perf: GraphMetrics,
    /// Reachability-query counters; `Cell` because [`MoGraph::reaches`]
    /// takes `&self` on the hot path.
    reach_fast: Cell<u64>,
    reach_cv: Cell<u64>,
    /// Reusable BFS worklist for clock-vector propagation.
    scratch: VecDeque<NodeId>,
    /// Reusable buffer for the edges migrated by `add_rmw_edge`.
    scratch_edges: Vec<NodeId>,
    /// Reusable DFS stack for order repair.
    dfs: Vec<NodeId>,
    /// Reusable node markers (all false between operations), sized with
    /// the arena.
    in_f: Vec<bool>,
    /// Reusable staging buffer for the reorder partition.
    reorder_tmp: Vec<NodeId>,
    /// Remap table built by the latest [`MoGraph::compact`].
    remap: Vec<Option<NodeId>>,
    /// RMW-chain membership of each node (indexed by node index;
    /// entries at or above `live` are stale). A *chain* is a maximal
    /// run of nodes linked by `rmw` pointers; every node is on exactly
    /// one, a store nobody RMW-read being a chain of one.
    links: Vec<ChainLink>,
    /// Last node of each chain, indexed by chain id. Only the entries
    /// named by some live node's `links[..].chain` are meaningful.
    chain_tails: Vec<NodeId>,
    /// Set by [`MoGraph::prune_node`], cleared by
    /// [`MoGraph::drop_edges_to_pruned`]: whether any edge may still
    /// point at a tombstone.
    prune_dirty: bool,
}

/// Where a node sits on its RMW chain. Chain ids are the arena index
/// of the node that headed the chain when the id was handed out, so
/// they need no allocator of their own.
#[derive(Clone, Copy, Debug)]
struct ChainLink {
    chain: u32,
    /// Distance from the chain's head.
    pos: u32,
    /// The store this node RMW-read (`pred.rmw == Some(self)`); `None`
    /// for a chain head.
    pred: Option<NodeId>,
}

impl ChainLink {
    /// The link of a chain of one, headed by `id`.
    fn head(id: NodeId) -> Self {
        ChainLink {
            chain: id.0,
            pos: 0,
            pred: None,
        }
    }
}

impl MoGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        MoGraph::default()
    }

    /// Rewinds the graph to empty for a recycled execution, retaining
    /// the node arena (and each node's edge/clock storage) for reuse.
    pub fn reset(&mut self) {
        self.live = 0;
        self.stats = MoGraphStats::default();
        self.order.clear();
        self.pruned_count = 0;
        self.prune_dirty = false;
        self.perf = GraphMetrics::default();
        self.reach_fast.set(0);
        self.reach_cv.set(0);
    }

    /// Adds a node for a store by `tid` with sequence number `seq` at
    /// location `obj`; its clock vector starts at `⊥CV` (own slot only).
    /// Reuses a retired arena slot when one is available. A fresh node
    /// has no edges, so appending it at the end of the topological
    /// order keeps the order valid.
    pub fn add_node(&mut self, tid: ThreadId, seq: SeqNum, obj: ObjId) -> NodeId {
        let id = NodeId(self.live as u32);
        debug_assert_eq!(self.order.len(), self.live);
        let pos = self.live as u32;
        if self.live < self.nodes.len() {
            // Recycled slot: re-initialize in place, keeping capacity.
            let n = &mut self.nodes[self.live];
            n.cv.clear();
            n.cv.set(tid, seq.0);
            n.edges.clear();
            n.rmw = None;
            n.tid = tid;
            n.seq = seq;
            n.obj = obj;
            n.pruned = false;
            self.ord[self.live] = pos;
            self.links[self.live] = ChainLink::head(id);
            self.chain_tails[self.live] = id;
        } else {
            self.nodes.push(Node {
                cv: ClockVector::bottom_for(tid, seq),
                edges: Vec::new(),
                rmw: None,
                tid,
                seq,
                obj,
                pruned: false,
            });
            self.ord.push(pos);
            self.in_f.push(false);
            self.links.push(ChainLink::head(id));
            self.chain_tails.push(id);
        }
        self.order.push(id);
        self.live += 1;
        self.perf.peak_live_nodes = self.perf.peak_live_nodes.max(self.live as u64);
        id
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        debug_assert!(id.index() < self.live, "access to a retired node slot");
        &self.nodes[id.index()]
    }

    /// Number of live nodes (including pruned tombstones of the current
    /// execution, excluding retired slots of recycled ones).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The live nodes as a slice.
    fn live_nodes(&self) -> &[Node] {
        &self.nodes[..self.live]
    }

    /// Number of live nodes whose clock vector spilled to the heap
    /// (allocation diagnostics).
    pub fn spilled_nodes(&self) -> u64 {
        self.live_nodes()
            .iter()
            .filter(|n| n.cv.is_spilled())
            .count() as u64
    }

    /// Graph-maintenance statistics.
    pub fn stats(&self) -> MoGraphStats {
        self.stats
    }

    /// Diagnostic incremental-order / memory-limiting counters.
    pub fn perf_stats(&self) -> GraphMetrics {
        let mut p = self.perf;
        p.reach_fast_negative = self.reach_fast.get();
        p.reach_cv_checks = self.reach_cv.get();
        p
    }

    /// Topological position of a live node (test/diagnostic accessor;
    /// the invariant is `ord(u) < ord(v)` for every edge `u → v`).
    pub fn order_index(&self, id: NodeId) -> u32 {
        debug_assert!(id.index() < self.live, "order of a retired node slot");
        self.ord[id.index()]
    }

    /// `Merge` (Fig. 6): folds `src`'s clock vector into `dst`'s,
    /// reporting whether `dst` changed.
    fn merge(&mut self, dst: NodeId, src: NodeId) -> bool {
        if dst == src {
            return false;
        }
        let (d, s) = (dst.index(), src.index());
        // Split the borrow: indices are distinct.
        let (lo, hi) = if d < s { (d, s) } else { (s, d) };
        let (head, tail) = self.nodes.split_at_mut(hi);
        let (dst_node, src_node) = if d < s {
            (&mut head[lo], &tail[0])
        } else {
            (&mut tail[0], &head[lo])
        };
        if src_node.cv.leq(&dst_node.cv) {
            return false;
        }
        dst_node.cv.union_with(&src_node.cv);
        self.stats.merges += 1;
        true
    }

    /// `AddEdge` (Fig. 6): records the constraint `from mo→ to`, skipping
    /// redundant edges via the order-index/clock-vector test, redirecting
    /// through rmw chains, repairing the topological order when the new
    /// edge violates it, and propagating clock-vector changes
    /// breadth-first.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the edge closes a cycle — callers must
    /// run the §4.3 feasibility check first; the whole point of the
    /// design is that the graph never needs rollback.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if from == to {
            return;
        }
        {
            let fnode = &self.nodes[from.index()];
            let tnode = &self.nodes[to.index()];
            let must_add = fnode.rmw == Some(to) || fnode.tid == tnode.tid;
            // Order gate first: redundancy (`from` already reaches `to`)
            // requires ord(from) < ord(to), so most non-redundant edges
            // skip the clock comparison. Exact: for the same-location
            // live nodes the engine passes here, CV-≤ implies
            // reachability implies the order relation.
            if !must_add && self.ord[from.index()] < self.ord[to.index()] && fnode.cv.leq(&tnode.cv)
            {
                self.stats.edges_redundant += 1;
                return;
            }
        }
        // RMWs are ordered immediately after the store they read from:
        // the edge lands after the chain's end (never on `to` itself —
        // a downstream `to` yields its predecessor).
        let from = self.chain_end(from, to);
        #[cfg(debug_assertions)]
        if self.reaches_slow(to, from) {
            eprintln!("=== mo-graph dump at cycle ===");
            for (ix, n) in self.live_nodes().iter().enumerate() {
                eprintln!(
                    "  node {ix}: {:?} {:?} {:?} cv={:?} edges={:?} rmw={:?}",
                    n.tid, n.seq, n.obj, n.cv, n.edges, n.rmw
                );
            }
            panic!(
                "mo-graph cycle: adding {from:?}{:?} -> {to:?}{:?} while the reverse path exists",
                (self.nodes[from.index()].tid, self.nodes[from.index()].seq),
                (self.nodes[to.index()].tid, self.nodes[to.index()].seq),
            );
        }
        if !self.nodes[from.index()].edges.contains(&to) {
            self.nodes[from.index()].edges.push(to);
            self.stats.edges_added += 1;
            // An edge already present respects the order by the
            // invariant; only a newly inserted one can violate it.
            if self.ord[from.index()] > self.ord[to.index()] {
                self.restore_order(from, to);
            }
        }
        if self.merge(to, from) {
            self.propagate(to);
        }
    }

    /// Repairs the topological order after inserting the violating edge
    /// `from → to` (`ord(from) > ord(to)`): seeds the affected region
    /// at `to` and shifts everything `to` reaches past `from`.
    fn restore_order(&mut self, from: NodeId, to: NodeId) {
        let lo = self.ord[to.index()] as usize;
        let hi = self.ord[from.index()] as usize;
        debug_assert!(self.dfs.is_empty());
        self.in_f[to.index()] = true;
        self.dfs.push(to);
        self.shift_region(lo, hi);
        debug_assert!(
            self.ord[from.index()] < self.ord[to.index()],
            "reorder failed to restore the edge {from:?} -> {to:?}"
        );
    }

    /// Bounded local reorder (the MNR/Pearce–Kelly "shift" step): given
    /// seed nodes already pushed on `self.dfs` (and marked in
    /// `self.in_f`) whose positions lie in `[lo, hi]`, computes the set
    /// `F` of nodes forward-reachable from the seeds within positions
    /// `≤ hi`, then stable-partitions the position range `[lo, hi]`
    /// into non-`F` nodes followed by `F` nodes. Positions outside the
    /// range are untouched.
    ///
    /// This restores the order invariant provided no seed reaches a
    /// node that must precede it (i.e. the graph is acyclic and every
    /// violating edge's *source* is outside `F`): `F` is closed under
    /// in-range successors, and both blocks preserve relative order.
    fn shift_region(&mut self, lo: usize, hi: usize) {
        let mut stack = std::mem::take(&mut self.dfs);
        while let Some(n) = stack.pop() {
            let edge_count = self.nodes[n.index()].edges.len();
            for i in 0..edge_count {
                let s = self.nodes[n.index()].edges[i];
                if (self.ord[s.index()] as usize) <= hi && !self.in_f[s.index()] {
                    self.in_f[s.index()] = true;
                    stack.push(s);
                }
            }
            if let Some(r) = self.nodes[n.index()].rmw {
                if (self.ord[r.index()] as usize) <= hi && !self.in_f[r.index()] {
                    self.in_f[r.index()] = true;
                    stack.push(r);
                }
            }
        }
        self.dfs = stack;
        let mut tmp = std::mem::take(&mut self.reorder_tmp);
        debug_assert!(tmp.is_empty());
        for p in lo..=hi {
            let n = self.order[p];
            if !self.in_f[n.index()] {
                tmp.push(n);
            }
        }
        for p in lo..=hi {
            let n = self.order[p];
            if self.in_f[n.index()] {
                tmp.push(n);
                self.in_f[n.index()] = false;
            }
        }
        debug_assert_eq!(tmp.len(), hi - lo + 1);
        for (off, &n) in tmp.iter().enumerate() {
            let p = lo + off;
            self.order[p] = n;
            self.ord[n.index()] = p as u32;
        }
        tmp.clear();
        self.reorder_tmp = tmp;
        self.perf.order_reorders += 1;
        self.perf.reorder_nodes += (hi - lo + 1) as u64;
    }

    /// Breadth-first clock-vector propagation from `start` over mo and
    /// rmw edges. Uses the reusable scratch worklist; `merge` never
    /// mutates edge lists, so nodes are walked by index without cloning
    /// their edges.
    fn propagate(&mut self, start: NodeId) {
        let mut queue = std::mem::take(&mut self.scratch);
        debug_assert!(queue.is_empty());
        queue.push_back(start);
        while let Some(node) = queue.pop_front() {
            let edge_count = self.nodes[node.index()].edges.len();
            for i in 0..edge_count {
                let dst = self.nodes[node.index()].edges[i];
                if self.merge(dst, node) {
                    queue.push_back(dst);
                }
            }
            if let Some(r) = self.nodes[node.index()].rmw {
                if self.merge(r, node) {
                    queue.push_back(r);
                }
            }
        }
        self.scratch = queue;
    }

    /// `AddRMWEdge` (Fig. 6): `rmw` read from `from`; installs the rmw
    /// edge, migrates `from`'s outgoing mo edges onto `rmw` (everything
    /// previously ordered after `from` is now ordered after `rmw`), and
    /// finally adds the ordinary mo edge with propagation.
    ///
    /// Migration deduplicates against `rmw`'s existing targets with a
    /// marker sweep — O(d) over the degree instead of the quadratic
    /// per-edge `contains` scan — and repairs the topological order for
    /// all migrated targets in **one** batched shift (seeded at every
    /// migrated target ordered before `rmw`) rather than one reorder
    /// per edge.
    ///
    /// Propagation runs unconditionally from the RMW node: the migrated
    /// edges are new paths out of `rmw`, so their targets must absorb
    /// its clock vector even when `from`'s clock was already merged in
    /// by an earlier edge.
    pub fn add_rmw_edge(&mut self, from: NodeId, rmw: NodeId) {
        debug_assert!(
            self.nodes[from.index()].rmw.is_none(),
            "store {from:?} already feeds an RMW; at most one RMW may read from a store"
        );
        debug_assert!(
            self.links[rmw.index()].pred.is_none() && self.nodes[rmw.index()].rmw.is_none(),
            "RMW node {rmw:?} must be a fresh chain of one"
        );
        self.nodes[from.index()].rmw = Some(rmw);
        self.stats.rmw_edges += 1;
        // `from` fed no RMW until now, so it is its chain's tail: the
        // chain grows by one at the end.
        let link = self.links[from.index()];
        self.links[rmw.index()] = ChainLink {
            chain: link.chain,
            pos: link.pos + 1,
            pred: Some(from),
        };
        self.chain_tails[link.chain as usize] = rmw;
        // The rmw pointer is itself an edge; repair its order first
        // (rare — callers create the RMW node right before this call,
        // so it normally sits at the end of the order already).
        if self.ord[from.index()] > self.ord[rmw.index()] {
            self.restore_order(from, rmw);
        }
        let mut migrated = std::mem::take(&mut self.scratch_edges);
        debug_assert!(migrated.is_empty());
        migrated.extend(
            self.nodes[from.index()]
                .edges
                .iter()
                .copied()
                .filter(|&dst| dst != rmw),
        );
        self.nodes[from.index()].edges.clear();
        // O(d) dedup: mark rmw's existing targets, append unmarked
        // migrated ones, then unmark everything.
        for i in 0..self.nodes[rmw.index()].edges.len() {
            let e = self.nodes[rmw.index()].edges[i];
            self.in_f[e.index()] = true;
        }
        for &dst in &migrated {
            if !self.in_f[dst.index()] {
                self.in_f[dst.index()] = true;
                self.nodes[rmw.index()].edges.push(dst);
            }
        }
        for i in 0..self.nodes[rmw.index()].edges.len() {
            let e = self.nodes[rmw.index()].edges[i];
            self.in_f[e.index()] = false;
        }
        // Batched order repair: every migrated target ordered before
        // `rmw` seeds one shift over the smallest covering region.
        let hi = self.ord[rmw.index()] as usize;
        let mut lo = hi;
        debug_assert!(self.dfs.is_empty());
        for &dst in &migrated {
            let p = self.ord[dst.index()] as usize;
            if p < hi && !self.in_f[dst.index()] {
                self.in_f[dst.index()] = true;
                self.dfs.push(dst);
                lo = lo.min(p);
            }
        }
        migrated.clear();
        self.scratch_edges = migrated;
        if !self.dfs.is_empty() {
            self.shift_region(lo, hi);
        }
        self.add_edge(from, rmw);
        // Forced propagation over the migrated edges.
        self.propagate(rmw);
    }

    /// Last node of `start`'s RMW chain (`start` itself when nothing
    /// RMW-read it — the common case, answered from the node alone).
    pub fn chain_tail(&self, start: NodeId) -> NodeId {
        if self.nodes[start.index()].rmw.is_none() {
            return start;
        }
        self.chain_tails[self.links[start.index()].chain as usize]
    }

    /// Is `node` strictly downstream of `start` on `start`'s own RMW
    /// chain, i.e. does following rmw pointers from `start` arrive at
    /// `node`?
    pub fn chain_downstream(&self, start: NodeId, node: NodeId) -> bool {
        if self.nodes[start.index()].rmw.is_none() {
            return false;
        }
        let (s, n) = (self.links[start.index()], self.links[node.index()]);
        s.chain == n.chain && n.pos > s.pos
    }

    /// The node an edge `start → stop` actually leaves from: `AddEdge`
    /// redirects an edge whose source feeds an RMW past the RMW chain
    /// (immediacy), so this is the chain's tail — or, when `stop` lies
    /// downstream on that very chain, the node just before `stop`.
    /// O(1) from the chain metadata.
    pub fn chain_end(&self, start: NodeId, stop: NodeId) -> NodeId {
        let end = if self.chain_downstream(start, stop) {
            self.links[stop.index()]
                .pred
                .expect("a downstream chain node has a predecessor")
        } else {
            self.chain_tail(start)
        };
        #[cfg(debug_assertions)]
        {
            // Oracle: the pointer walk the metadata replaces.
            let mut n = start;
            while let Some(next) = self.nodes[n.index()].rmw {
                if next == stop {
                    break;
                }
                n = next;
            }
            assert_eq!(end, n, "chain metadata diverged from the rmw pointers");
        }
        end
    }

    /// Recomputes every live node's chain link and every chain's tail
    /// from the `rmw` pointers of `nodes[..n]`. Pruning can cut a chain
    /// anywhere (an anchor survives while its RMW reader dies) and
    /// compaction renumbers nodes, so both rebuild rather than patch;
    /// one linear pass, inside passes that are already linear.
    fn rebuild_chains(&mut self, n: usize) {
        for (i, link) in self.links[..n].iter_mut().enumerate() {
            *link = ChainLink::head(NodeId(i as u32));
        }
        for i in 0..n {
            if let Some(r) = self.nodes[i].rmw {
                self.links[r.index()].pred = Some(NodeId(i as u32));
            }
        }
        for head in 0..n {
            if self.links[head].pred.is_some() {
                continue;
            }
            let mut tail = NodeId(head as u32);
            let mut pos = 0;
            while let Some(next) = self.nodes[tail.index()].rmw {
                pos += 1;
                let link = &mut self.links[next.index()];
                link.chain = head as u32;
                link.pos = pos;
                tail = next;
            }
            self.chain_tails[head] = tail;
        }
    }

    /// Theorem 1 reachability: is `b` reachable from `a`?
    ///
    /// Only meaningful when both nodes write the same location (the
    /// paper's precondition for comparing mo-graph clock vectors).
    /// `a == b` answers `false` (we care about non-trivial paths).
    ///
    /// Gated on the topological order: reachability requires
    /// `ord(a) < ord(b)`, so most negative queries resolve with one
    /// integer compare and never touch the clock vectors.
    pub fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        let an = &self.nodes[a.index()];
        let bn = &self.nodes[b.index()];
        debug_assert_eq!(
            an.obj, bn.obj,
            "CV reachability compares same-location nodes"
        );
        if self.ord[a.index()] >= self.ord[b.index()] {
            self.reach_fast.set(self.reach_fast.get() + 1);
            // Exactness of the gate for live nodes: CV-≤ implies
            // reachability implies the order relation. (Pruned nodes
            // have released — vacuously comparable — clocks; the
            // engine never queries them.)
            debug_assert!(
                an.pruned || bn.pruned || !an.cv.leq(&bn.cv),
                "order gate disagrees with Theorem 1 for {a:?} -> {b:?}"
            );
            return false;
        }
        self.reach_cv.set(self.reach_cv.get() + 1);
        an.cv.leq(&bn.cv)
    }

    /// Graph-traversal reachability oracle (the expensive check that
    /// clock vectors replace). Used by tests and debug assertions to
    /// validate Theorem 1.
    pub fn reaches_slow(&self, a: NodeId, b: NodeId) -> bool {
        if a == b {
            return false;
        }
        let mut seen = vec![false; self.live];
        let mut stack = vec![a];
        seen[a.index()] = true;
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n.index()];
            let succs = node.edges.iter().chain(node.rmw.iter());
            for &s in succs {
                if s == b {
                    return true;
                }
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// True if the graph currently contains a cycle (traversal-based;
    /// test/debug use only).
    pub fn has_cycle_slow(&self) -> bool {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut mark = vec![Mark::White; self.live];
        for start in 0..self.live {
            if mark[start] != Mark::White {
                continue;
            }
            // Iterative DFS with an explicit stack of (node, next-child).
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            mark[start] = Mark::Grey;
            while let Some(&(n, child)) = stack.last() {
                let node = &self.nodes[n];
                let succs: Vec<NodeId> = node.edges.iter().copied().chain(node.rmw).collect();
                if child < succs.len() {
                    stack.last_mut().expect("stack non-empty").1 += 1;
                    let s = succs[child].index();
                    match mark[s] {
                        Mark::Grey => return true,
                        Mark::White => {
                            mark[s] = Mark::Grey;
                            stack.push((s, 0));
                        }
                        Mark::Black => {}
                    }
                } else {
                    mark[n] = Mark::Black;
                    stack.pop();
                }
            }
        }
        false
    }

    /// Validates the order invariant by traversal (test/debug use
    /// only): every mo/rmw edge goes forward in the maintained order,
    /// and `order`/`ord` are mutually inverse over the live nodes.
    pub fn order_is_valid_slow(&self) -> bool {
        if self.order.len() != self.live {
            return false;
        }
        for (p, &n) in self.order.iter().enumerate() {
            if n.index() >= self.live || self.ord[n.index()] as usize != p {
                return false;
            }
        }
        for (ix, node) in self.live_nodes().iter().enumerate() {
            let succs = node.edges.iter().chain(node.rmw.iter());
            for &s in succs {
                if self.ord[ix] >= self.ord[s.index()] {
                    return false;
                }
            }
        }
        true
    }

    /// Tombstones a node during pruning: **releases** its clock-vector
    /// heap storage and edge list. Pruned mo-graph nodes are not
    /// recycled within an execution, so retaining capacity here would
    /// defeat the §7.1 memory limiting the pass exists for (unlike
    /// [`MoGraph::reset`], whose retired slots are reused and keep
    /// their storage). The caller is responsible for ensuring no live
    /// node still needs reachability answers involving this node.
    pub fn prune_node(&mut self, id: NodeId) {
        let n = &mut self.nodes[id.index()];
        if !n.pruned {
            self.pruned_count += 1;
            self.prune_dirty = true;
        }
        n.pruned = true;
        n.cv.release();
        n.edges = Vec::new();
        n.rmw = None;
    }

    /// Number of live nodes currently tombstoned by pruning.
    pub fn pruned_len(&self) -> usize {
        self.pruned_count
    }

    /// Drops edges that point at pruned nodes (housekeeping after a
    /// pruning pass so traversal oracles stay meaningful) and rebuilds
    /// the chain metadata over the rmw pointers that remain. A no-op
    /// when nothing was pruned since the last call.
    pub fn drop_edges_to_pruned(&mut self) {
        if !self.prune_dirty {
            return;
        }
        self.prune_dirty = false;
        let live = self.live;
        let nodes = &mut self.nodes[..live];
        for i in 0..live {
            // Taken out so the flags of the *targets* can be read.
            let mut edges = std::mem::take(&mut nodes[i].edges);
            edges.retain(|e| !nodes[e.index()].pruned);
            nodes[i].edges = edges;
            if nodes[i].rmw.is_some_and(|r| nodes[r.index()].pruned) {
                nodes[i].rmw = None;
            }
        }
        self.rebuild_chains(live);
    }

    /// §7.1 memory limiting: physically evicts pruned tombstones from
    /// the arena. Survivors are compacted to the arena prefix in arena
    /// order (edge removal never reorders, so their relative
    /// topological positions survive the move), vacated slots become
    /// retired slots available for recycling, and the maintained
    /// topological order is rebuilt over the survivors.
    ///
    /// Returns the remap table — `remap[old_index]` is the survivor's
    /// new id, or `None` for an evicted tombstone. **The caller must
    /// rewrite every retained [`NodeId`] through it**; stale ids point
    /// at the wrong (or a retired) slot afterwards.
    pub fn compact(&mut self) -> &[Option<NodeId>] {
        let old_live = self.live;
        self.remap.clear();
        self.remap.resize(old_live, None);
        let mut w = 0usize;
        for i in 0..old_live {
            if self.nodes[i].pruned {
                continue;
            }
            self.remap[i] = Some(NodeId(w as u32));
            if w != i {
                self.nodes.swap(w, i);
            }
            w += 1;
        }
        // Rewrite survivor edges through the remap. Edges to pruned
        // nodes should already be gone (`drop_edges_to_pruned`), but
        // dropping any straggler here keeps the pass self-contained.
        for n in &mut self.nodes[..w] {
            n.edges.retain_mut(|e| match self.remap[e.index()] {
                Some(new) => {
                    *e = new;
                    true
                }
                None => false,
            });
            if let Some(r) = n.rmw {
                n.rmw = self.remap[r.index()];
            }
        }
        // Rebuild the topological order over the survivors, preserving
        // their relative positions.
        let mut tmp = std::mem::take(&mut self.reorder_tmp);
        debug_assert!(tmp.is_empty());
        tmp.extend(self.order.iter().filter_map(|&n| self.remap[n.index()]));
        debug_assert_eq!(tmp.len(), w);
        self.order.clear();
        self.order.extend_from_slice(&tmp);
        for (p, &n) in tmp.iter().enumerate() {
            self.ord[n.index()] = p as u32;
        }
        tmp.clear();
        self.reorder_tmp = tmp;
        self.perf.compactions += 1;
        self.perf.compacted_nodes += (old_live - w) as u64;
        self.live = w;
        self.pruned_count = 0;
        self.prune_dirty = false;
        self.rebuild_chains(w);
        &self.remap
    }

    /// Approximate heap footprint of the graph in bytes (for the
    /// memory-limiting experiments of §7.1).
    pub fn approx_bytes(&self) -> usize {
        let mut total = self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.links.capacity() * std::mem::size_of::<ChainLink>()
            + self.chain_tails.capacity() * std::mem::size_of::<NodeId>();
        for n in self.live_nodes() {
            total += n.cv.len() * 8 + n.edges.capacity() * std::mem::size_of::<NodeId>();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ix: usize) -> ThreadId {
        ThreadId::from_index(ix)
    }

    fn graph() -> MoGraph {
        MoGraph::new()
    }

    const OBJ: ObjId = ObjId(1);

    #[test]
    fn single_edge_reachability() {
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let b = g.add_node(t(1), SeqNum(2), OBJ);
        g.add_edge(a, b);
        assert!(g.reaches(a, b));
        assert!(!g.reaches(b, a));
        assert!(g.reaches_slow(a, b));
        assert!(!g.reaches_slow(b, a));
        assert!(g.order_is_valid_slow());
    }

    #[test]
    fn transitive_reachability_via_cv() {
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let b = g.add_node(t(1), SeqNum(2), OBJ);
        let c = g.add_node(t(2), SeqNum(3), OBJ);
        g.add_edge(a, b);
        g.add_edge(b, c);
        assert!(g.reaches(a, c));
        assert!(!g.reaches(c, a));
    }

    #[test]
    fn propagation_updates_downstream_cvs() {
        // Build c -> d first, then a -> b -> c; d's CV must absorb a's.
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let b = g.add_node(t(1), SeqNum(2), OBJ);
        let c = g.add_node(t(2), SeqNum(3), OBJ);
        let d = g.add_node(t(3), SeqNum(4), OBJ);
        g.add_edge(c, d);
        g.add_edge(b, c);
        g.add_edge(a, b);
        assert!(g.reaches(a, d));
        assert!(g.reaches_slow(a, d));
        assert_eq!(g.node(d).cv.get(t(0)), 1);
        assert_eq!(g.node(d).cv.get(t(1)), 2);
        assert_eq!(g.node(d).cv.get(t(2)), 3);
        assert!(g.order_is_valid_slow());
    }

    #[test]
    fn redundant_edge_is_skipped() {
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let b = g.add_node(t(1), SeqNum(2), OBJ);
        let c = g.add_node(t(2), SeqNum(3), OBJ);
        g.add_edge(a, b);
        g.add_edge(b, c);
        let before = g.stats().edges_added;
        g.add_edge(a, c); // already implied
        assert_eq!(g.stats().edges_added, before);
        assert_eq!(g.stats().edges_redundant, 1);
        assert!(g.reaches(a, c));
    }

    #[test]
    fn same_thread_edge_is_forced_despite_cv() {
        // Same-thread nodes start with comparable bottom CVs, which would
        // make the redundancy test misfire without the mustAddEdge guard.
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let b = g.add_node(t(0), SeqNum(5), OBJ);
        assert!(g.node(a).cv.leq(&g.node(b).cv));
        g.add_edge(a, b);
        assert!(g.reaches_slow(a, b), "edge must be physically present");
        assert_eq!(g.stats().edges_added, 1);
    }

    #[test]
    fn rmw_edge_migrates_outgoing_edges() {
        // a --mo--> c; then RMW r reads from a: a's edge to c must move to
        // r, so the final order is a, r, c.
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let c = g.add_node(t(1), SeqNum(2), OBJ);
        g.add_edge(a, c);
        let r = g.add_node(t(2), SeqNum(3), OBJ);
        g.add_rmw_edge(a, r);
        assert!(g.reaches(a, r));
        assert!(g.reaches(r, c));
        assert!(g.reaches(a, c));
        assert!(!g.reaches_slow(c, r));
        // a's only outgoing mo edge is now to the RMW (the migrated edge
        // to c lives on r).
        assert_eq!(g.node(a).edges, vec![r]);
        assert_eq!(g.node(a).rmw, Some(r));
        assert!(g.node(r).edges.contains(&c));
        assert!(g.order_is_valid_slow(), "batched migration repairs order");
    }

    #[test]
    fn add_edge_respects_rmw_chain() {
        // r is an RMW after a. A later edge x -> a must be redirected to
        // land after the chain end (x -> a stays as incoming edge is fine;
        // the *outgoing* redirect case: adding a -> y must become r -> y).
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let r = g.add_node(t(1), SeqNum(2), OBJ);
        g.add_rmw_edge(a, r);
        let y = g.add_node(t(2), SeqNum(3), OBJ);
        g.add_edge(a, y); // must follow the rmw chain and become r -> y
        assert!(g.reaches(r, y));
        assert!(g.reaches_slow(r, y));
        // a's direct outgoing edges still only name the RMW.
        assert_eq!(g.node(a).edges, vec![r]);
    }

    #[test]
    fn chain_end_is_the_tail_or_the_node_before_stop() {
        // a ⇒ r1 ⇒ r2, and an unrelated store y.
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let r1 = g.add_node(t(1), SeqNum(2), OBJ);
        g.add_rmw_edge(a, r1);
        let r2 = g.add_node(t(2), SeqNum(3), OBJ);
        g.add_rmw_edge(r1, r2);
        let y = g.add_node(t(3), SeqNum(4), OBJ);
        for n in [a, r1, r2] {
            assert_eq!(g.chain_tail(n), r2);
            assert_eq!(g.chain_end(n, y), r2, "stop off the chain: the tail");
        }
        assert_eq!(g.chain_tail(y), y);
        assert_eq!(g.chain_end(a, r2), r1, "stop downstream: its predecessor");
        assert_eq!(g.chain_end(a, r1), a);
        assert_eq!(g.chain_end(r2, a), r2, "stop upstream: still the tail");
        assert!(g.chain_downstream(a, r2) && !g.chain_downstream(r2, a));
        assert!(!g.chain_downstream(a, a) && !g.chain_downstream(a, y));
    }

    #[test]
    fn violating_insertion_triggers_bounded_reorder() {
        // b, c, a created in that order (so a sits last in the order),
        // then a -> b forces b (and its reachable set) past a.
        let mut g = graph();
        let b = g.add_node(t(0), SeqNum(1), OBJ);
        let c = g.add_node(t(1), SeqNum(2), OBJ);
        let a = g.add_node(t(2), SeqNum(3), OBJ);
        g.add_edge(b, c);
        assert_eq!(g.perf_stats().order_reorders, 0);
        g.add_edge(a, b); // ord(a)=2 > ord(b)=0: violating
        let p = g.perf_stats();
        assert_eq!(p.order_reorders, 1);
        assert_eq!(p.reorder_nodes, 3, "region [ord(b), ord(a)] spans 3 nodes");
        assert!(g.order_is_valid_slow());
        assert!(g.order_index(a) < g.order_index(b));
        assert!(g.order_index(b) < g.order_index(c));
        assert!(g.reaches(a, c));
        // Order-respecting insertions stay reorder-free.
        let d = g.add_node(t(3), SeqNum(4), OBJ);
        g.add_edge(c, d);
        assert_eq!(g.perf_stats().order_reorders, 1);
    }

    #[test]
    fn reaches_counts_fast_negative_queries() {
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let b = g.add_node(t(1), SeqNum(2), OBJ);
        g.add_edge(a, b);
        let before = g.perf_stats();
        assert!(!g.reaches(b, a), "order gate: ord(b) > ord(a)");
        assert!(g.reaches(a, b));
        let after = g.perf_stats();
        assert_eq!(after.reach_fast_negative, before.reach_fast_negative + 1);
        assert_eq!(after.reach_cv_checks, before.reach_cv_checks + 1);
    }

    #[test]
    fn cv_reachability_matches_dfs_on_random_dags() {
        // Theorem 1 assumes the invariant the execution layer maintains:
        // same-thread same-location stores are mo-ordered in program
        // order (CoWW). We materialize those chains first, then throw
        // random forward cross edges at the graph in random insertion
        // order, and require the CV test to agree exactly with DFS.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = graph();
            let n = 12usize;
            let nthreads = 4usize;
            let ids: Vec<NodeId> = (0..n)
                .map(|i| g.add_node(t(i % nthreads), SeqNum((i + 1) as u64), OBJ))
                .collect();
            for th in 0..nthreads {
                let own: Vec<usize> = (0..n).filter(|i| i % nthreads == th).collect();
                for w in own.windows(2) {
                    g.add_edge(ids[w[0]], ids[w[1]]);
                }
            }
            let mut edges: Vec<(usize, usize)> = Vec::new();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.25) {
                        edges.push((i, j));
                    }
                }
            }
            for k in (1..edges.len()).rev() {
                let j = rng.gen_range(0..=k);
                edges.swap(k, j);
            }
            for (i, j) in edges {
                g.add_edge(ids[i], ids[j]);
            }
            assert!(!g.has_cycle_slow());
            assert!(g.order_is_valid_slow(), "seed {seed}: order invariant");
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let fast = g.reaches(ids[i], ids[j]);
                    let slow = g.reaches_slow(ids[i], ids[j]);
                    assert_eq!(
                        fast, slow,
                        "seed {seed}: CV test and DFS disagree on {i}->{j}"
                    );
                }
            }
        }
    }

    #[test]
    fn prune_releases_node_storage() {
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let b = g.add_node(t(1), SeqNum(2), OBJ);
        g.add_edge(a, b);
        g.prune_node(a);
        g.drop_edges_to_pruned();
        assert!(g.node(a).pruned);
        assert!(g.node(a).edges.is_empty());
        assert!(g.node(a).cv.is_empty());
        assert!(!g.node(b).pruned);
        assert_eq!(g.pruned_len(), 1);
    }

    #[test]
    fn compact_evicts_tombstones_and_remaps_survivors() {
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let b = g.add_node(t(1), SeqNum(2), OBJ);
        let c = g.add_node(t(2), SeqNum(3), OBJ);
        let d = g.add_node(t(3), SeqNum(4), OBJ);
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, d);
        g.prune_node(a);
        g.prune_node(c);
        g.drop_edges_to_pruned();
        let remap: Vec<Option<NodeId>> = g.compact().to_vec();
        assert_eq!(remap.len(), 4);
        assert_eq!(remap[a.index()], None);
        assert_eq!(remap[c.index()], None);
        let (b2, d2) = (remap[b.index()].unwrap(), remap[d.index()].unwrap());
        assert_eq!(g.len(), 2);
        assert_eq!(g.pruned_len(), 0);
        assert!(g.order_is_valid_slow());
        // Survivor identity and *direct* edges survive the move (the
        // b -> c and c -> d edges died with c before compaction).
        assert_eq!(g.node(b2).seq, SeqNum(2));
        assert_eq!(g.node(d2).seq, SeqNum(4));
        assert!(g.node(b2).edges.is_empty());
        assert!(g.reaches(b2, d2), "clock vectors still witness b mo→ d");
        let p = g.perf_stats();
        assert_eq!(p.compactions, 1);
        assert_eq!(p.compacted_nodes, 2);
        // The vacated slots recycle like any retired slot.
        let e = g.add_node(t(0), SeqNum(9), OBJ);
        assert_eq!(e, NodeId(2));
        assert!(!g.node(e).pruned);
        assert!(g.node(e).edges.is_empty());
        g.add_edge(d2, e);
        assert!(g.reaches(d2, e));
        assert!(g.order_is_valid_slow());
    }

    #[test]
    fn compact_preserves_rmw_chains() {
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let r = g.add_node(t(1), SeqNum(2), OBJ);
        g.add_rmw_edge(a, r);
        let x = g.add_node(t(2), SeqNum(3), OBJ);
        g.add_edge(x, a); // lands after the chain: x -> a stays incoming
        g.prune_node(x);
        g.drop_edges_to_pruned();
        let remap: Vec<Option<NodeId>> = g.compact().to_vec();
        let (a2, r2) = (remap[a.index()].unwrap(), remap[r.index()].unwrap());
        assert_eq!(g.node(a2).rmw, Some(r2), "rmw pointer remapped");
        assert_eq!(g.chain_tail(a2), r2);
        assert!(g.reaches(a2, r2));
        assert!(g.order_is_valid_slow());
    }

    #[test]
    fn peak_live_nodes_tracks_arena_high_water() {
        let mut g = graph();
        for i in 0..5 {
            g.add_node(t(0), SeqNum(i + 1), OBJ);
        }
        assert_eq!(g.perf_stats().peak_live_nodes, 5);
        for i in 0..4 {
            g.prune_node(NodeId(i));
        }
        g.drop_edges_to_pruned();
        g.compact();
        assert_eq!(g.len(), 1);
        assert_eq!(g.perf_stats().peak_live_nodes, 5, "high-water sticks");
        g.add_node(t(1), SeqNum(9), OBJ);
        assert_eq!(
            g.perf_stats().peak_live_nodes,
            5,
            "bounded under compaction"
        );
    }

    #[test]
    fn reset_recycles_node_slots() {
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let b = g.add_node(t(1), SeqNum(2), OBJ);
        g.add_edge(a, b);
        let r = g.add_node(t(2), SeqNum(3), OBJ);
        g.add_rmw_edge(a, r);
        g.reset();
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.stats(), MoGraphStats::default());
        assert_eq!(g.perf_stats(), GraphMetrics::default());
        // Recycled slots must behave exactly like fresh nodes: no stale
        // edges, rmw pointers, clocks, or tombstones.
        let a2 = g.add_node(t(3), SeqNum(10), OBJ);
        let b2 = g.add_node(t(4), SeqNum(11), OBJ);
        assert_eq!(a2, a, "slot ids restart from zero");
        assert!(!g.node(a2).pruned);
        assert!(g.node(a2).edges.is_empty());
        assert_eq!(g.node(a2).rmw, None);
        assert_eq!(g.node(a2).cv.get(t(3)), 10);
        assert_eq!(g.node(a2).cv.get(t(0)), 0, "no stale clock slots");
        assert!(!g.reaches(a2, b2));
        g.add_edge(a2, b2);
        assert!(g.reaches(a2, b2));
        assert!(g.reaches_slow(a2, b2));
        assert_eq!(g.stats().edges_added, 1);
        assert!(g.order_is_valid_slow());
    }

    #[test]
    fn perf_stats_absorb_sums_counts_and_maxes_peak() {
        let mut a = GraphMetrics {
            order_reorders: 1,
            reorder_nodes: 10,
            reach_fast_negative: 100,
            reach_cv_checks: 7,
            compactions: 1,
            compacted_nodes: 4,
            peak_live_nodes: 50,
        };
        let b = GraphMetrics {
            order_reorders: 2,
            reorder_nodes: 5,
            reach_fast_negative: 1,
            reach_cv_checks: 3,
            compactions: 0,
            compacted_nodes: 0,
            peak_live_nodes: 80,
        };
        a.absorb(&b);
        assert_eq!(a.order_reorders, 3);
        assert_eq!(a.reorder_nodes, 15);
        assert_eq!(a.reach_fast_negative, 101);
        assert_eq!(a.reach_cv_checks, 10);
        assert_eq!(a.compactions, 1);
        assert_eq!(a.compacted_nodes, 4);
        assert_eq!(a.peak_live_nodes, 80);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mo-graph cycle")]
    fn debug_build_catches_cycles() {
        let mut g = graph();
        let a = g.add_node(t(0), SeqNum(1), OBJ);
        let b = g.add_node(t(1), SeqNum(2), OBJ);
        g.add_edge(a, b);
        g.add_edge(b, a);
    }
}
