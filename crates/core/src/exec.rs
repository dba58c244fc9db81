//! The operational-semantics driver (paper §6, Figures 9–11).
//!
//! [`Execution`] is a pure state machine: the runtime layer feeds it one
//! visible operation at a time (the tool sequentializes visible
//! operations, so there is no internal locking here), and read-from
//! choices are delegated to the caller so that pluggable testing
//! strategies (paper §3) can pick among the legal behaviors.
//!
//! A load proceeds in three steps, mirroring Fig. 11's `[ATOMIC LOAD]`:
//!
//! 1. [`Execution::read_candidates`] builds the may-read-from set
//!    (Fig. 12) — an over-approximation considering only `hb`;
//! 2. [`Execution::check_read_feasible`] runs the rollback-free §4.3
//!    check (`ReadPriorSet` + Theorem 1 clock-vector reachability);
//! 3. [`Execution::commit_load`] establishes the `rf` edge, adds the
//!    implied mo-graph edges, and applies the Fig. 9 clock rules.
//!
//! Step 2 leaves the candidate-independent half of its work behind as a
//! *read plan*; a step 3 for the same `(thread, object, order)` with no
//! event in between builds the chosen candidate's prior set from it
//! instead of recomputing, so each operation scans the histories once.
//! Within step 2 the plan also resolves each prior-set member's
//! mo-graph node and RMW-chain tail once, for all candidates.

use crate::clock::ClockVector;
use crate::event::{
    AccessRef, FenceIdx, FenceRecord, LoadIdx, LoadRecord, MemOrder, ObjId, SeqNum, StoreIdx,
    StoreKind, StoreRecord, ThreadId,
};
use crate::location::{seq_prefix_len, LocationState};
use crate::mograph::{MoGraph, NodeId};
use crate::policy::Policy;
#[cfg(debug_assertions)]
use crate::priorset::edges_into_feasible;
use crate::priorset::{prior_set_of, PlannedSet};
use crate::prune::{PruneConfig, PruneScratch};
use crate::stats::{AllocStats, ExecStats};
use c11tester_telemetry::{phase_start, ExecCoverage, Phase, PhaseProfile, TraceEvent, TraceKind};

/// Per-thread model state (`ThrState` of Fig. 10).
#[derive(Clone, Debug)]
pub struct ThreadState {
    /// `C_t`: the thread's happens-before clock vector.
    pub cv: ClockVector,
    /// `F^rel_t`: release-fence clock vector (Fig. 9).
    pub fence_rel: ClockVector,
    /// `F^acq_t`: acquire-fence clock vector (Fig. 9).
    pub fence_acq: ClockVector,
    /// seq_cst fences performed by this thread (`sc_fences(t)`).
    pub sc_fences: Vec<FenceIdx>,
    /// False once the thread's program has finished.
    pub alive: bool,
    /// True while the thread's most recent visible operation was a plain
    /// relaxed/release atomic store — the state the scheduler's
    /// *write-run* rule (paper §3, Fig. 4) keys on.
    pub in_store_run: bool,
    /// The thread this one is blocked joining, if any. Pruning's
    /// `CV_min` (§7.1) may credit a blocked joiner with the join
    /// target's *current* clock: clocks grow monotonically and the
    /// joiner resumes with the target's final clock folded in, so the
    /// union is a sound lower bound on the joiner's clock at its next
    /// visible operation. Without this, a main thread parked in `join`
    /// for the whole execution pins `CV_min` at zero and long-running
    /// workloads never prune anything.
    pub waiting_on: Option<ThreadId>,
}

/// Key of the hoisted prior-set state a candidate selection leaves for
/// the commit that follows it. The bests depend only on `(t, obj,
/// order)` and the histories, and every history change advances the
/// event count, so an equal key means the buffers still hold what a
/// recomputation would produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ReadPlan {
    t: ThreadId,
    obj: ObjId,
    order: MemOrder,
    /// Event count at selection time.
    seq: u64,
    /// For an RMW selection: length of the `WritePriorSet` proper at
    /// the front of `wbests`.
    wps_len: Option<usize>,
}

/// [`Execution::node_of`] over the two fields it touches, for callers
/// that hold other fields of the execution borrowed.
pub(crate) fn node_of(stores: &mut [StoreRecord], graph: &mut MoGraph, s: StoreIdx) -> NodeId {
    let r = &mut stores[s.index()];
    *r.node
        .get_or_insert_with(|| graph.add_node(r.tid, r.seq, r.obj))
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            cv: ClockVector::new(),
            fence_rel: ClockVector::new(),
            fence_acq: ClockVector::new(),
            sc_fences: Vec::new(),
            alive: true,
            in_store_run: false,
            waiting_on: None,
        }
    }

    /// Rewinds the thread to its initial state while retaining the
    /// clock vectors' (spilled) storage and the fence list's capacity
    /// (execution-state recycling).
    fn reset(&mut self) {
        self.cv.clear();
        self.fence_rel.clear();
        self.fence_acq.clear();
        self.sc_fences.clear();
        self.alive = true;
        self.in_store_run = false;
        self.waiting_on = None;
    }
}

/// One program execution under the model: event arenas, per-location
/// histories, per-thread clocks, and the mo-graph.
///
/// # Allocation discipline
///
/// Every container here is either capacity-retaining across
/// [`Execution::reset`] (arenas, the dense location table, the
/// mo-graph, scratch buffers) or allocation-free in the common case
/// (clock vectors stay inline up to [`crate::clock::INLINE_SLOTS`]
/// threads). A model that recycles its `Execution` between runs —
/// [`Execution::reset`] instead of `Execution::new` — therefore does
/// no steady-state heap allocation on the per-operation hot path.
/// Recycling is **behaviorally invisible**: a reset execution produces
/// the same events, reports, and (behavioral) statistics as a fresh
/// one — only the [`crate::AllocStats`] diagnostics differ.
#[derive(Clone, Debug)]
pub struct Execution {
    policy: Policy,
    pub(crate) seq: u64,
    pub(crate) threads: Vec<ThreadState>,
    pub(crate) stores: Vec<StoreRecord>,
    pub(crate) loads: Vec<LoadRecord>,
    pub(crate) fences: Vec<FenceRecord>,
    /// Per-location histories, indexed **densely** by `ObjId` (object
    /// ids are sequential, so a `Vec` arena replaces the former
    /// hash map: O(1) access with no hashing, deterministic iteration
    /// order for pruning, and capacity retention across resets).
    pub(crate) locations: Vec<LocationState>,
    pub(crate) graph: MoGraph,
    pub(crate) free_stores: Vec<StoreIdx>,
    pub(crate) free_loads: Vec<LoadIdx>,
    next_obj: u64,
    pub(crate) stats: ExecStats,
    pub(crate) prune_cfg: PruneConfig,
    /// Reusable scratch for prior-set computation (taken/returned
    /// around each use; never observed non-empty outside a commit).
    pub(crate) pset_buf: Vec<StoreIdx>,
    /// The per-thread prior-set bests of the latest candidate
    /// selection; meaningful while `plan` is set.
    pub(crate) bests: PlannedSet,
    /// The RMW write prior set of the latest candidate selection;
    /// meaningful while `plan` names its length.
    pub(crate) wbests: PlannedSet,
    /// What the latest candidate selection computed `bests` (and
    /// `wbests`) for; consumed by the next commit.
    pub(crate) plan: Option<ReadPlan>,
    /// Reusable scratch of the pruning pass.
    pub(crate) prune_buf: PruneScratch,
    /// Whether committed events are buffered into `trace_buf`
    /// ([`Execution::set_trace_buffering`]; off in a new execution and
    /// kept across [`Execution::reset`]).
    pub(crate) trace: bool,
    /// Committed-event buffer for structured schedule traces. Empty
    /// (and allocation-free) unless `trace` is set; drained by the
    /// model layer into a `TraceSink` after each execution.
    pub(crate) trace_buf: Vec<TraceEvent>,
    /// Behavior-coverage signature of this execution. Disarmed
    /// (`collected == false`, no recording) unless coverage collection
    /// was enabled when the execution started — the global gate is
    /// sampled once per execution, so the hot path pays one boolean
    /// test per commit point. Drained by the model layer.
    pub(crate) coverage: ExecCoverage,
    /// Thread of the most recently committed event, for detecting the
    /// preemption points the interleaving signature hashes.
    last_event_tid: ThreadId,
}

impl Execution {
    /// Creates a fresh execution with a single live main thread.
    pub fn new(policy: Policy) -> Self {
        Execution::with_pruning(policy, PruneConfig::disabled())
    }

    /// Creates a fresh execution with the given pruning configuration
    /// (§7.1).
    pub fn with_pruning(policy: Policy, prune_cfg: PruneConfig) -> Self {
        // The main thread gets a *thread-begin* event (sequence 1) so
        // that its clock slot is non-zero from the start — the race
        // detector's epochs reserve clock 0 for "no access".
        let mut main = ThreadState::new();
        main.cv.set(ThreadId::MAIN, 1);
        let stats = ExecStats {
            alloc: AllocStats {
                fresh_executions: 1,
                ..AllocStats::default()
            },
            ..ExecStats::default()
        };
        Execution {
            policy,
            seq: 1,
            threads: vec![main],
            stores: Vec::new(),
            loads: Vec::new(),
            fences: Vec::new(),
            locations: Vec::new(),
            graph: MoGraph::new(),
            free_stores: Vec::new(),
            free_loads: Vec::new(),
            next_obj: 0,
            stats,
            prune_cfg,
            pset_buf: Vec::new(),
            bests: PlannedSet::default(),
            wbests: PlannedSet::default(),
            plan: None,
            prune_buf: PruneScratch::default(),
            trace: false,
            trace_buf: Vec::new(),
            coverage: if c11tester_telemetry::coverage_enabled() {
                ExecCoverage::collecting()
            } else {
                ExecCoverage::default()
            },
            last_event_tid: ThreadId::MAIN,
        }
    }

    /// Rewinds this execution to the state `Execution::with_pruning`
    /// would create, **retaining every container's capacity**: the
    /// store/load/fence arenas, the dense location table (and each
    /// location's per-thread history lists), the mo-graph node arena,
    /// and all scratch buffers survive for the next execution.
    ///
    /// The determinism contract: a reset execution is observationally
    /// identical to a fresh one — same feasible sets, same events, same
    /// reports, same behavioral statistics. Only the
    /// [`crate::AllocStats`] diagnostics record that recycling
    /// happened.
    pub fn reset(&mut self, policy: Policy, prune_cfg: PruneConfig) {
        self.policy = policy;
        self.prune_cfg = prune_cfg;
        self.seq = 1;
        // Per-thread state: keep slot 0, drop the rest (child threads
        // are re-forked next run; their states are small and the clock
        // vectors inline for ≤ INLINE_SLOTS threads).
        self.threads.truncate(1);
        self.threads[0].reset();
        self.threads[0].cv.set(ThreadId::MAIN, 1);
        self.stores.clear();
        self.loads.clear();
        self.fences.clear();
        for loc in &mut self.locations {
            loc.reset();
        }
        self.graph.reset();
        self.free_stores.clear();
        self.free_loads.clear();
        self.next_obj = 0;
        self.plan = None;
        self.trace_buf.clear();
        self.coverage.reset(c11tester_telemetry::coverage_enabled());
        self.last_event_tid = ThreadId::MAIN;
        self.stats = ExecStats {
            alloc: AllocStats {
                recycled_executions: 1,
                ..AllocStats::default()
            },
            ..ExecStats::default()
        };
    }

    /// Shared access to a location's history, if the location exists
    /// (dense `ObjId`-indexed lookup).
    #[inline]
    pub(crate) fn loc(&self, obj: ObjId) -> Option<&LocationState> {
        self.locations.get(obj.0 as usize)
    }

    /// Mutable access to a location's history, growing the dense table.
    #[inline]
    pub(crate) fn loc_mut(&mut self, obj: ObjId) -> &mut LocationState {
        let ix = obj.0 as usize;
        if self.locations.len() <= ix {
            self.locations.resize_with(ix + 1, LocationState::default);
        }
        &mut self.locations[ix]
    }

    /// Snapshots the allocation diagnostics that are only observable at
    /// the end of an execution (currently: how many live clock vectors
    /// sit in spilled heap storage). Call once, after the program under
    /// test finished and before reading [`Execution::stats`].
    pub fn finalize_alloc_stats(&mut self) {
        let mut spills = 0u64;
        for t in &self.threads {
            spills += u64::from(t.cv.is_spilled())
                + u64::from(t.fence_rel.is_spilled())
                + u64::from(t.fence_acq.is_spilled());
        }
        for s in &self.stores {
            spills += u64::from(s.rf_cv.is_spilled()) + u64::from(s.hb_cv.is_spilled());
        }
        spills += self.graph.spilled_nodes();
        self.stats.alloc.clock_spills = spills;
        // Snapshot the incremental-order / memory-limiting diagnostics
        // (like `alloc`, excluded from behavioral equality).
        self.stats.mograph_perf = self.graph.perf_stats();
    }

    /// The memory-model policy in force.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Allocates a fresh atomic-object identifier.
    pub fn new_object(&mut self) -> ObjId {
        let id = ObjId(self.next_obj);
        self.next_obj += 1;
        id
    }

    /// Current global sequence number (the number of events so far).
    pub fn now(&self) -> SeqNum {
        SeqNum(self.seq)
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Number of threads ever created.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// The thread's happens-before clock vector `C_t`.
    pub fn thread_cv(&self, t: ThreadId) -> &ClockVector {
        &self.threads[t.index()].cv
    }

    /// Whether the thread's last visible operation was a relaxed/release
    /// plain store (write-run rule input for the scheduler).
    pub fn in_store_run(&self, t: ThreadId) -> bool {
        self.threads[t.index()].in_store_run
    }

    /// Whether the thread is still live.
    pub fn is_alive(&self, t: ThreadId) -> bool {
        self.threads[t.index()].alive
    }

    /// Value written by a store record.
    pub fn store_value(&self, s: StoreIdx) -> u64 {
        self.stores[s.index()].value
    }

    /// Shared access to a store record.
    pub fn store(&self, s: StoreIdx) -> &StoreRecord {
        &self.stores[s.index()]
    }

    /// Shared access to a load record.
    pub fn load(&self, l: LoadIdx) -> &LoadRecord {
        &self.loads[l.index()]
    }

    /// The modification-order constraint graph.
    pub fn mograph(&self) -> &MoGraph {
        &self.graph
    }

    /// Approximate heap footprint of the execution graph in bytes
    /// (stores/loads arenas, histories, and the mo-graph). Drives the
    /// §7.1 memory-limiting experiments.
    pub fn approx_bytes(&self) -> usize {
        fn heap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let mut total = heap(&self.stores) + heap(&self.loads) + heap(&self.fences);
        for s in &self.stores {
            total += (s.rf_cv.len() + s.hb_cv.len()) * std::mem::size_of::<u64>();
        }
        for loc in &self.locations {
            for h in &loc.per_thread {
                total +=
                    heap(&h.stores) + heap(&h.accesses) + heap(&h.sc_stores) + heap(&h.rmw_free);
            }
        }
        total + self.graph.approx_bytes()
    }

    // ------------------------------------------------------------------
    // Event bookkeeping
    // ------------------------------------------------------------------

    /// Turns committed-event buffering for a trace sink on or off. The
    /// model layer sets it before each execution: on iff a sink will
    /// receive the events.
    pub fn set_trace_buffering(&mut self, on: bool) {
        self.trace = on;
    }

    /// Drains the committed-event trace buffer (empty unless
    /// [`Execution::set_trace_buffering`] was on during the execution). The
    /// model layer calls this once per execution and hands the events
    /// to the active `TraceSink`, keyed by `(seed, epoch, index)`.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace_buf)
    }

    /// Drains the behavior-coverage signature (disarmed — `collected ==
    /// false` — unless coverage collection was enabled when this
    /// execution started). The model layer calls this once per
    /// execution; the next [`Execution::reset`] re-arms against the
    /// global gate.
    pub fn take_coverage(&mut self) -> ExecCoverage {
        std::mem::take(&mut self.coverage)
    }

    /// Mutable access to the per-execution phase profile, for timing
    /// phases that live outside this crate (scheduling in the engine,
    /// race detection in the facade).
    pub fn phase_mut(&mut self) -> &mut PhaseProfile {
        &mut self.stats.phase
    }

    fn order_name(order: MemOrder) -> &'static str {
        match order {
            MemOrder::Relaxed => "Relaxed",
            MemOrder::Acquire => "Acquire",
            MemOrder::Release => "Release",
            MemOrder::AcqRel => "AcqRel",
            MemOrder::SeqCst => "SeqCst",
        }
    }

    fn access_name(kind: StoreKind) -> &'static str {
        // Same vocabulary as the campaign wire module's access kinds.
        match kind {
            StoreKind::Atomic => "atomic",
            StoreKind::NonAtomic => "non-atomic",
            StoreKind::Volatile => "volatile",
        }
    }

    /// Assigns the next global sequence number to an event of thread `t`
    /// and advances the thread's own clock slot.
    fn next_event(&mut self, t: ThreadId) -> SeqNum {
        self.seq += 1;
        if self.coverage.collected && t != self.last_event_tid {
            self.coverage.record_switch(self.seq, t.index() as u64);
        }
        self.last_event_tid = t;
        self.threads[t.index()].cv.set(t, self.seq);
        SeqNum(self.seq)
    }

    /// Grows the thread table to cover `t`.
    fn ensure_thread(&mut self, t: ThreadId) {
        while self.threads.len() <= t.index() {
            self.threads.push(ThreadState::new());
        }
    }

    /// Epoch bump after a *release-style* publication (release store or
    /// fence, fork): the thread's own clock slot moves past the value
    /// just published, so that non-atomic accesses performed *after*
    /// the publication carry a later epoch than what an acquirer
    /// learns. Without this, the race detector would treat post-release
    /// accesses as ordered before the matching acquire.
    ///
    /// The bumped value sits strictly between two real event sequence
    /// numbers of this thread, so happens-before queries over real
    /// events are unaffected.
    fn release_bump(&mut self, t: ThreadId) {
        let cur = self.threads[t.index()].cv.get(t);
        self.threads[t.index()].cv.set(t, cur + 1);
    }

    /// Mo-graph node of a store, created on demand (`GetNode`, Fig. 7).
    /// Public for tests and tools that want to inspect modification-
    /// order constraints.
    pub fn node_of(&mut self, s: StoreIdx) -> NodeId {
        node_of(&mut self.stores, &mut self.graph, s)
    }

    /// `AddEdges` (Fig. 7): adds an mo edge from every member of `set`
    /// to `s`.
    pub(crate) fn add_edges(&mut self, set: &[StoreIdx], s: StoreIdx) {
        if set.is_empty() {
            return;
        }
        let timer = phase_start(Phase::MoGraph);
        let ns = self.node_of(s);
        for &e in set {
            if e == s {
                continue;
            }
            let ne = self.node_of(e);
            self.graph.add_edge(ne, ns);
            if self.coverage.collected {
                let to = &self.stores[s.index()];
                self.coverage.record_mo(
                    to.obj.0,
                    self.stores[e.index()].tid.index() as u64,
                    to.tid.index() as u64,
                );
            }
        }
        self.stats.mograph = self.graph.stats();
        if let Some(timer) = timer {
            timer.stop(&mut self.stats.phase);
        }
    }

    /// §7.1 memory limiting: compacts the mo-graph arena, physically
    /// evicting pruned tombstones, and rewrites every store's retained
    /// [`NodeId`] through the remap so Theorem-1 queries keep working
    /// on the surviving nodes. Called by the pruning pass under
    /// [`PruneConfig::limits_memory`]; behaviorally invisible (node
    /// identity is internal to the graph).
    pub(crate) fn compact_graph(&mut self) {
        let Execution { graph, stores, .. } = self;
        let remap = graph.compact();
        for s in stores.iter_mut() {
            if let Some(n) = s.node {
                s.node = remap[n.index()];
                debug_assert!(
                    s.pruned || s.node.is_some(),
                    "compaction evicted the node of a live store"
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Threads (fork / join: the asw edges of the model)
    // ------------------------------------------------------------------

    /// Forks a new thread from `parent`, returning its id. Everything
    /// the parent did so far happens-before everything the child does
    /// (the *additional-synchronizes-with* edge).
    pub fn fork(&mut self, parent: ThreadId) -> ThreadId {
        self.next_event(parent);
        self.stats.sync_ops += 1;
        let child = ThreadId::from_index(self.threads.len());
        let parent_cv = self.threads[parent.index()].cv.clone();
        self.ensure_thread(child);
        // Thread-begin event: the child's own clock slot must be
        // non-zero before its first visible operation (see `new`).
        self.seq += 1;
        let mut child_cv = parent_cv;
        child_cv.set(child, self.seq);
        self.threads[child.index()].cv = child_cv;
        self.threads[parent.index()].in_store_run = false;
        // Fork publishes the parent's clock to the child.
        self.release_bump(parent);
        child
    }

    /// Marks a thread's program as finished.
    pub fn finish_thread(&mut self, t: ThreadId) {
        self.threads[t.index()].alive = false;
        self.threads[t.index()].in_store_run = false;
        self.threads[t.index()].waiting_on = None;
    }

    /// Records (or clears) that `t` is blocked joining `child`. The
    /// runtime calls this when it blocks a joiner and again when the
    /// join target finishes; pruning's `CV_min` (§7.1) uses it to
    /// credit the parked joiner with the target's current clock.
    pub fn set_join_waiting(&mut self, t: ThreadId, child: Option<ThreadId>) {
        self.threads[t.index()].waiting_on = child;
    }

    /// Joins `child` into `parent`: the child's entire execution
    /// happens-before everything the parent does afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the child has not finished; the runtime must block the
    /// parent until then.
    pub fn join(&mut self, parent: ThreadId, child: ThreadId) {
        assert!(
            !self.threads[child.index()].alive,
            "join({child:?}) before the thread finished; runtime must block first"
        );
        self.next_event(parent);
        self.stats.sync_ops += 1;
        let child_cv = self.threads[child.index()].cv.clone();
        self.threads[parent.index()].cv.union_with(&child_cv);
        self.threads[parent.index()].in_store_run = false;
    }

    // ------------------------------------------------------------------
    // Atomic store ([ATOMIC STORE], Fig. 11; [RELEASE/RELAXED STORE], Fig. 9)
    // ------------------------------------------------------------------

    /// Commits an atomic store of `value` to `obj`.
    pub fn atomic_store(
        &mut self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        value: u64,
        kind: StoreKind,
    ) -> StoreIdx {
        let idx = self.store_inner(t, obj, order, value, kind, None, None);
        if self.trace {
            self.trace_buf.push(TraceEvent {
                kind: TraceKind::Store,
                thread: t.index() as u64,
                seq: self.stores[idx.index()].seq.0,
                obj: obj.0,
                order: Self::order_name(order),
                access: Self::access_name(kind),
                value,
                rf: None,
                old: None,
            });
        }
        match kind {
            StoreKind::Atomic => self.stats.atomic_stores += 1,
            // atomic_init-style initializing stores are plain memory
            // accesses (paper §7.2) — Table 3 counts them as normal.
            StoreKind::NonAtomic => self.stats.normal_accesses += 1,
            StoreKind::Volatile => self.stats.volatile_accesses += 1,
        }
        let run =
            kind != StoreKind::NonAtomic && matches!(order, MemOrder::Relaxed | MemOrder::Release);
        self.threads[t.index()].in_store_run = run;
        self.maybe_prune();
        idx
    }

    /// Shared store path for plain stores and RMW store halves.
    /// `rmw_src` carries the store an RMW read from so the reads-from
    /// clock `RF_s` can absorb the release sequence (Fig. 9 RMW rules),
    /// and — following Fig. 11's ordering — `AddRMWEdge` runs right
    /// after the node exists, *before* the write-prior-set edges, so
    /// that edge migration and clock-vector propagation interleave
    /// correctly. `hoisted_wps` is the length of an already computed
    /// write prior set at the front of `wbests` (see
    /// [`Execution::commit_rmw`]).
    #[allow(clippy::too_many_arguments)]
    fn store_inner(
        &mut self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        value: u64,
        kind: StoreKind,
        rmw_src: Option<StoreIdx>,
        hoisted_wps: Option<usize>,
    ) -> StoreIdx {
        let seq = self.next_event(t);
        // Prior set computed before the store enters any history list
        // (into the reusable scratch buffer — no per-store allocation).
        let mut pset = std::mem::take(&mut self.pset_buf);
        match hoisted_wps {
            Some(len) => {
                pset.clear();
                pset.extend_from_slice(&self.wbests.members[..len]);
                #[cfg(debug_assertions)]
                {
                    let mut fresh = Vec::new();
                    self.write_prior_set_into(t, obj, order, &mut fresh);
                    debug_assert_eq!(pset, fresh, "hoisted write prior set went stale");
                }
            }
            None => self.write_prior_set_into(t, obj, order, &mut pset),
        }

        let thread = &self.threads[t.index()];
        let mut rf_cv = if kind == StoreKind::NonAtomic {
            // Non-atomic stores never synchronize: empty release clock.
            ClockVector::new()
        } else if order.is_release() {
            thread.cv.clone()
        } else {
            thread.fence_rel.clone()
        };
        if let Some(src) = rmw_src {
            // RMWs continue every release sequence of the store they read
            // from (C++20 rule): RF_rmw ∪= RF_src.
            rf_cv.union_with(&self.stores[src.index()].rf_cv);
        }
        let hb_cv = thread.cv.clone();

        let record = StoreRecord {
            tid: t,
            seq,
            obj,
            order,
            value,
            rf_cv,
            hb_cv,
            node: None,
            is_rmw: rmw_src.is_some(),
            rmw_read_by: None,
            kind,
            pruned: false,
        };
        let idx = self.alloc_store(record);

        // RMW atomicity first (Fig. 11 [ATOMIC RMW]): order the RMW
        // immediately after the store it read from.
        if let Some(src) = rmw_src {
            let consumed = &mut self.stores[src.index()];
            consumed.rmw_read_by = Some(seq);
            let (src_tid, src_seq) = (consumed.tid, consumed.seq);
            let free = &mut self.loc_mut(obj).thread_mut(src_tid.index()).rmw_free;
            let at = seq_prefix_len(free, src_seq.0) - 1;
            debug_assert_eq!(free[at].1, src, "consumed store missing from rmw_free");
            free.remove(at);
            let nfrom = self.node_of(src);
            let nrmw = self.node_of(idx);
            self.graph.add_rmw_edge(nfrom, nrmw);
            self.stats.mograph = self.graph.stats();
        }

        // Restricted policies (tsan11 family): mo embeds in execution
        // order, realized as a chain edge from the previous store.
        if self.policy.restricts_mo() {
            let prev = self.loc(obj).and_then(|loc| loc.last_store_exec);
            if let Some(prev) = prev {
                let np = self.node_of(prev);
                let nn = self.node_of(idx);
                self.graph.add_edge(np, nn);
                self.stats.mograph = self.graph.stats();
            }
        }

        self.add_edges(&pset, idx);
        pset.clear();
        self.pset_buf = pset;

        let is_sc = order.is_seq_cst() && kind != StoreKind::NonAtomic;
        let loc = self.loc_mut(obj);
        let h = loc.thread_mut(t.index());
        h.stores.push((seq, idx));
        h.rmw_free.push((seq, idx));
        h.accesses.push((seq, AccessRef::Store(idx)));
        if is_sc {
            h.sc_stores.push((seq, idx));
            loc.last_sc_store = Some(idx);
        }
        loc.last_store_exec = Some(idx);
        loc.last_write_nonatomic = kind == StoreKind::NonAtomic;
        if order.is_release() && kind != StoreKind::NonAtomic {
            // The store published this thread's clock (directly or via
            // a release sequence); later non-atomic accesses must carry
            // a later epoch.
            self.release_bump(t);
        }
        idx
    }

    /// Allocates a store record, reusing a pruned arena slot if any.
    fn alloc_store(&mut self, record: StoreRecord) -> StoreIdx {
        if let Some(idx) = self.free_stores.pop() {
            self.stores[idx.index()] = record;
            idx
        } else {
            let idx = StoreIdx(self.stores.len() as u32);
            self.stores.push(record);
            idx
        }
    }

    /// Allocates a load record, reusing a pruned arena slot if any.
    fn alloc_load(&mut self, record: LoadRecord) -> LoadIdx {
        if let Some(idx) = self.free_loads.pop() {
            self.loads[idx.index()] = record;
            idx
        } else {
            let idx = LoadIdx(self.loads.len() as u32);
            self.loads.push(record);
            idx
        }
    }

    // ------------------------------------------------------------------
    // Atomic load ([ATOMIC LOAD], Fig. 11; [ACQUIRE/RELAXED LOAD], Fig. 9)
    // ------------------------------------------------------------------

    /// Computes the candidate-independent halves of the §4.3 check for
    /// an operation by `t` at `obj` — the per-thread `last({S1..S4})`
    /// bests of `ReadPriorSet` and, for RMWs, the write prior set —
    /// and records them as the read plan. Both depend only on
    /// `(t, obj, order)`, so one history scan serves every candidate
    /// [`Execution::vet_candidate`] is asked about *and* the commit of
    /// the chosen one.
    fn plan_read(&mut self, t: ThreadId, obj: ObjId, order: MemOrder, for_rmw: bool) {
        self.plan_bests(t, obj, order);
        let wps_len = for_rmw.then(|| {
            let mut wbests = std::mem::take(&mut self.wbests);
            let len = wbests.refill(|w| self.rmw_write_prior_set_into(t, obj, order, w));
            self.wbests = wbests;
            len
        });
        self.plan = Some(ReadPlan {
            t,
            obj,
            order,
            seq: self.seq,
            wps_len,
        });
    }

    /// Fills `bests` with the read prior set's per-thread bests for
    /// `(t, obj, order)`, unresolved.
    fn plan_bests(&mut self, t: ThreadId, obj: ObjId, order: MemOrder) {
        let mut bests = std::mem::take(&mut self.bests);
        bests.refill(|b| self.read_prior_bests_into(t, obj, order, b));
        self.bests = bests;
    }

    /// The candidate-dependent half of the §4.3 check against the
    /// current plan: the seq_cst read filter (Fig. 12 lines 9–11), no
    /// cycle through `cand`'s read prior set, and — for RMWs — none
    /// through the store half's write prior set. Counts a rejection.
    fn vet_candidate(
        &mut self,
        obj: ObjId,
        order: MemOrder,
        cand: StoreIdx,
        for_rmw: bool,
    ) -> bool {
        let ok = self.sc_read_allowed(obj, order, cand) && {
            let Execution {
                stores,
                graph,
                bests,
                wbests,
                ..
            } = self;
            bests.feasible(stores, graph, cand)
                && (!for_rmw || wbests.feasible(stores, graph, cand))
        };
        if !ok {
            self.stats.candidates_rejected += 1;
        }
        ok
    }

    /// Step 2 of a load: is reading from `cand` feasible, i.e. does the
    /// implied set of mo edges keep the mo-graph acyclic (§4.3)? Also
    /// applies the seq_cst read filter (Fig. 12 lines 9–11) so the
    /// check is complete for candidates that were *not* produced by
    /// [`Execution::read_candidates_into`] with the same order — the
    /// failed-compare-exchange path, where the candidate was chosen
    /// under the success ordering.
    pub fn check_read_feasible(
        &mut self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        cand: StoreIdx,
    ) -> bool {
        self.plan_read(t, obj, order, false);
        self.vet_candidate(obj, order, cand, false)
    }

    /// Step 2 for RMWs: read feasibility plus the store-half check
    /// (§4.3 — the RMW's own write adds edges that must not cycle
    /// through the migrated successors of `cand`).
    pub fn check_rmw_feasible(
        &mut self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        cand: StoreIdx,
    ) -> bool {
        self.plan_read(t, obj, order, true);
        self.vet_candidate(obj, order, cand, true)
    }

    /// Convenience: may-read-from filtered through the feasibility
    /// check. The scheduler can pick uniformly from the result — this
    /// yields the same distribution as the paper's retry loop.
    pub fn feasible_read_candidates(
        &mut self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        for_rmw: bool,
    ) -> Vec<StoreIdx> {
        let mut cands = Vec::new();
        self.feasible_read_candidates_into(t, obj, order, for_rmw, &mut cands);
        cands
    }

    /// [`Execution::feasible_read_candidates`] into a caller-provided
    /// buffer (cleared first) — the allocation-free hot path.
    ///
    /// The candidate-independent halves of the §4.3 check are planned
    /// once (`plan_read`): the O(candidates × threads)
    /// history scan of a per-candidate check becomes O(threads)
    /// followed by O(|priorset|) clock work per candidate, each member
    /// resolved to its node and chain tail once. Verdicts,
    /// rejection counts, and mo-graph node creation order are
    /// identical to running [`Execution::check_read_feasible`] /
    /// [`Execution::check_rmw_feasible`] per candidate.
    pub fn feasible_read_candidates_into(
        &mut self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        for_rmw: bool,
        cands: &mut Vec<StoreIdx>,
    ) {
        let timer = phase_start(Phase::ReadFrom);
        self.read_candidates_into(t, obj, order, for_rmw, cands);
        if !cands.is_empty() {
            self.plan_read(t, obj, order, for_rmw);
            cands.retain(|&c| self.vet_candidate(obj, order, c, for_rmw));
        }
        if let Some(timer) = timer {
            timer.stop(&mut self.stats.phase);
        }
    }

    /// The prior set of the candidate a load or RMW by `t` commits to,
    /// into `pset`: from the read plan when the latest selection was
    /// for this very `(t, obj, order)` with no event since, otherwise
    /// from a fresh history scan (direct API callers). Consumes the
    /// plan and returns its hoisted write-prior-set length, if any.
    /// No reachability query: feasibility was the selection's job
    /// (the engine never rolls back, §4.3) and is only asserted.
    fn commit_prior_set(
        &mut self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        cand: StoreIdx,
        pset: &mut Vec<StoreIdx>,
    ) -> Option<usize> {
        let plan = self
            .plan
            .take()
            .filter(|p| (p.t, p.obj, p.order, p.seq) == (t, obj, order, self.seq));
        if plan.is_none() {
            self.plan_bests(t, obj, order);
        }
        prior_set_of(&self.bests.members, cand, pset);
        #[cfg(debug_assertions)]
        {
            let mut fresh = Vec::new();
            self.read_prior_bests_into(t, obj, order, &mut fresh);
            debug_assert_eq!(self.bests.members, fresh, "read plan went stale");
            debug_assert!(
                edges_into_feasible(&mut self.stores, &mut self.graph, pset, cand),
                "commit of an infeasible candidate"
            );
        }
        plan.and_then(|p| p.wps_len)
    }

    /// Step 3 of a load: commits the `rf` edge to `cand` and returns the
    /// value read.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `cand` is infeasible — callers must check
    /// first (the engine never rolls back, §4.3).
    pub fn commit_load(&mut self, t: ThreadId, obj: ObjId, order: MemOrder, cand: StoreIdx) -> u64 {
        let mut pset = std::mem::take(&mut self.pset_buf);
        self.commit_prior_set(t, obj, order, cand, &mut pset);
        let seq = self.next_event(t);
        self.add_edges(&pset, cand);
        pset.clear();
        self.pset_buf = pset;
        self.apply_load_clocks(t, order, cand);

        let record = LoadRecord {
            tid: t,
            seq,
            obj,
            order,
            rf: cand,
            pruned: false,
        };
        let lidx = self.alloc_load(record);
        if self.coverage.collected {
            self.coverage.record_rf(
                obj.0,
                self.stores[cand.index()].tid.index() as u64,
                t.index() as u64,
            );
        }
        if self.trace {
            self.trace_buf.push(TraceEvent {
                kind: TraceKind::Load,
                thread: t.index() as u64,
                seq: self.loads[lidx.index()].seq.0,
                obj: obj.0,
                order: Self::order_name(order),
                access: "atomic",
                value: self.stores[cand.index()].value,
                rf: Some(self.stores[cand.index()].seq.0),
                old: None,
            });
        }
        self.loc_mut(obj)
            .thread_mut(t.index())
            .accesses
            .push((seq, AccessRef::Load(lidx)));
        self.stats.atomic_loads += 1;
        self.threads[t.index()].in_store_run = false;
        self.maybe_prune();
        self.stores[cand.index()].value
    }

    /// Fig. 9 `[ACQUIRE LOAD]` / `[RELAXED LOAD]`. Returns whether the
    /// thread's clock `C_t` grew.
    fn apply_load_clocks(&mut self, t: ThreadId, order: MemOrder, src: StoreIdx) -> bool {
        let Execution {
            stores, threads, ..
        } = self;
        let src_rf = &stores[src.index()].rf_cv;
        let thread = &mut threads[t.index()];
        if order.is_acquire() {
            thread.cv.union_with(src_rf)
        } else {
            thread.fence_acq.union_with(src_rf);
            false
        }
    }

    // ------------------------------------------------------------------
    // Atomic RMW ([ATOMIC RMW], Fig. 11)
    // ------------------------------------------------------------------

    /// Commits an RMW that read `cand` (previously validated with
    /// [`Execution::check_read_feasible`] over the RMW candidate set)
    /// and wrote `new_value`. Returns the value read and the new store.
    ///
    /// The RMW is a single event: its load half applies the Fig. 9 load
    /// rules, `AddRMWEdge` orders it immediately after `cand` in the
    /// mo-graph, and its store half applies the store rules with the
    /// release sequence continuation.
    pub fn commit_rmw(
        &mut self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        cand: StoreIdx,
        new_value: u64,
    ) -> (u64, StoreIdx) {
        debug_assert!(
            self.stores[cand.index()].rmw_read_by.is_none(),
            "RMW atomicity violated: candidate already consumed"
        );
        #[cfg(debug_assertions)]
        {
            let mut wpset = Vec::new();
            self.rmw_write_prior_set_into(t, obj, order, &mut wpset);
            debug_assert!(
                edges_into_feasible(&mut self.stores, &mut self.graph, &wpset, cand),
                "commit_rmw: store half would close a cycle"
            );
        }
        // Load half: prior-set edges into the store read from + clocks.
        let mut pset = std::mem::take(&mut self.pset_buf);
        let hoisted_wps = self.commit_prior_set(t, obj, order, cand, &mut pset);
        self.add_edges(&pset, cand);
        pset.clear();
        self.pset_buf = pset;
        let acquired = self.apply_load_clocks(t, order, cand);
        let old = self.stores[cand.index()].value;
        if self.coverage.collected {
            self.coverage.record_rf(
                obj.0,
                self.stores[cand.index()].tid.index() as u64,
                t.index() as u64,
            );
        }

        // Store half (assigns the event's sequence number; installs the
        // rmw edge before the write-prior-set edges, per Fig. 11). The
        // selection's write prior set saw pre-acquire clocks, so it
        // stands in for the store half's only when the load half just
        // now acquired nothing: a relaxed or release RMW, or an acquire
        // one whose source's release clock `C_t` already covered.
        let idx = self.store_inner(
            t,
            obj,
            order,
            new_value,
            StoreKind::Atomic,
            Some(cand),
            hoisted_wps.filter(|_| !acquired),
        );
        if self.trace {
            self.trace_buf.push(TraceEvent {
                kind: TraceKind::Rmw,
                thread: t.index() as u64,
                seq: self.stores[idx.index()].seq.0,
                obj: obj.0,
                order: Self::order_name(order),
                access: "atomic",
                value: new_value,
                rf: Some(self.stores[cand.index()].seq.0),
                old: Some(old),
            });
        }

        self.stats.rmws += 1;
        self.threads[t.index()].in_store_run = false;
        self.maybe_prune();
        (old, idx)
    }

    // ------------------------------------------------------------------
    // Fences ([ATOMIC FENCE], Fig. 11; fence rules, Fig. 9)
    // ------------------------------------------------------------------

    /// Executes a fence with the given order. Relaxed fences are no-ops.
    pub fn fence(&mut self, t: ThreadId, order: MemOrder) {
        if matches!(order, MemOrder::Relaxed) {
            return;
        }
        let seq = self.next_event(t);
        if self.trace {
            self.trace_buf.push(TraceEvent {
                kind: TraceKind::Fence,
                thread: t.index() as u64,
                seq: seq.0,
                obj: c11tester_telemetry::FENCE_OBJ,
                order: Self::order_name(order),
                access: "fence",
                value: 0,
                rf: None,
                old: None,
            });
        }
        if order.is_acquire() {
            let acq = self.threads[t.index()].fence_acq.clone();
            self.threads[t.index()].cv.union_with(&acq);
        }
        if order.is_release() {
            let cv = self.threads[t.index()].cv.clone();
            self.threads[t.index()].fence_rel = cv;
        }
        if order.is_seq_cst() {
            let fidx = FenceIdx(self.fences.len() as u32);
            self.fences.push(FenceRecord { tid: t, seq, order });
            self.threads[t.index()].sc_fences.push(fidx);
        }
        if order.is_release() {
            self.release_bump(t);
        }
        self.stats.fences += 1;
        self.threads[t.index()].in_store_run = false;
        self.maybe_prune();
    }

    /// Records a synchronization-only event (used by the facade for
    /// operations like condvar notify that are scheduling-visible but
    /// have no memory-model effect of their own).
    pub fn sync_event(&mut self, t: ThreadId) {
        self.next_event(t);
        self.stats.sync_ops += 1;
        self.threads[t.index()].in_store_run = false;
    }

    /// Counts a non-atomic shared-memory access (Table 3 bookkeeping;
    /// the race detector handles the semantics).
    pub fn count_normal_access(&mut self) {
        self.stats.normal_accesses += 1;
    }

    // ------------------------------------------------------------------
    // Queries used by tests and the race layer
    // ------------------------------------------------------------------

    /// Does event `(t1, s1)` happen-before the *current* point of `t2`?
    pub fn hb_before_now(&self, t1: ThreadId, s1: SeqNum, t2: ThreadId) -> bool {
        s1.0 <= self.threads[t2.index()].cv.get(t1)
    }

    /// Live (non-pruned) stores at a location, in no particular order.
    pub fn stores_at(&self, obj: ObjId) -> Vec<StoreIdx> {
        match self.loc(obj) {
            None => Vec::new(),
            Some(loc) => loc
                .threads()
                .flat_map(|(_, h)| h.stores.iter().map(|&(_, s)| s))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a fixed little program and returns everything observable.
    fn drive(e: &mut Execution) -> (Vec<u64>, ExecStats, u64) {
        let main = ThreadId::MAIN;
        let x = e.new_object();
        let y = e.new_object();
        e.atomic_store(main, x, MemOrder::Relaxed, 0, StoreKind::Atomic);
        e.atomic_store(main, y, MemOrder::Relaxed, 0, StoreKind::Atomic);
        let t1 = e.fork(main);
        let s1 = e.atomic_store(t1, x, MemOrder::Release, 1, StoreKind::Atomic);
        e.fence(t1, MemOrder::SeqCst);
        let (old, _) = e.commit_rmw(t1, y, MemOrder::AcqRel, e.stores_at(y)[0], 7);
        assert_eq!(old, 0);
        e.finish_thread(t1);
        e.join(main, t1);
        let v = e.commit_load(main, x, MemOrder::Acquire, s1);
        assert_eq!(v, 1);
        let feasible: Vec<u64> = e
            .feasible_read_candidates(main, y, MemOrder::Acquire, false)
            .into_iter()
            .map(|s| e.store_value(s))
            .collect();
        (feasible, *e.stats(), e.now().0)
    }

    /// The determinism contract of recycling: a reset execution is
    /// observationally identical to a fresh one.
    #[test]
    fn reset_execution_is_observationally_fresh() {
        let mut fresh = Execution::new(Policy::C11Tester);
        let reference = drive(&mut fresh);

        let mut recycled = Execution::new(Policy::C11Tester);
        let _ = drive(&mut recycled);
        recycled.reset(Policy::C11Tester, PruneConfig::disabled());
        assert_eq!(recycled.now().0, 1);
        assert_eq!(recycled.thread_count(), 1);
        assert!(recycled.mograph().is_empty());
        let replay = drive(&mut recycled);

        assert_eq!(replay, reference);
        // Provisioning diagnostics do record the difference.
        assert_eq!(recycled.stats().alloc.recycled_executions, 1);
        assert_eq!(recycled.stats().alloc.fresh_executions, 0);
        assert_eq!(fresh.stats().alloc.fresh_executions, 1);
    }

    /// Reset also rewinds object-id allocation and location state.
    #[test]
    fn reset_reuses_object_ids_with_clean_histories() {
        let mut e = Execution::new(Policy::C11Tester);
        let main = ThreadId::MAIN;
        let x = e.new_object();
        e.atomic_store(main, x, MemOrder::Relaxed, 5, StoreKind::Atomic);
        assert_eq!(e.stores_at(x).len(), 1);
        e.reset(Policy::C11Tester, PruneConfig::disabled());
        let x2 = e.new_object();
        assert_eq!(x2, x, "object ids restart from zero");
        assert!(e.stores_at(x2).is_empty(), "no stale history");
        assert!(
            e.read_candidates(main, x2, MemOrder::Relaxed, false)
                .is_empty(),
            "no stale read candidates"
        );
    }

    // ---- the read plan ------------------------------------------------

    /// Everything a commit can change, as text: two executions with
    /// equal renderings are field-for-field equal.
    fn state(e: &Execution) -> String {
        format!("{e:?}")
    }

    /// Vets `cands` for an operation by `t` at `obj` the per-candidate
    /// way the read plan replaces — a fresh `prior_set_of` and
    /// `edges_into_feasible` for every candidate — on a clone of `e`.
    /// Returns the clone and the accepted candidates.
    fn reference_vet(
        e: &Execution,
        (t, obj, order, for_rmw): (ThreadId, ObjId, MemOrder, bool),
        cands: &[StoreIdx],
    ) -> (Execution, Vec<StoreIdx>) {
        use crate::priorset::edges_into_feasible;
        let mut r = e.clone();
        let (mut bests, mut wps, mut pset) = (Vec::new(), Vec::new(), Vec::new());
        r.read_prior_bests_into(t, obj, order, &mut bests);
        if for_rmw {
            r.rmw_write_prior_set_into(t, obj, order, &mut wps);
        }
        let mut accepted = Vec::new();
        for &c in cands {
            let ok = r.sc_read_allowed(obj, order, c) && {
                prior_set_of(&bests, c, &mut pset);
                edges_into_feasible(&mut r.stores, &mut r.graph, &pset, c)
                    && (!for_rmw || edges_into_feasible(&mut r.stores, &mut r.graph, &wps, c))
            };
            if ok {
                accepted.push(c);
            } else {
                r.stats.candidates_rejected += 1;
            }
        }
        (r, accepted)
    }

    /// The vetting counters and mo-graph nodes of a planned and a
    /// reference run agree.
    fn assert_same_vetting(planned: &Execution, reference: &Execution, ctx: &str) {
        assert_eq!(
            planned.stats().candidates_rejected,
            reference.stats().candidates_rejected,
            "{ctx}: candidates_rejected"
        );
        let (p, r) = (planned.graph.perf_stats(), reference.graph.perf_stats());
        assert_eq!(
            p.reach_fast_negative, r.reach_fast_negative,
            "{ctx}: fast negatives"
        );
        assert_eq!(p.reach_cv_checks, r.reach_cv_checks, "{ctx}: cv checks");
        let nodes = |e: &Execution| e.stores.iter().map(|s| s.node).collect::<Vec<_>>();
        assert_eq!(nodes(planned), nodes(reference), "{ctx}: node creation");
    }

    /// `feasible_read_candidates_into`, with every vetted candidate's
    /// verdict held to [`reference_vet`]'s.
    fn select_checked(
        e: &mut Execution,
        op: (ThreadId, ObjId, MemOrder, bool),
        cands: &mut Vec<StoreIdx>,
    ) {
        let (t, obj, order, for_rmw) = op;
        e.read_candidates_into(t, obj, order, for_rmw, cands);
        let (reference, accepted) = reference_vet(e, op, cands);
        e.feasible_read_candidates_into(t, obj, order, for_rmw, cands);
        assert_eq!(*cands, accepted, "plan and reference verdicts differ");
        assert_same_vetting(e, &reference, "selection");
    }

    /// `check_read_feasible`, held to [`reference_vet`] likewise.
    fn check_checked(
        e: &mut Execution,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        c: StoreIdx,
    ) -> bool {
        let (reference, accepted) = reference_vet(e, (t, obj, order, false), &[c]);
        let ok = e.check_read_feasible(t, obj, order, c);
        assert_eq!(ok, accepted == [c], "plan and reference verdicts differ");
        assert_same_vetting(e, &reference, "single check");
        ok
    }

    /// Drives a seeded random program over 4 threads × 2 objects the
    /// way the engine does — select, pick, commit — covering loads,
    /// relaxed RMWs (store half reuses the hoisted write prior set),
    /// acquire RMWs (store half recomputes when the acquire grew the
    /// thread's clock, reuses otherwise), failed CASes re-vetted
    /// under a seq_cst failure order, seq_cst stores and fences. With
    /// `use_plan == false` the plan is dropped before every commit, so
    /// each commit takes the recompute path. Every vetted candidate's
    /// verdict is checked against the per-candidate reference.
    fn drive_random(seed: u64, use_plan: bool) -> Execution {
        use crate::rng::Xoshiro256StarStar;
        const ORDERS: [MemOrder; 5] = [
            MemOrder::Relaxed,
            MemOrder::Acquire,
            MemOrder::Release,
            MemOrder::AcqRel,
            MemOrder::SeqCst,
        ];
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut e = Execution::new(Policy::C11Tester);
        let main = ThreadId::MAIN;
        let objs = [e.new_object(), e.new_object()];
        for &o in &objs {
            e.atomic_store(main, o, MemOrder::Relaxed, 0, StoreKind::Atomic);
        }
        let threads = [e.fork(main), e.fork(main), e.fork(main), main];
        let mut cands = Vec::new();
        for step in 1..=120u64 {
            let t = threads[rng.gen_range(0..threads.len())];
            let obj = objs[rng.gen_range(0..objs.len())];
            let order = ORDERS[rng.gen_range(0..ORDERS.len())];
            match rng.gen_range(0..10u32) {
                0..=2 => {
                    let order = match order {
                        MemOrder::Acquire | MemOrder::AcqRel => MemOrder::Release,
                        o => o,
                    };
                    e.atomic_store(t, obj, order, step, StoreKind::Atomic);
                }
                3..=5 => {
                    let order = match order {
                        MemOrder::Release | MemOrder::AcqRel => MemOrder::Acquire,
                        o => o,
                    };
                    select_checked(&mut e, (t, obj, order, false), &mut cands);
                    let c = cands[rng.gen_range(0..cands.len())];
                    if !use_plan {
                        e.plan = None;
                    }
                    e.commit_load(t, obj, order, c);
                }
                6..=7 => {
                    select_checked(&mut e, (t, obj, order, true), &mut cands);
                    let c = cands[rng.gen_range(0..cands.len())];
                    if !use_plan {
                        e.plan = None;
                    }
                    e.commit_rmw(t, obj, order, c, step);
                }
                8 => {
                    // Failed CAS: selected as an RMW under `order`,
                    // committed as a seq_cst load.
                    select_checked(&mut e, (t, obj, order, true), &mut cands);
                    let mut c = cands[rng.gen_range(0..cands.len())];
                    if !check_checked(&mut e, t, obj, MemOrder::SeqCst, c) {
                        select_checked(&mut e, (t, obj, MemOrder::SeqCst, false), &mut cands);
                        c = cands[rng.gen_range(0..cands.len())];
                    }
                    if !use_plan {
                        e.plan = None;
                    }
                    e.commit_load(t, obj, MemOrder::SeqCst, c);
                }
                _ => e.fence(t, order),
            }
        }
        e
    }

    /// (i) A commit fed by the plan leaves the execution exactly where
    /// a commit that recomputed would, and every vetted candidate gets
    /// the per-candidate reference's verdict. (Debug builds
    /// additionally assert plan-derived == recomputed inside every
    /// commit.)
    #[test]
    fn planned_commits_equal_recomputed_commits() {
        let mut rejected = 0;
        for seed in 0..24 {
            let planned = drive_random(seed, true);
            let recomputed = drive_random(seed, false);
            assert_same_vetting(&planned, &recomputed, &format!("seed {seed}"));
            assert_eq!(state(&planned), state(&recomputed), "seed {seed}");
            assert!(planned.stats().rmws > 0 && planned.stats().atomic_loads > 0);
            rejected += planned.stats().candidates_rejected;
        }
        assert!(rejected > 0, "the seeds exercise rejections");
    }

    /// `w` stored 1 then 2 to `x` and published through `flag`; `w2`
    /// stored 5 to `x` and published nothing. `r` has read `flag`
    /// relaxed, so an acquire fence is all it takes for `w`'s stores
    /// to enter its bests at `x`; `w` has an sc fence, so seq_cst and
    /// relaxed bests differ too.
    struct PlanFixture {
        e: Execution,
        w: ThreadId,
        r: ThreadId,
        x: ObjId,
        flag: ObjId,
        s2: StoreIdx,
        s5: StoreIdx,
        sf: StoreIdx,
    }

    fn plan_fixture() -> PlanFixture {
        let mut e = Execution::new(Policy::C11Tester);
        let main = ThreadId::MAIN;
        let (x, flag) = (e.new_object(), e.new_object());
        e.atomic_store(main, x, MemOrder::Relaxed, 0, StoreKind::Atomic);
        e.atomic_store(main, flag, MemOrder::Relaxed, 0, StoreKind::Atomic);
        let (w, w2, r) = (e.fork(main), e.fork(main), e.fork(main));
        e.atomic_store(w, x, MemOrder::Relaxed, 1, StoreKind::Atomic);
        let s2 = e.atomic_store(w, x, MemOrder::Relaxed, 2, StoreKind::Atomic);
        e.fence(w, MemOrder::SeqCst);
        let sf = e.atomic_store(w, flag, MemOrder::Release, 1, StoreKind::Atomic);
        let s5 = e.atomic_store(w2, x, MemOrder::Relaxed, 5, StoreKind::Atomic);
        e.commit_load(r, flag, MemOrder::Relaxed, sf);
        PlanFixture {
            e,
            w,
            r,
            x,
            flag,
            s2,
            s5,
            sf,
        }
    }

    /// (ii) A plan is dropped rather than consumed once anything it
    /// was computed from may have moved on. Each scenario selects for
    /// `r`'s relaxed load at `x`, does something else, then commits
    /// without re-selecting — and must land where a twin whose plan
    /// was thrown away lands (in debug builds a stale plan also trips
    /// the commit's own assertion).
    #[test]
    fn plan_is_not_consumed_after_an_event_or_for_another_key() {
        type Scenario = fn(&mut Execution, &PlanFixture);
        let scenarios: [Scenario; 4] = [
            // An intervening event: the fence brings `w`'s stores into
            // `r`'s bests, so reading 5 now orders 2 before it.
            |e, f| {
                e.fence(f.r, MemOrder::Acquire);
                e.commit_load(f.r, f.x, MemOrder::Relaxed, f.s5);
            },
            // Another thread, another object, another order.
            |e, f| assert_eq!(e.commit_load(f.w, f.x, MemOrder::Relaxed, f.s2), 2),
            |e, f| assert_eq!(e.commit_load(f.r, f.flag, MemOrder::Relaxed, f.sf), 1),
            |e, f| assert_eq!(e.commit_load(f.r, f.x, MemOrder::SeqCst, f.s5), 5),
        ];
        for (i, scenario) in scenarios.into_iter().enumerate() {
            let f = plan_fixture();
            let (mut a, mut b) = (f.e.clone(), f.e.clone());
            for e in [&mut a, &mut b] {
                let cands = e.feasible_read_candidates(f.r, f.x, MemOrder::Relaxed, false);
                assert_eq!(cands.len(), 4, "init, 1, 2 and 5 are all readable");
                assert!(e.plan.is_some());
            }
            b.plan = None;
            scenario(&mut a, &f);
            scenario(&mut b, &f);
            assert!(a.plan.is_none(), "a commit leaves no plan behind");
            assert_eq!(state(&a), state(&b), "scenario {i}");
        }

        // `reset` and a pruning pass void the plan outright.
        let PlanFixture { mut e, r, x, .. } = plan_fixture();
        e.feasible_read_candidates(r, x, MemOrder::Relaxed, false);
        assert!(e.plan.is_some());
        e.reset(Policy::C11Tester, PruneConfig::conservative(0));
        assert!(e.plan.is_none());
        let x = e.new_object();
        e.atomic_store(ThreadId::MAIN, x, MemOrder::Relaxed, 0, StoreKind::Atomic);
        e.feasible_read_candidates(ThreadId::MAIN, x, MemOrder::Relaxed, false);
        assert!(e.plan.is_some());
        e.prune_now();
        assert!(e.plan.is_none());
    }

    /// (iii) The PR 9 bug class: a compare-exchange selected under a
    /// weak success order and failing with a seq_cst failure order must
    /// still have its candidate re-vetted under seq_cst — the success
    /// order's plan answers nothing about it.
    #[test]
    fn failed_cas_with_seq_cst_failure_order_revets_the_candidate() {
        let mut e = Execution::new(Policy::C11Tester);
        let main = ThreadId::MAIN;
        let x = e.new_object();
        let (w, r) = (e.fork(main), e.fork(main));
        let s_old = e.atomic_store(w, x, MemOrder::SeqCst, 1, StoreKind::Atomic);
        let s_new = e.atomic_store(w, x, MemOrder::SeqCst, 2, StoreKind::Atomic);
        let cands = e.feasible_read_candidates(r, x, MemOrder::Release, true);
        assert_eq!(cands, vec![s_old, s_new], "the weak order allows both");
        let rejected = e.stats().candidates_rejected;
        assert!(
            !e.check_read_feasible(r, x, MemOrder::SeqCst, s_old),
            "s_old is sc-before the last sc store: not readable by an sc load"
        );
        assert_eq!(e.stats().candidates_rejected, rejected + 1);
        assert!(e.check_read_feasible(r, x, MemOrder::SeqCst, s_new));
        // The re-vet's own plan (seq_cst, load) is what the commit uses.
        let mut twin = e.clone();
        twin.plan = None;
        assert_eq!(e.commit_load(r, x, MemOrder::SeqCst, s_new), 2);
        twin.commit_load(r, x, MemOrder::SeqCst, s_new);
        assert_eq!(state(&e), state(&twin));
    }
}
