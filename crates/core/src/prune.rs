//! Execution-graph pruning (paper §7.1, "Pruning the Execution Graph").
//!
//! Long executions accumulate stores, loads, and mo-graph nodes without
//! bound. Naively discarding old records is unsound: an old store can be
//! modification-ordered *after* a newer one, and dropping only the old
//! one could let a thread read both in an order the model forbids.
//!
//! * **Conservative mode** computes `CV_min = ⋂_t C_t` over live
//!   threads. A store `S` with `S.seq ≤ CV_min[S.tid]` happens-before
//!   every live thread's current point, so new loads must read `S` or
//!   something mo-after it; everything *strictly mo-before* such an `S`
//!   can never be read again and is retired. This mode never changes the
//!   set of producible executions.
//! * **Aggressive mode** additionally anchors on the newest store older
//!   than a trace window and retires everything mo-before it — possibly
//!   including still-readable stores, trading behavioral coverage for
//!   bounded memory (exactly the paper's trade-off).
//!
//! Both modes also retire seq_cst fences that happen-before `CV_min`
//! (their constraints are subsumed by happens-before from then on).
//!
//! Retired records are tombstoned and their arena slots recycled via
//! free lists, so memory use is genuinely bounded rather than merely
//! deferred.

use crate::clock::ClockVector;
use crate::event::{AccessRef, LoadIdx, StoreIdx, ThreadId};
use crate::exec::Execution;
use crate::location::last_at_or_before;

/// Per-location work lists of a pruning pass, kept on the
/// [`Execution`] so a pass allocates nothing in steady state.
#[derive(Clone, Debug, Default)]
pub(crate) struct PruneScratch {
    anchors: Vec<StoreIdx>,
    doomed: Vec<StoreIdx>,
    doomed_loads: Vec<LoadIdx>,
}

/// Which pruning mode is active (§7.1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Default)]
pub enum PruneMode {
    /// Never prune (suitable for short executions; keeps full traces).
    #[default]
    Disabled,
    /// Retire only provably unreadable records.
    Conservative,
    /// Retire everything mo-before the newest store outside a trace
    /// window, possibly narrowing the set of producible executions.
    Aggressive,
}

/// Pruning configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PruneConfig {
    /// Mode selector.
    pub mode: PruneMode,
    /// Run a pass every `interval` events (0 disables automatic passes;
    /// [`Execution::prune_now`] can still be called manually).
    pub interval: u64,
    /// Trace-window length in events for aggressive mode.
    pub window: u64,
    /// First-class §7.1 memory limiting: when tombstones dominate the
    /// mo-graph arena after a pass, compact the arena — physically
    /// evicting pruned nodes and remapping survivors — so *resident*
    /// graph state stays bounded instead of merely recycled. The
    /// trigger is a pure function of deterministic graph state, so
    /// compaction fires at identical points regardless of worker count
    /// or execution recycling.
    pub memory_limit: bool,
}

impl PruneConfig {
    /// No pruning.
    pub fn disabled() -> Self {
        PruneConfig {
            mode: PruneMode::Disabled,
            interval: 0,
            window: 0,
            memory_limit: false,
        }
    }

    /// Conservative pruning every `interval` events.
    pub fn conservative(interval: u64) -> Self {
        PruneConfig {
            mode: PruneMode::Conservative,
            interval,
            window: 0,
            memory_limit: false,
        }
    }

    /// Aggressive pruning every `interval` events with a `window`-event
    /// trace window.
    pub fn aggressive(interval: u64, window: u64) -> Self {
        PruneConfig {
            mode: PruneMode::Aggressive,
            interval,
            window,
            memory_limit: false,
        }
    }

    /// The first-class `--memory-limit` mode: windowed (aggressive)
    /// pruning every `interval` events plus mo-graph arena compaction.
    ///
    /// Faithful to the paper's §7.1: resident trace state is *bounded*
    /// by discarding stores older than the trace window even when some
    /// thread never observed them — which can narrow the set of
    /// producible executions, but is the only way to cap memory on
    /// programs whose threads never synchronize (e.g. workloads whose
    /// seeded bug is precisely a missing release edge). Conservative
    /// pruning alone leaves such histories to grow without bound. The
    /// window is in events, a pure function of the deterministic event
    /// sequence, so behavior stays byte-identical across worker counts.
    pub fn memory_limited(interval: u64) -> Self {
        PruneConfig::aggressive(interval, interval.saturating_mul(8)).with_memory_limit()
    }

    /// Enables mo-graph arena compaction on top of any pruning mode.
    pub fn with_memory_limit(mut self) -> Self {
        self.memory_limit = true;
        self
    }

    /// Whether mo-graph arena compaction is enabled.
    pub fn limits_memory(&self) -> bool {
        self.memory_limit
    }
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig::disabled()
    }
}

impl Execution {
    /// Hook invoked after every committed event.
    pub(crate) fn maybe_prune(&mut self) {
        if self.prune_cfg.mode == PruneMode::Disabled || self.prune_cfg.interval == 0 {
            return;
        }
        if !self.seq.is_multiple_of(self.prune_cfg.interval) {
            return;
        }
        let timer = c11tester_telemetry::phase_start(c11tester_telemetry::Phase::Prune);
        self.prune_now();
        if let Some(timer) = timer {
            timer.stop(&mut self.stats.phase);
        }
    }

    /// Runs one pruning pass immediately (no-op when disabled).
    pub fn prune_now(&mut self) {
        match self.prune_cfg.mode {
            PruneMode::Disabled => {}
            PruneMode::Conservative => self.prune_pass(false),
            PruneMode::Aggressive => self.prune_pass(true),
        }
    }

    /// `CV_min`: intersection over all live threads of each thread's
    /// *effective* clock vector.
    ///
    /// A thread parked in `join` contributes its own clock unioned with
    /// the join target's current clock (chains followed transitively).
    /// That union is a sound lower bound on the joiner's clock at its
    /// next visible operation: clocks grow monotonically and the joiner
    /// resumes only after folding in the target's final clock. Without
    /// the credit, a main thread blocked in `join` for the whole
    /// execution pins `CV_min` near zero and nothing ever prunes.
    fn cv_min(&self) -> Option<ClockVector> {
        let mut min: Option<ClockVector> = None;
        for t in self.threads.iter().filter(|t| t.alive) {
            let mut cv = t.cv.clone();
            let mut next = t.waiting_on;
            // Join chains are acyclic (a cycle would deadlock), but
            // bound the walk by thread count for robustness.
            for _ in 0..self.threads.len() {
                let Some(target) = next else { break };
                let ts = &self.threads[target.index()];
                cv.union_with(&ts.cv);
                next = ts.waiting_on;
            }
            min = Some(match min {
                None => cv,
                Some(m) => m.intersect(&cv),
            });
        }
        min
    }

    /// Is `x` strictly modification-ordered before `k`?
    fn mo_before(&self, x: StoreIdx, k: StoreIdx) -> bool {
        if x == k {
            return false;
        }
        let xr = &self.stores[x.index()];
        let kr = &self.stores[k.index()];
        if xr.tid == kr.tid {
            // Same-thread same-location stores are mo-ordered in program
            // order (write-write coherence).
            return xr.seq < kr.seq;
        }
        match (xr.node, kr.node) {
            (Some(nx), Some(nk)) => self.graph.reaches(nx, nk),
            _ => false,
        }
    }

    fn prune_pass(&mut self, aggressive: bool) {
        let Some(cv_min) = self.cv_min() else {
            return;
        };
        self.stats.prune_passes += 1;
        // Histories and fence lists change here without an event: the
        // read plan is void.
        self.plan = None;
        let cutoff = if aggressive {
            self.seq.saturating_sub(self.prune_cfg.window)
        } else {
            0
        };
        let mut buf = std::mem::take(&mut self.prune_buf);

        // The dense location table iterates in ObjId order —
        // deterministic, unlike the former hash-map key order.
        for obj_ix in 0..self.locations.len() {
            // Phase 1: anchors — the newest store per thread known to
            // every live thread (conservative), plus the newest store
            // per thread older than the window (aggressive).
            buf.anchors.clear();
            let loc = &self.locations[obj_ix];
            for (uix, h) in loc.threads() {
                let known = cv_min.get(ThreadId::from_index(uix));
                buf.anchors
                    .extend(last_at_or_before(&h.stores, known).map(|(_, s)| s));
                if aggressive && cutoff > 0 {
                    buf.anchors
                        .extend(last_at_or_before(&h.stores, cutoff).map(|(_, s)| s));
                }
            }
            if buf.anchors.is_empty() {
                continue;
            }

            // Phase 2: everything strictly mo-before an anchor dies,
            // except the anchors themselves and bookkeeping stores the
            // engine still references.
            buf.doomed.clear();
            for (_, h) in loc.threads() {
                for &(_, s) in &h.stores {
                    if buf.anchors.contains(&s)
                        || loc.last_sc_store == Some(s)
                        || loc.last_store_exec == Some(s)
                    {
                        continue;
                    }
                    if buf.anchors.iter().any(|&k| self.mo_before(s, k)) {
                        buf.doomed.push(s);
                    }
                }
            }
            if buf.doomed.is_empty() {
                continue;
            }

            // Phase 3: tombstone the records and nodes, then drop the
            // doomed stores and the loads that read them from every
            // history list by their tombstone flag.
            for &s in &buf.doomed {
                let rec = &mut self.stores[s.index()];
                rec.pruned = true;
                // Release (not clear): tombstones must give spilled
                // clock storage back — §7.1 bounds real memory, and
                // `alloc_store` overwrites the whole record on reuse
                // anyway, so there is no capacity worth keeping.
                rec.rf_cv.release();
                rec.hb_cv.release();
                if let Some(n) = rec.node.take() {
                    self.graph.prune_node(n);
                }
            }
            buf.doomed_loads.clear();
            {
                let Execution {
                    locations,
                    loads,
                    stores,
                    ..
                } = self;
                let loc = &mut locations[obj_ix];
                for h in &mut loc.per_thread {
                    h.stores.retain(|&(_, s)| !stores[s.index()].pruned);
                    h.sc_stores.retain(|&(_, s)| !stores[s.index()].pruned);
                    h.rmw_free.retain(|&(_, s)| !stores[s.index()].pruned);
                    h.accesses.retain(|&(_, a)| match a {
                        AccessRef::Store(s) => !stores[s.index()].pruned,
                        AccessRef::Load(l) => {
                            let keep = !stores[loads[l.index()].rf.index()].pruned;
                            if !keep {
                                buf.doomed_loads.push(l);
                            }
                            keep
                        }
                    });
                }
                loc.pruned_stores += buf.doomed.len() as u64;
            }
            self.free_stores.extend_from_slice(&buf.doomed);
            for &l in &buf.doomed_loads {
                self.loads[l.index()].pruned = true;
                self.free_loads.push(l);
            }
            self.stats.pruned_stores += buf.doomed.len() as u64;
            self.stats.pruned_loads += buf.doomed_loads.len() as u64;
        }
        self.prune_buf = buf;

        // Fence rule (§7.1): seq_cst fences that happen-before CV_min are
        // subsumed by happens-before from now on.
        {
            let Execution {
                threads, fences, ..
            } = self;
            let mut dropped = 0u64;
            for (uix, th) in threads.iter_mut().enumerate() {
                let bound = cv_min.get(ThreadId::from_index(uix));
                let before = th.sc_fences.len();
                th.sc_fences.retain(|&f| fences[f.index()].seq.0 > bound);
                dropped += (before - th.sc_fences.len()) as u64;
            }
            self.stats.pruned_fences += dropped;
        }

        self.graph.drop_edges_to_pruned();

        // §7.1 memory limiting: once tombstones make up half the
        // mo-graph arena (and there are enough of them to be worth a
        // pass), physically evict them. The threshold is a pure
        // function of graph state — never wall-clock or allocator
        // state — so compaction points are deterministic and the
        // canonical output stays byte-identical across worker counts.
        if self.prune_cfg.memory_limit {
            let tombs = self.graph.pruned_len();
            if tombs >= 32 && tombs * 2 >= self.graph.len() {
                self.compact_graph();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MemOrder, StoreKind};
    use crate::policy::Policy;

    /// With full synchronization, old stores become unreadable and a
    /// conservative pass retires them.
    #[test]
    fn conservative_prunes_globally_known_history() {
        let mut e = Execution::with_pruning(Policy::C11Tester, PruneConfig::conservative(0));
        let main = ThreadId::MAIN;
        let x = e.new_object();
        for v in 0..100 {
            e.atomic_store(main, x, MemOrder::Relaxed, v, StoreKind::Atomic);
        }
        // Single live thread: everything it alone knows is globally
        // known; all but the newest store can go.
        assert_eq!(e.stores_at(x).len(), 100);
        e.prune_now();
        let left = e.stores_at(x);
        assert_eq!(left.len(), 1, "only the newest store survives");
        assert_eq!(e.store_value(left[0]), 99);
        assert_eq!(e.stats().pruned_stores, 99);
    }

    /// Pruning must never remove stores an unsynchronized thread could
    /// still read.
    #[test]
    fn conservative_keeps_stores_unknown_to_a_thread() {
        let mut e = Execution::with_pruning(Policy::C11Tester, PruneConfig::conservative(0));
        let main = ThreadId::MAIN;
        let x = e.new_object();
        e.atomic_store(main, x, MemOrder::Relaxed, 0, StoreKind::Atomic);
        let lagger = e.fork(main); // knows only the init store
        for v in 1..50 {
            e.atomic_store(main, x, MemOrder::Relaxed, v, StoreKind::Atomic);
        }
        e.prune_now();
        // The lagger's CV pins CV_min at the init store: nothing newer is
        // globally known, so nothing mo-after init is prunable — and the
        // init store itself is an anchor, so nothing at all goes.
        assert_eq!(e.stores_at(x).len(), 50);
        assert_eq!(e.stats().pruned_stores, 0);
        // The lagger can still read anything it could before.
        let cands = e.feasible_read_candidates(lagger, x, MemOrder::Relaxed, false);
        assert_eq!(cands.len(), 50);
    }

    /// Feasible read sets are identical with and without conservative
    /// pruning — the mode must not change producible executions.
    #[test]
    fn conservative_preserves_feasible_reads() {
        let run = |prune: bool| {
            let cfg = if prune {
                PruneConfig::conservative(0)
            } else {
                PruneConfig::disabled()
            };
            let mut e = Execution::with_pruning(Policy::C11Tester, cfg);
            let main = ThreadId::MAIN;
            let x = e.new_object();
            let y = e.new_object();
            e.atomic_store(main, x, MemOrder::Relaxed, 0, StoreKind::Atomic);
            e.atomic_store(main, y, MemOrder::Relaxed, 0, StoreKind::Atomic);
            let t1 = e.fork(main);
            for v in 1..20 {
                e.atomic_store(t1, x, MemOrder::Release, v, StoreKind::Atomic);
                e.atomic_store(t1, y, MemOrder::Release, v + 100, StoreKind::Atomic);
            }
            e.finish_thread(t1);
            e.join(main, t1);
            if prune {
                e.prune_now();
            }
            let cx: Vec<u64> = e
                .feasible_read_candidates(main, x, MemOrder::Acquire, false)
                .into_iter()
                .map(|s| e.store_value(s))
                .collect();
            let cy: Vec<u64> = e
                .feasible_read_candidates(main, y, MemOrder::Acquire, false)
                .into_iter()
                .map(|s| e.store_value(s))
                .collect();
            (cx, cy)
        };
        assert_eq!(run(false), run(true));
    }

    /// Aggressive mode bounds history length even without global
    /// synchronization.
    #[test]
    fn aggressive_prunes_outside_window() {
        let mut e = Execution::with_pruning(Policy::C11Tester, PruneConfig::aggressive(0, 10));
        let main = ThreadId::MAIN;
        let x = e.new_object();
        let _lagger = e.fork(main); // never synchronizes
        for v in 0..100 {
            e.atomic_store(main, x, MemOrder::Relaxed, v, StoreKind::Atomic);
        }
        e.prune_now();
        let left = e.stores_at(x).len();
        assert!(
            left < 100,
            "window-based anchors must retire old stores (left {left})"
        );
        assert!(e.stats().pruned_stores > 0);
    }

    /// Pruned arena slots are recycled, bounding memory.
    #[test]
    fn arena_slots_are_recycled() {
        let mut e = Execution::with_pruning(Policy::C11Tester, PruneConfig::conservative(16));
        let main = ThreadId::MAIN;
        let x = e.new_object();
        for v in 0..10_000 {
            e.atomic_store(main, x, MemOrder::Relaxed, v, StoreKind::Atomic);
        }
        assert!(
            e.stores.len() < 1000,
            "store arena must stay bounded, got {}",
            e.stores.len()
        );
    }

    /// Memory limiting compacts the mo-graph arena: resident node
    /// state stays bounded where the same windowed pruner without the
    /// limit only tombstones (slots stay occupied until the execution
    /// ends).
    #[test]
    fn memory_limit_bounds_resident_graph_nodes() {
        let run = |cfg: PruneConfig| {
            let mut e = Execution::with_pruning(Policy::C11Tester, cfg);
            let main = ThreadId::MAIN;
            let x = e.new_object();
            for v in 0..10_000 {
                e.atomic_store(main, x, MemOrder::Relaxed, v, StoreKind::Atomic);
            }
            e.finalize_alloc_stats();
            (e.mograph().len(), e.stats().mograph_perf)
        };
        // Same pruner as `memory_limited(16)`, minus the compaction —
        // the comparison isolates what the memory limit itself adds.
        let (plain_len, plain_perf) = run(PruneConfig::aggressive(16, 128));
        let (lim_len, lim_perf) = run(PruneConfig::memory_limited(16));
        assert_eq!(plain_perf.compactions, 0);
        assert!(lim_perf.compactions > 0, "compaction must trigger");
        assert!(
            lim_len < 256,
            "resident nodes bounded under --memory-limit, got {lim_len}"
        );
        assert!(
            lim_perf.peak_live_nodes < 1024,
            "high-water bounded, got {}",
            lim_perf.peak_live_nodes
        );
        assert!(
            plain_len > lim_len * 4,
            "tombstones accumulate without compaction ({plain_len} vs {lim_len})"
        );
    }

    /// Compaction is behaviorally invisible: a memory-limited run is
    /// indistinguishable — same values, same feasible sets, same
    /// behavioral statistics including prune counts — from the same
    /// program under the identical windowed pruner without the limit.
    #[test]
    fn compaction_is_behaviorally_invisible() {
        let run = |cfg: PruneConfig| {
            let mut e = Execution::with_pruning(Policy::C11Tester, cfg);
            let main = ThreadId::MAIN;
            let x = e.new_object();
            let mut vals = Vec::new();
            for v in 0..400u64 {
                let s = e.atomic_store(main, x, MemOrder::Relaxed, v, StoreKind::Atomic);
                if v % 7 == 0 {
                    vals.push(e.commit_load(main, x, MemOrder::Relaxed, s));
                }
                if v % 13 == 0 {
                    let (old, _) = e.commit_rmw(main, x, MemOrder::AcqRel, s, v + 1000);
                    vals.push(old);
                }
            }
            let cands: Vec<u64> = e
                .feasible_read_candidates(main, x, MemOrder::Relaxed, false)
                .into_iter()
                .map(|s| e.store_value(s))
                .collect();
            e.finalize_alloc_stats();
            (vals, cands, *e.stats())
        };
        let plain = run(PruneConfig::aggressive(16, 128));
        let limited = run(PruneConfig::memory_limited(16));
        assert!(
            limited.2.mograph_perf.compactions > 0,
            "the comparison must actually exercise compaction"
        );
        // ExecStats equality covers every behavioral counter; the
        // diagnostic mograph_perf/alloc/phase blocks are excluded.
        assert_eq!(plain, limited);
    }

    /// Old seq_cst fences are retired once happens-before subsumes them.
    #[test]
    fn sc_fences_are_pruned() {
        let mut e = Execution::with_pruning(Policy::C11Tester, PruneConfig::conservative(0));
        let main = ThreadId::MAIN;
        let x = e.new_object();
        for _ in 0..5 {
            e.fence(main, MemOrder::SeqCst);
            e.atomic_store(main, x, MemOrder::Relaxed, 1, StoreKind::Atomic);
        }
        e.prune_now();
        assert!(e.stats().pruned_fences >= 4);
    }
}
