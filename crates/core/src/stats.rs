//! Per-execution operation statistics (Table 3 of the paper reports the
//! number of atomic operations — including synchronization operations —
//! and normal shared-memory accesses per benchmark).

use crate::mograph::MoGraphStats;
use c11tester_telemetry::{GraphMetrics, PhaseProfile};

/// Allocation-behavior diagnostics (hot-path observability).
///
/// These counters describe *how* an execution was provisioned —
/// recycled arena vs fresh allocation, clock vectors spilled past the
/// inline capacity — not *what* it computed. They are deliberately
/// **excluded from [`ExecStats`] equality** and from the default
/// canonical campaign JSON: a replayed execution is behaviorally
/// identical whether it ran on a recycled or a fresh arena, and the
/// determinism contract (byte-identical canonical reports, recycled vs
/// fresh, at any worker count) must not be broken by provisioning
/// details. Surface them explicitly (e.g. `c11campaign --alloc-stats`)
/// when diagnosing allocator behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Executions that started from a freshly allocated state.
    pub fresh_executions: u64,
    /// Executions that started from a recycled (capacity-retaining)
    /// execution state.
    pub recycled_executions: u64,
    /// Live clock vectors that had spilled past the inline capacity
    /// ([`crate::clock::INLINE_SLOTS`] threads) when the execution
    /// finished.
    pub clock_spills: u64,
}

impl AllocStats {
    /// Folds another execution's allocation counters into this one.
    pub fn absorb(&mut self, other: &AllocStats) {
        self.fresh_executions += other.fresh_executions;
        self.recycled_executions += other.recycled_executions;
        self.clock_spills += other.clock_spills;
    }
}

/// Counters accumulated over a single execution.
///
/// Equality compares the *behavioral* counters only: [`ExecStats::alloc`]
/// is excluded, so a replayed execution matches its original regardless
/// of whether either ran on recycled state.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Atomic loads committed.
    pub atomic_loads: u64,
    /// Atomic stores committed (excluding RMW store halves).
    pub atomic_stores: u64,
    /// RMW operations committed.
    pub rmws: u64,
    /// Fences executed.
    pub fences: u64,
    /// Synchronization operations (mutex lock/unlock, condvar ops,
    /// thread create/join) — the paper counts these as atomic ops.
    pub sync_ops: u64,
    /// Non-atomic (plain) shared-memory accesses observed by the race
    /// detector ("normal memory accesses" in Table 3).
    pub normal_accesses: u64,
    /// Volatile accesses converted to atomics (§7.2).
    pub volatile_accesses: u64,
    /// Reads-from candidates rejected by the feasibility check (§4.3).
    pub candidates_rejected: u64,
    /// Stores pruned from the execution graph (§7.1).
    pub pruned_stores: u64,
    /// Loads pruned from the execution graph (§7.1).
    pub pruned_loads: u64,
    /// Seq_cst fences pruned (§7.1, fence rules).
    pub pruned_fences: u64,
    /// Pruning passes performed.
    pub prune_passes: u64,
    /// Mo-graph maintenance statistics.
    pub mograph: MoGraphStats,
    /// Incremental-topological-order / memory-limiting diagnostics
    /// (excluded from equality: fast-path hit rates and compaction
    /// bookkeeping describe *how* the graph answered queries, not what
    /// the execution computed — like [`AllocStats`] they must never
    /// distinguish behaviorally identical executions).
    pub mograph_perf: GraphMetrics,
    /// Allocation-behavior diagnostics (excluded from equality; see
    /// [`AllocStats`]).
    pub alloc: AllocStats,
    /// Per-phase wall-time profile (excluded from equality: timing is
    /// nondeterministic and diagnostic, never behavioral). Empty
    /// unless phase profiling is enabled
    /// ([`c11tester_telemetry::set_profiling`]).
    pub phase: PhaseProfile,
}

impl PartialEq for ExecStats {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: adding a field without deciding
        // whether it participates in equality is a compile error.
        // `mograph_perf`, `alloc`, and `phase` are the intentional
        // exclusions — graph fast-path diagnostics, provisioning
        // details, and wall-clock timings must not distinguish
        // behaviorally identical executions.
        let ExecStats {
            atomic_loads,
            atomic_stores,
            rmws,
            fences,
            sync_ops,
            normal_accesses,
            volatile_accesses,
            candidates_rejected,
            pruned_stores,
            pruned_loads,
            pruned_fences,
            prune_passes,
            mograph,
            mograph_perf: _,
            alloc: _,
            phase: _,
        } = self;
        *atomic_loads == other.atomic_loads
            && *atomic_stores == other.atomic_stores
            && *rmws == other.rmws
            && *fences == other.fences
            && *sync_ops == other.sync_ops
            && *normal_accesses == other.normal_accesses
            && *volatile_accesses == other.volatile_accesses
            && *candidates_rejected == other.candidates_rejected
            && *pruned_stores == other.pruned_stores
            && *pruned_loads == other.pruned_loads
            && *pruned_fences == other.pruned_fences
            && *prune_passes == other.prune_passes
            && *mograph == other.mograph
    }
}

impl Eq for ExecStats {}

impl ExecStats {
    /// Total atomic operations in the paper's Table 3 sense: atomics
    /// plus synchronization operations.
    pub fn atomic_ops(&self) -> u64 {
        self.atomic_loads
            + self.atomic_stores
            + self.rmws
            + self.fences
            + self.sync_ops
            + self.volatile_accesses
    }

    /// Folds another execution's counters into this one (used when a
    /// model accumulates totals across repeated executions).
    pub fn absorb(&mut self, other: &ExecStats) {
        self.atomic_loads += other.atomic_loads;
        self.atomic_stores += other.atomic_stores;
        self.rmws += other.rmws;
        self.fences += other.fences;
        self.sync_ops += other.sync_ops;
        self.normal_accesses += other.normal_accesses;
        self.volatile_accesses += other.volatile_accesses;
        self.candidates_rejected += other.candidates_rejected;
        self.pruned_stores += other.pruned_stores;
        self.pruned_loads += other.pruned_loads;
        self.pruned_fences += other.pruned_fences;
        self.prune_passes += other.prune_passes;
        self.mograph.edges_added += other.mograph.edges_added;
        self.mograph.edges_redundant += other.mograph.edges_redundant;
        self.mograph.merges += other.mograph.merges;
        self.mograph.rmw_edges += other.mograph.rmw_edges;
        self.mograph_perf.absorb(&other.mograph_perf);
        self.alloc.absorb(&other.alloc);
        self.phase.absorb(&other.phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_ops_totals_all_visible_categories() {
        let s = ExecStats {
            atomic_loads: 1,
            atomic_stores: 2,
            rmws: 3,
            fences: 4,
            sync_ops: 5,
            volatile_accesses: 6,
            normal_accesses: 100,
            ..ExecStats::default()
        };
        assert_eq!(s.atomic_ops(), 21);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = ExecStats {
            atomic_loads: 1,
            normal_accesses: 10,
            ..ExecStats::default()
        };
        let b = ExecStats {
            atomic_loads: 2,
            normal_accesses: 5,
            prune_passes: 1,
            ..ExecStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.atomic_loads, 3);
        assert_eq!(a.normal_accesses, 15);
        assert_eq!(a.prune_passes, 1);
    }

    #[test]
    fn equality_ignores_alloc_diagnostics() {
        let fresh = ExecStats {
            atomic_loads: 4,
            alloc: AllocStats {
                fresh_executions: 1,
                ..AllocStats::default()
            },
            ..ExecStats::default()
        };
        let recycled = ExecStats {
            atomic_loads: 4,
            alloc: AllocStats {
                recycled_executions: 1,
                clock_spills: 3,
                ..AllocStats::default()
            },
            ..ExecStats::default()
        };
        // Same behavior, different provisioning: equal.
        assert_eq!(fresh, recycled);
        let different = ExecStats {
            atomic_loads: 5,
            ..ExecStats::default()
        };
        assert_ne!(fresh, different);
    }

    #[test]
    fn equality_ignores_mograph_perf_diagnostics() {
        let plain = ExecStats {
            atomic_loads: 4,
            ..ExecStats::default()
        };
        let gated = ExecStats {
            atomic_loads: 4,
            mograph_perf: GraphMetrics {
                reach_fast_negative: 99,
                order_reorders: 2,
                peak_live_nodes: 40,
                ..GraphMetrics::default()
            },
            ..ExecStats::default()
        };
        // Same behavior, different fast-path hit profile: equal.
        assert_eq!(plain, gated);
    }

    #[test]
    fn absorb_accumulates_mograph_perf() {
        let mut a = ExecStats::default();
        let b = ExecStats {
            mograph_perf: GraphMetrics {
                reach_cv_checks: 3,
                peak_live_nodes: 25,
                ..GraphMetrics::default()
            },
            ..ExecStats::default()
        };
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.mograph_perf.reach_cv_checks, 6);
        assert_eq!(a.mograph_perf.peak_live_nodes, 25, "peak maxes, not sums");
    }

    #[test]
    fn equality_ignores_phase_profile() {
        use c11tester_telemetry::Phase;
        let plain = ExecStats {
            atomic_loads: 4,
            ..ExecStats::default()
        };
        let mut profiled = plain;
        profiled.phase.record(Phase::Scheduling, 1_000);
        // Same behavior, different wall-clock profile: equal.
        assert_eq!(plain, profiled);
    }

    #[test]
    fn absorb_accumulates_phase_profile() {
        use c11tester_telemetry::Phase;
        let mut a = ExecStats::default();
        let mut b = ExecStats::default();
        b.phase.record(Phase::Prune, 5);
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.phase.nanos(Phase::Prune), 10);
        assert_eq!(a.phase.calls(Phase::Prune), 2);
    }

    #[test]
    fn absorb_accumulates_alloc_counters() {
        let mut a = ExecStats::default();
        let b = ExecStats {
            alloc: AllocStats {
                fresh_executions: 1,
                recycled_executions: 2,
                clock_spills: 7,
            },
            ..ExecStats::default()
        };
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.alloc.fresh_executions, 2);
        assert_eq!(a.alloc.recycled_executions, 4);
        assert_eq!(a.alloc.clock_spills, 14);
    }
}
