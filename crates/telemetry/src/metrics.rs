//! Campaign-level metrics registry and the `c11metrics/v1` exporter.
//!
//! Diagnostic aggregates collected while a campaign runs: per-worker
//! utilization, fork-server child health, and the adaptive epoch
//! timeline. Like `StrategyLedger`, every aggregate merges
//! **order-independently** ([`CampaignMetrics::absorb`]), so the
//! numbers are stable no matter which worker or batch reports first.
//! None of this ever enters canonical campaign JSON — metrics are
//! timing-dependent and would break byte-identity; they are emitted
//! only via `c11campaign --metrics-out` (see `docs/METRICS.md`).

use crate::json::{JsonValue, JsonWriter};
use crate::phase::{write_phase, PhaseProfile};

/// One campaign worker's share of the load.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerMetrics {
    /// Worker ordinal (the shard offset).
    pub worker: u64,
    /// Executions this worker completed.
    pub executions: u64,
    /// Wall time the worker spent running executions (vs. idle at the
    /// stop barrier).
    pub busy_nanos: u64,
    /// Display name of the run-token handover this worker's model
    /// *effectively* ran (`HandoverKind::effective().name()` — fibers
    /// degrade to futex park off x86_64, a ~14× handover-cost
    /// difference). A property of `(config, host)`, so every row of
    /// one campaign carries the same value and folding keeps it.
    pub handover: &'static str,
}

/// Fork-server child health counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForkHealth {
    /// Child processes spawned: one per pool worker, plus respawns.
    pub spawns: u64,
    /// Children spawned to replace one that died mid-batch (crash and
    /// timeout triage path): one per death.
    pub respawns: u64,
    /// Children killed by the per-execution timeout.
    pub timeout_kills: u64,
    /// Executions run a second time because the child that completed
    /// them died before shipping their batch fold (the prefix of a
    /// batch before a crash).
    pub rerun_executions: u64,
    /// Protocol frames received from children.
    pub frames: u64,
    /// Total parent-side inter-frame latency.
    pub frame_rtt_nanos_total: u64,
    /// Worst single inter-frame latency.
    pub frame_rtt_nanos_max: u64,
}

impl ForkHealth {
    /// Order-independent merge.
    pub fn absorb(&mut self, other: &ForkHealth) {
        self.spawns += other.spawns;
        self.respawns += other.respawns;
        self.timeout_kills += other.timeout_kills;
        self.rerun_executions += other.rerun_executions;
        self.frames += other.frames;
        self.frame_rtt_nanos_total = self
            .frame_rtt_nanos_total
            .saturating_add(other.frame_rtt_nanos_total);
        self.frame_rtt_nanos_max = self.frame_rtt_nanos_max.max(other.frame_rtt_nanos_max);
    }

    /// Mean inter-frame latency, when any frame was timed.
    pub fn frame_rtt_mean_nanos(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.frame_rtt_nanos_total as f64 / self.frames as f64
        }
    }
}

/// Mo-graph maintenance diagnostics: incremental-topological-order
/// fast-path hit rates and `--memory-limit` compaction bookkeeping. The
/// core graph counts them per execution (`ExecStats::mograph_perf`), the
/// campaign sums them (`CampaignMetrics::graph`). Diagnostic only:
/// excluded from stats equality and never part of canonical campaign
/// JSON.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphMetrics {
    /// Edge insertions that violated the maintained topological order
    /// and triggered a bounded local reorder.
    pub order_reorders: u64,
    /// Total nodes re-indexed across those reorders.
    pub reorder_nodes: u64,
    /// Reachability queries answered negatively by the order-index
    /// compare alone (clock-vector comparison skipped).
    pub reach_fast_negative: u64,
    /// Reachability queries that fell through to the clock-vector test.
    pub reach_cv_checks: u64,
    /// Tombstone compaction passes run (`--memory-limit`).
    pub compactions: u64,
    /// Pruned nodes physically evicted from the arena by compaction.
    pub compacted_nodes: u64,
    /// High-water mark of arena-resident mo-graph nodes in any single
    /// execution; bounded under `--memory-limit`.
    pub peak_live_nodes: u64,
}

impl GraphMetrics {
    /// Order-independent merge: counters sum, the high-water mark
    /// takes the max.
    pub fn absorb(&mut self, other: &GraphMetrics) {
        self.order_reorders += other.order_reorders;
        self.reorder_nodes += other.reorder_nodes;
        self.reach_fast_negative += other.reach_fast_negative;
        self.reach_cv_checks += other.reach_cv_checks;
        self.compactions += other.compactions;
        self.compacted_nodes += other.compacted_nodes;
        self.peak_live_nodes = self.peak_live_nodes.max(other.peak_live_nodes);
    }
}

/// Writes the graph counters as one object: the `c11metrics/v1`
/// `mograph` block and the fork server's `batch` frame `graph` field.
pub fn write_graph(w: &mut JsonWriter, g: &GraphMetrics) {
    w.object(|w| {
        w.key("order_reorders").u64(g.order_reorders);
        w.key("reorder_nodes").u64(g.reorder_nodes);
        w.key("reach_fast_negative").u64(g.reach_fast_negative);
        w.key("reach_cv_checks").u64(g.reach_cv_checks);
        w.key("compactions").u64(g.compactions);
        w.key("compacted_nodes").u64(g.compacted_nodes);
        w.key("peak_live_nodes").u64(g.peak_live_nodes);
    });
}

/// Inverse of [`write_graph`].
pub fn read_graph(v: &JsonValue) -> Result<GraphMetrics, String> {
    Ok(GraphMetrics {
        order_reorders: v.u64_field("order_reorders")?,
        reorder_nodes: v.u64_field("reorder_nodes")?,
        reach_fast_negative: v.u64_field("reach_fast_negative")?,
        reach_cv_checks: v.u64_field("reach_cv_checks")?,
        compactions: v.u64_field("compactions")?,
        compacted_nodes: v.u64_field("compacted_nodes")?,
        peak_live_nodes: v.u64_field("peak_live_nodes")?,
    })
}

/// One adaptive epoch on the campaign timeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpochMetric {
    /// Epoch ordinal.
    pub epoch: u64,
    /// First global execution index of the epoch.
    pub start_index: u64,
    /// Executions the epoch actually ran.
    pub executions: u64,
    /// Wall time of the epoch.
    pub wall_nanos: u64,
    /// Strategy mix spec the epoch ran under.
    pub mix: String,
}

/// Identity of the campaign a metrics document describes (assembled
/// by the CLI; not part of the merged aggregates).
#[derive(Clone, Debug, Default)]
pub struct MetricsMeta {
    /// Target workload name.
    pub target: String,
    /// Campaign base seed.
    pub seed: u64,
    /// Memory-model policy name.
    pub policy: String,
    /// Configured worker count.
    pub workers: u64,
    /// Whether the campaign ran fork-isolated.
    pub isolated: bool,
}

/// The full diagnostic aggregate of one campaign run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignMetrics {
    /// Campaign-wide per-phase time (sum over every execution).
    pub phase: PhaseProfile,
    /// Mo-graph maintenance diagnostics (sum over every execution;
    /// `peak_live_nodes` is the per-execution max).
    pub graph: GraphMetrics,
    /// Per-worker load; sorted by worker id at emission.
    pub workers: Vec<WorkerMetrics>,
    /// Fork-server health (all-zero for in-process campaigns).
    pub fork: ForkHealth,
    /// Adaptive epoch timeline (empty for flat campaigns).
    pub epochs: Vec<EpochMetric>,
    /// Total executions.
    pub executions: u64,
    /// Campaign wall time.
    pub wall_nanos: u64,
}

impl CampaignMetrics {
    /// Order-independent merge: worker rows are folded by id, fork
    /// counters summed, epoch rows appended (re-sorted at emission),
    /// wall time taken as the max (merged shards ran concurrently).
    pub fn absorb(&mut self, other: &CampaignMetrics) {
        self.phase.absorb(&other.phase);
        self.graph.absorb(&other.graph);
        for w in &other.workers {
            match self.workers.iter_mut().find(|m| m.worker == w.worker) {
                Some(mine) => {
                    mine.executions += w.executions;
                    mine.busy_nanos = mine.busy_nanos.saturating_add(w.busy_nanos);
                }
                None => self.workers.push(*w),
            }
        }
        self.fork.absorb(&other.fork);
        self.epochs.extend(other.epochs.iter().cloned());
        self.executions += other.executions;
        self.wall_nanos = self.wall_nanos.max(other.wall_nanos);
    }

    /// Relative spread of executions across workers:
    /// `(max − min) / mean`, or 0 with fewer than two workers.
    pub fn shard_imbalance(&self) -> f64 {
        if self.workers.len() < 2 {
            return 0.0;
        }
        let counts: Vec<u64> = self.workers.iter().map(|w| w.executions).collect();
        let max = *counts.iter().max().expect("non-empty");
        let min = *counts.iter().min().expect("non-empty");
        let mean = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            (max - min) as f64 / mean
        }
    }

    /// Serializes to the `c11metrics/v1` schema (field-by-field
    /// reference in `docs/METRICS.md`). Workers and epochs are emitted
    /// sorted by id, whatever order they were absorbed in.
    pub fn to_json(&self, meta: &MetricsMeta) -> String {
        let mut workers = self.workers.clone();
        workers.sort_by_key(|m| m.worker);
        let mut epochs = self.epochs.clone();
        epochs.sort_by_key(|e| e.epoch);
        let wall_secs = self.wall_nanos as f64 / 1e9;
        let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };

        let mut w = JsonWriter::with_capacity(1024);
        w.object(|w| {
            w.key("schema").str("c11metrics/v1");
            w.key("target").str(&meta.target);
            w.key("base_seed").u64(meta.seed);
            w.key("policy").str(&meta.policy);
            w.key("workers").u64(meta.workers);
            w.key("isolated").bool(meta.isolated);
            w.key("wall_nanos").u64(self.wall_nanos);
            w.key("executions").u64(self.executions);
            w.key("execs_per_sec")
                .f64(share(self.executions as f64, wall_secs));
            write_phase(w.key("phase"), &self.phase);
            write_graph(w.key("mograph"), &self.graph);
            w.key("worker_utilization").array(|w| {
                for m in &workers {
                    w.object(|w| {
                        w.key("worker").u64(m.worker);
                        w.key("executions").u64(m.executions);
                        w.key("busy_nanos").u64(m.busy_nanos);
                        w.key("utilization")
                            .f64(share(m.busy_nanos as f64, self.wall_nanos as f64));
                        w.key("handover").str(m.handover);
                    });
                }
            });
            w.key("shard_imbalance").f64(self.shard_imbalance());
            w.key("fork_server").object(|w| {
                w.key("spawns").u64(self.fork.spawns);
                w.key("respawns").u64(self.fork.respawns);
                w.key("timeout_kills").u64(self.fork.timeout_kills);
                w.key("rerun_executions").u64(self.fork.rerun_executions);
                w.key("frames").u64(self.fork.frames);
                w.key("frame_rtt_mean_nanos")
                    .f64(self.fork.frame_rtt_mean_nanos());
                w.key("frame_rtt_max_nanos")
                    .u64(self.fork.frame_rtt_nanos_max);
            });
            w.key("epochs").array(|w| {
                for e in &epochs {
                    w.object(|w| {
                        w.key("epoch").u64(e.epoch);
                        w.key("start_index").u64(e.start_index);
                        w.key("executions").u64(e.executions);
                        w.key("wall_nanos").u64(e.wall_nanos);
                        w.key("mix").str(&e.mix);
                    });
                }
            });
        });
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    fn worker(worker: u64, executions: u64, busy_nanos: u64) -> WorkerMetrics {
        WorkerMetrics {
            worker,
            executions,
            busy_nanos,
            ..WorkerMetrics::default()
        }
    }

    #[test]
    fn absorb_is_order_independent() {
        let mut a = CampaignMetrics {
            workers: vec![worker(0, 10, 100)],
            executions: 10,
            wall_nanos: 500,
            ..CampaignMetrics::default()
        };
        a.phase.record(Phase::Scheduling, 7);
        a.fork.spawns = 1;
        let mut b = CampaignMetrics {
            workers: vec![worker(0, 5, 50), worker(1, 8, 80)],
            executions: 13,
            wall_nanos: 400,
            ..CampaignMetrics::default()
        };
        b.fork.respawns = 2;
        b.fork.rerun_executions = 5;
        b.epochs.push(EpochMetric {
            epoch: 0,
            start_index: 0,
            executions: 13,
            wall_nanos: 400,
            mix: "random".into(),
        });

        let mut ab = a.clone();
        ab.absorb(&b);
        let mut ba = b.clone();
        ba.absorb(&a);
        // Same content regardless of merge order (workers may differ
        // in vec order; to_json sorts).
        let meta = MetricsMeta::default();
        assert_eq!(ab.to_json(&meta), ba.to_json(&meta));
        assert_eq!(ab.executions, 23);
        assert_eq!(ab.wall_nanos, 500);
        assert_eq!(ab.fork.spawns, 1);
        assert_eq!(ab.fork.respawns, 2);
        assert_eq!(ab.fork.rerun_executions, 5);
        let w0 = ab.workers.iter().find(|w| w.worker == 0).expect("w0");
        assert_eq!(w0.executions, 15);
    }

    #[test]
    fn worker_fold_keeps_the_handover_name() {
        let row = |executions, busy_nanos| WorkerMetrics {
            worker: 0,
            executions,
            busy_nanos,
            handover: "futex park/unpark",
        };
        let mut a = CampaignMetrics {
            workers: vec![row(10, 100)],
            executions: 10,
            ..CampaignMetrics::default()
        };
        a.absorb(&CampaignMetrics {
            workers: vec![row(5, 50)],
            executions: 5,
            ..CampaignMetrics::default()
        });
        assert_eq!(a.workers, vec![row(15, 150)]);
        let json = a.to_json(&MetricsMeta::default());
        assert!(json.contains("\"handover\":\"futex park/unpark\"}"));
    }

    #[test]
    fn shard_imbalance_measures_spread() {
        let mut m = CampaignMetrics::default();
        assert_eq!(m.shard_imbalance(), 0.0);
        m.workers = vec![worker(0, 10, 0), worker(1, 10, 0)];
        assert_eq!(m.shard_imbalance(), 0.0);
        m.workers = vec![worker(0, 15, 0), worker(1, 5, 0)];
        assert!((m.shard_imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn json_has_the_v1_shape() {
        let mut m = CampaignMetrics {
            workers: vec![worker(1, 5, 50), worker(0, 10, 100)],
            executions: 15,
            wall_nanos: 1_000,
            ..CampaignMetrics::default()
        };
        m.phase.record(Phase::Prune, 3);
        let meta = MetricsMeta {
            target: "rwlock-buggy".into(),
            seed: 0xC11,
            policy: "c11tester".into(),
            workers: 2,
            isolated: false,
        };
        let json = m.to_json(&meta);
        assert!(json.starts_with("{\"schema\":\"c11metrics/v1\""));
        assert!(json.contains("\"target\":\"rwlock-buggy\""));
        assert!(json.contains("\"prune\":{\"nanos\":3,\"calls\":1}"));
        assert!(json.contains("\"total_nanos\":3"));
        // Workers emitted sorted by id even if absorbed out of order.
        let w0 = json.find("\"worker\":0").expect("worker 0");
        let w1 = json.find("\"worker\":1").expect("worker 1");
        assert!(w0 < w1);
        assert!(json.contains("\"fork_server\":{\"spawns\":0"));
        assert!(json.ends_with("\"epochs\":[]}"));
    }

    #[test]
    fn mograph_block_is_emitted_and_merges_order_independently() {
        let mut a = CampaignMetrics {
            graph: GraphMetrics {
                order_reorders: 2,
                reorder_nodes: 9,
                reach_fast_negative: 100,
                reach_cv_checks: 40,
                compactions: 1,
                compacted_nodes: 30,
                peak_live_nodes: 64,
            },
            ..CampaignMetrics::default()
        };
        let b = CampaignMetrics {
            graph: GraphMetrics {
                reach_fast_negative: 50,
                peak_live_nodes: 48,
                ..GraphMetrics::default()
            },
            ..CampaignMetrics::default()
        };
        a.absorb(&b);
        assert_eq!(a.graph.reach_fast_negative, 150);
        assert_eq!(a.graph.peak_live_nodes, 64, "peak maxes, not sums");
        let json = a.to_json(&MetricsMeta::default());
        assert!(json.contains(
            "\"mograph\":{\"order_reorders\":2,\"reorder_nodes\":9,\
             \"reach_fast_negative\":150,\"reach_cv_checks\":40,\"compactions\":1,\
             \"compacted_nodes\":30,\"peak_live_nodes\":64}"
        ));
    }

    #[test]
    fn fork_health_rtt_mean() {
        let mut h = ForkHealth::default();
        assert_eq!(h.frame_rtt_mean_nanos(), 0.0);
        h.frames = 4;
        h.frame_rtt_nanos_total = 100;
        h.frame_rtt_nanos_max = 40;
        assert!((h.frame_rtt_mean_nanos() - 25.0).abs() < 1e-12);
        let mut other = ForkHealth {
            frames: 1,
            frame_rtt_nanos_total: 60,
            frame_rtt_nanos_max: 60,
            timeout_kills: 1,
            ..ForkHealth::default()
        };
        other.absorb(&h);
        assert_eq!(other.frames, 5);
        assert_eq!(other.frame_rtt_nanos_max, 60);
        assert_eq!(other.timeout_kills, 1);
    }

    #[test]
    fn escaping_covers_the_rfc_subset() {
        let meta = MetricsMeta {
            target: "a\"b\\c\nd\u{1}".into(),
            ..MetricsMeta::default()
        };
        let json = CampaignMetrics::default().to_json(&meta);
        assert!(
            json.contains("\"target\":\"a\\\"b\\\\c\\nd\\u0001\""),
            "{json}"
        );
    }
}
