//! The benchmark's vocabulary: every metric name, its unit, and — for
//! end-to-end metrics — the direction and the regression bound. Later
//! issues claim gains by these names; `BENCHMARK.json` lists the same
//! names (a unit test keeps the two in step).

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
    /// Any change is a behaviour change (exact for a fixed seed).
    Exact,
}

impl Better {
    /// Name used in JSON output (`BENCHMARK.json` knows only the first two).
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
            Better::Exact => "exact",
        }
    }
}

/// An end-to-end metric: something a user of the product sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Listed under `end_to_end` in `BENCHMARK.json` and printed on the
    /// `--trace 0` result line. A driver metric must keep the
    /// interquartile range of ten runs *on ten different seeds* within
    /// its bound (at most 0.25) and must never be 0. That rules out the
    /// two metrics that are (and must stay) zero on healthy workloads —
    /// reported through `attempted`/`failed` instead — and
    /// `exec_p99_us`, whose seed-to-seed spread on the millisecond-scale
    /// workloads reaches 0.45 whenever a noisy phase of the host falls
    /// on two of the ten runs. All three are still measured, printed and
    /// judged by `c11perf run`/`compare`.
    pub driver: bool,
}

/// End-to-end metrics, reported per workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "execs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        driver: true,
    },
    EndToEnd {
        name: "exec_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.20,
        driver: true,
    },
    EndToEnd {
        name: "exec_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        driver: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        driver: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        driver: true,
    },
    EndToEnd {
        name: "bug_detection_rate",
        unit: "share",
        better: Better::Exact,
        bound: 0.0,
        driver: false,
    },
    EndToEnd {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        bound: 0.0,
        driver: false,
    },
];

/// Looks an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// Per-layer metrics as `(name, unit)`, in reporting order. Names are
/// `<crate>.<metric>`. The driver's `--trace 1` result line carries every
/// one of them on every workload; a metric whose layer the workload does
/// not exercise reads 0 there and is omitted from `c11perf run` reports.
pub const PER_LAYER: [(&str, &str); 60] = [
    // Kernels: ns/op medians around public functions of one crate.
    ("core.clock_union_ns", "ns"),
    ("core.clock_union_spilled_ns", "ns"),
    ("core.clock_leq_ns", "ns"),
    ("core.read_candidates_ns", "ns"),
    ("core.load_commit_ns", "ns"),
    ("core.rmw_commit_ns", "ns"),
    ("core.mograph_reaches_fast_ns", "ns"),
    ("core.mograph_reaches_cv_ns", "ns"),
    ("core.store_commit_ns", "ns"),
    ("core.mograph_add_edge_inorder_ns", "ns"),
    ("core.mograph_add_edge_reorder_ns", "ns"),
    ("core.prune_pass_ns", "ns"),
    ("core.compact_ns", "ns"),
    ("core.exec_reset_ns", "ns"),
    ("runtime.fiber_switch_ns", "ns"),
    ("runtime.park_switch_ns", "ns"),
    ("runtime.spawn_join_ns", "ns"),
    ("runtime.sched_random_next_ns", "ns"),
    ("runtime.sched_pct_next_ns", "ns"),
    ("c11tester.empty_exec_ns", "ns"),
    ("c11tester.two_thread_exec_ns", "ns"),
    ("c11tester.atomic_op_ns", "ns"),
    ("race.read_check_ns", "ns"),
    ("race.write_check_ns", "ns"),
    ("race.report_ns", "ns"),
    ("race.begin_execution_ns", "ns"),
    ("race.dedup_record_ns", "ns"),
    ("race.dedup_merge_ns", "ns"),
    ("campaign.absorb_ns", "ns"),
    ("campaign.canonical_json_ns", "ns"),
    ("isolation.exec_encode_ns", "ns"),
    ("isolation.frame_decode_ns", "ns"),
    ("isolation.frame_bytes", "bytes"),
    ("isolation.child_spawn_us", "us"),
    ("genprog.generate_ns", "ns"),
    ("genprog.oracle_check_ns", "ns"),
    ("telemetry.disabled_phase_ns", "ns"),
    // Workload-level layer shares (ratios of whole-trial rates).
    ("campaign.overhead_share", "share"),
    ("campaign.scaling_2w", "ratio"),
    ("isolation.overhead_share", "share"),
    ("telemetry.profiling_overhead_share", "share"),
    // Traced pass: where the execution span's time went.
    ("runtime.scheduling_share", "share"),
    ("core.read_from_share", "share"),
    ("core.mo_graph_share", "share"),
    ("core.prune_share", "share"),
    ("race.detect_share", "share"),
    ("unattributed_share", "share"),
    // Exact counts: repeat bit-for-bit for a fixed (workload, seed).
    ("workloads.atomic_ops_per_exec", "count"),
    ("workloads.normal_accesses_per_exec", "count"),
    ("core.candidates_rejected_per_exec", "count"),
    ("core.reach_cv_checks_per_exec", "count"),
    ("core.reach_fast_negative_per_exec", "count"),
    ("core.order_reorders_per_exec", "count"),
    ("core.reorder_nodes_per_reorder", "count"),
    ("core.compactions_per_exec", "count"),
    ("core.peak_live_nodes", "count"),
    ("race.checks_per_exec", "count"),
    ("race.distinct_races", "count"),
    ("campaign.bug_detection_rate", "share"),
    ("campaign.failed_share", "share"),
];

/// Names of the exact counts (the tail of [`PER_LAYER`]) — the per-layer
/// metrics `compare` requires to be identical between two runs of one
/// commit.
pub fn is_exact_count(name: &str) -> bool {
    PER_LAYER
        .iter()
        .skip_while(|(n, _)| *n != "workloads.atomic_ops_per_exec")
        .any(|(n, _)| *n == name)
}

/// Unit of a per-layer metric.
pub fn per_layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use c11tester_campaign::baseline::JsonValue;

    fn names(doc: &JsonValue, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` array"))
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(JsonValue::as_str)
                    .expect("entry has a name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` is the contract the driver reads; the tables
    /// above are what the binary prints. They must not drift apart.
    #[test]
    fn benchmark_json_lists_exactly_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        let e2e: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.driver)
            .map(|m| m.name)
            .collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        for entry in doc.get("end_to_end").and_then(JsonValue::as_array).unwrap() {
            let name = entry.get("name").and_then(JsonValue::as_str).unwrap();
            let m = end_to_end(name).unwrap();
            assert_eq!(entry.get("unit").and_then(JsonValue::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(JsonValue::as_str),
                Some(m.better.name())
            );
            assert_eq!(
                entry.get("bound").and_then(JsonValue::as_f64),
                Some(m.bound)
            );
        }
        for entry in doc.get("per_layer").and_then(JsonValue::as_array).unwrap() {
            let name = entry.get("name").and_then(JsonValue::as_str).unwrap();
            assert_eq!(
                entry.get("unit").and_then(JsonValue::as_str),
                per_layer_unit(name)
            );
        }
        assert_eq!(
            doc.get("paths")
                .and_then(JsonValue::as_array)
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn names_are_unique_and_within_contract_limits() {
        let mut all: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(before, all.len(), "duplicate metric name");
        assert!(PER_LAYER.len() <= 128);
        for name in all {
            assert!(name.len() <= 64);
            assert!(name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(is_exact_count("core.peak_live_nodes"));
        assert!(!is_exact_count("core.clock_leq_ns"));
    }
}
