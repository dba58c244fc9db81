//! The parent↔child wire protocol: length-prefixed canonical JSON
//! frames.
//!
//! A fork-server child streams one frame per completed execution plus
//! a terminal `done` frame over its stdout pipe. Frames are
//! **length-prefixed** (`<decimal byte length>\n<payload>\n`) so the
//! parent can distinguish a cleanly terminated stream from one cut
//! mid-write by a dying child, and **canonical** — objects are emitted
//! in fixed field order by a hand-rolled emitter, exactly like the
//! campaign report JSON (the offline build has no serde).
//!
//! The `exec` frame is a *lossless* encoding of
//! [`c11tester::ExecutionReport`]: every field that feeds
//! [`c11tester::TestReport::absorb`] round-trips bit-for-bit, which is
//! what makes a fork-isolated campaign aggregate byte-identical to an
//! in-process one. The parent parses frames with the dependency-free
//! [`JsonValue`] reader from `c11tester_campaign::baseline`, and the
//! string tables (escaping, enum names) are shared with the canonical
//! report emitter via [`c11tester_campaign::wire`] so the two can
//! never drift apart.
//!
//! **Caveat**: frames travel on the child's **stdout**. The built-in
//! workloads never write to stdout (the model API has no output
//! surface), but a target that did would corrupt the framing; the
//! parent surfaces that as a protocol-violation error (bounded by
//! [`MAX_FRAME_LEN`]) rather than silently mis-aggregating.

use c11tester::{BehaviorStats, CoverageMap, ExecutionReport, Failure, RaceKey, RaceReport};
use c11tester_campaign::baseline::JsonValue;
use c11tester_campaign::wire::{
    access_kind_name, esc, parse_access_kind, parse_race_kind, race_kind_name,
};
use c11tester_campaign::StopReason;
use c11tester_core::{AllocStats, ExecStats, MoGraphPerfStats, MoGraphStats, ObjId, ThreadId};
use c11tester_telemetry::{PhaseProfile, PHASE_COUNT};
use std::io::{BufRead, Write};

/// Upper bound on a single frame's payload. Real exec frames are a
/// few KB; the cap keeps a corrupted length line (e.g. a target that
/// wrote to the shared stdout) from triggering a huge allocation in
/// the parent.
pub const MAX_FRAME_LEN: usize = 1 << 24;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame and flushes, so the parent sees
/// every completed execution even if the *next* one kills the child.
pub fn write_frame(out: &mut impl Write, payload: &str) -> std::io::Result<()> {
    write!(out, "{}\n{}\n", payload.len(), payload)?;
    out.flush()
}

/// Reads one frame. Returns `Ok(None)` on clean end-of-stream (the
/// child closed its pipe *between* frames); a stream cut mid-frame is
/// an error, which the pool treats like the crash it accompanies.
pub fn read_frame(input: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut len_line = String::new();
    if input.read_line(&mut len_line)? == 0 {
        return Ok(None);
    }
    let len: usize = len_line
        .trim_end()
        .parse()
        .map_err(|_| bad_data(format!("bad frame length line {len_line:?}")))?;
    if len > MAX_FRAME_LEN {
        return Err(bad_data(format!(
            "frame length {len} exceeds {MAX_FRAME_LEN}"
        )));
    }
    let mut payload = vec![0u8; len + 1]; // + trailing newline
    std::io::Read::read_exact(input, &mut payload)?;
    if payload.pop() != Some(b'\n') {
        return Err(bad_data("frame missing trailing newline".to_string()));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| bad_data("frame payload is not UTF-8".to_string()))
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------
// Frame payloads
// ---------------------------------------------------------------------

/// One decoded frame from a worker child.
#[derive(Clone, Debug)]
pub enum Frame {
    /// A completed execution's full report (boxed: a report is two
    /// orders of magnitude larger than the `done` variant).
    Exec(Box<ExecutionReport>),
    /// Per-batch diagnostic counters, sent once just before `done`
    /// when the batch ran with [`crate::WorkerSpec::emit_metrics`].
    Metrics(BatchMetrics),
    /// The batch's merged behavior-coverage map, sent once just before
    /// `done` when the batch ran with
    /// [`crate::WorkerSpec::collect_coverage`]. Batched rather than
    /// per-execution: [`CoverageMap::merge`] is order-independent, so
    /// shipping the child's fold cannot change the parent's aggregate.
    Coverage(CoverageMap),
    /// The batch finished; no further frames follow.
    Done(StopReason),
}

/// Per-batch diagnostic counters a worker child reports just before
/// its `done` frame. Both blocks are *diagnostic*: the parent folds
/// them into the aggregate's `alloc`/`phase` stats, which are excluded
/// from stats equality and from the default canonical JSON — so the
/// frame can never perturb the determinism contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchMetrics {
    /// Allocation counters accumulated over the batch (the child's
    /// recycled-vs-fresh provisioning, invisible to the parent before
    /// this frame existed — `c11campaign --alloc-stats --isolate`
    /// rides on it).
    pub alloc: AllocStats,
    /// Phase-timing profile accumulated over the batch. Empty unless
    /// the child ran with `--profile-phases`.
    pub phase: PhaseProfile,
    /// Mo-graph maintenance diagnostics accumulated over the batch
    /// (order-reorder/fast-path/compaction counters; like `alloc` and
    /// `phase`, excluded from stats equality and canonical JSON).
    pub graph: MoGraphPerfStats,
}

/// Encodes an `exec` frame payload.
pub fn exec_payload(report: &ExecutionReport) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\"frame\":\"exec\"");
    out.push_str(&format!(",\"execution\":{}", report.execution_index));
    out.push_str(&format!(",\"strategy\":\"{}\"", esc(&report.strategy)));
    out.push_str(",\"races\":[");
    for (i, r) in report.races.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            concat!(
                "{{\"label\":\"{}\",\"kind\":\"{}\",\"obj\":{},\"offset\":{},",
                "\"current_tid\":{},\"current_kind\":\"{}\",\"prior_tid\":{},",
                "\"prior_atomic\":{}}}"
            ),
            esc(&r.label),
            race_kind_name(r.kind),
            r.obj.0,
            r.offset,
            r.current_tid.index(),
            access_kind_name(r.current_kind),
            r.prior_tid.index(),
            r.prior_atomic,
        ));
    }
    out.push(']');
    match &report.failure {
        None => out.push_str(",\"failure\":null"),
        Some(f) => {
            let (message, events) = match f {
                Failure::Deadlock => (String::new(), String::from("null")),
                Failure::Panic(msg) => (esc(msg), String::from("null")),
                Failure::TooManyEvents(n) => (String::new(), n.to_string()),
                Failure::Infra(msg) => (esc(msg), String::from("null")),
            };
            out.push_str(&format!(
                ",\"failure\":{{\"kind\":\"{}\",\"message\":\"{message}\",\"events\":{events}}}",
                f.kind_name(),
            ));
        }
    }
    out.push_str(&format!(
        ",\"elided_volatile_races\":{}",
        report.elided_volatile_races
    ));
    let s = &report.stats;
    out.push_str(&format!(
        concat!(
            ",\"stats\":{{\"atomic_loads\":{},\"atomic_stores\":{},\"rmws\":{},",
            "\"fences\":{},\"sync_ops\":{},\"normal_accesses\":{},",
            "\"volatile_accesses\":{},\"candidates_rejected\":{},",
            "\"pruned_stores\":{},\"pruned_loads\":{},\"pruned_fences\":{},",
            "\"prune_passes\":{},",
            "\"mograph\":{{\"edges_added\":{},\"edges_redundant\":{},",
            "\"merges\":{},\"rmw_edges\":{}}}}}"
        ),
        s.atomic_loads,
        s.atomic_stores,
        s.rmws,
        s.fences,
        s.sync_ops,
        s.normal_accesses,
        s.volatile_accesses,
        s.candidates_rejected,
        s.pruned_stores,
        s.pruned_loads,
        s.pruned_fences,
        s.prune_passes,
        s.mograph.edges_added,
        s.mograph.edges_redundant,
        s.mograph.merges,
        s.mograph.rmw_edges,
    ));
    out.push('}');
    out
}

/// Encodes a `metrics` frame payload.
pub fn metrics_payload(m: &BatchMetrics) -> String {
    let (nanos, calls) = m.phase.raw();
    format!(
        concat!(
            "{{\"frame\":\"metrics\",",
            "\"alloc\":{{\"fresh_executions\":{},\"recycled_executions\":{},",
            "\"clock_spills\":{}}},",
            "\"phase\":{{\"nanos\":{},\"calls\":{}}},",
            "\"graph\":{{\"order_reorders\":{},\"reorder_nodes\":{},",
            "\"reach_fast_negative\":{},\"reach_cv_checks\":{},\"compactions\":{},",
            "\"compacted_nodes\":{},\"peak_live_nodes\":{}}}}}"
        ),
        m.alloc.fresh_executions,
        m.alloc.recycled_executions,
        m.alloc.clock_spills,
        u64_array(&nanos),
        u64_array(&calls),
        m.graph.order_reorders,
        m.graph.reorder_nodes,
        m.graph.reach_fast_negative,
        m.graph.reach_cv_checks,
        m.graph.compactions,
        m.graph.compacted_nodes,
        m.graph.peak_live_nodes,
    )
}

fn u64_array(xs: &[u64]) -> String {
    let items: Vec<String> = xs.iter().map(u64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// Encodes a `coverage` frame payload. Edge and interleaving behaviors
/// travel as flat number rows (`[key..., first_execution,
/// occurrences]`); iteration order is the map's `BTreeMap` order, so
/// the payload is byte-stable for a given map.
pub fn coverage_payload(map: &CoverageMap) -> String {
    let mut out = String::with_capacity(256);
    out.push_str("{\"frame\":\"coverage\"");
    out.push_str(&format!(
        ",\"collected_executions\":{}",
        map.collected_executions()
    ));
    out.push_str(",\"rf\":[");
    for (i, ((obj, from, to), s)) in map.rf_edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "[{obj},{from},{to},{},{}]",
            s.first_execution, s.occurrences
        ));
    }
    out.push_str("],\"mo\":[");
    for (i, ((obj, from, to), s)) in map.mo_edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "[{obj},{from},{to},{},{}]",
            s.first_execution, s.occurrences
        ));
    }
    out.push_str("],\"races\":[");
    for (i, (key, s)) in map.races().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"label\":\"{}\",\"kind\":\"{}\",\"first_execution\":{},\"occurrences\":{}}}",
            esc(&key.label),
            race_kind_name(key.kind),
            s.first_execution,
            s.occurrences,
        ));
    }
    out.push_str("],\"interleavings\":[");
    for (i, (hash, s)) in map.interleavings().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{hash},{},{}]", s.first_execution, s.occurrences));
    }
    out.push_str("]}");
    out
}

fn coverage_rows<'a>(
    doc: &'a JsonValue,
    key: &str,
    width: usize,
) -> Result<Vec<&'a [JsonValue]>, String> {
    let mut rows = Vec::new();
    for row in doc
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or(format!("missing `{key}` array"))?
    {
        let cells = row.as_array().ok_or(format!("non-array row in `{key}`"))?;
        if cells.len() != width {
            return Err(format!(
                "`{key}` row has {} cells, expected {width}",
                cells.len()
            ));
        }
        rows.push(cells);
    }
    Ok(rows)
}

fn row_u64(cells: &[JsonValue], i: usize, key: &str) -> Result<u64, String> {
    cells[i]
        .as_u64()
        .ok_or(format!("non-integer cell in `{key}`"))
}

fn parse_coverage(doc: &JsonValue) -> Result<CoverageMap, String> {
    let mut map = CoverageMap::new();
    map.add_collected_executions(u64_field(doc, "collected_executions")?);
    for cells in coverage_rows(doc, "rf", 5)? {
        map.absorb_rf_edge(
            (
                row_u64(cells, 0, "rf")?,
                row_u64(cells, 1, "rf")?,
                row_u64(cells, 2, "rf")?,
            ),
            BehaviorStats {
                first_execution: row_u64(cells, 3, "rf")?,
                occurrences: row_u64(cells, 4, "rf")?,
            },
        );
    }
    for cells in coverage_rows(doc, "mo", 5)? {
        map.absorb_mo_edge(
            (
                row_u64(cells, 0, "mo")?,
                row_u64(cells, 1, "mo")?,
                row_u64(cells, 2, "mo")?,
            ),
            BehaviorStats {
                first_execution: row_u64(cells, 3, "mo")?,
                occurrences: row_u64(cells, 4, "mo")?,
            },
        );
    }
    for row in doc
        .get("races")
        .and_then(JsonValue::as_array)
        .ok_or("missing `races` array")?
    {
        map.absorb_race(
            RaceKey {
                label: str_field(row, "label")?.to_string(),
                kind: parse_race_kind(str_field(row, "kind")?)?,
            },
            BehaviorStats {
                first_execution: u64_field(row, "first_execution")?,
                occurrences: u64_field(row, "occurrences")?,
            },
        );
    }
    for cells in coverage_rows(doc, "interleavings", 3)? {
        map.absorb_interleaving(
            row_u64(cells, 0, "interleavings")?,
            BehaviorStats {
                first_execution: row_u64(cells, 1, "interleavings")?,
                occurrences: row_u64(cells, 2, "interleavings")?,
            },
        );
    }
    Ok(map)
}

/// Encodes a `done` frame payload.
pub fn done_payload(stop_reason: StopReason) -> String {
    format!(
        "{{\"frame\":\"done\",\"stop_reason\":\"{}\"}}",
        stop_reason.name()
    )
}

fn parse_stop_reason(name: &str) -> Result<StopReason, String> {
    match name {
        "budget-exhausted" => Ok(StopReason::BudgetExhausted),
        "first-bug" => Ok(StopReason::FirstBug),
        "deadline" => Ok(StopReason::Deadline),
        other => Err(format!("unknown stop reason `{other}`")),
    }
}

fn str_field<'a>(doc: &'a JsonValue, key: &str) -> Result<&'a str, String> {
    doc.get(key)
        .and_then(JsonValue::as_str)
        .ok_or(format!("missing string `{key}`"))
}

fn u64_field(doc: &JsonValue, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or(format!("missing number `{key}`"))
}

fn bool_field(doc: &JsonValue, key: &str) -> Result<bool, String> {
    match doc.get(key) {
        Some(JsonValue::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool `{key}`")),
    }
}

fn phase_array_field(doc: &JsonValue, key: &str) -> Result<[u64; PHASE_COUNT], String> {
    let arr = doc
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or(format!("missing array `{key}`"))?;
    if arr.len() != PHASE_COUNT {
        return Err(format!(
            "`{key}` has {} entries, expected {PHASE_COUNT}",
            arr.len()
        ));
    }
    let mut out = [0u64; PHASE_COUNT];
    for (slot, v) in out.iter_mut().zip(arr) {
        *slot = v.as_u64().ok_or(format!("non-integer entry in `{key}`"))?;
    }
    Ok(out)
}

fn parse_stats(doc: &JsonValue) -> Result<ExecStats, String> {
    let mg = doc.get("mograph").ok_or("missing `mograph`")?;
    Ok(ExecStats {
        atomic_loads: u64_field(doc, "atomic_loads")?,
        atomic_stores: u64_field(doc, "atomic_stores")?,
        rmws: u64_field(doc, "rmws")?,
        fences: u64_field(doc, "fences")?,
        sync_ops: u64_field(doc, "sync_ops")?,
        normal_accesses: u64_field(doc, "normal_accesses")?,
        volatile_accesses: u64_field(doc, "volatile_accesses")?,
        candidates_rejected: u64_field(doc, "candidates_rejected")?,
        pruned_stores: u64_field(doc, "pruned_stores")?,
        pruned_loads: u64_field(doc, "pruned_loads")?,
        pruned_fences: u64_field(doc, "pruned_fences")?,
        prune_passes: u64_field(doc, "prune_passes")?,
        mograph: MoGraphStats {
            edges_added: u64_field(mg, "edges_added")?,
            edges_redundant: u64_field(mg, "edges_redundant")?,
            merges: u64_field(mg, "merges")?,
            rmw_edges: u64_field(mg, "rmw_edges")?,
        },
        // Alloc, phase, and graph diagnostics are not carried per
        // execution: they travel batched in the `metrics` frame (all
        // are excluded from stats equality and default canonical JSON).
        mograph_perf: Default::default(),
        alloc: Default::default(),
        phase: Default::default(),
    })
}

fn parse_failure(doc: &JsonValue) -> Result<Option<Failure>, String> {
    let failure = doc.get("failure").ok_or("missing `failure`")?;
    if *failure == JsonValue::Null {
        return Ok(None);
    }
    let kind = str_field(failure, "kind")?;
    Ok(Some(match kind {
        "deadlock" => Failure::Deadlock,
        "panic" => Failure::Panic(str_field(failure, "message")?.to_string()),
        "too-many-events" => Failure::TooManyEvents(u64_field(failure, "events")?),
        "infra" => Failure::Infra(str_field(failure, "message")?.to_string()),
        other => return Err(format!("unknown failure kind `{other}`")),
    }))
}

/// Decodes one frame payload.
pub fn parse_frame(payload: &str) -> Result<Frame, String> {
    let doc = JsonValue::parse(payload).map_err(|e| format!("invalid frame JSON: {e}"))?;
    match str_field(&doc, "frame")? {
        "done" => Ok(Frame::Done(parse_stop_reason(str_field(
            &doc,
            "stop_reason",
        )?)?)),
        "coverage" => Ok(Frame::Coverage(parse_coverage(&doc)?)),
        "metrics" => {
            let alloc = doc.get("alloc").ok_or("missing `alloc`")?;
            let phase = doc.get("phase").ok_or("missing `phase`")?;
            let graph = doc.get("graph").ok_or("missing `graph`")?;
            Ok(Frame::Metrics(BatchMetrics {
                alloc: AllocStats {
                    fresh_executions: u64_field(alloc, "fresh_executions")?,
                    recycled_executions: u64_field(alloc, "recycled_executions")?,
                    clock_spills: u64_field(alloc, "clock_spills")?,
                },
                phase: PhaseProfile::from_raw(
                    phase_array_field(phase, "nanos")?,
                    phase_array_field(phase, "calls")?,
                ),
                graph: MoGraphPerfStats {
                    order_reorders: u64_field(graph, "order_reorders")?,
                    reorder_nodes: u64_field(graph, "reorder_nodes")?,
                    reach_fast_negative: u64_field(graph, "reach_fast_negative")?,
                    reach_cv_checks: u64_field(graph, "reach_cv_checks")?,
                    compactions: u64_field(graph, "compactions")?,
                    compacted_nodes: u64_field(graph, "compacted_nodes")?,
                    peak_live_nodes: u64_field(graph, "peak_live_nodes")?,
                },
            }))
        }
        "exec" => {
            let mut races = Vec::new();
            for row in doc
                .get("races")
                .and_then(JsonValue::as_array)
                .ok_or("missing `races` array")?
            {
                races.push(RaceReport {
                    label: str_field(row, "label")?.to_string(),
                    obj: ObjId(u64_field(row, "obj")?),
                    offset: u64_field(row, "offset")? as u32,
                    kind: parse_race_kind(str_field(row, "kind")?)?,
                    current_tid: ThreadId::from_index(u64_field(row, "current_tid")? as usize),
                    current_kind: parse_access_kind(str_field(row, "current_kind")?)?,
                    prior_tid: ThreadId::from_index(u64_field(row, "prior_tid")? as usize),
                    prior_atomic: bool_field(row, "prior_atomic")?,
                });
            }
            Ok(Frame::Exec(Box::new(ExecutionReport {
                execution_index: u64_field(&doc, "execution")?,
                strategy: str_field(&doc, "strategy")?.into(),
                races,
                failure: parse_failure(&doc)?,
                stats: parse_stats(doc.get("stats").ok_or("missing `stats`")?)?,
                elided_volatile_races: u64_field(&doc, "elided_volatile_races")?,
                // Coverage is not carried per execution: the child folds
                // its executions' signatures locally and ships one
                // batched `coverage` frame (mergeable, so batching
                // cannot change the aggregate).
                coverage: Default::default(),
            })))
        }
        other => Err(format!("unknown frame type `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11tester::{Config, Model, TestReport};

    #[test]
    fn framing_round_trips_and_detects_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").expect("write");
        write_frame(&mut buf, "x").expect("write");
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).expect("frame"), Some("{\"a\":1}".into()));
        assert_eq!(read_frame(&mut r).expect("frame"), Some("x".into()));
        assert_eq!(read_frame(&mut r).expect("eof"), None);
        // A stream cut mid-frame errors instead of returning a frame.
        let cut = &buf[..buf.len() - 3];
        let mut r = std::io::BufReader::new(cut);
        assert!(read_frame(&mut r).is_ok());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn exec_frames_round_trip_real_reports_losslessly() {
        // Run real executions (some racy) and require the decoded
        // report to absorb identically to the original — the exact
        // property fork-isolated byte-identity rests on.
        let _gate = crate::coverage_gate_lock();
        let mut model = Model::new(Config::new().with_seed(0xF0));
        let mut direct = TestReport::default();
        let mut wired = TestReport::default();
        for _ in 0..10 {
            let report = model.run(|| {
                c11tester_workloads::ds::rwlock_buggy::run_buggy();
            });
            let payload = exec_payload(&report);
            let Frame::Exec(decoded) = parse_frame(&payload).expect("parses") else {
                panic!("exec frame decoded as done");
            };
            assert_eq!(decoded.execution_index, report.execution_index);
            assert_eq!(decoded.strategy, report.strategy);
            assert_eq!(decoded.races, report.races);
            assert_eq!(decoded.failure, report.failure);
            assert_eq!(decoded.stats, report.stats);
            direct.absorb(&report);
            wired.absorb(&decoded);
        }
        assert_eq!(direct, wired);
        assert!(direct.executions_with_race > 0, "workload should race");
    }

    #[test]
    fn failure_variants_round_trip() {
        for failure in [
            Failure::Deadlock,
            Failure::Panic("assert \"x\" failed\n".to_string()),
            Failure::TooManyEvents(12345),
        ] {
            let report = ExecutionReport {
                execution_index: 9,
                strategy: "pct2".into(),
                races: Vec::new(),
                failure: Some(failure.clone()),
                stats: Default::default(),
                elided_volatile_races: 2,
                coverage: Default::default(),
            };
            let Frame::Exec(decoded) = parse_frame(&exec_payload(&report)).expect("parses") else {
                panic!("wrong frame type");
            };
            assert_eq!(decoded.failure, Some(failure));
            assert_eq!(decoded.elided_volatile_races, 2);
        }
    }

    #[test]
    fn coverage_frames_round_trip() {
        use c11tester::{AccessKind, RaceKind};
        use c11tester_core::ExecCoverage;

        let mut sig = ExecCoverage::collecting();
        sig.record_rf(3, 0, 1);
        sig.record_rf(3, 1, 0);
        sig.record_mo(3, 0, 1);
        sig.record_switch(17, 1);
        sig.record_switch(29, 0);
        let race = RaceReport {
            label: "flag \"x\"".to_string(),
            obj: c11tester_core::ObjId(3),
            offset: 0,
            kind: RaceKind::ReadAfterWrite,
            current_tid: ThreadId::from_index(1),
            current_kind: AccessKind::NonAtomic,
            prior_tid: ThreadId::from_index(0),
            prior_atomic: false,
        };
        let mut map = CoverageMap::new();
        map.record(4, &sig, std::slice::from_ref(&race));
        map.record(9, &sig, &[race]);
        // Hashes use the full u64 range; make sure a top-bit-set value
        // survives the wire as a plain JSON number.
        let mut wide = ExecCoverage::collecting();
        wide.record_switch(u64::MAX, u64::MAX - 1);
        map.record(11, &wide, &[]);

        let payload = coverage_payload(&map);
        let Frame::Coverage(decoded) = parse_frame(&payload).expect("parses") else {
            panic!("wrong frame type");
        };
        assert_eq!(decoded, map);
        // Re-encoding the decoded map is byte-identical (stable order).
        assert_eq!(coverage_payload(&decoded), payload);
        // An empty map round-trips too (coverage-enabled raceless batch).
        let empty = CoverageMap::new();
        let Frame::Coverage(decoded) = parse_frame(&coverage_payload(&empty)).expect("parses")
        else {
            panic!("wrong frame type");
        };
        assert_eq!(decoded, empty);
    }

    #[test]
    fn metrics_frames_round_trip() {
        use c11tester_core::AllocStats;
        use c11tester_telemetry::Phase;
        let mut m = BatchMetrics {
            alloc: AllocStats {
                fresh_executions: 1,
                recycled_executions: 63,
                clock_spills: 5,
            },
            phase: PhaseProfile::default(),
            graph: MoGraphPerfStats {
                order_reorders: 3,
                reorder_nodes: 11,
                reach_fast_negative: 5_000,
                reach_cv_checks: 700,
                compactions: 2,
                compacted_nodes: 96,
                peak_live_nodes: 128,
            },
        };
        m.phase.record(Phase::Scheduling, 123_456);
        m.phase.record(Phase::Prune, 42);
        let Frame::Metrics(decoded) = parse_frame(&metrics_payload(&m)).expect("parses") else {
            panic!("wrong frame type");
        };
        assert_eq!(decoded, m);
        // An empty profile round-trips too (profiling disabled child).
        let empty = BatchMetrics::default();
        let Frame::Metrics(decoded) = parse_frame(&metrics_payload(&empty)).expect("parses") else {
            panic!("wrong frame type");
        };
        assert_eq!(decoded, empty);
    }

    #[test]
    fn done_frames_round_trip_every_stop_reason() {
        for reason in [
            StopReason::BudgetExhausted,
            StopReason::FirstBug,
            StopReason::Deadline,
        ] {
            let Frame::Done(decoded) = parse_frame(&done_payload(reason)).expect("parses") else {
                panic!("wrong frame type");
            };
            assert_eq!(decoded, reason);
        }
        assert!(parse_frame("{\"frame\":\"nope\"}").is_err());
        assert!(parse_frame("not json").is_err());
    }
}
