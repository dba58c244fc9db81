//! The parent↔child wire protocol: length-prefixed JSON frames.
//!
//! A fork-server child streams one frame per completed execution plus
//! a terminal `done` frame over its stdout pipe. Frames are
//! **length-prefixed** (`<decimal byte length>\n<payload>\n`) so the
//! parent can distinguish a cleanly terminated stream from one cut
//! mid-write by a dying child.
//!
//! The `exec` frame is a *lossless* encoding of
//! [`c11tester::ExecutionReport`]: every field that feeds
//! [`c11tester::TestReport::absorb`] round-trips bit-for-bit, which is
//! what makes a fork-isolated campaign aggregate byte-identical to an
//! in-process one. A frame carries each report type in the shape the
//! documents use, written and read by that type's one pair of functions
//! (races, stats, allocation counters and coverage in
//! [`c11tester_campaign::json`]; graph counters and the phase profile
//! in `c11tester_telemetry`), so the wire and the reports cannot drift
//! apart. Decoders ignore the derived fields those shapes carry
//! (`atomic_ops`, `distinct`, `total_nanos`). The one wire-only
//! encoding is a [`Failure`]'s: the document row is lossy
//! (`"N events"`), the frame must not be.
//!
//! **Caveat**: frames travel on the child's **stdout**. The built-in
//! workloads never write to stdout (the model API has no output
//! surface), but a target that did would corrupt the framing; the
//! parent surfaces that as a protocol-violation error (bounded by
//! [`MAX_FRAME_LEN`] and the reader's nesting cap) rather than silently
//! mis-aggregating or crashing.

use c11tester::{CoverageMap, ExecutionReport, Failure};
use c11tester_campaign::json;
use c11tester_campaign::StopReason;
use c11tester_core::AllocStats;
use c11tester_telemetry::json::{JsonValue, JsonWriter};
use c11tester_telemetry::{
    read_graph, read_phase, write_graph, write_phase, GraphMetrics, PhaseProfile,
};
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
    pub graph: GraphMetrics,
}

/// Encodes an `exec` frame payload.
pub fn exec_payload(report: &ExecutionReport) -> String {
    let mut w = JsonWriter::with_capacity(512);
    w.object(|w| {
        w.key("frame").str("exec");
        w.key("execution").u64(report.execution_index);
        w.key("strategy").str(&report.strategy);
        w.key("races").array(|w| {
            for r in &report.races {
                w.object(|w| json::write_race(w, r));
            }
        });
        write_failure(w.key("failure"), report.failure.as_ref());
        w.key("elided_volatile_races")
            .u64(report.elided_volatile_races);
        json::write_stats(w.key("stats"), &report.stats, false);
    });
    w.finish()
}

/// The lossless wire encoding of a failure: `null`, or its kind with a
/// `message` (empty for kinds without text) and `events` (`null`
/// except for `too-many-events`).
fn write_failure(w: &mut JsonWriter, failure: Option<&Failure>) {
    let Some(f) = failure else {
        return w.null();
    };
    w.object(|w| {
        w.key("kind").str(f.kind_name());
        match f {
            Failure::Panic(msg) | Failure::Infra(msg) => w.key("message").str(msg),
            Failure::Deadlock | Failure::TooManyEvents(_) => w.key("message").str(""),
        }
        match f {
            Failure::TooManyEvents(n) => w.key("events").u64(*n),
            _ => w.key("events").null(),
        }
    });
}

/// Inverse of [`write_failure`].
fn read_failure(v: &JsonValue) -> Result<Option<Failure>, String> {
    if *v == JsonValue::Null {
        return Ok(None);
    }
    let events = v.get("events").and_then(JsonValue::as_u64);
    Failure::from_kind(v.str_field("kind")?, v.str_field("message")?, events).map(Some)
}

/// Encodes a `metrics` frame payload.
pub fn metrics_payload(m: &BatchMetrics) -> String {
    let mut w = JsonWriter::with_capacity(512);
    w.object(|w| {
        w.key("frame").str("metrics");
        json::write_alloc(w.key("alloc"), &m.alloc);
        write_phase(w.key("phase"), &m.phase);
        write_graph(w.key("graph"), &m.graph);
    });
    w.finish()
}

/// Encodes a `coverage` frame payload: the map's `c11coverage/v1`
/// fields, in the map's `BTreeMap` order, so the payload is
/// byte-stable for a given map.
pub fn coverage_payload(map: &CoverageMap) -> String {
    let mut w = JsonWriter::with_capacity(1024);
    w.object(|w| {
        w.key("frame").str("coverage");
        json::write_coverage(w, map);
    });
    w.finish()
}

/// Encodes a `done` frame payload.
pub fn done_payload(stop_reason: StopReason) -> String {
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("frame").str("done");
        w.key("stop_reason").str(stop_reason.name());
    });
    w.finish()
}

/// Decodes one frame payload.
pub fn parse_frame(payload: &str) -> Result<Frame, String> {
    let doc = JsonValue::parse(payload).map_err(|e| format!("invalid frame JSON: {e}"))?;
    match doc.str_field("frame")? {
        "done" => Ok(Frame::Done(StopReason::parse(
            doc.str_field("stop_reason")?,
        )?)),
        "coverage" => Ok(Frame::Coverage(json::read_coverage(&doc)?)),
        "metrics" => Ok(Frame::Metrics(BatchMetrics {
            alloc: json::read_alloc(doc.field("alloc")?)?,
            phase: read_phase(doc.field("phase")?)?,
            graph: read_graph(doc.field("graph")?)?,
        })),
        "exec" => Ok(Frame::Exec(Box::new(ExecutionReport {
            execution_index: doc.u64_field("execution")?,
            strategy: doc.str_field("strategy")?.into(),
            races: doc
                .array_field("races")?
                .iter()
                .map(json::read_race)
                .collect::<Result<_, _>>()?,
            failure: read_failure(doc.field("failure")?)?,
            stats: json::read_stats(doc.field("stats")?)?,
            elided_volatile_races: doc.u64_field("elided_volatile_races")?,
            // Coverage is not carried per execution: the child folds
            // its executions' signatures locally and ships one
            // batched `coverage` frame (mergeable, so batching
            // cannot change the aggregate).
            coverage: Default::default(),
        }))),
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
            Failure::Infra("spawn failed\r\t\u{1}é".to_string()),
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
        use c11tester::{AccessKind, RaceKind, RaceReport, ThreadId};
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
            graph: GraphMetrics {
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

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // A target that prints to stdout can put anything in a frame;
        // the reader's nesting cap turns a megabyte of `[` into an
        // error instead of recursing off the parent's stack.
        let err = parse_frame(&"[".repeat(1 << 20)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}
