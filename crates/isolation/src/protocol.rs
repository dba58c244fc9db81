//! The parent↔child wire protocol: batch requests on the child's stdin,
//! length-prefixed frames on its stdout.
//!
//! A fork-server child serves one pool worker for a whole campaign
//! range. The parent writes one [`Request`] line per batch and closes
//! the child's stdin when its work is done. For each request the child
//! writes
//!
//! * one **tick** per completed execution: the empty frame `0\n\n`,
//!   flushed, so the parent knows how far the child got if the next
//!   execution kills it;
//! * one **batch** frame: the batch's merged [`TestReport`], folded in
//!   the child with the in-process workers' fold
//!   ([`c11tester_campaign::pool::fold_claims`]);
//! * one **done** frame carrying the batch's [`StopReason`].
//!
//! Frames are **length-prefixed** (`<decimal byte length>
//! <digest>\n<payload>\n`) so the parent can tell a stream that ended
//! between frames from one cut mid-write by a dying child. The digest
//! is the payload's FNV-1a-64 in 16 hex digits, so a frame damaged at
//! equal length is a protocol violation instead of a silently merged
//! report. Ticks are empty and carry none.
//!
//! The `batch` frame is a *lossless* encoding of [`TestReport`]: merging
//! the decoded report is indistinguishable from merging the original,
//! which is what makes a fork-isolated campaign aggregate byte-identical
//! to an in-process one. Each part is written and read by its type's
//! one pair of functions — dedup entries, shapes, per-strategy rows,
//! stats with their `alloc` block and coverage in
//! [`c11tester_campaign::json`]; the phase profile and graph counters in
//! `c11tester_telemetry` — so the wire and the documents cannot drift
//! apart. The frame appends what a document row drops: each dedup
//! entry's shapes, each per-strategy row's own history. Decoders ignore
//! the derived fields those shapes carry (rates, counts, `atomic_ops`,
//! `distinct`, `total_nanos`). The
//! one wire-only encoding is a [`Failure`]'s: the document row is lossy
//! (`"N events"`), the frame must not be.
//!
//! **Caveat**: frames travel on the child's **stdout**. The built-in
//! workloads never write to stdout (the model API has no output
//! surface), but a target that did would corrupt the framing; the
//! parent surfaces that as a protocol-violation error (bounded by
//! [`MAX_FRAME_LEN`], the length line's 37 bytes and the reader's
//! nesting cap) rather than silently mis-aggregating or crashing.

use c11tester::{DedupHistory, ExecStats, ExecutionReport, Failure, StrategyLedger, TestReport};
use c11tester_campaign::json;
use c11tester_campaign::StopReason;
use c11tester_telemetry::json::{JsonValue, JsonWriter};
use c11tester_telemetry::{fnv1a, read_graph, read_phase, write_graph, write_phase};
use std::io::{BufRead, Read, Write};
use std::time::Duration;

/// Upper bound on a single frame's payload. Real batch frames are a few
/// KB; the cap keeps a corrupted length line (e.g. a target that wrote
/// to the shared stdout) from triggering a huge allocation in the
/// parent.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Longest length line the reader accepts: the 20 digits of `u64::MAX`,
/// a space, the 16-digit digest and the newline.
const MAX_LEN_LINE: usize = 38;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame and flushes, so the parent sees
/// every completed execution even if the *next* one kills the child.
pub fn write_frame(out: &mut impl Write, payload: &str) -> std::io::Result<()> {
    if payload.is_empty() {
        out.write_all(b"0\n\n")?;
    } else {
        let digest = fnv1a(payload.as_bytes());
        write!(out, "{} {digest:016x}\n{payload}\n", payload.len())?;
    }
    out.flush()
}

/// Reads one frame. Returns `Ok(None)` on clean end-of-stream (the
/// child closed its pipe *between* frames). A stream cut mid-frame is an
/// [`UnexpectedEof`](std::io::ErrorKind::UnexpectedEof) error, which the
/// pool treats like the death it accompanies; any other error
/// (`InvalidData`: a bad or overlong length line, an oversized frame,
/// a digest mismatch, non-UTF-8) is a protocol violation by a live
/// child. At most 38 bytes of a length line are read or quoted.
pub fn read_frame(input: &mut impl BufRead) -> std::io::Result<Option<String>> {
    let mut len_line = Vec::with_capacity(MAX_LEN_LINE);
    (&mut *input)
        .take(MAX_LEN_LINE as u64)
        .read_until(b'\n', &mut len_line)?;
    match len_line.last() {
        None => return Ok(None),
        Some(b'\n') => {
            len_line.pop();
        }
        Some(_) if len_line.len() < MAX_LEN_LINE => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "stream cut inside a frame length line",
            ));
        }
        Some(_) => {
            return Err(bad_data(format!(
                "frame length line longer than {} bytes: {:?}…",
                MAX_LEN_LINE - 1,
                String::from_utf8_lossy(&len_line)
            )));
        }
    }
    let (len, digest) = parse_len_line(&len_line)?;
    let mut payload = vec![0u8; len + 1]; // + trailing newline
    input.read_exact(&mut payload)?;
    if payload.pop() != Some(b'\n') {
        return Err(bad_data("frame missing trailing newline".to_string()));
    }
    if let Some(digest) = digest.filter(|&d| d != fnv1a(&payload)) {
        return Err(bad_data(format!(
            "frame digest {digest:016x} does not match its {len}-byte payload"
        )));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| bad_data("frame payload is not UTF-8".to_string()))
}

/// Parses a length line: `0` for a tick, `<len> <16 hex digits>` for
/// any other frame.
fn parse_len_line(line: &[u8]) -> std::io::Result<(usize, Option<u64>)> {
    let bad = || {
        bad_data(format!(
            "bad frame length line {:?}",
            String::from_utf8_lossy(line)
        ))
    };
    let text = std::str::from_utf8(line).map_err(|_| bad())?;
    let (len, digest) = match text.split_once(' ') {
        Some((len, digest)) => (len, Some(digest)),
        None => (text, None),
    };
    let len: usize = len.parse().map_err(|_| bad())?;
    if len > MAX_FRAME_LEN {
        return Err(bad_data(format!(
            "frame length {len} exceeds {MAX_FRAME_LEN}"
        )));
    }
    // A tick has no digest; every other frame has 16 hex digits of one.
    match (len, digest) {
        (0, None) => Ok((0, None)),
        (1.., Some(d)) if d.len() == 16 => {
            let digest = u64::from_str_radix(d, 16).map_err(|_| bad())?;
            Ok((len, Some(digest)))
        }
        _ => Err(bad()),
    }
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

// ---------------------------------------------------------------------
// Requests (parent → child)
// ---------------------------------------------------------------------

/// One batch request: run the executions at global indices `[first,
/// first + count)`, stopping between executions once `time_left` (the
/// time to the campaign deadline when the request was sent; `None`: no
/// deadline) has passed. On the wire it is one line, `<first> <count>
/// <milliseconds left | ->`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// First global execution index of the batch.
    pub first: u64,
    /// Executions in the batch.
    pub count: u64,
    /// Time left before the campaign deadline.
    pub time_left: Option<Duration>,
}

impl Request {
    /// The request line, newline included.
    pub fn line(&self) -> String {
        match self.time_left {
            Some(t) => format!("{} {} {}\n", self.first, self.count, t.as_millis()),
            None => format!("{} {} -\n", self.first, self.count),
        }
    }

    /// Inverse of [`Request::line`] (surrounding whitespace ignored).
    pub fn parse(line: &str) -> Result<Request, String> {
        let number = |s: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("bad request `{}`: `{s}` is not a number", line.trim()))
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [first, count, time_left] = fields[..] else {
            return Err(format!(
                "bad request `{}`: want `<first> <count> <ms left | ->`",
                line.trim()
            ));
        };
        Ok(Request {
            first: number(first)?,
            count: number(count)?,
            time_left: match time_left {
                "-" => None,
                ms => Some(Duration::from_millis(number(ms)?)),
            },
        })
    }
}

// ---------------------------------------------------------------------
// Frame payloads (child → parent)
// ---------------------------------------------------------------------

/// One decoded frame from a worker child.
#[derive(Clone, Debug)]
pub enum Frame {
    /// One more execution of the current batch completed.
    Tick,
    /// The current batch's merged report (boxed: a report is two orders
    /// of magnitude larger than the other variants).
    Batch(Box<TestReport>),
    /// The current batch is finished; the child waits for the next
    /// request.
    Done(StopReason),
}

/// The payload of a tick: empty, so a tick is the 3-byte frame `0\n\n`.
pub const TICK: &str = "";

/// Encodes a `batch` frame payload.
pub fn batch_payload(report: &TestReport) -> String {
    let mut w = JsonWriter::with_capacity(1024);
    w.object(|w| {
        w.key("frame").str("batch");
        w.key("executions").u64(report.executions);
        w.key("executions_with_race")
            .u64(report.executions_with_race);
        w.key("executions_with_bug").u64(report.executions_with_bug);
        write_history(w.key("races"), &report.races);
        w.key("per_strategy").array(|w| {
            for (name, b) in report.per_strategy.iter() {
                w.object(|w| {
                    json::write_strategy_row(w, name, b);
                    write_history(w.key("races"), &b.races);
                });
            }
        });
        w.key("failures").array(|w| {
            for (index, f) in &report.failures {
                w.object(|w| {
                    w.key("execution").u64(*index);
                    write_failure(w, f);
                });
            }
        });
        w.key("elided_volatile_races")
            .u64(report.elided_volatile_races);
        json::write_stats(w.key("stats"), &report.total_stats, true);
        write_phase(w.key("phase"), &report.total_stats.phase);
        write_graph(w.key("graph"), &report.total_stats.mograph_perf);
        w.key("coverage")
            .object(|w| json::write_coverage(w, &report.coverage));
    });
    w.finish()
}

/// The `batch` frame of a one-execution batch. Kept for `benchmark/`,
/// whose wire kernels price it.
pub fn exec_payload(report: &ExecutionReport) -> String {
    let mut batch = TestReport::default();
    batch.absorb(report);
    batch_payload(&batch)
}

/// Writes a dedup history losslessly: each entry's `distinct_races` row
/// plus its `shapes`.
fn write_history(w: &mut JsonWriter, history: &DedupHistory) {
    w.array(|w| {
        for (_, e) in history.iter() {
            w.object(|w| {
                json::write_dedup_entry(w, e);
                json::write_shapes(w.key("shapes"), &e.shapes);
            });
        }
    });
}

/// Inverse of [`write_history`].
fn read_history(v: &JsonValue) -> Result<DedupHistory, String> {
    let mut history = DedupHistory::new();
    for row in v.as_array().ok_or("a dedup history is not an array")? {
        let mut entry = json::read_dedup_entry(row)?;
        entry.shapes = json::read_shapes(row.field("shapes")?)?;
        history.absorb_entry(entry);
    }
    Ok(history)
}

/// Writes the lossless wire encoding of a failure into an open object:
/// its kind with a `message` (empty for kinds without text) and `events`
/// (`null` except for `too-many-events`).
fn write_failure(w: &mut JsonWriter, f: &Failure) {
    w.key("kind").str(f.kind_name());
    match f {
        Failure::Panic(msg) | Failure::Infra(msg) => w.key("message").str(msg),
        Failure::Deadlock | Failure::TooManyEvents(_) => w.key("message").str(""),
    }
    match f {
        Failure::TooManyEvents(n) => w.key("events").u64(*n),
        _ => w.key("events").null(),
    }
}

/// Inverse of [`write_failure`].
fn read_failure(v: &JsonValue) -> Result<Failure, String> {
    let events = v.get("events").and_then(JsonValue::as_u64);
    Failure::from_kind(v.str_field("kind")?, v.str_field("message")?, events)
}

/// Inverse of [`batch_payload`]'s fields.
fn read_batch(doc: &JsonValue) -> Result<TestReport, String> {
    let mut per_strategy = StrategyLedger::new();
    for row in doc.array_field("per_strategy")? {
        let (name, mut bucket) = json::read_strategy_row(row)?;
        bucket.races = read_history(row.field("races")?)?;
        per_strategy.absorb_bucket(name, bucket);
    }
    let mut failures = doc
        .array_field("failures")?
        .iter()
        .map(|f| Ok((f.u64_field("execution")?, read_failure(f)?)))
        .collect::<Result<Vec<_>, String>>()?;
    // `TestReport::merge` relies on index order; do not trust the child.
    failures.sort_by_key(|(index, _)| *index);
    Ok(TestReport {
        executions: doc.u64_field("executions")?,
        executions_with_race: doc.u64_field("executions_with_race")?,
        executions_with_bug: doc.u64_field("executions_with_bug")?,
        races: read_history(doc.field("races")?)?,
        per_strategy,
        failures,
        total_stats: ExecStats {
            phase: read_phase(doc.field("phase")?)?,
            mograph_perf: read_graph(doc.field("graph")?)?,
            ..json::read_stats(doc.field("stats")?)?
        },
        elided_volatile_races: doc.u64_field("elided_volatile_races")?,
        coverage: json::read_coverage(doc.field("coverage")?)?,
    })
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
    if payload == TICK {
        return Ok(Frame::Tick);
    }
    let doc = JsonValue::parse(payload).map_err(|e| format!("invalid frame JSON: {e}"))?;
    match doc.str_field("frame")? {
        "done" => Ok(Frame::Done(StopReason::parse(
            doc.str_field("stop_reason")?,
        )?)),
        "batch" => Ok(Frame::Batch(Box::new(read_batch(&doc)?))),
        other => Err(format!("unknown frame type `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11tester::{Config, CoverageMap, Model};

    fn decode_batch(payload: &str) -> TestReport {
        match parse_frame(payload).expect("parses") {
            Frame::Batch(report) => *report,
            other => panic!("batch payload decoded as {other:?}"),
        }
    }

    #[test]
    fn framing_round_trips_and_detects_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"a\":1}").expect("write");
        write_frame(&mut buf, TICK).expect("write");
        write_frame(&mut buf, "x").expect("write");
        let expected = format!(
            "7 {:016x}\n{{\"a\":1}}\n0\n\n1 {:016x}\nx\n",
            fnv1a(b"{\"a\":1}"),
            fnv1a(b"x")
        );
        assert_eq!(buf, expected.as_bytes());
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r).expect("frame"), Some("{\"a\":1}".into()));
        assert_eq!(read_frame(&mut r).expect("tick"), Some(TICK.into()));
        assert_eq!(read_frame(&mut r).expect("frame"), Some("x".into()));
        assert_eq!(read_frame(&mut r).expect("eof"), None);
        // A stream cut mid-frame is an unexpected EOF, not a frame.
        let cut = &buf[..buf.len() - 3];
        let mut r = std::io::BufReader::new(cut);
        for _ in 0..2 {
            assert!(read_frame(&mut r).is_ok());
        }
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        // So is one cut inside the length line.
        let err = read_frame(&mut std::io::BufReader::new(&b"12"[..])).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn length_lines_are_bounded_in_what_is_read_and_quoted() {
        // A long digit stream must not be buffered: the reader stops
        // after 38 bytes and quotes no more than those. (A megabyte, not
        // an endless stream, so an unbounded reader fails this test
        // instead of exhausting memory.)
        let mut endless = std::io::BufReader::new(std::io::repeat(b'1').take(1 << 20));
        let err = read_frame(&mut endless).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("longer than 37 bytes"), "{msg}");
        assert!(msg.len() < 100, "error quotes too much: {msg}");
        // A 20-digit line is still a length (an oversized one here).
        let max = format!("{}\n", u64::MAX);
        let err = read_frame(&mut std::io::BufReader::new(max.as_bytes())).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
        for bad in [&b"x1\n"[..], b"\xff\n", b"-1\n"] {
            let err = read_frame(&mut std::io::BufReader::new(bad)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{bad:?}");
        }
        let mut not_utf8 = format!("2 {:016x}\n", fnv1a(b"\xff\xfe")).into_bytes();
        not_utf8.extend(b"\xff\xfe\n");
        let err = read_frame(&mut std::io::BufReader::new(&not_utf8[..])).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("not UTF-8"), "{err}");
    }

    #[test]
    fn a_frame_whose_digest_does_not_match_is_invalid_data() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"executions\":4}").expect("write");
        let intact = buf.clone();
        // One byte of the payload changed, the length kept.
        let at = buf.len() - 3;
        buf[at] = b'5';
        let err = read_frame(&mut std::io::BufReader::new(&buf[..])).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("does not match"), "{err}");
        assert!(read_frame(&mut std::io::BufReader::new(&intact[..])).is_ok());
        // A non-empty frame without a digest, a tick with one, and a
        // digest that is not 16 hex digits are all bad length lines.
        let digest = format!("{:016x}", fnv1a(b"x"));
        for bad in [
            "1\nx\n".to_string(),
            format!("0 {digest}\n\n"),
            format!("1 {}\nx\n", &digest[1..]),
            format!("1 {}g\nx\n", &digest[1..]),
        ] {
            let err = read_frame(&mut std::io::BufReader::new(bad.as_bytes())).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{bad:?}");
            assert!(err.to_string().contains("bad frame length line"), "{err}");
        }
    }

    #[test]
    fn requests_round_trip_and_reject_garbage() {
        for request in [
            Request {
                first: 0,
                count: 64,
                time_left: None,
            },
            Request {
                first: u64::MAX - 1,
                count: 1,
                time_left: Some(Duration::from_millis(1500)),
            },
        ] {
            let line = request.line();
            assert!(line.ends_with('\n'));
            assert_eq!(Request::parse(&line), Ok(request));
        }
        assert_eq!(
            Request::parse("7 1 -").expect("replay form").first,
            7,
            "the documented crash-replay line parses"
        );
        for bad in ["", "1 2", "1 2 3 4", "a 2 -", "1 -2 -", "1 2 x"] {
            assert!(Request::parse(bad).is_err(), "`{bad}` accepted");
        }
    }

    #[test]
    fn exec_frames_round_trip_real_reports_losslessly() {
        // Run real executions (some racy) and require each one-execution
        // batch frame to decode to what absorbing the report gives — the
        // property fork-isolated byte-identity rests on.
        let _gate = crate::coverage_gate_lock();
        let mut model = Model::new(Config::new().with_seed(0xF0));
        let mut direct = TestReport::default();
        let mut wired = TestReport::default();
        for _ in 0..10 {
            let report = model.run(|| {
                c11tester_workloads::ds::rwlock_buggy::run_buggy();
            });
            let decoded = decode_batch(&exec_payload(&report));
            let mut one = TestReport::default();
            one.absorb(&report);
            assert_eq!(decoded, one);
            direct.absorb(&report);
            wired.merge(&decoded);
        }
        assert_eq!(direct, wired);
        assert!(direct.executions_with_race > 0, "workload should race");
        // Re-encoding the merged fold is byte-identical.
        let payload = batch_payload(&direct);
        assert_eq!(batch_payload(&decode_batch(&payload)), payload);
    }

    #[test]
    fn batch_frames_round_trip_shapes_and_per_strategy_histories() {
        use c11tester::{AccessKind, RaceKind, RaceReport, ThreadId};
        let race = |label: &str, tid: usize| RaceReport {
            label: label.to_string(),
            obj: c11tester_core::ObjId(3),
            offset: 0,
            kind: RaceKind::WriteAfterWrite,
            current_tid: ThreadId::from_index(tid),
            current_kind: AccessKind::NonAtomic,
            prior_tid: ThreadId::from_index(0),
            prior_atomic: tid.is_multiple_of(2),
        };
        let mut report = TestReport::default();
        for (index, strategy, races) in [
            (4, "random", vec![race("x", 1), race("y", 2)]),
            (5, "pct2", vec![race("x", 2)]),
            (9, "random", vec![race("x", 3)]),
            (11, "pct2", vec![]),
        ] {
            report.absorb(&ExecutionReport {
                execution_index: index,
                strategy: strategy.into(),
                races,
                failure: None,
                stats: Default::default(),
                elided_volatile_races: 0,
                coverage: Default::default(),
            });
        }
        let (_, x) = report.races.iter().next().expect("x entry");
        assert_eq!(x.shapes.len(), 3, "three shapes behind one key");
        assert_eq!(decode_batch(&batch_payload(&report)), report);
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
            let decoded = decode_batch(&exec_payload(&report));
            assert_eq!(decoded.failures, vec![(9, failure)]);
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

        let report = TestReport {
            coverage: map.clone(),
            ..TestReport::default()
        };
        let payload = batch_payload(&report);
        let decoded = decode_batch(&payload);
        assert_eq!(decoded.coverage, map);
        // Re-encoding the decoded report is byte-identical (stable order).
        assert_eq!(batch_payload(&decoded), payload);
        // An empty map round-trips too (coverage-disabled batch).
        let decoded = decode_batch(&batch_payload(&TestReport::default()));
        assert_eq!(decoded.coverage, CoverageMap::new());
    }

    #[test]
    fn diagnostic_stats_round_trip_in_batch_frames() {
        use c11tester_core::AllocStats;
        use c11tester_telemetry::{GraphMetrics, Phase};
        let mut report = TestReport::default();
        report.total_stats.atomic_loads = 7;
        report.total_stats.alloc = AllocStats {
            fresh_executions: 1,
            recycled_executions: 63,
            clock_spills: 5,
        };
        report.total_stats.mograph_perf = GraphMetrics {
            order_reorders: 3,
            reorder_nodes: 11,
            reach_fast_negative: 5_000,
            reach_cv_checks: 700,
            compactions: 2,
            compacted_nodes: 96,
            peak_live_nodes: 128,
        };
        report.total_stats.phase.record(Phase::Scheduling, 123_456);
        report.total_stats.phase.record(Phase::Prune, 42);
        // Stats equality ignores the diagnostic blocks: compare them
        // one by one.
        let decoded = decode_batch(&batch_payload(&report)).total_stats;
        let sent = report.total_stats;
        assert_eq!(decoded, sent);
        assert_eq!(decoded.alloc, sent.alloc);
        assert_eq!(decoded.mograph_perf, sent.mograph_perf);
        assert_eq!(decoded.phase, sent.phase);
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
        assert!(matches!(parse_frame(TICK), Ok(Frame::Tick)));
        assert!(parse_frame("{\"frame\":\"nope\"}").is_err());
        assert!(parse_frame("{\"frame\":\"exec\"}").is_err());
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
