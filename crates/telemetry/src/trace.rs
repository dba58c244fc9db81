//! Structured schedule traces.
//!
//! Replaces the ad-hoc `C11TESTER_TRACE` `eprintln!` path: the core
//! execution buffers one [`TraceEvent`] per committed event (store,
//! load, RMW) and the model layer drains the buffer into a
//! [`TraceSink`] after each execution, keyed by `(seed, epoch,
//! index)` — the same coordinates that make an execution replayable.
//! A single interleaving can therefore be dumped as JSONL, diffed
//! against a replay, or attached to a race report for provenance.
//!
//! The types here are deliberately plain (`u64`, `&'static str`): the
//! telemetry crate sits *below* the core model crate, so it cannot
//! name `ThreadId`/`ObjId`/`MemOrder` — core converts at the
//! recording site.

use crate::json::JsonWriter;
use std::sync::atomic::{AtomicBool, Ordering};

/// The replay coordinates of one execution: `seed` and global `index`
/// pin the interleaving; `epoch` disambiguates adaptive campaigns
/// (0 for flat campaigns).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceKey {
    /// Campaign base seed.
    pub seed: u64,
    /// Adaptive epoch ordinal (0 when the campaign is not epoched).
    pub epoch: u64,
    /// Global execution index.
    pub index: u64,
}

/// Committed-event kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// An atomic / non-atomic / volatile store.
    Store,
    /// An atomic load.
    Load,
    /// A read-modify-write (both halves in one event).
    Rmw,
    /// A (non-relaxed) thread fence. Carries no object: `obj` is
    /// [`FENCE_OBJ`], `value` is 0, `rf`/`old` are `None`.
    Fence,
}

/// Sentinel `obj` value of [`TraceKind::Fence`] events (fences target
/// no location).
pub const FENCE_OBJ: u64 = u64::MAX;

impl TraceKind {
    /// Stable name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Store => "store",
            TraceKind::Load => "load",
            TraceKind::Rmw => "rmw",
            TraceKind::Fence => "fence",
        }
    }
}

/// One committed event of an execution's interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event kind.
    pub kind: TraceKind,
    /// Committing thread id.
    pub thread: u64,
    /// Global sequence number of the event (the store half for RMWs).
    pub seq: u64,
    /// Target object id.
    pub obj: u64,
    /// Memory ordering name (e.g. `"SeqCst"`).
    pub order: &'static str,
    /// Access kind name (`"atomic"`, `"non-atomic"`, `"volatile"`).
    pub access: &'static str,
    /// Value stored / loaded / written by the RMW.
    pub value: u64,
    /// Sequence number of the store read from (loads and RMWs).
    pub rf: Option<u64>,
    /// Value read by the RMW before writing.
    pub old: Option<u64>,
}

/// Writes the event's fields into an open object: the one encoding of
/// a committed event, shared by the JSONL trace and the forensics
/// bundle's event window.
pub fn write_event_fields(w: &mut JsonWriter, e: &TraceEvent) {
    w.key("kind").str(e.kind.name());
    w.key("thread").u64(e.thread);
    w.key("seq").u64(e.seq);
    w.key("obj").u64(e.obj);
    w.key("order").str(e.order);
    w.key("access").str(e.access);
    w.key("value").u64(e.value);
    w.key("rf").opt_u64(e.rf);
    w.key("old").opt_u64(e.old);
}

/// Encodes one event as a `c11trace/v1` JSONL line: its replay key,
/// then the event's fields.
pub fn event_jsonl(key: TraceKey, e: &TraceEvent) -> String {
    let mut w = JsonWriter::with_capacity(160);
    w.object(|w| {
        w.key("seed").u64(key.seed);
        w.key("epoch").u64(key.epoch);
        w.key("index").u64(key.index);
        write_event_fields(w, e);
    });
    w.finish()
}

/// Receives the committed-event sequence of each traced execution.
pub trait TraceSink: Send {
    /// Records one execution's full event sequence.
    fn record(&mut self, key: TraceKey, events: &[TraceEvent]);
}

/// The default sink: JSONL to stderr (the behavior `C11TESTER_TRACE`
/// aliases to).
#[derive(Debug, Default)]
pub struct StderrSink;

impl TraceSink for StderrSink {
    fn record(&mut self, key: TraceKey, events: &[TraceEvent]) {
        use std::io::Write;
        let stderr = std::io::stderr();
        let mut out = std::io::BufWriter::new(stderr.lock());
        for e in events {
            let _ = writeln!(out, "{}", event_jsonl(key, e));
        }
    }
}

/// An in-memory sink for tests and programmatic inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Every recorded `(key, events)` pair, in record order.
    pub records: Vec<(TraceKey, Vec<TraceEvent>)>,
}

impl TraceSink for MemorySink {
    fn record(&mut self, key: TraceKey, events: &[TraceEvent]) {
        self.records.push((key, events.to_vec()));
    }
}

/// The shared buffer behind a [`CaptureSink`]: recorded
/// `(key, events)` pairs in record order.
type SharedRecords = std::sync::Arc<std::sync::Mutex<Vec<(TraceKey, Vec<TraceEvent>)>>>;

/// A cloneable [`TraceSink`] whose buffer is shared between the clone
/// handed to the model (trace-sink installation takes the sink by
/// `Box`) and the clone the caller keeps to read the capture back out
/// afterwards. This is the capture primitive behind race forensics
/// replays and the generated-program fuzz oracle.
#[derive(Clone, Debug, Default)]
pub struct CaptureSink {
    records: SharedRecords,
}

impl CaptureSink {
    /// Creates an empty shared sink.
    pub fn new() -> Self {
        CaptureSink::default()
    }

    /// Drains everything recorded so far.
    pub fn take(&self) -> Vec<(TraceKey, Vec<TraceEvent>)> {
        let mut guard = self
            .records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::take(&mut *guard)
    }
}

impl TraceSink for CaptureSink {
    fn record(&mut self, key: TraceKey, events: &[TraceEvent]) {
        self.records
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((key, events.to_vec()));
    }
}

/// A sink that appends JSONL lines to a growable string buffer
/// (useful for writing a trace file at campaign end).
#[derive(Debug, Default)]
pub struct JsonlSink {
    /// The accumulated JSONL text.
    pub text: String,
}

impl TraceSink for JsonlSink {
    fn record(&mut self, key: TraceKey, events: &[TraceEvent]) {
        for e in events {
            self.text.push_str(&event_jsonl(key, e));
            self.text.push('\n');
        }
    }
}

/// Global tracing gate, OR-ed with the `C11TESTER_TRACE` environment
/// variable by the core execution. Lets embedders enable buffering
/// without touching the process environment.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Enables or disables schedule-trace buffering process-wide.
pub fn set_tracing(enabled: bool) {
    TRACING.store(enabled, Ordering::Relaxed);
}

/// Whether programmatic trace buffering is enabled.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent {
            kind: TraceKind::Rmw,
            thread: 2,
            seq: 17,
            obj: 3,
            order: "AcqRel",
            access: "atomic",
            value: 9,
            rf: Some(12),
            old: Some(8),
        }
    }

    #[test]
    fn jsonl_encodes_key_and_edges() {
        let key = TraceKey {
            seed: 0xC11,
            epoch: 1,
            index: 42,
        };
        let line = event_jsonl(key, &sample());
        assert!(line.starts_with("{\"seed\":3089,\"epoch\":1,\"index\":42,"));
        assert!(line.contains("\"kind\":\"rmw\""));
        assert!(line.contains("\"rf\":12"));
        assert!(line.contains("\"old\":8"));
        let store = TraceEvent {
            kind: TraceKind::Store,
            rf: None,
            old: None,
            ..sample()
        };
        let line = event_jsonl(key, &store);
        assert!(line.contains("\"rf\":null"));
        assert!(line.ends_with("\"old\":null}"));
    }

    #[test]
    fn memory_sink_captures_records() {
        let mut sink = MemorySink::default();
        let key = TraceKey::default();
        sink.record(key, &[sample()]);
        assert_eq!(sink.records.len(), 1);
        assert_eq!(sink.records[0].1[0], sample());
    }

    #[test]
    fn jsonl_sink_appends_lines() {
        let mut sink = JsonlSink::default();
        sink.record(TraceKey::default(), &[sample(), sample()]);
        assert_eq!(sink.text.lines().count(), 2);
    }
}
