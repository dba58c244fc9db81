//! Structured schedule traces: a trace recorded for `(seed, epoch,
//! index)` must match the replayed execution's committed-event
//! sequence exactly — the property that lets a JSONL trace stand in
//! for the interleaving it describes.

use c11tester::sync::atomic::{AtomicU32, Ordering};
use c11tester::{Config, Model, TraceEvent, TraceKey, TraceSink};
use std::sync::{Arc, Mutex};

type Records = Vec<(TraceKey, Vec<TraceEvent>)>;

/// A sink whose records outlive the model that owns it.
#[derive(Clone, Default)]
struct SharedSink(Arc<Mutex<Records>>);

impl SharedSink {
    fn records(&self) -> Records {
        self.0.lock().expect("sink poisoned").clone()
    }
}

impl TraceSink for SharedSink {
    fn record(&mut self, key: TraceKey, events: &[TraceEvent]) {
        self.0
            .lock()
            .expect("sink poisoned")
            .push((key, events.to_vec()));
    }
}

/// Message passing with an acquire/release handshake plus an RMW, so
/// the trace covers stores, loads, and RMWs with rf edges.
fn program() {
    let data = Arc::new(AtomicU32::new(0));
    let flag = Arc::new(AtomicU32::new(0));
    let (d, f) = (data.clone(), flag.clone());
    let t = c11tester::thread::spawn(move || {
        d.store(42, Ordering::Relaxed);
        f.store(1, Ordering::Release);
    });
    if flag.load(Ordering::Acquire) == 1 {
        data.fetch_add(1, Ordering::Relaxed);
    }
    t.join();
}

/// Runs global index `index` with a fresh model and traces it.
fn traced_run(seed: u64, epoch: u64, index: u64) -> (TraceKey, Vec<TraceEvent>) {
    let sink = SharedSink::default();
    let mut model = Model::new(Config::new().with_seed(seed));
    model.set_trace_sink(Box::new(sink.clone()));
    model.set_trace_epoch(epoch);
    model.run_at(index, program);
    let records = sink.records();
    assert_eq!(records.len(), 1, "one traced execution, one record");
    records.into_iter().next().expect("record exists")
}

#[test]
fn trace_is_keyed_by_seed_epoch_index_and_replays_identically() {
    let (key, events) = traced_run(0xC11, 2, 5);
    assert_eq!(
        key,
        TraceKey {
            seed: 0xC11,
            epoch: 2,
            index: 5
        }
    );
    assert!(!events.is_empty(), "the program commits visible events");
    assert!(
        events.iter().any(|e| e.rf.is_some()),
        "at least one load/RMW records its rf edge"
    );

    // Replaying the same coordinates reproduces the event sequence
    // exactly; a different index yields a different interleaving key.
    let (rekey, replayed) = traced_run(0xC11, 2, 5);
    assert_eq!(rekey, key);
    assert_eq!(replayed, events, "replay must retrace the schedule");
}

#[test]
fn traces_from_distinct_indices_are_independently_replayable() {
    // Record several executions in one model, then replay each index
    // from scratch and require event-for-event agreement.
    let sink = SharedSink::default();
    let mut model = Model::new(Config::new().with_seed(7));
    model.set_trace_sink(Box::new(sink.clone()));
    for index in 0..4 {
        model.run_at(index, program);
    }
    let batch = sink.records();
    assert_eq!(batch.len(), 4);
    for (key, events) in batch {
        let (rekey, replayed) = traced_run(7, 0, key.index);
        assert_eq!(rekey, key);
        assert_eq!(replayed, events, "index {} must replay", key.index);
    }
}

#[test]
fn jsonl_lines_carry_the_replay_key() {
    let sink = SharedSink::default();
    let mut model = Model::new(Config::new().with_seed(9));
    model.set_trace_sink(Box::new(sink.clone()));
    model.set_trace_epoch(1);
    model.run_at(3, program);
    let (key, events) = sink.records().into_iter().next().expect("recorded");
    for e in &events {
        let line = c11tester_telemetry::event_jsonl(key, e);
        assert!(line.starts_with("{\"seed\":9,\"epoch\":1,\"index\":3,"));
        assert!(line.ends_with('}'));
    }
}
