//! Chrome trace-event export (`--metrics-format chrome`).
//!
//! Re-renders a [`CampaignMetrics`] aggregate as a JSON array of
//! Chrome trace events — the format `chrome://tracing` and Perfetto
//! load directly — for flamegraph-style inspection of where a whole
//! campaign spent its time. The timeline is **synthetic**: campaign
//! metrics are totals, not an event log, so phases are laid out as
//! consecutive slices whose durations are the accumulated per-phase
//! nanoseconds, workers as one busy-span each, and epochs end-to-end
//! in epoch order. Relative widths are meaningful; absolute
//! timestamps are not.

use crate::json::JsonWriter;
use crate::metrics::{CampaignMetrics, MetricsMeta};
use crate::phase::Phase;

/// Track (tid) layout of the synthetic timeline.
const TID_PHASES: u64 = 0;
const TID_EPOCHS: u64 = 1;
const TID_WORKER_BASE: u64 = 100;

/// A metadata (`"ph":"M"`) event naming a process or thread track.
fn metadata(w: &mut JsonWriter, name: &str, tid: u64, value: &str) {
    w.object(|w| {
        w.key("name").str(name);
        w.key("ph").str("M");
        w.key("pid").u64(1);
        w.key("tid").u64(tid);
        w.key("args").object(|w| w.key("name").str(value));
    });
}

/// A complete (`"ph":"X"`) slice; `args` writes its argument fields.
fn slice(
    w: &mut JsonWriter,
    name: &str,
    tid: u64,
    ts_us: u64,
    dur_us: u64,
    args: impl FnOnce(&mut JsonWriter),
) {
    w.object(|w| {
        w.key("name").str(name);
        w.key("ph").str("X");
        w.key("pid").u64(1);
        w.key("tid").u64(tid);
        w.key("ts").u64(ts_us);
        w.key("dur").u64(dur_us);
        w.key("args").object(args);
    });
}

/// Renders the metrics aggregate as a well-formed Chrome trace-event
/// array.
pub fn chrome_trace(metrics: &CampaignMetrics, meta: &MetricsMeta) -> String {
    let mut w = JsonWriter::with_capacity(1024);
    w.array(|w| {
        metadata(
            w,
            "process_name",
            TID_PHASES,
            &format!("c11campaign {}", meta.target),
        );
        metadata(w, "thread_name", TID_PHASES, "engine phases");

        // Phase slices, consecutive on one track.
        let mut ts = 0u64;
        for phase in Phase::ALL {
            let dur = metrics.phase.nanos(phase) / 1_000;
            slice(w, phase.name(), TID_PHASES, ts, dur, |w| {
                w.key("calls").u64(metrics.phase.calls(phase))
            });
            ts += dur;
        }

        // One busy-span per worker.
        let mut workers = metrics.workers.clone();
        workers.sort_by_key(|m| m.worker);
        for m in &workers {
            let tid = TID_WORKER_BASE + m.worker;
            let name = format!("worker {}", m.worker);
            metadata(w, "thread_name", tid, &name);
            slice(w, &name, tid, 0, m.busy_nanos / 1_000, |w| {
                w.key("executions").u64(m.executions)
            });
        }

        // Epochs end-to-end in epoch order.
        if !metrics.epochs.is_empty() {
            metadata(w, "thread_name", TID_EPOCHS, "adaptive epochs");
            let mut epochs = metrics.epochs.clone();
            epochs.sort_by_key(|e| e.epoch);
            let mut ts = 0u64;
            for e in &epochs {
                let dur = e.wall_nanos / 1_000;
                slice(w, &format!("epoch {}", e.epoch), TID_EPOCHS, ts, dur, |w| {
                    w.key("mix").str(&e.mix);
                    w.key("start_index").u64(e.start_index);
                    w.key("executions").u64(e.executions);
                });
                ts += dur;
            }
        }
    });
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{EpochMetric, WorkerMetrics};

    #[test]
    fn trace_is_a_well_formed_event_array() {
        let mut m = CampaignMetrics {
            workers: vec![WorkerMetrics {
                worker: 0,
                executions: 10,
                busy_nanos: 2_000_000,
                ..WorkerMetrics::default()
            }],
            executions: 10,
            wall_nanos: 3_000_000,
            ..CampaignMetrics::default()
        };
        m.phase.record(Phase::Scheduling, 1_500_000);
        m.epochs.push(EpochMetric {
            epoch: 0,
            start_index: 0,
            executions: 10,
            wall_nanos: 3_000_000,
            mix: "random".into(),
        });
        let meta = MetricsMeta {
            target: "dekker-fences".into(),
            ..MetricsMeta::default()
        };
        let json = chrome_trace(&m, &meta);
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"scheduling\""));
        assert!(json.contains("\"dur\":1500"));
        assert!(json.contains("\"name\":\"worker 0\""));
        assert!(json.contains("\"name\":\"epoch 0\""));
        // Every phase appears even with zero duration.
        for phase in Phase::ALL {
            assert!(json.contains(&format!("\"name\":\"{}\"", phase.name())));
        }
    }
}
