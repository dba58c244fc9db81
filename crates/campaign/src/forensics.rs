//! Race forensics: per-race provenance bundles.
//!
//! A campaign's deduplicated race list says *what* raced; a forensics
//! bundle says *how to look at it*. For every deduplicated race class
//! the campaign re-runs the **witness execution** — the lowest global
//! index that exhibited the race, a pure function of `(seed, index)`
//! under the determinism contract — with schedule tracing enabled, and
//! writes two files per race into `--forensics-dir`:
//!
//! * `race-NNN.json` — a `c11forensics/v1` document: the replay key
//!   `(seed, epoch, index)`, the exemplar race report, every distinct
//!   access-pair shape observed behind the dedup key, a bounded window
//!   of committed events around the racing object, and a `verified`
//!   flag recording whether the replay reproduced the race class.
//! * `race-NNN.dot` — the witness execution's event graph in Graphviz
//!   DOT: one cluster per thread, program-order edges within each
//!   thread, dashed reads-from edges, and per-object modification-order
//!   edges between consecutive stores.
//!
//! Bundles are numbered in [`DedupHistory`] iteration order (sorted by
//! [`c11tester::RaceKey`]), so the directory layout is deterministic
//! for any worker count.
//!
//! Known limitation, inherited from the trace layer: only **model
//! ops** (atomic / volatile stores, loads, RMWs) are traced, so the
//! non-atomic half of a data race never appears as an event. The
//! window is anchored on the racing *object*'s atomic traffic — or,
//! when the object has none, on the tail of the execution, which is
//! where the detector fired.

use crate::json::{write_race, write_shapes};
use crate::{Campaign, EpochTrace};
use c11tester::{DedupEntry, DedupHistory, ExecutionReport, Model};
use c11tester_telemetry::json::{esc, JsonWriter};
use c11tester_telemetry::{write_event_fields, TraceEvent, TraceKind};
use std::collections::BTreeMap;
use std::path::Path;

/// Committed events kept on each side of the racing object's accesses
/// in the bundled window.
const WINDOW: usize = 16;

// The shared-buffer capture sink moved down into the telemetry crate
// (the fuzz oracle in `c11tester-genprog` needs it below this crate);
// re-exported here so forensics callers keep their import path.
pub use c11tester_telemetry::CaptureSink;

/// One re-run of an execution with tracing enabled
/// ([`Campaign::replay`]): a race's witness for [`write_bundles`].
#[derive(Debug)]
pub struct Witness {
    /// Epoch the witness index fell into (0 for plain campaigns).
    pub epoch: u64,
    /// The replayed execution's report.
    pub report: ExecutionReport,
    /// The replayed execution's committed-event sequence.
    pub events: Vec<TraceEvent>,
}

/// What [`write_bundles`] wrote.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForensicsSummary {
    /// Bundles written (one per deduplicated race).
    pub bundles: usize,
    /// Bundles whose replay reproduced the race class.
    pub verified: usize,
}

impl std::fmt::Display for ForensicsSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} forensics bundle(s), {} verified by replay",
            self.bundles, self.verified
        )
    }
}

/// Writes one `race-NNN.{json,dot}` bundle per deduplicated race into
/// `dir`, creating it if needed. `replay` re-runs the given global
/// execution index with tracing enabled and returns the [`Witness`]
/// (in practice [`Campaign::replay`]). Bundle numbering follows the
/// history's sorted iteration order, so output is deterministic.
pub fn write_bundles<R>(
    dir: &Path,
    seed: u64,
    races: &DedupHistory,
    mut replay: R,
) -> Result<ForensicsSummary, String>
where
    R: FnMut(u64) -> Result<Witness, String>,
{
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create forensics dir {}: {e}", dir.display()))?;
    let mut summary = ForensicsSummary::default();
    for (i, (key, entry)) in races.iter().enumerate() {
        let witness = replay(entry.first_execution)?;
        let verified = witness.report.races.iter().any(|r| r.key() == *key);
        let stem = format!("race-{i:03}");
        let json = bundle_json(seed, entry, &witness, verified);
        let dot = bundle_dot(&stem, entry, &witness.events);
        for (ext, body) in [("json", json), ("dot", dot)] {
            let path = dir.join(format!("{stem}.{ext}"));
            std::fs::write(&path, body)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        summary.bundles += 1;
        summary.verified += usize::from(verified);
    }
    Ok(summary)
}

impl Campaign {
    /// Replays global execution `index` of `trace`, a run of this
    /// campaign, with a capture sink installed (which arms tracing):
    /// serially, under the config that ran it — for an epoched run, the
    /// mix of the epoch whose nominal range holds the index
    /// ([`EpochTrace::config_at`]). `None` when no such epoch completed
    /// or the index is outside the budget. Executions are pure
    /// functions of `(config, index)`, so the replay commits the events
    /// the campaign's worker did.
    pub fn replay<F>(&self, trace: &EpochTrace, index: u64, program: F) -> Option<Witness>
    where
        F: Fn() + Send + Sync,
    {
        let (config, epoch) = match self.epoch_len {
            Some(_) => trace.config_at(&self.config, index)?,
            None if index < trace.report.budget.max_executions => (self.config.clone(), 0),
            None => return None,
        };
        let sink = CaptureSink::new();
        let mut model = Model::new(config).with_trace_sink(Box::new(sink.clone()));
        model.set_trace_epoch(epoch);
        let report = model.run_at(index, program);
        let events = sink
            .take()
            .into_iter()
            .find(|(k, _)| k.index == index)
            .map(|(_, ev)| ev)
            .unwrap_or_default();
        Some(Witness {
            epoch,
            report,
            events,
        })
    }
}

/// The `c11forensics/v1` document for one race class.
fn bundle_json(seed: u64, entry: &DedupEntry, witness: &Witness, verified: bool) -> String {
    let (lo, hi) = window_bounds(&witness.events, entry.report.obj.0);
    let mut w = JsonWriter::with_capacity(2048);
    w.object(|w| {
        w.key("schema").str("c11forensics/v1");
        w.key("replay").object(|w| {
            w.key("seed").u64(seed);
            w.key("epoch").u64(witness.epoch);
            w.key("index").u64(entry.first_execution);
        });
        w.key("race").object(|w| write_race(w, &entry.report));
        w.key("first_execution").u64(entry.first_execution);
        w.key("occurrences").u64(entry.occurrences);
        write_shapes(w.key("shapes"), &entry.shapes);
        w.key("verified").bool(verified);
        w.key("trace").object(|w| {
            w.key("total_events").u64(witness.events.len() as u64);
            w.key("window_start").u64(lo as u64);
            w.key("window").array(|w| {
                for e in &witness.events[lo..hi] {
                    w.object(|w| write_event_fields(w, e));
                }
            });
        });
    });
    w.finish()
}

/// The window `[lo, hi)` of events bundled for the racing object: all
/// accesses of `obj` plus [`WINDOW`] events of context on each side,
/// or the execution's tail when the object has no traced accesses
/// (non-atomic race halves are never traced).
fn window_bounds(events: &[TraceEvent], obj: u64) -> (usize, usize) {
    let first = events.iter().position(|e| e.obj == obj);
    let last = events.iter().rposition(|e| e.obj == obj);
    match (first, last) {
        (Some(first), Some(last)) => (
            first.saturating_sub(WINDOW),
            (last + 1 + WINDOW).min(events.len()),
        ),
        _ => (events.len().saturating_sub(2 * WINDOW), events.len()),
    }
}

/// The witness execution's event graph in Graphviz DOT: one cluster
/// per thread, solid program-order edges, dashed `rf` edges, and
/// per-object `mo` edges between consecutive stores. Nodes for the
/// racing object are filled so the conflict region stands out.
fn bundle_dot(stem: &str, entry: &DedupEntry, events: &[TraceEvent]) -> String {
    let racing_obj = entry.report.obj.0;
    let mut out = String::new();
    out.push_str(&format!("digraph \"{}\" {{\n", esc(stem)));
    out.push_str("  rankdir=TB;\n");
    out.push_str("  node [shape=box, fontname=\"monospace\", fontsize=10];\n");
    out.push_str(&format!(
        "  label=\"{} on `{}`\";\n",
        entry.report.kind.name(),
        esc(&entry.report.label),
    ));

    let mut by_thread: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        by_thread.entry(e.thread).or_default().push(e);
    }
    for (tid, evs) in &by_thread {
        out.push_str(&format!(
            "  subgraph \"cluster_t{tid}\" {{\n    label=\"T{tid}\";\n"
        ));
        for e in evs {
            let fill = if e.obj == racing_obj {
                ", style=filled, fillcolor=lightyellow"
            } else {
                ""
            };
            out.push_str(&format!(
                "    n{} [label=\"#{} {} obj{}={} {}\"{fill}];\n",
                e.seq,
                e.seq,
                e.kind.name(),
                e.obj,
                e.value,
                e.order,
            ));
        }
        out.push_str("  }\n");
    }

    // Program order: consecutive events of each thread.
    for evs in by_thread.values() {
        for pair in evs.windows(2) {
            out.push_str(&format!("  n{} -> n{};\n", pair[0].seq, pair[1].seq));
        }
    }
    // Reads-from: only when the source store is itself a traced event
    // (loads from an object's initial value carry no producer node).
    let seqs: std::collections::BTreeSet<u64> = events.iter().map(|e| e.seq).collect();
    for e in events {
        if let Some(rf) = e.rf {
            if seqs.contains(&rf) && rf != e.seq {
                out.push_str(&format!(
                    "  n{rf} -> n{} [style=dashed, color=blue, label=\"rf\"];\n",
                    e.seq,
                ));
            }
        }
    }
    // Modification order: consecutive stores to each object.
    let mut stores: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        if matches!(e.kind, TraceKind::Store | TraceKind::Rmw) {
            stores.entry(e.obj).or_default().push(e);
        }
    }
    for evs in stores.values() {
        for pair in evs.windows(2) {
            out.push_str(&format!(
                "  n{} -> n{} [color=red, label=\"mo\"];\n",
                pair[0].seq, pair[1].seq,
            ));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11tester::{AccessKind, RaceKind, RaceReport, ThreadId};
    use c11tester_core::ObjId;
    use c11tester_telemetry::{TraceKey, TraceSink};

    fn event(kind: TraceKind, thread: u64, seq: u64, obj: u64, rf: Option<u64>) -> TraceEvent {
        TraceEvent {
            kind,
            thread,
            seq,
            obj,
            order: "Relaxed",
            access: "atomic",
            value: seq,
            rf,
            old: None,
        }
    }

    fn history() -> DedupHistory {
        let mut h = DedupHistory::new();
        h.record(
            5,
            &RaceReport {
                label: "flag".into(),
                obj: ObjId(3),
                offset: 0,
                kind: RaceKind::ReadAfterWrite,
                current_tid: ThreadId::from_index(2),
                current_kind: AccessKind::NonAtomic,
                prior_tid: ThreadId::from_index(1),
                prior_atomic: false,
            },
        );
        h
    }

    fn witness(index: u64, with_obj: bool) -> Witness {
        let obj = if with_obj { 3 } else { 9 };
        Witness {
            epoch: 0,
            report: ExecutionReport {
                execution_index: index,
                strategy: "random".into(),
                races: history().iter().map(|(_, e)| e.report.clone()).collect(),
                failure: None,
                stats: Default::default(),
                elided_volatile_races: 0,
                coverage: Default::default(),
            },
            events: vec![
                event(TraceKind::Store, 1, 1, obj, None),
                event(TraceKind::Load, 2, 2, obj, Some(1)),
                event(TraceKind::Rmw, 2, 3, 7, None),
            ],
        }
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("c11forensics-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn bundles_carry_replay_key_shapes_and_window() {
        let dir = temp_dir("bundle");
        let races = history();
        let summary = write_bundles(&dir, 0xfeed, &races, |index| Ok(witness(index, true)))
            .expect("bundles written");
        assert_eq!(
            summary,
            ForensicsSummary {
                bundles: 1,
                verified: 1
            }
        );
        let json = std::fs::read_to_string(dir.join("race-000.json")).expect("json");
        assert!(json.starts_with("{\"schema\":\"c11forensics/v1\""));
        assert!(json.contains("\"replay\":{\"seed\":65261,\"epoch\":0,\"index\":5}"));
        assert!(json.contains("\"label\":\"flag\""));
        assert!(json.contains("\"kind\":\"read-write\""));
        assert!(json.contains("\"shapes\":[{\"current_tid\":2"));
        assert!(json.contains("\"verified\":true"));
        assert!(json.contains("\"total_events\":3"));
        // All three events fit in the window around obj 3.
        assert!(json.contains("\"window_start\":0"));
        assert_eq!(json.matches("\"seq\":").count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dot_has_clusters_po_rf_and_mo_edges() {
        let dir = temp_dir("dot");
        let races = history();
        write_bundles(&dir, 1, &races, |index| Ok(witness(index, true))).expect("bundles written");
        let dot = std::fs::read_to_string(dir.join("race-000.dot")).expect("dot");
        assert!(dot.starts_with("digraph \"race-000\" {"));
        assert!(dot.contains("subgraph \"cluster_t1\""));
        assert!(dot.contains("subgraph \"cluster_t2\""));
        assert!(dot.contains("n2 -> n3;"), "po edge within T2");
        assert!(dot.contains("n1 -> n2 [style=dashed, color=blue, label=\"rf\"]"));
        assert!(
            dot.contains("fillcolor=lightyellow"),
            "racing obj highlighted"
        );
        assert!(dot.ends_with("}\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unverified_replay_and_missing_obj_fall_back_to_tail_window() {
        let dir = temp_dir("tail");
        let races = history();
        let summary = write_bundles(&dir, 1, &races, |index| {
            let mut w = witness(index, false);
            w.report.races.clear(); // replay "missed" the race
            Ok(w)
        })
        .expect("bundles written");
        assert_eq!(summary.verified, 0);
        let json = std::fs::read_to_string(dir.join("race-000.json")).expect("json");
        assert!(json.contains("\"verified\":false"));
        assert!(json.contains("\"total_events\":3"));
        assert!(
            json.contains("\"window_start\":0"),
            "tail window covers all"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capture_sink_shares_its_buffer_across_clones() {
        let sink = CaptureSink::new();
        let mut handle: Box<dyn TraceSink> = Box::new(sink.clone());
        let key = TraceKey {
            seed: 1,
            epoch: 0,
            index: 4,
        };
        handle.record(key, &[event(TraceKind::Store, 1, 1, 3, None)]);
        let records = sink.take();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0, key);
        assert_eq!(records[0].1.len(), 1);
        assert!(sink.take().is_empty(), "take drains");
    }
}
