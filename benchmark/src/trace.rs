//! The traced pass: one trial driven the way a campaign worker drives it
//! — `Model::run_at` → `TestReport::absorb` → `canonical_json` — with a
//! span recorded **in the benchmark's own code** around each of those
//! calls. Spans stay in memory and are written to
//! `benchmark/out/trace-<workload>.json` at the end.
//!
//! With phase profiling on, the five phase totals the product already
//! exposes on `ExecStats.phase` attribute the execution span's time;
//! what they do not cover is reported as `unattributed_share`. No span
//! or counter lives inside a product crate.

use crate::json::{array, Obj};
use crate::measure::Fnv;
use crate::workloads::Plan;
use c11tester::{Model, TestReport};
use c11tester_campaign::{CampaignBudget, CampaignReport, StopReason};
use c11tester_telemetry::{CampaignMetrics, Phase, PhaseProfile};
use std::time::{Duration, Instant};

/// Span names; a span stores the index.
pub const SPAN_NAMES: [&str; 4] = [
    "trial",
    "c11tester.run_at",
    "campaign.absorb",
    "campaign.canonical_json",
];
const TRIAL: u8 = 0;
const RUN_AT: u8 = 1;
const ABSORB: u8 = 2;
const CANONICAL: u8 = 3;

/// Marks "no parent" / "no execution".
const NONE: u64 = u64::MAX;

/// Raw spans are written for executions below this index.
const RAW_SPAN_EXECUTIONS: u64 = 2_000;

/// One recorded span. Spans of one execution share its index as id.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index into [`SPAN_NAMES`].
    pub name: u8,
    /// Index of the span that caused this one, or `NONE`.
    pub parent: u64,
    /// Execution index shared by the spans of one execution, or `NONE`.
    pub execution: u64,
    /// Start, ns since the recorder's origin.
    pub start: u64,
    /// End, ns since the recorder's origin.
    pub end: u64,
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder with room for `capacity` spans (so recording
    /// never reallocates mid-trial).
    pub fn with_capacity(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: u8, parent: u64, execution: u64) -> u64 {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            execution,
            start,
            end: start,
        });
        self.spans.len() as u64 - 1
    }

    /// Closes span `id`.
    pub fn close(&mut self, id: u64) {
        self.spans[id as usize].end = self.now();
    }

    /// Per-name `(count, total ns, self ns)`: a span's self time is its
    /// duration minus the part its child spans cover.
    pub fn summary(&self) -> [(u64, u64, u64); SPAN_NAMES.len()] {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = [(0, 0, 0); SPAN_NAMES.len()];
        for (s, covered) in self.spans.iter().zip(children) {
            let row = &mut out[s.name as usize];
            let duration = s.end - s.start;
            row.0 += 1;
            row.1 += duration;
            row.2 += duration.saturating_sub(covered);
        }
        out
    }
}

/// What one worker-style trial produced.
#[derive(Debug)]
pub struct WorkerTrial {
    /// Wall time of the whole loop, canonical rendering included.
    pub wall: Duration,
    /// Executions run.
    pub executions: u64,
    /// Fingerprint of the canonical JSON documents (one per target).
    pub canonical: Fnv,
    /// Sum of the per-execution phase profiles (empty unless profiling).
    pub phase: PhaseProfile,
}

impl WorkerTrial {
    /// Executions per wall second.
    pub fn rate(&self) -> f64 {
        self.executions as f64 / self.wall.as_secs_f64()
    }
}

/// Drives one trial as the campaign worker does. With a `recorder`
/// every call into a layer is wrapped in a span; without one the loop is
/// the untraced reference the tracing overhead is measured against.
pub fn worker_trial(plan: &Plan, mut recorder: Option<&mut Recorder>) -> WorkerTrial {
    macro_rules! span {
        ($name:expr, $parent:expr, $exec:expr, $body:expr) => {{
            let id = recorder
                .as_deref_mut()
                .map(|r| r.open($name, $parent, $exec));
            let value = $body;
            if let (Some(r), Some(id)) = (recorder.as_deref_mut(), id) {
                r.close(id);
            }
            value
        }};
    }
    let start = Instant::now();
    let trial = recorder
        .as_deref_mut()
        .map_or(NONE, |r| r.open(TRIAL, NONE, NONE));
    let mut canonical = Fnv::new();
    let mut phase = PhaseProfile::default();
    let mut execution = 0u64;
    for &target in &plan.targets {
        let mut model = Model::new(plan.config.clone());
        let mut aggregate = TestReport::default();
        for index in 0..plan.executions {
            let report = span!(
                RUN_AT,
                trial,
                execution,
                model.run_at(index, || target.run())
            );
            phase.absorb(&report.stats.phase);
            span!(ABSORB, trial, execution, aggregate.absorb(&report));
            execution += 1;
        }
        let report = CampaignReport {
            base_seed: plan.config.seed,
            policy: plan.config.policy.name(),
            strategy: plan.config.strategy_label(),
            budget: CampaignBudget::executions(plan.executions),
            stop_reason: StopReason::BudgetExhausted,
            aggregate,
            crashes: Vec::new(),
            workers: 1,
            wall_time: Duration::ZERO,
            metrics: CampaignMetrics::default(),
        };
        let json = span!(CANONICAL, trial, NONE, report.canonical_json());
        canonical.write(json.as_bytes());
    }
    if let Some(r) = recorder {
        r.close(trial);
    }
    WorkerTrial {
        wall: start.elapsed(),
        executions: execution,
        canonical,
        phase,
    }
}

/// Where the execution span's time went: `(metric name, share)` for the
/// five product phase timers as shares of the `c11tester.run_at` span
/// total, then the remainder.
pub type Attribution = [(&'static str, f64); 6];

/// Metric name of each product phase's share.
const PHASE_METRICS: [(Phase, &str); 5] = [
    (Phase::Scheduling, "runtime.scheduling_share"),
    (Phase::ReadFrom, "core.read_from_share"),
    (Phase::MoGraph, "core.mo_graph_share"),
    (Phase::Prune, "core.prune_share"),
    (Phase::RaceDetect, "race.detect_share"),
];

/// Attributes the execution span total to the phases.
pub fn attribute(recorder: &Recorder, phase: &PhaseProfile) -> Attribution {
    let execution_ns = recorder.summary()[RUN_AT as usize].1.max(1) as f64;
    let mut shares = [("unattributed_share", 0.0); 6];
    let mut covered = 0.0;
    for (slot, (p, name)) in shares.iter_mut().zip(PHASE_METRICS) {
        let share = phase.nanos(p) as f64 / execution_ns;
        covered += share;
        *slot = (name, share);
    }
    shares[5].1 = 1.0 - covered;
    shares
}

/// Writes the trace file and returns its path.
pub fn write_trace(
    plan: &Plan,
    meta: &str,
    recorder: &Recorder,
    phase: &PhaseProfile,
    attribution: &Attribution,
) -> Result<String, String> {
    let summary = recorder
        .summary()
        .iter()
        .zip(SPAN_NAMES)
        .map(|(&(count, total, own), name)| {
            Obj::new()
                .str("name", name)
                .uint("count", count)
                .uint("total_ns", total)
                .uint("self_ns", own)
                .finish()
        })
        .collect::<Vec<_>>();
    let phases = Phase::ALL.iter().fold(Obj::new(), |o, &p| {
        o.raw(
            p.name(),
            Obj::new()
                .uint("nanos", phase.nanos(p))
                .uint("calls", phase.calls(p))
                .finish(),
        )
    });
    let shares = attribution
        .iter()
        .fold(Obj::new(), |o, (name, share)| o.num(name, *share));
    let id = |v: u64| {
        if v == NONE {
            "null".to_string()
        } else {
            v.to_string()
        }
    };
    let raw = recorder
        .spans
        .iter()
        .filter(|s| s.execution == NONE || s.execution < RAW_SPAN_EXECUTIONS)
        .map(|s| {
            array([
                s.name.to_string(),
                id(s.parent),
                id(s.execution),
                s.start.to_string(),
                s.end.to_string(),
            ])
        });
    let doc = Obj::new()
        .str("schema", "c11perf-trace/v1")
        .raw("meta", meta)
        .raw(
            "span_names",
            array(SPAN_NAMES.iter().map(|n| crate::json::string(n))),
        )
        .raw("summary", array(summary))
        .raw("product_phases", phases.finish())
        .raw("execution_span_shares", shares.finish())
        .str(
            "span_columns",
            "name index, parent span index, execution index, start ns, end ns",
        )
        .uint("raw_span_executions", RAW_SPAN_EXECUTIONS)
        .raw("spans", array(raw))
        .finish();
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", plan.workload.name));
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_spans() {
        let mut r = Recorder::with_capacity(4);
        let trial = r.open(TRIAL, NONE, NONE);
        let exec = r.open(RUN_AT, trial, 0);
        r.close(exec);
        let absorb = r.open(ABSORB, trial, 0);
        r.close(absorb);
        r.close(trial);
        // Pin the clock readings so the arithmetic is exact.
        r.spans[0] = Span {
            start: 0,
            end: 100,
            ..r.spans[0]
        };
        r.spans[1] = Span {
            start: 10,
            end: 70,
            ..r.spans[1]
        };
        r.spans[2] = Span {
            start: 70,
            end: 95,
            ..r.spans[2]
        };
        let s = r.summary();
        assert_eq!(s[TRIAL as usize], (1, 100, 15));
        assert_eq!(s[RUN_AT as usize], (1, 60, 60));
        assert_eq!(s[ABSORB as usize], (1, 25, 25));
        assert_eq!(s[CANONICAL as usize], (0, 0, 0));

        let mut phase = PhaseProfile::default();
        phase.record(Phase::ReadFrom, 30);
        phase.record(Phase::Scheduling, 15);
        let a = attribute(&r, &phase);
        let total: f64 = a.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(a[1], ("core.read_from_share", 0.5));
        assert_eq!(a[5].0, "unattributed_share");
        assert!((a[5].1 - 0.25).abs() < 1e-12);
    }
}
