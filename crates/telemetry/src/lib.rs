//! Deterministic-contract-safe observability for the c11tester-rs
//! workspace: phase profiling, a campaign metrics registry with
//! `c11metrics/v1` + Chrome-trace export, structured schedule traces,
//! and the one JSON writer and reader every crate above shares
//! ([`json`]).
//!
//! This crate is a dependency-free leaf **below** the core model
//! crate, so every type here is built from plain `u64`/`&'static str`
//! fields — core converts its own `ThreadId`/`ObjId`/`MemOrder`
//! values at the recording sites. The cardinal rule, enforced by the
//! layers above: telemetry is *diagnostic*, never *behavioral*.
//! Nothing recorded here may influence scheduling, read-from choice,
//! or any other model decision, and nothing here may enter canonical
//! campaign JSON — the determinism contract (byte-identical reports
//! across worker counts and isolation modes) must hold with telemetry
//! enabled or disabled.

#![warn(missing_docs)]

pub mod chrome;
pub mod coverage;
pub mod json;
pub mod metrics;
pub mod phase;
pub mod trace;

pub use chrome::chrome_trace;
pub use coverage::{coverage_enabled, fnv1a, set_coverage, ExecCoverage};
pub use metrics::{
    read_graph, write_graph, CampaignMetrics, EpochMetric, ForkHealth, GraphMetrics, MetricsMeta,
    WorkerMetrics,
};
pub use phase::{
    phase_start, profiling_enabled, read_phase, set_profiling, write_phase, Phase, PhaseProfile,
    PhaseTimer,
};
pub use trace::{
    event_jsonl, write_event_fields, CaptureSink, JsonlSink, MemorySink, StderrSink, TraceEvent,
    TraceKey, TraceKind, TraceSink, FENCE_OBJ,
};
