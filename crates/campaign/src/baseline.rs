//! The workspace's one JSON reader ([`JsonValue`], in
//! `c11tester_telemetry::json`), re-exported where `c11perf` reads
//! campaign and benchmark documents from.

pub use c11tester_telemetry::json::JsonValue;
