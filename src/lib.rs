//! # c11tester-rs
//!
//! Umbrella crate for the **c11tester-rs** workspace — a Rust
//! reproduction of *C11Tester: A Race Detector for C/C++ Atomics*
//! (Luo & Demsky, ASPLOS 2021).
//!
//! The workspace is layered:
//!
//! * [`core`] (`c11tester-core`) — the constraint-based C/C++11
//!   memory-model engine (mo-graph, clock vectors, prior sets);
//! * [`runtime`] (`c11tester-runtime`) — run-token handover and
//!   pluggable testing strategies;
//! * [`race`] (`c11tester-race`) — FastTrack-style race detection with
//!   a mergeable cross-execution dedup history;
//! * [`model`] (`c11tester`) — the user-facing `std`-shaped API and
//!   the per-execution [`model::Model`] driver;
//! * [`campaign`] (`c11tester-campaign`) — parallel exploration
//!   campaigns that shard thousands of executions across worker
//!   threads with deterministic per-execution seeds, optionally in
//!   epochs whose strategy mix a deterministic bandit controller (UCB1,
//!   EXP3-style) reweights from the live per-strategy detection
//!   columns.
//!
//! This crate re-exports them under one roof and hosts the
//! `c11campaign` and `c11fuzz` binaries, the repository's `examples/`
//! and its end-to-end and cross-crate integration tests.

#![warn(missing_docs)]

pub use c11tester as model;
pub use c11tester_campaign as campaign;
pub use c11tester_core as core;
pub use c11tester_race as race;
pub use c11tester_runtime as runtime;
