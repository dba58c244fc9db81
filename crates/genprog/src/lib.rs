//! # c11tester-genprog
//!
//! Generated-program fuzzing for the c11tester engine (ISSUE 9): a
//! seeded generator over the atomic-op grammar, an **independent**
//! C11-axiom oracle that re-validates committed execution traces
//! without sharing any code with the engine's clock vectors or
//! mo-graph, a small-scope exhaustive outcome enumerator, and a
//! deterministic grammar shrinker.
//!
//! The pieces compose into one differential-testing loop
//! ([`fuzz_pseed`]): generate a program from a `pseed`, sweep it
//! through the model with schedule tracing on, re-check every trace
//! against the axioms, and — for tiny programs — check that every
//! observed outcome lies in the exhaustively enumerated allowed set.
//! A disagreement shrinks to a minimal reproducer and serializes as a
//! `c11fuzz/v1` [`MismatchReport`] keyed by `(pseed, seed, epoch,
//! index)`.
//!
//! Programs are pure functions of their `pseed`, so `gen:<pseed>`
//! campaign targets (registered in the campaign crate's target table)
//! inherit the workspace determinism contract: canonical campaign
//! JSON over a `gen` target is byte-identical for any worker count,
//! in-process or isolated.

#![warn(missing_docs)]

pub mod enumerate;
pub mod fuzz;
pub mod oracle;
pub mod program;
pub mod report;
pub mod run;
pub mod shrink;

pub use enumerate::{enumerate_outcomes, Outcome};
pub use fuzz::{fuzz_pseed, FuzzParams};
pub use oracle::{check_trace, outcome, Violation};
pub use program::{order_name, Op, Program, SplitMix64};
pub use report::MismatchReport;
pub use run::{run_program, run_shared, sweep, SweepCapture};
pub use shrink::shrink;
