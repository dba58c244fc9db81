//! # c11tester-core
//!
//! The memory-model engine of **c11tester-rs**, a Rust reproduction of
//! *C11Tester: A Race Detector for C/C++ Atomics* (Luo & Demsky,
//! ASPLOS 2021).
//!
//! This crate is the paper's primary contribution in library form: an
//! operational model of (a fragment of) the C/C++11 memory model that
//!
//! * keeps the **modification order constraint-based** — decisions about
//!   `mo` are only ever *implied* by program-visible choices such as
//!   which store a load reads from (§4);
//! * answers mo-graph reachability queries with **clock vectors**
//!   instead of graph traversals (§4.2, Theorem 1), scaling to millions
//!   of stores;
//! * never needs **rollback**: before an `rf` edge is established, the
//!   prior-set check (§4.3, Fig. 13) proves the implied edges keep the
//!   graph acyclic;
//! * supports the **larger fragment** `hb ∪ sc ∪ rf` acyclic (out-of-
//!   thin-air excluded, `mo` free to disagree with execution order),
//!   plus the restricted tsan11/tsan11rec fragments for baseline
//!   comparison ([`Policy`]);
//! * **prunes** the execution graph conservatively or aggressively so
//!   memory stays bounded on long runs (§7.1).
//!
//! The crate is deliberately runtime-agnostic: it is a deterministic
//! state machine driven one visible operation at a time. Thread control
//! lives in `c11tester-runtime`, race detection in `c11tester-race`,
//! and the user-facing API in `c11tester`.
//!
//! ## Example
//!
//! Drive the message-passing litmus test by hand and observe that an
//! acquire load that reads the release store synchronizes:
//!
//! ```
//! use c11tester_core::{Execution, MemOrder, Policy, StoreKind, ThreadId};
//!
//! let mut e = Execution::new(Policy::C11Tester);
//! let main = ThreadId::MAIN;
//! let (data, flag) = (e.new_object(), e.new_object());
//! e.atomic_store(main, data, MemOrder::Relaxed, 0, StoreKind::Atomic);
//! e.atomic_store(main, flag, MemOrder::Relaxed, 0, StoreKind::Atomic);
//! let producer = e.fork(main);
//! let consumer = e.fork(main);
//! let s_data = e.atomic_store(producer, data, MemOrder::Relaxed, 42, StoreKind::Atomic);
//! let s_flag = e.atomic_store(producer, flag, MemOrder::Release, 1, StoreKind::Atomic);
//! // The consumer's acquire load reads the release store...
//! assert!(e.check_read_feasible(consumer, flag, MemOrder::Acquire, s_flag));
//! assert_eq!(e.commit_load(consumer, flag, MemOrder::Acquire, s_flag), 1);
//! // ...so the stale data value is no longer readable:
//! let feasible = e.feasible_read_candidates(consumer, data, MemOrder::Relaxed, false);
//! assert_eq!(feasible, vec![s_data]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod event;
pub mod exec;
pub mod location;
pub mod mograph;
pub mod policy;
pub mod priorset;
pub mod prune;
pub mod readfrom;
pub mod stats;

pub use clock::{ClockVector, INLINE_SLOTS};
pub use event::{
    AccessRef, FenceIdx, LoadIdx, LoadRecord, MemOrder, ObjId, SeqNum, StoreIdx, StoreKind,
    StoreRecord, ThreadId,
};
pub use exec::{Execution, ThreadState};
pub use mograph::{MoGraph, MoGraphStats, NodeId};
pub use policy::Policy;
pub use prune::{PruneConfig, PruneMode};
pub use stats::{AllocStats, ExecStats};

// Re-exported so the layers above can record phases and consume trace
// events and coverage signatures without naming the telemetry crate
// directly.
pub use c11tester_telemetry::{
    coverage_enabled, set_coverage, CaptureSink, ExecCoverage, GraphMetrics, Phase, PhaseProfile,
    TraceEvent, TraceKey, TraceKind, TraceSink, FENCE_OBJ,
};
