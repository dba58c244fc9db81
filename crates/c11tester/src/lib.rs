//! # c11tester
//!
//! A Rust reproduction of **C11Tester** (Luo & Demsky, ASPLOS 2021): a
//! controlled-scheduling tester and data-race detector for programs
//! that use C/C++11-style atomics.
//!
//! Write the program under test against this crate's `std`-shaped API
//! ([`thread`], [`sync::atomic`], [`sync::Mutex`], [`Shared`] data
//! cells), then run it repeatedly under a [`Model`]. Every execution:
//!
//! * sequentializes *visible operations* and lets a pluggable testing
//!   strategy pick which thread runs and which store each atomic load
//!   reads from (paper §3) — so relaxed atomics really exhibit their
//!   ARM-observable weak behaviors, including modification orders that
//!   disagree with execution order (the fragment tsan11/tsan11rec
//!   cannot produce, §2.2);
//! * tracks happens-before with clock vectors and the modification
//!   order with the constraint-based mo-graph (§4);
//! * checks every shared access with a FastTrack-style detector (§7.2)
//!   and reports races, assertion violations, and deadlocks.
//!
//! ```
//! use c11tester::{Config, Model};
//! use c11tester::sync::atomic::{AtomicU32, Ordering};
//! use c11tester::Shared;
//! use std::sync::Arc;
//!
//! // Message passing with a *relaxed* flag: the data race is detected.
//! let mut model = Model::new(Config::new().with_seed(7));
//! let report = model.check(100, || {
//!     let data = Arc::new(Shared::named("data", 0u32));
//!     let flag = Arc::new(AtomicU32::named("flag", 0));
//!     let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
//!     let t = c11tester::thread::spawn(move || {
//!         d2.set(42);
//!         f2.store(1, Ordering::Relaxed); // bug: should be Release
//!     });
//!     if flag.load(Ordering::Relaxed) == 1 {
//!         let _ = data.get(); // races with d2.set(42)
//!     }
//!     t.join();
//! });
//! assert!(report.executions_with_race > 0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod atomic;
mod cell;
mod config;
mod ctx;
mod engine;
mod model;
mod mutex;
mod report;
mod rwlock;
pub mod thread;
mod volatile;

pub use cell::{Shared, SharedArray};
pub use config::{
    Config, Strategy, StrategyMix, DEFAULT_BURST_MEAN, DEFAULT_PCT_OPS, MAX_NORMAL_WEIGHT,
};
pub use model::{Model, ModelParts};
pub use report::{
    AccessKind, AccessShape, BehaviorStats, CoverageMap, DedupEntry, DedupHistory, ExecutionReport,
    Failure, RaceKey, RaceKind, RaceReport, StrategyBucket, StrategyLedger, TestReport,
};
pub use volatile::{VolatileBool, VolatileU32, VolatileU64, VolatileUsize};

pub use c11tester_core::{
    CaptureSink, ExecCoverage, ExecStats, MemOrder, MoGraphPerfStats, Policy, PruneConfig,
    PruneMode, ThreadId, TraceEvent, TraceKey, TraceKind, TraceSink, FENCE_OBJ,
};
pub use c11tester_runtime::{
    BurstScheduler, HandoverKind, PctScheduler, RandomScheduler, Scheduler, ScriptedScheduler,
};
pub use c11tester_telemetry::{
    coverage_enabled, set_coverage, set_tracing, tracing_enabled, JsonlSink, MemorySink, StderrSink,
};

/// Synchronization primitives (`std::sync` shaped).
pub mod sync {
    pub use crate::mutex::{Condvar, Mutex, MutexGuard};
    pub use crate::rwlock::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// Model atomics (`std::sync::atomic` shaped).
    pub mod atomic {
        pub use crate::atomic::{
            fence, AtomicBool, AtomicI32, AtomicI64, AtomicU16, AtomicU32, AtomicU64, AtomicU8,
            AtomicUsize, Ordering, RawAtomic,
        };
    }
}
