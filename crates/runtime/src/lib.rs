//! # c11tester-runtime
//!
//! The controlled-scheduling substrate of **c11tester-rs** (a Rust
//! reproduction of *C11Tester*, ASPLOS 2021): run-token handover
//! between model threads ([`Runtime`], [`Notifier`]), the cell for
//! state the run-token holder owns ([`TokenCell`]), and pluggable
//! testing strategies ([`Scheduler`], [`RandomScheduler`],
//! [`BurstScheduler`], [`PctScheduler`]).
//!
//! The paper controls threads with fibers plus *thread context
//! borrowing* for TLS (§7.3–7.4). The default here is the same design:
//! model threads run as fibers multiplexed on the driver's OS thread
//! (`fiber.rs`), and the run token moves by user-space stack switch.
//! The one alternative, [`HandoverKind::Park`], backs each model
//! thread with a pooled OS thread ([`ThreadPool`]) and moves the token
//! through futex mailboxes: the only path on targets without the
//! context switch, and the twin the tests compare fibers against.
//!
//! This crate knows nothing about the memory model: the `c11tester`
//! facade combines it with `c11tester-core` and `c11tester-race`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod executor;
mod fiber;
pub mod handover;
pub mod pool;
pub mod scheduler;
pub mod token;

pub use executor::{Aborted, Runtime};
pub use handover::{HandoverKind, Notifier};
pub use pool::ThreadPool;
pub use scheduler::{BurstScheduler, PctScheduler, RandomScheduler, Scheduler};
pub use token::{TokenCell, TokenRef};
