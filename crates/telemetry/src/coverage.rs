//! Per-execution behavior-coverage signatures.
//!
//! A campaign that only reports races found and execs/sec says nothing
//! about *what* the checker explored. [`ExecCoverage`] is the raw
//! per-execution signature captured at the core commit points while
//! coverage collection is enabled ([`set_coverage`]): the distinct
//! reads-from edges (store-thread → load-thread per object), the
//! distinct modification-order adjacencies, and a coarse interleaving
//! signature (an FNV-1a hash over the execution's preemption points).
//! The layers above fold these signatures into a mergeable
//! `CoverageMap` (in `c11tester-race`) keyed by campaign execution
//! index.
//!
//! Like every other telemetry surface, coverage is **diagnostic, never
//! behavioral**: collection is gated on one relaxed atomic (default
//! off), the signature never influences scheduling or read-from
//! choice, and nothing here enters default canonical campaign JSON.
//! The edge keys use thread *indices* and object ids, both of which
//! are pure functions of `(seed, execution index)` under the model's
//! determinism contract — so the aggregated map is byte-stable across
//! worker counts and isolation modes.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

/// Global coverage-collection gate (one relaxed atomic, mirroring
/// [`crate::set_profiling`]).
static COVERAGE: AtomicBool = AtomicBool::new(false);

/// Enables or disables behavior-coverage collection process-wide.
/// Sampled once per execution (at reset), not per event.
pub fn set_coverage(enabled: bool) {
    COVERAGE.store(enabled, Ordering::Relaxed);
}

/// Whether behavior-coverage collection is enabled.
pub fn coverage_enabled() -> bool {
    COVERAGE.load(Ordering::Relaxed)
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Mixes one `u64` into an FNV-1a running hash, byte by byte.
#[inline]
pub fn fnv1a_mix(hash: u64, word: u64) -> u64 {
    fnv1a_bytes(hash, &word.to_le_bytes())
}

/// FNV-1a-64 of a byte string (the fork-server wire's frame digest).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_bytes(FNV_OFFSET, bytes)
}

#[inline]
fn fnv1a_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One execution's behavior signature, captured at the commit points
/// of the core execution while [`coverage_enabled`] holds.
///
/// Empty (`collected == false`, no allocation beyond the struct) when
/// collection is disabled — the default — so the hot path costs one
/// boolean test per commit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecCoverage {
    /// Whether this execution ran with collection enabled. A map layer
    /// must ignore signatures with `collected == false` (an empty set
    /// from a collecting execution is meaningful; from a
    /// non-collecting one it is not).
    pub collected: bool,
    /// Distinct reads-from edges `(obj, store thread, load thread)`
    /// committed by this execution.
    pub rf_edges: BTreeSet<(u64, u64, u64)>,
    /// Distinct modification-order adjacencies
    /// `(obj, from-store thread, to-store thread)` added by this
    /// execution.
    pub mo_edges: BTreeSet<(u64, u64, u64)>,
    /// Coarse interleaving signature: FNV-1a over the execution's
    /// preemption points (the `(sequence number, incoming thread)`
    /// pairs at every thread switch).
    pub interleaving_hash: u64,
}

impl ExecCoverage {
    /// A signature primed for a collecting execution.
    pub fn collecting() -> Self {
        ExecCoverage {
            collected: true,
            interleaving_hash: FNV_OFFSET,
            ..ExecCoverage::default()
        }
    }

    /// Rewinds to the start-of-execution state, retaining set capacity
    /// where the standard library allows; `collect` re-arms or disarms
    /// the signature for the next execution.
    pub fn reset(&mut self, collect: bool) {
        self.collected = collect;
        self.rf_edges.clear();
        self.mo_edges.clear();
        self.interleaving_hash = if collect { FNV_OFFSET } else { 0 };
    }

    /// Records a committed reads-from edge.
    #[inline]
    pub fn record_rf(&mut self, obj: u64, store_thread: u64, load_thread: u64) {
        self.rf_edges.insert((obj, store_thread, load_thread));
    }

    /// Records a modification-order adjacency.
    #[inline]
    pub fn record_mo(&mut self, obj: u64, from_thread: u64, to_thread: u64) {
        self.mo_edges.insert((obj, from_thread, to_thread));
    }

    /// Folds one preemption point (a thread switch at global sequence
    /// number `seq` onto `thread`) into the interleaving hash.
    #[inline]
    pub fn record_switch(&mut self, seq: u64, thread: u64) {
        self.interleaving_hash = fnv1a_mix(fnv1a_mix(self.interleaving_hash, seq), thread);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_mix(FNV_OFFSET, 7), fnv1a(&7u64.to_le_bytes()));
    }

    #[test]
    fn gate_defaults_off_and_toggles() {
        // Other tests in this crate do not touch the gate.
        assert!(!coverage_enabled());
        set_coverage(true);
        assert!(coverage_enabled());
        set_coverage(false);
        assert!(!coverage_enabled());
    }

    #[test]
    fn signature_records_deduplicated_edges() {
        let mut c = ExecCoverage::collecting();
        assert!(c.collected);
        c.record_rf(3, 0, 1);
        c.record_rf(3, 0, 1);
        c.record_rf(3, 1, 0);
        c.record_mo(3, 0, 1);
        assert_eq!(c.rf_edges.len(), 2);
        assert_eq!(c.mo_edges.len(), 1);
    }

    #[test]
    fn interleaving_hash_is_order_sensitive_and_deterministic() {
        let mut a = ExecCoverage::collecting();
        a.record_switch(4, 1);
        a.record_switch(9, 0);
        let mut b = ExecCoverage::collecting();
        b.record_switch(4, 1);
        b.record_switch(9, 0);
        assert_eq!(a.interleaving_hash, b.interleaving_hash);
        let mut c = ExecCoverage::collecting();
        c.record_switch(9, 0);
        c.record_switch(4, 1);
        assert_ne!(a.interleaving_hash, c.interleaving_hash);
    }

    #[test]
    fn reset_rearms_or_disarms() {
        let mut c = ExecCoverage::collecting();
        c.record_rf(1, 0, 1);
        c.record_switch(2, 1);
        c.reset(true);
        assert!(c.collected);
        assert!(c.rf_edges.is_empty());
        assert_eq!(
            c.interleaving_hash,
            ExecCoverage::collecting().interleaving_hash
        );
        c.reset(false);
        assert_eq!(c, ExecCoverage::default());
    }
}
