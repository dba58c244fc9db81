//! Per-execution phase profiling.
//!
//! The engine's hot loop decomposes into a handful of recurring
//! phases (scheduling, read-from candidate selection, mo-graph
//! maintenance, race detection, pruning). A [`PhaseProfile`]
//! accumulates wall-clock nanoseconds and call counts per phase; the
//! profile rides next to the behavioral `ExecStats` counters but —
//! like the allocator diagnostics — is **excluded from stats equality
//! and default canonical JSON**, because timing is nondeterministic
//! and the determinism contract only covers behavior.
//!
//! Profiling is globally gated by an [`AtomicBool`]: when disabled
//! (the default) a profiling site costs one relaxed load and no
//! `Instant` syscall, keeping the disabled-telemetry overhead within
//! the ≤2% bench budget.

use crate::json::{JsonValue, JsonWriter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The recurring phases of one model-checked execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Picking the next runnable thread at a schedule point.
    Scheduling,
    /// Read-from candidate enumeration + feasibility filtering.
    ReadFrom,
    /// Modification-order graph maintenance (edge insertion, cycle
    /// bookkeeping).
    MoGraph,
    /// Data-race detection (vector-clock checks on each access).
    RaceDetect,
    /// Dead-prefix pruning passes over the committed history.
    Prune,
}

/// Number of [`Phase`] variants (array dimension of a profile).
pub const PHASE_COUNT: usize = 5;

impl Phase {
    /// All phases, in canonical emission order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Scheduling,
        Phase::ReadFrom,
        Phase::MoGraph,
        Phase::RaceDetect,
        Phase::Prune,
    ];

    /// Stable snake_case name used in `c11metrics/v1` JSON.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Scheduling => "scheduling",
            Phase::ReadFrom => "read_from",
            Phase::MoGraph => "mo_graph",
            Phase::RaceDetect => "race_detect",
            Phase::Prune => "prune",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Accumulated per-phase wall time and call counts.
///
/// `Copy` and array-backed so it can live inside `ExecStats` without
/// touching the recycled hot path's allocation-free guarantee.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    nanos: [u64; PHASE_COUNT],
    calls: [u64; PHASE_COUNT],
}

impl PhaseProfile {
    /// Adds one timed interval to `phase`.
    pub fn record(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase.idx()] = self.nanos[phase.idx()].saturating_add(nanos);
        self.calls[phase.idx()] += 1;
    }

    /// Folds another profile in (order-independent, like every other
    /// aggregate in the workspace).
    pub fn absorb(&mut self, other: &PhaseProfile) {
        for i in 0..PHASE_COUNT {
            self.nanos[i] = self.nanos[i].saturating_add(other.nanos[i]);
            self.calls[i] += other.calls[i];
        }
    }

    /// Accumulated nanoseconds in `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.idx()]
    }

    /// Number of timed intervals recorded for `phase`.
    pub fn calls(&self, phase: Phase) -> u64 {
        self.calls[phase.idx()]
    }

    /// Sum of nanoseconds across all phases.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }

    /// True when nothing has been recorded (profiling was off).
    pub fn is_empty(&self) -> bool {
        *self == PhaseProfile::default()
    }

    /// Clears all counters (execution-state recycling).
    pub fn reset(&mut self) {
        *self = PhaseProfile::default();
    }
}

/// Writes `profile` as the `c11metrics/v1` `phase` object: one
/// `{"nanos":…,"calls":…}` entry per phase in [`Phase::ALL`] order,
/// then the derived `total_nanos`. The fork server's `batch` frame
/// carries the same object.
pub fn write_phase(w: &mut JsonWriter, profile: &PhaseProfile) {
    w.object(|w| {
        for phase in Phase::ALL {
            w.key(phase.name()).object(|w| {
                w.key("nanos").u64(profile.nanos(phase));
                w.key("calls").u64(profile.calls(phase));
            });
        }
        w.key("total_nanos").u64(profile.total_nanos());
    });
}

/// Inverse of [`write_phase`] (`total_nanos` is derived and ignored).
pub fn read_phase(v: &JsonValue) -> Result<PhaseProfile, String> {
    let mut profile = PhaseProfile::default();
    for phase in Phase::ALL {
        let entry = v.field(phase.name())?;
        profile.nanos[phase.idx()] = entry.u64_field("nanos")?;
        profile.calls[phase.idx()] = entry.u64_field("calls")?;
    }
    Ok(profile)
}

/// Global profiling gate. Off by default; flipped on by
/// `c11campaign --metrics-out` (and the hidden worker mode's
/// `--profile-phases` flag).
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Enables or disables phase profiling process-wide.
pub fn set_profiling(enabled: bool) {
    PROFILING.store(enabled, Ordering::Relaxed);
}

/// Whether phase profiling is currently enabled.
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// A running phase timer; stop it into a profile with
/// [`PhaseTimer::stop`].
#[derive(Debug)]
pub struct PhaseTimer {
    phase: Phase,
    start: Instant,
}

impl PhaseTimer {
    /// Ends the interval and records it into `profile`.
    pub fn stop(self, profile: &mut PhaseProfile) {
        let nanos = self.start.elapsed().as_nanos();
        profile.record(self.phase, u64::try_from(nanos).unwrap_or(u64::MAX));
    }
}

/// Starts a timer for `phase`, or returns `None` when profiling is
/// disabled (one relaxed atomic load; no clock read).
#[inline]
pub fn phase_start(phase: Phase) -> Option<PhaseTimer> {
    if !profiling_enabled() {
        return None;
    }
    Some(PhaseTimer {
        phase,
        start: Instant::now(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_absorb_accumulate() {
        let mut a = PhaseProfile::default();
        a.record(Phase::Scheduling, 10);
        a.record(Phase::Scheduling, 5);
        a.record(Phase::Prune, 7);
        assert_eq!(a.nanos(Phase::Scheduling), 15);
        assert_eq!(a.calls(Phase::Scheduling), 2);
        assert_eq!(a.total_nanos(), 22);

        let mut b = PhaseProfile::default();
        b.record(Phase::Prune, 3);
        b.absorb(&a);
        assert_eq!(b.nanos(Phase::Prune), 10);
        assert_eq!(b.calls(Phase::Prune), 2);
        assert_eq!(b.total_nanos(), 25);
        assert!(!b.is_empty());
        b.reset();
        assert!(b.is_empty());
    }

    #[test]
    fn json_round_trips() {
        let mut p = PhaseProfile::default();
        p.record(Phase::MoGraph, 42);
        p.record(Phase::RaceDetect, 9);
        let mut w = JsonWriter::new();
        write_phase(&mut w, &p);
        let json = w.finish();
        assert!(json.ends_with(",\"total_nanos\":51}"), "{json}");
        let doc = JsonValue::parse(&json).expect("valid JSON");
        assert_eq!(read_phase(&doc), Ok(p));
    }

    #[test]
    fn timers_respect_the_global_gate() {
        set_profiling(false);
        assert!(phase_start(Phase::Scheduling).is_none());
        set_profiling(true);
        let mut profile = PhaseProfile::default();
        let timer = phase_start(Phase::ReadFrom).expect("enabled");
        timer.stop(&mut profile);
        assert_eq!(profile.calls(Phase::ReadFrom), 1);
        set_profiling(false);
    }
}
