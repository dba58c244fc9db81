//! The FastTrack-style race detector (paper §7.2).
//!
//! Conflict rule: two accesses to the same cell race iff they are not
//! ordered by happens-before, at least one is a write, and at least one
//! is non-atomic. (Atomic–atomic pairs never race; volatile accesses
//! are converted to atomics, and races *involving* them on
//! volatile-registered locations are elided from reports — but counted —
//! because legacy code routinely uses volatiles as atomics, §8.2 Silo.)
//!
//! The fast path is one packed shadow word per cell; mixed atomic /
//! non-atomic histories, concurrent reader sets, and clock/tid overflow
//! inflate to an expanded record, mirroring the paper's design.

use crate::dedup::RaceKey;
use crate::report::{AccessKind, RaceKind, RaceReport};
use crate::shadow::{Epoch, PackedShadow, ShadowWord};
use c11tester_core::{ClockVector, ObjId, ThreadId};
use std::collections::HashSet;
use std::sync::OnceLock;

/// Whether `C11TESTER_RACE_DEBUG` is set: read once per process, not
/// once per race (an environment scan under the env lock).
fn race_debug() -> bool {
    static DEBUG: OnceLock<bool> = OnceLock::new();
    *DEBUG.get_or_init(|| std::env::var_os("C11TESTER_RACE_DEBUG").is_some())
}

/// Expanded access record: full read vectors split by atomicity.
#[derive(Clone, Debug, Default)]
struct Expanded {
    write: Option<Epoch>,
    write_atomic: bool,
    /// Per-thread clocks of the latest non-atomic read.
    reads_nonatomic: ClockVector,
    /// Per-thread clocks of the latest atomic read.
    reads_atomic: ClockVector,
}

/// Location metadata registered by the facade.
#[derive(Clone, Debug)]
struct LocMeta {
    label: Label,
    volatile: bool,
}

/// A location's report label.
#[derive(Clone, Debug)]
enum Label {
    /// Given by the program.
    Named(String),
    /// The `n`th unnamed location of its execution, rendered
    /// `object#n` only when a report needs it.
    Anonymous(u64),
}

/// Per-object dense shadow-word table, indexed by cell offset.
///
/// A missing word and the all-zero word both decode to the
/// never-accessed [`ShadowWord::empty`] (its encoding is 0), so the
/// table can grow lazily and be wiped by zero-filling in place —
/// retaining its capacity across executions.
#[derive(Debug, Default, Clone)]
struct ShadowTable {
    words: Vec<u64>,
}

/// The shadow-memory race detector.
///
/// Shadow state is per *cell* `(object, offset)`; scalar objects use
/// offset 0 and arrays one cell per element. Object ids are dense
/// sequential, so shadow words live in a per-object `Vec<u64>` word
/// table (one indexed lookup per check — no hashing), and location
/// metadata in a dense `Vec` keyed the same way. `begin_execution`
/// clears shadow state **in place, retaining capacity** (the detector
/// is the tool state that survives across executions, so its tables
/// are recycled rather than reallocated) but keeps the
/// report-deduplication set, matching the paper's fork-snapshot
/// behavior of reporting each race once across repeated executions
/// (§7.6).
#[derive(Debug, Default)]
pub struct RaceDetector {
    shadow: Vec<ShadowTable>,
    expanded: Vec<Expanded>,
    meta: Vec<Option<LocMeta>>,
    seen: HashSet<RaceKey>,
    reports: Vec<RaceReport>,
    /// Races detected but elided because they involve volatile cells.
    pub elided_volatile: u64,
    /// Total race checks performed (reads + writes).
    pub checks: u64,
}

impl RaceDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        RaceDetector::default()
    }

    /// Registers a location's label (for reports) and volatility.
    pub fn register(&mut self, obj: ObjId, label: impl Into<String>, volatile: bool) {
        self.register_meta(obj, Label::Named(label.into()), volatile);
    }

    /// Registers the `ordinal`th unnamed location of the execution: its
    /// reports say `object#<ordinal>`. Costs no allocation.
    pub fn register_anonymous(&mut self, obj: ObjId, ordinal: u64, volatile: bool) {
        self.register_meta(obj, Label::Anonymous(ordinal), volatile);
    }

    fn register_meta(&mut self, obj: ObjId, label: Label, volatile: bool) {
        let ix = obj.0 as usize;
        if self.meta.len() <= ix {
            self.meta.resize_with(ix + 1, || None);
        }
        self.meta[ix] = Some(LocMeta { label, volatile });
    }

    /// Clears shadow state and per-execution deduplication for a new
    /// execution. Accumulated (undrained) reports survive. Cross-
    /// execution report deduplication — the paper's "report data races
    /// only once" fork-snapshot behavior — is performed by the model
    /// layer, which also needs the per-execution detection signal for
    /// the detection-rate experiments.
    pub fn begin_execution(&mut self) {
        for table in &mut self.shadow {
            // Zero-fill in place: the all-zero word is the empty shadow
            // word, and the capacity survives for the next execution.
            table.words.fill(0);
        }
        self.expanded.clear();
        self.seen.clear();
    }

    /// Reads the shadow word of a cell (empty when never touched).
    #[inline]
    fn shadow_word(&self, obj: ObjId, offset: u32) -> u64 {
        self.shadow
            .get(obj.0 as usize)
            .and_then(|t| t.words.get(offset as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Writes the shadow word of a cell, growing the dense tables.
    #[inline]
    fn set_shadow_word(&mut self, obj: ObjId, offset: u32, bits: u64) {
        let oix = obj.0 as usize;
        if self.shadow.len() <= oix {
            self.shadow.resize_with(oix + 1, ShadowTable::default);
        }
        let words = &mut self.shadow[oix].words;
        let cell = offset as usize;
        if words.len() <= cell {
            words.resize(cell + 1, 0);
        }
        words[cell] = bits;
    }

    /// Race reports accumulated so far (deduplicated).
    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Number of distinct races reported.
    pub fn race_count(&self) -> usize {
        self.reports.len()
    }

    /// Drains accumulated reports (dedup history is kept).
    pub fn take_reports(&mut self) -> Vec<RaceReport> {
        std::mem::take(&mut self.reports)
    }

    fn label_of(&self, obj: ObjId) -> String {
        self.meta
            .get(obj.0 as usize)
            .and_then(|m| m.as_ref())
            .map(|m| match &m.label {
                Label::Named(name) => name.clone(),
                Label::Anonymous(n) => format!("object#{n}"),
            })
            .unwrap_or_else(|| format!("{obj:?}"))
    }

    fn is_volatile(&self, obj: ObjId) -> bool {
        self.meta
            .get(obj.0 as usize)
            .and_then(|m| m.as_ref())
            .map(|m| m.volatile)
            .unwrap_or(false)
    }

    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        obj: ObjId,
        offset: u32,
        kind: RaceKind,
        current: Epoch,
        current_kind: AccessKind,
        prior_tid: ThreadId,
        prior_atomic: bool,
    ) {
        if self.is_volatile(obj) && current_kind != AccessKind::NonAtomic {
            // Volatile-vs-volatile / volatile-vs-atomic conflicts on a
            // registered volatile location: detected but elided (§8.2) —
            // legacy code routinely implements atomics with volatiles.
            self.elided_volatile += 1;
            return;
        }
        let label = self.label_of(obj);
        if !self.seen.insert(RaceKey {
            label: label.clone(),
            kind,
        }) {
            return;
        }
        if race_debug() {
            eprintln!(
                "RACE DEBUG: {label} kind={kind:?} current={current:?} ({current_kind:?}) prior_tid={prior_tid:?} prior_atomic={prior_atomic}"
            );
        }
        self.reports.push(RaceReport {
            label,
            obj,
            offset,
            kind,
            current_tid: current.tid,
            current_kind,
            prior_tid,
            prior_atomic,
        });
    }

    fn expand(&mut self, packed: PackedShadow) -> u32 {
        let mut exp = Expanded {
            write: (packed.write_clock > 0).then(|| Epoch {
                tid: ThreadId::from_index(packed.write_tid as usize),
                clock: packed.write_clock,
            }),
            write_atomic: packed.write_atomic,
            ..Expanded::default()
        };
        if packed.read_clock > 0 {
            let t = ThreadId::from_index(packed.read_tid as usize);
            if packed.read_atomic {
                exp.reads_atomic.set(t, packed.read_clock);
            } else {
                exp.reads_nonatomic.set(t, packed.read_clock);
            }
        }
        let ix = self.expanded.len() as u32;
        self.expanded.push(exp);
        ix
    }

    /// Processes a read of `(obj, offset)` by `tid` whose current
    /// happens-before clock is `cv`. Returns whether a (new) race was
    /// reported.
    pub fn on_read(
        &mut self,
        obj: ObjId,
        offset: u32,
        tid: ThreadId,
        cv: &ClockVector,
        kind: AccessKind,
    ) -> bool {
        self.checks += 1;
        let epoch = Epoch {
            tid,
            clock: cv.get(tid),
        };
        // Volatile accesses conflict like non-atomic ones (the standard
        // gives them no atomicity); only the *reporting* is elided.
        let atomic = kind == AccessKind::Atomic;
        let bits = self.shadow_word(obj, offset);
        let before = self.reports.len();
        match ShadowWord::decode(bits) {
            ShadowWord::Packed(p) => {
                // Read–write conflict: prior write not hb-ordered, and
                // at least one side non-atomic.
                if p.write_clock > 0 {
                    let wt = ThreadId::from_index(p.write_tid as usize);
                    if wt != tid && p.write_clock > cv.get(wt) && (!atomic || !p.write_atomic) {
                        if race_debug() {
                            eprintln!(
                                "  read-check: wclock={} cv[wt]={} reader cv={cv:?}",
                                p.write_clock,
                                cv.get(wt)
                            );
                        }
                        self.emit(
                            obj,
                            offset,
                            RaceKind::ReadAfterWrite,
                            epoch,
                            kind,
                            wt,
                            p.write_atomic,
                        );
                    }
                }
                // Record the read.
                let rt = ThreadId::from_index(p.read_tid as usize);
                let same_or_ordered = p.read_clock == 0 || rt == tid || p.read_clock <= cv.get(rt);
                if same_or_ordered && ShadowWord::read_epoch_fits(epoch) {
                    let mut np = p;
                    np.read_clock = epoch.clock;
                    np.read_tid = tid.as_u32();
                    np.read_atomic = atomic;
                    self.set_shadow_word(obj, offset, ShadowWord::Packed(np).encode());
                } else {
                    // Concurrent readers or overflow: inflate.
                    let ix = self.expand(p);
                    let exp = &mut self.expanded[ix as usize];
                    if atomic {
                        exp.reads_atomic.set(tid, epoch.clock);
                    } else {
                        exp.reads_nonatomic.set(tid, epoch.clock);
                    }
                    self.set_shadow_word(obj, offset, ShadowWord::Expanded(ix).encode());
                }
            }
            ShadowWord::Expanded(ix) => {
                let (write, write_atomic) = {
                    let exp = &self.expanded[ix as usize];
                    (exp.write, exp.write_atomic)
                };
                if let Some(w) = write {
                    if w.tid != tid && w.clock > cv.get(w.tid) && (!atomic || !write_atomic) {
                        self.emit(
                            obj,
                            offset,
                            RaceKind::ReadAfterWrite,
                            epoch,
                            kind,
                            w.tid,
                            write_atomic,
                        );
                    }
                }
                let exp = &mut self.expanded[ix as usize];
                if atomic {
                    exp.reads_atomic.set(tid, epoch.clock);
                } else {
                    exp.reads_nonatomic.set(tid, epoch.clock);
                }
            }
        }
        self.reports.len() > before
    }

    /// Processes a write of `(obj, offset)` by `tid` whose current
    /// happens-before clock is `cv`. Returns whether a (new) race was
    /// reported.
    pub fn on_write(
        &mut self,
        obj: ObjId,
        offset: u32,
        tid: ThreadId,
        cv: &ClockVector,
        kind: AccessKind,
    ) -> bool {
        self.checks += 1;
        let epoch = Epoch {
            tid,
            clock: cv.get(tid),
        };
        // See on_read: volatile conflicts like non-atomic.
        let atomic = kind == AccessKind::Atomic;
        let bits = self.shadow_word(obj, offset);
        let before = self.reports.len();
        match ShadowWord::decode(bits) {
            ShadowWord::Packed(p) => {
                if p.write_clock > 0 {
                    let wt = ThreadId::from_index(p.write_tid as usize);
                    if wt != tid && p.write_clock > cv.get(wt) && (!atomic || !p.write_atomic) {
                        self.emit(
                            obj,
                            offset,
                            RaceKind::WriteAfterWrite,
                            epoch,
                            kind,
                            wt,
                            p.write_atomic,
                        );
                    }
                }
                if p.read_clock > 0 {
                    let rt = ThreadId::from_index(p.read_tid as usize);
                    if rt != tid && p.read_clock > cv.get(rt) && (!atomic || !p.read_atomic) {
                        self.emit(
                            obj,
                            offset,
                            RaceKind::WriteAfterRead,
                            epoch,
                            kind,
                            rt,
                            p.read_atomic,
                        );
                    }
                }
                if ShadowWord::write_epoch_fits(epoch) {
                    // FastTrack write: record the write epoch, collapse
                    // the read slot.
                    let np = PackedShadow {
                        write_clock: epoch.clock,
                        write_tid: tid.as_u32(),
                        write_atomic: atomic,
                        read_clock: 0,
                        read_tid: 0,
                        read_atomic: false,
                    };
                    self.set_shadow_word(obj, offset, ShadowWord::Packed(np).encode());
                } else {
                    let ix = self.expand(PackedShadow::default());
                    let exp = &mut self.expanded[ix as usize];
                    exp.write = Some(epoch);
                    exp.write_atomic = atomic;
                    self.set_shadow_word(obj, offset, ShadowWord::Expanded(ix).encode());
                }
            }
            ShadowWord::Expanded(ix) => {
                let (write, write_atomic, reads_na, reads_at) = {
                    let exp = &self.expanded[ix as usize];
                    (
                        exp.write,
                        exp.write_atomic,
                        exp.reads_nonatomic.clone(),
                        exp.reads_atomic.clone(),
                    )
                };
                if let Some(w) = write {
                    if w.tid != tid && w.clock > cv.get(w.tid) && (!atomic || !write_atomic) {
                        self.emit(
                            obj,
                            offset,
                            RaceKind::WriteAfterWrite,
                            epoch,
                            kind,
                            w.tid,
                            write_atomic,
                        );
                    }
                }
                for (rt, rc) in reads_na.iter_nonzero() {
                    if rt != tid && rc > cv.get(rt) {
                        self.emit(
                            obj,
                            offset,
                            RaceKind::WriteAfterRead,
                            epoch,
                            kind,
                            rt,
                            false,
                        );
                    }
                }
                if !atomic {
                    for (rt, rc) in reads_at.iter_nonzero() {
                        if rt != tid && rc > cv.get(rt) {
                            self.emit(obj, offset, RaceKind::WriteAfterRead, epoch, kind, rt, true);
                        }
                    }
                }
                let exp = &mut self.expanded[ix as usize];
                exp.write = Some(epoch);
                exp.write_atomic = atomic;
                exp.reads_nonatomic.clear();
                exp.reads_atomic.clear();
            }
        }
        self.reports.len() > before
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ix: usize) -> ThreadId {
        ThreadId::from_index(ix)
    }

    fn cv(entries: &[(usize, u64)]) -> ClockVector {
        let mut c = ClockVector::new();
        for &(ix, v) in entries {
            c.set(t(ix), v);
        }
        c
    }

    const X: ObjId = ObjId(1);

    #[test]
    fn unordered_nonatomic_writes_race() {
        let mut d = RaceDetector::new();
        d.register(X, "x", false);
        assert!(!d.on_write(X, 0, t(0), &cv(&[(0, 1)]), AccessKind::NonAtomic));
        // Thread 1 writes without knowing thread 0's write.
        assert!(d.on_write(X, 0, t(1), &cv(&[(1, 2)]), AccessKind::NonAtomic));
        assert_eq!(d.race_count(), 1);
        assert_eq!(d.reports()[0].kind, RaceKind::WriteAfterWrite);
    }

    #[test]
    fn hb_ordered_writes_do_not_race() {
        let mut d = RaceDetector::new();
        d.register(X, "x", false);
        d.on_write(X, 0, t(0), &cv(&[(0, 1)]), AccessKind::NonAtomic);
        // Thread 1's clock covers thread 0's write.
        assert!(!d.on_write(X, 0, t(1), &cv(&[(0, 1), (1, 2)]), AccessKind::NonAtomic));
        assert_eq!(d.race_count(), 0);
    }

    #[test]
    fn read_write_races_detected_both_directions() {
        let mut d = RaceDetector::new();
        d.register(X, "x", false);
        d.on_write(X, 0, t(0), &cv(&[(0, 1)]), AccessKind::NonAtomic);
        // Unordered read races with the write.
        assert!(d.on_read(X, 0, t(1), &cv(&[(1, 2)]), AccessKind::NonAtomic));
        // A later unordered write races with the read (fresh detector to
        // bypass dedup).
        let mut d2 = RaceDetector::new();
        d2.register(X, "x", false);
        d2.on_read(X, 0, t(0), &cv(&[(0, 1)]), AccessKind::NonAtomic);
        assert!(d2.on_write(X, 0, t(1), &cv(&[(1, 2)]), AccessKind::NonAtomic));
        assert_eq!(d2.reports()[0].kind, RaceKind::WriteAfterRead);
    }

    #[test]
    fn atomic_atomic_never_races() {
        let mut d = RaceDetector::new();
        d.register(X, "x", false);
        d.on_write(X, 0, t(0), &cv(&[(0, 1)]), AccessKind::Atomic);
        assert!(!d.on_write(X, 0, t(1), &cv(&[(1, 2)]), AccessKind::Atomic));
        assert!(!d.on_read(X, 0, t(2), &cv(&[(2, 3)]), AccessKind::Atomic));
        assert_eq!(d.race_count(), 0);
    }

    #[test]
    fn mixed_atomic_nonatomic_races() {
        // atomic_init-style: non-atomic store racing a later atomic load.
        let mut d = RaceDetector::new();
        d.register(X, "x", false);
        d.on_write(X, 0, t(0), &cv(&[(0, 1)]), AccessKind::NonAtomic);
        assert!(d.on_read(X, 0, t(1), &cv(&[(1, 2)]), AccessKind::Atomic));
        // And an atomic read racing a later non-atomic write.
        let mut d2 = RaceDetector::new();
        d2.register(X, "x", false);
        d2.on_read(X, 0, t(0), &cv(&[(0, 1)]), AccessKind::Atomic);
        assert!(d2.on_write(X, 0, t(1), &cv(&[(1, 2)]), AccessKind::NonAtomic));
    }

    #[test]
    fn volatile_races_are_elided_but_counted() {
        let mut d = RaceDetector::new();
        d.register(X, "spinlock", true);
        d.on_write(X, 0, t(0), &cv(&[(0, 1)]), AccessKind::Volatile);
        assert!(!d.on_write(X, 0, t(1), &cv(&[(1, 2)]), AccessKind::Volatile));
        assert_eq!(d.race_count(), 0);
        assert_eq!(d.elided_volatile, 1);
        // A plain non-atomic access on a volatile cell still reports.
        assert!(d.on_write(X, 0, t(2), &cv(&[(2, 3)]), AccessKind::NonAtomic));
    }

    #[test]
    fn duplicate_races_are_reported_once_per_execution() {
        let mut d = RaceDetector::new();
        d.register(X, "x", false);
        d.on_write(X, 0, t(0), &cv(&[(0, 1)]), AccessKind::NonAtomic);
        assert!(d.on_write(X, 0, t(1), &cv(&[(1, 2)]), AccessKind::NonAtomic));
        // Same race shape again within the same execution: deduplicated.
        d.on_write(X, 0, t(0), &cv(&[(0, 3)]), AccessKind::NonAtomic);
        assert!(!d.on_write(X, 0, t(1), &cv(&[(1, 4)]), AccessKind::NonAtomic));
        assert_eq!(d.race_count(), 1);
        // A new execution re-arms detection (the model layer dedups
        // across executions for reporting).
        d.begin_execution();
        d.on_write(X, 0, t(0), &cv(&[(0, 5)]), AccessKind::NonAtomic);
        assert!(d.on_write(X, 0, t(1), &cv(&[(1, 6)]), AccessKind::NonAtomic));
        assert_eq!(d.race_count(), 2);
    }

    #[test]
    fn concurrent_readers_inflate_and_still_catch_racing_write() {
        let mut d = RaceDetector::new();
        d.register(X, "x", false);
        // Two genuinely concurrent readers.
        d.on_read(X, 0, t(0), &cv(&[(0, 1)]), AccessKind::NonAtomic);
        d.on_read(X, 0, t(1), &cv(&[(1, 2)]), AccessKind::NonAtomic);
        // Writer ordered after reader 0 but not reader 1: still a race.
        assert!(d.on_write(X, 0, t(2), &cv(&[(0, 1), (2, 3)]), AccessKind::NonAtomic));
        let r = &d.reports()[0];
        assert_eq!(r.prior_tid, t(1));
    }

    #[test]
    fn clock_overflow_inflates() {
        let mut d = RaceDetector::new();
        d.register(X, "x", false);
        let big = crate::shadow::MAX_WRITE_CLOCK + 10;
        d.on_write(X, 0, t(0), &cv(&[(0, big)]), AccessKind::NonAtomic);
        // Still detects a racing write afterwards.
        assert!(d.on_write(X, 0, t(1), &cv(&[(1, 2)]), AccessKind::NonAtomic));
    }

    #[test]
    fn begin_execution_wipes_dense_tables_in_place() {
        let mut d = RaceDetector::new();
        d.register(X, "x", false);
        // Touch a high offset so the word table has real extent, and
        // force an expanded record via concurrent readers.
        d.on_read(X, 7, t(0), &cv(&[(0, 1)]), AccessKind::NonAtomic);
        d.on_read(X, 7, t(1), &cv(&[(1, 2)]), AccessKind::NonAtomic);
        d.begin_execution();
        // A fresh execution must see never-accessed cells: a single
        // write cannot race against wiped state...
        assert!(!d.on_write(X, 7, t(2), &cv(&[(2, 1)]), AccessKind::NonAtomic));
        assert_eq!(d.race_count(), 0);
        // ...and the metadata (labels) survives the wipe.
        d.on_write(X, 7, t(3), &cv(&[(3, 1)]), AccessKind::NonAtomic);
        assert_eq!(d.reports()[0].label, "x");
    }

    #[test]
    fn anonymous_locations_render_their_ordinal() {
        let mut d = RaceDetector::new();
        d.register_anonymous(X, 3, false);
        d.on_write(X, 0, t(0), &cv(&[(0, 1)]), AccessKind::NonAtomic);
        d.on_write(X, 0, t(1), &cv(&[(1, 1)]), AccessKind::NonAtomic);
        assert_eq!(d.reports()[0].label, "object#3");
    }

    #[test]
    fn unregistered_objects_fall_back_to_debug_labels() {
        let mut d = RaceDetector::new();
        // ObjId(5) never registered: dense meta table must not panic
        // and the report label falls back to the Debug rendering.
        let o = ObjId(5);
        d.on_write(o, 0, t(0), &cv(&[(0, 1)]), AccessKind::NonAtomic);
        assert!(d.on_write(o, 0, t(1), &cv(&[(1, 2)]), AccessKind::NonAtomic));
        assert_eq!(d.reports()[0].label, "obj5");
    }

    #[test]
    fn distinct_offsets_are_independent() {
        let mut d = RaceDetector::new();
        d.register(X, "arr", false);
        d.on_write(X, 0, t(0), &cv(&[(0, 1)]), AccessKind::NonAtomic);
        assert!(!d.on_write(X, 1, t(1), &cv(&[(1, 2)]), AccessKind::NonAtomic));
        assert_eq!(d.race_count(), 0);
    }
}
