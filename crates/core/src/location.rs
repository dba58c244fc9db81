//! Per-location access histories (`ALocs` / `ALocInfo` of Fig. 10).
//!
//! C11Tester keeps, for each atomic location, a *per-thread* list of the
//! atomic accesses performed there (paper §4.1: "C11Tester maintains a
//! per-thread list of atomic memory accesses to each memory location").
//! All lists are sorted by sequence number because events are appended
//! as they execute, which lets the `last(...)` helper functions of
//! Fig. 12/13 run as binary searches. Each entry carries its sequence
//! number beside the arena reference, so a search compares keys in the
//! list it scans instead of dereferencing the store/load arenas on
//! every probe.

use crate::event::{AccessRef, SeqNum, StoreIdx};

/// History of one thread's accesses to one location.
#[derive(Clone, Debug, Default)]
pub struct PerThreadLoc {
    /// `stores(t, a)`: stores and RMWs by this thread, in seq order.
    pub stores: Vec<(SeqNum, StoreIdx)>,
    /// `loads_stores(t, a)`: loads, stores, and RMWs, in seq order.
    pub accesses: Vec<(SeqNum, AccessRef)>,
    /// `sc_stores(t, a)`: the seq_cst subset of `stores`, in seq order.
    pub sc_stores: Vec<(SeqNum, StoreIdx)>,
    /// The subset of `stores` no RMW has read from yet, in seq order —
    /// the only stores an RMW may still read (RMW atomicity), so RMW
    /// candidates are enumerated from here instead of filtering
    /// `stores`, most of which a long RMW chain has consumed.
    pub rmw_free: Vec<(SeqNum, StoreIdx)>,
}

/// Length of the prefix of the seq-sorted `list` whose sequence
/// numbers are `≤ bound`. The two common answers — everything (the
/// bound is a clock slot that already covers the thread's history) and
/// nothing — cost one compare each; only a bound that falls inside the
/// list bisects.
pub fn seq_prefix_len<T>(list: &[(SeqNum, T)], bound: u64) -> usize {
    let (Some(first), Some(last)) = (list.first(), list.last()) else {
        return 0;
    };
    if last.0 .0 <= bound {
        list.len()
    } else if bound < first.0 .0 {
        0
    } else {
        list.partition_point(|e| e.0 .0 <= bound)
    }
}

/// Last entry of the seq-sorted `list` with sequence number `≤ bound`.
pub fn last_at_or_before<T: Copy>(list: &[(SeqNum, T)], bound: u64) -> Option<(SeqNum, T)> {
    seq_prefix_len(list, bound).checked_sub(1).map(|p| list[p])
}

impl PerThreadLoc {
    /// True if the thread never touched the location.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Empties the history lists without releasing their storage
    /// (execution-state recycling).
    fn reset(&mut self) {
        self.stores.clear();
        self.accesses.clear();
        self.sc_stores.clear();
        self.rmw_free.clear();
    }
}

/// History of all accesses to one atomic location.
#[derive(Clone, Debug, Default)]
pub struct LocationState {
    /// Per-thread histories, indexed by `ThreadId::index()`.
    pub per_thread: Vec<PerThreadLoc>,
    /// `last_sc_store(a, ·)`: the most recent seq_cst store at this
    /// location (the SC order coincides with execution order because
    /// visible operations are sequentialized).
    pub last_sc_store: Option<StoreIdx>,
    /// The most recent store in *execution* order regardless of thread —
    /// used by the restricted tsan11/tsan11rec policies (which require
    /// `mo` to embed in execution order) and by mixed-mode handling.
    pub last_store_exec: Option<StoreIdx>,
    /// Whether the last write to this location was a non-atomic store
    /// (paper §7.2 — the shadow-word bit that triggers special handling
    /// when a subsequent atomic access arrives).
    pub last_write_nonatomic: bool,
    /// Count of pruned store records formerly at this location.
    pub pruned_stores: u64,
}

impl LocationState {
    /// Mutable access to thread `ix`'s history, growing the table.
    pub fn thread_mut(&mut self, ix: usize) -> &mut PerThreadLoc {
        if self.per_thread.len() <= ix {
            self.per_thread.resize_with(ix + 1, PerThreadLoc::default);
        }
        &mut self.per_thread[ix]
    }

    /// Shared access to thread `ix`'s history, if it exists.
    pub fn thread(&self, ix: usize) -> Option<&PerThreadLoc> {
        self.per_thread.get(ix)
    }

    /// Iterates over `(thread index, history)` pairs that have activity.
    pub fn threads(&self) -> impl Iterator<Item = (usize, &PerThreadLoc)> {
        self.per_thread
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.is_empty())
    }

    /// Total number of live store records across all threads.
    pub fn store_count(&self) -> usize {
        self.per_thread.iter().map(|h| h.stores.len()).sum()
    }

    /// Resets the location to its never-accessed state while retaining
    /// every history list's capacity (execution-state recycling). A
    /// reset location is indistinguishable from a fresh
    /// `LocationState::default()` through the public API: the emptied
    /// per-thread slots are skipped by [`LocationState::threads`].
    pub fn reset(&mut self) {
        for h in &mut self.per_thread {
            h.reset();
        }
        self.last_sc_store = None;
        self.last_store_exec = None;
        self.last_write_nonatomic = false;
        self.pruned_stores = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LoadIdx;

    #[test]
    fn thread_table_grows_on_demand() {
        let mut loc = LocationState::default();
        loc.thread_mut(3).stores.push((SeqNum(1), StoreIdx(0)));
        assert_eq!(loc.per_thread.len(), 4);
        assert!(loc.thread(0).is_some());
        assert!(loc.thread(0).expect("slot 0 exists").is_empty());
        assert!(loc.thread(9).is_none());
        assert_eq!(loc.store_count(), 1);
    }

    #[test]
    fn seq_prefix_len_matches_a_linear_count() {
        let list: Vec<(SeqNum, ())> = [2u64, 5, 5, 9].iter().map(|&s| (SeqNum(s), ())).collect();
        for bound in 0..12 {
            let expect = list.iter().filter(|e| e.0 .0 <= bound).count();
            assert_eq!(seq_prefix_len(&list, bound), expect, "bound {bound}");
        }
        assert_eq!(seq_prefix_len::<()>(&[], 7), 0);
    }

    #[test]
    fn threads_iter_skips_idle_threads() {
        let mut loc = LocationState::default();
        loc.thread_mut(2)
            .accesses
            .push((SeqNum(1), AccessRef::Load(LoadIdx(0))));
        let active: Vec<usize> = loc.threads().map(|(ix, _)| ix).collect();
        assert_eq!(active, vec![2]);
    }
}
