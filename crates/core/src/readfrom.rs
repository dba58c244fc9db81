//! `BuildMayReadFrom` (paper Fig. 12).
//!
//! The may-read-from set is an over-approximation of the stores a load
//! may read, considering only the happens-before relation:
//!
//! ```text
//! may-read-from(Y) = { X ∈ stores(Y) | ¬(Y hb→ X) ∧
//!                      (∄ Z ∈ stores(Y). X hb→ Z hb→ Y) }
//! ```
//!
//! Per thread `u`, that is: every store not yet known to the loader
//! (`seq > C_t[u]`), plus the *latest* store the loader already knows
//! (any earlier one is hidden behind it by write-read coherence).
//! Seq_cst loads additionally filter through the last seq_cst store
//! (C++11 §29.3p3), and RMWs may not read a store another RMW already
//! consumed (RMW atomicity).

use crate::event::{MemOrder, ObjId, StoreIdx, ThreadId};
use crate::exec::Execution;
use crate::location::seq_prefix_len;

impl Execution {
    /// Builds the may-read-from set for a prospective load by `t` at
    /// `obj` with the given order (`BuildMayReadFrom`, Fig. 12).
    ///
    /// The result still needs the §4.3 feasibility filter — use
    /// [`Execution::check_read_feasible`] on a picked candidate or
    /// [`Execution::feasible_read_candidates`] for the filtered set.
    pub fn read_candidates(
        &self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        for_rmw: bool,
    ) -> Vec<StoreIdx> {
        let mut ret = Vec::new();
        self.read_candidates_into(t, obj, order, for_rmw, &mut ret);
        ret
    }

    /// [`Execution::read_candidates`] into a caller-provided buffer
    /// (cleared first) — the allocation-free hot path; the engine
    /// threads one reusable buffer through every load.
    pub fn read_candidates_into(
        &self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        for_rmw: bool,
        ret: &mut Vec<StoreIdx>,
    ) {
        ret.clear();
        let Some(loc) = self.loc(obj) else {
            return;
        };
        let ct = &self.threads[t.index()].cv;
        for (uix, h) in loc.threads() {
            // Stores are in seq order: split into "already known to the
            // loader" (hb-before) and "unseen". The newest hb-known
            // store per thread stays readable, so the candidates start
            // one entry before the split.
            let bound = ct.get(ThreadId::from_index(uix));
            let known = seq_prefix_len(&h.stores, bound);
            let readable = if for_rmw {
                // The same range restricted to stores no RMW consumed:
                // the newest hb-known store counts only if it is the
                // newest hb-known *unconsumed* one too.
                let free_known = seq_prefix_len(&h.rmw_free, bound);
                let newest_is_free =
                    free_known > 0 && h.rmw_free[free_known - 1].0 == h.stores[known - 1].0;
                &h.rmw_free[free_known - usize::from(newest_is_free)..]
            } else {
                &h.stores[known.saturating_sub(1)..]
            };
            ret.extend(readable.iter().map(|&(_, s)| s));
        }
        debug_assert!(
            !for_rmw
                || ret
                    .iter()
                    .all(|&x| self.stores[x.index()].rmw_read_by.is_none()),
            "rmw_free lists a consumed store"
        );
        if order.is_seq_cst() {
            ret.retain(|&x| self.sc_read_allowed(obj, order, x));
        }
    }

    /// Fig. 12 lines 9–11 as a single-candidate predicate: may a load
    /// with `order` read from `cand` given the current last seq_cst
    /// store at `obj` (C++11 §29.3p3)? Non-seq_cst orders are
    /// unconstrained.
    ///
    /// This is both the filter [`Execution::read_candidates_into`]
    /// applies to the whole candidate set and part of
    /// [`Execution::check_read_feasible`] — the latter matters for
    /// failed compare-exchanges, whose candidate was selected under
    /// the *success* ordering and must be re-vetted under the failure
    /// ordering.
    pub(crate) fn sc_read_allowed(&self, obj: ObjId, order: MemOrder, cand: StoreIdx) -> bool {
        if !order.is_seq_cst() {
            return true;
        }
        let Some(anchor) = self.loc(obj).and_then(|l| l.last_sc_store) else {
            return true;
        };
        if cand == anchor {
            return true;
        }
        let aref = &self.stores[anchor.index()];
        let xr = &self.stores[cand.index()];
        // X sc→ anchor: both seq_cst, X earlier in the SC order
        // (= execution order under sequentialized visible ops).
        let sc_before = xr.is_seq_cst() && xr.seq < aref.seq;
        // X hb→ anchor, answered with the anchor's recorded
        // happens-before clock.
        let hb_before = xr.seq.0 <= aref.hb_cv.get(xr.tid);
        !(sc_before || hb_before)
    }
}

#[cfg(test)]
mod tests {
    use crate::event::{MemOrder, StoreKind};
    use crate::exec::Execution;
    use crate::policy::Policy;

    /// Two unsynchronized threads: a reader must see both the initial
    /// value and the other thread's store as candidates.
    #[test]
    fn unseen_stores_are_candidates() {
        let mut e = Execution::new(Policy::C11Tester);
        let main = crate::ThreadId::MAIN;
        let x = e.new_object();
        e.atomic_store(main, x, MemOrder::Relaxed, 0, StoreKind::Atomic);
        let t1 = e.fork(main);
        let s1 = e.atomic_store(t1, x, MemOrder::Relaxed, 1, StoreKind::Atomic);
        let t2 = e.fork(main);
        let cands = e.read_candidates(t2, x, MemOrder::Relaxed, false);
        // t2 knows the init store (forked after it) but not t1's store.
        assert_eq!(cands.len(), 2);
        assert!(cands.contains(&s1));
    }

    /// Write-read coherence hides stale same-thread stores: only the
    /// latest hb-known store per thread is a candidate.
    #[test]
    fn hb_known_stores_collapse_to_latest() {
        let mut e = Execution::new(Policy::C11Tester);
        let main = crate::ThreadId::MAIN;
        let x = e.new_object();
        e.atomic_store(main, x, MemOrder::Relaxed, 1, StoreKind::Atomic);
        e.atomic_store(main, x, MemOrder::Relaxed, 2, StoreKind::Atomic);
        let s3 = e.atomic_store(main, x, MemOrder::Relaxed, 3, StoreKind::Atomic);
        let cands = e.read_candidates(main, x, MemOrder::Relaxed, false);
        assert_eq!(cands, vec![s3]);
    }

    /// Figure 4 of the paper: after threadA's two stores run as a write
    /// run, threadB's load must see {init, 1, 2} — three candidates.
    #[test]
    fn figure4_three_candidates() {
        let mut e = Execution::new(Policy::C11Tester);
        let main = crate::ThreadId::MAIN;
        let x = e.new_object();
        e.atomic_store(main, x, MemOrder::Relaxed, 0, StoreKind::Atomic);
        let ta = e.fork(main);
        let tb = e.fork(main);
        e.atomic_store(ta, x, MemOrder::Relaxed, 1, StoreKind::Atomic);
        e.atomic_store(ta, x, MemOrder::Relaxed, 2, StoreKind::Atomic);
        let cands = e.read_candidates(tb, x, MemOrder::Relaxed, false);
        assert_eq!(cands.len(), 3);
    }

    /// An RMW may not read a store another RMW consumed.
    #[test]
    fn rmw_candidates_exclude_consumed_stores() {
        let mut e = Execution::new(Policy::C11Tester);
        let main = crate::ThreadId::MAIN;
        let x = e.new_object();
        let init = e.atomic_store(main, x, MemOrder::Relaxed, 0, StoreKind::Atomic);
        let t1 = e.fork(main);
        let t2 = e.fork(main);
        let cands1 = e.feasible_read_candidates(t1, x, MemOrder::AcqRel, true);
        assert_eq!(cands1, vec![init]);
        let (_, s_rmw) = e.commit_rmw(t1, x, MemOrder::AcqRel, init, 1);
        let cands2 = e.feasible_read_candidates(t2, x, MemOrder::AcqRel, true);
        assert_eq!(
            cands2,
            vec![s_rmw],
            "init store was consumed by the first RMW"
        );
    }

    /// Seq_cst loads cannot read stores that precede the last seq_cst
    /// store in the SC order or happen-before it (Fig. 12 lines 9–11).
    #[test]
    fn sc_load_filters_through_last_sc_store() {
        let mut e = Execution::new(Policy::C11Tester);
        let main = crate::ThreadId::MAIN;
        let x = e.new_object();
        let t1 = e.fork(main);
        let t2 = e.fork(main);
        let s_old = e.atomic_store(t1, x, MemOrder::SeqCst, 1, StoreKind::Atomic);
        let s_new = e.atomic_store(t1, x, MemOrder::SeqCst, 2, StoreKind::Atomic);
        let cands = e.read_candidates(t2, x, MemOrder::SeqCst, false);
        assert!(!cands.contains(&s_old), "sc-before the last sc store");
        assert!(cands.contains(&s_new));
        // A relaxed load is *not* filtered.
        let cands_rlx = e.read_candidates(t2, x, MemOrder::Relaxed, false);
        assert!(cands_rlx.contains(&s_old));
        assert!(cands_rlx.contains(&s_new));
    }
}
