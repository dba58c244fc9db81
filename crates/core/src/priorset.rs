//! `ReadPriorSet` / `WritePriorSet` (paper Fig. 13) and the
//! rollback-free feasibility check of §4.3.
//!
//! A *prior set* is the set of stores that must become
//! modification-ordered **before** a given store. For a new store `S`
//! the edges always point at the brand-new node, so no cycle can arise
//! (§4.3, "Atomic Store"). For a load `L` that wants to read from
//! candidate `X0`, the edges point at `X0`, so a cycle arises exactly
//! when some prior-set member is already reachable *from* `X0` — which
//! Theorem 1 reduces to clock-vector comparisons.
//!
//! Lines 6–8 of `ReadPriorSet` implement statements 5, 4, and 6 of
//! C++11 §29.3 (seq_cst fence constraints); line 9 implements
//! write-read and read-read coherence.

use crate::event::{AccessRef, FenceIdx, MemOrder, ObjId, SeqNum, StoreIdx, StoreRecord, ThreadId};
use crate::exec::{node_of, Execution};
use crate::location::{last_at_or_before, PerThreadLoc};
use crate::mograph::MoGraph;

/// Last entry of the seq-sorted `list` with sequence number strictly
/// below `bound` (sequence numbers are integers ≥ 1, so `< b` is
/// `≤ b − 1`).
fn last_before<T: Copy>(list: &[(SeqNum, T)], bound: SeqNum) -> Option<(SeqNum, T)> {
    last_at_or_before(list, bound.0.saturating_sub(1))
}

impl Execution {
    /// `last_sc_fence(t)`.
    fn last_sc_fence(&self, t: usize) -> Option<FenceIdx> {
        self.threads.get(t)?.sc_fences.last().copied()
    }

    fn fence_seq(&self, f: FenceIdx) -> SeqNum {
        self.fences[f.index()].seq
    }

    /// `get_write(A)`: a store maps to itself, a load to the store it
    /// read from.
    fn get_write(&self, a: AccessRef) -> StoreIdx {
        match a {
            AccessRef::Store(s) => s,
            AccessRef::Load(l) => self.loads[l.index()].rf,
        }
    }

    /// `last({F ∈ sc_fences(u) | F sc→ bound})`: the SC order coincides
    /// with execution order, so this is a partition by sequence number.
    fn last_sc_fence_before(&self, u: usize, bound: SeqNum) -> Option<FenceIdx> {
        let fences = &self.threads.get(u)?.sc_fences;
        let pos = fences.partition_point(|&f| self.fences[f.index()].seq < bound);
        if pos > 0 {
            Some(fences[pos - 1])
        } else {
            None
        }
    }

    /// Computes `last({S1, S2, S3, S4})` for one thread `u` and maps it
    /// through `get_write`. Shared by both prior-set procedures.
    ///
    /// * `h` — `u`'s history at the location;
    /// * `is_sc_op`/`f_t` — `u`'s last sc fence bounds S1, active only
    ///   when the operation itself is seq_cst;
    /// * `f_op` — the operating thread's last sc fence (for S2);
    /// * `f_b` — last sc fence of `u` sc-before `f_op` (for S3);
    /// * `hb_bound` — the operating thread's clock slot for `u` (S4).
    fn prior_for_thread(
        &self,
        h: &PerThreadLoc,
        is_sc_op: bool,
        f_t: Option<FenceIdx>,
        f_op: Option<FenceIdx>,
        f_b: Option<FenceIdx>,
        hb_bound: u64,
    ) -> Option<StoreIdx> {
        let mut best: Option<(SeqNum, AccessRef)> = None;
        let mut consider = |e: Option<(SeqNum, AccessRef)>| {
            if let Some(e) = e {
                if best.is_none_or(|b| e.0 > b.0) {
                    best = Some(e);
                }
            }
        };
        let store = |e: (SeqNum, StoreIdx)| (e.0, AccessRef::Store(e.1));
        // S1: last store sb-before u's own last sc fence (only when the
        // operation is seq_cst). C++11 §29.3p4.
        if is_sc_op {
            if let Some(ft) = f_t {
                consider(last_before(&h.stores, self.fence_seq(ft)).map(store));
            }
        }
        // S2: last seq_cst store sc-before the operating thread's last
        // sc fence. §29.3p5.
        if let Some(fl) = f_op {
            consider(last_before(&h.sc_stores, self.fence_seq(fl)).map(store));
        }
        // S3: last store sb-before u's last sc fence that is itself
        // sc-before the operating thread's last sc fence. §29.3p6.
        if let Some(fb) = f_b {
            consider(last_before(&h.stores, self.fence_seq(fb)).map(store));
        }
        // S4: last access that happens-before the operation — the
        // write-read / read-read coherence term.
        consider(last_at_or_before(&h.accesses, hb_bound));
        best.map(|(_, a)| self.get_write(a))
    }

    /// `WritePriorSet(S)` (Fig. 13): stores that must be mo-before a
    /// prospective store by `t` at `obj`. Computed *before* the store is
    /// inserted into any history list. Fills `priorset` (cleared first)
    /// instead of allocating — the hot path threads
    /// [`Execution::pset_buf`] through here.
    pub(crate) fn write_prior_set_into(
        &self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        priorset: &mut Vec<StoreIdx>,
    ) {
        priorset.clear();
        let Some(loc) = self.loc(obj) else {
            return;
        };
        let f_s = self.last_sc_fence(t.index());
        let is_sc_store = order.is_seq_cst();
        if is_sc_store {
            // Seq-cst / MO consistency (Fig. 5): the previous sc store at
            // this location precedes S in mo.
            if let Some(last_sc) = loc.last_sc_store {
                priorset.push(last_sc);
            }
        }
        let f_s_seq = f_s.map(|f| self.fence_seq(f));
        for (uix, h) in loc.threads() {
            let f_t = self.last_sc_fence(uix);
            let f_b = f_s_seq.and_then(|b| self.last_sc_fence_before(uix, b));
            let hb_bound = self.threads[t.index()].cv.get(ThreadId::from_index(uix));
            if let Some(a) = self.prior_for_thread(h, is_sc_store, f_t, f_s, f_b, hb_bound) {
                if !priorset.contains(&a) {
                    priorset.push(a);
                }
            }
        }
    }

    /// The candidate-independent half of `ReadPriorSet`: computes the
    /// per-thread `last({S1, S2, S3, S4})` bests (mapped through
    /// `get_write`) for a load by `t` at `obj`. The result depends only
    /// on `(t, obj, order)` — never on the read-from candidate — so it
    /// is computed once per operation ([`Execution::plan_read`]). Bests
    /// are pushed in history order, duplicates included;
    /// [`prior_set_of`] applies the per-candidate filtering.
    pub(crate) fn read_prior_bests_into(
        &self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        bests: &mut Vec<StoreIdx>,
    ) {
        bests.clear();
        let is_sc_load = order.is_seq_cst();
        let f_l = self.last_sc_fence(t.index());
        let f_l_seq = f_l.map(|f| self.fence_seq(f));
        if let Some(loc) = self.loc(obj) {
            for (uix, h) in loc.threads() {
                let f_t = self.last_sc_fence(uix);
                let f_b = f_l_seq.and_then(|b| self.last_sc_fence_before(uix, b));
                let hb_bound = self.threads[t.index()].cv.get(ThreadId::from_index(uix));
                if let Some(a) = self.prior_for_thread(h, is_sc_load, f_t, f_l, f_b, hb_bound) {
                    bests.push(a);
                }
            }
        }
    }

    /// The write prior set an RMW's own store half will add edges from,
    /// for the store-half feasibility check. Computed with pre-acquire
    /// clocks — the post-acquire additions flow through the candidate's
    /// release sequence and are provably mo-≤ the candidate, so they
    /// cannot close a cycle. Depends only on `(t, obj, order)`.
    ///
    /// Returns the length of the `WritePriorSet` proper: restricted
    /// policies additionally chain the new store after the
    /// execution-order-latest store (an RMW reading anything older is
    /// inconsistent with a total execution-order mo — real tsan
    /// executes RMWs in place on the latest value), appended past that
    /// length because the store half adds that edge by itself.
    pub(crate) fn rmw_write_prior_set_into(
        &self,
        t: ThreadId,
        obj: ObjId,
        order: MemOrder,
        wpset: &mut Vec<StoreIdx>,
    ) -> usize {
        self.write_prior_set_into(t, obj, order, wpset);
        let proper = wpset.len();
        if self.policy().restricts_mo() {
            if let Some(prev) = self.loc(obj).and_then(|l| l.last_store_exec) {
                if !wpset.contains(&prev) {
                    wpset.push(prev);
                }
            }
        }
        proper
    }
}

/// §4.3 feasibility of an edge set `members → cand`: would any
/// member (other than `cand` itself) close a cycle? `AddEdge`
/// redirects an edge whose source feeds an RMW past the RMW chain
/// (RMW atomicity), so the edge that will actually be inserted
/// leaves from the chain's tail — reachability is checked from the
/// candidate to *that* node, and Theorem 1 answers with
/// clock-vector comparisons. A candidate downstream on the
/// member's own chain gains no edge at all (the redirect stops at
/// the existing rmw-immediacy edge into it).
///
/// Used for both halves of the check: `members` is the candidate's
/// read prior set, or — for RMWs (§4.3 "Atomic RMWs") — the write
/// prior set of the RMW's own store half, whose edges `e → rmw`
/// would cycle through the successors RMW atomicity migrates from
/// `cand` onto the new node (e.g. an SC RMW reading a store that is
/// modification-ordered before the last SC store).
///
/// Takes the store arena and the graph rather than the execution so the
/// prior-set buffers can stay borrowed from it.
pub(crate) fn edges_into_feasible(
    stores: &mut [StoreRecord],
    graph: &mut MoGraph,
    members: &[StoreIdx],
    cand: StoreIdx,
) -> bool {
    let n_cand = node_of(stores, graph, cand);
    for &e in members {
        if e == cand {
            continue;
        }
        let n_e = node_of(stores, graph, e);
        if graph.chain_downstream(n_e, n_cand) {
            continue;
        }
        if graph.reaches(n_cand, graph.chain_tail(n_e)) {
            return false;
        }
    }
    true
}

/// The candidate-dependent half of `ReadPriorSet(L, S)` (Fig. 13): the
/// stores that gain mo edges into `cand` when a load whose hoisted
/// per-thread `bests` these are reads from it. Fills `priorset`
/// (cleared first).
pub(crate) fn prior_set_of(bests: &[StoreIdx], cand: StoreIdx, priorset: &mut Vec<StoreIdx>) {
    priorset.clear();
    for &a in bests {
        if a != cand && !priorset.contains(&a) {
            priorset.push(a);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::event::{MemOrder, StoreKind};
    use crate::exec::Execution;
    use crate::policy::Policy;
    use crate::ThreadId;

    /// Write-write coherence: two stores by one thread are mo-ordered,
    /// so a third thread that saw the second can never read the first.
    #[test]
    fn coww_then_cowr_rejects_stale_read() {
        let mut e = Execution::new(Policy::C11Tester);
        let main = ThreadId::MAIN;
        let x = e.new_object();
        let s1 = e.atomic_store(main, x, MemOrder::Relaxed, 1, StoreKind::Atomic);
        let s2 = e.atomic_store(main, x, MemOrder::Release, 2, StoreKind::Atomic);
        let t1 = e.fork(main); // t1 knows both stores via asw
        assert!(e.check_read_feasible(t1, x, MemOrder::Relaxed, s2));
        assert!(
            !e.check_read_feasible(t1, x, MemOrder::Relaxed, s1),
            "reading s1 would order s2 mo-before s1, a cycle with CoWW"
        );
        // And the pre-filtered candidate API agrees.
        let feas = e.feasible_read_candidates(t1, x, MemOrder::Relaxed, false);
        assert_eq!(feas, vec![s2]);
    }

    /// Read-read coherence: once a thread reads the newer store, it can
    /// no longer read the older one.
    #[test]
    fn corr_rejects_backwards_read() {
        let mut e = Execution::new(Policy::C11Tester);
        let main = ThreadId::MAIN;
        let x = e.new_object();
        let t1 = e.fork(main);
        let t2 = e.fork(main);
        let s1 = e.atomic_store(t1, x, MemOrder::Relaxed, 1, StoreKind::Atomic);
        let s2 = e.atomic_store(t1, x, MemOrder::Relaxed, 2, StoreKind::Atomic);
        // t2 has no hb knowledge of either store: both feasible.
        assert!(e.check_read_feasible(t2, x, MemOrder::Relaxed, s1));
        assert!(e.check_read_feasible(t2, x, MemOrder::Relaxed, s2));
        let v = e.commit_load(t2, x, MemOrder::Relaxed, s2);
        assert_eq!(v, 2);
        // After reading s2, reading s1 would violate CoRR.
        assert!(!e.check_read_feasible(t2, x, MemOrder::Relaxed, s1));
    }

    /// The restricted tsan11 policy chains mo in execution order, so a
    /// cross-thread mo "inversion" read is rejected there but allowed
    /// under the full C11Tester fragment.
    #[test]
    fn policy_difference_on_mo_inversion() {
        // T1 stores x=1; T2 stores x=2 later in execution order;
        // T1 (having seen nothing of T2) then reads x.
        // C11Tester: may read 1 or 2. tsan11: may also read 1 — but if a
        // third thread already read 2 then 1... the simplest visible
        // difference: T1 reading its own store 1 *after* T2's store is
        // fine in both; the divergence shows once mo would have to
        // invert execution order. Here: T3 reads 2 then T1's 1 is
        // forbidden under tsan11 (2 is mo-after 1 by exec order; CoRR
        // would need 1 mo-after 2 under C11Tester it's feasible).
        for policy in [Policy::C11Tester, Policy::Tsan11] {
            let mut e = Execution::new(policy);
            let main = ThreadId::MAIN;
            let x = e.new_object();
            let t1 = e.fork(main);
            let t2 = e.fork(main);
            let t3 = e.fork(main);
            let s1 = e.atomic_store(t1, x, MemOrder::Relaxed, 1, StoreKind::Atomic);
            let s2 = e.atomic_store(t2, x, MemOrder::Relaxed, 2, StoreKind::Atomic);
            // t3 reads 2 first...
            assert!(e.check_read_feasible(t3, x, MemOrder::Relaxed, s2));
            e.commit_load(t3, x, MemOrder::Relaxed, s2);
            // ...then tries to read 1. Under C11Tester, mo(s2) → mo(s1)
            // is still satisfiable (nothing orders them); under tsan11
            // the execution-order chain already fixed s1 mo→ s2.
            let feasible = e.check_read_feasible(t3, x, MemOrder::Relaxed, s1);
            match policy {
                Policy::C11Tester => assert!(feasible, "full fragment allows mo inversion"),
                _ => assert!(!feasible, "restricted fragment forbids mo inversion"),
            }
        }
    }

    /// Seq_cst fences order writes across threads (§29.3p5): a store
    /// sb-before an sc fence is mo-before a store sb-after another sc
    /// fence that follows it in SC order.
    #[test]
    fn sc_fences_constrain_mo() {
        let mut e = Execution::new(Policy::C11Tester);
        let main = ThreadId::MAIN;
        let x = e.new_object();
        let t1 = e.fork(main);
        let t2 = e.fork(main);
        let s1 = e.atomic_store(t1, x, MemOrder::Relaxed, 1, StoreKind::Atomic);
        e.fence(t1, MemOrder::SeqCst);
        e.fence(t2, MemOrder::SeqCst);
        let _s2 = e.atomic_store(t2, x, MemOrder::Relaxed, 2, StoreKind::Atomic);
        // WritePriorSet for s2 must have included s1 (S3 rule), so
        // s1 mo→ s2 and a reader that saw s2 cannot read s1.
        let n1 = e.node_of(s1);
        let t3 = e.fork(main);
        let cands = e.feasible_read_candidates(t3, x, MemOrder::Relaxed, false);
        // Reading s1 remains feasible for t3 (no CoWR yet)...
        assert!(cands.contains(&s1));
        // ...but the mo edge exists:
        let s2_node = {
            let stores = e.stores_at(x);
            let s2 = stores
                .iter()
                .copied()
                .find(|&s| e.store_value(s) == 2)
                .expect("store of 2 exists");
            e.node_of(s2)
        };
        assert!(
            e.mograph().reaches(n1, s2_node),
            "sc fences force s1 mo→ s2"
        );
    }
}
