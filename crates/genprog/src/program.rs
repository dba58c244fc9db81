//! The generated-program IR and its seeded generator.
//!
//! A [`Program`] is a closed, schedule-deterministic description of a
//! small concurrent test over the atomic-op grammar: `threads` worker
//! threads, each a straight-line sequence of [`Op`]s over `locs`
//! shared atomic locations (plus optional mutex-guarded regions). A
//! program is a **pure function of its program seed** (`pseed`): the
//! same `pseed` produces byte-identical IR on every host, so
//! `gen:<pseed>` campaign targets inherit the workspace determinism
//! contract unchanged — executions are replayable from
//! `(pseed, seed, index)` alone.
//!
//! The grammar (ISSUE 9 tentpole):
//!
//! * 2–6 threads × 1–8 locations;
//! * loads, stores, fetch-add RMWs, compare-and-swaps, and fences;
//! * every C11 ordering that is legal for the op kind (loads never
//!   release, stores never acquire, CAS failure orderings never
//!   release — the same constraints `std::sync::atomic` enforces);
//! * optional mutex-guarded regions of straight-line ops.
//!
//! Every store-like op writes a **program-unique value** (a counter,
//! never 0 — 0 is the initialization value of every location), so a
//! reads-from edge in a trace identifies its source store by value as
//! well as by sequence number.

use c11tester::MemOrder;

/// One straight-line operation of a generated thread.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Atomic load of location `loc`.
    Load {
        /// Location index (`0..Program::locs`).
        loc: usize,
        /// Load ordering (never release-class).
        ord: MemOrder,
    },
    /// Atomic store of `value` to location `loc`.
    Store {
        /// Location index.
        loc: usize,
        /// Store ordering (never acquire-class).
        ord: MemOrder,
        /// Program-unique nonzero value written.
        value: u64,
    },
    /// `fetch_add(addend)` on location `loc`.
    Rmw {
        /// Location index.
        loc: usize,
        /// RMW ordering (any of the five).
        ord: MemOrder,
        /// Program-unique nonzero addend.
        addend: u64,
    },
    /// `compare_exchange(expected, new)` on location `loc`.
    Cas {
        /// Location index.
        loc: usize,
        /// Success ordering (any of the five).
        success: MemOrder,
        /// Failure ordering (never release-class).
        failure: MemOrder,
        /// Expected value (0 or some store value of this location).
        expected: u64,
        /// Program-unique nonzero value written on success.
        new: u64,
    },
    /// Thread fence (never relaxed — relaxed fences are no-ops).
    Fence {
        /// Fence ordering.
        ord: MemOrder,
    },
    /// A mutex-guarded region of straight-line ops (never nested).
    Region {
        /// Mutex index (`0..Program::mutexes`).
        mutex: usize,
        /// Ops performed while holding the mutex.
        ops: Vec<Op>,
    },
}

/// A generated concurrent program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// The program seed this IR was generated from.
    pub pseed: u64,
    /// Number of shared atomic locations (all initialized to 0).
    pub locs: usize,
    /// Number of mutexes.
    pub mutexes: usize,
    /// Per-thread op sequences (each runs on its own spawned thread).
    pub threads: Vec<Vec<Op>>,
}

/// The generator the program grammar draws from: a `pseed` is the
/// only input.
pub use c11tester_core::rng::SplitMix64;

/// Orderings legal for a load.
const LOAD_ORDERS: &[MemOrder] = &[MemOrder::Relaxed, MemOrder::Acquire, MemOrder::SeqCst];
/// Orderings legal for a store.
const STORE_ORDERS: &[MemOrder] = &[MemOrder::Relaxed, MemOrder::Release, MemOrder::SeqCst];
/// Orderings legal for an RMW / CAS success.
const RMW_ORDERS: &[MemOrder] = &[
    MemOrder::Relaxed,
    MemOrder::Acquire,
    MemOrder::Release,
    MemOrder::AcqRel,
    MemOrder::SeqCst,
];
/// Orderings legal for a fence (relaxed fences are no-ops).
const FENCE_ORDERS: &[MemOrder] = &[
    MemOrder::Acquire,
    MemOrder::Release,
    MemOrder::AcqRel,
    MemOrder::SeqCst,
];

/// Mutable generation state threaded through op construction.
struct GenState {
    rng: SplitMix64,
    /// Next program-unique store value.
    next_value: u64,
    /// Values stored (by any op) to each location so far, for CAS
    /// `expected` choices.
    loc_values: Vec<Vec<u64>>,
}

impl GenState {
    fn fresh_value(&mut self, loc: usize) -> u64 {
        let v = self.next_value;
        self.next_value += 1;
        self.loc_values[loc].push(v);
        v
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.rng.below(xs.len() as u64) as usize]
    }

    /// A CAS `expected` value: the location's init value 0 or one of
    /// the values some store writes to it.
    fn expected_for(&mut self, loc: usize) -> u64 {
        let known = &self.loc_values[loc];
        let n = known.len() as u64 + 1;
        match self.rng.below(n) {
            0 => 0,
            k => known[(k - 1) as usize],
        }
    }

    fn straight_op(&mut self, locs: usize) -> Op {
        let loc = self.rng.below(locs as u64) as usize;
        match self.rng.below(100) {
            0..=29 => Op::Store {
                loc,
                ord: self.pick(STORE_ORDERS),
                value: self.fresh_value(loc),
            },
            30..=59 => Op::Load {
                loc,
                ord: self.pick(LOAD_ORDERS),
            },
            60..=74 => Op::Rmw {
                loc,
                ord: self.pick(RMW_ORDERS),
                addend: self.fresh_value(loc),
            },
            75..=89 => {
                let expected = self.expected_for(loc);
                Op::Cas {
                    loc,
                    success: self.pick(RMW_ORDERS),
                    failure: self.pick(LOAD_ORDERS),
                    expected,
                    new: self.fresh_value(loc),
                }
            }
            _ => Op::Fence {
                ord: self.pick(FENCE_ORDERS),
            },
        }
    }
}

impl Program {
    /// Generates the full-grammar program for `pseed`: 2–6 threads,
    /// 1–8 locations, 1–8 ops per thread, optional mutex regions.
    pub fn generate(pseed: u64) -> Program {
        let mut st = GenState {
            rng: SplitMix64::new(pseed),
            next_value: 1,
            loc_values: Vec::new(),
        };
        let threads = 2 + st.rng.below(5) as usize;
        let locs = 1 + st.rng.below(8) as usize;
        st.loc_values = vec![Vec::new(); locs];
        // A quarter of programs get one mutex to guard regions with.
        let mutexes = usize::from(st.rng.below(4) == 0);
        let mut bodies = Vec::with_capacity(threads);
        for _ in 0..threads {
            let nops = 1 + st.rng.below(8) as usize;
            let mut ops = Vec::with_capacity(nops);
            for _ in 0..nops {
                if mutexes > 0 && st.rng.below(8) == 0 {
                    let inner = 1 + st.rng.below(2) as usize;
                    let body = (0..inner).map(|_| st.straight_op(locs)).collect();
                    ops.push(Op::Region {
                        mutex: 0,
                        ops: body,
                    });
                } else {
                    ops.push(st.straight_op(locs));
                }
            }
            bodies.push(ops);
        }
        Program {
            pseed,
            locs,
            mutexes,
            threads: bodies,
        }
    }

    /// Generates the small-scope program for `pseed`: 2–3 threads,
    /// 1–2 locations, ≤ 2 ops per thread (≤ 6 ops total), no mutexes
    /// — small enough for [`crate::enumerate::enumerate_outcomes`] to
    /// compute the full axiom-allowed outcome set.
    pub fn generate_tiny(pseed: u64) -> Program {
        let mut st = GenState {
            rng: SplitMix64::new(pseed ^ 0x7177_BADC_0FFE_E000),
            next_value: 1,
            loc_values: Vec::new(),
        };
        let threads = 2 + st.rng.below(2) as usize;
        let locs = 1 + st.rng.below(2) as usize;
        st.loc_values = vec![Vec::new(); locs];
        let per_thread = if threads == 3 { 2 } else { 3 };
        let mut bodies = Vec::with_capacity(threads);
        for _ in 0..threads {
            let nops = 1 + st.rng.below(per_thread) as usize;
            bodies.push((0..nops).map(|_| st.straight_op(locs)).collect());
        }
        Program {
            pseed,
            locs,
            mutexes: 0,
            threads: bodies,
        }
    }

    /// Total op count, counting region bodies (regions themselves
    /// contribute their lock/unlock on top when executed).
    pub fn total_ops(&self) -> usize {
        fn count(ops: &[Op]) -> usize {
            ops.iter()
                .map(|op| match op {
                    Op::Region { ops, .. } => count(ops),
                    _ => 1,
                })
                .sum()
        }
        self.threads.iter().map(|t| count(t)).sum()
    }

    /// Whether the small-scope enumerator can handle this program:
    /// ≤ 3 threads, ≤ 6 ops, no mutex regions.
    pub fn is_small_scope(&self) -> bool {
        self.threads.len() <= 3
            && self.total_ops() <= 6
            && self
                .threads
                .iter()
                .all(|t| t.iter().all(|op| !matches!(op, Op::Region { .. })))
    }

    /// Renders the program as stable, human-readable lines (one header
    /// line, then one line per op, region ops indented) — the form the
    /// `c11fuzz/v1` mismatch report embeds.
    pub fn render(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "gen:{} threads={} locs={} mutexes={}",
            self.pseed,
            self.threads.len(),
            self.locs,
            self.mutexes
        )];
        for (ix, ops) in self.threads.iter().enumerate() {
            lines.push(format!("T{}:", ix + 1));
            for op in ops {
                match op {
                    Op::Region { mutex, ops } => {
                        lines.push(format!("  lock m{mutex} {{"));
                        for inner in ops {
                            lines.push(format!("    {}", render_op(inner)));
                        }
                        lines.push("  }".to_string());
                    }
                    other => lines.push(format!("  {}", render_op(other))),
                }
            }
        }
        lines
    }
}

/// The ordering vocabulary of the trace layer (matches the core's
/// `order_name` so oracle, generator, and traces cannot drift).
pub fn order_name(ord: MemOrder) -> &'static str {
    match ord {
        MemOrder::Relaxed => "Relaxed",
        MemOrder::Acquire => "Acquire",
        MemOrder::Release => "Release",
        MemOrder::AcqRel => "AcqRel",
        MemOrder::SeqCst => "SeqCst",
    }
}

fn render_op(op: &Op) -> String {
    match op {
        Op::Load { loc, ord } => format!("load x{loc} {}", order_name(*ord)),
        Op::Store { loc, ord, value } => {
            format!("store x{loc} {} {value}", order_name(*ord))
        }
        Op::Rmw { loc, ord, addend } => {
            format!("fetch_add x{loc} {} {addend}", order_name(*ord))
        }
        Op::Cas {
            loc,
            success,
            failure,
            expected,
            new,
        } => format!(
            "cas x{loc} {}/{} {expected}->{new}",
            order_name(*success),
            order_name(*failure)
        ),
        Op::Fence { ord } => format!("fence {}", order_name(*ord)),
        Op::Region { .. } => unreachable!("regions are rendered by Program::render"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_pure_function_of_pseed() {
        for pseed in 0..50 {
            assert_eq!(Program::generate(pseed), Program::generate(pseed));
            assert_eq!(Program::generate_tiny(pseed), Program::generate_tiny(pseed));
        }
        assert_ne!(Program::generate(1), Program::generate(2));
    }

    #[test]
    fn generated_programs_stay_inside_the_grammar_bounds() {
        for pseed in 0..200 {
            let p = Program::generate(pseed);
            assert!((2..=6).contains(&p.threads.len()), "pseed {pseed}");
            assert!((1..=8).contains(&p.locs), "pseed {pseed}");
            assert!(p.mutexes <= 1);
            for ops in &p.threads {
                assert!((1..=8).contains(&ops.len()));
                for op in ops {
                    check_op(op, &p);
                    if let Op::Region { mutex, ops } = op {
                        assert!(*mutex < p.mutexes, "region without a mutex");
                        assert!(!ops.is_empty() && ops.len() <= 2);
                        assert!(ops.iter().all(|o| !matches!(o, Op::Region { .. })));
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_programs_fit_the_enumerator_scope() {
        for pseed in 0..200 {
            let p = Program::generate_tiny(pseed);
            assert!(p.is_small_scope(), "pseed {pseed}: {p:?}");
            assert!(p.threads.len() >= 2);
            assert!(p.locs <= 2);
        }
    }

    #[test]
    fn store_values_are_program_unique_and_nonzero() {
        for pseed in 0..100 {
            let p = Program::generate(pseed);
            let mut seen = std::collections::BTreeSet::new();
            let mut visit = |op: &Op| {
                let v = match op {
                    Op::Store { value, .. } => Some(*value),
                    Op::Rmw { addend, .. } => Some(*addend),
                    Op::Cas { new, .. } => Some(*new),
                    _ => None,
                };
                if let Some(v) = v {
                    assert_ne!(v, 0);
                    assert!(seen.insert(v), "duplicate value {v} in pseed {pseed}");
                }
            };
            for ops in &p.threads {
                for op in ops {
                    if let Op::Region { ops, .. } = op {
                        ops.iter().for_each(&mut visit);
                    } else {
                        visit(op);
                    }
                }
            }
        }
    }

    fn check_op(op: &Op, p: &Program) {
        match op {
            Op::Load { loc, ord } => {
                assert!(*loc < p.locs);
                assert!(LOAD_ORDERS.contains(ord));
            }
            Op::Store { loc, ord, .. } => {
                assert!(*loc < p.locs);
                assert!(STORE_ORDERS.contains(ord));
            }
            Op::Rmw { loc, .. } | Op::Cas { loc, .. } => {
                assert!(*loc < p.locs);
                if let Op::Cas { failure, .. } = op {
                    assert!(LOAD_ORDERS.contains(failure));
                }
            }
            Op::Fence { ord } => assert!(FENCE_ORDERS.contains(ord)),
            Op::Region { ops, .. } => ops.iter().for_each(|o| check_op(o, p)),
        }
    }

    #[test]
    fn render_is_stable() {
        let p = Program::generate(3);
        let lines = p.render();
        assert!(lines[0].starts_with("gen:3 threads="));
        assert_eq!(p.render(), lines);
    }
}
