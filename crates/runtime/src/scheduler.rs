//! Pluggable testing strategies (paper §3).
//!
//! C11Tester splits exploration into two choices per step: *which
//! thread runs next* and *which behavior its operation takes* (for a
//! load: which store it reads from). Plugins make both choices; the
//! default plugin is random. We additionally ship a "burst" scheduler
//! that emulates an OS scheduler for the tsan11 baseline: it keeps the
//! current thread running for a geometrically distributed quantum,
//! which is how uncontrolled kernel scheduling looks to the tool.

use c11tester_core::rng::Xoshiro256StarStar;
use c11tester_core::ThreadId;

/// A testing strategy: picks successor threads and load behaviors.
///
/// Implementations must be deterministic functions of their seed so
/// executions can be replayed (the facade derives one seed per
/// execution from the model seed and the execution index).
pub trait Scheduler: Send {
    /// Picks the next thread to run from the non-empty `enabled` set.
    /// `current` is the thread that just announced an operation; it is
    /// present in `enabled` unless it blocked or finished.
    fn next_thread(&mut self, enabled: &[ThreadId], current: ThreadId) -> ThreadId;

    /// Picks which of `n ≥ 1` feasible stores a load reads (an index
    /// into the feasible candidate list). Uniform choice over the
    /// feasible set matches the paper's retry loop distribution.
    fn choose_read(&mut self, n: usize) -> usize;

    /// Called once per execution before any events, with the execution
    /// index (0-based) — lets stateful strategies vary across runs.
    fn begin_execution(&mut self, execution_index: u64);

    /// Hint that the program requested extra schedule perturbation
    /// (the `sleep` calls the tsan11 benchmarks rely on, §8.3). The
    /// default is a no-op; burst schedulers end their quantum.
    fn perturb(&mut self) {}
}

/// The default plugin: uniform random choices (paper §3, "The default
/// plugin implements a random strategy").
#[derive(Debug)]
pub struct RandomScheduler {
    base_seed: u64,
    rng: Xoshiro256StarStar,
}

impl RandomScheduler {
    /// Creates a random strategy with the given base seed.
    pub fn new(base_seed: u64) -> Self {
        RandomScheduler {
            base_seed,
            rng: Xoshiro256StarStar::new(base_seed),
        }
    }
}

impl Scheduler for RandomScheduler {
    fn next_thread(&mut self, enabled: &[ThreadId], _current: ThreadId) -> ThreadId {
        enabled[self.rng.gen_range(0..enabled.len())]
    }

    fn choose_read(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    fn begin_execution(&mut self, execution_index: u64) {
        // Split the seed stream so executions differ but replay exactly.
        self.rng = Xoshiro256StarStar::new(
            self.base_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(execution_index),
        );
    }
}

/// OS-scheduler emulation for the tsan11 baseline: the current thread
/// keeps running for a geometrically distributed burst of visible
/// operations before control moves, mimicking preemptive quanta. Reads
/// remain uniform over the (restricted) feasible set.
#[derive(Debug)]
pub struct BurstScheduler {
    base_seed: u64,
    rng: Xoshiro256StarStar,
    /// Mean burst length in visible operations.
    mean_burst: u32,
    remaining: u32,
}

impl BurstScheduler {
    /// Creates a burst strategy; `mean_burst` is the average number of
    /// visible operations a thread runs before a context switch.
    pub fn new(base_seed: u64, mean_burst: u32) -> Self {
        BurstScheduler {
            base_seed,
            rng: Xoshiro256StarStar::new(base_seed),
            mean_burst: mean_burst.max(1),
            remaining: 0,
        }
    }

    fn next_burst(&mut self) -> u32 {
        // Geometric with the configured mean, capped for responsiveness.
        let p = 1.0 / f64::from(self.mean_burst);
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let len = (u.ln() / (1.0 - p).ln()).ceil();
        len.clamp(1.0, f64::from(self.mean_burst) * 8.0) as u32
    }
}

impl Scheduler for BurstScheduler {
    fn next_thread(&mut self, enabled: &[ThreadId], current: ThreadId) -> ThreadId {
        if self.remaining > 0 && enabled.contains(&current) {
            self.remaining -= 1;
            return current;
        }
        self.remaining = self.next_burst();
        enabled[self.rng.gen_range(0..enabled.len())]
    }

    fn choose_read(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    fn begin_execution(&mut self, execution_index: u64) {
        self.rng = Xoshiro256StarStar::new(
            self.base_seed
                .wrapping_mul(0xD1B5_4A32_D192_ED03)
                .wrapping_add(execution_index),
        );
        self.remaining = 0;
    }

    fn perturb(&mut self) {
        // A sleep() in the program ends the quantum, letting other
        // threads run — matching how the tsan11 benchmarks induce
        // schedule variability (§8.3).
        self.remaining = 0;
    }
}

/// A PCT-style strategy (Burckhardt et al., "A Randomized Scheduler
/// with Probabilistic Guarantees of Finding Bugs"): threads get random
/// priorities at execution start, the highest-priority enabled thread
/// always runs, and at `depth − 1` random *change points* (counted in
/// visible operations) the running thread's priority drops below all
/// others. For bugs of depth `d`, PCT gives a guaranteed detection
/// probability per run — a useful alternative plugin to uniform random
/// scheduling in C11Tester's pluggable framework (paper §3). Reads-from
/// choices remain uniform over the feasible set.
#[derive(Debug)]
pub struct PctScheduler {
    base_seed: u64,
    rng: Xoshiro256StarStar,
    depth: u32,
    expected_ops: u64,
    /// Priority per thread id; higher runs first.
    priorities: Vec<u64>,
    /// Visible-operation indices at which a priority drop fires.
    change_points: Vec<u64>,
    steps: u64,
    /// Change-point demotions count *up* from [`CHANGE_BAND`]: the
    /// `k`-th demoted thread sits above the `k−1`-th (PCT's priority
    /// values `1..d` for change points), but below every high-band
    /// thread.
    next_low: u64,
    /// Yield demotions count *down* from [`CHANGE_BAND`]: the most
    /// recent yielder goes to the very bottom. Counting up here would
    /// livelock spin-wait loops — a spinner re-yielding would forever
    /// outrank the demoted lock holder it is waiting on.
    next_bottom: u64,
    /// A perturb (program yield) demotes `current` at the next
    /// scheduling decision.
    yield_pending: bool,
}

/// Fresh threads draw priorities in `[HIGH_BAND, u64::MAX)`; demoted
/// threads live strictly below `CHANGE_BAND + #change-points`.
const HIGH_BAND: u64 = 1 << 32;
/// Boundary between change-point demotions (counting up from here) and
/// yield demotions (counting down from here).
const CHANGE_BAND: u64 = 1 << 31;

impl PctScheduler {
    /// Creates a PCT strategy with the given bug depth (`d ≥ 1`) and an
    /// estimate of the number of visible operations per execution used
    /// to place change points.
    pub fn new(base_seed: u64, depth: u32, expected_ops: u64) -> Self {
        let mut s = PctScheduler {
            base_seed,
            rng: Xoshiro256StarStar::new(base_seed),
            depth: depth.max(1),
            expected_ops: expected_ops.max(1),
            priorities: Vec::new(),
            change_points: Vec::new(),
            steps: 0,
            next_low: CHANGE_BAND,
            next_bottom: CHANGE_BAND,
            yield_pending: false,
        };
        s.reset();
        s
    }

    fn reset(&mut self) {
        self.priorities.clear();
        self.steps = 0;
        self.next_low = CHANGE_BAND;
        self.next_bottom = CHANGE_BAND;
        self.yield_pending = false;
        let expected = self.expected_ops;
        self.change_points = (1..self.depth)
            .map(|_| self.rng.gen_range(0..expected))
            .collect();
        self.change_points.sort_unstable();
    }

    fn priority_of(&mut self, t: ThreadId) -> u64 {
        while self.priorities.len() <= t.index() {
            // New threads draw a fresh high-band priority.
            let p = self.rng.gen_range(HIGH_BAND..u64::MAX);
            self.priorities.push(p);
        }
        self.priorities[t.index()]
    }
}

impl Scheduler for PctScheduler {
    fn next_thread(&mut self, enabled: &[ThreadId], current: ThreadId) -> ThreadId {
        self.steps += 1;
        if self.yield_pending {
            // Program yield: the yielder goes to the very bottom (below
            // all previously demoted threads), so a spin-wait loop can
            // never starve the thread it is waiting on.
            self.yield_pending = false;
            let _ = self.priority_of(current);
            self.next_bottom -= 1;
            self.priorities[current.index()] = self.next_bottom;
        } else if self
            .change_points
            .first()
            .is_some_and(|&cp| self.steps >= cp)
        {
            self.change_points.remove(0);
            // Drop the current thread below every high-band priority.
            let _ = self.priority_of(current);
            self.next_low += 1;
            self.priorities[current.index()] = self.next_low;
        }
        let mut best = enabled[0];
        let mut best_p = 0;
        for &t in enabled {
            let p = self.priority_of(t);
            if p >= best_p {
                best = t;
                best_p = p;
            }
        }
        best
    }

    fn choose_read(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    fn begin_execution(&mut self, execution_index: u64) {
        self.rng = Xoshiro256StarStar::new(
            self.base_seed
                .wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(execution_index),
        );
        self.reset();
    }

    fn perturb(&mut self) {
        // A yield/sleep hint demotes the running thread at the next
        // scheduling decision (to the bottom band — see
        // `yield_pending`).
        self.yield_pending = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ix: usize) -> ThreadId {
        ThreadId::from_index(ix)
    }

    #[test]
    fn random_scheduler_replays_with_same_seed() {
        let enabled = [t(0), t(1), t(2)];
        let run = |seed| {
            let mut s = RandomScheduler::new(seed);
            s.begin_execution(3);
            (0..32)
                .map(|_| s.next_thread(&enabled, t(0)).index())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
    }

    #[test]
    fn random_scheduler_covers_all_threads() {
        let enabled = [t(0), t(1), t(2)];
        let mut s = RandomScheduler::new(1);
        s.begin_execution(0);
        let mut seen = [false; 3];
        for _ in 0..256 {
            seen[s.next_thread(&enabled, t(0)).index()] = true;
        }
        assert_eq!(seen, [true, true, true]);
    }

    #[test]
    fn burst_scheduler_stays_on_current_within_quantum() {
        let enabled = [t(0), t(1)];
        let mut s = BurstScheduler::new(42, 1000);
        s.begin_execution(0);
        let first = s.next_thread(&enabled, t(0));
        let mut switches = 0;
        let mut cur = first;
        for _ in 0..200 {
            let next = s.next_thread(&enabled, cur);
            if next != cur {
                switches += 1;
            }
            cur = next;
        }
        assert!(
            switches <= 3,
            "with mean burst 1000, 200 steps should rarely switch (got {switches})"
        );
    }

    #[test]
    fn burst_scheduler_perturb_ends_quantum() {
        let enabled = [t(0), t(1), t(2), t(3)];
        let mut s = BurstScheduler::new(9, 1_000_000);
        s.begin_execution(0);
        let _ = s.next_thread(&enabled, t(0));
        let mut switched = false;
        for _ in 0..64 {
            s.perturb();
            if s.next_thread(&enabled, t(0)) != t(0) {
                switched = true;
                break;
            }
        }
        assert!(switched, "perturb must allow switching away");
    }

    #[test]
    fn pct_scheduler_is_deterministic_per_seed() {
        let enabled = [t(0), t(1), t(2)];
        let run = |seed| {
            let mut s = PctScheduler::new(seed, 3, 100);
            s.begin_execution(0);
            (0..64)
                .map(|_| s.next_thread(&enabled, t(0)).index())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn pct_scheduler_runs_highest_priority_until_change_point() {
        let enabled = [t(0), t(1)];
        let mut s = PctScheduler::new(11, 2, 40);
        s.begin_execution(0);
        // Between change points the same thread keeps running.
        let first = s.next_thread(&enabled, t(0));
        let mut switches = 0;
        let mut cur = first;
        for _ in 0..40 {
            let n = s.next_thread(&enabled, cur);
            if n != cur {
                switches += 1;
                cur = n;
            }
        }
        // Depth 2 → at most 1 scheduled change point (plus none others).
        assert!(switches <= 1, "PCT depth-2 switched {switches} times");
    }

    #[test]
    fn pct_priority_drop_demotes_current() {
        let enabled = [t(0), t(1)];
        let mut s = PctScheduler::new(3, 2, 4);
        s.begin_execution(0);
        let first = s.next_thread(&enabled, t(0));
        // Exhaust steps past the single change point (placed in 0..4).
        let mut last = first;
        for _ in 0..8 {
            last = s.next_thread(&enabled, last);
        }
        // After the change point the other thread must be running.
        assert_ne!(first, last);
    }
}
