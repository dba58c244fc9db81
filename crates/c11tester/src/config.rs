//! Model configuration.

use c11tester_core::rng::mix64;
use c11tester_core::{MemOrder, Policy, PruneConfig};
use c11tester_runtime::HandoverKind;

/// Which testing strategy drives scheduling and read choices (§3).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Strategy {
    /// Uniform random choices — the paper's default plugin.
    Random,
    /// OS-scheduler emulation: the current thread runs for a
    /// geometrically distributed burst of visible operations (used for
    /// the tsan11 baseline, which does not control scheduling).
    Burst {
        /// Mean burst length in visible operations.
        mean: u32,
    },
    /// PCT (probabilistic concurrency testing): random thread
    /// priorities with `depth − 1` priority-drop change points.
    Pct {
        /// Bug depth the schedule targets (`d ≥ 1`).
        depth: u32,
        /// Expected visible operations per execution (change-point
        /// placement).
        expected_ops: u64,
    },
}

/// Default burst mean for the `burst` spec token (the tsan11 baseline
/// value from [`Config::for_policy`]).
pub const DEFAULT_BURST_MEAN: u32 = 400;

/// Default change-point horizon for `pct<d>` spec tokens.
pub const DEFAULT_PCT_OPS: u64 = 128;

impl Strategy {
    /// The canonical spec token for this strategy — the grammar
    /// [`StrategyMix::parse`] accepts and campaign reports key their
    /// per-strategy columns on:
    ///
    /// * `random`
    /// * `burst` (mean [`DEFAULT_BURST_MEAN`]) or `burst@<mean>`
    /// * `pct<depth>` (horizon [`DEFAULT_PCT_OPS`]) or
    ///   `pct<depth>@<ops>`
    pub fn spec(&self) -> String {
        match *self {
            Strategy::Random => "random".to_string(),
            Strategy::Burst { mean } if mean == DEFAULT_BURST_MEAN => "burst".to_string(),
            Strategy::Burst { mean } => format!("burst@{mean}"),
            Strategy::Pct {
                depth,
                expected_ops,
            } if expected_ops == DEFAULT_PCT_OPS => format!("pct{depth}"),
            Strategy::Pct {
                depth,
                expected_ops,
            } => format!("pct{depth}@{expected_ops}"),
        }
    }

    /// Parses a spec token (the inverse of [`Strategy::spec`]).
    /// Case-insensitive.
    pub fn parse_spec(token: &str) -> Result<Strategy, String> {
        let token = token.trim().to_ascii_lowercase();
        let token = token.as_str();
        if token == "random" {
            return Ok(Strategy::Random);
        }
        if let Some(rest) = token.strip_prefix("burst") {
            if rest.is_empty() {
                return Ok(Strategy::Burst {
                    mean: DEFAULT_BURST_MEAN,
                });
            }
            if let Some(mean) = rest.strip_prefix('@') {
                let mean: u32 = mean
                    .parse()
                    .map_err(|_| format!("bad burst mean in `{token}`"))?;
                if mean == 0 {
                    return Err(format!("burst mean must be positive in `{token}`"));
                }
                return Ok(Strategy::Burst { mean });
            }
            return Err(format!("unknown strategy spec `{token}`"));
        }
        if let Some(rest) = token.strip_prefix("pct") {
            let (depth, ops) = match rest.split_once('@') {
                Some((d, o)) => (
                    d,
                    Some(
                        o.parse::<u64>()
                            .map_err(|_| format!("bad pct horizon in `{token}`"))?,
                    ),
                ),
                None => (rest, None),
            };
            let depth: u32 = depth
                .parse()
                .map_err(|_| format!("bad pct depth in `{token}`"))?;
            if depth == 0 {
                return Err(format!("pct depth must be ≥ 1 in `{token}`"));
            }
            let expected_ops = ops.unwrap_or(DEFAULT_PCT_OPS);
            if expected_ops == 0 {
                return Err(format!("pct horizon must be positive in `{token}`"));
            }
            return Ok(Strategy::Pct {
                depth,
                expected_ops,
            });
        }
        Err(format!(
            "unknown strategy spec `{token}` (expected random, burst[@mean], or pct<depth>[@ops])"
        ))
    }
}

/// A weighted set of strategies for campaign-level schedule
/// diversification (ROADMAP; cf. the PCT line of work): each execution
/// index is deterministically assigned one member strategy from
/// `(seed, index)` alone, so replay-by-index and worker-count
/// independent aggregation both survive mixing.
///
/// The textual grammar is a comma-separated list of
/// `<spec>[:<weight>]` entries (weight defaults to 1), e.g.
/// `random:4,pct2:2,pct3:1,burst:1`.
///
/// ```
/// use c11tester::{Strategy, StrategyMix};
///
/// let mix = StrategyMix::parse("random:2,pct2:1").unwrap();
/// assert_eq!(mix.spec(), "random:2,pct2:1");
/// // The assignment is a pure function of (seed, index):
/// assert_eq!(mix.strategy_at(7, 3), mix.strategy_at(7, 3));
/// assert!(matches!(mix.strategy_at(7, 0), Strategy::Random | Strategy::Pct { .. }));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StrategyMix {
    entries: Vec<(Strategy, u32)>,
    total_weight: u64,
}

/// Largest weight [`StrategyMix::normalize`] leaves in a mix: adaptive
/// reweighting runs for arbitrarily many epochs, so weights must stay
/// bounded no matter how skewed the detection columns become.
pub const MAX_NORMAL_WEIGHT: u32 = 1024;

impl StrategyMix {
    /// Builds a mix from `(strategy, weight)` entries.
    ///
    /// Rejects empty entry lists, zero weights, and duplicate strategy
    /// specs — each with a precise error naming the offending entry.
    pub fn new(entries: Vec<(Strategy, u32)>) -> Result<Self, String> {
        if entries.is_empty() {
            return Err("a strategy mix needs at least one entry".to_string());
        }
        let mut seen: Vec<String> = Vec::with_capacity(entries.len());
        for (strategy, weight) in &entries {
            let spec = strategy.spec();
            if *weight == 0 {
                return Err(format!("strategy `{spec}` has zero weight"));
            }
            if seen.contains(&spec) {
                return Err(format!("duplicate strategy `{spec}` in mix"));
            }
            seen.push(spec);
        }
        let total_weight: u64 = entries.iter().map(|(_, w)| u64::from(*w)).sum();
        Ok(StrategyMix {
            entries,
            total_weight,
        })
    }

    /// A single-strategy "mix" (weight 1) — handy for uniform APIs.
    pub fn single(strategy: Strategy) -> Self {
        StrategyMix {
            entries: vec![(strategy, 1)],
            total_weight: 1,
        }
    }

    /// Parses the `<spec>[:<weight>],…` grammar.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (spec, weight) = match part.rsplit_once(':') {
                Some((s, w)) => {
                    let weight = w.parse::<u32>().map_err(|_| {
                        if !w.is_empty() && w.bytes().all(|b| b.is_ascii_digit()) {
                            format!("weight overflows u32 in `{part}` (max {})", u32::MAX)
                        } else {
                            format!("bad weight in `{part}` (expected a positive integer)")
                        }
                    })?;
                    (s, weight)
                }
                None => (part, 1),
            };
            if weight == 0 {
                return Err(format!("weight must be positive in `{part}`"));
            }
            entries.push((Strategy::parse_spec(spec)?, weight));
        }
        if entries.is_empty() {
            return Err("a strategy mix needs at least one entry".to_string());
        }
        StrategyMix::new(entries)
    }

    /// The canonical textual form (`spec:weight` for every entry, in
    /// declaration order) — round-trips through [`StrategyMix::parse`].
    pub fn spec(&self) -> String {
        self.entries
            .iter()
            .map(|(s, w)| format!("{}:{w}", s.spec()))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The weighted entries.
    pub fn entries(&self) -> &[(Strategy, u32)] {
        &self.entries
    }

    /// Total weight across all entries.
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// The canonical bounded form of this mix: weights divided by their
    /// greatest common divisor, then — if the largest weight still
    /// exceeds [`MAX_NORMAL_WEIGHT`] — proportionally rescaled so the
    /// largest equals [`MAX_NORMAL_WEIGHT`] (every entry keeps weight
    /// ≥ 1). Strategy order is preserved; the result is a pure function
    /// of the input weights, which is what lets adaptive reweighters
    /// emit fresh weights every epoch without the totals growing
    /// without bound.
    ///
    /// Note that normalization changes `total_weight`, and
    /// [`StrategyMix::strategy_at`] reduces its hash modulo the total —
    /// so a normalized mix is an equivalent *distribution*, not an
    /// identical per-index assignment.
    pub fn normalize(&self) -> StrategyMix {
        fn gcd(a: u32, b: u32) -> u32 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let g = self
            .entries
            .iter()
            .fold(0u32, |g, (_, w)| gcd(g, *w))
            .max(1);
        let mut weights: Vec<u32> = self.entries.iter().map(|(_, w)| w / g).collect();
        let max = weights.iter().copied().max().unwrap_or(1);
        if max > MAX_NORMAL_WEIGHT {
            for w in &mut weights {
                // Round-to-nearest proportional rescale, floored at 1 so
                // no arm ever drops out of the mix entirely.
                *w = ((u64::from(*w) * u64::from(MAX_NORMAL_WEIGHT) + u64::from(max) / 2)
                    / u64::from(max))
                .max(1) as u32;
            }
        }
        let entries: Vec<(Strategy, u32)> = self
            .entries
            .iter()
            .zip(weights)
            .map(|(&(s, _), w)| (s, w))
            .collect();
        StrategyMix::new(entries).expect("normalize preserves validity")
    }

    /// The strategy assigned to execution `index` under base `seed` — a
    /// pure function of `(seed, index)`, independent of worker count,
    /// shard layout, or which model instance runs the execution.
    /// The hash stream is distinct from every scheduler's own
    /// per-execution stream (different mixing constants), so assignment
    /// does not correlate with in-execution choices.
    pub fn strategy_at(&self, seed: u64, index: u64) -> Strategy {
        let z = mix64(seed ^ 0x6A09_E667_F3BC_C909u64 ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut slot = z % self.total_weight;
        for (strategy, weight) in &self.entries {
            let w = u64::from(*weight);
            if slot < w {
                return *strategy;
            }
            slot -= w;
        }
        // Unreachable: slot < total_weight = Σ weights.
        self.entries[self.entries.len() - 1].0
    }
}

/// Configuration for a [`crate::Model`].
///
/// The defaults reproduce the C11Tester tool; [`Config::for_policy`]
/// gives each baseline the combination the paper evaluates.
///
/// # Examples
///
/// ```
/// use c11tester::{Config, Policy};
///
/// let config = Config::new()
///     .with_seed(42)
///     .with_policy(Policy::C11Tester);
/// assert_eq!(config.seed, 42);
/// ```
#[derive(Clone, Debug)]
pub struct Config {
    /// Memory-model fragment (C11Tester vs. tsan11-family baselines).
    pub policy: Policy,
    /// Base seed; execution `i` derives its own stream from it.
    pub seed: u64,
    /// Run-token handover strategy: fibers, or pooled futex park.
    pub handover: HandoverKind,
    /// Testing strategy plugin (used for every execution unless a
    /// [`Config::mix`] overrides the assignment per index).
    pub strategy: Strategy,
    /// Optional strategy mix: when set, execution `i` runs under
    /// `mix.strategy_at(seed, i)` instead of [`Config::strategy`].
    pub mix: Option<StrategyMix>,
    /// Execution-graph pruning (§7.1).
    pub prune: PruneConfig,
    /// Memory order applied to legacy volatile loads (§7.2; the paper's
    /// default treats volatiles as relaxed atomics).
    pub volatile_load_order: MemOrder,
    /// Memory order applied to legacy volatile stores.
    pub volatile_store_order: MemOrder,
    /// Abort an execution after this many model events (runaway guard).
    pub max_events: u64,
}

impl Config {
    /// C11Tester defaults: full memory-model fragment, random strategy,
    /// fiber handover (§7.3; futex park where fibers are unsupported),
    /// pruning off.
    pub fn new() -> Self {
        Config {
            policy: Policy::C11Tester,
            seed: 0xC11,
            handover: HandoverKind::default_fast(),
            strategy: Strategy::Random,
            mix: None,
            prune: PruneConfig::disabled(),
            volatile_load_order: MemOrder::Relaxed,
            volatile_store_order: MemOrder::Relaxed,
            max_events: 50_000_000,
        }
    }

    /// The paper's per-tool configurations:
    ///
    /// * `C11Tester` — full fragment, controlled random scheduling,
    ///   fast (fiber) handover;
    /// * `Tsan11Rec` — restricted fragment, controlled random
    ///   scheduling, kernel-thread (futex park) handover as in its
    ///   scheduler;
    /// * `Tsan11` — restricted fragment, uncontrolled scheduling
    ///   emulated by long bursts.
    pub fn for_policy(policy: Policy) -> Self {
        let base = Config::new();
        match policy {
            Policy::C11Tester => Config { policy, ..base },
            Policy::Tsan11Rec => Config {
                policy,
                handover: HandoverKind::Park,
                ..base
            },
            Policy::Tsan11 => Config {
                policy,
                strategy: Strategy::Burst { mean: 400 },
                ..base
            },
        }
    }

    /// Sets the memory-model policy.
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the base random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the handover strategy.
    pub fn with_handover(mut self, handover: HandoverKind) -> Self {
        self.handover = handover;
        self
    }

    /// Sets the testing strategy (and clears any mix).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self.mix = None;
        self
    }

    /// Sets a strategy mix: execution `i` runs under
    /// `mix.strategy_at(seed, i)`.
    pub fn with_mix(mut self, mix: StrategyMix) -> Self {
        self.mix = Some(mix);
        self
    }

    /// The strategy assigned to execution `index`: the mix assignment
    /// when a mix is set, the fixed [`Config::strategy`] otherwise.
    /// A pure function of `(self.seed, self.strategy, self.mix,
    /// index)` — the contract [`crate::Model::run_at`] replay and
    /// campaign worker-count independence rest on.
    pub fn strategy_for(&self, index: u64) -> Strategy {
        match &self.mix {
            Some(mix) => mix.strategy_at(self.seed, index),
            None => self.strategy,
        }
    }

    /// Canonical textual label of the execution-assignment policy: the
    /// mix spec when mixing, the single strategy's spec otherwise.
    pub fn strategy_label(&self) -> String {
        match &self.mix {
            Some(mix) => mix.spec(),
            None => self.strategy.spec(),
        }
    }

    /// Sets the pruning configuration.
    pub fn with_prune(mut self, prune: PruneConfig) -> Self {
        self.prune = prune;
        self
    }

    /// Prune interval used by [`Config::with_memory_limit`]. A single
    /// constant so the `--memory-limit` CLI flag and the fork-server
    /// worker re-entry reconstruct the exact same configuration.
    pub const MEMORY_LIMIT_PRUNE_INTERVAL: u64 = 64;

    /// First-class §7.1 memory limiting (`--memory-limit`): windowed
    /// pruning plus mo-graph arena compaction, so resident graph state
    /// stays bounded on long executions — even ones whose threads
    /// never synchronize (the paper accepts that discarding old trace
    /// state may narrow producible behaviors). The window and the
    /// compaction trigger are deterministic, so canonical output stays
    /// byte-identical across worker counts.
    pub fn with_memory_limit(mut self) -> Self {
        self.prune = PruneConfig::memory_limited(Self::MEMORY_LIMIT_PRUNE_INTERVAL);
        self
    }

    /// Sets both volatile access orders (the Silo experiment toggles
    /// this between `Relaxed` and acquire/release, §8.2).
    pub fn with_volatile_orders(mut self, load: MemOrder, store: MemOrder) -> Self {
        self.volatile_load_order = load;
        self.volatile_store_order = store;
        self
    }

    /// Sets the per-execution event budget.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }
}

impl Default for Config {
    fn default() -> Self {
        Config::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_policy_configs_match_paper_shape() {
        let c = Config::for_policy(Policy::C11Tester);
        assert_eq!(c.handover, HandoverKind::default_fast());
        assert_eq!(c.strategy, Strategy::Random);
        let r = Config::for_policy(Policy::Tsan11Rec);
        assert_eq!(r.handover, HandoverKind::Park);
        assert_eq!(r.strategy, Strategy::Random);
        let t = Config::for_policy(Policy::Tsan11);
        assert!(matches!(t.strategy, Strategy::Burst { .. }));
    }

    #[test]
    fn strategy_spec_round_trips() {
        let strategies = [
            Strategy::Random,
            Strategy::Burst {
                mean: DEFAULT_BURST_MEAN,
            },
            Strategy::Burst { mean: 37 },
            Strategy::Pct {
                depth: 2,
                expected_ops: DEFAULT_PCT_OPS,
            },
            Strategy::Pct {
                depth: 3,
                expected_ops: 64,
            },
        ];
        for s in strategies {
            assert_eq!(Strategy::parse_spec(&s.spec()), Ok(s), "spec {}", s.spec());
        }
        assert_eq!(Strategy::parse_spec("pct2").unwrap().spec(), "pct2");
        assert_eq!(Strategy::parse_spec("burst").unwrap().spec(), "burst");
        // Case-insensitive across all spellings.
        assert_eq!(Strategy::parse_spec("Random").unwrap().spec(), "random");
        assert_eq!(Strategy::parse_spec("Burst@37").unwrap().spec(), "burst@37");
        assert_eq!(Strategy::parse_spec("PCT3@64").unwrap().spec(), "pct3@64");
        assert!(Strategy::parse_spec("pct0").is_err());
        assert!(Strategy::parse_spec("pctx").is_err());
        assert!(Strategy::parse_spec("burst@0").is_err());
        assert!(Strategy::parse_spec("quantum").is_err());
    }

    #[test]
    fn mix_parse_round_trips_and_respects_weights() {
        let mix = StrategyMix::parse("random:4,pct2:2,pct3:1,burst:1").unwrap();
        assert_eq!(mix.spec(), "random:4,pct2:2,pct3:1,burst:1");
        assert_eq!(mix.entries().len(), 4);
        // Default weight is 1.
        let mix = StrategyMix::parse("random,pct2").unwrap();
        assert_eq!(mix.spec(), "random:1,pct2:1");
        assert!(StrategyMix::parse("").is_err());
        assert!(StrategyMix::parse("random:0").is_err());
        assert!(StrategyMix::parse("random:x").is_err());
        assert!(StrategyMix::parse("warp:1").is_err());
    }

    #[test]
    fn mix_rejects_duplicates_zero_and_overflowing_weights_precisely() {
        // Duplicate specs are rejected with the offending spec named —
        // both spelled identically and via equivalent default forms.
        let err = StrategyMix::parse("random:2,pct2:1,random:1").unwrap_err();
        assert!(err.contains("duplicate strategy `random`"), "{err}");
        let err = StrategyMix::parse("pct2,pct2@128").unwrap_err();
        assert!(err.contains("duplicate strategy `pct2`"), "{err}");
        // Overflowing weights get their own message (not a generic
        // parse failure).
        let err = StrategyMix::parse("random:4294967296").unwrap_err();
        assert!(err.contains("overflows u32"), "{err}");
        let err = StrategyMix::parse("random:-3").unwrap_err();
        assert!(err.contains("bad weight"), "{err}");
        // Constructor-level checks mirror the parser.
        let err = StrategyMix::new(vec![(Strategy::Random, 0)]).unwrap_err();
        assert!(err.contains("zero weight"), "{err}");
        let err = StrategyMix::new(vec![(Strategy::Random, 1), (Strategy::Random, 2)]).unwrap_err();
        assert!(err.contains("duplicate strategy"), "{err}");
        assert!(StrategyMix::new(Vec::new()).is_err());
    }

    #[test]
    fn normalize_bounds_weights_and_preserves_ratios() {
        // gcd reduction.
        let mix = StrategyMix::parse("random:4,pct2:2,pct3:2").unwrap();
        assert_eq!(mix.normalize().spec(), "random:2,pct2:1,pct3:1");
        // Already-canonical mixes are untouched.
        let mix = StrategyMix::parse("random:2,pct2:1").unwrap();
        assert_eq!(mix.normalize().spec(), "random:2,pct2:1");
        // Huge weights are rescaled so the max is MAX_NORMAL_WEIGHT and
        // tiny arms survive with weight >= 1.
        let mix = StrategyMix::new(vec![
            (Strategy::Random, 3_000_000),
            (
                Strategy::Pct {
                    depth: 2,
                    expected_ops: DEFAULT_PCT_OPS,
                },
                1,
            ),
        ])
        .unwrap();
        let norm = mix.normalize();
        let weights: Vec<u32> = norm.entries().iter().map(|(_, w)| *w).collect();
        assert_eq!(weights[0], MAX_NORMAL_WEIGHT);
        assert_eq!(weights[1], 1);
        // Normalization is idempotent.
        assert_eq!(norm.normalize().spec(), norm.spec());
        assert!(norm.total_weight() <= u64::from(MAX_NORMAL_WEIGHT) * 2);
    }

    #[test]
    fn mix_assignment_is_pure_and_covers_all_entries() {
        let mix = StrategyMix::parse("random:2,pct2:1,pct3:1").unwrap();
        let assigned: Vec<Strategy> = (0..64).map(|i| mix.strategy_at(9, i)).collect();
        let again: Vec<Strategy> = (0..64).map(|i| mix.strategy_at(9, i)).collect();
        assert_eq!(assigned, again, "pure function of (seed, index)");
        for (strategy, _) in mix.entries() {
            assert!(
                assigned.contains(strategy),
                "64 indices should hit every entry; missing {strategy:?}"
            );
        }
        // A different seed permutes the assignment.
        let other: Vec<Strategy> = (0..64).map(|i| mix.strategy_at(10, i)).collect();
        assert_ne!(assigned, other);
    }

    #[test]
    fn mix_weights_shape_the_empirical_distribution() {
        let mix = StrategyMix::parse("random:3,pct2:1").unwrap();
        let n = 4000u64;
        let randoms = (0..n)
            .filter(|&i| mix.strategy_at(0xC11, i) == Strategy::Random)
            .count() as f64;
        let frac = randoms / n as f64;
        assert!(
            (frac - 0.75).abs() < 0.05,
            "random fraction {frac} should approximate weight 3/4"
        );
    }

    #[test]
    fn config_resolves_strategy_per_index() {
        let single = Config::new().with_seed(5);
        assert_eq!(single.strategy_for(0), Strategy::Random);
        assert_eq!(single.strategy_for(999), Strategy::Random);
        assert_eq!(single.strategy_label(), "random");

        let mix = StrategyMix::parse("random:1,pct2:1").unwrap();
        let mixed = Config::new().with_seed(5).with_mix(mix.clone());
        assert_eq!(mixed.strategy_label(), "random:1,pct2:1");
        for i in 0..32 {
            assert_eq!(mixed.strategy_for(i), mix.strategy_at(5, i));
        }
        // with_strategy clears the mix.
        let cleared = mixed.with_strategy(Strategy::Random);
        assert!(cleared.mix.is_none());
    }

    #[test]
    fn builder_chains() {
        let c = Config::new()
            .with_seed(7)
            .with_max_events(123)
            .with_volatile_orders(MemOrder::Acquire, MemOrder::Release);
        assert_eq!(c.seed, 7);
        assert_eq!(c.max_events, 123);
        assert_eq!(c.volatile_load_order, MemOrder::Acquire);
        assert_eq!(c.volatile_store_order, MemOrder::Release);
    }
}
