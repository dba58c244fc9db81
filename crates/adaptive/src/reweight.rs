//! Pluggable epoch reweighters: pure functions from completed-epoch
//! detection columns to the next epoch's [`StrategyMix`].
//!
//! The controller treats each member strategy of the initial mix as a
//! **bandit arm** and the per-strategy bug detection columns
//! ([`c11tester_race::StrategyLedger`]) as the reward signal. Between
//! epochs it asks the [`Reweighter`] for the next mix; the contract is
//! that the answer is a *pure function of the inputs in
//! [`ReweightCtx`]* — no clocks, no ambient randomness, no interior
//! mutability. Since fixed-budget epoch aggregates are byte-identical
//! across worker counts (the campaign determinism contract), purity
//! here is exactly what makes the whole adaptive run worker-count
//! independent and replayable.
//!
//! Weights are quantized to integers on a fixed scale and then
//! [`StrategyMix::normalize`]d, so they stay bounded over arbitrarily
//! many epochs and every arm keeps weight ≥ 1 (no arm ever becomes
//! unreachable, which both keeps exploration alive and keeps every
//! spec's detection column flowing).

use c11tester::{Strategy, StrategyMix};
use c11tester_campaign::EpochRecord;
use c11tester_race::StrategyLedger;
use std::collections::BTreeMap;

/// Everything a reweighter may condition on: the campaign's base seed,
/// the arms (the initial mix), and the completed epochs' aggregates.
#[derive(Debug)]
pub struct ReweightCtx<'a> {
    /// The campaign's base seed (available for tie-breaking; the
    /// built-in policies don't need it).
    pub base_seed: u64,
    /// 0-based number of the epoch being planned (first reweight is
    /// asked for epoch 1).
    pub next_epoch: u64,
    /// The initial mix — its entries are the arms.
    pub initial_mix: &'a StrategyMix,
    /// Completed epochs in order.
    pub epochs: &'a [EpochRecord],
    /// Per-strategy detection columns merged over all completed epochs.
    pub cumulative: &'a StrategyLedger,
    /// Per-epoch coverage deltas, aligned with `epochs`: for each
    /// completed epoch, how many **new** behaviors (rf edges, mo
    /// adjacencies, race classes, interleaving signatures not seen in
    /// any earlier epoch) each strategy spec first discovered. Empty
    /// maps when the campaign runs without coverage collection — the
    /// detection-driven policies ignore this field entirely, so their
    /// mix trajectories are unchanged by its presence.
    pub coverage_deltas: &'a [BTreeMap<String, u64>],
}

impl ReweightCtx<'_> {
    /// The arms in initial-mix order.
    pub fn arms(&self) -> Vec<Strategy> {
        self.initial_mix.entries().iter().map(|(s, _)| *s).collect()
    }

    /// Total executions completed so far.
    pub fn total_executions(&self) -> u64 {
        self.cumulative.total_executions()
    }

    /// `(executions, executions_with_bug)` for one arm so far.
    pub fn arm_counts(&self, arm: &Strategy) -> (u64, u64) {
        match self.cumulative.get(&arm.spec()) {
            Some(b) => (b.executions, b.executions_with_bug),
            None => (0, 0),
        }
    }

    /// Total new behaviors one arm first discovered over all completed
    /// epochs (zero when the campaign runs without coverage).
    pub fn arm_new_behaviors(&self, arm: &Strategy) -> u64 {
        let spec = arm.spec();
        self.coverage_deltas
            .iter()
            .filter_map(|d| d.get(&spec))
            .sum()
    }
}

/// A policy that emits the next epoch's mix from the completed epochs'
/// detection columns. Implementations MUST be pure functions of the
/// [`ReweightCtx`] (see the module docs for why).
pub trait Reweighter: std::fmt::Debug + Send + Sync {
    /// Canonical spec of the policy (recorded in the epoch trace), e.g.
    /// `fixed`, `ucb1`, `ucb1@2`, `exp3@0.25`.
    fn spec(&self) -> String;

    /// The mix for `ctx.next_epoch`.
    fn reweight(&self, ctx: &ReweightCtx<'_>) -> StrategyMix;
}

/// Resolution scores are quantized to: the best-scoring arm gets this
/// weight, the rest get proportionally less (min 1).
const WEIGHT_SCALE: u32 = 120;

/// Quantizes per-arm scores into a normalized integer-weight mix.
/// Non-finite or non-positive scores are floored to the minimum weight;
/// if no score is positive the mix falls back to uniform.
fn mix_from_scores(arms: &[Strategy], scores: &[f64]) -> StrategyMix {
    debug_assert_eq!(arms.len(), scores.len());
    let max = scores
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .fold(0.0f64, f64::max);
    let entries: Vec<(Strategy, u32)> = arms
        .iter()
        .zip(scores)
        .map(|(&arm, &score)| {
            let weight = if score.is_infinite() && score > 0.0 {
                WEIGHT_SCALE
            } else if max <= 0.0 || !score.is_finite() || score <= 0.0 {
                1
            } else {
                ((score / max) * f64::from(WEIGHT_SCALE)).round().max(1.0) as u32
            };
            (arm, weight)
        })
        .collect();
    StrategyMix::new(entries)
        .expect("arms are distinct with positive weights")
        .normalize()
}

/// The no-op control: every epoch re-uses the initial mix **verbatim**
/// (not even normalized), so an adaptive campaign under `Fixed` runs
/// exactly the executions a plain mixed campaign runs — the
/// equivalence the test suite pins.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fixed;

impl Reweighter for Fixed {
    fn spec(&self) -> String {
        "fixed".to_string()
    }

    fn reweight(&self, ctx: &ReweightCtx<'_>) -> StrategyMix {
        ctx.initial_mix.clone()
    }
}

/// UCB1 (Auer et al.): score each arm by mean reward plus an
/// exploration bonus, `r̄ₐ + c·√(ln N / nₐ)`, where the reward of an
/// execution is 1 if it found any bug. Arms that never ran score
/// infinite (maximum weight) so no column stays empty. The classical
/// algorithm *plays* the argmax arm; an epoch draws many executions,
/// so weights are set proportional to the scores instead — the argmax
/// arm dominates the epoch while lower-confidence arms keep sampling.
#[derive(Clone, Copy, Debug)]
pub struct Ucb1 {
    /// Exploration constant (`√2` is the classical choice).
    pub exploration: f64,
}

impl Default for Ucb1 {
    fn default() -> Self {
        Ucb1 {
            exploration: std::f64::consts::SQRT_2,
        }
    }
}

impl Reweighter for Ucb1 {
    fn spec(&self) -> String {
        if (self.exploration - std::f64::consts::SQRT_2).abs() < 1e-12 {
            "ucb1".to_string()
        } else {
            format!("ucb1@{}", self.exploration)
        }
    }

    fn reweight(&self, ctx: &ReweightCtx<'_>) -> StrategyMix {
        let arms = ctx.arms();
        let total = ctx.total_executions().max(1) as f64;
        let scores: Vec<f64> = arms
            .iter()
            .map(|arm| {
                let (n, bugs) = ctx.arm_counts(arm);
                if n == 0 {
                    return f64::INFINITY;
                }
                let mean = bugs as f64 / n as f64;
                mean + self.exploration * (total.ln().max(0.0) / n as f64).sqrt()
            })
            .collect();
        mix_from_scores(&arms, &scores)
    }
}

/// Coverage-driven UCB: like [`Ucb1`], but the reward of an arm is its
/// mean **new-behavior discovery rate** (new rf edges, mo adjacencies,
/// race classes, and interleaving signatures it was first to exhibit,
/// per execution — [`ReweightCtx::arm_new_behaviors`]) instead of its
/// bug rate. This closes the ROADMAP's coverage loop: the budget flows
/// toward strategies that keep *exploring*, which front-loads distinct
/// behaviors even on targets where every strategy's bug column is flat
/// zero. Requires coverage collection
/// ([`c11tester_telemetry::set_coverage`] — `c11campaign` enables it
/// automatically for this policy); without it every delta is zero and
/// the policy degenerates to pure exploration (uniform-ish mixing).
#[derive(Clone, Copy, Debug)]
pub struct CoverageUcb {
    /// Exploration constant (`√2` is the classical choice).
    pub exploration: f64,
}

impl Default for CoverageUcb {
    fn default() -> Self {
        CoverageUcb {
            exploration: std::f64::consts::SQRT_2,
        }
    }
}

impl Reweighter for CoverageUcb {
    fn spec(&self) -> String {
        if (self.exploration - std::f64::consts::SQRT_2).abs() < 1e-12 {
            "coverage-ucb".to_string()
        } else {
            format!("coverage-ucb@{}", self.exploration)
        }
    }

    fn reweight(&self, ctx: &ReweightCtx<'_>) -> StrategyMix {
        let arms = ctx.arms();
        let total = ctx.total_executions().max(1) as f64;
        // Normalize discovery counts so the exploration bonus keeps its
        // classical scale: rewards land in [0, 1] with the best
        // discoverer at 1.
        let raw: Vec<f64> = arms
            .iter()
            .map(|arm| {
                let (n, _) = ctx.arm_counts(arm);
                if n == 0 {
                    return f64::NAN; // marked unplayed below
                }
                ctx.arm_new_behaviors(arm) as f64 / n as f64
            })
            .collect();
        let best = raw
            .iter()
            .copied()
            .filter(|r| r.is_finite())
            .fold(0.0f64, f64::max);
        let scores: Vec<f64> = arms
            .iter()
            .zip(&raw)
            .map(|(arm, &rate)| {
                if rate.is_nan() {
                    return f64::INFINITY;
                }
                let mean = if best > 0.0 { rate / best } else { 0.0 };
                let (n, _) = ctx.arm_counts(arm);
                mean + self.exploration * (total.ln().max(0.0) / n as f64).sqrt()
            })
            .collect();
        mix_from_scores(&arms, &scores)
    }
}

/// Exponential-weights (EXP3-style): each arm accumulates
/// `η · (epoch bug rate)` in the log domain over the completed epochs,
/// the next mix is the softmax of those totals blended with a `γ`
/// uniform-exploration floor. Epoch rewards (rather than
/// importance-weighted per-play rewards) keep the update deterministic
/// and worker-count independent.
#[derive(Clone, Copy, Debug)]
pub struct ExpWeights {
    /// Learning rate `η` (log-weight gain per unit of bug rate).
    pub eta: f64,
    /// Uniform exploration floor `γ` in `[0, 1]`.
    pub gamma: f64,
}

impl Default for ExpWeights {
    fn default() -> Self {
        ExpWeights {
            eta: 0.5,
            gamma: 0.1,
        }
    }
}

impl Reweighter for ExpWeights {
    fn spec(&self) -> String {
        let default = ExpWeights::default();
        if (self.gamma - default.gamma).abs() >= 1e-12 {
            // Both parameters, so the recorded spec parses back to
            // this exact controller.
            format!("exp3@{},{}", self.eta, self.gamma)
        } else if (self.eta - default.eta).abs() >= 1e-12 {
            format!("exp3@{}", self.eta)
        } else {
            "exp3".to_string()
        }
    }

    fn reweight(&self, ctx: &ReweightCtx<'_>) -> StrategyMix {
        let arms = ctx.arms();
        let k = arms.len().max(1) as f64;
        // Log-domain accumulation over epochs.
        let log_weights: Vec<f64> = arms
            .iter()
            .map(|arm| {
                let spec = arm.spec();
                ctx.epochs
                    .iter()
                    .map(|e| match e.aggregate.per_strategy.get(&spec) {
                        Some(b) if b.executions > 0 => {
                            self.eta * (b.executions_with_bug as f64 / b.executions as f64)
                        }
                        _ => 0.0,
                    })
                    .sum()
            })
            .collect();
        let max_log = log_weights
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let exp: Vec<f64> = log_weights.iter().map(|w| (w - max_log).exp()).collect();
        let sum: f64 = exp.iter().sum();
        let scores: Vec<f64> = exp
            .iter()
            .map(|e| (1.0 - self.gamma) * (e / sum) + self.gamma / k)
            .collect();
        mix_from_scores(&arms, &scores)
    }
}

/// Parses a reweighting-policy spec: `fixed`, `ucb1[@<c>]`,
/// `coverage-ucb[@<c>]`, or `exp3[@<eta>[,<gamma>]]`
/// (case-insensitive). The inverse of [`Reweighter::spec`].
pub fn parse_policy(token: &str) -> Result<Box<dyn Reweighter>, String> {
    let token = token.trim().to_ascii_lowercase();
    let (name, param) = match token.split_once('@') {
        Some((n, p)) => (n, Some(p)),
        None => (token.as_str(), None),
    };
    let param_f64 = |p: Option<&str>, what: &str| -> Result<Option<f64>, String> {
        match p {
            None => Ok(None),
            Some(raw) => {
                let v: f64 = raw
                    .parse()
                    .map_err(|_| format!("bad {what} in `{token}`"))?;
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!("{what} must be positive in `{token}`"));
                }
                Ok(Some(v))
            }
        }
    };
    match name {
        "fixed" => {
            if param.is_some() {
                return Err(format!("`fixed` takes no parameter (got `{token}`)"));
            }
            Ok(Box::new(Fixed))
        }
        "ucb1" => {
            let exploration =
                param_f64(param, "exploration constant")?.unwrap_or(std::f64::consts::SQRT_2);
            Ok(Box::new(Ucb1 { exploration }))
        }
        "coverage-ucb" => {
            let exploration =
                param_f64(param, "exploration constant")?.unwrap_or(std::f64::consts::SQRT_2);
            Ok(Box::new(CoverageUcb { exploration }))
        }
        "exp3" | "exp" => {
            let (eta_raw, gamma_raw) = match param.and_then(|p| p.split_once(',')) {
                Some((e, g)) => (Some(e), Some(g)),
                None => (param, None),
            };
            let eta = param_f64(eta_raw, "learning rate")?.unwrap_or(ExpWeights::default().eta);
            let gamma = match gamma_raw {
                None => ExpWeights::default().gamma,
                Some(raw) => {
                    let g: f64 = raw
                        .parse()
                        .map_err(|_| format!("bad exploration floor in `{token}`"))?;
                    if !g.is_finite() || !(0.0..=1.0).contains(&g) {
                        return Err(format!("exploration floor must be in [0, 1] in `{token}`"));
                    }
                    g
                }
            };
            Ok(Box::new(ExpWeights { eta, gamma }))
        }
        other => Err(format!(
            "unknown adaptive policy `{other}` \
             (expected fixed, ucb1[@c], coverage-ucb[@c], or exp3[@eta])"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use c11tester::TestReport;

    /// Builds a ledger + epoch records from `(spec, execs, bugs)` rows.
    fn synthetic(rows: &[(&str, u64, u64)]) -> (StrategyLedger, Vec<EpochRecord>) {
        let mut ledger = StrategyLedger::new();
        let mut ix = 0u64;
        for &(spec, execs, bugs) in rows {
            for i in 0..execs {
                ledger.record(spec, ix, &[], i < bugs);
                ix += 1;
            }
        }
        let aggregate = TestReport {
            executions: ledger.total_executions(),
            per_strategy: ledger.clone(),
            ..Default::default()
        };
        let record = EpochRecord {
            epoch: 0,
            start_index: 0,
            mix: "synthetic".to_string(),
            aggregate,
        };
        (ledger, vec![record])
    }

    fn ctx<'a>(
        initial: &'a StrategyMix,
        ledger: &'a StrategyLedger,
        epochs: &'a [EpochRecord],
    ) -> ReweightCtx<'a> {
        ReweightCtx {
            base_seed: 0xC11,
            next_epoch: epochs.len() as u64,
            initial_mix: initial,
            epochs,
            cumulative: ledger,
            coverage_deltas: &[],
        }
    }

    fn weight_of(mix: &StrategyMix, spec: &str) -> u32 {
        mix.entries()
            .iter()
            .find(|(s, _)| s.spec() == spec)
            .map(|(_, w)| *w)
            .expect("arm present")
    }

    #[test]
    fn ucb1_prefers_the_arm_with_the_higher_bug_rate() {
        let initial = StrategyMix::parse("pct1:1,pct2:1").expect("valid");
        let (ledger, epochs) = synthetic(&[("pct1", 50, 0), ("pct2", 50, 40)]);
        let mix = Ucb1::default().reweight(&ctx(&initial, &ledger, &epochs));
        assert!(
            weight_of(&mix, "pct2") > weight_of(&mix, "pct1"),
            "pct2 found bugs, pct1 none: {}",
            mix.spec()
        );
        // Every arm stays in the mix (weight >= 1).
        assert_eq!(mix.entries().len(), 2);
        assert!(mix.entries().iter().all(|(_, w)| *w >= 1));
    }

    #[test]
    fn ucb1_explores_unplayed_and_undersampled_arms() {
        let initial = StrategyMix::parse("random:1,pct2:1,burst:1").expect("valid");
        // burst never ran: it must get the top weight.
        let (ledger, epochs) = synthetic(&[("random", 60, 0), ("pct2", 4, 0)]);
        let mix = Ucb1::default().reweight(&ctx(&initial, &ledger, &epochs));
        let b = weight_of(&mix, "burst");
        assert!(b >= weight_of(&mix, "random"));
        assert!(b >= weight_of(&mix, "pct2"));
        // With zero reward everywhere, the undersampled arm outranks
        // the heavily sampled one (pure exploration bonus).
        assert!(weight_of(&mix, "pct2") >= weight_of(&mix, "random"));
    }

    #[test]
    fn coverage_ucb_prefers_the_arm_that_discovers_more_behaviors() {
        let initial = StrategyMix::parse("pct1:1,pct2:1").expect("valid");
        // Equal play, zero bugs everywhere — the detection-driven
        // policies see a flat landscape, but pct2 keeps finding new
        // behaviors.
        let (ledger, epochs) = synthetic(&[("pct1", 50, 0), ("pct2", 50, 0)]);
        let deltas = vec![BTreeMap::from([
            ("pct1".to_string(), 2u64),
            ("pct2".to_string(), 40u64),
        ])];
        let mut c = ctx(&initial, &ledger, &epochs);
        c.coverage_deltas = &deltas;
        let mix = CoverageUcb::default().reweight(&c);
        assert!(
            weight_of(&mix, "pct2") > weight_of(&mix, "pct1"),
            "pct2 discovered 20x the behaviors: {}",
            mix.spec()
        );
        assert!(mix.entries().iter().all(|(_, w)| *w >= 1));
        // Unplayed arms still win the exploration bonus.
        let initial3 = StrategyMix::parse("pct1:1,pct2:1,burst:1").expect("valid");
        let mut c = ctx(&initial3, &ledger, &epochs);
        c.coverage_deltas = &deltas;
        let mix = CoverageUcb::default().reweight(&c);
        assert!(weight_of(&mix, "burst") >= weight_of(&mix, "pct1"));
    }

    #[test]
    fn coverage_deltas_do_not_perturb_detection_driven_policies() {
        let initial = StrategyMix::parse("random:2,pct2:1").expect("valid");
        let (ledger, epochs) = synthetic(&[("random", 30, 3), ("pct2", 20, 10)]);
        let deltas = vec![BTreeMap::from([("random".to_string(), 99u64)])];
        for policy in ["fixed", "ucb1", "exp3"] {
            let p = parse_policy(policy).expect("valid policy");
            let without = p.reweight(&ctx(&initial, &ledger, &epochs));
            let mut c = ctx(&initial, &ledger, &epochs);
            c.coverage_deltas = &deltas;
            let with = p.reweight(&c);
            assert_eq!(
                without.spec(),
                with.spec(),
                "policy {policy} must ignore coverage deltas"
            );
        }
    }

    #[test]
    fn exp_weights_shift_toward_the_rewarding_arm_but_keep_the_floor() {
        let initial = StrategyMix::parse("pct1:1,pct2:1").expect("valid");
        let (ledger, epochs) = synthetic(&[("pct1", 50, 0), ("pct2", 50, 50)]);
        let mix = ExpWeights::default().reweight(&ctx(&initial, &ledger, &epochs));
        assert!(
            weight_of(&mix, "pct2") > weight_of(&mix, "pct1"),
            "{}",
            mix.spec()
        );
        assert!(
            weight_of(&mix, "pct1") >= 1,
            "gamma floor keeps losers alive"
        );
    }

    #[test]
    fn reweighting_is_a_pure_function_of_the_context() {
        let initial = StrategyMix::parse("random:2,pct2:1").expect("valid");
        let (ledger, epochs) = synthetic(&[("random", 30, 3), ("pct2", 20, 10)]);
        for policy in [
            "fixed",
            "ucb1",
            "exp3",
            "ucb1@2",
            "exp3@0.25",
            "coverage-ucb",
        ] {
            let p = parse_policy(policy).expect("valid policy");
            let a = p.reweight(&ctx(&initial, &ledger, &epochs));
            let b = p.reweight(&ctx(&initial, &ledger, &epochs));
            assert_eq!(a.spec(), b.spec(), "policy {policy} must be pure");
        }
    }

    #[test]
    fn fixed_returns_the_initial_mix_verbatim() {
        let initial = StrategyMix::parse("random:4,pct2:2").expect("valid");
        let (ledger, epochs) = synthetic(&[("random", 10, 10)]);
        let mix = Fixed.reweight(&ctx(&initial, &ledger, &epochs));
        // Verbatim, not normalized: total weight (hence per-index
        // assignment) is exactly the plain campaign's.
        assert_eq!(mix.spec(), "random:4,pct2:2");
    }

    #[test]
    fn policy_specs_parse_and_round_trip() {
        for (token, spec) in [
            ("fixed", "fixed"),
            ("ucb1", "ucb1"),
            ("UCB1@2", "ucb1@2"),
            ("exp3", "exp3"),
            ("exp3@0.25", "exp3@0.25"),
            ("exp3@0.25,0.3", "exp3@0.25,0.3"),
            ("coverage-ucb", "coverage-ucb"),
            ("Coverage-UCB@2", "coverage-ucb@2"),
        ] {
            let p = parse_policy(token).expect("valid policy");
            assert_eq!(p.spec(), spec);
        }
        // A custom-gamma reweighter's recorded spec parses back to the
        // identical controller (gamma is not silently dropped).
        let custom = ExpWeights {
            eta: 0.5,
            gamma: 0.3,
        };
        assert_eq!(custom.spec(), "exp3@0.5,0.3");
        assert_eq!(
            parse_policy(&custom.spec()).expect("round-trips").spec(),
            custom.spec()
        );
        assert!(parse_policy("thompson").is_err());
        assert!(parse_policy("ucb1@0").is_err());
        assert!(parse_policy("coverage-ucb@0").is_err());
        assert!(parse_policy("ucb1@x").is_err());
        assert!(parse_policy("fixed@1").is_err());
        assert!(parse_policy("exp3@-1").is_err());
        assert!(parse_policy("exp3@0.5,2").is_err());
        assert!(parse_policy("exp3@0.5,x").is_err());
    }
}
