//! The in-tree statistical benchmark harness behind the `c11bench`
//! binary (the offline replacement for the parked Criterion benches).
//!
//! Method: for each named campaign target, run `warmup` untimed trials
//! followed by `trials` timed trials; each trial is one fixed-budget
//! [`Campaign`] of `executions` executions under a fixed seed. The
//! reported statistic is the **median executions/second over the
//! trials with the interquartile range** — robust against the
//! scheduling noise of shared CI hosts, unlike a mean. Every trial
//! must also produce **byte-identical canonical JSON** (same seed,
//! same budget ⇒ same report), so each bench run doubles as a
//! determinism check of the recycled hot path.
//!
//! Results serialize to the `c11bench/v1` schema written to
//! `BENCH_campaign.json` (see `docs/BENCH.md`); a previous file can be
//! fed back as a baseline to compute per-target speedups.

use c11tester::Config;
use c11tester_campaign::baseline::JsonValue;
use c11tester_campaign::targets::Target;
use c11tester_campaign::wire::esc;
use c11tester_campaign::{Campaign, CampaignBudget};
use std::collections::BTreeMap;
use std::time::Instant;

/// Targets measured when `c11bench` is given no `--targets` list: a
/// litmus-style pair (dekker, barrier), the lock-free data structures,
/// the lock implementations, the §8.1 seeded-bug workloads, one
/// application simulation, and one generated program (the interpreter
/// hot path the fuzzer sweeps).
pub const DEFAULT_BENCH_TARGETS: &[&str] = &[
    "dekker-fences",
    "barrier",
    "ms-queue",
    "mpmc-queue",
    "chase-lev-deque",
    "mcs-lock",
    "linuxrwlocks",
    "seqlock-buggy",
    "rwlock-buggy",
    "silo",
    "gen:5",
];

/// Harness parameters (all fixed and recorded in the output so a run
/// is reproducible from its JSON alone).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Base seed for every campaign.
    pub seed: u64,
    /// Executions per timed trial.
    pub executions: u64,
    /// Timed trials per target.
    pub trials: u32,
    /// Untimed warmup trials per target.
    pub warmup: u32,
    /// Campaign worker threads.
    pub workers: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            seed: 0xC11,
            executions: 300,
            trials: 7,
            warmup: 2,
            workers: 1,
        }
    }
}

/// Measurement outcome for one target.
#[derive(Clone, Debug)]
pub struct TargetResult {
    /// Target name (the campaign registry key).
    pub name: String,
    /// Target group (table2 / section8.1 / table1).
    pub group: String,
    /// Executions/second of each timed trial, in run order.
    pub trial_rates: Vec<f64>,
    /// Median executions/second over the trials.
    pub median: f64,
    /// Interquartile range (q3 − q1) of the trial rates.
    pub iqr: f64,
    /// Whether every trial produced byte-identical canonical JSON
    /// (the determinism self-check; must always hold).
    pub deterministic: bool,
    /// Distinct behaviors (rf edges + mo adjacencies + race classes +
    /// interleaving signatures) one trial budget explores on this
    /// target, measured by an extra *untimed* campaign with the
    /// coverage gate armed. Diagnostic column — timed trials run with
    /// coverage off, so medians measure the product configuration.
    pub coverage_behaviors: u64,
    /// Baseline median executions/second, when a baseline file names
    /// this target.
    pub baseline_median: Option<f64>,
}

impl TargetResult {
    /// `median / baseline_median`, when a baseline is present.
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_median
            .filter(|&b| b > 0.0)
            .map(|b| self.median / b)
    }
}

/// Linear-interpolation quantile of an ascending-sorted slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median of an ascending-sorted slice.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5)
}

/// Interquartile range of an ascending-sorted slice.
pub fn iqr_sorted(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.75) - quantile(sorted, 0.25)
}

/// Benchmarks one target under `cfg` (warmups, timed trials,
/// determinism cross-check).
pub fn bench_target(
    target: &Target,
    cfg: &BenchConfig,
    baseline_median: Option<f64>,
) -> TargetResult {
    let campaign = || {
        let config = Config::new().with_seed(cfg.seed);
        Campaign::new(config).with_workers(cfg.workers.max(1))
    };
    let budget = CampaignBudget::executions(cfg.executions);
    let mut canonical: Option<String> = None;
    let mut deterministic = true;
    let mut rates = Vec::with_capacity(cfg.trials as usize);
    for trial in 0..(cfg.warmup + cfg.trials) {
        let t0 = Instant::now();
        let report = campaign().run(&budget, || target.run());
        let secs = t0.elapsed().as_secs_f64();
        let timed = trial >= cfg.warmup;
        if timed && secs > 0.0 {
            rates.push(report.aggregate.executions as f64 / secs);
        }
        // Determinism self-check over *all* trials, warmup included.
        let json = report.canonical_json();
        match &canonical {
            None => canonical = Some(json),
            Some(first) => {
                if *first != json {
                    deterministic = false;
                }
            }
        }
    }
    // Coverage column: one extra untimed campaign with the behavior-
    // coverage gate armed (the gate is a process global — restore it
    // so timed trials elsewhere stay coverage-free).
    let was_coverage = c11tester::coverage_enabled();
    c11tester::set_coverage(true);
    let coverage_behaviors = campaign()
        .run(&budget, || target.run())
        .aggregate
        .coverage
        .distinct_total();
    c11tester::set_coverage(was_coverage);
    let mut sorted = rates.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    TargetResult {
        name: target.name.to_string(),
        group: target.group.to_string(),
        median: median_sorted(&sorted),
        iqr: iqr_sorted(&sorted),
        trial_rates: rates,
        deterministic,
        coverage_behaviors,
        baseline_median,
    }
}

/// Parses a previous `c11bench/v1` JSON file into `name → median`
/// (used as the baseline for speedup columns).
pub fn parse_baseline_medians(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = JsonValue::parse(text)?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("baseline file has no `schema`")?;
    if schema != "c11bench/v1" {
        return Err(format!("unsupported baseline schema `{schema}`"));
    }
    let targets = doc
        .get("targets")
        .and_then(JsonValue::as_array)
        .ok_or("baseline file has no `targets` array")?;
    let mut out = BTreeMap::new();
    for t in targets {
        let name = t
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("baseline target without `name`")?;
        let median = t
            .get("median_execs_per_sec")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("baseline target `{name}` without `median_execs_per_sec`"))?;
        out.insert(name.to_string(), median);
    }
    Ok(out)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_opt_f64(v: Option<f64>) -> String {
    v.map(json_f64).unwrap_or_else(|| "null".to_string())
}

/// Serializes a bench run to the `c11bench/v1` schema (see
/// `docs/BENCH.md`). Deterministic field order; hand-rolled like every
/// other emitter in the workspace (the offline environment has no
/// serde).
pub fn render_json(cfg: &BenchConfig, results: &[TargetResult]) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\"schema\":\"c11bench/v1\"");
    out.push_str(&format!(
        ",\"config\":{{\"seed\":{},\"executions_per_trial\":{},\"trials\":{},\"warmup_trials\":{},\"workers\":{}}}",
        cfg.seed, cfg.executions, cfg.trials, cfg.warmup, cfg.workers,
    ));
    out.push_str(&format!(
        ",\"host\":{{\"available_parallelism\":{}}}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    out.push_str(",\"targets\":[");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"group\":\"{}\"",
            esc(&r.name),
            esc(&r.group)
        ));
        out.push_str(&format!(",\"median_execs_per_sec\":{}", json_f64(r.median)));
        out.push_str(&format!(",\"iqr_execs_per_sec\":{}", json_f64(r.iqr)));
        out.push_str(&format!(
            ",\"baseline_median_execs_per_sec\":{}",
            json_opt_f64(r.baseline_median)
        ));
        out.push_str(&format!(
            ",\"speedup_vs_baseline\":{}",
            json_opt_f64(r.speedup())
        ));
        out.push_str(&format!(",\"deterministic\":{}", r.deterministic));
        out.push_str(&format!(",\"coverage_behaviors\":{}", r.coverage_behaviors));
        out.push_str(",\"trial_execs_per_sec\":[");
        for (j, rate) in r.trial_rates.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&json_f64(*rate));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Schema/sanity validation used by `c11bench --smoke` (and tests):
/// every target measured, every median positive, every trial vector
/// fully populated, every determinism self-check green. Deliberately
/// free of absolute-time assertions so it cannot flake on slow or
/// single-core CI runners.
pub fn validate(results: &[TargetResult], cfg: &BenchConfig) -> Result<(), String> {
    if results.is_empty() {
        return Err("no targets were measured".into());
    }
    for r in results {
        if r.trial_rates.len() != cfg.trials as usize {
            return Err(format!(
                "target `{}`: {} trials recorded, expected {}",
                r.name,
                r.trial_rates.len(),
                cfg.trials
            ));
        }
        // NaN also fails: a non-finite median is as broken as zero.
        if r.median.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(format!("target `{}`: non-positive median", r.name));
        }
        if r.iqr < 0.0 {
            return Err(format!("target `{}`: negative IQR", r.name));
        }
        if !r.deterministic {
            return Err(format!(
                "target `{}`: canonical JSON differed across trials — the recycled \
                 hot path broke determinism",
                r.name
            ));
        }
        // Every execution contributes at least its interleaving
        // signature, so a zero here means the coverage pass never ran.
        if r.coverage_behaviors == 0 {
            return Err(format!(
                "target `{}`: coverage column is zero — the coverage campaign \
                 collected nothing",
                r.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_data() {
        let sorted = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((median_sorted(&sorted) - 3.0).abs() < 1e-12);
        assert!((iqr_sorted(&sorted) - 2.0).abs() < 1e-12);
        let two = [10.0, 20.0];
        assert!((median_sorted(&two) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn bench_smoke_roundtrip_and_validation() {
        let cfg = BenchConfig {
            executions: 10,
            trials: 2,
            warmup: 1,
            ..BenchConfig::default()
        };
        let target = c11tester_campaign::targets::find("rwlock-buggy").expect("target");
        let result = bench_target(&target, &cfg, Some(1.0));
        assert_eq!(result.trial_rates.len(), 2);
        assert!(result.deterministic, "canonical JSON must not vary");
        assert!(result.median > 0.0);
        assert!(result.speedup().is_some());
        assert!(
            result.coverage_behaviors > 0,
            "coverage pass collects behaviors"
        );
        assert!(
            !c11tester::coverage_enabled(),
            "bench restores the coverage gate"
        );
        let json = render_json(&cfg, std::slice::from_ref(&result));
        assert!(json.starts_with("{\"schema\":\"c11bench/v1\""));
        assert!(json.contains("\"coverage_behaviors\":"));
        validate(std::slice::from_ref(&result), &cfg).expect("valid");
        // The emitted file parses back as its own baseline.
        let medians = parse_baseline_medians(&json).expect("parse back");
        assert!((medians["rwlock-buggy"] - result.median).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_broken_results() {
        let cfg = BenchConfig {
            trials: 1,
            ..BenchConfig::default()
        };
        let good = TargetResult {
            name: "x".into(),
            group: "g".into(),
            trial_rates: vec![1.0],
            median: 1.0,
            iqr: 0.0,
            deterministic: true,
            coverage_behaviors: 3,
            baseline_median: None,
        };
        assert!(validate(std::slice::from_ref(&good), &cfg).is_ok());
        let mut no_cov = good.clone();
        no_cov.coverage_behaviors = 0;
        assert!(validate(&[no_cov], &cfg).is_err());
        let mut nondet = good.clone();
        nondet.deterministic = false;
        assert!(validate(&[nondet], &cfg).is_err());
        let mut zero = good.clone();
        zero.median = 0.0;
        assert!(validate(&[zero], &cfg).is_err());
        let mut short = good;
        short.trial_rates.clear();
        assert!(validate(&[short], &cfg).is_err());
        assert!(validate(&[], &cfg).is_err());
    }

    #[test]
    fn baseline_parser_rejects_foreign_schemas() {
        assert!(parse_baseline_medians("{\"schema\":\"c11campaign/v4\"}").is_err());
        assert!(parse_baseline_medians("{}").is_err());
        let ok = "{\"schema\":\"c11bench/v1\",\"targets\":[{\"name\":\"a\",\
                  \"median_execs_per_sec\":12.5}]}";
        let m = parse_baseline_medians(ok).expect("parses");
        assert_eq!(m.len(), 1);
        assert!((m["a"] - 12.5).abs() < 1e-12);
    }

    #[test]
    fn default_targets_all_resolve() {
        for name in DEFAULT_BENCH_TARGETS {
            assert!(
                c11tester_campaign::targets::find(name).is_some(),
                "unknown default bench target `{name}`"
            );
        }
    }
}
