//! Shared harness utilities for regenerating the paper's tables and
//! figures.
//!
//! Each table/figure has a binary (`cargo run --release -p
//! c11tester-bench --bin table1`, …) that prints the same rows/series
//! the paper reports. Absolute numbers differ from the paper's testbed
//! (our substrate is this workspace's model, not instrumented native
//! code); the *shape* — who wins, by roughly what factor — is the
//! reproduction target (see EXPERIMENTS.md).

use c11tester::{Config, Model, Policy};
use c11tester_campaign::{Campaign, CampaignBudget, CampaignReport};
use std::time::{Duration, Instant};

pub mod statbench;

/// Measurement of repeated model executions.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Mean wall-clock time per execution.
    pub mean: Duration,
    /// Relative standard deviation (σ/mean).
    pub rsd: f64,
    /// Executions measured.
    pub runs: u32,
}

impl Timing {
    /// Mean time in milliseconds.
    pub fn mean_ms(&self) -> f64 {
        self.mean.as_secs_f64() * 1e3
    }
}

/// Times `runs` executions of `body` under the paper-faithful
/// configuration for `policy`.
pub fn time_policy_runs<F>(policy: Policy, seed: u64, runs: u32, body: F) -> Timing
where
    F: Fn() + Send + Sync,
{
    let mut model = Model::new(Config::for_policy(policy).with_seed(seed));
    let mut samples = Vec::with_capacity(runs as usize);
    for _ in 0..runs {
        let t0 = Instant::now();
        let _ = model.run(&body);
        samples.push(t0.elapsed());
    }
    summarize(&samples)
}

/// Runs a fixed-budget campaign of `executions` executions of `body`
/// under the paper-faithful configuration for `policy`, using all
/// cores (or `workers`, when given). Detection rates and dedup
/// histories in the returned report are identical to the serial
/// [`Model::run_many`] aggregate over the same seed — campaigns only
/// change wall-clock time.
pub fn campaign_policy_runs<F>(
    policy: Policy,
    seed: u64,
    executions: u64,
    workers: Option<usize>,
    body: F,
) -> CampaignReport
where
    F: Fn() + Send + Sync,
{
    let mut campaign = Campaign::new(Config::for_policy(policy).with_seed(seed));
    if let Some(w) = workers {
        campaign = campaign.with_workers(w);
    }
    campaign.run(&CampaignBudget::executions(executions), body)
}

/// Runs a fixed-budget **strategy-mixed** campaign: execution `i` is
/// deterministically assigned a strategy from `(seed, i)` by `mix`
/// (see [`c11tester::StrategyMix`]), and the report carries
/// per-strategy detection columns alongside the aggregate. The same
/// determinism contract as [`campaign_policy_runs`] applies: the
/// aggregate is identical to the serial [`Model::run_many`] over the
/// same mixed config, for any worker count.
pub fn campaign_mixed_runs<F>(
    policy: Policy,
    seed: u64,
    executions: u64,
    workers: Option<usize>,
    mix: &c11tester::StrategyMix,
    body: F,
) -> CampaignReport
where
    F: Fn() + Send + Sync,
{
    let config = Config::for_policy(policy)
        .with_seed(seed)
        .with_mix(mix.clone());
    let mut campaign = Campaign::new(config);
    if let Some(w) = workers {
        campaign = campaign.with_workers(w);
    }
    campaign.run(&CampaignBudget::executions(executions), body)
}

/// Runs a fixed-budget **adaptive** campaign: the budget is split into
/// `epoch_len`-execution epochs, each epoch runs sharded under the
/// current mix, and `policy` (`fixed`, `ucb1[@c]`, `exp3[@eta]`)
/// reweights the mix between epochs from the per-strategy detection
/// columns. Deterministic and worker-count independent like every
/// fixed-budget campaign (see `c11tester-adaptive`).
#[allow(clippy::too_many_arguments)]
pub fn campaign_adaptive_runs<F>(
    policy: Policy,
    seed: u64,
    executions: u64,
    epoch_len: u64,
    workers: Option<usize>,
    mix: &c11tester::StrategyMix,
    reweighter: &str,
    body: F,
) -> c11tester_adaptive::AdaptiveReport
where
    F: Fn() + Send + Sync,
{
    let config = Config::for_policy(policy)
        .with_seed(seed)
        .with_mix(mix.clone());
    let mut campaign = c11tester_adaptive::AdaptiveCampaign::new(config)
        .with_epoch_len(epoch_len)
        .with_policy(reweighter)
        .expect("valid reweighting policy");
    if let Some(w) = workers {
        campaign = campaign.with_workers(w);
    }
    campaign.run(&CampaignBudget::executions(executions), body)
}

/// Mean wall time per execution of a campaign, as a [`Timing`] (the
/// campaign amortizes over all cores; `rsd` is not observable per
/// execution and reported as 0).
pub fn campaign_timing(report: &CampaignReport) -> Timing {
    let execs = report.aggregate.executions.max(1);
    Timing {
        mean: report.wall_time.div_f64(execs as f64),
        rsd: 0.0,
        runs: u32::try_from(execs).unwrap_or(u32::MAX),
    }
}

/// Summarizes a set of duration samples.
pub fn summarize(samples: &[Duration]) -> Timing {
    let n = samples.len().max(1) as f64;
    let mean = samples.iter().map(Duration::as_secs_f64).sum::<f64>() / n;
    let var = samples
        .iter()
        .map(|d| {
            let x = d.as_secs_f64() - mean;
            x * x
        })
        .sum::<f64>()
        / n;
    let rsd = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    Timing {
        mean: Duration::from_secs_f64(mean),
        rsd,
        runs: samples.len() as u32,
    }
}

/// Geometric mean of a slice of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (s / values.len() as f64).exp()
}

/// CPU-affinity syscall bindings, declared directly against the libc
/// the binary links anyway (the `libc` crate is unavailable in the
/// offline build environment).
#[cfg(target_os = "linux")]
mod affinity {
    /// Matches glibc's `cpu_set_t`: a 1024-bit mask.
    #[repr(C)]
    pub struct CpuSet {
        pub bits: [u64; 16],
    }

    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        fn sysconf(name: i32) -> std::ffi::c_long;
    }

    /// `_SC_NPROCESSORS_ONLN` on Linux. `available_parallelism` is no
    /// substitute here: it respects the current affinity mask, which is
    /// exactly what `unpin_all_cores` is trying to widen.
    const SC_NPROCESSORS_ONLN: i32 = 84;

    pub fn online_cpus() -> usize {
        let n = unsafe { sysconf(SC_NPROCESSORS_ONLN) };
        if n < 1 {
            1
        } else {
            n as usize
        }
    }

    pub fn set_mask(cpus: impl Iterator<Item = usize>) -> bool {
        let mut set = CpuSet { bits: [0; 16] };
        for cpu in cpus {
            if cpu < 1024 {
                set.bits[cpu / 64] |= 1u64 << (cpu % 64);
            }
        }
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}

/// Pins the calling thread (and, by inheritance, the model threads it
/// spawns) to CPU 0, emulating the paper's `taskset` single-core
/// configuration. Returns `false` if unsupported on this platform.
pub fn pin_to_single_core() -> bool {
    #[cfg(target_os = "linux")]
    {
        affinity::set_mask(std::iter::once(0))
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Restores the calling thread's affinity to all online CPUs.
pub fn unpin_all_cores() -> bool {
    #[cfg(target_os = "linux")]
    {
        affinity::set_mask(0..affinity::online_cpus())
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Number of benchmark repetitions, overridable with `C11_BENCH_RUNS`.
pub fn runs_from_env(default: u32) -> u32 {
    std::env::var("C11_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Builds the paper-faithful model for a policy with a given seed.
pub fn paper_model(policy: Policy, seed: u64) -> Model {
    Model::new(Config::for_policy(policy).with_seed(seed))
}

/// Prints a horizontal rule sized for our tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn summarize_computes_mean_and_rsd() {
        let t = summarize(&[Duration::from_millis(10), Duration::from_millis(20)]);
        assert!((t.mean_ms() - 15.0).abs() < 1e-6);
        assert!(t.rsd > 0.3 && t.rsd < 0.4);
        assert_eq!(t.runs, 2);
    }

    #[test]
    fn pinning_roundtrip_does_not_fail() {
        // On Linux this pins and unpins; elsewhere both return false.
        let pinned = pin_to_single_core();
        let unpinned = unpin_all_cores();
        assert_eq!(pinned, unpinned);
    }
}
