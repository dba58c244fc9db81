//! The one harness under `paper-tables`, the binary that regenerates
//! the paper's tables and figures (`cargo run --release -p
//! c11tester-bench --bin paper-tables -- table1`, …; one module per
//! table beside the binary's `main.rs`).
//!
//! Absolute numbers differ from the paper's testbed (our substrate is
//! this workspace's model, not instrumented native code); the *shape* —
//! who wins, by roughly what factor — is the reproduction target (see
//! docs/BENCH.md). Performance of the tool itself is measured by
//! `c11perf` (`benchmark/`), not here.

use c11tester::{Config, Model, Policy};
use c11tester_campaign::{Campaign, CampaignBudget, CampaignReport};
use std::time::{Duration, Instant};

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

/// The paper-faithful configuration for `policy` at `seed`.
pub fn paper_config(policy: Policy, seed: u64) -> Config {
    Config::for_policy(policy).with_seed(seed)
}

/// The paper-faithful model for `policy` at `seed`.
pub fn paper_model(policy: Policy, seed: u64) -> Model {
    Model::new(paper_config(policy, seed))
}

/// Times `runs` serial executions of `body` on the paper-faithful model
/// for `policy`.
pub fn time_policy_runs<F>(policy: Policy, seed: u64, runs: u32, body: F) -> Timing
where
    F: Fn() + Send + Sync,
{
    let mut model = paper_model(policy, seed);
    let mut samples = Vec::with_capacity(runs as usize);
    for _ in 0..runs {
        let t0 = Instant::now();
        let _ = model.run(&body);
        samples.push(t0.elapsed());
    }
    summarize(&samples)
}

/// Runs a fixed-budget campaign of `executions` executions of `body`
/// under `config` on all cores. Detection rates and dedup histories in
/// the returned report are identical to the serial [`Model::run_many`]
/// aggregate over the same config — campaigns only change wall-clock
/// time. A config carrying a [`c11tester::StrategyMix`] yields
/// per-strategy detection columns alongside the aggregate.
pub fn campaign_runs<F>(config: Config, executions: u64, body: F) -> CampaignReport
where
    F: Fn() + Send + Sync,
{
    Campaign::new(config).run(&CampaignBudget::executions(executions), body)
}

/// Mean wall time per execution of a campaign, in milliseconds (the
/// campaign amortizes over all cores).
pub fn campaign_mean_ms(report: &CampaignReport) -> f64 {
    let execs = report.aggregate.executions.max(1);
    report.wall_time.as_secs_f64() * 1e3 / execs as f64
}

/// One table row's tool columns: `cell` rendered for each value and
/// joined by a space. Every table passes [`Policy::all`] (header) or
/// `Policy::all().map(measure)` (rows), so the tools always appear in
/// the paper's column order.
pub fn columns<T>(values: &[T], cell: impl Fn(&T) -> String) -> String {
    values.iter().map(cell).collect::<Vec<_>>().join(" ")
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
