//! The seven named workloads: which product target each drives, how many
//! executions one trial runs, and why it was chosen. Trials are **fixed
//! execution counts** so the canonical report — and every count derived
//! from it — is a pure function of `(workload, seed)` on both sides of an
//! A/B.

use c11tester::Config;
use c11tester_campaign::targets::{self, Target};
use c11tester_genprog::{Program, SplitMix64};

/// Number of generated programs the `gen` workload runs. Thirty-two
/// rather than a handful: the programs change with `--seed`, and only
/// the sum over many of them keeps the workload's cost steady from seed
/// to seed (four programs move execs/s by 6-8 % between seeds, which
/// would drown the regression bound).
pub const GEN_PROGRAMS: usize = 32;

/// Executions per fork-server child on `isolate` (the product default).
pub const ISOLATE_BATCH: u64 = c11tester_isolation::DEFAULT_BATCH_SIZE;

/// Where a workload's target names come from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// One built-in campaign target.
    Named(&'static str),
    /// `GEN_PROGRAMS` generated programs whose pseeds derive from `--seed`.
    Generated,
}

/// The known answer a workload's canonical report must give — part of
/// the workload definition, not derived from the tool's output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// At least one execution exhibits a bug (injected-bug targets).
    Bugs,
    /// At least one execution reports a data race.
    Races,
    /// No execution reports a data race.
    RaceFree,
    /// No fixed answer; `gen` is checked by the independent trace oracle.
    Oracle,
    /// No fixed answer is part of the definition.
    Unspecified,
}

/// Static definition of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name used on the command line, in `BENCHMARK.json` and in reports.
    pub name: &'static str,
    /// Target source.
    pub source: Source,
    /// Executions per target per trial.
    pub executions: u64,
    /// Run under `Config::with_memory_limit()`.
    pub memory_limit: bool,
    /// Run through the fork server instead of in-process.
    pub isolate: bool,
    /// Known-answer verdict of the canonical report.
    pub expect: Verdict,
    /// One line on why the workload exists (the layer it stresses).
    pub why: &'static str,
}

/// The workloads, in reporting (and running) order. Sized at ≈2 s per
/// trial on the 2-core host the benchmark was defined on. `isolate` goes
/// last: its process storm leaves a virtualized host in a slower state
/// for the better part of a minute, which should not fall on a
/// neighbouring workload's trials.
pub const WORKLOADS: [Workload; 7] = [
    Workload {
        name: "bughunt",
        source: Source::Named("seqlock-buggy"),
        executions: 120_000,
        memory_limit: false,
        isolate: false,
        expect: Verdict::Bugs,
        why: "seqlock-buggy (paper 8.1): ~25 atomic ops per execution, so per-execution fixed cost (runtime, c11tester setup, campaign absorb) dominates and core does little",
    },
    Workload {
        name: "queue",
        source: Source::Named("mpmc-queue"),
        executions: 40_000,
        memory_limit: false,
        isolate: false,
        expect: Verdict::Races,
        why: "mpmc-queue (Table 2): read-from selection and Theorem-1 clock-vector tests dominate, with zero mo-graph reorders",
    },
    Workload {
        name: "app",
        source: Source::Named("silo-large"),
        executions: 700,
        memory_limit: false,
        isolate: false,
        expect: Verdict::RaceFree,
        why: "silo-large (Table 1, -t 5 scale): ms-long executions, the only workload with mo-graph order violations at volume; fixed cost is negligible",
    },
    Workload {
        name: "races",
        source: Source::Named("gdax"),
        executions: 10_000,
        memory_limit: false,
        isolate: false,
        expect: Verdict::Races,
        why: "gdax (Table 1): ~1300 non-atomic accesses per execution and a race in every execution, the race detector's largest share",
    },
    Workload {
        name: "memlimit",
        source: Source::Named("mpmc-queue-10x"),
        executions: 2_500,
        memory_limit: true,
        isolate: false,
        expect: Verdict::Unspecified,
        why: "mpmc-queue-10x under --memory-limit: windowed pruning and mo-graph compaction run beside inserts and queries; a memory regression shows here",
    },
    Workload {
        name: "gen",
        source: Source::Generated,
        executions: 2_000,
        memory_limit: false,
        isolate: false,
        expect: Verdict::Oracle,
        why: "32 generated programs whose pseeds derive from --seed: genprog and the full atomic-op grammar, on programs not seen while a change was written",
    },
    Workload {
        name: "isolate",
        source: Source::Named("mpmc-queue"),
        executions: 40_000,
        memory_limit: false,
        isolate: true,
        expect: Verdict::Races,
        why: "the queue workload's executions through the fork server (batch 64): the difference to queue is child spawn, wire frames and campaign merge",
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The size class `gen` draws its programs from: the grammar's median
/// shape (4 of 2-6 threads, 16-18 of 2-48 atomic ops). Per-execution
/// cost spans 5x over the whole grammar, so an unrestricted draw would
/// make the workload a different one for every seed; inside the class
/// every op kind, ordering and mutex region still occurs.
pub fn in_gen_class(p: &Program) -> bool {
    p.threads.len() == 4 && (16..=18).contains(&p.total_ops())
}

/// The `gen` workload's program seeds: the SplitMix64 stream of the
/// benchmark seed (the generator the program grammar itself uses),
/// keeping the first `GEN_PROGRAMS` draws whose program is in the class.
pub fn gen_pseeds(seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    std::iter::repeat_with(|| rng.next_u64())
        .filter(|&p| in_gen_class(&Program::generate(p)))
        .take(GEN_PROGRAMS)
        .collect()
}

/// Campaign workers a workload runs with: one everywhere except
/// `isolate`, which uses `min(2, nproc)` child processes.
pub fn workers(w: &Workload) -> usize {
    if w.isolate {
        nproc().min(2)
    } else {
        1
    }
}

/// CPUs available to this process — as it was started: the first call
/// fixes the answer, so pinning a pass to one CPU later (see
/// `affinity`) does not make the host look single-core in its records.
/// `Plan::new` makes that first call.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A workload bound to a seed: resolved targets plus the model
/// configuration. Everything the product receives is in here — target
/// names, the base seed and (per trial) an index range.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The static definition.
    pub workload: &'static Workload,
    /// The benchmark seed (= campaign base seed).
    pub seed: u64,
    /// Resolved targets (one, or `GEN_PROGRAMS` for `gen`).
    pub targets: Vec<Target>,
    /// Derived program seeds (empty unless `gen`).
    pub pseeds: Vec<u64>,
    /// Executions per target per trial (scaled down by `--quick`).
    pub executions: u64,
    /// Model configuration of every campaign and model in the workload.
    pub config: Config,
    /// Campaign workers of the product entry point.
    pub workers: usize,
}

impl Plan {
    /// Binds `workload` to `seed`. `quick` shrinks the trial to a smoke
    /// budget (schema and check validation only).
    pub fn new(workload: &'static Workload, seed: u64, quick: bool) -> Result<Plan, String> {
        let (names, pseeds): (Vec<String>, Vec<u64>) = match workload.source {
            Source::Named(name) => (vec![name.to_string()], Vec::new()),
            Source::Generated => {
                let pseeds = gen_pseeds(seed);
                let names = pseeds.iter().map(|p| format!("gen:{p}")).collect();
                (names, pseeds)
            }
        };
        let targets = names
            .iter()
            .map(|n| targets::find(n).ok_or(format!("unknown product target `{n}`")))
            .collect::<Result<Vec<_>, _>>()?;
        nproc();
        let mut config = Config::new().with_seed(seed);
        if workload.memory_limit {
            config = config.with_memory_limit();
        }
        let executions = if quick {
            (workload.executions / 200).max(20)
        } else {
            workload.executions
        };
        Ok(Plan {
            workload,
            seed,
            targets,
            pseeds,
            executions,
            config,
            workers: workers(workload),
        })
    }

    /// Executions one trial attempts across all targets.
    pub fn trial_executions(&self) -> u64 {
        self.executions * self.targets.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pseeds_are_the_in_class_draws_of_the_seeds_splitmix64_stream() {
        // The stream itself: splitmix64 seeded with 0 starts with its
        // published test vector.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        // The derivation: in stream order, in-class draws only, nothing
        // in class skipped.
        let pseeds = gen_pseeds(0xC11);
        assert_eq!(pseeds.len(), GEN_PROGRAMS);
        let mut rng = SplitMix64::new(0xC11);
        let mut expected = Vec::new();
        while expected.len() < GEN_PROGRAMS {
            let p = rng.next_u64();
            let prog = Program::generate(p);
            if prog.threads.len() == 4 && (16..=18).contains(&prog.total_ops()) {
                expected.push(p);
            }
        }
        assert_eq!(pseeds, expected);
        assert_eq!(gen_pseeds(0xC11), pseeds, "same seed, same programs");
        assert_ne!(gen_pseeds(1), gen_pseeds(2));
    }

    #[test]
    fn every_workload_resolves_and_names_are_unique() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        for w in &WORKLOADS {
            let plan = Plan::new(w, 7, true).expect("targets resolve");
            assert_eq!(
                plan.pseeds.len(),
                plan.targets.len() * usize::from(w.name == "gen")
            );
            assert!(plan.executions >= 20);
            assert_eq!(plan.config.prune.limits_memory(), w.memory_limit);
            assert!(
                w.why.len() <= 200,
                "why of {} exceeds the BENCHMARK.json limit",
                w.name
            );
        }
        assert_eq!(find("gen").unwrap().expect, Verdict::Oracle);
        assert!(find("nope").is_none());
    }
}
