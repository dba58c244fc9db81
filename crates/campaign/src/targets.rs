//! Named campaign targets: the built-in workloads of
//! `c11tester-workloads`, addressable by CLI-friendly names.
//!
//! Covers the Table-2 data-structure suite, the §8.1 injected-bug
//! benchmarks (buggy *and* fixed variants), the Table-1 application
//! simulations, the crash-prone isolation targets (group `crash`
//! — run those under `--isolate` only; see `c11tester-isolation`),
//! and the **generated programs** of `c11tester-genprog` (group
//! `gen`): any `gen:<pseed>` name resolves to the seeded program that
//! pseed generates, so the whole campaign stack — sharding,
//! `--isolate`, coverage maps, adaptive policies — runs over fuzzed
//! programs unchanged.
//!
//! Named targets are also the unit of **process isolation**: a fork
//! server child cannot be handed a closure, so `c11campaign --worker`
//! re-resolves the target by name in the child via [`find`].

use c11tester_genprog::Program;
use c11tester_workloads::{ds, AppBench, DsBench};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// How a target's body is invoked.
#[derive(Copy, Clone, Debug)]
enum Body {
    Ds(DsBench),
    App(AppBench),
    Free(fn()),
    /// A generated program, interned per pseed.
    Gen(&'static GenProgram),
}

/// A `gen:<pseed>` target's interned state, leaked once per distinct
/// pseed: its canonical name, and its program, generated the first time
/// the target runs and shared by every later execution. A fork-server
/// child re-resolves the target by name and generates its own copy, so
/// the body captures nothing a child could not rebuild.
#[derive(Debug)]
struct GenProgram {
    name: &'static str,
    pseed: u64,
    program: OnceLock<Program>,
}

impl GenProgram {
    fn program(&self) -> &Program {
        self.program.get_or_init(|| Program::generate(self.pseed))
    }
}

/// A named workload a campaign can run.
#[derive(Copy, Clone, Debug)]
pub struct Target {
    /// CLI name (`c11campaign --target <name>`).
    pub name: &'static str,
    /// Table/section of the paper the workload comes from.
    pub group: &'static str,
    /// One-line description.
    pub description: &'static str,
    body: Body,
}

impl Target {
    /// Runs one execution of the workload body (call inside a model
    /// execution — a `Model` or `Campaign` closure).
    pub fn run(&self) {
        match self.body {
            Body::Ds(b) => b.run(),
            Body::App(a) => a.run_default(),
            Body::Free(f) => f(),
            Body::Gen(g) => c11tester_genprog::run_shared(g.program()),
        }
    }
}

/// Shared description of every `gen:<pseed>` target.
const GEN_DESCRIPTION: &str =
    "seeded generated program over the atomic-op grammar (pure function of the pseed)";

/// Showcase pseeds listed by `--list-targets` / `all()`; any other
/// `gen:<pseed>` still resolves via [`resolve`].
const GEN_SHOWCASE: &[(&str, u64)] = &[
    ("gen:1", 1),
    ("gen:2", 2),
    ("gen:3", 3),
    ("gen:4", 4),
    ("gen:5", 5),
    ("gen:6", 6),
    ("gen:7", 7),
    ("gen:8", 8),
];

/// Interns the state of a `gen` target. `Target` stays `Copy` with a
/// `&'static str` name (every existing use site — fork-server children,
/// move closures, bench tables — depends on that), so each distinct
/// pseed's name and program are leaked once and cached.
fn gen_program(pseed: u64) -> &'static GenProgram {
    static CACHE: OnceLock<Mutex<BTreeMap<u64, &'static GenProgram>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = cache.lock().expect("gen-target cache poisoned");
    map.entry(pseed).or_insert_with(|| {
        let name = match GEN_SHOWCASE.iter().find(|(_, p)| *p == pseed) {
            Some(&(name, _)) => name,
            None => Box::leak(format!("gen:{pseed}").into_boxed_str()),
        };
        Box::leak(Box::new(GenProgram {
            name,
            pseed,
            program: OnceLock::new(),
        }))
    })
}

/// Builds the target for a program seed.
fn gen_target(pseed: u64) -> Target {
    let g = gen_program(pseed);
    Target {
        name: g.name,
        group: "gen",
        description: GEN_DESCRIPTION,
        body: Body::Gen(g),
    }
}

/// All built-in targets, in presentation order.
pub fn all() -> Vec<Target> {
    let mut targets = Vec::new();
    for b in DsBench::all() {
        targets.push(Target {
            name: b.name(),
            group: "table2",
            description: "CDSChecker data-structure benchmark (paper Table 2)",
            body: Body::Ds(b),
        });
    }
    targets.push(Target {
        name: "seqlock-buggy",
        group: "section8.1",
        description: "seqlock with the injected relaxed-ordering bug (paper §8.1)",
        body: Body::Free(ds::seqlock::run_buggy),
    });
    targets.push(Target {
        name: "seqlock-fixed",
        group: "section8.1",
        description: "seqlock with correct orderings (control for §8.1)",
        body: Body::Free(ds::seqlock::run_fixed),
    });
    targets.push(Target {
        name: "rwlock-buggy",
        group: "section8.1",
        description: "reader-writer lock with the injected bug (paper §8.1)",
        body: Body::Free(ds::rwlock_buggy::run_buggy),
    });
    targets.push(Target {
        name: "rwlock-fixed",
        group: "section8.1",
        description: "reader-writer lock with correct orderings (control for §8.1)",
        body: Body::Free(ds::rwlock_buggy::run_fixed),
    });
    targets.push(Target {
        name: "null-deref-buggy",
        group: "crash",
        description: "relaxed message passing that segfaults when the race manifests \
                      (run under --isolate)",
        body: Body::Free(ds::crashy::run_null_deref),
    });
    targets.push(Target {
        name: "stack-overflow",
        group: "crash",
        description: "unbounded recursion in a model thread: SIGSEGV on the fiber stack's \
                      guard page in every execution (run under --isolate)",
        body: Body::Free(ds::crashy::run_stack_overflow),
    });
    targets.push(Target {
        name: "spin-forever",
        group: "crash",
        description: "execution that wedges forever without model ops \
                      (run under --isolate --exec-timeout)",
        body: Body::Free(ds::crashy::run_spin_forever),
    });
    // Scaled-up variants whose per-location histories (and mo-graph)
    // grow well past the litmus scale: the coherence-graph group
    // (`group:graph`; the determinism fixtures and c11perf's `app`
    // workload run on it).
    targets.push(Target {
        name: "mpmc-queue-large",
        group: "graph",
        description: "mpmc-queue with 4x the items per thread (coherence-graph scaling)",
        body: Body::Free(ds::mpmc_queue::run_large),
    });
    targets.push(Target {
        name: "ms-queue-large",
        group: "graph",
        description: "ms-queue with 6x the items over a larger node pool (coherence-graph scaling)",
        body: Body::Free(ds::ms_queue::run_large),
    });
    targets.push(Target {
        name: "silo-large",
        group: "graph",
        description: "silo at the paper's -t 5 scale: 5 workers, 50 txns each, 8 records",
        body: Body::Free(c11tester_workloads::apps::silo::run_large),
    });
    // Long-execution target for the §7.1 `--memory-limit` smoke: 10×
    // the default mpmc-queue length, long enough that the unlimited
    // mo-graph arena visibly outgrows the windowed-pruning plateau.
    // Its own group keeps the `graph` bench gate's target set stable.
    targets.push(Target {
        name: "mpmc-queue-10x",
        group: "longrun",
        description: "mpmc-queue at 10x the default items per thread (§7.1 memory limiting)",
        body: Body::Free(|| ds::mpmc_queue::run_n(20)),
    });
    for (a, name) in [
        (AppBench::Silo, "silo"),
        (AppBench::Gdax, "gdax"),
        (AppBench::Mabain, "mabain"),
        (AppBench::Iris, "iris"),
        (AppBench::JsBench, "jsbench"),
    ] {
        targets.push(Target {
            name,
            group: "table1",
            description: "application simulation (paper Table 1)",
            body: Body::App(a),
        });
    }
    for &(_, pseed) in GEN_SHOWCASE {
        targets.push(gen_target(pseed));
    }
    targets
}

/// The result of resolving a target name.
#[derive(Clone, Debug)]
pub enum Lookup {
    /// The name resolved to a runnable target.
    Found(Target),
    /// The name used the `gen:<pseed>` form but the pseed did not
    /// parse; the payload is the error to report (a usage error —
    /// exit 2 — not an unknown-target error).
    MalformedGen(String),
    /// No such target.
    Unknown,
}

/// Resolves a target name (case-insensitive): first the built-in
/// table, then the open-ended `gen:<pseed>` namespace (pseed decimal
/// or `0x` hex, canonicalized to `gen:<decimal>`).
pub fn resolve(name: &str) -> Lookup {
    if let Some(t) = all()
        .into_iter()
        .find(|t| t.name.eq_ignore_ascii_case(name))
    {
        return Lookup::Found(t);
    }
    let lower = name.to_ascii_lowercase();
    if let Some(spec) = lower.strip_prefix("gen:") {
        return match crate::cli::parse_u64(spec) {
            Ok(pseed) => Lookup::Found(gen_target(pseed)),
            Err(e) => Lookup::MalformedGen(format!("malformed gen target `{name}`: {e}")),
        };
    }
    Lookup::Unknown
}

/// Looks a target up by its CLI name (case-insensitive); malformed
/// `gen:` specs resolve to `None` here — CLI front ends should prefer
/// [`resolve`] to report them as usage errors instead.
pub fn find(name: &str) -> Option<Target> {
    match resolve(name) {
        Lookup::Found(t) => Some(t),
        Lookup::MalformedGen(_) | Lookup::Unknown => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        let targets = all();
        let mut names: Vec<&str> = targets.iter().map(|t| t.name).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate target names");
        for n in names {
            assert!(find(n).is_some());
            assert!(find(&n.to_uppercase()).is_some(), "lookup case-insensitive");
        }
    }

    #[test]
    fn covers_tables_and_injected_bugs() {
        let targets = all();
        let group_count = |g: &str| targets.iter().filter(|t| t.group == g).count();
        assert_eq!(group_count("table2"), 7);
        assert_eq!(group_count("section8.1"), 4);
        assert_eq!(group_count("crash"), 3);
        assert_eq!(group_count("table1"), 5);
        assert_eq!(group_count("graph"), 3);
        assert_eq!(group_count("gen"), 8);
    }

    #[test]
    fn gen_names_resolve_beyond_the_showcase_table() {
        // Round-trips: hex and decimal specs canonicalize to the same
        // decimal name, pointing at the same generated program.
        let t = find("gen:0x8").expect("hex spec resolves");
        assert_eq!(t.name, "gen:8");
        assert_eq!(t.group, "gen");
        assert_eq!(find("gen:8").unwrap().name, "gen:8");
        assert_eq!(find("GEN:8").unwrap().name, "gen:8", "case-insensitive");
        // A pseed outside the showcase interns a canonical name; the
        // same pseed yields the same &'static str.
        let a = find("gen:123456").unwrap();
        let b = find("gen:0x1E240").unwrap();
        assert_eq!(a.name, "gen:123456");
        assert!(std::ptr::eq(a.name, b.name), "names are interned once");
    }

    #[test]
    fn malformed_gen_specs_are_usage_errors_not_unknown() {
        for bad in ["gen:", "gen:x", "gen:12z", "gen:0x"] {
            match resolve(bad) {
                Lookup::MalformedGen(msg) => {
                    assert!(msg.contains("malformed gen target"), "{msg}");
                    assert!(msg.contains(bad), "{msg}");
                }
                other => panic!("expected MalformedGen for {bad:?}, got {other:?}"),
            }
            assert!(find(bad).is_none());
        }
        assert!(matches!(resolve("no-such-target"), Lookup::Unknown));
        assert!(matches!(resolve("silo"), Lookup::Found(_)));
    }

    #[test]
    fn gen_targets_run_deterministically_inside_a_campaign() {
        use crate::{Campaign, CampaignBudget};
        let target = find("gen:3").expect("target exists");
        let run = |workers| {
            Campaign::new(c11tester::Config::new().with_seed(5))
                .with_workers(workers)
                .run(&CampaignBudget::executions(8), move || target.run())
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.aggregate.executions, 8);
        assert_eq!(
            one.canonical_json(),
            four.canonical_json(),
            "gen campaigns are worker-count invariant"
        );
    }

    #[test]
    fn targets_run_inside_a_campaign() {
        use crate::{Campaign, CampaignBudget};
        let target = find("seqlock-buggy").expect("target exists");
        let report = Campaign::new(c11tester::Config::new().with_seed(1))
            .with_workers(2)
            .run(&CampaignBudget::executions(8), move || target.run());
        assert_eq!(report.aggregate.executions, 8);
    }
}
