//! What one pass over one workload produces, and how it is written down:
//! the human-readable metric lines, the JSON record embedded in
//! `c11perf run` output files, and the single result line the benchmark
//! driver reads. Every file carries what is needed to re-run it.

use crate::json::{array, num, string, Obj};
use crate::metrics::{end_to_end, PER_LAYER};
use crate::workloads::{nproc, Plan, ISOLATE_BATCH};
use c11tester_runtime::Runtime;

/// Schema tag of `c11perf run` output files.
pub const SCHEMA: &str = "c11perf/v1";

/// One reported metric: the headline value (a median unless the metric
/// is a single reading) plus the raw values it was taken over.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name from the tables in [`crate::metrics`].
    pub name: &'static str,
    /// Headline value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Raw per-trial (or per-segment, per-cold-start, per-batch) values.
    pub samples: Vec<f64>,
    /// Free-form note printed beside the value (sample counts etc.).
    pub note: String,
}

impl Metric {
    /// A metric whose headline is the median of `samples`.
    pub fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name,
            value: crate::stats::median(&samples),
            unit,
            samples,
            note: String::new(),
        }
    }

    /// A single reading.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: vec![value],
            note: String::new(),
        }
    }

    /// Attaches a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }

    fn json(&self) -> String {
        let mut o = Obj::new().num("value", self.value).str("unit", self.unit);
        if let Some(m) = end_to_end(self.name) {
            o = o.num("bound", m.bound).str("better", m.better.name());
        }
        o = o.raw("samples", array(self.samples.iter().map(|&s| num(s))));
        if !self.note.is_empty() {
            o = o.str("note", &self.note);
        }
        o.finish()
    }
}

/// One correctness check and its outcome.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// The observed values, for the report.
    pub detail: String,
}

impl Check {
    /// Builds a check result.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }

    /// JSON form.
    pub fn json(&self) -> String {
        Obj::new()
            .str("name", &self.name)
            .bool("ok", self.ok)
            .str("detail", &self.detail)
            .finish()
    }
}

/// The re-run recipe shared by every output file: commit, seed, derived
/// pseeds, trial size, workers, effective handover kind, memory-limit
/// mode, host parallelism and the CPU single-worker trials are pinned to.
pub fn meta_json(plan: &Plan, seconds: u64, quick: bool) -> String {
    Obj::new()
        .str("workload", plan.workload.name)
        .str("why", plan.workload.why)
        .str("commit", &commit())
        .uint("seed", plan.seed)
        .raw(
            "targets",
            array(plan.targets.iter().map(|t| string(t.name))),
        )
        .raw(
            "gen_pseeds",
            array(plan.pseeds.iter().map(|p| p.to_string())),
        )
        .uint("executions_per_trial", plan.trial_executions())
        .uint("workers", plan.workers as u64)
        .bool("isolate", plan.workload.isolate)
        .uint(
            "isolate_batch",
            if plan.workload.isolate {
                ISOLATE_BATCH
            } else {
                0
            },
        )
        .bool("memory_limit", plan.workload.memory_limit)
        .str("handover_kind", handover_kind(plan))
        .uint("nproc", nproc() as u64)
        .raw(
            "pinned_cpu",
            crate::affinity::pinned().map_or("null".to_string(), |c| c.to_string()),
        )
        .uint("seconds", seconds)
        .bool("quick", quick)
        .finish()
}

/// The handover kind the product actually runs with under `plan`'s
/// configuration (fibers silently degrade to futex park off x86_64).
pub fn handover_kind(plan: &Plan) -> &'static str {
    Runtime::new(plan.config.handover).handover_kind().name()
}

/// The commit of the checkout the benchmark runs in: `C11PERF_COMMIT` if
/// set, else `.git/HEAD` of the working directory read directly (no
/// `git` process, no walking up — the driver's checkout is not a
/// repository), else `unknown`.
pub fn commit() -> String {
    if let Ok(c) = std::env::var("C11PERF_COMMIT") {
        return c;
    }
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved:{r}")),
    }
}

/// Everything one pass (`--trace 0` or `--trace 1`) over one workload
/// produced.
#[derive(Clone, Debug)]
pub struct PassRecord {
    /// `meta_json` of the pass.
    pub meta: String,
    /// Workload name.
    pub workload: &'static str,
    /// 0 = end-to-end pass (tracing off), 1 = per-layer pass.
    pub trace: u8,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Correctness checks run by the pass.
    pub checks: Vec<Check>,
    /// Executions attempted through the product.
    pub attempted: u64,
    /// Executions that ended in an infrastructure failure or a crash, or
    /// never completed.
    pub failed: u64,
    /// FNV-1a hash of the workload's canonical campaign JSON (hex), for
    /// cross-workload byte-identity checks.
    pub canonical: String,
}

impl PassRecord {
    /// Did every check hold and no execution fail?
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Prints every metric by name with its unit, then the checks.
    pub fn print(&self) {
        println!(
            "== {} (--trace {}) attempted {} failed {}",
            self.workload, self.trace, self.attempted, self.failed
        );
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            println!(
                "  {:<40} {:>16} {}{}",
                m.name,
                fmt_value(m.value),
                m.unit,
                note
            );
        }
        for c in &self.checks {
            println!(
                "  check {:<52} {}  {}",
                c.name,
                if c.ok { "ok" } else { "FAILED" },
                c.detail
            );
        }
    }

    /// The record as embedded in output files.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(Obj::new(), |o, m| o.raw(m.name, m.json()));
        Obj::new()
            .raw("meta", &self.meta)
            .uint("trace", u64::from(self.trace))
            .bool("correct", self.correct())
            .uint("attempted", self.attempted)
            .uint("failed", self.failed)
            .str("canonical_fnv64", &self.canonical)
            .raw("metrics", metrics.finish())
            .raw("checks", array(self.checks.iter().map(Check::json)))
            .finish()
    }

    /// The one-line result the benchmark driver reads: exactly the keys
    /// `correct`, `attempted`, `failed`, `metrics`; with `--trace 0`
    /// every driver end-to-end metric, with `--trace 1` every per-layer
    /// metric (0 where the workload does not exercise the layer).
    pub fn driver_line(&self) -> String {
        let names: Vec<(&str, &str)> = if self.trace == 0 {
            crate::metrics::END_TO_END
                .iter()
                .filter(|m| m.driver)
                .map(|m| (m.name, m.unit))
                .collect()
        } else {
            PER_LAYER.to_vec()
        };
        let metrics = names.iter().fold(Obj::new(), |o, (name, unit)| {
            let value = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .map_or(0.0, |m| m.value);
            o.raw(
                name,
                Obj::new().num("value", value).str("unit", unit).finish(),
            )
        });
        Obj::new()
            .bool("correct", self.correct())
            .uint("attempted", self.attempted.max(1))
            .uint("failed", self.failed)
            .raw("metrics", metrics.finish())
            .finish()
    }
}

/// Human-readable value: enough digits to compare by eye, never rounded
/// to nothing.
pub fn fmt_value(v: f64) -> String {
    let a = v.abs();
    if a == 0.0 {
        "0".to_string()
    } else if a >= 1000.0 {
        format!("{v:.0}")
    } else if a >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;
    use crate::workloads::{find, Plan};
    use c11tester_campaign::baseline::JsonValue;

    fn record(trace: u8) -> PassRecord {
        let plan = Plan::new(find("gen").unwrap(), 0xC11, true).unwrap();
        PassRecord {
            meta: meta_json(&plan, 10, true),
            workload: "gen",
            trace,
            metrics: vec![
                Metric::median_of("execs_per_s", "1/s", vec![90.0, 110.0, 100.0]),
                Metric::single("core.clock_leq_ns", "ns", 3.5),
            ],
            checks: vec![Check::new("a check", true, "fine")],
            attempted: 42,
            failed: 0,
            canonical: "0x0000000000000001".to_string(),
        }
    }

    fn keys(v: &JsonValue) -> Vec<&str> {
        match v {
            JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {v:?}"),
        }
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys_and_metric_sets() {
        for (trace, expected) in [
            (
                0,
                END_TO_END
                    .iter()
                    .filter(|m| m.driver)
                    .map(|m| m.name)
                    .collect::<Vec<_>>(),
            ),
            (1, PER_LAYER.iter().map(|(n, _)| *n).collect()),
        ] {
            let line = record(trace).driver_line();
            assert!(!line.contains('\n'));
            let doc = JsonValue::parse(&line).expect("one JSON object");
            assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
            assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(42));
            let metrics = doc.get("metrics").unwrap();
            assert_eq!(keys(metrics), expected);
            for name in expected {
                let m = metrics.get(name).unwrap();
                assert_eq!(keys(m), ["value", "unit"]);
                assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
            }
        }
        // A metric the pass did not produce reads 0 on the driver line.
        let doc = JsonValue::parse(&record(1).driver_line()).unwrap();
        let value = |n: &str| doc.get("metrics")?.get(n)?.get("value")?.as_f64();
        assert_eq!(value("core.clock_leq_ns"), Some(3.5));
        assert_eq!(value("isolation.overhead_share"), Some(0.0));
    }

    #[test]
    fn records_carry_the_rerun_recipe_and_raw_samples() {
        let doc = JsonValue::parse(&record(0).json()).expect("record is valid JSON");
        let meta = doc.get("meta").unwrap();
        for key in [
            "workload",
            "commit",
            "seed",
            "targets",
            "gen_pseeds",
            "executions_per_trial",
            "workers",
            "isolate",
            "memory_limit",
            "handover_kind",
            "nproc",
            "pinned_cpu",
            "seconds",
            "quick",
        ] {
            assert!(meta.get(key).is_some(), "meta lacks `{key}`");
        }
        assert_eq!(meta.get("seed").and_then(JsonValue::as_u64), Some(0xC11));
        let pseeds = meta
            .get("gen_pseeds")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(pseeds.len(), crate::workloads::GEN_PROGRAMS);
        assert_eq!(
            pseeds[0].as_u64(),
            Some(crate::workloads::gen_pseeds(0xC11)[0])
        );
        let rate = doc.get("metrics").unwrap().get("execs_per_s").unwrap();
        assert_eq!(rate.get("value").and_then(JsonValue::as_f64), Some(100.0));
        assert_eq!(
            rate.get("samples")
                .and_then(JsonValue::as_array)
                .unwrap()
                .len(),
            3
        );
        assert_eq!(
            rate.get("bound").and_then(JsonValue::as_f64),
            Some(END_TO_END[0].bound)
        );
        assert_eq!(
            rate.get("better").and_then(JsonValue::as_str),
            Some("higher")
        );
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        // A failed check or a failed execution makes the pass incorrect.
        let mut bad = record(0);
        bad.checks.push(Check::new("broken", false, "detail"));
        assert!(!bad.correct());
        let mut failed = record(0);
        failed.failed = 1;
        assert!(!failed.correct());
    }
}
