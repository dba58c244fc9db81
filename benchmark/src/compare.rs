//! `c11perf compare <a.json> <b.json>`: one row per (end-to-end metric,
//! workload) with both sides' medians and quartiles, the ratio with its
//! base, the bound and a verdict. `a` is the base (parent), `b` the
//! change. Exits non-zero on any `worse` (which includes a larger
//! `failed_share`).

use crate::metrics::{is_exact_count, Better, EndToEnd, END_TO_END};
use crate::record::{fmt_value, SCHEMA};
use crate::stats::quartiles;
use c11tester_campaign::baseline::JsonValue;

/// How side `b` reads against side `a` on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Better,
    /// Within the bound of the base.
    Same,
    /// Worse than the base by more than the bound.
    Worse,
    /// The run-to-run spread exceeds the bound and the two sides' trials
    /// overlap: the data cannot tell — not the same as unchanged.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against base `a` on metric `m` from the raw trial values.
pub fn verdict(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(a), quartiles(b));
    if m.better == Better::Exact {
        // Exact for a fixed seed: either direction is a behaviour change.
        return if a2 == b2 {
            Verdict::Same
        } else {
            Verdict::Worse
        };
    }
    // Change in the bad direction as a share of the base median; a zero
    // base (failed_share) compares by sign alone.
    let delta = match m.better {
        Better::Higher => a2 - b2,
        _ => b2 - a2,
    };
    let scale = if a2 == 0.0 { 1.0 } else { a2.abs() };
    let worsening = if a2 == 0.0 && delta != 0.0 {
        f64::INFINITY.copysign(delta)
    } else {
        delta / scale
    };
    let spread = (a3 - a1).max(b3 - b1) / scale;
    let (a_min, a_max) = (min(a), max(a));
    let (b_min, b_max) = (min(b), max(b));
    let overlap = b_min <= a_max && a_min <= b_max;
    if spread > m.bound && overlap {
        Verdict::Unresolved
    } else if worsening > m.bound {
        Verdict::Worse
    } else if worsening < -m.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(SCHEMA) => Ok(doc),
        other => Err(format!("{path}: schema {other:?}, expected {SCHEMA:?}")),
    }
}

fn workloads(doc: &JsonValue) -> &[JsonValue] {
    doc.get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
}

fn workload<'a>(doc: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    workloads(doc)
        .iter()
        .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(name))
}

/// The metrics object of one pass (`end_to_end` or `per_layer`).
fn pass_metrics<'a>(workload: &'a JsonValue, pass: &str) -> Option<&'a JsonValue> {
    workload.get(pass)?.get("metrics")
}

fn samples(metrics: &JsonValue, name: &str) -> Option<Vec<f64>> {
    let values: Vec<f64> = metrics
        .get(name)?
        .get("samples")?
        .as_array()?
        .iter()
        .filter_map(JsonValue::as_f64)
        .collect();
    (!values.is_empty()).then_some(values)
}

fn side(v: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(v);
    format!("{} [{}, {}]", fmt_value(q2), fmt_value(q1), fmt_value(q3))
}

/// Compares two `c11perf run` files. `Ok(false)` = at least one `worse`.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for key in ["commit", "seed", "seconds", "nproc"] {
        let show = |d: &JsonValue| match d.get(key) {
            Some(JsonValue::String(s)) => s.clone(),
            Some(JsonValue::Number(n)) => n.clone(),
            _ => "?".to_string(),
        };
        println!("{key:<8} a = {:<44} b = {}", show(&a), show(&b));
    }
    println!(
        "\n{:<9} {:<19} {:>34} {:>34} {:>9} {:>6}  verdict",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "b/a", "bound"
    );
    let mut tally = [0usize; 4];
    for wa in workloads(&a) {
        let name = wa.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let Some(wb) = workload(&b, name) else {
            return Err(format!("{path_b} has no workload `{name}`"));
        };
        let (Some(ma), Some(mb)) = (
            pass_metrics(wa, "end_to_end"),
            pass_metrics(wb, "end_to_end"),
        ) else {
            return Err(format!("workload `{name}` lacks an end_to_end pass"));
        };
        for m in &END_TO_END {
            let (va, vb) = match (samples(ma, m.name), samples(mb, m.name)) {
                (Some(va), Some(vb)) => (va, vb),
                // Not reported on this workload (`exec_p99_us` on `isolate`).
                (None, None) => continue,
                _ => return Err(format!("one side lacks {} on `{name}`", m.name)),
            };
            let v = verdict(m, &va, &vb);
            tally[v as usize] += 1;
            let (base, change) = (quartiles(&va)[1], quartiles(&vb)[1]);
            let ratio = if base == 0.0 {
                "-".to_string()
            } else {
                format!("{:.4}", change / base)
            };
            println!(
                "{name:<9} {:<19} {:>34} {:>34} {ratio:>9} {:>6}  {}",
                m.name,
                side(&va),
                side(&vb),
                m.bound,
                v.name()
            );
        }
    }
    println!(
        "\n{} better, {} same, {} worse, {} unresolved (ratios are b/a, base a)",
        tally[Verdict::Better as usize],
        tally[Verdict::Same as usize],
        tally[Verdict::Worse as usize],
        tally[Verdict::Unresolved as usize]
    );

    // Exact counts are pure functions of (workload, seed): between two
    // runs of one commit they must be identical; between two commits a
    // difference is the change's footprint, reported as a count.
    let (mut identical, mut changed) = (0usize, Vec::new());
    for wa in workloads(&a) {
        let name = wa.get("name").and_then(JsonValue::as_str).unwrap_or("?");
        let (Some(JsonValue::Object(fa)), Some(mb)) = (
            pass_metrics(wa, "per_layer"),
            workload(&b, name).and_then(|w| pass_metrics(w, "per_layer")),
        ) else {
            continue;
        };
        for (metric, entry) in fa.iter().filter(|(n, _)| is_exact_count(n)) {
            let value = |e: &JsonValue| e.get("value").and_then(JsonValue::as_f64);
            let (va, vb) = (value(entry), mb.get(metric).and_then(value));
            if va == vb {
                identical += 1;
            } else {
                changed.push(format!("  {name:<9} {metric:<40} a = {va:?}  b = {vb:?}"));
            }
        }
    }
    println!(
        "exact counts: {identical} identical, {} changed",
        changed.len()
    );
    for line in &changed {
        println!("{line}");
    }
    Ok(tally[Verdict::Worse as usize] == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn judge(metric: &str, a: &[f64], b: &[f64]) -> Verdict {
        verdict(end_to_end(metric).expect("known metric"), a, b)
    }

    #[test]
    fn throughput_verdicts_follow_bound_and_direction() {
        let bound = end_to_end("execs_per_s").unwrap().bound;
        let a = [1000.0, 1002.0, 998.0, 1001.0, 999.0];
        let scaled = |f: f64| a.map(|v| v * f);
        assert_eq!(judge("execs_per_s", &a, &a), Verdict::Same);
        assert_eq!(
            judge("execs_per_s", &a, &scaled(1.0 - bound / 2.0)),
            Verdict::Same
        );
        assert_eq!(
            judge("execs_per_s", &a, &scaled(1.0 - 2.0 * bound)),
            Verdict::Worse
        );
        assert_eq!(
            judge("execs_per_s", &a, &scaled(1.0 + 2.0 * bound)),
            Verdict::Better
        );
        // Lower-is-better metrics flip the direction.
        assert_eq!(
            judge("exec_p50_us", &a, &scaled(1.0 + 2.0 * bound)),
            Verdict::Worse
        );
        assert_eq!(
            judge("exec_p50_us", &a, &scaled(1.0 - 2.0 * bound)),
            Verdict::Better
        );
    }

    #[test]
    fn wide_overlapping_trials_are_unresolved_not_unchanged() {
        let a = [1000.0, 700.0, 1300.0, 900.0, 1100.0];
        let b = [1010.0, 720.0, 1280.0, 880.0, 1150.0];
        assert_eq!(judge("execs_per_s", &a, &b), Verdict::Unresolved);
        // Wide but disjoint: every trial of b beats every trial of a.
        let c = a.map(|v| v * 3.0);
        assert_eq!(judge("execs_per_s", &a, &c), Verdict::Better);
        assert_eq!(judge("execs_per_s", &c, &a), Verdict::Worse);
    }

    #[test]
    fn exact_and_zero_based_metrics() {
        let rate = [0.223; 5];
        assert_eq!(judge("bug_detection_rate", &rate, &rate), Verdict::Same);
        // Either direction is a behaviour change.
        assert_eq!(
            judge("bug_detection_rate", &rate, &[0.224; 5]),
            Verdict::Worse
        );
        assert_eq!(
            judge("bug_detection_rate", &rate, &[0.222; 5]),
            Verdict::Worse
        );
        assert_eq!(judge("failed_share", &[0.0], &[0.0]), Verdict::Same);
        assert_eq!(judge("failed_share", &[0.0], &[0.001]), Verdict::Worse);
        assert_eq!(judge("failed_share", &[0.001], &[0.0]), Verdict::Better);
        // Single readings have no spread: judged on the bound alone.
        assert_eq!(judge("peak_rss_mb", &[100.0], &[104.0]), Verdict::Same);
        assert_eq!(judge("peak_rss_mb", &[100.0], &[150.0]), Verdict::Worse);
    }
}
