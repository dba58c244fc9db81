//! The per-layer pass (`--trace 1`): kernels, whole-trial layer shares,
//! the traced pass and the exact counts. Never the pass that produces
//! end-to-end numbers — profiling and span recording perturb them.

use crate::affinity;
use crate::kernels::{self, Budget};
use crate::measure::{
    campaign_trial, fork_server, preflight_checks, verdict_check, BareLoop, Options, Trial,
};
use crate::record::{meta_json, Check, Metric, PassRecord};
use crate::trace::{attribute, worker_trial, write_trace, Recorder};
use crate::workloads::{nproc, Plan};

fn share(name: &'static str, value: f64, note: String) -> Metric {
    Metric::single(
        name,
        crate::metrics::per_layer_unit(name).unwrap_or("share"),
        value,
    )
    .with_note(note)
}

/// The exact counts of one single-worker campaign trial. They are pure
/// functions of `(workload, seed)`, so a later claim may rest on them.
fn exact_counts(one: &Trial, bare: &BareLoop) -> Vec<Metric> {
    let n = one.aggregate.executions.max(1) as f64;
    let stats = &one.aggregate.total_stats;
    let graph = &stats.mograph_perf;
    let count = |name: &'static str, value: f64| Metric::single(name, "count", value);
    vec![
        count(
            "workloads.atomic_ops_per_exec",
            stats.atomic_ops() as f64 / n,
        ),
        count(
            "workloads.normal_accesses_per_exec",
            stats.normal_accesses as f64 / n,
        ),
        count(
            "core.candidates_rejected_per_exec",
            stats.candidates_rejected as f64 / n,
        ),
        count(
            "core.reach_cv_checks_per_exec",
            graph.reach_cv_checks as f64 / n,
        ),
        count(
            "core.reach_fast_negative_per_exec",
            graph.reach_fast_negative as f64 / n,
        ),
        count(
            "core.order_reorders_per_exec",
            graph.order_reorders as f64 / n,
        ),
        count(
            "core.reorder_nodes_per_reorder",
            graph.reorder_nodes as f64 / graph.order_reorders.max(1) as f64,
        ),
        count("core.compactions_per_exec", graph.compactions as f64 / n),
        count("core.peak_live_nodes", graph.peak_live_nodes as f64),
        count(
            "race.checks_per_exec",
            bare.race_checks as f64 / bare.us.len().max(1) as f64,
        ),
        count(
            "race.distinct_races",
            one.aggregate.distinct_race_count() as f64,
        ),
        Metric::single(
            "campaign.bug_detection_rate",
            "share",
            one.aggregate.bug_detection_rate(),
        )
        .with_note(format!(
            "{} of {} executions",
            one.aggregate.executions_with_bug, one.aggregate.executions
        )),
    ]
}

/// Runs the per-layer pass of `plan`.
pub fn run(plan: &Plan, opts: Options) -> Result<PassRecord, String> {
    // Everything single-worker runs on one CPU (see `affinity`); only
    // the trials that need parallelism below lift the pin.
    affinity::pin();
    let mut checks = preflight_checks(plan, opts.quick);
    let budget = if opts.quick {
        Budget::quick()
    } else {
        Budget::full()
    };
    let mut metrics = kernels::all(&plan.config, budget)?;

    // Whole-trial layer shares: the same fixed-count trial through the
    // campaign at one and two workers, and through no campaign at all.
    let one = campaign_trial(plan, 1, None)?;
    let bare = BareLoop::run(plan, plan.executions);
    affinity::unpin();
    let two = campaign_trial(plan, 2, None)?;
    let isolated = match plan.workload.isolate {
        true => Some(campaign_trial(plan, plan.workers, Some(&fork_server()?))?),
        false => None,
    };
    affinity::pin();
    checks.extend(verdict_check(plan, &one.aggregate));
    checks.push(Check::new(
        "canonical JSON byte-identical at 1 and 2 workers",
        one.canonical == two.canonical,
        format!("fnv64 {} / {}", one.canonical.hex(), two.canonical.hex()),
    ));
    metrics.push(share(
        "campaign.overhead_share",
        1.0 - one.rate() / bare.rate(),
        format!(
            "1 - {:.0}/s through Campaign::run / {:.0}/s bare Model::run_at",
            one.rate(),
            bare.rate()
        ),
    ));
    metrics.push(share(
        "campaign.scaling_2w",
        two.rate() / one.rate(),
        format!(
            "{:.0}/s at 2 workers unpinned / {:.0}/s at 1 worker on 1 CPU, nproc {}",
            two.rate(),
            one.rate(),
            nproc()
        ),
    ));
    let mut attempted = one.attempted + two.attempted + bare.us.len() as u64;
    let mut failed = one.failed() + two.failed() + bare.failed;

    if let Some(isolated) = isolated {
        // The isolation layer's share: the same trial through the fork
        // server against the in-process campaign at equal workers.
        let in_process = if plan.workers == 2 { &two } else { &one };
        attempted += isolated.attempted;
        failed += isolated.failed();
        checks.push(Check::new(
            "fork-server canonical JSON equals the in-process campaign's",
            isolated.canonical == in_process.canonical,
            format!(
                "fnv64 {} / {}",
                isolated.canonical.hex(),
                in_process.canonical.hex()
            ),
        ));
        metrics.push(share(
            "isolation.overhead_share",
            1.0 - isolated.rate() / in_process.rate(),
            format!(
                "1 - {:.0}/s isolated / {:.0}/s in-process, {} workers each",
                isolated.rate(),
                in_process.rate(),
                plan.workers
            ),
        ));
    } else {
        // The traced pass, against the identical loop with tracing off.
        let untraced = worker_trial(plan, None);
        let spans = 2 * plan.trial_executions() as usize + plan.targets.len() + 1;
        let mut recorder = Recorder::with_capacity(spans);
        c11tester_telemetry::set_profiling(true);
        let traced = worker_trial(plan, Some(&mut recorder));
        c11tester_telemetry::set_profiling(false);
        attempted += untraced.executions + traced.executions;
        checks.push(Check::new(
            "traced and untraced worker loops reproduce the campaign's canonical JSON",
            traced.canonical == one.canonical && untraced.canonical == one.canonical,
            format!("fnv64 {}", traced.canonical.hex()),
        ));
        metrics.push(share(
            "telemetry.profiling_overhead_share",
            1.0 - traced.rate() / untraced.rate(),
            format!(
                "1 - {:.0}/s traced / {:.0}/s untraced worker loop",
                traced.rate(),
                untraced.rate()
            ),
        ));
        let attribution = attribute(&recorder, &traced.phase);
        let total: f64 = attribution.iter().map(|(_, s)| s).sum();
        checks.push(Check::new(
            "phase shares + unattributed_share sum to 1 +- 0.01 of the execution span",
            (total - 1.0).abs() <= 0.01,
            format!("sum {total:.6}"),
        ));
        let path = write_trace(
            plan,
            &meta_json(plan, opts.seconds, opts.quick),
            &recorder,
            &traced.phase,
            &attribution,
        )?;
        for (name, value) in attribution {
            metrics.push(share(
                name,
                value,
                format!("of the run_at span total; {path}"),
            ));
        }
    }

    metrics.extend(exact_counts(&one, &bare));
    metrics.push(
        Metric::single(
            "campaign.failed_share",
            "share",
            failed as f64 / attempted as f64,
        )
        .with_note(format!("{failed} of {attempted} attempted")),
    );
    // Report in table order, whatever order the sections above ran in.
    metrics.sort_by_key(|m| {
        crate::metrics::PER_LAYER
            .iter()
            .position(|(n, _)| *n == m.name)
            .unwrap_or(usize::MAX)
    });
    Ok(PassRecord {
        meta: meta_json(plan, opts.seconds, opts.quick),
        workload: plan.workload.name,
        trace: 1,
        metrics,
        checks,
        attempted,
        failed,
        canonical: one.canonical.hex(),
    })
}
