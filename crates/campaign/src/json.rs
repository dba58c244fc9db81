//! Hand-rolled JSON serialization for [`CampaignReport`].
//!
//! The offline build environment has no access to `serde`, so the
//! campaign report serializes itself: a ~hundred lines of emitter
//! beats carrying a vendored serde fork. Output is deterministic —
//! objects are emitted in fixed field order, arrays in the dedup
//! history's key order — which is what the canonical-form
//! byte-identity contract of [`CampaignReport::canonical_json`] rests
//! on.

use crate::epoch::EpochTrace;
use crate::exec::CrashRecord;
use crate::wire::{access_kind_name, esc, race_kind_name};
use crate::{CampaignBudget, CampaignReport};
use c11tester::{CoverageMap, DedupHistory, Failure, StrategyLedger, TestReport};
use c11tester_core::ExecStats;

fn failure(f: &Failure) -> (&'static str, String) {
    let msg = match f {
        Failure::Deadlock => "all live threads blocked".to_string(),
        Failure::Panic(msg) => msg.clone(),
        Failure::TooManyEvents(n) => format!("{n} events"),
        Failure::Infra(msg) => msg.clone(),
    };
    (f.kind_name(), msg)
}

/// Emits the stats object; `alloc` appends the allocation-diagnostic
/// block (recycled/fresh provisioning, clock spills). The block is
/// **off by default and never part of the canonical form**: recycled
/// counts depend on worker count and on recycled-vs-fresh provisioning,
/// so including them would break the byte-identity contract (and every
/// checked-in golden). `c11campaign --alloc-stats` opts in explicitly.
fn stats_with(s: &ExecStats, alloc: bool) -> String {
    let alloc_block = if alloc {
        format!(
            ",\"alloc\":{{\"fresh_executions\":{},\"recycled_executions\":{},\"clock_spills\":{}}}",
            s.alloc.fresh_executions, s.alloc.recycled_executions, s.alloc.clock_spills,
        )
    } else {
        String::new()
    };
    format!(
        concat!(
            "{{\"atomic_loads\":{},\"atomic_stores\":{},\"rmws\":{},",
            "\"fences\":{},\"sync_ops\":{},\"normal_accesses\":{},",
            "\"volatile_accesses\":{},\"candidates_rejected\":{},",
            "\"pruned_stores\":{},\"pruned_loads\":{},\"pruned_fences\":{},",
            "\"prune_passes\":{},\"atomic_ops\":{},",
            "\"mograph\":{{\"edges_added\":{},\"edges_redundant\":{},",
            "\"merges\":{},\"rmw_edges\":{}}}{}}}"
        ),
        s.atomic_loads,
        s.atomic_stores,
        s.rmws,
        s.fences,
        s.sync_ops,
        s.normal_accesses,
        s.volatile_accesses,
        s.candidates_rejected,
        s.pruned_stores,
        s.pruned_loads,
        s.pruned_fences,
        s.prune_passes,
        s.atomic_ops(),
        s.mograph.edges_added,
        s.mograph.edges_redundant,
        s.mograph.merges,
        s.mograph.rmw_edges,
        alloc_block,
    )
}

/// Emits `,"budget":{…}`.
fn push_budget(out: &mut String, budget: &CampaignBudget) {
    out.push_str(&format!(
        ",\"budget\":{{\"max_executions\":{},\"deadline_secs\":{},\"stop_on_first_bug\":{}}}",
        budget.max_executions,
        budget
            .deadline
            .map(|d| d.as_secs_f64().to_string())
            .unwrap_or_else(|| "null".to_string()),
        budget.stop_on_first_bug,
    ));
}

/// Emits the aggregate's scalar detection block:
/// `,"executions":…,…,"bug_detection_rate":…,"crashes":…`.
fn push_detection_scalars(out: &mut String, a: &TestReport, crashes: usize) {
    out.push_str(&format!(",\"executions\":{}", a.executions));
    out.push_str(&format!(
        ",\"executions_with_race\":{}",
        a.executions_with_race
    ));
    out.push_str(&format!(
        ",\"executions_with_bug\":{}",
        a.executions_with_bug
    ));
    out.push_str(&format!(
        ",\"race_detection_rate\":{}",
        a.race_detection_rate()
    ));
    out.push_str(&format!(
        ",\"bug_detection_rate\":{}",
        a.bug_detection_rate()
    ));
    out.push_str(&format!(",\"crashes\":{crashes}"));
}

/// Emits `,"crash_records":[…]` — one row per execution that killed
/// its worker process (v4).
fn push_crash_records(out: &mut String, crashes: &[CrashRecord]) {
    out.push_str(",\"crash_records\":[");
    for (i, c) in crashes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"execution\":{},\"strategy\":\"{}\",\"kind\":\"{}\",\"code\":{}}}",
            c.index,
            esc(&c.strategy),
            c.kind.name(),
            c.kind
                .code()
                .map(|n| n.to_string())
                .unwrap_or_else(|| "null".to_string()),
        ));
    }
    out.push(']');
}

/// Emits `,"per_strategy":[…]` — one column row per strategy spec.
fn push_per_strategy(out: &mut String, ledger: &StrategyLedger) {
    out.push_str(",\"per_strategy\":[");
    for (i, (name, b)) in ledger.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            concat!(
                "{{\"strategy\":\"{}\",\"executions\":{},",
                "\"executions_with_race\":{},\"executions_with_bug\":{},",
                "\"race_detection_rate\":{},\"bug_detection_rate\":{},",
                "\"distinct_races\":{}}}"
            ),
            esc(name),
            b.executions,
            b.executions_with_race,
            b.executions_with_bug,
            b.race_detection_rate(),
            b.bug_detection_rate(),
            b.races.len(),
        ));
    }
    out.push(']');
}

/// Emits `,"distinct_races":[…]`.
fn push_distinct_races(out: &mut String, races: &DedupHistory) {
    out.push_str(",\"distinct_races\":[");
    for (i, (_, entry)) in races.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rep = &entry.report;
        out.push_str(&format!(
            concat!(
                "{{\"label\":\"{}\",\"kind\":\"{}\",\"obj\":{},\"offset\":{},",
                "\"current_tid\":{},\"current_kind\":\"{}\",\"prior_tid\":{},",
                "\"prior_atomic\":{},\"first_execution\":{},\"occurrences\":{}}}"
            ),
            esc(&rep.label),
            race_kind_name(rep.kind),
            rep.obj.0,
            rep.offset,
            rep.current_tid.index(),
            access_kind_name(rep.current_kind),
            rep.prior_tid.index(),
            rep.prior_atomic,
            entry.first_execution,
            entry.occurrences,
        ));
    }
    out.push(']');
}

/// Emits `,"failures":[…]`.
fn push_failures(out: &mut String, failures: &[(u64, Failure)]) {
    out.push_str(",\"failures\":[");
    for (i, (ix, f)) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (kind, msg) = failure(f);
        out.push_str(&format!(
            "{{\"execution\":{ix},\"kind\":\"{kind}\",\"message\":\"{}\"}}",
            esc(&msg)
        ));
    }
    out.push(']');
}

/// Emits the shared aggregate tail: races, failures, elisions, stats.
fn push_aggregate_tail(out: &mut String, a: &TestReport, alloc: bool) {
    push_distinct_races(out, &a.races);
    push_failures(out, &a.failures);
    out.push_str(&format!(
        ",\"elided_volatile_races\":{}",
        a.elided_volatile_races
    ));
    out.push_str(&format!(",\"stats\":{}", stats_with(&a.total_stats, alloc)));
}

fn json_opt_u64(v: Option<u64>) -> String {
    v.map(|n| n.to_string())
        .unwrap_or_else(|| "null".to_string())
}

/// The canonical (worker-count independent) object.
///
/// Schema history: version 2 added the `per_strategy` column
/// array (one row per strategy spec that drove at least one execution,
/// sorted by spec) on top of v1's aggregate, and made `strategy` the
/// canonical spec / mix label instead of a Debug rendering.
/// `c11campaign/v4` adds the `crashes` scalar and the `crash_records`
/// array (fork-isolated campaigns record a worker-process death per
/// crashing execution; in-process campaigns always emit `0` / `[]`).
pub(crate) fn canonical(r: &CampaignReport) -> String {
    canonical_with(r, false)
}

/// [`canonical`] with an opt-in allocation-diagnostics block inside
/// `stats` (`c11campaign --alloc-stats`). Never the default: the block
/// is worker-count and provisioning dependent by design, so it is kept
/// out of the byte-identity contract and the checked-in goldens.
pub(crate) fn canonical_with(r: &CampaignReport, alloc: bool) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\":\"c11campaign/v4\"");
    out.push_str(&format!(",\"base_seed\":{}", r.base_seed));
    out.push_str(&format!(",\"policy\":\"{}\"", esc(r.policy)));
    out.push_str(&format!(",\"strategy\":\"{}\"", esc(&r.strategy)));
    push_budget(&mut out, &r.budget);
    out.push_str(&format!(",\"stop_reason\":\"{}\"", r.stop_reason.name()));
    let a = &r.aggregate;
    push_detection_scalars(&mut out, a, r.crashes.len());
    push_per_strategy(&mut out, &a.per_strategy);
    push_crash_records(&mut out, &r.crashes);
    push_aggregate_tail(&mut out, a, alloc);
    out.push('}');
    out
}

/// The canonical epoch-trace object for adaptive campaigns.
///
/// Introduced as schema version 3, which kept every plain-report
/// aggregate field (same names, same order — a plain-report reader
/// sees a superset) and added:
///
/// * an `adaptive` header (`policy`, `epoch_len`, `initial_mix`,
///   `epochs`);
/// * a top-level `first_bug_execution` (the executions-to-first-bug
///   metric, `null` when no bug was found);
/// * an `epochs` array — per epoch: the mix that drove it, its
///   detection scalars, its per-strategy columns, and the running
///   `cumulative` totals after the epoch.
///
/// `c11campaign/v4` adds crash accounting exactly as in the plain
/// report: a `crashes` scalar per epoch row and at the top level, plus
/// the top-level `crash_records` array (the epochs' records
/// concatenated in index order).
pub(crate) fn canonical_trace(t: &EpochTrace) -> String {
    canonical_trace_with(t, false)
}

/// [`canonical_trace`] with the opt-in allocation-diagnostics block
/// (see [`canonical_with`]).
pub(crate) fn canonical_trace_with(t: &EpochTrace, alloc: bool) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"schema\":\"c11campaign/v4\"");
    out.push_str(&format!(",\"base_seed\":{}", t.base_seed));
    out.push_str(&format!(",\"policy\":\"{}\"", esc(t.policy)));
    out.push_str(&format!(",\"strategy\":\"{}\"", esc(&t.initial_mix)));
    out.push_str(&format!(
        ",\"adaptive\":{{\"policy\":\"{}\",\"epoch_len\":{},\"initial_mix\":\"{}\",\"epochs\":{}}}",
        esc(&t.adaptive_policy),
        t.epoch_len,
        esc(&t.initial_mix),
        t.records.len(),
    ));
    push_budget(&mut out, &t.budget);
    out.push_str(&format!(",\"stop_reason\":\"{}\"", t.stop_reason.name()));
    let all_crashes = t.crash_records();
    push_detection_scalars(&mut out, &t.aggregate, all_crashes.len());
    out.push_str(&format!(
        ",\"first_bug_execution\":{}",
        json_opt_u64(t.aggregate.first_bug_execution())
    ));
    out.push_str(",\"epochs\":[");
    let mut cumulative = TestReport::default();
    for (i, rec) in t.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        cumulative.merge(&rec.aggregate);
        out.push_str(&format!(
            "{{\"epoch\":{},\"start_index\":{},\"mix\":\"{}\"",
            rec.epoch,
            rec.start_index,
            esc(&rec.mix)
        ));
        push_detection_scalars(&mut out, &rec.aggregate, rec.crashes.len());
        push_per_strategy(&mut out, &rec.aggregate.per_strategy);
        out.push_str(&format!(
            concat!(
                ",\"cumulative\":{{\"executions\":{},\"executions_with_race\":{},",
                "\"executions_with_bug\":{},\"distinct_races\":{},",
                "\"first_bug_execution\":{}}}"
            ),
            cumulative.executions,
            cumulative.executions_with_race,
            cumulative.executions_with_bug,
            cumulative.races.len(),
            json_opt_u64(cumulative.first_bug_execution()),
        ));
        out.push('}');
    }
    out.push(']');
    push_per_strategy(&mut out, &t.aggregate.per_strategy);
    push_crash_records(&mut out, &all_crashes);
    push_aggregate_tail(&mut out, &t.aggregate, alloc);
    out.push('}');
    out
}

/// Emits `"distinct":{…}`-shaped behavior counts for `map`.
fn distinct_counts(map: &CoverageMap) -> String {
    format!(
        concat!(
            "{{\"rf_edges\":{},\"mo_edges\":{},\"races\":{},",
            "\"interleavings\":{},\"total\":{}}}"
        ),
        map.distinct_rf_edges(),
        map.distinct_mo_edges(),
        map.distinct_races(),
        map.distinct_interleavings(),
        map.distinct_total(),
    )
}

/// Emits the behavior arrays shared by both coverage forms:
/// `,"collected_executions":…,"distinct":{…},"rf_edges":[…],…`.
fn push_coverage_body(out: &mut String, map: &CoverageMap) {
    out.push_str(&format!(
        ",\"collected_executions\":{}",
        map.collected_executions()
    ));
    out.push_str(&format!(",\"distinct\":{}", distinct_counts(map)));
    out.push_str(",\"rf_edges\":[");
    for (i, ((obj, store, load), s)) in map.rf_edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            concat!(
                "{{\"obj\":{},\"store_tid\":{},\"load_tid\":{},",
                "\"first_execution\":{},\"occurrences\":{}}}"
            ),
            obj, store, load, s.first_execution, s.occurrences,
        ));
    }
    out.push_str("],\"mo_edges\":[");
    for (i, ((obj, from, to), s)) in map.mo_edges().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            concat!(
                "{{\"obj\":{},\"from_tid\":{},\"to_tid\":{},",
                "\"first_execution\":{},\"occurrences\":{}}}"
            ),
            obj, from, to, s.first_execution, s.occurrences,
        ));
    }
    out.push_str("],\"races\":[");
    for (i, (key, s)) in map.races().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            concat!(
                "{{\"label\":\"{}\",\"kind\":\"{}\",",
                "\"first_execution\":{},\"occurrences\":{}}}"
            ),
            esc(&key.label),
            race_kind_name(key.kind),
            s.first_execution,
            s.occurrences,
        ));
    }
    out.push_str("],\"interleavings\":[");
    for (i, (hash, s)) in map.interleavings().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"hash\":{},\"first_execution\":{},\"occurrences\":{}}}",
            hash, s.first_execution, s.occurrences,
        ));
    }
    out.push(']');
}

/// The `c11coverage/v1` object for a plain (single-mix) campaign.
///
/// Everything inside is determined by `(config, budget)` alone when
/// coverage collection was enabled for the whole run, so — exactly like
/// the canonical campaign form — the emitted JSON is byte-identical
/// across worker counts and across in-process vs fork-isolated
/// backends. A plain campaign has no epoch structure; its `epochs`
/// growth-curve array is empty.
pub(crate) fn coverage(r: &CampaignReport) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\":\"c11coverage/v1\"");
    out.push_str(&format!(",\"base_seed\":{}", r.base_seed));
    out.push_str(&format!(",\"policy\":\"{}\"", esc(r.policy)));
    out.push_str(&format!(",\"strategy\":\"{}\"", esc(&r.strategy)));
    push_coverage_body(&mut out, &r.aggregate.coverage);
    out.push_str(",\"epochs\":[]}");
    out
}

/// The `c11coverage/v1` object for an adaptive campaign: the overall
/// behavior arrays plus a per-epoch growth curve (`new_behaviors` =
/// behaviors first exhibited in that epoch, and the cumulative distinct
/// counts after it).
pub(crate) fn coverage_trace(t: &EpochTrace) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str("{\"schema\":\"c11coverage/v1\"");
    out.push_str(&format!(",\"base_seed\":{}", t.base_seed));
    out.push_str(&format!(",\"policy\":\"{}\"", esc(t.policy)));
    out.push_str(&format!(",\"strategy\":\"{}\"", esc(&t.initial_mix)));
    push_coverage_body(&mut out, &t.aggregate.coverage);
    out.push_str(",\"epochs\":[");
    let mut cumulative = CoverageMap::new();
    for (i, rec) in t.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let new_behaviors = rec.aggregate.coverage.count_new(&cumulative);
        cumulative.merge(&rec.aggregate.coverage);
        out.push_str(&format!(
            concat!(
                "{{\"epoch\":{},\"start_index\":{},\"mix\":\"{}\",",
                "\"executions\":{},\"new_behaviors\":{},\"cumulative\":{}}}"
            ),
            rec.epoch,
            rec.start_index,
            esc(&rec.mix),
            rec.aggregate.executions,
            new_behaviors,
            distinct_counts(&cumulative),
        ));
    }
    out.push_str("]}");
    out
}

/// The full object: canonical plus timing.
pub(crate) fn full(r: &CampaignReport) -> String {
    format!(
        "{{\"campaign\":{},\"timing\":{{\"workers\":{},\"wall_secs\":{},\"executions_per_second\":{}}}}}",
        canonical(r),
        r.workers,
        r.wall_time.as_secs_f64(),
        r.throughput(),
    )
}

#[cfg(test)]
mod tests {
    use crate::{Campaign, CampaignBudget};
    use c11tester::Config;

    #[test]
    fn json_is_well_formed_and_canonical_excludes_timing() {
        let report = Campaign::new(Config::new().with_seed(9))
            .with_workers(2)
            .run(&CampaignBudget::executions(20), || {
                c11tester_workloads::ds::rwlock_buggy::run_buggy();
            });
        let canonical = report.canonical_json();
        let full = report.to_json();
        // Structure smoke checks (no JSON parser in the offline env).
        assert!(canonical.starts_with('{') && canonical.ends_with('}'));
        assert!(canonical.contains("\"schema\":\"c11campaign/v4\""));
        assert!(canonical.contains("\"executions\":20"));
        assert!(canonical.contains("\"per_strategy\":[{\"strategy\":\"random\""));
        assert!(canonical.contains("\"crashes\":0"));
        assert!(canonical.contains("\"crash_records\":[]"));
        assert!(canonical.contains("\"distinct_races\":["));
        assert!(!canonical.contains("wall_secs"));
        assert!(full.contains("\"campaign\":{"));
        assert!(full.contains("\"workers\":2"));
        assert!(full.contains("wall_secs"));
        // Balanced braces/brackets outside strings (labels here contain
        // neither, so a raw count suffices).
        let opens = canonical.matches('{').count();
        let closes = canonical.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn v3_trace_json_carries_adaptive_header_epochs_and_cumulatives() {
        use crate::{EpochRecord, EpochTrace, StopReason};
        use c11tester::StrategyMix;
        let mix = StrategyMix::parse("random:1,pct2:1").expect("valid mix");
        let config = Config::new().with_seed(9).with_mix(mix);
        let campaign = crate::Campaign::new(config).with_workers(2);
        let racy = || c11tester_workloads::ds::rwlock_buggy::run_buggy();
        let e0 = campaign.run_range(0, &CampaignBudget::executions(10), racy);
        let e1 = campaign.run_range(10, &CampaignBudget::executions(10), racy);
        let mut aggregate = e0.aggregate.clone();
        aggregate.merge(&e1.aggregate);
        let trace = EpochTrace {
            base_seed: 9,
            policy: "C11Tester",
            adaptive_policy: "ucb1".to_string(),
            epoch_len: 10,
            initial_mix: "random:1,pct2:1".to_string(),
            budget: CampaignBudget::executions(20),
            stop_reason: StopReason::BudgetExhausted,
            records: vec![
                EpochRecord {
                    epoch: 0,
                    start_index: 0,
                    mix: "random:1,pct2:1".to_string(),
                    aggregate: e0.aggregate,
                    crashes: Vec::new(),
                },
                EpochRecord {
                    epoch: 1,
                    start_index: 10,
                    mix: "random:1,pct2:3".to_string(),
                    aggregate: e1.aggregate,
                    crashes: vec![crate::CrashRecord {
                        index: 13,
                        strategy: "pct2".to_string(),
                        kind: crate::CrashKind::Signal(11),
                    }],
                },
            ],
            aggregate,
        };
        let json = trace.canonical_json();
        assert!(json.starts_with("{\"schema\":\"c11campaign/v4\""));
        assert!(json.contains(
            "\"crash_records\":[{\"execution\":13,\"strategy\":\"pct2\",\
             \"kind\":\"signal\",\"code\":11}]"
        ));
        assert!(json.contains("\"crashes\":1"));
        assert!(json.contains(
            "\"adaptive\":{\"policy\":\"ucb1\",\"epoch_len\":10,\
             \"initial_mix\":\"random:1,pct2:1\",\"epochs\":2}"
        ));
        assert!(json.contains("\"epochs\":[{\"epoch\":0,\"start_index\":0,\"mix\":"));
        assert!(json.contains("\"mix\":\"random:1,pct2:3\""));
        assert!(json.contains("\"cumulative\":{\"executions\":10,"));
        assert!(json.contains("\"cumulative\":{\"executions\":20,"));
        assert!(json.contains("\"first_bug_execution\":"));
        assert!(json.contains("\"executions\":20"));
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }
}
