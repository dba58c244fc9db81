//! The report documents: `c11campaign/v4` (canonical and `--json`
//! full form) and `c11coverage/v1`, one writer each for plain and
//! adaptive runs alike (an adaptive run is its [`CampaignReport`] plus
//! the [`EpochTrace`] epochs, which add rows), plus the one
//! encoding of each report type they share with the fork-server wire
//! (`c11tester-isolation`'s `protocol`): a race, a dedup entry, a
//! per-strategy row, an `ExecStats`, an `AllocStats` and a `CoverageMap`
//! are each written by one function here and read back by its `read_*`
//! inverse. Where a document row drops detail the wire needs (a dedup
//! entry's shapes, a bucket's own history), the wire appends it.
//!
//! Everything goes through [`JsonWriter`], so field order is the order
//! of the calls below and fixed per type. The canonical forms'
//! byte-identity contract ([`CampaignReport::canonical_json`]) rests on
//! that, and on arrays following their maps' key order.

use crate::epoch::EpochTrace;
use crate::exec::CrashRecord;
use crate::{CampaignBudget, CampaignReport};
use c11tester::{
    AccessKind, AccessShape, BehaviorStats, CoverageMap, DedupEntry, DedupHistory, Failure,
    RaceKey, RaceKind, RaceReport, StrategyBucket, StrategyLedger, TestReport, ThreadId,
};
use c11tester_core::{AllocStats, ExecStats, MoGraphStats, ObjId};
use c11tester_telemetry::json::{JsonValue, JsonWriter};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Shared report types: one writer and one reader each
// ---------------------------------------------------------------------

/// Writes a race report's fields into an open object: the exemplar row
/// of `distinct_races`, the forensics bundle's `race` object and each
/// dedup entry of a `batch` frame.
pub fn write_race(w: &mut JsonWriter, r: &RaceReport) {
    w.key("label").str(&r.label);
    w.key("kind").str(r.kind.name());
    w.key("obj").u64(r.obj.0);
    w.key("offset").u64(u64::from(r.offset));
    w.key("current_tid").u64(r.current_tid.index() as u64);
    w.key("current_kind").str(r.current_kind.name());
    w.key("prior_tid").u64(r.prior_tid.index() as u64);
    w.key("prior_atomic").bool(r.prior_atomic);
}

/// Inverse of [`write_race`].
pub fn read_race(v: &JsonValue) -> Result<RaceReport, String> {
    Ok(RaceReport {
        label: v.str_field("label")?.to_string(),
        obj: ObjId(v.u64_field("obj")?),
        offset: v.u64_field("offset")? as u32,
        kind: RaceKind::parse(v.str_field("kind")?)?,
        current_tid: ThreadId::from_index(v.u64_field("current_tid")? as usize),
        current_kind: AccessKind::parse(v.str_field("current_kind")?)?,
        prior_tid: ThreadId::from_index(v.u64_field("prior_tid")? as usize),
        prior_atomic: v.bool_field("prior_atomic")?,
    })
}

/// Writes the access-pair shapes behind one dedup key, in set order: the
/// forensics bundle's `shapes` array and each wire dedup entry's.
pub fn write_shapes(w: &mut JsonWriter, shapes: &BTreeSet<AccessShape>) {
    w.array(|w| {
        for s in shapes {
            w.object(|w| {
                w.key("current_tid").u64(s.current_tid);
                w.key("current_kind").str(s.current_kind.name());
                w.key("prior_tid").u64(s.prior_tid);
                w.key("prior_atomic").bool(s.prior_atomic);
            });
        }
    });
}

/// Inverse of [`write_shapes`].
pub fn read_shapes(v: &JsonValue) -> Result<BTreeSet<AccessShape>, String> {
    v.as_array()
        .ok_or("`shapes` is not an array")?
        .iter()
        .map(|s| {
            Ok(AccessShape {
                current_tid: s.u64_field("current_tid")?,
                current_kind: AccessKind::parse(s.str_field("current_kind")?)?,
                prior_tid: s.u64_field("prior_tid")?,
                prior_atomic: s.bool_field("prior_atomic")?,
            })
        })
        .collect()
}

/// Writes one `distinct_races` row into an open object: the exemplar
/// race plus its dedup provenance. (A `batch` frame appends the entry's
/// `shapes`.)
pub fn write_dedup_entry(w: &mut JsonWriter, e: &DedupEntry) {
    write_race(w, &e.report);
    w.key("first_execution").u64(e.first_execution);
    w.key("occurrences").u64(e.occurrences);
}

/// Inverse of [`write_dedup_entry`]. The row carries no shapes, so the
/// entry's set is empty.
pub fn read_dedup_entry(v: &JsonValue) -> Result<DedupEntry, String> {
    Ok(DedupEntry {
        report: read_race(v)?,
        first_execution: v.u64_field("first_execution")?,
        occurrences: v.u64_field("occurrences")?,
        shapes: BTreeSet::new(),
    })
}

/// Writes one `per_strategy` row into an open object. (A `batch` frame
/// appends the bucket's own dedup history.)
pub fn write_strategy_row(w: &mut JsonWriter, name: &str, b: &StrategyBucket) {
    w.key("strategy").str(name);
    w.key("executions").u64(b.executions);
    w.key("executions_with_race").u64(b.executions_with_race);
    w.key("executions_with_bug").u64(b.executions_with_bug);
    w.key("race_detection_rate").f64(b.race_detection_rate());
    w.key("bug_detection_rate").f64(b.bug_detection_rate());
    w.key("distinct_races").u64(b.races.len() as u64);
}

/// Inverse of [`write_strategy_row`]: the strategy spec and its bucket,
/// whose dedup history the row does not carry (the rates and the count
/// are derived and ignored).
pub fn read_strategy_row(v: &JsonValue) -> Result<(String, StrategyBucket), String> {
    let bucket = StrategyBucket {
        executions: v.u64_field("executions")?,
        executions_with_race: v.u64_field("executions_with_race")?,
        executions_with_bug: v.u64_field("executions_with_bug")?,
        races: DedupHistory::new(),
    };
    Ok((v.str_field("strategy")?.to_string(), bucket))
}

/// Writes the stats object: the behavioral counters, the derived
/// `atomic_ops` and the `mograph` block. `alloc` appends the
/// allocation-diagnostic block (recycled/fresh provisioning, clock
/// spills), which is **off by default and never part of the canonical
/// form**: recycled counts depend on worker count and provisioning, so
/// including them would break the byte-identity contract.
/// `c11campaign --alloc-stats` opts in explicitly, and the fork-server
/// wire always does.
pub fn write_stats(w: &mut JsonWriter, s: &ExecStats, alloc: bool) {
    w.object(|w| {
        w.key("atomic_loads").u64(s.atomic_loads);
        w.key("atomic_stores").u64(s.atomic_stores);
        w.key("rmws").u64(s.rmws);
        w.key("fences").u64(s.fences);
        w.key("sync_ops").u64(s.sync_ops);
        w.key("normal_accesses").u64(s.normal_accesses);
        w.key("volatile_accesses").u64(s.volatile_accesses);
        w.key("candidates_rejected").u64(s.candidates_rejected);
        w.key("pruned_stores").u64(s.pruned_stores);
        w.key("pruned_loads").u64(s.pruned_loads);
        w.key("pruned_fences").u64(s.pruned_fences);
        w.key("prune_passes").u64(s.prune_passes);
        w.key("atomic_ops").u64(s.atomic_ops());
        w.key("mograph").object(|w| {
            w.key("edges_added").u64(s.mograph.edges_added);
            w.key("edges_redundant").u64(s.mograph.edges_redundant);
            w.key("merges").u64(s.mograph.merges);
            w.key("rmw_edges").u64(s.mograph.rmw_edges);
        });
        if alloc {
            write_alloc(w.key("alloc"), &s.alloc);
        }
    });
}

/// Inverse of [`write_stats`]. `atomic_ops` is derived and ignored; the
/// `alloc` block is read when present. The other diagnostic blocks
/// (`phase`, the graph counters) stay zero: the `batch` frame carries
/// them beside the stats object.
pub fn read_stats(v: &JsonValue) -> Result<ExecStats, String> {
    let mg = v.field("mograph")?;
    Ok(ExecStats {
        alloc: v
            .get("alloc")
            .map(read_alloc)
            .transpose()?
            .unwrap_or_default(),
        atomic_loads: v.u64_field("atomic_loads")?,
        atomic_stores: v.u64_field("atomic_stores")?,
        rmws: v.u64_field("rmws")?,
        fences: v.u64_field("fences")?,
        sync_ops: v.u64_field("sync_ops")?,
        normal_accesses: v.u64_field("normal_accesses")?,
        volatile_accesses: v.u64_field("volatile_accesses")?,
        candidates_rejected: v.u64_field("candidates_rejected")?,
        pruned_stores: v.u64_field("pruned_stores")?,
        pruned_loads: v.u64_field("pruned_loads")?,
        pruned_fences: v.u64_field("pruned_fences")?,
        prune_passes: v.u64_field("prune_passes")?,
        mograph: MoGraphStats {
            edges_added: mg.u64_field("edges_added")?,
            edges_redundant: mg.u64_field("edges_redundant")?,
            merges: mg.u64_field("merges")?,
            rmw_edges: mg.u64_field("rmw_edges")?,
        },
        ..ExecStats::default()
    })
}

/// Writes the allocation counters as one object: the stats' `alloc`
/// block.
pub fn write_alloc(w: &mut JsonWriter, a: &AllocStats) {
    w.object(|w| {
        w.key("fresh_executions").u64(a.fresh_executions);
        w.key("recycled_executions").u64(a.recycled_executions);
        w.key("clock_spills").u64(a.clock_spills);
    });
}

/// Inverse of [`write_alloc`].
pub fn read_alloc(v: &JsonValue) -> Result<AllocStats, String> {
    Ok(AllocStats {
        fresh_executions: v.u64_field("fresh_executions")?,
        recycled_executions: v.u64_field("recycled_executions")?,
        clock_spills: v.u64_field("clock_spills")?,
    })
}

fn write_behavior(w: &mut JsonWriter, s: &BehaviorStats) {
    w.key("first_execution").u64(s.first_execution);
    w.key("occurrences").u64(s.occurrences);
}

fn read_behavior(v: &JsonValue) -> Result<BehaviorStats, String> {
    Ok(BehaviorStats {
        first_execution: v.u64_field("first_execution")?,
        occurrences: v.u64_field("occurrences")?,
    })
}

/// Writes `"distinct":{…}`-shaped behavior counts for `map`.
fn write_distinct(w: &mut JsonWriter, map: &CoverageMap) {
    w.object(|w| {
        w.key("rf_edges").u64(map.distinct_rf_edges());
        w.key("mo_edges").u64(map.distinct_mo_edges());
        w.key("races").u64(map.distinct_races());
        w.key("interleavings").u64(map.distinct_interleavings());
        w.key("total").u64(map.distinct_total());
    });
}

/// Writes a coverage map's fields into an open object:
/// `collected_executions`, the derived `distinct` counts, and the four
/// behavior arrays in key order. Shared by both `c11coverage/v1` forms
/// and the `batch` frame's `coverage` object.
pub fn write_coverage(w: &mut JsonWriter, map: &CoverageMap) {
    w.key("collected_executions")
        .u64(map.collected_executions());
    write_distinct(w.key("distinct"), map);
    w.key("rf_edges").array(|w| {
        for ((obj, store, load), s) in map.rf_edges() {
            w.object(|w| {
                w.key("obj").u64(*obj);
                w.key("store_tid").u64(*store);
                w.key("load_tid").u64(*load);
                write_behavior(w, s);
            });
        }
    });
    w.key("mo_edges").array(|w| {
        for ((obj, from, to), s) in map.mo_edges() {
            w.object(|w| {
                w.key("obj").u64(*obj);
                w.key("from_tid").u64(*from);
                w.key("to_tid").u64(*to);
                write_behavior(w, s);
            });
        }
    });
    w.key("races").array(|w| {
        for (key, s) in map.races() {
            w.object(|w| {
                w.key("label").str(&key.label);
                w.key("kind").str(key.kind.name());
                write_behavior(w, s);
            });
        }
    });
    w.key("interleavings").array(|w| {
        for (hash, s) in map.interleavings() {
            w.object(|w| {
                w.key("hash").u64(*hash);
                write_behavior(w, s);
            });
        }
    });
}

/// Inverse of [`write_coverage`] (`distinct` is derived and ignored).
pub fn read_coverage(v: &JsonValue) -> Result<CoverageMap, String> {
    let mut map = CoverageMap::new();
    map.add_collected_executions(v.u64_field("collected_executions")?);
    for row in v.array_field("rf_edges")? {
        let key = (
            row.u64_field("obj")?,
            row.u64_field("store_tid")?,
            row.u64_field("load_tid")?,
        );
        map.absorb_rf_edge(key, read_behavior(row)?);
    }
    for row in v.array_field("mo_edges")? {
        let key = (
            row.u64_field("obj")?,
            row.u64_field("from_tid")?,
            row.u64_field("to_tid")?,
        );
        map.absorb_mo_edge(key, read_behavior(row)?);
    }
    for row in v.array_field("races")? {
        let key = RaceKey {
            label: row.str_field("label")?.to_string(),
            kind: RaceKind::parse(row.str_field("kind")?)?,
        };
        map.absorb_race(key, read_behavior(row)?);
    }
    for row in v.array_field("interleavings")? {
        map.absorb_interleaving(row.u64_field("hash")?, read_behavior(row)?);
    }
    Ok(map)
}

// ---------------------------------------------------------------------
// c11campaign/v4
// ---------------------------------------------------------------------

/// Writes `"budget":{…}`.
fn write_budget(w: &mut JsonWriter, budget: &CampaignBudget) {
    w.key("budget").object(|w| {
        w.key("max_executions").u64(budget.max_executions);
        match budget.deadline {
            Some(d) => w.key("deadline_secs").f64(d.as_secs_f64()),
            None => w.key("deadline_secs").null(),
        }
        w.key("stop_on_first_bug").bool(budget.stop_on_first_bug);
    });
}

/// Writes the aggregate's scalar detection fields, `executions` through
/// `crashes`.
fn write_detection_scalars(w: &mut JsonWriter, a: &TestReport, crashes: usize) {
    w.key("executions").u64(a.executions);
    w.key("executions_with_race").u64(a.executions_with_race);
    w.key("executions_with_bug").u64(a.executions_with_bug);
    w.key("race_detection_rate").f64(a.race_detection_rate());
    w.key("bug_detection_rate").f64(a.bug_detection_rate());
    w.key("crashes").u64(crashes as u64);
}

/// Writes `"crash_records":[…]`: one row per execution that killed its
/// worker process (v4).
fn write_crash_records(w: &mut JsonWriter, crashes: &[CrashRecord]) {
    w.key("crash_records").array(|w| {
        for c in crashes {
            w.object(|w| {
                w.key("execution").u64(c.index);
                w.key("strategy").str(&c.strategy);
                w.key("kind").str(c.kind.name());
                match c.kind.code() {
                    Some(code) => w.key("code").i64(i64::from(code)),
                    None => w.key("code").null(),
                }
            });
        }
    });
}

/// Writes `"per_strategy":[…]`: one column row per strategy spec.
fn write_per_strategy(w: &mut JsonWriter, ledger: &StrategyLedger) {
    w.key("per_strategy").array(|w| {
        for (name, b) in ledger.iter() {
            w.object(|w| write_strategy_row(w, name, b));
        }
    });
}

/// Writes `"distinct_races":[…]`: each exemplar race plus its dedup
/// provenance.
fn write_distinct_races(w: &mut JsonWriter, races: &DedupHistory) {
    w.key("distinct_races").array(|w| {
        for (_, entry) in races.iter() {
            w.object(|w| write_dedup_entry(w, entry));
        }
    });
}

/// Writes `"failures":[…]`. The document row is lossy on purpose
/// (`too-many-events` becomes the message `"N events"`); the wire keeps
/// its own lossless encoding of a [`Failure`].
fn write_failures(w: &mut JsonWriter, failures: &[(u64, Failure)]) {
    w.key("failures").array(|w| {
        for (ix, f) in failures {
            w.object(|w| {
                w.key("execution").u64(*ix);
                w.key("kind").str(f.kind_name());
                match f {
                    Failure::Deadlock => w.key("message").str("all live threads blocked"),
                    Failure::Panic(msg) | Failure::Infra(msg) => w.key("message").str(msg),
                    Failure::TooManyEvents(n) => w.key("message").str(&format!("{n} events")),
                }
            });
        }
    });
}

/// Writes the shared aggregate tail: races, failures, elisions, stats.
fn write_aggregate_tail(w: &mut JsonWriter, a: &TestReport, alloc: bool) {
    write_distinct_races(w, &a.races);
    write_failures(w, &a.failures);
    w.key("elided_volatile_races").u64(a.elided_volatile_races);
    write_stats(w.key("stats"), &a.total_stats, alloc);
}

/// Writes the header every document starts with: schema, seed, policy,
/// strategy label (an adaptive run's is its initial mix).
fn write_header(w: &mut JsonWriter, schema: &str, r: &CampaignReport) {
    w.key("schema").str(schema);
    w.key("base_seed").u64(r.base_seed);
    w.key("policy").str(r.policy);
    w.key("strategy").str(&r.strategy);
}

/// Writes the canonical (worker-count independent) `c11campaign/v4`
/// object of `r` (see [`canonical`]).
///
/// Schema history: version 2 added the `per_strategy` column array (one
/// row per strategy spec that drove at least one execution, sorted by
/// spec) on top of v1's aggregate, and made `strategy` the canonical
/// spec / mix label instead of a Debug rendering. Version 3 gave
/// adaptive runs their superset of the plain object (same names, same
/// order), adding:
///
/// * an `adaptive` header (`policy`, `epoch_len`, `initial_mix`,
///   `epochs`);
/// * a top-level `first_bug_execution` (the executions-to-first-bug
///   metric, `null` when no bug was found);
/// * an `epochs` array — per epoch: the mix that drove it, its
///   detection scalars, its per-strategy columns, and the running
///   `cumulative` totals after the epoch.
///
/// `c11campaign/v4` adds the `crashes` scalar (top level and per epoch
/// row) and the `crash_records` array: fork-isolated campaigns record a
/// worker-process death per crashing execution; in-process campaigns
/// always emit `0` / `[]`.
fn write_canonical(
    w: &mut JsonWriter,
    r: &CampaignReport,
    epochs: Option<&EpochTrace>,
    alloc: bool,
) {
    w.object(|w| {
        write_header(w, "c11campaign/v4", r);
        if let Some(t) = epochs {
            w.key("adaptive").object(|w| {
                w.key("policy").str(&t.adaptive_policy);
                w.key("epoch_len").u64(t.epoch_len);
                w.key("initial_mix").str(&r.strategy);
                w.key("epochs").u64(t.records.len() as u64);
            });
        }
        write_budget(w, &r.budget);
        w.key("stop_reason").str(r.stop_reason.name());
        write_detection_scalars(w, &r.aggregate, r.crashes.len());
        if let Some(t) = epochs {
            w.key("first_bug_execution")
                .opt_u64(r.aggregate.first_bug_execution());
            write_epoch_rows(w, t);
        }
        write_per_strategy(w, &r.aggregate.per_strategy);
        write_crash_records(w, &r.crashes);
        write_aggregate_tail(w, &r.aggregate, alloc);
    });
}

/// Writes the canonical `"epochs":[…]` array of an adaptive run.
fn write_epoch_rows(w: &mut JsonWriter, t: &EpochTrace) {
    w.key("epochs").array(|w| {
        let mut cumulative = TestReport::default();
        for rec in &t.records {
            cumulative.merge(&rec.aggregate);
            w.object(|w| {
                w.key("epoch").u64(rec.epoch);
                w.key("start_index").u64(rec.start_index);
                w.key("mix").str(&rec.mix);
                write_detection_scalars(w, &rec.aggregate, t.crashes_in(rec).len());
                write_per_strategy(w, &rec.aggregate.per_strategy);
                w.key("cumulative").object(|w| {
                    w.key("executions").u64(cumulative.executions);
                    w.key("executions_with_race")
                        .u64(cumulative.executions_with_race);
                    w.key("executions_with_bug")
                        .u64(cumulative.executions_with_bug);
                    w.key("distinct_races").u64(cumulative.races.len() as u64);
                    w.key("first_bug_execution")
                        .opt_u64(cumulative.first_bug_execution());
                });
            });
        }
    });
}

/// The canonical document of `r` (see [`CampaignReport::canonical_json`]);
/// `epochs` is the adaptive run whose report `r` is, if any.
///
/// `alloc` adds the `alloc` diagnostics block inside `stats`
/// (recycled-vs-fresh provisioning and clock-vector spill counts;
/// `c11campaign --alloc-stats`). The block is **not** covered by the
/// byte-identity contract: provisioning depends on worker count and on
/// execution-state recycling, which is why the canonical form and the
/// goldens leave it out.
pub fn canonical(r: &CampaignReport, epochs: Option<&EpochTrace>, alloc: bool) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    write_canonical(&mut w, r, epochs, alloc);
    w.finish()
}

/// The `--json` full form, `{"campaign":<canonical>,"timing":{…}}`:
/// the canonical object plus run-local timing (workers, wall seconds,
/// throughput).
pub fn full(r: &CampaignReport, epochs: Option<&EpochTrace>) -> String {
    let mut w = JsonWriter::with_capacity(4096);
    w.object(|w| {
        write_canonical(w.key("campaign"), r, epochs, false);
        w.key("timing").object(|w| {
            w.key("workers").u64(r.workers as u64);
            w.key("wall_secs").f64(r.wall_time.as_secs_f64());
            w.key("executions_per_second").f64(r.throughput());
        });
    });
    w.finish()
}

// ---------------------------------------------------------------------
// c11coverage/v1
// ---------------------------------------------------------------------

/// The `c11coverage/v1` object (see `docs/COVERAGE.md`): the run's
/// distinct rf edges, mo adjacencies, race classes and interleaving
/// signatures with per-behavior provenance, plus a per-epoch growth
/// curve (`new_behaviors` = behaviors first exhibited in that epoch,
/// and the cumulative distinct counts after it), which is empty for a
/// plain campaign.
///
/// Meaningful only when the run collected coverage
/// ([`c11tester::set_coverage`] / `c11campaign --coverage-out`);
/// otherwise every array is empty. Everything inside is then determined
/// by `(config, budget)` alone, so — exactly like the canonical form —
/// the emitted JSON is byte-identical across worker counts and across
/// in-process vs fork-isolated backends.
pub fn coverage(r: &CampaignReport, epochs: Option<&EpochTrace>) -> String {
    let mut w = JsonWriter::with_capacity(2048);
    w.object(|w| {
        write_header(w, "c11coverage/v1", r);
        write_coverage(w, &r.aggregate.coverage);
        w.key("epochs").array(|w| {
            let mut cumulative = CoverageMap::new();
            for rec in epochs.map_or(&[][..], |t| &t.records) {
                let new_behaviors = rec.aggregate.coverage.count_new(&cumulative);
                cumulative.merge(&rec.aggregate.coverage);
                w.object(|w| {
                    w.key("epoch").u64(rec.epoch);
                    w.key("start_index").u64(rec.start_index);
                    w.key("mix").str(&rec.mix);
                    w.key("executions").u64(rec.aggregate.executions);
                    w.key("new_behaviors").u64(new_behaviors);
                    write_distinct(w.key("cumulative"), &cumulative);
                });
            }
        });
    });
    w.finish()
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
        let full = super::full(&report, None);
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
        use c11tester::StrategyMix;
        let mix = StrategyMix::parse("random:1,pct2:1").expect("valid mix");
        let config = Config::new().with_seed(9).with_mix(mix);
        let racy = || c11tester_workloads::ds::rwlock_buggy::run_buggy();
        let mut trace = crate::Campaign::new(config)
            .with_workers(2)
            .with_epoch_len(10)
            .trace(&CampaignBudget::executions(20), racy);
        // Dress the trace up as a reweighted run with a crash.
        trace.adaptive_policy = "ucb1".to_string();
        trace.records[1].mix = "random:1,pct2:3".to_string();
        trace.report.crashes.push(crate::CrashRecord {
            index: 13,
            strategy: "pct2".to_string(),
            kind: crate::CrashKind::Signal(11),
        });
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
