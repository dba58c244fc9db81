//! Byte fixtures for every JSON document the workspace writes, beyond
//! the two `c11campaign/v4` goldens: `c11coverage/v1` (plain and
//! adaptive), `c11forensics/v1` with its DOT graph, the `c11trace/v1`
//! JSONL line, `c11metrics/v1` with its Chrome export, `c11fuzz/v1`,
//! and the canonical and full campaign forms of hand-built reports.
//!
//! Two kinds of input feed them:
//!
//! * real runs of the `c11campaign` binary, so the fixtures pin the CLI
//!   plumbing as well as the emitters;
//! * hand-built values whose strings hold every escape class the writer
//!   distinguishes ([`NASTY`]) wherever a document carries free text.
//!
//! The fork-server batch frames are checked as round-trip *values*
//! instead of bytes: a frame is an internal encoding, so what must hold
//! is that decoding gives back what was encoded.
//!
//! Regenerate with:
//!
//! ```text
//! cargo test --test json_fixtures -- --ignored regenerate
//! ```

use c11tester::{
    AccessKind, Config, DedupHistory, ExecCoverage, ExecStats, ExecutionReport, Failure, Model,
    RaceKind, RaceReport, TestReport, ThreadId, TraceEvent, TraceKey, TraceKind,
};
use c11tester_campaign::forensics::{self, Witness};
use c11tester_campaign::json;
use c11tester_campaign::{
    CampaignBudget, CampaignReport, CrashKind, CrashRecord, EpochRecord, EpochTrace, StopReason,
};
use c11tester_core::ObjId;
use c11tester_genprog::{MismatchReport, Violation};
use c11tester_isolation::protocol::{batch_payload, exec_payload, parse_frame, Frame};
use c11tester_isolation::WorkerSpec;
use c11tester_telemetry::{
    CampaignMetrics, EpochMetric, ForkHealth, GraphMetrics, MetricsMeta, Phase, WorkerMetrics,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_c11campaign");

/// Every escape class in one string: quote, backslash, newline, tab,
/// carriage return, another control character, and non-ASCII text.
const NASTY: &str = "q\"b\\n\nt\tr\rc\u{1}é→";

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("json_fixtures");
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

/// Runs `c11campaign` and returns its stdout.
fn cli(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("c11campaign runs");
    assert!(
        out.status.success(),
        "c11campaign {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn cli_coverage(name: &str, args: &[&str]) -> String {
    let path = scratch(name);
    let mut args = args.to_vec();
    args.extend([
        "--canonical",
        "--coverage-out",
        path.to_str().expect("utf-8"),
    ]);
    cli(&args);
    read(&path)
}

/// `--coverage-out` of a plain mixed campaign.
fn coverage_plain() -> String {
    cli_coverage(
        "coverage_plain.json",
        &[
            "--target",
            "rwlock-buggy",
            "--executions",
            "48",
            "--seed",
            "7",
            "--mix",
            "random:2,pct2:1",
            "--workers",
            "2",
        ],
    )
}

/// `--coverage-out` of a `coverage-ucb` adaptive campaign (per-epoch
/// growth curve).
fn coverage_ucb() -> String {
    cli_coverage(
        "coverage_ucb.json",
        &[
            "--target",
            "rwlock-buggy",
            "--adaptive",
            "coverage-ucb",
            "--epoch",
            "16",
            "--executions",
            "48",
            "--seed",
            "7",
            "--workers",
            "2",
        ],
    )
}

/// The first `--forensics-dir` bundle of a racy campaign: JSON and DOT.
fn forensics_cli() -> (String, String) {
    let dir = scratch("forensics_cli");
    let _ = std::fs::remove_dir_all(&dir);
    cli(&[
        "--target",
        "rwlock-buggy",
        "--executions",
        "48",
        "--seed",
        "7",
        "--canonical",
        "--forensics-dir",
        dir.to_str().expect("utf-8"),
    ]);
    (
        read(&dir.join("race-000.json")),
        read(&dir.join("race-000.dot")),
    )
}

fn race(label: &str, kind: RaceKind, current: usize) -> RaceReport {
    RaceReport {
        label: label.to_string(),
        obj: ObjId(3),
        offset: 2,
        kind,
        current_tid: ThreadId::from_index(current),
        current_kind: AccessKind::Volatile,
        prior_tid: ThreadId::from_index(0),
        prior_atomic: true,
    }
}

fn execution(index: u64, strategy: &str, failure: Option<Failure>) -> ExecutionReport {
    let mut coverage = ExecCoverage::collecting();
    coverage.record_rf(3, 0, index % 3);
    coverage.record_mo(3, 1, 2);
    coverage.record_switch(index, 1);
    let races = if index.is_multiple_of(2) {
        vec![race(
            NASTY,
            RaceKind::WriteAfterRead,
            1 + index as usize % 2,
        )]
    } else {
        vec![race("plain", RaceKind::WriteAfterWrite, 2)]
    };
    ExecutionReport {
        execution_index: index,
        strategy: strategy.into(),
        races,
        failure,
        stats: ExecStats {
            atomic_loads: index + 1,
            atomic_stores: 2,
            rmws: 3,
            fences: 4,
            sync_ops: 5,
            normal_accesses: 6,
            volatile_accesses: 7,
            candidates_rejected: 8,
            pruned_stores: 9,
            pruned_loads: 10,
            pruned_fences: 11,
            prune_passes: 12,
            mograph: c11tester_core::MoGraphStats {
                edges_added: 13,
                edges_redundant: 14,
                merges: 15,
                rmw_edges: 16,
            },
            alloc: c11tester_core::AllocStats {
                fresh_executions: 1,
                recycled_executions: 0,
                clock_spills: index,
            },
            ..ExecStats::default()
        },
        elided_volatile_races: index % 2,
        coverage,
    }
}

/// A hand-built aggregate with races, every failure kind and free text
/// in every string the documents carry.
fn aggregate(first: u64, n: u64) -> TestReport {
    let mut aggregate = TestReport::default();
    for index in first..first + n {
        let failure = match index % 5 {
            0 => Some(Failure::Panic(NASTY.to_string())),
            1 => Some(Failure::Deadlock),
            2 => Some(Failure::TooManyEvents(index)),
            3 => Some(Failure::Infra(NASTY.to_string())),
            _ => None,
        };
        let strategy = if index.is_multiple_of(3) {
            NASTY
        } else {
            "pct2"
        };
        aggregate.absorb(&execution(index, strategy, failure));
    }
    aggregate
}

fn crash(index: u64, kind: CrashKind) -> CrashRecord {
    CrashRecord {
        index,
        strategy: NASTY.to_string(),
        kind,
    }
}

fn campaign_report() -> CampaignReport {
    CampaignReport {
        base_seed: u64::MAX,
        policy: NASTY,
        strategy: NASTY.to_string(),
        budget: CampaignBudget::executions(12)
            .with_deadline(Duration::from_millis(1500))
            .with_stop_on_first_bug(true),
        stop_reason: StopReason::Deadline,
        aggregate: aggregate(0, 10),
        crashes: vec![
            crash(10, CrashKind::Signal(11)),
            crash(11, CrashKind::Timeout),
        ],
        workers: 3,
        wall_time: Duration::from_micros(2_500_001),
        metrics: CampaignMetrics::default(),
    }
}

/// A hand-built adaptive run: two epochs, one crash in the first.
fn epoch_trace() -> EpochTrace {
    let records = vec![
        EpochRecord {
            epoch: 0,
            start_index: 0,
            mix: NASTY.to_string(),
            aggregate: aggregate(0, 6),
        },
        EpochRecord {
            epoch: 1,
            start_index: 6,
            mix: "random:1,pct2:3".to_string(),
            aggregate: aggregate(6, 5),
        },
    ];
    let mut aggregate = TestReport::default();
    for r in &records {
        aggregate.merge(&r.aggregate);
    }
    EpochTrace {
        report: CampaignReport {
            base_seed: 7,
            policy: NASTY,
            strategy: NASTY.to_string(),
            budget: CampaignBudget::executions(12),
            stop_reason: StopReason::FirstBug,
            aggregate,
            crashes: vec![crash(5, CrashKind::Exit(2))],
            workers: 2,
            wall_time: Duration::from_nanos(333_333_333),
            metrics: CampaignMetrics::default(),
        },
        adaptive_policy: NASTY.to_string(),
        epoch_len: 6,
        records,
    }
}

fn trace_event(kind: TraceKind, thread: u64, seq: u64, obj: u64, rf: Option<u64>) -> TraceEvent {
    TraceEvent {
        kind,
        thread,
        seq,
        obj,
        order: "Acquire",
        access: "atomic",
        value: seq * 7,
        rf,
        old: rf.map(|r| r + 1),
    }
}

/// A hand-built forensics bundle whose race label needs escaping.
fn forensics_nasty() -> (String, String) {
    let dir = scratch("forensics_nasty");
    let _ = std::fs::remove_dir_all(&dir);
    let mut races = DedupHistory::new();
    races.record(4, &race(NASTY, RaceKind::ReadAfterWrite, 1));
    races.record(9, &race(NASTY, RaceKind::ReadAfterWrite, 2));
    forensics::write_bundles(&dir, u64::MAX, &races, |index| {
        let mut report = execution(index, NASTY, None);
        report.races = vec![race(NASTY, RaceKind::ReadAfterWrite, 1)];
        Ok(Witness {
            epoch: 3,
            report,
            events: vec![
                trace_event(TraceKind::Store, 1, 1, 3, None),
                trace_event(TraceKind::Fence, 2, 2, c11tester::FENCE_OBJ, None),
                trace_event(TraceKind::Load, 2, 3, 3, Some(1)),
                trace_event(TraceKind::Rmw, 1, 4, 3, Some(1)),
            ],
        })
    })
    .expect("bundles written");
    (
        read(&dir.join("race-000.json")),
        read(&dir.join("race-000.dot")),
    )
}

/// The `c11trace/v1` JSONL of one `(seed, epoch, index)` of a real
/// execution, then one hand-built event of every kind.
fn trace_jsonl() -> String {
    let sink = c11tester::CaptureSink::new();
    let mut model = Model::new(Config::new().with_seed(7)).with_trace_sink(Box::new(sink.clone()));
    model.set_trace_epoch(2);
    model.run_at(5, c11tester_workloads::ds::rwlock_buggy::run_buggy);
    let (key, events) = sink
        .take()
        .into_iter()
        .next()
        .expect("one traced execution");
    let mut out = String::new();
    for e in &events {
        out.push_str(&c11tester_telemetry::event_jsonl(key, e));
        out.push('\n');
    }
    let key = TraceKey {
        seed: u64::MAX,
        epoch: 1,
        index: 2,
    };
    for e in [
        trace_event(TraceKind::Store, 0, 1, 0, None),
        trace_event(TraceKind::Load, 1, 2, 0, Some(1)),
        trace_event(TraceKind::Rmw, 1, 3, 0, Some(2)),
        trace_event(TraceKind::Fence, 2, 4, c11tester::FENCE_OBJ, None),
    ] {
        out.push_str(&c11tester_telemetry::event_jsonl(key, &e));
        out.push('\n');
    }
    out
}

/// A hand-built metrics aggregate: workers and epochs out of order,
/// every phase, graph and fork-health counter set.
fn metrics() -> (CampaignMetrics, MetricsMeta) {
    let worker = |worker, executions, busy_nanos| WorkerMetrics {
        worker,
        executions,
        busy_nanos,
        handover: NASTY,
    };
    let epoch = |epoch, start_index, wall_nanos| EpochMetric {
        epoch,
        start_index,
        executions: 6,
        wall_nanos,
        mix: NASTY.to_string(),
    };
    let mut m = CampaignMetrics {
        graph: GraphMetrics {
            order_reorders: 1,
            reorder_nodes: 2,
            reach_fast_negative: 3,
            reach_cv_checks: 4,
            compactions: 5,
            compacted_nodes: 6,
            peak_live_nodes: 7,
        },
        workers: vec![
            worker(2, 3, 999_999),
            worker(0, 7, 2_000_001),
            worker(1, 2, 1),
        ],
        fork: ForkHealth {
            spawns: 3,
            respawns: 1,
            timeout_kills: 1,
            rerun_executions: 4,
            frames: 7,
            frame_rtt_nanos_total: 1_000_000,
            frame_rtt_nanos_max: 700_001,
        },
        epochs: vec![epoch(1, 6, 1_500_999), epoch(0, 0, 1_000_000)],
        executions: 12,
        wall_nanos: 3_000_000_007,
        ..CampaignMetrics::default()
    };
    for (i, phase) in Phase::ALL.iter().enumerate() {
        m.phase.record(*phase, 1_000_003 * (i as u64 + 1));
    }
    m.phase.record(Phase::Scheduling, 17);
    let meta = MetricsMeta {
        target: NASTY.to_string(),
        seed: u64::MAX,
        policy: NASTY.to_string(),
        workers: 3,
        isolated: true,
    };
    (m, meta)
}

/// The degenerate aggregate: no wall time, one worker, no epochs.
fn metrics_zero() -> (CampaignMetrics, MetricsMeta) {
    let m = CampaignMetrics {
        workers: vec![WorkerMetrics {
            worker: 0,
            executions: 5,
            busy_nanos: 0,
            handover: "futex park/unpark",
        }],
        executions: 5,
        ..CampaignMetrics::default()
    };
    (m, MetricsMeta::default())
}

fn fuzz_reports() -> String {
    let oracle = MismatchReport {
        pseed: u64::MAX,
        seed: 7,
        epoch: 1,
        index: 3,
        scope: "oracle",
        violations: vec![
            Violation {
                rule: NASTY,
                detail: NASTY.to_string(),
            },
            Violation {
                rule: "coherence",
                detail: "cycle".to_string(),
            },
        ],
        outcome: None,
        program: vec![NASTY.to_string(), "T0: store x 1".to_string()],
        shrunk: Vec::new(),
    };
    let enumerator = MismatchReport {
        scope: "enumerator",
        violations: Vec::new(),
        outcome: Some(vec![vec![1, 0], vec![], vec![u64::MAX]]),
        shrunk: vec!["T1:".to_string()],
        ..oracle.clone()
    };
    format!("{}\n{}\n", oracle.to_json(), enumerator.to_json())
}

/// Every fixture: `(file name, bytes)`.
fn captures() -> Vec<(&'static str, String)> {
    let (forensics_json, forensics_dot) = forensics_cli();
    let (nasty_json, nasty_dot) = forensics_nasty();
    let (m, meta) = metrics();
    let (zero, zero_meta) = metrics_zero();
    let report = campaign_report();
    let adaptive = epoch_trace();
    vec![
        ("coverage_plain.json", coverage_plain()),
        ("coverage_ucb.json", coverage_ucb()),
        ("coverage_nasty.json", json::coverage(&report, None)),
        (
            "coverage_trace_nasty.json",
            json::coverage(&adaptive.report, Some(&adaptive)),
        ),
        ("campaign_nasty.json", json::canonical(&report, None, true)),
        ("campaign_nasty_full.json", json::full(&report, None)),
        (
            "trace_nasty.json",
            json::canonical(&adaptive.report, Some(&adaptive), true),
        ),
        (
            "trace_nasty_full.json",
            json::full(&adaptive.report, Some(&adaptive)),
        ),
        ("forensics_race-000.json", forensics_json),
        ("forensics_race-000.dot", forensics_dot),
        ("forensics_nasty.json", nasty_json),
        ("forensics_nasty.dot", nasty_dot),
        ("trace.jsonl", trace_jsonl()),
        ("metrics.json", m.to_json(&meta)),
        (
            "metrics_chrome.json",
            c11tester_telemetry::chrome_trace(&m, &meta),
        ),
        ("metrics_zero.json", zero.to_json(&zero_meta)),
        (
            "metrics_zero_chrome.json",
            c11tester_telemetry::chrome_trace(&zero, &zero_meta),
        ),
        ("fuzz_reports.json", fuzz_reports()),
    ]
}

#[test]
fn every_document_matches_its_byte_fixture() {
    for (name, actual) in captures() {
        let path = golden(name);
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} (regenerate with the ignored `regenerate` test)",
                path.display()
            )
        });
        assert!(
            actual == expected,
            "{name} diverged from its fixture\n--- fixture\n{expected}\n--- actual\n{actual}"
        );
    }
}

fn decode_batch(payload: &str) -> TestReport {
    match parse_frame(payload).expect("batch frame parses") {
        Frame::Batch(decoded) => *decoded,
        other => panic!("batch payload decoded as {other:?}"),
    }
}

/// Stats equality ignores the diagnostic blocks; the wire must not drop
/// them.
fn assert_same_fold(decoded: &TestReport, sent: &TestReport) {
    assert_eq!(decoded, sent);
    assert_eq!(decoded.total_stats.alloc, sent.total_stats.alloc);
    assert_eq!(
        decoded.total_stats.mograph_perf,
        sent.total_stats.mograph_perf
    );
    assert_eq!(decoded.total_stats.phase, sent.total_stats.phase);
}

#[test]
fn frames_round_trip_hand_built_and_real_reports_as_values() {
    // Hand-built: every failure kind, free text everywhere, two
    // strategies, diagnostic stats, coverage with full-range keys.
    let mut fold = TestReport::default();
    for index in 0..10 {
        let failure = match index % 5 {
            0 => Some(Failure::Panic(NASTY.to_string())),
            1 => Some(Failure::Deadlock),
            2 => Some(Failure::TooManyEvents(u64::MAX - index)),
            3 => Some(Failure::Infra(NASTY.to_string())),
            _ => None,
        };
        let strategy = if index % 3 == 0 { NASTY } else { "pct2" };
        fold.absorb(&execution(index, strategy, failure));
    }
    fold.total_stats.phase.record(Phase::ReadFrom, 77);
    fold.total_stats.mograph_perf.peak_live_nodes = 41;
    let mut sig = ExecCoverage::collecting();
    sig.record_rf(u64::MAX, 0, 1);
    sig.record_switch(u64::MAX, u64::MAX - 1);
    fold.coverage
        .record(99, &sig, &[race(NASTY, RaceKind::WriteAfterWrite, 1)]);
    assert_same_fold(&decode_batch(&batch_payload(&fold)), &fold);
    // The one-execution form kept for the wire kernels.
    let one = execution(3, NASTY, Some(Failure::TooManyEvents(u64::MAX)));
    let mut direct = TestReport::default();
    direct.absorb(&one);
    assert_same_fold(&decode_batch(&exec_payload(&one)), &direct);

    // Real: a worker's batch as the fork server decodes it, against the
    // same executions run here.
    let spec = WorkerSpec {
        target: "seqlock-buggy".to_string(),
        seed: 0xC11,
        policy: c11tester::Policy::C11Tester,
        mix: Some("random:1,pct2:1".to_string()),
        stop_on_first_bug: false,
        profile_phases: false,
        collect_coverage: true,
        memory_limit: false,
    };
    let mut buf = Vec::new();
    spec.serve(&b"16 24 -\n"[..], &mut buf).expect("batch runs");
    let mut model = Model::new(spec.config().expect("config"));
    let mut direct = TestReport::default();
    for index in 16..16 + 24 {
        direct.absorb(&model.run_at(index, c11tester_workloads::ds::seqlock::run_buggy));
    }
    c11tester::set_coverage(false);
    let mut reader = std::io::BufReader::new(&buf[..]);
    let (mut ticks, mut streamed) = (0, None);
    while let Some(payload) = c11tester_isolation::protocol::read_frame(&mut reader).expect("frame")
    {
        match parse_frame(&payload).expect("frame parses") {
            Frame::Tick => ticks += 1,
            Frame::Batch(report) => streamed = Some(*report),
            Frame::Done(reason) => assert_eq!(reason, StopReason::BudgetExhausted),
        }
    }
    assert_eq!(ticks, 24);
    assert_same_fold(&streamed.expect("batch frame"), &direct);
    assert!(direct.executions_with_bug > 0, "seqlock-buggy must fail");
    assert!(direct.coverage.distinct_total() > 0);
}

#[test]
fn fixtures_cover_every_escape_class() {
    // The hand-built inputs must exercise the whole escape table, or a
    // writer that mishandled one class could still match its fixture.
    for name in [
        "campaign_nasty.json",
        "metrics.json",
        "forensics_nasty.json",
    ] {
        let doc = read(&golden(name));
        for escaped in ["\\\"", "\\\\", "\\n", "\\t", "\\r", "\\u0001", "é→"] {
            assert!(doc.contains(escaped), "no `{escaped}` in {name}");
        }
    }
}

/// Not a test: rewrites every fixture from the current output.
#[test]
#[ignore = "fixture regeneration helper"]
fn regenerate() {
    for (name, bytes) in captures() {
        std::fs::write(golden(name), bytes).expect("write fixture");
    }
}
