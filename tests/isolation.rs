//! End-to-end fork-isolation tests, driven through the real
//! `c11campaign` binary (the fork server re-enters it via the hidden
//! `--worker` mode, so these tests exercise the actual production
//! re-entry path, not a stub).
//!
//! The contracts pinned here (see `ARCHITECTURE.md`):
//!
//! * **healthy-target byte-identity** — fork-isolated canonical JSON
//!   equals in-process canonical JSON, for 1/4/8 workers and odd batch
//!   sizes;
//! * **crash determinism** — a crashing target completes the full
//!   budget with exit 0, and its crash records (signal, strategy,
//!   index) are byte-identical across worker counts, while the same
//!   invocation without `--isolate` dies;
//! * **timeout triage** — `--exec-timeout` kills a wedged child and
//!   records a timeout crash instead of hanging the campaign;
//! * **fork accounting** — one child per pool worker on a healthy
//!   target, one more per death on a crashing one, as exact counts.

use std::path::Path;
use std::process::{Command, Output};
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_c11campaign");

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("c11campaign binary runs")
}

fn canonical(args: &[&str]) -> String {
    let out = run(args);
    assert!(
        out.status.success(),
        "c11campaign {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("canonical JSON is UTF-8")
}

/// A top-level count of a canonical report.
fn count(json: &str, field: &str) -> u64 {
    let doc = c11tester_telemetry::json::JsonValue::parse(json).expect("canonical JSON parses");
    doc.u64_field(field).expect("a count field")
}

fn crash_count(json: &str) -> u64 {
    count(json, "crashes")
}

#[test]
fn healthy_target_fork_server_matches_in_process_byte_for_byte() {
    let base = [
        "--target",
        "rwlock-buggy",
        "--executions",
        "96",
        "--seed",
        "7",
        "--mix",
        "random:2,pct2:1",
        "--canonical",
    ];
    let in_process = canonical(&base);
    assert!(in_process.contains("\"schema\":\"c11campaign/v4\""));
    assert!(in_process.contains("\"crashes\":0"));
    for workers in ["1", "4", "8"] {
        let mut args = base.to_vec();
        args.extend(["--isolate", "--workers", workers]);
        assert_eq!(
            canonical(&args),
            in_process,
            "fork-isolated canonical JSON diverged at {workers} workers"
        );
    }
    // Batch size must be invisible too (batches repartition the same
    // global index stream; 96 executions are two default batches).
    let mut args = base.to_vec();
    args.extend(["--isolate", "--workers", "4", "--batch", "7"]);
    assert_eq!(
        canonical(&args),
        in_process,
        "batch size leaked into the report"
    );
}

/// The graph and read-path fixtures of
/// crates/campaign/tests/determinism.rs (each captured before the
/// rework it guards), through fork-isolated children.
#[test]
fn read_path_fixtures_reproduce_under_isolation() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/campaign/tests/golden");
    for (fixture, args) in [
        (
            "mpmc_queue_graph.json",
            &["--target", "mpmc-queue", "--executions", "200"][..],
        ),
        (
            "mpmc_queue_large_graph.json",
            &["--target", "mpmc-queue-large", "--executions", "200"][..],
        ),
        (
            "silo_large_graph.json",
            &["--target", "silo-large", "--executions", "50"][..],
        ),
        (
            "gdax_graph.json",
            &["--target", "gdax", "--executions", "100"][..],
        ),
        (
            "mpmc_queue_10x_memlimit.json",
            &[
                "--target",
                "mpmc-queue-10x",
                "--memory-limit",
                "--executions",
                "60",
            ][..],
        ),
    ] {
        let expected =
            std::fs::read_to_string(format!("{golden}/{fixture}")).expect("fixture present");
        let mut args = args.to_vec();
        args.extend([
            "--seed",
            "3089",
            "--workers",
            "4",
            "--isolate",
            "--canonical",
        ]);
        assert_eq!(canonical(&args), expected, "{fixture} under --isolate");
    }
}

/// Runs `target` fork-isolated at each worker count: the campaign
/// must exit 0 with SIGSEGV crash records, completed executions and
/// crashes must tile the budget, and the canonical report must not
/// depend on the worker count. Returns the number of crashes.
fn assert_crashes_are_triaged_deterministically(
    target: &str,
    executions: u64,
    worker_counts: &[&str],
) -> u64 {
    let budget = executions.to_string();
    let base = [
        "--target",
        target,
        "--executions",
        &budget,
        "--seed",
        "7",
        "--isolate",
        "--canonical",
    ];
    let mut reference: Option<String> = None;
    let mut crashes = 0;
    for workers in worker_counts {
        let mut args = base.to_vec();
        args.extend(["--workers", workers]);
        let json = canonical(&args);
        crashes = crash_count(&json);
        assert!(crashes > 0, "crashing target must record crashes");
        assert!(
            json.contains("\"kind\":\"signal\",\"code\":11"),
            "SIGSEGV triaged"
        );
        // Completed executions + crashes tile the whole budget.
        assert_eq!(count(&json, "executions") + crashes, executions);
        match &reference {
            None => reference = Some(json),
            Some(expected) => assert_eq!(
                &json, expected,
                "crash records diverged at {workers} workers"
            ),
        }
    }
    crashes
}

#[test]
fn crashing_target_completes_the_budget_and_records_deterministic_crashes() {
    assert_crashes_are_triaged_deterministically("null-deref-buggy", 200, &["1", "4", "8"]);
}

/// Overflowing a model thread's stack faults on the fiber stack's
/// guard page: a SIGSEGV in every execution, not heap corruption.
/// (Off x86_64 model threads are OS threads, whose overflow Rust's
/// runtime turns into SIGABRT instead.)
#[cfg(target_arch = "x86_64")]
#[test]
fn fiber_stack_overflow_is_a_sigsegv_crash_record() {
    let crashes = assert_crashes_are_triaged_deterministically("stack-overflow", 12, &["1", "4"]);
    assert_eq!(crashes, 12, "every execution overflows");
}

#[test]
fn the_same_invocation_without_isolate_dies() {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        let out = run(&[
            "--target",
            "null-deref-buggy",
            "--executions",
            "200",
            "--seed",
            "7",
        ]);
        assert!(
            !out.status.success(),
            "in-process campaign should not survive a segfaulting target"
        );
        assert_eq!(
            out.status.signal(),
            Some(11),
            "the campaign process itself takes the SIGSEGV"
        );
    }
}

#[test]
fn exec_timeout_kills_wedged_children_and_records_timeouts() {
    let json = canonical(&[
        "--target",
        "spin-forever",
        "--executions",
        "2",
        "--seed",
        "7",
        "--isolate",
        "--exec-timeout",
        "0.5",
        "--workers",
        "2",
        "--canonical",
    ]);
    assert_eq!(crash_count(&json), 2, "every spin execution times out");
    assert_eq!(
        json.matches("\"kind\":\"timeout\",\"code\":null").count(),
        2
    );
    // No execution completed, but the campaign itself finished.
    assert!(json.contains("\"executions\":0"));
    assert!(json.contains("\"stop_reason\":\"budget-exhausted\""));
}

#[test]
fn campaign_deadline_kills_a_wedged_child_without_exec_timeout() {
    // A spinning child must not hang the campaign past its deadline
    // even when no per-execution timeout is configured — and running
    // out of campaign time is a deadline stop, not a crash.
    let start = std::time::Instant::now();
    let json = canonical(&[
        "--target",
        "spin-forever",
        "--executions",
        "100",
        "--seed",
        "7",
        "--isolate",
        "--deadline-secs",
        "1",
        "--workers",
        "2",
        "--canonical",
    ]);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "deadline was not enforced while waiting on the child"
    );
    assert!(json.contains("\"stop_reason\":\"deadline\""));
    assert_eq!(crash_count(&json), 0, "a deadline stop is not a crash");
    assert!(json.contains("\"executions\":0"));
}

#[test]
fn adaptive_isolated_campaigns_are_worker_count_independent() {
    let base = [
        "--target",
        "null-deref-buggy",
        "--executions",
        "120",
        "--seed",
        "7",
        "--adaptive",
        "ucb1",
        "--epoch",
        "30",
        "--isolate",
        "--canonical",
    ];
    let mut one = base.to_vec();
    one.extend(["--workers", "1"]);
    let mut four = base.to_vec();
    four.extend(["--workers", "4"]);
    let trace = canonical(&one);
    assert_eq!(trace, canonical(&four));
    assert!(trace.contains("\"adaptive\":{\"policy\":\"ucb1\""));
    assert!(
        crash_count(&trace) > 0,
        "adaptive trace carries the crashes"
    );
    // Per-epoch crash columns are present.
    assert!(trace.contains("\"epoch\":0"));
    assert!(trace.contains("\"crash_records\":[{\"execution\":"));
}

/// An adaptive run's crashes have one source of truth, the report's
/// sorted `crashes`: each epoch's are the ones in its index range, run
/// under the strategy its mix assigned, and the document's per-epoch
/// `crashes` scalars sum to the top-level count.
#[test]
fn adaptive_isolated_crashes_tile_the_epochs_in_index_order() {
    use c11tester::{Config, StrategyMix};
    use c11tester_campaign::{targets, Campaign, CampaignBudget};
    use c11tester_isolation::ForkServer;
    use c11tester_telemetry::json::JsonValue;

    let target = targets::find("null-deref-buggy").expect("target exists");
    let fork = ForkServer::new(Path::new(BIN)).with_batch_size(16);
    let mix = StrategyMix::parse("random:1,pct2:1,pct3:1,burst:1").expect("valid mix");
    let campaign = Campaign::new(Config::new().with_seed(7).with_mix(mix))
        .with_workers(2)
        .with_epoch_len(30)
        .with_policy("ucb1")
        .expect("valid policy");
    let trace = campaign
        .trace_target(&fork, &target, &CampaignBudget::executions(120))
        .expect("fork server runs");
    let crashes = &trace.report.crashes;
    assert!(!crashes.is_empty(), "null-deref-buggy crashes");
    let per_epoch: Vec<_> = trace
        .records
        .iter()
        .flat_map(|r| trace.crashes_in(r).iter().cloned())
        .collect();
    assert_eq!(&per_epoch, crashes, "epochs' crashes, in index order");
    for record in &trace.records {
        for crash in trace.crashes_in(record) {
            let (config, epoch) = trace
                .config_at(campaign.config(), crash.index)
                .expect("a crash lies in an epoch");
            assert_eq!(epoch, record.epoch);
            assert_eq!(crash.strategy, config.strategy_for(crash.index).spec());
        }
    }

    let doc = JsonValue::parse(&trace.canonical_json()).expect("canonical JSON parses");
    let epochs = doc.array_field("epochs").expect("epoch rows");
    let epoch_crashes: u64 = epochs
        .iter()
        .map(|e| e.u64_field("crashes").expect("crashes"))
        .sum();
    assert_eq!(epoch_crashes, doc.u64_field("crashes").expect("crashes"));
    assert_eq!(epoch_crashes, crashes.len() as u64);
    let records: Vec<u64> = doc
        .array_field("crash_records")
        .expect("crash records")
        .iter()
        .map(|c| c.u64_field("execution").expect("execution"))
        .collect();
    let indices: Vec<u64> = crashes.iter().map(|c| c.index).collect();
    assert_eq!(records, indices);
}

/// The children rebuild their config from the worker flags; what those
/// flags carry must reach them, and a config they cannot carry is
/// refused before anything spawns.
#[test]
fn the_fork_server_carries_a_single_strategy_and_refuses_what_it_cannot_carry() {
    use c11tester::{Config, Strategy};
    use c11tester_campaign::{targets, Campaign, CampaignBudget};
    use c11tester_isolation::ForkServer;

    let target = targets::find("rwlock-buggy").expect("target exists");
    let budget = CampaignBudget::executions(48);
    let pct2 = Config::new()
        .with_seed(7)
        .with_strategy(Strategy::parse_spec("pct2").expect("spec"));
    let in_process = Campaign::new(pct2.clone())
        .with_workers(2)
        .run(&budget, || target.run());
    let isolated = Campaign::new(pct2.clone())
        .with_workers(2)
        .run_target(&ForkServer::new(Path::new(BIN)), &target, &budget)
        .expect("fork server runs");
    assert_eq!(isolated.canonical_json(), in_process.canonical_json());
    assert!(in_process
        .canonical_json()
        .contains("\"per_strategy\":[{\"strategy\":\"pct2\""));

    // A missing worker binary proves the refusal comes before a spawn.
    let err = Campaign::new(pct2.with_max_events(1_000))
        .with_workers(2)
        .run_target(
            &ForkServer::new("/nonexistent/worker-binary"),
            &target,
            &budget,
        )
        .unwrap_err();
    assert!(err.contains("max_events"), "{err}");
}

#[test]
fn library_fork_server_reports_crashes_through_run_target() {
    use c11tester::Config;
    use c11tester_campaign::{targets, Campaign, CampaignBudget, CrashKind};
    use c11tester_isolation::ForkServer;

    let target = targets::find("null-deref-buggy").expect("target exists");
    let fork = ForkServer::new(Path::new(BIN)).with_batch_size(16);
    // Handover is not on the worker flag surface: the parent's choice
    // does not reach the children, and the worker rows must say so.
    let parent = Config::new()
        .with_seed(7)
        .with_handover(c11tester::HandoverKind::Park);
    let report = Campaign::new(parent)
        .with_workers(4)
        .run_target(&fork, &target, &CampaignBudget::executions(96))
        .expect("fork server runs");
    let children_run = Config::new().handover.effective().name();
    assert!(report
        .metrics
        .workers
        .iter()
        .all(|w| w.handover == children_run));
    assert!(!report.crashes.is_empty());
    assert!(report
        .crashes
        .iter()
        .all(|c| c.kind == CrashKind::Signal(11)));
    assert_eq!(
        report.aggregate.executions + report.crashes.len() as u64,
        96,
        "completed executions + crashes tile the budget"
    );
    // Crash indices are sorted and unique.
    let indices: Vec<u64> = report.crashes.iter().map(|c| c.index).collect();
    let mut sorted = indices.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(indices, sorted);
}

#[test]
fn library_exec_timeout_defeats_a_spinning_target() {
    use c11tester::Config;
    use c11tester_campaign::{targets, Campaign, CampaignBudget, CrashKind};
    use c11tester_isolation::ForkServer;

    let target = targets::find("spin-forever").expect("target exists");
    let fork = ForkServer::new(Path::new(BIN)).with_exec_timeout(Some(Duration::from_millis(500)));
    let report = Campaign::new(Config::new().with_seed(1))
        .with_workers(2)
        .run_target(&fork, &target, &CampaignBudget::executions(2))
        .expect("fork server runs");
    assert_eq!(report.aggregate.executions, 0);
    assert_eq!(report.crashes.len(), 2);
    assert!(report.crashes.iter().all(|c| c.kind == CrashKind::Timeout));
}

/// A library campaign through the fork server on the real binary.
fn fork_campaign(
    target: &str,
    executions: u64,
    workers: usize,
    batch: u64,
) -> c11tester_campaign::CampaignReport {
    use c11tester::Config;
    use c11tester_campaign::{targets, Campaign, CampaignBudget};
    use c11tester_isolation::ForkServer;

    let target = targets::find(target).expect("target exists");
    let fork = ForkServer::new(Path::new(BIN)).with_batch_size(batch);
    Campaign::new(Config::new().with_seed(7))
        .with_workers(workers)
        .run_target(&fork, &target, &CampaignBudget::executions(executions))
        .expect("fork server runs")
}

#[test]
fn a_healthy_range_spawns_exactly_one_child_per_worker() {
    // 48 batches over 4 workers: every pool thread gets work, and each
    // serves all of its batches from one child.
    let report = fork_campaign("rwlock-buggy", 384, 4, 8);
    let fork = report.metrics.fork;
    assert_eq!(report.aggregate.executions, 384);
    assert_eq!(fork.spawns, 4, "{fork:?}");
    assert_eq!(fork.respawns, 0, "{fork:?}");
    assert_eq!(fork.rerun_executions, 0, "{fork:?}");
    // One tick per execution plus a batch and a done frame per batch.
    assert_eq!(fork.frames, 384 + 2 * 48, "{fork:?}");
}

#[test]
fn a_crashing_range_respawns_once_per_death_and_reruns_prefixes() {
    let report = fork_campaign("null-deref-buggy", 200, 4, 16);
    let fork = report.metrics.fork;
    let crashes = report.crashes.len() as u64;
    assert!(crashes > 0);
    assert_eq!(fork.timeout_kills, 0);
    assert_eq!(fork.respawns, crashes + fork.timeout_kills, "{fork:?}");
    assert_eq!(fork.spawns, 4 + fork.respawns, "{fork:?}");
    assert!(
        fork.rerun_executions > 0,
        "some crash came after completed executions of its batch: {fork:?}"
    );
    assert_eq!(report.aggregate.executions + crashes, 200);
}

#[test]
fn crash_reruns_are_invisible_across_batch_sizes_and_worker_counts() {
    // The canonical report, crash records included, must not depend on
    // how the budget was cut into batches (and so on which prefixes were
    // re-run) or on how many children ran them.
    let mut reference: Option<String> = None;
    let mut reruns = 0;
    for batch in ["1", "7", "64"] {
        for workers in ["1", "4", "8"] {
            let metrics = std::env::temp_dir().join(format!(
                "c11-rerun-{}-{batch}-{workers}.json",
                std::process::id()
            ));
            let json = canonical(&[
                "--target",
                "null-deref-buggy",
                "--executions",
                "200",
                "--seed",
                "7",
                "--isolate",
                "--batch",
                batch,
                "--workers",
                workers,
                "--canonical",
                "--metrics-out",
                metrics.to_str().expect("utf-8 path"),
            ]);
            let doc = std::fs::read_to_string(&metrics).expect("metrics written");
            let _ = std::fs::remove_file(&metrics);
            let doc = c11tester_telemetry::json::JsonValue::parse(&doc).expect("metrics parse");
            reruns += doc
                .field("fork_server")
                .and_then(|f| f.u64_field("rerun_executions"))
                .expect("rerun_executions");
            assert!(crash_count(&json) > 0);
            match &reference {
                None => reference = Some(json),
                Some(expected) => assert_eq!(
                    &json, expected,
                    "diverged at --batch {batch} --workers {workers}"
                ),
            }
        }
    }
    assert!(reruns > 0, "no crash re-ran a non-empty prefix");
}

// ---- fault injection on real children ----------------------------------
//
// The real `c11campaign --worker` behind a `/bin/sh` wrapper that
// damages its stdout: cut inside the first batch frame, or that frame's
// body corrupted at equal length. A campaign must return within a fixed
// bound, with crash records or a bounded error — never hang — and an
// `Ok` report must still tile its budget.

/// Runs 12 executions of `rwlock-buggy` (batches of 4, 2 workers)
/// through a fork server whose worker is `wrapper` — a `/bin/sh` body
/// in which `$WORKER` is the real worker binary and `$DIR` a temporary
/// directory of its own. Panics if the campaign does not return within
/// a minute. `None` when the host has no `/bin/sh`.
#[cfg(unix)]
fn run_wrapped(
    name: &str,
    wrapper: &str,
) -> Option<Result<c11tester_campaign::CampaignReport, String>> {
    use c11tester::Config;
    use c11tester_campaign::{targets, Campaign, CampaignBudget};
    use c11tester_isolation::ForkServer;

    if !Path::new("/bin/sh").exists() {
        return None;
    }
    let dir = std::env::temp_dir().join(format!("c11-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temporary dir");
    let script = dir.join("worker");
    // Written by a child shell, so this process never holds a write
    // descriptor to the script that a concurrent fork could inherit
    // (executing it would then fail with ETXTBSY).
    let body = format!(
        "#!/bin/sh\nWORKER='{BIN}'\nDIR='{}'\n{wrapper}\n",
        dir.display()
    );
    let mut writer = Command::new("/bin/sh")
        .args(["-c", "cat > \"$0\" && chmod 755 \"$0\""])
        .arg(&script)
        .stdin(std::process::Stdio::piped())
        .spawn()
        .expect("sh runs");
    std::io::Write::write_all(&mut writer.stdin.take().expect("piped"), body.as_bytes())
        .expect("script written");
    assert!(writer.wait().expect("sh exits").success());

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let target = targets::find("rwlock-buggy").expect("target exists");
        let fork = ForkServer::new(&script).with_batch_size(4);
        let report = Campaign::new(Config::new().with_seed(7))
            .with_workers(2)
            .run_target(&fork, &target, &CampaignBudget::executions(12));
        let _ = tx.send(report);
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(60))
        .unwrap_or_else(|_| panic!("{name}: the campaign hung"));
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok(report) = &outcome {
        assert_eq!(
            report.aggregate.executions + report.crashes.len() as u64,
            12,
            "{name}: completed executions + crashes tile the budget"
        );
    }
    Some(outcome)
}

/// The real worker's stdout cut after 40 bytes — four ticks are 12
/// bytes, so the cut falls inside the first batch frame. The shell
/// hands the stream to the pipeline and lets go of it, so the parent
/// sees the cut as the end of the stream while the worker lingers,
/// blocked on its next request. (A background list reads `/dev/null`
/// unless told otherwise, hence the saved stdin.)
#[cfg(unix)]
const CUT: &str = "exec 3>&1 4<&0 >/dev/null
\"$WORKER\" \"$@\" <&4 3>&- 4<&- | head -c 40 >&3 3>&- 4<&- &
exec 3>&- 4<&-
wait";

#[cfg(unix)]
#[test]
fn a_stream_cut_inside_every_batch_frame_is_a_bounded_error() {
    // Every child's stream ends after its ticks but before its batch
    // ships: no progress, so the pool gives up after a short streak.
    let Some(outcome) = run_wrapped("cut-always", CUT) else {
        return;
    };
    let err = outcome.expect_err("no batch ever ships");
    assert!(err.contains("died 3 times in a row"), "{err}");
}

#[cfg(unix)]
#[test]
fn a_stream_cut_inside_one_batch_frame_reruns_that_batch() {
    // Only the first child is cut; its batch re-runs on the next one.
    let wrapper =
        format!("if mkdir \"$DIR/cut\" 2>/dev/null; then\n{CUT}\nelse exec \"$WORKER\" \"$@\"; fi");
    let Some(outcome) = run_wrapped("cut-once", &wrapper) else {
        return;
    };
    let report = outcome.expect("the campaign survives one cut");
    assert!(report.crashes.is_empty(), "{:?}", report.crashes);
    assert_eq!(report.aggregate.executions, 12);
    let fork = report.metrics.fork;
    assert_eq!(fork.respawns, 1, "{fork:?}");
    assert_eq!(fork.rerun_executions, 4, "{fork:?}");
}

#[cfg(unix)]
#[test]
fn a_corrupted_batch_frame_body_is_a_protocol_violation() {
    // Same length, one digit changed. Edited `executions`, the fold
    // would claim five executions after four ticks; edited
    // `executions_with_race`, no tick contradicts it and only the
    // frame digest tells the parent.
    for (name, from, to) in [
        (
            "corrupt-executions",
            r#""executions":4,"#,
            r#""executions":5,"#,
        ),
        (
            "corrupt-races",
            r#""executions":4,"executions_with_race":4,"#,
            r#""executions":4,"executions_with_race":3,"#,
        ),
    ] {
        let wrapper = format!(
            r#""$WORKER" "$@" | sed -u 's/^{{"frame":"batch",{from}/{{"frame":"batch",{to}/'"#
        );
        let Some(outcome) = run_wrapped(name, &wrapper) else {
            return;
        };
        let err = outcome.expect_err("a corrupted fold must not be merged");
        assert!(err.contains("worker protocol violation"), "{name}: {err}");
        assert!(err.contains("does not match"), "{name}: {err}");
    }
}

#[cfg(unix)]
#[test]
fn a_child_killed_by_a_signal_mid_batch_is_one_signal_crash() {
    // The first child passes the real worker's first tick through and
    // then SIGKILLs itself: to the parent it died by signal 9 one
    // execution into its first batch. Later children are the real
    // worker.
    let wrapper = "if mkdir \"$DIR/kill\" 2>/dev/null; then
\"$WORKER\" \"$@\" | { head -c 3; kill -KILL $$; }
else exec \"$WORKER\" \"$@\"; fi";
    let start = std::time::Instant::now();
    let Some(outcome) = run_wrapped("kill-once", wrapper) else {
        return;
    };
    assert!(start.elapsed() < Duration::from_secs(60));
    let report = outcome.expect("the campaign survives a killed child");
    let [crash] = &report.crashes[..] else {
        panic!("one crash record: {:?}", report.crashes);
    };
    assert_eq!(crash.kind, c11tester_campaign::CrashKind::Signal(9));
    // Batches of 4 start at multiples of 4: `first + 1`.
    assert_eq!(crash.index % 4, 1, "{crash}");
    assert_eq!(report.metrics.fork.respawns, 1, "{:?}", report.metrics.fork);
    assert_eq!(report.aggregate.executions + 1, 12);
}
