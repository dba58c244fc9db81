//! `c11perf run`: every workload, both passes, one output file.
//!
//! Each pass runs in a fresh subprocess of this binary, sequentially, so
//! `VmHWM`, pooled threads and allocator state never leak from one
//! workload into the next. The children print their metrics; this
//! process collects their records, adds the cross-workload checks and
//! writes the file `c11perf compare` reads.

use crate::json::{array, string, Obj};
use crate::record::{commit, Check, SCHEMA};
use crate::workloads::{nproc, WORKLOADS};
use c11tester_campaign::baseline::JsonValue;
use std::path::Path;
use std::process::Command;

/// One child pass: its record as JSON text, parsed for the fields the
/// cross-workload checks need.
struct Pass {
    text: String,
    correct: bool,
    canonical: String,
}

fn child_pass(
    seed: u64,
    seconds: u64,
    quick: bool,
    workload: &str,
    trace: u8,
) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot resolve current exe: {e}"))?;
    let dir = Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let record = dir.join(format!("pass-{workload}-{trace}.json"));
    let mut child = Command::new(exe);
    child
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .arg("--out")
        .arg(&record);
    if quick {
        child.arg("--quick");
    }
    let status = child
        .status()
        .map_err(|e| format!("cannot spawn the {workload} pass: {e}"))?;
    // Exit 1 is a completed pass with a failed check; anything else but
    // 0 means the pass itself broke.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!(
            "the {workload} --trace {trace} pass ended with {status}"
        ));
    }
    let text = std::fs::read_to_string(&record)
        .map_err(|e| format!("cannot read {}: {e}", record.display()))?;
    let _ = std::fs::remove_file(&record);
    let doc = JsonValue::parse(&text).map_err(|e| format!("{workload} record: {e}"))?;
    Ok(Pass {
        correct: doc.get("correct").and_then(JsonValue::as_bool) == Some(true),
        canonical: doc
            .get("canonical_fnv64")
            .and_then(JsonValue::as_str)
            .unwrap_or_default()
            .to_string(),
        text,
    })
}

/// Runs every workload and writes the output file. `Ok(false)` means
/// the run completed but a correctness check failed.
pub fn run(seed: u64, seconds: u64, quick: bool, out: &str) -> Result<bool, String> {
    let mut rows = Vec::new();
    let mut correct = true;
    let mut canonical_of = Vec::new();
    for w in &WORKLOADS {
        let end_to_end = child_pass(seed, seconds, quick, w.name, 0)?;
        let per_layer = child_pass(seed, seconds, quick, w.name, 1)?;
        correct &= end_to_end.correct && per_layer.correct;
        canonical_of.push((w.name, end_to_end.canonical.clone()));
        rows.push(
            Obj::new()
                .str("name", w.name)
                .raw("end_to_end", &end_to_end.text)
                .raw("per_layer", &per_layer.text)
                .finish(),
        );
    }

    // `isolate` runs the `queue` workload's executions through the fork
    // server: same target, seed and budget, so the same canonical bytes.
    let canonical = |name: &str| {
        canonical_of
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, c)| c.as_str())
    };
    let (queue, isolate) = (canonical("queue"), canonical("isolate"));
    let checks = [Check::new(
        "isolate canonical JSON equals queue's",
        !queue.is_empty() && queue == isolate,
        format!("fnv64 {queue} / {isolate}"),
    )];
    for c in &checks {
        println!(
            "check {:<58} {}  {}",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
        correct &= c.ok;
    }

    let doc = Obj::new()
        .str("schema", SCHEMA)
        // This benchmark defines the vocabulary; it claims no gain.
        .raw("claim", "null")
        .str("commit", &commit())
        .uint("seed", seed)
        .uint("nproc", nproc() as u64)
        .uint("seconds", seconds)
        .bool("quick", quick)
        .bool("correct", correct)
        .raw(
            "workload_names",
            array(WORKLOADS.iter().map(|w| string(w.name))),
        )
        .raw("workloads", array(rows))
        .raw("checks", array(checks.iter().map(Check::json)))
        .finish();
    std::fs::write(out, doc).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "c11perf run: {} workloads, seed {seed}, correct: {correct}, wrote {out}",
        WORKLOADS.len()
    );
    Ok(correct)
}
