//! End-to-end recycling determinism, driven through the real
//! `c11campaign` binary.
//!
//! An in-process campaign worker recycles one `Execution` along its
//! whole shard; a fork-isolated campaign with `--batch 1` runs every
//! execution on a brand-new `Model` — maximally *fresh* state.
//! Byte-identical canonical JSON between the two proves the recycled
//! hot path is observationally invisible through the entire stack
//! (engine, wire protocol, aggregation), at several worker counts.

use std::process::{Command, Output};

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

#[test]
fn recycled_in_process_matches_fresh_per_execution_children() {
    let base = [
        "--target",
        "rwlock-buggy",
        "--executions",
        "32",
        "--seed",
        "0xA110C",
        "--canonical",
    ];
    // One in-process worker: executions 1..31 run on recycled state.
    let mut recycled = base.to_vec();
    recycled.extend(["--workers", "1"]);
    let recycled = canonical(&recycled);
    // --batch 1 gives every execution a fresh model: nothing recycled.
    for workers in ["1", "4", "8"] {
        let mut fresh = base.to_vec();
        fresh.extend(["--isolate", "--batch", "1", "--workers", workers]);
        assert_eq!(
            canonical(&fresh),
            recycled,
            "fresh-per-execution children diverged from the recycled \
             in-process campaign at {workers} workers"
        );
    }
}

#[test]
fn alloc_stats_flag_requires_canonical_and_emits_block() {
    let out = run(&["--target", "rwlock-buggy", "--alloc-stats"]);
    assert!(
        !out.status.success(),
        "--alloc-stats without --canonical must be rejected"
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("--alloc-stats requires --canonical"));

    // The isolated combination works too: children ship their
    // provisioning counters in each batch frame. 8 executions in
    // batches of 4 means two batches, each starting on a fresh model
    // and recycling within itself.
    let with = canonical(&[
        "--target",
        "rwlock-buggy",
        "--executions",
        "8",
        "--workers",
        "1",
        "--isolate",
        "--batch",
        "4",
        "--canonical",
        "--alloc-stats",
    ]);
    assert!(
        with.contains("\"alloc\":{\"fresh_executions\":2,\"recycled_executions\":6,"),
        "children must report batch provisioning over the wire: {with}"
    );

    let with = canonical(&[
        "--target",
        "rwlock-buggy",
        "--executions",
        "8",
        "--workers",
        "1",
        "--canonical",
        "--alloc-stats",
    ]);
    assert!(with.contains("\"alloc\":{\"fresh_executions\":1,\"recycled_executions\":7,"));
}
