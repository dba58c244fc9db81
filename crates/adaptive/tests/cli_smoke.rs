//! `c11campaign --json` end to end, on the campaign smoke and one
//! strategy-mixed campaign per built-in target group: the full
//! document's `campaign` object is the same invocation's `--canonical`
//! bytes, and its `per_strategy` columns have one row per mix entry
//! that ran.

use c11tester::StrategyMix;
use c11tester_telemetry::json::JsonValue;
use std::process::Command;

/// `c11campaign` stdout for `args`, which must exit 0.
fn cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_c11campaign"))
        .args(args)
        .output()
        .expect("c11campaign runs");
    assert!(
        out.status.success(),
        "c11campaign {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

#[test]
fn json_reports_embed_the_canonical_report_with_one_column_per_strategy() {
    // The campaign smoke, then one mixed campaign per target group:
    // table2 (mpmc-queue), section8.1 (rwlock-buggy), table1 (silo).
    for (target, mix, executions, workers) in [
        ("rwlock-buggy", None, "200", "4"),
        (
            "mpmc-queue",
            Some("random:2,pct2:1,pct3:1,burst:1"),
            "120",
            "4",
        ),
        ("rwlock-buggy", Some("random:2,pct2:1,pct3:1"), "120", "4"),
        ("silo", Some("random:1,pct2:1"), "40", "2"),
    ] {
        let mut args = vec![
            "--target",
            target,
            "--executions",
            executions,
            "--workers",
            workers,
            "--seed",
            "7",
        ];
        if let Some(mix) = mix {
            args.extend(["--mix", mix]);
        }
        let full = cli(&[&args[..], &["--json"]].concat());
        let canonical = cli(&[&args[..], &["--canonical"]].concat());
        let canonical = canonical.trim_end();
        assert!(
            full.starts_with(&format!("{{\"campaign\":{canonical},\"timing\":{{")),
            "{target} {mix:?}: the --json campaign object is not the canonical report"
        );
        JsonValue::parse(full.trim_end()).expect("--json output parses");

        let doc = JsonValue::parse(canonical).expect("canonical report parses");
        let rows: Vec<(String, u64)> = doc
            .array_field("per_strategy")
            .expect("per_strategy columns")
            .iter()
            .map(|row| {
                let name = row.str_field("strategy").expect("strategy").to_string();
                (name, row.u64_field("executions").expect("executions"))
            })
            .collect();
        let mut expected: Vec<String> = match mix {
            Some(mix) => StrategyMix::parse(mix)
                .expect("valid mix")
                .entries()
                .iter()
                .map(|(s, _)| s.spec())
                .collect(),
            None => vec!["random".to_string()],
        };
        expected.sort();
        let names: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, expected, "{target} {mix:?}: one row per mix entry");
        assert!(rows.iter().all(|&(_, n)| n > 0), "{target}: {rows:?}");
        let total: u64 = rows.iter().map(|&(_, n)| n).sum();
        assert_eq!(
            total.to_string(),
            executions,
            "{target}: rows sum to the budget"
        );
    }
}
