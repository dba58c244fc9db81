//! Baseline loading and regression diffing for campaign reports.
//!
//! Campaign detection rates are the project's primary quality signal
//! (paper Tables 1–2): a commit that silently halves the race
//! detection rate on a workload is a detector regression even when
//! every unit test passes. This module closes that loop: persist a
//! canonical-JSON report (`c11campaign --canonical > baseline.json`),
//! then later runs compare themselves against it with
//! `c11campaign --baseline baseline.json` — nonzero exit when a rate
//! regressed beyond a threshold.
//!
//! The offline environment has no serde, so [`JsonValue`] is a minimal
//! recursive-descent JSON reader — enough to load the reports this
//! workspace's own emitter produces (any conforming RFC 8259 document
//! parses). [`BaselineSummary`] extracts the comparable surface from
//! `c11campaign/v4` canonical documents (and the `--json` full form,
//! which wraps the canonical object under a `"campaign"` key):
//! aggregate detection rates, the per-strategy columns, and the crash
//! count. Older schema versions are rejected by name. The schema is
//! documented field-by-field in `docs/SCHEMA.md`.

use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// Minimal JSON reader
// ---------------------------------------------------------------------

/// A parsed JSON value.
///
/// Numbers keep their raw text so 64-bit integers (seeds, indices)
/// round-trip exactly instead of through `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its source text.
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {} (found {:?})",
            byte as char,
            *pos,
            bytes.get(*pos).map(|b| *b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(fields));
                    }
                    other => {
                        return Err(format!(
                            "expected `,` or `}}` in object at byte {} (found {:?})",
                            *pos,
                            other.map(|b| *b as char)
                        ))
                    }
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    other => {
                        return Err(format!(
                            "expected `,` or `]` in array at byte {} (found {:?})",
                            *pos,
                            other.map(|b| *b as char)
                        ))
                    }
                }
            }
        }
        Some(b'"') => Ok(JsonValue::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected `{literal}` at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number bytes");
    if raw.is_empty() || raw.parse::<f64>().is_err() {
        return Err(format!("bad number `{raw}` at byte {start}"));
    }
    Ok(JsonValue::Number(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = Vec::new();
    while let Some(&b) = bytes.get(*pos) {
        *pos += 1;
        match b {
            b'"' => {
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".to_string())
            }
            b'\\' => {
                let esc = bytes.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push(b'"'),
                    b'\\' => out.push(b'\\'),
                    b'/' => out.push(b'/'),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'b' => out.push(0x08),
                    b'f' => out.push(0x0C),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                        *pos += 4;
                        // Surrogate pairs don't appear in our emitter's
                        // output; map lone surrogates to U+FFFD.
                        let c = char::from_u32(code).unwrap_or('\u{FFFD}');
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                }
            }
            other => out.push(other),
        }
    }
    Err("unterminated string".to_string())
}

// ---------------------------------------------------------------------
// Baseline summaries and diffing
// ---------------------------------------------------------------------

/// Detection rates for one strategy column.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StrategyRates {
    /// Executions the strategy drove.
    pub executions: u64,
    /// Fraction of them that detected a race.
    pub race_detection_rate: f64,
    /// Fraction of them that found any bug.
    pub bug_detection_rate: f64,
}

/// The comparable surface of a campaign report: what `--baseline`
/// diffs between two runs.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineSummary {
    /// Schema of the source document (`c11campaign/v4`).
    pub schema: String,
    /// Base seed of the campaign.
    pub base_seed: u64,
    /// Strategy / mix label.
    pub strategy: String,
    /// Total executions.
    pub executions: u64,
    /// Aggregate race detection rate.
    pub race_detection_rate: f64,
    /// Aggregate bug detection rate.
    pub bug_detection_rate: f64,
    /// Executions that crashed their worker process.
    pub crashes: u64,
    /// Per-strategy columns keyed by strategy spec.
    pub per_strategy: BTreeMap<String, StrategyRates>,
}

/// The one schema [`BaselineSummary::parse`] reads.
const SCHEMA: &str = "c11campaign/v4";

impl BaselineSummary {
    /// Extracts the summary from a canonical `c11campaign/v4` JSON
    /// document, or from the `--json` full form (which wraps the
    /// canonical object under a `"campaign"` key).
    pub fn parse(text: &str) -> Result<BaselineSummary, String> {
        let doc = JsonValue::parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
        // Unwrap the full form's {"campaign": {...}, "timing": {...}}.
        let doc = doc.get("campaign").unwrap_or(&doc);
        let schema = doc
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("missing `schema` field")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (expected {SCHEMA})"));
        }
        let u64_field = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or(format!("missing numeric `{key}` field"))
        };
        let f64_field = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or(format!("missing numeric `{key}` field"))
        };
        let mut per_strategy = BTreeMap::new();
        for row in doc
            .get("per_strategy")
            .and_then(JsonValue::as_array)
            .ok_or("missing `per_strategy` array")?
        {
            let spec = row
                .get("strategy")
                .and_then(JsonValue::as_str)
                .ok_or("per_strategy row missing `strategy`")?;
            let rates = StrategyRates {
                executions: row
                    .get("executions")
                    .and_then(JsonValue::as_u64)
                    .ok_or("per_strategy row missing `executions`")?,
                race_detection_rate: row
                    .get("race_detection_rate")
                    .and_then(JsonValue::as_f64)
                    .ok_or("per_strategy row missing `race_detection_rate`")?,
                bug_detection_rate: row
                    .get("bug_detection_rate")
                    .and_then(JsonValue::as_f64)
                    .ok_or("per_strategy row missing `bug_detection_rate`")?,
            };
            per_strategy.insert(spec.to_string(), rates);
        }
        Ok(BaselineSummary {
            schema: schema.to_string(),
            base_seed: u64_field("base_seed")?,
            strategy: doc
                .get("strategy")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            executions: u64_field("executions")?,
            race_detection_rate: f64_field("race_detection_rate")?,
            bug_detection_rate: f64_field("bug_detection_rate")?,
            crashes: u64_field("crashes")?,
            per_strategy,
        })
    }
}

/// One compared metric: baseline value vs current value.
#[derive(Clone, Debug)]
pub struct MetricDelta {
    /// Human-readable metric name (e.g. `aggregate race rate`,
    /// `strategy pct2 bug rate`).
    pub metric: String,
    /// The baseline's rate.
    pub baseline: f64,
    /// The current run's rate.
    pub current: f64,
}

impl MetricDelta {
    /// Rate change (positive = improvement).
    pub fn delta(&self) -> f64 {
        self.current - self.baseline
    }
}

impl std::fmt::Display for MetricDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {:.1}% -> {:.1}% ({:+.1}pt)",
            self.metric,
            100.0 * self.baseline,
            100.0 * self.current,
            100.0 * self.delta(),
        )
    }
}

/// The outcome of diffing a current run against a baseline.
#[derive(Clone, Debug)]
pub struct BaselineDiff {
    /// Every compared metric, in stable order.
    pub deltas: Vec<MetricDelta>,
    /// Threshold the regression check used (absolute rate drop).
    pub threshold: f64,
    /// Informational notes (strategy columns only one side has, …).
    pub notes: Vec<String>,
}

impl BaselineDiff {
    /// Compares `current` against `baseline`: aggregate race/bug
    /// detection rates plus per-strategy rates for every strategy both
    /// reports cover. A metric **regresses** when the current rate
    /// drops more than `threshold` (absolute) below the baseline's.
    pub fn compare(
        current: &BaselineSummary,
        baseline: &BaselineSummary,
        threshold: f64,
    ) -> BaselineDiff {
        let mut deltas = vec![
            MetricDelta {
                metric: "aggregate race rate".to_string(),
                baseline: baseline.race_detection_rate,
                current: current.race_detection_rate,
            },
            MetricDelta {
                metric: "aggregate bug rate".to_string(),
                baseline: baseline.bug_detection_rate,
                current: current.bug_detection_rate,
            },
        ];
        let mut notes = Vec::new();
        if current.executions != baseline.executions {
            notes.push(format!(
                "execution budgets differ (baseline {}, current {}): rates are \
                 compared, not counts",
                baseline.executions, current.executions
            ));
        }
        if current.crashes != baseline.crashes {
            notes.push(format!(
                "crash counts differ (baseline {}, current {})",
                baseline.crashes, current.crashes
            ));
        }
        for (spec, base) in &baseline.per_strategy {
            match current.per_strategy.get(spec) {
                Some(cur) => {
                    deltas.push(MetricDelta {
                        metric: format!("strategy {spec} race rate"),
                        baseline: base.race_detection_rate,
                        current: cur.race_detection_rate,
                    });
                    deltas.push(MetricDelta {
                        metric: format!("strategy {spec} bug rate"),
                        baseline: base.bug_detection_rate,
                        current: cur.bug_detection_rate,
                    });
                }
                None => notes.push(format!(
                    "strategy `{spec}` present only in the baseline (not compared)"
                )),
            }
        }
        for spec in current.per_strategy.keys() {
            if !baseline.per_strategy.contains_key(spec) {
                notes.push(format!(
                    "strategy `{spec}` present only in the current run (not compared)"
                ));
            }
        }
        BaselineDiff {
            deltas,
            threshold,
            notes,
        }
    }

    /// Metrics that regressed beyond the threshold.
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.deltas
            .iter()
            .filter(|d| d.delta() < -self.threshold)
            .collect()
    }

    /// Whether any metric regressed beyond the threshold.
    pub fn regressed(&self) -> bool {
        !self.regressions().is_empty()
    }
}

impl std::fmt::Display for BaselineDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.deltas {
            let marker = if d.delta() < -self.threshold {
                " REGRESSED"
            } else {
                ""
            };
            writeln!(f, "  {d}{marker}")?;
        }
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        write!(
            f,
            "{} metric(s) compared, {} regression(s) beyond {:.1}pt",
            self.deltas.len(),
            self.regressions().len(),
            100.0 * self.threshold,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_reader_handles_the_emitters_shapes() {
        let doc = JsonValue::parse(
            r#"{"a":1,"b":-2.5,"c":"x\n\"y\"","d":[true,false,null],"e":{},"f":18446744073709551615}"#,
        )
        .expect("valid JSON");
        assert_eq!(doc.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(doc.get("b").and_then(JsonValue::as_f64), Some(-2.5));
        assert_eq!(doc.get("c").and_then(JsonValue::as_str), Some("x\n\"y\""));
        assert_eq!(
            doc.get("d").and_then(JsonValue::as_array).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(doc.get("e"), Some(&JsonValue::Object(Vec::new())));
        // u64::MAX round-trips exactly (would be lossy through f64).
        assert_eq!(doc.get("f").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert!(JsonValue::parse("{\"unterminated\":").is_err());
        assert!(JsonValue::parse("{} trailing").is_err());
        assert!(JsonValue::parse("{1: 2}").is_err());
    }

    #[test]
    fn summary_round_trips_through_a_real_campaign_report() {
        use crate::{Campaign, CampaignBudget};
        use c11tester::{Config, StrategyMix};
        let config = Config::new()
            .with_seed(0xB5)
            .with_mix(StrategyMix::parse("random:1,pct2:1").expect("valid mix"));
        let report = Campaign::new(config)
            .with_workers(2)
            .run(&CampaignBudget::executions(24), || {
                c11tester_workloads::ds::rwlock_buggy::run_buggy()
            });
        let canonical = BaselineSummary::parse(&report.canonical_json()).expect("parses");
        assert_eq!(canonical.schema, "c11campaign/v4");
        assert_eq!(canonical.crashes, 0);
        assert_eq!(canonical.base_seed, 0xB5);
        assert_eq!(canonical.executions, 24);
        assert_eq!(canonical.strategy, "random:1,pct2:1");
        assert_eq!(
            canonical
                .per_strategy
                .values()
                .map(|r| r.executions)
                .sum::<u64>(),
            24
        );
        // The full (--json) form parses to the identical summary.
        let full = BaselineSummary::parse(&report.to_json()).expect("parses full form");
        assert_eq!(full, canonical);
    }

    #[test]
    fn diff_flags_regressions_beyond_the_threshold_only() {
        let base = BaselineSummary {
            schema: SCHEMA.to_string(),
            base_seed: 1,
            strategy: "random:1,pct2:1".to_string(),
            executions: 100,
            race_detection_rate: 0.8,
            bug_detection_rate: 0.8,
            crashes: 0,
            per_strategy: [
                (
                    "random".to_string(),
                    StrategyRates {
                        executions: 50,
                        race_detection_rate: 0.9,
                        bug_detection_rate: 0.9,
                    },
                ),
                (
                    "pct2".to_string(),
                    StrategyRates {
                        executions: 50,
                        race_detection_rate: 0.7,
                        bug_detection_rate: 0.7,
                    },
                ),
            ]
            .into_iter()
            .collect(),
        };
        // Identical run: no regression at any threshold.
        let diff = BaselineDiff::compare(&base, &base, 0.0);
        assert!(!diff.regressed());
        assert_eq!(diff.deltas.len(), 6);

        // Drop pct2's rates by 0.2: caught at threshold 0.05, tolerated
        // at threshold 0.25.
        let mut worse = base.clone();
        let pct2 = worse.per_strategy.get_mut("pct2").expect("pct2 column");
        pct2.race_detection_rate = 0.5;
        pct2.bug_detection_rate = 0.5;
        let diff = BaselineDiff::compare(&worse, &base, 0.05);
        assert!(diff.regressed());
        let regressed: Vec<&str> = diff
            .regressions()
            .iter()
            .map(|d| d.metric.as_str())
            .collect();
        assert_eq!(
            regressed,
            ["strategy pct2 race rate", "strategy pct2 bug rate"]
        );
        assert!(!BaselineDiff::compare(&worse, &base, 0.25).regressed());
        // Improvements never count as regressions.
        assert!(!BaselineDiff::compare(&base, &worse, 0.05).regressed());
        assert!(diff.to_string().contains("REGRESSED"));
        // A crash-count mismatch is surfaced as a note, not a
        // regression.
        let mut crashed = base.clone();
        crashed.crashes = 3;
        let diff = BaselineDiff::compare(&crashed, &base, 0.05);
        assert!(!diff.regressed());
        assert!(diff.notes.iter().any(|n| n.contains("crash counts differ")));
    }

    #[test]
    fn summary_rejects_unknown_schemas_and_garbage() {
        assert!(BaselineSummary::parse("not json").is_err());
        let err = BaselineSummary::parse(r#"{"schema":"c11campaign/v1"}"#).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        let err = BaselineSummary::parse(r#"{"executions":3}"#).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn old_schemas_are_rejected_naming_found_and_expected() {
        // No emitter has written a pre-crash-accounting schema since
        // v4 landed: a saved baseline that old must be regenerated,
        // and the error says which schema it found and which it reads.
        let old = "c11campaign/v2";
        let doc = format!(
            r#"{{"schema":"{old}","base_seed":7,"strategy":"random:1","executions":4,
            "race_detection_rate":0.5,"bug_detection_rate":0.5,"per_strategy":[]}}"#
        );
        assert_eq!(
            BaselineSummary::parse(&doc).unwrap_err(),
            format!("unsupported schema `{old}` (expected c11campaign/v4)")
        );
    }
}
