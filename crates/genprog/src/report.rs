//! The `c11fuzz/v1` mismatch report.
//!
//! When a sweep finds a trace the oracle rejects — or a tiny-program
//! outcome outside the enumerated axiom-allowed set — the fuzzer
//! writes one JSON report carrying everything needed to replay the
//! failure offline: the `(pseed, seed, epoch, index)` replay key, the
//! violations, the rendered program, and its shrunk form.

use crate::oracle::Violation;
use c11tester_telemetry::json::JsonWriter;

/// One fuzz mismatch, serializable as `c11fuzz/v1`.
#[derive(Clone, Debug)]
pub struct MismatchReport {
    /// Program seed (regenerates the program).
    pub pseed: u64,
    /// Model seed of the failing sweep.
    pub seed: u64,
    /// Trace epoch (always 0 for single-sweep runs).
    pub epoch: u64,
    /// Execution index within the sweep.
    pub index: u64,
    /// Which check failed: `oracle` (axiom violation in a trace) or
    /// `enumerator` (observed outcome outside the allowed set).
    pub scope: &'static str,
    /// The oracle violations (empty for `enumerator` mismatches).
    pub violations: Vec<Violation>,
    /// For `enumerator` mismatches: the forbidden observed outcome.
    pub outcome: Option<Vec<Vec<u64>>>,
    /// The rendered failing program.
    pub program: Vec<String>,
    /// The rendered shrunk program (equal to `program` when no
    /// reduction step kept the failure).
    pub shrunk: Vec<String>,
}

impl MismatchReport {
    /// Renders the report as one `c11fuzz/v1` JSON object.
    pub fn to_json(&self) -> String {
        let strings = |w: &mut JsonWriter, lines: &[String]| {
            w.array(|w| {
                for line in lines {
                    w.str(line);
                }
            })
        };
        let mut w = JsonWriter::with_capacity(512);
        w.object(|w| {
            w.key("schema").str("c11fuzz/v1");
            w.key("pseed").u64(self.pseed);
            w.key("replay").object(|w| {
                w.key("seed").u64(self.seed);
                w.key("epoch").u64(self.epoch);
                w.key("index").u64(self.index);
            });
            w.key("scope").str(self.scope);
            w.key("violations").array(|w| {
                for v in &self.violations {
                    w.object(|w| {
                        w.key("rule").str(v.rule);
                        w.key("detail").str(&v.detail);
                    });
                }
            });
            match &self.outcome {
                None => w.key("outcome").null(),
                Some(threads) => w.key("outcome").array(|w| {
                    for values in threads {
                        w.array(|w| {
                            for v in values {
                                w.u64(*v);
                            }
                        });
                    }
                }),
            }
            strings(w.key("program"), &self.program);
            strings(w.key("shrunk"), &self.shrunk);
        });
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serializes_with_escapes_and_replay_key() {
        let r = MismatchReport {
            pseed: 42,
            seed: 7,
            epoch: 0,
            index: 3,
            scope: "oracle",
            violations: vec![Violation {
                rule: "coherence",
                detail: "cycle \"x\"".to_string(),
            }],
            outcome: Some(vec![vec![1, 0], vec![]]),
            program: vec!["gen:42 threads=2 locs=1 mutexes=0".to_string()],
            shrunk: vec!["T1:".to_string()],
        };
        let json = r.to_json();
        assert!(json.starts_with("{\"schema\":\"c11fuzz/v1\",\"pseed\":42,"));
        assert!(json.contains("\"replay\":{\"seed\":7,\"epoch\":0,\"index\":3}"));
        assert!(json.contains("cycle \\\"x\\\""));
        assert!(json.contains("\"outcome\":[[1,0],[]]"));
        assert!(json.ends_with("\"shrunk\":[\"T1:\"]}"));
    }
}
