//! The counter-based perf gate behind the `bench_diff` binary.
//!
//! Compares two `BENCH_*.json` perf-trajectory files (see
//! [`crate::validate_bench_json`] for the schema) row by row and fails
//! when any kernel counter grew by more than a threshold. Counters — not
//! wall-clock — are the gated quantity: they are deterministic for a
//! fixed input and thread-count independent, so the gate never flakes on
//! loaded CI runners the way timing gates do.
//!
//! Rows are matched by `(bench, dataset, algorithm, s)`. A row or
//! counter present in the baseline but missing from the new file is a
//! failure (a silently dropped measurement must not pass the gate);
//! new rows and new counters are informational only, so adding
//! datasets or counters never requires a simultaneous baseline bump.

use nwhy_obs::json::{parse, Value};
use std::fmt;

/// Default regression threshold, in percent growth over the baseline.
pub const DEFAULT_THRESHOLD_PCT: f64 = 15.0;

/// One parsed bench row: the match key plus its counters. Timing fields
/// are intentionally dropped — the gate never reads `median_seconds`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub bench: String,
    pub dataset: String,
    pub algorithm: String,
    pub s: Option<u64>,
    pub counters: Vec<(String, u64)>,
}

impl Row {
    fn key(&self) -> String {
        let s = match self.s {
            Some(s) => s.to_string(),
            None => "-".to_string(),
        };
        format!("{}/{}/{}/s={s}", self.bench, self.dataset, self.algorithm)
    }

    fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }
}

/// One gate violation: a grown counter or a dropped row/counter.
#[derive(Debug, Clone)]
pub struct Violation {
    /// `bench/dataset/algorithm/s=K` row key.
    pub key: String,
    /// Human-readable description of what regressed.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.key, self.detail)
    }
}

/// The outcome of one baseline/candidate comparison.
#[derive(Debug, Clone)]
pub struct Report {
    /// Gate violations; empty means the gate passes.
    pub violations: Vec<Violation>,
    /// Counters compared.
    pub compared: usize,
    /// Keys present only in the new file (informational).
    pub added_rows: Vec<String>,
}

impl Report {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Diffs two bench JSON documents under a growth threshold (percent).
pub fn diff(old_text: &str, new_text: &str, threshold_pct: f64) -> Result<Report, String> {
    let old_rows = parse_rows(old_text).map_err(|e| format!("baseline: {e}"))?;
    let new_rows = parse_rows(new_text).map_err(|e| format!("candidate: {e}"))?;
    let mut violations = Vec::new();
    let mut compared = 0usize;
    for old in &old_rows {
        let key = old.key();
        let Some(new) = new_rows.iter().find(|n| n.key() == key) else {
            violations.push(Violation {
                key,
                detail: "row missing from candidate".into(),
            });
            continue;
        };
        for (name, old_v) in &old.counters {
            let Some(new_v) = new.counter(name) else {
                violations.push(Violation {
                    key: key.clone(),
                    detail: format!("counter {name} missing from candidate"),
                });
                continue;
            };
            compared += 1;
            // counters are deterministic: any growth from a zero
            // baseline is a new cost, not noise
            let grew_from_zero = *old_v == 0 && new_v > 0;
            let pct = if *old_v == 0 {
                0.0
            } else {
                (new_v as f64 - *old_v as f64) / (*old_v as f64) * 100.0
            };
            if pct > threshold_pct || grew_from_zero {
                violations.push(Violation {
                    key: key.clone(),
                    detail: format!("counter {name} grew {old_v} -> {new_v} (+{pct:.1}%)"),
                });
            }
        }
    }
    let added_rows = new_rows
        .iter()
        .map(Row::key)
        .filter(|k| !old_rows.iter().any(|o| &o.key() == k))
        .collect();
    Ok(Report {
        violations,
        compared,
        added_rows,
    })
}

/// Resolves the threshold: `--threshold` flag beats the
/// `NWHY_BENCH_DIFF_THRESHOLD` environment knob beats the default.
pub fn resolve_threshold(flag: Option<f64>) -> f64 {
    flag.or_else(|| {
        std::env::var("NWHY_BENCH_DIFF_THRESHOLD")
            .ok()
            .and_then(|v| v.parse().ok())
    })
    .unwrap_or(DEFAULT_THRESHOLD_PCT)
}

/// Parses a `BENCH_*.json` document into its rows. Only the match key
/// and the counters are read; every other field is ignored.
pub fn parse_rows(text: &str) -> Result<Vec<Row>, String> {
    let doc = parse(text)?;
    let rows = doc.as_array().ok_or("top level must be an array")?;
    rows.iter().enumerate().map(|(i, r)| row(i, r)).collect()
}

fn row(i: usize, r: &Value) -> Result<Row, String> {
    let Value::Object(fields) = r else {
        return Err(format!("row {i}: must be an object"));
    };
    if fields.is_empty() {
        return Err(format!("row {i}: must not be empty"));
    }
    let text = |key: &str| -> Result<String, String> {
        match r.get(key) {
            None => Ok(String::new()),
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("row {i}: {key:?} must be a string")),
        }
    };
    let s = match r.get("s") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| format!("row {i}: \"s\" must be a non-negative integer"))?,
        ),
    };
    let counters = match r.get("counters") {
        None => Vec::new(),
        Some(Value::Object(m)) => m
            .iter()
            .map(|(name, v)| {
                v.as_u64().map(|v| (name.clone(), v)).ok_or_else(|| {
                    format!("row {i}: counter {name:?} must be a non-negative integer")
                })
            })
            .collect::<Result<_, _>>()?,
        Some(_) => return Err(format!("row {i}: \"counters\" must be an object")),
    };
    Ok(Row {
        bench: text("bench")?,
        dataset: text("dataset")?,
        algorithm: text("algorithm")?,
        s,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(counter: &str, value: u64) -> String {
        format!(
            "[{{\"bench\": \"slinegraph\", \"dataset\": \"uniform\", \
             \"algorithm\": \"hashmap\", \"s\": 2, \"trials\": 3, \
             \"median_seconds\": 1.5e-4, \
             \"counters\": {{\"{counter}\": {value}, \"sline.edges_emitted\": 10}}}}]"
        )
    }

    #[test]
    fn parses_the_emitter_shape() {
        let rows = parse_rows(&doc("sline.pairs_examined", 100)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].bench, "slinegraph");
        assert_eq!(rows[0].s, Some(2));
        assert_eq!(rows[0].counter("sline.pairs_examined"), Some(100));
        assert_eq!(rows[0].counter("sline.edges_emitted"), Some(10));
    }

    #[test]
    fn identical_files_pass() {
        let d = doc("sline.pairs_examined", 100);
        let r = diff(&d, &d, DEFAULT_THRESHOLD_PCT).unwrap();
        assert!(r.passed(), "{:?}", r.violations);
        assert_eq!(r.compared, 2);
    }

    #[test]
    fn growth_over_threshold_fails() {
        let old = doc("sline.pairs_examined", 100);
        let new = doc("sline.pairs_examined", 120); // +20% > 15%
        let r = diff(&old, &new, DEFAULT_THRESHOLD_PCT).unwrap();
        assert!(!r.passed());
        assert!(r.violations[0].detail.contains("+20.0%"));
    }

    #[test]
    fn growth_under_threshold_passes_and_threshold_is_tunable() {
        let old = doc("sline.pairs_examined", 100);
        let new = doc("sline.pairs_examined", 110); // +10%
        assert!(diff(&old, &new, DEFAULT_THRESHOLD_PCT).unwrap().passed());
        assert!(!diff(&old, &new, 5.0).unwrap().passed());
    }

    #[test]
    fn improvements_always_pass() {
        let old = doc("sline.pairs_examined", 100);
        let new = doc("sline.pairs_examined", 10);
        assert!(diff(&old, &new, DEFAULT_THRESHOLD_PCT).unwrap().passed());
    }

    #[test]
    fn growth_from_zero_fails() {
        let old = doc("sline.pairs_skipped", 0);
        let new = doc("sline.pairs_skipped", 1);
        assert!(!diff(&old, &new, DEFAULT_THRESHOLD_PCT).unwrap().passed());
    }

    #[test]
    fn missing_row_or_counter_fails() {
        let old = doc("sline.pairs_examined", 100);
        assert!(!diff(
            &old,
            "[{\"bench\": \"slinegraph\", \"dataset\": \"other\", \
                 \"algorithm\": \"hashmap\", \"s\": 2, \"counters\": {}}]",
            DEFAULT_THRESHOLD_PCT
        )
        .unwrap()
        .passed());
        let new = doc("sline.other_counter", 100);
        assert!(!diff(&old, &new, DEFAULT_THRESHOLD_PCT).unwrap().passed());
    }

    #[test]
    fn new_rows_and_counters_are_informational() {
        let old = doc("sline.pairs_examined", 100);
        let new = format!(
            "[{},{}]",
            doc("sline.pairs_examined", 100)
                .trim_start_matches('[')
                .trim_end_matches(']'),
            "{\"bench\": \"slinegraph\", \"dataset\": \"extra\", \
             \"algorithm\": \"naive\", \"s\": null, \"counters\": {\"x\": 1}}"
        );
        let r = diff(&old, &new, DEFAULT_THRESHOLD_PCT).unwrap();
        assert!(r.passed());
        assert_eq!(r.added_rows, vec!["slinegraph/extra/naive/s=-"]);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(parse_rows("[{\"bench\": }]").is_err());
        assert!(parse_rows("not json").is_err());
        assert!(parse_rows("[{}]").is_err());
        assert!(parse_rows("[{\"bench\": \"b\", \"counters\": {\"x\": -1}}]").is_err());
        assert!(diff("[]", "[]", 15.0).unwrap().passed());
    }
}
