//! `nwhy-bench` — shared harness utilities for regenerating the paper's
//! tables and figures.
//!
//! Binaries (one per experiment — see DESIGN.md's per-experiment index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table I — dataset characteristics |
//! | `fig7_cc_scaling` | Fig. 7 — strong scaling of hypergraph CC |
//! | `fig8_bfs_scaling` | Fig. 8 — strong scaling of hypergraph BFS |
//! | `fig9_slinegraph` | Fig. 9 — s-line construction, normalized to Hashmap |
//!
//! The `bench_diff` binary is the CI perf gate over the `BENCH_*.json`
//! files the Criterion benches emit (see [`bench_diff`]).
//!
//! Common environment knobs:
//!
//! - `NWHY_SCALE` — down-scale factor for the Table I twins
//!   (default 2000; the paper runs the real datasets).
//! - `NWHY_TRIALS` — timed repetitions per cell, minimum reported
//!   (default 3).
//! - `NWHY_MAX_THREADS` — top of the thread sweep (default: available
//!   CPUs). On a single-core host the sweep degenerates to `[1]`; set
//!   this to e.g. 8 to exercise the harness with oversubscribed pools.
//! - `NWHY_SEED` — generator seed (default 42).

#![forbid(unsafe_code)]

pub mod bench_diff;

use nwhy_core::Hypergraph;
use nwhy_gen::profiles::{DatasetProfile, TABLE1};

/// Reads a `usize` knob from the environment.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `u64` knob from the environment.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The harness-wide configuration assembled from the environment.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Twin down-scale factor.
    pub scale: usize,
    /// Timed repetitions per cell (min is reported).
    pub trials: usize,
    /// Top of the thread sweep.
    pub max_threads: usize,
    /// Generator seed.
    pub seed: u64,
}

impl HarnessConfig {
    /// Reads `NWHY_SCALE`, `NWHY_TRIALS`, `NWHY_MAX_THREADS`, `NWHY_SEED`.
    pub fn from_env() -> Self {
        Self {
            scale: env_usize("NWHY_SCALE", 2000),
            trials: env_usize("NWHY_TRIALS", 3),
            max_threads: env_usize("NWHY_MAX_THREADS", nwhy_util::pool::max_threads()),
            seed: env_u64("NWHY_SEED", 42),
        }
    }

    /// The thread counts Figures 7–8 sweep.
    pub fn thread_counts(&self) -> Vec<usize> {
        nwhy_util::pool::thread_sweep(self.max_threads)
    }
}

/// Generates every Table I twin at the configured scale.
pub fn all_twins(cfg: &HarnessConfig) -> Vec<(&'static DatasetProfile, Hypergraph)> {
    TABLE1
        .iter()
        .map(|p| (p, p.generate(cfg.scale, cfg.seed)))
        .collect()
}

/// Times `f` `trials` times and returns the minimum seconds (the
/// statistic the GAP/Hygra-style harnesses report).
pub fn best_of<R>(trials: usize, mut f: impl FnMut() -> R) -> f64 {
    (0..trials.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times `f` `trials` times and returns the median seconds (upper median
/// for even counts) — the statistic the `BENCH_*.json` emitters report.
pub fn median_of<R>(trials: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..trials.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One cell of a `BENCH_*.json` perf-trajectory file: median runtime plus
/// the kernel counters one run of the cell produced.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Which bench emitted this (`"slinegraph"`, `"traversal"`, …).
    pub bench: String,
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Overlap threshold, when the cell has one.
    pub s: Option<usize>,
    /// Timed repetitions behind the median.
    pub trials: usize,
    /// Median runtime in seconds.
    pub median_seconds: f64,
    /// `(counter name, value)` from one instrumented run; empty when the
    /// `obs` feature is off.
    pub counters: Vec<(String, u64)>,
}

impl ToJson for BenchRecord {
    fn to_json(&self) -> String {
        let s = match self.s {
            Some(s) => s.to_string(),
            None => "null".to_string(),
        };
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", json_escape(k)))
            .collect();
        format!(
            "{{\"bench\": \"{}\", \"dataset\": \"{}\", \"algorithm\": \"{}\", \"s\": {s}, \
             \"trials\": {}, \"median_seconds\": {}, \"counters\": {{{}}}}}",
            json_escape(&self.bench),
            json_escape(&self.dataset),
            json_escape(&self.algorithm),
            self.trials,
            json_f64(self.median_seconds),
            counters.join(", ")
        )
    }
}

/// Runs one bench cell: a warm-up run with reset counters captures the
/// per-run kernel counter values, then `trials` timed runs produce the
/// median. Counter capture is outside the timed region, so the snapshot
/// cost never leaks into `median_seconds`.
pub fn bench_cell<R>(
    bench: &str,
    dataset: &str,
    algorithm: &str,
    s: Option<usize>,
    trials: usize,
    mut f: impl FnMut() -> R,
) -> BenchRecord {
    nwhy_obs::reset();
    std::hint::black_box(f());
    let counters: Vec<(String, u64)> = nwhy_obs::snapshot()
        .counters
        .into_iter()
        .map(|c| (c.name.to_string(), c.value))
        .collect();
    let median_seconds = median_of(trials, &mut f);
    BenchRecord {
        bench: bench.to_string(),
        dataset: dataset.to_string(),
        algorithm: algorithm.to_string(),
        s,
        trials,
        median_seconds,
        counters,
    }
}

/// Validates a `BENCH_*.json` document against the schema the emitters
/// produce (and CI's bench-smoke job checks): a non-empty array of
/// objects with string `bench`/`dataset`/`algorithm`, integer `trials`,
/// number `median_seconds` ≥ 0, `s` integer or null, and a `counters`
/// object with non-negative integer values.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    use nwhy_obs::json::{parse, Value};
    let doc = parse(text)?;
    let rows = doc.as_array().ok_or("top level must be an array")?;
    if rows.is_empty() {
        return Err("bench JSON must contain at least one record".into());
    }
    for (i, row) in rows.iter().enumerate() {
        for key in ["bench", "dataset", "algorithm"] {
            row.get(key)
                .and_then(Value::as_str)
                .ok_or_else(|| format!("row {i}: missing string field {key:?}"))?;
        }
        row.get("trials")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("row {i}: missing integer field \"trials\""))?;
        let secs = row
            .get("median_seconds")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("row {i}: missing number field \"median_seconds\""))?;
        if secs < 0.0 {
            return Err(format!("row {i}: median_seconds {secs} must be >= 0"));
        }
        match row.get("s") {
            Some(Value::Null) => {}
            Some(v) if v.as_u64().is_some() => {}
            _ => return Err(format!("row {i}: \"s\" must be an integer or null")),
        }
        match row.get("counters") {
            Some(Value::Object(m)) => {
                for (k, v) in m {
                    v.as_u64().ok_or_else(|| {
                        format!("row {i}: counter {k:?} must be a non-negative integer")
                    })?;
                }
            }
            _ => return Err(format!("row {i}: missing object field \"counters\"")),
        }
    }
    Ok(())
}

/// A value that knows how to render itself as a JSON object — the minimal
/// serialization contract the sidecar writer needs.
pub trait ToJson {
    fn to_json(&self) -> String;
}

/// Escapes a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` so it round-trips as a JSON number (JSON has no
/// Infinity/NaN; those degrade to null).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// One timed cell of a scaling figure, serialized into the JSON sidecar
/// so EXPERIMENTS.md can cite exact numbers.
#[derive(Debug, Clone)]
pub struct ScalingCell {
    /// Dataset name.
    pub dataset: String,
    /// Algorithm name.
    pub algorithm: String,
    /// Thread count.
    pub threads: usize,
    /// Best-of-trials runtime in seconds.
    pub seconds: f64,
}

impl ToJson for ScalingCell {
    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\": \"{}\", \"algorithm\": \"{}\", \"threads\": {}, \"seconds\": {}}}",
            json_escape(&self.dataset),
            json_escape(&self.algorithm),
            self.threads,
            json_f64(self.seconds)
        )
    }
}

/// One timed cell of the Fig. 9 comparison.
#[derive(Debug, Clone)]
pub struct SLineCell {
    /// Dataset name.
    pub dataset: String,
    /// Construction algorithm.
    pub algorithm: String,
    /// Overlap threshold s.
    pub s: usize,
    /// Best configuration found (strategy × relabel).
    pub best_config: String,
    /// Best-of-configurations runtime in seconds.
    pub seconds: f64,
    /// Runtime normalized to the Hashmap algorithm's.
    pub relative_to_hashmap: f64,
}

impl ToJson for SLineCell {
    fn to_json(&self) -> String {
        format!(
            "{{\"dataset\": \"{}\", \"algorithm\": \"{}\", \"s\": {}, \"best_config\": \"{}\", \"seconds\": {}, \"relative_to_hashmap\": {}}}",
            json_escape(&self.dataset),
            json_escape(&self.algorithm),
            self.s,
            json_escape(&self.best_config),
            json_f64(self.seconds),
            json_f64(self.relative_to_hashmap)
        )
    }
}

/// Writes a JSON sidecar next to the printed table.
pub fn write_json<T: ToJson>(path: &str, rows: &[T]) {
    let mut s = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        s.push_str("  ");
        s.push_str(&row.to_json());
        if i + 1 < rows.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push(']');
    if let Err(e) = std::fs::write(path, s) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        eprintln!("(wrote {path})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_usize("NWHY_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_u64("NWHY_DOES_NOT_EXIST", 9), 9);
    }

    #[test]
    fn config_thread_counts_start_at_one() {
        let cfg = HarnessConfig {
            scale: 1000,
            trials: 1,
            max_threads: 4,
            seed: 1,
        };
        assert_eq!(cfg.thread_counts(), vec![1, 2, 4]);
    }

    #[test]
    fn best_of_returns_finite_time() {
        let t = best_of(3, || (0..1000u64).sum::<u64>());
        assert!(t.is_finite() && t >= 0.0);
    }

    #[test]
    fn median_of_returns_finite_time() {
        let t = median_of(4, || (0..1000u64).sum::<u64>());
        assert!(t.is_finite() && t >= 0.0);
    }

    fn sample_record(s: Option<usize>) -> BenchRecord {
        BenchRecord {
            bench: "slinegraph".into(),
            dataset: "com-Orkut".into(),
            algorithm: "Hashmap".into(),
            s,
            trials: 5,
            median_seconds: 0.125,
            counters: vec![("sline.pairs_examined".into(), 42)],
        }
    }

    #[test]
    fn bench_record_json_validates() {
        let mut doc = String::from("[\n  ");
        doc.push_str(&sample_record(Some(2)).to_json());
        doc.push_str(",\n  ");
        doc.push_str(&sample_record(None).to_json());
        doc.push_str("\n]");
        validate_bench_json(&doc).unwrap();
    }

    #[test]
    fn bench_schema_rejects_malformed() {
        assert!(validate_bench_json("{}").is_err());
        assert!(validate_bench_json("[]").is_err());
        // missing counters object
        let bad = r#"[{"bench": "b", "dataset": "d", "algorithm": "a",
                       "s": null, "trials": 3, "median_seconds": 0.5}]"#;
        assert!(validate_bench_json(bad).is_err());
        // negative time
        let bad = r#"[{"bench": "b", "dataset": "d", "algorithm": "a",
                       "s": 1, "trials": 3, "median_seconds": -1.0, "counters": {}}]"#;
        assert!(validate_bench_json(bad).is_err());
        // non-integer counter value
        let bad = r#"[{"bench": "b", "dataset": "d", "algorithm": "a",
                       "s": 1, "trials": 3, "median_seconds": 1.0, "counters": {"x": 0.5}}]"#;
        assert!(validate_bench_json(bad).is_err());
    }

    #[test]
    fn bench_cell_captures_counters_and_time() {
        let rec = bench_cell("t", "d", "a", Some(1), 2, || {
            nwhy_obs::incr(nwhy_obs::Counter::SlinePairsExamined);
        });
        assert_eq!(rec.trials, 2);
        assert!(rec.median_seconds >= 0.0);
        if nwhy_obs::enabled() {
            assert!(rec
                .counters
                .iter()
                .any(|(k, v)| k == "sline.pairs_examined" && *v == 1));
        } else {
            assert!(rec.counters.is_empty());
        }
        let doc = format!("[{}]", rec.to_json());
        validate_bench_json(&doc).unwrap();
    }

    #[test]
    fn all_twins_produces_six() {
        let cfg = HarnessConfig {
            scale: 100_000,
            trials: 1,
            max_threads: 1,
            seed: 1,
        };
        let twins = all_twins(&cfg);
        assert_eq!(twins.len(), 6);
        for (p, h) in twins {
            assert!(h.num_hyperedges() >= 16, "{}", p.name);
        }
    }
}
