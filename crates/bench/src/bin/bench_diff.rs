//! `bench_diff <OLD.json> <NEW.json> [--threshold PCT]` — the CI perf
//! gate (see [`nwhy_bench::bench_diff`]): compares two `BENCH_*.json`
//! counter files and exits non-zero when any kernel counter grew more
//! than the threshold (default 15%, also settable via
//! `NWHY_BENCH_DIFF_THRESHOLD`).
//!
//! ```text
//! cargo run --release -p nwhy-bench --bin bench_diff -- \
//!     BENCH_slinegraph.json crates/bench/BENCH_slinegraph.json
//! ```
//!
//! Exit codes: 0 = no regression, 1 = regression, 2 = usage or read error.

use nwhy_bench::bench_diff::{diff, resolve_threshold};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut threshold: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--threshold" {
            threshold = args.next().and_then(|v| v.parse().ok());
            if threshold.is_none() {
                eprintln!("bench-diff: --threshold needs a number");
                return ExitCode::from(2);
            }
        } else if let Some(v) = a.strip_prefix("--threshold=") {
            match v.parse() {
                Ok(t) => threshold = Some(t),
                Err(_) => {
                    eprintln!("bench-diff: --threshold needs a number");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(a);
        }
    }
    let [old, new] = paths.as_slice() else {
        eprintln!("usage: bench_diff <OLD.json> <NEW.json> [--threshold PCT]");
        return ExitCode::from(2);
    };
    let threshold = resolve_threshold(threshold);
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let report = read(old)
        .and_then(|o| read(new).map(|n| (o, n)))
        .and_then(|(o, n)| diff(&o, &n, threshold));
    match report {
        Err(e) => {
            eprintln!("bench-diff: {e}");
            ExitCode::from(2)
        }
        Ok(r) => {
            for v in &r.violations {
                println!("REGRESSION {v}");
            }
            for k in &r.added_rows {
                println!("new row (not gated): {k}");
            }
            eprintln!(
                "bench-diff: {} counter(s) compared at +{threshold}% threshold, \
                 {} regression(s)",
                r.compared,
                r.violations.len()
            );
            if r.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
