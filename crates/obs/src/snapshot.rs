//! Point-in-time metric snapshots and their renderings.
//!
//! [`MetricsSnapshot`] is the single exchange type between the registry
//! and every sink: the CLI's `--metrics=text|json`, the bench harness's
//! `BENCH_*.json` counter columns, and tests. It is always compiled —
//! with the `enabled` feature off, [`crate::snapshot`] simply returns an
//! empty one.

use crate::json::{escape, fmt_f64};

/// One counter's summed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Stable dotted name (see [`crate::Counter::name`]).
    pub name: &'static str,
    /// Total of every bump.
    pub value: u64,
}

/// Aggregated wall time for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// `/`-joined nesting path, e.g. `cli.sline/sline.hashmap`.
    pub path: String,
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total wall seconds across those spans.
    pub total_seconds: f64,
}

/// One histogram's bucketed distribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Stable dotted name (see [`crate::Hist::name`]).
    pub name: &'static str,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// `(inclusive_upper_bound, count)` for each non-empty power-of-two
    /// bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

/// Latency quantiles for one span leaf name, over every close of every
/// path ending in it since the last [`crate::reset`].
///
/// Quantile fields are `None` for a row with no observations — rendered
/// as JSON `null` and omitted from the Prometheus gauges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSnapshot {
    /// Span leaf name.
    pub op: String,
    /// Closes of spans with this leaf name.
    pub count: u64,
    /// Median latency (µs, pow2-bucket upper bound).
    pub p50: Option<u64>,
    /// 90th-percentile latency (µs).
    pub p90: Option<u64>,
    /// 99th-percentile latency (µs).
    pub p99: Option<u64>,
    /// Longest close (µs, exact).
    pub max: u64,
}

/// Everything the registry knows at one instant.
///
/// Every section is sorted by its key (counter name, span path,
/// histogram name, op name) so two snapshots of the same state are
/// equal byte-for-byte in every rendering — `BENCH_*.json` diffs and
/// the perf gate never churn on iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Non-zero counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Completed-span aggregates, sorted by path.
    pub spans: Vec<SpanSnapshot>,
    /// Non-empty histograms, sorted by name.
    pub hists: Vec<HistSnapshot>,
    /// Span latency quantiles, sorted by op name.
    pub quantiles: Vec<QuantileSnapshot>,
}

impl MetricsSnapshot {
    /// The value of a counter by name (`None` if it never fired).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The aggregate for a span path by exact path string.
    pub fn span(&self, path: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// The latency quantiles for an op by exact name.
    pub fn quantile(&self, op: &str) -> Option<&QuantileSnapshot> {
        self.quantiles.iter().find(|q| q.op == op)
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.spans.is_empty()
            && self.hists.is_empty()
            && self.quantiles.is_empty()
    }

    /// Human-readable rendering, one item per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no metrics recorded)\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            let width = self
                .counters
                .iter()
                .map(|c| c.name.len())
                .max()
                .unwrap_or(0);
            for c in &self.counters {
                out.push_str(&format!("  {:width$}  {}\n", c.name, c.value));
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            let width = self.spans.iter().map(|s| s.path.len()).max().unwrap_or(0);
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:width$}  {:>6}x  {:.6}s\n",
                    s.path, s.count, s.total_seconds
                ));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.hists {
                let mean = if h.count == 0 {
                    0.0
                } else {
                    h.sum as f64 / h.count as f64
                };
                out.push_str(&format!(
                    "  {}  n={} mean={mean:.1} max={}\n",
                    h.name, h.count, h.max
                ));
                for &(ub, n) in &h.buckets {
                    out.push_str(&format!("    <= {ub:>12}  {n}\n"));
                }
            }
        }
        if !self.quantiles.is_empty() {
            out.push_str("latency (span closes, \u{b5}s):\n");
            let width = self.quantiles.iter().map(|q| q.op.len()).max().unwrap_or(0);
            for q in &self.quantiles {
                let fmt = |v: Option<u64>| v.map_or_else(|| "-".into(), |v| v.to_string());
                out.push_str(&format!(
                    "  {:width$}  n={} p50={} p90={} p99={} max={}\n",
                    q.op,
                    q.count,
                    fmt(q.p50),
                    fmt(q.p90),
                    fmt(q.p99),
                    q.max
                ));
            }
        }
        out
    }

    /// JSON rendering: `{"counters": {..}, "spans": [..], "histograms": [..]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape(c.name), c.value));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": \"{}\", \"count\": {}, \"total_seconds\": {}}}",
                escape(&s.path),
                s.count,
                fmt_f64(s.total_seconds)
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"histograms\": [");
        for (i, h) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|&(ub, n)| format!("[{ub}, {n}]"))
                .collect();
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [{}]}}",
                escape(h.name),
                h.count,
                h.sum,
                h.max,
                buckets.join(", ")
            ));
        }
        if !self.hists.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"quantiles\": [");
        for (i, q) in self.quantiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // None (no observations) goes through fmt_f64's non-finite
            // path so it lands in the document as JSON null.
            let qf = |v: Option<u64>| {
                // lint: pow2 bucket bounds survive the f64 round-trip at
                // diagnostic precision
                #[allow(clippy::cast_precision_loss)]
                fmt_f64(v.map_or(f64::NAN, |v| v as f64))
            };
            out.push_str(&format!(
                "\n    {{\"op\": \"{}\", \"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                escape(&q.op),
                q.count,
                qf(q.p50),
                qf(q.p90),
                qf(q.p99),
                q.max
            ));
        }
        if !self.quantiles.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                CounterSnapshot {
                    name: "sline.pairs_examined",
                    value: 6,
                },
                CounterSnapshot {
                    name: "io.bytes_read",
                    value: 1024,
                },
            ],
            spans: vec![SpanSnapshot {
                path: "cli.sline/sline.hashmap".into(),
                count: 1,
                total_seconds: 0.25,
            }],
            hists: vec![HistSnapshot {
                name: "bfs.frontier_edges",
                count: 3,
                sum: 11,
                max: 8,
                buckets: vec![(1, 1), (2, 1), (8, 1)],
            }],
            quantiles: vec![
                QuantileSnapshot {
                    op: "sline.hashmap".into(),
                    count: 10,
                    p50: Some(127),
                    p90: Some(255),
                    p99: Some(4095),
                    max: 3000,
                },
                QuantileSnapshot {
                    op: "empty.op".into(),
                    count: 0,
                    p50: None,
                    p90: None,
                    p99: None,
                    max: 0,
                },
            ],
        }
    }

    #[test]
    fn text_mentions_every_item() {
        let t = sample().to_text();
        assert!(t.contains("sline.pairs_examined"));
        assert!(t.contains("cli.sline/sline.hashmap"));
        assert!(t.contains("bfs.frontier_edges"));
    }

    #[test]
    fn json_round_trips_through_parser() {
        let s = sample();
        let v = parse(&s.to_json()).expect("snapshot JSON must parse");
        let counters = v.get("counters").expect("counters key");
        assert_eq!(
            counters.get("sline.pairs_examined").unwrap().as_u64(),
            Some(6)
        );
        assert_eq!(counters.get("io.bytes_read").unwrap().as_u64(), Some(1024));
        let spans = v.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("path").unwrap().as_str(),
            Some("cli.sline/sline.hashmap")
        );
        let hists = v.get("histograms").unwrap().as_array().unwrap();
        assert_eq!(hists[0].get("max").unwrap().as_u64(), Some(8));
        let buckets = hists[0].get("buckets").unwrap().as_array().unwrap();
        assert_eq!(buckets.len(), 3);
        let quantiles = v.get("quantiles").unwrap().as_array().unwrap();
        assert_eq!(quantiles.len(), 2);
        assert_eq!(quantiles[0].get("p99").unwrap().as_u64(), Some(4095));
        // An empty row's quantile is JSON null, not an invalid token —
        // and the whole doc still parses.
        assert_eq!(quantiles[1].get("p50"), Some(&Value::Null));
    }

    #[test]
    fn empty_snapshot_renders() {
        let e = MetricsSnapshot::default();
        assert!(e.is_empty());
        assert!(e.to_text().contains("no metrics"));
        let v = parse(&e.to_json()).unwrap();
        assert!(matches!(v.get("counters"), Some(Value::Object(o)) if o.is_empty()));
    }

    #[test]
    fn counter_lookup() {
        let s = sample();
        assert_eq!(s.counter("io.bytes_read"), Some(1024));
        assert_eq!(s.counter("nope"), None);
        assert!(s.span("cli.sline/sline.hashmap").is_some());
    }
}
