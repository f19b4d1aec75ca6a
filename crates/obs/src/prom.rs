//! Prometheus text exposition (format version 0.0.4) for
//! [`MetricsSnapshot`].
//!
//! Dependency-free renderer following the exposition spec:
//!
//! - metric names are the dotted registry names with `.` → `_` under the
//!   `nwhy_` namespace, `_total`-suffixed for counters;
//! - every family gets `# HELP` and `# TYPE` comment lines;
//! - histograms render as cumulative `_bucket{le="…"}` series ending in
//!   `le="+Inf"`, plus `_sum` and `_count`;
//! - span latency quantiles render as gauges labelled
//!   `{op="…",quantile="0.5|0.9|0.99"}` plus per-op `_count`/`_max`
//!   gauges (an empty row emits only the `_count 0` sample — a gauge of
//!   nothing, never `NaN`);
//! - label values escape `\`, `"` and newlines per the spec.
//!
//! Snapshot sections are already key-sorted, so the rendering is
//! byte-stable across repeated scrapes of the same state.

use crate::snapshot::MetricsSnapshot;

/// Maps a dotted registry name into the Prometheus namespace:
/// `sline.pairs_examined` → `nwhy_sline_pairs_examined`.
fn metric_name(dotted: &str) -> String {
    let mut out = String::with_capacity(dotted.len() + 5);
    out.push_str("nwhy_");
    for c in dotted.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition spec (`\` → `\\`,
/// `"` → `\"`, newline → `\n`).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a sample value. Prometheus accepts integers and Go-syntax
/// floats; non-finite values never reach this (callers skip them).
fn sample_f64(x: f64) -> String {
    format!("{x}")
}

/// Renders a snapshot as a Prometheus text-format exposition document.
pub fn render_prometheus(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();

    for c in &snap.counters {
        let name = metric_name(c.name) + "_total";
        out.push_str(&format!(
            "# HELP {name} Cumulative nwhy counter {orig}.\n# TYPE {name} counter\n{name} {}\n",
            c.value,
            orig = c.name
        ));
    }

    if !snap.spans.is_empty() {
        out.push_str(
            "# HELP nwhy_span_seconds_total Cumulative wall seconds per span path.\n\
             # TYPE nwhy_span_seconds_total counter\n",
        );
        for s in &snap.spans {
            out.push_str(&format!(
                "nwhy_span_seconds_total{{path=\"{}\"}} {}\n",
                escape_label(&s.path),
                sample_f64(s.total_seconds)
            ));
        }
        out.push_str(
            "# HELP nwhy_span_count_total Completed spans per span path.\n\
             # TYPE nwhy_span_count_total counter\n",
        );
        for s in &snap.spans {
            out.push_str(&format!(
                "nwhy_span_count_total{{path=\"{}\"}} {}\n",
                escape_label(&s.path),
                s.count
            ));
        }
    }

    for h in &snap.hists {
        let name = metric_name(h.name);
        out.push_str(&format!(
            "# HELP {name} Power-of-two distribution {orig}.\n# TYPE {name} histogram\n",
            orig = h.name
        ));
        let mut cumulative = 0u64;
        for &(ub, n) in &h.buckets {
            cumulative += n;
            // The top pow2 bucket's bound is u64::MAX; fold it into +Inf
            // rather than printing an 20-digit le few scrapers parse.
            if ub == u64::MAX {
                continue;
            }
            out.push_str(&format!("{name}_bucket{{le=\"{ub}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{name}_sum {}\n", h.sum));
        out.push_str(&format!("{name}_count {}\n", h.count));
    }

    if !snap.quantiles.is_empty() {
        out.push_str(
            "# HELP nwhy_op_latency_microseconds Span close latency quantiles per leaf name.\n\
             # TYPE nwhy_op_latency_microseconds gauge\n",
        );
        for q in &snap.quantiles {
            let op = escape_label(&q.op);
            for (label, v) in [("0.5", q.p50), ("0.9", q.p90), ("0.99", q.p99)] {
                if let Some(v) = v {
                    out.push_str(&format!(
                        "nwhy_op_latency_microseconds{{op=\"{op}\",quantile=\"{label}\"}} {v}\n"
                    ));
                }
            }
        }
        out.push_str(
            "# HELP nwhy_op_latency_microseconds_count Span closes per leaf name.\n\
             # TYPE nwhy_op_latency_microseconds_count gauge\n",
        );
        for q in &snap.quantiles {
            out.push_str(&format!(
                "nwhy_op_latency_microseconds_count{{op=\"{}\"}} {}\n",
                escape_label(&q.op),
                q.count
            ));
        }
        out.push_str(
            "# HELP nwhy_op_latency_microseconds_max Longest span close per leaf name.\n\
             # TYPE nwhy_op_latency_microseconds_max gauge\n",
        );
        for q in &snap.quantiles {
            if q.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "nwhy_op_latency_microseconds_max{{op=\"{}\"}} {}\n",
                escape_label(&q.op),
                q.max
            ));
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{CounterSnapshot, HistSnapshot, QuantileSnapshot, SpanSnapshot};

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![CounterSnapshot {
                name: "sline.pairs_examined",
                value: 6,
            }],
            spans: vec![SpanSnapshot {
                path: "cli.sline/sline.hashmap".into(),
                count: 2,
                total_seconds: 0.25,
            }],
            hists: vec![HistSnapshot {
                name: "bfs.frontier_edges",
                count: 3,
                sum: 11,
                max: 8,
                buckets: vec![(1, 1), (3, 1), (u64::MAX, 1)],
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
    fn counters_become_total_series() {
        let doc = render_prometheus(&sample());
        assert!(doc.contains("# TYPE nwhy_sline_pairs_examined_total counter\n"));
        assert!(doc.contains("nwhy_sline_pairs_examined_total 6\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_in_inf() {
        let doc = render_prometheus(&sample());
        assert!(doc.contains("# TYPE nwhy_bfs_frontier_edges histogram\n"));
        assert!(doc.contains("nwhy_bfs_frontier_edges_bucket{le=\"1\"} 1\n"));
        assert!(doc.contains("nwhy_bfs_frontier_edges_bucket{le=\"3\"} 2\n"));
        assert!(doc.contains("nwhy_bfs_frontier_edges_bucket{le=\"+Inf\"} 3\n"));
        assert!(doc.contains("nwhy_bfs_frontier_edges_sum 11\n"));
        assert!(doc.contains("nwhy_bfs_frontier_edges_count 3\n"));
    }

    #[test]
    fn quantiles_become_labelled_gauges() {
        let doc = render_prometheus(&sample());
        assert!(doc.contains(
            "nwhy_op_latency_microseconds{op=\"sline.hashmap\",quantile=\"0.99\"} 4095\n"
        ));
        assert!(doc.contains("nwhy_op_latency_microseconds_count{op=\"sline.hashmap\"} 10\n"));
        assert!(doc.contains("nwhy_op_latency_microseconds_max{op=\"sline.hashmap\"} 3000\n"));
        // empty row: count sample only, no NaN gauges
        assert!(doc.contains("nwhy_op_latency_microseconds_count{op=\"empty.op\"} 0\n"));
        assert!(!doc.contains("quantile=\"0.5\"} NaN"));
        assert!(!doc.contains("NaN"));
        assert!(!doc.contains("_max{op=\"empty.op\"}"));
    }

    #[test]
    fn label_values_escape_spec_characters() {
        assert_eq!(escape_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        let snap = MetricsSnapshot {
            spans: vec![SpanSnapshot {
                path: "odd\"path\\with\nnewline".into(),
                count: 1,
                total_seconds: 1.0,
            }],
            ..MetricsSnapshot::default()
        };
        let doc = render_prometheus(&snap);
        assert!(doc.contains("path=\"odd\\\"path\\\\with\\nnewline\""));
    }

    #[test]
    fn empty_snapshot_renders_empty_document() {
        assert_eq!(render_prometheus(&MetricsSnapshot::default()), "");
    }

    #[test]
    fn rendering_is_deterministic() {
        let s = sample();
        assert_eq!(render_prometheus(&s), render_prometheus(&s));
    }
}
