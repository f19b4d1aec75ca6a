//! Behavior of the live registry. The registry is process-global, so
//! every test serializes on one mutex and starts from `reset()`.

#![cfg(feature = "enabled")]

use std::sync::Mutex;

use nwhy_obs::{json, Counter, Hist};

static GATE: Mutex<()> = Mutex::new(());

fn isolated<R>(f: impl FnOnce() -> R) -> R {
    let _guard = GATE.lock().unwrap_or_else(|p| p.into_inner());
    nwhy_obs::reset();
    let out = f();
    nwhy_obs::reset();
    out
}

#[test]
fn enabled_is_const_true() {
    // Evaluated at compile time: proves enabled() is const-foldable,
    // which is what lets `if nwhy_obs::enabled()` guards vanish.
    const { assert!(nwhy_obs::enabled()) }
}

#[test]
fn counters_accumulate_and_reset() {
    isolated(|| {
        nwhy_obs::add(Counter::SlinePairsExamined, 5);
        nwhy_obs::incr(Counter::SlinePairsExamined);
        nwhy_obs::add(Counter::IoBytesRead, 0); // zero adds are dropped
        assert_eq!(nwhy_obs::counter_value(Counter::SlinePairsExamined), 6);
        let snap = nwhy_obs::snapshot();
        assert_eq!(snap.counter("sline.pairs_examined"), Some(6));
        assert_eq!(snap.counter("io.bytes_read"), None);
        nwhy_obs::reset();
        assert_eq!(nwhy_obs::counter_value(Counter::SlinePairsExamined), 0);
    });
}

#[test]
fn span_open_across_a_reset_closes_quietly() {
    isolated(|| {
        let s = nwhy_obs::span("reset.straddle");
        nwhy_obs::reset();
        drop(s);
        assert!(nwhy_obs::snapshot().span("reset.straddle").is_none());
    });
}

#[test]
fn counters_sum_across_threads() {
    isolated(|| {
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        nwhy_obs::incr(Counter::SlineQueuePushes);
                    }
                });
            }
        });
        assert_eq!(nwhy_obs::counter_value(Counter::SlineQueuePushes), 4_000);
    });
}

#[test]
fn spans_nest_into_slash_paths() {
    isolated(|| {
        {
            let _outer = nwhy_obs::span("phase.outer");
            {
                let _inner = nwhy_obs::span("phase.inner");
            }
            {
                let _inner = nwhy_obs::span("phase.inner");
            }
        }
        // A sibling root span with the same leaf name as the child:
        // interning is by (parent, name), so it gets its own path.
        {
            let _lone = nwhy_obs::span("phase.inner");
        }
        let snap = nwhy_obs::snapshot();
        let nested = snap.span("phase.outer/phase.inner").expect("nested path");
        assert_eq!(nested.count, 2);
        assert_eq!(snap.span("phase.outer").expect("outer").count, 1);
        assert_eq!(snap.span("phase.inner").expect("root sibling").count, 1);
        assert!(nested.total_seconds >= 0.0);
        // The quantile row of a leaf merges every path ending in it.
        assert_eq!(snap.quantile("phase.inner").expect("leaf row").count, 3);
        assert_eq!(snap.quantile("phase.outer").expect("leaf row").count, 1);
    });
}

#[test]
fn spans_feed_the_chrome_trace() {
    isolated(|| {
        {
            let _a = nwhy_obs::span("trace.a");
            let _b = nwhy_obs::span("trace.b");
        }
        let events = nwhy_obs::take_trace();
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        // Inner span drops first, so it lands first.
        assert_eq!(names, ["trace.b", "trace.a"]);
        // take_trace drains.
        assert!(nwhy_obs::take_trace().is_empty());
        // And the rendering is parseable JSON.
        let doc = nwhy_obs::to_chrome_trace(&events);
        let v = json::parse(&doc).expect("chrome trace parses");
        assert_eq!(v.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
    });
}

#[test]
fn histograms_bucket_by_power_of_two() {
    isolated(|| {
        for v in [0, 1, 2, 3, 8, 1_000] {
            nwhy_obs::observe(Hist::BfsFrontierEdges, v);
        }
        let snap = nwhy_obs::snapshot();
        let h = snap
            .hists
            .iter()
            .find(|h| h.name == "bfs.frontier_edges")
            .expect("histogram present");
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1_014);
        assert_eq!(h.max, 1_000);
        // 0 | 1 | {2,3} | 8 | 1000 → buckets (0,1) (1,1) (3,2) (15,1) (1023,1)
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (3, 2), (15, 1), (1023, 1)]);
    });
}

#[test]
fn repeated_snapshots_are_identical() {
    // Satellite: snapshot ordering is deterministic — two snapshots of
    // the same registry state must be equal, and every rendering
    // byte-identical (so BENCH_*.json diffs never churn).
    isolated(|| {
        nwhy_obs::add(Counter::IoBytesRead, 11);
        nwhy_obs::add(Counter::SlinePairsExamined, 3);
        nwhy_obs::observe(Hist::CcFrontier, 9);
        nwhy_obs::observe(Hist::BfsFrontierEdges, 2);
        {
            let _s = nwhy_obs::span("snap.z");
        }
        {
            let _s = nwhy_obs::span("snap.a");
        }
        let a = nwhy_obs::snapshot();
        let b = nwhy_obs::snapshot();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(
            nwhy_obs::render_prometheus(&a),
            nwhy_obs::render_prometheus(&b)
        );
        // and sections are sorted by key regardless of recording order
        let counter_names: Vec<&str> = a.counters.iter().map(|c| c.name).collect();
        let mut sorted = counter_names.clone();
        sorted.sort_unstable();
        assert_eq!(counter_names, sorted);
        let ops: Vec<&str> = a.quantiles.iter().map(|q| q.op.as_str()).collect();
        assert_eq!(ops, ["snap.a", "snap.z"]);
        let paths: Vec<&str> = a.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["snap.a", "snap.z"]);
    });
}

#[test]
fn span_quantiles_surface_in_snapshot_and_prom() {
    isolated(|| {
        for _ in 0..98 {
            let _s = nwhy_obs::span("query.sline");
        }
        for _ in 0..2 {
            let _s = nwhy_obs::span("query.sline");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let snap = nwhy_obs::snapshot();
        let q = snap.quantile("query.sline").expect("span leaf row present");
        assert_eq!(q.count, 100);
        let (p50, p99) = (q.p50.expect("p50"), q.p99.expect("p99"));
        assert!(p50 < 5_000, "98 of 100 closes are instant: p50 {p50}");
        assert!(p99 >= 5_000, "the 99th close slept 5 ms: p99 {p99}");
        assert!(p99 <= q.max, "quantiles never exceed the max");
        let doc = nwhy_obs::render_prometheus(&snap);
        assert!(doc.contains(&format!(
            "nwhy_op_latency_microseconds{{op=\"query.sline\",quantile=\"0.99\"}} {p99}\n"
        )));
        assert!(doc.contains("nwhy_op_latency_microseconds_count{op=\"query.sline\"} 100\n"));
        let v = json::parse(&snap.to_json()).expect("snapshot JSON parses");
        let quantiles = v.get("quantiles").unwrap().as_array().unwrap();
        assert_eq!(
            quantiles[0].get("op").unwrap().as_str(),
            Some("query.sline")
        );
        assert_eq!(quantiles[0].get("count").unwrap().as_u64(), Some(100));
        assert_eq!(quantiles[0].get("p99").unwrap().as_u64(), Some(p99));
    });
}

#[test]
fn span_quantiles_cover_closes_on_both_sides_of_a_snapshot() {
    isolated(|| {
        {
            let _s = nwhy_obs::span("aging.op");
        }
        assert_eq!(nwhy_obs::snapshot().quantile("aging.op").unwrap().count, 1);
        {
            let _s = nwhy_obs::span("aging.op");
        }
        let q = nwhy_obs::snapshot();
        assert_eq!(q.quantile("aging.op").unwrap().count, 2);
        assert_eq!(q.span("aging.op").unwrap().count, 2);
    });
}

#[test]
fn live_snapshot_json_round_trips() {
    isolated(|| {
        nwhy_obs::add(Counter::SlineEdgesEmitted, 12);
        nwhy_obs::observe(Hist::CcFrontier, 4);
        {
            let _s = nwhy_obs::span("roundtrip.phase");
        }
        let snap = nwhy_obs::snapshot();
        let v = json::parse(&snap.to_json()).expect("metrics JSON parses");
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("sline.edges_emitted")
                .unwrap()
                .as_u64(),
            Some(12)
        );
        let spans = v.get("spans").unwrap().as_array().unwrap();
        assert!(spans
            .iter()
            .any(|s| s.get("path").unwrap().as_str() == Some("roundtrip.phase")));
        let hists = v.get("histograms").unwrap().as_array().unwrap();
        assert_eq!(hists[0].get("name").unwrap().as_str(), Some("cc.frontier"));
    });
}
