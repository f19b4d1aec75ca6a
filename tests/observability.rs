//! End-to-end request attribution (ISSUE 9 acceptance fixture): two
//! concurrent queries run under distinct [`RequestCtx`] ids, and the
//! flight recorder's dump partitions every span event — and every
//! driver-loop counter delta — by the correct request id.
#![cfg(feature = "obs")]

use hygra::engine::Mode;
use nwhy::obs::{self, json, RequestCtx};
use nwhy::session::NWHypergraph;

/// The flight ring and registry are process-global, so tests touching
/// them serialize here (mirrors `nwhy-obs`'s own `isolated()` helper).
fn gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn concurrent_queries_partition_flight_events_by_request_id() {
    let _gate = gate();
    // Built before the reset: the flight dump must hold only the queries.
    let hg = NWHypergraph::from_hypergraph(nwhy::core::fixtures::paper_hypergraph());
    obs::reset();

    let bfs_ctx = RequestCtx::new();
    let cc_ctx = RequestCtx::new();
    assert_ne!(bfs_ctx.id(), cc_ctx.id());
    assert_ne!(bfs_ctx.id(), 0);

    std::thread::scope(|scope| {
        let hg = &hg;
        scope.spawn(move || {
            // Scoped style: the ctx wraps the whole query sequence.
            hg.with_ctx(bfs_ctx, |hg| {
                for _ in 0..10 {
                    let r = hygra::hygra_bfs_ctx(hg.hypergraph(), 0, Mode::ForceSparse, None);
                    assert_eq!(r.edge_levels[0], 0);
                }
            });
        });
        scope.spawn(move || {
            // Per-call style: the ctx is handed to each kernel; both
            // styles must attribute identically.
            for _ in 0..10 {
                let r = hygra::hygra_cc_ctx(hg.hypergraph(), Some(cc_ctx));
                assert_eq!(r.num_components(), 1);
            }
        });
    });

    let trace = obs::flight_chrome_trace(4096);
    let doc = json::parse(&trace).expect("chrome trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut bfs_spans = 0usize;
    let mut cc_spans = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(json::Value::as_str).expect("ph");
        let name = ev.get("name").and_then(json::Value::as_str).expect("name");
        let req = ev
            .get("args")
            .and_then(|a| a.get("req"))
            .and_then(json::Value::as_u64)
            .expect("args.req");
        match ph {
            // span open ("i") / close ("X") events must partition exactly
            "i" | "X" => {
                if name.contains("hygra.bfs") {
                    assert_eq!(req, bfs_ctx.id(), "bfs span `{name}` mis-attributed");
                    bfs_spans += 1;
                } else if name.contains("hygra.cc") {
                    assert_eq!(req, cc_ctx.id(), "cc span `{name}` mis-attributed");
                    cc_spans += 1;
                } else {
                    panic!("unexpected span `{name}` in flight dump");
                }
            }
            // counter deltas fire on the driver threads, inside the ctx
            "C" => {
                if name.starts_with("bfs.") {
                    assert_eq!(req, bfs_ctx.id(), "counter `{name}` mis-attributed");
                } else if name.starts_with("cc.") {
                    assert_eq!(req, cc_ctx.id(), "counter `{name}` mis-attributed");
                } else {
                    panic!("unexpected counter `{name}` in flight dump");
                }
            }
            other => panic!("unexpected phase `{other}`"),
        }
    }
    // 10 runs × (1 open + 1 close) per side, nothing dropped: the ring
    // holds 4096 slots and this workload records far fewer events.
    assert_eq!(bfs_spans, 20);
    assert_eq!(cc_spans, 20);

    obs::reset();
}

#[test]
fn sline_builder_ctx_attributes_build_spans() {
    let _gate = gate();
    // Built before the reset: the flight dump must hold only the queries.
    let hg = NWHypergraph::from_hypergraph(nwhy::core::fixtures::paper_hypergraph());
    obs::reset();

    let ctx = RequestCtx::new();
    let pairs = nwhy::core::SLineBuilder::new(hg.hypergraph())
        .s(2)
        .ctx(ctx)
        .edges();
    assert!(!pairs.is_empty());

    let events = obs::flight_drain_last(4096);
    assert!(!events.is_empty());
    let span_reqs: Vec<u64> = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                obs::FlightKind::SpanOpen | obs::FlightKind::SpanClose
            )
        })
        .map(|e| e.req)
        .collect();
    assert!(!span_reqs.is_empty());
    assert!(
        span_reqs.iter().all(|&r| r == ctx.id()),
        "sline build spans must carry the builder's ctx: {span_reqs:?}"
    );

    obs::reset();
}
