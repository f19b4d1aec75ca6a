//! Span coverage of the load → adjoin path and of the edge-list emit:
//! decoding a binary file, each representation build it triggers, the
//! adjoin BFS/CC kernels run on it, and writing an s-line edge list
//! report their own span, so `--metrics` shows every step instead of one
//! opaque reader span.
#![cfg(feature = "obs")]

use nwhy_core::algorithms::{adjoin_bfs, adjoin_cc_afforest, adjoin_cc_label_propagation};
use nwhy_core::fixtures::paper_hypergraph;
use nwhy_core::{AdjoinGraph, HyperedgeId};
use std::io::Cursor;
use std::sync::Mutex;

/// The obs registry is process-global; serialize tests that reset it.
static GATE: Mutex<()> = Mutex::new(());

fn span_paths() -> Vec<String> {
    nwhy_obs::snapshot()
        .spans
        .iter()
        .map(|s| s.path.clone())
        .collect()
}

#[test]
fn load_and_adjoin_report_one_span_per_build() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut buf = Vec::new();
    nwhy_io::write_binary(&mut buf, &paper_hypergraph()).unwrap();
    nwhy_obs::reset();
    let h = nwhy_io::read_binary(Cursor::new(buf)).unwrap();
    let a = AdjoinGraph::from_hypergraph(&h);
    let _ = adjoin_bfs(&a, HyperedgeId::new(0));
    let _ = adjoin_cc_afforest(&a);
    let _ = adjoin_cc_label_propagation(&a);
    let paths = span_paths();
    for name in [
        "io.decode",
        "build.csr",
        "build.transpose",
        "build.adjoin",
        "algo.adjoin_bfs",
        "algo.adjoin_cc.afforest",
        "algo.adjoin_cc.lp",
    ] {
        assert!(
            paths.iter().any(|p| p == name),
            "span {name} missing from {paths:?}"
        );
    }
}

#[test]
fn edge_list_write_reports_emit_span() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    nwhy_obs::reset();
    let mut out = Vec::new();
    nwhy_io::write_edge_list(&mut out, &[(0, 3), (1, 2)]).unwrap();
    assert_eq!(out, b"0\t3\n1\t2\n");
    let paths = span_paths();
    assert!(
        paths.iter().any(|p| p == "emit"),
        "emit missing from {paths:?}"
    );
}
