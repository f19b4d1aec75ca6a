//! Span coverage of the load → adjoin path and of the edge-list emit:
//! decoding a binary file, each representation build it triggers, the
//! adjoin BFS/CC kernels run on it, and writing an s-line edge list
//! report their own span, so `--metrics` shows every step instead of one
//! opaque reader span. The text readers' `io.*` counters are pinned too.
#![cfg(feature = "obs")]

use nwhy_core::algorithms::{adjoin_bfs, adjoin_cc_afforest, adjoin_cc_label_propagation};
use nwhy_core::fixtures::paper_hypergraph;
use nwhy_core::{AdjoinGraph, Algorithm, HyperedgeId, Hypergraph, SLineBuilder};
use nwhy_obs::Counter;
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
    let h = Hypergraph::from_memberships(&[vec![0], vec![1], vec![2], vec![0, 2]]);
    for algorithm in [Algorithm::Hashmap, Algorithm::Naive] {
        let mut out = Vec::new();
        let builder = SLineBuilder::new(&h).s(1).algorithm(algorithm);
        nwhy_io::write_sline_edges(&mut out, &builder).unwrap();
        assert_eq!(out, b"0\t3\n2\t3\n");
    }
    let paths = span_paths();
    assert!(
        paths.iter().any(|p| p == "emit"),
        "emit missing from {paths:?}"
    );
}

/// `(io.lines_parsed, io.bytes_read, io.incidences_read)` after `read`.
fn io_counters(read: impl FnOnce()) -> [u64; 3] {
    nwhy_obs::reset();
    read();
    [
        Counter::IoLinesParsed,
        Counter::IoBytesRead,
        Counter::IoIncidencesRead,
    ]
    .map(nwhy_obs::counter_value)
}

#[test]
fn text_readers_count_their_lines_bytes_and_incidences() {
    let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // every line, each counted with one terminator byte; the incidences
    // after the row's dedup
    let hgr = io_counters(|| {
        nwhy_io::read_hyperedge_list(Cursor::new("# c\n0 1\n\n2 2\n")).unwrap();
    });
    assert_eq!(hgr, [4, 13, 3]);
    // the entry lines after the dimension line only, comments included
    let mtx = io_counters(|| {
        let mm = "%%MatrixMarket matrix coordinate pattern general\n% c\n3 2 2\n1 1\n% mid\n2 2\n";
        nwhy_io::read_matrix_market(Cursor::new(mm)).unwrap();
    });
    assert_eq!(mtx, [3, 14, 2]);
    let tsv = io_counters(|| {
        let tsv = "% h\n1 1\n2 1\n";
        nwhy_io::read_bipartite_tsv(Cursor::new(tsv), nwhy_io::tsv::Orientation::NodeEdge).unwrap();
    });
    assert_eq!(tsv, [3, 12, 2]);
}
