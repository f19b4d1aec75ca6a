//! Span coverage of the load → adjoin path: decoding a binary file and
//! each representation build it triggers report their own span, so
//! `--metrics` shows every step instead of one opaque reader span.
#![cfg(feature = "obs")]

use nwhy_core::fixtures::paper_hypergraph;
use nwhy_core::AdjoinGraph;
use std::io::Cursor;

#[test]
fn load_and_adjoin_report_one_span_per_build() {
    let mut buf = Vec::new();
    nwhy_io::write_binary(&mut buf, &paper_hypergraph()).unwrap();
    nwhy_obs::reset();
    let h = nwhy_io::read_binary(Cursor::new(buf)).unwrap();
    let _ = AdjoinGraph::from_hypergraph(&h);
    let snap = nwhy_obs::snapshot();
    for name in ["io.decode", "build.csr", "build.transpose", "build.adjoin"] {
        assert!(
            snap.spans.iter().any(|s| s.path == name),
            "span {name} missing from {:?}",
            snap.spans.iter().map(|s| &s.path).collect::<Vec<_>>()
        );
    }
}
