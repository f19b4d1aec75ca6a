//! Fail-closed opens: no truncation and no single-bit flip of a packed
//! image can make a kernel panic. Each mutated image either fails to
//! open with a typed error, or opens — the open walk having proved it
//! codec-valid — and then serves s-line construction, BFS, CC, and
//! `Validate`.

use nwhy_core::algorithms::{hyper_bfs_bottom_up, hyper_bfs_top_down, hyper_cc};
use nwhy_core::fixtures::paper_hypergraph;
use nwhy_core::validate::Validate;
use nwhy_core::{BiEdgeList, Hypergraph, SLineBuilder};
use nwhy_store::{pack_hypergraph, CompressedHypergraph};

fn weighted_fixture() -> Hypergraph {
    let incidences = vec![
        (0, 1),
        (0, 4),
        (1, 1),
        (1, 2),
        (2, 0),
        (2, 4),
        (2, 5),
        (4, 3),
    ];
    let weights = (0..incidences.len())
        .map(|i| i as f64 * 0.5 - 1.0)
        .collect();
    Hypergraph::from_biedgelist(&BiEdgeList::from_weighted_incidences(
        5, 6, incidences, weights,
    ))
}

/// Opens `img`; when it opens, runs the kernels over it. Returns whether
/// it opened.
fn open_and_query(img: Vec<u8>) -> bool {
    let Ok(c) = CompressedHypergraph::from_bytes(img) else {
        return false;
    };
    let _ = SLineBuilder::new(&c).s(1).edges();
    if c.num_hyperedges() > 0 {
        hyper_bfs_top_down(&c, 0);
        hyper_bfs_bottom_up(&c, 0);
    }
    hyper_cc(&c);
    let _ = c.validate();
    true
}

#[test]
fn every_truncation_and_bit_flip_errors_or_serves_queries() {
    for (name, h) in [
        ("paper", paper_hypergraph()),
        ("weighted", weighted_fixture()),
    ] {
        let img = pack_hypergraph(&h);
        assert!(open_and_query(img.clone()), "{name}: clean image must open");
        for cut in 0..img.len() {
            assert!(
                !open_and_query(img[..cut].to_vec()),
                "{name}: image cut to {cut} bytes opened"
            );
        }
        let mut opened = 0;
        for byte in 0..img.len() {
            for bit in 0..8 {
                let mut bad = img.clone();
                bad[byte] ^= 1 << bit;
                if open_and_query(bad) {
                    opened += 1;
                }
            }
        }
        // Flips that keep the codec valid (a gap within bounds, a weight)
        // still open; everything else is rejected.
        assert!(
            opened > 0 && opened < img.len() * 8,
            "{name}: {opened} flips opened"
        );
    }
}
