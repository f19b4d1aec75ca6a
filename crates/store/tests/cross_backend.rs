//! Cross-backend agreement: every s-line construction algorithm, BFS,
//! and CC must produce identical results on the compressed on-disk
//! representation and on the pointer-based in-memory bi-adjacency.
//!
//! This is the acceptance gate for the zero-copy storage subsystem: the
//! kernels are generic over `HyperAdjacency`, so the only way results can
//! diverge is a codec bug — which is exactly what this test exists to
//! catch. BFS parents, which CAS races make non-deterministic, are
//! checked for type instead: on the bi-adjacency, the adjoin graph and a
//! packed image alike they must be incident entities of the other side.

use nwhy_core::algorithms::{hyper_bfs_bottom_up, hyper_bfs_top_down, hyper_cc, HyperBfsResult};
use nwhy_core::fixtures::{multi_block_hypergraph, paper_hypergraph};
use nwhy_core::repr::HyperAdjacency;
use nwhy_core::{AdjoinGraph, Algorithm, Hypergraph, OverlapPath, OverlapPolicy, SLineBuilder};
use nwhy_gen::powerlaw::PowerlawParams;
use nwhy_gen::{powerlaw_hypergraph, uniform_random};
use nwhy_store::{pack_hypergraph, Backend, CompressedHypergraph};

fn fixtures() -> Vec<(&'static str, Hypergraph)> {
    vec![
        (
            "uniform",
            uniform_random(
                /* nodes */ 60, /* edges */ 40, /* size */ 4, 0xC0FFEE,
            ),
        ),
        (
            "powerlaw",
            powerlaw_hypergraph(PowerlawParams {
                num_nodes: 80,
                num_edges: 50,
                avg_node_degree: 3.0,
                node_exponent: 2.5,
                edge_exponent: 2.5,
                seed: 42,
            }),
        ),
        (
            "degenerate",
            Hypergraph::from_memberships(&[vec![], vec![7], vec![0, 1, 2], vec![1, 2], vec![7]]),
        ),
        // > 300 rows each way with empty rows: row lookups cross the
        // 64-row blocks of the sampled index
        ("multi-block", multi_block_hypergraph()),
    ]
}

fn compress(h: &Hypergraph) -> CompressedHypergraph {
    CompressedHypergraph::from_bytes(pack_hypergraph(h)).expect("pack image must open")
}

#[test]
fn all_algorithms_agree_across_backends() {
    for (name, h) in fixtures() {
        let c = compress(&h);
        for algorithm in Algorithm::ALL {
            for s in 1..=3 {
                let on_memory = SLineBuilder::new(&h).algorithm(algorithm).s(s).edges();
                let on_packed = SLineBuilder::new(&c).algorithm(algorithm).s(s).edges();
                assert_eq!(
                    on_memory,
                    on_packed,
                    "{name}: {} disagrees at s={s}",
                    algorithm.name()
                );
            }
        }
    }
}

/// The adaptive overlap engine's per-pair path choice depends only on
/// row *lengths*, never on how the rows are stored — so every forced
/// path and the planner's `auto` must agree with the naive reference on
/// the packed image and on a memory-mapped file, at every s.
#[test]
fn overlap_paths_and_planner_agree_across_backends() {
    for (name, h) in fixtures() {
        let packed = compress(&h);
        let bytes = pack_hypergraph(&h);
        let path = std::env::temp_dir().join(format!(
            "nwhy-cross-backend-{}-{name}.nwhypak",
            std::process::id()
        ));
        std::fs::write(&path, &bytes).expect("write pack image");
        let mapped = CompressedHypergraph::open(&path, Backend::Auto).expect("open pack image");
        for s in 1..=4 {
            let reference = SLineBuilder::new(&h)
                .algorithm(Algorithm::Naive)
                .s(s)
                .edges();
            for policy in [
                OverlapPolicy::Adaptive,
                OverlapPolicy::Force(OverlapPath::Merge),
                OverlapPolicy::Force(OverlapPath::Gallop),
                OverlapPolicy::Force(OverlapPath::Bitset),
            ] {
                for (backend, c) in [("packed", &packed), ("mapped", &mapped)] {
                    let got = SLineBuilder::new(c)
                        .algorithm(Algorithm::Intersection)
                        .overlap(policy)
                        .s(s)
                        .edges();
                    assert_eq!(
                        got,
                        reference,
                        "{name}/{backend}: {} disagrees at s={s}",
                        policy.name()
                    );
                }
            }
            for (backend, c) in [("packed", &packed), ("mapped", &mapped)] {
                let auto = SLineBuilder::new(c).auto().s(s).edges();
                assert_eq!(auto, reference, "{name}/{backend}: auto disagrees at s={s}");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn weighted_and_ensemble_agree_across_backends() {
    for (name, h) in fixtures() {
        let c = compress(&h);
        for s in 1..=3 {
            assert_eq!(
                SLineBuilder::new(&h).s(s).weighted_edges(),
                SLineBuilder::new(&c).s(s).weighted_edges(),
                "{name}: weighted s={s}"
            );
        }
        assert_eq!(
            SLineBuilder::new(&h).ensemble_edges(&[1, 2, 3]),
            SLineBuilder::new(&c).ensemble_edges(&[1, 2, 3]),
            "{name}: ensemble"
        );
    }
}

#[test]
fn traversals_agree_across_backends() {
    for (name, h) in fixtures() {
        if h.num_hyperedges() == 0 {
            continue;
        }
        let c = compress(&h);
        let bfs_mem = hyper_bfs_top_down(&h, 0);
        let bfs_pak = hyper_bfs_top_down(&c, 0);
        assert_eq!(
            bfs_mem.edge_levels, bfs_pak.edge_levels,
            "{name}: BFS edge levels"
        );
        assert_eq!(
            bfs_mem.node_levels, bfs_pak.node_levels,
            "{name}: BFS node levels"
        );
        let bu_pak = hyper_bfs_bottom_up(&c, 0);
        assert_eq!(
            bfs_mem.edge_levels, bu_pak.edge_levels,
            "{name}: bottom-up BFS edge levels"
        );
        assert_eq!(
            bfs_mem.node_levels, bu_pak.node_levels,
            "{name}: bottom-up BFS node levels"
        );
        assert_eq!(hyper_cc(&h), hyper_cc(&c), "{name}: CC");
    }
}

/// Node parents are hyperedges containing the node; edge parents (except
/// the source, its own parent) are member hypernodes by dense index —
/// checked against the bi-adjacency `h` for a BFS run on `g`.
fn assert_parents_cross_type<A: HyperAdjacency>(name: &str, h: &Hypergraph, g: &A) {
    let check = |variant: &str, r: HyperBfsResult| {
        for (v, &p) in r.node_parents.iter().enumerate() {
            let v = u32::try_from(v).unwrap();
            if p != u32::MAX {
                assert!(
                    h.edge_members(p).contains(&v),
                    "{name} {variant}: node {v} parent {p}"
                );
            }
        }
        for (e, &p) in r.edge_parents.iter().enumerate().skip(1) {
            if p != u32::MAX {
                let e = u32::try_from(e).unwrap();
                assert!(
                    h.edge_members(e).contains(&p),
                    "{name} {variant}: edge {e} parent {p}"
                );
            }
        }
    };
    check("top-down", hyper_bfs_top_down(g, 0));
    check("bottom-up", hyper_bfs_bottom_up(g, 0));
}

#[test]
fn parents_are_cross_type() {
    for (name, h) in fixtures()
        .into_iter()
        .chain([("paper", paper_hypergraph())])
    {
        assert_parents_cross_type(&format!("{name} bi-adjacency"), &h, &h);
        let a = AdjoinGraph::from_hypergraph(&h);
        assert_parents_cross_type(&format!("{name} adjoin"), &h, &a);
        assert_parents_cross_type(&format!("{name} packed"), &h, &compress(&h));
    }
}
