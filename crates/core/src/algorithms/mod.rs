//! Exact hypergraph algorithms (§III-C.1, §III-C.2, §III-C.4).
//!
//! Two algorithm families compute *exact* hypergraph metrics:
//!
//! - over the **incidence structure** (two index sets): [`mod@hyper_bfs`]
//!   (top-down and bottom-up) and [`mod@hyper_cc`] (union-find and label
//!   propagation), which maintain
//!   separate frontiers/label arrays for the hyperedge and hypernode
//!   sides — the bookkeeping burden the paper notes as the bi-adjacency's
//!   biggest drawback. Each has one implementation, generic over
//!   [`HyperAdjacency`](crate::repr::HyperAdjacency), so it runs unchanged
//!   on the bi-adjacency, the adjoin graph, zero-copy views and the
//!   compressed on-disk backend;
//! - on the **adjoin graph** (one shared index set): [`mod@adjoin_bfs`] and
//!   [`mod@adjoin_cc`], which are plain graph algorithms
//!   (direction-optimizing BFS; Afforest / label propagation) followed by
//!   a range-aware split of the result array.
//!
//! [`mod@toplex`] implements Algorithm 3 (maximal hyperedges) and
//! [`mod@s_components`] the s-connected components without a stored
//! s-line graph; both take their overlaps from the s-line counting core.

pub mod adjoin_bfs;
pub mod adjoin_cc;
pub mod hyper_bfs;
pub mod hyper_cc;
pub mod s_components;
pub mod toplex;

pub use adjoin_bfs::{adjoin_bfs, AdjoinBfsResult};
pub use adjoin_cc::{adjoin_cc_afforest, adjoin_cc_label_propagation, AdjoinCcResult};
pub use hyper_bfs::{hyper_bfs_bottom_up, hyper_bfs_top_down, HyperBfsResult};
/// Former name of [`hyper_cc()`]: the end-to-end benchmark tool
/// (`perfbench/tool`) imports it, and that tool changes only together
/// with its recorded baselines.
pub use hyper_cc::hyper_cc as hyper_cc_generic;
pub use hyper_cc::{hyper_cc, hyper_cc_label_propagation, HyperCcResult};
pub use s_components::{is_s_connected_online, s_connected_components_online};
pub use toplex::{toplexes, toplexes_sequential};

/// The kernels generic over [`HyperAdjacency`](crate::repr::HyperAdjacency)
/// give the same answer on the bi-adjacency and the adjoin graph, and on
/// degenerate inputs.
#[cfg(test)]
mod generic {
    mod tests {
        use crate::adjoin::AdjoinGraph;
        use crate::algorithms::{hyper_bfs_top_down, hyper_cc};
        use crate::fixtures::paper_hypergraph;
        use crate::hypergraph::Hypergraph;

        #[test]
        fn bfs_levels_agree_on_adjoin() {
            let h = paper_hypergraph();
            let a = AdjoinGraph::from_hypergraph(&h);
            for src in 0..4 {
                let on_h = hyper_bfs_top_down(&h, src);
                let on_a = hyper_bfs_top_down(&a, src);
                assert_eq!(on_h.edge_levels, on_a.edge_levels, "src {src}");
                assert_eq!(on_h.node_levels, on_a.node_levels, "src {src}");
            }
        }

        #[test]
        fn cc_labels_agree_on_adjoin() {
            let h = Hypergraph::from_memberships(&[vec![0], vec![0, 1], vec![2], vec![2, 3]]);
            let a = AdjoinGraph::from_hypergraph(&h);
            assert_eq!(hyper_cc(&a), hyper_cc(&h));
        }

        #[test]
        fn empty_and_degenerate() {
            let h = Hypergraph::from_memberships(&[vec![], vec![0]]);
            let r = hyper_bfs_top_down(&h, 0);
            assert_eq!(r.edges_reached(), 1);
            assert_eq!(r.nodes_reached(), 0);
            let cc = hyper_cc(&h);
            assert_eq!(cc.num_components(), 2);
        }
    }
}
