//! AdjoinBFS — BFS on the adjoin-graph representation (§III-C.2).
//!
//! Because the adjoin graph is an ordinary symmetric graph, the hypergraph
//! traversal is literally `nwgraph`'s direction-optimizing BFS followed by
//! the range-aware split of the result arrays. No hypergraph-specific
//! traversal code is needed — the point of the representation.

use crate::adjoin::AdjoinGraph;
use crate::ids::HyperedgeId;
use crate::Id;
use nwgraph::algorithms::bfs::{bfs_direction_optimizing, BfsResult};

/// AdjoinBFS output, already split into the two index sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjoinBfsResult {
    /// Level per hyperedge (`u32::MAX` if unreached).
    pub edge_levels: Vec<u32>,
    /// Level per hypernode.
    pub node_levels: Vec<u32>,
    /// Parent per hyperedge, in *adjoin* IDs (a hypernode's adjoin ID,
    /// except the source which is its own parent).
    pub edge_parents: Vec<Id>,
    /// Parent per hypernode, in adjoin IDs (a hyperedge ID).
    pub node_parents: Vec<Id>,
    /// The raw single-index-set result, before splitting.
    pub raw: BfsResult,
}

/// Runs direction-optimizing BFS on the adjoin graph from hyperedge
/// `source` and splits the result arrays.
pub fn adjoin_bfs(a: &AdjoinGraph, source: HyperedgeId) -> AdjoinBfsResult {
    let _span = nwhy_obs::span("algo.adjoin_bfs");
    assert!(
        source.idx() < a.num_hyperedges(),
        "source hyperedge {source} out of range {}",
        a.num_hyperedges()
    );
    let raw = bfs_direction_optimizing(a.graph(), a.hyperedge_id(source).raw());
    let (edge_levels, node_levels) = a.split_result(&raw.levels);
    let (edge_parents, node_parents) = a.split_result(&raw.parents);
    AdjoinBfsResult {
        edge_levels,
        node_levels,
        edge_parents,
        node_parents,
        raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::hyper_bfs::hyper_bfs_top_down;
    use crate::fixtures::paper_hypergraph;
    use crate::hypergraph::Hypergraph;
    use proptest::prelude::*;

    #[test]
    fn fixture_levels_match_hyper_bfs() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        for src in 0..4 {
            let ar = adjoin_bfs(&a, HyperedgeId::new(src));
            let hr = hyper_bfs_top_down(&h, src);
            assert_eq!(ar.edge_levels, hr.edge_levels, "src {src}");
            assert_eq!(ar.node_levels, hr.node_levels, "src {src}");
        }
    }

    #[test]
    fn parents_cross_the_partition() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        let r = adjoin_bfs(&a, HyperedgeId::new(0));
        for (e, &p) in r.edge_parents.iter().enumerate() {
            if p == u32::MAX || e == 0 {
                continue;
            }
            assert!(
                !a.is_hyperedge(crate::ids::AdjoinId::new(p)),
                "hyperedge {e} parent {p} same side"
            );
        }
        for &p in &r.node_parents {
            if p != u32::MAX {
                assert!(a.is_hyperedge(crate::ids::AdjoinId::new(p)));
            }
        }
    }

    #[test]
    fn unreached_split_correctly() {
        let h = Hypergraph::from_memberships(&[vec![0], vec![1, 2]]);
        let a = AdjoinGraph::from_hypergraph(&h);
        let r = adjoin_bfs(&a, HyperedgeId::new(0));
        assert_eq!(r.edge_levels, vec![0, u32::MAX]);
        assert_eq!(r.node_levels, vec![1, u32::MAX, u32::MAX]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_id_as_source_rejected() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        adjoin_bfs(&a, HyperedgeId::new(5)); // 5 is a hypernode's adjoin ID
    }

    fn arb_memberships() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Id>>> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..12, 0..6), 1..10)
            .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_adjoin_equals_bipartite_bfs(ms in arb_memberships(), seed in 0u32..100) {
            let h = Hypergraph::from_memberships(&ms);
            let a = AdjoinGraph::from_hypergraph(&h);
            let src = seed % crate::ids::from_usize(h.num_hyperedges());
            let ar = adjoin_bfs(&a, HyperedgeId::new(src));
            let hr = hyper_bfs_top_down(&h, src);
            prop_assert_eq!(ar.edge_levels, hr.edge_levels);
            prop_assert_eq!(ar.node_levels, hr.node_levels);
        }
    }
}
