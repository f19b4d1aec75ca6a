//! The session API — a Rust mirror of the `nwhy` Python package
//! (Listing 5 of the paper).
//!
//! The Python package exposes an `NWHypergraph` object built from
//! parallel `row`/`col`/`weight` arrays (one entry per incidence) and an
//! `s_linegraph` method returning a queryable line-graph object. The Rust
//! [`NWHypergraph`] follows the same object model method-for-method; the
//! line-graph queries live on [`nwhy_core::SLineGraph`], whose method
//! names match Listing 5 (`s_connected_components`, `s_distance`, …).

use nwhy_core::algorithms::toplex::{restrict_to_toplexes, toplexes};
use nwhy_core::smetrics::WeightedSLineGraph;
use nwhy_core::{
    AdjoinGraph, BiEdgeList, DualView, HyperAdjacency, Hypergraph, HypergraphStats, Id,
    SLineBuilder, SLineGraph,
};

/// A hypergraph session object mirroring the paper's Python
/// `nwhy.NWHypergraph`.
#[derive(Debug, Clone, PartialEq)]
pub struct NWHypergraph {
    hypergraph: Hypergraph,
}

impl NWHypergraph {
    /// Builds from parallel incidence arrays, as in
    /// `nwhy.NWHypergraph(row, col, weight)`: `row[i]` is the hypernode
    /// and `col[i]` the hyperedge of incidence `i`. (Weights are accepted
    /// by the Python API but unused by every Listing 5 query; the Rust
    /// mirror drops them.)
    ///
    /// # Panics
    /// Panics if the arrays differ in length.
    pub fn new(row: &[Id], col: &[Id]) -> Self {
        assert_eq!(row.len(), col.len(), "row/col length mismatch");
        let num_nodes = row.iter().map(|&v| v as usize + 1).max().unwrap_or(0);
        let num_edges = col.iter().map(|&e| e as usize + 1).max().unwrap_or(0);
        let incidences: Vec<(Id, Id)> = col.iter().zip(row).map(|(&e, &v)| (e, v)).collect();
        let mut bel = BiEdgeList::from_incidences(num_edges, num_nodes, incidences);
        bel.sort_dedup();
        Self {
            hypergraph: Hypergraph::from_biedgelist(&bel),
        }
    }

    /// Builds with per-incidence weights, as in
    /// `nwhy.NWHypergraph(row, col, weight)`. Duplicate `(row, col)`
    /// pairs collapse to the first occurrence's weight.
    ///
    /// # Panics
    /// Panics if the three arrays differ in length.
    pub fn with_weights(row: &[Id], col: &[Id], weight: &[f64]) -> Self {
        assert_eq!(row.len(), col.len(), "row/col length mismatch");
        assert_eq!(row.len(), weight.len(), "row/weight length mismatch");
        let num_nodes = row.iter().map(|&v| v as usize + 1).max().unwrap_or(0);
        let num_edges = col.iter().map(|&e| e as usize + 1).max().unwrap_or(0);
        let incidences: Vec<(Id, Id)> = col.iter().zip(row).map(|(&e, &v)| (e, v)).collect();
        let mut bel =
            BiEdgeList::from_weighted_incidences(num_edges, num_nodes, incidences, weight.to_vec());
        bel.sort_dedup();
        Self {
            hypergraph: Hypergraph::from_biedgelist(&bel),
        }
    }

    /// Wraps an existing [`Hypergraph`].
    pub fn from_hypergraph(hypergraph: Hypergraph) -> Self {
        Self { hypergraph }
    }

    /// The underlying bi-adjacency hypergraph.
    pub fn hypergraph(&self) -> &Hypergraph {
        &self.hypergraph
    }

    /// Number of hyperedges.
    pub fn num_hyperedges(&self) -> usize {
        self.hypergraph.num_hyperedges()
    }

    /// Number of hypernodes.
    pub fn num_hypernodes(&self) -> usize {
        self.hypergraph.num_hypernodes()
    }

    /// Table I-style statistics.
    pub fn stats(&self) -> HypergraphStats {
        self.hypergraph.stats()
    }

    /// `hg.s_linegraph(s=s, edges=…)`: the s-line graph over hyperedges
    /// (`edges = true`) or the s-clique graph over hypernodes — the line
    /// graph of the dual (`edges = false`). `s = 1, edges = false` is the
    /// clique expansion. The dual side is a zero-copy [`DualView`]; no
    /// dual hypergraph is materialized.
    pub fn s_linegraph(&self, s: usize, edges: bool) -> SLineGraph {
        if edges {
            SLineGraph::new(&self.hypergraph, s)
        } else {
            SLineGraph::new(&DualView::new(&self.hypergraph), s)
        }
    }

    /// `hg.s_linegraphs([s…], edges=…)`: an ensemble of line graphs for
    /// several `s` values, sharing one counting pass.
    pub fn s_linegraphs(&self, s_values: &[usize], edges: bool) -> Vec<SLineGraph> {
        fn build<A: HyperAdjacency + ?Sized>(repr: &A, s_values: &[usize]) -> Vec<SLineGraph> {
            let nv = repr.num_hyperedges();
            SLineBuilder::new(repr)
                .ensemble_edges(s_values)
                .into_iter()
                .zip(s_values)
                .map(|(pairs, &s)| {
                    let mut el = nwgraph::EdgeList::from_edges(nv, pairs);
                    el.symmetrize();
                    SLineGraph::from_csr(s, nwgraph::Csr::from_edge_list(&el))
                })
                .collect()
        }
        if edges {
            build(&self.hypergraph, s_values)
        } else {
            build(&DualView::new(&self.hypergraph), s_values)
        }
    }

    /// `hg.toplexes()`: IDs of the maximal hyperedges.
    pub fn toplexes(&self) -> Vec<Id> {
        toplexes(&self.hypergraph)
    }

    /// The weighted s-line graph: edges carry exact overlap sizes (the
    /// line widths of the paper's Fig. 5).
    pub fn weighted_s_linegraph(&self, s: usize) -> WeightedSLineGraph {
        WeightedSLineGraph::new(&self.hypergraph, s)
    }

    /// Simplifies to the maximal hyperedges (toplex restriction);
    /// returns the simplified session and the surviving original IDs.
    pub fn restrict_to_toplexes(&self) -> (NWHypergraph, Vec<Id>) {
        let (h, map) = restrict_to_toplexes(&self.hypergraph);
        (NWHypergraph::from_hypergraph(h), map)
    }

    /// s-connected components computed *online* — the overlap tests run
    /// through the bipartite indirection and the s-line graph is never
    /// materialized (the §I space/time trade-off, space-lean side).
    pub fn s_connected_components_online(&self, s: usize) -> Vec<Id> {
        nwhy_core::algorithms::s_components::s_connected_components_online(&self.hypergraph, s)
    }

    /// Online `is_s_connected` (see
    /// [`NWHypergraph::s_connected_components_online`]).
    pub fn is_s_connected_online(&self, s: usize) -> bool {
        nwhy_core::algorithms::s_components::is_s_connected_online(&self.hypergraph, s)
    }

    /// The adjoin-graph view (single shared index set).
    pub fn adjoin(&self) -> AdjoinGraph {
        AdjoinGraph::from_hypergraph(&self.hypergraph)
    }

    /// The clique-expansion graph over hypernodes.
    pub fn clique_expansion(&self) -> nwgraph::Csr {
        nwhy_core::clique::clique_expansion(&self.hypergraph)
    }

    /// The dual session (`hyperedges ⇄ hypernodes`).
    pub fn dual(&self) -> NWHypergraph {
        NWHypergraph {
            hypergraph: self.hypergraph.dual(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Listing 5's exact toy input.
    fn listing5() -> NWHypergraph {
        let col = [0, 0, 0, 1, 1, 1];
        let row = [0, 1, 2, 0, 1, 2];
        NWHypergraph::new(&row, &col)
    }

    #[test]
    fn listing5_session_flow() {
        let hg = listing5();
        assert_eq!(hg.num_hyperedges(), 2);
        assert_eq!(hg.num_hypernodes(), 3);

        // s2lg = hg.s_linegraph(s=2, edges=True)
        let s2lg = hg.s_linegraph(2, true);
        // tmp = s2lg.is_s_connected()
        assert!(s2lg.is_s_connected());
        // sn = s2lg.s_neighbors(v=0)
        assert_eq!(s2lg.s_neighbors(0), &[1]);
        // sd = s2lg.s_degree(v=0)
        assert_eq!(s2lg.s_degree(0), 1);
        // scc = s2lg.s_connected_components()
        assert_eq!(s2lg.s_connected_components(), vec![0, 0]);
        // sdist = s2lg.s_distance(src=0, dest=1)
        assert_eq!(s2lg.s_distance(0, 1), Some(1));
        // sp = s2lg.s_path(src=0, dest=1)
        assert_eq!(s2lg.s_path(0, 1), Some(vec![0, 1]));
        // sbc = s2lg.s_betweenness_centrality(normalized=True)
        assert_eq!(s2lg.s_betweenness_centrality(true), vec![0.0, 0.0]);
        // sc / shc / se with v=None
        assert_eq!(s2lg.s_closeness_centrality(None).len(), 2);
        assert_eq!(s2lg.s_harmonic_closeness_centrality(None), vec![1.0, 1.0]);
        assert_eq!(s2lg.s_eccentricity(None), vec![1, 1]);
    }

    #[test]
    fn edges_false_gives_clique_side() {
        let hg = listing5();
        // 1-clique graph over hypernodes = clique expansion: K3
        let s1cg = hg.s_linegraph(1, false);
        assert_eq!(s1cg.num_vertices(), 3);
        for v in 0..3u32 {
            assert_eq!(s1cg.s_degree(v), 2);
        }
        let ce = hg.clique_expansion();
        assert_eq!(s1cg.graph(), &ce);
    }

    #[test]
    fn ensemble_linegraphs_match_individual() {
        let hg = NWHypergraph::from_hypergraph(nwhy_core::fixtures::paper_hypergraph());
        let many = hg.s_linegraphs(&[1, 2, 3], true);
        for (lg, s) in many.iter().zip([1usize, 2, 3]) {
            let single = hg.s_linegraph(s, true);
            assert_eq!(lg.graph(), single.graph(), "s={s}");
            assert_eq!(lg.s(), s);
        }
    }

    #[test]
    fn toplexes_and_adjoin() {
        let hg = NWHypergraph::from_hypergraph(nwhy_core::fixtures::nested_hypergraph());
        assert_eq!(hg.toplexes(), vec![0, 3]);
        let a = hg.adjoin();
        assert_eq!(a.num_vertices(), hg.num_hyperedges() + hg.num_hypernodes());
    }

    #[test]
    fn duplicate_incidences_collapse() {
        let hg = NWHypergraph::new(&[0, 0, 1], &[0, 0, 0]);
        assert_eq!(hg.hypergraph().num_incidences(), 2);
    }

    #[test]
    fn dual_swaps() {
        let hg = listing5();
        let d = hg.dual();
        assert_eq!(d.num_hyperedges(), 3);
        assert_eq!(d.num_hypernodes(), 2);
        assert_eq!(d.dual(), hg);
    }

    #[test]
    fn empty_session() {
        let hg = NWHypergraph::new(&[], &[]);
        assert_eq!(hg.num_hyperedges(), 0);
        assert!(hg.toplexes().is_empty());
        assert_eq!(hg.stats().num_incidences, 0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_arrays_rejected() {
        NWHypergraph::new(&[0, 1], &[0]);
    }

    #[test]
    fn weighted_session_exposes_weights() {
        // Listing 5 passes a weight array alongside row/col
        let col = [0u32, 0, 0, 1, 1, 1];
        let row = [0u32, 1, 2, 0, 1, 2];
        let weight = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let hg = NWHypergraph::with_weights(&row, &col, &weight);
        assert!(hg.hypergraph().is_weighted());
        let e0: Vec<(u32, f64)> = hg.hypergraph().edges().weighted_neighbors(0).collect();
        assert_eq!(e0, vec![(0, 1.0), (1, 2.0), (2, 3.0)]);
        // weights don't change any Listing 5 query
        let unweighted = NWHypergraph::new(&row, &col);
        assert_eq!(
            hg.s_linegraph(2, true).s_connected_components(),
            unweighted.s_linegraph(2, true).s_connected_components()
        );
    }

    #[test]
    #[should_panic(expected = "row/weight length mismatch")]
    fn weighted_mismatch_rejected() {
        NWHypergraph::with_weights(&[0], &[0], &[1.0, 2.0]);
    }

    #[test]
    fn extended_session_surface() {
        let hg = NWHypergraph::from_hypergraph(nwhy_core::fixtures::paper_hypergraph());
        // weighted line graph
        let w = hg.weighted_s_linegraph(1);
        assert_eq!(w.s_overlap(0, 3), Some(3));
        // toplex restriction on a nested hypergraph shrinks it
        let nested = NWHypergraph::from_hypergraph(nwhy_core::fixtures::nested_hypergraph());
        let (simplified, kept) = nested.restrict_to_toplexes();
        assert_eq!(kept, vec![0, 3]);
        assert_eq!(simplified.num_hyperedges(), 2);
    }
}
