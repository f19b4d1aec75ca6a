//! The adjoin graph: a hypergraph in a single shared index set (§III-B.2).
//!
//! The paper's novel representation: re-index the two disjoint partitions
//! of the bipartite form into one ID space — hyperedges keep `[0, n_e)`,
//! hypernodes shift to `[n_e, n_e + n_v)` — and store the result as an
//! ordinary symmetric CSR graph with adjacency matrix
//!
//! ```text
//!         ⎛ 0    Bᵗ ⎞
//!   A_G = ⎜         ⎟
//!         ⎝ B    0  ⎠
//! ```
//!
//! where `B` is the incidence matrix of `H`. Any graph algorithm can then
//! compute hypergraph metrics, provided it is *range-aware*: results are
//! split back into a hyperedge part and a hypernode part afterwards
//! ([`AdjoinGraph::split_result`]).
//!
//! The re-indexing needs no second copy of the incidences:
//! [`AdjoinGraph::from_owned`] takes the hypergraph's arrays over.

use crate::hypergraph::Hypergraph;
use crate::ids::{adjoin_to_node, AdjoinId, HyperedgeId, HypernodeId};
use crate::Id;
use nwgraph::{Csr, EdgeList};

/// A hypergraph adjoined into one index set, backed by a square symmetric
/// CSR.
///
/// # Examples
///
/// ```
/// use nwhy_core::{AdjoinGraph, Hypergraph};
///
/// use nwhy_core::ids::{AdjoinId, HypernodeId};
///
/// let h = Hypergraph::from_memberships(&[vec![0, 1], vec![1, 2]]);
/// let a = AdjoinGraph::from_hypergraph(&h);
/// // hyperedges keep IDs 0..2; hypernodes shift to 2..5
/// assert_eq!(a.num_vertices(), 5);
/// assert!(a.is_hyperedge(AdjoinId::new(1)));
/// assert_eq!(a.hypernode_id(HypernodeId::new(0)), AdjoinId::new(2));
/// // any graph algorithm runs on a.graph(); split results afterwards
/// let labels = nwgraph::algorithms::cc::afforest(a.graph());
/// let (edge_labels, node_labels) = a.split_result(&labels);
/// assert_eq!(edge_labels.len(), 2);
/// assert_eq!(node_labels.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdjoinGraph {
    graph: Csr,
    num_hyperedges: usize,
    num_hypernodes: usize,
}

impl AdjoinGraph {
    /// Adjoins a copy of `h`; see [`AdjoinGraph::from_owned`], which
    /// takes the hypergraph instead of copying it.
    pub fn from_hypergraph(h: &Hypergraph) -> Self {
        Self::from_owned(h.clone())
    }

    /// Adjoins the bi-adjacency of `h` into a single-index graph, reusing
    /// its arrays: the hyperedge CSR, targets shifted into the node
    /// partition in place, followed by the hypernode CSR. Both are sorted,
    /// so this is an O(nnz) pass. Each hypernode array is freed as soon
    /// as it has been appended, so about `3 · 4 · nnz` bytes of targets
    /// are live at the peak, not two whole copies of the incidences.
    /// Weights are dropped: the adjoin graph is unweighted.
    pub fn from_owned(h: Hypergraph) -> Self {
        let _span = nwhy_obs::span("build.adjoin");
        let (ne, nv, nnz) = (h.num_hyperedges(), h.num_hypernodes(), h.num_incidences());
        let (edges, nodes) = h.into_raw_parts();
        let (_, mut offsets, mut targets, _) = edges.into_raw_parts();
        let (_, node_offsets, node_targets, _) = nodes.into_raw_parts();
        offsets.reserve_exact(nv);
        offsets.extend(node_offsets.iter().skip(1).map(|&o| o + nnz));
        drop(node_offsets);
        // The hypernode → shared-set shift is owned by
        // `AdjoinId::from_node`, never inlined here.
        for t in &mut targets {
            *t = AdjoinId::from_node(HypernodeId::new(*t), ne).raw();
        }
        targets.reserve_exact(node_targets.len());
        targets.extend_from_slice(&node_targets);
        drop(node_targets);
        let a = Self {
            graph: Csr::from_raw_parts(ne + nv, offsets, targets, None),
            num_hyperedges: ne,
            num_hypernodes: nv,
        };
        crate::validate::debug_validate(&a, "AdjoinGraph::from_owned");
        a
    }

    /// Builds directly from a pre-adjoined edge list (as read by
    /// `graph_reader_adjoin` in Listing 2). `num_hyperedges` +
    /// `num_hypernodes` must equal the edge list's vertex count, and every
    /// edge must cross the partition boundary.
    ///
    /// # Panics
    /// Panics if the sizes disagree or an edge stays within one partition.
    pub fn from_adjoin_edge_list(
        el: &EdgeList,
        num_hyperedges: usize,
        num_hypernodes: usize,
    ) -> Self {
        assert_eq!(
            el.num_vertices(),
            num_hyperedges + num_hypernodes,
            "vertex space must be n_e + n_v"
        );
        for &(u, v) in el.edges() {
            let cross = AdjoinId::new(u).is_edge(num_hyperedges)
                != AdjoinId::new(v).is_edge(num_hyperedges);
            assert!(cross, "edge ({u},{v}) does not cross the adjoin partition");
        }
        let mut el = el.clone();
        el.symmetrize();
        el.sort_dedup();
        let a = Self {
            graph: Csr::from_edge_list(&el),
            num_hyperedges,
            num_hypernodes,
        };
        crate::validate::debug_validate(&a, "AdjoinGraph::from_adjoin_edge_list");
        a
    }

    /// Assembles an adjoin graph from a pre-built CSR and partition
    /// sizes without checking bipartiteness, symmetry, or the vertex
    /// count.
    ///
    /// The [`Validate`](crate::validate::Validate) tests use this to
    /// build deliberately corrupted adjoin graphs; run
    /// [`validate`](crate::validate::Validate::validate) before handing
    /// the result to any algorithm. Prefer the checked constructors
    /// above.
    pub fn from_raw_parts(graph: Csr, num_hyperedges: usize, num_hypernodes: usize) -> Self {
        Self {
            graph,
            num_hyperedges,
            num_hypernodes,
        }
    }

    /// Heap bytes held by the graph's arrays, counted by capacity.
    pub fn memory_bytes(&self) -> usize {
        self.graph.memory_bytes()
    }

    /// The underlying plain graph.
    #[inline]
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Number of hyperedges (`IDs [0, n_e)`).
    #[inline]
    pub fn num_hyperedges(&self) -> usize {
        self.num_hyperedges
    }

    /// Number of hypernodes (`IDs [n_e, n_e + n_v)`).
    #[inline]
    pub fn num_hypernodes(&self) -> usize {
        self.num_hypernodes
    }

    /// Total vertices in the shared index set.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_hyperedges + self.num_hypernodes
    }

    /// `true` if the adjoin ID denotes a hyperedge.
    #[inline]
    #[must_use]
    pub fn is_hyperedge(&self, id: AdjoinId) -> bool {
        id.is_edge(self.num_hyperedges)
    }

    /// Maps a hyperedge into the shared index set (identity embedding).
    #[inline]
    #[must_use]
    pub fn hyperedge_id(&self, e: HyperedgeId) -> AdjoinId {
        debug_assert!(e.idx() < self.num_hyperedges);
        AdjoinId::from_edge(e)
    }

    /// Maps a hypernode into the shared index set (shift by `n_e`,
    /// owned by [`AdjoinId::from_node`]).
    #[inline]
    #[must_use]
    pub fn hypernode_id(&self, v: HypernodeId) -> AdjoinId {
        debug_assert!(v.idx() < self.num_hypernodes);
        AdjoinId::from_node(v, self.num_hyperedges)
    }

    /// Recovers the hypernode from an adjoin ID in the node partition.
    ///
    /// # Panics
    /// Panics (in debug builds) if `id` denotes a hyperedge.
    #[inline]
    #[must_use]
    pub fn to_hypernode(&self, id: AdjoinId) -> HypernodeId {
        adjoin_to_node(id, self.num_hyperedges)
    }

    /// Splits a per-vertex result computed on the adjoin graph back into
    /// `(hyperedge_part, hypernode_part)` — the paper's "split the
    /// resultant array" step.
    pub fn split_result<T: Clone>(&self, result: &[T]) -> (Vec<T>, Vec<T>) {
        assert_eq!(result.len(), self.num_vertices(), "result length mismatch");
        (
            result[..self.num_hyperedges].to_vec(),
            result[self.num_hyperedges..].to_vec(),
        )
    }

    /// Recovers the bi-adjacency [`Hypergraph`] (inverse of
    /// [`AdjoinGraph::from_hypergraph`]).
    pub fn to_hypergraph(&self) -> Hypergraph {
        // the first `n_e` rows are the hyperedge CSR, shifted
        let ne = self.num_hyperedges;
        let offsets = self.graph.offsets().get(..=ne).unwrap_or(&[0]).to_vec();
        let nnz = offsets.last().copied().unwrap_or(0);
        let row_targets = self.graph.targets().get(..nnz).unwrap_or_default();
        let shift = |&v: &Id| adjoin_to_node(AdjoinId::new(v), ne).raw();
        let targets = row_targets.iter().map(shift).collect();
        Hypergraph::from_scattered_rows(self.num_hypernodes, offsets, targets, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_hypergraph;
    use proptest::prelude::*;

    #[test]
    fn fixture_adjoin_layout_matches_figure3() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        // Figure 3: hyperedges 0–3, hypernodes 4–12.
        assert_eq!(a.num_vertices(), 13);
        assert!(a.is_hyperedge(AdjoinId::new(3)));
        assert!(!a.is_hyperedge(AdjoinId::new(4)));
        assert_eq!(a.hypernode_id(HypernodeId::new(0)), AdjoinId::new(4));
        assert_eq!(a.hyperedge_id(HyperedgeId::new(2)), AdjoinId::new(2));
        assert_eq!(a.to_hypernode(AdjoinId::new(4)), HypernodeId::new(0));
    }

    #[test]
    fn corrupted_offset_is_caught_by_validate() {
        // Regression for the once-inlined `v + ne` incidence shift: build
        // the adjoin CSR with an off-by-one offset (as a buggy duplicate
        // of `AdjoinId::from_node` would) and check `Validate` flags it.
        use crate::validate::Validate;
        let h = paper_hypergraph();
        let ne = h.num_hyperedges();
        let bad_shift = ne - 1; // buggy: one short of the real boundary
        let pairs: Vec<(Id, Id)> = h
            .edges()
            .iter()
            .flat_map(|(e, members)| {
                members.iter().flat_map(move |&v| {
                    let av = AdjoinId::from_node(HypernodeId::new(v), bad_shift).raw();
                    [(e, av), (av, e)]
                })
            })
            .collect();
        let el = EdgeList::from_edges(ne + h.num_hypernodes(), pairs);
        let a = AdjoinGraph::from_raw_parts(Csr::from_edge_list(&el), ne, h.num_hypernodes());
        assert!(
            a.validate().is_err(),
            "corrupted adjoin offset must not validate cleanly"
        );
    }

    #[test]
    fn adjoin_is_symmetric_and_bipartite() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        assert!(a.graph().is_symmetric());
        // no edge within a partition
        for (u, nbrs) in a.graph().iter() {
            for &v in nbrs {
                assert_ne!(
                    a.is_hyperedge(AdjoinId::new(u)),
                    a.is_hyperedge(AdjoinId::new(v)),
                    "edge ({u},{v}) intra-part"
                );
            }
        }
    }

    #[test]
    fn neighborhoods_are_shifted_biadjacency() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        for e in 0..4u32 {
            let want: Vec<u32> = h.edge_members(e).iter().map(|&v| v + 4).collect();
            assert_eq!(a.graph().neighbors(e), &want[..]);
        }
        for v in 0..9u32 {
            assert_eq!(a.graph().neighbors(v + 4), h.node_memberships(v));
        }
    }

    #[test]
    fn split_result_partitions() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        let result: Vec<u32> = (0..13).collect();
        let (e_part, v_part) = a.split_result(&result);
        assert_eq!(e_part, vec![0, 1, 2, 3]);
        assert_eq!(v_part, (4..13).collect::<Vec<_>>());
    }

    #[test]
    fn roundtrip_to_hypergraph() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        assert_eq!(a.to_hypergraph(), h);
    }

    #[test]
    fn from_adjoin_edge_list_accepts_one_direction() {
        // only (edge → node) arcs given; constructor symmetrizes
        let el = EdgeList::from_edges(3, vec![(0, 1), (0, 2)]);
        let a = AdjoinGraph::from_adjoin_edge_list(&el, 1, 2);
        assert!(a.graph().is_symmetric());
        assert_eq!(a.graph().neighbors(0), &[1, 2]);
        assert_eq!(a.to_hypergraph().edge_members(0), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "does not cross")]
    fn from_adjoin_edge_list_rejects_intra_part_edge() {
        let el = EdgeList::from_edges(4, vec![(0, 1)]); // both hyperedges
        AdjoinGraph::from_adjoin_edge_list(&el, 2, 2);
    }

    #[test]
    fn empty_hypergraph_adjoin() {
        let h = Hypergraph::from_memberships(&[]);
        let a = AdjoinGraph::from_hypergraph(&h);
        assert_eq!(a.num_vertices(), 0);
        let (e, v) = a.split_result::<u32>(&[]);
        assert!(e.is_empty() && v.is_empty());
    }

    #[test]
    fn from_owned_drops_weights_and_sizes_arrays_exactly() {
        let bel = crate::biedgelist::BiEdgeList::from_weighted_incidences(
            2,
            3,
            vec![(1, 2), (0, 0), (1, 2), (0, 1)],
            vec![0.5, 1.5, 2.5, 3.5],
        );
        let h = Hypergraph::from_biedgelist(&bel);
        let a = AdjoinGraph::from_owned(h.clone());
        assert_eq!(a, AdjoinGraph::from_hypergraph(&h));
        assert!(!a.graph().is_weighted());
        // duplicates survive: hyperedge 1 lists hypernode 2 twice
        assert_eq!(a.graph().neighbors(1), &[4, 4]);
        assert_eq!(a.graph().neighbors(4), &[1, 1]);
        let (n, nnz) = (a.num_vertices(), h.num_incidences());
        assert_eq!(a.memory_bytes(), 8 * (n + 1) + 4 * 2 * nnz);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_from_owned_matches_copying_concatenation(
            pairs in proptest::collection::vec((0u32..6, 0u32..9), 0..50)
        ) {
            // duplicates kept: no sort_dedup before the build
            let bel = crate::biedgelist::BiEdgeList::from_incidences(6, 9, pairs);
            let h = Hypergraph::from_biedgelist(&bel);
            let nnz = h.num_incidences();
            let (edges, nodes) = (h.edges(), h.nodes());
            let offsets = edges.offsets().iter().copied()
                .chain(nodes.offsets().iter().skip(1).map(|&o| o + nnz))
                .collect();
            let targets = edges.targets().iter().map(|&v| v + 6)
                .chain(nodes.targets().iter().copied())
                .collect();
            let want = AdjoinGraph::from_raw_parts(Csr::from_raw_parts(15, offsets, targets, None), 6, 9);
            prop_assert_eq!(AdjoinGraph::from_owned(h), want);
        }

        #[test]
        fn prop_adjoin_roundtrip(
            pairs in proptest::collection::vec((0u32..6, 0u32..9), 0..50)
        ) {
            let mut bel = crate::biedgelist::BiEdgeList::from_incidences(6, 9, pairs);
            bel.sort_dedup();
            let h = Hypergraph::from_biedgelist(&bel);
            let a = AdjoinGraph::from_hypergraph(&h);
            prop_assert!(a.graph().is_symmetric());
            prop_assert_eq!(a.to_hypergraph(), h);
            prop_assert_eq!(a.graph().num_edges(), 2 * bel.num_incidences());
        }

        #[test]
        fn prop_concatenation_matches_edge_list_build(
            pairs in proptest::collection::vec((0u32..6, 0u32..9), 0..50)
        ) {
            let mut bel = crate::biedgelist::BiEdgeList::from_incidences(6, 9, pairs);
            bel.sort_dedup();
            let h = Hypergraph::from_biedgelist(&bel);
            let one_way: Vec<(Id, Id)> = bel
                .incidences()
                .iter()
                .map(|&(e, v)| (e, AdjoinId::from_node(HypernodeId::new(v), 6).raw()))
                .collect();
            let oracle = AdjoinGraph::from_adjoin_edge_list(&EdgeList::from_edges(15, one_way), 6, 9);
            prop_assert_eq!(AdjoinGraph::from_hypergraph(&h), oracle);
        }
    }
}
