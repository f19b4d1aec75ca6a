//! Weighted s-line graphs: edges carry the exact overlap size `|e ∩ f|`.
//!
//! Aksoy et al.'s s-walk framework (the basis of NWHy's s-metrics) weighs
//! line-graph edges by the strength of the connection — Figure 5 of the
//! paper draws exactly this, rendering edge width as overlap size. The
//! construction is the shared counting core of `slinegraph::counting`
//! keeping each surviving count instead of discarding it after
//! thresholding, so the cost matches the unweighted build.

use super::counting::count_rows;
use super::rows::Rows;
use super::HyperAdjacency;
use crate::ids::Overlap;
use crate::Id;
use nwhy_util::partition::Strategy;

/// Canonical weighted pair list: `(e, f, |e ∩ f|)` with `e < f`, sorted,
/// overlap ≥ s.
pub fn slinegraph_weighted_edges<A: HyperAdjacency + ?Sized>(
    h: &A,
    s: usize,
    strategy: Strategy,
) -> Vec<(Id, Id, Overlap)> {
    assert!(s >= 1, "s must be at least 1");
    let (outs, stats) = count_rows(h, Rows::All(strategy), s, Vec::new, |out, i, j, n| {
        out.push((i, j, n));
    });
    let mut triples = outs.concat();
    stats.flush(triples.len());
    // already sorted under a blocked strategy; a cyclic one interleaves
    triples.sort_unstable();
    triples
}

/// Assembles the symmetric weighted CSR (edge weight `1 / overlap`) from
/// already-built canonical triples.
// lint: obs: CSR assembly under the builder's `sline.weighted` span
pub(crate) fn weighted_csr_from_triples(
    num_hyperedges: usize,
    triples: &[(Id, Id, Overlap)],
) -> nwgraph::Csr {
    let mut edges = Vec::with_capacity(triples.len() * 2);
    let mut weights = Vec::with_capacity(triples.len() * 2);
    for &(e, f, o) in triples {
        let w = 1.0 / o as f64;
        edges.push((e, f));
        weights.push(w);
        edges.push((f, e));
        weights.push(w);
    }
    let el = nwgraph::EdgeList::from_weighted_edges(num_hyperedges, edges, weights);
    nwgraph::Csr::from_edge_list(&el)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_hypergraph, paper_slinegraph_edges};
    use crate::hypergraph::Hypergraph;

    #[test]
    fn weights_are_exact_overlaps() {
        let h = paper_hypergraph();
        let triples = slinegraph_weighted_edges(&h, 1, Strategy::AUTO);
        // fixture overlap table (see fixtures.rs)
        assert_eq!(
            triples,
            vec![(0, 1, 1), (0, 3, 3), (1, 2, 3), (1, 3, 2), (2, 3, 2)]
        );
    }

    #[test]
    fn thresholding_matches_unweighted() {
        let h = paper_hypergraph();
        for s in 1..=4 {
            let triples = slinegraph_weighted_edges(&h, s, Strategy::AUTO);
            let pairs: Vec<(u32, u32)> = triples.iter().map(|&(a, b, _)| (a, b)).collect();
            assert_eq!(pairs, paper_slinegraph_edges(s), "s={s}");
            assert!(triples.iter().all(|&(_, _, o)| o as usize >= s));
        }
    }

    #[test]
    fn weighted_csr_inverts_overlap() {
        let h = paper_hypergraph();
        let triples = slinegraph_weighted_edges(&h, 1, Strategy::AUTO);
        let g = weighted_csr_from_triples(h.num_hyperedges(), &triples);
        assert!(g.is_weighted());
        // edge {0,3} has overlap 3 → weight 1/3
        let w = g
            .weighted_neighbors(0)
            .find(|&(t, _)| t == 3)
            .map(|(_, w)| w)
            .unwrap();
        assert!((w - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn strategies_agree() {
        let h = paper_hypergraph();
        let a = slinegraph_weighted_edges(&h, 2, Strategy::Blocked { num_bins: 2 });
        let b = slinegraph_weighted_edges(&h, 2, Strategy::Cyclic { num_bins: 3 });
        assert_eq!(a, b);
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::from_memberships(&[]);
        assert!(slinegraph_weighted_edges(&h, 1, Strategy::AUTO).is_empty());
    }
}
