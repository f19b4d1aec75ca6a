//! Online s-connected components — s-CC *without* materializing the
//! s-line graph.
//!
//! The paper frames the exact/approximate choice as a time/space
//! trade-off (§I: "based on the time and space requirements"). For s-CC
//! there is a middle road: run the s-line construction's overlap count
//! (the counting core behind the hashmap kernel, `e → v → f` through the
//! bipartite indirection) and hand each pair with `|e ∩ f| ≥ s` straight
//! to a union-find forest instead of an edge list. Afforest's concurrent
//! `link` joins the pair's trees as the pool threads find it, and one
//! `compress` names every hyperedge's component minimum. Time matches
//! one line-graph construction, but the `O(|L_s|)` edge list — which for
//! `s = 1` can be quadratic (the Fig. 9 runs materialize millions of
//! edges) — is never stored.

use crate::ids;
use crate::repr::HyperAdjacency;
use crate::slinegraph::counting::visit_pairs_meeting;
use crate::Id;
use nwhy_util::atomics::{compress, link};
use nwhy_util::sync::AtomicU32;

/// Labels hyperedges by s-connected component (smallest member hyperedge
/// ID per component, like `SLineGraph::s_connected_components`).
pub fn s_connected_components_online<H: HyperAdjacency + ?Sized>(h: &H, s: usize) -> Vec<Id> {
    let _span = nwhy_obs::span("algo.s_components");
    assert!(s >= 1, "s must be at least 1");
    let comp: Vec<AtomicU32> = (0..ids::from_usize(h.num_hyperedges()))
        .map(AtomicU32::new)
        .collect();
    visit_pairs_meeting(h, s, |i, j, _| link(i, j, &comp));
    compress(&comp);
    comp.into_iter().map(AtomicU32::into_inner).collect()
}

/// `true` if all hyperedges share one s-component (online variant of
/// `is_s_connected`). Vacuously true for ≤ 1 hyperedge.
pub fn is_s_connected_online<H: HyperAdjacency + ?Sized>(h: &H, s: usize) -> bool {
    // labels are component minima: one component labels everything 0
    s_connected_components_online(h, s).iter().all(|&l| l == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjoin::AdjoinGraph;
    use crate::fixtures::paper_hypergraph;
    use crate::hypergraph::Hypergraph;
    use crate::repr::RelabeledView;
    use crate::slinegraph::counting::tests::{arb_memberships, descending};
    use crate::smetrics::SLineGraph;
    use nwhy_util::pool::with_threads;
    use proptest::prelude::*;

    #[test]
    fn fixture_components_match_linegraph_path() {
        let h = paper_hypergraph();
        for s in 1..=4 {
            let online = s_connected_components_online(&h, s);
            let materialized = SLineGraph::new(&h, s).s_connected_components();
            assert_eq!(online, materialized, "s={s}");
        }
    }

    #[test]
    fn connectivity_queries() {
        let h = paper_hypergraph();
        assert!(is_s_connected_online(&h, 1));
        assert!(is_s_connected_online(&h, 2));
        assert!(!is_s_connected_online(&h, 3));
    }

    #[test]
    fn runs_on_adjoin_representation() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        for s in 1..=3 {
            assert_eq!(
                s_connected_components_online(&a, s),
                s_connected_components_online(&h, s),
                "s={s}"
            );
        }
    }

    #[test]
    fn small_edges_are_isolated() {
        let h = Hypergraph::from_memberships(&[vec![0], vec![0, 1], vec![0, 1]]);
        let labels = s_connected_components_online(&h, 2);
        // e0 has 1 member: isolated at s=2; e1 = e2 connect
        assert_eq!(labels, vec![0, 1, 1]);
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::from_memberships(&[]);
        assert!(s_connected_components_online(&h, 1).is_empty());
        assert!(is_s_connected_online(&h, 1));
    }

    /// Online labels equal the materialized s-line graph's on `h`, at
    /// 1–3 threads (`link` races between the pool threads).
    fn agrees_with_materialized<A: HyperAdjacency + ?Sized>(h: &A, s: usize) {
        let want = SLineGraph::new(h, s).s_connected_components();
        for threads in 1..=3 {
            let got = with_threads(threads, || s_connected_components_online(h, s));
            assert_eq!(got, want, "s={s} threads={threads}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_online_equals_materialized(ms in arb_memberships(), s in 1usize..4) {
            let h = Hypergraph::from_memberships(&ms);
            agrees_with_materialized(&h, s);
            agrees_with_materialized(&AdjoinGraph::from_hypergraph(&h), s);
            agrees_with_materialized(&RelabeledView::from_relabeling(&h, &descending(&h)), s);
        }
    }
}
