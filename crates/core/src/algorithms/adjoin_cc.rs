//! AdjoinCC — connected components on the adjoin-graph representation
//! (§III-C.2), using either Afforest (Sutton et al.) or label propagation.
//!
//! Like AdjoinBFS, these are unmodified plain-graph kernels from
//! `nwgraph` plus a range-aware split. The labels land in the shared
//! adjoin ID space.

use crate::adjoin::AdjoinGraph;
use crate::Id;
use nwgraph::algorithms::cc::{afforest, cc_label_propagation};

/// AdjoinCC output: component labels split per index set. Labels are
/// adjoin IDs, consistent across the two halves (a hyperedge and a
/// hypernode in the same component share a label).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdjoinCcResult {
    /// Label per hyperedge.
    pub edge_labels: Vec<Id>,
    /// Label per hypernode.
    pub node_labels: Vec<Id>,
}

impl AdjoinCcResult {
    /// Number of distinct components.
    pub fn num_components(&self) -> usize {
        let mut all: Vec<Id> = self
            .edge_labels
            .iter()
            .chain(self.node_labels.iter())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }
}

/// AdjoinCC with the Afforest algorithm.
pub fn adjoin_cc_afforest(a: &AdjoinGraph) -> AdjoinCcResult {
    let _span = nwhy_obs::span("algo.adjoin_cc.afforest");
    let labels = afforest(a.graph());
    let (edge_labels, node_labels) = a.split_result(&labels);
    AdjoinCcResult {
        edge_labels,
        node_labels,
    }
}

/// AdjoinCC with minimum-label propagation.
pub fn adjoin_cc_label_propagation(a: &AdjoinGraph) -> AdjoinCcResult {
    let _span = nwhy_obs::span("algo.adjoin_cc.lp");
    let labels = cc_label_propagation(a.graph());
    let (edge_labels, node_labels) = a.split_result(&labels);
    AdjoinCcResult {
        edge_labels,
        node_labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::hyper_cc::hyper_cc;
    use crate::fixtures::paper_hypergraph;
    use crate::hypergraph::Hypergraph;
    use proptest::prelude::*;

    fn same_partition(a_edges: &[Id], a_nodes: &[Id], b_edges: &[Id], b_nodes: &[Id]) -> bool {
        let a: Vec<Id> = a_edges.iter().chain(a_nodes).copied().collect();
        let b: Vec<Id> = b_edges.iter().chain(b_nodes).copied().collect();
        for i in 0..a.len() {
            for j in (i + 1)..a.len() {
                if (a[i] == a[j]) != (b[i] == b[j]) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn fixture_single_component_both_algorithms() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        for r in [adjoin_cc_afforest(&a), adjoin_cc_label_propagation(&a)] {
            assert_eq!(r.num_components(), 1);
        }
    }

    #[test]
    fn matches_hyper_cc_partition() {
        let h = Hypergraph::from_memberships(&[vec![0, 1], vec![1, 2], vec![3], vec![4, 5]]);
        let a = AdjoinGraph::from_hypergraph(&h);
        let hr = hyper_cc(&h);
        for ar in [adjoin_cc_afforest(&a), adjoin_cc_label_propagation(&a)] {
            assert!(same_partition(
                &ar.edge_labels,
                &ar.node_labels,
                &hr.edge_labels,
                &hr.node_labels
            ));
            assert_eq!(ar.num_components(), hr.num_components());
        }
    }

    #[test]
    fn isolated_entities_counted() {
        let bel = crate::biedgelist::BiEdgeList::from_incidences(2, 3, vec![(0, 0)]);
        let h = Hypergraph::from_biedgelist(&bel);
        let a = AdjoinGraph::from_hypergraph(&h);
        let r = adjoin_cc_afforest(&a);
        // components: {e0, v0}, {e1}, {v1}, {v2}
        assert_eq!(r.num_components(), 4);
    }

    fn arb_memberships() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Id>>> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..12, 0..5), 0..10)
            .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_adjoin_cc_equals_hyper_cc(ms in arb_memberships()) {
            let h = Hypergraph::from_memberships(&ms);
            let a = AdjoinGraph::from_hypergraph(&h);
            let hr = hyper_cc(&h);
            for ar in [adjoin_cc_afforest(&a), adjoin_cc_label_propagation(&a)] {
                prop_assert!(same_partition(
                    &ar.edge_labels, &ar.node_labels,
                    &hr.edge_labels, &hr.node_labels
                ));
            }
        }
    }
}
