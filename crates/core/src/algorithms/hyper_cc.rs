//! HyperCC — connected components over the bipartite incidence structure,
//! generic over any [`HyperAdjacency`].
//!
//! A hyperedge and a hypernode are connected when incident; two
//! hypernodes are connected when they share a hyperedge. Labels live in a
//! combined space (`hyperedge e ↦ e`, `hypernode index i ↦ n_e + i`) so
//! every initial label is distinct, and every final label is the minimum
//! of its component. Because hyperedge IDs sit below hypernode IDs, that
//! is the smallest *hyperedge* ID of the component (or the node's own
//! shifted ID for isolated hypernodes). Both kernels below compute these
//! minima, so they return the same labels, bit for bit, on every
//! representation.
//!
//! - [`hyper_cc`] is Afforest's link/compress (Sutton et al., IPDPS'18,
//!   the hooking behind AdjoinCC) run straight on the incidence lists:
//!   one parallel sweep over the edge rows links each hyperedge with its
//!   members, then one compress pass. It decodes every row exactly once,
//!   so a packed image needs no resident side.
//! - [`hyper_cc_label_propagation`] is the paper's HyperCC (§III-C.1,
//!   Fig. 7; Orzan / Yan et al.): rounds of parallel min-exchange across
//!   the incidence lists until no label moves.

use crate::repr::HyperAdjacency;
use crate::{ids, Id};
use nwhy_util::atomics::{atomic_min_u32, compress, link};
use nwhy_util::sync::{AtomicBool, AtomicU32, Ordering};
use rayon::prelude::*;

/// Component labels for both index sets. Two entities (of either kind)
/// are in the same hypergraph component iff their labels are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperCcResult {
    /// Label per hyperedge.
    pub edge_labels: Vec<Id>,
    /// Label per hypernode.
    pub node_labels: Vec<Id>,
}

impl HyperCcResult {
    /// Number of distinct components with at least one hyperedge or
    /// hypernode.
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

/// Union-find HyperCC: links every hyperedge `e` with `n_e + node_index(v)`
/// for each member `v` in one parallel sweep over the edge rows, then
/// compresses. Labels equal [`hyper_cc_label_propagation`]'s.
pub fn hyper_cc<A: HyperAdjacency + ?Sized>(h: &A) -> HyperCcResult {
    let _span = nwhy_obs::span("algo.hyper_cc");
    let ne = h.num_hyperedges();
    let comp: Vec<AtomicU32> = (0..ids::from_usize(ne + h.num_hypernodes()))
        .map(AtomicU32::new)
        .collect();
    (0..ne).into_par_iter().for_each(|e| {
        let e = ids::from_usize(e);
        for &handle in h.edge_neighbors(e).iter() {
            link(e, ids::from_usize(ne + h.node_index(handle)), &comp);
        }
    });
    compress(&comp);
    let mut edge_labels: Vec<Id> = comp.into_iter().map(AtomicU32::into_inner).collect();
    let node_labels = edge_labels.split_off(ne);
    HyperCcResult {
        edge_labels,
        node_labels,
    }
}

/// Label-propagation HyperCC, the paper's Fig. 7 kernel.
pub fn hyper_cc_label_propagation<A: HyperAdjacency + ?Sized>(h: &A) -> HyperCcResult {
    let _span = nwhy_obs::span("algo.hyper_cc.lp");
    let ne = h.num_hyperedges();
    let nv = h.num_hypernodes();
    let edge_labels: Vec<AtomicU32> = (0..ids::from_usize(ne)).map(AtomicU32::new).collect();
    let node_labels: Vec<AtomicU32> = (0..nv)
        .map(|i| AtomicU32::new(ids::from_usize(ne + i)))
        .collect();

    let changed = AtomicBool::new(true);
    while changed.swap(false, Ordering::Relaxed) {
        // Push hyperedge labels to incident hypernodes and pull back —
        // one round touches every incidence twice, the two-index-set
        // bookkeeping the paper describes.
        (0..ne).into_par_iter().for_each(|e| {
            let le = edge_labels[e].load(Ordering::Relaxed);
            for &handle in h.edge_neighbors(ids::from_usize(e)).iter() {
                let t = h.node_index(handle);
                if atomic_min_u32(&node_labels[t], le) {
                    changed.store(true, Ordering::Relaxed);
                }
                let lv = node_labels[t].load(Ordering::Relaxed);
                if atomic_min_u32(&edge_labels[e], lv) {
                    changed.store(true, Ordering::Relaxed);
                }
            }
        });
    }

    HyperCcResult {
        edge_labels: edge_labels.into_iter().map(AtomicU32::into_inner).collect(),
        node_labels: node_labels.into_iter().map(AtomicU32::into_inner).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjoin::AdjoinGraph;
    use crate::fixtures::paper_hypergraph;
    use crate::hypergraph::Hypergraph;
    use crate::repr::{DualView, RelabeledView};
    use nwhy_util::pool::with_threads;
    use proptest::prelude::*;

    #[test]
    fn fixture_is_one_component() {
        let h = paper_hypergraph();
        let r = hyper_cc(&h);
        assert!(r.edge_labels.iter().all(|&l| l == 0));
        assert!(r.node_labels.iter().all(|&l| l == 0));
        assert_eq!(r.num_components(), 1);
    }

    #[test]
    fn two_components_split_cleanly() {
        let h = Hypergraph::from_memberships(&[vec![0, 1], vec![1, 2], vec![3, 4]]);
        let r = hyper_cc(&h);
        assert_eq!(r.edge_labels[0], r.edge_labels[1]);
        assert_ne!(r.edge_labels[0], r.edge_labels[2]);
        assert_eq!(r.node_labels[0], r.node_labels[2]);
        assert_eq!(r.node_labels[3], r.edge_labels[2]);
        assert_eq!(r.num_components(), 2);
    }

    #[test]
    fn isolated_hypernode_is_own_component() {
        // node 2 in the ID space but no incidences
        let bel = crate::biedgelist::BiEdgeList::from_incidences(1, 3, vec![(0, 0), (0, 1)]);
        let h = Hypergraph::from_biedgelist(&bel);
        let r = hyper_cc(&h);
        assert_eq!(r.node_labels[2], 1 + 2); // ne + v
        assert_eq!(r.num_components(), 2);
    }

    #[test]
    fn empty_hyperedge_is_own_component() {
        let h = Hypergraph::from_memberships(&[vec![], vec![0, 1]]);
        let r = hyper_cc(&h);
        assert_ne!(r.edge_labels[0], r.edge_labels[1]);
        assert_eq!(r.num_components(), 2);
    }

    #[test]
    fn labels_are_component_minimum_hyperedge() {
        let h = Hypergraph::from_memberships(&[vec![0], vec![0, 1], vec![2], vec![2, 3]]);
        let r = hyper_cc(&h);
        // component {e0,e1,v0,v1} labeled 0; {e2,e3,v2,v3} labeled 2
        assert_eq!(r.edge_labels, vec![0, 0, 2, 2]);
        assert_eq!(r.node_labels, vec![0, 0, 2, 2]);
        // the adjoin graph yields the same labels, not just the partition
        assert_eq!(hyper_cc(&AdjoinGraph::from_hypergraph(&h)), r);
    }

    fn arb_memberships() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Id>>> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..15, 0..5), 0..10)
            .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
    }

    /// Oracle: sequential DFS over the bipartite structure.
    fn dfs_components(h: &Hypergraph) -> (Vec<Id>, Vec<Id>) {
        let ne = h.num_hyperedges();
        let nv = h.num_hypernodes();
        let mut el = vec![u32::MAX; ne];
        let mut nl = vec![u32::MAX; nv];
        let mut next_label = 0;
        for start in 0..ne {
            if el[start] != u32::MAX {
                continue;
            }
            let label = next_label;
            next_label += 1;
            let mut stack = vec![(true, ids::from_usize(start))];
            el[start] = label;
            while let Some((is_edge, x)) = stack.pop() {
                if is_edge {
                    for &v in h.edge_members(x) {
                        if nl[v as usize] == u32::MAX {
                            nl[v as usize] = label;
                            stack.push((false, v));
                        }
                    }
                } else {
                    for &e in h.node_memberships(x) {
                        if el[e as usize] == u32::MAX {
                            el[e as usize] = label;
                            stack.push((true, e));
                        }
                    }
                }
            }
        }
        for label in nl.iter_mut() {
            if *label == u32::MAX {
                *label = next_label;
                next_label += 1;
            }
        }
        (el, nl)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_matches_dfs_partition(ms in arb_memberships()) {
            let h = Hypergraph::from_memberships(&ms);
            let (el, nl) = dfs_components(&h);
            let ne = h.num_hyperedges();
            let a = AdjoinGraph::from_hypergraph(&h);
            for r in [hyper_cc(&h), hyper_cc(&a)] {
                // same partition: pairwise equality must agree
                for a in 0..ne {
                    for b in 0..ne {
                        prop_assert_eq!(
                            r.edge_labels[a] == r.edge_labels[b],
                            el[a] == el[b],
                            "edges {} {}", a, b
                        );
                    }
                    #[allow(clippy::needless_range_loop)] // lint: parallel indexing of two arrays
                    for v in 0..h.num_hypernodes() {
                        prop_assert_eq!(
                            r.edge_labels[a] == r.node_labels[v],
                            el[a] == nl[v],
                            "edge {} node {}", a, v
                        );
                    }
                }
            }
            // Union-find and label propagation agree bit for bit on every
            // view and at every thread count.
            let perm: Vec<Id> = (0..ids::from_usize(ne)).rev().collect();
            let relabeled = RelabeledView::new(&h, &perm, &perm);
            let dual = DualView::new(&h);
            prop_assert_eq!(hyper_cc(&h), hyper_cc_label_propagation(&h));
            prop_assert_eq!(hyper_cc(&a), hyper_cc_label_propagation(&a));
            prop_assert_eq!(hyper_cc(&dual), hyper_cc_label_propagation(&dual));
            prop_assert_eq!(hyper_cc(&relabeled), hyper_cc_label_propagation(&relabeled));
            for t in [1, 2, 3] {
                prop_assert_eq!(with_threads(t, || hyper_cc(&h)), hyper_cc_label_propagation(&h));
            }
        }
    }
}
