//! HygraCC — the baseline label-propagation hypergraph connected
//! components of §IV, expressed through the Hygra engine.
//!
//! Minimum labels propagate across incidences via alternating `edge_map`s;
//! only entities whose label changed stay in the frontier for the next
//! half-round (the frontier-driven asynchrony that distinguishes Hygra's
//! formulation from a bulk-synchronous sweep over all incidences).

use crate::engine::{edge_map, resolve_mode, EdgeMapFns, Mode};
use crate::subset::VertexSubset;
use nwhy_core::ids::{self, AdjoinId, HypernodeId};
use nwhy_core::{Hypergraph, Id};
use nwhy_obs::{Counter, Hist};
use nwhy_util::atomics::atomic_min_u32;
use nwhy_util::sync::{AtomicU32, Ordering};

/// HygraCC output — labels per index set, comparable (as a partition)
/// with `nwhy-core`'s HyperCC/AdjoinCC results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HygraCcResult {
    /// Label per hyperedge.
    pub edge_labels: Vec<Id>,
    /// Label per hypernode.
    pub node_labels: Vec<Id>,
}

impl HygraCcResult {
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

/// Propagate-min update: lowering the destination label re-activates it.
struct MinLabel<'a> {
    src_labels: &'a [AtomicU32],
    dst_labels: &'a [AtomicU32],
}

impl EdgeMapFns for MinLabel<'_> {
    fn update_atomic(&self, src: Id, dst: Id) -> bool {
        // Out-of-range endpoints carry no label to propagate; returning
        // false keeps the destination out of the woken frontier.
        match (
            self.src_labels.get(src as usize),
            self.dst_labels.get(dst as usize),
        ) {
            (Some(s), Some(d)) => atomic_min_u32(d, s.load(Ordering::Relaxed)),
            _ => false,
        }
    }
    fn cond(&self, _dst: Id) -> bool {
        true
    }
}

/// Label-propagation HygraCC. Labels share one space (hyperedge `e ↦ e`,
/// hypernode `v ↦ n_e + v`), so final labels are component-minimum
/// hyperedge IDs (or shifted node IDs for edge-free components).
pub fn hygra_cc(h: &Hypergraph) -> HygraCcResult {
    let ne = h.num_hyperedges();
    let nv = h.num_hypernodes();
    let edge_labels: Vec<AtomicU32> = (0..ids::from_usize(ne)).map(AtomicU32::new).collect();
    let node_labels: Vec<AtomicU32> = (0..ids::from_usize(nv))
        .map(|v| AtomicU32::new(AdjoinId::from_node(HypernodeId::new(v), ne).raw()))
        .collect();

    let _span = nwhy_obs::span("hygra.cc");
    // Everything starts active.
    let mut edge_frontier = VertexSubset::full(ne);
    let mut node_frontier = VertexSubset::full(nv);

    // One "round" per while-iteration (a full edge→node→edge alternation).
    // Direction decisions are resolved up front via `resolve_mode` so they
    // can be counted; the forced modes reproduce exactly what
    // `edge_map(.., Mode::Auto)` would have chosen.
    let mut prev_dense: Option<bool> = None;
    while !edge_frontier.is_empty() || !node_frontier.is_empty() {
        nwhy_obs::incr(Counter::CcRounds);
        nwhy_obs::observe(
            Hist::CcFrontier,
            (edge_frontier.len() + node_frontier.len()) as u64,
        );
        // active hyperedges push labels to their hypernodes
        let step_mode = resolve_mode(
            h.edges(),
            &mut edge_frontier,
            Mode::Auto,
            &mut prev_dense,
            Counter::CcSparseSteps,
            Counter::CcDenseSteps,
            Counter::CcDirectionSwitches,
        );
        let woken_nodes = edge_map(
            h.edges(),
            h.nodes(),
            &mut edge_frontier,
            &MinLabel {
                src_labels: &edge_labels,
                dst_labels: &node_labels,
            },
            step_mode,
        );
        // nodes woken now OR still pending from last round push back
        let mut active_nodes = merge(node_frontier, woken_nodes, nv);
        let step_mode = resolve_mode(
            h.nodes(),
            &mut active_nodes,
            Mode::Auto,
            &mut prev_dense,
            Counter::CcSparseSteps,
            Counter::CcDenseSteps,
            Counter::CcDirectionSwitches,
        );
        let woken_edges = edge_map(
            h.nodes(),
            h.edges(),
            &mut active_nodes,
            &MinLabel {
                src_labels: &node_labels,
                dst_labels: &edge_labels,
            },
            step_mode,
        );
        edge_frontier = woken_edges;
        node_frontier = VertexSubset::empty(nv);
    }

    HygraCcResult {
        edge_labels: edge_labels.into_iter().map(AtomicU32::into_inner).collect(),
        node_labels: node_labels.into_iter().map(AtomicU32::into_inner).collect(),
    }
}

fn merge(mut a: VertexSubset, mut b: VertexSubset, n: usize) -> VertexSubset {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut ids: Vec<Id> = a.as_sparse().to_vec();
    ids.extend_from_slice(b.as_sparse());
    ids.sort_unstable();
    ids.dedup();
    VertexSubset::from_sparse(n, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwhy_core::algorithms::hyper_cc::hyper_cc;
    use nwhy_core::fixtures::paper_hypergraph;

    fn same_partition(a: (&[Id], &[Id]), b: (&[Id], &[Id])) -> bool {
        let av: Vec<Id> = a.0.iter().chain(a.1).copied().collect();
        let bv: Vec<Id> = b.0.iter().chain(b.1).copied().collect();
        for i in 0..av.len() {
            for j in (i + 1)..av.len() {
                if (av[i] == av[j]) != (bv[i] == bv[j]) {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn fixture_single_component() {
        let h = paper_hypergraph();
        let r = hygra_cc(&h);
        assert_eq!(r.num_components(), 1);
        assert!(r.edge_labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn matches_nwhy_hyper_cc() {
        let cases = vec![
            vec![vec![0, 1], vec![1, 2], vec![5, 6]],
            vec![vec![0], vec![1], vec![2]],
            vec![vec![], vec![0, 3], vec![3, 4], vec![7]],
        ];
        for ms in cases {
            let h = Hypergraph::from_memberships(&ms);
            let hy = hygra_cc(&h);
            let nw = hyper_cc(&h);
            assert!(
                same_partition(
                    (&hy.edge_labels, &hy.node_labels),
                    (&nw.edge_labels, &nw.node_labels)
                ),
                "{ms:?}"
            );
            assert_eq!(hy.num_components(), nw.num_components());
        }
    }

    #[test]
    fn isolated_nodes_keep_own_labels() {
        let bel = nwhy_core::BiEdgeList::from_incidences(1, 3, vec![(0, 1)]);
        let h = Hypergraph::from_biedgelist(&bel);
        let r = hygra_cc(&h);
        assert_eq!(r.node_labels[0], 1); // ne + 0
        assert_eq!(r.node_labels[1], 0); // joined e0's component
        assert_eq!(r.node_labels[2], 3); // ne + 2
        assert_eq!(r.num_components(), 3);
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::from_memberships(&[]);
        let r = hygra_cc(&h);
        assert_eq!(r.num_components(), 0);
    }
}
