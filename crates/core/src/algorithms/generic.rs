//! Representation-generic HyperBFS / HyperCC.
//!
//! [`hyper_bfs`](super::hyper_bfs) and [`hyper_cc`](super::hyper_cc) are
//! specialized to the in-memory bi-adjacency [`Hypergraph`]
//! (`crate::Hypergraph`) — they walk the two CSRs directly. The variants
//! here take any [`HyperAdjacency`], which is what lets the same
//! traversals run on the adjoin graph, on zero-copy views, and on the
//! compressed on-disk backend (`nwhy-store`) without decompressing the
//! whole structure first.
//!
//! Results use the same output structs as the concrete algorithms, with
//! per-hypernode arrays indexed by *dense hypernode index* (`[0, n_v)`,
//! via [`HyperAdjacency::node_index`]) so they are comparable across
//! representations. Levels and labels are deterministic; BFS parents are
//! subject to the usual CAS races, exactly as in the concrete variants.

use super::hyper_bfs::HyperBfsResult;
use super::hyper_cc::HyperCcResult;
use crate::repr::HyperAdjacency;
use crate::{ids, Id};
use nwgraph::INVALID_VERTEX;
use nwhy_util::atomics::atomic_min_u32;
use nwhy_util::sync::{AtomicBool, AtomicU32, Ordering};
use rayon::prelude::*;

/// Top-down HyperBFS from a source hyperedge (working ID), over any
/// representation.
///
/// Matches [`super::hyper_bfs_top_down`] on levels and reach counts for
/// any representation whose hypernode handles are the identity embedding
/// (bi-adjacency, compressed); for adjoin graphs the node arrays are
/// reported per dense index, so they are comparable too.
///
/// # Panics
/// Panics if `source` is out of range.
pub fn hyper_bfs_generic<A: HyperAdjacency + ?Sized>(h: &A, source: Id) -> HyperBfsResult {
    let _span = nwhy_obs::span("algo.hyper_bfs.generic");
    let ne = h.num_hyperedges();
    let nv = h.num_hypernodes();
    assert!(
        ids::to_usize(source) < ne,
        "source hyperedge {source} out of range {ne}"
    );
    let edge_levels: Vec<AtomicU32> = (0..ne).map(|_| AtomicU32::new(INVALID_VERTEX)).collect();
    let node_levels: Vec<AtomicU32> = (0..nv).map(|_| AtomicU32::new(INVALID_VERTEX)).collect();
    let edge_parents: Vec<AtomicU32> = (0..ne).map(|_| AtomicU32::new(INVALID_VERTEX)).collect();
    let node_parents: Vec<AtomicU32> = (0..nv).map(|_| AtomicU32::new(INVALID_VERTEX)).collect();
    edge_levels[ids::to_usize(source)].store(0, Ordering::Relaxed);
    edge_parents[ids::to_usize(source)].store(source, Ordering::Relaxed);

    let mut edge_frontier = vec![source];
    let mut depth = 0u32;
    while !edge_frontier.is_empty() {
        // hyperedges → hypernodes
        depth += 1;
        let node_frontier: Vec<usize> = edge_frontier
            .par_iter()
            .fold(Vec::new, |mut next, &e| {
                for &handle in h.edge_neighbors(e).iter() {
                    let t = h.node_index(handle);
                    if node_parents[t].load(Ordering::Relaxed) == INVALID_VERTEX
                        && node_parents[t]
                            .compare_exchange(
                                INVALID_VERTEX,
                                e,
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    {
                        node_levels[t].store(depth, Ordering::Relaxed);
                        next.push(t);
                    }
                }
                next
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        if node_frontier.is_empty() {
            break;
        }
        // hypernodes → hyperedges
        depth += 1;
        edge_frontier = node_frontier
            .par_iter()
            .fold(Vec::new, |mut next, &t| {
                let handle = h.node_id(t);
                for &raw in h.node_neighbors(handle).iter() {
                    let j = h.edge_id(raw);
                    let ju = ids::to_usize(j);
                    if edge_parents[ju].load(Ordering::Relaxed) == INVALID_VERTEX
                        && edge_parents[ju]
                            .compare_exchange(
                                INVALID_VERTEX,
                                handle,
                                Ordering::AcqRel,
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    {
                        edge_levels[ju].store(depth, Ordering::Relaxed);
                        next.push(j);
                    }
                }
                next
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
    }
    HyperBfsResult {
        edge_levels: edge_levels.into_iter().map(AtomicU32::into_inner).collect(),
        node_levels: node_levels.into_iter().map(AtomicU32::into_inner).collect(),
        edge_parents: edge_parents
            .into_iter()
            .map(AtomicU32::into_inner)
            .collect(),
        node_parents: node_parents
            .into_iter()
            .map(AtomicU32::into_inner)
            .collect(),
    }
}

/// Label-propagation HyperCC over any representation.
///
/// Labels live in the combined space (`hyperedge e ↦ e`, `hypernode index
/// i ↦ n_e + i`); final labels equal [`super::hyper_cc`]'s on any
/// representation (label minima are deterministic).
pub fn hyper_cc_generic<A: HyperAdjacency + ?Sized>(h: &A) -> HyperCcResult {
    let _span = nwhy_obs::span("algo.hyper_cc.generic");
    let ne = h.num_hyperedges();
    let nv = h.num_hypernodes();
    let edge_labels: Vec<AtomicU32> = (0..ids::from_usize(ne)).map(AtomicU32::new).collect();
    let node_labels: Vec<AtomicU32> = (0..nv)
        .map(|i| AtomicU32::new(ids::from_usize(ne + i)))
        .collect();

    let changed = AtomicBool::new(true);
    while changed.swap(false, Ordering::Relaxed) {
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
    use crate::algorithms::{hyper_bfs_top_down, hyper_cc};
    use crate::fixtures::paper_hypergraph;
    use crate::hypergraph::Hypergraph;
    use proptest::prelude::*;

    #[test]
    fn bfs_matches_concrete_on_biadjacency() {
        let h = paper_hypergraph();
        for src in 0..4 {
            let generic = hyper_bfs_generic(&h, src);
            let concrete = hyper_bfs_top_down(&h, src);
            assert_eq!(generic.edge_levels, concrete.edge_levels, "src {src}");
            assert_eq!(generic.node_levels, concrete.node_levels, "src {src}");
        }
    }

    #[test]
    fn bfs_levels_agree_on_adjoin() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        for src in 0..4 {
            let on_h = hyper_bfs_generic(&h, src);
            let on_a = hyper_bfs_generic(&a, src);
            assert_eq!(on_h.edge_levels, on_a.edge_levels, "src {src}");
            assert_eq!(on_h.node_levels, on_a.node_levels, "src {src}");
        }
    }

    #[test]
    fn cc_matches_concrete() {
        let h = paper_hypergraph();
        assert_eq!(hyper_cc_generic(&h), hyper_cc(&h));
        let split = Hypergraph::from_memberships(&[vec![0, 1], vec![1, 2], vec![3, 4]]);
        assert_eq!(hyper_cc_generic(&split), hyper_cc(&split));
    }

    #[test]
    fn cc_labels_agree_on_adjoin() {
        let h = Hypergraph::from_memberships(&[vec![0], vec![0, 1], vec![2], vec![2, 3]]);
        let a = AdjoinGraph::from_hypergraph(&h);
        assert_eq!(hyper_cc_generic(&a), hyper_cc_generic(&h));
    }

    #[test]
    fn empty_and_degenerate() {
        let h = Hypergraph::from_memberships(&[vec![], vec![0]]);
        let r = hyper_bfs_generic(&h, 0);
        assert_eq!(r.edges_reached(), 1);
        assert_eq!(r.nodes_reached(), 0);
        let cc = hyper_cc_generic(&h);
        assert_eq!(cc.num_components(), 2);
    }

    fn arb_memberships() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Id>>> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..15, 0..6), 1..10)
            .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_generic_equals_concrete(ms in arb_memberships(), src_seed in 0u32..100) {
            let h = Hypergraph::from_memberships(&ms);
            let src = src_seed % ids::from_usize(h.num_hyperedges());
            let g = hyper_bfs_generic(&h, src);
            let c = hyper_bfs_top_down(&h, src);
            prop_assert_eq!(g.edge_levels, c.edge_levels);
            prop_assert_eq!(g.node_levels, c.node_levels);
            prop_assert_eq!(hyper_cc_generic(&h), hyper_cc(&h));
        }
    }
}
