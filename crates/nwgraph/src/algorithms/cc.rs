//! Parallel connected components: label propagation, Shiloach–Vishkin, and
//! Afforest.
//!
//! These are the three CC algorithm families the NWHy paper names:
//! minimum-label propagation (Orzan; Yan et al.) drives HyperCC, Afforest
//! (Sutton, Ben-Nun, Barak) drives AdjoinCC, and Shiloach–Vishkin is the
//! classic PRAM baseline. All expect an undirected (symmetric) graph and
//! return a label array where two vertices share a label iff they share a
//! component.

use crate::csr::Csr;
use crate::Vertex;
use nwhy_util::atomics::{atomic_min_u32, compress, link};
use nwhy_util::fxhash::FxHashMap;
use nwhy_util::sync::{AtomicBool, AtomicU32, Ordering};
use rayon::prelude::*;

/// Minimum-label propagation. Every vertex starts with its own ID as
/// label; rounds of parallel edge relaxations push the minimum label
/// through each component until a fixpoint.
pub fn cc_label_propagation(g: &Csr) -> Vec<Vertex> {
    let n = g.num_vertices();
    let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let changed = AtomicBool::new(true);
    while changed.swap(false, Ordering::Relaxed) {
        (0..n).into_par_iter().for_each(|u| {
            let lu = labels[u].load(Ordering::Relaxed);
            for &v in g.neighbors(u as Vertex) {
                // Push my label down to the neighbor and pull theirs to me.
                if atomic_min_u32(&labels[v as usize], lu) {
                    changed.store(true, Ordering::Relaxed);
                }
                let lv = labels[v as usize].load(Ordering::Relaxed);
                if atomic_min_u32(&labels[u], lv) {
                    changed.store(true, Ordering::Relaxed);
                }
            }
        });
    }
    labels.into_iter().map(AtomicU32::into_inner).collect()
}

/// Shiloach–Vishkin (1982): alternating hook and pointer-jumping
/// (compress) phases on a parent forest.
pub fn shiloach_vishkin(g: &Csr) -> Vec<Vertex> {
    let n = g.num_vertices();
    let parent: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let changed = AtomicBool::new(true);
    while changed.swap(false, Ordering::Relaxed) {
        // Hook: for each edge (u, v), attach the root of the larger label
        // under the smaller.
        (0..n).into_par_iter().for_each(|u| {
            for &v in g.neighbors(u as Vertex) {
                let pu = parent[u].load(Ordering::Relaxed);
                let pv = parent[v as usize].load(Ordering::Relaxed);
                // only hook roots to keep the forest shallow
                if pu < pv && pv == parent[pv as usize].load(Ordering::Relaxed) {
                    if atomic_min_u32(&parent[pv as usize], pu) {
                        changed.store(true, Ordering::Relaxed);
                    }
                } else if pv < pu
                    && pu == parent[pu as usize].load(Ordering::Relaxed)
                    && atomic_min_u32(&parent[pu as usize], pv)
                {
                    changed.store(true, Ordering::Relaxed);
                }
            }
        });
        // Compress: pointer jumping.
        (0..n).into_par_iter().for_each(|u| loop {
            let p = parent[u].load(Ordering::Relaxed);
            let gp = parent[p as usize].load(Ordering::Relaxed);
            if p == gp {
                break;
            }
            parent[u].store(gp, Ordering::Relaxed);
        });
    }
    parent.into_iter().map(AtomicU32::into_inner).collect()
}

/// Finds the most frequent component among ~1024 sampled vertices — the
/// Afforest "skip the giant component" heuristic.
fn sample_largest(comp: &[AtomicU32]) -> Vertex {
    let n = comp.len();
    if n == 0 {
        return 0;
    }
    let step = (n / 1024).max(1);
    let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
    let mut i = 0;
    while i < n {
        // follow to root for an accurate sample
        let mut c = comp[i].load(Ordering::Relaxed);
        while c != comp[c as usize].load(Ordering::Relaxed) {
            c = comp[c as usize].load(Ordering::Relaxed);
        }
        *counts.entry(c).or_insert(0) += 1;
        i += step;
    }
    counts
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .map(|(label, _)| label)
        .unwrap_or(0)
}

/// How many of each vertex's first neighbors the Afforest sampling phase
/// links (the paper's "subgraph sampling" parameter, 2 in the original).
const NEIGHBOR_ROUNDS: usize = 2;

/// Afforest (Sutton et al., IPDPS 2018): link a couple of neighbors per
/// vertex, identify the emerging giant component by sampling, then finish
/// linking only the vertices outside it. NWHy's AdjoinCC uses this.
///
/// # Examples
///
/// ```
/// use nwgraph::algorithms::cc::{afforest, normalize_labels, num_components};
/// use nwgraph::{Csr, EdgeList};
///
/// let mut el = EdgeList::from_edges(5, vec![(0, 1), (1, 2), (3, 4)]);
/// el.symmetrize();
/// let g = Csr::from_edge_list(&el);
/// let labels = normalize_labels(&afforest(&g));
/// assert_eq!(labels, vec![0, 0, 0, 3, 3]);
/// assert_eq!(num_components(&labels), 2);
/// ```
pub fn afforest(g: &Csr) -> Vec<Vertex> {
    let n = g.num_vertices();
    let comp: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();

    // Phase 1: neighbor-round sampling.
    for round in 0..NEIGHBOR_ROUNDS {
        (0..n).into_par_iter().for_each(|u| {
            if let Some(&v) = g.neighbors(u as Vertex).get(round) {
                link(u as Vertex, v, &comp);
            }
        });
        compress(&comp);
    }

    // Phase 2: find the giant component.
    let giant = sample_largest(&comp);

    // Phase 3: finish the remaining edges of vertices outside the giant
    // component.
    (0..n).into_par_iter().for_each(|u| {
        if comp[u].load(Ordering::Relaxed) == giant {
            return;
        }
        let nbrs = g.neighbors(u as Vertex);
        for &v in nbrs.iter().skip(NEIGHBOR_ROUNDS) {
            link(u as Vertex, v, &comp);
        }
    });
    compress(&comp);
    comp.into_iter().map(AtomicU32::into_inner).collect()
}

/// Number of distinct components in a label array.
pub fn num_components(labels: &[Vertex]) -> usize {
    let mut distinct: Vec<Vertex> = labels.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len()
}

/// Sizes of each component, keyed by label.
pub fn component_sizes(labels: &[Vertex]) -> FxHashMap<Vertex, usize> {
    let mut sizes: FxHashMap<Vertex, usize> = FxHashMap::default();
    for &l in labels {
        *sizes.entry(l).or_insert(0) += 1;
    }
    sizes
}

/// Canonicalizes labels so that each component is named by its smallest
/// member, making outputs of different CC algorithms directly comparable.
pub fn normalize_labels(labels: &[Vertex]) -> Vec<Vertex> {
    let mut smallest: FxHashMap<Vertex, Vertex> = FxHashMap::default();
    for (v, &l) in labels.iter().enumerate() {
        let e = smallest.entry(l).or_insert(v as Vertex);
        *e = (*e).min(v as Vertex);
    }
    labels.iter().map(|l| smallest[l]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::EdgeList;
    use crate::random::gnm_undirected;
    use proptest::prelude::*;

    fn two_components() -> Csr {
        // {0,1,2} path and {3,4} edge
        let mut el = EdgeList::from_edges(5, vec![(0, 1), (1, 2), (3, 4)]);
        el.symmetrize();
        Csr::from_edge_list(&el)
    }

    /// Ground truth by sequential DFS.
    fn dfs_labels(g: &Csr) -> Vec<Vertex> {
        let n = g.num_vertices();
        let mut labels = vec![u32::MAX; n];
        for s in 0..n {
            if labels[s] != u32::MAX {
                continue;
            }
            let mut stack = vec![s as Vertex];
            labels[s] = s as Vertex;
            while let Some(u) = stack.pop() {
                for &v in g.neighbors(u) {
                    if labels[v as usize] == u32::MAX {
                        labels[v as usize] = s as Vertex;
                        stack.push(v);
                    }
                }
            }
        }
        labels
    }

    #[test]
    fn label_propagation_two_components() {
        let g = two_components();
        let labels = normalize_labels(&cc_label_propagation(&g));
        assert_eq!(labels, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn shiloach_vishkin_two_components() {
        let g = two_components();
        let labels = normalize_labels(&shiloach_vishkin(&g));
        assert_eq!(labels, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn afforest_two_components() {
        let g = two_components();
        let labels = normalize_labels(&afforest(&g));
        assert_eq!(labels, vec![0, 0, 0, 3, 3]);
    }

    #[test]
    fn empty_and_isolated() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        assert!(cc_label_propagation(&g).is_empty());
        let g = Csr::from_edge_list(&EdgeList::new(4));
        for f in [cc_label_propagation, shiloach_vishkin, afforest] {
            let labels = f(&g);
            assert_eq!(num_components(&labels), 4);
        }
    }

    #[test]
    fn num_components_and_sizes() {
        let labels = vec![0, 0, 3, 3, 3];
        assert_eq!(num_components(&labels), 2);
        let sizes = component_sizes(&labels);
        assert_eq!(sizes[&0], 2);
        assert_eq!(sizes[&3], 3);
    }

    #[test]
    fn all_algorithms_agree_on_random_graphs() {
        for seed in 0..6 {
            let g = gnm_undirected(200, 150, seed); // sparse → many components
            let truth = normalize_labels(&dfs_labels(&g));
            assert_eq!(
                normalize_labels(&cc_label_propagation(&g)),
                truth,
                "lp seed {seed}"
            );
            assert_eq!(
                normalize_labels(&shiloach_vishkin(&g)),
                truth,
                "sv seed {seed}"
            );
            assert_eq!(normalize_labels(&afforest(&g)), truth, "aff seed {seed}");
        }
    }

    #[test]
    fn giant_component_case() {
        // dense graph: nearly everything in one component — exercises the
        // Afforest giant-component skip.
        let g = gnm_undirected(500, 3000, 7);
        let truth = normalize_labels(&dfs_labels(&g));
        assert_eq!(normalize_labels(&afforest(&g)), truth);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_cc_algorithms_match_dfs(
            edges in proptest::collection::vec((0u32..25, 0u32..25), 0..120)
        ) {
            let mut el = EdgeList::from_edges(25, edges);
            el.remove_self_loops();
            el.symmetrize();
            el.sort_dedup();
            let g = Csr::from_edge_list(&el);
            let truth = normalize_labels(&dfs_labels(&g));
            prop_assert_eq!(normalize_labels(&cc_label_propagation(&g)), truth.clone());
            prop_assert_eq!(normalize_labels(&shiloach_vishkin(&g)), truth.clone());
            prop_assert_eq!(normalize_labels(&afforest(&g)), truth);
        }
    }
}
