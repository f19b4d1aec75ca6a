//! HygraBFS — the baseline hypergraph BFS of §IV: a *top-down* (sparse
//! push) traversal expressed as alternating `edge_map`s over the bipartite
//! structure, exactly as Hygra expresses its BFS application.

use crate::engine::{edge_map, resolve_mode, EdgeMapFns, Mode};
use crate::subset::VertexSubset;
use nwhy_core::{Hypergraph, Id};
use nwhy_obs::{Counter, Hist};
use nwhy_util::sync::{AtomicU32, Ordering};

/// Output of HygraBFS (levels/parents for both index sets, as in
/// `nwhy-core`'s HyperBFS so results are directly comparable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HygraBfsResult {
    /// Level per hyperedge (`u32::MAX` unreached; even when reached).
    pub edge_levels: Vec<u32>,
    /// Level per hypernode (odd when reached).
    pub node_levels: Vec<u32>,
    /// Parent per hyperedge (a hypernode ID; source is its own parent).
    pub edge_parents: Vec<Id>,
    /// Parent per hypernode (a hyperedge ID).
    pub node_parents: Vec<Id>,
}

struct Claim<'a> {
    parents: &'a [AtomicU32],
}

impl EdgeMapFns for Claim<'_> {
    fn update_atomic(&self, src: Id, dst: Id) -> bool {
        // An out-of-range destination cannot be claimed; returning false
        // keeps it out of the frontier rather than aborting the traversal.
        let Some(p) = self.parents.get(dst as usize) else {
            return false;
        };
        p.compare_exchange(u32::MAX, src, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }
    fn update(&self, src: Id, dst: Id) -> bool {
        let Some(p) = self.parents.get(dst as usize) else {
            return false;
        };
        if p.load(Ordering::Relaxed) == u32::MAX {
            p.store(src, Ordering::Relaxed);
            true
        } else {
            false
        }
    }
    fn cond(&self, dst: Id) -> bool {
        self.parents
            .get(dst as usize)
            .is_some_and(|p| p.load(Ordering::Relaxed) == u32::MAX)
    }
}

/// Top-down HygraBFS from a source hyperedge.
pub fn hygra_bfs(h: &Hypergraph, source: Id) -> HygraBfsResult {
    hygra_bfs_with_mode(h, source, Mode::ForceSparse)
}

/// HygraBFS with an explicit engine mode (the ablation benches compare
/// sparse-only against the auto direction heuristic).
pub fn hygra_bfs_with_mode(h: &Hypergraph, source: Id, mode: Mode) -> HygraBfsResult {
    let ne = h.num_hyperedges();
    let nv = h.num_hypernodes();
    assert!(
        (source as usize) < ne,
        "source hyperedge {source} out of range {ne}"
    );

    let edge_parents: Vec<AtomicU32> = (0..ne).map(|_| AtomicU32::new(u32::MAX)).collect();
    let node_parents: Vec<AtomicU32> = (0..nv).map(|_| AtomicU32::new(u32::MAX)).collect();
    let mut edge_levels = vec![u32::MAX; ne];
    let mut node_levels = vec![u32::MAX; nv];
    // `source < ne` is asserted above, so both lookups succeed.
    if let Some(p) = edge_parents.get(source as usize) {
        p.store(source, Ordering::Relaxed);
    }
    if let Some(l) = edge_levels.get_mut(source as usize) {
        *l = 0;
    }

    let _span = nwhy_obs::span("hygra.bfs");
    let mut edge_frontier = VertexSubset::single(ne, source);
    let mut depth = 0u32;
    // One "round" per edge_map half-step (each advances the depth by 1).
    // The direction decision is resolved up front via `resolve_mode` so it
    // can be counted; the forced mode handed to `edge_map` reproduces
    // exactly what `edge_map(.., mode)` would have chosen.
    let mut prev_dense: Option<bool> = None;
    loop {
        // hyperedges → hypernodes
        depth += 1;
        nwhy_obs::incr(Counter::BfsRounds);
        nwhy_obs::observe(Hist::BfsFrontierEdges, edge_frontier.len() as u64);
        let step_mode = resolve_mode(
            h.edges(),
            &mut edge_frontier,
            mode,
            &mut prev_dense,
            Counter::BfsSparseSteps,
            Counter::BfsDenseSteps,
            Counter::BfsDirectionSwitches,
        );
        let mut node_frontier = edge_map(
            h.edges(),
            h.nodes(),
            &mut edge_frontier,
            &Claim {
                parents: &node_parents,
            },
            step_mode,
        );
        if node_frontier.is_empty() {
            break;
        }
        for &v in node_frontier.as_sparse() {
            if let Some(l) = node_levels.get_mut(v as usize) {
                *l = depth;
            }
        }
        // hypernodes → hyperedges
        depth += 1;
        nwhy_obs::incr(Counter::BfsRounds);
        nwhy_obs::observe(Hist::BfsFrontierNodes, node_frontier.len() as u64);
        let step_mode = resolve_mode(
            h.nodes(),
            &mut node_frontier,
            mode,
            &mut prev_dense,
            Counter::BfsSparseSteps,
            Counter::BfsDenseSteps,
            Counter::BfsDirectionSwitches,
        );
        edge_frontier = edge_map(
            h.nodes(),
            h.edges(),
            &mut node_frontier,
            &Claim {
                parents: &edge_parents,
            },
            step_mode,
        );
        if edge_frontier.is_empty() {
            break;
        }
        for &e in edge_frontier.as_sparse() {
            if let Some(l) = edge_levels.get_mut(e as usize) {
                *l = depth;
            }
        }
    }

    HygraBfsResult {
        edge_levels,
        node_levels,
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

#[cfg(test)]
mod tests {
    use super::*;
    use nwhy_core::algorithms::hyper_bfs::hyper_bfs_top_down;
    use nwhy_core::fixtures::paper_hypergraph;

    #[test]
    fn matches_nwhy_hyper_bfs_on_fixture() {
        let h = paper_hypergraph();
        for src in 0..4 {
            let hy = hygra_bfs(&h, src);
            let nw = hyper_bfs_top_down(&h, src);
            assert_eq!(hy.edge_levels, nw.edge_levels, "src {src}");
            assert_eq!(hy.node_levels, nw.node_levels, "src {src}");
        }
    }

    #[test]
    fn all_modes_agree() {
        let h = paper_hypergraph();
        let sparse = hygra_bfs_with_mode(&h, 0, Mode::ForceSparse);
        let dense = hygra_bfs_with_mode(&h, 0, Mode::ForceDense);
        let auto = hygra_bfs_with_mode(&h, 0, Mode::Auto);
        assert_eq!(sparse.edge_levels, dense.edge_levels);
        assert_eq!(sparse.edge_levels, auto.edge_levels);
        assert_eq!(sparse.node_levels, dense.node_levels);
    }

    #[test]
    fn disconnected_unreached() {
        let h = Hypergraph::from_memberships(&[vec![0], vec![1]]);
        let r = hygra_bfs(&h, 0);
        assert_eq!(r.edge_levels, vec![0, u32::MAX]);
        assert_eq!(r.node_levels, vec![1, u32::MAX]);
    }

    #[test]
    fn parents_are_witnesses() {
        let h = paper_hypergraph();
        let r = hygra_bfs(&h, 0);
        for v in 0..9u32 {
            let p = r.node_parents[v as usize];
            if p != u32::MAX {
                assert!(h.edge_members(p).contains(&v));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let h = paper_hypergraph();
        hygra_bfs(&h, 4);
    }
}
