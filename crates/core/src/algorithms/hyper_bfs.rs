//! HyperBFS — breadth-first search over the bipartite incidence structure
//! (§III-C.1), with top-down and bottom-up variants, generic over any
//! [`HyperAdjacency`].
//!
//! A BFS on a hypergraph alternates between the two index sets: a frontier
//! of hyperedges reaches all incident hypernodes; a frontier of hypernodes
//! reaches all incident hyperedges. Hyperedges therefore sit at even
//! levels and hypernodes at odd levels (counting the source hyperedge as
//! level 0). Exactly as the paper warns, the algorithm must maintain *two*
//! frontiers, parent arrays, and level arrays — one per index set.
//!
//! The same kernels run on the bi-adjacency, the adjoin graph, zero-copy
//! views and the compressed on-disk backend (`nwhy-store`). Per-hypernode
//! arrays are indexed by *dense hypernode index* (`[0, n_v)`, via
//! [`HyperAdjacency::node_index`]), so results are comparable across
//! representations. Levels are deterministic; parents are subject to the
//! usual CAS races.

use crate::repr::HyperAdjacency;
use crate::{ids, Id};
use nwgraph::INVALID_VERTEX;
use nwhy_util::sync::{AtomicU32, Ordering};
use rayon::prelude::*;

/// Output of a hypergraph BFS from a source hyperedge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperBfsResult {
    /// Level of each hyperedge (`INVALID_VERTEX` if unreached); the
    /// source hyperedge has level 0, all other levels are even.
    pub edge_levels: Vec<u32>,
    /// Level of each hypernode (odd for reached nodes).
    pub node_levels: Vec<u32>,
    /// BFS parent of each hyperedge — a *hypernode* ID (the source is its
    /// own parent as an edge ID).
    pub edge_parents: Vec<Id>,
    /// BFS parent of each hypernode — a *hyperedge* ID.
    pub node_parents: Vec<Id>,
}

impl HyperBfsResult {
    /// Hyperedges reached (including the source).
    pub fn edges_reached(&self) -> usize {
        self.edge_levels
            .iter()
            .filter(|&&l| l != INVALID_VERTEX)
            .count()
    }

    /// Hypernodes reached.
    pub fn nodes_reached(&self) -> usize {
        self.node_levels
            .iter()
            .filter(|&&l| l != INVALID_VERTEX)
            .count()
    }
}

/// Level and parent arrays for both index sets, with `source` seeded.
struct State {
    edge_levels: Vec<AtomicU32>,
    node_levels: Vec<AtomicU32>,
    edge_parents: Vec<AtomicU32>,
    node_parents: Vec<AtomicU32>,
}

impl State {
    fn new<A: HyperAdjacency + ?Sized>(h: &A, source: Id) -> Self {
        let ne = h.num_hyperedges();
        let src = ids::to_usize(source);
        assert!(src < ne, "source hyperedge {source} out of range {ne}");
        let seeded = |seed: u32| {
            (0..ne)
                .map(|e| AtomicU32::new(if e == src { seed } else { INVALID_VERTEX }))
                .collect()
        };
        let unset = || {
            (0..h.num_hypernodes())
                .map(|_| AtomicU32::new(INVALID_VERTEX))
                .collect()
        };
        Self {
            edge_levels: seeded(0),
            node_levels: unset(),
            edge_parents: seeded(source),
            node_parents: unset(),
        }
    }

    fn finish(self) -> HyperBfsResult {
        let plain = |v: Vec<AtomicU32>| v.into_iter().map(AtomicU32::into_inner).collect();
        HyperBfsResult {
            edge_levels: plain(self.edge_levels),
            node_levels: plain(self.node_levels),
            edge_parents: plain(self.edge_parents),
            node_parents: plain(self.node_parents),
        }
    }
}

/// Claims unvisited target `t` for `parent` by CAS on its parent slot.
#[inline]
fn claim(parents: &[AtomicU32], levels: &[AtomicU32], t: usize, parent: Id, depth: u32) -> bool {
    let won = parents[t].load(Ordering::Relaxed) == INVALID_VERTEX
        && parents[t]
            .compare_exchange(INVALID_VERTEX, parent, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok();
    if won {
        levels[t].store(depth, Ordering::Relaxed);
    }
    won
}

/// One top-down half-step: expands every frontier member in parallel
/// and concatenates the targets each one claimed.
fn push(frontier: &[usize], expand: impl Fn(usize, &mut Vec<usize>) + Sync) -> Vec<usize> {
    frontier
        .par_iter()
        .fold(Vec::new, |mut next, &u| {
            expand(u, &mut next);
            next
        })
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        })
}

/// Top-down HyperBFS from a source hyperedge (working ID): each half-step
/// pushes from the frontier across its incidence lists.
///
/// # Panics
/// Panics if `source` is out of range.
pub fn hyper_bfs_top_down<A: HyperAdjacency + ?Sized>(h: &A, source: Id) -> HyperBfsResult {
    let _span = nwhy_obs::span("algo.hyper_bfs.top_down");
    let s = State::new(h, source);
    let mut edge_frontier = vec![ids::to_usize(source)];
    let mut depth = 0u32;
    while !edge_frontier.is_empty() {
        // hyperedges → hypernodes
        depth += 1;
        let node_frontier = push(&edge_frontier, |e, next| {
            let parent = ids::from_usize(e);
            for &handle in h.edge_neighbors(parent).iter() {
                let t = h.node_index(handle);
                if claim(&s.node_parents, &s.node_levels, t, parent, depth) {
                    next.push(t);
                }
            }
        });
        if node_frontier.is_empty() {
            break;
        }
        // hypernodes → hyperedges
        depth += 1;
        edge_frontier = push(&node_frontier, |t, next| {
            // the parent is the dense index `t`, not the representation's
            // handle (shifted on adjoin graphs)
            let parent = ids::from_usize(t);
            for &raw in h.node_neighbors(h.node_id(t)).iter() {
                let j = ids::to_usize(h.edge_id(raw));
                if claim(&s.edge_parents, &s.edge_levels, j, parent, depth) {
                    next.push(j);
                }
            }
        });
    }
    s.finish()
}

/// One bottom-up half-step: every unvisited target `t` looks up the first
/// frontier member among its own incidences (`first_in_frontier(t)`).
fn pull(
    parents: &[AtomicU32],
    levels: &[AtomicU32],
    depth: u32,
    first_in_frontier: impl Fn(usize) -> Option<Id> + Sync,
) -> Vec<usize> {
    (0..parents.len())
        .into_par_iter()
        .filter_map(|t| {
            if parents[t].load(Ordering::Relaxed) != INVALID_VERTEX {
                return None;
            }
            let u = first_in_frontier(t)?;
            parents[t].store(u, Ordering::Relaxed);
            levels[t].store(depth, Ordering::Relaxed);
            Some(t)
        })
        .collect()
}

/// Bottom-up HyperBFS from a source hyperedge: each half-step is a pull
/// over the unvisited side. Produces the same levels as
/// [`hyper_bfs_top_down`].
///
/// # Panics
/// Panics if `source` is out of range.
pub fn hyper_bfs_bottom_up<A: HyperAdjacency + ?Sized>(h: &A, source: Id) -> HyperBfsResult {
    let _span = nwhy_obs::span("algo.hyper_bfs.bottom_up");
    let s = State::new(h, source);
    let mut edge_frontier = vec![ids::to_usize(source)];
    let mut depth = 0u32;
    while !edge_frontier.is_empty() {
        // hyperedges → hypernodes, pulled from the node side: a node joins
        // if any of its hyperedges is in the frontier.
        let mut edge_in = vec![false; h.num_hyperedges()];
        for &e in &edge_frontier {
            edge_in[e] = true;
        }
        depth += 1;
        let node_frontier = pull(&s.node_parents, &s.node_levels, depth, |t| {
            h.node_neighbors(h.node_id(t))
                .iter()
                .map(|&raw| h.edge_id(raw))
                .find(|&j| edge_in[ids::to_usize(j)])
        });
        if node_frontier.is_empty() {
            break;
        }
        let mut node_in = vec![false; h.num_hypernodes()];
        for &t in &node_frontier {
            node_in[t] = true;
        }
        depth += 1;
        edge_frontier = pull(&s.edge_parents, &s.edge_levels, depth, |e| {
            h.edge_neighbors(ids::from_usize(e))
                .iter()
                .map(|&handle| h.node_index(handle))
                .find(|&t| node_in[t])
                .map(ids::from_usize)
        });
    }
    s.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjoin::AdjoinGraph;
    use crate::fixtures::paper_hypergraph;
    use crate::hypergraph::Hypergraph;
    use proptest::prelude::*;

    #[test]
    fn fixture_levels_from_e0() {
        let h = paper_hypergraph();
        let r = hyper_bfs_top_down(&h, 0);
        // e0 = {0,1,2,3} at level 0; its nodes at level 1
        assert_eq!(r.edge_levels[0], 0);
        for v in [0u32, 1, 2, 3] {
            assert_eq!(r.node_levels[v as usize], 1, "node {v}");
        }
        // e1 (shares node 3) and e3 (shares 0,2,3) at level 2
        assert_eq!(r.edge_levels[1], 2);
        assert_eq!(r.edge_levels[3], 2);
        // nodes {4,5,6,8} first reached via e1/e3 at level 3
        for v in [4u32, 5, 6, 8] {
            assert_eq!(r.node_levels[v as usize], 3, "node {v}");
        }
        // e2 reached at level 4, node 7 at level 5
        assert_eq!(r.edge_levels[2], 4);
        assert_eq!(r.node_levels[7], 5);
    }

    #[test]
    fn top_down_and_bottom_up_agree() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        for src in 0..4 {
            let td = hyper_bfs_top_down(&h, src);
            for (name, r) in [
                ("bottom-up", hyper_bfs_bottom_up(&h, src)),
                ("adjoin top-down", hyper_bfs_top_down(&a, src)),
                ("adjoin bottom-up", hyper_bfs_bottom_up(&a, src)),
            ] {
                assert_eq!(td.edge_levels, r.edge_levels, "{name} src {src}");
                assert_eq!(td.node_levels, r.node_levels, "{name} src {src}");
            }
        }
    }

    #[test]
    fn disconnected_parts_unreached() {
        let h = Hypergraph::from_memberships(&[vec![0, 1], vec![2, 3]]);
        let r = hyper_bfs_top_down(&h, 0);
        assert_eq!(r.edge_levels[1], INVALID_VERTEX);
        assert_eq!(r.node_levels[2], INVALID_VERTEX);
        assert_eq!(r.edges_reached(), 1);
        assert_eq!(r.nodes_reached(), 2);
    }

    #[test]
    fn empty_hyperedge_source() {
        let h = Hypergraph::from_memberships(&[vec![], vec![0]]);
        let r = hyper_bfs_top_down(&h, 0);
        assert_eq!(r.edges_reached(), 1);
        assert_eq!(r.nodes_reached(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        let h = paper_hypergraph();
        hyper_bfs_top_down(&h, 9);
    }

    #[test]
    fn level_parity_invariant() {
        let h = paper_hypergraph();
        let r = hyper_bfs_top_down(&h, 2);
        for &l in &r.edge_levels {
            if l != INVALID_VERTEX {
                assert_eq!(l % 2, 0, "hyperedge at odd level");
            }
        }
        for &l in &r.node_levels {
            if l != INVALID_VERTEX {
                assert_eq!(l % 2, 1, "hypernode at even level");
            }
        }
    }

    fn arb_memberships() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Id>>> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..15, 0..6), 1..10)
            .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_variants_agree(ms in arb_memberships(), src_seed in 0u32..100) {
            let h = Hypergraph::from_memberships(&ms);
            let src = src_seed % ids::from_usize(h.num_hyperedges());
            let td = hyper_bfs_top_down(&h, src);
            let bu = hyper_bfs_bottom_up(&h, src);
            prop_assert_eq!(td.edge_levels, bu.edge_levels);
            prop_assert_eq!(td.node_levels, bu.node_levels);
        }
    }
}
