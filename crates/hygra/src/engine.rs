//! The Ligra/Hygra processing engine: `edge_map`.
//!
//! `edge_map` applies an update function across the edges leaving a
//! frontier on one side of the bipartite structure, producing the next
//! frontier on the other side. Two traversal modes:
//!
//! - **sparse (push)**: parallel over frontier members, pushing along
//!   their incidence lists; updates race, so the update function must be
//!   atomic (CAS-style, returning `true` exactly once per target).
//! - **dense (pull)**: parallel over all *target* vertices that pass
//!   `cond`, scanning their reverse incidence lists for frontier members;
//!   at most one thread touches a target, so updates are plain writes.
//!
//! The direction heuristic is Ligra's: go dense when
//! `|frontier| + out_edges(frontier) > m / THRESHOLD_DENOM`.

use crate::subset::VertexSubset;
use nwgraph::Csr;
use nwhy_core::ids;
use nwhy_core::Id;
use rayon::prelude::*;

/// Ligra's default threshold denominator for the dense switch.
pub const THRESHOLD_DENOM: usize = 20;

/// Traversal mode chosen by (or forced on) [`edge_map`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Always push (sparse). What HygraBFS in the paper uses.
    ForceSparse,
    /// Always pull (dense).
    ForceDense,
    /// Ligra's size heuristic.
    Auto,
}

/// The update/condition pair for an `edge_map`.
///
/// `update_atomic(src, dst)` must return `true` exactly once per `dst`
/// that should join the output frontier under concurrent invocation.
/// `update(src, dst)` is the sequential-consistency variant used in dense
/// mode. `cond(dst)` prunes targets (dense mode skips and stops early).
pub trait EdgeMapFns: Sync {
    /// Racy (push-side) update.
    fn update_atomic(&self, src: Id, dst: Id) -> bool;
    /// Single-writer (pull-side) update.
    fn update(&self, src: Id, dst: Id) -> bool {
        self.update_atomic(src, dst)
    }
    /// Should `dst` still be considered?
    fn cond(&self, dst: Id) -> bool;
}

/// Resolves a [`Mode`] to the concrete direction `edge_map` will take
/// for this frontier: `true` = dense (pull), `false` = sparse (push).
///
/// Exposed so instrumented traversal loops can observe the Ligra
/// heuristic's decision (and count direction switches) before calling
/// [`edge_map`] with the matching force mode — `edge_map(.., Mode::Auto)`
/// and `edge_map(.., if choose_dense(..) { Mode::ForceDense } else {
/// Mode::ForceSparse })` are semantically identical.
pub fn choose_dense(adj: &Csr, frontier: &mut VertexSubset, mode: Mode) -> bool {
    match mode {
        Mode::ForceSparse => false,
        Mode::ForceDense => true,
        Mode::Auto => {
            let m = adj.num_edges();
            let ids = frontier.as_sparse();
            let out_edges: usize = ids.par_iter().map(|&u| adj.degree(u)).sum();
            ids.len() + out_edges > m / THRESHOLD_DENOM
        }
    }
}

/// Instrumented [`choose_dense`]: resolves the direction for one
/// traversal half-step, records it in the given step counters, counts a
/// direction switch when the decision flips relative to `prev_dense`, and
/// returns the force mode matching the decision. Observability only —
/// traversal semantics are unchanged (see [`choose_dense`]).
pub(crate) fn resolve_mode(
    adj: &Csr,
    frontier: &mut VertexSubset,
    mode: Mode,
    prev_dense: &mut Option<bool>,
    sparse_steps: nwhy_obs::Counter,
    dense_steps: nwhy_obs::Counter,
    switches: nwhy_obs::Counter,
) -> Mode {
    let dense = choose_dense(adj, frontier, mode);
    nwhy_obs::incr(if dense { dense_steps } else { sparse_steps });
    if prev_dense.is_some_and(|p| p != dense) {
        nwhy_obs::incr(switches);
    }
    *prev_dense = Some(dense);
    if dense {
        Mode::ForceDense
    } else {
        Mode::ForceSparse
    }
}

/// Applies `fns` over the edges from `frontier` (a subset of `adj`'s
/// source space) to `adj`'s target space. `radj` must be the transpose of
/// `adj` (used by the dense mode). Returns the new frontier over the
/// target space.
pub fn edge_map(
    adj: &Csr,
    radj: &Csr,
    frontier: &mut VertexSubset,
    fns: &impl EdgeMapFns,
    mode: Mode,
) -> VertexSubset {
    assert_eq!(
        frontier.space(),
        adj.num_vertices(),
        "frontier space mismatch"
    );
    if choose_dense(adj, frontier, mode) {
        edge_map_dense(radj, frontier, fns)
    } else {
        edge_map_sparse(adj, frontier, fns)
    }
}

fn edge_map_sparse(adj: &Csr, frontier: &mut VertexSubset, fns: &impl EdgeMapFns) -> VertexSubset {
    let ids = frontier.as_sparse();
    let next: Vec<Id> = ids
        .par_iter()
        .fold(Vec::new, |mut acc, &u| {
            for &v in adj.neighbors(u) {
                if fns.cond(v) && fns.update_atomic(u, v) {
                    acc.push(v);
                }
            }
            acc
        })
        .reduce(Vec::new, |mut a, mut b| {
            a.append(&mut b);
            a
        });
    VertexSubset::from_sparse(adj.num_targets(), next)
}

fn edge_map_dense(radj: &Csr, frontier: &mut VertexSubset, fns: &impl EdgeMapFns) -> VertexSubset {
    let flags = frontier.as_dense();
    let nt = radj.num_vertices();
    let next: Vec<bool> = (0..nt)
        .into_par_iter()
        .map(|v| {
            let v = ids::from_usize(v);
            if !fns.cond(v) {
                return false;
            }
            let mut added = false;
            for &u in radj.neighbors(v) {
                if flags[u as usize] && fns.update(u, v) {
                    added = true;
                }
                if !fns.cond(v) {
                    break; // Ligra's early exit once dst is satisfied
                }
            }
            added
        })
        .collect();
    VertexSubset::from_dense(next)
}

#[cfg(test)]
mod tests {
    use super::*;

    // lint: test-only counters; plain std atomics keep the test
    // independent of the loom-switched re-export
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Bipartite test structure: 2 sources over 3 targets.
    fn bipartite() -> (Csr, Csr) {
        let adj = Csr::from_pairs(2, 3, &[(0, 0), (0, 1), (1, 1), (1, 2)], None);
        let radj = adj.transpose();
        (adj, radj)
    }

    /// Visit-once functions: claim targets with a CAS on a parent array.
    struct Claim<'a> {
        parents: &'a [AtomicU32],
    }
    impl EdgeMapFns for Claim<'_> {
        fn update_atomic(&self, src: Id, dst: Id) -> bool {
            self.parents[dst as usize]
                .compare_exchange(u32::MAX, src, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        }
        fn update(&self, src: Id, dst: Id) -> bool {
            if self.parents[dst as usize].load(Ordering::Relaxed) == u32::MAX {
                self.parents[dst as usize].store(src, Ordering::Relaxed);
                true
            } else {
                false
            }
        }
        fn cond(&self, dst: Id) -> bool {
            self.parents[dst as usize].load(Ordering::Relaxed) == u32::MAX
        }
    }

    fn run_mode(mode: Mode) -> Vec<u32> {
        let (adj, radj) = bipartite();
        let parents: Vec<AtomicU32> = (0..3).map(|_| AtomicU32::new(u32::MAX)).collect();
        let mut frontier = VertexSubset::single(2, 0);
        let next = edge_map(
            &adj,
            &radj,
            &mut frontier,
            &Claim { parents: &parents },
            mode,
        );
        assert_eq!(next.to_vec(), vec![0, 1]);
        parents.iter().map(|p| p.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn sparse_and_dense_agree() {
        let sparse = run_mode(Mode::ForceSparse);
        let dense = run_mode(Mode::ForceDense);
        assert_eq!(sparse, dense);
        assert_eq!(sparse, vec![0, 0, u32::MAX]);
    }

    #[test]
    fn auto_mode_produces_same_frontier() {
        let auto = run_mode(Mode::Auto);
        assert_eq!(auto, vec![0, 0, u32::MAX]);
    }

    #[test]
    fn cond_prunes_targets() {
        let (adj, radj) = bipartite();
        // target 1 already claimed → cond false
        let parents: Vec<AtomicU32> = vec![
            AtomicU32::new(u32::MAX),
            AtomicU32::new(9),
            AtomicU32::new(u32::MAX),
        ];
        let mut frontier = VertexSubset::from_sparse(2, vec![0, 1]);
        let next = edge_map(
            &adj,
            &radj,
            &mut frontier,
            &Claim { parents: &parents },
            Mode::ForceSparse,
        );
        assert_eq!(next.to_vec(), vec![0, 2]);
    }

    #[test]
    fn empty_frontier_yields_empty() {
        let (adj, radj) = bipartite();
        let parents: Vec<AtomicU32> = (0..3).map(|_| AtomicU32::new(u32::MAX)).collect();
        let mut frontier = VertexSubset::empty(2);
        for mode in [Mode::ForceSparse, Mode::ForceDense, Mode::Auto] {
            let next = edge_map(
                &adj,
                &radj,
                &mut frontier,
                &Claim { parents: &parents },
                mode,
            );
            assert!(next.is_empty(), "{mode:?}");
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Sparse and dense edge_map must produce the same *visited set*
        /// for visit-once semantics on arbitrary bipartite structures and
        /// frontiers (parents may differ: any frontier in-neighbor is a
        /// legal claimer).
        fn run_claim(
            adj: &Csr,
            radj: &Csr,
            frontier_ids: &[Id],
            mode: Mode,
        ) -> (Vec<bool>, Vec<Id>) {
            let nt = adj.num_targets();
            let parents: Vec<AtomicU32> = (0..nt).map(|_| AtomicU32::new(u32::MAX)).collect();
            let mut frontier = VertexSubset::from_sparse(adj.num_vertices(), frontier_ids.to_vec());
            let next = edge_map(adj, radj, &mut frontier, &Claim { parents: &parents }, mode);
            let visited = parents
                .iter()
                .map(|p| p.load(Ordering::Relaxed) != u32::MAX)
                .collect();
            (visited, next.to_vec())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn sparse_dense_auto_agree(
                pairs in proptest::collection::vec((0u32..8, 0u32..12), 0..60),
                frontier_seed in proptest::collection::btree_set(0u32..8, 0..8),
            ) {
                let adj = Csr::from_pairs(8, 12, &pairs, None);
                let radj = adj.transpose();
                let frontier: Vec<Id> = frontier_seed.into_iter().collect();
                let (vs, ns) = run_claim(&adj, &radj, &frontier, Mode::ForceSparse);
                let (vd, nd) = run_claim(&adj, &radj, &frontier, Mode::ForceDense);
                let (va, na) = run_claim(&adj, &radj, &frontier, Mode::Auto);
                prop_assert_eq!(&vs, &vd);
                prop_assert_eq!(&vs, &va);
                prop_assert_eq!(&ns, &nd);
                prop_assert_eq!(&ns, &na);
                // the next frontier is exactly the targets adjacent to the
                // frontier
                let mut expect: Vec<Id> = pairs
                    .iter()
                    .filter(|(u, _)| frontier.contains(u))
                    .map(|&(_, v)| v)
                    .collect();
                expect.sort_unstable();
                expect.dedup();
                prop_assert_eq!(ns, expect);
            }
        }
    }
}
