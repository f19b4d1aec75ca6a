//! The candidate-and-verify core behind Intersection and Algorithm 2.
//!
//! For each outer hyperedge `e_i` with at least `s` members a worker
//! walks `e_i → v → e_j` once and stamps each `j > i` it reaches, so
//! every distinct candidate turns up once per row. A candidate with fewer
//! than `s` members is counted as skipped; every other one goes to the
//! caller's `visit` closure, which checks it at once (Intersection) or
//! queues it (Algorithm 2's phase 1). The [`Verifier`] does the checking
//! for both: it keeps the last outer row decoded and loaded into its
//! overlap engine, so a run of pairs sharing `i` loads row `i` once.

use super::overlap::OverlapEngine;
use super::rows::{run_rows, Rows};
use super::stats::KernelStats;
use super::HyperAdjacency;
use crate::{ids, Id};

/// Finds the candidates of every row `rows` yields and calls
/// `visit(out, stats, i, j)` for each one with at least `s` members.
/// With `skips_examined` a skipped candidate also counts as examined.
/// Returns each worker's output and the merged tallies, as [`run_rows`]
/// does.
// lint: obs: the calling kernel flushes the returned KernelStats
pub(super) fn candidate_rows<A, O, I, F>(
    h: &A,
    rows: Rows<'_>,
    s: usize,
    skips_examined: bool,
    init: I,
    visit: F,
) -> (Vec<O>, KernelStats)
where
    A: HyperAdjacency + ?Sized,
    O: Send,
    I: Fn() -> O + Sync,
    F: Fn(&mut O, &mut KernelStats, Id, Id) + Sync,
{
    let ne = h.num_hyperedges();
    run_rows(
        ne,
        rows,
        || vec![0; ne],
        init,
        |w, i, _| {
            let nbrs_i = h.edge_neighbors(i);
            if nbrs_i.len() < s {
                return;
            }
            // `stamp[j] == i + 1` ⇒ candidate `j` already seen in row `i`
            let mark = i + 1;
            for &v in nbrs_i.iter() {
                for &raw in h.node_neighbors(v).iter() {
                    let j = h.edge_id(raw);
                    match w.scratch.get_mut(ids::to_usize(j)) {
                        Some(seen) if j > i && *seen != mark => *seen = mark,
                        _ => continue,
                    }
                    if h.edge_degree(j) < s {
                        w.stats.pairs_skipped(1);
                        if skips_examined {
                            w.stats.pair_examined();
                        }
                    } else {
                        visit(&mut w.out, &mut w.stats, i, j);
                    }
                }
            }
        },
    )
}

/// Checks candidate pairs with the adaptive overlap engine, caching the
/// decoded outer row (and its loaded bitset) across consecutive pairs
/// that share it. For a compressed backend that turns O(pairs) row
/// decodes into O(rows). Path choice depends only on row lengths, so
/// how pairs are split among verifiers changes no result or counter.
pub(super) struct Verifier<'h, H: HyperAdjacency + ?Sized> {
    h: &'h H,
    s: usize,
    engine: OverlapEngine,
    row: Option<(Id, H::Neighbors<'h>)>,
}

impl<'h, H: HyperAdjacency + ?Sized> Verifier<'h, H> {
    pub fn new(h: &'h H, s: usize) -> Self {
        let universe = h.num_hyperedges() + h.num_hypernodes();
        Self {
            h,
            s,
            engine: OverlapEngine::new(universe),
            row: None,
        }
    }

    /// Counts `(i, j)` as examined and tests `|e_i ∩ e_j| ≥ s`, loading
    /// row `i` only when the previous pair's row differs.
    pub fn check(&mut self, i: Id, j: Id, stats: &mut KernelStats) -> bool {
        let Self { h, s, engine, row } = self;
        let nbrs_i = match row {
            Some((cached, nbrs)) if *cached == i => nbrs,
            _ => {
                if let Some((_, old)) = row.take() {
                    engine.end_row(&old);
                }
                let nbrs = h.edge_neighbors(i);
                engine.begin_row(&nbrs);
                &mut row.insert((i, nbrs)).1
            }
        };
        stats.pair_examined();
        engine.overlaps(nbrs_i, &h.edge_neighbors(j), *s, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::super::counting::tests::{arb_memberships, descending, queue_cases, STRATEGIES};
    use super::super::intersection::intersection;
    use super::super::naive::naive;
    use super::super::queue_two_phase::queue_intersection;
    use super::*;
    use crate::adjoin::AdjoinGraph;
    use crate::hypergraph::Hypergraph;
    use crate::repr::RelabeledView;
    use nwhy_util::partition::Strategy;
    use proptest::proptest;

    /// Both candidate entry points against `naive` on one
    /// representation, under every strategy.
    fn agrees_with_naive<A: HyperAdjacency + ?Sized>(h: &A, s: usize, seed: u32) {
        let want = naive(h, s, Strategy::AUTO);
        for strategy in STRATEGIES {
            let got = intersection(h, s, strategy);
            assert_eq!(got, want, "intersection {strategy:?}");
            for (queue_name, queue, want) in queue_cases(h, &want, seed) {
                let got = queue_intersection(h, &queue, s, strategy);
                assert_eq!(got, want, "alg2 {queue_name} {strategy:?}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_candidate_kernels_match_naive(ms in arb_memberships(), s in 1usize..4, seed in 0u32..1000) {
            let h = Hypergraph::from_memberships(&ms);
            agrees_with_naive(&h, s, seed);
            agrees_with_naive(&AdjoinGraph::from_hypergraph(&h), s, seed);
            agrees_with_naive(&RelabeledView::from_relabeling(&h, &descending(&h)), s, seed);
        }
    }
}
