//! Heuristic set-intersection s-line construction (Liu et al., HiPC 2021),
//! driven by the adaptive overlap engine.
//!
//! The three-nested-loop "indirection" pattern: for each hyperedge `e_i`,
//! for each incident hypernode `v`, for each hyperedge `e_j ∋ v` with
//! `j > i` — each *distinct* candidate `e_j` is then checked with a
//! short-circuiting overlap test that stops as soon as `s` common
//! members are found. Three heuristics cut the candidate work:
//!
//! 1. skip hyperedges with fewer than `s` members (can never s-overlap);
//! 2. visit each candidate pair once (`j > i` plus a per-worker visited
//!    stamp array, so a pair sharing many hypernodes is intersected once);
//! 3. short-circuit the per-pair test at `s`.
//!
//! The per-pair test itself goes through [`super::overlap`]: its adaptive
//! engine loads dense expanded rows into a packed bitset and routes
//! skewed pairs to a galloping search, falling back to the merge scan
//! for similar-length rows.
//!
//! The walk and the check are the shared `slinegraph::candidates` core;
//! this kernel checks each candidate as soon as the walk finds it.

use super::candidates::{candidate_rows, Verifier};
use super::rows::Rows;
use super::{canonicalize, HyperAdjacency};
use crate::{ids, Id};
use nwhy_util::partition::Strategy;

/// Pre-sizes each worker's output vec from a sampled degree estimate:
/// the expected candidate fan-out per row (Σ of incident node degrees,
/// halved for the `j > i` filter), times this worker's share of the
/// rows, capped so the hint never dominates memory. Cuts the doubling
/// reallocs the old `Vec::new()` start paid on every worker.
fn pair_capacity_hint<A: HyperAdjacency + ?Sized>(h: &A, workers: usize) -> usize {
    let ne = h.num_hyperedges();
    if ne == 0 {
        return 0;
    }
    let samples = ne.min(64);
    let mut fanout = 0usize;
    for k in 0..samples {
        let e = ids::from_usize(k * ne / samples);
        for &v in h.edge_neighbors(e).iter() {
            fanout += h.node_degree(v);
        }
    }
    let per_row = fanout / samples / 2;
    (ne * per_row / workers.max(1)).clamp(16, 1 << 14)
}

/// Heuristic intersection construction, checking pairs with the adaptive
/// overlap engine; returns canonical pairs.
pub fn intersection<A: HyperAdjacency + ?Sized>(
    h: &A,
    s: usize,
    strategy: Strategy,
) -> Vec<(Id, Id)> {
    let capacity = pair_capacity_hint(h, strategy.bins().max(1));
    let (outs, stats) = candidate_rows(
        h,
        Rows::All(strategy),
        s,
        true,
        || (Vec::with_capacity(capacity), Verifier::new(h, s)),
        |(pairs, verifier): &mut (Vec<(Id, Id)>, _), stats, i, j| {
            if verifier.check(i, j, stats) {
                pairs.push((i, j));
            }
        },
    );
    let pairs: Vec<(Id, Id)> = outs.into_iter().flat_map(|(pairs, _)| pairs).collect();
    stats.flush(pairs.len());
    canonicalize(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_hypergraph, paper_slinegraph_edges};
    use crate::hypergraph::Hypergraph;
    use crate::slinegraph::naive::naive;

    #[test]
    fn matches_fixture() {
        let h = paper_hypergraph();
        for s in 1..=4 {
            assert_eq!(
                intersection(&h, s, Strategy::AUTO),
                paper_slinegraph_edges(s),
                "s={s}"
            );
        }
    }

    /// `intersection` under `strategy` equals `naive` for `s` in `1..=max_s`.
    fn agrees_with_naive(h: &Hypergraph, max_s: usize, strategy: Strategy) {
        for s in 1..=max_s {
            let want = naive(h, s, Strategy::AUTO);
            assert_eq!(intersection(h, s, strategy), want, "s={s}");
        }
    }

    #[test]
    fn matches_naive_on_shared_node_hub() {
        // hypernode 0 belongs to every hyperedge — max candidate fan-out
        let h =
            Hypergraph::from_memberships(&[vec![0, 1], vec![0, 2], vec![0, 3], vec![0, 1, 2, 3]]);
        agrees_with_naive(&h, 3, Strategy::AUTO);
    }

    #[test]
    fn stamp_dedup_does_not_drop_pairs_across_iterations() {
        // consecutive hyperedges sharing different nodes: the stamp reset
        // discipline (mark = i + 1) must not leak between outer iterations
        let h = Hypergraph::from_memberships(&[
            vec![0, 1, 2],
            vec![1, 2, 3],
            vec![2, 3, 4],
            vec![3, 4, 0],
        ]);
        agrees_with_naive(&h, 2, Strategy::Cyclic { num_bins: 2 });
    }

    #[test]
    fn adaptive_engages_bitset_rows_and_still_agrees() {
        // one dense row (≥ BITSET_ROW_MIN_DEGREE) plus skewed small rows:
        // exercises all three paths inside a single construction
        let mut memberships: Vec<Vec<Id>> = vec![(0..64).collect()];
        memberships.push((0..8).collect());
        memberships.push(vec![0, 64]);
        memberships.push(vec![1, 2]);
        let h = Hypergraph::from_memberships(&memberships);
        agrees_with_naive(&h, 3, Strategy::AUTO);
    }

    #[test]
    fn capacity_hint_is_bounded() {
        let h = paper_hypergraph();
        let hint = pair_capacity_hint(&h, 1);
        assert!((16..=1 << 14).contains(&hint));
        let empty = Hypergraph::from_memberships(&[]);
        assert_eq!(pair_capacity_hint(&empty, 4), 0);
    }
}
