//! Hashmap-counting s-line construction (Liu et al., IPDPS 2022).
//!
//! For each hyperedge `e_i`, a per-worker accumulator collects
//! `overlap_count[e_j] += 1` for every co-incidence discovered through the
//! bipartite indirection (`e_i → v → e_j`, `j > i`); pairs whose count
//! reaches `s` become line-graph edges. Unlike the intersection algorithm
//! this touches each incidence exactly once per outer hyperedge and needs
//! no sorted neighbor access. The name is the paper's; the accumulator is
//! the dense array of `slinegraph::counting`, so an increment costs an array
//! bump, not a hash probe.

use super::counting::pairs_meeting;
use super::rows::Rows;
use super::HyperAdjacency;
use crate::Id;
use nwhy_util::partition::Strategy;

/// Hashmap-counting construction over hyperedges `0..n_e`; returns
/// canonical pairs.
pub fn hashmap<A: HyperAdjacency + ?Sized>(h: &A, s: usize, strategy: Strategy) -> Vec<(Id, Id)> {
    pairs_meeting(h, Rows::All(strategy), s)
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
                hashmap(&h, s, Strategy::AUTO),
                paper_slinegraph_edges(s),
                "s={s}"
            );
        }
    }

    #[test]
    fn counts_equal_exact_overlaps() {
        let h =
            Hypergraph::from_memberships(&[vec![0, 1, 2, 3, 4], vec![2, 3, 4, 5], vec![4, 5, 6]]);
        // |e0∩e1| = 3, |e0∩e2| = 1, |e1∩e2| = 2
        assert_eq!(hashmap(&h, 1, Strategy::AUTO), vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(hashmap(&h, 2, Strategy::AUTO), vec![(0, 1), (1, 2)]);
        assert_eq!(hashmap(&h, 3, Strategy::AUTO), vec![(0, 1)]);
        assert!(hashmap(&h, 4, Strategy::AUTO).is_empty());
    }

    #[test]
    fn agrees_with_naive_under_all_strategies() {
        let h = Hypergraph::from_memberships(&[
            vec![0, 1, 2],
            vec![1, 2, 3],
            vec![0, 3],
            vec![2],
            vec![0, 1, 2, 3],
        ]);
        for strategy in [
            Strategy::AUTO,
            Strategy::Blocked { num_bins: 3 },
            Strategy::Cyclic { num_bins: 2 },
        ] {
            for s in 1..=3 {
                assert_eq!(
                    hashmap(&h, s, strategy),
                    naive(&h, s, Strategy::AUTO),
                    "{strategy:?} s={s}"
                );
            }
        }
    }
}
