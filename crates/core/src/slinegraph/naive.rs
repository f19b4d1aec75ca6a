//! Naive all-pairs s-line construction.
//!
//! Considers every hyperedge pair `(i, j)`, `i < j`, and tests
//! `|e_i ∩ e_j| ≥ s` by sorted-slice intersection. Quadratic in the number
//! of hyperedges; it exists as the obviously-correct oracle the other
//! algorithms are validated against, and as the baseline the paper's §III-C.3
//! lists first.

use super::rows::{run_rows, Rows};
use super::{canonicalize, HyperAdjacency};
use crate::{ids, Id};
use nwhy_util::partition::Strategy;

/// All-pairs construction; returns canonical pairs.
// lint: obs: the runner's merged KernelStats are flushed below
pub fn naive<A: HyperAdjacency + ?Sized>(h: &A, s: usize, strategy: Strategy) -> Vec<(Id, Id)> {
    let ne = h.num_hyperedges();
    let (outs, stats) = run_rows(
        ne,
        Rows::All(strategy),
        || (),
        Vec::new,
        |w, i, _| {
            let nbrs_i = h.edge_neighbors(i);
            if nbrs_i.len() < s {
                // Skipping the whole row discards all of its i < j pairs.
                w.stats.pairs_skipped(ne as u64 - 1 - u64::from(i));
                return;
            }
            for j in (i + 1)..ids::from_usize(ne) {
                w.stats.pair_examined();
                let nbrs_j = h.edge_neighbors(j);
                if nbrs_j.len() < s {
                    w.stats.pairs_skipped(1);
                    continue;
                }
                if w.stats.intersect_at_least(&nbrs_i, &nbrs_j, s) {
                    w.out.push((i, j));
                }
            }
        },
    );
    let pairs = outs.concat();
    stats.flush(pairs.len());
    canonicalize(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_hypergraph, paper_slinegraph_edges};
    use crate::hypergraph::Hypergraph;

    #[test]
    fn matches_fixture() {
        let h = paper_hypergraph();
        for s in 1..=4 {
            assert_eq!(
                naive(&h, s, Strategy::AUTO),
                paper_slinegraph_edges(s),
                "s={s}"
            );
        }
    }

    #[test]
    fn degree_filter_skips_small_edges() {
        // e1 has only 1 member; with s=2 it can never appear
        let h = Hypergraph::from_memberships(&[vec![0, 1, 2], vec![1], vec![1, 2]]);
        let got = naive(&h, 2, Strategy::AUTO);
        assert_eq!(got, vec![(0, 2)]);
    }

    #[test]
    fn duplicate_member_edges_connect_at_full_size() {
        let h = Hypergraph::from_memberships(&[vec![0, 1], vec![0, 1]]);
        assert_eq!(naive(&h, 2, Strategy::AUTO), vec![(0, 1)]);
        assert!(naive(&h, 3, Strategy::AUTO).is_empty());
    }
}
