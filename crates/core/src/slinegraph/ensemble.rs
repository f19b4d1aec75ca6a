//! Ensemble s-line construction (Liu et al., IPDPS 2022 \[18\]).
//!
//! Computes the line graphs for *several* values of `s` in a single
//! counting pass: exact overlap counts are accumulated once per hyperedge
//! by the counting core the hashmap algorithm uses (`slinegraph::counting`),
//! and each `(pair, count)` is emitted into every requested `s` bucket
//! with `count ≥ s`. Amortizes the dominant indirection cost when a user
//! wants an s-sweep (as the paper's Fig. 9 benchmarks and HyperNetX
//! workflows do).

use super::counting::count_rows;
use super::rows::Rows;
use super::{canonicalize, meets, HyperAdjacency};
use crate::Id;
use nwhy_util::partition::Strategy;

/// Computes the canonical s-line edge sets for each `s` in `s_values`
/// (need not be sorted; duplicates allowed). Output is aligned with
/// `s_values`.
///
/// # Panics
/// Panics if any `s` is 0.
// lint: obs: the counting core keeps and flushes the tallies; the loop here only merges bucket lists
pub fn ensemble<A: HyperAdjacency + ?Sized>(
    h: &A,
    s_values: &[usize],
    strategy: Strategy,
) -> Vec<Vec<(Id, Id)>> {
    assert!(s_values.iter().all(|&s| s >= 1), "s must be at least 1");
    let Some(&min_s) = s_values.iter().min() else {
        return Vec::new();
    };
    let k = s_values.len();
    let (outs, stats) = count_rows(
        h,
        Rows::All(strategy),
        min_s,
        || vec![Vec::new(); k],
        |buckets: &mut Vec<Vec<(Id, Id)>>, i, j, n| {
            for (bucket, &s) in buckets.iter_mut().zip(s_values) {
                if meets(n, s) {
                    bucket.push((i, j));
                }
            }
        },
    );
    let mut out: Vec<Vec<(Id, Id)>> = vec![Vec::new(); k];
    for buckets in outs {
        for (dst, src) in out.iter_mut().zip(buckets) {
            dst.extend(src);
        }
    }
    stats.flush(out.iter().map(Vec::len).sum());
    out.into_iter().map(canonicalize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_hypergraph, paper_slinegraph_edges};
    use crate::hypergraph::Hypergraph;
    use crate::slinegraph::hashmap::hashmap;

    #[test]
    fn matches_per_s_hashmap_on_fixture() {
        let h = paper_hypergraph();
        let svals = [1usize, 2, 3, 4];
        let got = ensemble(&h, &svals, Strategy::AUTO);
        for (out, &s) in got.iter().zip(&svals) {
            assert_eq!(out, &paper_slinegraph_edges(s), "s={s}");
        }
    }

    #[test]
    fn unsorted_and_duplicate_s_values() {
        let h = paper_hypergraph();
        let got = ensemble(&h, &[3, 1, 3], Strategy::AUTO);
        assert_eq!(got[0], paper_slinegraph_edges(3));
        assert_eq!(got[1], paper_slinegraph_edges(1));
        assert_eq!(got[2], paper_slinegraph_edges(3));
    }

    #[test]
    fn single_s_equals_hashmap() {
        let h =
            Hypergraph::from_memberships(&[vec![0, 1, 2], vec![1, 2, 3], vec![3, 4], vec![0, 4]]);
        for s in 1..=3 {
            let got = ensemble(&h, &[s], Strategy::AUTO);
            assert_eq!(got[0], hashmap(&h, s, Strategy::AUTO), "s={s}");
        }
    }

    #[test]
    fn empty_s_list() {
        let h = paper_hypergraph();
        assert!(ensemble(&h, &[], Strategy::AUTO).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_s_rejected() {
        let h = paper_hypergraph();
        ensemble(&h, &[2, 0], Strategy::AUTO);
    }

    #[test]
    fn results_nested_across_s() {
        let h = paper_hypergraph();
        let got = ensemble(&h, &[1, 2, 3, 4], Strategy::AUTO);
        for w in got.windows(2) {
            for e in &w[1] {
                assert!(w[0].contains(e));
            }
        }
    }
}
