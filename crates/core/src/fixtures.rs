//! Shared test fixtures.
//!
//! [`paper_hypergraph`] is the workspace-wide stand-in for the paper's
//! Figure 1 example: 4 hyperedges over 9 hypernodes (the adjoin graph of
//! Figure 3 therefore has IDs 0–3 for hyperedges and 4–12 for hypernodes).
//! Its pairwise overlaps are chosen so the three s-line graphs of Figure 5
//! are all distinct:
//!
//! | pair      | overlap            | size |
//! |-----------|--------------------|------|
//! | e0 ∩ e1   | {3}                | 1    |
//! | e0 ∩ e2   | ∅                  | 0    |
//! | e0 ∩ e3   | {0, 2, 3}          | 3    |
//! | e1 ∩ e2   | {4, 5, 6}          | 3    |
//! | e1 ∩ e3   | {3, 5}             | 2    |
//! | e2 ∩ e3   | {5, 8}             | 2    |
//!
//! giving line-graph edge sets
//! `s=1: {01, 03, 12, 13, 23}` · `s=2: {03, 12, 13, 23}` · `s=3: {03, 12}`
//! and `s=4: ∅`.

use crate::hypergraph::Hypergraph;
use crate::Id;

/// Membership lists of the Figure 1 stand-in (see module docs).
pub fn paper_memberships() -> Vec<Vec<Id>> {
    vec![
        vec![0, 1, 2, 3],
        vec![3, 4, 5, 6],
        vec![4, 5, 6, 7, 8],
        vec![0, 2, 3, 5, 8],
    ]
}

/// The Figure 1 stand-in hypergraph: 4 hyperedges, 9 hypernodes.
pub fn paper_hypergraph() -> Hypergraph {
    Hypergraph::from_memberships(&paper_memberships())
}

/// The expected s-line graph edge sets of [`paper_hypergraph`], as
/// canonical `(i, j)` pairs with `i < j`, for `s` = 1..=4.
pub fn paper_slinegraph_edges(s: usize) -> Vec<(Id, Id)> {
    match s {
        0 | 1 => vec![(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)],
        2 => vec![(0, 3), (1, 2), (1, 3), (2, 3)],
        3 => vec![(0, 3), (1, 2)],
        _ => vec![],
    }
}

/// A small hypergraph with nested hyperedges for toplex tests:
/// `t0 = {0,1,2,3}` ⊋ `t1 = {1,2}` ⊋ `t2 = {2}`, plus `t3 = {3,4}`
/// (overlapping but not nested) and `t4 = {1,2}` (duplicate of `t1`).
pub fn nested_hypergraph() -> Hypergraph {
    Hypergraph::from_memberships(&[
        vec![0, 1, 2, 3],
        vec![1, 2],
        vec![2],
        vec![3, 4],
        vec![1, 2],
    ])
}

/// A skewed hypergraph on which the adaptive overlap engine takes every
/// path under the intersection kernel at `s = 1`
/// (`BITSET_ROW_MIN_DEGREE = 32`, `GALLOP_RATIO = 8`):
///
/// - `e0` = {0..64}: 64 members ⇒ its row bitset loads, so all 4 of its
///   candidate pairs (e1..e4 each share a node) take the bitset path;
/// - `e1` = {0..16}: 16 members, not loaded. Candidates e2 (len 2,
///   ratio 8) and e3 (len 2, ratio 8) gallop; e4 (len 3, ratio 5)
///   merges;
/// - `e3` = {1,2} vs e4 = {1,2,3}: ratio 1 ⇒ merge.
///
/// Totals: 4 bitset + 2 gallop + 2 merge = 8 pairs examined.
pub fn skewed_overlap_hypergraph() -> Hypergraph {
    Hypergraph::from_memberships(&[
        (0..64).collect::<Vec<Id>>(),
        (0..16).collect(),
        vec![0, 64],
        vec![1, 2],
        vec![1, 2, 3],
    ])
}

/// A hypergraph with more than 300 rows in both directions, so it spans
/// several 64-row blocks of a packed image's sampled index: 321
/// hyperedges over 350 hypernodes, every 10th hyperedge empty and no
/// hyperedge touching a hypernode divisible by 7 (the last hyperedge,
/// `{349}`, pins the ID space).
pub fn multi_block_hypergraph() -> Hypergraph {
    let memberships: Vec<Vec<Id>> = (0..320u32)
        .map(|e| {
            if e % 10 == 9 {
                return Vec::new();
            }
            let mut row: Vec<Id> = (0..=e % 6)
                .map(|k| (e * 37 + k * 101 + 13) % 350)
                .filter(|v| v % 7 != 0)
                .collect();
            row.sort_unstable();
            row.dedup();
            row
        })
        .chain(std::iter::once(vec![349]))
        .collect();
    Hypergraph::from_memberships(&memberships)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_block_fixture_has_empty_rows_past_the_first_blocks() {
        let h = multi_block_hypergraph();
        assert_eq!((h.num_hyperedges(), h.num_hypernodes()), (321, 350));
        assert!(
            (128..321).any(|e| h.edge_degree(e) == 0),
            "empty hyperedge row"
        );
        assert!(
            (128..350).any(|v| h.node_degree(v) == 0),
            "empty hypernode row"
        );
    }

    #[test]
    fn fixture_overlap_table_is_accurate() {
        let ms = paper_memberships();
        let overlap = |a: &Vec<Id>, b: &Vec<Id>| a.iter().filter(|x| b.contains(x)).count();
        assert_eq!(overlap(&ms[0], &ms[1]), 1);
        assert_eq!(overlap(&ms[0], &ms[2]), 0);
        assert_eq!(overlap(&ms[0], &ms[3]), 3);
        assert_eq!(overlap(&ms[1], &ms[2]), 3);
        assert_eq!(overlap(&ms[1], &ms[3]), 2);
        assert_eq!(overlap(&ms[2], &ms[3]), 2);
    }

    #[test]
    fn expected_line_graphs_are_monotone_in_s() {
        for s in 1..4 {
            let larger = paper_slinegraph_edges(s);
            let smaller = paper_slinegraph_edges(s + 1);
            for e in &smaller {
                assert!(larger.contains(e), "E_{} ⊄ E_{}", s + 1, s);
            }
        }
    }
}
