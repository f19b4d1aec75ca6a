//! Relabel-by-degree (permute-by-row/column).
//!
//! §III-B.2 of the NWHy paper: relabeling vertices in degree order improves
//! workload distribution and memory locality for skewed graphs, but cannot
//! be applied to an adjoin graph directly because it would intermingle the
//! hyperedge and hypernode ID ranges — the motivation for the queue-based
//! s-line algorithms (Algorithms 1–2), which accept arbitrary ID
//! permutations.
//!
//! A *permutation* here maps `new ID → old ID`; the *inverse* maps
//! `old ID → new ID`.

use crate::Vertex;
use rayon::prelude::*;

/// Sort direction for degree relabeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Highest-degree vertices get the smallest new IDs.
    Descending,
    /// Lowest-degree vertices get the smallest new IDs.
    Ascending,
}

/// Computes the degree permutation of `degrees`: `perm[new] = old`.
/// Ties are broken by old ID, making the permutation deterministic.
pub fn degree_permutation(degrees: &[usize], dir: Direction) -> Vec<Vertex> {
    let mut perm: Vec<Vertex> = (0..degrees.len() as u32).collect();
    match dir {
        Direction::Descending => {
            perm.par_sort_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v))
        }
        Direction::Ascending => perm.par_sort_by_key(|&v| (degrees[v as usize], v)),
    }
    perm
}

/// Inverts a permutation: `inv[perm[i]] = i`.
pub fn invert_permutation(perm: &[Vertex]) -> Vec<Vertex> {
    let mut inv = vec![0 as Vertex; perm.len()];
    for (new_id, &old_id) in perm.iter().enumerate() {
        inv[old_id as usize] = new_id as Vertex;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn descending_puts_hubs_first() {
        let degrees = vec![1, 5, 3, 5];
        let perm = degree_permutation(&degrees, Direction::Descending);
        assert_eq!(perm, vec![1, 3, 2, 0]);
    }

    #[test]
    fn ascending_puts_leaves_first() {
        let degrees = vec![1, 5, 3, 5];
        let perm = degree_permutation(&degrees, Direction::Ascending);
        assert_eq!(perm, vec![0, 2, 1, 3]);
    }

    #[test]
    fn invert_roundtrip() {
        let perm = vec![2u32, 0, 3, 1];
        let inv = invert_permutation(&perm);
        assert_eq!(inv, vec![1, 3, 0, 2]);
        assert_eq!(invert_permutation(&inv), perm);
    }

    proptest! {
        #[test]
        fn prop_permutation_is_bijection(degrees in proptest::collection::vec(0usize..50, 1..60)) {
            for dir in [Direction::Ascending, Direction::Descending] {
                let perm = degree_permutation(&degrees, dir);
                let mut sorted = perm.clone();
                sorted.sort_unstable();
                prop_assert_eq!(sorted, (0..degrees.len() as u32).collect::<Vec<_>>());
            }
        }

        #[test]
        fn prop_degree_order_holds(degrees in proptest::collection::vec(0usize..50, 1..60)) {
            let perm = degree_permutation(&degrees, Direction::Descending);
            for w in perm.windows(2) {
                prop_assert!(degrees[w[0] as usize] >= degrees[w[1] as usize]);
            }
            let perm = degree_permutation(&degrees, Direction::Ascending);
            for w in perm.windows(2) {
                prop_assert!(degrees[w[0] as usize] <= degrees[w[1] as usize]);
            }
        }
    }
}
