//! Sorted-set intersection: the merge kernels the s-line-graph
//! Intersection algorithm and Algorithm 2 verify candidate pairs with.

use crate::Vertex;

/// Number of common elements in two sorted slices.
#[inline]
pub fn sorted_intersection_count(a: &[Vertex], b: &[Vertex]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                i += 1;
                j += 1;
            }
        }
    }
    count
}

/// Like [`sorted_intersection_count`] but stops early once `threshold`
/// common elements are found; returns `min(count, threshold)`. This is the
/// short-circuit the set-intersection s-line algorithm uses: it only needs
/// to know whether the overlap reaches `s`.
#[inline]
pub fn sorted_intersection_at_least(a: &[Vertex], b: &[Vertex], threshold: usize) -> bool {
    if threshold == 0 {
        return true;
    }
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                if count >= threshold {
                    return true;
                }
                i += 1;
                j += 1;
            }
        }
    }
    false
}

/// [`sorted_intersection_at_least`] that also adds the number of element
/// comparisons performed (merge-loop iterations) to `comparisons`. The
/// instrumented s-line kernels use this variant when observability is on;
/// the tally is a plain `&mut u64` so this crate stays metrics-agnostic.
#[inline]
pub fn sorted_intersection_at_least_counting(
    a: &[Vertex],
    b: &[Vertex],
    threshold: usize,
    comparisons: &mut u64,
) -> bool {
    if threshold == 0 {
        return true;
    }
    let mut i = 0;
    let mut j = 0;
    let mut count = 0;
    while i < a.len() && j < b.len() {
        *comparisons += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                count += 1;
                if count >= threshold {
                    return true;
                }
                i += 1;
                j += 1;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersection_count_basics() {
        assert_eq!(sorted_intersection_count(&[1, 3, 5], &[2, 3, 5, 7]), 2);
        assert_eq!(sorted_intersection_count(&[], &[1, 2]), 0);
        assert_eq!(sorted_intersection_count(&[1, 2, 3], &[1, 2, 3]), 3);
    }

    #[test]
    fn intersection_at_least_short_circuits() {
        assert!(sorted_intersection_at_least(&[1, 2, 3], &[1, 9], 1));
        assert!(!sorted_intersection_at_least(&[1, 2, 3], &[4, 5], 1));
        assert!(sorted_intersection_at_least(&[1, 2], &[5, 9], 0));
        assert!(!sorted_intersection_at_least(&[1, 2, 3], &[2, 3], 3));
    }
}
