//! The adaptive pair-overlap engine — three interchangeable primitives
//! for deciding `|e_i ∩ e_j| ≥ s`, selected per-pair by a cheap
//! degree-ratio/density rule (ROADMAP item 4; the hot spot every s-line
//! kernel bottlenecks on, per Liu et al.'s HiPC 2021 heuristics paper).
//!
//! | path | when | cost model |
//! |---|---|---|
//! | [`OverlapPath::Merge`] | similar-length rows | `O(len_i + len_j)` short-circuiting merge scan |
//! | [`OverlapPath::Gallop`] | degree ratio ≥ [`GALLOP_RATIO`] | `O(len_small · log len_large)` exponential + binary search |
//! | [`OverlapPath::Bitset`] | expanded row loaded (degree ≥ [`BITSET_ROW_MIN_DEGREE`]) | `O(words(len_j))` masked `AND`+popcount sweep |
//!
//! The bitset path amortizes: the expanded row `e_i` is loaded into a
//! worker-local [`WordBitset`] once, then every candidate `e_j` probes it
//! word-group-at-a-time (consecutive members sharing a `u64` word fold
//! into one mask, so a 64-member dense run costs *one* AND+popcount —
//! the loop body is branch-light and autovectorizes). Every path
//! short-circuits as soon as `s` common members are found *and*
//! early-abandons once the remaining elements cannot reach `s`.
//!
//! Path selection depends only on the two row lengths and the (length-
//! derived) row-load decision, never on thread count or visit order, so
//! the `overlap.path_*` and comparison counters stay deterministic — a
//! property the CI perf gate (`nwhy-bench`'s `bench_diff`) relies on.

use super::stats::KernelStats;
use crate::{ids, Id};
use nwhy_util::bitmap::WordBitset;

/// Load the row bitset when the expanded hyperedge has at least this
/// many members. Below this, building + clearing the bitset costs more
/// than the merge scans it replaces.
pub const BITSET_ROW_MIN_DEGREE: usize = 32;

/// Route a pair to galloping when `max(len) / min(len)` is at least this
/// (row bitset not loaded). At 8× the `log`-factor search beats scanning
/// the long row linearly.
pub const GALLOP_RATIO: usize = 8;

/// Which pair-overlap primitive decided a candidate pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapPath {
    /// Short-circuiting sorted merge scan.
    Merge,
    /// Galloping (exponential + binary search) intersection.
    Gallop,
    /// Packed `u64`-word bitset AND+popcount sweep.
    Bitset,
}

/// Worker-local overlap engine: owns the row bitset and applies the
/// per-pair path rule. One engine lives inside each candidate verifier
/// (`super::candidates::Verifier`).
#[derive(Debug)]
pub(crate) struct OverlapEngine {
    /// Upper bound on the node handles a row can contain (representation-
    /// defined: `num_hyperedges() + num_hypernodes()` covers the shifted
    /// adjoin handle space too).
    universe_bits: usize,
    bits: WordBitset,
    row_loaded: bool,
}

impl OverlapEngine {
    /// A fresh engine. The bitset allocates lazily, on the first loaded
    /// row, so merge/gallop-only runs never pay for it.
    pub fn new(universe_bits: usize) -> Self {
        Self {
            universe_bits,
            bits: WordBitset::new(),
            row_loaded: false,
        }
    }

    /// Starts expanding row `e_i`: loads its members into the bitset when
    /// it has at least [`BITSET_ROW_MIN_DEGREE`] of them. Length-only, so
    /// the decision (and with it every per-pair path choice) is
    /// independent of worker count and visit order. Pair with
    /// [`OverlapEngine::end_row`].
    #[inline]
    // lint: obs: per-row probe inside a kernel span; tallies flush via KernelStats
    pub fn begin_row(&mut self, nbrs_i: &[Id]) {
        self.row_loaded = nbrs_i.len() >= BITSET_ROW_MIN_DEGREE;
        if self.row_loaded {
            self.bits.ensure_bits(self.universe_bits);
            for &v in nbrs_i {
                self.bits.insert(ids::to_usize(v));
            }
        }
    }

    /// Finishes row `e_i`: rezeros exactly the words its members touched,
    /// leaving the bitset reusable for the next row.
    #[inline]
    pub fn end_row(&mut self, nbrs_i: &[Id]) {
        if self.row_loaded {
            self.bits
                .clear_members(nbrs_i.iter().map(|&v| ids::to_usize(v)));
            self.row_loaded = false;
        }
    }

    /// The per-pair path rule (row density, then degree ratio).
    #[inline]
    fn choose(&self, len_i: usize, len_j: usize) -> OverlapPath {
        if self.row_loaded {
            // probing a loaded row costs O(words(len_j)) — beats both
            // scans whenever the build cost is already sunk
            return OverlapPath::Bitset;
        }
        let (lo, hi) = if len_i <= len_j {
            (len_i, len_j)
        } else {
            (len_j, len_i)
        };
        if hi / lo.max(1) >= GALLOP_RATIO {
            OverlapPath::Gallop
        } else {
            OverlapPath::Merge
        }
    }

    /// `|e_i ∩ e_j| ≥ s`, via the chosen path. `nbrs_i` must be the row
    /// passed to the surrounding [`OverlapEngine::begin_row`].
    #[inline]
    pub fn overlaps(
        &mut self,
        nbrs_i: &[Id],
        nbrs_j: &[Id],
        s: usize,
        stats: &mut KernelStats,
    ) -> bool {
        match self.choose(nbrs_i.len(), nbrs_j.len()) {
            OverlapPath::Merge => {
                stats.path_merge();
                stats.intersect_at_least(nbrs_i, nbrs_j, s)
            }
            OverlapPath::Gallop => {
                stats.path_gallop();
                stats.gallop_at_least(nbrs_i, nbrs_j, s)
            }
            OverlapPath::Bitset => {
                debug_assert!(self.row_loaded, "bitset probe without a loaded row");
                stats.path_bitset();
                stats.bitset_at_least(&self.bits, nbrs_j, s)
            }
        }
    }
}

/// Galloping intersection: walks the shorter sorted row, locating each
/// member in the longer row by exponential search from the previous
/// match's frontier, then binary search inside the located window.
/// Short-circuits at `s` found, abandons when the remaining short-row
/// members cannot reach `s`. One probe = one element comparison in
/// `comparisons`, the same unit the merge scan tallies.
// lint: obs: inner probe under the kernel span; `comparisons` is the KernelStats tally (a count, not an ID)
pub(super) fn gallop_at_least(a: &[Id], b: &[Id], s: usize, comparisons: &mut u64) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.len() < s || large.len() < s {
        return false;
    }
    let mut found = 0usize;
    let mut base = 0usize; // every element of large[..base] is < current x
    for (idx, &x) in small.iter().enumerate() {
        if found + (small.len() - idx) < s {
            return false; // can't reach s even if every remaining member matches
        }
        if base >= large.len() {
            return false;
        }
        // exponential phase: find a window [lo, hi) with large[lo-1] < x ≤ large[hi]
        let mut step = 1usize;
        let mut lo = base;
        let mut probe = base;
        loop {
            if probe >= large.len() {
                break;
            }
            *comparisons += 1;
            if large[probe] < x {
                lo = probe + 1;
                probe += step;
                step <<= 1;
            } else {
                break;
            }
        }
        let mut hi = probe.min(large.len());
        // binary phase: lower bound of x inside the window
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            *comparisons += 1;
            if large[mid] < x {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        base = lo;
        if base < large.len() {
            *comparisons += 1;
            if large[base] == x {
                found += 1;
                if found >= s {
                    return true;
                }
                base += 1;
            }
        }
    }
    false
}

/// Bitset probe: sweeps the candidate row `probe` against a loaded row
/// bitset, folding consecutive members that share a `u64` word into one
/// mask so each word costs a single `AND` + `count_ones`. One word-group
/// = one tallied comparison — which is exactly why dense pairs show a
/// measured comparison-count *reduction* versus the merge scan.
// lint: obs: inner probe under the kernel span; `comparisons` is the KernelStats tally (a count, not an ID)
pub(super) fn bitset_overlap_at_least(
    bits: &WordBitset,
    probe: &[Id],
    s: usize,
    comparisons: &mut u64,
) -> bool {
    if probe.len() < s {
        return false;
    }
    let mut found = 0usize;
    let mut k = 0usize;
    let n = probe.len();
    while k < n {
        let first = ids::to_usize(probe[k]);
        let w = first / 64;
        let mut mask = 1u64 << (first % 64);
        k += 1;
        while k < n {
            let next = ids::to_usize(probe[k]);
            if next / 64 != w {
                break;
            }
            mask |= 1u64 << (next % 64);
            k += 1;
        }
        *comparisons += 1;
        found += (bits.word(w) & mask).count_ones() as usize; // lint: popcount ≤ 64, widening
        if found >= s {
            return true;
        }
        if found + (n - k) < s {
            return false;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwgraph::algorithms::intersection::sorted_intersection_at_least;
    use proptest::prelude::*;

    fn gallop(a: &[Id], b: &[Id], s: usize) -> bool {
        let mut cmp = 0u64;
        gallop_at_least(a, b, s, &mut cmp)
    }

    fn bitset(a: &[Id], b: &[Id], s: usize) -> bool {
        let mut bits = WordBitset::new();
        let top = a.iter().chain(b).map(|&x| ids::to_usize(x) + 1).max();
        bits.ensure_bits(top.unwrap_or(0));
        for &x in a {
            bits.insert(ids::to_usize(x));
        }
        let mut cmp = 0u64;
        bitset_overlap_at_least(&bits, b, s, &mut cmp)
    }

    /// Every primitive against the merge-scan oracle over an exhaustive
    /// small universe.
    #[test]
    fn primitives_match_merge_oracle() {
        let rows: Vec<Vec<Id>> = vec![
            vec![],
            vec![5],
            vec![0, 1, 2, 3],
            vec![2, 3, 4, 5, 6, 7, 8, 9],
            (0..64).collect(),
            (60..130).collect(),
            (0..200).step_by(3).collect(),
            vec![63, 64, 127, 128], // word-boundary members
        ];
        for a in &rows {
            for b in &rows {
                for s in 1..=5 {
                    let want = sorted_intersection_at_least(a, b, s);
                    assert_eq!(gallop(a, b, s), want, "gallop {a:?}∩{b:?} s={s}");
                    assert_eq!(bitset(a, b, s), want, "bitset {a:?}∩{b:?} s={s}");
                }
            }
        }
    }

    #[test]
    fn gallop_skewed_pair_is_cheaper_than_merge() {
        // 4 probes into a 4096-long row: galloping must do far fewer
        // element comparisons than the ~4100 a merge scan would
        let small: Vec<Id> = vec![100, 2000, 3000, 4000];
        let large: Vec<Id> = (0..4096).collect();
        let mut cmp = 0u64;
        assert!(gallop_at_least(&small, &large, 4, &mut cmp));
        assert!(cmp < 200, "gallop spent {cmp} comparisons");
    }

    #[test]
    fn bitset_dense_pair_is_cheaper_than_merge() {
        // two dense 64-member rows collapse to a couple of word-groups
        let a: Vec<Id> = (0..64).collect();
        let b: Vec<Id> = (32..96).collect();
        let mut merge_cmp = 0u64;
        nwgraph::algorithms::intersection::sorted_intersection_at_least_counting(
            &a,
            &b,
            33, // unreachable: |a ∩ b| = 32 — forces a full scan
            &mut merge_cmp,
        );
        let mut bits = WordBitset::new();
        bits.ensure_bits(128);
        for &x in &a {
            bits.insert(ids::to_usize(x));
        }
        let mut bitset_cmp = 0u64;
        bitset_overlap_at_least(&bits, &b, 33, &mut bitset_cmp);
        assert!(
            bitset_cmp * 4 < merge_cmp,
            "bitset {bitset_cmp} vs merge {merge_cmp} comparisons"
        );
    }

    #[test]
    fn early_exit_at_s_stops_probing() {
        let a: Vec<Id> = (0..1000).collect();
        let b: Vec<Id> = (0..1000).collect();
        let mut bits = WordBitset::new();
        bits.ensure_bits(1000);
        for &x in &a {
            bits.insert(ids::to_usize(x));
        }
        let mut cmp = 0u64;
        assert!(bitset_overlap_at_least(&bits, &b, 1, &mut cmp));
        assert_eq!(cmp, 1, "s=1 on identical rows must stop after one word");
    }

    #[test]
    fn engine_adaptive_routes_by_shape() {
        let mut stats = KernelStats::default();
        let mut eng = OverlapEngine::new(4096);
        // dense row → loaded → bitset
        let dense: Vec<Id> = (0..ids::from_usize(BITSET_ROW_MIN_DEGREE)).collect();
        eng.begin_row(&dense);
        assert_eq!(eng.choose(dense.len(), 5), OverlapPath::Bitset);
        assert!(eng.overlaps(&dense, &[0, 1, 2], 2, &mut stats));
        eng.end_row(&dense);
        // small row, skewed candidate → gallop; similar candidate → merge
        let small: Vec<Id> = vec![1, 2, 3];
        eng.begin_row(&small);
        assert_eq!(eng.choose(3, 3 * GALLOP_RATIO), OverlapPath::Gallop);
        assert_eq!(eng.choose(3, 4), OverlapPath::Merge);
        eng.end_row(&small);
    }

    /// Two sorted rows of up to 200 members from a shared universe of
    /// 200–4000 ids: long enough to load a bitset row and to skew a pair
    /// past [`GALLOP_RATIO`], sparse enough that overlaps fall on both
    /// sides of small `s`.
    fn arb_rows() -> impl Strategy<Value = (Vec<Id>, Vec<Id>)> {
        let row = |u: u32| {
            proptest::collection::btree_set(0..u, 0..200).prop_map(|r| r.into_iter().collect())
        };
        (200u32..4000).prop_flat_map(move |u| (row(u), row(u)))
    }

    proptest! {
        #[test]
        fn prop_primitives_match_merge_oracle_on_long_rows(rows in arb_rows(), s in 1usize..=6) {
            let (a, b) = rows;
            let want = sorted_intersection_at_least(&a, &b, s);
            prop_assert_eq!(gallop(&a, &b, s), want, "gallop s={}", s);
            prop_assert_eq!(bitset(&a, &b, s), want, "bitset s={}", s);
        }
    }
}
