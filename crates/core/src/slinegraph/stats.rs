//! Worker-local kernel tallies for the s-line constructions.
//!
//! Every algorithm keeps a [`KernelStats`] inside its per-worker state
//! and bumps plain `u64` fields in the hot loops — no atomics per
//! item. The bumps are guarded by the `const fn` [`nwhy_obs::enabled`],
//! so a `--no-default-features` build folds all of this away and runs
//! the exact same loop bodies. After the parallel region, the merged
//! tallies are flushed to the global registry once per construction
//! call.

use super::overlap;
use crate::Id;
use nwgraph::algorithms::intersection::{
    sorted_intersection_at_least, sorted_intersection_at_least_counting,
};
use nwhy_obs::Counter;
use nwhy_util::bitmap::WordBitset;

/// Per-worker tallies for one s-line construction pass.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KernelStats {
    pairs_examined: u64,
    pairs_skipped_degree: u64,
    hashmap_insertions: u64,
    intersection_comparisons: u64,
    queue_pushes: u64,
    overlap_merge: u64,
    overlap_gallop: u64,
    overlap_bitset: u64,
}

impl KernelStats {
    /// One candidate pair reached the per-pair work (counting or
    /// intersection), before any per-pair degree filter.
    #[inline]
    pub fn pair_examined(&mut self) {
        if nwhy_obs::enabled() {
            self.pairs_examined += 1;
        }
    }

    /// `n` candidate pairs reached the per-pair work at once (bulk form
    /// for the counting algorithms, where the distinct-candidate count
    /// is known per row).
    #[inline]
    pub fn pairs_examined_n(&mut self, n: u64) {
        if nwhy_obs::enabled() {
            self.pairs_examined += n;
        }
    }

    /// `n` pairs were skipped by a `degree < s` filter (an outer-row
    /// skip counts all pairs the row would have generated).
    #[inline]
    pub fn pairs_skipped(&mut self, n: u64) {
        if nwhy_obs::enabled() {
            self.pairs_skipped_degree += n;
        }
    }

    /// One `overlap_count[j] += 1` counting increment (the counter keeps
    /// the name of the hash-map accumulator it was defined on).
    #[inline]
    pub fn hashmap_insertion(&mut self) {
        if nwhy_obs::enabled() {
            self.hashmap_insertions += 1;
        }
    }

    /// `n` IDs were pushed onto a work queue.
    #[inline]
    pub fn queue_pushed(&mut self, n: u64) {
        if nwhy_obs::enabled() {
            self.queue_pushes += n;
        }
    }

    /// The short-circuiting sorted intersection, tallying element
    /// comparisons when observability is on (the disabled branch is the
    /// uninstrumented original — `enabled()` is `const`, so exactly one
    /// branch survives codegen).
    #[inline]
    pub fn intersect_at_least(&mut self, a: &[Id], b: &[Id], s: usize) -> bool {
        if nwhy_obs::enabled() {
            sorted_intersection_at_least_counting(a, b, s, &mut self.intersection_comparisons)
        } else {
            sorted_intersection_at_least(a, b, s)
        }
    }

    /// One pair routed to the merge-scan overlap path.
    #[inline]
    pub fn path_merge(&mut self) {
        if nwhy_obs::enabled() {
            self.overlap_merge += 1;
        }
    }

    /// One pair routed to the galloping overlap path.
    #[inline]
    pub fn path_gallop(&mut self) {
        if nwhy_obs::enabled() {
            self.overlap_gallop += 1;
        }
    }

    /// One pair routed to the bitset overlap path.
    #[inline]
    pub fn path_bitset(&mut self) {
        if nwhy_obs::enabled() {
            self.overlap_bitset += 1;
        }
    }

    /// The galloping intersection, tallying its search probes into the
    /// same comparison counter the merge scan uses. The disabled build
    /// counts into a dead local the optimizer drops.
    #[inline]
    pub fn gallop_at_least(&mut self, a: &[Id], b: &[Id], s: usize) -> bool {
        if nwhy_obs::enabled() {
            overlap::gallop_at_least(a, b, s, &mut self.intersection_comparisons)
        } else {
            let mut sink = 0u64;
            overlap::gallop_at_least(a, b, s, &mut sink)
        }
    }

    /// The bitset word-group probe, tallying one comparison per word
    /// group processed.
    #[inline]
    pub fn bitset_at_least(&mut self, bits: &WordBitset, probe: &[Id], s: usize) -> bool {
        if nwhy_obs::enabled() {
            overlap::bitset_overlap_at_least(bits, probe, s, &mut self.intersection_comparisons)
        } else {
            let mut sink = 0u64;
            overlap::bitset_overlap_at_least(bits, probe, s, &mut sink)
        }
    }

    /// Folds another worker's tallies into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.pairs_examined += other.pairs_examined;
        self.pairs_skipped_degree += other.pairs_skipped_degree;
        self.hashmap_insertions += other.hashmap_insertions;
        self.intersection_comparisons += other.intersection_comparisons;
        self.queue_pushes += other.queue_pushes;
        self.overlap_merge += other.overlap_merge;
        self.overlap_gallop += other.overlap_gallop;
        self.overlap_bitset += other.overlap_bitset;
    }

    /// Publishes the tallies to the global registry (plus the emitted
    /// pre-canonicalization edge count). One call per construction, so
    /// the atomic traffic is O(counters), not O(work).
    pub fn flush(&self, edges_emitted: usize) {
        if !nwhy_obs::enabled() {
            return;
        }
        nwhy_obs::add(Counter::SlinePairsExamined, self.pairs_examined);
        nwhy_obs::add(Counter::SlinePairsSkippedDegree, self.pairs_skipped_degree);
        nwhy_obs::add(Counter::SlineHashmapInsertions, self.hashmap_insertions);
        nwhy_obs::add(
            Counter::SlineIntersectionComparisons,
            self.intersection_comparisons,
        );
        nwhy_obs::add(Counter::SlineQueuePushes, self.queue_pushes);
        nwhy_obs::add(Counter::SlineEdgesEmitted, edges_emitted as u64);
        nwhy_obs::add(Counter::OverlapPathMerge, self.overlap_merge);
        nwhy_obs::add(Counter::OverlapPathGallop, self.overlap_gallop);
        nwhy_obs::add(Counter::OverlapPathBitset, self.overlap_bitset);
    }
}
