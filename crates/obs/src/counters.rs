//! The fixed counter and histogram vocabularies.
//!
//! Counters are a closed enum rather than runtime-registered strings so
//! the hot-path bump is a single array index into the counter slab — no
//! hashing, no locks. The names mirror the quantities the paper's
//! performance narrative turns on (§III-C.3 work heuristics, §IV
//! direction-optimizing traversals).

/// One monotonic kernel counter. `Counter::name` is the stable string
/// used in every sink (text, JSON, `BENCH_*.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Hyperedge pairs considered by an s-line construction (before any
    /// per-pair degree filter; the naive algorithm examines exactly
    /// `C(n_e, 2)` when no outer degree filter applies).
    SlinePairsExamined,
    /// Pairs (or whole rows, counted pairwise) skipped by the
    /// `degree < s` heuristic before any intersection/counting work.
    SlinePairsSkippedDegree,
    /// Hashmap `overlap_count[j] += 1` operations performed by the
    /// counting algorithms (hashmap, ensemble, queue-hashmap).
    SlineHashmapInsertions,
    /// Element comparisons spent inside short-circuiting sorted
    /// intersections (naive, intersection, queue-intersection).
    SlineIntersectionComparisons,
    /// Hyperedge or pair IDs enqueued into a work queue (Algorithms 1–2
    /// phase-1 output included).
    SlineQueuePushes,
    /// s-line edges emitted (pre-canonicalization survivor count).
    SlineEdgesEmitted,
    /// Candidate pairs routed to the short-circuiting merge scan by the
    /// adaptive overlap engine.
    OverlapPathMerge,
    /// Candidate pairs routed to the galloping (exponential-search)
    /// intersection (high degree-ratio pairs).
    OverlapPathGallop,
    /// Candidate pairs routed to the packed `u64`-word bitset
    /// AND+popcount sweep (dense expanded rows).
    OverlapPathBitset,
    /// Kernel selections made by the s-line planner
    /// (`SLineBuilder::auto()` / CLI `--kernel auto`).
    PlannerKernelChosen,
    /// Full BFS rounds (one hyperedge→hypernode→hyperedge alternation).
    BfsRounds,
    /// Sparse (top-down / push) `edge_map` half-steps taken by a BFS.
    BfsSparseSteps,
    /// Dense (bottom-up / pull) `edge_map` half-steps taken by a BFS.
    BfsDenseSteps,
    /// Top-down↔bottom-up direction changes between consecutive BFS
    /// half-steps (the Ligra `|frontier| + out_edges > m/20` heuristic).
    BfsDirectionSwitches,
    /// Label-propagation rounds run by a connected-components kernel.
    CcRounds,
    /// Sparse `edge_map` half-steps taken by CC label propagation.
    CcSparseSteps,
    /// Dense `edge_map` half-steps taken by CC label propagation.
    CcDenseSteps,
    /// Direction changes between consecutive CC half-steps.
    CcDirectionSwitches,
    /// Bytes consumed by the `nwhy-io` readers.
    IoBytesRead,
    /// Input lines parsed by the text readers.
    IoLinesParsed,
    /// Incidences materialized by a reader.
    IoIncidencesRead,
}

impl Counter {
    /// Every counter, in declaration order (the snapshot iteration
    /// order).
    pub const ALL: [Counter; 21] = [
        Counter::SlinePairsExamined,
        Counter::SlinePairsSkippedDegree,
        Counter::SlineHashmapInsertions,
        Counter::SlineIntersectionComparisons,
        Counter::SlineQueuePushes,
        Counter::SlineEdgesEmitted,
        Counter::OverlapPathMerge,
        Counter::OverlapPathGallop,
        Counter::OverlapPathBitset,
        Counter::PlannerKernelChosen,
        Counter::BfsRounds,
        Counter::BfsSparseSteps,
        Counter::BfsDenseSteps,
        Counter::BfsDirectionSwitches,
        Counter::CcRounds,
        Counter::CcSparseSteps,
        Counter::CcDenseSteps,
        Counter::CcDirectionSwitches,
        Counter::IoBytesRead,
        Counter::IoLinesParsed,
        Counter::IoIncidencesRead,
    ];

    /// Stable dotted name used by every sink.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SlinePairsExamined => "sline.pairs_examined",
            Counter::SlinePairsSkippedDegree => "sline.pairs_skipped_degree",
            Counter::SlineHashmapInsertions => "sline.hashmap_insertions",
            Counter::SlineIntersectionComparisons => "sline.intersection_comparisons",
            Counter::SlineQueuePushes => "sline.queue_pushes",
            Counter::SlineEdgesEmitted => "sline.edges_emitted",
            Counter::OverlapPathMerge => "overlap.path_merge",
            Counter::OverlapPathGallop => "overlap.path_gallop",
            Counter::OverlapPathBitset => "overlap.path_bitset",
            Counter::PlannerKernelChosen => "planner.kernel_chosen",
            Counter::BfsRounds => "bfs.rounds",
            Counter::BfsSparseSteps => "bfs.sparse_steps",
            Counter::BfsDenseSteps => "bfs.dense_steps",
            Counter::BfsDirectionSwitches => "bfs.direction_switches",
            Counter::CcRounds => "cc.rounds",
            Counter::CcSparseSteps => "cc.sparse_steps",
            Counter::CcDenseSteps => "cc.dense_steps",
            Counter::CcDirectionSwitches => "cc.direction_switches",
            Counter::IoBytesRead => "io.bytes_read",
            Counter::IoLinesParsed => "io.lines_parsed",
            Counter::IoIncidencesRead => "io.incidences_read",
        }
    }

    /// Dense index into the counter slab.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One bucketed distribution (power-of-two buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Hist {
    /// Hyperedge-frontier sizes per BFS half-step.
    BfsFrontierEdges,
    /// Hypernode-frontier sizes per BFS half-step.
    BfsFrontierNodes,
    /// Active-set sizes per CC label-propagation half-step.
    CcFrontier,
}

impl Hist {
    /// Every histogram, in declaration order.
    pub const ALL: [Hist; 3] = [
        Hist::BfsFrontierEdges,
        Hist::BfsFrontierNodes,
        Hist::CcFrontier,
    ];

    /// Stable dotted name used by every sink.
    pub fn name(self) -> &'static str {
        match self {
            Hist::BfsFrontierEdges => "bfs.frontier_edges",
            Hist::BfsFrontierNodes => "bfs.frontier_nodes",
            Hist::CcFrontier => "cc.frontier",
        }
    }

    /// Dense index into the histogram slab.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_ordered() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.name());
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i, "{}", h.name());
        }
    }

    #[test]
    fn names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Hist::ALL.iter().map(|h| h.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(names.iter().all(|n| n.contains('.')));
    }
}
