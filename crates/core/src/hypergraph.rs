//! The bi-adjacency hypergraph representation (§III-B.1).
//!
//! A [`Hypergraph`] owns *two separate but mutually indexed* CSR
//! structures — exactly the paper's `biadjacency<0>` (hyperedges) and
//! `biadjacency<1>` (hypernodes). The hyperedge CSR maps each hyperedge to
//! its incident hypernodes; the hypernode CSR is its exact transpose.
//! Because the two index sets are separate, the incidence matrix may be
//! rectangular — [`nwgraph::Csr`] supports that natively.

use crate::biedgelist::BiEdgeList;
use crate::ids;
use crate::Id;
use nwgraph::Csr;

/// A hypergraph stored as mutually indexed bi-adjacency CSRs.
///
/// # Examples
///
/// ```
/// use nwhy_core::Hypergraph;
///
/// // three hyperedges over five hypernodes
/// let h = Hypergraph::from_memberships(&[
///     vec![0, 1, 2],
///     vec![2, 3],
///     vec![3, 4],
/// ]);
/// assert_eq!(h.num_hyperedges(), 3);
/// assert_eq!(h.num_hypernodes(), 5);
/// assert_eq!(h.edge_members(0), &[0, 1, 2]);
/// assert_eq!(h.node_memberships(3), &[1, 2]); // node 3 ∈ e1, e2
/// assert_eq!(h.dual().edge_members(3), &[1, 2]); // dual swaps roles
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Hypergraph {
    /// Hyperedge → incident hypernodes (`biadjacency<0>`).
    edges: Csr,
    /// Hypernode → incident hyperedges (`biadjacency<1>`).
    nodes: Csr,
}

impl Hypergraph {
    /// Builds both bi-adjacencies from a [`BiEdgeList`] — the Rust
    /// equivalent of Listing 2's
    /// `biadjacency<0> hyperedges(bi_el); biadjacency<1> hypernodes(bi_el);`.
    pub fn from_biedgelist(bel: &BiEdgeList) -> Self {
        let edges = {
            let _span = nwhy_obs::span("build.csr");
            Csr::from_pairs(
                bel.num_hyperedges(),
                bel.num_hypernodes(),
                bel.incidences(),
                bel.weights(),
            )
        };
        Self::with_transpose(edges, "Hypergraph::from_biedgelist")
    }

    /// Completes a hyperedge CSR with its transpose, the hypernode side.
    fn with_transpose(edges: Csr, context: &str) -> Self {
        let nodes = {
            let _span = nwhy_obs::span("build.transpose");
            edges.transpose()
        };
        let h = Self { edges, nodes };
        crate::validate::debug_validate(&h, context);
        h
    }

    /// Builds from the rows of the hyperedge CSR, as a text reader appends
    /// them: row `e` is `targets[offsets[e]..offsets[e + 1]]`, a set of
    /// hypernodes. The rows are made canonical in place: a row that is not
    /// strictly increasing is sorted and deduplicated, and the other rows
    /// are not touched. The hypernode space is the smallest `0..n` that
    /// covers every target. One transpose then builds the hypernode side.
    ///
    /// `offsets` must start at 0, never decrease and end at
    /// `targets.len()`. A row outside `targets` comes out empty.
    pub fn from_edge_rows(mut offsets: Vec<usize>, mut targets: Vec<Id>) -> Self {
        debug_assert!(
            offsets.first() == Some(&0)
                && offsets.is_sorted()
                && offsets.last() == Some(&targets.len()),
            "malformed edge rows"
        );
        let mut space = 0;
        // rows move down over the entries that deduplication dropped
        let (mut read, mut write) = (0, 0);
        for end in offsets.iter_mut().skip(1) {
            let hi = (*end).clamp(read, targets.len());
            let len = hi - read;
            if write != read {
                targets.copy_within(read..hi, write);
            }
            let row = targets.get_mut(write..write + len).unwrap_or_default();
            let kept = into_set(row);
            if let Some(&last) = row.get(..kept).and_then(<[Id]>::last) {
                space = space.max(ids::to_usize(last) + 1);
            }
            (read, write) = (hi, write + kept);
            *end = write;
        }
        match offsets.first_mut() {
            Some(first) => *first = 0,
            None => offsets.push(0),
        }
        targets.truncate(write);
        let edges = Csr::from_raw_parts(space, offsets, targets, None);
        Self::with_transpose(edges, "Hypergraph::from_edge_rows")
    }

    /// Builds from hyperedge rows that a reader filled with a counting
    /// sort in stream order: row `e` is `targets[offsets[e]..offsets[e +
    /// 1]]`, with `weights` beside `targets` if present. Rows that are not
    /// sorted are sorted as [`Hypergraph::from_biedgelist`] sorts them, and
    /// duplicate incidences are kept, so a reader that streams a pair list
    /// twice (once to count, once to scatter) gets the same hypergraph as
    /// one that builds the [`BiEdgeList`] first. One transpose then builds
    /// the hypernode side.
    ///
    /// # Panics
    /// Panics if `offsets` is empty, decreases, or runs past `targets`, or
    /// if a target is not below `num_hypernodes`.
    pub fn from_scattered_rows(
        num_hypernodes: usize,
        offsets: Vec<usize>,
        targets: Vec<Id>,
        weights: Option<Vec<f64>>,
    ) -> Self {
        let edges = {
            let _span = nwhy_obs::span("build.csr");
            Csr::from_scattered_rows(num_hypernodes, offsets, targets, weights)
        };
        Self::with_transpose(edges, "Hypergraph::from_scattered_rows")
    }

    /// Assembles a hypergraph from two pre-built bi-adjacencies without
    /// checking that they are mutual transposes.
    ///
    /// This is the deserialization/testing back door: the
    /// [`Validate`](crate::validate::Validate) tests use it to build
    /// deliberately corrupted hypergraphs. Run
    /// [`validate`](crate::validate::Validate::validate) before handing
    /// the result to any algorithm; prefer
    /// [`Hypergraph::from_biedgelist`], which establishes the mutual
    /// indexing by construction.
    pub fn from_raw_parts(edges: Csr, nodes: Csr) -> Self {
        Self { edges, nodes }
    }

    /// Takes the hypergraph apart into its `(edges, nodes)`
    /// bi-adjacencies, the inverse of [`Hypergraph::from_raw_parts`].
    pub fn into_raw_parts(self) -> (Csr, Csr) {
        (self.edges, self.nodes)
    }

    /// Heap bytes held by both bi-adjacencies, counted by capacity.
    pub fn memory_bytes(&self) -> usize {
        self.edges.memory_bytes() + self.nodes.memory_bytes()
    }

    /// Builds from per-hyperedge membership lists.
    pub fn from_memberships(memberships: &[Vec<Id>]) -> Self {
        Self::from_biedgelist(&BiEdgeList::from_memberships(memberships))
    }

    /// Number of hyperedges.
    #[inline]
    pub fn num_hyperedges(&self) -> usize {
        self.edges.num_vertices()
    }

    /// Number of hypernodes.
    #[inline]
    pub fn num_hypernodes(&self) -> usize {
        self.nodes.num_vertices()
    }

    /// Number of incidences (nonzeros of the incidence matrix).
    #[inline]
    pub fn num_incidences(&self) -> usize {
        self.edges.num_edges()
    }

    /// The hyperedge bi-adjacency: hyperedge → sorted incident hypernodes.
    #[inline]
    pub fn edges(&self) -> &Csr {
        &self.edges
    }

    /// The hypernode bi-adjacency: hypernode → sorted incident hyperedges.
    #[inline]
    pub fn nodes(&self) -> &Csr {
        &self.nodes
    }

    /// Hypernodes incident to hyperedge `e` (sorted).
    #[inline]
    pub fn edge_members(&self, e: Id) -> &[Id] {
        self.edges.neighbors(e)
    }

    /// Hyperedges incident to hypernode `v` (sorted).
    #[inline]
    pub fn node_memberships(&self, v: Id) -> &[Id] {
        self.nodes.neighbors(v)
    }

    /// Size (cardinality) of hyperedge `e`.
    #[inline]
    pub fn edge_degree(&self, e: Id) -> usize {
        self.edges.degree(e)
    }

    /// Number of hyperedges containing hypernode `v`.
    #[inline]
    pub fn node_degree(&self, v: Id) -> usize {
        self.nodes.degree(v)
    }

    /// `true` if the incidences carry weights (Listing 5's `weight`
    /// array). Weighted incidences are available through
    /// `edges().weighted_neighbors(e)` / `nodes().weighted_neighbors(v)`.
    pub fn is_weighted(&self) -> bool {
        self.edges.is_weighted()
    }

    /// The dual hypergraph `H*`: hyperedges and hypernodes swap roles
    /// (transpose of the incidence matrix, §II-C).
    pub fn dual(&self) -> Hypergraph {
        Hypergraph {
            edges: self.nodes.clone(),
            nodes: self.edges.clone(),
        }
    }

    /// Log2-binned histogram of hyperedge sizes: `hist[k]` counts
    /// hyperedges with size in `[2^(k-1)+1 … 2^k]` (`hist[0]` counts
    /// empty and singleton… see [`log2_histogram`]). Used by the bench
    /// harness to verify twin skew against the Table I rows.
    pub fn edge_size_histogram(&self) -> Vec<usize> {
        log2_histogram((0..ids::from_usize(self.num_hyperedges())).map(|e| self.edge_degree(e)))
    }

    /// Log2-binned histogram of hypernode degrees (see
    /// [`log2_histogram`]).
    pub fn node_degree_histogram(&self) -> Vec<usize> {
        log2_histogram((0..ids::from_usize(self.num_hypernodes())).map(|v| self.node_degree(v)))
    }

    /// Summary statistics in the shape of the paper's Table I.
    pub fn stats(&self) -> HypergraphStats {
        let nv = self.num_hypernodes();
        let ne = self.num_hyperedges();
        let inc = self.num_incidences();
        HypergraphStats {
            num_hypernodes: nv,
            num_hyperedges: ne,
            num_incidences: inc,
            avg_node_degree: if nv == 0 { 0.0 } else { inc as f64 / nv as f64 },
            avg_edge_degree: if ne == 0 { 0.0 } else { inc as f64 / ne as f64 },
            max_node_degree: self.nodes.max_degree(),
            max_edge_degree: self.edges.max_degree(),
        }
    }
}

/// Sorts `row` unless it is already strictly increasing and moves its
/// distinct values to the front; returns how many there are.
fn into_set(row: &mut [Id]) -> usize {
    if row.is_sorted_by(|a, b| a < b) {
        return row.len();
    }
    row.sort_unstable();
    // the distinct values so far are row[..=last]
    let mut last = 0;
    for i in 1..row.len() {
        if row.get(i) != row.get(last) {
            last += 1;
            row.swap(last, i);
        }
    }
    last + 1
}

/// Log2-binned histogram: bin 0 counts zeros, bin `k ≥ 1` counts values
/// `d` with `2^(k-1) ≤ d < 2^k`. Trailing empty bins are trimmed. The
/// standard way to eyeball a skewed degree distribution.
pub fn log2_histogram(values: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut hist: Vec<usize> = Vec::new();
    for d in values {
        let bin = if d == 0 {
            0
        } else {
            (usize::BITS - d.leading_zeros()) as usize
        };
        if bin >= hist.len() {
            hist.resize(bin + 1, 0);
        }
        hist[bin] += 1;
    }
    while hist.last() == Some(&0) {
        hist.pop();
    }
    hist
}

/// The dataset-characteristics row of Table I: sizes, average degrees
/// (`d̄_v`, `d̄_e`) and maximum degrees (`Δ_v`, `Δ_e`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HypergraphStats {
    /// |V| — number of hypernodes.
    pub num_hypernodes: usize,
    /// |E| — number of hyperedges.
    pub num_hyperedges: usize,
    /// Number of incidence pairs.
    pub num_incidences: usize,
    /// Average hypernode degree `d̄_v`.
    pub avg_node_degree: f64,
    /// Average hyperedge size `d̄_e`.
    pub avg_edge_degree: f64,
    /// Maximum hypernode degree `Δ_v`.
    pub max_node_degree: usize,
    /// Maximum hyperedge size `Δ_e`.
    pub max_edge_degree: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_hypergraph;
    use proptest::prelude::*;

    #[test]
    fn from_edge_rows_makes_each_row_a_set() {
        // rows [3, 1, 3], [], [0, 2], [5, 5]
        let h = Hypergraph::from_edge_rows(vec![0, 3, 3, 5, 7], vec![3, 1, 3, 0, 2, 5, 5]);
        let want = Hypergraph::from_memberships(&[vec![1, 3], vec![], vec![0, 2], vec![5]]);
        assert_eq!(h, want);
        assert!(crate::validate::Validate::validate(&h).is_ok());
        assert_eq!(h.num_incidences(), 5);
        assert_eq!(h.num_hypernodes(), 6);
        let empty = Hypergraph::from_edge_rows(vec![0], vec![]);
        assert_eq!((empty.num_hyperedges(), empty.num_hypernodes()), (0, 0));
    }

    proptest! {
        #[test]
        fn prop_from_edge_rows_matches_deduped_memberships(
            ms in proptest::collection::vec(proptest::collection::vec(0u32..12, 0..6), 0..8),
        ) {
            let mut offsets = vec![0];
            let mut targets = Vec::new();
            for row in &ms {
                targets.extend(row);
                offsets.push(targets.len());
            }
            let sets: Vec<Vec<Id>> = ms
                .iter()
                .map(|row| {
                    let mut row = row.clone();
                    row.sort_unstable();
                    row.dedup();
                    row
                })
                .collect();
            prop_assert_eq!(
                Hypergraph::from_edge_rows(offsets, targets),
                Hypergraph::from_memberships(&sets)
            );
        }
    }

    #[test]
    fn memory_bytes_is_both_bi_adjacencies() {
        // formualizer-style bound from the sizes alone: offsets, targets
        // and weights of each side, allocated exactly
        let h = paper_hypergraph();
        let (ne, nv, nnz) = (h.num_hyperedges(), h.num_hypernodes(), h.num_incidences());
        assert_eq!(h.memory_bytes(), 8 * (ne + 1) + 8 * (nv + 1) + 2 * 4 * nnz);
        let weighted = Hypergraph::from_biedgelist(&BiEdgeList::from_weighted_incidences(
            2,
            2,
            vec![(0, 1), (1, 0), (1, 1)],
            vec![1.0, 2.0, 3.0],
        ));
        assert_eq!(weighted.memory_bytes(), 2 * (8 * 3 + 4 * 3 + 8 * 3));
        let (edges, nodes) = weighted.clone().into_raw_parts();
        assert_eq!(Hypergraph::from_raw_parts(edges, nodes), weighted);
    }

    #[test]
    fn mutual_indexing_holds_on_fixture() {
        let h = paper_hypergraph();
        assert_eq!(h.num_hyperedges(), 4);
        assert_eq!(h.num_hypernodes(), 9);
        // every (e, v) incidence appears in both directions
        for e in 0..ids::from_usize(h.num_hyperedges()) {
            for &v in h.edge_members(e) {
                assert!(
                    h.node_memberships(v).contains(&e),
                    "({e},{v}) missing in nodes"
                );
            }
        }
        for v in 0..ids::from_usize(h.num_hypernodes()) {
            for &e in h.node_memberships(v) {
                assert!(h.edge_members(e).contains(&v), "({e},{v}) missing in edges");
            }
        }
    }

    #[test]
    fn fixture_member_sets() {
        let h = paper_hypergraph();
        assert_eq!(h.edge_members(0), &[0, 1, 2, 3]);
        assert_eq!(h.edge_members(1), &[3, 4, 5, 6]);
        assert_eq!(h.edge_members(2), &[4, 5, 6, 7, 8]);
        assert_eq!(h.edge_members(3), &[0, 2, 3, 5, 8]);
        assert_eq!(h.edge_degree(2), 5);
        assert_eq!(h.node_degree(3), 3); // in e0, e1, e3
    }

    #[test]
    fn dual_swaps_roles() {
        let h = paper_hypergraph();
        let d = h.dual();
        assert_eq!(d.num_hyperedges(), h.num_hypernodes());
        assert_eq!(d.num_hypernodes(), h.num_hyperedges());
        assert_eq!(d.edge_members(3), h.node_memberships(3));
        assert_eq!(d.dual(), h);
    }

    #[test]
    fn stats_match_fixture() {
        let h = paper_hypergraph();
        let s = h.stats();
        assert_eq!(s.num_hyperedges, 4);
        assert_eq!(s.num_hypernodes, 9);
        assert_eq!(s.num_incidences, 18);
        assert_eq!(s.max_edge_degree, 5);
        assert_eq!(s.max_node_degree, 3);
        assert!((s.avg_edge_degree - 4.5).abs() < 1e-12);
        assert!((s.avg_node_degree - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_hypergraph() {
        let h = Hypergraph::from_memberships(&[]);
        assert_eq!(h.num_hyperedges(), 0);
        assert_eq!(h.num_hypernodes(), 0);
        let s = h.stats();
        assert_eq!(s.avg_edge_degree, 0.0);
        assert_eq!(s.avg_node_degree, 0.0);
    }

    #[test]
    fn hyperedges_with_empty_members() {
        // a hyperedge joining nothing is legal (degenerate set)
        let h = Hypergraph::from_memberships(&[vec![], vec![0]]);
        assert_eq!(h.num_hyperedges(), 2);
        assert_eq!(h.edge_degree(0), 0);
        assert_eq!(h.edge_degree(1), 1);
    }

    #[test]
    fn log2_histogram_bins_correctly() {
        // values: 0, 1, 2, 3, 4, 8 → bins 0,1,2,2,3,4
        let hist = log2_histogram([0usize, 1, 2, 3, 4, 8].into_iter());
        assert_eq!(hist, vec![1, 1, 2, 1, 1]);
        assert!(log2_histogram(std::iter::empty()).is_empty());
    }

    #[test]
    fn fixture_histograms() {
        let h = paper_hypergraph();
        // sizes 4,4,5,5 → all in bin 3 ([4,7])
        assert_eq!(h.edge_size_histogram(), vec![0, 0, 0, 4]);
        // node degrees: 2,1,2,3,2,3,2,1,2 → bin1: two 1s; bin2: five 2s+two 3s
        assert_eq!(h.node_degree_histogram(), vec![0, 2, 7]);
        let total: usize = h.node_degree_histogram().iter().sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn isolated_hypernodes_preserved() {
        // hypernode 4 appears in no hyperedge but is in the ID space
        let bel = BiEdgeList::from_incidences(1, 5, vec![(0, 0), (0, 1)]);
        let h = Hypergraph::from_biedgelist(&bel);
        assert_eq!(h.num_hypernodes(), 5);
        assert_eq!(h.node_degree(4), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_bidirectional_incidence(
            pairs in proptest::collection::vec((0u32..10, 0u32..15), 0..120)
        ) {
            let mut bel = BiEdgeList::from_incidences(10, 15, pairs);
            bel.sort_dedup();
            let h = Hypergraph::from_biedgelist(&bel);
            // edge CSR and node CSR are exact transposes
            let total_e: usize = (0..10u32).map(|e| h.edge_degree(e)).sum();
            let total_v: usize = (0..15u32).map(|v| h.node_degree(v)).sum();
            prop_assert_eq!(total_e, total_v);
            prop_assert_eq!(total_e, bel.num_incidences());
            for e in 0..10u32 {
                for &v in h.edge_members(e) {
                    prop_assert!(h.node_memberships(v).contains(&e));
                }
            }
        }

        #[test]
        fn prop_dual_involution(
            pairs in proptest::collection::vec((0u32..8, 0u32..8), 0..60)
        ) {
            let mut bel = BiEdgeList::from_incidences(8, 8, pairs);
            bel.sort_dedup();
            let h = Hypergraph::from_biedgelist(&bel);
            prop_assert_eq!(h.dual().dual(), h);
        }
    }
}
