//! Compressed Sparse Row adjacency — the central graph data structure.
//!
//! A [`Csr`] stores, for each source vertex, a contiguous slice of target
//! IDs. It is deliberately *rectangular*: the source and target ID spaces
//! may have different sizes, which is what a hypergraph bi-adjacency needs
//! (incidence matrices are `n × m`, §III-B.1a of the NWHy paper). For an
//! ordinary square graph the two sizes coincide.
//!
//! The structure models the paper's "range of ranges": the outer range is
//! random-access (`index`/[`Csr::neighbors`], [`Csr::iter`]), the inner
//! ranges are the neighbor slices.
//!
//! Construction is a stable counting sort: a histogram of degrees, a
//! prefix sum, and a scatter in input order. The scatter runs in parallel,
//! partitioned by destination row range: each pool thread owns a range of
//! rows with about equal nnz, streams the whole input in order and writes
//! only its own rows, so the output does not depend on the thread count.
//! Rows that come out unsorted are then sorted (sorted adjacency is what
//! the set-intersection s-line algorithms rely on); weighted rows sort
//! stably, so duplicate targets keep their input weight order.
//! [`Csr::transpose`] is the same counting sort with `self`'s rows read in
//! order as the input, which leaves every transposed row sorted.

use crate::edge_list::EdgeList;
use crate::Vertex;
use nwhy_util::prefix::exclusive_prefix_sum_in_place;
use rayon::prelude::*;

/// Rectangular CSR adjacency; see the module docs.
///
/// # Examples
///
/// ```
/// use nwgraph::{Csr, EdgeList};
///
/// let mut el = EdgeList::from_edges(4, vec![(0, 1), (0, 2), (2, 3)]);
/// el.symmetrize();
/// let g = Csr::from_edge_list(&el);
/// assert_eq!(g.num_vertices(), 4);
/// assert_eq!(g.neighbors(0), &[1, 2]); // sorted
/// assert_eq!(g.degree(2), 2);
/// assert!(g.is_symmetric());
///
/// // the "range of ranges" view
/// for (u, nbrs) in g.iter() {
///     assert_eq!(nbrs.len(), g.degree(u));
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    num_targets: usize,
    offsets: Vec<usize>,
    targets: Vec<Vertex>,
    weights: Option<Vec<f64>>,
}

impl Csr {
    /// Builds a CSR from an edge list, treating edges as directed
    /// `source → target` with a square ID space. Neighbor lists are sorted.
    pub fn from_edge_list(el: &EdgeList) -> Self {
        Self::build(
            el.num_vertices(),
            el.num_vertices(),
            el.edges(),
            el.weights(),
        )
    }

    /// Builds a rectangular CSR: sources in `0..num_sources`, targets in
    /// `0..num_targets`. Used for bi-adjacency construction.
    ///
    /// # Panics
    /// Panics if any edge endpoint is out of its respective range.
    pub fn from_pairs(
        num_sources: usize,
        num_targets: usize,
        pairs: &[(Vertex, Vertex)],
        weights: Option<&[f64]>,
    ) -> Self {
        Self::build(num_sources, num_targets, pairs, weights)
    }

    fn build(
        num_sources: usize,
        num_targets: usize,
        pairs: &[(Vertex, Vertex)],
        weights: Option<&[f64]>,
    ) -> Self {
        if let Some(ws) = weights {
            assert_eq!(ws.len(), pairs.len(), "weights length mismatch");
        }
        let mut g = Self::counting_sort(num_sources, num_targets, pairs.iter().copied(), weights);
        g.sort_unsorted_rows();
        g
    }

    /// Assembles a CSR from rows that a stable counting sort filled in
    /// stream order, as [`Csr::from_pairs`] does, and sorts them the same
    /// way: rows that are not sorted are sorted, stably with their
    /// weights. Duplicate targets are kept.
    ///
    /// # Panics
    /// Panics if `offsets` is empty, decreases, or runs past `targets`.
    pub fn from_scattered_rows(
        num_targets: usize,
        offsets: Vec<usize>,
        targets: Vec<Vertex>,
        weights: Option<Vec<f64>>,
    ) -> Self {
        let mut g = Self::from_raw_parts(num_targets, offsets, targets, weights);
        g.sort_unsorted_rows();
        g
    }

    fn sort_unsorted_rows(&mut self) {
        // Rows keep input order, and loaders emit edge-major incidences,
        // so most rows are already sorted; only the rest pay for a sort.
        for u in 0..self.num_vertices() {
            let (lo, hi) = (self.offsets[u], self.offsets[u + 1]);
            let row = &mut self.targets[lo..hi];
            if row.is_sorted() {
                continue;
            }
            match &mut self.weights {
                None => row.sort_unstable(),
                Some(ws) => {
                    // Stable, so duplicate targets keep their input weight order.
                    let mut zipped: Vec<(Vertex, f64)> = row
                        .iter()
                        .copied()
                        .zip(ws[lo..hi].iter().copied())
                        .collect();
                    zipped.sort_by_key(|&(t, _)| t);
                    for ((t, w), (dt, dw)) in
                        zipped.into_iter().zip(row.iter_mut().zip(&mut ws[lo..hi]))
                    {
                        (*dt, *dw) = (t, w);
                    }
                }
            }
        }
    }

    /// Stable counting sort of `(source, target)` incidences into CSR
    /// rows: degree histogram, prefix sum, then a scatter in stream order,
    /// so each row holds its targets in the order `incidences` yields
    /// them. The `i`-th incidence carries weight `weights[i]`.
    ///
    /// The scatter is partitioned by destination: the rows are split into
    /// one range of about equal nnz per pool thread, and each range task
    /// streams the whole input in order but writes only its own rows,
    /// into its own disjoint slices of the output. Every row therefore
    /// sees its incidences in stream order whatever the thread count, and
    /// one thread runs one range.
    ///
    /// # Panics
    /// Panics if any endpoint is out of its range.
    fn counting_sort<I>(
        num_sources: usize,
        num_targets: usize,
        incidences: I,
        weights: Option<&[f64]>,
    ) -> Self
    where
        I: Iterator<Item = (Vertex, Vertex)> + Clone + Sync,
    {
        // `offsets[u + 1]` counts row `u`, then (after the scan) serves as
        // its write cursor, ending at the row's end = the next row's start.
        let mut offsets = vec![0usize; num_sources + 1];
        for (u, v) in incidences.clone() {
            assert!(
                (u as usize) < num_sources,
                "source {u} out of range {num_sources}"
            );
            assert!(
                (v as usize) < num_targets,
                "target {v} out of range {num_targets}"
            );
            offsets[u as usize + 1] += 1;
        }
        let nnz = exclusive_prefix_sum_in_place(&mut offsets[1..]);
        let mut targets = vec![0; nnz];
        let mut out_weights = weights.map(|_| vec![0.0; nnz]);

        // Row ranges of about equal nnz, as `(first row, its start)`: range
        // `k` starts at the first row whose start reaches `k · nnz / parts`.
        let parts = rayon::current_num_threads().max(1);
        let mut bounds: Vec<(usize, usize)> = (0..parts)
            .map(|k| {
                let u = offsets[1..].partition_point(|&s| s < k * nnz / parts);
                (u, offsets.get(u + 1).copied().unwrap_or(nnz))
            })
            .collect();
        bounds.push((num_sources, nnz));

        // Hand each range its cursors and its slices of the output.
        let mut tasks = Vec::with_capacity(parts);
        let (mut cursors, mut rest_t) = (&mut offsets[1..], &mut targets[..]);
        let mut rest_w = out_weights.as_deref_mut();
        for w in bounds.windows(2) {
            let ((lo, base), (hi, end)) = (w[0], w[1]);
            let (c, tail_c) = cursors.split_at_mut(hi - lo);
            let (t, tail_t) = rest_t.split_at_mut(end - base);
            let (ws, tail_w) = rest_w.map(|rw| rw.split_at_mut(end - base)).unzip();
            (cursors, rest_t, rest_w) = (tail_c, tail_t, tail_w);
            if end > base {
                tasks.push((lo, base, c, t, ws));
            }
        }
        tasks
            .into_par_iter()
            .for_each(|(lo, base, cursors, targets, mut out)| {
                for (i, (u, v)) in incidences.clone().enumerate() {
                    let Some(cursor) = (u as usize)
                        .checked_sub(lo)
                        .and_then(|r| cursors.get_mut(r))
                    else {
                        continue;
                    };
                    targets[*cursor - base] = v;
                    if let (Some(out), Some(ws)) = (&mut out, weights) {
                        out[*cursor - base] = ws[i];
                    }
                    *cursor += 1;
                }
            });
        Self {
            num_targets,
            offsets,
            targets,
            weights: out_weights,
        }
    }

    /// Assembles a CSR directly from its raw arrays, without checking the
    /// CSR invariants (monotone offsets, in-bounds targets, sorted
    /// neighbor slices, matching weight length).
    ///
    /// This exists for deserialization fast paths and for the validation
    /// tests in `nwhy-core`, which deliberately construct *corrupted*
    /// structures to assert that `Validate` reports the right
    /// [`InvariantViolation`](https://docs.rs/nwhy-core). Prefer
    /// [`Csr::from_edge_list`] / [`Csr::from_pairs`], which establish the
    /// invariants by construction; callers of this function should run
    /// validation themselves before handing the CSR to any kernel.
    ///
    /// # Panics
    /// Panics only on the structurally unrepresentable: an empty
    /// `offsets` (even an empty CSR has `offsets == [0]`).
    pub fn from_raw_parts(
        num_targets: usize,
        offsets: Vec<usize>,
        targets: Vec<Vertex>,
        weights: Option<Vec<f64>>,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        Self {
            num_targets,
            offsets,
            targets,
            weights,
        }
    }

    /// Takes the CSR apart into `(num_targets, offsets, targets,
    /// weights)`, the inverse of [`Csr::from_raw_parts`].
    pub fn into_raw_parts(self) -> (usize, Vec<usize>, Vec<Vertex>, Option<Vec<f64>>) {
        (self.num_targets, self.offsets, self.targets, self.weights)
    }

    /// Heap bytes held by the arrays, counted by capacity.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<usize>()
            + self.targets.capacity() * size_of::<Vertex>()
            + self
                .weights
                .as_ref()
                .map_or(0, |w| w.capacity() * size_of::<f64>())
    }

    /// The raw offset array (`num_vertices() + 1` entries, first 0, last
    /// `num_edges()` when well-formed).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw concatenated target array.
    #[inline]
    pub fn targets(&self) -> &[Vertex] {
        &self.targets
    }

    /// The raw weight array, if this CSR is weighted.
    #[inline]
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Number of source vertices (rows).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Size of the target ID space (columns).
    #[inline]
    pub fn num_targets(&self) -> usize {
        self.num_targets
    }

    /// Total number of stored (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The sorted neighbor slice of `u`.
    #[inline]
    pub fn neighbors(&self, u: Vertex) -> &[Vertex] {
        let u = u as usize;
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Neighbors of `u` with weights (all `1.0` if unweighted).
    pub fn weighted_neighbors(&self, u: Vertex) -> impl Iterator<Item = (Vertex, f64)> + '_ {
        let u = u as usize;
        let lo = self.offsets[u];
        let hi = self.offsets[u + 1];
        let ws = self.weights.as_deref();
        self.targets[lo..hi]
            .iter()
            .enumerate()
            .map(move |(k, &t)| (t, ws.map_or(1.0, |w| w[lo + k])))
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn degree(&self, u: Vertex) -> usize {
        let u = u as usize;
        self.offsets[u + 1] - self.offsets[u]
    }

    /// All out-degrees, as a vector.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_vertices())
            .into_par_iter()
            .map(|u| self.degree(u as Vertex))
            .collect()
    }

    /// Largest out-degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .into_par_iter()
            .map(|u| self.degree(u as Vertex))
            .max()
            .unwrap_or(0)
    }

    /// `true` if this CSR stores edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Iterates `(source, neighbor_slice)` for every source vertex — the
    /// "range of ranges" view from Listing 3 of the paper.
    pub fn iter(&self) -> impl Iterator<Item = (Vertex, &[Vertex])> + '_ {
        (0..self.num_vertices()).map(move |u| (u as Vertex, self.neighbors(u as Vertex)))
    }

    /// Parallel iterator over `(source, neighbor_slice)`.
    pub fn par_iter(&self) -> impl IndexedParallelIterator<Item = (Vertex, &[Vertex])> + '_ {
        (0..self.num_vertices())
            .into_par_iter()
            .map(move |u| (u as Vertex, self.neighbors(u as Vertex)))
    }

    /// The transpose: targets become sources. For a bi-adjacency this maps
    /// the hyperedge→hypernode CSR to the hypernode→hyperedge CSR.
    pub fn transpose(&self) -> Csr {
        // Scanning rows in order makes each transposed row come out sorted.
        let flipped = (0..self.num_vertices()).flat_map(|u| {
            self.neighbors(u as Vertex)
                .iter()
                .map(move |&v| (v, u as Vertex))
        });
        Self::counting_sort(
            self.num_targets,
            self.num_vertices(),
            flipped,
            self.weights(),
        )
    }

    /// `true` when every edge `(u, v)` has a matching `(v, u)`. Only
    /// meaningful for square CSRs; used as a sanity check on undirected
    /// constructions like clique expansions and adjoin graphs.
    pub fn is_symmetric(&self) -> bool {
        if self.num_vertices() != self.num_targets {
            return false;
        }
        self.par_iter().all(|(u, nbrs)| {
            nbrs.iter()
                .all(|&v| self.neighbors(v).binary_search(&u).is_ok())
        })
    }

    /// Converts back to an edge list (used by relabeling).
    pub fn to_edge_list(&self) -> EdgeList {
        assert_eq!(
            self.num_vertices(),
            self.num_targets,
            "to_edge_list requires a square CSR"
        );
        let pairs: Vec<(Vertex, Vertex)> = self
            .iter()
            .flat_map(|(u, nbrs)| nbrs.iter().map(move |&v| (u, v)))
            .collect();
        match &self.weights {
            None => EdgeList::from_edges(self.num_vertices(), pairs),
            Some(_) => {
                let ws: Vec<f64> = (0..self.num_vertices())
                    .flat_map(|u| self.weighted_neighbors(u as Vertex).map(|(_, w)| w))
                    .collect();
                EdgeList::from_weighted_edges(self.num_vertices(), pairs, ws)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwhy_util::pool::with_threads;
    use proptest::prelude::*;

    fn toy() -> Csr {
        // 0 → {1, 2}, 1 → {2}, 2 → {}, 3 → {0}
        let el = EdgeList::from_edges(4, vec![(0, 2), (0, 1), (1, 2), (3, 0)]);
        Csr::from_edge_list(&el)
    }

    #[test]
    fn basic_shape() {
        let g = toy();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_targets(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]); // sorted
        assert_eq!(g.neighbors(1), &[2]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.neighbors(3), &[0]);
    }

    #[test]
    fn degrees_and_max() {
        let g = toy();
        assert_eq!(g.degrees(), vec![2, 1, 0, 1]);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.is_symmetric());
    }

    #[test]
    fn vertices_without_edges() {
        let g = Csr::from_edge_list(&EdgeList::new(5));
        assert_eq!(g.num_vertices(), 5);
        assert!(g.iter().all(|(_, nbrs)| nbrs.is_empty()));
    }

    #[test]
    fn rectangular_build() {
        // 2 hyperedges over 5 hypernodes.
        let g = Csr::from_pairs(2, 5, &[(0, 4), (0, 1), (1, 2)], None);
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_targets(), 5);
        assert_eq!(g.neighbors(0), &[1, 4]);
        assert_eq!(g.neighbors(1), &[2]);
        assert!(!g.is_symmetric()); // rectangular is never symmetric
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_target() {
        Csr::from_pairs(2, 3, &[(0, 3)], None);
    }

    #[test]
    fn transpose_roundtrip() {
        let g = toy();
        let t = g.transpose();
        assert_eq!(t.num_vertices(), 4);
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.neighbors(0), &[3]);
        let back = t.transpose();
        assert_eq!(back, g);
    }

    #[test]
    fn rectangular_transpose_swaps_dims() {
        let g = Csr::from_pairs(2, 5, &[(0, 4), (1, 4)], None);
        let t = g.transpose();
        assert_eq!(t.num_vertices(), 5);
        assert_eq!(t.num_targets(), 2);
        assert_eq!(t.neighbors(4), &[0, 1]);
    }

    #[test]
    fn weighted_neighbors_follow_sort() {
        let el = EdgeList::from_weighted_edges(3, vec![(0, 2), (0, 1)], vec![9.0, 4.0]);
        let g = Csr::from_edge_list(&el);
        let wn: Vec<(u32, f64)> = g.weighted_neighbors(0).collect();
        assert_eq!(wn, vec![(1, 4.0), (2, 9.0)]);
        assert!(g.is_weighted());
    }

    #[test]
    fn unweighted_weighted_neighbors_default_one() {
        let g = toy();
        let wn: Vec<(u32, f64)> = g.weighted_neighbors(0).collect();
        assert_eq!(wn, vec![(1, 1.0), (2, 1.0)]);
    }

    #[test]
    fn symmetric_detection() {
        let mut el = EdgeList::from_edges(3, vec![(0, 1), (1, 2)]);
        el.symmetrize();
        let g = Csr::from_edge_list(&el);
        assert!(g.is_symmetric());
        let d = Csr::from_edge_list(&EdgeList::from_edges(3, vec![(0, 1)]));
        assert!(!d.is_symmetric());
    }

    #[test]
    fn to_edge_list_roundtrip() {
        let g = toy();
        let el = g.to_edge_list();
        let g2 = Csr::from_edge_list(&el);
        assert_eq!(g, g2);
    }

    #[test]
    fn weighted_transpose_keeps_weights() {
        let el = EdgeList::from_weighted_edges(3, vec![(0, 2), (1, 2)], vec![5.0, 6.0]);
        let g = Csr::from_edge_list(&el);
        let t = g.transpose();
        let wn: Vec<(u32, f64)> = t.weighted_neighbors(2).collect();
        assert_eq!(wn, vec![(0, 5.0), (1, 6.0)]);
    }

    #[test]
    fn memory_bytes_counts_every_array_by_capacity() {
        // formualizer-style: bytes follow from the vertex and edge counts
        let (n, m) = (4, 4);
        assert_eq!(toy().memory_bytes(), 8 * (n + 1) + 4 * m);
        let g = Csr::from_pairs(3, 2, &[(2, 1), (0, 0)], Some(&[1.0, 2.0]));
        assert_eq!(g.memory_bytes(), 8 * 4 + 4 * 2 + 8 * 2);
        assert_eq!(g.transpose().memory_bytes(), 8 * 3 + 4 * 2 + 8 * 2);
        let mut targets = Vec::with_capacity(100);
        targets.push(0);
        let spare = Csr::from_raw_parts(1, vec![0, 1], targets, None);
        assert_eq!(spare.memory_bytes(), 8 * 2 + 4 * 100);
        let (nt, offsets, targets, weights) = g.clone().into_raw_parts();
        assert_eq!(Csr::from_raw_parts(nt, offsets, targets, weights), g);
    }

    #[test]
    fn from_scattered_rows_sorts_like_from_pairs() {
        // rows in stream order: row 0 = [2, 0, 2], row 1 = [1]
        let ws = [1.0, 2.0, 3.0, 4.0];
        let g = Csr::from_scattered_rows(3, vec![0, 3, 4], vec![2, 0, 2, 1], Some(ws.to_vec()));
        let want = Csr::from_pairs(2, 3, &[(0, 2), (0, 0), (0, 2), (1, 1)], Some(&ws));
        assert_eq!(g, want);
        let row: Vec<(u32, f64)> = g.weighted_neighbors(0).collect();
        assert_eq!(row, [(0, 2.0), (2, 1.0), (2, 3.0)]);
    }

    #[test]
    fn duplicate_edges_are_retained() {
        let el = EdgeList::from_edges(2, vec![(0, 1), (0, 1)]);
        let g = Csr::from_edge_list(&el);
        assert_eq!(g.neighbors(0), &[1, 1]);
    }

    /// The reference CSR: a stable lexicographic sort of the pairs, so
    /// duplicate pairs keep their input weight order.
    fn reference(ns: usize, nt: usize, pairs: &[(Vertex, Vertex)], ws: Option<&[f64]>) -> Csr {
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_by_key(|&i| pairs[i]);
        let mut offsets = vec![0; ns + 1];
        for &(u, _) in pairs {
            offsets[u as usize + 1] += 1;
        }
        for u in 0..ns {
            offsets[u + 1] += offsets[u];
        }
        let targets = order.iter().map(|&i| pairs[i].1).collect();
        let weights = ws.map(|ws| order.iter().map(|&i| ws[i]).collect());
        Csr::from_raw_parts(nt, offsets, targets, weights)
    }

    #[test]
    fn duplicate_weighted_incidences_keep_input_order() {
        // 60 incidences on one row over 3 targets, in descending target
        // order: every target repeats 20 times with distinct weights.
        let pairs: Vec<(Vertex, Vertex)> = (0..60).map(|i| (0, 2 - i % 3)).collect();
        let ws: Vec<f64> = (0..60).map(f64::from).collect();
        let g = Csr::from_pairs(1, 3, &pairs, Some(&ws));
        assert_eq!(g, reference(1, 3, &pairs, Some(&ws)));
        let row: Vec<(u32, f64)> = g.weighted_neighbors(0).collect();
        assert_eq!(row[..3], [(0, 2.0), (0, 5.0), (0, 8.0)]);
        assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn counting_sort_handles_empty_shapes_at_every_thread_count() {
        for threads in [1, 2, 3] {
            with_threads(threads, || {
                // rows but no targets: every row empty, transpose has no rows
                let g = Csr::from_pairs(4, 0, &[], None);
                assert_eq!(g, reference(4, 0, &[], None));
                assert_eq!(g.transpose(), reference(0, 4, &[], None));
                // empty rows between full ones, weighted
                let pairs = [(3, 1), (0, 2), (3, 1), (0, 0)];
                let ws = [1.0, 2.0, 3.0, 4.0];
                let g = Csr::from_pairs(5, 3, &pairs, Some(&ws));
                assert_eq!(g, reference(5, 3, &pairs, Some(&ws)));
                let swapped = pairs.map(|(u, v)| (v, u));
                assert_eq!(g.transpose(), reference(3, 5, &swapped, Some(&ws)));
                // no rows at all
                assert_eq!(
                    Csr::from_pairs(0, 3, &[], None).transpose(),
                    reference(3, 0, &[], None)
                );
            });
        }
    }

    proptest! {
        #[test]
        fn prop_counting_sort_matches_reference(
            case in (1usize..8, 1usize..12, 0u32..2).prop_flat_map(|(ns, nt, weighted)| {
                let pairs = proptest::collection::vec((0..ns as u32, 0..nt as u32, 0u32..1000), 0..60);
                pairs.prop_map(move |p| (ns, nt, weighted == 1, p))
            })
        ) {
            let (ns, nt, weighted, triples) = case;
            let pairs: Vec<(Vertex, Vertex)> = triples.iter().map(|&(u, v, _)| (u, v)).collect();
            let ws: Vec<f64> = triples.iter().map(|&(_, _, w)| f64::from(w)).collect();
            let ws = weighted.then_some(&ws[..]);
            let swapped: Vec<(Vertex, Vertex)> = pairs.iter().map(|&(u, v)| (v, u)).collect();
            // rows repeat targets (60 pairs over < 8 × 12 cells), and 3
            // threads exceed the destination rows whenever ns or nt < 3
            for threads in [1, 2, 3] {
                let (g, t) = with_threads(threads, || {
                    let g = Csr::from_pairs(ns, nt, &pairs, ws);
                    let t = g.transpose();
                    (g, t)
                });
                prop_assert_eq!(&g, &reference(ns, nt, &pairs, ws), "{} threads", threads);
                prop_assert_eq!(t, reference(nt, ns, &swapped, ws), "{} threads", threads);
            }
        }

        #[test]
        fn prop_transpose_involution(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 0..200)
        ) {
            let el = EdgeList::from_edges(20, edges);
            let g = Csr::from_edge_list(&el);
            prop_assert_eq!(g.transpose().transpose(), g);
        }

        #[test]
        fn prop_edge_count_preserved(
            edges in proptest::collection::vec((0u32..15, 0u32..15), 0..100)
        ) {
            let n = edges.len();
            let el = EdgeList::from_edges(15, edges);
            let g = Csr::from_edge_list(&el);
            prop_assert_eq!(g.num_edges(), n);
            prop_assert_eq!(g.transpose().num_edges(), n);
            prop_assert_eq!(g.degrees().iter().sum::<usize>(), n);
        }

        #[test]
        fn prop_neighbors_sorted(
            edges in proptest::collection::vec((0u32..10, 0u32..10), 0..80)
        ) {
            let el = EdgeList::from_edges(10, edges);
            let g = Csr::from_edge_list(&el);
            for (_, nbrs) in g.iter() {
                prop_assert!(nbrs.windows(2).all(|w| w[0] <= w[1]));
            }
        }
    }
}
