//! s-metrics on s-line graphs — the approximate-analytics surface of NWHy
//! (§III-B.4 and the Python API of Listing 5).
//!
//! An [`SLineGraph`] is the queryable object `hg.s_linegraph(s)` returns
//! in the paper's Python session: a plain symmetric graph over hyperedge
//! IDs on which every s-* query is an ordinary graph computation delegated
//! to `nwgraph`. Metric names and semantics follow Aksoy et al.'s s-walk
//! framework as exposed by HyperNetX/NWHy.

use crate::repr::HyperAdjacency;
use crate::slinegraph::SLineBuilder;
use crate::Id;
use nwgraph::algorithms::betweenness::betweenness_centrality;
use nwgraph::algorithms::bfs::{bfs_direction_optimizing, path_from_parents};
use nwgraph::algorithms::cc::{afforest, normalize_labels};
use nwgraph::algorithms::closeness::{
    closeness_centrality, eccentricity, harmonic_closeness_centrality,
};
use nwgraph::Csr;
use nwgraph::INVALID_VERTEX;

/// An s-line graph of a hypergraph, with the s-metric query API.
///
/// # Examples
///
/// ```
/// use nwhy_core::{Hypergraph, SLineGraph};
///
/// let h = Hypergraph::from_memberships(&[
///     vec![0, 1, 2],
///     vec![1, 2, 3],
///     vec![2, 3, 4],
/// ]);
/// let lg = SLineGraph::new(&h, 2);
/// assert!(lg.is_s_connected());
/// assert_eq!(lg.s_neighbors(1), &[0, 2]);
/// assert_eq!(lg.s_distance(0, 2), Some(2));
/// assert_eq!(lg.s_path(0, 2), Some(vec![0, 1, 2]));
/// ```
#[derive(Debug, Clone)]
pub struct SLineGraph {
    s: usize,
    graph: Csr,
}

impl SLineGraph {
    /// Constructs the s-line graph of `h` (the builder's defaults: hashmap
    /// algorithm, auto strategy, no relabel) from any representation
    /// implementing [`HyperAdjacency`]. Equivalent to Listing 5's
    /// `hg.s_linegraph(s=s)`.
    pub fn new<A: HyperAdjacency + ?Sized>(h: &A, s: usize) -> Self {
        Self {
            s,
            graph: SLineBuilder::new(h).s(s).csr(),
        }
    }

    /// Wraps an already-built symmetric line-graph CSR.
    pub fn from_csr(s: usize, graph: Csr) -> Self {
        Self { s, graph }
    }

    /// The `s` this line graph was built for.
    #[inline]
    pub fn s(&self) -> usize {
        self.s
    }

    /// The underlying symmetric graph over hyperedge IDs.
    #[inline]
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// Number of vertices (= hyperedges of the source hypergraph).
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// s-degree of hyperedge `e`: how many hyperedges s-overlap it
    /// (Listing 5 `s_degree`); 0 if `e` is not a hyperedge.
    pub fn s_degree(&self, e: Id) -> usize {
        self.s_neighbors(e).len()
    }

    /// The hyperedges s-adjacent to `e` (Listing 5 `s_neighbors`); empty
    /// if `e` is not a hyperedge.
    pub fn s_neighbors(&self, e: Id) -> &[Id] {
        let offsets = self.graph.offsets();
        let row = e as usize;
        match (offsets.get(row), offsets.get(row + 1)) {
            (Some(&lo), Some(&hi)) => self.graph.targets().get(lo..hi).unwrap_or_default(),
            _ => &[],
        }
    }

    /// s-connected-component labels over hyperedges, canonicalized to the
    /// smallest member ID (Listing 5 `s_connected_components`).
    pub fn s_connected_components(&self) -> Vec<Id> {
        normalize_labels(&afforest(&self.graph))
    }

    /// `true` if every hyperedge is in one s-component (Listing 5
    /// `is_s_connected`). Vacuously true for ≤ 1 hyperedges.
    pub fn is_s_connected(&self) -> bool {
        let labels = self.s_connected_components();
        labels.windows(2).all(|w| w[0] == w[1])
    }

    /// s-distance (s-walk length) between hyperedges, `None` if not
    /// s-connected or if either ID is not a hyperedge (Listing 5
    /// `s_distance`).
    pub fn s_distance(&self, src: Id, dest: Id) -> Option<u32> {
        if !self.has_vertices(src, dest) {
            return None;
        }
        let levels = bfs_direction_optimizing(&self.graph, src).levels;
        let d = levels[dest as usize];
        (d != INVALID_VERTEX).then_some(d)
    }

    /// One shortest s-walk between hyperedges (Listing 5 `s_path`);
    /// `None` under the same conditions as [`Self::s_distance`].
    pub fn s_path(&self, src: Id, dest: Id) -> Option<Vec<Id>> {
        if !self.has_vertices(src, dest) {
            return None;
        }
        let parents = bfs_direction_optimizing(&self.graph, src).parents;
        path_from_parents(&parents, src, dest)
    }

    fn has_vertices(&self, src: Id, dest: Id) -> bool {
        let n = self.num_vertices();
        (src as usize) < n && (dest as usize) < n
    }

    /// `metric(graph)` for every hyperedge under `None`; under `Some(e)`,
    /// its value at `e` alone, or nothing if `e` is not a hyperedge.
    fn one_or_all<T: Copy>(&self, v: Option<Id>, metric: fn(&Csr) -> Vec<T>) -> Vec<T> {
        match v {
            None => metric(&self.graph),
            Some(e) if self.has_vertices(e, e) => metric(&self.graph)
                .get(e as usize)
                .copied()
                .into_iter()
                .collect(),
            Some(_) => Vec::new(),
        }
    }

    /// s-betweenness centrality of every hyperedge (Listing 5
    /// `s_betweenness_centrality`).
    pub fn s_betweenness_centrality(&self, normalized: bool) -> Vec<f64> {
        betweenness_centrality(&self.graph, normalized)
    }

    /// s-closeness centrality; pass `Some(e)` for one hyperedge or `None`
    /// for all (Listing 5 `s_closeness_centrality(v=None)`). `Some(e)` for
    /// an `e` that is not a hyperedge gives an empty `Vec`, here and in the
    /// two queries below.
    pub fn s_closeness_centrality(&self, v: Option<Id>) -> Vec<f64> {
        self.one_or_all(v, closeness_centrality)
    }

    /// s-harmonic-closeness centrality (Listing 5
    /// `s_harmonic_closeness_centrality`).
    pub fn s_harmonic_closeness_centrality(&self, v: Option<Id>) -> Vec<f64> {
        self.one_or_all(v, harmonic_closeness_centrality)
    }

    /// s-eccentricity (Listing 5 `s_eccentricity`): greatest finite
    /// s-distance from each hyperedge within its s-component.
    pub fn s_eccentricity(&self, v: Option<Id>) -> Vec<u32> {
        self.one_or_all(v, eccentricity)
    }

    /// The s-diameter: max finite s-eccentricity.
    pub fn s_diameter(&self) -> u32 {
        self.s_eccentricity(None).into_iter().max().unwrap_or(0)
    }
}

/// An s-line graph whose edges carry the exact overlap size `|e ∩ f|`
/// (Fig. 5 draws these as line widths). Its CSR weighs an overlap-`o`
/// edge as `1/o`, so strong connections are short.
#[derive(Debug, Clone)]
pub struct WeightedSLineGraph {
    s: usize,
    /// Symmetric CSR with weights `1/overlap`.
    graph: Csr,
    /// Canonical `(e, f, overlap)` triples, `e < f`.
    triples: Vec<(Id, Id, u32)>,
}

impl WeightedSLineGraph {
    /// Builds the weighted s-line graph of `h` from any representation
    /// implementing [`HyperAdjacency`].
    pub fn new<A: HyperAdjacency + ?Sized>(h: &A, s: usize) -> Self {
        let builder = SLineBuilder::new(h).s(s);
        Self {
            s,
            graph: builder.weighted_csr(),
            triples: builder.weighted_edges(),
        }
    }

    /// The `s` this line graph was built for.
    pub fn s(&self) -> usize {
        self.s
    }

    /// The weighted symmetric CSR (weights `1/overlap`).
    pub fn graph(&self) -> &Csr {
        &self.graph
    }

    /// The canonical `(e, f, overlap)` triples.
    pub fn triples(&self) -> &[(Id, Id, u32)] {
        &self.triples
    }

    /// Exact overlap of two hyperedges, if they s-overlap.
    pub fn s_overlap(&self, e: Id, f: Id) -> Option<u32> {
        let key = if e < f { (e, f) } else { (f, e) };
        self.triples
            .binary_search_by_key(&key, |&(a, b, _)| (a, b))
            .ok()
            .map(|i| self.triples[i].2)
    }

    /// Strength-weighted s-degree of `e`: `Σ overlap(e, f)` over its
    /// s-neighbors.
    pub fn s_strength(&self, e: Id) -> u64 {
        self.triples
            .iter()
            .filter(|&&(a, b, _)| a == e || b == e)
            .map(|&(_, _, o)| o as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_hypergraph;
    use crate::hypergraph::Hypergraph;
    use crate::slinegraph::Algorithm;

    // Fixture line graphs (see fixtures.rs):
    //   s=1: {01, 03, 12, 13, 23}   s=2: {03, 12, 13, 23}   s=3: {03, 12}
    // overlaps: 01→1, 03→3, 12→3, 13→2, 23→2

    #[test]
    fn weighted_linegraph_overlaps() {
        let h = paper_hypergraph();
        let w = WeightedSLineGraph::new(&h, 1);
        assert_eq!(w.s(), 1);
        assert_eq!(w.s_overlap(0, 3), Some(3));
        assert_eq!(w.s_overlap(3, 0), Some(3)); // order-insensitive
        assert_eq!(w.s_overlap(0, 1), Some(1));
        assert_eq!(w.s_overlap(0, 2), None);
        assert_eq!(w.triples().len(), 5);
    }

    #[test]
    fn strength_sums_overlaps() {
        let h = paper_hypergraph();
        let w = WeightedSLineGraph::new(&h, 1);
        // edge 3 overlaps: 03→3, 13→2, 23→2
        assert_eq!(w.s_strength(3), 7);
        assert_eq!(w.s_strength(0), 4); // 01→1, 03→3
    }

    #[test]
    fn s_degree_and_neighbors() {
        let h = paper_hypergraph();
        let lg = SLineGraph::new(&h, 2);
        assert_eq!(lg.s(), 2);
        assert_eq!(lg.s_degree(3), 3); // 03, 13, 23
        assert_eq!(lg.s_neighbors(3), &[0, 1, 2]);
        assert_eq!(lg.s_degree(0), 1);
        assert_eq!(lg.s_neighbors(0), &[3]);
    }

    #[test]
    fn connectivity_by_s() {
        let h = paper_hypergraph();
        assert!(SLineGraph::new(&h, 1).is_s_connected());
        assert!(SLineGraph::new(&h, 2).is_s_connected());
        // s=3: components {0,3} and {1,2}
        let lg3 = SLineGraph::new(&h, 3);
        assert!(!lg3.is_s_connected());
        assert_eq!(lg3.s_connected_components(), vec![0, 1, 1, 0]);
        // s=4: all isolated
        let lg4 = SLineGraph::new(&h, 4);
        assert_eq!(lg4.s_connected_components(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn s_distance_and_path() {
        let h = paper_hypergraph();
        let lg2 = SLineGraph::new(&h, 2);
        // s=2 edges: 03, 12, 13, 23 → dist(0,2) = 2 via 3
        assert_eq!(lg2.s_distance(0, 2), Some(2));
        assert_eq!(lg2.s_path(0, 2), Some(vec![0, 3, 2]));
        assert_eq!(lg2.s_distance(0, 0), Some(0));
        let lg3 = SLineGraph::new(&h, 3);
        assert_eq!(lg3.s_distance(0, 1), None);
        assert_eq!(lg3.s_path(0, 1), None);
    }

    #[test]
    fn out_of_range_ids_have_no_distance_or_path() {
        let h = paper_hypergraph();
        let lg = SLineGraph::new(&h, 1);
        let n: Id = crate::ids::from_usize(lg.num_vertices());
        for (src, dest) in [(0, n), (n, 0), (n, n), (0, Id::MAX), (Id::MAX, 0)] {
            assert_eq!(lg.s_distance(src, dest), None, "({src}, {dest})");
            assert_eq!(lg.s_path(src, dest), None, "({src}, {dest})");
        }
        let empty = SLineGraph::new(&Hypergraph::from_memberships(&[]), 1);
        assert_eq!(empty.s_distance(0, 0), None);
        assert_eq!(empty.s_path(0, 0), None);
    }

    #[test]
    fn out_of_range_ids_have_no_metrics_or_neighbors() {
        let h = paper_hypergraph();
        let empty = SLineGraph::new(&Hypergraph::from_memberships(&[]), 1);
        for lg in [SLineGraph::new(&h, 1), empty] {
            let n: Id = crate::ids::from_usize(lg.num_vertices());
            for e in [n, n + 1, Id::MAX] {
                assert!(lg.s_closeness_centrality(Some(e)).is_empty(), "{e}");
                assert!(lg.s_harmonic_closeness_centrality(Some(e)).is_empty());
                assert!(lg.s_eccentricity(Some(e)).is_empty());
                assert_eq!(lg.s_degree(e), 0);
                assert!(lg.s_neighbors(e).is_empty());
            }
        }
    }

    #[test]
    fn betweenness_identifies_cut_vertex() {
        let h = paper_hypergraph();
        let lg2 = SLineGraph::new(&h, 2);
        // in {03,12,13,23}: vertex 3 is the hub connecting 0 to {1,2}
        let bc = lg2.s_betweenness_centrality(false);
        let max = bc.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(bc[3], max);
        assert!(bc[3] > 0.0);
        assert_eq!(bc[0], 0.0);
    }

    #[test]
    fn closeness_queries() {
        let h = paper_hypergraph();
        let lg1 = SLineGraph::new(&h, 1);
        let all = lg1.s_closeness_centrality(None);
        assert_eq!(all.len(), 4);
        let single = lg1.s_closeness_centrality(Some(3));
        assert_eq!(single, vec![all[3]]);
        let harm = lg1.s_harmonic_closeness_centrality(None);
        assert!(harm.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn eccentricity_and_diameter() {
        let h = paper_hypergraph();
        let lg2 = SLineGraph::new(&h, 2);
        // {03,12,13,23}: ecc(0)=2 (to 1 or 2), ecc(3)=1
        let ecc = lg2.s_eccentricity(None);
        assert_eq!(ecc[3], 1);
        assert_eq!(ecc[0], 2);
        assert_eq!(lg2.s_diameter(), 2);
        assert_eq!(lg2.s_eccentricity(Some(3)), vec![1]);
    }

    #[test]
    fn singleton_hypergraph_is_connected() {
        let h = Hypergraph::from_memberships(&[vec![0, 1]]);
        let lg = SLineGraph::new(&h, 1);
        assert!(lg.is_s_connected());
        assert_eq!(lg.s_diameter(), 0);
    }

    #[test]
    fn all_construction_algorithms_give_same_queries() {
        let h = paper_hypergraph();
        let reference = SLineGraph::new(&h, 2).s_connected_components();
        for algo in Algorithm::ALL {
            let lg = SLineGraph::from_csr(2, SLineBuilder::new(&h).s(2).algorithm(algo).csr());
            assert_eq!(lg.s_connected_components(), reference, "{}", algo.name());
        }
    }
}
