//! Coordinate-format edge lists, the construction staging area for [`Csr`](crate::csr::Csr).
//!
//! Mirrors NWGraph's `edge_list`: algorithms that *produce* graphs (s-line
//! construction, clique expansion, generators, file readers) append
//! `(source, target)` pairs here, then index them once into CSR form.

use crate::Vertex;

/// A growable list of directed edges over vertices `0..num_vertices`,
/// with optional per-edge `f64` weights.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeList {
    num_vertices: usize,
    edges: Vec<(Vertex, Vertex)>,
    weights: Option<Vec<f64>>,
}

impl EdgeList {
    /// Creates an empty edge list over `num_vertices` vertices.
    pub fn new(num_vertices: usize) -> Self {
        Self {
            num_vertices,
            edges: Vec::new(),
            weights: None,
        }
    }

    /// Creates an edge list from parts. Vertex IDs must be `< num_vertices`.
    ///
    /// # Panics
    /// Panics if any endpoint is out of range.
    pub fn from_edges(num_vertices: usize, edges: Vec<(Vertex, Vertex)>) -> Self {
        for &(u, v) in &edges {
            assert!(
                (u as usize) < num_vertices && (v as usize) < num_vertices,
                "edge ({u}, {v}) out of range for {num_vertices} vertices"
            );
        }
        Self {
            num_vertices,
            edges,
            weights: None,
        }
    }

    /// Like [`EdgeList::from_edges`] with per-edge weights.
    ///
    /// # Panics
    /// Panics if lengths differ or endpoints are out of range.
    pub fn from_weighted_edges(
        num_vertices: usize,
        edges: Vec<(Vertex, Vertex)>,
        weights: Vec<f64>,
    ) -> Self {
        assert_eq!(edges.len(), weights.len(), "edges/weights length mismatch");
        let mut el = Self::from_edges(num_vertices, edges);
        el.weights = Some(weights);
        el
    }

    /// Number of vertices in the ID space.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of (directed) edges currently stored.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` if no edges are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The raw edge slice.
    #[inline]
    pub fn edges(&self) -> &[(Vertex, Vertex)] {
        &self.edges
    }

    /// Optional weight slice, parallel to [`EdgeList::edges`].
    #[inline]
    pub fn weights(&self) -> Option<&[f64]> {
        self.weights.as_deref()
    }

    /// Appends an unweighted edge.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, or if this list is weighted.
    pub fn push(&mut self, u: Vertex, v: Vertex) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u}, {v}) out of range for {} vertices",
            self.num_vertices
        );
        assert!(
            self.weights.is_none(),
            "weighted list requires push_weighted"
        );
        self.edges.push((u, v));
    }

    /// Appends a weighted edge.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, or if previous edges were
    /// pushed without weights.
    pub fn push_weighted(&mut self, u: Vertex, v: Vertex, w: f64) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u}, {v}) out of range for {} vertices",
            self.num_vertices
        );
        match &mut self.weights {
            Some(ws) => ws.push(w),
            None if self.edges.is_empty() => self.weights = Some(vec![w]),
            None => panic!("cannot mix weighted and unweighted pushes"),
        }
        self.edges.push((u, v));
    }

    /// Adds the reverse of every edge, making the list symmetric
    /// (undirected). Weights are duplicated.
    pub fn symmetrize(&mut self) {
        let m = self.edges.len();
        self.edges.reserve(m);
        for i in 0..m {
            let (u, v) = self.edges[i];
            self.edges.push((v, u));
        }
        if let Some(ws) = &mut self.weights {
            ws.reserve(m);
            for i in 0..m {
                let w = ws[i];
                ws.push(w);
            }
        }
    }

    /// Sorts edges lexicographically and removes exact duplicates.
    /// For weighted lists the first occurrence's weight is kept.
    pub fn sort_dedup(&mut self) {
        match &mut self.weights {
            None => {
                self.edges.sort_unstable();
                self.edges.dedup();
            }
            Some(ws) => {
                let mut order: Vec<usize> = (0..self.edges.len()).collect();
                let edges = &self.edges;
                // Stable sort keeps the first occurrence first among equals.
                order.sort_by_key(|&i| edges[i]);
                let mut new_edges = Vec::with_capacity(order.len());
                let mut new_ws = Vec::with_capacity(order.len());
                for i in order {
                    if new_edges.last() != Some(&self.edges[i]) {
                        new_edges.push(self.edges[i]);
                        new_ws.push(ws[i]);
                    }
                }
                self.edges = new_edges;
                *ws = new_ws;
            }
        }
    }

    /// Removes self-loops `(u, u)`.
    pub fn remove_self_loops(&mut self) {
        match &mut self.weights {
            None => self.edges.retain(|&(u, v)| u != v),
            Some(ws) => {
                let mut kept_ws = Vec::with_capacity(ws.len());
                let mut kept_edges = Vec::with_capacity(self.edges.len());
                for (i, &(u, v)) in self.edges.iter().enumerate() {
                    if u != v {
                        kept_edges.push((u, v));
                        kept_ws.push(ws[i]);
                    }
                }
                self.edges = kept_edges;
                *ws = kept_ws;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut el = EdgeList::new(4);
        el.push(0, 1);
        el.push(1, 2);
        assert_eq!(el.num_vertices(), 4);
        assert_eq!(el.num_edges(), 2);
        assert_eq!(el.edges(), &[(0, 1), (1, 2)]);
        assert!(el.weights().is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_rejects_out_of_range() {
        let mut el = EdgeList::new(2);
        el.push(0, 2);
    }

    #[test]
    fn weighted_push() {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 2.5);
        el.push_weighted(1, 2, 0.5);
        assert_eq!(el.weights(), Some(&[2.5, 0.5][..]));
    }

    #[test]
    #[should_panic(expected = "mix")]
    fn cannot_mix_weighted_after_unweighted() {
        let mut el = EdgeList::new(3);
        el.push(0, 1);
        el.push_weighted(1, 2, 1.0);
    }

    #[test]
    fn symmetrize_doubles() {
        let mut el = EdgeList::from_edges(3, vec![(0, 1), (1, 2)]);
        el.symmetrize();
        assert_eq!(el.num_edges(), 4);
        assert!(el.edges().contains(&(1, 0)));
        assert!(el.edges().contains(&(2, 1)));
    }

    #[test]
    fn symmetrize_weighted_duplicates_weights() {
        let mut el = EdgeList::from_weighted_edges(3, vec![(0, 1)], vec![7.0]);
        el.symmetrize();
        assert_eq!(el.edges(), &[(0, 1), (1, 0)]);
        assert_eq!(el.weights(), Some(&[7.0, 7.0][..]));
    }

    #[test]
    fn sort_dedup_removes_duplicates() {
        let mut el = EdgeList::from_edges(3, vec![(1, 2), (0, 1), (1, 2), (0, 1)]);
        el.sort_dedup();
        assert_eq!(el.edges(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn sort_dedup_weighted_keeps_first_weight() {
        let mut el =
            EdgeList::from_weighted_edges(3, vec![(1, 2), (0, 1), (1, 2)], vec![9.0, 1.0, 5.0]);
        el.sort_dedup();
        assert_eq!(el.edges(), &[(0, 1), (1, 2)]);
        assert_eq!(el.weights(), Some(&[1.0, 9.0][..]));
    }

    #[test]
    fn remove_self_loops_filters() {
        let mut el = EdgeList::from_edges(3, vec![(0, 0), (0, 1), (2, 2)]);
        el.remove_self_loops();
        assert_eq!(el.edges(), &[(0, 1)]);
    }

    #[test]
    fn remove_self_loops_weighted_keeps_alignment() {
        let mut el =
            EdgeList::from_weighted_edges(3, vec![(0, 0), (0, 1), (2, 2)], vec![1.0, 2.0, 3.0]);
        el.remove_self_loops();
        assert_eq!(el.edges(), &[(0, 1)]);
        assert_eq!(el.weights(), Some(&[2.0][..]));
    }
}
