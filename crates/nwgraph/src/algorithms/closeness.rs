//! Closeness, harmonic closeness, and eccentricity — the distance-based
//! centralities NWHy's Python API exposes as `s_closeness_centrality`,
//! `s_harmonic_closeness_centrality`, and `s_eccentricity`.
//!
//! All three are all-pairs-BFS sweeps, parallelized over sources.

use crate::algorithms::bfs::bfs_direction_optimizing;
use crate::csr::Csr;
use crate::{Vertex, INVALID_VERTEX};
use rayon::prelude::*;

/// Closeness centrality of every vertex, using the Wasserman–Faust
/// formula for disconnected graphs (as NetworkX/HyperNetX do):
/// `C(v) = (r-1)/n-1 · (r-1)/Σ d(v,u)` where `r` is the size of `v`'s
/// reachable set. Isolated vertices score 0.
pub fn closeness_centrality(g: &Csr) -> Vec<f64> {
    let n = g.num_vertices();
    (0..n as Vertex)
        .into_par_iter()
        .map(|v| {
            let levels = bfs_direction_optimizing(g, v).levels;
            let mut total = 0u64;
            let mut reached = 0u64;
            for &l in &levels {
                if l != INVALID_VERTEX {
                    total += l as u64;
                    reached += 1;
                }
            }
            // `reached` includes v itself at distance 0.
            if total == 0 || n <= 1 {
                0.0
            } else {
                let r = reached as f64;
                ((r - 1.0) / (n as f64 - 1.0)) * ((r - 1.0) / total as f64)
            }
        })
        .collect()
}

/// Harmonic closeness: `H(v) = Σ_{u≠v} 1/d(v,u)` with `1/∞ = 0`.
/// Robust to disconnection without the Wasserman–Faust correction.
pub fn harmonic_closeness_centrality(g: &Csr) -> Vec<f64> {
    let n = g.num_vertices();
    (0..n as Vertex)
        .into_par_iter()
        .map(|v| {
            let levels = bfs_direction_optimizing(g, v).levels;
            levels
                .iter()
                .filter(|&&l| l != INVALID_VERTEX && l > 0)
                .map(|&l| 1.0 / l as f64)
                .sum()
        })
        .collect()
}

/// Eccentricity of every vertex: the greatest *finite* hop distance to any
/// reachable vertex (so it is well-defined per component). Isolated
/// vertices have eccentricity 0.
pub fn eccentricity(g: &Csr) -> Vec<u32> {
    let n = g.num_vertices();
    (0..n as Vertex)
        .into_par_iter()
        .map(|v| bfs_direction_optimizing(g, v).max_level())
        .collect()
}

/// The diameter of the graph: max finite eccentricity (0 for empty).
/// Exact — runs one BFS per vertex.
pub fn diameter(g: &Csr) -> u32 {
    eccentricity(g).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::EdgeList;

    fn undirected(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut el = EdgeList::from_edges(n, edges.to_vec());
        el.symmetrize();
        el.sort_dedup();
        Csr::from_edge_list(&el)
    }

    #[test]
    fn closeness_on_path() {
        let g = undirected(3, &[(0, 1), (1, 2)]);
        let c = closeness_centrality(&g);
        // center: distances {1,1} → (2/2)·(2/2) = 1.0
        assert!((c[1] - 1.0).abs() < 1e-12);
        // ends: distances {1,2} → 2/3
        assert!((c[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((c[2] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_disconnected_uses_wf_correction() {
        // component {0,1} + isolated 2
        let g = undirected(3, &[(0, 1)]);
        let c = closeness_centrality(&g);
        // v0: reached {0,1}, total 1 → (1/2)·(1/1) = 0.5
        assert!((c[0] - 0.5).abs() < 1e-12);
        assert_eq!(c[2], 0.0);
    }

    #[test]
    fn harmonic_on_path() {
        let g = undirected(3, &[(0, 1), (1, 2)]);
        let h = harmonic_closeness_centrality(&g);
        assert!((h[1] - 2.0).abs() < 1e-12); // 1/1 + 1/1
        assert!((h[0] - 1.5).abs() < 1e-12); // 1/1 + 1/2
    }

    #[test]
    fn harmonic_ignores_unreachable() {
        let g = undirected(4, &[(0, 1)]);
        let h = harmonic_closeness_centrality(&g);
        assert_eq!(h[0], 1.0);
        assert_eq!(h[2], 0.0);
    }

    #[test]
    fn eccentricity_and_diameter_on_path() {
        let g = undirected(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(eccentricity(&g), vec![4, 3, 2, 3, 4]);
        assert_eq!(diameter(&g), 4);
    }

    #[test]
    fn eccentricity_per_component() {
        let g = undirected(5, &[(0, 1), (1, 2), (3, 4)]);
        assert_eq!(eccentricity(&g), vec![2, 1, 2, 1, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        assert!(closeness_centrality(&g).is_empty());
        assert!(harmonic_closeness_centrality(&g).is_empty());
        assert_eq!(diameter(&g), 0);
    }

    #[test]
    fn single_vertex() {
        let g = Csr::from_edge_list(&EdgeList::new(1));
        assert_eq!(closeness_centrality(&g), vec![0.0]);
        assert_eq!(harmonic_closeness_centrality(&g), vec![0.0]);
        assert_eq!(eccentricity(&g), vec![0]);
    }
}
