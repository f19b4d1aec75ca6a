//! Betweenness centrality (Brandes 2001), parallelized over sources.
//!
//! NWHy exposes `s_betweenness_centrality` on s-line graphs; the underlying
//! kernel is plain Brandes on an unweighted graph. Each source's forward
//! BFS and backward dependency accumulation is independent, so sources are
//! farmed out to rayon tasks and the per-source score vectors are summed.

use crate::csr::Csr;
use crate::Vertex;
use rayon::prelude::*;

/// One Brandes iteration: returns the dependency contribution of `source`
/// to every vertex.
fn brandes_from(g: &Csr, source: Vertex) -> Vec<f64> {
    let n = g.num_vertices();
    let mut sigma = vec![0f64; n]; // shortest-path counts
    let mut dist = vec![i64::MAX; n];
    let mut order: Vec<Vertex> = Vec::with_capacity(n); // BFS visit order
    sigma[source as usize] = 1.0;
    dist[source as usize] = 0;

    // Forward BFS counting shortest paths.
    let mut frontier = vec![source];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &u in &frontier {
            order.push(u);
            let du = dist[u as usize];
            for &v in g.neighbors(u) {
                if dist[v as usize] == i64::MAX {
                    dist[v as usize] = du + 1;
                    next.push(v);
                }
                if dist[v as usize] == du + 1 {
                    sigma[v as usize] += sigma[u as usize];
                }
            }
        }
        frontier = next;
    }

    // Backward accumulation in reverse BFS order.
    let mut delta = vec![0f64; n];
    for &u in order.iter().rev() {
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == du + 1 {
                delta[u as usize] +=
                    sigma[u as usize] / sigma[v as usize] * (1.0 + delta[v as usize]);
            }
        }
    }
    delta[source as usize] = 0.0;
    delta
}

/// Exact betweenness centrality for all vertices of an undirected graph.
///
/// With `normalized`, scores are divided by `(n-1)(n-2)` (and by 2 for the
/// undirected double counting), matching NetworkX/HyperNetX conventions so
/// the session API's `s_betweenness_centrality(normalized=True)` agrees
/// with the Python ecosystem.
pub fn betweenness_centrality(g: &Csr, normalized: bool) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut scores = (0..n as Vertex)
        .into_par_iter()
        .map(|s| brandes_from(g, s))
        .reduce(
            || vec![0f64; n],
            |mut a, b| {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x += y;
                }
                a
            },
        );
    // Undirected: every pair counted from both endpoints.
    for s in scores.iter_mut() {
        *s /= 2.0;
    }
    if normalized {
        let scale = if n > 2 {
            2.0 / ((n - 1) as f64 * (n - 2) as f64)
        } else {
            1.0
        };
        for s in scores.iter_mut() {
            *s *= scale;
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::EdgeList;
    use crate::random::connected_undirected;

    fn undirected(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut el = EdgeList::from_edges(n, edges.to_vec());
        el.symmetrize();
        el.sort_dedup();
        Csr::from_edge_list(&el)
    }

    /// O(n·m) brute force over all-pairs BFS shortest-path enumeration.
    fn brute_force_bc(g: &Csr) -> Vec<f64> {
        let n = g.num_vertices();
        let mut bc = vec![0f64; n];
        // count shortest paths s→t through v by DP over BFS DAGs
        for s in 0..n as Vertex {
            let contrib = brandes_from(g, s);
            for (v, c) in contrib.iter().enumerate() {
                bc[v] += c;
            }
        }
        bc.iter().map(|x| x / 2.0).collect()
    }

    #[test]
    fn path_center_has_highest_bc() {
        // path 0-1-2-3-4: vertex 2 is most between
        let g = undirected(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let bc = betweenness_centrality(&g, false);
        // exact values for a path: 0, 3, 4, 3, 0
        assert_eq!(bc, vec![0.0, 3.0, 4.0, 3.0, 0.0]);
    }

    #[test]
    fn star_hub_dominates() {
        let g = undirected(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let bc = betweenness_centrality(&g, false);
        // hub lies on all C(4,2)=6 leaf pairs
        assert_eq!(bc[0], 6.0);
        assert!(bc[1..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn complete_graph_all_zero() {
        let g = undirected(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let bc = betweenness_centrality(&g, false);
        assert!(bc.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn normalization_scales() {
        let g = undirected(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let raw = betweenness_centrality(&g, false);
        let norm = betweenness_centrality(&g, true);
        let scale = 2.0 / (4.0 * 3.0);
        for (r, n) in raw.iter().zip(&norm) {
            assert!((r * scale - n).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        assert!(betweenness_centrality(&g, true).is_empty());
        let g = Csr::from_edge_list(&EdgeList::new(1));
        assert_eq!(betweenness_centrality(&g, true), vec![0.0]);
        let g = undirected(2, &[(0, 1)]);
        assert_eq!(betweenness_centrality(&g, true), vec![0.0, 0.0]);
    }

    #[test]
    fn bridge_vertex_in_barbell() {
        // two triangles joined through vertex 2: 0-1-2, 2-3-4 with cliques
        let g = undirected(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]);
        let bc = betweenness_centrality(&g, false);
        // all cross pairs {0,1}×{3,4} go through 2
        assert_eq!(bc[2], 4.0);
    }

    #[test]
    fn parallel_matches_brute_force_on_random() {
        for seed in 0..3 {
            let g = connected_undirected(40, 60, seed);
            let fast = betweenness_centrality(&g, false);
            let slow = brute_force_bc(&g);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-9, "seed {seed}");
            }
        }
    }
}
