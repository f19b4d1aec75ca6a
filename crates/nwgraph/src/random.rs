//! Deterministic pseudo-random graph generators for tests and benches.
//!
//! A tiny xorshift-based PRNG is embedded here (rather than pulling `rand`
//! into the library's public dependency set) so that generated graphs are
//! reproducible across platforms from a seed alone.

use crate::csr::Csr;
use crate::edge_list::EdgeList;
use crate::Vertex;

/// SplitMix64: tiny, high-quality 64-bit PRNG (public-domain algorithm).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound > 0`).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Lemire-style widening multiply.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Uniform random undirected graph: `n` vertices, `m` undirected edges
/// (sampled with replacement, self-loops removed, then symmetrized).
pub fn gnm_undirected(n: usize, m: usize, seed: u64) -> Csr {
    let mut rng = SplitMix64::new(seed);
    let mut el = EdgeList::new(n);
    if n >= 2 {
        for _ in 0..m {
            let u = rng.below(n as u64) as Vertex;
            let mut v = rng.below(n as u64) as Vertex;
            while v == u {
                v = rng.below(n as u64) as Vertex;
            }
            el.push(u, v);
        }
    }
    el.symmetrize();
    el.sort_dedup();
    Csr::from_edge_list(&el)
}

/// Uniform random *directed* graph with `m` arcs (possibly with
/// duplicates removed), no self-loops.
pub fn gnm_directed(n: usize, m: usize, seed: u64) -> Csr {
    let mut rng = SplitMix64::new(seed);
    let mut el = EdgeList::new(n);
    if n >= 2 {
        for _ in 0..m {
            let u = rng.below(n as u64) as Vertex;
            let mut v = rng.below(n as u64) as Vertex;
            while v == u {
                v = rng.below(n as u64) as Vertex;
            }
            el.push(u, v);
        }
    }
    el.sort_dedup();
    Csr::from_edge_list(&el)
}

/// Random connected undirected graph: a random spanning tree plus `extra`
/// random edges. Useful for BFS/SSSP tests that need full reachability.
pub fn connected_undirected(n: usize, extra: usize, seed: u64) -> Csr {
    let mut rng = SplitMix64::new(seed);
    let mut el = EdgeList::new(n);
    for v in 1..n {
        let u = rng.below(v as u64) as Vertex;
        el.push(u, v as Vertex);
    }
    if n >= 2 {
        for _ in 0..extra {
            let u = rng.below(n as u64) as Vertex;
            let mut v = rng.below(n as u64) as Vertex;
            while v == u {
                v = rng.below(n as u64) as Vertex;
            }
            el.push(u, v);
        }
    }
    el.symmetrize();
    el.sort_dedup();
    Csr::from_edge_list(&el)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(rng.below(13) < 13);
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gnm_shapes() {
        let g = gnm_undirected(50, 100, 1);
        assert_eq!(g.num_vertices(), 50);
        assert!(g.is_symmetric());
        assert!(!g.iter().any(|(u, nbrs)| nbrs.contains(&u)));
        let d = gnm_directed(50, 100, 1);
        assert_eq!(d.num_vertices(), 50);
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(gnm_undirected(0, 10, 1).num_vertices(), 0);
        assert_eq!(gnm_undirected(1, 10, 1).num_edges(), 0);
        assert_eq!(connected_undirected(1, 5, 1).num_edges(), 0);
    }

    #[test]
    fn connected_generator_is_connected() {
        let g = connected_undirected(100, 20, 9);
        // simple reachability check from 0
        let mut seen = [false; 100];
        let mut stack = vec![0u32];
        seen[0] = true;
        while let Some(u) = stack.pop() {
            for &v in g.neighbors(u) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    stack.push(v);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
