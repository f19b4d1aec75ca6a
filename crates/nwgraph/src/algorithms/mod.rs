//! Parallel graph algorithms over [`crate::Csr`].
//!
//! These are the "highly-tuned, parallel graph algorithms in the
//! traditional graph library" that NWHy delegates to once a hypergraph has
//! been projected to a lower-order graph (s-line graph, clique expansion,
//! or adjoin graph).

pub mod betweenness;
pub mod bfs;
pub mod cc;
pub mod closeness;
pub mod intersection;

pub use betweenness::betweenness_centrality;
pub use bfs::{bfs_bottom_up, bfs_direction_optimizing, bfs_top_down, BfsResult};
pub use cc::{afforest, cc_label_propagation, num_components};
pub use closeness::{closeness_centrality, eccentricity, harmonic_closeness_centrality};
