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
pub mod kcore;
pub mod mis;
pub mod pagerank;
pub mod sssp;
pub mod triangles;

pub use betweenness::{betweenness_centrality, betweenness_sampled};
pub use bfs::{bfs_bottom_up, bfs_direction_optimizing, bfs_top_down, BfsResult};
pub use cc::{afforest, cc_label_propagation, component_sizes, num_components, shiloach_vishkin};
pub use closeness::{closeness_centrality, eccentricity, harmonic_closeness_centrality};
pub use kcore::kcore_decomposition;
pub use mis::maximal_independent_set;
pub use pagerank::pagerank;
pub use sssp::{delta_stepping, unweighted_distances};
pub use triangles::triangle_count;
