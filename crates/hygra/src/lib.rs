//! `hygra` — a Rust re-implementation of Hygra (Shun, PPoPP 2020), the
//! practical parallel hypergraph framework the NWHy paper benchmarks
//! against in §IV (HygraBFS, HygraCC).
//!
//! Hygra extends the Ligra abstraction to hypergraphs: computation is
//! expressed as `vertex_map`/`edge_map` operations over *vertex subsets*
//! (frontiers) on the bipartite representation, with automatic switching
//! between a sparse (push) and dense (pull) traversal depending on
//! frontier size. This crate rebuilds that engine from scratch:
//!
//! - [`subset::VertexSubset`] — sparse/dense frontier representation;
//! - [`engine`] — `edge_map` with Ligra's direction heuristic and
//!   `vertex_map`;
//! - [`bfs::hygra_bfs`] — the top-down hypergraph BFS the paper compares
//!   against in Fig. 8;
//! - [`cc::hygra_cc`] — the label-propagation hypergraph CC of Fig. 7.
//!
//! Re-implementing the baseline in the same language/runtime as NWHy puts
//! the Fig. 7–8 comparisons on equal footing (see DESIGN.md's
//! substitution table).
//!
//! # Examples
//!
//! ```
//! use nwhy_core::Hypergraph;
//!
//! let h = Hypergraph::from_memberships(&[vec![0, 1], vec![1, 2], vec![3]]);
//! let bfs = hygra::hygra_bfs(&h, 0);
//! assert_eq!(bfs.edge_levels, vec![0, 2, u32::MAX]);
//! let cc = hygra::hygra_cc(&h);
//! assert_eq!(cc.num_components(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod bfs;
pub mod cc;
pub mod engine;
pub mod pagerank;
pub mod subset;

pub use bfs::{hygra_bfs, HygraBfsResult};
pub use cc::{hygra_cc, HygraCcResult};
pub use pagerank::hygra_pagerank;
pub use subset::VertexSubset;
