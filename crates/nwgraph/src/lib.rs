//! `nwgraph` — a from-scratch parallel graph library.
//!
//! This crate is the Rust analog of NWGraph, the "third-party graph
//! library" the NWHy paper leans on for computing metrics on the
//! lower-order approximations (s-line graphs, clique expansions, adjoin
//! graphs) of a hypergraph. It provides:
//!
//! - [`EdgeList`] — a mutable coordinate-format edge container;
//! - [`Csr`] — compressed sparse row adjacency, the workhorse structure,
//!   exposed as a "range of ranges" (indexable outer range over `&[u32]`
//!   inner neighbor slices), mirroring the paper's C++20 range model;
//! - degree-based relabeling ([`relabel`]) — the permute-by-degree
//!   optimization §III-B.2 discusses;
//! - parallel algorithms ([`algorithms`]) for the paper's s-metrics
//!   (Listing 5): breadth-first search (top-down, bottom-up,
//!   direction-optimizing) and shortest-path reconstruction, connected
//!   components (label propagation, Afforest), Brandes betweenness
//!   centrality, and closeness/harmonic closeness/eccentricity, plus the
//!   sorted-set intersection kernels the s-line-graph builders verify
//!   overlaps with.
//!
//! Vertices are dense `u32` IDs; [`INVALID_VERTEX`] (`u32::MAX`) marks
//! "no vertex" (unvisited parents, infinite distances).

#![forbid(unsafe_code)]
// lint: this crate is a single flat vertex space — every `i as u32` is an
// index below `num_vertices() ≤ u32::MAX` (IDs come in as u32 and counts
// derive from them), unlike nwhy-core's aliased multi-domain ID spaces
// where the xtask lint pass bans raw casts outright.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

pub mod algorithms;
pub mod csr;
pub mod edge_list;
pub mod random;
pub mod relabel;

pub use csr::Csr;
pub use edge_list::EdgeList;
pub use relabel::{degree_permutation, invert_permutation, Direction};

/// Sentinel for "no vertex": unvisited BFS parents, unreachable distances.
pub const INVALID_VERTEX: u32 = u32::MAX;

/// Vertex identifier type used across the workspace.
pub type Vertex = u32;
