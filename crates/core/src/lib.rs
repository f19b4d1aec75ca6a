//! `nwhy-core` — the NWHy hypergraph analytics framework, in Rust.
//!
//! This crate implements the primary contribution of *NWHy: A Framework
//! for Hypergraph Analytics* (Liu, Firoz, Gebremedhin, Lumsdaine, IPDPS
//! 2022): data structures for four hypergraph representations and a suite
//! of parallel algorithms for exact and approximate hypergraph metrics.
//!
//! # Representations (§III-B)
//!
//! 1. **Bi-adjacency** ([`Hypergraph`]) — two *mutually indexed* CSR
//!    structures: hyperedges → incident hypernodes and hypernodes →
//!    incident hyperedges. Built from a [`BiEdgeList`].
//! 2. **Adjoin graph** ([`AdjoinGraph`]) — the paper's single-index-set
//!    representation: hyperedges take IDs `[0, n_e)`, hypernodes take IDs
//!    `[n_e, n_e + n_v)`, and the result is an ordinary symmetric graph
//!    any graph algorithm can process (range-aware splitting maps results
//!    back).
//! 3. **Clique expansion** ([`clique::clique_expansion`]) — each hyperedge
//!    becomes a clique over its hypernodes.
//! 4. **s-line graphs** ([`slinegraph`]) — hyperedges become vertices;
//!    `{e, f}` is an edge iff `|e ∩ f| ≥ s`. Seven construction algorithms
//!    are provided, including the paper's two new queue-based ones
//!    (Algorithms 1 and 2). All of them are generic over the
//!    [`repr::HyperAdjacency`] trait and are driven through the fluent
//!    [`SLineBuilder`] pipeline.
//!
//! # Algorithms (§III-C)
//!
//! - Exact, over the incidence structure of any representation (one
//!   kernel each, generic over [`repr::HyperAdjacency`]):
//!   [`mod@algorithms::hyper_bfs`], [`mod@algorithms::hyper_cc`].
//! - Exact, on the adjoin graph: [`mod@algorithms::adjoin_bfs`],
//!   [`mod@algorithms::adjoin_cc`].
//! - [`mod@algorithms::toplex`] — maximal hyperedges (Algorithm 3).
//! - Approximate, via s-line graphs: [`smetrics::SLineGraph`] exposes the
//!   s-metric queries of the paper's Python API (Listing 5).

//!
//! # Invariant validation
//!
//! Every representation implements [`validate::Validate`]; the checked
//! builders run it automatically under `debug_assertions` or the
//! `validate` cargo feature, and the `nwhy check` CLI subcommand runs
//! it on demand. See the [`validate`] module docs.

#![forbid(unsafe_code)]

pub mod adjoin;
pub mod algorithms;
pub mod biedgelist;
pub mod clique;
pub mod fixtures;
pub mod hypergraph;
// The typed-domain and builder modules also satisfy the pedantic
// `must_use_candidate` bar: every value-returning accessor is annotated.
#[deny(clippy::must_use_candidate)]
pub mod ids;
pub mod matrix;
pub mod repr;
pub mod slinegraph;
pub mod smetrics;
pub mod validate;

pub use adjoin::AdjoinGraph;
pub use biedgelist::BiEdgeList;
pub use hypergraph::{Hypergraph, HypergraphStats};
pub use ids::{AdjoinId, HyperedgeId, HypernodeId, LocalId, Overlap, Relabeling};
pub use repr::{DualView, HyperAdjacency, RelabeledView};
pub use slinegraph::{Algorithm, Relabel, SLineBuilder};
pub use smetrics::SLineGraph;
pub use validate::{InvariantViolation, SLineOutput, Validate};

/// Hyperedge/hypernode identifier type (dense `u32`, matching `nwgraph`).
pub type Id = u32;
