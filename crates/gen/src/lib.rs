//! `nwhy-gen` — synthetic hypergraph generators.
//!
//! The paper evaluates on SNAP/KONECT-derived hypergraphs (Table I) plus a
//! Hygra-generated uniform random hypergraph (Rand1). Those raw datasets
//! are not redistributable inside this repository, so this crate generates
//! *synthetic twins*: hypergraphs whose size, degree averages, and skew
//! match each Table I row at a configurable scale. The algorithms under
//! benchmark are sensitive to exactly those statistics (they drive the
//! indirection fan-out, frontier shapes, and load imbalance), which is why
//! the substitution preserves the experiments' comparative shape (see
//! DESIGN.md).
//!
//! - [`uniform`] — every hyperedge draws `k` distinct hypernodes uniformly
//!   (the Rand1 recipe);
//! - [`powerlaw`] — bipartite configuration model with Pareto-tailed
//!   degree sequences on both sides (the social/web-network shape);
//! - [`communities`] — planted overlapping communities, mirroring how the
//!   com-Orkut/Friendster hypergraphs were materialized (each community =
//!   one hyperedge);
//! - [`profiles`] — named scaled twins of the six Table I rows.
//!
//! # Examples
//!
//! ```
//! use nwhy_gen::profiles::profile_by_name;
//! use nwhy_gen::uniform_random;
//!
//! // the Rand1 recipe directly
//! let h = uniform_random(1000, 500, 10, 42);
//! assert_eq!(h.stats().max_edge_degree, 10);
//!
//! // or a Table I twin at 1/100000 scale
//! let twin = profile_by_name("com-Orkut").unwrap().generate(100_000, 42);
//! assert!(twin.num_hyperedges() >= 16);
//! ```

#![forbid(unsafe_code)]
// lint: generators narrow rounded f64 samples and rng draws into sizes and
// Ids; every value is bounded by a generator parameter (n, target, k) that
// already fits the target type, unlike nwhy-core's aliased ID spaces where
// the xtask lint pass bans raw casts outright.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

pub mod communities;
pub mod powerlaw;
pub mod profiles;
pub mod rng;
pub mod uniform;

pub use communities::planted_communities;
pub use powerlaw::powerlaw_hypergraph;
pub use profiles::{DatasetProfile, TableOneRow, TABLE1};
pub use uniform::uniform_random;
