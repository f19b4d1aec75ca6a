//! `nwhy` — the facade crate for the NWHy-rs workspace.
//!
//! Re-exports the whole framework under one roof and adds the
//! [`session`] API, a Rust mirror of the paper's Python package
//! (Listing 5): create a hypergraph from incidence arrays, ask for an
//! s-line graph, and run s-metric queries against it.
//!
//! ```
//! use nwhy::session::NWHypergraph;
//!
//! // Listing 5's toy input: two hyperedges, both {0, 1, 2}.
//! let col = [0, 0, 0, 1, 1, 1]; // hyperedge of each incidence
//! let row = [0, 1, 2, 0, 1, 2]; // hypernode of each incidence
//! let hg = NWHypergraph::new(&row, &col);
//!
//! let s2lg = hg.s_linegraph(2, true);
//! assert!(s2lg.is_s_connected());
//! assert_eq!(s2lg.s_distance(0, 1), Some(1));
//! ```

#![forbid(unsafe_code)]

pub mod session;

pub use hygra;
pub use nwgraph;
pub use nwhy_core as core;
pub use nwhy_gen as gen;
pub use nwhy_io as io;
pub use nwhy_obs as obs;
pub use nwhy_store as store;
pub use nwhy_util as util;

pub use nwhy_core::smetrics::WeightedSLineGraph;
pub use nwhy_core::{
    AdjoinGraph, Algorithm, BiEdgeList, Hypergraph, HypergraphStats, Id, InvariantViolation,
    Relabel, SLineGraph, SLineOutput, Validate,
};
pub use session::NWHypergraph;
