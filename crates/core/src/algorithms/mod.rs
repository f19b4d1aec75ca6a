//! Exact hypergraph algorithms (§III-C.1, §III-C.2, §III-C.4).
//!
//! Two algorithm families compute *exact* hypergraph metrics:
//!
//! - on the **bi-adjacency** (two index sets): [`mod@hyper_bfs`] and
//!   [`mod@hyper_cc`], which maintain separate frontiers/label arrays for the
//!   hyperedge and hypernode sides — the bookkeeping burden the paper
//!   notes as the representation's biggest drawback;
//! - on the **adjoin graph** (one shared index set): [`mod@adjoin_bfs`] and
//!   [`mod@adjoin_cc`], which are plain graph algorithms
//!   (direction-optimizing BFS; Afforest / label propagation) followed by
//!   a range-aware split of the result array.
//!
//! [`mod@toplex`] implements Algorithm 3 (maximal hyperedges).

pub mod adjoin_bfs;
pub mod adjoin_cc;
pub mod generic;
pub mod hyper_bfs;
pub mod hyper_cc;
pub mod kcore;
pub mod s_components;
pub mod toplex;

pub use adjoin_bfs::{adjoin_bfs, AdjoinBfsResult};
pub use adjoin_cc::{adjoin_cc_afforest, adjoin_cc_label_propagation, AdjoinCcResult};
pub use generic::{hyper_bfs_generic, hyper_cc_generic};
pub use hyper_bfs::{hyper_bfs_bottom_up, hyper_bfs_top_down, HyperBfsResult};
pub use hyper_cc::{hyper_cc, HyperCcResult};
pub use kcore::{kl_core, node_core_numbers, KLCore};
pub use s_components::{is_s_connected_online, s_connected_components_online};
pub use toplex::{toplexes, toplexes_sequential};
