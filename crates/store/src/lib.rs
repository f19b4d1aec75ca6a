//! `nwhy-store` — compressed, zero-copy on-disk hypergraph storage.
//!
//! The NWHy paper's representations are all RAM-resident; this crate is
//! the workspace's answer to ROADMAP item 1 (beyond-RAM inputs). It
//! defines the `NWHYPAK1` file format — both bi-adjacency CSRs with
//! delta-gap varint neighbor lists and a sampled-offset index over row
//! starts, little-endian, versioned header — and serves it back through
//! [`CompressedHypergraph`], which implements
//! [`nwhy_core::HyperAdjacency`] so every s-line kernel, BFS/CC, and
//! s-metric runs on the packed form unchanged. Opening an image validates
//! all of it in one walk, run on the pool in blocks split at the sampled
//! index, that also builds a row-offset table, so a corrupt file is an
//! error at open and every later query is infallible.
//! A query that re-reads one side can decode it into memory once
//! ([`CompressedHypergraph::materialize`]) and borrow its rows from then on.
//!
//! Two backends hold the image ([`Storage`]): a read-only `mmap` (unix,
//! `mmap` cargo feature, the zero-copy path) and a pure-safe
//! read-into-`Vec` fallback. The mmap syscall wrapper in [`mod@mmap`] is
//! the **only** unsafe code in the workspace; `cargo xtask lint`
//! enforces that confinement.
//!
//! # Examples
//!
//! ```
//! use nwhy_core::{fixtures::paper_hypergraph, HyperAdjacency};
//! use nwhy_store::{pack_hypergraph, CompressedHypergraph};
//!
//! let h = paper_hypergraph();
//! let image = pack_hypergraph(&h);
//! let c = CompressedHypergraph::from_bytes(image).unwrap();
//! assert_eq!(c.num_hyperedges(), 4);
//! assert_eq!(&*HyperAdjacency::edge_neighbors(&c, 0), h.edge_members(0));
//! ```

pub mod compressed;
pub mod error;
pub mod format;
#[cfg(all(unix, feature = "mmap"))]
pub mod mmap;
pub mod storage;
pub mod varint;

pub use compressed::{CompressedHypergraph, Side, StorageStats};
pub use error::StoreError;
pub use format::{pack_hypergraph, write_packed, Header, FLAG_WEIGHTS, MAGIC, VERSION};
pub use storage::{Backend, Storage};
