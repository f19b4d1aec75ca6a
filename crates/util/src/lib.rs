//! Shared low-level utilities for the `nwhy-rs` workspace.
//!
//! This crate is the parallel substrate underneath `nwgraph` and
//! `nwhy-core`. It plays the role that oneTBB plus a handful of in-house
//! helpers play in the original C++ NWHy framework:
//!
//! - [`atomics`] — compare-and-swap helpers and Afforest's union-find
//!   hooking, used by label-propagation and Afforest connected components.
//! - [`bitmap`] — a concurrent bitmap used as the dense frontier in
//!   direction-optimizing BFS.
//! - [`fxhash`] — a fast, non-cryptographic hasher (FxHash-style) used for
//!   the hashmap-based s-line-graph counting algorithms.
//! - [`prefix`] — parallel exclusive prefix sums, the backbone of CSR
//!   construction.
//! - [`partition`] — the paper's work-partitioning strategies (§III-D):
//!   *blocked range*, *cyclic range*, and *cyclic neighbor range*.
//! - [`pool`] — helpers for running a closure on a Rayon pool with an exact
//!   thread count (used by the strong-scaling harnesses).
//! - [`timer`] — wall-clock timing and simple summary statistics for the
//!   benchmark harnesses.
//! - [`sync`] — the `cfg(loom)` switch point: the concurrency primitives
//!   import their atomic types from here so the loom model checker can
//!   replace them under `RUSTFLAGS="--cfg loom"` (see `tests/loom.rs`).
//!
//! The whole workspace forbids `unsafe`; the lock-free pieces here are
//! checked by loom models (`tests/loom.rs`), Miri, and a nightly
//! ThreadSanitizer CI job instead (see DESIGN.md, "Concurrency model &
//! invariants").

#![forbid(unsafe_code)]

pub mod atomics;
pub mod bitmap;
pub mod fxhash;
pub mod partition;
pub mod pool;
pub mod prefix;
pub mod sync;
pub mod timer;

pub use atomics::atomic_min_u32;
pub use bitmap::AtomicBitmap;
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use partition::{blocked_ranges, CyclicRange};
pub use pool::with_threads;
pub use prefix::{exclusive_prefix_sum, exclusive_prefix_sum_in_place};
pub use timer::{median, Stats, Timer};
