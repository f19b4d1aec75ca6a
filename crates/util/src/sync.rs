//! `cfg(loom)`-switched atomic types for the concurrency primitives.
//!
//! The lock-free kernels ([`crate::atomics`], [`crate::bitmap`]) import
//! their atomic types from here instead of
//! `std::sync::atomic`. Under a normal build these are exactly the std
//! types (zero cost); under `RUSTFLAGS="--cfg loom"` they swap to the
//! loom model checker's instrumented atomics, whose every operation is
//! a schedule point, so the loom tests in `tests/loom.rs` can
//! exhaustively explore the primitives' interleavings:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p nwhy-util --test loom --release
//! ```

#[cfg(loom)]
pub use loom::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};

#[cfg(not(loom))]
// lint: the one sanctioned std::sync::atomic import — every other module
// routes through this re-export (enforced by `cargo xtask lint`).
pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
