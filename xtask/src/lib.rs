//! Repo automation tasks (`cargo xtask <task>`), following the
//! dependency-free xtask pattern: a plain workspace member invoked
//! through the `.cargo/config.toml` alias, so CI and contributors need
//! nothing beyond the Rust toolchain.

pub mod audit;
pub mod callgraph;
pub mod check_prom;
pub mod lexer;
pub mod lint;
pub mod model;
pub mod parse;
pub mod sarif;
