//! Rectangular matrices — §III-B.1a made visible.
//!
//! The paper stresses that hypergraph libraries must handle *rectangular*
//! incidence matrices (hypernodes × hyperedges differ in count and live
//! in different ID spaces). This example renders the Fig. 2/4 matrices
//! of a small hypergraph: incidence `B`, dual `Bᵀ`, and the adjoin block
//! adjacency `[[0, Bᵀ],[B, 0]]`.
//!
//! Run with: `cargo run --release -p nwhy --example matrices`

use nwhy::core::fixtures::paper_hypergraph;
use nwhy::core::matrix::{adjoin_adjacency_matrix, dual_incidence_matrix, incidence_matrix};

fn main() {
    let h = paper_hypergraph();
    println!("incidence matrix B (Fig. 2's data, 9 hypernodes x 4 hyperedges):");
    println!("{}", incidence_matrix(&h));
    println!("dual incidence B^T (the dual hypergraph H*):");
    println!("{}", dual_incidence_matrix(&h));
    println!("adjoin adjacency A_G = [[0, B^T], [B, 0]]  (Fig. 4; IDs 0-3 edges, 4-12 nodes):");
    println!("{}", adjoin_adjacency_matrix(&h));
}
