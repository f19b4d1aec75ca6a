//! The `graph_reader_adjoin` equivalent (Listing 2 of the paper).
//!
//! Reads a Matrix Market incidence file and returns the hypergraph
//! already adjoined into one index set, together with the two partition
//! cardinalities the paper's API reports through its `nrealedges` /
//! `nrealnodes` out-parameters.

use crate::error::IoError;
use crate::matrix_market::read_biedgelist;
use nwhy_core::{AdjoinGraph, Hypergraph};
use std::io::BufRead;

/// Reads an incidence matrix and adjoins it. Returns
/// `(adjoin_graph, nrealedges, nrealnodes)`.
pub fn read_adjoin<R: BufRead>(reader: R) -> Result<(AdjoinGraph, usize, usize), IoError> {
    let bel = read_biedgelist(reader)?;
    let ne = bel.num_hyperedges();
    let nv = bel.num_hypernodes();
    let h = Hypergraph::from_biedgelist(&bel);
    Ok((AdjoinGraph::from_owned(h), ne, nv))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix_market::write_matrix_market;
    use nwhy_core::fixtures::paper_hypergraph;
    use std::io::Cursor;

    #[test]
    fn reads_fixture_as_adjoin() {
        let h = paper_hypergraph();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &h).unwrap();
        let (a, ne, nv) = read_adjoin(Cursor::new(buf)).unwrap();
        assert_eq!(ne, 4);
        assert_eq!(nv, 9);
        assert_eq!(a.num_vertices(), 13);
        assert_eq!(a.to_hypergraph(), h);
    }

    #[test]
    fn propagates_parse_errors() {
        assert!(read_adjoin(Cursor::new("not a matrix")).is_err());
    }

    #[test]
    fn empty_matrix() {
        let mm = "%%MatrixMarket matrix coordinate pattern general\n0 0 0\n";
        let (a, ne, nv) = read_adjoin(Cursor::new(mm)).unwrap();
        assert_eq!((ne, nv), (0, 0));
        assert_eq!(a.num_vertices(), 0);
    }
}
