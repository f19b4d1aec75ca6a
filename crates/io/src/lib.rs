//! `nwhy-io` — hypergraph file formats.
//!
//! The NWHy paper's Listing 2 reads hypergraphs from Matrix Market files
//! (`graph_reader(mm_file)` for the bi-edge-list, `graph_reader_adjoin`
//! for the adjoined form). This crate provides:
//!
//! - [`matrix_market`] — the Matrix Market coordinate format for
//!   (rectangular) incidence matrices, read and write;
//! - [`hyperedge_list`] — a plain-text "one hyperedge per line" format,
//!   convenient for examples and small datasets;
//! - [`adjoin_reader`] — the `graph_reader_adjoin` equivalent: reads an
//!   incidence file straight into an [`nwhy_core::AdjoinGraph`] and
//!   reports the partition sizes (`nrealedges`, `nrealnodes`);
//! - [`tsv`] — KONECT-style bipartite TSV edge lists (the format the
//!   paper's Orkut-group/LiveJournal/Web inputs ship in);
//! - [`binary`] — a compact binary cache format for large inputs;
//! - [`edge_list`] — s-line edge lists, one `a\tb` pair per line;
//! - [`pack`] — the compressed NWHYPAK1 format (`nwhy-store`): pack a
//!   hypergraph to disk, open it zero-copy through a mmap or owned
//!   backend.
//!
//! All readers work over any `io::BufRead`, so they are testable from
//! in-memory strings and usable on files.
//!
//! # Examples
//!
//! ```
//! let mm = "%%MatrixMarket matrix coordinate pattern general\n\
//!           3 2 4\n1 1\n2 1\n2 2\n3 2\n";
//! let h = nwhy_io::read_matrix_market(std::io::Cursor::new(mm)).unwrap();
//! assert_eq!(h.num_hyperedges(), 2);
//! assert_eq!(h.edge_members(0), &[0, 1]);
//!
//! let mut out = Vec::new();
//! nwhy_io::write_matrix_market(&mut out, &h).unwrap();
//! let again = nwhy_io::read_matrix_market(std::io::Cursor::new(out)).unwrap();
//! assert_eq!(h, again);
//! ```

#![forbid(unsafe_code)]

pub mod adjoin_reader;
pub mod binary;
pub mod edge_list;
pub mod error;
pub mod hyperedge_list;
pub mod matrix_market;
pub mod pack;
mod scan;
pub mod tsv;

pub use adjoin_reader::read_adjoin;
pub use binary::{read_binary, write_binary};
pub use edge_list::write_sline_edges;
pub use error::IoError;
pub use hyperedge_list::{read_hyperedge_list, write_hyperedge_list};
pub use matrix_market::{read_matrix_market, write_matrix_market};
pub use pack::{open_packed, read_packed, write_packed_file};
pub use tsv::{read_bipartite_tsv, write_bipartite_tsv, Orientation};
