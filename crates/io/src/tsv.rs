//! KONECT-style bipartite TSV edge lists.
//!
//! The paper's Orkut-group, Web, and LiveJournal inputs come from the
//! Koblenz Network Collection (KONECT) as bipartite graphs: one
//! whitespace-separated `left right [weight [timestamp]]` line per edge,
//! 1-based IDs, `%` comment/header lines. [`Orientation`] says which
//! column holds the hyperedges.

use crate::error::{checked_id, IoError};
use crate::scan::{next_usize, tokens, trim_start, Lines};
use nwhy_core::ids;
use nwhy_core::{BiEdgeList, Hypergraph, Id};
use nwhy_obs::Counter;
use std::io::{BufRead, Write};

/// Which TSV column holds the hyperedge IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// `left = hypernode, right = hyperedge` (KONECT user–group files).
    NodeEdge,
    /// `left = hyperedge, right = hypernode`.
    EdgeNode,
}

/// Reads a bipartite TSV into a hypergraph. IDs are 1-based in the file
/// (KONECT convention) and become 0-based; the ID spaces are sized by the
/// largest ID seen. Weight/timestamp columns are ignored.
pub fn read_bipartite_tsv<R: BufRead>(
    reader: R,
    orientation: Orientation,
) -> Result<Hypergraph, IoError> {
    let _span = nwhy_obs::span("io.read_tsv");
    let mut lines = Lines::new(reader);
    let mut incidences: Vec<(Id, Id)> = Vec::new();
    let mut max_edge = 0usize;
    let mut max_node = 0usize;
    while let Some((n, line)) = lines.next_line()? {
        let t = trim_start(line);
        if t.is_empty() || t.starts_with(b"%") || t.starts_with(b"#") {
            continue;
        }
        let mut toks = tokens(t);
        let a = next_usize(&mut toks, n, "left ID")?;
        let b = next_usize(&mut toks, n, "right ID")?;
        if a == 0 || b == 0 {
            return Err(IoError::parse(n, "IDs are 1-based; found 0"));
        }
        let (edge, node) = match orientation {
            Orientation::NodeEdge => (b, a),
            Orientation::EdgeNode => (a, b),
        };
        max_edge = max_edge.max(edge);
        max_node = max_node.max(node);
        incidences.push((
            checked_id((edge - 1) as u64, n, "hyperedge ID")?,
            checked_id((node - 1) as u64, n, "hypernode ID")?,
        ));
    }
    nwhy_obs::add(Counter::IoBytesRead, lines.bytes());
    nwhy_obs::add(Counter::IoLinesParsed, lines.count());
    nwhy_obs::add(Counter::IoIncidencesRead, incidences.len() as u64);
    let mut bel = BiEdgeList::from_incidences(max_edge, max_node, incidences);
    bel.sort_dedup();
    Ok(Hypergraph::from_biedgelist(&bel))
}

/// Writes `h` as a bipartite TSV (1-based, `node<TAB>edge` per line, a
/// `%` header). Round-trips with
/// `read_bipartite_tsv(_, Orientation::NodeEdge)` when the trailing IDs
/// of both spaces are in use.
pub fn write_bipartite_tsv<W: Write>(mut w: W, h: &Hypergraph) -> Result<(), IoError> {
    let _span = nwhy_obs::span("io.write_bipartite_tsv");
    writeln!(w, "% bip unweighted (node edge), 1-based")?;
    for e in 0..ids::from_usize(h.num_hyperedges()) {
        for &v in h.edge_members(e) {
            writeln!(w, "{}\t{}", v + 1, e + 1)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwhy_core::fixtures::paper_hypergraph;
    use std::io::Cursor;

    #[test]
    fn reads_node_edge_orientation() {
        let tsv = "% bip\n1 1\n2 1\n2 2\n3 2\n";
        let h = read_bipartite_tsv(Cursor::new(tsv), Orientation::NodeEdge).unwrap();
        assert_eq!(h.num_hyperedges(), 2);
        assert_eq!(h.num_hypernodes(), 3);
        assert_eq!(h.edge_members(0), &[0, 1]);
        assert_eq!(h.edge_members(1), &[1, 2]);
    }

    #[test]
    fn reads_edge_node_orientation() {
        let tsv = "1 1\n1 2\n2 2\n";
        let h = read_bipartite_tsv(Cursor::new(tsv), Orientation::EdgeNode).unwrap();
        assert_eq!(h.num_hyperedges(), 2);
        assert_eq!(h.edge_members(0), &[0, 1]);
        assert_eq!(h.edge_members(1), &[1]);
    }

    #[test]
    fn ignores_weight_and_timestamp_columns() {
        let tsv = "1 1 5.0 1234567\n2 1 1.0 1234568\n";
        let h = read_bipartite_tsv(Cursor::new(tsv), Orientation::NodeEdge).unwrap();
        assert_eq!(h.num_incidences(), 2);
    }

    #[test]
    fn rejects_zero_based_ids() {
        let e = read_bipartite_tsv(Cursor::new("0 1\n"), Orientation::NodeEdge).unwrap_err();
        assert!(e.to_string().contains("1-based"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_bipartite_tsv(Cursor::new("a b\n"), Orientation::NodeEdge).is_err());
        assert!(read_bipartite_tsv(Cursor::new("1\n"), Orientation::NodeEdge).is_err());
    }

    #[test]
    fn rejects_id_overflow() {
        // 1-based 4294967297 maps to 0-based 4294967296 = u32::MAX + 1
        let e =
            read_bipartite_tsv(Cursor::new("1 4294967297\n"), Orientation::NodeEdge).unwrap_err();
        assert!(matches!(e, IoError::IdOverflow { line: 1, .. }));
    }

    #[test]
    fn duplicates_collapse() {
        let tsv = "1 1\n1 1\n";
        let h = read_bipartite_tsv(Cursor::new(tsv), Orientation::NodeEdge).unwrap();
        assert_eq!(h.num_incidences(), 1);
    }

    #[test]
    fn empty_file_is_empty_hypergraph() {
        let h = read_bipartite_tsv(Cursor::new("% nothing\n"), Orientation::NodeEdge).unwrap();
        assert_eq!(h.num_hyperedges(), 0);
    }

    #[test]
    fn roundtrip_fixture() {
        let h = paper_hypergraph();
        let mut buf = Vec::new();
        write_bipartite_tsv(&mut buf, &h).unwrap();
        let h2 = read_bipartite_tsv(Cursor::new(buf), Orientation::NodeEdge).unwrap();
        assert_eq!(h, h2);
    }
}
