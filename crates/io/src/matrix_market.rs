//! Matrix Market coordinate format for hypergraph incidence matrices.
//!
//! The incidence matrix of a hypergraph is `n × m` (hypernodes ×
//! hyperedges, §II-C of the paper) and generally *rectangular* — the
//! reason NWHy's data structures support rectangular matrices
//! (§III-B.1a). The reader accepts `pattern`, `integer`, and `real`
//! coordinate matrices in `general` symmetry (values are ignored;
//! presence of an entry is the incidence), with rows interpreted as
//! hypernodes and columns as hyperedges.

use crate::error::{checked_id, IoError};
use crate::scan::{next_usize, tokens, trim_start, Lines};
use nwhy_core::ids;
use nwhy_core::{BiEdgeList, Hypergraph, Id};
use nwhy_obs::Counter;
use std::io::{BufRead, Write};

/// Reads a Matrix Market coordinate file as a hypergraph incidence
/// matrix: rows = hypernodes, columns = hyperedges.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<Hypergraph, IoError> {
    let bel = read_biedgelist(reader)?;
    Ok(Hypergraph::from_biedgelist(&bel))
}

/// Reads the raw [`BiEdgeList`] (the paper's `graph_reader(mm_file)`).
pub fn read_biedgelist<R: BufRead>(reader: R) -> Result<BiEdgeList, IoError> {
    let _span = nwhy_obs::span("io.read_mm");
    let mut lines = Lines::new(reader);

    // Header line.
    let (line_no, header) = loop {
        match lines.next_line()? {
            Some((_, l)) if trim_start(l).is_empty() => continue,
            Some((n, l)) => break (n, l.to_ascii_lowercase()),
            None => return Err(IoError::parse(1, "empty file")),
        }
    };
    let has = |word: &[u8]| header.windows(word.len()).any(|w| w == word);
    if !header.starts_with(b"%%matrixmarket") {
        return Err(IoError::parse(line_no, "missing %%MatrixMarket header"));
    }
    if !has(b"coordinate") {
        return Err(IoError::parse(
            line_no,
            "only coordinate (sparse) matrices are supported",
        ));
    }
    if has(b"complex") || has(b"hermitian") {
        return Err(IoError::parse(
            line_no,
            "complex matrices are not supported",
        ));
    }
    let symmetric = has(b"symmetric");
    let has_values = !has(b"pattern");

    // Dimension line (after % comments).
    let (dim_line_no, dims) = loop {
        match lines.next_line()? {
            Some((n, l)) => {
                let t = trim_start(l);
                if t.is_empty() || t.starts_with(b"%") {
                    continue;
                }
                break (n, l);
            }
            None => return Err(IoError::parse(line_no + 1, "missing dimension line")),
        }
    };
    let (n_rows, n_cols, nnz) = {
        let mut dims = tokens(dims);
        (
            next_usize(&mut dims, dim_line_no, "row count")?,
            next_usize(&mut dims, dim_line_no, "column count")?,
            next_usize(&mut dims, dim_line_no, "nonzero count")?,
        )
    };
    if symmetric && n_rows != n_cols {
        return Err(IoError::parse(
            dim_line_no,
            "symmetric matrix must be square",
        ));
    }

    // the `io.*` counters cover the entry lines only, not the header,
    // the dimension line or the comments between them
    let (head_lines, head_bytes) = (lines.count(), lines.bytes());
    // the header's count is a claim: the list grows with the entries read
    let mut incidences: Vec<(Id, Id)> = Vec::new();
    let mut seen = 0usize;
    while let Some((n, l)) = lines.next_line()? {
        let t = trim_start(l);
        if t.is_empty() || t.starts_with(b"%") {
            continue;
        }
        let mut toks = tokens(t);
        let row = next_usize(&mut toks, n, "row index")?;
        let col = next_usize(&mut toks, n, "column index")?;
        if has_values && toks.next().is_none() {
            return Err(IoError::parse(n, "missing value"));
        }
        if row == 0 || col == 0 || row > n_rows || col > n_cols {
            return Err(IoError::parse(
                n,
                format!("entry ({row},{col}) out of bounds {n_rows}x{n_cols}"),
            ));
        }
        // rows = hypernodes, cols = hyperedges; store (hyperedge, hypernode)
        let col_id = checked_id((col - 1) as u64, n, "column (hyperedge) index")?;
        let row_id = checked_id((row - 1) as u64, n, "row (hypernode) index")?;
        incidences.push((col_id, row_id));
        if symmetric && row != col {
            incidences.push((row_id, col_id));
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(IoError::parse(
            dim_line_no,
            format!("expected {nnz} entries, found {seen}"),
        ));
    }
    nwhy_obs::add(Counter::IoBytesRead, lines.bytes() - head_bytes);
    nwhy_obs::add(Counter::IoLinesParsed, lines.count() - head_lines);
    nwhy_obs::add(Counter::IoIncidencesRead, incidences.len() as u64);
    let mut bel = BiEdgeList::from_incidences(n_cols, n_rows, incidences);
    bel.sort_dedup();
    Ok(bel)
}

/// Writes `h` as a Matrix Market `pattern general` coordinate file
/// (rows = hypernodes, columns = hyperedges). Round-trips with
/// [`read_matrix_market`].
pub fn write_matrix_market<W: Write>(mut w: W, h: &Hypergraph) -> Result<(), IoError> {
    let _span = nwhy_obs::span("io.write_mm");
    writeln!(w, "%%MatrixMarket matrix coordinate pattern general")?;
    writeln!(
        w,
        "% hypergraph incidence matrix: rows=hypernodes cols=hyperedges"
    )?;
    writeln!(
        w,
        "{} {} {}",
        h.num_hypernodes(),
        h.num_hyperedges(),
        h.num_incidences()
    )?;
    for e in 0..ids::from_usize(h.num_hyperedges()) {
        for &v in h.edge_members(e) {
            writeln!(w, "{} {}", v + 1, e + 1)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwhy_core::fixtures::paper_hypergraph;
    use std::io::Cursor;

    fn read_str(s: &str) -> Result<Hypergraph, IoError> {
        read_matrix_market(Cursor::new(s))
    }

    #[test]
    fn reads_pattern_general() {
        let mm = "%%MatrixMarket matrix coordinate pattern general\n\
                  % a comment\n\
                  3 2 4\n\
                  1 1\n\
                  2 1\n\
                  2 2\n\
                  3 2\n";
        let h = read_str(mm).unwrap();
        assert_eq!(h.num_hypernodes(), 3);
        assert_eq!(h.num_hyperedges(), 2);
        assert_eq!(h.edge_members(0), &[0, 1]);
        assert_eq!(h.edge_members(1), &[1, 2]);
    }

    #[test]
    fn reads_real_values_ignoring_them() {
        let mm = "%%MatrixMarket matrix coordinate real general\n\
                  2 2 2\n\
                  1 1 3.5\n\
                  2 2 -1.0\n";
        let h = read_str(mm).unwrap();
        assert_eq!(h.num_incidences(), 2);
    }

    #[test]
    fn reads_symmetric_expanding_both_triangles() {
        let mm = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                  3 3 2\n\
                  2 1\n\
                  3 3\n";
        let h = read_str(mm).unwrap();
        // entry (2,1) also implies (1,2); diagonal (3,3) only once
        assert_eq!(h.num_incidences(), 3);
        assert_eq!(h.edge_members(0), &[1]);
        assert_eq!(h.edge_members(1), &[0]);
        assert_eq!(h.edge_members(2), &[2]);
    }

    #[test]
    fn rejects_missing_header() {
        assert!(matches!(
            read_str("3 2 0\n"),
            Err(IoError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn rejects_array_format() {
        let e = read_str("%%MatrixMarket matrix array real general\n2 2\n1.0\n").unwrap_err();
        assert!(e.to_string().contains("coordinate"));
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let mm = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n";
        let e = read_str(mm).unwrap_err();
        assert!(e.to_string().contains("out of bounds"));
    }

    #[test]
    fn rejects_zero_index() {
        let mm = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n";
        assert!(read_str(mm).is_err());
    }

    #[test]
    fn rejects_id_overflow() {
        let mm = "%%MatrixMarket matrix coordinate pattern general\n\
                  4294967297 1 1\n\
                  4294967297 1\n";
        let e = read_str(mm).unwrap_err();
        assert!(matches!(e, IoError::IdOverflow { line: 3, .. }));
    }

    #[test]
    fn nonzero_count_is_a_claim_not_a_reservation() {
        // reserving the claimed count up front aborted the process
        let mm = "%%MatrixMarket matrix coordinate pattern general\n2 2 99999999999999\n1 1\n";
        let e = read_str(mm).unwrap_err();
        assert!(e
            .to_string()
            .contains("expected 99999999999999 entries, found 1"));
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let mm = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n";
        let e = read_str(mm).unwrap_err();
        assert!(e.to_string().contains("expected 2 entries"));
    }

    #[test]
    fn rejects_missing_value_in_real_matrix() {
        let mm = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n";
        let e = read_str(mm).unwrap_err();
        assert!(e.to_string().contains("missing value"));
    }

    #[test]
    fn rejects_empty_file() {
        assert!(read_str("").is_err());
        assert!(read_str("\n\n").is_err());
    }

    #[test]
    fn duplicate_entries_are_deduped() {
        let mm = "%%MatrixMarket matrix coordinate pattern general\n2 1 2\n1 1\n1 1\n";
        let h = read_str(mm).unwrap();
        assert_eq!(h.num_incidences(), 1);
    }

    #[test]
    fn roundtrip_fixture() {
        let h = paper_hypergraph();
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &h).unwrap();
        let h2 = read_matrix_market(Cursor::new(buf)).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn roundtrip_with_isolated_entities() {
        // hyperedge 1 empty, hypernode 3 isolated
        let bel = nwhy_core::BiEdgeList::from_incidences(2, 4, vec![(0, 0), (0, 2)]);
        let h = Hypergraph::from_biedgelist(&bel);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &h).unwrap();
        let h2 = read_matrix_market(Cursor::new(buf)).unwrap();
        assert_eq!(h, h2);
    }
}
