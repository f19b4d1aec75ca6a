//! Plain-text hyperedge lists: one hyperedge per line.
//!
//! Each non-comment line holds the whitespace-separated hypernode IDs
//! (0-based) of one hyperedge; a blank line is an empty hyperedge.
//! Lines starting with `#` are comments. This is the layout community
//! datasets (e.g. SNAP's `com-*.all.cmty.txt` files, the source of the
//! paper's Orkut/Friendster hypergraphs) use, modulo their 1-based IDs.
//!
//! **Load path.** [`read_hyperedge_list`] reads the input line by line
//! with the byte-level scanner of `scan` and appends each line's IDs
//! straight to the hyperedge CSR's `offsets`/`targets`, under the
//! `io.decode` span. [`Hypergraph::from_edge_rows`] then sorts and
//! deduplicates only the rows that are not already strictly increasing
//! and runs the one transpose (`build.transpose`). No line becomes a
//! `String`, and there is no per-hyperedge `Vec` and no incidence-pair
//! list.
//!
//! **Write path.** [`write_hyperedge_list`] formats each row with the
//! same digit writer as the s-line edge lists.

use crate::edge_list::push_decimal;
use crate::error::{checked_id, IoError};
use crate::scan::{parse_u64, quoted, tokens, trim_start, Lines};
use nwhy_core::ids;
use nwhy_core::{Hypergraph, Id};
use nwhy_obs::Counter;
use std::io::{BufRead, Write};

/// Reads a hyperedge-list file. The hypernode ID space is the smallest
/// `0..n` covering all IDs seen.
pub fn read_hyperedge_list<R: BufRead>(reader: R) -> Result<Hypergraph, IoError> {
    let _span = nwhy_obs::span("io.read_hyperedge_list");
    let decode = nwhy_obs::span("io.decode");
    let mut lines = Lines::new(reader);
    let mut offsets = vec![0];
    let mut targets: Vec<Id> = Vec::new();
    // the rows up to the last non-empty one: trailing blank lines are
    // formatting, not hyperedges
    let mut rows = 0;
    while let Some((number, line)) = lines.next_line()? {
        if trim_start(line).starts_with(b"#") {
            continue;
        }
        let start = targets.len();
        push_ids(&mut targets, line, number)?;
        offsets.push(targets.len());
        if targets.len() > start {
            rows = offsets.len() - 1;
        }
    }
    offsets.truncate(rows + 1);
    nwhy_obs::add(Counter::IoBytesRead, lines.bytes());
    nwhy_obs::add(Counter::IoLinesParsed, lines.count());
    drop(decode);
    let h = Hypergraph::from_edge_rows(offsets, targets);
    nwhy_obs::add(Counter::IoIncidencesRead, h.num_incidences() as u64);
    Ok(h)
}

/// Appends the hypernode IDs of one line to `targets`; the first
/// malformed token is the error, as the `str` parser reported it.
#[inline]
fn push_ids(targets: &mut Vec<Id>, line: &[u8], number: usize) -> Result<(), IoError> {
    for token in tokens(line) {
        let raw = parse_u64(token).ok_or_else(|| {
            IoError::parse(number, format!("invalid hypernode ID {}", quoted(token)))
        })?;
        targets.push(checked_id(raw, number, "hypernode ID")?);
    }
    Ok(())
}

/// Writes `h` in the hyperedge-list format; round-trips with
/// [`read_hyperedge_list`] when no trailing hyperedge is empty and the
/// hypernode ID space has no trailing isolated IDs.
pub fn write_hyperedge_list<W: Write>(mut w: W, h: &Hypergraph) -> Result<(), IoError> {
    let _span = nwhy_obs::span("io.write_hyperedge_list");
    w.write_all(b"# nwhy hyperedge list: one hyperedge per line\n")?;
    let mut line = Vec::new();
    for e in 0..ids::from_usize(h.num_hyperedges()) {
        line.clear();
        for (k, &v) in h.edge_members(e).iter().enumerate() {
            if k > 0 {
                line.push(b' ');
            }
            push_decimal(&mut line, v);
        }
        line.push(b'\n');
        w.write_all(&line)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwhy_core::fixtures::paper_hypergraph;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn read_str(s: &str) -> Result<Hypergraph, IoError> {
        read_hyperedge_list(Cursor::new(s))
    }

    /// The `str`-based parse the byte scanner replaced, kept as the
    /// oracle it is held to.
    fn oracle<R: BufRead>(reader: R) -> Result<Hypergraph, IoError> {
        let mut memberships: Vec<Vec<Id>> = Vec::new();
        for (i, line) in reader.lines().enumerate() {
            let line = line?;
            let t = line.trim();
            if t.starts_with('#') {
                continue;
            }
            let mut members = Vec::new();
            for tok in t.split_whitespace() {
                let raw: u64 = tok
                    .parse()
                    .map_err(|_| IoError::parse(i + 1, format!("invalid hypernode ID {tok:?}")))?;
                members.push(checked_id(raw, i + 1, "hypernode ID")?);
            }
            members.sort_unstable();
            members.dedup();
            memberships.push(members);
        }
        while memberships.last().is_some_and(Vec::is_empty) {
            memberships.pop();
        }
        Ok(Hypergraph::from_memberships(&memberships))
    }

    /// Tokens the oracle test draws from: small IDs (with and without
    /// `+`), malformed tokens, comment marks and IDs past the `u32` and
    /// `u64` ranges. None is a legal ID above 63, so no case allocates a
    /// large hypernode space.
    const TOKENS: [&str; 19] = [
        "0",
        "7",
        "+5",
        "63",
        "007",
        "-1",
        "-0",
        "+",
        "-",
        "++1",
        "+-3",
        "x",
        "#",
        "#7",
        "1#",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "00000000000000000000042",
    ];

    /// Separators: every ASCII byte `char::is_whitespace` accepts within a
    /// line, alone and doubled.
    const SPACES: [&str; 7] = [" ", "\t", "\x0b", "\x0c", "\r", "  ", "\t "];

    /// One random `.hgr` text: lines of separated tokens, blank lines,
    /// LF or CRLF ends, and an optional final newline.
    fn arb_text() -> impl proptest::strategy::Strategy<Value = String> {
        let token = (0usize..TOKENS.len() * 3).prop_map(|k| {
            TOKENS
                .get(k)
                .map_or_else(|| (k % 40).to_string(), |t| (*t).to_string())
        });
        let line = (
            proptest::collection::vec((0usize..SPACES.len(), token), 0..6),
            0usize..SPACES.len() + 4,
            0u8..4,
        );
        (proptest::collection::vec(line, 0..8), 0u8..2).prop_map(|(lines, final_newline)| {
            let mut text = String::new();
            let count = lines.len();
            for (k, (tokens, trailing, end)) in lines.into_iter().enumerate() {
                for (n, (space, token)) in tokens.into_iter().enumerate() {
                    if n > 0 || space % 2 == 0 {
                        text.push_str(SPACES[space]);
                    }
                    text.push_str(&token);
                }
                text.push_str(SPACES.get(trailing).copied().unwrap_or(""));
                if k + 1 < count || final_newline == 1 {
                    text.push_str(if end == 0 { "\r\n" } else { "\n" });
                }
            }
            text
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        #[test]
        fn prop_reader_matches_str_oracle(text in arb_text(), block in 1usize..16) {
            let got = read_hyperedge_list(std::io::BufReader::with_capacity(block, Cursor::new(&text)));
            match (got, oracle(Cursor::new(&text))) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (a, b) => panic!("{text:?}: reader {a:?}, oracle {b:?}"),
            }
        }

        // digits up to `u32::MAX` are `push_decimal`'s own proptest; this
        // one holds the separators, the empty rows and the header
        #[test]
        fn prop_writer_matches_format_reference(ms in proptest::collection::vec(
            proptest::collection::vec(0u32..2000, 0..6), 0..10)) {
            let h = Hypergraph::from_memberships(&ms);
            let mut want = String::from("# nwhy hyperedge list: one hyperedge per line\n");
            for e in 0..ids::from_usize(h.num_hyperedges()) {
                let members: Vec<String> = h.edge_members(e).iter().map(|v| v.to_string()).collect();
                want.push_str(&format!("{}\n", members.join(" ")));
            }
            let mut got = Vec::new();
            write_hyperedge_list(&mut got, &h).unwrap();
            prop_assert_eq!(String::from_utf8(got).unwrap(), want);
        }
    }

    #[test]
    fn reads_basic_file() {
        let h = read_str("0 1 2\n2 3\n# comment\n3\n").unwrap();
        assert_eq!(h.num_hyperedges(), 3);
        assert_eq!(h.num_hypernodes(), 4);
        assert_eq!(h.edge_members(1), &[2, 3]);
    }

    #[test]
    fn interior_blank_line_is_empty_hyperedge() {
        let h = read_str("0 1\n\n2\n").unwrap();
        assert_eq!(h.num_hyperedges(), 3);
        assert_eq!(h.edge_degree(1), 0);
    }

    #[test]
    fn trailing_blank_lines_trimmed() {
        let h = read_str("0 1\n\n\n").unwrap();
        assert_eq!(h.num_hyperedges(), 1);
    }

    #[test]
    fn duplicate_members_deduped() {
        let h = read_str("5 5 5 1\n").unwrap();
        assert_eq!(h.edge_members(0), &[1, 5]);
    }

    #[test]
    fn rejects_garbage_ids() {
        let e = read_str("0 x 2\n").unwrap_err();
        assert!(e.to_string().contains("invalid hypernode ID"));
        assert!(read_str("-1\n").is_err());
    }

    #[test]
    fn rejects_id_overflow() {
        // One past u32::MAX does not fit the Id space. (u32::MAX itself is
        // a legal label, but materializing its 2^32-node ID space would
        // allocate gigabytes — the boundary is covered by checked_id.)
        let e = read_str("0 4294967296\n").unwrap_err();
        assert!(matches!(
            e,
            IoError::IdOverflow {
                line: 1,
                value: 4_294_967_296,
                ..
            }
        ));
        assert!(e.to_string().contains("32-bit Id space"));
    }

    #[test]
    fn roundtrip_fixture() {
        let h = paper_hypergraph();
        let mut buf = Vec::new();
        write_hyperedge_list(&mut buf, &h).unwrap();
        let h2 = read_hyperedge_list(Cursor::new(buf)).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn crlf_control_whitespace_and_no_final_newline() {
        let h = read_str("2\x0b1\r\n\x0c 3 +3\r\n\r\n 0\t").unwrap();
        assert_eq!(
            h,
            oracle(Cursor::new("2\x0b1\r\n\x0c 3 +3\r\n\r\n 0\t")).unwrap()
        );
        assert_eq!(h.num_hyperedges(), 4);
        assert_eq!(h.edge_members(0), &[1, 2]);
        assert_eq!(h.edge_members(1), &[3]);
        assert_eq!(h.edge_members(3), &[0]);
    }

    #[test]
    fn long_tokens_parse_like_str() {
        let h = read_str("00000000000000000000042 7\n").unwrap();
        assert_eq!(h.edge_members(0), &[7, 42]);
        let e = read_str("1\n2 99999999999999999999\n").unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 2, .. }));
        assert!(e.to_string().contains("\"99999999999999999999\""));
    }

    #[test]
    fn deliberate_differences_from_the_str_parser() {
        // non-ASCII whitespace no longer separates IDs
        let e = read_str("1\u{a0}2\n").unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 1, .. }));
        // invalid UTF-8 is a malformed token, not an I/O error ...
        let e = read_hyperedge_list(Cursor::new(b"0\n1\xff\n".to_vec())).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 2, .. }));
        // ... and in a comment it is ignored
        let h = read_hyperedge_list(Cursor::new(b"# \xff\n0 1\n".to_vec())).unwrap();
        assert_eq!(h.edge_members(0), &[0, 1]);
    }

    #[test]
    fn empty_input_is_empty_hypergraph() {
        let h = read_str("").unwrap();
        assert_eq!(h.num_hyperedges(), 0);
        assert_eq!(h.num_hypernodes(), 0);
    }
}
