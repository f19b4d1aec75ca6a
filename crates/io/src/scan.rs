//! The byte-level line and integer scanner behind every text reader.
//!
//! [`Lines`] reads one line at a time with `BufRead::read_until` into a
//! buffer reused across lines, so the whole input is never in memory at
//! once and no line becomes a `String`. [`tokens`] splits a line at
//! ASCII whitespace and [`parse_u64`] reads a decimal token, the
//! byte-level mirror of `edge_list::push_decimal`.
//!
//! The readers parsed `str` lines before; the scanner accepts the same
//! ASCII inputs with the same results and line numbers. Line breaks are
//! those of `BufRead::lines` (`\n`, and `\r\n` counts as one). Whitespace
//! is the ASCII part of `char::is_whitespace`: space, `\t`, `\n`, `\x0b`,
//! `\x0c` and `\r`. A non-ASCII byte is never whitespace, so non-ASCII
//! whitespace and invalid UTF-8 inside a token make it malformed.

use crate::error::IoError;
use std::io::BufRead;

/// Lines of a [`BufRead`], numbered from 1.
pub(crate) struct Lines<R> {
    reader: R,
    /// The last line read, reused for the next one.
    line: Vec<u8>,
    /// 1-based number of the last line returned.
    number: usize,
    /// `Σ (len + 1)` over the lines returned, the `io.bytes_read` count.
    bytes: u64,
}

impl<R: BufRead> Lines<R> {
    pub(crate) fn new(reader: R) -> Self {
        Self {
            reader,
            line: Vec::new(),
            number: 0,
            bytes: 0,
        }
    }

    /// How many lines have been returned.
    pub(crate) fn count(&self) -> u64 {
        self.number as u64
    }

    /// Bytes consumed, counting each line's terminator as one byte.
    pub(crate) fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The next line, without its `\n` or `\r\n`, and its 1-based
    /// number; `None` at the end.
    // lint: obs: per-line hot loop — a span here would dominate the work;
    // the readers that call it carry the instrumentation
    pub(crate) fn next_line(&mut self) -> Result<Option<(usize, &[u8])>, IoError> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Ok(None);
        }
        // `BufRead::lines` drops the `\r` of a `\r\n` only
        let line = match self.line.strip_suffix(b"\n") {
            Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
            None => &self.line,
        };
        self.number += 1;
        self.bytes += line.len() as u64 + 1;
        Ok(Some((self.number, line)))
    }
}

/// `char::is_whitespace` on an ASCII byte.
#[inline]
pub(crate) fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// `line` without leading whitespace.
#[inline]
pub(crate) fn trim_start(line: &[u8]) -> &[u8] {
    let start = line
        .iter()
        .position(|&b| !is_space(b))
        .unwrap_or(line.len());
    line.get(start..).unwrap_or_default()
}

/// The whitespace-separated tokens of `line`, none of them empty.
#[inline]
pub(crate) fn tokens(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    line.split(|&b| is_space(b)).filter(|t| !t.is_empty())
}

/// Parses a token as `str::parse::<u64>` does: an optional `+`, then one
/// or more decimal digits whose value fits `u64`.
#[inline]
pub(crate) fn parse_u64(token: &[u8]) -> Option<u64> {
    let digits = token.strip_prefix(b"+").unwrap_or(token);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |n, &b| {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n.checked_mul(10)?.checked_add(u64::from(d))
    })
}

/// The next token of `tokens`, parsed as a `usize` by [`parse_u64`]; a
/// missing or malformed one is the parse error "missing `what`" or
/// "invalid `what`" at `line`.
pub(crate) fn next_usize<'a>(
    tokens: &mut impl Iterator<Item = &'a [u8]>,
    line: usize,
    what: &str,
) -> Result<usize, IoError> {
    let token = tokens
        .next()
        .ok_or_else(|| IoError::parse(line, format!("missing {what}")))?;
    parse_u64(token)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or_else(|| IoError::parse(line, format!("invalid {what}")))
}

/// A token as it reads in an error message: `str`'s `Debug` form, as the
/// readers printed it when they parsed `str` lines.
pub(crate) fn quoted(token: &[u8]) -> String {
    format!("{:?}", String::from_utf8_lossy(token))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::{BufReader, Cursor};

    /// Every line through a reader whose blocks are `block` bytes long.
    fn lines_of(text: &[u8], block: usize) -> (Vec<Vec<u8>>, u64) {
        let mut lines = Lines::new(BufReader::with_capacity(block, Cursor::new(text)));
        let mut out = Vec::new();
        while let Some((number, line)) = lines.next_line().unwrap() {
            assert_eq!(number, out.len() + 1);
            out.push(line.to_vec());
        }
        assert_eq!(lines.count(), out.len() as u64);
        (out, lines.bytes())
    }

    /// `BufRead::lines` on the same text, and its byte count.
    fn std_lines(text: &str) -> (Vec<Vec<u8>>, u64) {
        let lines: Vec<Vec<u8>> = Cursor::new(text)
            .lines()
            .map(|l| l.unwrap().into_bytes())
            .collect();
        let bytes = lines.iter().map(|l| l.len() as u64 + 1).sum();
        (lines, bytes)
    }

    #[test]
    fn splits_like_bufread_lines() {
        for text in [
            "", "\n", "a", "a\n", "a\r\nb\r", "\r\n\r\n", "x\n\ny\n", "a\rb\n",
        ] {
            for block in [1, 2, 3, 64] {
                assert_eq!(
                    lines_of(text.as_bytes(), block),
                    std_lines(text),
                    "{text:?}"
                );
            }
        }
    }

    #[test]
    fn parses_like_str_parse() {
        for tok in [
            "0",
            "+7",
            "007",
            "+",
            "-1",
            "-0",
            "++1",
            "1+",
            "x",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
        ] {
            assert_eq!(parse_u64(tok.as_bytes()), tok.parse().ok(), "{tok:?}");
        }
        assert_eq!(parse_u64(b""), None);
    }

    #[test]
    fn whitespace_is_ascii_char_whitespace() {
        for b in 0u8..=127 {
            assert_eq!(is_space(b), char::from(b).is_whitespace(), "{b:#x}");
        }
        for b in 128u8..=255 {
            assert!(!is_space(b));
        }
        let toks: Vec<&[u8]> = tokens(b" 1\t2\x0b3\x0c4\r5  ").collect();
        assert_eq!(toks, [b"1", b"2", b"3", b"4", b"5"]);
        assert_eq!(trim_start(b" \t#c"), b"#c");
        assert_eq!(quoted(b"a\"b"), "\"a\\\"b\"");
    }

    proptest! {
        #[test]
        fn prop_lines_match_bufread_lines(
            pieces in proptest::collection::vec(0usize..6, 0..40),
            block in 1usize..9,
        ) {
            let text: String = pieces.iter().map(|&p| ["ab", "\n", "\r", "\r\n", " ", "7"][p]).collect();
            prop_assert_eq!(lines_of(text.as_bytes(), block), std_lines(&text));
        }
    }
}
