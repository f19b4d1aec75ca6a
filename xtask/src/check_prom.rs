//! `cargo xtask check-prom` — a dependency-free validator for the
//! Prometheus text exposition (format 0.0.4) that `nwhy-cli
//! --metrics=prom` emits.
//!
//! CI pipes the CLI's output through this checker so a formatting
//! regression (bad metric name, torn label escaping, non-cumulative
//! histogram, NaN sample) fails the build rather than silently breaking
//! the scrape. The checks are stricter than a Prometheus server, which
//! is deliberate: this validates *our* exposition contract, not the
//! whole grammar.
//!
//! Checks, per family:
//!
//! - every sample line parses as `name{labels} value`;
//! - names match `[a-zA-Z_:][a-zA-Z0-9_:]*`, labels
//!   `[a-zA-Z_][a-zA-Z0-9_]*`, label values use only the three legal
//!   escapes (`\\`, `\"`, `\n`);
//! - every sample's family carries exactly one `# TYPE`, declared
//!   before its first sample;
//! - sample values are finite (the nwhy exposition never emits `NaN` —
//!   empty windows drop the sample instead);
//! - `counter` sample names end in `_total`;
//! - `histogram` `_bucket` series carry an `le` label, appear in
//!   ascending `le` order, are cumulative, and end with an `le="+Inf"`
//!   bucket equal to the family's `_count`;
//! - no duplicate (name, labelset) samples.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One validation failure, with the 1-indexed line it points at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for PromError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Outcome of a validation pass: family/sample counts for the summary
/// line plus every error found (empty = valid).
#[derive(Debug, Default)]
pub struct PromReport {
    pub families: usize,
    pub samples: usize,
    pub errors: Vec<PromError>,
}

impl PromReport {
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
    }
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Label pairs in their on-wire (still-escaped) form.
type Labels = Vec<(String, String)>;

/// Splits `name{labels}` into the name and its parsed label pairs.
/// Labels keep their *escaped* form (escaping is validated, not
/// decoded — duplicate detection wants the on-wire representation).
fn parse_series(s: &str) -> Result<(&str, Labels), String> {
    let Some(open) = s.find('{') else {
        return Ok((s, Vec::new()));
    };
    let name = &s[..open];
    let rest = &s[open + 1..];
    let Some(body) = rest.strip_suffix('}') else {
        return Err("unterminated label set (missing `}`)".into());
    };
    let mut labels = Vec::new();
    let mut it = body.char_indices().peekable();
    while it.peek().is_some() {
        // label name up to '='
        let start = it.peek().map_or(0, |&(i, _)| i);
        let mut eq = None;
        for (i, c) in it.by_ref() {
            if c == '=' {
                eq = Some(i);
                break;
            }
        }
        let Some(eq) = eq else {
            return Err("label without `=`".into());
        };
        let lname = &body[start..eq];
        if !valid_label_name(lname) {
            return Err(format!("bad label name `{lname}`"));
        }
        // opening quote
        match it.next() {
            Some((_, '"')) => {}
            _ => return Err(format!("label `{lname}` value must be quoted")),
        }
        // escaped value up to the closing quote
        let vstart = it.peek().map_or(body.len(), |&(i, _)| i);
        let mut vend = None;
        while let Some((i, c)) = it.next() {
            match c {
                '\\' => match it.next() {
                    Some((_, '\\' | '"' | 'n')) => {}
                    _ => return Err(format!("label `{lname}` has an invalid escape")),
                },
                '"' => {
                    vend = Some(i);
                    break;
                }
                '\n' => return Err(format!("label `{lname}` has a raw newline")),
                _ => {}
            }
        }
        let Some(vend) = vend else {
            return Err(format!("label `{lname}` value is unterminated"));
        };
        labels.push((lname.to_string(), body[vstart..vend].to_string()));
        // separator or end
        match it.next() {
            None => break,
            Some((_, ',')) => {}
            Some((_, c)) => return Err(format!("expected `,` between labels, got `{c}`")),
        }
    }
    Ok((name, labels))
}

/// The family a sample belongs to: histogram series suffixes collapse
/// onto their base name, as `# TYPE base histogram` covers them.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    if types.contains_key(name) {
        return name;
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

/// Parses an exposition value: plain float syntax plus the `+Inf` /
/// `-Inf` spellings used in `le` labels and sample values.
fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" | "Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        _ => s.parse().ok(),
    }
}

/// Validates a full exposition document.
#[allow(clippy::too_many_lines)] // lint: one linear pass over the grammar
pub fn check(input: &str) -> PromReport {
    let mut report = PromReport::default();
    let mut types: BTreeMap<String, String> = BTreeMap::new(); // family -> type
    let mut type_line: BTreeMap<String, usize> = BTreeMap::new();
    let mut helps: BTreeSet<String> = BTreeSet::new();
    let mut seen_series: BTreeSet<String> = BTreeSet::new();
    // histogram family -> [(le, cumulative count, line)]
    let mut buckets: BTreeMap<String, Vec<(f64, f64, usize)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    let err = |line: usize, message: String| PromError { line, message };

    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("").trim();
                if !valid_metric_name(name) {
                    report
                        .errors
                        .push(err(line_no, format!("bad TYPE metric name `{name}`")));
                    continue;
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    report
                        .errors
                        .push(err(line_no, format!("unknown TYPE `{kind}` for `{name}`")));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    report
                        .errors
                        .push(err(line_no, format!("duplicate TYPE for `{name}`")));
                }
                type_line.insert(name.to_string(), line_no);
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let name = rest.split(' ').next().unwrap_or("");
                if !valid_metric_name(name) {
                    report
                        .errors
                        .push(err(line_no, format!("bad HELP metric name `{name}`")));
                }
                if !helps.insert(name.to_string()) {
                    report
                        .errors
                        .push(err(line_no, format!("duplicate HELP for `{name}`")));
                }
            }
            // other comments are free-form
            continue;
        }

        // sample line: `series value` (a timestamp would be a second
        // trailing field; the nwhy exposition never emits one)
        let Some((series, rest)) = line.rsplit_once(' ') else {
            report
                .errors
                .push(err(line_no, "sample line has no value field".into()));
            continue;
        };
        let (name, labels) = match parse_series(series) {
            Ok(parsed) => parsed,
            Err(e) => {
                report.errors.push(err(line_no, e));
                continue;
            }
        };
        if !valid_metric_name(name) {
            report
                .errors
                .push(err(line_no, format!("bad metric name `{name}`")));
            continue;
        }
        let Some(value) = parse_value(rest) else {
            report
                .errors
                .push(err(line_no, format!("unparsable value `{rest}`")));
            continue;
        };
        if value.is_nan() {
            report.errors.push(err(
                line_no,
                format!("`{name}` emits NaN (the nwhy exposition must drop the sample instead)"),
            ));
        }
        report.samples += 1;
        if !seen_series.insert(series.to_string()) {
            report
                .errors
                .push(err(line_no, format!("duplicate series `{series}`")));
        }

        let family = family_of(name, &types);
        match types.get(family).map(String::as_str) {
            None => {
                report.errors.push(err(
                    line_no,
                    format!("sample `{name}` has no preceding # TYPE"),
                ));
            }
            Some("counter") => {
                if !name.ends_with("_total") {
                    report.errors.push(err(
                        line_no,
                        format!("counter sample `{name}` must end in `_total`"),
                    ));
                }
                if value < 0.0 {
                    report
                        .errors
                        .push(err(line_no, format!("counter `{name}` is negative")));
                }
            }
            Some("histogram") => {
                if name.ends_with("_bucket") {
                    let Some(le) = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .and_then(|(_, v)| parse_value(v))
                    else {
                        report.errors.push(err(
                            line_no,
                            format!("histogram bucket `{series}` lacks a numeric `le` label"),
                        ));
                        continue;
                    };
                    buckets
                        .entry(family.to_string())
                        .or_default()
                        .push((le, value, line_no));
                } else if name.ends_with("_count") {
                    counts.insert(family.to_string(), value);
                }
            }
            Some(_) => {}
        }
    }

    // cross-line histogram checks
    for (family, series) in &buckets {
        let mut prev_le = f64::NEG_INFINITY;
        let mut prev_count = 0.0f64;
        let mut saw_inf = false;
        for &(le, count, line_no) in series {
            if le <= prev_le {
                report.errors.push(err(
                    line_no,
                    format!("`{family}_bucket` le values must be strictly ascending"),
                ));
            }
            if count < prev_count {
                report.errors.push(err(
                    line_no,
                    format!("`{family}_bucket` counts must be cumulative"),
                ));
            }
            if le.is_infinite() && le > 0.0 {
                saw_inf = true;
                if let Some(&total) = counts.get(family) {
                    #[allow(clippy::float_cmp)] // lint: both sides are exact u64 renders
                    if count != total {
                        report.errors.push(err(
                            line_no,
                            format!("`{family}` +Inf bucket {count} != _count {total}"),
                        ));
                    }
                }
            }
            prev_le = le;
            prev_count = count;
        }
        if !saw_inf {
            let line_no = series.last().map_or(0, |&(_, _, l)| l);
            report.errors.push(err(
                line_no,
                format!("`{family}_bucket` is missing the `le=\"+Inf\"` bucket"),
            ));
        }
    }

    report.families = types.len();
    report
}

/// Asserts that at least one sample line contains `needle` — a metric
/// name (`nwhy_op_latency_microseconds`) or a label fragment
/// (`quantile="0.99"`). CI uses this to require the per-op latency
/// gauges to be present. Comment and blank lines never satisfy a
/// requirement.
pub fn requires(input: &str, needle: &str) -> bool {
    input
        .lines()
        .any(|l| !l.starts_with('#') && !l.trim().is_empty() && l.contains(needle))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# HELP nwhy_bfs_rounds_total Cumulative nwhy counter bfs.rounds.
# TYPE nwhy_bfs_rounds_total counter
nwhy_bfs_rounds_total 12
# HELP nwhy_hist_bfs_frontier_edges Pow2-bucket histogram.
# TYPE nwhy_hist_bfs_frontier_edges histogram
nwhy_hist_bfs_frontier_edges_bucket{le=\"0\"} 1
nwhy_hist_bfs_frontier_edges_bucket{le=\"1\"} 3
nwhy_hist_bfs_frontier_edges_bucket{le=\"+Inf\"} 4
nwhy_hist_bfs_frontier_edges_sum 9
nwhy_hist_bfs_frontier_edges_count 4
# HELP nwhy_op_latency_microseconds Span close latency quantiles per leaf name.
# TYPE nwhy_op_latency_microseconds gauge
nwhy_op_latency_microseconds{op=\"sline.hashmap\",quantile=\"0.99\"} 127
";

    #[test]
    fn accepts_a_well_formed_exposition() {
        let r = check(GOOD);
        assert!(r.passed(), "{:?}", r.errors);
        assert_eq!(r.families, 3);
        assert_eq!(r.samples, 7);
    }

    #[test]
    fn accepts_the_empty_document() {
        assert!(check("").passed());
    }

    #[test]
    fn rejects_samples_without_type() {
        let r = check("loose_metric 1\n");
        assert!(!r.passed());
        assert!(r.errors[0].message.contains("no preceding # TYPE"));
    }

    #[test]
    fn rejects_nan_and_bad_values() {
        let doc = "# TYPE g gauge\ng NaN\n";
        let r = check(doc);
        assert!(r.errors.iter().any(|e| e.message.contains("NaN")));
        let r = check("# TYPE g gauge\ng twelve\n");
        assert!(r.errors.iter().any(|e| e.message.contains("unparsable")));
    }

    #[test]
    fn rejects_counter_without_total_suffix() {
        let r = check("# TYPE nwhy_x counter\nnwhy_x 1\n");
        assert!(r.errors.iter().any(|e| e.message.contains("_total")));
    }

    #[test]
    fn rejects_non_cumulative_and_unordered_buckets() {
        let doc = "\
# TYPE h histogram
h_bucket{le=\"1\"} 5
h_bucket{le=\"0\"} 2
h_bucket{le=\"+Inf\"} 5
h_count 5
";
        let r = check(doc);
        assert!(r.errors.iter().any(|e| e.message.contains("ascending")));
        assert!(r.errors.iter().any(|e| e.message.contains("cumulative")));
    }

    #[test]
    fn rejects_missing_inf_bucket_and_count_mismatch() {
        let r = check("# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\n");
        assert!(r.errors.iter().any(|e| e.message.contains("+Inf")));
        let doc = "\
# TYPE h histogram
h_bucket{le=\"+Inf\"} 3
h_count 4
";
        let r = check(doc);
        assert!(r.errors.iter().any(|e| e.message.contains("!= _count")));
    }

    #[test]
    fn rejects_duplicates_and_bad_names() {
        let doc = "# TYPE g gauge\ng{op=\"a\"} 1\ng{op=\"a\"} 2\n";
        let r = check(doc);
        assert!(r
            .errors
            .iter()
            .any(|e| e.message.contains("duplicate series")));
        let r = check("# TYPE g gauge\n# TYPE g gauge\ng 1\n");
        assert!(r
            .errors
            .iter()
            .any(|e| e.message.contains("duplicate TYPE")));
        let r = check("# TYPE 0bad gauge\n");
        assert!(!r.passed());
    }

    #[test]
    fn validates_label_escaping() {
        let ok = "# TYPE g gauge\ng{op=\"a\\\\b\\\"c\\nd\"} 1\n";
        assert!(check(ok).passed(), "{:?}", check(ok).errors);
        let bad = "# TYPE g gauge\ng{op=\"a\\qb\"} 1\n";
        assert!(check(bad)
            .errors
            .iter()
            .any(|e| e.message.contains("invalid escape")));
        let unterminated = "# TYPE g gauge\ng{op=\"a} 1\n";
        assert!(!check(unterminated).passed());
    }

    #[test]
    fn requires_finds_family_names_and_label_fragments() {
        assert!(requires(GOOD, "nwhy_op_latency_microseconds"));
        assert!(requires(GOOD, "bfs_rounds"));
        assert!(requires(GOOD, "quantile=\"0.99\""));
        assert!(!requires(GOOD, "nwhy_cc_rounds"));
        assert!(!requires(GOOD, "quantile=\"0.95\""));
        // comments don't satisfy a requirement
        assert!(!requires("# HELP ghost metric\n", "ghost"));
    }
}
