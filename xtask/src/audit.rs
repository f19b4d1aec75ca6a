//! The call-graph audit families behind `cargo xtask audit`.
//!
//! Three whole-program rules sit on top of [`crate::callgraph`], each
//! with a checked-in manifest under `xtask/`:
//!
//! - **`panic-reach`** — for every entry point declared in
//!   `xtask/entrypoints.txt`, counts the unaudited `panic-path` sites
//!   (the per-file rule's raw findings) inside functions transitively
//!   reachable from it. `xtask/reach_baseline.txt` pins the allowed
//!   count per entry and only ratchets **down** (same contract as
//!   `panic_baseline.txt`); any growth fails with a shortest
//!   call-path witness (`entry → f → g — unwrap at file:line`) so the
//!   burn-down is actionable, not archaeological.
//! - **`alloc-in-hot-loop`** — flags allocation-shaped expressions
//!   (`Vec::new`, `with_capacity(0)`, `push` on a locally-grown vec,
//!   `collect`, `to_vec`, `to_owned`, `format!`, `vec!`, `Box::new`,
//!   `clone`) inside loop bodies of functions reachable from the
//!   seven s-line kernels and the hygra traversal drivers
//!   ([`HOT_ROOTS`]). Escape: `// lint: alloc: <why>` on the site or
//!   the comment block above.
//! - **`ordering-policy`** — every `Ordering::*` token in production
//!   code outside `crates/util/src/sync.rs` must match a declared
//!   `(path-prefix, op, ordering)` triple in
//!   `xtask/ordering_policy.txt`. `SeqCst` is denied unconditionally —
//!   even a policy line declaring it is itself a finding.
//!
//! Soundness stance: resolution is name+arity best-effort (see
//! [`crate::callgraph`]), so reach counts can under-approximate
//! through `dyn` dispatch, macros, and function pointers. The audit
//! therefore reports its unresolved-call count alongside the verdict
//! and never claims "panic-free" — only "no *resolvable* path grew".

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::callgraph::CallGraph;
use crate::lint::{
    self, json_escape, lint_file, Finding, ALLOC_HOT_LOOP, ORDERING_POLICY, PANIC_PATH, PANIC_REACH,
};
use crate::model::FileModel;
use crate::parse::{parse_file, ParsedFile};

/// The entry-point manifest, relative to the workspace root. One spec
/// per line (`#` comments): a full call-graph key or an unambiguous
/// `::`-suffix, e.g. `cmd_stats` or `SLineBuilder::edges`.
pub const ENTRYPOINTS: &str = "xtask/entrypoints.txt";
/// The per-entry panic-reach burn-down baseline, relative to the
/// workspace root. Format: `<allowed-count> <entry-spec>` per line.
pub const REACH_BASELINE: &str = "xtask/reach_baseline.txt";
/// The memory-ordering policy, relative to the workspace root. Format:
/// `<path-prefix> <op|*> <ordering>` per line.
pub const ORDERING_POLICY_FILE: &str = "xtask/ordering_policy.txt";
/// The namespaced audit marker for `alloc-in-hot-loop` escapes.
pub const ALLOC_MARKER: &str = "// lint: alloc";

/// The hot-loop roots: the s-line kernels (plus their queue variants),
/// the candidate-and-verify core they share and the hygra traversal
/// drivers. Reachability from these defines the
/// "hot set" the allocation rule patrols.
pub const HOT_ROOTS: [&str; 11] = [
    "slinegraph::naive::naive",
    "slinegraph::hashmap::hashmap",
    "slinegraph::intersection::intersection",
    "slinegraph::queue_single::queue_hashmap",
    "slinegraph::queue_two_phase::queue_intersection",
    "slinegraph::candidates::candidate_rows",
    "slinegraph::ensemble::ensemble",
    "hygra::bfs::hygra_bfs",
    "hygra::bfs::hygra_bfs_with_mode",
    "hygra::cc::hygra_cc",
    "hygra::engine::edge_map",
];

/// The atomic-op method names the ordering checker attributes an
/// `Ordering::*` argument to (nearest preceding, within the statement).
const ATOMIC_OPS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "into_inner",
];

/// The atomic memory orderings (`std::cmp::Ordering`'s variants are
/// deliberately absent, which keeps comparator code out of scope).
const ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Everything the audit consumes, injectable so tests can run the
/// whole engine on synthetic workspaces without touching disk.
pub struct AuditInputs {
    /// `(repo-relative path, content)` for every `.rs` file in scope.
    pub files: Vec<(String, String)>,
    /// Content of `xtask/entrypoints.txt`.
    pub entrypoints: String,
    /// Content of `xtask/reach_baseline.txt` (empty = baseline 0
    /// everywhere, which fails closed).
    pub reach_baseline: String,
    /// Content of `xtask/ordering_policy.txt`.
    pub ordering_policy: String,
    /// Hot-loop root specs (the workspace run uses [`HOT_ROOTS`]).
    pub hot_roots: Vec<String>,
}

/// Per-entry-point verdict.
#[derive(Debug)]
pub struct EntryReport {
    /// The spec as written in the manifest.
    pub spec: String,
    /// Call-graph keys the spec resolved to (empty = unresolvable,
    /// which is itself a finding).
    pub resolved: Vec<String>,
    /// Unaudited panic-path sites inside functions reachable from this
    /// entry.
    pub sites: usize,
    /// The baselined allowance, when the baseline has an entry.
    pub baseline: Option<usize>,
    /// Shortest call path to the nearest reachable site, pre-rendered
    /// (`entry → f → g — `unwrap` at file:line`). Present whenever
    /// `sites > 0`.
    pub witness: Option<String>,
}

/// The audit's full result.
#[derive(Debug)]
pub struct AuditReport {
    /// Violations across all three families (empty = audit passes).
    pub findings: Vec<Finding>,
    /// Per-entry panic-reach accounting, manifest order.
    pub entries: Vec<EntryReport>,
    /// Entries whose current count is below their baseline — the
    /// ratchet should be tightened with `audit --update-baseline`.
    pub shrinkable: Vec<String>,
    /// Keys of every function in the hot set (reachable from
    /// [`AuditInputs::hot_roots`]).
    pub hot_fns: Vec<String>,
    /// Total function definitions in the call graph.
    pub total_defs: usize,
    /// Calls the resolver could not attach to any workspace definition
    /// (macros, `dyn` dispatch, std/vendored callees).
    pub unresolved_calls: usize,
}

impl AuditReport {
    /// `true` when the audit found nothing.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

/// One unaudited panic site, attributed to the innermost enclosing fn.
struct Site {
    file: String,
    line: usize,
    what: String,
}

/// Extracts a short site label from a `panic-path` message: the first
/// backtick-quoted fragment, or a generic fallback.
fn site_label(message: &str, kind: &str) -> String {
    let mut parts = message.split('`');
    if let (Some(_), Some(inner)) = (parts.next(), parts.next()) {
        format!("`{inner}`")
    } else if kind == lint::KIND_INDEX {
        "unchecked indexing".to_string()
    } else {
        "panic site".to_string()
    }
}

/// Runs all three audit families over the given inputs.
pub fn run_audit(inputs: &AuditInputs) -> AuditReport {
    // Per-file models (for marker lookup), parses, and raw panic sites.
    let mut models: BTreeMap<&str, FileModel> = BTreeMap::new();
    let mut parsed: Vec<ParsedFile> = Vec::new();
    for (path, content) in &inputs.files {
        let m = FileModel::new(content);
        parsed.push(parse_file(path, &m));
        models.insert(path.as_str(), m);
    }
    let graph = CallGraph::build(&parsed);

    // Attribute each unaudited panic-path site to the innermost fn
    // whose line span contains it. Sites outside any fn (consts,
    // statics) have no caller and cannot be *reached*; the per-file
    // rule still covers them.
    let mut def_sites: Vec<Vec<usize>> = vec![Vec::new(); graph.defs.len()];
    let mut sites: Vec<Site> = Vec::new();
    for (path, content) in &inputs.files {
        for f in lint_file(Path::new(path), content) {
            if f.rule != PANIC_PATH {
                continue;
            }
            let mut best: Option<usize> = None;
            for (i, d) in graph.defs.iter().enumerate() {
                if d.file == *path && d.span.0 <= f.line && f.line <= d.span.1 {
                    let tighter = best.is_none_or(|b: usize| {
                        let (s0, s1) = graph.defs[b].span;
                        (d.span.1 - d.span.0) < (s1 - s0)
                    });
                    if tighter {
                        best = Some(i);
                    }
                }
            }
            if let Some(def) = best {
                def_sites[def].push(sites.len());
                sites.push(Site {
                    file: f.file.clone(),
                    line: f.line,
                    what: site_label(&f.message, f.kind),
                });
            }
        }
    }

    let mut findings = Vec::new();

    // ---- family 1: panic-reach -------------------------------------
    let baseline = parse_reach_baseline(&inputs.reach_baseline);
    let mut entries = Vec::new();
    let mut shrinkable = Vec::new();
    for (lineno, raw) in inputs.entrypoints.lines().enumerate() {
        let spec = raw.trim();
        if spec.is_empty() || spec.starts_with('#') {
            continue;
        }
        let roots = graph.find(spec);
        if roots.is_empty() {
            findings.push(Finding {
                rule: PANIC_REACH,
                kind: "",
                file: ENTRYPOINTS.to_string(),
                line: lineno + 1,
                message: format!(
                    "entry point `{spec}` does not resolve to any workspace \
                     function — fix the manifest or the moved/renamed definition"
                ),
            });
            entries.push(EntryReport {
                spec: spec.to_string(),
                resolved: Vec::new(),
                sites: 0,
                baseline: baseline.get(spec).copied(),
                witness: None,
            });
            continue;
        }
        let reach = graph.reachable(&roots);
        let count: usize = def_sites
            .iter()
            .enumerate()
            .filter(|(i, _)| reach[*i])
            .map(|(_, s)| s.len())
            .sum();
        let witness = if count > 0 {
            graph
                .shortest_path(&roots, |i| !def_sites[i].is_empty())
                .map(|path| {
                    let site = &sites[def_sites[*path.last().unwrap_or(&roots[0])][0]];
                    let hops: Vec<&str> =
                        path.iter().map(|&i| graph.defs[i].key.as_str()).collect();
                    format!(
                        "{} — {} at {}:{}",
                        hops.join(" → "),
                        site.what,
                        site.file,
                        site.line
                    )
                })
        } else {
            None
        };
        let allowed = baseline.get(spec).copied();
        if count > allowed.unwrap_or(0) {
            findings.push(Finding {
                rule: PANIC_REACH,
                kind: "",
                file: ENTRYPOINTS.to_string(),
                line: lineno + 1,
                message: format!(
                    "`{spec}` reaches {count} unaudited panic site(s), baseline \
                     allows {} — burn the new path down (witness: {})",
                    allowed.unwrap_or(0),
                    witness.as_deref().unwrap_or("none resolvable"),
                ),
            });
        } else if count < allowed.unwrap_or(0) {
            shrinkable.push(format!("{spec}: {count} < {}", allowed.unwrap_or(0)));
        }
        entries.push(EntryReport {
            spec: spec.to_string(),
            resolved: roots.iter().map(|&i| graph.defs[i].key.clone()).collect(),
            sites: count,
            baseline: allowed,
            witness,
        });
    }

    // ---- family 2: alloc-in-hot-loop -------------------------------
    let hot_roots: Vec<usize> = inputs
        .hot_roots
        .iter()
        .flat_map(|spec| graph.find(spec))
        .collect();
    let hot = graph.reachable(&hot_roots);
    let mut hot_fns: Vec<String> = Vec::new();
    for (i, d) in graph.defs.iter().enumerate() {
        if !hot[i] || d.is_test {
            continue;
        }
        hot_fns.push(d.key.clone());
        let Some(m) = models.get(d.file.as_str()) else {
            continue;
        };
        for a in &d.allocs {
            if !a.in_loop || m.marked(a.line, ALLOC_MARKER) {
                continue;
            }
            findings.push(Finding {
                rule: ALLOC_HOT_LOOP,
                kind: "",
                file: d.file.clone(),
                line: a.line,
                message: format!(
                    "{} inside a loop body of `{}`, which is reachable from the \
                     hot kernels — hoist the allocation out of the loop, reuse a \
                     buffer, or justify with `{ALLOC_MARKER}: <why>`",
                    a.what, d.key
                ),
            });
        }
    }

    // ---- family 3: ordering-policy ---------------------------------
    let (policy, mut policy_findings) = parse_ordering_policy(&inputs.ordering_policy);
    findings.append(&mut policy_findings);
    for (path, _) in &inputs.files {
        if path == "crates/util/src/sync.rs"
            || path.contains("/tests/")
            || path.contains("/benches/")
            || path.contains("/examples/")
        {
            continue;
        }
        let Some(m) = models.get(path.as_str()) else {
            continue;
        };
        for i in 0..m.code.len() {
            if !m.ident_is(i, "Ordering") || !m.path_sep(i + 1) || m.in_test(i) {
                continue;
            }
            let Some(ord) = ORDERINGS.iter().find(|o| m.ident_is(i + 3, o)).copied() else {
                continue; // std::cmp::Ordering::{Less,Greater,Equal}
            };
            let line = m.code[i].line;
            let op = nearest_atomic_op(m, i);
            if ord == "SeqCst" {
                findings.push(Finding {
                    rule: ORDERING_POLICY,
                    kind: "",
                    file: path.clone(),
                    line,
                    message: format!(
                        "`Ordering::SeqCst` on `{}` — SeqCst is denied workspace-wide \
                         (DESIGN §5b: Relaxed seed loads, AcqRel claims, \
                         Release/Acquire stamps); pick the weakest ordering the \
                         algorithm's proof needs",
                        op.unwrap_or("<unknown op>")
                    ),
                });
                continue;
            }
            let declared = policy.iter().any(|r| {
                path.starts_with(&r.prefix)
                    && (r.op == "*" || Some(r.op.as_str()) == op)
                    && r.ordering == ord
            });
            if !declared {
                findings.push(Finding {
                    rule: ORDERING_POLICY,
                    kind: "",
                    file: path.clone(),
                    line,
                    message: format!(
                        "`Ordering::{ord}` on `{}` is not declared in \
                         {ORDERING_POLICY_FILE} for this path — either the code \
                         drifted from the DESIGN §5b policy or the policy needs a \
                         reviewed new triple",
                        op.unwrap_or("<unknown op>")
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    AuditReport {
        findings,
        entries,
        shrinkable,
        hot_fns,
        total_defs: graph.defs.len(),
        unresolved_calls: graph.unresolved.len(),
    }
}

/// Walks back from the `Ordering` token to the nearest atomic-op method
/// name within the same statement (bounded by `;`/`{`/`}`).
fn nearest_atomic_op(m: &FileModel, ordering_idx: usize) -> Option<&'static str> {
    let mut j = ordering_idx;
    while j > 0 {
        j -= 1;
        let t = &m.code[j];
        match t.kind {
            crate::lexer::Kind::Punct if matches!(t.text.as_str(), ";" | "{" | "}") => return None,
            crate::lexer::Kind::Ident => {
                if let Some(op) = ATOMIC_OPS.iter().find(|o| **o == t.text) {
                    return Some(op);
                }
            }
            _ => {}
        }
    }
    None
}

/// One declared `(path-prefix, op, ordering)` triple.
struct PolicyRule {
    prefix: String,
    op: String,
    ordering: String,
}

/// Parses the policy grammar: `<path-prefix> <op|*> <ordering>` per
/// line, `#` comments and blanks ignored. Malformed lines and declared
/// `SeqCst` are findings against the policy file itself — a policy that
/// cannot be parsed must not silently allow anything.
fn parse_ordering_policy(text: &str) -> (Vec<PolicyRule>, Vec<Finding>) {
    let mut rules = Vec::new();
    let mut findings = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split_whitespace().collect();
        let bad = |message: String| Finding {
            rule: ORDERING_POLICY,
            kind: "",
            file: ORDERING_POLICY_FILE.to_string(),
            line: lineno + 1,
            message,
        };
        let [prefix, op, ordering] = parts.as_slice() else {
            findings.push(bad(format!(
                "malformed policy line `{line}` — expected `<path-prefix> <op|*> <ordering>`"
            )));
            continue;
        };
        if *ordering == "SeqCst" {
            findings.push(bad(
                "the policy must not declare `SeqCst` — it is denied workspace-wide".to_string(),
            ));
            continue;
        }
        if !ORDERINGS.contains(ordering) {
            findings.push(bad(format!("unknown ordering `{ordering}`")));
            continue;
        }
        if *op != "*" && !ATOMIC_OPS.contains(op) {
            findings.push(bad(format!("unknown atomic op `{op}`")));
            continue;
        }
        rules.push(PolicyRule {
            prefix: (*prefix).to_string(),
            op: (*op).to_string(),
            ordering: (*ordering).to_string(),
        });
    }
    (rules, findings)
}

/// Parsed `reach_baseline.txt`: allowed site count per entry spec.
pub fn parse_reach_baseline(text: &str) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(count), Some(spec)) = (parts.next(), parts.next()) else {
            continue;
        };
        let Ok(count) = count.parse::<usize>() else {
            continue;
        };
        out.insert(spec.to_string(), count);
    }
    out
}

/// Serializes the reach baseline in the canonical format, from a
/// finished report's per-entry counts.
pub fn format_reach_baseline(entries: &[EntryReport]) -> String {
    let mut out = String::from(
        "# panic-reach burn-down baseline — per-entry-point counts of unaudited\n\
         # abort sites transitively reachable through the workspace call graph.\n\
         # `cargo xtask audit` fails when any entry GROWS past its count; shrink\n\
         # by burning paths down, then refresh with `cargo xtask audit\n\
         # --update-baseline`. Never edit upward.\n\
         # format: <allowed-count> <entry-spec>\n",
    );
    let mut sorted: Vec<&EntryReport> = entries.iter().collect();
    sorted.sort_by(|a, b| a.spec.cmp(&b.spec));
    for e in sorted {
        out.push_str(&format!("{} {}\n", e.sites, e.spec));
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Assembles [`AuditInputs`] from a workspace root on disk: every `.rs`
/// under `crates/`, the three manifests (missing file = empty, which
/// fails closed for the baseline and the policy), and [`HOT_ROOTS`].
pub fn inputs_from_tree(root: &Path) -> AuditInputs {
    let mut files = Vec::new();
    let mut paths = Vec::new();
    collect_rs(&root.join("crates"), &mut paths);
    paths.sort();
    for p in &paths {
        let Ok(content) = fs::read_to_string(p) else {
            continue;
        };
        let rel = p
            .strip_prefix(root)
            .unwrap_or(p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push((rel, content));
    }
    let read = |rel: &str| fs::read_to_string(root.join(rel)).unwrap_or_default();
    AuditInputs {
        files,
        entrypoints: read(ENTRYPOINTS),
        reach_baseline: read(REACH_BASELINE),
        ordering_policy: read(ORDERING_POLICY_FILE),
        hot_roots: HOT_ROOTS.iter().map(|s| s.to_string()).collect(),
    }
}

/// Runs the workspace audit from disk.
pub fn audit_tree(root: &Path) -> AuditReport {
    run_audit(&inputs_from_tree(root))
}

/// The machine-readable report `cargo xtask audit --json` emits.
pub fn to_json(report: &AuditReport) -> String {
    let entries: Vec<String> = report
        .entries
        .iter()
        .map(|e| {
            let resolved: Vec<String> = e
                .resolved
                .iter()
                .map(|k| format!("\"{}\"", json_escape(k)))
                .collect();
            let baseline = e.baseline.map_or("null".to_string(), |b| b.to_string());
            let witness = e
                .witness
                .as_ref()
                .map_or("null".to_string(), |w| format!("\"{}\"", json_escape(w)));
            let ok = e.baseline.unwrap_or(0) >= e.sites && !e.resolved.is_empty();
            format!(
                "    {{\"entry\": \"{}\", \"resolved\": [{}], \"reach_count\": {}, \
                 \"baseline\": {}, \"witness\": {}, \"ok\": {}}}",
                json_escape(&e.spec),
                resolved.join(", "),
                e.sites,
                baseline,
                witness,
                ok
            )
        })
        .collect();
    let findings: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            format!(
                "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(f.rule),
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            )
        })
        .collect();
    format!(
        "{{\n  \"passed\": {},\n  \"total_defs\": {},\n  \"unresolved_calls\": {},\n  \
         \"hot_set_size\": {},\n  \"entry_points\": [\n{}\n  ],\n  \"findings\": [\n{}\n  ]\n}}",
        report.passed(),
        report.total_defs,
        report.unresolved_calls,
        report.hot_fns.len(),
        entries.join(",\n"),
        findings.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(files: &[(&str, &str)]) -> AuditInputs {
        AuditInputs {
            files: files
                .iter()
                .map(|(p, c)| (p.to_string(), c.to_string()))
                .collect(),
            entrypoints: String::new(),
            reach_baseline: String::new(),
            ordering_policy: String::new(),
            hot_roots: Vec::new(),
        }
    }

    #[test]
    fn three_deep_unwrap_is_caught_with_a_witness_path() {
        let mut inp = inputs(&[(
            "crates/core/src/a.rs",
            "\
pub fn entry(x: Option<u32>) { middle(x); }
fn middle(x: Option<u32>) { deep(x); }
fn deep(x: Option<u32>) { let _ = x.unwrap(); }
",
        )]);
        inp.entrypoints = "a::entry\n".to_string();
        let r = run_audit(&inp);
        assert_eq!(r.entries.len(), 1);
        assert_eq!(r.entries[0].sites, 1);
        let witness = r.entries[0].witness.as_deref().unwrap();
        assert!(witness.contains("entry → "), "{witness}");
        assert!(witness.contains("a::deep"), "{witness}");
        assert!(witness.contains("`.unwrap()`"), "{witness}");
        assert!(witness.contains("crates/core/src/a.rs:3"), "{witness}");
        // baseline 0 → the growth is a finding carrying the witness
        let f = r
            .findings
            .iter()
            .find(|f| f.rule == PANIC_REACH)
            .expect("reach finding");
        assert!(f.message.contains("a::deep"), "{}", f.message);
    }

    #[test]
    fn baselined_reach_passes_and_shrunk_reach_is_reported() {
        let src = "pub fn entry(x: Option<u32>) { let _ = x.unwrap(); }\npub fn clean() {}\n";
        let mut inp = inputs(&[("crates/core/src/a.rs", src)]);
        inp.entrypoints = "a::entry\na::clean\n".to_string();
        inp.reach_baseline = "1 a::entry\n3 a::clean\n".to_string();
        let r = run_audit(&inp);
        assert!(
            r.findings.iter().all(|f| f.rule != PANIC_REACH),
            "{:?}",
            r.findings
        );
        // clean is under its stale baseline of 3 → shrinkable
        assert_eq!(r.shrinkable, vec!["a::clean: 0 < 3"]);
    }

    #[test]
    fn unresolvable_entry_is_a_finding_not_a_silent_pass() {
        let mut inp = inputs(&[("crates/core/src/a.rs", "pub fn real() {}\n")]);
        inp.entrypoints = "no_such_fn\n".to_string();
        let r = run_audit(&inp);
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == PANIC_REACH && f.message.contains("no_such_fn")));
    }

    #[test]
    fn audited_sites_do_not_count_toward_reach() {
        let mut inp = inputs(&[(
            "crates/core/src/a.rs",
            "\
pub fn entry(x: Option<u32>) {
    // lint: panic: audited — input validated by caller
    let _ = x.unwrap();
}
",
        )]);
        inp.entrypoints = "a::entry\n".to_string();
        let r = run_audit(&inp);
        assert_eq!(r.entries[0].sites, 0);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn alloc_in_hot_loop_flags_and_escape_clears() {
        let src = "\
pub fn kernel(n: usize) {
    for _i in 0..n {
        let v: Vec<u32> = Vec::new();
        drop(v);
    }
}
pub fn cold(n: usize) {
    for _i in 0..n {
        let v: Vec<u32> = Vec::new();
        drop(v);
    }
}
";
        let mut inp = inputs(&[("crates/core/src/k.rs", src)]);
        inp.hot_roots = vec!["k::kernel".to_string()];
        let r = run_audit(&inp);
        let allocs: Vec<&Finding> = r
            .findings
            .iter()
            .filter(|f| f.rule == ALLOC_HOT_LOOP)
            .collect();
        // only the hot kernel is flagged, the cold twin is not
        assert_eq!(allocs.len(), 1, "{allocs:?}");
        assert_eq!(allocs[0].line, 3);
        assert!(allocs[0].message.contains("k::kernel"));

        let escaped = src.replace(
            "        let v: Vec<u32> = Vec::new();",
            "        // lint: alloc: per-iteration scratch, measured negligible\n        \
             let v: Vec<u32> = Vec::new();",
        );
        let mut inp = inputs(&[("crates/core/src/k.rs", &escaped)]);
        inp.hot_roots = vec!["k::kernel".to_string()];
        let r = run_audit(&inp);
        assert!(
            r.findings.iter().all(|f| f.rule != ALLOC_HOT_LOOP),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn alloc_rule_follows_the_call_graph_into_helpers() {
        let mut inp = inputs(&[(
            "crates/core/src/k.rs",
            "\
pub fn kernel(n: usize) { helper(n); }
fn helper(n: usize) {
    for _i in 0..n {
        let s = format!(\"x\");
        drop(s);
    }
}
",
        )]);
        inp.hot_roots = vec!["k::kernel".to_string()];
        let r = run_audit(&inp);
        assert!(r
            .findings
            .iter()
            .any(|f| f.rule == ALLOC_HOT_LOOP && f.message.contains("k::helper")));
    }

    #[test]
    fn seqcst_is_denied_even_when_declared() {
        let src = "\
use nwhy_util::sync::Ordering;
pub fn f(a: &nwhy_util::sync::AtomicU32) {
    a.store(1, Ordering::SeqCst);
}
";
        let mut inp = inputs(&[("crates/core/src/s.rs", src)]);
        inp.ordering_policy = "crates/ store SeqCst\n".to_string();
        let r = run_audit(&inp);
        // the site fires AND the policy line itself fires
        assert_eq!(
            r.findings
                .iter()
                .filter(|f| f.rule == ORDERING_POLICY)
                .count(),
            2,
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn declared_triple_passes_and_undeclared_fires() {
        let src = "\
use nwhy_util::sync::Ordering;
pub fn f(a: &nwhy_util::sync::AtomicU32) {
    let _ = a.load(Ordering::Acquire);
    a.store(1, Ordering::Release);
}
";
        let mut inp = inputs(&[("crates/obs/src/ring.rs", src)]);
        inp.ordering_policy = "crates/obs/src/ring.rs load Acquire\n".to_string();
        let r = run_audit(&inp);
        let hits: Vec<&Finding> = r
            .findings
            .iter()
            .filter(|f| f.rule == ORDERING_POLICY)
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 4); // the undeclared Release store
        assert!(hits[0].message.contains("store"));
    }

    #[test]
    fn cmp_ordering_and_test_regions_are_out_of_scope() {
        let src = "\
pub fn f(a: u32, b: u32) -> bool {
    matches!(a.cmp(&b), std::cmp::Ordering::Less)
}
#[cfg(test)]
mod tests {
    pub fn t(a: &nwhy_util::sync::AtomicU32) {
        a.store(1, Ordering::SeqCst);
    }
}
";
        let inp = inputs(&[("crates/core/src/c.rs", src)]);
        let r = run_audit(&inp);
        assert!(
            r.findings.iter().all(|f| f.rule != ORDERING_POLICY),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn wildcard_op_and_prefix_matching() {
        let src = "\
use nwhy_util::sync::Ordering;
pub fn f(a: &nwhy_util::sync::AtomicU32) {
    a.fetch_add(1, Ordering::Relaxed);
    let _ = a.swap(0, Ordering::Relaxed);
}
";
        let mut inp = inputs(&[("crates/core/src/w.rs", src)]);
        inp.ordering_policy = "crates/ * Relaxed\n".to_string();
        let r = run_audit(&inp);
        assert!(
            r.findings.iter().all(|f| f.rule != ORDERING_POLICY),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn malformed_policy_line_is_a_finding() {
        let mut inp = inputs(&[("crates/core/src/a.rs", "pub fn f() {}\n")]);
        inp.ordering_policy = "crates/ load\nnot enough fields\n".to_string();
        let r = run_audit(&inp);
        assert_eq!(
            r.findings
                .iter()
                .filter(|f| f.rule == ORDERING_POLICY && f.file == ORDERING_POLICY_FILE)
                .count(),
            2
        );
    }

    #[test]
    fn reach_baseline_roundtrip() {
        let entries = vec![
            EntryReport {
                spec: "b::later".into(),
                resolved: vec!["x::b::later".into()],
                sites: 7,
                baseline: None,
                witness: None,
            },
            EntryReport {
                spec: "a::first".into(),
                resolved: vec!["x::a::first".into()],
                sites: 0,
                baseline: None,
                witness: None,
            },
        ];
        let text = format_reach_baseline(&entries);
        let parsed = parse_reach_baseline(&text);
        assert_eq!(parsed.get("a::first"), Some(&0));
        assert_eq!(parsed.get("b::later"), Some(&7));
        // sorted output: a::first before b::later
        let a = text.find("a::first").unwrap();
        let b = text.find("b::later").unwrap();
        assert!(a < b);
    }

    #[test]
    fn json_report_carries_the_contract_fields() {
        let mut inp = inputs(&[(
            "crates/core/src/a.rs",
            "pub fn entry(x: Option<u32>) { let _ = x.unwrap(); }\n",
        )]);
        inp.entrypoints = "a::entry\n".to_string();
        inp.reach_baseline = "1 a::entry\n".to_string();
        let r = run_audit(&inp);
        let j = to_json(&r);
        assert!(j.contains("\"passed\": true"), "{j}");
        assert!(j.contains("\"entry\": \"a::entry\""), "{j}");
        assert!(j.contains("\"reach_count\": 1"), "{j}");
        assert!(j.contains("\"baseline\": 1"), "{j}");
        assert!(j.contains("\"ok\": true"), "{j}");
        assert!(j.contains("\"witness\": \""), "{j}");
    }
}
