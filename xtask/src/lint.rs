//! The token-aware repo lint engine behind `cargo xtask lint`.
//!
//! v1 (PR 5) was a line-lexical pass; it could not see through string
//! literals, doc comments, or multi-line expressions. v2 runs every
//! rule on real tokens from the hand-rolled [`crate::lexer`], routed
//! through the [`crate::model::FileModel`] item/block tracker (fn
//! boundaries, `#[cfg(test)]` regions scoped to their actual target
//! block, audit-marker lookup). This kills the known false-positive
//! classes — patterns inside string literals, `unsafe` quoted in doc
//! comments — and un-breaks the old pass's worst soundness hole: code
//! *after* a `#[cfg(test)]` module is linted again.
//!
//! # Rules
//!
//! | rule | scope | denies |
//! |---|---|---|
//! | `raw-pub-signature` | repr.rs, adjoin.rs, slinegraph/ (minus stats.rs) | `u32`/`u64` tokens and ID-named `usize` params in `pub fn` signatures |
//! | `unaudited-id-cast` | repr.rs, adjoin.rs, slinegraph/ | `as Id`/`as u32`/`as usize` outside `ids.rs` |
//! | `untyped-id-arithmetic` | all of crates/ except ids.rs | inlined `± n_e` offset arithmetic and `±` on `.raw()`/`.idx()` |
//! | `stray-atomic-import` | all of crates/ except util/src/sync.rs | direct `std::sync::atomic` use (incl. tests) |
//! | `unjustified-allow` | all of crates/ | `#[allow(...)]` without a `// lint:` justification |
//! | `unsafe-confinement` | all of crates/ | `unsafe` outside `crates/store/src/mmap.rs`; inside it, `unsafe` without a `// SAFETY:` argument |
//! | `panic-path` | crates/ src code (not tests/, benches/, examples/) | `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` everywhere; unchecked slice indexing in core/hygra/store/io/obs |
//! | `crate-boundary` | all of crates/ | `use`/`extern`/path references that violate the crate DAG |
//! | `obs-coverage` | core/slinegraph/, core/algorithms/, hygra/src/ | `pub fn` with a traversal loop but no span/counter touch |
//!
//! Most rules accept a `// lint: <why>` justification on the same line
//! or the comment block immediately above. `panic-path` requires the
//! namespaced `// lint: panic: <why>` marker (that comment *is* the
//! panic-freedom audit trail) and additionally carries a **burn-down
//! baseline** (`xtask/panic_baseline.txt`): per-file unaudited-site
//! counts that the tree lint enforces as a monotone ratchet — a file
//! may shrink below its baselined count but never grow past it.
//! `obs-coverage` uses `// lint: obs: <why>`. Two rules have **no
//! escape at all**: `unsafe-confinement` outside the mmap island, and
//! `crate-boundary` (a back-edge in the dependency DAG is never an
//! audit, it is an architecture regression).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{is_keyword, Kind};
use crate::model::FileModel;

/// Rule identifier for raw storage types in public signatures.
pub const RAW_PUB_SIGNATURE: &str = "raw-pub-signature";
/// Rule identifier for unaudited `as` casts between ID types.
pub const UNAUDITED_ID_CAST: &str = "unaudited-id-cast";
/// Rule identifier for inlined ID-space offset arithmetic.
pub const UNTYPED_ID_ARITHMETIC: &str = "untyped-id-arithmetic";
/// Rule identifier for atomics imported outside `nwhy_util::sync`.
pub const STRAY_ATOMIC_IMPORT: &str = "stray-atomic-import";
/// Rule identifier for `#[allow]` attributes without a justification.
pub const UNJUSTIFIED_ALLOW: &str = "unjustified-allow";
/// Rule identifier for `unsafe` outside the audited mmap island (or
/// inside it without a `// SAFETY:` argument).
pub const UNSAFE_CONFINEMENT: &str = "unsafe-confinement";
/// Rule identifier for abort paths (panicking calls/macros, unchecked
/// slice indexing) in resident-process code.
pub const PANIC_PATH: &str = "panic-path";
/// Rule identifier for dependency-DAG violations read off `use`/path
/// tokens.
pub const CRATE_BOUNDARY: &str = "crate-boundary";
/// Rule identifier for uninstrumented public traversal kernels.
pub const OBS_COVERAGE: &str = "obs-coverage";
/// Rule identifier for transitive panic-reachability from declared
/// entry points (call-graph audit, `cargo xtask audit`).
pub const PANIC_REACH: &str = "panic-reach";
/// Rule identifier for allocation calls inside loop bodies of functions
/// reachable from the hot kernels (call-graph audit).
pub const ALLOC_HOT_LOOP: &str = "alloc-in-hot-loop";
/// Rule identifier for `Ordering::*` uses outside the declared
/// memory-ordering policy (call-graph audit).
pub const ORDERING_POLICY: &str = "ordering-policy";

/// All twelve rule identifiers, in reporting order (SARIF rule table).
/// The last three belong to the call-graph audit (`cargo xtask audit`);
/// the per-file pass never emits them.
pub const ALL_RULES: [&str; 12] = [
    RAW_PUB_SIGNATURE,
    UNAUDITED_ID_CAST,
    UNTYPED_ID_ARITHMETIC,
    STRAY_ATOMIC_IMPORT,
    UNJUSTIFIED_ALLOW,
    UNSAFE_CONFINEMENT,
    PANIC_PATH,
    CRATE_BOUNDARY,
    OBS_COVERAGE,
    PANIC_REACH,
    ALLOC_HOT_LOOP,
    ORDERING_POLICY,
];

/// One-line description per rule (SARIF `rules` metadata).
pub fn rule_description(rule: &str) -> &'static str {
    match rule {
        RAW_PUB_SIGNATURE => "raw u32/u64/usize ID parameters in public signatures",
        UNAUDITED_ID_CAST => "`as` casts between ID types outside the audited ids.rs funnel",
        UNTYPED_ID_ARITHMETIC => "inlined ID-space offset arithmetic",
        STRAY_ATOMIC_IMPORT => "std::sync::atomic imported outside the loom-switched re-export",
        UNJUSTIFIED_ALLOW => "#[allow(...)] without a `// lint:` justification",
        UNSAFE_CONFINEMENT => "unsafe outside the audited mmap island",
        PANIC_PATH => "abort paths (unwrap/expect/panic!/indexing) in resident-process code",
        CRATE_BOUNDARY => "dependency-DAG back-edges read off use/extern/path tokens",
        OBS_COVERAGE => "public traversal kernels without a span or counter touch",
        PANIC_REACH => "transitive panic-reachability from declared entry points grew",
        ALLOC_HOT_LOOP => "allocation inside a loop body reachable from a hot kernel",
        ORDERING_POLICY => "memory ordering outside the declared (module, op, ordering) policy",
        _ => "unknown rule",
    }
}

/// The single file where `unsafe` is permitted: the mmap syscall
/// wrapper behind the zero-copy storage backend (DESIGN.md §8).
const UNSAFE_ISLAND: &str = "crates/store/src/mmap.rs";

/// The baseline file for the `panic-path` burn-down ratchet, relative
/// to the workspace root.
pub const PANIC_BASELINE: &str = "xtask/panic_baseline.txt";

/// The namespaced audit marker for `panic-path` escapes.
pub const PANIC_MARKER: &str = "// lint: panic";
/// The namespaced audit marker for `obs-coverage` escapes.
pub const OBS_MARKER: &str = "// lint: obs";

/// `panic-path` sub-family: a panicking call or macro.
pub const KIND_PANIC: &str = "panic";
/// `panic-path` sub-family: unchecked slice indexing.
pub const KIND_INDEX: &str = "index";

/// One lint violation, pointing at a repo-relative `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of the `pub const` rule names).
    pub rule: &'static str,
    /// Finding sub-family within the rule (`""` for most rules;
    /// `"panic"`/`"index"` for `panic-path`, which the burn-down
    /// baseline tracks separately).
    pub kind: &'static str,
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The ID-sensitive modules: the cast and signature rules apply here.
fn in_id_module(file: &str) -> bool {
    file == "crates/core/src/repr.rs"
        || file == "crates/core/src/adjoin.rs"
        || file.starts_with("crates/core/src/slinegraph/")
}

/// Signature rule scope: the ID modules minus the kernel-stats counters
/// (whose payloads are legitimately `u64` event counts, not IDs).
fn in_signature_scope(file: &str) -> bool {
    in_id_module(file) && !file.ends_with("/stats.rs")
}

/// The crates whose non-test code must be panic-free *and* free of
/// unchecked slice indexing: everything a resident `nwhy-serve`
/// process would execute on the query path.
fn in_index_scope(file: &str) -> bool {
    ["core", "hygra", "store", "io", "obs"]
        .iter()
        .any(|c| file.starts_with(&format!("crates/{c}/src/")))
}

/// Files the `panic-path` rule skips entirely: test suites, benches and
/// examples are not resident-process code.
fn panic_exempt(file: &str) -> bool {
    file.contains("/tests/") || file.contains("/benches/") || file.contains("/examples/")
}

/// The instrumentation-contract scope: s-line kernels, core
/// algorithms, the hygra traversal engine (PR 4), and the store/io
/// loop-bearing surfaces (PR 9 — parse/pack/decode loops feed the same
/// serving dashboards as the kernels they precede).
fn in_obs_scope(file: &str) -> bool {
    file.starts_with("crates/core/src/slinegraph/")
        || file.starts_with("crates/core/src/algorithms/")
        || file.starts_with("crates/hygra/src/")
        || file.starts_with("crates/store/src/")
        || file.starts_with("crates/io/src/")
}

/// Parameter names that denote an ID when typed `usize`.
fn id_like_name(name: &str) -> bool {
    matches!(name, "e" | "v" | "id" | "node" | "edge" | "vertex" | "raw") || name.ends_with("_id")
}

// ---------------------------------------------------------------------
// crate-boundary: the dependency DAG, read off the workspace manifests
// ({util, obs} → core → {hygra, store, io} → nwhy; bench/gen leaves).
// ---------------------------------------------------------------------

/// Workspace crates: directory under `crates/` and the identifier the
/// crate is referenced by in source.
const CRATES: [(&str, &str); 10] = [
    ("util", "nwhy_util"),
    ("nwgraph", "nwgraph"),
    ("obs", "nwhy_obs"),
    ("core", "nwhy_core"),
    ("hygra", "hygra"),
    ("store", "nwhy_store"),
    ("io", "nwhy_io"),
    ("gen", "nwhy_gen"),
    ("nwhy", "nwhy"),
    ("bench", "nwhy_bench"),
];

/// Allowed `[dependencies]` edges per crate directory (self-references
/// are always allowed — integration tests and bin targets name their
/// own crate).
fn allowed_deps(crate_dir: &str) -> &'static [&'static str] {
    match crate_dir {
        "util" | "obs" => &[],
        "nwgraph" => &["nwhy_util"],
        "core" => &["nwhy_util", "nwgraph", "nwhy_obs"],
        "hygra" => &["nwhy_util", "nwgraph", "nwhy_core", "nwhy_obs"],
        "store" => &["nwhy_util", "nwgraph", "nwhy_core"],
        "io" => &["nwhy_core", "nwhy_obs", "nwhy_store"],
        "gen" => &["nwhy_core"],
        "nwhy" | "bench" => &[
            "nwhy_util",
            "nwgraph",
            "nwhy_obs",
            "nwhy_core",
            "hygra",
            "nwhy_store",
            "nwhy_io",
            "nwhy_gen",
        ],
        _ => &[],
    }
}

/// Extra edges granted to *test* code only (`[dev-dependencies]` in the
/// manifests).
fn allowed_dev_deps(crate_dir: &str) -> &'static [&'static str] {
    match crate_dir {
        "io" => &["nwhy_util"],
        "store" => &["nwhy_gen"],
        _ => &[],
    }
}

/// The `crates/<dir>/…` directory component of a repo-relative path.
fn crate_dir_of(file: &str) -> Option<&str> {
    file.strip_prefix("crates/")?.split('/').next()
}

// ---------------------------------------------------------------------
// The per-file engine
// ---------------------------------------------------------------------

/// Lints a single file's content under its repo-relative path. The path
/// decides which rules apply; it does not need to exist on disk (the
/// fixture tests feed fake in-scope paths). Returns **raw** findings:
/// the `panic-path` burn-down baseline is applied by [`lint_tree`].
pub fn lint_file(path: &Path, content: &str) -> Vec<Finding> {
    let file = path.to_string_lossy().replace('\\', "/");
    if !file.starts_with("crates/") {
        return Vec::new();
    }
    let m = FileModel::new(content);
    let test_file = file.contains("/tests/");
    let mut out = Vec::new();

    let finding = |rule: &'static str, kind: &'static str, line: usize, message: String| Finding {
        rule,
        kind,
        file: file.clone(),
        line,
        message,
    };

    // `true` when the statement containing token `i` starts with `use`
    // (walk back to the previous `;`, `{` or `}`): lets the cast rule
    // ignore `use x as y` renames.
    let in_use_stmt = |i: usize| -> bool {
        let mut j = i;
        while j > 0 {
            j -= 1;
            let t = &m.code[j];
            if t.kind == Kind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
                return m.ident_is(j + 1, "use")
                    || m.ident_is(j + 1, "pub") && m.ident_is(j + 2, "use");
            }
        }
        m.ident_is(0, "use") || m.ident_is(0, "pub") && m.ident_is(1, "use")
    };

    // Rule A: raw storage types in public signatures.
    if in_signature_scope(&file) && !test_file {
        for f in &m.fns {
            if !f.is_pub || m.in_test(f.sig.0) || m.justified(f.line) {
                continue;
            }
            for bad in ["u32", "u64"] {
                if (f.sig.0..f.sig.1).any(|i| m.ident_is(i, bad)) {
                    out.push(finding(
                        RAW_PUB_SIGNATURE,
                        "",
                        f.line,
                        format!(
                            "raw `{bad}` in public signature — use a typed ID domain \
                             (HyperedgeId/HypernodeId/AdjoinId/LocalId), the `Id` \
                             storage alias, or `Overlap`"
                        ),
                    ));
                }
            }
            for i in f.sig.0..f.sig.1 {
                if m.code[i].kind == Kind::Ident
                    && !is_keyword(&m.code[i].text)
                    && m.tok_is(i + 1, ":")
                    && !m.tok_is(i + 2, ":")
                    && m.ident_is(i + 2, "usize")
                    && id_like_name(&m.code[i].text)
                {
                    out.push(finding(
                        RAW_PUB_SIGNATURE,
                        "",
                        f.line,
                        format!(
                            "`{}: usize` in public signature — ID-like parameters \
                             must use a typed ID domain",
                            m.code[i].text
                        ),
                    ));
                }
            }
        }
    }

    // Rule B: unaudited `as` casts in the ID modules.
    if in_id_module(&file) && !test_file {
        for i in 0..m.code.len() {
            if !m.ident_is(i, "as") || m.in_test(i) {
                continue;
            }
            let Some(next) = m.code.get(i + 1) else {
                continue;
            };
            if next.kind != Kind::Ident || !matches!(next.text.as_str(), "Id" | "u32" | "usize") {
                continue;
            }
            let line = m.code[i].line;
            if m.justified(line) || in_use_stmt(i) {
                continue;
            }
            out.push(finding(
                UNAUDITED_ID_CAST,
                "",
                line,
                format!(
                    "`as {}` outside the audited ids.rs funnel — use \
                     ids::from_usize/ids::to_usize, `.raw()`/`.idx()`, or \
                     justify with `// lint: <why>`",
                    next.text
                ),
            ));
        }
    }

    // Rule C: inlined ID-space offset arithmetic anywhere in crates/.
    if file != "crates/core/src/ids.rs" && !test_file {
        for i in 0..m.code.len() {
            if m.in_test(i) {
                continue;
            }
            let plus_minus = m.tok_is(i, "+") || m.tok_is(i, "-");
            let pat: Option<(&'static str, usize)> =
                if plus_minus && m.ident_is(i + 1, "ne") && m.ident_is(i + 2, "as") {
                    Some(("± ne as", i))
                } else if plus_minus
                    && m.ident_is(i + 1, "self")
                    && m.tok_is(i + 2, ".")
                    && m.ident_is(i + 3, "num_hyperedges")
                    && m.ident_is(i + 4, "as")
                {
                    Some(("± self.num_hyperedges as", i))
                } else if m.tok_is(i, ".")
                    && (m.ident_is(i + 1, "raw") || m.ident_is(i + 1, "idx"))
                    && m.tok_is(i + 2, "(")
                    && m.tok_is(i + 3, ")")
                    && (m.tok_is(i + 4, "+") || m.tok_is(i + 4, "-"))
                {
                    Some((
                        if m.ident_is(i + 1, "raw") {
                            ".raw() ±"
                        } else {
                            ".idx() ±"
                        },
                        i,
                    ))
                } else {
                    None
                };
            if let Some((pat, at)) = pat {
                let line = m.code[at].line;
                if !m.justified(line) {
                    out.push(finding(
                        UNTYPED_ID_ARITHMETIC,
                        "",
                        line,
                        format!(
                            "`{pat}` — ID-space offsets must go through the typed \
                             conversions in nwhy-core::ids (AdjoinId::from_node, \
                             adjoin_to_node, Relabeling)"
                        ),
                    ));
                }
            }
        }
    }

    // Rule D: atomics outside the loom-switched re-export (tests too).
    if file != "crates/util/src/sync.rs" {
        for i in 0..m.code.len() {
            if m.ident_is(i, "std")
                && m.path_sep(i + 1)
                && m.ident_is(i + 3, "sync")
                && m.path_sep(i + 4)
                && m.ident_is(i + 6, "atomic")
            {
                let line = m.code[i].line;
                if !m.justified(line) {
                    out.push(finding(
                        STRAY_ATOMIC_IMPORT,
                        "",
                        line,
                        "import atomics via nwhy_util::sync (the loom-switched \
                         re-export); std::sync::atomic is sanctioned only in \
                         crates/util/src/sync.rs"
                            .to_string(),
                    ));
                }
            }
        }
    }

    // Rule E: every `#[allow]` carries its why (tests too).
    for i in 0..m.code.len() {
        if !m.tok_is(i, "#") {
            continue;
        }
        let mut j = i + 1;
        if m.tok_is(j, "!") {
            j += 1;
        }
        if m.tok_is(j, "[") && m.ident_is(j + 1, "allow") {
            let line = m.code[i].line;
            if !m.justified(line) {
                out.push(finding(
                    UNJUSTIFIED_ALLOW,
                    "",
                    line,
                    "`#[allow(...)]` without a `// lint: <why>` justification on the \
                     same or preceding comment line"
                        .to_string(),
                ));
            }
        }
    }

    // Rule F: unsafe confinement (tests too). Outside the mmap island
    // there is deliberately no `// lint:` escape — `unsafe` anywhere
    // else in crates/ is a finding, full stop. Inside the island every
    // `unsafe` token must carry a `// SAFETY:` argument on the same
    // line or the comment block immediately above. Token matching keeps
    // `forbid(unsafe_code)` attribute idents and doc-comment mentions
    // out of scope by construction.
    for i in 0..m.code.len() {
        if !m.ident_is(i, "unsafe") {
            continue;
        }
        let line = m.code[i].line;
        if file == UNSAFE_ISLAND {
            if !m.marked(line, "// SAFETY:") {
                out.push(finding(
                    UNSAFE_CONFINEMENT,
                    "",
                    line,
                    "`unsafe` in the mmap island without a `// SAFETY:` argument \
                     on the same line or the comment block immediately above"
                        .to_string(),
                ));
            }
        } else {
            out.push(finding(
                UNSAFE_CONFINEMENT,
                "",
                line,
                format!(
                    "`unsafe` outside {UNSAFE_ISLAND} — the mmap syscall wrapper \
                     is the only audited unsafe island in the workspace \
                     (DESIGN.md §8); this rule has no `// lint:` escape"
                ),
            ));
        }
    }

    // Rule G: panic-path. Abort paths in resident-process code: the
    // panicking call/macro family everywhere under crates/ (minus test
    // suites, benches, examples), plus unchecked slice indexing in the
    // five query-path crates. Escape: `// lint: panic: <why>`. The
    // tree-level baseline (xtask/panic_baseline.txt) turns the raw
    // findings into a monotone burn-down ratchet.
    if !panic_exempt(&file) {
        for i in 0..m.code.len() {
            if m.in_test(i) {
                continue;
            }
            let line = m.code[i].line;
            // .unwrap( / .expect(
            if m.tok_is(i, ".")
                && (m.ident_is(i + 1, "unwrap") || m.ident_is(i + 1, "expect"))
                && m.tok_is(i + 2, "(")
            {
                if !m.marked(line, PANIC_MARKER) {
                    out.push(finding(
                        PANIC_PATH,
                        KIND_PANIC,
                        line,
                        format!(
                            "`.{}()` aborts the process on Err/None — resident \
                             services (nwhy-serve) must get a typed error instead; \
                             burn down or audit with `{PANIC_MARKER}: <why>`",
                            m.text(i + 1)
                        ),
                    ));
                }
                continue;
            }
            // panic! / unreachable! / todo! / unimplemented!
            if m.code[i].kind == Kind::Ident
                && matches!(
                    m.code[i].text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && m.tok_is(i + 1, "!")
                && !m.marked(line, PANIC_MARKER)
            {
                out.push(finding(
                    PANIC_PATH,
                    KIND_PANIC,
                    line,
                    format!(
                        "`{}!` aborts the process — resident services (nwhy-serve) \
                         must get a typed error instead; burn down or audit with \
                         `{PANIC_MARKER}: <why>`",
                        m.code[i].text
                    ),
                ));
                continue;
            }
            // unchecked slice indexing in the query-path crates: a `[`
            // whose previous token closes an expression (identifier,
            // `)` or `]`) opens an index/slice expression — `a[i]`,
            // `f(x)[i]`, `m[i][j]` — every one an abort path on
            // out-of-bounds. Array literals/types/attributes/macros
            // never have such a previous token.
            if in_index_scope(&file) && m.tok_is(i, "[") && i > 0 {
                let prev = &m.code[i - 1];
                let indexes = match prev.kind {
                    Kind::Ident => !is_keyword(&prev.text),
                    Kind::Punct => prev.text == ")" || prev.text == "]",
                    _ => false,
                };
                if indexes && !m.marked(line, PANIC_MARKER) {
                    out.push(finding(
                        PANIC_PATH,
                        KIND_INDEX,
                        line,
                        format!(
                            "unchecked slice indexing aborts on out-of-bounds — \
                             prefer `.get()`, iterators, or split/chunk patterns; \
                             audit with `{PANIC_MARKER}: <why>`"
                        ),
                    ));
                }
            }
        }
    }

    // Rule H: crate-boundary. Every reference to a workspace crate —
    // `use nwhy_core::…`, `extern crate hygra`, or a bare qualified
    // path — must be an edge of the dependency DAG. Test code
    // additionally gets the dev-dependency edges. No escape: a
    // back-edge is an architecture regression, not an auditable site.
    if let Some(dir) = crate_dir_of(&file) {
        let self_ident = CRATES
            .iter()
            .find(|(d, _)| *d == dir)
            .map(|(_, id)| *id)
            .unwrap_or("");
        for i in 0..m.code.len() {
            let t = &m.code[i];
            if t.kind != Kind::Ident {
                continue;
            }
            let Some(&(_, dep)) = CRATES.iter().find(|(_, id)| *id == t.text) else {
                continue;
            };
            if dep == self_ident {
                continue;
            }
            // only path *roots* count: skip `x::dep` tails and `.dep`
            // field/method positions
            if i > 0 {
                let p = &m.code[i - 1];
                if p.kind == Kind::Punct && (p.text == ":" || p.text == ".") {
                    continue;
                }
            }
            let is_root_ref = m.path_sep(i + 1)
                || (i > 0 && m.ident_is(i - 1, "use"))
                || (i > 0 && m.ident_is(i - 1, "crate") && i > 1 && m.ident_is(i - 2, "extern"));
            if !is_root_ref {
                continue;
            }
            let test_scope = test_file || m.in_test(i);
            let ok = allowed_deps(dir).contains(&dep)
                || (test_scope && allowed_dev_deps(dir).contains(&dep));
            if !ok {
                out.push(finding(
                    CRATE_BOUNDARY,
                    "",
                    t.line,
                    format!(
                        "crate `{dir}` must not depend on `{dep}` — the dependency \
                         DAG is {{util, obs}} → core → {{hygra, store, io}} → nwhy \
                         (bench/gen leaves); this rule has no `// lint:` escape"
                    ),
                ));
            }
        }
    }

    // Rule I: obs-coverage. The PR 4 instrumentation contract: every
    // public traversal kernel (a `pub fn` containing a loop) in the
    // s-line engine, the core algorithms, and hygra must open a span
    // or touch a counter/histogram. Accessors and builders (loop-free)
    // are exempt by construction. Escape: `// lint: obs: <why>`.
    if in_obs_scope(&file) && !test_file {
        for f in &m.fns {
            let Some((b0, b1)) = f.body else { continue };
            if !f.is_pub || m.in_test(f.sig.0) || m.marked(f.line, OBS_MARKER) {
                continue;
            }
            let loopy = (b0..b1).any(|i| {
                m.code[i].kind == Kind::Ident
                    && matches!(m.code[i].text.as_str(), "for" | "while" | "loop")
            });
            if !loopy {
                continue;
            }
            let touched = (b0..b1).any(|i| {
                let t = &m.code[i];
                t.kind == Kind::Ident
                    && (matches!(
                        t.text.as_str(),
                        "nwhy_obs" | "Counter" | "Hist" | "KernelStats"
                    ) || (matches!(t.text.as_str(), "span" | "incr" | "observe")
                        && m.tok_is(i + 1, "(")))
            });
            if !touched {
                out.push(finding(
                    OBS_COVERAGE,
                    "",
                    f.line,
                    "`pub fn` with a traversal loop but no span/counter touch — \
                     the instrumentation contract (DESIGN.md §6) requires \
                     nwhy_obs::span/incr/add/observe on every public kernel; \
                     delegate to an instrumented kernel or audit with \
                     `// lint: obs: <why>`"
                        .to_string(),
                ));
            }
        }
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

// ---------------------------------------------------------------------
// Tree lint + the panic-path burn-down baseline
// ---------------------------------------------------------------------

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

/// Parsed `xtask/panic_baseline.txt`: allowed unaudited-site counts per
/// (kind, file).
pub type Baseline = BTreeMap<(String, String), usize>;

/// Parses the baseline format: `<kind> <count> <file>` per line, `#`
/// comments and blank lines ignored. Unparsable lines are ignored (the
/// ratchet then treats those files as baseline-0, which fails closed).
pub fn parse_baseline(text: &str) -> Baseline {
    let mut out = Baseline::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(kind), Some(count), Some(file)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        let Ok(count) = count.parse::<usize>() else {
            continue;
        };
        if matches!(kind, "panic" | "index") {
            out.insert((kind.to_string(), file.to_string()), count);
        }
    }
    out
}

/// Serializes a baseline in the canonical sorted format.
pub fn format_baseline(b: &Baseline) -> String {
    let mut out = String::from(
        "# panic-path burn-down baseline — per-file counts of unaudited abort\n\
         # sites (`panic` = unwrap/expect/panic-family macros, `index` =\n\
         # unchecked slice indexing). `cargo xtask lint` fails when any file\n\
         # GROWS past its entry; shrink by burning sites down, then refresh\n\
         # with `cargo xtask lint --update-baseline`. Never edit upward.\n\
         # format: <kind> <allowed-count> <file>\n",
    );
    for ((kind, file), count) in b {
        out.push_str(&format!("{kind} {count} {file}\n"));
    }
    out
}

/// What the tree lint did with the `panic-path` baseline.
#[derive(Debug, Default)]
pub struct BaselineStats {
    /// Current unaudited panic-family sites across the tree.
    pub panic_total: usize,
    /// Current unaudited indexing sites across the tree.
    pub index_total: usize,
    /// Sites suppressed because their file is at or under its baseline.
    pub suppressed: usize,
    /// Files whose current count is *below* their baseline entry — the
    /// ratchet can (and should) be tightened with `--update-baseline`.
    pub shrinkable: Vec<String>,
}

/// The result of linting a tree: post-baseline findings plus the
/// burn-down accounting.
#[derive(Debug)]
pub struct TreeReport {
    /// Findings that fail the lint (baseline already applied).
    pub findings: Vec<Finding>,
    /// `panic-path` burn-down accounting.
    pub baseline: BaselineStats,
}

/// Applies the burn-down baseline to raw findings: per (kind, file), if
/// the current count is at or under the baselined count the findings
/// are suppressed (they are the *known* debt); one site over and the
/// whole file's sites for that kind surface, so the offender sees every
/// candidate to burn down.
pub fn apply_baseline(raw: Vec<Finding>, baseline: &Baseline) -> TreeReport {
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in raw.iter().filter(|f| f.rule == PANIC_PATH) {
        *counts
            .entry((f.kind.to_string(), f.file.clone()))
            .or_default() += 1;
    }
    let mut stats = BaselineStats::default();
    for ((kind, file), &count) in &counts {
        match kind.as_str() {
            KIND_PANIC => stats.panic_total += count,
            _ => stats.index_total += count,
        }
        let allowed = baseline.get(&(kind.clone(), file.clone())).copied();
        if count < allowed.unwrap_or(0) {
            stats
                .shrinkable
                .push(format!("{kind} {file}: {count} < {}", allowed.unwrap_or(0)));
        }
    }
    // baselined files that now lint clean can drop their entries
    for ((kind, file), &allowed) in baseline {
        if allowed > 0 && !counts.contains_key(&(kind.clone(), file.clone())) {
            stats
                .shrinkable
                .push(format!("{kind} {file}: 0 < {allowed}"));
        }
    }
    let findings = raw
        .into_iter()
        .filter(|f| {
            if f.rule != PANIC_PATH {
                return true;
            }
            let key = (f.kind.to_string(), f.file.clone());
            let count = counts.get(&key).copied().unwrap_or(0);
            let allowed = baseline.get(&key).copied().unwrap_or(0);
            if count <= allowed {
                stats.suppressed += 1;
                false
            } else {
                true
            }
        })
        .collect();
    TreeReport {
        findings,
        baseline: stats,
    }
}

/// Lints every `.rs` file under `<root>/crates`, returning raw findings
/// (no baseline) sorted by file then line.
pub fn lint_tree_raw(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    files.sort();
    let mut out = Vec::new();
    for f in &files {
        let Ok(content) = fs::read_to_string(f) else {
            continue;
        };
        let rel = f.strip_prefix(root).unwrap_or(f);
        out.extend(lint_file(rel, &content));
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// Lints the tree and applies the `panic-path` baseline from
/// `<root>/xtask/panic_baseline.txt` (missing file = empty baseline,
/// which fails closed on any panic-path site).
pub fn lint_tree_report(root: &Path) -> TreeReport {
    let raw = lint_tree_raw(root);
    let baseline = fs::read_to_string(root.join(PANIC_BASELINE))
        .map(|t| parse_baseline(&t))
        .unwrap_or_default();
    apply_baseline(raw, &baseline)
}

/// Compatibility wrapper: post-baseline findings only.
pub fn lint_tree(root: &Path) -> Vec<Finding> {
    lint_tree_report(root).findings
}

/// Recomputes the baseline from the tree's current raw `panic-path`
/// counts and returns the canonical file content (the caller writes it).
pub fn regenerate_baseline(root: &Path) -> String {
    let mut counts = Baseline::new();
    for f in lint_tree_raw(root) {
        if f.rule == PANIC_PATH {
            *counts
                .entry((f.kind.to_string(), f.file.clone()))
                .or_default() += 1;
        }
    }
    format_baseline(&counts)
}

// ---------------------------------------------------------------------
// Output formats
// ---------------------------------------------------------------------

/// Escapes a string for embedding in JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes findings as a JSON array (hand-rolled: the workspace adds
/// no external dependencies for tooling).
pub fn to_json(findings: &[Finding]) -> String {
    let items: Vec<String> = findings
        .iter()
        .map(|f| {
            let kind = if f.kind.is_empty() {
                String::new()
            } else {
                format!("\"kind\": \"{}\", ", json_escape(f.kind))
            };
            format!(
                "  {{\"rule\": \"{}\", {}\"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                json_escape(f.rule),
                kind,
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            )
        })
        .collect();
    if items.is_empty() {
        "[]".to_string()
    } else {
        format!("[\n{}\n]", items.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_escaped() {
        let f = Finding {
            rule: UNAUDITED_ID_CAST,
            kind: "",
            file: "a\"b.rs".into(),
            line: 3,
            message: "x\ny".into(),
        };
        let j = to_json(&[f]);
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("x\\ny"));
        assert!(!j.contains("\"kind\""));
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn json_carries_panic_kind() {
        let f = Finding {
            rule: PANIC_PATH,
            kind: KIND_INDEX,
            file: "crates/core/src/x.rs".into(),
            line: 9,
            message: "m".into(),
        };
        assert!(to_json(&[f]).contains("\"kind\": \"index\""));
    }

    #[test]
    fn baseline_roundtrip() {
        let mut b = Baseline::new();
        b.insert(("panic".into(), "crates/io/src/binary.rs".into()), 3);
        b.insert(("index".into(), "crates/core/src/repr.rs".into()), 12);
        let text = format_baseline(&b);
        assert_eq!(parse_baseline(&text), b);
    }

    #[test]
    fn baseline_parse_skips_junk() {
        let b =
            parse_baseline("# comment\n\npanic 2 a.rs\nbogus\nindex notanum b.rs\nweird 1 c.rs\n");
        assert_eq!(b.len(), 1);
        assert_eq!(b[&("panic".to_string(), "a.rs".to_string())], 2);
    }

    #[test]
    fn baseline_suppresses_at_or_under_and_fires_over() {
        let mk = |n: usize| -> Vec<Finding> {
            (0..n)
                .map(|i| Finding {
                    rule: PANIC_PATH,
                    kind: KIND_PANIC,
                    file: "crates/io/src/x.rs".into(),
                    line: i + 1,
                    message: "m".into(),
                })
                .collect()
        };
        let mut b = Baseline::new();
        b.insert(("panic".into(), "crates/io/src/x.rs".into()), 2);
        // at the baseline: suppressed
        let r = apply_baseline(mk(2), &b);
        assert!(r.findings.is_empty());
        assert_eq!(r.baseline.suppressed, 2);
        assert_eq!(r.baseline.panic_total, 2);
        // one over: every site surfaces
        let r = apply_baseline(mk(3), &b);
        assert_eq!(r.findings.len(), 3);
        // under: suppressed, and flagged as shrinkable
        let r = apply_baseline(mk(1), &b);
        assert!(r.findings.is_empty());
        assert_eq!(r.baseline.shrinkable.len(), 1);
    }

    #[test]
    fn non_panic_rules_pass_through_baseline() {
        let f = Finding {
            rule: UNSAFE_CONFINEMENT,
            kind: "",
            file: "crates/core/src/x.rs".into(),
            line: 1,
            message: "m".into(),
        };
        let r = apply_baseline(vec![f], &Baseline::new());
        assert_eq!(r.findings.len(), 1);
    }
}
