//! `cargo xtask` entry point. Three tasks:
//!
//! ```text
//! cargo xtask lint [--json | --sarif] [--update-baseline] [ROOT]
//! cargo xtask audit [--json | --sarif] [--update-baseline] [ROOT]
//! cargo xtask check-prom <FILE|-> [--require NAME]...
//! ```
//!
//! `lint` runs the token-aware repo lint pass (see [`xtask::lint`])
//! over `ROOT` (default: the workspace root) and exits non-zero on any
//! finding. `--json` emits a findings array, `--sarif` a SARIF 2.1.0
//! log for GitHub code scanning. `--update-baseline` rewrites
//! `xtask/panic_baseline.txt` from the tree's current `panic-path`
//! counts (use after burning sites down — the ratchet only moves one
//! way).
//!
//! `audit` runs the call-graph analysis families (see [`xtask::audit`]):
//! transitive panic-reachability from `xtask/entrypoints.txt` against
//! the `xtask/reach_baseline.txt` ratchet, the hot-loop allocation
//! rule, and the memory-ordering policy check. `--json` emits the full
//! machine-readable report, `--sarif` the findings as SARIF 2.1.0, and
//! `--update-baseline` rewrites `xtask/reach_baseline.txt` from the
//! current reach counts.
//!
//! `check-prom` validates a Prometheus text exposition (see
//! [`xtask::check_prom`]) read from FILE (or stdin with `-`); each
//! `--require NEEDLE` additionally demands a sample line containing
//! NEEDLE (a metric name or a label fragment like `quantile="0.99"`).
//! CI pipes `nwhy-cli … --metrics=prom --metrics-out` output through it.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let mut json = false;
            let mut sarif = false;
            let mut update_baseline = false;
            let mut root: Option<PathBuf> = None;
            for a in args {
                match a.as_str() {
                    "--json" => json = true,
                    "--sarif" => sarif = true,
                    "--update-baseline" => update_baseline = true,
                    _ => root = Some(PathBuf::from(a)),
                }
            }
            let root = root.unwrap_or_else(|| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .parent()
                    .expect("xtask sits one level under the workspace root")
                    .to_path_buf()
            });
            if update_baseline {
                let content = xtask::lint::regenerate_baseline(&root);
                let path = root.join(xtask::lint::PANIC_BASELINE);
                if let Err(e) = std::fs::write(&path, &content) {
                    eprintln!("xtask lint: cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                eprintln!("xtask lint: baseline rewritten at {}", path.display());
            }
            let report = xtask::lint::lint_tree_report(&root);
            let findings = &report.findings;
            if sarif {
                println!("{}", xtask::sarif::to_sarif(findings));
            } else if json {
                println!("{}", xtask::lint::to_json(findings));
            } else {
                for f in findings {
                    println!("{f}");
                }
                let rules: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
                eprintln!(
                    "xtask lint: {} finding(s) across {} rule(s)",
                    findings.len(),
                    rules.len()
                );
                eprintln!(
                    "xtask lint: panic-path debt: {} panic site(s), {} index site(s) \
                     ({} baselined)",
                    report.baseline.panic_total,
                    report.baseline.index_total,
                    report.baseline.suppressed
                );
                if !report.baseline.shrinkable.is_empty() {
                    eprintln!(
                        "xtask lint: {} baseline entr(ies) can ratchet down — run \
                         `cargo xtask lint --update-baseline`:",
                        report.baseline.shrinkable.len()
                    );
                    for s in &report.baseline.shrinkable {
                        eprintln!("  {s}");
                    }
                }
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("audit") => {
            let mut json = false;
            let mut sarif = false;
            let mut update_baseline = false;
            let mut root: Option<PathBuf> = None;
            for a in args {
                match a.as_str() {
                    "--json" => json = true,
                    "--sarif" => sarif = true,
                    "--update-baseline" => update_baseline = true,
                    _ => root = Some(PathBuf::from(a)),
                }
            }
            let root = root.unwrap_or_else(|| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                    .parent()
                    .expect("xtask sits one level under the workspace root")
                    .to_path_buf()
            });
            let report = xtask::audit::audit_tree(&root);
            if update_baseline {
                let content = xtask::audit::format_reach_baseline(&report.entries);
                let path = root.join(xtask::audit::REACH_BASELINE);
                if let Err(e) = std::fs::write(&path, &content) {
                    eprintln!("xtask audit: cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
                eprintln!(
                    "xtask audit: reach baseline rewritten at {}",
                    path.display()
                );
            }
            if sarif {
                println!("{}", xtask::sarif::to_sarif(&report.findings));
            } else if json {
                println!("{}", xtask::audit::to_json(&report));
            } else {
                for f in &report.findings {
                    println!("{f}");
                }
                for e in &report.entries {
                    let verdict = if e.resolved.is_empty() {
                        "UNRESOLVED".to_string()
                    } else if e.sites <= e.baseline.unwrap_or(0) {
                        format!("ok ({} ≤ {})", e.sites, e.baseline.unwrap_or(0))
                    } else {
                        format!("GREW ({} > {})", e.sites, e.baseline.unwrap_or(0))
                    };
                    eprintln!("  {} — {verdict}", e.spec);
                    if e.sites > e.baseline.unwrap_or(0) {
                        if let Some(w) = &e.witness {
                            eprintln!("    witness: {w}");
                        }
                    }
                }
                eprintln!(
                    "xtask audit: {} finding(s); {} entry point(s), {} fn(s) in the \
                     call graph ({} hot), {} unresolved call(s)",
                    report.findings.len(),
                    report.entries.len(),
                    report.total_defs,
                    report.hot_fns.len(),
                    report.unresolved_calls
                );
                if !report.shrinkable.is_empty() {
                    eprintln!(
                        "xtask audit: {} reach entr(ies) can ratchet down — run \
                         `cargo xtask audit --update-baseline`:",
                        report.shrinkable.len()
                    );
                    for s in &report.shrinkable {
                        eprintln!("  {s}");
                    }
                }
            }
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("check-prom") => {
            let mut path: Option<String> = None;
            let mut requires: Vec<String> = Vec::new();
            let mut args = args.peekable();
            while let Some(a) = args.next() {
                if a == "--require" {
                    match args.next() {
                        Some(name) => requires.push(name),
                        None => {
                            eprintln!("check-prom: --require needs a metric name");
                            return ExitCode::from(2);
                        }
                    }
                } else if let Some(name) = a.strip_prefix("--require=") {
                    requires.push(name.to_string());
                } else {
                    path = Some(a);
                }
            }
            let Some(path) = path else {
                eprintln!("usage: cargo xtask check-prom <FILE|-> [--require NAME]...");
                return ExitCode::from(2);
            };
            let input = if path == "-" {
                let mut buf = String::new();
                use std::io::Read;
                if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                    eprintln!("check-prom: stdin: {e}");
                    return ExitCode::from(2);
                }
                buf
            } else {
                match std::fs::read_to_string(&path) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("check-prom: {path}: {e}");
                        return ExitCode::from(2);
                    }
                }
            };
            let report = xtask::check_prom::check(&input);
            for e in &report.errors {
                println!("{e}");
            }
            let mut missing = 0usize;
            for name in &requires {
                if !xtask::check_prom::requires(&input, name) {
                    println!("required sample `{name}` not found");
                    missing += 1;
                }
            }
            eprintln!(
                "check-prom: {} familie(s), {} sample(s), {} error(s), {missing} missing \
                 requirement(s)",
                report.families,
                report.samples,
                report.errors.len()
            );
            if report.passed() && missing == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!(
                "usage: cargo xtask <lint [--json | --sarif] [--update-baseline] [ROOT] | \
                 audit [--json | --sarif] [--update-baseline] [ROOT] | \
                 check-prom <FILE|-> [--require NAME]...>"
            );
            ExitCode::from(2)
        }
    }
}
