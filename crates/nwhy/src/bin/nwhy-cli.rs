//! `nwhy-cli` — a command-line front end for the framework.
//!
//! ```text
//! nwhy-cli stats   <file> [--run bfs|cc|sline [--s S]]
//!                                              Table I-style statistics,
//!                                              optionally followed by one
//!                                              traversal/build + counters
//! nwhy-cli cc      <file> [--algo A]           hypergraph components
//!                  A ∈ hyper | hyper-lp | adjoin | adjoin-lp | hygra
//!                      (default hyper: union-find; hyper-lp is the
//!                      paper's label-propagation HyperCC)
//! nwhy-cli bfs     <file> --source E [--algo A]
//!                  A ∈ hyper | hyper-bu | adjoin | hygra    (default adjoin)
//! nwhy-cli sline   <file> --s S [--kernel K] [--relabel R] [--out FILE]
//!                  K ∈ auto | naive | intersection | hashmap | queue1 |
//!                      queue2   (default hashmap; `auto` asks the
//!                      planner; `--algo` is accepted as an alias)
//!                  R ∈ none | asc | desc    (degree relabeling)
//! nwhy-cli check   <file> [--s S]         validate structural invariants
//! nwhy-cli toplex  <file>                 maximal hyperedges (Algorithm 3)
//! nwhy-cli scomp   <file> --s S           s-connected components, counted
//!                                         without storing the s-line graph
//! nwhy-cli gen     <profile> [--scale N] [--seed S] --out FILE
//! nwhy-cli pack    <in> <out>             compress into NWHYPAK1 on-disk form
//! nwhy-cli info    <file>                 inspect a packed image (no decode)
//! nwhy-cli convert <in> <out>
//! ```
//!
//! Every analysis subcommand accepts a packed `.nwhypak` input and the
//! backend flags:
//!
//! ```text
//! --mmap      serve the packed image zero-copy via mmap (forces packed open)
//! --no-mmap   read the packed image into an owned buffer (pure-safe path)
//! ```
//!
//! Kernels that are generic over `HyperAdjacency` (s-line construction,
//! `bfs --algo hyper|hyper-bu`, `cc --algo hyper|hyper-lp`, `scomp`,
//! `toplex`) run straight off the packed image; the rest materialize the
//! pointer-based form first. The overlap-counting walks (`sline`,
//! `scomp`, `toplex`) first decode the image's node rows into memory
//! once, because they read that side again and again (see
//! `keep_resident`); BFS and union-find CC decode each row at most once
//! and stay zero-copy.
//!
//! Every subcommand additionally accepts the observability flags
//! (no-ops unless built with the default `obs` feature):
//!
//! ```text
//! --metrics[=text|json|prom]  print the snapshot on exit (`prom` renders
//!                             Prometheus text exposition for scraping)
//! --metrics-out FILE      write the snapshot there instead of stdout (keeps
//!                         the scrape document free of the report table)
//! --trace-out FILE        write a Chrome trace_event JSON (chrome://tracing)
//! ```
//!
//! `--mmap`, `--no-mmap` and `--metrics` are switches: they never take
//! the next token as a value (`--metrics` takes its mode only as
//! `--metrics=MODE`). Any flag a subcommand does not read is a usage
//! error (exit 2).
//!
//! Formats are inferred from extensions: `.mtx`/`.mm` Matrix Market,
//! `.tsv` KONECT bipartite (node edge), `.hgr`/`.txt` hyperedge list,
//! `.bin` binary, `.nwhypak` compressed on-disk image.

// lint: unit tests sit above `main` for proximity to the helpers they cover
#![allow(clippy::items_after_test_module)]

use nwhy::core::algorithms::{
    adjoin_bfs, adjoin_cc_afforest, adjoin_cc_label_propagation, hyper_bfs_bottom_up,
    hyper_bfs_top_down, hyper_cc, hyper_cc_label_propagation, toplexes,
};
use nwhy::core::{AdjoinGraph, Algorithm, HyperedgeId, Hypergraph, Relabel, SLineBuilder};
use nwhy::store::{Backend, CompressedHypergraph, Side};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

/// Typed CLI failure: the variant decides the process exit code, so
/// scripts can distinguish misuse from environment failures from data
/// that violates the framework's invariants.
///
/// ```text
/// 2  usage      bad flags/arguments (also: unknown subcommand, --help)
/// 3  io         file system or format errors on inputs/outputs
/// 4  invariant  the data failed a structural check or query contract
/// ```
#[derive(Debug)]
enum CliError {
    /// Bad invocation: missing/unknown arguments, malformed flag values.
    Usage(String),
    /// Environment failure: open/read/parse/write on input or output.
    Io(String),
    /// The hypergraph (or a query against it) violated a contract.
    Invariant(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }
    fn io(msg: impl Into<String>) -> CliError {
        CliError::Io(msg.into())
    }
    fn invariant(msg: impl Into<String>) -> CliError {
        CliError::Invariant(msg.into())
    }
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Invariant(_) => 4,
        }
    }
    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Invariant(m) => m,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.message())
    }
}

type CliResult<T = ()> = Result<T, CliError>;

/// Writes to the locked stdout. A failed write (a full disk, a closed
/// pipe) is [`CliError::Io`], where `print!` would panic.
fn write_stdout(args: std::fmt::Arguments) -> CliResult {
    std::io::stdout()
        .lock()
        .write_fmt(args)
        .map_err(stdout_failed)
}

fn stdout_failed(e: std::io::Error) -> CliError {
    CliError::io(format!("stdout: {e}"))
}

/// `print!` through [`write_stdout`], returning its error with `?`.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))?
    };
}

/// `println!` through [`write_stdout`], returning its error with `?`.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))?
    };
}

fn usage() -> ! {
    let names: Vec<&str> = COMMANDS.iter().map(|&(name, ..)| name).collect();
    eprintln!(
        "usage: nwhy-cli <{}> ... (see --help / crate docs)",
        names.join("|")
    );
    std::process::exit(2);
}

/// Flags that never take a space-separated value, so a positional after
/// them stays a positional (`cc --mmap g.nwhypak`).
const SWITCHES: [&str; 3] = ["mmap", "no-mmap", "metrics"];

/// Minimal flag parser: positionals + `--key value` / `--key=value`
/// pairs. A `--`-prefixed token is never consumed as the value of the
/// preceding flag, and a [`SWITCHES`] flag never consumes one at all.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if let Some((k, v)) = key.split_once('=') {
                    flags.push((k.to_string(), v.to_string()));
                } else {
                    let val = match it.peek() {
                        Some(next) if !next.starts_with("--") && !SWITCHES.contains(&key) => {
                            it.next().cloned().unwrap_or_default()
                        }
                        _ => String::new(),
                    };
                    flags.push((key.to_string(), val));
                }
            } else {
                positional.push(a.clone());
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn load(path: &str) -> CliResult<Hypergraph> {
    let lower = path.to_ascii_lowercase();
    if lower.ends_with(".nwhypak") {
        return nwhy::io::read_packed(Path::new(path))
            .map_err(|e| CliError::io(format!("{path}: {e}")));
    }
    let file = File::open(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
    let reader = BufReader::new(file);
    let result = if lower.ends_with(".mtx") || lower.ends_with(".mm") {
        nwhy::io::read_matrix_market(reader)
    } else if lower.ends_with(".tsv") {
        nwhy::io::read_bipartite_tsv(reader, nwhy::io::Orientation::NodeEdge)
    } else if lower.ends_with(".bin") {
        nwhy::io::read_binary(reader)
    } else {
        nwhy::io::read_hyperedge_list(reader)
    };
    result.map_err(|e| CliError::io(format!("{path}: {e}")))
}

fn save(path: &str, h: &Hypergraph) -> CliResult {
    let lower = path.to_ascii_lowercase();
    if lower.ends_with(".nwhypak") {
        return nwhy::io::write_packed_file(Path::new(path), h)
            .map(|_| ())
            .map_err(|e| CliError::io(format!("{path}: {e}")));
    }
    let file = File::create(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
    let mut writer = BufWriter::new(file);
    let result = if lower.ends_with(".mtx") || lower.ends_with(".mm") {
        nwhy::io::write_matrix_market(&mut writer, h)
    } else if lower.ends_with(".tsv") {
        nwhy::io::write_bipartite_tsv(&mut writer, h)
    } else if lower.ends_with(".bin") {
        nwhy::io::write_binary(&mut writer, h)
    } else {
        nwhy::io::write_hyperedge_list(&mut writer, h)
    };
    result.map_err(|e| CliError::io(format!("{path}: {e}")))?;
    writer
        .flush()
        .map_err(|e| CliError::io(format!("{path}: {e}")))
}

/// A loaded analysis input: either the pointer-based in-memory
/// bi-adjacency or a packed `NWHYPAK1` image served through
/// [`CompressedHypergraph`]. Kernels generic over `HyperAdjacency` run
/// on either variant directly (see `on_input!`); the rest call
/// [`Input::into_memory`].
enum Input {
    Memory(Hypergraph),
    Packed(CompressedHypergraph),
}

impl Input {
    fn num_hyperedges(&self) -> usize {
        match self {
            Input::Memory(h) => h.num_hyperedges(),
            Input::Packed(c) => c.num_hyperedges(),
        }
    }

    /// Materializes the pointer-based representation (a no-op for
    /// in-memory inputs) for subcommands whose kernels are not generic
    /// over `HyperAdjacency`.
    fn into_memory(self) -> Hypergraph {
        match self {
            Input::Memory(h) => h,
            Input::Packed(c) => c.to_hypergraph(),
        }
    }
}

/// Evaluates `$body` with `$g` bound to whichever representation the
/// borrowed [`Input`] holds, so a kernel generic over `HyperAdjacency`
/// serves a packed image zero-copy.
macro_rules! on_input {
    ($input:expr, $g:ident => $body:expr) => {
        match $input {
            Input::Memory($g) => $body,
            Input::Packed($g) => $body,
        }
    };
}

/// Decodes the node rows of a packed input into memory once, under the
/// `build.resident` span, so the `e → v → e` walks (`sline`, `scomp`,
/// `toplex`) borrow those rows instead of decoding them on every visit:
/// they decode Σ_v d_v² ≥ nnz node IDs. No other query re-reads a side:
/// union-find `cc` and BFS decode each row at most once and stay
/// zero-copy. An in-memory input is left as it is.
fn keep_resident(input: &mut Input) {
    if let Input::Packed(c) = input {
        let _span = nwhy::obs::span("build.resident");
        c.materialize(Side::Nodes);
    }
}

/// Resolves the storage backend from the `--mmap` / `--no-mmap` flags.
fn backend_choice(args: &Args) -> CliResult<Backend> {
    match (args.flag("mmap").is_some(), args.flag("no-mmap").is_some()) {
        (true, true) => Err(CliError::usage("--mmap conflicts with --no-mmap")),
        (true, false) => Ok(Backend::Mmap),
        (false, true) => Ok(Backend::Owned),
        (false, false) => Ok(Backend::Auto),
    }
}

/// Loads an analysis input. `.nwhypak` files — or any input when
/// `--mmap` explicitly asks for the zero-copy path — open as packed
/// images through the chosen backend; every other extension parses into
/// the in-memory form.
fn load_input(args: &Args, path: &str) -> CliResult<Input> {
    let packed = path.to_ascii_lowercase().ends_with(".nwhypak") || args.flag("mmap").is_some();
    if packed {
        let c = nwhy::io::open_packed(Path::new(path), backend_choice(args)?)
            .map_err(|e| CliError::io(format!("{path}: {e}")))?;
        Ok(Input::Packed(c))
    } else {
        Ok(Input::Memory(load(path)?))
    }
}

/// Table I statistics computed straight off a packed image: shape from
/// the header, degree extrema from per-row length prefixes — no payload
/// decode, no materialization.
fn packed_stats(c: &CompressedHypergraph) -> nwhy::HypergraphStats {
    use nwhy::core::ids::from_usize;
    let (ne, nv, nnz) = (c.num_hyperedges(), c.num_hypernodes(), c.num_incidences());
    let max_edge_degree = (0..ne)
        .map(|e| c.edge_row_len(from_usize(e)))
        .max()
        .unwrap_or(0);
    let max_node_degree = (0..nv)
        .map(|v| c.node_row_len(from_usize(v)))
        .max()
        .unwrap_or(0);
    nwhy::HypergraphStats {
        num_hypernodes: nv,
        num_hyperedges: ne,
        num_incidences: nnz,
        avg_node_degree: if nv == 0 { 0.0 } else { nnz as f64 / nv as f64 },
        avg_edge_degree: if ne == 0 { 0.0 } else { nnz as f64 / ne as f64 },
        max_node_degree,
        max_edge_degree,
    }
}

/// Parses a flag value strictly: a present-but-malformed value is a
/// usage error, never a silent fallback to the default.
fn parse_flag<T: std::str::FromStr>(args: &Args, cmd: &str, key: &str, default: T) -> CliResult<T> {
    match args.flag(key) {
        None => Ok(default),
        Some(raw) => raw
            .parse()
            .map_err(|_| CliError::usage(format!("{cmd}: malformed --{key} value `{raw}`"))),
    }
}

/// Parses `--s`, `None` when absent. A malformed value or 0 is a usage
/// error prefixed with `cmd`.
fn s_flag(args: &Args, cmd: &str) -> CliResult<Option<usize>> {
    let Some(raw) = args.flag("s") else {
        return Ok(None);
    };
    match raw.parse::<usize>() {
        Ok(0) => Err(CliError::usage(format!("{cmd}: --s must be >= 1"))),
        Ok(s) => Ok(Some(s)),
        Err(_) => Err(CliError::usage(format!(
            "{cmd}: --s must be a positive integer"
        ))),
    }
}

/// [`s_flag`] for the subcommands where `--s` is required.
fn required_s(args: &Args, cmd: &str) -> CliResult<usize> {
    s_flag(args, cmd)?.ok_or_else(|| CliError::usage(format!("{cmd}: missing --s")))
}

fn cmd_stats(args: &Args) -> CliResult {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("stats: missing <file>"))?;
    let run = args.flag("run");
    let s_line = s_flag(args, "stats")?;
    if s_line.is_some() && run != Some("sline") {
        return Err(CliError::usage("stats: --s needs --run sline"));
    }
    let mut input = load_input(args, path)?;
    let s = match &input {
        Input::Memory(h) => h.stats(),
        Input::Packed(c) => packed_stats(c),
    };
    outln!("file:            {path}");
    if let Input::Packed(c) = &input {
        outln!(
            "backend:         packed NWHYPAK1 via {} ({:.3} bytes/incidence)",
            if c.is_mapped() {
                "mmap"
            } else {
                "owned buffer"
            },
            c.stats().bytes_per_incidence()
        );
    }
    outln!("hypernodes |V|:  {}", s.num_hypernodes);
    outln!("hyperedges |E|:  {}", s.num_hyperedges);
    outln!("incidences:      {}", s.num_incidences);
    outln!("avg node degree: {:.3}", s.avg_node_degree);
    outln!("avg edge size:   {:.3}", s.avg_edge_degree);
    outln!("max node degree: {}", s.max_node_degree);
    outln!("max edge size:   {}", s.max_edge_degree);
    if let Some(run) = run {
        if input.num_hyperedges() == 0 {
            return Err(CliError::invariant(
                "stats: --run needs a non-empty hypergraph",
            ));
        }
        match run {
            "bfs" => {
                let reached = on_input!(&input, g => hyper_bfs_top_down(g, 0)).edges_reached();
                outln!("ran bfs from hyperedge 0: reached {reached} hyperedges");
            }
            "cc" => {
                let n = on_input!(&input, g => hyper_cc(g)).num_components();
                outln!("ran cc: {n} components");
            }
            "sline" => {
                let s = s_line.unwrap_or(2);
                keep_resident(&mut input);
                let pairs = on_input!(&input, g => SLineBuilder::new(g).s(s).edges());
                outln!("ran sline (s={s}): {} line-graph edges", pairs.len());
            }
            other => {
                return Err(CliError::usage(format!(
                    "stats: unknown --run {other} (bfs|cc|sline)"
                )))
            }
        }
        let snap = nwhy::obs::snapshot();
        if snap.is_empty() {
            outln!("(no counters recorded — build with the default `obs` feature)");
        } else {
            out!("{}", snap.to_text());
        }
    }
    Ok(())
}

fn cmd_cc(args: &Args) -> CliResult {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("cc: missing <file>"))?;
    let algo = args.flag("algo").unwrap_or("hyper");
    let input = load_input(args, path)?;
    let n = match algo {
        "hyper" => on_input!(&input, g => hyper_cc(g)).num_components(),
        "hyper-lp" => on_input!(&input, g => hyper_cc_label_propagation(g)).num_components(),
        "adjoin" => {
            adjoin_cc_afforest(&AdjoinGraph::from_owned(input.into_memory())).num_components()
        }
        "adjoin-lp" => adjoin_cc_label_propagation(&AdjoinGraph::from_owned(input.into_memory()))
            .num_components(),
        "hygra" => nwhy::hygra::hygra_cc(&input.into_memory()).num_components(),
        other => return Err(CliError::usage(format!("cc: unknown --algo {other}"))),
    };
    outln!("{algo}: {n} connected components");
    Ok(())
}

fn cmd_bfs(args: &Args) -> CliResult {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("bfs: missing <file>"))?;
    let source: u32 = args
        .flag("source")
        .ok_or_else(|| CliError::usage("bfs: missing --source"))?
        .parse()
        .map_err(|_| CliError::usage("bfs: --source must be an integer"))?;
    let algo = args.flag("algo").unwrap_or("adjoin");
    let input = load_input(args, path)?;
    if source as usize >= input.num_hyperedges() {
        return Err(CliError::invariant(format!(
            "bfs: source {source} out of range ({} hyperedges)",
            input.num_hyperedges()
        )));
    }
    let (edge_levels, node_levels) = match algo {
        "hyper" => {
            let r = on_input!(&input, g => hyper_bfs_top_down(g, source));
            (r.edge_levels, r.node_levels)
        }
        "hyper-bu" => {
            let r = on_input!(&input, g => hyper_bfs_bottom_up(g, source));
            (r.edge_levels, r.node_levels)
        }
        "adjoin" => {
            let a = AdjoinGraph::from_owned(input.into_memory());
            let r = adjoin_bfs(&a, HyperedgeId::new(source));
            (r.edge_levels, r.node_levels)
        }
        "hygra" => {
            let r = nwhy::hygra::hygra_bfs(&input.into_memory(), source);
            (r.edge_levels, r.node_levels)
        }
        other => return Err(CliError::usage(format!("bfs: unknown --algo {other}"))),
    };
    let edges_reached = count_finite(&edge_levels);
    let nodes_reached = count_finite(&node_levels);
    let max_level = max_finite(&edge_levels);
    outln!(
        "{algo}: from hyperedge {source} reached {edges_reached} hyperedges and \
         {nodes_reached} hypernodes (max hyperedge level {max_level})"
    );
    Ok(())
}

fn count_finite(levels: &[u32]) -> usize {
    levels.iter().filter(|&&l| l != u32::MAX).count()
}

fn max_finite(levels: &[u32]) -> u32 {
    levels
        .iter()
        .copied()
        .filter(|&l| l != u32::MAX)
        .max()
        .unwrap_or(0)
}

fn cmd_sline(args: &Args) -> CliResult {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("sline: missing <file>"))?;
    let s = required_s(args, "sline")?;
    // `--kernel` supersedes `--algo` (kept as an alias); `auto` hands
    // the choice to the planner
    let kernel = args
        .flag("kernel")
        .or_else(|| args.flag("algo"))
        .unwrap_or("hashmap");
    let algo = match kernel {
        "auto" => None,
        "naive" => Some(Algorithm::Naive),
        "intersection" => Some(Algorithm::Intersection),
        "hashmap" => Some(Algorithm::Hashmap),
        "queue1" => Some(Algorithm::QueueHashmap),
        "queue2" => Some(Algorithm::QueueIntersection),
        other => return Err(CliError::usage(format!("sline: unknown --kernel {other}"))),
    };
    let relabel = match args.flag("relabel").unwrap_or("none") {
        "none" => Relabel::None,
        "asc" => Relabel::Ascending,
        "desc" => Relabel::Descending,
        other => return Err(CliError::usage(format!("sline: unknown --relabel {other}"))),
    };
    let mut input = load_input(args, path)?;
    let ne = input.num_hyperedges();
    let out = match args.flag("out") {
        Some(out) => {
            let file = File::create(out).map_err(|e| CliError::io(format!("{out}: {e}")))?;
            Some((out, file))
        }
        None => None,
    };
    let t = std::time::Instant::now();
    keep_resident(&mut input);
    // `SLineBuilder` is generic over `HyperAdjacency`: packed inputs
    // feed the construction kernels straight off the on-disk image
    fn build<A: nwhy::core::HyperAdjacency + ?Sized>(
        h: &A,
        s: usize,
        algo: Option<Algorithm>,
        relabel: Relabel,
        out: Option<(&str, File)>,
    ) -> CliResult<(Algorithm, usize)> {
        let builder = SLineBuilder::new(h).s(s).relabel(relabel);
        // resolve `auto` once so the planner decision is both printed
        // and counted exactly one time
        let builder = match algo {
            Some(a) => builder.algorithm(a),
            None => {
                let builder = builder.auto();
                let chosen = builder.resolved_algorithm();
                builder.algorithm(chosen)
            }
        };
        let pairs = match out {
            None => builder.edges().len(),
            // the writer flushes before returning, so a failed final
            // write is an error here rather than a silent loss on drop
            Some((path, file)) => nwhy::io::write_sline_edges(file, &builder)
                .map_err(|e| CliError::io(format!("{path}: {e}")))?,
        };
        Ok((builder.resolved_algorithm(), pairs))
    }
    let (resolved, pairs) = on_input!(&input, g => build(g, s, algo, relabel, out))?;
    let secs = t.elapsed().as_secs_f64();
    if algo.is_none() {
        outln!("auto: planner chose the {} kernel", resolved.name());
    }
    // with `--out` the build streams into the file, so the time is both
    let timed = if args.flag("out").is_some() {
        "s, build + write"
    } else {
        "s"
    };
    outln!(
        "{}: {}-line graph has {pairs} edges over {ne} hyperedges ({secs:.4}{timed})",
        resolved.name(),
        s,
    );
    if let Some(out) = args.flag("out") {
        outln!("wrote edge list to {out}");
    }
    Ok(())
}

/// `check`: run the `Validate` invariant suite on every representation
/// built from the input — the bi-adjacency, its dual view, the adjoin
/// graph, and (when `--s` is given) the weighted s-line CSR checked
/// against its source hypergraph. Reports each structure on its own
/// line; any violation fails the command.
fn cmd_check(args: &Args) -> CliResult {
    use nwhy::core::{DualView, SLineOutput, Validate};

    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("check: missing <file>"))?;
    let s = s_flag(args, "check")?;
    let input = load_input(args, path)?;
    let mut failures = 0usize;
    let mut report = |name: &str, result: Result<(), nwhy::InvariantViolation>| -> CliResult {
        match result {
            Ok(()) => outln!("  ok   {name}"),
            Err(e) => {
                failures += 1;
                outln!("  FAIL {name}: {e}");
            }
        }
        Ok(())
    };

    outln!("checking {path}");
    let h = match input {
        Input::Memory(h) => h,
        Input::Packed(c) => {
            report(
                "packed NWHYPAK1 image (codec, index, transpose)",
                c.validate(),
            )?;
            c.to_hypergraph()
        }
    };
    report(
        "bi-adjacency (mutual indexing, CSR invariants)",
        h.validate(),
    )?;
    report("dual view", DualView::new(&h).validate())?;
    let a = nwhy::AdjoinGraph::from_hypergraph(&h);
    report("adjoin graph (bipartite, symmetric)", a.validate())?;
    if let Some(s) = s {
        let g = SLineBuilder::new(&h).s(s).weighted_csr();
        report(
            &format!("{s}-line CSR (symmetry, loops, weights)"),
            SLineOutput {
                csr: &g,
                repr: &h,
                s,
            }
            .validate(),
        )?;
    }
    if failures == 0 {
        outln!("all invariants hold");
        Ok(())
    } else {
        Err(CliError::invariant(format!(
            "check: {failures} structure(s) violated invariants"
        )))
    }
}

fn cmd_toplex(args: &Args) -> CliResult {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("toplex: missing <file>"))?;
    let mut input = load_input(args, path)?;
    keep_resident(&mut input);
    let t = on_input!(&input, g => toplexes(g));
    outln!(
        "{} of {} hyperedges are toplexes",
        t.len(),
        input.num_hyperedges()
    );
    let preview: Vec<u32> = t.iter().copied().take(20).collect();
    outln!("first toplexes: {preview:?}");
    Ok(())
}

fn cmd_scomp(args: &Args) -> CliResult {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("scomp: missing <file>"))?;
    let s = required_s(args, "scomp")?;
    let mut input = load_input(args, path)?;
    let ne = input.num_hyperedges();
    keep_resident(&mut input);
    let mut labels = on_input!(&input, g => {
        nwhy::core::algorithms::s_components::s_connected_components_online(g, s)
    });
    // sorted, each component is one run of equal labels
    labels.sort_unstable();
    let (components, largest) = labels
        .chunk_by(|a, b| a == b)
        .fold((0, 0), |(n, largest), run| (n + 1, largest.max(run.len())));
    outln!(
        "{components} s-connected components at s={s} over {ne} hyperedges (largest: {largest})"
    );
    Ok(())
}

fn cmd_gen(args: &Args) -> CliResult {
    let name = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("gen: missing <profile>"))?;
    let profile = nwhy::gen::profiles::profile_by_name(name).ok_or_else(|| {
        CliError::usage(format!(
            "gen: unknown profile {name} (see `table1` for the list)"
        ))
    })?;
    let scale: usize = parse_flag(args, "gen", "scale", 2000)?;
    let seed: u64 = parse_flag(args, "gen", "seed", 42)?;
    let out = args
        .flag("out")
        .ok_or_else(|| CliError::usage("gen: missing --out"))?;
    let h = profile.generate(scale, seed);
    save(out, &h)?;
    let s = h.stats();
    outln!(
        "generated {} twin at 1/{scale}: |V|={} |E|={} incidences={} → {out}",
        profile.name,
        s.num_hypernodes,
        s.num_hyperedges,
        s.num_incidences
    );
    Ok(())
}

fn cmd_convert(args: &Args) -> CliResult {
    let [input, output] = args.positional.as_slice() else {
        return Err(CliError::usage("convert: need <in> <out>"));
    };
    let h = load(input)?;
    save(output, &h)?;
    outln!(
        "converted {input} → {output} ({} hyperedges, {} incidences)",
        h.num_hyperedges(),
        h.num_incidences()
    );
    Ok(())
}

/// `pack <in> <out>`: read any supported format and write the
/// compressed NWHYPAK1 on-disk image.
fn cmd_pack(args: &Args) -> CliResult {
    let [input, output] = args.positional.as_slice() else {
        return Err(CliError::usage("pack: need <in> <out>"));
    };
    let h = load(input)?;
    let bytes = nwhy::io::write_packed_file(Path::new(output), &h)
        .map_err(|e| CliError::io(format!("{output}: {e}")))?;
    let nnz = h.num_incidences();
    let bpi = if nnz == 0 {
        0.0
    } else {
        bytes as f64 / nnz as f64
    };
    outln!(
        "packed {input} → {output}: {bytes} bytes over {nnz} incidences, \
         {bpi:.3} bytes/incidence (NWHYBIN1 stores 8.000)"
    );
    Ok(())
}

/// `info <file>`: header shape and per-section byte sizes of a packed
/// image — without materializing the hypergraph. Opening it already ran
/// the full integrity walk.
fn cmd_info(args: &Args) -> CliResult {
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::usage("info: missing <file>"))?;
    let c = nwhy::io::open_packed(Path::new(path), backend_choice(args)?)
        .map_err(|e| CliError::io(format!("{path}: {e}")))?;
    let s = c.stats();
    outln!("file:             {path}");
    outln!("format:           NWHYPAK1 v{}", nwhy::store::VERSION);
    outln!(
        "backend:          {}",
        if c.is_mapped() {
            "mmap (zero-copy)"
        } else {
            "owned buffer"
        }
    );
    outln!("hyperedges |E|:   {}", c.num_hyperedges());
    outln!("hypernodes |V|:   {}", c.num_hypernodes());
    outln!("incidences:       {}", c.num_incidences());
    outln!("weighted:         {}", c.is_weighted());
    outln!("total bytes:      {}", s.total_bytes);
    outln!("  index bytes:    {}", s.index_bytes);
    outln!("  payload bytes:  {}", s.payload_bytes);
    outln!("  weights bytes:  {}", s.weights_bytes);
    outln!(
        "bytes/incidence:  {:.3} (NWHYBIN1: 8.000)",
        s.bytes_per_incidence()
    );
    // open_packed succeeded, so the validating open walk passed
    outln!("integrity:        ok");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_vec(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_and_flags() {
        let args = Args::parse(&to_vec(&["file.mtx", "--s", "3", "--algo", "queue1"]));
        assert_eq!(args.positional, vec!["file.mtx"]);
        assert_eq!(args.flag("s"), Some("3"));
        assert_eq!(args.flag("algo"), Some("queue1"));
        assert_eq!(args.flag("missing"), None);
    }

    #[test]
    fn flag_without_value_is_empty() {
        let args = Args::parse(&to_vec(&["--verbose"]));
        assert_eq!(args.flag("verbose"), Some(""));
    }

    #[test]
    fn equals_syntax_splits_key_and_value() {
        let args = Args::parse(&to_vec(&["--metrics=json", "--s=3"]));
        assert_eq!(args.flag("metrics"), Some("json"));
        assert_eq!(args.flag("s"), Some("3"));
    }

    #[test]
    fn bare_flag_does_not_consume_following_flag() {
        let args = Args::parse(&to_vec(&["--metrics", "--trace-out", "t.json"]));
        assert_eq!(args.flag("metrics"), Some(""));
        assert_eq!(args.flag("trace-out"), Some("t.json"));
    }

    #[test]
    fn switches_never_take_the_next_positional() {
        let args = Args::parse(&to_vec(&["--mmap", "g.nwhypak"]));
        assert_eq!(args.flag("mmap"), Some(""));
        assert_eq!(args.positional, vec!["g.nwhypak"]);
        let args = Args::parse(&to_vec(&["--metrics", "in.bin"]));
        assert_eq!(args.flag("metrics"), Some(""));
        assert_eq!(args.positional, vec!["in.bin"]);
    }

    #[test]
    fn interleaved_order() {
        let args = Args::parse(&to_vec(&["--k", "2", "in.bin", "--l", "5"]));
        assert_eq!(args.positional, vec!["in.bin"]);
        assert_eq!(args.flag("k"), Some("2"));
        assert_eq!(args.flag("l"), Some("5"));
    }

    #[test]
    fn helpers_count_and_max_levels() {
        assert_eq!(count_finite(&[0, u32::MAX, 3]), 2);
        assert_eq!(max_finite(&[0, u32::MAX, 3]), 3);
        assert_eq!(max_finite(&[u32::MAX]), 0);
    }

    #[test]
    fn load_rejects_missing_file() {
        assert!(load("/nonexistent/nwhy-test.mtx").is_err());
    }

    #[test]
    fn save_load_roundtrip_all_extensions() {
        let h = nwhy::core::fixtures::paper_hypergraph();
        let dir = std::env::temp_dir();
        for ext in ["mtx", "tsv", "bin", "hgr", "nwhypak"] {
            let path = dir.join(format!("nwhy_cli_test.{ext}"));
            let path = path.to_str().unwrap();
            save(path, &h).unwrap();
            let h2 = load(path).unwrap();
            assert_eq!(h, h2, "{ext}");
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn backend_flags_conflict() {
        let args = Args::parse(&to_vec(&["--mmap", "--no-mmap"]));
        assert!(backend_choice(&args).is_err());
        assert!(matches!(
            backend_choice(&Args::parse(&to_vec(&["--mmap"]))),
            Ok(Backend::Mmap)
        ));
        assert!(matches!(
            backend_choice(&Args::parse(&to_vec(&["--no-mmap"]))),
            Ok(Backend::Owned)
        ));
        assert!(matches!(
            backend_choice(&Args::parse(&to_vec(&[]))),
            Ok(Backend::Auto)
        ));
    }

    #[test]
    fn load_input_dispatches_on_extension_and_flags() {
        let h = nwhy::core::fixtures::paper_hypergraph();
        let dir = std::env::temp_dir();
        let pak = dir.join(format!("nwhy_cli_input_{}.nwhypak", std::process::id()));
        let hgr = dir.join(format!("nwhy_cli_input_{}.hgr", std::process::id()));
        save(pak.to_str().unwrap(), &h).unwrap();
        save(hgr.to_str().unwrap(), &h).unwrap();

        // extension dispatch: .nwhypak opens packed, .hgr parses in memory
        let args = Args::parse(&[]);
        let packed = load_input(&args, pak.to_str().unwrap()).unwrap();
        assert!(matches!(packed, Input::Packed(_)));
        assert_eq!(packed.num_hyperedges(), h.num_hyperedges());
        assert_eq!(packed.into_memory(), h);
        let memory = load_input(&args, hgr.to_str().unwrap()).unwrap();
        assert!(matches!(memory, Input::Memory(_)));

        // --no-mmap keeps a packed input on the owned-buffer backend
        let owned = Args::parse(&to_vec(&["--no-mmap"]));
        if let Input::Packed(c) = load_input(&owned, pak.to_str().unwrap()).unwrap() {
            assert!(!c.is_mapped());
        } else {
            panic!("expected packed input");
        }

        let _ = std::fs::remove_file(&pak);
        let _ = std::fs::remove_file(&hgr);
    }

    #[test]
    fn metrics_mode_prom_is_accepted_and_unknown_rejected() {
        assert!(emit_observability(&Args::parse(&to_vec(&["--metrics=prom"]))).is_ok());
        assert!(matches!(
            emit_observability(&Args::parse(&to_vec(&["--metrics=xml"]))),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn metrics_out_writes_the_snapshot_to_a_file() {
        // an empty registry renders an empty document; close one span so
        // the file provably holds an exposition
        drop(nwhy::obs::span("test.metrics_out"));
        let out = std::env::temp_dir().join("nwhy-cli-test-metrics-out.prom");
        let out_str = out.to_str().unwrap();
        let args = to_vec(&["--metrics=prom", "--metrics-out", out_str]);
        assert!(emit_observability(&Args::parse(&args)).is_ok());
        let doc = std::fs::read_to_string(&out).unwrap();
        if nwhy::obs::enabled() {
            assert!(doc.contains("# TYPE"), "not a prom exposition: {doc:?}");
        } else {
            // obs compiled out: the no-op snapshot renders empty
            assert!(doc.is_empty(), "no-op build wrote samples: {doc:?}");
        }
        let _ = std::fs::remove_file(&out);
        assert!(matches!(
            emit_observability(&Args::parse(&to_vec(&["--metrics=prom", "--metrics-out="]))),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn cli_error_exit_codes_are_distinct() {
        assert_eq!(CliError::usage("u").exit_code(), 2);
        assert_eq!(CliError::io("i").exit_code(), 3);
        assert_eq!(CliError::invariant("v").exit_code(), 4);
        assert_eq!(CliError::usage("msg").to_string(), "msg");
    }

    #[test]
    fn errors_classify_by_cause() {
        // bad flags are usage errors
        let conflict = backend_choice(&Args::parse(&to_vec(&["--mmap", "--no-mmap"])));
        assert!(matches!(conflict, Err(CliError::Usage(_))));
        let args = Args::parse(&to_vec(&["--top", "NaNbutworse"]));
        assert!(matches!(
            parse_flag::<usize>(&args, "sline", "top", 10),
            Err(CliError::Usage(_))
        ));
        // a malformed value never falls back to the default silently
        assert_eq!(
            parse_flag::<usize>(&Args::parse(&[]), "x", "top", 10).unwrap(),
            10
        );
        // missing files are io errors
        assert!(matches!(
            load("/nonexistent/nwhy-test.mtx"),
            Err(CliError::Io(_))
        ));
        // missing positional is a usage error
        assert!(matches!(
            cmd_stats(&Args::parse(&[])),
            Err(CliError::Usage(_))
        ));
        // a malformed or zero --s is a usage error in every command that
        // reads it, prefixed with that command's name
        let h = nwhy::core::fixtures::paper_hypergraph();
        let hgr = std::env::temp_dir().join(format!("nwhy_cli_sx_{}.hgr", std::process::id()));
        let path = hgr.to_str().unwrap();
        save(path, &h).unwrap();
        for (name, cmd, extra) in [
            (
                "stats",
                cmd_stats as fn(&Args) -> CliResult,
                &["--run", "sline"][..],
            ),
            ("sline", cmd_sline, &[]),
            ("scomp", cmd_scomp, &[]),
            ("check", cmd_check, &[]),
        ] {
            for bad in ["x", "0"] {
                let mut argv = vec![path, "--s", bad];
                argv.extend_from_slice(extra);
                match cmd(&Args::parse(&to_vec(&argv))) {
                    Err(CliError::Usage(m)) => assert!(m.starts_with(name), "{argv:?}: {m}"),
                    other => panic!("{name} {argv:?}: {other:?}"),
                }
            }
        }
        // `stats` reads --s only for --run sline: a well-formed --s with
        // any other run, or with none, is a usage error too
        for argv in [
            &[path, "--s", "2"][..],
            &[path, "--run", "cc", "--s", "2"],
            &[path, "--run", "cc", "--s", "0"],
        ] {
            match cmd_stats(&Args::parse(&to_vec(argv))) {
                Err(CliError::Usage(m)) => assert!(m.starts_with("stats"), "{argv:?}: {m}"),
                other => panic!("stats {argv:?}: {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&hgr);
    }

    #[test]
    fn unread_flags_are_usage_errors() {
        let &(_, _, sline, _) = COMMANDS
            .iter()
            .find(|&&(name, ..)| name == "sline")
            .unwrap();
        for (argv, flag) in [
            (&["--s", "2", "--kernal", "intersection"][..], "--kernal"),
            (&["--s", "2", "--overlap", "bitset"], "--overlap"),
        ] {
            match check_flags("sline", sline, &Args::parse(&to_vec(argv))) {
                Err(CliError::Usage(m)) => assert!(m.ends_with(flag), "{m}"),
                other => panic!("{argv:?}: {other:?}"),
            }
        }
        // every command accepts its own flags and the global ones
        for (name, _, flags, _) in COMMANDS {
            let argv: Vec<String> = flags
                .iter()
                .chain(&GLOBAL_FLAGS)
                .map(|f| format!("--{f}=v"))
                .collect();
            assert!(
                check_flags(name, flags, &Args::parse(&argv)).is_ok(),
                "{name}"
            );
        }
    }

    #[test]
    fn stats_rejects_s_zero_like_sline_and_scomp() {
        let h = nwhy::core::fixtures::paper_hypergraph();
        let hgr = std::env::temp_dir().join(format!("nwhy_cli_s0_{}.hgr", std::process::id()));
        let path = hgr.to_str().unwrap();
        save(path, &h).unwrap();
        for (cmd, argv) in [
            (
                cmd_stats as fn(&Args) -> CliResult,
                vec![path, "--run", "sline", "--s", "0"],
            ),
            (cmd_sline, vec![path, "--s", "0"]),
            (cmd_scomp, vec![path, "--s", "0"]),
        ] {
            let err = cmd(&Args::parse(&to_vec(&argv))).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{argv:?}: {err}");
        }
        let _ = std::fs::remove_file(&hgr);
    }

    /// The obs registry is process-global; serialize the tests that read
    /// its spans.
    static OBS_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// Runs `cmd` on a packed fixture and returns the paths of the
    /// `build.*` spans it recorded. The query runs under its own root span
    /// and only completions added by this run count, so the registry is
    /// never reset: a reset while another test holds a span open would
    /// leave that test's span stack naming paths the table no longer has.
    fn packed_build_spans(cmd: fn(&Args) -> CliResult, flags: &[&str]) -> Vec<String> {
        let _g = OBS_GATE.lock().unwrap_or_else(|e| e.into_inner());
        let h = nwhy::core::fixtures::paper_hypergraph();
        let pak = std::env::temp_dir().join(format!(
            "nwhy_cli_resident_{}_{}.nwhypak",
            std::process::id(),
            flags.join("_")
        ));
        let path = pak.to_str().unwrap();
        save(path, &h).unwrap();
        let build_counts = || -> Vec<(String, u64)> {
            nwhy::obs::snapshot()
                .spans
                .into_iter()
                .filter(|s| s.path.starts_with("test.packed_query/") && s.path.contains("build."))
                .map(|s| (s.path, s.count))
                .collect()
        };
        let before = build_counts();
        let mut argv = vec![path];
        argv.extend_from_slice(flags);
        {
            let _root = nwhy::obs::span("test.packed_query");
            cmd(&Args::parse(&to_vec(&argv))).unwrap();
        }
        let _ = std::fs::remove_file(&pak);
        build_counts()
            .into_iter()
            .filter(|after| !before.contains(after))
            .map(|(path, _)| path)
            .collect()
    }

    #[test]
    fn sline_on_packed_input_records_the_resident_decode() {
        if !nwhy::obs::enabled() {
            return;
        }
        let spans = packed_build_spans(cmd_sline, &["--s", "2"]);
        assert!(
            spans.iter().any(|p| p.ends_with("build.resident")),
            "{spans:?}"
        );
    }

    #[test]
    fn cc_on_packed_input_stays_zero_copy() {
        if !nwhy::obs::enabled() {
            return;
        }
        for algo in ["hyper", "hyper-lp"] {
            let spans = packed_build_spans(cmd_cc, &["--algo", algo]);
            assert!(spans.is_empty(), "cc --algo {algo}: {spans:?}");
        }
    }

    #[test]
    fn bfs_on_packed_input_stays_zero_copy() {
        if !nwhy::obs::enabled() {
            return;
        }
        let spans = packed_build_spans(cmd_bfs, &["--source", "0", "--algo", "hyper"]);
        assert!(
            !spans.iter().any(|p| p.ends_with("build.resident")),
            "{spans:?}"
        );
    }

    #[test]
    fn packed_stats_matches_in_memory_stats() {
        let h = nwhy::core::fixtures::paper_hypergraph();
        let c = CompressedHypergraph::from_bytes(nwhy::store::pack_hypergraph(&h)).unwrap();
        let from_packed = packed_stats(&c);
        let from_memory = h.stats();
        assert_eq!(from_packed.num_hyperedges, from_memory.num_hyperedges);
        assert_eq!(from_packed.num_hypernodes, from_memory.num_hypernodes);
        assert_eq!(from_packed.num_incidences, from_memory.num_incidences);
        assert_eq!(from_packed.max_edge_degree, from_memory.max_edge_degree);
        assert_eq!(from_packed.max_node_degree, from_memory.max_node_degree);
    }
}

/// A subcommand's entry point.
type Handler = fn(&Args) -> CliResult;

/// Every subcommand: its name, its root span label (`&'static str`
/// because span names are interned for the lifetime of the process), the
/// flags its handler reads beyond [`GLOBAL_FLAGS`], and its handler.
/// Drives the usage line, flag checking and dispatch.
type Command = (&'static str, &'static str, &'static [&'static str], Handler);

const COMMANDS: [Command; 11] = [
    ("stats", "cli.stats", &["run", "s"], cmd_stats),
    ("cc", "cli.cc", &["algo"], cmd_cc),
    ("bfs", "cli.bfs", &["source", "algo"], cmd_bfs),
    (
        "sline",
        "cli.sline",
        &["s", "kernel", "algo", "relabel", "out"],
        cmd_sline,
    ),
    ("check", "cli.check", &["s"], cmd_check),
    ("toplex", "cli.toplex", &[], cmd_toplex),
    ("scomp", "cli.scomp", &["s"], cmd_scomp),
    ("gen", "cli.gen", &["scale", "seed", "out"], cmd_gen),
    ("pack", "cli.pack", &[], cmd_pack),
    ("info", "cli.info", &[], cmd_info),
    ("convert", "cli.convert", &[], cmd_convert),
];

/// Flags every subcommand accepts: the observability flags (read by
/// [`emit_observability`]) and the packed-backend switches.
const GLOBAL_FLAGS: [&str; 5] = ["metrics", "metrics-out", "trace-out", "mmap", "no-mmap"];

/// Rejects the first flag that neither `flags` nor [`GLOBAL_FLAGS`]
/// names, so a misspelt or removed flag is a usage error, not silently
/// ignored.
fn check_flags(cmd: &str, flags: &[&str], args: &Args) -> CliResult {
    let known = |k: &str| flags.contains(&k) || GLOBAL_FLAGS.contains(&k);
    match args.flags.iter().find(|(k, _)| !known(k)) {
        Some((k, _)) => Err(CliError::usage(format!("{cmd}: unknown flag --{k}"))),
        None => Ok(()),
    }
}

/// Handles the global `--metrics[=text|json|prom]` (+ `--metrics-out
/// FILE`) and `--trace-out FILE` flags after the subcommand finished
/// (so its root span is closed and included in the snapshot).
fn emit_observability(args: &Args) -> CliResult {
    if let Some(mode) = args.flag("metrics") {
        let snap = nwhy::obs::snapshot();
        let rendered = match mode {
            "" | "text" => snap.to_text(),
            "json" => {
                let mut doc = snap.to_json();
                doc.push('\n');
                doc
            }
            "prom" => nwhy::obs::render_prometheus(&snap),
            other => {
                return Err(CliError::usage(format!(
                    "unknown --metrics mode {other} (text|json|prom)"
                )))
            }
        };
        match args.flag("metrics-out") {
            // The subcommand's own report shares stdout, so scrape
            // consumers (CI's check-prom) read from a file instead.
            Some("") => return Err(CliError::usage("--metrics-out needs a file path")),
            Some(path) => {
                std::fs::write(path, rendered).map_err(|e| CliError::io(format!("{path}: {e}")))?;
            }
            None => out!("{rendered}"),
        }
    }
    if let Some(path) = args.flag("trace-out") {
        if path.is_empty() {
            return Err(CliError::usage("--trace-out needs a file path"));
        }
        std::fs::write(path, nwhy::obs::chrome_trace())
            .map_err(|e| CliError::io(format!("{path}: {e}")))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "-h" {
        usage();
    }
    let Some(&(name, span, flags, handler)) = COMMANDS.iter().find(|&&(name, ..)| name == raw[0])
    else {
        usage();
    };
    let args = Args::parse(&raw[1..]);
    let result = check_flags(name, flags, &args)
        .and_then(|()| {
            let _span = nwhy::obs::span(span);
            handler(&args)
        })
        .and_then(|()| emit_observability(&args))
        .and_then(|()| std::io::stdout().flush().map_err(stdout_failed));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
