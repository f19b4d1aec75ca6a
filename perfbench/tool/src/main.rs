//! Set-up and traced pass of the end-to-end query benchmark
//! (`perfbench/README.md`).
//!
//! ```text
//! perfbench-tool setup --workload W --seed N --scale D --dir DIR [--reference]
//! perfbench-tool trace --workload W --dir DIR
//! ```
//!
//! `setup` generates a workload's input files from the seed and times
//! generation + write; with `--reference` it also computes the expected
//! query answers from the generated hypergraph (untimed). `trace` replays
//! the workload's CLI query sequence once in-process, one query after the
//! other, timing each layer's public call; it adds no span to the
//! program. Both print one JSON object on stdout.

use nwhy::core::algorithms::{adjoin_bfs, hyper_bfs_top_down, hyper_cc, hyper_cc_generic};
use nwhy::core::slinegraph::planner;
use nwhy::core::{ids, AdjoinGraph, HyperAdjacency, HyperedgeId, Hypergraph, SLineBuilder};
use nwhy::gen::powerlaw::{powerlaw_hypergraph, PowerlawParams};
use nwhy::nwgraph::Csr;
use nwhy::obs::{counter_value, Counter};
use nwhy::store::Backend;
use std::collections::BTreeMap;
use std::fs::File;
use std::hint::black_box;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

type Pairs = Vec<(nwhy::core::Id, nwhy::core::Id)>;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// Minimal JSON rendering for the flat result objects this tool prints.
enum Json {
    Num(f64),
    Str(String),
    List(Vec<f64>),
    Obj(BTreeMap<&'static str, Json>),
}

impl Json {
    fn render(&self) -> String {
        match self {
            Json::Num(x) => num(*x),
            Json::Str(s) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Json::List(xs) => {
                let items: Vec<String> = xs.iter().map(|&x| num(x)).collect();
                format!("[{}]", items.join(","))
            }
            Json::Obj(m) => {
                let items: Vec<String> = m
                    .iter()
                    .map(|(k, v)| format!("\"{k}\":{}", v.render()))
                    .collect();
                format!("{{{}}}", items.join(","))
            }
        }
    }
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn obj<const N: usize>(entries: [(&'static str, Json); N]) -> Json {
    Json::Obj(BTreeMap::from(entries))
}

struct Opts {
    workload: String,
    dir: PathBuf,
    seed: u64,
    scale: usize,
    reference: bool,
}

fn parse_opts(raw: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        dir: PathBuf::new(),
        seed: 42,
        scale: 1,
        reference: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--reference" {
            o.reference = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("malformed {flag} value `{val}`");
        match flag.as_str() {
            "--workload" => o.workload = val.clone(),
            "--dir" => o.dir = PathBuf::from(val),
            "--seed" => o.seed = val.parse().map_err(|_| bad())?,
            "--scale" => o.scale = val.parse().map_err(|_| bad())?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.scale == 0 {
        return Err("--scale must be >= 1".into());
    }
    Ok(o)
}

/// The skewed s-line input at `1/scale` of its full size: |V| = 160k,
/// |E| = 375k, mean node degree 35, node/edge tail exponents 3.5/2.5.
fn skew_params(scale: usize, seed: u64) -> PowerlawParams {
    PowerlawParams {
        num_nodes: (160_000 / scale).max(16),
        num_edges: (375_000 / scale).max(16),
        avg_node_degree: 35.0,
        node_exponent: 3.5,
        edge_exponent: 2.5,
        seed,
    }
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> String {
    format!("{}: {e}", path.display())
}

fn setup(o: &Opts) -> Result<Json, String> {
    let (h, gen_s, path) = match o.workload.as_str() {
        "rand1-bin" | "rand1-pak" => {
            let profile = nwhy::gen::profiles::profile_by_name("Rand1")
                .ok_or("the Rand1 profile is missing")?;
            let (h, t) = timed(|| profile.generate(o.scale, o.seed));
            (h, t, o.dir.join("rand1.bin"))
        }
        "skew-sline" => {
            let (h, t) = timed(|| powerlaw_hypergraph(skew_params(o.scale, o.seed)));
            (h, t, o.dir.join("skew.hgr"))
        }
        other => return Err(format!("unknown workload {other}")),
    };
    let (written, write_s) = timed(|| -> Result<(), String> {
        let mut w = BufWriter::new(File::create(&path).map_err(|e| io_err(&path, e))?);
        if path.extension().is_some_and(|x| x == "bin") {
            nwhy::io::write_binary(&mut w, &h)
        } else {
            nwhy::io::write_hyperedge_list(&mut w, &h)
        }
        .map_err(|e| io_err(&path, e))?;
        w.flush().map_err(|e| io_err(&path, e))
    });
    written?;
    let mut out = BTreeMap::from([
        ("setup_s", Json::Num(gen_s + write_s)),
        ("gen_s", Json::Num(gen_s)),
        ("write_s", Json::Num(write_s)),
        ("incidences", Json::Num(h.num_incidences() as f64)),
        ("hyperedges", Json::Num(h.num_hyperedges() as f64)),
        ("hypernodes", Json::Num(h.num_hypernodes() as f64)),
        ("max_edge_size", Json::Num(h.stats().max_edge_degree as f64)),
    ]);
    if o.reference {
        out.insert("reference", reference(&o.workload, &h));
    }
    Ok(Json::Obj(out))
}

/// Expected answers, computed from the generated hypergraph where cheap
/// with other kernels than the CLI's default paths: top-down hyper-BFS
/// instead of adjoin BFS, and the plain hashmap kernel, which the planner
/// replaces with queue-hashmap on the skewed input.
fn reference(workload: &str, h: &Hypergraph) -> Json {
    let pairs = SLineBuilder::new(h).s(2).edges().len() as f64;
    if workload == "skew-sline" {
        return obj([("sline_pairs", Json::Num(pairs))]);
    }
    let bfs = hyper_bfs_top_down(h, 0);
    obj([
        ("sline_pairs", Json::Num(pairs)),
        ("bfs_edges", Json::Num(bfs.edges_reached() as f64)),
        ("bfs_nodes", Json::Num(bfs.nodes_reached() as f64)),
        (
            "cc_components",
            Json::Num(hyper_cc(h).num_components() as f64),
        ),
    ])
}

/// Layer samples, per-query attributed time, answers and counts of one
/// traced pass.
#[derive(Default)]
struct Trace {
    /// layer metric → one sample per call, in seconds
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// query → the sum of its layers' times
    attributed: BTreeMap<&'static str, f64>,
    /// answers, counts and sizes
    values: BTreeMap<&'static str, f64>,
    kernel: String,
}

impl Trace {
    fn sample(&mut self, layer: &'static str, secs: f64) -> f64 {
        self.samples.entry(layer).or_default().push(secs);
        secs
    }
    fn value(&mut self, key: &'static str, v: f64) {
        self.values.insert(key, v);
    }
    fn query(&mut self, name: &'static str, secs: f64) {
        self.attributed.insert(name, secs);
    }
}

fn load(tr: &mut Trace, path: &Path) -> Result<(Hypergraph, f64), String> {
    let (h, t) = timed(|| -> Result<Hypergraph, String> {
        let r = BufReader::new(File::open(path).map_err(|e| io_err(path, e))?);
        if path.extension().is_some_and(|x| x == "bin") {
            nwhy::io::read_binary(r)
        } else {
            nwhy::io::read_hyperedge_list(r)
        }
        .map_err(|e| io_err(path, e))
    });
    let h = h?;
    let bytes = std::fs::metadata(path).map_err(|e| io_err(path, e))?.len();
    tr.value("io.load_bytes", bytes as f64);
    Ok((h, tr.sample("io.load_s", t)))
}

fn open_mmap(
    tr: &mut Trace,
    path: &Path,
) -> Result<(nwhy::store::CompressedHypergraph, f64), String> {
    let (c, t) = timed(|| nwhy::io::open_packed(path, Backend::Mmap));
    Ok((
        c.map_err(|e| io_err(path, e))?,
        tr.sample("io.open_packed_s", t),
    ))
}

/// `sline --s 2 --kernel auto [--out FILE]` after the load: plan, kernel
/// (canonicalize included), and the optional edge-list emit. Returns the
/// time attributed to these layers.
fn sline_layers<A: HyperAdjacency + ?Sized>(
    tr: &mut Trace,
    g: &A,
    out: Option<&Path>,
) -> Result<f64, String> {
    let (plan, plan_s) = timed(|| planner::plan(g, 2));
    let counters = [
        ("sline.hashmap_insertions", Counter::SlineHashmapInsertions),
        ("sline.pairs_examined", Counter::SlinePairsExamined),
        ("sline.edges_emitted", Counter::SlineEdgesEmitted),
    ];
    let before = counters.map(|(_, c)| counter_value(c));
    let (pairs, kernel_s) = timed(|| SLineBuilder::new(g).s(2).algorithm(plan.algorithm).edges());
    for ((name, c), b) in counters.iter().zip(before) {
        tr.value(name, (counter_value(*c) - b) as f64);
    }
    tr.kernel = plan.algorithm.name().to_string();
    tr.value("sline_pairs", pairs.len() as f64);
    let mut secs = tr.sample("sline.plan_s", plan_s) + tr.sample("sline.kernel_s", kernel_s);
    if let Some(out) = out {
        let (bytes, emit_s) = timed(|| emit(out, &pairs));
        tr.value("emit_bytes", bytes? as f64);
        secs += tr.sample("emit_s", emit_s);
    }
    Ok(secs)
}

/// Replays the CLI's private `--out` writer: one `{a}\t{b}` line per pair
/// through a `BufWriter`.
fn emit(path: &Path, pairs: &Pairs) -> Result<u64, String> {
    let mut w = BufWriter::new(File::create(path).map_err(|e| io_err(path, e))?);
    for (a, b) in pairs {
        writeln!(w, "{a}\t{b}").map_err(|e| io_err(path, e))?;
    }
    w.flush().map_err(|e| io_err(path, e))?;
    Ok(std::fs::metadata(path).map_err(|e| io_err(path, e))?.len())
}

/// The loader's two CSR builds, timed apart on the already decoded
/// incidences (edge-major, the order both file formats store them in).
fn csr_layers(tr: &mut Trace, h: &Hypergraph) {
    let pairs: Pairs = (0..h.num_hyperedges())
        .flat_map(|e| {
            let e = ids::from_usize(e);
            h.edge_members(e).iter().map(move |&v| (e, v))
        })
        .collect();
    let (csr, t) = timed(|| Csr::from_pairs(h.num_hyperedges(), h.num_hypernodes(), &pairs, None));
    tr.sample("core.csr_s", t);
    let (_, t) = timed(|| csr.transpose());
    tr.sample("core.transpose_s", t);
}

/// One sequential pass over every edge row and every node row.
fn row_sweep<A: HyperAdjacency + ?Sized>(g: &A) -> u64 {
    let mut acc = 0u64;
    for e in 0..g.num_hyperedges() {
        for &v in g.edge_neighbors(ids::from_usize(e)).iter() {
            acc = acc.wrapping_add(u64::from(v));
        }
    }
    for i in 0..g.num_hypernodes() {
        for &e in g.node_neighbors(g.node_id(i)).iter() {
            acc = acc.wrapping_add(u64::from(e));
        }
    }
    acc
}

fn count_finite(levels: &[u32]) -> usize {
    levels.iter().filter(|&&l| l != u32::MAX).count()
}

/// The workload's query sequence, traced.
fn trace_pass(tr: &mut Trace, workload: &str, dir: &Path) -> Result<(), String> {
    let bin = dir.join("rand1.bin");
    let pak = dir.join("rand1.nwhypak");
    match workload {
        "rand1-bin" => {
            let (h, load_s) = load(tr, &bin)?;
            let q = load_s + sline_layers(tr, &h, None)?;
            tr.query("sline", q);
            drop(h);

            let (h, load_s) = load(tr, &bin)?;
            let (a, adjoin_s) = timed(|| AdjoinGraph::from_hypergraph(&h));
            let (r, bfs_s) = timed(|| adjoin_bfs(&a, HyperedgeId::new(0)));
            drop(a);
            let max_level = r
                .edge_levels
                .iter()
                .copied()
                .filter(|&l| l != u32::MAX)
                .max();
            tr.value("algo.bfs_levels", f64::from(max_level.unwrap_or(0)));
            tr.value("bfs_edges", count_finite(&r.edge_levels) as f64);
            tr.value("bfs_nodes", count_finite(&r.node_levels) as f64);
            let q = load_s + tr.sample("core.adjoin_s", adjoin_s) + tr.sample("algo.bfs_s", bfs_s);
            tr.query("bfs", q);
            drop(h);

            let (h, load_s) = load(tr, &bin)?;
            let (cc, cc_s) = timed(|| hyper_cc(&h));
            tr.value("cc_components", cc.num_components() as f64);
            let q = load_s + tr.sample("algo.cc_s", cc_s);
            tr.query("cc", q);
            csr_layers(tr, &h);
        }
        "rand1-pak" => {
            let (h, load_s) = load(tr, &bin)?;
            let (bytes, write_s) = timed(|| nwhy::io::write_packed_file(&pak, &h));
            let bytes = bytes.map_err(|e| io_err(&pak, e))?;
            tr.value("pack_bytes", bytes as f64);
            tr.value(
                "store.bytes_per_incidence",
                bytes as f64 / h.num_incidences().max(1) as f64,
            );
            let q = load_s + tr.sample("io.write_packed_s", write_s);
            tr.query("pack", q);
            // the pointer-backend baseline of the row sweep (no query runs it)
            let (_, t) = timed(|| row_sweep(&h));
            tr.sample("store.pointer_sweep_s", t);
            csr_layers(tr, &h);
            drop(h);

            let (c, open_s) = open_mmap(tr, &pak)?;
            let q = open_s + sline_layers(tr, &c, None)?;
            tr.query("sline", q);
            drop(c);

            let (c, open_s) = open_mmap(tr, &pak)?;
            let (cc, cc_s) = timed(|| hyper_cc_generic(&c));
            tr.value("cc_components", cc.num_components() as f64);
            let q = open_s + tr.sample("algo.cc_s", cc_s);
            tr.query("cc", q);
            let (_, t) = timed(|| row_sweep(&c));
            tr.sample("store.row_sweep_s", t);
        }
        "skew-sline" => {
            let (h, load_s) = load(tr, &dir.join("skew.hgr"))?;
            let q = load_s + sline_layers(tr, &h, Some(&dir.join("skew.trace.out")))?;
            tr.query("sline", q);
            csr_layers(tr, &h);
        }
        other => return Err(format!("unknown workload {other}")),
    }
    Ok(())
}

fn trace(o: &Opts) -> Result<Json, String> {
    let mut tr = Trace::default();
    trace_pass(&mut tr, &o.workload, &o.dir)?;
    let nums = |m: BTreeMap<&'static str, f64>| {
        Json::Obj(m.into_iter().map(|(k, v)| (k, Json::Num(v))).collect())
    };
    let samples = tr.samples.into_iter().map(|(k, v)| (k, Json::List(v)));
    Ok(obj([
        ("samples", Json::Obj(samples.collect())),
        ("attributed", nums(tr.attributed)),
        ("values", nums(tr.values)),
        ("kernel", Json::Str(tr.kernel)),
    ]))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.split_first() {
        Some((cmd, rest)) => parse_opts(rest).and_then(|o| match cmd.as_str() {
            "setup" => setup(&o),
            "trace" => trace(&o),
            other => Err(format!("unknown command {other} (setup|trace)")),
        }),
        None => Err("usage: perfbench-tool <setup|trace> --workload W --dir DIR ...".into()),
    };
    match result {
        Ok(doc) => {
            println!("{}", doc.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
