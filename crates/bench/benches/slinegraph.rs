//! s-line-graph construction bench — emits `BENCH_slinegraph.json`, one
//! record per algorithm × dataset × s with the median runtime and the
//! kernel counters one run produced (backing Fig. 9 plus the
//! machine-readable perf trajectory CI tracks).
//!
//! Beyond the Table I twins, two synthetic shapes exercise the adaptive
//! intersection engine and the kernel planner:
//!
//! - `PowerLawSkew` — heavy-tailed degrees; the `auto` rows here back
//!   the planner's acceptance claim (no more pairs/comparisons than the
//!   best fixed kernel, within 5%);
//! - `DenseOverlap` — a small hypernode universe with large hyperedges,
//!   where the adaptive `intersection` row loads bitset rows and needs
//!   fewer comparisons than the `naive` merge-scan row.
//!
//! Knobs: `NWHY_BENCH_SCALE` (twin down-scale factor, default 20 000 —
//! larger is smaller/faster), `NWHY_TRIALS` (default 5), `NWHY_BENCH_OUT`
//! (output directory, default `.`).

use nwhy_bench::{bench_cell, env_usize, write_json, BenchRecord};
use nwhy_core::{Algorithm, Hypergraph, SLineBuilder};
use nwhy_gen::powerlaw::PowerlawParams;
use nwhy_gen::profiles::profile_by_name;
use nwhy_gen::uniform_random;

fn datasets(scale: usize) -> Vec<(&'static str, Hypergraph)> {
    let mut out: Vec<(&'static str, Hypergraph)> = ["com-Orkut", "Rand1"]
        .iter()
        .map(|n| (*n, profile_by_name(n).unwrap().generate(scale, 42)))
        .collect();
    // heavy-tailed degrees: a few huge hyperedges over many tiny ones,
    // the shape the galloping path and queue promotion are built for
    let skew_edges = (40_000_000 / scale.max(1)).clamp(64, 8_192);
    out.push((
        "PowerLawSkew",
        nwhy_gen::powerlaw_hypergraph(PowerlawParams {
            num_nodes: skew_edges,
            num_edges: skew_edges,
            avg_node_degree: 3.0,
            node_exponent: 1.7,
            edge_exponent: 1.7,
            seed: 42,
        }),
    ));
    // large hyperedges over a tiny universe: nearly every pair overlaps
    // heavily, the regime where the packed-word bitset path wins
    let dense_edges = (4_000_000 / scale.max(1)).clamp(48, 512);
    out.push(("DenseOverlap", uniform_random(96, dense_edges, 48, 42)));
    out
}

fn main() {
    let scale = env_usize("NWHY_BENCH_SCALE", 20_000);
    let trials = env_usize("NWHY_TRIALS", 5);
    let out_dir = std::env::var("NWHY_BENCH_OUT").unwrap_or_else(|_| ".".into());
    let mut records: Vec<BenchRecord> = Vec::new();

    for (name, h) in datasets(scale) {
        for s in [1usize, 2, 4] {
            for algo in [
                Algorithm::Naive,
                Algorithm::Hashmap,
                Algorithm::Intersection,
                Algorithm::QueueHashmap,
                Algorithm::QueueIntersection,
            ] {
                // Naive is quadratic in |E| — only run it on inputs small
                // enough that the sweep stays interactive.
                if algo == Algorithm::Naive && h.num_hyperedges() > 2_000 {
                    continue;
                }
                let rec = bench_cell("slinegraph", name, algo.name(), Some(s), trials, || {
                    SLineBuilder::new(&h).s(s).algorithm(algo).edges()
                });
                println!(
                    "{name:>12} s={s} {:<20} {:.4}s",
                    rec.algorithm, rec.median_seconds
                );
                records.push(rec);
            }
            // the planner's pick — its counters must track the best
            // fixed kernel (the bench_json acceptance test checks this)
            let rec = bench_cell("slinegraph", name, "auto", Some(s), trials, || {
                SLineBuilder::new(&h).s(s).auto().edges()
            });
            println!(
                "{name:>12} s={s} {:<20} {:.4}s",
                rec.algorithm, rec.median_seconds
            );
            records.push(rec);
        }
        let rec = bench_cell("slinegraph", name, "Ensemble", None, trials, || {
            SLineBuilder::new(&h).ensemble_edges(&[1, 2, 4])
        });
        println!(
            "{name:>12} s=[1,2,4] {:<17} {:.4}s",
            rec.algorithm, rec.median_seconds
        );
        records.push(rec);
    }

    write_json(&format!("{out_dir}/BENCH_slinegraph.json"), &records);
}
