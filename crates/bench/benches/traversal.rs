//! Hypergraph traversal bench (BFS and CC on every representation plus
//! the Hygra baseline) — emits `BENCH_traversal.json`, one record per
//! algorithm × dataset with the median runtime and the kernel counters
//! one run produced (backing Figs. 7–8 plus the machine-readable perf
//! trajectory CI tracks).
//!
//! Knobs: `NWHY_BENCH_SCALE` (twin down-scale factor, default 20 000 —
//! larger is smaller/faster), `NWHY_TRIALS` (default 5), `NWHY_BENCH_OUT`
//! (output directory, default `.`).

use nwhy_bench::{bench_cell, env_usize, write_json, BenchRecord};
use nwhy_core::algorithms::{
    adjoin_bfs, adjoin_cc_afforest, adjoin_cc_label_propagation, hyper_bfs_bottom_up,
    hyper_bfs_top_down, hyper_cc_label_propagation,
};
use nwhy_core::{AdjoinGraph, HyperedgeId, Hypergraph};
use nwhy_gen::profiles::profile_by_name;

fn setup(name: &str, scale: usize) -> (Hypergraph, AdjoinGraph, u32) {
    let h = profile_by_name(name).unwrap().generate(scale, 42);
    let a = AdjoinGraph::from_hypergraph(&h);
    let src = (0..nwhy_core::ids::from_usize(h.num_hyperedges()))
        .max_by_key(|&e| h.edge_degree(e))
        .unwrap();
    (h, a, src)
}

fn main() {
    let scale = env_usize("NWHY_BENCH_SCALE", 20_000);
    let trials = env_usize("NWHY_TRIALS", 5);
    let out_dir = std::env::var("NWHY_BENCH_OUT").unwrap_or_else(|_| ".".into());
    let mut records: Vec<BenchRecord> = Vec::new();
    let run = |records: &mut Vec<BenchRecord>, name, algo, f: &mut dyn FnMut()| {
        let rec = bench_cell("traversal", name, algo, None, trials, &mut *f);
        println!("{name:>10} {algo:<20} {:.4}s", rec.median_seconds);
        records.push(rec);
    };

    for name in ["com-Orkut", "Rand1"] {
        let (h, a, src) = setup(name, scale);
        run(&mut records, name, "HyperBFS-topdown", &mut || {
            std::hint::black_box(hyper_bfs_top_down(&h, src));
        });
        run(&mut records, name, "HyperBFS-bottomup", &mut || {
            std::hint::black_box(hyper_bfs_bottom_up(&h, src));
        });
        run(&mut records, name, "AdjoinBFS", &mut || {
            std::hint::black_box(adjoin_bfs(&a, HyperedgeId::new(src)));
        });
        run(&mut records, name, "HygraBFS", &mut || {
            std::hint::black_box(hygra::hygra_bfs(&h, src));
        });
        run(&mut records, name, "HygraBFS-auto", &mut || {
            std::hint::black_box(hygra::bfs::hygra_bfs_with_mode(
                &h,
                src,
                hygra::engine::Mode::Auto,
            ));
        });
        run(&mut records, name, "HyperCC", &mut || {
            std::hint::black_box(hyper_cc_label_propagation(&h));
        });
        run(&mut records, name, "AdjoinCC-afforest", &mut || {
            std::hint::black_box(adjoin_cc_afforest(&a));
        });
        run(&mut records, name, "AdjoinCC-labelprop", &mut || {
            std::hint::black_box(adjoin_cc_label_propagation(&a));
        });
        run(&mut records, name, "HygraCC", &mut || {
            std::hint::black_box(hygra::hygra_cc(&h));
        });
    }

    write_json(&format!("{out_dir}/BENCH_traversal.json"), &records);
}
