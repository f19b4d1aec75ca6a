//! Storage bench: the compressed NWHYPAK1 representation vs the
//! pointer-based in-memory bi-adjacency — emits `BENCH_storage.json`.
//!
//! Three questions, one record each per dataset:
//!
//! - **Size** — `pack` cells time packing and carry the byte accounting
//!   in counters: `storage.packed_bytes` vs `storage.nwhybin1_bytes`
//!   (the uncompressed binary yardstick, 8 bytes/incidence + header)
//!   and `storage.bytes_per_incidence_milli` (×1000, counters are
//!   integers).
//! - **Traversal throughput** — the *same* generic BFS/CC kernels run
//!   on both backends (`-pointer` vs `-packed` cells), so the gap is
//!   purely the per-row varint decode, not a different algorithm.
//! - **s-line throughput** — Hashmap construction at s = 2 on both
//!   backends.
//!
//! Knobs: `NWHY_BENCH_SCALE` (twin down-scale factor, default 20 000 —
//! larger is smaller/faster), `NWHY_TRIALS` (default 5), `NWHY_BENCH_OUT`
//! (output directory, default `.`).

use nwhy_bench::{bench_cell, env_usize, write_json, BenchRecord};
use nwhy_core::algorithms::{hyper_bfs_top_down, hyper_cc};
use nwhy_core::{Hypergraph, SLineBuilder};
use nwhy_gen::profiles::profile_by_name;
use nwhy_store::Backend;

fn setup(name: &str, scale: usize) -> (Hypergraph, u32) {
    let h = profile_by_name(name).unwrap().generate(scale, 42);
    let src = (0..nwhy_core::ids::from_usize(h.num_hyperedges()))
        .max_by_key(|&e| h.edge_degree(e))
        .unwrap();
    (h, src)
}

fn main() {
    let scale = env_usize("NWHY_BENCH_SCALE", 20_000);
    let trials = env_usize("NWHY_TRIALS", 5);
    let out_dir = std::env::var("NWHY_BENCH_OUT").unwrap_or_else(|_| ".".into());
    let mut records: Vec<BenchRecord> = Vec::new();
    let run = |records: &mut Vec<BenchRecord>, name, algo, s, f: &mut dyn FnMut()| -> f64 {
        let rec = bench_cell("storage", name, algo, s, trials, &mut *f);
        println!("{name:>10} {algo:<24} {:.4}s", rec.median_seconds);
        let secs = rec.median_seconds;
        records.push(rec);
        secs
    };

    for name in ["com-Orkut", "Rand1"] {
        let (h, src) = setup(name, scale);

        // pack through a real file so the packed cells traverse exactly
        // what ships to disk (mmap-backed where the platform allows)
        let mut path = std::env::temp_dir();
        path.push(format!(
            "nwhy-bench-storage-{}-{name}.nwhypak",
            std::process::id()
        ));
        let packed_bytes = nwhy_io::write_packed_file(&path, &h).expect("pack must succeed");
        let c = nwhy_io::open_packed(&path, Backend::Auto).expect("packed image must open");
        let mut bin = Vec::new();
        nwhy_io::write_binary(&mut bin, &h).expect("in-memory NWHYBIN1 write");

        let mut size_rec = bench_cell("storage", name, "pack", None, trials, || {
            std::hint::black_box(nwhy_store::pack_hypergraph(&h));
        });
        let bpi = c.stats().bytes_per_incidence();
        size_rec
            .counters
            .push(("storage.packed_bytes".into(), packed_bytes));
        size_rec
            .counters
            .push(("storage.nwhybin1_bytes".into(), bin.len() as u64));
        // lint: bpi = total_bytes / nnz is a small non-negative ratio,
        // so the rounded milli-value always fits in u64 exactly.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let bpi_milli = (bpi * 1000.0).round() as u64;
        size_rec
            .counters
            .push(("storage.bytes_per_incidence_milli".into(), bpi_milli));
        size_rec
            .counters
            .push(("storage.mapped".into(), u64::from(c.is_mapped())));
        println!(
            "{name:>10} {:<24} {:.4}s  ({packed_bytes} B packed vs {} B NWHYBIN1, \
             {bpi:.3} B/incidence)",
            "pack",
            size_rec.median_seconds,
            bin.len()
        );
        records.push(size_rec);

        let bfs_ptr = run(&mut records, name, "HyperBFS-pointer", None, &mut || {
            std::hint::black_box(hyper_bfs_top_down(&h, src));
        });
        let bfs_pak = run(&mut records, name, "HyperBFS-packed", None, &mut || {
            std::hint::black_box(hyper_bfs_top_down(&c, src));
        });
        let cc_ptr = run(&mut records, name, "HyperCC-pointer", None, &mut || {
            std::hint::black_box(hyper_cc(&h));
        });
        let cc_pak = run(&mut records, name, "HyperCC-packed", None, &mut || {
            std::hint::black_box(hyper_cc(&c));
        });
        let sl_ptr = run(
            &mut records,
            name,
            "SLine-hashmap-pointer",
            Some(2),
            &mut || {
                std::hint::black_box(SLineBuilder::new(&h).s(2).edges());
            },
        );
        let sl_pak = run(
            &mut records,
            name,
            "SLine-hashmap-packed",
            Some(2),
            &mut || {
                std::hint::black_box(SLineBuilder::new(&c).s(2).edges());
            },
        );
        println!(
            "{name:>10} packed/pointer slowdown: bfs {:.2}x  cc {:.2}x  sline {:.2}x",
            bfs_pak / bfs_ptr.max(f64::EPSILON),
            cc_pak / cc_ptr.max(f64::EPSILON),
            sl_pak / sl_ptr.max(f64::EPSILON)
        );

        std::fs::remove_file(&path).ok();
    }

    write_json(&format!("{out_dir}/BENCH_storage.json"), &records);
}
