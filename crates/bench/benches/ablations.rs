//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! 1. **relabel-by-degree × partitioning** for s-line construction
//!    (the Fig. 9 configuration sweep, isolated per axis);
//! 2. **queue vs non-queue on permuted IDs** — the motivating case for
//!    Algorithms 1–2: the queue variants take the permutation directly,
//!    the non-queue ones pay a full hypergraph rebuild first;
//! 3. **direction-optimizing vs pure top-down/bottom-up BFS** on the
//!    adjoin graph;
//! 4. **Hygra engine modes** (sparse/dense/auto) for the baseline BFS;
//! 5. **Algorithm 2 phase split** — candidate-pair generation vs the
//!    intersection pass.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hygra::bfs::hygra_bfs_with_mode;
use hygra::engine::Mode;
use nwgraph::algorithms::bfs::{bfs_bottom_up, bfs_direction_optimizing, bfs_top_down};
use nwhy_core::slinegraph::queue_single::queue_hashmap;
use nwhy_core::slinegraph::queue_two_phase::{candidate_pairs, queue_intersection};
use nwhy_core::{AdjoinGraph, Algorithm, Relabel, SLineBuilder};
use nwhy_gen::profiles::profile_by_name;
use nwhy_util::partition::Strategy;
use std::hint::black_box;

const SCALE: usize = 20_000;

fn bench_relabel_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_relabel");
    group.sample_size(10);
    let h = profile_by_name("com-Orkut").unwrap().generate(SCALE, 42);
    let blocked = Strategy::Blocked { num_bins: 0 };
    let cyclic = Strategy::Cyclic { num_bins: 0 };
    for (name, strategy, relabel) in [
        ("blocked/none", blocked, Relabel::None),
        ("blocked/desc", blocked, Relabel::Descending),
        ("cyclic/none", cyclic, Relabel::None),
        ("cyclic/asc", cyclic, Relabel::Ascending),
        ("cyclic/desc", cyclic, Relabel::Descending),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    SLineBuilder::new(&h)
                        .s(2)
                        .algorithm(Algorithm::Hashmap)
                        .strategy(strategy)
                        .relabel(relabel)
                        .edges(),
                )
            })
        });
    }
    group.finish();
}

fn bench_queue_on_permuted_ids(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_queue_permuted");
    group.sample_size(10);
    let h = profile_by_name("com-Orkut").unwrap().generate(SCALE, 42);
    // The adjoin graph is the "permuted" ID space: hypernode IDs shifted.
    let a = AdjoinGraph::from_hypergraph(&h);
    let queue: Vec<u32> = (0..nwhy_core::ids::from_usize(a.num_hyperedges())).collect();
    group.bench_function("alg1-on-adjoin-direct", |b| {
        b.iter(|| black_box(queue_hashmap(&a, &queue, 2, Strategy::AUTO)))
    });
    group.bench_function("alg2-on-adjoin-direct", |b| {
        b.iter(|| black_box(queue_intersection(&a, &queue, 2, Strategy::AUTO)))
    });
    // the non-queue algorithm cannot run on the adjoin ID space: it must
    // first rebuild the two-index-set bi-adjacency
    group.bench_function("hashmap-via-rebuild", |b| {
        b.iter(|| {
            let rebuilt = a.to_hypergraph();
            black_box(SLineBuilder::new(&rebuilt).s(2).edges())
        })
    });
    // ...but with the generic refactor the non-queue algorithm can also
    // run straight on the adjoin representation — measure that too
    group.bench_function("hashmap-on-adjoin-direct", |b| {
        b.iter(|| black_box(SLineBuilder::new(&a).s(2).edges()))
    });
    group.finish();
}

fn bench_direction_optimizing(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dobfs");
    group.sample_size(10);
    for name in ["Rand1", "com-Orkut"] {
        let h = profile_by_name(name).unwrap().generate(SCALE, 42);
        let a = AdjoinGraph::from_hypergraph(&h);
        let g = a.graph();
        let src = 0u32;
        group.bench_with_input(BenchmarkId::new(name, "top-down"), &(), |b, _| {
            b.iter(|| black_box(bfs_top_down(g, src)))
        });
        group.bench_with_input(BenchmarkId::new(name, "bottom-up"), &(), |b, _| {
            b.iter(|| black_box(bfs_bottom_up(g, src)))
        });
        group.bench_with_input(
            BenchmarkId::new(name, "direction-optimizing"),
            &(),
            |b, _| b.iter(|| black_box(bfs_direction_optimizing(g, src))),
        );
    }
    group.finish();
}

fn bench_hygra_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_hygra_modes");
    group.sample_size(10);
    let h = profile_by_name("Rand1").unwrap().generate(SCALE, 42);
    for (name, mode) in [
        ("sparse", Mode::ForceSparse),
        ("dense", Mode::ForceDense),
        ("auto", Mode::Auto),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(hygra_bfs_with_mode(&h, 0, mode)))
        });
    }
    group.finish();
}

fn bench_scheduling(c: &mut Criterion) {
    // blocked vs cyclic split of the Algorithm 1 work queue on a skewed
    // twin
    let mut group = c.benchmark_group("ablation_scheduling");
    group.sample_size(10);
    let h = profile_by_name("Orkut-group").unwrap().generate(SCALE, 42);
    let queue: Vec<u32> = (0..nwhy_core::ids::from_usize(h.num_hyperedges())).collect();
    group.bench_function("static-blocked", |b| {
        b.iter(|| {
            black_box(queue_hashmap(
                &h,
                &queue,
                2,
                Strategy::Blocked { num_bins: 0 },
            ))
        })
    });
    group.bench_function("static-cyclic", |b| {
        b.iter(|| {
            black_box(queue_hashmap(
                &h,
                &queue,
                2,
                Strategy::Cyclic { num_bins: 0 },
            ))
        })
    });
    group.finish();
}

fn bench_alg2_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_alg2_phases");
    group.sample_size(10);
    let h = profile_by_name("com-Orkut").unwrap().generate(SCALE, 42);
    let queue: Vec<u32> = (0..nwhy_core::ids::from_usize(h.num_hyperedges())).collect();
    group.bench_function("phase1-candidates-only", |b| {
        b.iter(|| black_box(candidate_pairs(&h, &queue, 2, Strategy::AUTO)))
    });
    group.bench_function("both-phases", |b| {
        b.iter(|| black_box(queue_intersection(&h, &queue, 2, Strategy::AUTO)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_relabel_ablation,
    bench_queue_on_permuted_ids,
    bench_direction_optimizing,
    bench_hygra_modes,
    bench_scheduling,
    bench_alg2_phases
);
criterion_main!(benches);
