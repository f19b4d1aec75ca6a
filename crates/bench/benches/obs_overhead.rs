//! Obs-overhead A/B micro-benchmark.
//!
//! Run twice over the same kernels:
//!
//! ```text
//! cargo bench -p nwhy-bench --bench obs_overhead
//! cargo bench -p nwhy-bench --bench obs_overhead --no-default-features
//! ```
//!
//! Criterion stores the two runs under `obs-on/…` and `obs-off/…` group
//! names (picked from `nwhy_obs::enabled()` at compile time), so
//! `target/criterion` holds both sides for comparison. The acceptance
//! bar for the instrumentation is < 2% delta on every kernel.

use criterion::{criterion_group, criterion_main, Criterion};
use nwhy_core::SLineBuilder;
use nwhy_gen::profiles::profile_by_name;
use std::hint::black_box;

const SCALE: usize = 20_000;

fn bench_overhead(c: &mut Criterion) {
    let h = profile_by_name("com-Orkut").unwrap().generate(SCALE, 42);
    let group_name = if nwhy_obs::enabled() {
        "obs-on"
    } else {
        "obs-off"
    };
    let mut group = c.benchmark_group(group_name);
    group.sample_size(20);
    group.bench_function("sline-hashmap-s2", |b| {
        b.iter(|| black_box(SLineBuilder::new(&h).s(2).edges()))
    });
    group.bench_function("hygra-bfs-auto", |b| {
        b.iter(|| {
            black_box(hygra::bfs::hygra_bfs_with_mode(
                &h,
                0,
                hygra::engine::Mode::Auto,
            ))
        })
    });
    group.bench_function("hygra-cc", |b| b.iter(|| black_box(hygra::hygra_cc(&h))));
    group.finish();
}

criterion_group!(benches, bench_overhead);
criterion_main!(benches);
