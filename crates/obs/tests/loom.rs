//! Loom model tests for the sharded counter core.
//!
//! Only built under the loom cfg:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p nwhy-obs --test loom --release
//! ```
//!
//! Under `--cfg loom` the crate's registry (spans, histograms, trace
//! buffer) is compiled out — the primitive concurrent code hammers,
//! [`ShardedU64`] (rayon counter bumps), is model-checked directly.
//! `Box::leak` gives spawned threads `'static` access; the leak is
//! bounded by the explored-schedule count (test-only binary).

#![cfg(loom)]

use nwhy_obs::sharded::ShardedU64;

/// Two writers on distinct shards: no bump is ever lost. (A concurrent
/// `sum()` would add 16 interleaving-relevant loads and blow up the
/// schedule space, so the reader runs after the joins — the join edge is
/// exactly the happens-before the API documents for `sum`.)
#[test]
fn loom_sharded_bumps_never_lost() {
    loom::model(|| {
        let c: &'static ShardedU64 = Box::leak(Box::new(ShardedU64::new()));

        let w1 = loom::thread::spawn(move || {
            c.add_to_shard(0, 1);
            c.add_to_shard(0, 2);
        });
        let w2 = loom::thread::spawn(move || {
            c.add_to_shard(1, 4);
        });
        w1.join().unwrap();
        w2.join().unwrap();
        assert_eq!(c.sum(), 7, "all bumps must land after join");
    });
}

/// Two writers racing on the *same* shard: fetch_add must not drop
/// either increment.
#[test]
fn loom_same_shard_contention() {
    loom::model(|| {
        let c: &'static ShardedU64 = Box::leak(Box::new(ShardedU64::new()));

        let handles: Vec<_> = (0..2)
            .map(|_| loom::thread::spawn(move || c.add_to_shard(3, 1)))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.sum(), 2);
    });
}

/// Shard indices beyond the slab are masked, also under the model.
#[test]
fn loom_shard_masking() {
    loom::model(|| {
        let c = ShardedU64::new();
        c.add_to_shard(usize::MAX, 9);
        assert_eq!(c.sum(), 9);
    });
}
