//! Loom model tests for the lock-free primitives.
//!
//! Only built under the loom cfg:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p nwhy-util --test loom --release
//! ```
//!
//! Each `loom::model` closure is re-run once per distinct schedule; the
//! vendored loom (see `vendor/loom`) exhaustively enumerates thread
//! interleavings at atomic-operation granularity under sequentially
//! consistent semantics. Models are kept deliberately tiny (2–3 threads,
//! a few atomic ops each) so the schedule space stays in the thousands.
//!
//! `Box::leak` gives the spawned threads `'static` access to the shared
//! structure; the loom run owns the whole process, so the leak is
//! bounded by the number of explored schedules and irrelevant in
//! practice (test-only binary).
#![cfg(loom)]

use nwhy_util::atomics::{atomic_min_u32, cas_u32, link};
use nwhy_util::bitmap::AtomicBitmap;
use nwhy_util::sync::{AtomicU32, AtomicUsize, Ordering};

/// Two threads race `atomic_min_u32` with different values: the final
/// value must be the minimum of both, and at least the thread carrying
/// the global minimum must report a win (both may win transiently if
/// the larger value lands first).
#[test]
fn loom_atomic_min_two_threads() {
    loom::model(|| {
        let a: &'static AtomicU32 = Box::leak(Box::new(AtomicU32::new(100)));
        let wins: &'static AtomicUsize = Box::leak(Box::new(AtomicUsize::new(0)));

        let t1 = loom::thread::spawn(move || {
            if atomic_min_u32(a, 7) {
                wins.fetch_add(1, Ordering::Relaxed);
            }
        });
        let t2 = loom::thread::spawn(move || {
            if atomic_min_u32(a, 3) {
                wins.fetch_add(1, Ordering::Relaxed);
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();

        assert_eq!(a.load(Ordering::Relaxed), 3, "min must survive the race");
        let w = wins.load(Ordering::Relaxed);
        assert!((1..=2).contains(&w), "between one and two winners, got {w}");
    });
}

/// The CC kernels rely on "exactly one thread claims the slot": two
/// threads CAS the same unvisited slot; exactly one must succeed.
#[test]
fn loom_cas_claims_exactly_once() {
    loom::model(|| {
        let a: &'static AtomicU32 = Box::leak(Box::new(AtomicU32::new(u32::MAX)));
        let wins: &'static AtomicUsize = Box::leak(Box::new(AtomicUsize::new(0)));

        let handles: Vec<_> = (0..2u32)
            .map(|t| {
                loom::thread::spawn(move || {
                    if cas_u32(a, u32::MAX, t) {
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        assert_eq!(wins.load(Ordering::Relaxed), 1, "exactly one claimant");
        assert!(a.load(Ordering::Relaxed) < 2, "winner's value stored");
    });
}

/// Two threads link overlapping pairs of one parent forest (the HyperCC
/// and Afforest hooking): afterwards the linked entities share one root,
/// that root is their minimum, no parent exceeds its child, and an
/// entity no link touched stays its own root.
#[test]
fn loom_link_overlapping_pairs_leaves_one_minimum_root() {
    loom::model(|| {
        let comp: &'static [AtomicU32] = Box::leak(
            (0..4u32)
                .map(AtomicU32::new)
                .collect::<Vec<_>>()
                .into_boxed_slice(),
        );

        let t1 = loom::thread::spawn(move || link(2, 3, comp));
        let t2 = loom::thread::spawn(move || link(1, 3, comp));
        t1.join().unwrap();
        t2.join().unwrap();

        let root = |mut x: u32| loop {
            let p = comp[x as usize].load(Ordering::Relaxed);
            assert!(p <= x, "parent {p} above child {x}");
            if p == x {
                return x;
            }
            x = p;
        };
        for x in 1..4 {
            assert_eq!(root(x), 1, "entity {x} must end under the minimum");
        }
        assert_eq!(root(0), 0, "an untouched entity stays its own root");
    });
}

/// Two threads set the same bit: exactly one may observe the 0→1
/// transition, and the bit must be set afterwards. This is the frontier
/// dedup property direction-optimizing BFS depends on.
#[test]
fn loom_bitmap_set_single_transition() {
    loom::model(|| {
        let bm: &'static AtomicBitmap = Box::leak(Box::new(AtomicBitmap::new(64)));
        let wins: &'static AtomicUsize = Box::leak(Box::new(AtomicUsize::new(0)));

        let t1 = loom::thread::spawn(move || {
            if bm.set(5) {
                wins.fetch_add(1, Ordering::Relaxed);
            }
        });
        let t2 = loom::thread::spawn(move || {
            if bm.set(5) {
                wins.fetch_add(1, Ordering::Relaxed);
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();

        assert!(bm.get(5));
        assert_eq!(wins.load(Ordering::Relaxed), 1, "one 0→1 transition");
    });
}

/// Two threads set different bits of the same word: both transitions
/// must be observed (the Relaxed fast-path peek must not eat a win).
#[test]
fn loom_bitmap_set_distinct_bits_same_word() {
    loom::model(|| {
        let bm: &'static AtomicBitmap = Box::leak(Box::new(AtomicBitmap::new(64)));

        let t1 = loom::thread::spawn(move || bm.set(3));
        let t2 = loom::thread::spawn(move || bm.set(40));
        let w1 = t1.join().unwrap();
        let w2 = t2.join().unwrap();

        assert!(w1 && w2, "distinct bits: both setters must win");
        assert!(bm.get(3) && bm.get(40));
    });
}

/// A set bit publishes the setter's prior write: if the reader sees the
/// bit, it must also see the data written before `set` (AcqRel/Acquire
/// pairing — the BFS "frontier bit implies parent visible" contract).
#[test]
fn loom_bitmap_set_publishes_prior_write() {
    loom::model(|| {
        let bm: &'static AtomicBitmap = Box::leak(Box::new(AtomicBitmap::new(64)));
        let data: &'static AtomicU32 = Box::leak(Box::new(AtomicU32::new(0)));

        let writer = loom::thread::spawn(move || {
            data.store(42, Ordering::Relaxed);
            bm.set(0);
        });
        let reader = loom::thread::spawn(move || {
            if bm.get(0) {
                assert_eq!(
                    data.load(Ordering::Relaxed),
                    42,
                    "bit visible but prior write missing"
                );
            }
        });
        writer.join().unwrap();
        reader.join().unwrap();
    });
}
