//! Compare-and-swap helpers used by the parallel graph kernels.
//!
//! Label-propagation connected components, Afforest, and BFS all rely on
//! "write the smaller value, tell me whether I won" primitives. These are
//! expressed here as CAS loops over the standard atomic integer types, plus
//! Afforest's union-find hooking ([`link`], [`compress`]).
//!
//! # Ordering policy
//!
//! Every CAS loop in this module uses the same ordering triple, and
//! [`crate::bitmap`] aligns with it:
//!
//! - **`Relaxed` initial load.** The first read only seeds the CAS
//!   loop; a stale value costs at most one extra CAS iteration and can
//!   never produce a wrong result, because the CAS itself revalidates
//!   against the current value. No synchronization is needed to *look*.
//! - **`AcqRel` on CAS success.** A successful update is the moment a
//!   thread *wins* a slot (a smaller component label, a BFS parent, a
//!   frontier bit). The `Release` half publishes everything the winner
//!   wrote before claiming (e.g. the level/parent arrays filled in
//!   before the frontier bit is set); the `Acquire` half means the
//!   winner also observes whatever the previous holder published. The
//!   kernels use the returned `bool` to decide whether to enqueue or
//!   process a vertex, so the claim must be a synchronization point.
//! - **`Relaxed` on CAS failure.** A failed CAS only tells the loop
//!   "someone else moved the value, reread it"; the reread is revalidated
//!   by the next CAS attempt exactly like the initial load, so the
//!   failure ordering needs no barrier.
//!
//! This is deliberately *not* `SeqCst` anywhere: none of the kernels
//! need a single total order over unrelated atomics, only the
//! happens-before edge from a winning writer to the readers of its
//! claim. The loom models in `tests/loom.rs` exhaustively check the
//! interleaving behavior, and the nightly ThreadSanitizer CI job checks
//! the ordering choices on real hardware.
//!
//! Under `RUSTFLAGS="--cfg loom"` the atomic types switch to the loom
//! model checker's instrumented versions (see [`crate::sync`]).

use crate::sync::{AtomicU32, Ordering};
use rayon::prelude::*;

/// Atomically set `a = min(a, val)`.
///
/// Returns `true` if the stored value was lowered (i.e. this call "won"),
/// which the CC kernels use to decide whether to re-enqueue a vertex.
/// Orderings follow the [module policy](self): `Relaxed` seed load,
/// `AcqRel` success, `Relaxed` failure.
#[inline]
pub fn atomic_min_u32(a: &AtomicU32, val: u32) -> bool {
    let mut cur = a.load(Ordering::Relaxed);
    while val < cur {
        match a.compare_exchange_weak(cur, val, Ordering::AcqRel, Ordering::Relaxed) {
            Ok(_) => return true,
            Err(observed) => cur = observed,
        }
    }
    false
}

/// Afforest's concurrent hooking (Sutton et al., IPDPS'18, after GAPBS):
/// joins the trees of `u` and `v` in the parent forest `comp`.
///
/// Parents only ever decrease (`comp[x] ≤ x`), so every root is the
/// minimum of its tree. A link finds both roots and hooks the larger under
/// the smaller with one claim CAS, which fails only when another thread
/// hooked that root first; then it finds both roots again. Any number of
/// threads may link concurrently; once every incidence is linked and
/// [`compress`] has run, `comp[x]` is the minimum of `x`'s component. CAS
/// orderings follow the [module policy](self).
#[inline]
pub fn link(u: u32, v: u32, comp: &[AtomicU32]) {
    let (mut a, mut b) = (find(u, comp), find(v, comp));
    while a != b {
        let (high, low) = if a > b { (a, b) } else { (b, a) };
        if comp[high as usize]
            .compare_exchange(high, low, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            return;
        }
        a = find(high, comp);
        b = find(low, comp);
    }
}

/// The root of `x`'s tree in a [`link`] forest, halving the path on the
/// way: each visited slot is pointed at its grandparent. A slot that is
/// not a root never becomes one again and no CAS targets it, so only
/// these stores write it, and whatever ancestor a racing store leaves
/// there stays an ancestor (`Relaxed` stores, like [`compress`]).
#[inline]
fn find(mut x: u32, comp: &[AtomicU32]) -> u32 {
    loop {
        let p = comp[x as usize].load(Ordering::Relaxed);
        if p == x {
            return x;
        }
        let gp = comp[p as usize].load(Ordering::Relaxed);
        if gp != p {
            comp[x as usize].store(gp, Ordering::Relaxed);
        }
        x = gp;
    }
}

/// Full pointer-jump compression of a parent forest built by [`link`]:
/// afterwards every entry names its root.
pub fn compress(comp: &[AtomicU32]) {
    (0..comp.len()).into_par_iter().for_each(|u| loop {
        let p = comp[u].load(Ordering::Relaxed);
        let gp = comp[p as usize].load(Ordering::Relaxed);
        if p == gp {
            break;
        }
        comp[u].store(gp, Ordering::Relaxed);
    });
}

/// A single CAS attempt replacing `expected` with `desired`.
///
/// This mirrors the `compare_and_swap` idiom used in BFS parent claiming:
/// exactly one thread may move a parent slot from "unvisited" to a real
/// parent ID. `AcqRel` on success is what makes the claim a
/// synchronization point (the winner's earlier writes become visible to
/// whoever later reads the slot); failure is `Relaxed` per the
/// [module policy](self).
#[inline]
pub fn cas_u32(a: &AtomicU32, expected: u32, desired: u32) -> bool {
    a.compare_exchange(expected, desired, Ordering::AcqRel, Ordering::Relaxed)
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    // lint: deliberately std, not crate::sync — these model-free tests
    // also run under the `--cfg loom` CI job, outside loom::model
    use std::sync::atomic::AtomicU32;

    #[test]
    fn min_lowers_value() {
        let a = AtomicU32::new(10);
        assert!(atomic_min_u32(&a, 3));
        assert_eq!(a.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn min_keeps_smaller_existing_value() {
        let a = AtomicU32::new(2);
        assert!(!atomic_min_u32(&a, 5));
        assert_eq!(a.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn min_is_noop_on_equal() {
        let a = AtomicU32::new(7);
        assert!(!atomic_min_u32(&a, 7));
        assert_eq!(a.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn cas_claims_exactly_once() {
        let a = AtomicU32::new(u32::MAX);
        assert!(cas_u32(&a, u32::MAX, 5));
        assert!(!cas_u32(&a, u32::MAX, 6));
        assert_eq!(a.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn atomic_min_under_contention() {
        let a = AtomicU32::new(u32::MAX);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let a = &a;
                s.spawn(move || {
                    for i in 0..1000 {
                        atomic_min_u32(a, t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(a.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn link_then_compress_names_component_minima() {
        let comp: Vec<AtomicU32> = (0..7).map(AtomicU32::new).collect();
        for (u, v) in [(5, 3), (6, 4), (4, 5), (2, 1)] {
            link(u, v, &comp);
        }
        compress(&comp);
        let labels: Vec<u32> = comp.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        assert_eq!(labels, vec![0, 1, 1, 3, 3, 3, 3]);
    }
}
