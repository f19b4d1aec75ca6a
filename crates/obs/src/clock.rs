//! The monotonic tick source behind windowed-quantile rotation (active
//! build only).
//!
//! Two modes, switched at init:
//!
//! - **wall clock** (default): ticks are microseconds since the first
//!   call (a lazily-pinned [`Instant`] epoch);
//! - **manual**: ticks come from a plain atomic counter the test driver
//!   advances with [`advance`] — every rotation becomes deterministic,
//!   which is what the windowed-quantile fixture tests pin against.
//!
//! The mode lives in one atomic flag so reading the clock is two relaxed
//! loads on the hot path. [`reset`] restores wall-clock mode and zeroes
//! the manual counter (test isolation goes through `nwhy_obs::reset`).

use std::sync::OnceLock;
use std::time::Instant;

// lint: deliberately std, not nwhy_util::sync — this module is compiled
// out under `--cfg loom` alongside the registry, and the window struct
// takes caller-supplied ticks instead
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static MANUAL_MODE: AtomicBool = AtomicBool::new(false);
static MANUAL_TICKS: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The current tick. Microseconds since the process epoch in wall-clock
/// mode; the manual counter otherwise.
pub(crate) fn now_ticks() -> u64 {
    if MANUAL_MODE.load(Ordering::Relaxed) {
        MANUAL_TICKS.load(Ordering::Relaxed)
    } else {
        // lint: u128 microsecond counts fit u64 for the next ~584k years
        #[allow(clippy::cast_possible_truncation)]
        {
            epoch().elapsed().as_micros() as u64
        }
    }
}

/// Switches between the deterministic manual counter and the wall clock.
pub(crate) fn set_manual(on: bool) {
    MANUAL_MODE.store(on, Ordering::Relaxed);
}

/// Advances the manual counter by `n` ticks (no-op for readers while in
/// wall-clock mode, but the counter still accumulates).
pub(crate) fn advance(n: u64) {
    MANUAL_TICKS.fetch_add(n, Ordering::Relaxed);
}

/// Restores wall-clock mode and zeroes the manual counter.
pub(crate) fn reset() {
    MANUAL_MODE.store(false, Ordering::Relaxed);
    MANUAL_TICKS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The clock statics are process-global, so the two tests serialize.
    static GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn manual_mode_is_deterministic() {
        let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
        set_manual(true);
        MANUAL_TICKS.store(0, Ordering::Relaxed);
        assert_eq!(now_ticks(), 0);
        advance(7);
        assert_eq!(now_ticks(), 7);
        advance(3);
        assert_eq!(now_ticks(), 10);
        reset();
        assert!(!MANUAL_MODE.load(Ordering::Relaxed));
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        let a = now_ticks();
        let b = now_ticks();
        assert!(b >= a);
    }
}
