//! The disabled build must be observably inert: this binary only
//! compiles with `--no-default-features` and proves every entry point is
//! a no-op — `Span` is a ZST, counters never accumulate, snapshots and
//! traces are empty. Combined with `enabled()` being `const false`
//! (which deletes guarded worker-local tallies at compile time), the
//! instrumented kernels run the same code paths with zero added atomic
//! traffic.

#![cfg(not(feature = "enabled"))]

use nwhy_obs::{Counter, Hist, Span};

#[test]
fn enabled_is_const_false() {
    const { assert!(!nwhy_obs::enabled()) }
}

#[test]
fn span_is_a_zst() {
    assert_eq!(std::mem::size_of::<Span>(), 0);
}

#[test]
fn latency_is_inert() {
    {
        let _s = nwhy_obs::span("noop.latency");
        nwhy_obs::incr(Counter::BfsRounds);
    }
    assert!(nwhy_obs::snapshot().quantiles.is_empty());
}

#[test]
fn counters_never_accumulate() {
    nwhy_obs::add(Counter::SlinePairsExamined, 1_000);
    nwhy_obs::incr(Counter::BfsRounds);
    assert_eq!(nwhy_obs::counter_value(Counter::SlinePairsExamined), 0);
    assert_eq!(nwhy_obs::counter_value(Counter::BfsRounds), 0);
}

#[test]
fn everything_snapshots_empty() {
    let _span = nwhy_obs::span("noop.outer");
    {
        let _inner = nwhy_obs::span("noop.inner");
        nwhy_obs::observe(Hist::BfsFrontierEdges, 42);
        nwhy_obs::add(Counter::IoBytesRead, 7);
    }
    drop(_span);
    let snap = nwhy_obs::snapshot();
    assert!(snap.is_empty());
    assert!(nwhy_obs::take_trace().is_empty());
    // reset() must also be callable without a registry materializing.
    nwhy_obs::reset();
    assert!(nwhy_obs::snapshot().is_empty());
}
