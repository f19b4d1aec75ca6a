//! `nwhy-obs` — zero-cost observability for the nwhy-rs workspace.
//!
//! A vendored-dependency-free span/counter/histogram registry:
//!
//! - **RAII spans** ([`span`]) that nest via a thread-local stack and
//!   aggregate per-phase wall time by `/`-joined path;
//! - **sharded relaxed-atomic counters** ([`add`]/[`incr`]) safe to bump
//!   from rayon workers, built on [`nwhy_util::sync`] atomics so the
//!   sharded core is loom-model-checkable (`tests/loom.rs`);
//! - **power-of-two histograms** ([`observe`]) for frontier-size style
//!   distributions;
//! - **windowed latency quantiles** ([`observe_latency`], fed by every
//!   span close) over a trailing window of [`window::WindowedHist`]s;
//! - **sinks**: [`snapshot`] → [`MetricsSnapshot`] with
//!   [`MetricsSnapshot::to_text`] / [`MetricsSnapshot::to_json`] /
//!   [`render_prometheus`], and [`take_trace`] / [`chrome_trace`] for
//!   `chrome://tracing`.
//!
//! # Zero cost when disabled
//!
//! All cfg-gating lives *here*. Downstream crates call these functions
//! unconditionally; with the `enabled` feature off every entry point is
//! an empty `#[inline]` body and [`Span`] is a ZST, so instrumented
//! kernels carry zero added atomic traffic (`tests/noop.rs` asserts
//! this). Hot loops that keep worker-local tallies guard them with the
//! `const fn` [`enabled`] so the optimizer deletes the bookkeeping:
//!
//! ```
//! let mut local_pairs = 0u64;
//! for _ in 0..3 {
//!     if nwhy_obs::enabled() {
//!         local_pairs += 1;
//!     }
//! }
//! nwhy_obs::add(nwhy_obs::Counter::SlinePairsExamined, local_pairs);
//! ```
//!
//! Under `--cfg loom` the registry is also compiled out (the loom atomic
//! stand-in cannot back a lazy global); the model checker exercises
//! [`sharded::ShardedU64`] directly.

#[cfg(all(feature = "enabled", not(loom)))]
mod clock;
mod counters;
pub mod json;
pub mod prom;
#[cfg(all(feature = "enabled", not(loom)))]
mod registry;
pub mod sharded;
mod snapshot;
mod trace;
pub mod window;

pub use counters::{Counter, Hist};
pub use prom::render_prometheus;
pub use snapshot::{
    CounterSnapshot, HistSnapshot, MetricsSnapshot, QuantileSnapshot, SpanSnapshot,
};
pub use trace::{to_chrome_trace, TraceEvent};

/// `true` iff the `enabled` feature is on (and the build is not a loom
/// model run). `const`, so `if nwhy_obs::enabled() { … }` folds away
/// entirely in disabled builds.
#[inline]
pub const fn enabled() -> bool {
    cfg!(all(feature = "enabled", not(loom)))
}

/// Adds `n` to a counter. No-op when disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    #[cfg(all(feature = "enabled", not(loom)))]
    if n != 0 {
        registry::add(counter, n);
    }
    #[cfg(not(all(feature = "enabled", not(loom))))]
    let _ = (counter, n);
}

/// Adds 1 to a counter. No-op when disabled.
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// The current summed value of a counter (always 0 when disabled).
#[inline]
pub fn counter_value(counter: Counter) -> u64 {
    #[cfg(all(feature = "enabled", not(loom)))]
    {
        registry::counter_value(counter)
    }
    #[cfg(not(all(feature = "enabled", not(loom))))]
    {
        let _ = counter;
        0
    }
}

/// Records one observation into a histogram. No-op when disabled.
#[inline]
pub fn observe(hist: Hist, value: u64) {
    #[cfg(all(feature = "enabled", not(loom)))]
    registry::observe(hist, value);
    #[cfg(not(all(feature = "enabled", not(loom))))]
    let _ = (hist, value);
}

/// A RAII timing span. Created by [`span`]; records its wall time into
/// the per-path aggregates and the Chrome trace buffer when dropped.
/// A ZST no-op when disabled.
#[derive(Debug)]
#[must_use = "a span measures the time until it is dropped"]
pub struct Span {
    #[cfg(all(feature = "enabled", not(loom)))]
    inner: registry::SpanInner,
}

/// Opens a span named `name`, nested under the innermost span still open
/// on this thread. Hold the returned guard for the duration of the
/// phase:
///
/// ```
/// {
///     let _span = nwhy_obs::span("doc.example");
///     // … timed work …
/// }
/// ```
#[inline]
pub fn span(name: &'static str) -> Span {
    #[cfg(all(feature = "enabled", not(loom)))]
    {
        Span {
            inner: registry::span_enter(name),
        }
    }
    #[cfg(not(all(feature = "enabled", not(loom))))]
    {
        let _ = name;
        Span {}
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        #[cfg(all(feature = "enabled", not(loom)))]
        registry::span_exit(&self.inner);
    }
}

/// A point-in-time snapshot of all counters, span aggregates, and
/// histograms. Empty when disabled.
pub fn snapshot() -> MetricsSnapshot {
    #[cfg(all(feature = "enabled", not(loom)))]
    {
        registry::snapshot()
    }
    #[cfg(not(all(feature = "enabled", not(loom))))]
    {
        MetricsSnapshot::default()
    }
}

/// Zeroes every counter and histogram and clears span aggregates and the
/// trace buffer. Intended between measurement windows (e.g. bench
/// trials), not concurrently with active kernels.
pub fn reset() {
    #[cfg(all(feature = "enabled", not(loom)))]
    registry::reset();
}

/// Drains and returns the buffered trace events (capped; see crate
/// docs). Empty when disabled.
pub fn take_trace() -> Vec<TraceEvent> {
    #[cfg(all(feature = "enabled", not(loom)))]
    {
        registry::take_trace()
    }
    #[cfg(not(all(feature = "enabled", not(loom))))]
    {
        Vec::new()
    }
}

/// Drains the trace buffer and renders it as a Chrome `trace_event`
/// JSON document.
pub fn chrome_trace() -> String {
    to_chrome_trace(&take_trace())
}

/// Records one latency observation (µs) into `op`'s trailing window.
/// Span closes call this automatically with the span's leaf name;
/// callers may also record ops that are not spans. No-op
/// when disabled.
#[inline]
pub fn observe_latency(op: &'static str, micros: u64) {
    #[cfg(all(feature = "enabled", not(loom)))]
    registry::observe_latency(op, micros);
    #[cfg(not(all(feature = "enabled", not(loom))))]
    let _ = (op, micros);
}

/// Switches the telemetry clock between wall-clock microseconds and a
/// deterministic manual counter (see [`advance_ticks`]). Tests use the
/// manual mode so window rotation is exact.
/// No-op when disabled.
pub fn set_manual_ticks(on: bool) {
    #[cfg(all(feature = "enabled", not(loom)))]
    clock::set_manual(on);
    #[cfg(not(all(feature = "enabled", not(loom))))]
    let _ = on;
}

/// Advances the manual telemetry clock by `n` ticks. No-op when
/// disabled (or while in wall-clock mode).
pub fn advance_ticks(n: u64) {
    #[cfg(all(feature = "enabled", not(loom)))]
    clock::advance(n);
    #[cfg(not(all(feature = "enabled", not(loom))))]
    let _ = n;
}
