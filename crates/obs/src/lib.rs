//! `nwhy-obs` — zero-cost observability for the nwhy-rs workspace.
//!
//! A vendored-dependency-free span/counter/histogram registry:
//!
//! - **RAII spans** ([`span`]) that nest via a thread-local stack and
//!   aggregate per-phase wall time by `/`-joined path;
//! - **relaxed-atomic counters** ([`add`]/[`incr`]), one word each,
//!   safe to bump from rayon workers;
//! - **power-of-two histograms** ([`observe`]) for frontier-size style
//!   distributions;
//! - **latency quantiles** per span leaf name, read from the span
//!   table's per-path [`hist::Pow2Hist`] of close latencies;
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

mod counters;
pub mod hist;
pub mod json;
pub mod prom;
#[cfg(feature = "enabled")]
mod registry;
mod snapshot;
mod trace;

pub use counters::{Counter, Hist};
pub use prom::render_prometheus;
pub use snapshot::{
    CounterSnapshot, HistSnapshot, MetricsSnapshot, QuantileSnapshot, SpanSnapshot,
};
pub use trace::{to_chrome_trace, TraceEvent};

/// `true` iff the `enabled` feature is on. `const`, so
/// `if nwhy_obs::enabled() { … }` folds away entirely in disabled builds.
#[inline]
pub const fn enabled() -> bool {
    cfg!(feature = "enabled")
}

/// Adds `n` to a counter. No-op when disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    #[cfg(feature = "enabled")]
    if n != 0 {
        registry::add(counter, n);
    }
    #[cfg(not(feature = "enabled"))]
    let _ = (counter, n);
}

/// Adds 1 to a counter. No-op when disabled.
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// The current value of a counter (always 0 when disabled).
#[inline]
pub fn counter_value(counter: Counter) -> u64 {
    #[cfg(feature = "enabled")]
    {
        registry::counter_value(counter)
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = counter;
        0
    }
}

/// Records one observation into a histogram. No-op when disabled.
#[inline]
pub fn observe(hist: Hist, value: u64) {
    #[cfg(feature = "enabled")]
    registry::observe(hist, value);
    #[cfg(not(feature = "enabled"))]
    let _ = (hist, value);
}

/// A RAII timing span. Created by [`span`]; records its wall time into
/// the per-path aggregates and the Chrome trace buffer when dropped.
/// A ZST no-op when disabled.
#[derive(Debug)]
#[must_use = "a span measures the time until it is dropped"]
pub struct Span {
    #[cfg(feature = "enabled")]
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
    #[cfg(feature = "enabled")]
    {
        Span {
            inner: registry::span_enter(name),
        }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = name;
        Span {}
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        registry::span_exit(&self.inner);
    }
}

/// A point-in-time snapshot of all counters, span aggregates, and
/// histograms. Empty when disabled.
pub fn snapshot() -> MetricsSnapshot {
    #[cfg(feature = "enabled")]
    {
        registry::snapshot()
    }
    #[cfg(not(feature = "enabled"))]
    {
        MetricsSnapshot::default()
    }
}

/// Zeroes every counter and histogram and clears span aggregates and the
/// trace buffer. Intended between measurement windows (e.g. bench
/// trials), not concurrently with active kernels.
pub fn reset() {
    #[cfg(feature = "enabled")]
    registry::reset();
}

/// Drains and returns the buffered trace events (capped; see crate
/// docs). Empty when disabled.
pub fn take_trace() -> Vec<TraceEvent> {
    #[cfg(feature = "enabled")]
    {
        registry::take_trace()
    }
    #[cfg(not(feature = "enabled"))]
    {
        Vec::new()
    }
}

/// Drains the trace buffer and renders it as a Chrome `trace_event`
/// JSON document.
pub fn chrome_trace() -> String {
    to_chrome_trace(&take_trace())
}
