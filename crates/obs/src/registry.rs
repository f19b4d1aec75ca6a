//! The process-global metric registry (active build only).
//!
//! This module is compiled only with the `enabled` feature on and loom
//! off: loom's instrumented atomics cannot back a lazily-created global
//! (and the model checker only needs [`crate::sharded::ShardedU64`],
//! which it exercises directly in `tests/loom.rs`).
//!
//! Layout:
//! - one [`ShardedU64`] per [`Counter`] — lock-free, relaxed, bumped
//!   from rayon workers via their thread shard index;
//! - one power-of-two-bucket slab per [`Hist`] — plain std atomics
//!   (`fetch_max` is not in the loom stand-in, so these deliberately do
//!   not route through `nwhy_util::sync`);
//! - a mutex-protected span intern table mapping `(parent, name)` to a
//!   dense path id with per-path `(count, total)` aggregates;
//! - a bounded buffer of completed-span [`TraceEvent`]s.

use std::cell::{Cell, RefCell};
// lint: deliberately std, not nwhy_util::sync — the global counter
// registry must stay usable outside loom models even in `--cfg loom`
// builds (the loom tests themselves assert on it between models)
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::counters::{Counter, Hist};
use crate::sharded::ShardedU64;
use crate::snapshot::{
    CounterSnapshot, HistSnapshot, MetricsSnapshot, QuantileSnapshot, SpanSnapshot,
};
use crate::trace::TraceEvent;
use crate::window::WindowedHist;

/// Ticks (µs in wall-clock mode) per latency sub-window: 1 s each, so
/// the 8-slot ring answers quantiles over a trailing ~8 s.
const LATENCY_SUB_WIDTH: u64 = 1_000_000;

/// Power-of-two histogram buckets: index `i` holds values `v` with
/// `64 - v.leading_zeros() == i`, i.e. 0, 1, 2..3, 4..7, …
const HIST_BUCKETS: usize = 65;

/// Completed spans kept for the Chrome trace; later spans are dropped
/// (the aggregates still count them).
const MAX_TRACE_EVENTS: usize = 1 << 16;

/// Sentinel parent id for root spans.
const NO_PARENT: usize = usize::MAX;

struct HistSlab {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistSlab {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        let idx = 64 - value.leading_zeros() as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[derive(Default)]
struct SpanTable {
    /// `(parent path id, leaf name)` per path id, in creation order.
    paths: Vec<(usize, &'static str)>,
    /// `(completed count, total wall time)` per path id.
    aggregates: Vec<(u64, Duration)>,
}

impl SpanTable {
    fn intern(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(id) = self
            .paths
            .iter()
            .position(|&(p, n)| p == parent && n == name)
        {
            return id;
        }
        self.paths.push((parent, name));
        self.aggregates.push((0, Duration::ZERO));
        self.paths.len() - 1
    }

    fn full_path(&self, mut id: usize) -> String {
        let mut parts = Vec::new();
        while id != NO_PARENT {
            let (parent, name) = self.paths[id];
            parts.push(name);
            id = parent;
        }
        parts.reverse();
        parts.join("/")
    }
}

struct Registry {
    counters: Vec<ShardedU64>,
    hists: Vec<HistSlab>,
    spans: Mutex<SpanTable>,
    trace: Mutex<Vec<TraceEvent>>,
    /// Trailing-window latency per op name (span leaf or explicit
    /// [`observe_latency`] op). The mutex guards only the name lookup;
    /// observations go through the cloned `Arc` lock-free.
    windows: Mutex<Vec<(&'static str, Arc<WindowedHist>)>>,
    epoch: Instant,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: (0..Counter::ALL.len()).map(|_| ShardedU64::new()).collect(),
        hists: (0..Hist::ALL.len()).map(|_| HistSlab::new()).collect(),
        spans: Mutex::new(SpanTable::default()),
        trace: Mutex::new(Vec::new()),
        windows: Mutex::new(Vec::new()),
        epoch: Instant::now(),
    })
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    static SPAN_STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// This thread's stable shard index (assigned round-robin on first use).
pub(crate) fn shard_index() -> usize {
    SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
        s.set(v);
        v
    })
}

pub(crate) fn add(counter: Counter, n: u64) {
    registry().counters[counter.index()].add_to_shard(shard_index(), n);
}

/// Records one latency observation (µs) into `op`'s trailing window.
pub(crate) fn observe_latency(op: &'static str, micros: u64) {
    let win = {
        let mut windows = registry()
            .windows
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match windows.iter().find(|(name, _)| *name == op) {
            Some((_, w)) => Arc::clone(w),
            None => {
                let w = Arc::new(WindowedHist::new(LATENCY_SUB_WIDTH));
                windows.push((op, Arc::clone(&w)));
                w
            }
        }
    };
    win.observe(crate::clock::now_ticks(), micros);
}

pub(crate) fn counter_value(counter: Counter) -> u64 {
    registry().counters[counter.index()].sum()
}

pub(crate) fn observe(hist: Hist, value: u64) {
    registry().hists[hist.index()].observe(value);
}

/// Live guts of [`crate::Span`].
#[derive(Debug)]
pub(crate) struct SpanInner {
    path_id: usize,
    name: &'static str,
    start: Instant,
}

pub(crate) fn span_enter(name: &'static str) -> SpanInner {
    let reg = registry();
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(NO_PARENT));
    let path_id = {
        let mut table = reg
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        table.intern(parent, name)
    };
    SPAN_STACK.with(|s| s.borrow_mut().push(path_id));
    SpanInner {
        path_id,
        name,
        start: Instant::now(),
    }
}

pub(crate) fn span_exit(inner: &SpanInner) {
    let elapsed = inner.start.elapsed();
    let reg = registry();
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // Pop our own frame. Out-of-order drops (spans stored in structs)
        // just truncate to the matching frame if present.
        if let Some(pos) = stack.iter().rposition(|&id| id == inner.path_id) {
            stack.truncate(pos);
        }
    });
    {
        let mut table = reg
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // A `reset` while this span was open dropped its path: skip it.
        if let Some(agg) = table.aggregates.get_mut(inner.path_id) {
            agg.0 += 1;
            agg.1 += elapsed;
        }
    }
    {
        let mut trace = reg
            .trace
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if trace.len() < MAX_TRACE_EVENTS {
            // lint: u128 microsecond counts fit u64 for the next ~584k years
            #[allow(clippy::cast_possible_truncation)]
            let start_us = inner.start.saturating_duration_since(reg.epoch).as_micros() as u64;
            // lint: u128 microsecond counts fit u64 for the next ~584k years
            #[allow(clippy::cast_possible_truncation)]
            let dur_us = elapsed.as_micros() as u64;
            trace.push(TraceEvent {
                name: inner.name,
                start_us,
                dur_us,
                tid: shard_index() as u64,
            });
        }
    }
    // lint: u128 microsecond counts fit u64 for the next ~584k years
    #[allow(clippy::cast_possible_truncation)]
    let dur_us = elapsed.as_micros() as u64;
    observe_latency(inner.name, dur_us);
}

pub(crate) fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let mut counters: Vec<CounterSnapshot> = Counter::ALL
        .iter()
        .filter_map(|&c| {
            let value = reg.counters[c.index()].sum();
            (value != 0).then_some(CounterSnapshot {
                name: c.name(),
                value,
            })
        })
        .collect();
    // Every section is key-sorted so repeated snapshots of the same
    // state render identically in every sink (text, JSON, Prometheus,
    // BENCH_*.json) regardless of declaration or first-use order.
    counters.sort_unstable_by_key(|c| c.name);
    let mut spans: Vec<SpanSnapshot> = {
        let table = reg
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (0..table.paths.len())
            .filter(|&id| table.aggregates[id].0 != 0)
            .map(|id| SpanSnapshot {
                path: table.full_path(id),
                count: table.aggregates[id].0,
                total_seconds: table.aggregates[id].1.as_secs_f64(),
            })
            .collect()
    };
    spans.sort_unstable_by(|a, b| a.path.cmp(&b.path));
    let mut hists: Vec<HistSnapshot> = Hist::ALL
        .iter()
        .filter_map(|&h| {
            let slab = &reg.hists[h.index()];
            let count = slab.count.load(Ordering::Relaxed);
            (count != 0).then(|| HistSnapshot {
                name: h.name(),
                count,
                sum: slab.sum.load(Ordering::Relaxed),
                max: slab.max.load(Ordering::Relaxed),
                buckets: slab
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n != 0).then(|| {
                            let ub = match i {
                                0 => 0,
                                64 => u64::MAX,
                                i => (1u64 << i) - 1,
                            };
                            (ub, n)
                        })
                    })
                    .collect(),
            })
        })
        .collect();
    hists.sort_unstable_by_key(|h| h.name);
    let now = crate::clock::now_ticks();
    let mut quantiles: Vec<QuantileSnapshot> = {
        let windows = reg
            .windows
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        windows
            .iter()
            .map(|(op, w)| {
                let m = w.merged(now);
                QuantileSnapshot {
                    op: (*op).to_string(),
                    count: m.count,
                    p50: m.p50(),
                    p90: m.p90(),
                    p99: m.p99(),
                    max: m.max,
                }
            })
            .collect()
    };
    quantiles.sort_unstable_by(|a, b| a.op.cmp(&b.op));
    MetricsSnapshot {
        counters,
        spans,
        hists,
        quantiles,
    }
}

pub(crate) fn reset() {
    let reg = registry();
    for c in &reg.counters {
        c.reset();
    }
    for h in &reg.hists {
        h.reset();
    }
    {
        let mut table = reg
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        *table = SpanTable::default();
    }
    reg.trace
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    reg.windows
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clear();
    crate::clock::reset();
}

pub(crate) fn take_trace() -> Vec<TraceEvent> {
    std::mem::take(
        &mut *registry()
            .trace
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}
