//! The process-global metric registry (active build only).
//!
//! Layout:
//! - one relaxed `AtomicU64` per [`Counter`]: every bump site fires once
//!   per kernel call, traversal round or reader, so one word per counter
//!   carries no contention worth spreading;
//! - one power-of-two-bucket slab of relaxed atomics per [`Hist`];
//! - a mutex-protected span table mapping `(parent, name)` to a dense
//!   path id, with each path's close count, total wall time and close
//!   latencies ([`Pow2Hist`], µs) — the latency quantiles are read from
//!   it, over the whole process;
//! - a bounded buffer of completed-span [`TraceEvent`]s.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
// lint: deliberately std, not nwhy_util::sync — nwhy-obs depends on no
// workspace crate and nothing builds it under `--cfg loom`
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use crate::counters::{Counter, Hist};
use crate::hist::{bucket_of, bucket_upper_bound, Pow2Hist, BUCKETS};
use crate::snapshot::{
    CounterSnapshot, HistSnapshot, MetricsSnapshot, QuantileSnapshot, SpanSnapshot,
};
use crate::trace::TraceEvent;

/// Completed spans kept for the Chrome trace; later spans are dropped
/// (the aggregates still count them).
const MAX_TRACE_EVENTS: usize = 1 << 16;

/// Sentinel parent id for root spans.
const NO_PARENT: usize = usize::MAX;

struct HistSlab {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistSlab {
    const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }

    fn observe(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        // lint: panic: bucket_of is in [0, 64], the bucket array's range
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
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

/// One interned span path and what its closes added up to.
struct SpanPath {
    /// Path id of the enclosing span, or [`NO_PARENT`].
    parent: usize,
    /// Leaf name.
    name: &'static str,
    /// Total wall time of the closes.
    total: Duration,
    /// Close latencies in µs (its `count` is the close count).
    latency_us: Pow2Hist,
}

/// Span paths in creation order, indexed by path id.
struct SpanTable(Vec<SpanPath>);

impl SpanTable {
    fn intern(&mut self, parent: usize, name: &'static str) -> usize {
        if let Some(id) = self
            .0
            .iter()
            .position(|p| p.parent == parent && p.name == name)
        {
            return id;
        }
        self.0.push(SpanPath {
            parent,
            name,
            total: Duration::ZERO,
            latency_us: Pow2Hist::new(),
        });
        self.0.len() - 1
    }

    fn full_path(&self, mut id: usize) -> String {
        let mut parts = Vec::new();
        while id != NO_PARENT {
            let p = &self.0[id];
            parts.push(p.name);
            id = p.parent;
        }
        parts.reverse();
        parts.join("/")
    }
}

static COUNTERS: [AtomicU64; Counter::ALL.len()] =
    [const { AtomicU64::new(0) }; Counter::ALL.len()];
static HISTS: [HistSlab; Hist::ALL.len()] = [const { HistSlab::new() }; Hist::ALL.len()];
static SPANS: Mutex<SpanTable> = Mutex::new(SpanTable(Vec::new()));
static TRACE: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
    static SPAN_STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The instant trace timestamps count from (pinned by the first span).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `d` in whole microseconds.
// lint: u128 microsecond counts fit u64 for the next ~584k years
#[allow(clippy::cast_possible_truncation)]
fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// This thread's Chrome-trace `tid` (assigned round-robin on first use).
fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

pub(crate) fn add(counter: Counter, n: u64) {
    COUNTERS[counter.index()].fetch_add(n, Ordering::Relaxed);
}

pub(crate) fn counter_value(counter: Counter) -> u64 {
    COUNTERS[counter.index()].load(Ordering::Relaxed)
}

pub(crate) fn observe(hist: Hist, value: u64) {
    HISTS[hist.index()].observe(value);
}

/// Live guts of [`crate::Span`].
#[derive(Debug)]
pub(crate) struct SpanInner {
    path_id: usize,
    name: &'static str,
    start: Instant,
}

pub(crate) fn span_enter(name: &'static str) -> SpanInner {
    // Pin the trace epoch no later than the first span's start.
    epoch();
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(NO_PARENT));
    let path_id = lock(&SPANS).intern(parent, name);
    SPAN_STACK.with(|s| s.borrow_mut().push(path_id));
    SpanInner {
        path_id,
        name,
        start: Instant::now(),
    }
}

pub(crate) fn span_exit(inner: &SpanInner) {
    let elapsed = inner.start.elapsed();
    let dur_us = micros(elapsed);
    SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        // Pop our own frame. Out-of-order drops (spans stored in structs)
        // just truncate to the matching frame if present.
        if let Some(pos) = stack.iter().rposition(|&id| id == inner.path_id) {
            stack.truncate(pos);
        }
    });
    // A `reset` while this span was open dropped its path: skip it.
    if let Some(path) = lock(&SPANS).0.get_mut(inner.path_id) {
        path.total += elapsed;
        path.latency_us.record(dur_us);
    }
    let mut trace = lock(&TRACE);
    if trace.len() < MAX_TRACE_EVENTS {
        trace.push(TraceEvent {
            name: inner.name,
            start_us: micros(inner.start.saturating_duration_since(epoch())),
            dur_us,
            tid: thread_id(),
        });
    }
}

pub(crate) fn snapshot() -> MetricsSnapshot {
    // Every section is key-sorted so repeated snapshots of the same
    // state render identically in every sink (text, JSON, Prometheus,
    // BENCH_*.json) regardless of declaration or first-use order.
    let mut counters: Vec<CounterSnapshot> = Counter::ALL
        .iter()
        .map(|&c| CounterSnapshot {
            name: c.name(),
            value: counter_value(c),
        })
        .filter(|c| c.value != 0)
        .collect();
    counters.sort_unstable_by_key(|c| c.name);
    let mut hists: Vec<HistSnapshot> = Hist::ALL
        .iter()
        .filter_map(|&h| {
            let slab = &HISTS[h.index()];
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
                    .map(|(i, b)| (bucket_upper_bound(i), b.load(Ordering::Relaxed)))
                    .filter(|&(_, n)| n != 0)
                    .collect(),
            })
        })
        .collect();
    hists.sort_unstable_by_key(|h| h.name);
    let mut spans = Vec::new();
    // One quantile row per leaf name, merged over the paths ending in it.
    let mut by_leaf: BTreeMap<&'static str, Pow2Hist> = BTreeMap::new();
    {
        let table = lock(&SPANS);
        for (id, p) in table.0.iter().enumerate() {
            if p.latency_us.count == 0 {
                continue;
            }
            spans.push(SpanSnapshot {
                path: table.full_path(id),
                count: p.latency_us.count,
                total_seconds: p.total.as_secs_f64(),
            });
            by_leaf.entry(p.name).or_default().merge(&p.latency_us);
        }
    }
    spans.sort_unstable_by(|a, b| a.path.cmp(&b.path));
    let quantiles = by_leaf
        .into_iter()
        .map(|(op, h)| QuantileSnapshot {
            op: op.to_string(),
            count: h.count,
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
            max: h.max,
        })
        .collect();
    MetricsSnapshot {
        counters,
        spans,
        hists,
        quantiles,
    }
}

pub(crate) fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for h in &HISTS {
        h.reset();
    }
    lock(&SPANS).0.clear();
    lock(&TRACE).clear();
}

pub(crate) fn take_trace() -> Vec<TraceEvent> {
    std::mem::take(&mut *lock(&TRACE))
}
