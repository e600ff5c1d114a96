//! Counter, gauge, and histogram instruments. All handles are cheap
//! `Arc` clones over atomics; gated operations check [`crate::enabled`]
//! first, `*_always` variants skip the check (for callers that already
//! checked, or for per-instance bookkeeping that must count regardless
//! of the global flag).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing `u64`.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not registered anywhere (per-instance bookkeeping).
    pub fn detached() -> Self {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment regardless of the global enable flag.
    #[inline]
    pub fn inc_always(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add regardless of the global enable flag.
    #[inline]
    pub fn add_always(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Signed up/down value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn detached() -> Self {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        if crate::enabled() {
            self.0.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        if crate::enabled() {
            self.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Add regardless of the global enable flag.
    #[inline]
    pub fn add_always(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    pub(crate) fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

#[derive(Debug)]
struct HistCore {
    /// Strictly increasing inclusive upper bounds; an implicit `+inf`
    /// bucket follows the last bound.
    bounds: Vec<u64>,
    /// `bounds.len() + 1` buckets.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// Fixed-bucket histogram: `bounds` are inclusive upper bounds, plus an
/// implicit `+inf` overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCore>);

impl Histogram {
    pub(crate) fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram(Arc::new(HistCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }

    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.record_always(v);
        }
    }

    /// Record regardless of the global enable flag.
    pub fn record_always(&self, v: u64) {
        let c = &self.0;
        let i = c
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(c.bounds.len());
        c.buckets[i].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Bucket upper bounds (`None` = the `+inf` overflow bucket) with
    /// their counts, in order.
    pub fn buckets(&self) -> Vec<(Option<u64>, u64)> {
        let c = &self.0;
        c.buckets
            .iter()
            .enumerate()
            .map(|(i, b)| (c.bounds.get(i).copied(), b.load(Ordering::Relaxed)))
            .collect()
    }

    pub(crate) fn reset(&self) {
        for b in &self.0.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.0.count.store(0, Ordering::Relaxed);
        self.0.sum.store(0, Ordering::Relaxed);
    }
}
