//! The instrument registry: `&'static str`-keyed, get-or-create handle
//! lookup behind a mutex. The lock is held only during registration and
//! snapshotting — recording happens lock-free on the returned handles.

use crate::metric::{Counter, Gauge, Histogram};
use crate::snapshot::{BucketSnapshot, HistogramSnapshot, Snapshot, SpanSnapshot};
use crate::span::Span;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: BTreeMap<&'static str, Span>,
}

/// A collection of named instruments. Most code uses the process-wide
/// [`crate::global`] registry; tests can build private ones.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Instruments are plain atomics, so a panic mid-update cannot
        // leave them inconsistent; recover from poisoning.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the counter with this name.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.lock().counters.entry(name).or_default().clone()
    }

    /// Get or create the gauge with this name.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        self.lock().gauges.entry(name).or_default().clone()
    }

    /// Get or create the histogram with this name. `bounds` (strictly
    /// increasing inclusive upper bounds) apply only on first creation.
    pub fn histogram(&self, name: &'static str, bounds: &[u64]) -> Histogram {
        self.lock()
            .histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds))
            .clone()
    }

    /// Get or create the span with this name.
    pub fn span(&self, name: &'static str) -> Span {
        self.lock().spans.entry(name).or_default().clone()
    }

    /// Point-in-time copy of every registered instrument, sorted by
    /// name (deterministic across runs).
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.lock();
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.to_string(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| (n.to_string(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| HistogramSnapshot {
                    name: n.to_string(),
                    count: h.count(),
                    sum: h.sum(),
                    buckets: h
                        .buckets()
                        .into_iter()
                        .map(|(le, count)| BucketSnapshot { le, count })
                        .collect(),
                })
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(n, s)| SpanSnapshot {
                    name: n.to_string(),
                    count: s.count(),
                    total_ns: s.total_ns(),
                })
                .collect(),
        }
    }

    /// Zero every instrument's value, keeping registrations (and any
    /// handles instrumented code already holds) valid.
    pub fn reset(&self) {
        let inner = self.lock();
        for c in inner.counters.values() {
            c.reset();
        }
        for g in inner.gauges.values() {
            g.reset();
        }
        for h in inner.histograms.values() {
            h.reset();
        }
        for s in inner.spans.values() {
            s.reset();
        }
    }
}
