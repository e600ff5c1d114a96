//! Layer spans recorded from the benchmark's own code (`--trace 1`).
//!
//! Each span is one call into a layer, timed around the public function
//! the benchmark calls. Spans of one op share the op's id and are
//! children of its `op` span; probes (hook-free baseline runs, codec and
//! query measurements) run outside every op span under [`PROBE`], so
//! they never count towards an op's wall time.

use std::collections::BTreeMap;
use std::time::Instant;

/// Op id of spans that belong to no op.
pub const PROBE: u64 = u64::MAX;

/// Name of the span covering one whole op.
pub const OP: &str = "op";

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span and count store; summarized when the run ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Runs `f` as a span named `name` of op `op`.
    pub fn time<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.push(op, name, start, end);
        out
    }

    /// Records a span measured by the caller.
    pub fn push(&mut self, op: u64, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            op,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Adds `v` to the count `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Mean span duration in milliseconds (0 when there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Every child span name with its summed time (ms) and its share of
    /// summed op wall time (%), largest first: where the time went.
    pub fn breakdown(&self) -> Vec<(&'static str, f64, f64)> {
        let wall = self.total_ms(OP);
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.op != PROBE && s.name != OP) {
            *totals.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e6;
        }
        let mut rows: Vec<_> = totals
            .into_iter()
            .map(|(name, ms)| (name, ms, 100.0 * ms / wall.max(f64::MIN_POSITIVE)))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// Share of op wall time, in percent, that no child span covers:
    /// the sum of every op span's self time over the sum of op spans.
    pub fn unaccounted_pct(&self) -> f64 {
        let mut wall: BTreeMap<u64, u64> = BTreeMap::new();
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.op != PROBE) {
            let slot = if s.name == OP {
                &mut wall
            } else {
                &mut covered
            };
            *slot.entry(s.op).or_insert(0) += s.end_ns - s.start_ns;
        }
        let total: u64 = wall.values().sum();
        if total == 0 {
            return 0.0;
        }
        let own: u64 = wall
            .iter()
            .map(|(op, w)| w.saturating_sub(covered.get(op).copied().unwrap_or(0)))
            .sum();
        100.0 * own as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unaccounted_is_op_self_time_and_ignores_probes() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut r = Recorder::new(t0);
        r.push(1, OP, at(0), at(100));
        r.push(1, "a", at(0), at(60));
        r.push(1, "b", at(60), at(90));
        r.push(PROBE, "probe", at(100), at(400));
        r.push(2, OP, at(400), at(500));
        r.push(2, "a", at(400), at(500));
        assert!((r.unaccounted_pct() - 5.0).abs() < 1e-9);
        assert_eq!(r.durations_ms("a"), vec![60.0, 100.0]);
        assert_eq!(r.mean_ms("b"), 30.0);
        let b = r.breakdown();
        assert_eq!(b[0].0, "a");
        assert!((b[0].2 - 80.0).abs() < 1e-9 && (b[1].2 - 15.0).abs() < 1e-9);
    }
}
