//! Latency summaries: percentile values come from
//! `databp_stats::percentile_nearest_rank`; this module adds only the
//! "highest percentile with at least ten samples beyond it" rule the
//! benchmark reports tails by.

use databp_stats::percentile_nearest_rank;

/// Percentiles the tail rule picks from, in per-mille, highest first.
const TAIL_CANDIDATES: [u32; 4] = [999, 990, 900, 500];

/// Samples a percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index (0-based) of the `per_mille` percentile of `n`
/// samples, in integer arithmetic. It agrees with
/// `percentile_nearest_rank` at p50 and p90 (the percentiles the
/// benchmark reports); at p99.9 the float form lands one rank higher
/// when `n` is a multiple of 1000, so the tail rule counts ranks here.
fn rank(n: usize, per_mille: u32) -> usize {
    assert!(n > 0, "percentile of no samples");
    let k = (n * per_mille as usize).div_ceil(1000);
    k.clamp(1, n) - 1
}

/// Samples strictly beyond the `per_mille` percentile of `n` samples.
pub fn beyond(n: usize, per_mille: u32) -> usize {
    n - 1 - rank(n, per_mille)
}

/// The highest of p99.9, p99, p90 and p50 that has at least
/// [`MIN_BEYOND`] samples beyond it, in per-mille, or `None` when even
/// the median has fewer.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&pm| n > 0 && beyond(n, pm) >= MIN_BEYOND)
}

/// Median of unsorted samples (nearest rank, so always a sample).
pub fn median(samples: &[f64]) -> f64 {
    percentile_nearest_rank(samples, 50.0)
}

/// A latency distribution as the benchmark reports it.
#[derive(Debug, Clone)]
pub struct Dist {
    samples: Vec<f64>,
}

impl Dist {
    pub fn new(samples: &[f64]) -> Dist {
        Dist {
            samples: samples.to_vec(),
        }
    }

    pub fn n(&self) -> usize {
        self.samples.len()
    }

    /// The `per_mille` percentile, or `None` with no samples.
    pub fn at(&self, per_mille: u32) -> Option<f64> {
        (!self.samples.is_empty())
            .then(|| percentile_nearest_rank(&self.samples, per_mille as f64 / 10.0))
    }

    /// Whether the `per_mille` percentile leaves [`MIN_BEYOND`] samples
    /// beyond it.
    pub fn resolved(&self, per_mille: u32) -> bool {
        self.n() > 0 && beyond(self.n(), per_mille) >= MIN_BEYOND
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_known_vectors() {
        assert_eq!(Dist::new(&ramp(100)).at(900), Some(90.0));
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(Dist::new(&ramp(100)).at(500), Some(50.0));
        assert_eq!(Dist::new(&ramp(10)).at(500), Some(5.0));
        assert_eq!(Dist::new(&ramp(11)).at(500), Some(6.0));
        assert_eq!(Dist::new(&ramp(1)).at(999), Some(1.0));
        assert_eq!(Dist::new(&[]).at(500), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    /// The tail rule's integer ranks pick the same sample as the
    /// reported percentile values.
    #[test]
    fn integer_ranks_agree_with_reported_percentiles() {
        for n in 1..=3000 {
            let v = ramp(n);
            for pm in [500, 900] {
                assert_eq!(Dist::new(&v).at(pm), Some(v[rank(n, pm)]), "n={n} p{pm}");
            }
        }
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(500));
        assert_eq!(tail_percentile(99), Some(500));
        assert_eq!(tail_percentile(100), Some(900));
        assert_eq!(tail_percentile(999), Some(900));
        assert_eq!(tail_percentile(1000), Some(990));
        assert_eq!(tail_percentile(9_999), Some(990));
        assert_eq!(tail_percentile(10_000), Some(999));
        let d = Dist::new(&ramp(100));
        assert!(d.resolved(900));
        assert!(!Dist::new(&ramp(99)).resolved(900));
    }
}
