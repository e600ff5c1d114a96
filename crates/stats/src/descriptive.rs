//! Scalar descriptive statistics over `f64` samples.
//!
//! All functions treat the input as a *population* (no Bessel correction is
//! needed anywhere in the paper's tables). Functions that require order sort
//! a copy internally; callers holding already-sorted data can use the
//! `*_sorted` variants exposed through [`crate::Summary`].

/// Returns the arithmetic mean of `samples`, or `0.0` for an empty slice.
///
/// The paper's Table 4 "Mean" column is this statistic over all monitor
/// sessions of a program.
///
/// # Examples
///
/// ```
/// assert_eq!(databp_stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// assert_eq!(databp_stats::mean(&[]), 0.0);
/// ```
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Returns the minimum of `samples`, or `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(databp_stats::min(&[3.0, 1.0, 2.0]), 1.0);
/// ```
pub fn min(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

/// Returns the maximum of `samples`, or `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(databp_stats::max(&[3.0, 1.0, 2.0]), 3.0);
/// ```
pub fn max(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Nearest-rank percentile of `samples` for `p` in `[0, 100]`.
///
/// Uses the classic nearest-rank definition: the value at (1-based) rank
/// `ceil(p/100 * n)`, clamped to `[1, n]`. `p = 0` returns the minimum and
/// `p = 100` the maximum. This matches how small-population percentiles in
/// the paper's Table 4 (90% / 98% columns) are conventionally computed.
///
/// Returns `0.0` for an empty slice.
///
/// # Panics
///
/// Panics if `p` is not a finite number in `[0.0, 100.0]`.
///
/// # Examples
///
/// ```
/// let v = [10.0, 20.0, 30.0, 40.0, 50.0];
/// assert_eq!(databp_stats::percentile_nearest_rank(&v, 90.0), 50.0);
/// assert_eq!(databp_stats::percentile_nearest_rank(&v, 50.0), 30.0);
/// assert_eq!(databp_stats::percentile_nearest_rank(&v, 0.0), 10.0);
/// ```
pub fn percentile_nearest_rank(samples: &[f64], p: f64) -> f64 {
    assert!(
        p.is_finite() && (0.0..=100.0).contains(&p),
        "percentile must be a finite number in [0, 100], got {p}"
    );
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    percentile_nearest_rank_sorted(&sorted, p)
}

/// As [`percentile_nearest_rank`] but requires `sorted` to be ascending.
pub(crate) fn percentile_nearest_rank_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The 1-based nearest rank `ceil(p/100 · n)`, clamped to `1..=n`.
/// Multiplying before dividing keeps a whole-number rank whole:
/// `(99.9 / 100.0) * 1000.0` is `999.0000000000001`, which would round
/// up to rank 1000, while `99.9 * 1000.0 / 100.0` is exactly 999.
fn nearest_rank(p: f64, n: usize) -> usize {
    let rank = (p * n as f64 / 100.0).ceil() as usize;
    rank.clamp(1, n)
}

/// Returns the sub-slice of the ascending-sorted population falling between
/// the `lo_pct` and `hi_pct` nearest-rank percentile values (inclusive).
///
/// This is the population over which the paper's *T-Mean* is computed
/// ("mean of monitor sessions whose relative overhead is between the 10th
/// and 90th percentiles", Table 4 caption).
///
/// # Panics
///
/// Panics if `lo_pct > hi_pct` or either is outside `[0, 100]`.
pub fn trimmed_range(sorted: &[f64], lo_pct: f64, hi_pct: f64) -> &[f64] {
    assert!(lo_pct <= hi_pct, "lo_pct must be <= hi_pct");
    if sorted.is_empty() {
        return sorted;
    }
    let lo_val = percentile_nearest_rank_sorted(sorted, lo_pct);
    let hi_val = percentile_nearest_rank_sorted(sorted, hi_pct);
    let start = sorted.partition_point(|&x| x < lo_val);
    let end = sorted.partition_point(|&x| x <= hi_val);
    &sorted[start..end]
}

/// Trimmed mean: the mean of samples whose value lies between the `lo_pct`
/// and `hi_pct` nearest-rank percentiles (inclusive).
///
/// The paper's *T-Mean* is `trimmed_mean(samples, 10.0, 90.0)`.
///
/// Returns `0.0` for an empty slice.
///
/// # Panics
///
/// Panics if `lo_pct > hi_pct` or either is outside `[0, 100]`.
///
/// # Examples
///
/// ```
/// // An outlier at 1000 is excluded by the 10–90% trim.
/// let v = vec![1.0; 9].into_iter().chain([1000.0]).collect::<Vec<_>>();
/// assert_eq!(databp_stats::trimmed_mean(&v, 10.0, 90.0), 1.0);
/// ```
pub fn trimmed_mean(samples: &[f64], lo_pct: f64, hi_pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not contain NaN"));
    mean(trimmed_range(&sorted, lo_pct, hi_pct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_of_singleton() {
        assert_eq!(mean(&[7.5]), 7.5);
    }

    #[test]
    fn min_max_basic() {
        let v = [4.0, -1.0, 9.0, 0.0];
        assert_eq!(min(&v), -1.0);
        assert_eq!(max(&v), 9.0);
    }

    #[test]
    fn min_max_empty_are_zero() {
        assert_eq!(min(&[]), 0.0);
        assert_eq!(max(&[]), 0.0);
    }

    #[test]
    fn percentile_endpoints() {
        let v = [5.0, 1.0, 3.0];
        assert_eq!(percentile_nearest_rank(&v, 0.0), 1.0);
        assert_eq!(percentile_nearest_rank(&v, 100.0), 5.0);
    }

    #[test]
    fn percentile_nearest_rank_definition() {
        // n = 10, p = 90 -> rank ceil(9.0) = 9 -> 9th smallest.
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(percentile_nearest_rank(&v, 90.0), 9.0);
        // p = 98 -> rank ceil(9.8) = 10 -> maximum.
        assert_eq!(percentile_nearest_rank(&v, 98.0), 10.0);
        // p = 10 -> rank ceil(1.0) = 1 -> minimum.
        assert_eq!(percentile_nearest_rank(&v, 10.0), 1.0);
    }

    #[test]
    fn percentile_rank_is_exact_when_p_times_n_is_whole() {
        for n in [1000usize, 2000] {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let want = (n * 999 / 1000) as f64;
            assert_eq!(percentile_nearest_rank(&v, 99.9), want, "n = {n}");
        }
    }

    #[test]
    fn table_percentile_ranks_are_unchanged() {
        // The ranks the paper tables and the benchmark use agree with
        // the divide-first formula for every population size up to 5000.
        for n in 1..=5000usize {
            for p in [10.0, 50.0, 90.0, 98.0] {
                let old = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
                assert_eq!(nearest_rank(p, n), old, "p = {p}, n = {n}");
            }
        }
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [30.0, 10.0, 50.0, 20.0, 40.0];
        assert_eq!(percentile_nearest_rank(&v, 50.0), 30.0);
    }

    #[test]
    #[should_panic(expected = "percentile must be")]
    fn percentile_rejects_out_of_range() {
        percentile_nearest_rank(&[1.0], 101.0);
    }

    #[test]
    fn trimmed_mean_excludes_tails() {
        // 1..=10: 10th pct value = 1, 90th pct value = 9; trim keeps 1..=9
        // (inclusive of boundary values).
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(trimmed_mean(&v, 10.0, 90.0), 5.0);
    }

    #[test]
    fn trimmed_mean_whole_range_equals_mean() {
        let v = [2.0, 4.0, 6.0, 8.0];
        assert_eq!(trimmed_mean(&v, 0.0, 100.0), mean(&v));
    }

    #[test]
    fn trimmed_mean_singleton() {
        assert_eq!(trimmed_mean(&[42.0], 10.0, 90.0), 42.0);
    }

    #[test]
    fn trimmed_mean_empty() {
        assert_eq!(trimmed_mean(&[], 10.0, 90.0), 0.0);
    }

    #[test]
    fn trimmed_range_all_equal_values() {
        let v = [3.0; 8];
        assert_eq!(trimmed_range(&v, 10.0, 90.0), &v[..]);
    }

    #[test]
    #[should_panic(expected = "lo_pct must be <= hi_pct")]
    fn trimmed_range_rejects_inverted_bounds() {
        trimmed_range(&[1.0], 90.0, 10.0);
    }
}
