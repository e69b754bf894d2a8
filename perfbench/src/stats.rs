//! Order statistics the benchmark reports: nearest-rank percentiles of
//! integer latency samples, and medians and quartiles of host timings.

/// 1-based rank of the nearest-rank percentile `num/den` among `count`
/// ascending samples: the smallest rank with at least `num/den` of the
/// sample at or below it (the rule the crates' latency percentiles use).
/// `None` for an empty sample.
pub fn nearest_rank(count: u64, num: u64, den: u64) -> Option<u64> {
    (count > 0 && den > 0).then(|| (count * num).div_ceil(den).clamp(1, count))
}

/// How many of `count` samples lie strictly beyond the nearest-rank
/// `num/den` percentile.
pub fn samples_beyond(count: u64, num: u64, den: u64) -> u64 {
    nearest_rank(count, num, den).map_or(0, |rank| count - rank)
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_SAMPLES_BEYOND: u64 = 10;

/// Whether the `num/den` percentile of `count` samples may be reported:
/// at least [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn reportable(count: u64, num: u64, den: u64) -> bool {
    samples_beyond(count, num, den) >= MIN_SAMPLES_BEYOND
}

/// Median of a sample (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// First and third quartiles by the "exclusive" method, exactly as
/// Python's `statistics.quantiles(values, n=4)` computes them: position
/// `p·(n+1)`, interpolated between the two nearest order statistics
/// (extrapolated past the ends of very small samples, as Python does).
/// `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.len() < 2 {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |p: f64| {
        let pos = p * (n as f64 + 1.0);
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let (lo, hi) = (v[j - 1], v[j]);
        lo + (hi - lo) * (pos - j as f64)
    };
    Some((at(0.25), at(0.75)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_covering_sample() {
        assert_eq!(nearest_rank(100, 50, 100), Some(50));
        assert_eq!(nearest_rank(100, 99, 100), Some(99));
        assert_eq!(nearest_rank(100, 999, 1000), Some(100));
        assert_eq!(nearest_rank(100, 0, 100), Some(1));
        assert_eq!(nearest_rank(1, 999, 1000), Some(1));
        assert_eq!(nearest_rank(0, 50, 100), None);
        // Rank rounds up: of 3 samples, p50 is the 2nd.
        assert_eq!(nearest_rank(3, 50, 100), Some(2));
        assert_eq!(nearest_rank(20_000, 999, 1000), Some(19_980));
    }

    #[test]
    fn p999_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(10_000, 999, 1000), 10);
        assert!(reportable(10_000, 999, 1000));
        assert!(!reportable(9_999, 999, 1000));
        assert!(reportable(1_000, 99, 100));
        assert!(!reportable(999, 99, 100));
        assert!(!reportable(0, 50, 100));
        assert_eq!(samples_beyond(1, 50, 100), 0);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[f64::NAN, 5.0]), Some(5.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).expect("ten samples");
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), Some((4.0, 10.0)));
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]),
            Some((1.0, 5.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }
}
