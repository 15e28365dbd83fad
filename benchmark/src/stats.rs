//! Median, quartile and percentile helpers for the report and `--compare`.

/// Sorts a sample ascending. Benchmark values are never NaN.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("benchmark values are never NaN"));
    values
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method), so the
/// spreads printed here are the ones the driver computes. Needs two or more
/// values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let s = sorted(values.to_vec());
    let len = s.len();
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        // Signed: clamping `j` can push the weight outside 0..=4, which is
        // how the exclusive method extrapolates on tiny samples.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the acceptance rule is written in.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// The 1-based nearest rank of the `p`-th percentile among `len` samples.
fn nearest_rank(len: usize, p: f64) -> usize {
    assert!(len > 0, "percentile of an empty sample");
    ((len as f64 * p / 100.0).ceil() as usize).clamp(1, len)
}

/// Nearest-rank percentile (`p` in 0..=100) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    sorted(values.to_vec())[nearest_rank(values.len(), p) - 1]
}

/// A tail percentile that is only trusted with enough samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, or the maximum when the tail was too thin.
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// True when fewer than ten samples lay beyond the percentile and the
    /// maximum was reported in its place.
    pub fell_back_to_max: bool,
}

/// The `p`-th percentile of a pooled sample if at least ten samples lie
/// beyond it, else the maximum — and says which.
pub fn tail_percentile(values: &[f64], p: f64) -> Tail {
    let rank = nearest_rank(values.len(), p);
    let s = sorted(values.to_vec());
    let beyond = s.len() - rank;
    if beyond >= 10 {
        Tail {
            value: s[rank - 1],
            beyond,
            fell_back_to_max: false,
        }
    } else {
        Tail {
            value: s[s.len() - 1],
            beyond,
            fell_back_to_max: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    // Expected values are what `statistics.quantiles(v, n=4)` prints.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_or_reports_the_max() {
        // 100 samples: 10 lie beyond p90, so it stands.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail_percentile(&v, 90.0);
        assert_eq!((t.value, t.beyond, t.fell_back_to_max), (90.0, 10, false));
        // 99 samples: p90 is rank 90, only 9 beyond — report the max, say so.
        let t = tail_percentile(&v[..99], 90.0);
        assert_eq!((t.value, t.beyond, t.fell_back_to_max), (99.0, 9, true));
        // p99 of 100 has one sample beyond.
        let t = tail_percentile(&v, 99.0);
        assert_eq!((t.value, t.fell_back_to_max), (100.0, true));
    }
}
