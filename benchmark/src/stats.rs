//! The statistics every reported number goes through: medians and
//! quartiles by the rule of Python's `statistics.quantiles(values, n=4)`
//! (so a reader can re-derive any spread from the raw values in an
//! output file), and nearest-rank percentiles with the
//! ten-samples-beyond rule of the choosing-metrics guide.

/// Sorted copy of `values` (total order; the benchmark never produces NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: a metric without samples is a benchmark bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First quartile, median and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let n = 4;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for i in 1..n {
        let j = (i * m / n).clamp(1, ld - 1);
        // `delta` may fall outside 0..=n at the clamped ends; the
        // interpolation then extrapolates, as Python's does.
        let delta = (i * m) as f64 - (j * n) as f64;
        out[i - 1] = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Nearest-rank percentile of an ascending `sorted` slice: the smallest
/// sample with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the `p` percentile's rank. A
/// percentile is only worth reporting when at least ten samples lie
/// beyond it (p99 therefore needs ≥ 1 000 samples).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank_with_ten_beyond_rule() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(2500, 0.99), 25);
        // 999 samples leave only 9 beyond p99: not reportable.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(percentile(&[42.0], 0.99), 42.0);
    }
}
