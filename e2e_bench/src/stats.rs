//! Order statistics over timing samples.

pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `q`-quantile (0..=1) of `values` by linear interpolation between the two
/// nearest order statistics — the "inclusive" method, so `quantile(v, 0.5)`
/// is the usual median. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of the usual percentiles (50, 75, 90, 95, 99, 99.9) that still
/// has at least ten samples beyond it, with its value. A percentile with
/// fewer samples above it is set by a handful of outliers and does not repeat
/// between runs. `None` below twenty samples, where even the median fails
/// the rule.
pub fn highest_supported_percentile(values: &[f64]) -> Option<(f64, f64)> {
    // per mille, so that "ten of ten thousand" is exact
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|p| values.len() * (1000 - p) >= 10 * 1000)
        .map(|p| (p as f64 / 10.0, quantile(values, p as f64 / 1000.0)))
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles of Python's `statistics.quantiles(values, n=4)` (the
/// "exclusive" method: position `(n + 1) * k / 4`, clamped to the sample).
/// This is the spread the benchmark's bounds are checked against.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = ((n + 1) * k) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (at(3) - at(1)) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        let n = |len: usize| (0..len).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(highest_supported_percentile(&n(19)), None);
        assert_eq!(highest_supported_percentile(&n(20)).unwrap().0, 50.0);
        assert_eq!(highest_supported_percentile(&n(199)).unwrap().0, 90.0);
        assert_eq!(highest_supported_percentile(&n(200)).unwrap().0, 95.0);
        assert_eq!(highest_supported_percentile(&n(1000)).unwrap().0, 99.0);
        assert_eq!(highest_supported_percentile(&n(10_000)).unwrap().0, 99.9);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert!((quartile_spread(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }
}
