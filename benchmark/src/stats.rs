//! Order statistics the ledger reports: nearest-rank percentiles with
//! the "ten samples beyond" rule, window medians, quartile spread.

/// Rank (1-based) of the nearest-rank `p`-th percentile among `n`
/// samples: ⌈p·n/100⌉, in integers so that p = 90, n = 100 is 90 and
/// not 91 by a rounding error.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice (`p` in 1..=100).
pub fn percentile(sorted: &[u64], p: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// The tail percentile a sample of `n` operations supports: `want`
/// when at least ten samples lie beyond it, otherwise the highest of
/// 90/75 below `want` that has ten beyond (50 when none does).
pub fn supported_tail(n: usize, want: u32) -> u32 {
    [want, 90, 75]
        .into_iter()
        .filter(|p| *p <= want)
        .find(|p| n > 0 && n - rank(n, *p) >= 10)
        .unwrap_or(50)
}

/// Median of a small unsorted sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of integer samples, as a float.
pub fn median_u64(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&v)
}

/// `max − min` of a sample.
pub fn range(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    max - min
}

/// First and third quartile by the exclusive method — the numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the contract's spread check is written against.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() + 1) as f64;
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        // Unclamped, as Python does: tiny samples extrapolate.
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    (at(0.25), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50), 500);
        assert_eq!(percentile(&v, 99), 990);
        assert_eq!(percentile(&v, 100), 1000);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn tail_falls_back_until_ten_samples_lie_beyond() {
        assert_eq!(supported_tail(1000, 99), 99);
        assert_eq!(supported_tail(999, 99), 90); // 9.99 beyond p99
        assert_eq!(supported_tail(100, 90), 90);
        assert_eq!(supported_tail(99, 90), 75);
        assert_eq!(supported_tail(40, 90), 75);
        assert_eq!(supported_tail(39, 90), 50);
    }

    #[test]
    fn window_median_ignores_one_outlier() {
        assert_eq!(median(&[10.0, 1000.0, 11.0]), 11.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(range(&[10.0, 1000.0, 11.0]), 990.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }
}
