//! Order statistics used for every reported timing.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the `ceil(q * n)`-th
/// smallest sample (the first for `q = 0`).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// One-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q` sample.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples support reporting percentile `q`: at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// Sorts ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    values
}

/// Median; the mean of the middle two for an even count, `0` for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values.to_vec());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A tail percentile over per-pass samples, with the sample count it rests
/// on: the median of the per-pass percentiles when every pass supports `q`
/// on its own, the percentile of the pooled samples otherwise.  `None` when
/// even the pool does not support `q`.
pub fn tail(passes: &[Vec<f64>], q: f64) -> Option<(f64, usize)> {
    if !passes.is_empty() && passes.iter().all(|p| supports(p.len(), q)) {
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|p| percentile(&sorted(p.clone()), q))
            .collect();
        return Some((median(&per_pass), passes[0].len()));
    }
    let pool = sorted(passes.iter().flatten().copied().collect());
    supports(pool.len(), q).then(|| (percentile(&pool, q), pool.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // ceil(0.5 * 5) = 3rd smallest.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn ten_beyond_rule() {
        // p99 of 1000 samples is the 990th: exactly ten lie beyond it.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert_eq!(samples_beyond(1440, 0.99), 14);
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(!supports(0, 0.5));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_prefers_per_pass_and_falls_back_to_the_pool() {
        let pass: Vec<f64> = (1..=100).map(f64::from).collect();
        // Each pass supports p90 on its own: median of the per-pass values.
        assert_eq!(tail(&[pass.clone(), pass.clone()], 0.9), Some((90.0, 100)));
        // 24 samples a pass do not; five passes pooled (120) do.
        let short: Vec<f64> = (1..=24).map(f64::from).collect();
        let pooled = tail(&vec![short.clone(); 5], 0.9).expect("pool supports p90");
        assert_eq!(pooled.1, 120);
        assert_eq!(tail(&vec![short; 4], 0.9), None);
    }
}
