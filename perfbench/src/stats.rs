//! Order statistics for the benchmark's timing samples.

/// Percentiles a tail can be reported at, highest first.
const TAIL_PERCENTILES: [f64; 3] = [99.9, 99.0, 90.0];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank percentile `p` (0 < p <= 100) of `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples,
/// `⌈p·n/100⌉`, immune to the rounding of `p` itself (99.9 is not
/// exact in binary).
fn rank(n: usize, p: f64) -> usize {
    (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// The median (nearest-rank p50).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `p`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest reportable tail percentile for `n` samples: the largest
/// of p99.9, p99 and p90 with at least [`MIN_BEYOND`] samples beyond
/// it. `None` below 100 samples, where even p90 would rest on fewer
/// than ten.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The arithmetic mean (0 for no samples).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn tail_refuses_p90_below_100_samples() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(0), None);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(100, 90.0), 10);
    }
}
