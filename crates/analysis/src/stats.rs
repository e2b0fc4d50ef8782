//! Numeric substrate shared by the analysis formulas: stable probability
//! powers, online moments, binomial iteration, and simple summaries.
//!
//! Every formula in the paper is built from expressions of the form
//! `(1 - 1/m)^n` with `m` up to millions and `n` up to hundreds of
//! thousands. Computing these naively loses precision (`1 - 1/m` rounds to
//! 1 for huge `m`); this module routes everything through
//! `exp(n · ln1p(-1/m))`.

/// `ln(1 - frac)` computed stably via `ln_1p`.
///
/// Returns `-inf` for `frac >= 1` (a certain event's complement) and `0`
/// for `frac <= 0`.
///
/// # Example
///
/// ```
/// use vcps_analysis::stats::ln_one_minus;
///
/// let tiny = 1e-12;
/// assert!((ln_one_minus(tiny) + tiny).abs() < 1e-24); // ln(1-x) ≈ -x
/// assert_eq!(ln_one_minus(1.0), f64::NEG_INFINITY);
/// ```
#[must_use]
pub fn ln_one_minus(frac: f64) -> f64 {
    if frac >= 1.0 {
        f64::NEG_INFINITY
    } else if frac <= 0.0 {
        // Probabilities never exceed 1; (1 - frac) > 1 only arises from
        // callers passing non-probability fractions, which we clamp.
        0.0
    } else {
        (-frac).ln_1p()
    }
}

/// `(1 - frac)^n` computed stably as `exp(n · ln1p(-frac))`.
///
/// This is the workhorse for the paper's zero-bit probabilities such as
/// `q(n_x) = (1 - 1/m_x)^{n_x}` (Eq. 10). Handles the conventions
/// `anything^0 = 1` and `0^positive = 0`.
///
/// # Example
///
/// ```
/// use vcps_analysis::stats::pow_one_minus;
///
/// // (1 - 1/m)^n ≈ e^{-n/m} for large m.
/// let q = pow_one_minus(1.0 / 1_000_000.0, 3_000_000.0);
/// assert!((q - (-3.0f64).exp()).abs() < 1e-6);
/// assert_eq!(pow_one_minus(0.5, 0.0), 1.0);
/// assert_eq!(pow_one_minus(1.0, 2.0), 0.0);
/// ```
#[must_use]
pub fn pow_one_minus(frac: f64, n: f64) -> f64 {
    if n == 0.0 {
        return 1.0;
    }
    (n * ln_one_minus(frac)).exp()
}

/// The zero-bit probability `q(n) = (1 - 1/m)^n` (paper Eqs. 10–11).
///
/// # Example
///
/// ```
/// use vcps_analysis::stats::q_zero;
///
/// // After m vehicles each set one of m bits, ≈ 1/e of bits stay zero.
/// let q = q_zero(10_000.0, 10_000.0);
/// assert!((q - (-1.0f64).exp()).abs() < 1e-4);
/// ```
#[must_use]
pub fn q_zero(m: f64, n: f64) -> f64 {
    pow_one_minus(1.0 / m, n)
}

/// The standard normal quantile `Φ⁻¹(p)` (Acklam's rational
/// approximation, absolute error < 1.15e-9 — ample for confidence
/// intervals).
///
/// # Panics
///
/// Panics unless `0 < p < 1`.
///
/// # Example
///
/// ```
/// use vcps_analysis::stats::normal_quantile;
///
/// assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
/// assert!(normal_quantile(0.5).abs() < 1e-9);
/// ```
#[must_use]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "quantile needs p in (0, 1), got {p}");
    // Coefficients from Peter J. Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p > 1.0 - P_LOW {
        -normal_quantile(1.0 - p)
    } else {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Used by the simulation experiments to summarize estimator samples
/// without storing them.
///
/// # Example
///
/// ```
/// use vcps_analysis::stats::OnlineStats;
///
/// let mut acc = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     acc.push(x);
/// }
/// assert_eq!(acc.count(), 8);
/// assert!((acc.mean() - 5.0).abs() < 1e-12);
/// assert!((acc.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`); `0` with fewer than 1 sample.
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n - 1`); `0` with fewer than 2 samples.
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest sample; `+inf` when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample; `-inf` when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut acc = Self::new();
        acc.extend(iter);
        acc
    }
}

/// Iterator over `Binomial(n, p)` probability masses `P(Z = z)` for
/// `z = 0..=n`, computed incrementally (no factorials, no overflow).
///
/// Used for the direct-summation form of the privacy probability
/// (paper Eq. 37: `n_s ~ B(n_c, 1/s)`).
///
/// # Example
///
/// ```
/// use vcps_analysis::stats::binomial_pmf;
///
/// let masses: Vec<f64> = binomial_pmf(4, 0.5).collect();
/// assert_eq!(masses.len(), 5);
/// assert!((masses[2] - 0.375).abs() < 1e-12); // C(4,2)/16
/// let total: f64 = masses.iter().sum();
/// assert!((total - 1.0).abs() < 1e-9);
/// ```
pub fn binomial_pmf(n: u64, p: f64) -> BinomialPmf {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    BinomialPmf {
        n,
        p,
        z: 0,
        // Run the recursion in log space: pmf(0) = (1-p)^n underflows to
        // a denormal (or zero) for large n·p, which would zero out every
        // subsequent mass; the log accumulates exactly instead.
        ln_current: n as f64 * ln_one_minus(p),
        ln_odds: if p >= 1.0 {
            f64::INFINITY
        } else {
            p.ln() - ln_one_minus(p)
        },
        done: false,
    }
}

/// Iterator type returned by [`binomial_pmf`].
#[derive(Debug, Clone)]
pub struct BinomialPmf {
    n: u64,
    p: f64,
    z: u64,
    ln_current: f64,
    ln_odds: f64,
    done: bool,
}

impl Iterator for BinomialPmf {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.done {
            return None;
        }
        let out = self.ln_current.exp();
        if self.z == self.n {
            self.done = true;
        } else if self.p >= 1.0 {
            // Degenerate distribution: all mass at z = n.
            self.z += 1;
            self.ln_current = if self.z == self.n {
                0.0
            } else {
                f64::NEG_INFINITY
            };
        } else {
            // ln pmf(z+1) = ln pmf(z) + ln((n - z)/(z + 1)) + ln odds
            let ratio = (self.n - self.z) as f64 / (self.z + 1) as f64;
            self.ln_current += ratio.ln() + self.ln_odds;
            self.z += 1;
        }
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = if self.done {
            0
        } else {
            (self.n - self.z + 1) as usize
        };
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for BinomialPmf {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_one_minus_edges() {
        assert_eq!(ln_one_minus(0.0), 0.0);
        assert_eq!(ln_one_minus(-0.5), 0.0);
        assert_eq!(ln_one_minus(1.0), f64::NEG_INFINITY);
        assert_eq!(ln_one_minus(2.0), f64::NEG_INFINITY);
        assert!((ln_one_minus(0.5) - 0.5f64.ln()).abs() < 1e-15);
    }

    #[test]
    fn pow_one_minus_matches_naive_in_safe_range() {
        for &(frac, n) in &[(0.1, 10.0), (0.01, 100.0), (0.5, 7.0)] {
            let stable = pow_one_minus(frac, n);
            let naive = (1.0 - frac).powf(n);
            assert!((stable - naive).abs() < 1e-12, "frac={frac} n={n}");
        }
    }

    #[test]
    fn pow_one_minus_is_stable_for_huge_m() {
        // (1 - 1/2^40)^{2^40} ≈ 1/e; the naive computation degrades.
        let m = (1u64 << 40) as f64;
        let q = pow_one_minus(1.0 / m, m);
        assert!((q - (-1.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn zero_exponent_is_one_even_for_certain_events() {
        assert_eq!(pow_one_minus(1.0, 0.0), 1.0);
        assert_eq!(pow_one_minus(0.3, 0.0), 1.0);
    }

    #[test]
    fn q_zero_basic_values() {
        assert!((q_zero(2.0, 1.0) - 0.5).abs() < 1e-15);
        assert_eq!(q_zero(5.0, 0.0), 1.0);
    }

    #[test]
    fn online_stats_empty_and_single() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);

        let mut s = OnlineStats::new();
        s.push(3.0);
        assert_eq!(s.mean(), 3.0);
        assert_eq!(s.min(), 3.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn online_stats_matches_two_pass() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 19) as f64).collect();
        let acc: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((acc.mean() - mean).abs() < 1e-10);
        assert!((acc.sample_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let (left, right) = xs.split_at(20);
        let mut a: OnlineStats = left.iter().copied().collect();
        let b: OnlineStats = right.iter().copied().collect();
        a.merge(&b);
        let all: OnlineStats = xs.iter().copied().collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-10);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &(n, p) in &[(0u64, 0.3), (1, 0.5), (10, 0.1), (100, 0.9), (50, 0.0)] {
            let total: f64 = binomial_pmf(n, p).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} p={p}: {total}");
        }
    }

    #[test]
    fn binomial_pmf_known_values() {
        // B(3, 1/3): P(0) = 8/27, P(1) = 12/27, P(2) = 6/27, P(3) = 1/27.
        let pmf: Vec<f64> = binomial_pmf(3, 1.0 / 3.0).collect();
        let expected = [8.0 / 27.0, 12.0 / 27.0, 6.0 / 27.0, 1.0 / 27.0];
        for (got, want) in pmf.iter().zip(expected) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn binomial_pmf_p_one() {
        let pmf: Vec<f64> = binomial_pmf(4, 1.0).collect();
        assert_eq!(pmf.len(), 5);
        assert!((pmf[4] - 1.0).abs() < 1e-12);
        assert!(pmf[..4].iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn binomial_pmf_survives_underflowing_tails() {
        // pmf(0) = 0.5^2520 underflows f64 entirely; the log-space
        // recursion must still deliver the central masses (regression
        // test for the direct privacy summation at large n_c).
        let total: f64 = binomial_pmf(2_520, 0.5).sum();
        assert!((total - 1.0).abs() < 1e-6, "sum {total}");
        let near_extreme: f64 = binomial_pmf(156, 0.991).sum();
        assert!((near_extreme - 1.0).abs() < 1e-6, "sum {near_extreme}");
    }

    #[test]
    fn binomial_pmf_exact_size() {
        let it = binomial_pmf(7, 0.5);
        assert_eq!(it.len(), 8);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn binomial_pmf_rejects_bad_p() {
        let _ = binomial_pmf(3, 1.5);
    }
}
