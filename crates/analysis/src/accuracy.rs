//! Measurement-accuracy analysis: paper Section V (Eqs. 9–36).
//!
//! Everything is a deterministic function of a [`PairParams`]. The
//! estimator itself lives in `vcps-core`; this module predicts its bias
//! and standard deviation so that simulations can be checked against
//! theory (and so parameter solvers can trade accuracy against privacy).

use crate::covariance::covariance_terms;
use crate::stats::{ln_one_minus, pow_one_minus};
use crate::{AnalysisError, PairParams};

/// The estimator denominator `ln(1 − (s−1)/(s·m_y)) − ln(1 − 1/m_y)`
/// (paper Eq. 5). Positive whenever `m_y > 1` and `s ≥ 1` (at `s = 1`
/// every common vehicle reuses its single logical bit, which maximizes
/// the per-vehicle signal and the denominator).
#[must_use]
pub fn denominator(p: &PairParams) -> f64 {
    let t = (p.s - 1.0) / p.s;
    ln_one_minus(t / p.m_y) - ln_one_minus(1.0 / p.m_y)
}

/// `q(n_x) = (1 − 1/m_x)^{n_x}` — expected zero fraction of `B_x`
/// (paper Eq. 10).
#[must_use]
pub fn q_x(p: &PairParams) -> f64 {
    pow_one_minus(1.0 / p.m_x, p.n_x)
}

/// `q(n_y) = (1 − 1/m_y)^{n_y}` — expected zero fraction of `B_y`
/// (paper Eq. 11).
#[must_use]
pub fn q_y(p: &PairParams) -> f64 {
    pow_one_minus(1.0 / p.m_y, p.n_y)
}

/// `q(n_c)` — the probability that a bit of the combined array `B_c`
/// stays zero (paper Eq. 9).
#[must_use]
pub fn q_c(p: &PairParams) -> f64 {
    let t = (p.s - 1.0) / p.s;
    let ratio_ln = ln_one_minus(t / p.m_y) - ln_one_minus(1.0 / p.m_y);
    q_x(p) * q_y(p) * (p.n_c * ratio_ln).exp()
}

/// `E[ln V]` for a zero fraction with mean `q` over an `m`-bit array
/// (paper Eq. 24 pattern, second-order Taylor):
/// `ln q − (1 − q)/(2·m·q)`.
#[must_use]
pub fn e_ln_v(q: f64, m: f64) -> f64 {
    q.ln() - (1.0 - q) / (2.0 * m * q)
}

/// `Var[ln V]` for a zero fraction with mean `q` over an `m`-bit array
/// (paper Eq. 28 pattern, first-order Taylor): `(1 − q)/(m·q)`.
#[must_use]
pub fn var_ln_v(q: f64, m: f64) -> f64 {
    (1.0 - q) / (m * q)
}

/// `E[n̂_c]` — expected value of the MLE estimator (paper Eq. 32).
#[must_use]
pub fn expected_estimate(p: &PairParams) -> f64 {
    let num = e_ln_v(q_c(p), p.m_y) - e_ln_v(q_x(p), p.m_x) - e_ln_v(q_y(p), p.m_y);
    num / denominator(p)
}

/// `Bias(n̂_c / n_c) = E[n̂_c]/n_c − 1` (paper Eq. 33).
///
/// Returns `0` when `n_c = 0` (relative bias is undefined; the absolute
/// bias is available via [`expected_estimate`]).
#[must_use]
pub fn bias_ratio(p: &PairParams) -> f64 {
    if p.n_c == 0.0 {
        0.0
    } else {
        expected_estimate(p) / p.n_c - 1.0
    }
}

/// How the covariance terms of paper Eq. 34 are treated when computing
/// the estimator variance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CovarianceMethod {
    /// Drop all covariance terms (`C = 0`). A good first approximation:
    /// the three covariances are an order of magnitude smaller than the
    /// variances at typical load factors.
    Ignore,
    /// The paper's Eq. 35 route. Its algebra reduces each covariance to
    /// the product of the second-order bias corrections,
    /// `C_1 = −ε_c·ε_x` with `ε = Var(V)/(2·E[V]²)` — a fourth-order
    /// quantity, so this is numerically close to [`CovarianceMethod::Ignore`]. Weighted as
    /// printed (`C = −C_1 − C_2 + C_3`, without the delta-method factor
    /// of 2).
    PaperEq35,
    /// Exact per-bit *variances and covariances* from
    /// [`crate::covariance`], combined with the full delta-method weights
    /// `−2·Cov(c,x) − 2·Cov(c,y) + 2·Cov(x,y)`. This replaces the paper's
    /// binomial variance model (Eqs. 19–22) with the exact occupancy
    /// variance — the binomial model overpredicts the estimator noise
    /// several-fold because per-bit indicators are negatively correlated.
    /// Most faithful to the simulated estimator; requires nested integral
    /// sizes.
    #[default]
    Exact,
}

/// `Var(n̂_c)` (paper Eq. 34) under the chosen covariance treatment.
///
/// # Errors
///
/// [`CovarianceMethod::Exact`] propagates
/// [`AnalysisError::SizesNotNested`] for sizes that are not integral with
/// `m_x | m_y`.
pub fn estimator_variance(p: &PairParams, method: CovarianceMethod) -> Result<f64, AnalysisError> {
    let (qc, qx, qy) = (q_c(p), q_x(p), q_y(p));
    if qc <= 0.0 || qx <= 0.0 || qy <= 0.0 {
        // An array is saturated *in expectation* (q underflows to 0):
        // the estimator's logarithms are undefined and no variance is
        // meaningful — report infinite uncertainty instead of NaN.
        return Ok(f64::INFINITY);
    }
    let denom = denominator(p);
    if let CovarianceMethod::Exact = method {
        let t = covariance_terms(p)?;
        let var_num = t.ln_cc + t.ln_xx + t.ln_yy - 2.0 * t.ln_cx - 2.0 * t.ln_cy + 2.0 * t.ln_xy;
        return Ok(var_num / (denom * denom));
    }
    let d = var_ln_v(qc, p.m_y) + var_ln_v(qx, p.m_x) + var_ln_v(qy, p.m_y);
    let c = match method {
        CovarianceMethod::Ignore | CovarianceMethod::Exact => 0.0,
        CovarianceMethod::PaperEq35 => {
            // ε = Var(V)/(2·E[V]²) = (1 − q)/(2·m·q): the bias correction
            // of Eq. 24. Eq. 35's expansion evaluates to C_1 = −ε_c·ε_x
            // (and analogously for C_2, C_3); C = −C_1 − C_2 + C_3.
            let e_c = (1.0 - qc) / (2.0 * p.m_y * qc);
            let e_x = (1.0 - qx) / (2.0 * p.m_x * qx);
            let e_y = (1.0 - qy) / (2.0 * p.m_y * qy);
            e_c * e_x + e_c * e_y - e_x * e_y
        }
    };
    Ok((c + d) / (denom * denom))
}

/// `StdDev(n̂_c / n_c)` (paper Eq. 36).
///
/// Returns `+inf` when `n_c = 0`.
///
/// # Errors
///
/// Same as [`estimator_variance`].
pub fn std_dev_ratio(p: &PairParams, method: CovarianceMethod) -> Result<f64, AnalysisError> {
    let var = estimator_variance(p, method)?;
    if p.n_c == 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(var.max(0.0).sqrt() / p.n_c)
}

/// A two-sided confidence interval for the estimator at `confidence`
/// (e.g. `0.95`), centered on the expected estimate with the chosen
/// variance model (normal approximation — the estimator is a smooth
/// function of three near-Gaussian zero fractions).
///
/// # Errors
///
/// Propagates [`estimator_variance`]'s errors.
///
/// # Panics
///
/// Panics unless `0 < confidence < 1`.
pub fn confidence_interval(
    p: &PairParams,
    confidence: f64,
    method: CovarianceMethod,
) -> Result<(f64, f64), AnalysisError> {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0, 1)"
    );
    let sd = estimator_variance(p, method)?.max(0.0).sqrt();
    let z = crate::stats::normal_quantile(0.5 + confidence / 2.0);
    let center = expected_estimate(p);
    Ok((center - z * sd, center + z * sd))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> PairParams {
        PairParams::new(10_000.0, 100_000.0, 1_000.0, 32_768.0, 262_144.0, 2.0).unwrap()
    }

    #[test]
    fn denominator_is_positive_for_s_at_least_2() {
        let p = params();
        assert!(denominator(&p) > 0.0);
    }

    #[test]
    fn denominator_largest_for_s_1() {
        // With s = 1 every common vehicle reuses its single logical bit —
        // the strongest per-vehicle signal, hence the largest denominator.
        let s1 = PairParams::new(10.0, 10.0, 1.0, 8.0, 8.0, 1.0).unwrap();
        let s5 = PairParams::new(10.0, 10.0, 1.0, 8.0, 8.0, 5.0).unwrap();
        assert!(denominator(&s1) > denominator(&s5));
        assert!(denominator(&s5) > 0.0);
    }

    #[test]
    fn q_values_are_probabilities() {
        let p = params();
        for q in [q_x(&p), q_y(&p), q_c(&p)] {
            assert!((0.0..=1.0).contains(&q), "q = {q}");
        }
    }

    #[test]
    fn q_c_reduces_to_product_when_no_overlap() {
        // Eq. 9 with n_c = 0: q(n_c) = q(n_x)·q(n_y).
        let p = PairParams::new(500.0, 900.0, 0.0, 1024.0, 4096.0, 5.0).unwrap();
        assert!((q_c(&p) - q_x(&p) * q_y(&p)).abs() < 1e-12);
    }

    #[test]
    fn q_c_grows_with_overlap() {
        // Common vehicles set fewer distinct bits, so more zeros survive.
        let base = PairParams::new(500.0, 900.0, 0.0, 1024.0, 4096.0, 2.0).unwrap();
        let more = base.with_overlap(400.0).unwrap();
        assert!(q_c(&more) > q_c(&base));
    }

    #[test]
    fn bias_is_small_at_reasonable_load_factors() {
        // Paper Table I/Fig. 5 show sub-percent errors at f̄ ≈ 3.
        let p = params();
        assert!(bias_ratio(&p).abs() < 0.01, "bias {}", bias_ratio(&p));
    }

    #[test]
    fn bias_ratio_zero_overlap_convention() {
        let p = PairParams::new(10.0, 10.0, 0.0, 8.0, 8.0, 2.0).unwrap();
        assert_eq!(bias_ratio(&p), 0.0);
    }

    #[test]
    fn expected_estimate_tracks_true_overlap() {
        let p = params();
        let e = expected_estimate(&p);
        assert!(
            (e - p.n_c).abs() / p.n_c < 0.01,
            "E[n̂_c] = {e} vs n_c = {}",
            p.n_c
        );
    }

    #[test]
    fn variance_methods_agree_roughly() {
        let p = params();
        let ignore = estimator_variance(&p, CovarianceMethod::Ignore).unwrap();
        let paper = estimator_variance(&p, CovarianceMethod::PaperEq35).unwrap();
        let exact = estimator_variance(&p, CovarianceMethod::Exact).unwrap();
        assert!(ignore > 0.0 && paper > 0.0 && exact > 0.0);
        // Eq. 35's covariances are fourth-order — nearly identical to Ignore.
        assert!((ignore - paper).abs() / ignore < 1e-3);
        // The exact model is strictly tighter: the binomial variance of
        // Eqs. 19–22 ignores the negative per-bit correlations, and the
        // cross-covariances cancel most of the remaining noise.
        assert!(
            exact < ignore,
            "exact {exact} should be below binomial-based {ignore}"
        );
    }

    #[test]
    fn std_dev_ratio_shrinks_with_larger_arrays() {
        let small = PairParams::new(10_000.0, 10_000.0, 1_000.0, 16_384.0, 16_384.0, 2.0).unwrap();
        let large = PairParams::new(10_000.0, 10_000.0, 1_000.0, 65_536.0, 65_536.0, 2.0).unwrap();
        let sd_small = std_dev_ratio(&small, CovarianceMethod::Ignore).unwrap();
        let sd_large = std_dev_ratio(&large, CovarianceMethod::Ignore).unwrap();
        assert!(
            sd_large < sd_small,
            "more bits, less noise: {sd_large} vs {sd_small}"
        );
    }

    #[test]
    fn std_dev_infinite_at_zero_overlap() {
        let p = PairParams::new(10.0, 10.0, 0.0, 8.0, 8.0, 2.0).unwrap();
        assert_eq!(
            std_dev_ratio(&p, CovarianceMethod::Ignore).unwrap(),
            f64::INFINITY
        );
    }

    #[test]
    fn confidence_interval_brackets_truth_and_widens() {
        let p = params();
        let (lo95, hi95) = confidence_interval(&p, 0.95, CovarianceMethod::Exact).unwrap();
        let (lo99, hi99) = confidence_interval(&p, 0.99, CovarianceMethod::Exact).unwrap();
        assert!(
            lo95 < p.n_c && p.n_c < hi95,
            "[{lo95}, {hi95}] vs {}",
            p.n_c
        );
        assert!(lo99 < lo95 && hi99 > hi95, "wider at higher confidence");
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn confidence_interval_validates_level() {
        let _ = confidence_interval(&params(), 1.5, CovarianceMethod::Ignore);
    }

    /// Monte-Carlo check of the full accuracy pipeline: simulate the
    /// abstract bit process, apply the paper's estimator, and compare the
    /// empirical mean and standard deviation against Eqs. 32/34.
    #[test]
    fn theory_matches_monte_carlo() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let p = PairParams::new(600.0, 2_400.0, 150.0, 2_048.0, 8_192.0, 2.0).unwrap();
        let m_x = p.m_x as usize;
        let m_y = p.m_y as usize;
        let r = m_y / m_x;
        let denom = denominator(&p);
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 4_000;
        let mut estimates = Vec::with_capacity(trials);
        for _ in 0..trials {
            let mut bx = vec![false; m_x];
            let mut by = vec![false; m_y];
            for _ in 0..p.n_c as usize {
                let bxi = rng.random_range(0..m_x);
                bx[bxi] = true;
                let byi = if rng.random_range(0.0..1.0) < 1.0 / p.s {
                    bxi + m_x * rng.random_range(0..r)
                } else {
                    rng.random_range(0..m_y)
                };
                by[byi] = true;
            }
            for _ in 0..(p.n_x - p.n_c) as usize {
                bx[rng.random_range(0..m_x)] = true;
            }
            for _ in 0..(p.n_y - p.n_c) as usize {
                by[rng.random_range(0..m_y)] = true;
            }
            let v_x = bx.iter().filter(|&&b| !b).count() as f64 / p.m_x;
            let v_y = by.iter().filter(|&&b| !b).count() as f64 / p.m_y;
            let v_c = (0..m_y).filter(|&i| !bx[i % m_x] && !by[i]).count() as f64 / p.m_y;
            estimates.push((v_c.ln() - v_x.ln() - v_y.ln()) / denom);
        }
        let mean = estimates.iter().sum::<f64>() / trials as f64;
        let var = estimates
            .iter()
            .map(|e| (e - mean) * (e - mean))
            .sum::<f64>()
            / (trials - 1) as f64;

        let predicted_mean = expected_estimate(&p);
        assert!(
            (mean - predicted_mean).abs() / p.n_c < 0.02,
            "MC mean {mean} vs predicted {predicted_mean}"
        );
        let predicted_sd = estimator_variance(&p, CovarianceMethod::Exact)
            .unwrap()
            .sqrt();
        let mc_sd = var.sqrt();
        assert!(
            (mc_sd - predicted_sd).abs() / predicted_sd < 0.15,
            "MC sd {mc_sd} vs predicted {predicted_sd}"
        );
    }
}
