//! One-call analytical profile of a measurement configuration.
//!
//! Pulls every quantity this crate can derive about a `(n_x, n_y, n_c,
//! m_x, m_y, s)` configuration into a single structure with a
//! human-readable rendering — the "what will this deployment do?"
//! answer an operator wants before installing anything.

use std::fmt;

use crate::accuracy::{self, CovarianceMethod};
use crate::{fisher, privacy, AnalysisError, PairParams};

/// A qualitative operating-regime assessment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Regime {
    /// Arrays keep healthy zero fractions; the estimator is informative.
    Healthy,
    /// Expected zero fraction below 5% — estimates become noisy and the
    /// clamped decode path may trigger.
    NearSaturation,
    /// An array is saturated in expectation — the estimator carries no
    /// usable signal at these parameters.
    Saturated,
}

impl fmt::Display for Regime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = match self {
            Regime::Healthy => "healthy",
            Regime::NearSaturation => "near saturation",
            Regime::Saturated => "saturated",
        };
        f.write_str(label)
    }
}

/// The full analytical profile of one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// The profiled parameters.
    pub params: PairParams,
    /// Expected zero fractions `(q_x, q_y, q_c)`.
    pub zero_fractions: (f64, f64, f64),
    /// Effective load factors `(m_x/n_x, m_y/n_y)`.
    pub load_factors: (f64, f64),
    /// Operating regime classification.
    pub regime: Regime,
    /// Relative bias `E[n̂_c]/n_c − 1` (Eq. 33).
    pub bias: f64,
    /// Per-run relative sd under the exact moment model.
    pub sd_exact: f64,
    /// Per-run relative sd under the paper's binomial model (Eqs. 19–34).
    pub sd_paper: f64,
    /// Binomial-model CRLB on the relative sd.
    pub sd_crlb: f64,
    /// 95% confidence half-width relative to `n_c`.
    pub ci95_half_width: f64,
    /// Preserved privacy `p` (Eq. 43).
    pub privacy: f64,
}

impl Profile {
    /// Computes the profile.
    ///
    /// # Errors
    ///
    /// Propagates [`AnalysisError::SizesNotNested`] if the exact moment
    /// model cannot run on these sizes.
    pub fn compute(params: &PairParams) -> Result<Self, AnalysisError> {
        let q_x = accuracy::q_x(params);
        let q_y = accuracy::q_y(params);
        let q_c = accuracy::q_c(params);
        let min_q = q_x.min(q_y).min(q_c);
        let regime = if min_q <= 1e-9 {
            Regime::Saturated
        } else if min_q < 0.05 {
            Regime::NearSaturation
        } else {
            Regime::Healthy
        };
        let rel = |v: f64| {
            if params.n_c > 0.0 {
                v / params.n_c
            } else {
                f64::INFINITY
            }
        };
        let sd_exact = accuracy::std_dev_ratio(params, CovarianceMethod::Exact)?;
        let sd_paper = accuracy::std_dev_ratio(params, CovarianceMethod::Ignore)?;
        let (lo, hi) = accuracy::confidence_interval(params, 0.95, CovarianceMethod::Exact)?;
        Ok(Self {
            params: *params,
            zero_fractions: (q_x, q_y, q_c),
            load_factors: (params.m_x / params.n_x, params.m_y / params.n_y),
            regime,
            bias: accuracy::bias_ratio(params),
            sd_exact,
            sd_paper,
            sd_crlb: rel(fisher::crlb(params).sqrt()),
            ci95_half_width: rel((hi - lo) / 2.0),
            privacy: privacy::preserved_privacy(params),
        })
    }
}

impl fmt::Display for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = &self.params;
        writeln!(
            f,
            "configuration: n_x = {}, n_y = {}, n_c = {}, m_x = {}, m_y = {}, s = {}",
            p.n_x, p.n_y, p.n_c, p.m_x, p.m_y, p.s
        )?;
        writeln!(
            f,
            "load factors:  {:.2} / {:.2}   regime: {}",
            self.load_factors.0, self.load_factors.1, self.regime
        )?;
        writeln!(
            f,
            "zero fractions: q_x = {:.4}, q_y = {:.4}, q_c = {:.4}",
            self.zero_fractions.0, self.zero_fractions.1, self.zero_fractions.2
        )?;
        writeln!(f, "bias:          {:+.4}", self.bias)?;
        writeln!(
            f,
            "sd per run:    {:.4} (exact)   {:.4} (paper model)   {:.4} (CRLB)",
            self.sd_exact, self.sd_paper, self.sd_crlb
        )?;
        writeln!(f, "95% CI:        ±{:.4}·n_c", self.ci95_half_width)?;
        write!(f, "privacy p:     {:.4}", self.privacy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> PairParams {
        PairParams::new(10_000.0, 100_000.0, 1_000.0, 65_536.0, 524_288.0, 2.0).unwrap()
    }

    #[test]
    fn healthy_profile_is_consistent() {
        let profile = Profile::compute(&healthy()).unwrap();
        assert_eq!(profile.regime, Regime::Healthy);
        assert!(profile.bias.abs() < 0.01);
        assert!(profile.sd_exact < profile.sd_paper);
        assert!(profile.sd_exact > 0.0);
        assert!((0.0..=1.0).contains(&profile.privacy));
        // 95% CI half-width ≈ 1.96·sd.
        assert!((profile.ci95_half_width / profile.sd_exact - 1.96).abs() < 0.05);
    }

    #[test]
    fn saturation_is_detected() {
        let p = PairParams::new(100_000.0, 100_000.0, 100.0, 128.0, 128.0, 2.0).unwrap();
        let profile = Profile::compute(&p).unwrap();
        assert_eq!(profile.regime, Regime::Saturated);
        assert!(profile.sd_exact.is_infinite() || profile.sd_exact.is_nan());
    }

    #[test]
    fn near_saturation_is_detected() {
        // q ≈ e^{-3.5} ≈ 0.03.
        let p = PairParams::new(3_500.0, 3_500.0, 100.0, 1_024.0, 1_024.0, 2.0).unwrap();
        let profile = Profile::compute(&p).unwrap();
        assert_eq!(profile.regime, Regime::NearSaturation);
    }

    #[test]
    fn display_renders_every_section() {
        let text = Profile::compute(&healthy()).unwrap().to_string();
        for needle in [
            "configuration",
            "load factors",
            "bias",
            "sd per run",
            "privacy",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn regime_display() {
        assert_eq!(Regime::Healthy.to_string(), "healthy");
        assert_eq!(Regime::Saturated.to_string(), "saturated");
    }
}
