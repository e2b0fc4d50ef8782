//! Bit-array sizing: the paper's power-of-two rule and the volume history
//! that drives it.
//!
//! The variable-length scheme sizes RSU `R_x`'s array as
//! `m_x = 2^ceil(log2(n̄_x · f̄))` (paper §IV-B), where `n̄_x` is the
//! historical average point volume and `f̄` a deployment-wide load factor.
//! At the end of each period "the central server first updates the history
//! average point traffic volume for the RSUs" (§IV-C); [`VolumeHistory`]
//! implements that update as an exponentially weighted moving average.

use std::collections::BTreeMap;

use vcps_bitarray::Pow2;
use vcps_hash::RsuId;

use crate::CoreError;

/// How a scheme sizes RSU bit arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Sizing {
    /// The paper's rule: `m = 2^ceil(log2(n̄ · f̄))` with global load
    /// factor `f̄` — arrays scale with each RSU's traffic.
    LoadFactor(f64),
    /// The \[9\] baseline: one fixed size `m` for every RSU regardless of
    /// traffic.
    Fixed(usize),
}

impl Sizing {
    /// The array size for an RSU with historical volume `history_volume`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the computed size is
    /// below 2 or overflows (`LoadFactor` with absurd inputs).
    pub fn size_for(&self, history_volume: f64) -> Result<usize, CoreError> {
        match *self {
            Sizing::LoadFactor(f) => {
                let target = history_volume * f;
                let m = Pow2::ceil_from(target)
                    .map_err(|_| CoreError::InvalidConfig {
                        parameter: "load_factor",
                        reason: format!("target size {target} overflows"),
                    })?
                    .get();
                if m < 2 {
                    // ceil_from rounds degenerate targets to 1; the paper
                    // needs m > 1 for the estimator's logs to exist.
                    Ok(2)
                } else {
                    Ok(m)
                }
            }
            Sizing::Fixed(m) => {
                if m < 2 {
                    Err(CoreError::InvalidConfig {
                        parameter: "m",
                        reason: format!("fixed size must be at least 2, got {m}"),
                    })
                } else {
                    Ok(m)
                }
            }
        }
    }

    /// Validates the policy's own parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a non-positive or
    /// non-finite load factor, or a fixed size below 2.
    pub fn validate(&self) -> Result<(), CoreError> {
        match *self {
            Sizing::LoadFactor(f) if !(f.is_finite() && f > 0.0) => Err(CoreError::InvalidConfig {
                parameter: "load_factor",
                reason: format!("must be a positive finite number, got {f}"),
            }),
            Sizing::Fixed(m) if m < 2 => Err(CoreError::InvalidConfig {
                parameter: "m",
                reason: format!("fixed size must be at least 2, got {m}"),
            }),
            _ => Ok(()),
        }
    }
}

/// Exponentially weighted history of per-RSU point volumes `n̄_x`.
///
/// `average_new = (1 − alpha) · average_old + alpha · observed`. With
/// `alpha = 1` the history is just the last period (useful in tests); the
/// default `alpha = 0.2` smooths day-to-day variation.
///
/// # Example
///
/// ```
/// use vcps_core::{VolumeHistory, RsuId};
///
/// let mut history = VolumeHistory::new(0.5);
/// history.seed(RsuId(1), 1_000.0);
/// history.update(RsuId(1), 2_000.0);
/// assert_eq!(history.average(RsuId(1)), Some(1_500.0));
///
/// // First observation for an unseeded RSU becomes its average.
/// history.update(RsuId(2), 700.0);
/// assert_eq!(history.average(RsuId(2)), Some(700.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VolumeHistory {
    alpha: f64,
    averages: BTreeMap<RsuId, f64>,
}

impl VolumeHistory {
    /// Default smoothing factor.
    pub const DEFAULT_ALPHA: f64 = 0.2;

    /// Creates an empty history with smoothing factor `alpha ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        Self {
            alpha,
            averages: BTreeMap::new(),
        }
    }

    /// Sets an RSU's initial historical average (e.g. from past traffic
    /// studies), overwriting any existing value.
    pub fn seed(&mut self, rsu: RsuId, average: f64) {
        self.averages.insert(rsu, average.max(0.0));
    }

    /// Folds one period's observed volume into the average.
    pub fn update(&mut self, rsu: RsuId, observed: f64) {
        let observed = observed.max(0.0);
        let entry = self.averages.entry(rsu).or_insert(observed);
        *entry = (1.0 - self.alpha) * *entry + self.alpha * observed;
    }

    /// The smoothing factor this history was constructed with.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The current historical average, if the RSU has been seen.
    #[must_use]
    pub fn average(&self, rsu: RsuId) -> Option<f64> {
        self.averages.get(&rsu).copied()
    }

    /// Iterator over `(RsuId, average)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RsuId, f64)> + '_ {
        self.averages.iter().map(|(&id, &avg)| (id, avg))
    }

    /// Number of tracked RSUs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.averages.len()
    }

    /// `true` when no RSU has been seen yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.averages.is_empty()
    }
}

impl Default for VolumeHistory {
    fn default() -> Self {
        Self::new(Self::DEFAULT_ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_factor_sizing_matches_paper_rule() {
        // m_x = 2^ceil(log2(n̄·f̄)).
        let sizing = Sizing::LoadFactor(3.0);
        assert_eq!(sizing.size_for(10_000.0).unwrap(), 32_768); // 30k -> 2^15
        assert_eq!(sizing.size_for(100_000.0).unwrap(), 524_288); // 300k -> 2^19
        assert_eq!(sizing.size_for(451_000.0).unwrap(), 1 << 21);
    }

    #[test]
    fn load_factor_sizes_scale_with_volume() {
        let sizing = Sizing::LoadFactor(2.0);
        let small = sizing.size_for(100.0).unwrap();
        let large = sizing.size_for(10_000.0).unwrap();
        assert!(large > small);
        assert!(large.is_power_of_two() && small.is_power_of_two());
    }

    #[test]
    fn degenerate_volume_still_gets_a_valid_array() {
        let sizing = Sizing::LoadFactor(3.0);
        assert_eq!(sizing.size_for(0.0).unwrap(), 2);
        assert_eq!(sizing.size_for(0.3).unwrap(), 2);
    }

    #[test]
    fn fixed_sizing_ignores_volume() {
        let sizing = Sizing::Fixed(4_096);
        assert_eq!(sizing.size_for(10.0).unwrap(), 4_096);
        assert_eq!(sizing.size_for(1e9).unwrap(), 4_096);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Sizing::LoadFactor(0.0).validate().is_err());
        assert!(Sizing::LoadFactor(-1.0).validate().is_err());
        assert!(Sizing::LoadFactor(f64::NAN).validate().is_err());
        assert!(Sizing::Fixed(1).validate().is_err());
        assert!(Sizing::LoadFactor(3.0).validate().is_ok());
        assert!(Sizing::Fixed(2).validate().is_ok());
    }

    #[test]
    fn history_ewma_update() {
        let mut h = VolumeHistory::new(0.25);
        h.seed(RsuId(1), 800.0);
        h.update(RsuId(1), 1_600.0);
        assert_eq!(h.average(RsuId(1)), Some(1_000.0));
        h.update(RsuId(1), 1_000.0);
        assert_eq!(h.average(RsuId(1)), Some(1_000.0));
    }

    #[test]
    fn history_first_observation_seeds() {
        let mut h = VolumeHistory::default();
        h.update(RsuId(3), 500.0);
        assert_eq!(h.average(RsuId(3)), Some(500.0));
        assert_eq!(h.average(RsuId(4)), None);
    }

    #[test]
    fn history_clamps_negative_observations() {
        let mut h = VolumeHistory::new(1.0);
        h.update(RsuId(1), -5.0);
        assert_eq!(h.average(RsuId(1)), Some(0.0));
    }

    #[test]
    fn history_iteration_in_id_order() {
        let mut h = VolumeHistory::default();
        h.seed(RsuId(5), 1.0);
        h.seed(RsuId(2), 2.0);
        let ids: Vec<RsuId> = h.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![RsuId(2), RsuId(5)]);
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn history_rejects_bad_alpha() {
        let _ = VolumeHistory::new(0.0);
    }

    #[test]
    fn alpha_one_tracks_last_period() {
        let mut h = VolumeHistory::new(1.0);
        h.seed(RsuId(1), 100.0);
        h.update(RsuId(1), 900.0);
        assert_eq!(h.average(RsuId(1)), Some(900.0));
    }
}
