use crate::AnalysisError;

/// The six parameters that determine every formula in the paper's analysis
/// sections: point volumes `n_x, n_y`, overlap `n_c`, bit-array sizes
/// `m_x, m_y`, and logical-bit-array size `s`.
///
/// The constructor normalizes the pair so that `m_x <= m_y`, the
/// convention used throughout the paper ("without loss of generality, we
/// assume that m_x ≤ m_y").
///
/// Sizes are `f64` because the paper's numerical analysis sweeps the load
/// factor `f = m/n` continuously (Fig. 2). `vcps-core` rounds sizes to
/// powers of two before they ever reach a physical bit array.
///
/// # Example
///
/// ```
/// use vcps_analysis::PairParams;
///
/// # fn main() -> Result<(), vcps_analysis::AnalysisError> {
/// // Constructor swaps roles so m_x <= m_y.
/// let p = PairParams::new(100_000.0, 10_000.0, 500.0, 300_000.0, 30_000.0, 2.0)?;
/// assert_eq!(p.m_x, 30_000.0);
/// assert_eq!(p.n_x, 10_000.0);
/// assert_eq!(p.size_ratio(), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairParams {
    /// Point traffic volume at the RSU with the **smaller** bit array.
    pub n_x: f64,
    /// Point traffic volume at the RSU with the **larger** bit array.
    pub n_y: f64,
    /// Point-to-point volume `|S_x ∩ S_y|` — the quantity being estimated.
    pub n_c: f64,
    /// Smaller bit-array size (`m_x <= m_y` after normalization).
    pub m_x: f64,
    /// Larger bit-array size.
    pub m_y: f64,
    /// Logical bit array size `s` (the paper evaluates 2, 5, 10).
    pub s: f64,
}

impl PairParams {
    /// Validates and normalizes a parameter set.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::NonFinite`] if any value is NaN/infinite;
    /// * [`AnalysisError::OutOfRange`] if a volume is negative, a size is
    ///   `<= 1`, or `s < 1`;
    /// * [`AnalysisError::OverlapExceedsVolume`] if
    ///   `n_c > min(n_x, n_y)`.
    pub fn new(
        n_x: f64,
        n_y: f64,
        n_c: f64,
        m_x: f64,
        m_y: f64,
        s: f64,
    ) -> Result<Self, AnalysisError> {
        for (name, value) in [
            ("n_x", n_x),
            ("n_y", n_y),
            ("n_c", n_c),
            ("m_x", m_x),
            ("m_y", m_y),
            ("s", s),
        ] {
            if !value.is_finite() {
                return Err(AnalysisError::NonFinite { name });
            }
        }
        for (name, value) in [("n_x", n_x), ("n_y", n_y), ("n_c", n_c)] {
            if value < 0.0 {
                return Err(AnalysisError::OutOfRange {
                    name,
                    value,
                    constraint: "must be >= 0",
                });
            }
        }
        for (name, value) in [("m_x", m_x), ("m_y", m_y)] {
            if value <= 1.0 {
                return Err(AnalysisError::OutOfRange {
                    name,
                    value,
                    constraint: "must be > 1",
                });
            }
        }
        if s < 1.0 {
            return Err(AnalysisError::OutOfRange {
                name: "s",
                value: s,
                constraint: "must be >= 1",
            });
        }
        if n_c > n_x.min(n_y) {
            return Err(AnalysisError::OverlapExceedsVolume {
                n_c,
                min_volume: n_x.min(n_y),
            });
        }
        // Normalize: the RSU with the smaller array plays the role of x.
        let params = if m_x <= m_y {
            Self {
                n_x,
                n_y,
                n_c,
                m_x,
                m_y,
                s,
            }
        } else {
            Self {
                n_x: n_y,
                n_y: n_x,
                n_c,
                m_x: m_y,
                m_y: m_x,
                s,
            }
        };
        Ok(params)
    }

    /// Builds parameters from per-RSU load factors: `m = f·n` for both
    /// RSUs (the sizing rule of the variable-length scheme before
    /// power-of-two rounding).
    ///
    /// # Errors
    ///
    /// Same as [`PairParams::new`].
    pub fn from_load_factor(
        f: f64,
        n_x: f64,
        n_y: f64,
        n_c: f64,
        s: f64,
    ) -> Result<Self, AnalysisError> {
        Self::new(n_x, n_y, n_c, f * n_x, f * n_y, s)
    }

    /// Builds parameters for the fixed-length baseline of \[9\]: a single
    /// array size `m` for both RSUs.
    ///
    /// # Errors
    ///
    /// Same as [`PairParams::new`].
    pub fn fixed_size(m: f64, n_x: f64, n_y: f64, n_c: f64, s: f64) -> Result<Self, AnalysisError> {
        Self::new(n_x, n_y, n_c, m, m, s)
    }

    /// The size ratio `m_y / m_x` (≥ 1 after normalization).
    #[must_use]
    pub fn size_ratio(&self) -> f64 {
        self.m_y / self.m_x
    }

    /// The traffic difference ratio `d = n_y / n_x` from Table I.
    #[must_use]
    pub fn traffic_ratio(&self) -> f64 {
        self.n_y / self.n_x
    }

    /// Returns a copy with a different overlap `n_c`.
    ///
    /// # Errors
    ///
    /// Same as [`PairParams::new`].
    pub fn with_overlap(&self, n_c: f64) -> Result<Self, AnalysisError> {
        Self::new(self.n_x, self.n_y, n_c, self.m_x, self.m_y, self.s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_so_mx_is_smaller() {
        let p = PairParams::new(5.0, 10.0, 2.0, 100.0, 50.0, 2.0).unwrap();
        assert_eq!(p.m_x, 50.0);
        assert_eq!(p.m_y, 100.0);
        assert_eq!(p.n_x, 10.0);
        assert_eq!(p.n_y, 5.0);
    }

    #[test]
    fn already_normalized_is_unchanged() {
        let p = PairParams::new(5.0, 10.0, 2.0, 50.0, 100.0, 2.0).unwrap();
        assert_eq!(p.n_x, 5.0);
        assert_eq!(p.m_x, 50.0);
    }

    #[test]
    fn rejects_non_finite() {
        assert!(matches!(
            PairParams::new(f64::NAN, 1.0, 0.0, 2.0, 2.0, 2.0),
            Err(AnalysisError::NonFinite { name: "n_x" })
        ));
        assert!(PairParams::new(1.0, f64::INFINITY, 0.0, 2.0, 2.0, 2.0).is_err());
    }

    #[test]
    fn rejects_negative_volumes() {
        assert!(PairParams::new(-1.0, 1.0, 0.0, 2.0, 2.0, 2.0).is_err());
    }

    #[test]
    fn rejects_tiny_sizes() {
        // The paper's derivation needs m_x > 1, m_y > 1 (below Eq. 17).
        assert!(PairParams::new(1.0, 1.0, 0.0, 1.0, 2.0, 2.0).is_err());
        assert!(PairParams::new(1.0, 1.0, 0.0, 2.0, 0.5, 2.0).is_err());
    }

    #[test]
    fn rejects_overlap_exceeding_volume() {
        assert!(matches!(
            PairParams::new(5.0, 10.0, 6.0, 8.0, 8.0, 2.0),
            Err(AnalysisError::OverlapExceedsVolume { .. })
        ));
    }

    #[test]
    fn load_factor_constructor() {
        let p = PairParams::from_load_factor(3.0, 100.0, 1000.0, 10.0, 5.0).unwrap();
        assert_eq!(p.m_x, 300.0);
        assert_eq!(p.m_y, 3000.0);
        assert_eq!(p.size_ratio(), 10.0);
        assert_eq!(p.traffic_ratio(), 10.0);
    }

    #[test]
    fn fixed_size_constructor() {
        let p = PairParams::fixed_size(500.0, 100.0, 1000.0, 10.0, 2.0).unwrap();
        assert_eq!(p.m_x, 500.0);
        assert_eq!(p.m_y, 500.0);
    }

    #[test]
    fn with_overlap_replaces_nc() {
        let p = PairParams::new(10.0, 20.0, 1.0, 8.0, 16.0, 2.0).unwrap();
        let q = p.with_overlap(5.0).unwrap();
        assert_eq!(q.n_c, 5.0);
        assert!(p.with_overlap(11.0).is_err());
    }
}
