use vcps_hash::{HashFamily, RsuId, Salts, SelectionRule, VehicleIdentity};

use crate::{CoreError, Deployment, Sizing};

/// Which measurement scheme a [`Scheme`] instance realizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// The paper's variable-length bit array scheme (per-RSU sizing with a
    /// global load factor, power-of-two lengths, unfolding decode).
    VariableLength,
    /// The fixed-length baseline of \[9\]: one size for every RSU.
    FixedLength,
}

/// Deployment-wide configuration of a traffic measurement scheme: the
/// hash family `H`, the salt constants `X` (hence `s`), the logical-bit
/// selection rule, and the array sizing policy.
///
/// A `Scheme` is immutable and cheap to clone; per-period mutable state
/// lives in [`Deployment`].
///
/// # Example
///
/// ```
/// use vcps_core::{Scheme, SchemeKind, Sizing};
///
/// # fn main() -> Result<(), vcps_core::CoreError> {
/// let novel = Scheme::variable(5, 3.0, 7)?;
/// assert_eq!(novel.kind(), SchemeKind::VariableLength);
/// assert_eq!(novel.s(), 5);
///
/// let baseline = Scheme::fixed(5, 1 << 16, 7)?;
/// assert_eq!(baseline.kind(), SchemeKind::FixedLength);
/// assert_eq!(baseline.sizing(), Sizing::Fixed(1 << 16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scheme {
    family: HashFamily,
    salts: Salts,
    rule: SelectionRule,
    sizing: Sizing,
}

impl Scheme {
    /// Creates the paper's variable-length scheme with `s` logical bits
    /// per vehicle and global load factor `f̄ = load_factor`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `s < 2` (a single logical
    /// bit makes every trace linkable) or `load_factor` is not a positive
    /// finite number.
    pub fn variable(s: usize, load_factor: f64, seed: u64) -> Result<Self, CoreError> {
        Self::with_sizing(s, Sizing::LoadFactor(load_factor), seed)
    }

    /// Creates the fixed-length baseline scheme of \[9\] with array size `m`
    /// at every RSU.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `s < 2` or `m < 2`.
    pub fn fixed(s: usize, m: usize, seed: u64) -> Result<Self, CoreError> {
        Self::with_sizing(s, Sizing::Fixed(m), seed)
    }

    /// Creates a scheme with an explicit sizing policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `s < 2` or the sizing
    /// policy is invalid.
    pub fn with_sizing(s: usize, sizing: Sizing, seed: u64) -> Result<Self, CoreError> {
        if s < 2 {
            return Err(CoreError::InvalidConfig {
                parameter: "s",
                reason: format!("logical bit array needs at least 2 bits, got {s}"),
            });
        }
        sizing.validate()?;
        Ok(Self {
            family: HashFamily::new(seed),
            salts: Salts::generate(s, seed.rotate_left(17) ^ 0x53A1_7500),
            rule: SelectionRule::default(),
            sizing,
        })
    }

    /// Replaces the logical-bit selection rule (default:
    /// [`SelectionRule::PerVehicle`]; see `vcps-hash` for why the paper's
    /// literal rule is kept only for comparison).
    #[must_use]
    pub fn with_rule(mut self, rule: SelectionRule) -> Self {
        self.rule = rule;
        self
    }

    /// Which scheme this configuration realizes.
    #[must_use]
    pub fn kind(&self) -> SchemeKind {
        match self.sizing {
            Sizing::LoadFactor(_) => SchemeKind::VariableLength,
            Sizing::Fixed(_) => SchemeKind::FixedLength,
        }
    }

    /// The logical bit array size `s`.
    #[must_use]
    pub fn s(&self) -> usize {
        self.salts.len()
    }

    /// The sizing policy.
    #[must_use]
    pub fn sizing(&self) -> Sizing {
        self.sizing
    }

    /// The selection rule in force.
    #[must_use]
    pub fn rule(&self) -> SelectionRule {
        self.rule
    }

    /// The deployment's hash family `H`.
    #[must_use]
    pub fn family(&self) -> &HashFamily {
        &self.family
    }

    /// The deployment's salt constants `X`.
    #[must_use]
    pub fn salts(&self) -> &Salts {
        &self.salts
    }

    /// The array size this scheme assigns to an RSU with historical
    /// volume `history_volume`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the size computation
    /// overflows.
    pub fn array_size_for(&self, history_volume: f64) -> Result<usize, CoreError> {
        self.sizing.size_for(history_volume)
    }

    /// The index a vehicle reports when queried by RSU `rsu` whose array
    /// has `m_x` bits, in a deployment whose largest array has `m_o` bits
    /// (paper Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if `m_o % m_x != 0` (see
    /// [`VehicleIdentity::report_index`]); deployments built through
    /// [`Scheme::deploy`] always satisfy this.
    #[must_use]
    pub fn report_index(
        &self,
        vehicle: &VehicleIdentity,
        rsu: RsuId,
        m_x: usize,
        m_o: usize,
    ) -> usize {
        vehicle.report_index(&self.family, &self.salts, rsu, m_x, m_o, self.rule)
    }

    /// Builds a [`Deployment`] with one sketch per `(RsuId, history
    /// volume)` pair.
    ///
    /// # Errors
    ///
    /// * [`CoreError::DuplicateRsu`] for repeated ids;
    /// * [`CoreError::InvalidConfig`] if `volumes` is empty or a size
    ///   computation fails.
    pub fn deploy(&self, volumes: &[(RsuId, f64)]) -> Result<Deployment, CoreError> {
        Deployment::new(self.clone(), volumes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate_s() {
        assert!(Scheme::variable(1, 3.0, 0).is_err());
        assert!(Scheme::variable(2, 3.0, 0).is_ok());
        assert!(Scheme::fixed(0, 64, 0).is_err());
    }

    #[test]
    fn constructors_validate_sizing() {
        assert!(Scheme::variable(2, 0.0, 0).is_err());
        assert!(Scheme::variable(2, f64::INFINITY, 0).is_err());
        assert!(Scheme::fixed(2, 1, 0).is_err());
    }

    #[test]
    fn kind_reflects_sizing() {
        assert_eq!(
            Scheme::variable(2, 3.0, 0).unwrap().kind(),
            SchemeKind::VariableLength
        );
        assert_eq!(
            Scheme::fixed(2, 64, 0).unwrap().kind(),
            SchemeKind::FixedLength
        );
    }

    #[test]
    fn s_comes_from_salts() {
        assert_eq!(Scheme::variable(5, 3.0, 0).unwrap().s(), 5);
        assert_eq!(Scheme::variable(10, 3.0, 0).unwrap().s(), 10);
    }

    #[test]
    fn same_seed_same_scheme() {
        let a = Scheme::variable(2, 3.0, 11).unwrap();
        let b = Scheme::variable(2, 3.0, 11).unwrap();
        assert_eq!(a, b);
        let c = Scheme::variable(2, 3.0, 12).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn report_index_is_deterministic_and_in_range() {
        let scheme = Scheme::variable(2, 3.0, 5).unwrap();
        let v = VehicleIdentity::from_raw(9, 100);
        let idx = scheme.report_index(&v, RsuId(1), 256, 1 << 12);
        assert!(idx < 256);
        assert_eq!(idx, scheme.report_index(&v, RsuId(1), 256, 1 << 12));
    }

    #[test]
    fn with_rule_switches_selection() {
        let scheme = Scheme::variable(2, 3.0, 5)
            .unwrap()
            .with_rule(SelectionRule::PerRsuLiteral);
        assert_eq!(scheme.rule(), SelectionRule::PerRsuLiteral);
    }

    #[test]
    fn array_size_for_delegates_to_sizing() {
        let scheme = Scheme::variable(2, 3.0, 0).unwrap();
        assert_eq!(scheme.array_size_for(10_000.0).unwrap(), 32_768);
        let fixed = Scheme::fixed(2, 4_096, 0).unwrap();
        assert_eq!(fixed.array_size_for(1e9).unwrap(), 4_096);
    }
}
