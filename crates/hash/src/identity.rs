use std::fmt;

use rand::RngExt;

use crate::{HashFamily, Salts};

/// A vehicle's identifier (e.g. derived from its VIN).
///
/// The identifier is **never transmitted**; it only enters keyed hash
/// computations on the vehicle itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VehicleId(pub u64);

impl fmt::Display for VehicleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for VehicleId {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

/// A vehicle's private key `K_v` (paper §IV-B), known only to the vehicle.
///
/// XOR-ing `K_v` into every hash input prevents anyone who knows `H`, `X`
/// and a vehicle's identifier from precomputing its logical bit array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PrivateKey(pub u64);

impl From<u64> for PrivateKey {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

/// A road-side unit's identifier (the paper's `RID`), broadcast in every
/// query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RsuId(pub u64);

impl fmt::Display for RsuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<u64> for RsuId {
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

/// How a vehicle selects which of its `s` logical bits to report to an RSU.
///
/// See the crate-level documentation: the paper's printed formula
/// (`X[H(R_x) mod s]`) couples the selection across all vehicles at a given
/// RSU, while its analysis assumes per-vehicle independent selection. Both
/// rules are implemented; [`SelectionRule::PerVehicle`] is the default used
/// by `vcps-core` and matches every formula in the paper's Sections V–VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectionRule {
    /// Salt index `H(v ⊕ K_v ⊕ H(R_x)) mod s`: each vehicle independently
    /// keeps the same logical bit across two RSUs with probability `1/s`,
    /// exactly the model behind paper Eq. 37 (`n_s ~ B(n_c, 1/s)`).
    #[default]
    PerVehicle,
    /// Salt index `H(R_x) mod s`, the paper's literal formula: all
    /// vehicles at a given RSU use the same salt, so for a pair of RSUs
    /// either every common vehicle repeats its logical bit or none does.
    /// Kept for comparison experiments; breaks the estimator's accuracy.
    PerRsuLiteral,
}

/// A vehicle's secret material: its identifier and private key.
///
/// All scheme-side computations a vehicle performs — deriving its logical
/// bit array and answering RSU queries — live here.
///
/// **Key independence matters.** The scheme hashes `v ⊕ K_v`, so two
/// vehicles with equal `id ⊕ key` are indistinguishable (they share a
/// logical bit array), and a population whose keys are a fixed function
/// of their ids (e.g. `key = id` or `key = id ^ C`) collapses onto a
/// single array. Draw keys uniformly at random
/// ([`VehicleIdentity::with_random_key`]) or derive them through a hash
/// in tests.
///
/// # Example
///
/// ```
/// use vcps_hash::{HashFamily, Salts, SelectionRule, VehicleIdentity};
///
/// let family = HashFamily::new(3);
/// let salts = Salts::generate(2, 9);
/// let v = VehicleIdentity::from_raw(7, 0xFEED);
///
/// // Reporting to the same RSU twice always yields the same index.
/// let a = v.report_index(&family, &salts, 1.into(), 256, 1 << 16, SelectionRule::PerVehicle);
/// let b = v.report_index(&family, &salts, 1.into(), 256, 1 << 16, SelectionRule::PerVehicle);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VehicleIdentity {
    id: VehicleId,
    key: PrivateKey,
}

impl VehicleIdentity {
    /// Creates an identity from its components.
    #[must_use]
    pub fn new(id: VehicleId, key: PrivateKey) -> Self {
        Self { id, key }
    }

    /// Creates an identity from raw integers (convenience for tests and
    /// examples).
    #[must_use]
    pub fn from_raw(id: u64, key: u64) -> Self {
        Self::new(VehicleId(id), PrivateKey(key))
    }

    /// Creates an identity with the given id and a random private key.
    pub fn with_random_key<R: RngExt + ?Sized>(id: VehicleId, rng: &mut R) -> Self {
        Self::new(id, PrivateKey(rng.random()))
    }

    /// The vehicle's identifier.
    #[must_use]
    pub fn id(&self) -> VehicleId {
        self.id
    }

    /// The masked value `v ⊕ K_v ⊕ salt` fed to `H`.
    fn masked(&self, salt: u64) -> u64 {
        self.id.0 ^ self.key.0 ^ salt
    }

    /// The vehicle's logical bit array `LB_v`: `s` positions inside the
    /// largest physical array `B_o` of size `m_o` (paper §IV-B):
    /// `H(v ⊕ K_v ⊕ X[i]) mod m_o` for `i = 0..s`.
    ///
    /// Positions may collide; the logical array is a multiset of physical
    /// positions, exactly as in the paper.
    #[must_use]
    pub fn logical_positions(&self, family: &HashFamily, salts: &Salts, m_o: usize) -> Vec<usize> {
        salts
            .iter()
            .map(|&x| family.hash_mod(self.masked(x), m_o))
            .collect()
    }

    /// The salt index this vehicle uses at RSU `rsu` under `rule`.
    #[must_use]
    pub fn salt_index(
        &self,
        family: &HashFamily,
        salts: &Salts,
        rsu: RsuId,
        rule: SelectionRule,
    ) -> usize {
        let s = salts.len();
        match rule {
            SelectionRule::PerVehicle => {
                // Mix the vehicle's secret with the RSU id so selections are
                // independent across vehicles but stable per (vehicle, RSU).
                family.hash_mod(self.masked(family.hash(rsu.0)), s)
            }
            SelectionRule::PerRsuLiteral => family.hash_mod(rsu.0, s),
        }
    }

    /// The index the vehicle reports to RSU `rsu` whose bit array has
    /// `m_x` bits (paper Eq. 2): `b_x = H(v ⊕ K_v ⊕ X[salt_index]) mod m_x`.
    ///
    /// `m_o` is the size of the largest physical array; the full logical
    /// position `b` lives in `[0, m_o)` and is reduced to `[0, m_x)`. For
    /// power-of-two sizes `b mod m_x` equals reducing the 64-bit hash
    /// directly, but the computation goes through `m_o` to mirror the
    /// paper's two-step description.
    ///
    /// # Panics
    ///
    /// Panics if `m_x == 0`, `m_o == 0`, or `m_o % m_x != 0` (the largest
    /// array must be a multiple of every RSU's array — guaranteed when all
    /// sizes are powers of two and `m_o` is the maximum).
    #[must_use]
    pub fn report_index(
        &self,
        family: &HashFamily,
        salts: &Salts,
        rsu: RsuId,
        m_x: usize,
        m_o: usize,
        rule: SelectionRule,
    ) -> usize {
        assert!(m_x > 0 && m_o > 0, "array sizes must be positive");
        assert!(
            m_o.is_multiple_of(m_x),
            "largest array size {m_o} must be a multiple of RSU array size {m_x}"
        );
        let i = self.salt_index(family, salts, rsu, rule);
        let b = family.hash_mod(self.masked(salts.get(i)), m_o);
        b % m_x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (HashFamily, Salts) {
        (HashFamily::new(77), Salts::generate(5, 21))
    }

    #[test]
    fn display_formats() {
        assert_eq!(VehicleId(3).to_string(), "v3");
        assert_eq!(RsuId(9).to_string(), "R9");
    }

    #[test]
    fn logical_positions_have_s_entries_in_range() {
        let (family, salts) = setup();
        let v = VehicleIdentity::from_raw(1, 2);
        let m_o = 1 << 16;
        let lb = v.logical_positions(&family, &salts, m_o);
        assert_eq!(lb.len(), 5);
        assert!(lb.iter().all(|&p| p < m_o));
    }

    #[test]
    fn different_keys_give_different_logical_arrays() {
        let (family, salts) = setup();
        let a = VehicleIdentity::from_raw(1, 2).logical_positions(&family, &salts, 1 << 20);
        let b = VehicleIdentity::from_raw(1, 3).logical_positions(&family, &salts, 1 << 20);
        assert_ne!(a, b);
    }

    #[test]
    fn report_index_is_one_of_the_logical_positions_reduced() {
        let (family, salts) = setup();
        let v = VehicleIdentity::from_raw(42, 43);
        let m_o = 1 << 16;
        let m_x = 1 << 10;
        let lb = v.logical_positions(&family, &salts, m_o);
        let idx = v.report_index(
            &family,
            &salts,
            RsuId(5),
            m_x,
            m_o,
            SelectionRule::PerVehicle,
        );
        assert!(
            lb.iter().any(|&b| b % m_x == idx),
            "reported index must come from the logical bit array"
        );
    }

    #[test]
    fn report_is_stable_per_vehicle_rsu_pair() {
        let (family, salts) = setup();
        let v = VehicleIdentity::from_raw(10, 20);
        for rule in [SelectionRule::PerVehicle, SelectionRule::PerRsuLiteral] {
            let a = v.report_index(&family, &salts, RsuId(1), 512, 1 << 14, rule);
            let b = v.report_index(&family, &salts, RsuId(1), 512, 1 << 14, rule);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn per_vehicle_same_bit_probability_is_about_one_over_s() {
        // Paper Eq. 37's model: a vehicle keeps the same logical slot at
        // two RSUs with probability 1/s, independently across vehicles.
        let (family, salts) = setup();
        let s = salts.len() as f64;
        let n = 20_000;
        let same = (0..n)
            .filter(|&i| {
                let v = VehicleIdentity::from_raw(i, i.wrapping_mul(0x9E37));
                let a = v.salt_index(&family, &salts, RsuId(1), SelectionRule::PerVehicle);
                let b = v.salt_index(&family, &salts, RsuId(2), SelectionRule::PerVehicle);
                a == b
            })
            .count() as f64;
        let frac = same / n as f64;
        assert!(
            (frac - 1.0 / s).abs() < 0.02,
            "same-slot fraction {frac} should be near {}",
            1.0 / s
        );
    }

    #[test]
    fn per_rsu_literal_is_all_or_nothing() {
        // Under the literal rule the salt index is vehicle-independent.
        let (family, salts) = setup();
        let idx0 = VehicleIdentity::from_raw(0, 0).salt_index(
            &family,
            &salts,
            RsuId(7),
            SelectionRule::PerRsuLiteral,
        );
        for i in 1..100 {
            let v = VehicleIdentity::from_raw(i, i * 31);
            assert_eq!(
                v.salt_index(&family, &salts, RsuId(7), SelectionRule::PerRsuLiteral),
                idx0
            );
        }
    }

    #[test]
    fn report_indices_are_uniform_across_vehicles() {
        let (family, salts) = setup();
        let m_x = 16usize;
        let m_o = 1 << 12;
        let n = 16_000u64;
        let mut counts = vec![0u32; m_x];
        for i in 0..n {
            let v = VehicleIdentity::from_raw(i, splits(i));
            counts[v.report_index(
                &family,
                &salts,
                RsuId(3),
                m_x,
                m_o,
                SelectionRule::PerVehicle,
            )] += 1;
        }
        let expected = n as f64 / m_x as f64;
        for &c in &counts {
            assert!((f64::from(c) - expected).abs() / expected < 0.15);
        }
    }

    fn splits(x: u64) -> u64 {
        crate::splitmix64(x)
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn report_index_requires_divisible_sizes() {
        let (family, salts) = setup();
        let v = VehicleIdentity::from_raw(1, 1);
        let _ = v.report_index(&family, &salts, RsuId(1), 12, 64, SelectionRule::PerVehicle);
    }

    #[test]
    fn with_random_key_uses_rng() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(4);
        let a = VehicleIdentity::with_random_key(VehicleId(1), &mut rng);
        let b = VehicleIdentity::with_random_key(VehicleId(1), &mut rng);
        assert_ne!(a, b, "fresh keys should differ");
        assert_eq!(a.id(), VehicleId(1));
    }
}
