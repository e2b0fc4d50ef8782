use std::fmt;

use crate::BitArrayError;

/// A validated power-of-two bit-array length (the paper's `m = 2^k`).
///
/// The variable-length scheme requires every RSU's array length to be a
/// power of two so that for any two lengths the larger is an exact multiple
/// of the smaller, making the unfolding operation (paper Eq. 3) well
/// defined. `Pow2` makes that invariant static: APIs that require
/// power-of-two lengths take a `Pow2` instead of a raw `usize`.
///
/// # Example
///
/// ```
/// use vcps_bitarray::Pow2;
///
/// let m = Pow2::new(1024).unwrap();
/// assert_eq!(m.get(), 1024);
/// assert_eq!(m.log2(), 10);
///
/// // Paper §IV-B: m_x = 2^ceil(log2(n̄_x × f̄)).
/// let m_x = Pow2::ceil_from(451_000.0 * 3.0).unwrap();
/// assert_eq!(m_x.get(), 2_097_152); // 2^21, smallest power of two ≥ 1,353,000
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pow2(usize);

impl Pow2 {
    /// The smallest allowed length, `2^0 = 1`.
    pub const ONE: Pow2 = Pow2(1);

    /// Validates that `value` is a power of two.
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::NotPowerOfTwo`] otherwise (zero included).
    pub fn new(value: usize) -> Result<Self, BitArrayError> {
        if value.is_power_of_two() {
            Ok(Self(value))
        } else {
            Err(BitArrayError::NotPowerOfTwo { value })
        }
    }

    /// Constructs `2^k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is large enough to overflow `usize` (k ≥ 64 on
    /// 64-bit targets).
    #[must_use]
    pub fn from_log2(k: u32) -> Self {
        Self(1usize.checked_shl(k).expect("2^k must fit in usize"))
    }

    /// The smallest power of two that is `>= target` — the paper's
    /// `2^ceil(log2(target))` sizing rule (§IV-B) applied to
    /// `target = n̄_x × f̄`.
    ///
    /// Non-finite or non-positive targets round up to `1`.
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::NotPowerOfTwo`] if the target exceeds the
    /// largest representable power of two.
    pub fn ceil_from(target: f64) -> Result<Self, BitArrayError> {
        if !target.is_finite() || target <= 1.0 {
            return Ok(Self::ONE);
        }
        const MAX_POW2: f64 = (1u64 << 62) as f64;
        if target > MAX_POW2 {
            return Err(BitArrayError::NotPowerOfTwo { value: usize::MAX });
        }
        let ceil = target.ceil() as usize;
        Ok(Self(ceil.next_power_of_two()))
    }

    /// The underlying length.
    #[must_use]
    pub fn get(self) -> usize {
        self.0
    }

    /// The exponent `k` with `self == 2^k`.
    #[must_use]
    pub fn log2(self) -> u32 {
        self.0.trailing_zeros()
    }

    /// The maximum of two power-of-two lengths (the paper's `m_y`).
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The minimum of two power-of-two lengths (the paper's `m_x`).
    #[must_use]
    pub fn min(self, other: Self) -> Self {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Exact ratio `larger / self`; `None` if `larger < self`.
    ///
    /// For powers of two the division is always exact — the property the
    /// paper exploits to make unfolding well defined.
    #[must_use]
    pub fn ratio_to(self, larger: Self) -> Option<usize> {
        if larger.0 >= self.0 {
            Some(larger.0 / self.0)
        } else {
            None
        }
    }
}

impl fmt::Display for Pow2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Pow2> for usize {
    fn from(p: Pow2) -> usize {
        p.0
    }
}

impl TryFrom<usize> for Pow2 {
    type Error = BitArrayError;

    fn try_from(value: usize) -> Result<Self, Self::Error> {
        Self::new(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_powers_of_two() {
        for k in 0..20u32 {
            let v = 1usize << k;
            let p = Pow2::new(v).unwrap();
            assert_eq!(p.get(), v);
            assert_eq!(p.log2(), k);
        }
    }

    #[test]
    fn new_rejects_non_powers() {
        for v in [0usize, 3, 5, 6, 7, 9, 100, 1000] {
            assert_eq!(Pow2::new(v), Err(BitArrayError::NotPowerOfTwo { value: v }));
        }
    }

    #[test]
    fn from_log2_matches_shift() {
        assert_eq!(Pow2::from_log2(0).get(), 1);
        assert_eq!(Pow2::from_log2(13).get(), 8192);
    }

    #[test]
    fn ceil_from_implements_paper_sizing_rule() {
        // m_x = 2^ceil(log2(n̄_x × f̄)) — smallest power of two ≥ n̄_x × f̄.
        assert_eq!(Pow2::ceil_from(1.0).unwrap().get(), 1);
        assert_eq!(Pow2::ceil_from(2.0).unwrap().get(), 2);
        assert_eq!(Pow2::ceil_from(3.0).unwrap().get(), 4);
        assert_eq!(Pow2::ceil_from(1024.0).unwrap().get(), 1024);
        assert_eq!(Pow2::ceil_from(1025.0).unwrap().get(), 2048);
        // Paper example scale: n̄ = 451k, f̄ = 3.
        assert_eq!(Pow2::ceil_from(451_000.0 * 3.0).unwrap().get(), 1 << 21);
    }

    #[test]
    fn ceil_from_degenerate_inputs_round_to_one() {
        assert_eq!(Pow2::ceil_from(0.0).unwrap(), Pow2::ONE);
        assert_eq!(Pow2::ceil_from(-5.0).unwrap(), Pow2::ONE);
        assert_eq!(Pow2::ceil_from(f64::NAN).unwrap(), Pow2::ONE);
        assert_eq!(Pow2::ceil_from(0.3).unwrap(), Pow2::ONE);
    }

    #[test]
    fn ceil_from_rejects_overflow() {
        assert!(Pow2::ceil_from(1e30).is_err());
    }

    #[test]
    fn ratio_is_exact_for_powers_of_two() {
        let small = Pow2::new(256).unwrap();
        let large = Pow2::new(4096).unwrap();
        assert_eq!(small.ratio_to(large), Some(16));
        assert_eq!(large.ratio_to(small), None);
        assert_eq!(small.ratio_to(small), Some(1));
    }

    #[test]
    fn min_max_order_lengths() {
        let a = Pow2::new(64).unwrap();
        let b = Pow2::new(1024).unwrap();
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(Pow2::new(512).unwrap().to_string(), "512");
    }

    #[test]
    fn conversions() {
        let p = Pow2::new(128).unwrap();
        let raw: usize = p.into();
        assert_eq!(raw, 128);
        assert_eq!(Pow2::try_from(128usize).unwrap(), p);
        assert!(Pow2::try_from(129usize).is_err());
    }
}
