use crate::splitmix64;

/// The keyed hash `H` shared by all vehicles and RSUs (paper §IV-B).
///
/// The paper only requires `H` to behave like a uniform random function
/// into `[0, m_o)`. `HashFamily` realizes `H(x) = splitmix64(x ⊕ seed′)`
/// with a per-deployment seed, so different deployments (and different
/// simulation runs) get independent hash functions while every party in
/// one deployment agrees on `H`.
///
/// # Example
///
/// ```
/// use vcps_hash::HashFamily;
///
/// let h = HashFamily::new(1);
/// assert_eq!(h.hash(99), h.hash(99));            // deterministic
/// assert_ne!(HashFamily::new(2).hash(99), h.hash(99)); // seed-dependent
/// assert!(h.hash_mod(12345, 1024) < 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashFamily {
    seed: u64,
}

impl HashFamily {
    /// Creates the hash function for a deployment from a seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // Pre-mix the seed so that seeds 0, 1, 2... yield unrelated
        // functions even for structured inputs.
        Self {
            seed: splitmix64(seed ^ 0xA076_1D64_78BD_642F),
        }
    }

    /// Full 64-bit hash of `x`.
    #[must_use]
    pub fn hash(&self, x: u64) -> u64 {
        splitmix64(x ^ self.seed)
    }

    /// Hash reduced to the range `[0, m)`.
    ///
    /// Uses a mask when `m` is a power of two (the scheme's array sizes),
    /// otherwise a modulo (fine for the baseline's arbitrary `m`; the bias
    /// is ≤ `m / 2^64`).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    #[must_use]
    pub fn hash_mod(&self, x: u64, m: usize) -> usize {
        assert!(m > 0, "modulus must be positive");
        let h = self.hash(x);
        if m.is_power_of_two() {
            (h as usize) & (m - 1)
        } else {
            (h % (m as u64)) as usize
        }
    }

    /// The deployment seed (post-mix), for diagnostics.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = HashFamily::new(5);
        let b = HashFamily::new(5);
        for x in 0..100u64 {
            assert_eq!(a.hash(x), b.hash(x));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = HashFamily::new(5);
        let b = HashFamily::new(6);
        let same = (0..100u64).filter(|&x| a.hash(x) == b.hash(x)).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn hash_mod_in_range_pow2_and_general() {
        let h = HashFamily::new(9);
        for x in 0..1000u64 {
            assert!(h.hash_mod(x, 4096) < 4096);
            assert!(h.hash_mod(x, 1000) < 1000);
            assert!(h.hash_mod(x, 1) == 0);
        }
    }

    #[test]
    #[should_panic(expected = "modulus must be positive")]
    fn hash_mod_zero_panics() {
        let _ = HashFamily::new(1).hash_mod(3, 0);
    }

    #[test]
    fn pow2_reduction_consistent_with_modulo() {
        // For power-of-two m the mask must equal the modulo, which is what
        // makes b mod m_x = (b mod m_o) mod m_x when m_x | m_o.
        let h = HashFamily::new(11);
        for x in 0..500u64 {
            assert_eq!(h.hash_mod(x, 256), (h.hash(x) % 256) as usize);
        }
    }

    #[test]
    fn nested_moduli_commute_for_pow2() {
        // b_x = b mod m_x must equal (b mod m_o) mod m_x for m_x | m_o:
        // the property that lets vehicles report b mod m_x directly.
        let h = HashFamily::new(13);
        let m_o = 1usize << 20;
        let m_x = 1usize << 12;
        for x in 0..500u64 {
            let b = h.hash_mod(x, m_o);
            assert_eq!(b % m_x, h.hash_mod(x, m_x));
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let h = HashFamily::new(17);
        let m = 16usize;
        let n = 16_000u64;
        let mut counts = vec![0u32; m];
        for x in 0..n {
            counts[h.hash_mod(x, m)] += 1;
        }
        let expected = n as f64 / m as f64;
        for (bucket, &c) in counts.iter().enumerate() {
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.15, "bucket {bucket} deviates {dev}");
        }
    }
}
