//! The splitmix64 mixing function and a tiny PRNG built on it.
//!
//! Splitmix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
//! generators", OOPSLA 2014) is a 64-bit finalizer with full avalanche —
//! sufficient for the uniformity assumptions the paper's analysis places
//! on `H` — and is implementable in a handful of lines, which keeps this
//! crate dependency-free.

/// Applies the splitmix64 finalizer to `x`.
///
/// This is a bijection on `u64` with strong avalanche behaviour: flipping
/// any input bit flips each output bit with probability ≈ 1/2.
///
/// # Example
///
/// ```
/// use vcps_hash::splitmix64;
///
/// // Deterministic and distinct for nearby inputs.
/// assert_ne!(splitmix64(1), splitmix64(2));
/// assert_eq!(splitmix64(42), splitmix64(42));
/// ```
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A minimal deterministic sequence generator based on [`splitmix64`].
///
/// Used to derive salt constants and simulation keys reproducibly from a
/// single seed. Not intended as a general-purpose PRNG (use `rand` for
/// that); it exists so that salt generation does not force a `rand`
/// dependency on downstream no-simulation users.
///
/// # Example
///
/// ```
/// use vcps_hash::SplitMix64;
///
/// let mut gen = SplitMix64::new(7);
/// let a = gen.next_u64();
/// let b = gen.next_u64();
/// assert_ne!(a, b);
/// assert_eq!(SplitMix64::new(7).next_u64(), a); // reproducible
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit value in the sequence.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_eq!(splitmix64(u64::MAX), splitmix64(u64::MAX));
    }

    #[test]
    fn splitmix_known_vector() {
        // Reference vector from the public-domain splitmix64.c by
        // Sebastiano Vigna: seed 0 produces 0xE220A8397B1DCDAF first.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn sequence_differs_from_pointwise_hash_composition() {
        // next_u64 advances by the golden-gamma constant, matching the
        // reference implementation.
        let mut g = SplitMix64::new(10);
        let first = g.next_u64();
        assert_eq!(first, splitmix64(10));
    }

    #[test]
    fn avalanche_is_rough_but_present() {
        // Flipping one input bit should flip roughly half the output bits.
        let mut total = 0u32;
        let trials = 64;
        for bit in 0..trials {
            let a = splitmix64(0x1234_5678);
            let b = splitmix64(0x1234_5678 ^ (1u64 << bit));
            total += (a ^ b).count_ones();
        }
        let avg = f64::from(total) / f64::from(trials);
        assert!(
            (20.0..44.0).contains(&avg),
            "average flipped bits {avg} should be near 32"
        );
    }

    #[test]
    fn low_bits_are_uniform_enough_for_modulo() {
        // The scheme reduces H modulo power-of-two array sizes, i.e. it
        // keeps low-order bits; check they are balanced.
        let mut ones = [0u32; 8];
        let n = 4096u64;
        for x in 0..n {
            let h = splitmix64(x);
            for (bit, count) in ones.iter_mut().enumerate() {
                *count += ((h >> bit) & 1) as u32;
            }
        }
        for (bit, &count) in ones.iter().enumerate() {
            let frac = f64::from(count) / n as f64;
            assert!((0.45..0.55).contains(&frac), "bit {bit} is biased: {frac}");
        }
    }
}
