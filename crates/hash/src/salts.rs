use crate::SplitMix64;

/// The global salt constants `X[0..s)` (paper §IV-B).
///
/// `X` is "an integer array of randomly chosen constants to arbitrarily
/// alter the hash result". Its length `s` is the number of bits in every
/// vehicle's logical bit array — the central privacy/accuracy knob of the
/// scheme (the paper evaluates `s ∈ {2, 5, 10}`).
///
/// # Example
///
/// ```
/// use vcps_hash::Salts;
///
/// let salts = Salts::generate(5, 123);
/// assert_eq!(salts.len(), 5);
/// assert_eq!(Salts::generate(5, 123), salts); // reproducible from seed
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Salts {
    values: Vec<u64>,
}

impl Salts {
    /// Generates `s` salt constants deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `s == 0`; a vehicle needs at least one logical bit.
    /// (The paper additionally requires `s ≥ 2` for any privacy at all —
    /// that stronger constraint is enforced by scheme configuration in
    /// `vcps-core`, not here.)
    #[must_use]
    pub fn generate(s: usize, seed: u64) -> Self {
        assert!(s > 0, "the logical bit array needs at least one bit");
        let mut gen = SplitMix64::new(seed ^ 0x5A17_5A17_5A17_5A17);
        let values = (0..s).map(|_| gen.next_u64()).collect();
        Self { values }
    }

    /// Wraps explicit salt constants.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn from_values(values: Vec<u64>) -> Self {
        assert!(
            !values.is_empty(),
            "the logical bit array needs at least one bit"
        );
        Self { values }
    }

    /// The number of salts, i.e. the paper's `s`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always `false`: construction guarantees at least one salt.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The salt constant `X[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> u64 {
        self.values[i]
    }

    /// Iterator over all salt constants in index order.
    pub fn iter(&self) -> std::slice::Iter<'_, u64> {
        self.values.iter()
    }
}

impl<'a> IntoIterator for &'a Salts {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_reproducible_and_seed_sensitive() {
        assert_eq!(Salts::generate(4, 1), Salts::generate(4, 1));
        assert_ne!(Salts::generate(4, 1), Salts::generate(4, 2));
    }

    #[test]
    fn generated_salts_are_distinct() {
        let salts = Salts::generate(64, 99);
        let mut values: Vec<u64> = salts.iter().copied().collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_s_panics() {
        let _ = Salts::generate(0, 1);
    }

    #[test]
    fn from_values_and_get() {
        let salts = Salts::from_values(vec![10, 20, 30]);
        assert_eq!(salts.len(), 3);
        assert_eq!(salts.get(1), 20);
        assert_eq!(salts.iter().count(), 3);
        assert!(!salts.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn empty_values_panic() {
        let _ = Salts::from_values(vec![]);
    }

    #[test]
    fn into_iterator_by_reference() {
        let salts = Salts::from_values(vec![1, 2]);
        let collected: Vec<u64> = (&salts).into_iter().copied().collect();
        assert_eq!(collected, vec![1, 2]);
    }
}
