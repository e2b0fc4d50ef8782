use vcps_bitarray::BitArray;
use vcps_hash::RsuId;

use crate::CoreError;

/// One RSU's measurement state for a period: the counter `n_x` and the bit
/// array `B_x` (paper §IV-B).
///
/// The sketch is deliberately dumb: it accepts *already-encoded* bit
/// indices (what a vehicle transmits) and counts passages. All hashing
/// happens on the vehicle (`vcps-hash`), all decoding on the server
/// ([`crate::estimator`]) — mirroring who computes what in the real
/// system.
///
/// # Example
///
/// ```
/// use vcps_core::RsuSketch;
/// use vcps_hash::RsuId;
///
/// # fn main() -> Result<(), vcps_core::CoreError> {
/// let mut sketch = RsuSketch::new(RsuId(4), 1024)?;
/// sketch.record(17)?;
/// sketch.record(17)?; // two vehicles may report the same index
/// assert_eq!(sketch.count(), 2);
/// assert_eq!(sketch.bits().count_ones(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsuSketch {
    id: RsuId,
    bits: BitArray,
    count: u64,
}

impl RsuSketch {
    /// Creates an empty sketch with an `m`-bit array.
    ///
    /// `m` is *not* required to be a power of two here: the fixed-length
    /// baseline permits arbitrary sizes. The variable-length scheme's
    /// sizing rule ([`crate::sizing`]) always produces powers of two.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `m < 2` (the paper's
    /// derivation requires `m > 1`).
    pub fn new(id: RsuId, m: usize) -> Result<Self, CoreError> {
        if m < 2 {
            return Err(CoreError::InvalidConfig {
                parameter: "m",
                reason: format!("bit array size must be at least 2, got {m}"),
            });
        }
        Ok(Self {
            id,
            bits: BitArray::new(m),
            count: 0,
        })
    }

    /// Reassembles a sketch from an uploaded bit array and counter — the
    /// server-side constructor (RSUs upload `(RID, n_x, B_x)` at period
    /// end, paper §IV-C).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the array has fewer than 2
    /// bits.
    pub fn from_parts(id: RsuId, bits: BitArray, count: u64) -> Result<Self, CoreError> {
        if bits.len() < 2 {
            return Err(CoreError::InvalidConfig {
                parameter: "m",
                reason: format!("bit array size must be at least 2, got {}", bits.len()),
            });
        }
        Ok(Self { id, bits, count })
    }

    /// The RSU's identifier (broadcast in every query).
    #[must_use]
    pub fn id(&self) -> RsuId {
        self.id
    }

    /// The array size `m_x` (broadcast in every query so vehicles can
    /// reduce their logical position).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Always `false`: the array has at least 2 bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The passage counter `n_x`.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The bit array `B_x`.
    #[must_use]
    pub fn bits(&self) -> &BitArray {
        &self.bits
    }

    /// Records one vehicle passage (paper Eqs. 1–2): increments `n_x` and
    /// sets bit `index`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BitArray`] if `index >= self.len()` — an
    /// out-of-protocol report (a malformed or malicious vehicle).
    pub fn record(&mut self, index: usize) -> Result<(), CoreError> {
        self.bits.try_set(index)?;
        self.count += 1;
        Ok(())
    }

    /// Number of zero bits `U_x`.
    #[must_use]
    pub fn zero_count(&self) -> usize {
        self.bits.count_zeros()
    }

    /// Fraction of zero bits `V_x = U_x / m_x`.
    #[must_use]
    pub fn zero_fraction(&self) -> f64 {
        self.bits.zero_fraction()
    }

    /// The observed (per-period) load factor `m_x / n_x`; `inf` before any
    /// passage.
    #[must_use]
    pub fn load_factor(&self) -> f64 {
        if self.count == 0 {
            f64::INFINITY
        } else {
            self.len() as f64 / self.count as f64
        }
    }

    /// Merges another period's sketch of the **same RSU and size** into
    /// this one: bits are OR-ed, counters summed.
    ///
    /// Because a vehicle's report index is deterministic per (vehicle,
    /// RSU), the merged bit array equals the array of the *union* of the
    /// two periods' vehicle sets — so pairwise estimates over merged
    /// sketches measure multi-period point-to-point volume. The counter,
    /// however, counts *passages*: a vehicle present in both periods is
    /// counted twice, which biases the merged `n_x` upward for
    /// heavily-repeating traffic. Use short merge windows or accept the
    /// documented bias.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DuplicateRsu`]-style validation failures:
    /// [`CoreError::InvalidConfig`] if ids or sizes differ.
    pub fn merge(&mut self, other: &RsuSketch) -> Result<(), CoreError> {
        if self.id != other.id {
            return Err(CoreError::InvalidConfig {
                parameter: "id",
                reason: format!("cannot merge {} into {}", other.id, self.id),
            });
        }
        if self.bits.len() != other.bits.len() {
            return Err(CoreError::InvalidConfig {
                parameter: "m",
                reason: format!(
                    "cannot merge arrays of {} and {} bits",
                    other.bits.len(),
                    self.bits.len()
                ),
            });
        }
        self.bits.or_assign(&other.bits)?;
        self.count += other.count;
        Ok(())
    }

    /// Clears the array and counter for a new measurement period.
    pub fn reset(&mut self) {
        self.bits.reset();
        self.count = 0;
    }

    /// Replaces the bit array with a fresh one of size `m` and clears the
    /// counter — used when the server re-sizes an RSU between periods
    /// after updating its history average.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `m < 2`.
    pub fn resize(&mut self, m: usize) -> Result<(), CoreError> {
        if m < 2 {
            return Err(CoreError::InvalidConfig {
                parameter: "m",
                reason: format!("bit array size must be at least 2, got {m}"),
            });
        }
        self.bits = BitArray::new(m);
        self.count = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_starts_empty() {
        let s = RsuSketch::new(RsuId(1), 64).unwrap();
        assert_eq!(s.count(), 0);
        assert_eq!(s.zero_count(), 64);
        assert_eq!(s.len(), 64);
        assert_eq!(s.id(), RsuId(1));
        assert_eq!(s.load_factor(), f64::INFINITY);
        assert!(!s.is_empty());
    }

    #[test]
    fn new_rejects_tiny_arrays() {
        assert!(RsuSketch::new(RsuId(1), 0).is_err());
        assert!(RsuSketch::new(RsuId(1), 1).is_err());
        assert!(RsuSketch::new(RsuId(1), 2).is_ok());
    }

    #[test]
    fn record_sets_bit_and_counts() {
        let mut s = RsuSketch::new(RsuId(1), 16).unwrap();
        s.record(3).unwrap();
        s.record(3).unwrap();
        s.record(5).unwrap();
        assert_eq!(s.count(), 3);
        assert_eq!(s.bits().count_ones(), 2);
        assert_eq!(s.zero_count(), 14);
        assert!((s.zero_fraction() - 14.0 / 16.0).abs() < 1e-12);
        assert!((s.load_factor() - 16.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_report_is_rejected_and_not_counted() {
        let mut s = RsuSketch::new(RsuId(1), 16).unwrap();
        assert!(s.record(16).is_err());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = RsuSketch::new(RsuId(1), 16).unwrap();
        s.record(1).unwrap();
        s.reset();
        assert_eq!(s.count(), 0);
        assert_eq!(s.zero_count(), 16);
    }

    #[test]
    fn resize_changes_length() {
        let mut s = RsuSketch::new(RsuId(1), 16).unwrap();
        s.record(1).unwrap();
        s.resize(64).unwrap();
        assert_eq!(s.len(), 64);
        assert_eq!(s.count(), 0);
        assert!(s.resize(1).is_err());
    }

    #[test]
    fn merge_unions_bits_and_sums_counters() {
        let mut a = RsuSketch::new(RsuId(1), 32).unwrap();
        a.record(3).unwrap();
        a.record(9).unwrap();
        let mut b = RsuSketch::new(RsuId(1), 32).unwrap();
        b.record(9).unwrap();
        b.record(20).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.count(), 4);
        assert_eq!(
            a.bits().ones().collect::<Vec<_>>(),
            vec![3, 9, 20],
            "bits are the union"
        );
    }

    #[test]
    fn merge_validates_id_and_size() {
        let mut a = RsuSketch::new(RsuId(1), 32).unwrap();
        let other_id = RsuSketch::new(RsuId(2), 32).unwrap();
        assert!(a.merge(&other_id).is_err());
        let other_size = RsuSketch::new(RsuId(1), 64).unwrap();
        assert!(a.merge(&other_size).is_err());
        assert_eq!(a.count(), 0, "failed merges leave the sketch unchanged");
    }

    #[test]
    fn non_power_of_two_sizes_are_allowed() {
        // The fixed-length baseline may use any m.
        let s = RsuSketch::new(RsuId(9), 1000).unwrap();
        assert_eq!(s.len(), 1000);
    }
}
