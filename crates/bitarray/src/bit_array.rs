use std::fmt;

use crate::BitArrayError;

const WORD_BITS: usize = 64;

/// A fixed-length bit vector backed by `u64` words.
///
/// `BitArray` is the physical bit array `B_x` that each RSU maintains
/// (paper §IV-B): all bits start at zero, vehicles set individual bits, and
/// the central server counts zeros at the end of a measurement period.
///
/// The length is fixed at construction. Lengths do **not** have to be powers
/// of two at this level — the baseline fixed-length scheme of \[9\] permits
/// arbitrary `m` — but the unfolding operation requires the target to be a
/// multiple of the source length, which power-of-two lengths guarantee.
///
/// # Example
///
/// ```
/// use vcps_bitarray::BitArray;
///
/// let mut b = BitArray::new(128);
/// b.set(3);
/// b.set(127);
/// assert_eq!(b.count_ones(), 2);
/// assert_eq!(b.count_zeros(), 126);
/// assert!((b.zero_fraction() - 126.0 / 128.0).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitArray {
    words: Vec<u64>,
    len: usize,
    /// Cached number of set bits, maintained by every mutating method so
    /// `count_ones`/`count_zeros`/`zero_fraction` are O(1) instead of a
    /// full popcount scan (the decoder queries the zero fraction per
    /// estimate, Eq. 1/2).
    ones: usize,
}

impl BitArray {
    /// Creates an all-zero bit array with `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`. Use [`BitArray::try_new`] for a fallible
    /// variant.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self::try_new(len).expect("bit array length must be at least 1")
    }

    /// Creates an all-zero bit array with `len` bits.
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::EmptyArray`] if `len == 0`.
    pub fn try_new(len: usize) -> Result<Self, BitArrayError> {
        if len == 0 {
            return Err(BitArrayError::EmptyArray);
        }
        let words = vec![0u64; len.div_ceil(WORD_BITS)];
        Ok(Self {
            words,
            len,
            ones: 0,
        })
    }

    /// Creates a bit array of length `len` with the given bits set.
    ///
    /// Indices may repeat; repeated sets are idempotent (exactly the effect
    /// of multiple vehicles reporting the same index).
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::EmptyArray`] if `len == 0`, or
    /// [`BitArrayError::IndexOutOfBounds`] if any index is `>= len`.
    pub fn from_indices<I>(len: usize, indices: I) -> Result<Self, BitArrayError>
    where
        I: IntoIterator<Item = usize>,
    {
        let mut array = Self::try_new(len)?;
        for index in indices {
            array.try_set(index)?;
        }
        Ok(array)
    }

    /// Creates a bit array from a slice of booleans (`true` = set bit).
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::EmptyArray`] if `bits` is empty.
    pub fn from_bools(bits: &[bool]) -> Result<Self, BitArrayError> {
        let mut array = Self::try_new(bits.len())?;
        for (i, &bit) in bits.iter().enumerate() {
            if bit {
                array.set(i);
            }
        }
        Ok(array)
    }

    /// The number of bits in the array (the paper's `m`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: a `BitArray` holds at least one bit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sets the bit at `index` to 1.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn set(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of bounds for length {}",
            self.len
        );
        let word = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        self.ones += usize::from(*word & mask == 0);
        *word |= mask;
    }

    /// Sets the bit at `index` to 1, reporting out-of-bounds indices.
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::IndexOutOfBounds`] if `index >= self.len()`.
    pub fn try_set(&mut self, index: usize) -> Result<(), BitArrayError> {
        if index >= self.len {
            return Err(BitArrayError::IndexOutOfBounds {
                index,
                len: self.len,
            });
        }
        self.set(index);
        Ok(())
    }

    /// Clears the bit at `index` (sets it to 0).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn clear(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of bounds for length {}",
            self.len
        );
        let word = &mut self.words[index / WORD_BITS];
        let mask = 1u64 << (index % WORD_BITS);
        self.ones -= usize::from(*word & mask != 0);
        *word &= !mask;
    }

    /// Resets every bit to zero (start of a new measurement period).
    pub fn reset(&mut self) {
        for word in &mut self.words {
            *word = 0;
        }
        self.ones = 0;
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of bounds for length {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Number of bits set to 1. O(1): served from the maintained cache.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        debug_assert_eq!(
            self.ones,
            self.recount_ones(),
            "cached ones-count out of sync with backing words"
        );
        self.ones
    }

    /// Full popcount over the backing words, bypassing the cache.
    fn recount_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of bits set to 0 (the paper's `U`). O(1).
    #[must_use]
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Fraction of zero bits (the paper's `V = U / m`).
    #[must_use]
    pub fn zero_fraction(&self) -> f64 {
        self.count_zeros() as f64 / self.len as f64
    }

    /// Iterator over the indices of set bits, in increasing order.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            array: self,
            word_index: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Unfolds (duplicates) the array to `target_len` bits (paper Eq. 3):
    /// `B^u[i] = B[i mod m]`.
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::NotAMultiple`] unless `target_len` is a
    /// positive multiple of `self.len()`. Power-of-two lengths (paper
    /// §IV-A) always satisfy this for the larger of two arrays.
    pub fn unfold(&self, target_len: usize) -> Result<Self, BitArrayError> {
        if target_len == 0 || !target_len.is_multiple_of(self.len) {
            return Err(BitArrayError::NotAMultiple {
                source: self.len,
                target: target_len,
            });
        }
        let copies = target_len / self.len;
        if copies == 1 {
            return Ok(self.clone());
        }
        let mut out = Self::try_new(target_len)?;
        if self.len.is_multiple_of(WORD_BITS) {
            // Word-aligned fast path: whole-word copies.
            let src_words = self.words.len();
            for c in 0..copies {
                out.words[c * src_words..(c + 1) * src_words].copy_from_slice(&self.words);
            }
            out.ones = copies * self.ones;
        } else {
            for c in 0..copies {
                let base = c * self.len;
                for i in self.ones() {
                    out.set(base + i);
                }
            }
        }
        Ok(out)
    }

    /// Bitwise OR of two equal-length arrays (paper Eq. 4).
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::LengthMismatch`] if the lengths differ.
    pub fn or(&self, other: &Self) -> Result<Self, BitArrayError> {
        let mut out = self.clone();
        out.or_assign(other)?;
        Ok(out)
    }

    /// In-place bitwise OR with another equal-length array.
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::LengthMismatch`] if the lengths differ.
    pub fn or_assign(&mut self, other: &Self) -> Result<(), BitArrayError> {
        if self.len != other.len {
            return Err(BitArrayError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        let mut ones = 0;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
            ones += w.count_ones() as usize;
        }
        self.ones = ones;
        Ok(())
    }

    /// Bitwise AND of two equal-length arrays.
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::LengthMismatch`] if the lengths differ.
    pub fn and(&self, other: &Self) -> Result<Self, BitArrayError> {
        if self.len != other.len {
            return Err(BitArrayError::LengthMismatch {
                left: self.len,
                right: other.len,
            });
        }
        let mut out = self.clone();
        let mut ones = 0;
        for (w, o) in out.words.iter_mut().zip(&other.words) {
            *w &= o;
            ones += w.count_ones() as usize;
        }
        out.ones = ones;
        Ok(out)
    }

    /// The backing words, least-significant bit first within each word.
    ///
    /// Trailing bits beyond `len()` are always zero.
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Reconstructs an array from backing words produced by
    /// [`BitArray::as_words`].
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::EmptyArray`] if `len == 0` or
    /// [`BitArrayError::LengthMismatch`] if `words` has the wrong length
    /// for `len` bits.
    pub fn from_words(words: Vec<u64>, len: usize) -> Result<Self, BitArrayError> {
        if len == 0 {
            return Err(BitArrayError::EmptyArray);
        }
        let expected = len.div_ceil(WORD_BITS);
        if words.len() != expected {
            return Err(BitArrayError::LengthMismatch {
                left: words.len(),
                right: expected,
            });
        }
        let mut array = Self {
            words,
            len,
            ones: 0,
        };
        array.mask_tail();
        array.ones = array.recount_ones();
        Ok(array)
    }

    /// Serializes the array to a self-describing little-endian byte
    /// checkpoint: 8-byte bit length followed by the backing words.
    ///
    /// This is the persistence format RSU crash/recovery checkpoints use
    /// (see `vcps-sim`'s fault model): compact, versionless, and
    /// round-trippable through [`BitArray::from_bytes`].
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 * self.words.len());
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for &w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Reconstructs an array from a [`BitArray::to_bytes`] checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::EmptyArray`] for a header claiming zero
    /// bits or a buffer too short to hold one, and
    /// [`BitArrayError::LengthMismatch`] when the payload length does not
    /// match the claimed bit count (truncated or padded checkpoints are
    /// rejected, never partially applied).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, BitArrayError> {
        if bytes.len() < 8 {
            return Err(BitArrayError::EmptyArray);
        }
        let (header, payload) = bytes.split_at(8);
        let len = u64::from_le_bytes(header.try_into().expect("8-byte header")) as usize;
        if len == 0 {
            return Err(BitArrayError::EmptyArray);
        }
        let expected = len.div_ceil(WORD_BITS);
        if payload.len() != expected * 8 {
            return Err(BitArrayError::LengthMismatch {
                left: payload.len() / 8,
                right: expected,
            });
        }
        let words: Vec<u64> = payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        Self::from_words(words, len)
    }

    /// Zeroes any bits beyond `len` in the last word, preserving the
    /// invariant relied upon by `count_ones`.
    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

impl fmt::Debug for BitArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BitArray {{ len: {}, ones: {} }}",
            self.len,
            self.count_ones()
        )
    }
}

impl fmt::Binary for BitArray {
    /// Renders the array as a bit string, index 0 leftmost (matching the
    /// paper's Fig. 1 illustrations).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

/// Iterator over set-bit indices, produced by [`BitArray::ones`].
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    array: &'a BitArray,
    word_index: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_index * WORD_BITS + bit);
            }
            self.word_index += 1;
            if self.word_index >= self.array.words.len() {
                return None;
            }
            self.current = self.array.words[self.word_index];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_zero() {
        let b = BitArray::new(100);
        assert_eq!(b.len(), 100);
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.count_zeros(), 100);
        assert_eq!(b.zero_fraction(), 1.0);
    }

    #[test]
    fn try_new_rejects_zero_length() {
        assert_eq!(BitArray::try_new(0), Err(BitArrayError::EmptyArray));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn new_panics_on_zero_length() {
        let _ = BitArray::new(0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut b = BitArray::new(130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 8);
    }

    #[test]
    fn set_is_idempotent() {
        let mut b = BitArray::new(16);
        b.set(5);
        b.set(5);
        b.set(5);
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn clear_unsets_bit() {
        let mut b = BitArray::new(70);
        b.set(69);
        b.clear(69);
        assert!(!b.get(69));
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut b = BitArray::from_indices(64, [0, 10, 63]).unwrap();
        b.reset();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut b = BitArray::new(8);
        b.set(8);
    }

    #[test]
    fn try_set_out_of_bounds_errors() {
        let mut b = BitArray::new(8);
        assert_eq!(
            b.try_set(8),
            Err(BitArrayError::IndexOutOfBounds { index: 8, len: 8 })
        );
    }

    #[test]
    fn from_indices_sets_exactly_those_bits() {
        let b = BitArray::from_indices(32, [3, 3, 7, 31]).unwrap();
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![3, 7, 31]);
    }

    #[test]
    fn from_bools_roundtrip() {
        let bits = [true, false, true, true, false];
        let b = BitArray::from_bools(&bits).unwrap();
        for (i, &bit) in bits.iter().enumerate() {
            assert_eq!(b.get(i), bit);
        }
        assert!(BitArray::from_bools(&[]).is_err());
    }

    #[test]
    fn ones_iterates_in_order_across_words() {
        let b = BitArray::from_indices(200, [199, 0, 64, 128, 63]).unwrap();
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![0, 63, 64, 128, 199]);
    }

    #[test]
    fn unfold_duplicates_content_eq3() {
        // Paper Eq. 3: B^u[i] = B[i mod m] for all i in [0, m_y).
        let b = BitArray::from_indices(8, [1, 6]).unwrap();
        let u = b.unfold(32).unwrap();
        assert_eq!(u.len(), 32);
        for i in 0..32 {
            assert_eq!(u.get(i), b.get(i % 8), "mismatch at {i}");
        }
        assert_eq!(u.count_ones(), 4 * b.count_ones());
    }

    #[test]
    fn unfold_same_length_is_identity() {
        let b = BitArray::from_indices(16, [0, 15]).unwrap();
        assert_eq!(b.unfold(16).unwrap(), b);
    }

    #[test]
    fn unfold_word_aligned_fast_path() {
        let b = BitArray::from_indices(64, [0, 13, 63]).unwrap();
        let u = b.unfold(256).unwrap();
        for i in 0..256 {
            assert_eq!(u.get(i), b.get(i % 64));
        }
    }

    #[test]
    fn unfold_rejects_non_multiple() {
        let b = BitArray::new(8);
        assert!(matches!(
            b.unfold(12),
            Err(BitArrayError::NotAMultiple {
                source: 8,
                target: 12
            })
        ));
        assert!(b.unfold(0).is_err());
    }

    #[test]
    fn unfold_preserves_zero_fraction() {
        // The paper notes the zero fraction of B_x^u equals that of B_x.
        let b = BitArray::from_indices(16, [2, 3, 9]).unwrap();
        let u = b.unfold(128).unwrap();
        assert!((b.zero_fraction() - u.zero_fraction()).abs() < 1e-15);
    }

    #[test]
    fn or_combines_bits_eq4() {
        let a = BitArray::from_indices(16, [1, 2]).unwrap();
        let b = BitArray::from_indices(16, [2, 3]).unwrap();
        let c = a.or(&b).unwrap();
        assert_eq!(c.ones().collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn or_rejects_length_mismatch() {
        let a = BitArray::new(8);
        let b = BitArray::new(16);
        assert!(matches!(
            a.or(&b),
            Err(BitArrayError::LengthMismatch { left: 8, right: 16 })
        ));
    }

    #[test]
    fn and_intersects_bits() {
        let a = BitArray::from_indices(16, [1, 2, 5]).unwrap();
        let b = BitArray::from_indices(16, [2, 5, 9]).unwrap();
        let c = a.and(&b).unwrap();
        assert_eq!(c.ones().collect::<Vec<_>>(), vec![2, 5]);
        assert!(a.and(&BitArray::new(8)).is_err());
    }

    #[test]
    fn words_roundtrip() {
        let b = BitArray::from_indices(70, [0, 69]).unwrap();
        let restored = BitArray::from_words(b.as_words().to_vec(), 70).unwrap();
        assert_eq!(restored, b);
    }

    #[test]
    fn from_words_masks_tail_bits() {
        // Junk beyond `len` must not corrupt counts.
        let restored = BitArray::from_words(vec![u64::MAX], 10).unwrap();
        assert_eq!(restored.count_ones(), 10);
    }

    #[test]
    fn from_words_validates() {
        assert!(BitArray::from_words(vec![], 0).is_err());
        assert!(BitArray::from_words(vec![0, 0], 64).is_err());
        assert!(BitArray::from_words(vec![0], 65).is_err());
    }

    #[test]
    fn binary_format_matches_fig1_style() {
        let b = BitArray::from_indices(8, [1, 6]).unwrap();
        assert_eq!(format!("{b:b}"), "01000010");
    }

    #[test]
    fn debug_is_nonempty() {
        let b = BitArray::new(4);
        let s = format!("{b:?}");
        assert!(s.contains("len: 4"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BitArray>();
    }

    #[test]
    fn byte_checkpoint_roundtrips() {
        for len in [2usize, 63, 64, 65, 100, 1 << 12] {
            let b = BitArray::from_indices(len, [0, len / 2, len - 1]).unwrap();
            let bytes = b.to_bytes();
            assert_eq!(bytes.len(), 8 + len.div_ceil(64) * 8);
            assert_eq!(BitArray::from_bytes(&bytes).unwrap(), b, "len {len}");
        }
    }

    #[test]
    fn byte_checkpoint_rejects_corruption() {
        let b = BitArray::from_indices(100, [7, 42]).unwrap();
        let bytes = b.to_bytes();
        // Truncated payload, truncated header, trailing bytes, zero-length claim.
        assert!(BitArray::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(BitArray::from_bytes(&bytes[..4]).is_err());
        let mut padded = bytes.clone();
        padded.extend_from_slice(&[0u8; 8]);
        assert!(BitArray::from_bytes(&padded).is_err());
        let mut zero_len = bytes;
        zero_len[..8].copy_from_slice(&0u64.to_le_bytes());
        assert!(BitArray::from_bytes(&zero_len).is_err());
    }
}
