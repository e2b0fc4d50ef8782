//! Sparse encoding for lightly-filled bit arrays.
//!
//! A light-traffic RSU's end-of-period upload is almost entirely zeros:
//! with load factor `f̄ ≈ 3`, at most ~1/3 of bits are ones. For very
//! light RSUs (or short periods) shipping the raw `m`-bit array wastes
//! uplink; encoding the set-bit indices is smaller whenever fewer than
//! `m/64` bits are set (one 8-byte index per one vs one word per 64 bits) — i.e. under-filled arrays: quiet periods at RSUs provisioned for heavy history. [`SparseBits`] picks the
//! cheaper representation automatically and round-trips losslessly.
//!
//! This is a systems extension over the paper (which uploads raw
//! arrays); the measurement math is unaffected because decoding
//! reproduces the exact array.

use crate::kernels::{sparse_is_profitable, validate_sparse_indices};
use crate::{BitArray, BitArrayError};

/// A size-adaptive encoding of a [`BitArray`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseBits {
    /// Dense form: the raw backing words (cheap when many bits are set).
    Dense {
        /// Bit length of the array.
        len: u64,
        /// Backing words, least-significant bit first.
        words: Vec<u64>,
    },
    /// Sparse form: the sorted indices of set bits (cheap when few are).
    Sparse {
        /// Bit length of the array.
        len: u64,
        /// Strictly increasing set-bit indices.
        ones: Vec<u64>,
    },
}

impl SparseBits {
    /// Encodes an array, choosing whichever representation is smaller in
    /// serialized bytes (8 bytes per word vs 8 bytes per set index); the
    /// break-even is [`crate::SPARSE_DENSIFY_BITS_PER_ONE`].
    #[must_use]
    pub fn encode(bits: &BitArray) -> Self {
        let words = bits.as_words();
        if sparse_is_profitable(bits.len(), bits.count_ones()) {
            SparseBits::Sparse {
                len: bits.len() as u64,
                ones: bits.ones().map(|i| i as u64).collect(),
            }
        } else {
            SparseBits::Dense {
                len: bits.len() as u64,
                words: words.to_vec(),
            }
        }
    }

    /// Decodes back to the exact original array.
    ///
    /// # Errors
    ///
    /// Returns a [`BitArrayError`] if the payload is inconsistent
    /// (wrong word count, zero length, or a sparse index list that is
    /// out of range, unsorted, or duplicated — see
    /// [`BitArrayError::NotStrictlyIncreasing`]).
    pub fn decode(&self) -> Result<BitArray, BitArrayError> {
        match self {
            SparseBits::Dense { len, words } => BitArray::from_words(words.clone(), *len as usize),
            SparseBits::Sparse { len, ones } => {
                validate_sparse_indices(*len as usize, ones)?;
                BitArray::from_indices(*len as usize, ones.iter().map(|&i| i as usize))
            }
        }
    }

    /// The bit length of the encoded array.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            SparseBits::Dense { len, .. } | SparseBits::Sparse { len, .. } => *len as usize,
        }
    }

    /// Always `false`: encodes arrays of at least one bit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Approximate serialized payload size in bytes (excluding the
    /// enum tag and length field, which are constant).
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        match self {
            SparseBits::Dense { words, .. } => words.len() * 8,
            SparseBits::Sparse { ones, .. } => ones.len() * 8,
        }
    }
}

impl From<&BitArray> for SparseBits {
    fn from(bits: &BitArray) -> Self {
        Self::encode(bits)
    }
}

impl TryFrom<&SparseBits> for BitArray {
    type Error = BitArrayError;

    fn try_from(sparse: &SparseBits) -> Result<Self, Self::Error> {
        sparse.decode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_arrays_encode_sparse() {
        let bits = BitArray::from_indices(1 << 16, [5usize, 999, 40_000]).unwrap();
        let encoded = SparseBits::encode(&bits);
        assert!(matches!(encoded, SparseBits::Sparse { .. }));
        assert_eq!(encoded.payload_bytes(), 3 * 8);
        assert_eq!(encoded.decode().unwrap(), bits);
    }

    #[test]
    fn heavy_arrays_encode_dense() {
        let m = 1 << 12;
        let bits = BitArray::from_indices(m, (0..m / 2).map(|i| i * 2)).unwrap();
        let encoded = SparseBits::encode(&bits);
        assert!(matches!(encoded, SparseBits::Dense { .. }));
        assert_eq!(encoded.payload_bytes(), m / 8);
        assert_eq!(encoded.decode().unwrap(), bits);
    }

    #[test]
    fn break_even_is_word_count() {
        // Exactly words.len() ones -> dense; one fewer -> sparse.
        let m = 64 * 10;
        let dense_bits = BitArray::from_indices(m, (0..10).map(|i| i * 64)).unwrap();
        assert!(matches!(
            SparseBits::encode(&dense_bits),
            SparseBits::Dense { .. }
        ));
        let sparse_bits = BitArray::from_indices(m, (0..9).map(|i| i * 64)).unwrap();
        assert!(matches!(
            SparseBits::encode(&sparse_bits),
            SparseBits::Sparse { .. }
        ));
    }

    #[test]
    fn sparse_saves_bandwidth_for_light_rsu() {
        // A light RSU: 300 vehicles into a 2^20-bit array sized for a
        // heavy sibling. Raw upload: 128 KiB; sparse: 2.4 KiB.
        let m = 1 << 20;
        let bits = BitArray::from_indices(m, (0..300usize).map(|i| i * 3491)).unwrap();
        let encoded = SparseBits::encode(&bits);
        assert!(encoded.payload_bytes() <= 300 * 8);
        assert!(encoded.payload_bytes() * 50 < m / 8);
    }

    #[test]
    fn decode_validates_payloads() {
        let bad = SparseBits::Sparse {
            len: 8,
            ones: vec![9],
        };
        assert!(bad.decode().is_err());
        // Duplicate and unsorted index lists are typed errors, not
        // silently collapsed bits.
        let bad = SparseBits::Sparse {
            len: 64,
            ones: vec![5, 5],
        };
        assert_eq!(
            bad.decode(),
            Err(BitArrayError::NotStrictlyIncreasing { position: 1 })
        );
        let bad = SparseBits::Sparse {
            len: 64,
            ones: vec![7, 2],
        };
        assert_eq!(
            bad.decode(),
            Err(BitArrayError::NotStrictlyIncreasing { position: 1 })
        );
        let bad = SparseBits::Dense {
            len: 128,
            words: vec![0],
        };
        assert!(bad.decode().is_err());
        let bad = SparseBits::Dense {
            len: 0,
            words: vec![],
        };
        assert!(bad.decode().is_err());
    }

    #[test]
    fn conversion_traits_roundtrip() {
        let bits = BitArray::from_indices(256, [1usize, 100]).unwrap();
        let encoded: SparseBits = (&bits).into();
        let decoded = BitArray::try_from(&encoded).unwrap();
        assert_eq!(decoded, bits);
        assert_eq!(encoded.len(), 256);
        assert!(!encoded.is_empty());
    }
}
