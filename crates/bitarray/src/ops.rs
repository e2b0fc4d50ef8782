//! Decode-time combination of two bit arrays without materializing the
//! unfolded array.
//!
//! The paper's server combines `B_x` (length `m_x`) and `B_y` (length
//! `m_y >= m_x`) by unfolding `B_x` to `m_y` bits and counting the zeros of
//! the bitwise OR (paper Eqs. 3–4). Only the *count* `U_c` matters for the
//! estimator, so the unfolded array never has to exist: bit `i` of `B_c` is
//! zero iff `B_x[i mod m_x]` and `B_y[i]` are both zero. This module
//! provides a streaming count exploiting that identity over a small side
//! prepared once ([`UnfoldOperand`]), plus the naive materializing
//! version kept as an ablation baseline.

use crate::{BitArray, BitArrayError};

const WORD_BITS: usize = 64;

/// Counts the zeros of `unfold(small, large.len()) | large` **without**
/// materializing the unfolded array.
///
/// This is the quantity `U_c` of paper Eq. 5: [`UnfoldOperand::new`]
/// followed by [`UnfoldOperand::combined_zero_count`], so the operand is
/// prepared afresh on every call. A decoder that pairs one array with
/// many others prepares it once instead.
///
/// # Errors
///
/// Returns [`BitArrayError::NotAMultiple`] unless `large.len()` is a
/// positive multiple of `small.len()`.
///
/// # Example
///
/// ```
/// use vcps_bitarray::{BitArray, combined_zero_count};
///
/// # fn main() -> Result<(), vcps_bitarray::BitArrayError> {
/// let bx = BitArray::from_indices(8, [1, 6])?;
/// let by = BitArray::from_indices(32, [3, 9])?;
/// let uc = combined_zero_count(&bx, &by)?;
/// let materialized = bx.unfold(32)?.or(&by)?;
/// assert_eq!(uc, materialized.count_zeros());
/// # Ok(())
/// # }
/// ```
pub fn combined_zero_count(small: &BitArray, large: &BitArray) -> Result<usize, BitArrayError> {
    UnfoldOperand::new(small).combined_zero_count(large)
}

/// Words in the unfold tile of a short word-aligned small side: 512
/// bytes, the most an [`UnfoldOperand`] ever materializes.
const TILE_WORDS: usize = 64;

/// The small side `B_x` of a combined zero count, prepared once for any
/// number of large sides.
///
/// Every word of `unfold(B_x)` is a function of `B_x` alone, so the
/// count streams `B_y`'s words against a repeating operand built here:
///
/// * `m_x` divides 64: one pattern word, the unfolded `B_x` within
///   every word;
/// * `m_x` is a multiple of 64 below 64 words: a tile of `B_x`'s words
///   repeated up to 64 words. A 2-word `B_x` would otherwise give
///   2-iteration inner loops around per-block overhead, too short for
///   the vectorizer; against the tile every inner loop runs dozens of
///   iterations of pure OR+popcount;
/// * `m_x` is a multiple of 64 of at least 64 words: `B_x`'s own words;
/// * otherwise (non-power-of-two lengths): per-bit evaluation.
#[derive(Debug, Clone)]
pub struct UnfoldOperand<'a> {
    small: &'a BitArray,
    form: Form,
}

/// How an [`UnfoldOperand`] repeats against the large side.
#[derive(Debug, Clone)]
enum Form {
    /// The unfolded pattern within one word.
    Pattern(u64),
    /// The small side's words, repeated a whole number of times.
    Tile(Box<[u64]>),
    /// The small side's own words.
    Words,
    /// Per-bit evaluation.
    PerBit,
}

impl<'a> UnfoldOperand<'a> {
    /// Prepares `small` to be unfolded against larger arrays.
    #[must_use]
    pub fn new(small: &'a BitArray) -> Self {
        let m_x = small.len();
        let words = small.as_words();
        let form = if WORD_BITS.is_multiple_of(m_x) {
            let src = words[0] & ((1u128 << m_x) - 1) as u64;
            let mut pattern = 0u64;
            let mut filled = 0;
            while filled < WORD_BITS {
                pattern |= src << filled;
                filled += m_x;
            }
            Form::Pattern(pattern)
        } else if !m_x.is_multiple_of(WORD_BITS) {
            Form::PerBit
        } else if words.len() < TILE_WORDS {
            Form::Tile(words.repeat(TILE_WORDS / words.len()).into_boxed_slice())
        } else {
            Form::Words
        };
        Self { small, form }
    }

    /// The prepared small side.
    #[must_use]
    pub fn bits(&self) -> &'a BitArray {
        self.small
    }

    /// Counts the zeros of `unfold(small, large.len()) | large`, as
    /// [`combined_zero_count`] does.
    ///
    /// # Errors
    ///
    /// Returns [`BitArrayError::NotAMultiple`] unless `large.len()` is a
    /// positive multiple of the small side's length.
    pub fn combined_zero_count(&self, large: &BitArray) -> Result<usize, BitArrayError> {
        let m_x = self.small.len();
        let m_y = large.len();
        if !m_y.is_multiple_of(m_x) {
            return Err(BitArrayError::NotAMultiple {
                source: m_x,
                target: m_y,
            });
        }
        // Words beyond m_y bits are zero in both arrays, so the aligned
        // forms need no tail fixup (m_y is a multiple of 64 there because
        // m_x is and m_x | m_y).
        Ok(match &self.form {
            Form::Pattern(pattern) => count_zeros_with_pattern_word(large, *pattern),
            Form::Tile(tile) => m_y - ones_against(large.as_words(), tile),
            Form::Words => m_y - ones_against(large.as_words(), self.small.as_words()),
            Form::PerBit => (0..m_y)
                .filter(|&i| !self.small.get(i % m_x) && !large.get(i))
                .count(),
        })
    }
}

/// The ones of `large | unfold(operand)` for a word-aligned operand whose
/// length divides `large`'s phase: block-wise zip, not an indexed `%`
/// per word, which defeats auto-vectorization (measured 2x slower). A
/// short last block zips against a prefix of the operand, which stays
/// phase-aligned because the operand repeats the small side whole.
fn ones_against(large: &[u64], operand: &[u64]) -> usize {
    let mut ones = 0usize;
    for block in large.chunks(operand.len()) {
        for (&w, &s) in block.iter().zip(operand) {
            ones += (w | s).count_ones() as usize;
        }
    }
    ones
}

/// Counts combined zeros when the unfolded pattern is a single word-sized
/// constant (`small.len()` divides 64).
fn count_zeros_with_pattern_word(large: &BitArray, pattern: u64) -> usize {
    let m_y = large.len();
    let words = large.as_words();
    let mut ones = 0usize;
    let full_words = m_y / WORD_BITS;
    for &w in &words[..full_words] {
        ones += (w | pattern).count_ones() as usize;
    }
    let tail = m_y % WORD_BITS;
    if tail != 0 {
        let mask = (1u64 << tail) - 1;
        let w = words[full_words] | pattern;
        ones += (w & mask).count_ones() as usize;
    }
    m_y - ones
}

/// Naive implementation: materializes the unfolded array, ORs, and counts.
///
/// Kept as the correctness oracle and ablation baseline for
/// [`combined_zero_count`]; see `vcps-bench`'s `unfold_ablation` bench.
///
/// # Errors
///
/// Returns [`BitArrayError::NotAMultiple`] unless `large.len()` is a
/// positive multiple of `small.len()`.
pub fn combined_zero_count_naive(
    small: &BitArray,
    large: &BitArray,
) -> Result<usize, BitArrayError> {
    let unfolded = small.unfold(large.len())?;
    Ok(unfolded.or(large)?.count_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_agreement(m_x: usize, m_y: usize, xs: &[usize], ys: &[usize]) {
        let small = BitArray::from_indices(m_x, xs.iter().copied()).unwrap();
        let large = BitArray::from_indices(m_y, ys.iter().copied()).unwrap();
        let fast = combined_zero_count(&small, &large).unwrap();
        let naive = combined_zero_count_naive(&small, &large).unwrap();
        assert_eq!(fast, naive, "m_x={m_x}, m_y={m_y}");
    }

    #[test]
    fn small_pattern_path_matches_naive() {
        // m_x divides 64.
        check_agreement(8, 64, &[1, 6], &[3, 9, 60]);
        check_agreement(8, 128, &[0, 7], &[127]);
        check_agreement(16, 96, &[2, 3, 9], &[0, 95, 50]);
        check_agreement(32, 32, &[5], &[5]);
        check_agreement(1, 64, &[0], &[]);
        check_agreement(2, 100, &[], &[99]);
    }

    #[test]
    fn word_aligned_path_matches_naive() {
        check_agreement(64, 256, &[0, 13, 63], &[200, 255]);
        check_agreement(128, 1024, &[1, 64, 127], &[512, 1000]);
    }

    #[test]
    fn fallback_path_matches_naive() {
        // Non-power-of-two, non-word-aligned lengths still work.
        check_agreement(24, 72, &[0, 23], &[71, 30]);
        check_agreement(5, 25, &[2], &[24]);
    }

    #[test]
    fn rejects_non_multiple() {
        let a = BitArray::new(8);
        let b = BitArray::new(20);
        assert!(combined_zero_count(&a, &b).is_err());
        assert!(combined_zero_count_naive(&a, &b).is_err());
    }

    #[test]
    fn all_zero_arrays_are_all_zero_combined() {
        let a = BitArray::new(8);
        let b = BitArray::new(64);
        assert_eq!(combined_zero_count(&a, &b).unwrap(), 64);
    }

    #[test]
    fn saturated_arrays_have_no_zeros() {
        let a = BitArray::from_indices(4, 0..4).unwrap();
        let b = BitArray::new(64);
        assert_eq!(combined_zero_count(&a, &b).unwrap(), 0);
    }

    #[test]
    fn matches_paper_fig1_example_structure() {
        // Fig. 1: an 8-bit B_x unfolded against a 16-bit B_y.
        let bx = BitArray::from_indices(8, [1, 6]).unwrap();
        let by = BitArray::from_indices(16, [3, 9]).unwrap();
        // B_x^u sets {1, 6, 9, 14}; union with {3, 9} has 5 distinct ones.
        assert_eq!(combined_zero_count(&bx, &by).unwrap(), 16 - 5);
    }

    #[test]
    fn randomized_cross_validation() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB17A55AF);
        for _ in 0..50 {
            let kx = rng.random_range(0..10u32);
            let ky_extra = rng.random_range(0..6u32);
            let m_x = 1usize << kx;
            let m_y = m_x << ky_extra;
            let xs: Vec<usize> = (0..rng.random_range(0..=m_x))
                .map(|_| rng.random_range(0..m_x))
                .collect();
            let ys: Vec<usize> = (0..rng.random_range(0..=m_y))
                .map(|_| rng.random_range(0..m_y))
                .collect();
            check_agreement(m_x, m_y, &xs, &ys);
        }
    }
}
