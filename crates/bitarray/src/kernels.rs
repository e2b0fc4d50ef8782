//! Sparse-aware decode kernels and per-pair kernel selection.
//!
//! [`combined_zero_count`](crate::combined_zero_count) scans every word
//! of the larger array — O(m_y/64) — which is optimal when both arrays
//! are densely filled but wasteful for the light-traffic RSUs the
//! variable-length scheme deliberately over-provisions (an array sized
//! for a heavy sibling's history carries a handful of ones in a quiet
//! period). Those uploads already travel as sorted set-bit index lists;
//! this module decodes *directly from the lists*, never touching the
//! empty words:
//!
//! * [`combined_zero_count_sparse_sparse`] — both sides as index lists,
//!   O(|S_x| + |S_y|) via the unfold-union identity (see below);
//! * [`combined_zero_count_sparse_dense`] — small side as a list,
//!   large side dense, O(|S_x| · m_y/m_x) single-bit probes;
//! * [`combined_zero_count_dense_sparse`] — small side dense, large
//!   side as a list, O(|S_y|) single-bit probes;
//! * [`select_pair_kernel`] / [`combined_zero_count_adaptive`] — a
//!   density-threshold cost model that picks the cheapest of the four
//!   kernels per pair.
//!
//! ## The unfold-union identity
//!
//! Unfolding (paper Eq. 3) maps the set `S_x ⊆ [0, m_x)` of set bits to
//! `unfold(S_x) = {i + k·m_x : i ∈ S_x, 0 ≤ k < m_y/m_x}`, so
//! `|unfold(S_x)| = |S_x| · (m_y/m_x)` **exactly** — provided `S_x`
//! holds no duplicates (a duplicated index would be counted `m_y/m_x`
//! times over). The combined zero count of Eq. 4 is then pure set
//! arithmetic:
//!
//! ```text
//! U_c = m_y − |unfold(S_x) ∪ S_y|
//!     = m_y − (|S_x|·(m_y/m_x) + |S_y| − |{j ∈ S_y : j mod m_x ∈ S_x}|)
//! ```
//!
//! Because correctness hinges on the lists being duplicate-free, every
//! kernel validates its index lists (strictly increasing, in range) and
//! rejects violations with a typed error instead of silently
//! double-counting.

use serde::{Deserialize, Serialize};

use crate::{BitArray, BitArrayError, UnfoldOperand};

const WORD_BITS: usize = 64;

/// Densification threshold: a set-bit index list is worth keeping (on
/// the wire and in decode-side caches) only while it is smaller than the
/// dense form, i.e. fewer than one entry per `SPARSE_DENSIFY_BITS_PER_ONE`
/// array bits. Both cost 8 bytes per element — one `u64` index per one
/// vs one backing word per 64 bits — so the break-even is exactly the
/// word size. Above the threshold the dense representation is both
/// smaller and faster to scan, and callers should densify.
///
/// This single constant governs [`crate::SparseBits::encode`], the
/// protocol's compact upload encoding, and the central server's per-RSU
/// decode caches, so the three layers can never disagree about which
/// representation an upload should be in.
pub const SPARSE_DENSIFY_BITS_PER_ONE: usize = 64;

/// `true` while the sparse index-list form of a `len`-bit array with
/// `ones` set bits is strictly smaller than the dense word form (see
/// [`SPARSE_DENSIFY_BITS_PER_ONE`]).
#[must_use]
pub fn sparse_is_profitable(len: usize, ones: usize) -> bool {
    ones < len.div_ceil(SPARSE_DENSIFY_BITS_PER_ONE)
}

/// Validates a sparse set-bit index list: strictly increasing (which
/// implies duplicate-free) and every entry below `len`.
///
/// # Errors
///
/// * [`BitArrayError::NotStrictlyIncreasing`] at the first position
///   where monotonicity fails (covering both duplicates and unsorted
///   input);
/// * [`BitArrayError::IndexOutOfBounds`] if an entry is `>= len`.
pub fn validate_sparse_indices(len: usize, ones: &[u64]) -> Result<(), BitArrayError> {
    let mut prev: Option<u64> = None;
    for (position, &index) in ones.iter().enumerate() {
        if prev.is_some_and(|p| index <= p) {
            return Err(BitArrayError::NotStrictlyIncreasing { position });
        }
        if index as usize >= len {
            return Err(BitArrayError::IndexOutOfBounds {
                index: index as usize,
                len,
            });
        }
        prev = Some(index);
    }
    Ok(())
}

/// Reads bit `p` of a word slice: 1 if set, 0 if clear.
#[inline]
fn bit_at(words: &[u64], p: usize) -> usize {
    (words[p / WORD_BITS] >> (p % WORD_BITS) & 1) as usize
}

/// Counts how many probe positions `pos(index)` land on a *set* bit of
/// `words`, keeping four independent probes in flight per iteration.
///
/// The probes are random-access single-bit reads (positions come from a
/// modulo reduction of sorted indices), so unlike the streaming popcount
/// loops — where manual unrolling defeats the autovectorizer — the win
/// here is memory-level parallelism: four independent loads per
/// iteration hide cache latency behind each other.
#[inline]
fn count_set_probes(words: &[u64], indices: &[u64], pos: impl Fn(u64) -> usize) -> usize {
    let mut it = indices.chunks_exact(4);
    let (mut a, mut b, mut c, mut d) = (0usize, 0usize, 0usize, 0usize);
    for q in it.by_ref() {
        a += bit_at(words, pos(q[0]));
        b += bit_at(words, pos(q[1]));
        c += bit_at(words, pos(q[2]));
        d += bit_at(words, pos(q[3]));
    }
    let mut total = a + b + c + d;
    for &j in it.remainder() {
        total += bit_at(words, pos(j));
    }
    total
}

/// `count_set_probes` with the position map `j mod m_x`, routed through
/// a shift-free mask when `m_x` is a power of two (the scheme's usual
/// case) — a hardware `div` per probe costs more than the probe itself.
#[inline]
fn count_set_probes_mod(words: &[u64], indices: &[u64], m_x: usize) -> usize {
    if m_x.is_power_of_two() {
        let mask = (m_x - 1) as u64;
        count_set_probes(words, indices, |j| (j & mask) as usize)
    } else {
        count_set_probes(words, indices, |j| (j % m_x as u64) as usize)
    }
}

/// Reusable scratch for [`combined_zero_count_sparse_sparse_with`]: an
/// `m_x`-bit membership mask that is zeroed *surgically* (only the words
/// an `S_x` actually touched) after each call, so a long run of pair
/// decodes pays O(|S_x| + |S_y|) per pair instead of O(m_x/64).
///
/// The backing buffer grows to the largest `m_x` seen and is retained
/// across calls — exactly the reuse the all-pairs decode loop wants
/// (one scratch per worker thread).
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    mask: Vec<u64>,
}

impl DecodeScratch {
    /// Creates an empty scratch; the mask grows on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Counts the zeros of `unfold(S_x, m_y) | S_y` from the two sorted
/// set-bit index lists alone, in O(|S_x| + |S_y|) after one-time scratch
/// growth — no word of either array is scanned.
///
/// Allocates a fresh scratch per call; hot loops should hold a
/// [`DecodeScratch`] and use
/// [`combined_zero_count_sparse_sparse_with`].
///
/// # Errors
///
/// * [`BitArrayError::NotAMultiple`] unless `m_y` is a positive
///   multiple of `m_x`;
/// * [`BitArrayError::NotStrictlyIncreasing`] /
///   [`BitArrayError::IndexOutOfBounds`] if either index list is
///   unsorted, duplicated, or out of range (see the module docs on why
///   duplicates would silently corrupt the count).
pub fn combined_zero_count_sparse_sparse(
    m_x: usize,
    ones_x: &[u64],
    m_y: usize,
    ones_y: &[u64],
) -> Result<usize, BitArrayError> {
    let mut scratch = DecodeScratch::new();
    combined_zero_count_sparse_sparse_with(&mut scratch, m_x, ones_x, m_y, ones_y)
}

/// [`combined_zero_count_sparse_sparse`] with a caller-provided
/// [`DecodeScratch`] so the membership mask is reused across pairs.
///
/// # Errors
///
/// As [`combined_zero_count_sparse_sparse`].
pub fn combined_zero_count_sparse_sparse_with(
    scratch: &mut DecodeScratch,
    m_x: usize,
    ones_x: &[u64],
    m_y: usize,
    ones_y: &[u64],
) -> Result<usize, BitArrayError> {
    check_nested(m_x, m_y)?;
    validate_sparse_indices(m_x, ones_x)?;
    validate_sparse_indices(m_y, ones_y)?;
    let r = m_y / m_x;

    let words = m_x.div_ceil(WORD_BITS);
    if scratch.mask.len() < words {
        scratch.mask.resize(words, 0);
    }
    for &i in ones_x {
        scratch.mask[i as usize / WORD_BITS] |= 1u64 << (i as usize % WORD_BITS);
    }
    let intersection = count_set_probes_mod(&scratch.mask, ones_y, m_x);
    // Surgical clear: only the words S_x touched, keeping the steady
    // state O(|S_x|) instead of O(m_x/64).
    for &i in ones_x {
        scratch.mask[i as usize / WORD_BITS] = 0;
    }

    // The unfold-union identity: |unfold(S_x)| = |S_x| · r exactly
    // because the validated list is duplicate-free.
    let union = ones_x.len() * r + ones_y.len() - intersection;
    Ok(m_y - union)
}

/// Counts combined zeros with the *small* side as a sorted index list
/// and the large side dense: O(|S_x| · m_y/m_x) single-bit probes into
/// `large`, profitable whenever `|S_x| · (m_y/m_x)` is well below
/// `m_y/64` (i.e. the small array is under the densify threshold).
///
/// # Errors
///
/// * [`BitArrayError::NotAMultiple`] unless `large.len()` is a positive
///   multiple of `m_x`;
/// * [`BitArrayError::NotStrictlyIncreasing`] /
///   [`BitArrayError::IndexOutOfBounds`] for an invalid index list.
pub fn combined_zero_count_sparse_dense(
    m_x: usize,
    ones_x: &[u64],
    large: &BitArray,
) -> Result<usize, BitArrayError> {
    let m_y = large.len();
    check_nested(m_x, m_y)?;
    validate_sparse_indices(m_x, ones_x)?;
    let r = m_y / m_x;
    // U_c = U_y − |{positions of unfold(S_x) that are zero in B_y}|:
    // every unfolded one either lands on a one of B_y (already excluded
    // from U_y) or knocks out one of B_y's zeros.
    let mut knocked_out = 0usize;
    if m_x.is_multiple_of(WORD_BITS) {
        // Word-aligned stride: each unfolded index revisits the same bit
        // offset every m_x/64 words, so probe raw words with a constant
        // shift — and keep four strided loads in flight to hide the
        // cache latency of the large-array walk.
        let words = large.as_words();
        let stride = m_x / WORD_BITS;
        for &i in ones_x {
            let shift = i as usize % WORD_BITS;
            let mut w = i as usize / WORD_BITS;
            let mut hits = 0usize;
            let mut k = 0usize;
            while k + 4 <= r {
                let h0 = words[w] >> shift & 1;
                let h1 = words[w + stride] >> shift & 1;
                let h2 = words[w + 2 * stride] >> shift & 1;
                let h3 = words[w + 3 * stride] >> shift & 1;
                hits += (h0 + h1 + h2 + h3) as usize;
                w += 4 * stride;
                k += 4;
            }
            while k < r {
                hits += (words[w] >> shift & 1) as usize;
                w += stride;
                k += 1;
            }
            knocked_out += r - hits;
        }
    } else {
        for &i in ones_x {
            let mut p = i as usize;
            for _ in 0..r {
                if !large.get(p) {
                    knocked_out += 1;
                }
                p += m_x;
            }
        }
    }
    Ok(large.count_zeros() - knocked_out)
}

/// Counts combined zeros with the small side dense and the *large* side
/// as a sorted index list: O(|S_y|) single-bit probes into `small`,
/// profitable whenever the large array is under the densify threshold
/// (its |S_y| is far below m_y/64).
///
/// # Errors
///
/// * [`BitArrayError::NotAMultiple`] unless `m_y` is a positive
///   multiple of `small.len()`;
/// * [`BitArrayError::NotStrictlyIncreasing`] /
///   [`BitArrayError::IndexOutOfBounds`] for an invalid index list.
pub fn combined_zero_count_dense_sparse(
    small: &BitArray,
    m_y: usize,
    ones_y: &[u64],
) -> Result<usize, BitArrayError> {
    let m_x = small.len();
    check_nested(m_x, m_y)?;
    validate_sparse_indices(m_y, ones_y)?;
    let r = m_y / m_x;
    // |unfold(S_x) ∪ S_y| = |S_x|·r + |{j ∈ S_y : B_x[j mod m_x] = 0}|:
    // a one of S_y either coincides with an unfolded one (already
    // counted) or adds a new member.
    let extra = ones_y.len() - count_set_probes_mod(small.as_words(), ones_y, m_x);
    Ok(m_y - (small.count_ones() * r + extra))
}

/// Which decode kernel [`combined_zero_count_adaptive`] chose for a
/// pair (also useful for ablation benches and artifact labels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PairKernel {
    /// Word scan of the large array
    /// ([`combined_zero_count`](crate::combined_zero_count)).
    Dense,
    /// Both sides as index lists
    /// ([`combined_zero_count_sparse_sparse`]).
    SparseSparse,
    /// Small side as a list, large side dense
    /// ([`combined_zero_count_sparse_dense`]).
    SparseDense,
    /// Small side dense, large side as a list
    /// ([`combined_zero_count_dense_sparse`]).
    DenseSparse,
}

impl PairKernel {
    /// Stable lowercase label for artifacts and bench IDs.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PairKernel::Dense => "dense",
            PairKernel::SparseSparse => "sparse_sparse",
            PairKernel::SparseDense => "sparse_dense",
            PairKernel::DenseSparse => "dense_sparse",
        }
    }
}

/// Rough per-operation weights for the kernel cost model, in units of
/// one sequential 64-bit word scanned by the dense kernel. A sparse
/// index costs several word-units: it is validated (ordered, in range),
/// reduced mod `m_x`, and probed at a random bit, where the dense scan
/// streams whole words through a vectorized OR+popcount. Calibrated by
/// the `vcps-bench` `calibrate` binary (see its ignored conformance
/// test): with the tiled/`target-cpu` dense scan streaming several words
/// per cycle and a probe costing a (possibly cache-missing) dependent
/// load, the measured ratio on the reference box is ≈ 6–10 word-units
/// per probe; erring high only forfeits marginal wins near the
/// crossover, where the kernels cost about the same anyway. The setup
/// constant absorbs per-call validation and dispatch.
pub(crate) const COST_BIT_PROBE: usize = 8;
pub(crate) const COST_SETUP: usize = 16;

/// Picks the cheapest kernel for a pair from the array sizes and the
/// (optional) sparse index-list lengths; `None` means that side has no
/// list — it is above the densify threshold — so only kernels reading
/// its dense words are candidates.
///
/// `m_x` must be the smaller length and divide `m_y` (callers orient
/// first); violations fall back to [`PairKernel::Dense`], whose own
/// validation reports the error.
///
/// Under this model [`PairKernel::SparseSparse`] is dominated whenever
/// a dense side is present (probing the held dense words costs the same
/// as probing a freshly built mask, minus building it), so the selector
/// effectively chooses between the dense scan and the two mixed
/// kernels; the list×list kernel stays available for callers holding
/// only compact uploads.
#[must_use]
pub fn select_pair_kernel(
    m_x: usize,
    ones_x: Option<usize>,
    m_y: usize,
    ones_y: Option<usize>,
) -> PairKernel {
    select_pair_kernel_with_cost(m_x, ones_x, m_y, ones_y).0
}

/// [`select_pair_kernel`] plus the modeled cost of the winning kernel,
/// in word-units (one sequential 64-bit word of dense scan ≈ 1).
///
/// The cost is how the all-pairs decoder estimates triangle work before
/// deciding whether parallel fan-out is worth a pool dispatch, and what
/// the `calibrate` harness compares against measured kernel times — so
/// it is part of the public contract, not an implementation detail.
#[must_use]
pub fn select_pair_kernel_with_cost(
    m_x: usize,
    ones_x: Option<usize>,
    m_y: usize,
    ones_y: Option<usize>,
) -> (PairKernel, usize) {
    if m_x == 0 || !m_y.is_multiple_of(m_x) {
        return (PairKernel::Dense, m_y / WORD_BITS + COST_SETUP);
    }
    let r = m_y / m_x;
    let mut best = (PairKernel::Dense, m_y / WORD_BITS + COST_SETUP);
    let mut consider = |kernel: PairKernel, cost: usize| {
        if cost < best.1 {
            best = (kernel, cost);
        }
    };
    if let (Some(sx), Some(sy)) = (ones_x, ones_y) {
        consider(
            PairKernel::SparseSparse,
            COST_BIT_PROBE * (sx + sy) + COST_SETUP,
        );
    }
    if let Some(sx) = ones_x {
        consider(
            PairKernel::SparseDense,
            COST_BIT_PROBE * sx * r + COST_SETUP,
        );
    }
    if let Some(sy) = ones_y {
        consider(PairKernel::DenseSparse, COST_BIT_PROBE * sy + COST_SETUP);
    }
    best
}

/// Combined zero count through the per-pair kernel selector: given the
/// dense arrays (always available server-side) — the small side prepared
/// as an [`UnfoldOperand`], which the dense arm counts against — and
/// whichever sorted index lists the decode cache kept, computes the same
/// `U_c` as [`combined_zero_count`](crate::combined_zero_count) by the
/// cheapest route.
///
/// The index lists, when present, must describe exactly the set bits of
/// the corresponding array (the server derives them from the array, so
/// this holds by construction); they are still validated for order and
/// range.
///
/// # Errors
///
/// * [`BitArrayError::NotAMultiple`] unless `large.len()` is a positive
///   multiple of `small.len()`;
/// * [`BitArrayError::NotStrictlyIncreasing`] /
///   [`BitArrayError::IndexOutOfBounds`] for an invalid index list.
pub fn combined_zero_count_adaptive(
    small: &UnfoldOperand<'_>,
    ones_x: Option<&[u64]>,
    large: &BitArray,
    ones_y: Option<&[u64]>,
    scratch: &mut DecodeScratch,
) -> Result<usize, BitArrayError> {
    let bits = small.bits();
    let (m_x, m_y) = (bits.len(), large.len());
    match select_pair_kernel(m_x, ones_x.map(<[u64]>::len), m_y, ones_y.map(<[u64]>::len)) {
        PairKernel::Dense => small.combined_zero_count(large),
        PairKernel::SparseSparse => {
            let (sx, sy) = (ones_x.expect("selected"), ones_y.expect("selected"));
            combined_zero_count_sparse_sparse_with(scratch, m_x, sx, m_y, sy)
        }
        PairKernel::SparseDense => {
            combined_zero_count_sparse_dense(m_x, ones_x.expect("selected"), large)
        }
        PairKernel::DenseSparse => {
            combined_zero_count_dense_sparse(bits, m_y, ones_y.expect("selected"))
        }
    }
}

fn check_nested(m_x: usize, m_y: usize) -> Result<(), BitArrayError> {
    if m_x == 0 || m_y == 0 || !m_y.is_multiple_of(m_x) {
        return Err(BitArrayError::NotAMultiple {
            source: m_x,
            target: m_y,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones_of(bits: &BitArray) -> Vec<u64> {
        bits.ones().map(|i| i as u64).collect()
    }

    fn check_all_kernels(m_x: usize, m_y: usize, xs: &[usize], ys: &[usize]) {
        let small = BitArray::from_indices(m_x, xs.iter().copied()).unwrap();
        let large = BitArray::from_indices(m_y, ys.iter().copied()).unwrap();
        let expected = crate::combined_zero_count(&small, &large).unwrap();
        let sx = ones_of(&small);
        let sy = ones_of(&large);
        assert_eq!(
            combined_zero_count_sparse_sparse(m_x, &sx, m_y, &sy).unwrap(),
            expected,
            "sparse-sparse m_x={m_x} m_y={m_y}"
        );
        assert_eq!(
            combined_zero_count_sparse_dense(m_x, &sx, &large).unwrap(),
            expected,
            "sparse-dense m_x={m_x} m_y={m_y}"
        );
        assert_eq!(
            combined_zero_count_dense_sparse(&small, m_y, &sy).unwrap(),
            expected,
            "dense-sparse m_x={m_x} m_y={m_y}"
        );
        let mut scratch = DecodeScratch::new();
        for (ox, oy) in [
            (None, None),
            (Some(sx.as_slice()), None),
            (None, Some(sy.as_slice())),
            (Some(sx.as_slice()), Some(sy.as_slice())),
        ] {
            assert_eq!(
                combined_zero_count_adaptive(
                    &UnfoldOperand::new(&small),
                    ox,
                    &large,
                    oy,
                    &mut scratch
                )
                .unwrap(),
                expected,
                "adaptive m_x={m_x} m_y={m_y} ox={} oy={}",
                ox.is_some(),
                oy.is_some()
            );
        }
    }

    #[test]
    fn kernels_match_dense_on_fixed_cases() {
        check_all_kernels(8, 32, &[1, 6], &[3, 9, 31]);
        check_all_kernels(64, 256, &[0, 13, 63], &[200, 255, 64]);
        check_all_kernels(16, 16, &[2, 3], &[3, 15]);
        check_all_kernels(2, 128, &[0], &[1, 127]);
        check_all_kernels(1024, 1 << 16, &[5, 900], &[60_000, 12, 5]);
        // Non-power-of-two nested lengths are legal too.
        check_all_kernels(24, 72, &[0, 23], &[71, 30, 24]);
    }

    #[test]
    fn kernels_handle_empty_and_full_sides() {
        check_all_kernels(8, 64, &[], &[]);
        check_all_kernels(8, 64, &[0, 1, 2, 3, 4, 5, 6, 7], &[]);
        check_all_kernels(8, 64, &[], &(0..64).collect::<Vec<_>>());
    }

    #[test]
    fn scratch_is_reusable_across_sizes() {
        let mut scratch = DecodeScratch::new();
        // Big m_x first, then small: mask must not leak stale bits.
        let a = combined_zero_count_sparse_sparse_with(&mut scratch, 1024, &[3, 700], 4096, &[700])
            .unwrap();
        assert_eq!(
            a,
            4096 - (2 * 4 + 1 - 1) // 8 unfolded ones, one shared with S_y
        );
        let b =
            combined_zero_count_sparse_sparse_with(&mut scratch, 8, &[3], 16, &[4, 11]).unwrap();
        assert_eq!(b, 16 - (2 + 2 - 1)); // {3, 11} ∪ {4, 11}
    }

    #[test]
    fn unsorted_and_duplicate_lists_are_rejected() {
        let small = BitArray::new(8);
        let large = BitArray::new(64);
        let dup = [3u64, 3];
        let unsorted = [5u64, 2];
        for bad in [&dup[..], &unsorted[..]] {
            assert_eq!(
                combined_zero_count_sparse_sparse(8, bad, 64, &[]),
                Err(BitArrayError::NotStrictlyIncreasing { position: 1 })
            );
            assert_eq!(
                combined_zero_count_sparse_sparse(8, &[], 64, bad),
                Err(BitArrayError::NotStrictlyIncreasing { position: 1 })
            );
            assert!(combined_zero_count_sparse_dense(8, bad, &large).is_err());
            assert!(combined_zero_count_dense_sparse(&small, 64, bad).is_err());
        }
    }

    #[test]
    fn out_of_range_indices_are_rejected() {
        let small = BitArray::new(8);
        let large = BitArray::new(64);
        assert_eq!(
            combined_zero_count_sparse_sparse(8, &[8], 64, &[]),
            Err(BitArrayError::IndexOutOfBounds { index: 8, len: 8 })
        );
        assert!(combined_zero_count_sparse_dense(8, &[9], &large).is_err());
        assert!(combined_zero_count_dense_sparse(&small, 64, &[64]).is_err());
    }

    #[test]
    fn non_nested_lengths_are_rejected() {
        let small = BitArray::new(8);
        let large = BitArray::new(20);
        assert!(combined_zero_count_sparse_sparse(8, &[], 20, &[]).is_err());
        assert!(combined_zero_count_sparse_dense(8, &[], &large).is_err());
        assert!(combined_zero_count_dense_sparse(&small, 20, &[]).is_err());
        let mut scratch = DecodeScratch::new();
        let operand = UnfoldOperand::new(&small);
        assert!(combined_zero_count_adaptive(&operand, None, &large, None, &mut scratch).is_err());
    }

    #[test]
    fn selector_prefers_sparse_kernels_for_light_pairs() {
        // Two light 2^20-bit arrays: scanning 16384 words loses to
        // probing a few hundred list entries. With both dense arrays in
        // hand, unfolding the smaller list (r = 1, 300 probes) beats
        // both the larger list (900 probes) and a sparse–sparse mask
        // (300 + 900 touches).
        let m = 1 << 20;
        assert_eq!(
            select_pair_kernel(m, Some(300), m, Some(900)),
            PairKernel::SparseDense
        );
        // Light large side only.
        assert_eq!(
            select_pair_kernel(1 << 10, None, m, Some(300)),
            PairKernel::DenseSparse
        );
        // Light small side vs dense large: r = 4 keeps probes cheap.
        assert_eq!(
            select_pair_kernel(m / 4, Some(100), m, None),
            PairKernel::SparseDense
        );
        // Dense-dense stays on the word scan.
        assert_eq!(select_pair_kernel(m, None, m, None), PairKernel::Dense);
        // Tiny arrays: the word scan is already ~free, setup dominates.
        assert_eq!(
            select_pair_kernel(64, Some(60), 64, Some(60)),
            PairKernel::Dense
        );
    }

    #[test]
    fn densify_threshold_matches_wire_break_even() {
        // Exactly the SparseBits/encode_compact rule: words-1 ones is
        // sparse, words ones is dense.
        let m = 64 * 10;
        assert!(sparse_is_profitable(m, 9));
        assert!(!sparse_is_profitable(m, 10));
        assert!(!sparse_is_profitable(63, 1));
        assert!(sparse_is_profitable(65, 1));
    }

    #[test]
    fn kernel_labels_are_stable() {
        assert_eq!(PairKernel::Dense.label(), "dense");
        assert_eq!(PairKernel::SparseSparse.label(), "sparse_sparse");
        assert_eq!(PairKernel::SparseDense.label(), "sparse_dense");
        assert_eq!(PairKernel::DenseSparse.label(), "dense_sparse");
    }
}
