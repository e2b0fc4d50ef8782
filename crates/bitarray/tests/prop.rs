//! Property tests for the bit-array substrate.

use proptest::prelude::*;

use vcps_bitarray::{
    combined_zero_count, combined_zero_count_adaptive, combined_zero_count_dense_sparse,
    combined_zero_count_naive, combined_zero_count_sparse_dense, combined_zero_count_sparse_sparse,
    BitArray, BitArrayError, DecodeScratch, Pow2, SparseBits, UnfoldOperand,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn set_clear_get_agree_with_model(
        len in 1usize..600,
        ops in prop::collection::vec((any::<u32>(), any::<bool>()), 0..200),
    ) {
        // Model: a Vec<bool> mutated in lockstep.
        let mut array = BitArray::new(len);
        let mut model = vec![false; len];
        for (raw, set) in ops {
            let i = raw as usize % len;
            if set {
                array.set(i);
                model[i] = true;
            } else {
                array.clear(i);
                model[i] = false;
            }
        }
        for (i, &m) in model.iter().enumerate() {
            prop_assert_eq!(array.get(i), m);
        }
        prop_assert_eq!(array.count_ones(), model.iter().filter(|&&b| b).count());
    }

    #[test]
    fn or_and_de_morgan_ish(
        len in 1usize..300,
        xs in prop::collection::vec(any::<u32>(), 0..64),
        ys in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let a = BitArray::from_indices(len, xs.iter().map(|&v| v as usize % len)).unwrap();
        let b = BitArray::from_indices(len, ys.iter().map(|&v| v as usize % len)).unwrap();
        let or = a.or(&b).unwrap();
        let and = a.and(&b).unwrap();
        // |A| + |B| = |A∪B| + |A∩B|
        prop_assert_eq!(
            a.count_ones() + b.count_ones(),
            or.count_ones() + and.count_ones()
        );
    }

    #[test]
    fn unfold_is_associative_in_stages(
        k in 0u32..6, r1 in 0u32..4, r2 in 0u32..4,
        xs in prop::collection::vec(any::<u32>(), 0..32),
    ) {
        // unfold(unfold(B, m·2^r1), m·2^(r1+r2)) == unfold(B, m·2^(r1+r2)).
        let m = 1usize << k;
        let a = BitArray::from_indices(m, xs.iter().map(|&v| v as usize % m)).unwrap();
        let staged = a
            .unfold(m << r1)
            .unwrap()
            .unfold(m << (r1 + r2))
            .unwrap();
        let direct = a.unfold(m << (r1 + r2)).unwrap();
        prop_assert_eq!(staged, direct);
    }

    #[test]
    fn combined_count_symmetric_under_equal_lengths(
        k in 0u32..8,
        xs in prop::collection::vec(any::<u32>(), 0..64),
        ys in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let m = 1usize << k;
        let a = BitArray::from_indices(m, xs.iter().map(|&v| v as usize % m)).unwrap();
        let b = BitArray::from_indices(m, ys.iter().map(|&v| v as usize % m)).unwrap();
        prop_assert_eq!(
            combined_zero_count(&a, &b).unwrap(),
            combined_zero_count(&b, &a).unwrap()
        );
    }

    #[test]
    fn combined_count_bounds(
        kx in 0u32..8, extra in 0u32..4,
        xs in prop::collection::vec(any::<u32>(), 0..64),
        ys in prop::collection::vec(any::<u32>(), 0..256),
    ) {
        let m_x = 1usize << kx;
        let m_y = m_x << extra;
        let x = BitArray::from_indices(m_x, xs.iter().map(|&v| v as usize % m_x)).unwrap();
        let y = BitArray::from_indices(m_y, ys.iter().map(|&v| v as usize % m_y)).unwrap();
        let u_c = combined_zero_count(&x, &y).unwrap();
        // U_c cannot exceed either array's zero share scaled to m_y.
        let ratio = m_y / m_x;
        prop_assert!(u_c <= x.count_zeros() * ratio);
        prop_assert!(u_c <= y.count_zeros());
        prop_assert_eq!(u_c, combined_zero_count_naive(&x, &y).unwrap());
    }

    #[test]
    fn sparse_kernels_match_dense_across_power_of_two_size_pairs(
        kx in 0u32..9, extra in 0u32..5,
        xs in prop::collection::vec(any::<u32>(), 0..96),
        ys in prop::collection::vec(any::<u32>(), 0..256),
    ) {
        // Every kernel — list×list, list×dense, dense×list, and the
        // adaptive selector in all four availability combinations — must
        // produce the exact combined zero count of the dense word scan.
        let m_x = 1usize << kx;
        let m_y = m_x << extra;
        let small = BitArray::from_indices(m_x, xs.iter().map(|&v| v as usize % m_x)).unwrap();
        let large = BitArray::from_indices(m_y, ys.iter().map(|&v| v as usize % m_y)).unwrap();
        let expected = combined_zero_count(&small, &large).unwrap();
        let sx: Vec<u64> = small.ones().map(|i| i as u64).collect();
        let sy: Vec<u64> = large.ones().map(|i| i as u64).collect();
        prop_assert_eq!(
            combined_zero_count_sparse_sparse(m_x, &sx, m_y, &sy).unwrap(),
            expected
        );
        prop_assert_eq!(
            combined_zero_count_sparse_dense(m_x, &sx, &large).unwrap(),
            expected
        );
        prop_assert_eq!(
            combined_zero_count_dense_sparse(&small, m_y, &sy).unwrap(),
            expected
        );
        let mut scratch = DecodeScratch::new();
        let operand = UnfoldOperand::new(&small);
        for (ox, oy) in [
            (None, None),
            (Some(sx.as_slice()), None),
            (None, Some(sy.as_slice())),
            (Some(sx.as_slice()), Some(sy.as_slice())),
        ] {
            prop_assert_eq!(
                combined_zero_count_adaptive(&operand, ox, &large, oy, &mut scratch).unwrap(),
                expected
            );
        }
    }

    #[test]
    fn one_prepared_operand_counts_against_many_large_sides(
        shape in 0usize..17,
        seed in any::<u64>(),
        fill in 0u32..4,
    ) {
        // Shapes 0..=13 are m_x = 2^0..2^13: the pattern word (m_x | 64),
        // the tile (64 ≤ m_x < 64 words) and the array's own words (≥ 64
        // words). 14..=16 are nested lengths outside the powers of two:
        // a 3-word tile (192 | 576) and the per-bit fallback (24 | 72,
        // 5 | 25).
        let (m_x, nested): (usize, Vec<usize>) = match shape {
            14 => (192, vec![192, 576]),
            15 => (24, vec![24, 72]),
            16 => (5, vec![5, 25]),
            k => (1 << k, (0..=4).map(|e| (1usize << k) << e).collect()),
        };
        // Empty, sparse, half-full or saturated sides, from one seed.
        let mut state = seed;
        let mut draw = move || {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let per_mille = [0, 30, 500, 1000][fill as usize];
        let mut filled = |m: usize| {
            BitArray::from_indices(m, (0..m).filter(|_| draw() % 1000 < per_mille)).unwrap()
        };
        let small = filled(m_x);
        let operand = UnfoldOperand::new(&small);
        for &m_y in &nested {
            // Two large sides per length: the same operand serves each.
            for _ in 0..2 {
                let large = filled(m_y);
                prop_assert_eq!(
                    operand.combined_zero_count(&large).unwrap(),
                    combined_zero_count_naive(&small, &large).unwrap(),
                    "m_x = {}, m_y = {}", m_x, m_y
                );
            }
        }
        // A length the operand does not divide is refused.
        if m_x > 1 {
            let odd = BitArray::new(m_x * 2 + 1);
            prop_assert_eq!(
                operand.combined_zero_count(&odd),
                Err(BitArrayError::NotAMultiple { source: m_x, target: m_x * 2 + 1 })
            );
        }
    }

    #[test]
    fn sparse_kernels_reject_corrupted_index_lists(
        kx in 2u32..8, extra in 0u32..4,
        pivot in any::<u32>(),
    ) {
        let m_x = 1usize << kx;
        let m_y = m_x << extra;
        let small = BitArray::new(m_x);
        let large = BitArray::new(m_y);
        let i = pivot as u64 % m_x as u64;
        let duplicate = vec![i, i];
        let out_of_range = vec![m_y as u64];
        prop_assert_eq!(
            combined_zero_count_sparse_sparse(m_x, &duplicate, m_y, &[]),
            Err(BitArrayError::NotStrictlyIncreasing { position: 1 })
        );
        prop_assert!(combined_zero_count_sparse_dense(m_x, &duplicate, &large).is_err());
        prop_assert!(combined_zero_count_dense_sparse(&small, m_y, &duplicate).is_err());
        prop_assert!(combined_zero_count_dense_sparse(&small, m_y, &out_of_range).is_err());
    }

    #[test]
    fn sparse_roundtrip_any_array(
        len in 1usize..2_000,
        xs in prop::collection::vec(any::<u32>(), 0..256),
    ) {
        let bits = BitArray::from_indices(len, xs.iter().map(|&v| v as usize % len)).unwrap();
        let encoded = SparseBits::encode(&bits);
        prop_assert_eq!(encoded.decode().unwrap(), bits);
    }

    #[test]
    fn sparse_picks_the_smaller_payload(
        len in 64usize..2_000,
        xs in prop::collection::vec(any::<u32>(), 0..256),
    ) {
        let bits = BitArray::from_indices(len, xs.iter().map(|&v| v as usize % len)).unwrap();
        let encoded = SparseBits::encode(&bits);
        let dense_bytes = bits.as_words().len() * 8;
        let sparse_bytes = bits.count_ones() * 8;
        let expected = if bits.count_ones() < bits.as_words().len() {
            sparse_bytes
        } else {
            dense_bytes
        };
        prop_assert_eq!(encoded.payload_bytes(), expected);
        prop_assert!(encoded.payload_bytes() <= dense_bytes.max(sparse_bytes));
    }

    #[test]
    fn pow2_ceil_monotone(a in 1.0f64..1e9, b in 1.0f64..1e9) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let pa = Pow2::ceil_from(lo).unwrap();
        let pb = Pow2::ceil_from(hi).unwrap();
        prop_assert!(pa.get() <= pb.get());
    }

    #[test]
    fn reset_restores_fresh_state(
        len in 1usize..500,
        xs in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let mut bits =
            BitArray::from_indices(len, xs.iter().map(|&v| v as usize % len)).unwrap();
        bits.reset();
        prop_assert_eq!(bits, BitArray::new(len));
    }
}
