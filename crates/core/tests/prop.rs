//! Property tests for the core scheme.

use proptest::prelude::*;

use vcps_core::estimator::{
    denominator, estimate_from_counts, estimate_from_counts_or_clamp, estimate_from_terms,
    estimate_pair, estimate_pair_or_clamp, Estimate, PairCounts, ZeroTerm,
};
use vcps_core::{CoreError, RsuId, RsuSketch, Scheme, Sizing, VehicleIdentity};

/// A frozen copy of Eq. 5 as `estimate_from_counts` computed it inline,
/// before the per-array zero terms were split out: the split must keep
/// every bit and every error of this formula.
fn frozen_eq5(counts: &PairCounts, s: usize, clamp: bool) -> Result<Estimate, CoreError> {
    let &PairCounts {
        m_x,
        m_y,
        u_x,
        u_y,
        u_c,
        n_x,
        n_y,
    } = counts;
    let invalid = |parameter, reason| Err(CoreError::InvalidParams { parameter, reason });
    if m_x < 1 {
        return invalid("m_x", format!("must be at least 1 (got {m_x})"));
    }
    if m_y < 2 {
        return invalid("m_y", format!("must be at least 2 (got {m_y})"));
    }
    if s < 1 {
        return invalid("s", format!("must be at least 1 (got {s})"));
    }
    let mut clamped = false;
    let mut fraction = |u: usize, m: usize, which: &'static str| -> Result<f64, CoreError> {
        if u == 0 {
            if clamp {
                clamped = true;
                Ok(0.5 / m as f64)
            } else {
                Err(CoreError::Saturated { which })
            }
        } else {
            Ok(u as f64 / m as f64)
        }
    };
    let v_x = fraction(u_x, m_x, "B_x")?;
    let v_y = fraction(u_y, m_y, "B_y")?;
    let v_c = fraction(u_c, m_y, "B_c")?;
    let m = m_y as f64;
    let t = (s as f64 - 1.0) / s as f64;
    let denominator = (-t / m).ln_1p() - (-1.0 / m).ln_1p();
    Ok(Estimate {
        n_c: (v_c.ln() - v_x.ln() - v_y.ln()) / denominator,
        v_x,
        v_y,
        v_c,
        m_x,
        m_y,
        n_x,
        n_y,
        clamped,
    })
}

/// Every field of a decode outcome as raw bits (errors compared whole),
/// so `-0.0` vs `0.0` or a NaN payload drift counts as a difference.
fn outcome_bits(r: &Result<Estimate, CoreError>) -> Result<[u64; 9], CoreError> {
    r.clone().map(|e| {
        [
            e.n_c.to_bits(),
            e.v_x.to_bits(),
            e.v_y.to_bits(),
            e.v_c.to_bits(),
            e.m_x as u64,
            e.m_y as u64,
            e.n_x,
            e.n_y,
            u64::from(e.clamped),
        ]
    })
}

/// A zero count in `0..=m`: `pick` 0 forces a saturated array, 1 an
/// empty one, anything else draws from `raw`.
fn zeros(pick: u8, raw: usize, m: usize) -> usize {
    match pick {
        0 => 0,
        1 => m,
        _ => raw % (m + 1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sizing_rule_is_tight_power_of_two(volume in 0.0f64..1e9, f in 0.1f64..64.0) {
        let sizing = Sizing::LoadFactor(f);
        let m = sizing.size_for(volume).unwrap();
        prop_assert!(m.is_power_of_two());
        prop_assert!(m >= 2);
        let target = volume * f;
        prop_assert!(m as f64 >= target.min(2.0));
        if m > 2 {
            // Tight: half the size would undershoot the target.
            prop_assert!(((m / 2) as f64) < target);
        }
    }

    #[test]
    fn deployment_record_estimate_roundtrip(
        seed in any::<u64>(),
        n_common in 1u64..400,
        n_only in 0u64..400,
    ) {
        // Structural invariants on a live deployment: counters add up,
        // estimates are finite, all-pairs output is consistent with the
        // pairwise API.
        let scheme = Scheme::variable(2, 4.0, seed).unwrap();
        let mut d = scheme
            .deploy(&[(RsuId(1), n_common as f64 + n_only as f64), (RsuId(2), n_common as f64)])
            .unwrap();
        for i in 0..n_common {
            let v = VehicleIdentity::from_raw(i, vcps_hash::splitmix64(seed ^ i));
            d.record(&v, RsuId(1)).unwrap();
            d.record(&v, RsuId(2)).unwrap();
        }
        for i in n_common..n_common + n_only {
            let v = VehicleIdentity::from_raw(i, vcps_hash::splitmix64(seed ^ i));
            d.record(&v, RsuId(1)).unwrap();
        }
        prop_assert_eq!(d.sketch(RsuId(1)).unwrap().count(), n_common + n_only);
        prop_assert_eq!(d.sketch(RsuId(2)).unwrap().count(), n_common);
        let pair = d.estimate_pair_or_clamp(RsuId(1), RsuId(2)).unwrap();
        prop_assert!(pair.n_c.is_finite());
        let all = d.estimate_all_pairs().unwrap();
        prop_assert_eq!(all.len(), 1);
        prop_assert_eq!(all[0].2, pair);
    }

    #[test]
    fn denominator_monotonics(k in 4u32..24, s in 2usize..32) {
        let m_y = 1usize << k;
        let d = denominator(m_y, s);
        prop_assert!(d > 0.0);
        // Larger arrays and larger s both shrink the per-vehicle signal.
        prop_assert!(denominator(m_y * 2, s) < d);
        prop_assert!(denominator(m_y, s + 1) < d);
    }

    #[test]
    fn merge_commutes(
        seed in any::<u64>(),
        xs in prop::collection::vec(any::<u32>(), 0..64),
        ys in prop::collection::vec(any::<u32>(), 0..64),
    ) {
        let m = 256usize;
        let build = |indices: &[u32]| {
            let mut s = RsuSketch::new(RsuId(seed % 7), m).unwrap();
            for &i in indices {
                s.record(i as usize % m).unwrap();
            }
            s
        };
        let mut ab = build(&xs);
        ab.merge(&build(&ys)).unwrap();
        let mut ba = build(&ys);
        ba.merge(&build(&xs)).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn clamped_estimate_always_finite(
        kx in 1u32..8, extra in 0u32..4,
        xs in prop::collection::vec(any::<u32>(), 0..600),
        ys in prop::collection::vec(any::<u32>(), 0..600),
        s in 2usize..10,
    ) {
        // Even adversarially saturated sketches decode to a finite value
        // through the clamped path, and the strict path agrees whenever
        // it succeeds.
        let m_x = 1usize << kx;
        let m_y = m_x << extra;
        let mut a = RsuSketch::new(RsuId(1), m_x).unwrap();
        for &v in &xs { a.record(v as usize % m_x).unwrap(); }
        let mut b = RsuSketch::new(RsuId(2), m_y).unwrap();
        for &v in &ys { b.record(v as usize % m_y).unwrap(); }
        let clamped = estimate_pair_or_clamp(&a, &b, s).unwrap();
        prop_assert!(clamped.n_c.is_finite());
        if let Ok(strict) = estimate_pair(&a, &b, s) {
            prop_assert_eq!(strict, clamped);
            prop_assert!(!strict.clamped);
        } else {
            prop_assert!(clamped.clamped);
        }
    }

    #[test]
    fn scheme_report_index_stable_across_clones(
        seed in any::<u64>(), id in any::<u64>(), key in any::<u64>(), rsu in any::<u64>(),
    ) {
        let scheme = Scheme::variable(3, 2.0, seed).unwrap();
        let clone = scheme.clone();
        let v = VehicleIdentity::from_raw(id, key);
        prop_assert_eq!(
            scheme.report_index(&v, RsuId(rsu), 1 << 10, 1 << 14),
            clone.report_index(&v, RsuId(rsu), 1 << 10, 1 << 14)
        );
    }

    #[test]
    fn split_eq5_keeps_every_bit_and_error_of_the_inline_formula(
        m_x in 0usize..=40,
        shape in 0u8..4,
        shift in 0u32..5,
        odd_m_y in 0usize..=80,
        s in 0usize..8,
        picks in (0u8..4, 0u8..4, 0u8..4),
        raws in (any::<usize>(), any::<usize>(), any::<usize>()),
        n_x in any::<u64>(),
        n_y in any::<u64>(),
    ) {
        // Equal sizes, nested powers of the smaller one, and arbitrary
        // (also non-nested or out-of-domain) larger sizes; `m_x = 0`,
        // `m_y < 2` and `s = 0` fall outside the estimator's domain.
        let m_y = match shape {
            0 => m_x,
            1 => m_x << shift,
            _ => odd_m_y,
        };
        let counts = PairCounts {
            m_x,
            m_y,
            u_x: zeros(picks.0, raws.0, m_x),
            u_y: zeros(picks.1, raws.1, m_y),
            u_c: zeros(picks.2, raws.2, m_y),
            n_x,
            n_y,
        };
        for clamp in [false, true] {
            let frozen = frozen_eq5(&counts, s, clamp);
            let composed = if clamp {
                estimate_from_counts_or_clamp(&counts, s)
            } else {
                estimate_from_counts(&counts, s)
            };
            prop_assert_eq!(outcome_bits(&composed), outcome_bits(&frozen));
            // The batch path: per-array terms and the per-size
            // denominator computed apart, then composed per pair.
            if counts.m_x >= 1 && counts.m_y >= 2 && s >= 1 {
                let term = |u, m| ZeroTerm::new(u, m, clamp);
                let terms = term(counts.u_x, counts.m_x).zip(term(counts.u_y, counts.m_y));
                if let Some((x, y)) = terms {
                    let batch = estimate_from_terms(&counts, x, y, denominator(counts.m_y, s), clamp);
                    prop_assert_eq!(outcome_bits(&batch), outcome_bits(&frozen));
                } else {
                    prop_assert!(!clamp && frozen.is_err());
                }
            }
        }
    }
}
