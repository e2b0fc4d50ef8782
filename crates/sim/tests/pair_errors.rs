//! The single-pair estimates of both servers against the core estimator.
//!
//! `CentralServer::estimate` and `ShardedServer::estimate` decode from
//! per-RSU rows prepared for the all-pairs driver; `vcps_core`'s
//! `estimate_pair` decodes two `RsuSketch`es directly. Over the same
//! arrays the two must agree exactly — every value bit for bit, and
//! every error, in the same order: a kernel error for sizes that do not
//! nest (`NotAMultiple`) before any saturation, then a saturated `B_x`,
//! `B_y`, `B_c`. The clamping variants must agree the same way.

use vcps_bitarray::BitArrayError;
use vcps_core::estimator::{estimate_pair, estimate_pair_or_clamp};
use vcps_core::{BitArray, CoreError, Estimate, RsuId, RsuSketch, Scheme};
use vcps_sim::{CentralServer, PeriodUpload, ShardedServer, SimError};

/// One RSU's upload: its id, array length, set bits and counter.
struct Spec {
    rsu: u64,
    m: usize,
    ones: Vec<usize>,
    counter: u64,
}

fn spec(rsu: u64, m: usize, ones: impl IntoIterator<Item = usize>, counter: u64) -> Spec {
    Spec {
        rsu,
        m,
        ones: ones.into_iter().collect(),
        counter,
    }
}

impl Spec {
    fn bits(&self) -> BitArray {
        let mut bits = BitArray::new(self.m);
        for &i in &self.ones {
            bits.set(i);
        }
        bits
    }

    fn upload(&self) -> PeriodUpload {
        PeriodUpload {
            rsu: RsuId(self.rsu),
            counter: self.counter,
            bits: self.bits(),
        }
    }

    fn sketch(&self) -> RsuSketch {
        RsuSketch::from_parts(RsuId(self.rsu), self.bits(), self.counter).expect("m >= 2")
    }
}

/// Every field of an estimate as raw bits, so `-0.0` and `0.0` differ.
fn bits(e: &Estimate) -> [u64; 9] {
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
}

fn same(got: &Result<Estimate, SimError>, want: &Result<Estimate, CoreError>) -> bool {
    match (got, want) {
        (Ok(g), Ok(w)) => bits(g) == bits(w),
        (Err(g), Err(w)) => *g == SimError::Core(w.clone()),
        _ => false,
    }
}

/// The pairs under test: each `(a, b)` with the error `estimate_pair`
/// must return for it (`None` for a clean pair).
fn pairs() -> Vec<(Spec, Spec, Option<CoreError>)> {
    let saturated = |which| Some(CoreError::Saturated { which });
    let not_a_multiple = |source, target| {
        Some(CoreError::BitArray(BitArrayError::NotAMultiple {
            source,
            target,
        }))
    };
    vec![
        // B_x saturated: the smaller array is full.
        (
            spec(1, 8, 0..8, 9),
            spec(2, 64, [3, 40], 2),
            saturated("B_x"),
        ),
        // B_y saturated: the larger array is full (B_c with it).
        (spec(3, 8, [1], 1), spec(4, 64, 0..64, 70), saturated("B_y")),
        // Both full: B_x is reported first.
        (
            spec(5, 16, 0..16, 20),
            spec(6, 16, 0..16, 20),
            saturated("B_x"),
        ),
        // B_c saturated alone: unfold(B_x) covers 0–3 and 8–11, B_y
        // everything but bit 0.
        (
            spec(7, 8, 0..4, 4),
            spec(8, 16, 1..16, 15),
            saturated("B_c"),
        ),
        // Sizes that do not nest: 3 against 4 bits.
        (
            spec(9, 3, [0], 1),
            spec(10, 4, [2], 1),
            not_a_multiple(3, 4),
        ),
        // Not nested and saturated: the kernel error comes first.
        (
            spec(11, 3, 0..3, 3),
            spec(12, 4, 0..4, 4),
            not_a_multiple(3, 4),
        ),
        // Clean pairs: nested sizes, equal sizes (tie-broken by counter,
        // then id), and the empty period.
        (spec(13, 16, [1, 5], 2), spec(14, 64, [1, 17, 40], 3), None),
        (spec(15, 64, [2, 9, 33], 3), spec(16, 64, [9, 10], 2), None),
        (spec(17, 64, [4], 7), spec(18, 64, [60], 7), None),
        (spec(19, 64, [], 0), spec(20, 64, [], 0), None),
        (
            spec(21, 256, (0..256).step_by(3), 90),
            spec(22, 1024, (0..1024).step_by(5), 210),
            None,
        ),
    ]
}

#[test]
fn single_pair_estimates_equal_the_core_estimator_values_and_errors() {
    let scheme = Scheme::variable(2, 3.0, 7).expect("valid scheme");
    let s = scheme.s();
    let cases = pairs();
    let mut mono = CentralServer::new(scheme.clone(), 0.5).expect("valid alpha");
    let mut sharded: Vec<ShardedServer> = [1, 2, 3]
        .into_iter()
        .map(|k| ShardedServer::new(scheme.clone(), 0.5, k).expect("valid shards"))
        .collect();
    for (a, b, _) in &cases {
        for spec in [a, b] {
            mono.receive(spec.upload());
            for server in &mut sharded {
                server.receive(spec.upload());
            }
        }
    }

    for (a, b, expected) in &cases {
        let (sa, sb) = (a.sketch(), b.sketch());
        let (ra, rb) = (RsuId(a.rsu), RsuId(b.rsu));
        for (x, y, sx, sy) in [(ra, rb, &sa, &sb), (rb, ra, &sb, &sa)] {
            let want = estimate_pair(sx, sy, s);
            assert_eq!(want.as_ref().err(), expected.as_ref(), "({x}, {y})");
            let want_clamped = estimate_pair_or_clamp(sx, sy, s);

            let mut answers = vec![(
                "monolith".to_string(),
                mono.estimate(x, y),
                mono.estimate_or_clamp(x, y),
            )];
            for server in &sharded {
                answers.push((
                    format!("{} shards", server.shard_count()),
                    server.estimate(x, y),
                    server.estimate_or_clamp(x, y),
                ));
            }
            for (label, got, got_clamped) in answers {
                assert!(
                    same(&got, &want),
                    "{label} ({x}, {y}): estimate {got:?}, estimate_pair {want:?}"
                );
                assert!(
                    same(&got_clamped, &want_clamped),
                    "{label} ({x}, {y}): estimate_or_clamp {got_clamped:?}, \
                     estimate_pair_or_clamp {want_clamped:?}"
                );
            }
        }
    }
}
