//! The daemon streams its O–D answer: each chunk of pairs is encoded on
//! the worker that decoded it and the tag-34 response is assembled from
//! the chunks. These properties pin that response, byte for byte, to a
//! reference built one pair at a time through `estimate_or_degraded` —
//! a path that never touches the chunked all-pairs driver — over
//! servers that mix uploaded, history-only, undecodable (`m < 2`) and
//! non-nested RSUs, at every shard and thread count.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use vcps_core::{BitArray, PairEstimate, RsuId, Scheme};
use vcps_net::wire::{
    encode_estimate_response, encode_matrix_entries, estimate_bits, matrix_response_from_chunks,
    Response, RESP_MATRIX,
};
use vcps_sim::{CentralServer, OdAxis, PeriodUpload, ShardedServer, SimError};

/// Array sizes an upload draws from: nested powers of two, plus sizes
/// that nest with neither them (3 against 4) nor each other (6 against
/// 4), which reach the "uploads present but not comparable" arm.
const SIZES: [usize; 12] = [2, 4, 8, 16, 32, 64, 128, 256, 1024, 3, 6, 12];

/// A deterministic stream of draws from one case seed.
struct Draws(u64);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What the server knows about one RSU.
struct RsuSpec {
    rsu: RsuId,
    upload: Option<PeriodUpload>,
    history: Option<f64>,
}

fn upload(rsu: RsuId, m: usize, draws: &mut Draws) -> PeriodUpload {
    let mut bits = BitArray::new(m);
    // Empty, sparse, half-full or saturated (every bit set, so the
    // clamped estimator arm fires too).
    let per_mille = [0, 50, 500, 1000][draws.below(4) as usize];
    for i in 0..m {
        if draws.below(1000) < per_mille {
            bits.set(i);
        }
    }
    PeriodUpload {
        rsu,
        counter: draws.below(2000),
        bits,
    }
}

/// `n` RSUs with spread-out ids. With `broken`, one RSU holds only an
/// undecodable upload and no history; its pairs degrade with its
/// counter, as every undecodable upload's do.
fn specs(n: usize, seed: u64, broken: bool) -> Vec<RsuSpec> {
    let mut draws = Draws(seed);
    let broken = broken.then(|| draws.below(n.max(1) as u64) as usize);
    (0..n)
        .map(|k| {
            let rsu = RsuId(k as u64 * 7 + 1);
            let size = SIZES[draws.below(SIZES.len() as u64) as usize];
            let average = draws.below(1500) as f64;
            match (broken == Some(k), draws.below(8)) {
                (true, _) => RsuSpec {
                    rsu,
                    upload: Some(upload(rsu, 1, &mut draws)),
                    history: None,
                },
                (false, 0..=3) => RsuSpec {
                    rsu,
                    upload: Some(upload(rsu, size, &mut draws)),
                    history: None,
                },
                (false, 4) => RsuSpec {
                    rsu,
                    upload: None,
                    history: Some(average),
                },
                (false, 5) => RsuSpec {
                    rsu,
                    upload: Some(upload(rsu, size, &mut draws)),
                    history: Some(average),
                },
                (false, _) => RsuSpec {
                    rsu,
                    upload: Some(upload(rsu, 1, &mut draws)),
                    history: Some(average),
                },
            }
        })
        .collect()
}

/// The reference tag-34 response and its pairs, built one pair at a
/// time: the tag and `n`; each RSU's axis entry — id, then the length,
/// counter and zero fraction (`u / m`, or half a zero bit over `m` when
/// saturated) of an upload of at least 2 bits, or zeros without one;
/// then each pair's entry — for a measured pair its kind (3 when
/// clamped) and `n̂_c`'s and `V_c`'s bits, otherwise
/// `encode_estimate_response(..)[1..]` — stopping at the first error in
/// pair order.
fn reference(
    rsus: &[RsuId],
    upload_of: impl Fn(RsuId) -> Option<PeriodUpload>,
    estimate_or_degraded: impl Fn(RsuId, RsuId) -> Result<PairEstimate, SimError>,
) -> Result<(Vec<u8>, Vec<PairEstimate>), SimError> {
    let mut bytes = vec![RESP_MATRIX];
    bytes.extend_from_slice(&(rsus.len() as u64).to_be_bytes());
    for &rsu in rsus {
        let (m, n, v) = match upload_of(rsu) {
            Some(u) if u.bits.len() >= 2 => {
                let m = u.bits.len();
                let v = match u.bits.count_zeros() {
                    0 => 0.5 / m as f64,
                    zeros => zeros as f64 / m as f64,
                };
                (m as u64, u.counter, v)
            }
            _ => (0, 0, 0.0),
        };
        for word in [rsu.0, m, n, v.to_bits()] {
            bytes.extend_from_slice(&word.to_be_bytes());
        }
    }
    let mut pairs = Vec::new();
    for (i, &a) in rsus.iter().enumerate() {
        for &b in &rsus[i + 1..] {
            let e = estimate_or_degraded(a, b)?;
            match &e {
                PairEstimate::Measured(m) => {
                    bytes.push(if m.clamped { 3 } else { 0 });
                    bytes.extend_from_slice(&m.n_c.to_bits().to_be_bytes());
                    bytes.extend_from_slice(&m.v_c.to_bits().to_be_bytes());
                }
                PairEstimate::Degraded(_) => {
                    bytes.extend_from_slice(&encode_estimate_response(&e)[1..]);
                }
            }
            pairs.push(e);
        }
    }
    Ok((bytes, pairs))
}

/// Checks one server's streamed response at every thread count against
/// the reference, and the client's decode of it against the reference
/// pairs.
fn check_server(
    label: &str,
    rsus: &[RsuId],
    upload_of: impl Fn(RsuId) -> Option<PeriodUpload>,
    estimate_or_degraded: impl Fn(RsuId, RsuId) -> Result<PairEstimate, SimError>,
    od_chunks: impl Fn(usize) -> Result<(Vec<OdAxis>, Vec<Vec<u8>>), SimError>,
) -> Result<(), TestCaseError> {
    let want = reference(rsus, upload_of, estimate_or_degraded);
    let ids: Vec<u64> = rsus.iter().map(|r| r.0).collect();
    for threads in [1, 2, 4, 8] {
        let streamed = od_chunks(threads).map(|(axes, chunks)| {
            let ids: Vec<RsuId> = axes.iter().map(|axis| axis.rsu).collect();
            (matrix_response_from_chunks(&axes, &chunks), ids)
        });
        match (&want, streamed) {
            (Err(want), Err(got)) => {
                prop_assert_eq!(
                    want,
                    &got,
                    "{}: errors differ at {} threads",
                    label,
                    threads
                );
            }
            (Ok((want_bytes, pairs)), Ok((bytes, axes))) => {
                prop_assert_eq!(&axes, rsus);
                prop_assert!(
                    bytes == *want_bytes,
                    "{}: streamed bytes differ at {} threads",
                    label,
                    threads
                );
                let Ok(Response::Matrix(matrix)) = Response::decode(&bytes) else {
                    return Err(TestCaseError::fail(format!("{label}: not a matrix")));
                };
                prop_assert_eq!(&matrix.rsus, &ids);
                prop_assert_eq!(matrix.entries.len(), pairs.len());
                for (k, (entry, e)) in matrix.entries.iter().zip(pairs).enumerate() {
                    prop_assert_eq!(
                        entry.as_ref().map(estimate_bits),
                        Some(estimate_bits(e)),
                        "{}: decoded pair {} differs",
                        label,
                        k
                    );
                }
            }
            (want, got) => {
                return Err(TestCaseError::fail(format!(
                    "{label} at {threads} threads: reference {:?} vs streamed {:?}",
                    want.as_ref().map(|(bytes, _)| bytes.len()),
                    got.map(|(bytes, _)| bytes.len())
                )));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streamed_matrix_response_is_byte_identical_to_the_pairwise_reference(
        n in 0usize..=110,
        seed in any::<u64>(),
        s in 2usize..4,
        broken in 0u8..4,
    ) {
        let specs = specs(n, seed, broken == 0);
        let scheme = Scheme::variable(s, 2.0, seed).unwrap();
        let mut rsus: Vec<RsuId> = specs.iter().map(|spec| spec.rsu).collect();
        rsus.sort_unstable();

        let mut mono = CentralServer::new(scheme.clone(), 0.5).unwrap();
        for spec in &specs {
            if let Some(average) = spec.history {
                mono.seed_history(spec.rsu, average);
            }
            if let Some(upload) = &spec.upload {
                mono.receive(upload.clone());
            }
        }
        check_server(
            "monolith",
            &rsus,
            |rsu| mono.upload(rsu).cloned(),
            |a, b| mono.estimate_or_degraded(a, b),
            |threads| mono.od_chunks_threads(threads, encode_matrix_entries),
        )?;

        for shards in [1, 2, 4] {
            let mut sharded = ShardedServer::new(scheme.clone(), 0.5, shards).unwrap();
            for spec in &specs {
                if let Some(average) = spec.history {
                    sharded.seed_history(spec.rsu, average);
                }
                if let Some(upload) = &spec.upload {
                    sharded.receive(upload.clone());
                }
            }
            check_server(
                &format!("{shards} shards"),
                &rsus,
                |rsu| sharded.upload(rsu).cloned(),
                |a, b| sharded.estimate_or_degraded(a, b),
                |threads| sharded.od_chunks_threads(threads, encode_matrix_entries),
            )?;
        }
    }
}
