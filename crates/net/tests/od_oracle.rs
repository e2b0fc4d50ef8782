//! An oracle for the all-pairs O–D answer that shares no decode code
//! with it: on a metro period whose arrays were sized by real rollovers,
//! every measured entry — of the server's matrix and of its tag-34 wire
//! form — must equal `vcps_core::estimate_pair_or_clamp` over the same
//! arrays as `RsuSketch`es, bit for bit, at every thread count, on the
//! monolithic and the sharded server.
//!
//! The same period also freezes tag 34 itself: the bytes the daemon
//! sends for it, and the bits the client decodes from them, are pinned
//! to FNV-1a digests.

use vcps_core::estimator::estimate_pair_or_clamp;
use vcps_core::{PairEstimate, RsuId, RsuSketch, Scheme};
use vcps_net::wire::{
    encode_matrix_entries, encode_matrix_response, estimate_bits, read_frame, MatrixFrame, Response,
};
use vcps_sim::{
    build_metro, run_period, run_periods, CentralServer, MetroConfig, Monolith, OdMatrix,
    PeriodSettings, PeriodUpload, RunConfig, Sharded, ShardedServer,
};

/// Checks every measured entry of `matrix` — and of its decoded tag-34
/// response — against the sketch-based decode of the two uploads.
/// Returns how many entries were measured.
fn check_against_oracle(
    label: &str,
    matrix: &OdMatrix,
    upload_of: impl Fn(RsuId) -> PeriodUpload,
    s: usize,
) -> usize {
    let Ok(Response::Matrix(wire)) = Response::decode(&encode_matrix_response(matrix)) else {
        panic!("{label}: the matrix response does not decode");
    };
    let sketch = |rsu| {
        let upload = upload_of(rsu);
        RsuSketch::from_parts(rsu, upload.bits, upload.counter).expect("decodable upload")
    };
    let n = matrix.len();
    let mut measured = 0;
    for i in 0..n {
        for j in i + 1..n {
            let entry = matrix.at(i, j).expect("covered pair");
            if entry.is_degraded() {
                continue;
            }
            let (a, b) = (matrix.rsus()[i], matrix.rsus()[j]);
            let oracle = PairEstimate::Measured(
                estimate_pair_or_clamp(&sketch(a), &sketch(b), s).expect("nested sizes"),
            );
            assert_eq!(
                estimate_bits(entry),
                estimate_bits(&oracle),
                "{label}: pair ({a}, {b})"
            );
            assert_eq!(
                wire.at(i, j).as_ref().map(estimate_bits),
                Some(estimate_bits(&oracle)),
                "{label}: wire pair ({a}, {b})"
            );
            measured += 1;
        }
    }
    measured
}

/// The oracle's period: a 64-RSU metro city's third period, recorded
/// at the sizes two rollovers chose, on the monolith and on 3 shards.
/// Also returns the scheme's `s` and the city's pair count.
fn metro_period() -> (CentralServer, ShardedServer, usize, usize) {
    let workload = build_metro(&MetroConfig {
        rsus: 64,
        periods: 3,
        total_trips: 4_000.0,
        msa_iterations: 2,
        seed: 0x0AC1E,
        ..MetroConfig::default()
    });
    let scheme = Scheme::variable(2, 3.0, 0x0AC1E).expect("valid scheme");
    let roads = (&workload.net, &workload.net.free_flow_times()[..]);
    // Two periods and their rollovers, then the third period recorded at
    // the sizes the rollovers chose.
    let settings = PeriodSettings {
        history_alpha: 1.0,
        ..PeriodSettings::default()
    };
    let before = run_periods(
        &scheme,
        roads,
        &workload.periods[..2],
        &workload.initial_history,
        &settings,
        1,
        &RunConfig::new(Monolith),
    )
    .expect("first two periods");
    let history: Vec<f64> = (0..workload.net.node_count() as u64)
        .map(|node| {
            before
                .server
                .history()
                .average(RsuId(node))
                .expect("every RSU uploaded")
        })
        .collect();
    let (trips, period, seed) = (&workload.periods[2], settings.period_length, settings.seed);
    let mono = run_period(
        &scheme,
        roads,
        trips,
        &history,
        period,
        seed,
        &RunConfig::new(Monolith),
    )
    .expect("monolithic period");
    let sharded = run_period(
        &scheme,
        roads,
        trips,
        &history,
        period,
        seed,
        &RunConfig::new(Sharded(3)),
    )
    .expect("sharded period");
    let sizes: std::collections::BTreeSet<usize> = (0..workload.net.node_count() as u64)
        .map(|node| {
            mono.server
                .upload(RsuId(node))
                .expect("uploaded")
                .bits
                .len()
        })
        .collect();
    assert!(sizes.len() >= 3, "rollover sizes vary: {sizes:?}");
    let pairs = workload.net.node_count() * (workload.net.node_count() - 1) / 2;
    (mono.server, sharded.server, scheme.s(), pairs)
}

#[test]
fn measured_od_entries_equal_the_sketch_decode_at_every_thread_count() {
    let (mono, sharded, s, pairs) = metro_period();
    for threads in [1, 2, 4] {
        let measured = check_against_oracle(
            &format!("monolith, {threads} threads"),
            &mono.od_matrix_threads(threads).expect("matrix"),
            |rsu| mono.upload(rsu).expect("uploaded").clone(),
            s,
        );
        assert_eq!(measured, pairs, "every pair of a full period is measured");
        let measured = check_against_oracle(
            &format!("3 shards, {threads} threads"),
            &sharded.od_matrix_threads(threads).expect("matrix"),
            |rsu| sharded.upload(rsu).expect("uploaded").clone(),
            s,
        );
        assert_eq!(measured, pairs, "every pair of a full period is measured");
    }
}

/// FNV-1a, 64-bit, as the run driver's golden digests fold their
/// outputs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of the tag-34 payload the daemon sends for the period.
const TAG34_BYTES_DIGEST: u64 = 0x7dd6_e407_a822_1317;
/// Length of that payload: 9 header bytes, 64 axis entries of 32 bytes
/// and 2,016 measured entries of 17 bytes.
const TAG34_BYTES_LEN: usize = 9 + 64 * 32 + 2_016 * 17;
/// Digest of `estimate_bits` over every entry the client decodes from
/// it, in pair order.
const TAG34_DECODED_DIGEST: u64 = 0x5b73_f39f_b778_5d73;

/// Tag 34 as the daemon answers an O–D query — the driver streaming
/// each chunk through the entry encoder, written after the daemon's
/// header as one frame — and as the client decodes it, is frozen: the
/// same bytes and the same decoded bits at 1, 2 and 4 threads, on the
/// monolith and on 3 shards.
#[test]
fn tag34_bytes_and_decoded_bits_are_frozen() {
    let (mono, sharded, _, pairs) = metro_period();
    for threads in [1, 2, 4] {
        for (label, streamed) in [
            (
                "monolith",
                mono.od_chunks_threads(threads, encode_matrix_entries),
            ),
            (
                "3 shards",
                sharded.od_chunks_threads(threads, encode_matrix_entries),
            ),
        ] {
            let (axes, chunks) = streamed.expect("streamed answer");
            let mut frame = Vec::new();
            MatrixFrame::new(&axes, chunks)
                .write(&mut frame)
                .expect("writes");
            let payload = read_frame(&mut frame.as_slice(), u64::MAX).expect("one frame");
            let mut sent = Fnv::new();
            sent.bytes(&payload);
            assert_eq!(payload.len(), TAG34_BYTES_LEN, "{label}, {threads} threads");
            assert_eq!(
                sent.0, TAG34_BYTES_DIGEST,
                "{label}, {threads} threads: tag-34 bytes {:#018x}",
                sent.0
            );

            let Ok(Response::Matrix(wire)) = Response::decode(&payload) else {
                panic!("{label}, {threads} threads: tag 34 does not decode");
            };
            assert_eq!(wire.entries.len(), pairs);
            let mut decoded = Fnv::new();
            for entry in &wire.entries {
                let bits = entry
                    .as_ref()
                    .map(estimate_bits)
                    .expect("every pair measured");
                for word in bits {
                    decoded.u64(word);
                }
            }
            assert_eq!(
                decoded.0, TAG34_DECODED_DIGEST,
                "{label}, {threads} threads: decoded bits {:#018x}",
                decoded.0
            );
        }
    }
}
