//! An oracle for the all-pairs O–D answer that shares no decode code
//! with it: on a metro period whose arrays were sized by real rollovers,
//! every measured entry — of the server's matrix and of its tag-34 wire
//! form — must equal `vcps_core::estimate_pair_or_clamp` over the same
//! arrays as `RsuSketch`es, bit for bit, at every thread count, on the
//! monolithic and the sharded server.

use vcps_core::estimator::estimate_pair_or_clamp;
use vcps_core::{PairEstimate, RsuId, RsuSketch, Scheme};
use vcps_net::wire::{encode_matrix_response, estimate_bits, Response};
use vcps_sim::{
    build_metro, run_period, run_periods, MetroConfig, Monolith, OdMatrix, PeriodSettings,
    PeriodUpload, RunConfig, Sharded,
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

#[test]
fn measured_od_entries_equal_the_sketch_decode_at_every_thread_count() {
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

    let s = scheme.s();
    let pairs = workload.net.node_count() * (workload.net.node_count() - 1) / 2;
    for threads in [1, 2, 4] {
        let measured = check_against_oracle(
            &format!("monolith, {threads} threads"),
            &mono.server.od_matrix_threads(threads).expect("matrix"),
            |rsu| mono.server.upload(rsu).expect("uploaded").clone(),
            s,
        );
        assert_eq!(measured, pairs, "every pair of a full period is measured");
        let measured = check_against_oracle(
            &format!("3 shards, {threads} threads"),
            &sharded.server.od_matrix_threads(threads).expect("matrix"),
            |rsu| sharded.server.upload(rsu).expect("uploaded").clone(),
            s,
        );
        assert_eq!(measured, pairs, "every pair of a full period is measured");
    }
}
