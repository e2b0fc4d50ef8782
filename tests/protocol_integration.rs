//! Protocol-level integration: PKI, wire messages, the discrete-event
//! engine, and a full Sioux Falls measurement period.

use vcps::roadnet::assignment::{all_or_nothing, pair_volumes, point_volumes};
use vcps::roadnet::{expand_vehicle_trips, sioux_falls};
use vcps::sim::pki::TrustedAuthority;
use vcps::sim::protocol::{BitReport, PeriodUpload, Query};
use vcps::sim::MacAddress;
use vcps::sim::{run_period, Monolith, RunConfig};
use vcps::{RsuId, Scheme, SimError, SimRsu, SimVehicle, VehicleIdentity};

#[test]
fn full_query_answer_upload_cycle_over_the_wire() {
    let scheme = Scheme::variable(2, 3.0, 5).unwrap();
    let authority = TrustedAuthority::new(1);
    let mut rsu = SimRsu::new(RsuId(3), 1 << 10, &authority).unwrap();

    // Query travels over the wire to the vehicle...
    let query_wire = rsu.query().encode();
    let query = Query::decode(&query_wire).unwrap();

    // ...the vehicle answers over the wire...
    let mut vehicle = SimVehicle::new(VehicleIdentity::from_raw(7, 8), 99);
    let report_wire = vehicle
        .answer(&query, &scheme, &authority, 1 << 14)
        .unwrap()
        .encode();
    let report = BitReport::decode(&report_wire).unwrap();
    rsu.receive(&report).unwrap();

    // ...and the upload reaches the server intact.
    let upload = PeriodUpload::decode(&rsu.upload().encode()).unwrap();
    assert_eq!(upload.rsu, RsuId(3));
    assert_eq!(upload.counter, 1);
    assert_eq!(upload.bits.count_ones(), 1);
    assert!(upload.bits.get(report.index as usize));
}

#[test]
fn vehicles_stay_silent_toward_untrusted_rsus() {
    let scheme = Scheme::variable(2, 3.0, 5).unwrap();
    let good_ca = TrustedAuthority::new(1);
    let rogue_ca = TrustedAuthority::new(666);
    let rogue_rsu = SimRsu::new(RsuId(13), 1 << 10, &rogue_ca).unwrap();

    let mut vehicle = SimVehicle::new(VehicleIdentity::from_raw(7, 8), 99);
    let result = vehicle.answer(&rogue_rsu.query(), &scheme, &good_ca, 1 << 14);
    assert_eq!(
        result,
        Err(SimError::CertificateRejected { rsu: RsuId(13) })
    );
}

#[test]
fn reports_expose_only_mac_and_index() {
    // The whole privacy argument rests on the vehicle→RSU message
    // carrying nothing but a one-time MAC and a bit index; pin the wire
    // format so it cannot silently grow an identifier.
    let report = BitReport {
        mac: MacAddress([0x02, 1, 2, 3, 4, 5]),
        index: 0x0102_0304,
    };
    let wire = report.encode();
    assert_eq!(wire.len(), 1 + 6 + 8, "tag + MAC + index, nothing else");
}

#[test]
fn same_vehicle_uses_fresh_mac_each_answer() {
    let scheme = Scheme::variable(2, 3.0, 5).unwrap();
    let authority = TrustedAuthority::new(1);
    let rsu = SimRsu::new(RsuId(3), 1 << 10, &authority).unwrap();
    let mut vehicle = SimVehicle::new(VehicleIdentity::from_raw(7, 8), 99);
    let query = rsu.query();
    let a = vehicle
        .answer(&query, &scheme, &authority, 1 << 14)
        .unwrap();
    let b = vehicle
        .answer(&query, &scheme, &authority, 1 << 14)
        .unwrap();
    assert_eq!(a.index, b.index, "same bit for the same RSU");
    assert_ne!(a.mac, b.mac, "different link-layer identity");
}

#[test]
fn sioux_falls_period_estimates_track_assignment_ground_truth() {
    // End-to-end Table-I pipeline at 1/40 scale: assignment → vehicles →
    // DES → uploads → pairwise estimates vs ground truth.
    let net = sioux_falls::network();
    let trips = sioux_falls::trip_table();
    let assignment = all_or_nothing(&net, &trips, &net.free_flow_times());
    let subsample = 40.0;
    let vehicles = expand_vehicle_trips(&assignment, &trips, subsample);
    assert!(
        vehicles.len() > 5_000,
        "enough vehicles: {}",
        vehicles.len()
    );

    let truth_points = point_volumes(&assignment, &trips, net.node_count());
    let truth_pairs = pair_volumes(&assignment, &trips, net.node_count());
    let history: Vec<f64> = truth_points.iter().map(|v| v / subsample).collect();

    let scheme = Scheme::variable(2, 8.0, 17).unwrap();
    let run = run_period(
        &scheme,
        (&net, &net.free_flow_times()),
        &vehicles,
        &history,
        600.0,
        3,
        &RunConfig::new(Monolith),
    )
    .unwrap();
    assert_eq!(run.server.upload_count(), net.node_count());

    // The heaviest pair (15, 10) carries the most common traffic; its
    // estimate should be in the right ballpark despite the small scale.
    let (x, y) = (sioux_falls::node_index(15), sioux_falls::node_index(10));
    let truth = truth_pairs[x * net.node_count() + y] / subsample;
    let estimate = run
        .server
        .estimate_or_clamp(RsuId(x as u64), RsuId(y as u64))
        .unwrap();
    let rel = estimate.relative_error(truth).unwrap();
    assert!(
        rel < 0.5,
        "estimate {} vs truth {truth} (rel {rel})",
        estimate.n_c
    );

    // Counters equal the number of vehicles whose route passes the node.
    let sketch_count = estimate.n_y.max(estimate.n_x);
    let expected = (truth_points[y] / subsample).round() as u64;
    let counter_rel = (sketch_count as f64 - expected as f64).abs() / (expected as f64);
    assert!(
        counter_rel < 0.05,
        "counter {sketch_count} vs expected {expected}"
    );
}

#[test]
fn missing_upload_is_a_typed_error() {
    let scheme = Scheme::variable(2, 3.0, 5).unwrap();
    let server = vcps::CentralServer::new(scheme, 0.5).unwrap();
    assert_eq!(
        server.estimate(RsuId(1), RsuId(2)),
        Err(SimError::MissingUpload { rsu: RsuId(1) })
    );
}
