//! Full-city measurement over the Sioux Falls network.
//!
//! Pipeline: trip table → user-equilibrium assignment → per-vehicle
//! routes → discrete-event simulation of one measurement period (every
//! node hosts an RSU) → central-server estimates for interesting pairs,
//! compared against ground truth.
//!
//! Run with: `cargo run --release --example sioux_falls`

use vcps::roadnet::assignment::{all_or_nothing, msa_equilibrium, pair_volumes, point_volumes};
use vcps::roadnet::{expand_vehicle_trips, sioux_falls};
use vcps::sim::{run_period, Monolith, RunConfig};
use vcps::{RsuId, Scheme};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = sioux_falls::network();
    let trips = sioux_falls::trip_table();
    println!(
        "Sioux Falls: {} nodes, {} arcs, {} trips/day",
        net.node_count(),
        net.link_count(),
        trips.total()
    );

    // Congestion-aware routes: MSA user equilibrium, then one path per
    // OD under the equilibrium travel times.
    let eq = msa_equilibrium(&net, &trips, 60);
    println!(
        "equilibrium: {} iterations, relative gap {:.4}",
        eq.iterations, eq.relative_gap
    );
    let assignment = all_or_nothing(&net, &trips, &eq.link_times);
    let truth_points = point_volumes(&assignment, &trips, net.node_count());
    let truth_pairs = pair_volumes(&assignment, &trips, net.node_count());

    // One vehicle per 4 trips keeps the example fast (~90k vehicles).
    let subsample = 4.0;
    let vehicles = expand_vehicle_trips(&assignment, &trips, subsample);
    println!(
        "simulating {} vehicles through one period...",
        vehicles.len()
    );

    let scheme = Scheme::variable(2, 8.0, 2026)?;
    let history: Vec<f64> = truth_points.iter().map(|v| v / subsample).collect();
    let run = run_period(
        &scheme,
        (&net, &eq.link_times),
        &vehicles,
        &history,
        3_600.0,
        7,
        &RunConfig::new(Monolith),
    )?;
    println!("query/answer exchanges: {}", run.exchanges);

    // Estimate a few pairs against node 10 (the heaviest), Table-I style.
    let y_label = 10;
    let y = sioux_falls::node_index(y_label);
    println!("\npair estimates against node {y_label}:");
    println!("R_x   truth n_c   estimate   error");
    for x_label in [15usize, 12, 7, 24, 18, 3] {
        let x = sioux_falls::node_index(x_label);
        let truth = truth_pairs[x * net.node_count() + y] / subsample;
        let est = run
            .server
            .estimate_or_clamp(RsuId(x as u64), RsuId(y as u64))?;
        println!(
            "{x_label:3}   {truth:9.0}   {:8.0}   {:5.1}%",
            est.n_c,
            est.relative_error(truth).unwrap_or(f64::NAN) * 100.0
        );
    }
    Ok(())
}
