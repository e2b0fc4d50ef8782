//! Measurement over a synthetic city: generated grid network, gravity
//! demand, all-pairs decoding, and turning movements at the busiest
//! intersection.
//!
//! This is the "larger network where traffic is randomly generated" of
//! the paper's §VII-B, as a reusable pipeline.
//!
//! Run with: `cargo run --release --example generated_city`

use vcps::roadnet::assignment::{all_or_nothing, pair_volumes, point_volumes, turning_movements};
use vcps::roadnet::expand_vehicle_trips;
use vcps::roadnet::generate::{gravity_trips, grid_network, GridSpec};
use vcps::sim::{run_period, Monolith, RunConfig};
use vcps::{RsuId, Scheme};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 7x7 city with demand spanning two orders of magnitude.
    let spec = GridSpec {
        width: 7,
        height: 7,
        ..GridSpec::default()
    };
    let seed = 2026;
    let net = grid_network(&spec, seed);
    let trips = gravity_trips(net.node_count(), 250_000.0, (1.0, 80.0), seed);
    println!(
        "generated city: {} nodes, {} arcs, {} trips",
        net.node_count(),
        net.link_count(),
        trips.total()
    );

    let assignment = all_or_nothing(&net, &trips, &net.free_flow_times());
    let volumes = point_volumes(&assignment, &trips, net.node_count());
    let truth = pair_volumes(&assignment, &trips, net.node_count());
    let busiest = volumes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .expect("nonempty")
        .0;
    let max = volumes.iter().copied().fold(0.0f64, f64::max);
    let min = volumes.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "point volumes: min {min:.0}, max {max:.0} (skew {:.1}x), busiest node {busiest}",
        max / min
    );

    // One measurement period through the discrete-event engine, at 1/5
    // subsample to keep the example snappy.
    let subsample = 5.0;
    let vehicles = expand_vehicle_trips(&assignment, &trips, subsample);
    let scheme = Scheme::variable(2, 8.0, seed)?;
    let history: Vec<f64> = volumes.iter().map(|v| v / subsample).collect();
    let run = run_period(
        &scheme,
        (&net, &net.free_flow_times()),
        &vehicles,
        &history,
        1_800.0,
        seed,
        &RunConfig::new(Monolith),
    )?;
    println!(
        "simulated {} vehicles, {} exchanges",
        vehicles.len(),
        run.exchanges
    );

    // Decode the five heaviest pairs and compare with ground truth.
    let n = net.node_count();
    let mut pairs: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b, 0.0)))
        .map(|(a, b, _)| (a, b, truth[a * n + b] / subsample))
        .collect();
    pairs.sort_by(|x, y| y.2.total_cmp(&x.2));
    println!("\nheaviest node pairs (truth vs estimate):");
    println!("pair        truth   estimate   error");
    for &(a, b, t) in pairs.iter().take(5) {
        let est = run
            .server
            .estimate_or_clamp(RsuId(a as u64), RsuId(b as u64))?;
        println!(
            "({a:2},{b:2})  {t:8.0}   {:8.0}   {:5.1}%",
            est.n_c,
            est.relative_error(t).unwrap_or(f64::NAN) * 100.0
        );
    }

    // Signal-timing input: turning movements at the busiest node.
    println!("\nturning movements at node {busiest} (top 5):");
    for m in turning_movements(&assignment, &trips, busiest)
        .iter()
        .take(5)
    {
        let from = m.from.map_or("origin".to_string(), |n| format!("node {n}"));
        let to =
            m.to.map_or("destination".to_string(), |n| format!("node {n}"));
        println!("  {from:>12} -> {to:<12} {:8.0} veh", m.volume);
    }
    Ok(())
}
