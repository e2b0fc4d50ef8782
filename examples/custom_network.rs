//! Bring your own network: define a TNTP instance (the transportation
//! community's standard text format), load it, and run the measurement
//! scheme on it — the workflow a transportation engineer would use with
//! their own city's files.
//!
//! Run with: `cargo run --release --example custom_network`

use vcps::roadnet::assignment::{all_or_nothing, pair_volumes, point_volumes};
use vcps::roadnet::{expand_vehicle_trips, tntp};
use vcps::sim::{run_period, Monolith, RunConfig};
use vcps::{RsuId, Scheme};

/// A small fictional town: two arterials around a river crossing.
const NET: &str = "\
<NUMBER OF NODES> 6
<NUMBER OF LINKS> 14
<END OF METADATA>
~ from to capacity length fft b power speed toll type ;
 1 2 8000 1 4 0.15 4 0 0 1 ;
 2 1 8000 1 4 0.15 4 0 0 1 ;
 2 3 6000 1 3 0.15 4 0 0 1 ;
 3 2 6000 1 3 0.15 4 0 0 1 ;
 3 4 4000 1 2 0.15 4 0 0 1 ;
 4 3 4000 1 2 0.15 4 0 0 1 ;
 4 5 6000 1 3 0.15 4 0 0 1 ;
 5 4 6000 1 3 0.15 4 0 0 1 ;
 5 6 8000 1 4 0.15 4 0 0 1 ;
 6 5 8000 1 4 0.15 4 0 0 1 ;
 2 5 2000 1 9 0.15 4 0 0 1 ;
 5 2 2000 1 9 0.15 4 0 0 1 ;
 1 6 1500 1 14 0.15 4 0 0 1 ;
 6 1 1500 1 14 0.15 4 0 0 1 ;
";

const TRIPS: &str = "\
<NUMBER OF ZONES> 6
<END OF METADATA>
Origin 1
    3 : 2500;    4 : 1800;    6 : 3200;
Origin 3
    1 : 2200;    6 : 1500;
Origin 6
    1 : 3000;    4 : 1200;
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = tntp::parse_network(NET)?;
    let trips = tntp::parse_trips(TRIPS)?;
    println!(
        "custom town: {} nodes, {} arcs, {} trips/day",
        net.node_count(),
        net.link_count(),
        trips.total()
    );

    let assignment = all_or_nothing(&net, &trips, &net.free_flow_times());
    let volumes = point_volumes(&assignment, &trips, net.node_count());
    let truth = pair_volumes(&assignment, &trips, net.node_count());
    println!("point volumes per RSU site: {volumes:?}");

    // Every node gets an RSU; one measurement period.
    let vehicles = expand_vehicle_trips(&assignment, &trips, 1.0);
    let scheme = Scheme::variable(2, 10.0, 77)?;
    let run = run_period(
        &scheme,
        (&net, &net.free_flow_times()),
        &vehicles,
        &volumes,
        3_600.0,
        77,
        &RunConfig::new(Monolith),
    )?;
    println!("simulated {} vehicles\n", vehicles.len());

    println!("pair   truth   estimate   error");
    let n = net.node_count();
    for (a, b) in [(0usize, 2usize), (0, 5), (2, 5), (1, 4)] {
        let t = truth[a * n + b];
        let est = run
            .server
            .estimate_or_clamp(RsuId(a as u64), RsuId(b as u64))?;
        println!(
            "({},{})  {t:6.0}   {:8.0}   {:5.1}%",
            a + 1,
            b + 1,
            est.n_c,
            est.relative_error(t).unwrap_or(f64::NAN) * 100.0
        );
    }
    println!("\n(the river crossing 3-4 is shared by every east-west trip,");
    println!(" so pairs spanning it show high point-to-point volume)");
    Ok(())
}
