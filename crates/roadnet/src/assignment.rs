//! Traffic assignment: all-or-nothing, MSA user equilibrium, and the node
//! statistics the measurement scheme consumes.
//!
//! The paper generates traffic "according to the known vehicle trip table
//! … under the Sioux Falls network" (§VII-A). Assignment turns the trip
//! table into per-OD routes; from routes we get each node's *point
//! volume* `n_x` (vehicles passing an RSU) and each node pair's
//! *point-to-point volume* `n_c` (vehicles passing both) — the ground
//! truth the privacy-preserving estimator is judged against.

use std::collections::BTreeMap;

use crate::bpr;
use crate::shortest_path::shortest_path;
use crate::{RoadNetwork, TripTable};

/// The result of routing every OD pair along a single path.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Node path (origin..=dest) per OD pair with positive demand.
    pub paths: BTreeMap<(usize, usize), Vec<usize>>,
    /// Flow on each link (by link index).
    pub link_flows: Vec<f64>,
    /// Demand that could not be routed (unreachable destinations).
    pub unrouted_demand: f64,
}

/// All-or-nothing assignment: every OD pair takes the single cheapest
/// path under the given per-link `costs`.
///
/// # Panics
///
/// Panics if `costs.len() != net.link_count()` or the trip table
/// dimension does not match the network.
#[must_use]
pub fn all_or_nothing(net: &RoadNetwork, trips: &TripTable, costs: &[f64]) -> Assignment {
    assert_eq!(
        trips.node_count(),
        net.node_count(),
        "trip table must match network"
    );
    let mut link_flows = vec![0.0; net.link_count()];
    let mut paths = BTreeMap::new();
    let mut unrouted = 0.0;
    for origin in 0..net.node_count() {
        if trips.row_total(origin) == 0.0 {
            continue;
        }
        let sp = shortest_path(net, origin, costs).expect("origin validated above");
        for dest in 0..net.node_count() {
            let demand = trips.demand(origin, dest);
            if demand <= 0.0 || dest == origin {
                continue;
            }
            match (sp.path_to(net, dest), sp.links_to(net, dest)) {
                (Ok(nodes), Ok(links)) => {
                    for link in links {
                        link_flows[link] += demand;
                    }
                    paths.insert((origin, dest), nodes);
                }
                _ => unrouted += demand,
            }
        }
    }
    Assignment {
        paths,
        link_flows,
        unrouted_demand: unrouted,
    }
}

/// A user-equilibrium solution computed by the method of successive
/// averages (MSA).
#[derive(Debug, Clone, PartialEq)]
pub struct Equilibrium {
    /// Equilibrium link flows.
    pub link_flows: Vec<f64>,
    /// BPR link travel times at those flows.
    pub link_times: Vec<f64>,
    /// Relative gap `(TSTT − SPTT)/SPTT` at the last iteration (0 =
    /// perfect equilibrium).
    pub relative_gap: f64,
    /// Iterations performed.
    pub iterations: usize,
}

/// Solves approximate user equilibrium with MSA:
/// `flows ← (1 − 1/k)·flows + (1/k)·AON(BPR times(flows))`.
///
/// LeBlanc's 1975 paper — the source of the Sioux Falls instance — is
/// precisely about this equilibrium problem, so we solve it rather than
/// assume free flow. `max_iterations` of 50–100 reaches a relative gap
/// of a few percent, ample for generating measurement workloads.
///
/// # Panics
///
/// Panics if the trip table dimension does not match the network or
/// `max_iterations == 0`.
#[must_use]
pub fn msa_equilibrium(net: &RoadNetwork, trips: &TripTable, max_iterations: usize) -> Equilibrium {
    assert!(max_iterations > 0, "need at least one iteration");
    let mut flows = vec![0.0; net.link_count()];
    let mut gap = f64::INFINITY;
    let mut iterations = 0;
    for k in 1..=max_iterations {
        let times = bpr::link_times(net, &flows);
        let aon = all_or_nothing(net, trips, &times);
        // Relative gap before the averaging step.
        let tstt: f64 = flows.iter().zip(&times).map(|(f, t)| f * t).sum();
        let sptt: f64 = aon.link_flows.iter().zip(&times).map(|(f, t)| f * t).sum();
        gap = if sptt > 0.0 {
            (tstt - sptt) / sptt
        } else {
            0.0
        };
        let step = 1.0 / k as f64;
        for (f, a) in flows.iter_mut().zip(&aon.link_flows) {
            *f = (1.0 - step) * *f + step * a;
        }
        iterations = k;
        if k > 1 && gap.abs() < 1e-4 {
            break;
        }
    }
    let link_times = bpr::link_times(net, &flows);
    Equilibrium {
        link_flows: flows,
        link_times,
        relative_gap: gap,
        iterations,
    }
}

/// Incremental assignment: loads the demand in `increments` equal
/// slices, re-computing congested travel times (BPR) between slices — a
/// classic middle ground between all-or-nothing and full equilibrium.
///
/// Returns the final link flows and the last slice's [`Assignment`]
/// (whose paths describe route choice under near-final congestion).
///
/// # Panics
///
/// Panics if `increments == 0` or dimensions mismatch.
#[must_use]
pub fn incremental_assignment(
    net: &RoadNetwork,
    trips: &TripTable,
    increments: usize,
) -> (Vec<f64>, Assignment) {
    assert!(increments > 0, "need at least one increment");
    let slice = trips.scaled(1.0 / increments as f64);
    let mut flows = vec![0.0; net.link_count()];
    let mut last = None;
    for _ in 0..increments {
        let times = bpr::link_times(net, &flows);
        let a = all_or_nothing(net, &slice, &times);
        for (f, add) in flows.iter_mut().zip(&a.link_flows) {
            *f += add;
        }
        last = Some(a);
    }
    (flows, last.expect("at least one increment"))
}

/// Per-node point volumes: the number of vehicles whose route passes each
/// node (counting origins and destinations) — the paper's `n_x`.
///
/// # Panics
///
/// Panics if a path references a node `>= node_count`.
#[must_use]
pub fn point_volumes(assignment: &Assignment, trips: &TripTable, node_count: usize) -> Vec<f64> {
    let mut volumes = vec![0.0; node_count];
    for (&(origin, dest), path) in &assignment.paths {
        let demand = trips.demand(origin, dest);
        for &node in path {
            volumes[node] += demand;
        }
    }
    volumes
}

/// Symmetric node-pair point-to-point volumes: entry `(a, b)` is the
/// number of vehicles whose route passes both `a` and `b` — the paper's
/// ground-truth `n_c`. Returned as a row-major `node_count × node_count`
/// matrix with zero diagonal.
#[must_use]
pub fn pair_volumes(assignment: &Assignment, trips: &TripTable, node_count: usize) -> Vec<f64> {
    let mut matrix = vec![0.0; node_count * node_count];
    for (&(origin, dest), path) in &assignment.paths {
        let demand = trips.demand(origin, dest);
        for (i, &a) in path.iter().enumerate() {
            for &b in &path[i + 1..] {
                matrix[a * node_count + b] += demand;
                matrix[b * node_count + a] += demand;
            }
        }
    }
    matrix
}

/// One turning movement at an intersection: vehicles arriving from
/// `from` (or starting here) and leaving toward `to` (or ending here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurningMovement {
    /// Upstream neighbor node, `None` for trips originating here.
    pub from: Option<usize>,
    /// Downstream neighbor node, `None` for trips ending here.
    pub to: Option<usize>,
    /// Vehicles per period making this movement.
    pub volume: f64,
}

/// Characterizes the turning movements at `node` — one of the traffic
/// studies the paper's introduction motivates ("characterizing turning
/// movements at intersections for signal timing determination").
/// Returns movements sorted by descending volume.
///
/// # Panics
///
/// Panics if a path references a node outside the trip table.
#[must_use]
pub fn turning_movements(
    assignment: &Assignment,
    trips: &TripTable,
    node: usize,
) -> Vec<TurningMovement> {
    let mut volumes: BTreeMap<(Option<usize>, Option<usize>), f64> = BTreeMap::new();
    for (&(origin, dest), path) in &assignment.paths {
        let demand = trips.demand(origin, dest);
        for (i, &n) in path.iter().enumerate() {
            if n != node {
                continue;
            }
            let from = if i > 0 { Some(path[i - 1]) } else { None };
            let to = path.get(i + 1).copied();
            *volumes.entry((from, to)).or_insert(0.0) += demand;
        }
    }
    let mut movements: Vec<TurningMovement> = volumes
        .into_iter()
        .map(|((from, to), volume)| TurningMovement { from, to, volume })
        .collect();
    movements.sort_by(|a, b| b.volume.total_cmp(&a.volume));
    movements
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Link;

    /// A line 0 → 1 → 2 plus a congestible shortcut 0 → 2.
    fn net() -> RoadNetwork {
        RoadNetwork::new(
            3,
            vec![
                Link::new(0, 1, 1_000.0, 1.0), // 0
                Link::new(1, 2, 1_000.0, 1.0), // 1
                Link::new(0, 2, 10.0, 1.5),    // 2: short but tiny capacity
            ],
        )
        .unwrap()
    }

    #[test]
    fn aon_routes_everything_on_cheapest_path() {
        let net = net();
        let mut trips = TripTable::zeros(3);
        trips.set(0, 2, 100.0);
        let a = all_or_nothing(&net, &trips, &net.free_flow_times());
        // Free flow: direct link (1.5) beats the two-hop (2.0).
        assert_eq!(a.paths[&(0, 2)], vec![0, 2]);
        assert_eq!(a.link_flows, vec![0.0, 0.0, 100.0]);
        assert_eq!(a.unrouted_demand, 0.0);
    }

    #[test]
    fn aon_skips_unreachable_demand() {
        let net = RoadNetwork::new(3, vec![Link::new(0, 1, 1.0, 1.0)]).unwrap();
        let mut trips = TripTable::zeros(3);
        trips.set(0, 2, 50.0);
        trips.set(0, 1, 10.0);
        let a = all_or_nothing(&net, &trips, &net.free_flow_times());
        assert_eq!(a.unrouted_demand, 50.0);
        assert_eq!(a.paths.len(), 1);
    }

    #[test]
    fn msa_diverts_flow_off_congested_links() {
        let net = net();
        let mut trips = TripTable::zeros(3);
        trips.set(0, 2, 100.0);
        let eq = msa_equilibrium(&net, &trips, 100);
        // The shortcut saturates (capacity 10, BPR blows up); most flow
        // must shift to the two-hop route at equilibrium.
        assert!(
            eq.link_flows[2] < 50.0,
            "shortcut flow {} should collapse",
            eq.link_flows[2]
        );
        assert!(eq.link_flows[0] > 50.0);
        assert!(eq.relative_gap.abs() < 0.5);
        assert!(eq.iterations > 1);
    }

    #[test]
    fn incremental_assignment_spreads_flow() {
        let net = net();
        let mut trips = TripTable::zeros(3);
        trips.set(0, 2, 100.0);
        let (flows, last) = incremental_assignment(&net, &trips, 10);
        // Total flow conserved across routes (each unit crosses a cut
        // between {0} and {2} exactly once).
        let crossing = flows[2] + flows[0];
        assert!((crossing - 100.0).abs() < 1e-9);
        // The tiny-capacity shortcut congests after the first slices, so
        // the two-hop route carries some load (pure AON would put all
        // 100 on the shortcut).
        assert!(flows[0] > 0.0, "two-hop route used: {flows:?}");
        assert!(flows[2] < 100.0);
        assert_eq!(last.unrouted_demand, 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one increment")]
    fn incremental_needs_increments() {
        let net = net();
        let trips = TripTable::zeros(3);
        let _ = incremental_assignment(&net, &trips, 0);
    }

    #[test]
    fn point_volumes_count_path_nodes() {
        let net = net();
        let mut trips = TripTable::zeros(3);
        trips.set(0, 2, 100.0);
        trips.set(0, 1, 40.0);
        // Force the two-hop route by making the shortcut expensive.
        let a = all_or_nothing(&net, &trips, &[1.0, 1.0, 100.0]);
        let v = point_volumes(&a, &trips, 3);
        assert_eq!(v, vec![140.0, 140.0, 100.0]);
    }

    #[test]
    fn pair_volumes_count_common_paths() {
        let net = net();
        let mut trips = TripTable::zeros(3);
        trips.set(0, 2, 100.0);
        trips.set(0, 1, 40.0);
        let a = all_or_nothing(&net, &trips, &[1.0, 1.0, 100.0]);
        let m = pair_volumes(&a, &trips, 3);
        // 100 vehicles pass both 0 and 2; 140 pass both 0 and 1.
        assert_eq!(m[2], 100.0); // (0,2)
        assert_eq!(m[2 * 3], 100.0); // symmetric
        assert_eq!(m[1], 140.0); // (0,1)
        assert_eq!(m[3 + 2], 100.0); // (1,2): the through traffic
        assert_eq!(m[0], 0.0); // diagonal
    }

    #[test]
    fn turning_movements_partition_node_throughput() {
        let net = net();
        let mut trips = TripTable::zeros(3);
        trips.set(0, 2, 100.0); // through node 1
        trips.set(0, 1, 40.0); // ends at node 1
        trips.set(1, 2, 25.0); // starts at node 1
        let a = all_or_nothing(&net, &trips, &[1.0, 1.0, 100.0]);
        let movements = turning_movements(&a, &trips, 1);
        // Through (0 -> 1 -> 2), terminating (0 -> 1), originating (1 -> 2).
        assert_eq!(movements.len(), 3);
        assert_eq!(movements[0].volume, 100.0);
        assert_eq!(movements[0].from, Some(0));
        assert_eq!(movements[0].to, Some(2));
        let total: f64 = movements.iter().map(|m| m.volume).sum();
        let point = point_volumes(&a, &trips, 3)[1];
        assert!(
            (total - point).abs() < 1e-9,
            "movements partition throughput"
        );
    }

    #[test]
    fn turning_movements_empty_for_unvisited_node() {
        let net = net();
        let mut trips = TripTable::zeros(3);
        trips.set(0, 1, 10.0);
        let a = all_or_nothing(&net, &trips, &net.free_flow_times());
        assert!(turning_movements(&a, &trips, 2).is_empty());
    }

    #[test]
    fn pair_volume_never_exceeds_point_volume() {
        let net = net();
        let mut trips = TripTable::zeros(3);
        trips.set(0, 2, 70.0);
        trips.set(1, 2, 30.0);
        let a = all_or_nothing(&net, &trips, &[1.0, 1.0, 100.0]);
        let v = point_volumes(&a, &trips, 3);
        let m = pair_volumes(&a, &trips, 3);
        for x in 0..3 {
            for y in 0..3 {
                assert!(m[x * 3 + y] <= v[x].min(v[y]) + 1e-9);
            }
        }
    }
}
