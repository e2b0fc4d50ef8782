//! Frank–Wolfe user-equilibrium assignment.
//!
//! LeBlanc, Morlok & Pierskalla's 1975 paper — the source of the Sioux
//! Falls instance — solves the network equilibrium problem with the
//! Frank–Wolfe (convex combinations) method. This module implements it
//! against the Beckmann objective with BPR latencies, providing a
//! higher-quality equilibrium than the MSA heuristic in
//! [`crate::assignment`] (which is kept for speed):
//!
//! 1. all-or-nothing assignment under current travel times gives a
//!    descent direction `y − f`;
//! 2. exact line search on `λ ∈ [0, 1]` minimizes the Beckmann potential
//!    `Σ_a ∫_0^{f_a} t_a(x) dx` along the segment;
//! 3. repeat until the relative gap is small.

use crate::assignment::all_or_nothing;
use crate::bpr::{self, ALPHA, BETA};
use crate::{RoadNetwork, TripTable};

/// A Frank–Wolfe equilibrium solution.
#[derive(Debug, Clone, PartialEq)]
pub struct FrankWolfeResult {
    /// Equilibrium link flows.
    pub link_flows: Vec<f64>,
    /// BPR travel times at those flows.
    pub link_times: Vec<f64>,
    /// Relative gap at termination.
    pub relative_gap: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Beckmann objective value at termination.
    pub objective: f64,
}

/// The Beckmann potential `Σ_a ∫_0^{f_a} t_a(x) dx` whose minimizer is
/// the user equilibrium. For BPR:
/// `∫ t0(1 + α(x/c)^β) dx = t0·f + t0·α·c/(β+1)·(f/c)^{β+1}`.
#[must_use]
pub fn beckmann_objective(net: &RoadNetwork, flows: &[f64]) -> f64 {
    assert_eq!(flows.len(), net.link_count(), "one flow per link");
    net.links()
        .iter()
        .zip(flows)
        .map(|(l, &f)| {
            let ratio = (f / l.capacity).max(0.0);
            l.free_flow_time * f
                + l.free_flow_time * ALPHA * l.capacity / (BETA + 1.0) * ratio.powf(BETA + 1.0)
        })
        .sum()
}

/// Derivative of the Beckmann objective along `f + λ·(y − f)`.
fn directional_derivative(net: &RoadNetwork, flows: &[f64], target: &[f64], lambda: f64) -> f64 {
    net.links()
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let d = target[i] - flows[i];
            let v = flows[i] + lambda * d;
            d * bpr::travel_time(l.free_flow_time, l.capacity, v)
        })
        .sum()
}

/// Solves user equilibrium with Frank–Wolfe.
///
/// Runs until the relative gap drops below `gap_target` or
/// `max_iterations` is reached.
///
/// # Panics
///
/// Panics if `max_iterations == 0` or the trip table does not match the
/// network.
#[must_use]
pub fn frank_wolfe(
    net: &RoadNetwork,
    trips: &TripTable,
    max_iterations: usize,
    gap_target: f64,
) -> FrankWolfeResult {
    assert!(max_iterations > 0, "need at least one iteration");
    // Initialize with free-flow all-or-nothing.
    let mut flows = all_or_nothing(net, trips, &net.free_flow_times()).link_flows;
    let mut gap = f64::INFINITY;
    let mut iterations = 0;
    for k in 1..=max_iterations {
        iterations = k;
        let times = bpr::link_times(net, &flows);
        let aon = all_or_nothing(net, trips, &times);
        let tstt: f64 = flows.iter().zip(&times).map(|(f, t)| f * t).sum();
        let sptt: f64 = aon.link_flows.iter().zip(&times).map(|(f, t)| f * t).sum();
        gap = if sptt > 0.0 {
            (tstt - sptt) / sptt
        } else {
            0.0
        };
        if gap.abs() < gap_target {
            break;
        }
        // Exact line search: the directional derivative is increasing in
        // λ (the objective is convex), so bisect its sign change.
        let lambda = {
            let d0 = directional_derivative(net, &flows, &aon.link_flows, 0.0);
            let d1 = directional_derivative(net, &flows, &aon.link_flows, 1.0);
            if d0 >= 0.0 {
                0.0
            } else if d1 <= 0.0 {
                1.0
            } else {
                let (mut lo, mut hi) = (0.0f64, 1.0f64);
                for _ in 0..50 {
                    let mid = 0.5 * (lo + hi);
                    if directional_derivative(net, &flows, &aon.link_flows, mid) < 0.0 {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                0.5 * (lo + hi)
            }
        };
        if lambda == 0.0 {
            break; // local optimum along every AON direction
        }
        for (f, y) in flows.iter_mut().zip(&aon.link_flows) {
            *f += lambda * (y - *f);
        }
    }
    let link_times = bpr::link_times(net, &flows);
    let objective = beckmann_objective(net, &flows);
    FrankWolfeResult {
        link_flows: flows,
        link_times,
        relative_gap: gap,
        iterations,
        objective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::msa_equilibrium;
    use crate::sioux_falls;
    use crate::Link;

    fn braess_like() -> (RoadNetwork, TripTable) {
        // Two parallel routes with equal attributes: equilibrium splits
        // flow evenly.
        let net = RoadNetwork::new(
            4,
            vec![
                Link::new(0, 1, 100.0, 1.0),
                Link::new(1, 3, 100.0, 2.0),
                Link::new(0, 2, 100.0, 1.0),
                Link::new(2, 3, 100.0, 2.0),
            ],
        )
        .unwrap();
        let mut trips = TripTable::zeros(4);
        trips.set(0, 3, 200.0);
        (net, trips)
    }

    #[test]
    fn symmetric_routes_split_evenly() {
        let (net, trips) = braess_like();
        let eq = frank_wolfe(&net, &trips, 100, 1e-6);
        // Each route carries ~100.
        assert!(
            (eq.link_flows[0] - 100.0).abs() < 5.0,
            "route A flow {}",
            eq.link_flows[0]
        );
        assert!((eq.link_flows[2] - 100.0).abs() < 5.0);
        assert!(eq.relative_gap.abs() < 1e-4);
    }

    #[test]
    fn beckmann_objective_at_zero_flow_is_zero() {
        let (net, _) = braess_like();
        assert_eq!(beckmann_objective(&net, &[0.0; 4]), 0.0);
    }

    #[test]
    fn frank_wolfe_beats_msa_on_sioux_falls() {
        let net = sioux_falls::network();
        let trips = sioux_falls::trip_table();
        let fw = frank_wolfe(&net, &trips, 60, 1e-5);
        let msa = msa_equilibrium(&net, &trips, 60);
        let msa_objective = beckmann_objective(&net, &msa.link_flows);
        assert!(
            fw.objective <= msa_objective * 1.001,
            "FW objective {} should not exceed MSA {}",
            fw.objective,
            msa_objective
        );
        assert!(fw.relative_gap.abs() < 0.05, "gap {}", fw.relative_gap);
    }

    #[test]
    fn equilibrium_times_exceed_free_flow() {
        let net = sioux_falls::network();
        let trips = sioux_falls::trip_table();
        let fw = frank_wolfe(&net, &trips, 30, 1e-4);
        for (i, link) in net.links().iter().enumerate() {
            assert!(fw.link_times[i] >= link.free_flow_time - 1e-9);
        }
    }

    #[test]
    fn gap_target_terminates_early() {
        let (net, trips) = braess_like();
        let eq = frank_wolfe(&net, &trips, 1_000, 0.5);
        assert!(eq.iterations < 1_000);
    }
}
