//! The metropolis-scale continuous-estimation scenario (DESIGN.md §20).
//!
//! Everything before this module measures one period over one small
//! network. A deployed system looks different: thousands of RSUs, a
//! 24-hour demand curve, millions of vehicle reports per period pouring
//! into a sharded server, and consumers reading a *sliding window* of
//! O–D matrices that must stay total even while RSUs crash mid-window.
//! This module composes the existing machinery into that workload:
//!
//! * [`build_metro`] synthesizes the city: a grid or ring–radial road
//!   network ([`vcps_roadnet::grid_network`] /
//!   [`vcps_roadnet::ring_radial_network`]), doubly-constrained
//!   gravity demand with dead zones
//!   ([`vcps_roadnet::gravity_demand`]), a double-peaked diurnal
//!   profile ([`vcps_roadnet::diurnal_profile`]), MSA equilibrium
//!   assignment, and per-vehicle route expansion — plus exact ground
//!   truth ([`pair_truth`]) for accuracy reporting.
//! * [`crate::engine::run_periods`] drives the continuous multi-period
//!   loop through either server shape ([`crate::engine::Monolith`] or
//!   [`crate::engine::Sharded`]). Both run the *same* period step —
//!   same authority, departures, identities, frames, sequence numbers,
//!   and channel keys — so a sharded metro run is bit-identical to the
//!   monolithic one by construction, and `tests/metro_differential.rs`
//!   pins it.
//! * [`SlidingWindow`] aggregates the last `W` periods' O–D matrices.
//!   Per-period entries keep the
//!   [`CentralServer::estimate_or_degraded`](crate::CentralServer::estimate_or_degraded)
//!   semantics — a period in which an RSU crashed contributes its
//!   history-backed degraded estimate, never a hole — and an empty
//!   window is a typed [`SimError::EmptyWindow`], never a NaN.

use std::collections::VecDeque;

use vcps_core::{PairEstimate, RsuId};
use vcps_roadnet::assignment::{all_or_nothing, msa_equilibrium};
use vcps_roadnet::{
    diurnal_profile, expand_vehicle_trips, gravity_demand, grid_network, metro_marginals,
    ring_radial_network, GridSpec, RingRadialSpec, RoadNetwork, VehicleTrip,
};

use crate::{OdMatrix, SimError};

/// How the synthesized metropolis lays out its road network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetroLayout {
    /// A `w × h` Manhattan grid (4-neighbor, bidirectional).
    Grid,
    /// A CBD-centered ring–radial city (rings × spokes around node 0).
    RingRadial,
}

/// Parameters for [`build_metro`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetroConfig {
    /// Target RSU count; the generated network has at least this many
    /// nodes (rounded up to fill the layout).
    pub rsus: usize,
    /// Measurement periods in the day (the diurnal profile is sampled
    /// at each period's midpoint).
    pub periods: usize,
    /// Base (daily-average) trip-table total per period; each period's
    /// demand is this scaled by its diurnal multiplier.
    pub total_trips: f64,
    /// Demand units per expanded vehicle (`1.0` = one vehicle per
    /// trip-table unit; larger subsamples).
    pub vehicles_per_unit: f64,
    /// MSA user-equilibrium iterations per period.
    pub msa_iterations: usize,
    /// Fraction of zones with zero population (no trip ends at all).
    pub zero_zone_fraction: f64,
    /// Network layout.
    pub layout: MetroLayout,
    /// Master seed (network attributes, marginals, deterrence).
    pub seed: u64,
}

impl Default for MetroConfig {
    fn default() -> Self {
        Self {
            rsus: 256,
            periods: 4,
            total_trips: 20_000.0,
            vehicles_per_unit: 1.0,
            msa_iterations: 4,
            zero_zone_fraction: 0.1,
            layout: MetroLayout::Grid,
            seed: 0,
        }
    }
}

/// A synthesized metropolis workload: the network, one vehicle
/// population per period, exact per-period ground truth, and the
/// initial volume history that sizes period 0's arrays.
#[derive(Debug, Clone)]
pub struct MetroWorkload {
    /// The generated road network (every node hosts an RSU).
    pub net: RoadNetwork,
    /// Expanded vehicle routes per period.
    pub periods: Vec<Vec<VehicleTrip>>,
    /// Per-period pair ground truth from [`pair_truth`] (row-major
    /// `n × n`, symmetric): the exact vehicle count passing both nodes —
    /// the `n_c` the scheme estimates.
    pub truth: Vec<Vec<f64>>,
    /// The diurnal multipliers used per period.
    pub profile: Vec<f64>,
    /// MSA relative gap reached in each period's assignment.
    pub relative_gaps: Vec<f64>,
    /// Initial per-node volume history (period 0's vehicle counts — the
    /// "planning estimate" that seeds array sizing).
    pub initial_history: Vec<f64>,
}

impl MetroWorkload {
    /// Total expanded vehicles across all periods.
    #[must_use]
    pub fn total_vehicles(&self) -> usize {
        self.periods.iter().map(Vec::len).sum()
    }
}

/// Exact per-node ground truth for a vehicle population: how many
/// vehicles pass each node (the paper's `n_x`).
#[must_use]
pub fn point_truth(trips: &[VehicleTrip], nodes: usize) -> Vec<f64> {
    let mut out = vec![0.0; nodes];
    let mut seen = Vec::new();
    for trip in trips {
        seen.clear();
        seen.extend_from_slice(&trip.route);
        seen.sort_unstable();
        seen.dedup();
        for &node in &seen {
            out[node] += 1.0;
        }
    }
    out
}

/// Exact pair ground truth for a vehicle population: `truth[a·n + b]`
/// is the number of vehicles whose route visits both `a` and `b` — the
/// point-to-point volume `n_c` the masking scheme estimates. Row-major,
/// symmetric, zero diagonal.
#[must_use]
pub fn pair_truth(trips: &[VehicleTrip], nodes: usize) -> Vec<f64> {
    let mut out = vec![0.0; nodes * nodes];
    let mut seen = Vec::new();
    for trip in trips {
        seen.clear();
        seen.extend_from_slice(&trip.route);
        seen.sort_unstable();
        seen.dedup();
        for (i, &a) in seen.iter().enumerate() {
            for &b in &seen[i + 1..] {
                out[a * nodes + b] += 1.0;
                out[b * nodes + a] += 1.0;
            }
        }
    }
    out
}

/// How closely an O–D matrix tracks exact ground truth (see
/// [`score_accuracy`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyScore {
    /// Pairs whose true volume reached the floor.
    pub pairs: usize,
    /// Mean relative error `|n̂_c − n_c| / n_c` over those pairs; `None`
    /// when no pair reached the floor.
    pub mean_relative_error: Option<f64>,
    /// Entries answered with a history-backed degraded estimate.
    pub degraded: usize,
}

/// Scores `matrix` against `truth` (row-major over `nodes`, as
/// [`pair_truth`] builds it): the mean relative error over pairs whose
/// true volume is at least `floor` — tiny overlaps make relative error
/// meaningless, and the paper's Table I uses the busiest pairs for the
/// same reason — plus the number of degraded entries. RSU ids are node
/// indices.
#[must_use]
pub fn score_accuracy(matrix: &OdMatrix, truth: &[f64], nodes: usize, floor: f64) -> AccuracyScore {
    let mut pairs = 0usize;
    let mut total_error = 0.0;
    let mut degraded = 0usize;
    for (a, b, estimate) in matrix.iter_pairs() {
        if estimate.is_degraded() {
            degraded += 1;
        }
        let t = truth[a.0 as usize * nodes + b.0 as usize];
        if t >= floor {
            pairs += 1;
            total_error += (estimate.n_c() - t).abs() / t;
        }
    }
    AccuracyScore {
        pairs,
        mean_relative_error: (pairs > 0).then(|| total_error / pairs as f64),
        degraded,
    }
}

/// Synthesizes a complete metropolis workload from a [`MetroConfig`]:
/// network, gravity demand with dead zones, diurnal scaling, MSA
/// assignment, vehicle expansion, and exact ground truth per period.
///
/// Deterministic for a fixed config; independent of thread count (the
/// synthesis pipeline is single-threaded pure computation).
///
/// # Panics
///
/// Panics if the config is degenerate (`rsus < 2`, `periods == 0`,
/// non-positive `total_trips` or `vehicles_per_unit`).
#[must_use]
pub fn build_metro(config: &MetroConfig) -> MetroWorkload {
    assert!(config.rsus >= 2, "need at least two RSUs");
    assert!(config.periods >= 1, "need at least one period");
    assert!(config.total_trips > 0.0, "need positive demand");
    assert!(
        config.vehicles_per_unit > 0.0,
        "vehicles_per_unit must be positive"
    );
    let net = match config.layout {
        MetroLayout::Grid => {
            let width = (config.rsus as f64).sqrt().ceil() as usize;
            let height = config.rsus.div_ceil(width);
            grid_network(
                &GridSpec {
                    width,
                    height,
                    ..GridSpec::default()
                },
                config.seed,
            )
        }
        MetroLayout::RingRadial => {
            let spokes = ((config.rsus as f64).sqrt().round() as usize).max(3);
            let rings = (config.rsus - 1).div_ceil(spokes).max(1);
            ring_radial_network(
                &RingRadialSpec {
                    rings,
                    spokes,
                    ..RingRadialSpec::default()
                },
                config.seed,
            )
        }
    };
    let n = net.node_count();
    let (productions, attractions) = metro_marginals(
        n,
        config.total_trips,
        config.zero_zone_fraction,
        (1.0, 80.0),
        config.seed,
    );
    let base = gravity_demand(&productions, &attractions, config.seed);
    let profile = diurnal_profile(config.periods);

    let mut periods = Vec::with_capacity(config.periods);
    let mut truth = Vec::with_capacity(config.periods);
    let mut relative_gaps = Vec::with_capacity(config.periods);
    for &multiplier in &profile {
        let scaled = base.scaled(multiplier);
        let equilibrium = msa_equilibrium(&net, &scaled, config.msa_iterations.max(1));
        let assignment = all_or_nothing(&net, &scaled, &equilibrium.link_times);
        let vehicles = expand_vehicle_trips(&assignment, &scaled, config.vehicles_per_unit);
        truth.push(pair_truth(&vehicles, n));
        relative_gaps.push(equilibrium.relative_gap);
        periods.push(vehicles);
    }
    let initial_history = point_truth(&periods[0], n);
    MetroWorkload {
        net,
        periods,
        truth,
        profile,
        relative_gaps,
        initial_history,
    }
}

/// A window-aggregated pair answer (see [`SlidingWindow::average`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowEstimate {
    /// Mean `n̂_c` over the window periods that cover the pair.
    pub n_c: f64,
    /// How many window periods covered the pair.
    pub periods: usize,
    /// How many of those answered with a history-backed degraded
    /// estimate (RSU crashed or its upload never arrived that period).
    pub degraded_periods: usize,
    /// The newest covering period's full answer, provenance intact.
    pub latest: PairEstimate,
}

/// The last `W` periods' O–D matrices, aggregated for consumers that
/// want a smoother signal than a single period (adaptive signal
/// control, congestion pricing).
///
/// Window entries are exactly the per-period
/// [`CentralServer::estimate_or_degraded`](crate::CentralServer::estimate_or_degraded)
/// answers: a period in which
/// an RSU crashed contributes its degraded history-backed estimate
/// (flagged via [`WindowEstimate::degraded_periods`]) rather than
/// disappearing, so the aggregate degrades exactly as gracefully as
/// each period does.
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    window: usize,
    matrices: VecDeque<OdMatrix>,
}

impl SlidingWindow {
    /// An empty window retaining at most `window` period matrices.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: usize) -> Self {
        assert!(window >= 1, "window must hold at least one period");
        Self {
            window,
            matrices: VecDeque::with_capacity(window),
        }
    }

    /// The configured capacity `W`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.window
    }

    /// Completed periods currently held (`min(pushed, W)`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    /// `true` before the first period completes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.matrices.is_empty()
    }

    /// Appends a completed period's matrix, evicting the oldest when
    /// the window is full.
    pub fn push(&mut self, matrix: OdMatrix) {
        if self.matrices.len() == self.window {
            self.matrices.pop_front();
        }
        self.matrices.push_back(matrix);
    }

    /// The newest period's matrix, if any period has completed.
    #[must_use]
    pub fn latest(&self) -> Option<&OdMatrix> {
        self.matrices.back()
    }

    /// The held matrices, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &OdMatrix> {
        self.matrices.iter()
    }

    /// The window-averaged answer for a pair: the mean `n̂_c` over every
    /// held period that covers the pair, with the newest covering
    /// period's full [`PairEstimate`] attached. With a window of 1 this
    /// is exactly the single-period estimate.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyWindow`] if no period has completed yet;
    /// * [`SimError::MissingUpload`] if no held matrix covers the pair
    ///   (the server has never heard of one of the RSUs).
    pub fn average(&self, a: RsuId, b: RsuId) -> Result<WindowEstimate, SimError> {
        if self.matrices.is_empty() {
            return Err(SimError::EmptyWindow);
        }
        let mut sum = 0.0;
        let mut periods = 0usize;
        let mut degraded_periods = 0usize;
        let mut latest = None;
        for matrix in &self.matrices {
            if let Some(estimate) = matrix.get(a, b) {
                sum += estimate.n_c();
                periods += 1;
                if estimate.is_degraded() {
                    degraded_periods += 1;
                }
                latest = Some(*estimate);
            }
        }
        match latest {
            Some(latest) => Ok(WindowEstimate {
                n_c: sum / periods as f64,
                periods,
                degraded_periods,
                latest,
            }),
            None => {
                let known = self
                    .latest()
                    .map(|m| m.rsus().binary_search(&a).is_ok())
                    .unwrap_or(false);
                Err(SimError::MissingUpload {
                    rsu: if known { b } else { a },
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_periods, MetroRun, Monolith, PeriodSettings, RunConfig};
    use crate::{CentralServer, FaultPlan, LinkFaults, PeriodUpload, RetryPolicy};
    use vcps_bitarray::BitArray;
    use vcps_core::Scheme;

    fn tiny_config() -> MetroConfig {
        MetroConfig {
            rsus: 16,
            periods: 3,
            total_trips: 600.0,
            msa_iterations: 2,
            seed: 11,
            ..MetroConfig::default()
        }
    }

    fn tiny_run(window: usize) -> MetroRun<CentralServer> {
        let workload = build_metro(&tiny_config());
        let scheme = Scheme::variable(2, 3.0, 5).expect("valid scheme");
        let settings = PeriodSettings {
            seed: 11,
            ..PeriodSettings::default()
        };
        run_periods(
            &scheme,
            (&workload.net, &workload.net.free_flow_times()),
            &workload.periods,
            &workload.initial_history,
            &settings,
            window,
            &RunConfig::new(Monolith),
        )
        .expect("metro run")
    }

    #[test]
    fn build_metro_is_deterministic_and_sized() {
        let config = tiny_config();
        let a = build_metro(&config);
        let b = build_metro(&config);
        assert!(a.net.node_count() >= config.rsus);
        assert_eq!(a.periods.len(), 3);
        assert_eq!(a.net, b.net);
        assert_eq!(a.periods, b.periods);
        assert_eq!(a.truth, b.truth);
        // The diurnal profile actually varies demand across periods.
        assert!(a.periods.iter().map(Vec::len).max() > a.periods.iter().map(Vec::len).min());
    }

    #[test]
    fn ring_radial_layout_builds_too() {
        let workload = build_metro(&MetroConfig {
            layout: MetroLayout::RingRadial,
            ..tiny_config()
        });
        assert!(workload.net.node_count() >= 16);
        assert!(workload.total_vehicles() > 0);
    }

    #[test]
    fn pair_truth_counts_route_overlaps() {
        let trips = vec![
            VehicleTrip {
                id: 0,
                origin: 0,
                dest: 2,
                route: vec![0, 1, 2],
            },
            VehicleTrip {
                id: 1,
                origin: 1,
                dest: 2,
                route: vec![1, 2],
            },
        ];
        let truth = pair_truth(&trips, 3);
        assert_eq!(truth[3 + 2], 2.0); // both vehicles pass 1 and 2
        assert_eq!(truth[2 * 3 + 1], 2.0); // symmetric
        assert_eq!(truth[2], 1.0); // only vehicle 0 passes 0 and 2
        assert_eq!(truth[0], 0.0); // zero diagonal
        assert_eq!(point_truth(&trips, 3), vec![1.0, 2.0, 2.0]);
    }

    #[test]
    fn score_accuracy_averages_pairs_at_the_floor_and_counts_degraded_entries() {
        let mut server = CentralServer::new(Scheme::variable(2, 3.0, 5).unwrap(), 1.0).unwrap();
        for (rsu, ones, counter) in [
            (0u64, &[1usize, 5, 9][..], 30u64),
            (1, &[1, 5, 20], 40),
            (2, &[1, 33], 25),
        ] {
            let mut bits = BitArray::new(64);
            for &i in ones {
                bits.set(i);
            }
            server.receive(PeriodUpload {
                rsu: RsuId(rsu),
                counter,
                bits,
            });
        }
        // History but no upload: every pair with RSU 3 is degraded.
        server.seed_history(RsuId(3), 10.0);
        let matrix = server.od_matrix_threads(1).unwrap();
        let nodes = 4;
        let mut truth = vec![0.0; nodes * nodes];
        for (a, b, t) in [(0, 1, 20.0), (0, 2, 5.0), (1, 2, 12.0)] {
            truth[a * nodes + b] = t;
            truth[b * nodes + a] = t;
        }
        let rel =
            |a: u64, b: u64, t: f64| (matrix.get(RsuId(a), RsuId(b)).unwrap().n_c() - t).abs() / t;
        let score = score_accuracy(&matrix, &truth, nodes, 10.0);
        assert_eq!(
            score,
            AccuracyScore {
                pairs: 2,
                mean_relative_error: Some((rel(0, 1, 20.0) + rel(1, 2, 12.0)) / 2.0),
                degraded: 3,
            }
        );
        // No pair reaches the floor: no error to report, not a perfect 0.
        assert_eq!(
            score_accuracy(&matrix, &truth, nodes, 100.0),
            AccuracyScore {
                pairs: 0,
                mean_relative_error: None,
                degraded: 3,
            }
        );
    }

    #[test]
    fn empty_window_is_a_typed_error() {
        let window = SlidingWindow::new(3);
        assert_eq!(
            window.average(RsuId(0), RsuId(1)),
            Err(SimError::EmptyWindow)
        );
    }

    #[test]
    fn window_of_one_equals_single_period_estimate() {
        let run = tiny_run(1);
        assert_eq!(run.window.len(), 1);
        let matrix = run.window.latest().expect("one period held");
        let n = matrix.len() as u64;
        let mut compared = 0;
        for a in 0..n {
            for b in (a + 1)..n {
                let (a, b) = (RsuId(a), RsuId(b));
                let Some(expected) = matrix.get(a, b) else {
                    continue;
                };
                let averaged = run.window.average(a, b).expect("covered pair");
                assert_eq!(averaged.n_c, expected.n_c());
                assert_eq!(averaged.latest, *expected);
                assert_eq!(averaged.periods, 1);
                compared += 1;
            }
        }
        assert!(compared > 0, "window covered no pairs");
    }

    #[test]
    fn window_average_is_mean_of_held_periods() {
        let run = tiny_run(2);
        assert_eq!(run.window.len(), 2);
        let held: Vec<&OdMatrix> = run.window.iter().collect();
        let (a, b) = (RsuId(0), RsuId(1));
        let expected: f64 = held
            .iter()
            .filter_map(|m| m.get(a, b))
            .map(|e| e.n_c())
            .sum::<f64>()
            / held.iter().filter(|m| m.get(a, b).is_some()).count() as f64;
        let averaged = run.window.average(a, b).expect("covered pair");
        assert_eq!(averaged.n_c, expected);
    }

    #[test]
    fn window_evicts_oldest_beyond_capacity() {
        let run_full = tiny_run(3);
        let run_capped = tiny_run(2);
        assert_eq!(run_full.window.len(), 3);
        assert_eq!(run_capped.window.len(), 2);
        // The capped window holds exactly the last two of the full run's
        // three matrices.
        let full: Vec<&OdMatrix> = run_full.window.iter().collect();
        let capped: Vec<&OdMatrix> = run_capped.window.iter().collect();
        assert_eq!(capped, vec![full[1], full[2]]);
    }

    #[test]
    fn unknown_rsu_is_missing_upload_not_nan() {
        let run = tiny_run(2);
        let ghost = RsuId(9_999);
        assert_eq!(
            run.window.average(ghost, RsuId(0)),
            Err(SimError::MissingUpload { rsu: ghost })
        );
        assert_eq!(
            run.window.average(RsuId(0), ghost),
            Err(SimError::MissingUpload { rsu: ghost })
        );
    }

    #[test]
    fn faulty_run_degrades_instead_of_failing() {
        let workload = build_metro(&tiny_config());
        let scheme = Scheme::variable(2, 3.0, 5).expect("valid scheme");
        let settings = PeriodSettings {
            seed: 11,
            ..PeriodSettings::default()
        };
        let plan = FaultPlan::new(77).with_upload_link(LinkFaults::none().with_drop(0.95));
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let run = run_periods(
            &scheme,
            (&workload.net, &workload.net.free_flow_times()),
            &workload.periods,
            &workload.initial_history,
            &settings,
            3,
            &RunConfig {
                faults: Some((plan, policy)),
                ..RunConfig::new(Monolith)
            },
        )
        .expect("faulty metro run");
        let lost: usize = run.undelivered_per_period.iter().map(Vec::len).sum();
        assert!(lost > 0, "a 95% drop rate should lose uploads");
        // Every pair still answers, some of them degraded.
        let latest = run.window.latest().expect("periods completed");
        let mut degraded = 0;
        for a in 0..workload.net.node_count() as u64 {
            for b in (a + 1)..workload.net.node_count() as u64 {
                if let Some(estimate) = latest.get(RsuId(a), RsuId(b)) {
                    if estimate.is_degraded() {
                        degraded += 1;
                    }
                }
            }
        }
        assert!(
            degraded > 0,
            "lost uploads should surface as degraded answers"
        );
    }
}
