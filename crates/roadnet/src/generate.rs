//! Synthetic road-network and trip-table generators.
//!
//! The paper's second study (§VII-B) uses "a larger network where the
//! traffic is randomly generated". These generators build reproducible
//! grid networks and gravity-model trip tables from a seed, so
//! experiments can scale beyond the 24-node Sioux Falls instance without
//! external data.

use crate::{Link, RoadNetwork, TripTable};

/// Deterministic generator state (splitmix64-style; self-contained so
/// this crate stays free of runtime dependencies).
#[derive(Debug, Clone, Copy)]
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Parameters for [`grid_network`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridSpec {
    /// Grid width (columns of nodes).
    pub width: usize,
    /// Grid height (rows of nodes).
    pub height: usize,
    /// Capacity range (uniform per link, both directions equal).
    pub capacity: (f64, f64),
    /// Free-flow time range (uniform per link).
    pub free_flow_time: (f64, f64),
}

impl Default for GridSpec {
    fn default() -> Self {
        Self {
            width: 8,
            height: 8,
            capacity: (3_000.0, 20_000.0),
            free_flow_time: (2.0, 8.0),
        }
    }
}

/// Generates a `width × height` grid with bidirectional links between
/// 4-neighbors, attributes drawn uniformly from the spec's ranges.
///
/// # Panics
///
/// Panics if the grid has fewer than 2 nodes or a range is invalid.
#[must_use]
pub fn grid_network(spec: &GridSpec, seed: u64) -> RoadNetwork {
    assert!(spec.width * spec.height >= 2, "grid needs at least 2 nodes");
    assert!(
        spec.capacity.0 > 0.0 && spec.capacity.1 >= spec.capacity.0,
        "invalid capacity range"
    );
    assert!(
        spec.free_flow_time.0 > 0.0 && spec.free_flow_time.1 >= spec.free_flow_time.0,
        "invalid free-flow range"
    );
    let mut gen = Gen(seed ^ 0x6E1D_0000);
    let node = |x: usize, y: usize| y * spec.width + x;
    let mut links = Vec::new();
    let mut both_ways = |a: usize, b: usize, gen: &mut Gen| {
        let capacity = gen.uniform(spec.capacity.0, spec.capacity.1);
        let fft = gen.uniform(spec.free_flow_time.0, spec.free_flow_time.1);
        links.push(Link::new(a, b, capacity, fft));
        links.push(Link::new(b, a, capacity, fft));
    };
    for y in 0..spec.height {
        for x in 0..spec.width {
            if x + 1 < spec.width {
                both_ways(node(x, y), node(x + 1, y), &mut gen);
            }
            if y + 1 < spec.height {
                both_ways(node(x, y), node(x, y + 1), &mut gen);
            }
        }
    }
    RoadNetwork::new(spec.width * spec.height, links).expect("generated grid is valid")
}

/// Generates a gravity-model trip table: demand between `o` and `d` is
/// proportional to `weight_o · weight_d` with per-node weights drawn
/// log-uniformly over `weight_range`, scaled so the table totals
/// `total_trips`. Heavier nodes emerge naturally — the volume skew the
/// variable-length scheme exists for.
///
/// # Panics
///
/// Panics if `n < 2`, `total_trips <= 0`, or the weight range is
/// invalid.
#[must_use]
pub fn gravity_trips(n: usize, total_trips: f64, weight_range: (f64, f64), seed: u64) -> TripTable {
    assert!(n >= 2, "need at least two zones");
    assert!(total_trips > 0.0, "need positive demand");
    assert!(
        weight_range.0 > 0.0 && weight_range.1 >= weight_range.0,
        "invalid weight range"
    );
    let mut gen = Gen(seed ^ 0x7121_5000);
    let weights: Vec<f64> = (0..n)
        .map(|_| {
            let ln = gen.uniform(weight_range.0.ln(), weight_range.1.ln());
            ln.exp()
        })
        .collect();
    let mut table = TripTable::zeros(n);
    let mut raw_total = 0.0;
    for o in 0..n {
        for d in 0..n {
            if o != d {
                raw_total += weights[o] * weights[d];
            }
        }
    }
    let scale = total_trips / raw_total;
    for o in 0..n {
        for d in 0..n {
            if o != d {
                table.set(o, d, (weights[o] * weights[d] * scale).round());
            }
        }
    }
    table
}

/// Parameters for [`ring_radial_network`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingRadialSpec {
    /// Number of concentric rings around the central node.
    pub rings: usize,
    /// Nodes per ring (also the number of radial corridors).
    pub spokes: usize,
    /// Capacity range (uniform per link, both directions equal).
    pub capacity: (f64, f64),
    /// Free-flow time range (uniform per link).
    pub free_flow_time: (f64, f64),
}

impl Default for RingRadialSpec {
    fn default() -> Self {
        Self {
            rings: 4,
            spokes: 8,
            capacity: (3_000.0, 20_000.0),
            free_flow_time: (2.0, 8.0),
        }
    }
}

/// Generates a ring–radial metropolis: a central node (the CBD),
/// `rings` concentric rings of `spokes` nodes each, radial links along
/// every spoke (center outward) and circumferential links around every
/// ring. All links are bidirectional with attributes drawn uniformly
/// from the spec's ranges.
///
/// Node 0 is the center; ring `r`, spoke `s` is node
/// `1 + r·spokes + s`.
///
/// # Panics
///
/// Panics if `rings == 0`, `spokes < 3`, or a range is invalid.
#[must_use]
pub fn ring_radial_network(spec: &RingRadialSpec, seed: u64) -> RoadNetwork {
    assert!(spec.rings >= 1, "need at least one ring");
    assert!(spec.spokes >= 3, "need at least three spokes");
    assert!(
        spec.capacity.0 > 0.0 && spec.capacity.1 >= spec.capacity.0,
        "invalid capacity range"
    );
    assert!(
        spec.free_flow_time.0 > 0.0 && spec.free_flow_time.1 >= spec.free_flow_time.0,
        "invalid free-flow range"
    );
    let mut gen = Gen(seed ^ 0x0A1D_1A70);
    let node = |ring: usize, spoke: usize| 1 + ring * spec.spokes + spoke;
    let mut links = Vec::new();
    let mut both_ways = |a: usize, b: usize, gen: &mut Gen| {
        let capacity = gen.uniform(spec.capacity.0, spec.capacity.1);
        let fft = gen.uniform(spec.free_flow_time.0, spec.free_flow_time.1);
        links.push(Link::new(a, b, capacity, fft));
        links.push(Link::new(b, a, capacity, fft));
    };
    for s in 0..spec.spokes {
        both_ways(0, node(0, s), &mut gen);
        for r in 1..spec.rings {
            both_ways(node(r - 1, s), node(r, s), &mut gen);
        }
    }
    for r in 0..spec.rings {
        for s in 0..spec.spokes {
            both_ways(node(r, s), node(r, (s + 1) % spec.spokes), &mut gen);
        }
    }
    RoadNetwork::new(1 + spec.rings * spec.spokes, links).expect("generated ring-radial is valid")
}

/// Synthesizes per-zone trip-end marginals for a gravity model:
/// log-uniform productions and (independently drawn) attractions over
/// `weight_range`, with roughly `zero_fraction` of the zones zeroed out
/// entirely — parks, water, industrial brownfield: zones with no
/// resident population that must never originate or attract trips.
/// Productions are scaled to sum to `total_trips`.
///
/// The output is always *feasible* for [`gravity_demand`]'s
/// diagonal-free doubly-constrained balancing: at least three zones
/// stay live, and no zone holds more than 45% of either marginal, so
/// every zone's production fits in the other zones' attractions
/// (`p_i + a_i ≤ total` with margin) and IPF converges.
///
/// # Panics
///
/// Panics if `n < 2`, `total_trips <= 0`, `zero_fraction` is outside
/// `[0, 0.9]`, or the weight range is invalid.
#[must_use]
pub fn metro_marginals(
    n: usize,
    total_trips: f64,
    zero_fraction: f64,
    weight_range: (f64, f64),
    seed: u64,
) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 2, "need at least two zones");
    assert!(total_trips > 0.0, "need positive demand");
    assert!(
        (0.0..=0.9).contains(&zero_fraction),
        "zero_fraction outside [0, 0.9]"
    );
    assert!(
        weight_range.0 > 0.0 && weight_range.1 >= weight_range.0,
        "invalid weight range"
    );
    let mut gen = Gen(seed ^ 0x3E70_AA12);
    let (lo, hi) = (weight_range.0.ln(), weight_range.1.ln());
    let mut productions: Vec<f64> = (0..n).map(|_| gen.uniform(lo, hi).exp()).collect();
    let mut attractions: Vec<f64> = (0..n).map(|_| gen.uniform(lo, hi).exp()).collect();
    // Zero out dead zones, but always keep at least three live ones —
    // with only two, the diagonal-free doubly-constrained problem pins
    // each row to the opposite column and is infeasible for generic
    // marginals.
    let zeros = ((n as f64 * zero_fraction) as usize).min(n.saturating_sub(3));
    let mut dead = std::collections::BTreeSet::new();
    while dead.len() < zeros {
        dead.insert((gen.next() % n as u64) as usize);
    }
    for &z in &dead {
        productions[z] = 0.0;
        attractions[z] = 0.0;
    }
    // Cap any zone's share of either marginal at 45%. Balancing must
    // route zone i's production through the *other* zones' attractions
    // (the diagonal is forbidden), which is possible iff
    // `p_i + a_i ≤ total` for every i; capping both shares below one
    // half guarantees that with margin, so IPF always converges.
    cap_share(&mut productions, 0.45);
    cap_share(&mut attractions, 0.45);
    let sum: f64 = productions.iter().sum();
    let scale = total_trips / sum;
    for p in &mut productions {
        *p *= scale;
    }
    (productions, attractions)
}

/// Clamps every entry to at most `cap` of the vector's (resulting)
/// total, by exact water-filling: if the set `S` of clamped entries is
/// known, the final total is `T = Σ_{i∉S} w_i / (1 − |S|·cap)` and each
/// clamped entry holds exactly `cap·T`. Processing candidates in
/// descending order grows `S` until the next-largest entry already fits
/// under the cap — a closed form, so the result is exact and
/// deterministic (no fixed-point iteration to cut off).
fn cap_share(weights: &mut [f64], cap: f64) {
    let n = weights.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    let mut unclamped_sum: f64 = weights.iter().sum();
    let mut clamped = 0usize;
    for &i in &order {
        let denominator = 1.0 - clamped as f64 * cap;
        if denominator <= cap {
            // Clamping another entry would demand more than the whole
            // total; every remaining entry keeps its weight.
            break;
        }
        let total = unclamped_sum / denominator;
        if weights[i] <= cap * total {
            break; // descending order: all remaining entries fit too
        }
        unclamped_sum -= weights[i];
        clamped += 1;
    }
    if clamped > 0 {
        let total = unclamped_sum / (1.0 - clamped as f64 * cap);
        for &i in &order[..clamped] {
            weights[i] = cap * total;
        }
    }
}

/// Generates a doubly-constrained gravity-model trip table from
/// configured per-zone trip-end marginals: demand is seeded as
/// `P_o · A_d · f_od` (with a seed-jittered deterrence factor
/// `f_od ∈ [0.5, 1.5)`) and then balanced by iterative proportional
/// fitting so row sums reproduce `productions` and column sums
/// reproduce `attractions` (the latter rescaled so both marginals share
/// the same total — the standard trip-distribution convention).
///
/// Intrazonal demand (the diagonal) is excluded. A zone with zero
/// production emits no trips; a zone with zero attraction receives
/// none — zero-population zones stay exactly zero. The function is a
/// pure single-threaded computation: output depends only on the
/// arguments, never on thread count or scheduling.
///
/// Balancing runs until both marginals match to within a `1e-9`
/// relative tolerance (or a fixed iteration cap for infeasible
/// marginals, e.g. when the only positive-attraction zone is a
/// positive-production zone's own diagonal).
///
/// # Panics
///
/// Panics if the slices' lengths differ, are shorter than 2, contain a
/// negative or non-finite entry, or either marginal sums to zero.
#[must_use]
pub fn gravity_demand(productions: &[f64], attractions: &[f64], seed: u64) -> TripTable {
    let n = productions.len();
    assert_eq!(n, attractions.len(), "marginal lengths differ");
    assert!(n >= 2, "need at least two zones");
    for (name, m) in [("productions", productions), ("attractions", attractions)] {
        assert!(
            m.iter().all(|v| v.is_finite() && *v >= 0.0),
            "{name} must be finite and non-negative"
        );
    }
    let total: f64 = productions.iter().sum();
    let attraction_total: f64 = attractions.iter().sum();
    assert!(total > 0.0, "productions sum to zero");
    assert!(attraction_total > 0.0, "attractions sum to zero");

    // Rescale attractions to the production total, then seed the cells.
    let targets: Vec<f64> = attractions
        .iter()
        .map(|a| a * total / attraction_total)
        .collect();
    let mut gen = Gen(seed ^ 0x6AB1_7D30);
    let mut cells = vec![0.0f64; n * n];
    for o in 0..n {
        for d in 0..n {
            // The deterrence draw is consumed for every cell (diagonal
            // included) so the table layout is a pure function of the
            // seed, not of which cells happen to be admissible.
            let f = gen.uniform(0.5, 1.5);
            if o != d {
                cells[o * n + d] = productions[o] * targets[d] * f;
            }
        }
    }

    // Furness balancing: alternate row and column scaling.
    for _ in 0..200 {
        let mut worst = 0.0f64;
        for o in 0..n {
            let row: f64 = cells[o * n..(o + 1) * n].iter().sum();
            if row > 0.0 {
                let k = productions[o] / row;
                worst = worst.max((k - 1.0).abs());
                for d in 0..n {
                    cells[o * n + d] *= k;
                }
            }
        }
        for d in 0..n {
            let col: f64 = (0..n).map(|o| cells[o * n + d]).sum();
            if col > 0.0 {
                let k = targets[d] / col;
                worst = worst.max((k - 1.0).abs());
                for o in 0..n {
                    cells[o * n + d] *= k;
                }
            }
        }
        if worst < 1e-9 {
            break;
        }
    }
    TripTable::from_rows(n, cells).expect("balanced cells are finite and non-negative")
}

/// The 24-hour demand profile: per-period multipliers (mean `1.0`)
/// sampled from a double-peaked diurnal curve — an AM commute peak near
/// 08:00 and a broader PM peak near 17:30 over a night-time floor. The
/// day is split into `periods` equal slots and the curve is evaluated at
/// each slot's midpoint, so scaling a base trip table by `profile[p]`
/// yields time-varying demand whose daily total equals `periods` × the
/// base total.
///
/// # Panics
///
/// Panics if `periods == 0`.
#[must_use]
pub fn diurnal_profile(periods: usize) -> Vec<f64> {
    assert!(periods >= 1, "need at least one period");
    let raw: Vec<f64> = (0..periods)
        .map(|p| {
            let hour = (p as f64 + 0.5) * 24.0 / periods as f64;
            let am = (-((hour - 8.0) / 1.8).powi(2)).exp();
            let pm = (-((hour - 17.5) / 2.2).powi(2)).exp();
            0.25 + 1.1 * am + 1.25 * pm
        })
        .collect();
    let mean = raw.iter().sum::<f64>() / periods as f64;
    raw.into_iter().map(|w| w / mean).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::{all_or_nothing, point_volumes};
    use crate::shortest_path;

    #[test]
    fn grid_has_expected_dimensions() {
        let spec = GridSpec {
            width: 5,
            height: 4,
            ..GridSpec::default()
        };
        let net = grid_network(&spec, 1);
        assert_eq!(net.node_count(), 20);
        // Horizontal: 4·4 per row ·2 dirs; vertical: 5·3 ·2 dirs.
        assert_eq!(net.link_count(), 2 * (4 * 4 + 5 * 3));
    }

    #[test]
    fn grid_is_strongly_connected() {
        let net = grid_network(&GridSpec::default(), 7);
        let sp = shortest_path(&net, 0, &net.free_flow_times()).unwrap();
        for node in 0..net.node_count() {
            assert!(sp.cost_to(node).is_finite(), "node {node} unreachable");
        }
    }

    #[test]
    fn generation_is_reproducible_and_seed_sensitive() {
        let spec = GridSpec::default();
        assert_eq!(grid_network(&spec, 3), grid_network(&spec, 3));
        assert_ne!(grid_network(&spec, 3), grid_network(&spec, 4));
    }

    #[test]
    fn gravity_trips_total_and_skew() {
        let trips = gravity_trips(16, 100_000.0, (1.0, 100.0), 5);
        let total = trips.total();
        assert!(
            (total - 100_000.0).abs() / 100_000.0 < 0.01,
            "total {total}"
        );
        // Log-uniform weights over two decades produce strong skew.
        let rows: Vec<f64> = (0..16).map(|o| trips.row_total(o)).collect();
        let max = rows.iter().copied().fold(0.0f64, f64::max);
        let min = rows.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min.max(1.0) > 5.0, "skew {max}/{min}");
    }

    #[test]
    fn generated_city_produces_skewed_point_volumes() {
        // End-to-end: generated network + gravity demand gives RSU
        // volumes spanning an order of magnitude, the paper's premise.
        let spec = GridSpec {
            width: 6,
            height: 6,
            ..GridSpec::default()
        };
        let net = grid_network(&spec, 11);
        let trips = gravity_trips(net.node_count(), 200_000.0, (1.0, 50.0), 11);
        let a = all_or_nothing(&net, &trips, &net.free_flow_times());
        assert_eq!(a.unrouted_demand, 0.0);
        let volumes = point_volumes(&a, &trips, net.node_count());
        let max = volumes.iter().copied().fold(0.0f64, f64::max);
        let min = volumes.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min > 3.0, "volume skew {max}/{min}");
    }

    #[test]
    #[should_panic(expected = "at least two zones")]
    fn gravity_needs_two_zones() {
        let _ = gravity_trips(1, 10.0, (1.0, 2.0), 0);
    }

    #[test]
    fn ring_radial_has_expected_shape_and_connectivity() {
        let spec = RingRadialSpec {
            rings: 3,
            spokes: 6,
            ..RingRadialSpec::default()
        };
        let net = ring_radial_network(&spec, 2);
        assert_eq!(net.node_count(), 1 + 3 * 6);
        // Radials: 6 center links + 6·2 between rings; rings: 3·6.
        assert_eq!(net.link_count(), 2 * (6 + 6 * 2 + 3 * 6));
        let sp = shortest_path(&net, 0, &net.free_flow_times()).unwrap();
        for node in 0..net.node_count() {
            assert!(sp.cost_to(node).is_finite(), "node {node} unreachable");
        }
        assert_eq!(ring_radial_network(&spec, 2), ring_radial_network(&spec, 2));
        assert_ne!(ring_radial_network(&spec, 2), ring_radial_network(&spec, 3));
    }

    #[test]
    fn gravity_demand_matches_configured_marginals() {
        let (productions, attractions) = metro_marginals(12, 50_000.0, 0.25, (1.0, 80.0), 9);
        let table = gravity_demand(&productions, &attractions, 9);
        let total: f64 = productions.iter().sum();
        let attraction_total: f64 = attractions.iter().sum();
        for (o, &production) in productions.iter().enumerate() {
            let row = table.row_total(o);
            assert!(
                (row - production).abs() <= 1e-6 * production.max(1.0),
                "row {o}: {row} vs {production}"
            );
        }
        for (d, &attraction) in attractions.iter().enumerate() {
            let col: f64 = (0..12).map(|o| table.demand(o, d)).sum();
            let target = attraction * total / attraction_total;
            assert!(
                (col - target).abs() <= 1e-6 * target.max(1.0),
                "col {d}: {col} vs {target}"
            );
        }
    }

    #[test]
    fn gravity_demand_zero_zones_stay_zero() {
        let (productions, attractions) = metro_marginals(10, 10_000.0, 0.4, (1.0, 50.0), 77);
        let table = gravity_demand(&productions, &attractions, 77);
        for z in 0..10 {
            if productions[z] == 0.0 {
                assert_eq!(table.row_total(z), 0.0, "dead zone {z} emits trips");
            }
            if attractions[z] == 0.0 {
                let col: f64 = (0..10).map(|o| table.demand(o, z)).sum();
                assert_eq!(col, 0.0, "dead zone {z} attracts trips");
            }
        }
    }

    #[test]
    fn gravity_demand_is_seed_deterministic() {
        let (p, a) = metro_marginals(8, 5_000.0, 0.0, (1.0, 20.0), 4);
        assert_eq!(gravity_demand(&p, &a, 4), gravity_demand(&p, &a, 4));
        assert_ne!(gravity_demand(&p, &a, 4), gravity_demand(&p, &a, 5));
    }

    #[test]
    fn diurnal_profile_is_double_peaked_with_unit_mean() {
        let profile = diurnal_profile(24);
        let mean = profile.iter().sum::<f64>() / 24.0;
        assert!((mean - 1.0).abs() < 1e-12, "mean {mean}");
        // AM peak near hour 8, PM peak near 17–18, both above the night floor.
        assert!(profile[8] > profile[2] * 2.0, "no AM peak");
        assert!(profile[17] > profile[2] * 2.0, "no PM peak");
        assert!(profile[17] > profile[12], "PM peak should top midday");
    }
}
