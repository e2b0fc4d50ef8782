use crate::assignment::Assignment;
use crate::TripTable;

/// One vehicle's trip: its identifier seed and the node sequence it
/// drives (each node is an RSU site where it answers one query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VehicleTrip {
    /// A unique per-vehicle sequence number (used to derive identities).
    pub id: u64,
    /// Origin node index.
    pub origin: usize,
    /// Destination node index.
    pub dest: usize,
    /// The full node path, origin first, destination last.
    pub route: Vec<usize>,
}

/// Expands an assignment into one [`VehicleTrip`] per individual vehicle.
///
/// Each OD pair's demand is divided by `vehicles_per_unit` (e.g. `1.0`
/// for one trip per demand unit, `10.0` to subsample a large table) and
/// rounded to the nearest integer; that many vehicles drive the OD's
/// assigned path. Vehicle ids are consecutive and deterministic, so a
/// run is reproducible end-to-end.
///
/// # Panics
///
/// Panics if `vehicles_per_unit <= 0`.
///
/// # Example
///
/// ```
/// use vcps_roadnet::{expand_vehicle_trips, Link, RoadNetwork, TripTable};
/// use vcps_roadnet::assignment::all_or_nothing;
///
/// # fn main() -> Result<(), vcps_roadnet::RoadNetError> {
/// let net = RoadNetwork::new(2, vec![Link::new(0, 1, 10.0, 1.0)])?;
/// let mut trips = TripTable::zeros(2);
/// trips.set(0, 1, 3.0);
/// let assignment = all_or_nothing(&net, &trips, &net.free_flow_times());
/// let vehicles = expand_vehicle_trips(&assignment, &trips, 1.0);
/// assert_eq!(vehicles.len(), 3);
/// assert_eq!(vehicles[0].route, vec![0, 1]);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn expand_vehicle_trips(
    assignment: &Assignment,
    trips: &TripTable,
    vehicles_per_unit: f64,
) -> Vec<VehicleTrip> {
    assert!(
        vehicles_per_unit > 0.0,
        "vehicles_per_unit must be positive"
    );
    let mut out = Vec::new();
    let mut id = 0u64;
    for (&(origin, dest), path) in &assignment.paths {
        let demand = trips.demand(origin, dest);
        let count = (demand / vehicles_per_unit).round() as u64;
        for _ in 0..count {
            out.push(VehicleTrip {
                id,
                origin,
                dest,
                route: path.clone(),
            });
            id += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assignment::all_or_nothing;
    use crate::{Link, RoadNetwork};

    fn setup() -> (RoadNetwork, TripTable, Assignment) {
        let net = RoadNetwork::new(
            3,
            vec![Link::new(0, 1, 10.0, 1.0), Link::new(1, 2, 10.0, 1.0)],
        )
        .unwrap();
        let mut trips = TripTable::zeros(3);
        trips.set(0, 2, 4.0);
        trips.set(1, 2, 2.0);
        let a = all_or_nothing(&net, &trips, &net.free_flow_times());
        (net, trips, a)
    }

    #[test]
    fn expands_one_vehicle_per_demand_unit() {
        let (_, trips, a) = setup();
        let vehicles = expand_vehicle_trips(&a, &trips, 1.0);
        assert_eq!(vehicles.len(), 6);
        let through: Vec<_> = vehicles.iter().filter(|v| v.origin == 0).collect();
        assert_eq!(through.len(), 4);
        assert_eq!(through[0].route, vec![0, 1, 2]);
    }

    #[test]
    fn ids_are_unique_and_consecutive() {
        let (_, trips, a) = setup();
        let vehicles = expand_vehicle_trips(&a, &trips, 1.0);
        let ids: Vec<u64> = vehicles.iter().map(|v| v.id).collect();
        let expected: Vec<u64> = (0..6).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn subsampling_reduces_counts() {
        let (_, trips, a) = setup();
        let vehicles = expand_vehicle_trips(&a, &trips, 2.0);
        assert_eq!(vehicles.len(), 3); // 4/2 + 2/2
    }

    #[test]
    fn expansion_is_deterministic() {
        let (_, trips, a) = setup();
        assert_eq!(
            expand_vehicle_trips(&a, &trips, 1.0),
            expand_vehicle_trips(&a, &trips, 1.0)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_unit_panics() {
        let (_, trips, a) = setup();
        let _ = expand_vehicle_trips(&a, &trips, 0.0);
    }
}
