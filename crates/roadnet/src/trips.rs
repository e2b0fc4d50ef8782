use crate::RoadNetError;

/// An origin–destination demand matrix (vehicles per measurement period).
///
/// # Example
///
/// ```
/// use vcps_roadnet::TripTable;
///
/// let mut trips = TripTable::zeros(3);
/// trips.set(0, 2, 150.0);
/// trips.set(1, 2, 50.0);
/// assert_eq!(trips.demand(0, 2), 150.0);
/// assert_eq!(trips.total(), 200.0);
/// assert_eq!(trips.iter_positive().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TripTable {
    n: usize,
    demand: Vec<f64>,
}

impl TripTable {
    /// An all-zero `n × n` table.
    #[must_use]
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            demand: vec![0.0; n * n],
        }
    }

    /// Builds a table from a row-major matrix.
    ///
    /// # Errors
    ///
    /// Returns [`RoadNetError::DimensionMismatch`] unless
    /// `values.len() == n * n`.
    pub fn from_rows(n: usize, values: Vec<f64>) -> Result<Self, RoadNetError> {
        if values.len() != n * n {
            return Err(RoadNetError::DimensionMismatch {
                expected: n * n,
                got: values.len(),
            });
        }
        Ok(Self { n, demand: values })
    }

    /// The matrix dimension (node count).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Demand from `origin` to `dest` (0 on the diagonal by convention).
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= node_count()`.
    #[must_use]
    pub fn demand(&self, origin: usize, dest: usize) -> f64 {
        assert!(origin < self.n && dest < self.n, "node index out of bounds");
        self.demand[origin * self.n + dest]
    }

    /// Sets one demand entry (negative values clamp to zero).
    ///
    /// # Panics
    ///
    /// Panics if either index is `>= node_count()`.
    pub fn set(&mut self, origin: usize, dest: usize, value: f64) {
        assert!(origin < self.n && dest < self.n, "node index out of bounds");
        self.demand[origin * self.n + dest] = value.max(0.0);
    }

    /// Total demand across all OD pairs.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.demand.iter().sum()
    }

    /// Total demand departing `origin`.
    ///
    /// # Panics
    ///
    /// Panics if `origin >= node_count()`.
    #[must_use]
    pub fn row_total(&self, origin: usize) -> f64 {
        assert!(origin < self.n, "node index out of bounds");
        self.demand[origin * self.n..(origin + 1) * self.n]
            .iter()
            .sum()
    }

    /// Iterator over `(origin, dest, demand)` with positive demand, in
    /// row-major order.
    pub fn iter_positive(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.demand.iter().enumerate().filter_map(move |(i, &d)| {
            if d > 0.0 {
                Some((i / self.n, i % self.n, d))
            } else {
                None
            }
        })
    }

    /// A copy with every demand multiplied by `factor` (clamped at 0).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            n: self.n,
            demand: self.demand.iter().map(|d| (d * factor).max(0.0)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set() {
        let mut t = TripTable::zeros(2);
        assert_eq!(t.total(), 0.0);
        t.set(0, 1, 5.0);
        t.set(1, 0, -3.0); // clamped
        assert_eq!(t.demand(0, 1), 5.0);
        assert_eq!(t.demand(1, 0), 0.0);
        assert_eq!(t.node_count(), 2);
    }

    #[test]
    fn from_rows_validates_dimension() {
        assert!(TripTable::from_rows(2, vec![0.0; 4]).is_ok());
        assert!(matches!(
            TripTable::from_rows(2, vec![0.0; 3]),
            Err(RoadNetError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn totals() {
        let t = TripTable::from_rows(2, vec![0.0, 3.0, 7.0, 0.0]).unwrap();
        assert_eq!(t.total(), 10.0);
        assert_eq!(t.row_total(0), 3.0);
        assert_eq!(t.row_total(1), 7.0);
    }

    #[test]
    fn iter_positive_skips_zeros() {
        let t = TripTable::from_rows(2, vec![0.0, 3.0, 0.0, 0.0]).unwrap();
        assert_eq!(t.iter_positive().collect::<Vec<_>>(), vec![(0, 1, 3.0)]);
    }

    #[test]
    fn scaling() {
        let t = TripTable::from_rows(2, vec![0.0, 4.0, 2.0, 0.0]).unwrap();
        let s = t.scaled(0.5);
        assert_eq!(s.demand(0, 1), 2.0);
        assert_eq!(s.demand(1, 0), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn demand_bounds_checked() {
        let t = TripTable::zeros(2);
        let _ = t.demand(2, 0);
    }
}
