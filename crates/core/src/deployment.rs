use std::collections::BTreeMap;

use vcps_hash::{RsuId, VehicleIdentity};

use crate::estimator::{estimate_pair, estimate_pair_or_clamp, Estimate};
use crate::{CoreError, RsuSketch, Scheme, VolumeHistory};

/// One measurement period's state across a set of RSUs: a sketch per RSU
/// plus the deployment-wide largest array size `m_o` (from which every
/// vehicle's logical bit array is drawn, paper §IV-B).
///
/// Built by [`Scheme::deploy`]. Typical lifecycle:
///
/// 1. [`record`](Deployment::record) every vehicle passage during the
///    period (online coding phase);
/// 2. [`estimate_pair`](Deployment::estimate_pair) any pairs of interest
///    (offline decoding phase);
/// 3. fold the period's counters into a [`VolumeHistory`] and call
///    [`resize_from_history`](Deployment::resize_from_history) to start
///    the next period with refreshed sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    scheme: Scheme,
    sketches: BTreeMap<RsuId, RsuSketch>,
    m_o: usize,
}

impl Deployment {
    pub(crate) fn new(scheme: Scheme, volumes: &[(RsuId, f64)]) -> Result<Self, CoreError> {
        if volumes.is_empty() {
            return Err(CoreError::InvalidConfig {
                parameter: "volumes",
                reason: "a deployment needs at least one RSU".into(),
            });
        }
        let mut sketches = BTreeMap::new();
        let mut m_o = 0usize;
        for &(id, volume) in volumes {
            let m = scheme.array_size_for(volume)?;
            if sketches.insert(id, RsuSketch::new(id, m)?).is_some() {
                return Err(CoreError::DuplicateRsu { rsu: id });
            }
            m_o = m_o.max(m);
        }
        Ok(Self {
            scheme,
            sketches,
            m_o,
        })
    }

    /// The deployment's scheme configuration.
    #[must_use]
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// The largest array size `m_o` (defines the logical-bit-array space).
    #[must_use]
    pub fn largest_array(&self) -> usize {
        self.m_o
    }

    /// Number of RSUs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sketches.len()
    }

    /// Always `false`: construction requires at least one RSU.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The sketch of one RSU.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRsu`] for ids outside the deployment.
    pub fn sketch(&self, rsu: RsuId) -> Result<&RsuSketch, CoreError> {
        self.sketches.get(&rsu).ok_or(CoreError::UnknownRsu { rsu })
    }

    /// Iterator over all sketches in RSU-id order.
    pub fn sketches(&self) -> impl Iterator<Item = &RsuSketch> {
        self.sketches.values()
    }

    /// All RSU ids in order.
    pub fn rsu_ids(&self) -> impl Iterator<Item = RsuId> + '_ {
        self.sketches.keys().copied()
    }

    /// Records one vehicle passage at `rsu`: the vehicle computes its
    /// report index (paper Eq. 2), the RSU sets that bit and increments
    /// its counter (Eq. 1). Returns the transmitted index — the *only*
    /// information that ever leaves the vehicle.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownRsu`] for ids outside the deployment.
    pub fn record(&mut self, vehicle: &VehicleIdentity, rsu: RsuId) -> Result<usize, CoreError> {
        let m_o = self.m_o;
        let scheme = self.scheme.clone();
        let sketch = self
            .sketches
            .get_mut(&rsu)
            .ok_or(CoreError::UnknownRsu { rsu })?;
        let index = scheme.report_index(vehicle, rsu, sketch.len(), m_o);
        sketch.record(index)?;
        Ok(index)
    }

    /// Decodes the point-to-point volume between two RSUs (paper Eq. 5).
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownRsu`] / [`CoreError::DuplicateRsu`] for bad
    ///   ids;
    /// * [`CoreError::Saturated`] if an array has no zero bits.
    pub fn estimate_pair(&self, a: RsuId, b: RsuId) -> Result<Estimate, CoreError> {
        if a == b {
            return Err(CoreError::DuplicateRsu { rsu: a });
        }
        estimate_pair(self.sketch(a)?, self.sketch(b)?, self.scheme.s())
    }

    /// Like [`estimate_pair`](Deployment::estimate_pair) but clamps
    /// saturated zero counts instead of failing (see
    /// [`crate::estimator::estimate_pair_or_clamp`]).
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownRsu`] / [`CoreError::DuplicateRsu`] for bad
    ///   ids.
    pub fn estimate_pair_or_clamp(&self, a: RsuId, b: RsuId) -> Result<Estimate, CoreError> {
        if a == b {
            return Err(CoreError::DuplicateRsu { rsu: a });
        }
        estimate_pair_or_clamp(self.sketch(a)?, self.sketch(b)?, self.scheme.s())
    }

    /// Decodes every unordered RSU pair in the deployment (the server's
    /// full point-to-point matrix), clamping saturated counts so one
    /// degenerate pair does not abort the sweep. Pairs are returned in
    /// `(smaller id, larger id)` lexicographic order.
    ///
    /// O(k²) pairs, each costing O(m_y); for the 24-node Sioux Falls
    /// deployment that is 276 decodes.
    ///
    /// # Errors
    ///
    /// Returns the first structural failure (incompatible sizes), which
    /// cannot occur for deployments built by [`Scheme::deploy`].
    pub fn estimate_all_pairs(&self) -> Result<Vec<(RsuId, RsuId, Estimate)>, CoreError> {
        let ids: Vec<RsuId> = self.rsu_ids().collect();
        let mut out = Vec::with_capacity(ids.len() * ids.len().saturating_sub(1) / 2);
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                out.push((a, b, self.estimate_pair_or_clamp(a, b)?));
            }
        }
        Ok(out)
    }

    /// Clears all sketches for a new measurement period, keeping sizes.
    pub fn reset_period(&mut self) {
        for sketch in self.sketches.values_mut() {
            sketch.reset();
        }
    }

    /// Starts a new period with sizes recomputed from an updated history
    /// (paper §IV-C: the server updates history averages at period end).
    /// RSUs absent from `history` keep their current size.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if a size computation fails;
    /// sketches already resized keep their new sizes, so callers should
    /// treat an error as fatal for the deployment.
    pub fn resize_from_history(&mut self, history: &VolumeHistory) -> Result<(), CoreError> {
        let mut m_o = 0usize;
        for (id, sketch) in &mut self.sketches {
            if let Some(avg) = history.average(*id) {
                let m = self.scheme.array_size_for(avg)?;
                sketch.resize(m)?;
            } else {
                sketch.reset();
            }
            m_o = m_o.max(sketch.len());
        }
        self.m_o = m_o;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheme;

    fn two_rsu_deployment() -> Deployment {
        Scheme::variable(2, 3.0, 1)
            .unwrap()
            .deploy(&[(RsuId(1), 1_000.0), (RsuId(2), 20_000.0)])
            .unwrap()
    }

    #[test]
    fn deploy_sizes_arrays_per_volume() {
        let d = two_rsu_deployment();
        // 3k -> 2^12, 60k -> 2^16.
        assert_eq!(d.sketch(RsuId(1)).unwrap().len(), 1 << 12);
        assert_eq!(d.sketch(RsuId(2)).unwrap().len(), 1 << 16);
        assert_eq!(d.largest_array(), 1 << 16);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
    }

    #[test]
    fn deploy_rejects_duplicates_and_empty() {
        let scheme = Scheme::variable(2, 3.0, 1).unwrap();
        assert!(matches!(
            scheme.deploy(&[(RsuId(1), 10.0), (RsuId(1), 20.0)]),
            Err(CoreError::DuplicateRsu { rsu: RsuId(1) })
        ));
        assert!(scheme.deploy(&[]).is_err());
    }

    #[test]
    fn record_updates_counter_and_bit() {
        let mut d = two_rsu_deployment();
        let v = VehicleIdentity::from_raw(5, 6);
        let idx = d.record(&v, RsuId(1)).unwrap();
        assert!(idx < 1 << 12);
        let sketch = d.sketch(RsuId(1)).unwrap();
        assert_eq!(sketch.count(), 1);
        assert!(sketch.bits().get(idx));
    }

    #[test]
    fn record_unknown_rsu_errors() {
        let mut d = two_rsu_deployment();
        let v = VehicleIdentity::from_raw(5, 6);
        assert!(matches!(
            d.record(&v, RsuId(99)),
            Err(CoreError::UnknownRsu { rsu: RsuId(99) })
        ));
    }

    #[test]
    fn same_vehicle_same_rsu_is_idempotent_on_bits() {
        let mut d = two_rsu_deployment();
        let v = VehicleIdentity::from_raw(5, 6);
        let a = d.record(&v, RsuId(1)).unwrap();
        let b = d.record(&v, RsuId(1)).unwrap();
        assert_eq!(a, b, "deterministic per (vehicle, RSU)");
        assert_eq!(d.sketch(RsuId(1)).unwrap().count(), 2);
        assert_eq!(d.sketch(RsuId(1)).unwrap().bits().count_ones(), 1);
    }

    #[test]
    fn estimate_pair_validates_ids() {
        let d = two_rsu_deployment();
        assert!(matches!(
            d.estimate_pair(RsuId(1), RsuId(1)),
            Err(CoreError::DuplicateRsu { .. })
        ));
        assert!(matches!(
            d.estimate_pair(RsuId(1), RsuId(42)),
            Err(CoreError::UnknownRsu { .. })
        ));
    }

    #[test]
    fn end_to_end_estimate_with_skewed_traffic() {
        // n_x = 2_000, n_y = 20_000, n_c = 500: the variable scheme stays
        // accurate despite the 10x skew (the point of the paper).
        let scheme = Scheme::variable(2, 3.0, 21).unwrap();
        let mut d = scheme
            .deploy(&[(RsuId(1), 2_000.0), (RsuId(2), 20_000.0)])
            .unwrap();
        let mut id = 0u64;
        let mut fresh = |n: u64| -> Vec<VehicleIdentity> {
            let out = (id..id + n)
                .map(|i| VehicleIdentity::from_raw(i, i.wrapping_mul(0x9E37_79B9)))
                .collect();
            id += n;
            out
        };
        for v in fresh(500) {
            d.record(&v, RsuId(1)).unwrap();
            d.record(&v, RsuId(2)).unwrap();
        }
        for v in fresh(1_500) {
            d.record(&v, RsuId(1)).unwrap();
        }
        for v in fresh(19_500) {
            d.record(&v, RsuId(2)).unwrap();
        }
        let e = d.estimate_pair(RsuId(1), RsuId(2)).unwrap();
        let rel = e.relative_error(500.0).unwrap();
        assert!(rel < 0.2, "estimate {} (rel err {rel})", e.n_c);
    }

    #[test]
    fn estimate_all_pairs_covers_every_unordered_pair() {
        let scheme = Scheme::variable(2, 3.0, 5).unwrap();
        let mut d = scheme
            .deploy(&[(RsuId(1), 100.0), (RsuId(2), 100.0), (RsuId(3), 100.0)])
            .unwrap();
        for i in 0..50u64 {
            let v = VehicleIdentity::from_raw(i, i.wrapping_mul(97) ^ 5);
            d.record(&v, RsuId(1)).unwrap();
            d.record(&v, RsuId(2)).unwrap();
        }
        let pairs = d.estimate_all_pairs().unwrap();
        let keys: Vec<(RsuId, RsuId)> = pairs.iter().map(|&(a, b, _)| (a, b)).collect();
        assert_eq!(
            keys,
            vec![
                (RsuId(1), RsuId(2)),
                (RsuId(1), RsuId(3)),
                (RsuId(2), RsuId(3))
            ]
        );
        // The loaded pair shows signal; the empty-RSU pairs decode to ~0.
        assert!(pairs[0].2.n_c > 10.0);
        assert!(pairs[1].2.n_c.abs() < 10.0);
    }

    #[test]
    fn reset_period_clears_sketches() {
        let mut d = two_rsu_deployment();
        let v = VehicleIdentity::from_raw(1, 2);
        d.record(&v, RsuId(1)).unwrap();
        d.reset_period();
        assert_eq!(d.sketch(RsuId(1)).unwrap().count(), 0);
    }

    #[test]
    fn resize_from_history_rescales_arrays() {
        let mut d = two_rsu_deployment();
        let mut history = VolumeHistory::new(1.0);
        history.update(RsuId(1), 100_000.0); // light RSU got busy
        history.update(RsuId(2), 100.0); // heavy RSU went quiet
        d.resize_from_history(&history).unwrap();
        assert_eq!(d.sketch(RsuId(1)).unwrap().len(), 1 << 19); // 300k
        assert_eq!(d.sketch(RsuId(2)).unwrap().len(), 512); // 300
        assert_eq!(d.largest_array(), 1 << 19);
    }

    #[test]
    fn resize_keeps_unknown_rsus() {
        let mut d = two_rsu_deployment();
        let history = VolumeHistory::default(); // empty
        d.resize_from_history(&history).unwrap();
        assert_eq!(d.sketch(RsuId(1)).unwrap().len(), 1 << 12);
    }

    #[test]
    fn fixed_scheme_deployment_uses_one_size() {
        let d = Scheme::fixed(2, 4_096, 3)
            .unwrap()
            .deploy(&[(RsuId(1), 10.0), (RsuId(2), 1e7)])
            .unwrap();
        assert_eq!(d.sketch(RsuId(1)).unwrap().len(), 4_096);
        assert_eq!(d.sketch(RsuId(2)).unwrap().len(), 4_096);
    }
}
