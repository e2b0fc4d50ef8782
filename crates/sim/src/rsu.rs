use vcps_core::{RsuId, RsuSketch};

use crate::pki::{Certificate, TrustedAuthority};
use crate::protocol::{BitReport, PeriodUpload, Query};
use crate::SimError;

/// A road-side unit in the simulation.
///
/// Owns a [`RsuSketch`] and implements the protocol role of paper §IV-B:
/// broadcast [`Query`]s (RID + certificate + array size), fold incoming
/// [`BitReport`]s into the sketch, and produce the end-of-period
/// [`PeriodUpload`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimRsu {
    sketch: RsuSketch,
    certificate: Certificate,
}

impl SimRsu {
    /// Creates an RSU with an `m`-bit array, certified by `authority`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if `m < 2`.
    pub fn new(id: RsuId, m: usize, authority: &TrustedAuthority) -> Result<Self, SimError> {
        Ok(Self {
            sketch: RsuSketch::new(id, m)?,
            certificate: authority.issue(id),
        })
    }

    /// Reassembles an RSU from an existing sketch and certificate — how
    /// [`crate::faults::RsuCheckpoint`] restores a crashed RSU's
    /// persisted state.
    #[must_use]
    pub fn from_parts(sketch: RsuSketch, certificate: Certificate) -> Self {
        Self {
            sketch,
            certificate,
        }
    }

    /// The RSU's identifier.
    #[must_use]
    pub fn id(&self) -> RsuId {
        self.sketch.id()
    }

    /// The broadcast query for the current period.
    #[must_use]
    pub fn query(&self) -> Query {
        Query {
            rsu: self.sketch.id(),
            certificate: self.certificate,
            array_size: self.sketch.len() as u64,
        }
    }

    /// Handles one vehicle report: sets the bit and counts the passage
    /// (paper Eqs. 1–2).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] for out-of-range indices (malformed
    /// reports are dropped without counting).
    pub fn receive(&mut self, report: &BitReport) -> Result<(), SimError> {
        self.sketch.record(report.index as usize)?;
        Ok(())
    }

    /// The end-of-period upload for the central server.
    #[must_use]
    pub fn upload(&self) -> PeriodUpload {
        PeriodUpload {
            rsu: self.sketch.id(),
            counter: self.sketch.count(),
            bits: self.sketch.bits().clone(),
        }
    }

    /// Read access to the sketch (for instrumentation).
    #[must_use]
    pub fn sketch(&self) -> &RsuSketch {
        &self.sketch
    }

    /// The RSU's certificate (persisted by
    /// [`crate::faults::RsuCheckpoint`] so a restarted RSU can resume
    /// broadcasting without re-contacting the authority).
    #[must_use]
    pub fn certificate(&self) -> &Certificate {
        &self.certificate
    }

    /// Starts a new period, optionally with a new array size from the
    /// server's re-sizing decision.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if the new size is below 2.
    pub fn start_period(&mut self, new_size: Option<usize>) -> Result<(), SimError> {
        match new_size {
            Some(m) => self.sketch.resize(m)?,
            None => self.sketch.reset(),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MacAddress;

    fn rsu() -> (SimRsu, TrustedAuthority) {
        let ca = TrustedAuthority::new(4);
        (SimRsu::new(RsuId(7), 128, &ca).unwrap(), ca)
    }

    fn report(index: u64) -> BitReport {
        BitReport {
            mac: MacAddress([2, 0, 0, 0, 0, 1]),
            index,
        }
    }

    #[test]
    fn query_carries_rid_cert_and_size() {
        let (rsu, ca) = rsu();
        let q = rsu.query();
        assert_eq!(q.rsu, RsuId(7));
        assert_eq!(q.array_size, 128);
        assert!(ca.verify(&q.certificate));
    }

    #[test]
    fn receive_updates_sketch() {
        let (mut rsu, _) = rsu();
        rsu.receive(&report(3)).unwrap();
        rsu.receive(&report(3)).unwrap();
        assert_eq!(rsu.sketch().count(), 2);
        assert_eq!(rsu.sketch().bits().count_ones(), 1);
    }

    #[test]
    fn out_of_range_report_is_rejected() {
        let (mut rsu, _) = rsu();
        assert!(rsu.receive(&report(128)).is_err());
        assert_eq!(rsu.sketch().count(), 0, "rejected report not counted");
    }

    #[test]
    fn upload_snapshot_matches_sketch() {
        let (mut rsu, _) = rsu();
        rsu.receive(&report(10)).unwrap();
        let up = rsu.upload();
        assert_eq!(up.rsu, RsuId(7));
        assert_eq!(up.counter, 1);
        assert!(up.bits.get(10));
    }

    #[test]
    fn start_period_resets_or_resizes() {
        let (mut rsu, _) = rsu();
        rsu.receive(&report(1)).unwrap();
        rsu.start_period(None).unwrap();
        assert_eq!(rsu.sketch().count(), 0);
        assert_eq!(rsu.sketch().len(), 128);
        rsu.start_period(Some(512)).unwrap();
        assert_eq!(rsu.sketch().len(), 512);
        assert_eq!(rsu.query().array_size, 512);
        assert!(rsu.start_period(Some(1)).is_err());
    }
}
