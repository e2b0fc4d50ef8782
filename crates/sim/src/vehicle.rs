use vcps_core::{Scheme, VehicleIdentity};
use vcps_hash::SplitMix64;

use crate::pki::TrustedAuthority;
use crate::protocol::{BitReport, Query};
use crate::{MacAddress, SimError};

/// A vehicle participating in the measurement system.
///
/// Wraps the secret [`VehicleIdentity`] with the protocol behaviour of
/// paper §IV-B: on receiving a [`Query`] the vehicle (1) verifies the
/// RSU's certificate against the trusted authority, (2) computes the
/// single bit index for this RSU, and (3) replies under a fresh one-time
/// MAC address. Nothing derived from the vehicle's identity or key ever
/// appears on the wire except the (uniformly distributed) bit index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimVehicle {
    identity: VehicleIdentity,
    mac_gen: SplitMix64,
}

impl SimVehicle {
    /// Creates a vehicle from its identity; `mac_seed` drives the
    /// one-time MAC generator (simulation-only randomness).
    #[must_use]
    pub fn new(identity: VehicleIdentity, mac_seed: u64) -> Self {
        Self {
            identity,
            mac_gen: SplitMix64::new(mac_seed),
        }
    }

    /// The vehicle's secret identity (never transmitted).
    #[must_use]
    pub fn identity(&self) -> &VehicleIdentity {
        &self.identity
    }

    /// Answers an RSU query, or refuses if the certificate does not
    /// verify.
    ///
    /// `m_o` is the deployment's largest array size (a public parameter
    /// every vehicle knows — it defines the logical-bit-array space).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CertificateRejected`] for certificates the
    /// authority did not issue — the vehicle stays silent toward
    /// untrusted RSUs.
    pub fn answer(
        &mut self,
        query: &Query,
        scheme: &Scheme,
        authority: &TrustedAuthority,
        m_o: usize,
    ) -> Result<BitReport, SimError> {
        if query.certificate.rsu != query.rsu || !authority.verify(&query.certificate) {
            return Err(SimError::CertificateRejected { rsu: query.rsu });
        }
        let index = scheme.report_index(&self.identity, query.rsu, query.array_size as usize, m_o);
        Ok(BitReport {
            mac: MacAddress::from_entropy(self.mac_gen.next_u64()),
            index: index as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcps_core::RsuId;

    fn setup() -> (Scheme, TrustedAuthority, Query) {
        let scheme = Scheme::variable(2, 3.0, 3).unwrap();
        let ca = TrustedAuthority::new(8);
        let query = Query {
            rsu: RsuId(4),
            certificate: ca.issue(RsuId(4)),
            array_size: 1 << 10,
        };
        (scheme, ca, query)
    }

    #[test]
    fn answers_valid_queries_with_in_range_index() {
        let (scheme, ca, query) = setup();
        let mut v = SimVehicle::new(VehicleIdentity::from_raw(1, 2), 77);
        let report = v.answer(&query, &scheme, &ca, 1 << 16).unwrap();
        assert!(report.index < 1 << 10);
    }

    #[test]
    fn same_rsu_same_index_fresh_mac() {
        let (scheme, ca, query) = setup();
        let mut v = SimVehicle::new(VehicleIdentity::from_raw(1, 2), 77);
        let a = v.answer(&query, &scheme, &ca, 1 << 16).unwrap();
        let b = v.answer(&query, &scheme, &ca, 1 << 16).unwrap();
        assert_eq!(a.index, b.index, "bit index is deterministic per RSU");
        assert_ne!(a.mac, b.mac, "MAC address must be one-time");
    }

    #[test]
    fn rejects_forged_certificates() {
        let (scheme, ca, mut query) = setup();
        query.certificate.tag ^= 1;
        let mut v = SimVehicle::new(VehicleIdentity::from_raw(1, 2), 77);
        assert_eq!(
            v.answer(&query, &scheme, &ca, 1 << 16),
            Err(SimError::CertificateRejected { rsu: RsuId(4) })
        );
    }

    #[test]
    fn rejects_certificates_for_other_rsus() {
        let (scheme, ca, mut query) = setup();
        // Replay RSU 4's certificate from an RSU claiming id 5.
        query.rsu = RsuId(5);
        let mut v = SimVehicle::new(VehicleIdentity::from_raw(1, 2), 77);
        assert!(v.answer(&query, &scheme, &ca, 1 << 16).is_err());
    }
}
