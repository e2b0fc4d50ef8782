//! A toy public-key infrastructure for the simulation.
//!
//! The paper assumes RSUs broadcast "public-key certificates obtained
//! from trusted third parties" that vehicles verify before answering
//! (§II-A, §IV-B). The measurement mathematics never touches the
//! cryptography — only the protocol step "vehicle authenticates RSU,
//! possibly rejecting it" matters — so this module simulates
//! certificates with a keyed-hash tag issued by a [`TrustedAuthority`].
//!
//! **This is not real cryptography.** A deployment would use standard
//! PKI (e.g. IEEE 1609.2 for DSRC). The simulation preserves the
//! protocol shape: certificates are issued per RSU, carried in every
//! query, verifiable by anyone holding the authority's public parameters,
//! and forgeries are rejected (up to hash collisions, which is plenty to
//! exercise the failure path).

use vcps_core::{HashFamily, RsuId};

/// The trusted third party that issues RSU certificates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrustedAuthority {
    family: HashFamily,
}

/// A simulated certificate binding an RSU id to the authority.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Certificate {
    /// The certified RSU.
    pub rsu: RsuId,
    /// The authority's tag over the RSU id (simulated signature).
    pub tag: u64,
}

impl TrustedAuthority {
    /// Creates an authority from a seed (its "signing key").
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            family: HashFamily::new(seed ^ 0x7157_ED00_A07F_0C1A),
        }
    }

    /// Issues a certificate for `rsu`.
    #[must_use]
    pub fn issue(&self, rsu: RsuId) -> Certificate {
        Certificate {
            rsu,
            tag: self.family.hash(rsu.0),
        }
    }

    /// Verifies that `cert` was issued by this authority for its claimed
    /// RSU.
    #[must_use]
    pub fn verify(&self, cert: &Certificate) -> bool {
        self.family.hash(cert.rsu.0) == cert.tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn issued_certificates_verify() {
        let ca = TrustedAuthority::new(1);
        let cert = ca.issue(RsuId(10));
        assert!(ca.verify(&cert));
        assert_eq!(cert.rsu, RsuId(10));
    }

    #[test]
    fn forged_tags_are_rejected() {
        let ca = TrustedAuthority::new(1);
        let mut cert = ca.issue(RsuId(10));
        cert.tag ^= 1;
        assert!(!ca.verify(&cert));
    }

    #[test]
    fn transplanted_certificates_are_rejected() {
        // A certificate for one RSU must not validate another.
        let ca = TrustedAuthority::new(1);
        let mut cert = ca.issue(RsuId(10));
        cert.rsu = RsuId(11);
        assert!(!ca.verify(&cert));
    }

    #[test]
    fn different_authorities_do_not_cross_verify() {
        let ca1 = TrustedAuthority::new(1);
        let ca2 = TrustedAuthority::new(2);
        let cert = ca1.issue(RsuId(5));
        assert!(!ca2.verify(&cert));
    }
}
