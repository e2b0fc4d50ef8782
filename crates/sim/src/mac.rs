use std::fmt;

use rand::Rng;

/// A one-time MAC address.
///
/// The paper assumes "a special MAC protocol … such that the MAC address
/// of a vehicle is not fixed. Vehicles may pick an MAC address randomly
/// from a large space for one-time use" (§II-A). [`MacAddress::random`]
/// draws such an address; a fresh one is used for every query answer so
/// link-layer identifiers cannot be used for tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddress(pub [u8; 6]);

impl MacAddress {
    /// Draws a fresh locally-administered, unicast address.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 6];
        rng.fill_bytes(&mut bytes);
        Self::normalize(bytes)
    }

    /// Builds an address from 48 bits of entropy (e.g. a hash output) —
    /// used where carrying an RNG around is inconvenient.
    #[must_use]
    pub fn from_entropy(value: u64) -> Self {
        let raw = value.to_be_bytes();
        Self::normalize([raw[2], raw[3], raw[4], raw[5], raw[6], raw[7]])
    }

    /// Forces the locally-administered (bit 1 of first octet set),
    /// unicast (bit 0 clear) form — the address space reserved for
    /// exactly this kind of randomization.
    fn normalize(mut bytes: [u8; 6]) -> Self {
        bytes[0] = (bytes[0] | 0b0000_0010) & 0b1111_1110;
        Self(bytes)
    }
}

impl fmt::Display for MacAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_addresses_are_locally_administered_unicast() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let mac = MacAddress::random(&mut rng);
            assert_eq!(mac.0[0] & 0b10, 0b10, "locally administered");
            assert_eq!(mac.0[0] & 0b01, 0, "unicast");
        }
    }

    #[test]
    fn addresses_rarely_repeat() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            assert!(seen.insert(MacAddress::random(&mut rng)));
        }
    }

    #[test]
    fn display_formats_as_colon_hex() {
        let mac = MacAddress([0x02, 0xAB, 0x00, 0x01, 0x02, 0x03]);
        assert_eq!(mac.to_string(), "02:ab:00:01:02:03");
    }
}
