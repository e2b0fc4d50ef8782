//! Variable-length bit array masking for privacy-preserving point-to-point
//! traffic volume measurement — the core contribution of Zhou, Chen, Mo &
//! Xiao (ICDCS 2015).
//!
//! # The problem
//!
//! Estimate `n_c = |S_x ∩ S_y|`, the number of vehicles passing *both* of
//! two road-side units (RSUs), while no vehicle ever transmits an
//! identifier. Each vehicle answers an RSU query with a single bit index
//! drawn pseudo-randomly from its secret *logical bit array*; the RSU sets
//! that bit in its physical array and increments a counter. A central
//! server later estimates `n_c` from the two counters and two bit arrays
//! alone.
//!
//! # The contribution
//!
//! Earlier work (\[9\], CPSCom 2013) required every RSU to use the *same*
//! array length `m`, which breaks down when traffic volumes differ (the
//! "unbalanced load factor" problem): privacy collapses at light RSUs or
//! accuracy collapses at heavy ones. This scheme sizes each array as
//! `m_x = 2^ceil(log2(n̄_x · f̄))` — proportional to the RSU's historical
//! volume — and makes differently-sized arrays comparable at decode time
//! by *unfolding* (duplicating) the smaller to the larger's size.
//!
//! # Crate layout
//!
//! * [`Scheme`] — deployment-wide configuration (logical array size `s`,
//!   sizing policy, hash family); constructors [`Scheme::variable`] (the
//!   paper) and [`Scheme::fixed`] (the \[9\] baseline).
//! * [`Deployment`] — a set of per-RSU [`RsuSketch`]es for one measurement
//!   period: record passages, estimate pairs, roll periods.
//! * [`RsuSketch`] — one RSU's counter + bit array (paper §IV-B).
//! * [`estimator`] — the MLE decode (paper Eq. 5) with explicit
//!   saturation handling.
//! * [`sizing`] — the power-of-two sizing rule and the EWMA volume
//!   history that drives it.
//!
//! # Quickstart
//!
//! ```
//! use vcps_core::{Scheme, RsuId, VehicleIdentity};
//!
//! # fn main() -> Result<(), vcps_core::CoreError> {
//! // A deployment with s = 2 logical bits and load factor f̄ = 3.
//! let scheme = Scheme::variable(2, 3.0, 42)?;
//! let mut deployment = scheme.deploy(&[
//!     (RsuId(1), 2_000.0), // light-traffic RSU
//!     (RsuId(2), 40_000.0), // heavy-traffic RSU
//! ])?;
//!
//! // 1,000 vehicles pass both RSUs; 1,000 more pass only RSU 2.
//! for i in 0..1_000u64 {
//!     let v = VehicleIdentity::from_raw(i, i * 977);
//!     deployment.record(&v, RsuId(1))?;
//!     deployment.record(&v, RsuId(2))?;
//! }
//! for i in 1_000..2_000u64 {
//!     let v = VehicleIdentity::from_raw(i, i * 977);
//!     deployment.record(&v, RsuId(2))?;
//! }
//!
//! let estimate = deployment.estimate_pair(RsuId(1), RsuId(2))?;
//! let err = (estimate.n_c - 1_000.0).abs() / 1_000.0;
//! assert!(err < 0.25, "estimate {} should be near 1000", estimate.n_c);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deployment;
mod error;
pub mod estimator;
mod scheme;
pub mod sizing;
mod sketch;

pub use deployment::Deployment;
pub use error::CoreError;
pub use estimator::{
    eq5, estimate_from_counts, estimate_from_counts_or_clamp, estimate_from_terms, estimate_pair,
    first_plays_x, try_denominator, DegradedEstimate, Estimate, PairCounts, PairEstimate, ZeroTerm,
};
pub use scheme::{Scheme, SchemeKind};
pub use sizing::{Sizing, VolumeHistory};
pub use sketch::RsuSketch;

// Re-export the identity and substrate types that appear in this crate's
// public API, so downstream users need only one import root.
pub use vcps_bitarray::{BitArray, Pow2};
pub use vcps_hash::{
    HashFamily, PrivateKey, RsuId, Salts, SelectionRule, VehicleId, VehicleIdentity,
};
