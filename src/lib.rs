//! # vcps — privacy-preserving point-to-point traffic volume measurement
//!
//! A complete implementation of *"Point-to-Point Traffic Volume
//! Measurement through Variable-Length Bit Array Masking in Vehicular
//! Cyber-Physical Systems"* (Zhou, Chen, Mo & Xiao, ICDCS 2015),
//! including every substrate the paper depends on and the fixed-length
//! baseline it compares against.
//!
//! This crate is a facade: it re-exports the workspace's sub-crates
//! under stable module names so downstream users need a single
//! dependency.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `vcps-core` | the scheme: sketches, sizing, unfolding MLE decode, deployments |
//! | [`bitarray`] | `vcps-bitarray` | bit arrays, power-of-two lengths, streaming combined zero count |
//! | [`hash`] | `vcps-hash` | keyed hash family, identities, logical bit arrays |
//! | [`analysis`] | `vcps-analysis` | accuracy & privacy closed forms, parameter solvers |
//! | [`roadnet`] | `vcps-roadnet` | graphs, Dijkstra, BPR, assignment, Sioux Falls |
//! | [`sim`] | `vcps-sim` | vehicles, RSUs, server, protocol, DES engine, fault injection, adversary |
//! | [`durable`] | `vcps-durable` | checksummed write-ahead log and atomic checkpoint store |
//!
//! The most common types are additionally re-exported at the crate root.
//!
//! ## Quickstart
//!
//! ```
//! use vcps::{RsuId, Scheme, VehicleIdentity};
//!
//! # fn main() -> Result<(), vcps::CoreError> {
//! // Variable-length scheme: s = 2 logical bits, load factor f̄ = 3.
//! let scheme = Scheme::variable(2, 3.0, 42)?;
//! let mut deployment = scheme.deploy(&[
//!     (RsuId(1), 5_000.0),  // light intersection
//!     (RsuId(2), 50_000.0), // heavy intersection
//! ])?;
//!
//! // Online coding: vehicles answer queries with a single bit index.
//! // (Keys must be independent of ids: the scheme hashes v ⊕ K_v.)
//! for i in 0..3_000u64 {
//!     let v = VehicleIdentity::from_raw(i, i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
//!     deployment.record(&v, RsuId(1))?;
//!     deployment.record(&v, RsuId(2))?;
//! }
//!
//! // Offline decoding: unfold, OR, count zeros, MLE (paper Eq. 5).
//! let estimate = deployment.estimate_pair(RsuId(1), RsuId(2))?;
//! assert!((estimate.n_c - 3_000.0).abs() / 3_000.0 < 0.2);
//! # Ok(())
//! # }
//! ```
//!
//! See the repository's `examples/` for larger scenarios (the Sioux
//! Falls network, privacy tuning, multi-period operation, an adversary
//! analysis) and `DESIGN.md`/`EXPERIMENTS.md` for the paper-reproduction
//! index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vcps_analysis as analysis;
pub use vcps_bitarray as bitarray;
pub use vcps_core as core;
pub use vcps_durable as durable;
pub use vcps_hash as hash;
pub use vcps_obs as obs;
pub use vcps_roadnet as roadnet;
pub use vcps_sim as sim;

pub use vcps_analysis::{AnalysisError, PairParams};
pub use vcps_bitarray::{BitArray, BitArrayError, Pow2};
pub use vcps_core::{
    estimate_pair, CoreError, DegradedEstimate, Deployment, Estimate, PairEstimate, RsuSketch,
    Scheme, SchemeKind, Sizing, VolumeHistory,
};
pub use vcps_hash::{
    HashFamily, PrivateKey, RsuId, Salts, SelectionRule, VehicleId, VehicleIdentity,
};
pub use vcps_obs::{Obs, Phase, Registry, RegistrySnapshot};
pub use vcps_roadnet::{RoadNetError, RoadNetwork, TripTable, VehicleTrip};
pub use vcps_sim::{
    CentralServer, Channel, FaultPlan, LinkFaults, PairRunner, ReceiveOutcome, RetryPolicy,
    SimError, SimRsu, SimVehicle,
};
