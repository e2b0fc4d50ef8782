//! Vehicular cyber-physical system simulator: vehicles, road-side units,
//! a central server, the DSRC-style query protocol, a simulated PKI, a
//! discrete-event engine, a tracking adversary, and synthetic workload
//! generators.
//!
//! `vcps-core` implements the measurement *scheme*; this crate implements
//! the *system* around it, mirroring the paper's §II-A entities:
//!
//! * [`SimVehicle`] — holds a secret [`vcps_core::VehicleIdentity`],
//!   verifies RSU certificates, picks a fresh one-time MAC address per
//!   interaction, and answers queries with a single bit index.
//! * [`SimRsu`] — broadcasts [`Query`] messages (RID, certificate, array
//!   size), records [`BitReport`]s into its sketch, and uploads a
//!   [`PeriodUpload`] to the server at period end.
//! * [`CentralServer`] — collects uploads, updates per-RSU volume
//!   history (EWMA), re-sizes arrays for the next period, and estimates
//!   point-to-point volumes for arbitrary pairs.
//! * [`pki`] — a toy certificate authority standing in for the paper's
//!   PKI assumption (keyed-hash "signatures"; **not** real cryptography,
//!   see DESIGN.md §4).
//! * [`protocol`] — typed messages with a compact wire encoding
//!   (`bytes`), standing in for DSRC frames.
//! * [`engine`] — a discrete-event simulation that drives vehicles along
//!   road-network routes with per-link travel times, and the one run
//!   driver ([`run_period`] / [`run_periods`] over a [`RunConfig`]).
//! * [`adversary`] — an instrumented run that measures *empirical*
//!   preserved privacy, cross-validating the paper's Eq. 43.
//! * [`synthetic`] — seeded generators for `(n_x, n_y, n_c)`-controlled
//!   workloads (the Fig. 4/5 experiments).
//!
//! # Example: one measurement period over two RSUs
//!
//! ```
//! use vcps_core::{RsuId, Scheme};
//! use vcps_sim::{synthetic::SyntheticPair, PairRunner};
//!
//! # fn main() -> Result<(), vcps_sim::SimError> {
//! let scheme = Scheme::variable(2, 3.0, 7)?;
//! let workload = SyntheticPair::generate(2_000, 20_000, 1_000, 99);
//! let outcome = PairRunner::new(scheme, RsuId(1), RsuId(2))
//!     .with_history(2_000.0, 20_000.0)
//!     .run(&workload)?;
//! // The analytic relative sd here is ≈ 0.16 (see vcps-analysis); a
//! // single seeded run lands well within 3σ.
//! let err = (outcome.estimate.n_c - 1_000.0).abs() / 1_000.0;
//! assert!(err < 0.5, "estimate {} should be near 1000", outcome.estimate.n_c);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod concurrent;
pub mod durable;
pub mod engine;
mod error;
pub mod faults;
mod mac;
pub mod metrics;
pub mod metro;
pub mod pki;
pub mod protocol;
mod rsu;
mod runner;
mod server;
mod shard;
pub mod synthetic;
mod vehicle;

pub use durable::{DurableOptions, DurableServer, RecoveryReport};
pub use engine::{
    run_period, run_periods, Backend, Durable, MetroRun, Monolith, PeriodRun, PeriodSettings,
    RunConfig, Sharded,
};
pub use error::SimError;
pub use faults::{
    upload_with_retry, Channel, CrashMode, FaultPlan, LinkFaults, RetryPolicy, RsuCheckpoint,
    RsuCrash, SequencedSink, ServerCrash,
};
pub use mac::MacAddress;
pub use metrics::{CommunicationMetrics, FaultMetrics, LinkMetrics};
pub use metro::{
    build_metro, pair_truth, point_truth, score_accuracy, AccuracyScore, MetroConfig, MetroLayout,
    MetroWorkload, SlidingWindow, WindowEstimate,
};
pub use protocol::{
    BatchUpload, BatchUploadRef, BitReport, CheckpointSet, PeriodUpload, PeriodUploadRef, Query,
    SequencedUpload, SequencedUploadRef, ServerCheckpoint,
};
pub use rsu::SimRsu;
pub use runner::{PairOutcome, PairRunner};
pub use server::{CentralServer, OdAxis, OdMatrix, ReceiveOutcome};
pub use shard::{shard_for, ShardedServer};
pub use vcps_durable::{FlushPolicy, Watermark};
pub use vehicle::SimVehicle;
