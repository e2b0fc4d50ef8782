//! `vcps-net`: the socket layer of the VCPS measurement server.
//!
//! The paper's pipeline assumes RSUs report to a central server over a
//! real network; until this crate, every server path in the workspace
//! was exercised through in-process calls. `vcps-net` provides:
//!
//! * [`Daemon`] — `vcpsd`'s engine: a `std::net` TCP accept loop,
//!   length-delimited framing with the prefix capped *before*
//!   allocation, per-connection DoS budgets ([`ConnectionLimits`]), and
//!   dispatch into the existing [`ShardedServer`]
//!   (through the zero-copy `receive_batch_wire`) or a WAL-backed
//!   [`DurableServer`];
//! * [`NetClient`] — a blocking request/response client with a
//!   pipelined ingest path;
//! * [`workload`] — synthetic-city replay frames for the
//!   load-generator binary and the differential tests;
//! * [`cli`] — the strict flag parser both binaries share.
//!
//! See DESIGN.md §19 for the framing grammar, the threading model, and
//! the shutdown/durability contract.
//!
//! [`ShardedServer`]: vcps_sim::ShardedServer
//! [`DurableServer`]: vcps_sim::DurableServer

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
mod client;
mod error;
mod limits;
mod server;
pub mod wire;
pub mod workload;

pub use client::NetClient;
pub use error::NetError;
pub use limits::ConnectionLimits;
pub use server::{Daemon, DaemonConfig, DaemonHandle};
pub use wire::{AckSummary, Response, WireMatrix};
