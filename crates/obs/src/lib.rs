//! `vcps-obs`: the central server's metrics registry plus per-phase
//! profiling timers, with zero dependencies (DESIGN.md §14).
//!
//! Everything hangs off one cheap, cloneable handle:
//!
//! * [`Obs::disabled`] is a null pointer. Every recording method starts
//!   with one `Option` check and touches *no* clock, lock, or atomic
//!   when disabled — the no-op fast path the hot simulator loops carry
//!   (overhead measured in `BENCH_obs.json`). Observability must never
//!   change results: instrumented code records *about* its computation,
//!   never *into* it, so estimates are bit-identical on and off.
//! * [`Obs::enabled`] activates the layer: a [`Registry`] of counters,
//!   gauges, and fixed-bucket histograms over `AtomicU64` cells, so
//!   parallel workers record without contention.
//! * [`Obs::phase`] opens a [`PhaseTimer`] for one of the pipeline
//!   [`Phase`]s (encode, receive, decode, O–D matrix, retry, WAL append,
//!   WAL sync, WAL recovery); dropping it records a `phase.<name>.ns`
//!   histogram and a `phase.<name>.calls` counter.
//!
//! [`Obs::snapshot`] freezes the registry into a [`RegistrySnapshot`]
//! whose [`merge`](RegistrySnapshot::merge) is associative and
//! commutative, and [`snapshot_json`] / [`snapshot_text`] render it for
//! the `--obs-json` experiment flag and the benchmark artifacts.
//!
//! # Example
//!
//! ```
//! use vcps_obs::{Obs, Phase};
//!
//! let obs = Obs::enabled();
//! {
//!     let _timer = obs.phase(Phase::Encode);
//!     obs.add("reports", 128);
//! }
//! let snap = obs.snapshot();
//! assert_eq!(snap.counters["reports"], 128);
//! assert_eq!(snap.counters["phase.encode.calls"], 1);
//! assert!(vcps_obs::snapshot_json(&snap).contains("\"reports\":128"));
//!
//! // Disabled: same calls, no work, no state.
//! let off = Obs::disabled();
//! off.add("reports", 128);
//! assert!(off.snapshot().is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod registry;

pub use export::{snapshot_json, snapshot_text};
pub use registry::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, Registry,
    RegistrySnapshot, HISTOGRAM_BUCKETS,
};

use std::sync::Arc;
use std::time::Instant;

/// The instrumented pipeline phases (profiled via [`Obs::phase`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Vehicle-side report generation (query → bit index).
    Encode,
    /// RSU-side report ingestion.
    Receive,
    /// Server-side pair decode (unfold + combined zero count + MLE).
    Decode,
    /// All-pairs O–D matrix assembly.
    OdMatrix,
    /// Upload retry/backoff handling.
    Retry,
    /// Write-ahead-log append on the durable ingest path: staging the
    /// record, and writing its group to the file when one is due.
    WalAppend,
    /// One WAL fdatasync, timed on the log's syncer thread. The durable
    /// server records only its histogram: `wal.fsync` already counts
    /// the calls.
    WalSync,
    /// Crash recovery: checkpoint load + WAL tail replay.
    WalRecover,
}

impl Phase {
    /// Registry name of the duration histogram.
    #[must_use]
    pub fn ns_metric(self) -> &'static str {
        match self {
            Phase::Encode => "phase.encode.ns",
            Phase::Receive => "phase.receive.ns",
            Phase::Decode => "phase.decode.ns",
            Phase::OdMatrix => "phase.od_matrix.ns",
            Phase::Retry => "phase.retry.ns",
            Phase::WalAppend => "phase.wal_append.ns",
            Phase::WalSync => "phase.wal_sync.ns",
            Phase::WalRecover => "phase.wal_recover.ns",
        }
    }

    /// Registry name of the invocation counter.
    #[must_use]
    pub fn calls_metric(self) -> &'static str {
        match self {
            Phase::Encode => "phase.encode.calls",
            Phase::Receive => "phase.receive.calls",
            Phase::Decode => "phase.decode.calls",
            Phase::OdMatrix => "phase.od_matrix.calls",
            Phase::Retry => "phase.retry.calls",
            Phase::WalAppend => "phase.wal_append.calls",
            Phase::WalSync => "phase.wal_sync.calls",
            Phase::WalRecover => "phase.wal_recover.calls",
        }
    }
}

/// The observability handle (see the crate docs).
///
/// `Clone` is an `Arc` bump; clones share one registry, so a handle can
/// be fanned across threads and snapshotted once. The `Default` handle
/// is disabled.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    registry: Option<Arc<Registry>>,
}

impl Obs {
    /// The no-op handle: every recording method is a single `None`
    /// check.
    #[must_use]
    pub fn disabled() -> Self {
        Self { registry: None }
    }

    /// An active handle over a fresh, empty registry.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            registry: Some(Arc::new(Registry::new())),
        }
    }

    /// `true` when recording does anything at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// The live registry, when enabled.
    #[must_use]
    pub fn registry(&self) -> Option<&Registry> {
        self.registry.as_deref()
    }

    /// Adds `v` to a named counter.
    #[inline]
    pub fn add(&self, name: &str, v: u64) {
        if let Some(registry) = &self.registry {
            registry.add(name, v);
        }
    }

    /// Adds one to a named counter.
    #[inline]
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Stores `v` in a named gauge.
    #[inline]
    pub fn gauge(&self, name: &str, v: f64) {
        if let Some(registry) = &self.registry {
            registry.set_gauge(name, v);
        }
    }

    /// Records `v` into a named histogram.
    #[inline]
    pub fn observe(&self, name: &str, v: u64) {
        if let Some(registry) = &self.registry {
            registry.observe(name, v);
        }
    }

    /// Starts profiling one pipeline phase; the returned timer records
    /// on drop. When disabled this reads no clock at all.
    pub fn phase(&self, phase: Phase) -> PhaseTimer {
        PhaseTimer {
            state: self
                .registry
                .as_ref()
                .map(|registry| (Arc::clone(registry), phase, Instant::now())),
        }
    }

    /// Freezes the registry (empty when disabled).
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry
            .as_ref()
            .map_or_else(RegistrySnapshot::default, |r| r.snapshot())
    }
}

/// Guard for [`Obs::phase`]; records the duration histogram and the
/// call counter on drop.
#[derive(Debug)]
#[must_use = "dropping the timer records the phase duration"]
pub struct PhaseTimer {
    state: Option<(Arc<Registry>, Phase, Instant)>,
}

impl Drop for PhaseTimer {
    fn drop(&mut self) {
        if let Some((registry, phase, start)) = self.state.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            registry.observe(phase.ns_metric(), ns);
            registry.inc(phase.calls_metric());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::disabled();
        obs.inc("a");
        obs.gauge("g", 1.0);
        obs.observe("h", 5);
        drop(obs.phase(Phase::Encode));
        assert!(!obs.is_enabled());
        assert!(obs.registry().is_none());
        assert!(obs.snapshot().is_empty());
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Obs::default().is_enabled());
    }

    #[test]
    fn clones_share_one_registry() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        std::thread::scope(|scope| {
            scope.spawn(|| clone.add("x", 2));
        });
        obs.inc("x");
        assert_eq!(obs.snapshot().counters["x"], 3);
    }

    #[test]
    fn phase_timer_records_histogram_and_counter() {
        let obs = Obs::enabled();
        for _ in 0..3 {
            let _t = obs.phase(Phase::Decode);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counters["phase.decode.calls"], 3);
        assert_eq!(snap.histograms["phase.decode.ns"].count, 3);
    }

    #[test]
    fn obs_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
        assert_send_sync::<Registry>();
    }
}
