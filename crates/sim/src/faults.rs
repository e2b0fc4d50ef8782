//! Fault injection for the query → report → upload pipeline.
//!
//! The paper assumes a clean lab channel: every [`crate::BitReport`]
//! reaches its RSU, every [`PeriodUpload`] reaches the server,
//! and every RSU survives the period. Real DSRC links drop, duplicate,
//! delay, and corrupt frames, and road-side hardware crashes. This module
//! makes all of that injectable — **deterministically** — so the
//! estimator's degradation under loss can be measured instead of guessed
//! (see the `robustness` experiment binary).
//!
//! # Determinism
//!
//! Every fault decision is a pure function of `(plan seed, link, frame
//! key)`: [`Channel::transmit`] seeds a private splitmix64 stream per
//! frame, so the outcome for a given frame never depends on thread
//! scheduling or on how many other frames crossed the link first. Two
//! runs with the same [`FaultPlan`] are byte-identical; a plan with all
//! rates at zero is a pass-through that leaves frames untouched.
//!
//! # Crash model
//!
//! An [`RsuCrash`] fires at a simulation time `at`. The RSU loses its
//! in-period state back to the last checkpoint ([`CrashMode::Checkpoint`]
//! with a fixed interval) or back to the period start
//! ([`CrashMode::LoseState`]), then resumes ingesting. Because report
//! ingestion is commutative, "lose the state in the window `[w0, w1)`" is
//! exactly equivalent to "never ingest reports timestamped in `[w0, w1)`"
//! — the engine applies the window filter so crash handling composes with
//! vehicles answering in parallel; [`RsuCheckpoint`] is the serialized
//! state an RSU would persist and restore, round-tripped through
//! [`vcps_bitarray::BitArray::to_bytes`] (tested equivalent below).
//!
//! # Upload reliability
//!
//! RSU → server uploads ride a stop-and-wait protocol:
//! [`SequencedUpload`] frames with bounded retries and deterministic
//! exponential backoff ([`RetryPolicy`]), against server acks that cross
//! the same lossy link. The server deduplicates re-sent uploads
//! idempotently (see [`crate::server::ReceiveOutcome`]); an RSU that
//! exhausts its budget is reported so callers can fall back to the
//! degraded estimate path.

use vcps_hash::{splitmix64, SplitMix64};

use crate::metrics::{FaultMetrics, LinkMetrics};
use crate::pki::Certificate;
use crate::protocol::{PeriodUpload, SequencedUpload, SequencedUploadRef};
use crate::server::ReceiveOutcome;
use crate::{CentralServer, DurableServer, SimError, SimRsu};

use vcps_bitarray::BitArray;
use vcps_core::{CoreError, RsuId, RsuSketch};

/// Per-link fault rates, each a probability in `[0, 1]`.
///
/// All rates default to zero (an ideal link). `reorder` models a frame
/// delivered so late it misses the receiver's period cut — for this
/// system the only observable effect reordering can have, since bit-set
/// ingestion is order-insensitive within a period.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability a frame is dropped outright.
    pub drop: f64,
    /// Probability a delivered frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is reordered past the period boundary and
    /// discarded by the receiver.
    pub reorder: f64,
    /// Probability a delivered copy loses its tail bytes.
    pub truncate: f64,
    /// Probability a delivered copy has one random bit flipped.
    pub bit_flip: f64,
}

impl LinkFaults {
    /// An ideal link (all rates zero).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the drop rate.
    #[must_use]
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the duplication rate.
    #[must_use]
    pub fn with_duplicate(mut self, p: f64) -> Self {
        self.duplicate = p;
        self
    }

    /// Sets the late-reorder rate.
    #[must_use]
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the truncation rate.
    #[must_use]
    pub fn with_truncate(mut self, p: f64) -> Self {
        self.truncate = p;
        self
    }

    /// Sets the bit-flip rate.
    #[must_use]
    pub fn with_bit_flip(mut self, p: f64) -> Self {
        self.bit_flip = p;
        self
    }

    /// `true` when every rate is exactly zero.
    #[must_use]
    pub fn is_ideal(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.truncate == 0.0
            && self.bit_flip == 0.0
    }

    /// Validates that every rate is a probability.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] for a rate outside `[0, 1]` or NaN.
    pub fn validate(&self) -> Result<(), SimError> {
        for (name, p) in [
            ("drop", self.drop),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("truncate", self.truncate),
            ("bit_flip", self.bit_flip),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(SimError::Core(CoreError::InvalidConfig {
                    parameter: "link_fault_rate",
                    reason: format!("{name} must be in [0, 1], got {p}"),
                }));
            }
        }
        Ok(())
    }
}

/// What an RSU recovers after a crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrashMode {
    /// No persistence: the whole in-period state (bits and counter) is
    /// lost.
    LoseState,
    /// The RSU checkpoints its state every `interval` simulated seconds
    /// and restores the most recent checkpoint on restart — only reports
    /// since that checkpoint are lost.
    Checkpoint {
        /// Seconds between checkpoints (must be positive).
        interval: f64,
    },
}

impl CrashMode {
    /// Builds [`CrashMode::Checkpoint`], rejecting a non-positive or
    /// non-finite interval at construction instead of deferring to
    /// [`FaultPlan::validate`] (which still checks, for plans built
    /// with struct literals).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if `interval` is not positive and
    /// finite (NaN included).
    pub fn checkpoint(interval: f64) -> Result<Self, SimError> {
        if !(interval.is_finite() && interval > 0.0) {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "checkpoint_interval",
                reason: format!("must be positive and finite, got {interval}"),
            }));
        }
        Ok(CrashMode::Checkpoint { interval })
    }
}

/// One RSU crash/restart event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RsuCrash {
    /// The node (RSU site) that crashes.
    pub node: usize,
    /// Simulation time of the crash.
    pub at: f64,
    /// What state survives the restart.
    pub mode: CrashMode,
}

impl RsuCrash {
    /// The half-open time window `[from, until)` whose reports the crash
    /// destroys: everything since the last checkpoint (or the period
    /// start) up to the crash instant.
    #[must_use]
    pub fn lost_window(&self) -> (f64, f64) {
        match self.mode {
            CrashMode::LoseState => (0.0, self.at),
            CrashMode::Checkpoint { interval } => {
                let last = (self.at / interval).floor() * interval;
                (last, self.at)
            }
        }
    }
}

/// A seeded server-process crash: the durable engine variants kill the
/// whole server — dropping *all* in-memory state, every shard at once —
/// after `at_record` WAL records have been appended, then recover from
/// disk (latest valid checkpoint + WAL-tail replay) and continue. The
/// server-side analogue of [`RsuCrash`].
///
/// The crash fires at the first ingestion boundary at or after
/// `at_record`, which keeps the recovered byte stream identical at
/// every shard and thread count: the WAL records frames in arrival
/// order regardless of how ingestion is parallelized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerCrash {
    /// Kill once at least this many WAL records have been appended
    /// (`0` crashes before any ingestion — recovery from an empty log).
    pub at_record: u64,
}

const SERVER_CRASH_SALT: u64 = 0x5EED_FACE_0000_0003;

impl ServerCrash {
    /// A crash pinned at an exact record index.
    #[must_use]
    pub fn at_record(at_record: u64) -> Self {
        Self { at_record }
    }

    /// A seeded crash point uniform over `0..=records` — the two
    /// endpoints (crash before anything was logged, crash after
    /// everything was) are deliberately reachable, as both are edge
    /// cases recovery must survive.
    #[must_use]
    pub fn seeded(seed: u64, records: u64) -> Self {
        Self {
            at_record: splitmix64(seed ^ SERVER_CRASH_SALT) % (records + 1),
        }
    }
}

/// A complete, seeded fault configuration for one simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for every fault decision (independent of the simulation's
    /// own seed, so faults can be re-rolled without changing traffic).
    pub seed: u64,
    /// Faults on the vehicle → RSU report link.
    pub report_link: LinkFaults,
    /// Faults on the RSU → server upload link (applied per attempt, and
    /// to the returning acks' delivery).
    pub upload_link: LinkFaults,
    /// RSU crash events.
    pub crashes: Vec<RsuCrash>,
}

const REPORT_LINK_SALT: u64 = 0x5EED_FACE_0000_0001;
const UPLOAD_LINK_SALT: u64 = 0x5EED_FACE_0000_0002;

impl FaultPlan {
    /// The ideal plan: nothing injected anywhere.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty plan with a fault seed, ready for the builder methods.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Sets the report-link faults.
    #[must_use]
    pub fn with_report_link(mut self, faults: LinkFaults) -> Self {
        self.report_link = faults;
        self
    }

    /// Sets the upload-link faults.
    #[must_use]
    pub fn with_upload_link(mut self, faults: LinkFaults) -> Self {
        self.upload_link = faults;
        self
    }

    /// Adds an RSU crash event.
    #[must_use]
    pub fn with_crash(mut self, crash: RsuCrash) -> Self {
        self.crashes.push(crash);
        self
    }

    /// `true` when the plan injects nothing (ideal channel, no crashes).
    #[must_use]
    pub fn is_ideal(&self) -> bool {
        self.report_link.is_ideal() && self.upload_link.is_ideal() && self.crashes.is_empty()
    }

    /// Validates rates, crash times, and checkpoint intervals.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] for a rate outside `[0, 1]`, a
    /// negative or non-finite crash time, or a non-positive checkpoint
    /// interval.
    pub fn validate(&self) -> Result<(), SimError> {
        self.report_link.validate()?;
        self.upload_link.validate()?;
        for crash in &self.crashes {
            if !crash.at.is_finite() || crash.at < 0.0 {
                return Err(SimError::Core(CoreError::InvalidConfig {
                    parameter: "crash_time",
                    reason: format!("must be finite and non-negative, got {}", crash.at),
                }));
            }
            if let CrashMode::Checkpoint { interval } = crash.mode {
                if !(interval.is_finite() && interval > 0.0) {
                    return Err(SimError::Core(CoreError::InvalidConfig {
                        parameter: "checkpoint_interval",
                        reason: format!("must be positive and finite, got {interval}"),
                    }));
                }
            }
        }
        Ok(())
    }

    /// The report-link channel for a given period (`salt` is the period
    /// index, so each period re-rolls its faults).
    #[must_use]
    pub fn report_channel(&self, salt: u64) -> Channel {
        Channel::new(
            self.report_link,
            splitmix64(self.seed ^ REPORT_LINK_SALT ^ salt),
        )
    }

    /// The upload-link channel for a given period.
    #[must_use]
    pub fn upload_channel(&self, salt: u64) -> Channel {
        Channel::new(
            self.upload_link,
            splitmix64(self.seed ^ UPLOAD_LINK_SALT ^ salt),
        )
    }

    /// Per-node lost-report windows implied by the crash events (see
    /// [`RsuCrash::lost_window`]); nodes without crashes get an empty
    /// list.
    #[must_use]
    pub fn lost_windows(&self, node_count: usize) -> Vec<Vec<(f64, f64)>> {
        let mut windows = vec![Vec::new(); node_count];
        for crash in &self.crashes {
            if crash.node < node_count {
                windows[crash.node].push(crash.lost_window());
            }
        }
        windows
    }
}

/// The result of offering one frame to a [`Channel`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Transmission {
    /// The frame copies the receiver gets (empty on drop/late; two on
    /// duplication), each independently corrupted or intact.
    pub delivered: Vec<Vec<u8>>,
    /// The frame was dropped outright.
    pub dropped: bool,
    /// The frame arrived after the period cut and was discarded.
    pub late: bool,
    /// A second copy was delivered.
    pub duplicated: bool,
    /// Number of delivered copies that lost tail bytes.
    pub truncated: u64,
    /// Number of delivered copies with a flipped bit.
    pub bit_flipped: u64,
}

impl Transmission {
    /// Folds this transmission into per-link counters.
    pub fn record(&self, link: &mut LinkMetrics) {
        link.frames += 1;
        link.delivered += self.delivered.len() as u64;
        link.dropped += u64::from(self.dropped);
        link.late += u64::from(self.late);
        link.duplicated += u64::from(self.duplicated);
        link.truncated += self.truncated;
        link.bit_flipped += self.bit_flipped;
    }
}

/// A lossy link: applies a [`LinkFaults`] profile to frames, one
/// deterministic decision stream per frame key.
///
/// `Channel` is `Sync` and takes `&self` everywhere — workers on any
/// thread can push frames through it concurrently and the per-frame
/// outcomes are identical to a sequential run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Channel {
    faults: LinkFaults,
    key_base: u64,
}

impl Channel {
    /// Creates a channel with a fault profile and a key base (derived
    /// from the plan seed and a link/period salt).
    #[must_use]
    pub fn new(faults: LinkFaults, key_base: u64) -> Self {
        Self { faults, key_base }
    }

    /// The channel's fault profile.
    #[must_use]
    pub fn faults(&self) -> &LinkFaults {
        &self.faults
    }

    /// Offers one frame to the link. `key` must be unique per logical
    /// frame (the engine derives it from the vehicle id and stop index;
    /// the upload path from RSU, sequence number, and attempt).
    #[must_use]
    pub fn transmit(&self, frame: &[u8], key: u64) -> Transmission {
        let mut rng = SplitMix64::new(splitmix64(self.key_base.wrapping_add(splitmix64(key))));
        let mut tx = Transmission::default();
        if chance(&mut rng, self.faults.drop) {
            tx.dropped = true;
            return tx;
        }
        if chance(&mut rng, self.faults.reorder) {
            tx.late = true;
            return tx;
        }
        let copy = self.corrupt(frame, &mut rng, &mut tx.truncated, &mut tx.bit_flipped);
        tx.delivered.push(copy);
        if chance(&mut rng, self.faults.duplicate) {
            tx.duplicated = true;
            let copy = self.corrupt(frame, &mut rng, &mut tx.truncated, &mut tx.bit_flipped);
            tx.delivered.push(copy);
        }
        tx
    }

    /// Whether the ack for `key` is lost on the return path (acks share
    /// the link's drop rate; they are too small to corrupt meaningfully).
    #[must_use]
    pub fn ack_lost(&self, key: u64) -> bool {
        let mut rng = SplitMix64::new(splitmix64(
            self.key_base ^ 0xACC0_1ADE_0000_0000u64.wrapping_add(splitmix64(key)),
        ));
        chance(&mut rng, self.faults.drop)
    }

    fn corrupt(
        &self,
        frame: &[u8],
        rng: &mut SplitMix64,
        truncated: &mut u64,
        bit_flipped: &mut u64,
    ) -> Vec<u8> {
        let mut copy = frame.to_vec();
        if chance(rng, self.faults.truncate) && !copy.is_empty() {
            let keep = (rng.next_u64() % copy.len() as u64) as usize;
            copy.truncate(keep);
            *truncated += 1;
        }
        if chance(rng, self.faults.bit_flip) && !copy.is_empty() {
            let bit = (rng.next_u64() % (copy.len() as u64 * 8)) as usize;
            copy[bit / 8] ^= 1 << (bit % 8);
            *bit_flipped += 1;
        }
        copy
    }
}

/// Draws one uniform `[0, 1)` decision; always consumes exactly one
/// stream value so decisions stay aligned across sweeps of a single
/// rate.
fn chance(rng: &mut SplitMix64, p: f64) -> bool {
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0);
    u < p
}

/// Bounded-retry policy for the upload path: attempt, then wait
/// `min(initial_backoff · multiplier^(k−1), max_backoff)` simulated
/// seconds before retry `k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total send attempts (first try included); must be ≥ 1.
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated seconds.
    pub initial_backoff: f64,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
    /// Ceiling on any single backoff interval, in simulated seconds.
    /// Without it, large retry budgets grow `multiplier^(k−1)` into
    /// absurd or infinite simulated waits that dominate
    /// `backoff_seconds`.
    pub max_backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 6,
            initial_backoff: 0.1,
            multiplier: 2.0,
            max_backoff: 60.0,
        }
    }
}

impl RetryPolicy {
    /// Checks the policy is usable: `max_attempts ≥ 1`, and the three
    /// timing fields finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let check = |name: &'static str, v: f64| -> Result<(), SimError> {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(SimError::Core(vcps_core::CoreError::InvalidConfig {
                    parameter: name,
                    reason: format!("must be finite and non-negative, got {v}"),
                }))
            }
        };
        if self.max_attempts < 1 {
            return Err(SimError::Core(vcps_core::CoreError::InvalidConfig {
                parameter: "max_attempts",
                reason: "must be at least 1".into(),
            }));
        }
        check("initial_backoff", self.initial_backoff)?;
        check("multiplier", self.multiplier)?;
        check("max_backoff", self.max_backoff)
    }

    /// The backoff slept before send attempt `attempt` (0-based); zero
    /// for the first attempt, clamped to `max_backoff` thereafter.
    #[must_use]
    pub fn backoff_before(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            0.0
        } else {
            let raw = self.initial_backoff * self.multiplier.powi(attempt as i32 - 1);
            // `raw` can overflow to +inf for large attempts; min() with a
            // finite ceiling also repairs that.
            raw.min(self.max_backoff)
        }
    }
}

/// The outcome of one [`upload_with_retry`] session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadDelivery {
    /// `true` once the RSU saw an ack.
    pub delivered: bool,
    /// Send attempts used.
    pub attempts: u32,
}

/// Anything the retrying upload path can deliver into: the monolithic
/// [`CentralServer`], the sharded [`crate::ShardedServer`] and the
/// write-ahead-logged [`DurableServer`] all implement it, so
/// [`upload_with_retry`] runs the *identical* frame/key/ack sequence
/// against each — the foundation of the fault equivalence the
/// differential suites verify.
pub trait SequencedSink {
    /// Ingests one delivered tag-5 wire frame, exactly as received,
    /// classifying it against the sink's held state (see
    /// [`CentralServer::receive_sequenced`]).
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedMessage`] for a frame that does not decode
    /// (nothing is ingested); any other error (a failed WAL append, say)
    /// is the sink's own failure.
    fn ingest_wire(&mut self, frame: &[u8]) -> Result<ReceiveOutcome, SimError>;

    /// The sink's observability handle — retry counters and the backoff
    /// histogram are recorded through it.
    fn sink_obs(&self) -> &vcps_obs::Obs;
}

impl SequencedSink for CentralServer {
    fn ingest_wire(&mut self, frame: &[u8]) -> Result<ReceiveOutcome, SimError> {
        Ok(self.receive_sequenced_ref(&SequencedUploadRef::decode_ref(frame)?))
    }

    fn sink_obs(&self) -> &vcps_obs::Obs {
        self.obs()
    }
}

impl SequencedSink for crate::ShardedServer {
    fn ingest_wire(&mut self, frame: &[u8]) -> Result<ReceiveOutcome, SimError> {
        Ok(self.receive_sequenced_ref(&SequencedUploadRef::decode_ref(frame)?))
    }

    fn sink_obs(&self) -> &vcps_obs::Obs {
        self.obs()
    }
}

impl SequencedSink for DurableServer {
    /// Logs and applies the frame, then waits until the WAL holds it
    /// durably: the verdict is the ack a retrying RSU stops on, and an
    /// ack means durable here as it does from `vcpsd` (DESIGN.md §18).
    fn ingest_wire(&mut self, frame: &[u8]) -> Result<ReceiveOutcome, SimError> {
        let outcome = self.receive_sequenced_wire(frame)?;
        self.flush_wal()?;
        Ok(outcome)
    }

    fn sink_obs(&self) -> &vcps_obs::Obs {
        self.obs()
    }
}

/// Drives one RSU's end-of-period upload through a lossy channel with
/// stop-and-wait retries: encode a [`SequencedUpload`], transmit, let the
/// server ingest every surviving copy as received, and stop on the first
/// surviving ack or when the retry budget runs out.
///
/// Fault counters (attempts, retries, lost acks, dedup outcomes,
/// simulated backoff) accumulate into `metrics`; if the server carries
/// an enabled observability handle ([`CentralServer::set_obs`]), the
/// retry/backoff phase is additionally profiled through it (attempt and
/// retry counters, per-wait backoff histogram in microseconds).
///
/// Generic over the [`SequencedSink`]: delivering into a sharded or
/// durable server replays byte-for-byte the frames, channel keys, and
/// ack decisions of the monolithic run, so fault outcomes cannot
/// diverge between them.
///
/// # Errors
///
/// A corrupted copy the sink rejects as malformed is dropped unacked,
/// as the channel would lose it; any other sink error ends the session
/// and is returned.
pub fn upload_with_retry<S: SequencedSink + ?Sized>(
    upload: &PeriodUpload,
    seq: u64,
    channel: &Channel,
    server: &mut S,
    policy: &RetryPolicy,
    metrics: &mut FaultMetrics,
) -> Result<UploadDelivery, SimError> {
    let obs = server.sink_obs().clone();
    let _timer = obs.phase(vcps_obs::Phase::Retry);
    let frame = SequencedUpload {
        seq,
        upload: upload.clone(),
    }
    .encode();
    let max_attempts = policy.max_attempts.max(1);
    for attempt in 0..max_attempts {
        metrics.upload_attempts += 1;
        obs.inc("retry.attempts");
        if attempt > 0 {
            metrics.upload_retries += 1;
            let backoff = policy.backoff_before(attempt);
            metrics.backoff_seconds += backoff;
            obs.inc("retry.retries");
            obs.observe("retry.backoff_us", (backoff * 1e6).round() as u64);
        }
        let key = upload.rsu.0 ^ seq.rotate_left(24) ^ (u64::from(attempt) << 48);
        let tx = channel.transmit(&frame, key);
        tx.record(&mut metrics.upload_link);
        let mut acked = false;
        for copy in &tx.delivered {
            match server.ingest_wire(copy) {
                Ok(ReceiveOutcome::Fresh) => {}
                Ok(ReceiveOutcome::Duplicate) => metrics.upload_duplicates += 1,
                Ok(ReceiveOutcome::Conflicting) => metrics.upload_conflicts += 1,
                Ok(ReceiveOutcome::Stale) => metrics.upload_stale += 1,
                // A corrupted frame that no longer parses is silently
                // gone — the sender only learns via the missing ack.
                Err(SimError::MalformedMessage { .. }) => continue,
                Err(e) => return Err(e),
            }
            // The server acks everything it processed (including
            // duplicates — idempotent ack); the ack rides the same lossy
            // link back.
            if channel.ack_lost(key) {
                metrics.acks_lost += 1;
            } else {
                acked = true;
            }
        }
        if acked {
            obs.inc("retry.delivered");
            return Ok(UploadDelivery {
                delivered: true,
                attempts: attempt + 1,
            });
        }
    }
    metrics.uploads_abandoned += 1;
    obs.inc("retry.abandoned");
    Ok(UploadDelivery {
        delivered: false,
        attempts: max_attempts,
    })
}

/// A serialized RSU state snapshot — what a crash-tolerant RSU persists
/// at each checkpoint interval and restores on restart.
///
/// The byte layout is `id(8) ‖ counter(8) ‖ cert.rsu(8) ‖ cert.tag(8) ‖`
/// [`BitArray::to_bytes`], all little-endian; restoring validates every
/// field and rejects truncated or padded snapshots atomically (a partial
/// restore would silently bias the period's counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RsuCheckpoint {
    bytes: Vec<u8>,
}

impl RsuCheckpoint {
    /// Captures an RSU's full period state.
    #[must_use]
    pub fn capture(rsu: &SimRsu) -> Self {
        let sketch = rsu.sketch();
        let cert = rsu.certificate();
        let bits = sketch.bits().to_bytes();
        let mut bytes = Vec::with_capacity(32 + bits.len());
        bytes.extend_from_slice(&sketch.id().0.to_le_bytes());
        bytes.extend_from_slice(&sketch.count().to_le_bytes());
        bytes.extend_from_slice(&cert.rsu.0.to_le_bytes());
        bytes.extend_from_slice(&cert.tag.to_le_bytes());
        bytes.extend_from_slice(&bits);
        Self { bytes }
    }

    /// The serialized form (for persistence).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Wraps previously persisted bytes (validated on restore).
    #[must_use]
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// Reconstructs the RSU exactly as captured.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] for truncated headers and
    /// [`SimError::Core`] for an invalid bit-array payload.
    pub fn restore(&self) -> Result<SimRsu, SimError> {
        if self.bytes.len() < 32 {
            return Err(SimError::MalformedMessage {
                reason: "truncated RSU checkpoint",
            });
        }
        let word = |i: usize| {
            u64::from_le_bytes(self.bytes[i * 8..(i + 1) * 8].try_into().expect("8 bytes"))
        };
        let id = RsuId(word(0));
        let counter = word(1);
        let certificate = Certificate {
            rsu: RsuId(word(2)),
            tag: word(3),
        };
        let bits = BitArray::from_bytes(&self.bytes[32..])
            .map_err(|e| SimError::Core(CoreError::BitArray(e)))?;
        let sketch = RsuSketch::from_parts(id, bits, counter).map_err(SimError::Core)?;
        Ok(SimRsu::from_parts(sketch, certificate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pki::TrustedAuthority;
    use crate::protocol::BitReport;
    use crate::MacAddress;
    use vcps_core::Scheme;

    fn report_frame() -> Vec<u8> {
        BitReport {
            mac: MacAddress([2, 0, 0, 0, 0, 9]),
            index: 123,
        }
        .encode()
        .to_vec()
    }

    #[test]
    fn ideal_channel_is_a_byte_exact_pass_through() {
        let ch = FaultPlan::none().report_channel(0);
        let frame = report_frame();
        for key in 0..200u64 {
            let tx = ch.transmit(&frame, key);
            assert_eq!(tx.delivered, vec![frame.clone()]);
            assert!(!tx.dropped && !tx.late && !tx.duplicated);
            assert_eq!(tx.truncated + tx.bit_flipped, 0);
            assert!(!ch.ack_lost(key));
        }
    }

    #[test]
    fn transmit_is_deterministic_per_key_and_thread_independent() {
        let plan = FaultPlan::new(7).with_report_link(
            LinkFaults::none()
                .with_drop(0.3)
                .with_duplicate(0.2)
                .with_truncate(0.2)
                .with_bit_flip(0.2)
                .with_reorder(0.1),
        );
        let ch = plan.report_channel(0);
        let frame = report_frame();
        let forward: Vec<Transmission> = (0..500).map(|k| ch.transmit(&frame, k)).collect();
        // Same decisions when keys are replayed in reverse order — no
        // hidden shared stream.
        let backward: Vec<Transmission> = (0..500).rev().map(|k| ch.transmit(&frame, k)).collect();
        for (k, tx) in forward.iter().enumerate() {
            assert_eq!(*tx, backward[499 - k], "key {k}");
        }
    }

    #[test]
    fn fault_rates_are_roughly_respected() {
        let plan = FaultPlan::new(11)
            .with_report_link(LinkFaults::none().with_drop(0.25).with_duplicate(0.5));
        let ch = plan.report_channel(0);
        let frame = report_frame();
        let mut link = LinkMetrics::default();
        for key in 0..10_000u64 {
            ch.transmit(&frame, key).record(&mut link);
        }
        let drop_rate = link.dropped as f64 / link.frames as f64;
        assert!((drop_rate - 0.25).abs() < 0.03, "drop rate {drop_rate}");
        let dup_rate = link.duplicated as f64 / (link.frames - link.dropped) as f64;
        assert!((dup_rate - 0.5).abs() < 0.03, "dup rate {dup_rate}");
    }

    #[test]
    fn corrupted_copies_differ_from_the_original() {
        let plan = FaultPlan::new(3).with_report_link(LinkFaults::none().with_bit_flip(1.0));
        let ch = plan.report_channel(0);
        let frame = report_frame();
        let tx = ch.transmit(&frame, 1);
        assert_eq!(tx.delivered.len(), 1);
        assert_ne!(tx.delivered[0], frame);
        assert_eq!(tx.bit_flipped, 1);
        // Exactly one bit differs.
        let diff: u32 = tx.delivered[0]
            .iter()
            .zip(&frame)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1);
    }

    #[test]
    fn plan_validation_rejects_bad_rates_and_crashes() {
        assert!(FaultPlan::new(1)
            .with_report_link(LinkFaults::none().with_drop(1.5))
            .validate()
            .is_err());
        assert!(FaultPlan::new(1)
            .with_upload_link(LinkFaults::none().with_bit_flip(f64::NAN))
            .validate()
            .is_err());
        assert!(FaultPlan::new(1)
            .with_crash(RsuCrash {
                node: 0,
                at: -1.0,
                mode: CrashMode::LoseState,
            })
            .validate()
            .is_err());
        assert!(FaultPlan::new(1)
            .with_crash(RsuCrash {
                node: 0,
                at: 5.0,
                mode: CrashMode::Checkpoint { interval: 0.0 },
            })
            .validate()
            .is_err());
        assert!(FaultPlan::none().validate().is_ok());
        assert!(FaultPlan::none().is_ideal());
    }

    #[test]
    fn crash_mode_constructor_rejects_bad_intervals() {
        assert_eq!(
            CrashMode::checkpoint(30.0).unwrap(),
            CrashMode::Checkpoint { interval: 30.0 }
        );
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    CrashMode::checkpoint(bad),
                    Err(SimError::Core(CoreError::InvalidConfig {
                        parameter: "checkpoint_interval",
                        ..
                    }))
                ),
                "interval {bad} must be rejected"
            );
        }
    }

    #[test]
    fn server_crash_seeding_is_deterministic_and_covers_endpoints() {
        assert_eq!(ServerCrash::seeded(7, 100), ServerCrash::seeded(7, 100));
        assert_eq!(ServerCrash::seeded(0, 0).at_record, 0);
        for seed in 0..64u64 {
            let crash = ServerCrash::seeded(seed, 10);
            assert!(crash.at_record <= 10);
        }
        // The spread actually varies with the seed.
        let points: std::collections::BTreeSet<u64> = (0..64)
            .map(|s| ServerCrash::seeded(s, 10).at_record)
            .collect();
        assert!(points.len() > 3);
    }

    #[test]
    fn crash_windows_follow_the_checkpoint_grid() {
        let lose = RsuCrash {
            node: 1,
            at: 130.0,
            mode: CrashMode::LoseState,
        };
        assert_eq!(lose.lost_window(), (0.0, 130.0));
        let ck = RsuCrash {
            node: 1,
            at: 130.0,
            mode: CrashMode::Checkpoint { interval: 60.0 },
        };
        assert_eq!(ck.lost_window(), (120.0, 130.0));
        let windows = FaultPlan::new(0).with_crash(ck).lost_windows(3);
        assert_eq!(windows[1], vec![(120.0, 130.0)]);
        assert!(windows[0].is_empty() && windows[2].is_empty());
    }

    #[test]
    fn retry_policy_backoff_is_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_before(0), 0.0);
        assert!((p.backoff_before(1) - 0.1).abs() < 1e-12);
        assert!((p.backoff_before(3) - 0.4).abs() < 1e-12);
    }

    /// Regression: uncapped exponential growth made large retry budgets
    /// report absurd (or infinite) simulated backoff. Every interval is
    /// now clamped to `max_backoff`, even where `multiplier^(k−1)`
    /// overflows to +inf.
    #[test]
    fn retry_policy_backoff_is_capped() {
        let p = RetryPolicy::default();
        // 0.1 · 2^10 = 102.4 would exceed the 60 s default ceiling.
        assert_eq!(p.backoff_before(11), 60.0);
        // Deep into f64 overflow territory: still finite, still capped.
        assert!(p.backoff_before(4_000).is_finite());
        assert_eq!(p.backoff_before(4_000), 60.0);
        let tight = RetryPolicy {
            max_backoff: 0.25,
            ..RetryPolicy::default()
        };
        assert!((tight.backoff_before(2) - 0.2).abs() < 1e-12);
        assert_eq!(tight.backoff_before(3), 0.25);
        // The cumulative budget of any policy is now bounded by
        // attempts · max_backoff.
        let total: f64 = (0..1_000).map(|a| p.backoff_before(a)).sum();
        assert!(total <= 1_000.0 * p.max_backoff);
    }

    #[test]
    fn retry_policy_validate_rejects_degenerate_fields() {
        assert!(RetryPolicy::default().validate().is_ok());
        let bad = [
            RetryPolicy {
                max_attempts: 0,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                initial_backoff: f64::NAN,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                multiplier: f64::INFINITY,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                max_backoff: -1.0,
                ..RetryPolicy::default()
            },
            RetryPolicy {
                max_backoff: f64::NAN,
                ..RetryPolicy::default()
            },
        ];
        for p in bad {
            assert!(p.validate().is_err(), "{p:?} must be rejected");
        }
    }

    #[test]
    fn upload_with_retry_survives_heavy_loss() {
        let scheme = Scheme::variable(2, 3.0, 1).unwrap();
        let mut server = CentralServer::new(scheme, 0.5).unwrap();
        let mut bits = BitArray::new(64);
        bits.set(5);
        let upload = PeriodUpload {
            rsu: RsuId(4),
            counter: 3,
            bits,
        };
        let plan = FaultPlan::new(21).with_upload_link(LinkFaults::none().with_drop(0.5));
        let ch = plan.upload_channel(0);
        let mut metrics = FaultMetrics::new();
        let policy = RetryPolicy {
            max_attempts: 16,
            ..RetryPolicy::default()
        };
        let outcome =
            upload_with_retry(&upload, 0, &ch, &mut server, &policy, &mut metrics).unwrap();
        assert!(outcome.delivered, "16 attempts at 50% loss must land");
        assert_eq!(server.upload_count(), 1);
        assert_eq!(metrics.upload_attempts, u64::from(outcome.attempts));
    }

    #[test]
    fn upload_with_retry_gives_up_on_a_dead_link() {
        let scheme = Scheme::variable(2, 3.0, 1).unwrap();
        let mut server = CentralServer::new(scheme, 0.5).unwrap();
        let upload = PeriodUpload {
            rsu: RsuId(4),
            counter: 3,
            bits: BitArray::new(64),
        };
        let plan = FaultPlan::new(2).with_upload_link(LinkFaults::none().with_drop(1.0));
        let ch = plan.upload_channel(0);
        let mut metrics = FaultMetrics::new();
        let outcome = upload_with_retry(
            &upload,
            0,
            &ch,
            &mut server,
            &RetryPolicy::default(),
            &mut metrics,
        )
        .unwrap();
        assert!(!outcome.delivered);
        assert_eq!(outcome.attempts, 6);
        assert_eq!(metrics.uploads_abandoned, 1);
        assert_eq!(metrics.upload_retries, 5);
        assert!(metrics.backoff_seconds > 0.0);
        assert_eq!(server.upload_count(), 0);
    }

    #[test]
    fn lost_ack_causes_retry_and_server_side_dedup() {
        let scheme = Scheme::variable(2, 3.0, 1).unwrap();
        let server = CentralServer::new(scheme, 0.5).unwrap();
        let upload = PeriodUpload {
            rsu: RsuId(4),
            counter: 3,
            bits: BitArray::new(64),
        };
        // Find a seed where the first ack is lost but a later one lands,
        // then check the duplicate was recognized rather than recounted.
        for seed in 0..2_000u64 {
            let plan = FaultPlan::new(seed);
            let ch = plan.upload_channel(0);
            let lossy = Channel::new(LinkFaults::none().with_drop(0.5), ch.key_base);
            let key0 = upload.rsu.0;
            if !lossy.ack_lost(key0) {
                continue;
            }
            let acks_only =
                FaultPlan::new(seed).with_upload_link(LinkFaults::none().with_drop(0.5));
            // Frames themselves also face the 50% drop; that is fine —
            // what we assert is consistency between dedup counters and
            // delivery.
            let mut metrics = FaultMetrics::new();
            let mut srv = server.clone();
            let outcome = upload_with_retry(
                &upload,
                0,
                &acks_only.upload_channel(0),
                &mut srv,
                &RetryPolicy {
                    max_attempts: 20,
                    ..RetryPolicy::default()
                },
                &mut metrics,
            )
            .unwrap();
            if outcome.delivered && metrics.acks_lost > 0 {
                assert_eq!(srv.upload_count(), 1, "dedup kept a single upload");
                return;
            }
        }
        panic!("no seed in range exercised a lost ack followed by delivery");
    }

    fn test_upload(rsu: u64) -> PeriodUpload {
        let mut bits = BitArray::new(64);
        for i in (0..64).step_by(rsu as usize % 5 + 2) {
            bits.set(i);
        }
        PeriodUpload {
            rsu: RsuId(rsu),
            counter: 9,
            bits,
        }
    }

    #[test]
    fn truncated_copies_are_never_ingested_or_acked() {
        let scheme = Scheme::variable(2, 3.0, 1).unwrap();
        let obs = vcps_obs::Obs::enabled();
        let mut server = CentralServer::new(scheme, 0.5)
            .unwrap()
            .with_obs(obs.clone());
        let plan = FaultPlan::new(9).with_upload_link(LinkFaults::none().with_truncate(1.0));
        let policy = RetryPolicy::default();
        let mut metrics = FaultMetrics::new();
        let outcome = upload_with_retry(
            &test_upload(4),
            0,
            &plan.upload_channel(0),
            &mut server,
            &policy,
            &mut metrics,
        )
        .unwrap();
        assert!(!outcome.delivered);
        assert_eq!(outcome.attempts, policy.max_attempts);
        assert_eq!(
            metrics.upload_link.truncated,
            u64::from(policy.max_attempts)
        );
        assert_eq!(metrics.uploads_abandoned, 1);
        assert_eq!(metrics.acks_lost, 0, "a discarded frame is never acked");
        assert_eq!(server.upload_count(), 0);
        assert!(
            obs.snapshot()
                .counters_with_prefix("server.receive.")
                .is_empty(),
            "no truncated copy reached the verdict"
        );
    }

    /// A durable sink logs exactly the delivered copies that decode,
    /// byte for byte as they arrived — corrupted ones included when they
    /// still parse — and nothing it rejected.
    #[test]
    fn durable_sink_logs_exactly_the_copies_that_decode() {
        /// Forwards to a durable server, keeping every delivered copy.
        struct Recording<'a> {
            server: &'a mut DurableServer,
            copies: Vec<Vec<u8>>,
        }
        impl SequencedSink for Recording<'_> {
            fn ingest_wire(&mut self, frame: &[u8]) -> Result<ReceiveOutcome, SimError> {
                self.copies.push(frame.to_vec());
                self.server.ingest_wire(frame)
            }
            fn sink_obs(&self) -> &vcps_obs::Obs {
                self.server.obs()
            }
        }

        let dir = std::env::temp_dir().join(format!(
            "vcps-sim-faults-test-{}-bit-flip",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let scheme = Scheme::variable(2, 3.0, 1).unwrap();
        let obs = vcps_obs::Obs::disabled();
        let mut server = DurableServer::create(
            scheme,
            0.5,
            2,
            &dir,
            crate::DurableOptions::log_only(),
            &obs,
        )
        .unwrap();
        let plan = FaultPlan::new(5).with_upload_link(LinkFaults::none().with_bit_flip(1.0));
        let mut sink = Recording {
            server: &mut server,
            copies: Vec::new(),
        };
        let mut metrics = FaultMetrics::new();
        for rsu in 0..24 {
            upload_with_retry(
                &test_upload(rsu),
                0,
                &plan.upload_channel(0),
                &mut sink,
                &RetryPolicy::default(),
                &mut metrics,
            )
            .unwrap();
        }
        let copies = sink.copies;
        let accepted: Vec<Vec<u8>> = copies
            .iter()
            .filter(|c| SequencedUploadRef::decode_ref(c).is_ok())
            .cloned()
            .collect();
        assert_eq!(metrics.upload_link.bit_flipped, copies.len() as u64);
        assert!(
            !accepted.is_empty() && accepted.len() < copies.len(),
            "the plan must both corrupt past the decoder and reject copies"
        );
        let wal = vcps_durable::read_wal(server.wal_path()).unwrap();
        assert_eq!(wal.records, accepted);
        assert_eq!(server.records_logged(), accepted.len() as u64);
        drop(server);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failing_sink_ends_the_session_with_its_error() {
        /// A sink whose storage has failed: every frame errors.
        struct Failing {
            calls: u32,
            obs: vcps_obs::Obs,
        }
        impl SequencedSink for Failing {
            fn ingest_wire(&mut self, _frame: &[u8]) -> Result<ReceiveOutcome, SimError> {
                self.calls += 1;
                Err(SimError::Durability(vcps_durable::DurabilityError::Io {
                    op: "append",
                    path: "frames.wal".into(),
                    detail: "disk full".into(),
                }))
            }
            fn sink_obs(&self) -> &vcps_obs::Obs {
                &self.obs
            }
        }

        let mut sink = Failing {
            calls: 0,
            obs: vcps_obs::Obs::disabled(),
        };
        let mut metrics = FaultMetrics::new();
        let result = upload_with_retry(
            &test_upload(4),
            0,
            &FaultPlan::none().upload_channel(0),
            &mut sink,
            &RetryPolicy::default(),
            &mut metrics,
        );
        assert!(matches!(result, Err(SimError::Durability(_))), "{result:?}");
        assert_eq!(sink.calls, 1);
        assert_eq!(metrics.upload_attempts, 1, "no retry after a sink failure");
        assert_eq!(metrics.uploads_abandoned, 0);
    }

    #[test]
    fn checkpoint_roundtrips_full_rsu_state() {
        let ca = TrustedAuthority::new(5);
        let mut rsu = SimRsu::new(RsuId(9), 128, &ca).unwrap();
        for i in [1u64, 7, 99] {
            rsu.receive(&BitReport {
                mac: MacAddress([2, 0, 0, 0, 0, 1]),
                index: i,
            })
            .unwrap();
        }
        let cp = RsuCheckpoint::capture(&rsu);
        let restored = cp.restore().unwrap();
        assert_eq!(restored, rsu);
        // The persisted form survives a byte-level round trip too.
        let reloaded = RsuCheckpoint::from_bytes(cp.as_bytes().to_vec());
        assert_eq!(reloaded.restore().unwrap(), rsu);
    }

    #[test]
    fn checkpoint_rejects_truncation() {
        let ca = TrustedAuthority::new(5);
        let rsu = SimRsu::new(RsuId(9), 128, &ca).unwrap();
        let cp = RsuCheckpoint::capture(&rsu);
        let bytes = cp.as_bytes();
        assert!(RsuCheckpoint::from_bytes(bytes[..16].to_vec())
            .restore()
            .is_err());
        assert!(RsuCheckpoint::from_bytes(bytes[..bytes.len() - 3].to_vec())
            .restore()
            .is_err());
    }

    #[test]
    fn crash_window_filter_equals_checkpoint_restore() {
        // The engine's window-filter shortcut must match literally
        // checkpointing at t=60 and restoring after a crash at t=90:
        // reports in [60, 90) are lost, everything else survives.
        let ca = TrustedAuthority::new(8);
        let reports: Vec<(f64, BitReport)> = (0..100u32)
            .map(|i| {
                (
                    f64::from(i) * 1.2,
                    BitReport {
                        mac: MacAddress([2, 0, 0, 0, 0, 1]),
                        index: u64::from(i) % 128,
                    },
                )
            })
            .collect();
        let crash = RsuCrash {
            node: 0,
            at: 90.0,
            mode: CrashMode::Checkpoint { interval: 60.0 },
        };
        let (w0, w1) = crash.lost_window();

        // Literal checkpoint/restore path.
        let mut literal = SimRsu::new(RsuId(1), 128, &ca).unwrap();
        let mut checkpoint = RsuCheckpoint::capture(&literal);
        for &(t, ref r) in &reports {
            if t >= crash.at {
                break;
            }
            if t < w0 {
                literal.receive(r).unwrap();
                checkpoint = RsuCheckpoint::capture(&literal);
            } else {
                literal.receive(r).unwrap();
            }
        }
        let mut literal = checkpoint.restore().unwrap();
        for &(t, ref r) in &reports {
            if t >= crash.at {
                literal.receive(r).unwrap();
            }
        }

        // Window-filter path.
        let mut filtered = SimRsu::new(RsuId(1), 128, &ca).unwrap();
        for &(t, ref r) in &reports {
            if !(t >= w0 && t < w1) {
                filtered.receive(r).unwrap();
            }
        }
        assert_eq!(literal.upload(), filtered.upload());
    }
}
