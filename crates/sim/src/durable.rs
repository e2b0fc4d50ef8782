//! Durable ingestion: [`DurableServer`] wraps a [`ShardedServer`] with
//! a write-ahead frame log and periodic whole-deployment checkpoints
//! (both from `vcps-durable`), so a process crash between `receive` and
//! `finish_period` no longer loses the period's masked uploads.
//!
//! # Recovery model
//!
//! Every wire frame that reaches ingestion is appended to the WAL
//! *before* it is applied — any outcome, not just `Fresh`. The append
//! writes the frame to the file at once by default, or in groups under
//! a group-commit [`FlushPolicy`], and the WAL's syncer thread fsyncs
//! what was written off the request path (DESIGN.md §18): a frame is
//! durable once the log's [`Watermark`] passes it, which
//! [`DurableServer::flush_wal`] waits for. Logging every frame means that
//! replaying the full arrival stream through the very same
//! [`ShardedServer::receive_sequenced_ref`] /
//! [`ShardedServer::receive_batch_wire`] paths reproduces dedup and
//! sequencing decisions *by construction*, instead of re-implementing
//! them in a recovery routine that could drift. A period rollover is
//! logged too, as a one-byte record replayed through
//! [`ShardedServer::finish_period`], so every checkpoint is a valid
//! starting point for replay.
//!
//! The log is a chain of segments: each rollover publishes its
//! checkpoint and then seals the live segment, and segments and
//! checkpoints that two newer checkpoints cover are retired on a
//! background thread. Recovery is therefore:
//!
//! 1. restore the newest checkpoint that validates **and** that the
//!    surviving chain reaches — its segments are contiguous and every
//!    record up to the checkpoint's position checksums (a checkpoint
//!    ahead of a corruption is passed over for an older one, or for a
//!    replay from the log's first record, which must still exist);
//! 2. stream the records past the checkpoint through the normal
//!    receive paths, silently (the rebuilt server carries a disabled
//!    observability handle during replay — every replayed frame was
//!    already counted when it was first accepted, so counters fire
//!    exactly once per live event and a crashed-and-recovered run's
//!    registry matches an uninterrupted run's, modulo the `wal.*`
//!    series). Sealed segments the checkpoint covers are not read;
//! 3. discard any torn tail (and every segment after it) so future
//!    appends land after the last valid record, delete the checkpoints
//!    newer than the restored one, and re-attach the real observability
//!    handle.
//!
//! Torn writes, truncated tails, and bit-flipped records come back as
//! typed [`DurabilityError`]s in the [`RecoveryReport`] — the scan
//! stops at the first corrupt record, never panics, and never applies
//! a record that failed its checksum. A log whose surviving records no
//! checkpoint can reach is a typed [`DurabilityError::ChainGap`], never
//! a partial state. See DESIGN.md §17.

use std::path::{Path, PathBuf};

use vcps_core::CoreError;
use vcps_durable::{
    Checkpoint, CheckpointStore, DurabilityError, FlushPolicy, Janitor, SegmentedLog, WalWriter,
    Watermark,
};
use vcps_obs::{Obs, Phase};

use crate::protocol::{
    BatchUploadRef, CheckpointSet, SequencedUpload, SequencedUploadRef, TAG_ROLLOVER,
};
use crate::{ReceiveOutcome, ShardedServer, SimError};

/// File name of the live WAL segment inside a durability directory.
pub const WAL_FILE: &str = vcps_durable::LIVE_SEGMENT;

/// Subdirectory holding published checkpoints.
pub const CHECKPOINT_DIR: &str = "checkpoints";

/// Durability tuning for a [`DurableServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurableOptions {
    /// Publish a whole-deployment checkpoint every this many WAL
    /// records (`None`: log-only, recovery replays from the start).
    /// Must be positive when set.
    pub checkpoint_interval: Option<u64>,
    /// When WAL appends are written to the file and their fsync
    /// requested (group commit, DESIGN.md §18). The default,
    /// [`FlushPolicy::PerRecord`], writes every frame as it is logged;
    /// grouped policies write fewer, larger groups, and frames staged
    /// for a later group are not yet in the file. Under every policy a
    /// frame is durable only once the log's [`Watermark`] passes it.
    /// Thresholded policies must be positive.
    pub flush: FlushPolicy,
}

impl DurableOptions {
    /// Log-only durability: every frame is persisted, no checkpoints.
    #[must_use]
    pub fn log_only() -> Self {
        Self::default()
    }

    /// Checkpoint every `interval` WAL records.
    #[must_use]
    pub fn with_checkpoint_every(mut self, interval: u64) -> Self {
        self.checkpoint_interval = Some(interval);
        self
    }

    /// Sets the WAL group-commit flush policy.
    #[must_use]
    pub fn with_flush(mut self, flush: FlushPolicy) -> Self {
        self.flush = flush;
        self
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.checkpoint_interval == Some(0) {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "checkpoint_interval",
                reason: "must be positive when set".to_string(),
            }));
        }
        if matches!(
            self.flush,
            FlushPolicy::EveryRecords(0) | FlushPolicy::EveryBytes(0)
        ) {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "flush",
                reason: "flush threshold must be positive".to_string(),
            }));
        }
        Ok(())
    }
}

/// What [`DurableServer::recover`] found on disk and did about it.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// WAL records covered by the restored checkpoint (0: no usable
    /// checkpoint, full replay).
    pub checkpoint_records: u64,
    /// WAL records replayed through the live receive paths.
    pub replayed_records: u64,
    /// Bytes of torn/corrupt WAL tail discarded before resuming
    /// appends (with every segment after the damage).
    pub truncated_bytes: u64,
    /// Why the WAL scan stopped early, if it did (`None`: the log ended
    /// cleanly on a record boundary).
    pub tail_error: Option<DurabilityError>,
    /// WAL segment bytes recovery read: the live segment's length when
    /// the newest checkpoint is usable, however long the deployment has
    /// run.
    pub scanned_bytes: u64,
}

/// A [`ShardedServer`] whose ingestion is write-ahead logged and
/// periodically checkpointed, recoverable bit-identically after a
/// process crash (see the module docs for the recovery model).
///
/// Reads go straight to the wrapped server via [`server`](Self::server)
/// — durability is an ingest-side concern only.
#[derive(Debug)]
pub struct DurableServer {
    inner: ShardedServer,
    wal: WalWriter,
    store: CheckpointStore,
    /// Retires covered segments and checkpoints off the request path;
    /// joined when the server drops.
    janitor: Janitor,
    options: DurableOptions,
    records_logged: u64,
    last_checkpoint: u64,
}

impl DurableServer {
    /// Arms the WAL writer's hooks. The drop hook: a writer dropped while
    /// still staging group-commit records has silently discarded logged
    /// frames, which must show up in the deployment's counters rather
    /// than only at the next recovery. The sync hook, on the syncer
    /// thread: `wal.fsync` counts the fdatasyncs it completes, and
    /// [`Phase::WalSync`] times each.
    fn install_hooks(wal: &mut WalWriter, obs: &Obs) {
        let dropped = obs.clone();
        wal.set_drop_hook(move |records, bytes| {
            dropped.add("wal.dropped_buffered_records", records);
            dropped.add("wal.dropped_buffered_bytes", bytes);
        });
        let synced = obs.clone();
        wal.set_sync_hook(move |elapsed| {
            synced.inc("wal.fsync");
            synced.observe(
                Phase::WalSync.ns_metric(),
                u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            );
        });
    }

    /// The retention janitor for `dir`: `wal.retire` counts the files
    /// each pass removes, and `wal.retire.error` the passes that fail.
    fn janitor(dir: &Path, store: &CheckpointStore, obs: &Obs) -> Janitor {
        let obs = obs.clone();
        Janitor::new(dir, store.clone(), move |pass| match pass {
            Ok(retired) => obs.add("wal.retire", retired),
            Err(_) => obs.inc("wal.retire.error"),
        })
    }

    /// Starts a fresh durable server in `dir` (created if needed): an
    /// empty log and an empty deployment. Whatever an earlier deployment
    /// left in `dir` — its segments and checkpoints — is deleted first,
    /// so it cannot outrank the new log at the next recovery. Use
    /// [`recover`](Self::recover) to resume from existing state instead.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] for an invalid shard count, alpha,
    /// or checkpoint interval, and [`SimError::Durability`] if the
    /// directory or log cannot be created or the old files removed.
    pub fn create(
        scheme: vcps_core::Scheme,
        history_alpha: f64,
        shard_count: usize,
        dir: &Path,
        options: DurableOptions,
        obs: &Obs,
    ) -> Result<Self, SimError> {
        options.validate()?;
        // Opening the checkpoint store first creates `dir` itself (the
        // store's directory is nested inside it).
        let store = CheckpointStore::open(dir.join(CHECKPOINT_DIR))?;
        store.clear()?;
        let mut wal = SegmentedLog::create(dir)?.with_flush_policy(options.flush);
        Self::install_hooks(&mut wal, obs);
        let inner = ShardedServer::new(scheme, history_alpha, shard_count)?.with_obs(obs.clone());
        Ok(Self {
            inner,
            wal,
            janitor: Self::janitor(dir, &store, obs),
            store,
            options,
            records_logged: 0,
            last_checkpoint: 0,
        })
    }

    /// Rebuilds a durable server from what `dir` holds: the newest
    /// checkpoint the surviving log reaches plus a silent replay of the
    /// records after it (see the module docs), tolerating torn writes,
    /// truncated tails, and bit-flipped records — the scan stops at the
    /// first corrupt record and the tail is discarded, reported in the
    /// [`RecoveryReport`]. A missing WAL is an empty one (the crash may
    /// have landed before the first append).
    ///
    /// `history_alpha` and `shard_count` describe the deployment being
    /// recovered; a checkpoint whose topology disagrees with
    /// `shard_count` is rejected rather than silently re-routing RSUs.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Durability`] for hard I/O failures, a
    /// non-WAL file where a segment should be, a
    /// [`DurabilityError::UnsupportedVersion`] naming the first segment
    /// or checkpoint of another on-disk format version it meets (before
    /// anything on disk changes), or a
    /// [`DurabilityError::ChainGap`] when no checkpoint is usable and the
    /// log's first records were retired; [`SimError::Core`] for a
    /// topology mismatch or invalid parameters; and
    /// [`SimError::MalformedMessage`] if a checksummed WAL record or
    /// checkpoint payload does not parse (possible only for a foreign
    /// or logically corrupted store — checksums catch random damage
    /// first). Never panics.
    pub fn recover(
        scheme: vcps_core::Scheme,
        history_alpha: f64,
        shard_count: usize,
        dir: &Path,
        options: DurableOptions,
        obs: &Obs,
    ) -> Result<(Self, RecoveryReport), SimError> {
        options.validate()?;
        let _timer = obs.phase(Phase::WalRecover);
        let store = CheckpointStore::open(dir.join(CHECKPOINT_DIR))?;
        let log = SegmentedLog::open(dir)?;
        let mut scanned_bytes = 0;
        // Silent replay: `inner` carries a disabled observability handle
        // here (both construction paths leave it disabled), so replayed
        // frames are not double-counted.
        let mut restored = None;
        for checkpoint in store.valid_newest_first()? {
            let checkpoint = checkpoint?;
            // Records before the chain's start are retired: no replay
            // can continue from a checkpoint older than them.
            if checkpoint.seq < log.start() {
                continue;
            }
            let mut inner = None;
            let scan = log.scan(checkpoint.seq, |frame| {
                if inner.is_none() {
                    inner = Some(Self::restore(&scheme, shard_count, &checkpoint)?);
                }
                Self::replay_frame(inner.as_mut().expect("restored above"), frame)
            })?;
            scanned_bytes += scan.scanned_bytes;
            if scan.end >= checkpoint.seq {
                let inner = match inner {
                    Some(inner) => inner,
                    None => Self::restore(&scheme, shard_count, &checkpoint)?,
                };
                restored = Some((inner, checkpoint.seq, scan));
                break;
            }
        }
        let (mut inner, start, scan) = match restored {
            Some(found) => found,
            None => {
                let mut inner = ShardedServer::new(scheme, history_alpha, shard_count)?;
                let scan = log.scan(0, |frame| Self::replay_frame(&mut inner, frame))?;
                scanned_bytes += scan.scanned_bytes;
                (inner, 0, scan)
            }
        };
        store.retire_newer_than(start)?;
        let mut wal = log.resume(&scan)?.with_flush_policy(options.flush);
        Self::install_hooks(&mut wal, obs);
        let replayed = scan.end - start;
        inner.set_obs(obs.clone());
        obs.inc("wal.recover");
        obs.add("wal.replay.records", replayed);
        let report = RecoveryReport {
            checkpoint_records: start,
            replayed_records: replayed,
            truncated_bytes: scan.discarded_bytes,
            tail_error: scan.tail_error,
            scanned_bytes,
        };
        Ok((
            Self {
                inner,
                wal,
                janitor: Self::janitor(dir, &store, obs),
                store,
                options,
                records_logged: scan.end,
                last_checkpoint: start,
            },
            report,
        ))
    }

    /// Rebuilds the deployment a checkpoint holds, checking that it
    /// covers the records its file claims and matches the topology.
    fn restore(
        scheme: &vcps_core::Scheme,
        shard_count: usize,
        checkpoint: &Checkpoint,
    ) -> Result<ShardedServer, SimError> {
        let set = CheckpointSet::decode(&checkpoint.payload)?;
        if set.frames_applied != checkpoint.seq {
            return Err(SimError::MalformedMessage {
                reason: "checkpoint sequence disagrees with its payload",
            });
        }
        if set.shards.len() != shard_count {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "shard_count",
                reason: format!(
                    "checkpoint holds {} shards, deployment expects {shard_count}",
                    set.shards.len()
                ),
            }));
        }
        ShardedServer::restore_from_checkpoint(scheme.clone(), &set)
    }

    /// Applies one logged record through the normal receive paths,
    /// dispatching on its tag byte. Replay runs the zero-copy decode, so
    /// only a fresh or conflicting upload is materialized. A rollover
    /// record replays [`ShardedServer::finish_period`] and, like the
    /// receive verdicts, ignores its result: a sizing failure leaves the
    /// same state it left live.
    fn replay_frame(inner: &mut ShardedServer, frame: &[u8]) -> Result<(), SimError> {
        match frame {
            [5, ..] => {
                let view = SequencedUploadRef::decode_ref(frame)?;
                let _ = inner.receive_sequenced_ref(&view);
            }
            [6, ..] => {
                let _ = inner.receive_batch_wire(frame)?;
            }
            [TAG_ROLLOVER] => {
                let _ = inner.finish_period();
            }
            _ => {
                return Err(SimError::MalformedMessage {
                    reason: "unknown WAL frame tag",
                });
            }
        }
        Ok(())
    }

    /// Appends one frame to the WAL — the write-ahead step, always
    /// before the in-memory apply. Whether the append writes a group to
    /// the file now or stages the frame for a later one is the
    /// [`FlushPolicy`]'s call; the fsync runs on the syncer either way.
    fn log_frame(&mut self, frame: &[u8]) -> Result<(), SimError> {
        let obs = self.inner.obs().clone();
        let _timer = obs.phase(Phase::WalAppend);
        self.wal.append(frame)?;
        self.records_logged += 1;
        obs.inc("wal.append");
        obs.add("wal.append.bytes", frame.len() as u64);
        Ok(())
    }

    /// Publishes a checkpoint if the configured cadence is due.
    fn maybe_checkpoint(&mut self) -> Result<(), SimError> {
        if let Some(interval) = self.options.checkpoint_interval {
            if self.records_logged - self.last_checkpoint >= interval {
                self.checkpoint_now()?;
            }
        }
        Ok(())
    }

    /// Writes the staged WAL records and waits until every logged frame
    /// is on stable storage — the explicit boundary for
    /// [`FlushPolicy::Manual`] (and an early one for the thresholded
    /// policies). Every frame logged before this call is durable once it
    /// returns.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Durability`] if the write or fsync fails, or
    /// an earlier one did (a failure is sticky).
    pub fn flush_wal(&mut self) -> Result<(), SimError> {
        self.wal.sync()?;
        Ok(())
    }

    /// Writes the staged WAL records and requests their fsync without
    /// waiting for it — what a server does when it runs out of queued
    /// work, so the records its held answers wait on reach stable
    /// storage. [`watermark`](Self::watermark) says when they have.
    ///
    /// # Errors
    ///
    /// As [`flush_wal`](Self::flush_wal), for the write.
    pub fn request_flush(&mut self) -> Result<(), SimError> {
        self.wal.request_sync()?;
        Ok(())
    }

    /// The WAL's durable watermark: frames numbered below its
    /// [`durable`](Watermark::durable) count, counted as
    /// [`records_logged`](Self::records_logged) counts them, are on stable
    /// storage. The handle may be waited on from any thread, without this
    /// server.
    #[must_use]
    pub fn watermark(&self) -> Watermark {
        self.wal.watermark()
    }

    /// Publishes a whole-deployment checkpoint covering everything
    /// logged so far, unconditionally, then queues a retention pass.
    /// The WAL is flushed first (written and its fsync waited for) so
    /// the checkpoint never claims records the log does not durably hold
    /// (recovery trusts a checkpoint only as far as the surviving log
    /// reaches).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Durability`] if the flush or publication
    /// fails.
    pub fn checkpoint_now(&mut self) -> Result<(), SimError> {
        self.publish_checkpoint()?;
        self.janitor.request(self.last_checkpoint);
        Ok(())
    }

    /// Flushes the WAL, then publishes (durably) a checkpoint covering
    /// every record logged.
    fn publish_checkpoint(&mut self) -> Result<(), SimError> {
        self.flush_wal()?;
        let set = self.inner.checkpoint(self.records_logged);
        self.store.publish(self.records_logged, &set.encode())?;
        self.last_checkpoint = self.records_logged;
        self.inner.obs().inc("wal.checkpoint");
        Ok(())
    }

    /// [`ShardedServer::receive_sequenced`], write-ahead logged (one
    /// WAL record per upload: its [`SequencedUpload::encode`] bytes).
    ///
    /// When this returns the frame is logged and applied; it is durable
    /// once the [`watermark`](Self::watermark) reaches
    /// [`records_logged`](Self::records_logged), under every
    /// [`FlushPolicy`]. Nothing here waits for an fsync unless a
    /// checkpoint is due.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Durability`] if the append or a due
    /// checkpoint fails, or the log failed earlier — in which case the
    /// frame was **not** applied (log first, apply second), except when
    /// only the checkpoint failed.
    pub fn receive_sequenced(
        &mut self,
        sequenced: SequencedUpload,
    ) -> Result<ReceiveOutcome, SimError> {
        self.log_frame(&sequenced.encode())?;
        let outcome = self.inner.receive_sequenced(sequenced);
        self.maybe_checkpoint()?;
        Ok(outcome)
    }

    /// [`ShardedServer::receive_sequenced_ref`], write-ahead logged: the
    /// tag-5 twin of [`receive_batch_wire`](Self::receive_batch_wire).
    /// The raw wire bytes are validated once (zero-copy), logged
    /// verbatim as one WAL record, and applied straight from the buffer
    /// — no owned decode, no re-encode. Durable as
    /// [`receive_sequenced`](Self::receive_sequenced) says.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] for a frame
    /// [`SequencedUploadRef::decode_ref`] rejects (nothing is logged or
    /// applied), otherwise as
    /// [`receive_sequenced`](Self::receive_sequenced).
    pub fn receive_sequenced_wire(&mut self, wire: &[u8]) -> Result<ReceiveOutcome, SimError> {
        let view = SequencedUploadRef::decode_ref(wire)?;
        self.log_frame(wire)?;
        let outcome = self.inner.receive_sequenced_ref(&view);
        self.maybe_checkpoint()?;
        Ok(outcome)
    }

    /// [`ShardedServer::receive_batch_wire`], write-ahead logged: the
    /// raw wire bytes are validated once (zero-copy), logged verbatim
    /// as a single WAL record — no re-encode, the log *is* the wire —
    /// and applied straight from the buffer; replay re-ingests it
    /// through the same batch path. Durable as
    /// [`receive_sequenced`](Self::receive_sequenced) says.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] for a frame
    /// [`BatchUploadRef::decode_ref`] rejects (nothing is logged or
    /// applied), otherwise as
    /// [`receive_sequenced`](Self::receive_sequenced).
    pub fn receive_batch_wire(&mut self, wire: &[u8]) -> Result<Vec<ReceiveOutcome>, SimError> {
        // Validate before logging: a malformed frame must never enter
        // the log, or replay would fail on it.
        let batch = BatchUploadRef::decode_ref(wire)?;
        self.log_frame(wire)?;
        let outcomes = self.inner.receive_batch_ref(&batch);
        self.maybe_checkpoint()?;
        Ok(outcomes)
    }

    /// [`ShardedServer::finish_period`], write-ahead logged as a rollover
    /// record and followed by a mandatory checkpoint, after which the
    /// live WAL segment is sealed and a retention pass queued. The
    /// checkpoint is published (durably) before the seal, so the closed
    /// period's segment is only ever retired behind checkpoints that
    /// cover it.
    ///
    /// # Errors
    ///
    /// Propagates sizing failures and [`SimError::Durability`] from the
    /// append, the checkpoint publication, or the seal.
    pub fn finish_period(
        &mut self,
    ) -> Result<std::collections::BTreeMap<vcps_core::RsuId, usize>, SimError> {
        self.log_frame(&[TAG_ROLLOVER])?;
        let sizes = self.inner.finish_period()?;
        self.publish_checkpoint()?;
        self.wal.seal()?;
        self.inner.obs().inc("wal.seal");
        self.janitor.request(self.last_checkpoint);
        Ok(sizes)
    }

    /// The wrapped server — all reads (estimates, O–D matrices) go
    /// through here and are bit-identical to a non-durable server's.
    #[must_use]
    pub fn server(&self) -> &ShardedServer {
        &self.inner
    }

    /// Consumes the wrapper, yielding the wrapped server (the WAL
    /// segments and checkpoints stay on disk).
    #[must_use]
    pub fn into_server(self) -> ShardedServer {
        self.inner
    }

    /// The attached observability handle (the wrapped server's).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        self.inner.obs()
    }

    /// Re-seeds an RSU's historical average (see
    /// [`ShardedServer::seed_history`]). Seeds are engine-provided
    /// configuration, not logged state — a recovering driver re-applies
    /// them after [`recover`](Self::recover). A replay that crosses a
    /// rollover folds the period into the history held by the
    /// checkpoint it started from, seeds included only if they were
    /// applied before that checkpoint.
    pub fn seed_history(&mut self, rsu: vcps_core::RsuId, average: f64) {
        self.inner.seed_history(rsu, average);
    }

    /// WAL records appended so far (including those found by
    /// recovery), numbered from the log's creation across segments.
    #[must_use]
    pub fn records_logged(&self) -> u64 {
        self.records_logged
    }

    /// The live WAL segment's path.
    #[must_use]
    pub fn wal_path(&self) -> &Path {
        self.wal.path()
    }

    /// The checkpoint directory.
    #[must_use]
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.store.dir().to_path_buf()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcps_core::{BitArray, RsuId, Scheme};
    use vcps_durable::read_wal;

    use crate::protocol::{BatchUpload, PeriodUpload};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vcps-sim-durable-test-{}-{tag}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn scheme() -> Scheme {
        Scheme::variable(2, 3.0, 9).unwrap()
    }

    fn sequenced(rsu: u64, seq: u64, ones: &[usize]) -> SequencedUpload {
        let mut bits = BitArray::new(256);
        for &i in ones {
            bits.set(i);
        }
        SequencedUpload {
            seq,
            upload: PeriodUpload {
                rsu: RsuId(rsu),
                counter: ones.len() as u64,
                bits,
            },
        }
    }

    #[test]
    fn options_reject_zero_interval() {
        let dir = temp_dir("opts");
        assert!(DurableServer::create(
            scheme(),
            1.0,
            2,
            &dir,
            DurableOptions::log_only().with_checkpoint_every(0),
            &Obs::disabled(),
        )
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_with_buffered_records_is_counted() {
        let dir = temp_dir("drop-counted");
        let obs = Obs::enabled();
        let mut durable = DurableServer::create(
            scheme(),
            1.0,
            2,
            &dir,
            DurableOptions::log_only().with_flush(FlushPolicy::Manual),
            &obs,
        )
        .unwrap();
        durable
            .receive_sequenced(sequenced(1, 0, &[3, 77]))
            .unwrap();
        durable.receive_sequenced(sequenced(2, 0, &[9])).unwrap();
        // Simulated crash: two acknowledged frames never hit disk.
        drop(durable);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["wal.dropped_buffered_records"], 2);
        assert!(snap.counters["wal.dropped_buffered_bytes"] > 0);

        // An explicit flush before drop leaves the counters untouched.
        let dir2 = temp_dir("drop-flushed");
        let obs2 = Obs::enabled();
        let mut durable = DurableServer::create(
            scheme(),
            1.0,
            2,
            &dir2,
            DurableOptions::log_only().with_flush(FlushPolicy::Manual),
            &obs2,
        )
        .unwrap();
        durable
            .receive_sequenced(sequenced(1, 0, &[3, 77]))
            .unwrap();
        durable.flush_wal().unwrap();
        drop(durable);
        assert!(!obs2
            .snapshot()
            .counters
            .contains_key("wal.dropped_buffered_records"));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    /// `wal.fsync` counts the fdatasyncs the syncer completes: exactly
    /// the writer's count, never more than its group writes, each timed
    /// in the `phase.wal_sync.ns` histogram. After a flush the watermark
    /// covers every logged frame.
    #[test]
    fn wal_fsync_counts_the_syncers_fdatasyncs() {
        let dir = temp_dir("fsync-count");
        let obs = Obs::enabled();
        let mut durable =
            DurableServer::create(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        for r in 1..=20u64 {
            durable
                .receive_sequenced(sequenced(r, 0, &[r as usize]))
                .unwrap();
        }
        durable.flush_wal().unwrap();
        assert_eq!(durable.watermark().durable(), 20);
        durable.finish_period().unwrap();
        assert_eq!(durable.watermark().durable(), durable.records_logged());
        let (fsyncs, writes) = (durable.wal.fsyncs(), durable.wal.flushes());
        assert_eq!(writes, 21, "one group write per record by default");
        assert!(
            (1..=writes).contains(&fsyncs),
            "{fsyncs} fsyncs, {writes} writes"
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counters["wal.fsync"], fsyncs);
        assert_eq!(snap.histograms["phase.wal_sync.ns"].count, fsyncs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_and_recover_reproduces_state_bit_identically() {
        let dir = temp_dir("recover");
        let obs = Obs::disabled();
        let mut reference = ShardedServer::new(scheme(), 1.0, 4).unwrap();
        let mut durable = DurableServer::create(
            scheme(),
            1.0,
            4,
            &dir,
            DurableOptions::log_only().with_checkpoint_every(3),
            &obs,
        )
        .unwrap();
        // A stream exercising every verdict: fresh, duplicate,
        // conflicting, stale.
        let frames = vec![
            sequenced(1, 0, &[3, 77]),
            sequenced(2, 0, &[9]),
            sequenced(1, 0, &[3, 77]), // duplicate
            sequenced(2, 0, &[9, 10]), // conflicting
            sequenced(3, 2, &[0]),
            sequenced(3, 1, &[200]), // stale
            sequenced(9, 5, &[8, 16, 32]),
        ];
        for f in &frames {
            let expected = reference.receive_sequenced(f.clone());
            let got = durable.receive_sequenced(f.clone()).unwrap();
            assert_eq!(got, expected);
        }
        let logged = durable.records_logged();
        drop(durable); // the crash: all in-memory state gone
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 4, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert_eq!(report.tail_error, None);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.checkpoint_records + report.replayed_records, logged);
        assert!(report.checkpoint_records > 0, "interval 3 must have fired");
        assert_eq!(recovered.records_logged(), logged);
        // Durable-state equality via the checkpoint image (PartialEq on
        // the wrapped servers' snapshots — derived caches excluded).
        assert_eq!(
            recovered.server().checkpoint(0),
            reference.checkpoint(0),
            "recovered state must be bit-identical"
        );
        // And the recovered server keeps ingesting correctly.
        let mut recovered = recovered;
        let f = sequenced(3, 1, &[200]);
        assert_eq!(
            recovered.receive_sequenced(f.clone()).unwrap(),
            reference.receive_sequenced(f)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_tolerates_torn_tail() {
        let dir = temp_dir("torn");
        let obs = Obs::disabled();
        let mut durable =
            DurableServer::create(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        for i in 0..4u64 {
            let f = sequenced(i + 1, 0, &[i as usize]);
            durable.receive_sequenced(f.clone()).unwrap();
            if i < 3 {
                reference.receive_sequenced(f);
            }
        }
        let wal = durable.wal_path().to_path_buf();
        drop(durable);
        // Tear the last record mid-payload.
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert!(matches!(
            report.tail_error,
            Some(DurabilityError::TruncatedRecord { .. })
        ));
        assert!(report.truncated_bytes > 0);
        assert_eq!(recovered.records_logged(), 3);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_rejects_topology_mismatch() {
        let dir = temp_dir("topology");
        let obs = Obs::disabled();
        let mut durable = DurableServer::create(
            scheme(),
            1.0,
            4,
            &dir,
            DurableOptions::log_only().with_checkpoint_every(1),
            &obs,
        )
        .unwrap();
        durable.receive_sequenced(sequenced(1, 0, &[5])).unwrap();
        drop(durable);
        assert!(matches!(
            DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs),
            Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "shard_count",
                ..
            }))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_of_missing_directory_starts_fresh() {
        let dir = temp_dir("fresh").join("never-written");
        let obs = Obs::disabled();
        let (server, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert_eq!(report.replayed_records, 0);
        assert_eq!(report.checkpoint_records, 0);
        assert_eq!(server.records_logged(), 0);
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }

    /// The wire batch path logs the raw wire bytes as one record —
    /// byte-identical to the frame that arrived — and replays to the
    /// same state as the volatile server.
    #[test]
    fn batch_wire_logs_raw_bytes_and_replays() {
        let dir = temp_dir("batch-wire");
        let obs = Obs::disabled();
        let mut durable =
            DurableServer::create(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        let batch =
            BatchUpload::new(vec![sequenced(1, 0, &[5]), sequenced(2, 0, &[6, 7])]).unwrap();
        let wire = batch.encode();
        let expected = reference.receive_batch_wire(&wire).unwrap();
        assert_eq!(durable.receive_batch_wire(&wire).unwrap(), expected);
        assert_eq!(durable.records_logged(), 1, "one record per batch");
        // The log holds the wire bytes verbatim — no re-encode drift.
        let logged = read_wal(durable.wal_path()).unwrap();
        assert_eq!(logged.records, vec![wire.to_vec()]);
        // A malformed wire is rejected without logging anything.
        assert!(durable.receive_batch_wire(&wire[..wire.len() - 1]).is_err());
        assert_eq!(durable.records_logged(), 1);
        drop(durable);
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert_eq!(report.replayed_records, 1);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The tag-5 wire path logs each frame's wire bytes verbatim,
    /// rejects malformed frames before logging, answers exactly as the
    /// owned path does, and replays to the same state.
    #[test]
    fn sequenced_wire_logs_raw_bytes_and_replays() {
        let dir = temp_dir("sequenced-wire");
        let obs = Obs::disabled();
        let mut durable =
            DurableServer::create(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        let dense: Vec<usize> = (0..256).step_by(3).collect();
        let frames = [
            sequenced(1, 0, &[3, 77]),
            sequenced(2, 0, &dense),
            sequenced(1, 0, &[3, 77]), // duplicate
            sequenced(2, 0, &[9, 10]), // conflicting
            sequenced(3, 2, &[0]),
            sequenced(3, 1, &[200]), // stale
        ];
        let wires: Vec<Vec<u8>> = frames.iter().map(|f| f.encode().to_vec()).collect();
        for (f, wire) in frames.iter().zip(&wires) {
            let expected = reference.receive_sequenced(f.clone());
            assert_eq!(durable.receive_sequenced_wire(wire).unwrap(), expected);
        }
        assert_eq!(durable.records_logged(), frames.len() as u64);

        // Malformed frames are rejected without logging anything: a
        // truncation, a wrong tag, and a sparse index list that is not
        // strictly increasing ([5][seq][4][rsu][counter][len][ones]
        // puts the two indices at bytes 42..58; swap them).
        let sparse = &wires[0];
        let mut wrong_tag = sparse.clone();
        wrong_tag[0] = 6;
        let mut unsorted = sparse.clone();
        unsorted[42..58].copy_from_slice(&[&sparse[50..58], &sparse[42..50]].concat());
        for (bad, why) in [
            (
                &sparse[..sparse.len() - 1],
                "sparse upload index count mismatch",
            ),
            (&wrong_tag[..], "bad sequenced upload frame"),
            (
                &unsorted[..],
                "sparse upload indices not strictly increasing",
            ),
        ] {
            assert!(matches!(
                durable.receive_sequenced_wire(bad),
                Err(SimError::MalformedMessage { reason }) if reason == why
            ));
        }
        assert_eq!(durable.records_logged(), frames.len() as u64);

        // The log holds the wire bytes verbatim.
        let logged = read_wal(durable.wal_path()).unwrap();
        assert_eq!(logged.records, wires);
        drop(durable);
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert_eq!(report.replayed_records, frames.len() as u64);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn options_reject_zero_flush_thresholds() {
        let dir = temp_dir("flush-opts");
        for flush in [FlushPolicy::EveryRecords(0), FlushPolicy::EveryBytes(0)] {
            assert!(DurableServer::create(
                scheme(),
                1.0,
                2,
                &dir,
                DurableOptions::log_only().with_flush(flush),
                &Obs::disabled(),
            )
            .is_err());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Group commit: a crash loses exactly the buffered (unflushed)
    /// tail, and recovery reproduces the state of a reference server
    /// fed the surviving prefix. `finish_period` (checkpoint) is a
    /// flush boundary, so a closed period is never lost.
    #[test]
    fn group_commit_crash_loses_only_the_buffered_tail() {
        let dir = temp_dir("group-commit");
        let obs = Obs::disabled();
        let options = DurableOptions::log_only().with_flush(FlushPolicy::EveryRecords(3));
        let mut durable = DurableServer::create(scheme(), 1.0, 2, &dir, options, &obs).unwrap();
        // 8 frames under flush-every-3: records 1..=6 are flushed, 7–8
        // sit in the buffer when the crash hits.
        let frames: Vec<SequencedUpload> =
            (1..=8u64).map(|r| sequenced(r, 0, &[r as usize])).collect();
        for f in &frames {
            durable.receive_sequenced(f.clone()).unwrap();
        }
        drop(durable); // crash: buffered tail gone
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, options, &obs).unwrap();
        assert_eq!(report.tail_error, None, "a lost tail is not a torn tail");
        assert_eq!(recovered.records_logged(), 6);
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        for f in &frames[..6] {
            reference.receive_sequenced(f.clone());
        }
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));

        // Same stream, but with an explicit flush boundary before the
        // crash: nothing is lost.
        let dir2 = temp_dir("group-commit-flushed");
        let mut durable = DurableServer::create(scheme(), 1.0, 2, &dir2, options, &obs).unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        for f in &frames {
            durable.receive_sequenced(f.clone()).unwrap();
            reference.receive_sequenced(f.clone());
        }
        durable.flush_wal().unwrap();
        drop(durable);
        let (recovered, _) =
            DurableServer::recover(scheme(), 1.0, 2, &dir2, options, &obs).unwrap();
        assert_eq!(recovered.records_logged(), 8);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }

    /// A checkpoint must never claim records the log does not durably
    /// hold: under Manual flushing, `checkpoint_now` (and thus
    /// `finish_period`) flushes the WAL before publishing, so the
    /// recovered checkpoint is always covered by the log prefix.
    #[test]
    fn checkpoint_flushes_buffered_records_first() {
        let dir = temp_dir("ckpt-flush");
        let obs = Obs::disabled();
        let options = DurableOptions::log_only().with_flush(FlushPolicy::Manual);
        let mut durable = DurableServer::create(scheme(), 1.0, 2, &dir, options, &obs).unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        for f in [sequenced(1, 0, &[5]), sequenced(2, 0, &[6])] {
            durable.receive_sequenced(f.clone()).unwrap();
            reference.receive_sequenced(f);
        }
        durable.finish_period().unwrap();
        reference.finish_period().unwrap();
        drop(durable); // no explicit flush after the checkpoint
        let (recovered, report) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, options, &obs).unwrap();
        assert_eq!(report.checkpoint_records, 3, "checkpoint covered by log");
        assert_eq!(recovered.server().upload_count(), 0);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finish_period_checkpoint_prevents_upload_resurrection() {
        let dir = temp_dir("finish");
        let obs = Obs::disabled();
        let mut durable =
            DurableServer::create(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        let mut reference = ShardedServer::new(scheme(), 1.0, 2).unwrap();
        for f in [sequenced(1, 0, &[5]), sequenced(2, 0, &[6])] {
            durable.receive_sequenced(f.clone()).unwrap();
            reference.receive_sequenced(f);
        }
        durable.finish_period().unwrap();
        reference.finish_period().unwrap();
        drop(durable);
        let (recovered, _) =
            DurableServer::recover(scheme(), 1.0, 2, &dir, DurableOptions::log_only(), &obs)
                .unwrap();
        assert_eq!(recovered.server().upload_count(), 0);
        assert_eq!(recovered.server().checkpoint(0), reference.checkpoint(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
