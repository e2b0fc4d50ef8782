//! `vcps-durable`: the workspace's durability substrate — a checksummed
//! append-only write-ahead log (WAL) kept as a chain of segments, and an
//! atomically-published checkpoint store, with zero dependencies
//! (DESIGN.md §17).
//!
//! The crate is deliberately *payload-agnostic*: it persists and
//! recovers opaque byte records. What those bytes mean (wire frames,
//! serialized server state) is the simulator's business — `vcps-sim`
//! layers frame logging, per-shard checkpoints, and replay-based
//! recovery on top, keeping the dependency arrow pointing from the
//! system to the substrate. The on-disk *layout* is this crate's alone:
//! no other crate builds or parses a segment or checkpoint file name.
//!
//! * [`WalWriter`] appends length-delimited, XXH64-checksummed
//!   records to a magic-prefixed log file — the same
//!   `len ‖ checksum ‖ payload` framing discipline the batch wire
//!   format uses, so one corrupted record is attributed precisely
//!   instead of desynchronizing the rest of the scan. The magic's last
//!   byte is the on-disk format version; a file of another version is
//!   refused as [`DurabilityError::UnsupportedVersion`], never read.
//!   Its fsyncs run on one syncer thread per writer, off the appender's
//!   path; a [`Watermark`] says which records are on stable storage.
//!   [`WalWriter::seal`] closes the live file as a numbered segment and
//!   starts a fresh one.
//! * [`read_wal`] scans a log tolerantly: a torn write, truncated
//!   tail, or bit-flipped record stops the scan at the last valid
//!   record and reports a typed [`DurabilityError`] in
//!   [`WalScan::tail_error`] — it never panics and never yields a
//!   record that failed its checksum. It collects what the one
//!   streaming scanner visits; [`SegmentedLog::scan`] streams a chain
//!   of segments through the same scanner without collecting.
//! * [`CheckpointStore`] publishes snapshot payloads via
//!   write-to-temp-then-rename, so a crash mid-checkpoint can never
//!   leave a half-written file where [`CheckpointStore::latest_valid`]
//!   would find it; corrupt or torn checkpoint files are skipped in
//!   favor of the newest one that validates.
//! * A [`Janitor`] deletes, off the request path, the segments and
//!   checkpoints that two newer checkpoints make unnecessary, so the
//!   log's disk use stays bounded.
//!
//! # Example
//!
//! ```
//! use vcps_durable::{read_wal, CheckpointStore, WalWriter};
//!
//! let dir = std::env::temp_dir().join(format!("vcps-durable-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let wal = dir.join("frames.wal");
//!
//! let mut writer = WalWriter::create(&wal).unwrap();
//! writer.append(b"frame-1").unwrap();
//! writer.append(b"frame-2").unwrap();
//! writer.sync().unwrap();
//!
//! let scan = read_wal(&wal).unwrap();
//! assert_eq!(scan.records, vec![b"frame-1".to_vec(), b"frame-2".to_vec()]);
//! assert!(scan.tail_error.is_none());
//!
//! let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
//! store.publish(2, b"snapshot-after-2").unwrap();
//! let latest = store.latest_valid().unwrap().unwrap();
//! assert_eq!((latest.seq, latest.payload.as_slice()), (2, &b"snapshot-after-2"[..]));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod segments;

use std::error::Error;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use segments::{ChainScan, Janitor, SegmentedLog, LIVE_SEGMENT};

/// Magic prefix of a WAL file (8 bytes; the last is the format
/// version).
pub const WAL_MAGIC: [u8; 8] = *b"VCPSWAL2";

/// Magic prefix of a checkpoint file (8 bytes; the last is the format
/// version).
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"VCPSCKP2";

/// Per-record header size: `u64` payload length ‖ `u64` [`xxh64`] of
/// the payload, both big-endian like the wire protocol.
const RECORD_HEADER: usize = 16;

/// Checkpoint file header size: magic ‖ `u64` seq ‖ `u64` payload
/// length ‖ `u64` checksum.
const CHECKPOINT_HEADER: usize = 8 + 24;

/// Read-ahead of the streaming WAL scanner.
const SCAN_BUFFER: usize = 1 << 18;

/// When a [`WalWriter`] writes its append buffer to the file and
/// requests the write's fsync — the group-commit knob (DESIGN.md §18).
///
/// Durability is a *prefix* property under every policy: records reach
/// the file, and then stable storage, strictly in append order, so a
/// crash loses at most the records past the [`Watermark`] — never a
/// record in the middle. The policy only decides how many records one
/// group write carries; the fsync itself always runs on the writer's
/// syncer thread, which folds every request that arrives while it
/// syncs into its next fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushPolicy {
    /// Write every record as it is appended and request its fsync. The
    /// default. Records appended while an fsync runs share the next one.
    #[default]
    PerRecord,
    /// Write a group once this many records have accumulated in the
    /// buffer (group commit). Must be positive; `EveryRecords(1)` is
    /// equivalent to [`PerRecord`](FlushPolicy::PerRecord).
    EveryRecords(u64),
    /// Write a group once the buffer holds at least this many bytes
    /// (headers included). Must be positive.
    EveryBytes(u64),
    /// Write only on an explicit [`WalWriter::sync`] or
    /// [`WalWriter::request_sync`] — the caller owns the boundary (e.g.
    /// once per period).
    Manual,
}

impl FlushPolicy {
    /// Whether the buffer state (`records` buffered records spanning
    /// `bytes` bytes) makes a group write due under this policy.
    fn due(self, records: u64, bytes: u64) -> bool {
        match self {
            FlushPolicy::PerRecord => true,
            FlushPolicy::EveryRecords(n) => records >= n,
            FlushPolicy::EveryBytes(t) => bytes >= t,
            FlushPolicy::Manual => false,
        }
    }
}

/// FNV-1a 64 over a byte slice — the checksum of every record in
/// `vcps-sim`'s batch wire format (tag 6), which calls this function.
/// Nothing on disk uses it: WAL records and checkpoints carry [`xxh64`].
/// It catches channel corruption, not adversaries.
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 lane step: folds an 8-byte input lane into an accumulator.
fn xxh64_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

/// Folds one of the four stripe accumulators into the converged hash.
fn xxh64_merge(hash: u64, acc: u64) -> u64 {
    (hash ^ xxh64_round(0, acc))
        .wrapping_mul(XXH_P1)
        .wrapping_add(XXH_P4)
}

/// XXH64 with seed 0 over a byte slice — the checksum of every WAL
/// record and checkpoint file (on-disk format 2), per the xxHash
/// specification. Input is consumed in 32-byte stripes by four
/// independent 64-bit accumulators, so it runs at several bytes per
/// cycle where [`fnv1a_64`]'s one dependent multiply per byte cannot
/// (DESIGN.md §17). It catches disk corruption, not adversaries.
#[must_use]
pub fn xxh64(bytes: &[u8]) -> u64 {
    let (stripes, rest) = bytes.as_chunks::<32>();
    let mut hash = if stripes.is_empty() {
        XXH_P5
    } else {
        let mut acc = [
            XXH_P1.wrapping_add(XXH_P2),
            XXH_P2,
            0,
            XXH_P1.wrapping_neg(),
        ];
        for stripe in stripes {
            for (acc, lane) in acc.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *acc = xxh64_round(*acc, u64::from_le_bytes(*lane));
            }
        }
        let converged = acc[0]
            .rotate_left(1)
            .wrapping_add(acc[1].rotate_left(7))
            .wrapping_add(acc[2].rotate_left(12))
            .wrapping_add(acc[3].rotate_left(18));
        acc.into_iter().fold(converged, xxh64_merge)
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let (words, mut tail) = rest.as_chunks::<8>();
    for word in words {
        hash = (hash ^ xxh64_round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(XXH_P1)
            .wrapping_add(XXH_P4);
    }
    if let Some((word, bytes)) = tail.split_first_chunk::<4>() {
        hash = (hash ^ u64::from(u32::from_le_bytes(*word)).wrapping_mul(XXH_P1))
            .rotate_left(23)
            .wrapping_mul(XXH_P2)
            .wrapping_add(XXH_P3);
        tail = bytes;
    }
    for &b in tail {
        hash = (hash ^ u64::from(b).wrapping_mul(XXH_P5))
            .rotate_left(11)
            .wrapping_mul(XXH_P1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(XXH_P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(XXH_P3);
    hash ^ (hash >> 32)
}

/// A typed durability failure. I/O errors carry the failed operation
/// and OS detail; corruption errors carry the byte offset so a log can
/// be inspected (and are what [`read_wal`] reports for a torn tail —
/// the scan itself still succeeds up to the last valid record).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DurabilityError {
    /// An underlying filesystem operation failed.
    Io {
        /// What was being attempted (e.g. `"append"`, `"fsync"`).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The OS error rendered to text.
        detail: String,
    },
    /// The file does not start with the WAL magic bytes — it is not a
    /// WAL file at all.
    BadMagic {
        /// The path involved.
        path: PathBuf,
    },
    /// The file is a WAL segment or checkpoint of another on-disk format
    /// version, which this build does not read: its magic differs from
    /// [`WAL_MAGIC`] or [`CHECKPOINT_MAGIC`] only in the version byte.
    /// Recovery stops on it and leaves every file as it was.
    UnsupportedVersion {
        /// The file.
        path: PathBuf,
        /// The magic the file starts with.
        magic: [u8; 8],
    },
    /// A record's header or payload extends past the end of the file:
    /// a torn write or truncation. `have` bytes remained where `need`
    /// were promised.
    TruncatedRecord {
        /// Byte offset of the record's header.
        offset: u64,
        /// Bytes actually remaining in the file.
        have: u64,
        /// Bytes the header (or header itself) required.
        need: u64,
    },
    /// A record's payload no longer matches its stored checksum: a
    /// bit flip or partial overwrite.
    ChecksumMismatch {
        /// Byte offset of the record's header.
        offset: u64,
    },
    /// A checkpoint file failed validation (bad magic, torn header,
    /// length or checksum mismatch).
    CorruptCheckpoint {
        /// The checkpoint file.
        path: PathBuf,
        /// What failed.
        reason: &'static str,
    },
    /// The segment chain lacks records `from..to` (numbered from the
    /// log's creation): a replay would have to start before the oldest
    /// surviving segment, or a segment is missing or holds fewer
    /// records than its name promises.
    ChainGap {
        /// First missing record.
        from: u64,
        /// One past the last missing record.
        to: u64,
    },
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurabilityError::Io { op, path, detail } => {
                write!(f, "{op} failed on {}: {detail}", path.display())
            }
            DurabilityError::BadMagic { path } => {
                write!(f, "{} is not a recognized durable file", path.display())
            }
            DurabilityError::UnsupportedVersion { path, magic } => write!(
                f,
                "{} is in on-disk format version {}, which this build does not read \
                 (it reads only version {})",
                path.display(),
                char::from(magic[7]).escape_default(),
                char::from(WAL_MAGIC[7]),
            ),
            DurabilityError::TruncatedRecord { offset, have, need } => write!(
                f,
                "truncated record at offset {offset}: {have} bytes remain where {need} were promised"
            ),
            DurabilityError::ChecksumMismatch { offset } => {
                write!(f, "record checksum mismatch at offset {offset}")
            }
            DurabilityError::CorruptCheckpoint { path, reason } => {
                write!(f, "corrupt checkpoint {}: {reason}", path.display())
            }
            DurabilityError::ChainGap { from, to } => {
                write!(f, "log records {from}..{to} are missing from the segment chain")
            }
        }
    }
}

impl Error for DurabilityError {}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> DurabilityError {
    DurabilityError::Io {
        op,
        path: path.to_path_buf(),
        detail: e.to_string(),
    }
}

/// Makes the directory entries of `dir` durable: a rename or create is
/// only on stable storage once its directory has been fsynced.
fn sync_dir(dir: &Path) -> Result<(), DurabilityError> {
    #[cfg(unix)]
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("fsync dir", dir, &e))?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// The directory holding `path` (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    path.parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."))
}

/// Whether `magic` is `expected` in another format version: the same
/// seven-byte family name, a different version byte.
fn other_version(magic: &[u8; 8], expected: &[u8; 8]) -> bool {
    magic[..7] == expected[..7] && magic[7] != expected[7]
}

/// Creates (or truncates) a log file holding only the magic prefix.
fn create_log_file(path: &Path) -> Result<File, DurabilityError> {
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
        .map_err(|e| io_err("create", path, &e))?;
    file.write_all(&WAL_MAGIC)
        .map_err(|e| io_err("write magic", path, &e))?;
    Ok(file)
}

/// [`create_log_file`] with the magic prefix fsynced: the one record-free
/// fsync a fresh segment makes inline rather than on the syncer.
fn create_synced_log_file(path: &Path) -> Result<File, DurabilityError> {
    let file = create_log_file(path)?;
    file.sync_data().map_err(|e| io_err("fsync", path, &e))?;
    Ok(file)
}

/// The live segment: the file a [`WalWriter`] appends to and its syncer
/// fsyncs, with the path errors name.
#[derive(Debug)]
struct LiveFile {
    file: File,
    path: PathBuf,
}

/// What a writer, its syncer thread and every [`Watermark`] share.
struct SyncState {
    /// The live segment as the syncer fsyncs it; [`WalWriter::seal`]
    /// swaps it.
    live: Arc<LiveFile>,
    /// One past the last record written to the file: the next fsync
    /// covers every record below it.
    requested: u64,
    /// One past the last record on stable storage — the watermark.
    durable: u64,
    /// The first failed group write or fsync. Sticky: the watermark
    /// stops, and every waiter and every later append or sync gets it.
    failed: Option<DurabilityError>,
    /// The writer is gone: the syncer exits once `requested` is durable.
    closed: bool,
    /// fdatasyncs completed.
    fsyncs: u64,
    /// Hears the duration of each completed fdatasync.
    hook: Option<Arc<dyn Fn(Duration) + Send + Sync>>,
}

struct SyncShared {
    state: Mutex<SyncState>,
    /// Wakes the syncer: a sync was requested, or the writer closed.
    requests: Condvar,
    /// Wakes waiters: the watermark moved, a write or fsync failed, or
    /// the writer closed.
    progress: Condvar,
    /// Stands in for `File::sync_data` in unit tests.
    #[cfg(test)]
    fake_fsync: Mutex<Option<FakeFsync>>,
}

#[cfg(test)]
type FakeFsync = Box<dyn FnMut(&File) -> std::io::Result<()> + Send>;

impl SyncShared {
    fn new(live: Arc<LiveFile>, durable: u64) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SyncState {
                live,
                requested: durable,
                durable,
                failed: None,
                closed: false,
                fsyncs: 0,
                hook: None,
            }),
            requests: Condvar::new(),
            progress: Condvar::new(),
            #[cfg(test)]
            fake_fsync: Mutex::new(None),
        })
    }

    /// Every update under this lock stores one field (or a counter with
    /// the watermark it counts), and no code under it can panic, so a
    /// poisoned lock still guards a consistent state.
    fn lock(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn fdatasync(&self, file: &File) -> std::io::Result<()> {
        #[cfg(test)]
        if let Some(fake) = self
            .fake_fsync
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_mut()
        {
            return fake(file);
        }
        file.sync_data()
    }

    /// The sticky failure, if there is one.
    fn check(&self) -> Result<(), DurabilityError> {
        self.lock().failed.clone().map_or(Ok(()), Err)
    }

    /// Records `error` as the sticky failure (unless an earlier one is
    /// already recorded) and returns the one recorded.
    fn fail(&self, error: DurabilityError) -> DurabilityError {
        let error = self.lock().failed.get_or_insert(error).clone();
        self.progress.notify_all();
        error
    }

    /// Blocks until records below `upto` are durable (see
    /// [`Watermark::wait`]).
    fn wait(&self, upto: u64) -> Result<(), DurabilityError> {
        let mut state = self.lock();
        loop {
            if state.durable >= upto {
                return Ok(());
            }
            if let Some(e) = &state.failed {
                return Err(e.clone());
            }
            if state.closed && state.durable >= state.requested {
                return Err(DurabilityError::Io {
                    op: "wait",
                    path: state.live.path.clone(),
                    detail: format!(
                        "the writer closed with records {}..{upto} unwritten",
                        state.durable
                    ),
                });
            }
            state = self
                .progress
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The syncer thread: one fdatasync at a time, each covering every
    /// record written before it began, until the writer closes and its
    /// last request is durable, or a sync fails.
    fn run(&self) {
        let mut state = self.lock();
        loop {
            while state.requested <= state.durable && !state.closed && state.failed.is_none() {
                state = self
                    .requests
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            if state.requested <= state.durable || state.failed.is_some() {
                return;
            }
            let (upto, live, hook) = (state.requested, Arc::clone(&state.live), state.hook.clone());
            drop(state);
            let start = Instant::now();
            let synced = self.fdatasync(&live.file);
            if let (Ok(()), Some(hook)) = (&synced, &hook) {
                hook(start.elapsed());
            }
            state = self.lock();
            match synced {
                Ok(()) => {
                    state.durable = upto;
                    state.fsyncs += 1;
                }
                // Never retried: after a failed fsync the kernel may
                // already have dropped the dirty pages, so a second one
                // could succeed for data that is gone.
                Err(e) => state.failed = Some(io_err("fsync", &live.path, &e)),
            }
            self.progress.notify_all();
        }
    }
}

/// A cloneable handle on a log's durable watermark: how many records,
/// numbered from the log's creation as a [`SegmentedLog`] numbers them,
/// are on stable storage. Any thread may read it or wait on it without
/// the [`WalWriter`] that owns the log.
#[derive(Clone)]
pub struct Watermark(Arc<SyncShared>);

impl fmt::Debug for Watermark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.0.lock();
        f.debug_struct("Watermark")
            .field("requested", &state.requested)
            .field("durable", &state.durable)
            .field("failed", &state.failed)
            .finish()
    }
}

impl Watermark {
    /// Records below this number are on stable storage. It only grows,
    /// and stops for good at a failed group write or fsync.
    #[must_use]
    pub fn durable(&self) -> u64 {
        self.0.lock().durable
    }

    /// Records below this number have been written to the file and their
    /// fsync requested, so the watermark reaches it unless a sync fails.
    /// Records past it are still staged in the writer.
    #[must_use]
    pub fn requested(&self) -> u64 {
        self.0.lock().requested
    }

    /// Blocks until records below `upto` are on stable storage. Waiting
    /// past [`requested`](Self::requested) blocks until the writer writes
    /// those records ([`WalWriter::request_sync`] does so at once).
    ///
    /// # Errors
    ///
    /// The writer's sticky failure once there is one and `upto` is not
    /// yet durable: [`DurabilityError::Io`] with `op` `"fsync"` (or
    /// `"append"` for a failed group write) naming the segment. A writer
    /// dropped with records below `upto` still staged is an `Io` error
    /// with `op` `"wait"`.
    pub fn wait(&self, upto: u64) -> Result<(), DurabilityError> {
        self.0.wait(upto)
    }
}

/// An append-only write-ahead log file with group commit, whose fsyncs
/// run on a syncer thread.
///
/// Records are `u64 length ‖ u64 xxh64 ‖ payload`, big-endian, after an
/// 8-byte magic prefix. [`append`](WalWriter::append) stages each record
/// in a user-space buffer. When the writer's [`FlushPolicy`] says a
/// group is due, `append` writes the group to the file and requests its
/// fsync, without waiting for it. The syncer thread (one per writer,
/// started at the first group write and joined on drop) runs one
/// `fdatasync` at a time; each covers everything written before it
/// began, so requests that arrive while it runs share the next one. The
/// [`Watermark`] says which records are on stable storage, and
/// [`sync`](WalWriter::sync) writes the staged tail and waits for it.
/// Records reach the file, and then stable storage, strictly in append
/// order, so the on-disk log is always a prefix of the appended sequence.
///
/// A failed group write or fsync is sticky: the watermark stops there,
/// and every waiter and every later `append` or `sync` gets the error.
/// The fsync is never retried.
///
/// Dropping the writer deliberately does **not** write its staged
/// records: a process crash is exactly the event group commit trades
/// against, and the drop path models it — records already written to
/// the file survive (the syncer finishes their fsync before it is
/// joined), staged ones do not. It must not be *silent*, though: a
/// writer dropped with a non-empty buffer fires its [drop
/// hook](WalWriter::set_drop_hook) so the owner can count the discarded
/// records instead of discovering the gap at the next recovery.
pub struct WalWriter {
    live: Arc<LiveFile>,
    /// The number, from the log's creation, of the live file's first
    /// record.
    first: u64,
    len: u64,
    records: u64,
    policy: FlushPolicy,
    buf: Vec<u8>,
    buffered_records: u64,
    flushes: u64,
    sync: Arc<SyncShared>,
    /// The syncer thread, started at the first group write.
    syncer: Option<JoinHandle<()>>,
    /// Called from `Drop` with `(buffered_records, buffered_bytes)`
    /// when the writer dies holding staged records.
    drop_hook: Option<Box<dyn FnMut(u64, u64) + Send + Sync>>,
}

impl fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.live.path)
            .field("first", &self.first)
            .field("len", &self.len)
            .field("records", &self.records)
            .field("policy", &self.policy)
            .field("buffered_records", &self.buffered_records)
            .field("flushes", &self.flushes)
            .field("watermark", &self.watermark())
            .field("drop_hook", &self.drop_hook.is_some())
            .finish()
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        if self.buffered_records > 0 {
            let (records, bytes) = (self.buffered_records, self.buf.len() as u64);
            if let Some(hook) = self.drop_hook.as_mut() {
                hook(records, bytes);
            }
        }
        self.sync.lock().closed = true;
        self.sync.requests.notify_one();
        if let Some(syncer) = self.syncer.take() {
            let _ = syncer.join();
        }
        self.sync.progress.notify_all();
    }
}

impl WalWriter {
    /// A writer over an open log file of `len` bytes holding `records`
    /// records, the first numbered `first`; all of them count as durable.
    fn open(file: File, path: PathBuf, first: u64, len: u64, records: u64) -> Self {
        let live = Arc::new(LiveFile { file, path });
        Self {
            sync: SyncShared::new(Arc::clone(&live), first + records),
            live,
            first,
            len,
            records,
            policy: FlushPolicy::default(),
            buf: Vec::new(),
            buffered_records: 0,
            flushes: 0,
            syncer: None,
            drop_hook: None,
        }
    }

    /// Creates (or truncates) a WAL file and writes the magic prefix.
    /// The writer starts under [`FlushPolicy::PerRecord`]; use
    /// [`with_flush_policy`](WalWriter::with_flush_policy) or
    /// [`set_flush_policy`](WalWriter::set_flush_policy) to opt into
    /// group commit. The prefix reaches stable storage with the first
    /// group's fsync.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if the file cannot be created
    /// or the prefix written.
    pub fn create(path: impl Into<PathBuf>) -> Result<Self, DurabilityError> {
        let path = path.into();
        let file = create_log_file(&path)?;
        Ok(Self::open(file, path, 0, WAL_MAGIC.len() as u64, 0))
    }

    /// A fresh segment of a [`SegmentedLog`] whose first record will be
    /// numbered `first`, its magic prefix fsynced here.
    fn create_segment(path: PathBuf, first: u64) -> Result<Self, DurabilityError> {
        let file = create_synced_log_file(&path)?;
        Ok(Self::open(file, path, first, WAL_MAGIC.len() as u64, 0))
    }

    /// Reopens an existing WAL for appending after a tolerant scan:
    /// the file is truncated to the scan's last valid byte (discarding
    /// any torn tail, which could otherwise corrupt the *next* append
    /// by fusing with it) and positioned at the end.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if the file cannot be opened,
    /// truncated, or seeked.
    pub fn resume(path: impl Into<PathBuf>, scan: &WalScan) -> Result<Self, DurabilityError> {
        Self::resume_at(path.into(), scan.valid_len, 0, scan.records.len() as u64)
    }

    /// [`resume`](Self::resume) from a scan's summary: `valid_len`
    /// bytes holding `records` records, the first numbered `first`,
    /// stay; anything after goes.
    fn resume_at(
        path: PathBuf,
        valid_len: u64,
        first: u64,
        records: u64,
    ) -> Result<Self, DurabilityError> {
        let mut file = OpenOptions::new()
            .write(true)
            .read(true)
            .open(&path)
            .map_err(|e| io_err("open", &path, &e))?;
        file.set_len(valid_len)
            .map_err(|e| io_err("truncate torn tail", &path, &e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| io_err("seek", &path, &e))?;
        Ok(Self::open(file, path, first, valid_len, records))
    }

    /// Sets the flush policy, builder-style.
    #[must_use]
    pub fn with_flush_policy(mut self, policy: FlushPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the flush policy in place. Already-staged records keep
    /// waiting for the next group write (or explicit
    /// [`sync`](WalWriter::sync)); tightening the policy only governs
    /// subsequent appends.
    pub fn set_flush_policy(&mut self, policy: FlushPolicy) {
        self.policy = policy;
    }

    /// The active flush policy.
    #[must_use]
    pub fn flush_policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Installs a hook invoked from `Drop` with
    /// `(buffered_records, buffered_bytes)` when the writer is dropped
    /// while still holding staged records. Those records were accepted
    /// by [`append`](WalWriter::append) but never reached the file, so
    /// dropping them is silent data loss from the caller's perspective;
    /// the hook is the owner's chance to account for the discarded tail
    /// (e.g. bump an observability counter) instead of discovering the
    /// gap at the next recovery. The hook does not fire when the buffer
    /// is empty, and it cannot rescue the records — call
    /// [`sync`](WalWriter::sync) before dropping to keep them.
    pub fn set_drop_hook(&mut self, hook: impl FnMut(u64, u64) + Send + Sync + 'static) {
        self.drop_hook = Some(Box::new(hook));
    }

    /// Installs a hook the syncer thread calls after each fdatasync it
    /// completes, with that fdatasync's duration, before the watermark
    /// moves past it — so whoever a sync wakes already sees it counted.
    pub fn set_sync_hook(&mut self, hook: impl Fn(Duration) + Send + Sync + 'static) {
        self.sync.lock().hook = Some(Arc::new(hook));
    }

    /// Stages one record. If the writer's [`FlushPolicy`] says a group is
    /// due, the staged records are written to the file and their fsync
    /// requested; this never waits for an fsync. The record is durable
    /// once the [`Watermark`] passes it.
    ///
    /// # Errors
    ///
    /// Returns the writer's sticky failure (see [`Watermark::wait`]) —
    /// nothing is staged then — or a [`DurabilityError::Io`] for a group
    /// write that fails here, which becomes that failure (the file may
    /// hold a torn record, which the next tolerant scan will discard).
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DurabilityError> {
        self.sync.check()?;
        self.buf.reserve(RECORD_HEADER + payload.len());
        self.buf
            .extend_from_slice(&(payload.len() as u64).to_be_bytes());
        self.buf.extend_from_slice(&xxh64(payload).to_be_bytes());
        self.buf.extend_from_slice(payload);
        self.len += (RECORD_HEADER + payload.len()) as u64;
        self.records += 1;
        self.buffered_records += 1;
        if self
            .policy
            .due(self.buffered_records, self.buf.len() as u64)
        {
            self.write_group()?;
        }
        Ok(())
    }

    /// Writes the staged records to the file as one group and requests
    /// their fsync, without waiting for it: a no-op when nothing is
    /// staged.
    ///
    /// # Errors
    ///
    /// As [`append`](Self::append).
    pub fn request_sync(&mut self) -> Result<(), DurabilityError> {
        self.sync.check()?;
        self.write_group()
    }

    /// Writes the staged records, requests their fsync and waits until
    /// everything appended so far is on stable storage. Waits for no
    /// fsync when everything appended is already durable.
    ///
    /// # Errors
    ///
    /// Returns the sticky failure, or the error of the write or fsync
    /// that fails now.
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        self.request_sync()?;
        self.sync.wait(self.first + self.records)
    }

    /// Writes the staged group and hands its fsync to the syncer,
    /// starting the thread at the first group.
    fn write_group(&mut self) -> Result<(), DurabilityError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let path = &self.live.path;
        if let Err(e) = (&self.live.file).write_all(&self.buf) {
            return Err(self.sync.fail(io_err("append", path, &e)));
        }
        self.buf.clear();
        self.buffered_records = 0;
        self.flushes += 1;
        if self.syncer.is_none() {
            let sync = Arc::clone(&self.sync);
            let syncer = std::thread::Builder::new()
                .name("vcps-wal-syncer".into())
                .spawn(move || sync.run())
                .map_err(|e| self.sync.fail(io_err("start syncer", path, &e)))?;
            self.syncer = Some(syncer);
        }
        self.sync.lock().requested = self.first + self.records;
        self.sync.requests.notify_one();
        Ok(())
    }

    /// Closes this file as a sealed segment of a [`SegmentedLog`] and
    /// continues in a fresh, empty file at the same path. The sealed
    /// file is renamed to carry its record range, numbered from the
    /// log's creation.
    ///
    /// Everything appended is made durable first. The fresh file's magic
    /// is fsynced and then the directory, so the rename and the new file
    /// are durable together: a crash leaves either the unsealed file, or
    /// the sealed segment with or without its empty successor — never a
    /// record outside the chain.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] on a write, rename, create or
    /// fsync failure. If the fresh file cannot be created the rename is
    /// undone, so later appends still land in the file the name covers.
    pub fn seal(&mut self) -> Result<(), DurabilityError> {
        self.sync()?;
        let end = self.first + self.records;
        let path = self.live.path.clone();
        let sealed = path.with_file_name(segments::sealed_name(self.first, end));
        fs::rename(&path, &sealed).map_err(|e| io_err("seal", &sealed, &e))?;
        let file = match create_synced_log_file(&path) {
            Ok(file) => file,
            Err(e) => {
                let _ = fs::rename(&sealed, &path);
                return Err(e);
            }
        };
        let live = Arc::new(LiveFile { file, path });
        self.sync.lock().live = Arc::clone(&live);
        self.live = live;
        self.first = end;
        self.len = WAL_MAGIC.len() as u64;
        self.records = 0;
        sync_dir(parent_dir(&self.live.path))
    }

    /// Records in this file (including those found by a resume scan and
    /// those still staged in the group-commit buffer).
    #[must_use]
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Group writes so far: each wrote the staged records to the file
    /// and requested their fsync.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// fdatasyncs the syncer has completed — the metric group commit
    /// exists to shrink. At most one per group write; fewer when
    /// requests arrive while a sync runs and share the next one.
    #[must_use]
    pub fn fsyncs(&self) -> u64 {
        self.sync.lock().fsyncs
    }

    /// This log's durable watermark, as a handle any thread may wait on.
    #[must_use]
    pub fn watermark(&self) -> Watermark {
        Watermark(Arc::clone(&self.sync))
    }

    /// Records currently staged in the group-commit buffer — appended,
    /// but not yet written to the file. A crash now loses at least
    /// these.
    #[must_use]
    pub fn buffered_records(&self) -> u64 {
        self.buffered_records
    }

    /// Bytes currently staged in the group-commit buffer (record
    /// headers included).
    #[must_use]
    pub fn buffered_bytes(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Logical log length in bytes (magic prefix and staged records
    /// included). After [`sync`](WalWriter::sync) this equals the file
    /// length on disk.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when no record has been appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The log file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.live.path
    }

    /// Replaces every fdatasync the syncer runs from now on.
    #[cfg(test)]
    fn fake_fsync(&self, fsync: impl FnMut(&File) -> std::io::Result<()> + Send + 'static) {
        *self
            .sync
            .fake_fsync
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(Box::new(fsync));
    }
}

/// The result of a tolerant WAL scan ([`read_wal`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Every record that validated, in append order.
    pub records: Vec<Vec<u8>>,
    /// Byte length of the valid prefix (where appends may resume).
    pub valid_len: u64,
    /// Why the scan stopped early, if it did: the first torn,
    /// truncated, or checksum-failing record. `None` means the file
    /// ended exactly on a record boundary.
    pub tail_error: Option<DurabilityError>,
}

/// Scans a WAL file, stopping at the first record that fails to
/// validate, and collects every valid record — the collecting form of
/// the one streaming scanner that [`SegmentedLog::scan`] also runs.
///
/// Corruption is *not* a scan failure: torn writes and bit flips are
/// exactly what a crash leaves behind, so they come back as
/// [`WalScan::tail_error`] alongside every record before them. Only a
/// missing/unreadable file or a wrong magic prefix — cases where there
/// is no valid prefix to recover — are hard errors.
///
/// # Errors
///
/// Returns [`DurabilityError::Io`] if the file cannot be read,
/// [`DurabilityError::UnsupportedVersion`] if it is a WAL of another
/// format version, and [`DurabilityError::BadMagic`] if it is not a WAL
/// file at all (including a file shorter than the magic prefix).
pub fn read_wal(path: impl AsRef<Path>) -> Result<WalScan, DurabilityError> {
    let mut records = Vec::new();
    let end = scan_file(path.as_ref(), u64::MAX, |_, payload| {
        records.push(payload.to_vec());
        Ok::<(), DurabilityError>(())
    })?;
    Ok(WalScan {
        records,
        valid_len: end.valid_len,
        tail_error: end.tail_error,
    })
}

/// Where [`scan_file`] stopped in one log file.
#[derive(Debug)]
struct FileScan {
    /// Valid records visited.
    records: u64,
    /// Byte length of the valid prefix.
    valid_len: u64,
    /// Bytes read from the file.
    read: u64,
    /// The file's length when the scan opened it.
    file_len: u64,
    /// Why the scan stopped before the end of the file, if it did.
    tail_error: Option<DurabilityError>,
}

/// The WAL scanner: streams the records of the log file at `path`
/// through `visit` (with each record's position in the file), checksum
/// first, stopping after `limit` records or at the first record that
/// fails to validate. The payload is borrowed from one reused buffer,
/// so memory stays at one record however long the file is.
fn scan_file<E: From<DurabilityError>>(
    path: &Path,
    limit: u64,
    mut visit: impl FnMut(u64, &[u8]) -> Result<(), E>,
) -> Result<FileScan, E> {
    let read_err = |e: &std::io::Error| io_err("read", path, e);
    let file = File::open(path).map_err(|e| read_err(&e))?;
    let file_len = file.metadata().map_err(|e| read_err(&e))?.len();
    let bad_magic = || DurabilityError::BadMagic {
        path: path.to_path_buf(),
    };
    if file_len < WAL_MAGIC.len() as u64 {
        return Err(bad_magic().into());
    }
    let mut reader = BufReader::with_capacity(SCAN_BUFFER, file);
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic).map_err(|e| read_err(&e))?;
    if other_version(&magic, &WAL_MAGIC) {
        return Err(DurabilityError::UnsupportedVersion {
            path: path.to_path_buf(),
            magic,
        }
        .into());
    }
    if magic != WAL_MAGIC {
        return Err(bad_magic().into());
    }
    let mut scan = FileScan {
        records: 0,
        valid_len: WAL_MAGIC.len() as u64,
        read: WAL_MAGIC.len() as u64,
        file_len,
        tail_error: None,
    };
    let mut payload = Vec::new();
    while scan.records < limit {
        let offset = scan.valid_len;
        let rest = file_len - offset;
        if rest == 0 {
            break;
        }
        if rest < RECORD_HEADER as u64 {
            scan.tail_error = Some(DurabilityError::TruncatedRecord {
                offset,
                have: rest,
                need: RECORD_HEADER as u64,
            });
            break;
        }
        let mut header = [0u8; RECORD_HEADER];
        reader.read_exact(&mut header).map_err(|e| read_err(&e))?;
        scan.read += RECORD_HEADER as u64;
        let len = u64::from_be_bytes(header[..8].try_into().expect("8-byte slice"));
        let checksum = u64::from_be_bytes(header[8..].try_into().expect("8-byte slice"));
        // `len` comes straight off disk: compare against the remaining
        // byte count (no addition, no overflow) before allocating. A bit
        // flip in the length field lands here too — indistinguishable
        // from truncation, and handled the same way.
        let body = rest - RECORD_HEADER as u64;
        let Some(size) = (len <= body).then(|| usize::try_from(len).ok()).flatten() else {
            scan.tail_error = Some(DurabilityError::TruncatedRecord {
                offset,
                have: body,
                need: len,
            });
            break;
        };
        payload.clear();
        payload.resize(size, 0);
        reader.read_exact(&mut payload).map_err(|e| read_err(&e))?;
        scan.read += len;
        if xxh64(&payload) != checksum {
            scan.tail_error = Some(DurabilityError::ChecksumMismatch { offset });
            break;
        }
        visit(scan.records, &payload)?;
        scan.records += 1;
        scan.valid_len = offset + RECORD_HEADER as u64 + len;
    }
    Ok(scan)
}

/// One validated checkpoint, as returned by
/// [`CheckpointStore::latest_valid`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The publisher's sequence number (the WAL record count covered,
    /// in `vcps-sim`'s usage).
    pub seq: u64,
    /// The opaque snapshot payload.
    pub payload: Vec<u8>,
}

/// A directory of checkpoint files, published atomically and selected
/// by highest validating sequence number.
///
/// File layout: `magic(8) ‖ seq(8) ‖ payload_len(8) ‖ xxh64(8) ‖
/// payload`, big-endian. Publication writes to a `.tmp` name, fsyncs,
/// then renames into place — a crash mid-publish leaves only the temp
/// file, which the reader ignores.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, DurabilityError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create checkpoint dir", &dir, &e))?;
        Ok(Self { dir })
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_name(seq: u64) -> String {
        // Zero-padded so lexicographic directory order is seq order.
        format!("ckpt-{seq:020}.bin")
    }

    /// Every checkpoint file (`tmp: false`) and leftover publish temp
    /// file (`tmp: true`) in the store, by the seq in its name, oldest
    /// first. Names that do not parse are not the store's and are left
    /// alone.
    fn entries(&self) -> Result<Vec<CheckpointFile>, DurabilityError> {
        let listing = fs::read_dir(&self.dir).map_err(|e| io_err("list", &self.dir, &e))?;
        let mut files: Vec<CheckpointFile> = listing
            .filter_map(Result::ok)
            .filter_map(|entry| {
                let name = entry.file_name();
                let name = name.to_str()?.strip_prefix("ckpt-")?;
                let (seq, tmp) = match name.strip_suffix(".bin.tmp") {
                    Some(seq) => (seq, true),
                    None => (name.strip_suffix(".bin")?, false),
                };
                Some(CheckpointFile {
                    seq: seq.parse().ok()?,
                    tmp,
                    path: entry.path(),
                })
            })
            .collect();
        files.sort_unstable_by_key(|f| (f.seq, f.tmp));
        Ok(files)
    }

    /// Atomically publishes a checkpoint payload under sequence `seq`,
    /// returning its final path. An existing checkpoint with the same
    /// sequence is replaced. The payload is fsynced before the rename
    /// and the directory after it, so the checkpoint is on stable
    /// storage when this returns.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] on any write, fsync, or rename
    /// failure.
    pub fn publish(&self, seq: u64, payload: &[u8]) -> Result<PathBuf, DurabilityError> {
        let tmp = self.dir.join(format!("{}.tmp", Self::file_name(seq)));
        let target = self.dir.join(Self::file_name(seq));
        let mut bytes = Vec::with_capacity(CHECKPOINT_HEADER + payload.len());
        bytes.extend_from_slice(&CHECKPOINT_MAGIC);
        bytes.extend_from_slice(&seq.to_be_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_be_bytes());
        bytes.extend_from_slice(&xxh64(payload).to_be_bytes());
        bytes.extend_from_slice(payload);
        {
            let mut file = File::create(&tmp).map_err(|e| io_err("create", &tmp, &e))?;
            file.write_all(&bytes)
                .map_err(|e| io_err("write", &tmp, &e))?;
            file.sync_data().map_err(|e| io_err("fsync", &tmp, &e))?;
        }
        fs::rename(&tmp, &target).map_err(|e| io_err("rename", &target, &e))?;
        sync_dir(&self.dir)?;
        Ok(target)
    }

    /// Validates and decodes one checkpoint file.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if the file cannot be read,
    /// [`DurabilityError::UnsupportedVersion`] if it is a checkpoint of
    /// another format version, or [`DurabilityError::CorruptCheckpoint`]
    /// naming what failed.
    pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, DurabilityError> {
        let path = path.as_ref();
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| io_err("read", path, &e))?;
        let corrupt = |reason: &'static str| DurabilityError::CorruptCheckpoint {
            path: path.to_path_buf(),
            reason,
        };
        if bytes.len() < CHECKPOINT_HEADER {
            return Err(corrupt("truncated header"));
        }
        let magic: [u8; 8] = bytes[..8].try_into().expect("8-byte slice");
        if other_version(&magic, &CHECKPOINT_MAGIC) {
            return Err(DurabilityError::UnsupportedVersion {
                path: path.to_path_buf(),
                magic,
            });
        }
        if magic != CHECKPOINT_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let seq = u64::from_be_bytes(bytes[8..16].try_into().expect("8-byte slice"));
        let len = u64::from_be_bytes(bytes[16..24].try_into().expect("8-byte slice"));
        let checksum = u64::from_be_bytes(bytes[24..32].try_into().expect("8-byte slice"));
        let payload = &bytes[CHECKPOINT_HEADER..];
        if len != payload.len() as u64 {
            return Err(corrupt("payload length mismatch"));
        }
        if xxh64(payload) != checksum {
            return Err(corrupt("payload checksum mismatch"));
        }
        Ok(Checkpoint {
            seq,
            payload: payload.to_vec(),
        })
    }

    /// Every checkpoint that validates, newest first, each loaded only
    /// when the iterator reaches it. Corrupt, torn, or temp files are
    /// skipped, as is a file whose header seq disagrees with its name.
    /// A file of another on-disk format version is not damage: it comes
    /// back as [`DurabilityError::UnsupportedVersion`], since skipping it
    /// would let a caller fall back past state it cannot read.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] only if the directory itself
    /// cannot be listed.
    pub fn valid_newest_first(
        &self,
    ) -> Result<impl Iterator<Item = Result<Checkpoint, DurabilityError>>, DurabilityError> {
        let files = self.entries()?;
        Ok(files
            .into_iter()
            .rev()
            .filter(|f| !f.tmp)
            .filter_map(|f| match Self::load(&f.path) {
                Ok(checkpoint) => (checkpoint.seq == f.seq).then_some(Ok(checkpoint)),
                Err(e @ DurabilityError::UnsupportedVersion { .. }) => Some(Err(e)),
                Err(_) => None,
            }))
    }

    /// The newest checkpoint that validates, or `None` if the store
    /// holds no valid checkpoint at all. Corrupt, torn, or temp files
    /// are skipped (recovery falls back to the previous checkpoint and
    /// a longer WAL replay — never to corrupt state).
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if the directory cannot be
    /// listed, and [`DurabilityError::UnsupportedVersion`] if the newest
    /// checkpoint file that is not damaged is of another format version.
    pub fn latest_valid(&self) -> Result<Option<Checkpoint>, DurabilityError> {
        self.valid_newest_first()?.next().transpose()
    }

    /// Deletes every checkpoint (and publish temp file) whose seq is
    /// above `seq`. Recovery calls this for the checkpoints newer than
    /// the one it restored: they are corrupt or ahead of the surviving
    /// log, and once appends resume they would describe records that no
    /// longer exist.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if the directory cannot be listed
    /// or a file cannot be removed.
    pub fn retire_newer_than(&self, seq: u64) -> Result<(), DurabilityError> {
        let newer: Vec<_> = self
            .entries()?
            .into_iter()
            .filter(|f| f.seq > seq)
            .collect();
        for file in &newer {
            remove_file(&file.path)?;
        }
        if newer.is_empty() {
            Ok(())
        } else {
            sync_dir(&self.dir)
        }
    }

    /// Deletes every checkpoint and publish temp file in the store.
    ///
    /// # Errors
    ///
    /// As [`retire_newer_than`](Self::retire_newer_than).
    pub fn clear(&self) -> Result<(), DurabilityError> {
        for file in self.entries()? {
            remove_file(&file.path)?;
        }
        sync_dir(&self.dir)
    }
}

/// One file of a [`CheckpointStore`], identified by its name.
#[derive(Debug)]
struct CheckpointFile {
    seq: u64,
    tmp: bool,
    path: PathBuf,
}

/// Removes a file; one that is already gone counts as removed.
fn remove_file(path: &Path) -> Result<(), DurabilityError> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(io_err("remove", path, &e)),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vcps-durable-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn xxh64_matches_reference_vectors() {
        // Published seed-0 XXH64 vectors: the empty input, one 1-byte
        // tail run, and 39 B (one stripe, then the 4-byte and 1-byte
        // tails).
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
        // Bytes 0, 1, 2, ... of the given length, against the reference
        // C implementation (xxHash 0.8.1): the 8-byte tail loop alone
        // (8, 12), after a stripe with every tail (47), and two stripes
        // with no tail (64).
        let counting = |len: u8| (0..len).collect::<Vec<u8>>();
        assert_eq!(xxh64(&counting(8)), 0x884A_1736_14B8_1B8D);
        assert_eq!(xxh64(&counting(12)), 0x424A_F23F_1F08_DCA5);
        assert_eq!(xxh64(&counting(47)), 0x0D98_83A0_3E7B_FBB8);
        assert_eq!(xxh64(&counting(64)), 0xF7C6_7301_DB67_13F0);
    }

    /// A log or checkpoint of another format version is refused by name
    /// with the magic it carries — never scanned as damage, never
    /// skipped — and reading it changes nothing.
    #[test]
    fn other_format_versions_are_refused_not_read() {
        let dir = temp_dir("version");
        let wal = dir.join("frames.wal");
        let mut v1 = b"VCPSWAL1".to_vec();
        v1.extend_from_slice(&3u64.to_be_bytes());
        v1.extend_from_slice(&fnv1a_64(b"abc").to_be_bytes());
        v1.extend_from_slice(b"abc");
        fs::write(&wal, &v1).unwrap();
        assert_eq!(
            read_wal(&wal),
            Err(DurabilityError::UnsupportedVersion {
                path: wal.clone(),
                magic: *b"VCPSWAL1",
            })
        );
        assert_eq!(fs::read(&wal).unwrap(), v1);

        let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
        store.publish(1, b"current").unwrap();
        let old = store.dir().join(CheckpointStore::file_name(2));
        let mut ckpt = b"VCPSCKP1".to_vec();
        for v in [2, 3, fnv1a_64(b"old")] {
            ckpt.extend_from_slice(&u64::to_be_bytes(v));
        }
        ckpt.extend_from_slice(b"old");
        fs::write(&old, &ckpt).unwrap();
        let err = CheckpointStore::load(&old).unwrap_err();
        assert_eq!(
            err,
            DurabilityError::UnsupportedVersion {
                path: old.clone(),
                magic: *b"VCPSCKP1",
            }
        );
        let message = err.to_string();
        assert!(
            message.contains("ckpt-") && message.contains("version 1"),
            "{message}"
        );
        // The newest file is of another version: the store does not
        // fall back past it to checkpoint 1.
        assert_eq!(store.latest_valid(), Err(err));
        assert_eq!(fs::read(&old).unwrap(), ckpt);
        // Any other magic is still damage, and skipped.
        fs::write(&old, b"NOTACKPT-and-some-more-bytes-to-fill-a-header").unwrap();
        assert_eq!(store.latest_valid().unwrap().unwrap().seq, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_round_trips_records_in_order() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("frames.wal");
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1], vec![2; 300], b"hello".to_vec()];
        let mut writer = WalWriter::create(&path).unwrap();
        for p in &payloads {
            writer.append(p).unwrap();
        }
        writer.sync().unwrap();
        assert_eq!(writer.record_count(), 4);
        assert!(!writer.is_empty());
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, payloads);
        assert_eq!(scan.tail_error, None);
        assert_eq!(scan.valid_len, writer.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_hook_fires_only_when_records_are_buffered() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let dir = temp_dir("drophook");
        let path = dir.join("frames.wal");
        let dropped_records = Arc::new(AtomicU64::new(0));
        let dropped_bytes = Arc::new(AtomicU64::new(0));

        // Dropping with unflushed records fires the hook with the
        // buffered tail's size.
        let mut writer = WalWriter::create(&path)
            .unwrap()
            .with_flush_policy(FlushPolicy::Manual);
        let (r, b) = (Arc::clone(&dropped_records), Arc::clone(&dropped_bytes));
        writer.set_drop_hook(move |records, bytes| {
            r.fetch_add(records, Ordering::SeqCst);
            b.fetch_add(bytes, Ordering::SeqCst);
        });
        writer.append(b"lost-one").unwrap();
        writer.append(b"lost-two").unwrap();
        let expected_bytes = writer.buffered_bytes();
        drop(writer);
        assert_eq!(dropped_records.load(Ordering::SeqCst), 2);
        assert_eq!(dropped_bytes.load(Ordering::SeqCst), expected_bytes);

        // A synced writer drops silently: nothing was discarded.
        let scan = read_wal(&path).unwrap();
        let mut writer = WalWriter::resume(&path, &scan)
            .unwrap()
            .with_flush_policy(FlushPolicy::Manual);
        let r = Arc::clone(&dropped_records);
        writer.set_drop_hook(move |records, _| {
            r.fetch_add(records, Ordering::SeqCst);
        });
        writer.append(b"kept").unwrap();
        writer.sync().unwrap();
        drop(writer);
        assert_eq!(dropped_records.load(Ordering::SeqCst), 2);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_wal_scans_clean() {
        let dir = temp_dir("empty");
        let path = dir.join("frames.wal");
        let writer = WalWriter::create(&path).unwrap();
        assert!(writer.is_empty());
        let scan = read_wal(&path).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.tail_error, None);
        assert_eq!(scan.valid_len, WAL_MAGIC.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_and_bad_magic_are_hard_errors() {
        let dir = temp_dir("magic");
        assert!(matches!(
            read_wal(dir.join("absent.wal")),
            Err(DurabilityError::Io { op: "read", .. })
        ));
        let not_wal = dir.join("not.wal");
        fs::write(&not_wal, b"something else entirely").unwrap();
        assert!(matches!(
            read_wal(&not_wal),
            Err(DurabilityError::BadMagic { .. })
        ));
        let short = dir.join("short.wal");
        fs::write(&short, b"VC").unwrap();
        assert!(matches!(
            read_wal(&short),
            Err(DurabilityError::BadMagic { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A WAL truncated at *every* possible byte boundary recovers
    /// exactly the records whose bytes fully survived — never a
    /// partial record, never a panic.
    #[test]
    fn truncated_tails_recover_to_last_valid_record() {
        let dir = temp_dir("truncate");
        let path = dir.join("frames.wal");
        let payloads: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 10 + i as usize]).collect();
        let mut writer = WalWriter::create(&path).unwrap();
        let mut boundaries = vec![writer.len()];
        for p in &payloads {
            writer.append(p).unwrap();
            boundaries.push(writer.len());
        }
        writer.sync().unwrap();
        let full = fs::read(&path).unwrap();
        for cut in (WAL_MAGIC.len() as u64)..=(full.len() as u64) {
            fs::write(&path, &full[..cut as usize]).unwrap();
            let scan = read_wal(&path).unwrap();
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.records.len(), complete, "cut at {cut}");
            assert_eq!(scan.records, payloads[..complete].to_vec());
            assert_eq!(scan.valid_len, boundaries[complete]);
            if cut == boundaries[complete] {
                assert_eq!(scan.tail_error, None, "cut on boundary {cut}");
            } else {
                assert!(
                    matches!(
                        scan.tail_error,
                        Some(DurabilityError::TruncatedRecord { .. })
                    ),
                    "cut at {cut} must report a truncated record"
                );
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping any single bit in a record's payload or header stops
    /// the scan at (or before) that record with a typed error.
    #[test]
    fn bit_flips_are_caught_and_stop_the_scan() {
        let dir = temp_dir("bitflip");
        let path = dir.join("frames.wal");
        let payloads: Vec<Vec<u8>> = (0u8..3).map(|i| vec![i ^ 0x5A; 24]).collect();
        let mut writer = WalWriter::create(&path).unwrap();
        for p in &payloads {
            writer.append(p).unwrap();
        }
        writer.sync().unwrap();
        let full = fs::read(&path).unwrap();
        for byte in WAL_MAGIC.len()..full.len() {
            for bit in 0..8 {
                let mut corrupted = full.clone();
                corrupted[byte] ^= 1 << bit;
                fs::write(&path, &corrupted).unwrap();
                let scan = read_wal(&path).unwrap();
                assert!(
                    scan.tail_error.is_some(),
                    "flip at byte {byte} bit {bit} must be detected"
                );
                // Every surviving record is byte-identical to what was
                // written — corruption never leaks through.
                for (i, r) in scan.records.iter().enumerate() {
                    assert_eq!(r, &payloads[i], "flip at byte {byte} bit {bit}");
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_truncates_torn_tail_and_appends_cleanly() {
        let dir = temp_dir("resume");
        let path = dir.join("frames.wal");
        let mut writer = WalWriter::create(&path).unwrap();
        writer.append(b"alpha").unwrap();
        writer.append(b"beta").unwrap();
        writer.sync().unwrap();
        // Tear the second record.
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 2]).unwrap();
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, vec![b"alpha".to_vec()]);
        assert!(scan.tail_error.is_some());
        let mut resumed = WalWriter::resume(&path, &scan).unwrap();
        assert_eq!(resumed.record_count(), 1);
        resumed.append(b"gamma").unwrap();
        resumed.sync().unwrap();
        let rescan = read_wal(&path).unwrap();
        assert_eq!(rescan.records, vec![b"alpha".to_vec(), b"gamma".to_vec()]);
        assert_eq!(rescan.tail_error, None);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Per-record (default) policy: every append is flushed, so the
    /// on-disk log always matches the logical log.
    #[test]
    fn per_record_policy_flushes_every_append() {
        let dir = temp_dir("flush-per-record");
        let path = dir.join("frames.wal");
        let mut writer = WalWriter::create(&path).unwrap();
        assert_eq!(writer.flush_policy(), FlushPolicy::PerRecord);
        for i in 0u8..4 {
            writer.append(&[i; 9]).unwrap();
            assert_eq!(writer.buffered_records(), 0);
            assert_eq!(fs::metadata(&path).unwrap().len(), writer.len());
        }
        assert_eq!(writer.flushes(), 4);
        // A redundant sync with nothing new is a no-op, not an fsync.
        writer.sync().unwrap();
        assert_eq!(writer.flushes(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Manual policy: appends stay invisible to the file until an
    /// explicit sync, then everything lands at once.
    #[test]
    fn manual_policy_buffers_until_explicit_sync() {
        let dir = temp_dir("flush-manual");
        let path = dir.join("frames.wal");
        let mut writer = WalWriter::create(&path)
            .unwrap()
            .with_flush_policy(FlushPolicy::Manual);
        let payloads: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 7]).collect();
        for p in &payloads {
            writer.append(p).unwrap();
        }
        assert_eq!(writer.buffered_records(), 5);
        assert!(writer.buffered_bytes() > 0);
        assert_eq!(writer.flushes(), 0);
        // Only the magic prefix is on disk so far.
        assert_eq!(fs::metadata(&path).unwrap().len(), WAL_MAGIC.len() as u64);
        writer.sync().unwrap();
        assert_eq!(writer.buffered_records(), 0);
        assert_eq!(writer.buffered_bytes(), 0);
        assert_eq!(writer.flushes(), 1);
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, payloads);
        assert_eq!(scan.valid_len, writer.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// EveryRecords(n): one flush per n appends, and the on-disk log is
    /// always the longest flushed prefix.
    #[test]
    fn every_records_policy_groups_appends() {
        let dir = temp_dir("flush-every-records");
        let path = dir.join("frames.wal");
        let mut writer = WalWriter::create(&path)
            .unwrap()
            .with_flush_policy(FlushPolicy::EveryRecords(3));
        for i in 0u8..7 {
            writer.append(&[i; 5]).unwrap();
            let on_disk = read_wal(&path).unwrap().records.len() as u64;
            assert_eq!(on_disk, writer.record_count() - writer.buffered_records());
            assert_eq!(on_disk, (u64::from(i) + 1) / 3 * 3);
        }
        assert_eq!(writer.flushes(), 2);
        assert_eq!(writer.buffered_records(), 1);
        writer.sync().unwrap();
        assert_eq!(writer.flushes(), 3);
        assert_eq!(read_wal(&path).unwrap().records.len(), 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// EveryBytes(t): flushes trigger on buffered byte volume, headers
    /// included.
    #[test]
    fn every_bytes_policy_groups_by_volume() {
        let dir = temp_dir("flush-every-bytes");
        let path = dir.join("frames.wal");
        // Each record is 16 + 10 = 26 bytes; threshold 52 → flush every
        // second append.
        let mut writer = WalWriter::create(&path)
            .unwrap()
            .with_flush_policy(FlushPolicy::EveryBytes(52));
        writer.append(&[1; 10]).unwrap();
        assert_eq!(writer.buffered_records(), 1);
        assert_eq!(writer.flushes(), 0);
        writer.append(&[2; 10]).unwrap();
        assert_eq!(writer.buffered_records(), 0);
        assert_eq!(writer.flushes(), 1);
        // A single oversized record flushes immediately.
        writer.append(&[3; 100]).unwrap();
        assert_eq!(writer.buffered_records(), 0);
        assert_eq!(writer.flushes(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Dropping a writer with a buffered tail models a crash: exactly
    /// the unflushed records are lost, and the survivors are a clean
    /// prefix a resumed writer can extend.
    #[test]
    fn drop_without_sync_loses_exactly_the_buffered_tail() {
        let dir = temp_dir("flush-crash");
        let path = dir.join("frames.wal");
        let payloads: Vec<Vec<u8>> = (0u8..8).map(|i| vec![i; 12]).collect();
        {
            let mut writer = WalWriter::create(&path)
                .unwrap()
                .with_flush_policy(FlushPolicy::EveryRecords(3));
            for p in &payloads {
                writer.append(p).unwrap();
            }
            assert_eq!(writer.buffered_records(), 2);
            // Crash: drop without sync.
        }
        let scan = read_wal(&path).unwrap();
        assert_eq!(scan.records, payloads[..6].to_vec());
        assert_eq!(scan.tail_error, None, "a lost tail is not a torn tail");
        let mut resumed = WalWriter::resume(&path, &scan)
            .unwrap()
            .with_flush_policy(FlushPolicy::EveryRecords(3));
        assert_eq!(resumed.record_count(), 6);
        resumed.append(b"after-crash").unwrap();
        resumed.sync().unwrap();
        assert_eq!(read_wal(&path).unwrap().records.len(), 7);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Group writes that arrive while an fsync runs share the next one,
    /// and `append` never waits for an fsync.
    #[test]
    fn requests_during_a_sync_share_the_next_one() {
        use std::sync::mpsc;

        let dir = temp_dir("coalesce");
        let path = dir.join("frames.wal");
        let mut writer = WalWriter::create(&path).unwrap();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        writer.fake_fsync(move |file| {
            let _ = entered_tx.send(());
            let _ = release_rx.recv();
            file.sync_data()
        });
        let mark = writer.watermark();
        writer.append(b"a").unwrap();
        entered_rx.recv().unwrap();
        // The first fsync is running: three more group writes queue up.
        for record in [b"b", b"c", b"d"] {
            writer.append(record).unwrap();
        }
        assert_eq!(
            (writer.flushes(), mark.requested(), mark.durable()),
            (4, 4, 0)
        );
        release_tx.send(()).unwrap();
        // The second fsync covers all three.
        entered_rx.recv().unwrap();
        assert_eq!(mark.durable(), 1);
        release_tx.send(()).unwrap();
        mark.wait(4).unwrap();
        assert_eq!((writer.fsyncs(), writer.flushes()), (2, 4));
        // Nothing new: a sync waits for no fsync.
        writer.sync().unwrap();
        assert_eq!(writer.fsyncs(), 2);
        assert_eq!(read_wal(&path).unwrap().records.len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A failed fdatasync is typed and sticky: `sync` and every waiter
    /// get it, the watermark never passes the failed group, later
    /// appends and syncs get the same error, the fsync is never retried,
    /// and the file holds exactly what was written.
    #[test]
    fn failed_fsync_is_typed_sticky_and_never_retried() {
        use std::sync::atomic::{AtomicU64, Ordering};

        let dir = temp_dir("fsync-fails");
        let path = dir.join("frames.wal");
        let mut writer = WalWriter::create(&path)
            .unwrap()
            .with_flush_policy(FlushPolicy::EveryRecords(2));
        let mark = writer.watermark();
        writer.append(b"one").unwrap();
        writer.append(b"two").unwrap();
        mark.wait(2).unwrap();
        // Every fsync from here on fails.
        let calls = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&calls);
        writer.fake_fsync(move |_| {
            counted.fetch_add(1, Ordering::SeqCst);
            Err(std::io::Error::other("injected fsync failure"))
        });
        let waiter = {
            let mark = mark.clone();
            std::thread::spawn(move || mark.wait(4))
        };
        writer.append(b"three").unwrap();
        writer.append(b"four").unwrap();
        let err = writer.sync().unwrap_err();
        assert!(
            matches!(&err, DurabilityError::Io { op: "fsync", path: p, detail }
                if p == &path && detail.contains("injected")),
            "{err}"
        );
        assert_eq!(waiter.join().unwrap(), Err(err.clone()));
        assert_eq!(mark.wait(3), Err(err.clone()));
        assert_eq!(writer.append(b"five"), Err(err.clone()));
        assert_eq!(writer.request_sync(), Err(err.clone()));
        assert_eq!(writer.sync(), Err(err.clone()));
        assert_eq!((mark.durable(), mark.requested()), (2, 4));
        assert_eq!(writer.fsyncs(), 1);
        drop(writer);
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "a failed fsync is never retried"
        );
        let scan = read_wal(&path).unwrap();
        let written: Vec<Vec<u8>> = [&b"one"[..], b"two", b"three", b"four"]
            .iter()
            .map(|r| r.to_vec())
            .collect();
        assert_eq!(scan.records, written);
        assert_eq!(scan.tail_error, None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_store_publishes_and_selects_latest() {
        let dir = temp_dir("ckpt");
        let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
        assert_eq!(store.latest_valid().unwrap(), None);
        store.publish(1, b"one").unwrap();
        store.publish(10, b"ten").unwrap();
        store.publish(2, b"two").unwrap();
        let latest = store.latest_valid().unwrap().unwrap();
        assert_eq!(latest.seq, 10);
        assert_eq!(latest.payload, b"ten");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_latest_checkpoint_falls_back_to_previous() {
        let dir = temp_dir("ckpt-fallback");
        let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
        store.publish(1, b"good").unwrap();
        let newest = store.publish(2, b"newer").unwrap();
        // Flip a payload bit in the newest checkpoint.
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&newest, &bytes).unwrap();
        assert!(matches!(
            CheckpointStore::load(&newest),
            Err(DurabilityError::CorruptCheckpoint { .. })
        ));
        let latest = store.latest_valid().unwrap().unwrap();
        assert_eq!((latest.seq, latest.payload.as_slice()), (1, &b"good"[..]));
        // Truncate the newest below its header: still skipped.
        fs::write(&newest, CHECKPOINT_MAGIC).unwrap();
        assert_eq!(store.latest_valid().unwrap().unwrap().seq, 1);
        // A stray temp file (crash mid-publish) is ignored entirely.
        fs::write(dir.join("ckpt").join("ckpt-99.bin.tmp"), b"torn").unwrap();
        assert_eq!(store.latest_valid().unwrap().unwrap().seq, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_republish_replaces_same_seq() {
        let dir = temp_dir("ckpt-replace");
        let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
        store.publish(5, b"first").unwrap();
        store.publish(5, b"second").unwrap();
        let latest = store.latest_valid().unwrap().unwrap();
        assert_eq!((latest.seq, latest.payload.as_slice()), (5, &b"second"[..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn errors_display_and_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DurabilityError>();
        assert_send_sync::<WalWriter>();
        assert_send_sync::<CheckpointStore>();
        let e = DurabilityError::TruncatedRecord {
            offset: 8,
            have: 3,
            need: 16,
        };
        assert!(e.to_string().contains("offset 8"));
        assert!(DurabilityError::ChecksumMismatch { offset: 40 }
            .to_string()
            .contains("checksum"));
    }
}
