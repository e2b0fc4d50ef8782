//! The segmented log's on-disk layout (DESIGN.md §17): one live segment
//! plus the sealed segments before it, and the retention rule that keeps
//! the chain — and the checkpoints that cover it — bounded.
//!
//! A log directory holds the live segment [`LIVE_SEGMENT`] and sealed
//! segments named `frames-<first>-<end>.wal` (both zero-padded to 20
//! digits), each holding the records `first..end`, numbered from the
//! log's creation. [`WalWriter::seal`] makes them; the newest sealed
//! segment's `end` is the live segment's first record, so that segment
//! is never retired.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::{
    io_err, remove_file, scan_file, sync_dir, CheckpointStore, DurabilityError, WalWriter,
};

/// File name of the live segment inside a log directory.
pub const LIVE_SEGMENT: &str = "frames.wal";

/// The file name of a sealed segment holding records `first..end`.
pub(crate) fn sealed_name(first: u64, end: u64) -> String {
    format!("frames-{first:020}-{end:020}.wal")
}

/// The record range a sealed segment's file name carries.
fn parse_sealed(name: &str) -> Option<(u64, u64)> {
    let range = name.strip_prefix("frames-")?.strip_suffix(".wal")?;
    let (first, end) = range.split_once('-')?;
    let (first, end) = (first.parse().ok()?, end.parse().ok()?);
    (first <= end).then_some((first, end))
}

/// One segment of the chain: a sealed one (`end: Some`) or the live one.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Segment {
    first: u64,
    end: Option<u64>,
    path: PathBuf,
}

/// A listing of one log directory: its sealed segments in record order,
/// then the live segment. Open it, [`scan`](Self::scan) from a record,
/// and [`resume`](Self::resume) appending where the scan ended.
#[derive(Debug, Clone)]
pub struct SegmentedLog {
    dir: PathBuf,
    /// Sealed segments by first record, then the live segment.
    segments: Vec<Segment>,
}

/// Where a [`SegmentedLog::scan`] ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainScan {
    /// One past the last record the chain holds intact (numbered from
    /// the log's creation): where appends resume.
    pub end: u64,
    /// Segment bytes the scan read.
    pub scanned_bytes: u64,
    /// Bytes past the chain's end — a damaged tail, and every segment
    /// after it — that [`SegmentedLog::resume`] discards.
    pub discarded_bytes: u64,
    /// Why the chain ended before its last byte, if it did: the first
    /// torn, truncated, or checksum-failing record, or a
    /// [`DurabilityError::ChainGap`] where a segment is missing or
    /// short.
    pub tail_error: Option<DurabilityError>,
    /// The segment holding the chain's end, and its valid byte length.
    stop: usize,
    stop_len: u64,
}

impl SegmentedLog {
    /// Lists the segments in `dir`. A missing directory or live segment
    /// reads as an empty one; files that are not segments are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if an existing directory cannot be
    /// listed.
    pub fn open(dir: &Path) -> Result<Self, DurabilityError> {
        let mut segments: Vec<Segment> = match fs::read_dir(dir) {
            Ok(listing) => listing
                .filter_map(Result::ok)
                .filter_map(|entry| {
                    let (first, end) = parse_sealed(entry.file_name().to_str()?)?;
                    Some(Segment {
                        first,
                        end: Some(end),
                        path: entry.path(),
                    })
                })
                .collect(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("list", dir, &e)),
        };
        segments.sort_unstable_by_key(|s| (s.first, s.end));
        let live_first = segments.last().and_then(|s| s.end).unwrap_or(0);
        segments.push(Segment {
            first: live_first,
            end: None,
            path: dir.join(LIVE_SEGMENT),
        });
        Ok(Self {
            dir: dir.to_path_buf(),
            segments,
        })
    }

    /// Starts an empty log in `dir`: removes every sealed segment and
    /// truncates (or creates) the live one, whose writer is returned
    /// with the magic prefix and the directory fsynced.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if the directory cannot be listed
    /// or a file cannot be removed, created or fsynced.
    pub fn create(dir: &Path) -> Result<WalWriter, DurabilityError> {
        let log = Self::open(dir)?;
        for segment in log.sealed() {
            remove_file(&segment.path)?;
        }
        Self::fresh_live(dir, &log.live().path, 0)
    }

    /// Creates an empty live segment whose first record will be numbered
    /// `first`, durable with its directory entry.
    fn fresh_live(dir: &Path, live: &Path, first: u64) -> Result<WalWriter, DurabilityError> {
        let wal = WalWriter::create_segment(live.to_path_buf(), first)?;
        sync_dir(dir)?;
        Ok(wal)
    }

    fn sealed(&self) -> &[Segment] {
        &self.segments[..self.segments.len() - 1]
    }

    fn live(&self) -> &Segment {
        self.segments
            .last()
            .expect("the live segment is always listed")
    }

    /// The first record the chain holds: records before it were retired.
    #[must_use]
    pub fn start(&self) -> u64 {
        self.segments[0].first
    }

    /// Streams every record numbered `from` or later through `visit`,
    /// in order, and stops at the first record that fails to validate,
    /// at a segment that holds fewer records than its name says, or at
    /// a missing segment. Scanning starts in the segment that holds
    /// `from`; its records before `from` are checksummed but not
    /// visited, and earlier segments are not read at all.
    ///
    /// The scan *reaches* `from` when the returned `end >= from`; `visit`
    /// is only ever called when it does.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::ChainGap`] if `from` precedes the
    /// chain's [`start`](Self::start); [`DurabilityError::Io`],
    /// [`DurabilityError::BadMagic`] or
    /// [`DurabilityError::UnsupportedVersion`] if a segment cannot be
    /// read, is not a log file, or is a log of another format version;
    /// and whatever `visit` returns.
    pub fn scan<E: From<DurabilityError>>(
        &self,
        from: u64,
        mut visit: impl FnMut(&[u8]) -> Result<(), E>,
    ) -> Result<ChainScan, E> {
        if from < self.start() {
            return Err(DurabilityError::ChainGap {
                from,
                to: self.start(),
            }
            .into());
        }
        let first = self
            .segments
            .iter()
            .rposition(|s| s.first <= from)
            .expect("from is at or past the chain's start");
        let mut scan = ChainScan {
            end: self.segments[first].first,
            scanned_bytes: 0,
            discarded_bytes: 0,
            tail_error: None,
            stop: first,
            stop_len: 0,
        };
        // Segments before `joined` are part of the chain (or precede
        // `from`); the rest are past its end.
        let mut joined = first;
        for (k, segment) in self.segments.iter().enumerate().skip(first) {
            if segment.first != scan.end {
                scan.tail_error = Some(DurabilityError::ChainGap {
                    from: scan.end,
                    to: segment.first,
                });
                break;
            }
            joined = k + 1;
            scan.stop = k;
            if segment.end.is_none() && !segment.path.exists() {
                // A seal cut short before the fresh live file existed.
                break;
            }
            let limit = segment.end.map_or(u64::MAX, |end| end - segment.first);
            let skip = from.saturating_sub(segment.first);
            let file = scan_file(&segment.path, limit, |i, payload| {
                if i < skip {
                    Ok(())
                } else {
                    visit(payload)
                }
            })?;
            scan.stop_len = file.valid_len;
            scan.scanned_bytes += file.read;
            scan.end = segment.first + file.records;
            let short = segment.end.filter(|&end| end > scan.end);
            if file.tail_error.is_some() || short.is_some() {
                scan.discarded_bytes += file.file_len - file.valid_len;
                scan.tail_error = file
                    .tail_error
                    .or(short.map(|to| DurabilityError::ChainGap { from: scan.end, to }));
                break;
            }
        }
        for segment in &self.segments[joined..] {
            scan.discarded_bytes += fs::metadata(&segment.path).map_or(0, |m| m.len());
        }
        Ok(scan)
    }

    /// Reopens the chain for appending where `scan` (a scan of this
    /// listing) ended: every segment after the one holding the end is
    /// deleted, that segment is truncated to its valid prefix, and if it
    /// was sealed it is renamed to the range it really holds and a fresh
    /// live segment follows it.
    ///
    /// # Errors
    ///
    /// Returns [`DurabilityError::Io`] if a file cannot be removed,
    /// truncated, renamed, or created.
    pub fn resume(&self, scan: &ChainScan) -> Result<WalWriter, DurabilityError> {
        // Newest first: a crash part-way leaves a shorter chain, never
        // one with a hole.
        let later = &self.segments[scan.stop + 1..];
        for segment in later.iter().rev() {
            remove_file(&segment.path)?;
        }
        let stop = &self.segments[scan.stop];
        let live = &self.live().path;
        let Some(named_end) = stop.end else {
            return if stop.path.exists() {
                WalWriter::resume_at(
                    stop.path.clone(),
                    scan.stop_len,
                    stop.first,
                    scan.end - stop.first,
                )
            } else {
                Self::fresh_live(&self.dir, &stop.path, scan.end)
            };
        };
        if scan.end != named_end {
            let file = fs::OpenOptions::new()
                .write(true)
                .open(&stop.path)
                .map_err(|e| io_err("open", &stop.path, &e))?;
            file.set_len(scan.stop_len)
                .and_then(|()| file.sync_data())
                .map_err(|e| io_err("truncate torn tail", &stop.path, &e))?;
            let renamed = self.dir.join(sealed_name(stop.first, scan.end));
            fs::rename(&stop.path, &renamed).map_err(|e| io_err("rename", &renamed, &e))?;
        }
        Self::fresh_live(&self.dir, live, scan.end)
    }
}

/// One retention pass over the log in `dir` and its checkpoint `store`,
/// counting only the checkpoints numbered `durable_upto` or below (the
/// ones known to be on stable storage). Returns how many files went.
///
/// Kept: the two newest such checkpoints, the live segment, the newest
/// sealed segment (its name gives the live segment's first record), and
/// every sealed segment holding a record at or past the older kept
/// checkpoint — so recovery can fall back to either kept checkpoint and
/// replay forward from it. Retired: every other segment and checkpoint,
/// and publish temp files below `durable_upto` (a temp file at
/// `durable_upto` may be a republish in flight). With fewer than two
/// checkpoints no segment is retired: replay may have to start at the
/// log's first record.
///
/// Every step is monotone — what a pass retires is never needed again —
/// so a pass may run late or concurrently with appends and seals.
///
/// # Errors
///
/// Returns [`DurabilityError::Io`] if a directory cannot be listed or a
/// file cannot be removed.
fn retire_covered(
    dir: &Path,
    store: &CheckpointStore,
    durable_upto: u64,
) -> Result<u64, DurabilityError> {
    let files = store.entries()?;
    let mut doomed: Vec<PathBuf> = files
        .iter()
        .filter(|f| f.tmp && f.seq < durable_upto)
        .map(|f| f.path.clone())
        .collect();
    let covered: Vec<_> = files
        .iter()
        .filter(|f| !f.tmp && f.seq <= durable_upto)
        .collect();
    if let [older @ .., second, _newest] = covered.as_slice() {
        doomed.extend(older.iter().map(|f| f.path.clone()));
        let log = SegmentedLog::open(dir)?;
        if let [retirable @ .., _newest_sealed] = log.sealed() {
            doomed.extend(
                retirable
                    .iter()
                    .filter(|s| s.end.is_some_and(|end| end <= second.seq))
                    .map(|s| s.path.clone()),
            );
        }
    }
    for path in &doomed {
        remove_file(path)?;
    }
    Ok(doomed.len() as u64)
}

/// One retention pass's inputs: the log, its checkpoints, and who hears
/// the outcome (the files retired, or why the pass failed).
struct Pass {
    dir: PathBuf,
    store: CheckpointStore,
    hook: Box<dyn Fn(Result<u64, DurabilityError>) + Send + Sync>,
}

impl Pass {
    fn run(&self, durable_upto: u64) {
        (self.hook)(retire_covered(&self.dir, &self.store, durable_upto));
    }
}

/// Runs retention passes on one background thread, so unlinking
/// a retired segment (milliseconds on a filesystem that discards freed
/// blocks) stays off the request path. The thread starts at the first
/// [`request`](Self::request), coalesces requests that queue up behind a
/// running pass, and is joined — after its last pass — when the janitor
/// is dropped.
pub struct Janitor {
    pass: Arc<Pass>,
    worker: Option<(mpsc::Sender<u64>, JoinHandle<()>)>,
}

impl fmt::Debug for Janitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Janitor")
            .field("dir", &self.pass.dir)
            .field("store", &self.pass.store)
            .field("running", &self.worker.is_some())
            .finish_non_exhaustive()
    }
}

impl Janitor {
    /// A janitor for the log in `dir` and its checkpoint `store`; `hook`
    /// hears the outcome of every pass.
    pub fn new(
        dir: impl Into<PathBuf>,
        store: CheckpointStore,
        hook: impl Fn(Result<u64, DurabilityError>) + Send + Sync + 'static,
    ) -> Self {
        Self {
            pass: Arc::new(Pass {
                dir: dir.into(),
                store,
                hook: Box::new(hook),
            }),
            worker: None,
        }
    }

    /// Queues a retention pass over the checkpoints numbered
    /// `durable_upto` or below. Call it only once those checkpoints are
    /// on stable storage. If the thread cannot be started, the pass runs
    /// here instead.
    pub fn request(&mut self, durable_upto: u64) {
        if self.worker.is_none() {
            let (tx, rx) = mpsc::channel::<u64>();
            let pass = Arc::clone(&self.pass);
            let spawned = std::thread::Builder::new()
                .name("vcps-wal-janitor".into())
                .spawn(move || {
                    while let Ok(upto) = rx.recv() {
                        pass.run(rx.try_iter().fold(upto, u64::max));
                    }
                });
            if let Ok(handle) = spawned {
                self.worker = Some((tx, handle));
            }
        }
        match &self.worker {
            Some((tx, _)) if tx.send(durable_upto).is_ok() => {}
            _ => self.pass.run(durable_upto),
        }
    }
}

impl Drop for Janitor {
    fn drop(&mut self) {
        if let Some((tx, handle)) = self.worker.take() {
            drop(tx);
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_wal;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vcps-durable-seg-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    /// Writes `periods` segments of `per` records each (sealing after
    /// each), then `tail` live records; record `i`'s payload is `[i; 3]`.
    fn build(dir: &Path, periods: u64, per: u64, tail: u64) -> WalWriter {
        let mut wal = SegmentedLog::create(dir).unwrap();
        let mut n = 0u64;
        for _ in 0..periods {
            for _ in 0..per {
                wal.append(&[n as u8; 3]).unwrap();
                n += 1;
            }
            wal.seal().unwrap();
        }
        for _ in 0..tail {
            wal.append(&[n as u8; 3]).unwrap();
            n += 1;
        }
        wal.sync().unwrap();
        wal
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .collect();
        names.sort();
        names
    }

    fn collect(log: &SegmentedLog, from: u64) -> (Vec<u8>, ChainScan) {
        let mut seen = Vec::new();
        let scan = log
            .scan(from, |p| {
                seen.push(p[0]);
                Ok::<(), DurabilityError>(())
            })
            .unwrap();
        (seen, scan)
    }

    #[test]
    fn sealed_names_round_trip_and_reject_strangers() {
        assert_eq!(parse_sealed(&sealed_name(3, 17)), Some((3, 17)));
        for name in ["frames.wal", "frames-1.wal", "frames-9-2.wal", "x-1-2.wal"] {
            assert_eq!(parse_sealed(name), None, "{name}");
        }
    }

    #[test]
    fn seal_names_the_range_and_continues_in_a_fresh_live_segment() {
        let dir = temp_dir("seal");
        let wal = build(&dir, 2, 3, 2);
        assert_eq!(wal.record_count(), 2);
        assert_eq!(
            names(&dir),
            vec![
                sealed_name(0, 3),
                sealed_name(3, 6),
                LIVE_SEGMENT.to_string()
            ]
        );
        assert_eq!(
            read_wal(dir.join(sealed_name(3, 6))).unwrap().records.len(),
            3
        );
        let log = SegmentedLog::open(&dir).unwrap();
        assert_eq!((log.start(), log.live().first), (0, 6));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The watermark numbers records from the log's creation, across
    /// seals and a resume, as the segment names do.
    #[test]
    fn watermark_counts_records_from_the_log_creation() {
        let dir = temp_dir("watermark");
        let wal = build(&dir, 2, 3, 2);
        assert_eq!(wal.watermark().durable(), 8);
        drop(wal);
        let log = SegmentedLog::open(&dir).unwrap();
        let (_, scan) = collect(&log, 6);
        let mut wal = log.resume(&scan).unwrap();
        let mark = wal.watermark();
        assert_eq!((mark.requested(), mark.durable()), (8, 8));
        wal.append(&[8; 3]).unwrap();
        wal.seal().unwrap();
        assert_eq!(mark.durable(), 9);
        assert!(dir.join(sealed_name(6, 9)).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_reads_only_from_the_segment_holding_from() {
        let dir = temp_dir("scan-from");
        drop(build(&dir, 2, 3, 2));
        let log = SegmentedLog::open(&dir).unwrap();
        let live_len = fs::metadata(dir.join(LIVE_SEGMENT)).unwrap().len();
        // From the live segment's first record: only the live file.
        let (seen, scan) = collect(&log, 6);
        assert_eq!(seen, vec![6, 7]);
        assert_eq!((scan.end, scan.scanned_bytes), (8, live_len));
        assert_eq!(scan.tail_error, None);
        // From inside a sealed segment: its earlier records are skipped.
        let (seen, scan) = collect(&log, 4);
        assert_eq!(seen, vec![4, 5, 6, 7]);
        assert_eq!(scan.end, 8);
        // From past the end: not reached, nothing visited.
        let (seen, scan) = collect(&log, 9);
        assert!(seen.is_empty());
        assert_eq!(scan.end, 8);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_before_the_chain_start_is_a_typed_gap() {
        let dir = temp_dir("scan-gap");
        drop(build(&dir, 2, 3, 0));
        fs::remove_file(dir.join(sealed_name(0, 3))).unwrap();
        let log = SegmentedLog::open(&dir).unwrap();
        assert_eq!(log.start(), 3);
        let err = log.scan(0, |_| Ok::<(), DurabilityError>(())).unwrap_err();
        assert_eq!(err, DurabilityError::ChainGap { from: 0, to: 3 });
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A torn record inside a sealed segment ends the chain there: the
    /// resumed log drops every later segment, renames the damaged one to
    /// the range it really holds, and appends after it.
    #[test]
    fn damage_in_a_sealed_segment_ends_the_chain_and_resume_repairs_it() {
        let dir = temp_dir("sealed-damage");
        drop(build(&dir, 2, 3, 2));
        let damaged = dir.join(sealed_name(3, 6));
        let bytes = fs::read(&damaged).unwrap();
        fs::write(&damaged, &bytes[..bytes.len() - 1]).unwrap();
        let log = SegmentedLog::open(&dir).unwrap();
        let (seen, scan) = collect(&log, 3);
        assert_eq!(seen, vec![3, 4]);
        assert_eq!(scan.end, 5);
        assert!(matches!(
            scan.tail_error,
            Some(DurabilityError::TruncatedRecord { .. })
        ));
        let live_len = fs::metadata(dir.join(LIVE_SEGMENT)).unwrap().len();
        assert_eq!(scan.discarded_bytes, (3 + 16 - 1) + live_len);
        let mut wal = log.resume(&scan).unwrap();
        assert_eq!(
            names(&dir),
            vec![
                sealed_name(0, 3),
                sealed_name(3, 5),
                LIVE_SEGMENT.to_string()
            ]
        );
        wal.append(&[5; 3]).unwrap();
        wal.sync().unwrap();
        let log = SegmentedLog::open(&dir).unwrap();
        let (seen, scan) = collect(&log, 0);
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(scan.tail_error, None);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A sealed segment that ends early but cleanly (or a missing one)
    /// is a gap, not a silent renumbering.
    #[test]
    fn short_or_missing_segments_end_the_chain_with_a_gap() {
        let dir = temp_dir("short");
        drop(build(&dir, 3, 2, 1));
        fs::remove_file(dir.join(sealed_name(2, 4))).unwrap();
        let log = SegmentedLog::open(&dir).unwrap();
        let (seen, scan) = collect(&log, 0);
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(
            scan.tail_error,
            Some(DurabilityError::ChainGap { from: 2, to: 4 })
        );
        drop(log.resume(&scan).unwrap());
        assert_eq!(
            names(&dir),
            vec![sealed_name(0, 2), LIVE_SEGMENT.to_string()]
        );

        let dir2 = temp_dir("short-clean");
        drop(build(&dir2, 2, 2, 0));
        let seg = dir2.join(sealed_name(2, 4));
        let one_record = 8 + 16 + 3;
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..one_record]).unwrap();
        let log = SegmentedLog::open(&dir2).unwrap();
        let (seen, scan) = collect(&log, 2);
        assert_eq!(seen, vec![2]);
        assert_eq!(
            scan.tail_error,
            Some(DurabilityError::ChainGap { from: 3, to: 4 })
        );
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    #[test]
    fn a_missing_live_segment_reads_as_empty() {
        let dir = temp_dir("no-live");
        drop(build(&dir, 1, 2, 0));
        fs::remove_file(dir.join(LIVE_SEGMENT)).unwrap();
        let log = SegmentedLog::open(&dir).unwrap();
        let (seen, scan) = collect(&log, 2);
        assert!(seen.is_empty());
        assert_eq!((scan.end, scan.tail_error.clone()), (2, None));
        let wal = log.resume(&scan).unwrap();
        assert!(wal.is_empty());
        assert!(dir.join(LIVE_SEGMENT).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_two_checkpoints_and_what_the_older_needs() {
        let dir = temp_dir("retire");
        let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
        drop(build(&dir, 4, 2, 1));
        for seq in [2, 4, 6, 8] {
            store.publish(seq, b"x").unwrap();
        }
        fs::write(
            store.dir().join("ckpt-00000000000000000003.bin.tmp"),
            b"torn",
        )
        .unwrap();
        // Only checkpoints up to 6 are known durable: 4 and 6 are kept,
        // so the segment 4..6 and everything after stays.
        assert_eq!(retire_covered(&dir, &store, 6).unwrap(), 4);
        assert_eq!(
            names(&dir),
            vec![
                "ckpt".to_string(),
                sealed_name(4, 6),
                sealed_name(6, 8),
                LIVE_SEGMENT.to_string()
            ]
        );
        assert_eq!(
            names(store.dir()),
            vec![
                CheckpointStore::file_name(4),
                CheckpointStore::file_name(6),
                CheckpointStore::file_name(8)
            ]
        );
        // All durable: the newest sealed segment is always kept.
        assert_eq!(retire_covered(&dir, &store, 8).unwrap(), 2);
        assert_eq!(
            names(&dir),
            vec![
                "ckpt".to_string(),
                sealed_name(6, 8),
                LIVE_SEGMENT.to_string()
            ]
        );
        // Idempotent.
        assert_eq!(retire_covered(&dir, &store, 8).unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_checkpoint_retires_no_segment() {
        let dir = temp_dir("retire-one");
        let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
        drop(build(&dir, 3, 1, 0));
        store.publish(3, b"x").unwrap();
        assert_eq!(retire_covered(&dir, &store, 3).unwrap(), 0);
        assert_eq!(names(&dir).len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn janitor_runs_passes_off_thread_and_joins_on_drop() {
        let dir = temp_dir("janitor");
        let store = CheckpointStore::open(dir.join("ckpt")).unwrap();
        drop(build(&dir, 3, 2, 0));
        for seq in [2, 4, 6] {
            store.publish(seq, b"x").unwrap();
        }
        let retired = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&retired);
        let mut janitor = Janitor::new(&dir, store.clone(), move |pass| {
            seen.fetch_add(pass.unwrap(), Ordering::SeqCst);
        });
        janitor.request(4);
        janitor.request(6);
        drop(janitor);
        // Checkpoint 2 and segments 0..2 and 2..4 went.
        assert_eq!(retired.load(Ordering::SeqCst), 3);
        assert_eq!(
            names(&dir),
            vec![
                "ckpt".to_string(),
                sealed_name(4, 6),
                LIVE_SEGMENT.to_string()
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
