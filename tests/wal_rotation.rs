//! The segmented WAL (DESIGN.md §17): every rollover is logged, publishes
//! a checkpoint and seals a segment; retention keeps two checkpoints and
//! the segments the older one needs; recovery reads only what the newest
//! usable checkpoint does not hold.
//!
//! Every fault here must give the never-crashed state — a reference
//! server fed exactly the records that survived, rollovers included — or
//! a typed error, never a silent divergence.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use vcps::durable::{fnv1a_64, DurabilityError};
use vcps::hash::splitmix64;
use vcps::obs::Obs;
use vcps::sim::protocol::{PeriodUpload, SequencedUpload};
use vcps::sim::{DurableOptions, DurableServer, FlushPolicy, ShardedServer, SimError};
use vcps::{BitArray, RsuId, Scheme};

const ALPHA: f64 = 0.5;
const SHARDS: usize = 2;

fn scheme() -> Scheme {
    Scheme::variable(2, 3.0, 9).expect("valid scheme")
}

/// A fresh scratch directory per call.
fn scratch(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vcps-rotation-{}-{label}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// One logged operation: an upload frame or a period rollover. Each is
/// exactly one WAL record.
#[derive(Debug, Clone)]
enum Op {
    Upload(SequencedUpload),
    Rollover,
}

/// `rsus` uploads for period `period`, plus a duplicate and a stale
/// re-send so replay crosses every dedup verdict.
fn period_uploads(rsus: u64, period: u64, seed: u64) -> Vec<Op> {
    let mut frames: Vec<SequencedUpload> = (1..=rsus)
        .map(|r| {
            let h = splitmix64(seed ^ (period << 16) ^ r);
            let m = 1usize << (6 + (h % 4) as usize);
            let ones = 1 + (h >> 8) % (m as u64 / 4);
            let bits = BitArray::from_indices(
                m,
                (0..ones).map(|i| (splitmix64(h ^ i) % m as u64) as usize),
            )
            .expect("indices in range");
            SequencedUpload {
                seq: period + 1,
                upload: PeriodUpload {
                    rsu: RsuId(r),
                    counter: bits.count_ones() as u64 + h % 5,
                    bits,
                },
            }
        })
        .collect();
    frames.push(frames[0].clone());
    let mut stale = frames[frames.len() - 2].clone();
    stale.seq -= 1;
    frames.push(stale);
    frames.into_iter().map(Op::Upload).collect()
}

/// `periods` periods of uploads, each closed by a rollover.
fn closed_periods(periods: u64, rsus: u64, seed: u64) -> Vec<Op> {
    (0..periods)
        .flat_map(|p| {
            let mut ops = period_uploads(rsus, p, seed);
            ops.push(Op::Rollover);
            ops
        })
        .collect()
}

fn apply(durable: &mut DurableServer, op: &Op) {
    match op {
        Op::Upload(frame) => {
            durable.receive_sequenced(frame.clone()).expect("ingest");
        }
        Op::Rollover => {
            durable.finish_period().expect("rollover");
        }
    }
}

/// The never-crashed server fed exactly `ops`.
fn reference(ops: &[Op]) -> ShardedServer {
    let mut server = ShardedServer::new(scheme(), ALPHA, SHARDS).expect("reference server");
    for op in ops {
        match op {
            Op::Upload(frame) => {
                server.receive_sequenced(frame.clone());
            }
            Op::Rollover => {
                let _ = server.finish_period();
            }
        }
    }
    server
}

fn create(dir: &Path, options: DurableOptions, obs: &Obs) -> DurableServer {
    DurableServer::create(scheme(), ALPHA, SHARDS, dir, options, obs).expect("create")
}

fn recover(dir: &Path) -> Result<(DurableServer, vcps::sim::RecoveryReport), SimError> {
    DurableServer::recover(
        scheme(),
        ALPHA,
        SHARDS,
        dir,
        DurableOptions::log_only(),
        &Obs::disabled(),
    )
}

/// Files in `dir` (not directories), sorted by name.
fn files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
}

/// WAL segment files in a durability directory.
fn segments(dir: &Path) -> Vec<PathBuf> {
    files(dir)
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .collect()
}

fn flip_last_byte(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(path, &bytes).expect("write");
}

/// The newest checkpoint is corrupt: recovery falls back to the older
/// retained one and must replay the rollover between them, so the
/// closed period's uploads are not resurrected. With a single rollover
/// and its only checkpoint corrupt, replay starts at the log's first
/// record and crosses the rollover the same way.
#[test]
fn corrupt_newest_rollover_checkpoint_replays_the_rollover() {
    for (periods, open_uploads) in [(2, 0), (1, 3)] {
        let dir = scratch("corrupt-newest");
        let mut ops = closed_periods(periods, 2, 0xC0DE);
        ops.extend(
            period_uploads(3, periods, 0xC0DE)
                .into_iter()
                .take(open_uploads),
        );
        let mut durable = create(&dir, DurableOptions::log_only(), &Obs::disabled());
        for op in &ops {
            apply(&mut durable, op);
        }
        let checkpoint_dir = durable.checkpoint_dir();
        drop(durable);
        flip_last_byte(files(&checkpoint_dir).last().expect("a checkpoint"));

        let (recovered, report) = recover(&dir).expect("recovery");
        let label = format!("{periods} periods, {open_uploads} open uploads");
        assert_eq!(report.tail_error, None, "{label}");
        assert_eq!(
            report.checkpoint_records + report.replayed_records,
            ops.len() as u64,
            "{label}: nothing is lost"
        );
        assert!(report.replayed_records > 0, "{label}: the fallback replays");
        let expected = reference(&ops);
        assert_eq!(
            recovered.server().upload_count(),
            expected.upload_count(),
            "{label}"
        );
        assert_eq!(
            recovered.server().checkpoint(0),
            expected.checkpoint(0),
            "{label}: recovered state must equal the never-crashed state"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The log is torn at its last record. When that record lies in a
/// sealed segment the newest checkpoint covers, nothing is lost; when
/// the newest checkpoint lies past the tear, recovery falls back to the
/// rollover checkpoint before it. Either way the recovered state equals
/// a reference fed exactly the records the report says survived.
#[test]
fn newest_checkpoint_past_a_damaged_log_is_passed_over() {
    // Two closed periods (the torn record is the second rollover), then
    // the same plus an open period whose interval checkpoint covers the
    // torn record.
    let two_periods = closed_periods(2, 2, 0xDA7A);
    let mut open_third = two_periods.clone();
    open_third.extend(period_uploads(2, 2, 0xDA7A).into_iter().take(2));
    for (ops, options, expect_fallback) in [
        (two_periods, DurableOptions::log_only(), false),
        (
            open_third,
            DurableOptions::log_only().with_checkpoint_every(2),
            true,
        ),
    ] {
        let dir = scratch("torn");
        let mut durable = create(&dir, options, &Obs::disabled());
        for op in &ops {
            apply(&mut durable, op);
        }
        drop(durable);
        // The last record sits in the newest segment holding any.
        let newest = segments(&dir)
            .into_iter()
            .rev()
            .find(|p| std::fs::metadata(p).expect("stat").len() > 8)
            .expect("a segment with records");
        let bytes = std::fs::read(&newest).expect("read");
        std::fs::write(&newest, &bytes[..bytes.len() - 1]).expect("tear");

        let (recovered, report) = recover(&dir).expect("recovery");
        let survived = (report.checkpoint_records + report.replayed_records) as usize;
        assert_eq!(recovered.records_logged(), survived as u64);
        if expect_fallback {
            assert_eq!(survived, ops.len() - 1, "only the torn record goes");
            assert!(report.tail_error.is_some(), "the tear is reported");
            assert!(
                report.replayed_records > 0,
                "replay from the older checkpoint"
            );
        } else {
            assert_eq!(survived, ops.len(), "the covered tear loses nothing");
        }
        assert_eq!(
            recovered.server().checkpoint(0),
            reference(&ops[..survived]).checkpoint(0),
            "recovered state must equal the surviving-prefix state"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// With both retained checkpoints corrupt after two or more rollovers,
/// the first segments are already retired: there is nothing to replay
/// from, and recovery must say so with a typed error and leave the
/// directory as it found it.
#[test]
fn corrupt_retained_checkpoints_after_retirement_are_a_typed_gap() {
    let dir = scratch("gap");
    let ops = closed_periods(3, 2, 0x6A9);
    let mut durable = create(&dir, DurableOptions::log_only(), &Obs::disabled());
    for op in &ops {
        apply(&mut durable, op);
    }
    let checkpoint_dir = durable.checkpoint_dir();
    drop(durable);
    let checkpoints = files(&checkpoint_dir);
    assert_eq!(checkpoints.len(), 2, "retention keeps two checkpoints");
    for path in &checkpoints {
        flip_last_byte(path);
    }
    let before = (segments(&dir), files(&checkpoint_dir));
    match recover(&dir) {
        Err(SimError::Durability(DurabilityError::ChainGap { from: 0, to })) => {
            assert!(to > 0, "the gap names the retired records");
        }
        Err(e) => panic!("expected a chain gap, got {e}"),
        Ok((_, report)) => panic!("expected a chain gap, recovered {report:?}"),
    }
    assert_eq!(
        (segments(&dir), files(&checkpoint_dir)),
        before,
        "a failed recovery changes nothing"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file in on-disk format 1, as a build before format 2 wrote it: the
/// same layout, `VCPSWAL1`/`VCPSCKP1` magic and FNV-1a-64 checksums.
fn v1_file(magic: &[u8; 8], header: &[u64], records: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = magic.to_vec();
    for v in header {
        bytes.extend_from_slice(&v.to_be_bytes());
    }
    for record in records {
        bytes.extend_from_slice(&(record.len() as u64).to_be_bytes());
        bytes.extend_from_slice(&fnv1a_64(record).to_be_bytes());
        bytes.extend_from_slice(record);
    }
    bytes
}

/// Every file under `dir`, recursively, with its bytes.
fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("list dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            out.extend(tree(&path));
        } else {
            let bytes = std::fs::read(&path).expect("read");
            out.push((path, bytes));
        }
    }
    out.sort();
    out
}

/// The store a format-1 daemon leaves after three rollovers — the first
/// segment retired, the sealed segment `10..15`, a live segment and the
/// two retained checkpoints — is refused by name, not skipped: without
/// that, the unreadable checkpoints plus the retired records 0..10
/// would read as a chain gap. A directory holding only a format-1 live
/// segment is refused naming that segment. Nothing on disk changes.
#[test]
fn a_format_1_store_is_refused_by_name_and_left_intact() {
    let dir = scratch("v1");
    let ops = closed_periods(3, 2, 0x5E1);
    assert_eq!(ops.len(), 15, "five records a period");
    let live_ops: Vec<Op> = period_uploads(2, 3, 0x5E1).into_iter().take(2).collect();
    let record = |op: &Op| match op {
        Op::Upload(frame) => frame.encode(),
        Op::Rollover => vec![9],
    };
    let records = |ops: &[Op]| ops.iter().map(record).collect::<Vec<_>>();
    std::fs::write(
        dir.join("frames-00000000000000000010-00000000000000000015.wal"),
        v1_file(b"VCPSWAL1", &[], &records(&ops[10..])),
    )
    .unwrap();
    let live = dir.join("frames.wal");
    std::fs::write(&live, v1_file(b"VCPSWAL1", &[], &records(&live_ops))).unwrap();
    let checkpoints = dir.join("checkpoints");
    std::fs::create_dir(&checkpoints).unwrap();
    let newest = checkpoints.join("ckpt-00000000000000000015.bin");
    for seq in [10u64, 15] {
        let payload = reference(&ops[..seq as usize]).checkpoint(seq).encode();
        let mut file = v1_file(
            b"VCPSCKP1",
            &[seq, payload.len() as u64, fnv1a_64(&payload)],
            &[],
        );
        file.extend_from_slice(&payload);
        std::fs::write(checkpoints.join(format!("ckpt-{seq:020}.bin")), file).unwrap();
    }

    let before = tree(&dir);
    match recover(&dir) {
        Err(SimError::Durability(e @ DurabilityError::UnsupportedVersion { .. })) => {
            assert_eq!(
                e,
                DurabilityError::UnsupportedVersion {
                    path: newest.clone(),
                    magic: *b"VCPSCKP1",
                }
            );
            let message = SimError::Durability(e).to_string();
            assert!(
                message.contains("ckpt-00000000000000000015.bin") && message.contains("version 1"),
                "{message}"
            );
        }
        Err(e) => panic!("expected an unsupported version, got {e}"),
        Ok((_, report)) => panic!("expected an unsupported version, recovered {report:?}"),
    }
    assert_eq!(tree(&dir), before, "a refused store is left byte-identical");

    let lone = scratch("v1-live");
    let lone_live = lone.join("frames.wal");
    std::fs::write(&lone_live, b"VCPSWAL1").unwrap();
    match recover(&lone) {
        Err(SimError::Durability(DurabilityError::UnsupportedVersion { path, magic })) => {
            assert_eq!((path, &magic), (lone_live.clone(), b"VCPSWAL1"));
        }
        Err(e) => panic!("expected an unsupported version, got {e}"),
        Ok((_, report)) => panic!("expected an unsupported version, recovered {report:?}"),
    }
    assert_eq!(std::fs::read(&lone_live).unwrap(), b"VCPSWAL1");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&lone);
}

/// `create` starts from nothing: an earlier deployment's checkpoint in
/// the same directory must not outrank the new log, even when the new
/// log is long enough to reach it (the old period logs 3 uploads; the
/// new deployment logs 4).
#[test]
fn create_does_not_inherit_the_previous_deployment() {
    let dir = scratch("create");
    let old = closed_periods(1, 1, 0x01D);
    let mut durable = create(&dir, DurableOptions::log_only(), &Obs::disabled());
    for op in &old {
        apply(&mut durable, op);
    }
    drop(durable);

    let new: Vec<Op> = period_uploads(4, 0, 0x0E3).into_iter().take(4).collect();
    let mut durable = create(&dir, DurableOptions::log_only(), &Obs::disabled());
    for op in &new {
        apply(&mut durable, op);
    }
    drop(durable); // crash

    let (recovered, report) = recover(&dir).expect("recovery");
    assert_eq!((report.checkpoint_records, report.replayed_records), (0, 4));
    assert_eq!(
        recovered.server().checkpoint(0),
        reference(&new).checkpoint(0),
        "recovered state must be the new deployment's"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The count-based guard on the recovery claim: after any number of
/// rollovers, a dropped server leaves at most two segments and two
/// checkpoints, and recovery reads exactly the live segment.
#[test]
fn recovery_reads_only_the_live_segment_after_any_number_of_rollovers() {
    for rollovers in [1u64, 5, 20] {
        let dir = scratch("bounded");
        let obs = Obs::enabled();
        let mut ops = closed_periods(rollovers, 3, rollovers);
        let open = period_uploads(3, rollovers, rollovers);
        ops.extend(open.iter().take(2).cloned());
        let options = DurableOptions::log_only().with_flush(FlushPolicy::EveryRecords(4));
        let mut durable = create(&dir, options, &obs);
        for op in &ops {
            apply(&mut durable, op);
        }
        durable.flush_wal().expect("flush");
        let live = durable.wal_path().to_path_buf();
        let checkpoint_dir = durable.checkpoint_dir();
        drop(durable); // joins the janitor

        let label = format!("{rollovers} rollovers");
        assert!(segments(&dir).len() <= 2, "{label}: {:?}", segments(&dir));
        assert!(files(&checkpoint_dir).len() <= 2, "{label}");
        let counters = obs.snapshot().counters;
        assert_eq!(counters["wal.seal"], rollovers, "{label}");
        let retired = counters.get("wal.retire").copied().unwrap_or(0);
        assert_eq!(retired, (2 * rollovers).saturating_sub(3), "{label}");

        let live_len = std::fs::metadata(&live).expect("live segment").len();
        let (recovered, report) = recover(&dir).expect("recovery");
        assert_eq!(report.scanned_bytes, live_len, "{label}");
        assert_eq!(report.replayed_records, 2, "{label}");
        assert_eq!(report.tail_error, None, "{label}");
        assert_eq!(
            recovered.server().checkpoint(0),
            reference(&ops).checkpoint(0),
            "{label}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A rollover record is WAL-only: no upload path accepts it.
#[test]
fn the_rollover_record_is_not_an_upload() {
    let dir = scratch("not-upload");
    let mut durable = create(&dir, DurableOptions::log_only(), &Obs::disabled());
    assert!(durable.receive_sequenced_wire(&[9]).is_err());
    assert!(durable.receive_batch_wire(&[9]).is_err());
    assert_eq!(durable.records_logged(), 0);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random periods × crash points × flush policies × interval
    /// checkpoints: a crash loses at most what no flush covered (a
    /// rollover is always a flush boundary), disk use stays within two
    /// segments and two checkpoints, and recovery equals a never-crashed
    /// server fed the durable prefix with the same rollovers.
    #[test]
    fn crashes_across_rollovers_recover_the_durable_prefix(
        seed in any::<u64>(),
        periods in 1u64..5,
        rsus in 1u64..4,
        close_last in any::<bool>(),
        crash_at in any::<usize>(),
        policy_kind in 0u8..4,
        every_n in 1u64..6,
        every_bytes in 1u64..2048,
        interval in 0u64..5,
        flush_before_crash in any::<bool>(),
    ) {
        let policy = match policy_kind {
            0 => FlushPolicy::PerRecord,
            1 => FlushPolicy::EveryRecords(every_n),
            2 => FlushPolicy::EveryBytes(every_bytes),
            _ => FlushPolicy::Manual,
        };
        let mut ops = closed_periods(periods, rsus, seed);
        if !close_last {
            ops.pop();
        }
        let crash = crash_at % (ops.len() + 1);
        let mut options = DurableOptions::log_only().with_flush(policy);
        if interval > 0 {
            options = options.with_checkpoint_every(interval);
        }
        let dir = scratch("prop");
        let mut durable = create(&dir, options, &Obs::disabled());
        let mut floor = 0;
        for (i, op) in ops[..crash].iter().enumerate() {
            apply(&mut durable, op);
            if matches!(op, Op::Rollover) {
                floor = i + 1;
            }
        }
        if flush_before_crash {
            durable.flush_wal().expect("flush");
            floor = crash;
        }
        let checkpoint_dir = durable.checkpoint_dir();
        drop(durable); // crash: the buffered tail vanishes

        prop_assert!(segments(&dir).len() <= 2, "segments: {:?}", segments(&dir));
        prop_assert!(files(&checkpoint_dir).len() <= 2);
        let (recovered, report) = recover(&dir).expect("recovery");
        prop_assert!(report.tail_error.is_none(), "{:?}", report.tail_error);
        let survived = (report.checkpoint_records + report.replayed_records) as usize;
        prop_assert_eq!(recovered.records_logged(), survived as u64);
        prop_assert!(
            (floor..=crash).contains(&survived),
            "survived {} outside {}..={}", survived, floor, crash
        );
        prop_assert_eq!(
            recovered.server().checkpoint(0),
            reference(&ops[..survived]).checkpoint(0),
            "recovered state must equal the durable-prefix state"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
