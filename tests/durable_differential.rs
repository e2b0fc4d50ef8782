//! Differential conformance suite for the durability layer (DESIGN.md
//! §17).
//!
//! The durability contract is that a server which crashes — losing
//! *all* in-memory state — and recovers from its write-ahead log and
//! checkpoints is indistinguishable from one that never crashed: same
//! uploads, same pair estimates, same O–D matrices, and same registry
//! counters (modulo the `wal.*` series) at every shard count × worker
//! count, under ideal channels and under seeded link-fault injection.
//! A corrupted log tail must surface as a typed error and recovery must
//! land on the last valid record — never a panic, never silently
//! accepted garbage.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use vcps::hash::splitmix64;
use vcps::obs::Obs;
use vcps::roadnet::{Link, RoadNetwork, VehicleTrip};
use vcps::sim::protocol::{PeriodUpload, SequencedUpload};
use vcps::sim::{
    run_period, Durable, DurableOptions, DurableServer, FaultPlan, FlushPolicy, LinkFaults,
    RetryPolicy, RunConfig, ServerCrash, Sharded, ShardedServer,
};
use vcps::{BitArray, RsuId, Scheme};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// A fresh scratch directory per call (unique across the whole test
/// binary, parallel tests included).
fn scratch(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "vcps-durable-{}-{label}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Strips the sharded server's progress series *and* the durability
/// layer's own counters, leaving exactly what an uninstrumented run
/// also fires.
fn strip_own_series(mut counters: BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters.retain(|name, _| {
        !name.starts_with("shard.")
            && !name.starts_with("batch.")
            && !name.starts_with("wal.")
            && !name.starts_with("phase.wal_")
    });
    counters
}

/// The same seed-derived workload shape as the sharding differential:
/// one upload per RSU plus re-sends exercising every dedup verdict.
fn workload(rsus: u64, seed: u64) -> Vec<SequencedUpload> {
    let mut frames = Vec::new();
    for r in 1..=rsus {
        let h = splitmix64(seed ^ r);
        let m = 1usize << (6 + (h % 5) as usize);
        let ones = (h >> 8) % (m as u64 / 2);
        let bits = BitArray::from_indices(
            m,
            (0..ones).map(|i| (splitmix64(h ^ i) % m as u64) as usize),
        )
        .expect("indices in range");
        frames.push(SequencedUpload {
            seq: h % 3,
            upload: PeriodUpload {
                rsu: RsuId(r),
                counter: bits.count_ones() as u64 + h % 7,
                bits,
            },
        });
    }
    for r in 1..=rsus {
        let h = splitmix64(seed ^ r ^ 0xD1FF);
        let mut resend = frames[(r - 1) as usize].clone();
        match h % 4 {
            0 => continue,
            1 => {}
            2 => resend.upload.counter ^= 1,
            _ => {
                if resend.seq == 0 {
                    continue;
                }
                resend.seq -= 1;
            }
        }
        frames.push(resend);
    }
    frames
}

fn line4() -> RoadNetwork {
    RoadNetwork::new(
        4,
        vec![
            Link::new(0, 1, 10.0, 2.0),
            Link::new(1, 2, 10.0, 3.0),
            Link::new(2, 3, 10.0, 2.5),
        ],
    )
    .expect("valid network")
}

fn line4_trips(count: u64, seed: u64) -> Vec<VehicleTrip> {
    const ROUTES: [&[usize]; 4] = [&[0, 1, 2, 3], &[0, 1, 2], &[1, 2, 3], &[2, 3]];
    (0..count)
        .map(|id| {
            let route = ROUTES[(splitmix64(seed ^ id) % 4) as usize].to_vec();
            VehicleTrip {
                id,
                origin: *route.first().expect("non-empty route"),
                dest: *route.last().expect("non-empty route"),
                route,
            }
        })
        .collect()
}

fn all_pair_estimates<F, E>(nodes: u64, estimate: F) -> Vec<E>
where
    F: Fn(RsuId, RsuId) -> E,
{
    let mut out = Vec::new();
    for a in 0..nodes {
        for b in (a + 1)..nodes {
            out.push(estimate(RsuId(a), RsuId(b)));
        }
    }
    out
}

/// Ideal channels: a durable run — uninterrupted, crashed before the
/// batch record, and crashed after it — must reproduce the plain
/// sharded run's uploads, estimates, O–D matrix, and counters bit for
/// bit at every shard × thread count, with and without checkpoints.
#[test]
fn ideal_crash_and_recover_is_bit_identical() {
    let seed = 0xD0_0D;
    let net = line4();
    let trips = line4_trips(120, seed);
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let history = vec![120.0; 4];

    let ref_obs = Obs::enabled();
    let reference = run_period(
        &scheme,
        (&net, &net.free_flow_times()),
        &trips,
        &history,
        60.0,
        seed,
        &RunConfig {
            obs: ref_obs.clone(),
            ..RunConfig::new(Sharded(2))
        },
    )
    .expect("reference run");
    let ref_counters = strip_own_series(ref_obs.snapshot().counters);
    let ref_matrix = reference.server.od_matrix_threads(1);
    let ref_pairs = all_pair_estimates(4, |a, b| reference.server.estimate_or_degraded(a, b));

    let option_sets = [
        DurableOptions::log_only(),
        DurableOptions::log_only().with_checkpoint_every(1),
    ];
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            for options in option_sets {
                // The whole period travels as one batch record, so crash
                // points 0 (empty-log recovery) and 1 (full-log recovery)
                // cover both ends; `None` is the uninterrupted control.
                for crash in [
                    None,
                    Some(ServerCrash { at_record: 0 }),
                    Some(ServerCrash { at_record: 1 }),
                ] {
                    let dir = scratch("ideal");
                    let obs = Obs::enabled();
                    let run = run_period(
                        &scheme,
                        (&net, &net.free_flow_times()),
                        &trips,
                        &history,
                        60.0,
                        seed,
                        &RunConfig {
                            threads,
                            obs: obs.clone(),
                            faults: None,
                            backend: Durable {
                                shards,
                                dir: dir.clone(),
                                options,
                                crash,
                            },
                        },
                    )
                    .expect("durable run");
                    let label = format!(
                        "{shards} shards x {threads} threads, crash {crash:?}, options {options:?}"
                    );
                    // Snapshot before any reads — estimates and O–D
                    // decodes fire their own counters.
                    assert_eq!(
                        strip_own_series(obs.snapshot().counters),
                        ref_counters,
                        "counters: {label}"
                    );
                    assert_eq!(run.exchanges, reference.exchanges, "exchanges: {label}");
                    assert_eq!(run.wal_records, 1, "wal records: {label}");
                    assert_eq!(run.recovery.is_some(), crash.is_some(), "recovery: {label}");
                    if let (Some(report), Some(c)) = (&run.recovery, crash) {
                        if c.at_record == 0 {
                            assert_eq!(report.replayed_records, 0, "empty-log recovery: {label}");
                        }
                        assert!(report.tail_error.is_none(), "clean tail: {label}");
                    }
                    for node in 0..4u64 {
                        assert_eq!(
                            run.server.upload(RsuId(node)),
                            reference.server.upload(RsuId(node)),
                            "upload for node {node}: {label}"
                        );
                    }
                    assert_eq!(
                        run.server.od_matrix_threads(threads),
                        ref_matrix,
                        "od matrix: {label}"
                    );
                    assert_eq!(
                        all_pair_estimates(4, |a, b| run.server.estimate_or_degraded(a, b)),
                        ref_pairs,
                        "estimates: {label}"
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }
}

/// Link-fault injection: seeded drop / bit-flip / duplication on both
/// channels, a retrying delivery path, and a server crash at the start,
/// middle, and end of the period. The crashed-and-recovered run must
/// replay the never-crashed faulty sharded run's every decision —
/// identical fault metrics, undelivered sets, uploads, estimates, and
/// counters.
#[test]
fn faulty_crash_and_recover_is_bit_identical() {
    let seed = 0xFA_CADE;
    let net = line4();
    let trips = line4_trips(100, seed);
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let history = vec![100.0; 4];
    let plan = FaultPlan::new(seed ^ 0xFA_17)
        .with_report_link(LinkFaults::none().with_drop(0.2).with_bit_flip(0.1))
        .with_upload_link(LinkFaults::none().with_drop(0.3).with_duplicate(0.2));
    let policy = RetryPolicy::default();

    let ref_obs = Obs::enabled();
    let reference = run_period(
        &scheme,
        (&net, &net.free_flow_times()),
        &trips,
        &history,
        60.0,
        seed,
        &RunConfig {
            obs: ref_obs.clone(),
            faults: Some((plan.clone(), policy)),
            ..RunConfig::new(Sharded(2))
        },
    )
    .expect("reference faulty run");
    let ref_counters = strip_own_series(ref_obs.snapshot().counters);
    let ref_pairs = all_pair_estimates(4, |a, b| reference.server.estimate_or_degraded(a, b));

    let option_sets = [
        DurableOptions::log_only(),
        DurableOptions::log_only().with_checkpoint_every(2),
    ];
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            for options in option_sets {
                // Crash immediately, mid-period, and (via an at_record
                // the log never reaches) at period end.
                for at_record in [0, 2, 1 << 40] {
                    let dir = scratch("faulty");
                    let obs = Obs::enabled();
                    let run = run_period(
                        &scheme,
                        (&net, &net.free_flow_times()),
                        &trips,
                        &history,
                        60.0,
                        seed,
                        &RunConfig {
                            threads,
                            obs: obs.clone(),
                            faults: Some((plan.clone(), policy)),
                            backend: Durable {
                                shards,
                                dir: dir.clone(),
                                options,
                                crash: Some(ServerCrash { at_record }),
                            },
                        },
                    )
                    .expect("durable faulty run");
                    let label = format!(
                        "{shards} shards x {threads} threads, crash at {at_record}, options {options:?}"
                    );
                    assert_eq!(
                        strip_own_series(obs.snapshot().counters),
                        ref_counters,
                        "counters: {label}"
                    );
                    assert_eq!(run.exchanges, reference.exchanges, "exchanges: {label}");
                    assert_eq!(run.faults, reference.faults, "fault metrics: {label}");
                    assert_eq!(
                        run.undelivered, reference.undelivered,
                        "undelivered: {label}"
                    );
                    let report = run.recovery.as_ref().expect("crash always recovers");
                    assert!(report.tail_error.is_none(), "clean tail: {label}");
                    for node in 0..4u64 {
                        assert_eq!(
                            run.server.upload(RsuId(node)),
                            reference.server.upload(RsuId(node)),
                            "upload for node {node}: {label}"
                        );
                    }
                    assert_eq!(
                        all_pair_estimates(4, |a, b| run.server.estimate_or_degraded(a, b)),
                        ref_pairs,
                        "estimates: {label}"
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }
}

/// Feeds a workload through a durable server, then corrupts the WAL
/// tail (bit-flip or truncation) and recovers: the tail error must be
/// typed, recovery must land exactly on the longest valid prefix, and
/// the recovered state must equal a fresh server fed only that prefix.
#[test]
fn corrupted_tail_recovers_to_last_valid_record() {
    let frames = workload(8, 0xBAD_5EED);
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");

    // `survivors` = exactly how many leading records the corruption
    // leaves intact (the WAL scan computes record boundaries for us).
    enum Corruption {
        FlipLastByte,
        TruncateTail,
        FlipMidFile,
    }
    for (label, kind) in [
        ("bit-flip in last record", Corruption::FlipLastByte),
        ("truncated mid-record", Corruption::TruncateTail),
        ("bit-flip mid-file", Corruption::FlipMidFile),
    ] {
        let dir = scratch("corrupt");
        let mut durable = DurableServer::create(
            scheme.clone(),
            1.0,
            4,
            &dir,
            DurableOptions::log_only(),
            &Obs::disabled(),
        )
        .expect("create durable server");
        for frame in &frames {
            durable.receive_sequenced(frame.clone()).expect("ingest");
        }
        let wal_path = durable.wal_path().to_path_buf();
        drop(durable);

        let clean = vcps::durable::read_wal(&wal_path).expect("scan clean wal");
        assert_eq!(clean.records.len(), frames.len(), "one record per frame");
        // Byte offset where record k starts: magic, then
        // `header ‖ payload` per record.
        let record_start = |k: usize| {
            8 + clean.records[..k]
                .iter()
                .map(|r| 16 + r.len())
                .sum::<usize>()
        };

        let mut wal = std::fs::read(&wal_path).expect("read wal");
        let survivors = match kind {
            Corruption::FlipLastByte => {
                let last = wal.len() - 1;
                wal[last] ^= 0x40;
                frames.len() - 1
            }
            Corruption::TruncateTail => {
                wal.truncate(wal.len() - 3);
                frames.len() - 1
            }
            Corruption::FlipMidFile => {
                // First payload byte of the third record: records 0 and
                // 1 survive, everything after is unreachable.
                wal[record_start(2) + 16] ^= 0x01;
                2
            }
        };
        std::fs::write(&wal_path, &wal).expect("rewrite wal");

        let (recovered, report) = DurableServer::recover(
            scheme.clone(),
            1.0,
            4,
            &dir,
            DurableOptions::log_only(),
            &Obs::disabled(),
        )
        .unwrap_or_else(|e| panic!("{label}: recovery must not fail, got {e}"));
        assert!(
            report.tail_error.is_some(),
            "{label}: corruption must surface as a typed tail error"
        );
        assert_eq!(
            report.replayed_records, survivors as u64,
            "{label}: recovery must land exactly on the longest valid prefix"
        );

        // The recovered server equals a fresh one fed only the
        // surviving prefix — corruption never invents or loses state.
        let mut prefix = ShardedServer::new(scheme.clone(), 1.0, 4).expect("prefix server");
        for frame in frames.iter().take(report.replayed_records as usize) {
            prefix.receive_sequenced(frame.clone());
        }
        assert_eq!(
            recovered.server().checkpoint(0),
            prefix.checkpoint(0),
            "{label}: recovered state must equal the valid-prefix state"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A checkpoint "ahead of" a corrupted log must be ignored: state is
/// only trusted as far as the log that produced it, so recovery falls
/// back to replaying the surviving prefix from scratch.
#[test]
fn checkpoint_past_corrupted_log_is_ignored() {
    let frames = workload(6, 0xCAFE);
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let dir = scratch("stale-ckpt");

    let mut durable = DurableServer::create(
        scheme.clone(),
        1.0,
        2,
        &dir,
        DurableOptions::log_only().with_checkpoint_every(1),
        &Obs::disabled(),
    )
    .expect("create durable server");
    for frame in &frames {
        durable.receive_sequenced(frame.clone()).expect("ingest");
    }
    let wal_path = durable.wal_path().to_path_buf();
    drop(durable);

    // Chop the log roughly in half: every checkpoint taken past the cut
    // now describes state the surviving log cannot vouch for.
    let mut wal = std::fs::read(&wal_path).expect("read wal");
    wal.truncate(8 + (wal.len() - 8) / 2);
    std::fs::write(&wal_path, &wal).expect("rewrite wal");

    let (recovered, report) = DurableServer::recover(
        scheme.clone(),
        1.0,
        2,
        &dir,
        DurableOptions::log_only(),
        &Obs::disabled(),
    )
    .expect("recovery");
    let total = report.checkpoint_records + report.replayed_records;
    assert!(
        total < frames.len() as u64,
        "truncation must lose tail records"
    );

    let mut prefix = ShardedServer::new(scheme.clone(), 1.0, 2).expect("prefix server");
    for frame in frames.iter().take(total as usize) {
        prefix.receive_sequenced(frame.clone());
    }
    assert_eq!(
        recovered.server().checkpoint(total),
        prefix.checkpoint(total),
        "recovered state must equal the surviving-prefix state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Group-commit prefix durability (DESIGN.md §18): for any record
    /// sequence, flush policy, and crash point, a crash loses at most
    /// the buffered tail — the on-disk log is an exact *prefix* of the
    /// appended frames with a **clean** tail (a lost buffered record is
    /// absent, never torn), the policy bounds how long that lost tail
    /// can be, and recovery replays the prefix into a state identical
    /// to a never-crashed server fed the same prefix.
    #[test]
    fn group_commit_crash_recovers_exact_durable_prefix(
        seed in any::<u64>(),
        rsus in 2u64..6,
        crash_at in any::<usize>(),
        policy_kind in 0u8..4,
        every_n in 1u64..6,
        every_bytes in 1u64..2048,
        flush_before_crash in any::<bool>(),
    ) {
        let policy = match policy_kind {
            0 => FlushPolicy::PerRecord,
            1 => FlushPolicy::EveryRecords(every_n),
            2 => FlushPolicy::EveryBytes(every_bytes),
            _ => FlushPolicy::Manual,
        };
        let frames = workload(rsus, seed);
        let crash = crash_at % (frames.len() + 1);
        let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
        let dir = scratch("group-commit");

        let mut durable = DurableServer::create(
            scheme.clone(),
            1.0,
            2,
            &dir,
            DurableOptions::log_only().with_flush(policy),
            &Obs::disabled(),
        )
        .expect("create durable server");
        for frame in &frames[..crash] {
            durable.receive_sequenced(frame.clone()).expect("ingest");
        }
        if flush_before_crash {
            durable.flush_wal().expect("flush");
        }
        let wal_path = durable.wal_path().to_path_buf();
        // Crash: drop deliberately does NOT flush, so the buffered
        // tail vanishes with the process.
        drop(durable);

        let scan = vcps::durable::read_wal(&wal_path).expect("scan wal");
        prop_assert!(
            scan.tail_error.is_none(),
            "losing the buffer must leave a clean tail, got {:?}",
            scan.tail_error
        );
        let durable_records = scan.records.len();
        prop_assert!(durable_records <= crash);
        // The surviving records are byte-identical to the first
        // `durable_records` appended frames — a prefix, never a
        // reordering or a partial record.
        for (record, frame) in scan.records.iter().zip(&frames[..crash]) {
            let encoded = frame.encode();
            prop_assert_eq!(&record[..], &encoded[..]);
        }
        // The policy bounds the lost tail.
        if flush_before_crash {
            prop_assert_eq!(durable_records, crash, "explicit flush makes everything durable");
        } else {
            match policy {
                FlushPolicy::PerRecord => prop_assert_eq!(durable_records, crash),
                FlushPolicy::EveryRecords(n) => {
                    prop_assert_eq!(durable_records, crash - crash % n as usize)
                }
                FlushPolicy::EveryBytes(threshold) => {
                    let buffered: u64 = frames[durable_records..crash]
                        .iter()
                        .map(|f| 16 + f.encode().len() as u64)
                        .sum();
                    prop_assert!(
                        buffered < threshold,
                        "an unflushed tail of {buffered} bytes contradicts threshold {threshold}"
                    );
                }
                FlushPolicy::Manual => prop_assert_eq!(durable_records, 0),
            }
        }

        let (recovered, report) = DurableServer::recover(
            scheme.clone(),
            1.0,
            2,
            &dir,
            DurableOptions::log_only(),
            &Obs::disabled(),
        )
        .expect("recovery");
        prop_assert!(report.tail_error.is_none());
        prop_assert_eq!(
            report.checkpoint_records + report.replayed_records,
            durable_records as u64
        );

        let mut prefix = ShardedServer::new(scheme, 1.0, 2).expect("prefix server");
        for frame in frames.iter().take(durable_records) {
            prefix.receive_sequenced(frame.clone());
        }
        prop_assert_eq!(
            recovered.server().checkpoint(durable_records as u64),
            prefix.checkpoint(durable_records as u64),
            "recovered state must equal the durable-prefix state"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
