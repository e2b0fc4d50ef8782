//! Loopback differential tests: everything the daemon answers must be
//! bit-identical to the in-process `ShardedServer` fed the same wire
//! bytes — the network layer is transport, never arithmetic.

use std::path::PathBuf;

use vcps_core::{RsuId, Scheme};
use vcps_net::wire::{estimate_bits, read_frame, write_frame, Response};
use vcps_net::workload::{city_replay_frames, city_uploads, reference_order};
use vcps_net::{AckSummary, ConnectionLimits, Daemon, DaemonConfig, NetClient, WireMatrix};
use vcps_obs::Obs;
use vcps_sim::synthetic::SyntheticCity;
use vcps_sim::{
    DurableOptions, DurableServer, FlushPolicy, OdMatrix, SequencedUpload, SequencedUploadRef,
    ShardedServer,
};

fn scheme() -> Scheme {
    Scheme::variable(2, 3.0, 41).unwrap()
}

fn city() -> SyntheticCity {
    SyntheticCity::generate(&[0.3, 0.5, 0.2, 0.4, 0.6, 0.1], 3_000, 17)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vcps-net-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn assert_matrix_bit_identical(wire: &WireMatrix, local: &OdMatrix) {
    let local_rsus: Vec<u64> = local.rsus().iter().map(|r| r.0).collect();
    assert_eq!(wire.rsus, local_rsus, "RSU sets diverged");
    let n = local_rsus.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            match (wire.at(i, j), local.at(i, j)) {
                (Some(remote), Some(expected)) => assert_eq!(
                    estimate_bits(&remote),
                    estimate_bits(expected),
                    "pair ({i}, {j}) diverged"
                ),
                (None, None) => {}
                (remote, expected) => {
                    panic!("pair ({i}, {j}): remote {remote:?} vs local {expected:?}")
                }
            }
        }
    }
}

/// Replays the same frames into an in-process reference server.
fn reference_server(frames_by_connection: &[Vec<Vec<u8>>], shards: usize) -> ShardedServer {
    let mut reference = ShardedServer::new(scheme(), 1.0, shards).unwrap();
    for frame in reference_order(frames_by_connection) {
        reference.receive_batch_wire(frame).unwrap();
    }
    reference
}

/// Replays each stream over its own connection (concurrently when there
/// is more than one) and returns the total upload count acked.
fn replay(addr: std::net::SocketAddr, frames_by_connection: Vec<Vec<Vec<u8>>>) -> u64 {
    let handles: Vec<_> = frames_by_connection
        .into_iter()
        .map(|stream| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect");
                client.ingest_pipelined(&stream).expect("replay").frames
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("replayer"))
        .sum()
}

#[test]
fn loopback_replay_is_bit_identical_to_in_process() {
    for connections in [1usize, 2, 4] {
        let frames = city_replay_frames(&scheme(), &city(), 2, connections);
        let reference = reference_server(&frames, 4);

        let config = DaemonConfig::new(scheme());
        let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
        let addr = daemon.local_addr();
        let handle = daemon.spawn();

        let acked = replay(addr, frames);
        assert_eq!(acked, 6 * 2, "6 RSUs x 2 periods regardless of fan-in");

        let mut client = NetClient::connect(addr).unwrap();
        let remote_matrix = client.od_query(2).unwrap();
        let local_matrix = reference.od_matrix_threads(2).unwrap();
        assert_matrix_bit_identical(&remote_matrix, &local_matrix);

        let remote_pair = client.pair_query(1, 2).unwrap();
        let local_pair = reference.estimate_or_degraded(RsuId(1), RsuId(2)).unwrap();
        assert_eq!(estimate_bits(&remote_pair), estimate_bits(&local_pair));

        client.shutdown().unwrap();
        handle.join().unwrap();
    }
}

#[test]
fn finish_period_matches_in_process_sizes() {
    let frames = city_replay_frames(&scheme(), &city(), 1, 1);
    let mut reference = reference_server(&frames, 4);

    let daemon = Daemon::bind("127.0.0.1:0", DaemonConfig::new(scheme())).unwrap();
    let addr = daemon.local_addr();
    let handle = daemon.spawn();
    replay(addr, frames);

    let mut client = NetClient::connect(addr).unwrap();
    let remote_sizes = client.finish_period().unwrap();
    let local_sizes: Vec<(u64, u64)> = reference
        .finish_period()
        .unwrap()
        .into_iter()
        .map(|(rsu, m)| (rsu.0, m as u64))
        .collect();
    assert_eq!(remote_sizes, local_sizes);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

#[test]
fn durable_daemon_flushes_on_shutdown_and_recovers() {
    let dir = temp_dir("durable");
    let frames = city_replay_frames(&scheme(), &city(), 2, 2);
    let reference = reference_server(&frames, 4);
    let frames_sent: usize = frames.iter().map(Vec::len).sum();

    let obs = Obs::enabled();
    let mut config = DaemonConfig::new(scheme());
    config.wal_dir = Some(dir.clone());
    // Manual flushing: no append writes a group on its own, so frames
    // reach the file only when a processor that runs out of work makes
    // its held acks durable, or when the shutdown path flushes
    // explicitly. The shutdown flush must leave nothing staged.
    config.durable_options = DurableOptions::log_only().with_flush(FlushPolicy::Manual);
    config.obs = obs.clone();
    let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    replay(addr, frames);
    let mut client = NetClient::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();

    // The orderly shutdown flushed, so nothing was dropped...
    let snap = obs.snapshot();
    assert!(
        !snap.counters.contains_key("wal.dropped_buffered_records"),
        "shutdown must flush the WAL, not drop it"
    );

    // ...and a fresh process recovers the exact state the daemon held.
    let (recovered, report) = DurableServer::recover(
        scheme(),
        1.0,
        4,
        &dir,
        DurableOptions::log_only(),
        &Obs::disabled(),
    )
    .unwrap();
    assert_eq!(report.tail_error, None);
    assert_eq!(
        report.checkpoint_records + report.replayed_records,
        frames_sent as u64
    );
    assert_eq!(
        recovered.server().checkpoint(0),
        reference.checkpoint(0),
        "recovered state must be bit-identical to the in-process reference"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Tag-5 frames pipelined into a durable daemon take the zero-copy wire
/// path: every ack equals the in-process verdict, and the WAL the
/// daemon leaves behind recovers to the same state bit for bit.
#[test]
fn durable_daemon_sequenced_frames_ack_and_recover_bit_identically() {
    let dir = temp_dir("durable-sequenced");
    let uploads = city_uploads(&scheme(), &city());
    let sequenced = |seq: u64, j: usize| {
        SequencedUpload {
            seq,
            upload: uploads[j].clone(),
        }
        .encode()
        .to_vec()
    };
    let mut frames: Vec<Vec<u8>> = (0..uploads.len()).map(|j| sequenced(0, j)).collect();
    frames.push(sequenced(0, 0)); // duplicate
    frames.push(sequenced(1, 1)); // fresh at a newer seq
    frames.push(sequenced(0, 1)); // stale re-send

    let mut config = DaemonConfig::new(scheme());
    config.wal_dir = Some(dir.clone());
    config.durable_options = DurableOptions::log_only().with_flush(FlushPolicy::EveryRecords(4));
    let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut writer = raw.try_clone().unwrap();
    let pipelined = frames.clone();
    let sender = std::thread::spawn(move || {
        for frame in &pipelined {
            write_frame(&mut writer, frame).unwrap();
        }
    });
    let mut reference = ShardedServer::new(scheme(), 1.0, 4).unwrap();
    let mut total = AckSummary::default();
    for (i, frame) in frames.iter().enumerate() {
        let view = SequencedUploadRef::decode_ref(frame).unwrap();
        let expected = AckSummary::from_outcomes(&[reference.receive_sequenced_ref(&view)]);
        let response = Response::decode(&read_frame(&mut raw, 1 << 20).unwrap()).unwrap();
        assert_eq!(response, Response::Ack(expected), "ack {i}");
        total.merge(&expected);
    }
    sender.join().unwrap();
    assert_eq!((total.duplicate, total.stale), (1, 1), "verdict mix");
    NetClient::connect(addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();

    let (recovered, report) = DurableServer::recover(
        scheme(),
        1.0,
        4,
        &dir,
        DurableOptions::log_only(),
        &Obs::disabled(),
    )
    .unwrap();
    assert_eq!(report.tail_error, None);
    assert_eq!(
        report.checkpoint_records + report.replayed_records,
        frames.len() as u64
    );
    assert_eq!(
        recovered.server().checkpoint(0),
        reference.checkpoint(0),
        "recovered state must be bit-identical to the in-process reference"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn connection_budget_rejects_excess_connections() {
    let mut config = DaemonConfig::new(scheme());
    config.limits = ConnectionLimits {
        max_connections: 1,
        ..ConnectionLimits::default()
    };
    let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
    let addr = daemon.local_addr();
    let handle = daemon.spawn();

    let mut first = NetClient::connect(addr).unwrap();
    first.ping().unwrap();
    // The budget is enforced at accept time; the second connection gets
    // an error frame and a close.
    let mut second = NetClient::connect(addr).unwrap();
    match second.ping() {
        Err(_) => {}
        Ok(()) => panic!("second connection must be rejected"),
    }
    first.shutdown().unwrap();
    handle.join().unwrap();
}
