//! Hostile-stream suite for the daemon's framing layer: every
//! malformed, truncated, or stalled input must produce a typed error
//! and a clean teardown — never a panic, never an allocation sized by
//! the attacker, and never a wedged daemon.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use vcps_core::{RsuId, Scheme};
use vcps_net::wire::{
    encode_od_query, encode_pair_query, estimate_bits, read_frame, write_frame, Response,
};
use vcps_net::{
    AckSummary, ConnectionLimits, Daemon, DaemonConfig, DaemonHandle, NetClient, NetError,
};
use vcps_obs::Obs;
use vcps_sim::{PeriodUpload, SequencedUpload, SequencedUploadRef, ShardedServer};

fn scheme() -> Scheme {
    Scheme::variable(2, 3.0, 23).unwrap()
}

fn spawn_daemon(limits: ConnectionLimits) -> (SocketAddr, DaemonHandle) {
    let mut config = DaemonConfig::new(scheme());
    config.limits = limits;
    let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
    let addr = daemon.local_addr();
    (addr, daemon.spawn())
}

fn tight_limits() -> ConnectionLimits {
    ConnectionLimits {
        max_frame_bytes: 1 << 16,
        read_timeout: Duration::from_millis(300),
        ..ConnectionLimits::default()
    }
}

fn shutdown(addr: SocketAddr, handle: DaemonHandle) {
    let mut client = NetClient::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The daemon must still serve fresh connections — the liveness probe
/// every scenario ends with.
fn assert_alive(addr: SocketAddr) {
    let mut client = NetClient::connect(addr).unwrap();
    client.ping().expect("daemon must survive a hostile peer");
}

fn upload_frame(rsu: u64, seq: u64) -> Vec<u8> {
    let bits = vcps_core::BitArray::from_indices(256, [3usize, 77, 130]).unwrap();
    SequencedUpload {
        seq,
        upload: PeriodUpload {
            rsu: vcps_core::RsuId(rsu),
            counter: 3,
            bits,
        },
    }
    .encode()
    .to_vec()
}

#[test]
fn oversized_length_prefix_is_refused_before_allocation() {
    let (addr, handle) = spawn_daemon(tight_limits());
    let mut raw = TcpStream::connect(addr).unwrap();
    // Claim 4 GiB - 1. If the daemon allocated what the prefix claims,
    // this test would OOM the suite; instead it must answer with an
    // error frame and close.
    raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let response = read_frame(&mut raw, 1 << 20).unwrap();
    match Response::decode(&response).unwrap() {
        Response::Error(msg) => assert!(msg.contains("exceeds"), "unexpected reason: {msg}"),
        other => panic!("expected error frame, got {other:?}"),
    }
    // The connection is closed after a framing error.
    let mut buf = [0u8; 1];
    assert_eq!(raw.read(&mut buf).unwrap_or(0), 0, "connection must close");
    assert_alive(addr);
    shutdown(addr, handle);
}

/// Length-prefixes each payload into one contiguous byte stream, so a
/// single `write_all` lands several frames in the daemon's read buffer
/// at once.
fn framed(payloads: &[&[u8]]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for payload in payloads {
        write_frame(&mut bytes, payload).unwrap();
    }
    bytes
}

fn expect_ack(raw: &mut TcpStream) -> AckSummary {
    match Response::decode(&read_frame(raw, 1 << 20).unwrap()).unwrap() {
        Response::Ack(ack) => ack,
        other => panic!("expected ack, got {other:?}"),
    }
}

#[test]
fn oversized_prefix_buffered_behind_a_valid_frame_is_refused() {
    let (addr, handle) = spawn_daemon(tight_limits());
    let mut raw = TcpStream::connect(addr).unwrap();
    // A valid upload and a 4 GiB - 1 claim arrive in one segment: the
    // claim sits in the read buffer behind the upload and must still be
    // refused on its prefix alone.
    let mut bytes = framed(&[&upload_frame(1, 0)]);
    bytes.extend_from_slice(&u32::MAX.to_be_bytes());
    raw.write_all(&bytes).unwrap();
    assert_eq!(expect_ack(&mut raw).fresh, 1);
    match Response::decode(&read_frame(&mut raw, 1 << 20).unwrap()).unwrap() {
        Response::Error(msg) => assert!(msg.contains("exceeds"), "unexpected reason: {msg}"),
        other => panic!("expected error frame, got {other:?}"),
    }
    let mut buf = [0u8; 1];
    assert_eq!(raw.read(&mut buf).unwrap_or(0), 0, "connection must close");
    assert_alive(addr);
    shutdown(addr, handle);
}

#[test]
fn stall_after_a_buffered_partial_prefix_acks_first_then_drops() {
    let read_timeout = Duration::from_millis(1_000);
    let (addr, handle) = spawn_daemon(ConnectionLimits {
        read_timeout,
        ..tight_limits()
    });
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // A whole frame plus two bytes of the next prefix, then silence.
    let mut bytes = framed(&[&upload_frame(1, 0)]);
    bytes.extend_from_slice(&[0u8, 0]);
    let started = Instant::now();
    raw.write_all(&bytes).unwrap();
    // The ack must not wait behind the stalled frame: it is flushed
    // as soon as the processor runs out of queued frames.
    assert_eq!(expect_ack(&mut raw).fresh, 1);
    assert!(
        started.elapsed() < read_timeout,
        "ack was held back until the stall timed out"
    );
    let mut remainder = Vec::new();
    let _ = raw.read_to_end(&mut remainder);
    let closed_after = started.elapsed();
    assert!(
        closed_after >= read_timeout && closed_after < Duration::from_secs(8),
        "stalled connection must be dropped by the read timeout (after {closed_after:?})"
    );
    if !remainder.is_empty() {
        let payload = read_frame(&mut remainder.as_slice(), 1 << 20).unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error(msg) => assert!(msg.contains("progress"), "got: {msg}"),
            other => panic!("expected timeout error frame, got {other:?}"),
        }
    }
    assert_alive(addr);
    shutdown(addr, handle);
}

/// A daemon whose counters the test can watch.
fn spawn_observed(limits: ConnectionLimits) -> (SocketAddr, DaemonHandle, Obs) {
    let obs = Obs::enabled();
    let mut config = DaemonConfig::new(scheme());
    config.limits = limits;
    config.obs = obs.clone();
    let daemon = Daemon::bind("127.0.0.1:0", config).unwrap();
    let addr = daemon.local_addr();
    (addr, daemon.spawn(), obs)
}

/// Waits until the daemon's counter `name` reaches `at_least` and
/// returns when it did.
fn counter_reached(obs: &Obs, name: &str, at_least: u64) -> Instant {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if obs
            .snapshot()
            .counters
            .get(name)
            .is_some_and(|&v| v >= at_least)
        {
            return Instant::now();
        }
        assert!(Instant::now() < deadline, "{name} never reached {at_least}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn peer_that_never_reads_is_dropped_at_the_first_failed_write() {
    let read_timeout = Duration::from_millis(1_000);
    let (addr, handle, obs) = spawn_observed(ConnectionLimits {
        read_timeout,
        ..tight_limits()
    });
    // Pipeline duplicate uploads and never read: the acks fill the
    // socket buffers until the daemon's writes block, its channel and
    // receive window fill, and a write here makes no progress at all.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_write_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let upload = upload_frame(1, 0);
    let burst = framed(&vec![upload.as_slice(); 1024]);
    let mut offset = 0;
    while let Ok(n) = raw.write(&burst[offset..]) {
        offset = (offset + n) % burst.len();
    }
    // The first failed write must end the connection at once; retrying
    // the buffered acks would hold it for another timeout per attempt.
    let failed_at = counter_reached(&obs, "net.write.err", 1);
    let closed_at = counter_reached(&obs, "net.conn.closed", 1);
    let held = closed_at.saturating_duration_since(failed_at);
    assert!(
        held < read_timeout / 2,
        "connection outlived its failed write by {held:?}"
    );
    drop(raw);
    assert_alive(addr);
    shutdown(addr, handle);
}

#[test]
fn peer_that_stops_reading_and_writing_frees_its_slot() {
    let read_timeout = Duration::from_millis(1_000);
    // 128 RSUs make every O–D answer about 0.5 MB, so the answers to a
    // full channel's worth of queries overflow any socket buffering.
    let limits = ConnectionLimits {
        read_timeout,
        max_frames_in_flight: 256,
        ..tight_limits()
    };
    let in_flight = limits.max_frames_in_flight;
    let (addr, handle, obs) = spawn_observed(limits);
    let mut client = NetClient::connect(addr).unwrap();
    client
        .ingest_pipelined((1..=128u64).map(|rsu| upload_frame(rsu, 0)))
        .unwrap();
    drop(client);
    counter_reached(&obs, "net.conn.closed", 1);
    // No more queries than the channel holds plus the one being
    // answered: the reader hands every one over and then waits, idle,
    // on a socket that will never deliver another byte.
    let query = encode_od_query(0);
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&framed(&vec![query.as_slice(); in_flight + 1]))
        .unwrap();
    let failed_at = counter_reached(&obs, "net.write.err", 1);
    let closed_at = counter_reached(&obs, "net.conn.closed", 2);
    let held = closed_at.saturating_duration_since(failed_at);
    assert!(
        held < read_timeout / 2,
        "idle reader outlived the failed write by {held:?}"
    );
    drop(raw);
    assert_alive(addr);
    shutdown(addr, handle);
}

#[test]
fn pipelined_uploads_then_a_query_answer_in_order() {
    let (addr, handle) = spawn_daemon(tight_limits());
    let mut reference = ShardedServer::new(scheme(), 1.0, 4).unwrap();
    // Every RSU's upload twice in a row, so the ack stream alternates
    // fresh / duplicate and any reordering shows.
    let uploads: Vec<Vec<u8>> = (1..=24u64)
        .flat_map(|rsu| [upload_frame(rsu, 0), upload_frame(rsu, 0)])
        .collect();
    let query = encode_pair_query(1, 2);
    let mut payloads: Vec<&[u8]> = uploads.iter().map(Vec::as_slice).collect();
    payloads.push(&query);
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&framed(&payloads)).unwrap();
    for (i, upload) in uploads.iter().enumerate() {
        let view = SequencedUploadRef::decode_ref(upload).unwrap();
        let expected = AckSummary::from_outcomes(&[reference.receive_sequenced_ref(&view)]);
        assert_eq!(expect_ack(&mut raw), expected, "ack {i} out of order");
    }
    let expected = reference.estimate_or_degraded(RsuId(1), RsuId(2)).unwrap();
    match Response::decode(&read_frame(&mut raw, 1 << 20).unwrap()).unwrap() {
        Response::Estimate(e) => assert_eq!(estimate_bits(&e), estimate_bits(&expected)),
        other => panic!("expected the estimate after every ack, got {other:?}"),
    }
    shutdown(addr, handle);
}

#[test]
fn truncated_mid_frame_disconnect_tears_down_cleanly() {
    let (addr, handle) = spawn_daemon(tight_limits());
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(&[6u8; 10]).unwrap();
        // Drop mid-frame: the daemon sees EOF with 90 bytes missing.
    }
    assert_alive(addr);
    shutdown(addr, handle);
}

#[test]
fn zero_length_frame_is_malformed() {
    let (addr, handle) = spawn_daemon(tight_limits());
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(&0u32.to_be_bytes()).unwrap();
    let response = read_frame(&mut raw, 1 << 20).unwrap();
    match Response::decode(&response).unwrap() {
        Response::Error(msg) => assert!(msg.contains("zero-length"), "unexpected reason: {msg}"),
        other => panic!("expected error frame, got {other:?}"),
    }
    assert_alive(addr);
    shutdown(addr, handle);
}

#[test]
fn interleaved_tags_answer_in_order_and_survive_unknowns() {
    let (addr, handle) = spawn_daemon(tight_limits());
    let mut client = NetClient::connect(addr).unwrap();

    // A sequenced upload, answered with an ack.
    match client.call_raw(&upload_frame(1, 0)).unwrap() {
        Response::Ack(ack) => assert_eq!(ack.fresh, 1),
        other => panic!("expected ack, got {other:?}"),
    }
    // A ping interleaved between uploads.
    client.ping().unwrap();
    // An unknown tag: typed error, connection stays usable.
    match client.call_raw(&[99u8, 1, 2, 3]).unwrap() {
        Response::Error(msg) => assert!(msg.contains("unknown frame tag 99"), "got: {msg}"),
        other => panic!("expected error frame, got {other:?}"),
    }
    // A storage tag (checkpoints never arrive over a client socket).
    match client.call_raw(&[7u8]).unwrap() {
        Response::Error(msg) => assert!(msg.contains("not addressed"), "got: {msg}"),
        other => panic!("expected error frame, got {other:?}"),
    }
    // A malformed upload payload: rejected below the framing layer,
    // connection still in sync.
    let mut bad_upload = upload_frame(2, 0);
    let last = bad_upload.len() - 1;
    bad_upload.truncate(last);
    match client.call_raw(&bad_upload).unwrap() {
        Response::Error(_) => {}
        other => panic!("expected error frame, got {other:?}"),
    }
    // Another valid upload proves the stream never desynchronized.
    match client.call_raw(&upload_frame(2, 0)).unwrap() {
        Response::Ack(ack) => assert_eq!(ack.fresh, 1),
        other => panic!("expected ack, got {other:?}"),
    }
    shutdown(addr, handle);
}

#[test]
fn slow_loris_partial_frame_is_dropped_within_the_timeout() {
    let (addr, handle) = spawn_daemon(tight_limits());
    let started = Instant::now();
    let mut raw = TcpStream::connect(addr).unwrap();
    // Start a frame, then stall: two prefix bytes and silence.
    raw.write_all(&[0u8, 0]).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // The daemon must drop the connection once the 300 ms progress
    // window lapses — an error frame is best-effort, the close is not.
    let mut remainder = Vec::new();
    let _ = raw.read_to_end(&mut remainder);
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "stalled connection must be dropped by the read timeout, not held"
    );
    if !remainder.is_empty() {
        let payload = read_frame(&mut remainder.as_slice(), 1 << 20).unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error(msg) => assert!(msg.contains("progress"), "got: {msg}"),
            other => panic!("expected timeout error frame, got {other:?}"),
        }
    }
    assert_alive(addr);
    shutdown(addr, handle);
}

#[test]
fn idle_connections_are_not_slow_loris_victims() {
    let (addr, handle) = spawn_daemon(tight_limits());
    let mut client = NetClient::connect(addr).unwrap();
    client.ping().unwrap();
    // Idle well past the 300 ms progress window: between frames the
    // daemon must wait indefinitely.
    std::thread::sleep(Duration::from_millis(900));
    client.ping().expect("idle connection must stay open");
    shutdown(addr, handle);
}

#[test]
fn byte_rate_budget_throttles_without_dropping() {
    let (addr, handle) = spawn_daemon(ConnectionLimits {
        max_bytes_per_sec: Some(4_096),
        ..tight_limits()
    });
    let mut client = NetClient::connect(addr).unwrap();
    // ~8 KiB of uploads against a 4 KiB/s budget: every frame must
    // still be acked — throttling delays, it never rejects.
    let frames: Vec<Vec<u8>> = (0..100).map(|i| upload_frame(i + 1, 0)).collect();
    let total_bytes: usize = frames.iter().map(|f| f.len() + 4).sum();
    assert!(
        total_bytes > 6_000,
        "workload must exceed the first-second burst"
    );
    let started = Instant::now();
    let ack = client.ingest_pipelined(&frames).unwrap();
    assert_eq!(ack.frames, 100);
    assert_eq!(ack.fresh, 100);
    assert!(
        started.elapsed() > Duration::from_millis(200),
        "an over-budget replay should have been visibly throttled"
    );
    shutdown(addr, handle);
}

/// A zero byte rate would panic each connection's reader on its first
/// frame, and a zero read timeout would leave writes unbounded: `bind`
/// refuses both before it listens.
#[test]
fn bind_refuses_a_zero_byte_rate_and_a_zero_read_timeout() {
    let zero_rate = ConnectionLimits {
        max_bytes_per_sec: Some(0),
        ..tight_limits()
    };
    let zero_timeout = ConnectionLimits {
        read_timeout: Duration::ZERO,
        ..tight_limits()
    };
    for (limits, want) in [
        (zero_rate, "max_bytes_per_sec"),
        (zero_timeout, "read_timeout"),
    ] {
        let mut config = DaemonConfig::new(scheme());
        config.limits = limits;
        match Daemon::bind("127.0.0.1:0", config) {
            Err(NetError::InvalidLimit { field, .. }) => assert_eq!(field, want),
            Err(other) => panic!("{want}: expected InvalidLimit, got {other:?}"),
            Ok(_) => panic!("{want}: bind accepted a limit no connection survives"),
        }
    }
}

/// The tag-17 thread count is client input, so no value of it may
/// panic the daemon: a request past every real executor count answers
/// with the same tag-34 bytes as the daemon's default (`threads = 0`),
/// and the connection stays open. 100 RSUs make 4,950 pairs, past the
/// size at which the triangle always fans out.
#[test]
fn absurd_od_thread_count_answers_like_the_default() {
    let (addr, handle) = spawn_daemon(tight_limits());
    let mut client = NetClient::connect(addr).unwrap();
    client
        .ingest_pipelined((1..=100u64).map(|rsu| upload_frame(rsu, 0)))
        .unwrap();
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut answer = |threads: u64| {
        write_frame(&mut raw, &encode_od_query(threads)).unwrap();
        read_frame(&mut raw, 1 << 24).expect("the daemon must answer")
    };
    let default = answer(0);
    assert!(
        matches!(Response::decode(&default).unwrap(), Response::Matrix(m) if m.rsus.len() == 100)
    );
    assert_eq!(answer(1 << 62), default);
    // The same connection still serves.
    assert_eq!(answer(0), default);
    shutdown(addr, handle);
}
