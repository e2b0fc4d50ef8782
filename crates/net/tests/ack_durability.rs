//! An acked upload survives SIGKILL: `vcpsd` holds each upload's ack
//! until the WAL has fsynced the record it logged, so killing the
//! daemon once every ack is read must leave every acked `(rsu, seq)` in
//! the log — under the default per-record policy, under `--flush-every
//! 64` with a burst that is not a multiple of the group, past the most
//! acks a connection holds, and across two connections.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use vcps_core::{BitArray, RsuId, Scheme};
use vcps_net::wire::{read_frame, write_frame, Response};
use vcps_obs::Obs;
use vcps_sim::{DurableOptions, DurableServer, PeriodUpload, ReceiveOutcome, SequencedUpload};

/// `vcpsd`'s default scheme (`--s 2 --load-factor 3.0 --seed 41`),
/// history weight and shard count, which recovery must repeat.
fn scheme() -> Scheme {
    Scheme::variable(2, 3.0, 41).unwrap()
}
const ALPHA: f64 = 1.0;
const SHARDS: usize = 4;

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("vcps-ack-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Upload `j`: a tag-5 frame from RSU `j` at sequence 1, distinct for
/// every `j`.
fn upload(j: u64) -> Vec<u8> {
    let ones = [j % 256, (j * 7 + 1) % 256, (j * 13 + 5) % 256].map(|i| i as usize);
    let mut bits = BitArray::new(256);
    for i in ones {
        bits.set(i);
    }
    SequencedUpload {
        seq: 1,
        upload: PeriodUpload {
            rsu: RsuId(j),
            counter: bits.count_ones() as u64,
            bits,
        },
    }
    .encode()
    .to_vec()
}

/// A running `vcpsd`. Dropping it SIGKILLs and reaps the process, so a
/// failing test never leaves a daemon behind.
struct Vcpsd(Child);

impl Drop for Vcpsd {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A `vcpsd` on an ephemeral port over `wal`, and its address.
fn spawn_vcpsd(dir: &Path, wal: &Path, extra: &[&str]) -> (Vcpsd, String) {
    let port_file = dir.join("vcpsd.port");
    let daemon = Vcpsd(
        Command::new(env!("CARGO_BIN_EXE_vcpsd"))
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .arg("--wal-dir")
            .arg(wal)
            .args(extra)
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn vcpsd"),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            if !addr.is_empty() {
                return (daemon, addr);
            }
        }
        assert!(Instant::now() < deadline, "vcpsd did not report its port");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Pipelines `frames` over one raw connection — every frame in one
/// write, on its own thread — while it reads one ack per frame, and
/// returns how many of them acknowledged a fresh upload.
fn pipeline(addr: &str, frames: &[Vec<u8>]) -> u64 {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut burst = Vec::new();
    for frame in frames {
        write_frame(&mut burst, frame).unwrap();
    }
    std::thread::scope(|scope| {
        // Reading while the burst is written keeps a burst whose acks
        // outgrow the socket buffers from stalling the daemon.
        scope.spawn(|| (&stream).write_all(&burst).unwrap());
        let mut acks = BufReader::new(&stream);
        frames
            .iter()
            .map(
                |_| match Response::decode(&read_frame(&mut acks, 1 << 20).unwrap()) {
                    Ok(Response::Ack(ack)) => ack.fresh,
                    other => panic!("expected an ack, got {other:?}"),
                },
            )
            .sum()
    })
}

/// Sends `uploads` frames over `connections` connections (frame `j` on
/// connection `j % connections`), reads every ack, SIGKILLs the daemon
/// and recovers its WAL in process: every acked upload must be there.
fn acked_uploads_survive_sigkill(tag: &str, extra: &[&str], uploads: u64, connections: u64) {
    let dir = temp_dir(tag);
    let wal = dir.join("wal");
    let (mut daemon, addr) = spawn_vcpsd(&dir, &wal, extra);
    let frames: Vec<Vec<u8>> = (0..uploads).map(upload).collect();
    let acked: u64 = std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..connections)
            .map(|lane| {
                let lane: Vec<Vec<u8>> = frames
                    .iter()
                    .skip(lane as usize)
                    .step_by(connections as usize)
                    .cloned()
                    .collect();
                let addr = &addr;
                scope.spawn(move || pipeline(addr, &lane))
            })
            .collect();
        lanes.into_iter().map(|lane| lane.join().unwrap()).sum()
    });
    assert_eq!(acked, uploads, "every upload is fresh");

    daemon.0.kill().expect("SIGKILL vcpsd");
    daemon.0.wait().unwrap();

    let (mut recovered, _) = DurableServer::recover(
        scheme(),
        ALPHA,
        SHARDS,
        &wal,
        DurableOptions::log_only(),
        &Obs::disabled(),
    )
    .unwrap();
    assert_eq!(
        recovered.records_logged(),
        acked,
        "recovery must hold every acked upload"
    );
    for (j, frame) in frames.iter().enumerate() {
        assert_eq!(
            recovered.receive_sequenced_wire(frame).unwrap(),
            ReceiveOutcome::Duplicate,
            "acked upload from RSU {j} is missing after SIGKILL"
        );
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn grouped_acks_survive_sigkill_at_100_uploads() {
    acked_uploads_survive_sigkill("grouped-100", &["--flush-every", "64"], 100, 1);
}

#[test]
fn grouped_acks_survive_sigkill_at_1000_uploads() {
    acked_uploads_survive_sigkill("grouped-1000", &["--flush-every", "64"], 1000, 1);
}

/// 5,000 uploads on one connection, more than the 1,456 acks a
/// connection holds: a slow fsync makes it wait for the oldest held ack
/// at that bound before the kill.
#[test]
fn grouped_acks_survive_sigkill_past_the_held_bound() {
    acked_uploads_survive_sigkill("grouped-5000", &["--flush-every", "64"], 5000, 1);
}

#[test]
fn per_record_acks_survive_sigkill() {
    acked_uploads_survive_sigkill("per-record", &[], 100, 1);
}

#[test]
fn acks_on_two_connections_survive_sigkill() {
    acked_uploads_survive_sigkill("two-connections", &["--flush-every", "64"], 1000, 2);
}
