//! `vcps-load` — loopback load generator and bench harness for `vcpsd`.
//!
//! Replays a synthetic city's upload frames against a daemon over one
//! or more TCP connections, measures uploads/s through the pipelined
//! ingest path, and (optionally) proves the daemon's answers are
//! bit-identical to an in-process `ShardedServer` fed the same wire
//! bytes.
//!
//! Two modes:
//!
//! * client mode (default): replay against an already-running daemon.
//!
//! ```text
//! cargo run --release -p vcps-net --bin vcps-load --
//!   --addr HOST:PORT          daemon address (required)
//!   [--connections N]         parallel replay streams (default 1)
//!   [--periods N]             batch frames per stream (default 32)
//!   [--rsus N]                city size (default 6)
//!   [--vehicles N]            city population (default 20000)
//!   [--city-seed N]           city RNG seed (default 17)
//!   [--s N] [--load-factor F] [--seed N]
//!                             scheme parameters — MUST match the
//!                             daemon's (default 2 / 3.0 / 41)
//!   [--expect-bit-identical]  compare the daemon's O-D matrix and a
//!                             pair query against a local reference;
//!                             exit non-zero on any bit drift
//!   [--shutdown]              send a shutdown frame when done
//! ```
//!
//! * bench mode (`--bench`): spawn an in-process daemon per
//!   connection count (1/2/4), each ingesting through the zero-copy
//!   borrowed path, and write the rows to `--out` (default
//!   BENCH_net.json). Every row carries its own bit-identity verdict;
//!   the CI gate refuses a file with any `false`.

use std::net::SocketAddr;
use std::time::Instant;

use vcps_core::{RsuId, Scheme};
use vcps_net::cli::Args;
use vcps_net::wire::estimate_bits;
use vcps_net::workload::{city_replay_frames, reference_order};
use vcps_net::{Daemon, DaemonConfig, NetClient, WireMatrix};
use vcps_sim::synthetic::SyntheticCity;
use vcps_sim::{OdMatrix, ShardedServer};

const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--connections",
    "--periods",
    "--rsus",
    "--vehicles",
    "--city-seed",
    "--s",
    "--load-factor",
    "--seed",
    "--out",
];

const SWITCHES: &[&str] = &["--bench", "--expect-bit-identical", "--shutdown"];

/// The flags only client mode reads (`--out` is bench mode's own).
const CLIENT_FLAGS: &[&str] = &[
    "--addr",
    "--connections",
    "--expect-bit-identical",
    "--shutdown",
];

/// The fixed visit-probability table, cycled to the requested city
/// size so every run of the same shape replays identical traffic.
const PROB_TABLE: [f64; 6] = [0.3, 0.5, 0.2, 0.4, 0.6, 0.1];

fn visit_probs(rsus: usize) -> Vec<f64> {
    (0..rsus)
        .map(|j| PROB_TABLE[j % PROB_TABLE.len()])
        .collect()
}

struct Workload {
    /// The scheme parameters `s`, load factor and seed.
    params: (usize, f64, u64),
    scheme: Scheme,
    city: SyntheticCity,
    periods: u64,
    rsus: usize,
    vehicles: u64,
}

impl Workload {
    fn from_args(args: &Args) -> Result<Self, String> {
        let params = (
            args.parsed_or("--s", 2)?,
            args.parsed_or("--load-factor", 3.0)?,
            args.parsed_or("--seed", 41)?,
        );
        let scheme = Scheme::variable(params.0, params.1, params.2)
            .map_err(|e| format!("invalid scheme parameters: {e}"))?;
        let rsus = args.parsed_or("--rsus", 6)?;
        let vehicles = args.parsed_or("--vehicles", 20_000)?;
        Ok(Workload {
            params,
            scheme,
            city: SyntheticCity::generate(
                &visit_probs(rsus),
                vehicles,
                args.parsed_or("--city-seed", 17)?,
            ),
            periods: args.parsed_or("--periods", 32)?,
            rsus,
            vehicles,
        })
    }

    fn frames(&self, connections: usize) -> Vec<Vec<Vec<u8>>> {
        city_replay_frames(&self.scheme, &self.city, self.periods, connections)
    }

    /// The in-process server every daemon answer is checked against.
    fn reference(&self, frames: &[Vec<Vec<u8>>]) -> ShardedServer {
        let mut reference =
            ShardedServer::new(self.scheme.clone(), 1.0, 4).expect("reference server");
        for frame in reference_order(frames) {
            reference
                .receive_batch_wire(frame)
                .expect("reference replay");
        }
        reference
    }
}

struct RunStats {
    uploads: u64,
    wire_bytes: u64,
    elapsed_s: f64,
}

impl RunStats {
    fn uploads_per_sec(&self) -> f64 {
        self.uploads as f64 / self.elapsed_s
    }

    fn mib_per_sec(&self) -> f64 {
        self.wire_bytes as f64 / (1024.0 * 1024.0) / self.elapsed_s
    }
}

/// Replays each stream over its own connection, concurrently, and
/// times the whole fan-in (connect through last ack).
fn replay(addr: SocketAddr, frames_by_connection: Vec<Vec<Vec<u8>>>) -> RunStats {
    let wire_bytes: u64 = frames_by_connection
        .iter()
        .flatten()
        .map(|f| f.len() as u64 + 4)
        .sum();
    let started = Instant::now();
    let handles: Vec<_> = frames_by_connection
        .into_iter()
        .map(|stream| {
            std::thread::spawn(move || {
                let mut client = NetClient::connect(addr).expect("connect to daemon");
                client
                    .ingest_pipelined(&stream)
                    .expect("replay stream")
                    .frames
            })
        })
        .collect();
    let uploads = handles
        .into_iter()
        .map(|h| h.join().expect("replay thread"))
        .sum();
    RunStats {
        uploads,
        wire_bytes,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

fn matrices_bit_identical(wire: &WireMatrix, local: &OdMatrix) -> bool {
    let local_rsus: Vec<u64> = local.rsus().iter().map(|r| r.0).collect();
    if wire.rsus != local_rsus {
        return false;
    }
    let n = local_rsus.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let same = match (wire.at(i, j), local.at(i, j)) {
                (Some(remote), Some(expected)) => estimate_bits(&remote) == estimate_bits(expected),
                (None, None) => true,
                _ => false,
            };
            if !same {
                eprintln!("vcps-load: pair ({i}, {j}) diverged from the reference");
                return false;
            }
        }
    }
    true
}

/// Queries the daemon's full O-D matrix plus one pair and compares both
/// against the local reference, bit for bit.
fn check_bit_identical(addr: SocketAddr, reference: &ShardedServer) -> bool {
    let mut client = NetClient::connect(addr).expect("connect for verification");
    let remote_matrix = client.od_query(2).expect("od query");
    let local_matrix = reference.od_matrix_threads(2).expect("local od matrix");
    if !matrices_bit_identical(&remote_matrix, &local_matrix) {
        return false;
    }
    let remote_pair = client.pair_query(1, 2).expect("pair query");
    let local_pair = reference
        .estimate_or_degraded(RsuId(1), RsuId(2))
        .expect("local pair");
    if estimate_bits(&remote_pair) != estimate_bits(&local_pair) {
        eprintln!("vcps-load: pair query (1, 2) diverged from the reference");
        return false;
    }
    true
}

fn row_json(
    connections: usize,
    path: &str,
    stats: &RunStats,
    bit_identical: Option<bool>,
) -> String {
    let verdict = match bit_identical {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    };
    format!(
        concat!(
            "{{\"connections\": {}, \"path\": \"{}\", \"uploads\": {}, ",
            "\"wire_bytes\": {}, \"elapsed_ms\": {:.3}, ",
            "\"uploads_per_sec\": {:.1}, \"mib_per_sec\": {:.2}, ",
            "\"bit_identical\": {}}}"
        ),
        connections,
        path,
        stats.uploads,
        stats.wire_bytes,
        stats.elapsed_s * 1_000.0,
        stats.uploads_per_sec(),
        stats.mib_per_sec(),
        verdict,
    )
}

fn bench(workload: &Workload, out: &str) {
    let mut rows = Vec::new();
    for connections in [1usize, 2, 4] {
        let frames = workload.frames(connections);
        let reference = workload.reference(&frames);
        let config = DaemonConfig::new(workload.scheme.clone());
        let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind bench daemon");
        let addr = daemon.local_addr();
        let handle = daemon.spawn();

        let stats = replay(addr, frames);
        let bit_identical = check_bit_identical(addr, &reference);

        let mut client = NetClient::connect(addr).expect("connect for shutdown");
        client.shutdown().expect("shutdown bench daemon");
        handle.join().expect("bench daemon exit");

        eprintln!(
            "net_loopback_replay connections={connections} path=borrowed \
             uploads/s={:.1} MiB/s={:.2} bit_identical={bit_identical}",
            stats.uploads_per_sec(),
            stats.mib_per_sec(),
        );
        rows.push(row_json(
            connections,
            "borrowed",
            &stats,
            Some(bit_identical),
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"net_loopback_replay\",\n",
            "  \"schema_version\": 1,\n",
            "  \"scheme\": {{\"s\": {}, \"load_factor\": {}, \"seed\": {}}},\n",
            "  \"city\": {{\"rsus\": {}, \"vehicles\": {}, \"periods\": {}}},\n",
            "  \"rows\": [\n    {}\n  ]\n",
            "}}\n"
        ),
        workload.params.0,
        workload.params.1,
        workload.params.2,
        workload.rsus,
        workload.vehicles,
        workload.periods,
        rows.join(",\n    "),
    );
    std::fs::write(out, &json).expect("write bench output");
    print!("{json}");
    eprintln!("vcps-load: wrote {out}");
}

/// What one client-mode run replays, and against which daemon.
struct Client {
    addr: SocketAddr,
    connections: usize,
    expect_bit_identical: bool,
    shutdown: bool,
}

impl Client {
    fn from_args(args: &Args) -> Result<Self, String> {
        let addr = args
            .parsed("--addr")?
            .ok_or("--addr HOST:PORT is required (or use --bench)")?;
        Ok(Client {
            addr,
            connections: args.parsed_or("--connections", 1)?,
            expect_bit_identical: args.has("--expect-bit-identical"),
            shutdown: args.has("--shutdown"),
        })
    }
}

fn client_mode(client: &Client, workload: &Workload) {
    let (addr, connections) = (client.addr, client.connections);
    let frames = workload.frames(connections);

    let reference = if client.expect_bit_identical {
        Some(workload.reference(&frames))
    } else {
        None
    };

    let stats = replay(addr, frames);
    let bit_identical = reference.as_ref().map(|r| check_bit_identical(addr, r));

    if client.shutdown {
        let mut client = NetClient::connect(addr).expect("connect for shutdown");
        client.shutdown().expect("send shutdown frame");
    }

    println!("{}", row_json(connections, "replay", &stats, bit_identical));
    if bit_identical == Some(false) {
        eprintln!("vcps-load: daemon answers diverged from the in-process reference");
        std::process::exit(1);
    }
}

/// The mode `args` select, with everything it reads checked up front.
enum Mode {
    Bench { out: String },
    Client(Client),
}

fn parse(argv: &[String]) -> Result<(Mode, Workload), String> {
    let args = Args::parse(argv, VALUE_FLAGS, SWITCHES)?;
    let bench = args.has("--bench");
    if let Some(flag) = CLIENT_FLAGS.iter().find(|f| bench && args.has(f)) {
        return Err(format!("{flag} does not apply to --bench"));
    }
    if !bench && args.has("--out") {
        return Err("--out needs --bench".to_string());
    }
    let mode = if bench {
        Mode::Bench {
            out: args.value("--out").unwrap_or("BENCH_net.json").to_string(),
        }
    } else {
        Mode::Client(Client::from_args(&args)?)
    };
    Ok((mode, Workload::from_args(&args)?))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let (mode, workload) = parse(&argv).unwrap_or_else(|e| {
        eprintln!("vcps-load: {e}; see the usage header in crates/net/src/bin/vcps_load.rs");
        std::process::exit(2);
    });
    match mode {
        Mode::Bench { out } => bench(&workload, &out),
        Mode::Client(client) => client_mode(&client, &workload),
    }
}
