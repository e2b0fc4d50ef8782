//! `vcpsd` — the VCPS measurement server as a TCP daemon.
//!
//! Stands up a [`Daemon`] on `--addr` and serves the wire protocol
//! until a shutdown frame arrives: upload frames (tags 3–6) feed the
//! sharded server through the zero-copy decode path, pair/O–D query
//! frames answer from the same state, and `--wal-dir` makes the whole
//! thing durable (recovering whatever the directory already holds,
//! acking each upload only once the WAL has fsynced it, and flushing the
//! WAL on orderly shutdown). Each connection is served by one thread;
//! the frames it has not read yet wait in the kernel's socket buffer.
//!
//! ```text
//! cargo run --release -p vcps-net --bin vcpsd --
//!   [--addr HOST:PORT]        listen address (default 127.0.0.1:0)
//!   [--port-file FILE]        write the bound address here (for CI
//!                             with an ephemeral port)
//!   [--s N]                   scheme parameter s (default 2)
//!   [--load-factor F]         variable-sizing load factor (default 3.0)
//!   [--seed N]                scheme seed (default 41)
//!   [--alpha F]               history EWMA weight (default 1.0)
//!   [--shards N]              ingest shards (default 4)
//!   [--od-threads N]          O–D query workers (default 4)
//!   [--wal-dir DIR]           durable mode: WAL + checkpoints here
//!   [--checkpoint-every N]    (durable) checkpoint interval in frames
//!   [--flush-every N]         (durable) write the WAL in groups of N
//!                             records (default: each record as it is
//!                             logged); an ack still waits until its
//!                             record is fsynced
//!   [--max-frame-bytes N]     frame cap, checked before allocation
//!   [--max-bytes-per-sec N]   per-connection ingest budget; a
//!                             connection over it sleeps, answering
//!                             nothing meanwhile
//!   [--read-timeout-ms N]     slow-loris progress window (default 10000)
//!   [--max-connections N]     concurrent connection budget
//!   [--obs]                   print an observability snapshot at exit
//! ```

use std::time::Duration;

use vcps_core::Scheme;
use vcps_net::cli::Args;
use vcps_net::{ConnectionLimits, Daemon, DaemonConfig};
use vcps_obs::Obs;
use vcps_sim::{DurableOptions, FlushPolicy};

const VALUE_FLAGS: &[&str] = &[
    "--addr",
    "--port-file",
    "--s",
    "--load-factor",
    "--seed",
    "--alpha",
    "--shards",
    "--od-threads",
    "--wal-dir",
    "--checkpoint-every",
    "--flush-every",
    "--max-frame-bytes",
    "--max-bytes-per-sec",
    "--read-timeout-ms",
    "--max-connections",
];

/// The options that only mean something to a durable daemon.
const DURABLE_FLAGS: &[&str] = &["--checkpoint-every", "--flush-every"];

/// The daemon config `args` describe.
fn config(args: &Args) -> Result<DaemonConfig, String> {
    let scheme = Scheme::variable(
        args.parsed_or("--s", 2)?,
        args.parsed_or("--load-factor", 3.0)?,
        args.parsed_or("--seed", 41)?,
    )
    .map_err(|e| format!("invalid scheme parameters: {e}"))?;
    let mut config = DaemonConfig::new(scheme);
    config.history_alpha = args.parsed_or("--alpha", 1.0)?;
    config.shards = args.parsed_or("--shards", 4)?;
    config.od_threads = args.parsed_or("--od-threads", 4)?;
    if args.has("--obs") {
        config.obs = Obs::enabled();
    }
    config.limits = ConnectionLimits {
        max_frame_bytes: args.parsed_or("--max-frame-bytes", 64 << 20)?,
        max_bytes_per_sec: args.parsed("--max-bytes-per-sec")?,
        read_timeout: Duration::from_millis(args.parsed_or("--read-timeout-ms", 10_000)?),
        max_connections: args.parsed_or("--max-connections", 64)?,
    };
    match args.value("--wal-dir") {
        Some(dir) => {
            config.wal_dir = Some(dir.into());
            let mut options = DurableOptions::log_only();
            if let Some(every) = args.parsed("--checkpoint-every")? {
                options = options.with_checkpoint_every(every);
            }
            if let Some(records) = args.parsed("--flush-every")? {
                options = options.with_flush(FlushPolicy::EveryRecords(records));
            }
            config.durable_options = options;
        }
        None => {
            if let Some(flag) = DURABLE_FLAGS.iter().find(|f| args.has(f)) {
                return Err(format!("{flag} needs --wal-dir"));
            }
        }
    }
    Ok(config)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let parsed = Args::parse(&argv, VALUE_FLAGS, &["--obs"])
        .and_then(|args| config(&args).map(|config| (args, config)));
    let (args, config) = parsed.unwrap_or_else(|e| {
        eprintln!("vcpsd: {e}; see the usage header in crates/net/src/bin/vcpsd.rs");
        std::process::exit(2);
    });
    let obs = config.obs.clone();

    let daemon = match Daemon::bind(args.value("--addr").unwrap_or("127.0.0.1:0"), config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("vcpsd: cannot start: {e}");
            std::process::exit(1);
        }
    };
    let bound = daemon.local_addr();
    if let Some(path) = args.value("--port-file") {
        std::fs::write(path, bound.to_string()).expect("write --port-file");
    }
    eprintln!("vcpsd listening on {bound}");

    daemon.run().expect("daemon run loop failed");
    eprintln!("vcpsd: orderly shutdown complete");
    if args.has("--obs") {
        let snap = obs.snapshot();
        for (name, value) in &snap.counters {
            eprintln!("  {name} = {value}");
        }
    }
}
