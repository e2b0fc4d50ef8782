//! What every workload shares: the deployment settings `vcpsd` runs
//! with, the in-process shadow server, answer checks and the result of
//! one workload run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use vcps_core::{RsuId, Scheme};
use vcps_hash::splitmix64;
use vcps_net::wire::{estimate_bits, AckSummary, WireMatrix};
use vcps_obs::Obs;
use vcps_sim::{
    DurableOptions, DurableServer, FlushPolicy, OdMatrix, ReceiveOutcome, SequencedUpload,
    SequencedUploadRef, ShardedServer, SimError,
};

use crate::trace::{Layer, Ledger, Tracer};

/// `vcpsd`'s default scheme parameter `s`.
pub const SCHEME_S: usize = 2;
/// `vcpsd`'s default variable-sizing load factor.
pub const LOAD_FACTOR: f64 = 3.0;
/// `vcpsd`'s default history EWMA weight.
pub const ALPHA: f64 = 1.0;
/// `vcpsd`'s default ingest shard count.
pub const SHARDS: usize = 4;
/// `vcpsd`'s default O–D query worker count.
pub const OD_THREADS: usize = 4;
/// RSUs per `BatchUpload` frame.
pub const BATCH_RSUS: usize = 64;

/// Where a run builds, writes and finds things.
#[derive(Debug, Clone)]
pub struct Env {
    /// The `vcpsd` binary.
    pub vcpsd: PathBuf,
    /// Scratch space for WAL directories and span files.
    pub work: PathBuf,
    /// The workload seed.
    pub seed: u64,
    /// The `--seconds` budget.
    pub seconds: u64,
}

impl Env {
    /// The scheme key `vcpsd` receives as `--seed`, derived from the
    /// workload seed.
    #[must_use]
    pub fn scheme_key(&self) -> u64 {
        splitmix64(self.seed ^ 0x5EED_5C4E_3E00) >> 16
    }

    /// The scheme the daemon runs with.
    #[must_use]
    pub fn scheme(&self) -> Scheme {
        Scheme::variable(SCHEME_S, LOAD_FACTOR, self.scheme_key()).expect("valid scheme")
    }

    /// `vcpsd`'s flags: its defaults plus loopback, the scheme key and
    /// `extra` deployment settings.
    #[must_use]
    pub fn flags(&self, extra: &[String]) -> Vec<String> {
        let mut flags = vec![
            "--addr".to_string(),
            "127.0.0.1:0".to_string(),
            "--seed".to_string(),
            self.scheme_key().to_string(),
        ];
        flags.extend_from_slice(extra);
        flags
    }
}

/// Which pass over a workload this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics: no spans, volatile shadow.
    Untraced,
    /// Per-layer metrics: spans and, for durable workloads, a durable
    /// shadow. `vcpsd` runs exactly as untraced.
    Traced,
    /// One set-up under `vcpsd --obs`, for its exit counters. Kept
    /// apart because `--obs` slows the daemon's O–D path about 2.4×,
    /// which would distort the traced ledger.
    Obs,
}

impl Mode {
    /// `--obs` when this is the obs pass.
    #[must_use]
    pub fn obs_flag(self) -> Vec<String> {
        if self == Mode::Obs {
            vec!["--obs".to_string()]
        } else {
            Vec::new()
        }
    }
}

/// Removes a scratch directory, ignoring a missing one.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Operations attempted and failed, with the first few failures.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Client operations attempted (frames, queries, rollovers,
    /// restarts).
    pub attempted: u64,
    /// Error responses, transport errors and shadow mismatches.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations.
    pub fn fail(&mut self, n: u64, note: impl Into<String>) {
        self.failed += n;
        if self.notes.len() < 8 {
            self.notes.push(note.into());
        }
    }

    /// Checks `ok`, counting one failure described by `note` if not.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, note());
        }
    }
}

/// The in-process reference: a volatile [`ShardedServer`] fed every
/// frame the daemon got, in the daemon's order, plus — in the traced
/// run — a [`DurableServer`] on this disk whose answers are the ones
/// checked, so WAL layers are timed here too.
pub struct Shadow {
    volatile: ShardedServer,
    durable: Option<(DurableServer, PathBuf)>,
}

impl Shadow {
    /// A shadow with the daemon's deployment settings; durable (in
    /// `dir`, with `flush_every` group commit) when `durable` is set.
    ///
    /// # Errors
    ///
    /// Construction failures.
    pub fn new(
        env: &Env,
        durable: Option<PathBuf>,
        flush_every: Option<u64>,
    ) -> Result<Self, String> {
        let volatile = ShardedServer::new(env.scheme(), ALPHA, SHARDS).map_err(sim)?;
        let durable = match durable {
            Some(dir) => {
                let mut options = DurableOptions::log_only();
                if let Some(n) = flush_every {
                    options = options.with_flush(FlushPolicy::EveryRecords(n));
                }
                let server = DurableServer::create(
                    env.scheme(),
                    ALPHA,
                    SHARDS,
                    &dir,
                    options,
                    &Obs::disabled(),
                )
                .map_err(sim)?;
                Some((server, dir))
            }
            None => None,
        };
        Ok(Self { volatile, durable })
    }

    /// The server whose answers are checked.
    #[must_use]
    pub fn server(&self) -> &ShardedServer {
        match &self.durable {
            Some((d, _)) => d.server(),
            None => &self.volatile,
        }
    }

    /// Feeds `BatchUpload` wire frames (`DurableServer::receive_batch_wire`
    /// when durable, `ShardedServer::receive_batch_wire` otherwise).
    ///
    /// # Errors
    ///
    /// Frames the server rejects.
    pub fn ingest_batches(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<usize>,
        request: u64,
        frames: &[Vec<u8>],
    ) -> Result<Vec<ReceiveOutcome>, String> {
        let volatile = &mut self.volatile;
        let shard_ingest = |v: &mut ShardedServer| -> Result<Vec<ReceiveOutcome>, SimError> {
            let mut out = Vec::new();
            for f in frames {
                out.extend(v.receive_batch_wire(f)?);
            }
            Ok(out)
        };
        match &mut self.durable {
            Some((d, _)) => {
                let (outcomes, span) =
                    tracer.shadow("durable.ingest", Layer::Durable, parent, request, || {
                        let mut out = Vec::new();
                        for f in frames {
                            out.extend(d.receive_batch_wire(f)?);
                        }
                        Ok::<_, SimError>(out)
                    });
                let (_, _) = tracer.shadow("shard.ingest", Layer::Shard, span, request, || {
                    shard_ingest(volatile)
                });
                outcomes.map_err(sim)
            }
            None => shard_ingest(volatile).map_err(sim),
        }
    }

    /// Feeds tag-5 `SequencedUpload` frames: the daemon's durable path
    /// (`SequencedUpload::decode` + `DurableServer::receive_sequenced`)
    /// when durable, and the zero-copy `receive_sequenced_ref` on the
    /// volatile server (timed as `shard.ingest`).
    ///
    /// # Errors
    ///
    /// Frames the server rejects.
    pub fn ingest_sequenced(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<usize>,
        request: u64,
        frames: &[Vec<u8>],
    ) -> Result<Vec<ReceiveOutcome>, String> {
        let volatile = &mut self.volatile;
        let shard_ingest = |v: &mut ShardedServer| -> Result<Vec<ReceiveOutcome>, SimError> {
            frames
                .iter()
                .map(|f| Ok(v.receive_sequenced_ref(&SequencedUploadRef::decode_ref(f)?)))
                .collect()
        };
        match &mut self.durable {
            Some((d, _)) => {
                let (outcomes, span) =
                    tracer.shadow("durable.ingest", Layer::Durable, parent, request, || {
                        frames
                            .iter()
                            .map(|f| d.receive_sequenced(SequencedUpload::decode(f)?))
                            .collect::<Result<Vec<_>, SimError>>()
                    });
                let (_, _) = tracer.shadow("shard.ingest", Layer::Shard, span, request, || {
                    shard_ingest(volatile)
                });
                outcomes.map_err(sim)
            }
            None => {
                let (outcomes, _) =
                    tracer.shadow("shard.ingest", Layer::Shard, parent, request, || {
                        shard_ingest(volatile)
                    });
                outcomes.map_err(sim)
            }
        }
    }

    /// Closes the period on the shadow and returns its size list in the
    /// daemon's response form.
    ///
    /// # Errors
    ///
    /// Sizing or checkpoint failures.
    pub fn finish_period(
        &mut self,
        tracer: &mut Tracer,
        parent: Option<usize>,
        request: u64,
    ) -> Result<Vec<(u64, u64)>, String> {
        let volatile = &mut self.volatile;
        let sizes = match &mut self.durable {
            Some((d, _)) => {
                let (sizes, span) =
                    tracer.shadow("durable.rollover", Layer::Durable, parent, request, || {
                        d.finish_period()
                    });
                let (_, _) = tracer.shadow("shard.rollover", Layer::Shard, span, request, || {
                    volatile.finish_period()
                });
                sizes
            }
            None => volatile.finish_period(),
        }
        .map_err(sim)?;
        Ok(sizes.into_iter().map(|(r, m)| (r.0, m as u64)).collect())
    }

    /// Removes the durable shadow's directory.
    pub fn cleanup(self) {
        if let Some((d, dir)) = self.durable {
            drop(d);
            remove_dir(&dir);
        }
    }
}

/// Formats a [`SimError`].
#[must_use]
pub fn sim(e: SimError) -> String {
    e.to_string()
}

/// Whether the daemon's ack equals the shadow's outcomes.
#[must_use]
pub fn ack_matches(ack: &AckSummary, outcomes: &[ReceiveOutcome]) -> bool {
    *ack == AckSummary::from_outcomes(outcomes)
}

/// Compares a matrix off the wire with the shadow's, bit for bit;
/// returns the number of differing entries (a different RSU list counts
/// as every entry differing).
#[must_use]
pub fn matrix_mismatches(wire: &WireMatrix, shadow: &OdMatrix) -> usize {
    let ids: Vec<u64> = shadow.rsus().iter().map(|r| r.0).collect();
    if wire.rsus != ids {
        return wire.entries.len().max(1);
    }
    let n = ids.len();
    let mut k = 0;
    let mut bad = 0;
    for i in 0..n {
        for j in i + 1..n {
            let same = match (&wire.entries[k], shadow.at(i, j)) {
                (Some(a), Some(b)) => estimate_bits(a) == estimate_bits(b),
                (None, None) => true,
                _ => false,
            };
            bad += usize::from(!same);
            k += 1;
        }
    }
    bad
}

/// Array sizes keyed by RSU from a size list.
#[must_use]
pub fn sizes_by_rsu(sizes: &[(u64, u64)]) -> BTreeMap<RsuId, usize> {
    sizes.iter().map(|&(r, m)| (RsuId(r), m as usize)).collect()
}

/// End-to-end metrics in the benchmark's schema, with the samples they
/// come from.
#[derive(Debug, Default, Clone)]
pub struct EndToEnd {
    /// Set-up time samples, seconds.
    pub setup_s: Vec<f64>,
    /// The workload's primary latency samples, milliseconds.
    pub latency_ms: Vec<f64>,
    /// The workload's work rate per second, one sample per unit of work
    /// (period or burst).
    pub rate_per_s: Vec<f64>,
    /// Spawn-to-first-answer samples, each on a daemon's final WAL.
    pub recover_s: Vec<f64>,
    /// Mean encoded upload bytes per RSU upload.
    pub upload_bytes_per_rsu: f64,
    /// The peak resident set (`VmHWM`, MiB) of each daemon that served
    /// the workload, read just before its shutdown.
    pub peak_rss_mib: Vec<f64>,
}

/// One workload run.
#[derive(Debug, Default)]
pub struct Run {
    /// The end-to-end figures.
    pub e2e: EndToEnd,
    /// Workload-specific figures under their own names, printed
    /// for people: `(name, value, unit)`.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// The closed ledger and the unit it is normalised to (traced runs).
    pub ledger: Option<(Ledger, f64, &'static str)>,
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Workload parameters for the provenance record.
    pub params: Vec<(&'static str, String)>,
    /// The flags `vcpsd` ran with.
    pub daemon_flags: Vec<String>,
    /// What the latency p50, latency p90 and rate metrics are called in
    /// this workload.
    pub aliases: [&'static str; 3],
    /// The obs pass: `vcpsd --obs` exit counters and the uploads the
    /// daemon received.
    pub obs: Option<(BTreeMap<String, u64>, u64)>,
}

/// Pairs re-asked before shutdown and after each restart.
const PROBE_PAIRS: u64 = 32;

/// Daemon counters from the `--obs` exit snapshot attached to the
/// traced run as `obs.<name>`.
pub const OBS_COUNTERS: [&str; 6] = [
    "net.frames.in",
    "net.bytes.out",
    "batch.uploads",
    "od_matrix.pairs",
    "wal.append",
    "wal.fsync",
];

/// Seeded distinct RSU pairs `(a, b)`, `a < b`, over `0..nodes`.
#[must_use]
pub fn probe_pairs(nodes: usize, seed: u64) -> Vec<(u64, u64)> {
    let n = nodes as u64;
    let mut pairs: Vec<(u64, u64)> = (0..PROBE_PAIRS * 4)
        .map(|i| {
            let r = splitmix64(seed ^ 0x0000_9B0B ^ (i << 20));
            let a = r % n;
            let b = (a + 1 + (r >> 32) % (n - 1)) % n;
            (a.min(b), a.max(b))
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs.truncate(PROBE_PAIRS as usize);
    pairs
}

/// Asks the daemon every probe pair and checks each answer against the
/// shadow; returns the daemon's answers as bit patterns.
///
/// # Errors
///
/// Transport failures.
pub fn ask_pairs(
    client: &mut vcps_net::NetClient,
    shadow: &ShardedServer,
    probes: &[(u64, u64)],
    tally: &mut Tally,
) -> Result<Vec<Vec<u64>>, String> {
    let mut answers = Vec::with_capacity(probes.len());
    for &(a, b) in probes {
        tally.attempt(1);
        let got = client
            .pair_query(a, b)
            .map_err(|e| format!("pair_query({a}, {b}): {e}"))?;
        let want = shadow
            .estimate_or_degraded(RsuId(a), RsuId(b))
            .map_err(sim)?;
        tally.check(estimate_bits(&got) == estimate_bits(&want), || {
            format!("pair ({a}, {b}) differs from the shadow")
        });
        answers.push(estimate_bits(&got));
    }
    Ok(answers)
}

/// Restarts a durable daemon on its final WAL `restarts` times. It
/// recovers inside `Daemon::bind`, before it listens, so each sample
/// runs from spawning `vcpsd` to its first answered request. Every
/// probe pair must then answer as `reference` says.
///
/// # Errors
///
/// Spawn and transport failures.
pub fn restart_and_probe(
    env: &Env,
    flags: &[String],
    restarts: usize,
    probes: &[(u64, u64)],
    reference: &[Vec<u64>],
    tally: &mut Tally,
) -> Result<Vec<f64>, String> {
    let mut samples = Vec::with_capacity(restarts);
    for _ in 0..restarts {
        tally.attempt(1);
        let daemon = crate::daemon::Vcpsd::spawn(&env.vcpsd, flags)?;
        let mut client = daemon.connect()?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        samples.push(daemon.spawned.elapsed().as_secs_f64());
        for (&(a, b), want) in probes.iter().zip(reference) {
            tally.attempt(1);
            let got = client
                .pair_query(a, b)
                .map_err(|e| format!("pair_query({a}, {b}) after restart: {e}"))?;
            tally.check(estimate_bits(&got) == *want, || {
                format!("pair ({a}, {b}) changed across the restart")
            });
        }
        drop(client);
        daemon.shutdown()?;
    }
    Ok(samples)
}

/// The daemon's WAL file size in `dir`.
#[must_use]
pub fn wal_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(vcps_sim::durable::WAL_FILE)).map_or(0, |m| m.len())
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

/// Times `DurableServer::recover` on a copy of the daemon's WAL
/// directory; returns milliseconds and the records replayed.
///
/// # Errors
///
/// Copy or recovery failures.
pub fn shadow_recover(
    env: &Env,
    wal_dir: &Path,
    flush_every: Option<u64>,
) -> Result<(f64, u64), String> {
    let copy = env.work.join("recover-copy");
    remove_dir(&copy);
    copy_dir(wal_dir, &copy).map_err(|e| format!("copy WAL: {e}"))?;
    let mut options = DurableOptions::log_only();
    if let Some(n) = flush_every {
        options = options.with_flush(FlushPolicy::EveryRecords(n));
    }
    let start = std::time::Instant::now();
    let (server, report) = DurableServer::recover(
        env.scheme(),
        ALPHA,
        SHARDS,
        &copy,
        options,
        &Obs::disabled(),
    )
    .map_err(sim)?;
    let ms = start.elapsed().as_secs_f64() * 1e3;
    drop(server);
    remove_dir(&copy);
    Ok((ms, report.replayed_records))
}

/// Attaches the daemon's exit counters as `obs.<name>` (0 if absent).
pub fn insert_obs(layers: &mut BTreeMap<String, f64>, counters: &BTreeMap<String, u64>) {
    for name in OBS_COUNTERS {
        layers.insert(
            format!("obs.{name}"),
            counters.get(name).copied().unwrap_or(0) as f64,
        );
    }
}
