//! `metro_day`: a 23×23-grid `build_metro` city whose six diurnal
//! periods repeat day after day against a durable `vcpsd`.
//!
//! Each period the RSUs encode their vehicles' reports at the sizes the
//! daemon returned at the last rollover, upload them as 64-RSU
//! `BatchUpload` frames over one connection, fetch the full O–D matrix,
//! score it against exact pair truth, and roll the period over. The
//! answer latency runs from writing the first upload frame to holding
//! the decoded matrix.

use std::collections::BTreeMap;
use std::time::Instant;

use vcps_core::{RsuId, RsuSketch, Scheme, VehicleIdentity};
use vcps_hash::splitmix64;
use vcps_net::wire::{self, Response};
use vcps_net::NetClient;
use vcps_sim::metro::{build_metro, MetroConfig, MetroLayout};
use vcps_sim::{BatchUpload, PeriodUpload, SequencedUpload};

use crate::common::{
    ack_matches, ask_pairs, matrix_mismatches, probe_pairs, remove_dir, restart_and_probe,
    shadow_recover, sim, sizes_by_rsu, wal_bytes, Env, Mode, Run, Shadow, Tally, BATCH_RSUS,
    OD_THREADS,
};
use crate::daemon::Vcpsd;
use crate::trace::{Layer, Ledger, Tracer};

/// Grid side: 23 × 23 = 529 RSUs.
const SIDE: usize = 23;
/// Diurnal periods per simulated day.
const PERIODS_PER_DAY: usize = 6;
/// Base trips per period before the diurnal multiplier.
const TRIPS: f64 = 20_000.0;
/// MSA iterations per period's assignment.
const MSA_ITERATIONS: usize = 2;
/// Pairs are scored when their truth reaches the `metro` bin's floor.
const TRUTH_FLOOR: f64 = 20.0;
/// Daemons per run, each on a fresh WAL with one warm-up day; the
/// timed days are shared out among them.
const SEGMENTS: u64 = 5;
/// Restarts on each daemon's final WAL (median over the run reported).
const RESTARTS: usize = 2;
/// Seed of the city's network, demand and routes.
const CITY_SEED: u64 = 0x000C_17F0;
/// Timed days per 30 s of `--seconds`.
const DAYS_PER_30_S: u64 = 35;
/// The fewest timed days: 100 answers, ten beyond p90.
const MIN_DAYS: u64 = 17;

/// One diurnal period's synthesised traffic.
struct Period {
    /// Each vehicle with the distinct RSUs its route passes.
    vehicles: Vec<(VehicleIdentity, Vec<u32>)>,
    /// Reports the period's vehicles make.
    reports: u64,
    /// `(a, b, truth)` for pairs `a < b` at or above the truth floor.
    scored: Vec<(u32, u32, f64)>,
}

/// The synthesised city.
pub struct Input {
    nodes: usize,
    periods: Vec<Period>,
    /// Period 0's planning sizes, before the daemon has any history.
    first_sizes: Vec<usize>,
    /// Timed days on each of the run's daemons.
    days_per_segment: u64,
}

/// Synthesises the city (untimed). The road network, demand and routes
/// are the same for every seed, so every seed measures the same amount
/// of work; `env.seed` picks the vehicles' identities and keys, and
/// with them every bit uploaded and every answer.
#[must_use]
pub fn synthesize(env: &Env) -> Input {
    let config = MetroConfig {
        rsus: SIDE * SIDE,
        periods: PERIODS_PER_DAY,
        total_trips: TRIPS,
        vehicles_per_unit: 1.0,
        msa_iterations: MSA_ITERATIONS,
        zero_zone_fraction: 0.1,
        layout: MetroLayout::Grid,
        seed: CITY_SEED,
    };
    let city = build_metro(&config);
    let nodes = city.net.node_count();
    let key_seed = splitmix64(env.seed ^ 0x0000_0CA7);
    let periods = city
        .periods
        .iter()
        .zip(&city.truth)
        .map(|(trips, truth)| {
            let mut reports = 0u64;
            let vehicles = trips
                .iter()
                .map(|t| {
                    let mut visited: Vec<u32> = t.route.iter().map(|&n| n as u32).collect();
                    visited.sort_unstable();
                    visited.dedup();
                    reports += visited.len() as u64;
                    let identity = VehicleIdentity::from_raw(t.id, splitmix64(key_seed ^ t.id));
                    (identity, visited)
                })
                .collect();
            let mut scored = Vec::new();
            for a in 0..nodes {
                for b in a + 1..nodes {
                    let n = truth[a * nodes + b];
                    if n >= TRUTH_FLOOR {
                        scored.push((a as u32, b as u32, n));
                    }
                }
            }
            Period {
                vehicles,
                reports,
                scored,
            }
        })
        .collect();
    let scheme = env.scheme();
    let first_sizes = city
        .initial_history
        .iter()
        .map(|&v| scheme.array_size_for(v).expect("sizeable volume"))
        .collect();
    Input {
        nodes,
        periods,
        first_sizes,
        days_per_segment: (env.seconds * DAYS_PER_30_S)
            .div_ceil(30)
            .max(MIN_DAYS)
            .div_ceil(SEGMENTS),
    }
}

/// The workload parameters, for the provenance record.
#[must_use]
pub fn params(input: &Input) -> Vec<(&'static str, String)> {
    vec![
        ("rsus", input.nodes.to_string()),
        ("layout", format!("grid {SIDE}x{SIDE}")),
        ("periods_per_day", PERIODS_PER_DAY.to_string()),
        ("base_trips_per_period", TRIPS.to_string()),
        ("msa_iterations", MSA_ITERATIONS.to_string()),
        ("daemons", SEGMENTS.to_string()),
        ("warmup_days_per_daemon", "1".to_string()),
        ("timed_days_per_daemon", input.days_per_segment.to_string()),
        ("batch_rsus", BATCH_RSUS.to_string()),
        ("truth_floor", TRUTH_FLOOR.to_string()),
    ]
}

/// RSU-side encode: every vehicle reports to every RSU it passes, into
/// arrays of the given sizes (`Scheme::report_index` +
/// `RsuSketch::record`).
fn encode(scheme: &Scheme, period: &Period, sizes: &[usize]) -> Result<Vec<RsuSketch>, String> {
    let m_o = sizes.iter().copied().max().unwrap_or(2);
    let mut sketches = sizes
        .iter()
        .enumerate()
        .map(|(j, &m)| RsuSketch::new(RsuId(j as u64), m))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    for (vehicle, visited) in &period.vehicles {
        for &j in visited {
            let j = j as usize;
            let index = scheme.report_index(vehicle, RsuId(j as u64), sizes[j], m_o);
            sketches[j].record(index).map_err(|e| e.to_string())?;
        }
    }
    Ok(sketches)
}

/// The period's upload frames: 64-RSU `BatchUpload`s at sequence `seq`.
fn batch_frames(sketches: &[RsuSketch], seq: u64) -> Result<Vec<Vec<u8>>, String> {
    sketches
        .chunks(BATCH_RSUS)
        .map(|chunk| {
            let uploads = chunk
                .iter()
                .map(|s| SequencedUpload {
                    seq,
                    upload: PeriodUpload {
                        rsu: s.id(),
                        counter: s.count(),
                        bits: s.bits().clone(),
                    },
                })
                .collect();
            Ok(BatchUpload::new(uploads).map_err(sim)?.encode().to_vec())
        })
        .collect()
}

/// Accumulators over the timed periods.
#[derive(Default)]
struct Totals {
    answers_ms: Vec<f64>,
    answer_ns: u128,
    cycle_rates: Vec<f64>,
    periods: u64,
    uploads: u64,
    upload_bytes: u64,
    fresh: u64,
    frames_acked: u64,
    error_sum: f64,
    error_pairs: u64,
    reports: u64,
    od_response_bytes: u64,
    od_pairs: u64,
}

/// One connected daemon with its shadow and the RSUs' current sizes.
struct Connection<'a> {
    input: &'a Input,
    scheme: Scheme,
    client: NetClient,
    shadow: Shadow,
    sizes: Vec<usize>,
    seq: u64,
    /// The request id of this daemon's first period, so that span ids
    /// stay distinct across the run's daemons.
    first_request: u64,
    /// Uploads this daemon has received.
    uploads: u64,
}

impl Connection<'_> {
    /// Runs period `p` of the day. Returns the time the benchmark spent
    /// verifying (shadow and scoring), which set-up excludes.
    fn period(
        &mut self,
        p: usize,
        tracer: &mut Tracer,
        mut totals: Option<&mut Totals>,
        tally: &mut Tally,
    ) -> Result<u128, String> {
        let period = &self.input.periods[p];
        let request = self.first_request + self.seq;

        let t = Instant::now();
        let sketches = encode(&self.scheme, period, &self.sizes)?;
        let encoded = Instant::now();
        tracer.side("core.encode", Layer::Core, request, t, encoded);
        let frames = batch_frames(&sketches, self.seq)?;
        tracer.side(
            "protocol.encode",
            Layer::Protocol,
            request,
            encoded,
            Instant::now(),
        );
        drop(sketches);

        tally.attempt(frames.len() as u64 + 2);
        let t0 = Instant::now();
        let ack = self.client.ingest_pipelined(&frames);
        let t1 = Instant::now();
        let matrix = self.client.od_query(0);
        let t2 = Instant::now();
        let ack = ack.map_err(|e| format!("ingest: {e}"))?;
        let matrix = matrix.map_err(|e| format!("od_query: {e}"))?;
        self.uploads += self.input.nodes as u64;
        let ingest_span = tracer.client("net.ingest", request, t0, t1);
        let od_span = tracer.client("net.od_query", request, t1, t2);

        let v0 = Instant::now();
        let outcomes = self
            .shadow
            .ingest_batches(tracer, ingest_span, request, &frames)?;
        tally.check(ack_matches(&ack, &outcomes), || {
            format!("metro period {request}: ack {ack:?} differs from the shadow")
        });
        let (expected, _) =
            tracer.shadow("shard.od_assembly", Layer::Shard, od_span, request, || {
                self.shadow.server().od_matrix_threads(OD_THREADS)
            });
        let expected = expected.map_err(sim)?;
        if tracer.enabled() {
            let (bytes, _) = tracer.shadow("net.od_encode", Layer::Net, od_span, request, || {
                wire::encode_matrix_response(&expected)
            });
            let (decoded, _) = tracer.shadow("net.od_decode", Layer::Net, od_span, request, || {
                Response::decode(&bytes)
            });
            tally.check(decoded.is_ok(), || {
                "shadow O–D response does not decode".into()
            });
            if let Some(t) = totals.as_deref_mut() {
                t.od_response_bytes += bytes.len() as u64;
            }
        }
        let bad = matrix_mismatches(&matrix, &expected);
        tally.check(bad == 0, || {
            format!("metro period {request}: {bad} O–D entries differ from the shadow")
        });
        let n = expected.len() as u64;
        drop(expected);
        let mut verify_ns = v0.elapsed().as_nanos();

        let t3 = Instant::now();
        let sizes = self.client.finish_period();
        let t4 = Instant::now();
        let sizes = sizes.map_err(|e| format!("finish_period: {e}"))?;
        let rollover_span = tracer.side("net.rollover", Layer::Net, request, t3, t4);
        let v1 = Instant::now();
        let expected_sizes = self.shadow.finish_period(tracer, rollover_span, request)?;
        tally.check(sizes == expected_sizes, || {
            format!("metro period {request}: rollover sizes differ from the shadow")
        });
        let next = sizes_by_rsu(&sizes);
        for (j, m) in self.sizes.iter_mut().enumerate() {
            *m = next.get(&RsuId(j as u64)).copied().unwrap_or(2).max(2);
        }

        if let Some(t) = totals {
            t.answers_ms.push((t2 - t0).as_secs_f64() * 1e3);
            t.answer_ns += (t2 - t0).as_nanos();
            t.cycle_rates
                .push(self.input.nodes as f64 / ((t2 - t0) + (t4 - t3)).as_secs_f64());
            t.periods += 1;
            t.uploads += self.input.nodes as u64;
            t.upload_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
            t.fresh += ack.fresh;
            t.frames_acked += ack.frames;
            t.reports += period.reports;
            t.od_pairs += n * n.saturating_sub(1) / 2;
            let index: BTreeMap<u64, usize> = matrix
                .rsus
                .iter()
                .enumerate()
                .map(|(i, &r)| (r, i))
                .collect();
            for &(a, b, truth) in &period.scored {
                let (Some(&i), Some(&j)) = (index.get(&u64::from(a)), index.get(&u64::from(b)))
                else {
                    continue;
                };
                if let Some(e) = matrix.at(i, j) {
                    t.error_sum += (e.n_c() - truth).abs() / truth;
                    t.error_pairs += 1;
                }
            }
        }
        verify_ns += v1.elapsed().as_nanos();
        self.seq += 1;
        Ok(verify_ns)
    }
}

/// Runs `metro_day` once in `mode`; `tracer` records only when traced.
///
/// The run is [`SEGMENTS`] daemons in turn, each on a fresh WAL: spawn,
/// one warm-up day (its set-up sample), its share of the timed days,
/// probes, an untimed shutdown and [`RESTARTS`] restarts on its WAL.
/// Spreading the timed days over several daemons keeps one process's
/// luck (memory placement, thread wake-ups) out of the run's medians.
///
/// # Errors
///
/// Transport failures and daemon errors (mismatches are tallied).
pub fn run(input: &Input, env: &Env, tracer: &mut Tracer, mode: Mode) -> Result<Run, String> {
    let traced = mode == Mode::Traced;
    let wal_dir = env.work.join("metro-wal");
    let mut extra = vec!["--wal-dir".to_string(), wal_dir.display().to_string()];
    extra.extend(mode.obs_flag());
    let flags = env.flags(&extra);
    let mut tally = Tally::default();
    let mut off = Tracer::new(false);
    let probes = probe_pairs(input.nodes, env.seed);
    let periods_per_segment = (1 + input.days_per_segment) * PERIODS_PER_DAY as u64;

    let mut totals = Totals::default();
    let mut setup_s = Vec::new();
    let mut peak_rss = Vec::new();
    let mut recover_s = Vec::new();
    let mut wal = 0u64;
    let mut uploads_received = 0u64;
    let mut recovery = None;
    for segment in 0..SEGMENTS {
        remove_dir(&wal_dir);
        let shadow_dir = traced.then(|| env.work.join("metro-shadow"));
        if let Some(dir) = &shadow_dir {
            remove_dir(dir);
        }
        let shadow = Shadow::new(env, shadow_dir, None)?;
        tally.attempt(1);
        let daemon = Vcpsd::spawn(&env.vcpsd, &flags)?;
        let mut client = daemon.connect()?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        let mut conn = Connection {
            input,
            scheme: env.scheme(),
            client,
            shadow,
            sizes: input.first_sizes.clone(),
            seq: 1,
            first_request: segment * periods_per_segment,
            uploads: 0,
        };

        // Set-up: spawn, then the first simulated day.
        let mut verify_ns = 0;
        for p in 0..PERIODS_PER_DAY {
            verify_ns += conn.period(p, &mut off, None, &mut tally)?;
        }
        setup_s.push((daemon.spawned.elapsed().as_nanos() - verify_ns) as f64 / 1e9);
        if mode == Mode::Obs {
            drop(conn.client);
            let counters = daemon.shutdown()?;
            remove_dir(&wal_dir);
            conn.shadow.cleanup();
            return Ok(Run {
                obs: Some((counters, conn.uploads)),
                tally,
                ..Run::default()
            });
        }

        for _ in 0..input.days_per_segment {
            for p in 0..PERIODS_PER_DAY {
                conn.period(p, tracer, Some(&mut totals), &mut tally)?;
            }
        }

        peak_rss.push(daemon.peak_rss_mib()?);
        let reference = ask_pairs(&mut conn.client, conn.shadow.server(), &probes, &mut tally)?;
        uploads_received += conn.uploads;
        drop(conn.client);
        daemon.shutdown()?;
        wal += wal_bytes(&wal_dir);
        if traced && segment + 1 == SEGMENTS {
            recovery = Some(shadow_recover(env, &wal_dir, None)?);
        }
        recover_s.extend(restart_and_probe(
            env, &flags, RESTARTS, &probes, &reference, &mut tally,
        )?);
        remove_dir(&wal_dir);
        conn.shadow.cleanup();
    }

    let mut run = Run {
        daemon_flags: flags,
        params: params(input),
        ..Run::default()
    };
    let t = &totals;
    run.e2e.setup_s = setup_s;
    run.e2e.latency_ms = t.answers_ms.clone();
    run.e2e.rate_per_s.clone_from(&t.cycle_rates);
    run.e2e.recover_s = recover_s;
    run.e2e.upload_bytes_per_rsu = t.upload_bytes as f64 / t.uploads as f64;
    run.e2e.peak_rss_mib = peak_rss;
    run.aliases = ["answer_p50_ms", "answer_p90_ms", "uploads_per_s"];
    run.named.push((
        "od_mre".to_string(),
        t.error_sum / t.error_pairs.max(1) as f64,
        "ratio",
    ));
    run.named
        .push(("od_scored_pairs".to_string(), t.error_pairs as f64, "count"));

    if traced {
        let l = &mut run.layers;
        let per_period = |ns: u64| ns as f64 / t.periods as f64 / 1e6;
        l.insert(
            "core.encode_ns_per_report".into(),
            tracer.total_ns("core.encode") as f64 / t.reports as f64,
        );
        l.insert(
            "protocol.upload_bytes".into(),
            t.upload_bytes as f64 / t.periods as f64,
        );
        l.insert("net.ingest_ms".into(), tracer.mean_ms("net.ingest"));
        l.insert("durable.ingest_ms".into(), tracer.mean_ms("durable.ingest"));
        l.insert(
            "shard.ingest_us_per_upload".into(),
            tracer.total_ns("shard.ingest") as f64 / t.uploads as f64 / 1e3,
        );
        let assembly_ns = tracer.total_ns("shard.od_assembly");
        l.insert("shard.od_assembly_ms".into(), per_period(assembly_ns));
        l.insert(
            "shard.od_pairs_per_s".into(),
            t.od_pairs as f64 / (assembly_ns as f64 / 1e9),
        );
        l.insert(
            "net.od_response_bytes".into(),
            t.od_response_bytes as f64 / t.periods as f64,
        );
        let encode_ns = tracer.total_ns("net.od_encode");
        let decode_ns = tracer.total_ns("net.od_decode");
        let query_ns = tracer.total_ns("net.od_query");
        l.insert("net.od_encode_ms".into(), per_period(encode_ns));
        l.insert("net.od_decode_ms".into(), per_period(decode_ns));
        l.insert("net.od_query_ms".into(), per_period(query_ns));
        l.insert(
            "net.od_wire_ms".into(),
            (query_ns as f64 - (assembly_ns + encode_ns + decode_ns) as f64)
                / t.periods as f64
                / 1e6,
        );
        l.insert(
            "durable.rollover_ms".into(),
            tracer.mean_ms("durable.rollover"),
        );
        l.insert(
            "net.ack_fresh_ratio".into(),
            t.fresh as f64 / t.frames_acked as f64,
        );
        l.insert(
            "durable.wal_bytes_per_upload".into(),
            wal as f64 / uploads_received as f64,
        );
        if let Some((ms, replayed)) = recovery {
            l.insert("durable.recover_ms".into(), ms);
            l.insert("durable.replayed_records".into(), replayed as f64);
        }
        let ledger = Ledger::close(t.answer_ns as i64, tracer.spans());
        run.ledger = Some((ledger, t.periods as f64, "period"));
    }
    run.tally = tally;
    Ok(run)
}
