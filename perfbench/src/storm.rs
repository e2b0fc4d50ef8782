//! `upload_storm`: 4096 RSUs each send one tag-5 `SequencedUpload` (an
//! array of about 2 KB, sized by the scheme from its volume) per
//! period, pipelined over one connection into a durable `vcpsd` with
//! `--flush-every 64`, with a rollover between bursts. After the last
//! burst the daemon is shut down (untimed) and restarted on the same
//! WAL.
//!
//! The timed work comes in cycles of [`BURSTS`] bursts on a fresh WAL,
//! so the WAL a restart recovers is the same size on every run however
//! fast ingest is.

use std::time::Instant;

use vcps_core::{RsuId, RsuSketch};
use vcps_hash::{splitmix64, VehicleIdentity};
use vcps_sim::{PeriodUpload, SequencedUpload};

use crate::common::{
    ack_matches, ask_pairs, probe_pairs, remove_dir, restart_and_probe, shadow_recover, Env, Mode,
    Run, Shadow, Tally,
};
use crate::daemon::Vcpsd;
use crate::trace::{Ledger, Tracer};

/// RSUs in the storm.
const RSUS: usize = 4096;
/// Per-RSU volumes are drawn from this range; the scheme sizes them to
/// 1–4 KB arrays, about 2 KB on average.
const VOLUME: (u64, u64) = (2_000, 6_000);
/// Group commit every this many WAL records.
const FLUSH_EVERY: u64 = 64;
/// Bursts per cycle: one warm-up burst and rollover, then 25 timed.
const BURSTS: u64 = 26;
/// Cycles per 30 s of `--seconds`.
const CYCLES_PER_30_S: u64 = 6;
/// The fewest cycles: 100 timed bursts, ten beyond p90.
const MIN_CYCLES: u64 = 4;

/// The synthesised RSU uploads.
pub struct Input {
    uploads: Vec<PeriodUpload>,
    cycles: u64,
}

/// Synthesises every RSU's period upload for `env.seed` (untimed): each
/// RSU records its own vehicles' reports into an array the scheme
/// sizes from its volume.
#[must_use]
pub fn synthesize(env: &Env) -> Input {
    let scheme = env.scheme();
    let seed = splitmix64(env.seed ^ 0x0057_0A11);
    let volumes: Vec<u64> = (0..RSUS as u64)
        .map(|j| VOLUME.0 + splitmix64(seed ^ j) % (VOLUME.1 - VOLUME.0))
        .collect();
    let sizes: Vec<usize> = volumes
        .iter()
        .map(|&v| scheme.array_size_for(v as f64).expect("sizeable volume"))
        .collect();
    let m_o = sizes.iter().copied().max().expect("RSUs");
    let uploads = (0..RSUS)
        .map(|j| {
            let rsu = RsuId(j as u64);
            let mut sketch = RsuSketch::new(rsu, sizes[j]).expect("valid size");
            for k in 0..volumes[j] {
                let id = (j as u64) << 32 | k;
                let vehicle = VehicleIdentity::from_raw(id, splitmix64(seed ^ id));
                let index = scheme.report_index(&vehicle, rsu, sizes[j], m_o);
                sketch.record(index).expect("index in range");
            }
            PeriodUpload {
                rsu,
                counter: sketch.count(),
                bits: sketch.bits().clone(),
            }
        })
        .collect();
    Input {
        uploads,
        cycles: (env.seconds * CYCLES_PER_30_S).div_ceil(30).max(MIN_CYCLES),
    }
}

/// The workload parameters, for the provenance record.
#[must_use]
pub fn params(input: &Input) -> Vec<(&'static str, String)> {
    vec![
        ("rsus", RSUS.to_string()),
        ("volume_range", format!("{}..{}", VOLUME.0, VOLUME.1)),
        ("frame_tag", "5 (SequencedUpload)".to_string()),
        ("flush_every", FLUSH_EVERY.to_string()),
        ("bursts_per_cycle", BURSTS.to_string()),
        ("warmup_bursts_per_cycle", "1".to_string()),
        ("cycles", input.cycles.to_string()),
        ("connections", "1".to_string()),
    ]
}

/// One burst's tag-5 frames at sequence `seq`.
fn burst_frames(input: &Input, seq: u64) -> Vec<Vec<u8>> {
    input
        .uploads
        .iter()
        .map(|u| {
            SequencedUpload {
                seq,
                upload: u.clone(),
            }
            .encode()
            .to_vec()
        })
        .collect()
}

/// Runs `upload_storm` once in `mode`; `tracer` records only when
/// traced. The obs pass is one cycle of two bursts.
///
/// # Errors
///
/// Transport failures and daemon errors (mismatches are tallied).
pub fn run(input: &Input, env: &Env, tracer: &mut Tracer, mode: Mode) -> Result<Run, String> {
    let traced = mode == Mode::Traced;
    let (cycles, bursts) = if mode == Mode::Obs {
        (1, 2)
    } else {
        (input.cycles, BURSTS)
    };
    let wal_dir = env.work.join("storm-wal");
    let mut extra = vec![
        "--wal-dir".to_string(),
        wal_dir.display().to_string(),
        "--flush-every".to_string(),
        FLUSH_EVERY.to_string(),
    ];
    extra.extend(mode.obs_flag());
    let flags = env.flags(&extra);
    let mut tally = Tally::default();
    let mut off = Tracer::new(false);
    let probes = probe_pairs(RSUS, env.seed);

    let mut setup_s = Vec::new();
    let mut recover_s = Vec::new();
    let mut peak_rss = Vec::new();
    let mut bursts_ms = Vec::new();
    let mut rates = Vec::new();
    let mut timed_ns = 0u128;
    let mut fresh_timed = 0u64;
    let mut sent_timed = 0u64;
    let mut upload_bytes = 0u64;
    let mut uploads_timed = 0u64;
    let mut wal = 0u64;
    let mut uploads_logged = 0u64;
    let mut recovery = None;

    for cycle in 0..cycles {
        remove_dir(&wal_dir);
        let shadow_dir = traced.then(|| env.work.join("storm-shadow"));
        if let Some(dir) = &shadow_dir {
            remove_dir(dir);
        }
        let mut shadow = Shadow::new(env, shadow_dir, Some(FLUSH_EVERY))?;
        tally.attempt(1);
        let daemon = Vcpsd::spawn(&env.vcpsd, &flags)?;
        let mut client = daemon.connect()?;
        client.ping().map_err(|e| format!("ping: {e}"))?;
        let mut verify_ns = 0u128;

        for seq in 1..=bursts {
            let warm = seq == 1;
            let t: &mut Tracer = if warm { &mut off } else { &mut *tracer };
            let request = cycle * bursts + seq;
            let frames = burst_frames(input, seq);
            tally.attempt(frames.len() as u64);
            let t0 = Instant::now();
            let ack = client.ingest_pipelined(&frames);
            let t1 = Instant::now();
            let ack = ack.map_err(|e| format!("burst {request}: {e}"))?;
            let burst_span = t.client("net.burst", request, t0, t1);
            let v0 = Instant::now();
            let outcomes = shadow.ingest_sequenced(t, burst_span, request, &frames)?;
            tally.check(ack_matches(&ack, &outcomes), || {
                format!("burst {request}: ack {ack:?} differs from the shadow")
            });
            verify_ns += v0.elapsed().as_nanos();
            let mut unit = t1 - t0;
            if !warm {
                bursts_ms.push((t1 - t0).as_secs_f64() * 1e3);
                timed_ns += (t1 - t0).as_nanos();
                fresh_timed += ack.fresh;
                sent_timed += frames.len() as u64;
                uploads_timed += frames.len() as u64;
                upload_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
            }
            uploads_logged += frames.len() as u64;
            drop(frames);
            // A rollover between bursts: after the warm-up burst (it
            // ends set-up) and after every timed burst but the last.
            if seq < bursts {
                tally.attempt(1);
                let t2 = Instant::now();
                let sizes = client.finish_period();
                let t3 = Instant::now();
                let sizes = sizes.map_err(|e| format!("finish_period: {e}"))?;
                let rollover_span = t.client("net.rollover", request, t2, t3);
                let v1 = Instant::now();
                let expected = shadow.finish_period(t, rollover_span, request)?;
                tally.check(sizes == expected, || {
                    format!("burst {request}: rollover sizes differ from the shadow")
                });
                verify_ns += v1.elapsed().as_nanos();
                if warm {
                    setup_s.push((daemon.spawned.elapsed().as_nanos() - verify_ns) as f64 / 1e9);
                } else {
                    timed_ns += (t3 - t2).as_nanos();
                    unit += t3 - t2;
                }
            }
            if !warm {
                rates.push(ack.fresh as f64 / unit.as_secs_f64());
            }
        }

        let reference = ask_pairs(&mut client, shadow.server(), &probes, &mut tally)?;
        peak_rss.push(daemon.peak_rss_mib()?);
        drop(client);
        let counters = daemon.shutdown()?;
        if mode == Mode::Obs {
            remove_dir(&wal_dir);
            shadow.cleanup();
            return Ok(Run {
                obs: Some((counters, uploads_logged)),
                tally,
                ..Run::default()
            });
        }
        wal += crate::common::wal_bytes(&wal_dir);
        if traced && cycle + 1 == cycles {
            recovery = Some(shadow_recover(env, &wal_dir, Some(FLUSH_EVERY))?);
        }
        recover_s.extend(restart_and_probe(
            env, &flags, 1, &probes, &reference, &mut tally,
        )?);
        remove_dir(&wal_dir);
        shadow.cleanup();
    }

    let mut run = Run {
        daemon_flags: flags,
        params: params(input),
        aliases: ["burst_p50_ms", "burst_p90_ms", "uploads_per_s"],
        ..Run::default()
    };
    run.e2e.setup_s = setup_s;
    run.e2e.latency_ms = bursts_ms;
    run.e2e.rate_per_s = rates;
    run.e2e.recover_s = recover_s;
    run.e2e.upload_bytes_per_rsu = upload_bytes as f64 / uploads_timed as f64;
    run.e2e.peak_rss_mib = peak_rss;

    if let Some((recover_ms, replayed)) = recovery {
        let bursts = tracer.count("net.burst") as f64;
        let l = &mut run.layers;
        l.insert("protocol.upload_bytes".into(), upload_bytes as f64 / bursts);
        l.insert("net.burst_ms".into(), tracer.mean_ms("net.burst"));
        l.insert(
            "shard.ingest_us_per_upload".into(),
            tracer.total_ns("shard.ingest") as f64 / uploads_timed as f64 / 1e3,
        );
        l.insert(
            "durable.ingest_us_per_upload".into(),
            tracer.total_ns("durable.ingest") as f64 / uploads_timed as f64 / 1e3,
        );
        l.insert(
            "durable.wal_bytes_per_upload".into(),
            wal as f64 / uploads_logged as f64,
        );
        l.insert(
            "durable.rollover_ms".into(),
            tracer.mean_ms("durable.rollover"),
        );
        l.insert("durable.recover_ms".into(), recover_ms);
        l.insert("durable.replayed_records".into(), replayed as f64);
        l.insert(
            "net.ack_fresh_ratio".into(),
            fresh_timed as f64 / sent_timed as f64,
        );
        let ledger = Ledger::close(timed_ns as i64, tracer.spans());
        run.ledger = Some((ledger, bursts, "burst"));
    }
    run.tally = tally;
    Ok(run)
}
