//! Regenerates the repo's machine-readable benchmark artifacts. Each
//! file's `workload` object records the host it ran on (`nproc` and the
//! `target-cpu` the workspace builds for).
//!
//! * `BENCH_decode.json` — server-side upload decode cost vs array size,
//!   plus the O(1) cached zero-count vs a full popcount rescan.
//! * `BENCH_odmatrix.json` — adaptive kernel selection vs the
//!   dense-always word scan per load factor, the cached all-pairs
//!   `od_matrix` pipeline vs the per-pair clone-and-rescan baseline
//!   across RSU counts, load factors, and thread counts (DESIGN.md §13),
//!   and the daemon's O–D answer on the 529-RSU `metro_day` city, step
//!   by step.
//! * `BENCH_obs.json` — observability overhead (DESIGN.md §14): the
//!   per-call cost of a disabled vs enabled counter increment and of a
//!   disabled phase timer, and the end-to-end od_matrix cost with
//!   observability off vs on. The disabled path is the budgeted one.
//! * `BENCH_shard.json` — sharded vs monolithic batch ingestion
//!   (DESIGN.md §15) on the path `vcpsd` runs: one period's batch frame,
//!   encoded once, into a monolithic `CentralServer` (the borrowed
//!   frames through `receive_sequenced_ref`) vs
//!   `ShardedServer::receive_batch_wire` at 1, 2, 4, and 8 shards. Both
//!   sides validate the frame inside the timed region and ingest on one
//!   thread, so the speedup column prices routing, ≈ 1.0 by design.
//! * `BENCH_wal.json` — durability cost (DESIGN.md §17): one period's
//!   sequenced uploads into a sharded server with the write-ahead log
//!   off, on (a group per record, each written and fsynced on the
//!   WAL's log threads), on with periodic checkpoints, and under group
//!   commit. The slowdown columns price what crash recovery costs per
//!   upload; fsync latency dominates, so absolute rates are
//!   filesystem-dependent. `fsyncs_per_record` counts what group
//!   commit saves.
//! * `BENCH_metro.json` — metropolis-scale continuous estimation
//!   (DESIGN.md §20): a 1024-RSU gravity-model grid streamed through
//!   the sharded batch-ingest path for two diurnal periods with a
//!   sliding O–D window. Rows compare ingest at 1 vs 4 shards, the
//!   engine's exchange phase (vehicles answer in parallel, each RSU
//!   records on the calling thread) and the all-pairs O–D matrix, each
//!   at 1 vs all threads (on a single-core box the thread rows
//!   degenerate to ≈ 1.0); scalars report per-period estimation
//!   accuracy against exact per-vehicle ground truth and the process
//!   peak RSS.
//!
//! Timing is hand-rolled (median of repeated wall-clock samples) so the
//! artifacts do not depend on any benchmark framework; the JSON is
//! emitted with plain string formatting for the same reason.
//!
//! Usage:
//!   cargo run --release -p vcps-bench --bin bench_artifacts
//!     [--out DIR] (default .) [--samples K] (default 5)

use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

use vcps_bench::od_answer::{metro_day_server, time_answer};
use vcps_bench::{od_server, pairwise_dense_baseline, peak_rss_bytes, shard_ingest_workload};
use vcps_bitarray::{
    combined_zero_count, combined_zero_count_adaptive, select_pair_kernel, UnfoldOperand,
};
use vcps_core::{RsuId, Scheme};
use vcps_obs::{Obs, Phase};
use vcps_sim::concurrent::default_threads;
use vcps_sim::engine::PeriodSettings;
use vcps_sim::{
    build_metro, run_periods, score_accuracy, AccuracyScore, BatchUpload, BatchUploadRef,
    CentralServer, MetroConfig, PeriodUpload, RunConfig, Sharded, ShardedServer,
};

const USAGE: &str = "usage: bench_artifacts [--out DIR] [--samples N]";

/// Strict flag parser: every argument must be a known flag followed by a
/// value, so typos fail loudly instead of silently running with defaults.
fn parse_args(args: &[String]) -> Result<(String, usize), String> {
    let mut out = ".".to_string();
    let mut samples: usize = 5;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        if !matches!(flag, "--out" | "--samples") {
            return Err(format!("unknown flag {flag:?}"));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag {
            "--out" => out = value.clone(),
            "--samples" => {
                samples = value
                    .parse()
                    .map_err(|_| format!("--samples expects a positive integer, got {value:?}"))?;
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
        i += 2;
    }
    Ok((out, samples))
}

/// Median wall-clock nanoseconds of `samples` runs of `f`.
fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> u128 {
    // One untimed warm-up run to fault in pages and warm caches.
    f();
    let mut times: Vec<u128> = (0..samples.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Interleaved sampling shared by the decode/shard/wal comparisons:
/// one untimed warm-up call per mode, then `rounds` round-robin passes
/// keeping each mode's MINIMUM observation. Round-robin makes slow
/// drift (frequency scaling, noisy neighbors) hit every mode equally
/// instead of whichever one happened to run during the slow window,
/// and the minimum of a deterministic region is the observation
/// closest to its true cost (same rationale as
/// `bench_odmatrix_pipeline`). Each mode closure performs its own
/// untimed setup (e.g. cloning a workload) and returns the wall-clock
/// nanoseconds of just its hot region.
fn interleaved_min_ns(rounds: usize, modes: &mut [Box<dyn FnMut() -> u128 + '_>]) -> Vec<u128> {
    for mode in modes.iter_mut() {
        mode();
    }
    let mut mins = vec![u128::MAX; modes.len()];
    for _ in 0..rounds.max(1) {
        for (t, mode) in modes.iter_mut().enumerate() {
            mins[t] = mins[t].min(mode());
        }
    }
    mins
}

fn bench_decode(samples: usize) -> String {
    let mut rows = String::new();
    for k in [14u32, 17, 20] {
        let m = 1usize << k;
        let sketch = vcps_bench::filled_sketch(7, m, 0.4);
        let upload = PeriodUpload {
            rsu: RsuId(7),
            counter: sketch.count(),
            bits: sketch.bits().clone(),
        };
        let dense = upload.encode();
        let sparse_sketch = vcps_bench::filled_sketch(7, m, 0.005);
        let sparse_upload = PeriodUpload {
            rsu: RsuId(7),
            counter: sparse_sketch.count(),
            bits: sparse_sketch.bits().clone(),
        };
        let sparse = sparse_upload.encode_compact();

        let dense_ns = median_ns(samples, || {
            let decoded = PeriodUpload::decode(&dense).expect("valid frame");
            assert_eq!(decoded.counter, upload.counter);
        });
        let sparse_ns = median_ns(samples, || {
            let decoded = PeriodUpload::decode(&sparse).expect("valid frame");
            assert_eq!(decoded.counter, sparse_upload.counter);
        });

        // Cached O(1) zero-count vs rescanning every word: many reps per
        // sample so the cached path is measurable at all.
        let bits = sketch.bits();
        let reps = 10_000u32;
        let cached_ns = median_ns(samples, || {
            let mut acc = 0.0f64;
            for _ in 0..reps {
                acc += bits.zero_fraction();
            }
            assert!(acc > 0.0);
        }) / u128::from(reps);
        let rescan_ns = median_ns(samples, || {
            let mut acc = 0u32;
            for _ in 0..reps.min(100) {
                acc += bits.as_words().iter().map(|w| w.count_ones()).sum::<u32>();
            }
            assert!(acc > 0);
        }) / u128::from(reps.min(100));

        let _ = write!(
            rows,
            "{}    {{\"array_bits\": {m}, \"dense_decode_ns\": {dense_ns}, \
             \"sparse_decode_ns\": {sparse_ns}, \"zero_count_cached_ns\": {cached_ns}, \
             \"zero_count_rescan_ns\": {rescan_ns}}}",
            if rows.is_empty() { "" } else { ",\n" },
        );
        println!(
            "decode  m=2^{k:<3} dense {dense_ns:>9} ns   sparse {sparse_ns:>7} ns   zero-count cached {cached_ns} ns vs rescan {rescan_ns} ns"
        );
    }

    // Batch decode, owned vs borrowed: the owned path materializes a
    // `Vec` of frames plus one heap-backed `BitArray` per inner upload;
    // the borrowed view validates the same wire once and then walks it
    // in place. Both sides do equivalent read work (sum the per-frame
    // ones counts) so the gap measured here is the allocation and copy
    // tax alone — the number the CI decode-smoke gate rides on.
    const BATCH_RSUS: usize = 256;
    const BATCH_BITS: usize = 1 << 18;
    const BATCH_FILL: f64 = 0.01;
    let frames = shard_ingest_workload(BATCH_RSUS, BATCH_BITS, BATCH_FILL, 1)
        .pop()
        .expect("one copy");
    let batch = BatchUpload::new(frames).expect("distinct keys");
    let wire = batch.encode();
    let expected_ones: usize = batch
        .frames()
        .iter()
        .map(|f| f.upload.bits.count_ones())
        .sum();
    let rounds = samples.max(15);
    let mut modes: Vec<Box<dyn FnMut() -> u128 + '_>> = vec![
        Box::new(|| {
            let start = Instant::now();
            let decoded = BatchUpload::decode(&wire).expect("valid batch");
            let ones: usize = decoded
                .frames()
                .iter()
                .map(|f| f.upload.bits.count_ones())
                .sum();
            let ns = start.elapsed().as_nanos();
            assert_eq!(ones, expected_ones);
            ns
        }),
        Box::new(|| {
            let start = Instant::now();
            let view = BatchUploadRef::decode_ref(&wire).expect("valid batch");
            let ones: usize = view.frames().map(|f| f.upload().count_ones()).sum();
            let ns = start.elapsed().as_nanos();
            assert_eq!(ones, expected_ones);
            ns
        }),
    ];
    let mins = interleaved_min_ns(rounds, &mut modes);
    drop(modes);
    let (owned_ns, borrowed_ns) = (mins[0], mins[1]);
    let speedup = owned_ns as f64 / borrowed_ns.max(1) as f64;
    println!(
        "decode  batch rsus={BATCH_RSUS} owned {owned_ns:>9} ns   borrowed {borrowed_ns:>9} ns   speedup {speedup:.2}x"
    );
    let batch_row = format!(
        "{{\"rsus\": {BATCH_RSUS}, \"array_bits\": {BATCH_BITS}, \"fill\": {BATCH_FILL}, \
         \"wire_bytes\": {}, \"owned_decode_ns\": {owned_ns}, \
         \"borrowed_decode_ns\": {borrowed_ns}, \"speedup_borrowed_vs_owned\": {speedup:.3}}}",
        wire.len(),
    );
    format!(
        "{{\n  \"workload\": {{\"samples\": {samples}, {}}},\n  \"results\": [\n{rows}\n  ],\n  \
         \"batch\": {batch_row}\n}}\n",
        host(),
    )
}

/// One nested pair per load factor: dense word scan vs the adaptive
/// kernel (DESIGN.md §13). At light loads the sparse kernels should win
/// outright; at heavy loads the selector falls back to dense and the
/// two columns converge.
fn bench_odmatrix_kernels(samples: usize) -> String {
    let m_y = 1usize << 18;
    let m_x = m_y / 4;
    let mut rows = String::new();
    for &load in &[0.0005f64, 0.005, 0.05, 0.4] {
        let small = vcps_bench::filled_sketch(1, m_x, load).bits().clone();
        let large = vcps_bench::filled_sketch(2, m_y, load).bits().clone();
        let ones_x: Vec<u64> = small.ones().map(|i| i as u64).collect();
        let ones_y: Vec<u64> = large.ones().map(|i| i as u64).collect();
        let kernel = select_pair_kernel(m_x, Some(ones_x.len()), m_y, Some(ones_y.len()));
        // Many reps per sample so sub-microsecond kernels are measurable.
        let reps = 200u32;
        let dense_ns = median_ns(samples, || {
            let mut acc = 0usize;
            for _ in 0..reps {
                acc += combined_zero_count(&small, &large).expect("nested sizes");
            }
            assert!(acc > 0);
        }) / u128::from(reps);
        let mut scratch = vcps_bitarray::DecodeScratch::new();
        let adaptive_ns = median_ns(samples, || {
            let mut acc = 0usize;
            for _ in 0..reps {
                acc += combined_zero_count_adaptive(
                    &UnfoldOperand::new(&small),
                    Some(&ones_x),
                    &large,
                    Some(&ones_y),
                    &mut scratch,
                )
                .expect("nested sizes");
            }
            assert!(acc > 0);
        }) / u128::from(reps);
        let speedup = dense_ns as f64 / adaptive_ns.max(1) as f64;
        let _ = write!(
            rows,
            "{}    {{\"m_x\": {m_x}, \"m_y\": {m_y}, \"load\": {load}, \
             \"ones_x\": {}, \"ones_y\": {}, \"kernel\": \"{}\", \
             \"dense_ns\": {dense_ns}, \"adaptive_ns\": {adaptive_ns}, \
             \"speedup\": {speedup:.3}}}",
            if rows.is_empty() { "" } else { ",\n" },
            ones_x.len(),
            ones_y.len(),
            kernel.label(),
        );
        println!(
            "kernel  load={load:<7} {:<13} dense {dense_ns:>9} ns   adaptive {adaptive_ns:>9} ns   speedup {speedup:.2}x",
            kernel.label()
        );
    }
    rows
}

/// All-pairs decode wall clock: the cached `od_matrix` pipeline vs the
/// per-pair clone-and-rescan baseline, across RSU counts, load factors,
/// and thread counts.
fn bench_odmatrix_pipeline(samples: usize) -> String {
    let mut thread_counts = vec![1usize, 2, 4];
    let n = default_threads();
    if !thread_counts.contains(&n) {
        thread_counts.push(n);
    }
    let mut rows = String::new();
    // 8 RSUs sits under the sequential-fallback threshold (its threads>1
    // rows run inline, `executors` 1), 24 straddles it by load, and 256
    // is the pool's headline scaling case (32 640 pairs; the CI
    // bench-smoke gate asserts that rows on more than one executor never
    // lose to threads==1).
    for &rsus in &[8usize, 24, 256] {
        for &load in &[0.0005f64, 0.005, 0.3] {
            let (server, ids) = od_server(rsus, 1 << 17, load, 42);
            let pairwise_ns = median_ns(samples, || {
                let estimates = pairwise_dense_baseline(&server, &ids);
                assert_eq!(estimates.len(), rsus * (rsus - 1) / 2);
            });
            // Sample thread counts round-robin, not back to back: the
            // thread-scaling gate compares rows against each other, and
            // interleaving makes slow drift (frequency scaling, noisy
            // neighbors) hit every row equally instead of whichever
            // count happened to run during the slow window.
            let mut times: Vec<Vec<u128>> = vec![Vec::new(); thread_counts.len()];
            // Untimed warm-up pass: fault in pages, spawn pool workers.
            for &threads in &thread_counts {
                let matrix = server.od_matrix_threads(threads).expect("decodable");
                assert_eq!(matrix.len(), rsus);
            }
            // Run-to-run noise swings (shared runners, frequency
            // scaling) dwarf any real thread effect, so take enough
            // interleaved rounds for the per-row minima to converge:
            // small triangles finish in ~100 µs and can afford many
            // rounds; the 256-RSU triangle costs ~5-20 ms per run, so
            // a smaller floor keeps the bench under a minute while
            // still riding out multi-run slow windows.
            let group_samples = if rsus <= 24 {
                samples.max(25)
            } else {
                samples.max(15)
            };
            for _ in 0..group_samples {
                for (t, &threads) in thread_counts.iter().enumerate() {
                    let start = Instant::now();
                    let matrix = server.od_matrix_threads(threads).expect("decodable");
                    let elapsed = start.elapsed().as_nanos();
                    assert_eq!(matrix.len(), rsus);
                    times[t].push(elapsed);
                }
            }
            for (t, &threads) in thread_counts.iter().enumerate() {
                // The executors the decode ran on: 1 where the cost
                // model runs the triangle inline, so bench-smoke's
                // thread-scaling bound skips the row.
                let executors = server.od_executors(threads);
                // Minimum, not median: the decode is deterministic
                // CPU-bound work, so the fastest observation is the
                // closest to its true cost — medians still carry bursty
                // scheduler noise that can differ across rows even with
                // interleaved sampling, which the thread-scaling gate
                // would misread as a regression.
                let od_ns = *times[t].iter().min().expect("sampled");
                let speedup = pairwise_ns as f64 / od_ns.max(1) as f64;
                let _ = write!(
                    rows,
                    "{}    {{\"rsus\": {rsus}, \"load_factor\": {load}, \"threads\": {threads}, \
                     \"executors\": {executors}, \"pairwise_ns\": {pairwise_ns}, \
                     \"od_matrix_ns\": {od_ns}, \"speedup_vs_pairwise\": {speedup:.3}}}",
                    if rows.is_empty() { "" } else { ",\n" },
                );
                println!(
                    "odmatrix rsus={rsus:<3} load={load:<6} threads={threads:<3} executors={executors:<2} pairwise {pairwise_ns:>11} ns   od_matrix {od_ns:>11} ns   speedup {speedup:.2}x"
                );
            }
        }
    }
    rows
}

/// The period of the `metro_day` city whose answer `bench_metro_answer`
/// times: the third, recorded at the sizes two rollovers chose.
const METRO_ANSWER_PERIOD: usize = 2;

/// The daemon's O–D answer on the `metro_day` city
/// (`vcps_bench::od_answer`): the driver per pair at 1 and 2 threads,
/// the daemon's answer path at 1, 2 and 4 requested threads, and the
/// client's decode, with the host they ran on. Printed and recorded,
/// not gated.
fn bench_metro_answer(samples: usize) -> String {
    let rounds = samples.max(15);
    let server = metro_day_server(METRO_ANSWER_PERIOD);
    let timing = time_answer(&server, rounds);
    let (nproc, cpu) = (default_threads(), target_cpu());
    println!(
        "metro-od {} RSUs, {} pairs ({} measured), {} response bytes; nproc {nproc}, target-cpu {cpu}",
        timing.rsus, timing.pairs, timing.measured, timing.response_bytes
    );
    let mut steps = String::new();
    for step in &timing.steps {
        let per_pair = step.ns as f64 / timing.pairs as f64;
        println!(
            "metro-od {:<6} threads={} {:>11} ns   {per_pair:>6.1} ns/pair",
            step.step, step.threads, step.ns
        );
        let _ = write!(
            steps,
            "{}    {{\"step\": \"{}\", \"threads\": {}, \"ns\": {}, \"ns_per_pair\": {per_pair:.1}}}",
            if steps.is_empty() { "" } else { ",\n" },
            step.step,
            step.threads,
            step.ns,
        );
    }
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"target_cpu\": \"{cpu}\"}}, \
         \"city\": \"metro_day\", \"period\": {METRO_ANSWER_PERIOD}, \"rsus\": {}, \
         \"pairs\": {}, \"measured\": {}, \"response_bytes\": {}, \"rounds\": {rounds}, \
         \"steps\": [\n{steps}\n  ]}}",
        timing.rsus, timing.pairs, timing.measured, timing.response_bytes,
    )
}

/// The `target-cpu` the workspace's `.cargo/config.toml` builds for
/// ("default" without one); `RUSTFLAGS` set in the environment would
/// override it unseen.
fn target_cpu() -> &'static str {
    include_str!("../../../../.cargo/config.toml")
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .find_map(|l| l.split("target-cpu=").nth(1))
        .map_or("default", |v| v.split('"').next().unwrap_or(v).trim())
}

/// The host fields every artifact's `workload` records.
fn host() -> String {
    format!(
        "\"nproc\": {}, \"target_cpu\": \"{}\"",
        default_threads(),
        target_cpu()
    )
}

fn bench_odmatrix(samples: usize) -> String {
    let kernel_rows = bench_odmatrix_kernels(samples);
    let od_rows = bench_odmatrix_pipeline(samples);
    let metro = bench_metro_answer(samples);
    format!(
        "{{\n  \"workload\": {{\"array_bits\": {}, \"samples\": {samples}, {}}},\n  \
         \"kernel\": [\n{kernel_rows}\n  ],\n  \"od_matrix\": [\n{od_rows}\n  ],\n  \
         \"metro_answer\": {metro}\n}}\n",
        1usize << 18,
        host(),
    )
}

/// Per-call cost of `obs.add` on the given handle, in nanoseconds
/// (median over `samples`, many calls per sample so sub-nanosecond
/// dispatch is measurable).
fn obs_call_ns(samples: usize, obs: &Obs) -> f64 {
    let reps = 1_000_000u32;
    let ns = median_ns(samples, || {
        for i in 0..reps {
            obs.add(std::hint::black_box("bench.noop"), u64::from(i & 1));
        }
        std::hint::black_box(obs);
    });
    ns as f64 / f64::from(reps)
}

/// Per-call cost of a disabled phase timer: an `obs.phase(..)` guard
/// made and dropped, timed like [`obs_call_ns`].
fn phase_disabled_ns(samples: usize, obs: &Obs) -> f64 {
    let reps = 1_000_000u32;
    let ns = median_ns(samples, || {
        for _ in 0..reps {
            drop(std::hint::black_box(obs).phase(Phase::Decode));
        }
    });
    ns as f64 / f64::from(reps)
}

/// Observability overhead: the disabled handle's per-call costs (the
/// budgeted ones) and the enabled counter's, plus the end-to-end
/// od_matrix ratio with the handle enabled (informational: the enabled
/// path pays for real atomics and is allowed to cost more).
fn bench_obs(samples: usize) -> String {
    let disabled = Obs::disabled();
    let enabled = Obs::enabled();
    let noop_ns = obs_call_ns(samples, &disabled);
    let enabled_ns = obs_call_ns(samples, &enabled);
    let phase_ns = phase_disabled_ns(samples, &disabled);
    println!(
        "obs     counter add     disabled {noop_ns:>8.3} ns/call   enabled {enabled_ns:>8.3} ns/call   \
         disabled phase {phase_ns:>8.3} ns/call"
    );

    // End-to-end od_matrix: same server state, obs off vs on.
    let threads = default_threads().min(4);
    let (plain_server, ids) = od_server(16, 1 << 17, 0.05, 42);
    let mut obs_server = plain_server.clone();
    obs_server.set_obs(enabled.clone());
    let od_base_ns = median_ns(samples, || {
        let matrix = plain_server.od_matrix_threads(threads).expect("decodable");
        assert_eq!(matrix.len(), ids.len());
    });
    let od_on_ns = median_ns(samples, || {
        let matrix = obs_server.od_matrix_threads(threads).expect("decodable");
        assert_eq!(matrix.len(), ids.len());
    });
    let od_on_ratio = od_on_ns as f64 / od_base_ns as f64;
    println!(
        "obs     od_matrix       baseline {od_base_ns:>11} ns   obs-on ratio {od_on_ratio:.4}"
    );

    format!(
        "{{\n  \"workload\": {{\"threads\": {threads}, \"samples\": {samples}, {}}},\n  \
         \"counter_add\": {{\"disabled_ns\": {noop_ns:.4}, \"enabled_ns\": {enabled_ns:.4}, \
         \"phase_disabled_ns\": {phase_ns:.4}}},\n  \
         \"od_matrix\": {{\"baseline_ns\": {od_base_ns}, \"obs_enabled_ns\": {od_on_ns}, \
         \"enabled_ratio\": {od_on_ratio:.4}}}\n}}\n",
        host(),
    )
}

/// Sharded vs monolithic batch ingestion (DESIGN.md §15), on the path
/// `vcpsd` runs. One period's batch frame is encoded once, outside the
/// timing; each timed sample validates it and ingests it into a fresh
/// server built just before the clock starts — the monolith through
/// `receive_sequenced_ref` over the borrowed frames, each shard count
/// through `receive_batch_wire`. All five modes are sampled round-robin
/// with per-mode minima: the shard-smoke gate compares rows against each
/// other, and back-to-back block sampling once let a slow window land
/// entirely on the 4-shard block, reading as a spurious loss to 2
/// shards.
fn bench_shard(samples: usize) -> String {
    const SHARD_RSUS: usize = 256;
    const SHARD_BITS: usize = 1 << 18;
    const SHARD_FILL: f64 = 0.01;
    const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
    let scheme = Scheme::variable(2, 3.0, 1).expect("valid scheme");
    let frames = shard_ingest_workload(SHARD_RSUS, SHARD_BITS, SHARD_FILL, 1)
        .pop()
        .expect("one copy");
    let wire = BatchUpload::new(frames).expect("distinct keys").encode();
    let rounds = samples.max(15);

    let mut modes: Vec<Box<dyn FnMut() -> u128 + '_>> = Vec::new();
    modes.push(Box::new(|| {
        let mut server = CentralServer::new(scheme.clone(), 1.0).expect("valid alpha");
        let start = Instant::now();
        let batch = BatchUploadRef::decode_ref(&wire).expect("valid batch");
        for frame in batch.frames() {
            server.receive_sequenced_ref(&frame);
        }
        let ns = start.elapsed().as_nanos();
        assert_eq!(server.upload_count(), SHARD_RSUS);
        ns
    }));
    for &shards in &SHARD_COUNTS {
        let (scheme, wire) = (&scheme, &wire);
        modes.push(Box::new(move || {
            let mut server =
                ShardedServer::new(scheme.clone(), 1.0, shards).expect("valid shard count");
            let start = Instant::now();
            let outcomes = server.receive_batch_wire(wire).expect("valid batch");
            let ns = start.elapsed().as_nanos();
            assert_eq!(outcomes.len(), SHARD_RSUS);
            ns
        }));
    }
    let mins = interleaved_min_ns(rounds, &mut modes);
    drop(modes);

    let mono_ns = mins[0];
    let rate = |ns: u128| SHARD_RSUS as f64 * 1e9 / ns as f64; // uploads/s
    println!(
        "shard   monolithic      {mono_ns:>11} ns   {:>10.0} uploads/s",
        rate(mono_ns)
    );

    let mut rows = String::new();
    for (i, &shards) in SHARD_COUNTS.iter().enumerate() {
        let sharded_ns = mins[i + 1];
        let speedup = mono_ns as f64 / sharded_ns as f64;
        let _ = write!(
            rows,
            "{}    {{\"shards\": {shards}, \"sharded_ns\": {sharded_ns}, \
             \"sharded_uploads_per_s\": {:.0}, \"speedup_vs_monolithic\": {speedup:.3}}}",
            if rows.is_empty() { "" } else { ",\n" },
            rate(sharded_ns),
        );
        println!(
            "shard   shards={shards:<3}      {sharded_ns:>11} ns   {:>10.0} uploads/s   speedup {speedup:.2}x",
            rate(sharded_ns)
        );
    }
    format!(
        "{{\n  \"workload\": {{\"rsus\": {SHARD_RSUS}, \"array_bits\": {SHARD_BITS}, \
         \"fill\": {SHARD_FILL}, \"wire_bytes\": {}, \"samples\": {samples}, {}}},\n  \
         \"monolithic_ns\": {mono_ns},\n  \"results\": [\n{rows}\n  ]\n}}\n",
        wire.len(),
        host(),
    )
}

/// Write-ahead-logged vs plain ingestion (DESIGN.md §17/§18). Every
/// mode drives the same sequential `receive_sequenced` loop into a
/// 4-shard server, so the only variable is the durability work:
/// nothing, one WAL group per record, the same plus a checkpoint every
/// 64 records, or group commit (one group every N records). Each group
/// goes to the WAL's log writer thread, which writes it and hands its
/// fsync to the syncer thread, which folds the groups written while it
/// syncs into its next fsync, and every durable mode ends with a
/// `flush_wal` inside the timed region so every mode ends equally
/// durable. Each row records `fsyncs_per_record`, the most
/// fdatasyncs a sample of the mode made per record logged: what group
/// commit amortizes, where the wall clock of a latency-bound run can no
/// longer show it (the per-record mode's groups share fsyncs too, so
/// its time need not exceed group commit's). Modes are
/// sampled round-robin with per-mode minima so filesystem slow
/// windows (journal flushes, dirty-page writeback) hit every row
/// equally instead of whichever mode ran during them.
///
/// The workload is deliberately shaped so fsync *latency* — the cost
/// group commit amortizes — dominates the durability tax, not log
/// *bandwidth*, which no flush policy can batch away. At the shard
/// bench's 1% fill a sparse frame is ~21 KB and the 5.4 MB log is
/// bandwidth-bound: every flush policy converges on the disk's
/// streaming rate and the slowdown floor sits near 10× regardless of
/// cadence. Here each RSU uploads a large (2^20-bit), lightly loaded
/// array, so a sparse frame is ~2 KB, the per-record durability cost
/// is dominated by the ~0.2 ms fsync round-trip, and the flush
/// cadence is the variable actually being measured.
fn bench_wal(samples: usize) -> String {
    use vcps_sim::{DurableOptions, DurableServer, FlushPolicy};

    const WAL_RSUS: usize = 256;
    const WAL_BITS: usize = 1 << 20;
    const WAL_FILL: f64 = 0.00025;
    const WAL_SHARDS: usize = 4;
    const CHECKPOINT_EVERY: u64 = 64;
    const GROUP_COMMIT: [u64; 4] = [1, 16, 64, 256];
    let scheme = Scheme::variable(2, 3.0, 1).expect("valid scheme");
    let obs = vcps_obs::Obs::disabled();
    let dir = std::env::temp_dir().join(format!("vcps-bench-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create wal bench dir");
    let master = shard_ingest_workload(WAL_RSUS, WAL_BITS, WAL_FILL, 1)
        .pop()
        .expect("one copy");

    let mut durable_modes: Vec<(String, DurableOptions)> = vec![
        ("wal".to_string(), DurableOptions::log_only()),
        (
            "wal+checkpoint".to_string(),
            DurableOptions::log_only().with_checkpoint_every(CHECKPOINT_EVERY),
        ),
    ];
    for &every in &GROUP_COMMIT {
        durable_modes.push((
            format!("group_commit_{every}"),
            DurableOptions::log_only().with_flush(FlushPolicy::EveryRecords(every)),
        ));
    }

    let rounds = samples.max(5);
    // The most fdatasyncs any sample of each durable mode made (from
    // `WalWriter::fsyncs`, read after the closing `flush_wal`).
    let fsyncs: Vec<Cell<u64>> = vec![Cell::new(0); durable_modes.len()];
    let mut modes: Vec<Box<dyn FnMut() -> u128 + '_>> = Vec::new();
    // Server construction happens before the clock starts on every
    // mode: `DurableServer::create` truncates the log, rewrites the
    // magic, and fsyncs — fixed setup cost, not the per-upload
    // steady-state durability work these rows price.
    modes.push(Box::new({
        let scheme = scheme.clone();
        let master = master.clone();
        move || {
            let frames = master.clone();
            let mut server =
                ShardedServer::new(scheme.clone(), 1.0, WAL_SHARDS).expect("valid shard count");
            let start = Instant::now();
            for frame in frames {
                server.receive_sequenced(frame);
            }
            assert_eq!(server.upload_count(), WAL_RSUS);
            start.elapsed().as_nanos()
        }
    }));
    for ((label, options), most_fsyncs) in durable_modes.iter().zip(&fsyncs) {
        // One directory per mode; `create` truncates the log on every
        // sample, so the timed region stays free of cross-sample state.
        let mode_dir = dir.join(label);
        std::fs::create_dir_all(&mode_dir).expect("create wal mode dir");
        modes.push(Box::new({
            let scheme = scheme.clone();
            let master = master.clone();
            let obs = obs.clone();
            let options = *options;
            move || {
                let frames = master.clone();
                let mut server = DurableServer::create(
                    scheme.clone(),
                    1.0,
                    WAL_SHARDS,
                    &mode_dir,
                    options,
                    &obs,
                )
                .expect("create durable server");
                let start = Instant::now();
                for frame in frames {
                    server.receive_sequenced(frame).expect("logged ingest");
                }
                server.flush_wal().expect("flush buffered tail");
                let elapsed = start.elapsed().as_nanos();
                assert_eq!(server.server().upload_count(), WAL_RSUS);
                most_fsyncs.set(most_fsyncs.get().max(server.wal_fsyncs()));
                elapsed
            }
        }));
    }
    let mins = interleaved_min_ns(rounds, &mut modes);
    drop(modes);

    let off_ns = mins[0];
    let rate = |ns: u128| WAL_RSUS as f64 * 1e9 / ns as f64; // uploads/s
    println!(
        "wal     off             {off_ns:>11} ns   {:>10.0} uploads/s",
        rate(off_ns)
    );

    let mut rows = format!(
        "    {{\"mode\": \"off\", \"ns\": {off_ns}, \
         \"uploads_per_s\": {:.0}, \"slowdown_vs_off\": 1.000, \
         \"fsyncs_per_record\": 0.0000}}",
        rate(off_ns)
    );
    for (i, (mode, _)) in durable_modes.iter().enumerate() {
        let wal_ns = mins[i + 1];
        let slowdown = wal_ns as f64 / off_ns as f64;
        let per_record = fsyncs[i].get() as f64 / WAL_RSUS as f64;
        let _ = write!(
            rows,
            ",\n    {{\"mode\": \"{mode}\", \"ns\": {wal_ns}, \
             \"uploads_per_s\": {:.0}, \"slowdown_vs_off\": {slowdown:.3}, \
             \"fsyncs_per_record\": {per_record:.4}}}",
            rate(wal_ns),
        );
        println!(
            "wal     {mode:<15} {wal_ns:>11} ns   {:>10.0} uploads/s   slowdown {slowdown:.2}x   fsyncs/record {per_record:.4}",
            rate(wal_ns)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    format!(
        "{{\n  \"workload\": {{\"rsus\": {WAL_RSUS}, \"array_bits\": {WAL_BITS}, \
         \"fill\": {WAL_FILL}, \"shards\": {WAL_SHARDS}, \
         \"checkpoint_every\": {CHECKPOINT_EVERY}, \
         \"group_commit\": [1, 16, 64, 256], \"samples\": {samples}, {}}},\n  \
         \"results\": [\n{rows}\n  ]\n}}\n",
        host(),
    )
}

/// Metropolis-scale continuous estimation (DESIGN.md §20): a 1024-RSU
/// gravity-model grid, two diurnal periods, sliding O–D window, all
/// uploads through the sharded batch-ingest path. Every mode closure
/// executes a complete metro run (departures → encode → ingest → O–D
/// matrix) but returns only the time of its hot region — the driver's
/// clock for ingest and O–D, the `phase.encode.ns` histogram of an
/// enabled `Obs` for the exchange phase — so the interleaved-minimum
/// sampler prices each without the untimed simulation work around it.
/// Accuracy
/// is scored per period against exact per-vehicle ground truth: period
/// 0's arrays are sized from exact seeded history while period 1's
/// come from the EWMA forecast of the off-peak period, so the gap
/// between the two rows prices history misprediction under the diurnal
/// demand swing — the failure mode the degraded-estimate fallback and
/// sliding window exist to absorb.
fn bench_metro(samples: usize) -> String {
    const METRO_RSUS: usize = 1024;
    const METRO_PERIODS: usize = 2;
    const METRO_TRIPS: f64 = 40_000.0;
    const TRUTH_FLOOR: f64 = 50.0;
    const METRO_SEED: u64 = 0x0003_E760;

    let workload = build_metro(&MetroConfig {
        rsus: METRO_RSUS,
        periods: METRO_PERIODS,
        total_trips: METRO_TRIPS,
        seed: METRO_SEED,
        ..MetroConfig::default()
    });
    let nodes = workload.net.node_count();
    let link_times = workload.net.free_flow_times();
    let scheme = Scheme::variable(2, 3.0, METRO_SEED).expect("valid scheme");
    let settings = PeriodSettings {
        seed: METRO_SEED,
        ..PeriodSettings::default()
    };
    let threads = default_threads();

    let run = |shards: usize, threads: usize, obs: Obs| {
        run_periods(
            &scheme,
            (&workload.net, &link_times),
            &workload.periods,
            &workload.initial_history,
            &settings,
            METRO_PERIODS, // window: hold every period for per-period scoring
            &RunConfig {
                threads,
                obs,
                ..RunConfig::new(Sharded(shards))
            },
        )
        .expect("metro run")
    };

    // One reference run supplies the accuracy scalars; the window holds
    // one O–D matrix per period, oldest first.
    let reference = run(4, threads, Obs::disabled());
    let uploads = reference.uploads_delivered;
    let exchanges: usize = reference.exchanges_per_period.iter().sum();
    let mut accuracy_rows = String::new();
    for (period, matrix) in reference.window.iter().enumerate() {
        let AccuracyScore {
            pairs: scored,
            mean_relative_error,
            degraded,
        } = score_accuracy(matrix, &workload.truth[period], nodes, TRUTH_FLOOR);
        let mre = mean_relative_error.map_or("null".to_string(), |mre| format!("{mre:.4}"));
        if period > 0 {
            accuracy_rows.push_str(",\n");
        }
        let _ = write!(
            accuracy_rows,
            "    {{\"period\": {period}, \"pairs\": {scored}, \
             \"mean_relative_error\": {mre}, \"degraded_entries\": {degraded}}}",
        );
        println!(
            "metro   period {period} accuracy      {scored:>6} pairs   mre {mre}   \
             {degraded} degraded"
        );
    }

    let rounds = samples.div_ceil(2).max(2);
    let mode_specs = [
        ("ingest_shards_1", 1, threads, Timed::Ingest),
        ("ingest_shards_4", 4, threads, Timed::Ingest),
        ("exchange_threads_1", 4, 1, Timed::Exchange),
        ("exchange_threads_all", 4, threads, Timed::Exchange),
        ("od_threads_1", 4, 1, Timed::Od),
        ("od_threads_all", 4, threads, Timed::Od),
    ];
    let mut modes: Vec<Box<dyn FnMut() -> u128 + '_>> = mode_specs
        .iter()
        .map(|&(_, shards, threads, timed)| {
            let run = &run;
            Box::new(move || match timed {
                Timed::Ingest => run(shards, threads, Obs::disabled()).ingest_ns,
                Timed::Od => run(shards, threads, Obs::disabled()).od_ns,
                // The exchange phase is the engine's `Encode` phase; only
                // these modes record, so the other rows run obs-free.
                Timed::Exchange => {
                    let obs = Obs::enabled();
                    run(shards, threads, obs.clone());
                    u128::from(obs.snapshot().histograms[Phase::Encode.ns_metric()].sum)
                }
            }) as Box<dyn FnMut() -> u128 + '_>
        })
        .collect();
    let mins = interleaved_min_ns(rounds, &mut modes);
    drop(modes);

    let pairs_total = METRO_PERIODS * nodes * (nodes - 1) / 2;
    let mut rows = String::new();
    for (i, &(mode, shards, mode_threads, timed)) in mode_specs.iter().enumerate() {
        let ns = mins[i];
        let (count, unit) = match timed {
            Timed::Ingest => (uploads, "uploads_per_s"),
            Timed::Exchange => (exchanges, "exchanges_per_s"),
            Timed::Od => (pairs_total, "pairs_per_s"),
        };
        let rate = count as f64 * 1e9 / ns as f64;
        if i > 0 {
            rows.push_str(",\n");
        }
        let _ = write!(
            rows,
            "    {{\"mode\": \"{mode}\", \"shards\": {shards}, \"threads\": {mode_threads}, \
             \"ns\": {ns}, \"{unit}\": {rate:.0}}}",
        );
        println!("metro   {mode:<20} {ns:>12} ns   {rate:>12.0} {unit}");
    }

    let uploads_per_sec = uploads as f64 * 1e9 / mins[1] as f64;
    let rss = peak_rss_bytes().map_or("null".to_string(), |b| b.to_string());
    format!(
        "{{\n  \"workload\": {{\"rsus\": {METRO_RSUS}, \"layout\": \"grid\", \
         \"periods\": {METRO_PERIODS}, \"trips\": {METRO_TRIPS}, \
         \"vehicles\": {}, \"window\": {METRO_PERIODS}, \"uploads\": {uploads}, \
         \"exchanges\": {exchanges}, \"truth_floor\": {TRUTH_FLOOR}, \"scheme_s\": 2, \
         \"load_factor\": 3.0, \"samples\": {samples}, \"rounds\": {rounds}, {}}},\n  \
         \"accuracy\": [\n{accuracy_rows}\n  ],\n  \
         \"results\": [\n{rows}\n  ],\n  \
         \"uploads_per_sec\": {uploads_per_sec:.0},\n  \
         \"peak_rss_bytes\": {rss}\n}}\n",
        workload.total_vehicles(),
        host(),
    )
}

/// What a `bench_metro` mode times.
#[derive(Clone, Copy)]
enum Timed {
    /// Upload ingest, from the run's own clock.
    Ingest,
    /// The exchange phase: every vehicle answers, every RSU records.
    Exchange,
    /// The all-pairs O–D matrix, from the run's own clock.
    Od,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (out, samples) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let decode = bench_decode(samples);
    let odmatrix = bench_odmatrix(samples);
    let obs = bench_obs(samples);
    let shard = bench_shard(samples);
    let wal = bench_wal(samples);
    let metro = bench_metro(samples);
    let decode_path = format!("{out}/BENCH_decode.json");
    let odmatrix_path = format!("{out}/BENCH_odmatrix.json");
    let obs_path = format!("{out}/BENCH_obs.json");
    let shard_path = format!("{out}/BENCH_shard.json");
    let wal_path = format!("{out}/BENCH_wal.json");
    let metro_path = format!("{out}/BENCH_metro.json");
    std::fs::write(&decode_path, decode).expect("write BENCH_decode.json");
    std::fs::write(&odmatrix_path, odmatrix).expect("write BENCH_odmatrix.json");
    std::fs::write(&obs_path, obs).expect("write BENCH_obs.json");
    std::fs::write(&shard_path, shard).expect("write BENCH_shard.json");
    std::fs::write(&wal_path, wal).expect("write BENCH_wal.json");
    std::fs::write(&metro_path, metro).expect("write BENCH_metro.json");
    println!(
        "wrote {decode_path}, {odmatrix_path}, {obs_path}, {shard_path}, {wal_path}, \
         and {metro_path}"
    );
}
