//! The daemon's O–D answer at metro scale, step by step.
//!
//! The city is the `metro_day` workload's (`perfbench/src/metro.rs`): a
//! 23 × 23 grid of 529 RSUs with six diurnal periods. One period is
//! recorded at the array sizes that the rollovers before it chose, on a
//! 4-shard server as `vcpsd` runs by default, and its answer is timed in
//! three steps:
//!
//! * `driver` — `od_chunks_threads` with a sink that only counts, i.e.
//!   the all-pairs decode alone;
//! * `daemon` — what `vcpsd` does for a tag-17 query: the driver with
//!   the tag-34 entry encoder as its sink, then the frame written as
//!   its header and the chunks (into `std::io::sink`, so no socket cost
//!   is timed);
//! * `decode` — the client's `Response::decode` of those bytes.
//!
//! Each step is the minimum over interleaved rounds, as the other
//! `bench_artifacts` rows are.

use std::time::Instant;

use vcps_core::{PairEstimate, RsuId, Scheme};
use vcps_net::wire::{encode_matrix_entries, read_frame, MatrixFrame, Response};
use vcps_sim::{
    build_metro, run_period, run_periods, MetroConfig, MetroLayout, Monolith, PeriodSettings,
    RunConfig, Sharded, ShardedServer,
};

/// The `metro_day` city (`perfbench/src/metro.rs`, `synthesize`).
fn metro_day_config() -> MetroConfig {
    MetroConfig {
        rsus: 23 * 23,
        periods: 6,
        total_trips: 20_000.0,
        vehicles_per_unit: 1.0,
        msa_iterations: 2,
        zero_zone_fraction: 0.1,
        layout: MetroLayout::Grid,
        seed: 0x000C_17F0,
    }
}

/// Shards of `vcpsd`'s default deployment.
const DAEMON_SHARDS: usize = 4;

/// A 4-shard server holding period `period` of the `metro_day` city,
/// recorded at the sizes the rollovers of the periods before it chose
/// (the first period at the sizes of the city's initial history).
///
/// # Panics
///
/// Panics if `period` is not one of the city's six periods.
#[must_use]
pub fn metro_day_server(period: usize) -> ShardedServer {
    let config = metro_day_config();
    assert!(
        period < config.periods,
        "the day has {} periods",
        config.periods
    );
    let city = build_metro(&config);
    let scheme = Scheme::variable(2, 3.0, config.seed).expect("valid scheme");
    let link_times = city.net.free_flow_times();
    let roads = (&city.net, &link_times[..]);
    // `vcpsd` keeps the last period's counter as the history (α = 1).
    let settings = PeriodSettings {
        history_alpha: 1.0,
        ..PeriodSettings::default()
    };
    let history: Vec<f64> = if period == 0 {
        city.initial_history.clone()
    } else {
        let before = run_periods(
            &scheme,
            roads,
            &city.periods[..period],
            &city.initial_history,
            &settings,
            1,
            // Every backend rolls over alike; the monolith shows its
            // history.
            &RunConfig::new(Monolith),
        )
        .expect("the periods before");
        (0..city.net.node_count() as u64)
            .map(|node| {
                before
                    .server
                    .history()
                    .average(RsuId(node))
                    .expect("every RSU uploaded")
            })
            .collect()
    };
    run_period(
        &scheme,
        roads,
        &city.periods[period],
        &history,
        settings.period_length,
        settings.seed,
        &RunConfig::new(Sharded(DAEMON_SHARDS)),
    )
    .expect("the period")
    .server
}

/// One timed step of the answer path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnswerStep {
    /// `driver`, `daemon` or `decode` (see the module docs).
    pub step: &'static str,
    /// Threads requested of the driver (1 for `decode`).
    pub threads: usize,
    /// Minimum wall-clock nanoseconds of one answer.
    pub ns: u128,
}

/// What the timed answer covered.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerTiming {
    /// RSUs on the matrix axes.
    pub rsus: usize,
    /// Pairs in the answer.
    pub pairs: usize,
    /// Measured (not degraded) pairs.
    pub measured: usize,
    /// Bytes of the tag-34 payload.
    pub response_bytes: usize,
    /// The steps, in `driver`, `daemon`, `decode` order.
    pub steps: Vec<AnswerStep>,
}

/// Driver thread counts timed: one executor and two.
const DRIVER_THREADS: [usize; 2] = [1, 2];
/// Thread counts of the `daemon` rows: the driver's, plus the 4 that
/// `vcpsd` requests by default.
const DAEMON_THREADS: [usize; 3] = [1, 2, 4];

/// The tag-34 frame the daemon answers `server`'s O–D query with at
/// `threads` requested threads.
fn daemon_answer(server: &ShardedServer, threads: usize) -> MatrixFrame {
    let (axes, chunks) = server
        .od_chunks_threads(threads, encode_matrix_entries)
        .expect("decodable period");
    MatrixFrame::new(&axes, chunks)
}

/// Times `server`'s O–D answer in each step over `rounds` interleaved
/// rounds (after one untimed warm-up round).
///
/// # Panics
///
/// Panics if the answer fails, or if a step makes a different number of
/// pairs or bytes than the 1-thread answer.
#[must_use]
pub fn time_answer(server: &ShardedServer, rounds: usize) -> AnswerTiming {
    let mut frame = Vec::new();
    daemon_answer(server, 1).write(&mut frame).expect("writes");
    let reference = read_frame(&mut frame.as_slice(), u64::MAX).expect("one frame");
    let Ok(Response::Matrix(matrix)) = Response::decode(&reference) else {
        panic!("the daemon's answer does not decode");
    };
    let (rsus, pairs) = (matrix.rsus.len(), matrix.entries.len());
    let measured = matrix
        .entries
        .iter()
        .filter(|e| e.is_some_and(|e| !e.is_degraded()))
        .count();
    drop(matrix);

    let mut steps: Vec<AnswerStep> = DRIVER_THREADS
        .iter()
        .map(|&threads| ("driver", threads))
        .chain(DAEMON_THREADS.iter().map(|&threads| ("daemon", threads)))
        .chain([("decode", 1)])
        .map(|(step, threads)| AnswerStep {
            step,
            threads,
            ns: u128::MAX,
        })
        .collect();
    for round in 0..=rounds.max(1) {
        for step in &mut steps {
            let start = Instant::now();
            // Each arm keeps what it made alive past the clock, so no
            // step times a drop or a check.
            let (elapsed, made) = match step.step {
                "driver" => {
                    let (_, lens) = server
                        .od_chunks_threads(step.threads, <[PairEstimate]>::len)
                        .expect("decodable period");
                    (start.elapsed(), lens.iter().sum::<usize>())
                }
                "daemon" => {
                    let frame = daemon_answer(server, step.threads);
                    frame.write(&mut std::io::sink()).expect("writes");
                    let elapsed = start.elapsed();
                    assert_eq!(frame.payload_len(), reference.len());
                    (elapsed, pairs)
                }
                _ => {
                    let decoded = Response::decode(&reference);
                    let elapsed = start.elapsed();
                    let Ok(Response::Matrix(matrix)) = decoded else {
                        panic!("the daemon's answer does not decode");
                    };
                    (elapsed, matrix.entries.len())
                }
            };
            assert_eq!(made, pairs, "{} at {} threads", step.step, step.threads);
            // Round 0 warms up: pages, pool workers, caches.
            if round > 0 {
                step.ns = step.ns.min(elapsed.as_nanos());
            }
        }
    }
    AnswerTiming {
        rsus,
        pairs,
        measured,
        response_bytes: reference.len(),
        steps,
    }
}
