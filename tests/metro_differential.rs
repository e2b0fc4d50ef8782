//! Reduced-scale differential conformance suite for the metropolis
//! continuous-estimation scenario (DESIGN.md §20).
//!
//! The metro driver's core contract extends the sharded server's
//! (`tests/sharded_differential.rs`) to *continuous multi-period*
//! operation: a metro run streamed through a [`ShardedServer`] as
//! batch-framed wire uploads must be bit-identical — sliding-window
//! matrices, array-size trajectories, exchange counts, fault metrics,
//! undelivered sets, final server state, and observability counters
//! (modulo the sharded server's own `shard.*` / `batch.*` series) — to
//! the same run through the monolithic [`CentralServer`], at every
//! shard count × worker count, under ideal channels and under seeded
//! fault injection.
//!
//! Alongside the differential, this suite pins the sliding window's
//! edge semantics: a window of one is exactly the single-period
//! estimate, an empty window is a typed error, and an RSU that crashes
//! mid-window degrades to its history-backed answer in exactly the
//! periods it missed.

use std::collections::BTreeMap;

use vcps::hash::splitmix64;
use vcps::obs::Obs;
use vcps::sim::engine::PeriodSettings;
use vcps::sim::protocol::{PeriodUpload, SequencedUpload};
use vcps::sim::{
    build_metro, run_periods, CentralServer, FaultPlan, LinkFaults, MetroConfig, MetroWorkload,
    Monolith, RetryPolicy, RunConfig, Sharded, SimError, SlidingWindow,
};
use vcps::{BitArray, RsuId, Scheme};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Strips the sharded server's own progress series, leaving exactly the
/// counters the monolith also fires.
fn strip_shard_series(mut counters: BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters.retain(|name, _| !name.starts_with("shard.") && !name.starts_with("batch."));
    counters
}

/// The reduced-scale metropolis: 64 RSUs (an 8×8 grid), three periods
/// of diurnally-scaled gravity demand — big enough that every shard
/// owns RSUs and arrays re-size between periods, small enough for the
/// test budget.
fn metro_fixture() -> (MetroWorkload, Scheme, PeriodSettings) {
    let workload = build_metro(&MetroConfig {
        rsus: 64,
        periods: 3,
        total_trips: 600.0,
        msa_iterations: 2,
        seed: 0xC17,
        ..MetroConfig::default()
    });
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let settings = PeriodSettings {
        seed: 0xC17,
        ..PeriodSettings::default()
    };
    (workload, scheme, settings)
}

fn all_pair_estimates<F, E>(nodes: u64, estimate: F) -> Vec<E>
where
    F: Fn(RsuId, RsuId) -> E,
{
    let mut out = Vec::new();
    for a in 0..nodes {
        for b in (a + 1)..nodes {
            out.push(estimate(RsuId(a), RsuId(b)));
        }
    }
    out
}

#[test]
fn metro_sharded_run_is_bit_identical_to_monolith() {
    let (workload, scheme, settings) = metro_fixture();
    let nodes = workload.net.node_count() as u64;
    let mono_obs = Obs::enabled();
    let mono = run_periods(
        &scheme,
        (&workload.net, &workload.net.free_flow_times()),
        &workload.periods,
        &workload.initial_history,
        &settings,
        2,
        &RunConfig {
            obs: mono_obs.clone(),
            ..RunConfig::new(Monolith)
        },
    )
    .expect("monolithic metro run");
    let mono_counters = mono_obs.snapshot().counters;
    let mono_pairs = all_pair_estimates(nodes, |a, b| mono.server.estimate_or_degraded(a, b));

    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let obs = Obs::enabled();
            let run = run_periods(
                &scheme,
                (&workload.net, &workload.net.free_flow_times()),
                &workload.periods,
                &workload.initial_history,
                &settings,
                2,
                &RunConfig {
                    threads,
                    obs: obs.clone(),
                    ..RunConfig::new(Sharded(shards))
                },
            )
            .expect("sharded metro run");
            assert_eq!(
                run.window, mono.window,
                "window matrices at {shards} shards x {threads} threads"
            );
            assert_eq!(
                run.sizes_per_period, mono.sizes_per_period,
                "array sizes at {shards} shards x {threads} threads"
            );
            assert_eq!(
                run.exchanges_per_period, mono.exchanges_per_period,
                "exchanges at {shards} shards x {threads} threads"
            );
            assert_eq!(
                run.uploads_delivered, mono.uploads_delivered,
                "uploads delivered at {shards} shards x {threads} threads"
            );
            assert_eq!(
                all_pair_estimates(nodes, |a, b| run.server.estimate_or_degraded(a, b)),
                mono_pairs,
                "post-run estimates at {shards} shards x {threads} threads"
            );
            assert_eq!(
                strip_shard_series(obs.snapshot().counters),
                mono_counters,
                "counters at {shards} shards x {threads} threads"
            );
        }
    }
}

#[test]
fn metro_faulty_sharded_run_is_bit_identical_to_monolith() {
    let (workload, scheme, settings) = metro_fixture();
    let nodes = workload.net.node_count() as u64;
    let plan = FaultPlan::new(0xC17 ^ 0xFA_17)
        .with_report_link(LinkFaults::none().with_drop(0.15).with_bit_flip(0.05))
        .with_upload_link(LinkFaults::none().with_drop(0.35).with_duplicate(0.1));
    let policy = RetryPolicy::default();
    let mono_obs = Obs::enabled();
    let mono = run_periods(
        &scheme,
        (&workload.net, &workload.net.free_flow_times()),
        &workload.periods,
        &workload.initial_history,
        &settings,
        2,
        &RunConfig {
            obs: mono_obs.clone(),
            faults: Some((plan.clone(), policy)),
            ..RunConfig::new(Monolith)
        },
    )
    .expect("monolithic faulty metro run");
    let mono_counters = mono_obs.snapshot().counters;
    let mono_pairs = all_pair_estimates(nodes, |a, b| mono.server.estimate_or_degraded(a, b));

    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let obs = Obs::enabled();
            let run = run_periods(
                &scheme,
                (&workload.net, &workload.net.free_flow_times()),
                &workload.periods,
                &workload.initial_history,
                &settings,
                2,
                &RunConfig {
                    threads,
                    obs: obs.clone(),
                    faults: Some((plan.clone(), policy)),
                    backend: Sharded(shards),
                },
            )
            .expect("sharded faulty metro run");
            assert_eq!(
                run.window, mono.window,
                "window matrices at {shards} shards x {threads} threads"
            );
            assert_eq!(
                run.faults_per_period, mono.faults_per_period,
                "fault metrics at {shards} shards x {threads} threads"
            );
            assert_eq!(
                run.undelivered_per_period, mono.undelivered_per_period,
                "undelivered sets at {shards} shards x {threads} threads"
            );
            assert_eq!(
                run.sizes_per_period, mono.sizes_per_period,
                "array sizes at {shards} shards x {threads} threads"
            );
            assert_eq!(
                run.exchanges_per_period, mono.exchanges_per_period,
                "exchanges at {shards} shards x {threads} threads"
            );
            assert_eq!(
                run.uploads_delivered, mono.uploads_delivered,
                "uploads delivered at {shards} shards x {threads} threads"
            );
            assert_eq!(
                all_pair_estimates(nodes, |a, b| run.server.estimate_or_degraded(a, b)),
                mono_pairs,
                "post-run estimates at {shards} shards x {threads} threads"
            );
            assert_eq!(
                strip_shard_series(obs.snapshot().counters),
                mono_counters,
                "counters at {shards} shards x {threads} threads"
            );
        }
    }
    // The fault rates are high enough that the differential actually
    // exercised the degraded path.
    let lost: usize = mono.undelivered_per_period.iter().map(Vec::len).sum();
    assert!(
        lost > 0,
        "expected some abandoned uploads at a 35% drop rate"
    );
}

// ---------------------------------------------------------------------------
// Sliding-window edge semantics.
// ---------------------------------------------------------------------------

/// A deterministic synthetic upload for one RSU, seed-varied fill.
fn synthetic_upload(rsu: u64, seed: u64) -> PeriodUpload {
    let h = splitmix64(seed ^ rsu);
    let m = 256;
    let ones = 20 + (h >> 8) % 60;
    let bits = BitArray::from_indices(
        m,
        (0..ones).map(|i| (splitmix64(h ^ i) % m as u64) as usize),
    )
    .expect("indices in range");
    PeriodUpload {
        rsu: RsuId(rsu),
        counter: bits.count_ones() as u64 + h % 5,
        bits,
    }
}

#[test]
fn empty_window_is_typed_error_never_nan() {
    let window = SlidingWindow::new(4);
    assert!(window.is_empty());
    assert_eq!(
        window.average(RsuId(1), RsuId(2)),
        Err(SimError::EmptyWindow)
    );
}

/// Drives three explicit periods through a [`CentralServer`], withholding
/// RSU 2's upload in period 1 (the "crash mid-window"), and checks that
/// the sliding window's per-period entries are *exactly* the
/// `estimate_or_degraded` answers captured live in each period: degraded
/// only in the crashed period for pairs involving the crashed RSU,
/// measured everywhere else, and recovered in the period after.
#[test]
fn crash_mid_window_degrades_exactly_as_estimate_or_degraded() {
    const RSUS: u64 = 5;
    const PERIODS: u64 = 3;
    const CRASHED: u64 = 2;
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let mut server = CentralServer::new(scheme, 0.5).expect("valid alpha");
    for r in 0..RSUS {
        server.seed_history(RsuId(r), 40.0);
    }
    server.finish_period().expect("seeded sizing");

    let mut window = SlidingWindow::new(PERIODS as usize);
    let mut live_answers = Vec::new();
    for p in 0..PERIODS {
        for r in 0..RSUS {
            if p == 1 && r == CRASHED {
                continue; // crashed: its upload never arrives this period
            }
            server.receive_sequenced(SequencedUpload {
                seq: p,
                upload: synthetic_upload(r, 0xBEEF ^ p),
            });
        }
        // The per-period ground truth for the window's contract: what
        // estimate_or_degraded answers *right now*, this period.
        live_answers.push(all_pair_estimates(RSUS, |a, b| {
            server.estimate_or_degraded(a, b).expect("total answer")
        }));
        window.push(server.od_matrix_threads(1).expect("matrix"));
        server.finish_period().expect("period close");
    }

    assert_eq!(window.len(), PERIODS as usize);
    for (p, matrix) in window.iter().enumerate() {
        let mut k = 0;
        for a in 0..RSUS {
            for b in (a + 1)..RSUS {
                let entry = matrix.get(RsuId(a), RsuId(b)).expect("covered pair");
                assert_eq!(
                    entry, &live_answers[p][k],
                    "window period {p} pair ({a},{b}) must equal the live per-period answer"
                );
                let crashed_pair = a == CRASHED || b == CRASHED;
                assert_eq!(
                    entry.is_degraded(),
                    p == 1 && crashed_pair,
                    "degradation must hit exactly the crashed RSU's pairs in the crashed period"
                );
                k += 1;
            }
        }
    }

    // The window aggregate reflects the partial degradation honestly.
    let other = (0..RSUS).find(|&r| r != CRASHED).expect("another RSU");
    let averaged = window
        .average(RsuId(CRASHED), RsuId(other))
        .expect("covered pair");
    assert_eq!(averaged.periods, PERIODS as usize);
    assert_eq!(averaged.degraded_periods, 1);
    assert!(!averaged.latest.is_degraded(), "latest period recovered");

    let clean = window.average(RsuId(other), RsuId(3)).expect("covered");
    assert_eq!(clean.degraded_periods, 0);
}

/// A window of capacity one, fed period by period, always answers with
/// exactly the newest single-period estimate.
#[test]
fn window_of_one_tracks_the_single_period_estimate() {
    const RSUS: u64 = 4;
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let mut server = CentralServer::new(scheme, 0.5).expect("valid alpha");
    for r in 0..RSUS {
        server.seed_history(RsuId(r), 30.0);
    }
    server.finish_period().expect("seeded sizing");

    let mut window = SlidingWindow::new(1);
    for p in 0..3u64 {
        for r in 0..RSUS {
            server.receive_sequenced(SequencedUpload {
                seq: p,
                upload: synthetic_upload(r, 0xF00D ^ p),
            });
        }
        let matrix = server.od_matrix_threads(1).expect("matrix");
        window.push(matrix.clone());
        assert_eq!(window.len(), 1, "capacity-one window never grows");
        for a in 0..RSUS {
            for b in (a + 1)..RSUS {
                let expected = matrix.get(RsuId(a), RsuId(b)).expect("covered");
                let got = window.average(RsuId(a), RsuId(b)).expect("covered");
                assert_eq!(got.n_c, expected.n_c());
                assert_eq!(got.latest, *expected);
                assert_eq!(got.periods, 1);
            }
        }
        server.finish_period().expect("period close");
    }
}
