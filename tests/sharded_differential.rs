//! Differential conformance suite for the sharded batch-ingestion
//! server (DESIGN.md §15).
//!
//! The sharding layer's core contract is that a [`ShardedServer`] is an
//! *indistinguishable* drop-in for the monolithic [`CentralServer`]:
//! same pair estimates, same O–D matrices, and same registry counters
//! (modulo its own `shard.*` / `batch.*` series) at every shard count ×
//! worker count — under ideal channels and under seeded fault
//! injection. These properties drive randomized workloads through both
//! server shapes and assert bit-identity, not approximate agreement.

use std::collections::BTreeMap;

use proptest::prelude::*;

use vcps::hash::splitmix64;
use vcps::obs::Obs;
use vcps::roadnet::{Link, RoadNetwork, VehicleTrip};
use vcps::sim::protocol::{PeriodUpload, SequencedUpload};
use vcps::sim::{
    run_period, CentralServer, FaultPlan, LinkFaults, Monolith, RetryPolicy, RunConfig, Sharded,
    ShardedServer,
};
use vcps::{BitArray, RsuId, Scheme};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Strips the sharded server's own progress series, leaving exactly the
/// counters the monolith also fires.
fn strip_shard_series(mut counters: BTreeMap<String, u64>) -> BTreeMap<String, u64> {
    counters.retain(|name, _| !name.starts_with("shard.") && !name.starts_with("batch."));
    counters
}

/// A deterministic pseudo-random period workload: one sequenced upload
/// per RSU (power-of-two array sizes from 64 to 1024 bits, varying fill
/// and sequence numbers) plus seed-derived re-sends that exercise the
/// duplicate / conflicting / stale dedup outcomes.
fn workload(rsus: u64, seed: u64) -> Vec<SequencedUpload> {
    let mut frames = Vec::new();
    for r in 1..=rsus {
        let h = splitmix64(seed ^ r);
        let m = 1usize << (6 + (h % 5) as usize);
        let ones = (h >> 8) % (m as u64 / 2);
        let bits = BitArray::from_indices(
            m,
            (0..ones).map(|i| (splitmix64(h ^ i) % m as u64) as usize),
        )
        .expect("indices in range");
        frames.push(SequencedUpload {
            seq: h % 3,
            upload: PeriodUpload {
                rsu: RsuId(r),
                counter: bits.count_ones() as u64 + h % 7,
                bits,
            },
        });
    }
    for r in 1..=rsus {
        let h = splitmix64(seed ^ r ^ 0xD1FF);
        let mut resend = frames[(r - 1) as usize].clone();
        match h % 4 {
            0 => continue,
            1 => {}                          // identical re-send -> Duplicate
            2 => resend.upload.counter ^= 1, // same seq, new content -> Conflicting
            _ => {
                // Lower sequence -> Stale (skipped when already at 0).
                if resend.seq == 0 {
                    continue;
                }
                resend.seq -= 1;
            }
        }
        frames.push(resend);
    }
    frames
}

/// Ingests the workload into a monolithic server the sequential way and
/// decodes everything, returning the server and its counter snapshot.
fn monolith(rsus: u64, frames: &[SequencedUpload]) -> (CentralServer, BTreeMap<String, u64>) {
    let obs = Obs::enabled();
    let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
    let mut server = CentralServer::new(scheme, 1.0)
        .expect("valid alpha")
        .with_obs(obs.clone());
    for r in 1..=rsus {
        server.seed_history(RsuId(r), (splitmix64(r) % 1_000 + 10) as f64);
    }
    for frame in frames {
        server.receive_sequenced(frame.clone());
    }
    let _ = server.od_matrix_threads(1);
    (server, obs.snapshot().counters)
}

/// A 4-node line network and a seed-derived trip population over it —
/// small enough for property-test budgets, rich enough that every node
/// sees traffic and pairs overlap partially.
fn line4() -> RoadNetwork {
    RoadNetwork::new(
        4,
        vec![
            Link::new(0, 1, 10.0, 2.0),
            Link::new(1, 2, 10.0, 3.0),
            Link::new(2, 3, 10.0, 2.5),
        ],
    )
    .expect("valid network")
}

fn line4_trips(count: u64, seed: u64) -> Vec<VehicleTrip> {
    const ROUTES: [&[usize]; 4] = [&[0, 1, 2, 3], &[0, 1, 2], &[1, 2, 3], &[2, 3]];
    (0..count)
        .map(|id| {
            let route = ROUTES[(splitmix64(seed ^ id) % 4) as usize].to_vec();
            VehicleTrip {
                id,
                origin: *route.first().expect("non-empty route"),
                dest: *route.last().expect("non-empty route"),
                route,
            }
        })
        .collect()
}

/// Every unordered RSU pair's estimate (measured or degraded), pulled
/// through the given closure so both server shapes share one call site.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Direct ingestion differential: random uploads (with duplicate,
    /// conflicting, and stale re-sends) through `receive_sequenced`, in
    /// input order, at every shard count, decoded at every worker count,
    /// must reproduce the monolith's estimates, O–D matrix, and counters
    /// bit for bit.
    #[test]
    fn sharded_ingestion_is_bit_identical_to_monolith(
        rsus in 3u64..12,
        seed in any::<u64>(),
    ) {
        let frames = workload(rsus, seed);
        let (mono, mono_counters) = monolith(rsus, &frames);
        let mono_matrix = mono.od_matrix_threads(1);

        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let obs = Obs::enabled();
                let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
                let mut server = ShardedServer::new(scheme, 1.0, shards)
                    .expect("valid shard count")
                    .with_obs(obs.clone());
                for r in 1..=rsus {
                    server.seed_history(RsuId(r), (splitmix64(r) % 1_000 + 10) as f64);
                }
                for frame in &frames {
                    server.receive_sequenced(frame.clone());
                }
                // Mirror the monolith's instrumented work exactly —
                // ingest then one all-pairs decode — before snapshotting,
                // so the counter comparison is apples to apples.
                let sharded_matrix = server.od_matrix_threads(threads);
                prop_assert_eq!(
                    strip_shard_series(obs.snapshot().counters), mono_counters.clone(),
                    "counters at {} shards x {} threads", shards, threads
                );

                prop_assert_eq!(
                    server.upload_count(), mono.upload_count(),
                    "upload count at {} shards x {} threads", shards, threads
                );
                for r in 1..=rsus {
                    prop_assert_eq!(
                        server.upload(RsuId(r)), mono.upload(RsuId(r)),
                        "upload bytes for rsu {} at {} shards x {} threads", r, shards, threads
                    );
                }
                prop_assert_eq!(
                    sharded_matrix, mono_matrix.clone(),
                    "od matrix at {} shards x {} threads", shards, threads
                );
                let sharded_pairs = all_pair_estimates(rsus + 1, |a, b| server.estimate_or_degraded(a, b));
                let mono_pairs = all_pair_estimates(rsus + 1, |a, b| mono.estimate_or_degraded(a, b));
                prop_assert_eq!(
                    sharded_pairs, mono_pairs,
                    "pair estimates at {} shards x {} threads", shards, threads
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Engine-level ideal-channel differential over a road network: the
    /// sharded run (batch-framed ingestion) must match the monolithic
    /// run's uploads, estimates, and counters at every shard × thread
    /// count.
    #[test]
    fn sharded_network_run_matches_monolith(
        trip_count in 60u64..200,
        seed in any::<u64>(),
    ) {
        let net = line4();
        let trips = line4_trips(trip_count, seed);
        let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
        let history = vec![trip_count as f64; 4];
        let mono_obs = Obs::enabled();
        let mono = run_period(
            &scheme, (&net, &net.free_flow_times()), &trips, &history, 60.0, seed,
            &RunConfig { obs: mono_obs.clone(), ..RunConfig::new(Monolith) },
        ).expect("monolithic run");
        let mono_pairs = all_pair_estimates(4, |a, b| mono.server.estimate_or_degraded(a, b));

        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let obs = Obs::enabled();
                let run = run_period(
                    &scheme, (&net, &net.free_flow_times()), &trips, &history, 60.0, seed,
                    &RunConfig { threads, obs: obs.clone(), ..RunConfig::new(Sharded(shards)) },
                ).expect("sharded run");
                prop_assert_eq!(run.exchanges, mono.exchanges);
                for node in 0..4u64 {
                    prop_assert_eq!(
                        run.server.upload(RsuId(node)), mono.server.upload(RsuId(node)),
                        "upload for node {} at {} shards x {} threads", node, shards, threads
                    );
                }
                prop_assert_eq!(
                    all_pair_estimates(4, |a, b| run.server.estimate_or_degraded(a, b)),
                    mono_pairs.clone(),
                    "estimates at {} shards x {} threads", shards, threads
                );
                prop_assert_eq!(
                    strip_shard_series(obs.snapshot().counters),
                    mono_obs.snapshot().counters,
                    "counters at {} shards x {} threads", shards, threads
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Engine-level fault-injected differential: with seeded drop /
    /// duplication / corruption on both channels, the sharded run must
    /// replay the monolith's every fault decision — identical fault
    /// metrics, undelivered sets, upload bytes, estimates, and counters
    /// at every shard × thread count. (Rates include 0, so the ideal
    /// channel is a degenerate case of this property.)
    #[test]
    fn sharded_faulty_run_matches_monolith(
        trip_count in 60u64..160,
        seed in any::<u64>(),
        report_drop in 0.0f64..0.4,
        report_flip in 0.0f64..0.2,
        upload_drop in 0.0f64..0.6,
        upload_dup in 0.0f64..0.3,
    ) {
        let net = line4();
        let trips = line4_trips(trip_count, seed);
        let scheme = Scheme::variable(2, 3.0, 9).expect("valid scheme");
        let history = vec![trip_count as f64; 4];
        let plan = FaultPlan::new(seed ^ 0xFA_17)
            .with_report_link(
                LinkFaults::none().with_drop(report_drop).with_bit_flip(report_flip),
            )
            .with_upload_link(
                LinkFaults::none().with_drop(upload_drop).with_duplicate(upload_dup),
            );
        let policy = RetryPolicy::default();
        let mono_obs = Obs::enabled();
        let mono = run_period(
            &scheme, (&net, &net.free_flow_times()), &trips, &history, 60.0, seed,
            &RunConfig {
                obs: mono_obs.clone(),
                faults: Some((plan.clone(), policy)),
                ..RunConfig::new(Monolith)
            },
        ).expect("monolithic faulty run");
        let mono_pairs = all_pair_estimates(4, |a, b| mono.server.estimate_or_degraded(a, b));

        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let obs = Obs::enabled();
                let run = run_period(
                    &scheme, (&net, &net.free_flow_times()), &trips, &history, 60.0, seed,
                    &RunConfig {
                        threads,
                        obs: obs.clone(),
                        faults: Some((plan.clone(), policy)),
                        backend: Sharded(shards),
                    },
                ).expect("sharded faulty run");
                prop_assert_eq!(run.exchanges, mono.exchanges);
                prop_assert_eq!(
                    &run.faults, &mono.faults,
                    "fault metrics at {} shards x {} threads", shards, threads
                );
                prop_assert_eq!(
                    &run.undelivered, &mono.undelivered,
                    "undelivered at {} shards x {} threads", shards, threads
                );
                for node in 0..4u64 {
                    prop_assert_eq!(
                        run.server.upload(RsuId(node)), mono.server.upload(RsuId(node)),
                        "upload for node {} at {} shards x {} threads", node, shards, threads
                    );
                }
                prop_assert_eq!(
                    all_pair_estimates(4, |a, b| run.server.estimate_or_degraded(a, b)),
                    mono_pairs.clone(),
                    "estimates at {} shards x {} threads", shards, threads
                );
                prop_assert_eq!(
                    strip_shard_series(obs.snapshot().counters),
                    mono_obs.snapshot().counters,
                    "counters at {} shards x {} threads", shards, threads
                );
            }
        }
    }
}
