//! O–D matrix — the all-pairs decode pipeline end to end.
//!
//! Two modes:
//!
//! * **Synthetic sweep** (default): servers with `--rsus` uploads at
//!   each `--loads` fill fraction (array sizes cycle m, m/2, m/4 so all
//!   kernels fire), timing the batch
//!   [`CentralServer::od_matrix_threads`] pipeline at each `--threads`
//!   count against the per-pair
//!   clone-and-rescan baseline the server used before the batch decoder
//!   existed (DESIGN.md §13). Emits the same row shape as
//!   `BENCH_odmatrix.json`.
//! * **`--sioux-falls`**: drives one measurement period over the Sioux
//!   Falls network (an RSU at every one of the 24 nodes), computes the
//!   full matrix, and prints it — with `--json`, a machine-readable
//!   24×24 `n̂_c` matrix (diagonal `null`) that CI asserts is symmetric
//!   and finite.
//!
//! Usage:
//!   cargo run --release -p vcps-experiments --bin odmatrix
//!     [--rsus LIST]      synthetic RSU counts (default 8,24)
//!     [--loads LIST]     synthetic fill fractions (default 0.005,0.3)
//!     [--threads LIST]   worker counts (default 1,2,4 + available cores)
//!     [--samples N]      timing samples per point (default 3)
//!     [--seed N]
//!     [--sioux-falls]    decode the road-network period instead
//!     [--subsample F]    trips per simulated vehicle (default 16)
//!     [--shards K]       (with --sioux-falls) additionally run the same
//!                        period through a K-shard batch-ingestion server
//!                        and record whether its matrix is bit-identical
//!                        (`"sharded_equal"` in the JSON; CI asserts it)
//!     [--json]           machine-readable output (used by CI)
//!     [--out FILE]       also write the JSON to FILE

use std::time::Instant;

use vcps_bench::{od_server, pairwise_dense_baseline};
use vcps_core::{PairEstimate, Scheme};
use vcps_experiments::{
    arg_flag, arg_value, choose_novel_load_factor, default_threads, text_table, PRIVACY_TARGET,
};
use vcps_roadnet::assignment::all_or_nothing;
use vcps_roadnet::assignment::point_volumes;
use vcps_roadnet::{expand_vehicle_trips, sioux_falls};
use vcps_sim::{run_period, Monolith, OdMatrix, RunConfig, Sharded};

fn parse_list<T: std::str::FromStr>(raw: &str) -> Vec<T> {
    raw.split(',')
        .filter_map(|t| t.trim().parse::<T>().ok())
        .collect()
}

/// Median wall-clock nanoseconds of `samples` runs of `f` (one untimed
/// warm-up).
fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> u128 {
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

struct SweepRow {
    rsus: usize,
    load: f64,
    threads: usize,
    pairwise_ns: u128,
    od_matrix_ns: u128,
}

fn synthetic_sweep(
    rsu_counts: &[usize],
    loads: &[f64],
    thread_counts: &[usize],
    samples: usize,
    seed: u64,
) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for &rsus in rsu_counts {
        for &load in loads {
            let (server, ids) = od_server(rsus, 1 << 17, load, seed);
            let pairwise_ns = median_ns(samples, || {
                let estimates = pairwise_dense_baseline(&server, &ids);
                assert_eq!(estimates.len(), rsus * (rsus - 1) / 2);
            });
            for &threads in thread_counts {
                let od_matrix_ns = median_ns(samples, || {
                    let matrix = server.od_matrix_threads(threads).expect("decodable");
                    assert_eq!(matrix.len(), rsus);
                });
                rows.push(SweepRow {
                    rsus,
                    load,
                    threads,
                    pairwise_ns,
                    od_matrix_ns,
                });
            }
        }
    }
    rows
}

fn sweep_json(rows: &[SweepRow], seed: u64, samples: usize) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"rsus\":{},\"load_factor\":{},\"threads\":{},\"pairwise_ns\":{},\"od_matrix_ns\":{},\"speedup_vs_pairwise\":{:.3}}}",
                r.rsus,
                r.load,
                r.threads,
                r.pairwise_ns,
                r.od_matrix_ns,
                r.pairwise_ns as f64 / r.od_matrix_ns.max(1) as f64
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"odmatrix\",\"mode\":\"synthetic\",\"seed\":{seed},\"samples\":{samples},\"od_matrix\":[{}]}}",
        body.join(",")
    )
}

/// The Sioux Falls matrix as JSON: `n̂_c` per ordered pair (`null` on
/// the diagonal), plus how many entries took the degraded path and —
/// when `--shards` is given — whether the sharded server reproduced the
/// matrix bit for bit.
fn matrix_json(
    matrix: &OdMatrix,
    subsample: f64,
    seed: u64,
    shards: Option<usize>,
    sharded_equal: Option<bool>,
) -> String {
    let n = matrix.len();
    let mut degraded = 0usize;
    let rows: Vec<String> = (0..n)
        .map(|i| {
            let cells: Vec<String> = (0..n)
                .map(|j| match matrix.at(i, j) {
                    None => "null".to_string(),
                    Some(e) => {
                        if matches!(e, PairEstimate::Degraded(_)) {
                            degraded += 1;
                        }
                        format!("{:.4}", e.n_c())
                    }
                })
                .collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    let ids: Vec<String> = matrix.rsus().iter().map(|r| r.0.to_string()).collect();
    let shards_field = shards.map_or("null".to_string(), |k| k.to_string());
    let equal_field = sharded_equal.map_or("null".to_string(), |e| e.to_string());
    format!(
        "{{\"experiment\":\"odmatrix\",\"mode\":\"sioux_falls\",\"seed\":{seed},\"subsample\":{subsample},\"shards\":{shards_field},\"sharded_equal\":{equal_field},\"rsus\":[{}],\"degraded_entries\":{degraded},\"matrix\":[{}]}}",
        ids.join(","),
        rows.join(",")
    )
}

fn run_sioux_falls(subsample: f64, seed: u64, shards: Option<usize>) -> (OdMatrix, Option<bool>) {
    let net = sioux_falls::network();
    let trips = sioux_falls::trip_table();
    let assignment = all_or_nothing(&net, &trips, &net.free_flow_times());
    let truth_points = point_volumes(&assignment, &trips, net.node_count());
    let vehicles = expand_vehicle_trips(&assignment, &trips, subsample);
    let history: Vec<f64> = truth_points.iter().map(|v| v / subsample).collect();

    let s = 2usize;
    let f_bar = choose_novel_load_factor(s, PRIVACY_TARGET);
    let scheme = Scheme::variable(s, f_bar, seed).expect("valid scheme");
    let run = run_period(
        &scheme,
        (&net, &net.free_flow_times()),
        &vehicles,
        &history,
        3_600.0,
        seed,
        &RunConfig {
            threads: default_threads(),
            ..RunConfig::new(Monolith)
        },
    )
    .expect("network period failed");
    let matrix = run
        .server
        .od_matrix_threads(default_threads())
        .expect("all-pairs decode failed");

    // With --shards: replay the identical period through the sharded
    // batch-ingestion server and record whether the two matrices are bit
    // for bit equal — the DESIGN.md §15 conformance contract, checked by
    // the shard-smoke CI job on real road-network traffic.
    let sharded_equal = shards.map(|k| {
        let sharded = run_period(
            &scheme,
            (&net, &net.free_flow_times()),
            &vehicles,
            &history,
            3_600.0,
            seed,
            &RunConfig {
                threads: default_threads(),
                ..RunConfig::new(Sharded(k))
            },
        )
        .expect("sharded network period failed");
        let sharded_matrix = sharded
            .server
            .od_matrix_threads(default_threads())
            .expect("sharded all-pairs decode failed");
        sharded_matrix == matrix
    });
    (matrix, sharded_equal)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x0D_5EED);
    let samples: usize = arg_value(&args, "--samples")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    let json = arg_flag(&args, "--json");
    let out = arg_value(&args, "--out");

    let payload = if arg_flag(&args, "--sioux-falls") {
        let subsample: f64 = arg_value(&args, "--subsample")
            .and_then(|v| v.parse().ok())
            .unwrap_or(16.0);
        let shards: Option<usize> = arg_value(&args, "--shards").and_then(|v| v.parse().ok());
        let (matrix, sharded_equal) = run_sioux_falls(subsample, seed, shards);
        let payload = matrix_json(&matrix, subsample, seed, shards, sharded_equal);
        if json {
            println!("{payload}");
        } else {
            println!("== O–D matrix: Sioux Falls, one period ==\n");
            let n = matrix.len();
            println!("{n} RSUs, {} decoded pairs", n * (n - 1) / 2);
            if let (Some(k), Some(equal)) = (shards, sharded_equal) {
                println!(
                    "{k}-shard batch server: {}",
                    if equal {
                        "matrix bit-identical to monolithic"
                    } else {
                        "MATRIX DIVERGED from monolithic (conformance bug)"
                    }
                );
            }
            let mut preview: Vec<Vec<String>> = Vec::new();
            for (a, b, e) in matrix.iter_pairs().take(8) {
                preview.push(vec![
                    format!("{}→{}", a.0, b.0),
                    format!("{:.1}", e.n_c()),
                    match e {
                        PairEstimate::Measured(_) => "measured".into(),
                        PairEstimate::Degraded(_) => "degraded".into(),
                    },
                ]);
            }
            println!("{}", text_table(&["pair", "n̂_c", "provenance"], &preview));
            println!("(first 8 of the upper triangle; --json for the full matrix)");
        }
        payload
    } else {
        let rsu_counts: Vec<usize> = arg_value(&args, "--rsus")
            .map(|v| parse_list(&v))
            .unwrap_or_else(|| vec![8, 24]);
        let loads: Vec<f64> = arg_value(&args, "--loads")
            .map(|v| parse_list(&v))
            .unwrap_or_else(|| vec![0.005, 0.3]);
        let mut thread_counts: Vec<usize> = arg_value(&args, "--threads")
            .map(|v| parse_list(&v))
            .unwrap_or_else(|| vec![1, 2, 4]);
        let n = default_threads();
        if !thread_counts.contains(&n) {
            thread_counts.push(n);
        }
        let rows = synthetic_sweep(&rsu_counts, &loads, &thread_counts, samples, seed);
        let payload = sweep_json(&rows, seed, samples);
        if json {
            println!("{payload}");
        } else {
            println!("== O–D matrix: batch pipeline vs per-pair baseline ==\n");
            let table: Vec<Vec<String>> = rows
                .iter()
                .map(|r| {
                    vec![
                        r.rsus.to_string(),
                        format!("{}", r.load),
                        r.threads.to_string(),
                        format!("{:.3} ms", r.pairwise_ns as f64 / 1e6),
                        format!("{:.3} ms", r.od_matrix_ns as f64 / 1e6),
                        format!(
                            "{:.2}x",
                            r.pairwise_ns as f64 / r.od_matrix_ns.max(1) as f64
                        ),
                    ]
                })
                .collect();
            println!(
                "{}",
                text_table(
                    &[
                        "RSUs",
                        "load",
                        "threads",
                        "pairwise",
                        "od_matrix",
                        "speedup"
                    ],
                    &table
                )
            );
            println!(
                "(pairwise = per-pair dense clone-and-rescan, the pre-batch decoder;\n od_matrix = cached sparse-aware pipeline of DESIGN.md §13)"
            );
        }
        payload
    };

    if let Some(path) = out {
        std::fs::write(&path, payload + "\n").expect("write --out file");
        eprintln!("wrote {path}");
    }
}
