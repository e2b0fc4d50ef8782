//! Table I — Sioux Falls accuracy comparison of both schemes.
//!
//! Eight RSU pairs against the heaviest node (`R_y` = node 10,
//! `n_y = 451k` vehicles/day), sorted by traffic difference ratio
//! `d = n_y/n_x`; `s = 2`; `f̄` and `m` chosen for minimum privacy 0.5.
//! The paper's shape: both schemes accurate at small `d`; the baseline's
//! error ratio grows by orders of magnitude with `d` while the novel
//! scheme stays below ~0.5%.
//!
//! Usage:
//!   cargo run --release -p vcps-experiments --bin table1
//!     [--from-network]   derive (n_x, n_c) from the Sioux Falls
//!                        assignment instead of the published values
//!     [--scale F]        scale all volumes by F (default 1.0)
//!     [--runs R]         measurement periods to average (default 20)
//!     [--seed N]
//!     [--shards K]       ingest through a K-shard batch server instead
//!                        of the monolithic path (bit-identical results;
//!                        exercises the DESIGN.md §15 sharding layer)
//!     [--obs-json PATH]  record observability (phase timings, kernel
//!                        choices, message counters) and write the
//!                        registry snapshot as JSON to PATH
//!
//! Run with `--release`: a full row simulates ~1M vehicle reports per
//! run.
//!
//! Reproduction note (recorded in EXPERIMENTS.md): the paper's Table I
//! prints error ratios of 0.1–0.3% for the novel scheme even at
//! `n_c = 3k`, where its *own* variance analysis (and ours, Monte-Carlo
//! validated) puts the single-run relative sd near 10%. We therefore
//! report the mean over `--runs` periods together with the analytic
//! per-run sd; the paper's *shape* — the novel scheme strictly more
//! accurate at every pair, and the baseline degrading as `d` grows —
//! reproduces, while its absolute sub-percent single-run errors cannot.

use vcps_analysis::accuracy::{self, CovarianceMethod};
use vcps_analysis::PairParams;
use vcps_core::Scheme;
use vcps_experiments::{
    arg_flag, arg_value, choose_baseline_size, choose_novel_load_factor, default_threads,
    obs_from_args, parallel_map_threads, run_accuracy_point, text_table, write_obs_json,
    PRIVACY_TARGET,
};
use vcps_roadnet::assignment::{all_or_nothing, pair_volumes, point_volumes};
use vcps_roadnet::sioux_falls;

/// The published Table I row parameters, in thousands of vehicles/day:
/// `(R_x label, n_x, n_c)`; `R_y` = node 10 with `n_y = 451`.
const PAPER_ROWS: [(usize, f64, f64); 8] = [
    (15, 213.0, 40.0),
    (12, 140.0, 20.0),
    (7, 121.0, 19.0),
    (24, 78.0, 8.0),
    (6, 76.0, 8.0),
    (18, 47.0, 7.0),
    (2, 40.0, 6.0),
    (3, 28.0, 3.0),
];

const N_Y_THOUSANDS: f64 = 451.0;

fn network_rows() -> Vec<(usize, f64, f64)> {
    let net = sioux_falls::network();
    let trips = sioux_falls::trip_table();
    let a = all_or_nothing(&net, &trips, &net.free_flow_times());
    let volumes = point_volumes(&a, &trips, net.node_count());
    let pairs = pair_volumes(&a, &trips, net.node_count());
    let y = sioux_falls::node_index(10);
    // Scale so node 10 carries 451k/day, as in the paper.
    let scale = N_Y_THOUSANDS * 1_000.0 / volumes[y];
    PAPER_ROWS
        .iter()
        .map(|&(label, _, _)| {
            let x = sioux_falls::node_index(label);
            (
                label,
                volumes[x] * scale / 1_000.0,
                pairs[x * net.node_count() + y] * scale / 1_000.0,
            )
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = arg_value(&args, "--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x7AB1_E001);
    let from_network = arg_flag(&args, "--from-network");
    let shards: Option<usize> = arg_value(&args, "--shards").and_then(|v| v.parse().ok());
    let s = 2usize;

    let rows = if from_network {
        network_rows()
    } else {
        PAPER_ROWS.to_vec()
    };
    let n_y = (N_Y_THOUSANDS * 1_000.0 * scale).round() as u64;

    // Parameter policy (§VII): minimum privacy ≥ 0.5 for every pair.
    let f_bar = choose_novel_load_factor(s, PRIVACY_TARGET);
    let mut volumes: Vec<f64> = rows.iter().map(|r| r.1 * 1_000.0 * scale).collect();
    volumes.push(n_y as f64);
    let m_fixed = choose_baseline_size(&volumes, s, PRIVACY_TARGET);

    println!("== Table I: Sioux Falls point-to-point accuracy ==\n");
    println!(
        "source: {}  |  s = {s}  |  scale = {scale}",
        if from_network {
            "Sioux Falls assignment (scaled to n_y = 451k)"
        } else {
            "published row parameters"
        }
    );
    println!("novel scheme: f̄ = {f_bar:.2} (privacy ≥ {PRIVACY_TARGET})");
    println!("baseline [9]: m = {m_fixed} (privacy ≥ {PRIVACY_TARGET}, binds at n_min)");
    if let Some(k) = shards {
        println!("ingestion: {k}-shard batch server (bit-identical to monolithic)");
    }
    println!();

    let runs: u64 = arg_value(&args, "--runs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    let novel = Scheme::variable(s, f_bar, seed).expect("valid scheme");
    let baseline = Scheme::fixed(s, m_fixed, seed).expect("valid scheme");

    struct Row {
        label: usize,
        n_x: u64,
        n_c: u64,
        mean_novel: f64,
        mean_base: f64,
        abs_err_novel: f64,
        abs_err_base: f64,
        sd_novel: f64,
        sd_base: f64,
    }

    // Flatten every (row, trial) pair into one work list so the chunked
    // runner balances across trials, not just rows — heavy rows (large
    // n_x) no longer serialize behind a single worker. Per-trial seeds
    // are unchanged from the sequential loop, and the per-row sums below
    // fold in trial order, so the output is byte-identical.
    let trials: Vec<(usize, u64, u64, u64)> = rows
        .iter()
        .flat_map(|&(label, n_x_k, n_c_k)| {
            let n_x = (n_x_k * 1_000.0 * scale).round() as u64;
            let n_c = (n_c_k * 1_000.0 * scale).round().max(1.0) as u64;
            (0..runs).map(move |r| (label, n_x, n_c, r))
        })
        .collect();
    let (obs, obs_path) = obs_from_args(&args);
    let trial_outcomes: Vec<(f64, f64, f64, f64)> =
        parallel_map_threads(trials, default_threads(), |&(label, n_x, n_c, r)| {
            let point_seed = seed ^ (label as u64) << 32 ^ r;
            let novel_out = run_accuracy_point(&novel, n_x, n_y, n_c, point_seed, shards, &obs)
                .expect("simulation failed");
            let base_out = run_accuracy_point(&baseline, n_x, n_y, n_c, point_seed, shards, &obs)
                .expect("simulation failed");
            (
                novel_out.estimate.n_c,
                base_out.estimate.n_c,
                novel_out.relative_error().unwrap_or(f64::NAN),
                base_out.relative_error().unwrap_or(f64::NAN),
            )
        });

    let results: Vec<Row> = rows
        .iter()
        .enumerate()
        .map(|(row_index, &(label, n_x_k, n_c_k))| {
            let n_x = (n_x_k * 1_000.0 * scale).round() as u64;
            let n_c = (n_c_k * 1_000.0 * scale).round().max(1.0) as u64;
            let mut sums = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            let base = row_index * runs as usize;
            for &(novel_nc, base_nc, novel_err, base_err) in
                &trial_outcomes[base..base + runs as usize]
            {
                sums.0 += novel_nc;
                sums.1 += base_nc;
                sums.2 += novel_err;
                sums.3 += base_err;
            }
            // Analytic per-run relative sd for context (exact moment model).
            let analytic_sd = |m_x: f64, m_y: f64| {
                PairParams::new(n_x as f64, n_y as f64, n_c as f64, m_x, m_y, s as f64)
                    .ok()
                    .and_then(|p| accuracy::std_dev_ratio(&p, CovarianceMethod::Exact).ok())
                    .unwrap_or(f64::NAN)
            };
            let m_x_novel = novel.array_size_for(n_x as f64).expect("sizing") as f64;
            let m_y_novel = novel.array_size_for(n_y as f64).expect("sizing") as f64;
            Row {
                label,
                n_x,
                n_c,
                mean_novel: sums.0 / runs as f64,
                mean_base: sums.1 / runs as f64,
                abs_err_novel: sums.2 / runs as f64,
                abs_err_base: sums.3 / runs as f64,
                sd_novel: analytic_sd(m_x_novel, m_y_novel),
                sd_base: analytic_sd(m_fixed as f64, m_fixed as f64),
            }
        })
        .collect();

    let table_rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let d = n_y as f64 / r.n_x as f64;
            vec![
                format!("{}", r.label),
                format!("{:.0}", r.n_x as f64 / (1_000.0 * scale)),
                format!("{d:.3}"),
                format!("{:.0}", r.n_c as f64 / (1_000.0 * scale)),
                format!("{:.3}", r.mean_base / (1_000.0 * scale)),
                format!("{:.3}", r.mean_novel / (1_000.0 * scale)),
                format!("{:.2}%", r.abs_err_base * 100.0),
                format!("{:.2}%", r.abs_err_novel * 100.0),
                format!("{:.2}%", r.sd_base * 100.0),
                format!("{:.2}%", r.sd_novel * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "R_x",
                "n_x (k)",
                "d=n_y/n_x",
                "n_c (k)",
                "mean n̂_c [9] (k)",
                "mean n̂_c novel (k)",
                "E|err| [9]",
                "E|err| novel",
                "sd/run [9]",
                "sd/run novel",
            ],
            &table_rows
        )
    );

    // Shape check (what EXPERIMENTS.md records): the novel scheme is
    // more accurate at every pair and the baseline degrades with d.
    let wins = results
        .iter()
        .filter(|r| r.abs_err_novel < r.abs_err_base)
        .count();
    let ratio_low_d = results[0].abs_err_base / results[0].abs_err_novel;
    let last = results.last().expect("rows nonempty");
    let ratio_high_d = last.abs_err_base / last.abs_err_novel;
    println!(
        "shape check: novel wins {wins}/{} pairs; err[9]/err[novel] = {ratio_low_d:.1}x at d={:.1}, {ratio_high_d:.1}x at d={:.1}",
        results.len(),
        n_y as f64 / results[0].n_x as f64,
        n_y as f64 / last.n_x as f64,
    );
    println!(
        "baseline error growth with d: {:.2}% -> {:.2}% (paper: 0.12% -> 12%)",
        results[0].abs_err_base * 100.0,
        last.abs_err_base * 100.0
    );

    if let Some(path) = obs_path {
        write_obs_json(&path, &obs).expect("write --obs-json output");
    }
}
