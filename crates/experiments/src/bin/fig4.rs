//! Fig. 4 — accuracy scatter of the fixed-length baseline \[9\].
//!
//! `n_x = 10,000`, `n_y ∈ {1, 10, 50}·n_x`, `n_c ∈ [0.01, 0.5]·n_x`,
//! `s = 2`, `m` fixed for minimum privacy 0.5 over all three volumes.
//! The paper's shape: the first plot sits on `y = x`; the third
//! "scatters everywhere" (the 500k-vehicle RSU drowns a 150k-bit array).
//!
//! Usage:
//!   cargo run --release -p vcps-experiments --bin fig4
//!     [--points N] (default 25; the paper uses 491)
//!     [--runs R]   periods averaged per point (default 10)
//!     [--seed N]

use vcps_core::Scheme;
use vcps_experiments::{
    arg_value, choose_baseline_size, default_threads, parallel_map_threads, run_accuracy_point,
    text_table, PRIVACY_TARGET,
};
use vcps_obs::Obs;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let points: usize = arg_value(&args, "--points")
        .and_then(|v| v.parse().ok())
        .unwrap_or(25);
    let runs: u64 = arg_value(&args, "--runs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xF164);
    let s = 2usize;
    let n_x = 10_000u64;

    let volumes = [n_x as f64, 10.0 * n_x as f64, 50.0 * n_x as f64];
    let m = choose_baseline_size(&volumes, s, PRIVACY_TARGET);
    println!("== Fig. 4: baseline [9] accuracy (m = {m}, s = {s}, n_x = {n_x}) ==\n");
    let scheme = Scheme::fixed(s, m, seed).expect("valid scheme");

    for (plot, ratio) in [(1u32, 1u64), (2, 10), (3, 50)] {
        let n_y = ratio * n_x;
        println!("-- plot {plot}: n_y = {ratio}·n_x = {n_y} --");
        let n_cs: Vec<u64> = (0..points)
            .map(|i| {
                let frac = 0.01 + (0.5 - 0.01) * i as f64 / (points - 1).max(1) as f64;
                (frac * n_x as f64).round() as u64
            })
            .collect();
        // One work item per (n_c, period) so the chunked runner balances
        // across trials; seeds match the old per-point loop and sums fold
        // in trial order, keeping the printed table byte-identical.
        let trials: Vec<(u64, u64)> = n_cs
            .iter()
            .flat_map(|&n_c| (0..runs).map(move |r| (n_c, r)))
            .collect();
        let outcomes = parallel_map_threads(trials, default_threads(), |&(n_c, r)| {
            let out = run_accuracy_point(
                &scheme,
                n_x,
                n_y,
                n_c,
                seed ^ n_c ^ (r << 40),
                None,
                &Obs::disabled(),
            )
            .expect("simulation failed");
            (out.estimate.n_c, u64::from(out.estimate.clamped))
        });
        let rows: Vec<Vec<String>> = n_cs
            .iter()
            .enumerate()
            .map(|(i, &n_c)| {
                let mut sum = 0.0;
                let mut saturated = 0u64;
                for &(estimate, clamped) in &outcomes[i * runs as usize..(i + 1) * runs as usize] {
                    sum += estimate;
                    saturated += clamped;
                }
                let mean = sum / runs as f64;
                vec![
                    format!("{n_c}"),
                    format!("{mean:.1}"),
                    format!("{:.1}%", (mean - n_c as f64).abs() / n_c as f64 * 100.0),
                    format!("{saturated}/{runs}"),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(&["true n_c", "mean n̂_c", "error", "saturated"], &rows)
        );
    }
}
