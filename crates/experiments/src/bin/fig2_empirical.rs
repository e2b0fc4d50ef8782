//! Fig. 2, validated by simulation: the tracking adversary's measured
//! privacy overlaid on the analytic curves, across the load-factor grid.
//!
//! The analytic Fig. 2 assumes the closed form (Eq. 43) is right; this
//! binary *measures* the same quantity by instrumented simulation
//! (`vcps_sim::adversary`), at the actual power-of-two sizes the scheme
//! deploys — so it also shows the rounding staircase that the smooth
//! analytic curves hide.
//!
//! Usage:
//!   cargo run --release -p vcps-experiments --bin fig2_empirical
//!     [--points N] (default 10) [--trials T] (default 6) [--seed X]

use vcps_analysis::{privacy, PairParams};
use vcps_core::{RsuId, Scheme};
use vcps_experiments::{
    arg_value, default_threads, log_grid, parallel_map_threads, text_table, OVERLAP_FRACTION,
};
use vcps_sim::adversary::{observe_pair, PrivacyObservation};
use vcps_sim::synthetic::SyntheticPair;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let points: usize = arg_value(&args, "--points")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let trials: u64 = arg_value(&args, "--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(6);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xF1_62E);
    let n_x = 5_000u64;
    let n_c = (OVERLAP_FRACTION * n_x as f64) as u64;

    for (plot, ratio) in [(1u32, 1u64), (2, 10)] {
        let n_y = ratio * n_x;
        println!("== Fig. 2 (empirical), plot {plot}: n_y = {ratio}·n_x, s = 2 ==");
        println!("(analytic at deployed power-of-two sizes vs tracking adversary)\n");
        let grid = log_grid(0.5, 30.0, points);
        let rows = parallel_map_threads(grid, default_threads(), |&f| {
            let scheme = Scheme::variable(2, f, seed).expect("valid scheme");
            let m_x = scheme.array_size_for(n_x as f64).expect("sizing");
            let m_y = scheme.array_size_for(n_y as f64).expect("sizing");
            let analytic = PairParams::new(
                n_x as f64, n_y as f64, n_c as f64, m_x as f64, m_y as f64, 2.0,
            )
            .map(|p| privacy::preserved_privacy(&p))
            .unwrap_or(f64::NAN);
            let mut total = PrivacyObservation::default();
            for t in 0..trials {
                let workload = SyntheticPair::generate(n_x, n_y, n_c, seed ^ (t << 13));
                total.merge(
                    &observe_pair(&scheme, &workload, RsuId(1), RsuId(2)).expect("observation"),
                );
            }
            vec![
                format!("{f:.2}"),
                format!("{:.1}", m_x as f64 / n_x as f64),
                format!("{analytic:.3}"),
                format!("{:.3}", total.empirical_privacy().unwrap_or(f64::NAN)),
                format!("{}", total.both_set),
            ]
        });
        println!(
            "{}",
            text_table(
                &[
                    "f̄",
                    "effective f_x",
                    "p (Eq.43)",
                    "p (adversary)",
                    "positions"
                ],
                &rows
            )
        );
    }
    println!("(the staircase in 'effective f_x' is the power-of-two rounding;");
    println!(" the adversary column tracks the analytic one at the deployed sizes)");
}
