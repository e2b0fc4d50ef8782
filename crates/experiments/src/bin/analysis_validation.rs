//! Extension — validates Section V/VI theory against Monte-Carlo
//! simulation, including the variance-model finding recorded in
//! EXPERIMENTS.md: the paper's binomial variance (Eqs. 19–22)
//! overpredicts the estimator noise several-fold, while the exact
//! occupancy variance + covariances match simulation.
//!
//! Usage:
//!   cargo run --release -p vcps-experiments --bin analysis_validation
//!     [--trials N] (default 200)

use vcps_analysis::accuracy::{self, CovarianceMethod};
use vcps_analysis::{privacy, PairParams};
use vcps_core::{RsuId, Scheme};
use vcps_experiments::{
    arg_value, default_threads, parallel_map_threads, run_accuracy_point, text_table,
};
use vcps_obs::Obs;
use vcps_sim::adversary::{observe_pair, PrivacyObservation};
use vcps_sim::synthetic::SyntheticPair;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let trials: u64 = arg_value(&args, "--trials")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);

    println!("== Analysis validation: theory vs Monte Carlo ({trials} trials/point) ==\n");

    // ---- Accuracy: bias and standard deviation -------------------------
    println!("-- estimator bias and relative sd (s = 2, f̄ = 3) --\n");
    let s = 2usize;
    let f = 3.0;
    let configs: [(u64, u64, u64); 3] = [
        (10_000, 10_000, 2_000),
        (10_000, 100_000, 2_000),
        (10_000, 500_000, 5_000),
    ];
    let scheme = Scheme::variable(s, f, 77).expect("valid scheme");
    let mut rows = Vec::new();
    for (n_x, n_y, n_c) in configs {
        let outcomes = parallel_map_threads(
            (0..trials).collect::<Vec<_>>(),
            default_threads(),
            |&seed| {
                run_accuracy_point(&scheme, n_x, n_y, n_c, seed, None, &Obs::disabled())
                    .expect("simulation failed")
                    .estimate
                    .n_c
            },
        );
        let mean = outcomes.iter().sum::<f64>() / outcomes.len() as f64;
        let var = outcomes
            .iter()
            .map(|e| (e - mean) * (e - mean))
            .sum::<f64>()
            / (outcomes.len() - 1) as f64;
        let m_x = scheme.array_size_for(n_x as f64).expect("sizing") as f64;
        let m_y = scheme.array_size_for(n_y as f64).expect("sizing") as f64;
        let p = PairParams::new(n_x as f64, n_y as f64, n_c as f64, m_x, m_y, s as f64)
            .expect("valid params");
        let sd_exact = accuracy::std_dev_ratio(&p, CovarianceMethod::Exact).expect("nested");
        let sd_binom = accuracy::std_dev_ratio(&p, CovarianceMethod::Ignore).expect("ok");
        rows.push(vec![
            format!("{n_x}/{n_y}/{n_c}"),
            format!("{:+.4}", accuracy::bias_ratio(&p)),
            format!("{:+.4}", mean / n_c as f64 - 1.0),
            format!("{:.4}", sd_exact),
            format!("{:.4}", var.sqrt() / n_c as f64),
            format!("{:.4}", sd_binom),
        ]);
    }
    println!(
        "{}",
        text_table(
            &[
                "n_x/n_y/n_c",
                "bias (Eq.33)",
                "bias (MC)",
                "sd (exact model)",
                "sd (MC)",
                "sd (paper Eq.19-22)",
            ],
            &rows
        )
    );
    println!("(the exact occupancy model matches MC; the binomial model overpredicts)\n");

    // ---- Privacy: Eq. 43 vs the tracking adversary ---------------------
    println!("-- preserved privacy: Eq. 43 vs tracking adversary --\n");
    let adversary_trials = (trials / 10).max(4);
    let mut rows = Vec::new();
    for (s, f, n_x, ratio) in [
        (2usize, 3.0, 4_000u64, 1u64),
        (2, 3.0, 4_000, 10),
        (5, 3.0, 4_000, 10),
        (2, 15.0, 4_000, 1),
    ] {
        let n_y = ratio * n_x;
        let n_c = n_x / 10;
        let scheme = Scheme::variable(s, f, 31).expect("valid scheme");
        let mut total = PrivacyObservation::default();
        for seed in 0..adversary_trials {
            let workload = SyntheticPair::generate(n_x, n_y, n_c, seed);
            total.merge(&observe_pair(&scheme, &workload, RsuId(1), RsuId(2)).expect("sizing"));
        }
        let m_x = scheme.array_size_for(n_x as f64).expect("sizing") as f64;
        let m_y = scheme.array_size_for(n_y as f64).expect("sizing") as f64;
        let p = PairParams::new(n_x as f64, n_y as f64, n_c as f64, m_x, m_y, s as f64)
            .expect("valid params");
        rows.push(vec![
            format!("s={s}, f̄={f}, n_y={ratio}n_x"),
            format!("{:.3}", privacy::preserved_privacy(&p)),
            format!("{:.3}", total.empirical_privacy().unwrap_or(f64::NAN)),
        ]);
    }
    println!(
        "{}",
        text_table(&["configuration", "Eq. 43", "adversary (MC)"], &rows)
    );
}
