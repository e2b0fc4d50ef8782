//! Robustness — measurement bias and graceful degradation under faults.
//!
//! The paper evaluates the estimator over ideal channels; this
//! experiment measures what loss does to it. Two sweeps over the Sioux
//! Falls workload (every node an RSU, the eight Table-I pairs against
//! node 10):
//!
//! * **Report loss** (vehicle → RSU): a passage survives only with
//!   probability `1−p`, and a common vehicle must survive at *both*
//!   RSUs, so the expected estimate is `n̂_c ≈ (1−p)²·n_c` — a predicted
//!   relative bias of `(1−p)²−1`. The sweep prints measured vs predicted
//!   bias per loss rate.
//! * **Upload loss** (RSU → server): uploads ride bounded retries with
//!   exponential backoff ([`vcps_sim::RetryPolicy`]); when the budget
//!   runs out the server answers from volume history with an explicit
//!   degraded estimate. The sweep prints retries, abandoned uploads, and
//!   how many pairs each rate pushed onto the degraded path.
//!
//! Usage:
//!   cargo run --release -p vcps-experiments --bin robustness
//!     [--subsample F]     trips per simulated vehicle (default 16)
//!     [--seed N]
//!     [--report-loss R]   comma list of rates (default 0,0.05,0.1,0.2,0.3,0.5)
//!     [--upload-loss R]   comma list of rates (default 0,0.25,0.5,0.75,1)
//!     [--shards K]        run each point through a K-shard batch
//!                         server instead of the monolithic one (same
//!                         JSON shape; estimates and fault metrics are
//!                         bit-identical by the DESIGN.md §15 contract)
//!     [--wal-dir PATH]    write-ahead log every upload frame under
//!                         PATH (DESIGN.md §17; implies sharded
//!                         ingestion, default 1 shard — estimates stay
//!                         bit-identical, the sweep just leaves a
//!                         recoverable log behind)
//!     [--json]            machine-readable output (used by CI)
//!     [--obs-json PATH]   record observability (retry/backoff profile,
//!                         fault counters, phase timings) and write the
//!                         registry snapshot as JSON to PATH

use vcps_core::estimator::Estimate;
use vcps_core::{PairEstimate, RsuId, Scheme};
use vcps_experiments::{
    arg_flag, arg_value, choose_novel_load_factor, default_threads, obs_from_args, text_table,
    write_obs_json, PRIVACY_TARGET,
};
use vcps_roadnet::assignment::{all_or_nothing, pair_volumes, point_volumes};
use vcps_roadnet::{expand_vehicle_trips, sioux_falls, RoadNetwork, VehicleTrip};

use vcps_sim::{
    run_period, Backend, CentralServer, Durable, DurableOptions, FaultMetrics, FaultPlan,
    LinkFaults, Monolith, PeriodRun, RetryPolicy, RunConfig, Sharded, ShardedServer, SimError,
};

/// The Table-I `R_x` node labels, measured against `R_y` = node 10.
const PAIR_LABELS: [usize; 8] = [15, 12, 7, 24, 6, 18, 2, 3];
const Y_LABEL: usize = 10;

struct ReportLossPoint {
    rate: f64,
    /// `None` when the link carried no frames at all (nothing to lose).
    measured_loss: Option<f64>,
    mean_bias: f64,
    predicted_bias: f64,
    mean_abs_err: f64,
}

struct UploadLossPoint {
    rate: f64,
    attempts: u64,
    retries: u64,
    abandoned: u64,
    degraded_pairs: usize,
    answered_pairs: usize,
    mean_abs_err_measured: f64,
}

fn parse_rates(raw: &str) -> Vec<f64> {
    raw.split(',')
        .filter_map(|t| t.trim().parse::<f64>().ok())
        .collect()
}

/// What the sweeps read from one fault-injected period. The sharding
/// layer's conformance contract makes estimates and fault metrics
/// bit-identical across server shapes, so either shape answers through
/// this one view instead of duplicating the sweeps.
trait Answers {
    fn faults(&self) -> &FaultMetrics;
    fn estimate_or_clamp(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError>;
    fn estimate_or_degraded(&self, a: RsuId, b: RsuId) -> Result<PairEstimate, SimError>;
}

impl Answers for PeriodRun<CentralServer> {
    fn faults(&self) -> &FaultMetrics {
        &self.faults
    }

    fn estimate_or_clamp(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        self.server.estimate_or_clamp(a, b)
    }

    fn estimate_or_degraded(&self, a: RsuId, b: RsuId) -> Result<PairEstimate, SimError> {
        self.server.estimate_or_degraded(a, b)
    }
}

impl Answers for PeriodRun<ShardedServer> {
    fn faults(&self) -> &FaultMetrics {
        &self.faults
    }

    fn estimate_or_clamp(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        self.server.estimate_or_clamp(a, b)
    }

    fn estimate_or_degraded(&self, a: RsuId, b: RsuId) -> Result<PairEstimate, SimError> {
        self.server.estimate_or_degraded(a, b)
    }
}

fn run_point<B: Backend>(
    scheme: &Scheme,
    roads: (&RoadNetwork, &[f64]),
    vehicles: &[VehicleTrip],
    history: &[f64],
    seed: u64,
    config: &RunConfig<B>,
) -> Box<dyn Answers>
where
    PeriodRun<B::Server>: Answers + 'static,
{
    let run = run_period(scheme, roads, vehicles, history, 3_600.0, seed, config)
        .expect("fault-injected period failed");
    Box::new(run)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let subsample: f64 = arg_value(&args, "--subsample")
        .and_then(|v| v.parse().ok())
        .unwrap_or(16.0);
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xB0B5_7EE5);
    let report_rates = arg_value(&args, "--report-loss")
        .map(|v| parse_rates(&v))
        .unwrap_or_else(|| vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.5]);
    let upload_rates = arg_value(&args, "--upload-loss")
        .map(|v| parse_rates(&v))
        .unwrap_or_else(|| vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    let json = arg_flag(&args, "--json");
    let shards: Option<usize> = arg_value(&args, "--shards").and_then(|v| v.parse().ok());
    let wal_dir: Option<std::path::PathBuf> =
        arg_value(&args, "--wal-dir").map(std::path::PathBuf::from);
    let (obs, obs_path) = obs_from_args(&args);
    let threads = default_threads();

    // Workload: Sioux Falls trips routed on free-flow times, one
    // simulated vehicle per `subsample` daily trips.
    let net = sioux_falls::network();
    let trips = sioux_falls::trip_table();
    let assignment = all_or_nothing(&net, &trips, &net.free_flow_times());
    let truth_points = point_volumes(&assignment, &trips, net.node_count());
    let truth_pairs = pair_volumes(&assignment, &trips, net.node_count());
    let vehicles = expand_vehicle_trips(&assignment, &trips, subsample);
    let history: Vec<f64> = truth_points.iter().map(|v| v / subsample).collect();
    let link_times = net.free_flow_times();

    let s = 2usize;
    let f_bar = choose_novel_load_factor(s, PRIVACY_TARGET);
    let scheme = Scheme::variable(s, f_bar, seed).expect("valid scheme");

    let y = sioux_falls::node_index(Y_LABEL);
    let pairs: Vec<(usize, f64)> = PAIR_LABELS
        .iter()
        .map(|&label| {
            let x = sioux_falls::node_index(label);
            (x, truth_pairs[x * net.node_count() + y] / subsample)
        })
        .collect();

    if !json {
        println!("== Robustness: estimator bias and degradation under faults ==\n");
        println!(
            "Sioux Falls, {} vehicles (subsample {subsample}), s = {s}, f̄ = {f_bar:.2}, seed = {seed}",
            vehicles.len()
        );
        if let Some(k) = shards {
            println!("ingestion: {k}-shard batch server (bit-identical to monolithic)");
        }
        if let Some(dir) = &wal_dir {
            println!(
                "durability: write-ahead log under {} (bit-identical)",
                dir.display()
            );
        }
        println!("pairs: eight Table-I R_x nodes vs node {Y_LABEL}\n");
    }

    // One fault-injected period through the configured server shape.
    let point = |plan: FaultPlan| -> Box<dyn Answers> {
        let roads = (&net, link_times.as_slice());
        let faults = Some((plan, RetryPolicy::default()));
        let obs = obs.clone();
        match (&wal_dir, shards) {
            (Some(dir), _) => {
                let backend = Durable {
                    shards: shards.unwrap_or(1),
                    dir: dir.clone(),
                    options: DurableOptions::log_only(),
                    crash: None,
                };
                let config = RunConfig {
                    threads,
                    obs,
                    faults,
                    backend,
                };
                run_point(&scheme, roads, &vehicles, &history, seed, &config)
            }
            (None, Some(k)) => {
                let config = RunConfig {
                    threads,
                    obs,
                    faults,
                    backend: Sharded(k),
                };
                run_point(&scheme, roads, &vehicles, &history, seed, &config)
            }
            (None, None) => {
                let config = RunConfig {
                    threads,
                    obs,
                    faults,
                    backend: Monolith,
                };
                run_point(&scheme, roads, &vehicles, &history, seed, &config)
            }
        }
    };

    // ---- Sweep 1: report loss ------------------------------------------
    let report_points: Vec<ReportLossPoint> = report_rates
        .iter()
        .map(|&p| {
            let plan = FaultPlan::new(seed).with_report_link(LinkFaults::none().with_drop(p));
            let run = point(plan);
            let mut bias_sum = 0.0;
            let mut abs_sum = 0.0;
            for &(x, truth) in &pairs {
                let est = run
                    .estimate_or_clamp(RsuId(x as u64), RsuId(y as u64))
                    .expect("measured estimate under report loss");
                let rel = (est.n_c - truth) / truth;
                bias_sum += rel;
                abs_sum += rel.abs();
            }
            ReportLossPoint {
                rate: p,
                measured_loss: run.faults().report_link.loss_fraction(),
                mean_bias: bias_sum / pairs.len() as f64,
                predicted_bias: (1.0 - p) * (1.0 - p) - 1.0,
                mean_abs_err: abs_sum / pairs.len() as f64,
            }
        })
        .collect();

    // ---- Sweep 2: upload loss ------------------------------------------
    let upload_points: Vec<UploadLossPoint> = upload_rates
        .iter()
        .map(|&p| {
            let plan = FaultPlan::new(seed).with_upload_link(LinkFaults::none().with_drop(p));
            let run = point(plan);
            let mut degraded = 0usize;
            let mut answered = 0usize;
            let mut abs_sum = 0.0;
            let mut measured = 0usize;
            for &(x, truth) in &pairs {
                let est = run
                    .estimate_or_degraded(RsuId(x as u64), RsuId(y as u64))
                    .expect("every pair answerable under upload loss");
                answered += 1;
                match est {
                    PairEstimate::Degraded(_) => degraded += 1,
                    PairEstimate::Measured(m) => {
                        abs_sum += ((m.n_c - truth) / truth).abs();
                        measured += 1;
                    }
                }
            }
            UploadLossPoint {
                rate: p,
                attempts: run.faults().upload_attempts,
                retries: run.faults().upload_retries,
                abandoned: run.faults().uploads_abandoned,
                degraded_pairs: degraded,
                answered_pairs: answered,
                mean_abs_err_measured: if measured > 0 {
                    abs_sum / measured as f64
                } else {
                    f64::NAN
                },
            }
        })
        .collect();

    if json {
        let report_json: Vec<String> = report_points
            .iter()
            .map(|p| {
                format!(
                    "{{\"rate\":{:.4},\"measured_loss\":{},\"mean_bias\":{:.6},\"predicted_bias\":{:.6},\"mean_abs_err\":{:.6}}}",
                    p.rate,
                    match p.measured_loss {
                        Some(l) => format!("{l:.6}"),
                        None => "null".to_string(),
                    },
                    p.mean_bias,
                    p.predicted_bias,
                    p.mean_abs_err
                )
            })
            .collect();
        let upload_json: Vec<String> = upload_points
            .iter()
            .map(|p| {
                format!(
                    "{{\"rate\":{:.4},\"attempts\":{},\"retries\":{},\"abandoned\":{},\"degraded_pairs\":{},\"answered_pairs\":{},\"mean_abs_err_measured\":{}}}",
                    p.rate,
                    p.attempts,
                    p.retries,
                    p.abandoned,
                    p.degraded_pairs,
                    p.answered_pairs,
                    if p.mean_abs_err_measured.is_finite() {
                        format!("{:.6}", p.mean_abs_err_measured)
                    } else {
                        "null".to_string()
                    }
                )
            })
            .collect();
        println!(
            "{{\"experiment\":\"robustness\",\"seed\":{seed},\"subsample\":{subsample},\"vehicles\":{},\"pairs\":{},\"report_loss\":[{}],\"upload_loss\":[{}]}}",
            vehicles.len(),
            pairs.len(),
            report_json.join(","),
            upload_json.join(",")
        );
        if let Some(path) = obs_path {
            write_obs_json(&path, &obs).expect("write --obs-json output");
        }
        return;
    }

    let report_rows: Vec<Vec<String>> = report_points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.rate),
                match p.measured_loss {
                    Some(l) => format!("{l:.3}"),
                    None => "n/a".to_string(),
                },
                format!("{:+.1}%", p.mean_bias * 100.0),
                format!("{:+.1}%", p.predicted_bias * 100.0),
                format!("{:.1}%", p.mean_abs_err * 100.0),
            ]
        })
        .collect();
    println!("report loss (vehicle -> RSU): bias of n̂_c vs loss rate");
    println!(
        "{}",
        text_table(
            &["loss p", "measured", "mean bias", "(1-p)^2-1", "E|err|",],
            &report_rows
        )
    );

    let upload_rows: Vec<Vec<String>> = upload_points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}", p.rate),
                format!("{}", p.attempts),
                format!("{}", p.retries),
                format!("{}", p.abandoned),
                format!("{}/{}", p.degraded_pairs, p.answered_pairs),
                if p.mean_abs_err_measured.is_finite() {
                    format!("{:.1}%", p.mean_abs_err_measured * 100.0)
                } else {
                    "-".to_string()
                },
            ]
        })
        .collect();
    println!("upload loss (RSU -> server): retry/degradation behavior");
    println!(
        "{}",
        text_table(
            &[
                "loss p",
                "attempts",
                "retries",
                "abandoned",
                "degraded",
                "E|err| measured",
            ],
            &upload_rows
        )
    );

    println!(
        "(report loss biases n̂_c toward (1-p)^2·n_c because a common vehicle\n must survive the channel at both RSUs; upload loss costs nothing until\n the retry budget is exhausted, then the server degrades to history\n bounds instead of failing)"
    );

    if let Some(path) = obs_path {
        write_obs_json(&path, &obs).expect("write --obs-json output");
    }
}
