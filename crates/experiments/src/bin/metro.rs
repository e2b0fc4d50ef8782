//! Metropolis-scale continuous estimation (DESIGN.md §20).
//!
//! The flagship end-to-end scenario: synthesizes a gravity-model
//! metropolis (grid or ring–radial network, dead zones, double-peaked
//! diurnal demand), assigns each period's trips by MSA user
//! equilibrium, and streams every vehicle report through the sharded
//! batch-ingestion server for `--periods` consecutive measurement
//! periods with a `--window`-period sliding O–D window. Every run also
//! replays the identical workload through the monolithic server and
//! records whether the two shapes agreed bit for bit (`sharded_equal`
//! in the JSON; the metro-smoke CI job asserts it), plus estimation
//! accuracy against exact per-vehicle ground truth, ingest throughput,
//! O–D matrix latency, and peak RSS.
//!
//! Usage:
//!   cargo run --release -p vcps-experiments --bin metro
//!     [--rsus N]      target RSU count (default 256)
//!     [--periods P]   measurement periods (default 4)
//!     [--shards K]    receiver shards (default 4)
//!     [--threads T]   worker threads (default: available cores)
//!     [--window W]    sliding-window capacity in periods (default 2)
//!     [--trips X]     base trips per period (default 20 per RSU)
//!     [--layout L]    grid | ring (default grid)
//!     [--faults]      inject seeded channel faults with retries
//!     [--truth-floor F] min ground-truth volume for a pair to count
//!                     toward accuracy (default 20)
//!     [--seed N]
//!     [--json]        machine-readable output (used by CI)
//!     [--out FILE]    also write the JSON to FILE
//!     [--obs-json FILE] write the observability registry snapshot

use vcps_bench::peak_rss_bytes;
use vcps_core::Scheme;
use vcps_experiments::{
    arg_flag, arg_value, choose_novel_load_factor, default_threads, obs_from_args, text_table,
    write_obs_json, PRIVACY_TARGET,
};
use vcps_sim::{
    build_metro, run_periods, score_accuracy, AccuracyScore, FaultMetrics, FaultPlan, LinkFaults,
    MetroConfig, MetroLayout, MetroRun, MetroWorkload, Monolith, PeriodSettings, RetryPolicy,
    RunConfig, Sharded, SlidingWindow,
};

struct Outcome {
    vehicles: usize,
    exchanges: usize,
    uploads: usize,
    ingest_ns: u128,
    od_ns: u128,
    uploads_per_sec: f64,
    /// The newest window matrix scored against the final period's truth.
    accuracy: AccuracyScore,
    undelivered: usize,
    faults: FaultMetrics,
    sharded_equal: bool,
    window: SlidingWindow,
}

/// Checks every observable surface of the two runs for bit-identity —
/// the DESIGN.md §20 conformance contract the metro-smoke CI job gates.
fn runs_agree<A, B>(sharded: &MetroRun<A>, mono: &MetroRun<B>) -> bool {
    sharded.window == mono.window
        && sharded.sizes_per_period == mono.sizes_per_period
        && sharded.exchanges_per_period == mono.exchanges_per_period
        && sharded.uploads_delivered == mono.uploads_delivered
        && sharded.faults_per_period == mono.faults_per_period
        && sharded.undelivered_per_period == mono.undelivered_per_period
}

#[allow(clippy::too_many_arguments)]
fn run(
    workload: &MetroWorkload,
    scheme: &Scheme,
    settings: &PeriodSettings,
    shards: usize,
    threads: usize,
    window: usize,
    faults: bool,
    truth_floor: f64,
    seed: u64,
    obs: &vcps_obs::Obs,
) -> Outcome {
    let link_times = workload.net.free_flow_times();
    let plan = FaultPlan::new(seed ^ 0xFA_17)
        .with_report_link(LinkFaults::none().with_drop(0.1).with_bit_flip(0.02))
        .with_upload_link(LinkFaults::none().with_drop(0.3).with_duplicate(0.1));
    let faults = faults.then(|| (plan, RetryPolicy::default()));
    let sharded = run_periods(
        scheme,
        (&workload.net, &link_times),
        &workload.periods,
        &workload.initial_history,
        settings,
        window,
        &RunConfig {
            threads,
            obs: obs.clone(),
            faults: faults.clone(),
            backend: Sharded(shards),
        },
    )
    .expect("sharded metro run");
    let mono = run_periods(
        scheme,
        (&workload.net, &link_times),
        &workload.periods,
        &workload.initial_history,
        settings,
        window,
        &RunConfig {
            threads,
            faults,
            ..RunConfig::new(Monolith)
        },
    )
    .expect("monolithic metro run");
    let sharded_equal = runs_agree(&sharded, &mono);

    let nodes = workload.net.node_count();
    let accuracy = score_accuracy(
        sharded
            .window
            .latest()
            .expect("at least one period completed"),
        workload.truth.last().expect("at least one period"),
        nodes,
        truth_floor,
    );
    let mut faults_total = FaultMetrics::new();
    for period in &sharded.faults_per_period {
        faults_total.merge(period);
    }
    Outcome {
        vehicles: workload.total_vehicles(),
        exchanges: sharded.exchanges_per_period.iter().sum(),
        uploads: sharded.uploads_delivered,
        ingest_ns: sharded.ingest_ns,
        od_ns: sharded.od_ns,
        uploads_per_sec: sharded.uploads_delivered as f64 * 1e9 / (sharded.ingest_ns.max(1)) as f64,
        accuracy,
        undelivered: sharded.undelivered_per_period.iter().map(Vec::len).sum(),
        faults: faults_total,
        sharded_equal,
        window: sharded.window,
    }
}

#[allow(clippy::too_many_arguments)]
fn payload_json(
    o: &Outcome,
    rsus: usize,
    periods: usize,
    window: usize,
    shards: usize,
    threads: usize,
    layout: &str,
    faults: bool,
    seed: u64,
) -> String {
    let rss = peak_rss_bytes().map_or("null".to_string(), |b| b.to_string());
    let mre = o
        .accuracy
        .mean_relative_error
        .map_or("null".to_string(), |mre| format!("{mre:.6}"));
    format!(
        "{{\"experiment\":\"metro\",\"seed\":{seed},\"layout\":\"{layout}\",\"rsus\":{rsus},\
         \"periods\":{periods},\"window\":{window},\"shards\":{shards},\"threads\":{threads},\
         \"faults\":{faults},\"vehicles\":{},\"exchanges\":{},\"uploads\":{},\
         \"ingest_ns\":{},\"od_ns\":{},\"uploads_per_sec\":{:.1},\
         \"accuracy_pairs\":{},\"mean_relative_error\":{mre},\"degraded_entries\":{},\
         \"undelivered\":{},\"upload_attempts\":{},\"upload_retries\":{},\
         \"uploads_abandoned\":{},\"sharded_equal\":{},\"peak_rss_bytes\":{rss}}}",
        o.vehicles,
        o.exchanges,
        o.uploads,
        o.ingest_ns,
        o.od_ns,
        o.uploads_per_sec,
        o.accuracy.pairs,
        o.accuracy.degraded,
        o.undelivered,
        o.faults.upload_attempts,
        o.faults.upload_retries,
        o.faults.uploads_abandoned,
        o.sharded_equal,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg_value(&args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x0003_E760);
    let rsus: usize = arg_value(&args, "--rsus")
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    let periods: usize = arg_value(&args, "--periods")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let shards: usize = arg_value(&args, "--shards")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let threads: usize = arg_value(&args, "--threads")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(default_threads);
    let window: usize = arg_value(&args, "--window")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let trips: f64 = arg_value(&args, "--trips")
        .and_then(|v| v.parse().ok())
        .unwrap_or(rsus as f64 * 20.0);
    let truth_floor: f64 = arg_value(&args, "--truth-floor")
        .and_then(|v| v.parse().ok())
        .unwrap_or(20.0);
    let layout_name = arg_value(&args, "--layout").unwrap_or_else(|| "grid".to_string());
    let layout = match layout_name.as_str() {
        "grid" => MetroLayout::Grid,
        "ring" => MetroLayout::RingRadial,
        other => {
            eprintln!("error: --layout expects grid or ring, got {other:?}");
            std::process::exit(2);
        }
    };
    let faults = arg_flag(&args, "--faults");
    let json = arg_flag(&args, "--json");
    let out = arg_value(&args, "--out");
    let (obs, obs_path) = obs_from_args(&args);

    let workload = build_metro(&MetroConfig {
        rsus,
        periods,
        total_trips: trips,
        layout,
        seed,
        ..MetroConfig::default()
    });
    let s = 2usize;
    let scheme = Scheme::variable(s, choose_novel_load_factor(s, PRIVACY_TARGET), seed)
        .expect("valid scheme");
    let settings = PeriodSettings {
        seed,
        ..PeriodSettings::default()
    };
    let outcome = run(
        &workload,
        &scheme,
        &settings,
        shards,
        threads,
        window,
        faults,
        truth_floor,
        seed,
        &obs,
    );

    let payload = payload_json(
        &outcome,
        workload.net.node_count(),
        periods,
        window,
        shards,
        threads,
        &layout_name,
        faults,
        seed,
    );
    if json {
        println!("{payload}");
    } else {
        println!("== Metropolis continuous estimation ==\n");
        println!(
            "{} RSUs ({layout_name}), {periods} periods, window {window}, \
             {shards} shards x {threads} threads{}",
            workload.net.node_count(),
            if faults { ", faulty channels" } else { "" },
        );
        let rows = vec![
            vec!["vehicles".into(), outcome.vehicles.to_string()],
            vec!["exchanges".into(), outcome.exchanges.to_string()],
            vec!["uploads delivered".into(), outcome.uploads.to_string()],
            vec![
                "uploads/s (ingest)".into(),
                format!("{:.0}", outcome.uploads_per_sec),
            ],
            vec![
                "od matrix total".into(),
                format!("{:.1} ms", outcome.od_ns as f64 / 1e6),
            ],
            vec![
                format!("accuracy pairs (truth >= {truth_floor})"),
                outcome.accuracy.pairs.to_string(),
            ],
            vec![
                "mean relative error".into(),
                outcome
                    .accuracy
                    .mean_relative_error
                    .map_or("-".to_string(), |mre| format!("{mre:.4}")),
            ],
            vec![
                "degraded entries".into(),
                outcome.accuracy.degraded.to_string(),
            ],
            vec![
                "undelivered uploads".into(),
                outcome.undelivered.to_string(),
            ],
            vec![
                "sharded == monolith".into(),
                outcome.sharded_equal.to_string(),
            ],
            vec![
                "peak RSS".into(),
                peak_rss_bytes().map_or("n/a".into(), |b| {
                    format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
                }),
            ],
        ];
        println!("{}", text_table(&["metric", "value"], &rows));
        if !outcome.sharded_equal {
            println!("WARNING: sharded run DIVERGED from the monolith (conformance bug)");
        }
        // A taste of the sliding window: the three busiest measured
        // pairs of the newest matrix, with their window aggregate.
        let latest = outcome.window.latest().expect("completed period");
        let mut busiest: Vec<_> = latest.iter_pairs().collect();
        busiest.sort_by(|a, b| b.2.n_c().total_cmp(&a.2.n_c()));
        let mut preview = Vec::new();
        for (a, b, estimate) in busiest.into_iter().take(3) {
            let averaged = outcome.window.average(a, b).expect("covered pair");
            preview.push(vec![
                format!("{}→{}", a.0, b.0),
                format!("{:.1}", estimate.n_c()),
                format!("{:.1}", averaged.n_c),
                format!("{}/{}", averaged.degraded_periods, averaged.periods),
            ]);
        }
        println!(
            "{}",
            text_table(&["pair", "latest n̂_c", "window n̂_c", "degraded"], &preview)
        );
    }

    if let Some(path) = out {
        std::fs::write(&path, payload + "\n").expect("write --out file");
        eprintln!("wrote {path}");
    }
    if let Some(path) = obs_path {
        write_obs_json(&path, &obs).expect("write --obs-json file");
    }
}
