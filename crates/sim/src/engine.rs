//! A discrete-event engine driving vehicles along road-network routes,
//! and the one run driver built on it.
//!
//! Table I's workload is "traffic generated according to the known
//! vehicle trip table under the Sioux Falls network". This module turns
//! per-vehicle routes ([`vcps_roadnet::VehicleTrip`]) into a time-ordered
//! stream of RSU arrivals (each arrival triggers one query/answer
//! exchange) and runs measurement periods over a whole network: every
//! node hosts an RSU, every arrival records one passage, every RSU
//! uploads to the server at period end.
//!
//! Every period is the same private step (paper §IV-B/C): RSUs
//! broadcast their array sizes, vehicles answer with one bit index, RSUs
//! upload, and the server folds the counters into the history that
//! sizes the next period. Two entry points expose it: [`run_period`]
//! runs one period sized from a given history, and [`run_periods`] runs
//! the continuous loop with EWMA re-sizing and a sliding O–D window. One
//! [`RunConfig`] says how: worker threads, observability, optional fault
//! injection, and the server [`Backend`] — [`Monolith`], [`Sharded`] or
//! [`Durable`]. The backend only decides how uploads land; the
//! authority, sizes, departures, identities, frames, sequence numbers,
//! and channel keys are derived once for all of them, so their answers
//! are bit-identical by construction.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use vcps_core::{RsuId, Scheme, VehicleIdentity};
use vcps_hash::splitmix64;
use vcps_obs::{Obs, Phase};
use vcps_roadnet::{RoadNetwork, VehicleTrip};

use crate::concurrent::{self, SharedRsu};
use crate::durable::{DurableOptions, DurableServer, RecoveryReport};
use crate::faults::{self, FaultPlan, RetryPolicy, SequencedSink, ServerCrash};
use crate::metrics::FaultMetrics;
use crate::metro::SlidingWindow;
use crate::pki::TrustedAuthority;
use crate::protocol::{BatchUpload, BitReport, PeriodUpload, Query, SequencedUpload};
use crate::{CentralServer, OdMatrix, ShardedServer, SimError, SimVehicle};

pub use backend::Backend;
use backend::{Live, Periods};

/// One vehicle reaching one RSU site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Simulation time of the arrival.
    pub time: f64,
    /// Index of the vehicle in the input trip list.
    pub vehicle: usize,
    /// The node (RSU site) reached.
    pub node: usize,
}

/// Internal event: vehicle `vehicle` arrives at `route[hop]` at `time`.
#[derive(Debug, PartialEq)]
struct Event {
    time: f64,
    vehicle: usize,
    hop: usize,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on time; deterministic tie-break on (vehicle, hop).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.vehicle.cmp(&self.vehicle))
            .then_with(|| other.hop.cmp(&self.hop))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulates all trips and returns every RSU arrival in time order.
///
/// Each vehicle departs at `departures[i]` and advances along its route
/// with per-link travel times taken from `link_times` (indexed like
/// `net.links()`). Links missing from the route's node pairs fall back to
/// free-flow time — this cannot happen for routes produced by the
/// assignment module, but keeps hand-written routes usable.
///
/// # Panics
///
/// Panics if `departures.len() != trips.len()` or
/// `link_times.len() != net.link_count()`.
#[must_use]
pub fn simulate_arrivals(
    net: &RoadNetwork,
    link_times: &[f64],
    trips: &[VehicleTrip],
    departures: &[f64],
) -> Vec<Arrival> {
    assert_eq!(departures.len(), trips.len(), "one departure per trip");
    assert_eq!(
        link_times.len(),
        net.link_count(),
        "one travel time per link"
    );
    // (from, to) -> travel time lookup.
    let mut time_of: HashMap<(usize, usize), f64> = HashMap::with_capacity(net.link_count());
    for (i, link) in net.links().iter().enumerate() {
        // Keep the first (lowest-index) entry on parallel links.
        time_of.entry((link.from, link.to)).or_insert(link_times[i]);
    }

    let mut heap = BinaryHeap::with_capacity(trips.len());
    for (i, _) in trips.iter().enumerate() {
        heap.push(Event {
            time: departures[i],
            vehicle: i,
            hop: 0,
        });
    }

    let mut arrivals = Vec::new();
    while let Some(Event { time, vehicle, hop }) = heap.pop() {
        let route = &trips[vehicle].route;
        if hop >= route.len() {
            continue;
        }
        arrivals.push(Arrival {
            time,
            vehicle,
            node: route[hop],
        });
        if hop + 1 < route.len() {
            let from = route[hop];
            let to = route[hop + 1];
            let hop_time = time_of.get(&(from, to)).copied().unwrap_or_else(|| {
                net.links()
                    .iter()
                    .find(|l| l.from == from && l.to == to)
                    .map_or(1.0, |l| l.free_flow_time)
            });
            heap.push(Event {
                time: time + hop_time,
                vehicle,
                hop: hop + 1,
            });
        }
    }
    arrivals
}

/// How a run is carried out: the workers that drive the exchanges, the
/// observability handle, optional fault injection, and the server
/// backend the uploads land in ([`Monolith`], [`Sharded`] or
/// [`Durable`]).
///
/// ```
/// use vcps_sim::engine::{RunConfig, Sharded};
///
/// let config = RunConfig {
///     threads: 4,
///     ..RunConfig::new(Sharded(2))
/// };
/// assert!(config.faults.is_none());
/// ```
#[derive(Debug, Clone)]
pub struct RunConfig<B> {
    /// Workers driving the exchanges (and [`run_periods`]' O–D
    /// decodes). The outcome does not depend on it.
    pub threads: usize,
    /// Observability handle. The exchange phase is profiled as
    /// [`Phase::Encode`] and ideal-channel ingest as [`Phase::Receive`];
    /// the `engine.*`, `faults.*` and `metro.*` counters are recorded
    /// through it, and the returned server carries it. Recording never
    /// influences control flow, so every counter is deterministic and
    /// independent of `threads`.
    pub obs: Obs,
    /// Seeded fault injection with the upload retry policy; `None` runs
    /// over ideal channels.
    pub faults: Option<(FaultPlan, RetryPolicy)>,
    /// Where the uploads land.
    pub backend: B,
}

impl<B> RunConfig<B> {
    /// One worker, observability off, ideal channels.
    #[must_use]
    pub fn new(backend: B) -> Self {
        Self {
            threads: 1,
            obs: Obs::disabled(),
            faults: None,
            backend,
        }
    }
}

/// One [`CentralServer`]; over ideal channels each RSU's upload arrives
/// as its own dense wire frame.
#[derive(Debug, Clone, Copy)]
pub struct Monolith;

/// A [`ShardedServer`] with this many hash-partitioned shards; over
/// ideal channels a period's uploads travel as one [`BatchUpload`] wire
/// frame into the zero-copy batch ingest.
#[derive(Debug, Clone, Copy)]
pub struct Sharded(pub usize);

/// A [`Sharded`] server whose ingest is write-ahead logged in `dir`
/// ([`DurableServer`]), optionally crashed and recovered mid-period.
#[derive(Debug, Clone)]
pub struct Durable {
    /// Receiver shards.
    pub shards: usize,
    /// The WAL and checkpoint directory (a fresh log is started there).
    pub dir: PathBuf,
    /// Checkpoint and flush tuning.
    pub options: DurableOptions,
    /// An injected server-process crash: every in-memory state is
    /// dropped at the first upload-session boundary at or after
    /// [`ServerCrash::at_record`] logged records (or at period end if
    /// the log never grows that far) and rebuilt from `dir`. An ideal
    /// period's single batch frame is one session.
    pub crash: Option<ServerCrash>,
}

/// The outcome of [`run_period`].
#[derive(Debug, Clone)]
pub struct PeriodRun<S> {
    /// The server holding the period's uploads — query it with
    /// `estimate`, `estimate_or_degraded` or `od_matrix_threads`.
    /// Every backend answers bit-identically.
    pub server: S,
    /// Total query/answer exchanges performed (loss happens after the
    /// exchange, in flight).
    pub exchanges: usize,
    /// What the channels, crashes, and the retry loop did (all zero over
    /// ideal channels).
    pub faults: FaultMetrics,
    /// RSUs whose upload exhausted the retry budget and never reached
    /// the server (empty over ideal channels).
    pub undelivered: Vec<RsuId>,
    /// WAL records appended over the period (0 unless [`Durable`]).
    pub wal_records: u64,
    /// What recovery found, when a [`Durable`] run injected a crash.
    pub recovery: Option<RecoveryReport>,
}

/// Settings for a multi-period run (see [`run_periods`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeriodSettings {
    /// EWMA smoothing factor for the server's volume history, in
    /// `(0, 1]`.
    pub history_alpha: f64,
    /// Departure window length for each period.
    pub period_length: f64,
    /// Master seed (keys, departures, certificates).
    pub seed: u64,
}

impl Default for PeriodSettings {
    fn default() -> Self {
        Self {
            history_alpha: vcps_core::VolumeHistory::DEFAULT_ALPHA,
            period_length: 3_600.0,
            seed: 0,
        }
    }
}

/// The outcome of [`run_periods`].
#[derive(Debug, Clone)]
pub struct MetroRun<S> {
    /// The server after the final period's
    /// [`finish_period`](CentralServer::finish_period).
    pub server: S,
    /// The sliding window over the last `W` periods' O–D matrices.
    pub window: SlidingWindow,
    /// Array sizes in force during each period, per node.
    pub sizes_per_period: Vec<Vec<usize>>,
    /// Query/answer exchanges per period.
    pub exchanges_per_period: Vec<usize>,
    /// Fault counters per period (empty for ideal-channel runs).
    pub faults_per_period: Vec<FaultMetrics>,
    /// RSUs whose upload was abandoned, per period (empty for ideal
    /// runs). Their history entry keeps its previous EWMA value — the
    /// sizing loop degrades gracefully instead of halting.
    pub undelivered_per_period: Vec<Vec<RsuId>>,
    /// Upload frames delivered to the server across all periods.
    pub uploads_delivered: usize,
    /// Wall-clock nanoseconds spent ingesting uploads (all periods).
    pub ingest_ns: u128,
    /// Wall-clock nanoseconds spent computing O–D matrices (all
    /// periods).
    pub od_ns: u128,
}

/// Runs one measurement period over an entire road network: an RSU at
/// every node (node `i` ↔ `RsuId(i)`), arrays sized from `history`
/// volumes ([`Scheme::array_size_for`]), every trip driven through the
/// discrete-event engine, every upload delivered into the configured
/// backend.
///
/// `roads` is the network with its per-link travel times (indexed like
/// `net.links()`). Vehicles depart uniformly at random within
/// `[0, period)`; `seed` keys the departures, certificates, and vehicle
/// keys, so the run is reproducible and independent of the thread count.
///
/// The server uses EWMA smoothing 1.0 and keeps the period's uploads.
/// Under fault injection it is seeded with `history`, so
/// [`CentralServer::estimate_or_degraded`] can answer pairs whose upload
/// never arrived; uploads then go through [`faults::upload_with_retry`]
/// with sequence number 0. With [`FaultPlan::none`] the uploads and
/// estimates are bit-identical to the ideal run's, and every backend —
/// a [`Durable`] one crashed and recovered included — returns the same
/// uploads, estimates, fault metrics, and undelivered set.
///
/// # Errors
///
/// Propagates sizing, protocol, and durability failures, invalid fault
/// plans and retry policies, and a zero shard count.
///
/// # Panics
///
/// Panics if `history.len() != net.node_count()` or `threads == 0`.
pub fn run_period<B: Backend>(
    scheme: &Scheme,
    roads: (&RoadNetwork, &[f64]),
    trips: &[VehicleTrip],
    history: &[f64],
    period: f64,
    seed: u64,
    config: &RunConfig<B>,
) -> Result<PeriodRun<B::Server>, SimError> {
    let drive = Drive::new(scheme, roads, history, period, seed, config)?;
    let sizes = history
        .iter()
        .map(|&avg| scheme.array_size_for(avg))
        .collect::<Result<Vec<_>, _>>()?;
    let mut server = config.backend.open(scheme, 1.0, &config.obs)?;
    if config.faults.is_some() {
        for (node, &avg) in history.iter().enumerate() {
            server.seed(RsuId(node as u64), avg);
        }
    }
    let step = drive.period(&mut server, 0, trips, &sizes)?;
    let (server, wal_records, recovery) = server.into_parts();
    Ok(PeriodRun {
        server,
        exchanges: step.exchanges,
        faults: step.faults,
        undelivered: step.undelivered,
        wal_records,
        recovery,
    })
}

/// Runs consecutive measurement periods over a road network, closing the
/// §IV-C loop: each period's counters update the server's EWMA history
/// ([`PeriodSettings::history_alpha`]), which re-sizes every RSU's array
/// for the next period. `periods[p]` is the trip list driven in period
/// `p`; `initial_history` seeds the history that sizes period 0.
///
/// After each period the server's O–D matrix joins a [`SlidingWindow`]
/// over the last `window` periods. Period `p` salts its certificates,
/// departures, vehicle keys, and fault channels with `p` and uses `p` as
/// the upload sequence number, so stragglers retransmitted from a closed
/// period are recognized as stale; crash times in a fault plan are
/// relative to each period's start and recur every period. Period 0 is
/// exactly [`run_period`] over `periods[0]` and `initial_history`.
///
/// Takes [`Monolith`] or [`Sharded`]; the two are bit-identical.
///
/// # Errors
///
/// Propagates sizing and protocol failures, invalid fault plans and
/// retry policies, and a zero shard count.
///
/// # Panics
///
/// Panics if `initial_history.len() != net.node_count()`, `periods` is
/// empty, `window == 0`, or `threads == 0`.
pub fn run_periods<B: Backend>(
    scheme: &Scheme,
    roads: (&RoadNetwork, &[f64]),
    periods: &[Vec<VehicleTrip>],
    initial_history: &[f64],
    settings: &PeriodSettings,
    window: usize,
    config: &RunConfig<B>,
) -> Result<MetroRun<B::Server>, SimError>
where
    B::Live: Periods,
{
    assert!(!periods.is_empty(), "need at least one period");
    let drive = Drive::new(
        scheme,
        roads,
        initial_history,
        settings.period_length,
        settings.seed,
        config,
    )?;
    let obs = &config.obs;
    let mut server = config.backend.open(scheme, settings.history_alpha, obs)?;
    for (node, &avg) in initial_history.iter().enumerate() {
        server.seed(RsuId(node as u64), avg);
    }
    let mut next_sizes = server.finish()?;
    let mut window = SlidingWindow::new(window);
    let mut sizes_per_period = Vec::with_capacity(periods.len());
    let mut exchanges_per_period = Vec::with_capacity(periods.len());
    let mut faults_per_period = Vec::new();
    let mut undelivered_per_period = Vec::new();
    let (mut uploads_delivered, mut ingest_ns, mut od_ns) = (0usize, 0u128, 0u128);
    for (p, trips) in periods.iter().enumerate() {
        let sizes: Vec<usize> = (0..initial_history.len())
            .map(|node| {
                let m = next_sizes.get(&RsuId(node as u64)).copied();
                m.unwrap_or(2).max(2)
            })
            .collect();
        let step = drive.period(&mut server, p as u64, trips, &sizes)?;
        sizes_per_period.push(sizes);
        exchanges_per_period.push(step.exchanges);
        if config.faults.is_some() {
            faults_per_period.push(step.faults);
            undelivered_per_period.push(step.undelivered);
        }
        uploads_delivered += step.delivered;
        ingest_ns += step.ingest_ns;

        let od_started = Instant::now();
        let matrix = server.od(config.threads)?;
        od_ns += od_started.elapsed().as_nanos();
        window.push(matrix);
        obs.inc("metro.periods");
        obs.add("metro.window.held", window.len() as u64);

        next_sizes = server.finish()?;
    }
    obs.add("metro.uploads.delivered", uploads_delivered as u64);
    Ok(MetroRun {
        server: server.into_parts().0,
        window,
        sizes_per_period,
        exchanges_per_period,
        faults_per_period,
        undelivered_per_period,
        uploads_delivered,
        ingest_ns,
        od_ns,
    })
}

/// What every period of one run shares.
struct Drive<'a, B> {
    scheme: &'a Scheme,
    net: &'a RoadNetwork,
    link_times: &'a [f64],
    period_length: f64,
    seed: u64,
    config: &'a RunConfig<B>,
}

/// What one period produced.
struct Step {
    exchanges: usize,
    faults: FaultMetrics,
    undelivered: Vec<RsuId>,
    delivered: usize,
    ingest_ns: u128,
}

impl<'a, B: Backend> Drive<'a, B> {
    /// Validates a run's inputs.
    fn new(
        scheme: &'a Scheme,
        (net, link_times): (&'a RoadNetwork, &'a [f64]),
        history: &[f64],
        period_length: f64,
        seed: u64,
        config: &'a RunConfig<B>,
    ) -> Result<Self, SimError> {
        assert_eq!(
            history.len(),
            net.node_count(),
            "one history volume per node"
        );
        if let Some((plan, policy)) = &config.faults {
            plan.validate()?;
            policy.validate()?;
        }
        Ok(Self {
            scheme,
            net,
            link_times,
            period_length,
            seed,
            config,
        })
    }

    /// The one period step (paper §IV-B/C): period `p`'s RSUs broadcast
    /// arrays of `sizes` bits (node order), every trip's vehicle answers
    /// at each RSU it reaches, and every RSU uploads into `server`.
    ///
    /// Over ideal channels the uploads go through the backend's native
    /// ingest. Under fault injection, reports cross a lossy vehicle →
    /// RSU channel, crash windows destroy RSU state, and each upload goes
    /// through [`faults::upload_with_retry`] with sequence number `p`.
    fn period(
        &self,
        server: &mut B::Live,
        p: u64,
        trips: &[VehicleTrip],
        sizes: &[usize],
    ) -> Result<Step, SimError> {
        let RunConfig {
            threads,
            ref obs,
            ref faults,
            ..
        } = *self.config;
        let (scheme, seed) = (self.scheme, self.seed);
        let authority = TrustedAuthority::new(seed ^ 0x0CA0_17E5 ^ p);
        let rsus = sizes
            .iter()
            .enumerate()
            .map(|(node, &m)| SharedRsu::new(RsuId(node as u64), m, &authority))
            .collect::<Result<Vec<_>, _>>()?;
        let queries: Vec<Query> = rsus.iter().map(SharedRsu::query).collect();
        let m_o = sizes.iter().copied().max().unwrap_or(0);

        let mut rng = StdRng::seed_from_u64(seed ^ (p << 32));
        let departures: Vec<f64> = trips
            .iter()
            .map(|_| rng.random_range(0.0..self.period_length.max(f64::MIN_POSITIVE)))
            .collect();
        let arrivals = simulate_arrivals(self.net, self.link_times, trips, &departures);
        if let Some(last) = arrivals.last() {
            obs.gauge("sim_time", last.time);
        }
        let make_vehicle = |t: &VehicleTrip| {
            SimVehicle::new(
                VehicleIdentity::from_raw(t.id, splitmix64(seed ^ t.id)),
                splitmix64(t.id ^ 0xACE0_FBA5E ^ p),
            )
        };
        let answer = |vehicle: &mut SimVehicle, node: usize| {
            vehicle.answer(&queries[node], scheme, &authority, m_o)
        };

        let (exchanges, mut metrics) = match faults {
            None => {
                let _encode = obs.phase(Phase::Encode);
                drive_arrivals(
                    trips,
                    &arrivals,
                    threads,
                    make_vehicle,
                    |v, node, _, _, _| rsus[node].receive(&answer(v, node)?),
                )?
            }
            Some((plan, _)) => {
                let channel = plan.report_channel(p);
                let lost_windows = plan.lost_windows(self.net.node_count());
                let _encode = obs.phase(Phase::Encode);
                drive_arrivals(
                    trips,
                    &arrivals,
                    threads,
                    make_vehicle,
                    |v, node, time, key, local| {
                        let tx = channel.transmit(&answer(v, node)?.encode(), key);
                        tx.record(&mut local.report_link);
                        for copy in &tx.delivered {
                            let Ok(report) = BitReport::decode(copy) else {
                                local.reports_undecodable += 1;
                                continue;
                            };
                            let crashed = lost_windows[node]
                                .iter()
                                .any(|&(w0, w1)| time >= w0 && time < w1);
                            if crashed {
                                // The RSU ingested this report but lost it
                                // with the state window destroyed by the
                                // crash.
                                local.reports_lost_to_crash += 1;
                            } else if rsus[node].receive(&report).is_err() {
                                local.reports_rejected += 1;
                            }
                        }
                        Ok(())
                    },
                )?
            }
        };
        obs.add("engine.exchanges", exchanges as u64);

        let ingest_started = Instant::now();
        let mut undelivered = Vec::new();
        match faults {
            None => {
                let _receive = obs.phase(Phase::Receive);
                let frames = rsus
                    .iter()
                    .map(|rsu| SequencedUpload {
                        seq: p,
                        upload: rsu.upload(),
                    })
                    .collect();
                server.ingest(frames)?;
            }
            Some((plan, policy)) => {
                metrics.crashes = plan.crashes.len() as u64;
                let channel = plan.upload_channel(p);
                for rsu in &rsus {
                    let upload = rsu.upload();
                    let sink = server.sink()?;
                    if !faults::upload_with_retry(&upload, p, &channel, sink, policy, &mut metrics)?
                        .delivered
                    {
                        undelivered.push(upload.rsu);
                    }
                }
                metrics.record_into(obs);
                obs.add("engine.undelivered", undelivered.len() as u64);
            }
        }
        server.close()?;
        Ok(Step {
            exchanges,
            faults: metrics,
            delivered: rsus.len() - undelivered.len(),
            undelivered,
            ingest_ns: ingest_started.elapsed().as_nanos(),
        })
    }
}

/// Runs every query/answer exchange of one period: vehicles are split
/// across `threads` workers, each walking its own arrivals in time order
/// — exactly the order the sequential engine advances the vehicle's MAC
/// generator — and handing each stop's `(node, time, key)` to `visit`.
/// `key` names the (vehicle, stop) pair, so fault decisions keyed on it
/// do not depend on the schedule; per-worker fault counters merge
/// commutatively. Returns the exchange count and the merged counters.
fn drive_arrivals<M, V>(
    trips: &[VehicleTrip],
    arrivals: &[Arrival],
    threads: usize,
    make_vehicle: M,
    visit: V,
) -> Result<(usize, FaultMetrics), SimError>
where
    M: Fn(&VehicleTrip) -> SimVehicle + Sync,
    V: Fn(&mut SimVehicle, usize, f64, u64, &mut FaultMetrics) -> Result<(), SimError> + Sync,
{
    let mut stops: Vec<Vec<(usize, f64)>> = vec![Vec::new(); trips.len()];
    for arrival in arrivals {
        stops[arrival.vehicle].push((arrival.node, arrival.time));
    }
    // Several chunks per executor so stragglers can be stolen around.
    let chunk = match concurrent::capped_executors(threads) {
        1 => trips.len(),
        executors => trips.len().div_ceil(executors * 4),
    };
    let outcomes = concurrent::map_chunks(trips.len(), chunk, threads, |vehicles| {
        let mut exchanges = 0usize;
        let mut local = FaultMetrics::new();
        for v in vehicles {
            let mut vehicle = make_vehicle(&trips[v]);
            let key = splitmix64(trips[v].id);
            for (i, &(node, time)) in stops[v].iter().enumerate() {
                visit(
                    &mut vehicle,
                    node,
                    time,
                    key.wrapping_add(i as u64),
                    &mut local,
                )?;
            }
            exchanges += stops[v].len();
        }
        Ok::<_, SimError>((exchanges, local))
    });
    let mut exchanges = 0usize;
    let mut faults = FaultMetrics::new();
    for outcome in outcomes {
        let (n, local) = outcome?;
        exchanges += n;
        faults.merge(&local);
    }
    Ok((exchanges, faults))
}

/// The backend seam: how the period step reaches each server shape.
mod backend {
    use super::*;

    /// A server backend a run delivers into: [`Monolith`], [`Sharded`]
    /// or [`Durable`].
    pub trait Backend {
        /// The server a finished run hands back.
        type Server;
        /// The server while the run delivers into it.
        type Live: Live<Server = Self::Server>;
        /// A fresh server for `scheme` with EWMA smoothing
        /// `history_alpha`, recording through `obs`.
        fn open(
            &self,
            scheme: &Scheme,
            history_alpha: f64,
            obs: &Obs,
        ) -> Result<Self::Live, SimError>;
    }

    /// What the period step needs from a live server.
    pub trait Live {
        type Server;
        fn seed(&mut self, rsu: RsuId, average: f64);
        /// Ideal-channel delivery: the backend's native ingest of one
        /// period's frames.
        fn ingest(&mut self, frames: Vec<SequencedUpload>) -> Result<(), SimError>;
        /// Where the next retrying upload session over a faulty channel
        /// delivers its copies.
        fn sink(&mut self) -> Result<&mut dyn SequencedSink, SimError>;
        /// Period end, after the last session.
        fn close(&mut self) -> Result<(), SimError> {
            Ok(())
        }
        /// The server, the WAL records it logged, and what recovery
        /// found.
        fn into_parts(self) -> (Self::Server, u64, Option<RecoveryReport>);
    }

    /// What [`run_periods`] additionally needs between periods.
    pub trait Periods {
        fn finish(&mut self) -> Result<BTreeMap<RsuId, usize>, SimError>;
        fn od(&self, threads: usize) -> Result<OdMatrix, SimError>;
    }

    impl Backend for Monolith {
        type Server = CentralServer;
        type Live = CentralServer;

        fn open(
            &self,
            scheme: &Scheme,
            history_alpha: f64,
            obs: &Obs,
        ) -> Result<Self::Live, SimError> {
            Ok(CentralServer::new(scheme.clone(), history_alpha)?.with_obs(obs.clone()))
        }
    }

    impl Backend for Sharded {
        type Server = ShardedServer;
        type Live = ShardedServer;

        fn open(
            &self,
            scheme: &Scheme,
            history_alpha: f64,
            obs: &Obs,
        ) -> Result<Self::Live, SimError> {
            Ok(ShardedServer::new(scheme.clone(), history_alpha, self.0)?.with_obs(obs.clone()))
        }
    }

    impl Backend for Durable {
        type Server = ShardedServer;
        type Live = DurableRun;

        fn open(
            &self,
            scheme: &Scheme,
            history_alpha: f64,
            obs: &Obs,
        ) -> Result<Self::Live, SimError> {
            let server = DurableServer::create(
                scheme.clone(),
                history_alpha,
                self.shards,
                &self.dir,
                self.options,
                obs,
            )?;
            Ok(DurableRun {
                server: Some(server),
                backend: self.clone(),
                scheme: scheme.clone(),
                history_alpha,
                obs: obs.clone(),
                seeds: Vec::new(),
                recovery: None,
            })
        }
    }

    impl Live for CentralServer {
        type Server = Self;

        fn seed(&mut self, rsu: RsuId, average: f64) {
            self.seed_history(rsu, average);
        }

        fn ingest(&mut self, frames: Vec<SequencedUpload>) -> Result<(), SimError> {
            for frame in frames {
                self.receive(PeriodUpload::decode(&frame.upload.encode())?);
            }
            Ok(())
        }

        fn sink(&mut self) -> Result<&mut dyn SequencedSink, SimError> {
            Ok(self)
        }

        fn into_parts(self) -> (Self, u64, Option<RecoveryReport>) {
            (self, 0, None)
        }
    }

    impl Live for ShardedServer {
        type Server = Self;

        fn seed(&mut self, rsu: RsuId, average: f64) {
            self.seed_history(rsu, average);
        }

        fn ingest(&mut self, frames: Vec<SequencedUpload>) -> Result<(), SimError> {
            self.receive_batch_wire(&BatchUpload::new(frames)?.encode())?;
            Ok(())
        }

        fn sink(&mut self) -> Result<&mut dyn SequencedSink, SimError> {
            Ok(self)
        }

        fn into_parts(self) -> (Self, u64, Option<RecoveryReport>) {
            (self, 0, None)
        }
    }

    impl Periods for CentralServer {
        fn finish(&mut self) -> Result<BTreeMap<RsuId, usize>, SimError> {
            self.finish_period()
        }

        fn od(&self, threads: usize) -> Result<OdMatrix, SimError> {
            self.od_matrix_threads(threads)
        }
    }

    impl Periods for ShardedServer {
        fn finish(&mut self) -> Result<BTreeMap<RsuId, usize>, SimError> {
            self.finish_period()
        }

        fn od(&self, threads: usize) -> Result<OdMatrix, SimError> {
            self.od_matrix_threads(threads)
        }
    }

    /// A [`Durable`] run's live server, with what it takes to crash and
    /// recover it.
    pub struct DurableRun {
        /// `None` only while a crash is being recovered.
        server: Option<DurableServer>,
        backend: Durable,
        scheme: Scheme,
        history_alpha: f64,
        obs: Obs,
        /// History seeds are run configuration, not logged state, so they
        /// are re-applied after recovery.
        seeds: Vec<(RsuId, f64)>,
        recovery: Option<RecoveryReport>,
    }

    impl DurableRun {
        fn live(&mut self) -> &mut DurableServer {
            self.server
                .as_mut()
                .expect("recovery always restores a server")
        }

        /// Fires the configured crash once it is due: drops the whole server
        /// — every shard's uploads, dedup state, and history — and rebuilds
        /// it from the directory.
        fn crash_if_due(&mut self, period_end: bool) -> Result<(), SimError> {
            let Some(crash) = self.backend.crash else {
                return Ok(());
            };
            if self.recovery.is_some()
                || !(period_end || self.live().records_logged() >= crash.at_record)
            {
                return Ok(());
            }
            drop(self.server.take());
            let (mut server, report) = DurableServer::recover(
                self.scheme.clone(),
                self.history_alpha,
                self.backend.shards,
                &self.backend.dir,
                self.backend.options,
                &self.obs,
            )?;
            for &(rsu, average) in &self.seeds {
                server.seed_history(rsu, average);
            }
            self.server = Some(server);
            self.recovery = Some(report);
            Ok(())
        }
    }

    impl Live for DurableRun {
        type Server = ShardedServer;

        fn seed(&mut self, rsu: RsuId, average: f64) {
            self.live().seed_history(rsu, average);
            self.seeds.push((rsu, average));
        }

        fn ingest(&mut self, frames: Vec<SequencedUpload>) -> Result<(), SimError> {
            self.crash_if_due(false)?;
            self.live()
                .receive_batch_wire(&BatchUpload::new(frames)?.encode())?;
            Ok(())
        }

        fn sink(&mut self) -> Result<&mut dyn SequencedSink, SimError> {
            self.crash_if_due(false)?;
            Ok(self.live())
        }

        fn close(&mut self) -> Result<(), SimError> {
            self.crash_if_due(true)
        }

        fn into_parts(mut self) -> (ShardedServer, u64, Option<RecoveryReport>) {
            let server = self
                .server
                .take()
                .expect("recovery always restores a server");
            let wal_records = server.records_logged();
            (server.into_server(), wal_records, self.recovery)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{CrashMode, LinkFaults, RsuCrash};
    use vcps_roadnet::{Link, RoadNetwork};

    fn line_net() -> RoadNetwork {
        RoadNetwork::new(
            3,
            vec![Link::new(0, 1, 10.0, 2.0), Link::new(1, 2, 10.0, 3.0)],
        )
        .unwrap()
    }

    fn trip(id: u64, route: Vec<usize>) -> VehicleTrip {
        VehicleTrip {
            id,
            origin: *route.first().unwrap(),
            dest: *route.last().unwrap(),
            route,
        }
    }

    /// `n` vehicles driving the whole line.
    fn full_line(n: u64) -> Vec<VehicleTrip> {
        (0..n).map(|i| trip(i, vec![0, 1, 2])).collect()
    }

    /// One period over the line (departure window 60, seed 4).
    fn period<B: Backend>(
        trips: &[VehicleTrip],
        history: &[f64],
        config: &RunConfig<B>,
    ) -> PeriodRun<B::Server> {
        let net = line_net();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let roads = (&net, net.free_flow_times());
        run_period(
            &scheme,
            (roads.0, &roads.1),
            trips,
            history,
            60.0,
            4,
            config,
        )
        .unwrap()
    }

    /// Consecutive periods over the line, `counts[p]` vehicles in period
    /// `p`, every array sized for `initial` at first.
    fn periods(
        counts: &[u64],
        initial: f64,
        settings: &PeriodSettings,
        config: &RunConfig<Monolith>,
    ) -> MetroRun<CentralServer> {
        let net = line_net();
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let trips: Vec<Vec<VehicleTrip>> = counts.iter().map(|&n| full_line(n)).collect();
        let history = [initial; 3];
        let roads = (&net, net.free_flow_times());
        run_periods(
            &scheme,
            (roads.0, &roads.1),
            &trips,
            &history,
            settings,
            1,
            config,
        )
        .unwrap()
    }

    fn faulty<B>(plan: FaultPlan, backend: B) -> RunConfig<B> {
        RunConfig {
            faults: Some((plan, RetryPolicy::default())),
            ..RunConfig::new(backend)
        }
    }

    fn observed<B>(threads: usize, obs: &Obs, backend: B) -> RunConfig<B> {
        RunConfig {
            threads,
            obs: obs.clone(),
            ..RunConfig::new(backend)
        }
    }

    #[test]
    fn arrivals_are_time_ordered_and_complete() {
        let net = line_net();
        let trips = vec![trip(0, vec![0, 1, 2]), trip(1, vec![1, 2])];
        let arrivals = simulate_arrivals(&net, &net.free_flow_times(), &trips, &[0.0, 1.0]);
        assert_eq!(arrivals.len(), 5);
        for w in arrivals.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Vehicle 0: nodes 0@0, 1@2, 2@5; vehicle 1: 1@1, 2@4.
        let v0: Vec<(f64, usize)> = arrivals
            .iter()
            .filter(|a| a.vehicle == 0)
            .map(|a| (a.time, a.node))
            .collect();
        assert_eq!(v0, vec![(0.0, 0), (2.0, 1), (5.0, 2)]);
    }

    #[test]
    fn congested_times_delay_arrivals() {
        let net = line_net();
        let trips = vec![trip(0, vec![0, 1, 2])];
        let slow = simulate_arrivals(&net, &[4.0, 6.0], &trips, &[0.0]);
        assert_eq!(slow.last().unwrap().time, 10.0);
    }

    #[test]
    fn parallel_links_take_the_first_link_time() {
        // Two 0 → 1 links: the first (index 0) takes 5.0, the second 1.0.
        let net = RoadNetwork::new(
            2,
            vec![Link::new(0, 1, 10.0, 5.0), Link::new(0, 1, 10.0, 1.0)],
        )
        .unwrap();
        let trips = vec![trip(0, vec![0, 1])];
        let arrivals = simulate_arrivals(&net, &net.free_flow_times(), &trips, &[0.0]);
        assert_eq!(arrivals.last().unwrap().time, 5.0);
    }

    #[test]
    fn full_network_period_counts_every_arrival() {
        let run = period(&full_line(200), &[200.0; 3], &RunConfig::new(Monolith));
        assert_eq!(run.exchanges, 600);
        assert_eq!(run.server.upload_count(), 3);
        // All 200 vehicles pass every pair of nodes.
        let est = run.server.estimate(RsuId(0), RsuId(2)).unwrap();
        assert_eq!(est.n_x, 200);
        assert_eq!(est.n_y, 200);
        let rel = est.relative_error(200.0).unwrap();
        assert!(rel < 0.25, "estimate {} (rel {rel})", est.n_c);
    }

    #[test]
    fn multi_period_run_adapts_sizes_to_traffic() {
        // Traffic doubles each period; with alpha = 1 the history tracks
        // the last period exactly, so the arrays must grow.
        let settings = PeriodSettings {
            history_alpha: 1.0,
            period_length: 60.0,
            seed: 5,
        };
        let run = periods(
            &[100, 200, 400],
            100.0,
            &settings,
            &RunConfig::new(Monolith),
        );
        assert_eq!(run.exchanges_per_period, vec![300, 600, 1200]);
        assert_eq!(run.sizes_per_period.len(), 3);
        // Period 0 sized for 100 vehicles (512 bits at f̄ = 3); period 2
        // sized from period 1's observed 200 vehicles.
        assert_eq!(run.sizes_per_period[0][0], 512);
        assert_eq!(run.sizes_per_period[1][0], 512); // sized from period 0's 100
        assert_eq!(run.sizes_per_period[2][0], 1024); // sized from period 1's 200
                                                      // The final history reflects the last period's 400 vehicles.
        assert_eq!(run.server.history().average(RsuId(0)), Some(400.0));
    }

    #[test]
    fn threaded_network_period_is_bit_identical_to_sequential() {
        let trips = full_line(300);
        let history = [300.0, 300.0, 300.0];
        let seq = period(&trips, &history, &RunConfig::new(Monolith));
        let seq_est = seq.server.estimate(RsuId(0), RsuId(2)).unwrap();
        for threads in [2, 4, crate::concurrent::default_threads()] {
            let par = period(
                &trips,
                &history,
                &observed(threads, &Obs::disabled(), Monolith),
            );
            assert_eq!(par.exchanges, seq.exchanges, "threads = {threads}");
            let par_est = par.server.estimate(RsuId(0), RsuId(2)).unwrap();
            assert_eq!(par_est, seq_est, "threads = {threads}");
        }
    }

    #[test]
    fn threaded_multi_period_matches_sequential() {
        let settings = PeriodSettings {
            history_alpha: 0.5,
            period_length: 60.0,
            seed: 7,
        };
        let seq = periods(&[150, 250], 150.0, &settings, &RunConfig::new(Monolith));
        let par = periods(
            &[150, 250],
            150.0,
            &settings,
            &observed(4, &Obs::disabled(), Monolith),
        );
        assert_eq!(par.exchanges_per_period, seq.exchanges_per_period);
        assert_eq!(par.sizes_per_period, seq.sizes_per_period);
        // finish_period consumes the uploads, so compare the surviving
        // state: the EWMA history that will size the next period.
        for node in 0..3 {
            assert_eq!(
                par.server.history().average(RsuId(node)),
                seq.server.history().average(RsuId(node)),
                "node {node}"
            );
        }
    }

    fn upload_bytes(server: &CentralServer, nodes: usize) -> Vec<Option<Vec<u8>>> {
        (0..nodes)
            .map(|n| server.upload(RsuId(n as u64)).map(|u| u.encode().to_vec()))
            .collect()
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_the_ideal_path() {
        let trips = full_line(200);
        let history = [200.0, 200.0, 200.0];
        let ideal = period(&trips, &history, &RunConfig::new(Monolith));
        let faulty = period(&trips, &history, &faulty(FaultPlan::none(), Monolith));
        assert_eq!(faulty.exchanges, ideal.exchanges);
        assert!(faulty.undelivered.is_empty());
        assert_eq!(
            upload_bytes(&faulty.server, 3),
            upload_bytes(&ideal.server, 3),
            "zero-rate wire path must reproduce the ideal uploads byte for byte"
        );
        assert_eq!(
            faulty.server.estimate(RsuId(0), RsuId(2)).unwrap(),
            ideal.server.estimate(RsuId(0), RsuId(2)).unwrap()
        );
        let f = &faulty.faults;
        assert_eq!(f.report_link.frames, ideal.exchanges as u64);
        assert_eq!(f.report_link.delivered, f.report_link.frames);
        assert_eq!(f.report_link.dropped + f.report_link.late, 0);
        assert_eq!(f.upload_retries + f.uploads_abandoned, 0);
    }

    #[test]
    fn fault_injection_is_deterministic_and_thread_independent() {
        let trips = full_line(300);
        let history = [300.0, 300.0, 300.0];
        let plan = FaultPlan::new(33)
            .with_report_link(
                LinkFaults::none()
                    .with_drop(0.2)
                    .with_duplicate(0.1)
                    .with_truncate(0.05)
                    .with_bit_flip(0.05),
            )
            .with_upload_link(LinkFaults::none().with_drop(0.3))
            .with_crash(RsuCrash {
                node: 1,
                at: 30.0,
                mode: CrashMode::Checkpoint { interval: 20.0 },
            });
        let mut runs = Vec::new();
        for threads in [1usize, 1, 4] {
            let config = RunConfig {
                threads,
                ..faulty(plan.clone(), Monolith)
            };
            runs.push(period(&trips, &history, &config));
        }
        let base = &runs[0];
        assert!(base.faults.report_link.dropped > 0, "plan actually injects");
        for other in &runs[1..] {
            assert_eq!(other.exchanges, base.exchanges);
            assert_eq!(other.faults, base.faults, "metrics are byte-identical");
            assert_eq!(other.undelivered, base.undelivered);
            assert_eq!(
                upload_bytes(&other.server, 3),
                upload_bytes(&base.server, 3),
                "uploads are byte-identical"
            );
            for (a, b) in [(0u64, 1u64), (0, 2), (1, 2)] {
                assert_eq!(
                    other.server.estimate_or_degraded(RsuId(a), RsuId(b)),
                    base.server.estimate_or_degraded(RsuId(a), RsuId(b))
                );
            }
        }
    }

    #[test]
    fn heavy_upload_loss_still_answers_every_pair() {
        let trips = full_line(200);
        let history = [200.0, 200.0, 200.0];
        // 50% upload loss with the default retry budget: everything
        // should still land, measured.
        let plan = FaultPlan::new(5).with_upload_link(LinkFaults::none().with_drop(0.5));
        let run = period(&trips, &history, &faulty(plan, Monolith));
        assert!(run.faults.upload_retries > 0, "loss forced retries");
        for (a, b) in [(0u64, 1u64), (0, 2), (1, 2)] {
            let est = run.server.estimate_or_degraded(RsuId(a), RsuId(b)).unwrap();
            assert!(est.n_c().is_finite());
        }
        // A dead link: every upload abandoned, every pair still answered
        // — degraded, from the seeded history.
        let dead = FaultPlan::new(5).with_upload_link(LinkFaults::none().with_drop(1.0));
        let run = period(&trips, &history, &faulty(dead, Monolith));
        assert_eq!(run.undelivered.len(), 3);
        assert_eq!(run.faults.uploads_abandoned, 3);
        for (a, b) in [(0u64, 1u64), (0, 2), (1, 2)] {
            let est = run.server.estimate_or_degraded(RsuId(a), RsuId(b)).unwrap();
            assert!(est.is_degraded());
            assert!(est.n_c().is_finite());
        }
    }

    #[test]
    fn report_loss_biases_counters_down_and_crashes_lose_state() {
        let trips = full_line(400);
        let history = [400.0, 400.0, 400.0];
        let lossy = FaultPlan::new(17).with_report_link(LinkFaults::none().with_drop(0.3));
        let run = period(&trips, &history, &faulty(lossy, Monolith));
        let n0 = run.server.upload(RsuId(0)).unwrap().counter;
        assert!(
            n0 < 400 && n0 > 200,
            "30% report loss should show in the counter, got {n0}"
        );
        // A mid-period crash with no checkpointing wipes everything the
        // crashed RSU had seen before the crash.
        let crashing = FaultPlan::new(17).with_crash(RsuCrash {
            node: 1,
            at: 30.0,
            mode: CrashMode::LoseState,
        });
        let run = period(&trips, &history, &faulty(crashing, Monolith));
        assert!(run.faults.reports_lost_to_crash > 0);
        let n1 = run.server.upload(RsuId(1)).unwrap().counter;
        assert!(n1 < 400, "crash must cost node 1 reports, got {n1}");
        assert_eq!(
            run.server.upload(RsuId(0)).unwrap().counter,
            400,
            "other nodes are untouched"
        );
    }

    #[test]
    fn faulty_multi_period_run_is_deterministic_and_survives_loss() {
        let settings = PeriodSettings {
            history_alpha: 0.5,
            period_length: 60.0,
            seed: 7,
        };
        let plan = FaultPlan::new(9)
            .with_report_link(LinkFaults::none().with_drop(0.2))
            .with_upload_link(LinkFaults::none().with_drop(0.4));
        let config = faulty(plan, Monolith);
        let a = periods(&[150, 250], 150.0, &settings, &config);
        let b = periods(
            &[150, 250],
            150.0,
            &settings,
            &RunConfig {
                threads: 4,
                ..config
            },
        );
        assert_eq!(a.exchanges_per_period, b.exchanges_per_period);
        assert_eq!(a.faults_per_period, b.faults_per_period);
        assert_eq!(a.undelivered_per_period, b.undelivered_per_period);
        assert_eq!(a.sizes_per_period, b.sizes_per_period);
        for node in 0..3 {
            assert_eq!(
                a.server.history().average(RsuId(node)),
                b.server.history().average(RsuId(node)),
                "node {node}"
            );
        }
        // Period faults were actually re-rolled per period.
        assert_eq!(a.faults_per_period.len(), 2);
        assert!(a.faults_per_period[0].report_link.dropped > 0);
    }

    #[test]
    #[should_panic(expected = "one departure per trip")]
    fn departure_count_is_validated() {
        let net = line_net();
        let trips = vec![trip(0, vec![0, 1])];
        let _ = simulate_arrivals(&net, &net.free_flow_times(), &trips, &[]);
    }

    #[test]
    fn observed_engine_run_is_bit_identical_to_plain() {
        let trips = full_line(200);
        let history = [200.0, 200.0, 200.0];
        let plain = period(&trips, &history, &RunConfig::new(Monolith));
        // The period's last arrival, from the departures `period` draws
        // (seed 4, period 0, window 60).
        let net = line_net();
        let mut rng = StdRng::seed_from_u64(4);
        let departures: Vec<f64> = trips.iter().map(|_| rng.random_range(0.0..60.0)).collect();
        let last_arrival = simulate_arrivals(&net, &net.free_flow_times(), &trips, &departures)
            .last()
            .expect("every trip arrives")
            .time;
        for threads in [1usize, 2, 4] {
            let obs = Obs::enabled();
            let observed = period(&trips, &history, &observed(threads, &obs, Monolith));
            assert_eq!(observed.exchanges, plain.exchanges, "threads = {threads}");
            for (a, b) in [(0u64, 1u64), (0, 2), (1, 2)] {
                assert_eq!(
                    observed.server.estimate(RsuId(a), RsuId(b)).unwrap(),
                    plain.server.estimate(RsuId(a), RsuId(b)).unwrap(),
                    "pair ({a},{b}) at threads = {threads}"
                );
            }
            let snap = obs.snapshot();
            assert_eq!(snap.counters["engine.exchanges"], plain.exchanges as u64);
            assert_eq!(snap.counters["server.receive.fresh"], 3);
            assert_eq!(snap.gauges["sim_time"], last_arrival, "threads = {threads}");
        }
    }

    #[test]
    fn fault_run_registry_counters_are_thread_count_independent() {
        let trips = full_line(300);
        let history = [300.0, 300.0, 300.0];
        let plan = FaultPlan::new(33)
            .with_report_link(
                LinkFaults::none()
                    .with_drop(0.2)
                    .with_duplicate(0.1)
                    .with_bit_flip(0.05),
            )
            .with_upload_link(LinkFaults::none().with_drop(0.3));
        let mut snapshots = Vec::new();
        for threads in [1usize, 2, 4] {
            let obs = Obs::enabled();
            let config = RunConfig {
                faults: Some((plan.clone(), RetryPolicy::default())),
                ..observed(threads, &obs, Monolith)
            };
            let run = period(&trips, &history, &config);
            assert!(run.faults.report_link.dropped > 0, "plan actually injects");
            snapshots.push(obs.snapshot());
        }
        // Wall-clock histograms (phase.*.ns) vary run to run, but every
        // registry *counter* recorded by the fault path is deterministic
        // and must not depend on the worker count.
        let base = &snapshots[0];
        assert!(base.counters["retry.attempts"] > 0);
        assert!(base.counters["faults.report_link.dropped"] > 0);
        for (i, other) in snapshots.iter().enumerate().skip(1) {
            assert_eq!(other.counters, base.counters, "thread config {i}");
        }
    }

    #[test]
    fn sharded_run_matches_monolithic_at_every_shard_count() {
        let trips = full_line(200);
        let history = [200.0, 200.0, 200.0];
        let mono = period(&trips, &history, &RunConfig::new(Monolith));
        for shards in [1usize, 2, 4, 8] {
            let sharded = period(&trips, &history, &RunConfig::new(Sharded(shards)));
            assert_eq!(sharded.exchanges, mono.exchanges, "shards = {shards}");
            assert_eq!(sharded.server.upload_count(), 3);
            for (a, b) in [(0u64, 1u64), (0, 2), (1, 2)] {
                assert_eq!(
                    sharded.server.estimate(RsuId(a), RsuId(b)).unwrap(),
                    mono.server.estimate(RsuId(a), RsuId(b)).unwrap(),
                    "pair ({a},{b}) at shards = {shards}"
                );
            }
            assert_eq!(
                sharded.server.od_matrix_threads(2).unwrap(),
                mono.server.od_matrix_threads(2).unwrap(),
                "shards = {shards}"
            );
        }
    }

    #[test]
    fn faulty_sharded_run_replays_the_monolithic_fault_sequence() {
        let trips = full_line(300);
        let history = [300.0, 300.0, 300.0];
        let plan = FaultPlan::new(33)
            .with_report_link(
                LinkFaults::none()
                    .with_drop(0.2)
                    .with_duplicate(0.1)
                    .with_bit_flip(0.05),
            )
            .with_upload_link(LinkFaults::none().with_drop(0.4));
        let mono = period(&trips, &history, &faulty(plan.clone(), Monolith));
        assert!(mono.faults.report_link.dropped > 0, "plan actually injects");
        for shards in [1usize, 2, 4, 8] {
            let sharded = period(&trips, &history, &faulty(plan.clone(), Sharded(shards)));
            assert_eq!(sharded.exchanges, mono.exchanges);
            assert_eq!(sharded.faults, mono.faults, "shards = {shards}");
            assert_eq!(sharded.undelivered, mono.undelivered);
            for node in 0..3u64 {
                assert_eq!(
                    sharded.server.upload(RsuId(node)),
                    mono.server.upload(RsuId(node)),
                    "node {node} at shards = {shards}"
                );
            }
            for (a, b) in [(0u64, 1u64), (0, 2), (1, 2)] {
                assert_eq!(
                    sharded.server.estimate_or_degraded(RsuId(a), RsuId(b)),
                    mono.server.estimate_or_degraded(RsuId(a), RsuId(b)),
                    "pair ({a},{b}) at shards = {shards}"
                );
            }
        }
    }

    #[test]
    fn sharded_registry_counters_match_monolith_modulo_shard_series() {
        let trips = full_line(200);
        let history = [200.0, 200.0, 200.0];
        let mono_obs = Obs::enabled();
        let mono = period(&trips, &history, &observed(2, &mono_obs, Monolith));
        let _ = mono.server.od_matrix_threads(2).unwrap();
        for shards in [1usize, 4] {
            let obs = Obs::enabled();
            let sharded = period(&trips, &history, &observed(2, &obs, Sharded(shards)));
            let _ = sharded.server.od_matrix_threads(2).unwrap();
            let mut counters = obs.snapshot().counters;
            counters.retain(|name, _| !name.starts_with("shard.") && !name.starts_with("batch."));
            assert_eq!(counters, mono_obs.snapshot().counters, "shards = {shards}");
        }
    }
}
