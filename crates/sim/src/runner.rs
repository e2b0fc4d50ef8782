use vcps_core::estimator::Estimate;
use vcps_core::{RsuId, Scheme, VehicleIdentity};
use vcps_hash::splitmix64;
use vcps_obs::{Obs, Phase};

use crate::concurrent;
use crate::pki::TrustedAuthority;
use crate::protocol::{BatchUpload, BitReport, PeriodUpload, SequencedUpload};
use crate::synthetic::SyntheticPair;
use crate::{CentralServer, ShardedServer, SimError, SimRsu, SimVehicle};

/// Runs the complete protocol for one two-RSU measurement period:
/// queries, certificate checks, bit reports, wire-encoded uploads, and
/// the server-side decode.
///
/// This is the workhorse of the Fig. 4/5 experiments: feed it a
/// [`SyntheticPair`] workload and compare
/// [`PairOutcome::estimate`] against [`PairOutcome::true_n_c`].
#[derive(Debug, Clone)]
pub struct PairRunner {
    scheme: Scheme,
    rsu_a: RsuId,
    rsu_b: RsuId,
    history: Option<(f64, f64)>,
    authority: TrustedAuthority,
    mac_seed: u64,
    threads: usize,
    shards: Option<usize>,
    obs: Obs,
}

/// The result of one [`PairRunner::run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairOutcome {
    /// The server's decoded estimate.
    pub estimate: Estimate,
    /// The workload's true overlap `n_c`.
    pub true_n_c: u64,
}

impl PairOutcome {
    /// Relative error `|n̂_c − n_c| / n_c` (Table I's `r`); `None` when
    /// the true overlap is zero.
    #[must_use]
    pub fn relative_error(&self) -> Option<f64> {
        self.estimate.relative_error(self.true_n_c as f64)
    }
}

impl PairRunner {
    /// Creates a runner for two RSU ids under a scheme.
    ///
    /// # Panics
    ///
    /// Panics if the two ids are equal.
    #[must_use]
    pub fn new(scheme: Scheme, rsu_a: RsuId, rsu_b: RsuId) -> Self {
        assert_ne!(rsu_a, rsu_b, "a pair needs two distinct RSUs");
        Self {
            scheme,
            rsu_a,
            rsu_b,
            history: None,
            authority: TrustedAuthority::new(0xCA11_AB1E),
            mac_seed: 0xD15C_0DE5,
            threads: 1,
            shards: None,
            obs: Obs::disabled(),
        }
    }

    /// Attaches an observability handle: report generation is profiled
    /// as [`Phase::Encode`], ingestion as [`Phase::Receive`], and the
    /// server-side decode as [`Phase::Decode`] (plus kernel-choice
    /// counters). Communication metrics are bridged into the registry as
    /// `comm.*` counters after each run. Recording never changes the
    /// outcome — results are bit-identical with observability on or off.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Uses `threads` workers for report generation; each RSU then
    /// ingests its reports on the calling thread.
    ///
    /// The result is bit-identical to the sequential run: each vehicle's
    /// MAC stream is keyed by its global passage index (not by execution
    /// order), and the reports come back in input order (see
    /// [`crate::concurrent`]). The default is 1 because the
    /// experiment harness already parallelizes *across* trials; switch
    /// this on for single large runs.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Ingests through a [`ShardedServer`] with `shards` shards instead
    /// of the monolithic [`CentralServer`]: both period uploads ride a
    /// single wire-encoded [`BatchUpload`] frame into the sharded path.
    /// Estimates are bit-identical to the monolithic run — that is the
    /// sharding layer's core contract (DESIGN.md §15) — so this switch
    /// exists to exercise the batch ingestion path end to end from the
    /// accuracy experiments, not to change results.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.shards = Some(shards);
        self
    }

    /// Sets the historical average volumes used for array sizing. Without
    /// this the runner sizes arrays from the workload's exact volumes
    /// (perfect history).
    #[must_use]
    pub fn with_history(mut self, avg_a: f64, avg_b: f64) -> Self {
        self.history = Some((avg_a, avg_b));
        self
    }

    /// Overrides the MAC-randomness seed (purely cosmetic in results).
    #[must_use]
    pub fn with_mac_seed(mut self, seed: u64) -> Self {
        self.mac_seed = seed;
        self
    }

    /// Executes one full measurement period over the workload.
    ///
    /// Uploads are round-tripped through the wire encoding, so this
    /// exercises the entire message path.
    ///
    /// # Errors
    ///
    /// Propagates scheme and protocol failures; saturation is *not* an
    /// error here — the estimate is clamped and flagged
    /// ([`Estimate::clamped`]), because the Fig. 4 baseline saturates by
    /// design and we want to plot it anyway.
    pub fn run(&self, workload: &SyntheticPair) -> Result<PairOutcome, SimError> {
        Ok(self.run_with_metrics(workload)?.0)
    }

    /// Like [`PairRunner::run`] but also accounts every message and byte
    /// exchanged (see [`crate::metrics::CommunicationMetrics`]).
    ///
    /// # Errors
    ///
    /// Same as [`PairRunner::run`].
    pub fn run_with_metrics(
        &self,
        workload: &SyntheticPair,
    ) -> Result<(PairOutcome, crate::CommunicationMetrics), SimError> {
        let (avg_a, avg_b) = self
            .history
            .unwrap_or((workload.n_x() as f64, workload.n_y() as f64));
        let m_a = self.scheme.array_size_for(avg_a)?;
        let m_b = self.scheme.array_size_for(avg_b)?;
        let m_o = m_a.max(m_b);

        let mut rsu_a = SimRsu::new(self.rsu_a, m_a, &self.authority)?;
        let mut rsu_b = SimRsu::new(self.rsu_b, m_b, &self.authority)?;
        let query_a = rsu_a.query();
        let query_b = rsu_b.query();

        // Each passage's MAC stream is keyed by its *global* passage
        // index (x side first, 1-based), so report content is identical
        // no matter how the work is split across threads.
        let identities_x: Vec<VehicleIdentity> = workload.at_x().copied().collect();
        let identities_y: Vec<VehicleIdentity> = workload.at_y().copied().collect();
        let base_y = identities_x.len() as u64;
        let (reports_a, reports_b) = {
            let _encode = self.obs.phase(Phase::Encode);
            (
                self.make_reports(&query_a, identities_x, 0, m_o)?,
                self.make_reports(&query_b, identities_y, base_y, m_o)?,
            )
        };

        let mut metrics = crate::CommunicationMetrics::new();
        for report in &reports_a {
            metrics.record_exchange(&query_a, report);
        }
        for report in &reports_b {
            metrics.record_exchange(&query_b, report);
        }
        {
            let _receive = self.obs.phase(Phase::Receive);
            for report in &reports_a {
                rsu_a.receive(report)?;
            }
            for report in &reports_b {
                rsu_b.receive(report)?;
            }
        }

        let uploads: Vec<PeriodUpload> = [&rsu_a, &rsu_b].map(|rsu| rsu.upload()).into();
        for upload in &uploads {
            metrics.record_upload(upload);
        }
        let estimate = match self.shards {
            None => {
                let mut server =
                    CentralServer::new(self.scheme.clone(), 1.0)?.with_obs(self.obs.clone());
                for upload in &uploads {
                    let wire = upload.encode_compact();
                    server.receive(PeriodUpload::decode(&wire)?);
                }
                server.estimate_or_clamp(self.rsu_a, self.rsu_b)?
            }
            Some(shards) => {
                let mut server = ShardedServer::new(self.scheme.clone(), 1.0, shards)?
                    .with_obs(self.obs.clone());
                let frames: Vec<SequencedUpload> = uploads
                    .iter()
                    .map(|upload| SequencedUpload {
                        seq: 0,
                        upload: upload.clone(),
                    })
                    .collect();
                let _ = server.receive_batch_wire(&BatchUpload::new(frames)?.encode())?;
                server.estimate_or_clamp(self.rsu_a, self.rsu_b)?
            }
        };
        metrics.record_into(&self.obs);
        Ok((
            PairOutcome {
                estimate,
                true_n_c: workload.n_c(),
            },
            metrics,
        ))
    }

    /// Generates one report per identity, numbering passages from
    /// `base + 1`, chunked across the runner's workers — the same output
    /// at every thread count.
    fn make_reports(
        &self,
        query: &crate::Query,
        identities: Vec<VehicleIdentity>,
        base: u64,
        m_o: usize,
    ) -> Result<Vec<BitReport>, SimError> {
        let indexed: Vec<(u64, VehicleIdentity)> = identities
            .into_iter()
            .enumerate()
            .map(|(i, identity)| (base + i as u64 + 1, identity))
            .collect();
        concurrent::parallel_map_threads(indexed, self.threads, |&(counter, identity)| {
            let mut vehicle = SimVehicle::new(identity, splitmix64(self.mac_seed ^ counter));
            vehicle.answer(query, &self.scheme, &self.authority, m_o)
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_scheme_recovers_overlap_at_10x_skew() {
        let scheme = Scheme::variable(2, 3.0, 5).unwrap();
        let workload = SyntheticPair::generate(2_000, 20_000, 500, 11);
        let outcome = PairRunner::new(scheme, RsuId(1), RsuId(2))
            .run(&workload)
            .unwrap();
        let rel = outcome.relative_error().unwrap();
        assert!(
            rel < 0.25,
            "estimate {} vs 500 (rel {rel})",
            outcome.estimate.n_c
        );
        assert!(!outcome.estimate.clamped);
    }

    #[test]
    fn fixed_scheme_saturates_under_heavy_traffic() {
        // m sized for the light RSU (2k): the heavy RSU (200k vehicles)
        // fills every bit, exactly the Fig. 4 failure mode.
        let scheme = Scheme::fixed(2, 4_096, 5).unwrap();
        let workload = SyntheticPair::generate(2_000, 200_000, 500, 12);
        let outcome = PairRunner::new(scheme, RsuId(1), RsuId(2))
            .run(&workload)
            .unwrap();
        assert!(
            outcome.estimate.clamped,
            "the heavy RSU's 4k array must saturate"
        );
    }

    #[test]
    fn equal_traffic_fixed_and_variable_agree() {
        // With n_x = n_y the variable scheme degenerates to the baseline
        // (same m both sides) — both should be accurate.
        let workload = SyntheticPair::generate(10_000, 10_000, 2_000, 13);
        let variable = PairRunner::new(Scheme::variable(2, 3.0, 5).unwrap(), RsuId(1), RsuId(2))
            .run(&workload)
            .unwrap();
        let fixed = PairRunner::new(Scheme::fixed(2, 32_768, 5).unwrap(), RsuId(1), RsuId(2))
            .run(&workload)
            .unwrap();
        assert!(variable.relative_error().unwrap() < 0.1);
        assert!(fixed.relative_error().unwrap() < 0.1);
    }

    #[test]
    fn history_overrides_sizing() {
        let scheme = Scheme::variable(2, 3.0, 5).unwrap();
        let workload = SyntheticPair::generate(1_000, 1_000, 100, 14);
        let outcome = PairRunner::new(scheme, RsuId(1), RsuId(2))
            .with_history(100_000.0, 100_000.0)
            .run(&workload)
            .unwrap();
        // Arrays sized for 100k×3 → 2^19 even though only 1k vehicles pass.
        assert_eq!(outcome.estimate.m_x, 1 << 19);
    }

    #[test]
    fn metrics_account_every_message() {
        let scheme = Scheme::variable(2, 3.0, 5).unwrap();
        let workload = SyntheticPair::generate(500, 1_500, 100, 21);
        let (outcome, metrics) = PairRunner::new(scheme, RsuId(1), RsuId(2))
            .run_with_metrics(&workload)
            .unwrap();
        // One exchange per passage: n_x + n_y.
        assert_eq!(metrics.reports, 500 + 1_500);
        assert_eq!(metrics.queries, metrics.reports);
        assert_eq!(metrics.uploads, 2);
        // Query (33 B) + report (15 B) per passage.
        assert_eq!(metrics.bytes_per_passage(), Some(48.0));
        assert!(metrics.upload_bytes_compact <= metrics.upload_bytes_dense);
        assert_eq!(outcome.true_n_c, 100);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn same_rsu_twice_panics() {
        let scheme = Scheme::variable(2, 3.0, 5).unwrap();
        let _ = PairRunner::new(scheme, RsuId(1), RsuId(1));
    }

    #[test]
    fn threaded_run_is_bit_identical_to_sequential() {
        let scheme = Scheme::variable(2, 3.0, 5).unwrap();
        let workload = SyntheticPair::generate(3_000, 9_000, 700, 17);
        let sequential = PairRunner::new(scheme.clone(), RsuId(1), RsuId(2));
        let (seq_out, seq_metrics) = sequential.run_with_metrics(&workload).unwrap();
        for threads in [2, 4, crate::concurrent::default_threads()] {
            let runner = PairRunner::new(scheme.clone(), RsuId(1), RsuId(2)).with_threads(threads);
            let (out, metrics) = runner.run_with_metrics(&workload).unwrap();
            assert_eq!(out.estimate, seq_out.estimate, "threads = {threads}");
            assert_eq!(metrics, seq_metrics, "threads = {threads}");
        }
    }

    #[test]
    fn sharded_ingestion_is_bit_identical_to_monolithic() {
        let scheme = Scheme::variable(2, 3.0, 5).unwrap();
        let workload = SyntheticPair::generate(2_000, 6_000, 400, 31);
        let mono = PairRunner::new(scheme.clone(), RsuId(1), RsuId(2));
        let (mono_out, mono_metrics) = mono.run_with_metrics(&workload).unwrap();
        for shards in [1usize, 2, 4, 8] {
            let runner = PairRunner::new(scheme.clone(), RsuId(1), RsuId(2)).with_shards(shards);
            let (out, metrics) = runner.run_with_metrics(&workload).unwrap();
            assert_eq!(out.estimate, mono_out.estimate, "shards = {shards}");
            assert_eq!(metrics, mono_metrics, "shards = {shards}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let scheme = Scheme::variable(2, 3.0, 5).unwrap();
        let _ = PairRunner::new(scheme, RsuId(1), RsuId(2)).with_shards(0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let scheme = Scheme::variable(2, 3.0, 5).unwrap();
        let _ = PairRunner::new(scheme, RsuId(1), RsuId(2)).with_threads(0);
    }

    #[test]
    fn observed_run_is_bit_identical_and_bridges_comm_metrics() {
        let scheme = Scheme::variable(2, 3.0, 5).unwrap();
        let workload = SyntheticPair::generate(800, 2_400, 200, 23);
        let plain = PairRunner::new(scheme.clone(), RsuId(1), RsuId(2));
        let (plain_out, plain_metrics) = plain.run_with_metrics(&workload).unwrap();
        let obs = Obs::enabled();
        let observed = PairRunner::new(scheme, RsuId(1), RsuId(2)).with_obs(obs.clone());
        let (obs_out, obs_metrics) = observed.run_with_metrics(&workload).unwrap();
        assert_eq!(obs_out.estimate, plain_out.estimate);
        assert_eq!(obs_metrics, plain_metrics);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["comm.reports"], plain_metrics.reports);
        assert_eq!(snap.counters["server.receive.fresh"], 2);
        // One decode happened, under the Decode phase timer.
        assert_eq!(snap.counters["phase.decode.calls"], 1);
        assert_eq!(snap.counters["phase.encode.calls"], 1);
        assert_eq!(snap.counters["phase.receive.calls"], 1);
    }
}
