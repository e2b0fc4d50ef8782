//! Sharded ingestion server: [`ShardedServer`] partitions RSUs across
//! `K` independent [`CentralServer`] shards by a stable hash of the RSU
//! id, so receive-side state (dedup sequence numbers, uploads, decode
//! caches) never needs cross-shard coordination — two uploads race only
//! if they are for the same RSU, and same-RSU uploads always land on the
//! same shard.
//!
//! The read side composes shards without copying: each RSU's decode
//! row is built by the shard that owns it, borrowing that shard's upload
//! and sparse index cache, and a pair estimate for RSUs owned by
//! different shards runs the *same* decode over the two rows that the
//! monolithic server runs over its own, so the sharded answer is
//! bit-identical to the unsharded one by construction — there is one
//! decode code path, not two. The differential conformance suite
//! (`tests/sharded_differential.rs`) verifies this equivalence end to
//! end for estimates, O–D matrices, and registry counters at every
//! shard/thread count, with and without injected faults.
//!
//! Instrumentation follows the same single-registry principle: every
//! shard carries a *disabled* [`Obs`] handle and the composite owns the
//! real one, firing exactly the counters the monolith fires (plus its
//! own `shard.*` / `batch.*` series, which the differential suite
//! strips before comparing).

use std::collections::{BTreeMap, BTreeSet};

use vcps_core::estimator::Estimate;
use vcps_core::{CoreError, PairEstimate, RsuId, Scheme};
use vcps_hash::splitmix64;
use vcps_obs::{Obs, Phase};

use crate::protocol::{
    BatchUploadRef, CheckpointSet, PeriodUpload, SequencedUpload, SequencedUploadRef,
};
use crate::server::{answer_pair, measure_pair, od_chunks, receive_counter_name, DecodeRow};
use crate::{CentralServer, OdAxis, OdMatrix, ReceiveOutcome, SimError};

/// Stable shard assignment: which of `shard_count` shards owns `rsu`.
///
/// A free function so the engine, experiments, and tests can predict
/// placement without a server instance. [`splitmix64`] scrambles the id
/// first, so dense id ranges (RSU 1..=N, the common case) spread evenly
/// instead of striping.
#[must_use]
pub fn shard_for(rsu: RsuId, shard_count: usize) -> usize {
    assert!(shard_count > 0, "shard_count must be positive");
    (splitmix64(rsu.0) % shard_count as u64) as usize
}

/// A server sharded over `K` independent [`CentralServer`]s (one per
/// hash bucket of RSU ids), answering exactly like a single monolithic
/// server would.
///
/// * **Writes** ([`receive`], [`receive_sequenced`],
///   [`receive_batch_wire`]) route each upload to the owning shard.
/// * **Reads** ([`estimate`], [`estimate_or_degraded`],
///   [`od_matrix_threads`]) borrow the owning shards' uploads and decode
///   caches through the monolith's own decode rows.
///
/// [`receive`]: ShardedServer::receive
/// [`receive_sequenced`]: ShardedServer::receive_sequenced
/// [`receive_batch_wire`]: ShardedServer::receive_batch_wire
/// [`estimate`]: ShardedServer::estimate
/// [`estimate_or_degraded`]: ShardedServer::estimate_or_degraded
/// [`od_matrix_threads`]: ShardedServer::od_matrix_threads
///
/// # Example
///
/// ```
/// use vcps_bitarray::BitArray;
/// use vcps_core::{RsuId, Scheme};
/// use vcps_sim::{PeriodUpload, ShardedServer};
///
/// # fn main() -> Result<(), vcps_sim::SimError> {
/// let scheme = Scheme::variable(2, 3.0, 1)?;
/// let mut server = ShardedServer::new(scheme, 0.5, 4)?;
/// for rsu in 1..=2u64 {
///     server.receive(PeriodUpload {
///         rsu: RsuId(rsu),
///         counter: 2,
///         bits: BitArray::new(64),
///     });
/// }
/// assert!(server.estimate(RsuId(1), RsuId(2))?.n_c.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShardedServer {
    scheme: Scheme,
    shards: Vec<CentralServer>,
    /// The composite's (real) observability handle; the shards all carry
    /// disabled handles so nothing is double-counted.
    obs: Obs,
}

impl ShardedServer {
    /// Creates a server sharded `shard_count` ways; `history_alpha` is
    /// the EWMA smoothing factor, as in [`CentralServer::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if `shard_count` is zero or
    /// `history_alpha` is outside `(0, 1]`.
    pub fn new(scheme: Scheme, history_alpha: f64, shard_count: usize) -> Result<Self, SimError> {
        if shard_count == 0 {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "shard_count",
                reason: "must be at least 1".to_string(),
            }));
        }
        let shards = (0..shard_count)
            .map(|_| CentralServer::new(scheme.clone(), history_alpha))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            scheme,
            shards,
            obs: Obs::disabled(),
        })
    }

    /// Attaches an observability handle to the composite (the shards
    /// deliberately keep disabled handles — see the module docs). Also
    /// publishes the topology as the `shard.count` gauge.
    pub fn set_obs(&mut self, obs: Obs) {
        obs.gauge("shard.count", self.shards.len() as f64);
        self.obs = obs;
    }

    /// Builder-style [`set_obs`](Self::set_obs).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// The attached observability handle.
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Number of shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard owns `rsu` (see [`shard_for`]).
    #[must_use]
    pub fn shard_of(&self, rsu: RsuId) -> usize {
        shard_for(rsu, self.shards.len())
    }

    /// The scheme configuration (shared by every shard).
    #[must_use]
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Seeds an RSU's historical average on its owning shard (see
    /// [`CentralServer::seed_history`]).
    pub fn seed_history(&mut self, rsu: RsuId, average: f64) {
        let shard = self.shard_of(rsu);
        self.shards[shard].seed_history(rsu, average);
    }

    /// The historical average volume recorded for `rsu`, if any.
    #[must_use]
    pub fn history_average(&self, rsu: RsuId) -> Option<f64> {
        self.shards[self.shard_of(rsu)].history().average(rsu)
    }

    /// Total uploads currently held across all shards.
    #[must_use]
    pub fn upload_count(&self) -> usize {
        self.shards.iter().map(CentralServer::upload_count).sum()
    }

    /// The upload currently held for `rsu`, if any.
    #[must_use]
    pub fn upload(&self, rsu: RsuId) -> Option<&PeriodUpload> {
        self.shards[self.shard_of(rsu)].upload(rsu)
    }

    /// Captures every shard's durable state as a [`CheckpointSet`]
    /// covering `frames_applied` WAL records (see
    /// [`CentralServer::checkpoint`] for what each snapshot carries and
    /// omits). Shards appear in shard order, so the set restores under
    /// the same topology only — which is the point: the shard count is
    /// part of the deployment's identity.
    #[must_use]
    pub fn checkpoint(&self, frames_applied: u64) -> CheckpointSet {
        CheckpointSet {
            frames_applied,
            shards: self.shards.iter().map(CentralServer::checkpoint).collect(),
        }
    }

    /// Rebuilds a sharded server from a [`CheckpointSet`] and the
    /// deployment's scheme. The observability handle starts disabled,
    /// exactly as after [`ShardedServer::new`] — re-attach with
    /// [`set_obs`](Self::set_obs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if the set holds no shards, or
    /// propagates [`CentralServer::restore_from_checkpoint`] failures.
    pub fn restore_from_checkpoint(scheme: Scheme, set: &CheckpointSet) -> Result<Self, SimError> {
        if set.shards.is_empty() {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "shard_count",
                reason: "checkpoint set holds no shards".to_string(),
            }));
        }
        let shards = set
            .shards
            .iter()
            .map(|c| CentralServer::restore_from_checkpoint(scheme.clone(), c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            scheme,
            shards,
            obs: Obs::disabled(),
        })
    }

    /// Routes one period upload to its owning shard (the sharded
    /// [`CentralServer::receive`] — same classification, same outcome).
    pub fn receive(&mut self, upload: PeriodUpload) -> ReceiveOutcome {
        let shard = self.shard_of(upload.rsu);
        let outcome = self.shards[shard].receive(upload);
        self.note_receive(outcome)
    }

    /// Routes one sequence-numbered upload to its owning shard (the
    /// sharded [`CentralServer::receive_sequenced`]).
    pub fn receive_sequenced(&mut self, sequenced: SequencedUpload) -> ReceiveOutcome {
        let shard = self.shard_of(sequenced.upload.rsu);
        let outcome = self.shards[shard].receive_sequenced(sequenced);
        self.note_receive(outcome)
    }

    /// [`receive_sequenced`](Self::receive_sequenced) over a borrowed
    /// wire view: routed to the owning shard's
    /// [`CentralServer::receive_sequenced_ref`], so stale and duplicate
    /// frames are classified without materializing anything.
    pub fn receive_sequenced_ref(&mut self, frame: &SequencedUploadRef<'_>) -> ReceiveOutcome {
        let shard = self.shard_of(frame.upload().rsu());
        let outcome = self.shards[shard].receive_sequenced_ref(frame);
        self.note_receive(outcome)
    }

    /// Ingests one already-validated batch view: every inner frame is
    /// routed exactly as [`receive_sequenced_ref`] would route it,
    /// straight off the wire buffer, with per-record heap allocation only
    /// where a fresh or conflicting upload is actually retained
    /// (DESIGN.md §18). Outcomes come back in the batch's (sorted) frame
    /// order.
    ///
    /// [`receive_sequenced_ref`]: ShardedServer::receive_sequenced_ref
    pub fn receive_batch_ref(&mut self, batch: &BatchUploadRef<'_>) -> Vec<ReceiveOutcome> {
        self.obs.inc("batch.frames");
        self.obs.add("batch.uploads", batch.len() as u64);
        batch
            .frames()
            .map(|frame| self.receive_sequenced_ref(&frame))
            .collect()
    }

    /// Decodes a batch wire frame as a borrowed view and ingests it
    /// ([`receive_batch_ref`](Self::receive_batch_ref)).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MalformedMessage`] for a frame
    /// [`BatchUploadRef::decode_ref`] rejects — nothing is ingested in
    /// that case.
    pub fn receive_batch_wire(&mut self, wire: &[u8]) -> Result<Vec<ReceiveOutcome>, SimError> {
        let batch = BatchUploadRef::decode_ref(wire)?;
        Ok(self.receive_batch_ref(&batch))
    }

    /// Records one routed receive: fires the same registry counter the
    /// monolith fires, plus `shard.routed`.
    fn note_receive(&self, outcome: ReceiveOutcome) -> ReceiveOutcome {
        self.obs.inc("shard.routed");
        self.obs.inc(receive_counter_name(outcome));
        outcome
    }

    /// The decode row of `rsu`, built by its owning shard.
    fn decode_row(&self, rsu: RsuId) -> DecodeRow<'_> {
        self.shards[self.shard_of(rsu)].decode_row(rsu)
    }

    /// Tallies one decoded pair as shard-local or cross-shard.
    fn tally_pair(&self, a: RsuId, b: RsuId) {
        self.obs.inc(if self.shard_of(a) == self.shard_of(b) {
            "shard.local_pair"
        } else {
            "shard.cross_pair"
        });
    }

    /// Estimates the point-to-point volume between two uploaded RSUs,
    /// bit-identical to [`CentralServer::estimate`] on the same uploads.
    ///
    /// # Errors
    ///
    /// As [`CentralServer::estimate`].
    pub fn estimate(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        self.tally_pair(a, b);
        measure_pair(&self.decode_row(a), &self.decode_row(b), false, &self.obs)
    }

    /// Like [`estimate`](Self::estimate) but clamps saturated zero
    /// counts, as [`CentralServer::estimate_or_clamp`].
    ///
    /// # Errors
    ///
    /// As [`CentralServer::estimate_or_clamp`].
    pub fn estimate_or_clamp(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        self.tally_pair(a, b);
        measure_pair(&self.decode_row(a), &self.decode_row(b), true, &self.obs)
    }

    /// Answers a pair query with the monolith's exact degradation
    /// ladder ([`CentralServer::estimate_or_degraded`]), each side's
    /// upload and history read from its owning shard.
    ///
    /// # Errors
    ///
    /// As [`CentralServer::estimate_or_degraded`].
    pub fn estimate_or_degraded(&self, a: RsuId, b: RsuId) -> Result<PairEstimate, SimError> {
        let (ra, rb) = (self.decode_row(a), self.decode_row(b));
        if ra.is_decodable() && rb.is_decodable() {
            self.tally_pair(a, b);
        }
        answer_pair(&ra, &rb, &self.obs)
    }

    /// The full origin–destination matrix over every RSU any shard
    /// knows about, assembled like [`CentralServer::od_matrix_threads`].
    ///
    /// # Errors
    ///
    /// As [`CentralServer::od_chunks_threads`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or a worker thread panics.
    pub fn od_matrix_threads(&self, threads: usize) -> Result<OdMatrix, SimError> {
        let (axes, chunks) = self.od_chunks_threads(threads, <[PairEstimate]>::to_vec)?;
        Ok(OdMatrix::from_chunks(axes, &chunks))
    }

    /// The streamed O–D triangle of [`CentralServer::od_chunks_threads`]
    /// over every RSU any shard knows about — the same driver (same RSU
    /// discovery, same chunked triangle, same decode rows, same
    /// sequential-fallback threshold), with each RSU's row built by its
    /// owning shard.
    ///
    /// # Errors
    ///
    /// As [`CentralServer::od_chunks_threads`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or a worker thread panics.
    pub fn od_chunks_threads<U, F>(
        &self,
        threads: usize,
        sink: F,
    ) -> Result<(Vec<OdAxis>, Vec<U>), SimError>
    where
        U: Send,
        F: Fn(&[PairEstimate]) -> U + Sync,
    {
        let _timer = self.obs.phase(Phase::OdMatrix);
        let rsus: Vec<RsuId> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .upload_rsus()
                    .chain(shard.history().iter().map(|(rsu, _)| rsu))
            })
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let shard_idx: Vec<usize> = rsus.iter().map(|&rsu| self.shard_of(rsu)).collect();
        let rows: Vec<DecodeRow<'_>> = rsus
            .iter()
            .zip(&shard_idx)
            .map(|(&rsu, &s)| self.shards[s].decode_row(rsu))
            .collect();
        let chunks = od_chunks(&rows, Some(&shard_idx), &self.obs, threads, sink)?;
        Ok((rows.iter().map(DecodeRow::axis).collect(), chunks))
    }

    /// Ends the period on every shard and merges the (disjoint) per-RSU
    /// next-period sizes — exactly the map the monolith's
    /// [`CentralServer::finish_period`] would return for the union of
    /// the shards' state.
    ///
    /// # Errors
    ///
    /// As [`CentralServer::finish_period`].
    pub fn finish_period(&mut self) -> Result<BTreeMap<RsuId, usize>, SimError> {
        self.obs.inc("server.finish_period.calls");
        let mut sizes = BTreeMap::new();
        for shard in &mut self.shards {
            sizes.append(&mut shard.finish_period()?);
        }
        Ok(sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BatchUpload;
    use vcps_bitarray::BitArray;

    fn upload(rsu: u64, m: usize, ones: &[usize], counter: u64) -> PeriodUpload {
        let mut bits = BitArray::new(m);
        for &i in ones {
            bits.set(i);
        }
        PeriodUpload {
            rsu: RsuId(rsu),
            counter,
            bits,
        }
    }

    fn scheme() -> Scheme {
        Scheme::variable(2, 3.0, 1).unwrap()
    }

    fn servers(shards: usize) -> (CentralServer, ShardedServer) {
        (
            CentralServer::new(scheme(), 0.5).unwrap(),
            ShardedServer::new(scheme(), 0.5, shards).unwrap(),
        )
    }

    fn feed_both(mono: &mut CentralServer, sharded: &mut ShardedServer, rsus: u64) {
        for r in 0..rsus {
            let ones: Vec<usize> = (0..(r as usize * 5) % 9)
                .map(|k| (k * 13 + 2) % 64)
                .collect();
            let up = upload(r, 64, &ones, ones.len() as u64 + 1);
            mono.receive(up.clone());
            sharded.receive(up);
        }
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(ShardedServer::new(scheme(), 0.5, 0).is_err());
        assert!(ShardedServer::new(scheme(), 0.0, 4).is_err());
    }

    #[test]
    fn shard_assignment_is_stable_and_in_range() {
        let server = ShardedServer::new(scheme(), 0.5, 4).unwrap();
        for r in 0..1000u64 {
            let s = server.shard_of(RsuId(r));
            assert!(s < 4);
            assert_eq!(s, shard_for(RsuId(r), 4), "free function agrees");
            assert_eq!(s, server.shard_of(RsuId(r)), "stable");
        }
        // splitmix64 spreads a dense id range over all shards.
        let hit: BTreeSet<usize> = (0..64u64).map(|r| shard_for(RsuId(r), 4)).collect();
        assert_eq!(hit.len(), 4);
    }

    #[test]
    fn estimates_match_monolith_at_every_shard_count() {
        for shards in [1, 2, 4, 8] {
            let (mut mono, mut sharded) = servers(shards);
            feed_both(&mut mono, &mut sharded, 12);
            for a in 0..12u64 {
                for b in (a + 1)..12u64 {
                    assert_eq!(
                        mono.estimate_or_clamp(RsuId(a), RsuId(b)).unwrap(),
                        sharded.estimate_or_clamp(RsuId(a), RsuId(b)).unwrap(),
                        "pair ({a}, {b}) at {shards} shards"
                    );
                }
            }
            assert_eq!(
                mono.od_matrix_threads(2).unwrap(),
                sharded.od_matrix_threads(2).unwrap()
            );
        }
    }

    #[test]
    fn receive_batch_matches_sequenced_loop() {
        let frames: Vec<SequencedUpload> = (0..10u64)
            .map(|r| SequencedUpload {
                seq: 3,
                upload: upload(r, 64, &[r as usize], r + 1),
            })
            .collect();
        let wire = BatchUpload::new(frames.clone()).unwrap().encode();
        let (_, mut via_batch) = servers(4);
        let outcomes = via_batch.receive_batch_wire(&wire).unwrap();
        assert!(outcomes.iter().all(|&o| o == ReceiveOutcome::Fresh));
        let (_, mut via_loop) = servers(4);
        for f in frames {
            via_loop.receive_sequenced(f);
        }
        assert_eq!(via_batch.upload_count(), via_loop.upload_count());
        assert_eq!(
            via_batch.estimate(RsuId(1), RsuId(2)).unwrap(),
            via_loop.estimate(RsuId(1), RsuId(2)).unwrap()
        );
    }

    /// The zero-copy wire path is outcome- and state-identical to
    /// receiving each decoded frame in turn, including on
    /// retransmissions (duplicates) and conflicting re-sends.
    #[test]
    fn receive_batch_wire_matches_owned_batch_path() {
        let frames: Vec<SequencedUpload> = (0..10u64)
            .map(|r| SequencedUpload {
                seq: 3,
                upload: upload(r, 64, &[r as usize], r + 1),
            })
            .collect();
        let wire = BatchUpload::new(frames.clone()).unwrap().encode();
        let conflicting = BatchUpload::new(vec![SequencedUpload {
            seq: 3,
            upload: upload(4, 64, &[63], 9),
        }])
        .unwrap()
        .encode();
        let (_, mut via_wire) = servers(4);
        let (_, mut via_owned) = servers(4);
        for batch_wire in [&wire, &wire, &conflicting] {
            let wire_outcomes = via_wire.receive_batch_wire(batch_wire).unwrap();
            let owned_outcomes: Vec<ReceiveOutcome> = BatchUpload::decode(batch_wire)
                .unwrap()
                .frames()
                .iter()
                .map(|f| via_owned.receive_sequenced(f.clone()))
                .collect();
            assert_eq!(wire_outcomes, owned_outcomes);
        }
        assert_eq!(via_wire.upload_count(), via_owned.upload_count());
        for r in 0..10u64 {
            assert_eq!(via_wire.upload(RsuId(r)), via_owned.upload(RsuId(r)));
        }
        assert_eq!(
            via_wire.estimate(RsuId(1), RsuId(2)).unwrap(),
            via_owned.estimate(RsuId(1), RsuId(2)).unwrap()
        );
        // A malformed wire is rejected without ingesting anything.
        let before = via_wire.upload_count();
        assert!(via_wire
            .receive_batch_wire(&wire[..wire.len() - 1])
            .is_err());
        assert_eq!(via_wire.upload_count(), before);
    }

    #[test]
    fn finish_period_merges_shard_sizes_and_ages_sequences() {
        let (mut mono, mut sharded) = servers(4);
        feed_both(&mut mono, &mut sharded, 10);
        sharded.seed_history(RsuId(77), 500.0);
        mono.seed_history(RsuId(77), 500.0);
        assert_eq!(
            mono.finish_period().unwrap(),
            sharded.finish_period().unwrap()
        );
        assert_eq!(sharded.upload_count(), 0);
        assert_eq!(sharded.history_average(RsuId(77)), Some(500.0));
    }

    #[test]
    fn re_uploads_change_the_answer() {
        let (_, mut sharded) = servers(4);
        sharded.receive(upload(1, 64, &[1], 1));
        sharded.receive(upload(2, 64, &[2], 1));
        let before = sharded.estimate(RsuId(1), RsuId(2)).unwrap();
        // RSU 2 re-uploads with different content: the fresh answer must
        // see the new data.
        sharded.receive(upload(2, 64, &[2, 9], 3));
        let after = sharded.estimate(RsuId(1), RsuId(2)).unwrap();
        assert_eq!(after.n_y, 3);
        assert_ne!(before, after);
    }

    #[test]
    fn composite_counters_match_monolith_modulo_shard_series() {
        let obs_mono = Obs::enabled();
        let obs_shard = Obs::enabled();
        let mut mono = CentralServer::new(scheme(), 0.5)
            .unwrap()
            .with_obs(obs_mono.clone());
        let mut sharded = ShardedServer::new(scheme(), 0.5, 4)
            .unwrap()
            .with_obs(obs_shard.clone());
        feed_both(&mut mono, &mut sharded, 10);
        let _ = mono.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap();
        let _ = sharded.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap();
        let _ = mono.od_matrix_threads(2).unwrap();
        let _ = sharded.od_matrix_threads(2).unwrap();
        mono.finish_period().unwrap();
        sharded.finish_period().unwrap();
        let mut counters = obs_shard.snapshot().counters;
        counters.retain(|name, _| !name.starts_with("shard.") && !name.starts_with("batch."));
        assert_eq!(counters, obs_mono.snapshot().counters);
    }

    #[test]
    fn od_pair_tallies_count_each_measured_pair_once_per_chunked_walk() {
        // 60 uploads make 1770 pairs — several chunks even inline — and
        // the history-only RSUs add pairs that never reach the decode, so
        // they count as neither local nor cross.
        for shards in [1, 3] {
            for threads in [1, 2, 4] {
                let obs = Obs::enabled();
                let (mut mono, sharded) = servers(shards);
                let mut sharded = sharded.with_obs(obs.clone());
                feed_both(&mut mono, &mut sharded, 60);
                for r in 100..104 {
                    sharded.seed_history(RsuId(r), 10.0);
                }
                let _ = sharded.od_matrix_threads(threads).unwrap();
                let (mut local, mut cross) = (0, 0);
                for a in 0..60 {
                    for b in a + 1..60 {
                        if shard_for(RsuId(a), shards) == shard_for(RsuId(b), shards) {
                            local += 1;
                        } else {
                            cross += 1;
                        }
                    }
                }
                let counters = obs.snapshot().counters;
                let tally = |name: &str| counters.get(name).copied();
                assert_eq!(tally("shard.local_pair"), Some(local));
                // A tally of zero registers no counter, as one increment
                // per pair never did.
                assert_eq!(tally("shard.cross_pair"), (cross > 0).then_some(cross));
                assert_eq!(tally("od_matrix.pairs"), Some(64 * 63 / 2));
            }
        }
    }
}
