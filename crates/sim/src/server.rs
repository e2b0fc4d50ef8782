use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use vcps_bitarray::{
    combined_zero_count_adaptive, select_pair_kernel, select_pair_kernel_with_cost,
    sparse_is_profitable, DecodeScratch, PairKernel, UnfoldOperand,
};
use vcps_core::estimator::{
    denominator, estimate_from_terms, first_plays_x, Estimate, PairCounts, ZeroTerm,
};
use vcps_core::{CoreError, DegradedEstimate, PairEstimate, RsuId, Scheme, VolumeHistory};
use vcps_obs::{Obs, Phase};

use crate::protocol::{
    PeriodUpload, PeriodUploadRef, SequencedUpload, SequencedUploadRef, ServerCheckpoint,
};
use crate::SimError;

thread_local! {
    /// Per-thread scratch for the sparse-sparse decode kernel, so both
    /// the single-pair and all-pairs paths reuse one membership mask per
    /// worker instead of allocating per pair.
    static SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::new());
}

/// Runs `f` with this thread's decode scratch — the same per-worker
/// buffer every single-pair and all-pairs decode uses, on both servers.
fn with_thread_scratch<R>(f: impl FnOnce(&mut DecodeScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// The registry counter a receive outcome maps to — shared by the
/// monolithic and sharded receive paths so both fire the exact same
/// names and the differential suite can compare snapshots verbatim.
pub(crate) fn receive_counter_name(outcome: ReceiveOutcome) -> &'static str {
    match outcome {
        ReceiveOutcome::Fresh => "server.receive.fresh",
        ReceiveOutcome::Duplicate => "server.receive.duplicate",
        ReceiveOutcome::Conflicting => "server.receive.conflicting",
        ReceiveOutcome::Stale => "server.receive.stale",
    }
}

/// Counts which decode kernel [`select_pair_kernel`] picks for a pair
/// in its `kernel.*` counter. Mirrors the exact selection
/// [`combined_zero_count_adaptive`] makes internally — same function,
/// same inputs — without touching the decode itself. Takes the handle
/// explicitly so the monolithic and sharded decode paths attribute to
/// their respective registries through one code path.
fn note_kernel_choice(
    obs: &Obs,
    m_x: usize,
    ones_x: Option<&[u64]>,
    m_y: usize,
    ones_y: Option<&[u64]>,
) {
    let kernel = select_pair_kernel(m_x, ones_x.map(<[u64]>::len), m_y, ones_y.map(<[u64]>::len));
    obs.inc(match kernel {
        PairKernel::Dense => "kernel.dense",
        PairKernel::SparseSparse => "kernel.sparse_sparse",
        PairKernel::SparseDense => "kernel.sparse_dense",
        PairKernel::DenseSparse => "kernel.dense_sparse",
    });
}

/// One RSU's decode row: everything a pair answer reads about the RSU,
/// resolved once — per query by the all-pairs driver, per call by the
/// single-pair answers.
///
/// Resolving per *pair* costs `O(N²)` map walks for `N` RSUs, and
/// re-deriving the RSU's Eq. 5 term and unfold operand per pair repeats
/// work that depends on one RSU alone; the row holds both, so a measured
/// pair costs only its kernel, one `ln` and the result. Each RSU's state
/// lives in exactly one holder (one shard on the sharded server), which
/// builds its row.
pub(crate) struct DecodeRow<'a> {
    rsu: RsuId,
    /// The upload that arrived this period, decodable or not.
    upload: Option<&'a PeriodUpload>,
    /// The RSU's volume history average, if any.
    history: Option<f64>,
    /// The decodable upload's half of every measured pair, `None` without
    /// an upload of at least 2 bits (the estimator needs a meaningful
    /// zero fraction).
    side: Option<DecodeSide<'a>>,
}

/// The per-RSU half of Eq. 5 for a decodable upload, flat: array length,
/// counter, zero count, the RSU's zero term and the denominator its size
/// contributes when it plays `B_y`, its cached sparse index list, and
/// its unfold operand for when it plays `B_x`.
struct DecodeSide<'a> {
    rsu: RsuId,
    m: usize,
    counter: u64,
    zeros: usize,
    term: ZeroTerm,
    denominator: f64,
    ones: Option<&'a [u64]>,
    operand: UnfoldOperand<'a>,
}

impl<'a> DecodeRow<'a> {
    /// The row of `rsu` from what its holder knows: its upload, the
    /// upload's cached sparse index list, its history, and the scheme's
    /// `s`.
    fn new(
        rsu: RsuId,
        upload: Option<&'a PeriodUpload>,
        ones: Option<&'a [u64]>,
        history: Option<f64>,
        s: usize,
    ) -> Self {
        let side = upload.filter(|u| u.bits.len() >= 2).map(|u| {
            let (m, zeros) = (u.bits.len(), u.bits.count_zeros());
            DecodeSide {
                rsu,
                m,
                counter: u.counter,
                zeros,
                // A clamped term always exists, and every pair answer
                // clamps; `measure` refuses a clamped term when asked
                // not to clamp.
                term: ZeroTerm::new(zeros, m, true).expect("clamped zero terms always exist"),
                // m ≥ 2 here and a `Scheme` holds s ≥ 2, so the
                // denominator is in its domain.
                denominator: denominator(m, s),
                ones,
                operand: UnfoldOperand::new(&u.bits),
            }
        });
        Self {
            rsu,
            upload,
            history,
            side,
        }
    }

    /// `true` when this row's pairs reach [`measure`].
    pub(crate) fn is_decodable(&self) -> bool {
        self.side.is_some()
    }

    /// The decodable side, or why there is none: no upload
    /// ([`SimError::MissingUpload`]) or one of fewer than 2 bits.
    fn decodable(&self) -> Result<&DecodeSide<'a>, SimError> {
        if let Some(side) = &self.side {
            return Ok(side);
        }
        let upload = self
            .upload
            .ok_or(SimError::MissingUpload { rsu: self.rsu })?;
        Err(SimError::Core(CoreError::InvalidConfig {
            parameter: "m",
            reason: format!(
                "bit array size must be at least 2, got {}",
                upload.bits.len()
            ),
        }))
    }

    /// The volume a degraded answer uses for this RSU, and whether its
    /// upload was missing: an upload that arrived always contributes its
    /// counter, decodable or not; only an absent one falls back to the
    /// history.
    fn volume(&self) -> Result<(f64, bool), SimError> {
        match (self.upload, self.history) {
            (Some(u), _) => Ok((u.counter as f64, false)),
            (None, Some(average)) => Ok((average, true)),
            (None, None) => Err(SimError::MissingUpload { rsu: self.rsu }),
        }
    }

    /// The RSU's axis entry of an O–D answer.
    pub(crate) fn axis(&self) -> OdAxis {
        let (m, n, v) = self
            .side
            .as_ref()
            .map_or((0, 0, 0.0), |x| (x.m, x.counter, x.term.v));
        OdAxis {
            rsu: self.rsu,
            m,
            n,
            v,
        }
    }
}

/// `obs` when it records, so a decode loop checks once per query and
/// each pair tests an `Option` instead.
fn observed(obs: &Obs) -> Option<&Obs> {
    obs.is_enabled().then_some(obs)
}

/// Measures one pair from two decodable sides: orient (the smaller array
/// plays `B_x`, [`first_plays_x`]), count `U_c` through the cheapest
/// kernel on the prepared operand, apply Eq. 5. Every measured answer —
/// single-pair and all-pairs, monolithic and sharded — is this function,
/// so the paths are bit-identical by construction. Without `clamp`, a
/// saturated array is [`CoreError::Saturated`], in the order
/// [`vcps_core::estimator::estimate_from_counts`] reports it.
///
/// With `obs`, the decode records one `phase.decode` sample and the
/// kernel it picked.
fn measure(
    a: &DecodeSide<'_>,
    b: &DecodeSide<'_>,
    clamp: bool,
    scratch: &mut DecodeScratch,
    obs: Option<&Obs>,
) -> Result<Estimate, SimError> {
    let _timer = obs.map(|o| o.phase(Phase::Decode));
    let (x, y) = if first_plays_x(a.m, a.counter, a.rsu, b.m, b.counter, b.rsu) {
        (a, b)
    } else {
        (b, a)
    };
    if let Some(obs) = obs {
        note_kernel_choice(obs, x.m, x.ones, y.m, y.ones);
    }
    let u_c = combined_zero_count_adaptive(&x.operand, x.ones, y.operand.bits(), y.ones, scratch)
        .map_err(CoreError::from)?;
    if !clamp {
        if x.term.clamped {
            return Err(CoreError::Saturated { which: "B_x" }.into());
        }
        if y.term.clamped {
            return Err(CoreError::Saturated { which: "B_y" }.into());
        }
    }
    let counts = PairCounts {
        m_x: x.m,
        m_y: y.m,
        u_x: x.zeros,
        u_y: y.zeros,
        u_c,
        n_x: x.counter,
        n_y: y.counter,
    };
    Ok(estimate_from_terms(
        &counts,
        x.term,
        y.term,
        y.denominator,
        clamp,
    )?)
}

/// The degradation ladder behind every pair answer, single-pair and
/// all-pairs alike: [`measure`] when both uploads are decodable
/// ([`PairEstimate::Measured`]); otherwise — or when the uploads are not
/// comparable (e.g. a corrupted size that slipped through) — a fallback
/// ([`PairEstimate::Degraded`]) that brackets the overlap with the
/// feasible interval `[0, min(n̄_x, n̄_y)]` from each side's
/// [`DecodeRow::volume`].
fn answer(
    a: &DecodeRow<'_>,
    b: &DecodeRow<'_>,
    scratch: &mut DecodeScratch,
    obs: Option<&Obs>,
) -> Result<PairEstimate, SimError> {
    if let (Some(x), Some(y)) = (&a.side, &b.side) {
        if let Ok(e) = measure(x, y, true, scratch, obs) {
            return Ok(PairEstimate::Measured(e));
        }
    }
    let (va, missing_a) = a.volume()?;
    let (vb, missing_b) = b.volume()?;
    Ok(PairEstimate::Degraded(DegradedEstimate::from_volumes(
        va, vb, missing_a, missing_b,
    )))
}

/// The single-pair answer over two rows
/// ([`CentralServer::estimate_or_degraded`]).
pub(crate) fn answer_pair(
    a: &DecodeRow<'_>,
    b: &DecodeRow<'_>,
    obs: &Obs,
) -> Result<PairEstimate, SimError> {
    with_thread_scratch(|scratch| answer(a, b, scratch, observed(obs)))
}

/// The single-pair measured estimate over two rows
/// ([`CentralServer::estimate`] / [`CentralServer::estimate_or_clamp`]):
/// both sides must be decodable.
pub(crate) fn measure_pair(
    a: &DecodeRow<'_>,
    b: &DecodeRow<'_>,
    clamp: bool,
    obs: &Obs,
) -> Result<Estimate, SimError> {
    let (x, y) = (a.decodable()?, b.decodable()?);
    with_thread_scratch(|scratch| measure(x, y, clamp, scratch, observed(obs)))
}

/// Upper bound on the pairs in one claimed chunk of the O–D triangle.
/// It bounds the working set of a chunk — its estimates plus whatever
/// its sink makes of them, ~150 KB with the wire encoding — also on the
/// inline path, which walks the triangle in chunks of this size.
const OD_CHUNK_PAIRS: usize = 1024;

/// The pair index at which row `i` of an `n`-RSU upper triangle starts:
/// rows `0..i` hold `n − 1 + n − 2 + … + n − i` pairs.
fn row_start(n: usize, i: usize) -> usize {
    i * (2 * n - i - 1) / 2
}

/// The `(i, j)`, `i < j`, of pair index `p` in the row-major upper
/// triangle of an `n`-RSU matrix.
fn pair_at(n: usize, p: usize) -> (usize, usize) {
    // The last row whose start is at or before `p`.
    let (mut lo, mut hi) = (0, n - 1);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if row_start(n, mid) <= p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, lo + 1 + p - row_start(n, lo))
}

/// The one all-pairs driver behind `od_chunks_threads` and
/// `od_matrix_threads` of both [`CentralServer`] and
/// [`crate::ShardedServer`], over a [`DecodeRow`] table in ascending RSU
/// order built once per query.
///
/// Executors claim chunks of the upper triangle by pair index
/// ([`map_chunks`]); each walks its chunk in pair order through the
/// degradation ladder — reusing one decode scratch per worker — and
/// hands the chunk's estimates to `sink` on the same worker. Returns the
/// sinks' results in pair order, or the first error in pair order.
/// `shards`, on the sharded server, names each RSU's owning shard, so
/// the measured pairs are tallied as shard-local or cross-shard once per
/// chunk.
///
/// [`map_chunks`]: crate::concurrent::map_chunks
pub(crate) fn od_chunks<U, F>(
    rows: &[DecodeRow<'_>],
    shards: Option<&[usize]>,
    obs: &Obs,
    threads: usize,
    sink: F,
) -> Result<Vec<U>, SimError>
where
    U: Send,
    F: Fn(&[PairEstimate]) -> U + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let n = rows.len();
    let pair_count = n * n.saturating_sub(1) / 2;
    obs.add("od_matrix.pairs", pair_count as u64);
    let threads = od_effective_threads(threads, rows, pair_count);
    let observed = observed(obs);
    // Several chunks per worker, as in `parallel_map_threads`, but never
    // more than `OD_CHUNK_PAIRS` pairs in one.
    let chunk = if threads == 1 {
        OD_CHUNK_PAIRS
    } else {
        pair_count.div_ceil(threads * 4).min(OD_CHUNK_PAIRS)
    };
    let pieces = crate::concurrent::map_chunks(pair_count, chunk, threads, |range| {
        let mut estimates = Vec::with_capacity(range.len());
        let (mut i, mut j) = pair_at(n, range.start);
        let (mut local, mut cross) = (0u64, 0u64);
        let walked = with_thread_scratch(|scratch| {
            for _ in range {
                let (a, b) = (&rows[i], &rows[j]);
                if let Some(shards) = shards {
                    if a.is_decodable() && b.is_decodable() {
                        if shards[i] == shards[j] {
                            local += 1;
                        } else {
                            cross += 1;
                        }
                    }
                }
                estimates.push(answer(a, b, scratch, observed)?);
                j += 1;
                if j == n {
                    i += 1;
                    j = i + 1;
                }
            }
            Ok(())
        });
        if local > 0 {
            obs.add("shard.local_pair", local);
        }
        if cross > 0 {
            obs.add("shard.cross_pair", cross);
        }
        walked.map(|()| sink(&estimates))
    });
    pieces.into_iter().collect()
}

/// Pair count below which the all-pairs decoder estimates the triangle's
/// work before fanning out (estimating costs one selector evaluation per
/// pair, so it is itself skipped for big triangles, which always
/// parallelize).
const OD_ESTIMATE_PAIR_LIMIT: usize = 4096;

/// Estimated triangle work, in kernel-cost word-units, below which
/// [`CentralServer::od_matrix_threads`] runs sequentially instead of
/// dispatching the worker pool. Calibrated on the reference box against
/// the pool's measured dispatch+rendezvous cost (tens of µs): an 8-RSU
/// triangle at any load factor lands well below this threshold — fixing
/// the historical 2/4-thread regression on small matrices — while a
/// 24-RSU triangle at moderate load clears it.
const OD_SEQUENTIAL_COST_LIMIT: usize = 400_000;

/// Fixed per-pair overhead (orientation, selection, estimator
/// arithmetic, result push) in the same word-units, added on top of the
/// selected kernel's modeled cost when estimating triangle work.
/// Measured on the reference box as the 1-thread driver's time per pair
/// on 256-RSU triangles of 64–65,536-bit arrays, less the pairs' modeled
/// kernel cost, over the dense scan's time per word: 280–480 word-units,
/// median ≈ 360 (DESIGN.md §16).
const OD_PAIR_OVERHEAD: usize = 350;

/// At most this many pairs are cost-modeled when estimating a
/// triangle's work; larger triangles are sampled at an even stride and
/// the sum extrapolated. The estimate only gates a threshold decision,
/// so sampling error is harmless — but the loop runs *immediately
/// before* the decode it is sizing, and keeping it tiny matters beyond
/// its own runtime: a few hundred branchy selector evaluations measured
/// ~12 µs of slowdown on the following 24-RSU decode (front-end /
/// branch-predictor pollution), an order of magnitude more than the
/// loop itself.
const OD_ESTIMATE_SAMPLES: usize = 64;

/// Decides the effective thread count for an all-pairs decode: requested
/// threads, unless the triangle's estimated work is too small to repay a
/// pool dispatch, in which case 1 (the inline path).
pub(crate) fn od_effective_threads(
    threads: usize,
    rows: &[DecodeRow<'_>],
    pair_count: usize,
) -> usize {
    if threads <= 1 {
        return threads;
    }
    if pair_count >= OD_ESTIMATE_PAIR_LIMIT {
        return threads;
    }
    // Hoist each RSU's (array length, index-list length) out of its row
    // once: the sampled pair loop below must stay pure arithmetic over
    // this dense vector — reading the rows per pair costs more than the
    // decode it is trying to avoid estimating.
    let sides: Vec<Option<(usize, Option<usize>)>> = rows
        .iter()
        .map(|d| d.side.as_ref().map(|x| (x.m, x.ones.map(<[u64]>::len))))
        .collect();
    let stride = pair_count.div_ceil(OD_ESTIMATE_SAMPLES).max(1);
    let mut cost = 0usize;
    let mut k = 0usize;
    for (i, a) in sides.iter().enumerate() {
        for b in &sides[i + 1..] {
            let sampled = k.is_multiple_of(stride);
            k += 1;
            if !sampled {
                continue;
            }
            cost += OD_PAIR_OVERHEAD;
            if let (Some((la, oa)), Some((lb, ob))) = (a, b) {
                // Orient by size like the decoder (only the cost matters
                // here, so counter tie-breaks are irrelevant).
                let ((m_x, ones_x), (m_y, ones_y)) = if la <= lb {
                    ((*la, *oa), (*lb, *ob))
                } else {
                    ((*lb, *ob), (*la, *oa))
                };
                cost += select_pair_kernel_with_cost(m_x, ones_x, m_y, ones_y).1;
            }
            // Each sampled pair stands for `stride` real ones.
            if cost.saturating_mul(stride) >= OD_SEQUENTIAL_COST_LIMIT {
                return threads;
            }
        }
    }
    if cost.saturating_mul(stride) >= OD_SEQUENTIAL_COST_LIMIT {
        return threads;
    }
    1
}

/// How the server classified one incoming upload relative to what it
/// already holds (see [`CentralServer::receive`] and
/// [`CentralServer::receive_sequenced`]).
///
/// Lossy links make re-sends routine (the RSU retries whenever an ack is
/// lost), so the server must distinguish a benign duplicate from an RSU
/// that changed its story mid-period — silently taking the last write
/// would hide both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReceiveOutcome {
    /// First upload from this RSU (or a newer sequence number): stored.
    Fresh,
    /// Byte-identical to the stored upload: discarded idempotently.
    Duplicate,
    /// Same RSU (and sequence number) but *different* content — a
    /// corrupted frame that still parsed, or an equivocating RSU. The
    /// newer content replaces the old so behavior stays last-write-wins,
    /// but the caller is told.
    Conflicting,
    /// Sequence number at or below one already folded into history (a
    /// straggler from an earlier period): ignored entirely.
    Stale,
}

/// What the receive verdict needs of an incoming upload, so one body
/// serves an owned [`PeriodUpload`] and a borrowed [`PeriodUploadRef`]
/// alike: the owned form compares and moves, the view compares in place
/// and materializes only when the server keeps it.
trait Incoming {
    fn rsu(&self) -> RsuId;
    /// Whether this upload equals the one `held` for its RSU.
    fn matches(&self, held: &PeriodUpload) -> bool;
    fn into_owned(self) -> PeriodUpload;
}

impl Incoming for PeriodUpload {
    fn rsu(&self) -> RsuId {
        self.rsu
    }

    fn matches(&self, held: &PeriodUpload) -> bool {
        self == held
    }

    fn into_owned(self) -> PeriodUpload {
        self
    }
}

impl Incoming for PeriodUploadRef<'_> {
    fn rsu(&self) -> RsuId {
        PeriodUploadRef::rsu(self)
    }

    fn matches(&self, held: &PeriodUpload) -> bool {
        PeriodUploadRef::matches(self, held)
    }

    fn into_owned(self) -> PeriodUpload {
        self.to_owned_upload()
    }
}

/// Decode-side caches derived from the uploads of the current period:
/// `sparse_ones` holds the sorted set-bit index list of every upload
/// still under the densify threshold
/// ([`vcps_bitarray::sparse_is_profitable`]), extracted once at receive
/// time and shared by all `N−1` pair decodes that touch the RSU.
///
/// Lifetime: an RSU's entry is re-derived whenever a new upload replaces
/// its data ([`ReceiveOutcome::Fresh`] / `Conflicting`), and everything
/// is cleared by [`CentralServer::finish_period`] — the caches never
/// outlive the uploads they were derived from.
///
/// The caches are pure accelerators: they are ignored by equality,
/// carried empty through (de)serialization, and rebuilt lazily, so a
/// restored or cloned server answers identically (at worst via the dense
/// kernel until re-populated).
#[derive(Debug, Clone, Default)]
struct DecodeCaches {
    sparse_ones: BTreeMap<RsuId, Vec<u64>>,
}

impl PartialEq for DecodeCaches {
    fn eq(&self, _other: &Self) -> bool {
        // Caches are derived state: two servers with equal uploads answer
        // identically regardless of what either has cached.
        true
    }
}

impl Serialize for DecodeCaches {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Derived state: nothing to persist (matches the offline serde
        // shim's placeholder sink; with real serde this would be a unit).
        serializer.serialize_stub()
    }
}

impl<'de> Deserialize<'de> for DecodeCaches {
    fn deserialize<D: serde::Deserializer<'de>>(_deserializer: D) -> Result<Self, D::Error> {
        // Rebuilt lazily after restore.
        Ok(Self::default())
    }
}

/// The server's observability handle ([`vcps_obs::Obs`]), wrapped so it
/// follows the same derived-state policy as [`DecodeCaches`]: ignored by
/// equality (instrumentation never changes what a server answers),
/// dropped through (de)serialization (a restored server comes back with
/// observability off), and defaulting to the disabled no-op handle.
#[derive(Debug, Clone, Default)]
struct ObsCell(Obs);

impl PartialEq for ObsCell {
    fn eq(&self, _other: &Self) -> bool {
        // Observability is side-channel state: two servers with equal
        // uploads answer identically whatever either has recorded.
        true
    }
}

impl Serialize for ObsCell {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Side-channel state: nothing to persist.
        serializer.serialize_stub()
    }
}

impl<'de> Deserialize<'de> for ObsCell {
    fn deserialize<D: serde::Deserializer<'de>>(_deserializer: D) -> Result<Self, D::Error> {
        // Restored servers start with observability disabled.
        Ok(Self::default())
    }
}

/// One RSU's axis entry of an O–D answer: its id and, when it holds a
/// decodable upload, the per-RSU half of every measured estimate it
/// takes part in — array length, counter and zero fraction.
///
/// A measured [`Estimate`] of the pair `(a, b)` is these two entries
/// oriented by [`first_plays_x`] plus the pair's own `n̂_c`, `V_c` and
/// clamped flag, so an O–D answer sends the entries once per RSU and
/// three values per measured pair (the tag-34 response of `vcps-net`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OdAxis {
    /// The RSU.
    pub rsu: RsuId,
    /// Its array length `m`; 0 when it holds no decodable upload.
    pub m: usize,
    /// The counter `n` of its decodable upload (0 without one).
    pub n: u64,
    /// The zero fraction `V` of its decodable upload — its `V_x` or
    /// `V_y` in every measured estimate, half a zero bit over `m` when
    /// saturated (0 without one).
    pub v: f64,
}

/// One period's origin–destination matrix: the [`PairEstimate`] for
/// every unordered pair of RSUs the server knows about (uploads and
/// volume history), produced by [`CentralServer::od_matrix_threads`].
///
/// Stored row-major over the sorted RSU list; the diagonal is `None`
/// (an RSU's "overlap with itself" is just its counter, not an O–D
/// flow) and each pair is decoded once — the mirror entry is the same
/// estimate with the argument roles swapped
/// ([`PairEstimate::transposed`]), so `at(i, j)` always equals
/// `estimate_or_degraded(rsus[i], rsus[j])` exactly. The matrix keeps
/// each RSU's [`OdAxis`], from which its measured estimates are built.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OdMatrix {
    rsus: Vec<RsuId>,
    axes: Vec<OdAxis>,
    entries: Vec<Option<PairEstimate>>,
}

impl OdMatrix {
    /// Assembles a matrix from the upper triangle in row-major pair
    /// order, split into chunks as the all-pairs driver streams it: each
    /// `(i, j)` estimate fills its entry and its transposed mirror.
    pub(crate) fn from_chunks(axes: Vec<OdAxis>, chunks: &[Vec<PairEstimate>]) -> Self {
        let n = axes.len();
        let mut entries = vec![None; n * n];
        let (mut i, mut j) = (0, 1);
        for estimate in chunks.iter().flatten() {
            entries[j * n + i] = Some(estimate.transposed());
            entries[i * n + j] = Some(*estimate);
            j += 1;
            if j == n {
                i += 1;
                j = i + 1;
            }
        }
        Self {
            rsus: axes.iter().map(|axis| axis.rsu).collect(),
            axes,
            entries,
        }
    }

    /// Each RSU's axis entry, in the order of [`rsus`](OdMatrix::rsus).
    #[must_use]
    pub fn axes(&self) -> &[OdAxis] {
        &self.axes
    }

    /// The RSUs covered, in ascending id order (the matrix axes).
    #[must_use]
    pub fn rsus(&self) -> &[RsuId] {
        &self.rsus
    }

    /// Number of RSUs covered (the matrix is `len × len`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rsus.len()
    }

    /// `true` if the server knew no RSUs at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rsus.is_empty()
    }

    /// The estimate at row `i`, column `j` of the matrix (`None` on the
    /// diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is not below [`len`](OdMatrix::len).
    #[must_use]
    pub fn at(&self, i: usize, j: usize) -> Option<&PairEstimate> {
        assert!(i < self.len() && j < self.len(), "index out of range");
        self.entries[i * self.rsus.len() + j].as_ref()
    }

    /// The estimate for an RSU pair by id, `None` if either RSU is not
    /// covered or `a == b`.
    #[must_use]
    pub fn get(&self, a: RsuId, b: RsuId) -> Option<&PairEstimate> {
        let i = self.rsus.binary_search(&a).ok()?;
        let j = self.rsus.binary_search(&b).ok()?;
        self.entries[i * self.rsus.len() + j].as_ref()
    }

    /// Iterates the upper triangle: every unordered pair once, as
    /// `(origin, destination, estimate)` with `origin < destination`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (RsuId, RsuId, &PairEstimate)> {
        let n = self.rsus.len();
        (0..n).flat_map(move |i| {
            (i + 1..n).filter_map(move |j| {
                self.entries[i * n + j]
                    .as_ref()
                    .map(|e| (self.rsus[i], self.rsus[j], e))
            })
        })
    }
}

/// The central server (paper §II-A, §IV-C).
///
/// Collects [`PeriodUpload`]s, answers point-to-point queries for
/// arbitrary RSU pairs, and at period end updates the per-RSU volume
/// history and recomputes next-period array sizes (the "first updates
/// the history average … then measures" loop of §IV-C).
///
/// Under fault injection ([`crate::faults`]) the server additionally
/// deduplicates re-sent uploads by sequence number and, when an RSU's
/// upload never arrives, degrades gracefully: [`estimate_or_degraded`]
/// falls back to the volume history and answers with an explicit
/// [`PairEstimate::Degraded`] instead of failing.
///
/// [`estimate_or_degraded`]: CentralServer::estimate_or_degraded
///
/// # Example
///
/// ```
/// use vcps_core::{RsuId, Scheme};
/// use vcps_sim::{CentralServer, PeriodUpload};
/// use vcps_bitarray::BitArray;
///
/// # fn main() -> Result<(), vcps_sim::SimError> {
/// let scheme = Scheme::variable(2, 3.0, 1)?;
/// let mut server = CentralServer::new(scheme, 0.5)?;
/// server.receive(PeriodUpload { rsu: RsuId(1), counter: 4, bits: BitArray::new(16) });
/// let sizes = server.finish_period()?;
/// assert_eq!(sizes[&RsuId(1)], 16); // 4 vehicles × f̄ 3 → next power of two
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CentralServer {
    scheme: Scheme,
    history: VolumeHistory,
    uploads: BTreeMap<RsuId, PeriodUpload>,
    /// Highest sequence number accepted per RSU (survives
    /// [`finish_period`](CentralServer::finish_period) so stragglers from
    /// closed periods are recognized as stale).
    upload_seqs: BTreeMap<RsuId, u64>,
    /// Decode caches derived from `uploads` (see [`DecodeCaches`]).
    caches: DecodeCaches,
    /// Observability handle (see [`ObsCell`]); disabled by default.
    obs: ObsCell,
}

impl CentralServer {
    /// Creates a server for a scheme; `history_alpha` is the EWMA
    /// smoothing factor for volume history.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if `history_alpha` is outside `(0, 1]`
    /// (NaN included).
    pub fn new(scheme: Scheme, history_alpha: f64) -> Result<Self, SimError> {
        if !(history_alpha > 0.0 && history_alpha <= 1.0) {
            return Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "history_alpha",
                reason: format!("must be in (0, 1], got {history_alpha}"),
            }));
        }
        Ok(Self {
            scheme,
            history: VolumeHistory::new(history_alpha),
            uploads: BTreeMap::new(),
            upload_seqs: BTreeMap::new(),
            caches: DecodeCaches::default(),
            obs: ObsCell::default(),
        })
    }

    /// Attaches an observability handle: receive outcomes, decode phase
    /// timings, and kernel selections are recorded through it from now
    /// on. The default handle is disabled ([`Obs::disabled`]), in which
    /// case every instrumentation point is a single pointer check.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = ObsCell(obs);
    }

    /// Builder-style [`set_obs`](Self::set_obs).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.set_obs(obs);
        self
    }

    /// The attached observability handle (disabled unless
    /// [`set_obs`](Self::set_obs) was called).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs.0
    }

    /// Seeds an RSU's historical average (e.g. from past traffic
    /// studies) before the first period.
    pub fn seed_history(&mut self, rsu: RsuId, average: f64) {
        self.history.seed(rsu, average);
    }

    /// The volume history (read access).
    #[must_use]
    pub fn history(&self) -> &VolumeHistory {
        &self.history
    }

    /// The scheme configuration.
    #[must_use]
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Stores one RSU's period upload, reporting how it related to any
    /// upload already held for that RSU: [`Fresh`] (first), [`Duplicate`]
    /// (identical re-send, discarded), or [`Conflicting`] (different
    /// content — replaces the stored upload, but flagged).
    ///
    /// [`Fresh`]: ReceiveOutcome::Fresh
    /// [`Duplicate`]: ReceiveOutcome::Duplicate
    /// [`Conflicting`]: ReceiveOutcome::Conflicting
    pub fn receive(&mut self, upload: PeriodUpload) -> ReceiveOutcome {
        let outcome = match self.uploads.get(&upload.rsu) {
            Some(prev) if *prev == upload => ReceiveOutcome::Duplicate,
            Some(_) => {
                self.store(upload);
                ReceiveOutcome::Conflicting
            }
            None => {
                self.store(upload);
                ReceiveOutcome::Fresh
            }
        };
        self.note_receive(outcome)
    }

    /// Records one receive outcome into the registry (a no-op with
    /// observability disabled) and passes it through.
    fn note_receive(&self, outcome: ReceiveOutcome) -> ReceiveOutcome {
        self.obs.0.inc(receive_counter_name(outcome));
        outcome
    }

    /// Holds `upload` as its RSU's data for the period and re-derives
    /// the RSU's decode caches: extract (or drop) its sparse index list.
    fn store(&mut self, upload: PeriodUpload) {
        let bits = &upload.bits;
        if sparse_is_profitable(bits.len(), bits.count_ones()) {
            let ones = bits.ones().map(|i| i as u64).collect();
            self.caches.sparse_ones.insert(upload.rsu, ones);
        } else {
            self.caches.sparse_ones.remove(&upload.rsu);
        }
        self.uploads.insert(upload.rsu, upload);
    }

    /// Stores a sequence-numbered upload from the retrying upload path
    /// ([`crate::faults::upload_with_retry`]).
    ///
    /// Sequence numbers are per-RSU and monotone across periods (the
    /// engine uses the period index), which lets the server tell a
    /// harmless retransmission ([`ReceiveOutcome::Duplicate`]) from a
    /// straggler of an already-closed period ([`ReceiveOutcome::Stale`])
    /// — the latter must not resurrect as the *current* period's data.
    pub fn receive_sequenced(&mut self, sequenced: SequencedUpload) -> ReceiveOutcome {
        self.receive_at(sequenced.seq, sequenced.upload)
    }

    /// [`receive_sequenced`](Self::receive_sequenced) over a borrowed
    /// wire view — the zero-copy ingest path (DESIGN.md §18).
    ///
    /// The verdict is the same; stale and duplicate frames (the
    /// retransmission steady state) are classified without
    /// materializing anything — duplicate detection compares the view
    /// against the stored upload via [`PeriodUploadRef::matches`] — and
    /// only a fresh or conflicting frame pays
    /// [`PeriodUploadRef::to_owned_upload`].
    pub fn receive_sequenced_ref(&mut self, frame: &SequencedUploadRef<'_>) -> ReceiveOutcome {
        self.receive_at(frame.seq(), frame.upload())
    }

    /// The one Fresh / Duplicate / Conflicting / Stale verdict behind
    /// both sequenced receives, over an owned upload or a wire view.
    fn receive_at(&mut self, seq: u64, upload: impl Incoming) -> ReceiveOutcome {
        let rsu = upload.rsu();
        let outcome = match self.upload_seqs.get(&rsu).copied() {
            Some(seen) if seq < seen => ReceiveOutcome::Stale,
            Some(seen) if seq == seen => match self.uploads.get(&rsu) {
                // Same sequence but the period already closed: the upload
                // was folded into history, so a re-send carries nothing.
                None => ReceiveOutcome::Stale,
                Some(prev) if upload.matches(prev) => ReceiveOutcome::Duplicate,
                Some(_) => {
                    self.store(upload.into_owned());
                    ReceiveOutcome::Conflicting
                }
            },
            _ => {
                self.upload_seqs.insert(rsu, seq);
                self.store(upload.into_owned());
                ReceiveOutcome::Fresh
            }
        };
        self.note_receive(outcome)
    }

    /// Number of uploads currently held.
    #[must_use]
    pub fn upload_count(&self) -> usize {
        self.uploads.len()
    }

    /// The upload currently held for `rsu`, if any.
    #[must_use]
    pub fn upload(&self, rsu: RsuId) -> Option<&PeriodUpload> {
        self.uploads.get(&rsu)
    }

    /// The RSUs with an upload currently held, in ascending id order.
    pub(crate) fn upload_rsus(&self) -> impl Iterator<Item = RsuId> + '_ {
        self.uploads.keys().copied()
    }

    /// Captures the server's durable state as a wire-serializable
    /// [`ServerCheckpoint`]: history, accepted sequence numbers, and the
    /// open period's uploads. Derived state (decode caches, the
    /// observability handle) is excluded — [`restore_from_checkpoint`]
    /// rebuilds the former and the caller re-attaches the latter, the
    /// same contract the `serde` impls follow.
    ///
    /// [`restore_from_checkpoint`]: Self::restore_from_checkpoint
    #[must_use]
    pub fn checkpoint(&self) -> ServerCheckpoint {
        ServerCheckpoint {
            alpha: self.history.alpha(),
            history: self.history.iter().collect(),
            seqs: self.upload_seqs.iter().map(|(&r, &s)| (r, s)).collect(),
            uploads: self.uploads.values().cloned().collect(),
        }
    }

    /// Rebuilds a server from a [`ServerCheckpoint`] and the
    /// deployment's scheme (checkpoints deliberately do not carry the
    /// scheme: a snapshot is only meaningful to the deployment that
    /// wrote it). Decode caches are re-derived from the restored
    /// uploads; the observability handle starts disabled, exactly as
    /// after a `serde` round trip.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if the checkpoint's alpha is outside
    /// `(0, 1]` (possible only for hand-built checkpoints — the wire
    /// decoder already rejects it).
    pub fn restore_from_checkpoint(
        scheme: Scheme,
        checkpoint: &ServerCheckpoint,
    ) -> Result<Self, SimError> {
        let mut server = Self::new(scheme, checkpoint.alpha)?;
        for &(rsu, avg) in &checkpoint.history {
            server.history.seed(rsu, avg);
        }
        for &(rsu, seq) in &checkpoint.seqs {
            server.upload_seqs.insert(rsu, seq);
        }
        for upload in &checkpoint.uploads {
            server.store(upload.clone());
        }
        Ok(server)
    }

    /// The decode row of `rsu` (see [`DecodeRow`]): everything a pair
    /// answer reads about it, resolved from this server's maps once.
    pub(crate) fn decode_row(&self, rsu: RsuId) -> DecodeRow<'_> {
        DecodeRow::new(
            rsu,
            self.uploads.get(&rsu),
            self.caches.sparse_ones.get(&rsu).map(Vec::as_slice),
            self.history.average(rsu),
            self.scheme.s(),
        )
    }

    /// Estimates the point-to-point volume between two uploaded RSUs
    /// (paper Eq. 5), decoding the pair afresh on every call.
    ///
    /// # Errors
    ///
    /// * [`SimError::MissingUpload`] if either RSU has not uploaded;
    /// * [`SimError::Core`] for saturation or incompatible sizes.
    pub fn estimate(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        measure_pair(&self.decode_row(a), &self.decode_row(b), false, &self.obs.0)
    }

    /// Like [`estimate`](CentralServer::estimate) but clamps saturated
    /// zero counts instead of failing.
    ///
    /// # Errors
    ///
    /// * [`SimError::MissingUpload`] if either RSU has not uploaded;
    /// * [`SimError::Core`] for incompatible sizes.
    pub fn estimate_or_clamp(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        measure_pair(&self.decode_row(a), &self.decode_row(b), true, &self.obs.0)
    }

    /// Answers a pair query even when uploads are missing: full decode
    /// when both sketches are decodable ([`PairEstimate::Measured`]),
    /// otherwise a fallback ([`PairEstimate::Degraded`]) that brackets
    /// the overlap with the feasible interval `[0, min(n̄_x, n̄_y)]`.
    ///
    /// A side whose upload arrived contributes its measured counter —
    /// also when the upload cannot be decoded; a side without an upload
    /// contributes its EWMA volume history.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MissingUpload`] only when a side has *neither*
    /// an upload nor any volume history — the server knows nothing at all
    /// about that RSU.
    pub fn estimate_or_degraded(&self, a: RsuId, b: RsuId) -> Result<PairEstimate, SimError> {
        answer_pair(&self.decode_row(a), &self.decode_row(b), &self.obs.0)
    }

    /// The full origin–destination matrix:
    /// [`od_chunks_threads`](Self::od_chunks_threads) with each chunk
    /// copied out, scattered into the dense matrix.
    ///
    /// # Errors
    ///
    /// As [`od_chunks_threads`](Self::od_chunks_threads).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or a worker thread panics.
    pub fn od_matrix_threads(&self, threads: usize) -> Result<OdMatrix, SimError> {
        let (axes, chunks) = self.od_chunks_threads(threads, <[PairEstimate]>::to_vec)?;
        Ok(OdMatrix::from_chunks(axes, &chunks))
    }

    /// Streams the origin–destination triangle for every RSU the server
    /// knows about — current uploads and volume history alike — through
    /// `sink`, with at most `threads` workers.
    ///
    /// Returns the matrix axes — every RSU in ascending id order with its
    /// [`OdAxis`] — and the sink's result for each chunk, in pair order:
    /// the chunks' estimates, concatenated, are every pair `(i, j)`,
    /// `i < j`, in row-major order, each exactly what
    /// [`estimate_or_degraded`](Self::estimate_or_degraded) returns for
    /// `(axes[i].rsu, axes[j].rsu)` — measured where both uploads are
    /// decodable, degraded elsewhere.
    ///
    /// Persistent-pool workers claim chunks of the triangle by pair
    /// index (consecutive pairs share their `i`-side upload) and run
    /// `sink` on the chunk they decoded, so no whole-matrix intermediate
    /// exists unless the sink builds one. Each RSU's [`DecodeRow`] —
    /// upload, sparse index list, Eq. 5 term and unfold operand — is
    /// built *once* before the fan-out, so the per-pair work is kernel
    /// time plus the combined array's term; each worker reuses one
    /// decode scratch. When the estimated triangle work is too small to
    /// repay a pool dispatch, the chunks run inline on the caller —
    /// small matrices can never lose to the 1-thread path.
    ///
    /// # Errors
    ///
    /// Returns the first error in pair order: [`SimError::MissingUpload`]
    /// if some covered pair has a side with neither an upload nor
    /// history (cannot happen for RSUs discovered from those two
    /// sources — defensive only).
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
        let _timer = self.obs.0.phase(Phase::OdMatrix);
        let rows: Vec<DecodeRow<'_>> = self
            .uploads
            .keys()
            .copied()
            .chain(self.history.iter().map(|(rsu, _)| rsu))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .map(|rsu| self.decode_row(rsu))
            .collect();
        let chunks = od_chunks(&rows, None, &self.obs.0, threads, sink)?;
        Ok((rows.iter().map(DecodeRow::axis).collect(), chunks))
    }

    /// Ends the period: folds every upload's counter into the volume
    /// history, clears the uploads, and returns the array size each RSU
    /// should use next period.
    ///
    /// Sequence-number bookkeeping survives, so stragglers from the
    /// closed period are still recognized as stale.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if a size computation fails.
    pub fn finish_period(&mut self) -> Result<BTreeMap<RsuId, usize>, SimError> {
        self.obs.0.inc("server.finish_period.calls");
        let mut sizes = BTreeMap::new();
        for (&rsu, upload) in &self.uploads {
            self.history.update(rsu, upload.counter as f64);
        }
        for (rsu, average) in self.history.iter() {
            sizes.insert(rsu, self.scheme.array_size_for(average)?);
        }
        self.uploads.clear();
        // The decode caches were derived from the uploads just folded
        // away; nothing of them may survive into the next period.
        self.caches.sparse_ones.clear();
        Ok(sizes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn server() -> CentralServer {
        CentralServer::new(Scheme::variable(2, 3.0, 1).unwrap(), 0.5).unwrap()
    }

    #[test]
    fn new_rejects_out_of_range_alpha() {
        let scheme = Scheme::variable(2, 3.0, 1).unwrap();
        for alpha in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let err = CentralServer::new(scheme.clone(), alpha);
            assert!(err.is_err(), "alpha {alpha} must be rejected");
        }
        assert!(CentralServer::new(scheme.clone(), 1.0).is_ok());
        assert!(CentralServer::new(scheme, 0.01).is_ok());
    }

    #[test]
    fn estimate_requires_uploads() {
        let server = server();
        assert_eq!(
            server.estimate(RsuId(1), RsuId(2)),
            Err(SimError::MissingUpload { rsu: RsuId(1) })
        );
    }

    #[test]
    fn estimate_decodes_uploaded_pair() {
        let mut server = server();
        server.receive(upload(1, 64, &[1, 5], 2));
        server.receive(upload(2, 256, &[1, 70], 2));
        let e = server.estimate(RsuId(1), RsuId(2)).unwrap();
        assert!(e.n_c.is_finite());
        assert_eq!(e.m_x, 64);
        assert_eq!(e.m_y, 256);
    }

    #[test]
    fn receive_classifies_fresh_duplicate_conflicting() {
        let mut server = server();
        assert_eq!(server.receive(upload(1, 64, &[], 2)), ReceiveOutcome::Fresh);
        assert_eq!(
            server.receive(upload(1, 64, &[], 2)),
            ReceiveOutcome::Duplicate
        );
        assert_eq!(
            server.receive(upload(1, 64, &[3], 9)),
            ReceiveOutcome::Conflicting
        );
        // Conflicting content replaced the stored upload.
        assert_eq!(server.upload(RsuId(1)).unwrap().counter, 9);
        assert_eq!(server.upload_count(), 1);
    }

    #[test]
    fn re_upload_replaces_previous() {
        let mut server = server();
        server.receive(upload(1, 64, &[], 2));
        server.receive(upload(1, 64, &[3], 9));
        assert_eq!(server.upload_count(), 1);
        let sizes = server.finish_period().unwrap();
        // History saw 9, not 2: 9 × 3 = 27 → 32.
        assert_eq!(sizes[&RsuId(1)], 32);
    }

    #[test]
    fn sequenced_uploads_dedup_and_age_out() {
        let mut server = server();
        let wrap = |seq, up| SequencedUpload { seq, upload: up };
        assert_eq!(
            server.receive_sequenced(wrap(0, upload(1, 64, &[1], 5))),
            ReceiveOutcome::Fresh
        );
        assert_eq!(
            server.receive_sequenced(wrap(0, upload(1, 64, &[1], 5))),
            ReceiveOutcome::Duplicate
        );
        assert_eq!(
            server.receive_sequenced(wrap(0, upload(1, 64, &[2], 5))),
            ReceiveOutcome::Conflicting
        );
        // Next period: higher sequence is fresh again…
        assert_eq!(
            server.receive_sequenced(wrap(1, upload(1, 64, &[9], 7))),
            ReceiveOutcome::Fresh
        );
        // …and the old sequence is stale, leaving the new data intact.
        assert_eq!(
            server.receive_sequenced(wrap(0, upload(1, 64, &[1], 5))),
            ReceiveOutcome::Stale
        );
        assert_eq!(server.upload(RsuId(1)).unwrap().counter, 7);
    }

    #[test]
    fn sequenced_straggler_after_finish_period_is_stale() {
        let mut server = server();
        let wrap = |seq, up| SequencedUpload { seq, upload: up };
        server.receive_sequenced(wrap(3, upload(1, 64, &[1], 5)));
        server.finish_period().unwrap();
        assert_eq!(server.upload_count(), 0);
        // A re-send of the already-folded upload must not resurrect it as
        // current-period data.
        assert_eq!(
            server.receive_sequenced(wrap(3, upload(1, 64, &[1], 5))),
            ReceiveOutcome::Stale
        );
        assert_eq!(server.upload_count(), 0);
    }

    #[test]
    fn finish_period_updates_history_and_clears() {
        let mut server = CentralServer::new(Scheme::variable(2, 3.0, 1).unwrap(), 1.0).unwrap();
        server.seed_history(RsuId(1), 100.0);
        server.receive(upload(1, 64, &[], 1000));
        let sizes = server.finish_period().unwrap();
        assert_eq!(server.upload_count(), 0);
        // alpha = 1: history = last observation = 1000 → 3000 → 4096.
        assert_eq!(sizes[&RsuId(1)], 4096);
        assert_eq!(server.history().average(RsuId(1)), Some(1000.0));
    }

    #[test]
    fn seeded_rsus_get_sizes_without_uploads() {
        let mut server = server();
        server.seed_history(RsuId(9), 500.0);
        let sizes = server.finish_period().unwrap();
        assert_eq!(sizes[&RsuId(9)], 2048); // 1500 → 2^11
    }

    #[test]
    fn fixed_scheme_sizes_are_constant() {
        let mut server = CentralServer::new(Scheme::fixed(2, 4096, 1).unwrap(), 0.5).unwrap();
        server.receive(upload(1, 4096, &[], 10));
        server.receive(upload(2, 4096, &[], 1_000_000));
        let sizes = server.finish_period().unwrap();
        assert!(sizes.values().all(|&m| m == 4096));
    }

    #[test]
    fn zero_counter_uploads_estimate_to_zero_overlap() {
        // Empty arrays and zero counters are a legal (if dull) period:
        // the decode must produce 0, not NaN or an error.
        let mut server = server();
        server.receive(upload(1, 64, &[], 0));
        server.receive(upload(2, 64, &[], 0));
        let e = server.estimate(RsuId(1), RsuId(2)).unwrap();
        assert_eq!(e.n_c, 0.0);
        assert!(e.n_c.is_finite());
        let p = server.estimate_or_degraded(RsuId(1), RsuId(2)).unwrap();
        assert!(!p.is_degraded());
        assert_eq!(p.n_c(), 0.0);
    }

    #[test]
    fn degraded_fallback_uses_history_for_missing_side() {
        let mut server = server();
        server.seed_history(RsuId(2), 80.0);
        server.receive(upload(1, 64, &[1, 2], 50));
        // RSU 2 never uploaded: degraded answer bounded by min(50, 80).
        let p = server.estimate_or_degraded(RsuId(1), RsuId(2)).unwrap();
        assert!(p.is_degraded());
        assert!(p.measured().is_none());
        match p {
            PairEstimate::Degraded(d) => {
                assert!(!d.missing_x);
                assert!(d.missing_y);
                assert_eq!(d.upper, 50.0);
                assert_eq!(d.lower, 0.0);
                assert_eq!(d.n_c, 25.0);
            }
            PairEstimate::Measured(_) => unreachable!(),
        }
    }

    #[test]
    fn degraded_fallback_with_both_sides_missing() {
        let mut server = server();
        server.seed_history(RsuId(1), 40.0);
        server.seed_history(RsuId(2), 60.0);
        let p = server.estimate_or_degraded(RsuId(1), RsuId(2)).unwrap();
        match p {
            PairEstimate::Degraded(d) => {
                assert!(d.missing_x && d.missing_y);
                assert_eq!(d.upper, 40.0);
            }
            PairEstimate::Measured(_) => unreachable!(),
        }
    }

    /// An upload that arrived but cannot be decoded (1 bit) degrades its
    /// pairs with its own counter; it is not a missing upload, so the
    /// query answers even without history for that RSU.
    #[test]
    fn undecodable_upload_degrades_with_its_counter_instead_of_failing() {
        let scheme = Scheme::variable(2, 3.0, 9).unwrap();
        let one_bit = upload(3, 1, &[0], 7);
        // The frame is well-formed: the server cannot refuse it at ingest.
        assert_eq!(PeriodUpload::decode(&one_bit.encode()).unwrap(), one_bit);
        let mut mono = CentralServer::new(scheme.clone(), 0.5).unwrap();
        let mut sharded = crate::ShardedServer::new(scheme, 0.5, 2).unwrap();
        for up in [upload(1, 64, &[1, 5], 4), upload(2, 64, &[9], 2), one_bit] {
            mono.receive(up.clone());
            sharded.receive(up);
        }
        let want = PairEstimate::Degraded(DegradedEstimate::from_volumes(4.0, 7.0, false, false));
        assert_eq!(mono.estimate_or_degraded(RsuId(1), RsuId(3)), Ok(want));
        assert_eq!(sharded.estimate_or_degraded(RsuId(1), RsuId(3)), Ok(want));
        for matrix in [
            mono.od_matrix_threads(1).unwrap(),
            sharded.od_matrix_threads(1).unwrap(),
        ] {
            assert_eq!(matrix.get(RsuId(1), RsuId(3)), Some(&want));
            assert!(!matrix.get(RsuId(1), RsuId(2)).unwrap().is_degraded());
            assert_eq!(matrix.axes()[2].m, 0, "no decodable upload");
        }
        // A measured estimate still needs both arrays.
        assert!(matches!(
            mono.estimate(RsuId(1), RsuId(3)),
            Err(SimError::Core(CoreError::InvalidConfig {
                parameter: "m",
                ..
            }))
        ));
    }

    #[test]
    fn degraded_fallback_fails_only_with_no_knowledge_at_all() {
        let server = server();
        assert_eq!(
            server.estimate_or_degraded(RsuId(1), RsuId(2)),
            Err(SimError::MissingUpload { rsu: RsuId(1) })
        );
    }

    #[test]
    fn repeated_estimates_agree_in_both_argument_orders() {
        let mut server = server();
        server.receive(upload(1, 64, &[1, 5], 2));
        server.receive(upload(2, 256, &[1, 70], 2));
        let first = server.estimate(RsuId(1), RsuId(2)).unwrap();
        // Repeat in both argument orders: same answer.
        assert_eq!(server.estimate(RsuId(2), RsuId(1)).unwrap(), first);
        assert_eq!(server.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap(), first);
    }

    #[test]
    fn re_upload_changes_only_its_own_pairs() {
        let mut server = server();
        server.receive(upload(1, 64, &[1], 1));
        server.receive(upload(2, 64, &[2], 1));
        server.receive(upload(3, 64, &[3], 1));
        let untouched = server.estimate(RsuId(1), RsuId(2)).unwrap();
        server.estimate(RsuId(2), RsuId(3)).unwrap();
        // RSU 3 re-uploads: the (1,2) answer must stay...
        server.receive(upload(3, 64, &[3, 9], 2));
        assert_eq!(server.estimate(RsuId(1), RsuId(2)).unwrap(), untouched);
        // ...and the (2,3) pair decodes against the new content.
        let e = server.estimate(RsuId(2), RsuId(3)).unwrap();
        assert_eq!(e.n_y, 2);
    }

    #[test]
    fn sparse_cache_tracks_the_densify_threshold() {
        let mut server = server();
        // 2 ones in 256 bits (4 words): sparse.
        server.receive(upload(1, 256, &[1, 200], 2));
        assert_eq!(
            server.caches.sparse_ones.get(&RsuId(1)),
            Some(&vec![1u64, 200])
        );
        // Re-upload above the threshold: list dropped.
        server.receive(upload(
            1,
            256,
            &(0..8).map(|i| i * 30).collect::<Vec<_>>(),
            8,
        ));
        assert!(!server.caches.sparse_ones.contains_key(&RsuId(1)));
        // finish_period clears everything.
        server.receive(upload(2, 256, &[7], 1));
        server.estimate(RsuId(1), RsuId(2)).unwrap();
        server.finish_period().unwrap();
        assert!(server.caches.sparse_ones.is_empty());
    }

    #[test]
    fn od_matrix_matches_pairwise_estimates() {
        let mut server = server();
        server.seed_history(RsuId(9), 120.0); // history-only RSU
        server.receive(upload(1, 64, &[1, 5], 7));
        server.receive(upload(2, 256, &[1, 70, 200], 9));
        server.receive(upload(3, 64, &[2], 1));
        let matrix = server
            .od_matrix_threads(crate::concurrent::default_threads())
            .unwrap();
        assert_eq!(
            matrix.rsus(),
            &[RsuId(1), RsuId(2), RsuId(3), RsuId(9)],
            "uploads and history-only RSUs are both covered"
        );
        assert_eq!(matrix.len(), 4);
        assert!(!matrix.is_empty());
        for i in 0..matrix.len() {
            assert!(matrix.at(i, i).is_none(), "diagonal is undefined");
            for j in 0..matrix.len() {
                if i == j {
                    continue;
                }
                let (a, b) = (matrix.rsus()[i], matrix.rsus()[j]);
                let pairwise = server.estimate_or_degraded(a, b).unwrap();
                assert_eq!(matrix.at(i, j), Some(&pairwise), "entry ({i}, {j})");
                assert_eq!(
                    matrix.at(i, j).map(PairEstimate::transposed).as_ref(),
                    matrix.at(j, i),
                    "mirror symmetry up to role swap"
                );
                assert_eq!(matrix.get(a, b), Some(&pairwise));
            }
        }
        // The history-only column is degraded, the upload pairs measured.
        assert!(matrix.get(RsuId(1), RsuId(9)).unwrap().is_degraded());
        assert!(!matrix.get(RsuId(1), RsuId(2)).unwrap().is_degraded());
        assert_eq!(matrix.iter_pairs().count(), 6);
        assert_eq!(matrix.get(RsuId(1), RsuId(1)), None);
        assert_eq!(matrix.get(RsuId(1), RsuId(77)), None);
    }

    #[test]
    fn od_matrix_is_identical_across_thread_counts() {
        let mut server = server();
        for r in 0..12u64 {
            let ones: Vec<usize> = (0..(r as usize * 3) % 7)
                .map(|k| (k * 11 + 1) % 64)
                .collect();
            server.receive(upload(r, 64, &ones, ones.len() as u64));
        }
        let reference = server.od_matrix_threads(1).unwrap();
        for threads in [2, 4, 8] {
            assert_eq!(server.od_matrix_threads(threads).unwrap(), reference);
        }
    }

    #[test]
    fn od_matrix_of_empty_server_is_empty() {
        let server = server();
        let matrix = server
            .od_matrix_threads(crate::concurrent::default_threads())
            .unwrap();
        assert!(matrix.is_empty());
        assert_eq!(matrix.iter_pairs().count(), 0);
    }

    #[test]
    fn measured_beats_degraded_when_both_uploads_arrive() {
        let mut server = server();
        server.seed_history(RsuId(1), 9999.0);
        server.seed_history(RsuId(2), 9999.0);
        server.receive(upload(1, 64, &[1, 5], 2));
        server.receive(upload(2, 256, &[1, 70], 2));
        let p = server.estimate_or_degraded(RsuId(1), RsuId(2)).unwrap();
        assert!(!p.is_degraded());
        assert!(p.measured().is_some());
    }

    #[test]
    fn observability_never_changes_answers() {
        // Obs-on results (estimates and the full O-D matrix) must be
        // bit-identical to obs-off, across thread counts.
        let feed = |server: &mut CentralServer| {
            for r in 0..10u64 {
                let ones: Vec<usize> = (0..(r as usize * 5) % 9)
                    .map(|k| (k * 13 + 2) % 64)
                    .collect();
                server.receive(upload(r, 64, &ones, ones.len() as u64 + 1));
            }
        };
        let mut plain = server();
        feed(&mut plain);
        let mut observed = server().with_obs(vcps_obs::Obs::enabled());
        feed(&mut observed);
        assert_eq!(
            plain.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap(),
            observed.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap()
        );
        for threads in [1, 2, 4] {
            assert_eq!(
                plain.od_matrix_threads(threads).unwrap(),
                observed.od_matrix_threads(threads).unwrap(),
                "threads = {threads}"
            );
        }
        // PartialEq ignores the obs handle, like the decode caches.
        assert_eq!(plain, observed);
    }

    #[test]
    fn obs_records_receive_outcomes_and_kernel_choices() {
        let mut server = server().with_obs(vcps_obs::Obs::enabled());
        server.receive(upload(1, 64, &[1, 5], 2));
        server.receive(upload(1, 64, &[1, 5], 2)); // duplicate
        server.receive(upload(1, 64, &[1, 9], 2)); // conflicting
        server.receive(upload(2, 256, &[3], 1));
        let _ = server.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap();
        let _ = server.estimate_or_clamp(RsuId(1), RsuId(2)).unwrap();
        let snap = server.obs().snapshot();
        assert_eq!(snap.counters["server.receive.fresh"], 2);
        assert_eq!(snap.counters["server.receive.duplicate"], 1);
        assert_eq!(snap.counters["server.receive.conflicting"], 1);
        // One decode per query: exactly one kernel counter bump and one
        // decode phase sample each.
        assert_eq!(
            snap.counters_with_prefix("kernel.").values().sum::<u64>(),
            2
        );
        assert_eq!(snap.histograms["phase.decode.ns"].count, 2);
        assert_eq!(snap.counters["phase.decode.calls"], 2);
    }
}
