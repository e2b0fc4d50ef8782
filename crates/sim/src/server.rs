use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};

use serde::{Deserialize, Serialize};

use vcps_bitarray::{
    combined_zero_count_adaptive, select_pair_kernel, select_pair_kernel_with_cost,
    sparse_is_profitable, DecodeScratch, PairKernel,
};
use vcps_core::estimator::{
    estimate_from_counts, estimate_from_counts_or_clamp, estimate_from_terms, first_plays_x,
    try_denominator, Estimate, PairCounts, ZeroTerm,
};
use vcps_core::{CoreError, DegradedEstimate, PairEstimate, RsuId, Scheme, VolumeHistory};
use vcps_obs::{Level, Obs, Phase, Value};

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
/// buffer the monolithic estimate and O–D paths use, shared with the
/// sharded server so both paths reuse identical kernel state.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut DecodeScratch) -> R) -> R {
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

/// Records which decode kernel [`select_pair_kernel`] picks for a
/// pair and why: a per-kernel counter always, and at `Debug` level a
/// `kernel_select` event carrying the cost-model inputs (the array
/// sizes and set-bit counts the selector weighed). Mirrors the exact
/// selection [`combined_zero_count_adaptive`] makes internally — same
/// function, same inputs — without touching the decode itself. Takes
/// the handle explicitly so the monolithic and sharded decode paths
/// attribute to their respective registries through one code path.
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
    if obs.enabled_at(Level::Debug) {
        obs.event(
            Level::Debug,
            "kernel_select",
            &[
                ("kernel", Value::Str(kernel.label().to_string())),
                ("m_x", Value::U64(m_x as u64)),
                ("m_y", Value::U64(m_y as u64)),
                (
                    "sparse_ones_x",
                    ones_x.map_or(Value::Str("dense".to_string()), |o| {
                        Value::U64(o.len() as u64)
                    }),
                ),
                (
                    "sparse_ones_y",
                    ones_y.map_or(Value::Str("dense".to_string()), |o| {
                        Value::U64(o.len() as u64)
                    }),
                ),
            ],
        );
    }
}

/// One RSU's decode-relevant state, resolved once per all-pairs call.
///
/// The naive pair loop resolves `uploads` and `sparse_ones` map entries
/// per *pair* — `O(N²)` tree walks for `N` RSUs, which dominates decode
/// time on sparse workloads. Prefetching the `N` lookups once and
/// handing the pair loop plain references removes that entirely. The
/// `holder` back-pointer keeps the degraded path's history lookups and
/// scheme access working across shards (each RSU's state lives in
/// exactly one holder).
pub(crate) struct RsuDecodeRef<'a> {
    pub(crate) rsu: RsuId,
    pub(crate) holder: &'a CentralServer,
    pub(crate) upload: Option<&'a PeriodUpload>,
    pub(crate) ones: Option<&'a [u64]>,
}

/// The decodability gate behind [`CentralServer::decodable_upload`],
/// usable with a prefetched upload reference: present, and at least 2
/// bits (the estimator needs a meaningful zero fraction).
fn check_decodable(upload: Option<&PeriodUpload>, rsu: RsuId) -> Result<&PeriodUpload, SimError> {
    let upload = upload.ok_or(SimError::MissingUpload { rsu })?;
    if upload.bits.len() < 2 {
        return Err(SimError::Core(CoreError::InvalidConfig {
            parameter: "m",
            reason: format!(
                "bit array size must be at least 2, got {}",
                upload.bits.len()
            ),
        }));
    }
    Ok(upload)
}

/// Decodes one pair's sufficient statistics from already-resolved upload
/// references and sparse lists: orient, pick the cheapest kernel, count.
/// Returns whether `a` plays `B_x` alongside the counts. Both
/// [`CentralServer::pair_counts_across`] (which resolves the maps per
/// call) and the prefetched all-pairs driver funnel through this one
/// function, so the two paths are bit-identical by construction.
fn pair_counts_oriented(
    ua: &PeriodUpload,
    ones_a: Option<&[u64]>,
    ub: &PeriodUpload,
    ones_b: Option<&[u64]>,
    scratch: &mut DecodeScratch,
    obs: &Obs,
) -> Result<(bool, PairCounts), SimError> {
    let _timer = obs.phase(Phase::Decode);
    let a_first = first_plays_x(
        ua.bits.len(),
        ua.counter,
        ua.rsu,
        ub.bits.len(),
        ub.counter,
        ub.rsu,
    );
    let ((x, ones_x), (y, ones_y)) = if a_first {
        ((ua, ones_a), (ub, ones_b))
    } else {
        ((ub, ones_b), (ua, ones_a))
    };
    if obs.is_enabled() {
        note_kernel_choice(obs, x.bits.len(), ones_x, y.bits.len(), ones_y);
    }
    let u_c = combined_zero_count_adaptive(&x.bits, ones_x, &y.bits, ones_y, scratch)
        .map_err(CoreError::from)?;
    Ok((
        a_first,
        PairCounts {
            m_x: x.bits.len(),
            m_y: y.bits.len(),
            u_x: x.bits.count_zeros(),
            u_y: y.bits.count_zeros(),
            u_c,
            n_x: x.counter,
            n_y: y.counter,
        },
    ))
}

/// The degradation ladder behind every pair answer, single-pair and
/// all-pairs alike: `measure` decodes the pair when both uploads are
/// decodable ([`PairEstimate::Measured`]); otherwise a history-backed
/// fallback ([`PairEstimate::Degraded`]) brackets the overlap with the
/// feasible interval `[0, min(n̄_x, n̄_y)]`. Each side's history comes
/// from its own holder.
fn degradation_ladder(
    a: &RsuDecodeRef<'_>,
    b: &RsuDecodeRef<'_>,
    measure: impl FnOnce(&PeriodUpload, &PeriodUpload) -> Result<Estimate, SimError>,
) -> Result<PairEstimate, SimError> {
    match (
        check_decodable(a.upload, a.rsu),
        check_decodable(b.upload, b.rsu),
    ) {
        (Ok(x), Ok(y)) => match measure(x, y) {
            Ok(e) => Ok(PairEstimate::Measured(e)),
            // Uploads present but not comparable (e.g. a corrupted
            // size that slipped through): counters still bound the
            // overlap, so degrade rather than fail.
            Err(_) => Ok(PairEstimate::Degraded(DegradedEstimate::from_volumes(
                x.counter as f64,
                y.counter as f64,
                false,
                false,
            ))),
        },
        (ra, rb) => {
            let missing_a = ra.is_err();
            let missing_b = rb.is_err();
            let volume_of = |d: &RsuDecodeRef<'_>, r: Result<&PeriodUpload, SimError>| match r {
                Ok(u) => Ok(u.counter as f64),
                Err(_) => d
                    .holder
                    .history
                    .average(d.rsu)
                    .ok_or(SimError::MissingUpload { rsu: d.rsu }),
            };
            let va = volume_of(a, ra)?;
            let vb = volume_of(b, rb)?;
            Ok(PairEstimate::Degraded(DegradedEstimate::from_volumes(
                va, vb, missing_a, missing_b,
            )))
        }
    }
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

/// One decodable RSU's half of Eq. 5, computed once per all-pairs call:
/// its zero term, and the denominator its size contributes when it
/// plays `B_y`.
#[derive(Clone, Copy)]
struct RsuTerms {
    zero: ZeroTerm,
    denominator: f64,
}

impl RsuTerms {
    /// `None` for an RSU without a decodable upload (its pairs never
    /// reach Eq. 5) or a scheme outside the estimator's domain (its
    /// pairs take the full per-pair path, which reports the error).
    fn of(d: &RsuDecodeRef<'_>, s: usize) -> Option<Self> {
        let bits = &check_decodable(d.upload, d.rsu).ok()?.bits;
        Some(Self {
            zero: ZeroTerm::new(bits.count_zeros(), bits.len(), true)?,
            denominator: try_denominator(bits.len(), s).ok()?,
        })
    }
}

/// The one all-pairs driver behind `od_chunks_threads` and
/// `od_matrix_threads` of both [`CentralServer`] and
/// [`crate::ShardedServer`], over a prefetched [`RsuDecodeRef`] table in
/// ascending RSU order.
///
/// Executors claim chunks of the upper triangle by pair index
/// ([`map_chunks`]); each walks its chunk in pair order through the
/// degradation ladder — the per-pair decode reads each RSU's
/// [`RsuTerms`], computed once here, and reuses one decode scratch per
/// worker — and hands the chunk's estimates to `sink` on the same
/// worker. Returns the sinks' results in pair order, or the first error
/// in pair order. `shards`, on the sharded server, names each RSU's
/// owning shard, so the pairs are tallied as shard-local or cross-shard
/// once per chunk.
///
/// [`map_chunks`]: crate::concurrent::map_chunks
pub(crate) fn od_chunks<U, F>(
    pre: &[RsuDecodeRef<'_>],
    shards: Option<&[usize]>,
    s: usize,
    obs: &Obs,
    threads: usize,
    sink: F,
) -> Result<Vec<U>, SimError>
where
    U: Send,
    F: Fn(&[PairEstimate]) -> U + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let n = pre.len();
    let pair_count = n * n.saturating_sub(1) / 2;
    obs.add("od_matrix.pairs", pair_count as u64);
    let terms: Vec<Option<RsuTerms>> = pre.iter().map(|d| RsuTerms::of(d, s)).collect();
    let threads = od_effective_threads(threads, pre, pair_count);
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
                let (a, b) = (&pre[i], &pre[j]);
                estimates.push(degradation_ladder(a, b, |ua, ub| {
                    if let Some(shards) = shards {
                        if shards[i] == shards[j] {
                            local += 1;
                        } else {
                            cross += 1;
                        }
                    }
                    let (a_first, counts) =
                        pair_counts_oriented(ua, a.ones, ub, b.ones, scratch, obs)?;
                    let (x, y) = if a_first {
                        (terms[i], terms[j])
                    } else {
                        (terms[j], terms[i])
                    };
                    Ok(match (x, y) {
                        (Some(x), Some(y)) => {
                            estimate_from_terms(&counts, x.zero, y.zero, y.denominator, true)?
                        }
                        _ => estimate_from_counts_or_clamp(&counts, s)?,
                    })
                })?);
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
const OD_PAIR_OVERHEAD: usize = 600;

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
    pre: &[RsuDecodeRef<'_>],
    pair_count: usize,
) -> usize {
    if threads <= 1 {
        return threads;
    }
    if pair_count >= OD_ESTIMATE_PAIR_LIMIT {
        return threads;
    }
    // Hoist each RSU's (array length, index-list length) out of its
    // upload once: the sampled pair loop below must stay pure
    // arithmetic over this dense vector — chasing the upload references
    // per pair costs more than the decode it is trying to avoid
    // estimating.
    let sides: Vec<Option<(usize, Option<usize>)>> = pre
        .iter()
        .map(|d| d.upload.map(|u| (u.bits.len(), d.ones.map(<[u64]>::len))))
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

/// One period's origin–destination matrix: the [`PairEstimate`] for
/// every unordered pair of RSUs the server knows about (uploads and
/// volume history), produced by [`CentralServer::od_matrix`].
///
/// Stored row-major over the sorted RSU list; the diagonal is `None`
/// (an RSU's "overlap with itself" is just its counter, not an O–D
/// flow) and each pair is decoded once — the mirror entry is the same
/// estimate with the argument roles swapped
/// ([`PairEstimate::transposed`]), so `at(i, j)` always equals
/// `estimate_or_degraded(rsus[i], rsus[j])` exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OdMatrix {
    rsus: Vec<RsuId>,
    entries: Vec<Option<PairEstimate>>,
}

impl OdMatrix {
    /// Assembles a matrix from the upper triangle in row-major pair
    /// order, split into chunks as the all-pairs driver streams it: each
    /// `(i, j)` estimate fills its entry and its transposed mirror.
    pub(crate) fn from_chunks(rsus: Vec<RsuId>, chunks: &[Vec<PairEstimate>]) -> Self {
        let n = rsus.len();
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
        Self { rsus, entries }
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

    /// Fetches the upload for one side of a pair decode, enforcing the
    /// same validity the sketch-based path did (an array of fewer than
    /// 2 bits cannot be decoded).
    pub(crate) fn decodable_upload(&self, rsu: RsuId) -> Result<&PeriodUpload, SimError> {
        check_decodable(self.uploads.get(&rsu), rsu)
    }

    /// Snapshots everything a pair decode needs about one RSU — upload
    /// reference, cached sparse index list, owning holder — so the
    /// all-pairs loop resolves each RSU's maps *once* instead of paying
    /// ~6 `BTreeMap` lookups per pair (the dominant per-pair cost on
    /// sparse workloads).
    pub(crate) fn prefetch_decode_ref(&self, rsu: RsuId) -> RsuDecodeRef<'_> {
        RsuDecodeRef {
            rsu,
            holder: self,
            upload: self.uploads.get(&rsu),
            ones: self.caches.sparse_ones.get(&rsu).map(Vec::as_slice),
        }
    }

    /// Decodes one pair's sufficient statistics straight from the held
    /// uploads: orient, read the cached zero counts, and compute `U_c`
    /// through the cheapest kernel ([`combined_zero_count_adaptive`])
    /// using whatever sparse index lists the receive path extracted.
    fn pair_counts(&self, a: RsuId, b: RsuId) -> Result<PairCounts, SimError> {
        with_thread_scratch(|s| self.pair_counts_across(self, a, b, s, &self.obs.0))
    }

    /// The cross-holder form of [`pair_counts`](Self::pair_counts):
    /// `a`'s upload
    /// and sparse index list come from `self`, `b`'s from `other`. With
    /// `other == self` this *is* the monolithic decode; the sharded
    /// server ([`crate::ShardedServer`]) passes the two shards that own
    /// the pair, borrowing both shards' caches without copying either.
    /// Instrumentation goes to the explicit `obs` handle (the sharded
    /// server's shards carry disabled handles; the composite owns the
    /// real one), so the counters fired per decode are identical on both
    /// paths.
    pub(crate) fn pair_counts_across(
        &self,
        other: &CentralServer,
        a: RsuId,
        b: RsuId,
        scratch: &mut DecodeScratch,
        obs: &Obs,
    ) -> Result<PairCounts, SimError> {
        let ua = self.decodable_upload(a)?;
        let ub = other.decodable_upload(b)?;
        let ones_a = self.caches.sparse_ones.get(&a).map(Vec::as_slice);
        let ones_b = other.caches.sparse_ones.get(&b).map(Vec::as_slice);
        Ok(pair_counts_oriented(ua, ones_a, ub, ones_b, scratch, obs)?.1)
    }

    /// Estimates the point-to-point volume between two uploaded RSUs
    /// (paper Eq. 5), decoding the pair afresh on every call.
    ///
    /// # Errors
    ///
    /// * [`SimError::MissingUpload`] if either RSU has not uploaded;
    /// * [`SimError::Core`] for saturation or incompatible sizes.
    pub fn estimate(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        Ok(estimate_from_counts(
            &self.pair_counts(a, b)?,
            self.scheme.s(),
        )?)
    }

    /// Like [`estimate`](CentralServer::estimate) but clamps saturated
    /// zero counts instead of failing.
    ///
    /// # Errors
    ///
    /// * [`SimError::MissingUpload`] if either RSU has not uploaded;
    /// * [`SimError::Core`] for incompatible sizes.
    pub fn estimate_or_clamp(&self, a: RsuId, b: RsuId) -> Result<Estimate, SimError> {
        Ok(estimate_from_counts_or_clamp(
            &self.pair_counts(a, b)?,
            self.scheme.s(),
        )?)
    }

    /// Answers a pair query even when uploads are missing: full decode
    /// when both sketches are present ([`PairEstimate::Measured`]),
    /// otherwise a history-backed fallback ([`PairEstimate::Degraded`])
    /// that brackets the overlap with the feasible interval
    /// `[0, min(n̄_x, n̄_y)]`.
    ///
    /// A present side contributes its measured counter; a missing side
    /// contributes its EWMA volume history.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::MissingUpload`] only when a side has *neither*
    /// an upload nor any volume history — the server knows nothing at all
    /// about that RSU.
    pub fn estimate_or_degraded(&self, a: RsuId, b: RsuId) -> Result<PairEstimate, SimError> {
        self.estimate_or_degraded_across(self, a, b, || self.pair_counts(a, b))
    }

    /// The single-pair degradation ladder behind
    /// [`estimate_or_degraded`](Self::estimate_or_degraded), the same
    /// ladder the all-pairs driver runs, parameterized over how the
    /// pair's counts are produced (this server's decode or the sharded
    /// composite's) and over where `b`'s state lives: `self` holds side
    /// `a`, `other` holds side `b` (`other == self` on the monolithic
    /// path; the two owning shards on the sharded one, which keeps each
    /// RSU's upload and history in exactly one place).
    pub(crate) fn estimate_or_degraded_across(
        &self,
        other: &CentralServer,
        a: RsuId,
        b: RsuId,
        counts: impl FnOnce() -> Result<PairCounts, SimError>,
    ) -> Result<PairEstimate, SimError> {
        degradation_ladder(
            &self.prefetch_decode_ref(a),
            &other.prefetch_decode_ref(b),
            |_, _| Ok(estimate_from_counts_or_clamp(&counts()?, self.scheme.s())?),
        )
    }

    /// Computes the full origin–destination matrix for every RSU the
    /// server knows about — current uploads and volume history alike —
    /// with one worker per available core (see
    /// [`od_matrix_threads`](Self::od_matrix_threads)).
    ///
    /// # Errors
    ///
    /// As [`od_matrix_threads`](Self::od_matrix_threads).
    pub fn od_matrix(&self) -> Result<OdMatrix, SimError> {
        self.od_matrix_threads(crate::concurrent::default_threads())
    }

    /// [`od_matrix`](Self::od_matrix) with an explicit worker count:
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
        let (rsus, chunks) = self.od_chunks_threads(threads, <[PairEstimate]>::to_vec)?;
        Ok(OdMatrix::from_chunks(rsus, &chunks))
    }

    /// Streams the origin–destination triangle for every RSU the server
    /// knows about — current uploads and volume history alike — through
    /// `sink`, with at most `threads` workers.
    ///
    /// Returns the RSUs in ascending id order (the matrix axes) and the
    /// sink's result for each chunk, in pair order: the chunks'
    /// estimates, concatenated, are every pair `(i, j)`, `i < j`, in
    /// row-major order, each exactly what
    /// [`estimate_or_degraded`](Self::estimate_or_degraded) returns for
    /// `(rsus[i], rsus[j])` — measured where both uploads are decodable,
    /// degraded where history must fill in.
    ///
    /// Persistent-pool workers claim chunks of the triangle by pair
    /// index (consecutive pairs share their `i`-side upload) and run
    /// `sink` on the chunk they decoded, so no whole-matrix intermediate
    /// exists unless the sink builds one. Each RSU's upload reference,
    /// sparse index list and Eq. 5 terms are resolved *once* before the
    /// fan-out, so the per-pair work is kernel time plus the combined
    /// array's term; each worker reuses one decode scratch. When the
    /// estimated triangle work is too small to repay a pool dispatch,
    /// the chunks run inline on the caller — small matrices can never
    /// lose to the 1-thread path.
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
    ) -> Result<(Vec<RsuId>, Vec<U>), SimError>
    where
        U: Send,
        F: Fn(&[PairEstimate]) -> U + Sync,
    {
        let _timer = self.obs.0.phase(Phase::OdMatrix);
        let rsus: Vec<RsuId> = self
            .uploads
            .keys()
            .copied()
            .chain(self.history.iter().map(|(rsu, _)| rsu))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let pre: Vec<RsuDecodeRef<'_>> = rsus
            .iter()
            .map(|&rsu| self.prefetch_decode_ref(rsu))
            .collect();
        let chunks = od_chunks(&pre, None, self.scheme.s(), &self.obs.0, threads, sink)?;
        Ok((rsus, chunks))
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
        let matrix = server.od_matrix().unwrap();
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
        let matrix = server.od_matrix().unwrap();
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
        let mut observed = server().with_obs(vcps_obs::Obs::enabled(vcps_obs::Level::Trace));
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
        let mut server = server().with_obs(vcps_obs::Obs::enabled(vcps_obs::Level::Info));
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
