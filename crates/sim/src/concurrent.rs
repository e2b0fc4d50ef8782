//! Lock-free concurrent report ingestion.
//!
//! A real RSU services many vehicles concurrently (DSRC broadcasts reach
//! everyone in range). Ingesting a [`BitReport`] touches exactly two
//! words of state — one bit in the array and the passage counter — and
//! both updates are commutative, so no lock is needed at all:
//! [`SharedRsu`] stores its bits in an [`AtomicBitArray`] (one
//! `fetch_or` per report) and its counter in an `AtomicU64` (one
//! `fetch_add`). Because bit-setting is commutative and idempotent and
//! addition is commutative, concurrent ingestion is order-insensitive:
//! the resulting sketch is bit-identical to a sequential run over any
//! permutation of the same reports (tested below).
//!
//! [`MutexRsu`] keeps the old lock-per-report design as a measurable
//! baseline; the workspace benches compare the two across thread counts.
//!
//! # Work distribution
//!
//! All the parallel drivers here — [`ingest_parallel`],
//! [`try_ingest_parallel`], [`parallel_map_threads`] and the O–D pair
//! driver through one chunk runner, [`for_each_slot_mut_threads`] over
//! slot groups — fan out over the process-wide persistent
//! worker pool ([`vcps_pool`]) instead of spawning scoped threads per
//! call. Workers are created once and parked between calls, so
//! steady-state dispatch costs a mutex handshake rather than a thread
//! spawn+join — the difference between an 8-RSU O–D triangle scaling and
//! anti-scaling. Work is distributed by *chunked range claiming*: workers
//! repeatedly grab the next index range off a shared atomic cursor, so
//! uneven per-item costs don't leave threads idle the way static
//! pre-partitioning does, and results are stitched back into input order.
//! Every driver keeps a pool-free inline path when one executor suffices.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use vcps_bitarray::AtomicBitArray;
use vcps_core::{CoreError, RsuId, RsuSketch};

use crate::pki::Certificate;
use crate::protocol::{BitReport, PeriodUpload, Query};
use crate::{SimError, SimRsu};

/// Number of worker threads to use by default: one per available core,
/// falling back to 1 when parallelism cannot be queried.
///
/// The answer is queried once and cached: `available_parallelism` is a
/// `sched_getaffinity` syscall on Linux, and issuing it on every
/// dispatch decision puts a kernel round-trip (plus its speculation-
/// mitigation fallout) directly in front of the decode being sized —
/// measured ~12 µs of slowdown on a 24-RSU triangle, dwarfing the
/// dispatch logic itself.
#[must_use]
pub fn default_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    match CACHED.load(Ordering::Relaxed) {
        0 => {
            let n = std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1);
            CACHED.store(n, Ordering::Relaxed);
            n
        }
        n => n,
    }
}

/// Executors actually dispatched for a `threads` request: the request
/// is a *budget cap*, further bounded by the machine's available
/// parallelism. Running more compute-bound executors than cores only
/// adds context-switch and rendezvous overhead (measured ~15% on a
/// 256-RSU all-pairs decode requested at 4 threads on a 1-core host),
/// and results are identical at any executor count by construction, so
/// capping is always safe.
///
/// Chunk sizes derive from this count, never from the raw request: a
/// request is caller input (the daemon takes it off the wire), and
/// `threads * k` overflows for requests near `usize::MAX`.
pub(crate) fn capped_executors(threads: usize) -> usize {
    threads.min(default_threads()).max(1)
}

/// A lock-free, thread-shareable RSU.
///
/// Functionally equivalent to [`SimRsu`] for the ingestion path:
/// `receive` validates the index, sets the bit, and counts the passage,
/// exactly like [`SimRsu::receive`], but callable from any number of
/// threads through `&self`. After all ingesting threads are joined,
/// [`upload`](SharedRsu::upload) produces output bit-identical to a
/// sequential [`SimRsu`] fed the same reports in any order.
///
/// # Example
///
/// ```
/// use vcps_core::RsuId;
/// use vcps_sim::concurrent::SharedRsu;
/// use vcps_sim::pki::TrustedAuthority;
/// use vcps_sim::{BitReport, MacAddress};
///
/// # fn main() -> Result<(), vcps_sim::SimError> {
/// let ca = TrustedAuthority::new(1);
/// let rsu = SharedRsu::new(RsuId(5), 1 << 10, &ca)?;
/// let report = BitReport { mac: MacAddress([2, 0, 0, 0, 0, 1]), index: 7 };
/// rsu.receive(&report)?;
/// assert_eq!(rsu.upload().counter, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SharedRsu {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    id: RsuId,
    certificate: Certificate,
    bits: AtomicBitArray,
    counter: AtomicU64,
}

impl SharedRsu {
    /// Creates a shared RSU (see [`SimRsu::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if `m < 2`.
    pub fn new(
        id: RsuId,
        m: usize,
        authority: &crate::pki::TrustedAuthority,
    ) -> Result<Self, SimError> {
        Ok(Self::from_rsu(SimRsu::new(id, m, authority)?))
    }

    /// Moves an existing RSU's period state into lock-free storage.
    #[must_use]
    pub fn from_rsu(rsu: SimRsu) -> Self {
        let query = rsu.query();
        let sketch = rsu.sketch();
        Self {
            inner: Arc::new(Inner {
                id: sketch.id(),
                certificate: query.certificate,
                bits: AtomicBitArray::from(sketch.bits()),
                counter: AtomicU64::new(sketch.count()),
            }),
        }
    }

    /// Converts back into a sequential [`SimRsu`] carrying the ingested
    /// period state. Call after joining all ingesting threads.
    ///
    /// # Panics
    ///
    /// Panics if other clones of this `SharedRsu` are still alive (the
    /// period state must have a single owner to be frozen).
    #[must_use]
    pub fn into_rsu(self) -> SimRsu {
        let inner = Arc::into_inner(self.inner)
            .expect("SharedRsu::into_rsu called while other clones are alive");
        let sketch = RsuSketch::from_parts(
            inner.id,
            inner.bits.into_bit_array(),
            inner.counter.load(Ordering::Relaxed),
        )
        .expect("shared state came from a valid sketch");
        SimRsu::from_parts(sketch, inner.certificate)
    }

    /// The current broadcast query.
    #[must_use]
    pub fn query(&self) -> Query {
        Query {
            rsu: self.inner.id,
            certificate: self.inner.certificate,
            array_size: self.inner.bits.len() as u64,
        }
    }

    /// Ingests one report — lock-free, callable from any thread.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] for out-of-range indices (malformed
    /// reports are dropped without counting, like [`SimRsu::receive`]).
    pub fn receive(&self, report: &BitReport) -> Result<(), SimError> {
        self.inner
            .bits
            .try_set(report.index as usize)
            .map_err(CoreError::from)?;
        self.inner.counter.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Snapshot upload for the server.
    ///
    /// Exact once ingesting threads have been joined; while writers are
    /// active the counter and bits may lag each other.
    #[must_use]
    pub fn upload(&self) -> PeriodUpload {
        PeriodUpload {
            rsu: self.inner.id,
            counter: self.inner.counter.load(Ordering::Relaxed),
            bits: self.inner.bits.snapshot(),
        }
    }

    /// A consistent-enough state snapshot for crash tolerance
    /// ([`crate::faults::RsuCheckpoint`]): the bits and counter are each
    /// atomic snapshots, taken while ingestion may be ongoing — after a
    /// restore, reports that raced the snapshot count as lost to the
    /// crash, which is exactly the crash model's semantics.
    #[must_use]
    pub fn checkpoint(&self) -> crate::faults::RsuCheckpoint {
        let sketch = RsuSketch::from_parts(
            self.inner.id,
            self.inner.bits.snapshot(),
            self.inner.counter.load(Ordering::Relaxed),
        )
        .expect("shared state came from a valid sketch");
        crate::faults::RsuCheckpoint::capture(&SimRsu::from_parts(sketch, self.inner.certificate))
    }
}

/// The previous generation of [`SharedRsu`]: a [`SimRsu`] behind a
/// mutex, taking the lock once per report.
///
/// Kept as the baseline for the lock-free design — the
/// `ingest/mutex_vs_atomic` bench and `BENCH_ingest.json` measure both —
/// and as the fallback shape for state that ever grows beyond
/// commutative updates.
#[derive(Debug, Clone)]
pub struct MutexRsu {
    inner: Arc<Mutex<SimRsu>>,
}

impl MutexRsu {
    /// Creates a mutex-guarded RSU (see [`SimRsu::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] if `m < 2`.
    pub fn new(
        id: RsuId,
        m: usize,
        authority: &crate::pki::TrustedAuthority,
    ) -> Result<Self, SimError> {
        Ok(Self::from_rsu(SimRsu::new(id, m, authority)?))
    }

    /// Wraps an existing RSU.
    #[must_use]
    pub fn from_rsu(rsu: SimRsu) -> Self {
        Self {
            inner: Arc::new(Mutex::new(rsu)),
        }
    }

    /// Ingests one report under the lock.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Core`] for out-of-range indices.
    pub fn receive(&self, report: &BitReport) -> Result<(), SimError> {
        self.inner
            .lock()
            .expect("RSU lock poisoned")
            .receive(report)
    }

    /// Snapshot upload for the server.
    #[must_use]
    pub fn upload(&self) -> PeriodUpload {
        self.inner.lock().expect("RSU lock poisoned").upload()
    }
}

/// Ingests `reports` into `rsu` across up to `threads` pool executors
/// (the caller plus parked pool workers), with dynamic chunk-stealing so
/// fast workers pick up slack from slow ones.
///
/// Returns the number of rejected (out-of-range) reports; accepted ones
/// are all recorded exactly once.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker thread panics.
#[must_use]
pub fn ingest_parallel(rsu: &SharedRsu, reports: &[BitReport], threads: usize) -> usize {
    ingest_chunks(rsu, reports, threads).0
}

/// [`ingest_parallel`] wrapped in observability: the whole batch runs
/// under a [`vcps_obs::Phase::Receive`] timer and the accepted/rejected
/// totals land in the `ingest.reports` / `ingest.rejected` counters.
///
/// Recording happens once per *batch*, outside the worker loop, so the
/// wrapper adds O(1) work regardless of batch size and the counters are
/// deterministic for any thread count.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker thread panics.
#[must_use]
pub fn ingest_parallel_obs(
    rsu: &SharedRsu,
    reports: &[BitReport],
    threads: usize,
    obs: &vcps_obs::Obs,
) -> usize {
    let _receive = obs.phase(vcps_obs::Phase::Receive);
    let rejected = ingest_parallel(rsu, reports, threads);
    obs.add("ingest.reports", reports.len() as u64);
    obs.add("ingest.rejected", rejected as u64);
    rejected
}

/// Like [`ingest_parallel`] but returns an error instead of a reject
/// count — the drop-in parallel replacement for a sequential
/// `for r in reports { rsu.receive(r)?; }` loop, except that every
/// in-range report is still recorded.
///
/// # Errors
///
/// Returns the error of the earliest (in input order) report that
/// [`SharedRsu::receive`] rejects, at any thread count. In the protocol
/// paths reports are always in range, so this is belt-and-braces.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker thread panics.
pub fn try_ingest_parallel(
    rsu: &SharedRsu,
    reports: &[BitReport],
    threads: usize,
) -> Result<(), SimError> {
    ingest_chunks(rsu, reports, threads).1.map_or(Ok(()), Err)
}

/// The one chunk body behind both ingest drivers, run over
/// [`map_chunks`]: every in-range report is recorded, and each chunk
/// returns its reject count and its first rejected report's error.
/// Chunks come back in input order, so the first error among them is
/// the earliest rejected report's.
fn ingest_chunks(
    rsu: &SharedRsu,
    reports: &[BitReport],
    threads: usize,
) -> (usize, Option<SimError>) {
    assert!(threads > 0, "need at least one thread");
    // Small enough to balance load, large enough to amortize the shared
    // cursor: aim for several chunks per executor.
    let chunk = reports
        .len()
        .div_ceil(capped_executors(threads) * 8)
        .max(64);
    map_chunks(reports.len(), chunk, threads, |range| {
        let mut rejected = 0usize;
        let mut first_error = None;
        for report in &reports[range] {
            if let Err(e) = rsu.receive(report) {
                rejected += 1;
                first_error.get_or_insert(e);
            }
        }
        (rejected, first_error)
    })
    .into_iter()
    .fold((0, None), |(rejected, first), (r, e)| {
        (rejected + r, first.or(e))
    })
}

/// Fans `inputs` out over disjoint mutable `slots` with at most
/// `threads` workers (the effective count is `threads.min(slots.len())`)
/// and returns the per-slot results in slot order.
///
/// This is the write-side analogue of [`parallel_map_threads`] for state
/// that is *partitioned* rather than shared: each worker gets exclusive
/// `&mut` access to a contiguous group of slots (e.g. server shards)
/// plus the inputs routed to them, so no locking is needed and the
/// per-slot work is exactly the sequential code. More slots than workers
/// share workers over slot groups instead of oversubscribing, and with a
/// single group no thread is spawned at all, mirroring the spawn-free
/// `threads == 1` path of the map.
///
/// # Panics
///
/// Panics if `threads == 0`, `slots` and `inputs` differ in length, or a
/// worker panics.
pub fn for_each_slot_mut_threads<T, I, R, F>(
    slots: &mut [T],
    inputs: Vec<I>,
    threads: usize,
    f: F,
) -> Vec<R>
where
    T: Send,
    I: Send,
    R: Send,
    F: Fn(&mut T, I) -> R + Sync,
{
    assert!(threads > 0, "need at least one thread");
    assert_eq!(
        slots.len(),
        inputs.len(),
        "one input bundle per slot required"
    );
    let workers = threads.min(slots.len());
    if workers <= 1 {
        return slots
            .iter_mut()
            .zip(inputs)
            .map(|(slot, input)| f(slot, input))
            .collect();
    }
    let chunk = slots.len().div_ceil(workers);
    let mut input_groups: Vec<Vec<I>> = Vec::with_capacity(workers);
    let mut inputs = inputs;
    while !inputs.is_empty() {
        let rest = inputs.split_off(chunk.min(inputs.len()));
        input_groups.push(std::mem::replace(&mut inputs, rest));
    }
    // Slot groups are claimed off an atomic cursor by pool executors; the
    // cursor hands each group index out exactly once, and the mutexes give
    // safe-code interior mutability to move the exclusive `&mut` slot
    // group out to whichever executor claimed it.
    type SlotGroup<'s, T, I> = Mutex<Option<(&'s mut [T], Vec<I>)>>;
    let groups: Vec<SlotGroup<'_, T, I>> = slots
        .chunks_mut(chunk)
        .zip(input_groups)
        .map(|pair| Mutex::new(Some(pair)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(groups.len()));
    let f = &f;
    let executors = capped_executors(workers).min(groups.len());
    vcps_pool::run(executors - 1, &|_| {
        let mut mine: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let g = cursor.fetch_add(1, Ordering::Relaxed);
            if g >= groups.len() {
                break;
            }
            let (slot_group, input_group) = groups[g]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("cursor hands each group out exactly once");
            let rs: Vec<R> = slot_group
                .iter_mut()
                .zip(input_group)
                .map(|(slot, input)| f(slot, input))
                .collect();
            mine.push((g, rs));
        }
        if !mine.is_empty() {
            results
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(&mut mine);
        }
    });
    let mut pieces = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    pieces.sort_unstable_by_key(|(g, _)| *g);
    let mut out = Vec::with_capacity(slots.len());
    for (_, mut piece) in pieces {
        out.append(&mut piece);
    }
    out
}

/// Order-preserving parallel map with an explicit worker count — a thin
/// wrapper over `map_chunks`, the workspace's one parallel runner (the
/// experiment harness re-exports it, the engine and
/// [`crate::PairRunner`] drive their per-vehicle work through it).
///
/// Items are split into several chunks per worker, so uneven per-item
/// costs (e.g. Monte-Carlo trials whose array sizes differ by orders of
/// magnitude) don't leave threads idle the way static pre-partitioning
/// does. Results are returned in input order regardless of which worker
/// computed them.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker thread panics.
pub fn parallel_map_threads<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send + Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let n = items.len();
    // Several chunks per executor so stragglers can be stolen around,
    // but chunks stay large enough to amortize the shared cursor. One
    // executor takes the whole input as one chunk, so its result is
    // returned without a copy.
    let chunk = match capped_executors(threads) {
        1 => n,
        executors => n.div_ceil(executors * 4),
    };
    let mut pieces = map_chunks(n, chunk, threads, |range| {
        items[range].iter().map(&f).collect::<Vec<U>>()
    });
    if pieces.len() == 1 {
        return pieces.pop().expect("one piece");
    }
    let mut results = Vec::with_capacity(n);
    for mut piece in pieces {
        results.append(&mut piece);
    }
    results
}

/// The workspace's one parallel runner: splits `0..n` into consecutive
/// index ranges of `chunk` (the last may be shorter) and returns `f` of
/// every range, in range order.
///
/// Work-stealing over chunks: pool executors repeatedly claim the next
/// range off a shared atomic cursor, so no worker idles while another
/// still has a backlog. One executor needs no pool dispatch, no cursor
/// and — crucially for short jobs like a small O–D triangle — no
/// cross-thread handshake: the ranges then run inline on the caller, in
/// order, and every way of landing on one executor (`threads == 1`, a
/// single range, capped by the machine) takes that same path.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker thread panics.
pub(crate) fn map_chunks<U, F>(n: usize, chunk: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> U + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let chunk = chunk.max(1);
    let chunks = n.div_ceil(chunk);
    let range = |k: usize| k * chunk..((k + 1) * chunk).min(n);
    let executors = if threads == 1 {
        1
    } else {
        capped_executors(threads).min(chunks)
    };
    if executors <= 1 {
        return (0..chunks).map(|k| f(range(k))).collect();
    }
    let cursor = AtomicUsize::new(0);
    let pieces: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(chunks));
    let f = &f;
    vcps_pool::run(executors - 1, &|_| {
        let mut mine: Vec<(usize, U)> = Vec::new();
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            if k >= chunks {
                break;
            }
            mine.push((k, f(range(k))));
        }
        if !mine.is_empty() {
            pieces
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(&mut mine);
        }
    });
    let mut pieces = pieces.into_inner().unwrap_or_else(PoisonError::into_inner);
    pieces.sort_unstable_by_key(|(k, _)| *k);
    pieces.into_iter().map(|(_, piece)| piece).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pki::TrustedAuthority;
    use crate::MacAddress;

    fn reports(n: u64, m: u64) -> Vec<BitReport> {
        (0..n)
            .map(|i| BitReport {
                mac: MacAddress([2, 0, 0, 0, 0, (i % 251) as u8]),
                index: (i * 2_654_435_761) % m,
            })
            .collect()
    }

    #[test]
    fn parallel_ingest_equals_sequential() {
        let ca = TrustedAuthority::new(3);
        let m = 1usize << 12;
        let batch = reports(20_000, m as u64);

        let seq = SharedRsu::new(RsuId(1), m, &ca).unwrap();
        for r in &batch {
            seq.receive(r).unwrap();
        }

        let par = SharedRsu::new(RsuId(1), m, &ca).unwrap();
        let rejected = ingest_parallel(&par, &batch, default_threads());
        assert_eq!(rejected, 0);

        let a = seq.upload();
        let b = par.upload();
        assert_eq!(a.counter, b.counter);
        assert_eq!(a.bits, b.bits, "bit-identical regardless of order");
    }

    #[test]
    fn observed_ingest_matches_plain_and_counts_the_batch() {
        let ca = TrustedAuthority::new(3);
        let m = 1usize << 12;
        let batch = reports(10_000, m as u64);

        let plain = SharedRsu::new(RsuId(1), m, &ca).unwrap();
        let plain_rejected = ingest_parallel(&plain, &batch, 4);

        let obs = vcps_obs::Obs::enabled();
        let observed = SharedRsu::new(RsuId(1), m, &ca).unwrap();
        let obs_rejected = ingest_parallel_obs(&observed, &batch, 4, &obs);

        assert_eq!(obs_rejected, plain_rejected);
        assert_eq!(observed.upload().bits, plain.upload().bits);
        let snap = obs.snapshot();
        assert_eq!(snap.counters["ingest.reports"], batch.len() as u64);
        assert_eq!(snap.counters["ingest.rejected"], plain_rejected as u64);
        assert_eq!(snap.counters["phase.receive.calls"], 1);

        // The disabled handle records nothing and changes nothing.
        let disabled = vcps_obs::Obs::disabled();
        let quiet = SharedRsu::new(RsuId(1), m, &ca).unwrap();
        let _ = ingest_parallel_obs(&quiet, &batch, 4, &disabled);
        assert_eq!(quiet.upload().bits, plain.upload().bits);
        assert!(disabled.snapshot().is_empty());
    }

    #[test]
    fn lock_free_matches_mutex_baseline() {
        let ca = TrustedAuthority::new(3);
        let m = 1usize << 10;
        let batch = reports(5_000, m as u64);

        let atomic = SharedRsu::new(RsuId(2), m, &ca).unwrap();
        let _ = ingest_parallel(&atomic, &batch, 4);

        let mutex = MutexRsu::new(RsuId(2), m, &ca).unwrap();
        for r in &batch {
            mutex.receive(r).unwrap();
        }

        let a = atomic.upload();
        let b = mutex.upload();
        assert_eq!(a.counter, b.counter);
        assert_eq!(a.bits, b.bits);
    }

    #[test]
    fn rejected_reports_are_counted_not_recorded() {
        let ca = TrustedAuthority::new(3);
        let rsu = SharedRsu::new(RsuId(1), 16, &ca).unwrap();
        let mut batch = reports(100, 16);
        batch.push(BitReport {
            mac: MacAddress([2, 0, 0, 0, 0, 0]),
            index: 16, // out of range
        });
        let rejected = ingest_parallel(&rsu, &batch, 4);
        assert_eq!(rejected, 1);
        assert_eq!(rsu.upload().counter, 100);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let ca = TrustedAuthority::new(3);
        let rsu = SharedRsu::new(RsuId(1), 16, &ca).unwrap();
        assert_eq!(ingest_parallel(&rsu, &[], 4), 0);
        assert_eq!(rsu.upload().counter, 0);
    }

    #[test]
    fn round_trips_through_sim_rsu() {
        let ca = TrustedAuthority::new(9);
        let mut plain = SimRsu::new(RsuId(4), 64, &ca).unwrap();
        plain
            .receive(&BitReport {
                mac: MacAddress([2, 0, 0, 0, 0, 1]),
                index: 9,
            })
            .unwrap();

        let shared = SharedRsu::from_rsu(plain.clone());
        assert_eq!(shared.query(), plain.query());
        shared
            .receive(&BitReport {
                mac: MacAddress([2, 0, 0, 0, 0, 2]),
                index: 33,
            })
            .unwrap();

        let back = shared.into_rsu();
        assert_eq!(back.sketch().count(), 2);
        assert!(back.sketch().bits().get(9));
        assert!(back.sketch().bits().get(33));
        assert_eq!(back.query(), plain.query());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn try_ingest_propagates_out_of_range_error() {
        let ca = TrustedAuthority::new(3);
        let rsu = SharedRsu::new(RsuId(1), 16, &ca).unwrap();
        let good = reports(500, 16);
        assert!(try_ingest_parallel(&rsu, &good, 4).is_ok());
        assert_eq!(rsu.upload().counter, 500);

        let mut bad = reports(100, 16);
        bad.push(BitReport {
            mac: MacAddress([2, 0, 0, 0, 0, 0]),
            index: 16, // out of range
        });
        assert!(try_ingest_parallel(&rsu, &bad, 4).is_err());
    }

    #[test]
    fn try_ingest_reports_the_earliest_error_and_records_every_valid_report() {
        let ca = TrustedAuthority::new(3);
        // 2,000 reports make chunks of 64–250 at every thread count
        // below, so the two bad reports always land in different chunks.
        let mut batch = reports(2_000, 16);
        for (at, index) in [(300, 17), (1_700, 16)] {
            batch[at].index = index;
        }
        let earliest = SharedRsu::new(RsuId(1), 16, &ca)
            .unwrap()
            .receive(&batch[300])
            .unwrap_err();
        for threads in [1, 2, 4, 8] {
            let rsu = SharedRsu::new(RsuId(1), 16, &ca).unwrap();
            let err = try_ingest_parallel(&rsu, &batch, threads).unwrap_err();
            assert_eq!(err, earliest, "threads = {threads}");
            assert_eq!(rsu.upload().counter, 1_998, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_map_preserves_order_across_thread_counts() {
        let items: Vec<u64> = (0..1_000).collect();
        for threads in [1, 2, 3, 8] {
            let out = parallel_map_threads(items.clone(), threads, |&x| x * 3);
            assert_eq!(out, (0..1_000).map(|x| x * 3).collect::<Vec<_>>());
        }
        assert_eq!(
            parallel_map_threads(Vec::<u64>::new(), default_threads(), |&x| x),
            Vec::<u64>::new()
        );
    }

    /// A thread count is caller input: a request near `usize::MAX` runs
    /// on the executors that exist and answers like one thread.
    #[test]
    fn absurd_thread_counts_answer_like_one_thread() {
        let items: Vec<u64> = (0..1_000).collect();
        assert_eq!(
            parallel_map_threads(items.clone(), usize::MAX, |&x| x * 3),
            parallel_map_threads(items, 1, |&x| x * 3)
        );
        let ca = TrustedAuthority::new(3);
        let mut batch = reports(2_000, 16);
        batch[300].index = 17;
        let ingest = |threads| {
            let rsu = SharedRsu::new(RsuId(1), 16, &ca).unwrap();
            let verdict = try_ingest_parallel(&rsu, &batch, threads);
            (verdict, rsu.upload())
        };
        assert_eq!(ingest(usize::MAX), ingest(1));
    }

    #[test]
    fn for_each_slot_mut_runs_each_input_on_its_own_slot() {
        let mut slots = vec![0u64; 4];
        let inputs: Vec<Vec<u64>> = (0..4u64).map(|i| vec![i, i + 10]).collect();
        let sums =
            for_each_slot_mut_threads(&mut slots, inputs, default_threads(), |slot, input| {
                for v in input {
                    *slot += v;
                }
                *slot
            });
        assert_eq!(slots, vec![10, 12, 14, 16]);
        assert_eq!(sums, slots);
        // A single slot runs inline, spawn-free.
        let mut one = vec![7u64];
        let r = for_each_slot_mut_threads(&mut one, vec![3u64], default_threads(), |s, i| {
            *s += i;
            *s
        });
        assert_eq!(r, vec![10]);
    }

    #[test]
    #[should_panic(expected = "one input bundle per slot")]
    fn for_each_slot_mut_rejects_mismatched_lengths() {
        let mut slots = vec![0u64; 2];
        let _ = for_each_slot_mut_threads(&mut slots, vec![1u64], default_threads(), |s, i| *s + i);
    }

    #[test]
    fn for_each_slot_mut_groups_slots_when_threads_are_scarce() {
        // 5 slots over 2 workers: groups of 3 + 2, results still in
        // slot order — and a worker cap above the slot count behaves
        // like one worker per slot.
        for threads in [1usize, 2, 3, 8] {
            let mut slots = vec![0u64; 5];
            let inputs: Vec<u64> = (0..5).map(|i| i + 100).collect();
            let out = for_each_slot_mut_threads(&mut slots, inputs, threads, |slot, input| {
                *slot = input;
                input * 2
            });
            assert_eq!(slots, vec![100, 101, 102, 103, 104], "threads = {threads}");
            assert_eq!(out, vec![200, 202, 204, 206, 208], "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn for_each_slot_mut_rejects_zero_threads() {
        let mut slots = vec![0u64; 2];
        let _ = for_each_slot_mut_threads(&mut slots, vec![1u64, 2], 0, |s, i| *s + i);
    }

    #[test]
    fn shared_rsu_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedRsu>();
        assert_send_sync::<MutexRsu>();
    }
}
