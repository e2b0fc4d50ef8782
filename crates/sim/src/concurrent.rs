//! The workspace's one parallel runner and its thread budget.
//!
//! Every parallel path runs through one chunk runner, `map_chunks`: the
//! engine's vehicle exchanges, [`crate::PairRunner`]'s report
//! generation, [`parallel_map_threads`] (the experiment harness's
//! trials) and the O–D pair driver. Workers share no RSU state. A worker
//! answers for its chunk of vehicles and returns the reports it made;
//! the caller applies them, chunk by chunk in input order, to plain
//! single-writer [`crate::SimRsu`]s. An RSU's period state is one bit
//! array and one counter (paper §IV-B), and setting a bit and counting a
//! passage commute, so the uploads are bit-identical at every thread
//! count.
//!
//! # Work distribution
//!
//! The runner fans out over the process-wide persistent worker pool
//! ([`vcps_pool`]) instead of spawning scoped threads per call. Workers
//! are created once and parked between calls, so steady-state dispatch
//! costs a mutex handshake rather than a thread spawn+join — the
//! difference between an 8-RSU O–D triangle scaling and anti-scaling.
//! Work is distributed by *chunked range claiming*: workers repeatedly
//! grab the next index range off a shared atomic cursor, so uneven
//! per-item costs don't leave threads idle the way static
//! pre-partitioning does, and results are stitched back into input
//! order. One executor runs every range inline on the caller, with no
//! pool dispatch at all.

use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

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

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
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
    }
}
