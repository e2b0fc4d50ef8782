//! The unified metrics registry: named counters, gauges, and
//! fixed-bucket histograms over lock-free [`AtomicU64`] cells.
//!
//! Recording never blocks recording: every cell is a plain atomic, so
//! parallel workers (the O–D pair driver's, say) update the same counter
//! without contention beyond the cache line itself. The name → cell map is
//! behind an [`RwLock`], but the write lock is taken only the first time
//! a name is seen; steady-state recording is a read lock plus one atomic
//! RMW. Hot loops can hoist even the map lookup by holding a
//! [`Counter`]/[`Gauge`]/[`Histogram`] handle.
//!
//! [`RegistrySnapshot`] freezes the registry into plain maps whose
//! [`merge`](RegistrySnapshot::merge) is associative and commutative
//! (counters wrap-add, gauges max, histogram buckets wrap-add), so
//! snapshots from any number of workers or runs can be folded in any
//! order — the same algebra the hand-rolled `merge` methods on the old
//! bespoke metrics structs implemented one field at a time.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of histogram buckets: bucket `k ≥ 1` holds values with bit
/// length `k` (i.e. `v ∈ [2^(k-1), 2^k)`), bucket 0 holds zero, and the
/// last bucket absorbs everything from `2^62` up.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A handle to one named counter cell — clone it into a hot loop to skip
/// the registry's name lookup entirely.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `v` (wrapping, like the underlying `fetch_add`).
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A handle to one named gauge cell (an `f64` stored as bits).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Stores `v` (last writer wins).
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket, power-of-two histogram over atomic cells.
///
/// `record(v)` increments the bucket indexed by the bit length of `v`
/// (zero goes to bucket 0) and folds `v` into a wrapping sum — three
/// relaxed atomic RMWs, no allocation, no lock.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: its bit length, clamped to the last bucket.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of a bucket (`u64::MAX` for the last).
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Freezes the cells into a plain snapshot.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A frozen [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Wrapping sum of all observed values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Mean observed value, or `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0 ≤ q ≤ 1`), or `None` when empty.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper_bound(i));
            }
        }
        Some(u64::MAX)
    }

    /// Folds `other` in: elementwise wrapping bucket/count/sum addition —
    /// associative and commutative.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.wrapping_add(*theirs);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// The unified metrics registry (see the module docs).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// Get-or-create a cell in one of the maps: a read-lock probe first, a
/// write lock only on the first sighting of a name.
fn cell<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(found) = map.read().expect("registry map poisoned").get(name) {
        return Arc::clone(found);
    }
    let mut writer = map.write().expect("registry map poisoned");
    Arc::clone(writer.entry(name.to_string()).or_default())
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle to the named counter, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        Counter(cell(&self.counters, name))
    }

    /// Adds `v` to the named counter.
    #[inline]
    pub fn add(&self, name: &str, v: u64) {
        self.counter(name).add(v);
    }

    /// Adds one to the named counter.
    #[inline]
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// A handle to the named gauge, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(cell(&self.gauges, name))
    }

    /// Stores `v` in the named gauge.
    #[inline]
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.gauge(name).set(v);
    }

    /// A handle to the named histogram, created on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        cell(&self.histograms, name)
    }

    /// Records `v` into the named histogram.
    #[inline]
    pub fn observe(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Freezes every cell into a [`RegistrySnapshot`].
    ///
    /// Exact once recording threads are quiescent; while writers are
    /// active, individual cells are each atomically read but the set is
    /// not a single consistent cut.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .counters
            .read()
            .expect("registry map poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .read()
            .expect("registry map poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), f64::from_bits(cell.load(Ordering::Relaxed))))
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("registry map poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A frozen [`Registry`]: plain sorted maps, mergeable in any order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`.
    ///
    /// The merge is associative and commutative (property-tested):
    /// counters add (wrapping), gauges take the maximum (`f64::max`, so
    /// a NaN on either side yields the other value), and histograms add
    /// bucket-wise — so per-worker snapshots can be reduced in any
    /// grouping or order with one result.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, v) in &other.counters {
            let slot = self.counters.entry(name.clone()).or_insert(0);
            *slot = slot.wrapping_add(*v);
        }
        for (name, v) in &other.gauges {
            self.gauges
                .entry(name.clone())
                .and_modify(|mine| *mine = mine.max(*v))
                .or_insert(*v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// The counter map restricted to names starting with `prefix` —
    /// handy for comparing the deterministic subset of a run's metrics
    /// (wall-clock histograms never are).
    #[must_use]
    pub fn counters_with_prefix(&self, prefix: &str) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, v)| (name.clone(), *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = Registry::new();
        r.inc("a");
        r.add("a", 4);
        r.add("b", 2);
        let snap = r.snapshot();
        assert_eq!(snap.counters["a"], 5);
        assert_eq!(snap.counters["b"], 2);
        let handle = r.counter("a");
        handle.inc();
        assert_eq!(handle.get(), 6);
    }

    #[test]
    fn gauges_store_last_value() {
        let r = Registry::new();
        r.set_gauge("t", 1.5);
        r.set_gauge("t", -3.25);
        assert_eq!(r.snapshot().gauges["t"], -3.25);
        assert_eq!(r.gauge("t").get(), -3.25);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1006);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 2);
        assert_eq!(snap.buckets[10], 1);
        assert_eq!(snap.mean(), Some(201.2));
    }

    #[test]
    fn histogram_quantile_bounds() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(3);
        }
        h.record(1 << 20);
        let snap = h.snapshot();
        assert_eq!(snap.quantile_upper_bound(0.5), Some(3));
        assert_eq!(snap.quantile_upper_bound(1.0), Some((1 << 21) - 1));
        assert_eq!(HistogramSnapshot::default().quantile_upper_bound(0.5), None);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let r = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let c = r.counter("hits");
                    for i in 0..10_000u64 {
                        c.inc();
                        r.observe("vals", i);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counters["hits"], 40_000);
        assert_eq!(snap.histograms["vals"].count, 40_000);
    }

    #[test]
    fn merge_combines_all_kinds() {
        let a = Registry::new();
        a.add("c", 3);
        a.set_gauge("g", 1.0);
        a.observe("h", 7);
        let b = Registry::new();
        b.add("c", 4);
        b.add("only_b", 1);
        b.set_gauge("g", 2.0);
        b.observe("h", 9);
        let mut snap = a.snapshot();
        snap.merge(&b.snapshot());
        assert_eq!(snap.counters["c"], 7);
        assert_eq!(snap.counters["only_b"], 1);
        assert_eq!(snap.gauges["g"], 2.0);
        assert_eq!(snap.histograms["h"].count, 2);
        assert_eq!(snap.histograms["h"].sum, 16);
    }

    #[test]
    fn counters_with_prefix_filters() {
        let r = Registry::new();
        r.inc("phase.encode.calls");
        r.inc("kernel.dense");
        let snap = r.snapshot();
        let kernels = snap.counters_with_prefix("kernel.");
        assert_eq!(kernels.len(), 1);
        assert!(kernels.contains_key("kernel.dense"));
    }
}
