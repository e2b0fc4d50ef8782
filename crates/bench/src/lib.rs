//! Benchmark support for the VCPS workspace.
//!
//! The actual benchmarks live in `benches/` (Criterion harnesses, one per
//! paper artifact or ablation — see DESIGN.md §3/§6):
//!
//! * `bitarray` — substrate micro-benchmarks (set/count/or/unfold), and
//!   the O(1) cached zero fraction vs a full popcount rescan.
//! * `encoding` — vehicle-side and RSU-side O(1) costs (paper §IV-E).
//! * `decoding` — server decode vs `m_y`, the O(m_y) claim (§IV-E).
//! * `odmatrix` — adaptive pair kernels vs the dense scan, and the
//!   all-pairs O–D pipeline vs the per-pair baseline (DESIGN.md §13).
//! * `unfold_ablation` — streaming combined zero count vs materializing
//!   the unfolded array (DESIGN.md ablation 1).
//! * `analysis` — closed-form privacy (Eq. 40) vs direct summation
//!   (Eqs. 37–39) and the exact moment computations.
//! * `fig2_privacy` — cost of regenerating the Fig. 2 curves.
//! * `table1` — one Table I row end-to-end, both schemes (scaled).
//! * `fig4_fig5_accuracy` — one accuracy point per skew, both schemes
//!   (scaled).
//! * `roadnet` — Dijkstra / all-or-nothing / MSA on Sioux Falls.
//!
//! This library only exports small workload builders shared by those
//! benches, plus the metro-scale O–D answer timing of
//! `bench_artifacts` ([`od_answer`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vcps_bitarray::combined_zero_count;
use vcps_core::{
    estimate_from_counts_or_clamp, first_plays_x, Estimate, PairCounts, RsuSketch, Scheme,
};
use vcps_hash::RsuId;
use vcps_sim::{CentralServer, PeriodUpload, SequencedUpload};

pub mod od_answer;

/// Builds a sketch of size `m` with roughly `fill` fraction of distinct
/// bits set, deterministically.
///
/// # Panics
///
/// Panics if `m < 2` or `fill` is not in `[0, 1]`.
#[must_use]
pub fn filled_sketch(id: u64, m: usize, fill: f64) -> RsuSketch {
    assert!((0.0..=1.0).contains(&fill), "fill must be a fraction");
    let mut sketch = RsuSketch::new(RsuId(id), m).expect("valid size");
    let target = (m as f64 * fill) as usize;
    // A coprime stride visits distinct indices.
    let stride = (m / 2 + 1) | 1;
    let mut idx = 0usize;
    for _ in 0..target {
        idx = (idx + stride) % m;
        sketch.record(idx).expect("in range");
    }
    sketch
}

/// Builds `copies` identical batches of `rsus` sequenced period uploads
/// (sequence 0, `m`-bit arrays at roughly `fill` fraction set) — the
/// shared workload of the sharded-ingestion bench (`BENCH_shard.json`).
///
/// The bench pops one pre-built batch per timed sample so the timed
/// region is pure server-side ingestion — no clone or encode cost on
/// either side of the comparison.
///
/// # Panics
///
/// Panics if `m < 2` or `fill` is not in `[0, 1]`.
#[must_use]
pub fn shard_ingest_workload(
    rsus: usize,
    m: usize,
    fill: f64,
    copies: usize,
) -> Vec<Vec<SequencedUpload>> {
    let batch: Vec<SequencedUpload> = (0..rsus)
        .map(|i| {
            let id = i as u64 + 1;
            let sketch = filled_sketch(id, m, fill);
            SequencedUpload {
                seq: 0,
                upload: PeriodUpload {
                    rsu: RsuId(id),
                    counter: sketch.count(),
                    bits: sketch.bits().clone(),
                },
            }
        })
        .collect();
    (0..copies).map(|_| batch.clone()).collect()
}

/// Builds a central server holding `rsus` period uploads, each with
/// roughly `load` fraction of distinct bits set — the shared workload of
/// the O–D matrix benches and the `odmatrix` experiment binary.
///
/// Array sizes cycle through `m`, `m/2`, and `m/4` (floored at 64 bits)
/// so the pair triangle exercises the unfold path and every kernel
/// orientation, not just the equal-size fast path.
///
/// # Panics
///
/// Panics if `m < 256` or `load` is not in `[0, 1]`.
#[must_use]
pub fn od_server(rsus: usize, m: usize, load: f64, seed: u64) -> (CentralServer, Vec<RsuId>) {
    assert!(m >= 256, "need room for the size ladder");
    let scheme = Scheme::variable(2, 3.0, seed).expect("valid scheme");
    let mut server = CentralServer::new(scheme, 0.5).expect("valid alpha");
    let mut ids = Vec::with_capacity(rsus);
    for i in 0..rsus {
        let id = RsuId(i as u64 + 1);
        let len = (m >> (i % 3)).max(64);
        let sketch = filled_sketch(id.0, len, load);
        server.receive(PeriodUpload {
            rsu: id,
            counter: sketch.count(),
            bits: sketch.bits().clone(),
        });
        ids.push(id);
    }
    (server, ids)
}

/// Decodes every unordered pair the way the pre-batch decoder did —
/// clone both dense arrays per pair, run the dense word scan, recount
/// zeros, no caches — the baseline the `od_matrix` pipeline is measured
/// against in `benches/odmatrix.rs` and `BENCH_odmatrix.json`.
///
/// # Panics
///
/// Panics if any listed RSU has no upload or sizes are not nested.
#[must_use]
pub fn pairwise_dense_baseline(server: &CentralServer, rsus: &[RsuId]) -> Vec<Estimate> {
    let s = server.scheme().s();
    let mut out = Vec::with_capacity(rsus.len() * rsus.len().saturating_sub(1) / 2);
    for (i, &a) in rsus.iter().enumerate() {
        for &b in &rsus[i + 1..] {
            let ua = server.upload(a).expect("uploaded");
            let ub = server.upload(b).expect("uploaded");
            let a_first = first_plays_x(
                ua.bits.len(),
                ua.counter,
                ua.rsu,
                ub.bits.len(),
                ub.counter,
                ub.rsu,
            );
            let (x, y) = if a_first { (ua, ub) } else { (ub, ua) };
            // The clones mirror the old per-pair sketch reconstruction.
            let bx = x.bits.clone();
            let by = y.bits.clone();
            let counts = PairCounts {
                m_x: bx.len(),
                m_y: by.len(),
                u_x: bx.count_zeros(),
                u_y: by.count_zeros(),
                u_c: combined_zero_count(&bx, &by).expect("nested sizes"),
                n_x: x.counter,
                n_y: y.counter,
            };
            out.push(estimate_from_counts_or_clamp(&counts, s).expect("decode domain is valid"));
        }
    }
    out
}

/// Peak resident set size of this process in bytes, read from procfs
/// (`VmHWM` in `/proc/self/status` — the high-water mark, in kB there).
/// Returns `None` where procfs is unavailable (non-Linux platforms), so
/// artifact generators can report `null` instead of failing.
#[must_use]
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

pub mod calibrate {
    //! Empirical calibration of the kernel-selection cost model.
    //!
    //! [`select_pair_kernel`] ranks the four decode kernels with two
    //! compile-time weights, `COST_BIT_PROBE` and `COST_SETUP`
    //! (word-units per random single-bit probe and per call). Those
    //! weights are machine-dependent: the dense scan's throughput moves
    //! with the vector ISA (`target-cpu=native` buys AVX-512
    //! `vpopcntq` where available) while a probe is a dependent,
    //! possibly cache-missing load. This module re-measures every
    //! candidate kernel on a grid of (sizes × fills) decode points so
    //! the committed constants can be checked against reality:
    //!
    //! * the `calibrate` binary prints the full table plus suggested
    //!   constants;
    //! * the ignored `calibrate` integration test asserts the
    //!   committed constants pick a kernel within [`DEFAULT_SLACK`] of
    //!   the empirically fastest on at least 90% of points.
    //!
    //! Near a cost crossover two kernels take about the same time, so
    //! "picked the fastest" is graded with multiplicative slack: a pick
    //! is correct when its measured time is within `slack ×` the
    //! fastest candidate's. Without slack the test would coin-flip on
    //! every crossover point no matter how good the constants are.

    use std::hint::black_box;
    use std::time::Instant;

    use vcps_bitarray::{
        combined_zero_count, combined_zero_count_dense_sparse, combined_zero_count_sparse_dense,
        combined_zero_count_sparse_sparse_with, select_pair_kernel, sparse_is_profitable, BitArray,
        DecodeScratch, PairKernel,
    };

    /// Multiplicative tolerance for grading a pick (see module docs).
    pub const DEFAULT_SLACK: f64 = 1.25;

    /// One decode point of the calibration grid: a nested pair of array
    /// sizes and a target fill fraction per side.
    #[derive(Debug, Clone, Copy)]
    pub struct SamplePoint {
        /// Smaller (unfolded) array length in bits; divides `m_y`.
        pub m_x: usize,
        /// Fill fraction of the smaller array.
        pub load_x: f64,
        /// Larger array length in bits.
        pub m_y: usize,
        /// Fill fraction of the larger array.
        pub load_y: f64,
    }

    /// Measured mean times of every candidate kernel at one point, plus
    /// what the committed cost model picked there.
    #[derive(Debug, Clone)]
    pub struct Measurement {
        /// The sampled point.
        pub point: SamplePoint,
        /// Actual set-bit counts of the two generated arrays.
        pub ones: (usize, usize),
        /// The committed model's choice given the available index lists.
        pub picked: PairKernel,
        /// Mean nanoseconds per call for each candidate kernel.
        pub timings: Vec<(PairKernel, f64)>,
    }

    impl Measurement {
        /// The empirically fastest candidate at this point.
        ///
        /// # Panics
        ///
        /// Panics if the measurement holds no timings (cannot happen
        /// for values produced by [`measure`]: the dense kernel is
        /// always a candidate).
        #[must_use]
        pub fn fastest(&self) -> (PairKernel, f64) {
            self.timings
                .iter()
                .copied()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("dense kernel is always a candidate")
        }

        /// Mean time of the kernel the committed model picked.
        ///
        /// # Panics
        ///
        /// Panics if the picked kernel was not timed (cannot happen for
        /// values produced by [`measure`]: every selectable kernel is a
        /// candidate).
        #[must_use]
        pub fn picked_time(&self) -> f64 {
            self.timings
                .iter()
                .find(|(k, _)| *k == self.picked)
                .expect("the selector only picks timed candidates")
                .1
        }

        /// `true` when the picked kernel is within `slack ×` the
        /// fastest candidate's measured time.
        #[must_use]
        pub fn picked_within(&self, slack: f64) -> bool {
            self.picked_time() <= self.fastest().1 * slack
        }
    }

    /// The calibration grid: nested size pairs crossed with fills on
    /// both sides of the densify threshold (1/64), so every kernel wins
    /// somewhere and every crossover is straddled.
    #[must_use]
    pub fn sample_grid() -> Vec<SamplePoint> {
        let sizes = [1usize << 12, 1 << 15, 1 << 18];
        let loads = [0.001, 0.008, 0.05, 0.3];
        let mut grid = Vec::new();
        for &m_x in &sizes {
            for &m_y in &sizes {
                if m_y < m_x {
                    continue;
                }
                for &load_x in &loads {
                    for &load_y in &loads {
                        grid.push(SamplePoint {
                            m_x,
                            load_x,
                            m_y,
                            load_y,
                        });
                    }
                }
            }
        }
        grid
    }

    /// Deterministic scattered fill: `load · m` distinct bits via a
    /// coprime stride (same scheme as [`filled_sketch`](super::filled_sketch),
    /// with a salt so the two sides of a pair differ).
    fn scattered(m: usize, load: f64, salt: usize) -> BitArray {
        let mut array = BitArray::new(m);
        let target = (m as f64 * load) as usize;
        let stride = (m / 2 + 1) | 1;
        let mut idx = salt % m;
        for _ in 0..target {
            idx = (idx + stride) % m;
            array.set(idx);
        }
        array
    }

    /// Mean nanoseconds per call, measured over a fixed time budget
    /// (2 ms) after a short warmup.
    fn time_ns(mut f: impl FnMut() -> usize) -> f64 {
        for _ in 0..3 {
            black_box(f());
        }
        let mut iters = 0u64;
        let start = Instant::now();
        loop {
            for _ in 0..16 {
                black_box(f());
            }
            iters += 16;
            let elapsed = start.elapsed();
            if elapsed.as_nanos() >= 2_000_000 || iters >= 1 << 20 {
                return elapsed.as_nanos() as f64 / iters as f64;
            }
        }
    }

    /// Builds the point's arrays, derives index lists exactly where the
    /// server would keep them (below the densify threshold), times every
    /// candidate kernel, and records the committed model's pick.
    ///
    /// All candidates compute the same combined zero count, which is
    /// checked — a calibration that timed disagreeing kernels would be
    /// meaningless.
    ///
    /// # Panics
    ///
    /// Panics if the kernels disagree on the combined zero count (a
    /// correctness bug, not a calibration artifact).
    #[must_use]
    pub fn measure(point: &SamplePoint) -> Measurement {
        let ax = scattered(point.m_x, point.load_x, 1);
        let ay = scattered(point.m_y, point.load_y, 5);
        let ones_x: Option<Vec<u64>> = sparse_is_profitable(point.m_x, ax.count_ones())
            .then(|| ax.ones().map(|i| i as u64).collect());
        let ones_y: Option<Vec<u64>> = sparse_is_profitable(point.m_y, ay.count_ones())
            .then(|| ay.ones().map(|i| i as u64).collect());
        let picked = select_pair_kernel(
            point.m_x,
            ones_x.as_ref().map(Vec::len),
            point.m_y,
            ones_y.as_ref().map(Vec::len),
        );

        let reference = combined_zero_count(&ax, &ay).expect("nested sizes");
        let mut timings = vec![(
            PairKernel::Dense,
            time_ns(|| combined_zero_count(&ax, &ay).expect("nested sizes")),
        )];
        if let (Some(sx), Some(sy)) = (&ones_x, &ones_y) {
            let mut scratch = DecodeScratch::new();
            assert_eq!(
                combined_zero_count_sparse_sparse_with(&mut scratch, point.m_x, sx, point.m_y, sy)
                    .expect("valid lists"),
                reference,
                "kernel disagreement at {point:?}"
            );
            timings.push((
                PairKernel::SparseSparse,
                time_ns(|| {
                    combined_zero_count_sparse_sparse_with(
                        &mut scratch,
                        point.m_x,
                        sx,
                        point.m_y,
                        sy,
                    )
                    .expect("valid lists")
                }),
            ));
        }
        if let Some(sx) = &ones_x {
            assert_eq!(
                combined_zero_count_sparse_dense(point.m_x, sx, &ay).expect("valid list"),
                reference,
                "kernel disagreement at {point:?}"
            );
            timings.push((
                PairKernel::SparseDense,
                time_ns(|| combined_zero_count_sparse_dense(point.m_x, sx, &ay).expect("valid")),
            ));
        }
        if let Some(sy) = &ones_y {
            assert_eq!(
                combined_zero_count_dense_sparse(&ax, point.m_y, sy).expect("valid list"),
                reference,
                "kernel disagreement at {point:?}"
            );
            timings.push((
                PairKernel::DenseSparse,
                time_ns(|| combined_zero_count_dense_sparse(&ax, point.m_y, sy).expect("valid")),
            ));
        }

        Measurement {
            point: *point,
            ones: (ax.count_ones(), ay.count_ones()),
            picked,
            timings,
        }
    }

    /// Fraction of measurements whose pick is within `slack ×` the
    /// fastest candidate (1.0 for an empty slice).
    #[must_use]
    pub fn agreement(measurements: &[Measurement], slack: f64) -> f64 {
        if measurements.is_empty() {
            return 1.0;
        }
        let ok = measurements
            .iter()
            .filter(|m| m.picked_within(slack))
            .count();
        ok as f64 / measurements.len() as f64
    }

    /// Suggests `(COST_BIT_PROBE, COST_SETUP)` from the measurements:
    /// the probe weight is the median ratio of a `DenseSparse` probe's
    /// time to a dense-scan word's time (both computed per element from
    /// points large enough to amortize call overhead), and the setup
    /// weight is the median dense-kernel time at the smallest points,
    /// expressed in word-units.
    ///
    /// Returns `None` when the grid produced no usable samples for
    /// either weight (it always does for [`sample_grid`]).
    #[must_use]
    pub fn suggest_constants(measurements: &[Measurement]) -> Option<(f64, f64)> {
        let mut word_ns = Vec::new();
        let mut probe_ns = Vec::new();
        let mut setup_words = Vec::new();
        for m in measurements {
            for &(kernel, ns) in &m.timings {
                match kernel {
                    PairKernel::Dense if m.point.m_y >= 1 << 15 => {
                        word_ns.push(ns / (m.point.m_y / 64) as f64);
                    }
                    PairKernel::DenseSparse if m.ones.1 >= 64 => {
                        probe_ns.push(ns / m.ones.1 as f64);
                    }
                    _ => {}
                }
            }
        }
        let word = median(&mut word_ns)?;
        for m in measurements {
            if m.point.m_y <= 1 << 12 {
                if let Some(&(_, ns)) = m.timings.iter().find(|(k, _)| *k == PairKernel::Dense) {
                    setup_words.push((ns / word - (m.point.m_y / 64) as f64).max(0.0));
                }
            }
        }
        let probe = median(&mut probe_ns)?;
        let setup = median(&mut setup_words).unwrap_or(0.0);
        Some((probe / word, setup))
    }

    fn median(samples: &mut [f64]) -> Option<f64> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        Some(samples[samples.len() / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_sketch_hits_target_fill() {
        let s = filled_sketch(1, 1 << 12, 0.25);
        let ones = s.bits().count_ones() as f64 / (1 << 12) as f64;
        assert!((ones - 0.25).abs() < 0.05, "fill {ones}");
    }

    #[test]
    fn zero_fill_is_empty() {
        let s = filled_sketch(1, 64, 0.0);
        assert_eq!(s.bits().count_ones(), 0);
    }

    #[test]
    fn shard_workload_batches_are_identical_and_ingestible() {
        let pool = shard_ingest_workload(8, 512, 0.05, 3);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool[0], pool[1]);
        assert_eq!(pool[1], pool[2]);
        let scheme = Scheme::variable(2, 3.0, 1).unwrap();
        let mut mono = CentralServer::new(scheme.clone(), 1.0).unwrap();
        for frame in pool[0].clone() {
            mono.receive_sequenced(frame);
        }
        let mut sharded = vcps_sim::ShardedServer::new(scheme, 1.0, 4).unwrap();
        for frame in pool[1].clone() {
            assert_eq!(
                sharded.receive_sequenced(frame),
                vcps_sim::ReceiveOutcome::Fresh
            );
        }
        assert_eq!(sharded.upload_count(), mono.upload_count());
        for i in 1..=8u64 {
            assert_eq!(sharded.upload(RsuId(i)), mono.upload(RsuId(i)));
        }
    }

    #[test]
    fn pairwise_baseline_matches_od_matrix() {
        let (server, ids) = od_server(6, 1 << 10, 0.2, 11);
        let baseline = pairwise_dense_baseline(&server, &ids);
        let matrix = server.od_matrix_threads(1).unwrap();
        assert_eq!(baseline.len(), 15);
        let mut k = 0;
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                match matrix.get(a, b).unwrap() {
                    vcps_core::PairEstimate::Measured(e) => assert_eq!(e, &baseline[k]),
                    other => panic!("expected measured estimate, got {other:?}"),
                }
                k += 1;
            }
        }
    }
}
