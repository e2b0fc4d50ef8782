//! Batch O–D matrix decoding (DESIGN.md §13): adaptive kernel selection
//! vs the dense-always word scan, and the cached all-pairs pipeline vs
//! the per-pair clone-and-rescan baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use vcps_bench::{filled_sketch, od_server, pairwise_dense_baseline};
use vcps_bitarray::{
    combined_zero_count, combined_zero_count_adaptive, DecodeScratch, UnfoldOperand,
};

/// Adaptive kernel vs dense word scan for one nested pair at several
/// load factors. At light loads the sparse kernels should win by orders
/// of magnitude; at heavy loads the selector must fall back to dense
/// with no regression beyond the selection overhead.
fn bench_kernel_selection(c: &mut Criterion) {
    let m_y = 1usize << 18;
    let m_x = m_y / 4;
    let mut group = c.benchmark_group("odmatrix/kernel_vs_load");
    for &load in &[0.0005, 0.005, 0.05, 0.4] {
        let small = filled_sketch(1, m_x, load).bits().clone();
        let large = filled_sketch(2, m_y, load).bits().clone();
        let ones_x: Vec<u64> = small.ones().map(|i| i as u64).collect();
        let ones_y: Vec<u64> = large.ones().map(|i| i as u64).collect();
        group.throughput(Throughput::Elements(m_y as u64));
        group.bench_with_input(
            BenchmarkId::new("dense_always", load),
            &(&small, &large),
            |b, (small, large)| b.iter(|| black_box(combined_zero_count(small, large).unwrap())),
        );
        group.bench_with_input(
            BenchmarkId::new("adaptive", load),
            &(&small, &large),
            |b, (small, large)| {
                let mut scratch = DecodeScratch::new();
                b.iter(|| {
                    black_box(
                        combined_zero_count_adaptive(
                            &UnfoldOperand::new(small),
                            Some(&ones_x),
                            large,
                            Some(&ones_y),
                            &mut scratch,
                        )
                        .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

/// Full all-pairs decode on a 24-RSU network: the cached `od_matrix`
/// pipeline at several thread counts vs the per-pair dense baseline.
fn bench_od_matrix(c: &mut Criterion) {
    let rsus = 24usize;
    let pairs = (rsus * (rsus - 1) / 2) as u64;
    let mut group = c.benchmark_group("odmatrix/all_pairs_24rsu");
    group.sample_size(20);
    for &load in &[0.005, 0.3] {
        let (server, ids) = od_server(rsus, 1 << 17, load, 42);
        group.throughput(Throughput::Elements(pairs));
        group.bench_with_input(
            BenchmarkId::new("pairwise_dense_baseline", load),
            &server,
            |b, server| b.iter(|| black_box(pairwise_dense_baseline(server, &ids))),
        );
        for threads in [1usize, 2, 4] {
            group.bench_with_input(
                BenchmarkId::new(format!("od_matrix_t{threads}"), load),
                &server,
                |b, server| b.iter(|| black_box(server.od_matrix_threads(threads).unwrap())),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_kernel_selection, bench_od_matrix);
criterion_main!(benches);
