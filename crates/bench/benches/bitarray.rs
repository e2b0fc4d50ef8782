//! Substrate micro-benchmarks: BitArray set / count / OR / unfold, and
//! the O(1) cached zero fraction vs a full popcount rescan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use vcps_bitarray::BitArray;

fn bench_set(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitarray/set");
    let m = 1 << 20;
    let mut array = BitArray::new(m);
    let mut i = 0usize;
    group.bench_function("single_bit", |b| {
        b.iter(|| {
            i = (i + 4099) & (m - 1);
            array.set(black_box(i));
        })
    });
    group.finish();
}

fn bench_count_zeros(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitarray/count_zeros");
    for k in [12u32, 16, 20] {
        let m = 1usize << k;
        let array = BitArray::from_indices(m, (0..m / 3).map(|i| (i * 7) % m)).unwrap();
        group.throughput(Throughput::Elements(m as u64));
        group.bench_with_input(BenchmarkId::from_parameter(m), &array, |b, a| {
            b.iter(|| black_box(a.count_zeros()))
        });
    }
    group.finish();
}

fn bench_or(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitarray/or");
    let m = 1 << 20;
    let a = BitArray::from_indices(m, (0..m / 4).map(|i| (i * 5) % m)).unwrap();
    let b_arr = BitArray::from_indices(m, (0..m / 4).map(|i| (i * 11) % m)).unwrap();
    group.throughput(Throughput::Elements(m as u64));
    group.bench_function("materialized", |b| {
        b.iter(|| black_box(a.or(&b_arr).unwrap()))
    });
    group.finish();
}

fn bench_unfold(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitarray/unfold");
    for ratio in [2usize, 8, 64] {
        let m_x = 1 << 14;
        let m_y = m_x * ratio;
        let small = BitArray::from_indices(m_x, (0..m_x / 3).map(|i| (i * 7) % m_x)).unwrap();
        group.throughput(Throughput::Elements(m_y as u64));
        group.bench_with_input(BenchmarkId::from_parameter(ratio), &small, |b, s| {
            b.iter(|| black_box(s.unfold(m_y).unwrap()))
        });
    }
    group.finish();
}

fn bench_zero_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("zero_count/cached_vs_rescan");
    let sketch = vcps_bench::filled_sketch(1, 1 << 20, 0.4);
    let bits = sketch.bits();
    group.bench_function("cached", |b| b.iter(|| black_box(bits.zero_fraction())));
    group.bench_function("rescan", |b| {
        b.iter(|| {
            let ones: u32 = bits.as_words().iter().map(|w| w.count_ones()).sum();
            black_box(1.0 - f64::from(ones) / bits.len() as f64)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_set,
    bench_count_zeros,
    bench_or,
    bench_unfold,
    bench_zero_count
);
criterion_main!(benches);
