//! §IV-E — computation overhead measurements.
//!
//! The paper's claims: O(1) per vehicle per query, O(1) per RSU per
//! report, O(m_y) per pair at the server. This binary measures wall-clock
//! times and shows the server decode scaling linearly in `m_y` (Criterion
//! benches in `vcps-bench` measure the same quantities rigorously).
//!
//! Usage: `cargo run --release -p vcps-experiments --bin overhead`

use std::hint::black_box;
use std::time::Instant;

use vcps_core::{estimator, RsuId, RsuSketch, Scheme, VehicleIdentity};
use vcps_experiments::text_table;

fn time_per_op<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    println!("== §IV-E: computation overhead ==\n");
    let scheme = Scheme::variable(2, 3.0, 1).expect("valid scheme");
    let m_o = 1 << 22;

    // Vehicle side: two hashes per query (paper: O(1)).
    let vehicle = VehicleIdentity::from_raw(42, 43);
    let mut i = 0u64;
    let vehicle_ns = time_per_op(1_000_000, || {
        i = i.wrapping_add(1);
        black_box(scheme.report_index(&vehicle, RsuId(i % 64), 1 << 14, m_o));
    });

    // RSU side: one bit set + counter increment (paper: O(1)).
    let mut sketch = RsuSketch::new(RsuId(1), 1 << 14).expect("valid size");
    let mut j = 0usize;
    let rsu_ns = time_per_op(1_000_000, || {
        j = (j + 7) & ((1 << 14) - 1);
        sketch.record(j).expect("in range");
    });

    println!("per-operation costs (both O(1), independent of m):\n");
    println!(
        "{}",
        text_table(
            &["operation", "time"],
            &[
                vec![
                    "vehicle: compute report index".into(),
                    format!("{vehicle_ns:.0} ns")
                ],
                vec!["RSU: record one report".into(), format!("{rsu_ns:.0} ns")],
            ]
        )
    );

    // Server side: decode one pair at growing m_y (paper: O(m_y)).
    println!("server decode time vs m_y (expected linear):\n");
    let mut rows = Vec::new();
    for k in [12u32, 14, 16, 18, 20] {
        let m_y = 1usize << k;
        let m_x = m_y / 8;
        let mut x = RsuSketch::new(RsuId(1), m_x).expect("valid");
        let mut y = RsuSketch::new(RsuId(2), m_y).expect("valid");
        for v in 0..(m_x / 3) {
            x.record((v * 7) % m_x).expect("in range");
            y.record((v * 13) % m_y).expect("in range");
        }
        let iters = (1u64 << 26) / m_y as u64;
        let ns = time_per_op(iters.max(4), || {
            black_box(estimator::estimate_pair(&x, &y, 2).expect("not saturated"));
        });
        rows.push(vec![
            format!("2^{k}"),
            format!("{:.1} µs", ns / 1_000.0),
            format!("{:.3} ns/bit", ns / m_y as f64),
        ]);
    }
    println!("{}", text_table(&["m_y", "decode time", "per bit"], &rows));
    println!("(a flat ns/bit column confirms the O(m_y) claim)");
}
