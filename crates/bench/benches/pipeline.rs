//! The tentpole benchmark: the full Figure 15 RISC-V sweep on the old
//! per-cell recompute path vs. the shared execution-space engine.
//!
//! The engine compiles each (test, mapping) pair once and enumerates each
//! distinct compiled program once across all 28 model cells; the naive
//! path redoes both per cell. Run with `cargo bench -p tricheck-bench
//! --bench pipeline`; the measured numbers are recorded in CHANGES.md.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tricheck_core::{riscv_stacks, Sweep, SweepOptions};
use tricheck_litmus::suite;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    // One family first (243 tests × 28 cells) — the fast inner loop for
    // comparing engine changes.
    let wrc: Vec<_> = suite::wrc_template().instantiate_all().collect();
    for threads in [1, SweepOptions::default().threads] {
        let sweep = Sweep::with_options(SweepOptions::with_threads(threads));
        group.bench_function(format!("wrc_family/naive/threads{threads}"), |b| {
            b.iter(|| sweep.run_matrix_naive(black_box(&wrc), &riscv_stacks()));
        });
        group.bench_function(format!("wrc_family/engine/threads{threads}"), |b| {
            b.iter(|| sweep.run_matrix(black_box(&wrc), &riscv_stacks()));
        });
    }

    // The headline measurement: the complete 1,701-test suite across all
    // 28 model cells.
    let full = suite::full_suite();
    let sweep = Sweep::new();
    group.sample_size(10); // the real criterion's minimum, so the shim swap stays one line
    group.bench_function("full_suite/naive", |b| {
        b.iter(|| sweep.run_matrix_naive(black_box(&full), &riscv_stacks()));
    });
    group.bench_function("full_suite/engine", |b| {
        b.iter(|| sweep.run_matrix(black_box(&full), &riscv_stacks()));
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
