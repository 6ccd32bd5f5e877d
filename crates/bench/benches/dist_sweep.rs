//! Cold vs warm full-suite sweeps over the persistent on-disk
//! execution-space store, on both paper matrices.
//!
//! - `*/no_store`: the in-memory engine (the pre-`tricheck-dist`
//!   behaviour) — the baseline both store modes are judged against.
//! - `*/cold_store`: every iteration starts from an empty cache
//!   directory, so it pays full enumeration *plus* serialization and
//!   atomic file writes.
//! - `*/warm_store`: the cache is populated once up front; every
//!   iteration loads all execution spaces and C11 verdicts from disk
//!   instead of enumerating (`space_enumerations == 0`). The
//!   acceptance criterion is warm measurably beating cold.
//!
//! Run with `cargo bench -p tricheck-bench --bench dist_sweep`.

use std::path::PathBuf;
use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tricheck_core::{builtin_stack, riscv_stacks, SpaceStore, Sweep, SweepOptions};
use tricheck_dist::DiskStore;
use tricheck_litmus::{suite, LitmusTest};

fn bench_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tricheck-dist-bench-{label}-{}",
        std::process::id()
    ))
}

fn run_with_store(tests: &[LitmusTest], dir: &PathBuf, power: bool) -> usize {
    let store = Arc::new(DiskStore::open(dir).expect("open bench store"));
    let opts = SweepOptions {
        store: Some(store as Arc<dyn SpaceStore>),
        ..SweepOptions::default()
    };
    let sweep = Sweep::with_options(opts);
    let results = if power {
        sweep.run_matrix(tests, &builtin_stack("power").unwrap().stacks)
    } else {
        sweep.run_matrix(tests, &riscv_stacks())
    };
    results.grand_total_bugs()
}

fn bench_dist_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("dist_sweep");
    group.sample_size(10);

    let full = suite::full_suite();
    for (matrix, power) in [("riscv", false), ("power", true)] {
        // Baseline: the in-memory engine, no persistence.
        let sweep = Sweep::new();
        group.bench_function(format!("{matrix}/no_store"), |b| {
            b.iter(|| {
                if power {
                    sweep
                        .run_matrix(black_box(&full), &builtin_stack("power").unwrap().stacks)
                        .grand_total_bugs()
                } else {
                    sweep
                        .run_matrix(black_box(&full), &riscv_stacks())
                        .grand_total_bugs()
                }
            });
        });

        // Cold: every iteration enumerates AND populates a fresh cache.
        let cold_dir = bench_dir(&format!("{matrix}-cold"));
        group.bench_function(format!("{matrix}/cold_store"), |b| {
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&cold_dir);
                run_with_store(black_box(&full), &cold_dir, power)
            });
        });
        let _ = std::fs::remove_dir_all(&cold_dir);

        // Warm: populate once, then every iteration loads from disk.
        let warm_dir = bench_dir(&format!("{matrix}-warm"));
        let _ = std::fs::remove_dir_all(&warm_dir);
        run_with_store(&full, &warm_dir, power);
        group.bench_function(format!("{matrix}/warm_store"), |b| {
            b.iter(|| run_with_store(black_box(&full), &warm_dir, power));
        });
        let _ = std::fs::remove_dir_all(&warm_dir);
    }
    group.finish();
}

criterion_group!(benches, bench_dist_sweep);
criterion_main!(benches);
