//! The §7 compiler study on the naive per-cell recompute path vs. the
//! shared execution-space engine, in both outcome modes.
//!
//! The `power` matrix covers {leading-sync, trailing-sync} × the two ARMv7
//! models; the engine compiles each (test, mapping) pair once and
//! enumerates each distinct Power program once across all four cells.
//! The `outcomes/*` pair measures the full-outcome-set mode, whose
//! enumeration and outcome partition are likewise shared per program.
//! Run with `cargo bench -p tricheck-bench --bench power_sweep`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tricheck_core::{builtin_stack, OutcomeMode, Sweep, SweepOptions};
use tricheck_litmus::suite;
use tricheck_oracle::run_matrix_naive;

fn bench_power_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("power_sweep");
    group.sample_size(10);

    // One family first — the fast inner loop for comparing engine
    // changes.
    let wrc: Vec<_> = suite::wrc_template().instantiate_all().collect();
    for threads in [1, SweepOptions::default().threads] {
        let options = SweepOptions::with_threads(threads);
        let sweep = Sweep::with_options(options.clone());
        group.bench_function(format!("wrc_family/naive/threads{threads}"), |b| {
            b.iter(|| {
                run_matrix_naive(
                    &options,
                    black_box(&wrc),
                    &builtin_stack("power").unwrap().stacks,
                )
            });
        });
        group.bench_function(format!("wrc_family/engine/threads{threads}"), |b| {
            b.iter(|| sweep.run_matrix(black_box(&wrc), &builtin_stack("power").unwrap().stacks));
        });
    }

    // The headline measurement: the complete 1,701-test suite across all
    // four {mapping × model} cells, target mode and full-outcome mode.
    let full = suite::full_suite();
    let sweep = Sweep::new();
    group.bench_function("full_suite/naive", |b| {
        b.iter(|| {
            run_matrix_naive(
                &SweepOptions::default(),
                black_box(&full),
                &builtin_stack("power").unwrap().stacks,
            )
        });
    });
    group.bench_function("full_suite/engine", |b| {
        b.iter(|| sweep.run_matrix(black_box(&full), &builtin_stack("power").unwrap().stacks));
    });
    let outcome_opts = SweepOptions {
        outcome_mode: OutcomeMode::FullOutcomes,
        ..SweepOptions::default()
    };
    let outcome_sweep = Sweep::with_options(outcome_opts.clone());
    group.bench_function("full_suite/outcomes/naive", |b| {
        b.iter(|| {
            run_matrix_naive(
                &outcome_opts,
                black_box(&full),
                &builtin_stack("power").unwrap().stacks,
            )
        });
    });
    group.bench_function("full_suite/outcomes/engine", |b| {
        b.iter(|| {
            outcome_sweep.run_matrix(black_box(&full), &builtin_stack("power").unwrap().stacks)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_power_sweep);
criterion_main!(benches);
