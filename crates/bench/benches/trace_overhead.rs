//! Trace-overhead guard for the observability layer: the full Figure 15
//! sweep with the collector *disabled* (the default for every sweep not
//! asked for `--metrics-json`/`--trace`) must cost what it cost before
//! the tracing layer existed — the probes compile down to one relaxed
//! atomic load each. Run `fig15/disabled` against `fig15/metrics` to
//! see both the guard and the price of turning collection on.
//!
//! Set `TRICHECK_BENCH_QUICK=1` (CI) to skip the timing and assert the
//! disabled path's invariant instead: a sweep run with no session
//! active records nothing — no phases, no counters — so the next
//! session drains an empty report.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tricheck_core::{riscv_stacks, Sweep};
use tricheck_litmus::suite;

fn quick() -> bool {
    std::env::var_os("TRICHECK_BENCH_QUICK").is_some_and(|v| v == "1")
}

fn bench_trace_overhead(c: &mut Criterion) {
    let tests = suite::full_suite();
    if quick() {
        assert!(
            !tricheck_trace::active(),
            "no session may be active outside start()/finish()"
        );
        let results = Sweep::new().run_matrix(&tests, &riscv_stacks());
        assert_eq!(results.stats().tests, tests.len());
        // The untraced sweep above must have left nothing behind: a
        // fresh session drains an empty report.
        tricheck_trace::start(tricheck_trace::TraceConfig::metrics());
        let report = tricheck_trace::finish().report;
        assert!(
            report.phases.is_empty(),
            "untraced sweep leaked phase data: {report:?}"
        );
        assert!(
            report.counters.is_empty(),
            "untraced sweep leaked counters: {report:?}"
        );
        println!("quick mode: disabled collector recorded nothing across a full sweep (ok)");
        return;
    }

    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    group.bench_function("fig15/disabled", |b| {
        b.iter(|| {
            Sweep::new()
                .run_matrix(black_box(&tests), &riscv_stacks())
                .grand_total_bugs()
        });
    });
    group.bench_function("fig15/metrics", |b| {
        b.iter(|| {
            tricheck_trace::start(tricheck_trace::TraceConfig::metrics());
            let bugs = Sweep::new()
                .run_matrix(black_box(&tests), &riscv_stacks())
                .grand_total_bugs();
            let _ = tricheck_trace::finish();
            bugs
        });
    });
    group.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
