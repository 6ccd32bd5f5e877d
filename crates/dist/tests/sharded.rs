//! Differential tests locking `run_sharded` to the single-process
//! engine: at every shard count the merged rows must be bit-identical
//! to `Sweep::run_matrix` over the same tests, in both outcome modes —
//! and on a warm shared store the summed per-shard stats must prove
//! that nothing is enumerated twice *across processes*.
//!
//! The planner spawns worker processes from `current_exe()`. For these
//! tests that binary is the libtest harness itself, so
//! [`shard_worker_probe`] is the worker entry point: an
//! environment-gated test the planner re-invokes with an exact filter,
//! the same self-spawning pattern as the cross-process fingerprint
//! probe in `tests/fingerprint_stability.rs`.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use tricheck_core::{builtin_stack, riscv_stacks, OutcomeMode, Sweep, SweepOptions};
use tricheck_dist::{run_sharded, DistOptions};
use tricheck_litmus::{suite, LitmusTest};
use tricheck_trace::TraceReport;

const PROBE_ENV: &str = "TRICHECK_SHARD_WORKER_PROBE";

/// Worker half of the self-spawning pattern: inert in a normal test
/// run; with [`PROBE_ENV`] set it speaks the shard protocol over this
/// process's stdio and exits.
#[test]
fn shard_worker_probe() {
    if std::env::var_os(PROBE_ENV).is_none() {
        return;
    }
    // Errors surface to the parent via the marker line the worker
    // prints; the probe itself must not panic (a clean exit keeps the
    // harness chatter parseable).
    let _ = tricheck_dist::shard_worker_stdio();
}

/// Options that spawn *this test binary* as the worker.
fn probe_opts(shards: usize) -> DistOptions {
    DistOptions {
        shards,
        // Keep child pools small: several children run concurrently.
        threads: Some(2),
        worker_args: [
            "shard_worker_probe",
            "--exact",
            "--nocapture",
            "--test-threads",
            "1",
        ]
        .iter()
        .map(ToString::to_string)
        .collect(),
        worker_env: vec![(PROBE_ENV.to_string(), "1".to_string())],
        ..DistOptions::default()
    }
}

/// A unique, self-cleaning cache directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "tricheck-sharded-{label}-{}-{n}",
            std::process::id()
        ));
        fs::create_dir_all(&path).expect("create temp cache dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn cached_suite() -> &'static [LitmusTest] {
    static SUITE: OnceLock<Vec<LitmusTest>> = OnceLock::new();
    SUITE.get_or_init(suite::full_suite)
}

/// Strategy: a random non-empty subset of the suite, spanning several
/// families so the merged rows aggregate multiple cells.
fn arb_subset() -> impl Strategy<Value = Vec<LitmusTest>> {
    proptest::collection::vec(0usize..cached_suite().len(), 10).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| cached_suite()[i].clone())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `run_sharded(N ∈ {1, 2, 4})` is bit-identical to single-process
    /// `run_matrix` on random suite subsets, on both matrices.
    #[test]
    fn sharded_subsets_match_single_process(tests in arb_subset()) {
        for name in ["riscv", "power"] {
            let matrix = builtin_stack(name).expect("built-in matrix");
            let single = Sweep::new().run_matrix(&tests, &matrix.stacks);
            for shards in [1, 2, 4] {
                let dist = run_sharded(&matrix, &tests, &probe_opts(shards))
                    .expect("sharded run succeeds");
                prop_assert!(
                    dist.results.rows() == single.rows(),
                    "{name} shards={shards} diverged from single-process rows"
                );
            }
        }
    }
}

/// The full 1,701-test §7 Power study, sharded two ways, in both
/// outcome modes: rows bit-identical to the single-process engine.
#[test]
fn sharded_power_full_suite_matches_single_process_in_both_modes() {
    let tests = cached_suite();
    for mode in [OutcomeMode::Target, OutcomeMode::FullOutcomes] {
        let single = Sweep::with_options(SweepOptions {
            outcome_mode: mode,
            ..SweepOptions::default()
        })
        .run_matrix(tests, &builtin_stack("power").unwrap().stacks);
        let opts = DistOptions {
            outcome_mode: mode,
            ..probe_opts(2)
        };
        let dist =
            run_sharded(&builtin_stack("power").unwrap(), tests, &opts).expect("sharded run");
        assert_eq!(
            dist.results.rows(),
            single.rows(),
            "sharded §7 study diverged in {mode:?} mode"
        );
        assert_eq!(dist.results.stats().tests, tests.len());
        assert_eq!(dist.results.stats().cells, 4);
        assert_eq!(dist.shards.len(), 2, "both shards must have received work");
    }
}

/// The full Figure 15 matrix, sharded two ways: rows bit-identical to
/// the single-process engine (grand totals included).
#[test]
fn sharded_riscv_full_suite_matches_single_process() {
    let tests = cached_suite();
    let single = Sweep::new().run_matrix(tests, &riscv_stacks());
    let dist =
        run_sharded(&builtin_stack("riscv").unwrap(), tests, &probe_opts(2)).expect("sharded run");
    assert_eq!(dist.results.rows(), single.rows());
    assert_eq!(dist.results.grand_total_bugs(), single.grand_total_bugs());
}

/// The acceptance criterion: on a warm shared store, exactly-once holds
/// *across* processes — the merged per-shard stats show zero
/// enumerations and zero C11 evaluations, every shard served from the
/// store, with rows still bit-identical to single-process.
#[test]
fn warm_store_extends_exactly_once_across_processes() {
    let tests: Vec<LitmusTest> = cached_suite()
        .iter()
        .filter(|t| t.family() == "wrc")
        .cloned()
        .collect();
    let dir = TempDir::new("warm");
    let opts = DistOptions {
        cache_dir: Some(dir.path().to_path_buf()),
        ..probe_opts(3)
    };
    let single = Sweep::new().run_matrix(&tests, &builtin_stack("power").unwrap().stacks);

    let cold = run_sharded(&builtin_stack("power").unwrap(), &tests, &opts).expect("cold run");
    assert_eq!(cold.results.rows(), single.rows(), "cold == single-process");
    assert!(
        cold.results.stats().space_enumerations > 0,
        "cold run enumerates"
    );
    assert!(
        cold.store_stats().writes > 0,
        "cold run populates the store"
    );

    let warm = run_sharded(&builtin_stack("power").unwrap(), &tests, &opts).expect("warm run");
    assert_eq!(warm.results.rows(), single.rows(), "warm == single-process");
    let stats = warm.results.stats();
    assert_eq!(
        stats.space_enumerations, 0,
        "no fingerprint may be enumerated twice on a warm store, across all shards"
    );
    assert_eq!(stats.c11_evaluations, 0, "no C11 verdict recomputed warm");
    let store = warm.store_stats();
    assert!(store.space_hits > 0);
    assert_eq!(store.space_misses, 0, "every shard fully served warm");
    assert_eq!(store.c11_misses, 0);
    assert_eq!(store.evictions, 0);
    // Per-shard: every shard that got work was individually warm.
    for shard in &warm.shards {
        assert_eq!(
            shard.stats.space_enumerations, 0,
            "shard {} enumerated on a warm store",
            shard.shard
        );
    }
}

/// Protocol v4 end to end: with `collect_trace` set, every spawned
/// shard ships a trace report whose counters agree with its own
/// `SweepStats`, and the coordinator's merged report ([`TraceReport`]
/// via `absorb_traces`) carries a per-worker breakdown whose totals
/// equal the field-wise sum of the per-worker reports.
#[test]
fn sharded_trace_reports_merge_to_per_worker_sums() {
    let tests: Vec<LitmusTest> = cached_suite()
        .iter()
        .filter(|t| t.family() == "mp")
        .cloned()
        .collect();
    let opts = DistOptions {
        collect_trace: true,
        ..probe_opts(2)
    };
    let dist = run_sharded(&builtin_stack("riscv").unwrap(), &tests, &opts).expect("sharded run");
    assert_eq!(dist.shards.len(), 2, "both shards must have received work");
    for shard in &dist.shards {
        let trace = shard
            .trace
            .as_ref()
            .expect("collect_trace must produce a per-shard report");
        assert!(trace.wall_ns > 0, "worker reports its own wall clock");
        assert!(
            trace.phase("cell").is_some(),
            "worker traced its cell spans"
        );
        // The worker injects its SweepStats into the report's counters.
        assert_eq!(
            trace.counter("space_enumerations"),
            Some(shard.stats.space_enumerations as u64),
            "shard {} counters disagree with its stats",
            shard.shard
        );
    }

    let mut merged = TraceReport::default();
    dist.absorb_traces(&mut merged);
    assert_eq!(merged.workers.len(), 2, "per-worker breakdown retained");
    // Merged totals are exactly the sums of the per-worker reports.
    for phase in &merged.phases {
        let sum: u64 = merged
            .workers
            .iter()
            .filter_map(|w| w.report.phase(&phase.name))
            .map(|p| p.total_ns)
            .sum();
        assert_eq!(
            phase.total_ns, sum,
            "merged {} total must equal the per-worker sum",
            phase.name
        );
    }
    for (name, value) in &merged.counters {
        let sum: u64 = merged
            .workers
            .iter()
            .filter_map(|w| w.report.counter(name))
            .sum();
        assert_eq!(*value, sum, "merged counter {name} must equal the sum");
    }

    // Untraced runs ship no report at all.
    let untraced = run_sharded(&builtin_stack("riscv").unwrap(), &tests, &probe_opts(2))
        .expect("untraced run");
    assert!(untraced.shards.iter().all(|s| s.trace.is_none()));
}

/// `shards == 1` must bypass process spawning entirely: these options
/// name a worker entry point that cannot exist, so completing at all
/// proves no child was spawned.
#[test]
fn single_shard_never_spawns_a_worker() {
    let tests: Vec<LitmusTest> = cached_suite()
        .iter()
        .filter(|t| t.family() == "sb")
        .cloned()
        .collect();
    let opts = DistOptions {
        shards: 1,
        worker_args: vec!["this-subcommand-does-not-exist".to_string()],
        ..DistOptions::default()
    };
    let dist =
        run_sharded(&builtin_stack("power").unwrap(), &tests, &opts).expect("in-process run");
    assert_eq!(
        dist.results.rows(),
        Sweep::new()
            .run_matrix(&tests, &builtin_stack("power").unwrap().stacks)
            .rows()
    );
    assert_eq!(dist.shards.len(), 1);
}

/// Zero shards is a clean error, and a broken worker command surfaces
/// as a worker error instead of a hang or a wrong result.
#[test]
fn planner_reports_configuration_errors() {
    let tests: Vec<LitmusTest> = cached_suite()[..4].to_vec();
    let zero = DistOptions {
        shards: 0,
        ..DistOptions::default()
    };
    assert!(run_sharded(&builtin_stack("power").unwrap(), &tests, &zero).is_err());

    // Two shards with a worker filter that matches no test: children
    // exit without a result line.
    let broken = DistOptions {
        worker_args: vec!["no_such_probe_test".to_string(), "--exact".to_string()],
        worker_env: vec![(PROBE_ENV.to_string(), "1".to_string())],
        ..probe_opts(2)
    };
    let err = run_sharded(&builtin_stack("power").unwrap(), &tests, &broken)
        .expect_err("workers without a result line must error");
    assert!(
        err.to_string().contains("result"),
        "error must name the missing result: {err}"
    );
}
