//! Differential tests for the shared execution-space engine: the
//! enumerate-once/judge-everywhere pipeline must be observationally
//! identical to the naive per-cell recompute it replaced, and the
//! short-circuiting witness-search mode must agree with full enumeration.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use tricheck::litmus::ExecutionSpace;
use tricheck::prelude::*;
use tricheck_oracle::run_matrix_naive;

/// The 1,701-test suite, instantiated once for every property case.
fn cached_suite() -> &'static [LitmusTest] {
    static SUITE: OnceLock<Vec<LitmusTest>> = OnceLock::new();
    SUITE.get_or_init(suite::full_suite)
}

/// Strategy: a random non-empty subset of the suite (by test index),
/// spanning several families so the sweep aggregates multiple rows.
fn arb_subset() -> impl Strategy<Value = Vec<LitmusTest>> {
    proptest::collection::vec(0usize..cached_suite().len(), 12).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| cached_suite()[i].clone())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The engine sweep and the naive per-cell sweep classify every cell
    /// identically, for any subset of the suite and any thread count.
    #[test]
    fn shared_engine_sweep_matches_naive_recompute(tests in arb_subset()) {
        let naive = run_matrix_naive(&SweepOptions::with_threads(1), &tests, &riscv_stacks());
        for threads in [1, 4] {
            let engine = Sweep::with_options(SweepOptions::with_threads(threads)).run_matrix(&tests, &riscv_stacks());
            prop_assert!(
                engine.rows() == naive.rows(),
                "engine (threads={threads}) diverged from naive recompute"
            );
        }
    }

    /// Judging through a shared space gives the same verdict as the
    /// one-shot short-circuiting search, for C11 and for every µarch
    /// model.
    #[test]
    fn shared_space_verdicts_match_one_shot_search(tests in arb_subset()) {
        let c11 = C11Model::new();
        let mapping = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
        let models = UarchModel::all_riscv(SpecVersion::Curr);
        for test in &tests {
            let space = ExecutionSpace::new(test.program().clone());
            prop_assert_eq!(
                c11.permits(&space, test.target()),
                c11.permits_target(test)
            );
            let compiled = compile(test, mapping).unwrap();
            let hw_space = ExecutionSpace::new(compiled.program().clone());
            for model in &models {
                prop_assert_eq!(
                    model.permits(&hw_space, compiled.target()),
                    model.observes(compiled.program(), compiled.target())
                );
            }
        }
    }
}

/// Witness-search short-circuiting agrees with full enumeration on the
/// entire 1,701-test suite: the C11 target verdict computed by stopping
/// at the first consistent witness equals membership of the target in the
/// fully-enumerated permitted-outcome set.
#[test]
fn witness_search_agrees_with_full_enumeration_on_full_suite() {
    let c11 = C11Model::new();
    for test in suite::full_suite() {
        let short_circuit = c11.permits_target(&test);
        let full = c11.permitted_outcomes(&test).contains(test.target());
        assert_eq!(short_circuit, full, "{} diverges", test.name());
    }
}

/// The same agreement at the microarchitecture level, on one family
/// (the full suite × 7 models in full-outcome mode would dominate CI).
#[test]
fn uarch_witness_search_agrees_with_full_enumeration() {
    let mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
    let models = UarchModel::all_riscv(SpecVersion::Curr);
    for test in suite::full_suite()
        .iter()
        .filter(|t| t.family() == "corsdwi")
    {
        let compiled = compile(test, mapping).unwrap();
        for model in &models {
            let short_circuit = model.observes(compiled.program(), compiled.target());
            let full = model
                .observable_outcomes(compiled.program(), compiled.observed())
                .contains(compiled.target());
            assert_eq!(short_circuit, full, "{} on {}", test.name(), model.name());
        }
    }
}

/// The full Figure 15 sweep upholds the exactly-once cache contract at
/// suite scale, not just on single families — serially, on four
/// threads, and with a (cold) store attached. The three runs report
/// identical rows and identical `SweepStats`: `compile_cache_hits` and
/// every other counter means the same with and without a store.
#[test]
fn full_suite_sweep_upholds_cache_contract() {
    let tests = suite::full_suite();
    let dir = std::env::temp_dir().join(format!("tricheck-exactly-once-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(DiskStore::open(&dir).expect("open store"));
    let inputs = [
        SweepOptions::with_threads(1),
        SweepOptions::with_threads(4),
        SweepOptions {
            store: Some(Arc::clone(&store) as Arc<dyn SpaceStore>),
            ..SweepOptions::default()
        },
    ];
    let runs: Vec<SweepResults> = inputs
        .into_iter()
        .map(|opts| Sweep::with_options(opts).run_matrix(&tests, &riscv_stacks()))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        store.stats().writes > 0,
        "the cold store run persists spaces"
    );
    let results = &runs[0];
    for (run, label) in runs.iter().zip(["threads 1", "threads 4", "cold store"]) {
        assert_eq!(run.rows(), results.rows(), "{label}");
        assert_eq!(run.stats(), results.stats(), "{label}");
    }
    let stats = results.stats();
    assert_eq!(stats.tests, 1701);
    assert_eq!(stats.cells, 28);
    assert_eq!(stats.c11_evaluations, 1701);
    assert_eq!(stats.compile_calls, 1701 * 4);
    assert_eq!(stats.compile_cache_hits, 1701 * 28 - 1701 * 4);
    assert_eq!(stats.space_enumerations, stats.distinct_programs);
    assert!(stats.distinct_programs < stats.compile_calls);
    // And the headline number still falls out of the cached pipeline:
    // 144 forbidden-yet-observable outcomes on A9like / Base+A / curr.
    let key = StackKey {
        isa: "Base+A",
        variant: "riscv-curr",
    };
    let a9_bugs = results.bugs_for(key, "A9like");
    assert_eq!(a9_bugs, 144);
}

/// A built-in matrix's stacks, by registry name.
fn matrix(name: &str) -> Vec<MatrixStack<'static>> {
    builtin_stack(name).expect("built-in matrix").stacks
}

#[test]
fn x86_sweep_exposes_sb_only_under_the_relaxed_mapping() {
    let tests: Vec<_> = suite::sb_template().instantiate_all().collect();
    let results = Sweep::new().run_matrix(&tests, &matrix("x86-tso"));
    let sc = StackKey {
        isa: "x86",
        variant: "sc-atomics",
    };
    let relaxed = StackKey {
        isa: "x86",
        variant: "relaxed",
    };
    assert_eq!(results.bugs_for(sc, "x86-TSO"), 0);
    assert_eq!(
        results.bugs_for(relaxed, "x86-TSO"),
        1,
        "exactly the all-SC store-buffering variant slips through"
    );
    assert_eq!(
        results.rows(),
        run_matrix_naive(&SweepOptions::default(), &tests, &matrix("x86-tso")).rows()
    );
}

#[test]
fn full_suite_pruning_is_transparent_and_nonzero() {
    // The acceptance contract of axiom-driven pruning on a family
    // with RMW-compiled stores: the pruned engine's rows are the
    // unpruned per-cell reference's, and pruning cuts exactly 308
    // branches (corr adds 100 more to the full suite's 408).
    let tests: Vec<_> = suite::corsdwi_template().instantiate_all().collect();
    let pruned = Sweep::new().run_matrix(&tests, &matrix("riscv"));
    assert_eq!(
        pruned.rows(),
        run_matrix_naive(&SweepOptions::default(), &tests, &matrix("riscv")).rows()
    );
    assert_eq!(pruned.stats().candidates_pruned, 308);
}

#[test]
fn engine_sweep_matches_naive_sweep_on_a_family() {
    let tests: Vec<_> = suite::corr_template().instantiate_all().collect();
    let options = SweepOptions::default();
    for name in ["riscv", "power"] {
        assert_eq!(
            Sweep::with_options(options.clone())
                .run_matrix(&tests, &matrix(name))
                .rows(),
            run_matrix_naive(&options, &tests, &matrix(name)).rows(),
            "{name}"
        );
    }
}
