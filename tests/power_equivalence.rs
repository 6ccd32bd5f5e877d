//! Differential tests locking the generalized sweep engine to its naive
//! oracles on the §7 compiler-study paths:
//!
//! - the `power` matrix (the cached {leading,trailing}-sync × ARMv7
//!   sweep through `run_matrix`) must be observationally identical to
//!   the naive per-cell recompute, at any thread count;
//! - the full-outcome-set sweep mode (`OutcomeMode::FullOutcomes`) must
//!   agree with `verify_full`-style per-call streaming enumeration on
//!   every test of the 1,701-test suite.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use proptest::prelude::*;
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

    /// The cached Power sweep and the naive per-cell §7 study classify
    /// every cell identically, for any subset of the suite and any
    /// thread count.
    #[test]
    fn power_engine_sweep_matches_naive_recompute(tests in arb_subset()) {
        let naive = run_matrix_naive(&SweepOptions::with_threads(1), &tests, &builtin_stack("power").unwrap().stacks);
        for threads in [1, 4] {
            let engine = Sweep::with_options(SweepOptions::with_threads(threads)).run_matrix(&tests, &builtin_stack("power").unwrap().stacks);
            prop_assert!(
                engine.rows() == naive.rows(),
                "power matrix (threads={threads}) diverged from naive recompute"
            );
        }
    }

    /// The same lock in full-outcome-set mode: sharing enumerations and
    /// outcome partitions across cells must not change any set-level
    /// classification.
    #[test]
    fn power_outcome_mode_matches_naive_recompute(tests in arb_subset()) {
        let serial = SweepOptions {
            threads: 1,
            outcome_mode: OutcomeMode::FullOutcomes,
            ..SweepOptions::default()
        };
        let naive = run_matrix_naive(&serial, &tests, &builtin_stack("power").unwrap().stacks);
        for threads in [1, 4] {
            let opts = SweepOptions {
                threads,
                outcome_mode: OutcomeMode::FullOutcomes,
                ..SweepOptions::default()
            };
            let engine = Sweep::with_options(opts).run_matrix(&tests, &builtin_stack("power").unwrap().stacks);
            prop_assert!(
                engine.rows() == naive.rows(),
                "outcome-mode power matrix (threads={threads}) diverged from naive recompute"
            );
        }
    }
}

/// The §7 acceptance criterion: over the full 1,701-test suite, the
/// `power` matrix produces exactly the counterexample counts of the
/// naive per-cell study, and upholds the exactly-once contract: one C11
/// verdict per test, one compile per (test, sync style), and one
/// enumeration per distinct Power program across all {mapping × model}
/// cells.
#[test]
fn full_suite_power_sweep_matches_naive_and_upholds_contract() {
    let tests = suite::full_suite();
    let engine = Sweep::new().run_matrix(&tests, &builtin_stack("power").unwrap().stacks);
    let naive = run_matrix_naive(
        &SweepOptions::default(),
        &tests,
        &builtin_stack("power").unwrap().stacks,
    );
    assert_eq!(engine.rows(), naive.rows());

    let stats = engine.stats();
    assert_eq!(stats.tests, 1701);
    assert_eq!(stats.cells, 4);
    assert_eq!(stats.c11_evaluations, 1701, "one C11 verdict per test");
    assert_eq!(
        stats.compile_calls,
        1701 * 2,
        "one compile per (test, sync style)"
    );
    assert_eq!(
        stats.compile_cache_hits,
        1701 * 4 - stats.compile_calls,
        "every other cell visit reuses a compiled program"
    );
    assert_eq!(
        stats.space_enumerations, stats.distinct_programs,
        "each distinct Power program is enumerated exactly once"
    );
    assert!(stats.distinct_programs > 0);
    // Leading- and trailing-sync agree on relaxed-only code, so
    // deduplication must find strictly fewer programs than pairs.
    assert!(stats.distinct_programs < stats.compile_calls);

    // The paper's §7 finding, via the cached sweep: the trailing-sync
    // mapping is invalidated on the compliant ARMv7-A9like machine while
    // leading-sync survives.
    let leading = engine.bugs_for(
        StackKey {
            isa: "Power",
            variant: "leading-sync",
        },
        "ARMv7-A9like",
    );
    let trailing = engine.bugs_for(
        StackKey {
            isa: "Power",
            variant: "trailing-sync",
        },
        "ARMv7-A9like",
    );
    assert_eq!(leading, 0, "leading-sync must survive on ARMv7-A9like");
    assert!(trailing > 0, "trailing-sync must be invalidated");
    // And the load→load-hazard machine breaks even leading-sync (§1–§2).
    let hazard = engine.bugs_for(
        StackKey {
            isa: "Power",
            variant: "leading-sync",
        },
        "ARMv7-A9-ldld-hazard",
    );
    assert!(hazard > 0, "the A9 erratum must surface under leading-sync");
}

/// Classification counts per family from per-call streaming enumeration
/// (the pre-engine `verify_full` pipeline: free-function outcome sets,
/// no shared spaces, no partitions) — the oracle for outcome mode.
fn streaming_oracle_rows(
    tests: &[LitmusTest],
    permitted: &[std::collections::BTreeSet<Outcome>],
    mapping: &dyn Mapping,
    model: &UarchModel,
) -> BTreeMap<&'static str, (usize, usize, usize)> {
    let mut by_family: BTreeMap<&'static str, (usize, usize, usize)> = BTreeMap::new();
    for (test, permitted) in tests.iter().zip(permitted) {
        let compiled = compile(test, mapping).expect("suite compiles");
        let observable = model.observable_outcomes(compiled.program(), compiled.observed());
        let entry = by_family.entry(test.family()).or_default();
        if observable.difference(permitted).next().is_some() {
            entry.0 += 1;
        } else if permitted.difference(&observable).next().is_some() {
            entry.1 += 1;
        } else {
            entry.2 += 1;
        }
    }
    by_family
}

/// The outcome-set sweep mode agrees with `verify_full`-style per-call
/// enumeration on all 1,701 tests: for every {mapping × model} cell of
/// the §7 study, the engine's set-level classification counts equal the
/// ones recomputed test-by-test with the one-shot streaming pipeline.
#[test]
fn outcome_mode_agrees_with_per_call_enumeration_on_full_suite() {
    let tests = suite::full_suite();
    let opts = SweepOptions {
        outcome_mode: OutcomeMode::FullOutcomes,
        ..SweepOptions::default()
    };
    let engine =
        Sweep::with_options(opts).run_matrix(&tests, &builtin_stack("power").unwrap().stacks);

    // The C11 permitted sets, once per test via the streaming free
    // function (deliberately NOT the space engine).
    let c11 = C11Model::new();
    let permitted: Vec<_> = tests.iter().map(|t| c11.permitted_outcomes(t)).collect();

    for style in PowerSyncStyle::ALL {
        let mapping = power_mapping(style);
        for model in UarchModel::all_armv7() {
            let oracle = streaming_oracle_rows(&tests, &permitted, mapping, &model);
            let key = StackKey {
                isa: "Power",
                variant: style.label(),
            };
            for (family, (bugs, strict, equivalent)) in oracle {
                let row = engine
                    .row(key, model.name(), family)
                    .unwrap_or_else(|| panic!("missing row {style} {} {family}", model.name()));
                assert_eq!(
                    (row.bugs, row.overly_strict, row.equivalent),
                    (bugs, strict, equivalent),
                    "outcome-mode divergence: {style} on {} family {family}",
                    model.name()
                );
            }
        }
    }
}

/// `TriCheck::verify_full` (now routed through the shared-space
/// `outcome_set` engine) agrees with the streaming per-call enumeration,
/// across one full family × every §7 cell.
#[test]
fn verify_full_routing_matches_streaming_enumeration() {
    let c11 = C11Model::new();
    for style in PowerSyncStyle::ALL {
        let mapping = power_mapping(style);
        for model in UarchModel::all_armv7() {
            let stack = TriCheck::new(mapping, model.clone());
            for test in cached_suite().iter().filter(|t| t.family() == "corr") {
                let cmp = stack.verify_full(test).expect("suite compiles");
                let permitted = c11.permitted_outcomes(test);
                let compiled = compile(test, mapping).expect("suite compiles");
                let observable = model.observable_outcomes(compiled.program(), compiled.observed());
                assert_eq!(cmp.permitted(), &permitted, "{}", test.name());
                assert_eq!(cmp.observable(), &observable, "{}", test.name());
            }
        }
    }
}
