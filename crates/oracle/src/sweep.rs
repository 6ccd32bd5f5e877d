//! The per-cell reference sweep: what `Sweep::run_matrix` computed
//! before the shared execution-space engine, kept as its differential
//! oracle.
//!
//! Every cell recompiles each test and re-enumerates its candidates
//! from scratch through a one-shot, unpruned stream (the C11 verdicts
//! are still computed once per test — the pre-engine pipeline always
//! shared those). Rows aggregate through the engine's public
//! `results_from_items`, so a divergence is a verdict difference, never
//! an aggregation one.

use std::collections::BTreeSet;

use tricheck_c11::C11Model;
use tricheck_compiler::compile;
use tricheck_core::{
    results_from_items, C11Cached, Classification, MatrixStack, OutcomeMode, SweepOptions,
    SweepResults, SweepStats,
};
use tricheck_litmus::{ConsistencyModel, LitmusTest, Outcome};

/// Sweeps `tests` over `stacks` cell by cell, honouring the options'
/// thread count and outcome mode. The rows must equal
/// `Sweep::with_options(options).run_matrix(tests, stacks)`'s; `stats()`
/// is all zeros.
#[must_use]
pub fn run_matrix_naive(
    options: &SweepOptions,
    tests: &[LitmusTest],
    stacks: &[MatrixStack<'_>],
) -> SweepResults {
    let hll = C11Model::new();
    let c11 = parallel_map(tests, options.threads, |t| match options.outcome_mode {
        OutcomeMode::Target => C11Cached::Target(hll.permits_target(t)),
        OutcomeMode::FullOutcomes => C11Cached::Full(hll.permitted_outcomes(t)),
    });
    let mut items = vec![None; tests.len() * stacks.len()];
    for (s, stack) in stacks.iter().enumerate() {
        let indexed: Vec<(usize, &LitmusTest)> = tests.iter().enumerate().collect();
        let cell = parallel_map(&indexed, options.threads, |&(t, test)| {
            let compiled = compile(test, stack.mapping).ok()?;
            Some(match &c11[t] {
                C11Cached::Target(permitted) => {
                    let observable = stack.model.observes(compiled.program(), compiled.target());
                    classify(*permitted, observable)
                }
                C11Cached::Full(permitted) => {
                    let observable = stack
                        .model
                        .observable_outcomes(compiled.program(), compiled.observed());
                    classify_sets(permitted, &observable)
                }
            })
        });
        for (t, class) in cell.into_iter().enumerate() {
            items[t * stacks.len() + s] = class;
        }
    }
    results_from_items(tests, stacks, &items, SweepStats::default())
}

/// The Step 4 quadrant of a target-outcome verdict pair.
fn classify(permitted: bool, observable: bool) -> Classification {
    match (permitted, observable) {
        (false, true) => Classification::Bug,
        (true, false) => Classification::OverlyStrict,
        _ => Classification::Equivalent,
    }
}

/// The set-level verdict: any observable outcome C11 forbids is a bug;
/// otherwise any permitted outcome the hardware never shows is
/// strictness.
fn classify_sets(permitted: &BTreeSet<Outcome>, observable: &BTreeSet<Outcome>) -> Classification {
    if observable.difference(permitted).next().is_some() {
        Classification::Bug
    } else if permitted.difference(observable).next().is_some() {
        Classification::OverlyStrict
    } else {
        Classification::Equivalent
    }
}

/// Applies `f` to every item, splitting the work over `threads` OS
/// threads. Order of results matches the input order.
fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut results: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| s.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        results = handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect();
    });
    results.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, 7, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_single_threaded_fallback() {
        let items = vec![1, 2, 3];
        assert_eq!(parallel_map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
    }
}
