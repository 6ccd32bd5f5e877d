//! The traced pass: a workload's pipeline driven through each crate's
//! public functions in pipeline order — C11 verdict → compile →
//! enumerate → judge per model → store — with every call inside a span.
//!
//! The calls mirror what the engine does for the same inputs
//! (`tricheck_core::Sweep` for the sweeps, `TriCheck::verify` for
//! single-test requests), so the verdicts must match the same reference
//! and the span times add up to the cost of each layer. What runs
//! between spans — space lookup, binding a candidate, classification —
//! is the glue the untraced engine pays too, and shows as the share of
//! the pass that no span covers.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tricheck_c11::C11Model;
use tricheck_compiler::{compile, Mapping};
use tricheck_core::{C11Cached, Classification, MatrixStack, OutcomeMode, SpaceStore};
use tricheck_dist::DiskStore;
use tricheck_isa::HwAnnot;
use tricheck_litmus::{ExecutionSpace, LitmusTest, Outcome, Program, Reg};
use tricheck_rel::EvalScratch;
use tricheck_uarch::{HwBinding, UarchModel};

use crate::spans::Tracer;

pub type Space = ExecutionSpace<HwAnnot>;

/// Work counts a traced pass takes at the layer boundaries.
#[derive(Clone, Copy, Default, Debug)]
pub struct PassCounts {
    /// C11 verdicts evaluated (not loaded from a store).
    pub c11_evaluations: u64,
    /// `compile` calls.
    pub compiles: u64,
    /// Distinct compiled programs, one execution space each.
    pub distinct_programs: u64,
    /// Enumeration passes the spaces ran.
    pub enumerations: u64,
    /// Search branches cut by pruning across those enumerations.
    pub pruned_branches: u64,
    /// Candidates in the materialized views (sweeps), or candidates the
    /// streaming witness search produced (single-test requests).
    pub candidates: u64,
    /// Candidate judgements by a compiled kernel.
    pub checks: u64,
    /// Judgements that found the candidate consistent.
    pub consistent: u64,
}

/// One traced pass over a workload's inputs.
pub struct Pass {
    /// Wall time of the pass, in seconds.
    pub wall_s: f64,
    pub tracer: Tracer,
    /// Verdicts in the same order as the untraced repetition's.
    pub items: Vec<Option<Classification>>,
    pub counts: PassCounts,
    /// Every materialized space with the request that created it.
    pub spaces: Vec<(u32, Arc<Space>)>,
    /// The Step 1 result per test, in test order.
    pub c11: Vec<C11Cached>,
}

/// Step 4 for one target outcome.
pub fn classify_target(permitted: bool, observable: bool) -> Classification {
    match (permitted, observable) {
        (false, true) => Classification::Bug,
        (true, false) => Classification::OverlyStrict,
        _ => Classification::Equivalent,
    }
}

/// Step 4 over outcome sets.
fn classify_sets(permitted: &BTreeSet<Outcome>, observable: &BTreeSet<Outcome>) -> Classification {
    if observable.difference(permitted).next().is_some() {
        Classification::Bug
    } else if permitted.difference(observable).next().is_some() {
        Classification::OverlyStrict
    } else {
        Classification::Equivalent
    }
}

/// The distinct mappings of a matrix (by identity, as the engine
/// deduplicates them) and each stack's index into that list.
fn mapping_columns<'m>(stacks: &[MatrixStack<'m>]) -> (Vec<&'m dyn Mapping>, Vec<usize>) {
    let mut mappings: Vec<&'m dyn Mapping> = Vec::new();
    let columns = stacks
        .iter()
        .map(|stack| {
            #[allow(ambiguous_wide_pointer_comparisons)]
            let found = mappings
                .iter()
                .position(|m| std::ptr::eq(*m as *const dyn Mapping, stack.mapping));
            found.unwrap_or_else(|| {
                mappings.push(stack.mapping);
                mappings.len() - 1
            })
        })
        .collect();
    (mappings, columns)
}

/// A matrix sweep, test-major like the engine. With `store`, C11
/// verdicts and spaces are loaded before they are computed, as the
/// engine does with a store attached.
pub fn sweep_pass(
    tests: &[LitmusTest],
    stacks: &[MatrixStack<'_>],
    mode: OutcomeMode,
    store_dir: Option<&Path>,
) -> Pass {
    let (mappings, columns) = mapping_columns(stacks);
    let c11 = C11Model::new();
    let mut tr = Tracer::new();
    let mut counts = PassCounts::default();
    let mut by_program: HashMap<Program<HwAnnot>, Arc<Space>> = HashMap::new();
    let mut spaces = Vec::new();
    let mut c11_entries = Vec::with_capacity(tests.len());
    let mut items = Vec::with_capacity(tests.len() * stacks.len());
    let start = Instant::now();
    let store = store_dir.map(|dir| {
        tr.span("dist.open", 0, |_| {
            DiskStore::open(dir).expect("the benchmark's store directory opens")
        })
    });
    let store = store.as_ref();
    for (t, test) in tests.iter().enumerate() {
        let req = u32::try_from(t).expect("suite fits u32");
        let loaded = store.and_then(|s| tr.span("dist.load_c11", req, |_| s.load_c11(test, mode)));
        let entry = loaded.unwrap_or_else(|| {
            counts.c11_evaluations += 1;
            tr.span("c11", req, |_| match mode {
                OutcomeMode::Target => C11Cached::Target(c11.permits_target(test)),
                OutcomeMode::FullOutcomes => C11Cached::Full(c11.permitted_outcomes(test)),
            })
        });
        let mut programs = Vec::with_capacity(mappings.len());
        for mapping in &mappings {
            counts.compiles += 1;
            let Ok(compiled) = tr.span("compiler", req, |_| compile(test, *mapping)) else {
                programs.push(None);
                continue;
            };
            let space = if let Some(space) = by_program.get(compiled.program()) {
                Arc::clone(space)
            } else {
                let loaded = store.and_then(|s| {
                    tr.span("dist.load_space", req, |_| s.load_space(compiled.program()))
                });
                let space = match loaded {
                    Some(space) => space.into_pruned(),
                    None => Space::pruned(compiled.program().clone()),
                };
                let materialized = tr.span("litmus", req, |_| match mode {
                    OutcomeMode::Target => space.matching(compiled.target()).len(),
                    OutcomeMode::FullOutcomes => {
                        let _ = space.outcome_groups(compiled.observed());
                        space.executions().len()
                    }
                });
                let stats = space.stats();
                counts.distinct_programs += 1;
                counts.enumerations += stats.enumerations as u64;
                counts.pruned_branches += stats.candidates_pruned as u64;
                counts.candidates += materialized as u64;
                let space = Arc::new(space);
                by_program.insert(compiled.program().clone(), Arc::clone(&space));
                spaces.push((req, Arc::clone(&space)));
                space
            };
            programs.push(Some((compiled, space)));
        }
        for (stack, &column) in stacks.iter().zip(&columns) {
            let Some((compiled, space)) = &programs[column] else {
                items.push(None);
                continue;
            };
            let classification = match &entry {
                C11Cached::Target(permitted) => {
                    let observable = tr.span("uarch", req, |tr| {
                        judge_target(tr, req, &stack.model, space, compiled.target(), &mut counts)
                    });
                    classify_target(*permitted, observable)
                }
                C11Cached::Full(permitted) => {
                    let observable = tr.span("uarch", req, |tr| {
                        judge_outcomes(
                            tr,
                            req,
                            &stack.model,
                            space,
                            compiled.observed(),
                            &mut counts,
                        )
                    });
                    classify_sets(permitted, &observable)
                }
            };
            items.push(Some(classification));
        }
        c11_entries.push(entry);
    }
    let wall_s = start.elapsed().as_secs_f64();
    Pass {
        wall_s,
        tracer: tr,
        items,
        counts,
        spaces,
        c11: c11_entries,
    }
}

/// `UarchModel::observes_in`, spelled out: the space's target view
/// streamed through one cursor, one prelude per stream, stopping at the
/// first consistent candidate.
fn judge_target(
    tr: &mut Tracer,
    req: u32,
    model: &UarchModel,
    space: &Space,
    target: &Outcome,
    counts: &mut PassCounts,
) -> bool {
    let kernel = model.compiled();
    let view = space.matching(target);
    let indices = view.indices();
    let Some(mut cursor) = view.arena().cursor() else {
        return false;
    };
    let Some(&first) = indices.first() else {
        return false;
    };
    cursor.at(first);
    let binding = HwBinding::with_fr(cursor.exec(), cursor.fr().clone());
    let prelude = tr.span("rel.prelude", req, |_| kernel.prelude(&binding));
    drop(binding);
    let mut scratch = EvalScratch::default();
    for &i in indices.iter() {
        cursor.at(i);
        let binding = HwBinding::with_fr(cursor.exec(), cursor.fr().clone());
        counts.checks += 1;
        if tr.span("rel.check", req, |_| {
            kernel.consistent_with_scratch(&prelude, &binding, &mut scratch)
        }) {
            counts.consistent += 1;
            return true;
        }
    }
    false
}

/// `UarchModel::observable_outcomes_in`, spelled out: per outcome group
/// of the full space, stop at the first consistent member.
fn judge_outcomes(
    tr: &mut Tracer,
    req: u32,
    model: &UarchModel,
    space: &Space,
    observed: &[(usize, Reg)],
    counts: &mut PassCounts,
) -> BTreeSet<Outcome> {
    let kernel = model.compiled();
    let view = space.executions();
    let groups = space.outcome_groups(observed);
    let mut out = BTreeSet::new();
    let Some(mut cursor) = view.arena().cursor() else {
        return out;
    };
    cursor.at(0);
    let binding = HwBinding::with_fr(cursor.exec(), cursor.fr().clone());
    let prelude = tr.span("rel.prelude", req, |_| kernel.prelude(&binding));
    drop(binding);
    let mut scratch = EvalScratch::default();
    for (outcome, members) in groups.iter() {
        for &i in members {
            cursor.at(i);
            let binding = HwBinding::with_fr(cursor.exec(), cursor.fr().clone());
            counts.checks += 1;
            if tr.span("rel.check", req, |_| {
                kernel.consistent_with_scratch(&prelude, &binding, &mut scratch)
            }) {
                counts.consistent += 1;
                out.insert(outcome.clone());
                break;
            }
        }
    }
    out
}

/// Single-test requests, each `TriCheck::verify` spelled out: C11
/// verdict, compile, and a streaming witness search whose candidates are
/// judged one-shot (a prelude per candidate, a fresh scratch).
pub fn verify_pass(
    tests: &[LitmusTest],
    mapping: &dyn Mapping,
    models: &[&UarchModel],
    requests: &[(usize, usize)],
) -> Pass {
    let c11 = C11Model::new();
    let mut tr = Tracer::new();
    let mut counts = PassCounts::default();
    let mut items = Vec::with_capacity(requests.len());
    let start = Instant::now();
    for &(t, m) in requests {
        let req = u32::try_from(t).expect("suite fits u32");
        let test = &tests[t];
        let kernel = models[m].compiled();
        counts.c11_evaluations += 1;
        let permitted = tr.span("c11", req, |_| c11.permits_target(test));
        counts.compiles += 1;
        let Ok(compiled) = tr.span("compiler", req, |_| compile(test, mapping)) else {
            items.push(None);
            continue;
        };
        let observable = tr.span("uarch", req, |tr| {
            Space::witness_search(compiled.program(), compiled.target(), |exec| {
                counts.candidates += 1;
                counts.checks += 1;
                let binding = HwBinding::new(exec);
                let prelude = tr.span("rel.prelude", req, |_| kernel.prelude(&binding));
                let ok = tr.span("rel.check", req, |_| {
                    kernel.consistent_with_scratch(&prelude, &binding, &mut EvalScratch::default())
                });
                counts.consistent += u64::from(ok);
                ok
            })
        });
        items.push(Some(classify_target(permitted, observable)));
    }
    let wall_s = start.elapsed().as_secs_f64();
    Pass {
        wall_s,
        tracer: tr,
        items,
        counts,
        spaces: Vec::new(),
        c11: Vec::new(),
    }
}

/// Writes spaces and C11 verdicts to `store` the way the engine
/// persists a run, each call inside a span.
pub fn save_all(
    tr: &mut Tracer,
    store: &DiskStore,
    tests: &[LitmusTest],
    c11: &[C11Cached],
    spaces: &[(u32, Arc<Space>)],
) {
    for (req, space) in spaces {
        tr.span("dist.save_space", *req, |_| store.save_space(space));
    }
    for (t, (test, entry)) in tests.iter().zip(c11).enumerate() {
        let req = u32::try_from(t).expect("suite fits u32");
        tr.span("dist.save_c11", req, |_| store.save_c11(test, entry));
    }
    tr.span("dist.flush", 0, |_| store.flush());
}

/// Reads back every C11 verdict and space [`save_all`] wrote, each call
/// inside a span. Returns how many loads missed (0 for a complete
/// store).
pub fn load_all(
    tr: &mut Tracer,
    store: &DiskStore,
    tests: &[LitmusTest],
    mode: OutcomeMode,
    spaces: &[(u32, Arc<Space>)],
) -> usize {
    let mut misses = 0;
    for (t, test) in tests.iter().enumerate() {
        let req = u32::try_from(t).expect("suite fits u32");
        misses += usize::from(
            tr.span("dist.load_c11", req, |_| store.load_c11(test, mode))
                .is_none(),
        );
    }
    for (req, space) in spaces {
        let loaded = tr.span("dist.load_space", *req, |_| {
            store.load_space(space.program())
        });
        misses += usize::from(loaded.is_none());
    }
    misses
}
