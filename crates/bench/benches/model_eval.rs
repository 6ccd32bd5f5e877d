//! Model-evaluation bench: the compiled bitset kernels against the
//! test-only naive IR interpreter and imperative checker
//! (`tricheck-oracle`), and axiom-pruned against unpruned enumeration,
//! on the wrc/iriw families (the shapes the paper's §5 bugs live in).
//!
//! Three questions this answers after every model-layer change:
//!
//! 1. What does a candidate verdict cost on the production path — a
//!    `Judge` streaming candidates through the compiled kernel under
//!    one space-invariant prelude (`judge`, the shape every judgement
//!    runs) — against the hand-written checker and the naive
//!    interpreter?
//! 2. How much interpretation overhead does compilation remove
//!    (`interpreter` vs `compiled`)?
//! 3. What does fusing save? A sweep judges each candidate under all
//!    seven Table 7 models of a mapping with one fused kernel (shared
//!    terms evaluated once, one verdict bit per model); `per-model`
//!    judges the same candidates with the seven models' own kernels in
//!    turn. `stream` replays one prelude across every candidate;
//!    `restart` begins a new stream per candidate, the shape of target
//!    mode, where a stream has about one candidate.
//! 4. What does axiom-driven pruning save (or cost), in enumeration
//!    alone and in a pruned against an unpruned `ExecutionSpace` judged
//!    by all seven µarch models, where each prune check rebuilds the
//!    branch's partial coherence core as a bitset relation and tests
//!    its acyclicity?
//!
//! Set `TRICHECK_BENCH_QUICK=1` to run a fast smoke pass (CI): fewer
//! samples and the per-candidate variants only.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use tricheck_compiler::{compile, riscv_mapping};
use tricheck_core::{riscv_stacks, Sweep};
use tricheck_isa::{HwAnnot, RiscvIsa, SpecVersion};
use tricheck_litmus::{
    enumerate_executions, enumerate_executions_pruned, suite, ConsistencyModel, Execution,
    ExecutionSpace, LitmusTest,
};
use tricheck_oracle::{interpret, uarch_check, UarchConfig};
use tricheck_rel::Judge;
use tricheck_uarch::{HwBinding, UarchModel};

fn family(name: &str) -> Vec<LitmusTest> {
    suite::full_suite()
        .into_iter()
        .filter(|t| t.family() == name)
        .collect()
}

fn quick() -> bool {
    std::env::var_os("TRICHECK_BENCH_QUICK").is_some_and(|v| v == "1")
}

/// Every candidate execution of one representative compiled variant.
fn candidates(test: &LitmusTest) -> Vec<Execution<HwAnnot>> {
    let mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
    let compiled = compile(test, mapping).expect("compiles");
    let mut all = Vec::new();
    enumerate_executions(compiled.program(), &mut |e| {
        all.push(e.clone());
        true
    });
    all
}

fn bench_model_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_eval");
    if quick() {
        group.sample_size(2);
    }

    // --- compiled kernel vs interpreter vs imperative, per candidate ---
    for fam in ["wrc", "iriw"] {
        let test = &family(fam)[0];
        let execs = candidates(test);
        let models = [
            (
                UarchModel::nmm(SpecVersion::Curr),
                UarchConfig::nmm(SpecVersion::Curr),
            ),
            (
                UarchModel::a9like(SpecVersion::Ours),
                UarchConfig::a9like(SpecVersion::Ours),
            ),
        ];
        for (model, config) in &models {
            let ir = model.ir();
            let kernel = model.compiled(); // compile outside the timed region
            group.bench_function(format!("{fam}/{}/imperative", model.name()), |b| {
                b.iter(|| {
                    execs
                        .iter()
                        .filter(|e| uarch_check(black_box(e), config).is_ok())
                        .count()
                });
            });
            group.bench_function(format!("{fam}/{}/interpreter", model.name()), |b| {
                b.iter(|| {
                    execs
                        .iter()
                        .filter(|e| interpret(ir, &HwBinding::new(black_box(e))).is_ok())
                        .count()
                });
            });
            // The one-shot kernel form: the prelude is rebuilt per
            // candidate.
            group.bench_function(format!("{fam}/{}/compiled", model.name()), |b| {
                b.iter(|| {
                    execs
                        .iter()
                        .filter(|e| kernel.consistent(&HwBinding::new(black_box(e))))
                        .count()
                });
            });
            // The production shape: one `Judge` per stream evaluates the
            // space-invariant prelude on its first candidate and replays
            // it, with evaluation buffers reused across candidates.
            group.bench_function(format!("{fam}/{}/judge", model.name()), |b| {
                let mut judge = Judge::new(kernel);
                b.iter(|| {
                    execs
                        .iter()
                        .filter(|e| judge.check(&HwBinding::new(black_box(e))).is_ok())
                        .count()
                });
            });
        }
    }

    // --- one fused riscv-curr kernel vs its seven per-model kernels ---
    let models = UarchModel::all_riscv(SpecVersion::Curr);
    let fused = UarchModel::fuse(&models.iter().collect::<Vec<_>>());
    let live = u64::MAX >> (64 - models.len());
    for fam in ["wrc", "iriw"] {
        let execs = candidates(&family(fam)[0]);
        for (shape, restart) in [("stream", false), ("restart", true)] {
            group.bench_function(format!("{fam}/riscv-curr/per-model/{shape}"), |b| {
                let mut judges: Vec<Judge<'_>> =
                    models.iter().map(|m| Judge::new(m.compiled())).collect();
                b.iter(|| {
                    let mut consistent = 0;
                    for e in &execs {
                        let binding = HwBinding::new(black_box(e));
                        for (judge, model) in judges.iter_mut().zip(&models) {
                            if restart {
                                judge.restart(model.compiled());
                            }
                            consistent += usize::from(judge.check(&binding).is_ok());
                        }
                    }
                    consistent
                });
            });
            group.bench_function(format!("{fam}/riscv-curr/fused/{shape}"), |b| {
                let mut judge = Judge::new(&fused);
                b.iter(|| {
                    let mut consistent = 0;
                    for e in &execs {
                        if restart {
                            judge.restart(&fused);
                        }
                        let mask = judge.check_mask(&HwBinding::new(black_box(e)), live);
                        consistent += mask.count_ones() as usize;
                    }
                    consistent
                });
            });
        }
    }

    if quick() {
        group.finish();
        return;
    }

    // --- Pruned vs unpruned enumeration over the compiled families ---
    for fam in ["wrc", "iriw"] {
        let tests = family(fam);
        let mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
        let compiled: Vec<_> = tests
            .iter()
            .map(|t| compile(t, mapping).expect("compiles"))
            .collect();
        let programs: Vec<_> = compiled.iter().map(|c| c.program().clone()).collect();
        group.bench_function(format!("{fam}/enumerate/unpruned"), |b| {
            b.iter(|| {
                let mut n = 0usize;
                for p in &programs {
                    enumerate_executions(black_box(p), &mut |_| {
                        n += 1;
                        true
                    });
                }
                n
            });
        });
        group.bench_function(format!("{fam}/enumerate/pruned"), |b| {
            b.iter(|| {
                let mut n = 0usize;
                for p in &programs {
                    let _ = enumerate_executions_pruned(black_box(p), &mut |_| {
                        n += 1;
                        true
                    });
                }
                n
            });
        });
        // Enumeration plus judgement: each program's space, unpruned
        // or pruned, judged by all seven µarch models as a sweep judges
        // it.
        let models = UarchModel::all_riscv(SpecVersion::Curr);
        for (label, space_of) in [
            ("unpruned", ExecutionSpace::new as fn(_) -> _),
            ("pruned", ExecutionSpace::pruned),
        ] {
            group.bench_function(format!("{fam}/space/{label}"), |b| {
                b.iter(|| {
                    let mut observed = 0usize;
                    for c in &compiled {
                        let space = space_of(black_box(c.program().clone()));
                        for model in &models {
                            observed += usize::from(model.permits(&space, c.target()));
                        }
                    }
                    observed
                });
            });
        }
    }

    group.finish();

    // Context for the end-to-end numbers above: one traced wrc sweep's
    // per-phase breakdown shows where the sweep time actually goes.
    let (_, trace) =
        tricheck_bench::timed_report(|| Sweep::new().run_matrix(&family("wrc"), &riscv_stacks()));
    println!("\nwrc sweep phase breakdown:\n{}", trace.render_text());
}

criterion_group!(benches, bench_model_eval);
criterion_main!(benches);
