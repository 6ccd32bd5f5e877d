//! Property-based integration tests over randomly drawn litmus variants:
//! structural soundness relations that must hold between the models,
//! regardless of memory orders.

use proptest::prelude::*;
use tricheck::core::diagnose;
use tricheck::prelude::*;
use tricheck::rel::Judge;
use tricheck::uarch::HwBinding;
use tricheck_oracle::{
    c11_check, interpret, random_ir, run_matrix_naive, uarch_check, UarchConfig,
};

/// Strategy: a random template index and a random order assignment.
fn arb_variant() -> impl Strategy<Value = LitmusTest> {
    (0usize..7, proptest::collection::vec(0usize..3, 6)).prop_map(|(t, picks)| {
        let templates = suite::all_templates();
        let template = &templates[t];
        let orders: Vec<MemOrder> = template
            .slots()
            .iter()
            .zip(&picks)
            .map(|(kind, &p)| kind.orders()[p])
            .collect();
        template.instantiate(&orders)
    })
}

/// Strengthen one slot of a variant (rlx -> acq/rel -> sc), if possible.
fn strengthen(test: &LitmusTest) -> Option<LitmusTest> {
    let templates = suite::all_templates();
    let template = templates.iter().find(|t| t.name() == test.family())?;
    // Recover the orders from the name suffix.
    let orders: Vec<MemOrder> = test
        .name()
        .split('+')
        .skip(1)
        .map(|s| match s {
            "rlx" => MemOrder::Rlx,
            "acq" => MemOrder::Acq,
            "rel" => MemOrder::Rel,
            "sc" => MemOrder::Sc,
            other => panic!("unexpected order {other}"),
        })
        .collect();
    for i in 0..orders.len() {
        let stronger = match orders[i] {
            MemOrder::Rlx => match template.slots()[i] {
                tricheck::litmus::SlotKind::Load => MemOrder::Acq,
                tricheck::litmus::SlotKind::Store => MemOrder::Rel,
            },
            MemOrder::Acq | MemOrder::Rel => MemOrder::Sc,
            _ => continue,
        };
        let mut new_orders = orders.clone();
        new_orders[i] = stronger;
        return Some(template.instantiate(&new_orders));
    }
    None
}

/// The full Figure 15 and §7 sweeps, whose shared spaces are
/// axiom-pruned, are bit-identical to the unpruned per-cell reference
/// (`run_matrix_naive`) — and pruning actually fires — across all 1,701
/// tests, in both outcome modes. The production cell verdicts come from
/// the compiled bitset kernels, so this differential run also pins the
/// compiled path against the same rows the tree-walking era produced.
/// (The committed golden fixtures, generated before the IR, pruning and
/// the compiler landed, pin the same rows a third way.)
#[test]
fn full_suite_sweeps_are_identical_with_and_without_pruning() {
    let tests = suite::full_suite();
    let sweep = Sweep::new();
    let a = sweep.run_matrix(&tests, &riscv_stacks());
    let b = run_matrix_naive(&SweepOptions::default(), &tests, &riscv_stacks());
    assert_eq!(a.rows(), b.rows(), "Figure 15 rows must not move");
    assert!(
        a.stats().candidates_pruned > 0,
        "pruning must fire on the full suite"
    );
    assert!(
        a.stats().compiled_kernels > 0,
        "the compiled path must be active"
    );

    let power = builtin_stack("power").unwrap().stacks;
    assert_eq!(
        sweep.run_matrix(&tests, &power).rows(),
        run_matrix_naive(&SweepOptions::default(), &tests, &power).rows(),
        "§7 rows must not move"
    );

    // Full-outcome mode exercises the other verdict surface
    // (`allowed_outcomes` instead of `permits`) over the same spaces.
    let full = SweepOptions {
        outcome_mode: OutcomeMode::FullOutcomes,
        ..SweepOptions::default()
    };
    assert_eq!(
        Sweep::with_options(full.clone())
            .run_matrix(&tests, &riscv_stacks())
            .rows(),
        run_matrix_naive(&full, &tests, &riscv_stacks()).rows(),
        "full-outcome rows must not move"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The compiled C11 kernel, the naive IR interpreter, and the
    /// imperative oracle agree, verdict and first violated axiom, on
    /// every candidate execution of random suite variants. The kernel is
    /// the production path; the other two are the independent oracles
    /// it must match.
    #[test]
    fn ir_c11_agrees_with_the_imperative_oracle(test in arb_variant()) {
        let mut checked = 0;
        tricheck::litmus::enumerate_executions(test.program(), &mut |exec| {
            let binding = tricheck::c11::C11Binding::new(exec);
            let kernel = C11Model::compiled().check(&binding);
            assert_eq!(
                kernel,
                interpret(C11Model::ir(), &binding),
                "compiled C11 kernel disagrees with the interpreter on {} (candidate {checked})",
                test.name()
            );
            assert_eq!(
                kernel,
                c11_check(exec),
                "compiled C11 kernel disagrees with the oracle on {} (candidate {checked})",
                test.name()
            );
            checked += 1;
            checked < 200
        });
        prop_assert!(checked > 0);
    }

    /// Every registered µarch stack's compiled kernel agrees, verdict and
    /// first violated axiom, with the naive IR interpreter and, for the
    /// 16 built-in models the Table 7 knobs generate, with the imperative
    /// oracle on every candidate execution of random compiled variants
    /// (both spec versions, both RISC-V ISAs, the ARMv7 study machines,
    /// and the x86-TSO stacks). Each built-in's knobs are looked up by
    /// model name; x86-TSO has no knobs, so for it the interpreter is the
    /// oracle.
    #[test]
    fn ir_uarch_models_agree_with_the_imperative_oracles(test in arb_variant()) {
        let configs = UarchConfig::all_builtin();
        let mut stacks: Vec<(&dyn Mapping, UarchModel)> = Vec::new();
        for version in [SpecVersion::Curr, SpecVersion::Ours] {
            for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
                for model in UarchModel::all_riscv(version) {
                    stacks.push((riscv_mapping(isa, version), model));
                }
            }
        }
        for model in UarchModel::all_armv7() {
            stacks.push((power_mapping(PowerSyncStyle::Leading), model));
        }
        for stack in builtin_stack("x86-tso").unwrap().stacks {
            stacks.push((stack.mapping, stack.model));
        }
        for (mapping, model) in stacks {
            let compiled = compile(&test, mapping).unwrap();
            let mut checked = 0;
            tricheck::litmus::enumerate_executions(compiled.program(), &mut |exec| {
                let binding = HwBinding::new(exec);
                let kernel = model.compiled().check(&binding);
                assert_eq!(
                    kernel,
                    interpret(model.ir(), &binding),
                    "{} compiled kernel disagrees with the interpreter on {} (candidate {checked})",
                    model.name(),
                    test.name()
                );
                let config = configs.iter().find(|c| c.name == model.name());
                assert_eq!(config.is_none(), model.name() == "x86-TSO", "{}", model.name());
                if let Some(config) = config {
                    assert_eq!(
                        kernel,
                        uarch_check(exec, config),
                        "{} compiled kernel disagrees with the oracle on {} (candidate {checked})",
                        model.name(),
                        test.name()
                    );
                }
                checked += 1;
                checked < 60
            });
            prop_assert!(checked > 0);
        }
    }

    /// `diagnose` judges with the kernel that produces sweep verdicts:
    /// on every one of the 34 registered stacks it reaches the same
    /// observability verdict as `TriCheck::verify`, and it carries a
    /// witness exactly when the target outcome is observable.
    #[test]
    fn diagnose_agrees_with_verify_on_every_registered_stack(test in arb_variant()) {
        let registry = StackRegistry::new();
        let stacks: Vec<_> = registry.entries().iter().flat_map(|e| &e.stacks).collect();
        prop_assert_eq!(stacks.len(), 34);
        for stack in stacks {
            let verdict = TriCheck::new(stack.mapping, stack.model.clone())
                .verify(&test)
                .unwrap();
            let d = diagnose(stack.mapping, &stack.model, &test).unwrap();
            prop_assert_eq!(d.uarch_observes, verdict.observable());
            prop_assert_eq!(d.witness.is_some(), verdict.observable());
            prop_assert_eq!(d.classification, verdict.classification());
        }
    }

    /// Pruned and unpruned enumeration produce the same
    /// [`ExecutionSpace`] up to the model-independent core: the pruned
    /// space holds exactly the core-consistent candidates, and every
    /// model's verdict over either space is identical.
    #[test]
    fn pruned_spaces_are_model_equivalent_to_unpruned(test in arb_variant()) {
        use tricheck::litmus::{core_consistent, ConsistencyModel, ExecutionSpace};
        let compiled = compile(&test, riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr)).unwrap();
        let full = ExecutionSpace::new(compiled.program().clone());
        let pruned = ExecutionSpace::pruned(compiled.program().clone());
        let filtered: Vec<_> = full
            .executions()
            .to_vec()
            .into_iter()
            .filter(core_consistent)
            .collect();
        prop_assert_eq!(pruned.executions().to_vec(), filtered);
        for model in UarchModel::all_riscv(SpecVersion::Curr) {
            prop_assert!(
                model.permits(&full, compiled.target())
                    == model.permits(&pruned, compiled.target()),
                "{} changes verdict under pruning on {}",
                model.name(),
                test.name()
            );
            prop_assert_eq!(
                model.allowed_outcomes(&full, compiled.observed()),
                model.allowed_outcomes(&pruned, compiled.observed())
            );
        }
    }

    /// Strengthening a memory order never enlarges the C11-permitted
    /// outcome set (C11 is monotone in ordering strength).
    #[test]
    fn c11_is_monotone_in_order_strength(test in arb_variant()) {
        if let Some(stronger) = strengthen(&test) {
            let model = C11Model::new();
            let weak = model.permitted_outcomes(&test);
            let strong = model.permitted_outcomes(&stronger);
            prop_assert!(
                strong.is_subset(&weak),
                "{} permits outcomes {} does not",
                stronger.name(),
                test.name()
            );
        }
    }

    /// Relaxing the microarchitecture never removes observable outcomes:
    /// each Table 7 model chain is ordered by observational strength.
    #[test]
    fn uarch_models_form_a_strength_chain(test in arb_variant()) {
        type ModelCtor = fn(SpecVersion) -> UarchModel;
        let mapping = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
        let compiled = compile(&test, mapping).unwrap();
        let chains: [&[ModelCtor]; 2] = [
            &[UarchModel::wr, UarchModel::rwr, UarchModel::rwm, UarchModel::rmm],
            &[UarchModel::nwr, UarchModel::nmm],
        ];
        for chain in chains {
            for pair in chain.windows(2) {
                let stronger = pair[0](SpecVersion::Curr);
                let weaker = pair[1](SpecVersion::Curr);
                let a = stronger.observable_outcomes(compiled.program(), compiled.observed());
                let b = weaker.observable_outcomes(compiled.program(), compiled.observed());
                prop_assert!(
                    a.is_subset(&b),
                    "{} observes outcomes {} does not on {}",
                    stronger.name(),
                    weaker.name(),
                    test.name()
                );
            }
        }
    }

    /// The refined (riscv-ours) stack is *sound* in the strong sense: on
    /// every model, every observable outcome is C11-permitted — not just
    /// for the designated target outcome.
    #[test]
    fn refined_stack_is_outcome_set_sound(test in arb_variant()) {
        let c11 = C11Model::new();
        let permitted = c11.permitted_outcomes(&test);
        for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
            let mapping = riscv_mapping(isa, SpecVersion::Ours);
            let compiled = compile(&test, mapping).unwrap();
            for model in [
                UarchModel::rmm(SpecVersion::Ours),
                UarchModel::nmm(SpecVersion::Ours),
                UarchModel::a9like(SpecVersion::Ours),
            ] {
                let observable =
                    model.observable_outcomes(compiled.program(), compiled.observed());
                prop_assert!(
                    observable.is_subset(&permitted),
                    "{} on {} ({isa}) shows non-C11 outcomes",
                    test.name(),
                    model.name()
                );
            }
        }
    }

    /// The strongest model (WR) under the strongest mapping never shows a
    /// C11-forbidden outcome, current ISA or not.
    #[test]
    fn wr_model_is_always_sound(test in arb_variant()) {
        let c11 = C11Model::new();
        let permitted = c11.permitted_outcomes(&test);
        for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
            let compiled = compile(&test, riscv_mapping(isa, SpecVersion::Curr)).unwrap();
            let model = UarchModel::wr(SpecVersion::Curr);
            let observable =
                model.observable_outcomes(compiled.program(), compiled.observed());
            prop_assert!(observable.is_subset(&permitted));
        }
    }

    /// Every candidate execution enumerated for a compiled test yields a
    /// well-formed outcome over exactly the observed registers.
    #[test]
    fn compiled_outcomes_are_well_formed(test in arb_variant()) {
        let compiled = compile(&test, riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr)).unwrap();
        let mut checked = 0;
        tricheck::litmus::enumerate_executions(compiled.program(), &mut |exec| {
            let outcome = exec.outcome(compiled.observed());
            assert_eq!(outcome.len(), compiled.observed().len());
            checked += 1;
            checked < 50 // bound the work per case
        });
        prop_assert!(checked > 0);
    }
}

proptest! {
    // Most random IRs judge every candidate of a program alike, so the
    // property needs more cases than the suite-model ones to reach the
    // IR shapes whose verdict varies by candidate.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The model compiler agrees with the naive interpreter, verdict and
    /// first violated axiom, on random IRs over the hardware vocabulary:
    /// every enumerated candidate of a random compiled variant is judged
    /// by one `Judge` (one shared prelude), as sweeps judge them.
    #[test]
    fn compiled_random_irs_agree_with_the_interpreter(
        seed in 0u64..u64::MAX,
        test in arb_variant()
    ) {
        let ir = random_ir(seed);
        let model = UarchModel::from_ir(ir.clone());
        let isa = if seed & 1 == 0 { RiscvIsa::Base } else { RiscvIsa::BaseA };
        let version = if seed & 2 == 0 { SpecVersion::Curr } else { SpecVersion::Ours };
        let compiled = compile(&test, riscv_mapping(isa, version)).unwrap();
        let mut judge = Judge::new(model.compiled());
        let mut checked = 0;
        tricheck::litmus::enumerate_executions(compiled.program(), &mut |exec| {
            let binding = HwBinding::new(exec);
            assert_eq!(
                judge.check(&binding),
                interpret(&ir, &binding),
                "seed {seed}: compiled kernel disagrees with the interpreter on {} \
                 (candidate {checked})\n{ir}",
                test.name()
            );
            checked += 1;
            checked < 60
        });
        prop_assert!(checked > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A fused kernel of 2–7 random IRs judges every model as the naive
    /// interpreter does: on each candidate, bit `j` of the mask is
    /// `interpret(ir_j)`'s verdict, and a narrower live mask gets the
    /// same bits for the models it keeps. One `Judge` is restarted
    /// across the fused kernel, a single-model kernel and programs of
    /// different universe sizes, so a scratch carried from one kernel
    /// or universe to the next must never leak a stale slot.
    #[test]
    fn fused_random_irs_agree_with_the_interpreter_per_model(
        seed in 0u64..u64::MAX,
        width in 2usize..8,
        test in arb_variant()
    ) {
        let irs: Vec<_> = (0..width as u64).map(|j| random_ir(seed ^ j.wrapping_mul(0x9e37_79b9))).collect();
        let models: Vec<UarchModel> = irs.iter().cloned().map(UarchModel::from_ir).collect();
        let fused = UarchModel::fuse(&models.iter().collect::<Vec<_>>());
        let single = models[width - 1].compiled();
        let live = u64::MAX >> (64 - width);
        let narrow = (seed >> 32) & live;
        let mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
        let mut judge = Judge::new(single);
        let mut universes = Vec::new();
        for test in [test, suite::mp([MemOrder::Rlx; 4]), suite::fig3_wrc()] {
            let compiled = compile(&test, mapping).unwrap();
            let program = compiled.program();
            judge.restart(&fused);
            let mut checked = 0;
            tricheck::litmus::enumerate_executions(program, &mut |exec| {
                let binding = HwBinding::new(exec);
                universes.push(exec.len());
                let mask = judge.check_mask(&binding, live);
                for (j, ir) in irs.iter().enumerate() {
                    assert_eq!(
                        mask >> j & 1 == 1,
                        interpret(ir, &binding).is_ok(),
                        "seed {seed}: fused bit {j} disagrees with the interpreter on {} \
                         (candidate {checked})\n{ir}",
                        test.name()
                    );
                }
                assert_eq!(judge.check_mask(&binding, narrow), mask & narrow);
                checked += 1;
                checked < 40
            });
            judge.restart(single);
            let mut checked = 0;
            tricheck::litmus::enumerate_executions(program, &mut |exec| {
                let binding = HwBinding::new(exec);
                assert_eq!(judge.check(&binding), interpret(&irs[width - 1], &binding));
                checked += 1;
                checked < 40
            });
        }
        universes.sort_unstable();
        universes.dedup();
        prop_assert!(universes.len() > 1, "the streams span several universe sizes");
    }
}

/// The kernel a sweep fuses from each registered stack's distinct
/// models (riscv's 14 Table 7 models, Power's 2 ARMv7 models, x86's one
/// TSO model) judges every candidate of each mapping's programs of a
/// suite subset, under that mapping's bits, exactly as its models' own
/// kernels do, bit by bit.
#[test]
fn fused_kernels_agree_with_their_models_on_every_registered_stack() {
    let tests: Vec<LitmusTest> = suite::full_suite().into_iter().step_by(29).collect();
    let registry = StackRegistry::new();
    let mut sets = 0;
    for entry in registry.entries() {
        let mut models: Vec<&UarchModel> = Vec::new();
        for stack in &entry.stacks {
            if !models.iter().any(|m| m.ir() == stack.model.ir()) {
                models.push(&stack.model);
            }
        }
        let bit_of = |model: &UarchModel| models.iter().position(|m| m.ir() == model.ir());
        let fused = UarchModel::fuse(&models);
        let mut judge = Judge::new(&fused);
        let mut own: Vec<Judge<'_>> = models.iter().map(|m| Judge::new(m.compiled())).collect();
        let mut mappings: Vec<&str> = entry.stacks.iter().map(|s| s.mapping.name()).collect();
        mappings.sort_unstable();
        mappings.dedup();
        for name in mappings {
            let stacks: Vec<&MatrixStack<'_>> = entry
                .stacks
                .iter()
                .filter(|s| s.mapping.name() == name)
                .collect();
            let live = stacks
                .iter()
                .filter_map(|s| bit_of(&s.model))
                .fold(0u64, |live, j| live | 1 << j);
            for test in &tests {
                let Ok(compiled) = compile(test, stacks[0].mapping) else {
                    continue;
                };
                judge.restart(&fused);
                for (j, model) in models.iter().enumerate() {
                    own[j].restart(model.compiled());
                }
                tricheck::litmus::enumerate_executions(compiled.program(), &mut |exec| {
                    let binding = HwBinding::new(exec);
                    let mask = judge.check_mask(&binding, live);
                    assert_eq!(mask & !live, 0, "{name}: a bit outside the live mask");
                    for (j, model_judge) in own.iter_mut().enumerate() {
                        if live >> j & 1 == 1 {
                            assert_eq!(
                                mask >> j & 1 == 1,
                                model_judge.check(&binding).is_ok(),
                                "{name}: fused bit of {} disagrees on {}",
                                models[j].name(),
                                test.name()
                            );
                        }
                    }
                    true
                });
            }
            sets += 1;
        }
    }
    assert_eq!(sets, 8, "4 riscv, 2 power and 2 x86 mappings");
}
