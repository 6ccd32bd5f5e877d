//! Integration tests for the semantic lint pass (`tricheck_rel::lint`
//! plus the stack-file integration in `tricheck_core::registry`).
//!
//! Four contracts are pinned here:
//!
//! 1. **Fixtures**: every rule E001–W004 has a minimal fixture under
//!    `tests/fixtures/lint/` producing exactly the expected diagnostic,
//!    code and line:column included.
//! 2. **Clean corpus**: every committed file under `models/` and
//!    all 34 built-in stacks lint clean — the pass has no false
//!    positives on real models.
//! 3. **Mutation coverage**: seven seeded breakages of the committed
//!    stack files each trip the intended rule — the pass has no false
//!    negatives on the defect classes it claims to catch.
//! 4. **Schema faithfulness**: every definite claim in
//!    [`hw_lint_schema`] (emptiness sorts, irreflexivity, acyclicity)
//!    holds of the concrete base relations of real enumerated
//!    executions — the abstract interpreter's ground facts are sound,
//!    so its "in every execution" verdicts are too.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use tricheck::core::{lint_path, parse_stack_file, StackRegistry};
use tricheck::rel::lint::{lint_model, MODEL_RULES, RULES};
use tricheck::rel::{parse_model_spanned, BaseRelations, Severity};
use tricheck::uarch::{
    hw_lint_schema, hw_vocabulary, HwBinding, HW_REL_BASES, HW_SET_BASES, SORT_F, SORT_R, SORT_W,
};
use tricheck_oracle::random_ir;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/lint")
        .join(name)
}

/// Lints a fixture file and asserts it yields exactly one diagnostic
/// with the given code, position, and message fragment.
fn assert_single_finding(
    file: &str,
    code: &str,
    severity: Severity,
    line: usize,
    col: usize,
    needle: &str,
) {
    let (_, diags, _) = lint_path(&fixture(file)).expect("fixture parses");
    assert_eq!(diags.len(), 1, "{file}: expected one finding: {diags:?}");
    let d = &diags[0];
    assert_eq!(d.code, code, "{file}: {d}");
    assert_eq!(d.severity, severity, "{file}: {d}");
    assert_eq!((d.line, d.col), (line, col), "{file}: {d}");
    assert!(d.msg.contains(needle), "{file}: {d}");
}

#[test]
fn e001_fixture_statically_empty_relation() {
    // `rf ∩ co` can relate nothing (rf ends at reads, co at writes);
    // the finding lands on the definition that contains it.
    assert_single_finding(
        "e001.cat",
        "E001",
        Severity::Error,
        2,
        3,
        "sub-expression '(rf ∩ co)' is statically empty",
    );
}

#[test]
fn e002_fixture_vacuous_axiom() {
    assert_single_finding(
        "e002.cat",
        "E002",
        Severity::Error,
        2,
        3,
        "axiom 'Propagation' is vacuous: 'po' is provably acyclic",
    );
}

#[test]
fn w001_fixture_unused_definition() {
    assert_single_finding(
        "w001.cat",
        "W001",
        Severity::Warning,
        2,
        3,
        "definition 'dead' is not referenced by any axiom",
    );
}

#[test]
fn w002_fixture_subsumed_axiom() {
    assert_single_finding(
        "w002.cat",
        "W002",
        Severity::Warning,
        4,
        3,
        "axiom 'Weak' is redundant: axiom 'Strong' already requires 'acyclic'",
    );
}

#[test]
fn w003_fixture_shadow_adjacent_name() {
    assert_single_finding(
        "w003.cat",
        "W003",
        Severity::Warning,
        2,
        3,
        "definition 'po-lok' is one edit away from the base name 'po-loc'",
    );
}

#[test]
fn w004_fixture_unreachable_and_missing_mapping_rows() {
    // One unreachable row (`st acq`: C11 has no acquire stores) and two
    // reachable store orders the table never defines (`rel`, `sc`).
    let (_, diags, rules) = lint_path(&fixture("w004.stack")).expect("fixture parses");
    assert_eq!(rules, RULES.len());
    assert_eq!(diags.len(), 3, "{diags:?}");
    assert!(diags.iter().all(|d| d.code == "W004"), "{diags:?}");
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    // Rule (b) findings anchor at the `mapping m` line, rule (a) at the
    // offending row.
    assert_eq!((diags[0].line, diags[0].col), (3, 1));
    assert!(
        diags[0].msg.contains("leaves 'st rel' undefined"),
        "{}",
        diags[0]
    );
    assert_eq!((diags[1].line, diags[1].col), (3, 1));
    assert!(
        diags[1].msg.contains("leaves 'st sc' undefined"),
        "{}",
        diags[1]
    );
    assert_eq!((diags[2].line, diags[2].col), (5, 1));
    assert!(
        diags[2].msg.contains("'st acq' row can never be used"),
        "{}",
        diags[2]
    );
}

#[test]
fn committed_model_files_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for stack in ["riscv", "power", "x86-tso"] {
        let path = root.join(format!("models/{stack}.stack"));
        let (_, diags, rules) = lint_path(&path).unwrap();
        assert!(diags.is_empty(), "{stack}: {diags:?}");
        assert_eq!(rules, RULES.len());
    }
    // Every bare model file: x86-tso.cat and the 16 built-ins in the
    // subdirectories.
    let mut cats = vec![root.join("models/x86-tso.cat")];
    for dir in ["armv7", "riscv-curr", "riscv-ours"] {
        for entry in std::fs::read_dir(root.join("models").join(dir)).unwrap() {
            cats.push(entry.unwrap().path());
        }
    }
    assert_eq!(cats.len(), 17);
    for cat in cats {
        let (_, diags, rules) = lint_path(&cat).unwrap();
        assert!(diags.is_empty(), "{}: {diags:?}", cat.display());
        assert_eq!(rules, MODEL_RULES);
    }
}

#[test]
fn all_builtin_stacks_lint_clean() {
    let schema = hw_lint_schema();
    let registry = StackRegistry::new();
    let stacks: Vec<_> = registry.entries().iter().flat_map(|e| &e.stacks).collect();
    assert_eq!(stacks.len(), 34, "the registered matrices hold 34 stacks");
    for stack in stacks {
        let ir = stack.model.ir();
        let diags = lint_model(ir, &schema, None);
        assert!(diags.is_empty(), "{}: {diags:?}", ir.name());
    }
}

/// Six seeded breakages of the committed x86 stack file, one per rule,
/// plus a W004 breakage of `models/riscv.stack`: the pass must catch
/// every one (and the unmutated files are clean, so each finding is
/// attributable to its mutation alone).
#[test]
fn seeded_mutations_of_the_committed_stack_are_caught() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let pristine = std::fs::read_to_string(root.join("models/x86-tso.stack")).unwrap();
    let mutations: [(&str, &str, &str); 6] = [
        // A typo'd intersection makes `com` statically empty.
        ("com := ((rf ∪ co) ∪ fr)", "com := ((rf ∩ co) ∪ fr)", "E001"),
        // Constraining `ppo` (provably acyclic) instead of `hb` checks
        // nothing.
        ("Causality: acyclic(hb)", "Causality: acyclic(ppo)", "E002"),
        // A definition no axiom uses.
        (
            "model x86-TSO\n",
            "model x86-TSO\n  orphan := rfe\n",
            "W001",
        ),
        // A second, weaker constraint on the same relation.
        (
            "  Causality: acyclic(hb)\n",
            "  Causality: acyclic(hb)\n  Causality2: irreflexive(hb)\n",
            "W002",
        ),
        // A name one edit from the `po-loc` base.
        (
            "model x86-TSO\n",
            "model x86-TSO\n  po-lok := po-loc\n",
            "W003",
        ),
        // Dropping the SC-store row leaves a reachable order undefined.
        ("  st sc = st; mfence\n", "", "W004"),
    ];
    // And one of the built-in RISC-V matrix: Base+A refined loses its
    // SC-RMW row.
    let riscv = std::fs::read_to_string(root.join("models/riscv.stack")).unwrap();
    let cases = mutations
        .iter()
        .map(|&(from, to, expected)| (&pristine, from, to, expected))
        .chain([(&riscv, "  rmw sc = rmw.aq.rl.sc\n", "", "W004")]);
    for (pristine, from, to, expected) in cases {
        let mutated = pristine.replace(from, to);
        assert_ne!(&mutated, pristine, "mutation '{from}' did not apply");
        let loaded = parse_stack_file(&mutated, "mut.stack")
            .unwrap_or_else(|e| panic!("mutation '{from}' must still parse: {e}"));
        assert!(
            loaded.lints.iter().any(|d| d.code == expected),
            "mutation '{from}' escaped {expected}: {:?}",
            loaded.lints
        );
    }
}

/// Every definite claim the hardware schema makes must hold of the
/// concrete base relations in real candidate executions — compiled with
/// the Base+A refined mapping so AMO annotation sets are exercised too.
#[test]
fn hw_lint_schema_claims_hold_on_real_executions() {
    use tricheck::compiler::{compile, riscv_mapping};
    use tricheck::isa::{RiscvIsa, SpecVersion};
    use tricheck::litmus::{suite, ExecutionSpace};

    let kind_bit = |binding: &HwBinding<'_>, e: usize| {
        if binding.set("R").unwrap().contains(e) {
            SORT_R
        } else if binding.set("W").unwrap().contains(e) {
            SORT_W
        } else {
            SORT_F
        }
    };
    let schema = hw_lint_schema();
    let tests = [
        suite::fig3_wrc(),
        suite::fig4_iriw_sc(),
        suite::fig11_mp_roach_motel(),
        suite::sb([tricheck::litmus::MemOrder::Sc; 4]),
    ];
    let mut candidates = 0usize;
    for test in &tests {
        let compiled = compile(test, riscv_mapping(RiscvIsa::BaseA, SpecVersion::Ours)).unwrap();
        let space = ExecutionSpace::new(compiled.program().clone());
        let view = space.executions();
        for k in 0..view.len() {
            candidates += 1;
            let exec = view.get(k);
            let binding = HwBinding::new(&exec);
            for &name in HW_REL_BASES {
                let sig = schema.rel_sig(name).expect("schema covers every base");
                let r = binding.rel(name).expect("binding covers every base");
                if sig.irreflexive {
                    assert!(
                        r.is_irreflexive(),
                        "{}: {name} not irreflexive",
                        test.name()
                    );
                }
                if sig.acyclic {
                    assert!(r.is_acyclic(), "{}: {name} not acyclic", test.name());
                }
                for e in r.domain().iter() {
                    assert_ne!(
                        kind_bit(&binding, e) & sig.dom,
                        0,
                        "{}: {name} domain event {e} outside its sort",
                        test.name()
                    );
                }
                for e in r.range().iter() {
                    assert_ne!(
                        kind_bit(&binding, e) & sig.rng,
                        0,
                        "{}: {name} range event {e} outside its sort",
                        test.name()
                    );
                }
            }
            for &name in HW_SET_BASES {
                let sort = schema.set_sort(name).expect("schema covers every set");
                let s = binding.set(name).expect("binding covers every set");
                for e in s.iter() {
                    assert_ne!(
                        kind_bit(&binding, e) & sort,
                        0,
                        "{}: set {name} event {e} outside its sort",
                        test.name()
                    );
                }
            }
        }
    }
    assert!(candidates > 20, "only {candidates} candidates enumerated");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lint pass is deterministic and total on arbitrary IR shapes,
    /// and its verdicts are a property of the IR, not its concrete
    /// syntax: linting the parse of `display(ir)` (spans from the
    /// printed text) finds the same codes and messages as linting `ir`
    /// directly.
    #[test]
    fn lint_is_deterministic_and_stable_under_round_trip(seed in 0u64..u64::MAX) {
        let schema = hw_lint_schema();
        let ir = random_ir(seed);
        let first = lint_model(&ir, &schema, None);
        let second = lint_model(&ir, &schema, None);
        prop_assert_eq!(&first, &second);

        let printed = ir.to_string();
        let (reparsed, spans) = parse_model_spanned(&printed, &hw_vocabulary())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{printed}"));
        prop_assert_eq!(&reparsed, &ir);
        let spanned = lint_model(&reparsed, &schema, Some(&spans));
        // Spans change report *order* (findings sort by position), so
        // compare the (code, message) findings as sorted multisets.
        let mut plain: Vec<(&str, String)> =
            first.iter().map(|d| (d.code, d.msg.clone())).collect();
        let mut respanned: Vec<(&str, String)> =
            spanned.iter().map(|d| (d.code, d.msg.clone())).collect();
        plain.sort();
        respanned.sort();
        prop_assert_eq!(plain, respanned);
    }
}
