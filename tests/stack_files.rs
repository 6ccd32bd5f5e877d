//! Integration tests for the runtime model/stack-file path.
//!
//! Two contracts are pinned here:
//!
//! 1. **Round-trip**: `parse_model(ir.to_string()) == ir` for the IR of
//!    every stack registered in the three built-in sweep matrices, and
//!    for randomly generated IRs — the parser accepts exactly the
//!    grammar `ModelIr`'s `Display` renders.
//! 2. **One x86 model**: the committed `models/x86-tso.cat` parses to
//!    the same IR as the model section of `models/x86-tso.stack` (the
//!    built-in x86 study), so the two committed copies cannot drift.
//!    The stack file's rows are pinned by
//!    `golden_rows::x86_tso_rows_match_committed_fixture`.
//! 3. **Built-ins are the files**: `models/riscv.stack` and
//!    `models/power.stack`, loaded from disk, sweep exactly like the
//!    compiled-in `riscv` and `power` entries, whose mappings are the
//!    compiler's statics, handed out without re-parsing or leaking.

use std::path::Path;

use proptest::prelude::*;
use tricheck::core::{load_model_file, load_stack_file, StackRegistry};
use tricheck::prelude::{
    builtin_stack, riscv_mapping, riscv_stacks, suite, Mapping, MatrixStack, RiscvIsa, SpecVersion,
    Sweep,
};
use tricheck::rel::parse_model;
use tricheck::uarch::hw_vocabulary;
use tricheck_oracle::random_ir;

/// The bare model file and the stack file's model section are the same
/// model.
#[test]
fn committed_x86_model_file_matches_the_stack_files_model() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cat = load_model_file(&root.join("models/x86-tso.cat")).expect("model file loads");
    let cat = cat.stacks[0].model.ir();
    let stack = load_stack_file(&root.join("models/x86-tso.stack")).expect("stack file loads");
    assert!(!stack.stacks.is_empty());
    for column in &stack.stacks {
        assert_eq!(column.model.ir(), cat, "{:?}", column.key);
    }
}

/// The data address of a mapping (fat-pointer vtables may differ per
/// codegen unit; the table is the same object either way).
fn addr(mapping: &dyn Mapping) -> *const () {
    (mapping as *const dyn Mapping).cast()
}

/// The committed `riscv` and `power` stack files, loaded from disk,
/// have the built-in entries' keys, mappings, models and full-suite
/// rows.
#[test]
fn committed_builtin_stack_files_match_the_builtin_entries() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tests = suite::full_suite();
    let columns = |stacks: &[MatrixStack<'_>]| -> Vec<_> {
        stacks
            .iter()
            .map(|s| {
                let model = s.model.name().to_string();
                (s.key, s.mapping.name(), model)
            })
            .collect()
    };
    for (name, cells) in [("riscv", 28), ("power", 4)] {
        let file =
            load_stack_file(&root.join(format!("models/{name}.stack"))).expect("stack file loads");
        let builtin = builtin_stack(name).expect("built in");
        assert_eq!(file.name, name);
        assert_eq!(file.title, builtin.title);
        assert!(file.lints.is_empty(), "{name}: {:?}", file.lints);
        assert_eq!(file.stacks.len(), cells);
        assert_eq!(columns(&file.stacks), columns(&builtin.stacks), "{name}");
        assert_eq!(
            Sweep::new().run_matrix(&tests, &file.stacks).rows(),
            Sweep::new().run_matrix(&tests, &builtin.stacks).rows(),
            "{name}"
        );
    }
}

/// `riscv_mapping` is the `riscv` entry's first mapping section, and
/// handing out a built-in entry again re-parses and leaks nothing: the
/// second call's mappings are the first call's.
#[test]
fn builtin_mappings_are_parsed_once() {
    let first = riscv_stacks();
    assert_eq!(
        addr(riscv_mapping(RiscvIsa::Base, SpecVersion::Curr)),
        addr(first[0].mapping)
    );
    let again = builtin_stack("riscv").expect("built in").stacks;
    let pointers =
        |stacks: &[MatrixStack<'_>]| -> Vec<_> { stacks.iter().map(|s| addr(s.mapping)).collect() };
    assert_eq!(pointers(&first), pointers(&again));
}

/// Each committed Table 7 model file, loaded from disk as the
/// `sweep --model FILE` matrix (its model under the four RISC-V
/// mappings), reproduces the
/// built-in `riscv` columns of that model and spec version under both
/// ISAs: the 14 files, each paired with its own version's two mappings,
/// rebuild the Figure 15 matrix row for row.
#[test]
fn committed_table7_model_files_sweep_like_the_builtin_matrix() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("models");
    let mut file_stacks = Vec::new();
    for version in ["riscv-curr", "riscv-ours"] {
        let mut files: Vec<_> = std::fs::read_dir(root.join(version))
            .expect("model directory")
            .map(|entry| entry.expect("directory entry").path())
            .collect();
        files.sort();
        assert_eq!(files.len(), 7, "{version}: {files:?}");
        for path in files {
            let matrix = load_model_file(&path).expect("model file loads");
            assert!(matrix.name.ends_with(version), "{}", path.display());
            assert!(matrix.lints.is_empty(), "{}", path.display());
            assert_eq!(matrix.stacks.len(), 4);
            file_stacks.extend(
                matrix
                    .stacks
                    .into_iter()
                    .filter(|s| s.key.variant_label() == version),
            );
        }
    }
    assert_eq!(file_stacks.len(), 28);
    let tests = suite::full_suite();
    let sorted = |stacks| {
        let mut rows = Sweep::new().run_matrix(&tests, stacks).rows().to_vec();
        rows.sort_by(|a, b| (a.key, &a.model, a.family).cmp(&(b.key, &b.model, b.family)));
        rows
    };
    let from_files = sorted(&file_stacks);
    assert_eq!(from_files.len(), 28 * 7, "28 stacks × 7 families");
    assert_eq!(from_files, sorted(&riscv_stacks()));
}

/// Every stack in the three registered matrices round-trips its model IR
/// through the parser.
#[test]
fn every_registered_stack_ir_roundtrips_through_the_parser() {
    let vocab = hw_vocabulary();
    let registry = StackRegistry::new();
    let stacks: Vec<_> = registry.entries().iter().flat_map(|e| &e.stacks).collect();
    assert_eq!(stacks.len(), 34, "the registered matrices hold 34 stacks");
    for stack in stacks {
        let ir = stack.model.ir();
        let reparsed = parse_model(&ir.to_string(), &vocab)
            .unwrap_or_else(|e| panic!("{} does not reparse: {e}", ir.name()));
        assert_eq!(&reparsed, ir, "{} does not round-trip", ir.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `parse(display(ir)) == ir` for randomly generated IRs over the
    /// hardware vocabulary: every operator, closure, restriction, and
    /// reference shape the IR can express survives the text round-trip.
    #[test]
    fn random_irs_roundtrip_through_the_parser(seed in 0u64..u64::MAX) {
        let ir = random_ir(seed);
        let printed = ir.to_string();
        let reparsed = parse_model(&printed, &hw_vocabulary())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{printed}"));
        prop_assert_eq!(reparsed, ir);
    }
}
