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

use std::path::Path;

use proptest::prelude::*;
use tricheck::core::{load_model_file, load_stack_file, StackRegistry};
use tricheck::rel::parse_model;
use tricheck::uarch::hw_vocabulary;
use tricheck_oracle::random_ir;

/// The bare model file and the stack file's model section are the same
/// model.
#[test]
fn committed_x86_model_file_matches_the_stack_files_model() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cat = load_model_file(&root.join("models/x86-tso.cat")).expect("model file loads");
    let stack = load_stack_file(&root.join("models/x86-tso.stack")).expect("stack file loads");
    assert!(!stack.stacks.is_empty());
    for column in &stack.stacks {
        assert_eq!(column.model.ir(), &cat, "{:?}", column.key);
    }
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
