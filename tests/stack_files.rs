//! Integration tests for the runtime model/stack-file path.
//!
//! Two contracts are pinned here:
//!
//! 1. **Round-trip**: `parse_model(ir.to_string()) == ir` for the IR of
//!    every stack registered in the three built-in sweep matrices, and
//!    for randomly generated IRs — the parser accepts exactly the
//!    grammar `ModelIr`'s `Display` renders.
//! 2. **Bit-identity**: sweeping the committed `models/x86-tso.stack`
//!    file through [`Sweep::run_matrix`] reproduces the built-in x86
//!    study's golden fixture byte-for-byte, proving a stack loaded from
//!    text is the same stack as one built in Rust source.

use std::path::Path;

use proptest::prelude::*;
use tricheck::core::{load_stack_file, power_stacks, report, riscv_stacks, x86_stacks, Sweep};
use tricheck::litmus::suite;
use tricheck::rel::parse_model;
use tricheck::uarch::hw_vocabulary;
use tricheck_oracle::random_ir;

/// The committed stack file, swept over the full suite, is
/// byte-identical to the built-in x86 study's fixture — table and CSV.
#[test]
fn file_loaded_x86_tso_stack_matches_committed_fixture() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let loaded = load_stack_file(&root.join("models/x86-tso.stack"))
        .expect("committed stack file loads cleanly");
    let results = Sweep::new().run_matrix(&suite::full_suite(), &loaded.stacks);
    let mut out = report::stack_table(&results, &loaded.title);
    out.push('\n');
    out.push_str(&report::to_csv(&results));
    let fixture = std::fs::read_to_string(root.join("tests/fixtures/x86_tso_rows.txt"))
        .expect("x86 fixture exists");
    assert_eq!(
        out, fixture,
        "the file-loaded x86-TSO stack drifted from the built-in study"
    );
}

/// Every stack in the three registered matrices round-trips its model IR
/// through the parser.
#[test]
fn every_registered_stack_ir_roundtrips_through_the_parser() {
    let vocab = hw_vocabulary();
    let stacks: Vec<_> = riscv_stacks()
        .into_iter()
        .chain(power_stacks())
        .chain(x86_stacks())
        .collect();
    assert_eq!(stacks.len(), 34, "the registered matrices hold 34 stacks");
    for stack in &stacks {
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
