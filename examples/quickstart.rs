//! Quickstart: verify one litmus test across the full stack.
//!
//! Run with: `cargo run --example quickstart`

use tricheck::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a litmus test. Figure 3 of the paper: write-to-read
    //    causality with a release/acquire pair on the flag.
    let test = suite::fig3_wrc();
    println!("litmus test: {test}");

    // 2. Ask the C11 memory model about the target outcome (Step 1).
    let c11 = C11Model::new();
    println!(
        "C11 says the outcome is: {}",
        match c11.judge(&test) {
            C11Verdict::Permitted => "permitted",
            C11Verdict::Forbidden => "forbidden",
        }
    );

    // 3. Compile it to RISC-V with the Intuitive Base mapping (Step 2).
    let compiled = compile(&test, riscv_mapping(RiscvIsa::Base, SpecVersion::Curr))?;
    println!("\ncompiled for RISC-V Base (2016 spec):");
    println!("{}", format_program(compiled.program(), Asm::RiscV));

    // 4. Check observability on a RISC-V-compliant microarchitecture with
    //    shared store buffers (Step 3), and classify (Step 4).
    let stack = TriCheck::new(
        riscv_mapping(RiscvIsa::Base, SpecVersion::Curr),
        UarchModel::nwr(SpecVersion::Curr),
    );
    let result = stack.verify(&test)?;
    println!("{result}");
    assert_eq!(result.classification(), Classification::Bug);

    // 5. Apply the paper's fix: cumulative fences in the ISA, refined
    //    mapping — and re-verify.
    let fixed = TriCheck::new(
        riscv_mapping(RiscvIsa::Base, SpecVersion::Ours),
        UarchModel::nwr(SpecVersion::Ours),
    );
    let result = fixed.verify(&test)?;
    println!("\nafter the ISA refinement:\n{result}");
    assert_eq!(result.classification(), Classification::Equivalent);

    Ok(())
}
