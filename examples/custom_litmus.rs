//! Authoring a custom litmus test and a custom microarchitecture
//! model — the downstream-user workflow for exploring an MCM design
//! point beyond the paper's seven-template suite.
//!
//! The test is ISA2, a transitive message-passing chain through *two*
//! release/acquire hops (not part of the paper's suite). Like WRC, it
//! needs cumulative releases on non-multi-copy-atomic machines, so the
//! 2016 RISC-V Base ISA cannot compile it correctly for such hardware.
//!
//! Run with: `cargo run --example custom_litmus`

use tricheck::litmus::{Expr, Instr, Outcome, Program, Reg, Val};
use tricheck::prelude::*;
use tricheck::rel::parse_model;
use tricheck::uarch::hw_vocabulary;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- A custom C11 litmus test, written directly in the micro-IR ---
    // ISA2: T0 publishes data x and releases f1; T1 acquires f1 and
    // releases f2; T2 acquires f2 and reads x.
    let x = 1u64;
    let f1 = 2u64;
    let f2 = 3u64;
    use MemOrder::{Acq, Rel, Rlx};
    let program = Program::new(
        vec![
            vec![
                Instr::Write {
                    addr: Expr::Const(x),
                    val: Expr::Const(1),
                    ann: Rlx,
                },
                Instr::Write {
                    addr: Expr::Const(f1),
                    val: Expr::Const(1),
                    ann: Rel,
                },
            ],
            vec![
                Instr::Read {
                    dst: Reg(0),
                    addr: Expr::Const(f1),
                    ann: Acq,
                },
                Instr::Write {
                    addr: Expr::Const(f2),
                    val: Expr::Const(1),
                    ann: Rel,
                },
            ],
            vec![
                Instr::Read {
                    dst: Reg(1),
                    addr: Expr::Const(f2),
                    ann: Acq,
                },
                Instr::Read {
                    dst: Reg(2),
                    addr: Expr::Const(x),
                    ann: Rlx,
                },
            ],
        ],
        [],
    )?;
    // The interesting outcome: both hops observed, data still missed.
    let target = Outcome::from_values([
        ((1, Reg(0)), Val(1)),
        ((2, Reg(1)), Val(1)),
        ((2, Reg(2)), Val(0)),
    ]);
    let test = LitmusTest::new("isa2+rlx+rel+acq+rel+acq+rlx", "isa2", program, target);

    let c11 = C11Model::new();
    println!("C11 verdict for {}: {:?}", test.name(), c11.judge(&test));

    // --- A custom microarchitecture, written as model text ---
    // In-order issue, but stores drain through buffers shared with a
    // neighbouring core (non-multi-copy-atomic): the committed nWR file,
    // edited. A design iteration is an edit of this text; the one here
    // only renames the machine, and its releases still publish just
    // their program-order predecessors (`sync := ([M]po[...`).
    let text = include_str!("../models/riscv-curr/nWR.cat")
        .replace("model nWR/riscv-curr", "model custom-inorder-nMCA");
    assert!(text.contains("sync := ([M]po[(amo-rl"));
    let machine = UarchModel::from_ir(parse_model(&text, &hw_vocabulary())?);

    // --- Probe it through the full stack ---
    for (label, mapping) in [
        (
            "intuitive",
            riscv_mapping(RiscvIsa::Base, SpecVersion::Curr),
        ),
        ("refined", riscv_mapping(RiscvIsa::Base, SpecVersion::Ours)),
    ] {
        let compiled = compile(&test, mapping)?;
        let observable = machine.observes(compiled.program(), compiled.target());
        let permitted = c11.permits_target(&test);
        let verdict = match (permitted, observable) {
            (false, true) => "BUG — non-cumulative fences cannot relay the release chain",
            (true, false) => "overly strict",
            _ => "equivalent",
        };
        println!("{label:>10} mapping on {}: {verdict}", machine.name());
    }

    // The outcome-set view: everything this machine can produce under the
    // intuitive mapping.
    let compiled = compile(&test, riscv_mapping(RiscvIsa::Base, SpecVersion::Curr))?;
    let outcomes = machine.observable_outcomes(compiled.program(), compiled.observed());
    println!(
        "\nobservable outcomes on {} ({} total):",
        machine.name(),
        outcomes.len()
    );
    for o in &outcomes {
        println!("  {o}");
    }
    Ok(())
}
