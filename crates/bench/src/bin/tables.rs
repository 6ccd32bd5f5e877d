//! Regenerates the paper's Tables 1–3 (compiler mappings) and
//! Figure 7 (the µSpec model relaxation matrix, read from the Table 7
//! knobs that `tricheck-oracle` pins the built-in model files to).

use tricheck_compiler::{power_mapping, riscv_mapping, Mapping, PowerSyncStyle};
use tricheck_isa::{format_instr, Asm, RiscvIsa, SpecVersion};
use tricheck_litmus::{Expr, MemOrder, Reg};

fn mapping_row(mapping: &dyn Mapping, dialect: Asm, mo: MemOrder, is_load: bool) -> String {
    let addr = Expr::Const(1);
    let instrs = if is_load {
        mapping.load(Reg(0), addr, mo)
    } else {
        mapping.store(addr, Expr::Const(1), mo, Reg(128))
    };
    match instrs {
        Ok(seq) => seq
            .iter()
            .map(|i| format_instr(i, dialect))
            .collect::<Vec<_>>()
            .join("; "),
        Err(_) => "-".to_string(),
    }
}

fn print_mapping_table(title: &str, dialect: Asm, columns: &[(&str, &dyn Mapping)]) {
    println!("== {title} ==");
    print!("{:<10}", "C11");
    for (name, _) in columns {
        print!(" | {name:<40}");
    }
    println!();
    let rows: [(&str, MemOrder, bool); 6] = [
        ("ld rlx", MemOrder::Rlx, true),
        ("ld acq", MemOrder::Acq, true),
        ("ld sc", MemOrder::Sc, true),
        ("st rlx", MemOrder::Rlx, false),
        ("st rel", MemOrder::Rel, false),
        ("st sc", MemOrder::Sc, false),
    ];
    for (label, mo, is_load) in rows {
        print!("{label:<10}");
        for (_, mapping) in columns {
            print!(" | {:<40}", mapping_row(*mapping, dialect, mo, is_load));
        }
        println!();
    }
    println!();
}

fn main() {
    print_mapping_table(
        "Table 1: leading-sync C11 -> Power",
        Asm::Power,
        &[(
            "Power (leading-sync)",
            power_mapping(PowerSyncStyle::Leading),
        )],
    );
    print_mapping_table(
        "Table 2: C11 -> RISC-V Base",
        Asm::RiscV,
        &[
            (
                "Intuitive",
                riscv_mapping(RiscvIsa::Base, SpecVersion::Curr),
            ),
            ("Refined", riscv_mapping(RiscvIsa::Base, SpecVersion::Ours)),
        ],
    );
    print_mapping_table(
        "Table 3: C11 -> RISC-V Base+A",
        Asm::RiscV,
        &[
            (
                "Intuitive",
                riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr),
            ),
            ("Refined", riscv_mapping(RiscvIsa::BaseA, SpecVersion::Ours)),
        ],
    );
    println!("{}", tricheck_oracle::figure7());
}
