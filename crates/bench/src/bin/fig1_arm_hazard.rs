//! Reproduces the paper's opening example (§1 Figure 1, §2): a C11
//! program whose compiled form misbehaves on ARM Cortex-A9 parts due to
//! the acknowledged read-after-read hazard, and ARM's recommended fix
//! (a `dmb` fence after relaxed atomic loads).

use tricheck_c11::C11Model;
use tricheck_compiler::{compile, power_mapping, PowerSyncStyle, TableMapping};
use tricheck_isa::{format_program, Asm};
use tricheck_litmus::{suite, ConsistencyModel, MemOrder};
use tricheck_uarch::UarchModel;

/// The leading-sync ARMv7 mapping with ARM's hazard workaround: a full
/// fence after every (relaxed) atomic load.
fn arm_with_ldld_fix() -> TableMapping {
    let mut table = TableMapping::new("armv7-leading-sync+ldld-fix");
    for row in [
        "ld rlx = ld; hwfence",
        "ld acq = ld; ctrlisync",
        "ld sc = hwfence; ld; ctrlisync",
        "st rlx = st",
        "st rel = lwfence; st",
        "st sc = hwfence; st",
    ] {
        table.parse_line(row).expect("valid table row");
    }
    table
}

fn main() {
    // Figure 1's program is a same-address read-read test: the CoRR shape
    // with relaxed atomics.
    let test = suite::corr([MemOrder::Rlx; 4]);
    let c11 = C11Model::new();
    println!(
        "C11 program: {} — target outcome {}",
        test.name(),
        test.target()
    );
    println!(
        "C11 verdict: {}\n",
        if c11.permits_target(&test) {
            "permitted"
        } else {
            "forbidden (coherence)"
        }
    );

    let stock = compile(&test, power_mapping(PowerSyncStyle::Leading)).expect("compiles");
    println!(
        "compiled for ARMv7 (leading-sync):\n{}",
        format_program(stock.program(), Asm::Power)
    );

    let hazard = UarchModel::armv7_a9_ldld_hazard();
    let compliant = UarchModel::armv7_a9like();
    println!(
        "on {}: outcome {} — the Figure 1 misbehaviour",
        hazard.name(),
        if hazard.observes(stock.program(), stock.target()) {
            "OBSERVABLE"
        } else {
            "forbidden"
        }
    );
    println!(
        "on {}: outcome {} (ISA-compliant cores are fine)\n",
        compliant.name(),
        if compliant.observes(stock.program(), stock.target()) {
            "OBSERVABLE"
        } else {
            "forbidden"
        }
    );

    let fixed = compile(&test, &arm_with_ldld_fix()).expect("compiles");
    println!(
        "with ARM's recommended fix (dmb after relaxed atomic loads):\n{}",
        format_program(fixed.program(), Asm::Power)
    );
    println!(
        "on {}: outcome {} — the fence workaround closes the hazard",
        hazard.name(),
        if hazard.observes(fixed.program(), fixed.target()) {
            "OBSERVABLE"
        } else {
            "forbidden"
        }
    );
    println!(
        "\n(the cost of this workaround is quantified by Figure 2: \
         run `cargo run --release -p tricheck-bench --bin fig2_sieve`)"
    );
}
