//! Using TriCheck to audit compiler mappings (the paper's §7): compare
//! the leading-sync and trailing-sync C11→Power mappings on an
//! ARMv7-Cortex-A9-like microarchitecture, then audit a deliberately
//! broken custom mapping to show how bugs are localized.
//!
//! Run with: `cargo run --release --example compiler_verification`

use tricheck::prelude::*;

/// A deliberately broken mapping: like leading-sync, but it "optimizes
/// away" the release fence (a classic miscompilation) — a table whose
/// `st rel` row is a plain store.
fn dropped_release_fence() -> TableMapping {
    let mut table = TableMapping::new("power-dropped-release-fence");
    for row in [
        "ld rlx = ld",
        "ld acq = ld; ctrlisync",
        "ld sc = hwfence; ld; ctrlisync",
        "st rlx|rel = st", // BUG: releases compiled as plain stores.
        "st sc = hwfence; st",
    ] {
        table.parse_line(row).expect("valid table row");
    }
    table
}

fn audit(mapping: &dyn Mapping, tests: &[LitmusTest], machine: &UarchModel) {
    let sweep = Sweep::new();
    let results = sweep.run_stack(tests, mapping, machine);
    let bugs: Vec<_> = results
        .iter()
        .filter(|r| r.classification() == Classification::Bug)
        .collect();
    println!(
        "{}: {} bugs / {} tests",
        mapping.name(),
        bugs.len(),
        results.len()
    );
    for b in bugs.iter().take(5) {
        println!("   counterexample: {}", b.name());
    }
}

fn main() {
    let machine = UarchModel::armv7_a9like();
    let tests = suite::full_suite();
    println!(
        "auditing C11→Power mappings on {} ({} tests)\n",
        machine.name(),
        tests.len()
    );

    audit(power_mapping(PowerSyncStyle::Leading), &tests, &machine);
    audit(power_mapping(PowerSyncStyle::Trailing), &tests, &machine);
    audit(&dropped_release_fence(), &tests, &machine);

    println!(
        "\nThe trailing-sync counterexamples reproduce the paper's §7 finding; \
         the dropped-release-fence mapping shows how a compiler bug surfaces \
         as message-passing failures."
    );
}
