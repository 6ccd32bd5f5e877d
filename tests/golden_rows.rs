//! Golden-row regression tests: the full Figure 15 sweep table and the
//! §7 compiler-study counts are committed as fixtures, so any engine
//! refactor that changes a single classification fails tier-1 loudly
//! (rather than silently shifting paper numbers).
//!
//! To regenerate after an *intentional* model change, run
//! `TRICHECK_UPDATE_FIXTURES=1 cargo test --test golden_rows` and commit
//! the diff.

use std::path::PathBuf;

use tricheck::prelude::*;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn assert_matches_fixture(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("TRICHECK_UPDATE_FIXTURES").is_some() {
        std::fs::write(&path, actual).expect("write fixture");
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}) — regenerate with TRICHECK_UPDATE_FIXTURES=1",
            path.display()
        )
    });
    if expected != actual {
        let first_diff = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or_else(
                || "line counts differ".to_string(),
                |i| {
                    format!(
                        "first differing line {}:\n  fixture: {}\n  actual:  {}",
                        i + 1,
                        expected.lines().nth(i).unwrap_or(""),
                        actual.lines().nth(i).unwrap_or("")
                    )
                },
            );
        panic!(
            "sweep classification drift against {name} — {first_diff}\n\
             If the change is intentional, regenerate fixtures with \
             TRICHECK_UPDATE_FIXTURES=1 and commit the diff."
        );
    }
}

/// Every cell of the full Figure 15 sweep (1,701 tests × 28 model cells,
/// per-family counts) matches the committed table.
#[test]
fn figure15_rows_match_committed_fixture() {
    let results = Sweep::new().run_matrix(&suite::full_suite(), &riscv_stacks());
    assert_matches_fixture("figure15_rows.csv", &report::to_csv(&results));
}

/// The §7 compiler-study counts ({leading,trailing}-sync × ARMv7 models
/// over the full suite) match the committed table, in both row and
/// aggregate form.
#[test]
fn sec7_counterexample_counts_match_committed_fixture() {
    let power = builtin_stack("power").expect("built-in");
    let results = Sweep::new().run_matrix(&suite::full_suite(), &power.stacks);
    let mut out = report::stack_table(&results, &power.title);
    out.push('\n');
    out.push_str(&report::to_csv(&results));
    assert_matches_fixture("sec7_power_rows.txt", &out);
}

/// The x86 mapping study ({sc-atomics, relaxed} × the TSO model over
/// the full suite) matches the committed table. The built-in `x86-tso`
/// entry *is* the committed `models/x86-tso.stack`, parsed by the same
/// loader as `sweep --stack FILE`, so this pins the file too. The
/// headline facts: TSO exhibits the store-buffering (sb) and
/// read-to-write-causality (rwc) reorderings under the unfenced relaxed
/// mapping — and zero bugs under the standard SC-atomics mapping.
#[test]
fn x86_tso_rows_match_committed_fixture() {
    let x86 = builtin_stack("x86-tso").expect("built-in");
    let results = Sweep::new().run_matrix(&suite::full_suite(), &x86.stacks);
    let mut out = report::stack_table(&results, &x86.title);
    out.push('\n');
    out.push_str(&report::to_csv(&results));
    assert_matches_fixture("x86_tso_rows.txt", &out);

    // The headline claims, asserted directly so a fixture regeneration
    // cannot silently launder them away.
    let sc = StackKey {
        isa: "x86",
        variant: "sc-atomics",
    };
    let relaxed = StackKey {
        isa: "x86",
        variant: "relaxed",
    };
    assert_eq!(
        results.bugs_for(sc, "x86-TSO"),
        0,
        "the SC-atomics mapping is sound on TSO"
    );
    assert!(
        results
            .row(relaxed, "x86-TSO", "sb")
            .is_some_and(|r| r.bugs == 1),
        "TSO permits SC store buffering under the unfenced mapping"
    );
    assert!(results.bugs_for(relaxed, "x86-TSO") > 0);
}

/// Every built-in compiler mapping's output for each C11 operation
/// (`ld`/`st`/`rmw`) at each of the five memory orders — the emitted
/// instructions or the `Unsupported` construct — matches the committed
/// table, which was generated from the hand-written Rust mappings the
/// tables replaced. The suite never requests a C11 RMW, so this is the
/// only pin on the mappings' `rmw` rows.
#[test]
fn builtin_mappings_match_committed_fixture() {
    use tricheck::litmus::{Expr, Reg, RmwKind};
    let mut mappings: Vec<&dyn Mapping> = Vec::new();
    for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
        for version in [SpecVersion::Curr, SpecVersion::Ours] {
            mappings.push(riscv_mapping(isa, version));
        }
    }
    for style in PowerSyncStyle::ALL {
        mappings.push(power_mapping(style));
    }
    let x86 = builtin_stack("x86-tso").expect("built-in");
    for stack in &x86.stacks {
        mappings.push(stack.mapping);
    }
    let orders = [
        MemOrder::Rlx,
        MemOrder::Acq,
        MemOrder::Rel,
        MemOrder::AcqRel,
        MemOrder::Sc,
    ];
    let mut out = String::new();
    for mapping in mappings {
        out.push_str(&format!("== {} ==\n", mapping.name()));
        for mo in orders {
            let word = tricheck::compiler::order_word(mo);
            let rows = [
                ("ld", mapping.load(Reg(1), Expr::Const(0), mo)),
                (
                    "st",
                    mapping.store(Expr::Const(0), Expr::Const(1), mo, Reg(128)),
                ),
                (
                    "rmw",
                    mapping.rmw(Reg(1), Expr::Const(0), RmwKind::Swap(Expr::Const(1)), mo),
                ),
            ];
            for (op, emitted) in rows {
                let text = match emitted {
                    Ok(instrs) => instrs
                        .iter()
                        .map(|i| format!("{i:?}"))
                        .collect::<Vec<_>>()
                        .join("; "),
                    Err(e) => format!("Err({e:?})"),
                };
                out.push_str(&format!("{op} {word}: {text}\n"));
            }
        }
    }
    assert_matches_fixture("builtin_mappings.txt", &out);
}
