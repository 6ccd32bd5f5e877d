//! A deterministic random-IR generator over the hardware vocabulary.
//!
//! The in-repo proptest shim draws scalars only, so tests draw a seed
//! and derive the tree shape here with splitmix64. Every IR it returns
//! uses only [`HW_REL_BASES`]/[`HW_SET_BASES`] and references earlier
//! definitions only, so it parses, lints, compiles, and evaluates over
//! any `HwBinding`.

use tricheck_rel::ir::{AxiomKind, ModelIr, RelExpr, SetExpr};
use tricheck_uarch::{HW_REL_BASES, HW_SET_BASES};

fn next(rng: &mut u64) -> u64 {
    *rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *rng;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick<'a>(rng: &mut u64, choices: &[&'a str]) -> &'a str {
    choices[(next(rng) % choices.len() as u64) as usize]
}

fn random_set(rng: &mut u64, depth: u32) -> SetExpr {
    match next(rng) % if depth == 0 { 3 } else { 6 } {
        0 => SetExpr::Universe,
        1 => SetExpr::Empty,
        2 => SetExpr::Base(pick(rng, HW_SET_BASES)),
        3 => random_set(rng, depth - 1).union(random_set(rng, depth - 1)),
        4 => random_set(rng, depth - 1).inter(random_set(rng, depth - 1)),
        _ => random_set(rng, depth - 1).minus(random_set(rng, depth - 1)),
    }
}

fn random_rel(rng: &mut u64, depth: u32, defs: &[&'static str]) -> RelExpr {
    let leaves = if defs.is_empty() { 4 } else { 5 };
    match next(rng) % if depth == 0 { leaves } else { leaves + 9 } {
        0 => RelExpr::Base(pick(rng, HW_REL_BASES)),
        1 => RelExpr::Id,
        2 => RelExpr::Empty,
        3 => RelExpr::cross(random_set(rng, 1), random_set(rng, 1)),
        4 if !defs.is_empty() => RelExpr::reference(defs[(next(rng) % defs.len() as u64) as usize]),
        4 | 5 => random_rel(rng, depth - 1, defs).union(random_rel(rng, depth - 1, defs)),
        6 => random_rel(rng, depth - 1, defs).inter(random_rel(rng, depth - 1, defs)),
        7 => random_rel(rng, depth - 1, defs).minus(random_rel(rng, depth - 1, defs)),
        8 => random_rel(rng, depth - 1, defs).seq(random_rel(rng, depth - 1, defs)),
        9 => random_rel(rng, depth - 1, defs).inverse(),
        10 => random_rel(rng, depth - 1, defs).plus(),
        11 => random_rel(rng, depth - 1, defs).star(),
        12 => random_rel(rng, depth - 1, defs).opt(),
        _ => random_rel(rng, depth - 1, defs).restrict(random_set(rng, 1), random_set(rng, 1)),
    }
}

/// A random model named `random-model`: up to four definitions
/// `d0..d3` and one to three axioms `A0..A2`, every shape a function of
/// `seed` alone.
#[must_use]
pub fn random_ir(seed: u64) -> ModelIr {
    const DEF_NAMES: [&str; 4] = ["d0", "d1", "d2", "d3"];
    const AXIOM_NAMES: [&str; 3] = ["A0", "A1", "A2"];
    let rng = &mut seed.clone();
    let mut ir = ModelIr::new("random-model");
    let n_defs = (next(rng) % 4) as usize;
    for (i, name) in DEF_NAMES.iter().enumerate().take(n_defs) {
        let body = random_rel(rng, 3, &DEF_NAMES[..i]);
        ir = ir.define(name, body);
    }
    let n_axioms = 1 + (next(rng) % 3) as usize;
    for name in AXIOM_NAMES.iter().take(n_axioms) {
        let kind = match next(rng) % 3 {
            0 => AxiomKind::Acyclic,
            1 => AxiomKind::Irreflexive,
            _ => AxiomKind::Empty,
        };
        ir = ir.axiom(name, kind, random_rel(rng, 3, &DEF_NAMES[..n_defs]));
    }
    ir
}
