//! The imperative C11 checker: Batty et al.'s axioms (see the
//! `tricheck-c11` crate docs) written directly over relation
//! operations instead of through `C11Model::ir`.
//!
//! It reads `po`, `rf`, `co`, `fr`, `rmw` and the init writes off the
//! execution itself, so a binding that served the wrong relation under
//! one of those base names would split the two. Only the two bases the
//! relation algebra cannot express, `sw` (maximal release sequences)
//! and `sc-bad` (the existential SC-order search), come from
//! [`C11Binding`]: the checker shares exactly those computations with
//! the model and nothing else.

use tricheck_c11::C11Binding;
use tricheck_litmus::{Execution, MemOrder};
use tricheck_rel::ir::BaseRelations;

/// Checks one candidate execution for C11 consistency, reporting the
/// first violated axiom under the name `C11Model::ir` gives it.
///
/// # Errors
///
/// The name of the first violated axiom.
pub fn c11_check(exec: &Execution<MemOrder>) -> Result<(), &'static str> {
    let binding = C11Binding::new(exec);
    let n = exec.len();
    let inits = exec.inits();

    // hb = (sb ∪ sw ∪ init-before-everything)⁺
    let sw = binding.rel("sw").expect("C11Binding provides sw");
    let mut hb_base = exec.po().union(sw);
    for init in inits.iter() {
        for e in 0..n {
            if !inits.contains(e) {
                hb_base.insert(init, e);
            }
        }
    }
    let hb = hb_base.transitive_closure();
    let fr = exec.fr();
    let eco = exec.rf().union(exec.co()).union(&fr).transitive_closure();

    if !hb.is_irreflexive() {
        return Err("HbCycle");
    }
    if !hb.compose(&eco).is_irreflexive() {
        return Err("Coherence");
    }
    if !exec.rmw().intersect(&fr.compose(exec.co())).is_empty() {
        return Err("Atomicity");
    }
    let sc_bad = binding.rel("sc-bad").expect("C11Binding provides sc-bad");
    if !sc_bad.is_empty() {
        return Err("ScOrder");
    }
    Ok(())
}
