//! The knob generator of the built-in microarchitecture models: the
//! paper's Table 7 relaxation knobs and §5 refinement switches
//! ([`UarchConfig`]) compiled to a [`ModelIr`]. The built-in models
//! ship as text (`models/riscv-curr/`, `models/riscv-ours/`,
//! `models/armv7/`); here the generator is a check on that text: the
//! tests below pin every committed file to the IR its knobs generate,
//! and [`crate::uarch_check`] evaluates the same knobs imperatively.

use tricheck_rel::ir::{AxiomKind, ModelIr, RelExpr, SetExpr};

use crate::config::{ReleasePredecessors, StoreAtomicity, UarchConfig};

fn rel(name: &'static str) -> RelExpr {
    RelExpr::base(name)
}

fn set(name: &'static str) -> SetExpr {
    SetExpr::base(name)
}

fn reference(name: &'static str) -> RelExpr {
    RelExpr::reference(name)
}

/// Compiles a [`UarchConfig`] into its declarative model: every
/// relaxation knob becomes structure in the returned [`ModelIr`], and
/// the result is judged through `tricheck_uarch::HwBinding` with no
/// further config-dependence. The imperative checker
/// ([`crate::uarch_check`]) is the differential oracle for this
/// compilation.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn build_uarch_ir(cfg: &UarchConfig) -> ModelIr {
    let r = set("R");
    let w = set("W");
    let m = set("M");

    // --- Preserved program order, from the relaxation knobs ---
    let po_acc = rel("po").restrict(m.clone(), m.clone());
    let po_loc_acc = po_acc.clone().inter(rel("same-loc"));
    let mut pipeline_ppo = rel("addr")
        .union(rel("data"))
        .union(rel("rmw"))
        .union(po_loc_acc.clone().restrict(r.clone(), w.clone()));
    if cfg.same_addr_rr_ordered {
        pipeline_ppo = pipeline_ppo.union(po_loc_acc.clone().restrict(r.clone(), r.clone()));
    }
    if cfg.atomicity == StoreAtomicity::Mca {
        // No forwarding: a load waits for the pending same-address store.
        pipeline_ppo = pipeline_ppo.union(po_loc_acc.restrict(w.clone(), r.clone()));
    }
    if !cfg.relax_ww {
        pipeline_ppo = pipeline_ppo.union(po_acc.clone().restrict(w.clone(), w.clone()));
    }
    if !cfg.relax_rm {
        pipeline_ppo = pipeline_ppo.union(po_acc.restrict(r.clone(), m.clone()));
    }

    // --- AMO aq/rl one-way barriers (§4.2.1) ---
    let aq = rel("po").restrict(set("amo-aq").inter(m.clone()), m.clone());
    let rl = rel("po").restrict(m.clone(), set("amo-rl").inter(m.clone()));

    let mut ir = ModelIr::new(cfg.name.clone())
        .define("pipeline-ppo", pipeline_ppo)
        .define("aq", aq)
        .define("rl", rl)
        .define(
            "ppo",
            reference("pipeline-ppo")
                .union(reference("aq"))
                .union(reference("rl")),
        )
        .define("fences", rel("fence-noncum").union(rel("fence-cum")))
        .define("com", rel("rf").union(rel("co")).union(rel("fr")));

    // --- Happens-before ---
    let mut hb = reference("ppo")
        .union(reference("fences"))
        .union(rel("rfe"));
    if cfg.atomicity == StoreAtomicity::Mca {
        hb = hb.union(rel("rfi"));
    }
    ir = ir.define("hb", hb);
    if cfg.atomicity == StoreAtomicity::NMca {
        // Only the non-MCA propagation construction below uses the
        // reflexive closure; defining it elsewhere is dead code (and
        // the lint pass would rightly flag it with W001).
        ir = ir.define("hb-star", reference("hb").star());
    }
    ir = ir.define("hb-plus", reference("hb").plus());

    // --- Propagation ---
    let prop = match cfg.atomicity {
        StoreAtomicity::Mca => reference("ppo")
            .union(reference("fences"))
            .union(rel("rf"))
            .union(rel("fr"))
            .plus(),
        StoreAtomicity::RMca => reference("ppo")
            .union(reference("fences"))
            .union(rel("rfe"))
            .union(rel("fr"))
            .plus(),
        StoreAtomicity::NMca => {
            // 1. Cumulative fences (the Herding-Cats Power construction).
            ir = ir
                .define(
                    "local",
                    reference("pipeline-ppo")
                        .union(reference("fences"))
                        .union(reference("aq")),
                )
                .define(
                    "prop-base",
                    rel("fence-cum")
                        .union(rel("rfe").seq(rel("fence-cum")))
                        .seq(reference("hb-star")),
                )
                .define(
                    "heavy",
                    reference("com")
                        .star()
                        .seq(reference("prop-base").star())
                        .seq(rel("fence-heavy"))
                        .seq(reference("hb-star")),
                )
                .define(
                    "cum",
                    reference("prop-base")
                        .inter(RelExpr::cross(w.clone(), w.clone()))
                        .union(reference("heavy"))
                        .seq(reference("hb-star")),
                );
            // 2. Release synchronization (AMO rl): the release's
            //    predecessor set becomes visible to eligible readers.
            //    §5.2.1 picks the predecessor relation, §5.2.3 the
            //    eligible readers.
            let rl_writes = set("amo-rl").inter(w.clone());
            let preds = match cfg.release_predecessors {
                ReleasePredecessors::ProgramOrder => rel("po"),
                ReleasePredecessors::HappensBefore => reference("hb-plus"),
            };
            let eligible = if cfg.release_sync_any_load {
                SetExpr::Universe
            } else {
                set("amo-aq")
            };
            ir = ir.define(
                "sync",
                preds
                    .restrict(m.clone(), rl_writes.clone())
                    .seq(rel("rfe").restrict(rl_writes, eligible)),
            );
            // 3. SC-AMO global visibility (A9like): reading a completed
            //    AMO's write is a globally-agreed fact.
            let scvis = if cfg.sc_amo_writes_globally_visible {
                rel("rfe").restrict(set("amo-sc").inter(w.clone()), SetExpr::Universe)
            } else {
                RelExpr::Empty
            };
            // Non-cumulative ordering splits by the kind of its target:
            // *drain* edges are global facts, *per-observer* edges relay
            // through exactly one reads-from hop (see the crate docs of
            // `tricheck_uarch::model`).
            ir = ir
                .define("scvis", scvis)
                .define("drain", rel("fence-noncum").restrict(m.clone(), r.clone()))
                .define(
                    "per-observer",
                    rel("fence-noncum")
                        .union(reference("pipeline-ppo"))
                        .restrict(m.clone(), w.clone()),
                )
                .define(
                    "strong",
                    reference("cum")
                        .union(reference("sync"))
                        .union(reference("scvis"))
                        .union(reference("local"))
                        .union(reference("drain"))
                        .plus(),
                )
                .define(
                    "relayed",
                    reference("strong")
                        .opt()
                        .seq(reference("per-observer"))
                        .seq(rel("rfe"))
                        .seq(reference("local").star()),
                )
                .define(
                    "fre-drain",
                    rel("fre")
                        .seq(reference("drain"))
                        .seq(reference("strong").opt()),
                );
            reference("strong")
                .union(reference("relayed"))
                .union(reference("fre-drain"))
        }
    };
    ir = ir.define("prop", prop);

    // --- Per-location coherence order basis (§5.1.3) ---
    let mut po_loc = rel("po-loc");
    if cfg.relax_rm && !cfg.same_addr_rr_ordered {
        po_loc = po_loc.minus(RelExpr::cross(r.clone(), r));
    }
    ir = ir.define(
        "po-loc-all",
        po_loc.union(
            reference("ppo")
                .union(reference("fences"))
                .plus()
                .inter(rel("same-loc")),
        ),
    );

    let sc_amo = set("amo-sc").inter(m);
    ir.axiom(
        "ScPerLocation",
        AxiomKind::Acyclic,
        reference("po-loc-all").union(reference("com")),
    )
    .axiom(
        "Atomicity",
        AxiomKind::Empty,
        rel("rmw").inter(rel("fr").seq(rel("co"))),
    )
    .axiom("Causality", AxiomKind::Acyclic, reference("hb"))
    .axiom(
        "Observation",
        AxiomKind::Irreflexive,
        rel("fre").seq(reference("prop")),
    )
    .axiom(
        "Propagation",
        AxiomKind::Acyclic,
        rel("co").union(reference("prop")),
    )
    .axiom(
        "ScAmoOrder",
        AxiomKind::Acyclic,
        // The global SC-AMO order must be consistent with program order,
        // (transitive) happens-before, and direct communication between
        // SC AMOs (§4.2.2). Restriction to an empty participant set
        // yields the empty relation, which is vacuously acyclic — the
        // imperative checker's "skip when no SC AMOs" special case.
        reference("hb-plus")
            .union(rel("po"))
            .union(reference("com"))
            .restrict(sc_amo.clone(), sc_amo),
    )
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use tricheck_rel::parse_model;
    use tricheck_uarch::{hw_vocabulary, UarchModel};

    use super::*;

    /// The committed file of a built-in model: `nMM/riscv-curr` lives in
    /// `models/riscv-curr/nMM.cat`, `ARMv7-A9like` in
    /// `models/armv7/A9like.cat`.
    fn model_file(name: &str) -> PathBuf {
        let relative = match name.split_once('/') {
            Some((model, version)) => format!("{version}/{model}.cat"),
            None => format!("armv7/{}.cat", name.trim_start_matches("ARMv7-")),
        };
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../models")
            .join(relative)
    }

    #[test]
    fn every_config_compiles_to_a_printable_model() {
        for cfg in UarchConfig::all_builtin() {
            let ir = build_uarch_ir(&cfg);
            assert_eq!(ir.name(), cfg.name);
            let text = ir.to_string();
            assert!(text.contains("ppo :="), "{text}");
            assert!(
                ir.axioms().iter().any(|a| a.name == "ScPerLocation"),
                "{text}"
            );
            assert_eq!(ir.axioms().len(), 6);
        }
    }

    /// The knobs check the text: each of the 16 committed model files
    /// parses to exactly the IR its configuration generates, and the
    /// built-in table serves that IR under the same name.
    #[test]
    fn committed_model_files_match_the_generator() {
        let configs = UarchConfig::all_builtin();
        assert_eq!(configs.len(), 16);
        for cfg in configs {
            let path = model_file(&cfg.name);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let parsed = parse_model(&text, &hw_vocabulary())
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let generated = build_uarch_ir(&cfg);
            assert_eq!(
                parsed,
                generated,
                "{} drifted from its knobs",
                path.display()
            );
            let builtin = UarchModel::builtin(&cfg.name).expect("built in");
            assert_eq!(builtin.ir(), &generated, "{}", cfg.name);
        }
    }
}
