//! The microarchitecture models as declarative IR: a [`BaseRelations`]
//! binding over hardware-level executions, a compiler from
//! [`UarchConfig`] relaxation knobs to a [`ModelIr`]. Models written
//! directly as text (e.g. the x86-TSO model in `models/x86-tso.stack`)
//! are parsed against [`hw_vocabulary`] into the same IR.
//!
//! The binding is deliberately *model-free*: every base it provides is
//! derived from the execution's events and annotations alone (program
//! order, communication relations, fence-induced edge sets, AMO
//! ordering-bit event sets). All model semantics — which relaxations a
//! pipeline performs, what a release publishes, how propagation
//! composes — live in the IR built by [`build_uarch_ir`], so a model is
//! a value you can print, diff, and extend without touching the
//! evaluator.
//!
//! # Base names
//!
//! Relations: `po`, `po-loc`, `same-loc`, `addr`, `data`, `rmw`, `rf`,
//! `rfe`, `rfi`, `co`, `fr`, `fre`, `fence-noncum`, `fence-cum`,
//! `fence-heavy`.
//!
//! Sets: `R`, `W`, `F`, `M` (accesses), `init`, `amo-aq`, `amo-rl`,
//! `amo-sc`.

use tricheck_isa::HwAnnot;
use tricheck_litmus::{EventKind, Execution};
use tricheck_rel::ir::{AxiomKind, BaseRelations, ModelIr, RelExpr, SetExpr};
use tricheck_rel::{EventSet, Relation};

use crate::config::{ReleasePredecessors, StoreAtomicity, UarchConfig};

/// Every base-relation name [`HwBinding`] can resolve, in the order the
/// module docs list them. This is the relation half of the vocabulary a
/// runtime-parsed hardware model is validated against.
pub const HW_REL_BASES: &[&str] = &[
    "po",
    "po-loc",
    "same-loc",
    "addr",
    "data",
    "rmw",
    "rf",
    "rfe",
    "rfi",
    "co",
    "fr",
    "fre",
    "fence-noncum",
    "fence-cum",
    "fence-heavy",
];

/// Every base-set name [`HwBinding`] can resolve: the set half of the
/// runtime-parse vocabulary.
pub const HW_SET_BASES: &[&str] = &["R", "W", "F", "M", "init", "amo-aq", "amo-rl", "amo-sc"];

/// The [`HwBinding`] vocabulary for `tricheck_rel::parse::parse_model`:
/// models parsed against this vocabulary evaluate (and compile) against
/// hardware-level executions exactly like the built-in models.
#[must_use]
pub fn hw_vocabulary() -> tricheck_rel::parse::Vocabulary<'static> {
    tricheck_rel::parse::Vocabulary {
        rels: HW_REL_BASES,
        sets: HW_SET_BASES,
    }
}

/// Event-sort bit for read events in [`hw_lint_schema`].
pub const SORT_R: tricheck_rel::lint::Sort = 1;
/// Event-sort bit for write events in [`hw_lint_schema`].
pub const SORT_W: tricheck_rel::lint::Sort = 2;
/// Event-sort bit for fence events in [`hw_lint_schema`].
pub const SORT_F: tricheck_rel::lint::Sort = 4;

/// The lint schema for the [`HwBinding`] vocabulary: per-base
/// domain/range sorts and order facts, each of which holds in *every*
/// execution [`HwBinding`] can produce (see `tricheck-litmus`'s
/// execution builder).
///
/// - `po` is a strict order per construction (and excludes init
///   events); `po-loc` and the fence edge sets are subsets of it.
/// - `same-loc` excludes the diagonal but is symmetric, so it is
///   irreflexive without being acyclic.
/// - `addr`/`data` root at reads and point po-forward; `rmw` relates
///   the read half to the write half; `rf`/`rfe`/`rfi` go write→read,
///   `co` is a per-location strict order on writes, `fr`/`fre` go
///   read→write.
/// - The annotation sets (`init`, `amo-*`) only ever contain accesses.
#[must_use]
pub fn hw_lint_schema() -> tricheck_rel::lint::LintSchema {
    use tricheck_rel::lint::LintSchema;
    const M: tricheck_rel::lint::Sort = SORT_R | SORT_W;
    const ANY: tricheck_rel::lint::Sort = SORT_R | SORT_W | SORT_F;
    LintSchema::new(ANY)
        .set("R", SORT_R)
        .set("W", SORT_W)
        .set("F", SORT_F)
        .set("M", M)
        .set("init", SORT_W)
        .set("amo-aq", M)
        .set("amo-rl", M)
        .set("amo-sc", M)
        .ordered_rel("po", ANY, ANY)
        .ordered_rel("po-loc", M, M)
        .irreflexive_rel("same-loc", M, M)
        .ordered_rel("addr", SORT_R, M)
        .ordered_rel("data", SORT_R, SORT_W)
        .ordered_rel("rmw", SORT_R, SORT_W)
        .ordered_rel("rf", SORT_W, SORT_R)
        .ordered_rel("rfe", SORT_W, SORT_R)
        .ordered_rel("rfi", SORT_W, SORT_R)
        .ordered_rel("co", SORT_W, SORT_W)
        .ordered_rel("fr", SORT_R, SORT_W)
        .ordered_rel("fre", SORT_R, SORT_W)
        .ordered_rel("fence-noncum", M, M)
        .ordered_rel("fence-cum", M, M)
        .ordered_rel("fence-heavy", M, M)
}

/// The fence-induced edge sets of an execution, split by cumulativity
/// class: `(non-cumulative, cumulative, heavyweight-cumulative)` edges.
/// `heavy ⊆ cumulative`. Each edge `(x, y)` relates accesses of the
/// fencing thread that the fence's kind orders.
///
/// The split is annotation bookkeeping, not model semantics, so it
/// lives in the binding rather than in any model.
#[must_use]
fn fence_edges(exec: &Execution<HwAnnot>) -> (Relation, Relation, Relation) {
    let n = exec.len();
    let accesses = exec.reads().union(exec.writes());
    let kind = |e: usize| exec.events()[e].kind;
    let mut f_noncum = Relation::empty(n);
    let mut f_cum = Relation::empty(n);
    let mut f_heavy = Relation::empty(n);
    for f in exec.fences().iter() {
        let Some(HwAnnot::Fence(k)) = exec.ann(f) else {
            continue;
        };
        for x in exec.po().inverse().successors(f).intersect(accesses).iter() {
            for y in exec.po().successors(f).intersect(accesses).iter() {
                if k.orders(kind(x), kind(y)) {
                    if k.is_cumulative() {
                        f_cum.insert(x, y);
                        if matches!(k, tricheck_isa::FenceKind::CumulativeHeavy) {
                            f_heavy.insert(x, y);
                        }
                    } else {
                        f_noncum.insert(x, y);
                    }
                }
            }
        }
    }
    (f_noncum, f_cum, f_heavy)
}

/// The model-free binding of IR base names to one hardware-level
/// candidate execution.
#[derive(Debug)]
pub struct HwBinding<'e> {
    exec: &'e Execution<HwAnnot>,
    /// The three fence edge sets share one computation; the evaluator
    /// asks for them under separate names.
    fences: std::cell::OnceCell<(Relation, Relation, Relation)>,
    /// `same_loc` backs both the `same-loc` and `po-loc` bases.
    same_loc: std::cell::OnceCell<Relation>,
    /// `fr = rf⁻¹;co`, backing the `fr` and `fre` bases. Pre-seeded by
    /// [`HwBinding::with_fr`] when the caller already holds the derived
    /// relation (the arena's `fr` column), computed on demand otherwise.
    fr: std::cell::OnceCell<Relation>,
}

impl<'e> HwBinding<'e> {
    /// Binds an execution.
    #[must_use]
    pub fn new(exec: &'e Execution<HwAnnot>) -> Self {
        HwBinding {
            exec,
            fences: std::cell::OnceCell::new(),
            same_loc: std::cell::OnceCell::new(),
            fr: std::cell::OnceCell::new(),
        }
    }

    /// Binds an execution whose `fr = rf⁻¹;co` the caller has already
    /// derived (columnar spaces keep `fr` precomputed per candidate), so
    /// the `fr`/`fre` bases skip the inverse-compose recompute.
    #[must_use]
    pub fn with_fr(exec: &'e Execution<HwAnnot>, fr: Relation) -> Self {
        let binding = Self::new(exec);
        let _ = binding.fr.set(fr);
        binding
    }

    fn fence_rels(&self) -> &(Relation, Relation, Relation) {
        self.fences.get_or_init(|| fence_edges(self.exec))
    }

    fn fr(&self) -> &Relation {
        self.fr.get_or_init(|| self.exec.fr())
    }

    fn same_loc(&self) -> &Relation {
        self.same_loc.get_or_init(|| self.exec.same_loc())
    }

    fn amo_set(&self, pick: impl Fn(tricheck_isa::AmoBits) -> bool) -> EventSet {
        let n = self.exec.len();
        EventSet::from_ids(
            n,
            (0..n).filter(|&e| {
                self.exec
                    .ann(e)
                    .and_then(HwAnnot::amo_bits)
                    .is_some_and(&pick)
            }),
        )
    }

    fn kind_set(&self, kind: EventKind) -> EventSet {
        match kind {
            EventKind::Read => self.exec.reads(),
            EventKind::Write => self.exec.writes(),
            EventKind::Fence => self.exec.fences(),
        }
    }
}

impl BaseRelations for HwBinding<'_> {
    fn universe(&self) -> usize {
        self.exec.len()
    }

    fn rel(&self, name: &str) -> Option<Relation> {
        Some(match name {
            "po" => self.exec.po().clone(),
            "po-loc" => self.exec.po().intersect(self.same_loc()),
            "same-loc" => self.same_loc().clone(),
            "addr" => self.exec.addr().clone(),
            "data" => self.exec.data().clone(),
            "rmw" => self.exec.rmw().clone(),
            "rf" => self.exec.rf().clone(),
            "rfe" => self.exec.rfe(),
            "rfi" => self.exec.rfi(),
            "co" => self.exec.co().clone(),
            "fr" => self.fr().clone(),
            "fre" => self.exec.external(self.fr()),
            "fence-noncum" => self.fence_rels().0.clone(),
            "fence-cum" => self.fence_rels().1.clone(),
            "fence-heavy" => self.fence_rels().2.clone(),
            _ => return None,
        })
    }

    fn set(&self, name: &str) -> Option<EventSet> {
        Some(match name {
            "R" => self.kind_set(EventKind::Read),
            "W" => self.kind_set(EventKind::Write),
            "F" => self.kind_set(EventKind::Fence),
            "M" => self.exec.reads().union(self.exec.writes()),
            "init" => self.exec.inits(),
            "amo-aq" => self.amo_set(|b| b.aq),
            "amo-rl" => self.amo_set(|b| b.rl),
            "amo-sc" => self.amo_set(|b| b.sc),
            _ => return None,
        })
    }
}

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
/// the result is judged through [`HwBinding`] with no further
/// config-dependence. The test-only imperative checker
/// (`tricheck_oracle::uarch_check`) is the differential oracle for this
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
            // `crate::model`).
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
    use super::*;
    use tricheck_isa::SpecVersion;
    use tricheck_litmus::{enumerate_executions, suite, MemOrder};

    #[test]
    fn binding_provides_every_base_the_models_reference() {
        let test = suite::mp([MemOrder::Rlx; 4]);
        let compiled = tricheck_compiler::compile(
            &test,
            tricheck_compiler::riscv_mapping(tricheck_isa::RiscvIsa::BaseA, SpecVersion::Curr),
        )
        .unwrap();
        enumerate_executions(compiled.program(), &mut |exec| {
            let binding = HwBinding::new(exec);
            for name in HW_REL_BASES {
                assert!(binding.rel(name).is_some(), "missing base relation {name}");
            }
            for name in HW_SET_BASES {
                assert!(binding.set(name).is_some(), "missing base set {name}");
            }
            assert!(binding.rel("nonesuch").is_none());
            assert!(binding.set("nonesuch").is_none());
            false
        });
    }

    #[test]
    fn every_config_compiles_to_a_printable_model() {
        let mut configs = Vec::new();
        for version in [SpecVersion::Curr, SpecVersion::Ours] {
            configs.extend(UarchConfig::all_riscv(version));
        }
        configs.extend(UarchConfig::all_armv7());
        for cfg in configs {
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

    #[test]
    fn every_builtin_ir_roundtrips_through_the_parser() {
        let vocab = hw_vocabulary();
        let mut irs = Vec::new();
        for version in [SpecVersion::Curr, SpecVersion::Ours] {
            irs.extend(UarchConfig::all_riscv(version).iter().map(build_uarch_ir));
        }
        irs.extend(UarchConfig::all_armv7().iter().map(build_uarch_ir));
        for ir in irs {
            let parsed = tricheck_rel::parse_model(&ir.to_string(), &vocab)
                .unwrap_or_else(|e| panic!("{}: {e}", ir.name()));
            assert_eq!(parsed, ir, "{} does not round-trip", ir.name());
        }
    }
}
