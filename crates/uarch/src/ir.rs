//! The hardware vocabulary the microarchitecture models are written
//! in: a [`BaseRelations`] binding over hardware-level executions, and
//! the names and lint schema a model file is parsed and checked
//! against. Every model — the built-ins under `models/` and any user
//! file — is text parsed against [`hw_vocabulary`] into a
//! `tricheck_rel::ModelIr`.
//!
//! The binding is deliberately *model-free*: every base it provides is
//! derived from the execution's events and annotations alone (program
//! order, communication relations, fence-induced edge sets, AMO
//! ordering-bit event sets). All model semantics — which relaxations a
//! pipeline performs, what a release publishes, how propagation
//! composes — live in the model text, so a model is a file you can
//! print, diff, and edit without touching the evaluator.
//!
//! # Base names
//!
//! Relations: `po`, `po-loc`, `same-loc`, `addr`, `data`, `rmw`, `rf`,
//! `rfe`, `rfi`, `co`, `fr`, `fre`, `fence-noncum`, `fence-cum`,
//! `fence-heavy`.
//!
//! Sets: `R`, `W`, `F`, `M` (accesses), `init`, `amo-aq`, `amo-rl`,
//! `amo-sc`.

use std::cell::OnceCell;

use tricheck_isa::HwAnnot;
use tricheck_litmus::{EventKind, Execution};
use tricheck_rel::ir::BaseRelations;
use tricheck_rel::{EventSet, Relation};

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
/// class: `[non-cumulative, cumulative, heavyweight-cumulative]` edges.
/// `heavy ⊆ cumulative`. Each edge `(x, y)` relates accesses of the
/// fencing thread that the fence's kind orders.
///
/// The split is annotation bookkeeping, not model semantics, so it
/// lives in the binding rather than in any model.
#[must_use]
fn fence_edges(exec: &Execution<HwAnnot>) -> [Relation; 3] {
    let n = exec.len();
    let accesses = exec.reads().union(exec.writes());
    let kind = |e: usize| exec.events()[e].kind;
    let mut f_noncum = Relation::empty(n);
    let mut f_cum = Relation::empty(n);
    let mut f_heavy = Relation::empty(n);
    let po_inv = exec.po().inverse();
    for f in exec.fences().iter() {
        let Some(HwAnnot::Fence(k)) = exec.ann(f) else {
            continue;
        };
        for x in po_inv.successors(f).intersect(accesses).iter() {
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
    [f_noncum, f_cum, f_heavy]
}

/// The model-free binding of IR base names to one hardware-level
/// candidate execution.
///
/// Bases the execution stores (`po`, `rf`, `co`, dependencies, `rmw`)
/// are lent straight from it. Each derived base is computed at most
/// once per binding, on first use, into an inline cell, and lent from
/// there: the three fence edge sets share one computation, `fr` backs
/// `fr` and `fre`, and `same-loc` backs `same-loc` and `po-loc`. None
/// of it touches the heap.
#[derive(Debug)]
pub struct HwBinding<'e> {
    exec: &'e Execution<HwAnnot>,
    /// `fr = rf⁻¹;co`, pre-seeded by [`HwBinding::with_fr`] when the
    /// caller already holds the derived relation (the arena's `fr`
    /// column), computed on demand otherwise.
    fr: OnceCell<Relation>,
    fences: OnceCell<[Relation; 3]>,
    same_loc: OnceCell<Relation>,
    po_loc: OnceCell<Relation>,
    fre: OnceCell<Relation>,
    rfe: OnceCell<Relation>,
    rfi: OnceCell<Relation>,
}

impl<'e> HwBinding<'e> {
    /// Binds an execution.
    #[must_use]
    pub fn new(exec: &'e Execution<HwAnnot>) -> Self {
        HwBinding {
            exec,
            fr: OnceCell::new(),
            fences: OnceCell::new(),
            same_loc: OnceCell::new(),
            po_loc: OnceCell::new(),
            fre: OnceCell::new(),
            rfe: OnceCell::new(),
            rfi: OnceCell::new(),
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

    fn rel(&self, name: &str) -> Option<&Relation> {
        let exec = self.exec;
        let fence = |i: usize| &self.fences.get_or_init(|| fence_edges(exec))[i];
        Some(match name {
            "po" => exec.po(),
            "po-loc" => self
                .po_loc
                .get_or_init(|| exec.po().intersect(self.same_loc())),
            "same-loc" => self.same_loc(),
            "addr" => exec.addr(),
            "data" => exec.data(),
            "rmw" => exec.rmw(),
            "rf" => exec.rf(),
            "rfe" => self.rfe.get_or_init(|| exec.rfe()),
            "rfi" => self.rfi.get_or_init(|| exec.rfi()),
            "co" => exec.co(),
            "fr" => self.fr(),
            "fre" => self.fre.get_or_init(|| exec.external(self.fr())),
            "fence-noncum" => fence(0),
            "fence-cum" => fence(1),
            "fence-heavy" => fence(2),
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
}
