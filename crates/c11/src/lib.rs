//! The C11/C++11 axiomatic memory model — TriCheck's Step 1
//! (HLL AXIOMATIC EVALUATION).
//!
//! This crate decides, for a candidate execution of a C11 litmus test,
//! whether the execution is *consistent* under the C11 memory model, and
//! aggregates those judgements into per-test verdicts: is the test's
//! target outcome permitted or forbidden?
//!
//! # The model
//!
//! The implementation follows the formalization of Batty et al.
//! ("Mathematizing C++ concurrency", POPL 2011) restricted to the fragment
//! the TriCheck suite exercises — atomic loads, stores and RMWs with
//! orders in {relaxed, acquire, release, acq_rel, seq_cst}; no C11 fences,
//! no non-atomics, no consume:
//!
//! - **Release sequences** (`rs`): a release write heads the maximal
//!   contiguous run of modification-order successors that are same-thread
//!   writes or RMWs.
//! - **Synchronizes-with** (`sw`): a release write synchronizes with every
//!   acquire load (of another thread) that reads from its release
//!   sequence.
//! - **Happens-before** (`hb`): the transitive closure of sequenced-before
//!   and `sw`; initialization writes happen-before everything.
//! - **Coherence**: `hb` is irreflexive and `hb ; eco` is irreflexive,
//!   where `eco = (rf ∪ mo ∪ fr)⁺` — equivalent to the CoWW/CoRR/CoWR/CoRW
//!   axioms plus rf/hb consistency.
//! - **RMW atomicity**: each RMW write immediately follows its read's
//!   source in modification order (`rmw ∩ (fr ; mo) = ∅`).
//! - **SC order**: there exists a total order `S` over seq_cst events,
//!   consistent with `hb` and `mo`, such that every SC read reads either
//!   the most recent SC write to its location in `S`, or a non-SC write
//!   not hidden by an `S`-earlier SC write it happens-before.
//!
//! Known deviation (documented in DESIGN.md §2.3): C11-2011 permits
//! out-of-thin-air executions for relaxed atomics and so does this model;
//! none of the paper's litmus shapes can exhibit them.
//!
//! # Examples
//!
//! ```
//! use tricheck_c11::C11Model;
//! use tricheck_litmus::{suite, MemOrder};
//!
//! let model = C11Model::new();
//! // Message passing with release/acquire forbids the stale-read outcome…
//! let mp_ra = suite::mp([MemOrder::Rlx, MemOrder::Rel, MemOrder::Acq, MemOrder::Rlx]);
//! assert!(!model.permits_target(&mp_ra));
//! // …while all-relaxed message passing allows it.
//! let mp_rlx = suite::mp([MemOrder::Rlx; 4]);
//! assert!(model.permits_target(&mp_rlx));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::sync::OnceLock;

use tricheck_litmus::{ConsistencyModel, Execution, LitmusTest, MemOrder, Outcome};
use tricheck_rel::ir::{AxiomKind, BaseRelations, ModelIr, RelExpr, SetExpr};
use tricheck_rel::{linear_extensions, CompiledModel, EventSet, Relation, MAX_EVENTS};

/// The verdict of the C11 model on a litmus test's target outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum C11Verdict {
    /// Some consistent execution realizes the target outcome.
    Permitted,
    /// No consistent execution realizes the target outcome.
    Forbidden,
}

/// The C11 memory model as a consistency predicate over candidate
/// executions (see the crate docs for the axioms).
#[derive(Clone, Copy, Debug, Default)]
pub struct C11Model {
    _private: (),
}

impl C11Model {
    /// Creates the model.
    #[must_use]
    pub fn new() -> Self {
        C11Model::default()
    }

    /// The C11 model as declarative IR, shared by every instance.
    ///
    /// Two of its bases are irreducibly non-relational and provided by
    /// the [`C11Binding`] directly: `sw` (release sequences are
    /// *maximal contiguous* runs in modification order, which the
    /// relation algebra cannot express head-relative) and `sc-bad`
    /// (Batty's SC condition existentially quantifies over total
    /// orders; the binding exposes it as a witness relation that is
    /// empty exactly when a valid SC order exists).
    #[must_use]
    pub fn ir() -> &'static ModelIr {
        static IR: OnceLock<ModelIr> = OnceLock::new();
        IR.get_or_init(|| {
            let init_hb = RelExpr::cross(
                SetExpr::base("init"),
                SetExpr::Universe.minus(SetExpr::base("init")),
            );
            ModelIr::new("C11")
                .define(
                    "hb",
                    RelExpr::base("po")
                        .union(RelExpr::base("sw"))
                        .union(init_hb)
                        .plus(),
                )
                .define(
                    "eco",
                    RelExpr::base("rf")
                        .union(RelExpr::base("co"))
                        .union(RelExpr::base("fr"))
                        .plus(),
                )
                .axiom("HbCycle", AxiomKind::Irreflexive, RelExpr::reference("hb"))
                .axiom(
                    "Coherence",
                    AxiomKind::Irreflexive,
                    RelExpr::reference("hb").seq(RelExpr::reference("eco")),
                )
                .axiom(
                    "Atomicity",
                    AxiomKind::Empty,
                    RelExpr::base("rmw").inter(RelExpr::base("fr").seq(RelExpr::base("co"))),
                )
                .axiom("ScOrder", AxiomKind::Empty, RelExpr::base("sc-bad"))
        })
    }

    /// The C11 IR lowered to a fused bitset kernel, shared by every
    /// instance. Program-only bases (`po`, `rmw`, `init`) are hoisted
    /// into the kernel's prelude; `sw` and `sc-bad` stay
    /// candidate-dependent (both derive from `rf`/`co`).
    #[must_use]
    pub fn compiled() -> &'static CompiledModel {
        static COMPILED: OnceLock<CompiledModel> = OnceLock::new();
        COMPILED.get_or_init(|| CompiledModel::compile(Self::ir(), &["po", "rmw", "init"]))
    }

    /// Whether the test's target outcome is permitted by C11: the
    /// one-shot [`ConsistencyModel::observes`] over the test's program.
    #[must_use]
    pub fn permits_target(&self, test: &LitmusTest) -> bool {
        self.observes(test.program(), test.target())
    }

    /// The verdict on the test's target outcome.
    #[must_use]
    pub fn judge(&self, test: &LitmusTest) -> C11Verdict {
        if self.permits_target(test) {
            C11Verdict::Permitted
        } else {
            C11Verdict::Forbidden
        }
    }

    /// The full set of outcomes C11 permits for the test: the one-shot
    /// [`ConsistencyModel::observable_outcomes`] over its program.
    #[must_use]
    pub fn permitted_outcomes(&self, test: &LitmusTest) -> BTreeSet<Outcome> {
        self.observable_outcomes(test.program(), test.observed())
    }
}

/// C11 judges through its compiled kernel ([`C11Model::compiled`]),
/// which `tests/model_properties.rs` pins against the test-only oracles
/// on every candidate execution of random suite subsets.
impl ConsistencyModel for C11Model {
    type Ann = MemOrder;
    type Binding<'e> = C11Binding<'e>;

    fn model_name(&self) -> &str {
        "C11"
    }

    fn kernel(&self) -> &CompiledModel {
        Self::compiled()
    }

    fn bind(exec: &Execution<MemOrder>, fr: Option<Relation>) -> C11Binding<'_> {
        C11Binding {
            fr: fr.map_or_else(OnceCell::new, OnceCell::from),
            ..C11Binding::new(exec)
        }
    }
}

/// The binding of the C11 IR's base names to one candidate execution.
///
/// Bases: relations `po`, `rf`, `co`, `fr`, `rmw`, `sw`
/// (release-sequence synchronization, see [`C11Model::ir`] for why it
/// is a base), and `sc-bad` (a witness relation that is empty iff a
/// total SC order satisfying Batty's conditions exists); set `init`.
/// The execution's own relations are lent; each derived one is computed
/// at most once per binding, inline, and lent from there.
#[derive(Debug)]
pub struct C11Binding<'e> {
    exec: &'e Execution<MemOrder>,
    /// `fr = rf⁻¹;co`, pre-seeded by [`ConsistencyModel::bind`] when
    /// the caller already holds the derived relation (the arena's `fr`
    /// column), computed on demand otherwise.
    fr: OnceCell<Relation>,
    /// `sw` is served both as a base and as an ingredient of `sc-bad`.
    sw: OnceCell<Relation>,
    sc_bad: OnceCell<Relation>,
}

impl<'e> C11Binding<'e> {
    /// Binds an execution.
    #[must_use]
    pub fn new(exec: &'e Execution<MemOrder>) -> Self {
        C11Binding {
            exec,
            fr: OnceCell::new(),
            sw: OnceCell::new(),
            sc_bad: OnceCell::new(),
        }
    }

    fn sw(&self) -> &Relation {
        self.sw.get_or_init(|| synchronizes_with(self.exec))
    }

    fn fr(&self) -> &Relation {
        self.fr.get_or_init(|| self.exec.fr())
    }

    fn sc_bad(&self) -> Relation {
        let n = self.exec.len();
        // An execution with no seq_cst events trivially has an SC order;
        // skip the derived-relation work entirely.
        let has_sc = (0..n).any(|e| self.exec.ann(e).is_some_and(|mo| mo.is_sc()));
        if !has_sc {
            return Relation::empty(n);
        }
        let derived = DerivedRelations::with_sw(self.exec, self.sw());
        if sc_order_exists(self.exec, &derived) {
            Relation::empty(n)
        } else {
            Relation::identity(n).restrict(derived.sc_events, derived.sc_events)
        }
    }
}

impl BaseRelations for C11Binding<'_> {
    fn universe(&self) -> usize {
        self.exec.len()
    }

    fn rel(&self, name: &str) -> Option<&Relation> {
        Some(match name {
            "po" => self.exec.po(),
            "rf" => self.exec.rf(),
            "co" => self.exec.co(),
            "fr" => self.fr(),
            "rmw" => self.exec.rmw(),
            "sw" => self.sw(),
            "sc-bad" => self.sc_bad.get_or_init(|| self.sc_bad()),
            _ => return None,
        })
    }

    fn set(&self, name: &str) -> Option<EventSet> {
        match name {
            "init" => Some(self.exec.inits()),
            _ => None,
        }
    }
}

/// The relations the SC-order search needs, derived from an execution.
struct DerivedRelations {
    hb: Relation,
    sc_events: EventSet,
    sc_writes: EventSet,
}

impl DerivedRelations {
    /// Builds the derived relations around a precomputed `sw` (the
    /// [`C11Binding`] shares one `sw` between the IR base and the
    /// `sc-bad` witness instead of deriving release sequences twice).
    fn with_sw(exec: &Execution<MemOrder>, sw: &Relation) -> Self {
        let n = exec.len();

        // hb = (sb ∪ sw ∪ init-before-everything)⁺
        let mut hb_base = exec.po().union(sw);
        for init in exec.inits().iter() {
            for e in 0..n {
                if !exec.inits().contains(e) {
                    hb_base.insert(init, e);
                }
            }
        }
        let hb = hb_base.transitive_closure();

        let is_sc = |e: usize| exec.ann(e).is_some_and(|mo| mo.is_sc());
        let sc_events = EventSet::from_ids(n, (0..n).filter(|&e| is_sc(e)));
        let sc_writes = sc_events.intersect(exec.writes());

        DerivedRelations {
            hb,
            sc_events,
            sc_writes,
        }
    }
}

/// `sw = [release W] ; rs ; rf ; [acquire R]`, inter-thread.
fn synchronizes_with(exec: &Execution<MemOrder>) -> Relation {
    let n = exec.len();
    let mut sw = Relation::empty(n);
    for w in exec.writes().iter() {
        let Some(mo) = exec.ann(w) else { continue }; // init writes release nothing
        if !mo.is_release() {
            continue;
        }
        for w2 in release_sequence(exec, w).iter() {
            for r in exec.rf().successors(w2).iter() {
                if !exec.is_external(w, r) {
                    continue; // sw is cross-thread
                }
                if exec.ann(r).is_some_and(|m| m.is_acquire()) {
                    sw.insert(w, r);
                }
            }
        }
    }
    sw
}

/// The release sequence headed by `w`: `w` plus the maximal contiguous run
/// of `mo`-successors that are same-thread writes or RMW writes.
fn release_sequence(exec: &Execution<MemOrder>, w: usize) -> EventSet {
    let n = exec.len();
    let mut rs = EventSet::from_ids(n, [w]);
    if exec.loc(w).is_none() {
        return rs;
    }
    // co is a per-location strict total order, transitively closed: the
    // co-successors of `w` are exactly the later writes to its location,
    // and the next one in order is the one that precedes all the others.
    let mut later = exec.co().successors(w);
    loop {
        let next = later
            .iter()
            .find(|&x| exec.co().successors(x) == later.minus(EventSet::from_ids(n, [x])));
        let Some(next) = next else { break };
        let same_thread = !exec.is_external(w, next);
        if !(same_thread || exec.events()[next].is_rmw) {
            break;
        }
        rs.insert(next);
        later = later.minus(EventSet::from_ids(n, [next]));
    }
    rs
}

/// Searches for a total SC order satisfying Batty's conditions.
fn sc_order_exists(exec: &Execution<MemOrder>, derived: &DerivedRelations) -> bool {
    if derived.sc_events.is_empty() {
        return true;
    }
    // S must be consistent with hb and mo restricted to SC events.
    let constraint = derived
        .hb
        .union(exec.co())
        .restrict(derived.sc_events, derived.sc_events);
    if !constraint.is_acyclic() {
        return false;
    }
    let mut found = false;
    linear_extensions(derived.sc_events, &constraint, &mut |order| {
        let mut pos = [usize::MAX; MAX_EVENTS];
        for (i, &e) in order.iter().enumerate() {
            pos[e] = i;
        }
        if sc_reads_restricted(exec, derived, &pos) {
            found = true;
            return false; // one witness order suffices
        }
        true
    });
    found
}

/// Batty's `sc_reads_restricted`: every SC read must read the most recent
/// SC write to its location in `S`, or a non-SC write not "hidden" by an
/// `S`-earlier SC write it happens-before.
fn sc_reads_restricted(
    exec: &Execution<MemOrder>,
    derived: &DerivedRelations,
    pos: &[usize],
) -> bool {
    let rf_inv = exec.rf().inverse();
    for r in exec.reads().intersect(derived.sc_events).iter() {
        let Some(loc) = exec.loc(r) else { continue };
        let Some(w) = rf_inv.successors(r).iter().next() else {
            continue;
        };
        let sc_writes_here = derived
            .sc_writes
            .iter()
            .filter(|&w2| exec.loc(w2) == Some(loc));
        if derived.sc_events.contains(w) {
            // w must be S-before r with no SC write to loc in between.
            if pos[w] >= pos[r] {
                return false;
            }
            for w2 in sc_writes_here {
                if w2 != w && pos[w] < pos[w2] && pos[w2] < pos[r] {
                    return false;
                }
            }
        } else {
            // No SC write S-before r that w happens-before may exist.
            for w2 in sc_writes_here {
                if pos[w2] < pos[r] && derived.hb.contains(w, w2) {
                    return false;
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricheck_litmus::suite;
    use MemOrder::{Acq, Rel, Rlx, Sc};

    fn model() -> C11Model {
        C11Model::new()
    }

    #[test]
    fn mp_relaxed_allows_stale_read() {
        assert!(model().permits_target(&suite::mp([Rlx; 4])));
    }

    #[test]
    fn mp_release_acquire_forbids_stale_read() {
        assert!(!model().permits_target(&suite::mp([Rlx, Rel, Acq, Rlx])));
        assert!(!model().permits_target(&suite::mp([Sc, Sc, Sc, Sc])));
    }

    #[test]
    fn mp_release_without_acquire_is_insufficient() {
        assert!(model().permits_target(&suite::mp([Rlx, Rel, Rlx, Rlx])));
        assert!(model().permits_target(&suite::mp([Rlx, Rlx, Acq, Rlx])));
    }

    #[test]
    fn sb_forbidden_only_with_all_sc() {
        assert!(!model().permits_target(&suite::sb([Sc; 4])));
        assert!(model().permits_target(&suite::sb([Rlx; 4])));
        assert!(model().permits_target(&suite::sb([Rel, Acq, Rel, Acq])));
        // One non-SC access suffices to allow the Dekker failure.
        assert!(model().permits_target(&suite::sb([Rlx, Sc, Sc, Sc])));
        assert!(model().permits_target(&suite::sb([Sc, Rlx, Sc, Sc])));
    }

    #[test]
    fn fig3_wrc_release_acquire_chain_is_forbidden() {
        assert!(!model().permits_target(&suite::fig3_wrc()));
    }

    #[test]
    fn wrc_without_second_synchronization_is_allowed() {
        // No release on T1's store: T2 may miss the x store.
        assert!(model().permits_target(&suite::wrc([Rlx, Rlx, Rlx, Acq, Rlx])));
        // No acquire on T2's y load: same.
        assert!(model().permits_target(&suite::wrc([Rlx, Rlx, Rel, Rlx, Rlx])));
    }

    #[test]
    fn fig4_iriw_all_sc_is_forbidden() {
        assert!(!model().permits_target(&suite::fig4_iriw_sc()));
    }

    #[test]
    fn iriw_release_acquire_only_is_allowed() {
        assert!(model().permits_target(&suite::iriw([Rel, Rel, Acq, Acq, Acq, Acq])));
    }

    #[test]
    fn corr_is_forbidden_for_every_ordering() {
        assert!(!model().permits_target(&suite::corr([Rlx; 4])));
        assert!(!model().permits_target(&suite::corr([Sc, Sc, Rlx, Rlx])));
    }

    #[test]
    fn corsdwi_is_forbidden_for_every_ordering() {
        assert!(!model().permits_target(&suite::corsdwi([Rlx; 5])));
    }

    #[test]
    fn fig11_roach_motel_outcome_is_allowed() {
        assert!(model().permits_target(&suite::fig11_mp_roach_motel()));
    }

    #[test]
    fn fig13_lazy_cumulativity_outcome_is_allowed() {
        assert!(model().permits_target(&suite::fig13_mp_lazy()));
    }

    #[test]
    fn wrc_forbidden_variant_count_matches_paper() {
        // §6.1: 108 of 243 WRC variants are C11-forbidden (the full
        // condition is P3 ∈ {rel,sc} ∧ P4 ∈ {acq,sc} via coherence).
        let forbidden = suite::wrc_template()
            .instantiate_all()
            .filter(|t| !model().permits_target(t))
            .count();
        assert_eq!(forbidden, 108);
    }

    #[test]
    fn rwc_forbidden_variant_count_matches_paper() {
        let forbidden = suite::rwc_template()
            .instantiate_all()
            .filter(|t| !model().permits_target(t))
            .count();
        assert_eq!(forbidden, 2);
    }

    #[test]
    fn mp_and_sb_forbidden_counts() {
        let mp_forbidden = suite::mp_template()
            .instantiate_all()
            .filter(|t| !model().permits_target(t))
            .count();
        assert_eq!(mp_forbidden, 36);
        let sb_forbidden = suite::sb_template()
            .instantiate_all()
            .filter(|t| !model().permits_target(t))
            .count();
        assert_eq!(sb_forbidden, 1);
    }

    #[test]
    fn iriw_forbidden_variant_count_matches_paper() {
        let forbidden = suite::iriw_template()
            .instantiate_all()
            .filter(|t| !model().permits_target(t))
            .count();
        assert_eq!(forbidden, 4);
    }

    #[test]
    fn coherence_tests_forbidden_everywhere() {
        assert_eq!(
            suite::corr_template()
                .instantiate_all()
                .filter(|t| !model().permits_target(t))
                .count(),
            81
        );
        assert_eq!(
            suite::corsdwi_template()
                .instantiate_all()
                .filter(|t| !model().permits_target(t))
                .count(),
            243
        );
    }

    #[test]
    fn permitted_outcome_sets_shrink_with_stronger_orders() {
        let weak = model().permitted_outcomes(&suite::mp([Rlx; 4]));
        let strong = model().permitted_outcomes(&suite::mp([Rlx, Rel, Acq, Rlx]));
        assert!(strong.is_subset(&weak));
        assert!(strong.len() < weak.len());
    }
}
