//! The imperative microarchitecture checker: the original hand-written
//! evaluation of the axioms in the `tricheck-uarch` crate docs, written
//! directly over [`Relation`] operations from a [`UarchConfig`]'s knobs.
//!
//! It shares no code with [`crate::build_uarch_ir`] or the model files
//! that generator pins, so it is the only oracle that can catch a knob
//! compiled into the wrong IR structure. It shares only the fence edge
//! split with the model, through [`HwBinding`]'s
//! `fence-noncum`/`fence-cum`/`fence-heavy` bases: that split is
//! annotation bookkeeping, not model semantics.

use tricheck_isa::HwAnnot;
use tricheck_litmus::Execution;
use tricheck_rel::ir::BaseRelations;
use tricheck_rel::{EventSet, Relation};
use tricheck_uarch::HwBinding;

use crate::config::{ReleasePredecessors, StoreAtomicity, UarchConfig};

/// Checks one candidate execution against a knob-driven
/// microarchitecture, reporting the first violated axiom under the name
/// `build_uarch_ir` gives it.
///
/// # Errors
///
/// The name of the first violated axiom.
pub fn uarch_check(exec: &Execution<HwAnnot>, config: &UarchConfig) -> Result<(), &'static str> {
    let rels = HwRelations::new(exec, config);

    if !rels.po_loc.union(&rels.com).is_acyclic() {
        return Err("ScPerLocation");
    }
    if !exec.rmw().intersect(&rels.fr.compose(exec.co())).is_empty() {
        return Err("Atomicity");
    }
    if !rels.hb.is_acyclic() {
        return Err("Causality");
    }
    // `prop` carries its own (soundness-scoped) extensions, so no
    // further hb* suffix is applied here.
    if !rels.fre.compose(&rels.prop).is_irreflexive() {
        return Err("Observation");
    }
    if !exec.co().union(&rels.prop).is_acyclic() {
        return Err("Propagation");
    }
    if !rels.sc_amo.is_empty() {
        // The global SC-AMO order must be consistent with program
        // order, (transitive) happens-before, and *direct*
        // communication edges between SC AMOs (§4.2.2). Communication
        // chains through non-SC accesses are deliberately excluded:
        // on a non-MCA machine an `fr;rf` chain through a plain store
        // carries no global-time meaning (the store may have been
        // forwarded early to one observer only).
        let order = rels
            .hb
            .transitive_closure()
            .union(exec.po())
            .union(&rels.com)
            .restrict(rels.sc_amo, rels.sc_amo);
        if !order.is_acyclic() {
            return Err("ScAmoOrder");
        }
    }
    Ok(())
}

/// All derived relations for one (execution, config) pair.
struct HwRelations {
    po_loc: Relation,
    com: Relation,
    fr: Relation,
    fre: Relation,
    hb: Relation,
    prop: Relation,
    sc_amo: EventSet,
}

impl HwRelations {
    #[allow(clippy::too_many_lines)]
    fn new(exec: &Execution<HwAnnot>, cfg: &UarchConfig) -> Self {
        let n = exec.len();
        let reads = exec.reads();
        let writes = exec.writes();
        let accesses = reads.union(writes);
        let amo = |e: usize| exec.ann(e).and_then(HwAnnot::amo_bits);

        // --- Fence-induced edges, split by cumulativity class (shared
        // annotation bookkeeping with the IR binding) ---
        let binding = HwBinding::new(exec);
        let fence = |name| {
            binding
                .rel(name)
                .expect("HwBinding provides the fence bases")
                .clone()
        };
        let (f_noncum, f_cum, f_heavy) = (
            fence("fence-noncum"),
            fence("fence-cum"),
            fence("fence-heavy"),
        );
        let fences = f_noncum.union(&f_cum);

        // --- AMO aq/rl local ordering (one-way barriers, §4.2.1) ---
        let mut aq_edges = Relation::empty(n);
        let mut rl_edges = Relation::empty(n);
        for e in accesses.iter() {
            let Some(bits) = amo(e) else { continue };
            if bits.aq {
                for y in exec.po().successors(e).intersect(accesses).iter() {
                    aq_edges.insert(e, y);
                }
            }
            if bits.rl {
                for x in exec.po().inverse().successors(e).intersect(accesses).iter() {
                    rl_edges.insert(x, e);
                }
            }
        }

        // --- Preserved program order ---
        let same_loc = exec.same_loc();
        let po_acc = exec.po().restrict(accesses, accesses);
        let rr = Relation::cross(reads, reads);
        let rw = Relation::cross(reads, writes);
        let wr = Relation::cross(writes, reads);
        let ww = Relation::cross(writes, writes);

        let mut ppo = exec
            .addr()
            .union(exec.data())
            .union(exec.rmw())
            .union(&po_acc.intersect(&same_loc).intersect(&rw));
        if cfg.same_addr_rr_ordered {
            ppo = ppo.union(&po_acc.intersect(&same_loc).intersect(&rr));
        }
        if cfg.atomicity == StoreAtomicity::Mca {
            // No forwarding: a load waits for the pending same-address store.
            ppo = ppo.union(&po_acc.intersect(&same_loc).intersect(&wr));
        }
        if !cfg.relax_ww {
            ppo = ppo.union(&po_acc.intersect(&ww));
        }
        if !cfg.relax_rm {
            ppo = ppo.union(&po_acc.intersect(&rr.union(&rw)));
        }
        // Pipeline-enforced order, before AMO ordering bits: used for the
        // per-observer propagation relay, where release (`rl`) edges must
        // NOT participate — whether a release relays to a plain load is
        // exactly the §5.2.3 lazy-cumulativity knob, handled by `sync`.
        let pipeline_ppo = ppo.clone();
        ppo = ppo.union(&aq_edges).union(&rl_edges);

        // --- Happens-before ---
        let rfe = exec.rfe();
        let mut hb = ppo.union(&fences).union(&rfe);
        if cfg.atomicity == StoreAtomicity::Mca {
            hb = hb.union(&exec.rfi());
        }
        let hb_star = hb.reflexive_transitive_closure();

        // --- Communication relations ---
        let fr = exec.fr();
        let fre = exec.fre();
        let com = exec.rf().union(exec.co()).union(&fr);

        // --- Propagation ---
        let prop = match cfg.atomicity {
            StoreAtomicity::Mca => ppo
                .union(&fences)
                .union(exec.rf())
                .union(&fr)
                .transitive_closure(),
            StoreAtomicity::RMca => ppo
                .union(&fences)
                .union(&rfe)
                .union(&fr)
                .transitive_closure(),
            StoreAtomicity::NMca => {
                // Propagation-grade local order: pipeline edges, fences
                // and acquire edges (all anchored at globally-performed
                // reads or forced execution order). Release (`rl`) edges
                // are deliberately absent — a release's visibility
                // ordering reaches other threads only through the `sync`
                // term, which is where the §5.2.1/§5.2.3 release
                // semantics (cumulative? acquire-only?) are enforced.
                let local = pipeline_ppo.union(&fences).union(&aq_edges);
                // 1. Cumulative fences (Herding-Cats Power construction):
                //    recursive group-A/group-B membership justifies the
                //    full hb* extensions (§2.3.2).
                let prop_base = f_cum.union(&rfe.compose(&f_cum)).compose(&hb_star);
                let heavy = com
                    .reflexive_transitive_closure()
                    .compose(&prop_base.reflexive_transitive_closure())
                    .compose(&f_heavy)
                    .compose(&hb_star);
                // Cumulativity is recursive (§2.3.2), so cumulative
                // orderings extend through arbitrary hb chains.
                let cum = prop_base.intersect(&ww).union(&heavy).compose(&hb_star);
                // 2. Release synchronization (AMO rl bit): the release's
                //    predecessor set becomes visible to eligible readers.
                let sync = release_sync(exec, cfg, &hb, accesses);
                // 3. SC-AMO global visibility (A9like): reading a
                //    completed AMO's write is a globally-agreed fact.
                let mut scvis = Relation::empty(n);
                if cfg.sc_amo_writes_globally_visible {
                    for (w, r) in rfe.pairs() {
                        if amo(w).is_some_and(|b| b.sc) {
                            scvis.insert(w, r);
                        }
                    }
                }
                // Non-cumulative ordering splits by the kind of its
                // target:
                //  - *drain* edges (fence edges ending at a read of the
                //    fencing thread) force the predecessors globally: a
                //    thread cannot execute a read past a fence until the
                //    fenced writes have performed everywhere. These are
                //    global facts and compose freely.
                //  - *per-observer* edges (fence or pipeline edges ending
                //    at a write) only promise that each observer of the
                //    write sees the predecessors first: they may relay
                //    through exactly ONE reads-from hop, followed by the
                //    observing thread's local ordering — never further.
                let drain = f_noncum.restrict(accesses, reads);
                let per_observer = f_noncum.union(&pipeline_ppo).restrict(accesses, writes);

                // Edges with global meaning compose freely.
                let strong = cum
                    .union(&sync)
                    .union(&scvis)
                    .union(&local)
                    .union(&drain)
                    .transitive_closure();
                // One-hop observer relays.
                let relayed = strong
                    .maybe()
                    .compose(&per_observer)
                    .compose(&rfe)
                    .compose(&local.reflexive_transitive_closure());
                // A remote read missing a fence-drained write happened
                // before the write's (global) drain point.
                let fre_drain = fre.compose(&drain).compose(&strong.maybe());
                strong.union(&relayed).union(&fre_drain)
            }
        };

        // --- SC-AMO participants ---
        let sc_amo =
            EventSet::from_ids(n, accesses.iter().filter(|&e| amo(e).is_some_and(|b| b.sc)));

        // --- Per-location coherence order basis ---
        // Same-address reads leave program order only when the pipeline
        // actually reorders reads (relax R→M) *and* the ISA does not
        // require same-address load→load ordering (§5.1.3). Pairs the
        // thread orders by local means (fences, AMO bits, dependencies)
        // stay in the per-location check regardless: an in-order pair of
        // same-address reads can never observe coherence backwards.
        let mut po_loc = exec.po_loc();
        if cfg.relax_rm && !cfg.same_addr_rr_ordered {
            po_loc = po_loc.minus(&rr);
        }
        let local_order = ppo.union(&fences).transitive_closure();
        po_loc = po_loc.union(&local_order.intersect(&same_loc));

        HwRelations {
            po_loc,
            com,
            fr,
            fre,
            hb,
            prop,
            sc_amo,
        }
    }
}

/// Release-synchronization propagation edges: when an eligible load reads
/// a release write, the release's predecessors become visible to the
/// loading core before that load.
fn release_sync(
    exec: &Execution<HwAnnot>,
    cfg: &UarchConfig,
    hb: &Relation,
    accesses: EventSet,
) -> Relation {
    let n = exec.len();
    let mut sync = Relation::empty(n);
    let amo = |e: usize| exec.ann(e).and_then(HwAnnot::amo_bits);
    for w in exec.writes().iter() {
        let Some(bits) = amo(w) else { continue };
        if !bits.rl {
            continue;
        }
        let preds: Vec<usize> = match cfg.release_predecessors {
            ReleasePredecessors::ProgramOrder => exec
                .po()
                .inverse()
                .successors(w)
                .intersect(accesses)
                .iter()
                .collect(),
            ReleasePredecessors::HappensBefore => {
                let hb_plus = hb.transitive_closure();
                hb_plus
                    .inverse()
                    .successors(w)
                    .intersect(accesses)
                    .iter()
                    .collect()
            }
        };
        for r in exec.rfe().successors(w).iter() {
            let eligible = cfg.release_sync_any_load || amo(r).is_some_and(|b| b.aq);
            if !eligible {
                continue;
            }
            // Only the release's *predecessors* gain propagation edges.
            // The release itself may still be read early (e.g. from a
            // shared store buffer) without being globally performed.
            for &p in &preds {
                sync.insert(p, r);
            }
        }
    }
    sync
}
