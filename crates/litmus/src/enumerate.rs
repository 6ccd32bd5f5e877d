//! Exhaustive enumeration of candidate executions.
//!
//! A candidate execution assigns every read a source write (`rf`) and
//! every location a total order over its writes (`co`). Memory models are
//! consistency predicates over candidates; enumerating all candidates and
//! filtering through a predicate yields the model's allowed outcomes.
//!
//! Enumeration handles computed addresses and values (address/data
//! dependencies, RMW write-back values) by running a resolution fixpoint
//! after each `rf` choice: a read's value is its source write's value, a
//! write's value/address may depend on earlier reads of its thread.
//! Choices that contradict themselves (source location mismatch) are
//! pruned; executions with unresolvable values (cyclic value dependencies,
//! which only out-of-thin-air shapes produce) are discarded.
//!
//! # Axiom-driven pruning
//!
//! The `*_pruned` entry points additionally maintain a *model-independent
//! coherence core* — the relation `(po_loc \ R×R) ∪ rf ∪ co ∪ fr`, built
//! incrementally from the partial `rf` assignment, the forced coherence
//! edges (initialization writes first, same-thread same-location writes
//! in program order), and the per-location orders as they are chosen —
//! and cut any search branch whose partial core already closes a cycle
//! or already violates RMW atomicity (a write known to sit
//! coherence-between an RMW's read source and its write half —
//! `rmw ∩ (fr ; co) = ∅` is checked verbatim by C11 and every
//! microarchitecture model).
//!
//! The coherence half is sound to prune against because every model in
//! the stack implies its acyclicity on complete candidates:
//!
//! - every microarchitecture model checks SC-per-location,
//!   `acyclic(po_loc′ ∪ rf ∪ co ∪ fr)`, where `po_loc′` relaxes at most
//!   same-address read→read pairs — a superset of the core;
//! - C11's `irreflexive(hb ; eco)` forces, per location, a strictly
//!   increasing coherence rank across every core edge (writes by their
//!   `co` position, reads by their source's position ordered just after
//!   it): `co`/`fr` raise the rank, `rf` keeps it while moving
//!   write→read, and a same-location `po` edge that is not read→read can
//!   only point "backwards" by putting an `eco` edge opposite a `po ⊆ hb`
//!   edge. So a core cycle implies a coherence violation.
//!
//! Same-address read→read pairs are deliberately *excluded* from the
//! core: the hazard models (`rMM`/`nMM`/`A9like` under `riscv-curr`, the
//! ARM load→load erratum machine) accept CoRR candidates, and pruning
//! them would change verdicts. Because the partial core only ever grows
//! along a branch, a cycle found early is present in every completed
//! candidate below it — pruning is exact, never heuristic: the pruned
//! enumeration yields precisely the candidates on which
//! [`core_consistent`] holds, with identical surviving executions.
//!
//! The core is *incremental*: instead of rebuilding the relation and
//! recomputing a transitive closure at every search node, the search
//! carries a `CoreGraph` — a topological order over the partial core
//! maintained Pearce–Kelly-style as `rf` edges are assigned and
//! per-location `co` orders are committed. Inserting an edge that agrees
//! with the current order costs O(1); a violating edge triggers a
//! bounded reorder of the affected region (or sets a sticky cycle flag,
//! since the core only grows along a branch). Programs with
//! register-computed addresses fall back to building the graph fresh at
//! each check (their locations resolve per candidate), with identical
//! decisions either way — cycle detection is exact, not heuristic.

use std::collections::BTreeMap;

use tricheck_rel::{linear_extensions, EventSet, Relation};

use crate::exec::{Event, EventKind, Execution};
use crate::mir::{Expr, Instr, Loc, Program, Reg, RmwKind, Val};
use crate::outcome::Outcome;

/// Fully-propagated per-event locations and values.
type ResolvedState = (Vec<Option<Loc>>, Vec<Option<Val>>);

/// How a write event obtains its value.
#[derive(Clone, Copy, Debug)]
enum ValSrc {
    /// Initialization write: always zero.
    InitZero,
    /// The value operand of a plain store or an `amoswap`.
    Expr(Expr),
    /// The value read by this event's own RMW read half (`amoadd` of 0).
    OwnRead(usize),
    /// Reads and fences have no value source; reads get values via `rf`.
    None,
}

struct Skeleton<A> {
    events: Vec<Event<A>>,
    addr_expr: Vec<Option<Expr>>,
    val_src: Vec<ValSrc>,
    po: Relation,
    addr: Relation,
    data: Relation,
    rmw: Relation,
    inits: EventSet,
    init_loc: Vec<Option<Loc>>,
    reg_def: BTreeMap<(usize, Reg), usize>,
    reads: Vec<usize>,
    writes: Vec<usize>,
    /// Expected value per event id, derived from a target outcome.
    expected: Vec<Option<Val>>,
    /// Whether any candidate of this program can violate the
    /// model-independent core at all. A core cycle needs a same-thread
    /// mixed read/write pair that may share a location (pure W→W pairs
    /// are already forced into `co`, pure R→R pairs are excluded from
    /// the core, and `rf ∪ co ∪ fr` alone cannot cycle), and an
    /// atomicity violation needs an RMW — so a program with neither
    /// skips every prune check.
    core_prunable: bool,
    /// Per-event: `true` for reads whose assignment can contribute to a
    /// core violation (RMW read halves, and reads with a same-thread
    /// possibly-same-location write). Other reads skip the per-choice
    /// check; the per-location coherence-order check still covers every
    /// completed candidate.
    read_relevant: Vec<bool>,
    /// `true` when every address is a constant — then the two static
    /// core ingredients below are exact and the prune check skips its
    /// per-call location scans.
    all_const_addrs: bool,
    /// Forced coherence edges (init-first, same-thread po order) over
    /// the static locations; empty unless `all_const_addrs`.
    static_forced_co: Relation,
    /// `po_loc \ R×R` over the static locations; empty unless
    /// `all_const_addrs`.
    static_po_loc: Relation,
}

impl<A: Clone> Skeleton<A> {
    fn build(prog: &Program<A>, target: Option<&Outcome>) -> Self {
        let mut events = Vec::new();
        let mut addr_expr = Vec::new();
        let mut val_src = Vec::new();
        let mut init_loc = Vec::new();
        let mut reg_def = BTreeMap::new();
        let mut rmw_pairs = Vec::new();
        let mut addr_deps = Vec::new();
        let mut data_deps = Vec::new();

        for &l in prog.locations() {
            let id = events.len();
            events.push(Event {
                id,
                tid: None,
                po_index: 0,
                kind: EventKind::Write,
                ann: None,
                is_rmw: false,
            });
            addr_expr.push(None);
            val_src.push(ValSrc::InitZero);
            init_loc.push(Some(l));
        }
        let inits = EventSet::from_ids(
            events.len().max(1),
            0..events.len(), // placeholder universe; fixed up below
        );
        let init_count = events.len();

        let mut thread_ranges = Vec::new();
        for (tid, thread) in prog.threads().iter().enumerate() {
            let start = events.len();
            let mut po_index = 0usize;
            let mut push =
                |kind: EventKind, ann: Option<A>, is_rmw: bool, events: &mut Vec<Event<A>>| {
                    let id = events.len();
                    events.push(Event {
                        id,
                        tid: Some(tid),
                        po_index,
                        kind,
                        ann,
                        is_rmw,
                    });
                    po_index += 1;
                    id
                };
            for instr in thread {
                match instr {
                    Instr::Read { dst, addr, ann } => {
                        let e = push(EventKind::Read, Some(ann.clone()), false, &mut events);
                        addr_expr.push(Some(*addr));
                        val_src.push(ValSrc::None);
                        init_loc.push(None);
                        if let Some(r) = addr.dep() {
                            addr_deps.push((reg_def[&(tid, r)], e));
                        }
                        reg_def.insert((tid, *dst), e);
                    }
                    Instr::Write { addr, val, ann } => {
                        let e = push(EventKind::Write, Some(ann.clone()), false, &mut events);
                        addr_expr.push(Some(*addr));
                        val_src.push(ValSrc::Expr(*val));
                        init_loc.push(None);
                        if let Some(r) = addr.dep() {
                            addr_deps.push((reg_def[&(tid, r)], e));
                        }
                        if let Some(r) = val.dep() {
                            data_deps.push((reg_def[&(tid, r)], e));
                        }
                    }
                    Instr::Rmw {
                        dst,
                        addr,
                        kind,
                        ann,
                    } => {
                        let r = push(EventKind::Read, Some(ann.clone()), true, &mut events);
                        addr_expr.push(Some(*addr));
                        val_src.push(ValSrc::None);
                        init_loc.push(None);
                        let w = push(EventKind::Write, Some(ann.clone()), true, &mut events);
                        addr_expr.push(Some(*addr));
                        val_src.push(match kind {
                            RmwKind::FetchAddZero => ValSrc::OwnRead(r),
                            RmwKind::Swap(v) => ValSrc::Expr(*v),
                        });
                        init_loc.push(None);
                        if let Some(dep) = addr.dep() {
                            addr_deps.push((reg_def[&(tid, dep)], r));
                            addr_deps.push((reg_def[&(tid, dep)], w));
                        }
                        if let RmwKind::Swap(v) = kind {
                            if let Some(dep) = v.dep() {
                                data_deps.push((reg_def[&(tid, dep)], w));
                            }
                        }
                        rmw_pairs.push((r, w));
                        reg_def.insert((tid, *dst), r);
                    }
                    Instr::Fence { ann } => {
                        push(EventKind::Fence, Some(ann.clone()), false, &mut events);
                        addr_expr.push(None);
                        val_src.push(ValSrc::None);
                        init_loc.push(None);
                    }
                }
            }
            thread_ranges.push(start..events.len());
        }

        let n = events.len();
        let mut po = Relation::empty(n);
        for range in &thread_ranges {
            for a in range.clone() {
                for b in (a + 1)..range.end {
                    po.insert(a, b);
                }
            }
        }
        let inits = EventSet::from_ids(n, inits.iter().filter(|&i| i < init_count));
        let reads = events
            .iter()
            .filter(|e| e.kind == EventKind::Read)
            .map(|e| e.id)
            .collect();
        let writes = events
            .iter()
            .filter(|e| e.kind == EventKind::Write)
            .map(|e| e.id)
            .collect();

        let mut expected = vec![None; n];
        if let Some(t) = target {
            for ((tid, reg), val) in t.iter() {
                if let Some(&e) = reg_def.get(&(tid, reg)) {
                    expected[e] = Some(val);
                }
            }
        }

        // Static prune-relevance analysis (see the field docs). Two
        // accesses "may share a location" when their address expressions
        // are equal constants, or either is register-computed (then any
        // location is reachable, so be conservative).
        let const_loc = |e: usize| match addr_expr[e] {
            Some(Expr::Const(a)) => Some(Some(Loc(a))),
            Some(Expr::Reg(_)) => Some(None), // dynamic: unknown
            None => None,                     // fence
        };
        let may_share = |a: usize, b: usize| match (const_loc(a), const_loc(b)) {
            (Some(Some(la)), Some(Some(lb))) => la == lb,
            (Some(_), Some(_)) => true, // at least one dynamic address
            _ => false,                 // a fence participates in nothing
        };
        let mut read_relevant = vec![false; n];
        for (r, w) in &rmw_pairs {
            read_relevant[*r] = true;
            let _ = w;
        }
        for range in &thread_ranges {
            for a in range.clone() {
                for b in (a + 1)..range.end {
                    let (ka, kb) = (events[a].kind, events[b].kind);
                    let mixed = matches!(
                        (ka, kb),
                        (EventKind::Read, EventKind::Write) | (EventKind::Write, EventKind::Read)
                    );
                    if mixed && may_share(a, b) {
                        let read = if ka == EventKind::Read { a } else { b };
                        read_relevant[read] = true;
                    }
                }
            }
        }
        let core_prunable = read_relevant.iter().any(|&x| x);

        // Static core ingredients for constant-address programs: the
        // prune check reuses these instead of re-scanning locations at
        // every search node.
        let all_const_addrs = !addr_expr.iter().any(|e| matches!(e, Some(Expr::Reg(_))));
        let static_loc = |e: usize| -> Option<Loc> {
            init_loc[e].or(match addr_expr[e] {
                Some(Expr::Const(a)) => Some(Loc(a)),
                _ => None,
            })
        };
        let mut static_forced_co = Relation::empty(n);
        let mut static_po_loc = Relation::empty(n);
        if all_const_addrs {
            let writes: Vec<usize> = events
                .iter()
                .filter(|e| e.kind == EventKind::Write)
                .map(|e| e.id)
                .collect();
            for (i, &a) in writes.iter().enumerate() {
                let Some(la) = static_loc(a) else { continue };
                for &b in &writes[i + 1..] {
                    if static_loc(b) != Some(la) {
                        continue;
                    }
                    let (ea, eb) = (&events[a], &events[b]);
                    if ea.tid.is_none() && eb.tid.is_some() {
                        static_forced_co.insert(a, b);
                    } else if eb.tid.is_none() && ea.tid.is_some() {
                        static_forced_co.insert(b, a);
                    } else if ea.tid == eb.tid && ea.tid.is_some() {
                        if ea.po_index < eb.po_index {
                            static_forced_co.insert(a, b);
                        } else {
                            static_forced_co.insert(b, a);
                        }
                    }
                }
            }
            for (a, b) in po.pairs() {
                let (Some(la), Some(lb)) = (static_loc(a), static_loc(b)) else {
                    continue;
                };
                if la != lb {
                    continue;
                }
                let both_reads =
                    events[a].kind == EventKind::Read && events[b].kind == EventKind::Read;
                if !both_reads {
                    static_po_loc.insert(a, b);
                }
            }
        }

        Skeleton {
            events,
            addr_expr,
            val_src,
            po,
            addr: Relation::from_pairs(n, addr_deps),
            data: Relation::from_pairs(n, data_deps),
            rmw: Relation::from_pairs(n, rmw_pairs),
            inits,
            init_loc,
            reg_def,
            reads,
            writes,
            expected,
            core_prunable,
            read_relevant,
            all_const_addrs,
            static_forced_co,
            static_po_loc,
        }
    }

    /// Resolves locations and values given a (partial) `rf` assignment.
    /// Returns `None` on contradiction (rf source/location mismatch or a
    /// resolved value contradicting the target outcome).
    #[allow(clippy::needless_range_loop)] // parallel arrays indexed together
    fn propagate(&self, rf_choice: &[Option<usize>]) -> Option<ResolvedState> {
        let n = self.events.len();
        let mut loc = self.init_loc.clone();
        let mut val: Vec<Option<Val>> = vec![None; n];
        for e in 0..n {
            if matches!(self.val_src[e], ValSrc::InitZero) {
                val[e] = Some(Val(0));
            }
        }
        loop {
            let mut changed = false;
            for e in 0..n {
                if loc[e].is_none() {
                    if let Some(expr) = self.addr_expr[e] {
                        if let Some(a) = self.eval(expr, e, &val) {
                            loc[e] = Some(Loc(a));
                            changed = true;
                        }
                    }
                }
                if val[e].is_none() {
                    let resolved = match self.val_src[e] {
                        ValSrc::InitZero => Some(Val(0)),
                        ValSrc::Expr(expr) => self.eval(expr, e, &val).map(Val),
                        ValSrc::OwnRead(r) => val[r],
                        ValSrc::None => match self.events[e].kind {
                            EventKind::Read => rf_choice[e].and_then(|w| val[w]),
                            _ => None,
                        },
                    };
                    if resolved.is_some() {
                        val[e] = resolved;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Contradiction checks.
        for &r in &self.reads {
            if let Some(w) = rf_choice[r] {
                if let (Some(lr), Some(lw)) = (loc[r], loc[w]) {
                    if lr != lw {
                        return None;
                    }
                }
            }
        }
        for e in 0..n {
            if let (Some(expect), Some(actual)) = (self.expected[e], val[e]) {
                if expect != actual {
                    return None;
                }
            }
        }
        Some((loc, val))
    }

    fn eval(&self, expr: Expr, event: usize, val: &[Option<Val>]) -> Option<u64> {
        match expr {
            Expr::Const(c) => Some(c),
            Expr::Reg(r) => {
                let tid = self.events[event]
                    .tid
                    .expect("init events have no register operands");
                let def = self.reg_def[&(tid, r)];
                val[def].map(|v| v.0)
            }
        }
    }
}

/// Incremental cycle detection over the growing partial coherence core:
/// a topological order of the current (acyclic) core, repaired locally
/// on each edge insertion (Pearce–Kelly).
///
/// An edge agreeing with the order costs O(1). A violating edge
/// triggers discovery of the affected region (the nodes topologically
/// between the edge's endpoints) and a reorder confined to it; if the
/// target's region reaches back to the source, the edge closes a cycle
/// and the sticky [`CoreGraph::cyclic`] flag is set — sound because the
/// core only ever grows along a search branch, so a cycle never
/// un-closes. Fixed-size arrays keep clones allocation-free
/// (`Relation` caps universes at 64 events).
#[derive(Clone)]
struct CoreGraph {
    /// Successor bitsets.
    adj: [u64; 64],
    /// Predecessor bitsets (for the backward half of the repair).
    radj: [u64; 64],
    /// Topological position of each node (a permutation of `0..n`).
    pos: [u32; 64],
    /// Inverse of `pos`: the node at each position.
    node_at: [u32; 64],
    /// Set once an inserted edge closed a cycle; sticky.
    cyclic: bool,
}

impl CoreGraph {
    fn new(n: usize) -> Self {
        assert!(n <= 64, "Relation caps universes at 64 events");
        let mut pos = [0u32; 64];
        let mut node_at = [0u32; 64];
        for (i, (p, q)) in pos.iter_mut().zip(node_at.iter_mut()).enumerate() {
            *p = i as u32;
            *q = i as u32;
        }
        CoreGraph {
            adj: [0; 64],
            radj: [0; 64],
            pos,
            node_at,
            cyclic: false,
        }
    }

    fn insert(&mut self, a: usize, b: usize) {
        if a == b {
            self.cyclic = true;
            return;
        }
        let bit_b = 1u64 << b;
        if self.adj[a] & bit_b != 0 {
            return;
        }
        self.adj[a] |= bit_b;
        self.radj[b] |= 1 << a;
        if self.cyclic || self.pos[a] < self.pos[b] {
            return; // order already valid (or moot)
        }
        // Affected region: the nodes at positions pos[b]..=pos[a]. Every
        // pre-existing edge respects the order, so any path between
        // region nodes stays inside the region.
        let (lo, hi) = (self.pos[b] as usize, self.pos[a] as usize);
        let mut region = 0u64;
        for p in lo..=hi {
            region |= 1 << self.node_at[p];
        }
        // Forward discovery from b; reaching a closes a cycle.
        let mut fwd = bit_b;
        let mut frontier = bit_b;
        while frontier != 0 {
            let mut next = 0u64;
            while frontier != 0 {
                let x = frontier.trailing_zeros() as usize;
                frontier &= frontier - 1;
                next |= self.adj[x];
            }
            next &= region & !fwd;
            if next & (1 << a) != 0 {
                self.cyclic = true;
                return;
            }
            fwd |= next;
            frontier = next;
        }
        // Backward discovery from a.
        let mut back = 1u64 << a;
        let mut frontier = back;
        while frontier != 0 {
            let mut next = 0u64;
            while frontier != 0 {
                let x = frontier.trailing_zeros() as usize;
                frontier &= frontier - 1;
                next |= self.radj[x];
            }
            next &= region & !back;
            back |= next;
            frontier = next;
        }
        // Repair: everything reaching `a` moves before everything
        // reachable from `b`, reusing the vacated positions in ascending
        // order; relative order within each side is preserved.
        let mut slots = [0u32; 64];
        let mut nodes = [0u32; 64];
        let mut k = 0;
        for p in lo..=hi {
            if (back | fwd) & (1 << self.node_at[p]) != 0 {
                slots[k] = p as u32;
                k += 1;
            }
        }
        let mut m = 0;
        for p in lo..=hi {
            let x = self.node_at[p];
            if back & (1 << x) != 0 {
                nodes[m] = x;
                m += 1;
            }
        }
        for p in lo..=hi {
            let x = self.node_at[p];
            if fwd & (1 << x) != 0 {
                nodes[m] = x;
                m += 1;
            }
        }
        debug_assert_eq!(k, m);
        for i in 0..k {
            self.pos[nodes[i] as usize] = slots[i];
            self.node_at[slots[i] as usize] = nodes[i];
        }
    }
}

/// The incrementally-maintained prune state carried down a search
/// branch: the core's cycle detector plus the committed coherence lower
/// bound (forced edges + the per-location orders chosen so far), which
/// seeds the derived `fr` edges and the RMW-atomicity check.
#[derive(Clone)]
struct CoreState {
    graph: CoreGraph,
    co_lower: Relation,
}

impl CoreState {
    /// The static seed for constant-address programs: forced coherence
    /// edges and `po_loc \ R×R` are known before any search choice.
    fn new_static<A>(skel: &Skeleton<A>) -> CoreState {
        let n = skel.events.len();
        let mut graph = CoreGraph::new(n);
        for (a, b) in skel.static_forced_co.pairs() {
            graph.insert(a, b);
        }
        for (a, b) in skel.static_po_loc.pairs() {
            graph.insert(a, b);
        }
        CoreState {
            graph,
            co_lower: skel.static_forced_co.clone(),
        }
    }

    /// A from-scratch build for register-computed-address programs,
    /// whose locations (hence forced edges and `po_loc`) only resolve as
    /// `rf` choices land: the same edge set the incremental path
    /// accumulates, so decisions are identical.
    fn fresh_dynamic<A>(
        skel: &Skeleton<A>,
        rf_choice: &[Option<usize>],
        loc: &[Option<Loc>],
        co_known: Option<&Relation>,
    ) -> CoreState {
        let n = skel.events.len();
        let mut co_lower = match co_known {
            Some(co) => co.clone(),
            None => Relation::empty(n),
        };
        for (i, &a) in skel.writes.iter().enumerate() {
            let Some(la) = loc[a] else { continue };
            for &b in &skel.writes[i + 1..] {
                if loc[b] != Some(la) {
                    continue;
                }
                let (ea, eb) = (&skel.events[a], &skel.events[b]);
                if ea.tid.is_none() && eb.tid.is_some() {
                    co_lower.insert(a, b);
                } else if eb.tid.is_none() && ea.tid.is_some() {
                    co_lower.insert(b, a);
                } else if ea.tid == eb.tid && ea.tid.is_some() {
                    if ea.po_index < eb.po_index {
                        co_lower.insert(a, b);
                    } else {
                        co_lower.insert(b, a);
                    }
                }
            }
        }
        let mut graph = CoreGraph::new(n);
        for (a, b) in co_lower.pairs() {
            graph.insert(a, b);
        }
        for (a, b) in skel.po.pairs() {
            let (Some(la), Some(lb)) = (loc[a], loc[b]) else {
                continue;
            };
            if la != lb {
                continue;
            }
            let both_reads =
                skel.events[a].kind == EventKind::Read && skel.events[b].kind == EventKind::Read;
            if !both_reads {
                graph.insert(a, b);
            }
        }
        let mut state = CoreState { graph, co_lower };
        for &r in &skel.reads {
            if let Some(w) = rf_choice[r] {
                state.assign_rf(r, w);
            }
        }
        state
    }

    /// Records `rf(w, r)` plus the `fr` edges it implies against the
    /// current coherence lower bound (a read is coherence-before every
    /// write known to be co-after its source).
    fn assign_rf(&mut self, r: usize, w: usize) {
        self.graph.insert(w, r);
        for w2 in self.co_lower.successors(w).iter() {
            if w2 != r {
                self.graph.insert(r, w2);
            }
        }
    }

    /// Commits one location's total coherence order: inserts the new
    /// `co` pairs and, for each, the `fr` edges from the earlier write's
    /// readers to the later write.
    fn commit_group(&mut self, reads: &[usize], rf_choice: &[Option<usize>], order: &[usize]) {
        for i in 0..order.len() {
            for j in (i + 1)..order.len() {
                let (wi, wj) = (order[i], order[j]);
                if self.co_lower.contains(wi, wj) {
                    continue; // forced edge: already present with its fr
                }
                self.co_lower.insert(wi, wj);
                self.graph.insert(wi, wj);
                for &r in reads {
                    if rf_choice[r] == Some(wi) && r != wj {
                        self.graph.insert(r, wj);
                    }
                }
            }
        }
    }

    /// `false` iff the branch is dead under every model: the partial
    /// core is cyclic, or a write is already known to sit
    /// coherence-between an RMW's read source and its write half
    /// (`rmw ∩ (fr ; co) = ∅`, checked verbatim by every model).
    fn ok(&self, rmw: &Relation, rf_choice: &[Option<usize>]) -> bool {
        if self.graph.cyclic {
            return false;
        }
        for (r, w) in rmw.pairs() {
            let Some(s) = rf_choice[r] else { continue };
            for w2 in self.co_lower.successors(s).iter() {
                if w2 != w && self.co_lower.contains(w2, w) {
                    return false;
                }
            }
        }
        true
    }
}

/// Enumerates all candidate executions of `prog`, calling `visit` on each.
///
/// `visit` returning `false` aborts the enumeration; the function returns
/// `true` iff the enumeration ran to completion.
///
/// # Examples
///
/// ```
/// use tricheck_litmus::{enumerate_executions, suite, MemOrder};
///
/// let test = suite::mp([MemOrder::Rlx; 4]);
/// let mut count = 0;
/// enumerate_executions(test.program(), &mut |_exec| { count += 1; true });
/// assert!(count > 0);
/// ```
pub fn enumerate_executions<A: Clone>(
    prog: &Program<A>,
    visit: &mut impl FnMut(&Execution<A>) -> bool,
) -> bool {
    enumerate_inner(prog, None, false, visit).completed
}

/// Enumerates only the candidate executions whose outcome over the
/// target's observed registers equals `target`.
///
/// This is a sound restriction used heavily by the TriCheck toolflow: a
/// litmus test designates one target outcome, so candidates with other
/// outcomes never need model evaluation.
pub fn enumerate_matching<A: Clone>(
    prog: &Program<A>,
    target: &Outcome,
    visit: &mut impl FnMut(&Execution<A>) -> bool,
) -> bool {
    enumerate_inner(prog, Some(target), false, visit).completed
}

/// The outcome of a pruned enumeration pass: whether `visit` ran to
/// completion, and how many search branches the coherence core cut
/// (each pruned branch stands for at least one — usually many —
/// candidates that every model would have rejected).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Enumeration {
    /// `false` iff `visit` aborted the enumeration early.
    pub completed: bool,
    /// Search branches cut by the model-independent coherence core.
    pub pruned_branches: usize,
}

/// [`enumerate_executions`] with axiom-driven pruning: candidates whose
/// partial `rf`/`co` relations already close a coherence-core cycle are
/// never finalized or visited (see the module docs for the core and its
/// soundness argument). Every visited execution satisfies
/// [`core_consistent`]; every skipped one violates it.
pub fn enumerate_executions_pruned<A: Clone>(
    prog: &Program<A>,
    visit: &mut impl FnMut(&Execution<A>) -> bool,
) -> Enumeration {
    enumerate_inner(prog, None, true, visit)
}

/// [`enumerate_matching`] with axiom-driven pruning (see
/// [`enumerate_executions_pruned`]).
pub fn enumerate_matching_pruned<A: Clone>(
    prog: &Program<A>,
    target: &Outcome,
    visit: &mut impl FnMut(&Execution<A>) -> bool,
) -> Enumeration {
    enumerate_inner(prog, Some(target), true, visit)
}

/// The model-independent core on a complete candidate:
/// `acyclic((po_loc \ R×R) ∪ rf ∪ co ∪ fr)` (coherence) and
/// `rmw ∩ (fr ; co) = ∅` (RMW atomicity). Every consistency model in
/// the stack implies both, and the pruned enumerations visit exactly
/// the candidates satisfying them.
#[must_use]
pub fn core_consistent<A>(exec: &Execution<A>) -> bool {
    let reads = exec.reads();
    let coherent = exec
        .po_loc()
        .minus(&Relation::cross(reads, reads))
        .union(exec.rf())
        .union(exec.co())
        .union(&exec.fr())
        .is_acyclic();
    coherent
        && exec
            .rmw()
            .intersect(&exec.fr().compose(exec.co()))
            .is_empty()
}

fn enumerate_inner<A: Clone>(
    prog: &Program<A>,
    target: Option<&Outcome>,
    prune: bool,
    visit: &mut impl FnMut(&Execution<A>) -> bool,
) -> Enumeration {
    let skel = Skeleton::build(prog, target);
    let n = skel.events.len();
    let mut exec = Execution {
        events: skel.events.clone(),
        po: skel.po.clone(),
        addr: skel.addr.clone(),
        data: skel.data.clone(),
        rmw: skel.rmw.clone(),
        rf: Relation::empty(n),
        co: Relation::empty(n),
        loc: vec![None; n],
        val: vec![None; n],
        inits: skel.inits,
        reg_def: skel.reg_def.clone(),
    };
    let mut rf_choice: Vec<Option<usize>> = vec![None; n];
    let prune = prune && skel.core_prunable;
    let mut ctx = Ctx {
        skel: &skel,
        exec: &mut exec,
        visit,
        target,
        prune,
        pruned_branches: 0,
    };
    // Constant-address programs maintain the prune state incrementally
    // through the whole search; dynamic-address programs rebuild it at
    // each check (their locations resolve per candidate).
    let core = (prune && skel.all_const_addrs).then(|| CoreState::new_static(&skel));
    let completed = ctx.assign_reads(0, &mut rf_choice, core.as_ref());
    Enumeration {
        completed,
        pruned_branches: ctx.pruned_branches,
    }
}

struct Ctx<'a, A, F> {
    skel: &'a Skeleton<A>,
    exec: &'a mut Execution<A>,
    visit: &'a mut F,
    target: Option<&'a Outcome>,
    /// Whether to cut branches whose partial coherence core is cyclic.
    prune: bool,
    pruned_branches: usize,
}

impl<A: Clone, F: FnMut(&Execution<A>) -> bool> Ctx<'_, A, F> {
    fn assign_reads(
        &mut self,
        k: usize,
        rf_choice: &mut Vec<Option<usize>>,
        core: Option<&CoreState>,
    ) -> bool {
        if k == self.skel.reads.len() {
            return self.finalize(rf_choice, core);
        }
        let r = self.skel.reads[k];
        for wi in 0..self.skel.writes.len() {
            let w = self.skel.writes[wi];
            // A read never reads its own thread's po-later writes (that
            // violates coherence in every model we evaluate), including
            // its own RMW write half.
            let er = &self.skel.events[r];
            let ew = &self.skel.events[w];
            if er.tid == ew.tid && ew.po_index > er.po_index {
                continue;
            }
            rf_choice[r] = Some(w);
            if let Some((loc, _)) = self.skel.propagate(rf_choice) {
                // Extend the incremental core with this choice's rf/fr
                // edges before deciding whether to check it.
                let next_core = core.map(|c| {
                    let mut c = c.clone();
                    c.assign_rf(r, w);
                    c
                });
                let dead = self.prune && self.skel.read_relevant[r] && {
                    match &next_core {
                        Some(c) => !c.ok(&self.skel.rmw, rf_choice),
                        None => !CoreState::fresh_dynamic(self.skel, rf_choice, &loc, None)
                            .ok(&self.skel.rmw, rf_choice),
                    }
                };
                if dead {
                    // Every completion of this branch keeps the cycle:
                    // resolved locations, chosen rf edges and forced co
                    // edges only ever grow.
                    self.pruned_branches += 1;
                } else if !self.assign_reads(k + 1, rf_choice, next_core.as_ref()) {
                    rf_choice[r] = None;
                    return false;
                }
            }
            rf_choice[r] = None;
        }
        true
    }

    fn finalize(&mut self, rf_choice: &[Option<usize>], core: Option<&CoreState>) -> bool {
        let Some((loc, val)) = self.skel.propagate(rf_choice) else {
            return true;
        };
        // Every read and write must have fully resolved location & value.
        for e in &self.skel.events {
            if e.kind != EventKind::Fence && (loc[e.id].is_none() || val[e.id].is_none()) {
                return true; // unresolvable (out-of-thin-air shape): discard
            }
        }
        // rf location agreement was checked under "both known"; all are
        // known now, so recheck via propagate above. Target must match in
        // full (propagate only checks resolved values).
        if let Some(target) = self.target {
            for ((tid, reg), expect) in target.iter() {
                match self.skel.reg_def.get(&(tid, reg)) {
                    Some(&e) if val[e] == Some(expect) => {}
                    _ => return true,
                }
            }
        }

        // Group writes by resolved location for coherence enumeration.
        let n = self.skel.events.len();
        let mut groups: BTreeMap<Loc, Vec<usize>> = BTreeMap::new();
        for &w in &self.skel.writes {
            groups
                .entry(loc[w].expect("writes resolved above"))
                .or_default()
                .push(w);
        }
        // Constraints: init writes first, same-thread writes in program
        // order (required by coherence in C11 and by SC-per-location in
        // every hardware model, so pruning here is sound).
        let mut constraint = Relation::empty(n);
        for ws in groups.values() {
            for &a in ws {
                for &b in ws {
                    if a == b {
                        continue;
                    }
                    let (ea, eb) = (&self.skel.events[a], &self.skel.events[b]);
                    let init_first = ea.tid.is_none() && eb.tid.is_some();
                    let same_thread_po =
                        ea.tid == eb.tid && ea.tid.is_some() && ea.po_index < eb.po_index;
                    if init_first || same_thread_po {
                        constraint.insert(a, b);
                    }
                }
            }
        }

        let mut rf = Relation::empty(n);
        for &r in &self.skel.reads {
            let w = rf_choice[r].expect("all reads assigned");
            rf.insert(w, r);
        }

        let groups: Vec<Vec<usize>> = groups.into_values().collect();
        let mut co = Relation::empty(n);
        self.enumerate_co(
            &groups,
            0,
            &constraint,
            &mut co,
            rf_choice,
            &rf,
            &loc,
            &val,
            core,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn enumerate_co(
        &mut self,
        groups: &[Vec<usize>],
        g: usize,
        constraint: &Relation,
        co: &mut Relation,
        rf_choice: &[Option<usize>],
        rf: &Relation,
        loc: &[Option<Loc>],
        val: &[Option<Val>],
        core: Option<&CoreState>,
    ) -> bool {
        let n = self.skel.events.len();
        if g == groups.len() {
            self.exec.rf = rf.clone();
            self.exec.co = co.clone();
            self.exec.loc = loc.to_vec();
            self.exec.val = val.to_vec();
            return (self.visit)(self.exec);
        }
        let members = EventSet::from_ids(n, groups[g].iter().copied());
        let mut keep_going = true;
        linear_extensions(members, constraint, &mut |order| {
            let mut co_next = co.clone();
            for i in 0..order.len() {
                for j in (i + 1)..order.len() {
                    co_next.insert(order[i], order[j]);
                }
            }
            // One location's order committed: a core cycle through it
            // survives into every completion (later groups only add
            // other locations' edges), so the whole subtree is dead.
            let next_core = core.map(|c| {
                let mut c = c.clone();
                c.commit_group(&self.skel.reads, rf_choice, order);
                c
            });
            if self.prune {
                let dead = match &next_core {
                    Some(c) => !c.ok(&self.skel.rmw, rf_choice),
                    None => !CoreState::fresh_dynamic(self.skel, rf_choice, loc, Some(&co_next))
                        .ok(&self.skel.rmw, rf_choice),
                };
                if dead {
                    self.pruned_branches += 1;
                    return true;
                }
            }
            keep_going = self.enumerate_co(
                groups,
                g + 1,
                constraint,
                &mut co_next,
                rf_choice,
                rf,
                loc,
                val,
                next_core.as_ref(),
            );
            keep_going
        });
        keep_going
    }
}

/// Counts the candidate executions of a program.
#[must_use]
pub fn count_executions<A: Clone>(prog: &Program<A>) -> usize {
    let mut count = 0usize;
    enumerate_executions(prog, &mut |_| {
        count += 1;
        true
    });
    count
}

/// Collects the set of outcomes over `observed` registers across all
/// candidate executions satisfying `consistent`.
#[must_use]
pub fn outcome_set<A: Clone>(
    prog: &Program<A>,
    observed: &[(usize, Reg)],
    mut consistent: impl FnMut(&Execution<A>) -> bool,
) -> std::collections::BTreeSet<Outcome> {
    let mut out = std::collections::BTreeSet::new();
    enumerate_executions(prog, &mut |exec| {
        let outcome = exec.outcome(observed);
        if !out.contains(&outcome) && consistent(exec) {
            out.insert(outcome);
        }
        true
    });
    out
}

/// Returns `true` if some candidate execution both realizes `target` and
/// satisfies `consistent` (i.e. the target outcome is allowed/observable
/// under the model `consistent` encodes).
#[must_use]
pub fn target_realizable<A: Clone>(
    prog: &Program<A>,
    target: &Outcome,
    mut consistent: impl FnMut(&Execution<A>) -> bool,
) -> bool {
    let mut found = false;
    enumerate_matching(prog, target, &mut |exec| {
        if consistent(exec) {
            found = true;
            return false;
        }
        true
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::Instr;

    fn read(dst: u8, addr: u64) -> Instr<()> {
        Instr::Read {
            dst: Reg(dst),
            addr: Expr::Const(addr),
            ann: (),
        }
    }

    fn write(addr: u64, val: u64) -> Instr<()> {
        Instr::Write {
            addr: Expr::Const(addr),
            val: Expr::Const(val),
            ann: (),
        }
    }

    fn prog(threads: Vec<Vec<Instr<()>>>) -> Program<()> {
        Program::new(threads, []).expect("valid test program")
    }

    #[test]
    fn single_read_sees_init_or_store() {
        let p = prog(vec![vec![write(1, 7)], vec![read(0, 1)]]);
        let outcomes = outcome_set(&p, &[(1, Reg(0))], |_| true);
        let vals: Vec<u64> = outcomes
            .iter()
            .map(|o| o.get(1, Reg(0)).unwrap().0)
            .collect();
        assert_eq!(vals, vec![0, 7]);
    }

    #[test]
    fn candidate_counts_for_store_buffering() {
        // SB: 2 writes (one per loc) + 2 reads with 2 choices each.
        // co per location is forced (init + 1 write). 2*2 = 4 candidates.
        let p = prog(vec![
            vec![write(1, 1), read(0, 2)],
            vec![write(2, 1), read(1, 1)],
        ]);
        assert_eq!(count_executions(&p), 4);
    }

    #[test]
    fn coherence_orders_multiply_candidates() {
        // Two writes to x from different threads: co can order them 2 ways.
        let p = prog(vec![vec![write(1, 1)], vec![write(1, 2)]]);
        assert_eq!(count_executions(&p), 2);
    }

    #[test]
    fn same_thread_writes_keep_program_order_in_co() {
        let p = prog(vec![vec![write(1, 1), write(1, 2)]]);
        let mut seen = 0;
        enumerate_executions(&p, &mut |exec| {
            seen += 1;
            // the two thread writes are events 1 and 2 (event 0 = init).
            assert!(exec.co().contains(1, 2));
            assert!(exec.co().contains(0, 1), "init is co-first");
            true
        });
        assert_eq!(seen, 1);
    }

    #[test]
    fn reads_never_read_own_later_writes() {
        let p = prog(vec![vec![read(0, 1), write(1, 5)]]);
        let outcomes = outcome_set(&p, &[(0, Reg(0))], |_| true);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes.iter().next().unwrap().get(0, Reg(0)), Some(Val(0)));
    }

    #[test]
    fn rmw_add_zero_writes_back_read_value() {
        let p = Program::new(
            vec![
                vec![write(1, 9)],
                vec![Instr::Rmw {
                    dst: Reg(0),
                    addr: Expr::Const(1),
                    kind: RmwKind::FetchAddZero,
                    ann: (),
                }],
            ],
            [],
        )
        .unwrap();
        enumerate_executions(&p, &mut |exec| {
            // Find the RMW write half and check it mirrors the read.
            for (r, w) in exec.rmw().pairs() {
                assert_eq!(exec.val(r), exec.val(w));
            }
            true
        });
    }

    #[test]
    fn address_dependency_resolves_through_read_value() {
        // T0: y := address-of-x (i.e. 1); T1: r0 = load y; r1 = load [r0].
        // When r0 reads 1, the second load targets x; when it reads 0 the
        // second load targets location 0 (declared as an extra location).
        let p = Program::new(
            vec![
                vec![write(2, 1)],
                vec![
                    read(0, 2),
                    Instr::Read {
                        dst: Reg(1),
                        addr: Expr::Reg(Reg(0)),
                        ann: (),
                    },
                ],
            ],
            [Loc(0), Loc(1)],
        )
        .unwrap();
        let outcomes = outcome_set(&p, &[(1, Reg(0)), (1, Reg(1))], |_| true);
        // r0=0 -> loads loc 0 -> r1=0; r0=1 -> loads x (untouched) -> r1=0.
        let printed: Vec<String> = outcomes.iter().map(|o| o.to_string()).collect();
        assert_eq!(printed, vec!["T1:r0=0, T1:r1=0", "T1:r0=1, T1:r1=0"]);
        // Address dependency edge must be present.
        enumerate_executions(&p, &mut |exec| {
            assert_eq!(exec.addr().pair_count(), 1);
            true
        });
    }

    #[test]
    fn data_dependency_is_recorded() {
        let p = Program::new(
            vec![vec![
                read(0, 1),
                Instr::Write {
                    addr: Expr::Const(2),
                    val: Expr::Reg(Reg(0)),
                    ann: (),
                },
            ]],
            [],
        )
        .unwrap();
        enumerate_executions(&p, &mut |exec| {
            assert_eq!(exec.data().pair_count(), 1);
            true
        });
    }

    #[test]
    fn target_filter_restricts_enumeration() {
        let p = prog(vec![
            vec![write(1, 1), read(0, 2)],
            vec![write(2, 1), read(1, 1)],
        ]);
        let target = Outcome::from_values([((0, Reg(0)), Val(0)), ((1, Reg(1)), Val(0))]);
        let mut count = 0;
        enumerate_matching(&p, &target, &mut |exec| {
            assert_eq!(exec.outcome(&[(0, Reg(0)), (1, Reg(1))]), target);
            count += 1;
            true
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn target_realizable_with_trivial_model() {
        let p = prog(vec![vec![write(1, 1)], vec![read(0, 1)]]);
        let yes = Outcome::from_values([((1, Reg(0)), Val(1))]);
        let no = Outcome::from_values([((1, Reg(0)), Val(3))]);
        assert!(target_realizable(&p, &yes, |_| true));
        assert!(!target_realizable(&p, &no, |_| true));
    }

    #[test]
    fn pruned_enumeration_visits_exactly_the_core_consistent_candidates() {
        use crate::order::MemOrder;
        use crate::suite;
        // Exercise shapes with coherence conflicts (same-location
        // write/write and read-after-write races).
        let progs: Vec<Program<MemOrder>> = vec![
            suite::mp([MemOrder::Rlx; 4]).program().clone(),
            suite::sb([MemOrder::Sc; 4]).program().clone(),
            suite::corr([MemOrder::Rlx; 4]).program().clone(),
            suite::corsdwi([MemOrder::Rlx; 5]).program().clone(),
            suite::iriw([MemOrder::Rlx; 6]).program().clone(),
        ];
        for prog in progs {
            let mut all = Vec::new();
            enumerate_executions(&prog, &mut |e| {
                all.push(e.clone());
                true
            });
            let mut pruned = Vec::new();
            let result = enumerate_executions_pruned(&prog, &mut |e| {
                pruned.push(e.clone());
                true
            });
            assert!(result.completed);
            let surviving: Vec<_> = all.iter().filter(|e| core_consistent(e)).cloned().collect();
            assert_eq!(pruned, surviving, "pruned set == core-filtered set");
            if all.len() > surviving.len() {
                assert!(result.pruned_branches > 0, "cuts must be counted");
            }
        }
    }

    #[test]
    fn pruning_keeps_corr_candidates_for_hazard_models() {
        use crate::order::MemOrder;
        use crate::suite;
        // The CoRR shape's "reads observe coherence backwards" candidate
        // violates only same-address R→R order — which the core excludes,
        // because hazard machines accept it. It must survive pruning.
        let t = suite::corr([MemOrder::Rlx; 4]);
        let mut count = 0;
        let e = enumerate_matching_pruned(t.program(), t.target(), &mut |_| {
            count += 1;
            true
        });
        assert!(e.completed);
        assert!(count > 0, "the CoRR target candidate must not be pruned");
    }

    #[test]
    fn pruned_matching_agrees_with_unpruned_on_targets() {
        use crate::order::MemOrder;
        use crate::suite;
        for t in [
            suite::mp([MemOrder::Rlx; 4]),
            suite::sb([MemOrder::Sc; 4]),
            suite::wrc([MemOrder::Rlx; 5]),
        ] {
            let mut unpruned = Vec::new();
            enumerate_matching(t.program(), t.target(), &mut |e| {
                unpruned.push(e.clone());
                true
            });
            let mut pruned = Vec::new();
            let _ = enumerate_matching_pruned(t.program(), t.target(), &mut |e| {
                pruned.push(e.clone());
                true
            });
            let filtered: Vec<_> = unpruned.into_iter().filter(core_consistent).collect();
            assert_eq!(pruned, filtered, "{}", t.name());
        }
    }

    #[test]
    fn core_consistency_rejects_a_coww_cycle() {
        // Same-thread writes to one location must hit coherence in
        // program order; flipping co closes a (po_loc ∪ co) cycle.
        let p = prog(vec![vec![write(1, 1), write(1, 2)]]);
        let mut seen_pruned = 0;
        let e = enumerate_executions_pruned(&p, &mut |_| {
            seen_pruned += 1;
            true
        });
        // The forced-co constraint already keeps same-thread writes in
        // order, so nothing is cut — but the single candidate survives
        // and satisfies the core.
        assert_eq!(seen_pruned, 1);
        assert_eq!(e.pruned_branches, 0);
        enumerate_executions(&p, &mut |exec| {
            assert!(core_consistent(exec));
            true
        });
    }

    #[test]
    fn fr_relates_reads_to_coherence_later_writes() {
        let p = prog(vec![vec![write(1, 1)], vec![read(0, 1)]]);
        enumerate_executions(&p, &mut |exec| {
            let r = 2; // init=0, write=1, read=2
            let w = 1;
            if exec.rf().contains(0, r) {
                // read from init: fr to the store
                assert!(exec.fr().contains(r, w));
            } else {
                assert!(exec.fr().successors(r).is_empty());
            }
            true
        });
    }
}
