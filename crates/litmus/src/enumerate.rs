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
//! Choices that contradict themselves (source location mismatch, or a
//! value contradicting the target outcome) are pruned; executions with
//! unresolvable values (cyclic value dependencies, which only
//! out-of-thin-air shapes produce) are discarded.
//!
//! # What the program text resolves
//!
//! In most litmus programs every location and every written value is a
//! constant, so most of that work can be done once per program. When
//! the skeleton is built it records each event's *static* location (an
//! initialization write's, or a constant address) and *static* value
//! (an initialization write's zero, a constant store or `amoswap`
//! operand), and the list of *dynamic* events that still need the
//! fixpoint: every read (its value is its source's), every `amoadd`
//! write half, and every access with a register operand.
//!
//! - A read branches only over the writes its `rf` can take: not its
//!   own thread's po-later writes, only writes whose static location
//!   matches its own (a register-computed location on either side
//!   matches anything), and, under a target, only writes whose static
//!   value equals the read's expected one. The skipped branches are
//!   exactly those the fixpoint would reject, so the visited candidates
//!   and the pruned-branch counts are those of trying every write.
//! - The fixpoint after each surviving choice starts from the static
//!   tables and iterates over the dynamic events only. The last choice's
//!   fixpoint resolves the complete candidate, so completing it runs no
//!   further one.
//!
//! Where a location is register-computed (`litmus/dep_fig13.litmus`
//! loads through one), the static filter cannot decide a branch and
//! the per-branch fixpoint still does. The filter's tables also give
//! the inputs of a static candidate bound: `rf` choices per read ×
//! per-location coherence linearisations.
//!
//! # Axiom-driven pruning
//!
//! The `*_pruned` entry points additionally cut any search branch that
//! already violates the *model-independent coherence core*: the partial
//! relation `(po_loc \ R×R) ∪ rf ∪ co ∪ fr` over the locations resolved
//! so far, the `rf` choices made so far, and the coherence orders
//! committed so far (plus the forced edges: initialization writes first,
//! same-thread same-location writes in program order) is cyclic, or a
//! write is already known to sit coherence-between an RMW's read source
//! and its write half (`rmw ∩ (fr ; co) = ∅` is checked verbatim by C11
//! and every microarchitecture model).
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
//! The check is one from-scratch build: at each `rf` choice that can
//! close a violation, and at each committed per-location order, the
//! search builds the partial core as a bitset [`Relation`] and tests
//! [`Relation::is_acyclic`]. Programs are capped at 64 events, so the
//! core is at most 64 machine words; constant- and register-address
//! programs take the same path.
//!
//! # Scratch ownership
//!
//! Every buffer the search uses lives in an [`EnumScratch`], which its
//! caller owns and reuses across programs (a sweep keeps one per
//! worker, beside the worker's `Judge`): the program's skeleton tables,
//! the `rf` choice stack, the per-location write groups, and the one
//! [`Execution`] the search visits. The skeleton is written straight
//! into that execution (events, `po`, dependencies, `rmw`, register
//! definitions), each register operand is resolved to its defining
//! event once, when the skeleton is built, and the resolution fixpoint
//! writes its locations and values into the execution's own `loc`/`val`
//! columns; a visit then only overwrites `rf` and `co`. Relations are
//! inline bitsets and coherence orders live on the recursion's stack,
//! so once a scratch has seen a program as large as the next one, the
//! search allocates nothing. The free functions below are one-shot
//! forms over a fresh scratch.

use tricheck_rel::{linear_extensions, EventSet, Relation, MAX_EVENTS};

use crate::exec::{from_rows, same_loc, Event, EventKind, Execution};
use crate::mir::{Expr, Instr, Loc, Program, Reg, RmwKind, Val};
use crate::outcome::Outcome;

/// An address or value operand with its register, if any, resolved to
/// the event that defines it.
#[derive(Clone, Copy, Debug)]
enum Operand {
    Const(u64),
    /// The value read by this event (a register's defining read).
    Event(usize),
}

impl Operand {
    fn eval(self, val: &[Option<Val>]) -> Option<u64> {
        match self {
            Operand::Const(c) => Some(c),
            Operand::Event(def) => val[def].map(|v| v.0),
        }
    }
}

/// How an event obtains its value.
#[derive(Clone, Copy, Debug)]
enum ValSrc {
    /// Initialization write: always zero.
    InitZero,
    /// The value operand of a plain store or an `amoswap`.
    Operand(Operand),
    /// The value read by this event's own RMW read half (`amoadd` of 0).
    OwnRead(usize),
    /// A read: its `rf` source's value.
    Rf,
    /// A fence has no value.
    None,
}

/// The per-program tables the search reads, rebuilt into reused
/// buffers for every program. The events and the program-invariant
/// relations live in the scratch's [`Execution`] instead.
#[derive(Debug, Default)]
struct Skeleton {
    /// Per event: the address operand (`None` for inits and fences).
    addr: Vec<Option<Operand>>,
    val_src: Vec<ValSrc>,
    /// Per event: the location the program text fixes (an init
    /// write's, or a constant address), `None` where a register
    /// computes it.
    static_loc: Vec<Option<Loc>>,
    /// Per event: the value the program text fixes (an init write's
    /// zero, a constant store or swap operand), `None` for reads and
    /// for writes whose value comes from a register or a read.
    static_val: Vec<Option<Val>>,
    /// Accesses with a location or value still to resolve: every read,
    /// and every write with a register operand or an `amoadd` value.
    /// The resolution fixpoint visits only these.
    dynamic: u64,
    /// Expected value per event id, derived from a target outcome.
    expected: Vec<Option<Val>>,
    /// The events `expected` constrains, as a bitmask.
    expected_events: u64,
    reads: Vec<usize>,
    /// Per read (indexed like `reads`): the writes its `rf` may pick.
    /// A read never reads its own thread's po-later writes (that
    /// violates coherence in every model we evaluate), including its
    /// own RMW write half; and a write whose static location differs
    /// from the read's, or — under a target — whose static value
    /// differs from the read's expected one, fails the fixpoint's
    /// contradiction check on every branch, so it is never tried.
    sources: Vec<u64>,
    /// The write events (initialization writes included), as a bitmask.
    writes: u64,
    /// Same-thread `po` pairs that are not read→read: the part of
    /// program order the core keeps once both ends share a location.
    po_core: Relation,
    /// The write pairs every model orders in `co` once they share a
    /// location: the initialization write first, and each thread's
    /// writes in program order.
    co_forced: Relation,
    rmw: Relation,
    /// Whether every register the target outcome constrains is
    /// assigned by the program (no candidate matches otherwise).
    target_defined: bool,
    /// Whether any candidate of this program can violate the
    /// model-independent core at all. A core cycle needs a same-thread
    /// mixed read/write pair that may share a location (pure W→W pairs
    /// are already forced into `co`, pure R→R pairs are excluded from
    /// the core, and `rf ∪ co ∪ fr` alone cannot cycle), and an
    /// atomicity violation needs an RMW — so a program with neither
    /// skips every prune check.
    core_prunable: bool,
    /// Bit per read whose `rf` choice can close a core violation (RMW
    /// read halves, and reads with a same-thread possibly-same-location
    /// write). Only these choices run the prune check; the check at
    /// each committed coherence order still covers every completed
    /// candidate.
    read_relevant: u64,
}

/// The events `lo..hi` as a bitmask.
fn span(lo: usize, hi: usize) -> u64 {
    let below = |k: usize| if k >= 64 { !0 } else { (1u64 << k) - 1 };
    below(hi) & !below(lo)
}

/// The set bits of `bits`, lowest first.
fn bits(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let e = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            e
        })
    })
}

impl Skeleton {
    /// Rebuilds the tables for `prog`, writing the events, `po`,
    /// dependency and `rmw` relations, the init set and the register
    /// definitions into `exec`.
    fn build<A: Clone>(
        &mut self,
        exec: &mut Execution<A>,
        prog: &Program<A>,
        target: Option<&Outcome>,
    ) {
        let locations = prog.locations();
        let n = locations.len()
            + prog
                .threads()
                .iter()
                .flatten()
                .map(|instr| {
                    if matches!(instr, Instr::Rmw { .. }) {
                        2
                    } else {
                        1
                    }
                })
                .sum::<usize>();
        self.addr.clear();
        self.val_src.clear();
        exec.events.clear();
        exec.reg_def.clear();
        let (mut addr, mut data, mut rmw) =
            (Relation::empty(n), Relation::empty(n), Relation::empty(n));
        // Per event: its po-successors; zero for initialization writes.
        let mut po_rows = [0u64; MAX_EVENTS];

        for _ in locations {
            exec.events.push(Event {
                id: exec.events.len(),
                tid: None,
                po_index: 0,
                kind: EventKind::Write,
                ann: None,
                is_rmw: false,
            });
            self.addr.push(None);
            self.val_src.push(ValSrc::InitZero);
        }
        let init_count = exec.events.len();

        for (tid, thread) in prog.threads().iter().enumerate() {
            let first = exec.events.len();
            let mut po_index = 0usize;
            // Registers are assigned once per thread and only read after
            // their assignment (`Program::new` checks both), so every
            // operand resolves to a definition already recorded.
            let resolve = |expr: Expr, reg_def: &[((usize, Reg), usize)]| match expr {
                Expr::Const(c) => Operand::Const(c),
                Expr::Reg(r) => Operand::Event(
                    reg_def
                        .iter()
                        .rev()
                        .find(|&&(key, _)| key == (tid, r))
                        .expect("registers are assigned before use")
                        .1,
                ),
            };
            for instr in thread {
                let mut push = |kind: EventKind, ann: &A, is_rmw: bool| {
                    let id = exec.events.len();
                    exec.events.push(Event {
                        id,
                        tid: Some(tid),
                        po_index,
                        kind,
                        ann: Some(ann.clone()),
                        is_rmw,
                    });
                    po_index += 1;
                    id
                };
                match instr {
                    Instr::Read { dst, addr: a, ann } => {
                        let e = push(EventKind::Read, ann, false);
                        let op = resolve(*a, &exec.reg_def);
                        self.addr.push(Some(op));
                        self.val_src.push(ValSrc::Rf);
                        if let Operand::Event(def) = op {
                            addr.insert(def, e);
                        }
                        exec.reg_def.push(((tid, *dst), e));
                    }
                    Instr::Write { addr: a, val, ann } => {
                        let e = push(EventKind::Write, ann, false);
                        let op = resolve(*a, &exec.reg_def);
                        let v = resolve(*val, &exec.reg_def);
                        self.addr.push(Some(op));
                        self.val_src.push(ValSrc::Operand(v));
                        if let Operand::Event(def) = op {
                            addr.insert(def, e);
                        }
                        if let Operand::Event(def) = v {
                            data.insert(def, e);
                        }
                    }
                    Instr::Rmw {
                        dst,
                        addr: a,
                        kind,
                        ann,
                    } => {
                        let r = push(EventKind::Read, ann, true);
                        let w = push(EventKind::Write, ann, true);
                        let op = resolve(*a, &exec.reg_def);
                        self.addr.extend([Some(op), Some(op)]);
                        self.val_src.push(ValSrc::Rf);
                        self.val_src.push(match kind {
                            RmwKind::FetchAddZero => ValSrc::OwnRead(r),
                            RmwKind::Swap(v) => {
                                let v = resolve(*v, &exec.reg_def);
                                if let Operand::Event(def) = v {
                                    data.insert(def, w);
                                }
                                ValSrc::Operand(v)
                            }
                        });
                        if let Operand::Event(def) = op {
                            addr.insert(def, r);
                            addr.insert(def, w);
                        }
                        rmw.insert(r, w);
                        exec.reg_def.push(((tid, *dst), r));
                    }
                    Instr::Fence { ann } => {
                        push(EventKind::Fence, ann, false);
                        self.addr.push(None);
                        self.val_src.push(ValSrc::None);
                    }
                }
            }
            // A thread's events are contiguous and pushed in program
            // order, so each one's po-successors are the rest of them.
            let last = exec.events.len();
            for (e, row) in (first..).zip(&mut po_rows[first..last]) {
                *row = span(e + 1, last);
            }
        }
        debug_assert_eq!(exec.events.len(), n);
        let thread_rows = exec.thread_rows();
        exec.reg_def.sort_unstable();

        // What the program text fixes. Every constant address is one of
        // the program's locations, whose init write has the same index.
        self.static_loc.clear();
        self.static_val.clear();
        let mut loc_rows = [0u64; MAX_EVENTS];
        let (mut reads, mut writes, mut dyn_addr, mut fixed) = (0u64, 0u64, 0u64, 0u64);
        self.reads.clear();
        for (e, event) in exec.events.iter().enumerate() {
            let (loc, at) = match self.addr[e] {
                None if e < init_count => (Some(locations[e]), Some(e)),
                Some(Operand::Const(c)) => {
                    let l = Loc(c);
                    (Some(l), locations.binary_search(&l).ok())
                }
                _ => (None, None),
            };
            let val = match self.val_src[e] {
                ValSrc::InitZero => Some(Val(0)),
                ValSrc::Operand(Operand::Const(c)) => Some(Val(c)),
                _ => None,
            };
            self.static_loc.push(loc);
            self.static_val.push(val);
            let bit = 1u64 << e;
            match event.kind {
                EventKind::Read => {
                    reads |= bit;
                    self.reads.push(e);
                }
                EventKind::Write => writes |= bit,
                EventKind::Fence => continue,
            }
            match at {
                Some(i) => loc_rows[i] |= bit,
                None => dyn_addr |= bit,
            }
            if loc.is_some() && val.is_some() {
                fixed |= bit;
            }
        }
        self.writes = writes;
        self.dynamic = (reads | writes) & !fixed;
        // The accesses that may share a location with `e`: those with
        // its static location or a register-computed one, or any access
        // if `e`'s own address is register-computed.
        let may_share = |e: usize| match self.static_loc[e] {
            Some(l) => locations.binary_search(&l).map_or(0, |i| loc_rows[i]) | dyn_addr,
            None => !0,
        };

        self.expected.clear();
        self.expected.resize(n, None);
        self.expected_events = 0;
        self.target_defined = true;
        if let Some(t) = target {
            for ((tid, reg), val) in t.iter() {
                match exec.defining_event(tid, reg) {
                    Some(e) => {
                        self.expected[e] = Some(val);
                        self.expected_events |= 1 << e;
                    }
                    None => self.target_defined = false,
                }
            }
        }

        self.sources.clear();
        for &r in &self.reads {
            let mut sources = writes & !po_rows[r] & may_share(r);
            if let Some(v) = self.expected[r] {
                for w in bits(sources) {
                    if self.static_val[w].is_some_and(|val| val != v) {
                        sources &= !(1 << w);
                    }
                }
            }
            self.sources.push(sources);
        }

        // Static prune relevance (see the field docs): RMW read halves,
        // and reads with a same-thread write that may share their
        // location.
        let mut read_relevant = 0u64;
        for (r, &row) in rmw.row_words().iter().enumerate() {
            if row != 0 {
                read_relevant |= 1 << r;
            }
        }
        for &r in &self.reads {
            if thread_rows[r] & writes & may_share(r) != 0 {
                read_relevant |= 1 << r;
            }
        }
        self.read_relevant = read_relevant;
        self.core_prunable = read_relevant != 0;

        let mut po_core = [0u64; MAX_EVENTS];
        let mut co_forced = [0u64; MAX_EVENTS];
        for e in 0..n {
            po_core[e] = po_rows[e] & if reads & 1 << e != 0 { !reads } else { !0 };
        }
        for w in bits(writes) {
            co_forced[w] = if w < init_count {
                writes & !span(0, init_count)
            } else {
                po_rows[w] & writes
            };
        }
        self.po_core = from_rows(&po_core, n);
        self.co_forced = from_rows(&co_forced, n);
        self.rmw = rmw.clone();

        exec.po = from_rows(&po_rows, n);
        exec.addr = addr;
        exec.data = data;
        exec.rmw = rmw;
        exec.inits = EventSet::from_ids(n, 0..init_count);
        exec.rf = Relation::empty(n);
        exec.co = Relation::empty(n);
        exec.loc.clear();
        exec.loc.resize(n, None);
        exec.val.clear();
        exec.val.resize(n, None);
    }

    /// Resolves locations and values into `loc`/`val` given a (partial)
    /// `rf` assignment: starts from what the program text fixes and
    /// iterates over the dynamic events only. Returns `false` on
    /// contradiction (rf source/location mismatch or a resolved value
    /// contradicting the target outcome).
    fn propagate(
        &self,
        rf_choice: &[Option<usize>],
        loc: &mut [Option<Loc>],
        val: &mut [Option<Val>],
    ) -> bool {
        loc.copy_from_slice(&self.static_loc);
        val.copy_from_slice(&self.static_val);
        // Locations feed nothing, so the fixpoint is reached once a
        // pass resolves no new value.
        let mut pending = self.dynamic;
        loop {
            let mut resolved = false;
            for e in bits(pending) {
                if loc[e].is_none() {
                    loc[e] = self.addr[e].and_then(|op| op.eval(val)).map(Loc);
                }
                if val[e].is_none() {
                    val[e] = match self.val_src[e] {
                        ValSrc::Operand(op) => op.eval(val).map(Val),
                        ValSrc::OwnRead(r) => val[r],
                        ValSrc::Rf => rf_choice[e].and_then(|w| val[w]),
                        ValSrc::InitZero | ValSrc::None => None,
                    };
                    resolved |= val[e].is_some();
                }
                if loc[e].is_some() && val[e].is_some() {
                    pending &= !(1 << e);
                }
            }
            if !resolved {
                break;
            }
        }
        // Contradiction checks.
        let rf_crosses_locations = self.reads.iter().any(|&r| {
            rf_choice[r]
                .is_some_and(|w| matches!((loc[r], loc[w]), (Some(lr), Some(lw)) if lr != lw))
        });
        !rf_crosses_locations
            && bits(self.expected_events)
                .all(|e| val[e].is_none_or(|actual| Some(actual) == self.expected[e]))
    }

    /// The coherence edges every model forces between same-location
    /// writes, over the locations `loc` has resolved: the
    /// initialization write first, and each thread's writes in program
    /// order.
    fn forced_co(&self, loc: &[Option<Loc>]) -> Relation {
        self.co_forced.intersect(&same_loc(loc))
    }

    /// `false` iff the branch is dead under every model: the partial
    /// core built from the resolved locations `loc`, the `rf` choices
    /// made so far and the committed coherence orders `co` (plus the
    /// forced edges) is cyclic, or a write already sits
    /// coherence-between an RMW's read source and its write half.
    fn core_ok(&self, rf_choice: &[Option<usize>], loc: &[Option<Loc>], co: &Relation) -> bool {
        let n = loc.len();
        let same = same_loc(loc);
        let co = co.union(&self.co_forced.intersect(&same));
        let co_rows = co.row_words();
        let mut core = [0u64; MAX_EVENTS];
        for (e, (row, (&po_core, &same))) in core
            .iter_mut()
            .zip(self.po_core.row_words().iter().zip(same.row_words()))
            .enumerate()
        {
            *row = co_rows[e] | po_core & same;
        }
        // `rf` edges, and `fr = rf⁻¹;co`: a read precedes its source's
        // coherence successors.
        for &r in &self.reads {
            if let Some(w) = rf_choice[r] {
                core[w] |= 1 << r;
                core[r] |= co_rows[w];
            }
        }
        from_rows(&core, n).is_acyclic()
            && self.rmw.row_words().iter().enumerate().all(|(r, &half)| {
                half == 0
                    || rf_choice[r].is_none_or(|src| {
                        bits(co_rows[src] & !half).all(|between| co_rows[between] & half == 0)
                    })
            })
    }
}

/// Reusable enumeration buffers: the skeleton tables of the program
/// being enumerated, the `rf` choice stack, the per-location write
/// groups, and the [`Execution`] every visit sees (see the
/// [module docs](self#scratch-ownership)).
///
/// A scratch carries nothing from one enumeration to the next but
/// buffer capacity, so one can serve any sequence of programs. Keep one
/// per worker and pass it to every enumeration the worker runs.
///
/// # Examples
///
/// ```
/// use tricheck_litmus::{suite, EnumScratch, MemOrder};
///
/// let mut scratch = EnumScratch::new();
/// for test in [suite::mp([MemOrder::Rlx; 4]), suite::sb([MemOrder::Rlx; 4])] {
///     let mut matching = 0;
///     let run = scratch.enumerate(test.program(), Some(test.target()), true, &mut |_| {
///         matching += 1;
///         true
///     });
///     assert!(run.completed && matching > 0);
/// }
/// ```
#[derive(Debug)]
pub struct EnumScratch<A> {
    pub(crate) exec: Execution<A>,
    skel: Skeleton,
    rf_choice: Vec<Option<usize>>,
    /// One entry per resolved location: the writes to it.
    groups: Vec<(Loc, EventSet)>,
}

impl<A> Default for EnumScratch<A> {
    fn default() -> Self {
        EnumScratch {
            exec: Execution::default(),
            skel: Skeleton::default(),
            rf_choice: Vec::new(),
            groups: Vec::new(),
        }
    }
}

impl<A: Clone> EnumScratch<A> {
    /// An empty scratch; its buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enumerates the candidate executions of `prog`, calling `visit`
    /// on each: all of them, or with a `target` only those whose
    /// outcome over the target's registers equals it, and with `prune`
    /// only those satisfying [`core_consistent`] (cut during the
    /// search, see the module docs). `visit` returning `false` aborts
    /// the enumeration.
    pub fn enumerate(
        &mut self,
        prog: &Program<A>,
        target: Option<&Outcome>,
        prune: bool,
        visit: &mut impl FnMut(&Execution<A>) -> bool,
    ) -> Enumeration {
        let EnumScratch {
            exec,
            skel,
            rf_choice,
            groups,
        } = self;
        skel.build(exec, prog, target);
        rf_choice.clear();
        rf_choice.resize(exec.len(), None);
        let mut ctx = Ctx {
            skel,
            exec,
            rf_choice,
            groups,
            visit,
            check_target: target.is_some(),
            prune: prune && skel.core_prunable,
            pruned_branches: 0,
        };
        let completed = ctx.assign_reads(0);
        Enumeration {
            completed,
            pruned_branches: ctx.pruned_branches,
        }
    }

    /// One complete [`enumerate`](Self::enumerate) pass as a sweep runs
    /// it, whether it fills an arena or judges each candidate as it
    /// comes: inside a `space_enum` span (a judge's spans nest in it),
    /// never aborted, and with the candidates visited and the branches
    /// pruned added to the trace counters. Returns the pruned branches.
    pub fn enumerate_counted(
        &mut self,
        prog: &Program<A>,
        target: Option<&Outcome>,
        prune: bool,
        visit: &mut impl FnMut(&Execution<A>),
    ) -> usize {
        let _t = tricheck_trace::span(tricheck_trace::Phase::SpaceEnum);
        let mut candidates = 0u64;
        let e = self.enumerate(prog, target, prune, &mut |exec| {
            candidates += 1;
            visit(exec);
            true
        });
        tricheck_trace::count(
            tricheck_trace::Counter::PrunedBranches,
            e.pruned_branches as u64,
        );
        tricheck_trace::count(tricheck_trace::Counter::CandidatesEnumerated, candidates);
        e.pruned_branches
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
    EnumScratch::new()
        .enumerate(prog, None, false, visit)
        .completed
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
    EnumScratch::new()
        .enumerate(prog, Some(target), false, visit)
        .completed
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
    EnumScratch::new().enumerate(prog, None, true, visit)
}

/// [`enumerate_matching`] with axiom-driven pruning (see
/// [`enumerate_executions_pruned`]).
pub fn enumerate_matching_pruned<A: Clone>(
    prog: &Program<A>,
    target: &Outcome,
    visit: &mut impl FnMut(&Execution<A>) -> bool,
) -> Enumeration {
    EnumScratch::new().enumerate(prog, Some(target), true, visit)
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

struct Ctx<'a, A, F> {
    skel: &'a Skeleton,
    exec: &'a mut Execution<A>,
    rf_choice: &'a mut [Option<usize>],
    groups: &'a mut Vec<(Loc, EventSet)>,
    visit: &'a mut F,
    /// Whether a target outcome restricts the enumeration.
    check_target: bool,
    /// Whether to cut branches whose partial coherence core is cyclic.
    prune: bool,
    pruned_branches: usize,
}

impl<A: Clone, F: FnMut(&Execution<A>) -> bool> Ctx<'_, A, F> {
    fn assign_reads(&mut self, k: usize) -> bool {
        if k == self.skel.reads.len() {
            // The last `rf` choice's fixpoint has resolved `loc` and
            // `val` already; a program without reads resolves here.
            let exec = &mut *self.exec;
            if k == 0
                && !self
                    .skel
                    .propagate(self.rf_choice, &mut exec.loc, &mut exec.val)
            {
                return true;
            }
            return self.finalize();
        }
        let r = self.skel.reads[k];
        for w in bits(self.skel.sources[k]) {
            self.rf_choice[r] = Some(w);
            let exec = &mut *self.exec;
            if self
                .skel
                .propagate(self.rf_choice, &mut exec.loc, &mut exec.val)
            {
                let dead = self.prune && self.skel.read_relevant & 1 << r != 0 && {
                    let no_co = Relation::empty(exec.len());
                    !self.skel.core_ok(self.rf_choice, &exec.loc, &no_co)
                };
                if dead {
                    // Every completion of this branch keeps the cycle:
                    // resolved locations, chosen rf edges and forced co
                    // edges only ever grow.
                    self.pruned_branches += 1;
                } else if !self.assign_reads(k + 1) {
                    self.rf_choice[r] = None;
                    return false;
                }
            }
            self.rf_choice[r] = None;
        }
        true
    }

    fn finalize(&mut self) -> bool {
        let exec = &mut *self.exec;
        // Every read and write must have fully resolved location & value.
        if bits(self.skel.dynamic).any(|e| exec.loc[e].is_none() || exec.val[e].is_none()) {
            return true; // unresolvable (out-of-thin-air shape): discard
        }
        // Every target register resolved and matched its expected value
        // above; the target must also name only assigned registers.
        if self.check_target && !self.skel.target_defined {
            return true;
        }

        // Group writes by resolved location for coherence enumeration,
        // in location order.
        let n = exec.len();
        self.groups.clear();
        for w in bits(self.skel.writes) {
            let l = exec.loc[w].expect("writes resolved above");
            match self.groups.iter_mut().find(|(g, _)| *g == l) {
                Some((_, members)) => members.insert(w),
                None => self.groups.push((l, EventSet::from_ids(n, [w]))),
            }
        }
        self.groups.sort_unstable_by_key(|&(l, _)| l);
        // Each order extends the forced edges (required by coherence in
        // C11 and by SC-per-location in every hardware model, so
        // skipping the other orders is sound).
        let constraint = self.skel.forced_co(&exec.loc);

        let mut rf = Relation::empty(n);
        for &r in &self.skel.reads {
            let w = self.rf_choice[r].expect("all reads assigned");
            rf.insert(w, r);
        }
        exec.rf = rf;
        self.enumerate_co(0, &constraint, &Relation::empty(n))
    }

    fn enumerate_co(&mut self, g: usize, constraint: &Relation, co: &Relation) -> bool {
        let Some(&(_, members)) = self.groups.get(g) else {
            self.exec.co.clone_from(co);
            return (self.visit)(self.exec);
        };
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
            if self.prune && !self.skel.core_ok(self.rf_choice, &self.exec.loc, &co_next) {
                self.pruned_branches += 1;
                return true;
            }
            keep_going = self.enumerate_co(g + 1, constraint, &co_next);
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
            register_address_race(),
        ];
        let mut counts = Vec::new();
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
            counts.push((all.len(), surviving.len(), result.pruned_branches));
        }
        assert_eq!(counts.last(), Some(&(12, 6, 4)), "register-address case");
    }

    /// A register-address program whose store races a same-thread load
    /// once its location resolves: T0 `r0 = ld y; st [r0], 2; r1 = ld x`,
    /// T1 `st x, 1; st y, &x` (x is location 0, so both of `r0`'s
    /// sources send the store to x, but only after `r0` has one).
    fn register_address_race() -> Program<crate::order::MemOrder> {
        let ann = crate::order::MemOrder::Rlx;
        let (x, y) = (0, 1);
        Program::new(
            vec![
                vec![
                    Instr::Read {
                        dst: Reg(0),
                        addr: Expr::Const(y),
                        ann,
                    },
                    Instr::Write {
                        addr: Expr::Reg(Reg(0)),
                        val: Expr::Const(2),
                        ann,
                    },
                    Instr::Read {
                        dst: Reg(1),
                        addr: Expr::Const(x),
                        ann,
                    },
                ],
                vec![
                    Instr::Write {
                        addr: Expr::Const(x),
                        val: Expr::Const(1),
                        ann,
                    },
                    Instr::Write {
                        addr: Expr::Const(y),
                        val: Expr::Const(x),
                        ann,
                    },
                ],
            ],
            [],
        )
        .expect("valid register-address program")
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
