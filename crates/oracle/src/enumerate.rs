//! The reference enumerator: every candidate of a program by brute
//! force, the oracle `tricheck_litmus::EnumScratch::enumerate` is
//! pinned against.
//!
//! It tries every `rf` map (each read against every write) and every
//! per-location coherence order (each permutation of a location's
//! writes), and only then resolves locations and values, applies the
//! target, and — when pruning — the model-independent core. Nothing is
//! cut early and nothing is read from the program text ahead of the
//! fixpoint, so it shares no shortcut with the enumerator it checks.
//! The event numbering is the enumerator's: one initialization write
//! per location in address order, then each thread's events in program
//! order, an RMW as its read half followed by its write half.

use std::collections::BTreeMap;

use tricheck_litmus::{EventKind, Execution, Expr, Instr, Outcome, Program, Reg, RmwKind};
use tricheck_rel::Relation;

/// One candidate execution, as the differential test compares them:
/// the `rf` and `co` pairs and every event's resolved location and
/// value.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Candidate {
    /// Reads-from pairs `(write, read)`, sorted.
    pub rf: Vec<(usize, usize)>,
    /// Coherence pairs `(earlier, later)`, sorted (transitively closed).
    pub co: Vec<(usize, usize)>,
    /// Per event: the resolved location (`None` for fences).
    pub loc: Vec<Option<u64>>,
    /// Per event: the resolved value (`None` for fences).
    pub val: Vec<Option<u64>>,
}

impl Candidate {
    /// The candidate an enumerated execution stands for.
    #[must_use]
    pub fn of<A>(exec: &Execution<A>) -> Candidate {
        let n = exec.len();
        Candidate {
            rf: exec.rf().pairs().collect(),
            co: exec.co().pairs().collect(),
            loc: (0..n).map(|e| exec.loc(e).map(|l| l.0)).collect(),
            val: (0..n).map(|e| exec.val(e).map(|v| v.0)).collect(),
        }
    }
}

/// Where an event's address or value comes from.
#[derive(Clone, Copy)]
enum Source {
    /// Fixed by the program text.
    Const(u64),
    /// The value of this event (a register's defining read, or an
    /// `amoadd` write half's own read).
    Event(usize),
    /// The value of the read's `rf` source.
    Rf,
    /// Nothing (an init write's address is its `Const` location; a
    /// fence has neither).
    None,
}

struct Ev {
    tid: Option<usize>,
    kind: EventKind,
    addr: Source,
    val: Source,
    /// For an RMW's write half: its read half.
    rmw_read: Option<usize>,
}

/// The program's events and its register definitions `(tid, reg) →
/// event`.
fn events<A>(prog: &Program<A>) -> (Vec<Ev>, BTreeMap<(usize, Reg), usize>) {
    let mut evs: Vec<Ev> = prog
        .locations()
        .iter()
        .map(|l| Ev {
            tid: None,
            kind: EventKind::Write,
            addr: Source::Const(l.0),
            val: Source::Const(0),
            rmw_read: None,
        })
        .collect();
    let mut defs = BTreeMap::new();
    for (tid, thread) in prog.threads().iter().enumerate() {
        let operand = |e: &Expr, defs: &BTreeMap<(usize, Reg), usize>| match e {
            Expr::Const(c) => Source::Const(*c),
            Expr::Reg(r) => Source::Event(defs[&(tid, *r)]),
        };
        for instr in thread {
            let ev = |kind, addr, val| Ev {
                tid: Some(tid),
                kind,
                addr,
                val,
                rmw_read: None,
            };
            match instr {
                Instr::Read { dst, addr, .. } => {
                    let addr = operand(addr, &defs);
                    defs.insert((tid, *dst), evs.len());
                    evs.push(ev(EventKind::Read, addr, Source::Rf));
                }
                Instr::Write { addr, val, .. } => {
                    let (addr, val) = (operand(addr, &defs), operand(val, &defs));
                    evs.push(ev(EventKind::Write, addr, val));
                }
                Instr::Rmw {
                    dst, addr, kind, ..
                } => {
                    let addr = operand(addr, &defs);
                    let read = evs.len();
                    let val = match kind {
                        RmwKind::FetchAddZero => Source::Event(read),
                        RmwKind::Swap(v) => operand(v, &defs),
                    };
                    defs.insert((tid, *dst), read);
                    evs.push(ev(EventKind::Read, addr, Source::Rf));
                    evs.push(Ev {
                        rmw_read: Some(read),
                        ..ev(EventKind::Write, addr, val)
                    });
                }
                Instr::Fence { .. } => evs.push(ev(EventKind::Fence, Source::None, Source::None)),
            }
        }
    }
    (evs, defs)
}

/// Every candidate execution of `prog`, as `EnumScratch::enumerate`
/// must visit them (in any order): with a `target` only those whose
/// outcome equals it, and with `prune` only those satisfying the
/// model-independent core.
///
/// A candidate picks a source write for every read and a coherence
/// order for every location; it exists iff every read and write
/// resolves a location and a value, every read's source is on the
/// read's location and is not a po-later write of its own thread, and
/// each location's order puts its initialization write first and each
/// thread's writes in program order.
///
/// Exponential in the reads and writes: for litmus-sized programs only.
#[must_use]
pub fn naive_candidates<A>(
    prog: &Program<A>,
    target: Option<&Outcome>,
    prune: bool,
) -> Vec<Candidate> {
    let (evs, defs) = events(prog);
    let n = evs.len();
    let of_kind = |k| (0..n).filter(|&e| evs[e].kind == k).collect::<Vec<_>>();
    let (reads, writes) = (of_kind(EventKind::Read), of_kind(EventKind::Write));
    let mut expected = Vec::new();
    for ((tid, reg), v) in target.into_iter().flat_map(Outcome::iter) {
        match defs.get(&(tid, reg)) {
            Some(&e) => expected.push((e, v.0)),
            None => return Vec::new(),
        }
    }
    let po_later = |a: usize, b: usize| evs[a].tid.is_some() && evs[a].tid == evs[b].tid && a < b;

    let mut out = Vec::new();
    let mut choice = vec![0usize; reads.len()];
    loop {
        let mut rf = vec![None; n];
        for (&r, &c) in reads.iter().zip(&choice) {
            rf[r] = Some(writes[c]);
        }
        if let Some((loc, val)) = resolve(&evs, &rf) {
            let source_of = |r: usize| rf[r].expect("every read has a source");
            let consistent = reads.iter().all(|&r| {
                let w = source_of(r);
                loc[r] == loc[w] && !po_later(r, w)
            }) && expected.iter().all(|&(e, v)| val[e] == Some(v));
            if consistent {
                let mut by_loc: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
                for &w in &writes {
                    by_loc.entry(loc[w].expect("resolved")).or_default().push(w);
                }
                let groups: Vec<Vec<Vec<usize>>> = by_loc
                    .into_values()
                    .map(|ws| {
                        permutations(&ws)
                            .into_iter()
                            .filter(|order| {
                                (evs[order[0]].tid.is_none()
                                    || order.iter().all(|&w| evs[w].tid.is_some()))
                                    && order.iter().enumerate().all(|(i, &a)| {
                                        order[i + 1..].iter().all(|&b| !po_later(b, a))
                                    })
                            })
                            .collect()
                    })
                    .collect();
                for_each_product(&groups, &mut |orders| {
                    let mut co = Relation::empty(n);
                    for order in orders {
                        for (i, &a) in order.iter().enumerate() {
                            for &b in &order[i + 1..] {
                                co.insert(a, b);
                            }
                        }
                    }
                    let rf_rel = Relation::from_pairs(n, reads.iter().map(|&r| (source_of(r), r)));
                    if !prune || core_holds(&evs, &loc, &rf_rel, &co) {
                        out.push(Candidate {
                            rf: rf_rel.pairs().collect(),
                            co: co.pairs().collect(),
                            loc: loc.clone(),
                            val: val.clone(),
                        });
                    }
                });
            }
        }
        // Next rf map (an odometer over the reads).
        let Some(k) = (0..reads.len()).find(|&k| choice[k] + 1 < writes.len()) else {
            break;
        };
        choice[k] += 1;
        choice[..k].fill(0);
    }
    out.sort();
    out
}

/// The least fixpoint of locations and values under a complete `rf`
/// map, or `None` if some read or write stays unresolved.
#[allow(clippy::type_complexity)]
fn resolve(evs: &[Ev], rf: &[Option<usize>]) -> Option<(Vec<Option<u64>>, Vec<Option<u64>>)> {
    let n = evs.len();
    let (mut loc, mut val) = (vec![None; n], vec![None; n]);
    let eval = |s: Source, e: usize, val: &[Option<u64>]| match s {
        Source::Const(c) => Some(c),
        Source::Event(d) => val[d],
        Source::Rf => rf[e].and_then(|w| val[w]),
        Source::None => None,
    };
    loop {
        let mut changed = false;
        for e in 0..n {
            if loc[e].is_none() {
                loc[e] = eval(evs[e].addr, e, &val);
                changed |= loc[e].is_some();
            }
            if val[e].is_none() {
                val[e] = eval(evs[e].val, e, &val);
                changed |= val[e].is_some();
            }
        }
        if !changed {
            break;
        }
    }
    let resolved =
        (0..n).all(|e| evs[e].kind == EventKind::Fence || loc[e].is_some() && val[e].is_some());
    resolved.then_some((loc, val))
}

/// `acyclic((po_loc \ R×R) ∪ rf ∪ co ∪ fr)` and `rmw ∩ (fr;co) = ∅`,
/// decided by closing the union.
fn core_holds(evs: &[Ev], loc: &[Option<u64>], rf: &Relation, co: &Relation) -> bool {
    let n = evs.len();
    let is_read = |e: usize| evs[e].kind == EventKind::Read;
    let accesses = |e: usize| evs[e].kind != EventKind::Fence;
    let po_loc = Relation::from_pairs(
        n,
        (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|&(a, b)| {
                evs[a].tid.is_some()
                    && evs[a].tid == evs[b].tid
                    && accesses(a)
                    && accesses(b)
                    && loc[a] == loc[b]
                    && !(is_read(a) && is_read(b))
            }),
    );
    let fr = rf.inverse().compose(co);
    let coherent = po_loc
        .union(rf)
        .union(co)
        .union(&fr)
        .transitive_closure()
        .is_irreflexive();
    let rmw = Relation::from_pairs(n, (0..n).filter_map(|w| evs[w].rmw_read.map(|r| (r, w))));
    coherent && rmw.intersect(&fr.compose(co)).is_empty()
}

/// Every ordering of `items`.
fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let first = rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, first);
            out.push(tail);
        }
    }
    out
}

/// Calls `visit` with one pick from each group, for every combination.
fn for_each_product(groups: &[Vec<Vec<usize>>], visit: &mut impl FnMut(&[&Vec<usize>])) {
    fn go<'a>(
        groups: &'a [Vec<Vec<usize>>],
        picked: &mut Vec<&'a Vec<usize>>,
        visit: &mut impl FnMut(&[&Vec<usize>]),
    ) {
        match groups.split_first() {
            None => visit(picked),
            Some((options, rest)) => {
                for option in options {
                    picked.push(option);
                    go(rest, picked, visit);
                    picked.pop();
                }
            }
        }
    }
    go(groups, &mut Vec::new(), visit);
}
