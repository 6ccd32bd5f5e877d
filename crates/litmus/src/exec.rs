//! Candidate executions: events plus the `rf` and `co` witness relations.

use tricheck_rel::{EventSet, Relation, MAX_EVENTS};

use crate::mir::{Loc, Reg, Val};
use crate::outcome::Outcome;

/// The kind of a memory event.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EventKind {
    /// A read of a shared location (including the read half of an RMW).
    Read,
    /// A write to a shared location (including the write half of an RMW
    /// and the implicit initialization writes).
    Write,
    /// A fence (no location).
    Fence,
}

/// One memory event of a candidate execution.
///
/// Initialization writes have `tid == None`; all other events carry the
/// issuing thread and their position in its program order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Event<A> {
    /// Dense event id, usable as an index into the execution's relations.
    pub id: usize,
    /// Issuing thread, or `None` for an initialization write.
    pub tid: Option<usize>,
    /// Index in the thread's program order (0 for init events).
    pub po_index: usize,
    /// Read, write, or fence.
    pub kind: EventKind,
    /// The instruction annotation, or `None` for init events.
    pub ann: Option<A>,
    /// `true` for the two halves of an RMW instruction.
    pub is_rmw: bool,
}

/// A complete candidate execution of a program: events, program order,
/// dependency relations, a reads-from assignment and a coherence order.
///
/// Memory models are predicates over this type. Executions are produced by
/// [`crate::enumerate_executions`]; all relations range over
/// `0..self.len()` event ids. The relations are inline bitsets; the
/// per-event tables are vectors, and [`Clone::clone_from`] reuses their
/// buffers, so an execution rebound to another candidate or program of
/// no larger size allocates nothing.
#[derive(PartialEq, Eq, Debug)]
pub struct Execution<A> {
    pub(crate) events: Vec<Event<A>>,
    pub(crate) po: Relation,
    pub(crate) addr: Relation,
    pub(crate) data: Relation,
    pub(crate) rmw: Relation,
    pub(crate) rf: Relation,
    pub(crate) co: Relation,
    pub(crate) loc: Vec<Option<Loc>>,
    pub(crate) val: Vec<Option<Val>>,
    pub(crate) inits: EventSet,
    /// `((tid, reg), event)` for every register a thread assigns,
    /// sorted by `(tid, reg)`: the event that defines it.
    pub(crate) reg_def: Vec<((usize, Reg), usize)>,
}

impl<A: Clone> Clone for Execution<A> {
    fn clone(&self) -> Self {
        Execution {
            events: self.events.clone(),
            po: self.po.clone(),
            addr: self.addr.clone(),
            data: self.data.clone(),
            rmw: self.rmw.clone(),
            rf: self.rf.clone(),
            co: self.co.clone(),
            loc: self.loc.clone(),
            val: self.val.clone(),
            inits: self.inits,
            reg_def: self.reg_def.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.events.clone_from(&source.events);
        self.po.clone_from(&source.po);
        self.addr.clone_from(&source.addr);
        self.data.clone_from(&source.data);
        self.rmw.clone_from(&source.rmw);
        self.rf.clone_from(&source.rf);
        self.co.clone_from(&source.co);
        self.loc.clone_from(&source.loc);
        self.val.clone_from(&source.val);
        self.inits = source.inits;
        self.reg_def.clone_from(&source.reg_def);
    }
}

impl<A> Default for Execution<A> {
    /// The execution of the empty program, holding no buffers.
    fn default() -> Self {
        Execution {
            events: Vec::new(),
            po: Relation::default(),
            addr: Relation::default(),
            data: Relation::default(),
            rmw: Relation::default(),
            rf: Relation::default(),
            co: Relation::default(),
            loc: Vec::new(),
            val: Vec::new(),
            inits: EventSet::empty(0),
            reg_def: Vec::new(),
        }
    }
}

impl<A> Execution<A> {
    /// Number of events (including initialization writes).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the execution has no events (an empty program).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, indexed by id.
    #[must_use]
    pub fn events(&self) -> &[Event<A>] {
        &self.events
    }

    /// The annotation of event `e`, or `None` for init events.
    #[must_use]
    pub fn ann(&self, e: usize) -> Option<&A> {
        self.events[e].ann.as_ref()
    }

    /// The resolved location of event `e` (`None` for fences).
    #[must_use]
    pub fn loc(&self, e: usize) -> Option<Loc> {
        self.loc[e]
    }

    /// The resolved value of event `e` (read result or written value;
    /// `None` for fences).
    #[must_use]
    pub fn val(&self, e: usize) -> Option<Val> {
        self.val[e]
    }

    /// Program order: `(a, b)` for same-thread events with `a` earlier.
    /// Total per thread; init events participate in no `po` edges.
    #[must_use]
    pub fn po(&self) -> &Relation {
        &self.po
    }

    /// Syntactic address dependencies: read → dependent later access.
    #[must_use]
    pub fn addr(&self) -> &Relation {
        &self.addr
    }

    /// Syntactic data dependencies: read → store whose value depends on it.
    #[must_use]
    pub fn data(&self) -> &Relation {
        &self.data
    }

    /// RMW pairing: read half → write half of each RMW instruction.
    #[must_use]
    pub fn rmw(&self) -> &Relation {
        &self.rmw
    }

    /// Reads-from: write → read edges (every read has exactly one source).
    #[must_use]
    pub fn rf(&self) -> &Relation {
        &self.rf
    }

    /// Coherence order: per-location strict total order over writes
    /// (transitively closed; initialization writes come first).
    #[must_use]
    pub fn co(&self) -> &Relation {
        &self.co
    }

    /// From-reads (reads-before): `(r, w)` when `r` reads from a write
    /// coherence-earlier than `w`. Derived as `rf⁻¹ ; co`.
    #[must_use]
    pub fn fr(&self) -> Relation {
        self.rf.inverse().compose(&self.co)
    }

    /// The set of read events.
    #[must_use]
    pub fn reads(&self) -> EventSet {
        self.kind_set(EventKind::Read)
    }

    /// The set of write events (including init writes).
    #[must_use]
    pub fn writes(&self) -> EventSet {
        self.kind_set(EventKind::Write)
    }

    /// The set of fence events.
    #[must_use]
    pub fn fences(&self) -> EventSet {
        self.kind_set(EventKind::Fence)
    }

    /// The set of initialization writes.
    #[must_use]
    pub fn inits(&self) -> EventSet {
        self.inits
    }

    /// Pairs of distinct events on the same location.
    #[must_use]
    pub fn same_loc(&self) -> Relation {
        same_loc(&self.loc)
    }

    /// Program order restricted to same-location pairs.
    #[must_use]
    pub fn po_loc(&self) -> Relation {
        self.po.intersect(&self.same_loc())
    }

    /// `true` if `a` and `b` are from different threads (init events are
    /// external to every thread).
    #[must_use]
    pub fn is_external(&self, a: usize, b: usize) -> bool {
        match (self.events[a].tid, self.events[b].tid) {
            (Some(ta), Some(tb)) => ta != tb,
            _ => true,
        }
    }

    /// External (inter-thread) part of a relation.
    #[must_use]
    pub fn external(&self, r: &Relation) -> Relation {
        let threads = self.thread_rows();
        rows_of(r, |a, row| row & !threads[a])
    }

    /// Internal (intra-thread) part of a relation.
    #[must_use]
    pub fn internal(&self, r: &Relation) -> Relation {
        let threads = self.thread_rows();
        rows_of(r, |a, row| row & threads[a])
    }

    /// External reads-from (`rfe`).
    #[must_use]
    pub fn rfe(&self) -> Relation {
        self.external(&self.rf)
    }

    /// Internal reads-from (`rfi`).
    #[must_use]
    pub fn rfi(&self) -> Relation {
        self.internal(&self.rf)
    }

    /// External coherence edges (`coe`).
    #[must_use]
    pub fn coe(&self) -> Relation {
        self.external(&self.co)
    }

    /// External from-reads (`fre`).
    #[must_use]
    pub fn fre(&self) -> Relation {
        self.external(&self.fr())
    }

    /// Internal from-reads (`fri`).
    #[must_use]
    pub fn fri(&self) -> Relation {
        self.internal(&self.fr())
    }

    /// The event that assigned `reg` in thread `tid`, if any.
    #[must_use]
    pub fn defining_event(&self, tid: usize, reg: Reg) -> Option<usize> {
        self.reg_def
            .binary_search_by_key(&(tid, reg), |&(key, _)| key)
            .ok()
            .map(|i| self.reg_def[i].1)
    }

    /// Extracts the outcome over the given observed registers.
    ///
    /// # Panics
    ///
    /// Panics if an observed register is never assigned by the program or
    /// its value is unresolved (enumeration only yields fully resolved
    /// executions, so this indicates observing a register of a different
    /// test).
    #[must_use]
    pub fn outcome(&self, observed: &[(usize, Reg)]) -> Outcome {
        let mut out = Outcome::new();
        for &(tid, reg) in observed {
            let e = self
                .defining_event(tid, reg)
                .unwrap_or_else(|| panic!("register {reg} of thread {tid} is never assigned"));
            let v = self.val[e].unwrap_or_else(|| panic!("value of event {e} unresolved"));
            out.set(tid, reg, v);
        }
        out
    }

    fn kind_set(&self, kind: EventKind) -> EventSet {
        EventSet::from_ids(
            self.len(),
            self.events.iter().filter(|e| e.kind == kind).map(|e| e.id),
        )
    }

    /// Per event: the events of its thread, itself included (no events
    /// for an initialization write, which is external to every thread).
    pub(crate) fn thread_rows(&self) -> [u64; MAX_EVENTS] {
        let mut rows = [0u64; MAX_EVENTS];
        for_each_group(self.len(), |e| self.events[e].tid, &mut rows);
        rows
    }
}

/// Pairs of distinct events whose locations in `loc` are resolved and
/// equal.
pub(crate) fn same_loc(loc: &[Option<Loc>]) -> Relation {
    let mut rows = [0u64; MAX_EVENTS];
    for_each_group(loc.len(), |e| loc[e], &mut rows);
    for (e, row) in rows.iter_mut().enumerate() {
        *row &= !(1 << e);
    }
    from_rows(&rows, loc.len())
}

/// The relation over `n` events whose successor masks are `rows[..n]`.
pub(crate) fn from_rows(rows: &[u64; MAX_EVENTS], n: usize) -> Relation {
    let mut r = Relation::empty(n);
    r.copy_row_words_from(&rows[..n]);
    r
}

/// Sets `rows[e]` to the events whose key equals `e`'s (`e` included),
/// leaving it empty where `e`'s key is `None`: each group's mask is
/// gathered once, at its first member, and handed to every member.
fn for_each_group<K: PartialEq>(
    n: usize,
    key: impl Fn(usize) -> Option<K>,
    rows: &mut [u64; MAX_EVENTS],
) {
    for e in 0..n {
        let Some(k) = key(e) else { continue };
        if rows[e] != 0 {
            continue; // a member of an earlier event's group
        }
        let members = (e..n)
            .filter(|&f| key(f).as_ref() == Some(&k))
            .fold(0u64, |m, f| m | 1 << f);
        let mut rest = members;
        while rest != 0 {
            rows[rest.trailing_zeros() as usize] = members;
            rest &= rest - 1;
        }
    }
}

/// `r` with each row `a` rewritten to `f(a, row)`.
fn rows_of(r: &Relation, f: impl Fn(usize, u64) -> u64) -> Relation {
    let mut rows = [0u64; MAX_EVENTS];
    for (a, (out, &row)) in rows.iter_mut().zip(r.row_words()).enumerate() {
        *out = f(a, row);
    }
    from_rows(&rows, r.universe())
}

impl<A: std::fmt::Display> Execution<A> {
    /// A one-line human-readable description of event `e`, e.g.
    /// `"e3 T1 R x=1 [acq]"`.
    #[must_use]
    pub fn describe_event(&self, e: usize) -> String {
        let ev = &self.events[e];
        let tid = match ev.tid {
            Some(t) => format!("T{t}"),
            None => "init".to_string(),
        };
        let kind = match ev.kind {
            EventKind::Read => "R",
            EventKind::Write => "W",
            EventKind::Fence => "F",
        };
        let locval = match (self.loc[e], self.val[e]) {
            (Some(l), Some(v)) => format!(" {l}={v}"),
            (Some(l), None) => format!(" {l}"),
            _ => String::new(),
        };
        let ann = match &ev.ann {
            Some(a) => format!(" [{a}]"),
            None => String::new(),
        };
        format!("e{e} {tid} {kind}{locval}{ann}")
    }

    /// Renders the execution as a Graphviz DOT graph in the spirit of the
    /// Check tools' µhb graphs: events clustered per thread, with
    /// program-order, reads-from, coherence and from-reads edges.
    ///
    /// Extra derived relations (e.g. a model's `hb` or `prop`) can be
    /// overlaid via `extra_edges`, each drawn in its own colour.
    ///
    /// # Examples
    ///
    /// ```
    /// use tricheck_litmus::{enumerate_executions, suite, MemOrder};
    ///
    /// let test = suite::mp([MemOrder::Rlx; 4]);
    /// let mut dot = String::new();
    /// enumerate_executions(test.program(), &mut |exec| {
    ///     dot = exec.to_dot("mp", &[]);
    ///     false // first candidate suffices
    /// });
    /// assert!(dot.starts_with("digraph"));
    /// assert!(dot.contains("rf"));
    /// ```
    #[must_use]
    pub fn to_dot(&self, title: &str, extra_edges: &[(&str, &str, &Relation)]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{title}\" {{");
        let _ = writeln!(out, "  rankdir=TB; node [shape=box, fontsize=10];");

        // Init events and one cluster per thread.
        for e in self.inits.iter() {
            let _ = writeln!(
                out,
                "  n{e} [label=\"{}\", style=dashed];",
                self.describe_event(e)
            );
        }
        let mut tids: Vec<usize> = self.events.iter().filter_map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for t in tids {
            let _ = writeln!(out, "  subgraph cluster_t{t} {{");
            let _ = writeln!(out, "    label=\"T{t}\";");
            for ev in self.events.iter().filter(|ev| ev.tid == Some(t)) {
                let _ = writeln!(
                    out,
                    "    n{} [label=\"{}\"];",
                    ev.id,
                    self.describe_event(ev.id)
                );
            }
            let _ = writeln!(out, "  }}");
        }

        // Immediate program order within each thread (transitive
        // reduction keeps graphs readable).
        for ev in &self.events {
            let Some(t) = ev.tid else { continue };
            if let Some(next) = self
                .events
                .iter()
                .filter(|n| n.tid == Some(t) && n.po_index > ev.po_index)
                .min_by_key(|n| n.po_index)
            {
                let _ = writeln!(
                    out,
                    "  n{} -> n{} [color=gray, label=\"po\"];",
                    ev.id, next.id
                );
            }
        }
        let edge_set = |name: &str, color: &str, rel: &Relation, buf: &mut String| {
            for (a, b) in rel.pairs() {
                let _ = writeln!(
                    buf,
                    "  n{a} -> n{b} [color={color}, label=\"{name}\", fontcolor={color}];"
                );
            }
        };
        edge_set("rf", "red", &self.rf, &mut out);
        edge_set("co", "blue", &self.co, &mut out);
        edge_set("fr", "darkgreen", &self.fr(), &mut out);
        for (name, color, rel) in extra_edges {
            edge_set(name, color, rel, &mut out);
        }
        out.push_str("}\n");
        out
    }
}
