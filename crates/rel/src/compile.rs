//! A one-time compiler from [`ModelIr`] to flat bitset kernels.
//!
//! [`CompiledModel`] is the one evaluator of a model. Rather than walk
//! the expression tree per candidate execution (name probes, allocation
//! per operator node, re-walking shared subtrees), it lowers a model
//! **once** into an SSA-style program of bitset operations over `u64`
//! words:
//!
//! - **Interning** — every base-relation, base-set, and definition name
//!   is resolved to a dense index at compile time. Judging a candidate
//!   performs exactly one `binding.rel`/`binding.set` query per distinct
//!   base the model actually reaches, and zero string probes elsewhere.
//! - **Common-subexpression elimination** — lowering hash-conses every
//!   operation, so a subterm shared between definitions (or repeated in
//!   axioms) is computed exactly once per evaluation. `a*` lowers to
//!   `(a⁺)?`, so a model using both closures shares the expensive one.
//! - **Fusion** — associative chains `a ∪ b ∪ c …`, `a ∩ b ∩ c …` and
//!   difference chains `a \ b \ c …` are flattened into single n-ary
//!   kernels that make one pass over the relation words (`|=`, `&=`,
//!   `&= !` per row) instead of allocating one intermediate relation
//!   per binary node. Restriction and cross products are single masked
//!   passes as well.
//! - **Hoisting** — the caller names which bases are *space-invariant*
//!   (derived from the program, not from the candidate `rf`/`co`: `po`,
//!   dependency edges, fence edge sets, annotation/AMO event sets, …).
//!   Every operation whose inputs are transitively invariant moves into
//!   a **prelude** that is evaluated once per stream of candidates of
//!   one program: a [`Judge`] computes the [`Prelude`] on the stream's
//!   first candidate and replays it for every candidate after it, so
//!   per-candidate work touches only the truly candidate-dependent
//!   suffix of the dataflow graph.
//!
//! The per-candidate body is scheduled in axiom order: checking stops at
//! the first violated axiom having evaluated only the operations that
//! axiom (and earlier ones) can reach. [`CompiledModel::check`] reports
//! the first violated axiom in declaration order, exactly as a direct
//! reading of the model would; the test-only naive interpreter
//! (`tricheck_oracle::interpret`) pins that on random IRs.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::ir::{AxiomKind, BaseRelations, ModelIr, RelExpr, SetExpr};
use crate::{mask, EventSet, Relation};

/// Monotone source of process-unique kernel identities (see
/// [`CompiledModel::kernel_id`]).
static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(1);

/// Where an operation's result lives at evaluation time: in the
/// per-program [`Prelude`] (space-invariant, computed once) or in the
/// per-candidate body value vector.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Loc {
    Prelude(u32),
    Body(u32),
}

/// One SSA operation over bitset values. `T` is the operand reference
/// type: an arena node id during lowering (hash-consed for CSE), a
/// [`Loc`] in the final scheduled program.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Op<T> {
    /// Fetch an interned base relation from the binding.
    BaseRel(u16),
    /// Fetch an interned base set from the binding.
    BaseSet(u16),
    EmptyRel,
    IdRel,
    UniverseSet,
    EmptySet,
    /// `dom × rng` over two set operands.
    CrossRel(T, T),
    /// Fused n-ary union: one `|=` pass over all operand rows.
    UnionRel(Vec<T>),
    /// Fused n-ary intersection: one `&=` pass.
    InterRel(Vec<T>),
    /// Fused difference chain `a \ (b ∪ c ∪ …)`: one `&= !` pass.
    MinusRel(T, Vec<T>),
    SeqRel(T, T),
    InverseRel(T),
    PlusRel(T),
    /// Reflexive closure; `a*` lowers to `OptRel(PlusRel(a))`.
    OptRel(T),
    /// `[dom] rel [rng]` as a single masked pass.
    RestrictRel(T, T, T),
    UnionSet(Vec<T>),
    InterSet(Vec<T>),
    MinusSet(T, Vec<T>),
}

impl<T: Copy> Op<T> {
    fn map<U>(&self, mut f: impl FnMut(T) -> U) -> Op<U> {
        match self {
            Op::BaseRel(i) => Op::BaseRel(*i),
            Op::BaseSet(i) => Op::BaseSet(*i),
            Op::EmptyRel => Op::EmptyRel,
            Op::IdRel => Op::IdRel,
            Op::UniverseSet => Op::UniverseSet,
            Op::EmptySet => Op::EmptySet,
            Op::CrossRel(a, b) => Op::CrossRel(f(*a), f(*b)),
            Op::UnionRel(v) => Op::UnionRel(v.iter().map(|&x| f(x)).collect()),
            Op::InterRel(v) => Op::InterRel(v.iter().map(|&x| f(x)).collect()),
            Op::MinusRel(a, v) => Op::MinusRel(f(*a), v.iter().map(|&x| f(x)).collect()),
            Op::SeqRel(a, b) => Op::SeqRel(f(*a), f(*b)),
            Op::InverseRel(a) => Op::InverseRel(f(*a)),
            Op::PlusRel(a) => Op::PlusRel(f(*a)),
            Op::OptRel(a) => Op::OptRel(f(*a)),
            Op::RestrictRel(a, d, r) => Op::RestrictRel(f(*a), f(*d), f(*r)),
            Op::UnionSet(v) => Op::UnionSet(v.iter().map(|&x| f(x)).collect()),
            Op::InterSet(v) => Op::InterSet(v.iter().map(|&x| f(x)).collect()),
            Op::MinusSet(a, v) => Op::MinusSet(f(*a), v.iter().map(|&x| f(x)).collect()),
        }
    }

    fn for_each_operand(&self, mut f: impl FnMut(T)) {
        match self {
            Op::BaseRel(_)
            | Op::BaseSet(_)
            | Op::EmptyRel
            | Op::IdRel
            | Op::UniverseSet
            | Op::EmptySet => {}
            Op::CrossRel(a, b) | Op::SeqRel(a, b) => {
                f(*a);
                f(*b);
            }
            Op::UnionRel(v) | Op::InterRel(v) | Op::UnionSet(v) | Op::InterSet(v) => {
                for &x in v {
                    f(x);
                }
            }
            Op::MinusRel(a, v) | Op::MinusSet(a, v) => {
                f(*a);
                for &x in v {
                    f(x);
                }
            }
            Op::InverseRel(a) | Op::PlusRel(a) | Op::OptRel(a) => f(*a),
            Op::RestrictRel(a, d, r) => {
                f(*a);
                f(*d);
                f(*r);
            }
        }
    }
}

/// A computed bitset value: a relation or an event set. Which one an
/// operation produces is fixed at compile time, so evaluation never
/// checks the tag on a hot path that matters.
#[derive(Clone, Debug)]
enum Value {
    Rel(Relation),
    Set(EventSet),
}

impl Value {
    fn as_rel(&self) -> &Relation {
        match self {
            Value::Rel(r) => r,
            Value::Set(_) => unreachable!("compiler scheduled a set where a relation is needed"),
        }
    }

    fn as_set(&self) -> EventSet {
        match self {
            Value::Set(s) => *s,
            Value::Rel(_) => unreachable!("compiler scheduled a relation where a set is needed"),
        }
    }
}

/// The space-invariant values of one compiled model over one program:
/// every operation reachable only from invariant bases, evaluated once.
/// Obtained from [`CompiledModel::prelude`] and shared across every
/// candidate of that program the caller judges.
#[derive(Clone, Debug)]
pub struct Prelude {
    n: usize,
    values: Vec<Value>,
}

impl Prelude {
    /// The event-universe size this prelude was evaluated over.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.n
    }
}

/// Reusable per-candidate evaluation buffers.
///
/// Judging a candidate fills one value slot per body operation; with a
/// scratch those slots (and every intermediate relation's row storage)
/// are reused across candidates instead of being reallocated per
/// judgement — the difference between the compiled path beating the
/// hand-written checkers and merely matching them. A scratch is bound
/// to whichever kernel and universe size last used it and resets itself
/// transparently when either changes, so one long-lived scratch per
/// query loop is always correct.
#[derive(Default, Debug)]
pub struct EvalScratch {
    kernel: u64,
    n: usize,
    body: Vec<Value>,
}

/// One stream of candidates of one program through one compiled
/// kernel: the kernel's space-invariant [`Prelude`], evaluated on the
/// stream's first candidate, and one [`EvalScratch`], reused by every
/// candidate after it.
///
/// Every judging loop is a `Judge`: a model's witness search and
/// outcome-set scan over a shared space or a streaming enumeration, and
/// `diagnose`'s per-axiom explanation. A judge is bound to one program —
/// every candidate it checks must come from the program its first one
/// did, since the prelude is replayed for all of them.
#[derive(Debug)]
pub struct Judge<'k> {
    kernel: &'k CompiledModel,
    prelude: Option<Prelude>,
    scratch: EvalScratch,
}

impl<'k> Judge<'k> {
    /// A judge over `kernel` that has seen no candidate yet.
    #[must_use]
    pub fn new(kernel: &'k CompiledModel) -> Self {
        Judge {
            kernel,
            prelude: None,
            scratch: EvalScratch::default(),
        }
    }

    /// Checks every axiom against the stream's next candidate, as
    /// [`CompiledModel::check_with_scratch`] does; the first call
    /// evaluates the prelude from this candidate's binding.
    ///
    /// # Errors
    ///
    /// The name of the first violated axiom.
    ///
    /// # Panics
    ///
    /// Panics if the candidate's universe differs from the first
    /// candidate's, or if the model references a base the binding does
    /// not provide.
    pub fn check<B: BaseRelations>(&mut self, binding: &B) -> Result<(), &'static str> {
        let prelude = self
            .prelude
            .get_or_insert_with(|| self.kernel.prelude(binding));
        self.kernel
            .check_with_scratch(prelude, binding, &mut self.scratch)
    }
}

/// One axiom of the compiled program: the location of its relation and
/// how much of the body schedule must be evaluated before testing it.
#[derive(Clone, Debug)]
struct CompiledAxiom {
    name: &'static str,
    kind: AxiomKind,
    rel: Loc,
    /// Body operations `[0, body_cutoff)` are exactly those first needed
    /// by this axiom or an earlier one.
    body_cutoff: usize,
}

/// A [`ModelIr`] lowered to a flat program of fused bitset kernels —
/// see the [module docs](self) for the compile pipeline.
///
/// Compile once (per model), then judge many candidates:
///
/// - a [`Judge`] streams the candidates of one program through the
///   kernel: one prelude, one [`EvalScratch`];
/// - [`CompiledModel::check`] / [`consistent`](Self::consistent) are
///   the standalone forms (a one-candidate stream) for one-shot
///   callers;
/// - [`CompiledModel::prelude`] and
///   [`check_with_scratch`](Self::check_with_scratch) are the two
///   halves a [`Judge`] is made of, for callers that time them apart.
#[derive(Clone, Debug)]
pub struct CompiledModel {
    name: String,
    kernel_id: u64,
    base_rels: Vec<&'static str>,
    base_sets: Vec<&'static str>,
    prelude_ops: Vec<Op<Loc>>,
    body_ops: Vec<Op<Loc>>,
    axioms: Vec<CompiledAxiom>,
}

impl CompiledModel {
    /// Lowers a model into a compiled kernel program.
    ///
    /// `space_invariant_bases` names the base relations and sets whose
    /// value depends only on the *program* (not on the candidate
    /// `rf`/`co` assignment); everything derivable from them alone is
    /// hoisted into the prelude. Passing an empty list is always sound
    /// — the whole model is then evaluated per candidate.
    ///
    /// # Panics
    ///
    /// Panics if the model references an undefined definition name or
    /// contains a definition cycle (model bugs, surfaced at compile time
    /// instead of per evaluation). Unknown *base* names still panic at
    /// evaluation time, because which bases exist is the binding's
    /// contract.
    #[must_use]
    pub fn compile(ir: &ModelIr, space_invariant_bases: &[&str]) -> CompiledModel {
        let _t = tricheck_trace::span(tricheck_trace::Phase::KernelCompile);
        let mut lowerer = Lowerer {
            defs: ir.defs(),
            invariant: space_invariant_bases,
            nodes: Vec::new(),
            node_invariant: Vec::new(),
            cse: HashMap::new(),
            base_rels: Vec::new(),
            base_sets: Vec::new(),
            def_nodes: Vec::new(),
            resolving: Vec::new(),
        };
        let roots: Vec<(usize, &'static str, AxiomKind)> = ir
            .axioms()
            .iter()
            .map(|axiom| (lowerer.lower_rel(&axiom.rel), axiom.name, axiom.kind))
            .collect();

        // Tag every node with the first axiom that reaches it.
        let mut first_needed: Vec<Option<usize>> = vec![None; lowerer.nodes.len()];
        for (k, &(root, _, _)) in roots.iter().enumerate() {
            let mut stack = vec![root];
            while let Some(node) = stack.pop() {
                if first_needed[node].is_some() {
                    continue;
                }
                first_needed[node] = Some(k);
                lowerer.nodes[node].for_each_operand(|child| stack.push(child));
            }
        }

        // Schedule: invariant nodes in arena (topological) order form
        // the prelude; the rest are stable-sorted by (first axiom, id),
        // which preserves topological order because an operand is first
        // needed no later than its user.
        let prelude_ids: Vec<usize> = (0..lowerer.nodes.len())
            .filter(|&i| first_needed[i].is_some() && lowerer.node_invariant[i])
            .collect();
        let mut body_ids: Vec<usize> = (0..lowerer.nodes.len())
            .filter(|&i| first_needed[i].is_some() && !lowerer.node_invariant[i])
            .collect();
        body_ids.sort_by_key(|&i| first_needed[i]);

        let mut locs: Vec<Option<Loc>> = vec![None; lowerer.nodes.len()];
        for (slot, &id) in prelude_ids.iter().enumerate() {
            locs[id] = Some(Loc::Prelude(u32::try_from(slot).expect("prelude fits u32")));
        }
        for (slot, &id) in body_ids.iter().enumerate() {
            locs[id] = Some(Loc::Body(u32::try_from(slot).expect("body fits u32")));
        }
        let loc_of = |id: usize| locs[id].expect("every scheduled operand has a location");

        let axioms = roots
            .iter()
            .enumerate()
            .map(|(k, &(root, name, kind))| CompiledAxiom {
                name,
                kind,
                rel: loc_of(root),
                body_cutoff: body_ids
                    .iter()
                    .position(|&i| first_needed[i] > Some(k))
                    .unwrap_or(body_ids.len()),
            })
            .collect();

        CompiledModel {
            name: ir.name().to_string(),
            kernel_id: NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed),
            base_rels: lowerer.base_rels,
            base_sets: lowerer.base_sets,
            prelude_ops: prelude_ids
                .iter()
                .map(|&i| lowerer.nodes[i].map(loc_of))
                .collect(),
            body_ops: body_ids
                .iter()
                .map(|&i| lowerer.nodes[i].map(loc_of))
                .collect(),
            axioms,
        }
    }

    /// The source model's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A process-unique identity for this compiled kernel program.
    ///
    /// An [`EvalScratch`] keys on it: two `CompiledModel`s never share
    /// an id, so a scratch reused across kernels resets instead of
    /// replaying another kernel's slot layout.
    #[must_use]
    pub fn kernel_id(&self) -> u64 {
        self.kernel_id
    }

    /// Number of operations hoisted into the space-invariant prelude.
    #[must_use]
    pub fn prelude_op_count(&self) -> usize {
        self.prelude_ops.len()
    }

    /// Number of per-candidate body operations.
    #[must_use]
    pub fn body_op_count(&self) -> usize {
        self.body_ops.len()
    }

    /// Evaluates the space-invariant prelude against one program (as
    /// presented by any candidate's binding — invariant bases agree
    /// across all candidates of a program by definition).
    ///
    /// # Panics
    ///
    /// Panics if the model references a base the binding does not
    /// provide (a model-definition bug).
    #[must_use]
    pub fn prelude<B: BaseRelations>(&self, binding: &B) -> Prelude {
        let _t = tricheck_trace::span(tricheck_trace::Phase::PreludeEval);
        let n = binding.universe();
        let mut values: Vec<Value> = Vec::with_capacity(self.prelude_ops.len());
        for op in &self.prelude_ops {
            let mut value = Value::Set(EventSet::empty(0));
            self.eval_into(op, n, binding, &values, &[], &mut value);
            values.push(value);
        }
        Prelude { n, values }
    }

    /// Checks every axiom against one candidate execution, reusing a
    /// prelude computed by [`CompiledModel::prelude`] over the same
    /// program and caller-owned evaluation buffers: pass the same
    /// [`EvalScratch`] for every candidate of a program and each
    /// intermediate value's allocation is reused instead of recreated.
    /// Stops at the first violated axiom without evaluating operations
    /// only later axioms need.
    ///
    /// # Errors
    ///
    /// The name of the first violated axiom.
    ///
    /// # Panics
    ///
    /// Panics if the prelude was evaluated over a different universe
    /// size, or if the model references a base the binding does not
    /// provide.
    pub fn check_with_scratch<B: BaseRelations>(
        &self,
        prelude: &Prelude,
        binding: &B,
        scratch: &mut EvalScratch,
    ) -> Result<(), &'static str> {
        let _t = tricheck_trace::span(tricheck_trace::Phase::CandidateCheck);
        let n = binding.universe();
        assert_eq!(
            prelude.n, n,
            "prelude evaluated over a different event universe"
        );
        if scratch.kernel != self.kernel_id || scratch.n != n {
            scratch.body.clear();
            scratch.kernel = self.kernel_id;
            scratch.n = n;
        }
        let mut evaluated = 0;
        for axiom in &self.axioms {
            while evaluated < axiom.body_cutoff {
                if scratch.body.len() == evaluated {
                    scratch.body.push(Value::Set(EventSet::empty(0)));
                }
                let (done, rest) = scratch.body.split_at_mut(evaluated);
                self.eval_into(
                    &self.body_ops[evaluated],
                    n,
                    binding,
                    &prelude.values,
                    done,
                    &mut rest[0],
                );
                evaluated += 1;
            }
            let rel = fetch(axiom.rel, &prelude.values, &scratch.body).as_rel();
            let holds = match axiom.kind {
                AxiomKind::Acyclic => rel.is_acyclic(),
                AxiomKind::Irreflexive => rel.is_irreflexive(),
                AxiomKind::Empty => rel.is_empty(),
            };
            if !holds {
                return Err(axiom.name);
            }
        }
        Ok(())
    }

    /// `true` if every axiom holds, reusing a cached prelude and
    /// caller-owned evaluation buffers.
    #[must_use]
    pub fn consistent_with_scratch<B: BaseRelations>(
        &self,
        prelude: &Prelude,
        binding: &B,
        scratch: &mut EvalScratch,
    ) -> bool {
        self.check_with_scratch(prelude, binding, scratch).is_ok()
    }

    /// One-shot check: evaluates the prelude and the body for a single
    /// candidate. Prefer a [`Judge`] when judging many candidates of one
    /// program.
    ///
    /// # Errors
    ///
    /// The name of the first violated axiom.
    pub fn check<B: BaseRelations>(&self, binding: &B) -> Result<(), &'static str> {
        Judge::new(self).check(binding)
    }

    /// `true` if every axiom holds (one-shot form).
    #[must_use]
    pub fn consistent<B: BaseRelations>(&self, binding: &B) -> bool {
        self.check(binding).is_ok()
    }

    /// Executes one operation into a caller-owned slot. Fused n-ary
    /// kernels make a single pass over the operand rows; everything
    /// else maps 1:1 onto the [`Relation`] algebra — but written
    /// in place, so a slot that already holds a right-sized relation
    /// (a reused [`EvalScratch`]) costs zero allocations. Every row of
    /// the output is overwritten unconditionally; stale slot contents
    /// never leak through.
    fn eval_into<B: BaseRelations>(
        &self,
        op: &Op<Loc>,
        n: usize,
        binding: &B,
        prelude: &[Value],
        body: &[Value],
        slot: &mut Value,
    ) {
        let rel = |loc: Loc| fetch(loc, prelude, body).as_rel();
        let set = |loc: Loc| fetch(loc, prelude, body).as_set();
        match op {
            Op::BaseRel(i) => {
                let name = self.base_rels[*i as usize];
                let value = binding
                    .rel(name)
                    .unwrap_or_else(|| panic!("model references unknown base relation '{name}'"));
                assert_eq!(
                    value.universe(),
                    n,
                    "base relation '{name}' has the wrong universe"
                );
                *slot = Value::Rel(value);
            }
            Op::BaseSet(i) => {
                let name = self.base_sets[*i as usize];
                let value = binding
                    .set(name)
                    .unwrap_or_else(|| panic!("model references unknown base set '{name}'"));
                assert_eq!(
                    value.universe(),
                    n,
                    "base set '{name}' has the wrong universe"
                );
                *slot = Value::Set(value);
            }
            Op::EmptyRel => rel_rows(slot, n).fill(0),
            Op::IdRel => {
                for (i, row) in rel_rows(slot, n).iter_mut().enumerate() {
                    *row = 1 << i;
                }
            }
            Op::UniverseSet => *slot = Value::Set(EventSet::full(n)),
            Op::EmptySet => *slot = Value::Set(EventSet::empty(n)),
            Op::CrossRel(dom, rng) => {
                let (dom_bits, rng_bits) = (set(*dom).bits(), set(*rng).bits());
                for (i, row) in rel_rows(slot, n).iter_mut().enumerate() {
                    *row = if dom_bits & (1 << i) != 0 {
                        rng_bits
                    } else {
                        0
                    };
                }
            }
            Op::UnionRel(operands) => {
                let rows = rel_rows(slot, n);
                rows.copy_from_slice(&rel(operands[0]).rows);
                for &operand in &operands[1..] {
                    for (out, row) in rows.iter_mut().zip(&rel(operand).rows) {
                        *out |= row;
                    }
                }
            }
            Op::InterRel(operands) => {
                let rows = rel_rows(slot, n);
                rows.copy_from_slice(&rel(operands[0]).rows);
                for &operand in &operands[1..] {
                    for (out, row) in rows.iter_mut().zip(&rel(operand).rows) {
                        *out &= row;
                    }
                }
            }
            Op::MinusRel(base, subtrahends) => {
                let rows = rel_rows(slot, n);
                rows.copy_from_slice(&rel(*base).rows);
                for &operand in subtrahends {
                    for (out, row) in rows.iter_mut().zip(&rel(operand).rows) {
                        *out &= !row;
                    }
                }
            }
            Op::SeqRel(a, b) => {
                let (a, b) = (rel(*a), rel(*b));
                for (out, &mids) in rel_rows(slot, n).iter_mut().zip(&a.rows) {
                    let mut row = 0u64;
                    let mut mids = mids;
                    while mids != 0 {
                        let m = mids.trailing_zeros() as usize;
                        mids &= mids - 1;
                        row |= b.rows[m];
                    }
                    *out = row;
                }
            }
            Op::InverseRel(a) => {
                let source = rel(*a);
                let rows = rel_rows(slot, n);
                rows.fill(0);
                for (i, &row) in source.rows.iter().enumerate() {
                    let mut bits = row;
                    while bits != 0 {
                        let j = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        rows[j] |= 1 << i;
                    }
                }
            }
            Op::PlusRel(a) => {
                // Word-parallel repeated squaring in place (see
                // [`Relation::transitive_closure`]).
                let rows = {
                    let source = rel(*a);
                    let rows = rel_rows(slot, n);
                    rows.copy_from_slice(&source.rows);
                    rows
                };
                loop {
                    let mut changed = false;
                    for a in 0..n {
                        let mut row = rows[a];
                        let mut mids = row;
                        while mids != 0 {
                            let b = mids.trailing_zeros() as usize;
                            mids &= mids - 1;
                            row |= rows[b];
                        }
                        changed |= row != rows[a];
                        rows[a] = row;
                    }
                    if !changed {
                        break;
                    }
                }
            }
            Op::OptRel(a) => {
                let source = rel(*a);
                for (i, (out, &row)) in rel_rows(slot, n).iter_mut().zip(&source.rows).enumerate() {
                    *out = row | (1 << i);
                }
            }
            Op::RestrictRel(a, dom, rng) => {
                let (dom_bits, rng_bits) = (set(*dom).bits(), set(*rng).bits());
                let source = rel(*a);
                for (i, (out, &row)) in rel_rows(slot, n).iter_mut().zip(&source.rows).enumerate() {
                    *out = if dom_bits & (1 << i) != 0 {
                        row & rng_bits
                    } else {
                        0
                    };
                }
            }
            Op::UnionSet(operands) => {
                let mut bits = 0u64;
                for &operand in operands {
                    bits |= set(operand).bits();
                }
                *slot = Value::Set(EventSet { n, bits });
            }
            Op::InterSet(operands) => {
                let mut bits = mask(n);
                for &operand in operands {
                    bits &= set(operand).bits();
                }
                *slot = Value::Set(EventSet { n, bits });
            }
            Op::MinusSet(base, subtrahends) => {
                let mut bits = set(*base).bits();
                for &operand in subtrahends {
                    bits &= !set(operand).bits();
                }
                *slot = Value::Set(EventSet { n, bits });
            }
        }
    }
}

/// The slot's relation rows, reusing its storage when the slot already
/// holds a relation over the same universe (the steady state of a
/// reused [`EvalScratch`]) and reallocating otherwise.
fn rel_rows(slot: &mut Value, n: usize) -> &mut Vec<u64> {
    if !matches!(slot, Value::Rel(r) if r.n == n && r.rows.len() == n) {
        *slot = Value::Rel(Relation::empty(n));
    }
    match slot {
        Value::Rel(r) => &mut r.rows,
        Value::Set(_) => unreachable!("slot was just made a relation"),
    }
}

fn fetch<'v>(loc: Loc, prelude: &'v [Value], body: &'v [Value]) -> &'v Value {
    match loc {
        Loc::Prelude(i) => &prelude[i as usize],
        Loc::Body(i) => &body[i as usize],
    }
}

/// Lowering state: a hash-consed arena of operations plus name
/// interning tables.
struct Lowerer<'m> {
    defs: &'m [(&'static str, RelExpr)],
    invariant: &'m [&'m str],
    nodes: Vec<Op<usize>>,
    /// Whether each node depends only on space-invariant bases.
    node_invariant: Vec<bool>,
    cse: HashMap<Op<usize>, usize>,
    base_rels: Vec<&'static str>,
    base_sets: Vec<&'static str>,
    /// Definition name → lowered node, resolved on demand.
    def_nodes: Vec<(&'static str, usize)>,
    /// Definitions currently being lowered (cycle detection).
    resolving: Vec<&'static str>,
}

impl Lowerer<'_> {
    /// Hash-consing node constructor: an operation structurally equal to
    /// an existing one returns the existing node.
    fn push(&mut self, op: Op<usize>) -> usize {
        if let Some(&id) = self.cse.get(&op) {
            return id;
        }
        let invariant = self.op_invariant(&op);
        let id = self.nodes.len();
        self.nodes.push(op.clone());
        self.node_invariant.push(invariant);
        self.cse.insert(op, id);
        id
    }

    fn op_invariant(&self, op: &Op<usize>) -> bool {
        match op {
            Op::BaseRel(i) => {
                let name = self.base_rels[*i as usize];
                self.invariant.contains(&name)
            }
            Op::BaseSet(i) => {
                let name = self.base_sets[*i as usize];
                self.invariant.contains(&name)
            }
            // Constants depend only on the universe size, which every
            // candidate of a program shares.
            Op::EmptyRel | Op::IdRel | Op::UniverseSet | Op::EmptySet => true,
            _ => {
                let mut invariant = true;
                op.for_each_operand(|child| invariant &= self.node_invariant[child]);
                invariant
            }
        }
    }

    fn intern(names: &mut Vec<&'static str>, name: &'static str) -> u16 {
        let index = names.iter().position(|&n| n == name).unwrap_or_else(|| {
            names.push(name);
            names.len() - 1
        });
        u16::try_from(index).expect("base name table fits u16")
    }

    fn def_node(&mut self, name: &'static str) -> usize {
        if let Some(&(_, node)) = self.def_nodes.iter().find(|(n, _)| *n == name) {
            return node;
        }
        assert!(
            !self.resolving.contains(&name),
            "model definition '{name}' references itself (cycle: {:?})",
            self.resolving
        );
        let expr = self.defs.iter().find(|(n, _)| *n == name).map_or_else(
            || panic!("model references undefined relation '{name}'"),
            |(_, e)| e,
        );
        self.resolving.push(name);
        let node = self.lower_rel(expr);
        self.resolving.pop();
        self.def_nodes.push((name, node));
        node
    }

    /// Flattens nested unions into one operand list (fusion); operand
    /// node ids are sorted and deduplicated, which both canonicalizes
    /// the operation for CSE and keeps evaluation deterministic.
    fn union_operands(&mut self, expr: &RelExpr, operands: &mut Vec<usize>) {
        if let RelExpr::Union(a, b) = expr {
            self.union_operands(a, operands);
            self.union_operands(b, operands);
        } else {
            let node = self.lower_rel(expr);
            operands.push(node);
        }
    }

    fn inter_operands(&mut self, expr: &RelExpr, operands: &mut Vec<usize>) {
        if let RelExpr::Inter(a, b) = expr {
            self.inter_operands(a, operands);
            self.inter_operands(b, operands);
        } else {
            let node = self.lower_rel(expr);
            operands.push(node);
        }
    }

    fn lower_rel(&mut self, expr: &RelExpr) -> usize {
        match expr {
            RelExpr::Base(name) => {
                let index = Self::intern(&mut self.base_rels, name);
                self.push(Op::BaseRel(index))
            }
            RelExpr::Ref(name) => self.def_node(name),
            RelExpr::Empty => self.push(Op::EmptyRel),
            RelExpr::Id => self.push(Op::IdRel),
            RelExpr::Cross(dom, rng) => {
                let dom = self.lower_set(dom);
                let rng = self.lower_set(rng);
                self.push(Op::CrossRel(dom, rng))
            }
            RelExpr::Union(_, _) => {
                let mut operands = Vec::new();
                self.union_operands(expr, &mut operands);
                operands.sort_unstable();
                operands.dedup();
                if operands.len() == 1 {
                    operands[0]
                } else {
                    self.push(Op::UnionRel(operands))
                }
            }
            RelExpr::Inter(_, _) => {
                let mut operands = Vec::new();
                self.inter_operands(expr, &mut operands);
                operands.sort_unstable();
                operands.dedup();
                if operands.len() == 1 {
                    operands[0]
                } else {
                    self.push(Op::InterRel(operands))
                }
            }
            RelExpr::Minus(_, _) => {
                // (a \ b) \ c ≡ a \ (b ∪ c): peel the left spine into
                // one fused difference chain.
                let mut subtrahends = Vec::new();
                let mut head = expr;
                while let RelExpr::Minus(a, b) = head {
                    subtrahends.push(self.lower_rel(b));
                    head = a;
                }
                let base = self.lower_rel(head);
                subtrahends.sort_unstable();
                subtrahends.dedup();
                self.push(Op::MinusRel(base, subtrahends))
            }
            RelExpr::Seq(a, b) => {
                let a = self.lower_rel(a);
                let b = self.lower_rel(b);
                self.push(Op::SeqRel(a, b))
            }
            RelExpr::Inverse(a) => {
                let a = self.lower_rel(a);
                self.push(Op::InverseRel(a))
            }
            RelExpr::Plus(a) => {
                let a = self.lower_rel(a);
                self.push(Op::PlusRel(a))
            }
            RelExpr::Star(a) => {
                // a* ≡ (a⁺)? — shares the transitive closure with any
                // other use of a⁺.
                let a = self.lower_rel(a);
                let plus = self.push(Op::PlusRel(a));
                self.push(Op::OptRel(plus))
            }
            RelExpr::Opt(a) => {
                let a = self.lower_rel(a);
                self.push(Op::OptRel(a))
            }
            RelExpr::Restrict(a, dom, rng) => {
                let a = self.lower_rel(a);
                let dom = self.lower_set(dom);
                let rng = self.lower_set(rng);
                self.push(Op::RestrictRel(a, dom, rng))
            }
        }
    }

    fn set_union_operands(&mut self, expr: &SetExpr, operands: &mut Vec<usize>) {
        if let SetExpr::Union(a, b) = expr {
            self.set_union_operands(a, operands);
            self.set_union_operands(b, operands);
        } else {
            let node = self.lower_set(expr);
            operands.push(node);
        }
    }

    fn set_inter_operands(&mut self, expr: &SetExpr, operands: &mut Vec<usize>) {
        if let SetExpr::Inter(a, b) = expr {
            self.set_inter_operands(a, operands);
            self.set_inter_operands(b, operands);
        } else {
            let node = self.lower_set(expr);
            operands.push(node);
        }
    }

    fn lower_set(&mut self, expr: &SetExpr) -> usize {
        match expr {
            SetExpr::Base(name) => {
                let index = Self::intern(&mut self.base_sets, name);
                self.push(Op::BaseSet(index))
            }
            SetExpr::Universe => self.push(Op::UniverseSet),
            SetExpr::Empty => self.push(Op::EmptySet),
            SetExpr::Union(_, _) => {
                let mut operands = Vec::new();
                self.set_union_operands(expr, &mut operands);
                operands.sort_unstable();
                operands.dedup();
                if operands.len() == 1 {
                    operands[0]
                } else {
                    self.push(Op::UnionSet(operands))
                }
            }
            SetExpr::Inter(_, _) => {
                let mut operands = Vec::new();
                self.set_inter_operands(expr, &mut operands);
                operands.sort_unstable();
                operands.dedup();
                if operands.len() == 1 {
                    operands[0]
                } else {
                    self.push(Op::InterSet(operands))
                }
            }
            SetExpr::Minus(_, _) => {
                let mut subtrahends = Vec::new();
                let mut head = expr;
                while let SetExpr::Minus(a, b) = head {
                    subtrahends.push(self.lower_set(b));
                    head = a;
                }
                let base = self.lower_set(head);
                subtrahends.sort_unstable();
                subtrahends.dedup();
                self.push(Op::MinusSet(base, subtrahends))
            }
        }
    }
}
