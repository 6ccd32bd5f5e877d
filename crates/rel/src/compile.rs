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
//! - **Fusing models** — [`CompiledModel::fuse`] lowers several models
//!   (up to 64) through one CSE table, so the operations they share —
//!   every base fetch, `com`, the fence sets, common `ppo`/`hb` terms —
//!   form one prelude and one body. A sweep fuses its stacks' distinct
//!   µarch models once and judges each candidate under the models of
//!   every mapping that emitted the program in one pass
//!   ([`Judge::check_mask`], with those models' bits as the live mask).
//!
//! Each axiom carries its model's bit and the list of body operations
//! its relation needs. One evaluation loop serves every check: it walks
//! the axioms in declaration order, skips those of models already
//! decided (outside the live mask, or failed on this candidate), and
//! evaluates on demand only the operations a tested axiom needs.
//! [`CompiledModel::check`] — the width-1 case — reports the first
//! violated axiom in declaration order, exactly as a direct reading of
//! the model would; the test-only naive interpreter
//! (`tricheck_oracle::interpret`) pins that, and the fused masks, on
//! random IRs.

use std::collections::HashMap;

use crate::ir::{AxiomKind, BaseRelations, ModelIr, RelExpr, SetExpr};
use crate::{close_rows, mask, EventSet, Relation};

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

/// A computed bitset value slot: an operation producing a relation
/// writes `rel`, one producing a set writes `set`. Which one an
/// operation produces is fixed at compile time, so the reader knows
/// which field holds the value, and a slot reused across operations of
/// either kind never changes shape.
#[derive(Clone, Debug, Default)]
struct Value {
    rel: Relation,
    set: EventSet,
}

/// The space-invariant values of one compiled kernel over one program:
/// every operation reachable only from invariant bases, evaluated once.
/// Obtained from [`CompiledModel::prelude`] and shared across every
/// candidate of that program the caller judges.
#[derive(Clone, Debug, Default)]
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
/// Judging a candidate fills one value slot per body operation it
/// needs. Every slot holds an inline [`Relation`] (or an [`EventSet`]),
/// so once the slot vector has grown to the largest kernel it serves,
/// judging allocates nothing: a base fetch copies the binding's lent
/// rows into its slot, and every other operation writes its result
/// rows in place. A scratch carries no kernel or universe identity:
/// every operation overwrites its whole slot, resizing the slot's rows
/// when the universe changes, so one scratch can serve any sequence of
/// kernels and programs.
#[derive(Default, Debug)]
pub struct EvalScratch {
    body: Vec<Value>,
    /// One bit per body slot: evaluated for the current candidate.
    done: Vec<u64>,
}

impl EvalScratch {
    /// Readies `len` body slots for a new candidate: none evaluated.
    fn begin(&mut self, len: usize) {
        if self.body.len() < len {
            self.body.resize_with(len, Value::default);
        }
        self.done.clear();
        self.done.resize(len.div_ceil(64), 0);
    }
}

/// One stream of candidates of one program through one compiled
/// kernel: the kernel's space-invariant [`Prelude`], evaluated on the
/// stream's first candidate, and one [`EvalScratch`], reused by every
/// candidate after it.
///
/// Every judging loop is a `Judge`: a model's witness search and
/// outcome-set scan over a shared space or a streaming enumeration, a
/// sweep's fused judgement of one program under all of its mapping's
/// models, and `diagnose`'s per-axiom explanation. A stream is bound to
/// one program — every candidate it checks must come from the program
/// its first one did, since the prelude is replayed for all of them.
/// [`Judge::restart`] begins the next stream, over any kernel, keeping
/// the prelude's and the scratch's buffers.
#[derive(Debug)]
pub struct Judge<'k> {
    kernel: &'k CompiledModel,
    /// Whether `prelude` holds this stream's values yet.
    primed: bool,
    prelude: Prelude,
    scratch: EvalScratch,
}

impl<'k> Judge<'k> {
    /// A judge over `kernel` that has seen no candidate yet.
    #[must_use]
    pub fn new(kernel: &'k CompiledModel) -> Self {
        Judge {
            kernel,
            primed: false,
            prelude: Prelude::default(),
            scratch: EvalScratch::default(),
        }
    }

    /// Ends the current stream and begins a new one over `kernel`: the
    /// next candidate evaluates a fresh prelude. The evaluation buffers
    /// are kept.
    pub fn restart(&mut self, kernel: &'k CompiledModel) {
        self.kernel = kernel;
        self.primed = false;
    }

    /// Checks every axiom against the stream's next candidate, as
    /// [`CompiledModel::check_with_scratch`] does; the first call
    /// evaluates the prelude from this candidate's binding.
    ///
    /// # Errors
    ///
    /// The name of the first violated axiom, in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if the candidate's universe differs from the first
    /// candidate's, or if the model references a base the binding does
    /// not provide.
    pub fn check<B: BaseRelations>(&mut self, binding: &B) -> Result<(), &'static str> {
        self.prime(binding);
        self.kernel
            .check_with_scratch(&self.prelude, binding, &mut self.scratch)
    }

    /// Judges the stream's next candidate under the models in `live`
    /// (bit `j` is the `j`-th model the kernel fused) and returns the
    /// subset that finds it consistent. The axioms of a model outside
    /// `live`, and those of a model after its first violated axiom, are
    /// skipped, and so is every operation only they need.
    ///
    /// # Panics
    ///
    /// As [`Judge::check`].
    pub fn check_mask<B: BaseRelations>(&mut self, binding: &B, live: u64) -> u64 {
        self.prime(binding);
        self.kernel
            .judge_axioms(&self.prelude, binding, &mut self.scratch, live, false)
            .0
    }

    fn prime<B: BaseRelations>(&mut self, binding: &B) {
        if !self.primed {
            self.kernel.prelude_into(binding, &mut self.prelude);
            self.primed = true;
        }
    }
}

/// One axiom of the compiled program: its model, the location of its
/// relation, and the body operations that relation needs.
#[derive(Clone, Debug)]
struct CompiledAxiom {
    name: &'static str,
    kind: AxiomKind,
    /// The declaring model's bit.
    model: u64,
    rel: Loc,
    /// Every body slot the relation transitively reads, ascending —
    /// which is an evaluation order, since operands take lower slots
    /// than their users.
    needs: Vec<u32>,
}

/// One or more [`ModelIr`]s lowered to a flat program of fused bitset
/// kernels — see the [module docs](self) for the compile pipeline.
///
/// Compile once (per model, or per set of models that judge the same
/// programs), then judge many candidates:
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
    models: usize,
    base_rels: Vec<&'static str>,
    base_sets: Vec<&'static str>,
    prelude_ops: Vec<Op<Loc>>,
    body_ops: Vec<Op<Loc>>,
    axioms: Vec<CompiledAxiom>,
}

impl CompiledModel {
    /// Lowers one model into a compiled kernel program: the width-1
    /// case of [`CompiledModel::fuse`].
    ///
    /// # Panics
    ///
    /// As [`CompiledModel::fuse`].
    #[must_use]
    pub fn compile(ir: &ModelIr, space_invariant_bases: &[&str]) -> CompiledModel {
        Self::fuse(&[ir], space_invariant_bases)
    }

    /// Lowers up to 64 models into one kernel program with one CSE
    /// table: an operation the models share — a base fetch, `com`, a
    /// fence set, a common `ppo` term — is scheduled, and evaluated per
    /// candidate, once. Each model's definitions resolve within that
    /// model, so equal names in two models may define different
    /// relations. Model `j`'s axioms carry bit `j` of the mask
    /// [`Judge::check_mask`] takes and returns; [`CompiledModel::check`]
    /// requires every axiom of every model, in model then declaration
    /// order.
    ///
    /// `space_invariant_bases` names the base relations and sets whose
    /// value depends only on the *program* (not on the candidate
    /// `rf`/`co` assignment); everything derivable from them alone is
    /// hoisted into the prelude. Passing an empty list is always sound
    /// — the whole model is then evaluated per candidate.
    ///
    /// # Panics
    ///
    /// Panics if `irs` is empty or holds more than 64 models, or if a
    /// model references an undefined definition name or contains a
    /// definition cycle (model bugs, surfaced at compile time instead
    /// of per evaluation). Unknown *base* names still panic at
    /// evaluation time, because which bases exist is the binding's
    /// contract.
    #[must_use]
    pub fn fuse(irs: &[&ModelIr], space_invariant_bases: &[&str]) -> CompiledModel {
        assert!(
            (1..=64).contains(&irs.len()),
            "a kernel fuses 1 to 64 models, not {}",
            irs.len()
        );
        let _t = tricheck_trace::span(tricheck_trace::Phase::KernelCompile);
        let mut lowerer = Lowerer {
            defs: &[],
            invariant: space_invariant_bases,
            nodes: Vec::new(),
            node_invariant: Vec::new(),
            cse: HashMap::new(),
            base_rels: Vec::new(),
            base_sets: Vec::new(),
            def_nodes: Vec::new(),
            resolving: Vec::new(),
        };
        let mut roots: Vec<(usize, &'static str, AxiomKind, u64)> = Vec::new();
        for (j, ir) in irs.iter().enumerate() {
            lowerer.defs = ir.defs();
            lowerer.def_nodes.clear();
            for axiom in ir.axioms() {
                let root = lowerer.lower_rel(&axiom.rel);
                roots.push((root, axiom.name, axiom.kind, 1 << j));
            }
        }
        let nodes = &lowerer.nodes;

        // Reachability in one backward pass: the arena is topological
        // (operands precede users), so a node is final when visited.
        let mut reached = vec![false; nodes.len()];
        for &(root, ..) in &roots {
            reached[root] = true;
        }
        for i in (0..nodes.len()).rev() {
            if reached[i] {
                nodes[i].for_each_operand(|child| reached[child] = true);
            }
        }

        // Schedule in arena order: reachable invariant nodes form the
        // prelude, the other reachable nodes the per-candidate body.
        let mut locs: Vec<Option<Loc>> = vec![None; nodes.len()];
        let (mut prelude_ops, mut body_ops) = (Vec::new(), Vec::new());
        for i in (0..nodes.len()).filter(|&i| reached[i]) {
            let (ops, loc): (&mut Vec<usize>, fn(u32) -> Loc) = if lowerer.node_invariant[i] {
                (&mut prelude_ops, Loc::Prelude)
            } else {
                (&mut body_ops, Loc::Body)
            };
            locs[i] = Some(loc(u32::try_from(ops.len()).expect("schedule fits u32")));
            ops.push(i);
        }
        let loc_of = |id: usize| locs[id].expect("every scheduled operand has a location");

        // Each node's body cone — the body slots it transitively reads,
        // itself included — as a bitset row, in one forward pass.
        let words = body_ops.len().div_ceil(64);
        let mut cones = vec![0u64; nodes.len() * words];
        for i in (0..nodes.len()).filter(|&i| reached[i] && !lowerer.node_invariant[i]) {
            let (earlier, rest) = cones.split_at_mut(i * words);
            let row = &mut rest[..words];
            nodes[i].for_each_operand(|child| {
                for (word, bits) in row.iter_mut().zip(&earlier[child * words..][..words]) {
                    *word |= bits;
                }
            });
            let Loc::Body(slot) = loc_of(i) else {
                unreachable!("a candidate-dependent node is scheduled in the body")
            };
            row[slot as usize / 64] |= 1 << (slot % 64);
        }

        let axioms = roots
            .iter()
            .map(|&(root, name, kind, model)| CompiledAxiom {
                name,
                kind,
                model,
                rel: loc_of(root),
                needs: bit_indices(&cones[root * words..][..words]),
            })
            .collect();
        CompiledModel {
            name: irs.iter().map(|ir| ir.name()).collect::<Vec<_>>().join("+"),
            models: irs.len(),
            base_rels: lowerer.base_rels,
            base_sets: lowerer.base_sets,
            prelude_ops: prelude_ops.iter().map(|&i| nodes[i].map(loc_of)).collect(),
            body_ops: body_ops.iter().map(|&i| nodes[i].map(loc_of)).collect(),
            axioms,
        }
    }

    /// The source model's display name; a fused kernel joins its
    /// models' names with `+`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
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
        let mut prelude = Prelude::default();
        self.prelude_into(binding, &mut prelude);
        prelude
    }

    /// [`CompiledModel::prelude`] into a caller-owned prelude, reusing
    /// its slots' storage.
    fn prelude_into<B: BaseRelations>(&self, binding: &B, prelude: &mut Prelude) {
        let _t = tricheck_trace::span(tricheck_trace::Phase::PreludeEval);
        let n = binding.universe();
        prelude.n = n;
        let values = &mut prelude.values;
        if values.len() < self.prelude_ops.len() {
            values.resize_with(self.prelude_ops.len(), Value::default);
        }
        for (i, op) in self.prelude_ops.iter().enumerate() {
            let (done, rest) = values.split_at_mut(i);
            self.eval_into(op, n, binding, done, &[], &mut rest[0]);
        }
    }

    /// Checks every axiom against one candidate execution, reusing a
    /// prelude computed by [`CompiledModel::prelude`] over the same
    /// program and caller-owned evaluation buffers: pass the same
    /// [`EvalScratch`] for every candidate and each intermediate
    /// value's allocation is reused instead of recreated. Stops at the
    /// first violated axiom without evaluating operations only later
    /// axioms need.
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
        match self.judge_axioms(prelude, binding, scratch, mask(self.models), true) {
            (_, Some(violated)) => Err(violated),
            (_, None) => Ok(()),
        }
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

    /// The one evaluation loop. Tests, in declaration order, the axioms
    /// of the models in `live` that no earlier axiom has failed,
    /// evaluating on demand each body operation an axiom needs that
    /// this candidate has not evaluated yet. Returns the models in
    /// `live` whose axioms all hold and, with `first_only`, stops at
    /// (and names) the first violated axiom.
    fn judge_axioms<B: BaseRelations>(
        &self,
        prelude: &Prelude,
        binding: &B,
        scratch: &mut EvalScratch,
        live: u64,
        first_only: bool,
    ) -> (u64, Option<&'static str>) {
        let _t = tricheck_trace::span(tricheck_trace::Phase::CandidateCheck);
        let n = binding.universe();
        assert_eq!(
            prelude.n, n,
            "prelude evaluated over a different event universe"
        );
        scratch.begin(self.body_ops.len());
        let mut holding = live;
        for axiom in &self.axioms {
            if holding & axiom.model == 0 {
                continue;
            }
            for &slot in &axiom.needs {
                let (word, bit) = (slot as usize / 64, 1 << (slot % 64));
                if scratch.done[word] & bit != 0 {
                    continue;
                }
                let (done, rest) = scratch.body.split_at_mut(slot as usize);
                self.eval_into(
                    &self.body_ops[slot as usize],
                    n,
                    binding,
                    &prelude.values,
                    done,
                    &mut rest[0],
                );
                scratch.done[word] |= bit;
            }
            let rel = &fetch(axiom.rel, &prelude.values, &scratch.body).rel;
            let holds = match axiom.kind {
                AxiomKind::Acyclic => rel.is_acyclic(),
                AxiomKind::Irreflexive => rel.is_irreflexive(),
                AxiomKind::Empty => rel.is_empty(),
            };
            if !holds {
                holding &= !axiom.model;
                if first_only {
                    return (holding, Some(axiom.name));
                }
                if holding == 0 {
                    break;
                }
            }
        }
        (holding, None)
    }

    /// Executes one operation into a caller-owned slot. Fused n-ary
    /// kernels make a single pass over the operand rows; everything
    /// else maps 1:1 onto the [`Relation`] algebra — but written
    /// in place, so a slot that already holds a relation (a reused
    /// [`EvalScratch`] or [`Prelude`]) costs no allocation beyond
    /// growing its rows to a larger universe. Every row of the output is
    /// overwritten unconditionally; stale slot contents never leak
    /// through.
    fn eval_into<B: BaseRelations>(
        &self,
        op: &Op<Loc>,
        n: usize,
        binding: &B,
        prelude: &[Value],
        body: &[Value],
        slot: &mut Value,
    ) {
        let rel = |loc: Loc| &fetch(loc, prelude, body).rel;
        let set = |loc: Loc| fetch(loc, prelude, body).set;
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
                rel_rows(slot, n).copy_from_slice(value.row_words());
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
                slot.set = value;
            }
            Op::EmptyRel => rel_rows(slot, n).fill(0),
            Op::IdRel => {
                for (i, row) in rel_rows(slot, n).iter_mut().enumerate() {
                    *row = 1 << i;
                }
            }
            Op::UniverseSet => slot.set = EventSet::full(n),
            Op::EmptySet => slot.set = EventSet::empty(n),
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
                rows.copy_from_slice(rel(operands[0]).row_words());
                for &operand in &operands[1..] {
                    for (out, row) in rows.iter_mut().zip(rel(operand).row_words()) {
                        *out |= row;
                    }
                }
            }
            Op::InterRel(operands) => {
                let rows = rel_rows(slot, n);
                rows.copy_from_slice(rel(operands[0]).row_words());
                for &operand in &operands[1..] {
                    for (out, row) in rows.iter_mut().zip(rel(operand).row_words()) {
                        *out &= row;
                    }
                }
            }
            Op::MinusRel(base, subtrahends) => {
                let rows = rel_rows(slot, n);
                rows.copy_from_slice(rel(*base).row_words());
                for &operand in subtrahends {
                    for (out, row) in rows.iter_mut().zip(rel(operand).row_words()) {
                        *out &= !row;
                    }
                }
            }
            Op::SeqRel(a, b) => {
                let (a, b) = (rel(*a), rel(*b));
                for (out, &mids) in rel_rows(slot, n).iter_mut().zip(a.row_words()) {
                    let mut row = 0u64;
                    let mut mids = mids;
                    while mids != 0 {
                        let m = mids.trailing_zeros() as usize;
                        mids &= mids - 1;
                        row |= b.row_words()[m];
                    }
                    *out = row;
                }
            }
            Op::InverseRel(a) => {
                let source = rel(*a);
                let rows = rel_rows(slot, n);
                rows.fill(0);
                for (i, &row) in source.row_words().iter().enumerate() {
                    let mut bits = row;
                    while bits != 0 {
                        let j = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        rows[j] |= 1 << i;
                    }
                }
            }
            Op::PlusRel(a) => {
                let source = rel(*a);
                let rows = rel_rows(slot, n);
                rows.copy_from_slice(source.row_words());
                close_rows(rows);
            }
            Op::OptRel(a) => {
                let source = rel(*a);
                for (i, (out, &row)) in rel_rows(slot, n)
                    .iter_mut()
                    .zip(source.row_words())
                    .enumerate()
                {
                    *out = row | (1 << i);
                }
            }
            Op::RestrictRel(a, dom, rng) => {
                let (dom_bits, rng_bits) = (set(*dom).bits(), set(*rng).bits());
                let source = rel(*a);
                for (i, (out, &row)) in rel_rows(slot, n)
                    .iter_mut()
                    .zip(source.row_words())
                    .enumerate()
                {
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
                slot.set = EventSet { n, bits };
            }
            Op::InterSet(operands) => {
                let mut bits = mask(n);
                for &operand in operands {
                    bits &= set(operand).bits();
                }
                slot.set = EventSet { n, bits };
            }
            Op::MinusSet(base, subtrahends) => {
                let mut bits = set(*base).bits();
                for &operand in subtrahends {
                    bits &= !set(operand).bits();
                }
                slot.set = EventSet { n, bits };
            }
        }
    }
}

/// The slot's relation rows over a universe of `n`, for the caller to
/// overwrite in full: the slot's inline relation, resized in place.
fn rel_rows(slot: &mut Value, n: usize) -> &mut [u64] {
    slot.rel.resize_rows(n)
}

/// The indices of the set bits of a bitset row, ascending.
fn bit_indices(row: &[u64]) -> Vec<u32> {
    let mut out = Vec::new();
    for (w, &word) in row.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            out.push(u32::try_from(w * 64).expect("schedule fits u32") + bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
    out
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
