//! Finite binary relation algebra over small event sets.
//!
//! Axiomatic memory models — both language-level models like C11 and
//! hardware-level models in the style of Alglave et al.'s *Herding Cats*
//! framework — are phrased as constraints (acyclicity, irreflexivity,
//! emptiness) over derived binary relations between memory events:
//! program order, reads-from, coherence order, preserved program order,
//! propagation order, and so on.
//!
//! Litmus tests are tiny (a handful of events per thread), so this crate
//! represents a relation over `n ≤ 64` events as `n` rows of one `u64`
//! bitmask each. All the operators the models need — union, intersection,
//! difference, relational composition, inverse, restriction, reflexive and
//! transitive closures, acyclicity — are a few machine instructions per
//! row, which keeps exhaustive enumeration of candidate executions cheap.
//!
//! # The model IR
//!
//! On top of the algebra, the [`ir`] module makes whole models *data*:
//! a [`ModelIr`] is a list of named derived-relation definitions over
//! the operators above plus acyclicity/irreflexivity/emptiness
//! [`Axiom`]s, evaluated against any execution through a pluggable
//! [`BaseRelations`] binding. See [`ir`] for the grammar; as a worked
//! example, this is the complete §7 ARMv7 Cortex-A9-like machine, the
//! built-in model file `models/armv7/A9like.cat` (its header comment
//! aside; also the model's `Display` output, verbatim):
//!
//! ```text
//! model ARMv7-A9like
//!   pipeline-ppo := ((((addr ∪ data) ∪ rmw) ∪ [R]([M]po[M] ∩ same-loc)[W]) ∪ [R]([M]po[M] ∩ same-loc)[R])
//!   aq := [(amo-aq ∩ M)]po[M]
//!   rl := [M]po[(amo-rl ∩ M)]
//!   ppo := ((pipeline-ppo ∪ aq) ∪ rl)
//!   fences := (fence-noncum ∪ fence-cum)
//!   com := ((rf ∪ co) ∪ fr)
//!   hb := ((ppo ∪ fences) ∪ rfe)
//!   hb-star := hb*
//!   hb-plus := hb⁺
//!   local := ((pipeline-ppo ∪ fences) ∪ aq)
//!   prop-base := ((fence-cum ∪ (rfe ; fence-cum)) ; hb-star)
//!   heavy := (((com* ; prop-base*) ; fence-heavy) ; hb-star)
//!   cum := (((prop-base ∩ (W × W)) ∪ heavy) ; hb-star)
//!   sync := ([M]po[(amo-rl ∩ W)] ; [(amo-rl ∩ W)]rfe[U])
//!   scvis := [(amo-sc ∩ W)]rfe[U]
//!   drain := [M]fence-noncum[R]
//!   per-observer := [M](fence-noncum ∪ pipeline-ppo)[W]
//!   strong := ((((cum ∪ sync) ∪ scvis) ∪ local) ∪ drain)⁺
//!   relayed := (((strong? ; per-observer) ; rfe) ; local*)
//!   fre-drain := ((fre ; drain) ; strong?)
//!   prop := ((strong ∪ relayed) ∪ fre-drain)
//!   po-loc-all := (po-loc ∪ ((ppo ∪ fences)⁺ ∩ same-loc))
//!   ScPerLocation: acyclic((po-loc-all ∪ com))
//!   Atomicity: empty((rmw ∩ (fr ; co)))
//!   Causality: acyclic(hb)
//!   Observation: irreflexive((fre ; prop))
//!   Propagation: acyclic((co ∪ prop))
//!   ScAmoOrder: acyclic([(amo-sc ∩ M)]((hb-plus ∪ po) ∪ com)[(amo-sc ∩ M)])
//! ```
//!
//! Base relations (`po`, `rf`, `co`, `fr`, fence edge sets, …) and base
//! sets (`R`, `W`, `M`, AMO ordering-bit sets) come from the binding;
//! everything model-specific is in the definitions above. The C11 model
//! and every other hardware model are phrased the same way.
//!
//! # The model parser
//!
//! The `Display` text above is not just documentation: the [`parse`]
//! module parses exactly that grammar back into a [`ModelIr`], so
//! `parse(display(ir)) == ir` round-trips and a model can live in a
//! `.cat`-style text file instead of Rust source. Entry points:
//!
//! - [`parse::parse_model`] — text → [`ModelIr`], validating every base
//!   name against a caller-supplied [`parse::Vocabulary`] (the names a
//!   [`BaseRelations`] binding provides) and reporting spanned
//!   [`parse::ParseError`]s with "did you mean" suggestions;
//! - [`parse::intern`] — the leak-once string interner that gives
//!   runtime-loaded names the `&'static str` lifetime the IR requires.
//!
//! Hand-written files may use ASCII aliases (`|`, `&`, `^-1`, `^+`) and
//! `#`/`//` comments; see the [`parse`] module docs for the precedence
//! table and a worked example. `tricheck-core`'s registry builds on this
//! to load whole *stack* definition files (mapping table + model text)
//! at runtime — see `models/x86-tso.stack` in the repository root for a
//! complete example, loadable with `tricheck sweep --stack`.
//!
//! # The model compiler
//!
//! A `ModelIr` has one evaluator: the [`compile`] module lowers it once
//! into a [`CompiledModel`] — a flat, SSA-style program of bitset
//! kernels. The compile pipeline interns every base and definition name
//! to a dense index (no per-check string probes), hash-conses the
//! dataflow graph so shared subterms are computed once per evaluation
//! (CSE), fuses `∪`/`∩`/`\` chains into single n-ary passes over the
//! `u64` relation words, and hoists every operation reachable only from
//! *space-invariant* bases (program-derived: `po`, dependencies, fence
//! edges, annotation sets) into a prelude. [`CompiledModel::fuse`]
//! lowers several models into one such kernel with one CSE table, so
//! the terms they share are evaluated once per candidate and
//! [`Judge::check_mask`] returns the set of models that accept it.
//! Every judging loop is a [`Judge`]: one stream of one program's
//! candidates through the kernel, which evaluates the prelude on the
//! stream's first candidate, replays it across the rest, and writes
//! every body operation into a reusable [`EvalScratch`] slot, so the
//! loop allocates nothing per candidate. The scratch carries no kernel
//! identity — every operation overwrites its slot — so
//! [`Judge::restart`] moves one judge, buffers and all, on to the next
//! program or kernel: a sweep keeps one judge per worker. The C11 model
//! and every µarch model judge through it (see `tricheck-litmus`'s
//! `ConsistencyModel`). The compiled path judges a
//! candidate below the cost of the hand-written imperative checkers it
//! is tested against (see `benches/model_eval.rs`), so "models as
//! data" is free at sweep time.
//!
//! # Examples
//!
//! ```
//! use tricheck_rel::{EventSet, Relation};
//!
//! // po = {0→1, 1→2}; its transitive closure gains 0→2.
//! let po = Relation::from_pairs(3, [(0, 1), (1, 2)]);
//! let po_plus = po.transitive_closure();
//! assert!(po_plus.contains(0, 2));
//! assert!(po_plus.is_acyclic());
//!
//! // Adding the back-edge 2→0 creates a cycle.
//! let mut cyclic = po;
//! cyclic.insert(2, 0);
//! assert!(!cyclic.is_acyclic());
//!
//! // Restrict a relation to a subset of events.
//! let writes = EventSet::from_ids(3, [0, 2]);
//! let ww = po_plus.restrict(writes, writes);
//! assert!(ww.contains(0, 2) && !ww.contains(0, 1));
//! ```
//!
//! # Lint rules
//!
//! The [`lint`] module runs a static-analysis pass over a [`ModelIr`]
//! — an abstract interpreter on a definitely-empty / definitely-
//! irreflexive / definitely-acyclic lattice with domain/range sort
//! inference — and reports spanned diagnostics without enumerating a
//! single execution. `tricheck lint FILE` and the stack-file loader
//! surface it; the rules:
//!
//! - **E001 — statically-empty relation used in an axiom.** A
//!   sub-expression that provably relates nothing in any execution,
//!   e.g. `0 ; rf` (composition with the empty relation) or `rf ∩ co`
//!   (the intersection of a write→read relation with a write→write
//!   relation — the inferred sorts are disjoint). The constraint it
//!   feeds checks less than it appears to.
//! - **E002 — vacuous axiom.** The axiom provably holds in every
//!   execution, so it can never fail: `acyclic(rf)` (reads-from goes
//!   write→read only, so no cycle is possible), `irreflexive(po)`
//!   (program order is a strict order already), or any axiom over a
//!   statically-empty relation.
//! - **W001 — unused definition.** A def no axiom (transitively)
//!   references, e.g. `dead := rf ∪ co` with no axiom mentioning
//!   `dead`. The lazy evaluator never computes it, so it is dead
//!   weight — and often a sign an axiom forgot an operand.
//! - **W002 — redundant axiom.** Two axioms constrain the *same*
//!   relation (hash-consed, so spelling through a def is seen through)
//!   and one implies the other: `irreflexive(hb)` alongside
//!   `acyclic(hb)` is subsumed, since acyclicity implies
//!   irreflexivity; `empty` implies both.
//! - **W003 — shadow-adjacent name.** A definition one edit away from
//!   a base name, e.g. `po-lok := …` next to the base `po-loc`: a typo
//!   at a use site would silently define or reference the wrong
//!   relation. Names shorter than four characters are exempt.
//! - **W004 — unreachable mapping rows / `Unsupported` holes** (stack
//!   files only, checked by `tricheck-core`'s registry): a mapping row
//!   for an order the compiler can never emit for that op (e.g.
//!   `ld rel = …` — C11 has no release loads), or an op that maps some
//!   orders but leaves a reachable one undefined, so compiling a test
//!   that uses it fails with `Unsupported`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod ir;
pub mod lint;
pub mod parse;

pub use compile::{CompiledModel, EvalScratch, Judge, Prelude};
pub use ir::{Axiom, AxiomKind, BaseRelations, ModelIr, RelExpr, SetExpr};
pub use lint::{Diagnostic, LintSchema, Severity};
pub use parse::{parse_model, parse_model_spanned, ModelSpans, ParseError, Vocabulary};

use std::fmt;

/// Maximum number of events a [`Relation`] or [`EventSet`] may range over.
///
/// Litmus tests stay far below this bound (the largest compiled test in the
/// TriCheck suite has 16 events), so a single `u64` row per event suffices.
pub const MAX_EVENTS: usize = 64;

/// A set of event indices drawn from a universe of `n ≤ 64` events.
///
/// Used to restrict relations to classes of events (reads, writes, SC
/// atomics, fences, …).
///
/// # Examples
///
/// ```
/// use tricheck_rel::EventSet;
///
/// let reads = EventSet::from_ids(4, [1, 3]);
/// assert!(reads.contains(3));
/// assert_eq!(reads.len(), 2);
/// let all = EventSet::full(4);
/// assert_eq!(all.minus(reads).len(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EventSet {
    n: usize,
    bits: u64,
}

impl EventSet {
    /// Creates an empty set over a universe of `n` events.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_EVENTS`.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        assert!(
            n <= MAX_EVENTS,
            "event universe too large: {n} > {MAX_EVENTS}"
        );
        EventSet { n, bits: 0 }
    }

    /// Creates the full set `{0, …, n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_EVENTS`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        s.bits = mask(n);
        s
    }

    /// Creates a set from an iterator of event indices.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_EVENTS` or any index is `>= n`.
    #[must_use]
    pub fn from_ids<I: IntoIterator<Item = usize>>(n: usize, ids: I) -> Self {
        let mut s = Self::empty(n);
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// Returns the size of the universe this set ranges over.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Adds event `id` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `id >= universe()`.
    pub fn insert(&mut self, id: usize) {
        assert!(id < self.n, "event id {id} out of range {}", self.n);
        self.bits |= 1 << id;
    }

    /// Returns `true` if the set contains `id`.
    #[must_use]
    pub fn contains(&self, id: usize) -> bool {
        id < self.n && self.bits & (1 << id) != 0
    }

    /// Returns the number of events in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Returns `true` if the set has no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: EventSet) -> EventSet {
        self.check(other);
        EventSet {
            n: self.n,
            bits: self.bits | other.bits,
        }
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(self, other: EventSet) -> EventSet {
        self.check(other);
        EventSet {
            n: self.n,
            bits: self.bits & other.bits,
        }
    }

    /// Set difference (`self \ other`).
    #[must_use]
    pub fn minus(self, other: EventSet) -> EventSet {
        self.check(other);
        EventSet {
            n: self.n,
            bits: self.bits & !other.bits,
        }
    }

    /// Complement within the universe.
    #[must_use]
    pub fn complement(self) -> EventSet {
        EventSet {
            n: self.n,
            bits: !self.bits & mask(self.n),
        }
    }

    /// Iterates over the member event indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let bits = self.bits;
        (0..self.n).filter(move |i| bits & (1 << i) != 0)
    }

    /// Raw bitmask of the set (bit `i` set iff event `i` is a member).
    #[must_use]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    fn check(&self, other: EventSet) {
        assert_eq!(
            self.n, other.n,
            "event set universes differ: {} vs {}",
            self.n, other.n
        );
    }
}

impl fmt::Debug for EventSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

fn mask(n: usize) -> u64 {
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// A binary relation over a universe of `n ≤ 64` events.
///
/// Rows are stored inline as `u64` bitmasks: bit `j` of row `i` is set
/// iff the pair `(i, j)` is in the relation. The storage is a fixed
/// `[u64; MAX_EVENTS]` plus the universe size, so a relation lives on
/// the stack (or inline in whatever holds it) and creating, cloning or
/// overwriting one never touches the heap. Rows at and above `n`, and
/// bits at and above `n` in every row, are always zero, which keeps the
/// derived `Eq` and `Hash` equal to set equality over the universe.
///
/// # Examples
///
/// ```
/// use tricheck_rel::Relation;
///
/// let rf = Relation::from_pairs(3, [(0, 2)]);
/// let po = Relation::from_pairs(3, [(2, 1)]);
/// // Relational composition: rf ; po = {0→1}.
/// let comp = rf.compose(&po);
/// assert!(comp.contains(0, 1));
/// assert_eq!(comp.pair_count(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Relation {
    n: usize,
    rows: [u64; MAX_EVENTS],
}

impl Default for Relation {
    /// The empty relation over the empty universe.
    fn default() -> Self {
        Relation::empty(0)
    }
}

impl Relation {
    /// Creates the empty relation over `n` events.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_EVENTS`.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        assert!(
            n <= MAX_EVENTS,
            "event universe too large: {n} > {MAX_EVENTS}"
        );
        Relation {
            n,
            rows: [0; MAX_EVENTS],
        }
    }

    /// Creates the identity relation `{(i, i)}` over `n` events.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_EVENTS`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut r = Self::empty(n);
        for (i, row) in r.rows_mut().iter_mut().enumerate() {
            *row = 1 << i;
        }
        r
    }

    /// Creates the full relation (all ordered pairs) over `n` events.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_EVENTS`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        let mut r = Self::empty(n);
        r.rows_mut().fill(mask(n));
        r
    }

    /// Creates a relation from an iterator of `(from, to)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_EVENTS` or any index is `>= n`.
    #[must_use]
    pub fn from_pairs<I: IntoIterator<Item = (usize, usize)>>(n: usize, pairs: I) -> Self {
        let mut r = Self::empty(n);
        for (a, b) in pairs {
            r.insert(a, b);
        }
        r
    }

    /// The cross product `dom × rng` as a relation.
    ///
    /// # Panics
    ///
    /// Panics if the two sets range over different universes.
    #[must_use]
    pub fn cross(dom: EventSet, rng: EventSet) -> Self {
        assert_eq!(
            dom.universe(),
            rng.universe(),
            "cross product over mismatched universes"
        );
        let mut r = Self::empty(dom.universe());
        for i in dom.iter() {
            r.rows[i] = rng.bits();
        }
        r
    }

    /// Returns the size of the universe this relation ranges over.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Adds the pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a >= universe()` or `b >= universe()`.
    pub fn insert(&mut self, a: usize, b: usize) {
        assert!(
            a < self.n && b < self.n,
            "pair ({a},{b}) out of range {}",
            self.n
        );
        self.rows[a] |= 1 << b;
    }

    /// Returns `true` if the pair `(a, b)` is in the relation.
    #[must_use]
    pub fn contains(&self, a: usize, b: usize) -> bool {
        a < self.n && b < self.n && self.rows[a] & (1 << b) != 0
    }

    /// Returns `true` if the relation has no pairs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.row_words().iter().all(|&r| r == 0)
    }

    /// Number of pairs in the relation.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        self.row_words()
            .iter()
            .map(|r| r.count_ones() as usize)
            .sum()
    }

    /// Union of two relations.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn union(&self, other: &Relation) -> Relation {
        self.zip_rows(other, |a, b| a | b)
    }

    /// Intersection of two relations.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn intersect(&self, other: &Relation) -> Relation {
        self.zip_rows(other, |a, b| a & b)
    }

    /// Difference (`self \ other`).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn minus(&self, other: &Relation) -> Relation {
        self.zip_rows(other, |a, b| a & !b)
    }

    /// Relational composition `self ; other` (`(a,c)` iff `∃b. (a,b) ∧ (b,c)`).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn compose(&self, other: &Relation) -> Relation {
        self.check(other);
        let mut out = Relation::empty(self.n);
        for a in 0..self.n {
            let mut row = 0u64;
            let mut mids = self.rows[a];
            while mids != 0 {
                let b = mids.trailing_zeros() as usize;
                mids &= mids - 1;
                row |= other.rows[b];
            }
            out.rows[a] = row;
        }
        out
    }

    /// Inverse relation (`(b, a)` for every `(a, b)`).
    #[must_use]
    pub fn inverse(&self) -> Relation {
        let mut out = Relation::empty(self.n);
        for (a, &row) in self.row_words().iter().enumerate() {
            let mut bits = row;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.rows[b] |= 1 << a;
            }
        }
        out
    }

    /// Transitive closure `self⁺` (one or more steps).
    #[must_use]
    pub fn transitive_closure(&self) -> Relation {
        let mut out = self.clone();
        close_rows(out.rows_mut());
        out
    }

    /// Reflexive-transitive closure `self*` (zero or more steps).
    #[must_use]
    pub fn reflexive_transitive_closure(&self) -> Relation {
        self.transitive_closure().union(&Relation::identity(self.n))
    }

    /// Reflexive closure `self?` (`self ∪ identity`).
    #[must_use]
    pub fn maybe(&self) -> Relation {
        self.union(&Relation::identity(self.n))
    }

    /// Restricts the relation to pairs with the first component in `dom`
    /// and the second in `rng`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn restrict(&self, dom: EventSet, rng: EventSet) -> Relation {
        assert_eq!(dom.universe(), self.n, "domain universe mismatch");
        assert_eq!(rng.universe(), self.n, "range universe mismatch");
        let mut out = Relation::empty(self.n);
        for i in dom.iter() {
            out.rows[i] = self.rows[i] & rng.bits();
        }
        out
    }

    /// Returns `true` if the relation contains no pair `(a, a)`.
    #[must_use]
    pub fn is_irreflexive(&self) -> bool {
        self.row_words()
            .iter()
            .enumerate()
            .all(|(i, &row)| row & (1 << i) == 0)
    }

    /// Returns `true` if the relation (viewed as a directed graph) has no
    /// cycle. Equivalent to the transitive closure being irreflexive.
    ///
    /// Decided by peeling sinks, in place on a bitmask of the events
    /// still in play: each round removes every event with no edge into
    /// the remaining set. An acyclic relation empties; a cycle (a
    /// self-loop included) keeps its events, so a round that finds no
    /// sink while events remain proves one. Each round reads one row per
    /// remaining event, and nothing is copied or closed.
    #[must_use]
    pub fn is_acyclic(&self) -> bool {
        let mut left = mask(self.n);
        loop {
            let sinks = sinks(&self.rows, left);
            if sinks == 0 {
                return left == 0;
            }
            left &= !sinks;
        }
    }

    /// Returns `true` if every pair of `self` is also in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn is_subset_of(&self, other: &Relation) -> bool {
        self.check(other);
        self.row_words()
            .iter()
            .zip(other.row_words())
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over all pairs `(a, b)` in the relation.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.row_words()
            .iter()
            .enumerate()
            .flat_map(move |(a, &row)| {
                (0..self.n).filter_map(move |b| {
                    if row & (1 << b) != 0 {
                        Some((a, b))
                    } else {
                        None
                    }
                })
            })
    }

    /// The set of events with at least one outgoing edge.
    #[must_use]
    pub fn domain(&self) -> EventSet {
        let mut s = EventSet::empty(self.n);
        for (a, &row) in self.row_words().iter().enumerate() {
            if row != 0 {
                s.insert(a);
            }
        }
        s
    }

    /// The set of events with at least one incoming edge.
    #[must_use]
    pub fn range(&self) -> EventSet {
        let mut bits = 0u64;
        for &row in self.row_words() {
            bits |= row;
        }
        EventSet { n: self.n, bits }
    }

    /// The raw row bitmasks: word `i` holds the successor mask of
    /// event `i`. The slice length is exactly `universe()`.
    ///
    /// This is the bulk-copy interface the columnar execution arenas
    /// build on: a relation's entire edge content is `universe()`
    /// contiguous `u64` words, so appending one to a flat column (or
    /// rehydrating one from a column) is a single `memcpy`-shaped
    /// operation instead of a pair-by-pair rebuild.
    #[must_use]
    pub fn row_words(&self) -> &[u64] {
        &self.rows[..self.n]
    }

    /// Overwrites this relation's rows from a slice of raw row words
    /// (the same layout [`row_words`](Self::row_words) exposes).
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != universe()`. In debug builds, also
    /// panics if any word sets a bit at or above `universe()`.
    pub fn copy_row_words_from(&mut self, words: &[u64]) {
        assert_eq!(
            words.len(),
            self.n,
            "row word count {} does not match universe {}",
            words.len(),
            self.n
        );
        debug_assert!(
            words.iter().all(|&w| w & !mask(self.n) == 0),
            "row words set bits outside the {}-event universe",
            self.n
        );
        self.rows[..self.n].copy_from_slice(words);
    }

    /// Builds a relation directly from raw row words, validating that
    /// the length matches `n` and no word addresses an event `>= n`.
    ///
    /// Returns `None` on any mismatch — this is the checked entry
    /// point snapshot decoding uses, where the words come from disk.
    #[must_use]
    pub fn try_from_row_words(n: usize, rows: &[u64]) -> Option<Relation> {
        if n > MAX_EVENTS || rows.len() != n || rows.iter().any(|&w| w & !mask(n) != 0) {
            return None;
        }
        let mut r = Relation::empty(n);
        r.rows[..n].copy_from_slice(rows);
        Some(r)
    }

    /// The successors of event `a` as a set.
    ///
    /// # Panics
    ///
    /// Panics if `a >= universe()`.
    #[must_use]
    pub fn successors(&self, a: usize) -> EventSet {
        assert!(a < self.n, "event id {a} out of range {}", self.n);
        EventSet {
            n: self.n,
            bits: self.rows[a],
        }
    }

    /// Returns one linear extension of the relation (a topological order),
    /// or `None` if the relation is cyclic.
    ///
    /// Only events in `universe()` participate; events unrelated to
    /// everything still appear in the output order.
    #[must_use]
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indegree = vec![0usize; self.n];
        for (_, b) in self.pairs() {
            indegree[b] += 1;
        }
        let mut ready: Vec<usize> = (0..self.n).filter(|&i| indegree[i] == 0).collect();
        let mut out = Vec::with_capacity(self.n);
        while let Some(a) = ready.pop() {
            out.push(a);
            let mut bits = self.rows[a];
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                indegree[b] -= 1;
                if indegree[b] == 0 {
                    ready.push(b);
                }
            }
        }
        if out.len() == self.n {
            Some(out)
        } else {
            None
        }
    }

    /// Resizes the relation to a universe of `n` events and returns its
    /// rows for the caller to overwrite in full. Rows that fall outside
    /// the new universe are cleared, so the zero invariant holds as
    /// long as the caller writes only in-universe bits.
    pub(crate) fn resize_rows(&mut self, n: usize) -> &mut [u64] {
        assert!(
            n <= MAX_EVENTS,
            "event universe too large: {n} > {MAX_EVENTS}"
        );
        if n < self.n {
            self.rows[n..self.n].fill(0);
        }
        self.n = n;
        &mut self.rows[..n]
    }

    fn rows_mut(&mut self) -> &mut [u64] {
        &mut self.rows[..self.n]
    }

    fn zip_rows(&self, other: &Relation, f: impl Fn(u64, u64) -> u64) -> Relation {
        self.check(other);
        let mut out = Relation::empty(self.n);
        for (out, (&a, &b)) in out
            .rows_mut()
            .iter_mut()
            .zip(self.row_words().iter().zip(other.row_words()))
        {
            *out = f(a, b);
        }
        out
    }

    fn check(&self, other: &Relation) {
        assert_eq!(
            self.n, other.n,
            "relation universes differ: {} vs {}",
            self.n, other.n
        );
    }
}

/// One round of sink peeling: the events of `left` with no edge into
/// `left`. Peeling them round by round empties an acyclic relation; a
/// cycle (a self-loop included) keeps its events, so a round that finds
/// no sink while events remain proves one.
fn sinks(rows: &[u64], left: u64) -> u64 {
    let mut sinks = 0u64;
    let mut rest = left;
    while rest != 0 {
        let a = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        if rows[a] & left == 0 {
            sinks |= 1 << a;
        }
    }
    sinks
}

/// Closes `rows` transitively in place.
///
/// Peels sinks as [`Relation::is_acyclic`] does, closing each peeled
/// event as it goes: a sink's successors were all peeled in earlier
/// rounds, so their rows are closed already and one union over them
/// closes the sink's. An acyclic relation is closed after the peeling
/// alone. On a cycle the events left over fall back to word-parallel
/// repeated squaring (R := R ∪ R;R, 64 columns at a time, until nothing
/// changes); the rows closed so far hold their final value, and a row
/// read mid-pass already holds a subset of the closure, so updating in
/// place only speeds convergence.
pub(crate) fn close_rows(rows: &mut [u64]) {
    let union_of_successors = |rows: &[u64], a: usize| {
        let mut row = rows[a];
        let mut mids = row;
        while mids != 0 {
            let b = mids.trailing_zeros() as usize;
            mids &= mids - 1;
            row |= rows[b];
        }
        row
    };
    let mut left = mask(rows.len());
    loop {
        let sinks = sinks(rows, left);
        if sinks == 0 {
            break;
        }
        let mut rest = sinks;
        while rest != 0 {
            let a = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            rows[a] = union_of_successors(rows, a);
        }
        left &= !sinks;
    }
    // What a cycle kept closes by repeated squaring.
    let mut changed = left != 0;
    while changed {
        changed = false;
        let mut rest = left;
        while rest != 0 {
            let a = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let row = union_of_successors(rows, a);
            changed |= row != rows[a];
            rows[a] = row;
        }
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.pairs().map(|(a, b)| format!("{a}->{b}")))
            .finish()
    }
}

/// Enumerates all linear extensions of a strict partial order over the
/// events in `events`, invoking `visit` with each complete order.
///
/// The partial order is given as `precedes`: the extension must place `a`
/// before `b` whenever `precedes.contains(a, b)` and both are in `events`.
/// `visit` may return `false` to stop the enumeration early; the function
/// returns `false` in that case.
///
/// Used to enumerate coherence orders (per-location total store orders) and
/// candidate SC total orders.
///
/// # Examples
///
/// ```
/// use tricheck_rel::{linear_extensions, EventSet, Relation};
///
/// let constraint = Relation::from_pairs(3, [(0, 1)]);
/// let events = EventSet::full(3);
/// let mut count = 0;
/// linear_extensions(events, &constraint, &mut |_order| {
///     count += 1;
///     true
/// });
/// assert_eq!(count, 3); // 3! / 2 orders keep 0 before 1
/// ```
pub fn linear_extensions<F: FnMut(&[usize]) -> bool>(
    events: EventSet,
    precedes: &Relation,
    visit: &mut F,
) -> bool {
    // The partial order's predecessor masks within `events`, and the
    // order under construction, both on the stack: no allocation.
    let mut preds = [0u64; MAX_EVENTS];
    for m in events.iter() {
        for p in events.iter() {
            if p != m && precedes.contains(p, m) {
                preds[m] |= 1 << p;
            }
        }
    }
    let mut order = [0usize; MAX_EVENTS];
    extend(events.bits(), &preds, &mut order, 0, 0, visit)
}

fn extend<F: FnMut(&[usize]) -> bool>(
    members: u64,
    preds: &[u64; MAX_EVENTS],
    order: &mut [usize; MAX_EVENTS],
    len: usize,
    used: u64,
    visit: &mut F,
) -> bool {
    if used == members {
        return visit(&order[..len]);
    }
    let mut free = members & !used;
    while free != 0 {
        let cand = free.trailing_zeros() as usize;
        free &= free - 1;
        // cand may be placed next iff all its predecessors are already placed.
        if preds[cand] & !used != 0 {
            continue;
        }
        order[len] = cand;
        if !extend(members, preds, order, len + 1, used | 1 << cand, visit) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_relation_is_acyclic_and_irreflexive() {
        let r = Relation::empty(5);
        assert!(r.is_empty());
        assert!(r.is_acyclic());
        assert!(r.is_irreflexive());
        assert_eq!(r.pair_count(), 0);
    }

    #[test]
    fn identity_is_cyclic_but_reflexive() {
        let id = Relation::identity(3);
        assert!(!id.is_irreflexive());
        assert!(!id.is_acyclic());
        assert_eq!(id.pair_count(), 3);
    }

    #[test]
    fn compose_chains_edges() {
        let a = Relation::from_pairs(4, [(0, 1), (2, 3)]);
        let b = Relation::from_pairs(4, [(1, 2)]);
        let ab = a.compose(&b);
        assert!(ab.contains(0, 2));
        assert_eq!(ab.pair_count(), 1);
    }

    #[test]
    fn closure_of_chain_relates_all_descendants() {
        let r = Relation::from_pairs(4, [(0, 1), (1, 2), (2, 3)]);
        let c = r.transitive_closure();
        for a in 0..4 {
            for b in (a + 1)..4 {
                assert!(c.contains(a, b), "expected {a}->{b} in closure");
            }
        }
        assert!(c.is_acyclic());
    }

    #[test]
    fn cycle_detection() {
        let r = Relation::from_pairs(3, [(0, 1), (1, 2), (2, 0)]);
        assert!(!r.is_acyclic());
        assert!(r.is_irreflexive()); // no self-loop even though cyclic
    }

    #[test]
    fn inverse_swaps_pairs() {
        let r = Relation::from_pairs(3, [(0, 2), (1, 2)]);
        let inv = r.inverse();
        assert!(inv.contains(2, 0));
        assert!(inv.contains(2, 1));
        assert_eq!(inv.pair_count(), 2);
    }

    #[test]
    fn restrict_filters_by_domain_and_range() {
        let r = Relation::full(3);
        let dom = EventSet::from_ids(3, [0]);
        let rng = EventSet::from_ids(3, [1, 2]);
        let restricted = r.restrict(dom, rng);
        assert_eq!(restricted.pair_count(), 2);
        assert!(restricted.contains(0, 1));
        assert!(restricted.contains(0, 2));
        assert!(!restricted.contains(1, 2));
    }

    #[test]
    fn cross_product() {
        let a = EventSet::from_ids(4, [0, 1]);
        let b = EventSet::from_ids(4, [2, 3]);
        let r = Relation::cross(a, b);
        assert_eq!(r.pair_count(), 4);
        assert!(r.contains(1, 3));
        assert!(!r.contains(2, 0));
    }

    #[test]
    fn topological_order_of_dag() {
        let r = Relation::from_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
        let order = r.topological_order().expect("dag should have an order");
        let pos = |x: usize| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn topological_order_rejects_cycles() {
        let r = Relation::from_pairs(2, [(0, 1), (1, 0)]);
        assert!(r.topological_order().is_none());
    }

    #[test]
    fn linear_extensions_counts() {
        // No constraints: 3! = 6 orders.
        let mut count = 0;
        linear_extensions(EventSet::full(3), &Relation::empty(3), &mut |_| {
            count += 1;
            true
        });
        assert_eq!(count, 6);

        // Total order constraint: exactly 1 extension.
        let chain = Relation::from_pairs(3, [(0, 1), (1, 2)]);
        let mut count = 0;
        linear_extensions(EventSet::full(3), &chain, &mut |order| {
            assert_eq!(order, &[0, 1, 2]);
            count += 1;
            true
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn linear_extensions_early_stop() {
        let mut count = 0;
        let finished = linear_extensions(EventSet::full(4), &Relation::empty(4), &mut |_| {
            count += 1;
            count < 3
        });
        assert!(!finished);
        assert_eq!(count, 3);
    }

    #[test]
    fn event_set_ops() {
        let a = EventSet::from_ids(5, [0, 1, 2]);
        let b = EventSet::from_ids(5, [2, 3]);
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersect(b).len(), 1);
        assert_eq!(a.minus(b).len(), 2);
        assert_eq!(a.complement().len(), 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut r = Relation::empty(2);
        r.insert(0, 2);
    }

    #[test]
    #[should_panic(expected = "universes differ")]
    fn mismatched_universe_panics() {
        let a = Relation::empty(2);
        let b = Relation::empty(3);
        let _ = a.union(&b);
    }
}
