//! The shared execution-space engine: enumerate once, judge everywhere.
//!
//! Candidate-execution enumeration depends only on the *program* — not on
//! the memory model judging it. TriCheck's full-stack sweep evaluates the
//! same compiled program against many microarchitecture models, so
//! re-running [`crate::enumerate_executions`] per model multiplies the
//! most expensive phase of the pipeline by the number of model cells.
//!
//! [`ExecutionSpace`] fixes that by making the candidate space a shared,
//! lazily-materialized value — and stores it *columnar*: every
//! materialized view is backed by an [`ExecArena`]
//! (one flat buffer per candidate-varying column; see `crate::arena`),
//! not a vector of owned `Execution`s, so materializing a space costs a
//! handful of large buffer growths and dropping it a handful of frees.
//!
//! - [`ExecutionSpace::executions`] enumerates the full candidate space
//!   exactly once (thread-safe, via [`OnceLock`]) into the space's
//!   arena and returns a [`SpaceView`] over all of it;
//! - [`ExecutionSpace::matching`] serves the target-restricted space
//!   (the only part target-mode verification ever looks at), cached
//!   per target outcome. If the full arena exists the view is a `u32`
//!   index list over it; otherwise a dedicated target-pruned arena is
//!   enumerated (the restricted enumeration prunes far harder than a
//!   post-hoc filter, so an unmaterialized space never pays for the
//!   full enumeration);
//! - [`ExecutionSpace::outcome_groups`] partitions the full space by
//!   outcome, once per observed-register list;
//! - for one-shot queries (no sharing),
//!   [`ExecutionSpace::witness_search`] short-circuits the
//!   *enumeration* itself without materializing anything.
//!
//! Spaces are keyed by a structural [`Fingerprint`] of the program, so a
//! cache of spaces deduplicates not only the model cells of one compiled
//! test but any two mappings that compile a test to the same instruction
//! sequence (e.g. an all-relaxed variant under the intuitive and refined
//! mappings).
//!
//! [`ConsistencyModel`] is the other half of the engine: a memory model
//! reduced to a compiled kernel plus a way to bind one candidate to it.
//! Both the C11 model and the microarchitecture models implement it,
//! which is what lets one enumeration serve every layer of the stack.
//! Its provided judgements stream their candidates — a view's index
//! list through an arena cursor, or a streaming enumeration — through
//! one [`Judge`], which evaluates the kernel's space-invariant prelude
//! once per stream. Over a shared space there is one witness-search
//! loop ([`witness_mask`]) and one outcome-group loop
//! ([`outcome_masks`]); each takes the caller's judge and a mask of
//! live models, so a store-attached sweep judges a program under every
//! model of a fused kernel in one pass. A store-less sweep builds no
//! space: it judges each candidate inside one
//! [`EnumScratch::enumerate_counted`] pass per question.
//!
//! # View invariants
//!
//! - A [`SpaceView`] holds an `Arc` to its backing arena; the arena
//!   outlives every view, cursor and index list derived from it.
//! - An index-list view (`matching` over a materialized full space,
//!   outcome groups) indexes **the full arena**; a restricted view
//!   (`matching` on an unmaterialized space) owns its own arena and
//!   its index list is the identity.
//! - Candidate order is enumeration order everywhere, so views are
//!   deterministic and snapshots of equal spaces are byte-identical.
//!
//! # Examples
//!
//! ```
//! use tricheck_litmus::{suite, ExecutionSpace, MemOrder};
//!
//! let test = suite::mp([MemOrder::Rlx; 4]);
//! let space = ExecutionSpace::new(test.program().clone());
//! // First full enumeration materializes the space…
//! let n = space.executions().len();
//! assert!(n > 0);
//! // …subsequent passes reuse it (one enumeration total).
//! assert_eq!(space.executions().len(), n);
//! assert_eq!(space.stats().enumerations, 1);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tricheck_rel::{BaseRelations, CompiledModel, Judge, Relation};

use crate::arena::ExecArena;
use crate::codec::{self, AnnCodec, ByteReader, CodecError};
use crate::enumerate::{outcome_set, target_realizable, EnumScratch};
use crate::exec::Execution;
use crate::mir::{Program, Reg};
use crate::outcome::Outcome;

/// A structural fingerprint of a program: two programs with identical
/// threads, instructions, annotations and location sets share one.
///
/// The FNV-1a mixing is pinned, so fingerprints are deterministic for a
/// given build — stable across processes of the *same* binary, which is
/// what same-build work sharding needs. They are NOT a persistence
/// format: the hashed byte stream comes from derived `Hash` impls,
/// which std does not specify across releases or platforms, so on-disk
/// caches keyed by fingerprint would need a hand-rolled encoding.
/// Collisions are theoretically possible; caches keyed by fingerprint
/// must fall back to structural equality on hit (see `tricheck-core`'s
/// grouping pre-pass).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Fingerprints a program.
    #[must_use]
    pub fn of<A: Hash>(program: &Program<A>) -> Self {
        let mut h = Fnv1a::default();
        program.hash(&mut h);
        Fingerprint(h.finish())
    }

    /// The raw 64-bit value (for sharding and diagnostics).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a: unlike `DefaultHasher`, the mixing can never change
/// between Rust releases, so same-build processes always agree on
/// fingerprints (the remaining instability is the derived-`Hash` byte
/// stream — see [`Fingerprint`]).
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Counters describing how much enumeration work a space performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SpaceStats {
    /// Enumeration passes actually run (full or target-restricted).
    pub enumerations: usize,
    /// Queries answered from an already-materialized space.
    pub cache_hits: usize,
    /// Search branches cut by the coherence core across this space's
    /// enumerations (always zero for an unpruned space).
    pub candidates_pruned: usize,
}

/// A read view over candidates of one space: a shared columnar arena
/// plus (optionally) a `u32` index list selecting a subset of it.
///
/// Views are cheap to clone (two `Arc` bumps) and cheap to drop; the
/// candidates live in the arena's columns, never in the view.
#[derive(Clone, Debug)]
pub struct SpaceView<A> {
    arena: Arc<ExecArena<A>>,
    /// `None` means the whole arena in candidate order.
    indices: Option<Arc<Vec<u32>>>,
}

impl<A: Clone> SpaceView<A> {
    /// Number of candidates in the view.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.indices {
            Some(idx) => idx.len(),
            None => self.arena.len(),
        }
    }

    /// `true` if the view selects no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The backing arena. Index lists of this view (and of outcome
    /// groups derived from a full-space view) index into it.
    #[must_use]
    pub fn arena(&self) -> &Arc<ExecArena<A>> {
        &self.arena
    }

    /// The view's candidates as arena indices. A whole-arena view
    /// returns the arena's shared identity list.
    #[must_use]
    pub fn indices(&self) -> Arc<Vec<u32>> {
        match &self.indices {
            Some(idx) => Arc::clone(idx),
            None => self.arena.all_indices(),
        }
    }

    /// Materializes the `k`-th candidate of the view as an owned
    /// [`Execution`] (test/diagnostic aid — scans should use a cursor
    /// over [`SpaceView::arena`]).
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    #[must_use]
    pub fn get(&self, k: usize) -> Execution<A> {
        match &self.indices {
            Some(idx) => self.arena.get(idx[k]),
            None => self.arena.get(k as u32),
        }
    }

    /// Materializes every candidate of the view, in view order.
    #[must_use]
    pub fn to_vec(&self) -> Vec<Execution<A>> {
        (0..self.len()).map(|k| self.get(k)).collect()
    }

    /// `true` if the two views share both backing storage and index
    /// list (the cache-identity check `Arc::ptr_eq` used to provide).
    #[must_use]
    pub fn ptr_eq(a: &SpaceView<A>, b: &SpaceView<A>) -> bool {
        Arc::ptr_eq(&a.arena, &b.arena)
            && match (&a.indices, &b.indices) {
                (None, None) => true,
                (Some(x), Some(y)) => Arc::ptr_eq(x, y),
                _ => false,
            }
    }
}

/// A cached target-restricted view: an index list over the full arena
/// when the full space was materialized first, or a dedicated
/// target-pruned arena when not.
#[derive(Debug)]
enum MatchView<A> {
    Indices(Arc<Vec<u32>>),
    Restricted(Arc<ExecArena<A>>),
}

/// The candidate-execution space of one program, enumerated at most once
/// per view (full, or restricted to a target outcome) and shared across
/// every model that judges the program.
///
/// All methods take `&self`; the space is internally synchronized and can
/// be shared across worker threads behind an [`Arc`].
#[derive(Debug)]
pub struct ExecutionSpace<A> {
    program: Program<A>,
    fingerprint: Fingerprint,
    /// When set, every enumeration this space runs is axiom-pruned (see
    /// [`crate::enumerate_executions_pruned`]): the materialized views
    /// hold only coherence-core-consistent candidates. Model verdicts
    /// are unchanged — every model rejects the pruned candidates — so
    /// pruned and unpruned spaces are freely interchangeable; only the
    /// candidate counts and the work to produce them differ.
    prune: bool,
    full: OnceLock<Arc<ExecArena<A>>>,
    matching: Mutex<BTreeMap<Outcome, MatchView<A>>>,
    /// Outcome partition of the full space, keyed by the observed-register
    /// list it projects onto (see [`ExecutionSpace::outcome_groups`]).
    groups: Mutex<GroupCache>,
    enumerations: AtomicUsize,
    cache_hits: AtomicUsize,
    candidates_pruned: AtomicUsize,
}

/// The full candidate space partitioned by outcome: each entry pairs one
/// outcome with the indices (into [`ExecutionSpace::executions`]'s
/// arena) of the candidates that produce it.
pub type OutcomeGroups = Vec<(Outcome, Vec<u32>)>;

/// One cached partition per distinct observed-register list.
type GroupCache = BTreeMap<Vec<(usize, Reg)>, Arc<OutcomeGroups>>;

impl<A: Clone + Hash> ExecutionSpace<A> {
    /// Wraps a program; no enumeration happens until a query needs it.
    #[must_use]
    pub fn new(program: Program<A>) -> Self {
        let fingerprint = Fingerprint::of(&program);
        ExecutionSpace {
            program,
            fingerprint,
            prune: false,
            full: OnceLock::new(),
            matching: Mutex::new(BTreeMap::new()),
            groups: Mutex::new(BTreeMap::new()),
            enumerations: AtomicUsize::new(0),
            cache_hits: AtomicUsize::new(0),
            candidates_pruned: AtomicUsize::new(0),
        }
    }

    /// Like [`ExecutionSpace::new`], but every enumeration is
    /// axiom-pruned: candidates cyclic in the model-independent
    /// coherence core are cut during the search instead of being
    /// materialized and rejected by every model individually. This is
    /// the space a store-attached sweep builds.
    #[must_use]
    pub fn pruned(program: Program<A>) -> Self {
        Self::new(program).into_pruned()
    }

    /// Turns this space into a pruned one (used to re-arm pruning on
    /// spaces restored from a persistent snapshot). Must be applied
    /// before the space is shared; already-materialized views are kept
    /// as-is.
    #[must_use]
    pub fn into_pruned(mut self) -> Self {
        self.prune = true;
        self
    }

    /// The program this space belongs to.
    #[must_use]
    pub fn program(&self) -> &Program<A> {
        &self.program
    }

    /// The program's structural fingerprint (the space's cache key).
    #[must_use]
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Runs one enumeration pass through `scratch` into a fresh arena,
    /// honoring the space's pruning mode and maintaining the
    /// enumeration counters.
    fn enumerate_into(
        &self,
        target: Option<&Outcome>,
        scratch: &mut EnumScratch<A>,
    ) -> ExecArena<A> {
        self.enumerations.fetch_add(1, Ordering::Relaxed);
        let mut arena = ExecArena::new();
        let pruned = scratch.enumerate_counted(&self.program, target, self.prune, &mut |exec| {
            arena.push(exec);
        });
        self.candidates_pruned.fetch_add(pruned, Ordering::Relaxed);
        arena
    }

    /// The full candidate-execution space, enumerated on first use into
    /// the space's columnar arena and served as a shared view ever
    /// after.
    #[must_use]
    pub fn executions(&self) -> SpaceView<A> {
        self.executions_in(&mut EnumScratch::new())
    }

    /// [`ExecutionSpace::executions`], enumerating (on first use)
    /// through the caller's reusable `scratch`.
    #[must_use]
    pub fn executions_in(&self, scratch: &mut EnumScratch<A>) -> SpaceView<A> {
        let (arena, enumerated) = self.full_arena(scratch);
        if !enumerated {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        SpaceView {
            arena: Arc::clone(arena),
            indices: None,
        }
    }

    /// The full arena, enumerated on first use, and whether this call
    /// enumerated it. Counts no cache hit: callers that answer a query
    /// from it decide whether that query was a reuse.
    fn full_arena(&self, scratch: &mut EnumScratch<A>) -> (&Arc<ExecArena<A>>, bool) {
        let mut enumerated = false;
        let arena = self.full.get_or_init(|| {
            enumerated = true;
            Arc::new(self.enumerate_into(None, scratch))
        });
        (arena, enumerated)
    }

    /// The candidate executions whose outcome matches `target`,
    /// materialized on first use per target and cached.
    ///
    /// If the full space is already materialized, the restriction is an
    /// index list over its arena (no candidate is copied); otherwise a
    /// dedicated target-pruned arena is enumerated. Lookups borrow the
    /// target for the cache probe — the `Outcome` key is cloned exactly
    /// once, on first insertion.
    #[must_use]
    pub fn matching(&self, target: &Outcome) -> SpaceView<A> {
        self.matching_in(target, &mut EnumScratch::new())
    }

    /// [`ExecutionSpace::matching`], enumerating (on first use per
    /// target) through the caller's reusable `scratch`.
    #[must_use]
    pub fn matching_in(&self, target: &Outcome, scratch: &mut EnumScratch<A>) -> SpaceView<A> {
        // The lock is held across the enumeration so each (space, target)
        // pair is enumerated exactly once even under contention — the
        // losing racer waits and reads the winner's result. Distinct
        // targets of one space serialize too, which is acceptable: a
        // compiled litmus test has a single target outcome.
        let mut map = self.matching.lock().expect("space lock");
        if let Some(cached) = map.get(target) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return self.resolve_match(cached);
        }
        let view = if let Some(full) = self.full.get() {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            let matching: Vec<u32> = (0..full.len() as u32)
                .filter(|&i| full.outcome_of(i, target.observed()) == *target)
                .collect();
            MatchView::Indices(Arc::new(matching))
        } else {
            MatchView::Restricted(Arc::new(self.enumerate_into(Some(target), scratch)))
        };
        let resolved = self.resolve_match(&view);
        map.insert(target.clone(), view);
        resolved
    }

    fn resolve_match(&self, view: &MatchView<A>) -> SpaceView<A> {
        match view {
            MatchView::Indices(idx) => SpaceView {
                arena: Arc::clone(self.full.get().expect("index views require the full arena")),
                indices: Some(Arc::clone(idx)),
            },
            MatchView::Restricted(arena) => SpaceView {
                arena: Arc::clone(arena),
                indices: None,
            },
        }
    }

    /// The full candidate space partitioned by outcome over `observed`
    /// registers, computed once per distinct register list and shared by
    /// every model that asks (the projection of each candidate onto its
    /// outcome is model-independent, so it belongs to the space, not the
    /// judge). Each group's members are indices into the full arena.
    ///
    /// This is what lets a full-outcome-set sweep run at witness-mode
    /// cost: the enumeration *and* the outcome projection are amortized
    /// across all models, leaving each model only the consistency scans —
    /// and those short-circuit per outcome group.
    #[must_use]
    pub fn outcome_groups(&self, observed: &[(usize, Reg)]) -> Arc<OutcomeGroups> {
        // As with `matching`, the lock is held across the partition so
        // each (space, observed) pair is computed exactly once.
        let mut map = self.groups.lock().expect("space lock");
        if let Some(cached) = map.get(observed) {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }
        // Reading the full arena is part of computing the partition, not
        // a query answered from a cached view: it counts no hit.
        let arena = Arc::clone(self.full_arena(&mut EnumScratch::new()).0);
        let mut by_outcome: BTreeMap<Outcome, Vec<u32>> = BTreeMap::new();
        for i in 0..arena.len() as u32 {
            by_outcome
                .entry(arena.outcome_of(i, observed))
                .or_default()
                .push(i);
        }
        let groups: Arc<OutcomeGroups> = Arc::new(by_outcome.into_iter().collect());
        map.insert(observed.to_vec(), Arc::clone(&groups));
        groups
    }

    /// One-shot witness search that short-circuits the *enumeration*
    /// itself: stops generating candidates at the first consistent
    /// witness, materializing nothing.
    ///
    /// Use this when a program is judged by a single model once (what
    /// [`ConsistencyModel::observes`] does); use a shared space when
    /// many models will judge the same program.
    #[must_use]
    pub fn witness_search(
        program: &Program<A>,
        target: &Outcome,
        consistent: impl FnMut(&Execution<A>) -> bool,
    ) -> bool {
        target_realizable(program, target, consistent)
    }

    /// This space's enumeration/cache counters.
    #[must_use]
    pub fn stats(&self) -> SpaceStats {
        SpaceStats {
            enumerations: self.enumerations.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            candidates_pruned: self.candidates_pruned.load(Ordering::Relaxed),
        }
    }

    /// How many views the space holds: the full arena, each cached
    /// target-restricted view, and each cached outcome partition. Views
    /// are only ever added, so comparing the count before and after a
    /// batch of queries tells whether they materialized anything new —
    /// by enumerating or by deriving a view from a restored one — that
    /// a store should be given.
    #[must_use]
    pub fn materialized_views(&self) -> usize {
        usize::from(self.full.get().is_some())
            + self.matching.lock().expect("space lock").len()
            + self.groups.lock().expect("space lock").len()
    }
}

impl<A: Clone + Hash + AnnCodec> ExecutionSpace<A> {
    /// Serializes every *materialized* view of the space — the full
    /// arena (if enumerated), each cached target-restricted view, and
    /// each cached outcome partition — into the pinned binary encoding
    /// of [`crate::codec`]. Arenas serialize as their columns (one
    /// skeleton execution plus flat `rf`/`co`/`loc`/`val` buffers;
    /// `fr` is re-derived on decode), index-list views as raw `u32`
    /// lists. Nothing is enumerated to produce the snapshot: an
    /// untouched space snapshots to "no views", and a target-mode space
    /// snapshots exactly its matching views.
    ///
    /// Together with [`ExecutionSpace::from_snapshot`] this is what lets
    /// an on-disk store persist enumeration work across processes: a
    /// later process restores the views and its queries hit the caches
    /// instead of re-enumerating (its [`SpaceStats::enumerations`] stays
    /// zero for restored views). Snapshots are deterministic, and
    /// re-snapshotting a restored space is byte-identical — which is
    /// what lets the store skip rewrites when nothing new materialized.
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self.full.get() {
            Some(arena) => {
                out.push(1);
                codec::put_arena(&mut out, arena);
            }
            None => out.push(0),
        }
        let matching = self.matching.lock().expect("space lock");
        codec::put_u32(&mut out, matching.len() as u32);
        for (target, view) in matching.iter() {
            codec::put_bytes(&mut out, &codec::encode_outcome(target));
            match view {
                MatchView::Indices(idx) => {
                    out.push(0);
                    codec::put_u32(&mut out, idx.len() as u32);
                    for &i in idx.iter() {
                        codec::put_u32(&mut out, i);
                    }
                }
                MatchView::Restricted(arena) => {
                    out.push(1);
                    codec::put_arena(&mut out, arena);
                }
            }
        }
        drop(matching);
        let groups = self.groups.lock().expect("space lock");
        codec::put_u32(&mut out, groups.len() as u32);
        for (observed, partition) in groups.iter() {
            codec::put_observed(&mut out, observed);
            codec::put_u32(&mut out, partition.len() as u32);
            for (outcome, members) in partition.iter() {
                codec::put_bytes(&mut out, &codec::encode_outcome(outcome));
                codec::put_u32(&mut out, members.len() as u32);
                for &i in members {
                    codec::put_u32(&mut out, i);
                }
            }
        }
        out
    }

    /// Rebuilds a space around `program` with the snapshot's views
    /// pre-materialized — arenas decode column-wise in one pass, with
    /// no per-candidate allocation. Counters start at zero: restored
    /// views count as neither enumerations nor cache hits until
    /// queried.
    ///
    /// The snapshot does not embed the program; callers (the disk store)
    /// are responsible for pairing a snapshot with the program it was
    /// taken from — which they must do anyway to guard against
    /// fingerprint collisions.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the payload is truncated, carries unknown tags,
    /// or references out-of-range candidate indices. Callers treat any
    /// error as a cache miss and re-enumerate.
    pub fn from_snapshot(program: Program<A>, bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let space = ExecutionSpace::new(program);
        let n_full = match r.u8()? {
            0 => None,
            1 => {
                let arena = codec::read_arena::<A>(&mut r)?;
                let n = arena.len();
                space
                    .full
                    .set(Arc::new(arena))
                    .unwrap_or_else(|_| unreachable!("fresh space has no full view"));
                Some(n)
            }
            _ => return Err(CodecError::Invalid("full-view flag")),
        };
        let n_matching = r.u32()? as usize;
        {
            let mut matching = space.matching.lock().expect("space lock");
            for _ in 0..n_matching {
                let target_bytes = r.bytes()?;
                let target = codec::decode_outcome(&mut ByteReader::new(target_bytes))?;
                let view = match r.u8()? {
                    0 => {
                        let n = r.u32()? as usize;
                        let mut idx = Vec::with_capacity(n.min(r.remaining() / 4 + 1));
                        for _ in 0..n {
                            let i = r.u32()?;
                            if n_full.is_none_or(|len| i as usize >= len) {
                                return Err(CodecError::Invalid("matching view index"));
                            }
                            idx.push(i);
                        }
                        MatchView::Indices(Arc::new(idx))
                    }
                    1 => MatchView::Restricted(Arc::new(codec::read_arena::<A>(&mut r)?)),
                    _ => return Err(CodecError::Invalid("matching view tag")),
                };
                matching.insert(target, view);
            }
        }
        let n_groups = r.u32()? as usize;
        {
            let mut groups = space.groups.lock().expect("space lock");
            for _ in 0..n_groups {
                let observed = codec::read_observed(&mut r)?;
                let n_parts = r.u32()? as usize;
                // Each part takes at least 8 bytes (two count prefixes).
                let mut partition: OutcomeGroups =
                    Vec::with_capacity(n_parts.min(r.remaining() / 8 + 1));
                for _ in 0..n_parts {
                    let outcome_bytes = r.bytes()?;
                    let outcome = codec::decode_outcome(&mut ByteReader::new(outcome_bytes))?;
                    let n_members = r.u32()? as usize;
                    let mut members = Vec::with_capacity(n_members.min(r.remaining() / 4 + 1));
                    for _ in 0..n_members {
                        let i = r.u32()?;
                        if n_full.is_none_or(|len| i as usize >= len) {
                            return Err(CodecError::Invalid("outcome group index"));
                        }
                        members.push(i);
                    }
                    partition.push((outcome, members));
                }
                groups.insert(observed, Arc::new(partition));
            }
        }
        if r.remaining() != 0 {
            return Err(CodecError::Invalid("trailing bytes after snapshot"));
        }
        Ok(space)
    }
}

/// A memory model reduced to a compiled kernel and a way to bind one
/// candidate execution to it — the judge half of the
/// enumerate-once/judge-everywhere engine.
///
/// Implemented by `tricheck_c11::C11Model` (over [`crate::MemOrder`]
/// annotations) and `tricheck_uarch::UarchModel` (over hardware
/// annotations). The provided methods stream their candidates through
/// one [`Judge`] — one prelude per stream, one evaluation scratch — and
/// stop a stream at its first consistent candidate:
///
/// - [`permits`](Self::permits) and
///   [`allowed_outcomes`](Self::allowed_outcomes) judge a shared
///   [`ExecutionSpace`]: they are the width-1 calls of the two
///   shared-space loops, [`witness_mask`] and [`outcome_masks`], which
///   a store-attached sweep calls with its one fused kernel and the
///   models of every mapping that emitted the program;
/// - [`observes`](Self::observes) and
///   [`observable_outcomes`](Self::observable_outcomes) judge a
///   streaming enumeration of one program, materializing nothing.
pub trait ConsistencyModel: Sync {
    /// The instruction annotation level the model judges.
    type Ann: Clone + Hash + 'static;

    /// The binding of the kernel's base names to one candidate.
    type Binding<'e>: BaseRelations;

    /// The model's display name.
    fn model_name(&self) -> &str;

    /// The model's compiled kernel.
    fn kernel(&self) -> &CompiledModel;

    /// Binds one candidate execution; `fr` is the candidate's
    /// `rf⁻¹;co` when the caller already holds it (an arena's derived
    /// column), computed on demand when `None`.
    fn bind(exec: &Execution<Self::Ann>, fr: Option<Relation>) -> Self::Binding<'_>;

    /// Whether some execution in the shared space realizes `target`
    /// under this model: the width-1 [`witness_mask`].
    fn permits(&self, space: &ExecutionSpace<Self::Ann>, target: &Outcome) -> bool {
        let judge = &mut Judge::new(self.kernel());
        witness_mask::<Self>(judge, &mut EnumScratch::new(), space, target, 1) != 0
    }

    /// The full outcome set this model allows over the shared space:
    /// the width-1 [`outcome_masks`].
    fn allowed_outcomes(
        &self,
        space: &ExecutionSpace<Self::Ann>,
        observed: &[(usize, Reg)],
    ) -> BTreeSet<Outcome> {
        let judge = &mut Judge::new(self.kernel());
        outcome_masks::<Self>(judge, &mut EnumScratch::new(), space, observed, 1)
            .into_iter()
            .map(|(outcome, _)| outcome)
            .collect()
    }

    /// Whether `target` is observable for `program` under this model,
    /// one-shot: the enumeration itself stops at the first witness
    /// ([`ExecutionSpace::witness_search`]), materializing nothing.
    /// Prefer [`permits`](Self::permits) over a shared space when many
    /// models judge one program.
    fn observes(&self, program: &Program<Self::Ann>, target: &Outcome) -> bool {
        let judge = &mut Judge::new(self.kernel());
        self.observes_with(judge, &mut EnumScratch::new(), program, target)
    }

    /// [`observes`](Self::observes) through a caller's reusable buffers:
    /// `judge` is restarted on this model's kernel, and the enumeration
    /// runs in `scratch`, so a worker that keeps both allocates nothing
    /// per call once they are warm.
    fn observes_with<'k>(
        &'k self,
        judge: &mut Judge<'k>,
        scratch: &mut EnumScratch<Self::Ann>,
        program: &Program<Self::Ann>,
        target: &Outcome,
    ) -> bool {
        judge.restart(self.kernel());
        let mut found = false;
        scratch.enumerate(program, Some(target), false, &mut |exec| {
            found = judge.check(&Self::bind(exec, None)).is_ok();
            !found
        });
        found
    }

    /// The outcomes over `observed` registers this model allows for
    /// `program`, one-shot: streams the enumeration with O(1) execution
    /// storage ([`outcome_set`]). Prefer
    /// [`allowed_outcomes`](Self::allowed_outcomes) over a shared space
    /// when many models judge one program.
    fn observable_outcomes(
        &self,
        program: &Program<Self::Ann>,
        observed: &[(usize, Reg)],
    ) -> BTreeSet<Outcome> {
        let mut judge = Judge::new(self.kernel());
        outcome_set(program, observed, |exec| {
            judge.check(&Self::bind(exec, None)).is_ok()
        })
    }
}

/// The shared-space witness search: the models among `live` (bits of
/// the judge's kernel, see [`Judge::check_mask`]) that realize `target`
/// on some candidate of `space`. The space's target view is enumerated,
/// if it is not yet, through `scratch`, and streams through a cursor
/// over the scratch's execution buffer and the judge's current stream;
/// each candidate is judged only under the live models still without a
/// witness, so the search stops once every one has its witness.
pub fn witness_mask<M: ConsistencyModel + ?Sized>(
    judge: &mut Judge<'_>,
    scratch: &mut EnumScratch<M::Ann>,
    space: &ExecutionSpace<M::Ann>,
    target: &Outcome,
    live: u64,
) -> u64 {
    let view = space.matching_in(target, scratch);
    match &view.indices {
        Some(members) => {
            first_witnesses::<M>(judge, scratch, view.arena(), members.iter().copied(), live)
        }
        None => first_witnesses::<M>(judge, scratch, view.arena(), 0..view.len() as u32, live),
    }
}

/// The shared-space outcome scan: every outcome of the space's cached
/// partition over `observed` that some model among `live` allows, with
/// the mask of the models that allow it. Each group is scanned, through
/// a cursor over the scratch's execution buffer and the judge's current
/// stream, until every live model has a witness in it.
pub fn outcome_masks<M: ConsistencyModel + ?Sized>(
    judge: &mut Judge<'_>,
    scratch: &mut EnumScratch<M::Ann>,
    space: &ExecutionSpace<M::Ann>,
    observed: &[(usize, Reg)],
    live: u64,
) -> Vec<(Outcome, u64)> {
    let view = space.executions_in(scratch);
    let groups = space.outcome_groups(observed);
    groups
        .iter()
        .filter_map(|(outcome, members)| {
            let found =
                first_witnesses::<M>(judge, scratch, view.arena(), members.iter().copied(), live);
            (found != 0).then(|| (outcome.clone(), found))
        })
        .collect()
}

/// Judges arena candidates `members` in order, each under the models
/// of `live` without a witness yet, and returns the models that found
/// one. The cursor rebinds the scratch's execution buffer to each
/// candidate, and the binding takes a copy of the arena's `fr` rows.
fn first_witnesses<M: ConsistencyModel + ?Sized>(
    judge: &mut Judge<'_>,
    scratch: &mut EnumScratch<M::Ann>,
    arena: &ExecArena<M::Ann>,
    members: impl IntoIterator<Item = u32>,
    live: u64,
) -> u64 {
    if arena.is_empty() {
        return 0;
    }
    let mut cursor = arena.cursor_in(std::mem::take(&mut scratch.exec));
    let mut found = 0;
    for i in members {
        if found == live {
            break;
        }
        cursor.at(i);
        found |= judge.check_mask(
            &M::bind(cursor.exec(), Some(cursor.fr().clone())),
            live & !found,
        );
    }
    scratch.exec = cursor.into_buffer();
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::count_executions;
    use crate::order::MemOrder;
    use crate::suite;

    #[test]
    fn fingerprint_is_structural_and_stable() {
        let a = suite::mp([MemOrder::Rlx; 4]);
        let b = suite::mp([MemOrder::Rlx; 4]);
        let c = suite::mp([MemOrder::Sc; 4]);
        assert_eq!(Fingerprint::of(a.program()), Fingerprint::of(b.program()));
        assert_ne!(Fingerprint::of(a.program()), Fingerprint::of(c.program()));
    }

    #[test]
    fn full_space_matches_direct_enumeration() {
        let t = suite::sb([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::new(t.program().clone());
        assert_eq!(space.executions().len(), count_executions(t.program()));
    }

    #[test]
    fn full_space_candidates_are_bit_identical_to_enumeration() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::new(t.program().clone());
        let mut direct = Vec::new();
        crate::enumerate::enumerate_executions(t.program(), &mut |e| {
            direct.push(e.clone());
            true
        });
        assert_eq!(space.executions().to_vec(), direct);
    }

    #[test]
    fn full_space_enumerates_once() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::new(t.program().clone());
        for _ in 0..5 {
            let _ = space.executions();
        }
        let stats = space.stats();
        assert_eq!(stats.enumerations, 1);
        assert_eq!(stats.cache_hits, 4);
    }

    #[test]
    fn matching_space_is_cached_per_target() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::new(t.program().clone());
        let a = space.matching(t.target());
        let b = space.matching(t.target());
        assert!(SpaceView::ptr_eq(&a, &b));
        assert_eq!(space.stats().enumerations, 1);
    }

    #[test]
    fn matching_after_full_filters_without_enumerating() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::new(t.program().clone());
        let full = space.executions();
        let matched = space.matching(t.target());
        assert_eq!(
            space.stats().enumerations,
            1,
            "restriction must filter the full space"
        );
        assert!(matched.len() <= full.len());
        // The filtered view is an index list over the full arena, not a
        // copy of the candidates.
        assert!(Arc::ptr_eq(matched.arena(), full.arena()));
        let observed = t.target().observed();
        assert!(matched
            .to_vec()
            .iter()
            .all(|e| e.outcome(observed) == *t.target()));
    }

    #[test]
    fn matching_agrees_with_one_shot_witness_search() {
        for t in [
            suite::mp([MemOrder::Rlx; 4]),
            suite::mp([MemOrder::Rlx, MemOrder::Rel, MemOrder::Acq, MemOrder::Rlx]),
            suite::sb([MemOrder::Sc; 4]),
        ] {
            let space = ExecutionSpace::new(t.program().clone());
            // Trivial model: everything consistent, so a witness exists
            // exactly when the target view is non-empty.
            assert_eq!(
                !space.matching(t.target()).is_empty(),
                ExecutionSpace::witness_search(t.program(), t.target(), |_| true),
                "{}",
                t.name()
            );
            // Impossible model: nothing consistent.
            assert!(!ExecutionSpace::witness_search(
                t.program(),
                t.target(),
                |_| false
            ));
        }
    }

    #[test]
    fn outcome_groups_cover_the_free_outcome_set() {
        let t = suite::wrc([MemOrder::Rlx; 5]);
        let space = ExecutionSpace::new(t.program().clone());
        let via_space: BTreeSet<Outcome> = space
            .outcome_groups(t.observed())
            .iter()
            .map(|(outcome, _)| outcome.clone())
            .collect();
        let direct = outcome_set(t.program(), t.observed(), |_| true);
        assert_eq!(via_space, direct);
    }

    #[test]
    fn outcome_groups_partition_the_full_space() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::new(t.program().clone());
        let groups = space.outcome_groups(t.observed());
        let total: usize = groups.iter().map(|(_, members)| members.len()).sum();
        assert_eq!(total, space.executions().len());
        // Every member really produces its group's outcome, and groups
        // are disjoint by construction (BTreeMap keys).
        let arena = Arc::clone(space.executions().arena());
        for (outcome, members) in groups.iter() {
            for &i in members {
                assert_eq!(&arena.outcome_of(i, t.observed()), outcome);
            }
        }
    }

    #[test]
    fn outcome_groups_are_computed_once_per_register_list() {
        let t = suite::sb([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::new(t.program().clone());
        let a = space.outcome_groups(t.observed());
        // Reading the full arena to partition it is no reuse ...
        assert_eq!(space.stats().cache_hits, 0);
        let b = space.outcome_groups(t.observed());
        assert!(Arc::ptr_eq(&a, &b));
        // ... but answering from the cached partition is.
        assert_eq!(space.stats().cache_hits, 1);
        assert_eq!(
            space.stats().enumerations,
            1,
            "partitioning must reuse the one full enumeration"
        );
        // Later views (distinct models' scans) reuse the one
        // enumeration too.
        let _ = space.executions();
        assert!(!space.matching(t.target()).is_empty());
        assert_eq!(space.stats().enumerations, 1);
    }

    #[test]
    fn snapshot_roundtrips_every_materialized_view() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::new(t.program().clone());
        let _ = space.matching(t.target());
        let _ = space.outcome_groups(t.observed());
        let bytes = space.snapshot();
        let restored =
            ExecutionSpace::from_snapshot(t.program().clone(), &bytes).expect("roundtrip");
        assert_eq!(restored.executions().to_vec(), space.executions().to_vec());
        assert_eq!(
            restored.matching(t.target()).to_vec(),
            space.matching(t.target()).to_vec()
        );
        assert_eq!(
            restored.outcome_groups(t.observed()),
            space.outcome_groups(t.observed())
        );
        // Re-snapshotting the restored space is byte-identical — the
        // store's skip-unchanged-writes contract depends on it.
        assert_eq!(restored.snapshot(), bytes);
    }

    #[test]
    fn matching_only_snapshot_roundtrips_restricted_arenas() {
        // A target-mode space never materializes the full arena: its
        // matching view is a dedicated restricted arena and must
        // round-trip as one.
        let t = suite::sb([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::new(t.program().clone());
        let direct = space.matching(t.target()).to_vec();
        let bytes = space.snapshot();
        let restored = ExecutionSpace::from_snapshot(t.program().clone(), &bytes).expect("decode");
        assert_eq!(restored.matching(t.target()).to_vec(), direct);
        assert_eq!(restored.stats().enumerations, 0);
        assert_eq!(restored.snapshot(), bytes);
    }

    #[test]
    fn restored_views_answer_without_enumerating() {
        let t = suite::sb([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::new(t.program().clone());
        let direct = space.matching(t.target()).len();
        assert_eq!(space.stats().enumerations, 1);

        let restored =
            ExecutionSpace::from_snapshot(t.program().clone(), &space.snapshot()).expect("decode");
        assert_eq!(restored.stats().enumerations, 0);
        assert_eq!(restored.matching(t.target()).len(), direct);
        // The restored matching view is a cache hit, not an enumeration.
        assert_eq!(restored.stats().enumerations, 0);
        assert_eq!(restored.stats().cache_hits, 1);
    }

    #[test]
    fn empty_snapshot_restores_an_unmaterialized_space() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::new(t.program().clone());
        let bytes = space.snapshot();
        let restored = ExecutionSpace::from_snapshot(t.program().clone(), &bytes).expect("decode");
        // Nothing was materialized, so the restored space enumerates on
        // first use like a fresh one.
        assert_eq!(
            restored.matching(t.target()).len(),
            space.matching(t.target()).len()
        );
        assert_eq!(restored.stats().enumerations, 1);
    }

    #[test]
    fn corrupted_snapshot_is_rejected() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::new(t.program().clone());
        let _ = space.executions();
        let _ = space.matching(t.target());
        let _ = space.outcome_groups(t.observed());
        let bytes = space.snapshot();
        // Truncations of every length fail cleanly.
        for cut in 0..bytes.len() {
            assert!(
                ExecutionSpace::from_snapshot(t.program().clone(), &bytes[..cut]).is_err(),
                "truncation to {cut} bytes must not decode"
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes;
        padded.push(0);
        assert!(ExecutionSpace::from_snapshot(t.program().clone(), &padded).is_err());
    }

    #[test]
    fn pruned_space_holds_exactly_the_core_consistent_candidates() {
        use crate::enumerate::core_consistent;
        use crate::mir::{Expr, Instr, Val};
        // T0 writes x then reads it back; T1 writes x remotely. The
        // candidates where T0's read misses its own earlier write (reads
        // init, or a remote write coherence-before its own) violate the
        // coherence core and must be pruned.
        let prog: Program<MemOrder> = Program::new(
            vec![
                vec![
                    Instr::Write {
                        addr: Expr::Const(1),
                        val: Expr::Const(1),
                        ann: MemOrder::Rlx,
                    },
                    Instr::Read {
                        dst: Reg(0),
                        addr: Expr::Const(1),
                        ann: MemOrder::Rlx,
                    },
                ],
                vec![Instr::Write {
                    addr: Expr::Const(1),
                    val: Expr::Const(2),
                    ann: MemOrder::Rlx,
                }],
            ],
            [],
        )
        .expect("valid program");
        let full = ExecutionSpace::new(prog.clone());
        let pruned = ExecutionSpace::pruned(prog.clone());
        let expect: Vec<_> = full
            .executions()
            .to_vec()
            .into_iter()
            .filter(core_consistent)
            .collect();
        assert_eq!(pruned.executions().to_vec(), expect);
        assert!(pruned.executions().len() < full.executions().len());
        assert!(pruned.stats().candidates_pruned > 0);
        assert_eq!(full.stats().candidates_pruned, 0);
        // Matching views agree the same way: the "read the remote
        // write" outcome survives only with the remote write
        // coherence-after the local one.
        let target = Outcome::from_values([((0, Reg(0)), Val(2))]);
        let matched: Vec<_> = full
            .matching(&target)
            .to_vec()
            .into_iter()
            .filter(core_consistent)
            .collect();
        assert_eq!(pruned.matching(&target).to_vec(), matched);
        assert_eq!(pruned.matching(&target).len(), 1);
    }

    #[test]
    fn pruned_space_restores_from_snapshots_as_pruned() {
        let t = suite::sb([MemOrder::Rlx; 4]);
        let space = ExecutionSpace::pruned(t.program().clone());
        let n = space.executions().len();
        let restored = ExecutionSpace::from_snapshot(t.program().clone(), &space.snapshot())
            .expect("decode")
            .into_pruned();
        assert_eq!(restored.executions().len(), n);
        // The restored view is served from the snapshot, not re-pruned.
        assert_eq!(restored.stats().enumerations, 0);
        assert_eq!(restored.stats().candidates_pruned, 0);
        // A new view enumerated on the restored space prunes again.
        let _ = restored.matching(t.target());
    }

    #[test]
    fn spaces_are_shareable_across_threads() {
        let t = suite::iriw([MemOrder::Rlx; 6]);
        let space = Arc::new(ExecutionSpace::new(t.program().clone()));
        let counts: Vec<usize> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let space = Arc::clone(&space);
                    s.spawn(move || space.executions().len())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("space worker"))
                .collect()
        });
        assert!(counts.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(
            space.stats().enumerations,
            1,
            "OnceLock must serialize the enumeration"
        );
    }
}
