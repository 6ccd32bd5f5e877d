//! Columnar (structure-of-arrays) storage for candidate executions.
//!
//! Enumerating a program's candidate space used to materialize one owned
//! [`Execution`] per candidate — thousands of small allocations per
//! program, all paid again at drop time (the `teardown` deallocation
//! bursts the metrics layer exposed). But candidates of one program
//! differ **only** in their `rf`/`co` witness relations and the
//! location/value resolution they imply; events, `po`, dependencies,
//! `rmw`, init sets and register definitions are identical across the
//! whole space.
//!
//! [`ExecArena`] stores exactly that factoring: one *skeleton*
//! `Execution` (the invariant part, kept from the first candidate) plus
//! flat per-column buffers holding every candidate's varying state
//! side by side —
//!
//! - `rf`, `co`, `fr`: `len × n` `u64` relation rows (candidate `i`'s
//!   rows occupy words `[i*n, (i+1)*n)`; `fr = rf⁻¹;co` is derived once
//!   at insertion so judges never recompute it),
//! - `loc`, `val`: `len × n` resolved locations/values.
//!
//! The whole space frees in O(columns) buffer drops instead of
//! O(candidates) small frees, and views over it (target-restricted
//! matching sets, outcome partitions) are `u32` index lists instead of
//! cloned candidate vectors.
//!
//! [`ExecCursor`] is the read side: it owns one skeleton copy and
//! rebinds it to any candidate index by copying that candidate's rows
//! out of the columns — zero allocations per candidate. The copy can
//! reuse a caller's execution buffer ([`ExecArena::cursor_in`]), so a
//! worker that keeps one allocates nothing per cursor either. The rebound
//! `Execution` is bit-identical (`==`) to the one the enumerator
//! visited, so every existing model predicate works unchanged.

use std::sync::{Arc, OnceLock};

use tricheck_rel::Relation;

use crate::exec::Execution;
use crate::mir::{Loc, Reg, Val};
use crate::outcome::Outcome;

/// Borrowed views of an arena's persisted columns, in declaration
/// order: `rf` row-words, `co` row-words, `loc`, `val`.
pub(crate) type RawColumns<'a> = (&'a [u64], &'a [u64], &'a [Option<Loc>], &'a [Option<Val>]);

/// Columnar pool of the candidate executions of one program.
///
/// Built once (by an enumeration pass or a snapshot decode), then
/// shared immutably behind an [`Arc`]. See the [module docs](self) for
/// the layout.
#[derive(Debug)]
pub struct ExecArena<A> {
    /// The candidate-invariant part, cloned from the first candidate
    /// pushed. `None` iff the arena is empty.
    skeleton: Option<Execution<A>>,
    /// Events per candidate (0 while empty).
    n: usize,
    /// Number of candidates stored.
    len: usize,
    rf: Vec<u64>,
    co: Vec<u64>,
    fr: Vec<u64>,
    loc: Vec<Option<Loc>>,
    val: Vec<Option<Val>>,
    /// Lazily-built identity index list (`0..len`), shared by every
    /// whole-arena view so "all candidates" costs one allocation total.
    all: OnceLock<Arc<Vec<u32>>>,
}

impl<A: Clone> ExecArena<A> {
    /// An empty arena; candidates are added with [`ExecArena::push`].
    #[must_use]
    pub fn new() -> Self {
        ExecArena {
            skeleton: None,
            n: 0,
            len: 0,
            rf: Vec::new(),
            co: Vec::new(),
            fr: Vec::new(),
            loc: Vec::new(),
            val: Vec::new(),
            all: OnceLock::new(),
        }
    }

    /// Appends one candidate: its `rf`/`co` rows, derived `fr` rows and
    /// `loc`/`val` columns. The first push also clones the candidate as
    /// the arena's skeleton.
    ///
    /// # Panics
    ///
    /// Panics if the candidate's event count differs from the first
    /// candidate's, or if the arena already holds `u32::MAX` candidates
    /// (index lists are `u32`).
    pub fn push(&mut self, exec: &Execution<A>) {
        match &self.skeleton {
            None => {
                self.n = exec.len();
                self.skeleton = Some(exec.clone());
            }
            Some(_) => assert_eq!(
                exec.len(),
                self.n,
                "candidates of one space share an event universe"
            ),
        }
        assert!(
            self.len < u32::MAX as usize,
            "arena exceeds u32 candidate indices"
        );
        self.rf.extend_from_slice(exec.rf().row_words());
        self.co.extend_from_slice(exec.co().row_words());
        append_fr(exec.rf().row_words(), exec.co().row_words(), &mut self.fr);
        self.loc.extend_from_slice(&exec.loc);
        self.val.extend_from_slice(&exec.val);
        self.len += 1;
    }

    /// Number of candidates stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the arena holds no candidates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events per candidate (0 while the arena is empty).
    #[must_use]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// The candidate-invariant skeleton, if any candidate was pushed.
    /// Its `rf`/`co`/`loc`/`val` are candidate 0's.
    #[must_use]
    pub fn skeleton(&self) -> Option<&Execution<A>> {
        self.skeleton.as_ref()
    }

    /// Candidate `i`'s `rf` relation rows.
    #[must_use]
    pub fn rf_rows(&self, i: u32) -> &[u64] {
        self.rows(&self.rf, i)
    }

    /// Candidate `i`'s `co` relation rows.
    #[must_use]
    pub fn co_rows(&self, i: u32) -> &[u64] {
        self.rows(&self.co, i)
    }

    /// Candidate `i`'s derived `fr = rf⁻¹;co` relation rows.
    #[must_use]
    pub fn fr_rows(&self, i: u32) -> &[u64] {
        self.rows(&self.fr, i)
    }

    fn rows<'a>(&self, col: &'a [u64], i: u32) -> &'a [u64] {
        let i = i as usize;
        assert!(
            i < self.len,
            "candidate index {i} out of range {}",
            self.len
        );
        &col[i * self.n..(i + 1) * self.n]
    }

    /// Candidate `i`'s resolved event locations.
    #[must_use]
    pub fn loc_col(&self, i: u32) -> &[Option<Loc>] {
        let i = i as usize;
        assert!(
            i < self.len,
            "candidate index {i} out of range {}",
            self.len
        );
        &self.loc[i * self.n..(i + 1) * self.n]
    }

    /// Candidate `i`'s resolved event values.
    #[must_use]
    pub fn val_col(&self, i: u32) -> &[Option<Val>] {
        let i = i as usize;
        assert!(
            i < self.len,
            "candidate index {i} out of range {}",
            self.len
        );
        &self.val[i * self.n..(i + 1) * self.n]
    }

    /// The outcome candidate `i` produces over `observed` registers,
    /// read straight from the value column (no `Execution`
    /// materialization).
    ///
    /// # Panics
    ///
    /// As [`Execution::outcome`]: an observed register the program never
    /// assigns, or an unresolved value, is a caller bug.
    #[must_use]
    pub fn outcome_of(&self, i: u32, observed: &[(usize, Reg)]) -> Outcome {
        let skeleton = self.skeleton.as_ref().expect("candidate index in range");
        let vals = self.val_col(i);
        let mut out = Outcome::new();
        for &(tid, reg) in observed {
            let e = skeleton
                .defining_event(tid, reg)
                .unwrap_or_else(|| panic!("register {reg} of thread {tid} is never assigned"));
            let v = vals[e].unwrap_or_else(|| panic!("value of event {e} unresolved"));
            out.set(tid, reg, v);
        }
        out
    }

    /// Materializes candidate `i` as an owned [`Execution`] —
    /// bit-identical to the one the enumerator visited. For scans, use
    /// an [`ExecCursor`] instead; this allocates per call.
    #[must_use]
    pub fn get(&self, i: u32) -> Execution<A> {
        let mut exec = self
            .skeleton
            .as_ref()
            .expect("candidate index in range")
            .clone();
        self.write_candidate_into(i, &mut exec);
        exec
    }

    /// Overwrites `exec`'s candidate-varying state (`rf`, `co`, `loc`,
    /// `val`) with candidate `i`'s columns. `exec` must be a skeleton
    /// clone of this arena (same universe).
    fn write_candidate_into(&self, i: u32, exec: &mut Execution<A>) {
        exec.rf.copy_row_words_from(self.rf_rows(i));
        exec.co.copy_row_words_from(self.co_rows(i));
        exec.loc.copy_from_slice(self.loc_col(i));
        exec.val.copy_from_slice(self.val_col(i));
    }

    /// The identity index list `0..len`, built once and shared.
    #[must_use]
    pub fn all_indices(&self) -> Arc<Vec<u32>> {
        Arc::clone(
            self.all
                .get_or_init(|| Arc::new((0..self.len as u32).collect())),
        )
    }

    /// A reusable cursor over this arena, or `None` if it is empty.
    #[must_use]
    pub fn cursor(&self) -> Option<ExecCursor<'_, A>> {
        (!self.is_empty()).then(|| self.cursor_in(Execution::default()))
    }

    /// A cursor that rebinds `buffer` — any execution, whose vectors'
    /// capacity it reuses — instead of a fresh skeleton clone;
    /// [`ExecCursor::into_buffer`] hands the buffer back.
    ///
    /// # Panics
    ///
    /// Panics if the arena is empty.
    #[must_use]
    pub fn cursor_in(&self, mut buffer: Execution<A>) -> ExecCursor<'_, A> {
        buffer.clone_from(self.skeleton.as_ref().expect("a cursor needs a candidate"));
        ExecCursor {
            arena: self,
            exec: buffer,
            fr: Relation::empty(self.n),
            pos: None,
        }
    }

    /// The whole flat `rf`/`co`/`loc`/`val` columns (the snapshot
    /// codec's encode side; `fr` is derived, never persisted).
    pub(crate) fn raw_columns(&self) -> RawColumns<'_> {
        (&self.rf, &self.co, &self.loc, &self.val)
    }

    /// Restores the columns of a decoded arena in bulk (snapshot path):
    /// the skeleton plus per-candidate `rf`/`co`/`loc`/`val`; `fr` is
    /// re-derived in one pass. Callers (the codec) have already
    /// validated lengths and bit ranges.
    pub(crate) fn from_columns(
        skeleton: Option<Execution<A>>,
        len: usize,
        rf: Vec<u64>,
        co: Vec<u64>,
        loc: Vec<Option<Loc>>,
        val: Vec<Option<Val>>,
    ) -> Self {
        let n = skeleton.as_ref().map_or(0, Execution::len);
        debug_assert_eq!(rf.len(), len * n);
        debug_assert_eq!(co.len(), len * n);
        debug_assert_eq!(loc.len(), len * n);
        debug_assert_eq!(val.len(), len * n);
        let mut fr = Vec::with_capacity(len * n);
        for i in 0..len {
            append_fr(&rf[i * n..(i + 1) * n], &co[i * n..(i + 1) * n], &mut fr);
        }
        ExecArena {
            skeleton,
            n,
            len,
            rf,
            co,
            fr,
            loc,
            val,
            all: OnceLock::new(),
        }
    }
}

impl<A: Clone> Default for ExecArena<A> {
    fn default() -> Self {
        Self::new()
    }
}

/// Appends `fr = rf⁻¹;co` rows for one candidate to a flat column:
/// `(r, x) ∈ fr` iff some write `w` has `rf(w, r)` and `co(w, x)`.
fn append_fr(rf: &[u64], co: &[u64], out: &mut Vec<u64>) {
    let n = rf.len();
    let start = out.len();
    out.resize(start + n, 0);
    for (w, &row) in rf.iter().enumerate() {
        let mut bits = row;
        while bits != 0 {
            let r = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            out[start + r] |= co[w];
        }
    }
}

/// A zero-allocation reader over an [`ExecArena`]: one skeleton clone,
/// rebound per candidate by copying rows out of the columns.
///
/// Obtained from [`ExecArena::cursor`]; the borrow keeps the arena
/// alive for the cursor's lifetime. [`ExecCursor::at`] positions the
/// cursor and returns the candidate as a `&Execution` every existing
/// consistency predicate accepts.
#[derive(Debug)]
pub struct ExecCursor<'a, A> {
    arena: &'a ExecArena<A>,
    exec: Execution<A>,
    /// The current candidate's `fr`, copied from the derived column so
    /// judges skip the `rf⁻¹;co` recompute.
    fr: Relation,
    pos: Option<u32>,
}

impl<A: Clone> ExecCursor<'_, A> {
    /// Positions the cursor on candidate `i` and returns it. Repeat
    /// calls with the same index are free.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn at(&mut self, i: u32) -> &Execution<A> {
        if self.pos != Some(i) {
            self.arena.write_candidate_into(i, &mut self.exec);
            self.fr.copy_row_words_from(self.arena.fr_rows(i));
            self.pos = Some(i);
        }
        &self.exec
    }

    /// The currently-bound candidate (candidate 0's state before the
    /// first [`ExecCursor::at`]).
    #[must_use]
    pub fn exec(&self) -> &Execution<A> {
        &self.exec
    }

    /// The currently-bound candidate's `fr = rf⁻¹;co` relation, served
    /// from the arena's derived column.
    ///
    /// Before the first [`ExecCursor::at`] this is the empty relation —
    /// position the cursor first.
    #[must_use]
    pub fn fr(&self) -> &Relation {
        &self.fr
    }

    /// The event-universe size of every candidate.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.arena.universe()
    }

    /// Ends the cursor, returning its execution buffer for reuse (see
    /// [`ExecArena::cursor_in`]).
    #[must_use]
    pub fn into_buffer(self) -> Execution<A> {
        self.exec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_executions;
    use crate::order::MemOrder;
    use crate::suite;

    fn arena_and_originals(
        test: &crate::template::LitmusTest,
    ) -> (ExecArena<MemOrder>, Vec<Execution<MemOrder>>) {
        let mut arena = ExecArena::new();
        let mut originals = Vec::new();
        enumerate_executions(test.program(), &mut |e| {
            arena.push(e);
            originals.push(e.clone());
            true
        });
        (arena, originals)
    }

    #[test]
    fn cursor_rebinds_bit_identical_candidates() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        let (arena, originals) = arena_and_originals(&t);
        assert_eq!(arena.len(), originals.len());
        let mut cursor = arena.cursor().expect("non-empty space");
        // Forward, backward, and repeated positioning all rebind exactly.
        for (i, original) in originals.iter().enumerate() {
            assert_eq!(cursor.at(i as u32), original);
        }
        for (i, original) in originals.iter().enumerate().rev() {
            assert_eq!(cursor.at(i as u32), original);
            assert_eq!(cursor.fr(), &original.fr());
        }
        for (i, original) in originals.iter().enumerate() {
            assert_eq!(&arena.get(i as u32), original);
        }
    }

    #[test]
    fn fr_column_matches_derived_fr() {
        let t = suite::wrc([MemOrder::Rlx; 5]);
        let (arena, originals) = arena_and_originals(&t);
        for (i, original) in originals.iter().enumerate() {
            assert_eq!(arena.fr_rows(i as u32), original.fr().row_words());
        }
    }

    #[test]
    fn outcome_of_matches_execution_outcome() {
        let t = suite::sb([MemOrder::Rlx; 4]);
        let (arena, originals) = arena_and_originals(&t);
        let observed = t.target().observed();
        for (i, original) in originals.iter().enumerate() {
            assert_eq!(
                arena.outcome_of(i as u32, observed),
                original.outcome(observed)
            );
        }
    }

    #[test]
    fn empty_arena_has_no_cursor() {
        let arena: ExecArena<MemOrder> = ExecArena::new();
        assert!(arena.is_empty());
        assert!(arena.cursor().is_none());
        assert_eq!(arena.all_indices().len(), 0);
    }

    #[test]
    fn all_indices_is_shared() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        let (arena, _) = arena_and_originals(&t);
        let a = arena.all_indices();
        let b = arena.all_indices();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.as_slice(), (0..arena.len() as u32).collect::<Vec<_>>());
    }
}
