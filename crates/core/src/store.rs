//! The persistence seam of the sweep engine: a [`SpaceStore`] supplies
//! previously-computed execution spaces and C11 verdicts to a sweep and
//! receives newly-computed ones back.
//!
//! The engine's three cache layers (C11 verdict per test, compilation
//! per (test, mapping), execution space per distinct compiled program —
//! built only when a store is attached; a store-less sweep streams)
//! live for one `run_matrix` call. A store extends the first and third
//! across calls — and, with an on-disk implementation, across *process
//! lifetimes*: a warm store turns "enumerate once per sweep" into
//! "enumerate once, ever". Compilation is deliberately not persisted;
//! it is orders of magnitude cheaper than enumeration and re-running it
//! is what lets the store validate cached spaces against the actual
//! compiled program.
//!
//! The trait is defined here (not in `tricheck-dist`, which implements
//! the on-disk store) so [`SweepOptions`](crate::SweepOptions) can carry
//! a store without `tricheck-core` depending on the distribution layer.
//!
//! # Contract
//!
//! Implementations must be infallible from the sweep's point of view: a
//! load that cannot be satisfied — missing entry, corrupt file, format
//! version mismatch, fingerprint collision — returns `None` and the
//! engine recomputes. A store may lose writes (e.g. when two shard
//! processes race on one file); it must never return a value for a key
//! it does not structurally match.

use std::collections::BTreeSet;
use std::fmt;

use tricheck_isa::HwAnnot;
use tricheck_litmus::{ExecutionSpace, LitmusTest, Outcome, Program};

use crate::runner::OutcomeMode;

/// A cached Step 1 result: the C11 target verdict, or the full
/// permitted-outcome set, depending on the sweep's [`OutcomeMode`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum C11Cached {
    /// `C11Model::permits_target` for the test's designated outcome.
    Target(bool),
    /// `C11Model::permitted_outcomes` (full-outcome-set mode).
    Full(BTreeSet<Outcome>),
}

impl C11Cached {
    /// The [`OutcomeMode`] this entry answers. A store keys entries by
    /// mode so a target verdict is never served to an outcome-set sweep.
    #[must_use]
    pub fn mode(&self) -> OutcomeMode {
        match self {
            C11Cached::Target(_) => OutcomeMode::Target,
            C11Cached::Full(_) => OutcomeMode::FullOutcomes,
        }
    }
}

/// Effectiveness counters of a [`SpaceStore`], reported by the CLI's
/// `--cache-stats` and asserted by the warm-run tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StoreStats {
    /// Execution-space loads served from the store.
    pub space_hits: usize,
    /// Execution-space loads the store could not serve.
    pub space_misses: usize,
    /// C11 verdict loads served from the store.
    pub c11_hits: usize,
    /// C11 verdict loads the store could not serve.
    pub c11_misses: usize,
    /// Entries or files discarded as corrupt, truncated, or written by
    /// an incompatible format version (each discard degrades to a
    /// recompute, never to a wrong row).
    pub evictions: usize,
    /// Files (or file replacements) written back.
    pub writes: usize,
}

impl StoreStats {
    /// Every field as a stable `(name, value)` pair, `store_`-prefixed
    /// to keep the merged counter namespace collision-free.
    #[must_use]
    pub fn as_counters(&self) -> [(&'static str, u64); 6] {
        [
            ("store_space_hits", self.space_hits as u64),
            ("store_space_misses", self.space_misses as u64),
            ("store_c11_hits", self.c11_hits as u64),
            ("store_c11_misses", self.c11_misses as u64),
            ("store_evictions", self.evictions as u64),
            ("store_writes", self.writes as u64),
        ]
    }

    /// Field-wise sum, for aggregating per-shard store reports.
    #[must_use]
    pub fn merged(&self, other: &StoreStats) -> StoreStats {
        StoreStats {
            space_hits: self.space_hits + other.space_hits,
            space_misses: self.space_misses + other.space_misses,
            c11_hits: self.c11_hits + other.c11_hits,
            c11_misses: self.c11_misses + other.c11_misses,
            evictions: self.evictions + other.evictions,
            writes: self.writes + other.writes,
        }
    }
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} space hits, {} space misses; {} c11 hits, {} c11 misses; \
             {} evicted, {} written",
            self.space_hits,
            self.space_misses,
            self.c11_hits,
            self.c11_misses,
            self.evictions,
            self.writes
        )
    }
}

/// A persistent memoization of sweep work, keyed by content: execution
/// spaces by compiled program, C11 verdicts by (test name, test
/// content, mode).
///
/// See the module docs for the correctness contract. The on-disk
/// implementation lives in `tricheck-dist`.
pub trait SpaceStore: Send + Sync {
    /// Loads the execution space of `program`, with whatever views
    /// (full / per-target matching / outcome partitions) were
    /// materialized when it was saved. Returns `None` on any miss or
    /// validation failure.
    fn load_space(&self, program: &Program<HwAnnot>) -> Option<ExecutionSpace<HwAnnot>>;

    /// Saves a space's materialized views, superseding any previous
    /// entry for the same program (the sweep only saves spaces whose
    /// views are supersets of what it loaded).
    fn save_space(&self, space: &ExecutionSpace<HwAnnot>);

    /// Loads the cached Step 1 result for `test` in `mode`.
    fn load_c11(&self, test: &LitmusTest, mode: OutcomeMode) -> Option<C11Cached>;

    /// Saves a Step 1 result. Saving a value equal to the stored one is
    /// a no-op.
    fn save_c11(&self, test: &LitmusTest, value: &C11Cached);

    /// Makes buffered writes durable. The sweep calls this once at the
    /// end of a run.
    fn flush(&self);

    /// The store's effectiveness counters so far.
    fn stats(&self) -> StoreStats;
}
