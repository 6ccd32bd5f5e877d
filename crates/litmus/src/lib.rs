//! Litmus-test infrastructure for TriCheck: a shared micro-IR for
//! multi-threaded straight-line programs, exhaustive candidate-execution
//! enumeration, and the litmus test generator from the paper's §3.2.
//!
//! # Overview
//!
//! TriCheck compares the behaviours a high-level language memory model
//! (C11) permits for a small concurrent program against the behaviours a
//! microarchitecture exhibits for the compiled version of that program.
//! Both levels share the same program shape — a handful of threads, each a
//! short straight-line sequence of loads, stores, read-modify-writes and
//! fences over a few shared locations — so this crate provides one
//! representation for both, generic over a per-instruction annotation type:
//! C11 memory orders ([`MemOrder`]) at the language level, or hardware
//! annotations (fences and AMO ordering bits, defined in `tricheck-isa`)
//! at the ISA level.
//!
//! The centrepiece is [`enumerate_executions`], which enumerates every
//! *candidate execution* of a program: an assignment of a source write to
//! every read (`rf`) plus a per-location total order over writes (`co`).
//! Memory models then act as consistency predicates over candidates; the
//! set of program outcomes a model allows is the set of register
//! valuations of its consistent candidates.
//!
//! Materialized candidate spaces are stored *columnar*: an
//! [`ExecutionSpace`] keeps its candidates in an [`ExecArena`] — one
//! skeleton `Execution` plus flat per-column buffers for the
//! candidate-varying `rf`/`co` (and derived `fr`) relation rows and
//! resolved locations/values — and serves views as `u32` index lists
//! over the arena. Scans rebind an [`ExecCursor`] per candidate instead
//! of cloning executions, so judging a space allocates nothing per
//! candidate and dropping it costs a handful of buffer frees. See the
//! [`arena`] module docs for the layout and its invariants.
//!
//! # Example: enumerate the outcomes of store buffering
//!
//! ```
//! use tricheck_litmus::{suite, enumerate_executions, MemOrder};
//!
//! let test = suite::sb([MemOrder::Rlx, MemOrder::Rlx, MemOrder::Rlx, MemOrder::Rlx]);
//! let mut outcomes = std::collections::BTreeSet::new();
//! enumerate_executions(test.program(), &mut |exec| {
//!     outcomes.insert(exec.outcome(test.observed()));
//!     true
//! });
//! // Without any consistency predicate, all 4 combinations of the two
//! // reads are candidate outcomes.
//! assert_eq!(outcomes.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod codec;
pub mod enumerate;
pub mod exec;
pub mod extra;
pub mod format;
pub mod mir;
pub mod order;
pub mod outcome;
pub mod space;
pub mod suite;
pub mod template;

pub use arena::{ExecArena, ExecCursor};
pub use codec::{AnnCodec, ByteReader, CodecError};
pub use enumerate::{
    core_consistent, count_executions, enumerate_executions, enumerate_executions_pruned,
    enumerate_matching, enumerate_matching_pruned, outcome_set, target_realizable, EnumScratch,
    Enumeration,
};
pub use exec::{Event, EventKind, Execution};
pub use mir::{Expr, Instr, Loc, Program, ProgramError, Reg, RmwKind, Val};
pub use order::MemOrder;
pub use outcome::Outcome;
pub use space::{
    outcome_masks, witness_mask, ConsistencyModel, ExecutionSpace, Fingerprint, OutcomeGroups,
    SpaceStats, SpaceView,
};
pub use template::{LitmusTest, SlotKind, Template};
