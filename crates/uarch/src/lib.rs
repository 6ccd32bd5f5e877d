//! Axiomatic microarchitecture memory models — TriCheck's Step 3
//! (ISA µSPEC EVALUATION).
//!
//! The paper models seven RISC-V-compliant microarchitectures (its
//! Table/Figure 7), derived from the Rocket Chip and progressively
//! relaxing program order and store atomicity. This crate reproduces them
//! as axiomatic models in the style of Alglave et al.'s *Herding Cats*
//! framework, at ISA-visible granularity: the observability verdict for a
//! compiled litmus test is what TriCheck's Step 4 consumes, and for these
//! relaxations the axiomatic formulation and the paper's µhb-graph models
//! accept the same outcomes (validated against every qualitative claim in
//! the paper's §5; see DESIGN.md §2.4).
//!
//! # Models
//!
//! | model | relaxes | store atomicity |
//! |-------|---------|-----------------|
//! | `WR`  | W→R | multi-copy atomic (no store-buffer forwarding) |
//! | `rWR` | W→R | read-own-write-early (forwarding) |
//! | `rWM` | W→R, W→W | rMCA |
//! | `rMM` | W→R, W→W, R→M | rMCA |
//! | `nWR` | W→R | non-MCA (shared store buffers) |
//! | `nMM` | W→R, W→W, R→M | non-MCA |
//! | `A9like` | W→R, W→W, R→M | non-MCA via non-stalling coherence |
//!
//! `A9like` differs from `nMM` in one ISA-visible way (§6.1): its AMOs
//! complete through the coherence protocol, so writes of SC-annotated
//! AMOs are globally visible to *any* reader, while the shared-store-
//! buffer models only serialize SC AMOs against each other.
//!
//! Each model comes in a `riscv-curr` and a `riscv-ours` flavour
//! ([`tricheck_isa::SpecVersion`]), differing in the §5 refinements:
//! same-address load→load ordering, cumulative fences/releases, lazy
//! (acquire-only) release synchronization, and the `.sc` bit.
//!
//! # Axioms
//!
//! For every candidate execution of a compiled program:
//!
//! 1. **SC-per-location**: `acyclic(po_loc′ ∪ rf ∪ co ∪ fr)`, where
//!    `po_loc′` keeps locally-ordered same-address pairs and omits
//!    same-address R→R pairs only when the pipeline reorders reads and
//!    the ISA permits it (§5.1.3).
//! 2. **Atomicity**: `rmw ∩ (fr ; co) = ∅`.
//! 3. **Causality**: `acyclic(hb)`,
//!    `hb = ppo ∪ fences ∪ rfe (∪ rfi on MCA)`.
//! 4. **Observation**: `irreflexive(fre ; prop)` — `prop` carries its own
//!    soundness-scoped extensions (global drains compose freely,
//!    per-observer orderings relay through one reads-from hop only).
//! 5. **Propagation**: `acyclic(co ∪ prop)`.
//! 6. **SC-AMO order** (Base+A): `acyclic([sc] ; (hb⁺ ∪ po ∪ com) ; [sc])`.
//!
//! `prop` is where store atomicity lives: (r)MCA models use the strong
//! `ppo ∪ fences ∪ rf(e) ∪ fr`; non-MCA models build `prop` from fence
//! cumulativity, Power-style (see [`model`] for the construction).
//!
//! # Models as data
//!
//! Every model is a declarative [`tricheck_rel::ModelIr`], and every
//! model is a file. The 16 built-ins — the seven Table 7 µarchs under
//! each spec version (`models/riscv-curr/`, `models/riscv-ours/`) and
//! the two ARMv7 machines (`models/armv7/`) — are committed model text,
//! compiled in with `include_str!` and parsed once per process; the
//! named constructors ([`UarchModel::nmm`], [`UarchModel::all_riscv`],
//! …) and [`UarchModel::builtin`] look them up by name. A new machine
//! is a new file: parsed against [`hw_vocabulary`] and wrapped by
//! [`UarchModel::from_ir`], it is judged exactly like a built-in, with
//! no Rust change. The x86-TSO model of `models/x86-tso.stack` is the
//! worked example of a stack file; the stack registry
//! (`tricheck-core`) loads that file as the built-in x86 study. The
//! [`HwBinding`] supplies the model-free base relations (program order,
//! communication, fence edge sets, AMO ordering-bit sets) every model
//! draws from. Every model is judged by one evaluator, its compiled
//! kernel (`UarchModel::compiled`).
//!
//! # Examples
//!
//! ```
//! use tricheck_compiler::{compile, riscv_mapping};
//! use tricheck_isa::{RiscvIsa, SpecVersion};
//! use tricheck_litmus::{suite, ConsistencyModel};
//! use tricheck_uarch::UarchModel;
//!
//! // The Figure 3 WRC outcome is observable on the shared-store-buffer
//! // model under the 2016 ISA (no cumulative fences exist to prevent it).
//! let mapping = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
//! let compiled = compile(&suite::fig3_wrc(), mapping)?;
//! let nwr = UarchModel::nwr(SpecVersion::Curr);
//! assert!(nwr.observes(compiled.program(), compiled.target()));
//! # Ok::<(), tricheck_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ir;
pub mod model;

pub use ir::{
    hw_lint_schema, hw_vocabulary, HwBinding, HW_REL_BASES, HW_SET_BASES, SORT_F, SORT_R, SORT_W,
};
pub use model::UarchModel;
