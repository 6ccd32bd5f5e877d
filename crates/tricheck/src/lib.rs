//! **TriCheck** — full-stack memory consistency model (MCM) verification
//! at the trisection of software, hardware, and ISA.
//!
//! This is the facade crate of the TriCheck reproduction (Trippel et al.,
//! ASPLOS 2017): it re-exports every layer of the stack under one roof.
//!
//! | module | crate | role |
//! |--------|-------|------|
//! | [`rel`] | `tricheck-rel` | bitset relation algebra + the axiomatic-model IR |
//! | [`litmus`] | `tricheck-litmus` | micro-IR, enumeration, test generator |
//! | [`c11`] | `tricheck-c11` | the C11 axiomatic model (Step 1) |
//! | [`isa`] | `tricheck-isa` | RISC-V / Power instruction annotations |
//! | [`compiler`] | `tricheck-compiler` | Tables 1–3 mappings (Step 2) |
//! | [`uarch`] | `tricheck-uarch` | the µarch models, built-ins as files under `models/` (Step 3) |
//! | [`core`] | `tricheck-core` | classification & sweeps (Step 4) |
//! | [`dist`] | `tricheck-dist` | sharded multi-process sweeps + on-disk store |
//! | [`trace`] | `tricheck-trace` | structured tracing + metrics for the pipeline |
//!
//! The facade holds the pipeline only. The operational store-buffer
//! machines (`tricheck-opsim`, a cross-validation oracle) and the
//! Figure 2 sieve workload (`tricheck-sieve`) are separate crates that
//! examples, tests and benches depend on directly.
//!
//! # Quickstart
//!
//! ```
//! use tricheck::prelude::*;
//!
//! // Build a C11 litmus test (write-to-read causality, Figure 3).
//! let test = suite::fig3_wrc();
//!
//! // Assemble a full stack: Intuitive Base mapping on the shared-store-
//! // buffer microarchitecture, under the 2016 RISC-V spec.
//! let intuitive = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
//! let stack = TriCheck::new(intuitive, UarchModel::nwr(SpecVersion::Curr));
//!
//! // C11 forbids the outcome, the hardware exhibits it: a bug.
//! assert_eq!(stack.verify(&test)?.classification(), Classification::Bug);
//! # Ok::<(), tricheck::compiler::CompileError>(())
//! ```
//!
//! # Pipeline architecture: enumerate once, judge everywhere
//!
//! Every verification question in the stack factors through the same
//! three stages, and the crates are arranged so each stage's work is
//! computed at the widest scope it is valid for:
//!
//! ```text
//!   LitmusTest ──compile(mapping)──▶ Program<HwAnnot>
//!        │                                │
//!        │ one C11 verdict per test       │ one ExecutionSpace per
//!        ▼                                ▼ distinct compiled program
//!   C11Model::permits_target     ExecutionSpace (litmus::space)
//!        │                                │
//!        │     ConsistencyModel::{observes, permits}: candidates stream
//!        │     through one Judge (kernel, one prelude, one scratch)
//!        │                                │  ← C11Model and UarchModel
//!        ▼                                ▼    are both a kernel + a binding
//!      Step 1 verdict ──────────▶ Step 4 classification ◀── Step 3 verdict
//! ```
//!
//! - **Enumeration** ([`litmus::ExecutionSpace`]) depends only on the
//!   program: it is lazily materialized at most once per structural
//!   [`litmus::Fingerprint`] and shared by every model that judges the
//!   program. A short-circuiting witness mode serves one-shot queries.
//! - **Judgement** ([`litmus::ConsistencyModel`]) is a compiled kernel
//!   plus a way to bind one candidate to it; [`c11::C11Model`] and
//!   [`uarch::UarchModel`] both implement it and inherit one judging
//!   loop: every verdict — over a shared space or a one-shot streaming
//!   enumeration, C11 or µarch — streams its candidates through one
//!   [`rel::Judge`], which evaluates the kernel's space-invariant prelude
//!   once per stream.
//! - **Scheduling** ([`core::Sweep`]) compiles every (test, mapping)
//!   pair once, groups the (test × stack) visits by compiled program,
//!   and fans one work item per distinct program over a work-stealing
//!   pool. The matrix's distinct µarch models are fused into one kernel
//!   ([`uarch::UarchModel::fuse`]), so each distinct (program, target)
//!   is judged once, under the models of every mapping that emitted
//!   it, in one pass ([`litmus::witness_mask`]) by the worker's one
//!   judge. `SweepResults::stats()` proves the exactly-once
//!   contract, and `SweepOptions { threads: 1 }` degrades to a fully
//!   deterministic serial run.
//!
//! The pre-engine per-cell pipeline survives as
//! `tricheck_oracle::run_matrix_naive` (in the test-only oracle crate),
//! the unpruned reference the differential tests in
//! `tests/engine_equivalence.rs` and `tests/model_properties.rs`
//! compare sweeps against.
//!
//! # Stacks are data
//!
//! Every sweep matrix is a registry entry ([`core::StackRegistry`]),
//! and every built-in is a committed stack file: `riscv` (Figure 15) is
//! `models/riscv.stack`, `power` (§7) is `models/power.stack` and
//! `x86-tso` is `models/x86-tso.stack`. They are compiled in, parsed
//! once, and assembled by the same loader as a user's
//! `sweep --stack FILE`; every compiler mapping — built-in or loaded —
//! is a [`compiler::TableMapping`] in one of those files' `mapping`
//! sections.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tricheck_c11 as c11;
pub use tricheck_compiler as compiler;
pub use tricheck_core as core;
pub use tricheck_dist as dist;
pub use tricheck_isa as isa;
pub use tricheck_litmus as litmus;
pub use tricheck_rel as rel;
pub use tricheck_trace as trace;
pub use tricheck_uarch as uarch;

/// The most common imports for driving the toolflow.
pub mod prelude {
    pub use tricheck_c11::{C11Model, C11Verdict};
    pub use tricheck_compiler::{
        compile, power_mapping, riscv_mapping, Mapping, PowerSyncStyle, TableMapping,
    };
    pub use tricheck_core::{
        builtin_stack, report, riscv_stacks, Classification, MatrixStack, OutcomeMode, SpaceStore,
        StackKey, StackRegistry, Sweep, SweepOptions, SweepResults, TestResult, TriCheck,
    };
    pub use tricheck_dist::{run_sharded, DiskStore, DistOptions, DistResults};
    pub use tricheck_isa::{format_program, AmoBits, Asm, HwAnnot, RiscvIsa, SpecVersion};
    pub use tricheck_litmus::{suite, ConsistencyModel, LitmusTest, MemOrder, Outcome, Program};
    pub use tricheck_uarch::UarchModel;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_a_full_stack() {
        use crate::prelude::*;
        let refined = riscv_mapping(RiscvIsa::Base, SpecVersion::Ours);
        let stack = TriCheck::new(refined, UarchModel::nmm(SpecVersion::Ours));
        let r = stack.verify(&suite::fig3_wrc()).expect("compiles");
        assert_eq!(r.classification(), Classification::Equivalent);
    }
}
