//! Differential oracles for TriCheck's model evaluator, for tests and
//! benches only: production judges every candidate execution with one
//! evaluator, the compiled kernel (`tricheck_rel::CompiledModel`), and
//! this crate holds the independent implementations it is pinned
//! against, written against public APIs and reached only through
//! `[dev-dependencies]`:
//!
//! - [`interpret`]: a naive tree-walking interpreter of any `ModelIr`,
//!   the compiler's oracle on arbitrary IRs (drawn by [`random_ir`]);
//! - [`uarch_check`]: the imperative microarchitecture checker, the only
//!   oracle independent of the model text;
//! - [`c11_check`]: the imperative C11 checker, independent of
//!   `C11Model::ir`;
//! - [`run_matrix_naive`]: the per-cell, unpruned reference sweep that
//!   `Sweep::run_matrix`'s shared execution-space engine replaced;
//! - [`naive_candidates`]: the brute-force reference enumerator (every
//!   `rf` map × every per-location coherence order, filtered after the
//!   fact) that `EnumScratch::enumerate` is pinned against.
//!
//! `tests/model_properties.rs` runs the first three against the kernel;
//! `tests/engine_equivalence.rs` and `tests/power_equivalence.rs` pin
//! the engine's rows to the reference sweep's, and
//! `crates/oracle/tests/enumeration.rs` pins the enumerator's candidate
//! sets to the reference enumerator's.
//!
//! The crate also holds the knob generator of the built-in hardware
//! models ([`UarchConfig`], [`build_uarch_ir`]), and renders the
//! paper's Figure 7 from the same knobs ([`figure7`]). The models ship as the
//! committed files under `models/`; the generator pins that text to the
//! paper's Table 7 knobs, and [`uarch_check`] reads the same knobs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod c11;
mod config;
mod enumerate;
mod generate;
mod interpret;
mod random;
mod sweep;
mod uarch;

pub use c11::c11_check;
pub use config::{figure7, ReleasePredecessors, StoreAtomicity, UarchConfig};
pub use enumerate::{naive_candidates, Candidate};
pub use generate::build_uarch_ir;
pub use interpret::interpret;
pub use random::random_ir;
pub use sweep::run_matrix_naive;
pub use uarch::uarch_check;
