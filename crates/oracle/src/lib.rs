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
//!   oracle independent of `build_uarch_ir`;
//! - [`c11_check`]: the imperative C11 checker, independent of
//!   `C11Model::ir`.
//!
//! `tests/model_properties.rs` runs all three against the kernel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod c11;
mod interpret;
mod random;
mod uarch;

pub use c11::c11_check;
pub use interpret::interpret;
pub use random::random_ir;
pub use uarch::uarch_check;
