//! Allocation pins for the enumerate → bind → judge hot path.
//!
//! A counting global allocator (this test binary's own) counts the heap
//! allocations each thread makes, so each test measures only its own
//! work while the harness runs tests in parallel. Every pin runs over
//! the same fixed suite subset — the `wrc` and `mp` families, compiled
//! under the Base+A/riscv-curr mapping where a single mapping is needed
//! — and measures a second, warm pass, so one-time growth of reused
//! buffers and process-wide statics are not counted:
//!
//! - a pruned matching enumeration through a warm `EnumScratch`
//!   allocates nothing;
//! - a warm `Judge::check_mask` stream over a fused kernel allocates
//!   nothing per candidate, whether it reads a materialized space or
//!   judges each candidate inside the enumeration's callback (the
//!   store-less sweep's streamed judgement), and neither does a warm C11
//!   verdict;
//! - a serial Figure 15 sweep allocates at most 20 times per distinct
//!   program. What remains is compile output (the compiled programs,
//!   their targets and names) and the grouping pre-pass's tables; a
//!   store-less sweep builds no execution space.
//!
//! Run with `cargo test --release --test allocations`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tricheck::c11::C11Model;
use tricheck::compiler::{compile, riscv_mapping, CompiledTest};
use tricheck::core::{riscv_stacks, Sweep, SweepOptions};
use tricheck::isa::{RiscvIsa, SpecVersion};
use tricheck::litmus::{
    suite, witness_mask, ConsistencyModel, EnumScratch, ExecutionSpace, LitmusTest,
};
use tricheck::rel::{CompiledModel, Judge};
use tricheck::uarch::UarchModel;

/// Counts every allocation and reallocation of the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the thread-local may already be gone while a thread
    // tears down, and an allocator must not panic.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is a thread-local counter that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded with the caller's layout.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while running `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// The fixed subset every pin runs over: the `wrc` and `mp` families.
fn subset() -> Vec<LitmusTest> {
    suite::full_suite()
        .into_iter()
        .filter(|t| matches!(t.family(), "wrc" | "mp"))
        .collect()
}

fn compiled_subset() -> Vec<CompiledTest> {
    let mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
    subset()
        .iter()
        .map(|t| compile(t, mapping).expect("the suite compiles"))
        .collect()
}

#[test]
fn warm_pruned_matching_enumeration_allocates_nothing() {
    let compiled = compiled_subset();
    let mut scratch = EnumScratch::new();
    let mut enumerate_all = || {
        let mut candidates = 0usize;
        for c in &compiled {
            let run = scratch.enumerate(c.program(), Some(c.target()), true, &mut |_| {
                candidates += 1;
                true
            });
            assert!(run.completed);
        }
        candidates
    };
    let cold = enumerate_all();
    let (allocations, warm) = allocations_in(&mut enumerate_all);
    assert_eq!(cold, warm);
    assert!(warm > 0, "the subset has matching candidates");
    assert_eq!(
        allocations,
        0,
        "{} programs, {warm} candidates: a warm scratch enumerates without the heap",
        compiled.len()
    );
}

/// The Base+A/riscv-curr mapping's 7 Table 7 models fused into one
/// kernel, with the mask of all of them.
fn fused_base_a_curr() -> (CompiledModel, u64) {
    let models: Vec<UarchModel> = riscv_stacks()
        .into_iter()
        .filter(|s| s.key.isa == "Base+A" && s.key.variant == "riscv-curr")
        .map(|s| s.model)
        .collect();
    assert_eq!(models.len(), 7, "one mapping's Table 7 models");
    let kernel = UarchModel::fuse(&models.iter().collect::<Vec<_>>());
    (kernel, u64::MAX >> (64 - models.len()))
}

#[test]
fn warm_fused_judgement_allocates_nothing_per_candidate() {
    let compiled = compiled_subset();
    let (kernel, live) = fused_base_a_curr();
    let mut judge = Judge::new(&kernel);
    let mut scratch = EnumScratch::new();
    // The spaces are materialized up front, so the passes below
    // enumerate nothing: they are the judging half alone.
    let spaces: Vec<ExecutionSpace<_>> = compiled
        .iter()
        .map(|c| {
            let space = ExecutionSpace::pruned(c.program().clone());
            let _ = space.matching_in(c.target(), &mut scratch);
            space
        })
        .collect();
    let mut verdicts = vec![0u64; spaces.len()];
    let mut judge_all = |verdicts: &mut [u64]| {
        for ((verdict, space), c) in verdicts.iter_mut().zip(&spaces).zip(&compiled) {
            judge.restart(&kernel);
            *verdict =
                witness_mask::<UarchModel>(&mut judge, &mut scratch, space, c.target(), live);
        }
    };
    judge_all(&mut verdicts);
    let cold = verdicts.clone();
    let (allocations, ()) = allocations_in(|| judge_all(&mut verdicts));
    assert_eq!(cold, verdicts);
    assert!(
        verdicts.iter().any(|&v| v != 0),
        "some model observes a target"
    );
    assert_eq!(
        allocations,
        0,
        "warm check_mask streams over {} spaces",
        spaces.len()
    );
}

#[test]
fn warm_streamed_judgement_allocates_nothing() {
    let compiled = compiled_subset();
    let (kernel, live) = fused_base_a_curr();
    let mut judge = Judge::new(&kernel);
    let mut scratch = EnumScratch::new();
    let mut verdicts = vec![0u64; compiled.len()];
    let mut judge_all = |verdicts: &mut [u64]| {
        for (verdict, c) in verdicts.iter_mut().zip(&compiled) {
            judge.restart(&kernel);
            let mut found = 0;
            scratch.enumerate_counted(c.program(), Some(c.target()), true, &mut |exec| {
                if found != live {
                    found |= judge.check_mask(&UarchModel::bind(exec, None), live & !found);
                }
            });
            *verdict = found;
        }
    };
    judge_all(&mut verdicts);
    let cold = verdicts.clone();
    let (allocations, ()) = allocations_in(|| judge_all(&mut verdicts));
    assert_eq!(cold, verdicts);
    // The streamed verdicts are the materialized space's.
    let mut judge = Judge::new(&kernel);
    for (&verdict, c) in verdicts.iter().zip(&compiled) {
        let space = ExecutionSpace::pruned(c.program().clone());
        judge.restart(&kernel);
        let materialized =
            witness_mask::<UarchModel>(&mut judge, &mut scratch, &space, c.target(), live);
        assert_eq!(
            verdict,
            materialized,
            "{} under {}",
            c.target(),
            c.mapping()
        );
    }
    assert!(
        verdicts.iter().any(|&v| v != 0),
        "some model observes a target"
    );
    assert_eq!(
        allocations,
        0,
        "warm streamed judgements of {} programs",
        compiled.len()
    );
}

#[test]
fn warm_c11_verdicts_allocate_nothing() {
    let tests = subset();
    let c11 = C11Model::new();
    let mut judge = Judge::new(C11Model::compiled());
    let mut scratch = EnumScratch::new();
    let mut verdicts = vec![false; tests.len()];
    let mut judge_all = |verdicts: &mut [bool]| {
        for (verdict, t) in verdicts.iter_mut().zip(&tests) {
            *verdict = c11.observes_with(&mut judge, &mut scratch, t.program(), t.target());
        }
    };
    judge_all(&mut verdicts);
    let cold = verdicts.clone();
    let (allocations, ()) = allocations_in(|| judge_all(&mut verdicts));
    assert_eq!(cold, verdicts);
    let one_shot: Vec<bool> = tests.iter().map(|t| c11.permits_target(t)).collect();
    assert_eq!(verdicts, one_shot);
    assert_eq!(allocations, 0, "{} warm C11 verdicts", tests.len());
}

#[test]
fn serial_sweep_allocates_at_most_20_times_per_distinct_program() {
    let tests = subset();
    let stacks = riscv_stacks();
    let sweep = Sweep::with_options(SweepOptions::with_threads(1));
    // The first sweep initializes process-wide statics (the C11 kernel,
    // parsed model files); the second is the one a user repeats.
    let first = sweep.run_matrix(&tests, &stacks);
    let (allocations, second) = allocations_in(|| sweep.run_matrix(&tests, &stacks));
    assert_eq!(first.rows(), second.rows());
    let programs = second.stats().distinct_programs as u64;
    assert!(programs > 1000, "{programs} distinct programs");
    let per_program = allocations as f64 / programs as f64;
    assert!(
        allocations <= 20 * programs,
        "{allocations} allocations over {programs} distinct programs ({per_program:.1} each)"
    );
}
