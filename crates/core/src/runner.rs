//! The suite runner: compile once per (test, mapping), enumerate once per
//! distinct compiled program, judge once per distinct (program, target).
//!
//! # Architecture
//!
//! A sweep evaluates every litmus test against a *matrix* of full-stack
//! model cells. [`Sweep::run_matrix`] is the one entry point: it takes
//! an arbitrary list of [`MatrixStack`]s — each a row key, a compiler
//! mapping, and a µarch model. The paper's studies are registry
//! entries ([`crate::registry`]) passed to it like any stack file:
//! `riscv` (Figure 15's 28 cells: 2 RISC-V ISAs × 2 spec versions × 7
//! µarch models, with the matching Table 2/3 mapping), `power` (the §7
//! compiler study: {leading-sync, trailing-sync} × the ARMv7 models)
//! and `x86-tso` (the committed `models/x86-tso.stack`).
//!
//! The sweep's one work item is a *distinct compiled program*: in the
//! Figure 15 matrix every program is judged by all 7 µarch models of its
//! mapping, so that is the unit the work is shared over. A sweep runs in
//! two steps:
//!
//! 1. **Grouping pre-pass** (serial). Mappings are deduplicated across
//!    cells and every (test, mapping) pair is compiled exactly once. The
//!    compilations are then grouped by the program they produce: a
//!    [`Fingerprint`](tricheck_litmus::Fingerprint) bucket plus
//!    structural equality, so a hash collision costs a linear probe,
//!    never a wrong verdict. Two mappings that emit identical code (e.g.
//!    for all-relaxed variants) land in one group. Groups are ordered by
//!    first appearance in test-major order.
//! 2. **Per-program pipeline** (work-stealing pool). Before the pool
//!    starts, the stacks' *distinct* µarch models (Figure 15's 28 stacks
//!    have 14) are fused into one kernel ([`UarchModel::fuse`]; one per
//!    64 models) that lives for this sweep only. Each item answers one
//!    *question* per distinct target among its (test, mapping)
//!    compilations (in [`OutcomeMode::FullOutcomes`], per distinct
//!    observed register list), under the models of every mapping that
//!    asks at once; each stack's bit lands in its (test, stack) slot —
//!    one byte holding the Step 1 and Step 3 verdicts. The tests' C11
//!    verdicts come from a `OnceLock` per test (in full-outcome mode,
//!    the full permitted set).
//!
//! Where an item's candidates come from depends on the store:
//!
//! - **No store (streaming).** Each question is one complete pruned
//!   enumeration of the program through the worker's [`EnumScratch`]
//!   (restricted to the target in target mode), and the enumeration's
//!   visit callback binds each candidate once and judges it with
//!   [`Judge::check_mask`] under the live models not yet decided: in
//!   target mode those without a witness yet, in outcome mode those that
//!   have not yet shown this candidate's outcome. Only judging stops
//!   early; the enumeration runs to completion, so its counters equal a
//!   materialized space's. No [`ExecutionSpace`], arena or view is made,
//!   and no program is cloned.
//! - **A store.** The item loads the program's [`ExecutionSpace`] from
//!   the store, or builds one, answers each question from it
//!   ([`witness_mask`] or [`outcome_masks`], one prelude per kernel),
//!   saves the space back if it materialized a new view (a warm run
//!   reads those views), and drops it.
//!
//! Both paths share the live masks, the C11 lookups, the classification
//! and the emission; they differ only in where candidates come from. No
//! space outlives its item, so workers share no space map, and each
//! distinct question is enumerated at most once by construction. Each
//! worker owns one [`Judge`] per fused kernel (one enumeration feeds all
//! of them), restarted per question, a judge for its C11 verdicts, and
//! one [`EnumScratch`] per annotation level, which every enumeration it
//! runs and every cursor over a space reuse: the evaluation and
//! enumeration buffers are allocated once per worker, not per program
//! or per candidate.
//! `SweepOptions::threads == 1` bypasses the pool for a fully
//! deterministic serial run on the caller's stack; the parallel path
//! produces bit-identical [`SweepResults`] regardless (results are
//! written by slot and aggregated in a fixed order).
//!
//! [`SweepResults::stats`] exposes the counters; the engine equivalence
//! tests assert `compile_calls == tests × mappings` and
//! `space_enumerations == distinct_programs`. The pre-engine per-cell
//! recompute path lives on in the test-only `tricheck-oracle` crate as
//! the differential oracle. Timings live in the layered
//! benchmark under `perfbench/`, not here.
//!
//! **Persistence** ([`SpaceStore`], implemented on disk by
//! `tricheck-dist`): with a store attached, C11 verdicts and
//! materialized spaces are loaded instead of recomputed and written
//! back, so repeated sweeps — and shard processes sharing one cache
//! directory — amortize enumeration across process lifetimes. This is
//! the one reason a sweep still materializes spaces.
//! [`Sweep::run_matrix_items`] / [`results_from_items`] expose the
//! per-slot layer the cross-process shard planner merges through.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use tricheck_c11::C11Model;
use tricheck_compiler::{compile, CompiledTest, Mapping};
use tricheck_isa::HwAnnot;
use tricheck_litmus::{
    outcome_masks, witness_mask, ConsistencyModel, EnumScratch, ExecutionSpace, LitmusTest,
    MemOrder, Outcome, SpaceStats,
};
use tricheck_rel::{CompiledModel, Judge};
use tricheck_uarch::UarchModel;

use crate::store::{C11Cached, SpaceStore};
use crate::verdict::{classify, Classification, TestResult};

/// Which equivalence a sweep checks per (test, cell).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum OutcomeMode {
    /// Judge the test's designated target outcome only (the paper's
    /// Figure 15 mode; short-circuiting witness searches).
    #[default]
    Target,
    /// Compare the *full* outcome sets — every outcome C11 permits
    /// against every outcome the µarch exhibits (the stronger
    /// [`TriCheck::verify_full`](crate::TriCheck::verify_full)
    /// equivalence). On the engine this runs at witness-mode cost: one
    /// enumeration per distinct (compiled program, observed registers)
    /// is shared by every model cell, each candidate judged only under
    /// the models that have not yet shown its outcome.
    FullOutcomes,
}

/// Options controlling a sweep.
#[derive(Clone)]
pub struct SweepOptions {
    /// Worker threads (defaults to the machine's available parallelism).
    /// `1` runs serially and fully deterministically — no pool is
    /// spawned at all, which is the configuration to use under a
    /// debugger or when bisecting.
    pub threads: usize,
    /// The equivalence checked per cell (target-outcome by default).
    pub outcome_mode: OutcomeMode,
    /// Ignored: every sweep prunes. Each program's execution space cuts
    /// the search branches that already violate the model-independent
    /// core (coherence + RMW atomicity), which every model rejects
    /// anyway, so rows are those of `tricheck-oracle`'s unpruned
    /// per-cell reference sweep (pinned by
    /// `tests/model_properties.rs` and the golden-row fixtures). The
    /// field remains only so that existing `pruning: true` struct
    /// literals still compile.
    pub pruning: bool,
    /// A persistent memoization of execution spaces and C11 verdicts,
    /// consulted before computing. Each program's space is written back
    /// when its work item materialized a new view, C11 verdicts at the
    /// end of the run. `None` (the default) keeps all work run-scoped.
    pub store: Option<Arc<dyn SpaceStore>>,
}

impl SweepOptions {
    /// Default options with an explicit thread count.
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        SweepOptions {
            threads,
            ..SweepOptions::default()
        }
    }

    /// The `config` object a metrics report records for a sweep of
    /// `suite_size` tests under these options.
    #[must_use]
    pub fn run_config(&self, suite_size: usize) -> tricheck_trace::RunConfig {
        tricheck_trace::RunConfig {
            threads: self.threads as u64,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            outcome_mode: format!("{:?}", self.outcome_mode),
            suite_size: suite_size as u64,
        }
    }
}

impl Default for SweepOptions {
    fn default() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        SweepOptions {
            threads,
            outcome_mode: OutcomeMode::Target,
            pruning: true,
            store: None,
        }
    }
}

impl std::fmt::Debug for SweepOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepOptions")
            .field("threads", &self.threads)
            .field("outcome_mode", &self.outcome_mode)
            .field("store", &self.store.as_ref().map(|_| "<store>"))
            .finish()
    }
}

/// The row key of one column of a sweep matrix — what distinguishes
/// two stacks besides their µarch model: an ISA label and a variant
/// label. Figure 15's keys are (`Base`/`Base+A`, `riscv-curr`/
/// `riscv-ours`), the §7 study's (`Power`, `leading-sync`/
/// `trailing-sync`), and a stack file's are its `isa` directive and its
/// `mapping` section labels. The labels are literals or interned by
/// the stack loader, so the key stays `Copy`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct StackKey {
    /// The ISA column label.
    pub isa: &'static str,
    /// The variant column label.
    pub variant: &'static str,
}

impl StackKey {
    /// The ISA column label (`"Base"`, `"Base+A"`, `"Power"`, `"x86"`).
    #[must_use]
    pub fn isa_label(&self) -> &'static str {
        self.isa
    }

    /// The variant column label (`"riscv-curr"`, `"riscv-ours"`,
    /// `"leading-sync"`, `"sc-atomics"`, …).
    #[must_use]
    pub fn variant_label(&self) -> &'static str {
        self.variant
    }
}

/// One full-stack column of a sweep matrix: a row key, the compiler
/// mapping producing the hardware programs, and the µarch model judging
/// them. [`Sweep::run_matrix`] takes a list of these.
#[derive(Clone)]
pub struct MatrixStack<'m> {
    /// The row key under which this cell's results are aggregated.
    pub key: StackKey,
    /// The C11 → ISA mapping (deduplicated across stacks by identity).
    pub mapping: &'m dyn Mapping,
    /// The microarchitecture model.
    pub model: UarchModel,
}

/// Classification counts for one (stack key, µarch model, litmus family)
/// cell — one bar of the paper's Figure 15 or one §7 study cell.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SweepRow {
    /// The stack's ISA-level row key.
    pub key: StackKey,
    /// µarch model name (e.g. `"nMM"`).
    pub model: String,
    /// Litmus template family (e.g. `"wrc"`).
    pub family: &'static str,
    /// Variants classified as bugs.
    pub bugs: usize,
    /// Variants classified as overly strict (and not bugs).
    pub overly_strict: usize,
    /// Variants where HLL and µarch agree.
    pub equivalent: usize,
}

impl SweepRow {
    /// Total variants in this cell.
    #[must_use]
    pub fn total(&self) -> usize {
        self.bugs + self.overly_strict + self.equivalent
    }
}

/// Work counters for one sweep, proving the
/// enumerate-once/judge-once contract.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SweepStats {
    /// Litmus tests swept.
    pub tests: usize,
    /// Full-stack model cells.
    pub cells: usize,
    /// C11 verdicts computed (== `tests`: one per test, shared by every
    /// cell; in full-outcome mode each is a permitted-outcome set).
    pub c11_evaluations: usize,
    /// Compilations performed — exactly one per (test, mapping) pair.
    pub compile_calls: usize,
    /// (test, stack) visits that reused a compiled program: every visit
    /// needs its (test, mapping) compilation and all but the first per
    /// pair reuse it, so this is `tests × cells − compile_calls`.
    pub compile_cache_hits: usize,
    /// Distinct compiled programs — the sweep's work items.
    pub distinct_programs: usize,
    /// Queries a program's space answered from a view it had already
    /// materialized (or restored from the store), summed over programs.
    /// A store-less sweep builds no space — it judges candidates as the
    /// enumerator yields them — so it reports 0. Each distinct (program,
    /// target) — in outcome mode, each distinct (program, observed
    /// registers) — is judged once, so a cold store-attached sweep of
    /// either mode reports 0 too (unless more than 64 distinct models
    /// ask one space twice). A warm rerun reports one per judgement in
    /// target mode (the matching view) and two in outcome mode (the full
    /// view and its outcome partition).
    pub space_cache_hits: usize,
    /// Enumeration passes actually run across all programs: one per
    /// distinct question (a store-attached sweep in outcome mode shares
    /// one full enumeration among a program's questions). Equals
    /// `distinct_programs` when every program asks one question.
    pub space_enumerations: usize,
    /// Search branches cut by axiom-driven pruning across all space
    /// enumerations (zero when every view was restored from the store).
    pub candidates_pruned: usize,
    /// Kernels the sweep judged with: the stacks' distinct µarch models
    /// are fused into one kernel (one per 64 distinct models), so a
    /// single-process sweep of any built-in matrix reports 1. Sharded
    /// runs sum their per-process counts.
    pub compiled_kernels: usize,
}

impl SweepStats {
    /// Every field as a stable `(name, value)` pair, in declaration
    /// order — the counter surface `--cache-stats` and `--metrics-json`
    /// expose (injected into a `tricheck_trace::TraceReport`).
    #[must_use]
    pub fn as_counters(&self) -> [(&'static str, u64); 10] {
        [
            ("tests", self.tests as u64),
            ("cells", self.cells as u64),
            ("c11_evaluations", self.c11_evaluations as u64),
            ("compile_calls", self.compile_calls as u64),
            ("compile_cache_hits", self.compile_cache_hits as u64),
            ("distinct_programs", self.distinct_programs as u64),
            ("space_cache_hits", self.space_cache_hits as u64),
            ("space_enumerations", self.space_enumerations as u64),
            ("candidates_pruned", self.candidates_pruned as u64),
            ("compiled_kernels", self.compiled_kernels as u64),
        ]
    }
}

/// Aggregated results of a sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepResults {
    rows: Vec<SweepRow>,
    stats: SweepStats,
}

impl SweepResults {
    /// All rows, ordered by (stack, model, family) in matrix order.
    #[must_use]
    pub fn rows(&self) -> &[SweepRow] {
        &self.rows
    }

    /// The sweep's cache counters ([`SweepStats::default`] for the
    /// oracle's per-cell reference sweep, which caches nothing).
    #[must_use]
    pub fn stats(&self) -> &SweepStats {
        &self.stats
    }

    /// The row for an exact cell, if present. `model` matches the bare
    /// model name (`"nMM"`), ignoring any version suffix.
    #[must_use]
    pub fn row(&self, key: StackKey, model: &str, family: &str) -> Option<&SweepRow> {
        self.rows
            .iter()
            .find(|r| r.key == key && bare_model_name(&r.model) == model && r.family == family)
    }

    /// Total bugs across all families for one (stack key, model).
    #[must_use]
    pub fn bugs_for(&self, key: StackKey, model: &str) -> usize {
        self.rows
            .iter()
            .filter(|r| r.key == key && bare_model_name(&r.model) == model)
            .map(|r| r.bugs)
            .sum()
    }

    /// Total bugs in the entire sweep.
    #[must_use]
    pub fn grand_total_bugs(&self) -> usize {
        self.rows.iter().map(|r| r.bugs).sum()
    }
}

fn bare_model_name(full: &str) -> &str {
    full.split('/').next().unwrap_or(full)
}

/// Per-item sweep output: one classification per (test × stack) pair in
/// test-major order, plus the run's cache statistics. Produced by
/// [`Sweep::run_matrix_items`]; aggregated by [`results_from_items`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MatrixItems {
    /// `items[t * n_stacks + s]` is the classification of test `t` on
    /// stack `s`, or `None` if the stack's mapping cannot compile it.
    pub items: Vec<Option<Classification>>,
    /// The run's cache counters.
    pub stats: SweepStats,
}

/// Aggregates per-item classifications into [`SweepResults`] rows, in
/// deterministic (stack, test) order. This is the single aggregation
/// path: [`Sweep::run_matrix`] routes through it, and the shard planner
/// reuses it on merged item vectors so sharded results are bit-identical
/// to single-process ones.
///
/// # Panics
///
/// Panics if `items.len() != tests.len() * stacks.len()`.
#[must_use]
pub fn results_from_items(
    tests: &[LitmusTest],
    stacks: &[MatrixStack<'_>],
    items: &[Option<Classification>],
    stats: SweepStats,
) -> SweepResults {
    assert_eq!(
        items.len(),
        tests.len() * stacks.len(),
        "one item per (test, stack) pair"
    );
    let n_stacks = stacks.len();
    let mut rows = Vec::new();
    for (s, stack) in stacks.iter().enumerate() {
        let cells = (0..tests.len())
            .filter_map(|t| items[t * n_stacks + s].map(|c| (tests[t].family(), c)));
        rows.extend(aggregate(stack.key, stack.model.name(), cells));
    }
    SweepResults { rows, stats }
}

/// The grouping pre-pass: compiles every (test, mapping) pair exactly
/// once (`compiled[t * mappings.len() + m]`, `None` where the mapping
/// cannot compile the test) and groups the compilations by the program
/// they produce, in order of first appearance. Each group — the sweep's
/// work item — lists its compilations' indices in test-major order; the
/// first one's program is the item's.
///
/// Programs are bucketed by fingerprint and told apart within a bucket
/// by structural equality, so a fingerprint collision can never merge
/// two programs into one verdict.
fn group_programs(
    tests: &[LitmusTest],
    mappings: &[&dyn Mapping],
) -> (Vec<Option<CompiledTest>>, Vec<Vec<usize>>) {
    let mut compiled: Vec<Option<CompiledTest>> = Vec::with_capacity(tests.len() * mappings.len());
    let mut items: Vec<Vec<usize>> = Vec::new();
    let mut buckets: HashMap<u64, Vec<usize>> = HashMap::new();
    for test in tests {
        for mapping in mappings {
            let result = {
                let _t = tricheck_trace::span(tricheck_trace::Phase::Compile);
                compile(test, *mapping).ok()
            };
            if let Some(program) = result.as_ref().map(CompiledTest::program) {
                let fingerprint = tricheck_litmus::Fingerprint::of(program).as_u64();
                let bucket = buckets.entry(fingerprint).or_default();
                let found = bucket.iter().copied().find(|&i| {
                    compiled[items[i][0]]
                        .as_ref()
                        .is_some_and(|c| c.program() == program)
                });
                match found {
                    Some(i) => items[i].push(compiled.len()),
                    None => {
                        bucket.push(items.len());
                        items.push(vec![compiled.len()]);
                    }
                }
            }
            compiled.push(result);
        }
    }
    (compiled, items)
}

/// One sweep's judging plan, built once per sweep: the stacks'
/// mappings, deduplicated, and their *distinct* µarch models (by
/// [`ModelIr`](tricheck_rel::ModelIr) equality) fused into kernels of up
/// to 64 models each ([`UarchModel::fuse`]).
///
/// Two stacks share a mapping when their `&dyn Mapping`s point at the
/// same data *and* the mapping reports the same [`Mapping::name`]. The
/// address alone is what identifies a built-in table (each is one
/// static, but a static reached through two coercion sites may carry
/// two vtables, so the vtable is not compared); the name tells apart
/// zero-sized impls, which may share one address, and a name alone
/// would let two different mappings with one name reuse each other's
/// compiled programs.
struct SweepPlan<'m> {
    /// The deduplicated mappings, in order of first appearance.
    mappings: Vec<&'m dyn Mapping>,
    /// The fused kernels; the sweep's `d`-th distinct model is bit
    /// `d % 64` of kernel `d / 64`.
    kernels: Vec<CompiledModel>,
    /// Per stack: its mapping's index, its kernel and its bit (a mask).
    stacks: Vec<(usize, usize, u64)>,
}

impl<'m> SweepPlan<'m> {
    fn new(stacks: &'m [MatrixStack<'_>]) -> Self {
        let mut mappings: Vec<&'m dyn Mapping> = Vec::new();
        let mut models: Vec<&UarchModel> = Vec::new();
        let stacks: Vec<(usize, usize, u64)> = stacks
            .iter()
            .map(|stack| {
                let m = index_in(&mut mappings, stack.mapping, |m| {
                    std::ptr::addr_eq(m, stack.mapping) && m.name() == stack.mapping.name()
                });
                let d = index_in(&mut models, &stack.model, |m| m.ir() == stack.model.ir());
                (m, d / 64, 1 << (d % 64))
            })
            .collect();
        SweepPlan {
            mappings,
            kernels: models.chunks(64).map(UarchModel::fuse).collect(),
            stacks,
        }
    }

    /// The stacks of mapping `m` judged by kernel `k`, with their bits.
    fn stacks_of(&self, m: usize, k: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let stacks = self.stacks.iter().enumerate();
        stacks.filter_map(move |(s, &(sm, sk, bit))| ((sm, sk) == (m, k)).then_some((s, bit)))
    }
}

/// The index of the first entry of `list` that is `same`, pushing `x`
/// first if there is none.
fn index_in<T: Copy>(list: &mut Vec<T>, x: T, same: impl Fn(T) -> bool) -> usize {
    list.iter().position(|&y| same(y)).unwrap_or_else(|| {
        list.push(x);
        list.len() - 1
    })
}

/// A (test, stack) slot of a sweep's result table: `0` until judged,
/// then bit 0 set beside the Step 1 (`permitted`, bit 1) and Step 3
/// (`observable`, bit 2) verdicts.
fn slot(permitted: bool, observable: bool) -> u8 {
    1 | u8::from(permitted) << 1 | u8::from(observable) << 2
}

/// A slot's (permitted, observable) verdicts, `None` if never judged
/// (the stack's mapping cannot compile the test).
fn verdicts(slot: &AtomicU8) -> Option<(bool, bool)> {
    let code = slot.load(Ordering::Relaxed);
    (code != 0).then_some((code & 2 != 0, code & 4 != 0))
}

/// One sweep worker's reusable state, created on the worker's stack and
/// passed to every item it runs: one [`Asked`] per fused kernel (created
/// on its first item), the judge of its C11 verdicts, and one
/// enumeration scratch per annotation level — compiled programs for
/// their judgements, C11 programs for their Step 1 verdicts. Once warm,
/// none of them allocates.
#[derive(Default)]
struct Worker<'k> {
    kernels: Vec<Asked<'k>>,
    c11_judge: Option<Judge<'k>>,
    hw: EnumScratch<HwAnnot>,
    c11: EnumScratch<MemOrder>,
}

/// One fused kernel's share of a worker: its judge, restarted per
/// question, and the question being answered — the kernel's models that
/// ask it and their answer so far.
struct Asked<'k> {
    judge: Judge<'k>,
    /// The models asking: the bits of every stack the question serves.
    live: u64,
    /// Target mode: the live models with a witness of the target.
    found: u64,
    /// Outcome mode: each outcome some live model allows, with the
    /// models that allow it.
    allowed: Vec<(Outcome, u64)>,
}

impl<'k> Asked<'k> {
    /// Begins the next question, asked by the models `live`: a new
    /// judgement stream with no answer yet.
    fn ask(&mut self, kernel: &'k CompiledModel, live: u64) {
        self.judge.restart(kernel);
        self.live = live;
        self.found = 0;
        self.allowed.clear();
    }
}

/// The read-only inputs and the per-test C11 verdicts shared by every
/// work item of one sweep.
struct SweepCache<'t> {
    tests: &'t [LitmusTest],
    mode: OutcomeMode,
    c11: C11Model,
    /// The persistent store, consulted for C11 verdicts and spaces.
    store: Option<&'t dyn SpaceStore>,
    /// One verdict per test, computed on first demand.
    c11_verdicts: Vec<OnceLock<C11Cached>>,
    /// The grouping pre-pass's compilations, `t * n_mappings + m`.
    compiled: Vec<Option<CompiledTest>>,
    /// The mappings and the fused kernels every item judges with.
    plan: SweepPlan<'t>,
    c11_evaluations: AtomicUsize,
}

impl SweepCache<'_> {
    /// Step 1 verdict for one test, computed at most once sweep-wide
    /// (the designated-target verdict, or the full permitted set). With
    /// a store attached, a persisted verdict is loaded instead of
    /// evaluated — `c11_evaluations` counts only actual evaluations, so
    /// a fully warm run reports zero.
    fn c11_entry<'k>(&'k self, t: usize, worker: &mut Worker<'k>) -> &'k C11Cached {
        self.c11_verdicts[t].get_or_init(|| {
            if let Some(cached) = self
                .store
                .and_then(|s| s.load_c11(&self.tests[t], self.mode))
            {
                return cached;
            }
            self.c11_evaluations.fetch_add(1, Ordering::Relaxed);
            let _t = tricheck_trace::span(tricheck_trace::Phase::C11Eval);
            match self.mode {
                OutcomeMode::Target => {
                    let test = &self.tests[t];
                    let kernel = C11Model::compiled();
                    let judge = worker.c11_judge.get_or_insert_with(|| Judge::new(kernel));
                    C11Cached::Target(self.c11.observes_with(
                        judge,
                        &mut worker.c11,
                        test.program(),
                        test.target(),
                    ))
                }
                OutcomeMode::FullOutcomes => {
                    C11Cached::Full(self.c11.permitted_outcomes(&self.tests[t]))
                }
            }
        })
    }

    /// Runs one work item: answers each distinct question among the
    /// item's compilations — its target, or in outcome mode its observed
    /// register list — under the models of every mapping that asks, and
    /// hands each stack's slot to `emit` with its (test, stack) pair.
    ///
    /// Without a store, each question is one pruned enumeration of the
    /// program whose candidates are judged as they are produced. With
    /// one, the program's space is loaded or built, judged, and saved
    /// back if it materialized a new view. Returns the item's
    /// enumeration counters.
    fn run_item<'k>(
        &'k self,
        item: &[usize],
        worker: &mut Worker<'k>,
        emit: impl Fn(usize, usize, u8),
    ) -> SpaceStats {
        let compiled = |c: usize| {
            self.compiled[c]
                .as_ref()
                .expect("items are grouped from compiled programs")
        };
        let space = self.store.map(|store| {
            let program = compiled(item[0]).program();
            let space = match store.load_space(program) {
                // Re-arm pruning on restored spaces so views enumerated
                // later in this run are pruned like fresh ones.
                Some(loaded) => loaded.into_pruned(),
                None => ExecutionSpace::pruned(program.clone()),
            };
            let views = space.materialized_views();
            (store, space, views)
        });
        let mut streamed = SpaceStats::default();
        if worker.kernels.is_empty() {
            let asked = |kernel| Asked {
                judge: Judge::new(kernel),
                live: 0,
                found: 0,
                allowed: Vec::new(),
            };
            worker.kernels = self.plan.kernels.iter().map(asked).collect();
        }
        let n_mappings = self.plan.mappings.len();
        for &c in item {
            self.c11_entry(c / n_mappings, worker);
        }
        // Two compilations of one program ask one question when they
        // share its target (in outcome mode, its observed registers).
        let same = |a: usize, b: usize| match self.mode {
            OutcomeMode::Target => compiled(a).target() == compiled(b).target(),
            OutcomeMode::FullOutcomes => compiled(a).observed() == compiled(b).observed(),
        };
        for (i, &c) in item.iter().enumerate() {
            if item[..i].iter().any(|&d| same(c, d)) {
                continue;
            }
            let served = || item[i..].iter().filter(move |&&d| same(c, d));
            let _cell = tricheck_trace::cell_span(c % n_mappings);
            for (k, asked) in worker.kernels.iter_mut().enumerate() {
                let live = served()
                    .flat_map(|d| self.plan.stacks_of(d % n_mappings, k))
                    .fold(0, |live, (_, bit)| live | bit);
                asked.ask(&self.plan.kernels[k], live);
            }
            match &space {
                Some((_, space, _)) => self.judge_space(space, compiled(c), worker),
                None => {
                    streamed.enumerations += 1;
                    streamed.candidates_pruned += self.judge_stream(compiled(c), worker);
                }
            }
            for &d in served() {
                let t = d / n_mappings;
                let c11 = self.c11_entry(t, worker);
                for (k, asked) in worker.kernels.iter().enumerate() {
                    for (s, bit) in self.plan.stacks_of(d % n_mappings, k) {
                        let (p, o) = match c11 {
                            C11Cached::Target(permitted) => (*permitted, asked.found & bit != 0),
                            C11Cached::Full(permitted) => {
                                classify_outcomes(permitted, &asked.allowed, bit).quadrant()
                            }
                        };
                        emit(t, s, slot(p, o));
                    }
                }
            }
        }
        match space {
            Some((store, space, views)) => {
                if space.materialized_views() > views {
                    store.save_space(&space);
                }
                space.stats()
            }
            None => streamed,
        }
    }

    /// Answers one question from the program's shared space: each
    /// kernel with live models runs one [`witness_mask`] or
    /// [`outcome_masks`] pass over the space's view.
    fn judge_space(
        &self,
        space: &ExecutionSpace<HwAnnot>,
        question: &CompiledTest,
        worker: &mut Worker<'_>,
    ) {
        let Worker { kernels, hw, .. } = worker;
        for asked in kernels.iter_mut().filter(|asked| asked.live != 0) {
            let (judge, live) = (&mut asked.judge, asked.live);
            match self.mode {
                OutcomeMode::Target => {
                    asked.found =
                        witness_mask::<UarchModel>(judge, hw, space, question.target(), live);
                }
                OutcomeMode::FullOutcomes => {
                    asked.allowed =
                        outcome_masks::<UarchModel>(judge, hw, space, question.observed(), live);
                }
            }
        }
    }

    /// Answers one question by streaming: one complete pruned
    /// enumeration of the question's program (restricted to its target
    /// in target mode), each candidate bound once and judged by every
    /// kernel under the live models it has not yet decided — those
    /// without a witness of the target, or in outcome mode of this
    /// candidate's outcome. Only judging stops early, so the
    /// enumeration counters match a materialized space's. Returns the
    /// pruned branches.
    fn judge_stream(&self, question: &CompiledTest, worker: &mut Worker<'_>) -> usize {
        let Worker { kernels, hw, .. } = worker;
        let program = question.program();
        match self.mode {
            OutcomeMode::Target => {
                hw.enumerate_counted(program, Some(question.target()), true, &mut |exec| {
                    if kernels.iter().all(|asked| asked.found == asked.live) {
                        return;
                    }
                    let binding = UarchModel::bind(exec, None);
                    for asked in kernels.iter_mut() {
                        let pending = asked.live & !asked.found;
                        if pending != 0 {
                            asked.found |= asked.judge.check_mask(&binding, pending);
                        }
                    }
                })
            }
            OutcomeMode::FullOutcomes => {
                let observed = question.observed();
                hw.enumerate_counted(program, None, true, &mut |exec| {
                    let outcome = exec.outcome(observed);
                    let binding = UarchModel::bind(exec, None);
                    for asked in kernels.iter_mut() {
                        let entry = asked.allowed.iter().position(|(o, _)| *o == outcome);
                        let known = entry.map_or(0, |e| asked.allowed[e].1);
                        let pending = asked.live & !known;
                        if pending == 0 {
                            continue;
                        }
                        let found = asked.judge.check_mask(&binding, pending);
                        match entry {
                            Some(e) => asked.allowed[e].1 |= found,
                            None if found != 0 => asked.allowed.push((outcome.clone(), found)),
                            None => {}
                        }
                    }
                })
            }
        }
    }
}

/// The set-level Step 4 classification of the model with bit `model`
/// in `allowed` (each outcome the space exhibits under some model, with
/// the mask of those models): any observable-but-forbidden outcome is a
/// bug witness; otherwise any permitted-but-unobservable outcome makes
/// the cell overly strict.
fn classify_outcomes(
    permitted: &BTreeSet<Outcome>,
    allowed: &[(Outcome, u64)],
    model: u64,
) -> Classification {
    let observable = || {
        allowed
            .iter()
            .filter(move |(_, mask)| mask & model != 0)
            .map(|(outcome, _)| outcome)
    };
    if observable().any(|outcome| !permitted.contains(outcome)) {
        Classification::Bug
    } else if observable().count() < permitted.len() {
        // The observable outcomes are distinct and all permitted, so
        // fewer of them means a permitted one is missing.
        Classification::OverlyStrict
    } else {
        Classification::Equivalent
    }
}

/// Runs litmus suites through full-stack configurations.
#[derive(Clone, Debug, Default)]
pub struct Sweep {
    options: SweepOptions,
}

impl Sweep {
    /// A sweep with default options.
    #[must_use]
    pub fn new() -> Self {
        Sweep::default()
    }

    /// A sweep with explicit options.
    #[must_use]
    pub fn with_options(options: SweepOptions) -> Self {
        Sweep { options }
    }

    /// Evaluates one stack (mapping + µarch model) over a set of tests,
    /// returning per-test results. Tests the mapping cannot compile are
    /// skipped (the paper's suite always compiles).
    ///
    /// In [`OutcomeMode::FullOutcomes`] each result's classification is
    /// the set-level verdict of
    /// [`TriCheck::verify_full`](crate::TriCheck::verify_full).
    #[must_use]
    pub fn run_stack(
        &self,
        tests: &[LitmusTest],
        mapping: &dyn Mapping,
        model: &UarchModel,
    ) -> Vec<TestResult> {
        let stacks = [MatrixStack {
            key: StackKey::default(),
            mapping,
            model: model.clone(),
        }];
        let (slots, _) = self.run_cells(tests, &stacks);
        tests
            .iter()
            .zip(&slots)
            .filter_map(|(test, slot)| verdicts(slot).map(|(p, o)| TestResult::new(test, p, o)))
            .collect()
    }

    /// Runs the generic sweep matrix: every test × every stack. Each
    /// (test, mapping) pair is compiled exactly once, and each distinct
    /// (program, target) is enumerated and judged once under every model
    /// that asks, across all cells — see [`SweepResults::stats`].
    #[must_use]
    pub fn run_matrix(&self, tests: &[LitmusTest], stacks: &[MatrixStack<'_>]) -> SweepResults {
        let items = self.run_matrix_items(tests, stacks);
        results_from_items(tests, stacks, &items.items, items.stats)
    }

    /// The engine sweep at per-item granularity: every (test × stack)
    /// classification in test-major order (`t * stacks.len() + s`),
    /// without row aggregation. `None` marks a (test, stack) pair whose
    /// mapping could not compile the test.
    ///
    /// This is the layer the cross-process shard planner
    /// (`tricheck-dist`) speaks: shard workers return their items, the
    /// parent reassembles the full item vector and aggregates it through
    /// [`results_from_items`] — the same function [`Sweep::run_matrix`]
    /// uses, which is what makes merged sharded results bit-identical to
    /// a single-process run by construction.
    #[must_use]
    pub fn run_matrix_items(
        &self,
        tests: &[LitmusTest],
        stacks: &[MatrixStack<'_>],
    ) -> MatrixItems {
        let (slots, stats) = self.run_cells(tests, stacks);
        // Collected from a borrowed iterator, so the vector is allocated
        // at its exact length rather than reusing the slot table's
        // allocation.
        MatrixItems {
            items: slots
                .iter()
                .map(|slot| verdicts(slot).map(|(p, o)| classify(p, o)))
                .collect(),
            stats,
        }
    }

    /// Plans the sweep's one set of fused kernels, compiles and groups
    /// the sweep by program, then runs one work item per distinct
    /// program over the work-stealing pool, returning the (test, stack)
    /// slot table (test-major) plus the sweep's counters.
    fn run_cells(
        &self,
        tests: &[LitmusTest],
        stacks: &[MatrixStack<'_>],
    ) -> (Vec<AtomicU8>, SweepStats) {
        let store = self.options.store.as_deref();
        let plan = SweepPlan::new(stacks);
        let (compiled, items) = group_programs(tests, &plan.mappings);
        let compile_calls = compiled.len();
        // Label the judgement latency histograms by mapping; the iterator
        // is only consumed when a metrics session is collecting.
        tricheck_trace::set_keys(plan.mappings.iter().map(|m| m.name().to_string()));
        let cache = SweepCache {
            tests,
            mode: self.options.outcome_mode,
            c11: C11Model::new(),
            store,
            c11_verdicts: (0..tests.len()).map(|_| OnceLock::new()).collect(),
            compiled,
            plan,
            c11_evaluations: AtomicUsize::new(0),
        };
        let n_cells = stacks.len();
        let slots: Vec<AtomicU8> = (0..tests.len() * n_cells)
            .map(|_| AtomicU8::new(0))
            .collect();
        let space_stats: Vec<OnceLock<SpaceStats>> =
            (0..items.len()).map(|_| OnceLock::new()).collect();
        tricheck_trace::progress_begin(items.len() as u64);
        run_work_stealing::<Worker<'_>>(items.len(), self.options.threads, &|worker, i| {
            let stats = cache.run_item(&items[i], worker, |t, s, code| {
                let previous = slots[t * n_cells + s].swap(code, Ordering::Relaxed);
                assert_eq!(
                    previous, 0,
                    "each (test, stack) slot is judged exactly once"
                );
            });
            space_stats[i]
                .set(stats)
                .expect("each work item runs exactly once");
            tricheck_trace::progress_item_done();
        });

        // Step 1 for tests no mapping could compile, so
        // `c11_evaluations == tests` holds on every matrix.
        let mut worker = Worker::default();
        for t in 0..tests.len() {
            cache.c11_entry(t, &mut worker);
        }
        if let Some(store) = store {
            for (t, slot) in cache.c11_verdicts.iter().enumerate() {
                if let Some(entry) = slot.get() {
                    store.save_c11(&tests[t], entry);
                }
            }
            store.flush();
        }
        let mut stats = SweepStats {
            tests: tests.len(),
            cells: n_cells,
            c11_evaluations: cache.c11_evaluations.load(Ordering::Relaxed),
            compile_calls,
            compile_cache_hits: tests.len() * n_cells - compile_calls,
            distinct_programs: items.len(),
            compiled_kernels: cache.plan.kernels.len(),
            ..SweepStats::default()
        };
        for s in space_stats.into_iter().filter_map(OnceLock::into_inner) {
            stats.space_enumerations += s.enumerations;
            stats.space_cache_hits += s.cache_hits;
            stats.candidates_pruned += s.candidates_pruned;
        }
        // Every space is already gone, dropped by its work item; what
        // remains is the compiled-program, C11-verdict and fused-kernel
        // tables. Small, but worth its own phase so a regression that
        // reinflates the end-of-sweep deallocation burst stays visible
        // in traces.
        {
            let _t = tricheck_trace::span(tricheck_trace::Phase::Teardown);
            drop(cache);
            drop(items);
        }
        (slots, stats)
    }
}

/// One worker's slice of the item range, drained from the front by its
/// owner and by thieves alike (overshooting `fetch_add` is harmless: an
/// index at or past `end` is simply not processed).
struct Chunk {
    next: AtomicUsize,
    end: usize,
}

impl Chunk {
    fn take(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.end).then_some(i)
    }

    fn remaining(&self) -> usize {
        self.end.saturating_sub(self.next.load(Ordering::Relaxed))
    }
}

/// Runs `process(state, 0..n_items)` over `threads` workers with work
/// stealing, each worker passing its own `state` (created by
/// `S::default()` on the worker's stack) to every item it processes.
///
/// Items are dealt into contiguous per-worker chunks; a worker drains its
/// own chunk, then repeatedly steals from the chunk with the most items
/// remaining until the whole range is exhausted. `threads <= 1` runs the
/// items serially on the calling thread, in order, with one state — the
/// deterministic debugging mode `SweepOptions::threads` documents.
fn run_work_stealing<S: Default>(
    n_items: usize,
    threads: usize,
    process: &(impl Fn(&mut S, usize) + Sync),
) {
    if threads <= 1 || n_items <= 1 {
        let mut state = S::default();
        for i in 0..n_items {
            process(&mut state, i);
        }
        return;
    }
    let workers = threads.min(n_items);
    let chunk_size = n_items.div_ceil(workers);
    let chunks: Vec<Chunk> = (0..workers)
        .map(|w| Chunk {
            next: AtomicUsize::new(w * chunk_size),
            end: ((w + 1) * chunk_size).min(n_items),
        })
        .collect();
    let chunks = &chunks;
    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || {
                let mut state = S::default();
                let mut current = w;
                loop {
                    if let Some(i) = chunks[current].take() {
                        process(&mut state, i);
                        continue;
                    }
                    // Own chunk drained: steal from the fullest victim.
                    let victim = (0..chunks.len())
                        .filter(|&v| v != current)
                        .max_by_key(|&v| chunks[v].remaining());
                    match victim {
                        Some(v) if chunks[v].remaining() > 0 => current = v,
                        _ => break,
                    }
                }
            });
        }
    });
}

/// One stack's rows from its (family, classification) cells, one row
/// per family in order of first appearance.
fn aggregate(
    key: StackKey,
    model: &str,
    cells: impl IntoIterator<Item = (&'static str, Classification)>,
) -> Vec<SweepRow> {
    let mut by_family: BTreeMap<&'static str, (usize, usize, usize)> = BTreeMap::new();
    // Preserve suite presentation order by first appearance.
    let mut order: Vec<&'static str> = Vec::new();
    for (family, classification) in cells {
        if !by_family.contains_key(family) {
            order.push(family);
        }
        let entry = by_family.entry(family).or_default();
        match classification {
            Classification::Bug => entry.0 += 1,
            Classification::OverlyStrict => entry.1 += 1,
            Classification::Equivalent => entry.2 += 1,
        }
    }
    order
        .into_iter()
        .map(|family| {
            let (bugs, overly_strict, equivalent) = by_family[family];
            SweepRow {
                key,
                model: model.to_string(),
                family,
                bugs,
                overly_strict,
                equivalent,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::builtin_stack;
    use tricheck_compiler::riscv_mapping;
    use tricheck_isa::{RiscvIsa, SpecVersion};
    use tricheck_litmus::{suite, MemOrder};

    /// A built-in matrix's stacks, by registry name.
    fn matrix(name: &str) -> Vec<MatrixStack<'static>> {
        builtin_stack(name).expect("built-in matrix").stacks
    }

    #[test]
    fn work_stealing_processes_every_item_exactly_once() {
        for (n_items, threads) in [(0, 4), (1, 4), (7, 3), (100, 8), (64, 64), (13, 100)] {
            let counts: Vec<AtomicUsize> = (0..n_items).map(|_| AtomicUsize::new(0)).collect();
            run_work_stealing(n_items, threads, &|_: &mut (), i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "n_items={n_items} threads={threads}"
            );
        }
    }

    #[test]
    fn sweep_counts_wrc_bugs_on_nmm_curr_base() {
        // §6.1: 108 of the 243 WRC variants misbehave on each nMCA model
        // under the current Base ISA.
        let tests: Vec<_> = suite::wrc_template().instantiate_all().collect();
        let sweep = Sweep::new();
        let results = sweep.run_stack(
            &tests,
            riscv_mapping(RiscvIsa::Base, SpecVersion::Curr),
            &UarchModel::nmm(SpecVersion::Curr),
        );
        let bugs = results
            .iter()
            .filter(|r| r.classification() == Classification::Bug)
            .count();
        assert_eq!(bugs, 108);
    }

    #[test]
    fn sweep_counts_no_wrc_bugs_after_refinement() {
        let tests: Vec<_> = suite::wrc_template().instantiate_all().collect();
        let sweep = Sweep::new();
        let results = sweep.run_stack(
            &tests,
            riscv_mapping(RiscvIsa::Base, SpecVersion::Ours),
            &UarchModel::nmm(SpecVersion::Ours),
        );
        let bugs = results
            .iter()
            .filter(|r| r.classification() == Classification::Bug)
            .count();
        assert_eq!(bugs, 0);
    }

    #[test]
    fn aggregate_groups_by_family() {
        let tests = vec![
            suite::mp([MemOrder::Rlx; 4]),
            suite::mp([MemOrder::Sc; 4]),
            suite::sb([MemOrder::Rlx; 4]),
        ];
        let sweep = Sweep::new();
        let results = sweep.run_stack(
            &tests,
            riscv_mapping(RiscvIsa::Base, SpecVersion::Curr),
            &UarchModel::wr(SpecVersion::Curr),
        );
        let key = StackKey {
            isa: "Base",
            variant: "riscv-curr",
        };
        let rows = aggregate(
            key,
            "WR",
            results.iter().map(|r| (r.family(), r.classification())),
        );
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].family, "mp");
        assert_eq!(rows[0].total(), 2);
        assert_eq!(rows[1].family, "sb");
        assert_eq!(rows[1].total(), 1);
    }

    #[test]
    fn riscv_sweep_compiles_and_enumerates_exactly_once() {
        // The acceptance contract: one compile per (test, mapping), one
        // enumeration per distinct compiled program, across all 28 cells.
        let tests: Vec<_> = suite::mp_template().instantiate_all().collect();
        let results = Sweep::new().run_matrix(&tests, &matrix("riscv"));
        let stats = results.stats();
        assert_eq!(stats.tests, tests.len());
        assert_eq!(stats.cells, 28);
        assert_eq!(
            stats.c11_evaluations,
            tests.len(),
            "one C11 verdict per test"
        );
        assert_eq!(
            stats.compile_calls,
            tests.len() * 4,
            "one compile per (test, mapping)"
        );
        assert_eq!(
            stats.compile_cache_hits,
            tests.len() * 28 - stats.compile_calls,
            "every other (test, stack) visit reuses a compiled program"
        );
        assert_eq!(
            stats.space_enumerations, stats.distinct_programs,
            "each distinct compiled program is enumerated exactly once"
        );
        // The intuitive and refined Base mappings agree on relaxed-only
        // code, so deduplication must find strictly fewer programs than
        // (test, mapping) pairs.
        assert!(stats.distinct_programs < stats.compile_calls);
    }

    #[test]
    fn items_are_exact_size_and_one_kernel_judges_the_sweep() {
        let tests: Vec<_> = suite::mp_template().instantiate_all().collect();
        let items = Sweep::with_options(SweepOptions::with_threads(1))
            .run_matrix_items(&tests, &matrix("riscv"));
        assert_eq!(items.items.len(), tests.len() * 28);
        // Built fresh from the slot table, not collected in place into
        // its allocation: a caller that keeps the vector keeps no more.
        assert_eq!(items.items.capacity(), items.items.len());
        assert_eq!(
            items.stats.compiled_kernels, 1,
            "the 14 distinct models of 28 stacks fuse into one kernel"
        );
    }

    #[test]
    fn copies_of_a_model_fuse_once() {
        let tests: Vec<_> = suite::mp_template().instantiate_all().collect();
        let riscv = matrix("riscv");
        let first: Vec<MatrixStack<'static>> = riscv
            .iter()
            .filter(|stack| stack.key == riscv[0].key)
            .cloned()
            .collect();
        assert_eq!(first.len(), 7, "one mapping's Table 7 models");
        let many: Vec<MatrixStack<'static>> = (0..65).map(|i| first[i % 7].clone()).collect();
        let sweep = Sweep::with_options(SweepOptions::with_threads(2));
        let wide = sweep.run_matrix_items(&tests, &many);
        let narrow = sweep.run_matrix_items(&tests, &first);
        assert_eq!(wide.stats.compiled_kernels, 1, "7 distinct models");
        for t in 0..tests.len() {
            for s in 0..65 {
                assert_eq!(wide.items[t * 65 + s], narrow.items[t * 7 + s % 7]);
            }
        }
    }

    #[test]
    fn more_than_64_distinct_models_fuse_in_chunks() {
        let tests: Vec<_> = suite::mp_template().instantiate_all().collect();
        let text = include_str!("../../../models/riscv-curr/nMM.cat");
        let renamed = |i: usize| {
            let text = text.replacen("model nMM/", &format!("model nMM{i}/"), 1);
            let ir = tricheck_rel::parse_model(&text, &tricheck_uarch::hw_vocabulary())
                .expect("a renamed committed model parses");
            UarchModel::from_ir(ir)
        };
        let stack = |model: UarchModel| MatrixStack {
            key: StackKey {
                isa: "Base",
                variant: "riscv-curr",
            },
            mapping: riscv_mapping(RiscvIsa::Base, SpecVersion::Curr),
            model,
        };
        let many: Vec<MatrixStack<'static>> = (0..65).map(|i| stack(renamed(i))).collect();
        let sweep = Sweep::with_options(SweepOptions::with_threads(2));
        let wide = sweep.run_matrix_items(&tests, &many);
        let one = sweep.run_matrix_items(&tests, &[stack(UarchModel::nmm(SpecVersion::Curr))]);
        assert_eq!(wide.stats.compiled_kernels, 2, "64 distinct models, then 1");
        assert_eq!(one.stats.compiled_kernels, 1);
        // One enumeration per question feeds both kernels.
        assert_eq!(wide.stats.space_enumerations, one.stats.space_enumerations);
        assert_eq!(wide.stats.candidates_pruned, one.stats.candidates_pruned);
        for t in 0..tests.len() {
            for s in 0..65 {
                assert_eq!(wide.items[t * 65 + s], one.items[t]);
            }
        }
    }

    #[test]
    fn power_sweep_compiles_and_enumerates_exactly_once() {
        // The §7 analogue of the acceptance contract: one compile per
        // (test, mapping) and one enumeration per distinct Power program
        // across all {mapping × model} cells.
        let tests: Vec<_> = suite::wrc_template().instantiate_all().collect();
        let results = Sweep::new().run_matrix(&tests, &matrix("power"));
        let stats = results.stats();
        assert_eq!(stats.tests, tests.len());
        assert_eq!(stats.cells, 4);
        assert_eq!(stats.c11_evaluations, tests.len());
        assert_eq!(
            stats.compile_calls,
            tests.len() * 2,
            "one compile per (test, sync style)"
        );
        assert_eq!(
            stats.compile_cache_hits,
            tests.len() * 4 - stats.compile_calls
        );
        assert_eq!(
            stats.space_enumerations, stats.distinct_programs,
            "each distinct Power program is enumerated exactly once"
        );
        // Leading- and trailing-sync agree on relaxed-only code, so
        // deduplication must find strictly fewer programs than pairs.
        assert!(stats.distinct_programs < stats.compile_calls);
        assert_eq!(
            stats.compiled_kernels, 1,
            "both mappings' 2 models fuse once"
        );
    }

    #[test]
    fn x86_matrix_is_two_data_defined_cells() {
        let stacks = matrix("x86-tso");
        assert_eq!(stacks.len(), 2);
        for stack in &stacks {
            assert_eq!(stack.key.isa_label(), "x86");
            assert_eq!(stack.model.ir().name(), "x86-TSO");
        }
        let tests = vec![suite::sb([MemOrder::Sc; 4]), suite::sb([MemOrder::Rlx; 4])];
        let results = Sweep::new().run_matrix(&tests, &stacks);
        assert_eq!(
            results.stats().compiled_kernels,
            1,
            "one model judges both mappings"
        );
    }

    #[test]
    fn riscv_sweep_is_deterministic_across_thread_counts() {
        let tests: Vec<_> = suite::sb_template().instantiate_all().collect();
        let serial =
            Sweep::with_options(SweepOptions::with_threads(1)).run_matrix(&tests, &matrix("riscv"));
        for threads in [2, 5] {
            let parallel = Sweep::with_options(SweepOptions::with_threads(threads))
                .run_matrix(&tests, &matrix("riscv"));
            assert_eq!(serial.rows(), parallel.rows(), "threads={threads}");
            assert_eq!(serial.stats(), parallel.stats(), "threads={threads}");
        }
    }

    #[test]
    fn outcome_mode_agrees_with_target_mode_on_mp() {
        // For MP variants the target outcome is the only disputed one, so
        // the set-level check classifies every cell identically.
        let tests: Vec<_> = suite::mp_template().instantiate_all().collect();
        let target = Sweep::new().run_matrix(&tests, &matrix("riscv"));
        let full = Sweep::with_options(SweepOptions {
            outcome_mode: OutcomeMode::FullOutcomes,
            ..SweepOptions::default()
        })
        .run_matrix(&tests, &matrix("riscv"));
        assert_eq!(target.rows(), full.rows());
        // And the exactly-once contract holds in outcome mode too.
        assert_eq!(
            full.stats().space_enumerations,
            full.stats().distinct_programs
        );
    }

    #[test]
    fn power_rows_carry_power_keys() {
        let tests = vec![suite::sb([MemOrder::Sc; 4])];
        let results = Sweep::new().run_matrix(&tests, &matrix("power"));
        assert!(results.rows().iter().all(|r| r.key.isa == "Power"));
        // 2 styles × 2 models × 1 family.
        assert_eq!(results.rows().len(), 4);
        assert_eq!(
            results.rows()[0].key.isa_label(),
            "Power",
            "Power rows must not masquerade as RISC-V"
        );
        let labels: Vec<&str> = results
            .rows()
            .iter()
            .map(|r| r.key.variant_label())
            .collect();
        assert!(labels.contains(&"leading-sync"));
        assert!(labels.contains(&"trailing-sync"));
    }
}
