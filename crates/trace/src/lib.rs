//! Structured tracing + metrics for the TriCheck sweep pipeline.
//!
//! The sweep engine is a bulk pipeline — thousands of litmus tests ×
//! stacks flowing through C11 evaluation, compilation, enumeration, and
//! kernel checking — and this crate is its observability layer: scoped
//! phase timers and monotonic counters, recorded into per-thread buffers
//! and drained into a mergeable, serializable [`TraceReport`].
//!
//! # Event model
//!
//! Two primitive event kinds, both attributed to a fixed vocabulary so
//! the hot path never allocates or hashes strings:
//!
//! - **Spans** ([`span`], [`cell_span`]): scoped timers over a [`Phase`].
//!   A span starts when the guard is created and ends when it drops.
//!   Spans nest; each thread keeps a span stack so that a span's *self
//!   time* (its duration minus its children's) can be attributed to its
//!   phase. Phase `total_ns` is therefore **exclusive** time — the sum
//!   over all phases approximates total busy time without
//!   double-counting — while `count`, `max_ns`, and the latency
//!   histogram record **inclusive** span durations (the cost a caller
//!   actually observed).
//! - **Counters** ([`count`]): monotonic `u64` adds over a [`Counter`],
//!   e.g. candidates enumerated or pruning branches cut.
//!
//! [`cell_span`] additionally tags the span with a key index
//! registered via [`set_keys`] (the sweep engine keys by compiler
//! mapping: a judgement's first compilation's), producing the per-key
//! latency histograms
//! (`p50`/`p95`/`max`) of the report's `stacks` rows.
//!
//! Every record lands in a buffer owned by the recording thread
//! (registered once, on first use, in a global registry that outlives
//! the scoped worker threads of a sweep), so threads never contend:
//! stores are relaxed atomics on the owner's cache lines. [`finish`]
//! drains and resets every buffer and aggregates them into a
//! [`TraceReport`].
//!
//! # Enabled / disabled story
//!
//! Instrumentation is **off by default**: every probe starts with one
//! relaxed load of a global flag word, and when no session is active
//! ([`start`] not called) the probe returns immediately — no clock
//! read, no TLS touch, no allocation. This is the path the
//! `trace_overhead` bench guard pins (< 2% on the full Figure 15 sweep).
//!
//! With a session active, the steady-state hot path is still
//! allocation-free: histograms are fixed 256-bucket arrays, span stacks
//! and buffers are reused, and chrome-trace event capture (the one
//! growing buffer) only runs when [`TraceConfig::events`] is set.
//!
//! # Sessions
//!
//! The collector is a process-wide singleton: [`start`] arms it (and
//! clears any stale buffered data), [`finish`] disarms it and returns
//! the drained [`TraceSession`]. Sessions do not nest; end a session
//! only after the instrumented work has joined, or late span drops bleed
//! into the next session.
//!
//! # JSON schema (`tricheck-metrics/v1`)
//!
//! [`TraceReport::to_json`] emits a stable, machine-readable document;
//! field names and types are pinned by `tests/metrics_report.rs`:
//!
//! ```json
//! {
//!   "schema": "tricheck-metrics/v1",
//!   "config": {"threads": 1, "nproc": 2, // the run's configuration,
//!              "outcome_mode": "Target", // set by the sweep's caller
//!              "suite_size": 1701},
//!   "wall_ns": 123456789,            // session wall clock
//!   "busy_ns": 987654321,            // sum of per-phase self time
//!   "phases": [                      // fixed pipeline order, active phases only
//!     {"name": "cell", "total_ns": 1, "count": 2,
//!      "p50_ns": 3, "p95_ns": 4, "max_ns": 5}
//!   ],
//!   "counters": {"c11_evaluations": 1701, "pruned_branches": 408},
//!   "stacks": [                      // per-key cell latency, from cell_span keys
//!     {"label": "riscv-base-intuitive", "total_ns": 1, "count": 2,
//!      "p50_ns": 3, "p95_ns": 4, "max_ns": 5}
//!   ],
//!   "workers": [                     // per-shard breakdown (sharded runs only)
//!     {"shard": 0, "wall_ns": 1, "busy_ns": 2,
//!      "phases": [...], "counters": {...}, "stacks": [...]}
//!   ]
//! }
//! ```
//!
//! `phases[].total_ns` is self time (see above): the entries sum to
//! `busy_ns`, which for a serial run approximates `wall_ns`. Percentiles
//! come from log-linear histograms (4 sub-buckets per power of two, ≤
//! 19% relative error) over inclusive durations. `counters` is the
//! superset surface: the sweep engine's `SweepStats` and the store's
//! `StoreStats` are injected as counters next to the ones recorded here.
//! `stacks` holds one row per [`cell_span`] key: the sweep engine
//! emits one `cell` span per judgement — one per distinct (program,
//! target), under the µarch models of every mapping that emitted it at
//! once — keyed by the mapping of the first compilation it serves, so a
//! row is the latency of the judgements first asked for by that
//! mapping, not of one (test, stack) cell. A program two mappings emit
//! is judged, and counted, once. `config` (additive to v1) records the
//! threads, host parallelism, outcome mode and suite size of the run;
//! the CLI's `sweep --metrics-json` and the `fig15 --json` experiment
//! set it.
//!
//! [`TraceSession::chrome_json`] renders the captured spans as a Chrome
//! `chrome://tracing` / Perfetto-compatible `traceEvents` document
//! (complete `"ph": "X"` events, microsecond timestamps).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

pub mod json;

const METRICS: u32 = 1 << 0;
const EVENTS: u32 = 1 << 1;
const PROGRESS: u32 = 1 << 2;

static FLAGS: AtomicU32 = AtomicU32::new(0);

/// The session's enable bits: one relaxed load per probe.
#[inline]
fn flags() -> u32 {
    FLAGS.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Vocabulary
// ---------------------------------------------------------------------------

/// The fixed set of instrumented pipeline phases.
///
/// Kept closed (rather than string-keyed) so span bookkeeping is a
/// couple of array index operations. Order is pipeline order and is the
/// order phases appear in reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// One judgement of a distinct (program, target) — every compiled
    /// test that shares it — under the µarch models of every mapping
    /// that emitted it, inside its program's work item in the sweep
    /// engine, keyed by the mapping of the first compilation it serves.
    /// Its self time is the engine's own judging overhead; its inclusive
    /// durations are the per-judgement cost.
    Cell,
    /// C11 axiomatic evaluation of one litmus test (Step 1).
    C11Eval,
    /// Compiler-mapping lowering of one test (Step 2).
    Compile,
    /// Lowering a `ModelIr` into a fused bitset kernel.
    KernelCompile,
    /// Candidate-execution enumeration for one execution space.
    SpaceEnum,
    /// Building a kernel's space-invariant prelude.
    PreludeEval,
    /// One per-candidate consistency check through a compiled kernel.
    CandidateCheck,
    /// Persistent-store reads (space / C11 cache lookups that hit disk).
    StoreRead,
    /// Persistent-store writes and flushes.
    StoreWrite,
    /// Coordinator-side shard traffic: dealing jobs, collecting frames.
    ShardExchange,
    /// Freeing the sweep's end-of-run tables (per-slot results,
    /// compiled programs, C11 verdicts). Execution spaces are freed by
    /// their work items, so this stays a small share of a run.
    Teardown,
    /// Rendering charts, tables, and reports.
    Report,
}

impl Phase {
    /// All phases, in report order.
    pub const ALL: [Phase; 12] = [
        Phase::Cell,
        Phase::C11Eval,
        Phase::Compile,
        Phase::KernelCompile,
        Phase::SpaceEnum,
        Phase::PreludeEval,
        Phase::CandidateCheck,
        Phase::StoreRead,
        Phase::StoreWrite,
        Phase::ShardExchange,
        Phase::Teardown,
        Phase::Report,
    ];

    /// The stable snake_case name used in reports and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Phase::Cell => "cell",
            Phase::C11Eval => "c11_eval",
            Phase::Compile => "compile",
            Phase::KernelCompile => "kernel_compile",
            Phase::SpaceEnum => "space_enum",
            Phase::PreludeEval => "prelude_eval",
            Phase::CandidateCheck => "candidate_check",
            Phase::StoreRead => "store_read",
            Phase::StoreWrite => "store_write",
            Phase::ShardExchange => "shard_exchange",
            Phase::Teardown => "teardown",
            Phase::Report => "report",
        }
    }
}

const N_PHASES: usize = Phase::ALL.len();

/// The fixed set of monotonic counters recorded by instrumentation.
///
/// These are the counters the trace layer itself maintains; reports also
/// carry arbitrary named counters injected at drain time (the sweep
/// engine's `SweepStats`, the store's `StoreStats`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Candidate executions yielded by enumeration.
    CandidatesEnumerated,
    /// Enumeration branches cut by axiom-driven pruning.
    PrunedBranches,
    /// Bytes read from the persistent store.
    StoreBytesRead,
    /// Bytes written to the persistent store.
    StoreBytesWritten,
    /// Lint rules evaluated against loaded models and stack files.
    LintRulesChecked,
    /// Lint diagnostics produced (errors and warnings combined).
    LintDiagnostics,
}

impl Counter {
    /// All trace-layer counters.
    pub const ALL: [Counter; 6] = [
        Counter::CandidatesEnumerated,
        Counter::PrunedBranches,
        Counter::StoreBytesRead,
        Counter::StoreBytesWritten,
        Counter::LintRulesChecked,
        Counter::LintDiagnostics,
    ];

    /// The stable snake_case name used in reports and JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Counter::CandidatesEnumerated => "candidates_enumerated",
            Counter::PrunedBranches => "pruned_branches",
            Counter::StoreBytesRead => "store_bytes_read",
            Counter::StoreBytesWritten => "store_bytes_written",
            Counter::LintRulesChecked => "lint_rules_checked",
            Counter::LintDiagnostics => "lint_diagnostics",
        }
    }
}

const N_COUNTERS: usize = Counter::ALL.len();

/// Sentinel key for spans not attributed to a stack.
const NO_KEY: u16 = u16::MAX;

// ---------------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------------

/// Log-linear latency histograms: 4 sub-buckets per power of two.
///
/// Bucket bounds are exact for values below 8ns and within a factor of
/// 1.19 above, covering the full `u64` nanosecond range in
/// [`BUCKETS`](hist::BUCKETS) buckets — small enough to keep one dense
/// array per phase per thread.
pub mod hist {
    /// Number of buckets in a dense histogram.
    pub const BUCKETS: usize = 256;

    /// The bucket index for a nanosecond value.
    #[must_use]
    pub fn bucket(ns: u64) -> usize {
        if ns < 8 {
            ns as usize
        } else {
            let exp = 63 - u64::from(ns.leading_zeros()); // >= 3
            let sub = (ns >> (exp - 2)) & 3;
            (exp * 4 + sub - 4) as usize
        }
    }

    /// Highest bucket index actually reachable from a `u64` value.
    pub const MAX_BUCKET: usize = 251;

    /// The smallest nanosecond value that maps to `idx`.
    #[must_use]
    pub fn lower_bound(idx: usize) -> u64 {
        if idx > MAX_BUCKET {
            u64::MAX
        } else if idx < 8 {
            idx as u64
        } else {
            let exp = (idx as u64 + 4) / 4;
            let sub = (idx as u64 + 4) % 4;
            (4 + sub) << (exp - 2)
        }
    }

    /// The `q`-quantile of a sparse `(bucket, count)` histogram, capped
    /// at the exact recorded maximum.
    #[must_use]
    pub fn percentile(sparse: &[(u16, u64)], q: f64, max_ns: u64) -> u64 {
        let total: u64 = sparse.iter().map(|&(_, c)| c).sum();
        if total == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut cum = 0;
        for &(idx, c) in sparse {
            cum += c;
            if cum >= target {
                return lower_bound(idx as usize).min(max_ns);
            }
        }
        max_ns
    }
}

// ---------------------------------------------------------------------------
// Per-thread buffers
// ---------------------------------------------------------------------------

struct PhaseSlot {
    total_ns: AtomicU64,
    count: AtomicU64,
    max_ns: AtomicU64,
    hist: [AtomicU64; hist::BUCKETS],
}

impl PhaseSlot {
    fn new() -> Self {
        PhaseSlot {
            total_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            hist: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Plain (mutex-guarded) per-key aggregate; only touched at cell-span
/// granularity, so the uncontended lock is off the per-candidate path.
#[derive(Clone)]
struct KeySlot {
    total_ns: u64,
    count: u64,
    max_ns: u64,
    hist: Vec<u64>,
}

impl KeySlot {
    fn new() -> Self {
        KeySlot {
            total_ns: 0,
            count: 0,
            max_ns: 0,
            hist: vec![0; hist::BUCKETS],
        }
    }
}

struct RawEvent {
    phase: Phase,
    key: u16,
    start: Instant,
    dur_ns: u64,
}

struct ThreadBuf {
    tid: u64,
    phases: [PhaseSlot; N_PHASES],
    counters: [AtomicU64; N_COUNTERS],
    keyed: Mutex<Vec<KeySlot>>,
    events: Mutex<Vec<RawEvent>>,
}

impl ThreadBuf {
    fn new(tid: u64) -> Self {
        ThreadBuf {
            tid,
            phases: std::array::from_fn(|_| PhaseSlot::new()),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            keyed: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }
}

/// Buffers are `Arc`-registered so they outlive the scoped worker
/// threads that own them; drains walk the registry.
fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn key_table() -> &'static Mutex<Vec<String>> {
    static KEYS: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    KEYS.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> &'static Mutex<Option<Instant>> {
    static EPOCH: OnceLock<Mutex<Option<Instant>>> = OnceLock::new();
    EPOCH.get_or_init(|| Mutex::new(None))
}

thread_local! {
    static TLS_BUF: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
    /// Child-time accumulator per open span on this thread.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn with_buf<R>(f: impl FnOnce(&ThreadBuf) -> R) -> R {
    TLS_BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            let mut reg = registry().lock().unwrap();
            let buf = Arc::new(ThreadBuf::new(reg.len() as u64));
            reg.push(Arc::clone(&buf));
            *slot = Some(buf);
        }
        f(slot.as_ref().unwrap())
    })
}

// ---------------------------------------------------------------------------
// Spans and counters
// ---------------------------------------------------------------------------

/// Scoped phase timer; records on drop. Obtained from [`span`] or
/// [`cell_span`]; a no-op (holding no clock reading) when the collector
/// is disabled.
pub struct SpanGuard {
    phase: Phase,
    key: u16,
    start: Option<Instant>,
    record_metrics: bool,
    record_events: bool,
}

/// Opens a scoped timer for `phase` on the current thread.
#[inline]
#[must_use]
pub fn span(phase: Phase) -> SpanGuard {
    span_keyed(phase, NO_KEY)
}

/// Opens a [`Phase::Cell`] timer attributed to the stack at
/// `stack_index` in the table registered via [`set_keys`].
#[inline]
#[must_use]
pub fn cell_span(stack_index: usize) -> SpanGuard {
    let key = u16::try_from(stack_index)
        .unwrap_or(NO_KEY - 1)
        .min(NO_KEY - 1);
    span_keyed(Phase::Cell, key)
}

fn span_keyed(phase: Phase, key: u16) -> SpanGuard {
    let f = flags();
    let disabled = SpanGuard {
        phase,
        key,
        start: None,
        record_metrics: false,
        record_events: false,
    };
    if f == 0 {
        return disabled;
    }
    if f & PROGRESS != 0 {
        CURRENT_PHASE.store(phase as usize, Ordering::Relaxed);
    }
    if f & (METRICS | EVENTS) == 0 {
        return disabled;
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(0));
    SpanGuard {
        phase,
        key,
        start: Some(Instant::now()),
        record_metrics: f & METRICS != 0,
        record_events: f & EVENTS != 0,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Pop our child-time accumulator; charge our inclusive time to
        // the parent span (if any) so its self time excludes us.
        let child_ns = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let child = s.pop().unwrap_or(0);
            if let Some(parent) = s.last_mut() {
                *parent += dur_ns;
            }
            child
        });
        let self_ns = dur_ns.saturating_sub(child_ns);
        with_buf(|buf| {
            if self.record_metrics {
                let slot = &buf.phases[self.phase as usize];
                slot.total_ns.fetch_add(self_ns, Ordering::Relaxed);
                slot.count.fetch_add(1, Ordering::Relaxed);
                slot.max_ns.fetch_max(dur_ns, Ordering::Relaxed);
                slot.hist[hist::bucket(dur_ns)].fetch_add(1, Ordering::Relaxed);
                if self.key != NO_KEY {
                    let mut keyed = buf.keyed.lock().unwrap();
                    let idx = self.key as usize;
                    if keyed.len() <= idx {
                        keyed.resize_with(idx + 1, KeySlot::new);
                    }
                    let k = &mut keyed[idx];
                    k.total_ns += dur_ns;
                    k.count += 1;
                    k.max_ns = k.max_ns.max(dur_ns);
                    k.hist[hist::bucket(dur_ns)] += 1;
                }
            }
            if self.record_events {
                buf.events.lock().unwrap().push(RawEvent {
                    phase: self.phase,
                    key: self.key,
                    start,
                    dur_ns,
                });
            }
        });
    }
}

/// Adds `n` to a monotonic counter.
#[inline]
pub fn count(counter: Counter, n: u64) {
    if flags() & METRICS == 0 || n == 0 {
        return;
    }
    with_buf(|buf| {
        buf.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    });
}

/// True when a metrics session is collecting — callers can use this to
/// skip building labels or other setup that only feeds the collector.
#[inline]
#[must_use]
pub fn metrics_active() -> bool {
    flags() & METRICS != 0
}

/// Registers the labels for [`cell_span`] stack indices (index `i` in
/// the iterator labels key `i`). Ignored when no metrics session is
/// active.
pub fn set_keys<I: IntoIterator<Item = String>>(labels: I) {
    if flags() & METRICS == 0 {
        return;
    }
    *key_table().lock().unwrap() = labels.into_iter().collect();
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

static PROG_TOTAL: AtomicU64 = AtomicU64::new(0);
static PROG_DONE: AtomicU64 = AtomicU64::new(0);
static CURRENT_PHASE: AtomicUsize = AtomicUsize::new(usize::MAX);

fn prog_start() -> &'static Mutex<Option<Instant>> {
    static START: OnceLock<Mutex<Option<Instant>>> = OnceLock::new();
    START.get_or_init(|| Mutex::new(None))
}

/// Declares the total number of work items for the live progress line.
pub fn progress_begin(total: u64) {
    if flags() & PROGRESS == 0 {
        return;
    }
    PROG_DONE.store(0, Ordering::Relaxed);
    PROG_TOTAL.store(total, Ordering::Relaxed);
    *prog_start().lock().unwrap() = Some(Instant::now());
}

/// Marks one work item complete.
#[inline]
pub fn progress_item_done() {
    if flags() & PROGRESS == 0 {
        return;
    }
    PROG_DONE.fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time view of sweep progress for renderers.
#[derive(Clone, Copy, Debug)]
pub struct Progress {
    /// Work items completed so far.
    pub done: u64,
    /// Total work items declared by [`progress_begin`].
    pub total: u64,
    /// Name of the most recently entered phase.
    pub phase: &'static str,
    /// Time since [`progress_begin`].
    pub elapsed: Duration,
}

impl Progress {
    /// Estimated time remaining, linearly extrapolated; `None` until at
    /// least one item has completed.
    #[must_use]
    pub fn eta(&self) -> Option<Duration> {
        if self.done == 0 || self.total == 0 {
            return None;
        }
        let remaining = self.total.saturating_sub(self.done);
        Some(self.elapsed.mul_f64(remaining as f64 / self.done as f64))
    }
}

/// The current progress snapshot, if a progress session has begun.
#[must_use]
pub fn progress_snapshot() -> Option<Progress> {
    if flags() & PROGRESS == 0 {
        return None;
    }
    let start = (*prog_start().lock().unwrap())?;
    let total = PROG_TOTAL.load(Ordering::Relaxed);
    if total == 0 {
        return None;
    }
    let phase_idx = CURRENT_PHASE.load(Ordering::Relaxed);
    Some(Progress {
        done: PROG_DONE.load(Ordering::Relaxed),
        total,
        phase: Phase::ALL.get(phase_idx).map_or("idle", |p| p.name()),
        elapsed: start.elapsed(),
    })
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

/// What a session collects.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceConfig {
    /// Record phase timings, histograms, and counters.
    pub metrics: bool,
    /// Capture individual span events for chrome-trace export.
    pub events: bool,
    /// Maintain the live progress snapshot.
    pub progress: bool,
}

impl TraceConfig {
    /// Metrics-only collection.
    #[must_use]
    pub fn metrics() -> Self {
        TraceConfig {
            metrics: true,
            ..TraceConfig::default()
        }
    }
}

/// True when a session is collecting metrics or events.
#[must_use]
pub fn active() -> bool {
    flags() & (METRICS | EVENTS) != 0
}

/// Arms the process-wide collector, discarding any stale buffered data
/// from a previous session. A no-op when `config` enables nothing.
pub fn start(config: TraceConfig) {
    let mut bits = 0;
    if config.metrics {
        bits |= METRICS;
    }
    if config.events {
        bits |= EVENTS;
    }
    if config.progress {
        bits |= PROGRESS;
    }
    FLAGS.store(0, Ordering::Relaxed);
    drop(drain_buffers()); // reset leftovers from any prior session
    key_table().lock().unwrap().clear();
    *epoch().lock().unwrap() = Some(Instant::now());
    PROG_TOTAL.store(0, Ordering::Relaxed);
    PROG_DONE.store(0, Ordering::Relaxed);
    CURRENT_PHASE.store(usize::MAX, Ordering::Relaxed);
    *prog_start().lock().unwrap() = None;
    FLAGS.store(bits, Ordering::Relaxed);
}

/// Everything a session collected: the aggregate report plus (in events
/// mode) the individual span events.
pub struct TraceSession {
    /// Aggregated metrics.
    pub report: TraceReport,
    /// Individual span events (empty unless [`TraceConfig::events`]).
    pub events: Vec<TraceEvent>,
}

impl TraceSession {
    /// Renders the captured events as a Chrome
    /// `chrome://tracing`-compatible JSON document.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(&self.events)
    }
}

/// One drained span event (events mode only).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Phase name.
    pub phase: &'static str,
    /// Stack label, for keyed cell spans.
    pub key: Option<String>,
    /// Recording thread, by registration order.
    pub tid: u64,
    /// Span start, nanoseconds since session start.
    pub ts_ns: u64,
    /// Inclusive span duration in nanoseconds.
    pub dur_ns: u64,
}

struct Drained {
    phases: Vec<(Phase, u64, u64, u64, Vec<u64>)>, // (phase, total, count, max, dense hist)
    counters: [u64; N_COUNTERS],
    keyed: Vec<KeySlot>,
    events: Vec<(u64, RawEvent)>,
}

fn drain_buffers() -> Drained {
    let mut phases: Vec<(Phase, u64, u64, u64, Vec<u64>)> = Phase::ALL
        .iter()
        .map(|&p| (p, 0, 0, 0, vec![0u64; hist::BUCKETS]))
        .collect();
    let mut counters = [0u64; N_COUNTERS];
    let mut keyed: Vec<KeySlot> = Vec::new();
    let mut events: Vec<(u64, RawEvent)> = Vec::new();
    let reg = registry().lock().unwrap();
    for buf in reg.iter() {
        for (i, slot) in buf.phases.iter().enumerate() {
            phases[i].1 += slot.total_ns.swap(0, Ordering::Relaxed);
            phases[i].2 += slot.count.swap(0, Ordering::Relaxed);
            phases[i].3 = phases[i].3.max(slot.max_ns.swap(0, Ordering::Relaxed));
            for (b, cell) in slot.hist.iter().enumerate() {
                phases[i].4[b] += cell.swap(0, Ordering::Relaxed);
            }
        }
        for (i, c) in buf.counters.iter().enumerate() {
            counters[i] += c.swap(0, Ordering::Relaxed);
        }
        for (i, k) in std::mem::take(&mut *buf.keyed.lock().unwrap())
            .into_iter()
            .enumerate()
        {
            if keyed.len() <= i {
                keyed.resize_with(i + 1, KeySlot::new);
            }
            let dst = &mut keyed[i];
            dst.total_ns += k.total_ns;
            dst.count += k.count;
            dst.max_ns = dst.max_ns.max(k.max_ns);
            for (b, c) in k.hist.iter().enumerate() {
                dst.hist[b] += c;
            }
        }
        for e in std::mem::take(&mut *buf.events.lock().unwrap()) {
            events.push((buf.tid, e));
        }
    }
    Drained {
        phases,
        counters,
        keyed,
        events,
    }
}

fn sparse(dense: &[u64]) -> Vec<(u16, u64)> {
    dense
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(i, &c)| (i as u16, c))
        .collect()
}

/// Disarms the collector and returns everything collected since
/// [`start`]. Call after instrumented work has joined.
#[must_use]
pub fn finish() -> TraceSession {
    FLAGS.store(0, Ordering::Relaxed);
    let wall_ns = epoch().lock().unwrap().take().map_or(0, |e| {
        u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
    });
    finish_with_wall(wall_ns)
}

fn finish_with_wall(wall_ns: u64) -> TraceSession {
    let drained = drain_buffers();
    let labels = std::mem::take(&mut *key_table().lock().unwrap());
    let mut report = TraceReport {
        wall_ns,
        ..TraceReport::default()
    };
    for (phase, total, count, max, dense) in &drained.phases {
        if *count == 0 && *total == 0 {
            continue;
        }
        report.phases.push(PhaseStat {
            name: phase.name().to_string(),
            total_ns: *total,
            count: *count,
            max_ns: *max,
            hist: sparse(dense),
        });
    }
    for (i, &v) in drained.counters.iter().enumerate() {
        if v > 0 {
            report
                .counters
                .push((Counter::ALL[i].name().to_string(), v));
        }
    }
    report.counters.sort();
    for (i, k) in drained.keyed.iter().enumerate() {
        if k.count == 0 {
            continue;
        }
        report.stacks.push(KeyStat {
            label: labels
                .get(i)
                .cloned()
                .unwrap_or_else(|| format!("stack_{i}")),
            total_ns: k.total_ns,
            count: k.count,
            max_ns: k.max_ns,
            hist: sparse(&k.hist),
        });
    }
    let mut events: Vec<TraceEvent> = Vec::with_capacity(drained.events.len());
    // Events carry raw `Instant`s; anchor them to the session epoch, or
    // to the earliest event when the epoch was already consumed.
    let anchor = drained.events.iter().map(|(_, e)| e.start).min();
    if let Some(anchor) = anchor {
        for (tid, e) in drained.events {
            events.push(TraceEvent {
                phase: e.phase.name(),
                key: if e.key == NO_KEY {
                    None
                } else {
                    labels.get(e.key as usize).cloned()
                },
                tid,
                ts_ns: u64::try_from(e.start.duration_since(anchor).as_nanos()).unwrap_or(u64::MAX),
                dur_ns: e.dur_ns,
            });
        }
        events.sort_by_key(|e| (e.ts_ns, e.tid));
    }
    TraceSession { report, events }
}

// ---------------------------------------------------------------------------
// TraceReport
// ---------------------------------------------------------------------------

/// Aggregated timing for one phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name ([`Phase::name`]).
    pub name: String,
    /// Exclusive (self) time: inclusive duration minus child spans.
    pub total_ns: u64,
    /// Number of spans.
    pub count: u64,
    /// Maximum inclusive span duration.
    pub max_ns: u64,
    /// Sparse `(bucket, count)` histogram of inclusive durations.
    pub hist: Vec<(u16, u64)>,
}

impl PhaseStat {
    /// Median inclusive span duration.
    #[must_use]
    pub fn p50_ns(&self) -> u64 {
        hist::percentile(&self.hist, 0.50, self.max_ns)
    }

    /// 95th-percentile inclusive span duration.
    #[must_use]
    pub fn p95_ns(&self) -> u64 {
        hist::percentile(&self.hist, 0.95, self.max_ns)
    }
}

/// Aggregated cell timing of one [`set_keys`] key (a `stacks` row).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KeyStat {
    /// Stack label as registered via [`set_keys`].
    pub label: String,
    /// Sum of inclusive cell durations.
    pub total_ns: u64,
    /// Number of cells.
    pub count: u64,
    /// Maximum inclusive cell duration.
    pub max_ns: u64,
    /// Sparse `(bucket, count)` histogram of inclusive durations.
    pub hist: Vec<(u16, u64)>,
}

impl KeyStat {
    /// Median cell duration.
    #[must_use]
    pub fn p50_ns(&self) -> u64 {
        hist::percentile(&self.hist, 0.50, self.max_ns)
    }

    /// 95th-percentile cell duration.
    #[must_use]
    pub fn p95_ns(&self) -> u64 {
        hist::percentile(&self.hist, 0.95, self.max_ns)
    }
}

/// One shard worker's report inside a merged coordinator report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Shard index.
    pub shard: u64,
    /// The worker's own drained report.
    pub report: TraceReport,
}

/// The drained, mergeable aggregate of one tracing session.
///
/// See the crate docs for the JSON schema.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Session wall clock in nanoseconds.
    pub wall_ns: u64,
    /// Per-phase timing, in pipeline order; active phases only.
    pub phases: Vec<PhaseStat>,
    /// Named counters, sorted by name. Holds both trace-layer counters
    /// and counters injected from `SweepStats` / `StoreStats`.
    pub counters: Vec<(String, u64)>,
    /// Per-stack cell latency.
    pub stacks: Vec<KeyStat>,
    /// Per-shard breakdown, for merged coordinator reports.
    pub workers: Vec<WorkerReport>,
    /// The run's configuration, set by the program that ran it (the
    /// `config` object; absent from the document when `None`).
    pub config: Option<RunConfig>,
}

/// The configuration of the run a report measured — what a reader needs
/// before comparing two reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunConfig {
    /// Worker threads per process.
    pub threads: u64,
    /// The host's available parallelism.
    pub nproc: u64,
    /// The equivalence checked, as the sweep options spell it
    /// (`"Target"` or `"FullOutcomes"`).
    pub outcome_mode: String,
    /// Litmus tests swept.
    pub suite_size: u64,
}

impl TraceReport {
    /// Sum of per-phase self time — total busy time across threads.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.total_ns).sum()
    }

    /// Looks up a phase by name.
    #[must_use]
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Looks up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Sets (or replaces) a named counter, keeping the set sorted.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self
            .counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(i) => self.counters[i].1 = value,
            Err(i) => self.counters.insert(i, (name.to_string(), value)),
        }
    }

    /// Adds `value` to a named counter, creating it if absent.
    pub fn add_counter(&mut self, name: &str, value: u64) {
        match self
            .counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
        {
            Ok(i) => self.counters[i].1 += value,
            Err(i) => self.counters.insert(i, (name.to_string(), value)),
        }
    }

    /// Sums `other` into `self`: phases by name, counters by name,
    /// stacks by label. `wall_ns` and `workers` are left untouched —
    /// wall clocks do not add across concurrent shards.
    pub fn merge(&mut self, other: &TraceReport) {
        for op in &other.phases {
            if let Some(p) = self.phases.iter_mut().find(|p| p.name == op.name) {
                p.total_ns += op.total_ns;
                p.count += op.count;
                p.max_ns = p.max_ns.max(op.max_ns);
                merge_sparse(&mut p.hist, &op.hist);
            } else {
                // Keep pipeline order: insert per Phase::ALL rank.
                let rank = |name: &str| {
                    Phase::ALL
                        .iter()
                        .position(|p| p.name() == name)
                        .unwrap_or(usize::MAX)
                };
                let pos = self
                    .phases
                    .iter()
                    .position(|p| rank(&p.name) > rank(&op.name))
                    .unwrap_or(self.phases.len());
                self.phases.insert(pos, op.clone());
            }
        }
        for (name, v) in &other.counters {
            self.add_counter(name, *v);
        }
        for os in &other.stacks {
            if let Some(s) = self.stacks.iter_mut().find(|s| s.label == os.label) {
                s.total_ns += os.total_ns;
                s.count += os.count;
                s.max_ns = s.max_ns.max(os.max_ns);
                merge_sparse(&mut s.hist, &os.hist);
            } else {
                self.stacks.push(os.clone());
            }
        }
    }

    /// Merges a shard worker's report into this (coordinator) report and
    /// records it in [`TraceReport::workers`] for the per-worker
    /// breakdown.
    pub fn absorb_worker(&mut self, shard: u64, report: TraceReport) {
        self.merge(&report);
        self.workers.push(WorkerReport { shard, report });
        self.workers.sort_by_key(|w| w.shard);
    }

    /// Serializes to the stable `tricheck-metrics/v1` JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"schema\": \"tricheck-metrics/v1\",\n");
        if let Some(c) = &self.config {
            let _ = writeln!(
                out,
                "  \"config\": {{\"threads\": {}, \"nproc\": {}, \"outcome_mode\": \"{}\", \
                 \"suite_size\": {}}},",
                c.threads,
                c.nproc,
                json_escape(&c.outcome_mode),
                c.suite_size
            );
        }
        let _ = writeln!(out, "  \"wall_ns\": {},", self.wall_ns);
        let _ = writeln!(out, "  \"busy_ns\": {},", self.busy_ns());
        out.push_str("  \"phases\": ");
        json_phases(&mut out, &self.phases, "  ");
        out.push_str(",\n  \"counters\": ");
        json_counters(&mut out, &self.counters, "  ");
        out.push_str(",\n  \"stacks\": ");
        json_stacks(&mut out, &self.stacks, "  ");
        out.push_str(",\n  \"workers\": [");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"shard\": {}, ", w.shard);
            let _ = write!(out, "\"wall_ns\": {}, ", w.report.wall_ns);
            let _ = write!(
                out,
                "\"busy_ns\": {},\n      \"phases\": ",
                w.report.busy_ns()
            );
            json_phases(&mut out, &w.report.phases, "      ");
            out.push_str(",\n      \"counters\": ");
            json_counters(&mut out, &w.report.counters, "      ");
            out.push_str(",\n      \"stacks\": ");
            json_stacks(&mut out, &w.report.stacks, "      ");
            out.push('}');
        }
        if !self.workers.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders a human-readable phase table (used by the bench binaries
    /// in place of hand-rolled `Instant` arithmetic).
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.phases.is_empty() {
            let _ = write!(out, "wall: {}", fmt_ns(self.wall_ns));
            return out;
        }
        out.push_str("phase              self-total      count        p50        p95        max\n");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<18} {:>11} {:>10} {:>10} {:>10} {:>10}",
                p.name,
                fmt_ns(p.total_ns),
                p.count,
                fmt_ns(p.p50_ns()),
                fmt_ns(p.p95_ns()),
                fmt_ns(p.max_ns),
            );
        }
        let _ = write!(
            out,
            "wall: {} · busy: {}",
            fmt_ns(self.wall_ns),
            fmt_ns(self.busy_ns())
        );
        out
    }
}

fn merge_sparse(dst: &mut Vec<(u16, u64)>, src: &[(u16, u64)]) {
    for &(b, c) in src {
        match dst.binary_search_by_key(&b, |&(i, _)| i) {
            Ok(i) => dst[i].1 += c,
            Err(i) => dst.insert(i, (b, c)),
        }
    }
}

/// Escapes `s` for the inside of a JSON string literal: quotes,
/// backslashes and control characters.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_phases(out: &mut String, phases: &[PhaseStat], indent: &str) {
    out.push('[');
    for (i, p) in phases.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{indent}  {{\"name\": \"{}\", \"total_ns\": {}, \"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"max_ns\": {}}}",
            json_escape(&p.name),
            p.total_ns,
            p.count,
            p.p50_ns(),
            p.p95_ns(),
            p.max_ns,
        );
    }
    if !phases.is_empty() {
        let _ = write!(out, "\n{indent}");
    }
    out.push(']');
}

fn json_stacks(out: &mut String, stacks: &[KeyStat], indent: &str) {
    out.push('[');
    for (i, s) in stacks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{indent}  {{\"label\": \"{}\", \"total_ns\": {}, \"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"max_ns\": {}}}",
            json_escape(&s.label),
            s.total_ns,
            s.count,
            s.p50_ns(),
            s.p95_ns(),
            s.max_ns,
        );
    }
    if !stacks.is_empty() {
        let _ = write!(out, "\n{indent}");
    }
    out.push(']');
}

fn json_counters(out: &mut String, counters: &[(String, u64)], indent: &str) {
    out.push('{');
    for (i, (name, v)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n{indent}  \"{}\": {}", json_escape(name), v);
    }
    if !counters.is_empty() {
        let _ = write!(out, "\n{indent}");
    }
    out.push('}');
}

/// Formats nanoseconds for humans (`1.234 ms` style).
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)]
    let f = ns as f64;
    if ns >= 1_000_000_000 {
        format!("{:.2} s", f / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1} ms", f / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", f / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Renders drained span events as a Chrome `chrome://tracing` /
/// Perfetto-compatible JSON document (complete `"ph": "X"` events,
/// microsecond timestamps).
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        #[allow(clippy::cast_precision_loss)]
        let _ = write!(
            out,
            "\n{{\"name\": \"{}\", \"cat\": \"tricheck\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}",
            json_escape(e.phase),
            e.tid,
            e.ts_ns as f64 / 1e3,
            e.dur_ns as f64 / 1e3,
        );
        if let Some(key) = &e.key {
            let _ = write!(out, ", \"args\": {{\"stack\": \"{}\"}}", json_escape(key));
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions are process-global; serialize the tests that use them.
    fn session_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn bucket_lower_bound_roundtrip() {
        for idx in 0..=hist::MAX_BUCKET {
            let lo = hist::lower_bound(idx);
            assert_eq!(hist::bucket(lo), idx, "idx {idx} lo {lo}");
            if lo > 0 {
                assert!(hist::bucket(lo - 1) < idx);
            }
        }
        assert_eq!(hist::bucket(u64::MAX), hist::BUCKETS - 5);
    }

    #[test]
    fn percentile_caps_at_max() {
        let sparse = vec![(hist::bucket(1000) as u16, 10)];
        assert!(hist::percentile(&sparse, 0.5, 1023) <= 1023);
        assert_eq!(hist::percentile(&[], 0.5, 0), 0);
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _guard = session_lock();
        // No session: spans and counters must leave no trace behind.
        {
            let _s = span(Phase::SpaceEnum);
            count(Counter::PrunedBranches, 7);
        }
        start(TraceConfig::metrics());
        let session = finish();
        assert!(session.report.phases.is_empty());
        assert!(session.report.counters.is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let _guard = session_lock();
        start(TraceConfig::metrics());
        {
            let _outer = span(Phase::Cell);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span(Phase::CandidateCheck);
                std::thread::sleep(Duration::from_millis(8));
            }
        }
        let report = finish().report;
        let cell = report.phase("cell").expect("cell phase").clone();
        let check = report
            .phase("candidate_check")
            .expect("check phase")
            .clone();
        assert_eq!(cell.count, 1);
        assert_eq!(check.count, 1);
        // Inclusive cell duration covers both sleeps; its self time only
        // the first.
        assert!(cell.max_ns >= 9_000_000, "max {}", cell.max_ns);
        assert!(
            cell.total_ns < check.total_ns,
            "cell self {} vs check {}",
            cell.total_ns,
            check.total_ns
        );
        let busy = report.busy_ns();
        assert!(busy <= cell.max_ns + 1_000_000, "busy {busy}");
    }

    #[test]
    fn counters_and_keyed_spans_aggregate() {
        let _guard = session_lock();
        start(TraceConfig::metrics());
        set_keys(vec!["alpha".into(), "beta".into()]);
        count(Counter::CandidatesEnumerated, 5);
        count(Counter::CandidatesEnumerated, 7);
        {
            let _a = cell_span(0);
        }
        {
            let _b = cell_span(1);
        }
        {
            let _b2 = cell_span(1);
        }
        let report = finish().report;
        assert_eq!(report.counter("candidates_enumerated"), Some(12));
        assert_eq!(report.stacks.len(), 2);
        assert_eq!(report.stacks[0].label, "alpha");
        assert_eq!(report.stacks[0].count, 1);
        assert_eq!(report.stacks[1].label, "beta");
        assert_eq!(report.stacks[1].count, 2);
        // Histogram counts match span counts.
        let h: u64 = report.stacks[1].hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(h, 2);
    }

    #[test]
    fn events_capture_and_chrome_render() {
        let _guard = session_lock();
        start(TraceConfig {
            metrics: true,
            events: true,
            progress: false,
        });
        set_keys(vec!["alpha".into()]);
        {
            let _s = cell_span(0);
            let _inner = span(Phase::SpaceEnum);
        }
        let session = finish();
        assert_eq!(session.events.len(), 2);
        let chrome = session.chrome_json();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\": \"X\""));
        assert!(chrome.contains("\"space_enum\""));
        assert!(chrome.contains("\"stack\": \"alpha\""));
        assert!(json::parse(&chrome).is_ok(), "chrome JSON parses");
    }

    #[test]
    fn report_merge_and_workers() {
        let mut a = TraceReport::default();
        a.set_counter("x", 1);
        a.phases.push(PhaseStat {
            name: "cell".into(),
            total_ns: 10,
            count: 2,
            max_ns: 8,
            hist: vec![(3, 2)],
        });
        let mut b = TraceReport {
            wall_ns: 99,
            ..TraceReport::default()
        };
        b.set_counter("x", 2);
        b.set_counter("y", 5);
        b.phases.push(PhaseStat {
            name: "cell".into(),
            total_ns: 5,
            count: 1,
            max_ns: 9,
            hist: vec![(3, 1), (4, 1)],
        });
        b.phases.push(PhaseStat {
            name: "c11_eval".into(),
            total_ns: 7,
            count: 1,
            max_ns: 7,
            hist: vec![(2, 1)],
        });
        let mut merged = a.clone();
        merged.absorb_worker(1, b.clone());
        assert_eq!(merged.counter("x"), Some(3));
        assert_eq!(merged.counter("y"), Some(5));
        let cell = merged.phase("cell").unwrap();
        assert_eq!(cell.total_ns, 15);
        assert_eq!(cell.count, 3);
        assert_eq!(cell.max_ns, 9);
        assert_eq!(cell.hist, vec![(3, 3), (4, 1)]);
        // Phase order: c11_eval sorts after cell per pipeline order.
        assert_eq!(merged.phases[1].name, "c11_eval");
        assert_eq!(merged.workers.len(), 1);
        assert_eq!(merged.workers[0].shard, 1);
        assert_eq!(merged.workers[0].report, b);
        // Merged totals equal the sum of the parts.
        assert_eq!(
            merged.phase("cell").unwrap().total_ns,
            a.phase("cell").unwrap().total_ns + b.phase("cell").unwrap().total_ns
        );
    }

    #[test]
    fn json_document_parses_and_pins_keys() {
        let mut r = TraceReport {
            wall_ns: 1000,
            ..TraceReport::default()
        };
        r.set_counter("c11_evaluations", 42);
        r.phases.push(PhaseStat {
            name: "cell".into(),
            total_ns: 900,
            count: 3,
            max_ns: 400,
            hist: vec![(hist::bucket(300) as u16, 3)],
        });
        r.stacks.push(KeyStat {
            label: "RISC-V/Curr-Base/\"WR\"".into(),
            total_ns: 900,
            count: 3,
            max_ns: 400,
            hist: vec![(hist::bucket(300) as u16, 3)],
        });
        let mut worker = TraceReport::default();
        worker.set_counter("c11_evaluations", 21);
        r.absorb_worker(0, worker);
        let doc = r.to_json();
        let parsed = json::parse(&doc).expect("valid JSON");
        let obj = parsed.as_object().expect("object");
        for key in [
            "schema", "wall_ns", "busy_ns", "phases", "counters", "stacks", "workers",
        ] {
            assert!(obj.iter().any(|(k, _)| k == key), "missing key {key}");
        }
        assert_eq!(
            parsed.get("schema").and_then(json::Value::as_str),
            Some("tricheck-metrics/v1")
        );
        assert_eq!(
            parsed.get("wall_ns").and_then(json::Value::as_u64),
            Some(1000)
        );
        let workers = parsed
            .get("workers")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(workers.len(), 1);
    }

    #[test]
    fn progress_snapshot_tracks_items() {
        let _guard = session_lock();
        start(TraceConfig {
            metrics: false,
            events: false,
            progress: true,
        });
        progress_begin(10);
        progress_item_done();
        progress_item_done();
        let p = progress_snapshot().expect("snapshot");
        assert_eq!(p.done, 2);
        assert_eq!(p.total, 10);
        assert!(p.eta().is_some());
        let _ = finish();
        assert!(progress_snapshot().is_none());
    }
}
