//! The shard planner: deal (test × stack) work across N worker
//! processes by fingerprint range, run each shard in a spawned child,
//! and merge the per-shard items into a result bit-identical to the
//! single-process engine.
//!
//! # Protocol
//!
//! The parent spawns `current_exe()` with caller-supplied arguments
//! (the CLI passes its hidden `shard-worker` subcommand; the test
//! harness passes a probe test filter) and speaks a line-oriented hex
//! protocol over stdio:
//!
//! - parent → child (stdin): one line of hex — a shard job: protocol
//!   version, the built-in matrix's registry name, outcome mode,
//!   per-shard threads, optional
//!   cache directory, and the shard's tests (fully serialized, with
//!   their global indices).
//! - child → parent (stdout): one line `TCSHARD-RESULT <hex>` — the
//!   per-item classifications in local-test-major order plus the
//!   shard's [`SweepStats`] and [`StoreStats`] and, when the job asked
//!   for tracing, the worker's drained [`TraceReport`]; or
//!   `TCSHARD-ERROR <message>`. Marker prefixes let the payload coexist
//!   with test harness chatter on the same stream.
//!
//! Dealing is by the *C11 program fingerprint* of each test: the u64
//! fingerprint space is split into `shards` equal ranges and a test
//! goes to the range its fingerprint falls in. All of a test's matrix
//! cells stay in one shard, so per-shard compiled-program and space
//! caches keep their locality; which shard a test lands on is stable
//! across runs of one build (the property `tests/fingerprint_stability.rs`
//! pins), so warm-store runs re-deal identically.
//!
//! # Merge
//!
//! The parent places each shard's items back at their global (test ×
//! stack) indices and aggregates through
//! [`tricheck_core::results_from_items`] — the very function
//! [`Sweep::run_matrix`] uses — so the merged rows are bit-identical to
//! a single-process run by construction (and differentially tested in
//! `crates/dist/tests/sharded.rs`). [`SweepStats`] are summed field-wise
//! (cells excepted); on a warm store the summed
//! `space_enumerations == 0` is the cross-process exactly-once proof.

use std::io::{BufRead, Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, OnceLock};

use tricheck_core::{
    builtin_names, builtin_stack, results_from_items, Classification, LoadedStack, MatrixStack,
    OutcomeMode, SpaceStore, StoreStats, Sweep, SweepOptions, SweepResults, SweepStats,
};
use tricheck_litmus::codec::{self, ByteReader, CodecError};
use tricheck_litmus::{Fingerprint, LitmusTest, MemOrder};
use tricheck_trace::{KeyStat, PhaseStat, TraceReport, WorkerReport};

use crate::store::DiskStore;

/// Bumped whenever the job or result wire layout changes; a version
/// mismatch is a hard error (parent and child are expected to be the
/// same binary, so a mismatch means a build-system bug, not skew to
/// paper over). v2: result frames carry `candidates_pruned`, jobs may
/// name the x86 matrix and disable pruning. v3: result frames carry the
/// compiled-kernel and prelude-cache counters. v4: jobs carry a
/// collect-trace flag and result frames may append an encoded
/// [`TraceReport`] so the coordinator can merge a per-worker phase and
/// counter breakdown. v5: result frames drop the two prelude-cache
/// counters. v6: jobs name the matrix by its registry name (a string)
/// instead of a one-byte matrix tag. v7: jobs drop the pruning flag
/// (every sweep prunes).
pub const PROTOCOL_VERSION: u16 = 7;

/// Checks a decoded frame version against this build's, naming both in
/// the error so cross-build skew is diagnosable from the message alone.
fn check_version(frame: &str, got: u16) -> Result<(), String> {
    if got == PROTOCOL_VERSION {
        Ok(())
    } else {
        Err(format!(
            "shard protocol version mismatch: {frame} frame is v{got}, \
             this build expects v{PROTOCOL_VERSION}"
        ))
    }
}

/// Stdout marker preceding a worker's hex-encoded result payload.
pub const RESULT_MARKER: &str = "TCSHARD-RESULT ";
/// Stdout marker preceding a worker's error message.
pub const ERROR_MARKER: &str = "TCSHARD-ERROR ";

/// Options of a sharded run.
#[derive(Clone, Debug)]
pub struct DistOptions {
    /// Number of worker processes. `1` runs the sweep in-process — no
    /// child is spawned at all (the `--shards 1` fast path).
    pub shards: usize,
    /// Worker threads *per shard*. Defaults to the machine's available
    /// parallelism divided by the shard count (at least 1), so a
    /// default-configured sharded run does not oversubscribe the host.
    pub threads: Option<usize>,
    /// The equivalence checked per cell.
    pub outcome_mode: OutcomeMode,
    /// Cache directory for the persistent [`DiskStore`], shared by all
    /// shards. `None` runs without persistence.
    pub cache_dir: Option<PathBuf>,
    /// Ask each worker to run its shard under a metrics-collecting
    /// trace session and ship the drained [`TraceReport`] back in its
    /// result frame (since protocol v4). Off by default: untraced shards pay
    /// zero collection cost.
    pub collect_trace: bool,
    /// Arguments the worker binary (`std::env::current_exe()`) is
    /// spawned with, ahead of the stdin job: the CLI passes
    /// `["shard-worker"]`; tests pass a harness filter for their probe
    /// test.
    pub worker_args: Vec<String>,
    /// Extra environment variables for worker processes (tests use one
    /// to arm their probe).
    pub worker_env: Vec<(String, String)>,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            shards: 1,
            threads: None,
            outcome_mode: OutcomeMode::Target,
            cache_dir: None,
            collect_trace: false,
            worker_args: vec!["shard-worker".to_string()],
            worker_env: Vec::new(),
        }
    }
}

/// What one shard reported back.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index (also its position in the fingerprint-range deal).
    pub shard: usize,
    /// Number of tests dealt to this shard.
    pub tests: usize,
    /// The shard's engine cache counters.
    pub stats: SweepStats,
    /// The shard's persistent-store counters (zero without a store).
    pub store: StoreStats,
    /// The shard's drained trace report, when the run asked for one
    /// ([`DistOptions::collect_trace`]) and the shard ran out of
    /// process. In-process (`--shards 1`) runs report `None`: the sweep
    /// executes inside the caller's own trace session, so there is no
    /// separate worker report to ship.
    pub trace: Option<TraceReport>,
}

/// The merged output of a sharded run.
#[derive(Clone, Debug)]
pub struct DistResults {
    /// Rows bit-identical to a single-process `run_matrix` over the
    /// same tests and stacks; stats are the field-wise sum of the
    /// per-shard stats (`cells` is the matrix width, not a sum).
    pub results: SweepResults,
    /// Per-shard reports, in shard order (shards dealt zero tests are
    /// omitted — they are never spawned).
    pub shards: Vec<ShardReport>,
}

impl DistResults {
    /// The summed persistent-store counters across all shards.
    #[must_use]
    pub fn store_stats(&self) -> StoreStats {
        self.shards
            .iter()
            .fold(StoreStats::default(), |acc, s| acc.merged(&s.store))
    }

    /// Folds every shard's trace report into `into` as a per-worker
    /// breakdown ([`TraceReport::absorb_worker`]): phase, counter, and
    /// stack aggregates merge into the coordinator's totals while each
    /// worker's own report is kept under `workers[]`.
    pub fn absorb_traces(&self, into: &mut TraceReport) {
        for s in &self.shards {
            if let Some(trace) = &s.trace {
                into.absorb_worker(s.shard as u64, trace.clone());
            }
        }
    }
}

/// A sharded-run failure: spawn, protocol, or store trouble. The
/// engine itself cannot fail, so every variant is environmental.
#[derive(Debug)]
pub enum DistError {
    /// `shards` was zero.
    NoShards,
    /// The cache directory could not be opened.
    Store(crate::store::StoreError),
    /// A worker process could not be spawned or waited on.
    Spawn(std::io::Error),
    /// A worker exited without producing a usable result line.
    Worker {
        /// Shard index of the failing worker.
        shard: usize,
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::NoShards => f.write_str("shard count must be at least 1"),
            DistError::Store(e) => write!(f, "{e}"),
            DistError::Spawn(e) => write!(f, "spawning shard worker: {e}"),
            DistError::Worker { shard, message } => write!(f, "shard {shard}: {message}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<crate::store::StoreError> for DistError {
    fn from(e: crate::store::StoreError) -> Self {
        DistError::Store(e)
    }
}

/// Default per-shard thread count: the host's parallelism divided
/// across shards.
fn threads_per_shard(opts: &DistOptions) -> usize {
    opts.threads.unwrap_or_else(|| {
        let total = std::thread::available_parallelism().map_or(1, |n| n.get());
        (total / opts.shards.max(1)).max(1)
    })
}

/// The shard a test is dealt to: its C11 program fingerprint's position
/// in the u64 space split into `shards` equal ranges.
#[must_use]
pub fn shard_of(test: &LitmusTest, shards: usize) -> usize {
    let fp = Fingerprint::of(test.program()).as_u64();
    ((u128::from(fp) * shards as u128) >> 64) as usize
}

/// Runs `matrix` over `tests`, dealt across `opts.shards` worker
/// processes by fingerprint range, and merges the shards into a result
/// bit-identical to single-process
/// [`Sweep::run_matrix`] on the same inputs. Every CLI sweep is one
/// call to this function.
///
/// With `shards == 1` the sweep runs in-process (no spawn) over any
/// entry: a built-in, a stack file or a model file. With a cache
/// directory the sweep, or every shard, reads and writes one persistent
/// [`DiskStore`], so a warm rerun loads every execution space and C11
/// verdict instead of recomputing them — across processes, and for
/// any matrix, since spaces are keyed by compiled program and verdicts
/// by test content.
///
/// Trait-object mappings cannot cross a process boundary, so with
/// `shards > 1` the job names the matrix and each worker rebuilds it
/// with [`builtin_stack`]: `matrix` must then be the built-in entry
/// itself. A worker rejects an unknown name, but a loaded file may
/// reuse a built-in's (`models/riscv.stack` is named `riscv`), so the
/// caller must refuse loaded entries with more than one shard.
///
/// # Errors
///
/// [`DistError`] on spawn/protocol/store failures; never on engine
/// behaviour.
pub fn run_sharded(
    matrix: &LoadedStack,
    tests: &[LitmusTest],
    opts: &DistOptions,
) -> Result<DistResults, DistError> {
    if opts.shards == 0 {
        return Err(DistError::NoShards);
    }
    let stacks = &matrix.stacks;
    if opts.shards == 1 {
        // The caller's own trace session records the sweep.
        let (items, report) = sweep_shard(stacks, tests, opts, false)?;
        return Ok(DistResults {
            results: results_from_items(tests, stacks, &items, report.stats),
            shards: vec![report],
        });
    }

    // Deal by fingerprint range.
    let mut dealt: Vec<Vec<u32>> = vec![Vec::new(); opts.shards];
    for (i, test) in tests.iter().enumerate() {
        dealt[shard_of(test, opts.shards)].push(i as u32);
    }

    let exe = std::env::current_exe().map_err(DistError::Spawn)?;
    let threads = threads_per_shard(opts);
    let mut children: Vec<(usize, Child)> = Vec::new();
    for (shard, indices) in dealt.iter().enumerate() {
        if indices.is_empty() {
            continue;
        }
        let job = encode_job(&matrix.name, tests, indices, threads, opts);
        let spawned = Command::new(&exe)
            .args(&opts.worker_args)
            .envs(opts.worker_env.iter().map(|(k, v)| (k, v)))
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match spawned {
            Ok(child) => child,
            Err(e) => {
                reap(children);
                return Err(DistError::Spawn(e));
            }
        };
        {
            let mut stdin = child.stdin.take().expect("piped stdin");
            let mut line = hex_encode(&job);
            line.push('\n');
            // A write failure (e.g. EPIPE from a worker that died before
            // reading its job) is not fatal here: the collection loop
            // below reports the worker's own output/exit as the error,
            // which is strictly more informative.
            let _ = stdin.write_all(line.as_bytes());
            // Dropping stdin closes the pipe, letting read_line return.
        }
        children.push((shard, child));
    }

    // Collect every worker's result. Workers run concurrently; reading
    // them in order cannot deadlock because each child's stdin is
    // already written and closed. On the first failure every worker
    // still running is reaped before the error is returned.
    let n_stacks = stacks.len();
    let mut items: Vec<Option<Classification>> = vec![None; tests.len() * n_stacks];
    let mut stats = SweepStats::default();
    let mut reports = Vec::new();
    let mut pending = children.into_iter();
    while let Some((shard, mut child)) = pending.next() {
        let mut collect = || -> Result<(), DistError> {
            let _exchange = tricheck_trace::span(tricheck_trace::Phase::ShardExchange);
            let mut stdout = String::new();
            child
                .stdout
                .take()
                .expect("piped stdout")
                .read_to_string(&mut stdout)
                .map_err(DistError::Spawn)?;
            let status = child.wait().map_err(DistError::Spawn)?;
            let (shard_items, shard_stats, shard_store, shard_trace) =
                parse_worker_output(&stdout, status.success())
                    .map_err(|message| DistError::Worker { shard, message })?;
            let indices = &dealt[shard];
            if shard_items.len() != indices.len() * n_stacks {
                return Err(DistError::Worker {
                    shard,
                    message: format!(
                        "result has {} items, expected {}",
                        shard_items.len(),
                        indices.len() * n_stacks
                    ),
                });
            }
            for (local, &global) in indices.iter().enumerate() {
                let global = global as usize;
                items[global * n_stacks..(global + 1) * n_stacks]
                    .copy_from_slice(&shard_items[local * n_stacks..(local + 1) * n_stacks]);
            }
            stats = merge_stats(stats, shard_stats);
            reports.push(ShardReport {
                shard,
                tests: indices.len(),
                stats: shard_stats,
                store: shard_store,
                trace: shard_trace,
            });
            Ok(())
        };
        if let Err(e) = collect() {
            reap(std::iter::once((shard, child)).chain(pending));
            return Err(e);
        }
    }
    stats.tests = tests.len();
    stats.cells = n_stacks;
    Ok(DistResults {
        results: results_from_items(tests, stacks, &items, stats),
        shards: reports,
    })
}

/// Kills and waits every child, so a failed sweep leaves no worker
/// running (a worker left behind would sweep on and then die writing
/// to a closed pipe).
fn reap(children: impl IntoIterator<Item = (usize, Child)>) {
    for (_, mut child) in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// The store-backed sweep one process runs over its shard — the whole
/// run in process (`shards == 1`), or one worker's share: opens the
/// store in `opts.cache_dir` (if any), sweeps `tests` through `stacks`,
/// and reads the store's counters. With `trace`, the sweep runs under
/// its own metrics session, begun once the store is open, whose drained
/// report carries the authoritative counters ([`set_sweep_counters`]).
fn sweep_shard(
    stacks: &[MatrixStack<'_>],
    tests: &[LitmusTest],
    opts: &DistOptions,
    trace: bool,
) -> Result<(Vec<Option<Classification>>, ShardReport), crate::store::StoreError> {
    let store = match &opts.cache_dir {
        Some(dir) => Some(Arc::new(DiskStore::open(dir)?)),
        None => None,
    };
    let sweep_opts = SweepOptions {
        threads: threads_per_shard(opts),
        outcome_mode: opts.outcome_mode,
        store: store.clone().map(|s| s as Arc<dyn SpaceStore>),
        ..SweepOptions::default()
    };
    if trace {
        tricheck_trace::start(tricheck_trace::TraceConfig::metrics());
    }
    let items = Sweep::with_options(sweep_opts).run_matrix_items(tests, stacks);
    let store_stats = store.map(|s| s.stats()).unwrap_or_default();
    let trace = trace.then(|| {
        let mut report = tricheck_trace::finish().report;
        set_sweep_counters(&mut report, &items.stats, Some(&store_stats));
        report
    });
    let report = ShardReport {
        shard: 0,
        tests: tests.len(),
        stats: items.stats,
        store: store_stats,
        trace,
    };
    Ok((items.items, report))
}

/// Writes a sweep's engine counters, and its store counters when it ran
/// against a store, into `report`, overwriting what the trace session
/// counted itself: the sweep's own totals are authoritative. A shard
/// worker's report and a caller's merged metrics both take their
/// counters from here.
pub fn set_sweep_counters(
    report: &mut TraceReport,
    stats: &SweepStats,
    store: Option<&StoreStats>,
) {
    for (name, value) in stats.as_counters() {
        report.set_counter(name, value);
    }
    for (name, value) in store.iter().flat_map(|s| s.as_counters()) {
        report.set_counter(name, value);
    }
}

/// Field-wise sum of two shards' stats (`tests`/`cells` are fixed up by
/// the caller).
fn merge_stats(a: SweepStats, b: SweepStats) -> SweepStats {
    SweepStats {
        tests: a.tests + b.tests,
        cells: a.cells.max(b.cells),
        c11_evaluations: a.c11_evaluations + b.c11_evaluations,
        compile_calls: a.compile_calls + b.compile_calls,
        compile_cache_hits: a.compile_cache_hits + b.compile_cache_hits,
        distinct_programs: a.distinct_programs + b.distinct_programs,
        space_cache_hits: a.space_cache_hits + b.space_cache_hits,
        space_enumerations: a.space_enumerations + b.space_enumerations,
        candidates_pruned: a.candidates_pruned + b.candidates_pruned,
        compiled_kernels: a.compiled_kernels + b.compiled_kernels,
    }
}

/// Extracts a worker's result from its stdout, tolerating harness
/// chatter around the marker lines.
fn parse_worker_output(stdout: &str, exited_ok: bool) -> Result<DecodedResult, String> {
    for line in stdout.lines() {
        if let Some(at) = line.find(ERROR_MARKER) {
            return Err(line[at + ERROR_MARKER.len()..].trim().to_string());
        }
        if let Some(at) = line.find(RESULT_MARKER) {
            let hex = line[at + RESULT_MARKER.len()..].trim();
            let bytes = hex_decode(hex).ok_or("result line is not valid hex")?;
            return decode_result(&bytes);
        }
    }
    if exited_ok {
        Err("worker produced no result line".to_string())
    } else {
        Err("worker exited with failure before producing a result".to_string())
    }
}

/// Serializes a shard's job line payload.
fn encode_job(
    matrix: &str,
    tests: &[LitmusTest],
    indices: &[u32],
    threads: usize,
    opts: &DistOptions,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"TCSJ");
    codec::put_u16(&mut out, PROTOCOL_VERSION);
    codec::put_str(&mut out, matrix);
    out.push(match opts.outcome_mode {
        OutcomeMode::Target => 0,
        OutcomeMode::FullOutcomes => 1,
    });
    out.push(u8::from(opts.collect_trace));
    codec::put_u16(&mut out, threads as u16);
    match &opts.cache_dir {
        Some(dir) => {
            out.push(1);
            codec::put_str(&mut out, &dir.to_string_lossy());
        }
        None => out.push(0),
    }
    codec::put_u32(&mut out, indices.len() as u32);
    for &i in indices {
        let test = &tests[i as usize];
        codec::put_u32(&mut out, i);
        codec::put_str(&mut out, test.name());
        codec::put_str(&mut out, test.family());
        codec::put_bytes(&mut out, &codec::encode_program(test.program()));
        codec::put_bytes(&mut out, &codec::encode_outcome(test.target()));
    }
    out
}

/// A decoded job, as seen by the worker.
#[derive(Debug)]
struct Job {
    /// The built-in matrix the job names, rebuilt in this process.
    matrix: LoadedStack,
    /// The worker's own run: one process, the per-shard thread count the
    /// parent resolved, and the parent's mode, trace flag and cache
    /// directory.
    opts: DistOptions,
    tests: Vec<LitmusTest>,
}

fn decode_job(bytes: &[u8]) -> Result<Job, String> {
    let mut r = ByteReader::new(bytes);
    let magic = r
        .take(4)
        .map_err(|e| format!("malformed job: {e}"))?
        .to_vec();
    if magic != b"TCSJ" {
        return Err("malformed job: job magic".to_string());
    }
    let version = r.u16().map_err(|e| format!("malformed job: {e}"))?;
    check_version("job", version)?;
    let name = r.string().map_err(|e| format!("malformed job: {e}"))?;
    let matrix = builtin_stack(&name).ok_or_else(|| {
        format!(
            "malformed job: unknown matrix '{name}' (built-in matrices: {})",
            builtin_names().collect::<Vec<_>>().join(", ")
        )
    })?;
    let inner = || -> Result<Job, CodecError> {
        let outcome_mode = match r.u8()? {
            0 => OutcomeMode::Target,
            1 => OutcomeMode::FullOutcomes,
            _ => return Err(CodecError::Invalid("outcome mode")),
        };
        let collect_trace = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Invalid("collect-trace flag")),
        };
        let threads = (r.u16()? as usize).max(1);
        let cache_dir = match r.u8()? {
            0 => None,
            1 => Some(PathBuf::from(r.string()?)),
            _ => return Err(CodecError::Invalid("cache dir flag")),
        };
        let n = r.u32()?;
        let mut tests = Vec::with_capacity(capacity(n, &r, 20));
        for _ in 0..n {
            let _global = r.u32()?; // the parent tracks the mapping
            let name = r.string()?;
            let family = intern_family(&r.string()?);
            let program_frame = r.bytes()?;
            let mut pr = ByteReader::new(program_frame);
            let program = codec::decode_program::<MemOrder>(&mut pr)?;
            if pr.remaining() != 0 {
                return Err(CodecError::Invalid("trailing bytes in program frame"));
            }
            let target_frame = r.bytes()?;
            let mut tr = ByteReader::new(target_frame);
            let target = codec::decode_outcome(&mut tr)?;
            if tr.remaining() != 0 {
                return Err(CodecError::Invalid("trailing bytes in target frame"));
            }
            tests.push(LitmusTest::new(name, family, program, target));
        }
        if r.remaining() != 0 {
            return Err(CodecError::Invalid("trailing bytes in job"));
        }
        Ok(Job {
            matrix,
            opts: DistOptions {
                threads: Some(threads),
                outcome_mode,
                cache_dir,
                collect_trace,
                ..DistOptions::default()
            },
            tests,
        })
    };
    inner().map_err(|e| format!("malformed job: {e}"))
}

/// The capacity to reserve for `n` count-prefixed entries of at least
/// `min_bytes` each: no more than the reader's remaining bytes can
/// hold, so a corrupt count cannot ask for an allocation the frame
/// cannot back.
fn capacity(n: u32, r: &ByteReader<'_>, min_bytes: usize) -> usize {
    (n as usize).min(r.remaining() / min_bytes + 1)
}

/// Appends a length-prefixed `(bucket, count)` sparse histogram.
fn put_hist(out: &mut Vec<u8>, hist: &[(u16, u64)]) {
    codec::put_u32(out, hist.len() as u32);
    for &(bucket, n) in hist {
        codec::put_u16(out, bucket);
        codec::put_u64(out, n);
    }
}

fn read_hist(r: &mut ByteReader<'_>) -> Result<Vec<(u16, u64)>, CodecError> {
    let n = r.u32()?;
    let mut hist = Vec::with_capacity(capacity(n, r, 10));
    for _ in 0..n {
        let bucket = r.u16()?;
        let count = r.u64()?;
        hist.push((bucket, count));
    }
    Ok(hist)
}

/// Serializes a [`TraceReport`] for a result frame. The layout
/// mirrors the struct field-for-field (length-prefixed vectors, names
/// as codec strings, one recursion level for the per-worker
/// breakdown); [`decode_report`] round-trips it bit-exactly, which
/// `trace_report_roundtrips_bit_exactly` pins.
fn encode_report(report: &TraceReport) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u64(&mut out, report.wall_ns);
    codec::put_u32(&mut out, report.phases.len() as u32);
    for p in &report.phases {
        codec::put_str(&mut out, &p.name);
        codec::put_u64(&mut out, p.total_ns);
        codec::put_u64(&mut out, p.count);
        codec::put_u64(&mut out, p.max_ns);
        put_hist(&mut out, &p.hist);
    }
    codec::put_u32(&mut out, report.counters.len() as u32);
    for (name, value) in &report.counters {
        codec::put_str(&mut out, name);
        codec::put_u64(&mut out, *value);
    }
    codec::put_u32(&mut out, report.stacks.len() as u32);
    for s in &report.stacks {
        codec::put_str(&mut out, &s.label);
        codec::put_u64(&mut out, s.total_ns);
        codec::put_u64(&mut out, s.count);
        codec::put_u64(&mut out, s.max_ns);
        put_hist(&mut out, &s.hist);
    }
    codec::put_u32(&mut out, report.workers.len() as u32);
    for w in &report.workers {
        codec::put_u64(&mut out, w.shard);
        codec::put_bytes(&mut out, &encode_report(&w.report));
    }
    out
}

fn decode_report(r: &mut ByteReader<'_>) -> Result<TraceReport, CodecError> {
    let wall_ns = r.u64()?;
    let n_phases = r.u32()?;
    let mut phases = Vec::with_capacity(capacity(n_phases, r, 32));
    for _ in 0..n_phases {
        let name = r.string()?;
        let total_ns = r.u64()?;
        let count = r.u64()?;
        let max_ns = r.u64()?;
        let hist = read_hist(r)?;
        phases.push(PhaseStat {
            name,
            total_ns,
            count,
            max_ns,
            hist,
        });
    }
    let n_counters = r.u32()?;
    let mut counters = Vec::with_capacity(capacity(n_counters, r, 12));
    for _ in 0..n_counters {
        let name = r.string()?;
        let value = r.u64()?;
        counters.push((name, value));
    }
    let n_stacks = r.u32()?;
    let mut stacks = Vec::with_capacity(capacity(n_stacks, r, 32));
    for _ in 0..n_stacks {
        let label = r.string()?;
        let total_ns = r.u64()?;
        let count = r.u64()?;
        let max_ns = r.u64()?;
        let hist = read_hist(r)?;
        stacks.push(KeyStat {
            label,
            total_ns,
            count,
            max_ns,
            hist,
        });
    }
    let n_workers = r.u32()?;
    let mut workers = Vec::with_capacity(capacity(n_workers, r, 12));
    for _ in 0..n_workers {
        let shard = r.u64()?;
        let frame = r.bytes()?;
        let mut wr = ByteReader::new(frame);
        let report = decode_report(&mut wr)?;
        if wr.remaining() != 0 {
            return Err(CodecError::Invalid("trailing bytes in worker report"));
        }
        workers.push(WorkerReport { shard, report });
    }
    // A worker's frame carries no `config`: the coordinator records the
    // run's.
    Ok(TraceReport {
        wall_ns,
        phases,
        counters,
        stacks,
        workers,
        config: None,
    })
}

fn encode_result(
    items: &[Option<Classification>],
    stats: &SweepStats,
    store: &StoreStats,
    trace: Option<&TraceReport>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"TCSR");
    codec::put_u16(&mut out, PROTOCOL_VERSION);
    codec::put_u32(&mut out, items.len() as u32);
    for item in items {
        out.push(match item {
            None => 0,
            Some(Classification::Bug) => 1,
            Some(Classification::OverlyStrict) => 2,
            Some(Classification::Equivalent) => 3,
        });
    }
    for v in [
        stats.tests,
        stats.cells,
        stats.c11_evaluations,
        stats.compile_calls,
        stats.compile_cache_hits,
        stats.distinct_programs,
        stats.space_cache_hits,
        stats.space_enumerations,
        stats.candidates_pruned,
        stats.compiled_kernels,
    ] {
        codec::put_u64(&mut out, v as u64);
    }
    for v in [
        store.space_hits,
        store.space_misses,
        store.c11_hits,
        store.c11_misses,
        store.evictions,
        store.writes,
    ] {
        codec::put_u64(&mut out, v as u64);
    }
    match trace {
        Some(report) => {
            out.push(1);
            codec::put_bytes(&mut out, &encode_report(report));
        }
        None => out.push(0),
    }
    out
}

type DecodedResult = (
    Vec<Option<Classification>>,
    SweepStats,
    StoreStats,
    Option<TraceReport>,
);

fn decode_result(bytes: &[u8]) -> Result<DecodedResult, String> {
    let mut r = ByteReader::new(bytes);
    let magic = r
        .take(4)
        .map_err(|e| format!("malformed result payload: {e}"))?
        .to_vec();
    if magic != b"TCSR" {
        return Err("malformed result payload: result magic".to_string());
    }
    let version = r
        .u16()
        .map_err(|e| format!("malformed result payload: {e}"))?;
    check_version("result", version)?;
    let mut inner = || -> Result<DecodedResult, CodecError> {
        let n = r.u32()?;
        let mut items = Vec::with_capacity(capacity(n, &r, 1));
        for _ in 0..n {
            items.push(match r.u8()? {
                0 => None,
                1 => Some(Classification::Bug),
                2 => Some(Classification::OverlyStrict),
                3 => Some(Classification::Equivalent),
                _ => return Err(CodecError::Invalid("classification tag")),
            });
        }
        let mut take = || -> Result<usize, CodecError> { Ok(r.u64()? as usize) };
        let stats = SweepStats {
            tests: take()?,
            cells: take()?,
            c11_evaluations: take()?,
            compile_calls: take()?,
            compile_cache_hits: take()?,
            distinct_programs: take()?,
            space_cache_hits: take()?,
            space_enumerations: take()?,
            candidates_pruned: take()?,
            compiled_kernels: take()?,
        };
        let store = StoreStats {
            space_hits: take()?,
            space_misses: take()?,
            c11_hits: take()?,
            c11_misses: take()?,
            evictions: take()?,
            writes: take()?,
        };
        let trace = match r.u8()? {
            0 => None,
            1 => {
                let frame = r.bytes()?;
                let mut tr = ByteReader::new(frame);
                let report = decode_report(&mut tr)?;
                if tr.remaining() != 0 {
                    return Err(CodecError::Invalid("trailing bytes in trace report"));
                }
                Some(report)
            }
            _ => return Err(CodecError::Invalid("trace flag")),
        };
        if r.remaining() != 0 {
            return Err(CodecError::Invalid("trailing bytes in result"));
        }
        Ok((items, stats, store, trace))
    };
    inner().map_err(|e| format!("malformed result payload: {e}"))
}

/// Runs the worker half of the protocol over this process's stdio:
/// reads one job line from stdin, runs the shard's sweep, and prints
/// the marker-prefixed result line to stdout.
///
/// The CLI's hidden `shard-worker` subcommand is a direct call to this;
/// test binaries call it from an environment-gated probe test so the
/// planner can spawn *them* as workers.
///
/// # Errors
///
/// Returns (and prints, marker-prefixed, for the parent) a description
/// of any stdin/decode failure.
pub fn shard_worker_stdio() -> Result<(), String> {
    let mut line = String::new();
    let outcome = std::io::stdin()
        .lock()
        .read_line(&mut line)
        .map_err(|e| format!("reading job from stdin: {e}"))
        .and_then(|_| {
            let hex = line.trim();
            let bytes = hex_decode(hex).ok_or("job line is not valid hex".to_string())?;
            let job = decode_job(&bytes)?;
            let (items, report) = sweep_shard(
                &job.matrix.stacks,
                &job.tests,
                &job.opts,
                job.opts.collect_trace,
            )
            .map_err(|e| e.to_string())?;
            Ok(encode_result(
                &items,
                &report.stats,
                &report.store,
                report.trace.as_ref(),
            ))
        });
    match outcome {
        Ok(payload) => {
            println!("{RESULT_MARKER}{}", hex_encode(&payload));
            Ok(())
        }
        Err(message) => {
            println!("{ERROR_MARKER}{message}");
            Err(message)
        }
    }
}

/// Interns a family name so deserialized tests can satisfy
/// [`LitmusTest`]'s `&'static str` family. Each distinct name leaks
/// once per process; the suite has a handful of families, so the leak
/// is bounded and tiny.
fn intern_family(name: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let table = INTERNED.get_or_init(|| Mutex::new(Vec::new()));
    let mut table = table.lock().expect("intern table");
    if let Some(existing) = table.iter().find(|s| **s == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    table.push(leaked);
    leaked
}

fn hex_encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[usize::from(b >> 4)] as char);
        out.push(DIGITS[usize::from(b & 0xF)] as char);
    }
    out
}

fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricheck_litmus::suite;

    #[test]
    fn hex_roundtrips() {
        let data = [0u8, 1, 0x7f, 0x80, 0xff];
        assert_eq!(hex_decode(&hex_encode(&data)), Some(data.to_vec()));
        assert_eq!(hex_decode("zz"), None);
        assert_eq!(hex_decode("abc"), None);
    }

    #[test]
    fn job_roundtrips_with_tests_intact() {
        use std::path::Path;
        let tests: Vec<LitmusTest> = suite::mp_template().instantiate_all().take(5).collect();
        let indices: Vec<u32> = (0..tests.len() as u32).collect();
        let opts = DistOptions {
            cache_dir: Some(PathBuf::from("/tmp/x")),
            outcome_mode: OutcomeMode::FullOutcomes,
            ..DistOptions::default()
        };
        let job = encode_job("power", &tests, &indices, 3, &opts);
        let decoded = decode_job(&job).expect("roundtrip");
        assert_eq!(decoded.matrix.name, "power");
        assert_eq!(decoded.matrix.stacks.len(), 4);
        assert_eq!(decoded.opts.shards, 1);
        assert_eq!(decoded.opts.outcome_mode, OutcomeMode::FullOutcomes);
        assert_eq!(decoded.opts.threads, Some(3));
        assert_eq!(decoded.opts.cache_dir.as_deref(), Some(Path::new("/tmp/x")));
        assert_eq!(decoded.tests.len(), tests.len());
        for (a, b) in decoded.tests.iter().zip(&tests) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.family(), b.family());
            assert_eq!(a.program(), b.program());
            assert_eq!(a.target(), b.target());
            assert_eq!(a.observed(), b.observed());
        }
    }

    #[test]
    fn result_roundtrips() {
        let items = vec![
            None,
            Some(Classification::Bug),
            Some(Classification::OverlyStrict),
            Some(Classification::Equivalent),
        ];
        let stats = SweepStats {
            tests: 1,
            cells: 4,
            c11_evaluations: 1,
            compile_calls: 2,
            compile_cache_hits: 2,
            distinct_programs: 2,
            space_cache_hits: 5,
            space_enumerations: 2,
            candidates_pruned: 7,
            compiled_kernels: 4,
        };
        let store = StoreStats {
            space_hits: 1,
            space_misses: 2,
            c11_hits: 3,
            c11_misses: 4,
            evictions: 5,
            writes: 6,
        };
        let bytes = encode_result(&items, &stats, &store, None);
        let (di, ds, dst, dtr) = decode_result(&bytes).expect("roundtrip");
        assert_eq!(di, items);
        assert_eq!(ds, stats);
        assert_eq!(dst, store);
        assert_eq!(dtr, None);
    }

    /// A representative report exercising every field: multiple phases
    /// with sparse histograms, counters, stack breakdowns, and a nested
    /// worker report.
    fn sample_report() -> TraceReport {
        let mut inner = TraceReport {
            wall_ns: 42,
            phases: vec![PhaseStat {
                name: "cell".to_string(),
                total_ns: 40,
                count: 2,
                max_ns: 30,
                hist: vec![(3, 1), (17, 1)],
            }],
            counters: vec![("candidates_enumerated".to_string(), 7)],
            stacks: Vec::new(),
            workers: Vec::new(),
            config: None,
        };
        inner.set_counter("pruned_branches", 3);
        let mut outer = TraceReport {
            wall_ns: 1_234_567,
            phases: vec![
                PhaseStat {
                    name: "space_enum".to_string(),
                    total_ns: 900_000,
                    count: 12,
                    max_ns: 200_000,
                    hist: vec![(0, 2), (100, 9), (251, 1)],
                },
                PhaseStat {
                    name: "candidate_check".to_string(),
                    total_ns: 300_000,
                    count: 4096,
                    max_ns: 9_999,
                    hist: vec![(55, 4096)],
                },
            ],
            counters: vec![
                ("candidates_enumerated".to_string(), 5000),
                ("store_bytes_read".to_string(), u64::MAX),
            ],
            stacks: vec![KeyStat {
                label: "riscv/a/sc".to_string(),
                total_ns: 77,
                count: 3,
                max_ns: 60,
                hist: vec![(9, 3)],
            }],
            workers: Vec::new(),
            config: None,
        };
        outer.workers.push(WorkerReport {
            shard: 1,
            report: inner,
        });
        outer
    }

    #[test]
    fn trace_report_roundtrips_bit_exactly() {
        let report = sample_report();
        let bytes = encode_report(&report);
        let mut r = ByteReader::new(&bytes);
        let decoded = decode_report(&mut r).expect("roundtrip");
        assert_eq!(r.remaining(), 0);
        assert_eq!(decoded, report);
        // Bit-exact both ways: re-encoding the decoded report yields
        // the same frame.
        assert_eq!(encode_report(&decoded), bytes);
    }

    #[test]
    fn result_roundtrips_with_trace_report() {
        let report = sample_report();
        let bytes = encode_result(
            &[Some(Classification::Bug)],
            &SweepStats::default(),
            &StoreStats::default(),
            Some(&report),
        );
        let (_, _, _, decoded) = decode_result(&bytes).expect("roundtrip");
        assert_eq!(decoded, Some(report));
    }

    #[test]
    fn version_mismatch_errors_name_both_versions() {
        // A v5 worker's result frame, as an old build would emit it:
        // same magic, version 5 where this build expects 7.
        let mut result = Vec::new();
        result.extend_from_slice(b"TCSR");
        codec::put_u16(&mut result, 5);
        let err = decode_result(&result).unwrap_err();
        assert!(
            err.contains("v5"),
            "error must name the frame version: {err}"
        );
        assert!(
            err.contains("v7"),
            "error must name the expected version: {err}"
        );
        assert!(
            err.contains("version mismatch"),
            "unexpected message: {err}"
        );

        let mut job = Vec::new();
        job.extend_from_slice(b"TCSJ");
        codec::put_u16(&mut job, 5);
        let err = decode_job(&job).unwrap_err();
        assert!(
            err.contains("v5") && err.contains("v7"),
            "job error must name both versions: {err}"
        );
    }

    #[test]
    fn job_naming_an_unknown_matrix_is_a_decode_error() {
        let tests: Vec<LitmusTest> = suite::mp_template().instantiate_all().take(1).collect();
        let job = encode_job("nosuch", &tests, &[0], 1, &DistOptions::default());
        let err = decode_job(&job).unwrap_err();
        assert!(
            err.contains("unknown matrix 'nosuch'") && err.contains("riscv, power, x86-tso"),
            "{err}"
        );
        // A name cut short by the frame's end is malformed, not a panic.
        let mut truncated = Vec::new();
        truncated.extend_from_slice(b"TCSJ");
        codec::put_u16(&mut truncated, PROTOCOL_VERSION);
        truncated.extend_from_slice(&[9, 0, 0, 0, b'r']);
        assert!(decode_job(&truncated)
            .unwrap_err()
            .starts_with("malformed job"));
    }

    #[test]
    fn job_roundtrips_collect_trace_flag() {
        let tests: Vec<LitmusTest> = suite::mp_template().instantiate_all().take(1).collect();
        for collect_trace in [false, true] {
            let opts = DistOptions {
                collect_trace,
                ..DistOptions::default()
            };
            let job = encode_job("riscv", &tests, &[0], 1, &opts);
            let decoded = decode_job(&job).expect("roundtrip");
            assert_eq!(decoded.opts.collect_trace, collect_trace);
        }
    }

    #[test]
    fn fingerprint_dealing_is_total_and_stable() {
        let tests: Vec<LitmusTest> = suite::sb_template().instantiate_all().collect();
        for shards in [1, 2, 4, 7] {
            for t in &tests {
                let s = shard_of(t, shards);
                assert!(s < shards, "{} dealt out of range", t.name());
                assert_eq!(s, shard_of(t, shards), "dealing must be deterministic");
            }
        }
        // With one shard everything lands in shard 0.
        assert!(tests.iter().all(|t| shard_of(t, 1) == 0));
    }

    #[test]
    fn worker_output_parsing_tolerates_harness_chatter() {
        let payload = encode_result(&[], &SweepStats::default(), &StoreStats::default(), None);
        let stdout = format!(
            "running 1 test\n{RESULT_MARKER}{}\ntest probe ... ok\n",
            hex_encode(&payload)
        );
        let (items, _, _, _) = parse_worker_output(&stdout, true).expect("parse");
        assert!(items.is_empty());
        assert!(parse_worker_output("no markers here\n", true).is_err());
        let err = format!("{ERROR_MARKER}boom\n");
        assert_eq!(parse_worker_output(&err, true).unwrap_err(), "boom");
    }

    #[test]
    fn family_interning_is_stable() {
        let a = intern_family("wrc");
        let b = intern_family("wrc");
        assert!(std::ptr::eq(a, b));
        assert_eq!(intern_family("brand-new-family"), "brand-new-family");
    }

    /// A `u32::MAX` entry count with no entries behind it.
    fn huge_count(out: &mut Vec<u8>) {
        codec::put_u32(out, u32::MAX);
    }

    #[test]
    fn a_huge_count_with_no_payload_is_an_error_in_every_frame() {
        let mut job = b"TCSJ".to_vec();
        codec::put_u16(&mut job, PROTOCOL_VERSION);
        codec::put_str(&mut job, "power");
        job.extend_from_slice(&[0, 0]); // target mode, no trace
        codec::put_u16(&mut job, 1);
        job.push(0); // no cache dir
        huge_count(&mut job);
        assert!(decode_job(&job).is_err(), "job tests");

        let mut result = b"TCSR".to_vec();
        codec::put_u16(&mut result, PROTOCOL_VERSION);
        huge_count(&mut result);
        assert!(decode_result(&result).is_err(), "result items");

        let mut hist = Vec::new();
        huge_count(&mut hist);
        assert!(read_hist(&mut ByteReader::new(&hist)).is_err(), "histogram");

        // A report's four lists, each after empty lists before it.
        for empty_before in 0..4 {
            let mut report = Vec::new();
            codec::put_u64(&mut report, 1);
            for _ in 0..empty_before {
                codec::put_u32(&mut report, 0);
            }
            huge_count(&mut report);
            assert!(
                decode_report(&mut ByteReader::new(&report)).is_err(),
                "report list {empty_before}"
            );
        }
    }

    /// Applies one to three random byte edits: flip, insert, delete,
    /// overwrite four bytes with a huge count, or truncate.
    fn mutate(frame: &[u8], rng: &mut rand::rngs::StdRng) -> Vec<u8> {
        use rand::Rng;
        let mut bytes = frame.to_vec();
        for _ in 0..rng.gen_range(1..=3) {
            let at = rng.gen_range(0..=bytes.len());
            match rng.gen_range(0..5) {
                0 if at < bytes.len() => bytes[at] ^= 1u8 << rng.gen_range(0..8u32),
                1 => bytes.insert(at, rng.gen_range(0..=255)),
                2 if at < bytes.len() => {
                    bytes.remove(at);
                }
                3 if at + 4 <= bytes.len() => {
                    bytes[at..at + 4].copy_from_slice(&rng.gen_range(0..=u32::MAX).to_le_bytes());
                }
                _ => bytes.truncate(at),
            }
        }
        bytes
    }

    #[test]
    fn mutated_frames_decode_or_fail_without_panicking() {
        use rand::SeedableRng;
        let tests: Vec<LitmusTest> = suite::wrc_template().instantiate_all().take(3).collect();
        let job = encode_job("power", &tests, &[0, 1, 2], 2, &DistOptions::default());
        let items = vec![
            Some(Classification::Bug),
            None,
            Some(Classification::Equivalent),
        ];
        let result = encode_result(
            &items,
            &SweepStats::default(),
            &StoreStats::default(),
            Some(&sample_report()),
        );
        assert!(decode_job(&job).is_ok() && decode_result(&result).is_ok());
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        for _ in 0..150 {
            let mutant = mutate(&job, &mut rng);
            let _ = decode_job(&mutant);
            let mutant = mutate(&result, &mut rng);
            let _ = decode_result(&mutant);
        }
    }
}
