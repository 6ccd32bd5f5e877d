//! Layered benchmark of the TriCheck pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig15_target --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics of untraced repetitions; `--trace 1` prints the per-layer
//! metrics of a traced pass (see `traced.rs`). The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; the line before it records the run's configuration and
//! every repetition. See `perfbench/README.md` for the workloads and
//! what each metric is expected to move.

mod calibrate;
mod spans;
mod traced;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tricheck_c11::C11Model;
use tricheck_compiler::{compile, riscv_mapping, Mapping};
use tricheck_core::{
    report, results_from_items, riscv_stacks, C11Cached, Classification, MatrixStack, OutcomeMode,
    SpaceStore, Sweep, SweepOptions, SweepStats, TriCheck,
};
use tricheck_dist::DiskStore;
use tricheck_isa::{RiscvIsa, SpecVersion};
use tricheck_litmus::{suite, LitmusTest};
use tricheck_uarch::UarchModel;

use spans::Tracer;
use traced::{Pass, Space};

const USAGE: &str =
    "usage: perfbench --workload <fig15_target|fig15_outcomes|verify_each|store_rerun> \
--seed <n> --seconds <s> --trace <0|1> [--write-reference]";

/// Reference verdicts and recorded counts, relative to the repository root.
const REFERENCE_DIR: &str = "perfbench/reference";
/// The committed Figure 15 rows the fig15_target reference must aggregate to.
const FIGURE15_FIXTURE: &str = "tests/fixtures/figure15_rows.csv";
/// Where runs write spans and keep their temporary stores.
const OUT_DIR: &str = ".bench_out";
/// The paper's headline: A9like on Base+A/riscv-curr shows 144 bugs.
const PAPER_A9LIKE_BUGS: u64 = 144;
/// A calibration block lasts at least this share of the time it follows.
const CALIBRATION_SHARE: f64 = 0.25;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    /// Figure 15: full suite × 28 RISC-V stacks, target outcome, 1 thread.
    Fig15Target,
    /// The same matrix comparing full outcome sets, `nproc` threads.
    Fig15Outcomes,
    /// One `TriCheck::verify` per (test, Base+A/riscv-curr model).
    VerifyEach,
    /// fig15_target re-swept against a warm on-disk store.
    StoreRerun,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Fig15Target,
        Workload::Fig15Outcomes,
        Workload::VerifyEach,
        Workload::StoreRerun,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Fig15Target => "fig15_target",
            Workload::Fig15Outcomes => "fig15_outcomes",
            Workload::VerifyEach => "verify_each",
            Workload::StoreRerun => "store_rerun",
        }
    }

    fn mode(self) -> OutcomeMode {
        match self {
            Workload::Fig15Outcomes => OutcomeMode::FullOutcomes,
            _ => OutcomeMode::Target,
        }
    }

    fn threads(self) -> usize {
        match self {
            Workload::Fig15Outcomes => nproc(),
            _ => 1,
        }
    }

    /// The reference file holding this workload's verdicts; store_rerun
    /// sweeps fig15_target's matrix and shares its reference.
    fn reference_name(self) -> &'static str {
        match self {
            Workload::StoreRerun => Workload::Fig15Target.name(),
            w => w.name(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut write_reference = false;
        while let Some(flag) = args.next() {
            if flag == "--write-reference" {
                write_reference = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            write_reference,
        })
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// On-CPU seconds of the whole process, summed over its threads,
/// including threads that have already exited.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `VmHWM` (peak resident set) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's commit, when it is a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

/// SplitMix64: the workload seed's only use is to permute test and
/// request order.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `values` (sorted in place).
fn percentile(values: &mut [f64], p: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return 0.0;
    }
    let rank = (p * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn letter(c: Option<Classification>) -> char {
    match c {
        Some(Classification::Bug) => 'B',
        Some(Classification::OverlyStrict) => 'S',
        Some(Classification::Equivalent) => 'E',
        None => '-',
    }
}

/// A directory under [`OUT_DIR`] removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn fresh(label: &str) -> ScratchDir {
        static MADE: AtomicUsize = AtomicUsize::new(0);
        let n = MADE.fetch_add(1, Ordering::Relaxed);
        let path = Path::new(OUT_DIR).join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create a scratch directory in the checkout");
        ScratchDir(path)
    }

    fn size_mb(&self) -> f64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.0) as f64 / (1024.0 * 1024.0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything a workload's repetitions run on, built by [`setup`].
struct Inputs {
    /// The suite, in the seed's order.
    tests: Vec<LitmusTest>,
    /// The Figure 15 stacks (sweep workloads).
    stacks: Vec<MatrixStack<'static>>,
    /// The Base+A/riscv-curr stacks (verify_each).
    verifiers: Vec<TriCheck<'static>>,
    /// (test, verifier) pairs in the seed's order (verify_each).
    requests: Vec<(usize, usize)>,
    /// The populated store (store_rerun).
    store: Option<ScratchDir>,
}

/// A model's name without its spec-version suffix (`"nMM"`).
fn bare_name(model: &UarchModel) -> &str {
    model.name().split('/').next().unwrap_or(model.name())
}

/// Column labels of a workload's verdict table.
fn column_labels(w: Workload) -> Vec<String> {
    match w {
        Workload::VerifyEach => UarchModel::all_riscv(SpecVersion::Curr)
            .iter()
            .map(|m| format!("Base+A/riscv-curr/{}", bare_name(m)))
            .collect(),
        _ => riscv_stacks()
            .iter()
            .map(|s| {
                format!(
                    "{}/{}/{}",
                    s.key.isa_label(),
                    s.key.variant_label(),
                    bare_name(&s.model)
                )
            })
            .collect(),
    }
}

/// Builds a workload's inputs: the seeded suite, its stacks with every
/// kernel compiled and, for store_rerun, a store filled by one cold
/// sweep (returned so its verdicts are checked too).
fn setup(w: Workload, seed: u64) -> (Inputs, Option<Rep>) {
    let mut rng = Rng(seed);
    let mut tests = suite::full_suite();
    rng.shuffle(&mut tests);
    let mut inputs = Inputs {
        tests,
        stacks: Vec::new(),
        verifiers: Vec::new(),
        requests: Vec::new(),
        store: None,
    };
    if w == Workload::VerifyEach {
        let mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
        inputs.verifiers = UarchModel::all_riscv(SpecVersion::Curr)
            .into_iter()
            .map(|model| TriCheck::new(mapping, model))
            .collect();
        for v in &inputs.verifiers {
            let _ = v.uarch().compiled();
        }
        inputs.requests = (0..inputs.tests.len())
            .flat_map(|t| (0..inputs.verifiers.len()).map(move |m| (t, m)))
            .collect();
        rng.shuffle(&mut inputs.requests);
        return (inputs, None);
    }
    inputs.stacks = riscv_stacks();
    for s in &inputs.stacks {
        let _ = s.model.compiled();
    }
    if w != Workload::StoreRerun {
        return (inputs, None);
    }
    inputs.store = Some(ScratchDir::fresh("store"));
    let cold = run_rep(&inputs, w);
    (inputs, cold)
}

/// One untraced repetition.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    /// Verdicts in run order: test-major `t * stacks + s` for sweeps,
    /// request order for verify_each.
    items: Vec<Option<Classification>>,
    /// Counts the exact-count guard compares.
    counts: BTreeMap<&'static str, u64>,
    /// p50 and p99 latency of the pass's 11,907 `verify` calls
    /// (verify_each only).
    requests_s: Option<(f64, f64)>,
}

fn sweep_counts(stats: &SweepStats) -> BTreeMap<&'static str, u64> {
    let all = [
        ("c11_evaluations", stats.c11_evaluations),
        ("compile_calls", stats.compile_calls),
        ("distinct_programs", stats.distinct_programs),
        ("space_enumerations", stats.space_enumerations),
        ("candidates_pruned", stats.candidates_pruned),
    ];
    all.into_iter().map(|(k, v)| (k, v as u64)).collect()
}

/// Runs one repetition; `None` if it panicked.
fn run_rep(inputs: &Inputs, w: Workload) -> Option<Rep> {
    catch_unwind(AssertUnwindSafe(|| match w {
        Workload::VerifyEach => verify_rep(inputs),
        _ => sweep_rep(inputs, w),
    }))
    .ok()
}

fn sweep_rep(inputs: &Inputs, w: Workload) -> Rep {
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    let store = inputs.store.as_ref().map(|dir| {
        Arc::new(DiskStore::open(&dir.0).expect("the benchmark's store directory opens"))
            as Arc<dyn SpaceStore>
    });
    let sweep = Sweep::with_options(SweepOptions {
        threads: w.threads(),
        outcome_mode: w.mode(),
        pruning: true,
        store,
        ..SweepOptions::default()
    });
    let items = sweep.run_matrix_items(&inputs.tests, &inputs.stacks);
    let results = results_from_items(&inputs.tests, &inputs.stacks, &items.items, items.stats);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    Rep {
        wall_s,
        cpu_s,
        counts: sweep_counts(results.stats()),
        items: items.items,
        requests_s: None,
    }
}

fn verify_rep(inputs: &Inputs) -> Rep {
    let a9like = a9like_column(&inputs.verifiers);
    let mut items = Vec::with_capacity(inputs.requests.len());
    let mut latencies_s = Vec::with_capacity(inputs.requests.len());
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    for &(t, m) in &inputs.requests {
        let sent = Instant::now();
        let result = inputs.verifiers[m].verify(&inputs.tests[t]);
        latencies_s.push(sent.elapsed().as_secs_f64());
        items.push(result.ok().map(|r| r.classification()));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    let counts = verify_counts(&inputs.requests, &items, a9like);
    let p50 = percentile(&mut latencies_s, 0.5);
    let p99 = percentile(&mut latencies_s, 0.99);
    Rep {
        wall_s,
        cpu_s,
        items,
        counts,
        requests_s: Some((p50, p99)),
    }
}

fn a9like_column(verifiers: &[TriCheck<'_>]) -> usize {
    verifiers
        .iter()
        .position(|v| v.uarch().name().starts_with("A9like"))
        .expect("the Table 7 models include A9like")
}

fn verify_counts(
    requests: &[(usize, usize)],
    items: &[Option<Classification>],
    a9like: usize,
) -> BTreeMap<&'static str, u64> {
    let bugs = requests
        .iter()
        .zip(items)
        .filter(|((_, m), c)| *m == a9like && **c == Some(Classification::Bug))
        .count();
    BTreeMap::from([
        ("requests", requests.len() as u64),
        ("a9like_bugs", bugs as u64),
    ])
}

/// Expected verdict letters per test name, one per column.
struct Reference {
    rows: HashMap<String, Vec<u8>>,
}

impl Reference {
    fn path(w: Workload) -> PathBuf {
        Path::new(REFERENCE_DIR).join(format!("{}.tsv", w.reference_name()))
    }

    fn load(w: Workload) -> Result<Reference, String> {
        let path = Reference::path(w);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let labels = column_labels(w);
        let header = format!("# columns: {}", labels.join(" "));
        if !text.lines().any(|l| l == header) {
            return Err(format!(
                "{} was written for other columns than {header:?}",
                path.display()
            ));
        }
        let mut rows = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, letters) = line
                .split_once('\t')
                .ok_or_else(|| format!("malformed line in {}: {line:?}", path.display()))?;
            if letters.len() != labels.len() {
                return Err(format!(
                    "{name}: {} verdicts, expected {}",
                    letters.len(),
                    labels.len()
                ));
            }
            rows.insert(name.to_string(), letters.as_bytes().to_vec());
        }
        Ok(Reference { rows })
    }

    /// Writes `items` (in `inputs`' order) as the workload's reference,
    /// one line per test in suite order.
    fn write(w: Workload, inputs: &Inputs, items: &[Option<Classification>]) -> Result<(), String> {
        let labels = column_labels(w);
        let mut rows: HashMap<&str, Vec<char>> = HashMap::new();
        for (i, &c) in items.iter().enumerate() {
            let (t, col) = item_position(w, inputs, i);
            rows.entry(inputs.tests[t].name())
                .or_insert_with(|| vec!['?'; labels.len()])[col] = letter(c);
        }
        let mut out = format!(
            "# {} reference verdicts: one line per suite test, one letter per column\n\
             # (B = Bug, S = Overly Strict, E = Equivalent, - = does not compile)\n\
             # columns: {}\n",
            w.reference_name(),
            labels.join(" ")
        );
        for test in suite::full_suite() {
            let letters: String = rows[test.name()].iter().collect();
            let _ = writeln!(out, "{}\t{letters}", test.name());
        }
        let path = Reference::path(w);
        std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }

    /// How many of `items` (in `inputs`' order) differ from the reference.
    fn mismatches(&self, w: Workload, inputs: &Inputs, items: &[Option<Classification>]) -> u64 {
        let mut wrong = verdicts_per_rep(w, inputs).abs_diff(items.len()) as u64;
        for (i, &c) in items.iter().enumerate() {
            let (t, col) = item_position(w, inputs, i);
            let expected = self.rows.get(inputs.tests[t].name()).map(|r| r[col]);
            if expected != Some(letter(c) as u8) {
                wrong += 1;
            }
        }
        wrong
    }
}

/// How many verdicts one repetition gives.
fn verdicts_per_rep(w: Workload, inputs: &Inputs) -> usize {
    match w {
        Workload::VerifyEach => inputs.requests.len(),
        _ => inputs.tests.len() * inputs.stacks.len(),
    }
}

/// The (test index, column) of the `i`-th verdict of a repetition.
fn item_position(w: Workload, inputs: &Inputs, i: usize) -> (usize, usize) {
    match w {
        Workload::VerifyEach => inputs.requests[i],
        _ => (i / inputs.stacks.len(), i % inputs.stacks.len()),
    }
}

/// Recorded counts per workload from `counts.tsv`.
fn load_counts(w: Workload) -> Result<BTreeMap<String, u64>, String> {
    let path = Path::new(REFERENCE_DIR).join("counts.tsv");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut counts = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split('\t').collect();
        let [workload, name, value] = fields[..] else {
            return Err(format!("malformed line in {}: {line:?}", path.display()));
        };
        if workload == w.name() {
            let value = value.parse().map_err(|_| format!("bad count {value:?}"))?;
            counts.insert(name.to_string(), value);
        }
    }
    if counts.is_empty() {
        return Err(format!(
            "{} records no counts for {}",
            path.display(),
            w.name()
        ));
    }
    Ok(counts)
}

/// Checks the committed reference against the paper's numbers: the
/// fig15_target verdicts must aggregate to the golden Figure 15 rows,
/// and verify_each must find the 144 A9like bugs.
fn cross_check_reference(w: Workload, reference: &Reference) -> Result<(), String> {
    match w {
        Workload::Fig15Target | Workload::StoreRerun => {
            let tests = suite::full_suite();
            let stacks = riscv_stacks();
            let mut items = Vec::with_capacity(tests.len() * stacks.len());
            for test in &tests {
                let row = reference
                    .rows
                    .get(test.name())
                    .ok_or_else(|| format!("reference lacks {}", test.name()))?;
                items.extend(row.iter().map(|&b| match b {
                    b'B' => Some(Classification::Bug),
                    b'S' => Some(Classification::OverlyStrict),
                    b'E' => Some(Classification::Equivalent),
                    _ => None,
                }));
            }
            let rows = results_from_items(&tests, &stacks, &items, SweepStats::default());
            let fixture = std::fs::read_to_string(FIGURE15_FIXTURE)
                .map_err(|e| format!("cannot read {FIGURE15_FIXTURE}: {e}"))?;
            if report::to_csv(&rows) != fixture {
                return Err(format!(
                    "the reference does not aggregate to {FIGURE15_FIXTURE}"
                ));
            }
        }
        Workload::VerifyEach => {
            let a9like = column_labels(w)
                .iter()
                .position(|l| l.contains("/A9like"))
                .expect("the Table 7 models include A9like");
            let bugs = reference
                .rows
                .values()
                .filter(|r| r[a9like] == b'B')
                .count() as u64;
            if bugs != PAPER_A9LIKE_BUGS {
                return Err(format!(
                    "reference has {bugs} A9like bugs, the paper {PAPER_A9LIKE_BUGS}"
                ));
            }
        }
        Workload::Fig15Outcomes => {}
    }
    Ok(())
}

/// Verdicts attempted and failed, and broken count guards.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    guard_errors: Vec<String>,
}

impl Tally {
    /// Checks one repetition's or pass's verdicts (`None`: it panicked)
    /// against the reference.
    fn check(
        &mut self,
        w: Workload,
        inputs: &Inputs,
        reference: &Reference,
        items: Option<&[Option<Classification>]>,
    ) {
        let expected_len = verdicts_per_rep(w, inputs) as u64;
        self.attempted += expected_len;
        match items {
            Some(items) => self.failed += reference.mismatches(w, inputs, items),
            None => self.failed += expected_len,
        }
    }

    /// Compares `counts` with the recorded ones; `what` names the source.
    fn guard(
        &mut self,
        what: &str,
        expected: &BTreeMap<String, u64>,
        counts: &BTreeMap<&str, u64>,
    ) {
        for (name, &want) in expected {
            match counts.get(name.as_str()) {
                Some(&got) if got == want => {}
                Some(&got) => self
                    .guard_errors
                    .push(format!("{what}: {name} = {got}, recorded {want}")),
                None => self
                    .guard_errors
                    .push(format!("{what}: {name} not measured, recorded {want}")),
            }
        }
    }
}

/// Per-layer figures of one traced pass.
fn pass_metrics(w: Workload, pass: &Pass) -> BTreeMap<&'static str, f64> {
    let totals = pass.tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (uarch, prelude, check) = (get("uarch"), get("rel.prelude"), get("rel.check"));
    let enum_us = match w {
        // The streaming search interleaves enumeration with judging: the
        // judgement span's self time is the enumeration.
        Workload::VerifyEach => ratio(uarch.self_s * 1e6, uarch.count as f64),
        _ => get("litmus").us_per_call(),
    };
    let layer_s = pass.tracer.root_s();
    BTreeMap::from([
        ("c11.us_per_test", get("c11").us_per_call()),
        ("compiler.us_per_compile", get("compiler").us_per_call()),
        ("litmus.enum_us_per_program", enum_us),
        ("uarch.us_per_judgement", uarch.us_per_call()),
        ("rel.prelude_us_per_stream", prelude.us_per_call()),
        ("rel.check_us_per_candidate", check.us_per_call()),
        (
            "dist.load_us_per_space",
            get("dist.load_space").us_per_call(),
        ),
        (
            "dist.load_c11_us_per_test",
            get("dist.load_c11").us_per_call(),
        ),
        ("layer_s", layer_s),
        ("core.traced_span_share", ratio(layer_s, pass.wall_s)),
    ])
}

/// Count-valued per-layer figures of a traced pass (identical on every
/// pass of a workload).
fn count_metrics(pass: &Pass, distinct_programs: u64) -> [(&'static str, &'static str, f64); 6] {
    let c = pass.counts;
    let totals = pass.tracer.totals();
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.count) as f64;
    [
        ("litmus.candidates", "count", c.candidates as f64),
        ("litmus.pruned_branches", "count", c.pruned_branches as f64),
        (
            "compiler.dedup_ratio",
            "ratio",
            ratio(distinct_programs as f64, c.compiles as f64),
        ),
        ("uarch.judgements", "count", calls("uarch")),
        (
            "rel.candidates_per_stream",
            "ratio",
            ratio(c.checks as f64, calls("rel.prelude")),
        ),
        (
            "rel.consistent_share",
            "ratio",
            ratio(c.consistent as f64, c.checks as f64),
        ),
    ]
}

/// The counts a traced pass shares with `SweepStats`.
fn traced_counts(pass: &Pass) -> BTreeMap<&'static str, u64> {
    let c = pass.counts;
    BTreeMap::from([
        ("c11_evaluations", c.c11_evaluations),
        ("compile_calls", c.compiles),
        ("distinct_programs", c.distinct_programs),
        ("space_enumerations", c.enumerations),
        ("candidates_pruned", c.pruned_branches),
    ])
}

/// Milliseconds to lower a workload's µarch models to compiled kernels
/// (`CompiledModel::compile`, via the first `UarchModel::compiled`).
fn kernel_compile_ms(w: Workload) -> f64 {
    let models: Vec<UarchModel> = match w {
        Workload::VerifyEach => UarchModel::all_riscv(SpecVersion::Curr),
        _ => riscv_stacks().into_iter().map(|s| s.model).collect(),
    };
    for m in &models {
        let _ = m.ir();
    }
    let start = Instant::now();
    for m in &models {
        let _ = m.compiled();
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// The distinct Base+A/riscv-curr programs of the suite with their
/// target-outcome spaces, plus each test's C11 verdict: what a store
/// would hold after verify_each's requests, for the store round trip.
fn verify_store_contents(tests: &[LitmusTest]) -> (Vec<(u32, Arc<Space>)>, Vec<C11Cached>) {
    let mapping: &dyn Mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
    let c11 = C11Model::new();
    let mut seen = HashSet::new();
    let mut spaces = Vec::new();
    let mut entries = Vec::with_capacity(tests.len());
    for (t, test) in tests.iter().enumerate() {
        entries.push(C11Cached::Target(c11.permits_target(test)));
        let Ok(compiled) = compile(test, mapping) else {
            continue;
        };
        if seen.insert(compiled.program().clone()) {
            let space = Space::pruned(compiled.program().clone());
            let _ = space.matching(compiled.target());
            spaces.push((u32::try_from(t).expect("suite fits u32"), Arc::new(space)));
        }
    }
    (spaces, entries)
}

/// A run's outcome: the figures plus the record printed beside them.
struct Outcome {
    metrics: Vec<(&'static str, &'static str, f64)>,
    tally: Tally,
    record: String,
}

/// `--write-reference`: records one repetition's verdicts as the
/// workload's reference and prints its counts as `counts.tsv` lines.
fn write_reference(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let (inputs, _) = setup(w, args.seed);
    let rep = run_rep(&inputs, w).ok_or("the repetition panicked")?;
    Reference::write(w, &inputs, &rep.items)?;
    for (name, value) in &rep.counts {
        println!("{}\t{name}\t{value}", w.name());
    }
    Ok(())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let seconds = Duration::from_secs_f64(args.seconds);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let reference = Reference::load(w)?;
    cross_check_reference(w, &reference)?;
    let expected = load_counts(w)?;
    let mut tally = Tally::default();
    let mut record = BTreeMap::new();
    let mut metrics = Vec::new();

    if args.trace {
        trace_run(
            args,
            &reference,
            &expected,
            &mut tally,
            &mut metrics,
            &mut record,
        );
    } else {
        // Set up at least three times and, while set-up is cheap, until
        // the set-ups add up to a second; cheap set-ups are also sampled
        // after every repetition, so they span the run as the repetitions
        // do.
        let mut setup_s: Vec<f64> = Vec::new();
        let mut inputs: Option<Inputs> = None;
        // Earlier set-ups' store directories, deleted when the run ends:
        // unlinking thousands of files just before the next set-up writes
        // its own would slow those writes.
        let mut retired_stores = Vec::new();
        // Every set-up and repetition is followed by a block of the
        // calibration kernel (see `calibrate.rs`), timed under the same
        // stretch of host load.
        let calibrate_after =
            |timed_s: f64| calibrate::block(timed_s * CALIBRATION_SHARE, process_cpu_s);
        let mut setup_cal = Vec::new();
        while setup_s.len() < 3 || (setup_s.len() < 1001 && setup_s.iter().sum::<f64>() < 1.0) {
            // Free the previous set-up first, so each one allocates into
            // the same warm heap instead of growing it.
            if let Some(mut old) = inputs.take() {
                retired_stores.extend(old.store.take());
            }
            let start = Instant::now();
            let (built, cold) = setup(w, args.seed);
            setup_s.push(start.elapsed().as_secs_f64());
            setup_cal.push(calibrate_after(setup_s[setup_s.len() - 1]));
            if w == Workload::StoreRerun {
                tally.check(w, &built, &reference, cold.as_ref().map(|r| &r.items[..]));
            }
            inputs = Some(built);
        }
        let inputs = inputs.expect("at least one set-up");
        let start = Instant::now();
        let mut reps = Vec::new();
        let mut rep_cal = Vec::new();
        while reps.is_empty() || start.elapsed() < seconds {
            let rep = run_rep(&inputs, w);
            tally.check(w, &inputs, &reference, rep.as_ref().map(|r| &r.items[..]));
            if let Some(rep) = &rep {
                tally.guard(
                    &format!("repetition {}", reps.len() + 1),
                    &expected,
                    &rep.counts,
                );
                rep_cal.push(calibrate_after(rep.wall_s));
            }
            reps.push(rep);
            if w != Workload::StoreRerun {
                let start = Instant::now();
                let sample = setup(w, args.seed);
                setup_s.push(start.elapsed().as_secs_f64());
                drop(sample);
                setup_cal.push(calibrate_after(setup_s[setup_s.len() - 1]));
            }
        }
        let done: Vec<&Rep> = reps.iter().flatten().collect();
        // Every figure is a time divided by the mean kernel time of the
        // calibration block that follows it, then multiplied by the
        // kernel's time on the quiet reference host (`calibrate.rs`).
        // Other tenants of a shared host slow the kernel and the program
        // alike for seconds to minutes at a time. Over thirty 10 s
        // fig15_target runs under such load, the fastest repetition of a
        // run spread 0.45 (interquartile range over median), the median
        // repetition 0.35, and the median of the per-repetition ratios
        // 0.05. Set-ups are too short for a block of their own to match
        // them well, so setup_s is the fastest set-up over the fastest
        // block (spread 0.03, against 0.21 for the median ratio). The
        // record keeps the unscaled fastest and median figures.
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let wall_cal: Vec<f64> = rep_cal.iter().map(|c| c.wall_s).collect();
        let cpu_cal: Vec<f64> = rep_cal.iter().map(|c| c.cpu_s).collect();
        let setup_wall_cal: Vec<f64> = setup_cal.iter().map(|c| c.wall_s).collect();
        let median_ratio = |values: &[f64], cal: &[f64]| {
            let ratios: Vec<f64> = values.iter().zip(cal).map(|(v, c)| v / c).collect();
            median(&ratios) * calibrate::REFERENCE_S
        };
        let walls: Vec<f64> = done.iter().map(|r| r.wall_s).collect();
        let cpus: Vec<f64> = done.iter().map(|r| r.cpu_s).collect();
        // (name, unit, calibrated value, unscaled values)
        let mut figures: Vec<(&str, &str, f64, Vec<f64>)> = vec![
            ("sweep_s", "s", median_ratio(&walls, &wall_cal), walls),
            ("cpu_s", "s", median_ratio(&cpus, &cpu_cal), cpus),
            (
                "setup_s",
                "s",
                min(&setup_s) / min(&setup_wall_cal) * calibrate::REFERENCE_S,
                setup_s.clone(),
            ),
        ];
        // On the sweep workloads a request is the whole sweep, so only
        // verify_each has request latencies of its own.
        let latencies: Vec<(f64, f64)> = done.iter().filter_map(|r| r.requests_s).collect();
        if !latencies.is_empty() {
            let p50: Vec<f64> = latencies.iter().map(|l| l.0 * 1e6).collect();
            let p99: Vec<f64> = latencies.iter().map(|l| l.1 * 1e6).collect();
            figures.push(("request_p50_us", "us", median_ratio(&p50, &wall_cal), p50));
            figures.push(("request_p99_us", "us", median_ratio(&p99, &wall_cal), p99));
        }
        let (mut fastest, mut medians) = (Vec::new(), Vec::new());
        for (name, unit, value, values) in figures {
            metrics.push((name, unit, value));
            fastest.push(format!("\"{name}\": {}", min(&values)));
            medians.push(format!("\"{name}\": {}", median(&values)));
        }
        metrics.push(("peak_rss_mb", "MB", peak_rss_mb()));
        record.insert("fastest", format!("{{{}}}", fastest.join(", ")));
        record.insert("medians", format!("{{{}}}", medians.join(", ")));
        record.insert(
            "calibration_s",
            format!(
                "{{\"reference\": {}, \"median\": {}, \"fastest\": {}, \"setup_fastest\": {}}}",
                calibrate::REFERENCE_S,
                median(&wall_cal),
                min(&wall_cal),
                min(&setup_wall_cal)
            ),
        );
        let mut cal = rep_cal.iter();
        let reps_json: Vec<String> = reps
            .iter()
            .map(|r| match (r, r.as_ref().and_then(|_| cal.next())) {
                (Some(r), Some(c)) => format!(
                    "{{\"wall_s\": {}, \"cpu_s\": {}, \"kernel_wall_s\": {}, \"kernel_cpu_s\": {}}}",
                    r.wall_s, r.cpu_s, c.wall_s, c.cpu_s
                ),
                _ => "{\"panicked\": true}".to_string(),
            })
            .collect();
        record.insert("repetitions", format!("[{}]", reps_json.join(", ")));
        record.insert("setup_samples", setup_s.len().to_string());
    }
    record.insert(
        "error_rate",
        ratio(tally.failed as f64, tally.attempted as f64).to_string(),
    );
    record.insert("guard_errors", format!("{:?}", tally.guard_errors));
    let config = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"threads\": {}, \"outcome_mode\": \"{:?}\", \"suite_size\": {}, \"pruning\": true, \
         \"git_commit\": \"{}\"}}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        w.threads(),
        w.mode(),
        suite::full_suite().len(),
        git_commit()
    );
    let mut line = format!("{{\"config\": {config}");
    for (k, v) in &record {
        let _ = write!(line, ", \"{k}\": {v}");
    }
    line.push('}');
    Ok(Outcome {
        metrics,
        tally,
        record: line,
    })
}

/// The `--trace 1` run: untraced repetitions interleaved with traced
/// passes for `--seconds`, then the store round trip.
fn trace_run(
    args: &Args,
    reference: &Reference,
    expected: &BTreeMap<String, u64>,
    tally: &mut Tally,
    metrics: &mut Vec<(&'static str, &'static str, f64)>,
    record: &mut BTreeMap<&'static str, String>,
) {
    let w = args.workload;
    let seconds = Duration::from_secs_f64(args.seconds);
    let (inputs, cold) = setup(w, args.seed);
    if w == Workload::StoreRerun {
        tally.check(w, &inputs, reference, cold.as_ref().map(|r| &r.items[..]));
    }
    let kernel_ms = median(&(0..5).map(|_| kernel_compile_ms(w)).collect::<Vec<_>>());

    // store_rerun: a traced cold pass fills a second store, the way the
    // set-up's cold sweep fills the first; the warm passes then read it.
    let traced_store = (w == Workload::StoreRerun).then(|| ScratchDir::fresh("traced-store"));
    let mut cold_tracer = Tracer::new();
    let mut cold_c11_us = 0.0;
    if let Some(dir) = &traced_store {
        let pass = traced::sweep_pass(&inputs.tests, &inputs.stacks, w.mode(), Some(&dir.0));
        tally.check(w, &inputs, reference, Some(&pass.items));
        cold_c11_us = pass
            .tracer
            .totals()
            .get("c11")
            .map_or(0.0, |t| t.us_per_call());
        let store = DiskStore::open(&dir.0).expect("the benchmark's store directory opens");
        traced::save_all(
            &mut cold_tracer,
            &store,
            &inputs.tests,
            &pass.c11,
            &pass.spaces,
        );
    }

    let start = Instant::now();
    let mut untraced_cpu = Vec::new();
    let mut per_pass: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last: Option<Pass> = None;
    while last.is_none() || start.elapsed() < seconds {
        let rep = run_rep(&inputs, w);
        tally.check(w, &inputs, reference, rep.as_ref().map(|r| &r.items[..]));
        if let Some(rep) = &rep {
            tally.guard("untraced repetition", expected, &rep.counts);
            untraced_cpu.push(rep.cpu_s);
        }
        let pass = match w {
            Workload::VerifyEach => {
                let models: Vec<&UarchModel> =
                    inputs.verifiers.iter().map(TriCheck::uarch).collect();
                traced::verify_pass(
                    &inputs.tests,
                    inputs.verifiers[0].mapping(),
                    &models,
                    &inputs.requests,
                )
            }
            _ => traced::sweep_pass(
                &inputs.tests,
                &inputs.stacks,
                w.mode(),
                traced_store.as_ref().map(|d| d.0.as_path()),
            ),
        };
        tally.check(w, &inputs, reference, Some(&pass.items));
        if w != Workload::VerifyEach {
            tally.guard("traced pass", expected, &traced_counts(&pass));
        }
        for (k, v) in pass_metrics(w, &pass) {
            per_pass.entry(k).or_default().push(v);
        }
        per_pass.entry("wall_s").or_default().push(pass.wall_s);
        last = Some(pass);
    }
    let last = last.expect("at least one traced pass");
    let med = |k: &str| median(per_pass.get(k).map_or(&[][..], Vec::as_slice));

    // The dist layer: store_rerun's warm passes load inline and its cold
    // pass saved; every other workload round-trips its own spaces and
    // verdicts through a fresh store.
    let verify_contents = (w == Workload::VerifyEach).then(|| verify_store_contents(&inputs.tests));
    let (store_tracer, store_mb) = match &traced_store {
        Some(dir) => (cold_tracer, dir.size_mb()),
        None => {
            let (spaces, c11) = match &verify_contents {
                Some((spaces, c11)) => (spaces, c11),
                None => (&last.spaces, &last.c11),
            };
            let dir = ScratchDir::fresh("probe-store");
            let mut tr = Tracer::new();
            let store = DiskStore::open(&dir.0).expect("the benchmark's store directory opens");
            traced::save_all(&mut tr, &store, &inputs.tests, c11, spaces);
            drop(store);
            let store = DiskStore::open(&dir.0).expect("the benchmark's store directory opens");
            let misses = traced::load_all(&mut tr, &store, &inputs.tests, w.mode(), spaces);
            if misses != 0 {
                tally
                    .guard_errors
                    .push(format!("store round trip: {misses} loads missed"));
            }
            (tr, dir.size_mb())
        }
    };
    let store_totals = store_tracer.totals();
    let store_us = |name: &str| store_totals.get(name).map_or(0.0, |t| t.us_per_call());
    let (load_space_us, load_c11_us) = match w {
        Workload::StoreRerun => (
            med("dist.load_us_per_space"),
            med("dist.load_c11_us_per_test"),
        ),
        _ => (store_us("dist.load_space"), store_us("dist.load_c11")),
    };
    let c11_us = match w {
        Workload::StoreRerun => cold_c11_us,
        _ => med("c11.us_per_test"),
    };
    let distinct = match &verify_contents {
        Some((spaces, _)) => spaces.len() as u64,
        None => last.counts.distinct_programs,
    };
    let busy_s = median(&untraced_cpu);
    let layer_s = med("layer_s");
    *metrics = [
        "litmus.enum_us_per_program",
        "compiler.us_per_compile",
        "uarch.us_per_judgement",
        "rel.prelude_us_per_stream",
        "rel.check_us_per_candidate",
    ]
    .map(|name| (name, "us", med(name)))
    .to_vec();
    metrics.extend(count_metrics(&last, distinct));
    metrics.extend([
        ("c11.us_per_test", "us", c11_us),
        ("rel.kernel_compile_ms", "ms", kernel_ms),
        ("core.self_s", "s", busy_s - layer_s),
        ("core.attributed_share", "ratio", ratio(layer_s, busy_s)),
        (
            "core.traced_span_share",
            "ratio",
            med("core.traced_span_share"),
        ),
        ("dist.load_us_per_space", "us", load_space_us),
        ("dist.load_c11_us_per_test", "us", load_c11_us),
        ("dist.save_us_per_space", "us", store_us("dist.save_space")),
        ("dist.store_mb", "MB", store_mb),
    ]);

    // The last traced pass's spans, then the store calls'.
    let spans_path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
    let spans = format!("{}# store\n{}", last.tracer.to_tsv(), store_tracer.to_tsv());
    match std::fs::write(&spans_path, spans) {
        Ok(()) => record.insert("spans_file", format!("\"{}\"", spans_path.display())),
        Err(e) => record.insert("spans_file", format!("\"not written: {e}\"")),
    };
    record.insert("traced_wall_s", format!("{:?}", per_pass["wall_s"]));
    record.insert("untraced_cpu_s", format!("{untraced_cpu:?}"));
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.write_reference {
        if let Err(e) = write_reference(&args) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for e in &outcome.tally.guard_errors {
        eprintln!("perfbench: exact-count guard: {e}");
    }
    let correct = outcome.tally.failed == 0 && outcome.tally.guard_errors.is_empty();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!("{}", outcome.record);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
