//! Corruption, truncation and version-mismatch fixtures for the
//! on-disk store: every damaged-cache scenario must fall back to
//! recompute with rows identical to a storeless run — degraded
//! performance is acceptable, a wrong row never is.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use tricheck_core::{
    builtin_stack, results_from_items, C11Cached, OutcomeMode, SpaceStore, Sweep, SweepOptions,
    SweepResults,
};
use tricheck_dist::DiskStore;
use tricheck_litmus::{suite, LitmusTest};

/// A unique, self-cleaning cache directory per test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("tricheck-store-{label}-{}-{n}", std::process::id()));
        fs::create_dir_all(&path).expect("create temp cache dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn small_suite() -> Vec<LitmusTest> {
    suite::mp_template().instantiate_all().collect()
}

fn run_with_store(tests: &[LitmusTest], store: &Arc<DiskStore>) -> SweepResults {
    run_in_mode(tests, store, OutcomeMode::Target)
}

fn run_in_mode(tests: &[LitmusTest], store: &Arc<DiskStore>, mode: OutcomeMode) -> SweepResults {
    let opts = SweepOptions {
        outcome_mode: mode,
        store: Some(Arc::clone(store) as Arc<dyn SpaceStore>),
        ..SweepOptions::default()
    };
    Sweep::with_options(opts).run_matrix(tests, &builtin_stack("power").unwrap().stacks)
}

/// The judgements the power sweep of `tests` makes in `mode`, found by
/// compiling every (test, mapping) pair: one per distinct (program,
/// target) in target mode, one per distinct (program, observed
/// registers) in outcome mode.
fn distinct_judgements(tests: &[LitmusTest], mode: OutcomeMode) -> usize {
    let stacks = builtin_stack("power").unwrap().stacks;
    let mut pairs = HashSet::new();
    for test in tests {
        for stack in &stacks {
            if let Ok(compiled) = tricheck_compiler::compile(test, stack.mapping) {
                let asked = match mode {
                    OutcomeMode::Target => format!("{}", compiled.target()),
                    OutcomeMode::FullOutcomes => format!("{:?}", compiled.observed()),
                };
                pairs.insert((compiled.program().clone(), asked));
            }
        }
    }
    pairs.len()
}

fn space_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir.join("spaces"))
        .expect("spaces dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    files
}

/// Populates a cache and returns the baseline (storeless) rows.
fn populate(dir: &Path, tests: &[LitmusTest]) -> SweepResults {
    let store = Arc::new(DiskStore::open(dir).expect("open store"));
    let cold = run_with_store(tests, &store);
    assert!(store.stats().writes > 0, "cold run must populate the cache");
    let baseline = Sweep::new().run_matrix(tests, &builtin_stack("power").unwrap().stacks);
    assert_eq!(cold.rows(), baseline.rows(), "cold cached run == storeless");
    baseline
}

#[test]
fn warm_store_serves_hits_and_identical_rows() {
    for (mode, hits_per_judgement) in [(OutcomeMode::Target, 1), (OutcomeMode::FullOutcomes, 2)] {
        let dir = TempDir::new("warm");
        let tests = small_suite();
        let stacks = builtin_stack("power").unwrap().stacks;
        let sweep = |store: Option<Arc<dyn SpaceStore>>| {
            Sweep::with_options(SweepOptions {
                outcome_mode: mode,
                store,
                ..SweepOptions::default()
            })
        };
        let opened = Arc::new(DiskStore::open(dir.path()).expect("open store"));
        let cold = sweep(Some(opened)).run_matrix_items(&tests, &stacks);
        // Each distinct judgement is made once, so a cold sweep asks no
        // space for a view twice ...
        assert_eq!(cold.stats.space_cache_hits, 0, "{mode:?}");
        // A store-less sweep judges each candidate as the enumerator
        // yields it, where a cold cached one materializes the candidates
        // into a space first: every (test, stack) verdict and both
        // enumeration counters agree.
        let streamed = sweep(None).run_matrix_items(&tests, &stacks);
        assert_eq!(streamed.items, cold.items, "cold cached run == storeless");
        assert_eq!(
            streamed.stats.space_enumerations, cold.stats.space_enumerations,
            "{mode:?}"
        );
        assert_eq!(
            streamed.stats.candidates_pruned, cold.stats.candidates_pruned,
            "{mode:?}"
        );
        let baseline = results_from_items(&tests, &stacks, &streamed.items, streamed.stats);

        let store = Arc::new(DiskStore::open(dir.path()).expect("reopen store"));
        let warm = run_in_mode(&tests, &store, mode);
        assert_eq!(warm.rows(), baseline.rows(), "warm run == storeless");
        // ... and a warm one serves every judgement from restored views:
        // the matching view in target mode, the full view and its
        // outcome partition in outcome mode.
        let judgements = distinct_judgements(&tests, mode);
        assert!(judgements < warm.stats().compile_calls);
        assert_eq!(
            warm.stats().space_cache_hits,
            hits_per_judgement * judgements,
            "{mode:?}"
        );
        let stats = store.stats();
        assert!(stats.space_hits > 0, "warm run must hit the space cache");
        assert_eq!(stats.space_misses, 0, "every space must be served warm");
        assert!(stats.c11_hits > 0, "warm run must hit the verdict cache");
        assert_eq!(stats.c11_misses, 0);
        assert_eq!(stats.evictions, 0);
        // And nothing was enumerated or evaluated again.
        assert_eq!(warm.stats().space_enumerations, 0);
        assert_eq!(warm.stats().c11_evaluations, 0);
    }
}

#[test]
fn views_derived_from_restored_spaces_are_persisted() {
    let dir = TempDir::new("derived");
    let tests = small_suite();

    // Cold outcomes-mode run: persists full candidate lists + outcome
    // partitions, but no per-target matching views.
    let store = Arc::new(DiskStore::open(dir.path()).expect("open store"));
    let opts = SweepOptions {
        outcome_mode: tricheck_core::OutcomeMode::FullOutcomes,
        store: Some(Arc::clone(&store) as Arc<dyn SpaceStore>),
        ..SweepOptions::default()
    };
    let _ = Sweep::with_options(opts).run_matrix(&tests, &builtin_stack("power").unwrap().stacks);

    // Warm target-mode run: matching views are *derived* from the
    // restored full lists (zero enumerations) — and must still be
    // written back so later target-mode runs find them ready-made.
    let store2 = Arc::new(DiskStore::open(dir.path()).expect("reopen"));
    let second = run_with_store(&tests, &store2);
    assert_eq!(
        second.stats().space_enumerations,
        0,
        "derived, not enumerated"
    );
    assert_eq!(store2.stats().space_misses, 0);
    assert!(
        store2.stats().writes > 0,
        "derived matching views must be persisted"
    );

    // A third target-mode run finds everything in place: no writes.
    let store3 = Arc::new(DiskStore::open(dir.path()).expect("reopen again"));
    let third = run_with_store(&tests, &store3);
    assert_eq!(third.rows(), second.rows());
    assert_eq!(third.stats().space_enumerations, 0);
    assert_eq!(
        store3.stats().writes,
        0,
        "fully warm run must not rewrite anything"
    );
}

/// The sweep's grown check on its own: a warm target-mode run over a
/// store that holds only full views and outcome partitions enumerates
/// nothing, but derives a matching view in every restored space — and
/// must rewrite every space file with it, not only the C11 verdicts.
#[test]
fn derived_views_rewrite_every_restored_space_file() {
    let dir = TempDir::new("rewrite");
    let tests = small_suite();
    let store = Arc::new(DiskStore::open(dir.path()).expect("open store"));
    let opts = SweepOptions {
        outcome_mode: tricheck_core::OutcomeMode::FullOutcomes,
        store: Some(Arc::clone(&store) as Arc<dyn SpaceStore>),
        ..SweepOptions::default()
    };
    let _ = Sweep::with_options(opts).run_matrix(&tests, &builtin_stack("power").unwrap().stacks);
    let read_all = || -> Vec<Vec<u8>> {
        space_files(dir.path())
            .iter()
            .map(|f| fs::read(f).expect("read space file"))
            .collect()
    };
    let before = read_all();

    let store2 = Arc::new(DiskStore::open(dir.path()).expect("reopen"));
    let warm = run_with_store(&tests, &store2);
    assert_eq!(warm.stats().space_enumerations, 0);
    let after = read_all();
    assert_eq!(after.len(), before.len());
    assert!(
        before.iter().zip(&after).all(|(b, a)| b != a),
        "every restored space gained a derived matching view"
    );
}

#[test]
fn corrupt_space_files_fall_back_to_recompute_with_identical_rows() {
    let dir = TempDir::new("corrupt");
    let tests = small_suite();
    let baseline = populate(dir.path(), &tests);

    // Flip a byte in the middle of every space file (past the header,
    // inside the payload, so the checksum catches it).
    for file in space_files(dir.path()) {
        let mut bytes = fs::read(&file).expect("read space file");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xA5;
        fs::write(&file, bytes).expect("rewrite space file");
    }

    let store = Arc::new(DiskStore::open(dir.path()).expect("reopen store"));
    let rows = run_with_store(&tests, &store);
    assert_eq!(rows.rows(), baseline.rows(), "corrupt cache == storeless");
    let stats = store.stats();
    assert!(stats.evictions > 0, "corrupt files must be evicted");
    assert_eq!(stats.space_hits, 0, "no corrupt payload may be served");
    // The evicted entries were recomputed and persisted again…
    assert!(stats.writes > 0);
    // …so a further run is warm again.
    let store2 = Arc::new(DiskStore::open(dir.path()).expect("reopen again"));
    let rows2 = run_with_store(&tests, &store2);
    assert_eq!(rows2.rows(), baseline.rows());
    assert_eq!(store2.stats().space_misses, 0);
}

#[test]
fn truncated_space_files_fall_back_to_recompute_with_identical_rows() {
    let dir = TempDir::new("truncate");
    let tests = small_suite();
    let baseline = populate(dir.path(), &tests);

    for (i, file) in space_files(dir.path()).iter().enumerate() {
        let bytes = fs::read(file).expect("read space file");
        // Truncate each file at a different depth, including mid-header.
        let keep = (i * 7) % bytes.len().max(1);
        fs::write(file, &bytes[..keep]).expect("truncate space file");
    }

    let store = Arc::new(DiskStore::open(dir.path()).expect("reopen store"));
    let rows = run_with_store(&tests, &store);
    assert_eq!(rows.rows(), baseline.rows(), "truncated cache == storeless");
    assert!(store.stats().evictions > 0);
    assert_eq!(store.stats().space_hits, 0);
}

#[test]
fn version_bumped_files_fall_back_to_recompute_with_identical_rows() {
    let dir = TempDir::new("version");
    let tests = small_suite();
    let baseline = populate(dir.path(), &tests);

    // Rewrite every file claiming a future format version, with a
    // *valid* checksum over the bumped body — only the version check can
    // reject these.
    let bump = |path: &Path| {
        let bytes = fs::read(path).expect("read file");
        let (magic, body) = bytes.split_at(8);
        let body = &body[..body.len() - 8];
        let mut bumped_body = body.to_vec();
        let future = (tricheck_dist::FORMAT_VERSION + 1).to_le_bytes();
        bumped_body[..4].copy_from_slice(&future);
        let mut out = magic.to_vec();
        out.extend_from_slice(&bumped_body);
        out.extend_from_slice(&fnv1a(&bumped_body).to_le_bytes());
        fs::write(path, out).expect("rewrite file");
    };
    for file in space_files(dir.path()) {
        bump(&file);
    }
    bump(&dir.path().join("c11.verdicts"));

    let store = Arc::new(DiskStore::open(dir.path()).expect("reopen store"));
    // The verdict file was already evicted at open.
    assert!(store.stats().evictions > 0, "version mismatch must evict");
    let rows = run_with_store(&tests, &store);
    assert_eq!(
        rows.rows(),
        baseline.rows(),
        "future-version cache == storeless"
    );
    assert_eq!(store.stats().space_hits, 0);
    assert_eq!(store.stats().c11_hits, 0);
}

#[test]
fn previous_format_version_caches_evict_cleanly() {
    // The inverse of the future-version test: a cache written by the
    // *previous* release (FORMAT_VERSION - 1, e.g. one predating the
    // x86 annotation variant) must be evicted and recomputed, never
    // decoded under the new rules.
    let dir = TempDir::new("oldversion");
    let tests = small_suite();
    let baseline = populate(dir.path(), &tests);

    let downgrade = |path: &Path| {
        let bytes = fs::read(path).expect("read file");
        let (magic, body) = bytes.split_at(8);
        let body = &body[..body.len() - 8];
        let mut old_body = body.to_vec();
        let previous = (tricheck_dist::FORMAT_VERSION - 1).to_le_bytes();
        old_body[..4].copy_from_slice(&previous);
        let mut out = magic.to_vec();
        out.extend_from_slice(&old_body);
        out.extend_from_slice(&fnv1a(&old_body).to_le_bytes());
        fs::write(path, out).expect("rewrite file");
    };
    for file in space_files(dir.path()) {
        downgrade(&file);
    }
    downgrade(&dir.path().join("c11.verdicts"));

    let store = Arc::new(DiskStore::open(dir.path()).expect("reopen store"));
    assert!(store.stats().evictions > 0, "old-version files must evict");
    let rows = run_with_store(&tests, &store);
    assert_eq!(
        rows.rows(),
        baseline.rows(),
        "old-version cache == storeless"
    );
    assert_eq!(store.stats().space_hits, 0);
    assert_eq!(store.stats().c11_hits, 0);
    // The eviction rewrote current-version files: a further run is warm.
    let store2 = Arc::new(DiskStore::open(dir.path()).expect("reopen again"));
    let rows2 = run_with_store(&tests, &store2);
    assert_eq!(rows2.rows(), baseline.rows());
    assert_eq!(store2.stats().space_misses, 0);
    assert_eq!(store2.stats().evictions, 0);
}

#[test]
fn corrupt_verdict_file_is_evicted_at_open() {
    let dir = TempDir::new("verdicts");
    let tests = small_suite();
    populate(dir.path(), &tests);

    let verdicts = dir.path().join("c11.verdicts");
    let mut bytes = fs::read(&verdicts).expect("read verdicts");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xA5;
    fs::write(&verdicts, &bytes).expect("corrupt verdicts");

    let store = Arc::new(DiskStore::open(dir.path()).expect("reopen store"));
    assert_eq!(store.stats().evictions, 1, "verdict file evicted at open");
    assert!(!verdicts.exists(), "evicted file is deleted");
}

/// Two handles on one directory flush disjoint verdict sets at once
/// (the in-process shape of two shard workers finishing together): the
/// flush lock serializes them, so a fresh open holds the union.
#[test]
fn concurrent_verdict_flushes_keep_both_sets() {
    let tests = small_suite();
    let (left, right) = tests.split_at(tests.len() / 2);
    for round in 0..20 {
        let dir = TempDir::new("flush");
        let handles = [
            DiskStore::open(dir.path()).expect("open store"),
            DiskStore::open(dir.path()).expect("open store"),
        ];
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for (store, half) in handles.iter().zip([left, right]) {
                let barrier = &barrier;
                s.spawn(move || {
                    for test in half {
                        store.save_c11(test, &C11Cached::Target(true));
                    }
                    barrier.wait();
                    store.flush();
                });
            }
        });
        let fresh = DiskStore::open(dir.path()).expect("reopen store");
        let missing = tests
            .iter()
            .filter(|t| fresh.load_c11(t, OutcomeMode::Target).is_none())
            .count();
        assert_eq!(missing, 0, "round {round}: a concurrent flush lost entries");
        assert!(
            !dir.path().join("c11.verdicts.lock").exists(),
            "the lock file is released"
        );
    }
}

#[test]
fn open_rejects_a_file_as_cache_dir() {
    let dir = TempDir::new("notadir");
    let file = dir.path().join("plain-file");
    fs::write(&file, b"x").expect("write file");
    let err = DiskStore::open(&file).expect_err("file is not a directory");
    assert!(err.to_string().contains("not a directory"), "{err}");
}

/// Local FNV-1a-64 mirror (the store's checksum), for forging valid
/// checksums over version-bumped bodies.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
