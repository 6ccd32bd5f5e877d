//! Totality of the text parsers over seeded mutants of the committed
//! corpus: every mutant of every `litmus/*.litmus`, `models/**/*.cat`
//! and `models/*.stack` file must come back `Ok` or `Err` — quickly, and
//! without a panic. The same holds for the two readers of what the
//! tool itself writes: the execution-space snapshot decoder (over byte
//! mutants of real target-mode and outcome-mode snapshots) and the JSON
//! reader (over text mutants of a real `--metrics-json` document).
//!
//! Mutants are drawn with the in-repo `rand` shim from fixed seeds, so
//! a failure reproduces: its message names the file, the seed and the
//! mutated text. Each mutant applies one to three edits — delete,
//! duplicate or swap lines; delete, insert or replace characters
//! (drawn from the grammars' own punctuation, digits and names); cut
//! the text short — so most mutants stay close to the grammar and reach
//! deep into the parsers rather than failing on the first byte.
//!
//! What a parser accepts is then carried one step further, to the
//! point where a malformed input could still panic: an accepted model
//! is linted and compiled, and an accepted stack's models are compiled.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tricheck::compiler::{compile, riscv_mapping};
use tricheck::core::registry::parse_stack_file;
use tricheck::core::{builtin_stack, Sweep, SweepOptions};
use tricheck::isa::{HwAnnot, RiscvIsa, SpecVersion};
use tricheck::litmus::format::parse_litmus;
use tricheck::litmus::{suite, ExecutionSpace, LitmusTest, MemOrder};
use tricheck::rel::lint::lint_model;
use tricheck::rel::parse_model_spanned;
use tricheck::uarch::{hw_lint_schema, hw_vocabulary, UarchModel};

/// Mutants drawn per committed file.
const MUTANTS_PER_FILE: u64 = 150;

/// A generous bound on one mutant's parse (and compile) in an
/// unoptimized build; the committed files parse in microseconds.
const TIME_BOUND: Duration = Duration::from_secs(2);

/// Characters an edit inserts: the grammars' punctuation and operators
/// (ASCII and Unicode spellings), digits, and letters of their names.
const ALPHABET: &[char] = &[
    '(', ')', '[', ']', '{', '}', '|', ';', ',', ':', '=', '&', '*', '+', '?', '^', '-', '/', '#',
    '\\', '\n', ' ', '0', '1', '9', 'r', 'x', 'y', 'P', 'W', 'R', 'M', '∪', '∩', '⁺', '×', '\'',
];

/// Whole tokens a replace edit may splice in.
const TOKENS: &[&str] = &[
    "ld",
    "st",
    "xchg",
    "fetchadd0",
    "fence",
    "rlx",
    "acq",
    "rel",
    "sc",
    "acq_rel",
    "r99",
    "r0",
    "exists",
    "model",
    "stack",
    "mapping",
    "isa",
    "models",
    "acyclic",
    "irreflexive",
    "empty",
    "po",
    "rf",
    "co",
    "fr",
    "rfe",
    "fre",
    "po-loc",
    "same-loc",
    "init",
    "amo-aq",
    "let",
    ":=",
    "^-1",
    "^+",
    "*",
    "0",
    "id",
    "-1",
    "18446744073709551615",
    "99999999999999999999",
];

/// Applies one to three random edits to `text`.
fn mutate(text: &str, rng: &mut StdRng) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for _ in 0..rng.gen_range(1..=3) {
        let len = chars.len();
        let at = rng.gen_range(0..=len);
        match rng.gen_range(0..8) {
            // Delete a character.
            0 if len > 0 => {
                chars.remove(at.min(len - 1));
            }
            // Insert a character.
            1 => chars.insert(at, ALPHABET[rng.gen_range(0..ALPHABET.len())]),
            // Replace a run of up to 8 characters with a token.
            2 => {
                let end = (at + rng.gen_range(0..=8usize)).min(len);
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                chars.splice(at..end, token.chars());
            }
            // Cut the text short.
            3 => chars.truncate(at),
            // Line edits: delete, duplicate, or swap two lines.
            _ => {
                let mut lines: Vec<String> = chars
                    .iter()
                    .collect::<String>()
                    .split('\n')
                    .map(str::to_string)
                    .collect();
                let i = rng.gen_range(0..lines.len());
                let j = rng.gen_range(0..lines.len());
                match rng.gen_range(0..3) {
                    0 => {
                        lines.remove(i);
                    }
                    1 => {
                        let line = lines[i].clone();
                        lines.insert(j, line);
                    }
                    _ => lines.swap(i, j),
                }
                chars = lines.join("\n").chars().collect();
            }
        }
    }
    chars.into_iter().collect()
}

/// The committed files under `dir` (recursively) with extension `ext`.
fn corpus(dir: &str, ext: &str) -> Vec<PathBuf> {
    fn walk(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("corpus directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                walk(&path, ext, out);
            } else if path.extension().is_some_and(|e| e == ext) {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join(dir),
        ext,
        &mut out,
    );
    out.sort();
    assert!(!out.is_empty(), "no {ext} files under {dir}");
    out
}

/// Runs `check` on the committed file itself (which must be accepted)
/// and on [`MUTANTS_PER_FILE`] seeded mutants of it, failing on any
/// panic or any check slower than [`TIME_BOUND`].
fn assert_total(files: &[PathBuf], check: impl Fn(&str) -> bool) {
    for (f, path) in files.iter().enumerate() {
        let original = std::fs::read_to_string(path).expect("committed file reads");
        assert_total_over(
            &path.display().to_string(),
            f,
            original.as_str(),
            mutate,
            |t| check(t),
        );
    }
}

/// Runs `check` on `original` (which must be accepted) and on
/// [`MUTANTS_PER_FILE`] mutants of it drawn by `mutate` from seeds
/// `index << 32 | m`, failing on any panic or any check slower than
/// [`TIME_BOUND`]. Some mutant must still be accepted, so the steps
/// after the parse are exercised too.
fn assert_total_over<T: ?Sized + std::fmt::Debug + ToOwned>(
    label: &str,
    index: usize,
    original: &T,
    mutate: impl Fn(&T, &mut StdRng) -> T::Owned,
    check: impl Fn(&T) -> bool,
) where
    T::Owned: std::borrow::Borrow<T>,
{
    use std::borrow::Borrow;
    assert!(check(original), "{label} is rejected");
    let mut accepted = 0;
    for m in 0..MUTANTS_PER_FILE {
        let seed = (index as u64) << 32 | m;
        let mutant = mutate(original, &mut StdRng::seed_from_u64(seed));
        let mutant: &T = mutant.borrow();
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| check(mutant)));
        let elapsed = start.elapsed();
        let Ok(ok) = outcome else {
            panic!("{label} mutant {seed:#x} panicked; mutant:\n{mutant:?}");
        };
        assert!(
            elapsed < TIME_BOUND,
            "{label} mutant {seed:#x} took {elapsed:?}; mutant:\n{mutant:?}"
        );
        accepted += usize::from(ok);
    }
    assert!(accepted > 0, "{label}: no mutant was accepted");
}

/// Applies one to three random byte edits: flip a bit, insert, delete,
/// overwrite four bytes with a random count, or truncate.
fn mutate_bytes(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = bytes.to_vec();
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
fn litmus_parser_is_total_over_mutants_of_the_corpus() {
    assert_total(&corpus("litmus", "litmus"), |text| {
        parse_litmus(text).is_ok()
    });
}

#[test]
fn model_parser_is_total_over_mutants_of_the_model_files() {
    assert_total(&corpus("models", "cat"), |text| {
        let Ok((ir, spans)) = parse_model_spanned(text, &hw_vocabulary()) else {
            return false;
        };
        let _ = lint_model(&ir, &hw_lint_schema(), Some(&spans));
        let _ = UarchModel::from_ir(ir).compiled();
        true
    });
}

#[test]
fn stack_parser_is_total_over_mutants_of_the_stack_files() {
    assert_total(&corpus("models", "stack"), |text| {
        let Ok(stack) = parse_stack_file(text, "mutant.stack") else {
            return false;
        };
        for column in &stack.stacks {
            let _ = column.model.compiled();
        }
        true
    });
}

/// A few compiled tests whose spaces the snapshot mutants start from:
/// plain loads and stores, fences, and an RMW under Base+A.
fn snapshot_tests() -> Vec<LitmusTest> {
    vec![
        suite::mp([MemOrder::Rlx; 4]),
        suite::wrc([
            MemOrder::Rlx,
            MemOrder::Rlx,
            MemOrder::Rel,
            MemOrder::Acq,
            MemOrder::Rlx,
        ]),
        suite::corsdwi([MemOrder::Sc; 5]),
    ]
}

#[test]
fn snapshot_decoder_is_total_over_mutants_of_real_snapshots() {
    let mapping = riscv_mapping(RiscvIsa::BaseA, SpecVersion::Curr);
    for (t, test) in snapshot_tests().iter().enumerate() {
        let compiled = compile(test, mapping).expect("the test compiles");
        let (program, target, observed) =
            (compiled.program(), compiled.target(), compiled.observed());
        // A target-mode space holds a matching view; an outcome-mode one
        // the full arena and its outcome partition.
        let target_mode = ExecutionSpace::new(program.clone());
        let _ = target_mode.matching(target);
        let outcome_mode = ExecutionSpace::new(program.clone());
        let _ = outcome_mode.outcome_groups(observed);
        for (mode, space) in [("target", target_mode), ("outcome", outcome_mode)] {
            let label = format!("{} {mode}-mode snapshot", test.name());
            let index = 2 * t + usize::from(mode == "outcome");
            assert_total_over(
                &label,
                index,
                space.snapshot().as_slice(),
                mutate_bytes,
                |bytes| {
                    let Ok(restored) = ExecutionSpace::from_snapshot(program.clone(), bytes) else {
                        return false;
                    };
                    let _ = restored.matching(target).len();
                    let _ = restored.outcome_groups(observed).len();
                    let _ = restored.snapshot();
                    true
                },
            );
        }
    }
}

/// One empty outcome partition that claims `u32::MAX` parts: a decoder
/// that reserves the claimed count asks for hundreds of gigabytes.
#[test]
fn a_snapshot_claiming_four_billion_outcome_parts_is_an_error() {
    let mut bytes = vec![0]; // no full view
    bytes.extend_from_slice(&0u32.to_le_bytes()); // no matching views
    bytes.extend_from_slice(&1u32.to_le_bytes()); // one partition
    bytes.extend_from_slice(&0u16.to_le_bytes()); // over no registers
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // of u32::MAX parts
    assert_eq!(bytes.len(), 15);
    let compiled = compile(
        &suite::mp([MemOrder::Rlx; 4]),
        riscv_mapping(RiscvIsa::Base, SpecVersion::Curr),
    )
    .expect("mp compiles");
    assert!(ExecutionSpace::<HwAnnot>::from_snapshot(compiled.program().clone(), &bytes).is_err());
}

/// A real `--metrics-json` document: a traced sweep whose report also
/// absorbs a copy of itself as a shard worker's, so the per-worker
/// section nests as deep as a sharded run's.
fn metrics_document() -> String {
    tricheck::trace::start(tricheck::trace::TraceConfig::metrics());
    let tests: Vec<LitmusTest> = suite::full_suite()
        .into_iter()
        .filter(|t| t.family() == "sb")
        .collect();
    let options = SweepOptions::with_threads(1);
    let config = options.run_config(tests.len());
    let results = Sweep::with_options(options)
        .run_matrix(&tests, &builtin_stack("x86-tso").expect("built in").stacks);
    let mut report = tricheck::trace::finish().report;
    for (name, value) in results.stats().as_counters() {
        report.set_counter(name, value);
    }
    report.config = Some(config);
    report.absorb_worker(1, report.clone());
    report.to_json()
}

#[test]
fn json_reader_is_total_over_mutants_of_a_metrics_document() {
    use tricheck::trace::json::{parse, to_string};
    assert_total_over(
        "metrics document",
        0,
        metrics_document().as_str(),
        mutate,
        |text| {
            let Ok(value) = parse(text) else {
                return false;
            };
            // What the reader accepts, its writer reproduces.
            assert_eq!(parse(&to_string(&value)).as_ref(), Ok(&value));
            true
        },
    );
    // Nesting far past any emitted document fails, without recursing
    // once per level.
    assert!(parse(&"[".repeat(1_000_000)).is_err());
}
