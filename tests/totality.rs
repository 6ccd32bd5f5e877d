//! Totality of the text parsers over seeded mutants of the committed
//! corpus: every mutant of every `litmus/*.litmus`, `models/**/*.cat`
//! and `models/*.stack` file must come back `Ok` or `Err` — quickly, and
//! without a panic.
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
use tricheck::core::registry::parse_stack_file;
use tricheck::litmus::format::parse_litmus;
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
        assert!(check(&original), "{} is rejected", path.display());
        let mut accepted = 0;
        for m in 0..MUTANTS_PER_FILE {
            let seed = (f as u64) << 32 | m;
            let mutant = mutate(&original, &mut StdRng::seed_from_u64(seed));
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| check(&mutant)));
            let elapsed = start.elapsed();
            let Ok(ok) = outcome else {
                panic!(
                    "{} mutant {seed:#x} panicked; mutated text:\n{mutant}",
                    path.display()
                );
            };
            assert!(
                elapsed < TIME_BOUND,
                "{} mutant {seed:#x} took {elapsed:?}; mutated text:\n{mutant}",
                path.display()
            );
            accepted += usize::from(ok);
        }
        // Mutants that still parse exercise the post-parse steps; some
        // edits (a duplicated blank line, a swapped comment) keep every
        // file valid.
        assert!(accepted > 0, "{}: no mutant was accepted", path.display());
    }
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
