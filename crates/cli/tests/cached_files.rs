//! The loop a user runs while fixing a model or a mapping: sweep a
//! stack file or a model file against a `--cache-dir`, edit, sweep
//! again. A file sweeps down the same path as a built-in, store
//! included, so a rerun of an unchanged file enumerates nothing,
//! evaluates no C11 test, and prints the table a storeless run prints.
//! More than one shard stays refused for files: workers rebuild the
//! matrix by registry name, and a loaded file may reuse a built-in's.

use std::path::PathBuf;
use std::process::Command;

/// Runs `tricheck` from the repository root and returns its stdout,
/// failing on a nonzero exit.
fn tricheck(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_tricheck"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("the tricheck binary runs");
    assert!(
        output.status.success(),
        "tricheck {args:?} exited {:?}; stderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 stdout")
}

/// Splits `--cache-stats` output into the table and one counter.
fn table_and_counter<'a>(out: &'a str, counter: &str) -> (&'a str, u64) {
    let (table, stats) = out
        .split_once("\ncache stats:\n")
        .expect("a cache stats block");
    let value = stats
        .lines()
        .find_map(|line| line.trim().strip_prefix(&format!("{counter}: ")))
        .unwrap_or_else(|| panic!("no {counter} in:\n{stats}"))
        .parse()
        .expect("a counter value");
    (table, value)
}

fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tricheck-cached-files-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sweeps `sb` through `matrix` (a `--stack`/`--model` flag and file)
/// storeless, then cold and warm against one cache directory.
fn assert_warm_rerun_reuses_everything(matrix: [&str; 2], tag: &str) {
    let dir = cache_dir(tag);
    let dir_arg = dir.to_str().expect("a UTF-8 path");
    let storeless = tricheck(&["sweep", "sb", matrix[0], matrix[1], "--threads", "1"]);
    let cached = [
        "sweep",
        "sb",
        matrix[0],
        matrix[1],
        "--threads",
        "1",
        "--cache-dir",
        dir_arg,
        "--cache-stats",
    ];
    let cold = tricheck(&cached);
    let warm = tricheck(&cached);
    let (cold_table, cold_enumerations) = table_and_counter(&cold, "space_enumerations");
    assert!(cold_enumerations > 0, "a cold run enumerates:\n{cold}");
    assert_eq!(cold_table, storeless);
    let (warm_table, warm_enumerations) = table_and_counter(&warm, "space_enumerations");
    assert_eq!(warm_enumerations, 0, "{warm}");
    assert_eq!(table_and_counter(&warm, "c11_evaluations").1, 0, "{warm}");
    assert_eq!(warm_table, cold_table);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_warm_rerun_of_a_stack_file_enumerates_nothing() {
    assert_warm_rerun_reuses_everything(["--stack", "models/x86-tso.stack"], "stack");
}

#[test]
fn a_warm_rerun_of_a_model_file_enumerates_nothing() {
    assert_warm_rerun_reuses_everything(["--model", "models/x86-tso.cat"], "model");
}

#[test]
fn files_are_refused_with_more_than_one_shard() {
    let dir = cache_dir("shards");
    for matrix in [
        ["--stack", "models/x86-tso.stack"],
        ["--model", "models/x86-tso.cat"],
        // Loaded from disk, this file is also named `riscv`: workers
        // must not swap the built-in in for it.
        ["--stack", "models/riscv.stack"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_tricheck"))
            .args(["sweep", "sb", matrix[0], matrix[1], "--shards", "2"])
            .args(["--cache-dir", dir.to_str().expect("a UTF-8 path")])
            .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
            .output()
            .expect("the tricheck binary runs");
        assert!(!output.status.success(), "{matrix:?} with --shards 2");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--shards N>1 cannot be combined"),
            "{stderr}"
        );
        assert!(output.stdout.is_empty(), "{matrix:?} printed a table");
        // Refused before anything ran: not even the store was created.
        assert!(!dir.exists(), "{matrix:?} opened the cache directory");
    }
}
