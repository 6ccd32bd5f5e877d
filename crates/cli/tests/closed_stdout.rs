//! The `tricheck` binary with its standard output closed, as
//! `tricheck list | head -1` closes it once `head` has its line. Each
//! test hands the child the write end of a pipe whose read end is
//! already closed, so the child's first write to stdout fails with a
//! broken pipe whatever the scheduling. The command must then run to
//! its end: no panic, its other output files written, and its own exit
//! status returned.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// Runs `tricheck` with `args` and a stdout nobody reads.
fn run_with_closed_stdout(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("creates a pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_tricheck"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("the tricheck binary runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    output
}

fn scratch_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tricheck-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creates a scratch directory");
    dir.join(name)
}

#[test]
fn a_closed_stdout_exits_quietly() {
    let output = run_with_closed_stdout(&["list"]);
    assert!(
        output.status.success(),
        "exit status {:?} with stdout closed; stderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn a_closed_stdout_still_writes_the_metrics_document() {
    let metrics = scratch_path("metrics.json");
    let _ = std::fs::remove_file(&metrics);
    let output = run_with_closed_stdout(&[
        "sweep",
        "sb",
        "--stack",
        "x86-tso",
        "--threads",
        "1",
        "--metrics-json",
        metrics.to_str().expect("a UTF-8 path"),
    ]);
    assert!(
        output.status.success(),
        "exit status {:?}; stderr:\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let doc = std::fs::read_to_string(&metrics).expect("the metrics document was written");
    assert!(
        doc.trim_start().starts_with('{'),
        "metrics document:\n{doc}"
    );
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn a_failing_lint_keeps_its_status_with_stdout_closed() {
    let output = run_with_closed_stdout(&["lint", "../../tests/fixtures/lint/e001.cat"]);
    assert_eq!(
        output.status.code(),
        Some(1),
        "stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}
