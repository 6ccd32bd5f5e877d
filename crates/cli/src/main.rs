//! `tricheck` — the command-line interface to the full-stack verifier.
//!
//! ```text
//! tricheck list [FAMILY]                      list suite tests (optionally one family)
//! tricheck show NAME                          print a test: program, target, C11 verdict
//! tricheck compile NAME [--isa B] [--spec V]  print the compiled RISC-V program
//! tricheck verify NAME [--model M] [--isa B] [--spec V]
//!                                             run the full toolflow on one test
//! tricheck diagnose NAME [--model M] [--isa B] [--spec V]
//!                                             verify + witness / per-axiom analysis
//! tricheck dot NAME [--model M] [--isa B] [--spec V]
//!                                             emit a Graphviz graph of the witness
//! tricheck sweep [FAMILY] [--threads N] [--cache-stats] [--outcomes]
//!                [--shards N] [--cache-dir PATH]
//!                [--metrics-json FILE] [--progress] [--trace FILE]
//!                [--model FILE | --stack NAME|FILE]
//!                                             Figure-15-style chart for a family
//! tricheck file PATH [--model M] [--isa B] [--spec V]
//!                                             parse a .litmus file and verify it
//! tricheck lint FILE [--json] [--deny-warnings]
//!                                             static-analysis pass over a model or
//!                                             stack file (exit 1 on errors, 2 on
//!                                             warnings under --deny-warnings)
//!
//! Every option is checked against the subcommand it is given to:
//! unknown `--flags` and flags that do not apply to the subcommand are
//! rejected with an error naming the flag, never silently ignored. Such
//! command-line errors print the usage text after the message; a
//! command that runs and fails (say, a model file that does not parse)
//! prints its message alone.
//!
//! options: --isa base|base+a    (default base)
//!          --spec curr|ours     (default curr)
//!          --model WR|rWR|rWM|rMM|nWR|nMM|A9like   (default nMM)
//!                               or a path to a herd-style model file
//!                               (every built-in is one: see
//!                               `models/riscv-curr/`); for `sweep`
//!                               the value must be a model file, which is
//!                               judged under all four C11→RISC-V
//!                               mappings
//!          --stack NAME|FILE    (sweep only) sweep the family through a
//!                               registered stack matrix instead of
//!                               Figure 15: a built-in by name (`riscv`,
//!                               `power` — the §7 study's leading-/
//!                               trailing-sync C11→Power mappings × the
//!                               ARMv7 models — or `x86-tso`), or a
//!                               whole-stack definition file: compiler
//!                               mapping tables plus their models (each
//!                               built-in *is* its `models/NAME.stack`)
//!          --threads N          sweep worker threads (default: all cores;
//!                               1 = deterministic serial run; with
//!                               --shards, threads *per shard*, default
//!                               cores / shards)
//!          --cache-stats        print the shared-engine cache counters
//!                               after a sweep (plus persistent-store
//!                               counters when --cache-dir is set)
//!          --outcomes           sweep in full-outcome-set mode: compare
//!                               every C11-permitted outcome with every
//!                               µarch-observable one, not just the target
//!          --shards N           deal the sweep across N worker processes
//!                               by program fingerprint range (default
//!                               1 = run in-process, no spawning; N > 1
//!                               takes built-in matrices only, since
//!                               workers rebuild the matrix by name)
//!          --cache-dir PATH     persist execution spaces and C11 verdicts
//!                               in PATH (created if missing) so repeated
//!                               sweeps skip enumeration; shared by all
//!                               shards, and by any matrix: a stack or
//!                               model file rerun after an edit reuses
//!                               what the edit left unchanged
//!          --metrics-json FILE  write the structured sweep metrics report
//!                               (tricheck-metrics/v1 JSON: the run's
//!                               config, per-phase timings with
//!                               p50/p95/max, counters, per-mapping
//!                               judgement latency, per-worker
//!                               breakdowns)
//!          --progress           live progress line on stderr (tests
//!                               done/total, current phase, ETA); stdout
//!                               output is untouched
//!          --trace FILE         write a chrome://tracing JSON timeline of
//!                               every recorded span
//!          --json               (lint only) emit the report as a
//!                               tricheck-lint/v1 JSON document on stdout
//!          --deny-warnings      (lint only) exit 2 when warnings remain
//!          --allow-lint-errors  (sweep only) sweep a --model/--stack file
//!                               even when the lint pass finds error-level
//!                               defects (statically-empty relations,
//!                               vacuous axioms)
//! ```
//!
//! Every sweep, whatever its matrix, is one `tricheck_dist::run_sharded`
//! call. There is also a hidden `shard-worker` subcommand — the child
//! half of the `--shards` protocol (job on stdin, result on stdout). It
//! is an implementation detail of `tricheck-dist`, not a user command.

use std::process::ExitCode;

use tricheck::core::explain::diagnose;
use tricheck::core::report;
use tricheck::prelude::*;

/// Set once a write to standard output has failed with a broken pipe.
static STDOUT_CLOSED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Writes to standard output, the one place a failed write is handled.
/// A closed stdout (`tricheck list | head -1`) is not an error: the
/// reader took what it wanted, so this and every later write are
/// dropped quietly and the command runs to its end, writing its other
/// outputs (`--metrics-json`, `--trace`) and returning its own status.
/// Any other write failure is reported and exits nonzero.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    use std::sync::atomic::Ordering;
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            STDOUT_CLOSED.store(true, Ordering::Relaxed);
            return;
        }
        eprintln!("error: writing to standard output: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            if matches!(e, CliError::Usage(_)) {
                eprintln!();
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Why an invocation failed. Only a malformed command line earns the
/// usage text; a command that ran and failed (a model file that does
/// not parse, an unknown test) prints its message alone.
#[derive(Debug, PartialEq)]
enum CliError {
    /// The arguments are wrong: an unknown command or flag, a missing
    /// or bad value, or flags that do not apply or do not combine.
    Usage(String),
    /// The command ran and failed.
    Failed(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failed(msg)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Failed(msg) => f.write_str(msg),
        }
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

const USAGE: &str = "usage:
  tricheck list [FAMILY]
  tricheck show NAME
  tricheck compile NAME [--isa base|base+a] [--spec curr|ours]
  tricheck verify NAME [--model M] [--isa base|base+a] [--spec curr|ours]
  tricheck diagnose NAME [--model M] [--isa base|base+a] [--spec curr|ours]
  tricheck dot NAME [--model M] [--isa base|base+a] [--spec curr|ours]
  tricheck sweep [FAMILY] [--threads N] [--cache-stats] [--outcomes]
                 [--shards N] [--cache-dir PATH]
                 [--metrics-json FILE] [--progress] [--trace FILE]
                 [--model FILE | --stack NAME|FILE]
  tricheck sweep --list-models [--stack FILE | --model FILE]
  tricheck file PATH [--model M] [--isa base|base+a] [--spec curr|ours]
  tricheck lint FILE [--json] [--deny-warnings]

models: WR rWR rWM rMM nWR nMM A9like (default nMM), or a path to a
        herd-style model file; every built-in is one, so copy and edit
        models/riscv-curr/*.cat (or models/riscv-ours/) to try a
        variant; sweep only accepts the file form, judging it under all
        four C11→RISC-V mappings
stacks: sweep --stack NAME sweeps a registered stack matrix instead of
        the RISC-V Figure 15 (riscv): power is the §7 compiler study
        ({leading,trailing}-sync C11→Power mappings on the ARMv7 models),
        x86-tso the x86 study ({sc-atomics,relaxed} C11→x86 mappings on
        TSO); sweep --stack FILE loads a whole-stack definition file —
        named compiler-mapping tables plus their models (each built-in
        is its models/NAME.stack) — and sweeps the family through every
        mapping it defines
sweeps: --threads 1 gives a deterministic serial run; --cache-stats prints
        the sweep's compile, enumeration and cache counters; --outcomes
        compares full outcome sets instead of the target outcome (the
        stronger verify_full equivalence, at witness-mode cost);
        --list-models prints every registered stack (ISA, mapping, model,
        IR axioms) and exits; --shards N deals the sweep across N worker
        processes (default 1 = in process; N > 1 only for built-in
        stacks); --cache-dir PATH persists execution spaces and C11
        verdicts across runs, shards and matrices (built-in, --stack
        FILE or --model FILE alike);
        --metrics-json FILE writes the structured tricheck-metrics/v1
        report; --progress renders a live stderr progress line; --trace
        FILE writes a chrome://tracing timeline
lint:   runs the semantic static-analysis pass (E001/E002 statically-empty
        relations and vacuous axioms, W001-W004 dead definitions, subsumed
        axioms, shadow-adjacent names, unreachable mapping rows) over a
        model or stack file; --json emits a tricheck-lint/v1 document;
        --deny-warnings makes warnings exit 2; sweep --model/--stack runs
        the same pass and refuses error-level findings unless
        --allow-lint-errors is given";

/// Every option the CLI knows about, in the order the usage text lists
/// them. Used both to reject unknown `--flags` (with a nearest-match
/// hint) and to check per-subcommand applicability.
const ALL_FLAGS: &[&str] = &[
    "--isa",
    "--spec",
    "--model",
    "--stack",
    "--threads",
    "--cache-stats",
    "--outcomes",
    "--list-models",
    "--shards",
    "--cache-dir",
    "--metrics-json",
    "--progress",
    "--trace",
    "--json",
    "--deny-warnings",
    "--allow-lint-errors",
];

#[derive(Debug)]
struct Options {
    isa: RiscvIsa,
    spec: SpecVersion,
    model: String,
    stack: Option<String>,
    threads: Option<usize>,
    cache_stats: bool,
    outcomes: bool,
    list_models: bool,
    shards: Option<usize>,
    cache_dir: Option<String>,
    metrics_json: Option<String>,
    progress: bool,
    trace_out: Option<String>,
    json: bool,
    deny_warnings: bool,
    allow_lint_errors: bool,
    /// The flags actually given on the command line (canonical
    /// spellings), so subcommands can reject the ones that do not apply
    /// to them instead of silently ignoring them.
    given: Vec<&'static str>,
}

impl Options {
    fn was_given(&self, flag: &str) -> bool {
        self.given.contains(&flag)
    }
}

fn parse_options(args: &[String]) -> Result<(Vec<&String>, Options), String> {
    let mut opts = Options {
        isa: RiscvIsa::Base,
        spec: SpecVersion::Curr,
        model: "nMM".to_string(),
        stack: None,
        threads: None,
        cache_stats: false,
        outcomes: false,
        list_models: false,
        shards: None,
        cache_dir: None,
        metrics_json: None,
        progress: false,
        trace_out: None,
        json: false,
        deny_warnings: false,
        allow_lint_errors: false,
        given: Vec::new(),
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = ALL_FLAGS.iter().find(|f| **f == arg.as_str()) {
            opts.given.push(flag);
        }
        match arg.as_str() {
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count '{v}'"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                opts.threads = Some(n);
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad shard count '{v}'"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                opts.shards = Some(n);
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a path")?;
                opts.cache_dir = Some(v.clone());
            }
            "--metrics-json" => {
                let v = it.next().ok_or("--metrics-json needs a file path")?;
                opts.metrics_json = Some(v.clone());
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a file path")?;
                opts.trace_out = Some(v.clone());
            }
            "--progress" => opts.progress = true,
            "--json" => opts.json = true,
            "--deny-warnings" => opts.deny_warnings = true,
            "--allow-lint-errors" => opts.allow_lint_errors = true,
            "--cache-stats" => opts.cache_stats = true,
            "--outcomes" => opts.outcomes = true,
            "--list-models" => opts.list_models = true,
            "--isa" => {
                let v = it.next().ok_or("--isa needs a value")?;
                opts.isa = match v.to_lowercase().as_str() {
                    "base" => RiscvIsa::Base,
                    "base+a" | "basea" | "base-a" => RiscvIsa::BaseA,
                    other => return Err(format!("unknown ISA '{other}'")),
                };
            }
            "--spec" => {
                let v = it.next().ok_or("--spec needs a value")?;
                opts.spec = match v.to_lowercase().as_str() {
                    "curr" | "current" => SpecVersion::Curr,
                    "ours" | "refined" => SpecVersion::Ours,
                    other => return Err(format!("unknown spec version '{other}'")),
                };
            }
            "--model" => {
                opts.model = it.next().ok_or("--model needs a value")?.clone();
            }
            "--stack" => {
                let v = it.next().ok_or("--stack needs a stack name or file path")?;
                opts.stack = Some(v.clone());
            }
            other if other.starts_with("--") => return Err(unknown_flag(other)),
            _ => positional.push(arg),
        }
    }
    Ok((positional, opts))
}

/// The rejection message for a `--flag` the CLI does not know, with a
/// nearest-match hint when the typo is close to a real option.
fn unknown_flag(flag: &str) -> String {
    let nearest = ALL_FLAGS
        .iter()
        .map(|known| (tricheck::rel::parse::edit_distance(flag, known), known))
        .min()
        .filter(|(d, _)| *d <= 3);
    match nearest {
        Some((_, known)) => format!("unknown option '{flag}' (did you mean '{known}'?)"),
        None => format!("unknown option '{flag}'"),
    }
}

/// Rejects options that do not apply to the given subcommand. Flags are
/// parsed globally (so `--model` can mean a µarch model for `verify` and
/// a model file for `sweep`), but each subcommand only accepts its own
/// set — anything else errors instead of being silently ignored.
fn check_flags_apply(command: &str, opts: &Options) -> Result<(), String> {
    let allowed: &[&str] = match command {
        "compile" => &["--isa", "--spec"],
        "verify" | "diagnose" | "dot" | "file" => &["--model", "--isa", "--spec"],
        "lint" => &["--json", "--deny-warnings"],
        "sweep" => &[
            "--isa",
            "--spec",
            "--model",
            "--stack",
            "--threads",
            "--cache-stats",
            "--outcomes",
            "--list-models",
            "--shards",
            "--cache-dir",
            "--metrics-json",
            "--progress",
            "--trace",
            "--allow-lint-errors",
        ],
        // list, show, shard-worker take no options.
        "list" | "show" | "shard-worker" => &[],
        // An unknown command: let the dispatcher report it as such.
        _ => return Ok(()),
    };
    for flag in &opts.given {
        if !allowed.contains(flag) {
            return Err(format!(
                "'{flag}' does not apply to the '{command}' command"
            ));
        }
    }
    Ok(())
}

/// Looks up a Table 7 model under one spec version in the built-in
/// model table (`nMM` is `nMM/riscv-curr` under `--spec curr`; any
/// case; `a9` abbreviates `A9like`).
fn model_by_name(name: &str, spec: SpecVersion) -> Result<UarchModel, CliError> {
    let bare = if name.eq_ignore_ascii_case("a9") {
        "A9like"
    } else {
        name
    };
    UarchModel::builtin(&format!("{bare}/{spec}")).ok_or_else(|| {
        usage(format!(
            "unknown model '{name}' (expected one of WR rWR rWM rMM nWR nMM A9like, \
             or a path to a model file)"
        ))
    })
}

/// Resolves `--model` for the single-test commands: a value naming an
/// existing file is parsed as a herd-style model file; anything else is
/// looked up as a built-in µarch model name.
fn resolve_model(opts: &Options) -> Result<UarchModel, CliError> {
    let path = std::path::Path::new(&opts.model);
    if path.is_file() {
        let mut loaded = tricheck::core::load_model_file(path).map_err(|e| e.to_string())?;
        Ok(loaded.stacks.swap_remove(0).model)
    } else {
        model_by_name(&opts.model, opts.spec)
    }
}

fn find_test(name: &str) -> Result<LitmusTest, String> {
    // Named figure tests first, then the full generated suite.
    let named = [
        suite::fig3_wrc(),
        suite::fig4_iriw_sc(),
        suite::fig11_mp_roach_motel(),
        suite::fig13_mp_lazy(),
    ];
    if let Some(t) = named.iter().find(|t| t.name() == name) {
        return Ok(t.clone());
    }
    suite::full_suite()
        .into_iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| format!("no litmus test named '{name}' (try `tricheck list`)"))
}

fn format_c11_program(test: &LitmusTest) -> String {
    use tricheck::litmus::{Expr, Instr, Loc};
    let mut out = String::new();
    for (tid, thread) in test.program().threads().iter().enumerate() {
        out.push_str(&format!("T{tid}:\n"));
        for instr in thread {
            let line = match instr {
                Instr::Read { dst, addr, ann } => match addr {
                    Expr::Const(a) => format!("{dst} = ld({}, {ann})", Loc(*a)),
                    Expr::Reg(r) => format!("{dst} = ld([{r}], {ann})"),
                },
                Instr::Write { addr, val, ann } => match addr {
                    Expr::Const(a) => format!("st({}, {val}, {ann})", Loc(*a)),
                    Expr::Reg(r) => format!("st([{r}], {val}, {ann})"),
                },
                Instr::Rmw { dst, addr, ann, .. } => match addr {
                    Expr::Const(a) => format!("{dst} = rmw({}, {ann})", Loc(*a)),
                    Expr::Reg(r) => format!("{dst} = rmw([{r}], {ann})"),
                },
                Instr::Fence { ann } => format!("fence({ann})"),
            };
            out.push_str("  ");
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

fn run(args: &[String]) -> Result<u8, CliError> {
    let (positional, opts) = parse_options(args).map_err(CliError::Usage)?;
    let mut pos = positional.into_iter();
    let command = pos
        .next()
        .map(String::as_str)
        .ok_or_else(|| usage("no command given"))?;
    check_flags_apply(command, &opts).map_err(CliError::Usage)?;
    match command {
        "list" => {
            let family = pos.next().cloned();
            let mut count = 0;
            for t in suite::full_suite() {
                if family.as_deref().is_none_or(|f| t.family() == f) {
                    outln!("{}", t.name());
                    count += 1;
                }
            }
            eprintln!("({count} tests)");
            Ok(0)
        }
        "show" => {
            let name = pos.next().ok_or_else(|| usage("show needs a test name"))?;
            let test = find_test(name)?;
            outln!("{}", format_c11_program(&test));
            outln!("target outcome: {}", test.target());
            let c11 = C11Model::new();
            outln!(
                "C11 verdict: {}",
                match c11.judge(&test) {
                    C11Verdict::Permitted => "permitted",
                    C11Verdict::Forbidden => "forbidden",
                }
            );
            Ok(0)
        }
        "compile" => {
            let name = pos
                .next()
                .ok_or_else(|| usage("compile needs a test name"))?;
            let test = find_test(name)?;
            let mapping = riscv_mapping(opts.isa, opts.spec);
            let compiled = compile(&test, mapping).map_err(|e| e.to_string())?;
            outln!("mapping: {}", mapping.name());
            out!("{}", format_program(compiled.program(), Asm::RiscV));
            Ok(0)
        }
        "verify" => {
            let name = pos
                .next()
                .ok_or_else(|| usage("verify needs a test name"))?;
            let test = find_test(name)?;
            let mapping = riscv_mapping(opts.isa, opts.spec);
            let model = resolve_model(&opts)?;
            let stack = TriCheck::new(mapping, model);
            let result = stack.verify(&test).map_err(|e| e.to_string())?;
            outln!("{result}");
            Ok(0)
        }
        "diagnose" => {
            let name = pos
                .next()
                .ok_or_else(|| usage("diagnose needs a test name"))?;
            let test = find_test(name)?;
            let mapping = riscv_mapping(opts.isa, opts.spec);
            let model = resolve_model(&opts)?;
            let d = diagnose(mapping, &model, &test).map_err(|e| e.to_string())?;
            out!("{d}");
            Ok(0)
        }
        "dot" => {
            let name = pos.next().ok_or_else(|| usage("dot needs a test name"))?;
            let test = find_test(name)?;
            let mapping = riscv_mapping(opts.isa, opts.spec);
            let model = resolve_model(&opts)?;
            let d = diagnose(mapping, &model, &test).map_err(|e| e.to_string())?;
            match d.witness_dot {
                Some(dot) => {
                    out!("{dot}");
                    Ok(0)
                }
                None => Err(CliError::Failed(format!(
                    "target outcome of '{name}' is not observable on {} — no witness to draw",
                    opts.model
                ))),
            }
        }
        "file" => {
            let path = pos.next().ok_or_else(|| usage("file needs a path"))?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let test = tricheck::litmus::format::parse_litmus(&text).map_err(|e| e.to_string())?;
            outln!("{}", format_c11_program(&test));
            outln!("target outcome: {}", test.target());
            let mapping = riscv_mapping(opts.isa, opts.spec);
            let model = resolve_model(&opts)?;
            let d = diagnose(mapping, &model, &test).map_err(|e| e.to_string())?;
            out!("{d}");
            Ok(0)
        }
        "lint" => {
            let path = pos
                .next()
                .ok_or_else(|| usage("lint needs a model or stack file path"))?;
            let (origin, diags, rules) =
                tricheck::core::lint_path(std::path::Path::new(path)).map_err(|e| e.to_string())?;
            let errors = diags
                .iter()
                .filter(|d| d.severity == tricheck::rel::lint::Severity::Error)
                .count();
            let warnings = diags.len() - errors;
            if opts.json {
                outln!("{}", lint_json(&origin, rules, &diags));
            } else {
                for d in &diags {
                    eprintln!("{origin}:{d}");
                }
                if diags.is_empty() {
                    outln!("{origin}: clean ({rules} rules checked)");
                } else {
                    outln!(
                        "{origin}: {errors} error(s), {warnings} warning(s) \
                         ({rules} rules checked)"
                    );
                }
            }
            if errors > 0 {
                Ok(1)
            } else if opts.deny_warnings && warnings > 0 {
                Ok(2)
            } else {
                Ok(0)
            }
        }
        "sweep" => {
            // The matrix to sweep (Figure 15 unless --stack names another
            // entry or a stack file, or --model a model file), resolved
            // before anything else so `--list-models` can catalog a
            // loaded file too.
            if opts.stack.is_some() && opts.was_given("--model") {
                return Err(usage(
                    "--stack and --model cannot be combined: a stack file already \
                     names its model",
                ));
            }
            let mut registry = tricheck::core::StackRegistry::new();
            let (matrix, from_file) = if opts.was_given("--model") {
                let path = std::path::Path::new(&opts.model);
                if !path.is_file() {
                    return Err(usage(format!(
                        "sweep --model takes a path to a model file, and '{}' is not \
                         a file (built-in µarch model names apply to \
                         verify/diagnose/dot/file)",
                        opts.model
                    )));
                }
                let loaded = tricheck::core::load_model_file(path).map_err(|e| e.to_string())?;
                (registry.register(loaded), true)
            } else {
                let spec = opts.stack.as_deref().unwrap_or("riscv");
                let from_file = registry.get(spec).is_none();
                (registry.resolve(spec)?, from_file)
            };
            gate_lints(&matrix.origin, &matrix.lints, opts.allow_lint_errors)?;
            if opts.list_models {
                out!("{}", list_models(registry.entries()));
                return Ok(0);
            }
            let shards = opts.shards.unwrap_or(1);
            if from_file && shards > 1 {
                return Err(usage(
                    "--shards N>1 cannot be combined with --stack FILE or --model FILE: \
                     shard workers rebuild the built-in matrices by name",
                ));
            }
            let family = pos.next().cloned().unwrap_or_else(|| "wrc".to_string());
            let tests: Vec<LitmusTest> = suite::full_suite()
                .into_iter()
                .filter(|t| t.family() == family)
                .collect();
            if tests.is_empty() {
                return Err(CliError::Failed(format!("unknown family '{family}'")));
            }
            let cache_dir = opts
                .cache_dir
                .as_deref()
                .map(validate_cache_dir)
                .transpose()?;
            let sweep_opts = SweepOptions {
                outcome_mode: if opts.outcomes {
                    OutcomeMode::FullOutcomes
                } else {
                    OutcomeMode::Target
                },
                ..opts
                    .threads
                    .map_or_else(SweepOptions::default, SweepOptions::with_threads)
            };
            let dist_opts = DistOptions {
                shards,
                threads: opts.threads,
                outcome_mode: sweep_opts.outcome_mode,
                cache_dir,
                // Spawned workers run their shard under a metrics session
                // and ship the drained report back, so the merged metrics
                // carry a per-worker breakdown.
                collect_trace: wants_metrics(&opts),
                ..DistOptions::default()
            };
            let session = begin_sweep_trace(&opts);
            let dist = run_sharded(matrix, &tests, &dist_opts).map_err(|e| e.to_string())?;
            if opts.stack.is_some() {
                print_report(|| report::stack_table(&dist.results, &matrix.title));
            } else {
                print_report(|| report::family_chart(&dist.results, &family));
            }
            // A file is linted while it loads, before the session began.
            let lint_counters =
                from_file.then_some((matrix.rules_checked as u64, matrix.lints.len() as u64));
            let report = end_sweep_trace(
                session,
                &opts,
                sweep_opts.run_config(tests.len()),
                &dist,
                lint_counters,
            )?;
            if opts.cache_stats {
                print_engine_stats(&report);
            }
            Ok(0)
        }
        // The child half of the --shards protocol: job on stdin, result
        // on stdout. Spawned by the planner, not typed by users (hence
        // absent from the usage text).
        "shard-worker" => {
            tricheck::dist::shard_worker_stdio()?;
            Ok(0)
        }
        other => Err(usage(format!("unknown command '{other}'"))),
    }
}

/// Prints a `--model`/`--stack` file's lint findings to stderr and
/// refuses to sweep over error-level ones (statically-empty relations,
/// vacuous axioms — the sweep's verdicts would be judged against a model
/// that cannot behave as written) unless `--allow-lint-errors` is given.
fn gate_lints(
    origin: &str,
    lints: &[tricheck::rel::lint::Diagnostic],
    allow_errors: bool,
) -> Result<(), String> {
    for d in lints {
        eprintln!("{origin}:{d}");
    }
    let errors = lints
        .iter()
        .filter(|d| d.severity == tricheck::rel::lint::Severity::Error)
        .count();
    if errors > 0 && !allow_errors {
        return Err(format!(
            "{origin}: {errors} lint error(s) — rerun with --allow-lint-errors to \
             sweep anyway, or `tricheck lint {origin}` for the full report"
        ));
    }
    Ok(())
}

/// Renders the stable `tricheck-lint/v1` JSON report for `lint --json`:
/// schema tag, file, rule/finding counts, then one object per
/// diagnostic in report order. Pinned by `lint_json_schema_is_stable`
/// and schema-validated in CI.
fn lint_json(
    file: &str,
    rules_checked: usize,
    diags: &[tricheck::rel::lint::Diagnostic],
) -> String {
    use std::fmt::Write as _;
    let errors = diags
        .iter()
        .filter(|d| d.severity == tricheck::rel::lint::Severity::Error)
        .count();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"schema\":\"tricheck-lint/v1\",\"file\":{},\"rules_checked\":{rules_checked},\
         \"errors\":{errors},\"warnings\":{},\"diagnostics\":[",
        json_string(file),
        diags.len() - errors
    );
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"code\":{},\"severity\":{},\"line\":{},\"column\":{},\"message\":{}}}",
            json_string(d.code),
            json_string(d.severity.label()),
            d.line,
            d.col,
            json_string(&d.msg)
        );
    }
    out.push_str("]}");
    out
}

/// A JSON string literal: quotes, backslashes (model text contains `\`
/// for set difference) and control characters escaped.
fn json_string(s: &str) -> String {
    format!("\"{}\"", tricheck::trace::json_escape(s))
}

/// Whether the run needs metrics aggregation (not just progress).
fn wants_metrics(opts: &Options) -> bool {
    opts.metrics_json.is_some() || opts.trace_out.is_some()
}

/// The tracing session of one `sweep` invocation, driven by
/// `--metrics-json`, `--trace`, and `--progress`.
struct SweepTrace {
    /// Whether a collector session was started (and must be drained).
    traced: bool,
    /// Stop flag + join handle of the live progress renderer thread.
    progress: Option<(
        std::sync::Arc<std::sync::atomic::AtomicBool>,
        std::thread::JoinHandle<()>,
    )>,
}

fn begin_sweep_trace(opts: &Options) -> SweepTrace {
    let config = tricheck::trace::TraceConfig {
        metrics: wants_metrics(opts),
        events: opts.trace_out.is_some(),
        progress: opts.progress,
    };
    let traced = config.metrics || config.events || config.progress;
    if traced {
        tricheck::trace::start(config);
    }
    let progress = opts.progress.then(spawn_progress_renderer);
    SweepTrace { traced, progress }
}

/// Renders a `\r`-overwritten progress line to stderr at ~5 Hz until
/// stopped: cells done/total, current phase, elapsed, ETA. stdout — the
/// chart output scripts diff — is never touched.
fn spawn_progress_renderer() -> (
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<()>,
) {
    use std::sync::atomic::{AtomicBool, Ordering};
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let flag = std::sync::Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let mut drawn = false;
        while !flag.load(Ordering::Relaxed) {
            if let Some(p) = tricheck::trace::progress_snapshot() {
                let eta = p
                    .eta()
                    .map_or_else(|| "--".to_string(), |eta| format!("{eta:.0?}"));
                eprint!(
                    "\r[sweep] {}/{} cells  phase {}  elapsed {:.1?}  eta {eta}   ",
                    p.done, p.total, p.phase, p.elapsed
                );
                drawn = true;
            }
            std::thread::sleep(std::time::Duration::from_millis(200));
        }
        if drawn {
            eprintln!();
        }
    });
    (stop, handle)
}

/// Drains the session begun by [`begin_sweep_trace`]: folds in
/// per-worker shard reports, records the run's `config`, injects the
/// authoritative engine counters (and store counters under
/// `--cache-dir`), and writes the `--metrics-json` / `--trace` files.
/// The returned report is the single source for `--cache-stats`.
fn end_sweep_trace(
    session: SweepTrace,
    opts: &Options,
    config: tricheck::trace::RunConfig,
    dist: &tricheck::dist::DistResults,
    lint_counters: Option<(u64, u64)>,
) -> Result<tricheck::trace::TraceReport, String> {
    if let Some((stop, handle)) = session.progress {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = handle.join();
    }
    let (mut report, events) = if session.traced {
        let drained = tricheck::trace::finish();
        (drained.report, drained.events)
    } else {
        (tricheck::trace::TraceReport::default(), Vec::new())
    };
    // Workers first: absorbing sums the per-worker counters; the
    // engine's own summed totals then overwrite them with identical
    // values (the invariant `tests/metrics_report.rs` pins).
    dist.absorb_traces(&mut report);
    report.config = Some(config);
    let store = opts.cache_dir.is_some().then(|| dist.store_stats());
    tricheck::dist::set_sweep_counters(&mut report, dist.results.stats(), store.as_ref());
    if let Some((rules, diags)) = lint_counters {
        report.set_counter("lint_rules_checked", rules);
        report.set_counter("lint_diagnostics", diags);
    }
    if let Some(path) = &opts.metrics_json {
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("--metrics-json {path}: {e}"))?;
    }
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, tricheck::trace::chrome_trace_json(&events))
            .map_err(|e| format!("--trace {path}: {e}"))?;
    }
    Ok(report)
}

/// Renders every registered sweep stack (`sweep --list-models`): each
/// registry entry's cells (the built-ins under their titles, then any
/// stack or model file the command line loaded), each with its ISA
/// column, mapping, µarch model, and the model's IR axiom names — so
/// data-defined models added to any matrix (or loaded from a file) are
/// discoverable without reading source.
fn list_models(entries: &[tricheck::core::LoadedStack]) -> String {
    let mut out = String::new();
    let (builtins, loaded) = entries.split_at(tricheck::core::builtin_names().count());
    for entry in builtins {
        let title = format!("{} (built-in): {}", entry.name, entry.title);
        render_stack_section(&mut out, &title, &entry.stacks);
    }
    for entry in loaded {
        let title = format!("{} (loaded from {})", entry.name, entry.origin);
        render_stack_section(&mut out, &title, &entry.stacks);
    }
    out
}

/// One `== title ==` section of the `--list-models` catalog.
fn render_stack_section(out: &mut String, title: &str, stacks: &[tricheck::core::MatrixStack<'_>]) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "{:<8} {:<14} {:<24} {:<22} axioms",
        "ISA", "variant", "mapping", "model"
    );
    for stack in stacks {
        let axioms: Vec<&str> = stack.model.ir().axioms().iter().map(|a| a.name).collect();
        let _ = writeln!(
            out,
            "{:<8} {:<14} {:<24} {:<22} {}",
            stack.key.isa_label(),
            stack.key.variant_label(),
            stack.mapping.name(),
            stack.model.name(),
            axioms.join(", ")
        );
    }
}

/// Validates `--cache-dir`: an existing path must be a directory; a
/// missing one is created (with parents).
///
/// `DiskStore::open` performs the same checks, but in a multi-shard run
/// the store is opened inside the *worker* processes — pre-flighting
/// here turns a bad flag value into one clear error instead of N
/// spawned children all failing with a worker-protocol error.
fn validate_cache_dir(path: &str) -> Result<std::path::PathBuf, String> {
    let path = std::path::PathBuf::from(path);
    if path.exists() && !path.is_dir() {
        return Err(format!(
            "--cache-dir '{}' exists but is not a directory",
            path.display()
        ));
    }
    std::fs::create_dir_all(&path).map_err(|e| format!("--cache-dir '{}': {e}", path.display()))?;
    Ok(path)
}

/// Renders and prints a results table under the `report` phase, so
/// chart formatting shows up in the metrics instead of widening the
/// busy-vs-wall gap.
fn print_report(render: impl FnOnce() -> String) {
    let _t = tricheck::trace::span(tricheck::trace::Phase::Report);
    out!("{}", render());
}

/// Prints the `--cache-stats` block: every counter of the final
/// [`tricheck::trace::TraceReport`] as one `key: value` line, sorted by
/// name. Engine counters ([`tricheck::core::SweepStats`]), pruning
/// counters, persistent-store counters (`store_*`, when `--cache-dir`
/// is set), and trace-layer counters all share one flat namespace —
/// the same names the `--metrics-json` document uses.
fn print_engine_stats(report: &tricheck::trace::TraceReport) {
    outln!();
    outln!("cache stats:");
    for (name, value) in &report.counters {
        outln!("  {name}: {value}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_parse_with_defaults() {
        let args = strings(&["verify", "mp+rlx+rlx+rlx+rlx"]);
        let (pos, opts) = parse_options(&args).unwrap();
        assert_eq!(pos.len(), 2);
        assert_eq!(opts.isa, RiscvIsa::Base);
        assert_eq!(opts.spec, SpecVersion::Curr);
        assert_eq!(opts.model, "nMM");
    }

    #[test]
    fn options_parse_overrides() {
        let args = strings(&[
            "verify", "x", "--isa", "base+a", "--spec", "ours", "--model", "A9like",
        ]);
        let (_, opts) = parse_options(&args).unwrap();
        assert_eq!(opts.isa, RiscvIsa::BaseA);
        assert_eq!(opts.spec, SpecVersion::Ours);
        assert_eq!(opts.model, "A9like");
    }

    #[test]
    fn thread_and_cache_stat_flags_parse() {
        let args = strings(&["sweep", "mp", "--threads", "4", "--cache-stats"]);
        let (pos, opts) = parse_options(&args).unwrap();
        assert_eq!(pos.len(), 2);
        assert_eq!(opts.threads, Some(4));
        assert!(opts.cache_stats);
        assert!(!opts.outcomes);
        assert!(opts.stack.is_none());
        assert!(parse_options(&strings(&["sweep", "--threads", "0"])).is_err());
        assert!(parse_options(&strings(&["sweep", "--threads", "many"])).is_err());
        assert!(parse_options(&strings(&["sweep", "--threads"])).is_err());
    }

    #[test]
    fn outcome_and_stack_sweep_flags_parse() {
        let args = strings(&["sweep", "wrc", "--stack", "power", "--outcomes"]);
        let (pos, opts) = parse_options(&args).unwrap();
        assert_eq!(pos.len(), 2);
        assert!(opts.outcomes);
        assert_eq!(opts.stack.as_deref(), Some("power"));
        // The matrix flags --stack NAME replaced are gone.
        for flag in ["--power", "--x86"] {
            let err = parse_options(&strings(&["sweep", "wrc", flag])).unwrap_err();
            assert!(err.contains(&format!("unknown option '{flag}'")), "{err}");
        }
    }

    #[test]
    fn x86_sweep_runs_end_to_end() {
        // The CI smoke invocation, in-process: the sb family through the
        // built-in x86-TSO stack (the committed stack file).
        let args = strings(&[
            "sweep",
            "sb",
            "--stack",
            "x86-tso",
            "--threads",
            "2",
            "--cache-stats",
        ]);
        assert_eq!(run(&args), Ok(0));
    }

    #[test]
    fn unknown_stack_names_fail_listing_the_registered_names() {
        let err = run(&strings(&["sweep", "wrc", "--stack", "nosuch"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown stack 'nosuch'"), "{err}");
        assert!(err.contains("riscv, power, x86-tso"), "{err}");
    }

    #[test]
    fn list_models_names_every_matrix_and_axiom() {
        let listing = list_models(tricheck::core::StackRegistry::new().entries());
        for needle in [
            "riscv (built-in): Figure 15",
            "power (built-in): §7 compiler study",
            "x86-tso (built-in): x86 mapping study",
            "x86-TSO",
            "x86-sc-atomics",
            "x86-relaxed",
            "ARMv7-A9like",
            "riscv-base+a-refined",
            "ScPerLocation",
            "ScAmoOrder",
        ] {
            assert!(listing.contains(needle), "missing {needle}:\n{listing}");
        }
        // 28 RISC-V + 4 Power + 2 x86 stacks, plus 3 titles + 3 headers.
        assert_eq!(listing.lines().count(), 34 + 6);
        // And the flag path prints it without touching a sweep.
        assert_eq!(run(&strings(&["sweep", "--list-models"])), Ok(0));
    }

    #[test]
    fn power_sweep_runs_end_to_end() {
        // The CI smoke invocation, in-process: a small family through the
        // §7 engine sweep with explicit threads.
        let args = strings(&[
            "sweep",
            "sb",
            "--stack",
            "power",
            "--threads",
            "2",
            "--cache-stats",
        ]);
        assert_eq!(run(&args), Ok(0));
    }

    #[test]
    fn shard_and_cache_dir_flags_parse() {
        let args = strings(&["sweep", "mp", "--shards", "4", "--cache-dir", "/tmp/tc"]);
        let (pos, opts) = parse_options(&args).unwrap();
        assert_eq!(pos.len(), 2);
        assert_eq!(opts.shards, Some(4));
        assert_eq!(opts.cache_dir.as_deref(), Some("/tmp/tc"));
        assert!(parse_options(&strings(&["sweep", "--shards", "0"])).is_err());
        assert!(parse_options(&strings(&["sweep", "--shards", "lots"])).is_err());
        assert!(parse_options(&strings(&["sweep", "--shards"])).is_err());
        assert!(parse_options(&strings(&["sweep", "--cache-dir"])).is_err());
    }

    #[test]
    fn cache_dir_validation_rejects_non_directories() {
        let file = std::env::temp_dir().join(format!("tricheck-cli-test-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let err = validate_cache_dir(file.to_str().unwrap()).unwrap_err();
        assert!(err.contains("not a directory"), "{err}");
        std::fs::remove_file(&file).unwrap();

        // A missing directory is created.
        let dir = std::env::temp_dir().join(format!(
            "tricheck-cli-test-dir-{}/nested",
            std::process::id()
        ));
        let validated = validate_cache_dir(dir.to_str().unwrap()).unwrap();
        assert!(validated.is_dir());
        std::fs::remove_dir_all(dir.parent().unwrap()).unwrap();
    }

    #[test]
    fn single_shard_cached_sweep_runs_in_process_end_to_end() {
        // --shards 1 must bypass process spawning entirely: this test
        // binary has no `shard-worker` subcommand to spawn, so reaching
        // the chart at all proves the bypass. Run twice to exercise the
        // warm-store path through the CLI too.
        let dir = std::env::temp_dir().join(format!("tricheck-cli-sweep-{}", std::process::id()));
        let args = strings(&[
            "sweep",
            "sb",
            "--stack",
            "power",
            "--shards",
            "1",
            "--threads",
            "2",
            "--cache-dir",
            dir.to_str().unwrap(),
            "--cache-stats",
        ]);
        assert_eq!(run(&args), Ok(0));
        assert_eq!(run(&args), Ok(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_isa_is_rejected() {
        let args = strings(&["verify", "x", "--isa", "mips"]);
        assert!(parse_options(&args).is_err());
    }

    #[test]
    fn all_seven_models_resolve() {
        for spec in [SpecVersion::Curr, SpecVersion::Ours] {
            for m in ["WR", "rWR", "rWM", "rMM", "nWR", "nMM", "A9like"] {
                let model = model_by_name(m, spec).unwrap();
                assert_eq!(model.name(), format!("{m}/{spec}"));
            }
        }
        let alias = model_by_name("a9", SpecVersion::Ours).unwrap();
        assert_eq!(alias.name(), "A9like/riscv-ours");
        assert_eq!(
            model_by_name("nmm", SpecVersion::Curr).unwrap().name(),
            "nMM/riscv-curr"
        );
        assert!(model_by_name("tso", SpecVersion::Curr).is_err());
    }

    #[test]
    fn command_line_errors_get_the_usage_text() {
        for args in [
            vec!["frobnicate"],
            vec![],
            vec!["sweep", "--frobnicate"],
            vec!["verify"],
            vec!["verify", "x", "--threads", "2"],
            vec!["verify", "mp+rlx+rlx+rlx+rlx", "--model", "tso"],
            vec!["sweep", "sb", "--model", "nMM"],
        ] {
            let err = run(&strings(&args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err:?}");
        }
    }

    #[test]
    fn failures_after_parsing_do_not_get_the_usage_text() {
        // A model file that does not parse is the file's error, reported
        // with its position, not a usage error.
        let bad = temp_file("parse-error.cat", "model m\n  A: acyclic((po ∪ ))\n");
        let path = bad.to_str().unwrap();
        for args in [
            vec!["verify", "mp+rlx+rlx+rlx+rlx", "--model", path],
            vec!["sweep", "sb", "--model", path],
            vec!["lint", path],
        ] {
            let err = run(&strings(&args)).unwrap_err();
            assert!(matches!(err, CliError::Failed(_)), "{args:?}: {err:?}");
            assert!(err.to_string().contains(":2: column"), "{err}");
        }
        std::fs::remove_file(&bad).unwrap();
        let err = run(&strings(&["verify", "nonexistent"])).unwrap_err();
        assert!(matches!(err, CliError::Failed(_)), "{err:?}");
    }

    #[test]
    fn named_figure_tests_are_findable() {
        assert!(find_test("wrc+rlx+rlx+rel+acq+rlx").is_ok());
        assert!(find_test("mp_dep+rel+rel+rlx+acq").is_ok());
        assert!(find_test("nonexistent").is_err());
    }

    #[test]
    fn run_rejects_unknown_commands() {
        assert!(run(&strings(&["frobnicate"])).is_err());
        assert!(run(&[]).is_err());
    }

    /// The committed whole-stack definition file, and its bare-model twin.
    const STACK_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/x86-tso.stack");
    const MODEL_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../models/x86-tso.cat");

    #[test]
    fn unknown_flags_are_rejected_with_the_flag_name() {
        let err = parse_options(&strings(&["sweep", "--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown option '--frobnicate'"), "{err}");
        // A near-miss typo earns a nearest-match hint.
        let err = parse_options(&strings(&["sweep", "--modle", "nMM"])).unwrap_err();
        assert!(err.contains("did you mean '--model'?"), "{err}");
        let err = parse_options(&strings(&["sweep", "--cache-sats"])).unwrap_err();
        assert!(err.contains("did you mean '--cache-stats'?"), "{err}");
    }

    #[test]
    fn inapplicable_flags_are_rejected_per_subcommand() {
        for (args, flag) in [
            (vec!["list", "--threads", "2"], "--threads"),
            (vec!["show", "x", "--isa", "base"], "--isa"),
            (vec!["compile", "x", "--model", "nMM"], "--model"),
            (vec!["verify", "x", "--shards", "2"], "--shards"),
            (vec!["dot", "x", "--list-models"], "--list-models"),
            (vec!["file", "x", "--cache-dir", "/tmp/x"], "--cache-dir"),
            (vec!["verify", "x", "--stack", STACK_FILE], "--stack"),
        ] {
            let err = run(&strings(&args)).unwrap_err().to_string();
            assert!(
                err.contains(&format!("'{flag}' does not apply")),
                "{args:?}: {err}"
            );
        }
        // The flags still work where they do apply.
        assert!(run(&strings(&["compile", "sb+sc+sc+sc+sc", "--isa", "base+a"])).is_ok());
    }

    #[test]
    fn sweep_stack_file_runs_end_to_end() {
        let args = strings(&["sweep", "sb", "--stack", STACK_FILE, "--threads", "2"]);
        assert_eq!(run(&args), Ok(0));
        // And the loaded stack shows up in the catalog path.
        let args = strings(&["sweep", "--list-models", "--stack", STACK_FILE]);
        assert_eq!(run(&args), Ok(0));
    }

    #[test]
    fn sweep_model_file_runs_end_to_end() {
        let args = strings(&["sweep", "sb", "--model", MODEL_FILE, "--threads", "2"]);
        assert_eq!(run(&args), Ok(0));
    }

    #[test]
    fn single_test_commands_accept_a_model_file() {
        let args = strings(&["verify", "mp+rlx+rlx+rlx+rlx", "--model", MODEL_FILE]);
        assert_eq!(run(&args), Ok(0));
        // A value that is neither a built-in name nor a file still errors.
        let err = run(&strings(&[
            "verify",
            "mp+rlx+rlx+rlx+rlx",
            "--model",
            "tso",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("unknown model 'tso'"), "{err}");
    }

    #[test]
    fn sweep_rejects_bad_stack_and_model_combinations() {
        let e = run(&strings(&[
            "sweep", "sb", "--stack", STACK_FILE, "--model", MODEL_FILE,
        ]))
        .unwrap_err()
        .to_string();
        assert!(e.contains("cannot be combined"), "{e}");
        // Workers rebuild built-in matrices by name: a file takes one
        // shard only.
        for matrix in [["--stack", STACK_FILE], ["--model", MODEL_FILE]] {
            let e = run(&strings(&[
                "sweep", "sb", matrix[0], matrix[1], "--shards", "2",
            ]))
            .unwrap_err();
            assert!(matches!(e, CliError::Usage(_)), "{e:?}");
            assert!(e.to_string().contains("--shards N>1"), "{e}");
        }
        // One shard and a store take a file like a built-in.
        let dir = std::env::temp_dir().join(format!("tricheck-cli-model-{}", std::process::id()));
        let args = strings(&[
            "sweep",
            "sb",
            "--model",
            MODEL_FILE,
            "--shards",
            "1",
            "--cache-dir",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(run(&args), Ok(0));
        std::fs::remove_dir_all(&dir).unwrap();
        // sweep --model only takes the file form.
        let e = run(&strings(&["sweep", "sb", "--model", "nMM"]))
            .unwrap_err()
            .to_string();
        assert!(e.contains("is not a file"), "{e}");
    }

    #[test]
    fn stack_file_errors_carry_origin_and_line() {
        let dir = std::env::temp_dir().join(format!("tricheck-cli-stack-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.stack");
        std::fs::write(
            &bad,
            "stack broken\nisa x86\nmapping m\nld rlx = frobnicate\nmodel broken\n  A: acyclic(po)\n",
        )
        .unwrap();
        let err = run(&strings(&["sweep", "sb", "--stack", bad.to_str().unwrap()]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("bad.stack:4"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes `content` to a uniquely-named temp file and returns its
    /// path (the caller removes it).
    fn temp_file(tag: &str, content: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "tricheck-cli-{tag}-{}-{}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "-")
        ));
        std::fs::write(&path, content).unwrap();
        path
    }

    /// A stack file whose model contains a statically-empty relation
    /// (`rf ∩ co` can relate nothing: rf ends at reads, co at writes) —
    /// the lint pass reports it as an E001 error.
    const LINT_BAD_STACK: &str = "stack lint-bad
isa x86
mapping m
  ld rlx|acq|sc = ld
  st rlx|rel|sc = st
model lint-bad
  bad := (rf ∩ co)
  Causality: acyclic((po ∪ bad))
";

    #[test]
    fn lint_flags_parse_and_apply_per_subcommand() {
        let args = strings(&["lint", "f", "--json", "--deny-warnings"]);
        let (pos, opts) = parse_options(&args).unwrap();
        assert_eq!(pos.len(), 2);
        assert!(opts.json);
        assert!(opts.deny_warnings);
        assert!(!opts.allow_lint_errors);
        let (_, opts) = parse_options(&strings(&["sweep", "--allow-lint-errors"])).unwrap();
        assert!(opts.allow_lint_errors);
        // Lint-only flags do not leak into sweep, nor sweep flags into lint.
        for (args, flag) in [
            (vec!["sweep", "sb", "--json"], "--json"),
            (vec!["sweep", "sb", "--deny-warnings"], "--deny-warnings"),
            (
                vec!["lint", "f", "--allow-lint-errors"],
                "--allow-lint-errors",
            ),
            (vec!["lint", "f", "--threads", "2"], "--threads"),
            (vec!["verify", "x", "--json"], "--json"),
        ] {
            let err = run(&strings(&args)).unwrap_err().to_string();
            assert!(
                err.contains(&format!("'{flag}' does not apply")),
                "{args:?}: {err}"
            );
        }
    }

    #[test]
    fn lint_is_clean_on_the_committed_files() {
        // The committed stack and model files must stay clean even under
        // --deny-warnings (the CI smoke invocation, in-process).
        assert_eq!(
            run(&strings(&["lint", STACK_FILE, "--deny-warnings"])),
            Ok(0)
        );
        assert_eq!(
            run(&strings(&["lint", MODEL_FILE, "--deny-warnings"])),
            Ok(0)
        );
        assert_eq!(run(&strings(&["lint", STACK_FILE, "--json"])), Ok(0));
    }

    #[test]
    fn lint_exit_codes_separate_errors_from_warnings() {
        let bad = temp_file("lint-e001.stack", LINT_BAD_STACK);
        let path = bad.to_str().unwrap();
        // Error-level findings exit 1, with or without --deny-warnings.
        assert_eq!(run(&strings(&["lint", path])), Ok(1));
        assert_eq!(run(&strings(&["lint", path, "--deny-warnings"])), Ok(1));
        assert_eq!(run(&strings(&["lint", path, "--json"])), Ok(1));
        std::fs::remove_file(&bad).unwrap();

        // A warning-only model (dead definition) exits 0, or 2 under
        // --deny-warnings.
        let warn = temp_file(
            "lint-w001.cat",
            "model warny\n  dead := rfe\n  Causality: acyclic((po \u{222a} rf))\n",
        );
        let path = warn.to_str().unwrap();
        assert_eq!(run(&strings(&["lint", path])), Ok(0));
        assert_eq!(run(&strings(&["lint", path, "--deny-warnings"])), Ok(2));
        std::fs::remove_file(&warn).unwrap();

        // A missing file is an operational error, not a lint verdict.
        assert!(run(&strings(&["lint", "/nonexistent.cat"])).is_err());
    }

    #[test]
    fn sweep_refuses_lint_errors_unless_allowed() {
        let bad = temp_file("sweep-gate.stack", LINT_BAD_STACK);
        let path = bad.to_str().unwrap();
        let err = run(&strings(&["sweep", "sb", "--stack", path]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("lint error"), "{err}");
        assert!(err.contains("--allow-lint-errors"), "{err}");
        // The override sweeps the (vacuous but well-formed) model anyway.
        let args = strings(&[
            "sweep",
            "sb",
            "--stack",
            path,
            "--threads",
            "2",
            "--allow-lint-errors",
        ]);
        assert_eq!(run(&args), Ok(0));
        std::fs::remove_file(&bad).unwrap();
    }

    #[test]
    fn sweep_metrics_carry_the_lint_counters() {
        let json = std::env::temp_dir().join(format!(
            "tricheck-cli-lint-metrics-{}.json",
            std::process::id()
        ));
        let args = strings(&[
            "sweep",
            "sb",
            "--stack",
            STACK_FILE,
            "--threads",
            "2",
            "--metrics-json",
            json.to_str().unwrap(),
        ]);
        assert_eq!(run(&args), Ok(0));
        let doc = std::fs::read_to_string(&json).unwrap();
        assert!(doc.contains("\"lint_rules_checked\""), "{doc}");
        assert!(doc.contains("\"lint_diagnostics\""), "{doc}");
        std::fs::remove_file(&json).unwrap();
    }

    #[test]
    fn lint_json_schema_is_stable() {
        use tricheck::rel::lint::Diagnostic;
        assert_eq!(
            lint_json("m.cat", 6, &[]),
            "{\"schema\":\"tricheck-lint/v1\",\"file\":\"m.cat\",\"rules_checked\":6,\
             \"errors\":0,\"warnings\":0,\"diagnostics\":[]}"
        );
        let diags = [
            Diagnostic::error(
                "E001",
                (3, 10),
                "relation '(rf \u{2229} co)' is empty".to_string(),
            ),
            Diagnostic::warning(
                "W001",
                (2, 3),
                "definition 'x \\ y' is never used".to_string(),
            ),
        ];
        assert_eq!(
            lint_json("a\"b.cat", 6, &diags),
            "{\"schema\":\"tricheck-lint/v1\",\"file\":\"a\\\"b.cat\",\"rules_checked\":6,\
             \"errors\":1,\"warnings\":1,\"diagnostics\":[\
             {\"code\":\"E001\",\"severity\":\"error\",\"line\":3,\"column\":10,\
             \"message\":\"relation '(rf \u{2229} co)' is empty\"},\
             {\"code\":\"W001\",\"severity\":\"warning\",\"line\":2,\"column\":3,\
             \"message\":\"definition 'x \\\\ y' is never used\"}]}"
        );
    }

    #[test]
    fn json_strings_escape_quotes_backslashes_and_controls() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_string("po \u{222a} rf"), "\"po \u{222a} rf\"");
    }
}
