//! Golden-schema and determinism tests for the structured metrics
//! report (`sweep --metrics-json`, `tricheck-metrics/v1`).
//!
//! The JSON document is an interface: external dashboards parse it by
//! field name, so the names and types pinned here may only change with
//! a schema version bump. The trace collector is process-global, so
//! every test that opens a session serializes on [`session_lock`].

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, OnceLock};

use tricheck::compiler::{compile, riscv_mapping};
use tricheck::core::{
    diagnose, riscv_stacks, Classification, MatrixStack, Sweep, SweepOptions, TriCheck,
};
use tricheck::isa::{RiscvIsa, SpecVersion};
use tricheck::litmus::{extra, suite, LitmusTest, MemOrder};
use tricheck::trace::{self, json, TraceConfig, TraceReport};
use tricheck::uarch::UarchModel;

fn session_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn family(name: &str) -> Vec<LitmusTest> {
    suite::full_suite()
        .into_iter()
        .filter(|t| t.family() == name)
        .collect()
}

/// One deterministic serial sweep under a metrics session, with the
/// run's config and the engine counters injected exactly as the CLI
/// injects them.
fn traced_serial_sweep(tests: &[LitmusTest]) -> TraceReport {
    let options = SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    };
    let config = options.run_config(tests.len());
    trace::start(TraceConfig::metrics());
    let results = Sweep::with_options(options).run_matrix(tests, &riscv_stacks());
    let mut report = trace::finish().report;
    report.config = Some(config);
    for (name, value) in results.stats().as_counters() {
        report.set_counter(name, value);
    }
    report
}

/// The distinct (program, target) pairs a sweep of `tests` over
/// `stacks` judges, found by compiling every (test, mapping) pair.
fn distinct_judgements(tests: &[LitmusTest], stacks: &[MatrixStack<'_>]) -> usize {
    let mut pairs = HashSet::new();
    for test in tests {
        for stack in stacks {
            if let Ok(compiled) = compile(test, stack.mapping) {
                pairs.insert((compiled.program().clone(), compiled.target().clone()));
            }
        }
    }
    pairs.len()
}

fn as_u64(v: &json::Value, what: &str) -> u64 {
    v.as_u64().unwrap_or_else(|| panic!("{what} must be a u64"))
}

/// The golden schema: every field name and type of the v1 document,
/// exactly as `to_json` emits it.
#[test]
fn metrics_json_schema_is_pinned() {
    let _guard = session_lock();
    let tests = family("sb");
    let report = traced_serial_sweep(&tests);
    let doc = report.to_json();
    let parsed = json::parse(&doc).expect("metrics document must be valid JSON");
    let top = parsed.as_object().expect("top level must be an object");

    // Top-level keys, exhaustively: nothing extra, nothing missing.
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        ["busy_ns", "config", "counters", "phases", "schema", "stacks", "wall_ns", "workers"],
        "top-level key set changed — bump the schema version"
    );
    // config{}: the run's threads, host parallelism, mode and size.
    let config = parsed
        .get("config")
        .and_then(json::Value::as_object)
        .expect("config must be an object");
    let config_keys: Vec<&str> = config.keys().map(String::as_str).collect();
    assert_eq!(
        config_keys,
        ["nproc", "outcome_mode", "suite_size", "threads"]
    );
    assert_eq!(as_u64(&config["threads"], "threads"), 1);
    assert!(as_u64(&config["nproc"], "nproc") >= 1);
    assert_eq!(config["outcome_mode"].as_str(), Some("Target"));
    assert_eq!(
        as_u64(&config["suite_size"], "suite_size"),
        tests.len() as u64
    );
    assert_eq!(
        parsed.get("schema").and_then(json::Value::as_str),
        Some("tricheck-metrics/v1")
    );
    let wall = as_u64(parsed.get("wall_ns").expect("wall_ns"), "wall_ns");
    let busy = as_u64(parsed.get("busy_ns").expect("busy_ns"), "busy_ns");
    assert!(wall > 0, "serial sweep must report a wall clock");

    // phases[]: name + the five numeric fields, each a u64.
    let phases = parsed
        .get("phases")
        .and_then(json::Value::as_array)
        .expect("phases must be an array");
    assert!(!phases.is_empty(), "a sweep must record phases");
    for phase in phases {
        let name = phase
            .get("name")
            .and_then(json::Value::as_str)
            .expect("phase.name must be a string");
        for field in ["total_ns", "count", "p50_ns", "p95_ns", "max_ns"] {
            let v = phase
                .get(field)
                .unwrap_or_else(|| panic!("phase {name} missing {field}"));
            as_u64(v, field);
        }
    }
    let phase_names: Vec<&str> = phases
        .iter()
        .filter_map(|p| p.get("name").and_then(json::Value::as_str))
        .collect();
    for required in ["cell", "c11_eval", "space_enum", "candidate_check"] {
        assert!(
            phase_names.contains(&required),
            "sweep must record the {required} phase, got {phase_names:?}"
        );
    }

    // Phase self-times partition the run: on a serial (threads = 1)
    // sweep their sum (busy_ns) accounts for the wall clock, minus
    // only the untraced scraps (pool setup, result aggregation).
    let total: u64 = phases
        .iter()
        .map(|p| as_u64(p.get("total_ns").expect("total_ns"), "total_ns"))
        .sum();
    assert_eq!(total, busy, "busy_ns must be the sum of phase totals");
    assert!(
        busy <= wall + wall / 20,
        "serial busy time cannot exceed wall: busy={busy} wall={wall}"
    );
    assert!(
        busy >= wall / 2,
        "traced phases must account for the bulk of a serial sweep: busy={busy} wall={wall}"
    );

    // counters{}: flat name → u64 map, superset of the engine stats.
    let counters = parsed
        .get("counters")
        .and_then(json::Value::as_object)
        .expect("counters must be an object");
    for (name, value) in counters {
        as_u64(value, name);
    }
    for required in [
        "tests",
        "cells",
        "c11_evaluations",
        "space_enumerations",
        "compiled_kernels",
        "candidates_enumerated",
    ] {
        assert!(
            counters.contains_key(required),
            "missing counter {required}"
        );
    }

    // stacks[]: one judgement-latency row per compiler mapping (each
    // `cell` span judges a compiled test under all of the mapping's
    // models at once), labelled with the mapping's name.
    let stacks = parsed
        .get("stacks")
        .and_then(json::Value::as_array)
        .expect("stacks must be an array");
    let labels: Vec<&str> = stacks
        .iter()
        .map(|stack| {
            for field in ["total_ns", "count", "p50_ns", "p95_ns", "max_ns"] {
                as_u64(stack.get(field).expect(field), field);
            }
            stack
                .get("label")
                .and_then(json::Value::as_str)
                .expect("stack.label must be a string")
        })
        .collect();
    assert_eq!(
        labels,
        [
            "riscv-base-intuitive",
            "riscv-base-refined",
            "riscv-base+a-intuitive",
            "riscv-base+a-refined"
        ],
        "the Figure 15 matrix judges through its 4 mappings"
    );

    // workers[]: empty on an unsharded run, but present and an array.
    let workers = parsed
        .get("workers")
        .and_then(json::Value::as_array)
        .expect("workers must be an array");
    assert!(workers.is_empty(), "unsharded run has no worker reports");
}

/// The report's counters agree with the engine's own `SweepStats` — the
/// two views can never drift apart.
#[test]
fn metrics_counters_match_sweep_stats() {
    let _guard = session_lock();
    let tests = family("sb");
    trace::start(TraceConfig::metrics());
    let results = Sweep::with_options(SweepOptions {
        threads: 1,
        ..SweepOptions::default()
    })
    .run_matrix(&tests, &riscv_stacks());
    let report = trace::finish().report;
    let stats = results.stats();

    // The trace layer counts enumerated candidates on its own; the
    // engine tracks distinct programs. Every distinct program is
    // enumerated exactly once (the exactly-once contract), so the
    // independently-maintained counters must corroborate each other.
    assert!(
        report.counter("candidates_enumerated").is_some(),
        "enumeration must bump the trace counter"
    );
    let enum_spans = report.phase("space_enum").expect("space_enum phase");
    assert_eq!(
        enum_spans.count, stats.space_enumerations as u64,
        "one space_enum span per engine enumeration"
    );
    let c11 = report.phase("c11_eval").expect("c11_eval phase");
    assert_eq!(
        c11.count, stats.c11_evaluations as u64,
        "one c11_eval span per engine evaluation"
    );
    // Every distinct (program, target) pair is judged once, under the
    // models of every mapping that emits it, in one stream: one cell
    // span each and at most one prelude each, plus at most one per C11
    // verdict. Mappings that emit one program share its judgement, so
    // there are fewer judgements than compilations.
    let judgements = distinct_judgements(&tests, &riscv_stacks());
    let cell = report.phase("cell").expect("cell phase");
    assert_eq!(
        cell.count, judgements as u64,
        "one cell span per distinct (program, target) judgement"
    );
    assert!(judgements < stats.compile_calls);
    let preludes = report.phase("prelude_eval").expect("prelude_eval phase");
    assert!(
        preludes.count <= (judgements + stats.c11_evaluations) as u64,
        "{} preludes for {} judgements and {} C11 verdicts",
        preludes.count,
        judgements,
        stats.c11_evaluations
    );
}

/// Two identical serial runs produce identical counter sets and span
/// counts — only durations may differ. This is what makes the report
/// diffable across commits.
#[test]
fn serial_metrics_are_deterministic() {
    let _guard = session_lock();
    let tests = family("mp");
    let a = traced_serial_sweep(&tests);
    let b = traced_serial_sweep(&tests);

    assert_eq!(
        a.counters, b.counters,
        "counter names and values must match"
    );
    let a_phases: Vec<(&str, u64)> = a
        .phases
        .iter()
        .map(|p| (p.name.as_str(), p.count))
        .collect();
    let b_phases: Vec<(&str, u64)> = b
        .phases
        .iter()
        .map(|p| (p.name.as_str(), p.count))
        .collect();
    assert_eq!(a_phases, b_phases, "phase names and span counts must match");
    let a_stacks: Vec<(&str, u64)> = a
        .stacks
        .iter()
        .map(|s| (s.label.as_str(), s.count))
        .collect();
    let b_stacks: Vec<(&str, u64)> = b
        .stacks
        .iter()
        .map(|s| (s.label.as_str(), s.count))
        .collect();
    assert_eq!(
        a_stacks, b_stacks,
        "stack labels and cell counts must match"
    );
}

/// Every judging loop evaluates the kernel's space-invariant prelude
/// once per stream of candidates, not once per candidate. `verify`
/// judges two one-shot streams (the C11 verdict and the µarch witness
/// search) and `diagnose` two more, so two tests make eight streams.
/// Figure 3's WRC has one target-matching candidate per stream; the
/// all-SC R shape leaves the coherence order on `y` open, so its C11
/// streams check two candidates before finding none consistent.
#[test]
fn one_prelude_per_judged_stream() {
    let _guard = session_lock();
    let mapping = riscv_mapping(RiscvIsa::Base, SpecVersion::Curr);
    let model = UarchModel::nmm(SpecVersion::Curr);
    trace::start(TraceConfig::metrics());
    for test in [suite::fig3_wrc(), extra::r_shape([MemOrder::Sc; 4])] {
        let verdict = TriCheck::new(mapping, model.clone())
            .verify(&test)
            .expect("compiles");
        let diagnosis = diagnose(mapping, &model, &test).expect("compiles");
        assert_eq!(diagnosis.classification, verdict.classification());
        assert_eq!(verdict.classification(), Classification::Bug);
    }
    let report = trace::finish().report;
    let count = |phase: &str| report.phase(phase).map_or(0, |p| p.count);
    assert_eq!(count("prelude_eval"), 8, "one prelude per judged stream");
    assert!(
        count("candidate_check") > count("prelude_eval"),
        "streams check more candidates ({}) than they evaluate preludes",
        count("candidate_check")
    );
}
