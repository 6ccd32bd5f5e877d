//! The stack registry: every sweep matrix — built-in or loaded from a
//! definition file — is a [`LoadedStack`] looked up by name.
//!
//! The built-ins ([`builtin_names`]) are each a committed
//! stack file: `riscv` (Figure 15: the four Table 2/3 mappings × the
//! seven Table 7 µarchs of their spec version) is `models/riscv.stack`,
//! `power` (the §7 compiler study: leading-/trailing-sync × the ARMv7
//! models) is `models/power.stack`, and `x86-tso` (the x86 mapping
//! study) is `models/x86-tso.stack`. `tricheck-compiler` compiles the
//! three files in and parses their headers once per process
//! ([`tricheck_compiler::builtin_headers`]); this module assembles each
//! once, by the same code as [`parse_stack_file`], and
//! [`builtin_stack`] hands out copies with fresh model instances.
//!
//! A *stack file* packages everything `Sweep::run_matrix` needs for a
//! matrix column that never appears in Rust source:
//!
//! ```text
//! # The x86-TSO study, as data.
//! stack x86-tso
//! isa x86
//! title x86 mapping study: C11 → x86 mappings on TSO
//!
//! mapping sc-atomics
//!   name x86-sc-atomics
//!   ld rlx|acq|sc = ld
//!   st rlx|rel = st
//!   st sc = st; mfence
//!
//! mapping relaxed
//!   ld rlx|acq|sc = ld
//!   st rlx|rel|sc = st
//!
//! model x86-TSO
//!   ppo := [M]po[M] \ (W × R)
//!   ...
//!   Causality: acyclic(hb)
//! ```
//!
//! A stack file has a header — `stack`, `title` and `isa` directives
//! and `mapping` sections of [`TableMapping`](tricheck_compiler::TableMapping)
//! rows, each with an optional `name` line (its report name) and an
//! optional `models` line naming the built-in models
//! ([`UarchModel::builtin`]) that judge it — parsed by
//! [`tricheck_compiler::parse_stack_header`]; `models/README.md` gives
//! the grammar. A mapping with no `models` line is judged by the
//! file's model section: everything from the `model` line onward, in
//! the `ModelIr` display grammar, parsed by
//! [`tricheck_rel::parse::parse_model`] against the hardware vocabulary
//! ([`tricheck_uarch::hw_vocabulary`]).
//!
//! `#` and `//` start comments. A bare model file (starting directly at
//! its `model` line, conventionally `.cat`) is a matrix too:
//! [`load_model_file`] pairs its model with the four mapping sections
//! of `models/riscv.stack`, the `sweep --model FILE` matrix. Every
//! matrix, built-in or loaded, sweeps down the same path.

use std::fmt;
use std::fs;
use std::path::Path;
use std::sync::LazyLock;

use tricheck_compiler::{
    builtin_headers, order_word, parse_stack_header, reachable_orders, MapOp, MappingSection,
    StackHeader,
};
use tricheck_rel::lint::{lint_model, Diagnostic, MODEL_RULES, RULES};
use tricheck_rel::parse::{parse_model_spanned, ParseError};
use tricheck_uarch::{hw_lint_schema, hw_vocabulary, UarchModel};

use crate::runner::{MatrixStack, StackKey};

pub use tricheck_compiler::StackFileError;

/// Re-anchors a model-text [`ParseError`] at its position within the
/// surrounding file, whose `first_line` is the model text's line 1.
fn parse_error(origin: &str, first_line: usize, e: &ParseError) -> StackFileError {
    StackFileError::new(
        origin,
        first_line + e.line - 1,
        format!("column {}: {}", e.col, e.msg),
    )
}

/// One registered sweep matrix, ready for `Sweep::run_matrix`: a
/// built-in ([`builtin_stack`]), a stack definition file, or a bare
/// model file ([`load_model_file`]). A loaded stack file's header,
/// mapping tables included, is leaked once per load to
/// satisfy the `&'static dyn Mapping` the matrix requires — stacks are
/// loaded a handful of times per process, so the leakage is bounded
/// like the name interner's. The built-ins' tables are the compiler
/// crate's statics.
#[derive(Clone)]
pub struct LoadedStack {
    /// The stack's lookup name (the `stack` directive).
    pub name: String,
    /// The report table title (the `title` directive, or a default).
    pub title: String,
    /// Where the stack was loaded from (for catalogs and errors): the
    /// file path, or for a built-in the committed file it was compiled
    /// from (`models/riscv.stack`, …).
    pub origin: String,
    /// The matrix columns, in presentation order: each `mapping`
    /// section once per model that judges it, keyed by its `isa` label
    /// and section label.
    pub stacks: Vec<MatrixStack<'static>>,
    /// Lint findings over the model text and mapping tables, with
    /// lines re-anchored to file coordinates. Loading succeeds even
    /// with error-level findings; callers decide whether to gate.
    pub lints: Vec<Diagnostic>,
    /// How many lint rules were evaluated while loading (for the
    /// `lint_rules_checked` metrics counter).
    pub rules_checked: usize,
}

impl fmt::Debug for LoadedStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LoadedStack")
            .field("name", &self.name)
            .field("origin", &self.origin)
            .field("mappings", &self.stacks.len())
            .finish_non_exhaustive()
    }
}

/// The built-in stack files, each assembled once per process. Their
/// models are never compiled: a clone gets its own kernel on first use.
static BUILTINS: LazyLock<Vec<LoadedStack>> = LazyLock::new(|| {
    builtin_headers()
        .iter()
        .map(|header| {
            assemble(header).unwrap_or_else(|e| panic!("a committed stack file loads: {e}"))
        })
        .collect()
});

/// The built-in matrices' names, in catalog order: the `stack` names
/// of the stack files `tricheck-compiler` compiles in.
pub fn builtin_names() -> impl Iterator<Item = &'static str> {
    BUILTINS.iter().map(|entry| entry.name.as_str())
}

/// The built-in matrix registered under `name` (one of
/// [`builtin_names`]), or `None` for any other name. Each call hands
/// out fresh model instances; the mappings are the compiler crate's
/// statics, so every column of one mapping section shares one mapping
/// pointer and the sweep compiles each (test, mapping) pair once.
#[must_use]
pub fn builtin_stack(name: &str) -> Option<LoadedStack> {
    BUILTINS.iter().find(|entry| entry.name == name).cloned()
}

/// The 28 Figure 15 stacks in presentation order — the `riscv`
/// built-in's columns.
#[must_use]
pub fn riscv_stacks() -> Vec<MatrixStack<'static>> {
    builtin_stack("riscv").expect("riscv is built in").stacks
}

/// The sweep matrices of one invocation: the built-ins, plus any stack
/// files resolved through it, all looked up the same way.
pub struct StackRegistry {
    entries: Vec<LoadedStack>,
}

impl Default for StackRegistry {
    fn default() -> Self {
        StackRegistry {
            entries: BUILTINS.clone(),
        }
    }
}

impl StackRegistry {
    /// A registry holding the built-in matrices.
    #[must_use]
    pub fn new() -> Self {
        StackRegistry::default()
    }

    /// The entry registered under `name` (the first, if a loaded file
    /// reuses a built-in's name).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&LoadedStack> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Registers a loaded matrix after the entries already held.
    pub fn register(&mut self, loaded: LoadedStack) -> &LoadedStack {
        self.entries.push(loaded);
        self.entries.last().expect("just pushed")
    }

    /// Resolves `sweep --stack NAME|FILE`: a registered name, else a
    /// stack file path, which is loaded and registered.
    ///
    /// # Errors
    ///
    /// The file's [`StackFileError`] message (`file:line: …`) when
    /// `spec` names a file that does not load; for a `spec` that is
    /// neither a registered name nor a file, a message listing the
    /// registered names.
    pub fn resolve(&mut self, spec: &str) -> Result<&LoadedStack, String> {
        if let Some(i) = self.entries.iter().position(|e| e.name == spec) {
            return Ok(&self.entries[i]);
        }
        let path = Path::new(spec);
        if !path.is_file() {
            let names: Vec<&str> = self.entries.iter().map(|e| e.name.as_str()).collect();
            return Err(format!(
                "unknown stack '{spec}': not a registered stack ({}) nor a stack file",
                names.join(", ")
            ));
        }
        let loaded = load_stack_file(path).map_err(|e| e.to_string())?;
        Ok(self.register(loaded))
    }

    /// Every registered entry: the built-ins, then loaded files in load
    /// order.
    #[must_use]
    pub fn entries(&self) -> &[LoadedStack] {
        &self.entries
    }
}

/// Loads and parses one stack definition file.
///
/// # Errors
///
/// A [`StackFileError`] naming the file and line on parse or I/O
/// failure.
pub fn load_stack_file(path: &Path) -> Result<LoadedStack, StackFileError> {
    let origin = path.display().to_string();
    let src = fs::read_to_string(path)
        .map_err(|e| StackFileError::new(&origin, 0, format!("cannot read stack file: {e}")))?;
    parse_stack_file(&src, &origin)
}

/// Loads a bare model file (`.cat`-style: the `model` line and its
/// defs/axioms, nothing else) as a matrix; see [`parse_model_file`].
///
/// # Errors
///
/// A [`StackFileError`] naming the file and line on parse or I/O
/// failure.
pub fn load_model_file(path: &Path) -> Result<LoadedStack, StackFileError> {
    let origin = path.display().to_string();
    let src = fs::read_to_string(path)
        .map_err(|e| StackFileError::new(&origin, 0, format!("cannot read model file: {e}")))?;
    parse_model_file(&src, &origin)
}

/// Parses bare-model-file text, validated against the hardware
/// vocabulary, into the `sweep --model FILE` matrix: the model judging
/// each mapping section of `models/riscv.stack` (the four C11→RISC-V
/// mappings of Figure 15), named after the model. Only the model-level
/// lint rules run (there are no mapping tables), and need no line
/// re-anchoring: model text and file coordinates coincide.
///
/// # Errors
///
/// A [`StackFileError`] naming the origin and line.
pub fn parse_model_file(src: &str, origin: &str) -> Result<LoadedStack, StackFileError> {
    let (ir, spans) =
        parse_model_spanned(src, &hw_vocabulary()).map_err(|e| parse_error(origin, 1, &e))?;
    let lints = lint_model(&ir, &hw_lint_schema(), Some(&spans));
    let riscv = builtin_headers()
        .iter()
        .find(|header| header.name == "riscv")
        .expect("riscv is built in");
    Ok(LoadedStack {
        name: ir.name().to_string(),
        title: format!("{} under the Figure 15 mappings", ir.name()),
        origin: origin.to_string(),
        stacks: riscv
            .mappings
            .iter()
            .map(|section| MatrixStack {
                key: section_key(section),
                mapping: &section.table,
                model: UarchModel::from_ir(ir.clone()),
            })
            .collect(),
        lints,
        rules_checked: MODEL_RULES,
    })
}

/// Lints one definition file — stack or bare model, distinguished by
/// whether the first significant line is a `stack` directive — without
/// building anything to sweep. Returns the display origin, the
/// diagnostics, and how many lint rules ran.
///
/// # Errors
///
/// A [`StackFileError`] on I/O or parse failure (a file that does not
/// parse cannot be linted; the parse error is the diagnostic).
pub fn lint_path(path: &Path) -> Result<(String, Vec<Diagnostic>, usize), StackFileError> {
    let origin = path.display().to_string();
    let src = fs::read_to_string(path)
        .map_err(|e| StackFileError::new(&origin, 0, format!("cannot read file: {e}")))?;
    let is_stack = src
        .lines()
        .map(
            |raw| match raw.find('#').into_iter().chain(raw.find("//")).min() {
                Some(cut) => raw[..cut].trim(),
                None => raw.trim(),
            },
        )
        .find(|body| !body.is_empty())
        .is_some_and(|body| body == "stack" || body.starts_with("stack "));
    let loaded = if is_stack {
        parse_stack_file(&src, &origin)?
    } else {
        parse_model_file(&src, &origin)?
    };
    Ok((origin, loaded.lints, loaded.rules_checked))
}

fn section_key(section: &MappingSection) -> StackKey {
    StackKey {
        isa: section.isa,
        variant: section.label,
    }
}

/// Parses stack-file text; `origin` labels errors (usually the path).
///
/// # Errors
///
/// A [`StackFileError`] naming the origin and line.
pub fn parse_stack_file(src: &str, origin: &str) -> Result<LoadedStack, StackFileError> {
    let header = parse_stack_header(src, origin)?;
    assemble(Box::leak(Box::new(header)))
}

/// Builds a stack from its parsed header: parses and lints the model
/// section, resolves each `models` line to built-in models, and lints
/// the mapping tables. The one assembly behind both built-in and
/// loaded stacks.
fn assemble(header: &'static StackHeader) -> Result<LoadedStack, StackFileError> {
    let origin = header.origin.as_str();
    let mut lints = Vec::new();
    let file_model = match &header.model {
        Some((first_line, text)) => {
            let (ir, spans) = parse_model_spanned(text, &hw_vocabulary())
                .map_err(|e| parse_error(origin, *first_line, &e))?;
            // Model-level lint, re-anchored from model-text lines to
            // file lines.
            lints = lint_model(&ir, &hw_lint_schema(), Some(&spans));
            for d in &mut lints {
                d.line += first_line - 1;
            }
            Some(ir)
        }
        None => None,
    };
    let model_lint_count = lints.len();

    let mut stacks = Vec::new();
    for section in &header.mappings {
        lint_mapping_table(section, &mut lints);
        let models = match &section.models {
            Some((line, names)) => names
                .iter()
                .map(|name| {
                    UarchModel::builtin(name).ok_or_else(|| {
                        StackFileError::new(
                            origin,
                            *line,
                            format!(
                                "unknown built-in model '{name}' (built-in models: {})",
                                UarchModel::builtin_names().join(", ")
                            ),
                        )
                    })
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![UarchModel::from_ir(
                file_model
                    .clone()
                    .expect("the header requires a model section"),
            )],
        };
        stacks.extend(models.into_iter().map(|model| MatrixStack {
            key: section_key(section),
            mapping: &section.table,
            model,
        }));
    }

    lints.sort_by(|a, b| (a.line, a.col, a.code, &a.msg).cmp(&(b.line, b.col, b.code, &b.msg)));
    tricheck_trace::count(tricheck_trace::Counter::LintRulesChecked, 1);
    tricheck_trace::count(
        tricheck_trace::Counter::LintDiagnostics,
        (lints.len() - model_lint_count) as u64,
    );

    Ok(LoadedStack {
        name: header.name.clone(),
        title: header
            .title
            .clone()
            .unwrap_or_else(|| format!("stack study: {}", header.name)),
        origin: origin.to_string(),
        stacks,
        lints,
        rules_checked: RULES.len(),
    })
}

/// `W004`: unreachable mapping rows and `Unsupported` holes.
///
/// A row declaring an order the compiler can never request for that op
/// (e.g. `ld rel` — C11 has no release loads) is dead; an op that maps
/// *some* orders but leaves a reachable one undefined compiles to
/// `CompileError::Unsupported` the first time a test uses it. An op
/// with no rows at all is deliberate (the mapping does not claim to
/// support it) and is not flagged.
fn lint_mapping_table(section: &MappingSection, out: &mut Vec<Diagnostic>) {
    let (label, table, rows) = (section.label, &section.table, &section.rows);
    for (lineno, op, orders) in rows {
        for &mo in orders {
            if !reachable_orders(*op).contains(&mo) {
                let reachable: Vec<&str> = reachable_orders(*op)
                    .iter()
                    .map(|&m| order_word(m))
                    .collect();
                out.push(Diagnostic::warning(
                    "W004",
                    (*lineno, 1),
                    format!(
                        "mapping '{label}': '{op} {mo}' row can never be used — C11 has no \
                         {mo}-ordered {op}s (reachable {op} orders: {reach})",
                        op = op.word(),
                        mo = order_word(mo),
                        reach = reachable.join(", "),
                    ),
                ));
            }
        }
    }
    for op in [MapOp::Load, MapOp::Store, MapOp::Rmw] {
        if !rows.iter().any(|(_, o, _)| *o == op) {
            continue;
        }
        for &mo in reachable_orders(op) {
            if !table.defines(op, mo) {
                out.push(Diagnostic::warning(
                    "W004",
                    (section.line, 1),
                    format!(
                        "mapping '{label}' defines some '{op}' orders but leaves '{op} {mo}' \
                         undefined — compiling a test that uses it fails with Unsupported",
                        op = op.word(),
                        mo = order_word(mo),
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Sweep;
    use tricheck_litmus::{suite, MemOrder};

    const TOY_STACK: &str = "\
# comment
stack toy-x86
isa x86

mapping strong
  name toy-strong
  ld rlx|acq|sc = ld
  st rlx|rel = st
  st sc = st; mfence

mapping weak
  ld rlx|acq|sc = ld
  st rlx|rel|sc = st

model x86-TSO-toy
  ppo := ([M]po[M] \\ (W × R))
  com := ((rf ∪ co) ∪ fr)
  hb := ((ppo ∪ fence-noncum) ∪ rfe)
  prop := (hb ∪ fr)⁺
  ScPerLocation: acyclic((po-loc ∪ com))
  Atomicity: empty((rmw ∩ (fr ; co)))
  Causality: acyclic(hb)
  Observation: irreflexive((fre ; prop))
  Propagation: acyclic((co ∪ prop))
";

    #[test]
    fn builtins_are_registered_under_their_own_names() {
        let registry = StackRegistry::new();
        let names: Vec<&str> = registry.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["riscv", "power", "x86-tso"]);
        assert!(builtin_names().eq(names));
        let counts: Vec<usize> = registry.entries().iter().map(|e| e.stacks.len()).collect();
        assert_eq!(counts, [28, 4, 2]);
        // Every built-in is a stack file: each ran the lint pass, clean.
        let rules: Vec<usize> = registry.entries().iter().map(|e| e.rules_checked).collect();
        assert_eq!(rules, [RULES.len(); 3]);
        assert!(registry.entries().iter().all(|e| e.lints.is_empty()));
        assert!(builtin_stack("nosuch").is_none());
    }

    #[test]
    fn riscv_sections_share_one_mapping_per_isa_and_version() {
        let stacks = riscv_stacks();
        for pair in stacks.windows(2) {
            let same_key = pair[0].key == pair[1].key;
            #[allow(ambiguous_wide_pointer_comparisons)]
            let same_mapping = std::ptr::eq(pair[0].mapping, pair[1].mapping);
            assert_eq!(
                same_key, same_mapping,
                "{:?} / {:?}",
                pair[0].key, pair[1].key
            );
        }
    }

    #[test]
    fn resolve_takes_a_name_or_a_file_and_lists_names_otherwise() {
        let mut registry = StackRegistry::new();
        assert_eq!(registry.resolve("power").unwrap().stacks.len(), 4);
        let err = registry.resolve("nosuch").unwrap_err();
        assert!(
            err.contains("unknown stack 'nosuch'") && err.contains("riscv, power, x86-tso"),
            "{err}"
        );
        let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../models/x86-tso.stack");
        let loaded = registry.resolve(file.to_str().unwrap()).unwrap();
        assert!(
            loaded.origin.ends_with("x86-tso.stack"),
            "{}",
            loaded.origin
        );
        assert_eq!(registry.entries().len(), 4);
        // The name still finds the built-in, which the file reproduces.
        assert_eq!(
            registry.get("x86-tso").unwrap().origin,
            "models/x86-tso.stack"
        );
    }

    #[test]
    fn parses_a_whole_stack_file() {
        let loaded = parse_stack_file(TOY_STACK, "toy.stack").unwrap();
        assert_eq!(loaded.name, "toy-x86");
        assert_eq!(loaded.title, "stack study: toy-x86");
        assert_eq!(loaded.stacks.len(), 2);
        assert_eq!(loaded.stacks[0].mapping.name(), "toy-strong");
        assert_eq!(loaded.stacks[1].mapping.name(), "toy-x86-weak");
        assert_eq!(
            loaded.stacks[0].key,
            StackKey {
                isa: "x86",
                variant: "strong",
            }
        );
        assert_eq!(loaded.stacks[0].key.isa_label(), "x86");
        assert_eq!(loaded.stacks[0].key.variant_label(), "strong");
        assert_eq!(loaded.stacks[0].model.name(), "x86-TSO-toy");
    }

    #[test]
    fn isa_and_models_lines_shape_the_matrix() {
        // Two ISAs share a section label; `models` lines name built-in
        // models, and the section without one falls back to the file's
        // model.
        let src = TOY_STACK
            .replace(
                "mapping weak\n",
                "isa x86-ish\nmapping strong\n  models WR/riscv-curr ARMv7-A9like\n",
            )
            .replace("isa x86\n", "isa x86\ntitle two ISAs\n");
        let loaded = parse_stack_file(&src, "duo.stack").unwrap();
        assert_eq!(loaded.title, "two ISAs");
        let columns: Vec<(&str, &str, &str, &str)> = loaded
            .stacks
            .iter()
            .map(|s| {
                (
                    s.key.isa_label(),
                    s.key.variant_label(),
                    s.mapping.name(),
                    s.model.name(),
                )
            })
            .collect();
        assert_eq!(
            columns,
            [
                ("x86", "strong", "toy-strong", "x86-TSO-toy"),
                ("x86-ish", "strong", "toy-x86-strong", "WR/riscv-curr"),
                ("x86-ish", "strong", "toy-x86-strong", "ARMv7-A9like"),
            ]
        );
        #[allow(ambiguous_wide_pointer_comparisons)]
        let shared = std::ptr::eq(loaded.stacks[1].mapping, loaded.stacks[2].mapping);
        assert!(shared, "one section's columns share its mapping");
    }

    #[test]
    fn loaded_stacks_sweep_end_to_end() {
        let loaded = parse_stack_file(TOY_STACK, "toy.stack").unwrap();
        let tests = vec![suite::sb([MemOrder::Sc; 4])];
        let results = Sweep::new().run_matrix(&tests, &loaded.stacks);
        let strong: usize = results
            .rows()
            .iter()
            .filter(|r| r.key.variant_label() == "strong")
            .map(|r| r.bugs)
            .sum();
        let weak: usize = results
            .rows()
            .iter()
            .filter(|r| r.key.variant_label() == "weak")
            .map(|r| r.bugs)
            .sum();
        // The fenced mapping forbids SC store buffering; the unfenced
        // one exhibits it.
        assert_eq!(strong, 0);
        assert_eq!(weak, 1);
    }

    #[test]
    fn a_model_file_is_its_model_under_the_four_riscv_mappings() {
        let loaded = parse_stack_file(TOY_STACK, "toy.stack").unwrap();
        let text = loaded.stacks[0].model.ir().to_string();
        let matrix = parse_model_file(&text, "toy.cat").unwrap();
        assert_eq!(
            (matrix.name.as_str(), matrix.origin.as_str()),
            ("x86-TSO-toy", "toy.cat")
        );
        assert!(matrix.lints.is_empty(), "{:?}", matrix.lints);
        assert_eq!(matrix.rules_checked, MODEL_RULES);
        let keys: Vec<(&str, &str)> = matrix
            .stacks
            .iter()
            .map(|s| (s.key.isa_label(), s.key.variant_label()))
            .collect();
        assert_eq!(
            keys,
            [
                ("Base", "riscv-curr"),
                ("Base", "riscv-ours"),
                ("Base+A", "riscv-curr"),
                ("Base+A", "riscv-ours"),
            ]
        );
        assert!(matrix
            .stacks
            .iter()
            .all(|s| s.model.name() == "x86-TSO-toy"));
        // The mappings are the built-in riscv matrix's own tables.
        let riscv = riscv_stacks();
        for stack in &matrix.stacks {
            let builtin = riscv.iter().find(|b| b.key == stack.key).unwrap();
            // Data addresses: vtables may differ per codegen unit.
            assert!(
                std::ptr::addr_eq(stack.mapping, builtin.mapping),
                "{:?}",
                stack.key
            );
        }
        // So a matrix mixing both constructors' stacks compiles each
        // (test, mapping) pair once, whichever site coerced the mapping.
        let tests = [suite::mp([MemOrder::Rlx; 4]), suite::sb([MemOrder::Sc; 4])];
        let mixed: Vec<MatrixStack<'static>> = riscv.into_iter().chain(matrix.stacks).collect();
        let stats = *Sweep::new().run_matrix(&tests, &mixed).stats();
        assert_eq!(stats.compile_calls, tests.len() * 4, "4 distinct mappings");
    }

    #[test]
    fn errors_carry_origin_and_line() {
        for (src, line, needle) in [
            ("stack a\nstack b\n", 2, "duplicate 'stack'"),
            ("stack a\nisa x\nisa y\n", 3, "duplicate 'isa'"),
            (
                "stack a\nisa x\nmapping m\nmapping m\n",
                4,
                "duplicate mapping label 'm'",
            ),
            (
                "stack a\nld rlx = ld\n",
                2,
                "must appear inside a 'mapping' section",
            ),
            (
                "stack a\nname n\n",
                2,
                "'name' must appear inside a 'mapping' section",
            ),
            ("stack a\nbogus directive\n", 2, "unknown directive 'bogus'"),
            ("stack a\nisa x\ntitle t\ntitle u\n", 4, "duplicate 'title'"),
            (
                "stack a\nisa x\nmodels WR/riscv-curr\n",
                3,
                "'models' must appear inside a 'mapping' section",
            ),
            (
                // An `isa` line closes the section above it.
                "stack a\nisa x\nmapping m\n  ld rlx = ld\nisa y\nmodels WR/riscv-curr\n",
                6,
                "'models' must appear inside a 'mapping' section",
            ),
            (
                "stack a\nisa x\nmapping m\n  models WR/riscv-curr\n  models nMM/riscv-curr\n",
                5,
                "duplicate 'models'",
            ),
            (
                "stack a\nisa x\nmapping m\n  models WR/riscv-curr nMM/bogus\n  ld rlx = ld\n",
                4,
                "unknown built-in model 'nMM/bogus' (built-in models: WR/riscv-curr, ",
            ),
            (
                // A label may repeat under another ISA, not under its own.
                "stack a\nisa x\nmapping m\n  ld rlx = ld\nisa y\nmapping m\n  ld rlx = ld\n\
                 isa x\nmapping m\n",
                9,
                "duplicate mapping label 'm' under 'isa x'",
            ),
            (
                "stack a\nisa x\nmapping m\n  models WR/riscv-curr\n  ld rlx = ld\nisa y\n",
                6,
                "this 'isa' directive labels no 'mapping' section",
            ),
            (
                "stack a\nisa x\nmapping m\n  models WR/riscv-curr\n  ld rlx = ld\n\
                 model m\n  A: acyclic(po)\n",
                6,
                "unused 'model' section",
            ),
        ] {
            let e = parse_stack_file(src, "mut.stack").unwrap_err();
            assert_eq!(e.origin, "mut.stack", "{src:?}");
            assert_eq!(e.line, line, "{src:?} → {e}");
            assert!(e.msg.contains(needle), "{src:?} → {e}");
        }

        // A bad table line points at its own line number.
        let src = TOY_STACK.replace("st sc = st; mfence", "st sc = st; mfencee");
        let e = parse_stack_file(&src, "bad.stack").unwrap_err();
        assert_eq!(e.line, 9);
        assert!(e.msg.contains("unknown instruction 'mfencee'"), "{e}");

        // A bad model line is re-anchored to its file position, column
        // intact.
        let src = TOY_STACK.replace("fence-noncum", "fence-nocum");
        let e = parse_stack_file(&src, "bad.stack").unwrap_err();
        assert_eq!(e.line, 18);
        assert!(e.msg.contains("column"), "{e}");
        assert!(e.msg.contains("unknown base relation 'fence-nocum'"), "{e}");
        assert!(e.msg.contains("did you mean 'fence-noncum'"), "{e}");
    }

    #[test]
    fn toy_stack_loads_lint_clean() {
        let loaded = parse_stack_file(TOY_STACK, "toy.stack").unwrap();
        assert!(loaded.lints.is_empty(), "{:?}", loaded.lints);
        assert_eq!(loaded.rules_checked, RULES.len());
    }

    #[test]
    fn unreachable_mapping_rows_get_w004_at_their_line() {
        // C11 has no acquire stores: an `st acq` row can never be used.
        let src = TOY_STACK.replace("  st rlx|rel = st", "  st rlx|rel|acq = st");
        let loaded = parse_stack_file(&src, "toy.stack").unwrap();
        assert_eq!(loaded.lints.len(), 1, "{:?}", loaded.lints);
        let d = &loaded.lints[0];
        assert_eq!((d.code, d.line, d.col), ("W004", 8, 1));
        assert!(d.msg.contains("mapping 'strong'"), "{}", d.msg);
        assert!(
            d.msg.contains("'st acq' row can never be used"),
            "{}",
            d.msg
        );
    }

    #[test]
    fn missing_reachable_orders_get_w004_at_the_mapping_label() {
        // Dropping the SC-store row leaves a reachable order undefined
        // (while the untouched rmw op — zero rows — stays exempt).
        let src = TOY_STACK.replace("  st sc = st; mfence\n", "");
        let loaded = parse_stack_file(&src, "toy.stack").unwrap();
        assert_eq!(loaded.lints.len(), 1, "{:?}", loaded.lints);
        let d = &loaded.lints[0];
        assert_eq!((d.code, d.line, d.col), ("W004", 5, 1));
        assert!(d.msg.contains("leaves 'st sc' undefined"), "{}", d.msg);
    }

    #[test]
    fn model_lints_are_reanchored_to_stack_file_lines() {
        let src = TOY_STACK.replace("model x86-TSO-toy\n", "model x86-TSO-toy\n  dead := rfe\n");
        let loaded = parse_stack_file(&src, "toy.stack").unwrap();
        assert_eq!(loaded.lints.len(), 1, "{:?}", loaded.lints);
        let d = &loaded.lints[0];
        // `dead := rfe` is line 2 of the model text, line 16 of the file.
        assert_eq!((d.code, d.line, d.col), ("W001", 16, 3));
    }

    #[test]
    fn lint_path_sniffs_stack_files_from_bare_models() {
        let dir = std::env::temp_dir().join(format!("tricheck-lint-path-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let stack = dir.join("toy.stack");
        fs::write(&stack, TOY_STACK).unwrap();
        let (origin, diags, rules) = lint_path(&stack).unwrap();
        assert!(origin.ends_with("toy.stack"), "{origin}");
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(rules, RULES.len());

        // A bare model file: file and model coordinates coincide, and
        // only the model-level rules run (no mapping tables to check).
        let cat = dir.join("toy.cat");
        fs::write(
            &cat,
            "model toy\n  dead := rfe\n  Causality: acyclic((po ∪ rf))\n",
        )
        .unwrap();
        let (_, diags, rules) = lint_path(&cat).unwrap();
        assert_eq!(rules, MODEL_RULES);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!((diags[0].code, diags[0].line, diags[0].col), ("W001", 2, 3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn structural_omissions_are_reported() {
        for (src, needle) in [
            ("isa x86\n", "missing 'stack <name>'"),
            (
                "stack s\nmapping m\n  ld rlx = ld\nmodel m\n  A: acyclic(po)\n",
                "missing 'isa",
            ),
            (
                "stack s\nisa x\nmodel m\n  A: acyclic(po)\n",
                "at least one 'mapping'",
            ),
            (
                "stack s\nisa x\nmapping m\n  ld rlx = ld\n",
                "missing 'model'",
            ),
            (
                "stack s\nisa x\nmapping m\nmodel m\n  A: acyclic(po)\n",
                "has no table entries",
            ),
            (
                // Mapping `n` has no `models` line and nothing else
                // judges it.
                "stack s\nisa x\nmapping m\n  models WR/riscv-curr\n  ld rlx = ld\n\
                 mapping n\n  ld rlx = ld\n",
                "missing 'model' section (the µarch model text that judges mapping 'n'",
            ),
        ] {
            let e = parse_stack_file(src, "omit.stack").unwrap_err();
            assert!(e.msg.contains(needle), "{src:?} → {e}");
        }
    }
}
