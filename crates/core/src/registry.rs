//! The stack registry: every sweep matrix — built-in or loaded from a
//! definition file — is a [`LoadedStack`] looked up by name.
//!
//! The built-ins are [`BUILTIN_STACKS`]: `riscv` (Figure 15: the four
//! Table 2/3 mappings × the seven Table 7 µarchs), `power` (the §7
//! compiler study: leading-/trailing-sync × the ARMv7 models) and
//! `x86-tso` (the x86 mapping study, which *is* the committed
//! `models/x86-tso.stack`, compiled in with `include_str!` and parsed
//! by [`parse_stack_file`] like any user stack). The RISC-V and Power
//! matrices pair the compiler crate's built-in mapping tables with
//! built-in µarch models, which are model files too: the Table 7
//! machines of `models/riscv-curr/` and `models/riscv-ours/` and the
//! ARMv7 machines of `models/armv7/`, compiled into `tricheck-uarch`.
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
//! Header directives: `stack <name>` (required, first), `isa <label>`
//! (required; the report's ISA column), `title <text>` (optional table
//! title). Each `mapping <label>` section defines one compiler mapping
//! as a [`TableMapping`] table (see `tricheck_compiler::table` for the
//! entry syntax); an optional `name <internal>` line sets the mapping's
//! report name (default `<stack>-<label>`). Everything from the `model`
//! line onward is a model in the `ModelIr` display grammar, parsed by
//! [`tricheck_rel::parse::parse_model`] against the hardware vocabulary
//! ([`tricheck_uarch::hw_vocabulary`]) and compiled through the same
//! `CompiledModel` fast path as the built-in stacks.
//!
//! `#` and `//` start comments. A bare model file (starting directly at
//! its `model` line, conventionally `.cat`) can be loaded with
//! [`load_model_file`] and swept through the built-in RISC-V mappings
//! via [`stacks_for_model`].

use std::fmt;
use std::fs;
use std::path::Path;

use tricheck_compiler::{
    order_word, power_mapping, reachable_orders, riscv_mapping, MapOp, Mapping, PowerSyncStyle,
    TableMapping,
};
use tricheck_isa::{RiscvIsa, SpecVersion};
use tricheck_litmus::MemOrder;
use tricheck_rel::lint::{lint_model, Diagnostic, MODEL_RULES, RULES};
use tricheck_rel::parse::{intern, parse_model_spanned, ParseError};
use tricheck_rel::ModelIr;
use tricheck_uarch::{hw_lint_schema, hw_vocabulary, UarchModel};

use crate::runner::{MatrixStack, StackKey};

/// An error while loading a stack or model definition file, carrying
/// the file origin and 1-based line for `file:line: message` display.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StackFileError {
    /// The file (or other origin label) being loaded.
    pub origin: String,
    /// 1-based line number within the file.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl StackFileError {
    fn new(origin: &str, line: usize, msg: impl Into<String>) -> Self {
        StackFileError {
            origin: origin.to_string(),
            line,
            msg: msg.into(),
        }
    }

    /// Re-anchors a model-text [`ParseError`] at its position within the
    /// surrounding file.
    fn from_parse(origin: &str, first_model_line: usize, e: &ParseError) -> Self {
        StackFileError::new(
            origin,
            first_model_line + e.line - 1,
            format!("column {}: {}", e.col, e.msg),
        )
    }
}

impl fmt::Display for StackFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.origin, self.line, self.msg)
    }
}

impl std::error::Error for StackFileError {}

/// One registered sweep matrix, ready for `Sweep::run_matrix`: a
/// built-in ([`builtin_stack`]) or a stack definition file. A file's
/// mapping tables are leaked once per load to satisfy the
/// `&'static dyn Mapping` the matrix requires — stacks are loaded a
/// handful of times per process, so the leakage is bounded like the
/// name interner's.
pub struct LoadedStack {
    /// The stack's lookup name (the `stack` directive).
    pub name: String,
    /// The report table title (the `title` directive, or a default).
    pub title: String,
    /// Where the stack was loaded from (for catalogs and errors);
    /// `built-in` for the `riscv` and `power` matrices, which the
    /// registry assembles from built-in mappings and model files.
    pub origin: String,
    /// The matrix columns, in presentation order; each key carries its
    /// ISA and variant labels (for a file: the `isa` directive and the
    /// `mapping` section label, all sharing the file's model).
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

/// The built-in matrices' names, in catalog order. `x86-tso` is the
/// committed stack file's own `stack` name.
pub const BUILTIN_STACKS: [&str; 3] = ["riscv", "power", "x86-tso"];

/// The committed x86-TSO stack file: the built-in x86 study.
const X86_TSO_STACK: &str = include_str!("../../../models/x86-tso.stack");

/// Builds the built-in matrix registered under `name` (one of
/// [`BUILTIN_STACKS`]), or `None` for any other name. Each call builds
/// fresh model instances; the mappings are the compiler crate's
/// statics, so every column of one (ISA, version) or sync style shares
/// one mapping pointer and the sweep compiles each (test, mapping) pair
/// once.
#[must_use]
pub fn builtin_stack(name: &str) -> Option<LoadedStack> {
    type Column = (StackKey, &'static dyn Mapping, Vec<UarchModel>);
    let (title, columns): (&str, Vec<Column>) = match name {
        "riscv" => (
            "Figure 15: C11 → RISC-V mappings on the Table 7 µarchs",
            riscv_columns()
                .map(|(key, mapping, version)| (key, mapping, UarchModel::all_riscv(version)))
                .collect(),
        ),
        "power" => (
            "§7 compiler study: C11 → Power mappings on ARMv7",
            PowerSyncStyle::ALL
                .into_iter()
                .map(|style| {
                    let key = StackKey {
                        isa: "Power",
                        variant: style.label(),
                    };
                    (key, power_mapping(style), UarchModel::all_armv7())
                })
                .collect(),
        ),
        "x86-tso" => {
            return Some(
                parse_stack_file(X86_TSO_STACK, "models/x86-tso.stack")
                    .expect("the committed x86-TSO stack file parses"),
            )
        }
        _ => return None,
    };
    let stacks = columns
        .into_iter()
        .flat_map(|(key, mapping, models)| {
            models.into_iter().map(move |model| MatrixStack {
                key,
                mapping,
                model,
            })
        })
        .collect();
    Some(LoadedStack {
        name: name.to_string(),
        title: title.to_string(),
        origin: "built-in".to_string(),
        stacks,
        lints: Vec::new(),
        rules_checked: 0,
    })
}

/// The 28 Figure 15 stacks in presentation order — the `riscv`
/// built-in's columns.
#[must_use]
pub fn riscv_stacks() -> Vec<MatrixStack<'static>> {
    builtin_stack("riscv").expect("riscv is built in").stacks
}

/// Figure 15's four (ISA, spec version) columns: the row key, the
/// Table 2/3 mapping, and the spec version its µarchs implement.
fn riscv_columns() -> impl Iterator<Item = (StackKey, &'static dyn Mapping, SpecVersion)> {
    [RiscvIsa::Base, RiscvIsa::BaseA]
        .into_iter()
        .flat_map(|isa| {
            [SpecVersion::Curr, SpecVersion::Ours]
                .into_iter()
                .map(move |version| {
                    let key = StackKey {
                        isa: intern(&isa.to_string()),
                        variant: intern(&version.to_string()),
                    };
                    (key, riscv_mapping(isa, version), version)
                })
        })
}

/// The sweep matrices of one invocation: the built-ins, plus any stack
/// files resolved through it, all looked up the same way.
pub struct StackRegistry {
    entries: Vec<LoadedStack>,
}

impl Default for StackRegistry {
    fn default() -> Self {
        StackRegistry {
            entries: BUILTIN_STACKS
                .iter()
                .filter_map(|name| builtin_stack(name))
                .collect(),
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
        self.entries.push(loaded);
        Ok(self.entries.last().expect("just pushed"))
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
/// defs/axioms, nothing else), validated against the hardware
/// vocabulary.
///
/// # Errors
///
/// A [`StackFileError`] naming the file and line on parse or I/O
/// failure.
pub fn load_model_file(path: &Path) -> Result<ModelIr, StackFileError> {
    load_model_file_linted(path).map(|(ir, _)| ir)
}

/// Like [`load_model_file`], but also runs the model-level lint rules
/// and returns the diagnostics (a bare model file needs no line
/// re-anchoring — model text and file coordinates coincide).
///
/// # Errors
///
/// A [`StackFileError`] naming the file and line on parse or I/O
/// failure.
pub fn load_model_file_linted(path: &Path) -> Result<(ModelIr, Vec<Diagnostic>), StackFileError> {
    let origin = path.display().to_string();
    let src = fs::read_to_string(path)
        .map_err(|e| StackFileError::new(&origin, 0, format!("cannot read model file: {e}")))?;
    let (ir, spans) = parse_model_spanned(&src, &hw_vocabulary())
        .map_err(|e| StackFileError::from_parse(&origin, 1, &e))?;
    let lints = lint_model(&ir, &hw_lint_schema(), Some(&spans));
    Ok((ir, lints))
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
    if is_stack {
        let loaded = parse_stack_file(&src, &origin)?;
        Ok((origin.clone(), loaded.lints, loaded.rules_checked))
    } else {
        let (ir, spans) = parse_model_spanned(&src, &hw_vocabulary())
            .map_err(|e| StackFileError::from_parse(&origin, 1, &e))?;
        let lints = lint_model(&ir, &hw_lint_schema(), Some(&spans));
        Ok((origin, lints, MODEL_RULES))
    }
}

/// Pairs a runtime-loaded hardware model with the four built-in RISC-V
/// compiler mappings — the `sweep --model FILE` matrix: the custom
/// model judged under each (ISA, spec version) mapping of Figure 15.
#[must_use]
pub fn stacks_for_model(ir: &ModelIr) -> Vec<MatrixStack<'static>> {
    riscv_columns()
        .map(|(key, mapping, _)| MatrixStack {
            key,
            mapping,
            model: UarchModel::from_ir(ir.clone()),
        })
        .collect()
}

/// One `mapping` section mid-parse: label, optional internal name, and
/// the table lines with their line numbers.
struct MappingSection {
    label: String,
    label_line: usize,
    name: Option<String>,
    lines: Vec<(usize, String)>,
}

/// Parses stack-file text; `origin` labels errors (usually the path).
///
/// # Errors
///
/// A [`StackFileError`] naming the origin and line.
pub fn parse_stack_file(src: &str, origin: &str) -> Result<LoadedStack, StackFileError> {
    let err = |line: usize, msg: String| StackFileError::new(origin, line, msg);

    let mut name: Option<String> = None;
    let mut isa: Option<String> = None;
    let mut title: Option<String> = None;
    let mut mappings: Vec<MappingSection> = Vec::new();
    let mut model_start: Option<usize> = None; // 0-based index of the `model` line
    let mut last_line = 0usize;

    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx + 1;
        last_line = lineno;
        let stripped = match raw.find('#').into_iter().chain(raw.find("//")).min() {
            Some(cut) => &raw[..cut],
            None => raw,
        };
        let body = stripped.trim();
        if body.is_empty() {
            continue;
        }
        let (word, rest) = body.split_once(char::is_whitespace).unwrap_or((body, ""));
        let rest = rest.trim();
        match word {
            "stack" => {
                if name.is_some() {
                    return Err(err(lineno, "duplicate 'stack' directive".into()));
                }
                if rest.is_empty() {
                    return Err(err(lineno, "'stack' needs a name".into()));
                }
                name = Some(rest.to_string());
            }
            "isa" => {
                if isa.is_some() {
                    return Err(err(lineno, "duplicate 'isa' directive".into()));
                }
                if rest.is_empty() {
                    return Err(err(
                        lineno,
                        "'isa' needs a label (the report's ISA column)".into(),
                    ));
                }
                isa = Some(rest.to_string());
            }
            "title" => {
                if rest.is_empty() {
                    return Err(err(lineno, "'title' needs text".into()));
                }
                title = Some(rest.to_string());
            }
            "mapping" => {
                if rest.is_empty() {
                    return Err(err(
                        lineno,
                        "'mapping' needs a label (the report's variant column)".into(),
                    ));
                }
                if mappings.iter().any(|m| m.label == rest) {
                    return Err(err(lineno, format!("duplicate mapping label '{rest}'")));
                }
                mappings.push(MappingSection {
                    label: rest.to_string(),
                    label_line: lineno,
                    name: None,
                    lines: Vec::new(),
                });
            }
            "name" => {
                let Some(section) = mappings.last_mut() else {
                    return Err(err(
                        lineno,
                        "'name' must appear inside a 'mapping' section".into(),
                    ));
                };
                if section.name.is_some() {
                    return Err(err(
                        lineno,
                        "duplicate 'name' directive in this mapping".into(),
                    ));
                }
                if rest.is_empty() {
                    return Err(err(lineno, "'name' needs a value".into()));
                }
                section.name = Some(rest.to_string());
            }
            "ld" | "st" | "rmw" => {
                let Some(section) = mappings.last_mut() else {
                    return Err(err(
                        lineno,
                        format!("'{word}' table entry must appear inside a 'mapping' section"),
                    ));
                };
                section.lines.push((lineno, body.to_string()));
            }
            "model" => {
                model_start = Some(idx);
                break;
            }
            other => {
                return Err(err(
                    lineno,
                    format!(
                        "unknown directive '{other}' (expected stack, isa, title, mapping, \
                         name, ld, st, rmw or model)"
                    ),
                ));
            }
        }
    }

    let name = name.ok_or_else(|| err(1, "missing 'stack <name>' directive".into()))?;
    let isa = isa.ok_or_else(|| err(last_line.max(1), "missing 'isa <label>' directive".into()))?;
    if mappings.is_empty() {
        return Err(err(
            last_line.max(1),
            "a stack needs at least one 'mapping' section".into(),
        ));
    }
    let model_start = model_start.ok_or_else(|| {
        err(
            last_line.max(1),
            "missing 'model' section (the stack's µarch model text)".into(),
        )
    })?;

    // The model text: everything from the `model` line to EOF, handed to
    // the rel parser verbatim (it strips comments itself).
    let model_text: String = src
        .lines()
        .skip(model_start)
        .flat_map(|l| [l, "\n"])
        .collect();
    let (ir, spans) = parse_model_spanned(&model_text, &hw_vocabulary())
        .map_err(|e| StackFileError::from_parse(origin, model_start + 1, &e))?;

    // Model-level lint, re-anchored from model-text lines to file
    // lines (model-text line 1 is file line `model_start + 1`).
    let mut lints = lint_model(&ir, &hw_lint_schema(), Some(&spans));
    for d in &mut lints {
        d.line += model_start;
    }
    let model_lint_count = lints.len();

    let mut stacks = Vec::new();
    for section in mappings {
        let internal = section
            .name
            .unwrap_or_else(|| format!("{name}-{}", section.label));
        let mut table = TableMapping::new(intern(&internal));
        let mut rows: Vec<(usize, MapOp, Vec<MemOrder>)> = Vec::new();
        for (lineno, line) in &section.lines {
            let (op, orders) = table.parse_line(line).map_err(|msg| err(*lineno, msg))?;
            rows.push((*lineno, op, orders));
        }
        if !table.defines_anything() {
            return Err(err(
                section.label_line,
                format!("mapping '{}' has no table entries", section.label),
            ));
        }
        lint_mapping_table(
            &section.label,
            section.label_line,
            &table,
            &rows,
            &mut lints,
        );
        stacks.push(MatrixStack {
            key: StackKey {
                isa: intern(&isa),
                variant: intern(&section.label),
            },
            mapping: Box::leak(Box::new(table)),
            model: UarchModel::from_ir(ir.clone()),
        });
    }

    lints.sort_by(|a, b| (a.line, a.col, a.code, &a.msg).cmp(&(b.line, b.col, b.code, &b.msg)));
    tricheck_trace::count(tricheck_trace::Counter::LintRulesChecked, 1);
    tricheck_trace::count(
        tricheck_trace::Counter::LintDiagnostics,
        (lints.len() - model_lint_count) as u64,
    );

    Ok(LoadedStack {
        title: title.unwrap_or_else(|| format!("stack study: {name}")),
        name,
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
fn lint_mapping_table(
    label: &str,
    label_line: usize,
    table: &TableMapping,
    rows: &[(usize, MapOp, Vec<MemOrder>)],
    out: &mut Vec<Diagnostic>,
) {
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
                    (label_line, 1),
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
        assert_eq!(names, BUILTIN_STACKS);
        let counts: Vec<usize> = registry.entries().iter().map(|e| e.stacks.len()).collect();
        assert_eq!(counts, [28, 4, 2]);
        // Every built-in is lint-clean; only the text-defined one ran the pass.
        let rules: Vec<usize> = registry.entries().iter().map(|e| e.rules_checked).collect();
        assert_eq!(rules, [0, 0, RULES.len()]);
        assert!(registry.entries().iter().all(|e| e.lints.is_empty()));
        assert!(builtin_stack("nosuch").is_none());
    }

    #[test]
    fn riscv_columns_share_one_mapping_per_isa_and_version() {
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
        assert_eq!(registry.entries().len(), BUILTIN_STACKS.len() + 1);
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
    fn stacks_for_model_pairs_the_four_riscv_mappings() {
        let loaded = parse_stack_file(TOY_STACK, "toy.stack").unwrap();
        let ir = loaded.stacks[0].model.ir().clone();
        let stacks = stacks_for_model(&ir);
        assert_eq!(stacks.len(), 4);
        let keys: Vec<(&str, &str)> = stacks
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
        assert!(stacks.iter().all(|s| s.model.name() == "x86-TSO-toy"));
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
        ] {
            let e = parse_stack_file(src, "omit.stack").unwrap_err();
            assert!(e.msg.contains(needle), "{src:?} → {e}");
        }
    }
}
