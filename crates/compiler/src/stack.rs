//! The header half of a stack file: everything up to its `model` line.
//!
//! - `stack NAME` (required) and `title TEXT` (optional), once each;
//! - `isa LABEL`: the report's ISA column for the `mapping` sections
//!   after it; it may repeat, once per group of sections;
//! - `mapping LABEL`: one compiler mapping, its label unique under its
//!   ISA, holding [`table`](crate::table) rows (`ld`/`st`/`rmw`), an
//!   optional `name NAME` (its report name, default `STACK-LABEL`) and
//!   an optional `models NAME…` line naming the built-in models that
//!   judge it, in column order.
//!
//! A file needs a `model` section exactly when some mapping has no
//! `models` line. `tricheck-core`'s stack registry parses that section,
//! resolves the `models` names, and lints the result.
//!
//! The built-in stacks are the committed `models/riscv.stack`,
//! `models/power.stack` and `models/x86-tso.stack`, compiled in and
//! parsed once per process ([`builtin_headers`]). The paper's mappings
//! ([`riscv_mapping`](crate::riscv_mapping),
//! [`power_mapping`](crate::power_mapping)) are their mapping sections.

use std::fmt;
use std::sync::LazyLock;

use tricheck_litmus::MemOrder;
use tricheck_rel::parse::intern;

use crate::table::{MapOp, TableMapping};

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
    /// An error at `line` of `origin`.
    pub fn new(origin: &str, line: usize, msg: impl Into<String>) -> Self {
        StackFileError {
            origin: origin.to_string(),
            line,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for StackFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.origin, self.line, self.msg)
    }
}

impl std::error::Error for StackFileError {}

/// One `mapping` section: a compiler mapping, the row key it sweeps
/// under, and the models that judge it.
#[derive(Debug)]
pub struct MappingSection {
    /// The ISA label in force (the nearest `isa` line above).
    pub isa: &'static str,
    /// The section label (the report's variant column).
    pub label: &'static str,
    /// 1-based line of the `mapping` line.
    pub line: usize,
    /// The mapping, named by the section's `name` line (default
    /// `<stack>-<label>`).
    pub table: TableMapping,
    /// Each table row: its line, operation and memory orders.
    pub rows: Vec<(usize, MapOp, Vec<MemOrder>)>,
    /// The `models` line — its line and the built-in model names — or
    /// `None` when the file's `model` section judges this mapping.
    pub models: Option<(usize, Vec<String>)>,
}

/// A stack file's header: everything before its `model` section.
#[derive(Debug)]
pub struct StackHeader {
    /// The `stack` name.
    pub name: String,
    /// The `title` text, if any.
    pub title: Option<String>,
    /// Where the file came from (for errors and catalogs).
    pub origin: String,
    /// The mapping sections, in file order.
    pub mappings: Vec<MappingSection>,
    /// The `model` section: the 1-based line of its `model` line and
    /// its text through the end of the file.
    pub model: Option<(usize, String)>,
}

/// Parses a stack file's header; `origin` labels errors.
///
/// # Errors
///
/// A [`StackFileError`] naming the origin and line.
pub fn parse_stack_header(src: &str, origin: &str) -> Result<StackHeader, StackFileError> {
    let err = |line: usize, msg: &str| StackFileError::new(origin, line, msg);

    let mut name: Option<String> = None;
    let mut title: Option<String> = None;
    // The `isa` in force, its line, and whether a mapping followed it.
    let mut isa: Option<(&'static str, usize, bool)> = None;
    // Each section's table is named once the section is complete (its
    // `name` line may follow its rows); until then the name is empty.
    let mut mappings: Vec<MappingSection> = Vec::new();
    let mut model = None;
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
        // `name`, `models` and table lines belong to the last section,
        // unless an `isa` line has closed it.
        let open = isa.is_some_and(|(_, _, mapped)| mapped);
        match word {
            "stack" => {
                if name.is_some() {
                    return Err(err(lineno, "duplicate 'stack' directive"));
                }
                if rest.is_empty() {
                    return Err(err(lineno, "'stack' needs a name"));
                }
                name = Some(rest.to_string());
            }
            "isa" => {
                if isa.is_some_and(|(_, _, mapped)| !mapped) {
                    return Err(err(lineno, "duplicate 'isa' directive"));
                }
                if rest.is_empty() {
                    return Err(err(lineno, "'isa' needs a label (the report's ISA column)"));
                }
                isa = Some((intern(rest), lineno, false));
            }
            "title" => {
                if title.is_some() {
                    return Err(err(lineno, "duplicate 'title' directive"));
                }
                if rest.is_empty() {
                    return Err(err(lineno, "'title' needs text"));
                }
                title = Some(rest.to_string());
            }
            "mapping" => {
                let Some((isa_label, _, mapped)) = &mut isa else {
                    let msg = "missing 'isa <label>' directive before this 'mapping' section";
                    return Err(err(lineno, msg));
                };
                if rest.is_empty() {
                    let msg = "'mapping' needs a label (the report's variant column)";
                    return Err(err(lineno, msg));
                }
                if mappings
                    .iter()
                    .any(|m| m.isa == *isa_label && m.label == rest)
                {
                    let msg = format!("duplicate mapping label '{rest}' under 'isa {isa_label}'");
                    return Err(err(lineno, &msg));
                }
                *mapped = true;
                mappings.push(MappingSection {
                    isa: isa_label,
                    label: intern(rest),
                    line: lineno,
                    table: TableMapping::new(""),
                    rows: Vec::new(),
                    models: None,
                });
            }
            "name" | "models" => {
                let Some(section) = mappings.last_mut().filter(|_| open) else {
                    let msg = format!("'{word}' must appear inside a 'mapping' section");
                    return Err(err(lineno, &msg));
                };
                if rest.is_empty() {
                    return Err(err(lineno, &format!("'{word}' needs a value")));
                }
                let duplicate = if word == "name" {
                    !std::mem::replace(&mut section.table.name, intern(rest)).is_empty()
                } else {
                    let names = rest.split_whitespace().map(str::to_string).collect();
                    section.models.replace((lineno, names)).is_some()
                };
                if duplicate {
                    let msg = format!("duplicate '{word}' directive in this mapping");
                    return Err(err(lineno, &msg));
                }
            }
            "ld" | "st" | "rmw" => {
                let Some(section) = mappings.last_mut().filter(|_| open) else {
                    let msg =
                        format!("'{word}' table entry must appear inside a 'mapping' section");
                    return Err(err(lineno, &msg));
                };
                let (op, orders) = section
                    .table
                    .parse_line(body)
                    .map_err(|msg| err(lineno, &msg))?;
                section.rows.push((lineno, op, orders));
            }
            "model" => {
                // The model text runs to EOF and is handed to the model
                // parser verbatim (it strips comments itself).
                let text = src.lines().skip(idx).flat_map(|l| [l, "\n"]).collect();
                model = Some((lineno, text));
                break;
            }
            other => {
                let msg = format!(
                    "unknown directive '{other}' (expected stack, isa, title, mapping, name, \
                     models, ld, st, rmw or model)"
                );
                return Err(err(lineno, &msg));
            }
        }
    }

    let name = name.ok_or_else(|| err(1, "missing 'stack <name>' directive"))?;
    let last_line = last_line.max(1);
    match isa {
        None => return Err(err(last_line, "missing 'isa <label>' directive")),
        Some((_, line, false)) if !mappings.is_empty() => {
            return Err(err(
                line,
                "this 'isa' directive labels no 'mapping' section",
            ));
        }
        Some(_) => {}
    }
    if mappings.is_empty() {
        return Err(err(
            last_line,
            "a stack needs at least one 'mapping' section",
        ));
    }
    if let Some(section) = mappings.iter().find(|m| m.models.is_none()) {
        if model.is_none() {
            let msg = format!(
                "missing 'model' section (the µarch model text that judges mapping '{}', \
                 which has no 'models' line)",
                section.label
            );
            return Err(err(last_line, &msg));
        }
    } else if let Some((line, _)) = model {
        let msg = "unused 'model' section: every mapping names its models on a 'models' line";
        return Err(err(line, msg));
    }
    for section in &mut mappings {
        if !section.table.defines_anything() {
            let msg = format!("mapping '{}' has no table entries", section.label);
            return Err(err(section.line, &msg));
        }
        if section.table.name.is_empty() {
            section.table.name = intern(&format!("{name}-{}", section.label));
        }
    }
    Ok(StackHeader {
        name,
        title,
        origin: origin.to_string(),
        mappings,
        model,
    })
}

/// The committed stack files compiled in, as `(origin, text)`, in
/// catalog order.
const BUILTIN_FILES: [(&str, &str); 3] = [
    (
        "models/riscv.stack",
        include_str!("../../../models/riscv.stack"),
    ),
    (
        "models/power.stack",
        include_str!("../../../models/power.stack"),
    ),
    (
        "models/x86-tso.stack",
        include_str!("../../../models/x86-tso.stack"),
    ),
];

static BUILTIN_HEADERS: LazyLock<Vec<StackHeader>> = LazyLock::new(|| {
    BUILTIN_FILES
        .iter()
        .map(|&(origin, src)| {
            parse_stack_header(src, origin)
                .unwrap_or_else(|e| panic!("a committed stack file parses: {e}"))
        })
        .collect()
});

/// The built-in stack files' headers (`riscv`, `power`, `x86-tso`),
/// parsed once per process.
#[must_use]
pub fn builtin_headers() -> &'static [StackHeader] {
    &BUILTIN_HEADERS
}

/// The built-in mapping whose report name is `name`.
///
/// # Panics
///
/// If no built-in stack file defines a mapping of that name.
pub(crate) fn builtin_mapping(name: &str) -> &'static TableMapping {
    builtin_headers()
        .iter()
        .flat_map(|h| &h.mappings)
        .map(|m| &m.table)
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("no built-in mapping named {name}"))
}
