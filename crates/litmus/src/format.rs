//! A herd-inspired text format for C11 litmus tests, for interchange and
//! for writing tests without touching the IR.
//!
//! # Grammar
//!
//! ```text
//! C11 <name>
//! { x=0; y=0; }                      -- optional init (locations, all 0)
//! P0             | P1              ;
//! st(x,1,rel)    | r0 = ld(x,acq)  ;
//!                | r1 = ld(y,rlx)  ;
//! exists (P1:r0=1 /\ P1:r1=0)
//! ```
//!
//! Instructions:
//!
//! - `st(LOC, VALUE, MO)` — atomic store (`VALUE` may be an integer, a
//!   register, or `&LOC` for an address);
//! - `REG = ld(LOC, MO)` — atomic load;
//! - `REG = ld([REG], MO)` — load through a register-held address
//!   (address dependency);
//! - `REG = xchg(LOC, VALUE, MO)` — atomic exchange (RMW);
//! - `REG = fetchadd0(LOC, MO)` — fetch-add of zero (RMW load idiom);
//! - `fence(MO)` — a C11 fence (parsed, though the paper's compiler
//!   mappings do not accept C11 fences).
//!
//! Memory orders: `rlx`, `acq`, `rel`, `acq_rel`, `sc`. Registers are
//! `r0`…`r99`. The `exists` clause names the target outcome;
//! `forbidden (...)` is accepted as a synonym (the C11 model decides the
//! verdict either way).
//!
//! # Examples
//!
//! ```
//! use tricheck_litmus::format::{parse_litmus, write_litmus};
//!
//! let text = "C11 mp-example\n\
//!             P0          | P1             ;\n\
//!             st(x,1,rlx) | r0 = ld(y,acq) ;\n\
//!             st(y,1,rel) | r1 = ld(x,rlx) ;\n\
//!             exists (P1:r0=1 /\\ P1:r1=0)\n";
//! let test = parse_litmus(text)?;
//! assert_eq!(test.name(), "mp-example");
//! // Round-trips through the writer.
//! let again = parse_litmus(&write_litmus(&test))?;
//! assert_eq!(again.program(), test.program());
//! # Ok::<(), tricheck_litmus::format::ParseError>(())
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::mir::{Expr, Instr, Loc, Program, ProgramError, Reg, RmwKind, Val};
use crate::order::MemOrder;
use crate::outcome::Outcome;
use crate::template::LitmusTest;

/// Errors produced while parsing the litmus text format.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number of the offending text.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Maps location names to addresses, assigning fresh addresses in order
/// of appearance (`x`→1, `y`→2, …).
#[derive(Default)]
struct LocTable {
    by_name: BTreeMap<String, Loc>,
}

impl LocTable {
    fn get(&mut self, name: &str) -> Loc {
        let next = Loc(self.by_name.len() as u64 + 1);
        *self.by_name.entry(name.to_string()).or_insert(next)
    }

    fn name_of(loc: Loc) -> String {
        loc.to_string()
    }
}

fn parse_order(s: &str, line: usize) -> Result<MemOrder, ParseError> {
    match s.trim() {
        "rlx" => Ok(MemOrder::Rlx),
        "acq" => Ok(MemOrder::Acq),
        "rel" => Ok(MemOrder::Rel),
        "acq_rel" => Ok(MemOrder::AcqRel),
        "sc" => Ok(MemOrder::Sc),
        other => err(line, format!("unknown memory order '{other}'")),
    }
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, ParseError> {
    let trimmed = s.trim();
    let digits = trimmed.strip_prefix('r').ok_or_else(|| ParseError {
        line,
        message: format!("expected register, got '{trimmed}'"),
    })?;
    match digits.parse::<u8>() {
        Ok(n) => Ok(Reg(n)),
        Err(_) => err(line, format!("bad register '{trimmed}'")),
    }
}

fn parse_value(s: &str, locs: &mut LocTable, line: usize) -> Result<Expr, ParseError> {
    let t = s.trim();
    if let Some(name) = t.strip_prefix('&') {
        return Ok(Expr::Const(locs.get(name.trim()).0));
    }
    if t.starts_with('r') && t[1..].chars().all(|c| c.is_ascii_digit()) && t.len() > 1 {
        return Ok(Expr::Reg(parse_reg(t, line)?));
    }
    match t.parse::<u64>() {
        Ok(v) => Ok(Expr::Const(v)),
        Err(_) => err(line, format!("bad value '{t}'")),
    }
}

fn parse_addr(s: &str, locs: &mut LocTable, line: usize) -> Result<Expr, ParseError> {
    let t = s.trim();
    if let Some(inner) = t.strip_prefix('[').and_then(|rest| rest.strip_suffix(']')) {
        return Ok(Expr::Reg(parse_reg(inner, line)?));
    }
    Ok(Expr::Const(locs.get(t).0))
}

/// Splits `f(a, b, c)` into (`f`, [`a`, `b`, `c`]), respecting no nesting
/// (the format has none).
fn split_call(s: &str, line: usize) -> Result<(&str, Vec<&str>), ParseError> {
    let open = s.find('(');
    let close = s.rfind(')');
    match (open, close) {
        (Some(o), Some(c)) if c > o => {
            let name = s[..o].trim();
            let args: Vec<&str> = s[o + 1..c].split(',').map(str::trim).collect();
            Ok((name, args))
        }
        _ => err(
            line,
            format!("expected a call like 'st(x,1,rlx)', got '{s}'"),
        ),
    }
}

fn parse_instr(s: &str, locs: &mut LocTable, line: usize) -> Result<Instr<MemOrder>, ParseError> {
    let t = s.trim();
    if let Some(eq) = t.find('=') {
        // REG = ld/xchg/fetchadd0(...)
        let dst = parse_reg(&t[..eq], line)?;
        let (name, args) = split_call(t[eq + 1..].trim(), line)?;
        match (name, args.as_slice()) {
            ("ld", [addr, mo]) => Ok(Instr::Read {
                dst,
                addr: parse_addr(addr, locs, line)?,
                ann: parse_order(mo, line)?,
            }),
            ("xchg", [addr, val, mo]) => Ok(Instr::Rmw {
                dst,
                addr: parse_addr(addr, locs, line)?,
                kind: RmwKind::Swap(parse_value(val, locs, line)?),
                ann: parse_order(mo, line)?,
            }),
            ("fetchadd0", [addr, mo]) => Ok(Instr::Rmw {
                dst,
                addr: parse_addr(addr, locs, line)?,
                kind: RmwKind::FetchAddZero,
                ann: parse_order(mo, line)?,
            }),
            (other, args) => err(
                line,
                format!(
                    "unknown or mis-arity instruction '{other}' with {} args",
                    args.len()
                ),
            ),
        }
    } else {
        let (name, args) = split_call(t, line)?;
        match (name, args.as_slice()) {
            ("st", [addr, val, mo]) => Ok(Instr::Write {
                addr: parse_addr(addr, locs, line)?,
                val: parse_value(val, locs, line)?,
                ann: parse_order(mo, line)?,
            }),
            ("fence", [mo]) => Ok(Instr::Fence {
                ann: parse_order(mo, line)?,
            }),
            (other, args) => err(
                line,
                format!(
                    "unknown or mis-arity instruction '{other}' with {} args",
                    args.len()
                ),
            ),
        }
    }
}

fn parse_outcome(s: &str, line: usize) -> Result<Outcome, ParseError> {
    let inner = s
        .trim()
        .strip_prefix('(')
        .and_then(|rest| rest.strip_suffix(')'))
        .ok_or_else(|| ParseError {
            line,
            message: "expected '( ... )'".into(),
        })?;
    let mut outcome = Outcome::new();
    for clause in inner.split("/\\") {
        let c = clause.trim();
        if c.is_empty() {
            continue;
        }
        // PN:rM=V
        let (thread_part, rest) = c.split_once(':').ok_or_else(|| ParseError {
            line,
            message: format!("bad clause '{c}'"),
        })?;
        let tid: usize = thread_part
            .trim()
            .strip_prefix('P')
            .and_then(|d| d.parse().ok())
            .ok_or_else(|| ParseError {
                line,
                message: format!("bad thread '{thread_part}'"),
            })?;
        let (reg_part, val_part) = rest.split_once('=').ok_or_else(|| ParseError {
            line,
            message: format!("bad clause '{c}'"),
        })?;
        let reg = parse_reg(reg_part, line)?;
        let val: u64 = val_part.trim().parse().map_err(|_| ParseError {
            line,
            message: format!("bad value '{val_part}'"),
        })?;
        outcome.set(tid, reg, Val(val));
    }
    if outcome.is_empty() {
        return err(line, "empty outcome");
    }
    Ok(outcome)
}

/// Parses a litmus test from the text format described in the module
/// documentation.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending line.
pub fn parse_litmus(text: &str) -> Result<LitmusTest, ParseError> {
    let mut locs = LocTable::default();
    let mut name = None;
    let mut rows: Vec<(usize, Vec<String>)> = Vec::new();
    let mut n_threads = 0usize;
    let mut outcome = None;
    let mut extra_locs: Vec<Loc> = Vec::new();

    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split("--").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if name.is_none() {
            let rest = line.strip_prefix("C11").ok_or_else(|| ParseError {
                line: line_no,
                message: "expected 'C11 <name>' header".into(),
            })?;
            name = Some(rest.trim().to_string());
            continue;
        }
        if line.starts_with('{') {
            // Init section: declares locations (all initialized to 0).
            let inner = line.trim_start_matches('{').trim_end_matches('}');
            for decl in inner.split(';') {
                let d = decl.trim();
                if d.is_empty() {
                    continue;
                }
                let loc_name = d.split('=').next().unwrap_or(d).trim();
                extra_locs.push(locs.get(loc_name));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("exists") {
            outcome = Some(parse_outcome(rest.trim(), line_no)?);
            continue;
        }
        if let Some(rest) = line.strip_prefix("forbidden") {
            outcome = Some(parse_outcome(rest.trim(), line_no)?);
            continue;
        }
        // A table row: cells separated by '|', terminated by ';'.
        let row_text = line.strip_suffix(';').unwrap_or(line);
        let cells: Vec<String> = row_text.split('|').map(|c| c.trim().to_string()).collect();
        if rows.is_empty() {
            // Header row: P0 | P1 | …
            for (tid, cell) in cells.iter().enumerate() {
                if cell != &format!("P{tid}") {
                    return err(
                        line_no,
                        format!("expected thread header 'P{tid}', got '{cell}'"),
                    );
                }
            }
            n_threads = cells.len();
        } else if cells.len() > n_threads {
            return err(
                line_no,
                format!("row has {} cells, expected ≤ {n_threads}", cells.len()),
            );
        }
        rows.push((line_no, cells));
    }

    let name = name.ok_or(ParseError {
        line: 1,
        message: "missing header".into(),
    })?;
    if rows.is_empty() {
        return err(1, "no thread table");
    }
    let outcome = outcome.ok_or(ParseError {
        line: 1,
        message: "missing 'exists' clause".into(),
    })?;

    // Column-major: cell (row r, col t) is thread t's r-th instruction.
    let mut threads: Vec<Vec<Instr<MemOrder>>> = vec![Vec::new(); n_threads];
    // The line each thread's instructions came from, to place program
    // errors.
    let mut instr_lines: Vec<Vec<usize>> = vec![Vec::new(); n_threads];
    for (line_no, row) in rows.iter().skip(1) {
        for (t, cell) in row.iter().enumerate() {
            if cell.is_empty() {
                continue;
            }
            threads[t].push(parse_instr(cell, &mut locs, *line_no)?);
            instr_lines[t].push(*line_no);
        }
    }

    let program = Program::new(threads, extra_locs).map_err(|e| {
        let line = match e {
            ProgramError::RegisterReassigned { tid, index, .. }
            | ProgramError::UndefinedRegister { tid, index, .. } => instr_lines[tid][index],
            // The table as a whole is too large: point at its header.
            ProgramError::TooManyEvents { .. } => rows[0].0,
        };
        ParseError {
            line,
            message: e.to_string(),
        }
    })?;
    Ok(LitmusTest::new(name, "parsed", program, outcome))
}

fn write_expr(e: &Expr) -> String {
    match e {
        Expr::Const(c) => c.to_string(),
        Expr::Reg(r) => r.to_string(),
    }
}

fn write_addr(e: &Expr) -> String {
    match e {
        Expr::Const(c) => LocTable::name_of(Loc(*c)),
        Expr::Reg(r) => format!("[{r}]"),
    }
}

fn write_instr(i: &Instr<MemOrder>) -> String {
    match i {
        Instr::Read { dst, addr, ann } => format!("{dst} = ld({}, {ann})", write_addr(addr)),
        Instr::Write { addr, val, ann } => {
            format!("st({}, {}, {ann})", write_addr(addr), write_expr(val))
        }
        Instr::Rmw {
            dst,
            addr,
            kind: RmwKind::FetchAddZero,
            ann,
        } => {
            format!("{dst} = fetchadd0({}, {ann})", write_addr(addr))
        }
        Instr::Rmw {
            dst,
            addr,
            kind: RmwKind::Swap(v),
            ann,
        } => {
            format!(
                "{dst} = xchg({}, {}, {ann})",
                write_addr(addr),
                write_expr(v)
            )
        }
        Instr::Fence { ann } => format!("fence({ann})"),
    }
}

/// Renders a litmus test in the text format, suitable for re-parsing with
/// [`parse_litmus`].
#[must_use]
pub fn write_litmus(test: &LitmusTest) -> String {
    let threads = test.program().threads();
    let depth = threads.iter().map(Vec::len).max().unwrap_or(0);

    // Build all cells first to compute column widths.
    let mut table: Vec<Vec<String>> = Vec::new();
    table.push((0..threads.len()).map(|t| format!("P{t}")).collect());
    for r in 0..depth {
        table.push(
            threads
                .iter()
                .map(|t| t.get(r).map(write_instr).unwrap_or_default())
                .collect(),
        );
    }
    let widths: Vec<usize> = (0..threads.len())
        .map(|c| table.iter().map(|row| row[c].len()).max().unwrap_or(0))
        .collect();

    let mut out = format!("C11 {}\n", test.name());
    let decls: Vec<String> = test
        .program()
        .locations()
        .iter()
        .map(|l| format!("{}=0;", LocTable::name_of(*l)))
        .collect();
    out.push_str(&format!("{{ {} }}\n", decls.join(" ")));
    for row in &table {
        let cells: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(cell, w)| format!("{cell:<w$}"))
            .collect();
        out.push_str(&cells.join(" | "));
        out.push_str(" ;\n");
    }
    let clauses: Vec<String> = test
        .target()
        .iter()
        .map(|((tid, reg), val)| format!("P{tid}:{reg}={val}"))
        .collect();
    out.push_str(&format!("exists ({})\n", clauses.join(" /\\ ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn parses_message_passing() {
        let text = "C11 mp\n\
                    P0          | P1             ;\n\
                    st(x,1,rlx) | r0 = ld(y,acq) ;\n\
                    st(y,1,rel) | r1 = ld(x,rlx) ;\n\
                    exists (P1:r0=1 /\\ P1:r1=0)\n";
        let test = parse_litmus(text).unwrap();
        assert_eq!(test.name(), "mp");
        assert_eq!(test.program().threads().len(), 2);
        assert_eq!(test.program().threads()[0].len(), 2);
        assert_eq!(test.target().to_string(), "T1:r0=1, T1:r1=0");
    }

    #[test]
    fn parsed_mp_matches_builtin_template_semantics() {
        let text = "C11 mp\n\
                    P0          | P1             ;\n\
                    st(x,1,rlx) | r0 = ld(y,acq) ;\n\
                    st(y,1,rel) | r1 = ld(x,rlx) ;\n\
                    exists (P1:r0=1 /\\ P1:r1=0)\n";
        let parsed = parse_litmus(text).unwrap();
        let builtin = suite::mp([MemOrder::Rlx, MemOrder::Rel, MemOrder::Acq, MemOrder::Rlx]);
        assert_eq!(parsed.program(), builtin.program());
        assert_eq!(parsed.target(), builtin.target());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "C11 t -- a test\n\n\
                    -- full-line comment\n\
                    P0 ;\n\
                    st(x,1,sc) ; -- trailing\n\
                    r0 = ld(x,sc) ;\n\
                    exists (P0:r0=1)\n";
        let test = parse_litmus(text).unwrap();
        assert_eq!(test.program().threads()[0].len(), 2);
    }

    #[test]
    fn address_dependencies_parse() {
        let text = "C11 dep\n\
                    { z=0; x=0; y=0; }\n\
                    P0            | P1              ;\n\
                    st(x,1,rel)   | r0 = ld(y,rlx)  ;\n\
                    st(y,&x,rel)  | r1 = ld([r0],acq) ;\n\
                    exists (P1:r0=2 /\\ P1:r1=0)\n";
        let test = parse_litmus(text).unwrap();
        let has_reg_addr = test.program().threads()[1].iter().any(|i| {
            matches!(
                i,
                Instr::Read {
                    addr: Expr::Reg(_),
                    ..
                }
            )
        });
        assert!(has_reg_addr);
    }

    #[test]
    fn rmw_instructions_parse() {
        let text = "C11 rmw\n\
                    P0 ;\n\
                    r0 = xchg(x, 5, acq_rel) ;\n\
                    r1 = fetchadd0(x, sc) ;\n\
                    exists (P0:r0=0 /\\ P0:r1=5)\n";
        let test = parse_litmus(text).unwrap();
        assert_eq!(test.program().threads()[0].len(), 2);
        assert!(matches!(
            test.program().threads()[0][0],
            Instr::Rmw {
                kind: RmwKind::Swap(_),
                ann: MemOrder::AcqRel,
                ..
            }
        ));
    }

    #[test]
    fn roundtrip_through_writer() {
        for builtin in [
            suite::mp([MemOrder::Rlx, MemOrder::Rel, MemOrder::Acq, MemOrder::Rlx]),
            suite::fig3_wrc(),
            suite::fig4_iriw_sc(),
            suite::corsdwi([MemOrder::Rlx; 5]),
        ] {
            let text = write_litmus(&builtin);
            let parsed = parse_litmus(&text)
                .unwrap_or_else(|e| panic!("reparse of {} failed: {e}\n{text}", builtin.name()));
            assert_eq!(parsed.program(), builtin.program(), "{}", builtin.name());
            assert_eq!(parsed.target(), builtin.target());
        }
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "C11 bad\nP0 ;\nst(x,1) ;\nexists (P0:r0=0)\n";
        let e = parse_litmus(text).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("mis-arity"));
    }

    #[test]
    fn program_errors_name_the_offending_row() {
        // Line 4 reads r5, which thread 1 never assigns.
        let text = "C11 bad-reg\n\
                    P0          | P1              ;\n\
                    st(x,1,rlx) | r0 = ld(y,rlx)  ;\n\
                    st(y,1,rlx) | r1 = ld([r5],acq) ;\n\
                    exists (P1:r0=1 /\\ P1:r1=0)\n";
        let e = parse_litmus(text).unwrap_err();
        assert_eq!(
            e.to_string(),
            "line 4: register r5 read before assignment in thread 1"
        );
        // Line 5 assigns r0 a second time.
        let text = "C11 twice\n\
                    P0             ;\n\
                    -- a comment line keeps its number\n\
                    r0 = ld(x,rlx) ;\n\
                    r0 = ld(y,rlx) ;\n\
                    exists (P0:r0=0)\n";
        let e = parse_litmus(text).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("assigned twice"), "{e}");
    }

    #[test]
    fn missing_exists_is_an_error() {
        let text = "C11 incomplete\nP0 ;\nst(x,1,rlx) ;\n";
        assert!(parse_litmus(text).unwrap_err().message.contains("exists"));
    }

    #[test]
    fn unknown_order_is_an_error() {
        let text = "C11 t\nP0 ;\nst(x,1,weird) ;\nexists (P0:r0=0)\n";
        assert!(parse_litmus(text)
            .unwrap_err()
            .message
            .contains("memory order"));
    }
}
