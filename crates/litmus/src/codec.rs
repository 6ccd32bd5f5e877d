//! A hand-rolled little-endian binary codec for the persistence layer.
//!
//! [`Fingerprint`](crate::Fingerprint)s are stable across processes of
//! one build, but the byte stream they hash comes from derived `Hash`
//! impls, which Rust does not pin across releases — so anything written
//! to disk needs an explicit encoding whose layout this module owns.
//! Everything is little-endian, length-prefixed, and versioned by the
//! *consumer* (the on-disk cache format of `tricheck-dist` embeds a
//! format version and a checksum around these payloads; a layout change
//! here must bump that version).
//!
//! The codec is deliberately strict in one direction only: encoding is
//! infallible and deterministic (equal values produce equal bytes, which
//! the disk store exploits to compare programs without decoding), while
//! decoding validates every length, tag and event index and returns
//! [`CodecError`] instead of panicking. A corrupted payload therefore
//! degrades to "cache miss", never to a malformed value.
//!
//! # Examples
//!
//! ```
//! use tricheck_litmus::codec::{self, ByteReader};
//! use tricheck_litmus::{suite, MemOrder};
//!
//! let test = suite::mp([MemOrder::Rlx; 4]);
//! let bytes = codec::encode_program(test.program());
//! let mut r = ByteReader::new(&bytes);
//! let decoded = codec::decode_program::<MemOrder>(&mut r).unwrap();
//! assert_eq!(&decoded, test.program());
//! ```

use tricheck_rel::{EventSet, Relation};

use crate::arena::ExecArena;
use crate::exec::{Event, EventKind, Execution};
use crate::mir::{Expr, Instr, Loc, Program, Reg, RmwKind, Val};
use crate::order::MemOrder;
use crate::outcome::Outcome;

/// A decoding failure: truncated input, an unknown tag, or a value that
/// violates an invariant (e.g. an event index out of range).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// A tag byte or field value was not one the decoder recognizes, or
    /// violated a structural invariant. The message names the field.
    Invalid(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEof => f.write_str("unexpected end of input"),
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A cursor over an encoded byte slice. All reads bounds-check and
/// return [`CodecError::UnexpectedEof`] past the end.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] if fewer than 2 bytes remain.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads a `u32`-length-prefixed byte string.
    ///
    /// # Errors
    /// [`CodecError::UnexpectedEof`] if the declared length overruns the
    /// input.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`CodecError`] on truncation or non-UTF-8 content.
    pub fn string(&mut self) -> Result<String, CodecError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError::Invalid("utf-8 string"))
    }
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed byte string.
///
/// # Panics
/// Panics if `bytes` exceeds `u32::MAX` bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(
        out,
        u32::try_from(bytes.len()).expect("byte string fits u32"),
    );
    out.extend_from_slice(bytes);
}

/// Appends a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// An instruction annotation with a pinned binary encoding — the hook
/// that lets the generic [`Program`]/[`Execution`] codecs cover both the
/// C11 level ([`MemOrder`], implemented here) and the hardware level
/// (`HwAnnot`, implemented in `tricheck-isa`).
pub trait AnnCodec: Sized {
    /// A one-byte discriminator distinguishing annotation levels in file
    /// headers, so a C11-level payload can never be decoded as hardware
    /// annotations (each implementation picks a unique value).
    const TAG: u8;

    /// Appends the annotation's encoding.
    fn encode_ann(&self, out: &mut Vec<u8>);

    /// Decodes one annotation.
    ///
    /// # Errors
    /// [`CodecError`] on truncation or an unknown discriminator.
    fn decode_ann(r: &mut ByteReader<'_>) -> Result<Self, CodecError>;
}

impl AnnCodec for MemOrder {
    const TAG: u8 = 1;

    fn encode_ann(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MemOrder::Rlx => 0,
            MemOrder::Acq => 1,
            MemOrder::Rel => 2,
            MemOrder::AcqRel => 3,
            MemOrder::Sc => 4,
        });
    }

    fn decode_ann(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => MemOrder::Rlx,
            1 => MemOrder::Acq,
            2 => MemOrder::Rel,
            3 => MemOrder::AcqRel,
            4 => MemOrder::Sc,
            _ => return Err(CodecError::Invalid("memory order")),
        })
    }
}

fn put_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Const(c) => {
            out.push(0);
            put_u64(out, *c);
        }
        Expr::Reg(r) => {
            out.push(1);
            out.push(r.0);
        }
    }
}

fn read_expr(r: &mut ByteReader<'_>) -> Result<Expr, CodecError> {
    Ok(match r.u8()? {
        0 => Expr::Const(r.u64()?),
        1 => Expr::Reg(Reg(r.u8()?)),
        _ => return Err(CodecError::Invalid("expression tag")),
    })
}

fn put_instr<A: AnnCodec>(out: &mut Vec<u8>, i: &Instr<A>) {
    match i {
        Instr::Read { dst, addr, ann } => {
            out.push(0);
            out.push(dst.0);
            put_expr(out, addr);
            ann.encode_ann(out);
        }
        Instr::Write { addr, val, ann } => {
            out.push(1);
            put_expr(out, addr);
            put_expr(out, val);
            ann.encode_ann(out);
        }
        Instr::Rmw {
            dst,
            addr,
            kind,
            ann,
        } => {
            out.push(2);
            out.push(dst.0);
            put_expr(out, addr);
            match kind {
                RmwKind::FetchAddZero => out.push(0),
                RmwKind::Swap(v) => {
                    out.push(1);
                    put_expr(out, v);
                }
            }
            ann.encode_ann(out);
        }
        Instr::Fence { ann } => {
            out.push(3);
            ann.encode_ann(out);
        }
    }
}

fn read_instr<A: AnnCodec>(r: &mut ByteReader<'_>) -> Result<Instr<A>, CodecError> {
    Ok(match r.u8()? {
        0 => Instr::Read {
            dst: Reg(r.u8()?),
            addr: read_expr(r)?,
            ann: A::decode_ann(r)?,
        },
        1 => Instr::Write {
            addr: read_expr(r)?,
            val: read_expr(r)?,
            ann: A::decode_ann(r)?,
        },
        2 => Instr::Rmw {
            dst: Reg(r.u8()?),
            addr: read_expr(r)?,
            kind: match r.u8()? {
                0 => RmwKind::FetchAddZero,
                1 => RmwKind::Swap(read_expr(r)?),
                _ => return Err(CodecError::Invalid("rmw kind")),
            },
            ann: A::decode_ann(r)?,
        },
        3 => Instr::Fence {
            ann: A::decode_ann(r)?,
        },
        _ => return Err(CodecError::Invalid("instruction tag")),
    })
}

/// Encodes a program (threads, instructions, and its full location set).
#[must_use]
pub fn encode_program<A: AnnCodec>(p: &Program<A>) -> Vec<u8> {
    let mut out = Vec::new();
    put_u16(&mut out, p.threads().len() as u16);
    for thread in p.threads() {
        put_u16(&mut out, thread.len() as u16);
        for instr in thread {
            put_instr(&mut out, instr);
        }
    }
    put_u16(&mut out, p.locations().len() as u16);
    for loc in p.locations() {
        put_u64(&mut out, loc.0);
    }
    out
}

/// Decodes a program and re-validates it through [`Program::new`]
/// (register discipline, event budget), so a tampered payload cannot
/// produce a program the enumeration engine would choke on.
///
/// # Errors
/// [`CodecError`] on truncation, unknown tags, or validation failure.
pub fn decode_program<A: AnnCodec>(r: &mut ByteReader<'_>) -> Result<Program<A>, CodecError> {
    let n_threads = r.u16()? as usize;
    let mut threads = Vec::with_capacity(n_threads);
    for _ in 0..n_threads {
        let n_instrs = r.u16()? as usize;
        let mut thread = Vec::with_capacity(n_instrs);
        for _ in 0..n_instrs {
            thread.push(read_instr(r)?);
        }
        threads.push(thread);
    }
    let n_locs = r.u16()? as usize;
    let mut locations = Vec::with_capacity(n_locs);
    for _ in 0..n_locs {
        locations.push(Loc(r.u64()?));
    }
    // The encoded location set is the validated original's, which is a
    // superset of the constant addresses `Program::new` re-derives, so
    // round-tripping reproduces the set exactly.
    Program::new(threads, locations).map_err(|_| CodecError::Invalid("program validation"))
}

/// Encodes an outcome (its `(thread, register) = value` entries).
#[must_use]
pub fn encode_outcome(o: &Outcome) -> Vec<u8> {
    let mut out = Vec::new();
    put_u16(&mut out, o.len() as u16);
    for ((tid, reg), val) in o.iter() {
        put_u32(&mut out, tid as u32);
        out.push(reg.0);
        put_u64(&mut out, val.0);
    }
    out
}

/// Decodes an outcome.
///
/// # Errors
/// [`CodecError::UnexpectedEof`] on truncation.
pub fn decode_outcome(r: &mut ByteReader<'_>) -> Result<Outcome, CodecError> {
    let n = r.u16()? as usize;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let tid = r.u32()? as usize;
        let reg = Reg(r.u8()?);
        let val = Val(r.u64()?);
        entries.push(((tid, reg), val));
    }
    Ok(Outcome::from_values(entries))
}

/// Encodes an observed-register list (an outcome-partition cache key).
pub fn put_observed(out: &mut Vec<u8>, observed: &[(usize, Reg)]) {
    put_u16(out, observed.len() as u16);
    for &(tid, reg) in observed {
        put_u32(out, tid as u32);
        out.push(reg.0);
    }
}

/// Decodes an observed-register list.
///
/// # Errors
/// [`CodecError::UnexpectedEof`] on truncation.
pub fn read_observed(r: &mut ByteReader<'_>) -> Result<Vec<(usize, Reg)>, CodecError> {
    let n = r.u16()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let tid = r.u32()? as usize;
        out.push((tid, Reg(r.u8()?)));
    }
    Ok(out)
}

const NO_TID: u8 = 0xFF;

fn put_relation(out: &mut Vec<u8>, rel: &Relation, n: usize) {
    for a in 0..n {
        put_u64(out, rel.successors(a).bits());
    }
}

fn read_relation(r: &mut ByteReader<'_>, n: usize) -> Result<Relation, CodecError> {
    let mut rows = [0u64; tricheck_rel::MAX_EVENTS];
    for row in &mut rows[..n] {
        *row = r.u64()?;
    }
    Relation::try_from_row_words(n, &rows[..n]).ok_or(CodecError::Invalid("relation event index"))
}

/// Encodes one candidate execution.
#[must_use]
pub fn encode_execution<A: AnnCodec>(e: &Execution<A>) -> Vec<u8> {
    let n = e.len();
    let mut out = Vec::new();
    out.push(n as u8);
    for ev in e.events() {
        out.push(ev.tid.map_or(NO_TID, |t| t as u8));
        out.push(ev.po_index as u8);
        out.push(match ev.kind {
            EventKind::Read => 0,
            EventKind::Write => 1,
            EventKind::Fence => 2,
        });
        match &ev.ann {
            Some(a) => {
                out.push(1);
                a.encode_ann(&mut out);
            }
            None => out.push(0),
        }
        out.push(u8::from(ev.is_rmw));
    }
    for rel in [&e.po, &e.addr, &e.data, &e.rmw, &e.rf, &e.co] {
        put_relation(&mut out, rel, n);
    }
    for slot in &e.loc {
        match slot {
            Some(l) => {
                out.push(1);
                put_u64(&mut out, l.0);
            }
            None => out.push(0),
        }
    }
    for slot in &e.val {
        match slot {
            Some(v) => {
                out.push(1);
                put_u64(&mut out, v.0);
            }
            None => out.push(0),
        }
    }
    put_u64(&mut out, e.inits.bits());
    put_u16(&mut out, e.reg_def.len() as u16);
    for &((tid, reg), ev) in &e.reg_def {
        put_u32(&mut out, tid as u32);
        out.push(reg.0);
        out.push(ev as u8);
    }
    out
}

/// Decodes one candidate execution.
///
/// # Errors
/// [`CodecError`] on truncation or out-of-range event indices.
pub fn decode_execution<A: AnnCodec>(r: &mut ByteReader<'_>) -> Result<Execution<A>, CodecError> {
    let n = r.u8()? as usize;
    if n > tricheck_rel::MAX_EVENTS {
        return Err(CodecError::Invalid("event count"));
    }
    let mut events = Vec::with_capacity(n);
    for id in 0..n {
        let tid = match r.u8()? {
            NO_TID => None,
            t => Some(t as usize),
        };
        let po_index = r.u8()? as usize;
        let kind = match r.u8()? {
            0 => EventKind::Read,
            1 => EventKind::Write,
            2 => EventKind::Fence,
            _ => return Err(CodecError::Invalid("event kind")),
        };
        let ann = match r.u8()? {
            0 => None,
            1 => Some(A::decode_ann(r)?),
            _ => return Err(CodecError::Invalid("annotation flag")),
        };
        let is_rmw = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Invalid("rmw flag")),
        };
        events.push(Event {
            id,
            tid,
            po_index,
            kind,
            ann,
            is_rmw,
        });
    }
    let po = read_relation(r, n)?;
    let addr = read_relation(r, n)?;
    let data = read_relation(r, n)?;
    let rmw = read_relation(r, n)?;
    let rf = read_relation(r, n)?;
    let co = read_relation(r, n)?;
    let mut loc = Vec::with_capacity(n);
    for _ in 0..n {
        loc.push(match r.u8()? {
            0 => None,
            1 => Some(Loc(r.u64()?)),
            _ => return Err(CodecError::Invalid("location flag")),
        });
    }
    let mut val = Vec::with_capacity(n);
    for _ in 0..n {
        val.push(match r.u8()? {
            0 => None,
            1 => Some(Val(r.u64()?)),
            _ => return Err(CodecError::Invalid("value flag")),
        });
    }
    let init_bits = r.u64()?;
    if n < 64 && init_bits >> n != 0 {
        return Err(CodecError::Invalid("init set event index"));
    }
    let inits = EventSet::from_ids(n, (0..n).filter(|&i| init_bits & (1u64 << i) != 0));
    let n_defs = r.u16()? as usize;
    let mut reg_def: Vec<((usize, Reg), usize)> = Vec::with_capacity(n_defs.min(n));
    for _ in 0..n_defs {
        let tid = r.u32()? as usize;
        let reg = Reg(r.u8()?);
        let ev = r.u8()? as usize;
        if ev >= n {
            return Err(CodecError::Invalid("register definition event index"));
        }
        if reg_def.last().is_some_and(|&(key, _)| key >= (tid, reg)) {
            return Err(CodecError::Invalid("register definition order"));
        }
        reg_def.push(((tid, reg), ev));
    }
    Ok(Execution {
        events,
        po,
        addr,
        data,
        rmw,
        rf,
        co,
        loc,
        val,
        inits,
        reg_def,
    })
}

/// Appends a columnar [`ExecArena`] to `out`: a `u32` candidate count,
/// then (for a non-empty arena) the skeleton execution as one framed
/// [`encode_execution`] payload followed by the flat `rf`/`co` word
/// columns and the `loc`/`val` option columns. The derived `fr` column
/// is never written — [`read_arena`] re-derives it in one pass.
///
/// Deterministic like every encoder here: equal arenas produce equal
/// bytes, which the disk store's skip-unchanged-writes check relies on.
pub fn put_arena<A: AnnCodec + Clone>(out: &mut Vec<u8>, arena: &ExecArena<A>) {
    put_u32(out, arena.len() as u32);
    let Some(skeleton) = arena.skeleton() else {
        return;
    };
    put_bytes(out, &encode_execution(skeleton));
    let (rf, co, loc, val) = arena.raw_columns();
    for &w in rf {
        put_u64(out, w);
    }
    for &w in co {
        put_u64(out, w);
    }
    for slot in loc {
        match slot {
            Some(l) => {
                out.push(1);
                put_u64(out, l.0);
            }
            None => out.push(0),
        }
    }
    for slot in val {
        match slot {
            Some(v) => {
                out.push(1);
                put_u64(out, v.0);
            }
            None => out.push(0),
        }
    }
}

/// Decodes a [`put_arena`] payload, validating the skeleton frame, the
/// column sizes against the remaining input, and every relation word
/// against the skeleton's event universe.
pub fn read_arena<A: AnnCodec + Clone>(r: &mut ByteReader<'_>) -> Result<ExecArena<A>, CodecError> {
    let len = r.u32()? as usize;
    if len == 0 {
        return Ok(ExecArena::new());
    }
    let frame = r.bytes()?;
    let mut fr = ByteReader::new(frame);
    let skeleton = decode_execution::<A>(&mut fr)?;
    if fr.remaining() != 0 {
        return Err(CodecError::Invalid("trailing bytes in skeleton frame"));
    }
    let n = skeleton.len();
    // Bound the column allocations by the bytes actually present before
    // reserving anything: 8 per relation word (two word columns) plus at
    // least 1 per option slot (two option columns).
    let words = len
        .checked_mul(n)
        .ok_or(CodecError::Invalid("arena column size overflow"))?;
    let need = words
        .checked_mul(2 * 8 + 2)
        .ok_or(CodecError::Invalid("arena column size overflow"))?;
    if r.remaining() < need {
        return Err(CodecError::UnexpectedEof);
    }
    let read_words = |r: &mut ByteReader<'_>| -> Result<Vec<u64>, CodecError> {
        let mut col = Vec::with_capacity(words);
        for _ in 0..words {
            let w = r.u64()?;
            if n < 64 && w >> n != 0 {
                return Err(CodecError::Invalid("arena relation event index"));
            }
            col.push(w);
        }
        Ok(col)
    };
    let rf = read_words(r)?;
    let co = read_words(r)?;
    let mut loc = Vec::with_capacity(words);
    for _ in 0..words {
        loc.push(match r.u8()? {
            0 => None,
            1 => Some(Loc(r.u64()?)),
            _ => return Err(CodecError::Invalid("location tag")),
        });
    }
    let mut val = Vec::with_capacity(words);
    for _ in 0..words {
        val.push(match r.u8()? {
            0 => None,
            1 => Some(Val(r.u64()?)),
            _ => return Err(CodecError::Invalid("value tag")),
        });
    }
    Ok(ExecArena::from_columns(
        Some(skeleton),
        len,
        rf,
        co,
        loc,
        val,
    ))
}

/// The pinned 64-bit FNV-1a used for content hashes in the persistence
/// layer (the same mixing as [`crate::Fingerprint`], exposed over raw
/// bytes so stores can checksum payloads and key entries without
/// depending on derived `Hash` byte streams).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    use std::hash::Hasher as _;
    let mut h = crate::space::Fnv1a::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate_executions;
    use crate::suite;

    #[test]
    fn program_roundtrips_at_c11_level() {
        for t in [
            suite::mp([MemOrder::Rlx; 4]),
            suite::fig3_wrc(),
            suite::fig13_mp_lazy(),
            suite::fig4_iriw_sc(),
        ] {
            let bytes = encode_program(t.program());
            let mut r = ByteReader::new(&bytes);
            let decoded = decode_program::<MemOrder>(&mut r).expect("roundtrip");
            assert_eq!(&decoded, t.program(), "{}", t.name());
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn program_encoding_is_deterministic() {
        let a = suite::mp([MemOrder::Sc; 4]);
        let b = suite::mp([MemOrder::Sc; 4]);
        assert_eq!(encode_program(a.program()), encode_program(b.program()));
    }

    #[test]
    fn outcome_roundtrips() {
        let t = suite::fig3_wrc();
        let bytes = encode_outcome(t.target());
        let decoded = decode_outcome(&mut ByteReader::new(&bytes)).expect("roundtrip");
        assert_eq!(&decoded, t.target());
    }

    #[test]
    fn execution_roundtrips() {
        let t = suite::mp([MemOrder::Rlx, MemOrder::Rel, MemOrder::Acq, MemOrder::Rlx]);
        let mut execs = Vec::new();
        enumerate_executions(t.program(), &mut |e| {
            execs.push(e.clone());
            true
        });
        assert!(!execs.is_empty());
        for e in &execs {
            let bytes = encode_execution(e);
            let decoded =
                decode_execution::<MemOrder>(&mut ByteReader::new(&bytes)).expect("roundtrip");
            assert_eq!(&decoded, e);
        }
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let t = suite::sb([MemOrder::Rlx; 4]);
        let bytes = encode_program(t.program());
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                decode_program::<MemOrder>(&mut r).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn garbage_tags_are_rejected() {
        // An instruction tag of 9 does not exist.
        let mut bytes = Vec::new();
        put_u16(&mut bytes, 1); // one thread
        put_u16(&mut bytes, 1); // one instruction
        bytes.push(9);
        assert_eq!(
            decode_program::<MemOrder>(&mut ByteReader::new(&bytes)),
            Err(CodecError::Invalid("instruction tag"))
        );
    }

    #[test]
    fn fnv1a_matches_fingerprint_mixing() {
        // Empty input is the offset basis; the mixing constants are the
        // pinned FNV-1a parameters.
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        // The published FNV-1a-64 test vectors: stores written by any
        // build checksum alike.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
