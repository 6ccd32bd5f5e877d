//! The shared micro-IR: multi-threaded straight-line programs over shared
//! locations and thread-local registers.
//!
//! Both C11-level litmus tests and their compiled ISA-level counterparts
//! are values of [`Program<A>`] for different annotation types `A`.

use std::error::Error;
use std::fmt;

/// A thread-local register, assigned at most once per thread (litmus tests
/// are in single-assignment form).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg(pub u8);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A shared-memory location, identified by its address.
///
/// Addresses double as values so that litmus tests can store an address
/// into memory and later load through it (the address-dependency pattern
/// of the paper's Figure 13).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Loc(pub u64);

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            1 => write!(f, "x"),
            2 => write!(f, "y"),
            3 => write!(f, "z"),
            a => write!(f, "loc{a}"),
        }
    }
}

/// A runtime value. Values and addresses share one domain (see [`Loc`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Val(pub u64);

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Loc> for Val {
    fn from(l: Loc) -> Val {
        Val(l.0)
    }
}

/// An operand: either a constant or a previously-assigned register.
///
/// Register operands induce syntactic address/data dependencies (§2.2 of
/// the paper).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Expr {
    /// A literal value (or address).
    Const(u64),
    /// The value of a register assigned by an earlier load in the same
    /// thread.
    Reg(Reg),
}

impl Expr {
    /// The register this expression depends on, if any.
    #[must_use]
    pub fn dep(&self) -> Option<Reg> {
        match self {
            Expr::Const(_) => None,
            Expr::Reg(r) => Some(*r),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Reg(r) => write!(f, "{r}"),
        }
    }
}

/// What a read-modify-write instruction writes back.
///
/// These two shapes are exactly the idioms the RISC-V manual blesses for
/// implementing C11 atomic loads and stores with AMOs (§5.2 of the paper):
/// an atomic load is an `AMOADD` of zero (writing back the value read) and
/// an atomic store is an `AMOSWAP` (writing a fresh value, discarding the
/// old one).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RmwKind {
    /// Write back exactly the value read (`amoadd` with addend zero).
    FetchAddZero,
    /// Write the given operand, ignoring the value read (`amoswap`).
    Swap(Expr),
}

/// One instruction of the micro-IR, annotated with `A` (a C11 memory order
/// or a hardware annotation).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Instr<A> {
    /// Load from `addr` into `dst`.
    Read {
        /// Destination register.
        dst: Reg,
        /// Address operand (register operands create address dependencies).
        addr: Expr,
        /// Level-specific annotation.
        ann: A,
    },
    /// Store `val` to `addr`.
    Write {
        /// Address operand.
        addr: Expr,
        /// Value operand (register operands create data dependencies).
        val: Expr,
        /// Level-specific annotation.
        ann: A,
    },
    /// Atomic read-modify-write of `addr`; the read value lands in `dst`.
    Rmw {
        /// Destination register for the value read.
        dst: Reg,
        /// Address operand.
        addr: Expr,
        /// What gets written back.
        kind: RmwKind,
        /// Level-specific annotation.
        ann: A,
    },
    /// A memory fence.
    Fence {
        /// Level-specific annotation.
        ann: A,
    },
}

impl<A> Instr<A> {
    /// The annotation carried by this instruction.
    pub fn ann(&self) -> &A {
        match self {
            Instr::Read { ann, .. }
            | Instr::Write { ann, .. }
            | Instr::Rmw { ann, .. }
            | Instr::Fence { ann } => ann,
        }
    }

    /// Rewrites the annotation type, leaving the shape untouched.
    pub fn map_ann<B>(self, f: &mut impl FnMut(A) -> B) -> Instr<B> {
        match self {
            Instr::Read { dst, addr, ann } => Instr::Read {
                dst,
                addr,
                ann: f(ann),
            },
            Instr::Write { addr, val, ann } => Instr::Write {
                addr,
                val,
                ann: f(ann),
            },
            Instr::Rmw {
                dst,
                addr,
                kind,
                ann,
            } => Instr::Rmw {
                dst,
                addr,
                kind,
                ann: f(ann),
            },
            Instr::Fence { ann } => Instr::Fence { ann: f(ann) },
        }
    }
}

/// Errors detected when validating a [`Program`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProgramError {
    /// A register is assigned more than once in a thread.
    RegisterReassigned {
        /// Thread index.
        tid: usize,
        /// Position of the second assignment in the thread.
        index: usize,
        /// The offending register.
        reg: Reg,
    },
    /// An expression reads a register that no earlier instruction in the
    /// thread assigns.
    UndefinedRegister {
        /// Thread index.
        tid: usize,
        /// Position of the reading instruction in the thread.
        index: usize,
        /// The register that was read before assignment.
        reg: Reg,
    },
    /// The program has more events than the relation engine supports.
    TooManyEvents {
        /// Number of events the program would generate (including the
        /// implicit initialization writes).
        events: usize,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::RegisterReassigned { tid, reg, .. } => {
                write!(f, "register {reg} assigned twice in thread {tid}")
            }
            ProgramError::UndefinedRegister { tid, reg, .. } => {
                write!(f, "register {reg} read before assignment in thread {tid}")
            }
            ProgramError::TooManyEvents { events } => {
                write!(
                    f,
                    "program has {events} events, exceeding the supported maximum of 64"
                )
            }
        }
    }
}

impl Error for ProgramError {}

/// A multi-threaded straight-line program over shared memory.
///
/// All declared locations are implicitly initialized to `0` before any
/// thread runs, matching litmus-test convention.
///
/// # Examples
///
/// ```
/// use tricheck_litmus::{Expr, Instr, Loc, Program, Reg};
///
/// // Message passing, annotations elided (unit).
/// let x = Loc(1);
/// let y = Loc(2);
/// let prog: Program<()> = Program::new(vec![
///     vec![
///         Instr::Write { addr: Expr::Const(x.0), val: Expr::Const(1), ann: () },
///         Instr::Write { addr: Expr::Const(y.0), val: Expr::Const(1), ann: () },
///     ],
///     vec![
///         Instr::Read { dst: Reg(0), addr: Expr::Const(y.0), ann: () },
///         Instr::Read { dst: Reg(1), addr: Expr::Const(x.0), ann: () },
///     ],
/// ], [])?;
/// assert_eq!(prog.threads().len(), 2);
/// assert_eq!(prog.locations(), &[x, y]);
/// # Ok::<(), tricheck_litmus::ProgramError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Program<A> {
    threads: Vec<Vec<Instr<A>>>,
    locations: Vec<Loc>,
}

impl<A> Program<A> {
    /// Builds and validates a program.
    ///
    /// The location set is the union of all constant addresses appearing
    /// in the program and the `extra_locations` (needed when a
    /// register-dependent address can evaluate to a location no constant
    /// names, e.g. location `0` reached through an uninitialized-looking
    /// register in the paper's Figure 13 test).
    ///
    /// # Errors
    ///
    /// Returns a [`ProgramError`] if a register is assigned twice, an
    /// expression references an unassigned register, or the program is too
    /// large for the 64-event relation engine.
    pub fn new(
        threads: Vec<Vec<Instr<A>>>,
        extra_locations: impl IntoIterator<Item = Loc>,
    ) -> Result<Self, ProgramError> {
        // Kept sorted and free of duplicates as addresses are added, so
        // the common case — every constant address already among the
        // extras, as in a compiled test — allocates once, exactly.
        let mut locations: Vec<Loc> = extra_locations.into_iter().collect();
        locations.sort_unstable();
        locations.dedup();
        let mut events = 0usize;
        for (tid, thread) in threads.iter().enumerate() {
            // One bit per register `r0`…`r255`: assigned so far.
            let mut assigned = [0u64; 4];
            let is_assigned =
                |assigned: &[u64; 4], r: Reg| assigned[r.0 as usize / 64] >> (r.0 % 64) & 1 != 0;
            for (index, instr) in thread.iter().enumerate() {
                let check_expr = |e: &Expr| -> Result<(), ProgramError> {
                    match e.dep() {
                        Some(reg) if !is_assigned(&assigned, reg) => {
                            Err(ProgramError::UndefinedRegister { tid, index, reg })
                        }
                        _ => Ok(()),
                    }
                };
                let (addr, dst) = match instr {
                    Instr::Read { dst, addr, .. } => {
                        check_expr(addr)?;
                        events += 1;
                        (Some(addr), Some(*dst))
                    }
                    Instr::Write { addr, val, .. } => {
                        check_expr(addr)?;
                        check_expr(val)?;
                        events += 1;
                        (Some(addr), None)
                    }
                    Instr::Rmw {
                        dst, addr, kind, ..
                    } => {
                        check_expr(addr)?;
                        if let RmwKind::Swap(v) = kind {
                            check_expr(v)?;
                        }
                        events += 2; // read half + write half
                        (Some(addr), Some(*dst))
                    }
                    Instr::Fence { .. } => {
                        events += 1;
                        (None, None)
                    }
                };
                if let Some(Expr::Const(a)) = addr {
                    if let Err(at) = locations.binary_search(&Loc(*a)) {
                        locations.insert(at, Loc(*a));
                    }
                }
                if let Some(reg) = dst {
                    if is_assigned(&assigned, reg) {
                        return Err(ProgramError::RegisterReassigned { tid, index, reg });
                    }
                    assigned[reg.0 as usize / 64] |= 1 << (reg.0 % 64);
                }
            }
        }

        let total = events + locations.len();
        if total > tricheck_rel::MAX_EVENTS {
            return Err(ProgramError::TooManyEvents { events: total });
        }
        Ok(Program { threads, locations })
    }

    /// The threads of the program, in thread-id order.
    pub fn threads(&self) -> &[Vec<Instr<A>>] {
        &self.threads
    }

    /// The shared locations of the program, in address order. Each is
    /// implicitly initialized to `0`.
    pub fn locations(&self) -> &[Loc] {
        &self.locations
    }

    /// Rewrites every instruction annotation, preserving program shape.
    ///
    /// This is how compiler mappings are *not* applied — mappings change
    /// instruction counts; `map_ann` is for relabelling only (e.g. tagging
    /// C11 orders with extra metadata).
    pub fn map_ann<B>(self, mut f: impl FnMut(A) -> B) -> Program<B> {
        Program {
            threads: self
                .threads
                .into_iter()
                .map(|t| t.into_iter().map(|i| i.map_ann(&mut f)).collect())
                .collect(),
            locations: self.locations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(dst: u8, addr: u64) -> Instr<()> {
        Instr::Read {
            dst: Reg(dst),
            addr: Expr::Const(addr),
            ann: (),
        }
    }

    fn write(addr: u64, val: u64) -> Instr<()> {
        Instr::Write {
            addr: Expr::Const(addr),
            val: Expr::Const(val),
            ann: (),
        }
    }

    #[test]
    fn collects_locations_from_const_addresses() {
        let p = Program::new(vec![vec![write(1, 1), write(2, 1)], vec![read(0, 2)]], [])
            .expect("valid program");
        assert_eq!(p.locations(), &[Loc(1), Loc(2)]);
    }

    #[test]
    fn extra_locations_are_merged_and_deduplicated() {
        let p = Program::new(vec![vec![write(1, 1)]], [Loc(0), Loc(1)]).expect("valid");
        assert_eq!(p.locations(), &[Loc(0), Loc(1)]);
    }

    #[test]
    fn rejects_register_reassignment() {
        let err = Program::new(vec![vec![read(0, 1), read(0, 2)]], []).unwrap_err();
        assert_eq!(
            err,
            ProgramError::RegisterReassigned {
                tid: 0,
                index: 1,
                reg: Reg(0)
            }
        );
    }

    #[test]
    fn rejects_undefined_register_reads() {
        let p: Result<Program<()>, _> = Program::new(
            vec![vec![Instr::Read {
                dst: Reg(1),
                addr: Expr::Reg(Reg(0)),
                ann: (),
            }]],
            [],
        );
        assert_eq!(
            p.unwrap_err(),
            ProgramError::UndefinedRegister {
                tid: 0,
                index: 0,
                reg: Reg(0)
            }
        );
    }

    #[test]
    fn register_defined_earlier_in_thread_is_fine() {
        let p: Result<Program<()>, _> = Program::new(
            vec![vec![
                read(0, 1),
                Instr::Read {
                    dst: Reg(1),
                    addr: Expr::Reg(Reg(0)),
                    ann: (),
                },
            ]],
            [],
        );
        assert!(p.is_ok());
    }

    #[test]
    fn rejects_oversized_programs() {
        let thread: Vec<Instr<()>> = (0..70).map(|_| write(1, 1)).collect();
        let err = Program::new(vec![thread], []).unwrap_err();
        assert!(matches!(err, ProgramError::TooManyEvents { .. }));
    }

    #[test]
    fn rmw_counts_two_events() {
        // 31 RMWs = 62 events + 1 location = 63: fits. 32 RMWs = 65: too big.
        let rmw = |n: usize| -> Vec<Instr<()>> {
            (0..n)
                .map(|i| Instr::Rmw {
                    dst: Reg(i as u8),
                    addr: Expr::Const(1),
                    kind: RmwKind::FetchAddZero,
                    ann: (),
                })
                .collect()
        };
        assert!(Program::new(vec![rmw(31)], []).is_ok());
        assert!(Program::new(vec![rmw(32)], []).is_err());
    }
}
