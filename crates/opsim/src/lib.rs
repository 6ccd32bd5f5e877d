//! An *operational* store-buffer microarchitecture simulator.
//!
//! The paper's Step 3 models microarchitectures axiomatically; this crate
//! provides the corresponding concrete machines — threads, store buffers
//! (private or shared between cores), a flat memory, and an exhaustive
//! nondeterministic scheduler — so the axiomatic models of
//! `tricheck-uarch` can be **cross-validated** against machines that
//! actually execute the compiled litmus tests.
//!
//! The correspondence claim (checked by this crate's test-suite and the
//! repository's conformance tests) is the soundness direction:
//!
//! > every outcome a concrete machine execution produces is observable
//! > under the matching axiomatic model.
//!
//! The operational machines are deliberately on the strict side wherever
//! the hardware gives implementations latitude (e.g. cumulative fences
//! drain the entire shared buffer), so the subset relation is the right
//! correctness statement.
//!
//! # Machine structure
//!
//! - Every thread issues instructions in program order, except that the
//!   out-of-order window ([`OpConfig::ooo`]) lets an instruction execute
//!   early when no unexecuted earlier instruction conflicts with it
//!   (same location, dependency, fence or acquire in between).
//! - Every thread owns a store buffer; *sharing groups*
//!   ([`OpConfig::groups`]) let cores observe each other's buffers, which
//!   is exactly the paper's `nWR`/`nMM` non-multi-copy-atomic mechanism
//!   (§4.3): a sharer reads a buffered store before it reaches memory,
//!   while non-sharers wait for the drain.
//! - A separate drain transition moves one buffered store to memory —
//!   the thread-oldest entry under FIFO ([`OpConfig::fifo`]), otherwise
//!   any entry that is oldest *for its address* (per-location coherence).
//! - Loads forward from the newest same-address entry among the buffers
//!   they can observe ([`OpConfig::forwarding`]); without forwarding a
//!   load stalls while its own thread has the address buffered (the `WR`
//!   machine).
//! - Fences drain (own-thread entries for plain RISC-V fences, the whole
//!   group for cumulative ones) and gate execution; AMOs drain their
//!   group's same-address entries and read-modify-write memory in one
//!   atomic transition.
//!
//! # Example: witnessing the WRC bug on real (simulated) hardware
//!
//! ```
//! use tricheck_compiler::{compile, riscv_mapping};
//! use tricheck_isa::{RiscvIsa, SpecVersion};
//! use tricheck_litmus::suite;
//! use tricheck_opsim::OpMachine;
//!
//! let compiled = compile(&suite::fig3_wrc(), riscv_mapping(RiscvIsa::Base, SpecVersion::Curr))?;
//! // T0 and T1 share a store buffer; T2 has its own: the nWR shape.
//! let machine = OpMachine::nwr_with_groups(vec![vec![0, 1], vec![2]]);
//! let outcomes = machine.run(compiled.program(), compiled.observed());
//! assert!(outcomes.contains(compiled.target()), "the C11-forbidden WRC \
//!         outcome is concretely executable on a shared-buffer machine");
//! # Ok::<(), tricheck_compiler::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};

use tricheck_isa::{FenceKind, HwAnnot};
use tricheck_litmus::{EventKind, Expr, Instr, Outcome, Program, Reg, RmwKind, Val};

/// Configuration of an operational machine.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpConfig {
    /// Display name.
    pub name: String,
    /// Store-buffer sharing groups: a partition of thread ids. Threads in
    /// the same group observe each other's buffered stores.
    pub groups: Vec<Vec<usize>>,
    /// Drain buffered stores strictly in insertion order.
    pub fifo: bool,
    /// Loads may forward from buffered stores.
    pub forwarding: bool,
    /// Out-of-order execution window: instructions may execute before
    /// earlier non-conflicting ones.
    pub ooo: bool,
    /// Enforce same-address load→load program order (§5.1.3 / the
    /// riscv-ours requirement).
    pub same_addr_rr_ordered: bool,
}

impl OpConfig {
    /// The threads whose buffers `tid` can observe (its sharing group).
    fn visible_to(&self, tid: usize) -> &[usize] {
        self.groups
            .iter()
            .find(|g| g.contains(&tid))
            .map(Vec::as_slice)
            .expect("every thread belongs to a buffer group")
    }
}

/// A buffered (not yet drained) store.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct BufEntry {
    /// Monotonic insertion stamp (global, orders cross-buffer visibility).
    stamp: usize,
    addr: u64,
    val: u64,
}

/// Machine state (hashable for memoized exploration).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
struct State {
    executed: Vec<Vec<bool>>,
    regs: Vec<BTreeMap<u8, u64>>,
    /// One FIFO store buffer per *thread*; sharing groups only widen
    /// which buffers a load may forward from.
    buffers: Vec<Vec<BufEntry>>,
    memory: BTreeMap<u64, u64>,
    next_stamp: usize,
}

/// An operational machine: an [`OpConfig`] plus an exhaustive explorer.
#[derive(Clone, Debug)]
pub struct OpMachine {
    config: OpConfig,
}

impl OpMachine {
    /// Wraps an explicit configuration.
    #[must_use]
    pub fn from_config(config: OpConfig) -> Self {
        OpMachine { config }
    }

    /// The `WR` machine for `n` threads: private FIFO buffers, no
    /// forwarding, in-order execution.
    #[must_use]
    pub fn wr(n: usize) -> Self {
        Self::from_config(OpConfig {
            name: "op-WR".into(),
            groups: singleton_groups(n),
            fifo: true,
            forwarding: false,
            ooo: false,
            same_addr_rr_ordered: false,
        })
    }

    /// The `rWR` machine: `WR` plus store-to-load forwarding.
    #[must_use]
    pub fn rwr(n: usize) -> Self {
        let mut m = Self::wr(n);
        m.config.name = "op-rWR".into();
        m.config.forwarding = true;
        m
    }

    /// The `rWM` machine: `rWR` with out-of-order buffer drain.
    #[must_use]
    pub fn rwm(n: usize) -> Self {
        let mut m = Self::rwr(n);
        m.config.name = "op-rWM".into();
        m.config.fifo = false;
        m
    }

    /// The `rMM` machine: `rWM` plus out-of-order execution.
    #[must_use]
    pub fn rmm(n: usize) -> Self {
        let mut m = Self::rwm(n);
        m.config.name = "op-rMM".into();
        m.config.ooo = true;
        m
    }

    /// An `nWR` machine with an explicit buffer-sharing partition.
    #[must_use]
    pub fn nwr_with_groups(groups: Vec<Vec<usize>>) -> Self {
        Self::from_config(OpConfig {
            name: "op-nWR".into(),
            groups,
            fifo: true,
            forwarding: true,
            ooo: false,
            same_addr_rr_ordered: false,
        })
    }

    /// An `nMM` machine with an explicit buffer-sharing partition.
    #[must_use]
    pub fn nmm_with_groups(groups: Vec<Vec<usize>>) -> Self {
        Self::from_config(OpConfig {
            name: "op-nMM".into(),
            groups,
            fifo: false,
            forwarding: true,
            ooo: true,
            same_addr_rr_ordered: false,
        })
    }

    /// The machine's configuration.
    #[must_use]
    pub fn config(&self) -> &OpConfig {
        &self.config
    }

    /// Exhaustively explores every interleaving and returns the set of
    /// final outcomes over the observed registers.
    ///
    /// # Panics
    ///
    /// Panics if the program references a thread id not covered by the
    /// machine's buffer groups.
    #[must_use]
    pub fn run(&self, prog: &Program<HwAnnot>, observed: &[(usize, Reg)]) -> BTreeSet<Outcome> {
        let n_threads = prog.threads().len();
        let init = State {
            executed: prog
                .threads()
                .iter()
                .map(|t| vec![false; t.len()])
                .collect(),
            regs: vec![BTreeMap::new(); n_threads],
            buffers: vec![Vec::new(); n_threads],
            memory: prog.locations().iter().map(|l| (l.0, 0)).collect(),
            next_stamp: 0,
        };
        let mut outcomes = BTreeSet::new();
        let mut visited = BTreeSet::new();
        self.explore(prog, init, observed, &mut visited, &mut outcomes);
        outcomes
    }

    fn explore(
        &self,
        prog: &Program<HwAnnot>,
        state: State,
        observed: &[(usize, Reg)],
        visited: &mut BTreeSet<State>,
        outcomes: &mut BTreeSet<Outcome>,
    ) {
        if !visited.insert(state.clone()) {
            return;
        }
        let mut progressed = false;

        // Transition class 1: execute an eligible instruction.
        for tid in 0..prog.threads().len() {
            for idx in 0..prog.threads()[tid].len() {
                if state.executed[tid][idx] || !self.eligible(prog, &state, tid, idx) {
                    continue;
                }
                for next in self.execute(prog, &state, tid, idx) {
                    progressed = true;
                    self.explore(prog, next, observed, visited, outcomes);
                }
            }
        }
        // Transition class 2: drain one buffered store to memory.
        for t in 0..state.buffers.len() {
            for entry_idx in self.drainable(&state, t) {
                let mut next = state.clone();
                let entry = next.buffers[t].remove(entry_idx);
                next.memory.insert(entry.addr, entry.val);
                progressed = true;
                self.explore(prog, next, observed, visited, outcomes);
            }
        }

        if !progressed && self.is_final(prog, &state) {
            let mut outcome = Outcome::new();
            for &(tid, reg) in observed {
                let v = state.regs[tid].get(&reg.0).copied().unwrap_or(0);
                outcome.set(tid, reg, Val(v));
            }
            outcomes.insert(outcome);
        }
    }

    fn is_final(&self, prog: &Program<HwAnnot>, state: &State) -> bool {
        state.buffers.iter().all(Vec::is_empty)
            && state
                .executed
                .iter()
                .enumerate()
                .all(|(t, flags)| flags.iter().all(|&f| f) || prog.threads()[t].is_empty())
    }

    /// Indices of thread `tid`'s buffer entries allowed to drain next.
    ///
    /// Coherence constraint: same-address entries drain in global stamp
    /// (visibility) order across *all* buffers — a sharer that already
    /// observed a newer buffered store must never see the location revert
    /// once drains land (per-location SC).
    fn drainable(&self, state: &State, tid: usize) -> Vec<usize> {
        let buffer = &state.buffers[tid];
        if buffer.is_empty() {
            return Vec::new();
        }
        let globally_addr_oldest = |entry: &BufEntry| {
            state
                .buffers
                .iter()
                .flatten()
                .all(|e| e.addr != entry.addr || e.stamp >= entry.stamp)
        };
        if self.config.fifo {
            // Thread-oldest entry only (per-thread FIFO).
            let min = buffer
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("non-empty");
            return if globally_addr_oldest(&buffer[min]) {
                vec![min]
            } else {
                Vec::new()
            };
        }
        // Non-FIFO: any entry that is globally oldest for its address.
        (0..buffer.len())
            .filter(|&i| globally_addr_oldest(&buffer[i]))
            .collect()
    }

    /// May instruction `idx` of thread `tid` execute now?
    fn eligible(&self, prog: &Program<HwAnnot>, state: &State, tid: usize, idx: usize) -> bool {
        let thread = &prog.threads()[tid];
        let instr = &thread[idx];
        // Operand registers must be resolved.
        if !self.operands_ready(state, tid, instr) {
            return false;
        }
        let all_earlier_done = (0..idx).all(|j| state.executed[tid][j]);
        if all_earlier_done {
            return self.resource_ready(prog, state, tid, instr);
        }
        // Early execution needs the OOO window and no conflicts.
        if !self.config.ooo {
            return false;
        }
        // Only loads and plain stores may execute early; fences and AMOs
        // are ordering points.
        if matches!(instr, Instr::Fence { .. } | Instr::Rmw { .. }) {
            return false;
        }
        if instr.ann().amo_bits().is_some() {
            return false; // AMO-annotated accesses execute in order
        }
        let my_addr = self.addr_of(state, tid, instr);
        for (j, earlier) in thread.iter().enumerate().take(idx) {
            if state.executed[tid][j] {
                continue;
            }
            if self.conflicts(state, tid, earlier, instr, my_addr) {
                return false;
            }
        }
        self.resource_ready(prog, state, tid, instr)
    }

    fn operands_ready(&self, state: &State, tid: usize, instr: &Instr<HwAnnot>) -> bool {
        let ready = |e: &Expr| match e {
            Expr::Const(_) => true,
            Expr::Reg(r) => state.regs[tid].contains_key(&r.0),
        };
        match instr {
            Instr::Read { addr, .. } => ready(addr),
            Instr::Write { addr, val, .. } => ready(addr) && ready(val),
            Instr::Rmw { addr, kind, .. } => {
                ready(addr)
                    && match kind {
                        RmwKind::FetchAddZero => true,
                        RmwKind::Swap(v) => ready(v),
                    }
            }
            Instr::Fence { .. } => true,
        }
    }

    /// Structural readiness: WR-style stalls (no forwarding) and fence
    /// drain requirements.
    fn resource_ready(
        &self,
        _prog: &Program<HwAnnot>,
        state: &State,
        tid: usize,
        instr: &Instr<HwAnnot>,
    ) -> bool {
        let group = self.config.visible_to(tid);
        let group_holds = |addr: u64| {
            group
                .iter()
                .any(|&t| state.buffers[t].iter().any(|e| e.addr == addr))
        };
        match instr {
            Instr::Read { addr, ann, .. } => {
                let a = self.eval(state, tid, addr);
                if ann.amo_bits().is_some() {
                    // AMO-load: performs at memory; the visible buffers
                    // must not hold the address (drain first).
                    return !group_holds(a);
                }
                if !self.config.forwarding {
                    // No forwarding: stall while own thread buffers the
                    // address.
                    return state.buffers[tid].iter().all(|e| e.addr != a);
                }
                true
            }
            Instr::Write { .. } => true,
            Instr::Rmw { addr, ann, .. } => {
                let a = self.eval(state, tid, addr);
                let rl_ok = if ann.amo_bits().is_some_and(|b| b.rl) {
                    // Release: own earlier stores must have drained.
                    state.buffers[tid].is_empty()
                } else {
                    true
                };
                !group_holds(a) && rl_ok
            }
            Instr::Fence { ann } => match ann.fence_kind() {
                Some(FenceKind::Normal { pred, .. }) => {
                    // Drain own buffered writes if the predecessor set
                    // includes writes.
                    !pred.writes || state.buffers[tid].is_empty()
                }
                // `mfence` drains the issuing thread's buffer like a
                // `fence rw, rw`; cumulative fences additionally drain
                // every visible buffer.
                Some(FenceKind::Mfence) => state.buffers[tid].is_empty(),
                Some(FenceKind::CumulativeLight | FenceKind::CumulativeHeavy) => {
                    // Cumulative fences drain every visible buffer: writes
                    // the thread may have observed from sharers included.
                    group.iter().all(|&t| state.buffers[t].is_empty())
                }
                None => true,
            },
        }
    }

    /// Does unexecuted earlier instruction `earlier` forbid `later` (with
    /// resolved address `later_addr`) from executing early?
    fn conflicts(
        &self,
        state: &State,
        tid: usize,
        earlier: &Instr<HwAnnot>,
        later: &Instr<HwAnnot>,
        later_addr: Option<u64>,
    ) -> bool {
        // Fences and AMO-annotated accesses are ordering points.
        match earlier {
            Instr::Fence { ann } => {
                let Some(kind) = ann.fence_kind() else {
                    return true;
                };
                let later_kind = match later {
                    Instr::Read { .. } => EventKind::Read,
                    Instr::Write { .. } | Instr::Rmw { .. } => EventKind::Write,
                    Instr::Fence { .. } => return true,
                };
                return kind.succ().matches(later_kind);
            }
            Instr::Rmw { .. } => return true,
            _ => {}
        }
        if earlier.ann().amo_bits().is_some_and(|b| b.aq) {
            return true; // acquire: nothing passes it
        }
        // Unresolved earlier address: conservative conflict.
        let earlier_addr = self.addr_of(state, tid, earlier);
        let (Some(ea), Some(la)) = (earlier_addr, later_addr) else {
            return true;
        };
        if ea == la {
            // Same address: only R→R may relax, and only when the ISA
            // does not require same-address load ordering.
            let both_reads =
                matches!(earlier, Instr::Read { .. }) && matches!(later, Instr::Read { .. });
            return !both_reads || self.same_addr_rr_blocks();
        }
        // Dependency: later's operands read a register the earlier load
        // defines.
        if let Instr::Read { dst, .. } = earlier {
            let uses = |e: &Expr| matches!(e, Expr::Reg(r) if r == dst);
            let dep = match later {
                Instr::Read { addr, .. } => uses(addr),
                Instr::Write { addr, val, .. } => uses(addr) || uses(val),
                Instr::Rmw { addr, kind, .. } => {
                    uses(addr)
                        || match kind {
                            RmwKind::FetchAddZero => false,
                            RmwKind::Swap(v) => uses(v),
                        }
                }
                Instr::Fence { .. } => false,
            };
            if dep {
                return true;
            }
        }
        false
    }

    fn same_addr_rr_blocks(&self) -> bool {
        self.config.same_addr_rr_ordered
    }

    fn addr_of(&self, state: &State, tid: usize, instr: &Instr<HwAnnot>) -> Option<u64> {
        let addr = match instr {
            Instr::Read { addr, .. } | Instr::Write { addr, .. } | Instr::Rmw { addr, .. } => addr,
            Instr::Fence { .. } => return None,
        };
        match addr {
            Expr::Const(c) => Some(*c),
            Expr::Reg(r) => state.regs[tid].get(&r.0).copied(),
        }
    }

    fn eval(&self, state: &State, tid: usize, e: &Expr) -> u64 {
        match e {
            Expr::Const(c) => *c,
            Expr::Reg(r) => *state.regs[tid]
                .get(&r.0)
                .expect("operand readiness checked before execution"),
        }
    }

    /// Executes instruction `idx` of thread `tid`, returning the successor
    /// states (loads may have several sources only through scheduling, so
    /// execution itself is deterministic: exactly one successor).
    fn execute(
        &self,
        _prog: &Program<HwAnnot>,
        state: &State,
        tid: usize,
        idx: usize,
    ) -> Vec<State> {
        let instr = &_prog.threads()[tid][idx];
        let mut next = state.clone();
        next.executed[tid][idx] = true;
        match instr {
            Instr::Read { dst, addr, ann } => {
                let a = self.eval(state, tid, addr);
                let v = if ann.amo_bits().is_some() {
                    // AMO-load performs at memory (group pre-drained).
                    *next.memory.get(&a).unwrap_or(&0)
                } else {
                    self.load_value(state, tid, a)
                };
                next.regs[tid].insert(dst.0, v);
            }
            Instr::Write { addr, val, .. } => {
                let a = self.eval(state, tid, addr);
                let v = self.eval(state, tid, val);
                let stamp = next.next_stamp;
                next.next_stamp += 1;
                next.buffers[tid].push(BufEntry {
                    stamp,
                    addr: a,
                    val: v,
                });
            }
            Instr::Rmw {
                dst, addr, kind, ..
            } => {
                let a = self.eval(state, tid, addr);
                let old = *next.memory.get(&a).unwrap_or(&0);
                let new = match kind {
                    RmwKind::FetchAddZero => old,
                    RmwKind::Swap(v) => self.eval(state, tid, v),
                };
                next.memory.insert(a, new);
                next.regs[tid].insert(dst.0, old);
            }
            Instr::Fence { .. } => {}
        }
        vec![next]
    }

    /// Load semantics: newest same-address entry among the buffers the
    /// thread can observe (its own plus its sharing group's), else memory.
    fn load_value(&self, state: &State, tid: usize, addr: u64) -> u64 {
        if self.config.forwarding {
            if let Some(entry) = self
                .config
                .visible_to(tid)
                .iter()
                .flat_map(|&t| state.buffers[t].iter())
                .filter(|e| e.addr == addr)
                .max_by_key(|e| e.stamp)
            {
                return entry.val;
            }
        }
        *state.memory.get(&addr).unwrap_or(&0)
    }
}

fn singleton_groups(n: usize) -> Vec<Vec<usize>> {
    (0..n).map(|t| vec![t]).collect()
}

/// Enumerates every partition of `{0, …, n-1}` (Bell-number many) — the
/// possible store-buffer sharing topologies of an `n`-thread machine.
///
/// # Examples
///
/// ```
/// assert_eq!(tricheck_opsim::partitions(3).len(), 5); // Bell(3)
/// assert_eq!(tricheck_opsim::partitions(4).len(), 15); // Bell(4)
/// ```
#[must_use]
pub fn partitions(n: usize) -> Vec<Vec<Vec<usize>>> {
    fn go(item: usize, n: usize, current: &mut Vec<Vec<usize>>, out: &mut Vec<Vec<Vec<usize>>>) {
        if item == n {
            out.push(current.clone());
            return;
        }
        for g in 0..current.len() {
            current[g].push(item);
            go(item + 1, n, current, out);
            current[g].pop();
        }
        current.push(vec![item]);
        go(item + 1, n, current, out);
        current.pop();
    }
    let mut out = Vec::new();
    if n == 0 {
        return vec![Vec::new()];
    }
    go(0, n, &mut Vec::new(), &mut out);
    out
}

/// Runs a shared-buffer machine over *every* buffer-sharing partition and
/// unions the outcomes — the ISA-level behaviour of "some compliant
/// shared-buffer machine" (which is what the axiomatic `nWR`/`nMM`
/// models characterize).
#[must_use]
pub fn outcomes_over_partitions(
    make: impl Fn(Vec<Vec<usize>>) -> OpMachine,
    prog: &Program<HwAnnot>,
    observed: &[(usize, Reg)],
) -> BTreeSet<Outcome> {
    let n = prog.threads().len();
    let mut all = BTreeSet::new();
    for groups in partitions(n) {
        let machine = make(groups);
        all.extend(machine.run(prog, observed));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricheck_compiler::{compile, riscv_mapping};
    use tricheck_isa::{RiscvIsa, SpecVersion};
    use tricheck_litmus::{suite, ConsistencyModel, MemOrder};

    fn compiled(test: &tricheck_litmus::LitmusTest) -> tricheck_compiler::CompiledTest {
        compile(test, riscv_mapping(RiscvIsa::Base, SpecVersion::Curr)).expect("compiles")
    }

    #[test]
    fn partitions_count_is_bell() {
        assert_eq!(partitions(1).len(), 1);
        assert_eq!(partitions(2).len(), 2);
        assert_eq!(partitions(3).len(), 5);
        assert_eq!(partitions(4).len(), 15);
    }

    #[test]
    fn sequential_program_runs_deterministically() {
        let t = suite::mp([MemOrder::Rlx; 4]);
        let c = compiled(&t);
        let machine = OpMachine::wr(2);
        let outcomes = machine.run(c.program(), c.observed());
        // MP has 3 coherent outcomes on a strong machine: (0,0), (0,1), (1,1).
        assert_eq!(outcomes.len(), 3);
        assert!(
            !outcomes.contains(c.target()),
            "WR must not show stale reads"
        );
    }

    #[test]
    fn sb_is_observable_on_every_buffered_machine() {
        let t = suite::sb([MemOrder::Rlx; 4]);
        let c = compiled(&t);
        for machine in [OpMachine::wr(2), OpMachine::rwr(2), OpMachine::rmm(2)] {
            let outcomes = machine.run(c.program(), c.observed());
            assert!(
                outcomes.contains(c.target()),
                "{} must exhibit store buffering",
                machine.config().name
            );
        }
    }

    #[test]
    fn sb_with_full_fences_is_forbidden_operationally() {
        let t = suite::sb([MemOrder::Sc; 4]);
        let c = compiled(&t);
        for machine in [OpMachine::wr(2), OpMachine::rmm(2)] {
            let outcomes = machine.run(c.program(), c.observed());
            assert!(
                !outcomes.contains(c.target()),
                "{} must forbid fenced SB",
                machine.config().name
            );
        }
    }

    #[test]
    fn forwarding_lets_a_thread_read_its_own_buffered_store() {
        // T0: Wx=1; Rx. Without forwarding the load stalls until drain
        // (still reads 1); with forwarding it reads from the buffer. Both
        // machines agree on the outcome; this pins the stall behaviour.
        use tricheck_isa::build::{lw, sw};
        use tricheck_litmus::{Loc, Program, Reg};
        let prog = Program::new(vec![vec![sw(Loc(1), 1), lw(Reg(0), Loc(1))]], []).unwrap();
        for machine in [OpMachine::wr(1), OpMachine::rwr(1)] {
            let outcomes = machine.run(&prog, &[(0, Reg(0))]);
            assert_eq!(outcomes.len(), 1);
            assert!(outcomes
                .iter()
                .next()
                .unwrap()
                .get(0, Reg(0))
                .is_some_and(|v| v.0 == 1));
        }
    }

    #[test]
    fn wrc_bug_is_concretely_executable_on_shared_buffers() {
        // The §5.1.1 result, on a real machine run: T0/T1 share a buffer,
        // T2 does not; T1 sees x=1 early, publishes y=1 which drains
        // before x does.
        let c = compiled(&suite::fig3_wrc());
        let machine = OpMachine::nwr_with_groups(vec![vec![0, 1], vec![2]]);
        let outcomes = machine.run(c.program(), c.observed());
        assert!(outcomes.contains(c.target()));
        // With private buffers the same machine forbids it.
        let private = OpMachine::nwr_with_groups(vec![vec![0], vec![1], vec![2]]);
        assert!(!private.run(c.program(), c.observed()).contains(c.target()));
    }

    #[test]
    fn refined_mapping_fixes_wrc_even_on_shared_buffers() {
        let c = compile(
            &suite::fig3_wrc(),
            riscv_mapping(RiscvIsa::Base, SpecVersion::Ours),
        )
        .unwrap();
        let outcomes =
            outcomes_over_partitions(OpMachine::nwr_with_groups, c.program(), c.observed());
        assert!(
            !outcomes.contains(c.target()),
            "cumulative lwf must prevent the WRC outcome operationally"
        );
    }

    #[test]
    fn corr_requires_out_of_order_reads() {
        let c = compiled(&suite::corr([MemOrder::Rlx; 4]));
        assert!(!OpMachine::rwr(2)
            .run(c.program(), c.observed())
            .contains(c.target()));
        assert!(OpMachine::rmm(2)
            .run(c.program(), c.observed())
            .contains(c.target()));
    }

    #[test]
    fn corr_fixed_by_same_address_requirement() {
        let c = compiled(&suite::corr([MemOrder::Rlx; 4]));
        let mut machine = OpMachine::rmm(2);
        machine.config.same_addr_rr_ordered = true;
        assert!(!machine.run(c.program(), c.observed()).contains(c.target()));
    }

    #[test]
    fn iriw_needs_shared_buffers() {
        let c = compiled(&suite::fig4_iriw_sc());
        // Writers share buffers with distinct readers: the classic nMCA
        // topology.
        let machine = OpMachine::nwr_with_groups(vec![vec![0, 2], vec![1, 3]]);
        assert!(machine.run(c.program(), c.observed()).contains(c.target()));
        // Private buffers (store-atomic) forbid it.
        let private = OpMachine::wr(4);
        assert!(!private.run(c.program(), c.observed()).contains(c.target()));
    }

    #[test]
    fn amo_operations_are_atomic() {
        // Two threads amoswap the same location; final value must be one
        // of the two swapped values and each thread reads a coherent old
        // value (never a torn/duplicated state where both read 0 and the
        // final value is the first swap).
        use tricheck_isa::build::{amo_store, lw};
        use tricheck_isa::AmoBits;
        use tricheck_litmus::{Loc, Program, Reg};
        let x = Loc(1);
        let prog = Program::new(
            vec![
                vec![amo_store(Reg(0), x, 1, AmoBits::AQ_RL)],
                vec![amo_store(Reg(1), x, 2, AmoBits::AQ_RL)],
                vec![lw(Reg(2), x)],
            ],
            [],
        )
        .unwrap();
        let machine = OpMachine::rmm(3);
        let observed = [(0, Reg(0)), (1, Reg(1)), (2, Reg(2))];
        for o in machine.run(&prog, &observed) {
            let r0 = o.get(0, Reg(0)).unwrap().0;
            let r1 = o.get(1, Reg(1)).unwrap().0;
            // Exactly one of the AMOs saw the other's value or both saw
            // older state, but they can never both claim the same slot.
            assert!(
                (r0 == 0 && r1 == 1) || (r0 == 2 && r1 == 0),
                "non-serializable AMO outcome: r0={r0} r1={r1}"
            );
        }
    }

    // ---- Cross-validation: operational ⊆ axiomatic ----

    fn assert_op_subset_of_ax(
        test: &tricheck_litmus::LitmusTest,
        isa: RiscvIsa,
        version: SpecVersion,
        op: &OpMachine,
        ax: &tricheck_uarch::UarchModel,
    ) {
        let c = compile(test, riscv_mapping(isa, version)).unwrap();
        let op_outcomes = op.run(c.program(), c.observed());
        let ax_outcomes = ax.observable_outcomes(c.program(), c.observed());
        assert!(
            op_outcomes.is_subset(&ax_outcomes),
            "{} on {}: operational outcomes {:?} exceed axiomatic {:?}",
            test.name(),
            op.config().name,
            op_outcomes,
            ax_outcomes
        );
    }

    #[test]
    fn operational_machines_are_within_their_axiomatic_models() {
        use tricheck_uarch::UarchModel;
        let version = SpecVersion::Curr;
        let tests = [
            suite::mp([MemOrder::Rlx; 4]),
            suite::mp([MemOrder::Rlx, MemOrder::Rel, MemOrder::Acq, MemOrder::Rlx]),
            suite::sb([MemOrder::Sc; 4]),
            suite::fig3_wrc(),
            suite::corr([MemOrder::Rlx; 4]),
            suite::rwc([MemOrder::Sc; 5]),
        ];
        for test in &tests {
            let n = test.program().threads().len();
            assert_op_subset_of_ax(
                test,
                RiscvIsa::Base,
                version,
                &OpMachine::wr(n),
                &UarchModel::wr(version),
            );
            assert_op_subset_of_ax(
                test,
                RiscvIsa::Base,
                version,
                &OpMachine::rwr(n),
                &UarchModel::rwr(version),
            );
            assert_op_subset_of_ax(
                test,
                RiscvIsa::Base,
                version,
                &OpMachine::rwm(n),
                &UarchModel::rwm(version),
            );
            assert_op_subset_of_ax(
                test,
                RiscvIsa::Base,
                version,
                &OpMachine::rmm(n),
                &UarchModel::rmm(version),
            );
        }
    }

    #[test]
    fn shared_buffer_machines_are_within_nmca_models() {
        use tricheck_uarch::UarchModel;
        let version = SpecVersion::Curr;
        let tests = [
            suite::fig3_wrc(),
            suite::fig4_iriw_sc(),
            suite::mp([MemOrder::Rlx; 4]),
        ];
        for test in &tests {
            let c = compile(test, riscv_mapping(RiscvIsa::Base, version)).unwrap();
            let op =
                outcomes_over_partitions(OpMachine::nwr_with_groups, c.program(), c.observed());
            let ax = UarchModel::nwr(version).observable_outcomes(c.program(), c.observed());
            assert!(
                op.is_subset(&ax),
                "{}: nWR operational exceeds axiomatic\nop: {:?}\nax: {:?}",
                test.name(),
                op,
                ax
            );
        }
    }
}
