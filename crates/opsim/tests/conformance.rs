//! Black-box conformance testing in the spirit of TSOtool (paper §8,
//! related work [22]): generate *random* concurrent programs — not just
//! litmus shapes — execute them exhaustively on the operational machines,
//! and check every concrete outcome against the matching axiomatic model.
//!
//! Seeds are fixed so the suite is deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tricheck_isa::{AccessTypes, FenceKind, HwAnnot, SpecVersion};
use tricheck_litmus::{ConsistencyModel, Expr, Instr, Program, Reg};
use tricheck_opsim::OpMachine;
use tricheck_uarch::UarchModel;

/// Generates a random hardware-level program: 2–3 threads, 2–4
/// instructions each, over 2 locations, with plain accesses and
/// occasional fences. Every load targets a fresh register so all reads
/// are observable.
fn random_program(rng: &mut StdRng) -> (Program<HwAnnot>, Vec<(usize, Reg)>) {
    let n_threads = rng.gen_range(2..=3);
    let locations = [1u64, 2u64];
    let mut observed = Vec::new();
    let mut threads = Vec::new();
    for tid in 0..n_threads {
        let len = rng.gen_range(2..=3);
        let mut thread = Vec::new();
        let mut next_reg = 0u8;
        for _ in 0..len {
            let addr = Expr::Const(locations[rng.gen_range(0..locations.len())]);
            match rng.gen_range(0..10) {
                0..=3 => {
                    let dst = Reg(next_reg);
                    next_reg += 1;
                    observed.push((tid, dst));
                    thread.push(Instr::Read {
                        dst,
                        addr,
                        ann: HwAnnot::Plain,
                    });
                }
                4..=7 => {
                    let val = Expr::Const(rng.gen_range(1..=3));
                    thread.push(Instr::Write {
                        addr,
                        val,
                        ann: HwAnnot::Plain,
                    });
                }
                8 => thread.push(Instr::Fence {
                    ann: HwAnnot::Fence(FenceKind::Normal {
                        pred: AccessTypes::RW,
                        succ: AccessTypes::RW,
                    }),
                }),
                _ => thread.push(Instr::Fence {
                    ann: HwAnnot::Fence(FenceKind::Normal {
                        pred: AccessTypes::RW,
                        succ: AccessTypes::W,
                    }),
                }),
            }
        }
        threads.push(thread);
    }
    let program = Program::new(threads, locations.map(tricheck_litmus::Loc))
        .expect("generated programs are valid");
    (program, observed)
}

fn check_conformance(seed: u64, cases: usize, op_of: impl Fn(usize) -> OpMachine, ax: &UarchModel) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..cases {
        let (program, observed) = random_program(&mut rng);
        let op = op_of(program.threads().len());
        let concrete = op.run(&program, &observed);
        let axiomatic = ax.observable_outcomes(&program, &observed);
        assert!(
            concrete.is_subset(&axiomatic),
            "case {case} (seed {seed}): {} produced outcomes the axiomatic {} forbids\n\
             concrete-only: {:?}\nprogram: {:#?}",
            op.config().name,
            ax.name(),
            concrete.difference(&axiomatic).collect::<Vec<_>>(),
            program
        );
    }
}

#[test]
fn wr_machine_conforms_to_wr_model() {
    check_conformance(11, 40, OpMachine::wr, &UarchModel::wr(SpecVersion::Curr));
}

#[test]
fn rwr_machine_conforms_to_rwr_model() {
    check_conformance(12, 40, OpMachine::rwr, &UarchModel::rwr(SpecVersion::Curr));
}

#[test]
fn rwm_machine_conforms_to_rwm_model() {
    check_conformance(13, 40, OpMachine::rwm, &UarchModel::rwm(SpecVersion::Curr));
}

#[test]
fn rmm_machine_conforms_to_rmm_model() {
    check_conformance(14, 40, OpMachine::rmm, &UarchModel::rmm(SpecVersion::Curr));
}

#[test]
fn shared_buffer_pairs_conform_to_nwr_model() {
    // Pair the first two threads in one buffer group.
    check_conformance(
        15,
        40,
        |n| {
            let mut groups = vec![vec![0, 1]];
            groups.extend((2..n).map(|t| vec![t]));
            OpMachine::nwr_with_groups(groups)
        },
        &UarchModel::nwr(SpecVersion::Curr),
    );
}

#[test]
fn shared_buffer_pairs_conform_to_nmm_model() {
    check_conformance(
        16,
        40,
        |n| {
            let mut groups = vec![vec![0, 1]];
            groups.extend((2..n).map(|t| vec![t]));
            OpMachine::nmm_with_groups(groups)
        },
        &UarchModel::nmm(SpecVersion::Curr),
    );
}

#[test]
fn stronger_machines_nest_operationally() {
    // WR ⊆ rWR ⊆ rWM ⊆ rMM outcome-wise, on random programs.
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..30 {
        let (program, observed) = random_program(&mut rng);
        let n = program.threads().len();
        let chain = [
            OpMachine::wr(n),
            OpMachine::rwr(n),
            OpMachine::rwm(n),
            OpMachine::rmm(n),
        ];
        let mut prev = None;
        for machine in chain {
            let outcomes = machine.run(&program, &observed);
            if let Some(prev_set) = prev {
                assert!(
                    // Each machine's outcome set contains its stronger
                    // predecessor's.
                    outcomes.is_superset(&prev_set),
                    "{} lost outcomes of its stronger predecessor",
                    machine.config().name
                );
            }
            prev = Some(outcomes);
        }
    }
}
