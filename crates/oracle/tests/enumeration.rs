//! The enumerator against the reference enumerator: in all four modes
//! (a target outcome or none × pruning or not),
//! `EnumScratch::enumerate` visits exactly the candidates
//! `naive_candidates` lists, each once. The programs are suite variants
//! at the C11 level and compiled under the four RISC-V mappings, every
//! committed `litmus/*.litmus` file (`dep_fig13` loads through a
//! register-computed address), and seeded small programs whose
//! addresses and values come from registers.
//!
//! The reference tries every `rf` map, so a program is checked only
//! while `writes ^ reads` stays under [`MAX_RF_MAPS`]; each test
//! asserts how many programs it checked.

use proptest::prelude::*;
use tricheck_compiler::{compile, riscv_mapping};
use tricheck_isa::{RiscvIsa, SpecVersion};
use tricheck_litmus::format::parse_litmus;
use tricheck_litmus::{
    suite, EnumScratch, Expr, Instr, LitmusTest, Loc, MemOrder, Outcome, Program, Reg, RmwKind, Val,
};
use tricheck_oracle::{naive_candidates, Candidate};

/// The most `rf` maps the reference enumerates for one program.
const MAX_RF_MAPS: usize = 20_000;

/// The `rf` maps the reference would try: writes to the power of reads.
fn rf_maps<A>(prog: &Program<A>) -> usize {
    let (mut reads, mut writes) = (0u32, prog.locations().len());
    for instr in prog.threads().iter().flatten() {
        match instr {
            Instr::Read { .. } => reads += 1,
            Instr::Write { .. } => writes += 1,
            Instr::Rmw { .. } => {
                reads += 1;
                writes += 1;
            }
            Instr::Fence { .. } => {}
        }
    }
    writes.saturating_pow(reads)
}

/// Checks `prog` in all four modes; returns whether it was small
/// enough to check.
fn agrees<A: Clone>(name: &str, prog: &Program<A>, target: &Outcome) -> bool {
    if rf_maps(prog) > MAX_RF_MAPS {
        return false;
    }
    let mut scratch = EnumScratch::new();
    for target in [None, Some(target)] {
        for prune in [false, true] {
            let mut visited = Vec::new();
            let run = scratch.enumerate(prog, target, prune, &mut |exec| {
                visited.push(Candidate::of(exec));
                true
            });
            assert!(run.completed);
            visited.sort();
            assert_eq!(
                visited,
                naive_candidates(prog, target, prune),
                "{name}: target {}, prune {prune}",
                target.is_some()
            );
        }
    }
    true
}

/// The test at the C11 level and under each RISC-V mapping; returns
/// how many of those programs were checked.
fn test_agrees(test: &LitmusTest) -> usize {
    let mut checked = usize::from(agrees(test.name(), test.program(), test.target()));
    for isa in [RiscvIsa::Base, RiscvIsa::BaseA] {
        for spec in [SpecVersion::Curr, SpecVersion::Ours] {
            let compiled = compile(test, riscv_mapping(isa, spec)).expect("suite tests compile");
            let name = format!("{} ({isa:?}, {spec:?})", test.name());
            checked += usize::from(agrees(&name, compiled.program(), compiled.target()));
        }
    }
    checked
}

fn arb_variant() -> impl Strategy<Value = LitmusTest> {
    (0usize..7, proptest::collection::vec(0usize..3, 6)).prop_map(|(t, picks)| {
        let templates = suite::all_templates();
        let template = &templates[t];
        let orders: Vec<MemOrder> = template
            .slots()
            .iter()
            .zip(&picks)
            .map(|(kind, &p)| kind.orders()[p])
            .collect();
        template.instantiate(&orders)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn enumeration_matches_the_reference_on_suite_variants(test in arb_variant()) {
        prop_assert!(test_agrees(&test) >= 1, "{} too large to check", test.name());
    }
}

#[test]
fn enumeration_matches_the_reference_on_the_litmus_corpus() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../litmus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("litmus corpus")
        .map(|entry| entry.expect("corpus entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "litmus"))
        .collect();
    files.sort();
    let mut checked = 0;
    for path in &files {
        let text = std::fs::read_to_string(path).expect("readable corpus file");
        let test = parse_litmus(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        checked += test_agrees(&test);
    }
    assert!(files.len() >= 5, "{} corpus files", files.len());
    assert!(checked >= 3 * files.len(), "{checked} programs checked");
}

/// A splitmix64 stream.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }
}

/// A small random program over locations and values `0..3`: two or
/// three threads of up to three reads, writes, RMWs and fences, whose
/// addresses and values are constants or earlier registers of the
/// thread (so a value read can become an address). Locations `0` and
/// `1` are declared half the time, so a computed address may land on a
/// location without an initialization write.
fn random_program(rng: &mut SplitMix) -> Program<()> {
    let threads = (0..2 + rng.below(2))
        .map(|_| {
            let mut defined: Vec<Reg> = Vec::new();
            let mut thread = Vec::new();
            for _ in 0..1 + rng.below(3) {
                let operand = |rng: &mut SplitMix| match defined.len() {
                    len if len > 0 && rng.below(3) == 0 => {
                        Expr::Reg(defined[rng.below(len as u64) as usize])
                    }
                    _ => Expr::Const(rng.below(3)),
                };
                let addr = operand(rng);
                let instr = match rng.below(8) {
                    0..=2 => Instr::Read {
                        dst: Reg(defined.len() as u8),
                        addr,
                        ann: (),
                    },
                    3..=5 => Instr::Write {
                        addr,
                        val: operand(rng),
                        ann: (),
                    },
                    6 => Instr::Rmw {
                        dst: Reg(defined.len() as u8),
                        addr,
                        kind: if rng.below(2) == 0 {
                            RmwKind::FetchAddZero
                        } else {
                            RmwKind::Swap(operand(rng))
                        },
                        ann: (),
                    },
                    _ => Instr::Fence { ann: () },
                };
                if let Instr::Read { dst, .. } | Instr::Rmw { dst, .. } = instr {
                    defined.push(dst);
                }
                thread.push(instr);
            }
            thread
        })
        .collect();
    let extra = if rng.below(2) == 0 {
        vec![Loc(0), Loc(1)]
    } else {
        Vec::new()
    };
    Program::new(threads, extra).expect("generated programs are well formed")
}

/// A target over some of the program's registers (now and then one it
/// never assigns), with values `0..3`.
fn random_target(prog: &Program<()>, rng: &mut SplitMix) -> Outcome {
    let mut target = Outcome::new();
    for (tid, thread) in prog.threads().iter().enumerate() {
        for instr in thread {
            if let Instr::Read { dst, .. } | Instr::Rmw { dst, .. } = instr {
                if rng.below(2) == 0 {
                    target.set(tid, *dst, Val(rng.below(3)));
                }
            }
        }
    }
    if rng.below(10) == 0 {
        target.set(0, Reg(9), Val(0));
    }
    target
}

#[test]
fn enumeration_matches_the_reference_on_register_computed_programs() {
    let mut rng = SplitMix(0x656e_756d_6572_6174);
    let (mut checked, mut dynamic) = (0, 0);
    for case in 0..400 {
        let prog = random_program(&mut rng);
        let target = random_target(&prog, &mut rng);
        let computed = prog.threads().iter().flatten().any(|instr| match instr {
            Instr::Read { addr, .. } => addr.dep().is_some(),
            Instr::Write { addr, val, .. } => addr.dep().is_some() || val.dep().is_some(),
            Instr::Rmw { addr, kind, .. } => {
                addr.dep().is_some() || matches!(kind, RmwKind::Swap(Expr::Reg(_)))
            }
            Instr::Fence { .. } => false,
        });
        if agrees(&format!("case {case}: {prog:?}"), &prog, &target) {
            checked += 1;
            dynamic += usize::from(computed);
        }
    }
    assert!(
        checked >= 350 && dynamic >= 100,
        "{checked} programs checked, {dynamic} with register-computed operands"
    );
}
