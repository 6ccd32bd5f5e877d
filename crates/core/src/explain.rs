//! Diagnosis support for the refinement loop (paper Figure 6, the
//! "Fix one or more models" arrow).
//!
//! When Step 4 flags a discrepancy, the designer needs to know *which*
//! execution misbehaves and *which* ordering was (or was not) enforced.
//! [`diagnose`] produces, for one litmus test on one stack:
//!
//! - the C11 verdict for the target outcome,
//! - the µarch verdict, with a **witness execution** when the outcome is
//!   observable (the paper: "TriCheck provides information that aids
//!   designers in determining if the cause is an incorrect compiler
//!   mapping, ISA specification, hardware implementation…"),
//! - when the outcome is µarch-forbidden, the axiom each candidate
//!   execution trips over, as reported by the same compiled kernel that
//!   produced the verdict,
//! - a Graphviz rendering of the witness in the spirit of the Check
//!   tools' µhb graphs.

use std::fmt;
use std::fmt::Write as _;

use tricheck_c11::C11Model;
use tricheck_compiler::{compile, CompileError, Mapping};
use tricheck_litmus::enumerate::enumerate_matching;
use tricheck_litmus::LitmusTest;
use tricheck_rel::Judge;
use tricheck_uarch::{HwBinding, UarchModel};

use crate::verdict::{Classification, TestResult};

/// The full diagnosis of one litmus test on one stack configuration.
#[derive(Clone, Debug)]
pub struct Diagnosis {
    /// The litmus test's name.
    pub test: String,
    /// Whether C11 permits the target outcome.
    pub c11_permits: bool,
    /// Whether the microarchitecture exhibits it.
    pub uarch_observes: bool,
    /// The Step 4 classification.
    pub classification: Classification,
    /// A textual event listing of the witness execution, when observable.
    pub witness: Option<Vec<String>>,
    /// A Graphviz DOT rendering of the witness, when observable.
    pub witness_dot: Option<String>,
    /// How many target-matching candidates each axiom rejected (the
    /// "why is this forbidden" view): `(axiom name, count)` for every
    /// axiom with a nonzero count, under the model's own names and in
    /// its declaration order (`ModelIr::axioms`). When observable, only
    /// the candidates judged before the witness.
    pub rejections: Vec<(&'static str, usize)>,
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "test: {}", self.test)?;
        writeln!(
            f,
            "C11 {} the target; microarchitecture {} it => {}",
            if self.c11_permits {
                "permits"
            } else {
                "forbids"
            },
            if self.uarch_observes {
                "observes"
            } else {
                "cannot observe"
            },
            self.classification
        )?;
        if let Some(witness) = &self.witness {
            writeln!(f, "witness execution:")?;
            for line in witness {
                writeln!(f, "  {line}")?;
            }
        }
        if !self.rejections.is_empty() {
            writeln!(f, "candidate executions rejected by axiom:")?;
            for (axiom, count) in &self.rejections {
                writeln!(f, "  {axiom}: {count}")?;
            }
        }
        Ok(())
    }
}

/// Runs the full toolflow for one test and explains the verdict.
///
/// Every target-matching candidate is judged once, by one [`Judge`]
/// over the model's compiled kernel: the first consistent
/// candidate is the witness, and until one turns up each rejection is
/// counted under the axiom the kernel reports. The verdict and its
/// explanation therefore come from the same evaluation.
///
/// # Errors
///
/// Returns a [`CompileError`] if the mapping cannot express the test.
pub fn diagnose(
    mapping: &dyn Mapping,
    uarch: &UarchModel,
    test: &LitmusTest,
) -> Result<Diagnosis, CompileError> {
    let compiled = compile(test, mapping)?;
    let mut judge = Judge::new(uarch.compiled());
    let mut witness = None;
    let mut witness_dot = None;
    let axioms = uarch.ir().axioms();
    let mut counts = vec![0usize; axioms.len()];

    enumerate_matching(compiled.program(), compiled.target(), &mut |exec| {
        match judge.check(&HwBinding::new(exec)) {
            Ok(()) => {
                let lines = (0..exec.len())
                    .map(|e| {
                        let mut line = exec.describe_event(e);
                        if let Some(src) = exec.rf().inverse().successors(e).iter().next() {
                            let _ = write!(line, "  (reads from e{src})");
                        }
                        line
                    })
                    .collect();
                witness = Some(lines);
                witness_dot = Some(exec.to_dot(test.name(), &[]));
                false // one witness suffices
            }
            Err(axiom) => {
                let index = axioms.iter().position(|a| a.name == axiom);
                counts[index.expect("the kernel reports the model's own axioms")] += 1;
                true
            }
        }
    });

    let rejections = axioms
        .iter()
        .zip(counts)
        .filter(|&(_, count)| count > 0)
        .map(|(axiom, count)| (axiom.name, count))
        .collect();
    let result = TestResult::new(
        test,
        C11Model::new().permits_target(test),
        witness.is_some(),
    );
    Ok(Diagnosis {
        test: test.name().to_string(),
        c11_permits: result.permitted(),
        uarch_observes: result.observable(),
        classification: result.classification(),
        witness,
        witness_dot,
        rejections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use tricheck_compiler::riscv_mapping;
    use tricheck_isa::RiscvIsa::{Base, BaseA};
    use tricheck_isa::SpecVersion::{Curr, Ours};
    use tricheck_litmus::{suite, MemOrder};

    #[test]
    fn bug_diagnosis_carries_a_witness() {
        let d = diagnose(
            riscv_mapping(Base, Curr),
            &UarchModel::nwr(Curr),
            &suite::fig3_wrc(),
        )
        .unwrap();
        assert_eq!(d.classification, Classification::Bug);
        let witness = d.witness.expect("observable outcome must have a witness");
        assert!(witness.iter().any(|l| l.contains("reads from")));
        let dot = d.witness_dot.expect("witness must render");
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("cluster_t2"));
    }

    #[test]
    fn forbidden_diagnosis_names_the_blocking_axioms() {
        let d = diagnose(
            riscv_mapping(Base, Ours),
            &UarchModel::nwr(Ours),
            &suite::fig3_wrc(),
        )
        .unwrap();
        assert_eq!(d.classification, Classification::Equivalent);
        assert!(d.witness.is_none());
        assert!(!d.rejections.is_empty());
        // The WRC fix works through write propagation (cumulative fences).
        let total: usize = d.rejections.iter().map(|&(_, count)| count).sum();
        assert!(total > 0);
        assert!(
            d.rejections
                .iter()
                .any(|&(axiom, _)| axiom == "Observation" || axiom == "Propagation"),
            "WRC must be blocked by a propagation-class axiom: {:?}",
            d.rejections
        );
    }

    #[test]
    fn display_is_informative() {
        let d = diagnose(
            riscv_mapping(Base, Curr),
            &UarchModel::nmm(Curr),
            &suite::fig3_wrc(),
        )
        .unwrap();
        let text = d.to_string();
        assert!(text.contains("Bug"));
        assert!(text.contains("witness execution"));

        let d = diagnose(
            riscv_mapping(Base, Ours),
            &UarchModel::nwr(Ours),
            &suite::fig3_wrc(),
        )
        .unwrap();
        let text = d.to_string();
        assert!(text.contains("candidate executions rejected by axiom:"));
        for (axiom, count) in &d.rejections {
            assert!(text.contains(&format!("\n  {axiom}: {count}\n")), "{text}");
        }
    }

    /// A file-defined model reports rejections under its own axiom
    /// names, including names no built-in model uses.
    #[test]
    fn file_model_rejections_use_its_own_axiom_names() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/models/renamed-axioms.cat");
        let model = crate::load_model_file(&path)
            .unwrap()
            .stacks
            .swap_remove(0)
            .model;
        let test = suite::wrc([MemOrder::Sc; 5]);
        assert_eq!(test.name(), "wrc+sc+sc+sc+sc+sc");
        let d = diagnose(riscv_mapping(Base, Curr), &model, &test).unwrap();
        assert!(!d.uarch_observes);
        assert!(
            d.rejections
                .iter()
                .any(|&(axiom, count)| axiom == "Obs" && count > 0),
            "{:?}",
            d.rejections
        );
        let names: Vec<&str> = model.ir().axioms().iter().map(|a| a.name).collect();
        assert!(d.rejections.iter().all(|(axiom, _)| names.contains(axiom)));
    }

    /// Rejections are listed in the model's axiom order, not by name:
    /// the fixture declares `RmwAtomicity` before `Coherence`, and both
    /// reject a candidate of this test.
    #[test]
    fn rejections_follow_the_models_axiom_order() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/models/axiom-order.cat");
        let model = crate::load_model_file(&path)
            .unwrap()
            .stacks
            .swap_remove(0)
            .model;
        let test = suite::corr([MemOrder::Sc, MemOrder::Sc, MemOrder::Rlx, MemOrder::Rlx]);
        assert_eq!(test.name(), "corr+sc+sc+rlx+rlx");
        let d = diagnose(riscv_mapping(BaseA, Curr), &model, &test).unwrap();
        assert_eq!(d.rejections, [("RmwAtomicity", 1), ("Coherence", 1)]);
        let text = d.to_string();
        let listed = text
            .split_once("candidate executions rejected by axiom:\n")
            .map(|(_, rest)| rest);
        assert_eq!(
            listed,
            Some("  RmwAtomicity: 1\n  Coherence: 1\n"),
            "{text}"
        );
    }
}
