//! Step 4 verdicts: comparing HLL and microarchitecture judgements.

use std::collections::BTreeSet;
use std::fmt;

use tricheck_litmus::{LitmusTest, Outcome};

/// The outcome of TriCheck's equivalence check for one litmus test
/// (paper Figure 6, bottom-left quadrant table).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Classification {
    /// The HLL forbids the behaviour but the microarchitecture exhibits
    /// it. Correction is mandatory.
    Bug,
    /// The HLL permits the behaviour but the microarchitecture cannot
    /// exhibit it. Legal, but leaves performance on the table; a designer
    /// may wish to relax the ISA or the implementation.
    OverlyStrict,
    /// HLL and microarchitecture agree.
    Equivalent,
}

/// The Step 4 classification of a (permitted, observable) verdict pair.
pub(crate) fn classify(permitted: bool, observable: bool) -> Classification {
    match (permitted, observable) {
        (false, true) => Classification::Bug,
        (true, false) => Classification::OverlyStrict,
        _ => Classification::Equivalent,
    }
}

impl Classification {
    /// A (permitted, observable) pair that [`classify`] maps back to
    /// `self`: how a set-level verdict (full-outcome sweep mode) is
    /// reported as a [`TestResult`], whose bits are then set-level facts
    /// rather than verdicts about the designated target outcome.
    pub(crate) fn quadrant(self) -> (bool, bool) {
        match self {
            Classification::Bug => (false, true),
            Classification::OverlyStrict => (true, false),
            Classification::Equivalent => (true, true),
        }
    }
}

impl fmt::Display for Classification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Classification::Bug => "Bug",
            Classification::OverlyStrict => "Overly Strict",
            Classification::Equivalent => "Equivalent",
        };
        f.write_str(s)
    }
}

/// The per-test result of the target-outcome toolflow.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TestResult {
    name: String,
    family: &'static str,
    permitted: bool,
    observable: bool,
}

impl TestResult {
    pub(crate) fn new(test: &LitmusTest, permitted: bool, observable: bool) -> Self {
        TestResult {
            name: test.name().to_string(),
            family: test.family(),
            permitted,
            observable,
        }
    }

    /// The litmus test's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The litmus template family the test came from.
    #[must_use]
    pub fn family(&self) -> &'static str {
        self.family
    }

    /// Step 1 verdict: does C11 permit the target outcome?
    ///
    /// For results produced in full-outcome sweep mode
    /// (`OutcomeMode::FullOutcomes`), this bit is the synthesized
    /// set-level quadrant — `false` only when the cell has a bug
    /// witness — not a verdict about the designated target outcome.
    #[must_use]
    pub fn permitted(&self) -> bool {
        self.permitted
    }

    /// Step 3 verdict: does the microarchitecture exhibit it?
    ///
    /// Carries the same full-outcome-mode caveat as
    /// [`TestResult::permitted`]: in that mode it is a set-level fact,
    /// not a target-outcome verdict.
    #[must_use]
    pub fn observable(&self) -> bool {
        self.observable
    }

    /// The Step 4 classification.
    #[must_use]
    pub fn classification(&self) -> Classification {
        classify(self.permitted, self.observable)
    }
}

impl fmt::Display for TestResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: C11 {} / µarch {} => {}",
            self.name,
            if self.permitted { "permits" } else { "forbids" },
            if self.observable {
                "observes"
            } else {
                "cannot observe"
            },
            self.classification()
        )
    }
}

/// The result of the full outcome-set equivalence check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FullComparison {
    name: String,
    permitted: BTreeSet<Outcome>,
    observable: BTreeSet<Outcome>,
}

impl FullComparison {
    pub(crate) fn new(
        name: &str,
        permitted: BTreeSet<Outcome>,
        observable: BTreeSet<Outcome>,
    ) -> Self {
        FullComparison {
            name: name.to_string(),
            permitted,
            observable,
        }
    }

    /// The litmus test's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Every outcome C11 permits.
    #[must_use]
    pub fn permitted(&self) -> &BTreeSet<Outcome> {
        &self.permitted
    }

    /// Every outcome the microarchitecture exhibits.
    #[must_use]
    pub fn observable(&self) -> &BTreeSet<Outcome> {
        &self.observable
    }

    /// Outcomes forbidden by C11 yet observable — each one a bug witness.
    #[must_use]
    pub fn bug_witnesses(&self) -> BTreeSet<Outcome> {
        self.observable
            .difference(&self.permitted)
            .cloned()
            .collect()
    }

    /// Outcomes permitted by C11 yet unobservable.
    #[must_use]
    pub fn strictness_witnesses(&self) -> BTreeSet<Outcome> {
        self.permitted
            .difference(&self.observable)
            .cloned()
            .collect()
    }

    /// The classification implied by the outcome sets: any bug witness
    /// makes the test a [`Classification::Bug`]; otherwise any strictness
    /// witness makes it [`Classification::OverlyStrict`].
    #[must_use]
    pub fn classification(&self) -> Classification {
        if !self.bug_witnesses().is_empty() {
            Classification::Bug
        } else if !self.strictness_witnesses().is_empty() {
            Classification::OverlyStrict
        } else {
            Classification::Equivalent
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tricheck_litmus::{Reg, Val};

    fn outcome(v: u64) -> Outcome {
        Outcome::from_values([((0, Reg(0)), Val(v))])
    }

    #[test]
    fn classification_quadrants() {
        let mk = |permitted, observable| {
            let t = tricheck_litmus::suite::mp([tricheck_litmus::MemOrder::Rlx; 4]);
            TestResult::new(&t, permitted, observable)
        };
        assert_eq!(mk(false, true).classification(), Classification::Bug);
        assert_eq!(
            mk(true, false).classification(),
            Classification::OverlyStrict
        );
        assert_eq!(mk(true, true).classification(), Classification::Equivalent);
        assert_eq!(
            mk(false, false).classification(),
            Classification::Equivalent
        );
    }

    #[test]
    fn full_comparison_witnesses() {
        let permitted: BTreeSet<Outcome> = [outcome(0), outcome(1)].into_iter().collect();
        let observable: BTreeSet<Outcome> = [outcome(1), outcome(2)].into_iter().collect();
        let cmp = FullComparison::new("t", permitted, observable);
        assert_eq!(cmp.bug_witnesses().len(), 1);
        assert_eq!(cmp.strictness_witnesses().len(), 1);
        assert_eq!(cmp.classification(), Classification::Bug);
    }

    #[test]
    fn equivalent_when_sets_match() {
        let set: BTreeSet<Outcome> = [outcome(0)].into_iter().collect();
        let cmp = FullComparison::new("t", set.clone(), set);
        assert_eq!(cmp.classification(), Classification::Equivalent);
    }

    #[test]
    fn classification_display() {
        assert_eq!(Classification::Bug.to_string(), "Bug");
        assert_eq!(Classification::OverlyStrict.to_string(), "Overly Strict");
        assert_eq!(Classification::Equivalent.to_string(), "Equivalent");
    }
}
