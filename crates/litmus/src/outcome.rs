//! Program outcomes: final register valuations.

use std::fmt;

use crate::mir::{Reg, Val};

/// A program outcome: the values observed by a set of registers, keyed by
/// `(thread id, register)`.
///
/// Litmus tests designate one *target* outcome (the interesting, usually
/// controversial one); memory models are compared on whether they
/// permit/exhibit it. Full outcome *sets* are used for the stronger
/// equivalence check.
///
/// Two short sorted columns hold the entries, so an outcome costs two
/// small allocations (a sweep keeps one per compiled program), and a
/// test's observed registers are its target's
/// [`observed`](Self::observed) keys.
///
/// # Examples
///
/// ```
/// use tricheck_litmus::{Outcome, Reg, Val};
///
/// let o = Outcome::from_values([((1, Reg(0)), Val(1)), ((1, Reg(1)), Val(0))]);
/// assert_eq!(o.get(1, Reg(0)), Some(Val(1)));
/// assert_eq!(o.to_string(), "T1:r0=1, T1:r1=0");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Outcome {
    /// The constrained `(tid, reg)` keys, sorted and distinct.
    regs: Vec<(usize, Reg)>,
    /// `vals[i]` is the value observed by `regs[i]`.
    vals: Vec<Val>,
}

impl Outcome {
    /// Creates an empty outcome.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an outcome from `((tid, reg), value)` entries; a key
    /// given twice keeps its last value.
    #[must_use]
    pub fn from_values<I: IntoIterator<Item = ((usize, Reg), Val)>>(entries: I) -> Self {
        let mut out = Outcome::new();
        for ((tid, reg), val) in entries {
            out.set(tid, reg, val);
        }
        out
    }

    /// Records that `reg` of thread `tid` observed `val`.
    pub fn set(&mut self, tid: usize, reg: Reg, val: Val) {
        match self.regs.binary_search(&(tid, reg)) {
            Ok(i) => self.vals[i] = val,
            Err(i) => {
                self.regs.insert(i, (tid, reg));
                self.vals.insert(i, val);
            }
        }
    }

    /// The value observed by `reg` of thread `tid`, if recorded.
    #[must_use]
    pub fn get(&self, tid: usize, reg: Reg) -> Option<Val> {
        let i = self.regs.binary_search(&(tid, reg)).ok()?;
        Some(self.vals[i])
    }

    /// The `(tid, reg)` keys this outcome constrains, in order.
    #[must_use]
    pub fn observed(&self) -> &[(usize, Reg)] {
        &self.regs
    }

    /// Iterates over all `((tid, reg), value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, Reg), Val)> + '_ {
        self.regs.iter().copied().zip(self.vals.iter().copied())
    }

    /// Number of registers constrained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether the outcome constrains no registers at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }
}

/// Outcomes order as their entry sequences do, key before value.
impl Ord for Outcome {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for Outcome {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for ((tid, reg), val) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "T{tid}:{reg}={val}")?;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_sorted_and_readable() {
        let mut o = Outcome::new();
        o.set(2, Reg(1), Val(0));
        o.set(0, Reg(0), Val(1));
        assert_eq!(o.to_string(), "T0:r0=1, T2:r1=0");
    }

    #[test]
    fn empty_outcome_display_is_nonempty() {
        assert_eq!(Outcome::new().to_string(), "(empty)");
    }

    #[test]
    fn ordering_allows_outcome_sets() {
        use std::collections::BTreeSet;
        let a = Outcome::from_values([((0, Reg(0)), Val(0))]);
        let b = Outcome::from_values([((0, Reg(0)), Val(1))]);
        let set: BTreeSet<_> = [a.clone(), b, a].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn entries_stay_sorted_and_keep_the_last_value() {
        let o = Outcome::from_values([
            ((1, Reg(0)), Val(1)),
            ((0, Reg(2)), Val(5)),
            ((1, Reg(0)), Val(3)),
        ]);
        assert_eq!(o.observed(), &[(0, Reg(2)), (1, Reg(0))]);
        assert_eq!(o.get(1, Reg(0)), Some(Val(3)));
        assert_eq!(o.get(1, Reg(1)), None);
        // Ordered entry by entry, as a map of the same entries is.
        let shorter = Outcome::from_values([((0, Reg(2)), Val(5))]);
        let larger_key = Outcome::from_values([((0, Reg(3)), Val(0))]);
        assert!(shorter < o && o < larger_key);
    }
}
