//! Litmus test templates and the permutation generator (paper §3.2,
//! Figure 5).
//!
//! A template is a litmus test skeleton whose memory accesses carry
//! *placeholder* slots instead of concrete C11 memory orders. The
//! generator instantiates every combination of applicable orders (three
//! per slot), which is how the paper derives its 1,701-test suite from
//! seven templates.

use std::fmt;

use crate::mir::{Program, Reg};
use crate::order::MemOrder;
use crate::outcome::Outcome;

/// Whether a template slot is a load or a store, which determines the
/// memory orders the generator may place in it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotKind {
    /// Load slot: instantiated with `{rlx, acq, sc}`.
    Load,
    /// Store slot: instantiated with `{rlx, rel, sc}`.
    Store,
}

impl SlotKind {
    /// The memory orders this slot ranges over.
    #[must_use]
    pub fn orders(self) -> &'static [MemOrder] {
        match self {
            SlotKind::Load => &MemOrder::LOAD_ORDERS,
            SlotKind::Store => &MemOrder::STORE_ORDERS,
        }
    }
}

/// A concrete litmus test: a C11 program plus its designated target
/// outcome (the "interesting" outcome the test asks about).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LitmusTest {
    name: String,
    family: &'static str,
    program: Program<MemOrder>,
    target: Outcome,
}

impl LitmusTest {
    /// Creates a litmus test.
    ///
    /// `family` names the template the test came from (e.g. `"wrc"`);
    /// standalone tests may use any static string.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        family: &'static str,
        program: Program<MemOrder>,
        target: Outcome,
    ) -> Self {
        LitmusTest {
            name: name.into(),
            family,
            program,
            target,
        }
    }

    /// The test's unique name (template name plus order suffix).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The template family this test belongs to.
    #[must_use]
    pub fn family(&self) -> &'static str {
        self.family
    }

    /// The C11 program.
    #[must_use]
    pub fn program(&self) -> &Program<MemOrder> {
        &self.program
    }

    /// The target outcome under scrutiny.
    #[must_use]
    pub fn target(&self) -> &Outcome {
        &self.target
    }

    /// The registers the target outcome constrains.
    #[must_use]
    pub fn observed(&self) -> &[(usize, Reg)] {
        self.target.observed()
    }
}

impl fmt::Display for LitmusTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.name, self.target)
    }
}

/// A template's builder: memory orders in, instantiated test out.
type BuildFn = Box<dyn Fn(&[MemOrder]) -> LitmusTest + Send + Sync>;

/// A litmus test template: a name, slot kinds, and a builder that turns a
/// concrete order assignment into a [`LitmusTest`].
///
/// # Examples
///
/// ```
/// use tricheck_litmus::suite;
///
/// let wrc = suite::wrc_template();
/// assert_eq!(wrc.variant_count(), 243); // 3^5
/// let tests: Vec<_> = wrc.instantiate_all().collect();
/// assert_eq!(tests.len(), 243);
/// ```
pub struct Template {
    name: &'static str,
    slots: Vec<SlotKind>,
    build: BuildFn,
}

impl Template {
    /// Creates a template from its slot kinds and builder function.
    ///
    /// The builder receives exactly `slots.len()` memory orders, one per
    /// slot in order of appearance.
    #[must_use]
    pub fn new(
        name: &'static str,
        slots: Vec<SlotKind>,
        build: impl Fn(&[MemOrder]) -> LitmusTest + Send + Sync + 'static,
    ) -> Self {
        Template {
            name,
            slots,
            build: Box::new(build),
        }
    }

    /// The template's name (also the family of its instantiations).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The slot kinds, in order.
    #[must_use]
    pub fn slots(&self) -> &[SlotKind] {
        &self.slots
    }

    /// Number of variants the generator will produce (`3^slots`).
    #[must_use]
    pub fn variant_count(&self) -> usize {
        3usize.pow(self.slots.len() as u32)
    }

    /// Instantiates the template with a specific order assignment.
    ///
    /// # Panics
    ///
    /// Panics if `orders.len() != self.slots().len()` or an order is
    /// invalid for its slot kind.
    #[must_use]
    pub fn instantiate(&self, orders: &[MemOrder]) -> LitmusTest {
        assert_eq!(
            orders.len(),
            self.slots.len(),
            "template {} takes {} orders",
            self.name,
            self.slots.len()
        );
        for (i, (&o, &k)) in orders.iter().zip(&self.slots).enumerate() {
            assert!(
                k.orders().contains(&o),
                "slot {i} of {} cannot take order {o}",
                self.name
            );
        }
        (self.build)(orders)
    }

    /// Iterates over all `3^slots` instantiations (the paper's generator).
    pub fn instantiate_all(&self) -> impl Iterator<Item = LitmusTest> + '_ {
        let total = self.variant_count();
        (0..total).map(move |mut idx| {
            let orders: Vec<MemOrder> = self
                .slots
                .iter()
                .map(|k| {
                    let o = k.orders()[idx % 3];
                    idx /= 3;
                    o
                })
                .collect();
            self.instantiate(&orders)
        })
    }
}

impl fmt::Debug for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Template")
            .field("name", &self.name)
            .field("slots", &self.slots)
            .finish_non_exhaustive()
    }
}

/// Builds the canonical suffix for a variant's name from its orders, e.g.
/// `"wrc+rel+acq+rlx"`.
#[must_use]
pub fn variant_name(template: &str, orders: &[MemOrder]) -> String {
    let mut name = String::from(template);
    for o in orders {
        name.push('+');
        name.push_str(o.short_name());
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    #[test]
    fn instantiate_all_is_exhaustive_and_unique() {
        let t = suite::mp_template();
        let names: std::collections::BTreeSet<String> = t
            .instantiate_all()
            .map(|test| test.name().to_string())
            .collect();
        assert_eq!(names.len(), 81);
    }

    #[test]
    #[should_panic(expected = "takes")]
    fn wrong_arity_panics() {
        let _ = suite::mp_template().instantiate(&[MemOrder::Rlx]);
    }

    #[test]
    #[should_panic(expected = "cannot take order")]
    fn wrong_order_kind_panics() {
        // slot 0 of MP is a store; Acq is load-only.
        let _ = suite::mp_template().instantiate(&[
            MemOrder::Acq,
            MemOrder::Rlx,
            MemOrder::Rlx,
            MemOrder::Rlx,
        ]);
    }

    #[test]
    fn variant_name_format() {
        assert_eq!(
            variant_name(
                "mp",
                &[MemOrder::Rlx, MemOrder::Rel, MemOrder::Acq, MemOrder::Sc]
            ),
            "mp+rlx+rel+acq+sc"
        );
    }
}
