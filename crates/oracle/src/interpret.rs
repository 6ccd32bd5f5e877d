//! The reference semantics of [`ModelIr`]: a tree-walking interpreter
//! with no memoization, no interning, and no hoisting. Every
//! [`RelExpr::Ref`] re-evaluates its definition and every base mention
//! re-queries the binding, so it is slow but has nothing to get wrong
//! beyond the grammar: the oracle for `CompiledModel` on arbitrary IRs.

use tricheck_rel::ir::{AxiomKind, BaseRelations, ModelIr, RelExpr, SetExpr};
use tricheck_rel::{EventSet, Relation};

/// Checks every axiom of `ir` against one execution (as presented by
/// the binding), in declaration order.
///
/// # Errors
///
/// The name of the first violated axiom.
///
/// # Panics
///
/// Panics if the model references a base relation, base set, or
/// definition that neither the binding nor the model provides, or if a
/// definition references itself — model-definition bugs, not properties
/// of the execution.
pub fn interpret(ir: &ModelIr, binding: &impl BaseRelations) -> Result<(), &'static str> {
    let mut eval = Naive {
        ir,
        binding,
        resolving: Vec::new(),
    };
    for axiom in ir.axioms() {
        let rel = eval.rel(&axiom.rel);
        let holds = match axiom.kind {
            AxiomKind::Acyclic => rel.is_acyclic(),
            AxiomKind::Irreflexive => rel.is_irreflexive(),
            AxiomKind::Empty => rel.is_empty(),
        };
        if !holds {
            return Err(axiom.name);
        }
    }
    Ok(())
}

struct Naive<'a, B> {
    ir: &'a ModelIr,
    binding: &'a B,
    /// Definitions being evaluated, innermost last: a reference cycle
    /// panics instead of recursing without bound.
    resolving: Vec<&'static str>,
}

impl<B: BaseRelations> Naive<'_, B> {
    fn set(&mut self, expr: &SetExpr) -> EventSet {
        let n = self.binding.universe();
        match expr {
            SetExpr::Base(name) => {
                let value = self
                    .binding
                    .set(name)
                    .unwrap_or_else(|| panic!("model references unknown base set '{name}'"));
                assert_eq!(
                    value.universe(),
                    n,
                    "base set '{name}' has the wrong universe"
                );
                value
            }
            SetExpr::Universe => EventSet::full(n),
            SetExpr::Empty => EventSet::empty(n),
            SetExpr::Union(a, b) => self.set(a).union(self.set(b)),
            SetExpr::Inter(a, b) => self.set(a).intersect(self.set(b)),
            SetExpr::Minus(a, b) => self.set(a).minus(self.set(b)),
        }
    }

    fn rel(&mut self, expr: &RelExpr) -> Relation {
        let n = self.binding.universe();
        match expr {
            RelExpr::Base(name) => {
                let value = self
                    .binding
                    .rel(name)
                    .unwrap_or_else(|| panic!("model references unknown base relation '{name}'"));
                assert_eq!(
                    value.universe(),
                    n,
                    "base relation '{name}' has the wrong universe"
                );
                value.clone()
            }
            RelExpr::Ref(name) => {
                assert!(
                    !self.resolving.contains(name),
                    "model definition '{name}' references itself (cycle: {:?})",
                    self.resolving
                );
                let ir = self.ir;
                let (_, body) = ir
                    .defs()
                    .iter()
                    .find(|(def, _)| def == name)
                    .unwrap_or_else(|| panic!("model references undefined relation '{name}'"));
                self.resolving.push(name);
                let value = self.rel(body);
                self.resolving.pop();
                value
            }
            RelExpr::Empty => Relation::empty(n),
            RelExpr::Id => Relation::identity(n),
            RelExpr::Cross(a, b) => Relation::cross(self.set(a), self.set(b)),
            RelExpr::Union(a, b) => self.rel(a).union(&self.rel(b)),
            RelExpr::Inter(a, b) => self.rel(a).intersect(&self.rel(b)),
            RelExpr::Minus(a, b) => self.rel(a).minus(&self.rel(b)),
            RelExpr::Seq(a, b) => self.rel(a).compose(&self.rel(b)),
            RelExpr::Inverse(a) => self.rel(a).inverse(),
            RelExpr::Plus(a) => self.rel(a).transitive_closure(),
            RelExpr::Star(a) => self.rel(a).reflexive_transitive_closure(),
            RelExpr::Opt(a) => self.rel(a).maybe(),
            RelExpr::Restrict(a, dom, rng) => {
                let (dom, rng) = (self.set(dom), self.set(rng));
                self.rel(a).restrict(dom, rng)
            }
        }
    }
}
