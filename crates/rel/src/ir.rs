//! A declarative IR for axiomatic memory models.
//!
//! An axiomatic model in the style of Alglave et al.'s *Herding Cats*
//! framework is *data*: a list of named derived relations built from a
//! small algebra over base relations, plus a list of axioms (acyclicity,
//! irreflexivity, emptiness) over those relations. This module provides
//! that data type — [`ModelIr`] — together with the pluggable
//! [`BaseRelations`] binding through which its evaluator,
//! [`CompiledModel`](crate::CompiledModel), judges one candidate
//! execution at a time.
//!
//! # Grammar
//!
//! ```text
//! model  ::= def* axiom+
//! def    ::= name ":=" rel
//! axiom  ::= name ":" ("acyclic" | "irreflexive" | "empty") "(" rel ")"
//!
//! rel    ::= base-name            named base relation from the binding
//!          | ref-name             an earlier def
//!          | "0" | "id"           empty / identity relation
//!          | set "×" set          cross product
//!          | rel "∪" rel | rel "∩" rel | rel "\" rel
//!          | rel ";" rel          relational composition
//!          | rel "⁻¹"             inverse
//!          | rel "⁺" | rel "*" | rel "?"   closures (trans / refl-trans / refl)
//!          | "[" set "]" rel "[" set "]"   domain/range restriction
//!
//! set    ::= base-name            named event set from the binding
//!          | "U" | "∅"            universe / empty set
//!          | set "∪" set | set "∩" set | set "\" set
//! ```
//!
//! Base relations and sets are resolved by name against the binding, so
//! the same model text can be evaluated over any execution
//! representation that can produce its bases. Which names exist is a
//! contract between the model author and the binding; referencing a name
//! the binding does not provide is reported as an evaluation panic (a
//! model definition bug, not a data error).
//!
//! # Worked example: a TSO-like machine
//!
//! ```
//! use tricheck_rel::ir::{AxiomKind, ModelIr, RelExpr, SetExpr};
//! use tricheck_rel::{CompiledModel, EventSet, Relation};
//!
//! fn rel(name: &'static str) -> RelExpr { RelExpr::base(name) }
//!
//! // ppo = po \ (W × R): everything except write→read stays ordered.
//! let ppo = rel("po").minus(RelExpr::cross(SetExpr::base("W"), SetExpr::base("R")));
//! let model = ModelIr::new("toy-tso")
//!     .define("ppo", ppo)
//!     .define("ghb", RelExpr::reference("ppo").union(rel("rfe")).union(rel("fr")).plus())
//!     .axiom("GlobalHappensBefore", AxiomKind::Irreflexive, RelExpr::reference("ghb"));
//!
//! // A binding supplies the bases; here a hand-rolled store-buffering
//! // witness: two threads, each a write then a read of the other
//! // location, both reads seeing the initial state (events 0,1 writes;
//! // 2,3 reads; rf from an implicit init elsewhere so fr points at the
//! // remote writes).
//! struct Sb {
//!     po: Relation,
//!     rfe: Relation,
//!     fr: Relation,
//! }
//! impl tricheck_rel::ir::BaseRelations for Sb {
//!     fn universe(&self) -> usize { 4 }
//!     fn rel(&self, name: &str) -> Option<&Relation> {
//!         Some(match name {
//!             "po" => &self.po,
//!             "rfe" => &self.rfe,
//!             "fr" => &self.fr,
//!             _ => return None,
//!         })
//!     }
//!     fn set(&self, name: &str) -> Option<EventSet> {
//!         Some(match name {
//!             "W" => EventSet::from_ids(4, [0, 1]),
//!             "R" => EventSet::from_ids(4, [2, 3]),
//!             _ => return None,
//!         })
//!     }
//! }
//!
//! // TSO relaxes W→R, so the store-buffering cycle is consistent.
//! let sb = Sb {
//!     po: Relation::from_pairs(4, [(0, 2), (1, 3)]),
//!     rfe: Relation::empty(4),
//!     fr: Relation::from_pairs(4, [(2, 1), (3, 0)]),
//! };
//! assert!(CompiledModel::compile(&model, &[]).consistent(&sb));
//! ```
//!
//! The production models live next to their bindings:
//! `tricheck_c11::C11Model::ir()`, and the hardware models, which are
//! text files under `models/` (the 16 `tricheck_uarch` built-ins plus
//! the x86-TSO stack) parsed against `tricheck_uarch`'s vocabulary —
//! see the crate docs of [`crate`](self) for the worked ARMv7 A9-like
//! definition.

use std::fmt;

use crate::{EventSet, Relation};

/// A set-valued expression over named base event sets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SetExpr {
    /// A named base set resolved by the [`BaseRelations`] binding
    /// (e.g. `"R"`, `"W"`, `"amo-rl"`).
    Base(&'static str),
    /// All events.
    Universe,
    /// No events.
    Empty,
    /// Set union.
    Union(Box<SetExpr>, Box<SetExpr>),
    /// Set intersection.
    Inter(Box<SetExpr>, Box<SetExpr>),
    /// Set difference.
    Minus(Box<SetExpr>, Box<SetExpr>),
}

impl SetExpr {
    /// A named base set.
    #[must_use]
    pub fn base(name: &'static str) -> Self {
        SetExpr::Base(name)
    }

    /// `self ∪ other`.
    #[must_use]
    pub fn union(self, other: SetExpr) -> Self {
        SetExpr::Union(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    #[must_use]
    pub fn inter(self, other: SetExpr) -> Self {
        SetExpr::Inter(Box::new(self), Box::new(other))
    }

    /// `self \ other`.
    #[must_use]
    pub fn minus(self, other: SetExpr) -> Self {
        SetExpr::Minus(Box::new(self), Box::new(other))
    }
}

impl fmt::Display for SetExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetExpr::Base(name) => f.write_str(name),
            SetExpr::Universe => f.write_str("U"),
            SetExpr::Empty => f.write_str("∅"),
            SetExpr::Union(a, b) => write!(f, "({a} ∪ {b})"),
            SetExpr::Inter(a, b) => write!(f, "({a} ∩ {b})"),
            SetExpr::Minus(a, b) => write!(f, "({a} \\ {b})"),
        }
    }
}

/// A relation-valued expression: the operators of the IR grammar.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RelExpr {
    /// A named base relation resolved by the [`BaseRelations`] binding
    /// (e.g. `"po"`, `"rf"`, `"fence-cum"`).
    Base(&'static str),
    /// A reference to an earlier definition of the enclosing
    /// [`ModelIr`].
    Ref(&'static str),
    /// The empty relation.
    Empty,
    /// The identity relation.
    Id,
    /// Cross product `dom × rng`.
    Cross(SetExpr, SetExpr),
    /// Union.
    Union(Box<RelExpr>, Box<RelExpr>),
    /// Intersection.
    Inter(Box<RelExpr>, Box<RelExpr>),
    /// Difference.
    Minus(Box<RelExpr>, Box<RelExpr>),
    /// Relational composition `a ; b`.
    Seq(Box<RelExpr>, Box<RelExpr>),
    /// Inverse.
    Inverse(Box<RelExpr>),
    /// Transitive closure `a⁺`.
    Plus(Box<RelExpr>),
    /// Reflexive-transitive closure `a*`.
    Star(Box<RelExpr>),
    /// Reflexive closure `a?`.
    Opt(Box<RelExpr>),
    /// Domain/range restriction `[dom] a [rng]`.
    Restrict(Box<RelExpr>, SetExpr, SetExpr),
}

impl RelExpr {
    /// A named base relation.
    #[must_use]
    pub fn base(name: &'static str) -> Self {
        RelExpr::Base(name)
    }

    /// A reference to an earlier [`ModelIr`] definition.
    #[must_use]
    pub fn reference(name: &'static str) -> Self {
        RelExpr::Ref(name)
    }

    /// Cross product of two sets as a relation.
    #[must_use]
    pub fn cross(dom: SetExpr, rng: SetExpr) -> Self {
        RelExpr::Cross(dom, rng)
    }

    /// `self ∪ other`.
    #[must_use]
    pub fn union(self, other: RelExpr) -> Self {
        RelExpr::Union(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    #[must_use]
    pub fn inter(self, other: RelExpr) -> Self {
        RelExpr::Inter(Box::new(self), Box::new(other))
    }

    /// `self \ other`.
    #[must_use]
    pub fn minus(self, other: RelExpr) -> Self {
        RelExpr::Minus(Box::new(self), Box::new(other))
    }

    /// `self ; other` (relational composition).
    #[must_use]
    pub fn seq(self, other: RelExpr) -> Self {
        RelExpr::Seq(Box::new(self), Box::new(other))
    }

    /// `self⁻¹`.
    #[must_use]
    pub fn inverse(self) -> Self {
        RelExpr::Inverse(Box::new(self))
    }

    /// `self⁺` (one or more steps).
    #[must_use]
    pub fn plus(self) -> Self {
        RelExpr::Plus(Box::new(self))
    }

    /// `self*` (zero or more steps).
    #[must_use]
    pub fn star(self) -> Self {
        RelExpr::Star(Box::new(self))
    }

    /// `self?` (`self ∪ id`).
    #[must_use]
    pub fn opt(self) -> Self {
        RelExpr::Opt(Box::new(self))
    }

    /// `[dom] self [rng]`.
    #[must_use]
    pub fn restrict(self, dom: SetExpr, rng: SetExpr) -> Self {
        RelExpr::Restrict(Box::new(self), dom, rng)
    }
}

impl fmt::Display for RelExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelExpr::Base(name) | RelExpr::Ref(name) => f.write_str(name),
            RelExpr::Empty => f.write_str("0"),
            RelExpr::Id => f.write_str("id"),
            RelExpr::Cross(a, b) => write!(f, "({a} × {b})"),
            RelExpr::Union(a, b) => write!(f, "({a} ∪ {b})"),
            RelExpr::Inter(a, b) => write!(f, "({a} ∩ {b})"),
            RelExpr::Minus(a, b) => write!(f, "({a} \\ {b})"),
            RelExpr::Seq(a, b) => write!(f, "({a} ; {b})"),
            RelExpr::Inverse(a) => write!(f, "{a}⁻¹"),
            RelExpr::Plus(a) => write!(f, "{a}⁺"),
            RelExpr::Star(a) => write!(f, "{a}*"),
            RelExpr::Opt(a) => write!(f, "{a}?"),
            RelExpr::Restrict(a, dom, rng) => write!(f, "[{dom}]{a}[{rng}]"),
        }
    }
}

/// The constraint an [`Axiom`] places on its relation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AxiomKind {
    /// The relation, viewed as a graph, must have no cycle.
    Acyclic,
    /// The relation must contain no pair `(a, a)`.
    Irreflexive,
    /// The relation must contain no pair at all.
    Empty,
}

impl fmt::Display for AxiomKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxiomKind::Acyclic => f.write_str("acyclic"),
            AxiomKind::Irreflexive => f.write_str("irreflexive"),
            AxiomKind::Empty => f.write_str("empty"),
        }
    }
}

/// One named axiom of a model.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Axiom {
    /// The axiom's name, reported on violation (e.g. `"Coherence"`).
    pub name: &'static str,
    /// The constraint kind.
    pub kind: AxiomKind,
    /// The relation the constraint applies to.
    pub rel: RelExpr,
}

impl fmt::Display for Axiom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}({})", self.name, self.kind, self.rel)
    }
}

/// A complete declarative model: named derived-relation definitions
/// (evaluated in order; later ones may [`RelExpr::Ref`] earlier ones)
/// plus the axioms that judge an execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ModelIr {
    name: String,
    defs: Vec<(&'static str, RelExpr)>,
    axioms: Vec<Axiom>,
}

impl ModelIr {
    /// An empty model with a display name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ModelIr {
            name: name.into(),
            defs: Vec::new(),
            axioms: Vec::new(),
        }
    }

    /// Appends a named derived-relation definition.
    #[must_use]
    pub fn define(mut self, name: &'static str, expr: RelExpr) -> Self {
        self.defs.push((name, expr));
        self
    }

    /// Appends an axiom.
    #[must_use]
    pub fn axiom(mut self, name: &'static str, kind: AxiomKind, rel: RelExpr) -> Self {
        self.axioms.push(Axiom { name, kind, rel });
        self
    }

    /// The model's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The derived-relation definitions, in evaluation order.
    #[must_use]
    pub fn defs(&self) -> &[(&'static str, RelExpr)] {
        &self.defs
    }

    /// The model's axioms, in check order.
    #[must_use]
    pub fn axioms(&self) -> &[Axiom] {
        &self.axioms
    }
}

impl fmt::Display for ModelIr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "model {}", self.name)?;
        for (name, expr) in &self.defs {
            writeln!(f, "  {name} := {expr}")?;
        }
        for axiom in &self.axioms {
            writeln!(f, "  {axiom}")?;
        }
        Ok(())
    }
}

/// The binding between a model's named bases and one concrete candidate
/// execution — the pluggable half of the evaluator.
///
/// A [`CompiledModel`](crate::CompiledModel) queries each base it
/// reaches once per evaluation: once per program through its prelude
/// for the bases the caller declares space-invariant, once per
/// candidate for the rest. A binding computes each derived base (one
/// several names may share) at most once per candidate and lends it.
pub trait BaseRelations {
    /// Number of events the execution's relations range over.
    fn universe(&self) -> usize;

    /// The base relation with the given name, or `None` if the binding
    /// does not define it. The relation is lent, not built per call: a
    /// binding hands out the execution's own relations and computes
    /// each derived base at most once per candidate, and the evaluator
    /// copies the rows into a slot it owns.
    fn rel(&self, name: &str) -> Option<&Relation>;

    /// The base event set with the given name, or `None` if the binding
    /// does not define it.
    fn set(&self, name: &str) -> Option<EventSet>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_the_grammar() {
        let model = ModelIr::new("toy-sc")
            .define(
                "ghb",
                RelExpr::base("po")
                    .union(RelExpr::base("rf"))
                    .union(RelExpr::base("fr")),
            )
            .axiom("Sc", AxiomKind::Acyclic, RelExpr::reference("ghb"));
        let text = model.to_string();
        assert!(text.contains("model toy-sc"));
        assert!(text.contains("ghb := ((po ∪ rf) ∪ fr)"));
        assert!(text.contains("Sc: acyclic(ghb)"));
    }
}
