//! The model compiler against the naive interpreter: every operator,
//! hoisting split, and first-violated-axiom report of a
//! [`CompiledModel`] must match `tricheck_oracle::interpret` on the
//! same binding, and both must reject the same model bugs. (An
//! integration test, because the oracle crate depends on this one.)

use tricheck_oracle::interpret;
use tricheck_rel::ir::{AxiomKind, BaseRelations, ModelIr, RelExpr, SetExpr};
use tricheck_rel::{CompiledModel, EventSet, Judge, Relation};

/// A four-event toy binding: 0,1 writes; 2,3
/// reads; po 0→2, 1→3; optional fr back-edges closing an SB cycle; and
/// optionally a base `want`, the relation an operator test expects.
struct Toy {
    po: Relation,
    rf: Relation,
    fr: Relation,
    want: Option<Relation>,
}

fn toy(fr_back: bool) -> Toy {
    Toy {
        po: Relation::from_pairs(4, [(0, 2), (1, 3)]),
        rf: Relation::empty(4),
        fr: if fr_back {
            Relation::from_pairs(4, [(2, 1), (3, 0)])
        } else {
            Relation::empty(4)
        },
        want: None,
    }
}

impl BaseRelations for Toy {
    fn universe(&self) -> usize {
        4
    }

    fn rel(&self, name: &str) -> Option<&Relation> {
        Some(match name {
            "po" => &self.po,
            "rf" => &self.rf,
            "fr" => &self.fr,
            "want" => return self.want.as_ref(),
            _ => return None,
        })
    }

    fn set(&self, name: &str) -> Option<EventSet> {
        Some(match name {
            "R" => EventSet::from_ids(4, [2, 3]),
            "W" => EventSet::from_ids(4, [0, 1]),
            _ => return None,
        })
    }
}

fn sc_like() -> ModelIr {
    ModelIr::new("toy-sc")
        .define(
            "ghb",
            RelExpr::base("po")
                .union(RelExpr::base("rf"))
                .union(RelExpr::base("fr")),
        )
        .axiom("Sc", AxiomKind::Acyclic, RelExpr::reference("ghb"))
}

#[test]
fn axioms_judge_executions() {
    let model = sc_like();
    let compiled = CompiledModel::compile(&model, &["po"]);
    // Without the fr back-edges the po∪rf∪fr graph is a DAG; with them,
    // 0→po 2→fr 1→po 3→fr 0 closes a cycle.
    for (fr_back, verdict) in [(false, Ok(())), (true, Err("Sc"))] {
        assert_eq!(interpret(&model, &toy(fr_back)), verdict);
        assert_eq!(compiled.check(&toy(fr_back)), verdict);
    }
}

#[test]
fn tso_shape_relaxes_write_read() {
    // ppo = po \ (W × R): nothing of the cycle above remains ordered.
    let tso = ModelIr::new("toy-tso")
        .define(
            "ppo",
            RelExpr::base("po").minus(RelExpr::cross(SetExpr::base("W"), SetExpr::base("R"))),
        )
        .axiom(
            "Ghb",
            AxiomKind::Acyclic,
            RelExpr::reference("ppo")
                .union(RelExpr::base("rf"))
                .union(RelExpr::base("fr")),
        );
    assert_eq!(interpret(&tso, &toy(true)), Ok(()));
    assert_eq!(CompiledModel::compile(&tso, &[]).check(&toy(true)), Ok(()));
}

#[test]
fn operators_match_relation_algebra() {
    let cases = [
        (
            RelExpr::base("po").seq(RelExpr::base("fr")),
            Relation::from_pairs(4, [(0, 1), (1, 0)]),
        ),
        (
            RelExpr::base("po").inverse(),
            Relation::from_pairs(4, [(2, 0), (3, 1)]),
        ),
        (
            RelExpr::base("po").restrict(SetExpr::base("W"), SetExpr::Universe),
            Relation::from_pairs(4, [(0, 2), (1, 3)]),
        ),
        (RelExpr::Empty.star(), Relation::identity(4)),
        (
            RelExpr::base("po").opt(),
            Relation::from_pairs(4, [(0, 2), (1, 3)]).union(&Relation::identity(4)),
        ),
        (
            RelExpr::cross(
                SetExpr::base("W"),
                SetExpr::base("R").minus(SetExpr::base("W")),
            ),
            Relation::from_pairs(4, [(0, 2), (0, 3), (1, 2), (1, 3)]),
        ),
        (
            RelExpr::base("po")
                .union(RelExpr::base("fr"))
                .plus()
                .inter(RelExpr::Id),
            Relation::identity(4), // the 0→2→1→3→0 cycle touches every event
        ),
    ];
    for (expr, expected) in cases {
        // Eq: empty((expr \ want) ∪ (want \ expr)), i.e. expr == want.
        let want = RelExpr::base("want");
        let model = ModelIr::new("operator").axiom(
            "Eq",
            AxiomKind::Empty,
            expr.clone()
                .minus(want.clone())
                .union(want.minus(expr.clone())),
        );
        let compiled = CompiledModel::compile(&model, &[]);
        // Every expected relation is nonempty, so an empty `want` must
        // be rejected: the axiom has teeth.
        for (want, verdict) in [(expected, Ok(())), (Relation::empty(4), Err("Eq"))] {
            let binding = Toy {
                want: Some(want),
                ..toy(true)
            };
            assert_eq!(interpret(&model, &binding), verdict, "interpreter: {expr}");
            assert_eq!(compiled.check(&binding), verdict, "compiled: {expr}");
        }
    }
}

#[test]
fn exercises_every_operator_against_the_interpreter() {
    // One model touching every RelExpr/SetExpr constructor.
    let kitchen_sink = ModelIr::new("kitchen-sink")
        .define(
            "d1",
            RelExpr::base("po")
                .union(RelExpr::base("rf"))
                .union(RelExpr::base("fr"))
                .inter(RelExpr::base("po").union(RelExpr::base("fr"))),
        )
        .define(
            "d2",
            RelExpr::reference("d1")
                .seq(RelExpr::base("po").inverse())
                .minus(RelExpr::Id)
                .minus(RelExpr::Empty),
        )
        .define(
            "d3",
            RelExpr::cross(
                SetExpr::base("W").union(SetExpr::base("R")),
                SetExpr::Universe.minus(SetExpr::base("W").inter(SetExpr::Universe)),
            )
            .restrict(SetExpr::base("W"), SetExpr::Universe.minus(SetExpr::Empty)),
        )
        .define("d4", RelExpr::reference("d2").star())
        .define("d5", RelExpr::reference("d2").plus())
        .define("d6", RelExpr::reference("d3").opt())
        .axiom(
            "A1",
            AxiomKind::Acyclic,
            RelExpr::reference("d4").seq(RelExpr::reference("d6")),
        )
        .axiom("A2", AxiomKind::Irreflexive, RelExpr::reference("d5"))
        .axiom(
            "A3",
            AxiomKind::Empty,
            RelExpr::reference("d1").minus(RelExpr::reference("d1")),
        );
    for invariant in [&[] as &[&str], &["po", "W", "R"]] {
        let compiled = CompiledModel::compile(&kitchen_sink, invariant);
        for fr_back in [false, true] {
            let binding = toy(fr_back);
            assert_eq!(
                compiled.check(&binding),
                interpret(&kitchen_sink, &binding),
                "invariant={invariant:?} fr_back={fr_back}"
            );
        }
    }
}

#[test]
fn first_violated_axiom_matches_the_interpreter() {
    let model = ModelIr::new("two-axioms")
        .axiom("NoPo", AxiomKind::Empty, RelExpr::base("po"))
        .axiom("NoFr", AxiomKind::Empty, RelExpr::base("fr"));
    let compiled = CompiledModel::compile(&model, &[]);
    let binding = toy(true);
    assert_eq!(compiled.check(&binding), Err("NoPo"));
    assert_eq!(compiled.check(&binding), interpret(&model, &binding));
}

#[test]
fn hoisting_moves_invariant_work_into_the_prelude() {
    // ghb = po ∪ rf ∪ fr: with only po invariant nothing composite
    // hoists; making all three bases invariant hoists everything.
    let model = sc_like();
    let none = CompiledModel::compile(&model, &[]);
    assert_eq!(none.prelude_op_count(), 0);
    let po_only = CompiledModel::compile(&model, &["po"]);
    assert_eq!(po_only.prelude_op_count(), 1, "just the po fetch");
    let all = CompiledModel::compile(&model, &["po", "rf", "fr"]);
    assert!(all.body_op_count() == 0, "whole body hoisted");
    // All three compile to the same verdicts.
    for compiled in [&none, &po_only, &all] {
        for fr_back in [false, true] {
            let binding = toy(fr_back);
            assert_eq!(compiled.check(&binding), interpret(&model, &binding));
        }
    }
}

#[test]
fn preludes_replay_across_candidates() {
    // po is invariant across the two Toy "candidates"; fr differs. One
    // judge evaluates the prelude on the first and replays it for the
    // second, agreeing with the one-shot form on both.
    let model = sc_like();
    let compiled = CompiledModel::compile(&model, &["po"]);
    let mut judge = Judge::new(&compiled);
    assert_eq!(judge.check(&toy(false)), Ok(()));
    assert!(judge.check(&toy(true)).is_err());
    assert_eq!(judge.check(&toy(true)), compiled.check(&toy(true)));
}

#[test]
fn cse_shares_repeated_subexpressions() {
    // The same union appears in both axioms; hash-consing must
    // lower it once (2 base fetches + 1 fused union + 1 closure +
    // 1 reflexive closure = 5 ops, not 8).
    let model = ModelIr::new("shared")
        .axiom(
            "A",
            AxiomKind::Acyclic,
            RelExpr::base("po").union(RelExpr::base("fr")).plus(),
        )
        .axiom(
            "B",
            AxiomKind::Irreflexive,
            RelExpr::base("po").union(RelExpr::base("fr")).star(),
        );
    let compiled = CompiledModel::compile(&model, &[]);
    assert_eq!(compiled.body_op_count(), 5);
}

#[test]
fn fused_kernels_judge_each_model_on_shared_terms() {
    // Two models that both define `ghb`, differently: SC keeps all of
    // po, TSO drops W→R pairs. Fused, they share the po/rf/fr fetches
    // and still resolve `ghb` per model.
    let sc = sc_like();
    let tso = ModelIr::new("toy-tso")
        .define(
            "ghb",
            RelExpr::base("po")
                .minus(RelExpr::cross(SetExpr::base("W"), SetExpr::base("R")))
                .union(RelExpr::base("rf"))
                .union(RelExpr::base("fr")),
        )
        .axiom("Tso", AxiomKind::Acyclic, RelExpr::reference("ghb"));
    let fused = CompiledModel::fuse(&[&sc, &tso], &[]);
    let alone = [
        CompiledModel::compile(&sc, &[]),
        CompiledModel::compile(&tso, &[]),
    ];
    assert_eq!(fused.name(), "toy-sc+toy-tso");
    assert!(fused.body_op_count() < alone[0].body_op_count() + alone[1].body_op_count());
    let mut judge = Judge::new(&fused);
    for (fr_back, mask) in [(false, 0b11), (true, 0b10)] {
        judge.restart(&fused);
        let binding = toy(fr_back);
        assert_eq!(judge.check_mask(&binding, 0b11), mask, "fr_back={fr_back}");
        assert_eq!(judge.check_mask(&binding, 0b01), mask & 0b01);
        assert_eq!(judge.check_mask(&binding, 0), 0);
        for (j, kernel) in alone.iter().enumerate() {
            assert_eq!(kernel.consistent(&binding), mask >> j & 1 == 1);
        }
        // The width-1 reading of a fused kernel requires every model.
        assert_eq!(fused.check(&binding), alone[0].check(&binding));
    }
}

#[test]
#[should_panic(expected = "unknown base relation")]
fn unknown_base_is_still_a_model_bug() {
    let model = ModelIr::new("bad").axiom("a", AxiomKind::Empty, RelExpr::base("nope"));
    let _ = CompiledModel::compile(&model, &[]).check(&toy(false));
}

#[test]
#[should_panic(expected = "undefined relation")]
fn undefined_reference_panics_at_compile_time() {
    let model = ModelIr::new("bad").axiom("a", AxiomKind::Empty, RelExpr::reference("later"));
    let _ = CompiledModel::compile(&model, &[]);
}

#[test]
#[should_panic(expected = "references itself")]
fn definition_cycles_panic_at_compile_time() {
    let model = ModelIr::new("bad")
        .define("a", RelExpr::reference("b"))
        .define("b", RelExpr::reference("a"))
        .axiom("x", AxiomKind::Empty, RelExpr::reference("a"));
    let _ = CompiledModel::compile(&model, &[]);
}

#[test]
#[should_panic(expected = "unknown base relation")]
fn interpreter_unknown_base_is_a_model_bug() {
    let model = ModelIr::new("bad").axiom("a", AxiomKind::Empty, RelExpr::base("nope"));
    let _ = interpret(&model, &toy(false));
}

#[test]
#[should_panic(expected = "undefined relation")]
fn interpreter_forward_reference_is_a_model_bug() {
    let model = ModelIr::new("bad").axiom("a", AxiomKind::Empty, RelExpr::reference("later"));
    let _ = interpret(&model, &toy(false));
}

#[test]
#[should_panic(expected = "references itself")]
fn interpreter_definition_cycles_panic_instead_of_recursing() {
    let model = ModelIr::new("bad")
        .define("a", RelExpr::reference("b"))
        .define("b", RelExpr::reference("a"))
        .axiom("x", AxiomKind::Empty, RelExpr::reference("a"));
    let _ = interpret(&model, &toy(false));
}

#[test]
#[should_panic(expected = "references itself")]
fn interpreter_self_reference_panics() {
    let model = ModelIr::new("bad")
        .define("a", RelExpr::reference("a").plus())
        .axiom("x", AxiomKind::Empty, RelExpr::reference("a"));
    let _ = interpret(&model, &toy(false));
}
