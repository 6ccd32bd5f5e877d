//! Structural invariants of candidate executions, checked over randomly
//! drawn suite variants (including compiled-shape RMWs via the xchg
//! instruction of the text format).

use proptest::prelude::*;
use tricheck_litmus::format::{parse_litmus, write_litmus};
use tricheck_litmus::{enumerate_executions, suite, EventKind, LitmusTest, MemOrder};
use tricheck_rel::Relation;

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
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every read has exactly one reads-from source, on its own location.
    #[test]
    fn rf_is_functional_and_location_respecting(test in arb_variant()) {
        let mut checked = 0usize;
        enumerate_executions(test.program(), &mut |exec| {
            for r in exec.reads().iter() {
                let sources: Vec<usize> =
                    exec.rf().inverse().successors(r).iter().collect();
                assert_eq!(sources.len(), 1, "read e{r} has {} sources", sources.len());
                let w = sources[0];
                assert_eq!(exec.loc(r), exec.loc(w), "rf crosses locations");
                assert_eq!(exec.val(r), exec.val(w), "read value differs from source");
            }
            checked += 1;
            checked < 60
        });
        prop_assert!(checked > 0);
    }

    /// Coherence is a strict total order per location, with init first.
    #[test]
    fn co_is_a_per_location_total_order(test in arb_variant()) {
        let mut checked = 0usize;
        enumerate_executions(test.program(), &mut |exec| {
            let writes: Vec<usize> = exec.writes().iter().collect();
            for &a in &writes {
                assert!(!exec.co().contains(a, a), "co must be irreflexive");
                for &b in &writes {
                    if a == b {
                        continue;
                    }
                    let same_loc = exec.loc(a) == exec.loc(b);
                    let related = exec.co().contains(a, b) || exec.co().contains(b, a);
                    assert_eq!(same_loc, related, "co totality mismatch e{a}/e{b}");
                    if same_loc && exec.inits().contains(a) {
                        assert!(exec.co().contains(a, b), "init must be co-first");
                    }
                }
            }
            checked += 1;
            checked < 60
        });
        prop_assert!(checked > 0);
    }

    /// `fr` relates each read exactly to the co-successors of its source.
    #[test]
    fn fr_matches_its_definition(test in arb_variant()) {
        let mut checked = 0usize;
        enumerate_executions(test.program(), &mut |exec| {
            let fr = exec.fr();
            for r in exec.reads().iter() {
                let w = exec.rf().inverse().successors(r).iter().next().unwrap();
                for w2 in exec.writes().iter() {
                    assert_eq!(
                        fr.contains(r, w2),
                        exec.co().contains(w, w2),
                        "fr(e{r}, e{w2}) disagrees with co(e{w}, e{w2})"
                    );
                }
            }
            checked += 1;
            checked < 60
        });
        prop_assert!(checked > 0);
    }

    /// Program order is transitive, total per thread, and excludes inits.
    #[test]
    fn po_is_a_per_thread_total_order(test in arb_variant()) {
        let mut seen = false;
        enumerate_executions(test.program(), &mut |exec| {
            let po = exec.po();
            assert!(po.is_acyclic());
            assert!(po.compose(po).is_subset_of(po), "po must be transitive");
            for a in exec.events() {
                for b in exec.events() {
                    let related = po.contains(a.id, b.id) || po.contains(b.id, a.id);
                    let same_thread_distinct =
                        a.tid.is_some() && a.tid == b.tid && a.id != b.id;
                    assert_eq!(related, same_thread_distinct);
                }
            }
            seen = true;
            false
        });
        prop_assert!(seen);
    }

    /// Fences carry no location/value; reads and writes carry both.
    #[test]
    fn event_payloads_match_kinds(test in arb_variant()) {
        let mut seen = false;
        enumerate_executions(test.program(), &mut |exec| {
            for e in exec.events() {
                match e.kind {
                    EventKind::Fence => {
                        assert!(exec.loc(e.id).is_none());
                        assert!(exec.val(e.id).is_none());
                    }
                    EventKind::Read | EventKind::Write => {
                        assert!(exec.loc(e.id).is_some());
                        assert!(exec.val(e.id).is_some());
                    }
                }
            }
            seen = true;
            false
        });
        prop_assert!(seen);
    }

    /// The word-parallel derived relations equal their pairwise
    /// definitions: `same_loc` relates distinct events with equal
    /// resolved locations, and `external`/`internal` split a relation
    /// by [`Execution::is_external`], on the execution's own relations
    /// and on the full relation (init rows and the diagonal included).
    #[test]
    fn derived_relations_match_their_pairwise_definitions(test in arb_variant()) {
        let mut checked = 0usize;
        enumerate_executions(test.program(), &mut |exec| {
            let n = exec.len();
            let same_loc = Relation::from_pairs(
                n,
                (0..n)
                    .flat_map(|a| (0..n).map(move |b| (a, b)))
                    .filter(|&(a, b)| a != b && exec.loc(a).is_some() && exec.loc(a) == exec.loc(b)),
            );
            assert_eq!(exec.same_loc(), same_loc);
            for r in [exec.rf().clone(), exec.co().clone(), exec.fr(), exec.po().clone(), Relation::full(n)] {
                let split = |external: bool| {
                    Relation::from_pairs(n, r.pairs().filter(|&(a, b)| exec.is_external(a, b) == external))
                };
                assert_eq!(exec.external(&r), split(true), "external of {r:?}");
                assert_eq!(exec.internal(&r), split(false), "internal of {r:?}");
            }
            checked += 1;
            checked < 60
        });
        prop_assert!(checked > 0);
    }

    /// The text format round-trips every suite variant.
    #[test]
    fn format_roundtrips_suite_variants(test in arb_variant()) {
        let text = write_litmus(&test);
        let parsed = parse_litmus(&text)
            .unwrap_or_else(|e| panic!("reparse of {} failed: {e}\n{text}", test.name()));
        prop_assert_eq!(parsed.program(), test.program());
        prop_assert_eq!(parsed.target(), test.target());
    }
}
