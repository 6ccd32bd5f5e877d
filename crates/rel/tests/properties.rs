//! Property-based tests for the relation algebra.

use proptest::prelude::*;
use tricheck_rel::{linear_extensions, EventSet, Relation};

const N: usize = 8;

fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0..N, 0..N), 0..24).prop_map(|pairs| Relation::from_pairs(N, pairs))
}

/// A relation whose edges all point from a lower to a higher event:
/// always acyclic.
fn arb_dag() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0..N, 0..N), 0..24)
        .prop_map(|pairs| Relation::from_pairs(N, pairs.into_iter().filter(|&(a, b)| a < b)))
}

/// The closure by Floyd–Warshall, the textbook reference.
fn naive_closure(r: &Relation) -> Relation {
    let mut reach = [[false; N]; N];
    for (a, b) in r.pairs() {
        reach[a][b] = true;
    }
    for k in 0..N {
        for i in 0..N {
            for j in 0..N {
                reach[i][j] |= reach[i][k] && reach[k][j];
            }
        }
    }
    Relation::from_pairs(
        N,
        (0..N)
            .flat_map(|i| (0..N).map(move |j| (i, j)))
            .filter(|&(i, j)| reach[i][j]),
    )
}

/// A splitmix64 stream: the seeded source of the wide-universe cases.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// Sink peeling against the closure it replaced, at the universe sizes
/// where word edges bite (empty, one event, a full 64-bit row): sparse
/// and dense random edges, a self-loop now and then, and a cycle (or,
/// one edge short, a path) through up to every event in a random
/// order, which the peeling can only dismantle one event per round.
#[test]
fn sink_peeling_matches_an_irreflexive_closure_on_wide_universes() {
    let mut rng = SplitMix(0x7269_6368_6563_6b21);
    let (mut acyclic, mut cyclic) = (0, 0);
    for n in [0usize, 1, 2, 10, 63, 64] {
        for case in 0..200 {
            let mut r = Relation::empty(n);
            if n > 0 {
                let edges = match case % 3 {
                    0 => rng.below(n + 1),
                    1 => rng.below(2 * n + 1),
                    _ => rng.below(n * n / 4 + 1),
                };
                for _ in 0..edges {
                    let (a, b) = (rng.below(n), rng.below(n));
                    // Mostly forward edges, so acyclic cases stay common.
                    if a < b || rng.below(8) == 0 {
                        r.insert(a, b);
                    }
                }
                if rng.below(10) == 0 {
                    let a = rng.below(n);
                    r.insert(a, a);
                }
                if case % 4 == 0 {
                    let mut order: Vec<usize> = (0..n).collect();
                    for i in (1..n).rev() {
                        order.swap(i, rng.below(i + 1));
                    }
                    order.truncate(1 + rng.below(n));
                    for pair in order.windows(2) {
                        r.insert(pair[0], pair[1]);
                    }
                    if rng.below(2) == 0 {
                        r.insert(order[order.len() - 1], order[0]);
                    }
                }
            }
            let expected = r.transitive_closure().is_irreflexive();
            assert_eq!(r.is_acyclic(), expected, "n={n} case={case}: {r:?}");
            assert_eq!(r.topological_order().is_some(), expected, "n={n}");
            if expected {
                acyclic += 1;
            } else {
                cyclic += 1;
            }
        }
    }
    assert!(
        acyclic > 200 && cyclic > 200,
        "{acyclic} acyclic, {cyclic} cyclic"
    );
}

/// The closure as the least fixpoint of `R := R ∪ R;R`, through the
/// public algebra only: the reference for the peel-order closure.
fn fixpoint_closure(r: &Relation) -> Relation {
    let mut closed = r.clone();
    loop {
        let next = closed.union(&closed.compose(&closed));
        if next == closed {
            return closed;
        }
        closed = next;
    }
}

/// The peel-order closure against the fixpoint on the same wide
/// universes: random edges (mostly forward, so acyclic relations stay
/// common), self-loops, and long paths or cycles through a random
/// order of the events, so both the one-pass peel and its fallback on
/// a cycle (with peelable events around it) are exercised.
#[test]
fn peel_order_closure_matches_the_fixpoint_on_wide_universes() {
    let mut rng = SplitMix(0x636c_6f73_7572_6521);
    let (mut acyclic, mut cyclic) = (0, 0);
    for n in [0usize, 1, 10, 63, 64] {
        for case in 0..120 {
            let mut r = Relation::empty(n);
            if n > 0 {
                let edges = match case % 3 {
                    0 => rng.below(n + 1),
                    1 => rng.below(2 * n + 1),
                    _ => rng.below(n * n / 4 + 1),
                };
                for _ in 0..edges {
                    let (a, b) = (rng.below(n), rng.below(n));
                    if a < b || rng.below(8) == 0 {
                        r.insert(a, b);
                    }
                }
                if rng.below(10) == 0 {
                    let a = rng.below(n);
                    r.insert(a, a);
                }
                if case % 4 == 0 {
                    let mut order: Vec<usize> = (0..n).collect();
                    for i in (1..n).rev() {
                        order.swap(i, rng.below(i + 1));
                    }
                    order.truncate(1 + rng.below(n));
                    for pair in order.windows(2) {
                        r.insert(pair[0], pair[1]);
                    }
                    if rng.below(2) == 0 {
                        r.insert(order[order.len() - 1], order[0]);
                    }
                }
            }
            assert_eq!(
                r.transitive_closure(),
                fixpoint_closure(&r),
                "n={n} case={case}: {r:?}"
            );
            if r.is_acyclic() {
                acyclic += 1;
            } else {
                cyclic += 1;
            }
        }
    }
    assert!(
        acyclic > 100 && cyclic > 100,
        "{acyclic} acyclic, {cyclic} cyclic"
    );
}

fn arb_set() -> impl Strategy<Value = EventSet> {
    proptest::collection::vec(0..N, 0..N).prop_map(|ids| EventSet::from_ids(N, ids))
}

proptest! {
    #[test]
    fn union_is_commutative(a in arb_relation(), b in arb_relation()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
    }

    #[test]
    fn union_is_idempotent(a in arb_relation()) {
        prop_assert_eq!(a.union(&a), a);
    }

    #[test]
    fn intersect_distributes_over_union(
        a in arb_relation(), b in arb_relation(), c in arb_relation()
    ) {
        let lhs = a.intersect(&b.union(&c));
        let rhs = a.intersect(&b).union(&a.intersect(&c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn compose_is_associative(
        a in arb_relation(), b in arb_relation(), c in arb_relation()
    ) {
        prop_assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
    }

    #[test]
    fn compose_distributes_over_union(
        a in arb_relation(), b in arb_relation(), c in arb_relation()
    ) {
        let lhs = a.compose(&b.union(&c));
        let rhs = a.compose(&b).union(&a.compose(&c));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn transitive_closure_matches_floyd_warshall(a in arb_relation(), d in arb_dag()) {
        prop_assert_eq!(a.transitive_closure(), naive_closure(&a));
        prop_assert_eq!(d.transitive_closure(), naive_closure(&d));
    }

    #[test]
    fn acyclicity_matches_an_irreflexive_closure(a in arb_relation(), d in arb_dag()) {
        prop_assert_eq!(a.is_acyclic(), naive_closure(&a).is_irreflexive());
        prop_assert!(d.is_acyclic());
        // One back edge from the end of a path to its start closes a cycle.
        if let Some((x, y)) = d.pairs().next() {
            let mut cyclic = d.clone();
            cyclic.insert(y, x);
            prop_assert!(!cyclic.is_acyclic());
        }
    }

    #[test]
    fn transitive_closure_is_idempotent(a in arb_relation()) {
        let c = a.transitive_closure();
        prop_assert_eq!(c.transitive_closure(), c);
    }

    #[test]
    fn transitive_closure_contains_original(a in arb_relation()) {
        prop_assert!(a.is_subset_of(&a.transitive_closure()));
    }

    #[test]
    fn transitive_closure_is_transitive(a in arb_relation()) {
        let c = a.transitive_closure();
        prop_assert!(c.compose(&c).is_subset_of(&c));
    }

    #[test]
    fn inverse_is_involutive(a in arb_relation()) {
        prop_assert_eq!(a.inverse().inverse(), a);
    }

    #[test]
    fn inverse_preserves_pair_count(a in arb_relation()) {
        prop_assert_eq!(a.inverse().pair_count(), a.pair_count());
    }

    #[test]
    fn subrelation_of_acyclic_is_acyclic(a in arb_relation(), b in arb_relation()) {
        let sub = a.intersect(&b);
        if a.is_acyclic() {
            prop_assert!(sub.is_acyclic());
        }
    }

    #[test]
    fn acyclicity_matches_topological_order(a in arb_relation()) {
        prop_assert_eq!(a.is_acyclic(), a.topological_order().is_some());
    }

    #[test]
    fn topological_order_respects_edges(a in arb_relation()) {
        if let Some(order) = a.topological_order() {
            let pos: Vec<usize> = {
                let mut p = vec![0; N];
                for (idx, &e) in order.iter().enumerate() {
                    p[e] = idx;
                }
                p
            };
            for (x, y) in a.pairs() {
                prop_assert!(pos[x] < pos[y], "edge {}->{} violated", x, y);
            }
        }
    }

    #[test]
    fn restrict_is_subset(a in arb_relation(), dom in arb_set(), rng in arb_set()) {
        let r = a.restrict(dom, rng);
        prop_assert!(r.is_subset_of(&a));
        for (x, y) in r.pairs() {
            prop_assert!(dom.contains(x) && rng.contains(y));
        }
    }

    #[test]
    fn cross_pair_count(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(Relation::cross(a, b).pair_count(), a.len() * b.len());
    }

    #[test]
    fn every_linear_extension_respects_constraints(a in arb_relation(), s in arb_set()) {
        // Only meaningful for acyclic constraint relations.
        if a.restrict(s, s).is_acyclic() {
            let constraint = a.restrict(s, s);
            let mut seen = 0usize;
            linear_extensions(s, &constraint, &mut |order| {
                seen += 1;
                let mut pos = [usize::MAX; N];
                for (idx, &e) in order.iter().enumerate() {
                    pos[e] = idx;
                }
                for (x, y) in constraint.pairs() {
                    assert!(pos[x] < pos[y]);
                }
                seen < 200 // cap the enumeration for speed
            });
            if s.len() <= 4 {
                prop_assert!(seen >= 1, "acyclic constraint must admit an extension");
            }
        }
    }

    #[test]
    fn set_union_intersect_duality(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(
            a.union(b).complement(),
            a.complement().intersect(b.complement())
        );
    }
}
