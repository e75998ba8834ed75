//! Arena (hash-consed columnar) storage vs the `Arc` representation:
//! adversarial fingerprint collisions, round-trip equality, and
//! sweep-kernel parity across all seven runtime semirings.

use axml_semiring::trio::collapse::{natpoly_to_posbool, natpoly_to_trio, natpoly_to_why};
use axml_semiring::{FnHom, Nat, NatPoly, PosBool, Prob, Semiring, Trio, Tropical, Valuation, Why};
use axml_uxml::arena::intern_forest_mapped;
use axml_uxml::hom::map_forest;
use axml_uxml::{parse_forest, weighted_descendant_closure, Forest, Tree, TreeArena};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Adversarial: forced (size, hash) collisions must not conflate
// ---------------------------------------------------------------------

/// Two structurally different subtrees interned under the *same*
/// forced `(size, hash)` dedup key must come out as distinct nodes:
/// the dedup table is a hint, structural verify is the authority.
#[test]
fn forced_fingerprint_collision_is_not_conflated() {
    // Same label, same child count, same size — only the child labels
    // (and one annotation) differ, so every cheap pre-check agrees.
    let t1 = parse_forest::<NatPoly>("<a> b {x} c </a>")
        .unwrap()
        .trees()
        .next()
        .unwrap()
        .clone();
    let t2 = parse_forest::<NatPoly>("<a> b {y} d </a>")
        .unwrap()
        .trees()
        .next()
        .unwrap()
        .clone();
    assert_ne!(t1, t2);
    assert_eq!(t1.size(), t2.size());

    let forced_key = (t1.size(), 0xdead_beef_u64);
    let mut arena = TreeArena::<NatPoly>::new();
    let id1 = arena.intern_tree_with_key(&t1, forced_key);
    let id2 = arena.intern_tree_with_key(&t2, forced_key);
    assert_ne!(id1, id2, "colliding keys must still verify structurally");
    assert_eq!(*arena.tree(id1), t1);
    assert_eq!(*arena.tree(id2), t2);

    // Re-interning the same values under the colliding key dedups onto
    // the existing nodes — the verify accepts genuine equality.
    assert_eq!(arena.intern_tree_with_key(&t1, forced_key), id1);
    assert_eq!(arena.intern_tree_with_key(&t2, forced_key), id2);
}

/// The honest interning path also probes by `(size, hash)`: seed the
/// bucket of `t2`'s *real* key with a different tree, then intern `t2`
/// normally — the stale candidate must be rejected by verify.
#[test]
fn honest_intern_rejects_colliding_candidate() {
    let t1 = parse_forest::<NatPoly>("<a> b c </a>")
        .unwrap()
        .trees()
        .next()
        .unwrap()
        .clone();
    let t2 = parse_forest::<NatPoly>("<a> b d </a>")
        .unwrap()
        .trees()
        .next()
        .unwrap()
        .clone();
    let real_key_of_t2 = (t2.size(), t2.structural_hash());
    let mut arena = TreeArena::<NatPoly>::new();
    let id1 = arena.intern_tree_with_key(&t1, real_key_of_t2);
    let id2 = arena.intern_tree(&t2);
    assert_ne!(id1, id2);
    assert_eq!(*arena.tree(id1), t1);
    assert_eq!(*arena.tree(id2), t2);
    assert_eq!(arena.lookup(&t2), Some(id2));
}

// ---------------------------------------------------------------------
// Round-trip + sweep parity across all 7 runtime semirings
// ---------------------------------------------------------------------

const LABELS: [&str; 4] = ["aa", "ab", "ac", "ad"];
const VARS: [&str; 3] = ["av1", "av2", "av3"];

fn arb_annotation() -> impl Strategy<Value = NatPoly> {
    prop_oneof![
        3 => proptest::sample::select(&VARS[..]).prop_map(NatPoly::var_named),
        1 => Just(NatPoly::one()),
        1 => (1u64..3).prop_map(NatPoly::from),
        1 => (proptest::sample::select(&VARS[..]), proptest::sample::select(&VARS[..]))
            .prop_map(|(a, b)| NatPoly::var_named(a).times(&NatPoly::var_named(b))),
    ]
}

fn arb_tree(depth: u32) -> BoxedStrategy<Tree<NatPoly>> {
    if depth == 0 {
        proptest::sample::select(&LABELS[..])
            .prop_map(Tree::leaf)
            .boxed()
    } else {
        (
            proptest::sample::select(&LABELS[..]),
            proptest::collection::vec((arb_tree(depth - 1), arb_annotation()), 0..3),
        )
            .prop_map(|(l, kids)| Tree::new(l, Forest::from_pairs(kids)))
            .boxed()
    }
}

fn arb_forest() -> impl Strategy<Value = Forest<NatPoly>> {
    proptest::collection::vec((arb_tree(3), arb_annotation()), 0..4).prop_map(Forest::from_pairs)
}

/// For one target semiring: the recursive `Arc`-side hom lifting is
/// the reference; the arena must (a) round-trip the reference forest
/// unchanged, (b) reach the same forest by hom-fused interning, and
/// (c) agree on the descendant sweep three ways — per-occurrence
/// `for_each_descendant`, the value-level DAG closure, and the arena's
/// dense id scan.
fn check_kind<S: Semiring>(f: &Forest<NatPoly>, hom: impl Fn(&NatPoly) -> S) {
    let h = FnHom::new(hom);
    let reference: Forest<S> = map_forest(&h, f);

    // (a) arena ↔ Arc round-trip.
    let mut arena = TreeArena::<S>::new();
    let roots = arena.intern_forest(&reference);
    assert_eq!(arena.canonical_forest(&roots), reference);

    // (b) hom-fused interning == recursive lifting.
    let mut fused = TreeArena::<S>::new();
    let fused_roots = intern_forest_mapped(&mut fused, &mut Default::default(), &h, f);
    assert_eq!(fused.canonical_forest(&fused_roots), reference);

    // (c) sweep parity.
    let mut occurrence = Forest::new();
    for (t, k) in reference.iter() {
        t.for_each_descendant(k.clone(), |node, kn| occurrence.insert(node.clone(), kn));
    }
    let closure = Forest::from_distinct_pairs(weighted_descendant_closure(
        reference.iter().map(|(t, k)| (t.clone(), k.clone())),
    ));
    assert_eq!(
        closure, occurrence,
        "value-level closure != occurrence sweep"
    );
    assert_eq!(
        arena.descendant_forest(&roots),
        occurrence,
        "arena scan != occurrence sweep"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arena_roundtrip_and_sweeps_all_semirings(f in arb_forest()) {
        check_kind::<NatPoly>(&f, Clone::clone);
        check_kind::<Nat>(&f, |p| p.eval(&Valuation::<Nat>::new()));
        check_kind::<PosBool>(&f, natpoly_to_posbool);
        check_kind::<Tropical>(&f, |p| p.eval(&Valuation::<Tropical>::new()));
        check_kind::<Why>(&f, natpoly_to_why);
        check_kind::<Trio>(&f, natpoly_to_trio);
        check_kind::<Prob>(&f, |p| p.eval(&Valuation::<Prob>::new()));
    }

    /// Interning is content-addressed: every distinct subtree of the
    /// input occupies exactly one arena node, and re-interning the
    /// same forest adds nothing.
    #[test]
    fn interning_is_idempotent_and_deduplicating(f in arb_forest()) {
        let mut arena = TreeArena::<NatPoly>::new();
        let roots = arena.intern_forest(&f);
        let nodes_after_first = arena.len();
        let roots2 = arena.intern_forest(&f);
        prop_assert_eq!(&roots, &roots2, "same value, same ids");
        prop_assert_eq!(arena.len(), nodes_after_first, "re-interning adds nothing");
        // Distinct-subtree count never exceeds the occurrence count.
        let logical: usize = f.size();
        prop_assert!(arena.len() <= logical);
        // Every interned subtree is findable by value.
        for (id, _) in &roots {
            let t = arena.tree(*id).clone();
            prop_assert_eq!(arena.lookup(&t), Some(*id));
        }
    }
}
