//! Arena (hash-consed columnar) storage vs the `Arc` representation:
//! adversarial fingerprint collisions, round-trip equality, and
//! sweep-kernel parity across all seven runtime semirings.

use axml_semiring::trio::collapse::{natpoly_to_posbool, natpoly_to_trio, natpoly_to_why};
use axml_semiring::{FnHom, Nat, NatPoly, PosBool, Prob, Semiring, Trio, Tropical, Valuation, Why};
use axml_uxml::arena::{compact_mapped, intern_forest_mapped};
use axml_uxml::hom::map_forest;
use axml_uxml::{parse_forest, weighted_descendant_closure, Forest, Label, Tree, TreeArena};
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

// ---------------------------------------------------------------------
// Compaction: survivors remapped, dropped rows forgotten
// ---------------------------------------------------------------------

/// Every subtree of `f` (each occurrence once per distinct value).
fn subtrees(f: &Forest<NatPoly>) -> Vec<Tree<NatPoly>> {
    let mut out = Vec::new();
    let mut stack: Vec<Tree<NatPoly>> = f.trees().cloned().collect();
    while let Some(t) = stack.pop() {
        stack.extend(t.children().trees().cloned());
        out.push(t);
    }
    out
}

/// Child ids stay below their parent's id.
fn assert_topological(arena: &TreeArena<NatPoly>) {
    for id in 0..arena.len() as u32 {
        for (c, _) in arena.children(id) {
            assert!(c < id, "child {c} of {id}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Intern a kept forest and a dropped one, compact down to the
    /// kept roots: the arena equals a fresh arena of the kept forest,
    /// every kept value resolves to its remapped id on the same
    /// canonical handle, and no dropped handle is known any more.
    #[test]
    fn compaction_keeps_exactly_the_reachable_rows(keep in arb_forest(), gone in arb_forest()) {
        let mut arena = TreeArena::<NatPoly>::new();
        let kept_roots = arena.intern_forest(&keep);
        let gone_roots = arena.intern_forest(&gone);
        let old: Vec<Tree<NatPoly>> = (0..arena.len() as u32).map(|id| arena.tree(id).clone()).collect();

        let map = arena.compact(kept_roots.iter().map(|(id, _)| *id));
        let mut fresh = TreeArena::<NatPoly>::new();
        let fresh_roots = fresh.intern_forest(&keep);
        prop_assert_eq!(arena.len(), fresh.len());
        prop_assert_eq!(arena.child_edge_count(), fresh.child_edge_count());
        prop_assert_eq!(arena.rows_dropped() as usize, old.len() - arena.len());
        prop_assert_eq!(arena.compactions(), 1);
        assert_topological(&arena);

        for (id, handle) in old.iter().enumerate() {
            match map.get(id as u32) {
                Some(new) => {
                    prop_assert_eq!(arena.tree(new).ptr_token(), handle.ptr_token());
                    prop_assert_eq!(arena.lookup(handle), Some(new));
                    prop_assert_eq!(arena.handle_id(handle), Some(new));
                }
                None => prop_assert_eq!(arena.handle_id(handle), None),
            }
        }
        for t in subtrees(&keep) {
            let id = arena.lookup(&t);
            prop_assert!(id.is_some());
            prop_assert_eq!(arena.tree(id.unwrap()), &t);
        }
        let remapped: Vec<_> = kept_roots
            .iter()
            .map(|(id, k)| (map.get(*id).unwrap(), k.clone()))
            .collect();
        prop_assert_eq!(arena.canonical_forest(&remapped), keep.clone());
        prop_assert_eq!(arena.descendant_forest(&remapped), fresh.descendant_forest(&fresh_roots));

        // The dropped forest interns again, as new rows where needed.
        let again = arena.intern_forest(&gone);
        prop_assert_eq!(arena.canonical_forest(&again), gone.clone());
        prop_assert_eq!(gone_roots.len(), again.len());
        assert_topological(&arena);
    }

    /// A kind arena compacted with its image memo keeps the images of
    /// the surviving sources only, and re-specializing them maps
    /// nothing new.
    #[test]
    fn image_memo_compacts_with_its_arena(keep in arb_forest(), gone in arb_forest()) {
        let mut poly = TreeArena::<NatPoly>::new();
        let keep_roots = poly.intern_forest(&keep);
        let keep = poly.canonical_forest(&keep_roots);
        let gone_roots = poly.intern_forest(&gone);
        let gone = poly.canonical_forest(&gone_roots);
        let h = FnHom::new(|p: &NatPoly| p.eval(&Valuation::<Nat>::new()));
        let mut nat = TreeArena::<Nat>::new();
        let mut memo = Default::default();
        intern_forest_mapped(&mut nat, &mut memo, &h, &keep);
        intern_forest_mapped(&mut nat, &mut memo, &h, &gone);

        poly.compact(keep_roots.iter().map(|(id, _)| *id));
        compact_mapped(&mut nat, &mut memo, |t| poly.handle_id(t).is_some());
        prop_assert!(memo.values().all(|(t, _)| poly.handle_id(t).is_some()));
        let (rows, entries) = (nat.len(), memo.len());
        let roots = intern_forest_mapped(&mut nat, &mut memo, &h, &keep);
        prop_assert_eq!((nat.len(), memo.len()), (rows, entries), "nothing re-mapped");
        prop_assert_eq!(nat.canonical_forest(&roots), map_forest(&h, &keep));
    }
}

/// The growth trigger: appended rows must reach the rows the last
/// compaction kept, and at least 64.
#[test]
fn compaction_is_due_once_the_arena_doubles() {
    let mut arena = TreeArena::<NatPoly>::new();
    let leaf = |arena: &mut TreeArena<NatPoly>, i: usize| {
        arena.intern_node(Label::new(&format!("due{i}")), Vec::new())
    };
    for i in 0..63 {
        leaf(&mut arena, i);
    }
    assert!(!arena.compaction_due(), "below the floor");
    let kept: Vec<u32> = (0..64).map(|i| leaf(&mut arena, i)).collect();
    assert!(arena.compaction_due(), "64 rows appended");
    arena.compact(kept.iter().copied());
    assert_eq!(arena.len(), 64);
    for i in 64..127 {
        leaf(&mut arena, i);
    }
    assert!(!arena.compaction_due(), "63 appended since 64 kept");
    leaf(&mut arena, 127);
    assert!(arena.compaction_due(), "64 appended since 64 kept");
}

/// Dropping a long dead chain releases it without recursing down it,
/// from the arena and from an image memo keyed on it: 20 000 levels
/// would overflow a test thread's stack if the root's release freed
/// the whole chain beneath it.
#[test]
fn dropping_a_deep_chain_does_not_recurse() {
    let mut arena = TreeArena::<NatPoly>::new();
    let mut id = arena.intern_node(Label::new("deep"), Vec::new());
    for _ in 0..20_000 {
        id = arena.intern_node(Label::new("deep"), vec![(id, NatPoly::one())]);
    }
    // The chain's images in ℕ, memoized by source like a kind arena's.
    let chain = arena.canonical_forest(&[(id, NatPoly::one())]);
    let h = FnHom::new(|p: &NatPoly| p.eval(&Valuation::<Nat>::new()));
    let mut nat = TreeArena::<Nat>::new();
    let mut memo = Default::default();
    intern_forest_mapped(&mut nat, &mut memo, &h, &chain);
    drop(chain);

    let map = arena.compact(std::iter::empty());
    assert!(arena.is_empty());
    assert_eq!(map.get(id), None);
    // The memo now holds the last references to the source chain.
    compact_mapped(&mut nat, &mut memo, |t| arena.handle_id(t).is_some());
    assert!(memo.is_empty() && nat.is_empty());
}
