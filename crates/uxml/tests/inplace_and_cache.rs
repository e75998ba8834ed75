//! Property tests for the forest-level in-place operations and the
//! cached per-node metadata:
//!
//! - `Forest::union_with` / `scalar_mul_in_place` / `extend_scaled`
//!   agree with their functional counterparts;
//! - the cached `Tree::size` equals a recomputation from scratch;
//! - the fingerprint-leading `Ord` is consistent with `Eq`, and the
//!   document-order comparator is too;
//! - structurally equal trees built separately share fingerprints;
//! - the keyed `sort_document` gives the comparator sort's order, and
//!   `coalesce_document` the K-set's sums, on inputs heavy with label
//!   and size ties.

use axml_semiring::{NatPoly, Semiring};
use axml_uxml::{coalesce_document, sort_document, Forest, Tree};
use proptest::prelude::*;

const LABELS: [&str; 4] = ["ia", "ib", "ic", "id"];
const VARS: [&str; 3] = ["iv1", "iv2", "iv3"];

fn arb_annotation() -> impl Strategy<Value = NatPoly> {
    prop_oneof![
        3 => proptest::sample::select(&VARS[..]).prop_map(NatPoly::var_named),
        1 => Just(NatPoly::one()),
        1 => (1u64..3).prop_map(NatPoly::from),
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

/// Recompute the node count without the cache.
fn slow_size(t: &Tree<NatPoly>) -> usize {
    1 + t
        .children()
        .iter()
        .map(|(c, _)| slow_size(c))
        .sum::<usize>()
}

/// Rebuild a structurally identical tree from fresh allocations.
fn rebuild(t: &Tree<NatPoly>) -> Tree<NatPoly> {
    Tree::new(
        t.label(),
        Forest::from_pairs(t.children().iter().map(|(c, k)| (rebuild(c), k.clone()))),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn forest_inplace_ops_agree(a in arb_forest(), b in arb_forest(), k in arb_annotation()) {
        let functional = a.union(&b);
        let mut in_place = a.clone();
        in_place.union_with(b.clone());
        prop_assert_eq!(&in_place, &functional);

        let functional = a.scalar_mul(&k);
        let mut in_place = a.clone();
        in_place.scalar_mul_in_place(&k);
        prop_assert_eq!(&in_place, &functional);

        let functional = a.union(&b.scalar_mul(&k));
        let mut in_place = a.clone();
        in_place.extend_scaled(b.clone(), &k);
        prop_assert_eq!(&in_place, &functional);
    }

    #[test]
    fn cached_size_matches_recomputation(t in arb_tree(3)) {
        prop_assert_eq!(t.size(), slow_size(&t));
    }

    #[test]
    fn rebuilt_trees_share_fingerprint_and_compare_equal(t in arb_tree(3)) {
        let u = rebuild(&t);
        prop_assert_eq!(&t, &u);
        prop_assert_eq!(t.structural_hash(), u.structural_hash());
        prop_assert_eq!(t.cmp(&u), std::cmp::Ordering::Equal);
        prop_assert_eq!(t.cmp_document(&u), std::cmp::Ordering::Equal);
    }

    #[test]
    fn orderings_are_consistent_with_equality(a in arb_tree(2), b in arb_tree(2)) {
        prop_assert_eq!(a.cmp(&b) == std::cmp::Ordering::Equal, a == b);
        prop_assert_eq!(a.cmp_document(&b) == std::cmp::Ordering::Equal, a == b);
        // antisymmetry of both orders
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        prop_assert_eq!(a.cmp_document(&b), b.cmp_document(&a).reverse());
    }

    /// Document order is what printing uses: equal forests print
    /// identically even when built in different orders.
    #[test]
    fn printing_is_insertion_order_independent(pairs in proptest::collection::vec((arb_tree(2), arb_annotation()), 0..4)) {
        let forward = Forest::from_pairs(pairs.clone());
        let reversed = Forest::from_pairs(pairs.into_iter().rev());
        prop_assert_eq!(forward.to_string(), reversed.to_string());
    }

    /// On distinct trees (a forest) the keyed sort is exactly
    /// `sort_by(cmp_document, then annotation)`; with repeated trees it
    /// is that comparator's *stable* sort, so equal trees keep their
    /// input order.
    #[test]
    fn sort_document_matches_the_comparator_sort(
        pairs in proptest::collection::vec((arb_tied_tree(2), arb_annotation()), 0..12),
    ) {
        let forest = Forest::from_pairs(pairs.clone());
        let mut keyed: Vec<(&Tree<NatPoly>, &NatPoly)> = forest.iter().collect();
        let mut reference = keyed.clone();
        sort_document(&mut keyed);
        reference.sort_by(|(ta, ka), (tb, kb)| ta.cmp_document(tb).then_with(|| ka.cmp(kb)));
        prop_assert_eq!(
            keyed.iter().map(|(t, k)| (t.ptr_token(), *k)).collect::<Vec<_>>(),
            reference.iter().map(|(t, k)| (t.ptr_token(), *k)).collect::<Vec<_>>()
        );

        let mut keyed: Vec<(&Tree<NatPoly>, usize)> =
            pairs.iter().enumerate().map(|(i, (t, _))| (t, i)).collect();
        let mut reference = keyed.clone();
        sort_document(&mut keyed);
        reference.sort_by(|(a, _), (b, _)| a.cmp_document(b));
        prop_assert_eq!(
            keyed.iter().map(|(_, i)| *i).collect::<Vec<_>>(),
            reference.iter().map(|(_, i)| *i).collect::<Vec<_>>()
        );
    }

    /// Folding a sorted gather gives the K-set's members, sums and
    /// document order — zero contributions included.
    #[test]
    fn coalesce_document_matches_the_k_set(
        pairs in proptest::collection::vec((arb_tied_tree(2), arb_annotation()), 0..12),
        counts in proptest::collection::vec(0u64..3, 12),
    ) {
        let counted: Vec<(Tree<NatPoly>, NatPoly)> =
            pairs.iter().zip(&counts).map(|((t, _), &n)| (t.clone(), NatPoly::from(n))).collect();
        for gather in [pairs, counted] {
            let summed = Forest::from_pairs(gather.clone());
            let want: Vec<(&Tree<NatPoly>, &NatPoly)> = summed.iter_document();
            let got = coalesce_document(gather.iter().map(|(t, k)| (t, k.clone())).collect());
            prop_assert_eq!(got.iter().map(|(t, k)| (*t, k)).collect::<Vec<_>>(), want);
        }
    }
}

/// Trees over two labels and few shapes: most pairs tie on both the
/// label and the size, so the sort's structural fallback decides.
fn arb_tied_tree(depth: u32) -> BoxedStrategy<Tree<NatPoly>> {
    const TIED: [&str; 2] = ["ta", "tb"];
    if depth == 0 {
        proptest::sample::select(&TIED[..])
            .prop_map(Tree::leaf)
            .boxed()
    } else {
        (
            proptest::sample::select(&TIED[..]),
            proptest::collection::vec((arb_tied_tree(depth - 1), arb_annotation()), 0..3),
        )
            .prop_map(|(l, kids)| Tree::new(l, Forest::from_pairs(kids)))
            .boxed()
    }
}
