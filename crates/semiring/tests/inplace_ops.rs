//! Property tests for the in-place / consuming hot-path operations:
//! every one of them must agree exactly with its functional
//! counterpart, across semirings with different shapes (numeric `Nat`,
//! absorbing `PosBool`, lattice-like `Tropical`, and symbolic
//! `NatPoly`).
//!
//! - `KSet::union_with`        ≡ `KSet::union`
//! - `KSet::scalar_mul_in_place` ≡ `KSet::scalar_mul`
//! - `KSet::extend_scaled`     ≡ `union ∘ scalar_mul`
//! - `KSet::bind_into`         ≡ `union ∘ bind`
//! - flat `Monomial::times`    ≡ the map-based reference product
//! - `NatPoly`'s consuming `Semiring::add` ≡ `Semiring::plus`, and its
//!   one-sort `Semiring::sum` ≡ the `plus` fold
//! - every semiring's `is_one` ≡ `== one()`

use axml_semiring::{KSet, Monomial, Nat, NatPoly, PosBool, Semiring, Tropical, Var};
use proptest::prelude::*;
use std::collections::BTreeMap;

const VARS: [&str; 4] = ["ip_a", "ip_b", "ip_c", "ip_d"];

fn arb_nat() -> impl Strategy<Value = Nat> {
    (0u64..5).prop_map(Nat::from)
}

fn arb_posbool() -> impl Strategy<Value = PosBool> {
    prop_oneof![
        1 => Just(PosBool::ff()),
        1 => Just(PosBool::tt()),
        3 => proptest::sample::select(&VARS[..]).prop_map(PosBool::var_named),
        2 => (
            proptest::sample::select(&VARS[..]),
            proptest::sample::select(&VARS[..]),
        )
            .prop_map(|(a, b)| {
                PosBool::var_named(a).times(&PosBool::var_named(b))
            }),
        1 => (
            proptest::sample::select(&VARS[..]),
            proptest::sample::select(&VARS[..]),
        )
            .prop_map(|(a, b)| {
                PosBool::var_named(a).plus(&PosBool::var_named(b))
            }),
    ]
}

fn arb_tropical() -> impl Strategy<Value = Tropical> {
    prop_oneof![
        1 => Just(Tropical::zero()),
        5 => (0u64..20).prop_map(Tropical::cost),
    ]
}

fn arb_poly() -> impl Strategy<Value = NatPoly> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0usize..VARS.len(), 1u32..3), 0..3),
            1u64..4,
        ),
        0..4,
    )
    .prop_map(|terms| {
        let mut acc = NatPoly::zero();
        for (vars, coeff) in terms {
            let mono = Monomial::from_pairs(vars.into_iter().map(|(i, e)| (Var::new(VARS[i]), e)));
            acc = acc.plus(&NatPoly::term(mono, Nat::from(coeff)));
        }
        acc
    })
}

/// Check every in-place KSet op against its functional counterpart on
/// one triple of inputs.
fn check_kset_ops<K: Semiring>(a: KSet<u32, K>, b: KSet<u32, K>, k: K) {
    // union_with ≡ union
    let functional = a.union(&b);
    let mut in_place = a.clone();
    in_place.union_with(b.clone());
    assert_eq!(in_place, functional, "union_with must agree with union");

    // scalar_mul_in_place ≡ scalar_mul
    let functional = a.scalar_mul(&k);
    let mut in_place = a.clone();
    in_place.scalar_mul_in_place(&k);
    assert_eq!(
        in_place, functional,
        "scalar_mul_in_place must agree with scalar_mul"
    );

    // extend_scaled ≡ union ∘ scalar_mul
    let functional = a.union(&b.scalar_mul(&k));
    let mut in_place = a.clone();
    in_place.extend_scaled(b.clone(), &k);
    assert_eq!(
        in_place, functional,
        "extend_scaled must agree with union ∘ scalar_mul"
    );

    // bind_into ≡ union ∘ bind
    let f =
        |x: &u32| -> KSet<u32, K> { KSet::from_pairs([(x % 3, K::one()), (x + 10, k.clone())]) };
    let functional = a.union(&b.bind(f));
    let mut in_place = a.clone();
    b.bind_into(f, &mut in_place);
    assert_eq!(
        in_place, functional,
        "bind_into must agree with union ∘ bind"
    );
}

/// The pre-refactor map-based monomial product, kept as the reference
/// the flat merge implementation must reproduce.
fn reference_monomial_times(a: &Monomial, b: &Monomial) -> Monomial {
    let mut exps: BTreeMap<Var, u32> = a.iter().collect();
    for (v, e) in b.iter() {
        *exps.entry(v).or_insert(0) += e;
    }
    Monomial::from_pairs(exps)
}

fn arb_monomial() -> impl Strategy<Value = Monomial> {
    proptest::collection::vec((0usize..VARS.len(), 0u32..3), 0..5).prop_map(|pairs| {
        Monomial::from_pairs(pairs.into_iter().map(|(i, e)| (Var::new(VARS[i]), e)))
    })
}

macro_rules! kset_agreement_tests {
    ($($name:ident => $arb:expr),+ $(,)?) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            $(
                #[test]
                fn $name(
                    a in proptest::collection::vec((0u32..6, $arb), 0..5),
                    b in proptest::collection::vec((0u32..6, $arb), 0..5),
                    k in $arb,
                ) {
                    check_kset_ops(KSet::from_pairs(a), KSet::from_pairs(b), k);
                }
            )+
        }
    };
}

kset_agreement_tests! {
    kset_inplace_ops_agree_nat => arb_nat(),
    kset_inplace_ops_agree_posbool => arb_posbool(),
    kset_inplace_ops_agree_tropical => arb_tropical(),
    kset_inplace_ops_agree_natpoly => arb_poly(),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Flat merge-based monomial product ≡ map-based reference.
    #[test]
    fn flat_monomial_times_matches_reference(a in arb_monomial(), b in arb_monomial()) {
        prop_assert_eq!(a.times(&b), reference_monomial_times(&a, &b));
        // commutativity comes along for free and pins down the merge
        prop_assert_eq!(a.times(&b), b.times(&a));
    }

    /// NatPoly's consuming merge addition ≡ functional plus.
    #[test]
    fn natpoly_consuming_add_matches(a in arb_poly(), b in arb_poly()) {
        let functional = a.plus(&b);
        prop_assert_eq!(a.clone().add(b.clone()), functional.clone());
        prop_assert_eq!(b.add(a), functional);
    }

    /// The swap inside union_with (merge smaller into larger) must not
    /// leak: union stays commutative through the in-place path.
    #[test]
    fn union_with_commutes(
        a in proptest::collection::vec((0u32..6, arb_poly()), 0..6),
        b in proptest::collection::vec((0u32..6, arb_poly()), 0..2),
    ) {
        let (sa, sb): (KSet<u32, NatPoly>, KSet<u32, NatPoly>) =
            (KSet::from_pairs(a), KSet::from_pairs(b));
        let mut ab = sa.clone();
        ab.union_with(sb.clone());
        let mut ba = sb;
        ba.union_with(sa);
        prop_assert_eq!(ab, ba);
    }
}

/// Every kind: polynomials of [`arb_poly`] (and `1` itself, often)
/// pushed through the collapses of the provenance hierarchy.
fn arb_unitish_poly() -> impl Strategy<Value = NatPoly> {
    prop_oneof![2 => Just(NatPoly::one()), 3 => arb_poly()]
}

/// `is_one` against the definition, `k == K::one()`.
fn check_is_one<K: Semiring>(k: &K) {
    assert_eq!(k.is_one(), *k == K::one(), "{k:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every semiring's `is_one` — the structural ones included — is
    /// exactly `== one()`.
    #[test]
    fn is_one_is_equality_with_one(p in arb_unitish_poly(), n in 0u64..3, c in 0u64..3, f in 0u8..3) {
        use axml_semiring::trio::collapse::*;
        use axml_semiring::{Lineage, Prob, Why};
        check_is_one(&p);
        check_is_one(&natpoly_to_boolpoly(&p));
        check_is_one(&natpoly_to_trio(&p));
        check_is_one(&natpoly_to_why(&p));
        check_is_one(&natpoly_to_posbool(&p));
        check_is_one(&natpoly_to_lineage(&p));
        check_is_one::<Why>(&Why::one());
        check_is_one::<Lineage>(&Lineage::one());
        check_is_one(&Nat::from(n));
        check_is_one(&Tropical::cost(c));
        check_is_one(&Tropical::zero());
        check_is_one(&Prob::new(f64::from(f) / 2.0));
        check_is_one(&(n == 1));
    }

    /// ℕ\[X\]'s one-sort `sum` ≡ the left fold of `plus`.
    #[test]
    fn natpoly_sum_matches_the_plus_fold(ps in proptest::collection::vec(arb_poly(), 0..8)) {
        let fold = ps.iter().fold(NatPoly::zero(), |acc, p| acc.plus(p));
        prop_assert_eq!(NatPoly::sum(ps), fold);
    }
}
