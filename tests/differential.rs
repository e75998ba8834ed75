//! Differential and robustness tests across the whole pipeline:
//! parser ↔ printer round-trips, the three semantics against each
//! other (with and without the equational optimizer), and boundary
//! conditions (deep trees, empty inputs, degenerate annotations).

use axml_core::{compile, elaborate, eval_query, eval_query_nrc, parse_query};
use axml_semiring::{Nat, NatPoly, Semiring};
use axml_uxml::{parse_forest, Forest, Tree, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Round-trips
// ---------------------------------------------------------------------

fn arb_annotation() -> impl Strategy<Value = NatPoly> {
    prop_oneof![
        2 => proptest::sample::select(&["da", "db", "dc"][..]).prop_map(NatPoly::var_named),
        1 => Just(NatPoly::one()),
        1 => (1u64..4).prop_map(NatPoly::from),
    ]
}

const DLABELS: [&str; 5] = ["alpha", "beta", "g-x", "d_1", "e.ext"];

fn arb_tree(depth: u32) -> BoxedStrategy<Tree<NatPoly>> {
    if depth == 0 {
        proptest::sample::select(&DLABELS[..])
            .prop_map(Tree::leaf)
            .boxed()
    } else {
        (
            proptest::sample::select(&DLABELS[..]),
            proptest::collection::vec((arb_tree(depth - 1), arb_annotation()), 0..3),
        )
            .prop_map(|(l, kids)| Tree::new(l, Forest::from_pairs(kids)))
            .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// print → parse is the identity on forests.
    #[test]
    fn uxml_print_parse_roundtrip(
        trees in proptest::collection::vec((arb_tree(3), arb_annotation()), 1..4)
    ) {
        let f = Forest::from_pairs(trees);
        let printed = f.to_string();
        let inner = &printed[1..printed.len() - 1]; // strip forest parens
        // empty forests print as "()" → inner is empty, which parses
        let reparsed = parse_forest::<NatPoly>(inner).expect("reparses");
        prop_assert_eq!(reparsed, f);
    }

    /// Compiled queries survive the NRC printer/parser.
    #[test]
    fn compiled_query_nrc_text_roundtrip(steps in 1usize..3) {
        let mut q = String::from("$S");
        for _ in 0..steps {
            q.push_str("/descendant::c");
        }
        let core = elaborate(&parse_query::<NatPoly>(&q).unwrap()).unwrap();
        let e = compile(&core);
        let reparsed = axml_nrc::parse_expr::<NatPoly>(&e.to_string())
            .expect("compiled query reparses");
        prop_assert_eq!(reparsed, e);
    }
}

#[test]
fn compiled_paper_queries_roundtrip_through_nrc_text() {
    for q in [
        "element r { $T//c }",
        "$S/*/*",
        "for $x in $R, $y in $S where $x/B = $y/B return <t> { $x/A } </t>",
        "annot {2*w + 1} ($S/self::a)",
    ] {
        let core = elaborate(&parse_query::<NatPoly>(q).unwrap()).unwrap();
        let e = compile(&core);
        let printed = e.to_string();
        let reparsed = axml_nrc::parse_expr::<NatPoly>(&printed)
            .unwrap_or_else(|err| panic!("reparse of compiled {q:?} failed: {err}\n{printed}"));
        assert_eq!(reparsed, e);
    }
}

// ---------------------------------------------------------------------
// Optimizer differential: simplify ∘ compile ≡ compile
// ---------------------------------------------------------------------

#[test]
fn optimizer_preserves_all_paper_queries() {
    let doc =
        parse_forest::<NatPoly>("<a {z}> <b {x1}> d {y1} c </b> <c {x2}> d {y2} e {y3} </c> </a>")
            .unwrap();
    for q in [
        "element p { for $t in $S return for $x in ($t)/child::* return ($x)/child::* }",
        "element r { $S//c }",
        "$S/strict-descendant::d",
        "for $x in $S, $y in $S where $x/B = $y/B return ($x)",
        "annot {7} ($S/*), $S/self::a",
    ] {
        let core = elaborate(&parse_query::<NatPoly>(q).unwrap()).unwrap();
        let e = compile(&core);
        let s = axml_nrc::axioms::simplify(&e);
        let mut env1 =
            axml_nrc::Env::from_bindings([("S".to_owned(), axml_nrc::CValue::from_forest(&doc))]);
        let mut env2 = env1.clone();
        assert_eq!(
            axml_nrc::eval(&e, &mut env1).unwrap(),
            axml_nrc::eval(&s, &mut env2).unwrap(),
            "optimizer changed semantics of {q}"
        );
        assert!(
            s.size() <= e.size(),
            "optimizer must not grow the term: {q} ({} → {})",
            e.size(),
            s.size()
        );
    }
}

// ---------------------------------------------------------------------
// Boundary conditions
// ---------------------------------------------------------------------

#[test]
fn empty_input_forest() {
    let q = parse_query::<Nat>("element out { $S//x }").unwrap();
    let out = eval_query(&q, &[("S", Value::Set(Forest::new()))]).unwrap();
    let Value::Tree(t) = out else { panic!() };
    assert!(t.children().is_empty());
    let out2 = eval_query_nrc(&q, &[("S", Value::Set(Forest::new()))]).unwrap();
    let Value::Tree(t2) = out2 else { panic!() };
    assert_eq!(t.children(), t2.children());
}

#[test]
fn deep_chain_tree() {
    // a 300-deep chain exercises recursion in eval, srt, and shredding
    let mut t: Tree<Nat> = Tree::leaf("end");
    for i in 0..300 {
        t = Tree::new(
            axml_uxml::Label::new(if i % 2 == 0 { "even" } else { "odd" }),
            Forest::unit(t),
        );
    }
    let f = Forest::unit(t);
    let q = parse_query::<Nat>("$S//end").unwrap();
    let direct = eval_query(&q, &[("S", Value::Set(f.clone()))]).unwrap();
    let via_nrc = eval_query_nrc(&q, &[("S", Value::Set(f.clone()))]).unwrap();
    assert_eq!(direct, via_nrc);
    let Value::Set(result) = direct else { panic!() };
    assert_eq!(result.len(), 1);
    assert_eq!(result.get(&axml_uxml::leaf("end")), Nat(1));

    // shredding route on a (shallower) chain — Datalog iterations scale
    // with depth, keep it moderate
    let mut t2: Tree<Nat> = Tree::leaf("end");
    for _ in 0..40 {
        t2 = Tree::new(axml_uxml::Label::new("n"), Forest::unit(t2));
    }
    let f2 = Forest::unit(t2);
    let steps = [axml_core::ast::Step {
        axis: axml_core::ast::Axis::Descendant,
        test: axml_core::ast::NodeTest::Label(axml_uxml::Label::new("end")),
    }];
    let shredded = axml_relational::eval_path_via_shredding(
        &f2,
        &axml_core::path::PathQuery::from_steps(&steps),
        &axml_uxml::Exec::default(),
    )
    .unwrap();
    assert_eq!(shredded.len(), 1);
}

#[test]
fn wide_flat_tree() {
    let mut kids: Forest<Nat> = Forest::new();
    for i in 0..2_000 {
        kids.insert(Tree::leaf(axml_uxml::Label::new(&format!("w{i}"))), Nat(1));
    }
    let f = Forest::unit(Tree::new("root", kids));
    let q = parse_query::<Nat>("$S/*").unwrap();
    let out = eval_query(&q, &[("S", Value::Set(f))]).unwrap();
    let Value::Set(r) = out else { panic!() };
    assert_eq!(r.len(), 2_000);
}

#[test]
fn all_zero_annotations_vanish_everywhere() {
    let f = parse_forest::<Nat>("<a {0}> b </a> c {0}").unwrap();
    assert!(f.is_empty(), "zero-annotated roots are absent");
    let q = parse_query::<Nat>("$S//b").unwrap();
    let out = eval_query(&q, &[("S", Value::Set(f))]).unwrap();
    assert!(out.as_set().unwrap().is_empty());
}

#[test]
fn huge_multiplicities_stay_exact() {
    // u128 headroom: 10^18 squared through a join-like query
    let big = Nat(1_000_000_000_000_000_000u128);
    let f = Forest::from_pairs([(Tree::<Nat>::leaf("x"), big)]);
    let q = parse_query::<Nat>("for $a in $S return for $b in $S return ($a)").unwrap();
    let out = eval_query(&q, &[("S", Value::Set(f))]).unwrap();
    let Value::Set(r) = out else { panic!() };
    assert_eq!(
        r.get(&axml_uxml::leaf("x")),
        Nat(big.0.checked_mul(big.0).unwrap())
    );
}

#[test]
fn shadowing_across_nested_fors() {
    // $x rebound in the inner for must shadow the outer binding
    let f = parse_forest::<Nat>("<a> <b> c </b> </a>").unwrap();
    let q = parse_query::<Nat>("for $x in $S return for $x in ($x)/child::* return ($x)").unwrap();
    let out = eval_query(&q, &[("S", Value::Set(f))]).unwrap();
    let Value::Set(r) = out else { panic!() };
    assert_eq!(r.len(), 1);
    assert_eq!(r.trees().next().unwrap().label().name(), "b");
}

#[test]
fn annotations_inside_constructed_elements_are_preserved() {
    // element construction must not disturb inner annotations
    let f = parse_forest::<NatPoly>("<r> <a {p}> v {q} </a> </r>").unwrap();
    let q = parse_query::<NatPoly>("element wrap { $S/a }").unwrap();
    let out = eval_query(&q, &[("S", Value::Set(f))]).unwrap();
    let Value::Tree(t) = out else { panic!() };
    let a = t.children().trees().next().unwrap();
    assert_eq!(
        a.children().get(&axml_uxml::leaf("v")),
        "q".parse::<NatPoly>().unwrap()
    );
}

#[test]
fn semiring_generic_query_paths() {
    // the same query text runs in five semirings
    use axml_semiring::{Clearance, PosBool, Tropical};
    fn run<K: Semiring + axml_uxml::ParseAnnotation>(doc: &str) -> usize {
        let f = parse_forest::<K>(doc).unwrap();
        let q = parse_query::<K>("$S//leaf").unwrap();
        let out = eval_query(&q, &[("S", Value::Set(f))]).unwrap();
        out.as_set().unwrap().len()
    }
    assert_eq!(run::<Nat>("<a> <b {3}> leaf {2} </b> </a>"), 1);
    assert_eq!(run::<bool>("<a> <b {true}> leaf {true} </b> </a>"), 1);
    assert_eq!(run::<NatPoly>("<a> <b {x}> leaf {y} </b> </a>"), 1);
    assert_eq!(run::<Clearance>("<a> <b {S}> leaf {C} </b> </a>"), 1);
    assert_eq!(run::<PosBool>("<a> <b {u}> leaf {v} </b> </a>"), 1);
    let _ = Tropical::cost(0);
}

#[test]
fn product_semiring_tracks_jointly() {
    // §9: "recording jointly provenance, security, and uncertainty
    // (the product of several semirings is also a semiring!)" — run one
    // query with ℕ (multiplicity) × Clearance annotations and check
    // both components equal their separately-computed values.
    use axml_semiring::{Clearance, Product};
    type K = Product<Nat, Clearance>;

    let joint: Forest<K> = Forest::from_pairs([(
        Tree::new(
            "r",
            Forest::from_pairs([
                (Tree::leaf("x"), Product::new(Nat(2), Clearance::S)),
                (Tree::leaf("x2"), Product::new(Nat(1), Clearance::P)),
            ]),
        ),
        Product::new(Nat(1), Clearance::C),
    )]);
    let q = parse_query::<K>("$S/*").unwrap();
    let out = eval_query(&q, &[("S", Value::Set(joint.clone()))]).unwrap();
    let Value::Set(f) = out else { panic!() };
    // x: multiplicity 1·2 = 2; clearance max(C, S) = S
    let x_ann = f.get(&Tree::leaf("x"));
    assert_eq!(*x_ann.fst(), Nat(2));
    assert_eq!(*x_ann.snd(), Clearance::S);

    // each projection agrees with running the query in that component
    use axml_semiring::FnHom;
    let h1 = FnHom::new(|p: &K| *p.fst());
    let h2 = FnHom::new(|p: &K| *p.snd());
    let nat_only = eval_query(
        &axml_core::hom::map_surface(&h1, &q),
        &[("S", Value::Set(axml_uxml::hom::map_forest(&h1, &joint)))],
    )
    .unwrap();
    let clr_only = eval_query(
        &axml_core::hom::map_surface(&h2, &q),
        &[("S", Value::Set(axml_uxml::hom::map_forest(&h2, &joint)))],
    )
    .unwrap();
    let Value::Set(fn_) = nat_only else { panic!() };
    let Value::Set(fc) = clr_only else { panic!() };
    assert_eq!(fn_.get(&Tree::leaf("x")), *x_ann.fst());
    assert_eq!(fc.get(&Tree::leaf("x")), *x_ann.snd());
}
