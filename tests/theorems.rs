//! Property-based verification of the paper's theorems and
//! propositions on randomized inputs.
//!
//! | Result | Property tested here |
//! |--------|----------------------|
//! | Thm 1 / Cor 1 | `H(p(v)) = H(p)(H(v))` for random queries, forests and homomorphisms |
//! | Thm 2 | shredded (Datalog) evaluation = direct evaluation for random step chains |
//! | Prop 1 | RA⁺ on K-relations = UXQuery on the encoding, random algebra terms |
//! | Prop 2 | provenance sizes within the `O(|v|^{|p|})` bound |
//! | Prop 3 | UXML-equivalent queries agree on distributive lattices (and *dis*agree on ℕ — pinning why the lattice hypothesis matters) |
//! | Prop 4 | NRC(RA⁺) on complex values = RA⁺ on K-relations |
//! | Prop 5 | the equational rewriter preserves semantics |

use axml_core::ast::{Axis, NodeTest, Step, SurfaceExpr};
use axml_core::{eval_query, eval_query_nrc, parse_query};
use axml_semiring::trio::collapse;
use axml_semiring::{Clearance, FnHom, Nat, NatPoly, PosBool, Semiring, Trio, Valuation, Var, Why};
use axml_uxml::hom::{map_forest, map_value};
use axml_uxml::{Forest, Label, Tree, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

const LABELS: [&str; 5] = ["a", "b", "c", "d", "e"];
const VARS: [&str; 4] = ["v1", "v2", "v3", "v4"];

fn arb_annotation() -> impl Strategy<Value = NatPoly> {
    prop_oneof![
        3 => proptest::sample::select(&VARS[..]).prop_map(NatPoly::var_named),
        1 => Just(NatPoly::one()),
        1 => (1u64..3).prop_map(NatPoly::from),
        1 => (proptest::sample::select(&VARS[..]), proptest::sample::select(&VARS[..]))
            .prop_map(|(x, y)| NatPoly::var_named(x).plus(&NatPoly::var_named(y))),
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
    proptest::collection::vec((arb_tree(3), arb_annotation()), 1..3).prop_map(Forest::from_pairs)
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        prop_oneof![
            Just(Axis::SelfAxis),
            Just(Axis::Child),
            Just(Axis::Descendant),
            Just(Axis::StrictDescendant),
        ],
        prop_oneof![
            2 => proptest::sample::select(&LABELS[..])
                .prop_map(|l| NodeTest::Label(Label::new(l))),
            1 => Just(NodeTest::Wildcard),
        ],
    )
        .prop_map(|(axis, test)| Step { axis, test })
}

/// Random well-typed surface queries over the input `$S : {tree}`.
fn arb_query(depth: u32) -> BoxedStrategy<SurfaceExpr<NatPoly>> {
    let leaf = prop_oneof![
        3 => Just(SurfaceExpr::Var("S".into())),
        1 => Just(SurfaceExpr::Empty),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            // path step
            3 => (inner.clone(), arb_step())
                .prop_map(|(q, s)| SurfaceExpr::Path(Box::new(q), s)),
            // union
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| {
                SurfaceExpr::Seq(Box::new(a), Box::new(b))
            }),
            // element wrap
            1 => (proptest::sample::select(&LABELS[..]), inner.clone()).prop_map(
                |(l, q)| SurfaceExpr::Element {
                    name: axml_core::ElementName::Static(Label::new(l)),
                    content: Box::new(q),
                }
            ),
            // annot
            1 => (arb_annotation(), inner.clone()).prop_map(|(k, q)| {
                SurfaceExpr::Annot(k, Box::new(q))
            }),
            // for $x in q return ($x)/step — iteration with reuse
            2 => (inner.clone(), arb_step()).prop_map(|(q, s)| SurfaceExpr::For {
                binders: vec![("x".into(), q)],
                where_eq: None,
                body: Box::new(SurfaceExpr::Path(
                    Box::new(SurfaceExpr::Paren(Box::new(SurfaceExpr::Var("x".into())))),
                    s,
                )),
            }),
            // conditional on the name of iterated trees
            1 => (inner.clone(), proptest::sample::select(&LABELS[..])).prop_map(
                |(q, l)| SurfaceExpr::For {
                    binders: vec![("y".into(), q)],
                    where_eq: None,
                    body: Box::new(SurfaceExpr::If {
                        l: Box::new(SurfaceExpr::Name(Box::new(SurfaceExpr::Var(
                            "y".into()
                        )))),
                        r: Box::new(SurfaceExpr::LabelLit(Label::new(l))),
                        then: Box::new(SurfaceExpr::Paren(Box::new(SurfaceExpr::Var(
                            "y".into()
                        )))),
                        els: Box::new(SurfaceExpr::Empty),
                    }),
                }
            ),
        ]
    })
    .boxed()
}

fn run_nat_poly(q: &SurfaceExpr<NatPoly>, v: &Forest<NatPoly>) -> Value<NatPoly> {
    eval_query(q, &[("S", Value::Set(v.clone()))]).expect("evaluates")
}

// ---------------------------------------------------------------------
// Theorem 1 / Corollary 1: commutation with homomorphisms
// ---------------------------------------------------------------------

fn check_cor1<K2, H>(q: &SurfaceExpr<NatPoly>, v: &Forest<NatPoly>, h: &H)
where
    K2: Semiring,
    H: axml_semiring::SemiringHom<NatPoly, K2>,
{
    // H(p(v))
    let lhs = map_value(h, &run_nat_poly(q, v));
    // H(p)(H(v))
    let hq = axml_core::hom::map_surface(h, q);
    let hv = map_forest(h, v);
    let rhs = eval_query(&hq, &[("S", Value::Set(hv))]).expect("evaluates");
    assert_eq!(lhs, rhs, "Corollary 1 violated for query {q:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cor1_valuation_into_nat(q in arb_query(3), v in arb_forest(),
                               k1 in 0u64..3, k2 in 0u64..3) {
        let val = Valuation::<Nat>::from_pairs([
            (Var::new("v1"), Nat::from(k1)),
            (Var::new("v2"), Nat::from(k2)),
            (Var::new("v3"), Nat::from(0u64)),
        ]);
        check_cor1(&q, &v, &FnHom::new(move |p: &NatPoly| p.eval(&val)));
    }

    #[test]
    fn cor1_valuation_into_bool(q in arb_query(3), v in arb_forest(),
                                bits in 0u8..16) {
        let val = Valuation::<bool>::from_pairs(
            VARS.iter()
                .enumerate()
                .map(|(i, name)| (Var::new(name), bits & (1 << i) != 0)),
        );
        check_cor1(&q, &v, &FnHom::new(move |p: &NatPoly| p.eval(&val)));
    }

    #[test]
    fn cor1_valuation_into_clearance(q in arb_query(3), v in arb_forest(),
                                     picks in proptest::collection::vec(0usize..5, 4)) {
        let levels = [
            Clearance::P,
            Clearance::C,
            Clearance::S,
            Clearance::T,
            Clearance::NEVER,
        ];
        let val = Valuation::<Clearance>::from_pairs(
            VARS.iter()
                .zip(picks.iter())
                .map(|(name, &i)| (Var::new(name), levels[i])),
        );
        check_cor1(&q, &v, &FnHom::new(move |p: &NatPoly| p.eval(&val)));
    }

    #[test]
    fn cor1_hierarchy_collapses(q in arb_query(3), v in arb_forest()) {
        check_cor1::<PosBool, _>(&q, &v, &FnHom::new(collapse::natpoly_to_posbool));
        check_cor1::<Why, _>(&q, &v, &FnHom::new(collapse::natpoly_to_why));
        check_cor1::<Trio, _>(&q, &v, &FnHom::new(collapse::natpoly_to_trio));
    }

    // -------------------------------------------------------------
    // Differential testing: the two semantics routes agree
    // -------------------------------------------------------------

    #[test]
    fn direct_and_nrc_semantics_agree(q in arb_query(3), v in arb_forest()) {
        let inputs = [("S", Value::Set(v))];
        let d = eval_query(&q, &inputs).expect("direct");
        let n = eval_query_nrc(&q, &inputs).expect("nrc");
        prop_assert_eq!(d, n);
    }

    // -------------------------------------------------------------
    // Theorem 2: shredding
    // -------------------------------------------------------------

    #[test]
    fn thm2_shredding_agrees(v in arb_forest(),
                             steps in proptest::collection::vec(arb_step(), 1..4)) {
        let shredded = axml_relational::eval_path_via_shredding(
            &v,
            &axml_core::path::PathQuery::from_steps(&steps),
            &axml_uxml::Exec::default(),
        )
        .expect("datalog converges on trees");
        let mut direct = v.clone();
        for s in &steps {
            direct = axml_core::eval_step(&direct, *s);
        }
        prop_assert_eq!(shredded, direct);
    }

    // -------------------------------------------------------------
    // Prop 2: size bound (empirical check of the O(|v|^{|p|}) claim)
    // -------------------------------------------------------------

    #[test]
    fn prop2_polynomial_sizes_bounded(v in arb_forest(),
                                      steps in proptest::collection::vec(arb_step(), 1..3)) {
        let mut q = SurfaceExpr::Var("S".into());
        for s in &steps {
            q = SurfaceExpr::Path(Box::new(q), *s);
        }
        let core = axml_core::elaborate(&q).expect("types");
        let p_size = core.size();
        let v_size: usize = v.size() + 1;
        let out = run_nat_poly(&q, &v);
        if let Value::Set(f) = out {
            let bound = (v_size as u64).pow(p_size as u32 + 1);
            for (_, k) in f.iter() {
                prop_assert!(
                    (k.size() as u64) <= bound,
                    "polynomial of size {} exceeds |v|^(|p|+1) = {}",
                    k.size(),
                    bound
                );
            }
        }
    }

    // -------------------------------------------------------------
    // Prop 3: distributive lattices
    // -------------------------------------------------------------

    #[test]
    fn prop3_equivalent_queries_agree_on_lattices(v in arb_forest(),
                                                  picks in proptest::collection::vec(0usize..5, 4)) {
        let levels = [
            Clearance::P,
            Clearance::C,
            Clearance::S,
            Clearance::T,
            Clearance::NEVER,
        ];
        let val = Valuation::<Clearance>::from_pairs(
            VARS.iter()
                .zip(picks.iter())
                .map(|(name, &i)| (Var::new(name), levels[i])),
        );
        let vc = map_forest(
            &FnHom::new(|p: &NatPoly| p.eval(&val)),
            &v,
        );
        // UXML-equivalent query pairs (equivalent over sets):
        let pairs = [
            // idempotence of union — NOT an ℕ-equivalence
            ("$S, $S", "$S"),
            // the paper's Fig 1 note: for-for ≡ /*/*
            (
                "for $t in $S return for $x in ($t)/child::* return ($x)/child::*",
                "$S/*/*",
            ),
            // self::* is the identity
            ("$S/self::*", "$S"),
            // filter then wildcard-descend ≡ direct label-descend
            ("$S/descendant::*/self::a", "$S/descendant::a"),
        ];
        for (lhs, rhs) in pairs {
            let ql = parse_query::<Clearance>(lhs).unwrap();
            let qr = parse_query::<Clearance>(rhs).unwrap();
            let ol = eval_query(&ql, &[("S", Value::Set(vc.clone()))]).unwrap();
            let or = eval_query(&qr, &[("S", Value::Set(vc.clone()))]).unwrap();
            prop_assert_eq!(ol, or, "Prop 3 violated for {} vs {}", lhs, rhs);
        }
    }
}

#[test]
fn prop3_fails_without_the_lattice_hypothesis() {
    // Union idempotence is a UXML equivalence but NOT an ℕ-equivalence:
    // this is exactly why Prop 3 requires a distributive lattice.
    let v = axml_uxml::parse_forest::<Nat>("a {1}").unwrap();
    let q1 = parse_query::<Nat>("$S, $S").unwrap();
    let q2 = parse_query::<Nat>("$S").unwrap();
    let o1 = eval_query(&q1, &[("S", Value::Set(v.clone()))]).unwrap();
    let o2 = eval_query(&q2, &[("S", Value::Set(v))]).unwrap();
    assert_ne!(o1, o2, "ℕ distinguishes $S,$S from $S (bag semantics)");
}

// ---------------------------------------------------------------------
// Prop 1 & Prop 4 on random relational instances
// ---------------------------------------------------------------------

fn arb_krelation(
    attrs: &'static [&'static str],
) -> impl Strategy<Value = axml_relational::KRelation<NatPoly>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(proptest::sample::select(&LABELS[..]), attrs.len()),
            arb_annotation(),
        ),
        0..4,
    )
    .prop_map(move |rows| {
        let mut rel =
            axml_relational::KRelation::new(axml_relational::Schema::new(attrs.iter().copied()));
        for (cols, k) in rows {
            rel.insert(
                cols.iter()
                    .map(|c| axml_relational::RelValue::label(c))
                    .collect(),
                k,
            );
        }
        rel
    })
}

fn arb_ra_query() -> impl Strategy<Value = axml_relational::RaExpr> {
    use axml_relational::RaExpr;
    prop_oneof![
        Just(RaExpr::rel("R").project(["A", "B"])),
        Just(RaExpr::rel("R").project(["B"])),
        Just(RaExpr::rel("R").select_label("B", "b")),
        Just(RaExpr::rel("R").project(["B", "C"]).union(RaExpr::rel("S"))),
        Just(
            RaExpr::rel("R")
                .project(["A", "B"])
                .join(RaExpr::rel("S"))
                .project(["A", "C"])
        ),
        Just(axml_relational::ra::fig5_query()),
        Just(RaExpr::rel("S").rename("B", "X")),
        Just(RaExpr::rel("R").select_eq("A", "B")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop1_ra_agrees_with_uxquery_on_encoding(
        r in arb_krelation(&["A", "B", "C"]),
        s in arb_krelation(&["B", "C"]),
        q in arb_ra_query(),
    ) {
        let db = axml_relational::Database::new().with("R", r).with("S", s);
        let expected = axml_relational::eval_ra(&q, &db).expect("RA+ evaluates");
        let v = axml_relational::encode_database(&db);
        let uxq = axml_relational::ra_to_uxquery(&q, &db).expect("translates");
        let out = eval_query(&uxq, &[("d", Value::Set(v))]).expect("evaluates");
        let Value::Set(forest) = out else { panic!("expected set") };
        let attrs: Vec<&str> = expected
            .schema()
            .attrs()
            .iter()
            .map(|s| s.as_str())
            .collect();
        let decoded = axml_relational::encode::decode_relation(&forest, &attrs)
            .expect("decodes");
        prop_assert_eq!(decoded, expected);
    }

    #[test]
    fn prop4_nrc_encoding_agrees_with_ra(
        r in arb_krelation(&["A", "B", "C"]),
        s in arb_krelation(&["B", "C"]),
    ) {
        use axml_nrc::ra as nra;
        // Q = π_AC(π_AB(R) ⋈ (π_BC(R) ∪ S)) on both sides.
        let db = axml_relational::Database::new()
            .with("R", r.clone())
            .with("S", s.clone());
        let expected = axml_relational::eval_ra(&axml_relational::ra::fig5_query(), &db)
            .expect("RA+");

        let enc = |rel: &axml_relational::KRelation<NatPoly>| {
            let rows: Vec<(Vec<&str>, NatPoly)> = rel
                .iter()
                .map(|(t, k)| {
                    (
                        t.iter()
                            .map(|v| v.as_label().expect("labels").name())
                            .collect(),
                        k.clone(),
                    )
                })
                .collect();
            nra::encode_relation(&rows)
        };
        let pi_ab = nra::project(axml_nrc::expr::var("R"), &[0, 1], 3);
        let pi_bc = nra::project(axml_nrc::expr::var("R"), &[1, 2], 3);
        let right = nra::union(pi_bc, axml_nrc::expr::var("S"));
        let prod = nra::product(pi_ab, 2, right, 2);
        let joined = nra::select(prod, &nra::Pred::EqCols(1, 2), 4);
        let q = nra::project(joined, &[0, 3], 4);

        let mut env = axml_nrc::Env::from_bindings([
            ("R".to_owned(), enc(&r)),
            ("S".to_owned(), enc(&s)),
        ]);
        let out = axml_nrc::eval(&q, &mut env).expect("NRC evaluates");
        let rows = nra::decode_relation(&out, 2).expect("decodes");
        for (cols, k) in &rows {
            let strs: Vec<&str> = cols.iter().map(|s| s.as_str()).collect();
            prop_assert_eq!(
                expected.get_labels(&strs),
                k.clone(),
                "Prop 4: annotation mismatch on {:?}", cols
            );
        }
        prop_assert_eq!(rows.len(), expected.len());
    }

    // -------------------------------------------------------------
    // Prop 5: the rewriter preserves semantics on compiled queries
    // -------------------------------------------------------------

    #[test]
    fn prop5_simplifier_preserves_query_semantics(q in arb_query(3), v in arb_forest()) {
        let core = axml_core::elaborate(&q).expect("types");
        let e = axml_core::compile(&core);
        let simplified = axml_nrc::axioms::simplify(&e);
        let mut env1 = axml_nrc::Env::from_bindings([(
            "S".to_owned(),
            axml_nrc::CValue::from_forest(&v),
        )]);
        let mut env2 = env1.clone();
        let o1 = axml_nrc::eval(&e, &mut env1).expect("original evaluates");
        let o2 = axml_nrc::eval(&simplified, &mut env2).expect("simplified evaluates");
        prop_assert_eq!(o1, o2);
    }
}

// ---------------------------------------------------------------------
// §5 for K = ℕ (repetitions) and compiled-query well-typedness
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Strong representation for ℕ over any *fixed family* of
    /// valuations (Cor 1 holds per valuation, so it holds for the
    /// family): worlds of the symbolic answer = answers of the worlds.
    #[test]
    fn strong_representation_for_nat_worlds(v in arb_forest(), max in 0u64..3) {
        let q = parse_query::<NatPoly>("element r { $S//c }").unwrap();
        let sym = eval_query(&q, &[("S", Value::Set(v.clone()))]).unwrap();
        let Value::Tree(t) = sym else { panic!() };
        let answer = Forest::unit(t);

        let vars = axml_worlds::forest_vars(&v);
        prop_assume!(vars.len() <= 4);
        let vals = axml_worlds::nat_valuations(&vars, max);

        // worlds of the symbolic answer
        let rhs: std::collections::BTreeSet<Forest<Nat>> =
            axml_worlds::mod_k(&answer, vals.clone());

        // answers of the worlds (the query carries no annot constants,
        // so it reads unchanged in ℕ)
        let qn = parse_query::<Nat>("element r { $S//c }").unwrap();
        let mut lhs = std::collections::BTreeSet::new();
        for val in vals {
            let world = axml_uxml::hom::specialize_forest(&v, &val);
            let out = eval_query(&qn, &[("S", Value::Set(world))]).unwrap();
            let Value::Tree(t) = out else { panic!() };
            lhs.insert(Forest::unit(t));
        }
        prop_assert_eq!(lhs, rhs);
    }

    /// Every compiled query typechecks in NRC at the type its UXQuery
    /// elaboration promised (Fig 3 ↔ §6.1 agreement).
    #[test]
    fn compiled_queries_typecheck(q in arb_query(3)) {
        use axml_nrc::typecheck::{typecheck, TypeContext};
        use axml_nrc::types::Type;
        let core = axml_core::elaborate(&q).expect("elaborates");
        let e = axml_core::compile(&core);
        let mut ctx = TypeContext::from_bindings(
            e.free_vars().into_iter().map(|v| (v, Type::tree_set())),
        );
        let got = typecheck(&e, &mut ctx)
            .unwrap_or_else(|err| panic!("compiled query ill-typed: {err}"));
        let expected = match core.ty {
            axml_core::QType::Label => Type::Label,
            axml_core::QType::Tree => Type::Tree,
            axml_core::QType::TreeSet => Type::tree_set(),
        };
        prop_assert_eq!(&got, &expected);

        // and the optimized form preserves the type
        let opt = axml_core::compile_optimized(&core);
        let mut ctx2 = TypeContext::from_bindings(
            opt.free_vars().into_iter().map(|v| (v, Type::tree_set())),
        );
        prop_assert_eq!(typecheck(&opt, &mut ctx2).unwrap(), expected);
    }
}
