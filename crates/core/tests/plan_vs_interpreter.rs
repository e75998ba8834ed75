//! Differential property tests for the direct route: the slot-resolved
//! compiled plan ([`axml_core::CompiledQuery`]) against the reference
//! tree-walking interpreter ([`axml_core::eval_core`]), over randomly
//! generated surface queries in ℕ\[X\], ℕ and `PosBool`.
//!
//! Queries are generated at the surface level (the same shapes the
//! round-trip suite uses — shadowed binders included via the small
//! variable pool), elaborated, then evaluated both ways against:
//!
//! - well-typed bindings (every query variable a `{tree}` document):
//!   results must be `Ok` and equal;
//! - hostile bindings (a label where a document belongs / a missing
//!   document): both must **error identically** — same message, no
//!   panic.

use axml_core::ast::{Axis, ElementName, NodeTest, Step, SurfaceExpr};
use axml_core::{elaborate, eval_core, parse_query, CompiledQuery, QueryEnv};
use axml_semiring::{Nat, NatPoly, PosBool, Semiring, Var};
use axml_uxml::{parse_forest, CollectSink, Exec, Label, ParseAnnotation, Value};
use proptest::prelude::*;

/// Variable pool overlaps binder names with free document names, so
/// binders routinely shadow documents and each other.
const VARS: [&str; 3] = ["S", "T", "x"];
const NAMES: [&str; 4] = ["a", "b", "c", "d"];

fn arb_step() -> BoxedStrategy<Step> {
    (
        prop_oneof![
            Just(Axis::SelfAxis),
            Just(Axis::Child),
            Just(Axis::Descendant),
            Just(Axis::StrictDescendant),
        ],
        prop_oneof![
            Just(NodeTest::Wildcard),
            proptest::sample::select(&NAMES[..]).prop_map(|n| NodeTest::Label(Label::new(n))),
        ],
    )
        .prop_map(|(axis, test)| Step { axis, test })
        .boxed()
}

fn arb_query<K: Semiring + 'static>(
    annot: BoxedStrategy<K>,
    depth: u32,
) -> BoxedStrategy<SurfaceExpr<K>> {
    let leaf = prop_oneof![
        3 => proptest::sample::select(&VARS[..]).prop_map(|v| SurfaceExpr::Var(v.to_owned())),
        1 => proptest::sample::select(&NAMES[..])
            .prop_map(|n| SurfaceExpr::LabelLit(Label::new(n))),
        1 => Just(SurfaceExpr::Empty),
    ];
    leaf.prop_recursive(depth, 24, 3, move |inner| {
        let name_ish = prop_oneof![
            proptest::sample::select(&NAMES[..])
                .prop_map(|n| SurfaceExpr::LabelLit(Label::new(n))),
            proptest::sample::select(&VARS[..])
                .prop_map(|v| SurfaceExpr::Name(Box::new(SurfaceExpr::Var(v.to_owned())))),
        ];
        prop_oneof![
            2 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| SurfaceExpr::Seq(Box::new(a), Box::new(b))),
            3 => (proptest::sample::select(&VARS[..]), inner.clone(), inner.clone())
                .prop_map(|(v, src, body)| SurfaceExpr::For {
                    binders: vec![(v.to_owned(), SurfaceExpr::Paren(Box::new(src)))],
                    where_eq: None,
                    body: Box::new(SurfaceExpr::Paren(Box::new(body))),
                }),
            1 => (proptest::sample::select(&VARS[..]), inner.clone(), inner.clone())
                .prop_map(|(v, def, body)| SurfaceExpr::Let {
                    bindings: vec![(v.to_owned(), SurfaceExpr::Paren(Box::new(def)))],
                    body: Box::new(SurfaceExpr::Paren(Box::new(body))),
                }),
            1 => (name_ish.clone(), name_ish, inner.clone(), inner.clone())
                .prop_map(|(l, r, t, e)| SurfaceExpr::If {
                    l: Box::new(l),
                    r: Box::new(r),
                    then: Box::new(SurfaceExpr::Paren(Box::new(t))),
                    els: Box::new(SurfaceExpr::Paren(Box::new(e))),
                }),
            1 => (proptest::sample::select(&NAMES[..]), inner.clone())
                .prop_map(|(n, content)| SurfaceExpr::Element {
                    name: ElementName::Static(Label::new(n)),
                    content: Box::new(content),
                }),
            1 => (annot.clone(), inner.clone())
                .prop_map(|(k, e)| SurfaceExpr::Annot(k, Box::new(SurfaceExpr::Paren(Box::new(e))))),
            2 => (inner, arb_step())
                .prop_map(|(p, s)| SurfaceExpr::Path(Box::new(SurfaceExpr::Paren(Box::new(p))), s)),
        ]
    })
    .boxed()
}

fn arb_natpoly() -> BoxedStrategy<NatPoly> {
    prop_oneof![
        2 => proptest::sample::select(&["pv1", "pv2"][..]).prop_map(NatPoly::var_named),
        1 => (0u64..4).prop_map(NatPoly::from),
    ]
    .boxed()
}

fn arb_nat() -> BoxedStrategy<Nat> {
    (0u64..5).prop_map(|n| Nat(n as u128)).boxed()
}

fn arb_posbool() -> BoxedStrategy<PosBool> {
    let v = |n: &str| PosBool::var(Var::new(n));
    prop_oneof![
        Just(PosBool::one()),
        Just(PosBool::zero()),
        Just(v("pu")),
        Just(v("pu").plus(&v("pw"))),
    ]
    .boxed()
}

/// Compare plan vs interpreter under the given bindings: both `Ok`
/// and equal, or both `Err` with the same message.
fn assert_parity<K: Semiring + ParseAnnotation + std::fmt::Display>(
    q: &SurfaceExpr<K>,
    bindings: &[(&str, Value<K>)],
) {
    // Random compositions may be ill-typed (e.g. a label in set
    // position) — those are rejected here, before either evaluator.
    let Ok(core) = elaborate(q) else { return };
    let plan = CompiledQuery::compile(&core);
    let compiled = CollectSink::collect(|sink| plan.eval(bindings, &Exec::default(), sink));
    let mut env =
        QueryEnv::from_bindings(bindings.iter().map(|(n, v)| ((*n).to_owned(), v.clone())));
    let interpreted = eval_core(&core, &mut env);
    match (compiled, interpreted) {
        (Ok(c), Ok(i)) => assert_eq!(c, i, "compiled vs interpreted disagree on {q}"),
        (Err(c), Err(i)) => {
            assert_eq!(c.msg, i.msg, "errors differ on {q}")
        }
        (Ok(c), Err(i)) => panic!("compiled Ok({c}) but interpreter erred ({i}) on {q}"),
        (Err(c), Ok(i)) => panic!("interpreter Ok({i}) but compiled erred ({c}) on {q}"),
    }
}

fn doc<K: Semiring + ParseAnnotation>() -> Value<K> {
    Value::Set(parse_forest::<K>("<a> <b> c d </b> <c> d </c> a </a>").unwrap())
}

fn run_kind<K: Semiring + ParseAnnotation + std::fmt::Display>(q: &SurfaceExpr<K>) {
    // well-typed: both documents bound
    assert_parity(
        q,
        &[("S", doc::<K>()), ("T", doc::<K>()), ("x", doc::<K>())],
    );
    // hostile: a label where a document belongs, and `x` missing
    assert_parity(
        q,
        &[("S", doc::<K>()), ("T", Value::Label(Label::new("oops")))],
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn natpoly_parity(q in arb_query::<NatPoly>(arb_natpoly(), 3)) {
        run_kind(&q);
    }

    #[test]
    fn nat_parity(q in arb_query::<Nat>(arb_nat(), 3)) {
        run_kind(&q);
    }

    #[test]
    fn posbool_parity(q in arb_query::<PosBool>(arb_posbool(), 3)) {
        run_kind(&q);
    }
}

/// The parser/elaborator depth caps sit in front of plan compilation:
/// hostile text errors before a plan is ever built, identically to the
/// interpreter pipeline (which shares the same front half).
#[test]
fn hostile_query_text_errors_before_planning() {
    let paren_bomb = format!("{}a{}", "(".repeat(100_000), ")".repeat(100_000));
    let for_bomb = format!("{}()", "for $x in () return ".repeat(100_000));
    for bad in [paren_bomb.as_str(), for_bomb.as_str()] {
        match parse_query::<NatPoly>(bad) {
            Err(_) => {}
            Ok(s) => assert!(elaborate(&s).is_err(), "bomb must not elaborate"),
        }
    }
}

/// The chunked parallel descendant sweep (`eval` with a pool)
/// returns exactly what the sequential plan does — across fan-out
/// degrees, both descendant axes, label tests, and a document large
/// enough to clear the parallel threshold.
#[test]
fn parallel_sweep_matches_sequential() {
    use axml_pool::{ExecCtx, Parallelism, Pool};
    // A deep annotated comb: > PAR_SWEEP_MIN_NODES nodes, annotations
    // on every level so path products actually differ per chunk.
    let mut doc = String::from("<top {z}> ");
    for i in 0..600 {
        doc.push_str(&format!(
            "<n{} {{x{}}}> c {{y{}}} d </n{}> ",
            i % 7,
            i,
            i,
            i % 7
        ));
    }
    doc.push_str("</top>");
    let forest = parse_forest::<NatPoly>(&doc).unwrap();
    let pool = Pool::new(4);
    for src in [
        "$S//c",
        "$S/descendant::*",
        "$S/strict-descendant::c",
        "element r { for $t in $S return ($t)//d }",
    ] {
        let q = elaborate(&parse_query::<NatPoly>(src).unwrap()).unwrap();
        let plan = CompiledQuery::compile(&q);
        let seq = CollectSink::collect(|sink| {
            plan.eval(&[("S", Value::Set(forest.clone()))], &Exec::default(), sink)
        })
        .expect("sequential evaluates");
        for degree in [2, 4, 16] {
            let ctx = ExecCtx::new(&pool, Parallelism::threads(degree));
            let par = CollectSink::collect(|sink| {
                plan.eval(
                    &[("S", Value::Set(forest.clone()))],
                    &Exec {
                        ctx: Some(&ctx),
                        ..Exec::default()
                    },
                    sink,
                )
            })
            .expect("parallel evaluates");
            assert_eq!(seq, par, "{src} with degree {degree}");
        }
    }
}

/// The paper's own queries agree compiled-vs-interpreted in ℕ[X].
#[test]
fn paper_queries_parity() {
    for src in [
        "element p { for $t in $S return for $x in ($t)/child::* return ($x)/child::* }",
        "element r { $T/descendant::c }",
        "annot {2*w + 1} ($S/self::a)",
        "let $r := $S/child::* return for $t in $r return ($t)",
    ] {
        let q = parse_query::<NatPoly>(src).unwrap();
        run_kind(&q);
    }
}
