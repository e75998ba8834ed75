//! Differential property tests: the slot-resolved compiled plan
//! ([`axml_nrc::CompiledExpr`]) against the Fig 8 tree-walking
//! interpreter ([`axml_nrc::eval`]), which is kept as the reference.
//!
//! Two generators:
//!
//! - a *well-typed* `{label}` generator (shadowed binders drawn from a
//!   three-name pool, conditional keeps, lets) — results must be
//!   `Ok` and equal;
//! - a *chaotic* generator that freely mixes every operator, binder
//!   names included `srt` recursion over tree-typed bindings — hostile
//!   (ill-typed) combinations must **error identically** (same
//!   message, no panic) and well-typed ones must agree.
//!
//! Both run over ℕ\[X\] and, through the canonical homomorphisms, over
//! ℕ and `PosBool` — the agreement must hold in every semiring, not
//! just symbolically.

use axml_nrc::compile::CompiledExpr;
use axml_nrc::expr::{self, Expr};
use axml_nrc::types::Type;
use axml_nrc::{eval, hom, CValue, Env};
use axml_semiring::trio::collapse::natpoly_to_posbool;
use axml_semiring::{FnHom, KSet, Nat, NatPoly, PosBool, Semiring, Valuation};
use axml_uxml::{parse_forest, CollectSink, Exec};
use proptest::prelude::*;

/// Binder pool deliberately tiny so shadowing happens constantly —
/// including shadowing of the free variables `R` (a `{label}` set) and
/// `T` (a tree).
const POOL: [&str; 3] = ["x", "y", "R"];

fn arb_scalar() -> impl Strategy<Value = NatPoly> {
    prop_oneof![
        2 => proptest::sample::select(&["cv1", "cv2", "cv3"][..]).prop_map(NatPoly::var_named),
        1 => Just(NatPoly::one()),
        1 => (0u64..3).prop_map(NatPoly::from),
    ]
}

/// Well-typed `{label}`-typed expressions with heavy binder reuse.
fn arb_label_set(depth: u32) -> BoxedStrategy<Expr<NatPoly>> {
    let leaf = prop_oneof![
        3 => Just(expr::var("R")),
        2 => proptest::sample::select(&["la", "lb", "lc"][..])
            .prop_map(|l| expr::singleton(expr::label(l))),
        1 => Just(expr::empty(Type::Label)),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            2 => (inner.clone(), inner.clone()).prop_map(|(a, b)| expr::union(a, b)),
            2 => (arb_scalar(), inner.clone()).prop_map(|(k, e)| expr::scalar(k, e)),
            // ∪(x ∈ e) if x = l then {x} else {} — binder from the pool
            2 => (
                proptest::sample::select(&POOL[..]),
                inner.clone(),
                proptest::sample::select(&["la", "lb"][..]),
            )
                .prop_map(|(x, e, l)| expr::bigunion(
                    x,
                    e,
                    expr::if_eq(
                        expr::var(x),
                        expr::label(l),
                        expr::singleton(expr::var(x)),
                        expr::empty(Type::Label),
                    ),
                )),
            // nested shadowing: ∪(x ∈ e1) ∪(x ∈ e2) {x}
            1 => (
                proptest::sample::select(&POOL[..]),
                inner.clone(),
                inner.clone(),
            )
                .prop_map(|(x, e1, e2)| expr::bigunion(
                    x,
                    e1,
                    expr::bigunion(x, e2, expr::singleton(expr::var(x))),
                )),
            1 => (proptest::sample::select(&POOL[..]), inner.clone(), inner.clone())
                .prop_map(|(w, d, b)| expr::let_(w, d, expr::union(expr::var(w), b))),
        ]
    })
    .boxed()
}

/// Chaotic expressions: every operator, no typing discipline. `srt`
/// recursion (often nested via the body referencing `T` again) is
/// included; many samples are ill-typed and must error identically.
fn arb_chaotic(depth: u32) -> BoxedStrategy<Expr<NatPoly>> {
    let leaf = prop_oneof![
        2 => Just(expr::var("R")),
        2 => Just(expr::var("T")),
        2 => proptest::sample::select(&["la", "lb"][..]).prop_map(expr::label),
        1 => Just(expr::empty(Type::Tree)),
        1 => Just(expr::var("ghost")), // unbound at eval time
    ];
    leaf.prop_recursive(depth, 32, 3, |inner| {
        let bind = proptest::sample::select(&POOL[..]);
        prop_oneof![
            2 => (inner.clone(), inner.clone()).prop_map(|(a, b)| expr::union(a, b)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| expr::pair(a, b)),
            1 => inner.clone().prop_map(expr::proj1),
            1 => inner.clone().prop_map(expr::proj2),
            1 => inner.clone().prop_map(expr::singleton),
            1 => inner.clone().prop_map(expr::tag),
            1 => inner.clone().prop_map(expr::kids),
            1 => (arb_scalar(), inner.clone()).prop_map(|(k, e)| expr::scalar(k, e)),
            1 => (inner.clone(), inner.clone()).prop_map(|(a, b)| expr::tree_expr(a, b)),
            2 => (bind.clone(), inner.clone(), inner.clone())
                .prop_map(|(x, s, b)| expr::bigunion(x, s, b)),
            1 => (bind.clone(), inner.clone(), inner.clone())
                .prop_map(|(x, d, b)| expr::let_(x, d, b)),
            1 => (inner.clone(), inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(l, r, t, e)| expr::if_eq(l, r, t, e)),
            // srt with pool binders; the target is arbitrary (tree or
            // not — non-trees must error identically in both).
            2 => (bind, inner.clone(), inner.clone())
                .prop_map(|(x, body, target)| expr::srt(
                    x,
                    "acc",
                    Type::Label.set_of(),
                    body,
                    target,
                )),
        ]
    })
    .boxed()
}

fn sample_bindings() -> Vec<(String, CValue<NatPoly>)> {
    let r: KSet<CValue<NatPoly>, NatPoly> = KSet::from_pairs([
        (CValue::label("la"), NatPoly::var_named("cv1")),
        (CValue::label("lb"), NatPoly::var_named("cv2")),
        (
            CValue::label("lc"),
            NatPoly::var_named("cv1").plus(&NatPoly::var_named("cv3")),
        ),
    ]);
    let t = parse_forest::<NatPoly>("<a {cv1}> <b {cv2}> la {cv3} lb </b> la {cv2} </a>")
        .unwrap()
        .trees()
        .next()
        .unwrap()
        .clone();
    vec![
        ("R".to_owned(), CValue::Set(r)),
        ("T".to_owned(), CValue::Tree(t)),
    ]
}

/// Compiled and interpreted evaluation of `e` under the canonical
/// image in `S`: both `Ok` and equal, or both `Err` with the same
/// message.
fn assert_parity<S: Semiring>(e: &Expr<NatPoly>, h: &impl Fn(&NatPoly) -> S) {
    let fh = FnHom::new(h);
    let he = hom::map_expr(&fh, e);
    let bindings: Vec<(String, CValue<S>)> = sample_bindings()
        .into_iter()
        .map(|(n, v)| (n, hom::map_cvalue(&fh, &v)))
        .collect();

    let plan = CompiledExpr::compile(&he);
    let inputs: Vec<(&str, CValue<S>)> = bindings
        .iter()
        .map(|(n, v)| (n.as_str(), v.clone()))
        .collect();
    let compiled = plan.eval(&inputs);

    let mut env = Env::from_bindings(bindings);
    let interpreted = eval(&he, &mut env);

    match (compiled, interpreted) {
        (Ok(c), Ok(i)) => assert_eq!(c, i, "compiled vs interpreted disagree on {e}"),
        (Err(c), Err(i)) => assert_eq!(
            c.msg, i.msg,
            "compiled vs interpreted error differently on {e}"
        ),
        (Ok(c), Err(i)) => panic!("compiled Ok({c:?}) but interpreter erred ({i}) on {e}"),
        (Err(c), Ok(i)) => panic!("interpreter Ok({i:?}) but compiled erred ({c}) on {e}"),
    }
}

fn assert_parity_all_kinds(e: &Expr<NatPoly>) {
    assert_parity::<NatPoly>(e, &Clone::clone);
    let ones = Valuation::<Nat>::new();
    assert_parity::<Nat>(e, &move |p| p.eval(&ones));
    assert_parity::<PosBool>(e, &natpoly_to_posbool);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Well-typed expressions: compiled == interpreted, every kind.
    #[test]
    fn welltyped_parity(e in arb_label_set(3)) {
        assert_parity_all_kinds(&e);
    }

    /// Chaotic expressions (many ill-typed, some with nested srt and
    /// unbound variables): identical outcomes, never a panic.
    #[test]
    fn chaotic_parity(e in arb_chaotic(3)) {
        assert_parity_all_kinds(&e);
    }
}

/// Nested `srt` recursion specifically: an outer srt whose body runs
/// an inner srt over the rebuilt accumulator contents.
#[test]
fn nested_srt_parity() {
    // outer: (srt(x, y). {x} ∪ flatten y) T — atoms of T.
    let atoms = |target: Expr<NatPoly>| {
        expr::srt(
            "x",
            "y",
            Type::Label.set_of(),
            expr::union(
                expr::singleton(expr::var("x")),
                expr::flatten(expr::var("y")),
            ),
            target,
        )
    };
    // inner srt nested in a big-union over kids(T).
    let e = expr::bigunion("k", expr::kids(expr::var("T")), atoms(expr::var("k")));
    assert_parity_all_kinds(&e);

    // srt body that itself srt-recurses over the same node (quadratic
    // but small): ∪ of atoms(T) and per-node label singletons.
    let e2 = expr::srt(
        "x",
        "y",
        Type::Label.set_of(),
        expr::union(expr::singleton(expr::var("x")), atoms(expr::var("T"))),
        expr::var("T"),
    );
    assert_parity_all_kinds(&e2);
}

/// The chunked parallel descendant sweep inside the compiled plan
/// (`eval_with_forests` with a pool, collected) is bit-identical to the
/// sequential plan and the interpreter on a document large enough to
/// clear the parallel threshold.
#[test]
fn parallel_descendants_parity() {
    use axml_pool::{ExecCtx, Parallelism, Pool};
    // The full §6.3 descendant shape, recognized into the fused sweep:
    // compile the surface query so we exercise exactly what
    // `Route::ViaNrc` runs.
    let mut doc = String::from("<top {z}> ");
    for i in 0..600 {
        doc.push_str(&format!(
            "<m{} {{v{}}}> c {{w{}}} </m{}> ",
            i % 5,
            i,
            i,
            i % 5
        ));
    }
    doc.push_str("</top>");
    let forest = parse_forest::<NatPoly>(&doc).unwrap();
    let core = axml_core::elaborate(&axml_core::parse_query::<NatPoly>("$S//c").unwrap()).unwrap();
    let e = axml_core::compile_optimized(&core);
    let plan = CompiledExpr::compile(&e);
    assert!(
        plan.plan_display().contains("descendants"),
        "query must lower to the fused sweep: {}",
        plan.plan_display()
    );
    let seq = CollectSink::collect(|sink| {
        plan.eval_with_forests(&[("S", &forest)], &Exec::default(), sink)
    })
    .unwrap();
    let pool = Pool::new(4);
    for degree in [2, 4, 16] {
        let ctx = ExecCtx::new(&pool, Parallelism::threads(degree));
        let par = CollectSink::collect(|sink| {
            plan.eval_with_forests(
                &[("S", &forest)],
                &Exec {
                    ctx: Some(&ctx),
                    ..Exec::default()
                },
                sink,
            )
        })
        .unwrap();
        assert_eq!(seq, par, "degree {degree}");
    }
}

/// The depth caps stay in force in front of the compiled pipeline:
/// hostile parser input errors (it never reaches plan compilation),
/// and an expression over a depth-capped document parse errors
/// identically on both evaluators.
#[test]
fn hostile_inputs_error_not_panic() {
    // A parser bomb: deep nesting is rejected by the NRC parser's
    // recursion cap before compilation is ever attempted.
    let bomb = format!("{}R{}", "π1(".repeat(100_000), ")".repeat(100_000));
    assert!(axml_nrc::parse_expr::<NatPoly>(&bomb).is_err());

    // Ill-typed evaluation: kids of a label — identical errors.
    let e: Expr<NatPoly> = expr::kids(expr::label("la"));
    assert_parity_all_kinds(&e);
    // π1 of a set, tag of a pair: same.
    let e2: Expr<NatPoly> = expr::proj1(expr::var("R"));
    assert_parity_all_kinds(&e2);
    let e3: Expr<NatPoly> = expr::tag(expr::pair(expr::label("la"), expr::label("lb")));
    assert_parity_all_kinds(&e3);
}
