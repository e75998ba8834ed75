//! Integration tests for the `axml` facade: route agreement across
//! every runtime-selectable semiring, mode agreement (Theorem 1 as an
//! API property), prepared-query reuse, aliasing, and error spans.

use axml::{AxmlError, Engine, EvalOptions, Route, SemiringKind};

const FIG1_DOC: &str = "<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>";
const FIG1_QUERY: &str =
    "element p { for $t in $S return for $x in ($t)/child::* return ($x)/child::* }";

fn fig1_engine() -> Engine {
    let engine = Engine::new();
    engine.load_document("S", FIG1_DOC).unwrap();
    engine
}

/// Acceptance criterion: `Route::Differential` agrees across
/// `Direct`/`ViaNrc` on the Figure 1 query for every `SemiringKind`,
/// in both evaluation modes.
#[test]
fn differential_agrees_on_fig1_for_every_semiring() {
    let engine = fig1_engine();
    let q = engine.prepare(FIG1_QUERY).unwrap();
    for kind in SemiringKind::ALL {
        let native = q
            .eval(
                &engine,
                EvalOptions::new().route(Route::Differential).semiring(kind),
            )
            .unwrap_or_else(|e| panic!("differential {kind} (in-semiring) failed: {e}"));
        assert_eq!(native.kind(), kind);

        let prov_first = q
            .eval(
                &engine,
                EvalOptions::new()
                    .route(Route::Differential)
                    .semiring(kind)
                    .provenance_first(),
            )
            .unwrap_or_else(|e| panic!("differential {kind} (provenance-first) failed: {e}"));
        // Theorem 1: evaluate-then-specialize == specialize-then-evaluate.
        assert_eq!(native, prov_first, "modes disagree in {kind}");
    }
}

/// The shredded route joins the differential on step chains, again in
/// every semiring.
#[test]
fn differential_includes_shredding_on_step_chains() {
    let engine = Engine::new();
    engine
        .load_document(
            "T",
            "<a> <b {x1}> <a> c {y3} d </a> </b> <c {y1}> <d> c {y2} </d> </c> </a>",
        )
        .unwrap();
    let q = engine.prepare("$T//c").unwrap();
    assert!(q.is_shreddable());
    for kind in SemiringKind::ALL {
        q.eval(
            &engine,
            EvalOptions::new().route(Route::Differential).semiring(kind),
        )
        .unwrap_or_else(|e| panic!("differential-with-shredding {kind} failed: {e}"));
    }
}

#[test]
fn fig1_answers_match_the_paper() {
    let engine = fig1_engine();
    let q = engine.prepare(FIG1_QUERY).unwrap();

    let sym = q.eval(&engine, EvalOptions::new()).unwrap();
    let shown = sym.to_string();
    assert!(shown.contains("x2*y2*z + x1*y1*z"), "{shown}");
    assert!(
        shown.contains("e {x2*y3*z}") || shown.contains("x2*y3*z"),
        "{shown}"
    );

    // Bag semantics: two derivations of d, one of e.
    let bags = q
        .eval(&engine, EvalOptions::new().semiring(SemiringKind::Nat))
        .unwrap();
    assert_eq!(bags.to_string(), "<p> d {2} e </p>");

    // Why-provenance: d has two witnesses.
    let why = q
        .eval(&engine, EvalOptions::new().semiring(SemiringKind::Why))
        .unwrap();
    let axml_uxml::Value::Tree(t) = why.as_why().unwrap() else {
        panic!("expected tree")
    };
    let d = axml_uxml::leaf("d");
    assert_eq!(t.children().get(&d).num_witnesses(), 2);
}

#[test]
fn prepared_query_is_reusable_and_shared() {
    let engine = fig1_engine();
    let q = engine.prepare("$S/*").unwrap();
    let a = q.eval(&engine, EvalOptions::new()).unwrap();
    let b = q.eval(&engine, EvalOptions::new()).unwrap();
    assert_eq!(a, b);

    // Clone + use from another thread: the engine and the prepared
    // query are both Sync.
    let q2 = q.clone();
    let out = std::thread::scope(|s| {
        s.spawn(|| q2.eval(&engine, EvalOptions::new().semiring(SemiringKind::Nat)))
            .join()
            .unwrap()
    })
    .unwrap();
    assert_eq!(out.kind(), SemiringKind::Nat);
}

#[test]
fn aliases_bind_other_documents() {
    let engine = Engine::new();
    engine
        .load_document("inventory_v2", "<r> a {2} </r>")
        .unwrap();
    let q = engine.prepare("$S/*").unwrap();

    let err = q.eval(&engine, EvalOptions::new()).unwrap_err();
    let AxmlError::UnknownDocument { name, available } = &err else {
        panic!("expected UnknownDocument, got {err:?}")
    };
    assert_eq!(name, "S");
    assert_eq!(available, &["inventory_v2".to_string()]);

    let out = q
        .eval_with(&engine, EvalOptions::new(), &[("S", "inventory_v2")], None)
        .unwrap();
    assert_eq!(out.to_string(), "(a {2})");
}

#[test]
fn shredded_route_rejects_non_chains() {
    let engine = fig1_engine();
    let q = engine.prepare(FIG1_QUERY).unwrap();
    assert!(!q.is_shreddable());
    let err = q
        .eval(&engine, EvalOptions::new().route(Route::Shredded))
        .unwrap_err();
    let AxmlError::UnsupportedRoute {
        route: Route::Shredded,
        construct,
    } = &err
    else {
        panic!("expected UnsupportedRoute, got {err:?}")
    };
    // The error names the construct, and the prepared query exposes it.
    assert!(construct.contains("element constructor"), "{construct}");
    assert_eq!(q.shred_ineligibility(), Some(construct.as_str()));
    assert!(err.to_string().contains("element constructor"), "{err}");
}

#[test]
fn ineligible_constructs_are_named_precisely() {
    let engine = fig1_engine();
    for (query, needle) in [
        ("let $x := $S return $x", "let binding"),
        ("annot {2} ($S/child::*)", "annot"),
        ("element r { $S//d }", "element constructor"),
    ] {
        let q = engine.prepare(query).unwrap();
        let err = q
            .eval(&engine, EvalOptions::new().route(Route::Shredded))
            .unwrap_err();
        let AxmlError::UnsupportedRoute { construct, .. } = &err else {
            panic!("{query}: expected UnsupportedRoute, got {err:?}")
        };
        assert!(construct.contains(needle), "{query}: {construct}");
    }
}

/// The six §7-fragment example queries: navigation chains, step
/// composition, union, branching predicates and label tests. Each one
/// is shreddable, and `Route::Differential` — which runs Direct,
/// ViaNrc *and* Shredded and asserts pairwise agreement — passes in
/// all seven semirings, in both evaluation modes.
const SECTION7_EXAMPLES: [&str; 6] = [
    "$T//c",
    "$T/child::*/child::*",
    "($T//c, $T/child::*/child::b)",
    "for $x in $T//a return ($x)/child::c",
    "for $x in $T//a return for $y in ($x)/child::c return ($x)",
    "for $x in $T//* return if (name($x) = c) then ($x) else ()",
];

fn section7_engine() -> Engine {
    let engine = Engine::new();
    engine
        .load_document(
            "T",
            "<a> <b {x1}> <a> c {y3} d </a> </b> <c {y1}> <d> <a> c {y2} b {x2} </a> </d> </c> </a>",
        )
        .unwrap();
    engine
}

#[test]
fn differential_passes_on_all_section7_examples_in_every_semiring() {
    let engine = section7_engine();
    for query in SECTION7_EXAMPLES {
        let q = engine.prepare(query).unwrap();
        assert!(q.is_shreddable(), "{query} should be §7-eligible");
        for kind in SemiringKind::ALL {
            let native = q
                .eval(
                    &engine,
                    EvalOptions::new().route(Route::Differential).semiring(kind),
                )
                .unwrap_or_else(|e| panic!("differential {kind} failed on {query}: {e}"));
            let prov_first = q
                .eval(
                    &engine,
                    EvalOptions::new()
                        .route(Route::Differential)
                        .semiring(kind)
                        .provenance_first(),
                )
                .unwrap_or_else(|e| {
                    panic!("differential {kind} (provenance-first) failed on {query}: {e}")
                });
            assert_eq!(native, prov_first, "modes disagree on {query} in {kind}");
        }
    }
}

#[test]
fn shredded_route_answers_match_direct_on_section7_examples() {
    let engine = section7_engine();
    for query in SECTION7_EXAMPLES {
        let q = engine.prepare(query).unwrap();
        let direct = q.eval(&engine, EvalOptions::new()).unwrap();
        let shredded = q
            .eval(&engine, EvalOptions::new().route(Route::Shredded))
            .unwrap();
        assert_eq!(direct, shredded, "shredded diverges on {query}");
    }
}

#[test]
fn query_errors_carry_spans() {
    let engine = Engine::new();
    let err = engine.prepare("for $x in $S\nreturn (").unwrap_err();
    let AxmlError::QueryParse { span, .. } = &err else {
        panic!("expected QueryParse, got {err:?}")
    };
    assert_eq!(span.line, 2);
    let rendered = err.to_string();
    assert!(
        rendered.contains("return (") && rendered.contains('^'),
        "{rendered}"
    );

    // Type errors pass through too.
    let err2 = engine.prepare("name($S)").unwrap_err();
    assert!(matches!(err2, AxmlError::Type { .. }), "{err2:?}");
}

#[test]
fn run_is_prepare_plus_eval() {
    let engine = fig1_engine();
    let one_shot = engine.run(FIG1_QUERY, EvalOptions::new()).unwrap();
    let prepared = engine
        .prepare(FIG1_QUERY)
        .unwrap()
        .eval(&engine, EvalOptions::new())
        .unwrap();
    assert_eq!(one_shot, prepared);
}

#[test]
fn annot_scalars_specialize_with_the_query() {
    // A query that *introduces* annotations must have them pushed
    // through the same homomorphism as the data.
    let engine = Engine::new();
    engine.load_document("S", "<r> a {w} </r>").unwrap();
    let q = engine.prepare("annot {3*u} ($S/*)").unwrap();
    let bags = q
        .eval(&engine, EvalOptions::new().semiring(SemiringKind::Nat))
        .unwrap();
    // u ↦ 1, w ↦ 1: multiplicity 3·1 = 3.
    assert_eq!(bags.to_string(), "(a {3})");
    let sym = q.eval(&engine, EvalOptions::new()).unwrap();
    assert_eq!(sym.to_string(), "(a {3*u*w})");
}

/// `Engine::prepare` / `load_document` must return `Err` on hostile
/// input — never panic or abort the process.
#[test]
fn hostile_inputs_error_cleanly() {
    let engine = Engine::new();
    let paren_bomb = format!("{}a{}", "(".repeat(100_000), ")".repeat(100_000));
    let for_bomb = format!("{}()", "for $x in () return ".repeat(100_000));
    let annot_bomb = format!(
        "annot {{{}x{}}} ()",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    for bad in [
        paren_bomb.as_str(),
        for_bomb.as_str(),
        annot_bomb.as_str(),
        "for $x in",
        "if ($S = $T) then a else b", // type error: sets compared
        "",
        "🦀",
    ] {
        assert!(
            engine.prepare(bad).is_err(),
            "prepare({bad:.40}…) should err"
        );
    }
    let element_bomb = "<a> ".repeat(200_000);
    for bad in [element_bomb.as_str(), "<a> <b </a>", "<a {not-a-poly!}/>"] {
        assert!(
            engine.load_document("d", bad).is_err(),
            "load_document({bad:.40}…) should err"
        );
    }
}

/// Specializations stay correct while documents come and go: each
/// kind's arena is the engine's only specialization cache, so reads
/// interleaved with loads, replaces, removes and all seven kinds keep
/// answering from each document's current contents.
#[test]
fn specializations_track_document_churn_in_every_kind() {
    let engine = Engine::new();
    let nat = EvalOptions::new().semiring(SemiringKind::Nat);
    for name in ["A", "B", "C"] {
        engine
            .load_document(name, &format!("<r> {} {{2}} </r>", name.to_lowercase()))
            .unwrap();
        let q = engine.prepare(&format!("${name}/*")).unwrap();
        q.eval(&engine, nat).unwrap();
    }
    let q = engine.prepare("$A/*").unwrap();
    assert_eq!(q.eval(&engine, nat).unwrap().to_string(), "(a {2})");

    // Every kind, before and after a replace, against a fresh engine
    // holding only the current contents.
    let q = engine.prepare("$S/*").unwrap();
    for doc in ["<r> a {x} b {2*y} </r>", "<r> a {3} </r>"] {
        engine.load_document("S", doc).unwrap();
        let fresh = Engine::new();
        fresh.load_document("S", doc).unwrap();
        for kind in SemiringKind::ALL {
            let opts = EvalOptions::new().semiring(kind);
            assert_eq!(
                q.eval(&engine, opts).unwrap(),
                q.eval(&fresh, opts).unwrap(),
                "{kind} on {doc}"
            );
        }
    }
    assert_eq!(q.eval(&engine, nat).unwrap().to_string(), "(a {3})");

    // Load → specialize → remove churn beside two hot documents.
    for name in ["hotA", "hotB"] {
        engine.load_document(name, "<r> a {3} </r>").unwrap();
    }
    let qa = engine.prepare("$hotA/*").unwrap();
    let qb = engine.prepare("$hotB/*").unwrap();
    for i in 0..100 {
        let name = format!("churn{i}");
        engine.load_document(&name, "<r> x </r>").unwrap();
        engine
            .prepare(&format!("${name}/*"))
            .unwrap()
            .eval(&engine, nat)
            .unwrap();
        assert!(engine.remove_document(&name));
        assert_eq!(qa.eval(&engine, nat).unwrap().to_string(), "(a {3})");
        assert_eq!(qb.eval(&engine, nat).unwrap().to_string(), "(a {3})");
    }
    assert_eq!(
        engine.document_names(),
        ["A", "B", "C", "S", "hotA", "hotB"]
    );
}

#[test]
fn tropical_costs_add_along_paths() {
    let engine = Engine::new();
    // In ℕ[X] → Tropical with every variable ↦ cost 0, constants k
    // map to 0 unless 0 (∞). Use multiplicities to model cost via
    // variables instead: the canonical hom sends every variable to 1
    // (= cost 0), so any present path costs 0 and absent data is ∞.
    engine.load_document("S", "<a> b {x} </a> ").unwrap();
    let q = engine.prepare("$S/b").unwrap();
    let out = q
        .eval(&engine, EvalOptions::new().semiring(SemiringKind::Tropical))
        .unwrap();
    let axml_uxml::Value::Set(f) = out.as_tropical().unwrap() else {
        panic!()
    };
    assert_eq!(
        f.get(&axml_uxml::leaf("b")),
        axml_semiring::Tropical::cost(0)
    );
}
