//! Streaming contract tests: the pull cursor and the push path.
//!
//! 1. **Parity** (property): for every query × semiring × route ×
//!    mode × parallelism combination, collecting
//!    `PreparedQuery::eval_stream` must equal `eval_with` on
//!    `Route::Differential` — same values (structural and rendered),
//!    same errors — so streaming is purely a latency choice. The
//!    reference is the differential route, where the compiled plans
//!    are checked against the interpreters, not the route under test:
//!    `eval` and the stream share one dispatcher.
//! 2. **Byte identity**: the streamed pieces, rendered one at a time
//!    through `axml::json`, concatenate to exactly the one-shot
//!    `result_json` bytes in all 7 semirings.
//! 3. **One error rule**: on every route, an error raised before any
//!    piece is returned from `eval_stream`, and one raised after some
//!    pieces is the cursor's last item. A tripped
//!    `EvalOptions::memory_budget` surfaces as typed
//!    `AxmlError::Budget { resource: Memory }` on every route,
//!    materialized and streamed, never a panic and never a
//!    truncated-but-`Ok` result.
//! 4. **The caller's pool**: `eval_stream_with` and `eval_each` fan a
//!    parallel evaluation out on the pool they are given.
//! 5. **Push parity**: `PreparedQuery::eval_each` hands its callback
//!    exactly the pieces of the differential route's result (or
//!    returns the scalar, or the error), stops as soon as the callback
//!    says so, and trips a memory budget exactly when `eval_with`
//!    does. Every pushed piece is preceded by a deadline check, also
//!    for results that arrive whole.
//! 6. **Shared grandchildren**: a child step over several roots whose
//!    children repeat (the same leaf under many parents) sums them
//!    without building a K-set; the pushed pieces are byte-identical
//!    to `eval_with`'s and budgets trip after the same pieces. Over
//!    1000 parents the one-pass sums equal the K-set path's.

use axml::json::{result_header, result_json};
use axml::{
    AxmlError, BudgetKind, Engine, EvalCursor, EvalOptions, Pool, PreparedQuery, ResultPieceRef,
    Route, SemiringKind, SinkClosed, StreamItem,
};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

const QUERY_POOL: [&str; 5] = [
    "$S/*",                // streamable: child step over a single root
    "$S/*/*",              // materialize-then-emit chain
    "element p { $S//c }", // scalar result (element constructor)
    "($S//d, $S/b)",       // union root: materialize-then-emit
    "$MISSING/b",          // document never loaded: always errors
];

const ROUTES: [Route; 4] = [
    Route::Direct,
    Route::ViaNrc,
    Route::Shredded,
    Route::Differential,
];

struct Fixture {
    engine: Engine,
    prepared: Vec<PreparedQuery>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let engine = Engine::new();
        engine
            .load_document(
                "S",
                "<a {z}> <b {x1}> d {y1} c </b> <c {x2}> d {y2} e {y3} </c> </a>",
            )
            .unwrap();
        let prepared = QUERY_POOL
            .iter()
            .map(|src| engine.prepare(src).unwrap())
            .collect();
        Fixture { engine, prepared }
    })
}

fn rendered(r: &Result<axml::AxmlResult, AxmlError>) -> String {
    match r {
        Ok(v) => format!("Ok: {v}"),
        Err(e) => format!("Err: {e}"),
    }
}

/// The reference result for `opts`: `eval_with` on the differential
/// route, with the same semiring, mode and parallelism.
fn reference(q: &PreparedQuery, opts: EvalOptions) -> Result<axml::AxmlResult, AxmlError> {
    q.eval_with(
        &fixture().engine,
        opts.route(Route::Differential),
        &[],
        None,
    )
}

/// The one way a route may differ from the differential reference: the
/// shredded route rejects a query outside the §7 fragment, which the
/// differential route evaluates without its shredded leg.
fn shredded_rejects(route: Route, err: &AxmlError) -> bool {
    route == Route::Shredded && matches!(err, AxmlError::UnsupportedRoute { .. })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Collected stream ≡ materialized eval, across everything.
    #[test]
    fn stream_collects_to_the_materialized_result(
        qi in 0..QUERY_POOL.len(),
        ki in 0..SemiringKind::ALL.len(),
        ri in 0..ROUTES.len(),
        pf in 0..2usize,
        par in 0..2usize,
    ) {
        let fix = fixture();
        let q = &fix.prepared[qi];
        let mut opts = EvalOptions::new()
            .semiring(SemiringKind::ALL[ki])
            .route(ROUTES[ri]);
        if pf == 1 {
            opts = opts.provenance_first();
        }
        if par == 1 {
            opts = opts.parallel(4);
        }
        let materialized = reference(q, opts);
        let streamed = q
            .eval_stream(&fix.engine, opts)
            .and_then(EvalCursor::collect_result);
        match (&materialized, &streamed) {
            (Ok(_), Err(e)) if shredded_rejects(ROUTES[ri], e) => {}
            _ => prop_assert_eq!(rendered(&materialized), rendered(&streamed)),
        }
        if let (Ok(m), Ok(s)) = (&materialized, &streamed) {
            prop_assert_eq!(m, s);
        }
    }
}

/// Acceptance: streamed pieces render to byte-identical JSON in all 7
/// semirings, on both incremental routes.
#[test]
fn streamed_json_is_byte_identical_to_one_shot() {
    let fix = fixture();
    for src in ["$S/*", "$S/*/*"] {
        let q = fix.engine.prepare(src).unwrap();
        for kind in SemiringKind::ALL {
            for route in [Route::Direct, Route::ViaNrc] {
                let opts = EvalOptions::new().semiring(kind).route(route);
                let whole = result_json(src, &opts, &q.eval(&fix.engine, opts).unwrap());

                let mut streamed = result_header(src, &opts);
                streamed.push('[');
                let mut first = true;
                for item in q.eval_stream(&fix.engine, opts).unwrap() {
                    match item.unwrap() {
                        StreamItem::Piece(p) => {
                            if !first {
                                streamed.push(',');
                            }
                            first = false;
                            streamed.push_str(&p.json());
                        }
                        StreamItem::Scalar(_) => unreachable!("set-shaped query"),
                    }
                }
                streamed.push_str("]}");
                assert_eq!(whole, streamed, "{kind} {route:?} {src}");
            }
        }
    }
}

/// A tripped memory budget is a typed error on every route and mode —
/// and with a generous budget the result is identical to no budget.
#[test]
fn tripped_budgets_surface_as_typed_errors() {
    let fix = fixture();
    let q = fix.engine.prepare("$S/*/*").unwrap();
    for route in ROUTES {
        for pf in [false, true] {
            let mut opts = EvalOptions::new().semiring(SemiringKind::Nat).route(route);
            if pf {
                opts = opts.provenance_first();
            }
            match q.eval(&fix.engine, opts.memory_budget(1)) {
                Err(AxmlError::Budget { resource, at }) => {
                    assert_eq!(resource, BudgetKind::Memory, "{route:?} pf={pf}");
                    assert!(!at.is_empty(), "budget error should name its boundary");
                }
                other => panic!("{route:?} pf={pf}: expected Budget, got {other:?}"),
            }
            let unlimited = q.eval(&fix.engine, opts).unwrap();
            let generous = q.eval(&fix.engine, opts.memory_budget(1 << 20)).unwrap();
            assert_eq!(unlimited, generous, "{route:?} pf={pf}");
        }
    }
}

/// Streamed evaluations trip the same way: pieces, then an in-band
/// `Budget` error, then exhaustion — never a truncated-but-OK stream.
#[test]
fn streamed_budget_trips_end_the_stream_with_a_typed_error() {
    let engine = Engine::new();
    let body: String = (0..100).map(|i| format!("b{i} {{x{i}}} ")).collect();
    engine
        .load_document("S", &format!("<a> {body} </a>"))
        .unwrap();
    let q = engine.prepare("$S/*").unwrap();
    for route in [Route::Direct, Route::ViaNrc] {
        let opts = EvalOptions::new().route(route).memory_budget(10);
        let items: Vec<_> = q.eval_stream(&engine, opts).unwrap().collect();
        let (last, pieces) = items.split_last().expect("at least the error");
        assert!(
            pieces.iter().all(|i| matches!(i, Ok(StreamItem::Piece(_)))),
            "{route:?}: only pieces may precede the error"
        );
        match last {
            Err(AxmlError::Budget { resource, .. }) => {
                assert_eq!(*resource, BudgetKind::Memory, "{route:?}")
            }
            other => panic!("{route:?}: expected in-band Budget, got {other:?}"),
        }
        // And collecting reports the same trip as an error, not a
        // truncated Ok.
        assert!(matches!(
            q.eval_stream(&engine, opts).unwrap().collect_result(),
            Err(AxmlError::Budget { .. })
        ));
    }
}

/// One error rule on every route, in ℕ and ℕ\[X\]: a tripped memory
/// budget or an unknown document is either returned from
/// `eval_stream` or ends a cursor of pieces as its last item — never
/// an `Ok` stream with a truncated result.
#[test]
fn stream_errors_follow_one_rule_on_every_route() {
    let fix = fixture();
    let budgeted = fix.engine.prepare("$S/*/*").unwrap();
    let missing = fix.engine.prepare("$MISSING/b").unwrap();
    for route in ROUTES {
        for kind in [SemiringKind::Nat, SemiringKind::NatPoly] {
            let opts = EvalOptions::new().semiring(kind).route(route);
            let cases = [
                (&budgeted, opts.memory_budget(1), true),
                (&missing, opts, false),
            ];
            for (q, opts, budget) in cases {
                let at = format!("{} in {kind} via {route:?}", q.source());
                let expected = |e: &AxmlError| {
                    if budget {
                        matches!(
                            e,
                            AxmlError::Budget {
                                resource: BudgetKind::Memory,
                                ..
                            }
                        )
                    } else {
                        matches!(e, AxmlError::UnknownDocument { .. })
                    }
                };
                match q.eval_stream(&fix.engine, opts) {
                    Err(e) => assert!(expected(&e), "{at}: {e:?}"),
                    Ok(cursor) => {
                        let items: Vec<_> = cursor.collect();
                        let Some((last, pieces)) = items.split_last() else {
                            panic!("{at}: an empty Ok stream");
                        };
                        assert!(
                            !pieces.is_empty()
                                && pieces.iter().all(|i| matches!(i, Ok(StreamItem::Piece(_)))),
                            "{at}: an error in the cursor follows one or more pieces"
                        );
                        match last {
                            Err(e) => assert!(expected(e), "{at}: {e:?}"),
                            other => panic!("{at}: expected an error last, got {other:?}"),
                        }
                    }
                }
            }
        }
    }
}

/// `eval_stream_with` evaluates on the pool it is given, like
/// `eval_each`: a parallel descendant step over 1801 nodes of distinct
/// subtrees runs tasks on the caller's pool, and the cursor still
/// collects to `eval`'s result.
#[test]
fn streams_fan_out_on_the_callers_pool() {
    let engine = Engine::new();
    let body: String = (0..600)
        .map(|i| format!("<b{i} {{x{i}}}> c {{y{i}}} d{i} </b{i}> "))
        .collect();
    engine
        .load_document("S", &format!("<a> {body} </a>"))
        .unwrap();
    let q = engine.prepare("$S//c").unwrap();
    let opts = EvalOptions::new().semiring(SemiringKind::Nat).parallel(2);
    let pool = Pool::new(2);
    let tasks = |p: &Pool| {
        let s = p.stats();
        s.owned + s.helped + s.stolen + s.injected
    };
    let before = tasks(&pool);
    let streamed = q
        .eval_stream_with(&engine, opts, &[], Some(&pool))
        .and_then(EvalCursor::collect_result)
        .unwrap();
    let after = tasks(&pool);
    assert!(
        after > before,
        "the cursor ran no task on the caller's pool"
    );
    assert_eq!(streamed, q.eval(&engine, opts).unwrap());
    q.eval_each(&engine, opts, &[], Some(&pool), |_| Ok(()))
        .unwrap();
    assert!(
        tasks(&pool) > after,
        "eval_each ran no task on the caller's pool"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `eval_each` pushes exactly the pieces of the differential
    /// route's result, in order — or returns its scalar, or its error —
    /// on every combination, on the global pool and on a caller's pool
    /// alike.
    #[test]
    fn eval_each_pushes_the_materialized_pieces(
        qi in 0..QUERY_POOL.len(),
        ki in 0..SemiringKind::ALL.len(),
        ri in 0..ROUTES.len(),
        pf in 0..2usize,
        par in 0..3usize,
    ) {
        static POOL: OnceLock<Pool> = OnceLock::new();
        let fix = fixture();
        let q = &fix.prepared[qi];
        let mut opts = EvalOptions::new()
            .semiring(SemiringKind::ALL[ki])
            .route(ROUTES[ri]);
        if pf == 1 {
            opts = opts.provenance_first();
        }
        let pool = match par {
            0 => None,
            1 => {
                opts = opts.parallel(4);
                None
            }
            _ => {
                opts = opts.parallel(4);
                Some(POOL.get_or_init(|| Pool::new(2)))
            }
        };
        let materialized = reference(q, opts);
        let mut pushed = Vec::new();
        let each = q.eval_each(&fix.engine, opts, &[], pool, |p| {
            pushed.push(p.json());
            Ok(())
        });
        match (&materialized, each) {
            (Ok(m), Ok(None)) => {
                let want: Vec<String> = m.pieces().expect("a set").iter().map(|p| p.json()).collect();
                prop_assert_eq!(pushed, want);
            }
            (Ok(m), Ok(Some(scalar))) => {
                prop_assert!(m.pieces().is_none() && pushed.is_empty());
                prop_assert_eq!(m, &scalar);
            }
            (Err(e), Err(f)) => prop_assert_eq!(e.to_string(), f.to_string()),
            (Ok(_), Err(f)) if shredded_rejects(ROUTES[ri], &f) => {}
            (m, each) => panic!("eval gave {}, eval_each gave {each:?}", rendered(m)),
        }
    }
}

/// `eval_each` charges the memory budget exactly like `eval_with`:
/// each produced node is charged once, so the smallest budget that
/// lets a query through is the same on the push path as on the
/// materializing one — for every root shape, semiring, incremental
/// route and parallelism.
#[test]
fn eval_each_trips_budgets_exactly_when_eval_with_does() {
    let fix = fixture();
    // The pool already holds the union root `($S//d, $S/b)`.
    let extra = ["$S//c", "for $x in $S/* return ($x)/*"];
    let smallest = |fits: &dyn Fn(usize) -> bool| (1..=256).find(|&b| fits(b));
    for src in QUERY_POOL.into_iter().chain(extra) {
        let q = fix.engine.prepare(src).unwrap();
        for kind in SemiringKind::ALL {
            for route in [Route::Direct, Route::ViaNrc] {
                for par in [false, true] {
                    let mut opts = EvalOptions::new().semiring(kind).route(route);
                    if par {
                        opts = opts.parallel(4);
                    }
                    let with = smallest(&|b| {
                        q.eval_with(&fix.engine, opts.memory_budget(b), &[], None)
                            .is_ok()
                    });
                    let each = smallest(&|b| {
                        q.eval_each(&fix.engine, opts.memory_budget(b), &[], None, |_| Ok(()))
                            .is_ok()
                    });
                    let at = format!("{src} in {kind} via {route:?}, parallel={par}");
                    assert!(with.is_some() || src.starts_with("$MISSING"), "{at}");
                    assert_eq!(with, each, "{at}");
                }
            }
        }
    }
}

/// A callback that has seen enough stops the evaluation: `eval_each`
/// returns `Ok(None)` right after the piece that said so, on every
/// route.
#[test]
fn eval_each_stops_when_the_callback_closes() {
    let engine = Engine::new();
    let body: String = (0..100).map(|i| format!("b{i} {{x{i}}} ")).collect();
    engine
        .load_document("S", &format!("<a> {body} </a>"))
        .unwrap();
    let q = engine.prepare("$S/*").unwrap();
    for route in ROUTES {
        let mut seen = 0;
        let out = q.eval_each(&engine, EvalOptions::new().route(route), &[], None, |_| {
            seen += 1;
            if seen == 3 {
                Err(SinkClosed)
            } else {
                Ok(())
            }
        });
        assert!(matches!(out, Ok(None)), "{route:?}: {out:?}");
        assert_eq!(seen, 3, "{route:?}");
    }
}

/// Node count of one result piece.
fn piece_size(p: &ResultPieceRef<'_>) -> usize {
    match p {
        ResultPieceRef::Nat(t, _) => t.size(),
        ResultPieceRef::PosBool(t, _) => t.size(),
        ResultPieceRef::Tropical(t, _) => t.size(),
        ResultPieceRef::NatPoly(t, _) => t.size(),
        ResultPieceRef::Why(t, _) => t.size(),
        ResultPieceRef::Trio(t, _) => t.size(),
        ResultPieceRef::Prob(t, _) => t.size(),
    }
}

/// Child steps over several roots whose children repeat: `d` sits
/// under four parents, `e` and `c` under two, and two parents share a
/// label, so the summed pieces interleave across roots. `M` is a
/// forest of those parents (its child step is the multi-root branch
/// of both plans); `S` nests them under one root (`$S/*/*` takes the
/// direct plan's multi-root branch). `eval_each` must push exactly
/// `eval_with`'s pieces in all 7 semirings, on both incremental
/// routes, sequential and parallel; and where the root step emits its
/// pieces one by one, every smaller budget must trip after exactly
/// the pieces whose charges fit (the inner steps' charge, then one
/// piece at a time) — where `eval_with` trips too.
#[test]
fn shared_grandchildren_sum_like_the_materialized_k_set() {
    const PARENTS: &str = "<b {x1}> d {y1} c {w1} </b> <b {x3}> d {y4} e {2*y4} </b> \
                           <c {x2}> d {y2} e {y3} c </c> <f {x1*x2}> d {y1} <g> d </g> </f>";
    let engine = Engine::new();
    engine.load_document("M", PARENTS).unwrap();
    engine
        .load_document("S", &format!("<a {{z}}> {PARENTS} </a>"))
        .unwrap();
    // (query, whether each route's root step charges piece by piece)
    let cases = [
        ("$M/*", [true, true]),
        ("$M/d", [true, false]),
        ("$S/*/*", [true, false]),
    ];
    for (src, per_piece) in cases {
        let q = engine.prepare(src).unwrap();
        for kind in SemiringKind::ALL {
            for (route, per_piece) in [Route::Direct, Route::ViaNrc].into_iter().zip(per_piece) {
                for par in [false, true] {
                    let mut opts = EvalOptions::new().semiring(kind).route(route);
                    if par {
                        opts = opts.parallel(4);
                    }
                    let at = format!("{src} in {kind} via {route:?}, parallel={par}");
                    let whole = q.eval_with(&engine, opts, &[], None).unwrap();
                    let pieces = whole.pieces().expect("a set");
                    let want: Vec<String> = pieces.iter().map(|p| p.json()).collect();
                    let sizes: Vec<usize> = pieces.iter().map(piece_size).collect();
                    assert!(!want.is_empty(), "{at}");
                    let mut pushed = Vec::new();
                    let each = q.eval_each(&engine, opts, &[], None, |p| {
                        pushed.push(p.json());
                        Ok(())
                    });
                    assert!(matches!(each, Ok(None)), "{at}: {each:?}");
                    assert_eq!(pushed, want, "{at}");

                    let fits = |b: usize| {
                        q.eval_with(&engine, opts.memory_budget(b), &[], None)
                            .is_ok()
                    };
                    let smallest = (1..=512).find(|&b| fits(b)).expect("some budget fits");
                    let inner = smallest - sizes.iter().sum::<usize>();
                    for b in 1..=smallest {
                        let mut got = Vec::new();
                        let out = q.eval_each(&engine, opts.memory_budget(b), &[], None, |p| {
                            got.push(p.json());
                            Ok(())
                        });
                        assert_eq!(out.is_ok(), b == smallest, "{at}, budget {b}");
                        let fit = if per_piece {
                            let mut used = inner;
                            sizes
                                .iter()
                                .take_while(|&&n| {
                                    used += n;
                                    used <= b
                                })
                                .count()
                        } else if b == smallest {
                            want.len()
                        } else {
                            0
                        };
                        assert_eq!(got, want[..fit], "{at}, budget {b}");
                    }
                }
            }
        }
    }
}

/// A run of 1000 equal pieces — one `d` leaf under each of 1000
/// distinct parents — sums in one pass (`Semiring::sum`; ℕ\[X\]
/// sorts the 1000 terms once) to exactly what the interpreters' K-set
/// inserts give: the differential route (which checks the compiled
/// plans against them) and the pushed pieces agree with the direct
/// route's result bit for bit, rendered and structurally, in all 7
/// semirings.
#[test]
fn a_thousand_parents_sharing_a_child_sum_like_the_k_set() {
    let parents: String = (0..1000)
        .map(|i| {
            format!(
                "<p{i} {{x{i}}}> d {{y{i}}} e{} {{{}}} </p{i}> ",
                i % 7,
                i % 3 + 1
            )
        })
        .collect();
    let engine = Engine::new();
    engine
        .load_document("W", &format!("<w {{z}}> {parents} </w>"))
        .unwrap();
    let q = engine.prepare("$W/*/*").unwrap();
    for kind in SemiringKind::ALL {
        let opts = EvalOptions::new().semiring(kind);
        let direct = q.eval_with(&engine, opts, &[], None).unwrap();
        let kset = q
            .eval_with(&engine, opts.route(Route::Differential), &[], None)
            .unwrap();
        assert_eq!(direct, kset, "{kind}");
        let want = result_json("$W/*/*", &opts, &direct);
        assert_eq!(result_json("$W/*/*", &opts, &kset), want, "{kind}");
        let pieces: Vec<String> = direct.pieces().unwrap().iter().map(|p| p.json()).collect();
        assert_eq!(pieces.len(), 8, "d and e0..e6 in {kind}");
        let mut pushed = Vec::new();
        q.eval_each(&engine, opts, &[], None, |p| {
            pushed.push(p.json());
            Ok(())
        })
        .unwrap();
        assert_eq!(pushed, pieces, "{kind}");
    }
}

/// Every piece `eval_each` pushes is preceded by a deadline check, also
/// when the result arrives whole — from the shredded route, or from the
/// subtree memo on an edited document — and not only where a plan
/// streams it: a callback that outlives the deadline on the first piece
/// stops the push with a typed wall-clock trip before the second.
#[test]
fn whole_results_check_the_deadline_before_each_pushed_piece() {
    let engine = Engine::new();
    engine
        .load_document("S", "<a> b {x} c {y} d {z} </a>")
        .unwrap();
    engine.edit_document_text("S", "insert /0 e {w}").unwrap();
    let q = engine.prepare("$S/*").unwrap();
    for route in [Route::Shredded, Route::Direct] {
        let served = engine.storage_stats().incr.incremental_evals;
        let opts = EvalOptions::new()
            .route(route)
            .timeout(Duration::from_millis(200));
        let mut seen = 0;
        let out = q.eval_each(&engine, opts, &[], None, |_| {
            seen += 1;
            if seen == 1 {
                std::thread::sleep(Duration::from_millis(400));
            }
            Ok(())
        });
        assert!(
            matches!(
                out,
                Err(AxmlError::Budget {
                    resource: BudgetKind::WallClock,
                    ..
                })
            ),
            "{route:?}: {out:?}"
        );
        assert_eq!(seen, 1, "{route:?}");
        assert!(
            engine.storage_stats().incr.incremental_evals > served,
            "{route:?}: the edited document's read must be served incrementally"
        );
        let whole = q.eval(&engine, EvalOptions::new().route(route)).unwrap();
        assert!(whole.pieces().unwrap().len() >= 2, "{route:?}");
    }
}
