//! Streaming cursor contract tests.
//!
//! 1. **Parity** (property): for every query × semiring × route ×
//!    mode × parallelism combination, collecting
//!    `PreparedQuery::eval_stream` must equal `eval` —
//!    same values (structural and rendered), same errors — so
//!    streaming is purely a latency choice.
//! 2. **Byte identity**: the streamed pieces, rendered one at a time
//!    through `axml::json`, concatenate to exactly the one-shot
//!    `result_json` bytes in all 7 semirings.
//! 3. **Laziness** (deterministic, no timing): on a streamable root
//!    shape, after pulling one piece the producer has emitted at most
//!    buffer + 1 pieces — the evaluation provably has not run ahead
//!    to completion.
//! 4. **Memory budgets**: a tripped `EvalOptions::memory_budget`
//!    surfaces as typed `AxmlError::Budget { resource: Memory }` on
//!    every route, materialized and streamed, never a panic and never
//!    a truncated-but-`Ok` result.
//! 5. **Push parity**: `PreparedQuery::eval_each` hands its callback
//!    exactly the materialized pieces (or returns the scalar, or the
//!    error), stops as soon as the callback says so, and trips a
//!    memory budget exactly when `eval_with` does.
//! 6. **Shared grandchildren**: a child step over several roots whose
//!    children repeat (the same leaf under many parents) sums them
//!    without building a K-set; the pushed pieces are byte-identical
//!    to `eval_with`'s and budgets trip after the same pieces.

use axml::json::{result_header, result_json};
use axml::{
    AxmlError, BudgetKind, Engine, EvalCursor, EvalOptions, Pool, PreparedQuery, ResultPieceRef,
    Route, SemiringKind, SinkClosed, StreamItem, STREAM_BUFFER_PIECES,
};
use proptest::prelude::*;
use std::sync::OnceLock;

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
        let materialized = q.eval(&fix.engine, opts);
        let streamed = q
            .eval_stream(&fix.engine, opts)
            .and_then(EvalCursor::collect_result);
        prop_assert_eq!(rendered(&materialized), rendered(&streamed));
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

/// Deterministic laziness: pulling one piece of a 500-piece streamable
/// result leaves the producer at most one buffer ahead — it provably
/// has not materialized the whole result. No sleeps, no timing: the
/// bounded channel *is* the synchronization.
#[test]
fn streaming_is_lazy_on_streamable_shapes() {
    let engine = Engine::new();
    // Distinct labels: identical trees would merge into one K-set
    // piece and defeat the point of the test.
    let body: String = (0..500).map(|i| format!("b{i} {{x{i}}} ")).collect();
    engine
        .load_document("S", &format!("<a> {body} </a>"))
        .unwrap();
    let q = engine.prepare("$S/*").unwrap();
    for route in [Route::Direct, Route::ViaNrc] {
        let mut cursor = q
            .eval_stream(&engine, EvalOptions::new().route(route))
            .unwrap();
        let first = cursor.next().expect("500 pieces").unwrap();
        assert!(matches!(first, StreamItem::Piece(_)));
        // The producer can be at most: buffer (in channel) + 1 (the
        // piece we pulled) + 1 (blocked mid-send) pieces in.
        let produced = cursor.produced_so_far();
        assert!(
            produced <= STREAM_BUFFER_PIECES + 2,
            "{route:?}: producer ran {produced} pieces ahead (buffer is {STREAM_BUFFER_PIECES})"
        );
        // Dropping the cursor mid-stream cancels cleanly (the producer
        // sees a closed channel at its next emission).
        drop(cursor);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `eval_each` pushes exactly the materialized result's pieces, in
    /// order — or returns its scalar, or its error — on every
    /// combination, on the global pool and on a caller's pool alike.
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
        let materialized = q.eval(&fix.engine, opts);
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
