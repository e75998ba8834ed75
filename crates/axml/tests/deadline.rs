//! Wall-clock deadlines (`EvalOptions::deadline` / `timeout`).
//!
//! The contract under test: an already-expired deadline surfaces as
//! `AxmlError::Budget` on **every** route (checked at route starts —
//! each differential leg counts — at the plans' op boundaries and at
//! semi-naive fixpoint round boundaries), a deadline passing while a
//! plan runs stops it at its next op, and a generous deadline changes
//! nothing at all — byte-identical results to an undeadlined
//! evaluation.

use axml::{AxmlError, Engine, EvalOptions, Parallelism, Route, SemiringKind};
use std::time::{Duration, Instant};

const DOC: &str = "<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>";

/// In the §7 fragment, so all four routes (and every differential
/// leg) can run it.
const QUERY: &str = "$S//d";

fn engine() -> Engine {
    let engine = Engine::new();
    engine.load_document("S", DOC).unwrap();
    engine
}

#[test]
fn an_expired_deadline_is_a_budget_error_on_every_route() {
    let engine = engine();
    let q = engine.prepare(QUERY).unwrap();
    for route in [
        Route::Direct,
        Route::ViaNrc,
        Route::Shredded,
        Route::Differential,
    ] {
        for par in [Parallelism::sequential(), Parallelism::threads(4)] {
            let opts = EvalOptions::new()
                .route(route)
                .parallelism(par)
                .deadline(Instant::now());
            match q.eval(&engine, opts) {
                Err(AxmlError::Budget { resource, at }) => {
                    assert_eq!(resource, axml::BudgetKind::WallClock);
                    assert!(!at.is_empty(), "budget error should name its boundary")
                }
                other => panic!("{route:?}: expected Budget, got {other:?}"),
            }
        }
    }
}

#[test]
fn an_expired_deadline_trips_provenance_first_too() {
    let engine = engine();
    let q = engine.prepare(QUERY).unwrap();
    let opts = EvalOptions::new()
        .semiring(SemiringKind::Nat)
        .provenance_first()
        .deadline(Instant::now());
    assert!(matches!(
        q.eval(&engine, opts),
        Err(AxmlError::Budget { .. })
    ));
}

#[test]
fn a_generous_deadline_is_a_no_op() {
    let engine = engine();
    let q = engine.prepare(QUERY).unwrap();
    for route in [
        Route::Direct,
        Route::ViaNrc,
        Route::Shredded,
        Route::Differential,
    ] {
        for kind in SemiringKind::ALL {
            let plain = q
                .eval(&engine, EvalOptions::new().route(route).semiring(kind))
                .unwrap();
            let timed = q
                .eval(
                    &engine,
                    EvalOptions::new()
                        .route(route)
                        .semiring(kind)
                        .timeout(Duration::from_secs(3600)),
                )
                .unwrap();
            assert_eq!(
                plain.to_string(),
                timed.to_string(),
                "{route:?}/{kind:?}: a generous deadline must not change the result"
            );
        }
    }
}

#[test]
fn an_unrepresentable_timeout_means_no_deadline() {
    // Instant::now() + Duration::MAX overflows; the builder degrades
    // to "no deadline" rather than wrapping into the past.
    let opts = EvalOptions::new().timeout(Duration::MAX);
    assert_eq!(opts.deadline, None);
    let engine = engine();
    let q = engine.prepare(QUERY).unwrap();
    assert!(q.eval(&engine, opts).is_ok());
}

/// A deadline that passes while a direct or via-NRC plan runs stops
/// the plan at its next op boundary. The quadratic `for` below runs
/// its body over a million times on a 1001-node document — seconds in
/// a debug build, well over 20× the 25 ms deadline — so the route
/// start passes and the plan itself must observe the trip, both
/// materialized and pushed piece by piece.
#[test]
fn a_deadline_stops_a_running_plan() {
    let engine = Engine::new();
    let names: String = (0..1000).map(|i| format!("c{i} ")).collect();
    engine
        .load_document("W", &format!("<r> {names} </r>"))
        .unwrap();
    engine.load_document("w", "<r> c </r>").unwrap();
    let q = engine
        .prepare("for $x in $W//* return for $y in $W//* return element p { () }")
        .unwrap();
    let expect_trip = |route: Route, out: Result<_, AxmlError>| match out {
        Err(AxmlError::Budget { resource, at }) => {
            assert_eq!(resource, axml::BudgetKind::WallClock);
            assert_ne!(
                at, "route start",
                "{route:?}: the plan must see the deadline"
            );
        }
        other => panic!("{route:?}: expected a wall-clock trip, got {other:?}"),
    };
    for route in [Route::Direct, Route::ViaNrc] {
        // Warm the artifacts on a small document first.
        let warm = EvalOptions::new().route(route);
        q.eval_with(&engine, warm, &[("W", "w")], None).unwrap();
        let opts = || {
            EvalOptions::new()
                .route(route)
                .timeout(Duration::from_millis(25))
        };
        expect_trip(route, q.eval(&engine, opts()).map(|_| ()));
        let pushed = q.eval_each(&engine, opts(), &[], None, |_| Ok(()));
        expect_trip(route, pushed.map(|_| ()));
    }
}
