//! Parity of the parallel `for`-loop (direct route) against the
//! sequential loop and the reference interpreter: same results on
//! well-typed inputs, same error (message included) on hostile ones.
//!
//! The binder sources are built with at least
//! [`axml_core::PAR_FOR_MIN_BINDERS`] top-level elements so the
//! chunked path genuinely runs (a below-threshold source would
//! silently fall back to the sequential loop and test nothing).

use axml_core::{elaborate, parse_query, CompiledQuery, PAR_FOR_MIN_BINDERS};
use axml_pool::{ExecCtx, Parallelism, Pool};
use axml_semiring::NatPoly;
use axml_uxml::{parse_forest, CollectSink, Exec, Forest, Value};
use proptest::prelude::*;

fn plan(src: &str) -> CompiledQuery<NatPoly> {
    let s = parse_query::<NatPoly>(src).expect("parses");
    let q = elaborate(&s).expect("elaborates");
    CompiledQuery::compile(&q)
}

/// A forest of `n` distinct top-level elements, each with a small
/// annotated body, so a `for` over `$S` has `n` binder elements.
fn wide_forest(n: usize, seed: u64) -> Forest<NatPoly> {
    let mut src = String::new();
    for i in 0..n {
        let j = (i as u64).wrapping_mul(seed % 7 + 1) % 5;
        src.push_str(&format!(
            "<e{i} {{x{j}}}> <b {{y{j}}}> c {{z{j}}} </b> d </e{i}> "
        ));
    }
    parse_forest::<NatPoly>(&src).expect("fixture parses")
}

const QUERIES: [&str; 4] = [
    "for $t in $S return ($t)/*",
    "for $t in $S return for $x in ($t)/* return if (name($x) = b) then ($x)/* else ()",
    "element p { for $t in $S return annot {2} (($t)//c) }",
    "for $t in $S return ($t)",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_for_matches_sequential(
        seed in 0u64..1000,
        extra in 0usize..40,
        qi in 0usize..QUERIES.len(),
        workers in 2usize..5,
    ) {
        let src = wide_forest(PAR_FOR_MIN_BINDERS + extra, seed);
        let p = plan(QUERIES[qi]);
        let inputs = [("S", Value::Set(src))];
        let sequential = CollectSink::collect(|sink| p.eval(&inputs, &Exec::default(), sink));
        let pool = Pool::new(workers);
        let ctx = ExecCtx::new(&pool, Parallelism::threads(workers + 1));
        let parallel = CollectSink::collect(|sink| {
            p.eval(
                &inputs,
                &Exec {
                    ctx: Some(&ctx),
                    ..Exec::default()
                },
                sink,
            )
        });
        prop_assert_eq!(sequential, parallel);
    }

    /// Hostile bindings: the body errors on every element; the
    /// parallel loop must surface the *same* error the sequential
    /// loop hits first.
    #[test]
    fn parallel_for_error_parity(workers in 2usize..5) {
        // `$T` is never bound: the body errors lazily on its first
        // read, once per element, identically in both loops.
        let src = wide_forest(PAR_FOR_MIN_BINDERS + 3, 1);
        let p = plan("for $t in $S return ($T)/b");
        let inputs = [("S", Value::Set(src))];
        let sequential = CollectSink::collect(|sink| p.eval(&inputs, &Exec::default(), sink));
        prop_assert!(sequential.is_err(), "fixture must actually error");
        let pool = Pool::new(workers);
        let ctx = ExecCtx::new(&pool, Parallelism::threads(workers + 1));
        let parallel = CollectSink::collect(|sink| {
            p.eval(
                &inputs,
                &Exec {
                    ctx: Some(&ctx),
                    ..Exec::default()
                },
                sink,
            )
        });
        prop_assert_eq!(
            sequential.unwrap_err().msg,
            parallel.unwrap_err().msg
        );
    }
}
