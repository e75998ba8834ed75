//! Differential property tests: the semi-naive Datalog evaluator
//! (delta relations, indexed joins, absorption pruning) must agree
//! with the naïve reference fixpoint on random annotated programs —
//! same IDB relations when both converge, same non-convergence error
//! when neither does — over `Nat`, `PosBool` and `NatPoly`.
//!
//! Programs are drawn from a pool of rule shapes (base copies,
//! linear recursion in either atom order, projections, repeated
//! variables, two-IDB-atom bodies, Skolem heads); data is a random
//! annotated DAG (plus arbitrary — possibly cyclic — graphs for the
//! idempotent `PosBool`, where the fixpoint still exists).

use axml_relational::datalog::{
    atom, eval_datalog_idb, eval_datalog_naive_capped, sk, v, Program, Rule,
};
use axml_relational::{Database, KRelation, RelValue, Schema};
use axml_semiring::{Nat, NatPoly, PosBool, Semiring};
use axml_uxml::Exec;
use proptest::prelude::*;

const MAX_ITERS: usize = 48;

/// The rule-shape pool. `T`, `U`, `P`, `Q` are IDB; `E`, `F` are EDB.
/// Subsets may leave an IDB predicate referenced but undefined — both
/// evaluators must then reject identically.
fn rule_pool() -> Vec<Rule> {
    vec![
        // T(x,y) :- E(x,y).
        Rule::new(atom("T", [v("x"), v("y")]), [atom("E", [v("x"), v("y")])]),
        // T(x,z) :- T(x,y), E(y,z).   (left-linear recursion)
        Rule::new(
            atom("T", [v("x"), v("z")]),
            [atom("T", [v("x"), v("y")]), atom("E", [v("y"), v("z")])],
        ),
        // T(x,z) :- E(x,y), T(y,z).   (right-linear recursion)
        Rule::new(
            atom("T", [v("x"), v("z")]),
            [atom("E", [v("x"), v("y")]), atom("T", [v("y"), v("z")])],
        ),
        // T(x,y) :- F(x,y).           (second base relation)
        Rule::new(atom("T", [v("x"), v("y")]), [atom("F", [v("x"), v("y")])]),
        // U(x) :- T(x,y).             (projection sums annotations)
        Rule::new(atom("U", [v("x")]), [atom("T", [v("x"), v("y")])]),
        // U(y) :- E(x,y), E(y,z).     (EDB-only join)
        Rule::new(
            atom("U", [v("y")]),
            [atom("E", [v("x"), v("y")]), atom("E", [v("y"), v("z")])],
        ),
        // P(x,z) :- T(x,y), T(y,z).   (two IDB atoms in one body)
        Rule::new(
            atom("P", [v("x"), v("z")]),
            [atom("T", [v("x"), v("y")]), atom("T", [v("y"), v("z")])],
        ),
        // U(x) :- E(x,x).             (repeated variable in one atom)
        Rule::new(atom("U", [v("x")]), [atom("E", [v("x"), v("x")])]),
        // Q(f(x), y) :- T(x,y).       (Skolem head)
        Rule::new(
            atom("Q", [sk("f", [v("x")]), v("y")]),
            [atom("T", [v("x"), v("y")])],
        ),
        // T(x,z) :- E(x,y), F(y,z).   (nonrecursive join)
        Rule::new(
            atom("T", [v("x"), v("z")]),
            [atom("E", [v("x"), v("y")]), atom("F", [v("y"), v("z")])],
        ),
    ]
}

/// A program: the base rule plus a random subset of the pool.
fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(
        proptest::sample::select(&[true, false][..]),
        rule_pool().len(),
    )
    .prop_map(|mask| {
        let pool = rule_pool();
        let mut rules = vec![pool[0].clone()];
        for (rule, keep) in pool.into_iter().zip(mask).skip(1) {
            if keep {
                rules.push(rule);
            }
        }
        Program::new(rules)
    })
}

/// Random edges. `dag` restricts to src < dst (guaranteed convergence
/// in every semiring); otherwise cycles may appear.
fn arb_edges(dag: bool) -> impl Strategy<Value = Vec<(u64, u64, usize)>> {
    proptest::collection::vec((1u64..6, 1u64..6, 0usize..4), 0..8).prop_map(move |raw| {
        raw.into_iter()
            .filter_map(|(a, b, ann)| {
                if !dag {
                    Some((a, b, ann))
                } else if a == b {
                    None // self-loop: would cycle
                } else {
                    Some((a.min(b), a.max(b), ann))
                }
            })
            .collect()
    })
}

fn build_db<K: Semiring>(
    e: &[(u64, u64, usize)],
    f: &[(u64, u64, usize)],
    ann: impl Fn(usize) -> K,
) -> Database<K> {
    let mut rel_e = KRelation::new(Schema::new(["src", "dst"]));
    for (a, b, i) in e {
        rel_e.insert(vec![RelValue::Node(*a), RelValue::Node(*b)], ann(*i));
    }
    let mut rel_f = KRelation::new(Schema::new(["src", "dst"]));
    for (a, b, i) in f {
        rel_f.insert(vec![RelValue::Node(*a), RelValue::Node(*b)], ann(*i));
    }
    Database::new().with("E", rel_e).with("F", rel_f)
}

/// Both evaluators agree: same relations on success, or both reject.
/// The **parallel** semi-naive evaluator (fanned-out join rounds) must
/// match the sequential one outcome-for-outcome too.
fn check_agreement<K: Semiring>(prog: &Program, db: &Database<K>) {
    let semi = eval_datalog_idb(prog, db, MAX_ITERS, &Exec::default());
    let naive = eval_datalog_naive_capped(prog, db, MAX_ITERS);
    match (&semi, &naive) {
        (Ok(a), Ok(b)) => {
            for pred in prog.idb_preds().keys() {
                assert_eq!(a.get(pred), b.get(pred), "IDB {pred} diverges on\n{prog}");
            }
        }
        (Err(ea), Err(eb)) => {
            assert_eq!(ea.msg, eb.msg, "errors diverge on\n{prog}");
        }
        (a, b) => {
            panic!("outcome mismatch on\n{prog}\nsemi-naive: {a:?}\nnaive: {b:?}")
        }
    }
    let pool = par_pool();
    let ctx = axml_pool::ExecCtx::new(pool, axml_pool::Parallelism::threads(4));
    let par = eval_datalog_idb(
        prog,
        db,
        MAX_ITERS,
        &Exec {
            ctx: Some(&ctx),
            ..Exec::default()
        },
    );
    match (&semi, &par) {
        (Ok(a), Ok(p)) => {
            for pred in prog.idb_preds().keys() {
                assert_eq!(
                    a.get(pred),
                    p.get(pred),
                    "parallel IDB {pred} diverges on\n{prog}"
                );
            }
        }
        (Err(ea), Err(ep)) => {
            assert_eq!(ea.msg, ep.msg, "parallel errors diverge on\n{prog}");
        }
        (a, p) => {
            panic!("parallel outcome mismatch on\n{prog}\nsequential: {a:?}\nparallel: {p:?}")
        }
    }
}

/// One shared pool for the whole suite (proptest runs hundreds of
/// cases; a pool per case would churn threads).
fn par_pool() -> &'static axml_pool::Pool {
    static POOL: std::sync::OnceLock<axml_pool::Pool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| axml_pool::Pool::new(4))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// ℕ[X] — the universal semiring — over acyclic data.
    #[test]
    fn seminaive_matches_naive_natpoly(
        prog in arb_program(),
        e in arb_edges(true),
        f in arb_edges(true),
    ) {
        let db = build_db(&e, &f, |i| NatPoly::var_named(&format!("sp{i}")));
        check_agreement(&prog, &db);
    }

    /// ℕ (bag semantics) over acyclic data.
    #[test]
    fn seminaive_matches_naive_nat(
        prog in arb_program(),
        e in arb_edges(true),
        f in arb_edges(true),
    ) {
        let db = build_db(&e, &f, |i| Nat(1 + i as u128));
        check_agreement(&prog, &db);
    }

    /// PosBool over acyclic data.
    #[test]
    fn seminaive_matches_naive_posbool(
        prog in arb_program(),
        e in arb_edges(true),
        f in arb_edges(true),
    ) {
        let db = build_db(&e, &f, |i| PosBool::var_named(&format!("sb{i}")));
        check_agreement(&prog, &db);
    }

    /// PosBool over *arbitrary* (possibly cyclic) data: `+` is
    /// idempotent, so the fixpoint exists and absorption pruning must
    /// terminate the recursion exactly where the naïve iterate stops.
    #[test]
    fn seminaive_matches_naive_posbool_cyclic(
        prog in arb_program(),
        e in arb_edges(false),
        f in arb_edges(false),
    ) {
        let db = build_db(&e, &f, |i| PosBool::var_named(&format!("sc{i}")));
        check_agreement(&prog, &db);
    }
}
