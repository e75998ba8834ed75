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

// ---------------------------------------------------------------------
// Resume ≡ fresh solve: the incremental contract at the relational
// level, plus the interned boundary round trip.
// ---------------------------------------------------------------------

use axml_core::ast::{Axis, NodeTest, Step};
use axml_core::path::PathQuery;
use axml_relational::datalog::eval_datalog_idb_resume;
use axml_relational::shred::path_to_datalog;
use axml_relational::{added_facts_relation, prune_retired, ShadowDoc};
use axml_semiring::IdentityHom;
use axml_uxml::{Forest, Label, Tree};
use std::collections::{BTreeMap, HashSet};

const LABELS: [&str; 3] = ["a", "b", "c"];

/// A semiring-independent document shape: label index, children with
/// annotation indexes.
#[derive(Clone, Debug)]
struct Shape(usize, Vec<(Shape, usize)>);

fn arb_shape(depth: u32) -> BoxedStrategy<Shape> {
    if depth == 0 {
        (0..LABELS.len()).prop_map(|l| Shape(l, Vec::new())).boxed()
    } else {
        (
            0..LABELS.len(),
            proptest::collection::vec((arb_shape(depth - 1), 0usize..4), 0..3),
        )
            .prop_map(|(l, kids)| Shape(l, kids))
            .boxed()
    }
}

fn arb_doc() -> impl Strategy<Value = Vec<(Shape, usize)>> {
    proptest::collection::vec((arb_shape(3), 0usize..4), 1..3)
}

fn count(doc: &[(Shape, usize)]) -> usize {
    doc.iter().map(|(s, _)| 1 + count(&s.1)).sum()
}

/// Replace (`Some`) or delete (`None`) the pre-order `target`-th node.
fn edit(
    doc: &[(Shape, usize)],
    at: &mut usize,
    target: usize,
    with: &Option<(Shape, usize)>,
) -> Vec<(Shape, usize)> {
    let mut out = Vec::new();
    for (s, k) in doc {
        let here = *at;
        *at += 1;
        if here == target {
            *at += count(&s.1);
            out.extend(with.clone());
        } else {
            out.push((Shape(s.0, edit(&s.1, at, target, with)), *k));
        }
    }
    out
}

fn build<K: Semiring>(doc: &[(Shape, usize)], ann: &impl Fn(usize) -> K) -> Forest<K> {
    Forest::from_pairs(doc.iter().map(|(s, k)| {
        (
            Tree::new(Label::new(LABELS[s.0]), build(&s.1, ann)),
            ann(*k),
        )
    }))
}

fn arb_path() -> impl Strategy<Value = PathQuery> {
    let step = (
        proptest::sample::select(
            &[
                Axis::SelfAxis,
                Axis::Child,
                Axis::Descendant,
                Axis::StrictDescendant,
            ][..],
        ),
        proptest::sample::select(&[None, Some("a"), Some("b"), Some("c")][..]),
    )
        .prop_map(|(axis, l)| Step {
            axis,
            test: l.map_or(NodeTest::Wildcard, |l| NodeTest::Label(Label::new(l))),
        });
    let chain = proptest::collection::vec(step, 1..4).prop_map(|s| PathQuery::from_steps(&s));
    (
        chain.clone(),
        chain,
        proptest::sample::select(&[false, true][..]),
    )
        .prop_map(|(a, b, union)| match union {
            true => PathQuery::Union(Box::new(a), Box::new(b)),
            false => a,
        })
}

/// Solve ψ(`q`) over `old`, sync the shredding mirror to `new`, prune
/// the fixpoint by the retired ids and resume it from the added facts:
/// the result must be the fresh solve over the post-edit edges.
fn check_resume<K: Semiring>(
    q: &PathQuery,
    old: &[(Shape, usize)],
    new: &[(Shape, usize)],
    ann: impl Fn(usize) -> K,
) {
    let prog = path_to_datalog(q);
    let mut doc = ShadowDoc::from_forest(&build(old, &ann));
    let e_old = doc.edges_mapped(&IdentityHom);
    let solved = eval_datalog_idb(
        &prog,
        &Database::new().with("E", e_old.clone()),
        MAX_ITERS,
        &Exec::default(),
    )
    .expect("fresh solve");
    let delta = doc.sync(&build(new, &ann));
    let retired: HashSet<u64> = delta.retired.iter().copied().collect();
    let e_new = delta.apply_to_edges(&e_old);
    assert_eq!(e_new, doc.edges_mapped(&IdentityHom), "edge delta");
    let db = Database::new().with("E", e_new);
    let pruned: BTreeMap<String, KRelation<K>> = solved
        .iter()
        .map(|(p, r)| (p.clone(), prune_retired(r, &retired)))
        .collect();
    let resumed = eval_datalog_idb_resume(
        &prog,
        &db,
        "E",
        &added_facts_relation(&delta.added),
        pruned,
        MAX_ITERS,
        &Exec::default(),
    )
    .expect("resume");
    let fresh = eval_datalog_idb(&prog, &db, MAX_ITERS, &Exec::default()).expect("fresh");
    assert_eq!(resumed, fresh, "resume diverges on {q}\n{prog}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For random documents, filter-free path queries and one edit
    /// (a subtree replaced or deleted), resuming the pruned fixpoint
    /// equals solving the edited document from scratch.
    #[test]
    fn resume_after_an_edit_matches_a_fresh_solve(
        q in arb_path(),
        old in arb_doc(),
        target in 0usize..16,
        replacement in (arb_shape(2), 0usize..4),
        delete in proptest::sample::select(&[false, true][..]),
    ) {
        let with = (!delete).then_some(replacement);
        let new = edit(&old, &mut 0, target % count(&old), &with);
        check_resume(&q, &old, &new, |i| Nat(1 + i as u128));
        check_resume(&q, &old, &new, |i| NatPoly::var_named(&format!("rs{i}")));
        check_resume(&q, &old, &new, |i| PosBool::var_named(&format!("rb{i}")));
    }
}

/// Nested Skolem values survive the evaluator's boundary: interned on
/// entry, rebuilt on exit, both through a copy rule and the table.
#[test]
fn nested_skolem_values_round_trip_through_the_interned_boundary() {
    let f = |args: Vec<RelValue>| RelValue::Skolem(Label::new("f"), args);
    let g = |args: Vec<RelValue>| RelValue::Skolem(Label::new("g"), args);
    let values = [
        f(vec![RelValue::Node(1)]),
        f(vec![g(vec![RelValue::Node(1), RelValue::label("x")])]),
        g(vec![f(vec![f(vec![RelValue::Node(2)])]), RelValue::Node(2)]),
        g(vec![]),
        RelValue::label("x"),
        RelValue::Node(0),
    ];
    let mut table = axml_relational::term::TermTable::new();
    for v in &values {
        let id = table.intern(v);
        assert_eq!(table.intern(v), id, "hash-consed");
        assert_eq!(table.value(id), *v);
    }
    let mut rel = KRelation::new(Schema::new(["a", "b"]));
    for (i, v) in values.iter().enumerate() {
        for w in &values[i..] {
            rel.insert(
                vec![v.clone(), w.clone()],
                NatPoly::var_named(&format!("rt{i}")),
            );
        }
    }
    let prog = Program::new([
        Rule::new(
            atom("Out", [v("x"), v("y")]),
            [atom("In", [v("x"), v("y")])],
        ),
        Rule::new(
            atom("Wrap", [sk("h", [v("x"), v("y")]), v("y")]),
            [atom("In", [v("x"), v("y")])],
        ),
    ]);
    let db = Database::new().with("In", rel.clone());
    let out = eval_datalog_idb(&prog, &db, MAX_ITERS, &Exec::default()).unwrap();
    let copied: Vec<_> = out["Out"]
        .iter()
        .map(|(t, k)| (t.clone(), k.clone()))
        .collect();
    let original: Vec<_> = rel.iter().map(|(t, k)| (t.clone(), k.clone())).collect();
    assert_eq!(copied, original);
    for (t, k) in rel.iter() {
        let wrapped = vec![
            RelValue::Skolem(Label::new("h"), vec![t[0].clone(), t[1].clone()]),
            t[1].clone(),
        ];
        assert_eq!(out["Wrap"].get(&wrapped), *k);
    }
}
