//! Perf-4: the §7 alternative semantics, costed. Direct evaluation of
//! an XPath-fragment query vs the full shredding pipeline (φ, the
//! semi-naive Datalog fixpoint with Skolem functions, GC, decode). The
//! paper positions shredding as proof-of-concept, "not on
//! practicality": the Datalog route still loses, but since PR 3
//! (semi-naive deltas + indexed joins) by a bounded factor rather than
//! the old 100–400×. Coverage spans chains, unions and branching
//! predicates — everything ψ now translates.

use axml_bench::balanced_tree;
use axml_core::ast::{Axis, NodeTest, Step};
use axml_core::path::PathQuery;
use axml_core::{eval_path, eval_step};
use axml_relational::eval_path_via_shredding;
use axml_semiring::Nat;
use axml_uxml::{Exec, Forest, Label};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn steps_child_child() -> Vec<Step> {
    vec![
        Step {
            axis: Axis::Child,
            test: NodeTest::Wildcard,
        },
        Step {
            axis: Axis::Child,
            test: NodeTest::Wildcard,
        },
    ]
}

fn steps_descendant() -> Vec<Step> {
    vec![Step {
        axis: Axis::Descendant,
        test: NodeTest::Label(Label::new("c")),
    }]
}

fn shred_vs_direct(c: &mut Criterion) {
    for depth in [4u32, 6] {
        let forest = Forest::unit(balanced_tree::<Nat>(depth, 2));
        for (name, steps) in [
            ("child_child", steps_child_child()),
            ("descendant_c", steps_descendant()),
        ] {
            let mut g = c.benchmark_group(format!("shred_vs_direct/{name}"));
            g.bench_function(BenchmarkId::new("direct", depth), |b| {
                b.iter(|| {
                    let mut cur = forest.clone();
                    for s in &steps {
                        cur = eval_step(&cur, *s);
                    }
                    cur
                })
            });
            g.bench_function(BenchmarkId::new("shredded_datalog", depth), |b| {
                b.iter(|| {
                    eval_path_via_shredding(
                        &forest,
                        &PathQuery::from_steps(&steps),
                        &Exec::default(),
                    )
                    .expect("converges")
                })
            });
            g.finish();
        }
    }
}

/// The newly ψ-translatable fragment: unions and branching predicates.
fn shred_vs_direct_fragment(c: &mut Criterion) {
    let child_wild = Step {
        axis: Axis::Child,
        test: NodeTest::Wildcard,
    };
    let union_query = PathQuery::Union(
        Box::new(PathQuery::from_steps(&steps_descendant())),
        Box::new(PathQuery::from_steps(&[child_wild, child_wild])),
    );
    // //n*[descendant::c] — inner nodes qualified by a recursive path
    let filter_query = PathQuery::Filter(
        Box::new(PathQuery::from_steps(&[Step {
            axis: Axis::Descendant,
            test: NodeTest::Wildcard,
        }])),
        Box::new(PathQuery::Step(
            Box::new(PathQuery::Root),
            Step {
                axis: Axis::Child,
                test: NodeTest::Label(Label::new("c")),
            },
        )),
    );
    for depth in [4u32, 6] {
        let forest = Forest::unit(balanced_tree::<Nat>(depth, 2));
        for (name, query) in [
            ("union_c_gc", &union_query),
            ("filter_has_c", &filter_query),
        ] {
            let mut g = c.benchmark_group(format!("shred_vs_direct/{name}"));
            g.bench_function(BenchmarkId::new("direct", depth), |b| {
                b.iter(|| eval_path(&forest, query))
            });
            g.bench_function(BenchmarkId::new("shredded_datalog", depth), |b| {
                b.iter(|| {
                    eval_path_via_shredding(&forest, query, &Exec::default()).expect("converges")
                })
            });
            g.finish();
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = shred_vs_direct, shred_vs_direct_fragment
}
criterion_main!(benches);
