//! Perf-1: the cost of annotations. The same query over the same data,
//! with annotations drawn from 𝔹 (plain sets), ℕ (bags), the Clearance
//! lattice, and ℕ\[X\] (full provenance). The expected shape: constant
//! semirings cost roughly alike; ℕ\[X\] pays for polynomial arithmetic,
//! growing with tree size (it is the price of provenance, bounded by
//! Prop 2).

use axml_bench::balanced_tree;
use axml_core::{elaborate, eval_core, parse_query, QueryEnv};
use axml_semiring::{Clearance, Nat, NatPoly, Semiring};
use axml_uxml::{CollectSink, Exec, Forest, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const QUERY: &str = "element out { $S//c }";

fn bench_semiring<K: Semiring + axml_uxml::ParseAnnotation>(
    c: &mut Criterion,
    group: &str,
    name: &str,
    depth: u32,
) {
    let tree = balanced_tree::<K>(depth, 2);
    let forest = Forest::unit(tree);
    let q = elaborate(&parse_query::<K>(QUERY).unwrap()).unwrap();
    let mut g = c.benchmark_group(group);
    g.bench_function(BenchmarkId::new(name, format!("depth={depth}")), |b| {
        b.iter(|| {
            let mut env = QueryEnv::from_bindings([("S".to_owned(), Value::Set(forest.clone()))]);
            eval_core(&q, &mut env).expect("evaluates")
        })
    });
    g.finish();
}

fn eval_scaling(c: &mut Criterion) {
    for depth in [4, 6, 8] {
        bench_semiring::<bool>(c, "eval_scaling", "bool", depth);
        bench_semiring::<Nat>(c, "eval_scaling", "nat", depth);
        bench_semiring::<Clearance>(c, "eval_scaling", "clearance", depth);
        bench_semiring::<NatPoly>(c, "eval_scaling", "natpoly", depth);
    }
}

fn direct_vs_compiled(c: &mut Criterion) {
    // The two semantics routes on the same workload, each in both
    // implementations: the slot-resolved compiled plans (what
    // `PreparedQuery` runs) and the tree-walking interpreters (the
    // differential references). `via_nrc_srt` is the *route* benchmark
    // and measures what `Route::ViaNrc` actually executes — the
    // compiled plan of the axiom-normalized term; `via_nrc_interp`
    // keeps the interpreter cost visible.
    let forest = Forest::unit(balanced_tree::<Nat>(6, 2));
    let q = parse_query::<Nat>(QUERY).unwrap();
    let core = elaborate(&q).unwrap();
    let expr = axml_core::compile_optimized(&core);
    let core_plan = axml_core::CompiledQuery::compile(&core);
    let nrc_plan = axml_nrc::CompiledExpr::compile(&expr);
    let mut g = c.benchmark_group("semantics_route");
    g.bench_function("direct", |b| {
        b.iter(|| {
            let mut env = QueryEnv::from_bindings([("S".to_owned(), Value::Set(forest.clone()))]);
            eval_core(&core, &mut env).expect("evaluates")
        })
    });
    g.bench_function("direct_compiled", |b| {
        b.iter(|| {
            CollectSink::collect(|sink| {
                core_plan.eval(&[("S", Value::Set(forest.clone()))], &Exec::default(), sink)
            })
            .expect("evaluates")
        })
    });
    g.bench_function("via_nrc_srt", |b| {
        b.iter(|| {
            CollectSink::collect(|sink| {
                nrc_plan.eval_with_forests(&[("S", &forest)], &Exec::default(), sink)
            })
            .expect("evaluates")
        })
    });
    g.bench_function("via_nrc_interp", |b| {
        b.iter(|| axml_nrc::eval::eval_with_forests(&expr, &[("S", &forest)]).expect("evaluates"))
    });
    g.finish();
}

fn optimizer_ablation(c: &mut Criterion) {
    // Ablation: evaluating the raw compiled NRC term vs the
    // axioms-normalized term (Prop 5 as an optimizer). Simplification
    // removes the identity big-unions and singleton redexes the
    // compiler emits; the win shows up as interpretation overhead.
    let forest = Forest::unit(balanced_tree::<Nat>(6, 2));
    let q = parse_query::<Nat>(QUERY).unwrap();
    let core = elaborate(&q).unwrap();
    let raw = axml_core::compile(&core);
    let optimized = axml_nrc::axioms::simplify(&raw);
    eprintln!(
        "optimizer ablation: term size {} → {}",
        raw.size(),
        optimized.size()
    );
    let mut g = c.benchmark_group("optimizer_ablation");
    g.bench_function("raw_compiled", |b| {
        b.iter(|| axml_nrc::eval::eval_with_forests(&raw, &[("S", &forest)]).expect("evaluates"))
    });
    g.bench_function("simplified", |b| {
        b.iter(|| {
            axml_nrc::eval::eval_with_forests(&optimized, &[("S", &forest)]).expect("evaluates")
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = eval_scaling, direct_vs_compiled, optimizer_ablation
}
criterion_main!(benches);
