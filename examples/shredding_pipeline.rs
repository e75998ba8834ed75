//! The §7 pipeline: shred annotated XML into an edge relation, compile
//! XPath to Datalog with Skolem functions, evaluate relationally, and
//! decode — the proof-of-concept for pushing annotated-XML queries into
//! an RDBMS. The engine exposes the whole pipeline as
//! `Route::Shredded`, and `Route::Differential` checks it against the
//! other evaluators (Theorem 2, on demand).
//!
//! Run with: `cargo run --example shredding_pipeline`

use annotated_xml::relational::{garbage_collect, shred, shredded_eval_path, xpath_to_datalog};
use annotated_xml::uxml::leaf;
use axml::{Engine, EvalOptions, Route};
use axml_core::ast::{Axis, NodeTest, Step};
use axml_core::path::PathQuery;
use axml_uxml::{Exec, Label};

fn main() {
    // The Fig 4 source tree.
    let engine = Engine::new();
    engine
        .load_document(
            "T",
            "<a> <b {x1}> <a> c {y3} d </a> </b> <c {y1}> <d> <a> c {y2} b {x2} </a> </d> </c> </a>",
        )
        .unwrap();
    let source = engine.document("T").unwrap();

    // φ: one E(pid, nid, label) tuple per node, same annotation.
    let edges = shred(&source);
    println!("φ(source) — the edge relation E:\n{edges}");

    // ψ: the //c query as a Datalog program with Skolem function f.
    let steps = [Step {
        axis: Axis::Descendant,
        test: NodeTest::Label(Label::new("c")),
    }];
    let program = xpath_to_datalog(&steps);
    println!("ψ(//c) — the Datalog program:\n{program}");

    // Evaluate: E′ contains the result roots plus copied structure —
    // including the "garbage" tuples the paper points out.
    let raw = shredded_eval_path(&source, &PathQuery::from_steps(&steps), &Exec::default())
        .expect("fixpoint converges on trees");
    println!("raw E′ ({} tuples, garbage included):\n{raw}", raw.len());

    let clean = garbage_collect(&raw);
    println!(
        "after garbage collection: {} tuples (removed {})",
        clean.len(),
        raw.len() - clean.len()
    );

    // The engine runs the same pipeline as a route. `$T//c` is a
    // navigation chain, so the relational translation applies.
    let q = engine.prepare("$T//c").unwrap();
    assert!(q.is_shreddable());
    let via_relations = q
        .eval(&engine, EvalOptions::new().route(Route::Shredded))
        .unwrap();
    println!("\nshredded-route result:\n{via_relations}");

    // Theorem 2 in action: the differential route evaluates direct,
    // via-NRC *and* shredded, and asserts all three agree.
    let checked = q
        .eval(&engine, EvalOptions::new().route(Route::Differential))
        .unwrap();
    assert_eq!(checked, via_relations, "Theorem 2");
    let result = checked.as_natpoly().unwrap().as_set().unwrap();
    println!(
        "leaf c provenance: {}  (Fig 4's q1 = x1·y3 + y1·y2)",
        result.get(&leaf("c"))
    );
}
