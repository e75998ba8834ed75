//! Concurrency stress: one shared [`Engine`], 8+ threads hammering
//! mixed `prepare` / `eval` / `load_document` / `remove_document`
//! traffic with `Route::Differential`, asserting
//!
//! - no deadlocks (the test terminates — every loop is a fixed
//!   iteration count with no unbounded waits),
//! - no cross-route disagreement (differential evaluation re-checks
//!   compiled-vs-interpreted and route-vs-route on every call),
//! - byte-identical results against a single-threaded reference run
//!   (rendered text compared verbatim).
//!
//! Every specialized read goes through the kind arena's image memo,
//! so its lock and the specialize path are continuously exercised
//! under contention; batch threads additionally evaluate with
//! intra-query parallelism on the shared global pool. A second test
//! runs editor threads whose writes keep compacting the arenas while
//! every kind is read.

use axml::{Engine, EvalOptions, Parallelism, Pool, Route, SemiringKind};
use std::sync::Arc;
use std::thread;

const STABLE_DOCS: [(&str, &str); 4] = [
    (
        "D0",
        "<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>",
    ),
    ("D1", "<r> <s {w}> a {2} b </s> <t> a {u} </t> </r>"),
    ("D2", "<a> <a {p}> c </a> b {q} c {p*q} </a>"),
    ("D3", "<x {v}> <y {v}> <z {v}> c </z> </y> </x>"),
];

const QUERIES: [&str; 4] = [
    "$D0//c",
    "element r { $D1/*/* }",
    "($D2//a, $D2/b)",
    "$D3/descendant::*",
];

fn load_stable(engine: &Engine) {
    for (name, xml) in STABLE_DOCS {
        engine.load_document(name, xml).unwrap();
    }
}

/// `(query idx, kind)` → rendered differential result, computed on a
/// fresh single-threaded engine.
fn reference_results() -> Vec<((usize, SemiringKind), String)> {
    let engine = Engine::new();
    load_stable(&engine);
    let mut out = Vec::new();
    for (qi, src) in QUERIES.iter().enumerate() {
        let q = engine.prepare(src).unwrap();
        for kind in SemiringKind::ALL {
            let opts = EvalOptions::new().semiring(kind).route(Route::Differential);
            let r = q.eval(&engine, opts).unwrap();
            out.push(((qi, kind), r.to_string()));
        }
    }
    out
}

#[test]
fn eight_threads_mixed_workload_byte_identical() {
    let expected = Arc::new(reference_results());
    let engine = Arc::new(Engine::new());
    load_stable(&engine);
    // Shared prepared queries: threads evaluate the same compiled
    // artifacts concurrently (the OnceLock per-kind caches race on
    // first use).
    let prepared: Arc<Vec<_>> = Arc::new(
        QUERIES
            .iter()
            .map(|src| engine.prepare(src).unwrap())
            .collect(),
    );

    let mut handles = Vec::new();

    // 4 eval threads: every (query, kind) pair, differentially, many
    // times over; results must match the single-threaded reference
    // byte for byte.
    for t in 0..4 {
        let engine = Arc::clone(&engine);
        let prepared = Arc::clone(&prepared);
        let expected = Arc::clone(&expected);
        handles.push(thread::spawn(move || {
            for round in 0..12 {
                // Stagger the starting point per thread and round so
                // threads hit different (doc × kind) caches at once.
                let offset = (t * 7 + round * 3) % expected.len();
                for j in 0..expected.len() {
                    let ((qi, kind), want) = &expected[(offset + j) % expected.len()];
                    let opts = EvalOptions::new()
                        .semiring(*kind)
                        .route(Route::Differential);
                    let got = prepared[*qi].eval(&engine, opts).unwrap();
                    assert_eq!(got.to_string(), *want, "q{qi} in {kind} diverged");
                }
            }
        }));
    }

    // 2 churn threads: load → query → remove ephemeral documents, and
    // occasionally re-load a stable document with identical content
    // (replacement is atomic; readers keep their Arc snapshot).
    for t in 0..2 {
        let engine = Arc::clone(&engine);
        handles.push(thread::spawn(move || {
            for i in 0..40 {
                let name = format!("churn_{t}_{i}");
                engine
                    .load_document(&name, "<r> <a {m}> c {n} </a> </r>")
                    .unwrap();
                let q = engine.prepare(&format!("${name}//c")).unwrap();
                let opts = EvalOptions::new()
                    .semiring(SemiringKind::NatPoly)
                    .route(Route::Differential);
                let got = q.eval(&engine, opts).unwrap();
                assert_eq!(got.to_string(), "(c {m*n})", "churn doc query");
                assert!(engine.remove_document(&name));
                let (stable, xml) = STABLE_DOCS[i % STABLE_DOCS.len()];
                engine.load_document(stable, xml).unwrap();
            }
        }));
    }

    // 2 batch threads: eval_batch over all (query, kind) pairs — with
    // and without intra-query parallelism — each entry checked against
    // the reference.
    for _ in 0..2 {
        let engine = Arc::clone(&engine);
        let prepared = Arc::clone(&prepared);
        let expected = Arc::clone(&expected);
        handles.push(thread::spawn(move || {
            for round in 0..6 {
                let par = if round % 2 == 0 {
                    Parallelism::sequential()
                } else {
                    Parallelism::threads(3)
                };
                let entries: Vec<_> = expected
                    .iter()
                    .map(|((qi, kind), _)| {
                        (
                            &prepared[*qi],
                            EvalOptions::new()
                                .semiring(*kind)
                                .route(Route::Differential)
                                .parallelism(par),
                        )
                    })
                    .collect();
                let results = engine.eval_batch(&entries);
                assert_eq!(results.len(), expected.len());
                for (res, ((qi, kind), want)) in results.iter().zip(expected.iter()) {
                    let got = res
                        .as_ref()
                        .unwrap_or_else(|e| panic!("batch entry q{qi} in {kind} errored: {e}"));
                    assert_eq!(got.to_string(), *want, "batch q{qi} in {kind} diverged");
                }
            }
        }));
    }

    for h in handles {
        h.join().expect("no stress thread panicked");
    }

    // The store ends exactly where it started: the four stable
    // documents, no churn leftovers.
    assert_eq!(engine.document_names(), ["D0", "D1", "D2", "D3"]);
}

/// `eval_many_docs` under thread contention: many threads fanning the
/// same prepared query over the same document set on one explicit
/// pool, all getting identical per-document results.
#[test]
fn eval_many_docs_concurrent() {
    let engine = Arc::new(Engine::new());
    for i in 0..6 {
        engine
            .load_document(&format!("M{i}"), &format!("<r> c {{x{i}}} d </r>"))
            .unwrap();
    }
    let q = Arc::new(engine.prepare("$M0//c").unwrap());
    let docs: Vec<String> = (0..6).map(|i| format!("M{i}")).collect();
    let expected: Vec<String> = (0..6).map(|i| format!("(c {{x{i}}})")).collect();
    let pool = Arc::new(Pool::new(4));
    let mut handles = Vec::new();
    for _ in 0..4 {
        let engine = Arc::clone(&engine);
        let q = Arc::clone(&q);
        let docs = docs.clone();
        let expected = expected.clone();
        let pool = Arc::clone(&pool);
        handles.push(thread::spawn(move || {
            let doc_refs: Vec<&str> = docs.iter().map(String::as_str).collect();
            for _ in 0..20 {
                let results = engine.eval_many_docs_on(
                    &pool,
                    &q,
                    &doc_refs,
                    EvalOptions::new().route(Route::Differential),
                );
                for (r, want) in results.iter().zip(&expected) {
                    assert_eq!(r.as_ref().unwrap().to_string(), *want);
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("no thread panicked");
    }
}

/// The `step`-th edit of editor `t`'s document: a splice of a fresh
/// subtree (new labels, a new variable) or a fresh re-annotation, so
/// every edit appends rows and the arenas keep reaching the
/// compaction trigger.
fn editor_script(t: usize, step: usize) -> String {
    match step % 3 {
        0 | 1 => format!(
            "splice /0/{} <v{t}x{step}> c {{e{t}x{step}}} <w{t}x{step}> c l </w{t}x{step}> </v{t}x{step}>",
            step % 4
        ),
        _ => format!("reannotate /0/{} r{t}x{step}", (step + 1) % 4),
    }
}

const EDITORS: usize = 4;
const EDITS: usize = 30;
const EDITOR_BASE: &str = "<a> <b0> c l </b0> <b1> c l </b1> <b2> c l </b2> <b3> c l </b3> </a>";

/// Editor `t`'s read after edit `step`: its document in a kind that
/// cycles through all seven, differentially.
fn editor_read(engine: &Engine, t: usize, step: usize) -> String {
    let kind = SemiringKind::ALL[(t + step) % 7];
    let opts = EvalOptions::new().semiring(kind).route(Route::Differential);
    engine
        .run(&format!("$E{t}//c"), opts)
        .unwrap_or_else(|e| panic!("E{t} step {step} in {kind}: {e}"))
        .to_string()
}

/// Four editor threads each rewrite their own document with fresh
/// content, compacting the shared arenas again and again, while four
/// reader threads evaluate the stable documents in every kind.
/// Every result is byte-identical to a single-threaded run: readers
/// against [`reference_results`], editors against a sequential replay
/// of their own edits.
#[test]
fn compaction_under_concurrent_edits_and_reads_is_byte_identical() {
    let expected = Arc::new(reference_results());
    let replay: Arc<Vec<Vec<String>>> = Arc::new(
        (0..EDITORS)
            .map(|t| {
                let engine = Engine::new();
                engine.load_document(&format!("E{t}"), EDITOR_BASE).unwrap();
                (0..EDITS)
                    .map(|step| {
                        engine
                            .edit_document_text(&format!("E{t}"), &editor_script(t, step))
                            .unwrap();
                        editor_read(&engine, t, step)
                    })
                    .collect()
            })
            .collect(),
    );
    let engine = Arc::new(Engine::new());
    load_stable(&engine);
    for t in 0..EDITORS {
        engine.load_document(&format!("E{t}"), EDITOR_BASE).unwrap();
    }
    let prepared: Arc<Vec<_>> = Arc::new(
        QUERIES
            .iter()
            .map(|src| engine.prepare(src).unwrap())
            .collect(),
    );
    let mut handles = Vec::new();
    for t in 0..EDITORS {
        let engine = Arc::clone(&engine);
        let replay = Arc::clone(&replay);
        handles.push(thread::spawn(move || {
            for step in 0..EDITS {
                engine
                    .edit_document_text(&format!("E{t}"), &editor_script(t, step))
                    .unwrap();
                assert_eq!(
                    editor_read(&engine, t, step),
                    replay[t][step],
                    "E{t} step {step}"
                );
            }
        }));
    }
    for t in 0..4 {
        let engine = Arc::clone(&engine);
        let prepared = Arc::clone(&prepared);
        let expected = Arc::clone(&expected);
        handles.push(thread::spawn(move || {
            for round in 0..8 {
                let offset = (t * 5 + round * 3) % expected.len();
                for j in 0..expected.len() {
                    let ((qi, kind), want) = &expected[(offset + j) % expected.len()];
                    let opts = EvalOptions::new()
                        .semiring(*kind)
                        .route(Route::Differential);
                    let got = prepared[*qi].eval(&engine, opts).unwrap();
                    assert_eq!(got.to_string(), *want, "q{qi} in {kind} diverged");
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("no stress thread panicked");
    }
    let stats = engine.storage_stats();
    assert!(
        stats.compaction.compactions >= 3,
        "the edits compacted only {} times",
        stats.compaction.compactions
    );
    assert_eq!(
        stats.compaction.live_subtrees,
        {
            let quiet = Engine::new();
            for name in engine.document_names() {
                quiet.insert_forest(&name, (*engine.document(&name).unwrap()).clone());
            }
            quiet.storage_stats().distinct_subtrees
        },
        "the live rows are the stored documents' distinct subtrees"
    );
}
