//! Incremental re-annotation under churn: property and stress tests.
//!
//! - **Parity**: random edit scripts (splice / relabel / insert /
//!   delete / reannotate, including no-op scripts and
//!   identical-subtree splices) applied through
//!   `Engine::edit_document`, then every query evaluated on the
//!   *edited* engine — whose incremental state (retained Datalog
//!   fixpoints, subtree-fingerprint memos) is live — and on a
//!   **from-scratch** engine holding the same final document. Results
//!   must be byte-identical across all 7 semirings × 4 routes × both
//!   eval modes, errors included.
//! - **Stress**: 8 threads hammering one shared engine with
//!   concurrent `edit_document` (retrying on conflict) and
//!   `Route::Differential` evaluations — the differential route
//!   re-checks the incremental evaluators against the stateless ones
//!   on every call.
//! - **Replace invalidation**: replacing a document via
//!   `load_document` must atomically drop all incremental and
//!   specialization state; in-flight cursors keep their snapshot.
//! - **Memo limits**: on edited documents `eval_with` and `eval_each`
//!   take the same memoized path, so budgets and deadlines give the
//!   same outcome on both, and they hold inside the memo evaluation.
//! - **Memo bound**: a long splice/re-annotation soak keeps the
//!   `memo_entries` gauge proportional to the live document.

use axml::{AxmlError, BudgetKind, EditScript, Engine, EvalMode, EvalOptions, Route, SemiringKind};
use axml_semiring::{NatPoly, Semiring};
use axml_uxml::{Forest, Label, Tree};
use std::collections::HashSet;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const ROUTES: [Route; 4] = [
    Route::Direct,
    Route::ViaNrc,
    Route::Shredded,
    Route::Differential,
];
const MODES: [EvalMode; 2] = [EvalMode::InSemiring, EvalMode::ProvenanceFirst];

/// Queries covering: plain descendant chain (tier-A shredded +
/// memoized direct), union, a branching predicate (tier-B: filters
/// re-solve over maintained edges), and a non-fragment constructor
/// (incremental layer must stay disengaged and errors must match).
const QUERIES: [&str; 4] = [
    "$S//c",
    "($S//c, $S/child::b)",
    "for $x in $S//a return for $y in ($x)/c return ($x)",
    "element r { $S//c }",
];

const BASE: &str =
    "<a {z}> <b {x1}> <a> c {y3} d </a> </b> <c {y1}> <d> <a> c {y2} b {x2} </a> </d> </c> </a>";

/// Deterministic xorshift — tests must not depend on ambient entropy.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// All document-order child-index paths of a forest (non-empty ones
/// address an entry; used to aim random ops).
fn all_paths(f: &Forest<NatPoly>) -> Vec<Vec<usize>> {
    fn walk(f: &Forest<NatPoly>, prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        for (i, (t, _)) in f.iter_document().into_iter().enumerate() {
            prefix.push(i);
            out.push(prefix.clone());
            walk(t.children(), prefix, out);
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    walk(f, &mut Vec::new(), &mut out);
    out
}

fn subtree_at<'a>(f: &'a Forest<NatPoly>, path: &[usize]) -> &'a Tree<NatPoly> {
    let (t, _) = f.iter_document()[path[0]];
    if path.len() == 1 {
        t
    } else {
        subtree_at(t.children(), &path[1..])
    }
}

fn opts(kind: SemiringKind, route: Route, mode: EvalMode) -> EvalOptions {
    let mut o = EvalOptions::new().semiring(kind).route(route);
    o.mode = mode;
    o
}

fn fmt_path(p: &[usize]) -> String {
    let mut s = String::new();
    for seg in p {
        s.push('/');
        s.push_str(&seg.to_string());
    }
    if s.is_empty() {
        s.push('/');
    }
    s
}

const PAYLOADS: [&str; 5] = [
    "<q {x2}> r </q>",
    "c {y1}",
    "<a> c {y2} </a>",
    "<needle> c {w} </needle>",
    "b",
];
const LABELS: [&str; 4] = ["a", "b", "c", "zz"];
const ANNS: [&str; 4] = ["1", "2", "x1", "z+1"];

/// One random single-op script (occasionally empty — a pure version
/// bump), always valid against `doc`.
fn random_script(rng: &mut Rng, doc: &Forest<NatPoly>) -> EditScript {
    let paths = all_paths(doc);
    if paths.is_empty() || rng.pick(10) == 0 {
        if rng.pick(2) == 0 {
            return EditScript::new(); // no-op script
        }
        return EditScript::parse(&format!("insert / {}", PAYLOADS[rng.pick(PAYLOADS.len())]))
            .unwrap();
    }
    let path = &paths[rng.pick(paths.len())];
    let line = match rng.pick(6) {
        0 => format!(
            "splice {} {}",
            fmt_path(path),
            PAYLOADS[rng.pick(PAYLOADS.len())]
        ),
        1 => {
            // Identical-subtree splice: replace a subtree with itself.
            // The delta must be empty and every memo must keep hitting.
            let t = subtree_at(doc, path);
            format!("splice {} {}", fmt_path(path), t)
        }
        2 => format!(
            "relabel {} {}",
            fmt_path(path),
            LABELS[rng.pick(LABELS.len())]
        ),
        3 => {
            let parent = &path[..path.len() - 1];
            format!(
                "insert {} {}",
                fmt_path(parent),
                PAYLOADS[rng.pick(PAYLOADS.len())]
            )
        }
        4 => format!("delete {}", fmt_path(path)),
        _ => format!(
            "reannotate {} {}",
            fmt_path(path),
            ANNS[rng.pick(ANNS.len())]
        ),
    };
    EditScript::parse(&line).unwrap()
}

/// Render an evaluation outcome for byte-wise comparison (errors
/// render too — both engines must fail identically).
fn outcome(engine: &Engine, q: &axml::PreparedQuery, opts: EvalOptions) -> String {
    match q.eval(engine, opts) {
        Ok(v) => format!("ok: {v}"),
        Err(e) => format!("err: {e}"),
    }
}

#[test]
fn random_edits_match_from_scratch_engine_everywhere() {
    let mut rng = Rng(0x9e3779b97f4a7c15);
    let inc = Engine::new();
    inc.load_document("S", BASE).unwrap();
    let inc_queries: Vec<_> = QUERIES.iter().map(|q| inc.prepare(q).unwrap()).collect();

    for round in 0..12 {
        let doc = inc.document("S").unwrap();
        let script = random_script(&mut rng, &doc);
        let stats = inc.edit_document("S", &script).unwrap();
        assert_eq!(stats.version, round + 1);
        assert_eq!(stats.ops_applied, script.ops.len());

        // A from-scratch engine holding the identical final document.
        let fresh = Engine::new();
        fresh.insert_forest("S", (*inc.document("S").unwrap()).clone());
        let fresh_queries: Vec<_> = QUERIES.iter().map(|q| fresh.prepare(q).unwrap()).collect();

        for (qi, src) in QUERIES.iter().enumerate() {
            for kind in SemiringKind::ALL {
                for route in ROUTES {
                    for mode in MODES {
                        let o = opts(kind, route, mode);
                        let a = outcome(&inc, &inc_queries[qi], o);
                        let b = outcome(&fresh, &fresh_queries[qi], o);
                        assert_eq!(
                            a, b,
                            "round {round} query {src:?} kind {kind} route {route} mode {mode}: \
                             incremental engine diverged from from-scratch engine\nscript: {script:?}"
                        );
                    }
                }
            }
        }
    }
    let stats = inc.storage_stats();
    assert_eq!(stats.incr.edits_applied, 12);
    assert!(
        stats.incr.incremental_evals > 0,
        "incremental paths never engaged: {:?}",
        stats.incr
    );
    assert!(
        stats.incr.memo_hits > 0,
        "fingerprint memo never hit across 12 rounds: {:?}",
        stats.incr
    );
}

#[test]
fn concurrent_edits_and_differential_evals() {
    let engine = Arc::new(Engine::new());
    engine.load_document("S", BASE).unwrap();
    engine
        .load_document("T", "<r> <s {w}> a {2} b </s> <t> a {u} </t> </r>")
        .unwrap();
    let qs = Arc::new(vec![
        engine.prepare("$S//c").unwrap(),
        engine.prepare("($S//c, $S/child::b)").unwrap(),
        engine.prepare("$T//a").unwrap(),
    ]);

    let mut handles = Vec::new();
    for tid in 0..8u64 {
        let engine = Arc::clone(&engine);
        let qs = Arc::clone(&qs);
        handles.push(thread::spawn(move || {
            let mut rng = Rng(0xdead_beef ^ (tid + 1));
            for i in 0..40 {
                if tid < 2 {
                    // Editor threads: churn one document each.
                    let name = if tid == 0 { "S" } else { "T" };
                    let doc = engine.document(name).unwrap();
                    let script = random_script(&mut rng, &doc);
                    match engine.edit_document(name, &script) {
                        Ok(_) => {}
                        Err(axml::AxmlError::EditConflict { .. }) => {} // racing replace; fine
                        Err(e) => panic!("edit failed: {e}"),
                    }
                } else {
                    // Evaluator threads: differential re-checks the
                    // incremental evaluators against stateless ones.
                    let q = &qs[rng.pick(qs.len())];
                    let kind = SemiringKind::ALL[(i + tid as usize) % 7];
                    let opts = EvalOptions::new().semiring(kind).route(Route::Differential);
                    q.eval(&engine, opts)
                        .unwrap_or_else(|e| panic!("differential eval failed: {e}"));
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    // Quiesced: the edited engine must agree with a from-scratch one.
    let fresh = Engine::new();
    for name in ["S", "T"] {
        fresh.insert_forest(name, (*engine.document(name).unwrap()).clone());
    }
    for src in ["$S//c", "($S//c, $S/child::b)", "$T//a"] {
        let qa = engine.prepare(src).unwrap();
        let qb = fresh.prepare(src).unwrap();
        for kind in SemiringKind::ALL {
            for route in ROUTES {
                let opts = EvalOptions::new().semiring(kind).route(route);
                assert_eq!(
                    outcome(&engine, &qa, opts),
                    outcome(&fresh, &qb, opts),
                    "{src} in {kind} via {route} after concurrent churn"
                );
            }
        }
    }
}

/// Replacing a document must atomically invalidate everything derived
/// from the old contents — specializations, incremental state,
/// retained fixpoints — while in-flight streaming evaluations keep
/// their pre-replace snapshot.
#[test]
fn replace_drops_all_derived_state() {
    let engine = Engine::new();
    engine.load_document("S", "<a> c {x} </a>").unwrap();
    let q = engine.prepare("$S//c").unwrap();

    // Warm every cache: specializations, memo, retained fixpoint.
    engine.edit_document_text("S", "insert /0 c {y}").unwrap();
    for kind in SemiringKind::ALL {
        for route in ROUTES {
            q.eval(&engine, EvalOptions::new().semiring(kind).route(route))
                .unwrap();
        }
    }

    // Open a cursor on the pre-replace document, then replace.
    let cursor = q
        .eval_stream(&engine, EvalOptions::new().semiring(SemiringKind::Nat))
        .unwrap();
    engine.load_document("S", "<a> c {3} c {4} </a>").unwrap();

    // The in-flight cursor streams the snapshot it was bound to.
    let streamed = cursor.collect_result().unwrap().to_string();
    assert_eq!(streamed, "(c {2})", "cursor must keep its snapshot");

    // Every post-replace evaluation sees only the new contents.
    for kind in SemiringKind::ALL {
        for route in ROUTES {
            for mode in MODES {
                let out = q
                    .eval(&engine, opts(kind, route, mode))
                    .unwrap()
                    .to_string();
                assert!(
                    !out.contains('x') && !out.contains('y'),
                    "stale annotation after replace: {out} ({kind}/{route}/{mode})"
                );
            }
        }
    }
    let nat = q
        .eval(&engine, EvalOptions::new().semiring(SemiringKind::Nat))
        .unwrap()
        .to_string();
    assert_eq!(nat, "(c {7})");

    // Replace resets the edit lineage: the next edit starts at v1.
    let stats = engine.edit_document_text("S", "reannotate /0/0 5").unwrap();
    assert_eq!(stats.version, 1);
}

/// A balanced tree document: `depth` levels below the root, each
/// inner node with `branching` children. Leaves are `c` in the first
/// slot of every parent and `lN` elsewhere. With `unique`, every inner
/// node gets its own label, so no two subtrees are equal; otherwise
/// inner labels depend only on depth and slot, and equal subtrees
/// repeat throughout.
fn balanced_tree(depth: u32, branching: u32, unique: bool) -> Forest<NatPoly> {
    fn build(depth: u32, branching: u32, idx: u32, unique: bool, next: &mut u64) -> Tree<NatPoly> {
        if depth == 0 {
            let label = if idx == 0 {
                "c".into()
            } else {
                format!("l{idx}")
            };
            return Tree::leaf(Label::new(&label));
        }
        let label = if unique {
            *next += 1;
            format!("n{next}")
        } else {
            format!("n{depth}_{idx}")
        };
        let kids = Forest::from_pairs(
            (0..branching).map(|i| (build(depth - 1, branching, i, unique, next), NatPoly::one())),
        );
        Tree::new(Label::new(&label), kids)
    }
    Forest::unit(build(depth, branching, 0, unique, &mut 0))
}

/// An evaluation outcome through `eval_with`, rendered piece by piece.
fn with_outcome(engine: &Engine, q: &axml::PreparedQuery, opts: EvalOptions) -> String {
    match q.eval_with(engine, opts, &[], None) {
        Ok(out) => format!("ok: {:?}", out.pieces()),
        Err(e) => format!("err: {e}"),
    }
}

/// The same outcome through the push path, `eval_each`.
fn each_outcome(engine: &Engine, q: &axml::PreparedQuery, opts: EvalOptions) -> String {
    let mut pieces = Vec::new();
    let out = q.eval_each(engine, opts, &[], None, |p| {
        pieces.push(p.to_piece());
        Ok(())
    });
    match out {
        Ok(None) => format!(
            "ok: {:?}",
            Some(pieces.iter().map(|p| p.as_ref()).collect::<Vec<_>>())
        ),
        Ok(Some(scalar)) => format!("ok: {scalar}"),
        Err(e) => format!("err: {e}"),
    }
}

/// An engine holding `balanced_tree(6, 3)` (1093 nodes) as `S`, edited
/// once so the incremental layer engages.
fn edited_engine() -> Engine {
    let engine = Engine::new();
    engine.insert_forest("S", balanced_tree(6, 3, false));
    engine
        .edit_document_text("S", "reannotate /0/0/0 x")
        .unwrap();
    engine
}

/// `eval_with` and `eval_each` make one memo decision, so every route
/// and budget gives both the same outcome on an edited document — over
/// a cold memo and over a warm one.
#[test]
fn memo_budgets_agree_between_eval_with_and_eval_each() {
    let warm = edited_engine();
    let warm_q = warm.prepare("$S//c").unwrap();
    warm_q.eval(&warm, EvalOptions::new()).unwrap();
    for route in ROUTES {
        for budget in [Some(2), Some(10), Some(100), Some(1000), None] {
            let mut opts = EvalOptions::new().route(route);
            if let Some(nodes) = budget {
                opts = opts.memory_budget(nodes);
            }
            let cold = |outcome: fn(&Engine, &axml::PreparedQuery, EvalOptions) -> String| {
                let engine = edited_engine();
                let q = engine.prepare("$S//c").unwrap();
                outcome(&engine, &q, opts)
            };
            assert_eq!(
                cold(with_outcome),
                cold(each_outcome),
                "cold memo, {route} with budget {budget:?}"
            );
            assert_eq!(
                with_outcome(&warm, &warm_q, opts),
                each_outcome(&warm, &warm_q, opts),
                "warm memo, {route} with budget {budget:?}"
            );
        }
    }
}

/// A cold memo charges the forests it builds: a budget of 2 trips on
/// both entry points.
#[test]
fn a_cold_memo_charges_what_it_builds() {
    for route in [Route::Direct, Route::ViaNrc] {
        let engine = edited_engine();
        let q = engine.prepare("$S//c").unwrap();
        let opts = EvalOptions::new().route(route).memory_budget(2);
        match q.eval(&engine, opts) {
            Err(AxmlError::Budget { resource, .. }) => assert_eq!(resource, BudgetKind::Memory),
            other => panic!("{route}: expected a memory budget error, got {other:?}"),
        }
        assert!(
            engine.storage_stats().incr.memo_misses > 0,
            "{route}: memo never engaged"
        );
        let engine = edited_engine();
        let out = q.eval_each(&engine, opts, &[], None, |_| Ok(()));
        assert!(
            matches!(
                out,
                Err(AxmlError::Budget {
                    resource: BudgetKind::Memory,
                    ..
                })
            ),
            "{route}: eval_each gave {out:?}"
        );
    }
}

/// The deadline holds inside the memo evaluation: a cold memo over an
/// edited document of ~88k distinct subtrees does not finish in 1 ms.
#[test]
fn a_deadline_stops_a_cold_memo() {
    let engine = Engine::new();
    engine.insert_forest("S", balanced_tree(10, 3, true));
    engine
        .edit_document_text("S", "reannotate /0/0/0 x")
        .unwrap();
    let q = engine.prepare("$S//c").unwrap();
    let opts = EvalOptions::new().timeout(Duration::from_millis(1));
    match q.eval(&engine, opts) {
        Err(AxmlError::Budget { resource, .. }) => assert_eq!(resource, BudgetKind::WallClock),
        other => panic!("expected a wall-clock budget error, got {other:?}"),
    }
    // The stop left the memo consistent: an unlimited read is exact.
    let fresh = Engine::new();
    fresh.insert_forest("S", (*engine.document("S").unwrap()).clone());
    let fq = fresh.prepare("$S//c").unwrap();
    assert_eq!(
        outcome(&engine, &q, EvalOptions::new()),
        outcome(&fresh, &fq, EvalOptions::new())
    );
}

/// Distinct subtree values of a forest.
fn distinct_subtrees(f: &Forest<NatPoly>) -> usize {
    let mut seen: HashSet<&Tree<NatPoly>> = HashSet::new();
    let mut stack: Vec<&Tree<NatPoly>> = f.iter().map(|(t, _)| t).collect();
    while let Some(t) = stack.pop() {
        if seen.insert(t) {
            stack.extend(t.children().iter().map(|(c, _)| c));
        }
    }
    seen.len()
}

/// A fresh 21-node subtree (`<pN> …` over four `<qN_i>` parents of four
/// leaves), annotated with a fresh token so its value never repeats.
fn fresh_payload(n: usize) -> String {
    let parents: String = (0..4)
        .map(|i| format!("<q{n}_{i}> c {{t{n}}} l1 l2 l3 </q{n}_{i}> "))
        .collect();
    format!("<p{n}> {parents}</p{n}>")
}

/// Soak: 1000 splices or re-annotations, each followed by direct
/// (through the push path) and via-NRC reads. Every read is
/// byte-identical to a fresh engine's, and the memo stays bounded by
/// the live document instead of growing with the edit history.
#[test]
fn the_memo_stays_bounded_under_a_long_edit_soak() {
    let mut rng = Rng(0x5eed_cafe);
    let engine = Engine::new();
    engine.insert_forest("S", balanced_tree(4, 4, true));
    let q = engine.prepare("$S//c").unwrap();
    let direct = EvalOptions::new().route(Route::Direct);
    let nrc = EvalOptions::new().route(Route::ViaNrc);
    let mut peak = 0;
    for op in 0..1000 {
        // Splices replace a depth-2 subtree (21 nodes) with a fresh one
        // of the same size, so the document keeps its size while every
        // edit retires a spine of values.
        let line = if op % 2 == 0 {
            let at = format!("/0/{}/{}", rng.pick(4), rng.pick(4));
            format!("splice {at} {}", fresh_payload(op))
        } else {
            let doc = engine.document("S").unwrap();
            let paths = all_paths(&doc);
            let at = &paths[rng.pick(paths.len())];
            format!("reannotate {} r{op}", fmt_path(at))
        };
        engine.edit_document_text("S", &line).unwrap();

        let doc = engine.document("S").unwrap();
        let fresh = Engine::new();
        fresh.insert_forest("S", (*doc).clone());
        let fq = fresh.prepare("$S//c").unwrap();
        assert_eq!(
            each_outcome(&engine, &q, direct),
            each_outcome(&fresh, &fq, direct),
            "op {op} ({line}): direct read diverged"
        );
        assert_eq!(
            with_outcome(&engine, &q, nrc),
            with_outcome(&fresh, &fq, nrc),
            "op {op} ({line}): via-NRC read diverged"
        );

        let entries = engine.storage_stats().incr.memo_entries;
        let bound = 2 * distinct_subtrees(&doc) as u64 + 64;
        assert!(
            entries <= bound,
            "op {op}: {entries} memo entries over the bound {bound}"
        );
        peak = peak.max(entries);
    }
    let stats = engine.storage_stats().incr;
    assert!(stats.memo_hits > 0, "{stats:?}");
    assert!(peak > 0, "the memo never stored anything");

    // Replacing the document frees its memos from the gauge.
    engine.insert_forest("S", balanced_tree(1, 2, true));
    assert_eq!(engine.storage_stats().incr.memo_entries, 0);
}

/// A filtered query's shredded read at an unchanged version is served
/// from the decoded result kept for that version: a repeat read under a
/// memory budget just above the result's size succeeds (a re-solve
/// would charge every derived tuple and trip it), and the bytes match
/// a fresh engine's before and after one more edit.
#[test]
fn a_repeat_filtered_shredded_read_is_served_at_its_version() {
    const FILTERED: &str = "for $x in $S//n1_0 return for $y in ($x)/c return ($x)";
    let engine = edited_engine();
    let q = engine.prepare(FILTERED).unwrap();
    let opts = EvalOptions::new()
        .semiring(SemiringKind::Nat)
        .route(Route::Shredded);
    let first = q.eval(&engine, opts).unwrap();
    let size = first
        .as_nat()
        .and_then(|v| v.as_set())
        .expect("a forest result")
        .size();
    assert!(size > 0, "the query matches");
    let repeat = q.eval(&engine, opts.memory_budget(size + 4));
    assert_eq!(
        repeat.as_ref().map(|r| r.to_string()),
        Ok(first.to_string()),
        "the repeat read re-solved"
    );
    let fresh_outcome = |engine: &Engine| {
        let fresh = Engine::new();
        fresh.insert_forest("S", (*engine.document("S").unwrap()).clone());
        outcome(&fresh, &fresh.prepare(FILTERED).unwrap(), opts)
    };
    assert_eq!(outcome(&engine, &q, opts), fresh_outcome(&engine));
    engine
        .edit_document_text("S", "splice /0/0/0/0/0 <n1_0> c {q} <l1/> </n1_0>")
        .unwrap();
    assert_eq!(outcome(&engine, &q, opts), fresh_outcome(&engine));
    assert_eq!(outcome(&engine, &q, opts), fresh_outcome(&engine));
}

/// A never-edited document keeps its shredded views too: the first
/// shredded read shreds the stored version once, and a repeat read at
/// version 0 clones the kept result. The repeat counts as an
/// incremental eval, fits a memory budget just above the result's size
/// (a re-solve would charge every derived tuple and trip it), and is
/// byte-identical to a fresh engine's read and to the direct route.
#[test]
fn a_repeat_shredded_read_of_an_unedited_document_is_kept() {
    const PATH_QUERIES: [&str; 2] = [
        "$S//c",
        "for $x in $S//a return for $y in ($x)/c return ($x)",
    ];
    for src in PATH_QUERIES {
        for kind in SemiringKind::ALL {
            let engine = Engine::new();
            engine.load_document("S", BASE).unwrap();
            let q = engine.prepare(src).unwrap();
            let o = opts(kind, Route::Shredded, EvalMode::InSemiring);
            let at = format!("{src} in {kind}");
            // The ℕ[X] result bounds every kind's: specializing only
            // merges trees.
            let symbolic = opts(SemiringKind::NatPoly, Route::Direct, EvalMode::InSemiring);
            let size = q
                .eval(&engine, symbolic)
                .unwrap()
                .as_natpoly()
                .and_then(|v| v.as_set())
                .expect("a forest result")
                .size();
            let budget = o.memory_budget(size + 4);
            let first = q.eval(&engine, o).unwrap();
            let evals = engine.storage_stats().incr.incremental_evals;
            let repeat = q.eval(&engine, budget);
            assert_eq!(
                repeat.as_ref().map(|r| r.to_string()),
                Ok(first.to_string()),
                "{at}: the repeat read re-solved"
            );
            let stats = engine.storage_stats().incr;
            assert_eq!(stats.incremental_evals, evals + 1, "{at}");
            assert_eq!(stats.edits_applied, 0, "{at}");

            let fresh = Engine::new();
            fresh.load_document("S", BASE).unwrap();
            let fq = fresh.prepare(src).unwrap();
            assert!(
                matches!(fq.eval(&fresh, budget), Err(AxmlError::Budget { .. })),
                "{at}: the budget does not tell a solve from a clone"
            );
            assert_eq!(outcome(&fresh, &fq, o), outcome(&engine, &q, o), "{at}");
            let direct = opts(kind, Route::Direct, EvalMode::InSemiring);
            assert_eq!(
                outcome(&fresh, &fq, direct),
                outcome(&engine, &q, o),
                "{at}"
            );
        }
    }
}
