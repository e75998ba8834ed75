//! Compile-once execution plans for core K-UXQuery (the direct route).
//!
//! [`crate::eval`] is the reference tree-walking interpreter: it
//! re-walks the typed [`Query`] per call and probes a name-keyed
//! environment per variable occurrence. This module lowers an
//! elaborated query **once** into a [`CompiledQuery`]:
//!
//! - every variable occurrence is resolved at compile time to a
//!   numeric frame slot (the environment becomes a plain
//!   `Vec<Value<K>>`, read by index — no string comparisons);
//! - navigation steps keep their interned [`crate::ast::Step`] and run
//!   through the same [`crate::eval::eval_step`] kernel as the
//!   interpreter, whose
//!   descendant sweep is driven on an explicit stack.
//!
//! The interpreter stays the differential reference: compiled and
//! interpreted evaluation are property-tested to agree, including on
//! ill-shaped bindings where both must error with the same message.

use crate::ast::{Axis, NodeTest, Query, QueryNode, Step};
use crate::eval::{eval_step_ctx, EvalError};
use axml_nrc::compile::SlotScope;
use axml_semiring::Semiring;
use axml_uxml::{
    coalesce_document, Exec, Forest, Label, ResultSink, StreamError, Streamed, Tree, Value,
};
use std::fmt;

/// A reusable execution plan for one elaborated core query. Build
/// with [`CompiledQuery::compile`], evaluate with
/// [`CompiledQuery::eval`] (into a sink). Immutable and `Send + Sync`.
#[derive(Clone, Debug)]
pub struct CompiledQuery<K: Semiring> {
    /// Free variables in slot order: slot `i` binds `free[i]`.
    free: Vec<String>,
    /// Deepest frame-stack size any program point needs.
    max_slots: usize,
    op: QOp<K>,
}

/// One plan node — [`QueryNode`] with names resolved to slots.
#[derive(Clone, Debug)]
enum QOp<K: Semiring> {
    LabelLit(Label),
    Slot(u32),
    Empty,
    Singleton(Box<QOp<K>>),
    Union(Box<QOp<K>>, Box<QOp<K>>),
    /// `for $_ in source return body` — pushes one slot per element.
    For {
        source: Box<QOp<K>>,
        body: Box<QOp<K>>,
    },
    Let {
        def: Box<QOp<K>>,
        body: Box<QOp<K>>,
    },
    If {
        l: Box<QOp<K>>,
        r: Box<QOp<K>>,
        then: Box<QOp<K>>,
        els: Box<QOp<K>>,
    },
    Element {
        name: Box<QOp<K>>,
        content: Box<QOp<K>>,
    },
    Name(Box<QOp<K>>),
    Annot(K, Box<QOp<K>>),
    Path(Box<QOp<K>>, Step),
}

impl<K: Semiring> CompiledQuery<K> {
    /// Lower an elaborated query into a reusable plan. Never fails:
    /// ill-shaped bindings error (not panic) at evaluation, exactly
    /// like the interpreter.
    pub fn compile(q: &Query<K>) -> Self {
        let free: Vec<String> = free_query_vars(q);
        let mut lo = SlotScope::seeded(&free);
        let op = lower(q, &mut lo);
        CompiledQuery {
            free,
            max_slots: lo.max_slots(),
            op,
        }
    }

    /// The free variables the plan expects bound, in slot order
    /// (sorted by name).
    pub fn free_vars(&self) -> &[String] {
        &self.free
    }

    /// Evaluate with each free variable bound to a value — the plan's
    /// one entry point; materialized evaluation runs it into a
    /// [`axml_uxml::CollectSink`]. Unused inputs are ignored; a missing
    /// input errors lazily, only if read, like the interpreter.
    ///
    /// Root shapes whose pieces are final as soon as they are produced
    /// push them into `sink` in document order: a self-axis filter
    /// scans its input that way, and a child step over several roots
    /// gathers the scaled children, sorts them once and sums equal
    /// neighbours ([`coalesce_document`]). A child step over a single
    /// root tree (the `$S/*` paging shape) comes back as
    /// [`Streamed::Children`], since that tree's child K-set and its
    /// cached document order already exist, and every other root as
    /// [`Streamed::Whole`].
    ///
    /// `x` carries the call's execution state. With a non-sequential
    /// context, big `for` loops and descendant sweeps over large
    /// documents are chunked onto the context's pool (see
    /// [`crate::eval::eval_step_ctx`]). Each set-producing plan op
    /// charges its output's logical node count against the budget,
    /// and each pushed piece its own where no op charged it, then
    /// checks the deadline; a trip errors with [`EvalError::budget`]
    /// naming that op. `Exec::default()` is the sequential, unlimited
    /// path.
    pub fn eval(
        &self,
        inputs: &[(&str, Value<K>)],
        x: &Exec<'_>,
        sink: &mut dyn ResultSink<K>,
    ) -> Result<Streamed<K>, StreamError<EvalError>> {
        let mut env = self.seed_env(inputs);
        let eval = StreamError::Eval;
        match &self.op {
            QOp::Path(inner, step) if step.axis == Axis::SelfAxis => {
                // `self::t` keeps a subset of the input set with
                // annotations untouched: scanning the input in
                // document order emits exactly the materialized
                // result's `iter_document` sequence.
                let f = eval_qset(inner, &mut env, x).map_err(eval)?;
                for (t, k) in f.iter_document() {
                    if test_matches(step.test, t.label()) {
                        emit(x, &self.op, sink, t, k, t.size())?;
                    }
                }
                Ok(Streamed::Set)
            }
            QOp::Path(inner, step) if step.axis == Axis::Child => {
                let f = eval_qset(inner, &mut env, x).map_err(eval)?;
                if f.len() == 1 {
                    // One root tree: its child K-set and its cached
                    // document order both exist already, so the step
                    // comes back as it is, uncharged — the caller
                    // pushes (and charges) the pieces in that order, or
                    // clones (and charges) the K-set.
                    let (t, k) = f.iter().next().expect("len checked");
                    let label = match step.test {
                        NodeTest::Wildcard => None,
                        NodeTest::Label(l) => Some(l),
                    };
                    Ok(Streamed::Children {
                        parent: t.clone(),
                        scale: k.clone(),
                        label,
                    })
                } else {
                    // Children of different roots can interleave and
                    // merge. Gather `(child, k·kc)` in the order the
                    // step kernel's `bind` absorbs them (roots in K-set
                    // order), then sort once and fold equal neighbours
                    // — the materialized K-set's sums and document
                    // order, without building it. Each piece is
                    // charged here, in place of the path op's charge.
                    let mut kids: Vec<(&Tree<K>, K)> = Vec::new();
                    for (t, k) in f.iter() {
                        for (c, kc) in t.children().iter() {
                            if test_matches(step.test, c.label()) {
                                let ann = if k.is_one() { kc.clone() } else { k.times(kc) };
                                kids.push((c, ann));
                            }
                        }
                    }
                    for (c, ann) in coalesce_document(kids) {
                        emit(x, &self.op, sink, c, &ann, c.size())?;
                    }
                    Ok(Streamed::Set)
                }
            }
            op => Ok(Streamed::Whole(eval_qop(op, &mut env, x).map_err(eval)?)),
        }
    }

    fn seed_env(&self, inputs: &[(&str, Value<K>)]) -> Vec<SlotVal<K>> {
        let mut env: Vec<SlotVal<K>> = Vec::with_capacity(self.max_slots);
        for name in &self.free {
            env.push(match inputs.iter().find(|(n, _)| *n == name) {
                Some((_, v)) => SlotVal::Bound(v.clone()),
                None => SlotVal::Unbound(name.clone()),
            });
        }
        env
    }
}

/// Does a node test accept this label?
fn test_matches(test: NodeTest, l: Label) -> bool {
    match test {
        NodeTest::Wildcard => true,
        NodeTest::Label(want) => l == want,
    }
}

/// Push one piece, charging `nodes` against the budget (and checking
/// the deadline) first: a streamed piece is "produced" the moment it
/// is emitted.
fn emit<K: Semiring>(
    x: &Exec<'_>,
    op: &QOp<K>,
    sink: &mut dyn ResultSink<K>,
    t: &Tree<K>,
    k: &K,
    nodes: usize,
) -> Result<(), StreamError<EvalError>> {
    charge(x, nodes, op).map_err(StreamError::Eval)?;
    sink.piece(t, k)?;
    Ok(())
}

/// One frame slot: a value, or — for a free variable the caller did
/// not supply — a sentinel that errors lazily on first read.
#[derive(Clone, Debug)]
enum SlotVal<K: Semiring> {
    Bound(Value<K>),
    Unbound(String),
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// Free variables of an elaborated query, sorted (slot seed order).
fn free_query_vars<K: Semiring>(q: &Query<K>) -> Vec<String> {
    fn walk<K: Semiring>(
        q: &Query<K>,
        bound: &mut Vec<String>,
        out: &mut std::collections::BTreeSet<String>,
    ) {
        match &q.node {
            QueryNode::LabelLit(_) | QueryNode::Empty => {}
            QueryNode::Var(x) => {
                if !bound.iter().any(|b| b == x) {
                    out.insert(x.clone());
                }
            }
            QueryNode::Singleton(a) | QueryNode::Name(a) | QueryNode::Annot(_, a) => {
                walk(a, bound, out)
            }
            QueryNode::Path(a, _) => walk(a, bound, out),
            QueryNode::Union(a, b) => {
                walk(a, bound, out);
                walk(b, bound, out);
            }
            QueryNode::For { var, source, body }
            | QueryNode::Let {
                var,
                def: source,
                body,
            } => {
                walk(source, bound, out);
                bound.push(var.clone());
                walk(body, bound, out);
                bound.pop();
            }
            QueryNode::If { l, r, then, els } => {
                walk(l, bound, out);
                walk(r, bound, out);
                walk(then, bound, out);
                walk(els, bound, out);
            }
            QueryNode::Element { name, content } => {
                walk(name, bound, out);
                walk(content, bound, out);
            }
        }
    }
    let mut out = std::collections::BTreeSet::new();
    walk(q, &mut Vec::new(), &mut out);
    out.into_iter().collect()
}

fn lower<K: Semiring>(q: &Query<K>, lo: &mut SlotScope) -> QOp<K> {
    match &q.node {
        QueryNode::LabelLit(l) => QOp::LabelLit(*l),
        QueryNode::Var(x) => QOp::Slot(lo.slot(x)),
        QueryNode::Empty => QOp::Empty,
        QueryNode::Singleton(a) => QOp::Singleton(Box::new(lower(a, lo))),
        QueryNode::Union(a, b) => QOp::Union(Box::new(lower(a, lo)), Box::new(lower(b, lo))),
        QueryNode::For { var, source, body } => {
            let source = lower(source, lo);
            lo.push(var);
            let body = lower(body, lo);
            lo.pop();
            QOp::For {
                source: Box::new(source),
                body: Box::new(body),
            }
        }
        QueryNode::Let { var, def, body } => {
            let def = lower(def, lo);
            lo.push(var);
            let body = lower(body, lo);
            lo.pop();
            QOp::Let {
                def: Box::new(def),
                body: Box::new(body),
            }
        }
        QueryNode::If { l, r, then, els } => QOp::If {
            l: Box::new(lower(l, lo)),
            r: Box::new(lower(r, lo)),
            then: Box::new(lower(then, lo)),
            els: Box::new(lower(els, lo)),
        },
        QueryNode::Element { name, content } => QOp::Element {
            name: Box::new(lower(name, lo)),
            content: Box::new(lower(content, lo)),
        },
        QueryNode::Name(a) => QOp::Name(Box::new(lower(a, lo))),
        QueryNode::Annot(k, a) => QOp::Annot(k.clone(), Box::new(lower(a, lo))),
        QueryNode::Path(a, step) => QOp::Path(Box::new(lower(a, lo)), *step),
    }
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

fn err<T, K: Semiring>(op: &QOp<K>, msg: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError {
        msg: msg.into(),
        at: op.to_string(),
        budget: None,
    })
}

/// Charge `nodes` against the budget, then check the deadline (see
/// [`Exec::charge`]); a trip becomes [`EvalError::budget`] naming the
/// op that observed it.
fn charge<K: Semiring>(x: &Exec<'_>, nodes: usize, op: &QOp<K>) -> Result<(), EvalError> {
    x.charge(nodes)
        .map_err(|kind| EvalError::budget(kind, op.to_string()))
}

fn eval_qop<K: Semiring>(
    op: &QOp<K>,
    env: &mut Vec<SlotVal<K>>,
    x: &Exec<'_>,
) -> Result<Value<K>, EvalError> {
    match op {
        QOp::LabelLit(l) => Ok(Value::Label(*l)),
        QOp::Slot(i) => match &env[*i as usize] {
            SlotVal::Bound(v) => Ok(v.clone()),
            SlotVal::Unbound(name) => err(op, format!("unbound variable ${name}")),
        },
        QOp::Empty => Ok(Value::Set(Forest::new())),
        QOp::Singleton(inner) => {
            let v = eval_qop(inner, env, x)?;
            match v {
                Value::Tree(t) => Ok(Value::Set(Forest::unit(t))),
                Value::Label(l) => Ok(Value::Set(Forest::unit(Tree::leaf(l)))),
                Value::Set(_) => err(op, "singleton of a set (elaboration bug)"),
            }
        }
        QOp::Union(a, b) => {
            let mut va = eval_qset(a, env, x)?;
            let vb = eval_qset(b, env, x)?;
            va.union_with(vb);
            charge(x, va.size(), op)?;
            Ok(Value::Set(va))
        }
        QOp::For { source, body } => {
            let src = eval_qset(source, env, x)?;
            if let Some(c) = x.parallel() {
                if src.len() >= PAR_FOR_MIN_BINDERS {
                    return par_for(&src, body, env, c, x);
                }
            }
            let mut out = Forest::new();
            for (t, k) in src.iter() {
                env.push(SlotVal::Bound(Value::Tree(t.clone())));
                let inner = eval_qset(body, env, x);
                env.pop();
                let f = inner?;
                charge(x, f.size(), op)?;
                out.extend_scaled(f, k);
            }
            Ok(Value::Set(out))
        }
        QOp::Let { def, body } => {
            let vd = eval_qop(def, env, x)?;
            env.push(SlotVal::Bound(vd));
            let out = eval_qop(body, env, x);
            env.pop();
            out
        }
        QOp::If { l, r, then, els } => {
            let vl = eval_qop(l, env, x)?;
            let vr = eval_qop(r, env, x)?;
            match (vl.as_label(), vr.as_label()) {
                (Some(a), Some(b)) => {
                    if a == b {
                        eval_qop(then, env, x)
                    } else {
                        eval_qop(els, env, x)
                    }
                }
                _ => err(op, "if compares non-labels"),
            }
        }
        QOp::Element { name, content } => {
            let vn = eval_qop(name, env, x)?;
            let Some(l) = vn.as_label() else {
                return err(op, "element name is not a label");
            };
            let vc = eval_qset(content, env, x)?;
            charge(x, vc.size() + 1, op)?;
            Ok(Value::Tree(Tree::new(l, vc)))
        }
        QOp::Name(inner) => {
            let v = eval_qop(inner, env, x)?;
            match v.as_tree() {
                Some(t) => Ok(Value::Label(t.label())),
                None => err(op, "name() of a non-tree"),
            }
        }
        QOp::Annot(k, inner) => {
            let mut f = eval_qset(inner, env, x)?;
            f.scalar_mul_in_place(k);
            Ok(Value::Set(f))
        }
        QOp::Path(inner, step) => {
            let f = eval_qset(inner, env, x)?;
            let out = eval_step_ctx(&f, *step, x.ctx);
            charge(x, out.size(), op)?;
            Ok(Value::Set(out))
        }
    }
}

/// Below this many binder elements a `for` loop stays sequential: the
/// per-chunk environment clone and the merge would dominate. (Each
/// binder element runs the whole body, so the useful-work-per-element
/// bar is much lower than a sweep's [`crate::eval::PAR_SWEEP_MIN_NODES`].)
pub const PAR_FOR_MIN_BINDERS: usize = 64;

/// The big-union `for` over the context's pool: binder elements are
/// chunked in K-set order, each chunk evaluates the body against its
/// own clone of the frame stack (slots below the binder are read-only
/// during the loop, so a clone-per-chunk is exact), and the partial
/// forests tree-reduce through the shared K-set parallel union.
///
/// Error semantics match the sequential loop observably: chunks
/// preserve element order and each chunk stops at its first error, so
/// the first `Err` in chunk order *is* the error the sequential loop
/// would have hit first. Inside a chunk the body runs without a
/// context (the pool's workers are already saturated by the outer
/// loop; nesting pool scopes inside workers is not supported).
fn par_for<K: Semiring>(
    src: &Forest<K>,
    body: &QOp<K>,
    env: &mut [SlotVal<K>],
    c: &axml_pool::ExecCtx<'_>,
    x: &Exec<'_>,
) -> Result<Value<K>, EvalError> {
    let items: Vec<(Tree<K>, K)> = src.iter().map(|(t, k)| (t.clone(), k.clone())).collect();
    let target = 2 * c.degree();
    let frame: &[SlotVal<K>] = env;
    let chunk_results: Vec<Result<Forest<K>, EvalError>> =
        c.pool.map_chunks(&items, target, |chunk| {
            // `NodeBudget` is shared atomics, so parallel chunks all
            // charge the caller's counter; ties in who observes the
            // trip are fine (any chunk's trip fails the whole loop).
            let x = Exec { ctx: None, ..*x };
            let mut local_env = frame.to_vec();
            let mut out = Forest::new();
            for (t, k) in chunk {
                local_env.push(SlotVal::Bound(Value::Tree(t.clone())));
                let inner = eval_qset(body, &mut local_env, &x);
                local_env.pop();
                let f = inner?;
                charge(&x, f.size(), body)?;
                out.extend_scaled(f, k);
            }
            Ok(out)
        });
    let mut partials = Vec::with_capacity(chunk_results.len());
    for r in chunk_results {
        partials.push(r?.into_kset());
    }
    Ok(Value::Set(Forest::from_kset(axml_semiring::par_union_all(
        c.pool, c.par, partials,
    ))))
}

fn eval_qset<K: Semiring>(
    op: &QOp<K>,
    env: &mut Vec<SlotVal<K>>,
    x: &Exec<'_>,
) -> Result<Forest<K>, EvalError> {
    match eval_qop(op, env, x)? {
        Value::Set(f) => Ok(f),
        other => err(op, format!("expected a set, got {other}")),
    }
}

impl<K: Semiring> fmt::Display for QOp<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QOp::LabelLit(l) => write!(f, "{l}"),
            QOp::Slot(i) => write!(f, "$_{i}"),
            QOp::Empty => write!(f, "()"),
            QOp::Singleton(q) => write!(f, "({q})"),
            QOp::Union(a, b) => write!(f, "{a}, {b}"),
            QOp::For { source, body } => write!(f, "for $_ in {source} return {body}"),
            QOp::Let { def, body } => write!(f, "let $_ := {def} return {body}"),
            QOp::If { l, r, then, els } => {
                write!(f, "if ({l} = {r}) then {then} else {els}")
            }
            QOp::Element { name, content } => write!(f, "element {name} {{{content}}}"),
            QOp::Name(q) => write!(f, "name({q})"),
            QOp::Annot(_, q) => write!(f, "annot {q}"),
            QOp::Path(q, s) => write!(f, "{q}/{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_with, QueryEnv};
    use crate::parse::parse_query;
    use crate::typecheck::elaborate;
    use axml_semiring::{Nat, NatPoly};
    use axml_uxml::{parse_forest, CollectSink};

    /// The plan's value, collected from its one entry point.
    fn run<K: Semiring>(
        p: &CompiledQuery<K>,
        inputs: &[(&str, Value<K>)],
    ) -> Result<Value<K>, EvalError> {
        CollectSink::collect(|s| p.eval(inputs, &Exec::default(), s))
    }

    fn plan(src: &str) -> CompiledQuery<NatPoly> {
        let s = parse_query::<NatPoly>(src).unwrap();
        let q = elaborate(&s).unwrap();
        CompiledQuery::compile(&q)
    }

    #[test]
    fn compiled_matches_interpreted_on_examples() {
        let src = parse_forest::<NatPoly>(
            "<a {z}> <b {x1}> d {y1} c </b> <c {x2}> d {y2} e {y3} </c> </a>",
        )
        .unwrap();
        for qsrc in [
            "element p { $S/*/* }",
            "element r { $S//c }",
            "$S/child::c",
            "$S/self::a",
            "for $t in $S return for $x in ($t)/* return if (name($x) = b) then ($x)/* else ()",
            "annot {7} ($S/*)",
            "let $x := element a {()} return if (name($x) = a) then ($x) else ()",
            "for $x in $S return for $x in ($x)/* return ($x)",
        ] {
            let s = parse_query::<NatPoly>(qsrc).unwrap();
            let q = elaborate(&s).unwrap();
            let interpreted = eval_with(&q, &[("S", Value::Set(src.clone()))]).unwrap();
            let compiled = run(
                &CompiledQuery::compile(&q),
                &[("S", Value::Set(src.clone()))],
            )
            .unwrap();
            assert_eq!(interpreted, compiled, "disagree on {qsrc}");
        }
    }

    #[test]
    fn free_vars_are_slot_order() {
        let p = plan("for $x in $S return ($x, $T/b)");
        assert_eq!(p.free_vars(), ["S", "T"]);
    }

    #[test]
    fn missing_input_errors_like_interpreter() {
        let p = plan("$missing_binding");
        let ce = run(&p, &[]).unwrap_err();
        let s = parse_query::<NatPoly>("$missing_binding").unwrap();
        let q = elaborate(&s).unwrap();
        let ie = {
            let mut env = QueryEnv::new();
            crate::eval::eval_core(&q, &mut env).unwrap_err()
        };
        assert_eq!(ce.msg, ie.msg);
    }

    #[test]
    fn ill_shaped_bindings_error_identically() {
        // name() of a set: both evaluators must error with one msg.
        let s = parse_query::<Nat>("name($S)").unwrap();
        // `name($S)` does not elaborate (type error), so build the
        // runtime mismatch instead: a set bound where a tree flows in.
        let _ = s;
        let q = elaborate(&parse_query::<Nat>("for $x in $S return ($x)/b").unwrap()).unwrap();
        let bad = Value::Label(Label::new("oops"));
        let interpreted = eval_with(&q, &[("S", bad.clone())]).unwrap_err();
        let compiled = run(&CompiledQuery::compile(&q), &[("S", bad)]).unwrap_err();
        assert_eq!(interpreted.msg, compiled.msg);
    }
}
