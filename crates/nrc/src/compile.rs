//! Compile-once execution plans for `NRC_K + srt`.
//!
//! [`crate::eval()`] is a tree-walking interpreter: every evaluation
//! re-walks the [`Expr`], probes the environment by name, and
//! allocates per binding. This module lowers an expression **once**
//! into a [`CompiledExpr`] that can be evaluated many times:
//!
//! - **Slot resolution** (de Bruijn-style): every variable occurrence
//!   is resolved at compile time to a numeric index into a flat
//!   `Vec`-backed frame stack. Because evaluation is structural, the
//!   stack depth at each program point is statically known, so an
//!   occurrence compiles to `Op::Slot(i)` — one bounds-checked array
//!   read at runtime, no string comparison, no allocation.
//! - **Pre-resolved label tests**: the ubiquitous compiler output
//!   `∪(x ∈ e) if tag(x) = l then {x} else {}` is fused into a single
//!   `filter-label` op that scans the set once against an interned
//!   [`Label`] id, and `∪(x ∈ e) kids(x)` into `kids-flat`.
//! - **Fused structural recursion**: the §6.3 `descendant::*` term —
//!   `π1((srt(b, s). let w = Tree(b, ∪(u ∈ s) {π2(u)}) in
//!   ((∪(v ∈ s) π1(v)) ∪ {w}, w)) e)` — is recognized (up to binder
//!   names) and compiled to a `descendants` op: a single
//!   annotation-product sweep that never rebuilds the tree.
//! - **Iterative driving**: generic `srt` and the fused descendant
//!   sweep run on an explicit stack, so arbitrarily deep documents
//!   cannot overflow the Rust stack. (The remaining recursion in
//!   [`CompiledExpr::eval`] is over the *plan*, whose depth is fixed
//!   at compile time.)
//!
//! The interpreter in [`crate::eval()`] stays the differential
//! reference: compiled and interpreted evaluation are property-tested
//! to agree — including on ill-typed values, where both must produce
//! an [`EvalError`] with the same message rather than panic.

use crate::eval::EvalError;
use crate::expr::{Expr, Name};
use crate::value::CValue;
use axml_semiring::{KSet, Semiring};
use axml_uxml::{
    coalesce_document, sort_document, weighted_descendant_closure, Exec, Forest, Label, ResultSink,
    StreamError, Streamed, Tree,
};
use std::fmt;

/// Below this many document nodes a descendant sweep stays
/// sequential — splitting, scheduling and merging would cost more
/// than the sweep itself. Shared by both compiled routes (`axml-core`
/// re-exports this constant), so they always parallelize the same
/// workloads.
pub const PAR_SWEEP_MIN_NODES: usize = 1024;

/// A reusable execution plan for one `NRC_K + srt` expression.
///
/// Build with [`CompiledExpr::compile`]; evaluate with
/// [`CompiledExpr::eval`] / [`CompiledExpr::eval_with_forests`]. The
/// plan is immutable and `Send + Sync` (share it freely across
/// threads).
#[derive(Clone, Debug)]
pub struct CompiledExpr<K: Semiring> {
    /// The free variables, in slot order: slot `i` holds the value of
    /// `free[i]` at evaluation entry.
    free: Vec<Name>,
    /// Deepest frame-stack size any program point needs (free
    /// variables + enclosing binders), for exact preallocation.
    max_slots: usize,
    op: Op<K>,
}

/// One plan node. Mirrors [`Expr`] with names resolved to slots and
/// the hot compiler-output shapes fused.
#[derive(Clone, Debug)]
enum Op<K: Semiring> {
    Label(Label),
    /// A variable occurrence, resolved to a frame slot.
    Slot(u32),
    Let {
        def: Box<Op<K>>,
        body: Box<Op<K>>,
    },
    Pair(Box<Op<K>>, Box<Op<K>>),
    Proj1(Box<Op<K>>),
    Proj2(Box<Op<K>>),
    Empty,
    Singleton(Box<Op<K>>),
    Union(Box<Op<K>>, Box<Op<K>>),
    /// `∪(_ ∈ source) body` — pushes one slot around each body run.
    BigUnion {
        source: Box<Op<K>>,
        body: Box<Op<K>>,
    },
    IfEq {
        l: Box<Op<K>>,
        r: Box<Op<K>>,
        then: Box<Op<K>>,
        els: Box<Op<K>>,
    },
    Scalar {
        k: K,
        body: Box<Op<K>>,
    },
    Tree(Box<Op<K>>, Box<Op<K>>),
    Tag(Box<Op<K>>),
    Kids(Box<Op<K>>),
    /// Generic `(srt(_, _). body) target` — pushes two slots (label,
    /// recursive K-set) per node, driven bottom-up on an explicit
    /// stack.
    Srt {
        body: Box<Op<K>>,
        target: Box<Op<K>>,
    },
    /// Fused `∪(x ∈ source) if tag(x) = label then {x} else {}`.
    FilterLabel {
        source: Box<Op<K>>,
        label: Label,
    },
    /// Fused `∪(x ∈ source) kids(x)`.
    KidsFlat(Box<Op<K>>),
    /// Fused `π1((srt …descendant body…) target)`: the K-set of all
    /// subtrees of `target` (including itself), each annotated with
    /// the sum over occurrences of the path annotation product.
    Descendants(Box<Op<K>>),
}

impl<K: Semiring> CompiledExpr<K> {
    /// Lower `e` into a reusable plan. Never fails: ill-typed
    /// expressions compile and then error (not panic) at evaluation,
    /// exactly like the interpreter.
    pub fn compile(e: &Expr<K>) -> Self {
        let free: Vec<Name> = e.free_vars().into_iter().collect();
        let mut lo = SlotScope::seeded(&free);
        let op = lower(e, &mut lo);
        CompiledExpr {
            free,
            max_slots: lo.max_slots(),
            op,
        }
    }

    /// The free variables the plan expects bound, in slot order
    /// (sorted by name).
    pub fn free_vars(&self) -> &[Name] {
        &self.free
    }

    /// Evaluate with each free variable bound to a complex value.
    /// Unused inputs are ignored; a missing input errors like the
    /// interpreter's unbound-variable case.
    pub fn eval(&self, inputs: &[(&str, CValue<K>)]) -> Result<CValue<K>, EvalError> {
        let mut env = self.seed_env(|name| {
            inputs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
        });
        eval_op(&self.op, &mut env, &Exec::default())
    }

    /// Evaluate with each free variable bound to a `{tree}` value —
    /// the common entry point for compiled UXQuery programs.
    ///
    /// `x` carries the call's execution state. With a non-sequential
    /// context the fused descendant sweep over a large document is
    /// split into top-level subtree chunks, swept on the context's
    /// pool, and merged in place — identical results. Every
    /// set-producing op charges its output's logical node count
    /// against the budget and then checks the deadline; a trip errors
    /// with [`EvalError::budget`] naming that op. `Exec::default()` is
    /// the sequential, unlimited path.
    pub fn eval_with_forests(
        &self,
        inputs: &[(&str, &Forest<K>)],
        x: &Exec<'_>,
    ) -> Result<CValue<K>, EvalError> {
        let mut env = self.forest_env(inputs);
        eval_op(&self.op, &mut env, x)
    }

    /// Evaluate with pieces of a set-shaped top-level result pushed
    /// into `sink` **as they are produced**, in final document order.
    ///
    /// Root plan shapes whose per-piece finality is provable stream
    /// incrementally — a bare input slot, a fused `filter-label` (a
    /// subset of its source with annotations untouched), or a fused
    /// `kids-flat` over a single root tree (one tree's children are
    /// distinct and pre-sorted; each scaled child is final the moment
    /// it is scanned). A `kids-flat` over several roots gathers the
    /// scaled children, sorts them once and sums equal neighbours
    /// ([`coalesce_document`]) instead of building the K-set. Every
    /// other root shape materializes and then emits — the sink sees
    /// identical pieces in identical order either way. Non-set results
    /// come back whole as [`Streamed::Scalar`]. Every node is charged
    /// against `x` exactly once, as in the materializing entry points:
    /// a piece is charged when it is emitted only where no op charged
    /// it already, and every emission checks the deadline.
    pub fn eval_stream_with_forests(
        &self,
        inputs: &[(&str, &Forest<K>)],
        x: &Exec<'_>,
        sink: &mut dyn ResultSink<K>,
    ) -> Result<Streamed<K>, StreamError<EvalError>> {
        let mut env = self.forest_env(inputs);
        let eval = StreamError::Eval;
        match &self.op {
            Op::Slot(i) => match &env[*i as usize] {
                // An input is never charged: it was not produced.
                SlotVal::Bound(CValue::Set(s)) => emit_cset(x, &self.op, sink, s),
                SlotVal::Bound(v) => match v.to_uxml() {
                    Some(scalar) => Ok(Streamed::Scalar(scalar)),
                    None => err(&self.op, "top-level result is not a K-UXML value").map_err(eval),
                },
                SlotVal::Unbound(name) => {
                    err(&self.op, format!("unbound variable `{name}`")).map_err(eval)
                }
            },
            Op::FilterLabel { source, label } => {
                let vs = eval_op(source, &mut env, x).map_err(eval)?;
                let CValue::Set(s) = vs else {
                    return err(&self.op, format!("big-union source is not a set: {vs:?}"))
                        .map_err(eval);
                };
                // A filter keeps a subset of its source with
                // annotations untouched: sorting the source once by
                // the document comparator and scanning emits exactly
                // the materialized result's order.
                let mut pairs: Vec<(&Tree<K>, &K)> = Vec::new();
                for (v, k) in s.iter() {
                    match v {
                        CValue::Tree(t) => pairs.push((t, k)),
                        other => {
                            return err(&self.op, format!("tag of non-tree {other:?}"))
                                .map_err(eval)
                        }
                    }
                }
                sort_document(&mut pairs);
                for (t, k) in pairs {
                    if t.label() == *label {
                        emit(x, &self.op, sink, t, k, t.size())?;
                    }
                }
                Ok(Streamed::Set)
            }
            Op::KidsFlat(source) => {
                let vs = eval_op(source, &mut env, x).map_err(eval)?;
                let CValue::Set(s) = vs else {
                    return err(&self.op, format!("big-union source is not a set: {vs:?}"))
                        .map_err(eval);
                };
                if s.support_len() == 1 {
                    // One root tree: its children are a K-set (so
                    // distinct) and `children_document` is pre-sorted
                    // by the document comparator, so each scaled
                    // child is final as soon as it is scanned (zero
                    // products are pruned exactly like a K-set insert
                    // would).
                    let (v, k) = s.iter().next().expect("support checked");
                    let CValue::Tree(t) = v else {
                        return err(&self.op, format!("kids of non-tree {v:?}")).map_err(eval);
                    };
                    for (c, kc) in t.children_document() {
                        let ann = k.times(kc);
                        if ann.is_zero() {
                            continue;
                        }
                        emit(x, &self.op, sink, c, &ann, c.size())?;
                    }
                    Ok(Streamed::Set)
                } else {
                    // Children of different roots can interleave and
                    // merge. Gather `(child, k·kc)` in the order the
                    // materializing op inserts them (roots in K-set
                    // order), then sort once and fold equal neighbours
                    // — its sums and document order, without building
                    // the K-set. Each piece is charged here, in place
                    // of the op's own charge.
                    let mut kids: Vec<(&Tree<K>, K)> = Vec::new();
                    for (v, k) in s.iter() {
                        match v {
                            CValue::Tree(t) => {
                                for (c, kc) in t.children().iter() {
                                    let ann = if k.is_one() { kc.clone() } else { k.times(kc) };
                                    kids.push((c, ann));
                                }
                            }
                            other => {
                                return err(&self.op, format!("kids of non-tree {other:?}"))
                                    .map_err(eval)
                            }
                        }
                    }
                    for (c, ann) in coalesce_document(kids) {
                        emit(x, &self.op, sink, c, &ann, c.size())?;
                    }
                    Ok(Streamed::Set)
                }
            }
            op => {
                let v = eval_op(op, &mut env, x).map_err(eval)?;
                match v {
                    // `eval_op` charged the result already.
                    CValue::Set(s) => emit_cset(x, op, sink, &s),
                    scalar => match scalar.to_uxml() {
                        Some(scalar) => Ok(Streamed::Scalar(scalar)),
                        None => err(op, "top-level result is not a K-UXML value").map_err(eval),
                    },
                }
            }
        }
    }

    /// The frame for the forest-bound entry points: each input forest
    /// bound as a `{tree}` value.
    fn forest_env(&self, inputs: &[(&str, &Forest<K>)]) -> Vec<SlotVal<K>> {
        self.seed_env(|name| {
            inputs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, f)| CValue::from_forest(f))
        })
    }

    fn seed_env(&self, mut get: impl FnMut(&str) -> Option<CValue<K>>) -> Vec<SlotVal<K>> {
        let mut env: Vec<SlotVal<K>> = Vec::with_capacity(self.max_slots);
        for name in &self.free {
            // A missing input is *not* an immediate error: like the
            // interpreter, the plan only errors if the variable is
            // actually read (dead branches stay dead).
            env.push(match get(name) {
                Some(v) => SlotVal::Bound(v),
                None => SlotVal::Unbound(name.clone()),
            });
        }
        env
    }

    /// A compact rendering of the plan (slots print as `_i`), mainly
    /// for tests and EXPLAIN-style debugging — fused nodes show up as
    /// `filter-label[l](…)`, `kids-flat(…)` and `descendants(…)`.
    pub fn plan_display(&self) -> String {
        self.op.to_string()
    }
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// Compile-time scope stack shared by the plan lowerers — this
/// crate's and `axml-core`'s (`CompiledQuery`), which resolve slots
/// under the same invariant: binders push innermost-wins, the free
/// variables seed slots `0..n`, and the high-water mark sizes the
/// runtime frame `Vec` exactly.
pub struct SlotScope {
    scope: Vec<Name>,
    max: usize,
}

impl SlotScope {
    /// A scope whose slots `0..free.len()` hold the free variables.
    pub fn seeded(free: &[Name]) -> Self {
        SlotScope {
            scope: free.to_vec(),
            max: free.len(),
        }
    }

    /// Enter a binder (shadowing earlier bindings of the same name).
    pub fn push(&mut self, name: &str) {
        self.scope.push(name.to_owned());
        self.max = self.max.max(self.scope.len());
    }

    /// Leave the innermost binder.
    pub fn pop(&mut self) {
        self.scope.pop();
    }

    /// Resolve an occurrence to its innermost binding's slot.
    pub fn slot(&self, name: &str) -> u32 {
        self.scope
            .iter()
            .rposition(|n| n == name)
            .expect("lowering: every variable is bound or seeded as free") as u32
    }

    /// Deepest frame-stack size any program point needs.
    pub fn max_slots(&self) -> usize {
        self.max
    }
}

fn lower<K: Semiring>(e: &Expr<K>, lo: &mut SlotScope) -> Op<K> {
    if let Some((source, label)) = as_filter_label(e) {
        return Op::FilterLabel {
            source: Box::new(lower(source, lo)),
            label,
        };
    }
    if let Some(source) = as_kids_flat(e) {
        return Op::KidsFlat(Box::new(lower(source, lo)));
    }
    if let Some(target) = as_descendants(e) {
        return Op::Descendants(Box::new(lower(target, lo)));
    }
    match e {
        Expr::Label(l) => Op::Label(*l),
        Expr::Var(x) => Op::Slot(lo.slot(x)),
        Expr::Let { var, def, body } => {
            let def = lower(def, lo);
            lo.push(var);
            let body = lower(body, lo);
            lo.pop();
            Op::Let {
                def: Box::new(def),
                body: Box::new(body),
            }
        }
        Expr::Pair(a, b) => Op::Pair(Box::new(lower(a, lo)), Box::new(lower(b, lo))),
        Expr::Proj1(a) => Op::Proj1(Box::new(lower(a, lo))),
        Expr::Proj2(a) => Op::Proj2(Box::new(lower(a, lo))),
        Expr::Empty { .. } => Op::Empty,
        Expr::Singleton(a) => Op::Singleton(Box::new(lower(a, lo))),
        Expr::Union(a, b) => Op::Union(Box::new(lower(a, lo)), Box::new(lower(b, lo))),
        Expr::BigUnion { var, source, body } => {
            let source = lower(source, lo);
            lo.push(var);
            let body = lower(body, lo);
            lo.pop();
            Op::BigUnion {
                source: Box::new(source),
                body: Box::new(body),
            }
        }
        Expr::IfEq { l, r, then, els } => Op::IfEq {
            l: Box::new(lower(l, lo)),
            r: Box::new(lower(r, lo)),
            then: Box::new(lower(then, lo)),
            els: Box::new(lower(els, lo)),
        },
        Expr::Scalar { k, body } => Op::Scalar {
            k: k.clone(),
            body: Box::new(lower(body, lo)),
        },
        Expr::Tree(a, b) => Op::Tree(Box::new(lower(a, lo)), Box::new(lower(b, lo))),
        Expr::Tag(a) => Op::Tag(Box::new(lower(a, lo))),
        Expr::Kids(a) => Op::Kids(Box::new(lower(a, lo))),
        Expr::Srt {
            label_var,
            acc_var,
            body,
            target,
            ..
        } => {
            let target = lower(target, lo);
            lo.push(label_var);
            lo.push(acc_var);
            let body = lower(body, lo);
            lo.pop();
            lo.pop();
            Op::Srt {
                body: Box::new(body),
                target: Box::new(target),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fusion recognizers (match the §6.3 compiler output up to binder
// names; all shapes are semantics-preserving by Fig 8 and pinned by
// the compiled-vs-interpreted property tests)
// ---------------------------------------------------------------------

/// `∪(x ∈ e) if tag(x) = 'l' then {x} else {}` → `(e, l)`.
fn as_filter_label<K: Semiring>(e: &Expr<K>) -> Option<(&Expr<K>, Label)> {
    let Expr::BigUnion { var, source, body } = e else {
        return None;
    };
    let Expr::IfEq { l, r, then, els } = &**body else {
        return None;
    };
    let (Expr::Tag(tagged), Expr::Label(lab)) = (&**l, &**r) else {
        return None;
    };
    let (Expr::Var(x1), Expr::Singleton(kept), Expr::Empty { .. }) = (&**tagged, &**then, &**els)
    else {
        return None;
    };
    let Expr::Var(x2) = &**kept else {
        return None;
    };
    (x1 == var && x2 == var).then_some((source, *lab))
}

/// `∪(x ∈ e) kids(x)` → `e`.
fn as_kids_flat<K: Semiring>(e: &Expr<K>) -> Option<&Expr<K>> {
    let Expr::BigUnion { var, source, body } = e else {
        return None;
    };
    let Expr::Kids(inner) = &**body else {
        return None;
    };
    let Expr::Var(x) = &**inner else {
        return None;
    };
    (x == var).then_some(source)
}

/// The full §6.3 descendant term,
/// `π1((srt(b, s). let w := Tree(b, ∪(u ∈ s) {π2(u)}) in
/// ((∪(v ∈ s) π1(v) ∪ {w}), w)) target)` → `target`.
fn as_descendants<K: Semiring>(e: &Expr<K>) -> Option<&Expr<K>> {
    let Expr::Proj1(srt) = e else {
        return None;
    };
    let Expr::Srt {
        label_var: b,
        acc_var: s,
        body,
        target,
        ..
    } = &**srt
    else {
        return None;
    };
    // If label and accumulator share a name, `b` below would resolve
    // to the accumulator (innermost binding wins) — not this shape.
    if b == s {
        return None;
    }
    // let w := Tree(b, ∪(u ∈ s) {π2(u)}) in …
    let Expr::Let {
        var: w,
        def,
        body: let_body,
    } = &**body
    else {
        return None;
    };
    let Expr::Tree(tree_lab, tree_kids) = &**def else {
        return None;
    };
    if !matches!(&**tree_lab, Expr::Var(x) if x == b) {
        return None;
    }
    let Expr::BigUnion {
        var: u,
        source: u_src,
        body: u_body,
    } = &**tree_kids
    else {
        return None;
    };
    if !matches!(&**u_src, Expr::Var(x) if x == s) || u == s {
        return None;
    }
    let Expr::Singleton(p2) = &**u_body else {
        return None;
    };
    let Expr::Proj2(p2v) = &**p2 else {
        return None;
    };
    if !matches!(&**p2v, Expr::Var(x) if x == u) {
        return None;
    }
    // … in ((∪(v ∈ s) π1(v)) ∪ {w}, w)
    let Expr::Pair(first, second) = &**let_body else {
        return None;
    };
    if !matches!(&**second, Expr::Var(x) if x == w) {
        return None;
    }
    let Expr::Union(matches_e, selfton) = &**first else {
        return None;
    };
    let Expr::Singleton(selfv) = &**selfton else {
        return None;
    };
    if !matches!(&**selfv, Expr::Var(x) if x == w) || w == b || w == s {
        return None;
    }
    let Expr::BigUnion {
        var: v,
        source: v_src,
        body: v_body,
    } = &**matches_e
    else {
        return None;
    };
    if !matches!(&**v_src, Expr::Var(x) if x == s) || v == s {
        return None;
    }
    let Expr::Proj1(p1v) = &**v_body else {
        return None;
    };
    if !matches!(&**p1v, Expr::Var(x) if x == v) {
        return None;
    }
    Some(target)
}

// ---------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------

/// One frame slot: a value, or — for a free variable the caller did
/// not supply — a sentinel that errors lazily on first read, matching
/// the interpreter's unbound-variable behavior.
#[derive(Clone, Debug)]
enum SlotVal<K: Semiring> {
    Bound(CValue<K>),
    Unbound(Name),
}

fn err<T, K: Semiring>(op: &Op<K>, msg: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError {
        msg: msg.into(),
        at: op.to_string(),
        budget: None,
    })
}

/// Charge `nodes` against the budget, then check the deadline (see
/// [`Exec::charge`]); a trip becomes [`EvalError::budget`] naming the
/// op that observed it.
fn charge<K: Semiring>(x: &Exec<'_>, nodes: usize, op: &Op<K>) -> Result<(), EvalError> {
    x.charge(nodes)
        .map_err(|kind| EvalError::budget(kind, op.to_string()))
}

/// The logical node count of a complex value — trees by `Tree::size`
/// (the unit the budget is denominated in), labels as one node, pairs
/// and sets as the sum over their parts.
fn cvalue_nodes<K: Semiring>(v: &CValue<K>) -> usize {
    match v {
        CValue::Label(_) => 1,
        CValue::Tree(t) => t.size(),
        CValue::Pair(a, b) => cvalue_nodes(a).saturating_add(cvalue_nodes(b)),
        CValue::Set(s) => set_nodes(s),
    }
}

fn set_nodes<K: Semiring>(s: &KSet<CValue<K>, K>) -> usize {
    s.iter()
        .fold(0usize, |n, (v, _)| n.saturating_add(cvalue_nodes(v)))
}

/// Push one piece, charging `nodes` against the budget (and checking
/// the deadline) first: a streamed piece is "produced" the moment it
/// is emitted.
fn emit<K: Semiring>(
    x: &Exec<'_>,
    op: &Op<K>,
    sink: &mut dyn ResultSink<K>,
    t: &Tree<K>,
    k: &K,
    nodes: usize,
) -> Result<(), StreamError<EvalError>> {
    charge(x, nodes, op).map_err(StreamError::Eval)?;
    sink.piece(t, k)?;
    Ok(())
}

/// Emit a K-set of trees that is already charged (an input, or an
/// op's result) piece by piece, in document order (the
/// [`sort_document`] order `Forest::iter_document` uses too),
/// checking the deadline before each piece.
fn emit_cset<K: Semiring>(
    x: &Exec<'_>,
    op: &Op<K>,
    sink: &mut dyn ResultSink<K>,
    s: &KSet<CValue<K>, K>,
) -> Result<Streamed<K>, StreamError<EvalError>> {
    let mut pairs: Vec<(&Tree<K>, &K)> = Vec::with_capacity(s.support_len());
    for (v, k) in s.iter() {
        match v {
            CValue::Tree(t) => pairs.push((t, k)),
            other => {
                return err(
                    op,
                    format!("top-level set element is not a tree: {other:?}"),
                )
                .map_err(StreamError::Eval)
            }
        }
    }
    sort_document(&mut pairs);
    for (t, k) in pairs {
        emit(x, op, sink, t, k, 0)?;
    }
    Ok(Streamed::Set)
}

fn eval_op<K: Semiring>(
    op: &Op<K>,
    env: &mut Vec<SlotVal<K>>,
    x: &Exec<'_>,
) -> Result<CValue<K>, EvalError> {
    match op {
        Op::Label(l) => Ok(CValue::Label(*l)),
        Op::Slot(i) => match &env[*i as usize] {
            SlotVal::Bound(v) => Ok(v.clone()),
            SlotVal::Unbound(name) => err(op, format!("unbound variable `{name}`")),
        },
        Op::Let { def, body } => {
            let vd = eval_op(def, env, x)?;
            env.push(SlotVal::Bound(vd));
            let out = eval_op(body, env, x);
            env.pop();
            out
        }
        Op::Pair(a, b) => {
            let va = eval_op(a, env, x)?;
            let vb = eval_op(b, env, x)?;
            Ok(CValue::pair(va, vb))
        }
        Op::Proj1(inner) => match eval_op(inner, env, x)? {
            CValue::Pair(a, _) => Ok((*a).clone()),
            other => err(op, format!("π1 of non-pair {other:?}")),
        },
        Op::Proj2(inner) => match eval_op(inner, env, x)? {
            CValue::Pair(_, b) => Ok((*b).clone()),
            other => err(op, format!("π2 of non-pair {other:?}")),
        },
        Op::Empty => Ok(CValue::empty_set()),
        Op::Singleton(inner) => {
            let v = eval_op(inner, env, x)?;
            Ok(CValue::singleton(v))
        }
        Op::Union(a, b) => {
            let va = eval_op(a, env, x)?;
            let vb = eval_op(b, env, x)?;
            match (va, vb) {
                (CValue::Set(mut sa), CValue::Set(sb)) => {
                    sa.union_with(sb);
                    charge(x, set_nodes(&sa), op)?;
                    Ok(CValue::Set(sa))
                }
                (va, vb) => err(op, format!("∪ of non-sets {va:?}, {vb:?}")),
            }
        }
        Op::BigUnion { source, body } => {
            let vs = eval_op(source, env, x)?;
            let CValue::Set(s) = vs else {
                return err(op, format!("big-union source is not a set: {vs:?}"));
            };
            let mut out: KSet<CValue<K>, K> = KSet::new();
            for (v, k) in s.iter() {
                env.push(SlotVal::Bound(v.clone()));
                let inner = eval_op(body, env, x);
                env.pop();
                match inner? {
                    CValue::Set(si) => {
                        charge(x, set_nodes(&si), op)?;
                        out.extend_scaled(si, k)
                    }
                    other => return err(op, format!("big-union body is not a set: {other:?}")),
                }
            }
            Ok(CValue::Set(out))
        }
        Op::IfEq { l, r, then, els } => {
            let vl = eval_op(l, env, x)?;
            let vr = eval_op(r, env, x)?;
            match (vl, vr) {
                (CValue::Label(a), CValue::Label(b)) => {
                    if a == b {
                        eval_op(then, env, x)
                    } else {
                        eval_op(els, env, x)
                    }
                }
                (vl, vr) => err(
                    op,
                    format!("conditional compares non-labels {vl:?}, {vr:?}"),
                ),
            }
        }
        Op::Scalar { k, body } => match eval_op(body, env, x)? {
            CValue::Set(mut s) => {
                s.scalar_mul_in_place(k);
                Ok(CValue::Set(s))
            }
            other => err(op, format!("scalar annotation on non-set {other:?}")),
        },
        Op::Tree(lab, children) => {
            let vl = eval_op(lab, env, x)?;
            let vc = eval_op(children, env, x)?;
            let Some(l) = vl.as_label() else {
                return err(op, format!("Tree label is not a label: {vl:?}"));
            };
            let Some(forest) = vc.to_forest() else {
                return err(op, format!("Tree children are not a set of trees: {vc:?}"));
            };
            charge(x, forest.size() + 1, op)?;
            Ok(CValue::Tree(Tree::new(l, forest)))
        }
        Op::Tag(inner) => match eval_op(inner, env, x)? {
            CValue::Tree(t) => Ok(CValue::Label(t.label())),
            other => err(op, format!("tag of non-tree {other:?}")),
        },
        Op::Kids(inner) => match eval_op(inner, env, x)? {
            CValue::Tree(t) => Ok(CValue::from_forest(t.children())),
            other => err(op, format!("kids of non-tree {other:?}")),
        },
        Op::Srt { body, target } => {
            let vt = eval_op(target, env, x)?;
            let CValue::Tree(t) = vt else {
                return err(op, format!("srt target is not a tree: {vt:?}"));
            };
            eval_srt_iterative(body, &t, env, x)
        }
        Op::FilterLabel { source, label } => {
            let vs = eval_op(source, env, x)?;
            let CValue::Set(s) = vs else {
                return err(op, format!("big-union source is not a set: {vs:?}"));
            };
            let mut out: KSet<CValue<K>, K> = KSet::new();
            for (v, k) in s.iter() {
                match v {
                    CValue::Tree(t) => {
                        if t.label() == *label {
                            out.insert(v.clone(), k.clone());
                        }
                    }
                    other => return err(op, format!("tag of non-tree {other:?}")),
                }
            }
            charge(x, set_nodes(&out), op)?;
            Ok(CValue::Set(out))
        }
        Op::KidsFlat(source) => {
            let vs = eval_op(source, env, x)?;
            let CValue::Set(s) = vs else {
                return err(op, format!("big-union source is not a set: {vs:?}"));
            };
            let mut out: KSet<CValue<K>, K> = KSet::new();
            for (v, k) in s.iter() {
                match v {
                    CValue::Tree(t) => {
                        if k.is_one() {
                            for (c, kc) in t.children().iter() {
                                out.insert(CValue::Tree(c.clone()), kc.clone());
                            }
                        } else {
                            for (c, kc) in t.children().iter() {
                                out.insert(CValue::Tree(c.clone()), k.times(kc));
                            }
                        }
                    }
                    other => return err(op, format!("kids of non-tree {other:?}")),
                }
            }
            charge(x, set_nodes(&out), op)?;
            Ok(CValue::Set(out))
        }
        Op::Descendants(target) => {
            let vt = eval_op(target, env, x)?;
            let CValue::Tree(t) = vt else {
                return err(op, format!("srt target is not a tree: {vt:?}"));
            };
            // Every subtree (including t), annotated with the sum over
            // occurrences of the product of annotations along the path
            // — Fig 4's semantics, via the shared DAG sweep kernel
            // (`weighted_descendant_closure` visits each *distinct*
            // subtree once; occurrence sums fall out of weight
            // merging). With a non-sequential context and a large
            // enough document the sweep is chunked over top-level
            // subtrees and merged in place — same multiset, same
            // result.
            if let Some(c) = x.parallel() {
                if t.size() >= PAR_SWEEP_MIN_NODES {
                    let target_chunks = 2 * c.degree();
                    let (emitted, seeds) = t.descendant_split(K::one(), target_chunks);
                    let mut partials: Vec<KSet<CValue<K>, K>> =
                        c.pool.map_chunks(&seeds, target_chunks, |chunk| {
                            KSet::from_distinct_pairs(
                                weighted_descendant_closure(chunk.iter().cloned())
                                    .into_iter()
                                    .map(|(node, k)| (CValue::Tree(node), k)),
                            )
                        });
                    let mut base: KSet<CValue<K>, K> = KSet::new();
                    for (t, k) in emitted {
                        base.insert(CValue::Tree(t), k);
                    }
                    partials.push(base);
                    let merged = axml_semiring::par_union_all(c.pool, c.par, partials);
                    charge(x, set_nodes(&merged), op)?;
                    return Ok(CValue::Set(merged));
                }
            }
            let out = KSet::from_distinct_pairs(
                weighted_descendant_closure([(t, K::one())])
                    .into_iter()
                    .map(|(node, k)| (CValue::Tree(node), k)),
            );
            charge(x, set_nodes(&out), op)?;
            Ok(CValue::Set(out))
        }
    }
}

/// Bottom-up `srt` on an explicit stack: children are processed in
/// document order, each node's K-set of recursive results is
/// accumulated in its parent's frame, and the body runs once per node
/// with `[label, acc]` pushed. Document depth costs heap, never Rust
/// stack.
fn eval_srt_iterative<K: Semiring>(
    body: &Op<K>,
    t: &Tree<K>,
    env: &mut Vec<SlotVal<K>>,
    x: &Exec<'_>,
) -> Result<CValue<K>, EvalError> {
    struct Frame<'t, K: Semiring> {
        tree: &'t Tree<K>,
        // K-set iteration order, so a body that errors on some nodes
        // picks the *same* node (hence the same message) as the
        // interpreter's recursive sweep.
        children: Vec<(&'t Tree<K>, &'t K)>,
        next: usize,
        acc: KSet<CValue<K>, K>,
    }
    fn frame<K: Semiring>(t: &Tree<K>) -> Frame<'_, K> {
        Frame {
            tree: t,
            children: t.children().iter().collect(),
            next: 0,
            acc: KSet::new(),
        }
    }
    let mut stack: Vec<Frame<'_, K>> = vec![frame(t)];
    loop {
        let top = stack.last_mut().expect("srt stack never empties mid-loop");
        if top.next < top.children.len() {
            let child = top.children[top.next].0;
            top.next += 1;
            stack.push(frame(child));
            continue;
        }
        let done = stack.pop().expect("just observed");
        env.push(SlotVal::Bound(CValue::Label(done.tree.label())));
        env.push(SlotVal::Bound(CValue::Set(done.acc)));
        let out = eval_op(body, env, x);
        env.pop();
        env.pop();
        let out = out?;
        match stack.last_mut() {
            None => return Ok(out),
            Some(parent) => {
                let k = parent.children[parent.next - 1].1;
                parent.acc.insert(out, k.clone());
            }
        }
    }
}

impl<K: Semiring> fmt::Display for Op<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Label(l) => write!(f, "'{l}'"),
            Op::Slot(i) => write!(f, "_{i}"),
            Op::Let { def, body } => write!(f, "let _ := {def} in {body}"),
            Op::Pair(a, b) => write!(f, "({a}, {b})"),
            Op::Proj1(e) => write!(f, "π1({e})"),
            Op::Proj2(e) => write!(f, "π2({e})"),
            Op::Empty => write!(f, "{{}}"),
            Op::Singleton(e) => write!(f, "{{{e}}}"),
            Op::Union(a, b) => write!(f, "({a} ∪ {b})"),
            Op::BigUnion { source, body } => write!(f, "∪(_ ∈ {source}) {body}"),
            Op::IfEq { l, r, then, els } => {
                write!(f, "if {l} = {r} then {then} else {els}")
            }
            Op::Scalar { body, .. } => write!(f, "scalar {body}"),
            Op::Tree(a, b) => write!(f, "Tree({a}, {b})"),
            Op::Tag(e) => write!(f, "tag({e})"),
            Op::Kids(e) => write!(f, "kids({e})"),
            Op::Srt { body, target } => write!(f, "(srt(_, _). {body}) {target}"),
            Op::FilterLabel { source, label } => write!(f, "filter-label[{label}]({source})"),
            Op::KidsFlat(source) => write!(f, "kids-flat({source})"),
            Op::Descendants(target) => write!(f, "descendants({target})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Env};
    use crate::expr::{self as nx};
    use crate::types::Type;
    use axml_semiring::{Nat, NatPoly};
    use axml_uxml::parse_forest;

    /// Build the §6.3 descendant term by hand (same shape
    /// `axml_core::compile` emits, with explicit names).
    fn descendant_term<K: Semiring>(target: Expr<K>) -> Expr<K> {
        let rebuild = nx::tree_expr(
            nx::var("b"),
            nx::bigunion("u", nx::var("s"), nx::singleton(nx::proj2(nx::var("u")))),
        );
        let matches = nx::bigunion("v", nx::var("s"), nx::proj1(nx::var("v")));
        let body = nx::let_(
            "w",
            rebuild,
            nx::pair(
                nx::union(matches, nx::singleton(nx::var("w"))),
                nx::var("w"),
            ),
        );
        nx::proj1(nx::srt(
            "b",
            "s",
            Type::pair_of(Type::tree_set(), Type::Tree),
            body,
            target,
        ))
    }

    #[test]
    fn slots_resolve_with_shadowing() {
        // ∪(x ∈ R) ∪(x ∈ kids-of-outer-x … ) {x}: inner x shadows.
        let e: Expr<Nat> = nx::bigunion(
            "x",
            nx::var("R"),
            nx::bigunion("x", nx::kids(nx::var("x")), nx::singleton(nx::var("x"))),
        );
        let plan = CompiledExpr::compile(&e);
        assert_eq!(plan.free_vars(), ["R"]);
        let f = parse_forest::<Nat>("<a> b {2} </a>").unwrap();
        let compiled = plan
            .eval_with_forests(&[("R", &f)], &Exec::default())
            .unwrap();
        let mut env = Env::from_bindings([("R".into(), CValue::from_forest(&f))]);
        assert_eq!(compiled, eval(&e, &mut env).unwrap());
    }

    #[test]
    fn filter_label_and_kids_fuse() {
        let filt: Expr<Nat> = nx::bigunion(
            "x",
            nx::var("R"),
            nx::if_eq(
                nx::tag(nx::var("x")),
                nx::label("a"),
                nx::singleton(nx::var("x")),
                nx::empty(Type::Tree),
            ),
        );
        let plan = CompiledExpr::compile(&filt);
        assert!(
            plan.plan_display().starts_with("filter-label[a]"),
            "{}",
            plan.plan_display()
        );

        let kf: Expr<Nat> = nx::bigunion("x", nx::var("R"), nx::kids(nx::var("x")));
        let plan = CompiledExpr::compile(&kf);
        assert_eq!(plan.plan_display(), "kids-flat(_0)");
    }

    #[test]
    fn filter_label_does_not_fuse_on_shadow_mismatch() {
        // body keeps a *different* variable: must stay generic.
        let e: Expr<Nat> = nx::bigunion(
            "x",
            nx::var("R"),
            nx::if_eq(
                nx::tag(nx::var("x")),
                nx::label("a"),
                nx::singleton(nx::var("y")),
                nx::empty(Type::Tree),
            ),
        );
        let plan = CompiledExpr::compile(&e);
        assert!(
            !plan.plan_display().contains("filter-label"),
            "{}",
            plan.plan_display()
        );
    }

    #[test]
    fn descendant_term_fuses_and_agrees() {
        let e: Expr<NatPoly> = nx::bigunion("x", nx::var("S"), descendant_term(nx::var("x")));
        let plan = CompiledExpr::compile(&e);
        assert!(
            plan.plan_display().contains("descendants(_1)"),
            "{}",
            plan.plan_display()
        );
        let f = parse_forest::<NatPoly>("<a> <b {x1}> c {y1} </b> c {x2} </a>").unwrap();
        let compiled = plan
            .eval_with_forests(&[("S", &f)], &Exec::default())
            .unwrap();
        let mut env = Env::from_bindings([("S".into(), CValue::from_forest(&f))]);
        let interpreted = eval(&e, &mut env).unwrap();
        assert_eq!(compiled, interpreted);
    }

    #[test]
    fn descendant_shape_with_shared_binder_does_not_fuse() {
        // Same shape but label_var == acc_var: `b` in the rebuild
        // resolves to the accumulator, so fusing would be wrong.
        let rebuild = nx::tree_expr(
            nx::var("s"),
            nx::bigunion("u", nx::var("s"), nx::singleton(nx::proj2(nx::var("u")))),
        );
        let matches = nx::bigunion("v", nx::var("s"), nx::proj1(nx::var("v")));
        let body = nx::let_(
            "w",
            rebuild,
            nx::pair(
                nx::union(matches, nx::singleton(nx::var("w"))),
                nx::var("w"),
            ),
        );
        let e: Expr<Nat> = nx::proj1(nx::srt(
            "s",
            "s",
            Type::pair_of(Type::tree_set(), Type::Tree),
            body,
            nx::var("t"),
        ));
        let plan = CompiledExpr::compile(&e);
        assert!(
            !plan.plan_display().contains("descendants"),
            "{}",
            plan.plan_display()
        );
    }

    #[test]
    fn generic_srt_is_iterative_and_agrees() {
        // (srt(x, y). {x} ∪ flatten y) t — atoms of the tree.
        let body = nx::union(nx::singleton(nx::var("x")), nx::flatten(nx::var("y")));
        let e: Expr<NatPoly> = nx::srt("x", "y", Type::Label.set_of(), body, nx::var("t"));
        let plan = CompiledExpr::compile(&e);
        let f = parse_forest::<NatPoly>("<a {z}> <b {x1}> d {y1} </b> c {x2} </a>").unwrap();
        let t = f.trees().next().unwrap().clone();
        let compiled = plan.eval(&[("t", CValue::Tree(t.clone()))]).unwrap();
        let mut env = Env::from_bindings([("t".into(), CValue::Tree(t))]);
        assert_eq!(compiled, eval(&e, &mut env).unwrap());
    }

    #[test]
    fn deep_documents_do_not_overflow_the_stack() {
        // A 40k-deep chain: the interpreter would need ~40k Rust
        // frames; the compiled sweep runs on an explicit stack. (The
        // values are leaked at the end: *dropping* a 40k-deep Arc
        // chain recurses too, and this test pins evaluation only.)
        let mut t = Tree::<Nat>::leaf("c");
        for i in 0..40_000 {
            t = Tree::new(
                Label::new(if i % 2 == 0 { "n" } else { "m" }),
                Forest::singleton(t, Nat(1)),
            );
        }
        let e: Expr<Nat> = nx::bigunion("x", nx::var("S"), descendant_term(nx::var("x")));
        let plan = CompiledExpr::compile(&e);
        let f = Forest::unit(t);
        let out = plan
            .eval_with_forests(&[("S", &f)], &Exec::default())
            .unwrap();
        assert_eq!(out.as_set().unwrap().support_len(), 40_001);
        std::mem::forget(out);

        // Generic srt too (no fusion): mark every node seen.
        let count_body = nx::union(nx::singleton(nx::label("seen")), nx::empty(Type::Label));
        let e2: Expr<Nat> = nx::srt("x", "y", Type::Label.set_of(), count_body, nx::var("t"));
        let plan2 = CompiledExpr::compile(&e2);
        let t2 = f.trees().next().unwrap().clone();
        let out2 = plan2.eval(&[("t", CValue::Tree(t2))]).unwrap();
        assert!(out2.as_set().is_some());
        std::mem::forget(out2);
        std::mem::forget(f);
    }

    #[test]
    fn errors_match_the_interpreter() {
        // π1 of a label: both error with the same message.
        let e: Expr<Nat> = nx::proj1(nx::label("a"));
        let plan = CompiledExpr::compile(&e);
        let ce = plan.eval(&[]).unwrap_err();
        let ie = crate::eval::eval_closed(&e).unwrap_err();
        assert_eq!(ce.msg, ie.msg);

        // unbound variable at entry
        let e2: Expr<Nat> = nx::var("ghost");
        let plan2 = CompiledExpr::compile(&e2);
        let ce2 = plan2.eval(&[]).unwrap_err();
        let ie2 = crate::eval::eval_closed(&e2).unwrap_err();
        assert_eq!(ce2.msg, ie2.msg);
    }
}
