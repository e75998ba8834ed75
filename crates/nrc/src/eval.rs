//! Big-step evaluation of `NRC_K + srt` over K-complex values —
//! the semantic equations of Fig 8.
//!
//! The two semiring-aware equations are:
//!
//! - **big-union**: `[[∪(x ∈ e₁) e₂]](y) = Σᵢ f(xᵢ) · gᵢ(y)` where
//!   `f = [[e₁]]` and `gᵢ = [[e₂]]` with `x ↦ xᵢ` — i.e. the monadic
//!   bind of the free-semimodule monad ([`axml_semiring::KSet::bind`]);
//! - **srt**: `[[(srt(x,y).e₁) e₂]]` where `[[e₂]] = Tree(l, s)` binds
//!   `x ↦ l` and `y ↦` the K-set collecting, for each child `z` of `s`
//!   with annotation `k`, the recursive result `(srt(x,y).e₁) z`
//!   annotated `k` (recursive results that coincide merge with `+`).
//!
//! Everything else is structural. Evaluation is lazy in conditionals
//! (only the taken branch is evaluated — semantically irrelevant in the
//! positive fragment but cheaper).

use crate::expr::{Expr, Name};
use crate::value::CValue;
use axml_semiring::{KSet, Semiring};
use axml_uxml::{Forest, Tree};
use std::fmt;

// Variable names in environments are interned process-globally (same
// pool shape as `Label` and `Var`): a binding stores a `Copy` 4-byte
// id, so `push` in the big-union/`srt` loops never allocates a
// `String` per iteration — repeated interning of the same name hits a
// lock-free per-thread memo.
axml_semiring::define_intern_pool!();

/// A runtime environment ρ mapping variables to complex values.
///
/// Implemented as a scope stack: `push`/`pop` are O(1) and lookup walks
/// from the innermost binding (shadowing). Names are interned, so
/// pushing a binding allocates nothing for names already seen.
///
/// The pool is process-global and append-only — the same lifetime
/// trade-off as [`Label`](axml_uxml::Label) and provenance `Var`s, and
/// far smaller in practice (binding names come from query text; every
/// *label* in every document interns too). A service evaluating
/// unbounded streams of distinct names should use the compiled plans
/// ([`crate::CompiledExpr`]), which resolve names to slots at compile
/// time and intern nothing at runtime; this interpreter is the
/// differential reference.
#[derive(Clone, Default)]
pub struct Env<K: Semiring> {
    bindings: Vec<(u32, CValue<K>)>,
}

impl<K: Semiring> Env<K> {
    /// The empty environment.
    pub fn new() -> Self {
        Env {
            bindings: Vec::new(),
        }
    }

    /// Build from bindings.
    pub fn from_bindings<I: IntoIterator<Item = (Name, CValue<K>)>>(iter: I) -> Self {
        Env {
            bindings: iter
                .into_iter()
                .map(|(n, v)| (intern_name(&n), v))
                .collect(),
        }
    }

    /// Push a binding (shadowing earlier ones).
    pub fn push(&mut self, name: &str, v: CValue<K>) {
        self.bindings.push((intern_name(name), v));
    }

    /// Pop the most recent binding.
    pub fn pop(&mut self) {
        self.bindings.pop();
    }

    /// Look up the innermost binding of `name`.
    pub fn lookup(&self, name: &str) -> Option<&CValue<K>> {
        // Read-only probe: a name never interned was never pushed, so
        // it cannot be bound — and a miss must not permanently grow
        // the process-global pool (lookups of ever-fresh unbound
        // names would otherwise leak an entry each).
        let id = probe_name(name)?;
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| *n == id)
            .map(|(_, v)| v)
    }
}

impl<K: Semiring> fmt::Debug for Env<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.bindings.iter().map(|(n, v)| (interned_name(*n), v)))
            .finish()
    }
}

/// A runtime error. Well-typed expressions never produce one (the
/// `theorems` tests evaluate only typechecked expressions and treat any
/// `EvalError` as a bug).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Description of the failure.
    pub msg: String,
    /// Rendering of the subexpression where it occurred.
    pub at: String,
    /// `Some` when the error is a caller-imposed limit tripping (the
    /// deadline or the [`axml_uxml::NodeBudget`] of the plan's
    /// [`axml_uxml::Exec`]), not an evaluation failure — the facade
    /// maps it to its typed budget error.
    pub budget: Option<axml_uxml::BudgetKind>,
}

impl EvalError {
    /// A limit trip observed at the op boundary rendered by `at`.
    pub fn budget(kind: axml_uxml::BudgetKind, at: impl Into<String>) -> Self {
        let msg = match kind {
            axml_uxml::BudgetKind::Memory => "memory budget exceeded",
            axml_uxml::BudgetKind::WallClock => "wall-clock deadline exceeded",
        };
        EvalError {
            msg: msg.into(),
            at: at.into(),
            budget: Some(kind),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "evaluation error: {} (at `{}`)", self.msg, self.at)
    }
}

impl std::error::Error for EvalError {}

fn err<T, K: Semiring>(e: &Expr<K>, msg: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError {
        msg: msg.into(),
        at: e.to_string(),
        budget: None,
    })
}

/// Evaluate a closed expression.
pub fn eval_closed<K: Semiring>(e: &Expr<K>) -> Result<CValue<K>, EvalError> {
    eval(e, &mut Env::new())
}

/// Evaluate `e` under environment `env`.
pub fn eval<K: Semiring>(e: &Expr<K>, env: &mut Env<K>) -> Result<CValue<K>, EvalError> {
    match e {
        Expr::Label(l) => Ok(CValue::Label(*l)),
        Expr::Var(x) => match env.lookup(x) {
            Some(v) => Ok(v.clone()),
            None => err(e, format!("unbound variable `{x}`")),
        },
        Expr::Let { var, def, body } => {
            let vd = eval(def, env)?;
            env.push(var, vd);
            let out = eval(body, env);
            env.pop();
            out
        }
        Expr::Pair(a, b) => {
            let va = eval(a, env)?;
            let vb = eval(b, env)?;
            Ok(CValue::pair(va, vb))
        }
        Expr::Proj1(inner) => match eval(inner, env)? {
            CValue::Pair(a, _) => Ok((*a).clone()),
            other => err(e, format!("π1 of non-pair {other:?}")),
        },
        Expr::Proj2(inner) => match eval(inner, env)? {
            CValue::Pair(_, b) => Ok((*b).clone()),
            other => err(e, format!("π2 of non-pair {other:?}")),
        },
        Expr::Empty { .. } => Ok(CValue::empty_set()),
        Expr::Singleton(inner) => {
            let v = eval(inner, env)?;
            Ok(CValue::singleton(v))
        }
        Expr::Union(a, b) => {
            let va = eval(a, env)?;
            let vb = eval(b, env)?;
            match (va, vb) {
                (CValue::Set(mut sa), CValue::Set(sb)) => {
                    sa.union_with(sb);
                    Ok(CValue::Set(sa))
                }
                (va, vb) => err(e, format!("∪ of non-sets {va:?}, {vb:?}")),
            }
        }
        Expr::BigUnion { var, source, body } => {
            let vs = eval(source, env)?;
            let CValue::Set(s) = vs else {
                return err(e, format!("big-union source is not a set: {vs:?}"));
            };
            // result(y) = Σ_x s(x) · [[body]]{x↦v}(y)
            let mut out: KSet<CValue<K>, K> = KSet::new();
            for (v, k) in s.iter() {
                env.push(var, v.clone());
                let inner = eval(body, env);
                env.pop();
                match inner? {
                    // out += k · si with a reused accumulator (and no
                    // per-item product when k = 1, the common case).
                    CValue::Set(si) => out.extend_scaled(si, k),
                    other => return err(e, format!("big-union body is not a set: {other:?}")),
                }
            }
            Ok(CValue::Set(out))
        }
        Expr::IfEq { l, r, then, els } => {
            let vl = eval(l, env)?;
            let vr = eval(r, env)?;
            match (vl, vr) {
                (CValue::Label(a), CValue::Label(b)) => {
                    if a == b {
                        eval(then, env)
                    } else {
                        eval(els, env)
                    }
                }
                (vl, vr) => err(e, format!("conditional compares non-labels {vl:?}, {vr:?}")),
            }
        }
        Expr::Scalar { k, body } => match eval(body, env)? {
            CValue::Set(mut s) => {
                s.scalar_mul_in_place(k);
                Ok(CValue::Set(s))
            }
            other => err(e, format!("scalar annotation on non-set {other:?}")),
        },
        Expr::Tree(lab, children) => {
            let vl = eval(lab, env)?;
            let vc = eval(children, env)?;
            let Some(l) = vl.as_label() else {
                return err(e, format!("Tree label is not a label: {vl:?}"));
            };
            let Some(forest) = vc.to_forest() else {
                return err(e, format!("Tree children are not a set of trees: {vc:?}"));
            };
            Ok(CValue::Tree(Tree::new(l, forest)))
        }
        Expr::Tag(inner) => match eval(inner, env)? {
            CValue::Tree(t) => Ok(CValue::Label(t.label())),
            other => err(e, format!("tag of non-tree {other:?}")),
        },
        Expr::Kids(inner) => match eval(inner, env)? {
            CValue::Tree(t) => Ok(CValue::from_forest(t.children())),
            other => err(e, format!("kids of non-tree {other:?}")),
        },
        Expr::Srt {
            label_var,
            acc_var,
            body,
            target,
            ..
        } => {
            let vt = eval(target, env)?;
            let CValue::Tree(t) = vt else {
                return err(e, format!("srt target is not a tree: {vt:?}"));
            };
            eval_srt(label_var, acc_var, body, &t, env)
        }
    }
}

/// One unfolding of Equation (1): recurse over the children, collect
/// the recursive results into a K-set (annotated by each child's
/// annotation, merging coincident results), then evaluate the body.
fn eval_srt<K: Semiring>(
    label_var: &str,
    acc_var: &str,
    body: &Expr<K>,
    t: &Tree<K>,
    env: &mut Env<K>,
) -> Result<CValue<K>, EvalError> {
    let mut acc: KSet<CValue<K>, K> = KSet::new();
    for (child, k) in t.children().iter() {
        let rec = eval_srt(label_var, acc_var, body, child, env)?;
        acc.insert(rec, k.clone());
    }
    env.push(label_var, CValue::Label(t.label()));
    env.push(acc_var, CValue::Set(acc));
    let out = eval(body, env);
    env.pop();
    env.pop();
    out
}

/// Evaluate an expression whose free variables are bound to K-UXML
/// forests — the common entry point for compiled UXQuery programs.
pub fn eval_with_forests<K: Semiring>(
    e: &Expr<K>,
    inputs: &[(&str, &Forest<K>)],
) -> Result<CValue<K>, EvalError> {
    let mut env = Env::from_bindings(
        inputs
            .iter()
            .map(|(n, f)| ((*n).to_owned(), CValue::from_forest(f))),
    );
    eval(e, &mut env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::*;
    use crate::types::Type;
    use axml_semiring::{Nat, NatPoly};
    use axml_uxml::{leaf, parse_forest};

    type E = Expr<Nat>;

    fn np(s: &str) -> NatPoly {
        s.parse().unwrap()
    }

    #[test]
    fn label_and_pairing() {
        let e: E = pair(label("a"), label("b"));
        let v = eval_closed(&e).unwrap();
        assert_eq!(v, CValue::pair(CValue::label("a"), CValue::label("b")));
        assert_eq!(eval_closed(&proj1(e.clone())).unwrap(), CValue::label("a"));
        assert_eq!(eval_closed(&proj2(e)).unwrap(), CValue::label("b"));
    }

    #[test]
    fn singleton_union_scalar() {
        // 2{a} ∪ 3{a} = {a^5}
        let e: E = union(
            scalar(Nat(2), singleton(label("a"))),
            scalar(Nat(3), singleton(label("a"))),
        );
        let v = eval_closed(&e).unwrap();
        let s = v.as_set().unwrap();
        assert_eq!(s.get(&CValue::label("a")), Nat(5));
    }

    #[test]
    fn bigunion_multiplies_annotations() {
        // ∪(x ∈ {a^2}) {(x)} annotated 3 inside = {a^6}
        let e: E = bigunion(
            "x",
            scalar(Nat(2), singleton(label("a"))),
            scalar(Nat(3), singleton(var("x"))),
        );
        let v = eval_closed(&e).unwrap();
        assert_eq!(v.as_set().unwrap().get(&CValue::label("a")), Nat(6));
    }

    #[test]
    fn conditional_takes_right_branch() {
        let t: E = if_eq(
            label("a"),
            label("a"),
            singleton(label("y")),
            empty(Type::Label),
        );
        assert_eq!(eval_closed(&t).unwrap().as_set().unwrap().support_len(), 1);
        let f: E = if_eq(
            label("a"),
            label("b"),
            singleton(label("y")),
            empty(Type::Label),
        );
        assert!(eval_closed(&f).unwrap().as_set().unwrap().is_empty());
    }

    #[test]
    fn tree_tag_kids_isomorphism() {
        // Tree(tag t, kids t) == t  and  (tag(Tree(a,c)), kids(Tree(a,c))) == (a,c)
        let f = parse_forest::<Nat>("<a> b {2} c </a>").unwrap();
        let t = f.trees().next().unwrap().clone();
        let mut env = Env::from_bindings([("t".into(), CValue::Tree(t.clone()))]);
        let rebuilt: E = tree_expr(tag(var("t")), kids(var("t")));
        assert_eq!(eval(&rebuilt, &mut env).unwrap(), CValue::Tree(t));
    }

    #[test]
    fn flatten_matches_paper_example() {
        // flatten {{a^p, b^r}^u, {b^s}^v} = {a^{u·p}, b^{u·r+v·s}}
        let (p, r, u, s, v) = (Nat(2), Nat(3), Nat(5), Nat(7), Nat(11));
        let inner1: E = union(
            scalar(p, singleton(label("a"))),
            scalar(r, singleton(label("b"))),
        );
        let inner2: E = scalar(s, singleton(label("b")));
        let outer: E = union(scalar(u, singleton(inner1)), scalar(v, singleton(inner2)));
        let v_out = eval_closed(&flatten(outer)).unwrap();
        let set = v_out.as_set().unwrap();
        assert_eq!(set.get(&CValue::label("a")), u.times(&p));
        assert_eq!(set.get(&CValue::label("b")), u.times(&r).plus(&v.times(&s)));
    }

    #[test]
    fn srt_atoms_of_tree() {
        // (srt(x, y). {x} ∪ flatten y) t returns the set of labels in t.
        let f = parse_forest::<NatPoly>("<a {z}> <b {x1}> d {y1} </b> c {x2} </a>").unwrap();
        let t = f.trees().next().unwrap().clone();
        let body = union(singleton(var("x")), flatten(var("y")));
        let e = srt("x", "y", Type::Label.set_of(), body, var("t"));
        let mut env = Env::from_bindings([("t".into(), CValue::Tree(t))]);
        let v = eval(&e, &mut env).unwrap();
        let set = v.as_set().unwrap();
        // a^1; b^{x1}; d^{x1·y1}; c^{x2}
        assert_eq!(set.get(&CValue::label("a")), NatPoly::one());
        assert_eq!(set.get(&CValue::label("b")), np("x1"));
        assert_eq!(set.get(&CValue::label("d")), np("x1*y1"));
        assert_eq!(set.get(&CValue::label("c")), np("x2"));
    }

    #[test]
    fn srt_merges_coincident_recursive_results() {
        // A node with two identical leaf children: the recursive
        // results coincide, annotations add before the body sees them.
        let f = parse_forest::<Nat>("<a> b {2} b {3} </a>").unwrap();
        // note: the parser already merges; build explicitly to be sure
        let t = f.trees().next().unwrap().clone();
        let e = srt("x", "y", Type::Label.set_of(), flatten(var("y")), var("t"));
        let mut env = Env::from_bindings([("t".into(), CValue::Tree(t))]);
        // children: b^5 → recursive result for b = flatten {} = {};
        // wait: leaves have body = flatten y = {} so result {}^5 merged;
        // top: flatten {{}^5} = {}
        let v = eval(&e, &mut env).unwrap();
        assert!(v.as_set().unwrap().is_empty());
    }

    #[test]
    fn eval_with_forests_entry_point() {
        let f = parse_forest::<Nat>("a {2} b").unwrap();
        let e: Expr<Nat> = bigunion("x", var("S"), singleton(var("x")));
        let v = eval_with_forests(&e, &[("S", &f)]).unwrap();
        assert_eq!(v.as_set().unwrap().get(&CValue::Tree(leaf("a"))), Nat(2));
    }

    #[test]
    fn runtime_errors_have_context() {
        let e: E = proj1(label("a"));
        let msg = eval_closed(&e).unwrap_err();
        assert!(msg.msg.contains("π1"), "{msg}");
        let e2: E = var("ghost");
        assert!(eval_closed(&e2).unwrap_err().msg.contains("unbound"));
    }

    #[test]
    fn environment_shadowing() {
        let mut env = Env::<Nat>::new();
        env.push("x", CValue::label("outer"));
        env.push("x", CValue::label("inner"));
        assert_eq!(env.lookup("x").unwrap().as_label().unwrap().name(), "inner");
        env.pop();
        assert_eq!(env.lookup("x").unwrap().as_label().unwrap().name(), "outer");
    }
}
