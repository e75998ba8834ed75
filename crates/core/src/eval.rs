//! Direct big-step evaluation of core K-UXQuery over K-UXML values.
//!
//! This evaluator is **independent** of the NRC compilation route
//! (`crate::compile`): the two implementations are differentially
//! tested against each other (and, for the XPath fragment, against the
//! relational shredding of §7). Semantically both implement the same
//! K-set algebra: `for` is the big-union (multiplying by the binder's
//! annotation), `,` is pointwise `+`, `annot k` is scalar
//! multiplication, and `descendant` sums path products over all
//! occurrences (§3's examples).

use crate::ast::{Axis, NodeTest, Query, QueryNode, Step};
use axml_semiring::Semiring;
use axml_uxml::{weighted_descendant_closure, Forest, Tree, Value};
use std::fmt;

/// A runtime error (never produced by elaborated queries evaluated
/// against bindings of the declared types).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalError {
    /// Description.
    pub msg: String,
    /// Rendering of the query where it occurred.
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
        write!(
            f,
            "UXQuery evaluation error: {} (at `{}`)",
            self.msg, self.at
        )
    }
}

impl std::error::Error for EvalError {}

fn err<T, K: Semiring>(q: &Query<K>, msg: impl Into<String>) -> Result<T, EvalError> {
    Err(EvalError {
        msg: msg.into(),
        at: q.to_string(),
        budget: None,
    })
}

/// The evaluation environment ρ.
#[derive(Clone, Debug)]
pub struct QueryEnv<K: Semiring> {
    bindings: Vec<(String, Value<K>)>,
}

impl<K: Semiring> Default for QueryEnv<K> {
    fn default() -> Self {
        QueryEnv {
            bindings: Vec::new(),
        }
    }
}

impl<K: Semiring> QueryEnv<K> {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from `(name, value)` pairs.
    pub fn from_bindings<I: IntoIterator<Item = (String, Value<K>)>>(iter: I) -> Self {
        QueryEnv {
            bindings: iter.into_iter().collect(),
        }
    }

    /// Push a binding.
    pub fn push(&mut self, name: &str, v: Value<K>) {
        self.bindings.push((name.to_owned(), v));
    }

    /// Pop the most recent binding.
    pub fn pop(&mut self) {
        self.bindings.pop();
    }

    /// Innermost binding of `name`.
    pub fn lookup(&self, name: &str) -> Option<&Value<K>> {
        self.bindings
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }
}

/// Evaluate a typed core query.
pub fn eval_core<K: Semiring>(q: &Query<K>, env: &mut QueryEnv<K>) -> Result<Value<K>, EvalError> {
    match &q.node {
        QueryNode::LabelLit(l) => Ok(Value::Label(*l)),
        QueryNode::Var(x) => match env.lookup(x) {
            Some(v) => Ok(v.clone()),
            None => err(q, format!("unbound variable ${x}")),
        },
        QueryNode::Empty => Ok(Value::Set(Forest::new())),
        QueryNode::Singleton(inner) => {
            let v = eval_core(inner, env)?;
            match v {
                Value::Tree(t) => Ok(Value::Set(Forest::unit(t))),
                Value::Label(l) => Ok(Value::Set(Forest::unit(Tree::leaf(l)))),
                Value::Set(_) => err(q, "singleton of a set (elaboration bug)"),
            }
        }
        QueryNode::Union(a, b) => {
            let mut va = eval_set(a, env)?;
            let vb = eval_set(b, env)?;
            va.union_with(vb);
            Ok(Value::Set(va))
        }
        QueryNode::For { var, source, body } => {
            let src = eval_set(source, env)?;
            let mut out = Forest::new();
            for (t, k) in src.iter() {
                env.push(var, Value::Tree(t.clone()));
                let inner = eval_set(body, env);
                env.pop();
                // out += k · inner, reusing the accumulator instead of
                // rebuilding it (the old out = out ∪ k·inner was O(n²)).
                out.extend_scaled(inner?, k);
            }
            Ok(Value::Set(out))
        }
        QueryNode::Let { var, def, body } => {
            let vd = eval_core(def, env)?;
            env.push(var, vd);
            let out = eval_core(body, env);
            env.pop();
            out
        }
        QueryNode::If { l, r, then, els } => {
            let vl = eval_core(l, env)?;
            let vr = eval_core(r, env)?;
            match (vl.as_label(), vr.as_label()) {
                (Some(a), Some(b)) => {
                    if a == b {
                        eval_core(then, env)
                    } else {
                        eval_core(els, env)
                    }
                }
                _ => err(q, "if compares non-labels"),
            }
        }
        QueryNode::Element { name, content } => {
            let vn = eval_core(name, env)?;
            let Some(l) = vn.as_label() else {
                return err(q, "element name is not a label");
            };
            let vc = eval_set(content, env)?;
            Ok(Value::Tree(Tree::new(l, vc)))
        }
        QueryNode::Name(inner) => {
            let v = eval_core(inner, env)?;
            match v.as_tree() {
                Some(t) => Ok(Value::Label(t.label())),
                None => err(q, "name() of a non-tree"),
            }
        }
        QueryNode::Annot(k, inner) => {
            let mut f = eval_set(inner, env)?;
            f.scalar_mul_in_place(k);
            Ok(Value::Set(f))
        }
        QueryNode::Path(inner, step) => {
            let f = eval_set(inner, env)?;
            Ok(Value::Set(eval_step(&f, *step)))
        }
    }
}

fn eval_set<K: Semiring>(q: &Query<K>, env: &mut QueryEnv<K>) -> Result<Forest<K>, EvalError> {
    match eval_core(q, env)? {
        Value::Set(f) => Ok(f),
        other => err(q, format!("expected a set, got {other}")),
    }
}

/// Apply one navigation step to a forest.
///
/// `descendant` (the paper's descendant-or-self) gives each occurrence
/// of a subtree the *product* of the annotations along the path from
/// the root, summed over all occurrences — exactly the Fig 4 semantics.
pub fn eval_step<K: Semiring>(f: &Forest<K>, step: Step) -> Forest<K> {
    let filtered = |forest: Forest<K>| match step.test {
        NodeTest::Wildcard => forest,
        NodeTest::Label(l) => forest.filter_label(|x| x == l),
    };
    match step.axis {
        Axis::SelfAxis => filtered(f.clone()),
        Axis::Child => filtered(f.bind(|t| t.children().clone())),
        Axis::Descendant => sweep(f.iter().map(|(t, k)| (t.clone(), k.clone())), step.test),
        Axis::StrictDescendant => sweep(strict_seeds(f), step.test),
    }
}

/// Both descendant flavors start from a seed set and run the same
/// value-level DAG sweep: [`weighted_descendant_closure`] visits each
/// **distinct** subtree once (occurrence sums fall out of the
/// weight-merging), so the label filter can run on the flat result and
/// the forest is bulk-built from known-distinct pairs instead of
/// inserted one occurrence at a time.
fn sweep<K: Semiring>(seeds: impl IntoIterator<Item = (Tree<K>, K)>, test: NodeTest) -> Forest<K> {
    let mut closed = weighted_descendant_closure(seeds);
    if let NodeTest::Label(l) = test {
        closed.retain(|(t, _)| t.label() == l);
    }
    Forest::from_distinct_pairs(closed)
}

/// Seeds of a strict-descendant sweep: every top-level child, weighted
/// by the root annotation times the child edge.
fn strict_seeds<K: Semiring>(f: &Forest<K>) -> impl Iterator<Item = (Tree<K>, K)> + '_ {
    f.iter().flat_map(|(t, k)| {
        t.children()
            .iter()
            .map(move |(c, kc)| (c.clone(), k.times(kc)))
    })
}

/// Below this many document nodes a descendant sweep stays
/// sequential: splitting, scheduling and merging would cost more than
/// the sweep itself. One constant for both compiled routes (defined
/// in `axml-nrc`, which this crate already depends on), so the two
/// routes always parallelize the same workloads.
pub use axml_nrc::compile::PAR_SWEEP_MIN_NODES;

/// [`eval_step`] with an execution context: descendant sweeps over
/// documents of at least [`PAR_SWEEP_MIN_NODES`] nodes are split into
/// top-level subtree chunks ([`Tree::descendant_split`]'s expansion),
/// swept on the context's pool, and merged with the same in-place
/// union the sequential loop uses — identical results; `child`/`self`
/// steps and small documents take the sequential path untouched.
pub fn eval_step_ctx<K: Semiring>(
    f: &Forest<K>,
    step: Step,
    ctx: Option<&axml_pool::ExecCtx<'_>>,
) -> Forest<K> {
    let Some(ctx) = ctx.filter(|c| !c.is_sequential()) else {
        return eval_step(f, step);
    };
    let sweep_roots: Vec<(Tree<K>, K)> = match step.axis {
        Axis::SelfAxis | Axis::Child => return eval_step(f, step),
        _ if f.size() < PAR_SWEEP_MIN_NODES => return eval_step(f, step),
        // Each sweep root is visited by its own sweep, so the two
        // descendant flavors differ only in where the frontier starts.
        Axis::Descendant => f.iter().map(|(t, k)| (t.clone(), k.clone())).collect(),
        Axis::StrictDescendant => f
            .iter()
            .flat_map(|(t, k)| {
                t.children()
                    .iter()
                    .map(|(c, kc)| (c.clone(), k.times(kc)))
                    .collect::<Vec<_>>()
            })
            .collect(),
    };
    // Grow the frontier until there is enough independent work
    // (the shared largest-first expansion), then sweep chunks in
    // parallel and tree-reduce the partial forests.
    let target = 2 * ctx.degree();
    let (emitted, seeds) = axml_uxml::expand_sweep_seeds(sweep_roots, target);
    let mut partials: Vec<Forest<K>> = ctx.pool.map_chunks(&seeds, target, |chunk| {
        Forest::from_distinct_pairs(weighted_descendant_closure(chunk.iter().cloned()))
    });
    let mut base = Forest::new();
    for (t, k) in emitted {
        base.insert(t, k);
    }
    partials.push(base);
    // Same reduce half as the NRC route's fused sweep: the shared
    // K-set parallel union.
    let merged = Forest::from_kset(axml_semiring::par_union_all(
        ctx.pool,
        ctx.par,
        partials.into_iter().map(Forest::into_kset).collect(),
    ));
    match step.test {
        NodeTest::Wildcard => merged,
        NodeTest::Label(l) => merged.filter_label(|x| x == l),
    }
}

/// All subtrees of `t` (including `t`), each annotated with the sum
/// over occurrences of the product of annotations along the path.
pub fn descendant_or_self<K: Semiring>(t: &Tree<K>) -> Forest<K> {
    Forest::from_distinct_pairs(weighted_descendant_closure([(t.clone(), K::one())]))
}

/// Convenience entry point: elaborate-then-evaluate a surface query
/// against named UXML values. See [`crate::eval_query`].
pub fn eval_with<K: Semiring>(
    q: &Query<K>,
    inputs: &[(&str, Value<K>)],
) -> Result<Value<K>, EvalError> {
    let mut env = QueryEnv::from_bindings(inputs.iter().map(|(n, v)| ((*n).to_owned(), v.clone())));
    eval_core(q, &mut env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_query;
    use crate::typecheck::elaborate;
    use axml_semiring::{Nat, NatPoly};
    use axml_uxml::{leaf, parse_forest};

    fn np(s: &str) -> NatPoly {
        s.parse().unwrap()
    }

    fn run(src: &str, inputs: &[(&str, Value<NatPoly>)]) -> Value<NatPoly> {
        let s = parse_query::<NatPoly>(src).expect("parses");
        let q = elaborate(&s).expect("elaborates");
        eval_with(&q, inputs).expect("evaluates")
    }

    #[test]
    fn fig1_grandchildren() {
        let src = parse_forest::<NatPoly>(
            "<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>",
        )
        .unwrap();
        let out = run(
            "element p { for $t in $S return for $x in ($t)/child::* return ($x)/child::* }",
            &[("S", Value::Set(src))],
        );
        let Value::Tree(t) = out else {
            panic!("expected tree")
        };
        assert_eq!(t.label().name(), "p");
        assert_eq!(t.children().get(&leaf("d")), np("z*x1*y1 + z*x2*y2"));
        assert_eq!(t.children().get(&leaf("e")), np("z*x2*y3"));
        assert_eq!(t.children().len(), 2);
    }

    #[test]
    fn fig1_equivalent_to_grandchildren_xpath() {
        // The paper notes the Fig 1 query equals $S/*/*.
        let src = parse_forest::<NatPoly>(
            "<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>",
        )
        .unwrap();
        let v1 = run("element p { $S/*/* }", &[("S", Value::Set(src.clone()))]);
        let v2 = run(
            "element p { for $t in $S return for $x in ($t)/child::* return ($x)/child::* }",
            &[("S", Value::Set(src))],
        );
        assert_eq!(v1, v2);
    }

    #[test]
    fn annot_union_same_label() {
        // §3: annot k1 (p1), annot k2 (p2) with a1 = a2 = a
        let out = run(
            "element b { annot {k1} (element a {()}), annot {k2} (element a {()}) }",
            &[],
        );
        let Value::Tree(t) = out else { panic!() };
        assert_eq!(t.children().get(&leaf("a")), np("k1 + k2"));
        assert_eq!(t.children().len(), 1);
    }

    #[test]
    fn annot_union_different_labels() {
        let out = run(
            "element b { annot {k1} (element a1 {()}), annot {k2} (element a2 {()}) }",
            &[],
        );
        let Value::Tree(t) = out else { panic!() };
        assert_eq!(t.children().get(&leaf("a1")), np("k1"));
        assert_eq!(t.children().get(&leaf("a2")), np("k2"));
    }

    #[test]
    fn fig4_descendant() {
        let src = parse_forest::<NatPoly>(
            "<a> <b {x1}> <a> c {y3} d </a> </b> <c {y1}> <d> <a> c {y2} b {x2} </a> </d> </c> </a>",
        )
        .unwrap();
        let out = run("element r { $T//c }", &[("T", Value::Set(src))]);
        let Value::Tree(t) = out else { panic!() };
        // leaf c: q1 = x1·y3 + y1·y2
        assert_eq!(t.children().get(&leaf("c")), np("x1*y3 + y1*y2"));
        // the c{y1} subtree itself, annotated y1
        let c_subtree = parse_forest::<NatPoly>("<c> <d> <a> c {y2} b {x2} </a> </d> </c>")
            .unwrap()
            .trees()
            .next()
            .unwrap()
            .clone();
        assert_eq!(t.children().get(&c_subtree), np("y1"));
        assert_eq!(t.children().len(), 2);
    }

    #[test]
    fn self_axis_filters() {
        let src = parse_forest::<Nat>("a {2} b {3}").unwrap();
        let s = parse_query::<Nat>("$S/self::a").unwrap();
        let q = elaborate(&s).unwrap();
        let out = eval_with(&q, &[("S", Value::Set(src))]).unwrap();
        let Value::Set(f) = out else { panic!() };
        assert_eq!(f.get(&leaf("a")), Nat(2));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn strict_descendant_excludes_self() {
        let src = parse_forest::<Nat>("<c> <c> d </c> </c>").unwrap();
        let s = parse_query::<Nat>("$S/strict-descendant::c").unwrap();
        let q = elaborate(&s).unwrap();
        let out = eval_with(&q, &[("S", Value::Set(src.clone()))]).unwrap();
        let Value::Set(f) = out else { panic!() };
        // only the inner c, not the root
        assert_eq!(f.len(), 1);
        assert!(f.contains(
            &parse_forest::<Nat>("<c> d </c>")
                .unwrap()
                .trees()
                .next()
                .unwrap()
                .clone()
        ));
        // paper's descendant includes the root too
        let s2 = parse_query::<Nat>("$S/descendant::c").unwrap();
        let q2 = elaborate(&s2).unwrap();
        let out2 = eval_with(&q2, &[("S", Value::Set(src))]).unwrap();
        let Value::Set(f2) = out2 else { panic!() };
        assert_eq!(f2.len(), 2);
    }

    #[test]
    fn let_and_if() {
        let out = run(
            "let $x := element a {()} return if (name($x) = a) then ($x) else ()",
            &[],
        );
        let Value::Set(f) = out else { panic!() };
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn errors_have_context() {
        let s = parse_query::<Nat>("$missing_binding").unwrap();
        let q = elaborate(&s).unwrap();
        let e = eval_with(&q, &[]).unwrap_err();
        assert!(e.msg.contains("unbound"), "{e}");
    }

    #[test]
    fn descendant_or_self_path_products() {
        // chain a →k1 b →k2 c: occurrences of c annotated k1·k2
        let src = parse_forest::<NatPoly>("<a> <b {k1}> c {k2} </b> </a>").unwrap();
        let t = src.trees().next().unwrap();
        let ds = descendant_or_self(t);
        assert_eq!(ds.get(&leaf("c")), np("k1*k2"));
        assert_eq!(ds.get(t), NatPoly::one());
        assert_eq!(ds.len(), 3);
    }
}
