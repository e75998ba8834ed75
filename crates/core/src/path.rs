//! The XPath fragment of §7, extracted from typed core queries.
//!
//! §7 of the paper translates XPath over shredded (relational) K-UXML
//! into annotated Datalog. The fragment it covers is the downward
//! algebra built from
//!
//! - the **context node** (`.`),
//! - **steps** `ax::nt` along `self`/`child`/`descendant` (and this
//!   workspace's `strict-descendant` extension), with label or
//!   wildcard tests,
//! - **composition** `p/p'`,
//! - **union** `p | p'`, and
//! - **branching predicates** `p[q]` — a qualifier evaluated relative
//!   to each match of `p`, which under K-semantics *scales* the
//!   match's annotation by the total annotation of the qualifier's
//!   matches (in 𝔹 this degenerates to the usual exists-filter).
//!
//! [`PathQuery`] is that algebra. [`extract_path`] recognizes it
//! inside an elaborated [`Query`]: navigation chains, unions of
//! paths, `for`-composition (`for $x in p return p'($x)`),
//! qualifier-shaped `for`s (`for $y in q($x) return ($x)`), and
//! label tests via `if (name($x) = l) …`. Queries outside the
//! fragment are reported with the offending construct named, so
//! callers (the `axml` facade's `Route::Shredded`) can surface a
//! precise "this is why not" instead of a generic failure.
//!
//! [`eval_path`] is a small direct evaluator for the algebra, used to
//! cross-check the relational translation ψ in `axml-relational`.

use crate::ast::{Axis, NodeTest, Query, QueryNode, Step};
use crate::eval::eval_step;
use axml_semiring::Semiring;
use axml_uxml::{BudgetKind, Exec, Forest, Label, Tree};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A query in the §7 XPath fragment, relative to a context node. At
/// the top level the context is the *virtual root* whose children are
/// the input document's top-level trees (node 0 of the shredded
/// encoding), so the input document `$X` itself extracts as
/// `Step(Root, child::*)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PathQuery {
    /// The context node, annotated `1`.
    Root,
    /// `p/ax::nt`.
    Step(Box<PathQuery>, Step),
    /// `p | p'` (annotations add on shared matches).
    Union(Box<PathQuery>, Box<PathQuery>),
    /// `p[q]`: every match of `p`, its annotation multiplied by the
    /// total annotation of `q`'s matches from that node.
    Filter(Box<PathQuery>, Box<PathQuery>),
    /// The empty result.
    Empty,
}

impl PathQuery {
    /// The chain `./s₁/…/sₙ` over the *input document*: seed with the
    /// virtual root's children, then apply each step.
    pub fn from_steps(steps: &[Step]) -> PathQuery {
        let mut p = PathQuery::Step(
            Box::new(PathQuery::Root),
            Step {
                axis: Axis::Child,
                test: NodeTest::Wildcard,
            },
        );
        for s in steps {
            p = PathQuery::Step(Box::new(p), *s);
        }
        p
    }

    /// Substitute `base` for every [`PathQuery::Root`] on the *spine*
    /// of `self` — composition `self ∘ base`. Filter qualifiers are
    /// untouched: they are relative to each match of their input, not
    /// to the overall root.
    pub fn compose(self, base: &PathQuery) -> PathQuery {
        match self {
            PathQuery::Root => base.clone(),
            PathQuery::Step(p, s) => PathQuery::Step(Box::new(p.compose(base)), s),
            PathQuery::Union(a, b) => {
                PathQuery::Union(Box::new(a.compose(base)), Box::new(b.compose(base)))
            }
            PathQuery::Filter(p, q) => PathQuery::Filter(Box::new(p.compose(base)), q),
            PathQuery::Empty => PathQuery::Empty,
        }
    }

    /// Number of [`Step`]s (a size measure for caps and diagnostics).
    pub fn step_count(&self) -> usize {
        match self {
            PathQuery::Root | PathQuery::Empty => 0,
            PathQuery::Step(p, _) => 1 + p.step_count(),
            PathQuery::Union(a, b) => a.step_count() + b.step_count(),
            PathQuery::Filter(p, q) => p.step_count() + q.step_count(),
        }
    }

    /// Does the query contain a branching predicate `p[q]` anywhere?
    /// Filter queries need special handling on the incremental
    /// shredded route: ψ's qualifier projection drops a body node
    /// variable, so retained-IDB pruning by retired node id is inexact
    /// for them (see `axml-relational`'s `ivm` module).
    pub fn has_filter(&self) -> bool {
        match self {
            PathQuery::Root | PathQuery::Empty => false,
            PathQuery::Step(p, _) => p.has_filter(),
            PathQuery::Union(a, b) => a.has_filter() || b.has_filter(),
            PathQuery::Filter(_, _) => true,
        }
    }
}

impl fmt::Display for PathQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathQuery::Root => write!(f, "."),
            PathQuery::Step(p, s) => write!(f, "{p}/{s}"),
            PathQuery::Union(a, b) => write!(f, "({a} | {b})"),
            PathQuery::Filter(p, q) => write!(f, "{p}[{q}]"),
            PathQuery::Empty => write!(f, "()"),
        }
    }
}

/// Why a query is outside the §7 fragment: the first construct met
/// that has no relational translation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ineligible {
    /// The offending construct, human-readable.
    pub construct: String,
}

impl fmt::Display for Ineligible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.construct)
    }
}

impl std::error::Error for Ineligible {}

fn outside<T>(construct: impl Into<String>) -> Result<T, Ineligible> {
    Err(Ineligible {
        construct: construct.into(),
    })
}

/// Recognize the §7 fragment in an elaborated core query. On success
/// returns the input document variable and the extracted
/// [`PathQuery`]; on failure names the first unsupported construct.
pub fn extract_path<K: Semiring>(q: &Query<K>) -> Result<(String, PathQuery), Ineligible> {
    let mut input: Option<String> = None;
    let path = extract(q, None, &mut input, &mut Vec::new())?;
    match input {
        Some(var) => Ok((var, path)),
        None => outside("a query that reads no input document"),
    }
}

/// The recursive recognizer. `bound`: `Some(v)` when extracting a path
/// relative to the for-bound context node `$v`, `None` at the absolute
/// (virtual-root) level, where free variables name the input document
/// (recorded in `input`, which must stay unique). `forbidden` holds
/// for-variables that may not occur in the current subterm (qualifier
/// bodies must not use the variable they aggregate over).
fn extract<K: Semiring>(
    q: &Query<K>,
    bound: Option<&str>,
    input: &mut Option<String>,
    forbidden: &mut Vec<String>,
) -> Result<PathQuery, Ineligible> {
    match &q.node {
        QueryNode::Empty => Ok(PathQuery::Empty),
        // `(p)` is the singleton coercion — transparent for paths.
        QueryNode::Singleton(inner) => extract(inner, bound, input, forbidden),
        QueryNode::Var(x) => {
            if forbidden.iter().any(|f| f == x) {
                return outside(format!(
                    "for-variable ${x} used outside its qualifier position"
                ));
            }
            match bound {
                Some(v) if x == v => Ok(PathQuery::Root),
                Some(v) => outside(format!(
                    "variable ${x} (only the context node ${v} is reachable here)"
                )),
                None => match input {
                    Some(prev) if prev == x => Ok(PathQuery::from_steps(&[])),
                    Some(prev) => outside(format!("a second input document (${prev} and ${x})")),
                    None => {
                        *input = Some(x.clone());
                        Ok(PathQuery::from_steps(&[]))
                    }
                },
            }
        }
        QueryNode::Path(p, s) => Ok(PathQuery::Step(
            Box::new(extract(p, bound, input, forbidden)?),
            *s,
        )),
        QueryNode::Union(a, b) => Ok(PathQuery::Union(
            Box::new(extract(a, bound, input, forbidden)?),
            Box::new(extract(b, bound, input, forbidden)?),
        )),
        QueryNode::For { var, source, body } => {
            let base = extract(source, bound, input, forbidden)?;
            // `for $v in p return p'($v)` — composition. The body is a
            // path rooted at the bound node.
            let composed_err = match extract(body, Some(var), input, forbidden) {
                Ok(rel) => return Ok(rel.compose(&base)),
                Err(e) => e,
            };
            // `for $v in q return p'(ctx)` — the body ignores $v, so
            // the loop only *scales* by q's total annotation: a
            // branching predicate `.[q]` composed into the body's
            // path. ($v itself must not leak into the body.)
            forbidden.push(var.clone());
            let qualifier = extract(body, bound, input, forbidden);
            forbidden.pop();
            match qualifier {
                Ok(pred_path) => Ok(pred_path.compose(&PathQuery::Filter(
                    Box::new(PathQuery::Root),
                    Box::new(base),
                ))),
                // The composition error names the construct closest to
                // how the query was written; prefer it.
                Err(_) => Err(composed_err),
            }
        }
        QueryNode::If { l, r, then, els } => {
            if !matches!(els.node, QueryNode::Empty) {
                return outside("an if-expression with a non-empty else branch");
            }
            let label_test = match (&l.node, &r.node) {
                (QueryNode::Name(t), QueryNode::LabelLit(lbl))
                | (QueryNode::LabelLit(lbl), QueryNode::Name(t)) => match (&t.node, bound) {
                    (QueryNode::Var(x), Some(v)) if x == v => Some(*lbl),
                    _ => None,
                },
                _ => None,
            };
            match label_test {
                Some(lbl) => {
                    let then_path = extract(then, bound, input, forbidden)?;
                    let self_test = PathQuery::Step(
                        Box::new(PathQuery::Root),
                        Step {
                            axis: Axis::SelfAxis,
                            test: NodeTest::Label(lbl),
                        },
                    );
                    Ok(then_path.compose(&self_test))
                }
                None => {
                    outside("an equality test other than `name($ctx) = label` on the context node")
                }
            }
        }
        QueryNode::Let { .. } => outside("a let binding"),
        QueryNode::Element { .. } => outside("an element constructor"),
        QueryNode::Name(_) => outside("name(·) in a result position"),
        QueryNode::Annot(..) => outside("an annot scalar"),
        QueryNode::LabelLit(l) => outside(format!("the bare label literal `{l}`")),
    }
}

/// Direct reference evaluation of a [`PathQuery`] over a forest: the
/// semantics ψ must reproduce relationally (used by the shredding
/// tests and `Route::Differential`-style cross-checks).
pub fn eval_path<K: Semiring>(forest: &Forest<K>, p: &PathQuery) -> Forest<K> {
    // The virtual root: a sentinel tree whose children are the input's
    // top-level trees. It never appears in results of extracted
    // queries (`extract_path` anchors every spine at `child::*` of the
    // virtual root before anything can match).
    let vroot = Tree::new(Label::new("#vroot"), forest.clone());
    eval_at(p, &vroot)
}

fn eval_at<K: Semiring>(p: &PathQuery, ctx: &Tree<K>) -> Forest<K> {
    match p {
        PathQuery::Root => Forest::unit(ctx.clone()),
        PathQuery::Empty => Forest::new(),
        PathQuery::Step(inner, s) => eval_step(&eval_at(inner, ctx), *s),
        PathQuery::Union(a, b) => {
            let mut out = eval_at(a, ctx);
            out.union_with(eval_at(b, ctx));
            out
        }
        PathQuery::Filter(inner, qual) => {
            let mut out = Forest::new();
            for (m, k) in eval_at(inner, ctx).iter() {
                let total = eval_at(qual, m).as_kset().total();
                if !total.is_zero() {
                    out.insert(m.clone(), k.times(&total));
                }
            }
            out
        }
    }
}

/// Subtrees with fewer nodes than this are not stored in a
/// [`PathMemo`] — recomputing their closure costs less than hashing,
/// storing and later sweeping an entry for them — unless they are
/// top-level trees of the evaluated forest.
pub const MEMO_MIN_NODES: usize = 16;

/// Slack in the sweep trigger: a memo sweeps once it holds more than
/// `2 × kept + MEMO_SWEEP_SLACK` entries, where `kept` is what the
/// previous sweep kept (so a fresh memo holds a handful of entries
/// before its first sweep, and dead entries of a small document —
/// which can carry large annotations — do not linger).
const MEMO_SWEEP_SLACK: usize = 16;

/// Evaluations between two deadline checks of a limited
/// [`eval_path_memo`] (counted in computed closures, stored or not).
const MEMO_DEADLINE_EVERY: u64 = 1024;

/// Fingerprint-memoized path evaluation (document churn).
///
/// [`eval_path_memo`] computes exactly [`eval_path`], but keys the two
/// expensive sub-computations on subtree **value** — which, thanks to
/// the cached `(size, hash)` fingerprints, costs one hash of a
/// precomputed fingerprint per lookup:
///
/// - per descendant-family step, the filtered descendant closure
///   `D(t) = (test ∋ t ? {t:1} : ∅) + Σ_{(c,kc) ∈ children(t)} kc·D(c)`,
/// - per branching predicate, the qualifier's total annotation from a
///   given match.
///
/// Both are functions of the subtree *value* alone (Fig 4's semantics
/// is compositional on values), so entries never need invalidation:
/// after an edit, unchanged subtrees — shared by the hash-consing
/// arena — hit the table, and only the edited spine recomputes.
/// Equality with [`eval_path`] is by distributivity of `·` over the
/// commutative sums [`Forest`] maintains: the closure recursion is the
/// per-seed restriction of `eval_step`'s flat sweep, and a step's
/// result is `Σ_k k·D(t)` over its input.
///
/// **Bounded by the live document.** Subtrees under
/// [`MEMO_MIN_NODES`] nodes are not stored; the evaluated forest's
/// top-level trees are, whatever their size, so re-reading an
/// unchanged version is one lookup per root. After each evaluation,
/// once the tables hold more than twice the entries the previous
/// sweep kept (plus a small constant), a sweep walks the distinct
/// stored-size subtrees of the forest just evaluated and drops every
/// entry keyed on anything else — the values of edited-away spines.
/// Between sweeps the tables therefore hold at most about twice the
/// live document's stored subtrees per memo slot, however long the
/// edit history.
pub struct PathMemo<K: Semiring> {
    desc: Vec<HashMap<Tree<K>, Forest<K>>>,
    qual: Vec<HashMap<Tree<K>, K>>,
    /// Entries kept by the last sweep (0 before the first).
    kept: usize,
    /// Memo-table hits since construction.
    pub hits: u64,
    /// Memo-table misses (entries computed) since construction.
    pub misses: u64,
}

impl<K: Semiring> Default for PathMemo<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Semiring> PathMemo<K> {
    /// An empty memo (tables are sized on first use).
    pub fn new() -> Self {
        PathMemo {
            desc: Vec::new(),
            qual: Vec::new(),
            kept: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Total number of memoized entries.
    pub fn entry_count(&self) -> usize {
        self.desc.iter().map(|m| m.len()).sum::<usize>()
            + self.qual.iter().map(|m| m.len()).sum::<usize>()
    }

    fn ensure(&mut self, n_desc: usize, n_qual: usize) {
        if self.desc.len() != n_desc || self.qual.len() != n_qual {
            // Slot layout is a pure function of the query, so a
            // mismatch means this memo belongs to a different query:
            // start over (defensive — callers key memos by query).
            self.desc = (0..n_desc).map(|_| Default::default()).collect();
            self.qual = (0..n_qual).map(|_| Default::default()).collect();
            self.kept = 0;
        }
    }

    /// Sweep if the tables outgrew the last sweep's survivors: keep
    /// only entries keyed on a top-level tree of `forest` or one of
    /// its stored-size subtrees, in one walk of its distinct subtrees.
    fn maybe_sweep(&mut self, forest: &Forest<K>) {
        if self.entry_count() <= 2 * self.kept + MEMO_SWEEP_SLACK {
            return;
        }
        let mut live: HashSet<&Tree<K>> = forest.iter().map(|(t, _)| t).collect();
        let mut stack: Vec<&Tree<K>> = live.iter().copied().collect();
        while let Some(t) = stack.pop() {
            // A subtree under the floor has only smaller subtrees
            // below it: none of them can be a key.
            for (c, _) in t.children().iter() {
                if c.size() >= MEMO_MIN_NODES && live.insert(c) {
                    stack.push(c);
                }
            }
        }
        for table in &mut self.desc {
            table.retain(|t, _| live.contains(t));
        }
        for table in &mut self.qual {
            table.retain(|t, _| live.contains(t));
        }
        self.kept = self.entry_count();
    }
}

/// One memoized evaluation: the memo, the evaluated forest and the
/// call's limits.
struct MemoRun<'a, K: Semiring> {
    memo: &'a mut PathMemo<K>,
    roots: &'a Forest<K>,
    x: &'a Exec<'a>,
    /// Closures computed so far (stored or below the size floor).
    computed: u64,
}

impl<K: Semiring> MemoRun<'_, K> {
    /// Whether `t`'s entry is worth storing: it is above the size
    /// floor, or it is a `seed` of the step (never a subtree reached
    /// by recursion) that is one of the evaluated forest's roots.
    fn stores(&self, t: &Tree<K>, seed: bool) -> bool {
        t.size() >= MEMO_MIN_NODES || (seed && self.roots.contains(t))
    }

    fn check_deadline(&self) -> Result<(), BudgetKind> {
        if self.x.past_deadline() {
            Err(BudgetKind::WallClock)
        } else {
            Ok(())
        }
    }

    /// Count one computed closure, checking the deadline every
    /// [`MEMO_DEADLINE_EVERY`] of them.
    fn tick(&mut self) -> Result<(), BudgetKind> {
        self.computed += 1;
        if self.computed.is_multiple_of(MEMO_DEADLINE_EVERY) {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Charge a forest this evaluation built or cloned.
    fn charge(&self, f: &Forest<K>) -> Result<(), BudgetKind> {
        match self.x.budget {
            Some(b) if b.charge(f.size()).is_err() => Err(BudgetKind::Memory),
            _ => Ok(()),
        }
    }

    /// The memoized descendant-or-self closure from a single seed
    /// `{t:1}`, label-filtered by `test`. `seed` is false on the
    /// recursion into children.
    fn desc(
        &mut self,
        slot: usize,
        t: &Tree<K>,
        test: NodeTest,
        seed: bool,
    ) -> Result<Forest<K>, BudgetKind> {
        let stored = self.stores(t, seed);
        if stored {
            if let Some(f) = self.memo.desc[slot].get(t) {
                self.memo.hits += 1;
                let f = f.clone();
                self.charge(&f)?;
                return Ok(f);
            }
            self.memo.misses += 1;
        }
        self.tick()?;
        let mut out = if test.matches(t.label()) {
            Forest::unit(t.clone())
        } else {
            Forest::new()
        };
        for (c, kc) in t.children().iter() {
            let sub = self.desc(slot, c, test, false)?;
            out.extend_scaled(sub, kc);
        }
        self.charge(&out)?;
        if stored {
            self.memo.desc[slot].insert(t.clone(), out.clone());
        }
        Ok(out)
    }

    /// The qualifier's total annotation from match `m`.
    fn qual_total(&mut self, slot: usize, qual: &MemoPath, m: &Tree<K>) -> Result<K, BudgetKind> {
        let stored = self.stores(m, true);
        if stored {
            if let Some(v) = self.memo.qual[slot].get(m) {
                self.memo.hits += 1;
                return Ok(v.clone());
            }
            self.memo.misses += 1;
        }
        self.tick()?;
        let v = self.eval_at(qual, m)?.as_kset().total();
        if stored {
            self.memo.qual[slot].insert(m.clone(), v.clone());
        }
        Ok(v)
    }

    fn eval_at(&mut self, p: &MemoPath, ctx: &Tree<K>) -> Result<Forest<K>, BudgetKind> {
        Ok(match p {
            MemoPath::Root => Forest::unit(ctx.clone()),
            MemoPath::Empty => Forest::new(),
            MemoPath::Union(a, b) => {
                let mut out = self.eval_at(a, ctx)?;
                out.union_with(self.eval_at(b, ctx)?);
                out
            }
            MemoPath::Step(inner, s, slot) => {
                let f = self.eval_at(inner, ctx)?;
                match (s.axis, slot) {
                    (Axis::Descendant, Some(sl)) => {
                        let mut out = Forest::new();
                        for (t, k) in f.iter() {
                            let d = self.desc(*sl, t, s.test, true)?;
                            out.extend_scaled(d, k);
                        }
                        out
                    }
                    (Axis::StrictDescendant, Some(sl)) => {
                        let mut out = Forest::new();
                        for (t, k) in f.iter() {
                            for (c, kc) in t.children().iter() {
                                let d = self.desc(*sl, c, s.test, true)?;
                                out.extend_scaled(d, &k.times(kc));
                            }
                        }
                        out
                    }
                    _ => eval_step(&f, *s),
                }
            }
            MemoPath::Filter(inner, qual, slot) => {
                let f = self.eval_at(inner, ctx)?;
                let mut out = Forest::new();
                for (m, k) in f.iter() {
                    let total = self.qual_total(*slot, qual, m)?;
                    if !total.is_zero() {
                        out.insert(m.clone(), k.times(&total));
                    }
                }
                out
            }
        })
    }
}

/// [`PathQuery`] with stable memo-slot indices assigned to every
/// descendant-family step and every qualifier, in traversal order.
enum MemoPath {
    Root,
    Empty,
    Step(Box<MemoPath>, Step, Option<usize>),
    Union(Box<MemoPath>, Box<MemoPath>),
    Filter(Box<MemoPath>, Box<MemoPath>, usize),
}

fn build_memo_path(p: &PathQuery, n_desc: &mut usize, n_qual: &mut usize) -> MemoPath {
    match p {
        PathQuery::Root => MemoPath::Root,
        PathQuery::Empty => MemoPath::Empty,
        PathQuery::Step(inner, s) => {
            let inner = build_memo_path(inner, n_desc, n_qual);
            let slot = matches!(s.axis, Axis::Descendant | Axis::StrictDescendant).then(|| {
                *n_desc += 1;
                *n_desc - 1
            });
            MemoPath::Step(Box::new(inner), *s, slot)
        }
        PathQuery::Union(a, b) => MemoPath::Union(
            Box::new(build_memo_path(a, n_desc, n_qual)),
            Box::new(build_memo_path(b, n_desc, n_qual)),
        ),
        PathQuery::Filter(inner, qual) => {
            let inner = build_memo_path(inner, n_desc, n_qual);
            let qual = build_memo_path(qual, n_desc, n_qual);
            let slot = *n_qual;
            *n_qual += 1;
            MemoPath::Filter(Box::new(inner), Box::new(qual), slot)
        }
    }
}

/// [`eval_path`] with subtree-fingerprint memoization (see
/// [`PathMemo`]). Passing the same memo across evaluations of the same
/// query over edited versions of a document reuses every
/// unchanged-subtree result; the result is always identical to
/// [`eval_path`].
///
/// The evaluation honours the limits in `x` (its pool context is not
/// used): the deadline is checked on entry and every 1024 computed
/// closures, and the budget is charged for every closure the
/// evaluation builds or clones out of the memo, and for the result; a
/// trip returns the [`BudgetKind`] that stopped it. A
/// stop leaves the memo consistent — entries are only stored once
/// complete — and the memo is swept either way.
pub fn eval_path_memo<K: Semiring>(
    forest: &Forest<K>,
    p: &PathQuery,
    memo: &mut PathMemo<K>,
    x: &Exec<'_>,
) -> Result<Forest<K>, BudgetKind> {
    let (mut n_desc, mut n_qual) = (0usize, 0usize);
    let mp = build_memo_path(p, &mut n_desc, &mut n_qual);
    memo.ensure(n_desc, n_qual);
    let mut run = MemoRun {
        memo,
        roots: forest,
        x,
        computed: 0,
    };
    let out = run.check_deadline().and_then(|()| {
        let vroot = Tree::new(Label::new("#vroot"), forest.clone());
        let out = run.eval_at(&mp, &vroot)?;
        run.charge(&out)?;
        Ok(out)
    });
    memo.maybe_sweep(forest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_with;
    use crate::parse::parse_query;
    use crate::typecheck::elaborate;
    use axml_semiring::NatPoly;
    use axml_uxml::{parse_forest, NodeBudget, Value};
    use std::time::Instant;

    fn np(s: &str) -> NatPoly {
        s.parse().unwrap()
    }

    fn extract_src(src: &str) -> Result<(String, PathQuery), Ineligible> {
        extract_path(&elaborate(&parse_query::<NatPoly>(src).unwrap()).unwrap())
    }

    /// extract + eval_path must agree with the direct core evaluator.
    fn check_against_direct(query: &str, doc: &str) {
        let f = parse_forest::<NatPoly>(doc).unwrap();
        let core = elaborate(&parse_query::<NatPoly>(query).unwrap()).unwrap();
        let (var, path) = extract_path(&core)
            .unwrap_or_else(|e| panic!("{query} should be §7-eligible, got: {e}"));
        let direct = eval_with(&core, &[(var.as_str(), Value::Set(f.clone()))]).unwrap();
        let Value::Set(direct) = direct else {
            panic!("path queries are set-typed")
        };
        let via_path = eval_path(&f, &path);
        assert_eq!(via_path, direct, "path algebra diverges on {query}");
    }

    const DOC: &str =
        "<a> <b {x1}> <a> c {y3} d </a> </b> <c {y1}> <d> <a> c {y2} b {x2} </a> </d> </c> </a>";

    #[test]
    fn chains_extract_and_agree() {
        for q in [
            "$S/child::*",
            "$S//c",
            "$S/child::*/child::*",
            "$S//a/child::c",
            "$S/self::a",
            "$S/strict-descendant::c",
        ] {
            let (var, p) = extract_src(q).unwrap();
            assert_eq!(var, "S");
            assert!(p.step_count() >= 1);
            check_against_direct(q, DOC);
        }
    }

    #[test]
    fn unions_extract_and_agree() {
        let q = "($S//c, $S/child::*/child::b)";
        let (_, p) = extract_src(q).unwrap();
        assert!(matches!(p, PathQuery::Union(..)));
        check_against_direct(q, DOC);
    }

    #[test]
    fn for_composition_extracts_and_agrees() {
        let q = "for $x in $S//a return ($x)/child::c";
        let (_, p) = extract_src(q).unwrap();
        assert!(matches!(p, PathQuery::Step(..)));
        check_against_direct(q, DOC);
        check_against_direct(
            "for $x in $S/child::* return for $y in ($x)/child::* return ($y)/child::*",
            DOC,
        );
    }

    #[test]
    fn branching_predicate_extracts_and_agrees() {
        // //a[c] — every a-descendant with a c-child, annotation scaled
        // by the c-children total.
        let q = "for $x in $S//a return for $y in ($x)/child::c return ($x)";
        let (_, p) = extract_src(q).unwrap();
        assert!(matches!(p, PathQuery::Filter(..)));
        check_against_direct(q, DOC);
        // qualifier then further navigation: //a[c]/child::d
        check_against_direct(
            "for $x in $S//a return for $y in ($x)/child::c return ($x)/child::d",
            DOC,
        );
    }

    #[test]
    fn name_test_becomes_self_step() {
        let q = "for $x in $S//* return if (name($x) = c) then ($x) else ()";
        let (_, p) = extract_src(q).unwrap();
        check_against_direct(q, DOC);
        // the filter shows up as a self-step on the spine
        assert!(p.to_string().contains("self::c"), "{p}");
        // reversed operands too
        check_against_direct(
            "for $x in $S//* return if (c = name($x)) then ($x) else ()",
            DOC,
        );
    }

    #[test]
    fn where_clause_desugars_into_the_fragment() {
        check_against_direct("for $x in $S//* where name($x) = a return ($x)", DOC);
    }

    #[test]
    fn ineligible_queries_name_the_construct() {
        for (q, needle) in [
            ("element r { $S//c }", "element constructor"),
            ("let $x := $S return $x", "let binding"),
            ("annot {2} ($S/child::*)", "annot"),
            ("($S/child::*, $T/child::*)", "second input document"),
            (
                "for $x in $S//* return if (name($x) = name($x)) then ($x) else ()",
                "equality test",
            ),
            ("()", "no input document"),
            (
                "for $x in $S return for $y in ($x)/child::* return ($y, $x)",
                "context node",
            ),
        ] {
            let e = extract_src(q).unwrap_err();
            assert!(
                e.construct.contains(needle),
                "{q}: expected {needle:?} in {:?}",
                e.construct
            );
        }
    }

    #[test]
    fn scaling_for_over_ignored_source_agrees() {
        // `for $t in $S/child::* return $S//c` — the body ignores $t;
        // the loop scales //c by the total of the binder's source.
        check_against_direct("for $t in $S/child::* return $S//c", DOC);
    }

    #[test]
    fn filter_annotations_multiply() {
        let f =
            parse_forest::<NatPoly>("<r> <a {p}> b {q} b2 {s} </a> <a {w}> z </a> </r>").unwrap();
        let (_, path) =
            extract_src("for $x in $S//a return for $y in ($x)/child::b return ($x)").unwrap();
        let out = eval_path(&f, &path);
        // only the first a matches, scaled by its b-child total q
        assert_eq!(out.len(), 1);
        let (t, k) = out.iter().next().unwrap();
        assert_eq!(t.label().name(), "a");
        assert_eq!(k, &np("p*q"));
    }

    #[test]
    fn display_roundtrips_visually() {
        let (_, p) = extract_src("$S//c").unwrap();
        assert_eq!(p.to_string(), "./child::*/descendant::c");
    }

    /// A balanced tree document of the given depth and branching
    /// (leaves `c` under the first slot of every parent, `lN`
    /// elsewhere), big enough for memo entries above the size floor.
    fn balanced(depth: u32, branching: u32) -> String {
        fn node(depth: u32, branching: u32, idx: u32, out: &mut String) {
            if depth == 0 {
                out.push_str(&if idx == 0 {
                    "c ".into()
                } else {
                    format!("l{idx} ")
                });
                return;
            }
            out.push_str(&format!("<n{depth}_{idx}> "));
            for i in 0..branching {
                node(depth - 1, branching, i, out);
            }
            out.push_str(&format!("</n{depth}_{idx}> "));
        }
        let mut out = String::new();
        node(depth, branching, 0, &mut out);
        out
    }

    fn memo_eval(
        f: &Forest<NatPoly>,
        p: &PathQuery,
        memo: &mut PathMemo<NatPoly>,
    ) -> Forest<NatPoly> {
        eval_path_memo(f, p, memo, &Exec::default()).expect("no limits, no stop")
    }

    /// The memoized evaluator is value-identical to `eval_path` — on
    /// first use (cold tables), on re-evaluation (pure hits), and
    /// across document edits with the memo carried over.
    #[test]
    fn memo_matches_eval_path_across_edits() {
        let queries = [
            "$S//c",
            "$S/child::a/child::*",
            "($S//b, $S/child::a)",
            "for $x in $S//a return for $y in ($x)/child::b return ($x)",
            "for $t in $S/child::* return $S//c",
        ];
        let doc_v1 = "<r> <a {p}> b {q} b2 {s} c </a> <a {w}> z <c/> </a> </r> <c {u}/>";
        let doc_v2 = "<r> <a {p}> b {q} b2 {s} c </a> <a {w}> z <c2/> </a> </r> <c {u}/>";
        // The same shapes with subtrees above the memo's size floor, so
        // entries are actually stored and reused.
        let pad = "<k> c {x} d e f g h i j k l m n o </k>";
        let big_v1 = format!(
            "<r> <a {{p}}> b {{q}} b2 {{s}} c {pad} </a> <a {{w}}> z <c/> {pad} </a> </r> <c {{u}}/>"
        );
        let big_v2 = format!(
            "<r> <a {{p}}> b {{q}} b2 {{s}} c {pad} </a> <a {{w}}> z <c2/> {pad} </a> </r> <c {{u}}/>"
        );
        for (v1, v2) in [(doc_v1, doc_v2), (big_v1.as_str(), big_v2.as_str())] {
            let f1 = parse_forest::<NatPoly>(v1).unwrap();
            let f2 = parse_forest::<NatPoly>(v2).unwrap();
            for q in queries {
                let (_, path) = extract_src(q).unwrap();
                let mut memo = PathMemo::new();
                assert_eq!(
                    memo_eval(&f1, &path, &mut memo),
                    eval_path(&f1, &path),
                    "cold memo diverges on {q}"
                );
                assert_eq!(
                    memo_eval(&f1, &path, &mut memo),
                    eval_path(&f1, &path),
                    "warm memo diverges on {q}"
                );
                assert_eq!(
                    memo_eval(&f2, &path, &mut memo),
                    eval_path(&f2, &path),
                    "carried-over memo diverges on {q} after edit"
                );
            }
        }
    }

    /// Re-evaluating over an unchanged document is (almost) all hits.
    #[test]
    fn memo_hits_on_unchanged_subtrees() {
        let f = parse_forest::<NatPoly>("<r> <a> <b> <c/> </b> </a> <d> <c/> </d> </r>").unwrap();
        let (_, path) = extract_src("$S//c").unwrap();
        let mut memo = PathMemo::new();
        memo_eval(&f, &path, &mut memo);
        let misses_cold = memo.misses;
        assert!(misses_cold > 0);
        memo_eval(&f, &path, &mut memo);
        assert_eq!(memo.misses, misses_cold, "warm re-eval recomputed entries");
        assert!(memo.hits > 0);
    }

    /// Under the size floor only the forest's top-level trees are
    /// stored; their small subtrees are recomputed.
    #[test]
    fn memo_stores_only_roots_under_the_size_floor() {
        let f =
            parse_forest::<NatPoly>("<r> <a> <b> <c/> </b> </a> <d> <c/> </d> </r> <c/>").unwrap();
        let (_, path) = extract_src("$S//c").unwrap();
        let mut memo = PathMemo::new();
        assert_eq!(memo_eval(&f, &path, &mut memo), eval_path(&f, &path));
        assert_eq!(memo.entry_count(), 2, "one entry per top-level tree");
        assert_eq!((memo.hits, memo.misses), (0, 2));
    }

    /// Under a long edit history the sweep keeps the tables within
    /// about twice the live document's stored subtrees, and every
    /// result stays equal to `eval_path`.
    #[test]
    fn memo_stays_bounded_by_the_live_document() {
        let base = balanced(4, 3);
        let (_, path) = extract_src("$S//c").unwrap();
        let mut memo = PathMemo::new();
        for round in 0..200 {
            // Re-annotate one leaf per round with a fresh token: every
            // round retires the old spine's values.
            let doc = base.replacen("l1 ", &format!("l1 {{t{round}}} "), 1);
            let f = parse_forest::<NatPoly>(&doc).unwrap();
            assert_eq!(memo_eval(&f, &path, &mut memo), eval_path(&f, &path));
            let stored = stored_subtrees(&f);
            assert!(
                memo.entry_count() <= 2 * stored + MEMO_SWEEP_SLACK,
                "round {round}: {} entries for {stored} stored-size subtrees",
                memo.entry_count()
            );
        }
        assert!(memo.hits > 0);
    }

    /// The forest's top-level trees plus its distinct subtrees above
    /// the size floor: what a memo slot may keep.
    fn stored_subtrees(f: &Forest<NatPoly>) -> usize {
        let mut seen: HashSet<&Tree<NatPoly>> = f.iter().map(|(t, _)| t).collect();
        let mut stack: Vec<&Tree<NatPoly>> = seen.iter().copied().collect();
        while let Some(t) = stack.pop() {
            for (c, _) in t.children().iter() {
                if c.size() >= MEMO_MIN_NODES && seen.insert(c) {
                    stack.push(c);
                }
            }
        }
        seen.len()
    }

    /// A cold memo charges what it builds, a passed deadline stops the
    /// evaluation, and either stop leaves the memo consistent.
    #[test]
    fn memo_honours_budget_and_deadline() {
        let f = parse_forest::<NatPoly>(&balanced(5, 3)).unwrap();
        let (_, path) = extract_src("$S//c").unwrap();
        let mut memo = PathMemo::new();
        let tight = NodeBudget::new(2);
        let tight = Exec {
            budget: Some(&tight),
            ..Exec::default()
        };
        assert_eq!(
            eval_path_memo(&f, &path, &mut memo, &tight),
            Err(BudgetKind::Memory)
        );
        let past = Exec {
            deadline: Some(Instant::now()),
            ..Exec::default()
        };
        assert_eq!(
            eval_path_memo(&f, &path, &mut memo, &past),
            Err(BudgetKind::WallClock)
        );
        assert_eq!(memo_eval(&f, &path, &mut memo), eval_path(&f, &path));
        let roomy = NodeBudget::new(1 << 20);
        let roomy = Exec {
            budget: Some(&roomy),
            ..Exec::default()
        };
        assert_eq!(
            eval_path_memo(&f, &path, &mut memo, &roomy),
            Ok(eval_path(&f, &path))
        );
    }
}
