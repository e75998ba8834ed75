//! Shredding: the relational semantics of §7.
//!
//! - [`shred`] is the paper's φ: encode a K-UXML forest as a single
//!   K-relation `E(pid, nid, label)`, one tuple per node, carrying the
//!   node's annotation; `pid = 0` marks top-level roots.
//! - [`path_to_datalog`] is ψ: translate a query in the §7 XPath
//!   fragment ([`PathQuery`] — step chains, composition, union, and
//!   branching predicates) into a Datalog program with Skolem
//!   functions, whose `E'` relation encodes the result forest (the
//!   fresh `f(·)` ids keep result nodes distinct from source nodes).
//!   [`xpath_to_datalog`] is the step-chain special case.
//! - [`garbage_collect`] removes the tuples unreachable from any root
//!   ("an additional step is required to remove these tuples").
//! - [`decode`] inverts φ, merging value-identical siblings (relational
//!   node identity is *by id*; UXML identity is *by value* — decoding
//!   is where the two reconcile).
//!
//! Theorem 2 — `φ(p(v)) = ψ(φ(p))` up to node-id renaming, i.e.
//! `decode(ψ-result) =` direct evaluation — is verified in this
//! module's tests on Fig 4 and in `tests/theorems.rs` on random
//! forests and step chains.
//!
//! ## How ψ handles the full fragment
//!
//! Every translated subpath gets a fresh IDB predicate holding its
//! matches as `(…ctx, nid, label)` tuples. The `…ctx` prefix is empty
//! at the top level; each **branching predicate** `p[q]` extends it:
//! the qualifier `q` is evaluated from *every* match `n` of `p` at
//! once, through a seed rule `S(…ctx, n, l, n, l) :- P(…ctx, n, l)`
//! that carries the match (and its annotation) in extra columns. The
//! final projection `F(…ctx, n, l) :- Q(…ctx, n, l, m, ml)` *sums*
//! over the qualifier's matches `m` — annotated Datalog's projection
//! is exactly the scaling the K-semantics of `p[q]` asks for. Unions
//! become pairs of copy rules into a shared predicate (annotations
//! add), and the virtual root is a single fact `V(0, #vroot)` so the
//! whole translation stays uniform.

use crate::datalog::{atom, lbl, node, sk, v, Atom, DatalogError, Program, Rule, Term};
use crate::ivm::ShreddedView;
use crate::krel::{KRelation, RelValue, Schema};
use crate::ra::Database;
use axml_core::ast::{Axis, NodeTest, Step};
use axml_core::path::PathQuery;
use axml_semiring::Semiring;
use axml_uxml::{Exec, Forest, Label, Tree};
use std::collections::BTreeMap;

/// The schema of the edge relation `E(pid, nid, label)`.
pub fn edge_schema() -> Schema {
    Schema::new(["pid", "nid", "label"])
}

/// φ: encode a forest as the edge relation. Node ids are assigned in
/// depth-first document order starting at 1 (0 is the virtual root).
pub fn shred<K: Semiring>(forest: &Forest<K>) -> KRelation<K> {
    let mut rel = KRelation::new(edge_schema());
    for_each_fact(forest, |pid, nid, label, ann| {
        rel.insert(
            vec![
                RelValue::Node(pid),
                RelValue::Node(nid),
                RelValue::Label(label),
            ],
            ann.clone(),
        );
    });
    rel
}

/// Visit φ's facts `E(pid, nid, label) @ ann` in id order.
pub(crate) fn for_each_fact<K: Semiring>(
    forest: &Forest<K>,
    mut f: impl FnMut(u64, u64, Label, &K),
) {
    let mut next_id = 1u64;
    // Document order keeps the assigned ids stable across processes
    // (the forest's internal order is fingerprint-based). Pre-order DFS
    // on an explicit stack — one linear scan emitting one EDB fact per
    // node; document depth costs heap, never Rust stack. Children are
    // pushed in reverse document order so pop order (and therefore
    // every assigned nid) matches the recursive encoding exactly.
    for (t, k) in forest.iter_document() {
        let mut stack: Vec<(&Tree<K>, &K, u64)> = vec![(t, k, 0)];
        while let Some((t, ann, pid)) = stack.pop() {
            let nid = next_id;
            next_id += 1;
            f(pid, nid, t.label(), ann);
            for (c, k) in t.children_document().iter().rev() {
                stack.push((c, k, nid));
            }
        }
    }
}

/// ψ on a step chain: the special case the paper's `descendant::a`
/// example shows, now a thin wrapper over [`path_to_datalog`].
pub fn xpath_to_datalog(steps: &[Step]) -> Program {
    path_to_datalog(&PathQuery::from_steps(steps))
}

/// The reserved label of the virtual-root fact `V(0, #vroot)`.
const VROOT_LABEL: &str = "#vroot";

/// ψ: translate a [`PathQuery`] (the full §7 XPath fragment) into a
/// Datalog program over the edge relation `E` whose `E2` relation
/// encodes the result forest:
///
/// ```text
/// E2(f(p), f(n), l) :- E(p, n, l).          (copy the structure)
/// E2(0, f(n), l)    :- F(n, l).             (matched nodes become roots)
/// ```
///
/// `F` is the predicate holding the query's matches; see the module
/// docs for how steps, unions and branching predicates build it.
pub fn path_to_datalog(p: &PathQuery) -> Program {
    let mut gen = PsiGen {
        rules: vec![
            // V(0, #vroot). — the virtual root, annotated 1.
            Rule::new(atom("V", [node(0), lbl(VROOT_LABEL)]), []),
            // E2(f(p), f(n), l) :- E(p, n, l).
            Rule::new(
                atom("E2", [sk("f", [v("p")]), sk("f", [v("n")]), v("l")]),
                [atom("E", [v("p"), v("n"), v("l")])],
            ),
        ],
        counter: 0,
    };
    if let Some(matches) = gen.translate(p, "V", 0) {
        // E2(0, f(n), l) :- F(n, l).
        gen.rules.push(Rule::new(
            atom("E2", [node(0), sk("f", [v("n")]), v("l")]),
            [gen_atom(&matches, 0, [v("n"), v("l")])],
        ));
    }
    Program::new(gen.rules)
}

/// An atom `P(g0, …, g_{ctx-1}, tail…)` with the context prefix spelled
/// out.
fn gen_atom<I: IntoIterator<Item = Term>>(pred: &str, ctx: usize, tail: I) -> Atom {
    let args: Vec<Term> = (0..ctx).map(|i| v(&format!("g{i}"))).chain(tail).collect();
    atom(pred, args)
}

/// Rule generator for [`path_to_datalog`].
struct PsiGen {
    rules: Vec<Rule>,
    counter: usize,
}

impl PsiGen {
    fn fresh(&mut self, hint: &str) -> String {
        let n = self.counter;
        self.counter += 1;
        format!("{hint}{n}")
    }

    /// Translate `p` against the context predicate `in_pred` (arity
    /// `ctx + 2`: the pass-through prefix plus `(nid, label)`).
    /// Returns the predicate holding `p`'s matches, or `None` when `p`
    /// provably has none ([`PathQuery::Empty`] anywhere on the spine).
    fn translate(&mut self, p: &PathQuery, in_pred: &str, ctx: usize) -> Option<String> {
        match p {
            PathQuery::Root => Some(in_pred.to_owned()),
            PathQuery::Empty => None,
            PathQuery::Step(inner, step) => {
                let q = self.translate(inner, in_pred, ctx)?;
                Some(self.step_rules(&q, *step, ctx))
            }
            PathQuery::Union(a, b) => {
                let qa = self.translate(a, in_pred, ctx);
                let qb = self.translate(b, in_pred, ctx);
                match (qa, qb) {
                    (None, x) => x,
                    (x, None) => x,
                    (Some(qa), Some(qb)) => {
                        let out = self.fresh("U");
                        for q in [qa, qb] {
                            // U(…, n, l) :- Q(…, n, l).
                            self.rules.push(Rule::new(
                                gen_atom(&out, ctx, [v("n"), v("l")]),
                                [gen_atom(&q, ctx, [v("n"), v("l")])],
                            ));
                        }
                        Some(out)
                    }
                }
            }
            PathQuery::Filter(inner, qualifier) => {
                let q = self.translate(inner, in_pred, ctx)?;
                // Seed the qualifier from every match at once, carrying
                // the match (and its annotation) in two extra context
                // columns: S(…, n, l, n, l) :- Q(…, n, l).
                let seed = self.fresh("S");
                self.rules.push(Rule::new(
                    gen_atom(&seed, ctx, [v("n"), v("l"), v("n"), v("l")]),
                    [gen_atom(&q, ctx, [v("n"), v("l")])],
                ));
                let f = self.translate(qualifier, &seed, ctx + 2)?;
                // Project the qualifier's matches away; annotated
                // projection sums them — exactly the `p[q]` scaling.
                // F(…, n, l) :- Qual(…, n, l, m, ml).
                let out = self.fresh("F");
                self.rules.push(Rule::new(
                    gen_atom(&out, ctx, [v("n"), v("l")]),
                    [gen_atom(&f, ctx, [v("n"), v("l"), v("m"), v("ml")])],
                ));
                Some(out)
            }
        }
    }

    /// Emit the rules for one navigation step from `q`'s matches.
    fn step_rules(&mut self, q: &str, step: Step, ctx: usize) -> String {
        let test_term = match step.test {
            NodeTest::Wildcard => v("l"),
            NodeTest::Label(l) => lbl(l.name()),
        };
        let out = self.fresh("C");
        match step.axis {
            Axis::SelfAxis => {
                // C(…, n, t) :- Q(…, n, t).
                self.rules.push(Rule::new(
                    gen_atom(&out, ctx, [v("n"), test_term.clone()]),
                    [gen_atom(q, ctx, [v("n"), test_term])],
                ));
            }
            Axis::Child => {
                // C(…, n, t) :- Q(…, p, _), E(p, n, t).
                self.rules.push(Rule::new(
                    gen_atom(&out, ctx, [v("n"), test_term.clone()]),
                    [
                        gen_atom(q, ctx, [v("p"), v("pl")]),
                        atom("E", [v("p"), v("n"), test_term]),
                    ],
                ));
            }
            Axis::Descendant | Axis::StrictDescendant => {
                // D seeded from the matches themselves (descendant-or-
                // self, the paper's semantics) or from their children
                // (the strict extension), then the edge recursion. A
                // wildcard test needs no filter pass, so D *is* the
                // output predicate (one predicate and one delta round
                // saved); a label test gets a final filter rule.
                let d = if step.test == NodeTest::Wildcard {
                    out.clone()
                } else {
                    self.fresh("D")
                };
                let seed = if step.axis == Axis::Descendant {
                    Rule::new(
                        gen_atom(&d, ctx, [v("n"), v("l")]),
                        [gen_atom(q, ctx, [v("n"), v("l")])],
                    )
                } else {
                    Rule::new(
                        gen_atom(&d, ctx, [v("n"), v("l")]),
                        [
                            gen_atom(q, ctx, [v("p"), v("pl")]),
                            atom("E", [v("p"), v("n"), v("l")]),
                        ],
                    )
                };
                self.rules.push(seed);
                // D(…, n, l) :- D(…, p, _), E(p, n, l).
                self.rules.push(Rule::new(
                    gen_atom(&d, ctx, [v("n"), v("l")]),
                    [
                        gen_atom(&d, ctx, [v("p"), v("pl")]),
                        atom("E", [v("p"), v("n"), v("l")]),
                    ],
                ));
                if d != out {
                    // C(…, n, t) :- D(…, n, t).
                    self.rules.push(Rule::new(
                        gen_atom(&out, ctx, [v("n"), test_term.clone()]),
                        [gen_atom(&d, ctx, [v("n"), test_term])],
                    ));
                }
            }
        }
        out
    }
}

/// Run ψ(φ(v)) for any fragment query: shred, evaluate the program,
/// return the raw `E'` relation (garbage included, as in the paper's
/// table). A step chain is `PathQuery::from_steps(&steps)`. The
/// semi-naive rounds honour `x` (see [`crate::datalog::eval_datalog_idb`]):
/// they fan out over its pool context, check its deadline and charge
/// its budget; `Exec::default()` is the sequential pipeline.
pub fn shredded_eval_path<K: Semiring>(
    forest: &Forest<K>,
    p: &PathQuery,
    x: &Exec<'_>,
) -> Result<KRelation<K>, DatalogError> {
    let e = shred(forest);
    let db = Database::new().with("E", e);
    let prog = path_to_datalog(p);
    let mut idb =
        crate::datalog::eval_datalog_idb(&prog, &db, crate::datalog::DEFAULT_MAX_ITERS, x)?;
    Ok(idb
        .remove("E2")
        .unwrap_or_else(|| KRelation::new(edge_schema())))
}

/// Remove tuples not reachable from a root (pid 0) tuple.
pub fn garbage_collect<K: Semiring>(rel: &KRelation<K>) -> KRelation<K> {
    use std::collections::{HashMap, HashSet};
    // children-by-pid index over the support
    let mut by_pid: HashMap<&RelValue, Vec<&Vec<RelValue>>> = HashMap::new();
    for (t, _) in rel.iter() {
        by_pid.entry(&t[0]).or_default().push(t);
    }
    let mut reachable: HashSet<&RelValue> = HashSet::new();
    let zero = RelValue::Node(0);
    let mut stack: Vec<&RelValue> = vec![&zero];
    while let Some(pid) = stack.pop() {
        if let Some(children) = by_pid.get(pid) {
            for t in children {
                if reachable.insert(&t[1]) {
                    stack.push(&t[1]);
                }
            }
        }
    }
    let mut out = KRelation::new(rel.schema().clone());
    for (t, k) in rel.iter() {
        if t[0] == zero || reachable.contains(&t[0]) {
            out.insert(t.clone(), k.clone());
        }
    }
    out
}

/// Invert φ: rebuild the forest from an edge relation. Value-identical
/// siblings merge (their annotations add). A node id reachable through
/// several parents is *duplicated* at each occurrence (the ψ output is
/// a DAG: a matched node appears both as a result root and inside any
/// enclosing match's copied subtree). Returns `None` unless the
/// relation has arity 3 (parent, node, label), and on a cycle or a
/// non-label in the label column. An empty edge relation decodes to
/// the empty forest.
pub fn decode<K: Semiring>(rel: &KRelation<K>) -> Option<Forest<K>> {
    if rel.schema().arity() != 3 {
        return None;
    }
    let mut children: BTreeMap<RelValue, Vec<(RelValue, axml_uxml::Label, K)>> = BTreeMap::new();
    for (t, k) in rel.iter() {
        let (pid, nid, label) = (&t[0], &t[1], t[2].as_label()?);
        children
            .entry(pid.clone())
            .or_default()
            .push((nid.clone(), label, k.clone()));
    }
    let mut out = Forest::new();
    let Some(roots) = children.get(&RelValue::Node(0)) else {
        return Some(out);
    };
    let mut on_path = std::collections::BTreeSet::new();
    for (nid, label, k) in roots.clone() {
        let t = decode_tree(&nid, label, &children, &mut on_path)?;
        out.insert(t, k);
    }
    Some(out)
}

fn decode_tree<K: Semiring>(
    nid: &RelValue,
    label: axml_uxml::Label,
    children: &BTreeMap<RelValue, Vec<(RelValue, axml_uxml::Label, K)>>,
    on_path: &mut std::collections::BTreeSet<RelValue>,
) -> Option<Tree<K>> {
    if !on_path.insert(nid.clone()) {
        return None; // cycle through nid
    }
    let mut forest = Forest::new();
    if let Some(kids) = children.get(nid) {
        for (cid, clabel, k) in kids.clone() {
            let sub = decode_tree(&cid, clabel, children, on_path)?;
            forest.insert(sub, k);
        }
    }
    on_path.remove(nid);
    Some(Tree::new(label, forest))
}

/// End-to-end shredded evaluation of any §7-fragment query: shred,
/// run ψ, garbage-collect, decode back to a forest — for a step chain
/// (`PathQuery::from_steps`), the object Theorem 2 equates with direct
/// evaluation. φ writes straight into interned rows and the reachable
/// part of `E2` decodes without a boxed relation in between (see
/// [`ShreddedView`]). `x` is honoured as by [`shredded_eval_path`].
pub fn eval_path_via_shredding<K: Semiring>(
    forest: &Forest<K>,
    p: &PathQuery,
    x: &Exec<'_>,
) -> Result<Forest<K>, DatalogError> {
    ShreddedView::from_forest(p, forest, x)?
        .into_forest()
        .ok_or_else(|| DatalogError::new("shredded result is not forest-shaped"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_core::ast::{Axis, NodeTest, Step};
    use axml_semiring::{NatPoly, Var};
    use axml_uxml::{parse_forest, Label};

    fn np(s: &str) -> NatPoly {
        s.parse().unwrap()
    }

    fn fig4_source() -> Forest<NatPoly> {
        parse_forest(
            "<a> <b {x1}> <a> c {y3} d </a> </b> <c {y1}> <d> <a> c {y2} b {x2} </a> </d> </c> </a>",
        )
        .unwrap()
    }

    fn dsc(l: &str) -> Step {
        Step {
            axis: Axis::Descendant,
            test: NodeTest::Label(Label::new(l)),
        }
    }

    #[test]
    fn shred_assigns_dfs_ids() {
        let f = parse_forest::<NatPoly>("<a> b {q} </a> c {r}").unwrap();
        let e = shred(&f);
        assert_eq!(e.len(), 3);
        // root a = nid 1 (pid 0), child b = nid 2, root c = nid 3
        assert_eq!(
            e.get(&vec![
                RelValue::Node(0),
                RelValue::Node(1),
                RelValue::label("a")
            ]),
            NatPoly::one()
        );
        assert_eq!(
            e.get(&vec![
                RelValue::Node(1),
                RelValue::Node(2),
                RelValue::label("b")
            ]),
            np("q")
        );
        assert_eq!(
            e.get(&vec![
                RelValue::Node(0),
                RelValue::Node(3),
                RelValue::label("c")
            ]),
            np("r")
        );
    }

    #[test]
    fn paper_section7_table_with_x1_zero() {
        // The paper evaluates //c on the Fig 4 source with x1 := 0 and
        // lists the E′ tuples (up to its node numbering). We substitute
        // x1 ↦ 0 (keeping y1, y2 symbolic) and check the two root
        // tuples and the overall counts.
        let subst = std::collections::BTreeMap::from([(Var::new("x1"), NatPoly::zero())]);
        let f = axml_uxml::hom::substitute_forest(&fig4_source(), &subst);
        let e2 =
            shredded_eval_path(&f, &PathQuery::from_steps(&[dsc("c")]), &Exec::default()).unwrap();

        // Root tuples: (0, f(nc), c)^{y1} and (0, f(nc2), c)^{y1·y2}.
        let roots: Vec<(&Vec<RelValue>, &NatPoly)> = e2
            .iter()
            .filter(|(t, _)| t[0] == RelValue::Node(0))
            .collect();
        assert_eq!(roots.len(), 2);
        let anns: Vec<String> = roots.iter().map(|(_, k)| k.to_string()).collect();
        assert!(anns.contains(&"y1".to_owned()), "{anns:?}");
        assert!(anns.contains(&"y1*y2".to_owned()), "{anns:?}");

        // Copied structure: with the b-branch zeroed at its root edge,
        // E retains the b-subtree's inner tuples but drops the b tuple
        // itself; after GC only the c{y1}-subtree copies survive.
        let clean = garbage_collect(&e2);
        assert!(clean.len() < e2.len(), "garbage must exist and be removed");
    }

    #[test]
    fn theorem2_on_fig4() {
        // decode(ψ(φ(v))) equals direct evaluation of //c (Fig 4).
        let f = fig4_source();
        let shredded =
            eval_path_via_shredding(&f, &PathQuery::from_steps(&[dsc("c")]), &Exec::default())
                .unwrap();
        let direct = axml_core::eval_step(&f, dsc("c"));
        assert_eq!(shredded, direct);
        // and the Fig 4 annotation q1 = x1·y3 + y1·y2 on the leaf c
        assert_eq!(shredded.get(&axml_uxml::leaf("c")), np("x1*y3 + y1*y2"));
    }

    #[test]
    fn theorem2_on_step_chains() {
        let f = fig4_source();
        let chains: Vec<Vec<Step>> = vec![
            vec![Step {
                axis: Axis::Child,
                test: NodeTest::Wildcard,
            }],
            vec![
                Step {
                    axis: Axis::Child,
                    test: NodeTest::Wildcard,
                },
                Step {
                    axis: Axis::Child,
                    test: NodeTest::Wildcard,
                },
            ],
            vec![
                dsc("a"),
                Step {
                    axis: Axis::Child,
                    test: NodeTest::Label(Label::new("c")),
                },
            ],
            vec![Step {
                axis: Axis::SelfAxis,
                test: NodeTest::Label(Label::new("a")),
            }],
            vec![Step {
                axis: Axis::StrictDescendant,
                test: NodeTest::Label(Label::new("c")),
            }],
            vec![dsc("c"), dsc("b")],
        ];
        for steps in chains {
            let shredded =
                eval_path_via_shredding(&f, &PathQuery::from_steps(&steps), &Exec::default())
                    .unwrap();
            let mut direct = f.clone();
            for s in &steps {
                direct = axml_core::eval_step(&direct, *s);
            }
            assert_eq!(shredded, direct, "mismatch on {steps:?}");
        }
    }

    #[test]
    fn garbage_collect_keeps_reachable_only() {
        let mut rel = KRelation::<NatPoly>::new(edge_schema());
        rel.insert(
            vec![RelValue::Node(0), RelValue::Node(1), RelValue::label("a")],
            NatPoly::one(),
        );
        rel.insert(
            vec![RelValue::Node(1), RelValue::Node(2), RelValue::label("b")],
            NatPoly::one(),
        );
        // orphan: parent 99 never reachable
        rel.insert(
            vec![
                RelValue::Node(99),
                RelValue::Node(100),
                RelValue::label("z"),
            ],
            NatPoly::one(),
        );
        let clean = garbage_collect(&rel);
        assert_eq!(clean.len(), 2);
    }

    #[test]
    fn decode_merges_value_identical_siblings() {
        // two distinct nodes, same value, same parent → one UXML child
        let mut rel = KRelation::<NatPoly>::new(edge_schema());
        rel.insert(
            vec![RelValue::Node(0), RelValue::Node(1), RelValue::label("r")],
            NatPoly::one(),
        );
        rel.insert(
            vec![RelValue::Node(1), RelValue::Node(2), RelValue::label("c")],
            np("p"),
        );
        rel.insert(
            vec![RelValue::Node(1), RelValue::Node(3), RelValue::label("c")],
            np("q"),
        );
        let f = decode(&rel).unwrap();
        let root = f.trees().next().unwrap();
        assert_eq!(root.children().len(), 1);
        assert_eq!(root.children().get(&axml_uxml::leaf("c")), np("p + q"));
    }

    #[test]
    fn decode_duplicates_shared_nodes() {
        // nid 1 is both a root and a child of node 2 (the ψ-output DAG
        // shape): the subtree is materialized at both positions.
        let mut rel = KRelation::<NatPoly>::new(edge_schema());
        rel.insert(
            vec![RelValue::Node(0), RelValue::Node(1), RelValue::label("a")],
            np("p"),
        );
        rel.insert(
            vec![RelValue::Node(0), RelValue::Node(2), RelValue::label("b")],
            NatPoly::one(),
        );
        rel.insert(
            vec![RelValue::Node(2), RelValue::Node(1), RelValue::label("a")],
            np("q"),
        );
        let f = decode(&rel).unwrap();
        assert_eq!(f.get(&axml_uxml::leaf("a")), np("p"));
        let b = parse_forest::<NatPoly>("<b> a {q} </b>")
            .unwrap()
            .trees()
            .next()
            .unwrap()
            .clone();
        assert_eq!(f.get(&b), NatPoly::one());
    }

    #[test]
    fn decode_rejects_cycles() {
        let mut rel = KRelation::<NatPoly>::new(edge_schema());
        rel.insert(
            vec![RelValue::Node(0), RelValue::Node(1), RelValue::label("a")],
            NatPoly::one(),
        );
        rel.insert(
            vec![RelValue::Node(1), RelValue::Node(2), RelValue::label("b")],
            NatPoly::one(),
        );
        rel.insert(
            vec![RelValue::Node(2), RelValue::Node(1), RelValue::label("a")],
            NatPoly::one(),
        );
        assert!(decode(&rel).is_none());
    }

    #[test]
    fn decode_rejects_relations_that_are_not_edge_shaped() {
        for attrs in [vec!["P"], vec!["P", "N"], vec!["P", "N", "L", "X"]] {
            let mut rel = KRelation::<NatPoly>::new(Schema::new(attrs.clone()));
            let tuple: Vec<RelValue> = (0..attrs.len() as u64).map(RelValue::Node).collect();
            rel.insert(tuple, NatPoly::one());
            assert!(decode(&rel).is_none(), "arity {}", attrs.len());
            let empty = KRelation::<NatPoly>::new(Schema::new(attrs.clone()));
            assert!(decode(&empty).is_none(), "empty, arity {}", attrs.len());
        }
    }

    #[test]
    fn shred_decode_roundtrip() {
        let f = fig4_source();
        let rt = decode(&shred(&f)).unwrap();
        assert_eq!(rt, f);
    }

    /// Theorem-2-style check on the *full* fragment: ψ followed by
    /// GC + decode equals the direct path-algebra evaluation.
    fn check_path(p: &PathQuery, f: &Forest<NatPoly>) {
        let shredded = eval_path_via_shredding(f, p, &Exec::default()).unwrap();
        let direct = axml_core::eval_path(f, p);
        assert_eq!(shredded, direct, "ψ disagrees with direct eval on {p}");
    }

    fn step(axis: Axis, test: NodeTest) -> Step {
        Step { axis, test }
    }

    #[test]
    fn theorem2_on_unions() {
        let f = fig4_source();
        // //c | //b
        let p = PathQuery::Union(
            Box::new(PathQuery::from_steps(&[dsc("c")])),
            Box::new(PathQuery::from_steps(&[dsc("b")])),
        );
        check_path(&p, &f);
        // overlapping branches: //c | child::*/child::* (annotations add)
        let q = PathQuery::Union(
            Box::new(PathQuery::from_steps(&[dsc("c")])),
            Box::new(PathQuery::from_steps(&[
                step(Axis::Child, NodeTest::Wildcard),
                step(Axis::Child, NodeTest::Wildcard),
            ])),
        );
        check_path(&q, &f);
    }

    #[test]
    fn theorem2_on_branching_predicates() {
        let f = fig4_source();
        // //a[child::c] — scaled by the c-children total
        let p = PathQuery::Filter(
            Box::new(PathQuery::from_steps(&[dsc("a")])),
            Box::new(PathQuery::Step(
                Box::new(PathQuery::Root),
                step(Axis::Child, NodeTest::Label(Label::new("c"))),
            )),
        );
        check_path(&p, &f);
        // //a[child::c]/child::d — navigation after a qualifier
        let q = PathQuery::Step(
            Box::new(p),
            step(Axis::Child, NodeTest::Label(Label::new("d"))),
        );
        check_path(&q, &f);
        // //d[descendant::c] — recursive qualifier
        let r = PathQuery::Filter(
            Box::new(PathQuery::from_steps(&[dsc("d")])),
            Box::new(PathQuery::Step(Box::new(PathQuery::Root), dsc("c"))),
        );
        check_path(&r, &f);
    }

    #[test]
    fn theorem2_on_nested_filters_and_unions() {
        let f = fig4_source();
        // //a[child::c | child::d] — union inside a qualifier
        let union_qual = PathQuery::Union(
            Box::new(PathQuery::Step(
                Box::new(PathQuery::Root),
                step(Axis::Child, NodeTest::Label(Label::new("c"))),
            )),
            Box::new(PathQuery::Step(
                Box::new(PathQuery::Root),
                step(Axis::Child, NodeTest::Label(Label::new("d"))),
            )),
        );
        let p = PathQuery::Filter(
            Box::new(PathQuery::from_steps(&[dsc("a")])),
            Box::new(union_qual),
        );
        check_path(&p, &f);
        // //a[child::*[child::c]] — a qualifier inside a qualifier
        let inner = PathQuery::Filter(
            Box::new(PathQuery::Step(
                Box::new(PathQuery::Root),
                step(Axis::Child, NodeTest::Wildcard),
            )),
            Box::new(PathQuery::Step(
                Box::new(PathQuery::Root),
                step(Axis::Child, NodeTest::Label(Label::new("c"))),
            )),
        );
        let q = PathQuery::Filter(
            Box::new(PathQuery::from_steps(&[dsc("a")])),
            Box::new(inner),
        );
        check_path(&q, &f);
    }

    #[test]
    fn empty_path_yields_empty_forest() {
        let f = fig4_source();
        let out = eval_path_via_shredding(&f, &PathQuery::Empty, &Exec::default()).unwrap();
        assert!(out.is_empty());
        // an empty qualifier annihilates its input
        let p = PathQuery::Filter(
            Box::new(PathQuery::from_steps(&[dsc("c")])),
            Box::new(PathQuery::Empty),
        );
        let out2 = eval_path_via_shredding(&f, &p, &Exec::default()).unwrap();
        assert!(out2.is_empty());
    }

    #[test]
    fn filter_annotation_is_the_qualifier_total() {
        // <r> <a {p}> b {q} b {q2}? ... check the scaling precisely
        let f: Forest<NatPoly> = parse_forest("<r> <a {w1}> b {u1} c {u2} </a> </r>").unwrap();
        // //a[child::b]
        let p = PathQuery::Filter(
            Box::new(PathQuery::from_steps(&[dsc("a")])),
            Box::new(PathQuery::Step(
                Box::new(PathQuery::Root),
                step(Axis::Child, NodeTest::Label(Label::new("b"))),
            )),
        );
        let out = eval_path_via_shredding(&f, &p, &Exec::default()).unwrap();
        assert_eq!(out.len(), 1);
        let (_, k) = out.iter().next().unwrap();
        assert_eq!(k, &np("w1*u1"));
    }
}
