//! Shared workloads for the figure-regeneration binaries and the
//! Criterion benchmarks.
//!
//! Everything the paper's figures use is built here once so that the
//! `experiments` binary, `EXPERIMENTS.md` and the benches stay in sync.

use axml_semiring::{NatPoly, Semiring};
use axml_uxml::{parse_forest, Forest, Label, Tree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Fig 1 source value.
pub fn fig1_source() -> Forest<NatPoly> {
    parse_forest("<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>")
        .expect("fig1 source parses")
}

/// The Fig 1 query (the "grandchildren" query written with for-clauses).
pub const FIG1_QUERY: &str =
    "element p { for $t in $S return for $x in ($t)/child::* return ($x)/child::* }";

/// The Fig 4 source value.
pub fn fig4_source() -> Forest<NatPoly> {
    parse_forest(
        "<a> <b {x1}> <a> c {y3} d </a> </b> <c {y1}> <d> <a> c {y2} b {x2} </a> </d> </c> </a>",
    )
    .expect("fig4 source parses")
}

/// The Fig 4 query.
pub const FIG4_QUERY: &str = "element r { $T//c }";

/// The Fig 5/6/7 view, exactly as printed in the paper.
pub const FIG5_VIEW: &str = r#"
    let $r := $d/R/*,
        $rAB := for $t in $r return <t> { $t/A, $t/B } </t>,
        $rBC := for $t in $r return <t> { $t/B, $t/C } </t>,
        $s := $d/S/*
    return
      <Q> { for $x in $rAB, $y in ($rBC, $s)
            where $x/B = $y/B
            return <t> { $x/A, $y/C } </t> } </Q>"#;

/// The Fig 6 source (Fig 5 data with annotations on every node kind).
pub fn fig6_source() -> Forest<NatPoly> {
    parse_forest(
        r#"<D>
             <R {w1}>
               <t {x1}> <A {y1}> a </A> <B {y2}> b {z1} </B> <C {y3}> c </C> </t>
               <t {x2}> <A {y1}> d </A> <B {y2}> b {z2} </B> <C {y3}> e {z3} </C> </t>
               <t {x3}> <A {y1}> f </A> <B {y2}> g {z4} </B> <C {y3}> e {z5} </C> </t>
             </R>
             <S>
               <t {x4}> <B {y5}> b {z6} </B> <C {y6}> c </C> </t>
               <t {x5}> <B {y5}> g {z7} </B> <C {y6}> c </C> </t>
             </S>
           </D>"#,
    )
    .expect("fig6 source parses")
}

/// The §5 representation: Fig 4's source with x1, x2 set to 1.
pub fn section5_repr() -> Forest<NatPoly> {
    parse_forest("<a> <b> <a> c {y3} d </a> </b> <c {y1}> <d> <a> c {y2} b </a> </d> </c> </a>")
        .expect("section 5 representation parses")
}

/// A balanced tree of the given depth and branching factor with `1`
/// annotations everywhere, in any semiring (for scaling benches).
/// Leaves are labeled `c` (so `//c` finds them); inner siblings carry
/// distinct labels so they never merge. `size = Σ branchingⁱ` nodes.
pub fn balanced_tree<K: Semiring>(depth: u32, branching: u32) -> Tree<K> {
    fn build<K: Semiring>(depth: u32, branching: u32, idx: u32) -> Tree<K> {
        if depth == 0 {
            // first leaf under each parent is a `c`, the rest distinct
            return if idx == 0 {
                Tree::leaf("c")
            } else {
                Tree::new(Label::new(&format!("l{idx}")), Forest::new())
            };
        }
        let mut kids = Forest::new();
        for i in 0..branching {
            kids.insert(build::<K>(depth - 1, branching, i), K::one());
        }
        Tree::new(Label::new(&format!("n{depth}_{idx}")), kids)
    }
    build::<K>(depth, branching, 0)
}

/// A random forest over a bounded label alphabet with fresh provenance
/// tokens on every node — `n_nodes` grows linearly with the `size`
/// parameter (used by the Prop 2 sweep and the scaling benches).
pub fn random_annotated_forest(seed: u64, size: usize) -> Forest<NatPoly> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counter = 0usize;
    let mut forest = Forest::new();
    let roots = 1 + size / 16;
    for _ in 0..roots {
        let t = random_tree(&mut rng, size / roots, &mut counter);
        let var = NatPoly::var_named(&format!("r{counter}"));
        counter += 1;
        forest.insert(t, var);
    }
    forest
}

fn random_tree(rng: &mut StdRng, budget: usize, counter: &mut usize) -> Tree<NatPoly> {
    let labels = ["a", "b", "c", "d", "e"];
    let label = labels[rng.gen_range(0..labels.len())];
    if budget <= 1 {
        return Tree::leaf(label);
    }
    let kids_n = rng.gen_range(1..=3.min(budget));
    let mut kids = Forest::new();
    let per = (budget - 1) / kids_n;
    for _ in 0..kids_n {
        let child = random_tree(rng, per, counter);
        let var = NatPoly::var_named(&format!("n{counter}"));
        *counter += 1;
        kids.insert(child, var);
    }
    Tree::new(label, kids)
}

/// A wide, shallow ℕ\[X\]-annotated "relation-like" document with `rows`
/// tuples, for view-scaling benchmarks (the Fig 5/6 shape at scale).
pub fn relation_like_doc(rows: usize) -> Forest<NatPoly> {
    let values = ["u", "v", "w", "x", "y"];
    let mut r_tuples = Forest::new();
    for i in 0..rows {
        let a = values[i % 5];
        let b = values[(i / 5) % 5];
        let c = values[(i / 25) % 5];
        let t = parse_forest::<NatPoly>(&format!(
            "<t {{x{i}}}> <A> {a} </A> <B> {b} </B> <C> {c} </C> </t>"
        ))
        .expect("tuple parses");
        let (tree, k) = t.into_iter().next().expect("one tuple");
        r_tuples.insert(tree, k);
    }
    let mut s_tuples = Forest::new();
    for i in 0..rows.div_ceil(2) {
        let b = values[i % 5];
        let c = values[(i / 5) % 5];
        let t = parse_forest::<NatPoly>(&format!("<t {{s{i}}}> <B> {b} </B> <C> {c} </C> </t>"))
            .expect("tuple parses");
        let (tree, k) = t.into_iter().next().expect("one tuple");
        s_tuples.insert(tree, k);
    }
    let mut rels = Forest::new();
    rels.insert(Tree::new("R", r_tuples), NatPoly::one());
    rels.insert(Tree::new("S", s_tuples), NatPoly::one());
    Forest::unit(Tree::new("D", rels))
}

/// The shared-subtree corpus for the storage/dedup stat: `n` documents
/// that all embed the same balanced body and the same relation-like
/// document, distinguished only by a per-document marker leaf. The
/// logical node count grows linearly in `n` while the distinct-subtree
/// count stays ~constant — the workload the engine's content-addressed
/// arena exists for (UniProtKB-style corpora with massive repeated
/// substructure).
pub fn shared_corpus(n: usize) -> Vec<(String, Forest<NatPoly>)> {
    let shared = balanced_tree::<NatPoly>(6, 2);
    let rel = relation_like_doc(64);
    (0..n)
        .map(|i| {
            let mut f = Forest::new();
            f.insert(shared.clone(), NatPoly::one());
            for (t, k) in rel.iter() {
                f.insert(t.clone(), k.clone());
            }
            f.insert(Tree::leaf(format!("marker{i}").as_str()), NatPoly::one());
            (format!("shared{i:02}"), f)
        })
        .collect()
}

/// Load the [`shared_corpus`] into a fresh engine and report its
/// [`axml::StorageStats`] — the deterministic memory/dedup numbers the
/// `bench_regression` gate records alongside latency.
pub fn shared_corpus_stats(n: usize) -> axml::StorageStats {
    let engine = axml::Engine::new();
    for (name, f) in shared_corpus(n) {
        engine.insert_forest(&name, f);
    }
    engine.storage_stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_semiring::Nat;

    #[test]
    fn balanced_tree_sizes() {
        let t = balanced_tree::<Nat>(2, 2);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.size(), 7, "1 + 2 + 4 nodes");
        // distinct siblings never merge
        assert_eq!(t.children().len(), 2);
    }

    #[test]
    fn random_forest_deterministic() {
        let a = random_annotated_forest(7, 64);
        let b = random_annotated_forest(7, 64);
        assert_eq!(a, b);
        assert!(a.size() > 8);
    }

    #[test]
    fn relation_like_doc_shape() {
        let d = relation_like_doc(10);
        let root = d.trees().next().unwrap();
        assert_eq!(root.label().name(), "D");
        assert_eq!(root.children().len(), 2);
    }

    #[test]
    fn figure_sources_parse() {
        assert_eq!(fig1_source().len(), 1);
        assert_eq!(fig4_source().len(), 1);
        assert_eq!(fig6_source().len(), 1);
        assert_eq!(section5_repr().len(), 1);
    }
}
