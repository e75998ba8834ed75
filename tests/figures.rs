//! Exact reproduction of every worked figure/example in the paper.
//!
//! Each test builds the figure's source data, runs the figure's query
//! through our semantics, and compares the *symbolic provenance
//! polynomials* (not just shapes) against the values printed in the
//! paper. Where the two semantics routes differ in cost (direct vs
//! NRC-compiled), both are exercised.

use annotated_xml::prelude::*;
use axml_core::{eval_query, eval_query_nrc, parse_query, run_query};
use axml_relational::encode::{decode_relation, encode_database, ra_to_uxquery};
use axml_relational::ra::{eval_ra, fig5_query, Database};
use axml_relational::{KRelation, Schema};
use axml_uxml::{leaf, parse_forest, Forest, Value};

fn np(s: &str) -> NatPoly {
    s.parse().unwrap()
}

// ---------------------------------------------------------------------
// Figure 1: the simple `for` example
// ---------------------------------------------------------------------

fn fig1_source() -> Forest<NatPoly> {
    parse_forest("<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>").unwrap()
}

const FIG1_QUERY: &str =
    "element p { for $t in $S return for $x in ($t)/child::* return ($x)/child::* }";

#[test]
fn fig1_simple_for_example() {
    let out = run_query::<NatPoly>(FIG1_QUERY, &[("S", Value::Set(fig1_source()))]).unwrap();
    let Value::Tree(t) = out else {
        panic!("expected tree")
    };
    assert_eq!(t.label().name(), "p");
    assert_eq!(t.children().len(), 2);
    // d^{z·x1·y1 + z·x2·y2}, e^{z·x2·y3}
    assert_eq!(t.children().get(&leaf("d")), np("z*x1*y1 + z*x2*y2"));
    assert_eq!(t.children().get(&leaf("e")), np("z*x2*y3"));
}

#[test]
fn fig1_both_semantics_agree() {
    let q = parse_query::<NatPoly>(FIG1_QUERY).unwrap();
    let inputs = [("S", Value::Set(fig1_source()))];
    assert_eq!(
        eval_query(&q, &inputs).unwrap(),
        eval_query_nrc(&q, &inputs).unwrap()
    );
}

// ---------------------------------------------------------------------
// §3: annot / union examples
// ---------------------------------------------------------------------

#[test]
fn section3_singleton_and_annot() {
    // (p1) gives annotation 1; annot k1 (p1) gives k1·1 = k1
    let out = run_query::<NatPoly>("(element a1 {()})", &[]).unwrap();
    let Value::Set(f) = out else { panic!() };
    assert_eq!(f.get(&leaf("a1")), NatPoly::one());

    let out = run_query::<NatPoly>("annot {k1} (element a1 {()})", &[]).unwrap();
    let Value::Set(f) = out else { panic!() };
    assert_eq!(f.get(&leaf("a1")), np("k1"));
}

#[test]
fn section3_union_same_and_different_labels() {
    // same label: b[a^{k1+k2}]; different: b[a1^{k1}, a2^{k2}]
    let same = run_query::<NatPoly>(
        "element b { annot {k1} (element a {()}), annot {k2} (element a {()}) }",
        &[],
    )
    .unwrap();
    let Value::Tree(t) = same else { panic!() };
    assert_eq!(t.children().len(), 1);
    assert_eq!(t.children().get(&leaf("a")), np("k1 + k2"));

    let diff = run_query::<NatPoly>(
        "element b { annot {k1} (element a1 {()}), annot {k2} (element a2 {()}) }",
        &[],
    )
    .unwrap();
    let Value::Tree(t) = diff else { panic!() };
    assert_eq!(t.children().len(), 2);
    assert_eq!(t.children().get(&leaf("a1")), np("k1"));
    assert_eq!(t.children().get(&leaf("a2")), np("k2"));
}

// ---------------------------------------------------------------------
// Figure 4: XPath //c
// ---------------------------------------------------------------------

fn fig4_source() -> Forest<NatPoly> {
    parse_forest(
        "<a> <b {x1}> <a> c {y3} d </a> </b> <c {y1}> <d> <a> c {y2} b {x2} </a> </d> </c> </a>",
    )
    .unwrap()
}

#[test]
fn fig4_xpath_example() {
    let out =
        run_query::<NatPoly>("element r { $T//c }", &[("T", Value::Set(fig4_source()))]).unwrap();
    let Value::Tree(t) = out else { panic!() };
    assert_eq!(t.children().len(), 2);
    // q1 = x1·y3 + y1·y2 on the leaf c
    assert_eq!(t.children().get(&leaf("c")), np("x1*y3 + y1*y2"));
    // the c{y1}-subtree, annotated y1, with its structure intact
    let c_subtree = parse_forest::<NatPoly>("<c> <d> <a> c {y2} b {x2} </a> </d> </c>")
        .unwrap()
        .trees()
        .next()
        .unwrap()
        .clone();
    assert_eq!(t.children().get(&c_subtree), np("y1"));
}

#[test]
fn fig4_via_nrc_srt() {
    let q = parse_query::<NatPoly>("element r { $T//c }").unwrap();
    let inputs = [("T", Value::Set(fig4_source()))];
    assert_eq!(
        eval_query(&q, &inputs).unwrap(),
        eval_query_nrc(&q, &inputs).unwrap()
    );
}

// ---------------------------------------------------------------------
// Figure 5: the relational example, on both sides of Prop 1
// ---------------------------------------------------------------------

fn fig5_db() -> Database<NatPoly> {
    let r = KRelation::from_label_rows(
        Schema::new(["A", "B", "C"]),
        [
            (vec!["a", "b", "c"], np("x1")),
            (vec!["d", "b", "e"], np("x2")),
            (vec!["f", "g", "e"], np("x3")),
        ],
    );
    let s = KRelation::from_label_rows(
        Schema::new(["B", "C"]),
        [(vec!["b", "c"], np("x4")), (vec!["g", "c"], np("x5"))],
    );
    Database::new().with("R", r).with("S", s)
}

/// The Fig 5 view as written in the paper.
const FIG5_UXQUERY: &str = r#"
    let $r := $d/R/*,
        $rAB := for $t in $r return <t> { $t/A, $t/B } </t>,
        $rBC := for $t in $r return <t> { $t/B, $t/C } </t>,
        $s := $d/S/*
    return
      <Q> { for $x in $rAB, $y in ($rBC, $s)
            where $x/B = $y/B
            return <t> { $x/A, $y/C } </t> } </Q>"#;

#[test]
fn fig5_relational_side() {
    let out = eval_ra(&fig5_query(), &fig5_db()).unwrap();
    assert_eq!(out.len(), 6);
    assert_eq!(out.get_labels(&["a", "c"]), np("x1^2 + x1*x4"));
    assert_eq!(out.get_labels(&["a", "e"]), np("x1*x2"));
    assert_eq!(out.get_labels(&["d", "c"]), np("x1*x2 + x2*x4"));
    assert_eq!(out.get_labels(&["d", "e"]), np("x2^2"));
    assert_eq!(out.get_labels(&["f", "c"]), np("x3*x5"));
    assert_eq!(out.get_labels(&["f", "e"]), np("x3^2"));
}

#[test]
fn fig5_uxquery_side_matches_paper_and_prop1() {
    // run the paper's hand-written UXQuery over the encoded database
    let v = encode_database(&fig5_db());
    let out = run_query::<NatPoly>(FIG5_UXQUERY, &[("d", Value::Set(v.clone()))]).unwrap();
    let Value::Tree(q) = out else { panic!() };
    assert_eq!(q.label().name(), "Q");
    let decoded = decode_relation(q.children(), &["A", "C"]).unwrap();
    let expected = eval_ra(&fig5_query(), &fig5_db()).unwrap();
    assert_eq!(decoded, expected, "Prop 1 on Fig 5");

    // and the mechanical RA⁺→UXQuery translation agrees too
    let auto = ra_to_uxquery(&fig5_query(), &fig5_db()).unwrap();
    let out2 = eval_query(&auto, &[("d", Value::Set(v))]).unwrap();
    let Value::Set(f2) = out2 else { panic!() };
    assert_eq!(decode_relation(&f2, &["A", "C"]).unwrap(), expected);
}

// ---------------------------------------------------------------------
// Figure 6: extended annotations
// ---------------------------------------------------------------------

fn fig6_source() -> Forest<NatPoly> {
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
    .unwrap()
}

/// Build the expected Fig 6 answer tuple `<t>{<A{y1}>α</A>, <C{yc}>γ</C>}</t>`.
fn fig6_tuple(a: &str, c_ann: &str, c_val: &str, c_val_ann: &str) -> axml_uxml::Tree<NatPoly> {
    let src = format!("<t> <A {{y1}}> {a} </A> <C {{{c_ann}}}> {c_val} {{{c_val_ann}}} </C> </t>");
    parse_forest::<NatPoly>(&src)
        .unwrap()
        .trees()
        .next()
        .unwrap()
        .clone()
}

#[test]
fn fig6_extended_annotations() {
    let out = run_query::<NatPoly>(FIG5_UXQUERY, &[("d", Value::Set(fig6_source()))]).unwrap();
    let Value::Tree(q) = out else { panic!() };
    assert_eq!(q.label().name(), "Q");
    let answers = q.children();
    assert_eq!(answers.len(), 8, "Fig 6 has 8 distinguishable tuples");

    // q1..q8 exactly as printed in the paper
    let cases = [
        // (tuple, expected polynomial)
        (fig6_tuple("a", "y6", "c", "1"), "w1*x1*x4*y2*y5*z1*z6"), // q1
        (fig6_tuple("a", "y3", "c", "1"), "w1^2*x1^2*y2^2*z1^2"),  // q2
        (fig6_tuple("a", "y3", "e", "z3"), "w1^2*x1*x2*y2^2*z1*z2"), // q3
        (fig6_tuple("d", "y6", "c", "1"), "w1*x2*x4*y2*y5*z2*z6"), // q4
        (fig6_tuple("d", "y3", "c", "1"), "w1^2*x1*x2*y2^2*z1*z2"), // q5
        (fig6_tuple("d", "y3", "e", "z3"), "w1^2*x2^2*y2^2*z2^2"), // q6
        (fig6_tuple("f", "y6", "c", "1"), "w1*x3*x5*y2*y5*z4*z7"), // q7
        (fig6_tuple("f", "y3", "e", "z5"), "w1^2*x3^2*y2^2*z4^2"), // q8
    ];
    for (i, (tuple, expected)) in cases.iter().enumerate() {
        assert_eq!(
            answers.get(tuple),
            np(expected),
            "q{} mismatch for tuple {tuple}",
            i + 1
        );
    }
}

#[test]
fn fig6_collapses_to_fig5_when_extra_annotations_are_one() {
    // "we can obtain the answer shown in Figure 5 simply by setting all
    // the indeterminates except for x1..x5 to 1"
    let out = run_query::<NatPoly>(FIG5_UXQUERY, &[("d", Value::Set(fig6_source()))]).unwrap();
    let Value::Tree(q) = out else { panic!() };
    let keep = ["x1", "x2", "x3", "x4", "x5"];
    let subst: std::collections::BTreeMap<Var, NatPoly> = axml_worlds::forest_vars(q.children())
        .into_iter()
        .filter(|v| !keep.contains(&v.name()))
        .map(|v| (v, NatPoly::one()))
        .collect();
    let collapsed = axml_uxml::hom::substitute_forest(q.children(), &subst);
    let decoded = decode_relation(&collapsed, &["A", "C"]).unwrap();
    let expected = eval_ra(&fig5_query(), &fig5_db()).unwrap();
    assert_eq!(decoded, expected);
}

// ---------------------------------------------------------------------
// Figure 7: security clearances
// ---------------------------------------------------------------------

#[test]
fn fig7_security_clearances() {
    // Valuation w1 := C, x2 := S, y5 := T, rest P (= 1).
    let val = Valuation::<Clearance>::from_pairs([
        (Var::new("w1"), Clearance::C),
        (Var::new("x2"), Clearance::S),
        (Var::new("y5"), Clearance::T),
    ]);
    // Route 1 (Corollary 1): evaluate symbolically, then specialize.
    let sym = run_query::<NatPoly>(FIG5_UXQUERY, &[("d", Value::Set(fig6_source()))]).unwrap();
    let Value::Tree(q) = sym else { panic!() };
    let specialized = axml_uxml::hom::specialize_forest(q.children(), &val);

    // Route 2: specialize the source, evaluate in the clearance semiring.
    let source_c = axml_uxml::hom::specialize_forest(&fig6_source(), &val);
    let direct = run_query::<Clearance>(FIG5_UXQUERY, &[("d", Value::Set(source_c))]).unwrap();
    let Value::Tree(qc) = direct else { panic!() };
    assert_eq!(specialized, qc.children().clone(), "Corollary 1 (Fig 7)");

    // The paper's table. With all inner annotations P = 1 the trees
    // collapse to plain tuples; 6 remain.
    let answers = qc.children();
    assert_eq!(answers.len(), 6);
    let tuple = |a: &str, c: &str| {
        parse_forest::<Clearance>(&format!("<t> <A> {a} </A> <C> {c} </C> </t>"))
            .unwrap()
            .trees()
            .next()
            .unwrap()
            .clone()
    };
    assert_eq!(answers.get(&tuple("a", "c")), Clearance::C);
    assert_eq!(answers.get(&tuple("a", "e")), Clearance::S);
    assert_eq!(answers.get(&tuple("d", "c")), Clearance::S);
    assert_eq!(answers.get(&tuple("d", "e")), Clearance::S);
    assert_eq!(answers.get(&tuple("f", "c")), Clearance::T);
    assert_eq!(answers.get(&tuple("f", "e")), Clearance::C);
}

#[test]
fn fig7_visibility_consequences() {
    // "confidential clearance gives access to the first and last tuple,
    // secret clearance to all but the fifth tuple"
    use axml_semiring::clearance::ClearanceLevel;
    let clearances = [
        Clearance::C, // (a,c)
        Clearance::S, // (a,e)
        Clearance::S, // (d,c)
        Clearance::S, // (d,e)
        Clearance::T, // (f,c)
        Clearance::C, // (f,e)
    ];
    let visible_at = |lvl: ClearanceLevel| clearances.iter().filter(|c| c.visible_at(lvl)).count();
    assert_eq!(visible_at(ClearanceLevel::Confidential), 2);
    assert_eq!(visible_at(ClearanceLevel::Secret), 5);
    assert_eq!(visible_at(ClearanceLevel::TopSecret), 6);
    assert_eq!(visible_at(ClearanceLevel::Public), 0);
}

// ---------------------------------------------------------------------
// §5: possible worlds (see axml-worlds unit tests for the full set) and
// §7: shredding (see axml-relational) — cross-checked here end-to-end.
// ---------------------------------------------------------------------

#[test]
fn section7_shredding_agrees_with_fig4() {
    use axml_core::ast::{Axis, NodeTest, Step};
    let steps = [Step {
        axis: Axis::Descendant,
        test: NodeTest::Label(axml_uxml::Label::new("c")),
    }];
    let via_shred = axml_relational::eval_path_via_shredding(
        &fig4_source(),
        &axml_core::path::PathQuery::from_steps(&steps),
        &axml_uxml::Exec::default(),
    )
    .unwrap();
    let direct = axml_core::eval_step(&fig4_source(), steps[0]);
    assert_eq!(via_shred, direct);
    assert_eq!(via_shred.get(&leaf("c")), np("x1*y3 + y1*y2"));
}

#[test]
fn section5_worlds_roundtrip_through_query() {
    // The §5 pipeline at integration level: representation → symbolic
    // answer → worlds of the answer = answers of the worlds.
    let repr = parse_forest::<NatPoly>(
        "<a> <b> <a> c {fy3} d </a> </b> <c {fy1}> <d> <a> c {fy2} b </a> </d> </c> </a>",
    )
    .unwrap();
    let sym =
        run_query::<NatPoly>("element r { $T//c }", &[("T", Value::Set(repr.clone()))]).unwrap();
    let Value::Tree(t) = sym else { panic!() };
    let rhs = axml_worlds::mod_bool(&Forest::unit(t));
    let mut lhs = std::collections::BTreeSet::new();
    for w in axml_worlds::mod_bool(&repr) {
        let o = run_query::<bool>("element r { $T//c }", &[("T", Value::Set(w))]).unwrap();
        let Value::Tree(t) = o else { panic!() };
        lhs.insert(Forest::unit(t));
    }
    assert_eq!(lhs, rhs);
}
