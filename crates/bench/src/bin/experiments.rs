//! Regenerate every figure/table of the paper and print a
//! paper-vs-measured report (markdown). `EXPERIMENTS.md` is this
//! binary's output, checked in.
//!
//! Usage: `cargo run -p axml-bench --bin experiments [-- --fig1 --fig4 …]`
//! (no flags = everything).

use axml_bench::*;
use axml_core::ast::{Axis, NodeTest, Step};
use axml_core::path::PathQuery;
use axml_core::run_query;
use axml_relational::encode::{decode_relation, encode_database};
use axml_relational::ra::{eval_ra, fig5_query, Database};
use axml_relational::{shredded_eval_path, KRelation, RelValue, Schema};
use axml_semiring::{Clearance, NatPoly, Semiring, Valuation, Var};
use axml_uxml::hom::{specialize_forest, substitute_forest};
use axml_uxml::{leaf, parse_forest, Exec, Label, Value};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |flag: &str| args.is_empty() || args.iter().any(|a| a == flag);

    println!("# EXPERIMENTS — paper vs. measured\n");
    println!("Generated by `cargo run -p axml-bench --bin experiments`.");
    println!("Every value in the **measured** column is computed by this");
    println!("repository; **paper** values are transcribed from the figure.\n");

    if want("--fig1") {
        fig1();
    }
    if want("--union") {
        section3_union();
    }
    if want("--fig4") {
        fig4();
    }
    if want("--fig5") {
        fig5();
    }
    if want("--fig6") {
        fig6();
    }
    if want("--fig7") {
        fig7();
    }
    if want("--worlds") {
        worlds();
    }
    if want("--shred") {
        shred_table();
    }
    if want("--prop2") {
        prop2();
    }
}

fn check(label: &str, paper: &str, measured: &str) {
    let ok = if paper == measured {
        "✓"
    } else {
        "✗ MISMATCH"
    };
    println!("| {label} | `{paper}` | `{measured}` | {ok} |");
}

/// Compare provenance polynomials semantically (the paper and our
/// canonical printer order terms differently).
fn check_poly(label: &str, paper: &str, measured: &NatPoly) {
    let expected: NatPoly = paper.parse().expect("paper polynomial parses");
    let ok = if &expected == measured {
        "✓"
    } else {
        "✗ MISMATCH"
    };
    println!("| {label} | `{paper}` | `{measured}` | {ok} |");
}

/// A row whose two columns are intentionally different texts; `ok`
/// carries the in-band verification result.
fn note(label: &str, paper: &str, measured: &str, ok: bool) {
    let mark = if ok { "✓" } else { "✗ MISMATCH" };
    println!("| {label} | {paper} | {measured} | {mark} |");
}

fn header(title: &str, col: &str) {
    println!("\n## {title}\n");
    println!("| {col} | paper | measured | |");
    println!("|---|---|---|---|");
}

fn fig1() {
    header("Figure 1 — simple `for` example", "answer child");
    let out = run_query::<NatPoly>(FIG1_QUERY, &[("S", Value::Set(fig1_source()))])
        .expect("fig1 evaluates");
    let Value::Tree(t) = out else { unreachable!() };
    check_poly("d", "z*x1*y1 + z*x2*y2", &t.children().get(&leaf("d")));
    check_poly("e", "z*x2*y3", &t.children().get(&leaf("e")));
}

fn section3_union() {
    header("§3 — annot/union example", "case");
    let same = run_query::<NatPoly>(
        "element b { annot {k1} (element a {()}), annot {k2} (element a {()}) }",
        &[],
    )
    .unwrap();
    let Value::Tree(t) = same else { unreachable!() };
    check_poly("a1 = a2 = a", "k1 + k2", &t.children().get(&leaf("a")));
    let diff = run_query::<NatPoly>(
        "element b { annot {k1} (element a1 {()}), annot {k2} (element a2 {()}) }",
        &[],
    )
    .unwrap();
    let Value::Tree(t) = diff else { unreachable!() };
    check(
        "a1 ≠ a2",
        "a1^k1, a2^k2",
        &format!(
            "a1^{}, a2^{}",
            t.children().get(&leaf("a1")),
            t.children().get(&leaf("a2"))
        ),
    );
}

fn fig4() {
    header("Figure 4 — XPath `//c`", "answer member");
    let out = run_query::<NatPoly>(FIG4_QUERY, &[("T", Value::Set(fig4_source()))])
        .expect("fig4 evaluates");
    let Value::Tree(t) = out else { unreachable!() };
    check_poly(
        "leaf c (q1)",
        "x1*y3 + y1*y2",
        &t.children().get(&leaf("c")),
    );
    let c_subtree = parse_forest::<NatPoly>("<c> <d> <a> c {y2} b {x2} </a> </d> </c>")
        .unwrap()
        .trees()
        .next()
        .unwrap()
        .clone();
    check_poly("c-subtree", "y1", &t.children().get(&c_subtree));
    check("answer size", "2", &t.children().len().to_string());
}

fn fig5_db() -> Database<NatPoly> {
    let p = |s: &str| s.parse::<NatPoly>().unwrap();
    let r = KRelation::from_label_rows(
        Schema::new(["A", "B", "C"]),
        [
            (vec!["a", "b", "c"], p("x1")),
            (vec!["d", "b", "e"], p("x2")),
            (vec!["f", "g", "e"], p("x3")),
        ],
    );
    let s = KRelation::from_label_rows(
        Schema::new(["B", "C"]),
        [(vec!["b", "c"], p("x4")), (vec!["g", "c"], p("x5"))],
    );
    Database::new().with("R", r).with("S", s)
}

fn fig5() {
    header("Figure 5 — Q = π_AC(π_AB(R) ⋈ (π_BC(R) ∪ S))", "tuple");
    let ra = eval_ra(&fig5_query(), &fig5_db()).unwrap();
    let rows = [
        ("a c", "x1^2 + x1*x4"),
        ("a e", "x1*x2"),
        ("d c", "x1*x2 + x2*x4"),
        ("d e", "x2^2"),
        ("f c", "x3*x5"),
        ("f e", "x3^2"),
    ];
    for (tuple, expected) in rows {
        let cols: Vec<&str> = tuple.split(' ').collect();
        check_poly(&format!("RA⁺ ({tuple})"), expected, &ra.get_labels(&cols));
    }
    // UXQuery side (Prop 1)
    let v = encode_database(&fig5_db());
    let out = run_query::<NatPoly>(FIG5_VIEW, &[("d", Value::Set(v))]).unwrap();
    let Value::Tree(q) = out else { unreachable!() };
    let dec = decode_relation(q.children(), &["A", "C"]).unwrap();
    check(
        "UXQuery over encoding = RA⁺ (Prop 1)",
        "true",
        &(dec == ra).to_string(),
    );
}

fn fig6() {
    header("Figure 6 — extended annotations", "tuple (A, C-ann, C-val)");
    let out = run_query::<NatPoly>(FIG5_VIEW, &[("d", Value::Set(fig6_source()))]).unwrap();
    let Value::Tree(q) = out else { unreachable!() };
    let answers = q.children();
    let tuple = |a: &str, c_ann: &str, c_val: &str, c_val_ann: &str| {
        parse_forest::<NatPoly>(&format!(
            "<t> <A {{y1}}> {a} </A> <C {{{c_ann}}}> {c_val} {{{c_val_ann}}} </C> </t>"
        ))
        .unwrap()
        .trees()
        .next()
        .unwrap()
        .clone()
    };
    let cases = [
        ("q1: a,y6,c", ("a", "y6", "c", "1"), "w1*x1*x4*y2*y5*z1*z6"),
        ("q2: a,y3,c", ("a", "y3", "c", "1"), "w1^2*x1^2*y2^2*z1^2"),
        (
            "q3: a,y3,e",
            ("a", "y3", "e", "z3"),
            "w1^2*x1*x2*y2^2*z1*z2",
        ),
        ("q4: d,y6,c", ("d", "y6", "c", "1"), "w1*x2*x4*y2*y5*z2*z6"),
        ("q5: d,y3,c", ("d", "y3", "c", "1"), "w1^2*x1*x2*y2^2*z1*z2"),
        ("q6: d,y3,e", ("d", "y3", "e", "z3"), "w1^2*x2^2*y2^2*z2^2"),
        ("q7: f,y6,c", ("f", "y6", "c", "1"), "w1*x3*x5*y2*y5*z4*z7"),
        ("q8: f,y3,e", ("f", "y3", "e", "z5"), "w1^2*x3^2*y2^2*z4^2"),
    ];
    for (name, (a, ca, cv, cva), expected) in cases {
        let t = tuple(a, ca, cv, cva);
        check_poly(name, expected, &answers.get(&t));
    }
    check("tuple count", "8", &answers.len().to_string());
}

fn fig7() {
    header("Figure 7 — clearances under w1:=C, x2:=S, y5:=T", "tuple");
    let val = Valuation::<Clearance>::from_pairs([
        (Var::new("w1"), Clearance::C),
        (Var::new("x2"), Clearance::S),
        (Var::new("y5"), Clearance::T),
    ]);
    let sym = run_query::<NatPoly>(FIG5_VIEW, &[("d", Value::Set(fig6_source()))]).unwrap();
    let Value::Tree(q) = sym else { unreachable!() };
    let cleared = specialize_forest(q.children(), &val);
    let tuple = |a: &str, c: &str| {
        parse_forest::<Clearance>(&format!("<t> <A> {a} </A> <C> {c} </C> </t>"))
            .unwrap()
            .trees()
            .next()
            .unwrap()
            .clone()
    };
    let rows = [
        ("a c", "C"),
        ("a e", "S"),
        ("d c", "S"),
        ("d e", "S"),
        ("f c", "T"),
        ("f e", "C"),
    ];
    for (t, expected) in rows {
        let cols: Vec<&str> = t.split(' ').collect();
        check(
            t,
            expected,
            &cleared.get(&tuple(cols[0], cols[1])).to_string(),
        );
    }
}

fn worlds() {
    header(
        "§5 — possible worlds of the Fig 4 source (x1,x2 := 1)",
        "quantity",
    );
    let repr = section5_repr();
    let input_worlds = axml_worlds::mod_bool(&repr);
    check("|Mod_B(v)|", "6", &input_worlds.len().to_string());

    let sym = run_query::<NatPoly>(FIG4_QUERY, &[("T", Value::Set(repr.clone()))]).unwrap();
    let Value::Tree(t) = sym else { unreachable!() };
    let answer_worlds = axml_worlds::mod_bool(&axml_uxml::Forest::unit(t));
    // Paper prints 6 answer displays, but its 4th (the matched
    // c-subtree without the top-level leaf c) is unrealizable: y1∧y2
    // forces the leaf c present via the y1·y2 term. The set has 5
    // elements; the strong-representation equation still holds exactly.
    note(
        "|p(Mod_B(v))| = |Mod_B(p(v))|",
        "6 displays (4th unrealizable — see note)",
        &format!("{} distinct worlds", answer_worlds.len()),
        answer_worlds.len() == 5,
    );
    let mut lhs = std::collections::BTreeSet::new();
    for w in input_worlds {
        let o = run_query::<bool>(FIG4_QUERY, &[("T", Value::Set(w))]).unwrap();
        let Value::Tree(t) = o else { unreachable!() };
        lhs.insert(axml_uxml::Forest::unit(t));
    }
    check(
        "p(Mod_B(v)) = Mod_B(p(v)) (strong repr.)",
        "true",
        &(lhs == answer_worlds).to_string(),
    );
}

fn shred_table() {
    header("§7 — shredded //c with x1 := 0", "E′ tuple");
    let subst = std::collections::BTreeMap::from([(Var::new("x1"), NatPoly::zero())]);
    let f = substitute_forest(&fig4_source(), &subst);
    let steps = [Step {
        axis: Axis::Descendant,
        test: NodeTest::Label(Label::new("c")),
    }];
    let e2 = shredded_eval_path(&f, &PathQuery::from_steps(&steps), &Exec::default())
        .expect("datalog converges");

    // the two root tuples with their annotations, as in the paper
    let mut roots: Vec<String> = e2
        .iter()
        .filter(|(t, _)| t[0] == RelValue::Node(0))
        .map(|(t, k)| format!("(0, {}, {}) @ {}", t[1], t[2], k))
        .collect();
    roots.sort();
    check("root count", "2", &roots.len().to_string());
    check(
        "root annotations",
        "{y1, y1*y2}",
        &format!("{{{}}}", {
            let mut anns: Vec<String> = e2
                .iter()
                .filter(|(t, _)| t[0] == RelValue::Node(0))
                .map(|(_, k)| k.to_string())
                .collect();
            anns.sort();
            anns.join(", ")
        }),
    );
    let clean = axml_relational::garbage_collect(&e2);
    check(
        "garbage removed (paper: \"additional step required\")",
        "yes",
        if clean.len() < e2.len() { "yes" } else { "no" },
    );
    let direct = axml_core::eval_step(&f, steps[0]);
    let decoded = axml_relational::decode(&clean).expect("forest-shaped");
    check(
        "Theorem 2 (decode = direct)",
        "true",
        &(decoded == direct).to_string(),
    );

    println!("\nFull E′ table (measured):\n```");
    for (t, k) in e2.iter() {
        println!(
            "pid={:<12} nid={:<12} label={:<4} @ {}",
            t[0].to_string(),
            t[1].to_string(),
            t[2].to_string(),
            k
        );
    }
    println!("```");
}

fn prop2() {
    header(
        "Prop 2 — provenance size is O(|v|^|p|)",
        "workload (|v| nodes, |p| steps)",
    );
    for (size, steps_n) in [
        (16usize, 1usize),
        (16, 2),
        (64, 1),
        (64, 2),
        (64, 3),
        (256, 2),
    ] {
        let v = random_annotated_forest(42, size);
        let mut q = String::from("$S");
        for _ in 0..steps_n {
            q.push_str("/descendant::*");
        }
        let out = run_query::<NatPoly>(&q, &[("S", Value::Set(v.clone()))]).unwrap();
        let Value::Set(f) = out else { unreachable!() };
        let max_size = f.iter().map(|(_, k)| k.size()).max().unwrap_or(0);
        let v_nodes = v.size();
        let bound = (v_nodes as u64).saturating_pow(steps_n as u32 + 1);
        note(
            &format!("|v|={v_nodes}, |p|={steps_n} descendant steps"),
            &format!(r"≤ \|v\|^(\|p\|+1) = {bound}"),
            &format!("max poly size {max_size}"),
            (max_size as u64) <= bound,
        );
    }
    println!("\n(The bound is the paper's O(|v|^|p|) with the constant made");
    println!("explicit as exponent |p|+1; the shape — polynomial in |v|,");
    println!("exponential only in query size — is what Prop 2 claims.)");
}
