//! K-UXQuery — the query language for semiring-annotated unordered XML
//! (the primary contribution of Foster, Green & Tannen, *Annotated XML:
//! Queries and Provenance*, PODS 2008).
//!
//! The pipeline:
//!
//! ```text
//!  text ──parse──▶ SurfaceExpr ──elaborate──▶ Query (typed core)
//!                                              │            │
//!                                       compile│            │eval_core
//!                                              ▼            ▼
//!                                    NRC_K + srt ──eval──▶ K-complex value
//! ```
//!
//! Two independent semantics are provided and differentially tested:
//! the **compilation semantics** (§6.3, via `axml-nrc`) and a **direct
//! evaluator** over K-UXML. A third, the relational shredding of §7,
//! lives in `axml-relational`.
//!
//! # This crate is the statically-generic layer
//!
//! Everything here is generic over a compile-time `K: Semiring`.
//! Applications that want to choose the semiring (and the evaluation
//! route) *at runtime* — and to parse documents and compile queries
//! once rather than per call — should use the `axml` facade crate
//! instead: its `Engine`/`PreparedQuery` API dispatches to the
//! functions in this crate and caches every per-semiring artifact.
//! The helpers below ([`eval_query`], [`eval_query_nrc`],
//! [`run_query`]) remain the one-call entry points for code that
//! already knows its `K` — tests, benchmarks and embedded uses.
//!
//! # Quickstart (compile-time `K`)
//!
//! ```
//! use axml_core::{eval_query, parse_query};
//! use axml_semiring::NatPoly;
//! use axml_uxml::{parse_forest, Value};
//!
//! // Figure 1 of the paper.
//! let source = parse_forest::<NatPoly>(
//!     "<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>",
//! ).unwrap();
//! let q = parse_query::<NatPoly>(
//!     "element p { for $t in $S return \
//!        for $x in ($t)/child::* return ($x)/child::* }",
//! ).unwrap();
//! let answer = eval_query(&q, &[("S", Value::Set(source))]).unwrap();
//! // p[ d^{z·x1·y1 + z·x2·y2}, e^{z·x2·y3} ] — variables print in
//! // canonical (name) order:
//! assert!(answer.to_string().contains("x2*y2*z + x1*y1*z"));
//! ```
//!
//! The same query through the facade (one parse, one compile, any
//! number of evaluations in any semiring):
//!
//! ```text
//! let engine = axml::Engine::new();
//! engine.load_document("S", "<a {z}> … </a>")?;
//! let q = engine.prepare("element p { for $t in $S return … }")?;
//! let symbolic = q.eval(&engine, EvalOptions::new())?;                    // ℕ[X]
//! let bags = q.eval(&engine, EvalOptions::new().semiring(SemiringKind::Nat))?;
//! ```
//!
//! # Robustness
//!
//! [`parse_query`] and [`elaborate`] never panic on malformed input:
//! parse errors carry byte offsets, nesting depth is capped (a
//! recursive-descent parser would otherwise be stack-overflowable by
//! `((((…`), and elaboration guards its own recursion so even
//! hand-built pathological ASTs fail with a [`TypeError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod eval;
pub mod hom;
pub mod parse;
pub mod path;
pub mod plan;
pub mod typecheck;

pub use ast::{Axis, ElementName, NodeTest, QType, Query, QueryNode, Step, SurfaceExpr};
pub use compile::{compile, compile_step};
pub use eval::{eval_core, eval_step, eval_step_ctx, EvalError, QueryEnv};
pub use parse::{parse_query, ParseError};
pub use path::{
    eval_path, eval_path_memo, extract_path, Ineligible, PathMemo, PathQuery, MEMO_MIN_NODES,
};
pub use plan::{CompiledQuery, PAR_FOR_MIN_BINDERS};
pub use typecheck::{elaborate, elaborate_in, Context, TypeError};

use axml_semiring::Semiring;
use axml_uxml::Value;

/// Errors from the end-to-end helpers.
#[derive(Debug)]
pub enum QueryError {
    /// The query text did not parse.
    Parse(ParseError),
    /// The query did not typecheck/elaborate.
    Type(TypeError),
    /// Evaluation failed (e.g. unbound input variable).
    Eval(EvalError),
    /// NRC-route evaluation failed.
    Nrc(axml_nrc::EvalError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Type(e) => write!(f, "{e}"),
            QueryError::Eval(e) => write!(f, "{e}"),
            QueryError::Nrc(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Evaluate a surface query against named UXML inputs using the
/// **direct** semantics.
pub fn eval_query<K: Semiring>(
    q: &SurfaceExpr<K>,
    inputs: &[(&str, Value<K>)],
) -> Result<Value<K>, QueryError> {
    let core = elaborate(q).map_err(QueryError::Type)?;
    eval::eval_with(&core, inputs).map_err(QueryError::Eval)
}

/// Evaluate a surface query using the **compilation** semantics
/// (elaborate → compile to NRC_K+srt → evaluate → convert back).
pub fn eval_query_nrc<K: Semiring>(
    q: &SurfaceExpr<K>,
    inputs: &[(&str, Value<K>)],
) -> Result<Value<K>, QueryError> {
    let core = elaborate(q).map_err(QueryError::Type)?;
    let expr = compile(&core);
    let mut env = axml_nrc::Env::from_bindings(
        inputs
            .iter()
            .map(|(n, v)| ((*n).to_owned(), axml_nrc::CValue::from_uxml(v))),
    );
    let out = axml_nrc::eval(&expr, &mut env).map_err(QueryError::Nrc)?;
    out.to_uxml().ok_or_else(|| {
        QueryError::Nrc(axml_nrc::EvalError {
            msg: "query produced a non-UXML complex value".into(),
            at: expr.to_string(),
            budget: None,
        })
    })
}

/// Compile a typed core query to NRC and normalize it with the
/// equational axioms of Prop 5 (`axml_nrc::axioms::simplify`) — the
/// rewrites remove the identity big-unions and singleton redexes the
/// compiler emits. Semantics-preservation is property-tested in
/// `tests/differential.rs`; the performance effect is measured by the
/// `optimizer_ablation` bench.
pub fn compile_optimized<K: Semiring>(q: &Query<K>) -> axml_nrc::Expr<K> {
    axml_nrc::axioms::simplify(&compile(q))
}

/// Parse + evaluate in one call (direct semantics).
pub fn run_query<K: Semiring + axml_uxml::ParseAnnotation>(
    src: &str,
    inputs: &[(&str, Value<K>)],
) -> Result<Value<K>, QueryError> {
    let q = parse_query::<K>(src).map_err(QueryError::Parse)?;
    eval_query(&q, inputs)
}

/// Commonly used items.
pub mod prelude {
    pub use crate::ast::{Axis, NodeTest, QType, Query, Step, SurfaceExpr};
    pub use crate::{compile, elaborate, eval_query, eval_query_nrc, parse_query, run_query};
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_semiring::NatPoly;
    use axml_uxml::parse_forest;

    #[test]
    fn run_query_end_to_end() {
        let src = parse_forest::<NatPoly>("a {x} b {y}").unwrap();
        let out = run_query::<NatPoly>("$S/self::a", &[("S", Value::Set(src))]).unwrap();
        let Value::Set(f) = out else { panic!() };
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn both_semantics_exposed() {
        let src = parse_forest::<NatPoly>("<r> a {x} </r>").unwrap();
        let q = parse_query::<NatPoly>("$S/*").unwrap();
        let d = eval_query(&q, &[("S", Value::Set(src.clone()))]).unwrap();
        let n = eval_query_nrc(&q, &[("S", Value::Set(src))]).unwrap();
        assert_eq!(d, n);
    }

    #[test]
    fn error_display() {
        let e = run_query::<NatPoly>("for $x in", &[]).unwrap_err();
        assert!(e.to_string().contains("parse error"));
        let q = parse_query::<NatPoly>("name($S)").unwrap();
        let e2 = eval_query(&q, &[]).unwrap_err();
        assert!(e2.to_string().contains("type error"));
    }
}
