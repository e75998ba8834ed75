//! K-relations, the positive relational algebra, semiring Datalog with
//! Skolem functions, and the shredding semantics of §7 of Foster,
//! Green & Tannen (PODS 2008).
//!
//! This crate provides the *relational* side of the paper:
//!
//! - [`krel`]: K-relations (tuples annotated with semiring elements) —
//!   the model of Green–Karvounarakis–Tannen \[16\] that the paper
//!   extends to XML.
//! - [`ra`]: the positive relational algebra RA⁺ over K-relations (the
//!   baseline for Prop 1/Prop 4 and Fig 5).
//! - [`datalog`]: positive Datalog with semiring-annotated facts and
//!   Skolem functions in heads (the §7 machinery).
//! - [mod@shred]: the encoding φ of K-UXML into an edge K-relation, the
//!   translation ψ of the §7 XPath fragment (chains, composition,
//!   union, branching predicates) into Datalog, garbage collection,
//!   and decoding — Theorem 2 end to end.
//! - [`encode`]: the Fig 5 encoding of K-relations as K-UXML and the
//!   RA⁺ → UXQuery translation — Prop 1 end to end.
//!
//! # Performance
//!
//! PR 3 rebuilt the Datalog evaluator around **semi-naive fixpoint**
//! with **hash-indexed joins**; [`eval_datalog`] closed most of the
//! 100–400× gap the naive fixpoint left against direct evaluation
//! (`shred_vs_direct/descendant_c/shredded_datalog/6`:
//! 2.29 ms → ~0.22 ms end to end; the `datalog_seminaive` bench
//! isolates the fixpoint). The design, bottom-up:
//!
//! - **Compiled rules** (`datalog.rs`): variables become numeric
//!   slots; each body atom is split at compile time into probe-key
//!   columns (constants and previously-bound variables), fresh
//!   bindings, and repeated-variable checks. Rule validation (unsafe
//!   heads, Skolem terms in bodies, arity/EDB conflicts) happens once,
//!   before iteration, identically for both evaluators.
//! - **Bound-column hash indexes** ([`KRelation::index_on`] /
//!   [`RelIndex`]): relations index on demand by the probe-key
//!   signature an atom actually uses; EDB indexes are built once per
//!   evaluation, IDB indexes once per round. `ra.rs`'s natural join
//!   shares the same index.
//! - **Scan-probe fallback for tiny drivers**: a rule variant whose
//!   driving (first) atom holds at most 16 tuples skips the per-round
//!   index builds entirely and scans its keyed atoms with key-column
//!   filtering — O(Δ·n) comparisons instead of O(n) allocations per
//!   round, which is what keeps a resumed fixpoint
//!   ([`eval_datalog_idb_resume`]) O(Δ) in allocation under small
//!   edit deltas.
//! - **Exact delta partition**: round n derives only depth-n
//!   derivation trees — every rule with m IDB atoms runs in m
//!   variants (prefix positions read `Iₙ₋₂`, the pivot reads `Δₙ₋₁`,
//!   the suffix reads `Iₙ₋₁`), so annotations are never
//!   double-counted in non-idempotent semirings like ℕ\[X\].
//! - **Absorption pruning at the join**: a contribution with
//!   `I[t] + k = I[t]` is dropped before it is ever materialized —
//!   this is what terminates recursion over cyclic data in idempotent
//!   semirings (PosBool, Tropical, Why, Prob) and costs nothing in
//!   zero-sum-free ones (absorbed ⇔ zero).
//! - **No gratuitous copies**: `Iₙ₋₂` snapshots are kept only for
//!   predicates that appear in a non-final IDB position of some body
//!   (never, for the linear programs ψ emits); output-only predicates
//!   (ψ's `E2`) have their deltas *moved* into the iterate; Skolem
//!   names are interned [`axml_uxml::Label`]s so the `f(·)` values ψ
//!   materializes per copied node are cheap to clone and id-fast to
//!   compare.
//!
//! The naive recompute-everything fixpoint survives as
//! [`eval_datalog_naive`], deliberately untouched: it is the
//! independent reference the `tests/seminaive.rs` property tests (and
//! the `datalog_seminaive` benchmark) compare against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datalog;
pub mod datalog_parse;
pub mod encode;
pub mod ivm;
pub mod krel;
pub mod ra;
pub mod shred;

pub use datalog::{
    eval_datalog, eval_datalog_idb, eval_datalog_idb_resume, eval_datalog_naive, Program, Rule,
};
pub use datalog_parse::parse_program;
pub use encode::{encode_database, encode_relation, ra_to_uxquery};
pub use ivm::{
    added_facts_relation, prune_retired, tuple_mentions, AddedFact, OwnedDelta, ResultCache,
    ShadowDoc,
};
pub use krel::{KRelation, RelIndex, RelValue, Schema, Tuple};
pub use ra::{eval_ra, Database, RaExpr};
pub use shred::{
    decode, eval_path_via_shredding, garbage_collect, path_to_datalog, shred, shredded_eval_path,
    xpath_to_datalog,
};
