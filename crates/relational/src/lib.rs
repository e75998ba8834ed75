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
//!   Skolem functions in heads (the §7 machinery), evaluated over the
//!   interned storage of [`term`].
//! - [mod@shred]: the encoding φ of K-UXML into an edge K-relation, the
//!   translation ψ of the §7 XPath fragment (chains, composition,
//!   union, branching predicates) into Datalog, garbage collection,
//!   and decoding — Theorem 2 end to end.
//! - [`encode`]: the Fig 5 encoding of K-relations as K-UXML and the
//!   RA⁺ → UXQuery translation — Prop 1 end to end.
//!
//! # Performance
//!
//! [`eval_datalog`] is a **semi-naive fixpoint** with **hash-indexed
//! joins** over **interned terms and columnar rows**; it closed most of
//! the 100–400× gap the naive fixpoint left against direct evaluation
//! (`shred_vs_direct/descendant_c/shredded_datalog/6`:
//! 2.29 ms → ~0.22 ms end to end; the `datalog_seminaive` bench
//! isolates the fixpoint). The design, bottom-up:
//!
//! - **Term table** ([`term::TermTable`]): labels, node ids and Skolem
//!   terms are hash-consed into dense `u32` term ids, the way
//!   `TreeArena` hash-conses trees. Value equality is id equality, so
//!   a join never hashes, compares or clones a boxed [`RelValue`].
//!   Skolem arguments are interned before their term, so arguments
//!   always have the smaller id: one forward pass over the table
//!   answers "which terms mention a retired node?" for every term.
//! - **Columnar rows** (`term.rs`): each relation inside the evaluator
//!   is a fixed-arity `Vec<u32>` of row-major cells plus a parallel
//!   annotation column, with an open-addressing row → position table
//!   for deduplication and the absorption check. Removing a few rows
//!   patches that table in place; compaction renumbers a table whose
//!   dead terms outnumber its live ones.
//! - **Conversion at the boundary**: [`eval_datalog`],
//!   [`eval_datalog_idb`] and [`eval_datalog_idb_resume`] take and
//!   return [`KRelation`]s and convert only on entry and exit; one
//!   evaluator runs in between. The incremental shredded route
//!   ([`ShreddedView`]) keeps its edge relation, retained fixpoint
//!   and result cache interned between edits and never converts.
//! - **Compiled rules** (`datalog.rs`): variables become numeric
//!   slots and rule constants term ids; each body atom is split at
//!   compile time into probe-key columns (constants and
//!   previously-bound variables), fresh bindings, and repeated-variable
//!   checks. Rule validation (unsafe heads, Skolem terms in bodies,
//!   arity/EDB conflicts) happens once, before iteration, identically
//!   for both evaluators.
//! - **`u32`-keyed probe indexes**: relations index on demand by the
//!   key columns an atom actually probes (one or two columns pack
//!   exactly into a `u64` key; wider keys hash and re-check), in a
//!   CSR layout of row positions. EDB indexes are built at most once
//!   per evaluation, IDB indexes at most once per round.
//! - **Scan-probe fallback for tiny drivers**: a rule variant whose
//!   driving (first) atom holds at most 16 tuples skips the index
//!   builds entirely and scans its keyed atoms' `u32` columns — O(Δ·n)
//!   comparisons instead of O(n) index builds per round, which is what
//!   keeps a resumed fixpoint O(Δ) in allocation under small edit
//!   deltas.
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
//! - **Parallel rounds**: with a pool context, a round's variants —
//!   and row ranges of full-scan first atoms — run as separate tasks
//!   that read the term table as a snapshot; Skolem terms a task
//!   invents get provisional ids, resolved into the table when the
//!   round's partial deltas merge.
//! - **No gratuitous copies**: `Iₙ₋₂` snapshots are kept only for
//!   predicates that appear in a non-final IDB position of some body
//!   (never, for the linear programs ψ emits); output-only predicates
//!   (ψ's `E2`) have their deltas *moved* into the iterate.
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
pub mod term;

pub use datalog::{
    eval_datalog, eval_datalog_idb, eval_datalog_idb_resume, eval_datalog_naive, Program, Rule,
};
pub use datalog_parse::parse_program;
pub use encode::{encode_database, encode_relation, ra_to_uxquery};
pub use ivm::{
    added_facts_relation, prune_retired, tuple_mentions, AddedFact, OwnedDelta, ShadowDoc,
    ShreddedView,
};
pub use krel::{KRelation, RelIndex, RelValue, Schema, Tuple};
pub use ra::{eval_ra, Database, RaExpr};
pub use shred::{
    decode, eval_path_via_shredding, garbage_collect, path_to_datalog, shred, shredded_eval_path,
    xpath_to_datalog,
};
