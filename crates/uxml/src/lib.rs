//! K-annotated unordered XML (K-UXML), §3 of Foster, Green & Tannen,
//! *Annotated XML: Queries and Provenance* (PODS 2008).
//!
//! Fixing a commutative semiring `K`, the data model replaces the
//! sibling *lists* of standard XML with K-annotated *sets*:
//!
//! - a **value** is a label, a tree, or a K-set of trees;
//! - a **tree** is a label together with a finite (possibly empty)
//!   K-set of trees as its children;
//! - a **finite K-set of trees** is a function from trees to `K` such
//!   that all but finitely many trees map to `0`.
//!
//! With `K = 𝔹` this is plain unordered XML (UXML); with `K = ℕ` it is
//! unordered XML with repetitions; with `K = ℕ[X]` every subtree carries
//! a provenance polynomial.
//!
//! # Identity is by value
//!
//! A `K`-set is a *function from trees*: two structurally equal subtrees
//! under the same parent are the **same** element and their annotations
//! add. This is the source of the sums in the paper's figures (e.g. the
//! `z·x1·y1 + z·x2·y2` annotation in Figure 1 arises because the two
//! `d` leaves are one value). [`Tree`] therefore compares, orders and
//! hashes by value, with an `Arc` pointer fast path.
//!
//! # Performance: cached structural fingerprints
//!
//! Value identity makes every `BTreeMap<Tree, K>` operation compare
//! trees, so each `Arc`'d node caches a structural hash and its
//! subtree size at construction. `Tree`'s `Ord` leads with the cached
//! `(size, hash)` pair — map lookups resolve almost every comparison
//! in O(1) instead of an O(|v|) walk — and falls back to structure
//! only on fingerprint collisions, staying consistent with `Eq`.
//! User-facing orders (printing, DFS numbering in the shredder) use
//! [`Tree::cmp_document`] / [`tree::Forest::iter_document`], which
//! sort by label name and structure and are stable across processes;
//! every such sort is [`tree::sort_document`], keyed once per item on
//! `(label name, size)` so the structural comparison runs only on ties.
//! Forests also carry the in-place accumulator ops
//! ([`tree::Forest::union_with`], [`tree::Forest::scalar_mul_in_place`],
//! [`tree::Forest::extend_scaled`]) that the evaluators use instead of
//! functional rebuilds.
//!
//! # Performance: arena storage and content-addressed sharing
//!
//! For *resident* documents (the `axml` engine's document store) the
//! pointer-tree representation is complemented by [`arena::TreeArena`],
//! a columnar arena: one flat row per **distinct** subtree (label,
//! fingerprint, size, child span), children as contiguous index ranges
//! in side arrays, and the canonical `Arc` handle in a parallel column.
//! Interning hash-conses on the same `(size, hash)` fingerprint `Ord`
//! leads with — equal subtrees get equal [`arena::NodeId`]s, within
//! *and across* documents, with a full structural verify on fingerprint
//! collisions so colliding subtrees are never conflated. Child ids are
//! always smaller than the parent's, so
//! [`arena::TreeArena::descendant_closure`] is one dense descending
//! scan over an id-indexed weight vector — the annotation-weighted
//! descendant sweep with no hashing and no heap. Rebuilding a forest
//! from canonical handles ([`arena::TreeArena::canonical_forest`])
//! maximizes `Arc` sharing, which the pointer-equality fast paths and
//! the pointer-keyed memo in [`arena::intern_forest_mapped`] (fused
//! semiring specialization) then exploit. The occurrence-level
//! counterpart for transient values is
//! [`tree::weighted_descendant_closure`], which deduplicates by value
//! on the fly and visits each distinct subtree once.
//!
//! # Parsing and printing
//!
//! [`parse::parse_forest`] reads a document-style syntax with optional
//! `{…}` annotations:
//!
//! ```text
//! <a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>
//! ```
//!
//! Annotations are parsed by the target semiring (via
//! [`parse::ParseAnnotation`]); for ℕ\[X\] any polynomial expression is
//! accepted, so a document parsed in ℕ\[X\] can be pushed into *any*
//! semiring with a valuation — the paper's universality recipe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod hom;
pub mod label;
pub mod parse;
pub mod print;
pub mod stream;
pub mod tree;

pub use arena::{NodeId, TreeArena};
pub use label::Label;
pub use parse::{parse_forest, parse_tree, parse_value, ParseAnnotation};
pub use stream::{
    BudgetExceeded, BudgetKind, CollectSink, Exec, NodeBudget, ResultSink, SinkClosed, StreamError,
    Streamed,
};
pub use tree::{
    coalesce_document, expand_sweep_seeds, leaf, sort_document, tree, weighted_descendant_closure,
    Forest, SweepSeeds, Tree, Value,
};

// Thread-safety audit (PR 5): documents are `Arc`-shared across the
// worker pool and label interning is hit from every worker, so the
// whole data model must be `Send + Sync` — pinned at compile time here
// (the `Label` pool itself is a lock-guarded index of leaked strings
// with a lock-free `NameTable` read side; a future non-`Sync` cache
// field on `Tree` would fail this build).
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Label>();
    assert_send_sync::<Tree<axml_semiring::NatPoly>>();
    assert_send_sync::<Forest<axml_semiring::NatPoly>>();
    assert_send_sync::<Value<axml_semiring::NatPoly>>();
};

/// Commonly used items.
pub mod prelude {
    pub use crate::label::Label;
    pub use crate::parse::{parse_forest, parse_tree, parse_value, ParseAnnotation};
    pub use crate::tree::{leaf, tree, Forest, Tree, Value};
}
