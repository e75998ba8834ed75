//! # axml — the engine facade for annotated-XML query evaluation
//!
//! One front door for the whole workspace: parse documents **once**,
//! compile queries **once**, then evaluate any number of times with the
//! semiring and the evaluation route chosen **per call** — the
//! "one annotated evaluation, many interpretations" shape that
//! Prop. 2 / Corollary 1 of Foster, Green & Tannen (PODS 2008) make
//! sound.
//!
//! ```text
//!                ┌───────────────── Engine ─────────────────┐
//!  xml text ──▶  │ load_document: parse once → ℕ[X] forest  │
//!                │         (Arc-shared, per-kind arenas)    │
//!                └──────────────────┬───────────────────────┘
//!                                   │ bind $X ↦ document "X"
//!  query text ─▶ prepare ──────────▶│◀────────── EvalOptions
//!   parse → elaborate → compile     │    SemiringKind × Route × EvalMode
//!   (once, symbolically in ℕ[X])    ▼
//!                          PreparedQuery::eval
//!                   ┌───────────┼─────────────┬──────────────┐
//!                   ▼           ▼             ▼              ▼
//!                Direct      ViaNrc        Shredded      Differential
//!             (compiled    (compiled     (§7: shred →   (2–3 routes ×
//!              slot plan;   NRC_K + srt   Datalog →      compiled+interp,
//!              K-UXML)      slot plan)    decode)        assert agreement)
//!                   └───────────┴─────────────┴──────────────┘
//!                                   │
//!                                   ▼
//!                    AxmlResult (value in the chosen semiring)
//! ```
//!
//! Two ways to reach a semiring (`EvalMode`): specialize inputs first
//! and evaluate natively (`InSemiring`), or evaluate once over ℕ\[X\]
//! and push the *result* through the homomorphism
//! (`ProvenanceFirst`) — Theorem 1 says they agree, and
//! `Route::Differential` will check it on demand.
//!
//! ## The direct route
//!
//! ```
//! use axml::{Engine, EvalOptions, SemiringKind};
//!
//! let engine = Engine::new();
//! // Figure 1 of the paper; annotations are ℕ[X] provenance tokens.
//! engine
//!     .load_document("S", "<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>")
//!     .unwrap();
//!
//! // Compiled once; evaluated twice, in two different semirings.
//! let grandchildren = engine
//!     .prepare("element p { for $t in $S return for $x in ($t)/child::* return ($x)/child::* }")
//!     .unwrap();
//!
//! let sym = grandchildren.eval(&engine, EvalOptions::new()).unwrap();
//! assert!(sym.to_string().contains("x2*y2*z + x1*y1*z"));
//!
//! let bags = grandchildren
//!     .eval(&engine, EvalOptions::new().semiring(SemiringKind::Nat))
//!     .unwrap();
//! assert_eq!(bags.to_string(), "<p> d {2} e </p>");
//! ```
//!
//! ## The compilation route (`NRC_K + srt`)
//!
//! ```
//! use axml::{Engine, EvalOptions, Route};
//!
//! let engine = Engine::new();
//! engine.load_document("S", "<r> a {x} a {y} </r>").unwrap();
//! let q = engine.prepare("$S/*").unwrap();
//!
//! // §6.3: elaborate → compile to NRC_K+srt → evaluate there.
//! let via_nrc = q
//!     .eval(&engine, EvalOptions::new().route(Route::ViaNrc))
//!     .unwrap();
//! assert_eq!(via_nrc.to_string(), "(a {y + x})");
//! ```
//!
//! ## The relational route (§7 shredding)
//!
//! ```
//! use axml::{Engine, EvalOptions, Route};
//!
//! let engine = Engine::new();
//! engine
//!     .load_document("T", "<a> <b {x1}> c {y3} </b> c {y1} </a>")
//!     .unwrap();
//!
//! // Queries in the §7 XPath fragment — navigation chains, step
//! // composition, union, branching predicates, label tests — have a
//! // relational translation: shred to an edge K-relation, run the
//! // (semi-naive) Datalog program, decode.
//! let q = engine.prepare("$T//c").unwrap();
//! assert!(q.is_shreddable());
//! let shredded = q
//!     .eval(&engine, EvalOptions::new().route(Route::Shredded))
//!     .unwrap();
//! assert_eq!(shredded.to_string(), "(c {y1 + x1*y3})");
//!
//! // Outside the fragment the route reports *which* construct has no
//! // relational translation (`AxmlError::UnsupportedRoute`).
//! let not_shreddable = engine.prepare("element r { $T//c }").unwrap();
//! assert!(not_shreddable.shred_ineligibility().unwrap().contains("element constructor"));
//! ```
//!
//! ## The differential route (debugging tool)
//!
//! ```
//! use axml::{Engine, EvalOptions, Route, SemiringKind};
//!
//! let engine = Engine::new();
//! engine.load_document("S", "<a> b {w} b {w} </a>").unwrap();
//!
//! // Evaluate by several independent semantics and assert they agree
//! // (Route::Shredded joins in because this is a step chain); any
//! // disagreement surfaces as AxmlError::RouteDisagreement.
//! let q = engine.prepare("$S/b").unwrap();
//! let out = q
//!     .eval(
//!         &engine,
//!         EvalOptions::new()
//!             .route(Route::Differential)
//!             .semiring(SemiringKind::Trio),
//!     )
//!     .unwrap();
//! assert_eq!(out.kind(), SemiringKind::Trio);
//! ```
//!
//! ## Parallelism
//!
//! Evaluation is embarrassingly parallel along three axes, and the
//! facade exposes all three (scheduling onto [`axml_pool::Pool`] — a
//! std-only scoped worker pool; no crates.io dependencies):
//!
//! 1. **Across queries** — [`Engine::eval_batch`] takes a slice of
//!    `(&PreparedQuery, EvalOptions)` entries and returns one
//!    `Result` per entry, in order; a failing entry never poisons the
//!    batch. [`Engine::eval_batch_on`] pins an explicit pool.
//! 2. **Across documents** — [`Engine::eval_many_docs`] fans one
//!    prepared query over many named documents (every free variable
//!    binds the same document per entry).
//! 3. **Inside one query** — `EvalOptions::parallel(n)` (or
//!    [`EvalOptions::parallelism`]) turns on intra-query fan-out:
//!    descendant sweeps over large documents chunk across top-level
//!    subtrees, the relational route's semi-naive Datalog rounds
//!    partition their joins, and `Route::Differential` runs its 2–3
//!    evaluation legs concurrently.
//!
//! The default is [`Parallelism::sequential`] everywhere: a
//! single-threaded caller executes exactly the pre-parallelism code
//! paths. Parallel and sequential evaluation are differentially
//! tested to be **identical** — same values, same rendered text, same
//! errors (the K-set merge operators are commutative/associative, so
//! chunked accumulation cannot reorder observable results).
//!
//! ```
//! use axml::{Engine, EvalOptions, SemiringKind};
//! let engine = Engine::new();
//! engine.load_document("S", "<a> b {x} b {y} </a>").unwrap();
//! let q = engine.prepare("$S/b").unwrap();
//! let batch = [
//!     (&q, EvalOptions::new()),
//!     (&q, EvalOptions::new().semiring(SemiringKind::Nat).parallel(4)),
//! ];
//! let results = engine.eval_batch(&batch);
//! assert_eq!(results[0].as_ref().unwrap().to_string(), "(b {y + x})");
//! assert_eq!(results[1].as_ref().unwrap().to_string(), "(b {2})");
//! ```
//!
//! ## Streaming and budgets
//!
//! [`PreparedQuery::eval_stream`] evaluates to an [`EvalCursor`]: a
//! pull iterator over the top-level `(tree, annotation)` pieces of a
//! set-shaped result (scalar results arrive as one item). On the
//! incremental combinations — `InSemiring` mode on the `Direct` or
//! `ViaNrc` route — a detached producer thread pushes pieces through a
//! bounded channel ([`STREAM_BUFFER_PIECES`]) as the evaluation
//! produces them: root shapes whose pieces are provably final on
//! emission (self-axis filters, child steps over a singleton source,
//! bare inputs) stream truly lazily, and the producer never runs more
//! than one buffer ahead of the consumer; dropping the cursor cancels
//! it. Every other combination materializes and then cursors, so
//! collecting a stream is **always** equal to the one-shot
//! [`PreparedQuery::eval`] — same pieces, same document order, same
//! errors (property-tested across all 7 semirings × 4 routes × both
//! modes). [`AxmlResult::pieces`] gives the same piece view of an
//! already-materialized result without matching its 7 variants.
//!
//! [`PreparedQuery::eval_each`] is the push form underneath: it runs
//! the same evaluation on the **calling** thread, on the caller's pool,
//! and hands each final piece to a callback as a borrowed
//! [`ResultPieceRef`] — no thread, no channel, no copy. A callback
//! returning [`SinkClosed`] stops the evaluation. The cursor's
//! producer thread is `eval_each` with a channel-forwarding callback;
//! the HTTP server calls it directly.
//!
//! Per-call limits live on [`EvalOptions`]: `deadline`/`timeout`
//! (wall-clock) and [`EvalOptions::memory_budget`] (a cap on
//! evaluation-allocated tree nodes, one shared counter across parallel
//! legs and streaming producers). Each call arms them once, with its
//! pool context, into one [`axml_uxml::Exec`] that every layer takes
//! by reference; both are checked at plan-op and streamed-piece
//! boundaries, memo closures and fixpoint rounds, and the deadline
//! also at every route start. Tripping either is a typed
//! [`AxmlError::Budget`] whose [`BudgetKind`] distinguishes wall-clock
//! from memory — never a panic and never a truncated-but-`Ok` result;
//! on a live stream the trip arrives in-band as the cursor's final
//! item. The HTTP server maps the two to 504 and 507, streams `/eval`
//! pieces pushed by `eval_each` (first byte before the evaluation
//! finishes), and windows the piece stream with `limit`/`offset`; the
//! CLI's `query --stream` prints pieces as they surface,
//! byte-identical to its one-shot `--format json` output.
//!
//! ## Incrementality under document churn
//!
//! [`Engine::edit_document`] applies an [`edit::EditScript`] of
//! subtree ops (splice / relabel / insert / delete / reannotate,
//! addressed by child-index paths) to a loaded document. The edit is
//! threaded through the hash-consing arena — only the new spine is
//! interned; untouched siblings re-share — and records a ±Δ over the
//! document's shredded edge facts. Evaluations of an edited document
//! then take per-route incremental paths:
//!
//! - **Shredded route (delta propagation).** For a filter-free path
//!   query, the engine keeps the query's last Datalog fixpoint. On
//!   re-evaluation it prunes every IDB tuple that mentions a retired
//!   node id (recursively, through Skolem arguments) and resumes the
//!   semi-naive iteration from the Δ-added facts alone. This is exact
//!   because edits allocate **fresh node ids** (an added fact can
//!   never resurrect a retired id) and the ψ translation of
//!   filter-free queries retains every body variable in each head, so
//!   the pruned IDB *is* the fixpoint of the program over the pruned
//!   EDB. The decoded result forest is maintained alongside the
//!   fixpoint (`axml_relational::ResultCache`), patched by the same
//!   ±Δ id sets — so past the fixed per-call costs an edit pays O(Δ),
//!   not another gc + decode over the whole result encoding.
//!   Queries **with filters** skip the IDB resume (a filter head
//!   drops variables, so pruning is not exact) but still reuse the
//!   incrementally-maintained edge relation, skipping the re-shred.
//!   Never-edited documents keep their views too: the first shredded
//!   read shreds the stored version once, and a repeat read at the
//!   same version is a clone of the kept result.
//! - **Direct / via-NRC routes (fingerprint memoization).** Path
//!   evaluation consults a per-`(document × query × semiring)` memo
//!   keyed on the subtree's `(size, hash)` structural fingerprint —
//!   the same value identity the arena hash-conses on. A memo entry
//!   keys on the subtree **value**, never its position, so entries
//!   stay valid across arbitrary edits with no invalidation protocol:
//!   after an edit only the fresh spine misses. `eval_with`,
//!   `eval_each` (the server's push path) and the streaming cursor
//!   all take the memo. Its tables are bounded by the live document:
//!   subtrees under 16 nodes are not stored, and a sweep drops the
//!   values of edited-away spines once the tables double.
//!
//! Soundness is continuously cross-checked: `Route::Differential`
//! runs the memoized evaluator as an extra leg and asserts
//! byte-identical agreement with the stateless ones, and the `churn`
//! property suite drives random edit scripts comparing an edited
//! engine against a from-scratch engine across all 7 semirings × 4
//! routes × both modes. Replacing a document (`load_document` over an
//! existing name) atomically drops every piece of derived state and
//! resets the edit lineage. [`Engine::storage_stats`] reports the
//! [`IncrStats`] counters (edits applied, spine nodes interned,
//! Δ facts, memo hits/misses, the `memo_entries` gauge, incremental
//! vs fallback evaluations).
//!
//! Under the hood the document store is **sharded**
//! ([`STORE_SHARDS`] independently-locked maps keyed by name hash), so
//! concurrent load/remove/eval traffic on different documents never
//! serializes on one lock. A document is specialized to another
//! semiring through that kind's hash-consing arena, whose image memo
//! is the only specialization cache: the first read in a kind maps
//! the whole document, the first read after an edit maps only the
//! new spine, and a repeat read costs a root lookup under the arena's
//! lock. Evaluation itself holds no lock.
//!
//! The statically-generic layers stay public (`axml-core`,
//! `axml-nrc`, `axml-relational`, …) for compile-time-`K` callers;
//! this crate is the runtime face the examples, the CLI and future
//! server front ends build on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cursor;
mod dispatch;
pub mod edit;
mod engine;
mod error;
mod incr;
pub mod json;
mod options;
mod prepared;
mod registry;
mod result;

pub use axml_pool::{global_stats as scheduler_stats, Lane, Pool, PoolStats};
pub use axml_uxml::SinkClosed;
pub use cursor::{EvalCursor, StreamItem, STREAM_BUFFER_PIECES};
pub use edit::{EditOp, EditScript};
pub use engine::{EditStats, Engine, StorageStats, STORE_SHARDS};
pub use error::{AxmlError, BudgetKind, SourceSpan};
pub use incr::IncrStats;
pub use options::{EvalMode, EvalOptions, Parallelism, Route, SemiringKind};
pub use prepared::PreparedQuery;
pub use registry::{query_handle, QueryRegistry, DEFAULT_CAPACITY as REGISTRY_DEFAULT_CAPACITY};
pub use result::{AxmlResult, ResultPiece, ResultPieceRef};

/// Commonly used items.
pub mod prelude {
    pub use crate::{
        AxmlError, AxmlResult, BudgetKind, Engine, EvalCursor, EvalMode, EvalOptions, Parallelism,
        Pool, PreparedQuery, QueryRegistry, Route, SemiringKind, StreamItem,
    };
}
