//! The [`Engine`]: a named store of parsed documents plus the
//! `prepare` entry point and the batch scheduling APIs.
//!
//! Documents are parsed **once**, into ℕ\[X\] — the universal
//! annotation semiring — and shared via `Arc`. When a query asks for
//! a different [`SemiringKind`], the engine pushes the document
//! through the canonical homomorphism into that kind's hash-consing
//! arena.
//! The arena is the only specialization cache: its image memo
//! remembers the image of every ℕ\[X\] subtree it has seen, so a
//! document is mapped whole only on its first read in a kind, an
//! edited version maps only its new spine, and a repeat read costs
//! one memo lookup per root. Steady-state evaluation never re-parses
//! or re-specializes anything.
//!
//! # Concurrency
//!
//! The store is **sharded**: document names hash onto
//! [`STORE_SHARDS`] independently-locked maps, so concurrent
//! `load_document`/`remove_document`/`eval` traffic on different
//! documents never serializes on one lock (the pre-PR-5 single
//! `RwLock<BTreeMap>` did). Lookups take one shard's read lock for a
//! `BTreeMap::get` + `Arc` clone; evaluation itself runs entirely on
//! the cloned `Arc`s, lock-free. Binding a document in a specialized
//! kind also takes that kind's arena lock, for the root lookups in the
//! image memo; evaluation itself holds no lock.
//!
//! Every document write holds the ℕ\[X\] arena lock from interning
//! through its publish, and compacts the arenas when they have grown
//! enough (see [`KindArenas`]): rows no stored document reaches are
//! freed, so memory follows the live documents, not the edit history.
//!
//! [`Engine::eval_batch`] and [`Engine::eval_many_docs`] schedule
//! independent evaluations onto an [`axml_pool::Pool`] — the
//! throughput face of the paper's Prop. 2 observation that annotated
//! evaluation is embarrassingly parallel across queries and documents.

use crate::dispatch::KindArenas;
use crate::edit::EditScript;
use crate::error::AxmlError;
use crate::incr::{DocIncr, IncrCounters, IncrStats};
use crate::options::{EvalOptions, SemiringKind};
use crate::prepared::PreparedQuery;
use crate::result::AxmlResult;
use axml_pool::PoolStats;
use axml_semiring::NatPoly;
use axml_uxml::{parse_forest, Forest, NodeId, TreeArena};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Number of independently-locked document-store shards. A fixed
/// power of two: enough that 8–16 threads hammering different
/// documents rarely collide, small enough that whole-store scans
/// (`document_names`) stay trivial.
pub const STORE_SHARDS: usize = 16;

/// One stored document: the symbolic original (its specializations
/// live in the engine's per-kind arenas — see [`KindArenas`]).
#[derive(Debug)]
pub(crate) struct StoredDoc {
    pub poly: Arc<Forest<NatPoly>>,
    /// Edit version: 0 for a freshly loaded document, bumped by each
    /// [`Engine::edit_document`]. A replace via `load_document` resets
    /// to 0 (with a fresh `incr`), so incremental state never leaks
    /// across replaces.
    pub version: u64,
    /// The incremental state shared by every version of this document
    /// lineage (see [`DocIncr`]). Evaluations engage it only when
    /// `version == incr.version` — an in-flight snapshot taken before
    /// an edit falls back to the stateless routes.
    pub incr: Arc<Mutex<DocIncr>>,
}

impl StoredDoc {
    fn new(poly: Forest<NatPoly>) -> Arc<Self> {
        Arc::new(StoredDoc {
            poly: Arc::new(poly),
            version: 0,
            incr: Arc::new(Mutex::new(DocIncr::default())),
        })
    }
}

type DocMap = BTreeMap<String, Arc<StoredDoc>>;

/// The facade's entry point: a document store and a query compiler.
///
/// All methods take `&self`; the store is internally synchronized
/// (sharded — see the module docs), so one `Engine` can be shared
/// across threads (`Engine: Send + Sync`) and serve concurrent `eval`
/// calls on the same prepared queries.
///
/// ```
/// use axml::{Engine, EvalOptions};
/// let engine = Engine::new();
/// engine.load_document("S", "<a> b {2*x} </a>").unwrap();
/// let q = engine.prepare("$S/b").unwrap();
/// let out = q.eval(&engine, EvalOptions::new()).unwrap();
/// assert_eq!(out.to_string(), "(b {2*x})");
/// ```
#[derive(Debug)]
pub struct Engine {
    shards: [RwLock<DocMap>; STORE_SHARDS],
    /// Per-kind hash-consing arenas (see [`KindArenas`]): every stored
    /// document and every specialization is interned here, so
    /// structurally identical subtrees are stored once across the
    /// whole store and the forests the evaluators see are maximally
    /// `Arc`-shared. The specialized kinds' image memos are the
    /// engine's only specialization cache.
    pub(crate) arenas: KindArenas,
    /// Monotonic counters of the incremental layer (edits, ±Δ facts,
    /// memo hits/misses) — surfaced via [`Engine::storage_stats`].
    counters: Arc<IncrCounters>,
    /// Wall time of the most recent arena compaction, in µs.
    last_compaction_us: AtomicU64,
}

/// Storage statistics of an engine's document store: how many nodes
/// the loaded documents contain *logically* versus how many distinct
/// subtrees the hash-consing arena actually stores. On corpora with
/// repeated substructure (within or across documents)
/// `distinct_subtrees` is sub-linear in `logical_nodes` — the
/// content-addressing win, tracked by the bench-regression gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageStats {
    /// Total node count of all loaded documents, counted by value
    /// occurrences (the sum of the documents' `|v|`).
    pub logical_nodes: usize,
    /// Rows stored in the symbolic ℕ\[X\] arena: the distinct
    /// subtrees of the loaded documents, plus the rows appended since
    /// the last compaction that no document reaches any more. It falls
    /// when a compaction runs; see [`CompactionStats`].
    pub distinct_subtrees: usize,
    /// Stored child edges in the arena's DAG (the columnar footprint).
    pub child_edges: usize,
    /// Counters of the incremental edit/re-evaluation layer: edits
    /// applied, spine nodes interned per edit, ±Δ fact volumes, memo
    /// hits/misses, incremental evals vs stateless fallbacks.
    pub incr: IncrStats,
    /// Distinct element labels the process has interned — a gauge
    /// that only grows: interned names are never freed, so a workload
    /// that mints fresh labels (splicing in new tags, say) grows it by
    /// one per new label. Process-wide, not per engine.
    pub interned_labels: usize,
    /// Distinct provenance variables the process has interned; never
    /// freed either. Process-wide, not per engine.
    pub interned_vars: usize,
    /// Liveness and compaction gauges of the engine's arenas.
    pub compaction: CompactionStats,
    /// Scheduling counters of the **global** worker pool (queue depths
    /// per lane class, owned/helped/stolen/injected executions, max
    /// queue residency). All-zero until some evaluation has actually
    /// used the global pool — reading stats never spawns it. Servers
    /// running evaluations on their own pool report that pool's
    /// counters on `GET /stats` instead.
    pub scheduler: PoolStats,
}

/// Liveness and compaction gauges of an engine's arenas (part of
/// [`StorageStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Rows of the ℕ\[X\] arena reachable from the stored documents:
    /// `distinct_subtrees` minus this is what the next compaction
    /// would free.
    pub live_subtrees: usize,
    /// ℕ\[X\] arena rows freed by compactions over the engine's
    /// lifetime.
    pub subtrees_dropped: u64,
    /// Compactions run (each covers the ℕ\[X\] arena and every
    /// specialized kind's arena and image memo).
    pub compactions: u64,
    /// Wall time of the most recent compaction, in µs (0 before the
    /// first).
    pub last_pause_us: u64,
    /// Image-memo entries of each specialized kind (every kind but
    /// ℕ\[X\]), in [`SemiringKind::ALL`] order.
    pub image_memo_entries: [(SemiringKind, usize); 6],
}

/// What one [`Engine::edit_document`] call did: the published
/// version, and how much work the incremental machinery actually
/// performed (spine re-interning and ±Δ edge facts — the quantities
/// that stay small when the edit is small).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditStats {
    /// The document version this edit published (1 for the first
    /// edit after a load).
    pub version: u64,
    /// Ops in the applied script.
    pub ops_applied: usize,
    /// New nodes interned into the symbolic arena by this edit — the
    /// spine cost; every other subtree of the edited document was
    /// re-shared. Counted before any compaction the edit triggers.
    pub spine_nodes_interned: usize,
    /// Edge facts retired from φ(doc) by this edit.
    pub facts_retired: u64,
    /// Edge facts added to φ(doc) by this edit.
    pub facts_added: u64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            shards: std::array::from_fn(|_| RwLock::new(DocMap::new())),
            arenas: KindArenas::default(),
            counters: Arc::default(),
            last_compaction_us: AtomicU64::new(0),
        }
    }
}

impl Engine {
    /// An engine with an empty document store.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, name: &str) -> &RwLock<DocMap> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) % STORE_SHARDS]
    }

    /// Parse `xml` (the annotated document syntax, annotations read as
    /// ℕ\[X\] polynomials) and store it under `name`. The name is also
    /// the query variable the document binds: loading under `"S"`
    /// makes `$S` resolvable. Re-loading a name replaces the document
    /// (already-running evaluations keep their `Arc` snapshot).
    pub fn load_document(&self, name: &str, xml: &str) -> Result<(), AxmlError> {
        let forest =
            parse_forest::<NatPoly>(xml).map_err(|e| AxmlError::document_parse(name, xml, e))?;
        self.insert_forest(name, forest);
        Ok(())
    }

    /// Store an already-built symbolic forest under `name`. The forest
    /// is interned into the engine's hash-consing arena first: subtrees
    /// already stored by *any* loaded document are shared (stored
    /// once), and the document the evaluators see is the canonical,
    /// maximally `Arc`-shared form of the same value.
    pub fn insert_forest(&self, name: &str, forest: Forest<NatPoly>) {
        let mut arena = self.poly_arena();
        let roots = arena.intern_forest(&forest);
        let canonical = arena.canonical_forest(&roots);
        // The store holds only fully-constructed `Arc`s, so a panic
        // while holding a shard lock cannot leave it in a torn state —
        // recover from poisoning instead of propagating the panic.
        self.shard(name)
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_owned(), StoredDoc::new(canonical));
        self.compact_if_due(&mut arena);
    }

    /// The ℕ\[X\] arena, locked. Every document write holds it through
    /// its publish, so a compaction (which runs under it) sees every
    /// interned forest already stored.
    fn poly_arena(&self) -> MutexGuard<'_, TreeArena<NatPoly>> {
        self.arenas.poly.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The arena ids of every stored document's roots, plus the
    /// documents' total logical size.
    fn stored_roots(&self, arena: &TreeArena<NatPoly>) -> (Vec<NodeId>, usize) {
        let (mut roots, mut logical) = (Vec::new(), 0);
        for shard in &self.shards {
            for doc in shard.read().unwrap_or_else(|e| e.into_inner()).values() {
                logical += doc.poly.size();
                roots.extend(doc.poly.trees().filter_map(|t| {
                    let id = arena.handle_id(t);
                    debug_assert!(id.is_some(), "stored roots are canonical handles");
                    id
                }));
            }
        }
        (roots, logical)
    }

    /// Compact every arena down to what the stored documents reach, if
    /// the ℕ\[X\] arena has grown enough since the last compaction (see
    /// [`KindArenas`]). Runs after each write's publish, with `arena`
    /// still locked.
    fn compact_if_due(&self, arena: &mut TreeArena<NatPoly>) {
        if !arena.compaction_due() {
            return;
        }
        let start = Instant::now();
        let (roots, _) = self.stored_roots(arena);
        arena.compact(roots);
        self.arenas.compact_images(arena);
        self.last_compaction_us.store(
            u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
    }

    /// Storage statistics: logical node count of the loaded documents
    /// versus distinct subtrees in the symbolic arena, and the arenas'
    /// liveness and compaction gauges (see [`StorageStats`]).
    pub fn storage_stats(&self) -> StorageStats {
        let arena = self.poly_arena();
        let (roots, logical_nodes) = self.stored_roots(&arena);
        StorageStats {
            logical_nodes,
            distinct_subtrees: arena.len(),
            child_edges: arena.child_edge_count(),
            incr: self.counters.snapshot(),
            interned_labels: axml_uxml::Label::interned_count(),
            interned_vars: axml_semiring::Var::interned_count(),
            compaction: CompactionStats {
                live_subtrees: arena.live_count(roots),
                subtrees_dropped: arena.rows_dropped(),
                compactions: arena.compactions(),
                last_pause_us: self.last_compaction_us.load(Ordering::Relaxed),
                image_memo_entries: self.arenas.image_memo_entries(),
            },
            scheduler: axml_pool::global_stats(),
        }
    }

    pub(crate) fn incr_counters(&self) -> &Arc<IncrCounters> {
        &self.counters
    }

    /// Apply an [`EditScript`] to the named document **in place**:
    /// the edited forest is re-interned through the hash-consing
    /// arena (only the spine of changed ancestors allocates new
    /// nodes), the document's incremental state absorbs the ±Δ edge
    /// facts, and the new version is published atomically. In-flight
    /// evaluations keep their pre-edit `Arc` snapshot; subsequent
    /// evaluations on the §7-fragment routes reuse retained fixpoints
    /// and subtree-fingerprint memos instead of starting from
    /// scratch.
    ///
    /// Errors: [`AxmlError::Edit`] when the script fails to apply
    /// (bad path, malformed op), [`AxmlError::EditConflict`] when a
    /// concurrent `load_document`/`remove_document` replaced the
    /// document mid-edit (the edit is *not* applied — retry against
    /// the new contents), [`AxmlError::UnknownDocument`] when the
    /// name is not loaded. Concurrent `edit_document` calls on the
    /// same document serialize; each sees the other's result.
    pub fn edit_document(&self, name: &str, script: &EditScript) -> Result<EditStats, AxmlError> {
        let snapshot = self.stored_or_err(name)?;
        let incr_arc = Arc::clone(&snapshot.incr);
        let mut incr = incr_arc.lock().unwrap_or_else(|e| e.into_inner());
        // Re-check under the incr lock: another edit of the same
        // lineage also holds this lock, so after this check the only
        // way the stored entry can change is a replace/remove (which
        // installs a *different* incr) — caught again at publish.
        match self.stored(name) {
            Some(cur) if Arc::ptr_eq(&cur, &snapshot) => {}
            _ => {
                return Err(AxmlError::EditConflict {
                    name: name.to_owned(),
                })
            }
        }
        let edited =
            crate::edit::apply_script(&snapshot.poly, script).map_err(|msg| AxmlError::Edit {
                name: name.to_owned(),
                msg,
            })?;
        // The arena stays locked until the new version is published: a
        // compaction in between would free its not-yet-stored rows.
        let mut arena = self.poly_arena();
        let before = arena.len();
        let roots = arena.intern_forest(&edited);
        let canonical = Arc::new(arena.canonical_forest(&roots));
        let spine_nodes_interned = arena.len() - before;
        let (facts_retired, facts_added) = incr.apply_edit(&snapshot.poly, &canonical);
        let version = incr.version;
        let new_doc = Arc::new(StoredDoc {
            poly: canonical,
            version,
            incr: Arc::clone(&incr_arc),
        });
        {
            let mut shard = self.shard(name).write().unwrap_or_else(|e| e.into_inner());
            match shard.get(name) {
                Some(cur) if Arc::ptr_eq(cur, &snapshot) => {
                    shard.insert(name.to_owned(), new_doc);
                }
                // Replaced/removed since the re-check: the bumped incr
                // belongs to an orphaned lineage, which no live
                // document references — harmless.
                _ => {
                    return Err(AxmlError::EditConflict {
                        name: name.to_owned(),
                    })
                }
            }
        }
        self.compact_if_due(&mut arena);
        drop(arena);
        self.counters.edits_applied.fetch_add(1, Ordering::Relaxed);
        self.counters
            .spine_nodes_interned
            .fetch_add(spine_nodes_interned as u64, Ordering::Relaxed);
        self.counters
            .delta_facts_retired
            .fetch_add(facts_retired, Ordering::Relaxed);
        self.counters
            .delta_facts_added
            .fetch_add(facts_added, Ordering::Relaxed);
        Ok(EditStats {
            version,
            ops_applied: script.ops.len(),
            spine_nodes_interned,
            facts_retired,
            facts_added,
        })
    }

    /// Parse the line-based edit-script text format (see
    /// [`EditScript::parse`]) and apply it via
    /// [`Engine::edit_document`] — the entry point the HTTP `PATCH`
    /// endpoint and the CLI `edit` subcommand share.
    pub fn edit_document_text(&self, name: &str, script: &str) -> Result<EditStats, AxmlError> {
        let script = EditScript::parse(script).map_err(|msg| AxmlError::Edit {
            name: name.to_owned(),
            msg,
        })?;
        self.edit_document(name, &script)
    }

    /// Remove a document; returns whether it was present.
    pub fn remove_document(&self, name: &str) -> bool {
        let mut arena = self.poly_arena();
        let removed = self
            .shard(name)
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name)
            .is_some();
        self.compact_if_due(&mut arena);
        removed
    }

    /// The stored symbolic document, if loaded.
    pub fn document(&self, name: &str) -> Option<Arc<Forest<NatPoly>>> {
        self.stored(name).map(|d| d.poly.clone())
    }

    /// Names of all loaded documents, sorted.
    pub fn document_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .unwrap_or_else(|e| e.into_inner())
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .collect();
        names.sort();
        names
    }

    pub(crate) fn stored(&self, name: &str) -> Option<Arc<StoredDoc>> {
        self.shard(name)
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    pub(crate) fn stored_or_err(&self, name: &str) -> Result<Arc<StoredDoc>, AxmlError> {
        self.stored(name).ok_or_else(|| AxmlError::UnknownDocument {
            name: name.to_owned(),
            available: self.document_names(),
        })
    }

    /// Parse, elaborate, and compile `query_src` exactly once. The
    /// returned [`PreparedQuery`] can be evaluated any number of
    /// times, in any [`crate::SemiringKind`] and over any
    /// [`crate::Route`], paying only evaluation cost per call.
    pub fn prepare(&self, query_src: &str) -> Result<PreparedQuery, AxmlError> {
        PreparedQuery::compile(query_src)
    }

    /// One-shot convenience: `prepare` + `eval`. Prefer holding a
    /// [`PreparedQuery`] when the same query runs more than once.
    pub fn run(&self, query_src: &str, opts: EvalOptions) -> Result<AxmlResult, AxmlError> {
        self.prepare(query_src)?.eval(self, opts)
    }

    /// Evaluate a batch of prepared queries on the global worker pool,
    /// returning one result per entry **in order**. Errors are
    /// per-entry: one failing evaluation never poisons the batch.
    ///
    /// This is the multi-query throughput entry point: each entry is
    /// an independent evaluation over `Arc`-shared documents, so a
    /// batch of `n` queries scales with the pool's worker count
    /// (Prop. 2's "evaluate once, specialize everywhere" design makes
    /// the entries share all cached artifacts contention-free).
    pub fn eval_batch(
        &self,
        entries: &[(&PreparedQuery, EvalOptions)],
    ) -> Vec<Result<AxmlResult, AxmlError>> {
        self.eval_batch_on(axml_pool::global(), entries)
    }

    /// [`Engine::eval_batch`] on an explicit pool (benchmarks pin the
    /// worker count this way; servers can isolate tenants).
    pub fn eval_batch_on(
        &self,
        pool: &axml_pool::Pool,
        entries: &[(&PreparedQuery, EvalOptions)],
    ) -> Vec<Result<AxmlResult, AxmlError>> {
        // Entries' intra-query parallelism fans out on the same pool
        // the batch is scheduled on — an isolated pool stays isolated.
        fan_out(pool, entries, |(q, o)| {
            q.eval_with(self, *o, &[], Some(pool))
        })
    }

    /// Evaluate one prepared query over many documents on the global
    /// worker pool: entry `i` binds **every** free variable of `query`
    /// to the document named `docs[i]` (the common shape — one `$S` —
    /// queries one document per entry). Results come back in `docs`
    /// order; errors are per-entry.
    pub fn eval_many_docs(
        &self,
        query: &PreparedQuery,
        docs: &[&str],
        opts: EvalOptions,
    ) -> Vec<Result<AxmlResult, AxmlError>> {
        self.eval_many_docs_on(axml_pool::global(), query, docs, opts)
    }

    /// [`Engine::eval_many_docs`] on an explicit pool.
    pub fn eval_many_docs_on(
        &self,
        pool: &axml_pool::Pool,
        query: &PreparedQuery,
        docs: &[&str],
        opts: EvalOptions,
    ) -> Vec<Result<AxmlResult, AxmlError>> {
        fan_out(pool, docs, |doc| {
            let aliases: Vec<(&str, &str)> = query
                .free_vars()
                .iter()
                .map(|v| (v.as_str(), *doc))
                .collect();
            query.eval_with(self, opts, &aliases, Some(pool))
        })
    }
}

/// The shared fan-out core of the batch APIs: one evaluation per item,
/// scheduled on `pool`, results **in item order**, with trivial
/// batches (0–1 items) skipping the pool entirely so a single entry
/// runs exactly the sequential code path.
fn fan_out<T: Sync, R: Send>(
    pool: &axml_pool::Pool,
    items: &[T],
    eval_one: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    if items.len() <= 1 {
        return items.iter().map(&eval_one).collect();
    }
    pool.map_slice(items, |_, item| eval_one(item))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::EvalKind;
    use axml_semiring::{FnHom, Nat, PosBool, Prob, Trio, Tropical, Why};
    use axml_uxml::hom::map_forest;

    #[test]
    fn load_replaces_and_removes() {
        let e = Engine::new();
        e.load_document("S", "a {x}").unwrap();
        e.load_document("S", "b {y}").unwrap();
        assert_eq!(e.document_names(), ["S"]);
        let doc = e.document("S").unwrap();
        assert_eq!(doc.len(), 1);
        assert!(e.remove_document("S"));
        assert!(!e.remove_document("S"));
        assert!(e.document("S").is_none());
    }

    #[test]
    fn bad_document_reports_name_and_span() {
        let e = Engine::new();
        let err = e.load_document("bad", "<a> <b </a>").unwrap_err();
        let AxmlError::DocumentParse { name, span, .. } = &err else {
            panic!("expected DocumentParse, got {err:?}");
        };
        assert_eq!(name, "bad");
        assert_eq!(span.line, 1);
    }

    #[test]
    fn names_are_sorted_across_shards() {
        let e = Engine::new();
        // Enough names that every shard almost surely holds some.
        for i in (0..64).rev() {
            e.insert_forest(&format!("doc{i:02}"), Forest::new());
        }
        let names = e.document_names();
        assert_eq!(names.len(), 64);
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
    }

    /// Specialization after an edit is O(spine): once a document has
    /// been read in ℕ, a splice's first ℕ read adds at most the
    /// splice's newly interned spine nodes to the ℕ image memo, and a
    /// repeat read adds none.
    #[test]
    fn post_edit_specialization_maps_only_the_spine() {
        let e = Engine::new();
        let body: String = (0..40)
            .map(|i| format!("<b{i}> c {{x{i}}} <d> e {{y{i}}} </d> </b{i}> "))
            .collect();
        e.load_document("S", &format!("<a> {body} </a>")).unwrap();
        let memo_len = || e.arenas.nat.lock().unwrap().images.len();
        let read = || Nat::project_doc(&e, &e.stored("S").unwrap());
        read();
        let loaded = memo_len();
        assert!(loaded > 80, "the first read maps the whole document");
        for i in 0..20 {
            let script = format!("splice /0/{i} <n{i}> c {{z{i}}} </n{i}>");
            let stats = e.edit_document_text("S", &script).unwrap();
            let before = memo_len();
            read();
            let after = memo_len();
            assert!(
                after - before <= stats.spine_nodes_interned,
                "edit {i}: {} memo entries for {} spine nodes",
                after - before,
                stats.spine_nodes_interned
            );
            read();
            assert_eq!(memo_len(), after, "edit {i}: a repeat read maps nothing");
        }
    }

    /// Where compactions happen depends on the writes alone: an engine
    /// that reads in every kind between writes reports the same edit
    /// stats and arena gauges as one that never reads.
    #[test]
    fn compaction_points_depend_only_on_writes() {
        let (reader, writer) = (Engine::new(), Engine::new());
        for e in [&reader, &writer] {
            e.load_document("S", "<a> <b> c </b> </a>").unwrap();
        }
        for i in 0..120 {
            let script = format!("splice /0/0 <b{i}> c {{x{i}}} <d{i}> c </d{i}> </b{i}>");
            let side = format!("<t{i}> u{i} </t{i}>");
            let read = reader.edit_document_text("S", &script).unwrap();
            reader.load_document("T", &side).unwrap();
            for kind in SemiringKind::ALL {
                let opts = EvalOptions::new().semiring(kind);
                reader.run("($S//c, $T/*)", opts).unwrap();
            }
            assert_eq!(read, writer.edit_document_text("S", &script).unwrap());
            writer.load_document("T", &side).unwrap();
        }
        let (a, b) = (reader.storage_stats(), writer.storage_stats());
        assert!(a.compaction.compactions > 3, "{:?}", a.compaction);
        assert_eq!(
            (
                a.distinct_subtrees,
                a.child_edges,
                a.compaction.subtrees_dropped
            ),
            (
                b.distinct_subtrees,
                b.child_edges,
                b.compaction.subtrees_dropped
            )
        );
        assert_eq!(a.compaction.compactions, b.compaction.compactions);
    }

    /// Every kind's specialization equals the plain recursive hom
    /// lifting of the stored document, through splices, a replace and
    /// a remove.
    #[test]
    fn specializations_equal_the_hom_lifting_across_edits() {
        fn check<S: EvalKind>(e: &Engine, name: &str) {
            let doc = e.stored(name).unwrap();
            let want = map_forest(&FnHom::new(S::from_poly), &doc.poly);
            assert_eq!(*S::project_doc(e, &doc), want, "{} {name}", S::KIND);
        }
        fn check_all(e: &Engine) {
            for name in e.document_names() {
                check::<NatPoly>(e, &name);
                check::<Nat>(e, &name);
                check::<PosBool>(e, &name);
                check::<Tropical>(e, &name);
                check::<Why>(e, &name);
                check::<Trio>(e, &name);
                check::<Prob>(e, &name);
            }
        }
        let e = Engine::new();
        e.load_document(
            "S",
            "<a> <b {x}> c {2} d {y} </b> <b> c {0} </b> e {x*y} </a>",
        )
        .unwrap();
        e.load_document("T", "<a> <b {x}> c {2} d {y} </b> f {3} </a>")
            .unwrap();
        check_all(&e);
        for script in [
            "splice /0/0 <b {x}> c {y} </b>",
            "insert /0 <g {x+1}> c {2} </g>",
            "reannotate /0/1 2*x",
            "relabel /0/0 h",
            "delete /0/0",
        ] {
            e.edit_document_text("S", script).unwrap();
            check_all(&e);
        }
        e.load_document("S", "<a> <b {x}> c {2} d {y} </b> </a>")
            .unwrap();
        check_all(&e);
        assert!(e.remove_document("T"));
        e.load_document("T", "<a> f {3} <b {x}> c {2} </b> </a>")
            .unwrap();
        check_all(&e);
    }
}
