//! Per-document incremental state: the machinery behind
//! [`crate::Engine::edit_document`]'s delta propagation.
//!
//! # Incrementality
//!
//! Each stored document carries one [`DocIncr`] behind a `Mutex`,
//! shared by every version of the document produced by edits (a full
//! replace via `load_document` installs a *fresh* one, so stale state
//! can never leak across replaces). It holds:
//!
//! - a [`ShadowDoc`] — the id-stable mirror of the current version's
//!   edge relation φ(doc). `sync` against an edited forest matches
//!   surviving subtrees (keeping their ids), adopts relabeled nodes,
//!   shreds genuinely-new subtrees with fresh ids, and returns the
//!   ±Δ as an [`OwnedDelta`];
//! - a bounded **delta log** (`(version, Δ)` pairs) so per-kind and
//!   per-query state lagging several versions behind can catch up by
//!   folding the net delta instead of rebuilding;
//! - per-[`SemiringKind`] state ([`KindIncr`]): one [`ShreddedView`]
//!   per shredded query — its interned edge relation, retained
//!   Datalog fixpoint and decoded result, all over the view's own term
//!   table — and the fingerprint memo tables ([`PathMemo`]) of the
//!   direct/NRC routes.
//!
//! # Soundness
//!
//! *Shredded route (tier A — filter-free path queries).* The ψ
//! programs for filter-free queries keep every body node variable in
//! their heads, and the shadow assigns **fresh ids per edit** — a
//! retired id is never reused. Hence any IDB fact whose derivation
//! uses a retired EDB fact mentions a retired id (recursively through
//! Skolem arguments), and conversely every fact free of retired ids
//! has all its derivations inside the retained EDB. Pruning the
//! retained IDB by the net retired-id set therefore yields *exactly*
//! the fixpoint over the retained edges — annotations included — and
//! the semi-naive engine restarts from the added facts alone (the
//! interned core of `eval_datalog_idb_resume`). Queries **with**
//! filters drop the qualifier's node variables at projection, so
//! pruning is not exact for them: they re-solve from scratch over the
//! incrementally-maintained edge relation (tier B — still skipping the
//! re-shred). Both tiers keep the decoded result per version, so a
//! repeat read at an unchanged version is a clone of the kept forest.
//!
//! *Cost of a resume.* The retained state never leaves its interned
//! form, so a tier-A resume builds and compares no boxed relational
//! value. Its phases:
//! - **edge delta and prune** — one pass over the view's term table
//!   marks the terms mentioning a retired node, and one `u32` scan
//!   drops the rows holding them (from `E` and every IDB relation);
//! - **seed and delta rounds** — Δ-sized: the added facts drive every
//!   join and the rest is probed, by scanning `u32` columns while the
//!   drivers stay tiny;
//! - **result** — a bitmap test per `E2` parent finds the delta
//!   region, and only the roots the delta made live are decoded;
//!   clean roots keep their decoded trees.
//!
//! What stays proportional to the document is flat work: two passes
//! over the term table, one scan of the rows, and one ordered lookup
//! per live result root. No row is rebuilt, rehashed or decoded unless
//! the delta touched it.
//!
//! *Direct/NRC routes.* [`PathMemo`] keys every cache entry on the
//! subtree **value** (whose hash is the precomputed `(size, hash)`
//! fingerprint), never on identity or position — so entries persist
//! across edits with *no invalidation step* and remain sound by
//! construction: an edited subtree is a different value and simply
//! misses. Memoized evaluation is pure caching of
//! `axml_core::eval_path`, which the differential route's sixth leg
//! re-verifies against the compiled direct plan on demand. Both entry
//! points — `eval_with` and `eval_each` (which the cursor records) —
//! serve §7-fragment reads of an edited, current snapshot from the memo.
//!
//! # Bounds
//!
//! The incremental state stays proportional to the live document, not
//! to the edit history:
//!
//! - a [`PathMemo`] stores no subtree under
//!   [`axml_core::MEMO_MIN_NODES`] nodes (except the document's
//!   top-level trees), and after an evaluation that leaves its tables
//!   holding more than twice what its previous sweep kept (plus a
//!   small constant) it sweeps every entry not keyed on a subtree of
//!   the version just evaluated;
//! - each `(document, kind)` keeps at most [`MAX_MEMOS`] memos,
//!   evicting the least recently used, and at most
//!   [`MAX_QUERY_STATES`] shredded views, evicting the stalest; a
//!   view's term table is compacted once its dead terms outnumber its
//!   live ones;
//! - the delta log keeps the last [`MAX_LOG`] deltas.
//!
//! The memos' size is reported as the `memo_entries` gauge of
//! [`IncrStats`]. Memo evaluation honours the call's limits: the
//! deadline is checked every 1024 computed closures and every forest
//! it builds or clones is charged to the memory budget.
//!
//! *Engagement guard.* All incremental paths engage only when the
//! evaluated snapshot is the incr state's current version
//! (`doc.version == DocIncr::version`). An in-flight evaluation
//! holding a pre-edit `Arc` snapshot falls back to the stateless
//! route over its own snapshot — it can never observe a torn or
//! future document.

use crate::dispatch::EvalKind;
use crate::engine::StoredDoc;
use crate::error::{AxmlError, BudgetKind};
use crate::options::SemiringKind;
use axml_core::path::PathQuery;
use axml_core::{eval_path_memo, PathMemo};
use axml_relational::{AddedFact, OwnedDelta, ShadowDoc, ShreddedView};
use axml_semiring::{FnHom, NatPoly, Semiring};
use axml_uxml::{Exec, Forest};
use std::any::Any;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most recent deltas kept for catch-up; state lagging further behind
/// rebuilds from the shadow instead.
const MAX_LOG: usize = 64;
/// Retained IDB fixpoints per `(document, kind)`.
const MAX_QUERY_STATES: usize = 8;
/// Path memo tables per `(document, kind)`.
const MAX_MEMOS: usize = 8;

/// Monotonic counters for the incremental layer, surfaced through
/// [`crate::StorageStats`] (and the server's `GET /stats`).
#[derive(Debug, Default)]
pub(crate) struct IncrCounters {
    pub edits_applied: AtomicU64,
    pub spine_nodes_interned: AtomicU64,
    pub delta_facts_retired: AtomicU64,
    pub delta_facts_added: AtomicU64,
    pub memo_hits: AtomicU64,
    pub memo_misses: AtomicU64,
    pub incremental_evals: AtomicU64,
    pub full_fallbacks: AtomicU64,
    /// Entries held by the path memos of every live [`DocIncr`] — a
    /// gauge, not a counter: each document adds its memos' growth and
    /// subtracts their sweeps and evictions, and takes its whole share
    /// back when it is dropped.
    pub memo_entries: AtomicU64,
}

impl IncrCounters {
    /// Count an eval on an edited document that could not engage an
    /// incremental path (stale snapshot or evicted state).
    pub fn note_fallback(&self) {
        self.full_fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> IncrStats {
        IncrStats {
            edits_applied: self.edits_applied.load(Ordering::Relaxed),
            spine_nodes_interned: self.spine_nodes_interned.load(Ordering::Relaxed),
            delta_facts_retired: self.delta_facts_retired.load(Ordering::Relaxed),
            delta_facts_added: self.delta_facts_added.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.memo_misses.load(Ordering::Relaxed),
            incremental_evals: self.incremental_evals.load(Ordering::Relaxed),
            full_fallbacks: self.full_fallbacks.load(Ordering::Relaxed),
            memo_entries: self.memo_entries.load(Ordering::Relaxed),
        }
    }

    /// Move the memo-entries gauge from one document's old share to
    /// its new one.
    fn reshare_memo_entries(&self, old: u64, new: u64) {
        if new >= old {
            self.memo_entries.fetch_add(new - old, Ordering::Relaxed);
        } else {
            self.memo_entries.fetch_sub(old - new, Ordering::Relaxed);
        }
    }
}

/// A snapshot of the engine's incremental-evaluation counters
/// (monotonic over the engine's lifetime; part of
/// [`crate::StorageStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrStats {
    /// Successful [`crate::Engine::edit_document`] calls.
    pub edits_applied: u64,
    /// New arena nodes interned by edits — the spine cost; the rest of
    /// each edited document was re-shared from the arena.
    pub spine_nodes_interned: u64,
    /// Edge facts retired across all edits (the −Δ side).
    pub delta_facts_retired: u64,
    /// Edge facts added across all edits (the +Δ side).
    pub delta_facts_added: u64,
    /// Subtree-fingerprint memo hits on the direct/NRC routes.
    pub memo_hits: u64,
    /// Subtree-fingerprint memo misses on the direct/NRC routes.
    pub memo_misses: u64,
    /// Evaluations served by an incremental path (memoized path eval
    /// or Datalog delta propagation).
    pub incremental_evals: u64,
    /// Evaluations on edited documents that fell back to the
    /// stateless route (snapshot behind the incr state, or state
    /// evicted).
    pub full_fallbacks: u64,
    /// Entries currently held by the subtree-fingerprint memos of
    /// every live document — a gauge: it falls when a memo sweeps
    /// dead spines, when a memo is evicted, and when its document is
    /// replaced or removed.
    pub memo_entries: u64,
}

/// Per-document incremental state; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct DocIncr {
    /// Version of the document this state mirrors. 0 = never edited.
    pub version: u64,
    shadow: Option<ShadowDoc<NatPoly>>,
    /// Contiguous recent deltas: entry `(v, Δ)` transforms version
    /// `v-1` into `v`; the back entry is always `self.version`.
    log: VecDeque<(u64, OwnedDelta<NatPoly>)>,
    /// Per-kind state, keyed by runtime tag, stored type-erased (one
    /// concrete [`KindIncr<S>`] per kind).
    kinds: HashMap<SemiringKind, Box<dyn Any + Send>>,
    /// Entries this document's path memos hold: its share of the
    /// engine's `memo_entries` gauge, which `gauge` points at once a
    /// memo has been used.
    memo_entries: u64,
    gauge: Option<Arc<IncrCounters>>,
}

impl Drop for DocIncr {
    fn drop(&mut self) {
        if let Some(gauge) = &self.gauge {
            gauge.reshare_memo_entries(self.memo_entries, 0);
        }
    }
}

/// The per-semiring slice of a document's incremental state.
struct KindIncr<S: Semiring> {
    queries: HashMap<String, QueryState<S>>,
    memos: HashMap<String, MemoSlot<S>>,
    /// Bumped on every memo use; orders `memos` for LRU eviction.
    memo_clock: u64,
}

/// One query's path memo and the `memo_clock` reading of its last use.
struct MemoSlot<S: Semiring> {
    memo: PathMemo<S>,
    last_used: u64,
}

impl<S: Semiring> KindIncr<S> {
    /// The memo of query `key`, created on first use. A new memo past
    /// [`MAX_MEMOS`] evicts the least recently used one; the second
    /// value is the number of entries that eviction freed.
    fn memo_for(&mut self, key: &str) -> (&mut PathMemo<S>, u64) {
        self.memo_clock += 1;
        let mut freed = 0;
        if !self.memos.contains_key(key) {
            if self.memos.len() >= MAX_MEMOS {
                let lru = self
                    .memos
                    .iter()
                    .min_by_key(|(_, slot)| slot.last_used)
                    .map(|(k, _)| k.clone());
                if let Some(slot) = lru.and_then(|k| self.memos.remove(&k)) {
                    freed = slot.memo.entry_count() as u64;
                }
            }
            let slot = MemoSlot {
                memo: PathMemo::new(),
                last_used: 0,
            };
            self.memos.insert(key.to_owned(), slot);
        }
        let slot = self.memos.get_mut(key).expect("inserted above");
        slot.last_used = self.memo_clock;
        (&mut slot.memo, freed)
    }
}

/// One shredded query over one document at one version: the interned
/// edge relation, the retained fixpoint (filter-free queries) and the
/// decoded result forest — re-evaluating the same query at the same
/// version clones the forest, and a later version patches all three
/// from the edit delta (see [`ShreddedView`]).
struct QueryState<S: Semiring> {
    version: u64,
    view: ShreddedView<S>,
}

impl DocIncr {
    /// Record one applied edit: lazily build the shadow from the
    /// pre-edit document (unless a shredded read already did), sync it
    /// against the post-edit one, bump the version and log the delta.
    /// Returns `(facts_retired, facts_added)`.
    pub fn apply_edit(&mut self, old: &Forest<NatPoly>, new: &Forest<NatPoly>) -> (u64, u64) {
        if self.shadow.is_none() {
            self.shadow = Some(ShadowDoc::from_forest(old));
        }
        let delta = self.shadow.as_mut().expect("just built").sync(new);
        let counts = (delta.retired.len() as u64, delta.added.len() as u64);
        self.version += 1;
        self.log.push_back((self.version, delta));
        while self.log.len() > MAX_LOG {
            self.log.pop_front();
        }
        counts
    }
}

/// Whether the log holds every delta in `(from, current]` — i.e.
/// state at version `from` can catch up by folding log entries.
fn covered(log: &VecDeque<(u64, OwnedDelta<NatPoly>)>, from: u64, current: u64) -> bool {
    if from == current {
        return true;
    }
    log.front().map(|(v, _)| *v <= from + 1).unwrap_or(false)
}

/// The net retired-id set and net added facts (mapped into `S`) over
/// the log span `(from, current]`. Added facts later retired within
/// the span are dropped — sound because ids are fresh per edit, so an
/// add's ids can never collide with a retirement from an *earlier*
/// delta.
fn net_delta<S: EvalKind>(
    log: &VecDeque<(u64, OwnedDelta<NatPoly>)>,
    from: u64,
) -> (HashSet<u64>, Vec<(AddedFact, S)>) {
    let hom = FnHom::new(S::from_poly);
    let mut retired = HashSet::new();
    let mut added: Vec<(AddedFact, S)> = Vec::new();
    for (v, delta) in log {
        if *v <= from {
            continue;
        }
        retired.extend(delta.retired.iter().copied());
        let mapped = delta.map_annotations(&hom);
        added.extend(mapped.added);
    }
    added.retain(|(f, _)| !retired.contains(&f.pid) && !retired.contains(&f.nid));
    (retired, added)
}

/// Type-erased accessor for a kind's slice of the state.
fn kind_mut<S: EvalKind>(
    kinds: &mut HashMap<SemiringKind, Box<dyn Any + Send>>,
) -> &mut KindIncr<S> {
    kinds
        .entry(S::KIND)
        .or_insert_with(|| {
            Box::new(KindIncr::<S> {
                queries: HashMap::new(),
                memos: HashMap::new(),
                memo_clock: 0,
            })
        })
        .downcast_mut::<KindIncr<S>>()
        .expect("kind state downcasts to its own kind")
}

/// Incremental shredded evaluation. `None` = not engaged (this
/// snapshot is behind the incr state) — the caller runs the stateless
/// route on its snapshot. A never-edited document engages too: its
/// shadow is shredded from the stored version on the first shredded
/// read, and the views kept from then on make a repeat read a clone.
/// The solve honours `x` like the stateless route's fixpoint.
pub(crate) fn eval_shredded_incr<S: EvalKind>(
    doc: &Arc<StoredDoc>,
    p: &PathQuery,
    key: &str,
    x: &Exec<'_>,
    counters: &IncrCounters,
) -> Option<Result<Forest<S>, AxmlError>> {
    let mut incr = doc.incr.lock().unwrap_or_else(|e| e.into_inner());
    let DocIncr {
        version,
        shadow,
        log,
        kinds,
        ..
    } = &mut *incr;
    if *version != doc.version {
        return None;
    }
    // Every edit builds the shadow before bumping the version, so only
    // a version-0 document gets here without one — and its stored
    // forest is exactly what the first edit would shred.
    let shadow = &*shadow.get_or_insert_with(|| ShadowDoc::from_forest(&doc.poly));
    let kind = kind_mut::<S>(kinds);

    // 0. Pure hit: the query was already solved at exactly this
    //    version — the cached result forest is the answer.
    if let Some(state) = kind.queries.get(key) {
        if state.version == *version {
            let out = match state.view.forest() {
                Some(forest) => forest.clone(),
                None => return Some(Err(not_forest_shaped())),
            };
            if let Some(b) = x.budget {
                if b.charge(out.size()).is_err() {
                    return Some(Err(AxmlError::Budget {
                        resource: BudgetKind::Memory,
                        at: "cached shredded result".into(),
                    }));
                }
            }
            counters.incremental_evals.fetch_add(1, Ordering::Relaxed);
            return Some(Ok(out));
        }
    }

    // 1. Bring the query's state up to this version: apply the net
    //    delta when the log covers the gap (a filter-free query resumes
    //    its fixpoint, one with filters re-solves over its maintained
    //    edges), otherwise shred the mirror and solve from scratch. A
    //    stale state the log no longer covers is dropped here.
    let hom = FnHom::new(S::from_poly);
    let view = match kind.queries.remove(key) {
        Some(state) if covered(log, state.version, *version) => {
            let (retired, added) = net_delta::<S>(log, state.version);
            state.view.update(&retired, &added, x)
        }
        _ => ShreddedView::new(p, shadow, &hom, x),
    };
    let view = match view {
        Ok(view) => view,
        Err(e) => return Some(Err(e.into())),
    };
    let forest = view.forest().cloned();

    if kind.queries.len() >= MAX_QUERY_STATES {
        // Evict the most-stale retained state.
        if let Some(oldest) = kind
            .queries
            .iter()
            .min_by_key(|(_, s)| s.version)
            .map(|(k, _)| k.clone())
        {
            kind.queries.remove(&oldest);
        }
    }
    kind.queries.insert(
        key.to_owned(),
        QueryState {
            version: *version,
            view,
        },
    );
    counters.incremental_evals.fetch_add(1, Ordering::Relaxed);
    Some(forest.ok_or_else(not_forest_shaped))
}

fn not_forest_shaped() -> AxmlError {
    AxmlError::Shredding {
        msg: "shredded result is not forest-shaped".into(),
    }
}

/// Fingerprint-memoized path evaluation for the direct/NRC routes.
/// `None` = not engaged; the caller runs its compiled plan. The memo
/// evaluation honours the deadline and budget of `x` itself (see
/// [`eval_path_memo`]) and keeps the engine's `memo_entries` gauge.
pub(crate) fn eval_path_memoized<S: EvalKind>(
    doc: &Arc<StoredDoc>,
    forest: &Forest<S>,
    key: &str,
    p: &PathQuery,
    x: &Exec<'_>,
    counters: &Arc<IncrCounters>,
) -> Option<Result<Forest<S>, AxmlError>> {
    if doc.version == 0 {
        return None;
    }
    let mut incr = doc.incr.lock().unwrap_or_else(|e| e.into_inner());
    if incr.version != doc.version {
        return None;
    }
    let DocIncr {
        kinds,
        memo_entries,
        gauge,
        ..
    } = &mut *incr;
    let (memo, freed) = kind_mut::<S>(kinds).memo_for(key);
    let (h0, m0, e0) = (memo.hits, memo.misses, memo.entry_count() as u64);
    let out = eval_path_memo(forest, p, memo, x);
    counters
        .memo_hits
        .fetch_add(memo.hits - h0, Ordering::Relaxed);
    counters
        .memo_misses
        .fetch_add(memo.misses - m0, Ordering::Relaxed);
    counters.incremental_evals.fetch_add(1, Ordering::Relaxed);
    let share = *memo_entries + memo.entry_count() as u64 - e0 - freed;
    gauge
        .get_or_insert_with(|| Arc::clone(counters))
        .reshare_memo_entries(*memo_entries, share);
    *memo_entries = share;
    Some(out.map_err(|resource| AxmlError::Budget {
        resource,
        at: "memoized path evaluation".into(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With more queries than memo slots, the memo evicted is the
    /// least recently used one — never the one just used.
    #[test]
    fn the_least_recently_used_memo_is_evicted() {
        let mut kinds = HashMap::new();
        let kind = kind_mut::<NatPoly>(&mut kinds);
        for q in 0..MAX_MEMOS {
            kind.memo_for(&format!("q{q}"));
        }
        kind.memo_for("q0");
        kind.memo_for(&format!("q{MAX_MEMOS}"));
        assert_eq!(kind.memos.len(), MAX_MEMOS);
        assert!(
            kind.memos.contains_key("q0"),
            "the hottest memo was evicted"
        );
        assert!(
            !kind.memos.contains_key("q1"),
            "q1 was the least recently used"
        );
    }
}
