//! Incremental view maintenance for the shredded route (document
//! churn, PR 9).
//!
//! The shredded pipeline is `shred → ψ-Datalog fixpoint → gc → decode`
//! (Theorem 2). Under document *edits* most of that work is wasted:
//! the edge relation `E` of the new document differs from the old one
//! in O(edited subtree + spine) facts. This module maintains the
//! correspondence between a document and its shredding across edits:
//!
//! - [`ShadowDoc`] mirrors the value forest one node per forest entry,
//!   remembering the shred node id assigned to each entry. Forests are
//!   keyed on tree *value* (value-identical siblings merge at
//!   construction), so the mirror is exact: entry ↔ shadow node.
//! - [`ShadowDoc::sync`] diffs the mirror against the edited forest
//!   level by level and emits an [`OwnedDelta`]: facts to retire and
//!   facts to add. Unchanged subtrees keep their ids and produce no
//!   delta (a no-op edit yields an empty delta); a changed entry whose
//!   label and annotation survive keeps its id (its own `E` fact is
//!   unchanged) and recurses; everything else retires its whole old
//!   subtree and re-shreds the replacement with *fresh* ids.
//!
//! Fresh ids never collide with ids ever used before (`next_id` is
//! monotone), which gives the **deletion exactness** property the
//! incremental solver relies on: every retired fact mentions a retired
//! id in a node position, retired ids occur in *no* retained fact, and
//! — for ψ programs without filters, whose every rule head retains
//! every body node variable — any IDB tuple derived using a retired
//! fact mentions a retired id (possibly inside a Skolem term). Pruning
//! IDB tuples that mention retired ids (see [`prune_retired`])
//! therefore yields exactly the fixpoint over the retained EDB, and
//! [`crate::datalog::eval_datalog_idb_resume`] can continue the
//! semi-naive fixpoint from the added facts alone. Filter queries drop
//! a body node variable in ψ's qualifier projection, so their cached
//! IDB state cannot be pruned exactly — callers fall back to a full
//! re-solve over the (still incrementally maintained) edge relation.
//!
//! [`ShreddedView`] packages both tiers for the engine: it keeps one
//! query's edge relation, fixpoint and decoded result interned over
//! its own term table and applies each net delta in place. The
//! `KRelation` helpers here ([`prune_retired`],
//! [`added_facts_relation`], [`OwnedDelta::apply_to_edges`]) state the
//! same contract at the boundary, for tests and one-off callers.

use crate::datalog::{resume, solve, DatalogError, ResumePlan, DEFAULT_MAX_ITERS};
use crate::krel::{KRelation, RelValue, Tuple};
use crate::shred::{edge_schema, for_each_fact, path_to_datalog};
use crate::term::{FxMap, FxSet, Rows, TermId, TermTable};
use axml_core::path::PathQuery;
use axml_semiring::{Semiring, SemiringHom};
use axml_uxml::{Exec, Forest, Label, Tree};
use std::collections::{HashMap, HashSet};

/// One forest entry in the mirror: the value tree it corresponds to,
/// its annotation in the containing forest, the shred node id assigned
/// to it, and mirrors of its children.
#[derive(Clone, Debug)]
pub struct ShadowNode<K: Semiring> {
    /// The shred node id (`E(parent, id, label)` carries it).
    pub id: u64,
    /// The value subtree this entry mirrors.
    pub tree: Tree<K>,
    /// The entry's annotation in its containing forest.
    pub ann: K,
    /// Mirrors of `tree.children()`, one per entry.
    pub kids: Vec<ShadowNode<K>>,
}

/// A document's shredding mirror: node-id assignment for every forest
/// entry, plus the monotone id allocator.
#[derive(Clone, Debug)]
pub struct ShadowDoc<K: Semiring> {
    next_id: u64,
    roots: Vec<ShadowNode<K>>,
}

/// One added edge fact `E(pid, nid, label)`; the annotation is kept
/// alongside in [`OwnedDelta::added`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AddedFact {
    /// Parent node id (0 = top level).
    pub pid: u64,
    /// The new node's id.
    pub nid: u64,
    /// The new node's label.
    pub label: Label,
}

/// The edge-relation delta produced by one [`ShadowDoc::sync`]: ids to
/// retire plus added facts with their annotations. Every old `E` fact
/// mentioning a retired id (as parent or child) is gone from the new
/// shredding; no retained or added fact mentions any retired id.
#[derive(Clone, Debug)]
pub struct OwnedDelta<K: Semiring> {
    /// Ids retired by the edit.
    pub retired: Vec<u64>,
    /// Added facts with their annotations.
    pub added: Vec<(AddedFact, K)>,
}

impl<K: Semiring> OwnedDelta<K> {
    /// True when the edit changed nothing in the edge relation.
    pub fn is_empty(&self) -> bool {
        self.retired.is_empty() && self.added.is_empty()
    }

    /// Map the added annotations through a homomorphism (retired ids
    /// are annotation-free).
    pub fn map_annotations<S: Semiring, H: SemiringHom<K, S>>(&self, h: &H) -> OwnedDelta<S> {
        OwnedDelta {
            retired: self.retired.clone(),
            added: self
                .added
                .iter()
                .map(|(f, k)| (f.clone(), h.apply(k)))
                .collect(),
        }
    }

    /// Apply this delta to an edge relation: drop facts mentioning
    /// retired ids, insert the added facts. `rel` must be the edge
    /// relation of the pre-edit document (in the same semiring).
    pub fn apply_to_edges(&self, rel: &KRelation<K>) -> KRelation<K> {
        let retired: HashSet<u64> = self.retired.iter().copied().collect();
        let mut out = KRelation::new(rel.schema().clone());
        for (t, k) in rel.iter() {
            if !tuple_mentions(t, &retired) {
                out.insert(t.clone(), k.clone());
            }
        }
        for (f, k) in &self.added {
            out.insert(fact_tuple(f), k.clone());
        }
        out
    }
}

fn fact_tuple(f: &AddedFact) -> Tuple {
    vec![
        RelValue::Node(f.pid),
        RelValue::Node(f.nid),
        RelValue::Label(f.label),
    ]
}

/// Does `v` mention any of the given node ids (recursively through
/// Skolem terms)?
pub fn value_mentions(v: &RelValue, ids: &HashSet<u64>) -> bool {
    match v {
        RelValue::Label(_) => false,
        RelValue::Node(n) => ids.contains(n),
        RelValue::Skolem(_, args) => args.iter().any(|a| value_mentions(a, ids)),
    }
}

/// Does any value of `t` mention any of the given node ids?
pub fn tuple_mentions(t: &Tuple, ids: &HashSet<u64>) -> bool {
    t.iter().any(|v| value_mentions(v, ids))
}

/// Rebuild a relation without the tuples that mention retired ids
/// (recursively through Skolem arguments). For filter-free ψ programs
/// this is *exactly* the IDB fixpoint over the retained EDB — see the
/// module docs for the argument.
pub fn prune_retired<K: Semiring>(rel: &KRelation<K>, retired: &HashSet<u64>) -> KRelation<K> {
    let mut out = KRelation::new(rel.schema().clone());
    for (t, k) in rel.iter() {
        if !tuple_mentions(t, retired) {
            out.insert(t.clone(), k.clone());
        }
    }
    out
}

/// Build the added-facts seed relation for
/// [`crate::datalog::eval_datalog_idb_resume`] from the net additions
/// of a delta span. Facts whose parent was itself retired later in the
/// span must be filtered out by the caller (net additions only).
pub fn added_facts_relation<K: Semiring>(added: &[(AddedFact, K)]) -> KRelation<K> {
    let mut rel = KRelation::new(edge_schema());
    for (f, k) in added {
        rel.insert(fact_tuple(f), k.clone());
    }
    rel
}

/// The node was retired by the delta. The marks of one delta are bit
/// sets indexed by term id (see [`ShreddedView::update`]).
const RETIRED: u8 = 1;
/// The node is the parent of a net added fact (an attach point).
const TOUCHED: u8 = 2;
/// The node is new in this delta.
const FRESH: u8 = 4;
/// The node belongs to a cached root that the delta made dirty.
const NEED: u8 = 8;

/// Compaction runs once at least this many terms are dead and they
/// outnumber the live ones.
const COMPACT_MIN_DEAD: usize = 1024;

/// One §7 query's shredded pipeline over one document, kept in
/// interned form across edits: the document's edge relation `E`, the
/// ψ fixpoint over it, and the decoded result forest.
///
/// Everything is stored over one [`TermTable`] the view owns: `E` and
/// the IDB relations are `u32` rows, the result cache is keyed on
/// `E2` rows and records node term ids. [`ShreddedView::update`]
/// applies an edit delta to all three without building or comparing a
/// single [`RelValue`]:
///
/// - **edge delta and prune** — one forward pass over the term table
///   marks every term that mentions a retired node (arguments precede
///   terms), then a `u32` scan drops the `E` and IDB rows holding a
///   marked term;
/// - **seed and delta rounds** — the resumed semi-naive fixpoint
///   ([`crate::datalog::eval_datalog_idb_resume`]'s engine) probes
///   `u32` columns, driven by the handful of added facts;
/// - **result** — the result cache tests parent ids against a bitmap
///   and decodes only the roots the delta made live.
///
/// Pruning by retired ids is exact only for filter-free queries (see
/// the module docs); a view of a query with filters re-solves from
/// scratch over its maintained `E` on every update and keeps only the
/// decoded forest.
pub struct ShreddedView<K: Semiring> {
    plan: ResumePlan,
    /// Filter-free: updates resume the retained fixpoint.
    exact: bool,
    terms: TermTable,
    /// Terms interned by compilation (rule constants, the virtual
    /// root): compaction keeps them, so their ids never move.
    fixed: usize,
    zero: TermId,
    edges: Rows<K>,
    /// The retained fixpoint, in plan order (empty unless `exact`).
    idb: Vec<Rows<K>>,
    /// `E2`'s position among the IDB predicates.
    e2: usize,
    cache: ResultCache<K>,
    /// Terms marked dead since the last compaction.
    dead: usize,
}

impl<K: Semiring> ShreddedView<K> {
    fn with_edges(
        p: &PathQuery,
        load: impl FnOnce(&mut TermTable, &mut Rows<K>),
        x: &Exec<'_>,
    ) -> Result<Self, DatalogError> {
        let mut terms = TermTable::new();
        let plan = ResumePlan::new(&path_to_datalog(p), &[("E", 3)], "E", &mut terms)?;
        let zero = terms.node(0);
        let e2 = plan.compiled.idb_index("E2").expect("ψ always defines E2");
        let fixed = terms.len();
        let mut edges = Rows::new(3);
        load(&mut terms, &mut edges);
        let mut view = ShreddedView {
            plan,
            exact: !p.has_filter(),
            terms,
            fixed,
            zero,
            edges,
            idb: Vec::new(),
            e2,
            cache: ResultCache::default(),
            dead: 0,
        };
        view.solve(x)?;
        Ok(view)
    }

    /// Shred a mirrored document (annotations mapped through `h`) and
    /// solve `p` over it. The deadline and budget of `x` are honoured
    /// as by [`crate::datalog::eval_datalog_idb`].
    pub fn new<S: Semiring, H: SemiringHom<S, K>>(
        p: &PathQuery,
        doc: &ShadowDoc<S>,
        h: &H,
        x: &Exec<'_>,
    ) -> Result<Self, DatalogError> {
        Self::with_edges(
            p,
            |terms, edges| {
                doc.for_each_fact(&mut |pid, nid, label, ann| {
                    edges.insert(&fact_row(terms, pid, nid, label), h.apply(ann));
                })
            },
            x,
        )
    }

    /// Shred a forest (φ, document-order ids) and solve `p` over it.
    pub fn from_forest(
        p: &PathQuery,
        forest: &Forest<K>,
        x: &Exec<'_>,
    ) -> Result<Self, DatalogError> {
        Self::with_edges(
            p,
            |terms, edges| {
                for_each_fact(forest, |pid, nid, label, ann| {
                    edges.insert(&fact_row(terms, pid, nid, label), ann.clone());
                })
            },
            x,
        )
    }

    /// The decoded result (`None`: the `E2` fixpoint is not
    /// forest-shaped — a cycle or a non-label in the label column).
    pub fn forest(&self) -> Option<&Forest<K>> {
        self.cache.forest.as_ref()
    }

    /// The decoded result, by value.
    pub fn into_forest(self) -> Option<Forest<K>> {
        self.cache.forest
    }

    /// Solve from scratch over the current `E` and rebuild the result.
    fn solve(&mut self, x: &Exec<'_>) -> Result<(), DatalogError> {
        let before = self.terms.len();
        let idb = solve(
            &self.plan.compiled,
            &mut self.terms,
            &[&self.edges],
            DEFAULT_MAX_ITERS,
            x,
        )?;
        self.cache.rebuild(&self.terms, &idb[self.e2], self.zero);
        if self.exact {
            self.idb = idb;
        } else {
            // Nothing but the forest outlives the solve: drop the
            // cache's term ids and every term the solve interned.
            self.cache.roots.clear();
            self.terms.truncate(before);
        }
        Ok(())
    }

    /// Apply one net edit delta — the node ids it retired and the edge
    /// facts it added (with parents and children never retired in the
    /// same delta) — and bring the result up to date. An error (a
    /// tripped limit) consumes the view: its state is half-updated.
    pub fn update(
        mut self,
        retired: &HashSet<u64>,
        added: &[(AddedFact, K)],
        x: &Exec<'_>,
    ) -> Result<Self, DatalogError> {
        if retired.is_empty() && added.is_empty() {
            return Ok(self);
        }
        // 1. Edge delta and prune.
        let mut marks = vec![0u8; self.terms.len()];
        for &n in retired {
            if let Some(t) = self.terms.find_node(n) {
                marks[t as usize] |= RETIRED;
            }
        }
        let dead = self.terms.mentions(|t| marks[t as usize] & RETIRED != 0);
        let n_dead = dead.iter().filter(|&&d| d).count();
        if n_dead > 0 {
            let live = |row: &[TermId], _: &K| !row.iter().any(|&t| dead[t as usize]);
            self.edges.retain(live);
            for rel in &mut self.idb {
                rel.retain(live);
            }
            self.dead += n_dead;
        }
        let mut fresh = Rows::new(3);
        for (f, k) in added {
            fresh.insert(&fact_row(&mut self.terms, f.pid, f.nid, f.label), k.clone());
        }
        marks.resize(self.terms.len(), 0);
        for (row, k) in fresh.iter() {
            marks[row[0] as usize] |= TOUCHED;
            marks[row[1] as usize] |= FRESH;
            self.edges.insert(row, k.clone());
        }
        if !self.exact {
            self.solve(x)?;
            self.maybe_compact();
            return Ok(self);
        }
        // 2. Seed and delta rounds from the added facts.
        let retained = std::mem::take(&mut self.idb);
        self.idb = resume(
            &self.plan,
            &mut self.terms,
            &[&self.edges],
            &fresh,
            retained,
            DEFAULT_MAX_ITERS,
            x,
        )?;
        // 3. Patch the result; rebuild whenever the delta steps outside
        //    the tier-A id model.
        marks.resize(self.terms.len(), 0);
        let e2 = &self.idb[self.e2];
        if !self
            .cache
            .apply_delta(&self.terms, e2, self.zero, &mut marks)
        {
            self.cache.rebuild(&self.terms, e2, self.zero);
        }
        self.maybe_compact();
        Ok(self)
    }

    /// Once dead terms outnumber live ones, renumber the table down to
    /// the terms still in use, so it stays proportional to the live
    /// document rather than to the edit history.
    fn maybe_compact(&mut self) {
        if self.dead < COMPACT_MIN_DEAD || 2 * self.dead <= self.terms.len() {
            return;
        }
        let mut live = vec![false; self.terms.len()];
        live[..self.fixed].fill(true);
        for rel in std::iter::once(&self.edges).chain(&self.idb) {
            for &t in rel.cells() {
                live[t as usize] = true;
            }
        }
        for (key, root) in &self.cache.roots {
            for &t in key.iter().chain(&root.ids) {
                live[t as usize] = true;
            }
        }
        self.terms.close_under_args(&mut live);
        let remap = self.terms.compact(&live);
        let f = |t: TermId| remap[t as usize];
        self.edges.remap(f);
        for rel in &mut self.idb {
            rel.remap(f);
        }
        self.cache.remap(f);
        self.dead = 0;
    }
}

/// The interned edge fact `E(pid, nid, label)`.
fn fact_row(terms: &mut TermTable, pid: u64, nid: u64, label: Label) -> [TermId; 3] {
    [terms.node(pid), terms.node(nid), terms.label(label)]
}

/// The decoded result forest of one shredded query, maintained
/// incrementally across edits. Replaces the per-evaluation
/// `garbage_collect` + `decode` passes with a patch that decodes only
/// what the delta touched, and keeps the assembled forest so a read at
/// an unchanged version is a clone.
///
/// Soundness rests on the same id discipline as the IDB pruning (see
/// the module docs): a retained id keeps its label, annotation, and
/// ancestor chain across an edit, so a cached result root whose
/// subtree mentions **no** retired id and **no** attach point of an
/// added fact decodes to the identical tree with the identical
/// annotation. Every other root — removed, interior-edited, or brand
/// new — lives entirely inside the retired ∪ fresh id region, so its
/// replacement decodes from rows whose parent mentions one of those
/// ids. Any observation outside this model (a cached root vanishing
/// while clean, an annotation moving on a clean root, a walk escaping
/// the delta region) makes [`ResultCache::apply_delta`] report failure
/// and the caller falls back to [`ResultCache::rebuild`].
pub(crate) struct ResultCache<K: Semiring> {
    /// Live roots, keyed on their `E2` row.
    roots: FxMap<[TermId; 3], CachedRoot<K>>,
    /// The assembled result: `None` when `E2` is not forest-shaped.
    forest: Option<Forest<K>>,
}

struct CachedRoot<K: Semiring> {
    tree: Tree<K>,
    ann: K,
    /// The node terms mentioned in the root's subtree rows (through
    /// Skolem arguments) — the dirtiness probe.
    ids: Vec<TermId>,
}

impl<K: Semiring> Default for ResultCache<K> {
    fn default() -> Self {
        ResultCache {
            roots: FxMap::default(),
            forest: Some(Forest::new()),
        }
    }
}

/// `E2` row positions by parent term.
type Children = FxMap<TermId, Vec<usize>>;

impl<K: Semiring> ResultCache<K> {
    /// Rebuild the cache from a raw (pre-gc) `E2` relation —
    /// `garbage_collect` + `decode` fused into one pass (walking only
    /// from the `0`-parent roots never visits garbage).
    pub(crate) fn rebuild(&mut self, terms: &TermTable, e2: &Rows<K>, zero: TermId) {
        self.roots.clear();
        let mut children = Children::default();
        let mut live = Vec::new();
        for p in 0..e2.len() {
            let pid = e2.row(p)[0];
            if pid == zero {
                live.push(p);
            } else {
                children.entry(pid).or_default().push(p);
            }
        }
        for p in live {
            let Some(root) = decode_root(terms, e2, p, &children, None) else {
                self.roots.clear();
                self.forest = None;
                return;
            };
            self.roots.insert(row3(e2.row(p)), root);
        }
        self.assemble();
    }

    /// Patch the cache after an edit delta. `e2` is the raw post-edit
    /// `E2` fixpoint; `marks` flags the delta's retired, attach-point
    /// and fresh node terms (indexes past its end are unmarked).
    /// Returns `false` when the delta did not behave like a tier-A
    /// edit — the caller must [`ResultCache::rebuild`].
    pub(crate) fn apply_delta(
        &mut self,
        terms: &TermTable,
        e2: &Rows<K>,
        zero: TermId,
        marks: &mut [u8],
    ) -> bool {
        let mark = |marks: &[u8], t: TermId| marks.get(t as usize).copied().unwrap_or(0);
        // 1. Dirty roots: any overlap with retired ids or attach
        //    points. Their replacements decode from the need region.
        let dirty: Vec<[TermId; 3]> = self
            .roots
            .iter()
            .filter(|(_, r)| {
                r.ids
                    .iter()
                    .any(|&t| mark(marks, t) & (RETIRED | TOUCHED) != 0)
            })
            .map(|(key, _)| *key)
            .collect();
        for key in &dirty {
            if let Some(r) = self.roots.remove(key) {
                for t in r.ids {
                    if let Some(m) = marks.get_mut(t as usize) {
                        *m |= NEED;
                    }
                }
            }
        }
        // 2. One scan: live roots, plus children of the need region
        //    (parents tested against a bitmap).
        let need = terms.mentions(|t| mark(marks, t) & (NEED | FRESH) != 0);
        let mut children = Children::default();
        let mut live = Vec::new();
        for p in 0..e2.len() {
            let pid = e2.row(p)[0];
            if pid == zero {
                live.push(p);
            } else if need[pid as usize] {
                children.entry(pid).or_default().push(p);
            }
        }
        // 3. Clean cached roots must all still be live with their
        //    annotation intact; only the rest are decoded.
        let mut seen = 0usize;
        for p in live {
            let key = row3(e2.row(p));
            match self.roots.get(&key) {
                Some(r) if r.ann != *e2.ann(p) => return false,
                Some(_) => {}
                None => {
                    let Some(root) = decode_root(terms, e2, p, &children, Some(&need)) else {
                        return false;
                    };
                    self.roots.insert(key, root);
                }
            }
            seen += 1;
        }
        if seen != self.roots.len() {
            return false; // a clean cached root vanished from the fixpoint
        }
        self.assemble();
        true
    }

    /// Refresh the assembled forest: value-identical roots merge,
    /// exactly as `decode` merges them. Roots are counted per
    /// (tree, annotation) first, and `n` equal annotations add up by
    /// doubling — a result of n equal leaves costs O(log n) semiring
    /// additions rather than n.
    fn assemble(&mut self) {
        let mut groups: FxMap<&Tree<K>, FxMap<&K, usize>> = FxMap::default();
        for r in self.roots.values() {
            *groups
                .entry(&r.tree)
                .or_default()
                .entry(&r.ann)
                .or_default() += 1;
        }
        self.forest = Some(Forest::from_pairs(groups.into_iter().map(
            |(tree, anns)| {
                let total = K::sum(anns.into_iter().map(|(k, n)| times_count(k, n)));
                (tree.clone(), total)
            },
        )));
    }

    /// Rewrite every term id through `f` (after table compaction).
    fn remap(&mut self, f: impl Fn(TermId) -> TermId) {
        self.roots = std::mem::take(&mut self.roots)
            .into_iter()
            .map(|(key, mut root)| {
                for t in &mut root.ids {
                    *t = f(*t);
                }
                (key.map(&f), root)
            })
            .collect();
    }
}

/// `k + k + … + k` (`n` times), by doubling.
fn times_count<K: Semiring>(k: &K, mut n: usize) -> K {
    let mut acc = K::zero();
    let mut pow = k.clone();
    while n > 0 {
        if n & 1 == 1 {
            acc = acc.plus(&pow);
        }
        n >>= 1;
        if n > 0 {
            pow = pow.plus(&pow);
        }
    }
    acc
}

fn row3(row: &[TermId]) -> [TermId; 3] {
    [row[0], row[1], row[2]]
}

/// Decode the root at `E2` position `p` with its annotation and id set.
fn decode_root<K: Semiring>(
    terms: &TermTable,
    e2: &Rows<K>,
    p: usize,
    children: &Children,
    need: Option<&[bool]>,
) -> Option<CachedRoot<K>> {
    let mut ids = Vec::new();
    let mut on_path = FxSet::default();
    let tree = decode_reachable(terms, e2, p, children, &mut on_path, &mut ids, need)?;
    Some(CachedRoot {
        tree,
        ann: e2.ann(p).clone(),
        ids,
    })
}

/// Decode the subtree hanging off one `E2` row from a children-by-pid
/// map, collecting every mentioned node term into `ids`. With
/// `need = Some(set)`, bail (`None`) if the walk mentions a node
/// outside the set — the caller's children map only covers that
/// region, so an escape would silently truncate the tree.
fn decode_reachable<K: Semiring>(
    terms: &TermTable,
    e2: &Rows<K>,
    p: usize,
    children: &Children,
    on_path: &mut FxSet<TermId>,
    ids: &mut Vec<TermId>,
    need: Option<&[bool]>,
) -> Option<Tree<K>> {
    let row = e2.row(p);
    let nid = row[1];
    let label = terms.as_label(row[2])?;
    if !on_path.insert(nid) {
        return None; // cycle through nid
    }
    let before = ids.len();
    terms.node_terms(nid, ids);
    if let Some(need) = need {
        if ids[before..].iter().any(|&t| !need[t as usize]) {
            return None;
        }
    }
    let mut forest = Forest::new();
    if let Some(kids) = children.get(&nid) {
        for &c in kids {
            let sub = decode_reachable(terms, e2, c, children, on_path, ids, need)?;
            forest.insert(sub, e2.ann(c).clone());
        }
    }
    on_path.remove(&nid);
    Some(Tree::new(label, forest))
}

impl<K: Semiring> ShadowDoc<K> {
    /// Mirror a forest, assigning fresh ids in document order (ids
    /// start at 1; 0 is the virtual root, as in [`crate::shred::shred`]).
    pub fn from_forest(forest: &Forest<K>) -> Self {
        let mut doc = ShadowDoc {
            next_id: 1,
            roots: Vec::new(),
        };
        doc.roots = forest
            .iter_document()
            .into_iter()
            .map(|(t, k)| mirror_fresh(&mut doc.next_id, t, k))
            .collect();
        doc
    }

    /// The edge relation of the mirrored document, with annotations
    /// mapped through `h` — byte-equivalent (up to node-id choice) to
    /// `shred(map(forest))`. Used to (re)build per-semiring edge
    /// relations from the canonical mirror.
    pub fn edges_mapped<S: Semiring, H: SemiringHom<K, S>>(&self, h: &H) -> KRelation<S> {
        let mut rel = KRelation::new(edge_schema());
        self.for_each_fact(&mut |pid, nid, label, ann| {
            rel.insert(
                vec![
                    RelValue::Node(pid),
                    RelValue::Node(nid),
                    RelValue::Label(label),
                ],
                h.apply(ann),
            );
        });
        rel
    }

    /// Visit every edge fact `E(pid, nid, label) @ ann` of the mirror.
    pub fn for_each_fact(&self, f: &mut impl FnMut(u64, u64, Label, &K)) {
        fn walk<K: Semiring>(pid: u64, n: &ShadowNode<K>, f: &mut impl FnMut(u64, u64, Label, &K)) {
            f(pid, n.id, n.tree.label(), &n.ann);
            for kid in &n.kids {
                walk(n.id, kid, f);
            }
        }
        for r in &self.roots {
            walk(0, r, f);
        }
    }

    /// Total number of mirrored entries (diagnostics).
    pub fn node_count(&self) -> usize {
        fn count<K: Semiring>(n: &ShadowNode<K>) -> usize {
            1 + n.kids.iter().map(count).sum::<usize>()
        }
        self.roots.iter().map(count).sum()
    }

    /// Diff the mirror against the edited forest and update it in
    /// place, returning the net edge delta. Matching per level, in
    /// document order:
    ///
    /// 1. a new entry value- and annotation-identical to an old kid
    ///    keeps that kid's entire mirror subtree (no delta);
    /// 2. otherwise, a new entry whose label and annotation match an
    ///    old kid *adopts* its id — the kid's own `E` fact is
    ///    unchanged — and the diff recurses into the children;
    /// 3. old kids left unmatched retire their whole subtree; new
    ///    entries left unmatched shred fresh with brand-new ids.
    ///
    /// Ambiguous matches resolve first-to-first in document order: any
    /// resolution is correct (ids are opaque), only delta size varies.
    pub fn sync(&mut self, new: &Forest<K>) -> OwnedDelta<K> {
        let mut delta = OwnedDelta {
            retired: Vec::new(),
            added: Vec::new(),
        };
        let old_roots = std::mem::take(&mut self.roots);
        self.roots = sync_level(&mut self.next_id, 0, old_roots, new, &mut delta);
        delta
    }
}

/// Freshly mirror `t @ ann` without recording facts (initial build).
fn mirror_fresh<K: Semiring>(next_id: &mut u64, t: &Tree<K>, ann: &K) -> ShadowNode<K> {
    let id = *next_id;
    *next_id += 1;
    let kids = t
        .children_document()
        .iter()
        .map(|(c, ck)| mirror_fresh(next_id, c, ck))
        .collect();
    ShadowNode {
        id,
        tree: t.clone(),
        ann: ann.clone(),
        kids,
    }
}

/// Freshly mirror `t @ ann` under parent `pid`, recording each new
/// fact in `added`.
fn shred_fresh<K: Semiring>(
    next_id: &mut u64,
    pid: u64,
    t: &Tree<K>,
    ann: &K,
    added: &mut Vec<(AddedFact, K)>,
) -> ShadowNode<K> {
    let id = *next_id;
    *next_id += 1;
    added.push((
        AddedFact {
            pid,
            nid: id,
            label: t.label(),
        },
        ann.clone(),
    ));
    let kids = t
        .children_document()
        .iter()
        .map(|(c, ck)| shred_fresh(next_id, id, c, ck, added))
        .collect();
    ShadowNode {
        id,
        tree: t.clone(),
        ann: ann.clone(),
        kids,
    }
}

fn retire_subtree<K: Semiring>(n: ShadowNode<K>, retired: &mut Vec<u64>) {
    retired.push(n.id);
    for kid in n.kids {
        retire_subtree(kid, retired);
    }
}

fn sync_level<K: Semiring>(
    next_id: &mut u64,
    pid: u64,
    old: Vec<ShadowNode<K>>,
    new: &Forest<K>,
    delta: &mut OwnedDelta<K>,
) -> Vec<ShadowNode<K>> {
    let new_entries = new.iter_document();
    // Pass 1: exact (tree, ann) matches keep their subtree untouched.
    // Tree values are unique within a forest (the forest is keyed on
    // them), so a value-keyed index has one slot per old kid.
    let mut by_tree: HashMap<&Tree<K>, usize> = HashMap::with_capacity(old.len());
    for (i, kid) in old.iter().enumerate() {
        by_tree.insert(&kid.tree, i);
    }
    let mut taken: Vec<Option<usize>> = vec![None; new_entries.len()];
    let mut used = vec![false; old.len()];
    for (j, (t, a)) in new_entries.iter().enumerate() {
        if let Some(&i) = by_tree.get(*t) {
            if !used[i] && old[i].ann == **a {
                used[i] = true;
                taken[j] = Some(i);
            }
        }
    }
    drop(by_tree);
    // Pass 2: label+annotation matches adopt the old id and recurse.
    let mut by_label: HashMap<Label, Vec<usize>> = HashMap::new();
    for (i, kid) in old.iter().enumerate() {
        if !used[i] {
            by_label.entry(kid.tree.label()).or_default().push(i);
        }
    }
    for (j, (t, a)) in new_entries.iter().enumerate() {
        if taken[j].is_some() {
            continue;
        }
        if let Some(cands) = by_label.get_mut(&t.label()) {
            if let Some(pos) = cands.iter().position(|&i| !used[i] && old[i].ann == **a) {
                let i = cands.remove(pos);
                used[i] = true;
                taken[j] = Some(i);
            }
        }
    }
    // Move matched old kids out; retire the rest.
    let mut slots: Vec<Option<ShadowNode<K>>> = old.into_iter().map(Some).collect();
    let mut result: Vec<ShadowNode<K>> = Vec::with_capacity(new_entries.len());
    for (j, (t, a)) in new_entries.iter().enumerate() {
        match taken[j] {
            Some(i) => {
                let mut kid = slots[i].take().expect("matched old kid taken twice");
                if kid.tree != **t {
                    // Adopted: same id, same fact; children differ.
                    let old_kids = std::mem::take(&mut kid.kids);
                    kid.kids = sync_level(next_id, kid.id, old_kids, t.children(), delta);
                    kid.tree = (*t).clone();
                }
                result.push(kid);
            }
            None => {
                result.push(shred_fresh(next_id, pid, t, a, &mut delta.added));
            }
        }
    }
    for kid in slots.into_iter().flatten() {
        retire_subtree(kid, &mut delta.retired);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shred::shred;
    use axml_semiring::{IdentityHom, NatPoly};
    use std::collections::BTreeMap;

    fn parse(src: &str) -> Forest<NatPoly> {
        axml_uxml::parse_forest::<NatPoly>(src).expect("parse")
    }

    /// Canonical multiset of (pid-label-path–independent) edge facts
    /// can't be compared across different id assignments directly;
    /// instead compare decoded forests — ids are opaque.
    fn facts_by_id<K: Semiring>(rel: &KRelation<K>) -> BTreeMap<Tuple, K> {
        rel.iter().map(|(t, k)| (t.clone(), k.clone())).collect()
    }

    #[test]
    fn mirror_matches_shred_shape() {
        let f = parse("<a> <b/> <c {x}> <d/> </c> </a> <e/>");
        let doc = ShadowDoc::from_forest(&f);
        let mirrored = doc.edges_mapped(&IdentityHom);
        let shredded = shred(&f);
        // Same number of facts; same multiset of (label, ann) pairs.
        assert_eq!(mirrored.len(), shredded.len());
        assert_eq!(doc.node_count(), shredded.len());
    }

    #[test]
    fn noop_sync_is_empty() {
        let f = parse("<a> <b/> <c {x}> <d/> </c> </a>");
        let mut doc = ShadowDoc::from_forest(&f);
        let before = facts_by_id(&doc.edges_mapped(&IdentityHom));
        let delta = doc.sync(&f);
        assert!(delta.is_empty());
        assert_eq!(before, facts_by_id(&doc.edges_mapped(&IdentityHom)));
    }

    #[test]
    fn sync_delta_reconstructs_edges() {
        let old = parse("<a> <b/> <c {x}> <d/> </c> </a> <e/>");
        let new = parse("<a> <b/> <c {x}> <q/> <d2/> </c> </a> <e/>");
        let mut doc = ShadowDoc::from_forest(&old);
        let e_old = doc.edges_mapped(&IdentityHom);
        let delta = doc.sync(&new);
        assert!(!delta.is_empty());
        // Applying the delta to the old edges gives the new mirror's
        // edges exactly.
        let patched = delta.apply_to_edges(&e_old);
        let rebuilt = doc.edges_mapped(&IdentityHom);
        assert_eq!(facts_by_id(&patched), facts_by_id(&rebuilt));
        // Unchanged subtrees kept their ids: <b/>, <e/> facts intact.
        let old_facts = facts_by_id(&e_old);
        let new_facts = facts_by_id(&rebuilt);
        let kept = old_facts
            .iter()
            .filter(|(t, _)| new_facts.contains_key(*t))
            .count();
        assert!(kept >= 3, "spine reuse: kept {kept} of {}", old_facts.len());
    }

    #[test]
    fn retired_and_added_are_disjoint() {
        let old = parse("<a> <b> <x/> </b> </a>");
        let new = parse("<a> <b> <y/> </b> </a>");
        let mut doc = ShadowDoc::from_forest(&old);
        let delta = doc.sync(&new);
        let retired: HashSet<u64> = delta.retired.iter().copied().collect();
        for (f, _) in &delta.added {
            assert!(!retired.contains(&f.nid), "fresh id collides with retired");
        }
        // <a> and <b> keep their ids (label+ann adoption), only <x/>
        // retires and <y/> is fresh.
        assert_eq!(delta.retired.len(), 1);
        assert_eq!(delta.added.len(), 1);
    }

    fn descendant(l: &str) -> PathQuery {
        use axml_core::ast::{Axis, NodeTest, Step};
        PathQuery::from_steps(&[Step {
            axis: Axis::Descendant,
            test: NodeTest::Label(Label::new(l)),
        }])
    }

    #[test]
    fn a_patched_result_equals_a_rebuild_over_the_same_e2() {
        let old = parse("<r> <a> c {x} <b> c {y} </b> </a> <a> c {z} </a> <d> <c/> </d> </r>");
        let new = parse("<r> <a> c {x} <b> c {y} <e> c {w} </e> </b> </a> <d> <c/> </d> </r>");
        let q = descendant("c");
        let mut doc = ShadowDoc::from_forest(&old);
        let view = ShreddedView::new(&q, &doc, &IdentityHom, &Exec::default()).unwrap();
        let before: HashMap<[TermId; 3], usize> = view
            .cache
            .roots
            .iter()
            .map(|(key, r)| (*key, r.tree.ptr_token()))
            .collect();
        let delta = doc.sync(&new);
        let retired: HashSet<u64> = delta.retired.iter().copied().collect();
        let view = view
            .update(&retired, &delta.added, &Exec::default())
            .unwrap();
        // The patch kept the clean roots' decoded trees (a rebuild
        // would have decoded every root afresh).
        let kept = view
            .cache
            .roots
            .iter()
            .filter(|(key, r)| before.get(*key) == Some(&r.tree.ptr_token()))
            .count();
        assert!(kept > 0 && kept < view.cache.roots.len(), "kept {kept}");
        let mut rebuilt = ResultCache::default();
        rebuilt.rebuild(&view.terms, &view.idb[view.e2], view.zero);
        assert_eq!(view.forest(), rebuilt.forest.as_ref());
        let direct = crate::shred::eval_path_via_shredding(&new, &q, &Exec::default()).unwrap();
        assert_eq!(view.forest(), Some(&direct));
    }

    #[test]
    fn compaction_keeps_the_result_and_bounds_the_table() {
        let q = descendant("c");
        let base = parse("<r> <a> c {x} </a> <b> c {y} </b> </r>");
        let mut doc = ShadowDoc::from_forest(&base);
        let mut view = ShreddedView::new(&q, &doc, &IdentityHom, &Exec::default()).unwrap();
        let mut peak = 0;
        for i in 0..1500 {
            let next = parse(&format!(
                "<r> <a> c {{x}} </a> <b> <n{i}> c {{y}} </n{i}> </b> </r>"
            ));
            let delta = doc.sync(&next);
            let retired: HashSet<u64> = delta.retired.iter().copied().collect();
            view = view
                .update(&retired, &delta.added, &Exec::default())
                .unwrap();
            peak = peak.max(view.terms.len());
            if i % 250 == 0 {
                let direct =
                    crate::shred::eval_path_via_shredding(&next, &q, &Exec::default()).unwrap();
                assert_eq!(view.forest(), Some(&direct), "edit {i}");
            }
        }
        assert!(peak < 4 * COMPACT_MIN_DEAD, "term table grew to {peak}");
    }
}
