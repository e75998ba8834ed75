//! Arena/columnar storage for K-UXML trees with content-addressed
//! subtree sharing (hash-consing).
//!
//! [`Tree`] is a pointer-linked `Arc` structure: ideal for the value
//! semantics of §3, but descendant sweeps chase pointers and every
//! separately-built copy of a subtree occupies its own memory. A
//! [`TreeArena`] stores trees **columnar**: one flat `Vec` entry per
//! distinct subtree (label, cached `(size, hash)` fingerprint, and a
//! contiguous child *range*), with child ids and child annotations in
//! two parallel columns. Sweeps become linear scans over dense arrays,
//! and splitting a sweep for parallelism is range slicing instead of
//! frontier expansion.
//!
//! # Content addressing
//!
//! Interning **hash-conses**: structurally identical subtrees — within
//! one document or across every document interned into the same arena
//! — get the same [`NodeId`] and are stored once. The dedup table is
//! keyed on the same `(size, fingerprint)` pair [`Tree`]'s `Ord` leads
//! with, but a key hit is never trusted by itself: candidates are
//! verified structurally (label, child ids, child annotations), so two
//! distinct subtrees whose fingerprints collide get distinct ids. The
//! id-based verify is sound because children are interned first and
//! the dedup invariant already holds for them — child-id equality *is*
//! child-value equality.
//!
//! Every node also keeps a **canonical handle**: the one `Arc`-shared
//! [`Tree`] for its value, built from the canonical handles of its
//! children. Rebuilding a forest from canonical handles
//! ([`TreeArena::canonical_forest`]) therefore maximally `Arc`-shares
//! it — equal subtrees become pointer-equal — which is what lets the
//! value-level sweep kernels (`weighted_descendant_closure`) and the
//! per-node `doc_children` cache do their work once per distinct
//! subtree instead of once per occurrence, with no arena reference
//! threaded through evaluation.
//!
//! # Invariants
//!
//! - children are interned before their parent, so every child id is
//!   strictly smaller than its parent's id — a descending id scan is a
//!   topological order of the DAG ([`TreeArena::descendant_closure`]);
//! - child ranges are canonically ordered (the [`Tree`] `Ord` of the
//!   child values), deduplicated, and zero-annotation-free — the same
//!   invariant as [`Forest`];
//! - rows are appended, and only [`TreeArena::compact`] removes them:
//!   it keeps the rows reachable from the roots its caller names, in
//!   their old relative order, so both invariants above survive it.
//!
//! # Compaction
//!
//! The values are immutable and compared by value, so nothing outside
//! the arena can tell which row stores a subtree. A store that drops or
//! replaces documents can therefore free the rows no stored document
//! reaches: [`TreeArena::compact`] marks the rows reachable from the
//! given roots in one descending pass, then moves the survivors down
//! in place in one ascending pass, remapping child ids and pruning the
//! `dedup` and `known` maps to the kept rows. Kept rows keep their
//! canonical handles, so every forest built from them stays
//! maximally shared. The returned [`IdMap`] lets the caller remap ids
//! it holds ([`compact_mapped`] does so for an [`ImageMemo`]).
//! [`TreeArena::compaction_due`] is the growth trigger: the rows
//! appended since the last compaction reach the rows it kept.

use crate::label::Label;
use crate::tree::{node_fingerprint, Forest, Tree};
use axml_semiring::{Semiring, SemiringHom};
use std::collections::HashMap;

/// Index of one distinct subtree in a [`TreeArena`].
pub type NodeId = u32;

/// The smallest growth that makes a compaction due: below it, a pass
/// over a small arena costs more than the rows it could free.
const COMPACT_FLOOR: usize = 64;

/// Marks a dropped row in an [`IdMap`].
const DROPPED: NodeId = NodeId::MAX;

/// What a [`TreeArena::compact`] did to ids: old id → new id, or
/// `None` for a dropped row.
#[derive(Debug, Clone)]
pub struct IdMap(Vec<NodeId>);

impl IdMap {
    /// The new id of old row `id`, or `None` if it was dropped.
    pub fn get(&self, id: NodeId) -> Option<NodeId> {
        match self.0[id as usize] {
            DROPPED => None,
            new => Some(new),
        }
    }
}

/// A columnar, hash-consing store of K-UXML subtrees. See the module
/// docs for the layout and invariants.
pub struct TreeArena<K: Semiring> {
    /// Root label of each node.
    labels: Vec<Label>,
    /// Structural fingerprint of each node (the [`Tree`] hash).
    hashes: Vec<u64>,
    /// Subtree node count of each node (occurrences, not multiplicity).
    sizes: Vec<usize>,
    /// `(start, len)` of each node's slice in the child columns.
    spans: Vec<(u32, u32)>,
    /// Child ids, contiguous per node, in canonical child order.
    child_ids: Vec<NodeId>,
    /// Child annotations, parallel to `child_ids`.
    child_anns: Vec<K>,
    /// The canonical `Arc` handle of each node's value.
    handles: Vec<Tree<K>>,
    /// `(size, fingerprint)` → candidate ids; collisions keep multiple
    /// candidates and are resolved by structural verify.
    dedup: HashMap<(usize, u64), Vec<NodeId>>,
    /// Canonical-handle pointer → id: O(1) re-interning of anything
    /// built from this arena's own handles. Sound to key on pointers
    /// because the arena owns every handle it lists: a pointer cannot
    /// be freed and reused while its row is stored, and a compaction
    /// removes a dropped row's pointer together with the row.
    known: HashMap<usize, NodeId>,
    /// Rows the last compaction kept (0 before the first).
    kept: usize,
    /// Compactions run over the arena's lifetime.
    compactions: u64,
    /// Rows dropped by all compactions so far.
    dropped: u64,
}

impl<K: Semiring> Default for TreeArena<K> {
    fn default() -> Self {
        TreeArena {
            labels: Vec::new(),
            hashes: Vec::new(),
            sizes: Vec::new(),
            spans: Vec::new(),
            child_ids: Vec::new(),
            child_anns: Vec::new(),
            handles: Vec::new(),
            dedup: HashMap::new(),
            known: HashMap::new(),
            kept: 0,
            compactions: 0,
            dropped: 0,
        }
    }
}

impl<K: Semiring> std::fmt::Debug for TreeArena<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeArena")
            .field("distinct_subtrees", &self.len())
            .field("child_edges", &self.child_edge_count())
            .finish()
    }
}

impl<K: Semiring> TreeArena<K> {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct subtrees stored.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Is the arena empty?
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Total stored child edges (the DAG's edge count — with sharing,
    /// far below the sum of logical subtree sizes).
    pub fn child_edge_count(&self) -> usize {
        self.child_ids.len()
    }

    /// The root label of `id`.
    pub fn label(&self, id: NodeId) -> Label {
        self.labels[id as usize]
    }

    /// The logical node count of `id`'s subtree (occurrences, i.e. the
    /// `|v|` of Prop 2 — *not* the arena's storage cost).
    pub fn size(&self, id: NodeId) -> usize {
        self.sizes[id as usize]
    }

    /// The canonical `Arc` handle of `id`'s value.
    pub fn tree(&self, id: NodeId) -> &Tree<K> {
        &self.handles[id as usize]
    }

    /// The children of `id` as `(child id, annotation)` pairs, in
    /// canonical child order.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = (NodeId, &K)> + '_ {
        let (start, len) = self.spans[id as usize];
        let range = start as usize..(start + len) as usize;
        self.child_ids[range.clone()]
            .iter()
            .copied()
            .zip(self.child_anns[range].iter())
    }

    /// The id of `t`'s value, if already interned: fingerprint probe
    /// first, then structural verify of every candidate — a colliding
    /// but unequal tree is never returned.
    pub fn lookup(&self, t: &Tree<K>) -> Option<NodeId> {
        if let Some(&id) = self.known.get(&t.ptr_token()) {
            return Some(id);
        }
        let key = (t.size(), t.structural_hash());
        self.dedup
            .get(&key)?
            .iter()
            .copied()
            .find(|&cand| self.handles[cand as usize] == *t)
    }

    /// The id of `t` if it is one of this arena's canonical handles —
    /// a pointer probe only, never a structural compare.
    pub fn handle_id(&self, t: &Tree<K>) -> Option<NodeId> {
        self.known.get(&t.ptr_token()).copied()
    }

    /// Intern one node from already-interned children. `children` may
    /// be unsorted, may repeat ids and may carry zeros; it is
    /// canonicalized here (sorted by child value, duplicates merged
    /// with `+`, zeros dropped) so every construction path agrees on
    /// the stored form.
    pub fn intern_node(&mut self, label: Label, mut children: Vec<(NodeId, K)>) -> NodeId {
        children.retain(|(_, k)| !k.is_zero());
        children
            .sort_by(|(a, _), (b, _)| self.handles[*a as usize].cmp(&self.handles[*b as usize]));
        children.dedup_by(|cur, prev| {
            if cur.0 == prev.0 {
                prev.1 = prev.1.plus(&cur.1);
                true
            } else {
                false
            }
        });
        // Merging can reach zero in semirings with zero divisors
        // (products of semirings): prune again.
        children.retain(|(_, k)| !k.is_zero());
        let size = 1 + children
            .iter()
            .map(|(id, _)| self.sizes[*id as usize])
            .sum::<usize>();
        let hash = node_fingerprint(
            label,
            children
                .iter()
                .map(|(id, k)| (self.hashes[*id as usize], k)),
        );
        let id = self.intern_node_keyed(label, children, (size, hash));
        debug_assert_eq!(self.handles[id as usize].structural_hash(), hash);
        id
    }

    /// Dedup-or-insert under an explicit `(size, hash)` key. Factored
    /// out so tests can force key collisions; every non-test caller
    /// computes the key from the canonicalized children.
    fn intern_node_keyed(
        &mut self,
        label: Label,
        children: Vec<(NodeId, K)>,
        key: (usize, u64),
    ) -> NodeId {
        if let Some(cands) = self.dedup.get(&key) {
            for &cand in cands {
                if self.verify(cand, label, &children) {
                    return cand;
                }
            }
        }
        assert!(self.labels.len() < u32::MAX as usize, "arena id overflow");
        let id = self.labels.len() as NodeId;
        let start = u32::try_from(self.child_ids.len()).expect("child column overflow");
        let len = u32::try_from(children.len()).expect("child span overflow");
        let handle = Tree::new(
            label,
            Forest::from_distinct_pairs(
                children
                    .iter()
                    .map(|(cid, k)| (self.handles[*cid as usize].clone(), k.clone())),
            ),
        );
        self.labels.push(label);
        self.hashes.push(key.1);
        self.sizes.push(key.0);
        self.spans.push((start, len));
        for (cid, k) in children {
            self.child_ids.push(cid);
            self.child_anns.push(k);
        }
        self.known.insert(handle.ptr_token(), id);
        self.handles.push(handle);
        self.dedup.entry(key).or_default().push(id);
        id
    }

    /// Structural equality of a stored node against a canonicalized
    /// candidate: label, then the child id and annotation slices. Child
    /// ids compare values directly (dedup invariant), so the verify is
    /// O(children), never a subtree walk.
    fn verify(&self, cand: NodeId, label: Label, children: &[(NodeId, K)]) -> bool {
        if self.labels[cand as usize] != label {
            return false;
        }
        let (start, len) = self.spans[cand as usize];
        if len as usize != children.len() {
            return false;
        }
        let s = start as usize;
        let ids = &self.child_ids[s..s + len as usize];
        let anns = &self.child_anns[s..s + len as usize];
        children
            .iter()
            .enumerate()
            .all(|(i, (id, k))| ids[i] == *id && anns[i] == *k)
    }

    /// Intern a whole tree bottom-up (children first), on an explicit
    /// stack — document depth costs heap, never Rust stack. Subtrees
    /// already known to the arena (canonical handles, or value-equal
    /// structure) resolve to their existing ids; everything else is
    /// appended. O(|t|) node visits with O(children) hashing per node.
    pub fn intern_tree(&mut self, t: &Tree<K>) -> NodeId {
        let mut memo: HashMap<usize, NodeId> = HashMap::new();
        self.intern_tree_memo(t, &mut memo)
    }

    /// Intern every member of a forest; returns `(root id, annotation)`
    /// pairs in the forest's canonical order.
    pub fn intern_forest(&mut self, f: &Forest<K>) -> Vec<(NodeId, K)> {
        let mut memo: HashMap<usize, NodeId> = HashMap::new();
        f.iter()
            .map(|(t, k)| (self.intern_tree_memo(t, &mut memo), k.clone()))
            .collect()
    }

    /// `intern_tree` with a per-call pointer memo, so `Arc`-shared
    /// subtrees *of the input* are walked once. (Pointers of borrowed
    /// input trees are only stable for the duration of the call —
    /// hence per-call; the persistent `known` map holds only pointers
    /// the arena owns.)
    fn intern_tree_memo(&mut self, t: &Tree<K>, memo: &mut HashMap<usize, NodeId>) -> NodeId {
        struct Frame<K: Semiring> {
            tree: Tree<K>,
            kids: Vec<(Tree<K>, K)>,
            next: usize,
            ids: Vec<(NodeId, K)>,
        }
        fn frame<K: Semiring>(t: &Tree<K>) -> Frame<K> {
            Frame {
                tree: t.clone(),
                kids: t
                    .children()
                    .iter()
                    .map(|(c, k)| (c.clone(), k.clone()))
                    .collect(),
                next: 0,
                ids: Vec::with_capacity(t.children().len()),
            }
        }
        if let Some(id) = self.recall(t, memo) {
            return id;
        }
        let mut stack: Vec<Frame<K>> = vec![frame(t)];
        loop {
            enum Action<K: Semiring> {
                Recurse(Tree<K>),
                Complete,
            }
            let action = {
                let top = stack.last_mut().expect("intern stack never empty mid-loop");
                loop {
                    if top.next >= top.kids.len() {
                        break Action::Complete;
                    }
                    let child = top.kids[top.next].0.clone();
                    match self.recall(&child, memo) {
                        Some(id) => {
                            let k = top.kids[top.next].1.clone();
                            top.ids.push((id, k));
                            top.next += 1;
                        }
                        None => break Action::Recurse(child),
                    }
                }
            };
            match action {
                Action::Recurse(child) => stack.push(frame(&child)),
                Action::Complete => {
                    let done = stack.pop().expect("completing frame exists");
                    let id = self.intern_node(done.tree.label(), done.ids);
                    memo.insert(done.tree.ptr_token(), id);
                    match stack.last_mut() {
                        Some(parent) => {
                            let k = parent.kids[parent.next].1.clone();
                            parent.ids.push((id, k));
                            parent.next += 1;
                        }
                        None => return id,
                    }
                }
            }
        }
    }

    /// Pointer fast paths for [`TreeArena::intern_tree_memo`]: the
    /// arena's own handles, then this call's memo. (No value lookup
    /// here — `intern_node` dedups by value at the parent, and probing
    /// per subtree would double the hashing.)
    fn recall(&self, t: &Tree<K>, memo: &HashMap<usize, NodeId>) -> Option<NodeId> {
        let tok = t.ptr_token();
        self.known.get(&tok).or_else(|| memo.get(&tok)).copied()
    }

    /// Rebuild a forest over the canonical handles of interned roots:
    /// the maximally `Arc`-shared form of the value (see the module
    /// docs). Duplicate root ids merge with `+`.
    pub fn canonical_forest(&self, roots: &[(NodeId, K)]) -> Forest<K> {
        Forest::from_pairs(
            roots
                .iter()
                .map(|(id, k)| (self.handles[*id as usize].clone(), k.clone())),
        )
    }

    /// The Fig 4 descendant sweep as a **linear scan**: every distinct
    /// subtree reachable from `seeds`, with the sum over occurrences
    /// of the path-annotation products — the arena-native counterpart
    /// of [`crate::tree::weighted_descendant_closure`], in decreasing
    /// id order. Because every child id is smaller than its parent's,
    /// one dense descending pass over `[0, max seed id]` propagates
    /// each node's accumulated weight to its children exactly once;
    /// chunking the scanned range (or the returned slice) is how a
    /// caller splits the sweep, instead of frontier expansion.
    pub fn descendant_closure(&self, seeds: &[(NodeId, K)]) -> Vec<(NodeId, K)> {
        let Some(max) = seeds.iter().map(|(id, _)| *id).max() else {
            return Vec::new();
        };
        let mut weight: Vec<K> = vec![K::zero(); max as usize + 1];
        for (id, k) in seeds {
            let w = &mut weight[*id as usize];
            *w = if w.is_zero() { k.clone() } else { w.plus(k) };
        }
        let mut out: Vec<(NodeId, K)> = Vec::new();
        for id in (0..=max as usize).rev() {
            if weight[id].is_zero() {
                continue;
            }
            let w = std::mem::replace(&mut weight[id], K::zero());
            let (start, len) = self.spans[id];
            for j in start as usize..(start + len) as usize {
                let c = self.child_ids[j] as usize;
                let kc = &self.child_anns[j];
                let wk = if w.is_one() { kc.clone() } else { w.times(kc) };
                let slot = &mut weight[c];
                *slot = if slot.is_zero() { wk } else { slot.plus(&wk) };
            }
            out.push((id as NodeId, w));
        }
        out
    }

    /// [`TreeArena::descendant_closure`] materialized as a [`Forest`]
    /// over canonical handles.
    pub fn descendant_forest(&self, seeds: &[(NodeId, K)]) -> Forest<K> {
        Forest::from_distinct_pairs(
            self.descendant_closure(seeds)
                .into_iter()
                .map(|(id, k)| (self.handles[id as usize].clone(), k)),
        )
    }

    /// Whether the arena has grown enough since the last compaction
    /// for the next one to pay: the rows appended since then reach the
    /// rows it kept, and at least `COMPACT_FLOOR` (64). Growth is
    /// thereby bounded by about twice the kept rows, and a pass costs
    /// amortized O(1) per appended row.
    pub fn compaction_due(&self) -> bool {
        self.len() - self.kept >= self.kept.max(COMPACT_FLOOR)
    }

    /// Compactions run so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Rows dropped by all compactions so far.
    pub fn rows_dropped(&self) -> u64 {
        self.dropped
    }

    /// How many rows are reachable from `roots`.
    pub fn live_count(&self, roots: impl IntoIterator<Item = NodeId>) -> usize {
        self.mark(roots).iter().filter(|&&live| live).count()
    }

    /// The rows reachable from `roots`: one descending pass, since a
    /// row's parents all have larger ids and are decided before it.
    fn mark(&self, roots: impl IntoIterator<Item = NodeId>) -> Vec<bool> {
        let mut live = vec![false; self.len()];
        for id in roots {
            live[id as usize] = true;
        }
        for id in (0..self.len()).rev() {
            if live[id] {
                let (start, len) = self.spans[id];
                for &c in &self.child_ids[start as usize..(start + len) as usize] {
                    live[c as usize] = true;
                }
            }
        }
        live
    }

    /// Keep only the rows reachable from `roots` and free the rest, in
    /// place (see the module docs). Survivors keep their relative order
    /// and their canonical handles; the returned map gives their new
    /// ids. Handles the caller still holds stay valid values, but a
    /// dropped one is no longer known to the arena: interning an equal
    /// value again stores a new row.
    pub fn compact(&mut self, roots: impl IntoIterator<Item = NodeId>) -> IdMap {
        let live = self.mark(roots);
        // Release dropped handles parents first: a parent's release
        // then never frees a child whose own handle is already gone,
        // so no drop recurses down a dead chain.
        let mut filler: Option<Tree<K>> = None;
        for id in (0..self.len()).rev() {
            if !live[id] {
                let filler = filler
                    .get_or_insert_with(|| Tree::new(self.labels[id], Forest::new()))
                    .clone();
                drop(std::mem::replace(&mut self.handles[id], filler));
            }
        }
        let mut map = vec![DROPPED; self.len()];
        let (mut kept, mut edges) = (0usize, 0usize);
        for (id, _) in live.iter().enumerate().filter(|(_, &l)| l) {
            // Writes land at or below the row being read, and spans are
            // laid out in id order, so nothing is overwritten unread.
            let (start, len) = self.spans[id];
            let new_start = edges as u32;
            for j in start as usize..(start + len) as usize {
                let child = map[self.child_ids[j] as usize];
                debug_assert_ne!(child, DROPPED, "a kept row's children are kept");
                self.child_ids[edges] = child;
                self.child_anns.swap(edges, j);
                edges += 1;
            }
            self.labels[kept] = self.labels[id];
            self.hashes[kept] = self.hashes[id];
            self.sizes[kept] = self.sizes[id];
            self.spans[kept] = (new_start, len);
            self.handles.swap(kept, id);
            map[id] = kept as NodeId;
            kept += 1;
        }
        self.dropped += (self.len() - kept) as u64;
        self.labels.truncate(kept);
        self.hashes.truncate(kept);
        self.sizes.truncate(kept);
        self.spans.truncate(kept);
        self.handles.truncate(kept);
        self.child_ids.truncate(edges);
        self.child_anns.truncate(edges);
        let remap = |id: &mut NodeId| match map[*id as usize] {
            DROPPED => false,
            new => {
                *id = new;
                true
            }
        };
        self.dedup.retain(|_, ids| {
            ids.retain_mut(remap);
            !ids.is_empty()
        });
        self.known.retain(|_, id| remap(id));
        self.kept = kept;
        self.compactions += 1;
        IdMap(map)
    }

    /// Test hook: intern `t`'s **root** node under a forced dedup key,
    /// children interned normally. Exercises the structural-verify path
    /// on `(size, hash)` collisions without having to construct a real
    /// fingerprint collision. Not for production use — a node stored
    /// under a wrong key is only findable under that key.
    #[doc(hidden)]
    pub fn intern_tree_with_key(&mut self, t: &Tree<K>, key: (usize, u64)) -> NodeId {
        let mut memo: HashMap<usize, NodeId> = HashMap::new();
        let mut children: Vec<(NodeId, K)> = Vec::with_capacity(t.children().len());
        for (c, k) in t.children().iter() {
            children.push((self.intern_tree_memo(c, &mut memo), k.clone()));
        }
        // Same canonicalization as `intern_node` (children of a
        // `Forest` are already sorted, distinct and nonzero, so this
        // is the identity here — kept for uniformity).
        self.intern_node_keyed(t.label(), children, key)
    }
}

/// The image memo of [`intern_forest_mapped`]: a source subtree's
/// pointer → the [`NodeId`] of its image in the target arena. Each
/// entry keeps a clone of its key tree alive, so a pointer key can
/// never be freed and reused by a different tree while the entry
/// lives — the memo is sound on its own, whoever owns the source.
pub type ImageMemo<K> = HashMap<usize, (Tree<K>, NodeId)>;

/// Compact `arena` together with the image memo whose ids point into
/// it: drop the entries whose source `source_live` rejects (releasing
/// their key trees), compact the arena down to the images of the
/// entries left, and remap those entries' ids.
pub fn compact_mapped<K1: Semiring, K2: Semiring>(
    arena: &mut TreeArena<K2>,
    memo: &mut ImageMemo<K1>,
    mut source_live: impl FnMut(&Tree<K1>) -> bool,
) {
    // Release the dropped sources larger subtrees first, so that, as in
    // `TreeArena::compact`, no release frees a chain of children.
    let mut released: Vec<Tree<K1>> = Vec::new();
    memo.retain(|_, (source, _)| {
        let keep = source_live(source);
        if !keep {
            released.push(source.clone());
        }
        keep
    });
    released.sort_unstable_by_key(|t| std::cmp::Reverse(t.size()));
    drop(released);
    let map = arena.compact(memo.values().map(|&(_, id)| id));
    for (_, id) in memo.values_mut() {
        *id = map.get(*id).expect("the image of a kept source is kept");
    }
}

/// Intern the image of a forest under a semiring homomorphism,
/// directly into a `K2` arena — the hom lifting of §6.4 fused with
/// hash-consing. Walks the value-level DAG once per **distinct** input
/// subtree (pointer-memoized in `memo`), instead of once per occurrence
/// like the plain recursive [`crate::hom::map_forest`]; subtrees that
/// become identified after the hom merge their annotations, and
/// subtrees whose annotation maps to `0` vanish, exactly as the
/// recursive lifting does. Returns `(root id, annotation)` pairs with
/// zeros dropped (duplicate ids possible when roots become
/// identified; [`TreeArena::canonical_forest`] merges them).
///
/// `memo` records the image of every subtree this call interns. A
/// fresh memo per call is always correct. A memo may outlive the call
/// — and should, when the same source subtrees come back (every
/// version of an edited document shares all but its new spine) — as
/// long as every call that uses it passes the same `arena` and the
/// same `h`: its ids point into that arena and are images under that
/// hom. A repeat call then maps only the subtrees the memo has not
/// seen, plus one lookup per root.
pub fn intern_forest_mapped<K1, K2, H>(
    arena: &mut TreeArena<K2>,
    memo: &mut ImageMemo<K1>,
    h: &H,
    f: &Forest<K1>,
) -> Vec<(NodeId, K2)>
where
    K1: Semiring,
    K2: Semiring,
    H: SemiringHom<K1, K2>,
{
    struct Frame<'t, K1: Semiring, K2: Semiring> {
        tree: &'t Tree<K1>,
        kids: Vec<(&'t Tree<K1>, &'t K1)>,
        next: usize,
        ids: Vec<(NodeId, K2)>,
    }
    fn frame<K1: Semiring, K2: Semiring>(t: &Tree<K1>) -> Frame<'_, K1, K2> {
        Frame {
            tree: t,
            kids: t.children().iter().collect(),
            next: 0,
            ids: Vec::with_capacity(t.children().len()),
        }
    }
    fn map_tree<'t, K1, K2, H>(
        arena: &mut TreeArena<K2>,
        h: &H,
        t: &'t Tree<K1>,
        memo: &mut ImageMemo<K1>,
    ) -> NodeId
    where
        K1: Semiring,
        K2: Semiring,
        H: SemiringHom<K1, K2>,
    {
        if let Some(&(_, id)) = memo.get(&t.ptr_token()) {
            return id;
        }
        let mut stack: Vec<Frame<'t, K1, K2>> = vec![frame(t)];
        loop {
            enum Action<'t, K1: Semiring> {
                Recurse(&'t Tree<K1>),
                Complete,
            }
            let action = {
                let top = stack.last_mut().expect("map stack never empty mid-loop");
                loop {
                    if top.next >= top.kids.len() {
                        break Action::Complete;
                    }
                    let (child, k1) = top.kids[top.next];
                    let k2 = h.apply(k1);
                    if k2.is_zero() {
                        // The image annotation is 0: the child vanishes
                        // (no need to intern its subtree at all).
                        top.next += 1;
                        continue;
                    }
                    match memo.get(&child.ptr_token()) {
                        Some(&(_, id)) => {
                            top.ids.push((id, k2));
                            top.next += 1;
                        }
                        None => break Action::Recurse(child),
                    }
                }
            };
            match action {
                Action::Recurse(child) => stack.push(frame(child)),
                Action::Complete => {
                    let done = stack.pop().expect("completing frame exists");
                    let id = arena.intern_node(done.tree.label(), done.ids);
                    memo.insert(done.tree.ptr_token(), (done.tree.clone(), id));
                    match stack.last_mut() {
                        Some(parent) => {
                            let k2 = h.apply(parent.kids[parent.next].1);
                            parent.ids.push((id, k2));
                            parent.next += 1;
                        }
                        None => return id,
                    }
                }
            }
        }
    }
    let mut out = Vec::with_capacity(f.len());
    for (t, k1) in f.iter() {
        let k2 = h.apply(k1);
        if k2.is_zero() {
            continue;
        }
        out.push((map_tree(arena, h, t, memo), k2));
    }
    out
}
