//! Trees, forests and values — the K-UXML data model (§3).

use crate::label::Label;
use axml_semiring::{KSet, Semiring};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

// Display impls live in `print`; Debug delegates to Display so that
// test-assertion failures show document-style output.
macro_rules! fmt_via_display {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fmt::Display::fmt(self, f)
        }
    };
}

/// The node payload: a label, a K-set of child trees, and metadata
/// cached at construction.
///
/// `hash` is a structural fingerprint of the whole subtree and `size`
/// its node count; both are computed once in [`Tree::new`] (children
/// already carry theirs, so construction stays O(children)). They make
/// the [`Tree`] comparisons that every `BTreeMap<Tree, K>` operation
/// performs O(1) in the common case instead of O(|subtree|): `Ord`
/// leads with `(size, hash)` and only walks the structure on a
/// collision, and `Eq` rejects on the first fingerprint mismatch.
struct Node<K: Semiring> {
    hash: u64,
    size: usize,
    label: Label,
    children: Forest<K>,
    /// Children sorted in document order, computed lazily on first use
    /// (printing / DFS numbering) and then shared: sorting siblings
    /// with [`Tree::cmp_document`] would otherwise re-sort every
    /// node's children once per comparison. Not part of the value —
    /// excluded from `Eq`/`Ord`/`Hash`.
    doc_children: std::sync::OnceLock<DocChildren<K>>,
}

/// `(subtree, path-product)` pairs produced by [`Tree::descendant_split`].
pub type SweepSeeds<K> = Vec<(Tree<K>, K)>;

/// Cached document-ordered `(child, annotation)` pairs of one node.
type DocChildren<K> = Box<[(Tree<K>, K)]>;

/// A K-UXML tree: a label with a finite K-set of children.
///
/// `Tree` is a shared, immutable handle (`Arc` inside): cloning is O(1)
/// and equality/ordering/hashing are **by value** (two structurally
/// identical trees are equal even if separately built), with a pointer
/// fast path for the common case of comparing shared subtrees. Each
/// node caches a structural fingerprint and its subtree size at
/// construction, so comparisons are O(1) unless fingerprints collide;
/// see [`Tree::cmp_document`] for the cross-process-stable display
/// order.
///
/// Note (paper, §3): "a tree gets an annotation only as a member of a
/// K-set" — a `Tree` by itself carries no annotation; annotations live
/// in the [`Forest`] containing it.
pub struct Tree<K: Semiring>(Arc<Node<K>>);

/// A fast deterministic structural hasher (FNV-1a over 64-bit words);
/// used for the cached per-node fingerprints. Not a `std` hasher so the
/// fingerprint stays independent of any `RandomState` seeding.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 ^= n;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

/// The structural fingerprint of a node, computed from its label and
/// its children's `(fingerprint, annotation)` pairs **in K-set order**.
/// [`Tree::new`] and the arena's hash-consing table
/// ([`crate::arena::TreeArena`]) must agree byte-for-byte on this, so
/// both call here.
pub(crate) fn node_fingerprint<'a, K, I>(label: Label, children: I) -> u64
where
    K: Semiring + 'a,
    I: IntoIterator<Item = (u64, &'a K)>,
{
    let mut h = Fnv::new();
    h.write_u64(u64::from(label.id()));
    for (child_hash, k) in children {
        h.write_u64(child_hash);
        k.hash(&mut h);
    }
    h.finish()
}

impl<K: Semiring> Tree<K> {
    /// Build a tree from a label and its children.
    pub fn new(label: impl Into<Label>, children: Forest<K>) -> Self {
        let label = label.into();
        let hash = node_fingerprint(label, children.iter().map(|(c, k)| (c.0.hash, k)));
        let size = 1 + children.iter().map(|(c, _)| c.0.size).sum::<usize>();
        Tree(Arc::new(Node {
            hash,
            size,
            label,
            children,
            doc_children: std::sync::OnceLock::new(),
        }))
    }

    /// A leaf: a label with no children (also how atomic values are
    /// modelled, per the paper's footnote 3).
    pub fn leaf(label: impl Into<Label>) -> Self {
        Tree::new(label, Forest::new())
    }

    /// The root label.
    pub fn label(&self) -> Label {
        self.0.label
    }

    /// The K-set of children.
    pub fn children(&self) -> &Forest<K> {
        &self.0.children
    }

    /// Is this a leaf (no children with nonzero annotation)?
    pub fn is_leaf(&self) -> bool {
        self.0.children.is_empty()
    }

    /// Number of nodes (distinct positions in the value; multiplicities
    /// in annotations do not multiply the count). This is the `|v|` of
    /// Prop 2's size bound. O(1): cached at construction.
    pub fn size(&self) -> usize {
        self.0.size
    }

    /// The cached structural fingerprint of this subtree. Two equal
    /// trees always have equal fingerprints; unequal trees collide only
    /// with hash probability. Stable within a process (annotation and
    /// label interning make it process-dependent).
    pub fn structural_hash(&self) -> u64 {
        self.0.hash
    }

    /// The address of the shared node, as an opaque token: equal tokens
    /// imply equal trees (same `Arc`), unequal tokens imply nothing.
    /// Used as a memo key by walks over hash-consed documents — a
    /// canonical handle's token is stable for as long as someone holds
    /// the handle, so per-call memo tables keyed on it are sound.
    pub fn ptr_token(&self) -> usize {
        Arc::as_ptr(&self.0) as usize
    }

    /// Document-order comparison: by label name, then subtree size,
    /// then lexicographically over the children in document order
    /// (annotations tie-break). This is the human-meaningful,
    /// cross-process-stable order used for printing and DFS numbering
    /// — in contrast to [`Ord`], which leads with the cached
    /// `(size, hash)` fingerprint so that collection operations avoid
    /// structural walks. Equal under this comparison iff the trees are
    /// equal. The cached-size tiebreak keeps the expensive recursive
    /// child sort off the path whenever same-label siblings differ in
    /// shape.
    pub fn cmp_document(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        self.label()
            .cmp(&other.label())
            .then_with(|| self.0.size.cmp(&other.0.size))
            .then_with(|| {
                let a = self.children_document();
                let b = other.children_document();
                for ((ta, ka), (tb, kb)) in a.iter().zip(b.iter()) {
                    match ta.cmp_document(tb).then_with(|| ka.cmp(kb)) {
                        Ordering::Equal => {}
                        o => return o,
                    }
                }
                a.len().cmp(&b.len())
            })
    }

    /// The children in document order (see [`Tree::cmp_document`]),
    /// computed once per node and cached — printing, DFS numbering and
    /// sibling sorts all share the same slice.
    pub fn children_document(&self) -> &[(Tree<K>, K)] {
        self.0.doc_children.get_or_init(|| {
            let mut v: Vec<(&Tree<K>, &K)> = self.0.children.iter().collect();
            sort_document(&mut v);
            v.into_iter().map(|(t, k)| (t.clone(), k.clone())).collect()
        })
    }

    /// Height of the tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .0
            .children
            .iter()
            .map(|(t, _)| t.depth())
            .max()
            .unwrap_or(0)
    }

    /// Visit every subtree of `self` (including `self`), each with
    /// `k0 ·` the product of annotations along the path from `self` —
    /// the paper's Fig 4 descendant semantics. Occurrences of equal
    /// subtrees are visited separately (sum them in the callback's
    /// accumulator). Driven on an explicit stack, so document depth
    /// costs heap, never Rust stack; this is the one sweep kernel the
    /// direct `descendant` step and the compiled NRC plan both use.
    pub fn for_each_descendant<F: FnMut(&Tree<K>, K)>(&self, k0: K, mut f: F) {
        let mut stack: Vec<(&Tree<K>, K)> = vec![(self, k0)];
        while let Some((node, k)) = stack.pop() {
            for (c, kc) in node.children().iter() {
                stack.push((c, if k.is_one() { kc.clone() } else { k.times(kc) }));
            }
            f(node, k);
        }
    }

    /// Split one descendant sweep into independent pieces for parallel
    /// execution: expand the frontier breadth-first — always splitting
    /// the largest remaining subtree — until at least `min_seeds`
    /// subtrees remain (or everything is a leaf). Returns
    /// `(emitted, seeds)`: nodes consumed by the expansion itself, and
    /// the frontier. Each entry carries `k0 ·` the annotation product
    /// along its path from `self`, so sweeping every seed with
    /// [`Tree::for_each_descendant`] and adding the emitted nodes
    /// visits exactly the multiset `self.for_each_descendant(k0, …)`
    /// would — the partition the chunked parallel sweeps in
    /// `axml-core` and `axml-nrc` fan out over.
    pub fn descendant_split(&self, k0: K, min_seeds: usize) -> (SweepSeeds<K>, SweepSeeds<K>) {
        expand_sweep_seeds(vec![(self.clone(), k0)], min_seeds)
    }
}

/// The Fig 4 descendant sweep over the **value-level DAG**: every
/// distinct subtree reachable from `seeds`, each with the sum over all
/// of its occurrences of `seed weight ·` the annotation product along
/// the path — the same multiset [`Tree::for_each_descendant`] visits
/// occurrence-by-occurrence, already merged.
///
/// The occurrence sweep costs O(occurrences), which is exponential in
/// depth on documents with value-level sharing (and hash-consed
/// documents share maximally by construction). This kernel instead
/// processes each distinct subtree **once**, in strictly decreasing
/// subtree-size order: every child is strictly smaller than its parent,
/// so when a subtree is popped, all paths into it have already been
/// accumulated, and its total weight can be pushed through to its
/// children in one step — O(distinct subtrees + distinct edges), with
/// O(1) hashing and comparison via the cached fingerprints.
///
/// Merging is keyed on the [`Tree`] **value** (structural `Eq`), never
/// on the raw fingerprint, so `(size, hash)` collisions between
/// distinct subtrees are kept apart. Output pairs are distinct and
/// nonzero, in decreasing subtree-size order — ready for
/// [`Forest::from_distinct_pairs`].
pub fn weighted_descendant_closure<K: Semiring>(
    seeds: impl IntoIterator<Item = (Tree<K>, K)>,
) -> Vec<(Tree<K>, K)> {
    use std::collections::hash_map::Entry;
    use std::collections::{BinaryHeap, HashMap};
    // `pending[t]` = weight accumulated so far for subtrees not yet
    // popped; the heap orders pending trees by `Ord`, whose leading key
    // is subtree size. Each tree is pushed exactly once (on its vacant
    // insert), so heap and map stay in sync.
    let mut pending: HashMap<Tree<K>, K> = HashMap::new();
    let mut heap: BinaryHeap<Tree<K>> = BinaryHeap::new();
    fn add<K: Semiring>(
        pending: &mut HashMap<Tree<K>, K>,
        heap: &mut BinaryHeap<Tree<K>>,
        t: Tree<K>,
        w: K,
    ) {
        match pending.entry(t) {
            Entry::Occupied(mut e) => {
                let merged = e.get().plus(&w);
                *e.get_mut() = merged;
            }
            Entry::Vacant(e) => {
                heap.push(e.key().clone());
                e.insert(w);
            }
        }
    }
    for (t, w) in seeds {
        add(&mut pending, &mut heap, t, w);
    }
    let mut out: Vec<(Tree<K>, K)> = Vec::with_capacity(pending.len());
    while let Some(t) = heap.pop() {
        // Always present: a tree re-enters `pending` only while a
        // strictly larger tree is still unpopped, and pops are
        // non-increasing in `Ord` (insertions during the loop are
        // children, strictly smaller than the current maximum).
        let Some(w) = pending.remove(&t) else {
            continue;
        };
        if w.is_zero() {
            continue; // zero weight: contributes nothing downward either
        }
        for (c, kc) in t.children().iter() {
            let wk = if w.is_one() { kc.clone() } else { w.times(kc) };
            add(&mut pending, &mut heap, c.clone(), wk);
        }
        out.push((t, w));
    }
    out
}

/// Sort `(tree, payload)` pairs into document order
/// ([`Tree::cmp_document`]) — the one sort behind every printed,
/// streamed and DFS-numbered sequence of trees.
///
/// Each pair is keyed once with its root's label name and subtree
/// size, the two leading criteria of [`Tree::cmp_document`], so almost
/// every comparison is a string compare on a precomputed key; only
/// pairs tied on both fall back to the structural comparison. The sort
/// is stable and ignores the payload, so equal trees keep their input
/// order — a gather in root order can then fold equal neighbours left
/// to right. On distinct trees (any forest) this is exactly the order
/// of `sort_by(cmp_document, then annotation)`.
pub fn sort_document<K: Semiring, A>(pairs: &mut Vec<(&Tree<K>, A)>) {
    if pairs.len() < 2 {
        return;
    }
    let mut keyed: Vec<(Label, &'static str, usize, _)> = pairs
        .drain(..)
        .map(|p| (p.0.label(), p.0.label().name(), p.0.size(), p))
        .collect();
    keyed.sort_by(|(la, na, sa, (ta, _)), (lb, nb, sb, (tb, _))| {
        let names = if la == lb {
            Ordering::Equal
        } else {
            na.cmp(nb)
        };
        names.then(sa.cmp(sb)).then_with(|| ta.cmp_document(tb))
    });
    pairs.extend(keyed.into_iter().map(|(_, _, _, p)| p));
}

/// Sum a gather of `(tree, contribution)` pairs into distinct pairs in
/// document order — what building the K-set and then calling
/// [`Forest::iter_document`] would give, without the map.
///
/// `pairs` must be in the order a K-set would have absorbed them
/// (for a multi-root child step: roots in K-set order, each root's
/// children after it). The stable [`sort_document`] keeps equal trees
/// in that order, and each run is folded left to right with the
/// K-set's insert rule — zero contributions skipped, `acc ⊕ k` per
/// step, an entry dropped if its sum reaches zero — so every
/// annotation is the same value, bit for bit (floating-point sums
/// included), that the K-set would hold. (A K-set union may merge into
/// the larger side, which only swaps `⊕`'s operands; that is exact.)
pub fn coalesce_document<K: Semiring>(mut pairs: Vec<(&Tree<K>, K)>) -> Vec<(&Tree<K>, K)> {
    sort_document(&mut pairs);
    let mut out: Vec<(&Tree<K>, K)> = Vec::with_capacity(pairs.len());
    for (t, k) in pairs {
        if k.is_zero() {
            continue;
        }
        match out.last_mut() {
            Some((last, acc)) if *last == t => {
                let sum = acc.plus(&k);
                if sum.is_zero() {
                    out.pop();
                } else {
                    *acc = sum;
                }
            }
            _ => out.push((t, k)),
        }
    }
    out
}

/// The frontier expansion behind [`Tree::descendant_split`], starting
/// from an arbitrary seed set (multi-root callers — forest-level
/// sweeps — seed one entry per root): repeatedly replace the largest
/// non-leaf seed by its children (path products multiplied through)
/// until at least `min_seeds` seeds remain or everything is a leaf.
/// Returns `(emitted, seeds)` — consumed nodes and the frontier —
/// which together partition the original seeds' descendant multiset.
///
/// The expansion is budgeted: after `4 · min_seeds` splits it stops
/// even if the frontier is still short. On skinny trees (chains, or
/// `min_seeds` larger than the tree) every split consumes one node
/// without widening the frontier, so an unbudgeted expansion would
/// sequentially emit the whole sweep — and pay a linear largest-seed
/// scan per node on top — before any parallel work began. The partition
/// property is unaffected; callers just get fewer seeds than requested.
pub fn expand_sweep_seeds<K: Semiring>(
    mut seeds: SweepSeeds<K>,
    min_seeds: usize,
) -> (SweepSeeds<K>, SweepSeeds<K>) {
    let mut emitted: SweepSeeds<K> = Vec::new();
    let budget = 4 * min_seeds.max(1);
    while seeds.len() < min_seeds && emitted.len() < budget {
        // Largest subtree first: splitting it rebalances the most.
        let Some(pos) = seeds
            .iter()
            .enumerate()
            .filter(|(_, (t, _))| !t.is_leaf())
            .max_by_key(|(_, (t, _))| t.size())
            .map(|(i, _)| i)
        else {
            break; // all leaves: nothing left to split
        };
        let (node, k) = seeds.swap_remove(pos);
        for (c, kc) in node.children().iter() {
            let kk = if k.is_one() { kc.clone() } else { k.times(kc) };
            seeds.push((c.clone(), kk));
        }
        emitted.push((node, k));
    }
    (emitted, seeds)
}

impl<K: Semiring> Clone for Tree<K> {
    fn clone(&self) -> Self {
        Tree(Arc::clone(&self.0))
    }
}

impl<K: Semiring> PartialEq for Tree<K> {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.0, &other.0) {
            return true;
        }
        // Cheap rejection on the cached fingerprint before any walk.
        self.0.hash == other.0.hash
            && self.0.size == other.0.size
            && self.0.label == other.0.label
            && self.0.children == other.0.children
    }
}

impl<K: Semiring> Eq for Tree<K> {}

impl<K: Semiring> PartialOrd for Tree<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Semiring> Ord for Tree<K> {
    /// Total order with the cached `(size, hash)` fingerprint as the
    /// leading key: `BTreeMap<Tree, K>` lookups resolve almost every
    /// comparison in O(1) and only walk structure on fingerprint
    /// collisions. Consistent with [`PartialEq`] (the structural
    /// fallback decides collisions). Deterministic within a process;
    /// use [`Tree::cmp_document`] where cross-process order matters.
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        self.0
            .size
            .cmp(&other.0.size)
            .then_with(|| self.0.hash.cmp(&other.0.hash))
            .then_with(|| self.0.label.cmp(&other.0.label))
            .then_with(|| self.0.children.cmp(&other.0.children))
    }
}

impl<K: Semiring> Hash for Tree<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl<K: Semiring> fmt::Debug for Tree<K> {
    fmt_via_display!();
}

/// Shorthand for [`Tree::leaf`].
pub fn leaf<K: Semiring>(label: &str) -> Tree<K> {
    Tree::leaf(label)
}

/// Shorthand for [`Tree::new`] from `(subtree, annotation)` pairs.
pub fn tree<K: Semiring, I: IntoIterator<Item = (Tree<K>, K)>>(
    label: &str,
    children: I,
) -> Tree<K> {
    Tree::new(label, Forest::from_pairs(children))
}

/// A finite K-set of trees: the paper's "function from trees to K such
/// that all but finitely many trees map to 0".
///
/// Wraps [`KSet`] and inherits its invariant: zero-annotated trees are
/// never stored. Union adds annotations pointwise; structurally equal
/// trees merge.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Forest<K: Semiring>(KSet<Tree<K>, K>);

impl<K: Semiring> Default for Forest<K> {
    fn default() -> Self {
        Forest(KSet::new())
    }
}

impl<K: Semiring> Forest<K> {
    /// The empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// A singleton forest annotated `1` (the query `(p)` of §3).
    pub fn unit(tree: Tree<K>) -> Self {
        Forest(KSet::unit(tree))
    }

    /// A singleton forest with an explicit annotation.
    pub fn singleton(tree: Tree<K>, k: K) -> Self {
        Forest(KSet::singleton(tree, k))
    }

    /// Build from `(tree, annotation)` pairs; duplicates merge with `+`.
    pub fn from_pairs<I: IntoIterator<Item = (Tree<K>, K)>>(pairs: I) -> Self {
        Forest(KSet::from_pairs(pairs))
    }

    /// Build from trees, each annotated `1`.
    pub fn of_units<I: IntoIterator<Item = Tree<K>>>(trees: I) -> Self {
        Forest(KSet::from_pairs(trees.into_iter().map(|t| (t, K::one()))))
    }

    /// Build from pairs whose trees are already **distinct** (zeros are
    /// still pruned): bulk-builds the map instead of paying a tree
    /// insert per pair. The fast path for deduplicated producers like
    /// [`weighted_descendant_closure`]; see
    /// [`axml_semiring::KSet::from_distinct_pairs`] for the contract.
    pub fn from_distinct_pairs<I: IntoIterator<Item = (Tree<K>, K)>>(pairs: I) -> Self {
        Forest(KSet::from_distinct_pairs(pairs))
    }

    /// Add `k` to the annotation of `tree`.
    pub fn insert(&mut self, tree: Tree<K>, k: K) {
        self.0.insert(tree, k);
    }

    /// The annotation of `tree` (`0` if absent).
    pub fn get(&self, tree: &Tree<K>) -> K {
        self.0.get(tree)
    }

    /// Does `tree` occur with nonzero annotation?
    pub fn contains(&self, tree: &Tree<K>) -> bool {
        self.0.contains(tree)
    }

    /// Number of distinct trees.
    pub fn len(&self) -> usize {
        self.0.support_len()
    }

    /// Is the forest empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate `(tree, annotation)` pairs in tree order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tree<K>, &K)> + '_ {
        self.0.iter()
    }

    /// Iterate the distinct trees.
    pub fn trees(&self) -> impl Iterator<Item = &Tree<K>> + '_ {
        self.0.support()
    }

    /// Pointwise union (annotations add): the query `p1, p2`.
    pub fn union(&self, other: &Self) -> Self {
        Forest(self.0.union(&other.0))
    }

    /// Pointwise union in place, consuming `other`: `self += other`.
    /// Merges the smaller side into the larger; the accumulator pattern
    /// for `for`-loops (see [`axml_semiring::KSet::union_with`]).
    pub fn union_with(&mut self, other: Self) {
        self.0.union_with(other.0);
    }

    /// Scalar multiplication: the query `annot k p`.
    pub fn scalar_mul(&self, k: &K) -> Self {
        Forest(self.0.scalar_mul(k))
    }

    /// Scalar multiplication in place: `self = k · self`.
    pub fn scalar_mul_in_place(&mut self, k: &K) {
        self.0.scalar_mul_in_place(k);
    }

    /// Bulk insert of scaled members: `self += k · other`, consuming
    /// `other` — one `for`-iteration step with a reused accumulator.
    pub fn extend_scaled(&mut self, other: Self, k: &K) {
        self.0.extend_scaled(other.0, k);
    }

    /// Big-union over the forest: `∪(t ∈ self) f(t)`, multiplying each
    /// produced forest by the annotation of the tree it came from. This
    /// is the semantic engine of `for`-iteration (§3's examples).
    pub fn bind<F: FnMut(&Tree<K>) -> Forest<K>>(&self, mut f: F) -> Forest<K> {
        Forest(self.0.bind(|t| f(t).0))
    }

    /// The members in document order (label name, then structure): the
    /// deterministic, cross-process-stable order used for printing and
    /// DFS numbering. O(n log n) per call — meant for output paths, not
    /// hot loops.
    pub fn iter_document(&self) -> Vec<(&Tree<K>, &K)> {
        let mut v: Vec<(&Tree<K>, &K)> = self.0.iter().collect();
        sort_document(&mut v);
        v
    }

    /// Keep trees whose root label satisfies the predicate
    /// (annotations unchanged) — node tests of XPath steps.
    pub fn filter_label<F: FnMut(Label) -> bool>(&self, mut f: F) -> Self {
        Forest(self.0.filter(|t| f(t.label())))
    }

    /// The underlying K-set, by value (inverse of
    /// [`Forest::from_kset`]) — for handing forests to K-set-generic
    /// algorithms like `axml_semiring::par_union_all`.
    pub fn into_kset(self) -> KSet<Tree<K>, K> {
        self.0
    }

    /// Wrap a K-set of trees as a forest (inverse of
    /// [`Forest::into_kset`]).
    pub fn from_kset(set: KSet<Tree<K>, K>) -> Self {
        Forest(set)
    }

    /// Access the underlying [`KSet`].
    pub fn as_kset(&self) -> &KSet<Tree<K>, K> {
        &self.0
    }

    /// Total number of nodes across distinct member trees.
    pub fn size(&self) -> usize {
        self.iter().map(|(t, _)| t.size()).sum()
    }

    /// Maximum member depth.
    pub fn depth(&self) -> usize {
        self.iter().map(|(t, _)| t.depth()).max().unwrap_or(0)
    }
}

impl<K: Semiring> FromIterator<(Tree<K>, K)> for Forest<K> {
    fn from_iter<I: IntoIterator<Item = (Tree<K>, K)>>(iter: I) -> Self {
        Forest::from_pairs(iter)
    }
}

impl<K: Semiring> IntoIterator for Forest<K> {
    type Item = (Tree<K>, K);
    type IntoIter = <KSet<Tree<K>, K> as IntoIterator>::IntoIter;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

impl<K: Semiring> fmt::Debug for Forest<K> {
    fmt_via_display!();
}

/// A K-UXML value: a label, a tree, or a K-set of trees (§3).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value<K: Semiring> {
    /// A label (atomic value).
    Label(Label),
    /// A single tree.
    Tree(Tree<K>),
    /// A K-set of trees.
    Set(Forest<K>),
}

impl<K: Semiring> Value<K> {
    /// The label, if this value is one.
    pub fn as_label(&self) -> Option<Label> {
        match self {
            Value::Label(l) => Some(*l),
            _ => None,
        }
    }

    /// The tree, if this value is one.
    pub fn as_tree(&self) -> Option<&Tree<K>> {
        match self {
            Value::Tree(t) => Some(t),
            _ => None,
        }
    }

    /// The forest, if this value is one.
    pub fn as_set(&self) -> Option<&Forest<K>> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Coerce to a forest: a tree becomes the singleton `{t ↦ 1}`.
    /// (The paper elides this coercion in examples like `$x/A`; §3.)
    pub fn coerce_set(&self) -> Option<Forest<K>> {
        match self {
            Value::Tree(t) => Some(Forest::unit(t.clone())),
            Value::Set(s) => Some(s.clone()),
            Value::Label(_) => None,
        }
    }
}

impl<K: Semiring> fmt::Debug for Value<K> {
    fmt_via_display!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_semiring::{Nat, NatPoly};

    fn np(s: &str) -> NatPoly {
        s.parse().unwrap()
    }

    #[test]
    fn descendant_split_partitions_the_sweep() {
        // An annotated, uneven tree: splitting must preserve the
        // path-product annotation of every visited node exactly.
        let f = crate::parse::parse_forest::<NatPoly>(
            "<a {z}> <b {x1}> d {y1} <e {w}> f {v} g </e> </b> <c {x2}> d {y2} </c> </a>",
        )
        .unwrap();
        let (root, k_root) = f.iter().next().unwrap();
        for min_seeds in [1, 2, 3, 5, 8, 100] {
            let mut expected = Forest::new();
            root.for_each_descendant(k_root.clone(), |t, k| expected.insert(t.clone(), k));
            let (emitted, seeds) = root.descendant_split(k_root.clone(), min_seeds);
            let mut got = Forest::new();
            for (t, k) in emitted {
                got.insert(t, k);
            }
            for (t, k) in seeds {
                t.for_each_descendant(k, |n, kn| got.insert(n.clone(), kn));
            }
            assert_eq!(got, expected, "min_seeds={min_seeds}");
        }
        // Leaf corner case: nothing to split.
        let (emitted, seeds) = leaf::<Nat>("x").descendant_split(Nat(3), 9);
        assert!(emitted.is_empty());
        assert_eq!(seeds.len(), 1);
    }

    #[test]
    fn sweep_split_budget_bounds_skinny_trees() {
        // A chain is the worst case: every split consumes one node and
        // never widens the frontier past 1, so with `min_seeds` larger
        // than the tree an unbudgeted expansion would sequentially
        // emit the entire sweep before any parallel work began.
        let mut t = leaf::<Nat>("end");
        for i in 0..200 {
            t = Tree::new(Label::new(&format!("n{i}")), Forest::unit(t));
        }
        let mut expected = Forest::new();
        t.for_each_descendant(Nat(1), |n, k| expected.insert(n.clone(), k));
        for min_seeds in [4, 16, 100_000] {
            let (emitted, seeds) = t.descendant_split(Nat(1), min_seeds);
            assert!(
                emitted.len() <= 4 * min_seeds,
                "budget exceeded: emitted {} for min_seeds={min_seeds}",
                emitted.len()
            );
            // The early stop never breaks the partition property.
            let mut got = Forest::new();
            for (n, k) in emitted {
                got.insert(n, k);
            }
            for (s, k) in seeds {
                s.for_each_descendant(k, |n, kn| got.insert(n.clone(), kn));
            }
            assert_eq!(got, expected, "partition broken at min_seeds={min_seeds}");
        }

        // `min_seeds` larger than a small bushy tree: expansion stops
        // once everything is a leaf, well within budget.
        let f = crate::parse::parse_forest::<Nat>("<a> b c </a> <d> e </d>").unwrap();
        let roots: SweepSeeds<Nat> = f.iter().map(|(t, k)| (t.clone(), *k)).collect();
        let (emitted, seeds) = expand_sweep_seeds(roots, 1000);
        assert_eq!(
            emitted.len(),
            2,
            "both roots split, then only leaves remain"
        );
        assert_eq!(seeds.len(), 3);
        assert!(seeds.iter().all(|(t, _)| t.is_leaf()));
    }

    #[test]
    fn value_equality_merges_duplicate_children() {
        // Two separately built "d" leaves are the same set element.
        let f = Forest::from_pairs([(leaf::<Nat>("d"), Nat(2)), (leaf::<Nat>("d"), Nat(3))]);
        assert_eq!(f.len(), 1);
        assert_eq!(f.get(&leaf("d")), Nat(5));
    }

    #[test]
    fn zero_annotated_trees_are_absent() {
        let f = Forest::from_pairs([(leaf::<Nat>("a"), Nat(0))]);
        assert!(f.is_empty());
        assert!(!f.contains(&leaf("a")));
    }

    #[test]
    fn tree_equality_is_structural() {
        let t1 = tree::<Nat, _>("a", [(leaf("b"), Nat(1)), (leaf("c"), Nat(2))]);
        let t2 = tree::<Nat, _>("a", [(leaf("c"), Nat(2)), (leaf("b"), Nat(1))]);
        assert_eq!(t1, t2, "children are unordered");
        let t3 = tree::<Nat, _>("a", [(leaf("b"), Nat(1))]);
        assert_ne!(t1, t3);
    }

    #[test]
    fn annotations_distinguish_trees() {
        // Same shape, different *internal* annotation ⇒ different trees
        // (this is why Fig 6 has 8 tuples where Fig 5 has 6).
        let t1 = tree::<NatPoly, _>("t", [(leaf("b"), np("z1"))]);
        let t2 = tree::<NatPoly, _>("t", [(leaf("b"), np("z2"))]);
        assert_ne!(t1, t2);
    }

    #[test]
    fn clone_is_shallow_and_equal() {
        let t = tree::<Nat, _>("a", [(leaf("b"), Nat(1))]);
        let u = t.clone();
        assert_eq!(t, u);
        assert_eq!(t.cmp(&u), std::cmp::Ordering::Equal);
    }

    #[test]
    fn size_and_depth() {
        let t = tree::<Nat, _>(
            "a",
            [
                (tree("b", [(leaf("d"), Nat(1))]), Nat(1)),
                (leaf("c"), Nat(1)),
            ],
        );
        assert_eq!(t.size(), 4);
        assert_eq!(t.depth(), 3);
        assert_eq!(leaf::<Nat>("x").size(), 1);
        assert_eq!(leaf::<Nat>("x").depth(), 1);
        assert!(leaf::<Nat>("x").is_leaf());
        assert!(!t.is_leaf());
    }

    #[test]
    fn forest_union_adds() {
        let f1 = Forest::from_pairs([(leaf::<Nat>("a"), Nat(1))]);
        let f2 = Forest::from_pairs([(leaf::<Nat>("a"), Nat(2)), (leaf("b"), Nat(1))]);
        let u = f1.union(&f2);
        assert_eq!(u.get(&leaf("a")), Nat(3));
        assert_eq!(u.get(&leaf("b")), Nat(1));
    }

    #[test]
    fn forest_bind_multiplies_annotations() {
        // ∪(t ∈ {b↦x1}) children(t): Fig 1's inner iteration shape.
        let b = tree::<NatPoly, _>("b", [(leaf("d"), np("y1"))]);
        let f = Forest::singleton(b, np("x1"));
        let kids = f.bind(|t| t.children().clone());
        assert_eq!(kids.get(&leaf("d")), np("x1*y1"));
    }

    #[test]
    fn filter_label() {
        let f = Forest::from_pairs([(leaf::<Nat>("a"), Nat(1)), (leaf::<Nat>("b"), Nat(2))]);
        let only_a = f.filter_label(|l| l.name() == "a");
        assert_eq!(only_a.len(), 1);
        assert!(only_a.contains(&leaf("a")));
    }

    #[test]
    fn value_coercions() {
        let t = leaf::<Nat>("a");
        let v = Value::Tree(t.clone());
        assert_eq!(v.coerce_set().unwrap(), Forest::unit(t.clone()));
        assert_eq!(v.as_tree(), Some(&t));
        assert!(v.as_label().is_none());
        let l = Value::<Nat>::Label(Label::new("x"));
        assert!(l.coerce_set().is_none());
        assert_eq!(l.as_label(), Some(Label::new("x")));
    }

    #[test]
    fn of_units_and_scalar_mul() {
        let f = Forest::<Nat>::of_units([leaf("a"), leaf("b"), leaf("a")]);
        assert_eq!(f.get(&leaf("a")), Nat(2));
        let doubled = f.scalar_mul(&Nat(2));
        assert_eq!(doubled.get(&leaf("a")), Nat(4));
        assert_eq!(doubled.get(&leaf("b")), Nat(2));
    }
}
