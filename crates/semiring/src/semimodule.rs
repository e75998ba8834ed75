//! Free `K`-semimodules: the collection type of the whole framework
//! (Appendix A).
//!
//! For a commutative semiring `K`, the free `K`-semimodule on a set `X`
//! is the set of functions `X → K` with finite support. This is exactly
//! the paper's semantics for the `{t}` type of `NRC_K` (§6.2) and for
//! the sets of children in K-UXML trees (§3). With `K = 𝔹` it is the
//! finite-set functor, with `K = ℕ` finite bags.
//!
//! [`KSet`] carries the (strong) monad structure of Appendix A:
//! [`KSet::unit`] is the singleton and [`KSet::bind`] is the big-union
//! operator `∪(x ∈ e₁) e₂`, which multiplies each inner collection by
//! the annotation of the element it came from:
//!
//! ```text
//! [[∪(x ∈ e₁) e₂]](y) = Σᵢ f(xᵢ) · gᵢ(y)
//! ```
//!
//! The semimodule and bind axioms (Prop 5) are property-tested in this
//! module and again at the NRC level in `axml-nrc`.

use crate::semiring::Semiring;
use std::collections::BTreeMap;
use std::fmt;

/// A function `T → K` with finite support — a "K-collection".
///
/// Invariant: no entry is ever annotated `K::zero()`; such items are
/// "not present" (§2) and are pruned eagerly on every operation. This
/// makes structural equality coincide with semantic equality of
/// K-collections and keeps iteration proportional to the support.
///
/// ```
/// use axml_semiring::{KSet, Nat, Semiring};
/// let mut bag: KSet<&str, Nat> = KSet::new();
/// bag.insert("a", Nat(2));
/// bag.insert("a", Nat(3)); // annotations add
/// assert_eq!(bag.get(&"a"), Nat(5));
/// assert_eq!(bag.support_len(), 1);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KSet<T: Ord + Clone, K: Semiring> {
    entries: BTreeMap<T, K>,
}

impl<T: Ord + Clone, K: Semiring> Default for KSet<T, K> {
    fn default() -> Self {
        KSet {
            entries: BTreeMap::new(),
        }
    }
}

impl<T: Ord + Clone, K: Semiring> KSet<T, K> {
    /// The empty collection (the constant-0 function).
    pub fn new() -> Self {
        Self::default()
    }

    /// The monad unit: a singleton annotated `1` (the paper's `{e}`).
    pub fn unit(item: T) -> Self {
        KSet::singleton(item, K::one())
    }

    /// A singleton with an explicit annotation.
    pub fn singleton(item: T, k: K) -> Self {
        let mut entries = BTreeMap::new();
        if !k.is_zero() {
            entries.insert(item, k);
        }
        KSet { entries }
    }

    /// Build from `(item, annotation)` pairs; duplicate items have
    /// their annotations summed, zeros are pruned.
    pub fn from_pairs<I: IntoIterator<Item = (T, K)>>(pairs: I) -> Self {
        let mut set = KSet::new();
        for (t, k) in pairs {
            set.insert(t, k);
        }
        set
    }

    /// Build from pairs whose items are already **distinct**: zeros are
    /// pruned, but nothing is merged — the map is bulk-built from the
    /// pairs (sorted once, then assembled linearly) instead of paying a
    /// tree insert per pair. This is the fast path for producers that
    /// already deduplicate, e.g. the weighted descendant closure in
    /// `axml-uxml`, whose output has one entry per distinct subtree.
    ///
    /// Debug builds assert distinctness; release builds silently keep
    /// one entry per item (which one is unspecified), so callers must
    /// uphold the contract.
    pub fn from_distinct_pairs<I: IntoIterator<Item = (T, K)>>(pairs: I) -> Self {
        let pruned: Vec<(T, K)> = pairs.into_iter().filter(|(_, k)| !k.is_zero()).collect();
        let n = pruned.len();
        let entries: BTreeMap<T, K> = pruned.into_iter().collect();
        debug_assert_eq!(
            entries.len(),
            n,
            "from_distinct_pairs requires distinct items"
        );
        KSet { entries }
    }

    /// Add `k` to the annotation of `item` (inserting if absent).
    pub fn insert(&mut self, item: T, k: K) {
        if k.is_zero() {
            return;
        }
        use std::collections::btree_map::Entry;
        match self.entries.entry(item) {
            Entry::Vacant(e) => {
                e.insert(k);
            }
            Entry::Occupied(mut e) => {
                // Consuming `add`: the held annotation is moved into the
                // sum, not cloned.
                let merged = std::mem::replace(e.get_mut(), K::zero()).add(k);
                if merged.is_zero() {
                    // Unreachable for the semirings in this crate (none
                    // has additive inverses) but required to keep the
                    // invariant for user-supplied semirings.
                    e.remove();
                } else {
                    *e.get_mut() = merged;
                }
            }
        }
    }

    /// The annotation of `item` (`0` if absent).
    pub fn get(&self, item: &T) -> K {
        self.entries.get(item).cloned().unwrap_or_else(K::zero)
    }

    /// Keep only the entries satisfying the predicate — in place, no
    /// rebuild. The churn path prunes retired tuples out of retained
    /// Datalog fixpoints this way: an O(Δ) edit must not pay O(n)
    /// reallocation.
    pub fn retain<F: FnMut(&T, &K) -> bool>(&mut self, mut f: F) {
        self.entries.retain(|t, k| f(t, k));
    }

    /// The annotation of `item`, borrowed (`None` if absent) — for
    /// hot paths that must not clone large annotations just to
    /// compare them.
    pub fn get_ref(&self, item: &T) -> Option<&K> {
        self.entries.get(item)
    }

    /// Does `item` have a nonzero annotation?
    pub fn contains(&self, item: &T) -> bool {
        self.entries.contains_key(item)
    }

    /// Number of items with nonzero annotation.
    pub fn support_len(&self) -> usize {
        self.entries.len()
    }

    /// Is this the empty collection?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate `(item, annotation)` pairs in item order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, &K)> + '_ {
        self.entries.iter()
    }

    /// Iterate the support (items with nonzero annotation).
    pub fn support(&self) -> impl Iterator<Item = &T> + '_ {
        self.entries.keys()
    }

    /// Pointwise addition (the paper's `e₁ ∪ e₂`).
    pub fn union(&self, other: &Self) -> Self {
        if self.entries.is_empty() {
            return other.clone();
        }
        if other.entries.is_empty() {
            return self.clone();
        }
        let mut out = self.clone();
        for (t, k) in &other.entries {
            out.insert(t.clone(), k.clone());
        }
        out
    }

    /// Pointwise addition in place, consuming `other`: `self += other`.
    ///
    /// Merges the smaller operand into the larger one (union is
    /// commutative), so folding a sequence of unions into an
    /// accumulator is `O(total · log)` instead of the `O(n²)` cost of
    /// rebuilding the accumulator with [`KSet::union`] at every step.
    pub fn union_with(&mut self, mut other: Self) {
        if other.entries.is_empty() {
            return;
        }
        if self.entries.is_empty() {
            *self = other;
            return;
        }
        if other.entries.len() > self.entries.len() {
            std::mem::swap(&mut self.entries, &mut other.entries);
        }
        for (t, k) in other.entries {
            self.insert(t, k);
        }
    }

    /// Scalar multiplication in place: `self = k · self`, reusing the
    /// allocation instead of rebuilding a new map per call.
    pub fn scalar_mul_in_place(&mut self, k: &K) {
        if k.is_one() {
            return;
        }
        if k.is_zero() {
            self.entries.clear();
            return;
        }
        self.entries.retain(|_, ann| {
            *ann = k.times(ann);
            !ann.is_zero()
        });
    }

    /// Bulk insert of scaled entries: `self += k · other`, consuming
    /// `other`. This is one bind step with a reused accumulator — the
    /// loops of `for`-iteration and big-union call it once per binding
    /// instead of allocating an inner collection and unioning it in.
    pub fn extend_scaled(&mut self, other: Self, k: &K) {
        if k.is_zero() || other.entries.is_empty() {
            return;
        }
        if k.is_one() {
            self.union_with(other);
            return;
        }
        for (t, ann) in other.entries {
            self.insert(t, k.times(&ann));
        }
    }

    /// The monad bind accumulated into an existing collection:
    /// `out += ∪(x ∈ self) f(x)`. Equivalent to
    /// `out.union_with(self.bind(f))` without the intermediate
    /// allocation.
    pub fn bind_into<U: Ord + Clone, F: FnMut(&T) -> KSet<U, K>>(
        &self,
        mut f: F,
        out: &mut KSet<U, K>,
    ) {
        for (t, k) in &self.entries {
            let inner = f(t);
            out.extend_scaled(inner, k);
        }
    }

    /// Scalar multiplication `k · e` (the paper's `k e`, §6.2).
    pub fn scalar_mul(&self, k: &K) -> Self {
        if k.is_zero() {
            return KSet::new();
        }
        if k.is_one() {
            return self.clone();
        }
        let mut out = KSet::new();
        for (t, ann) in &self.entries {
            out.insert(t.clone(), k.times(ann));
        }
        out
    }

    /// The monad bind / big-union `∪(x ∈ self) f(x)`:
    /// `result(y) = Σ_x self(x) · f(x)(y)`.
    pub fn bind<U: Ord + Clone, F: FnMut(&T) -> KSet<U, K>>(&self, f: F) -> KSet<U, K> {
        let mut out = KSet::new();
        self.bind_into(f, &mut out);
        out
    }

    /// Functorial map: re-key the support, merging collisions with `+`.
    pub fn map_support<U: Ord + Clone, F: FnMut(&T) -> U>(&self, mut f: F) -> KSet<U, K> {
        let mut out = KSet::new();
        for (t, k) in &self.entries {
            out.insert(f(t), k.clone());
        }
        out
    }

    /// Keep items satisfying the predicate (annotations unchanged).
    pub fn filter<F: FnMut(&T) -> bool>(&self, mut f: F) -> Self {
        KSet {
            entries: self
                .entries
                .iter()
                .filter(|(t, _)| f(t))
                .map(|(t, k)| (t.clone(), k.clone()))
                .collect(),
        }
    }

    /// Apply a semiring homomorphism to every annotation, re-keying with
    /// a value transform; the lifting `H` of §6.4 at collection level.
    pub fn map_annotations<K2, U, FH, FT>(&self, mut hom: FH, mut tf: FT) -> KSet<U, K2>
    where
        K2: Semiring,
        U: Ord + Clone,
        FH: FnMut(&K) -> K2,
        FT: FnMut(&T) -> U,
    {
        let mut out = KSet::new();
        for (t, k) in &self.entries {
            out.insert(tf(t), hom(k));
        }
        out
    }

    /// The total annotation `Σ_x self(x)` (e.g. total multiplicity for
    /// bags; useful for aggregates and tests).
    pub fn total(&self) -> K {
        K::sum(self.entries.values().cloned())
    }
}

/// Union a batch of K-sets down to one, in parallel: a tree-reduce
/// over [`KSet::union_with`] on `pool`, splitting across up to
/// `par.degree()` concurrent folds. The merge is the same
/// smaller-into-larger in-place union the sequential evaluator loops
/// use, so the result is identical to folding the batch left-to-right
/// (union is associative and commutative); with
/// [`axml_pool::Parallelism::is_sequential`] the pool is never
/// touched.
///
/// This is the reduce half of every fan-out in the parallel evaluation
/// layer: chunked descendant sweeps and partitioned join rounds each
/// produce one K-set per chunk and meet here.
pub fn par_union_all<T, K>(
    pool: &axml_pool::Pool,
    par: axml_pool::Parallelism,
    sets: Vec<KSet<T, K>>,
) -> KSet<T, K>
where
    T: Ord + Clone + Send,
    K: Semiring,
{
    let merge = |mut a: KSet<T, K>, b: KSet<T, K>| {
        a.union_with(b);
        a
    };
    if par.is_sequential() {
        return sets.into_iter().reduce(merge).unwrap_or_default();
    }
    pool.reduce(sets, par.degree_on(pool), merge)
        .unwrap_or_default()
}

impl<T: Ord + Clone, K: Semiring> FromIterator<(T, K)> for KSet<T, K> {
    fn from_iter<I: IntoIterator<Item = (T, K)>>(iter: I) -> Self {
        KSet::from_pairs(iter)
    }
}

impl<T: Ord + Clone, K: Semiring> IntoIterator for KSet<T, K> {
    type Item = (T, K);
    type IntoIter = std::collections::btree_map::IntoIter<T, K>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<T: Ord + Clone + fmt::Debug, K: Semiring> fmt::Debug for KSet<T, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (t, k) in &self.entries {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            if k.is_one() {
                write!(f, "{t:?}")?;
            } else {
                write!(f, "{t:?}^{k:?}")?;
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat::Nat;
    use crate::poly::NatPoly;

    type Bag<'a> = KSet<&'a str, Nat>;

    #[test]
    fn zero_annotations_are_pruned() {
        let mut s: Bag = KSet::new();
        s.insert("a", Nat(0));
        assert!(s.is_empty());
        assert!(!s.contains(&"a"));
        let s2: Bag = KSet::singleton("a", Nat(0));
        assert!(s2.is_empty());
    }

    #[test]
    fn insert_adds_annotations() {
        let mut s: Bag = KSet::new();
        s.insert("a", Nat(2));
        s.insert("a", Nat(3));
        s.insert("b", Nat(1));
        assert_eq!(s.get(&"a"), Nat(5));
        assert_eq!(s.get(&"b"), Nat(1));
        assert_eq!(s.get(&"c"), Nat(0));
        assert_eq!(s.support_len(), 2);
        assert_eq!(s.total(), Nat(6));
    }

    #[test]
    fn union_is_pointwise_addition() {
        let a: Bag = KSet::from_pairs([("x", Nat(1)), ("y", Nat(2))]);
        let b: Bag = KSet::from_pairs([("y", Nat(3)), ("z", Nat(4))]);
        let u = a.union(&b);
        assert_eq!(u.get(&"x"), Nat(1));
        assert_eq!(u.get(&"y"), Nat(5));
        assert_eq!(u.get(&"z"), Nat(4));
    }

    #[test]
    fn flatten_example_from_paper() {
        // §6.2: flatten {{a^p, b^r}^u, {b^s}^v} = {a^{u·p}, b^{u·r+v·s}}
        let [p, r, u, s, v] = [Nat(2), Nat(3), Nat(5), Nat(7), Nat(11)];
        let inner1: Bag = KSet::from_pairs([("a", p), ("b", r)]);
        let inner2: Bag = KSet::from_pairs([("b", s)]);
        let outer: KSet<Bag, Nat> = KSet::from_pairs([(inner1, u), (inner2, v)]);
        let flat = outer.bind(|w| w.clone());
        assert_eq!(flat.get(&"a"), u.times(&p));
        assert_eq!(flat.get(&"b"), u.times(&r).plus(&v.times(&s)));
    }

    #[test]
    fn cartesian_product_example_from_paper() {
        // §6.2: {a^p, b^r} × {c^u} = {(a,c)^{p·u}, (b,c)^{r·u}}
        let r1: Bag = KSet::from_pairs([("a", Nat(2)), ("b", Nat(3))]);
        let r2: Bag = KSet::from_pairs([("c", Nat(5))]);
        let prod = r1.bind(|x| r2.map_support(|y| (*x, *y)));
        assert_eq!(prod.get(&("a", "c")), Nat(10));
        assert_eq!(prod.get(&("b", "c")), Nat(15));
    }

    #[test]
    fn scalar_mul_shortcuts() {
        let s: Bag = KSet::from_pairs([("a", Nat(2))]);
        assert!(s.scalar_mul(&Nat(0)).is_empty());
        assert_eq!(s.scalar_mul(&Nat(1)), s);
        assert_eq!(s.scalar_mul(&Nat(3)).get(&"a"), Nat(6));
    }

    #[test]
    fn map_support_merges_with_plus() {
        let s: Bag = KSet::from_pairs([("aa", Nat(2)), ("ab", Nat(3))]);
        let by_first = s.map_support(|t| &t[..1]);
        assert_eq!(by_first.get(&"a"), Nat(5));
        assert_eq!(by_first.support_len(), 1);
    }

    #[test]
    fn filter_keeps_annotations() {
        let s: Bag = KSet::from_pairs([("a", Nat(2)), ("b", Nat(3))]);
        let f = s.filter(|t| *t == "a");
        assert_eq!(f.get(&"a"), Nat(2));
        assert!(!f.contains(&"b"));
    }

    #[test]
    fn map_annotations_applies_hom() {
        let s: Bag = KSet::from_pairs([("a", Nat(2)), ("b", Nat(0))]);
        let b: KSet<&str, bool> = s.map_annotations(crate::hom::dup_elim, |t| *t);
        assert!(b.get(&"a"));
        assert!(!b.contains(&"b"));
    }

    // ---- Semimodule axioms (Prop 5 / Appendix A), deterministic ----

    fn sample_sets() -> Vec<KSet<u32, NatPoly>> {
        let x = NatPoly::var_named("sm_x");
        let y = NatPoly::var_named("sm_y");
        vec![
            KSet::new(),
            KSet::unit(1),
            KSet::from_pairs([(1, x.clone()), (2, y.clone())]),
            KSet::from_pairs([(2, x.times(&y)), (3, NatPoly::one())]),
        ]
    }

    fn sample_scalars() -> Vec<NatPoly> {
        vec![
            NatPoly::zero(),
            NatPoly::one(),
            NatPoly::var_named("sm_k1"),
            NatPoly::var_named("sm_k1").plus(&NatPoly::var_named("sm_k2")),
        ]
    }

    #[test]
    fn semimodule_axioms() {
        for k1 in sample_scalars() {
            for k2 in sample_scalars() {
                for xs in sample_sets() {
                    for ys in sample_sets() {
                        // k(x+y) = kx + ky
                        assert_eq!(
                            xs.union(&ys).scalar_mul(&k1),
                            xs.scalar_mul(&k1).union(&ys.scalar_mul(&k1))
                        );
                        // (k1+k2)x = k1x + k2x
                        assert_eq!(
                            xs.scalar_mul(&k1.plus(&k2)),
                            xs.scalar_mul(&k1).union(&xs.scalar_mul(&k2))
                        );
                        // (k1·k2)x = k1(k2 x)
                        assert_eq!(
                            xs.scalar_mul(&k1.times(&k2)),
                            xs.scalar_mul(&k2).scalar_mul(&k1)
                        );
                    }
                    // k·0 = 0, 0·x = 0, 1·x = x
                    assert_eq!(KSet::<u32, NatPoly>::new().scalar_mul(&k1), KSet::new());
                }
            }
        }
        for xs in sample_sets() {
            assert_eq!(xs.scalar_mul(&NatPoly::zero()), KSet::new());
            assert_eq!(xs.scalar_mul(&NatPoly::one()), xs);
        }
    }

    #[test]
    fn bind_axioms() {
        // ∪(x ∈ S) {x} = S   (right identity)
        for s in sample_sets() {
            assert_eq!(s.bind(|x| KSet::unit(*x)), s);
        }
        // ∪(x ∈ {e}) S = S[x := e]   (left identity)
        let f = |x: &u32| KSet::from_pairs([(x + 1, NatPoly::var_named("sm_b"))]);
        assert_eq!(KSet::<u32, NatPoly>::unit(7).bind(f), f(&7));
        // associativity: ∪(x ∈ ∪(y ∈ R) S) T = ∪(y ∈ R) ∪(x ∈ S) T
        for r in sample_sets() {
            let s = |y: &u32| {
                KSet::from_pairs([
                    (y * 2, NatPoly::one()),
                    (y * 2 + 1, NatPoly::var_named("sm_s")),
                ])
            };
            let t = |x: &u32| KSet::from_pairs([(x % 3, NatPoly::var_named("sm_t"))]);
            assert_eq!(r.bind(s).bind(t), r.bind(|y| s(y).bind(t)));
        }
        // bilinearity in the source:
        // ∪(x ∈ k1 R1 ∪ k2 R2) S = k1 (∪(x∈R1) S) ∪ k2 (∪(x∈R2) S)
        let k1 = NatPoly::var_named("sm_k1");
        let k2 = NatPoly::var_named("sm_k2");
        for r1 in sample_sets() {
            for r2 in sample_sets() {
                let s = |x: &u32| KSet::from_pairs([(x + 10, NatPoly::one())]);
                let lhs = r1.scalar_mul(&k1).union(&r2.scalar_mul(&k2)).bind(s);
                let rhs = r1
                    .bind(s)
                    .scalar_mul(&k1)
                    .union(&r2.bind(s).scalar_mul(&k2));
                assert_eq!(lhs, rhs);
            }
        }
        // bilinearity in the body:
        // ∪(x ∈ R)(k1 S1 ∪ k2 S2) = k1(∪(x∈R) S1) ∪ k2(∪(x∈R) S2)
        for r in sample_sets() {
            let s1 = |x: &u32| KSet::from_pairs([(x + 1, NatPoly::one())]);
            let s2 = |x: &u32| KSet::from_pairs([(x + 2, NatPoly::var_named("sm_w"))]);
            let lhs = r.bind(|x| s1(x).scalar_mul(&k1).union(&s2(x).scalar_mul(&k2)));
            let rhs = r
                .bind(s1)
                .scalar_mul(&k1)
                .union(&r.bind(s2).scalar_mul(&k2));
            assert_eq!(lhs, rhs);
        }
    }

    #[test]
    fn bind_commutation() {
        // ∪(x ∈ R) ∪(y ∈ S) T = ∪(y ∈ S) ∪(x ∈ R) T (independent sources)
        for r in sample_sets() {
            for s in sample_sets() {
                let t = |x: &u32, y: &u32| KSet::from_pairs([(x * 100 + y, NatPoly::one())]);
                let lhs = r.bind(|x| s.bind(|y| t(x, y)));
                let rhs = s.bind(|y| r.bind(|x| t(x, y)));
                assert_eq!(lhs, rhs);
            }
        }
    }

    #[test]
    fn par_union_all_matches_sequential_fold() {
        let pool = axml_pool::Pool::new(4);
        // 64 overlapping bags: every third key collides across sets.
        let sets: Vec<KSet<u32, Nat>> = (0..64u32)
            .map(|i| KSet::from_pairs([(i % 3, Nat(i as u128)), (i + 100, Nat(1))]))
            .collect();
        let expected = sets
            .iter()
            .cloned()
            .reduce(|mut a, b| {
                a.union_with(b);
                a
            })
            .unwrap();
        for par in [
            axml_pool::Parallelism::sequential(),
            axml_pool::Parallelism::threads(4),
            axml_pool::Parallelism::threads(16),
        ] {
            assert_eq!(par_union_all(&pool, par, sets.clone()), expected);
        }
        assert!(
            par_union_all::<u32, Nat>(&pool, axml_pool::Parallelism::threads(4), Vec::new())
                .is_empty()
        );
    }

    #[test]
    fn debug_format_elides_one() {
        let s: Bag = KSet::from_pairs([("a", Nat(1)), ("b", Nat(2))]);
        assert_eq!(format!("{s:?}"), "{\"a\", \"b\"^2}");
    }
}
