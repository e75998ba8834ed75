//! The [`Semiring`] trait and the Boolean instance.

use std::fmt::Debug;
use std::hash::Hash;

/// A commutative semiring `(K, +, ·, 0, 1)` (§2 of the paper).
///
/// Laws (checked by property tests in this crate and re-checked through
/// query semantics by the `theorems` integration tests):
///
/// 1. `(K, +, 0)` is a commutative monoid;
/// 2. `(K, ·, 1)` is a commutative monoid;
/// 3. `·` distributes over `+`: `a · (b + c) = a·b + a·c`;
/// 4. `0` annihilates: `0 · a = 0`.
///
/// Implementations must be **canonical**: two elements are semantically
/// equal iff they are `==`. This is what lets annotated trees and
/// K-collections use annotations as parts of map keys. All provided
/// instances normalize on construction (e.g. [`crate::PosBool`] keeps an
/// irredundant monotone DNF).
///
/// The intuition for the operations (paper, §2): an annotation `0` means
/// the item is absent, `k1 + k2` means the item can be obtained from the
/// data described by `k1` *or* by `k2`, and `k1 · k2` means obtaining it
/// requires *both*. `1` is one copy "without restrictions".
pub trait Semiring: Clone + Eq + Ord + Hash + Debug + Send + Sync + 'static {
    /// The additive identity `0`.
    fn zero() -> Self;
    /// The multiplicative identity `1`.
    fn one() -> Self;
    /// Semiring addition `+` (alternative use).
    fn plus(&self, other: &Self) -> Self;
    /// Semiring multiplication `·` (joint use).
    fn times(&self, other: &Self) -> Self;

    /// Is this the additive identity? Items annotated `0` are treated as
    /// absent by every collection in this workspace.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// Is this the multiplicative identity? Used by pretty-printers to
    /// elide "neutral" annotations exactly as the paper's figures do.
    fn is_one(&self) -> bool {
        *self == Self::one()
    }

    /// `Σ` of an iterator of elements (0 for the empty iterator): a
    /// left fold with the consuming [`Semiring::add`], in iteration
    /// order.
    fn sum<I: IntoIterator<Item = Self>>(iter: I) -> Self {
        iter.into_iter()
            .reduce(|acc, k| acc.add(k))
            .unwrap_or_else(Self::zero)
    }

    /// `Π` of an iterator of elements (1 for the empty iterator).
    fn product<I: IntoIterator<Item = Self>>(iter: I) -> Self {
        iter.into_iter().fold(Self::one(), |acc, k| acc.times(&k))
    }

    /// `self + other`, consuming both (convenience over [`Semiring::plus`]).
    fn add(self, other: Self) -> Self {
        self.plus(&other)
    }

    /// `self · other`, consuming both (convenience over [`Semiring::times`]).
    fn mul(self, other: Self) -> Self {
        self.times(&other)
    }

    /// `self^n` by repeated squaring. `k^0 = 1`.
    fn pow(&self, mut n: u32) -> Self {
        let mut base = self.clone();
        let mut acc = Self::one();
        while n > 0 {
            if n & 1 == 1 {
                acc = acc.times(&base);
            }
            n >>= 1;
            if n > 0 {
                base = base.times(&base);
            }
        }
        acc
    }
}

/// The Boolean semiring `(𝔹, ∨, ∧, false, true)`: ordinary set-based
/// data. `B`-UXML is "essentially unannotated unordered XML" (§3).
impl Semiring for bool {
    fn zero() -> Self {
        false
    }
    fn one() -> Self {
        true
    }
    fn plus(&self, other: &Self) -> Self {
        *self || *other
    }
    fn times(&self, other: &Self) -> Self {
        *self && *other
    }
    fn is_zero(&self) -> bool {
        !*self
    }
    fn is_one(&self) -> bool {
        *self
    }
}

#[cfg(test)]
pub(crate) mod laws {
    //! Reusable semiring-law assertions, used by every instance's tests.
    use super::Semiring;

    /// Assert all commutative-semiring laws on a triple of elements.
    pub fn check_laws<K: Semiring>(a: &K, b: &K, c: &K) {
        // additive commutative monoid
        assert_eq!(a.plus(b), b.plus(a), "+ commutes");
        assert_eq!(a.plus(&b.plus(c)), a.plus(b).plus(c), "+ associates");
        assert_eq!(a.plus(&K::zero()), *a, "0 is + identity");
        // multiplicative commutative monoid
        assert_eq!(a.times(b), b.times(a), "· commutes");
        assert_eq!(a.times(&b.times(c)), a.times(b).times(c), "· associates");
        assert_eq!(a.times(&K::one()), *a, "1 is · identity");
        // distributivity and annihilation
        assert_eq!(
            a.times(&b.plus(c)),
            a.times(b).plus(&a.times(c)),
            "· distributes over +"
        );
        assert_eq!(a.times(&K::zero()), K::zero(), "0 annihilates");
    }

    /// Assert idempotence of `+` (for lattice-like semirings).
    pub fn check_plus_idempotent<K: Semiring>(a: &K) {
        assert_eq!(a.plus(a), *a, "+ idempotent");
    }
}

#[cfg(test)]
mod tests {
    use super::laws::check_laws;
    use super::*;

    #[test]
    fn bool_is_a_semiring() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    check_laws(&a, &b, &c);
                }
            }
        }
    }

    #[test]
    fn bool_identities() {
        assert!(!<bool as Semiring>::zero());
        assert!(<bool as Semiring>::one());
        assert!(true.is_one());
        assert!(false.is_zero());
    }

    #[test]
    fn sum_and_product_fold() {
        assert!(<bool as Semiring>::sum([false, true, false]));
        assert!(!<bool as Semiring>::sum(std::iter::empty::<bool>()));
        assert!(<bool as Semiring>::product(std::iter::empty::<bool>()));
        assert!(!<bool as Semiring>::product([true, false]));
    }

    #[test]
    fn pow_boolean() {
        assert!(true.pow(0));
        assert!(false.pow(0), "k^0 = 1 even for 0");
        assert!(!false.pow(3));
        assert!(true.pow(5));
    }
}
