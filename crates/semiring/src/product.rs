//! Product semirings (§9: "recording jointly provenance, security, and
//! uncertainty (the product of several semirings is also a semiring!)").

use crate::semiring::Semiring;
use std::fmt;

/// The product semiring `K₁ × K₂` with componentwise operations.
///
/// Nest `Product`s for more components:
/// `Product<Clearance, Product<Nat, PosBool>>` tracks clearance,
/// multiplicity and an incompleteness condition simultaneously. The two
/// projections are semiring homomorphisms, so by Theorem 1 evaluating
/// jointly and projecting agrees with evaluating each component
/// separately.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Product<K1, K2>(pub K1, pub K2);

impl<K1: Semiring, K2: Semiring> Product<K1, K2> {
    /// Pair two annotations.
    pub fn new(a: K1, b: K2) -> Self {
        Product(a, b)
    }

    /// First projection (a semiring homomorphism).
    pub fn fst(&self) -> &K1 {
        &self.0
    }

    /// Second projection (a semiring homomorphism).
    pub fn snd(&self) -> &K2 {
        &self.1
    }
}

impl<K1: Semiring, K2: Semiring> Semiring for Product<K1, K2> {
    fn zero() -> Self {
        Product(K1::zero(), K2::zero())
    }

    fn one() -> Self {
        Product(K1::one(), K2::one())
    }

    fn plus(&self, other: &Self) -> Self {
        Product(self.0.plus(&other.0), self.1.plus(&other.1))
    }

    fn times(&self, other: &Self) -> Self {
        Product(self.0.times(&other.0), self.1.times(&other.1))
    }
}

impl<K1: fmt::Debug, K2: fmt::Debug> fmt::Debug for Product<K1, K2> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}, {:?})", self.0, self.1)
    }
}

impl<K1: fmt::Display, K2: fmt::Display> fmt::Display for Product<K1, K2> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.0, self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clearance::Clearance;
    use crate::hom::{assert_hom_laws, FnHom};
    use crate::nat::Nat;
    use crate::semiring::laws::check_laws;

    #[test]
    fn product_is_a_semiring() {
        let samples = [
            Product::new(Nat(0), false),
            Product::new(Nat(1), true),
            Product::new(Nat(2), false),
            Product::new(Nat(3), true),
        ];
        for a in &samples {
            for b in &samples {
                for c in &samples {
                    check_laws(a, b, c);
                }
            }
        }
    }

    #[test]
    fn projections_are_homomorphisms() {
        let samples = [
            Product::new(Nat(0), Clearance::NEVER),
            Product::new(Nat(1), Clearance::P),
            Product::new(Nat(2), Clearance::S),
            Product::new(Nat(5), Clearance::T),
        ];
        assert_hom_laws(
            &FnHom::new(|p: &Product<Nat, Clearance>| *p.fst()),
            &samples,
        );
        assert_hom_laws(
            &FnHom::new(|p: &Product<Nat, Clearance>| *p.snd()),
            &samples,
        );
    }

    #[test]
    fn triple_nesting() {
        type K = Product<Nat, Product<bool, Clearance>>;
        let a: K = Product::new(Nat(2), Product::new(true, Clearance::C));
        let b: K = Product::new(Nat(3), Product::new(true, Clearance::S));
        let ab = a.times(&b);
        assert_eq!(ab.0, Nat(6));
        assert!(ab.1 .0);
        assert_eq!(ab.1 .1, Clearance::S);
    }

    #[test]
    fn display() {
        let p = Product::new(Nat(2), Clearance::S);
        assert_eq!(p.to_string(), "(2, S)");
    }
}
