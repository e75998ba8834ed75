//! The natural-number semiring `(ℕ, +, ·, 0, 1)` — bag semantics.

use crate::semiring::Semiring;
use std::fmt;

/// A natural number used as a semiring annotation (multiplicity).
///
/// `ℕ`-UXML is unordered XML with *repetitions*: the annotation of a
/// subtree is the number of copies present (§3, §5).
///
/// Arithmetic is checked `u128`: provenance-polynomial coefficients and
/// bag multiplicities can grow multiplicatively with query size (Prop 2),
/// and silent wrap-around would violate the homomorphism laws that the
/// whole framework rests on. Overflow panics with a clear message
/// instead; at 128 bits this is unreachable for every workload in this
/// repository.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nat(pub u128);

impl Nat {
    /// The value 0.
    pub const ZERO: Nat = Nat(0);
    /// The value 1.
    pub const ONE: Nat = Nat(1);

    /// Construct from any unsigned integer.
    pub fn new(n: impl Into<u128>) -> Self {
        Nat(n.into())
    }

    /// The underlying integer.
    pub fn value(self) -> u128 {
        self.0
    }

    /// Checked addition; panics on overflow (see type docs).
    fn checked_plus(self, other: Nat) -> Nat {
        Nat(self
            .0
            .checked_add(other.0)
            .expect("Nat semiring addition overflowed u128"))
    }

    /// Checked multiplication; panics on overflow (see type docs).
    fn checked_times(self, other: Nat) -> Nat {
        Nat(self
            .0
            .checked_mul(other.0)
            .expect("Nat semiring multiplication overflowed u128"))
    }
}

impl Semiring for Nat {
    fn zero() -> Self {
        Nat::ZERO
    }
    fn one() -> Self {
        Nat::ONE
    }
    fn plus(&self, other: &Self) -> Self {
        self.checked_plus(*other)
    }
    fn times(&self, other: &Self) -> Self {
        self.checked_times(*other)
    }
    fn is_zero(&self) -> bool {
        self.0 == 0
    }
    fn is_one(&self) -> bool {
        self.0 == 1
    }
}

impl From<u64> for Nat {
    fn from(n: u64) -> Self {
        Nat(n as u128)
    }
}

impl From<u32> for Nat {
    fn from(n: u32) -> Self {
        Nat(n as u128)
    }
}

impl From<usize> for Nat {
    fn from(n: usize) -> Self {
        Nat(n as u128)
    }
}

impl fmt::Debug for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Nat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::laws::check_laws;

    #[test]
    fn nat_is_a_semiring() {
        let samples = [Nat(0), Nat(1), Nat(2), Nat(7), Nat(100)];
        for a in &samples {
            for b in &samples {
                for c in &samples {
                    check_laws(a, b, c);
                }
            }
        }
    }

    #[test]
    fn arithmetic() {
        assert_eq!(Nat(2).plus(&Nat(3)), Nat(5));
        assert_eq!(Nat(2).times(&Nat(3)), Nat(6));
        assert_eq!(Nat(9).pow(2), Nat(81));
        assert_eq!(Nat(2).pow(10), Nat(1024));
        assert_eq!(Nat(0).pow(0), Nat(1));
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn multiplication_overflow_panics() {
        let big = Nat(u128::MAX / 2);
        let _ = big.times(&Nat(3));
    }

    #[test]
    fn sum_product() {
        assert_eq!(Nat::sum([Nat(1), Nat(2), Nat(3)]), Nat(6));
        assert_eq!(Nat::product([Nat(2), Nat(3), Nat(4)]), Nat(24));
    }

    #[test]
    fn conversions() {
        assert_eq!(Nat::from(5u32), Nat(5));
        assert_eq!(Nat::from(5u64), Nat(5));
        assert_eq!(Nat::from(5usize), Nat(5));
        assert_eq!(Nat::new(5u64).value(), 5);
    }
}
