//! The tropical and Viterbi semirings — classic annotation structures
//! mentioned throughout the semiring-provenance literature; included as
//! further instances exercising the framework (cost of the cheapest
//! derivation, probability of the likeliest derivation).

use crate::semiring::Semiring;
use std::fmt;

/// The tropical semiring `(ℕ ∪ {∞}, min, +, ∞, 0)`.
///
/// Annotating source items with costs, a query answer's annotation is
/// the cost of its *cheapest derivation*: `+` picks the cheaper
/// alternative, `·` sums the costs of jointly used inputs.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tropical {
    /// A finite cost.
    Cost(u64),
    /// Unreachable / absent (the semiring `0`).
    Infinity,
}

impl Tropical {
    /// Finite cost constructor.
    pub fn cost(c: u64) -> Self {
        Tropical::Cost(c)
    }

    /// The finite cost, if any.
    pub fn as_cost(self) -> Option<u64> {
        match self {
            Tropical::Cost(c) => Some(c),
            Tropical::Infinity => None,
        }
    }
}

impl Semiring for Tropical {
    fn zero() -> Self {
        Tropical::Infinity
    }

    fn one() -> Self {
        Tropical::Cost(0)
    }

    fn plus(&self, other: &Self) -> Self {
        match (self, other) {
            (Tropical::Infinity, x) | (x, Tropical::Infinity) => *x,
            (Tropical::Cost(a), Tropical::Cost(b)) => Tropical::Cost(*a.min(b)),
        }
    }

    fn times(&self, other: &Self) -> Self {
        match (self, other) {
            (Tropical::Infinity, _) | (_, Tropical::Infinity) => Tropical::Infinity,
            (Tropical::Cost(a), Tropical::Cost(b)) => Tropical::Cost(
                a.checked_add(*b)
                    .expect("tropical cost addition overflowed u64"),
            ),
        }
    }
}

impl fmt::Debug for Tropical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tropical::Cost(c) => write!(f, "{c}"),
            Tropical::Infinity => write!(f, "∞"),
        }
    }
}

impl fmt::Display for Tropical {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The Viterbi semiring `([0,1], max, ·, 0, 1)`: the probability of the
/// most likely derivation.
///
/// A newtype over `f64` restricted to `[0,1]`; `Eq`/`Ord`/`Hash` are
/// total because NaN and out-of-range values are rejected at
/// construction, giving the canonical-value property [`Semiring`]
/// requires.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct Prob(f64);

impl Prob {
    /// Construct from a probability in `[0,1]`; panics outside the range
    /// (these values annotate data — an out-of-range probability is a
    /// caller bug, not a recoverable state).
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
        Prob(p)
    }

    /// The inner probability.
    pub fn value(self) -> f64 {
        self.0
    }
}

// Prob contains no NaN by construction, so the partial orders are total.
impl Eq for Prob {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Prob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("Prob is NaN-free by construction")
    }
}

impl std::hash::Hash for Prob {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // 0.0 and -0.0 compare equal; normalize before hashing.
        let bits = if self.0 == 0.0 {
            0u64
        } else {
            self.0.to_bits()
        };
        bits.hash(state);
    }
}

impl Semiring for Prob {
    fn zero() -> Self {
        Prob(0.0)
    }

    fn one() -> Self {
        Prob(1.0)
    }

    fn plus(&self, other: &Self) -> Self {
        Prob(self.0.max(other.0))
    }

    fn times(&self, other: &Self) -> Self {
        Prob(self.0 * other.0)
    }
}

impl fmt::Debug for Prob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Prob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// The arctic semiring `(ℕ ∪ {-∞}, max, +, -∞, 0)`: the cost of the
/// *most expensive* derivation (critical paths, worst-case resource
/// accounting) — the order-dual of [`Tropical`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Arctic {
    /// Unreachable / absent (the semiring `0`).
    NegInfinity,
    /// A finite value.
    Value(u64),
}

impl Arctic {
    /// Finite value constructor.
    pub fn value(v: u64) -> Self {
        Arctic::Value(v)
    }

    /// The finite value, if any.
    pub fn as_value(self) -> Option<u64> {
        match self {
            Arctic::Value(v) => Some(v),
            Arctic::NegInfinity => None,
        }
    }
}

impl Semiring for Arctic {
    fn zero() -> Self {
        Arctic::NegInfinity
    }

    fn one() -> Self {
        Arctic::Value(0)
    }

    fn plus(&self, other: &Self) -> Self {
        match (self, other) {
            (Arctic::NegInfinity, x) | (x, Arctic::NegInfinity) => *x,
            (Arctic::Value(a), Arctic::Value(b)) => Arctic::Value(*a.max(b)),
        }
    }

    fn times(&self, other: &Self) -> Self {
        match (self, other) {
            (Arctic::NegInfinity, _) | (_, Arctic::NegInfinity) => Arctic::NegInfinity,
            (Arctic::Value(a), Arctic::Value(b)) => Arctic::Value(
                a.checked_add(*b)
                    .expect("arctic value addition overflowed u64"),
            ),
        }
    }
}

impl fmt::Debug for Arctic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arctic::Value(v) => write!(f, "{v}"),
            Arctic::NegInfinity => write!(f, "-∞"),
        }
    }
}

impl fmt::Display for Arctic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The fuzzy semiring `([0,1], max, min, 0, 1)`: Gödel fuzzy logic — a
/// distributive lattice on the unit interval (so Prop 3 applies to it).
#[derive(Clone, Copy, PartialEq, PartialOrd)]
pub struct Fuzzy(f64);

impl Fuzzy {
    /// Construct from a membership degree in `[0,1]`; panics outside.
    pub fn new(v: f64) -> Self {
        assert!((0.0..=1.0).contains(&v), "fuzzy degree {v} outside [0,1]");
        Fuzzy(v)
    }

    /// The inner degree.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Eq for Fuzzy {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Fuzzy {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("Fuzzy is NaN-free by construction")
    }
}

impl std::hash::Hash for Fuzzy {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let bits = if self.0 == 0.0 {
            0u64
        } else {
            self.0.to_bits()
        };
        bits.hash(state);
    }
}

impl Semiring for Fuzzy {
    fn zero() -> Self {
        Fuzzy(0.0)
    }

    fn one() -> Self {
        Fuzzy(1.0)
    }

    fn plus(&self, other: &Self) -> Self {
        Fuzzy(self.0.max(other.0))
    }

    fn times(&self, other: &Self) -> Self {
        Fuzzy(self.0.min(other.0))
    }
}

impl fmt::Debug for Fuzzy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Fuzzy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::laws::check_laws;

    #[test]
    fn tropical_is_a_semiring() {
        let samples = [
            Tropical::Infinity,
            Tropical::Cost(0),
            Tropical::Cost(1),
            Tropical::Cost(5),
            Tropical::Cost(100),
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
    fn tropical_cheapest_derivation() {
        // (2 + 3) alternatives with joint costs: min(2+3, 1+10) = 5
        let d1 = Tropical::Cost(2).times(&Tropical::Cost(3));
        let d2 = Tropical::Cost(1).times(&Tropical::Cost(10));
        assert_eq!(d1.plus(&d2), Tropical::Cost(5));
        assert_eq!(Tropical::Infinity.as_cost(), None);
        assert_eq!(Tropical::cost(4).as_cost(), Some(4));
    }

    #[test]
    fn viterbi_is_a_semiring() {
        let samples = [
            Prob::new(0.0),
            Prob::new(0.25),
            Prob::new(0.5),
            Prob::new(1.0),
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
    fn viterbi_most_likely_derivation() {
        let d1 = Prob::new(0.9).times(&Prob::new(0.5)); // 0.45
        let d2 = Prob::new(0.6).times(&Prob::new(0.6)); // 0.36
        assert_eq!(d1.plus(&d2), Prob::new(0.45));
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn prob_rejects_out_of_range() {
        let _ = Prob::new(1.5);
    }

    #[test]
    fn arctic_is_a_semiring() {
        let samples = [
            Arctic::NegInfinity,
            Arctic::Value(0),
            Arctic::Value(3),
            Arctic::Value(10),
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
    fn arctic_most_expensive_derivation() {
        let d1 = Arctic::value(2).times(&Arctic::value(3)); // 5
        let d2 = Arctic::value(4).times(&Arctic::value(4)); // 8
        assert_eq!(d1.plus(&d2), Arctic::value(8));
        assert_eq!(Arctic::NegInfinity.as_value(), None);
    }

    #[test]
    fn fuzzy_is_a_distributive_lattice_semiring() {
        let samples = [
            Fuzzy::new(0.0),
            Fuzzy::new(0.3),
            Fuzzy::new(0.7),
            Fuzzy::new(1.0),
        ];
        for a in &samples {
            for b in &samples {
                for c in &samples {
                    check_laws(a, b, c);
                }
            }
        }
        // idempotence (lattice)
        for a in samples {
            assert_eq!(a.plus(&a), a);
            assert_eq!(a.times(&a), a);
        }
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn fuzzy_rejects_out_of_range() {
        let _ = Fuzzy::new(-0.1);
    }

    #[test]
    fn prob_zero_normalizes_negative_zero_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |p: Prob| {
            let mut s = DefaultHasher::new();
            p.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(Prob::new(0.0)), h(Prob(-0.0)));
    }
}
