//! Security-clearance annotations (§4): distributive-lattice semirings.
//!
//! The paper organizes confidentiality levels as the total order
//! `P < C < S < T < 0` and observes that `(C, min, max, 0, P)` is a
//! commutative semiring: `+ = min` (alternative derivations — the least
//! clearance that can see *some* derivation suffices) and `· = max`
//! (joint use — you need clearance for *every* input). The generic
//! [`MinMax`] wrapper turns any bounded total order into such a
//! semiring; [`Clearance`] is the paper's concrete instance.
//!
//! Any distributive lattice works the same way (meet/join distribute),
//! which is what Prop 3 needs; total orders are the special case used
//! in the paper's example.

use crate::semiring::Semiring;
use std::fmt;

/// A bounded total order usable as a [`MinMax`] min/max semiring.
///
/// `MIN` is the semiring `1` (least restrictive / "public") and `MAX`
/// is the semiring `0` (most restrictive / "not even there").
pub trait TotalOrderBounds:
    Clone + Copy + Eq + Ord + std::hash::Hash + fmt::Debug + Send + Sync + 'static
{
    /// The least element (becomes the semiring `1`).
    const MIN: Self;
    /// The greatest element (becomes the semiring `0`).
    const MAX: Self;
}

/// The min/max semiring over a bounded total order:
/// `(T, min, max, T::MAX, T::MIN)`.
///
/// This is a distributive lattice, so `+` and `·` are both idempotent
/// and Prop 3 applies: UXML-equivalent queries compute equal
/// annotations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MinMax<T>(pub T);

impl<T: TotalOrderBounds> Semiring for MinMax<T> {
    fn zero() -> Self {
        MinMax(T::MAX)
    }

    fn one() -> Self {
        MinMax(T::MIN)
    }

    /// Alternative use: the smaller (less restrictive) level suffices.
    fn plus(&self, other: &Self) -> Self {
        MinMax(self.0.min(other.0))
    }

    /// Joint use: the larger (more restrictive) level is required.
    fn times(&self, other: &Self) -> Self {
        MinMax(self.0.max(other.0))
    }
}

impl<T: fmt::Debug> fmt::Debug for MinMax<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: fmt::Display> fmt::Display for MinMax<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// The paper's clearance levels: `P < C < S < T < 0` (§4).
///
/// `Never` plays the role of the added `0`: "so secret, it isn't even
/// there" — items annotated `Never` are absent from every K-set, which
/// is why the paper adds it rather than reusing `TopSecret` (data
/// tagged `T` must not be lost entirely).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ClearanceLevel {
    /// `P` — public (the semiring `1`).
    #[default]
    Public,
    /// `C` — confidential.
    Confidential,
    /// `S` — secret.
    Secret,
    /// `T` — top-secret.
    TopSecret,
    /// `0` — absent at every clearance (the semiring `0`).
    Never,
}

impl TotalOrderBounds for ClearanceLevel {
    const MIN: Self = ClearanceLevel::Public;
    const MAX: Self = ClearanceLevel::Never;
}

/// The clearance semiring `(C, min, max, 0, P)` from §4.
pub type Clearance = MinMax<ClearanceLevel>;

/// Shorthand constructors matching the paper's notation.
impl MinMax<ClearanceLevel> {
    /// `P` (public) — the semiring `1`.
    pub const P: Clearance = MinMax(ClearanceLevel::Public);
    /// `C` (confidential).
    pub const C: Clearance = MinMax(ClearanceLevel::Confidential);
    /// `S` (secret).
    pub const S: Clearance = MinMax(ClearanceLevel::Secret);
    /// `T` (top-secret).
    pub const T: Clearance = MinMax(ClearanceLevel::TopSecret);
    /// `0` (never) — the semiring `0`.
    pub const NEVER: Clearance = MinMax(ClearanceLevel::Never);

    /// Can a principal with clearance `level` see data annotated `self`?
    ///
    /// A principal cleared at `level` sees everything whose computed
    /// clearance is ≤ `level` (and `Never`-annotated data is invisible
    /// to everyone, including `TopSecret` principals).
    pub fn visible_at(self, level: ClearanceLevel) -> bool {
        self.0 != ClearanceLevel::Never && self.0 <= level
    }
}

impl fmt::Debug for ClearanceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for ClearanceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ClearanceLevel::Public => "P",
            ClearanceLevel::Confidential => "C",
            ClearanceLevel::Secret => "S",
            ClearanceLevel::TopSecret => "T",
            ClearanceLevel::Never => "0",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for Clearance {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "P" => Ok(Clearance::P),
            "C" => Ok(Clearance::C),
            "S" => Ok(Clearance::S),
            "T" => Ok(Clearance::T),
            "0" => Ok(Clearance::NEVER),
            other => Err(format!("unknown clearance level {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::laws::{check_laws, check_plus_idempotent};

    const ALL: [Clearance; 5] = [
        Clearance::P,
        Clearance::C,
        Clearance::S,
        Clearance::T,
        Clearance::NEVER,
    ];

    #[test]
    fn clearance_is_a_semiring() {
        for a in ALL {
            for b in ALL {
                for c in ALL {
                    check_laws(&a, &b, &c);
                }
            }
        }
    }

    #[test]
    fn lattice_idempotence() {
        for a in ALL {
            check_plus_idempotent(&a);
            assert_eq!(a.times(&a), a);
        }
    }

    #[test]
    fn fig7_first_row() {
        // (a,c): w1·y5 + w1² with w1=C, y5=T  ⇒  C·T + C·C = max(C,T) min max(C,C) = min(T,C) = C
        let w1 = Clearance::C;
        let y5 = Clearance::T;
        let ann = w1.times(&y5).plus(&w1.times(&w1));
        assert_eq!(ann, Clearance::C);
    }

    #[test]
    fn fig7_remaining_rows() {
        let (w1, x2, y5) = (Clearance::C, Clearance::S, Clearance::T);
        // (a,e): w1²·x2 = S
        assert_eq!(w1.times(&w1).times(&x2), Clearance::S);
        // (d,c): w1·x2·y5 + w1²·x2 = min(T, S) = S
        assert_eq!(
            w1.times(&x2).times(&y5).plus(&w1.times(&w1).times(&x2)),
            Clearance::S
        );
        // (d,e): w1²·x2² = S
        assert_eq!(w1.pow(2).times(&x2.pow(2)), Clearance::S);
        // (f,c): w1·y5 = T
        assert_eq!(w1.times(&y5), Clearance::T);
        // (f,e): w1² = C
        assert_eq!(w1.pow(2), Clearance::C);
    }

    #[test]
    fn visibility() {
        assert!(Clearance::P.visible_at(ClearanceLevel::Public));
        assert!(Clearance::C.visible_at(ClearanceLevel::Secret));
        assert!(!Clearance::T.visible_at(ClearanceLevel::Secret));
        // Never is invisible even to top-secret principals.
        assert!(!Clearance::NEVER.visible_at(ClearanceLevel::TopSecret));
    }

    #[test]
    fn parse_and_display() {
        for (s, c) in [
            ("P", Clearance::P),
            ("C", Clearance::C),
            ("S", Clearance::S),
            ("T", Clearance::T),
            ("0", Clearance::NEVER),
        ] {
            assert_eq!(s.parse::<Clearance>().unwrap(), c);
            assert_eq!(c.to_string(), s);
        }
        assert!("X".parse::<Clearance>().is_err());
    }

    #[test]
    fn natural_order_is_opposite_of_clearance_order() {
        // Footnote 7: the semiring's natural order (a ≤ b iff a+x=b for
        // some x) is the opposite of the clearance order. a + b = min,
        // so P absorbs everything: P + T = P.
        assert_eq!(Clearance::P.plus(&Clearance::T), Clearance::P);
    }

    #[test]
    fn generic_minmax_over_u8_levels() {
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        struct Level(u8);
        impl TotalOrderBounds for Level {
            const MIN: Self = Level(0);
            const MAX: Self = Level(u8::MAX);
        }
        let a = MinMax(Level(3));
        let b = MinMax(Level(7));
        let c = MinMax(Level(1));
        check_laws(&a, &b, &c);
        assert_eq!(a.plus(&b), a);
        assert_eq!(a.times(&b), b);
    }
}
