//! Why-provenance and lineage semirings (§2's "lineage and
//! why-provenance ... correspond to different semirings", citing
//! Buneman–Cheney–Tan–Vansummeren).
//!
//! These are coarser members of the provenance hierarchy obtained from
//! ℕ\[X\] by surjective homomorphisms (see [`crate::hom`] and the
//! hierarchy collapses in [`crate::trio`]):
//!
//! ```text
//! ℕ\[X\] → 𝔹\[X\] → Why(X) → PosBool(X) → 𝔹
//!    ↘ Trio(X) ↗       ↘ Lineage(X) ↗
//! ```
//!
//! (PosBool and Lineage are incomparable quotients of Why; see
//! [`crate::trio::collapse`].)

use crate::semiring::Semiring;
use crate::var::Var;
use std::collections::BTreeSet;
use std::fmt;

type Witness = BTreeSet<Var>;

/// The why-provenance semiring `Why(X)`: sets of *witnesses* (each a set
/// of contributing tokens), a.k.a. witness bases.
///
/// `0 = {}`, `1 = {∅}`, `+` is union, `·` is pairwise union of
/// witnesses. Unlike [`crate::PosBool`], no absorption is performed —
/// `Why` distinguishes `{{x}}` from `{{x},{x,y}}`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Why {
    witnesses: BTreeSet<Witness>,
}

impl Why {
    /// A single-token witness `{{v}}`.
    pub fn var(v: Var) -> Self {
        let mut w = Witness::new();
        w.insert(v);
        let mut witnesses = BTreeSet::new();
        witnesses.insert(w);
        Why { witnesses }
    }

    /// Build from an iterator of witnesses.
    pub fn from_witnesses<I, W>(ws: I) -> Self
    where
        I: IntoIterator<Item = W>,
        W: IntoIterator<Item = Var>,
    {
        Why {
            witnesses: ws.into_iter().map(|w| w.into_iter().collect()).collect(),
        }
    }

    /// Iterate the witnesses.
    pub fn witnesses(&self) -> impl Iterator<Item = &Witness> + '_ {
        self.witnesses.iter()
    }

    /// Number of witnesses.
    pub fn num_witnesses(&self) -> usize {
        self.witnesses.len()
    }
}

impl Semiring for Why {
    fn zero() -> Self {
        Why::default()
    }

    fn one() -> Self {
        let mut witnesses = BTreeSet::new();
        witnesses.insert(Witness::new());
        Why { witnesses }
    }

    fn plus(&self, other: &Self) -> Self {
        Why {
            witnesses: self.witnesses.union(&other.witnesses).cloned().collect(),
        }
    }

    fn times(&self, other: &Self) -> Self {
        let mut witnesses = BTreeSet::new();
        for a in &self.witnesses {
            for b in &other.witnesses {
                witnesses.insert(a.union(b).copied().collect::<Witness>());
            }
        }
        Why { witnesses }
    }

    fn is_zero(&self) -> bool {
        self.witnesses.is_empty()
    }

    fn is_one(&self) -> bool {
        self.witnesses.len() == 1 && self.witnesses.first().is_some_and(BTreeSet::is_empty)
    }
}

impl fmt::Debug for Why {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Why {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, w) in self.witnesses.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write_token_set(f, w)?;
        }
        f.write_str("}")
    }
}

/// A token set as `{a,b,c}` — a witness of [`Why`] and [`crate::Trio`],
/// or a [`Lineage`].
pub(crate) fn write_token_set(f: &mut fmt::Formatter<'_>, s: &BTreeSet<Var>) -> fmt::Result {
    f.write_str("{")?;
    for (i, v) in s.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        fmt::Display::fmt(v, f)?;
    }
    f.write_str("}")
}

/// The lineage semiring `Lin(X)`: the set of all tokens that contributed
/// to an item, or ⊥ if the item is absent.
///
/// `0 = ⊥`, `1 = ∅`; `+` and `·` both take unions, except that `⊥` is
/// the identity for `+` and annihilates `·`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lineage {
    /// `None` is ⊥ ("not present"); `Some(s)` is the token set.
    tokens: Option<BTreeSet<Var>>,
}

impl Lineage {
    /// The bottom element ⊥ (absent).
    pub fn bottom() -> Self {
        Lineage { tokens: None }
    }

    /// A single token.
    pub fn var(v: Var) -> Self {
        Lineage {
            tokens: Some(BTreeSet::from([v])),
        }
    }

    /// Build from tokens.
    pub fn from_tokens<I: IntoIterator<Item = Var>>(tokens: I) -> Self {
        Lineage {
            tokens: Some(tokens.into_iter().collect()),
        }
    }

    /// The token set, or `None` for ⊥.
    pub fn tokens(&self) -> Option<&BTreeSet<Var>> {
        self.tokens.as_ref()
    }
}

impl Semiring for Lineage {
    fn zero() -> Self {
        Lineage::bottom()
    }

    fn one() -> Self {
        Lineage {
            tokens: Some(BTreeSet::new()),
        }
    }

    fn plus(&self, other: &Self) -> Self {
        match (&self.tokens, &other.tokens) {
            (None, _) => other.clone(),
            (_, None) => self.clone(),
            (Some(a), Some(b)) => Lineage {
                tokens: Some(a.union(b).copied().collect()),
            },
        }
    }

    fn times(&self, other: &Self) -> Self {
        match (&self.tokens, &other.tokens) {
            (None, _) | (_, None) => Lineage::bottom(),
            (Some(a), Some(b)) => Lineage {
                tokens: Some(a.union(b).copied().collect()),
            },
        }
    }

    fn is_zero(&self) -> bool {
        self.tokens.is_none()
    }

    fn is_one(&self) -> bool {
        self.tokens.as_ref().is_some_and(BTreeSet::is_empty)
    }
}

impl fmt::Debug for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Lineage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.tokens {
            None => f.write_str("⊥"),
            Some(s) => write_token_set(f, s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::laws::check_laws;
    use crate::var::vars;

    fn why_samples() -> Vec<Why> {
        let [x, y, z] = vars(["wy_x", "wy_y", "wy_z"]);
        vec![
            Why::zero(),
            Why::one(),
            Why::var(x),
            Why::var(x).plus(&Why::var(y)),
            Why::var(x).times(&Why::var(y)).plus(&Why::var(z)),
        ]
    }

    #[test]
    fn why_is_a_semiring() {
        let s = why_samples();
        for a in &s {
            for b in &s {
                for c in &s {
                    check_laws(a, b, c);
                }
            }
        }
    }

    #[test]
    fn why_keeps_non_minimal_witnesses() {
        // Why(X) is strictly finer than PosBool: {{x}} + {{x,y}} keeps
        // both witnesses (no absorption).
        let [x, y] = vars(["wk_x", "wk_y"]);
        let w = Why::var(x).plus(&Why::var(x).times(&Why::var(y)));
        assert_eq!(w.num_witnesses(), 2);
    }

    #[test]
    fn why_times_merges_pairwise() {
        let [x, y, z] = vars(["wt_x", "wt_y", "wt_z"]);
        let a = Why::var(x).plus(&Why::var(y));
        let b = Why::var(z);
        let prod = a.times(&b);
        assert_eq!(prod, Why::from_witnesses([vec![x, z], vec![y, z]]));
    }

    fn lineage_samples() -> Vec<Lineage> {
        let [x, y] = vars(["ln_x", "ln_y"]);
        vec![
            Lineage::zero(),
            Lineage::one(),
            Lineage::var(x),
            Lineage::var(x).plus(&Lineage::var(y)),
        ]
    }

    #[test]
    fn lineage_is_a_semiring() {
        let s = lineage_samples();
        for a in &s {
            for b in &s {
                for c in &s {
                    check_laws(a, b, c);
                }
            }
        }
    }

    #[test]
    fn lineage_flattens_alternatives() {
        // Lineage loses the alternative/joint distinction: x+y and x·y
        // both become {x,y}.
        let [x, y] = vars(["lf_x", "lf_y"]);
        let plus = Lineage::var(x).plus(&Lineage::var(y));
        let times = Lineage::var(x).times(&Lineage::var(y));
        assert_eq!(plus, times);
        assert_eq!(plus.tokens().unwrap().len(), 2);
    }

    #[test]
    fn lineage_bottom_behaviour() {
        let [x] = vars(["lb_x"]);
        let l = Lineage::var(x);
        assert_eq!(Lineage::bottom().plus(&l), l);
        assert_eq!(Lineage::bottom().times(&l), Lineage::bottom());
        assert!(Lineage::bottom().is_zero());
        assert!(!Lineage::one().is_zero());
    }

    #[test]
    fn display_forms() {
        let [x, y] = vars(["ds_x", "ds_y"]);
        assert_eq!(Why::zero().to_string(), "{}");
        assert_eq!(Why::one().to_string(), "{{}}");
        assert_eq!(Why::var(x).times(&Why::var(y)).to_string(), "{{ds_x,ds_y}}");
        assert_eq!(Lineage::bottom().to_string(), "⊥");
        assert_eq!(Lineage::one().to_string(), "{}");
        assert_eq!(Lineage::var(x).to_string(), "{ds_x}");
    }
}
