//! The provenance hierarchy between ℕ\[X\] and Why(X): `Trio(X)` (bags of
//! witness sets) and `𝔹[X]` (polynomials with Boolean coefficients).
//!
//! Together with [`crate::NatPoly`], [`crate::Why`], [`crate::PosBool`]
//! and [`crate::Lineage`], these form the classical hierarchy of
//! provenance semirings, ordered by the surjective homomorphisms
//! implemented in [`collapse`]:
//!
//! ```text
//!            ℕ\[X\]
//!           /    \
//!      𝔹\[X\]      Trio(X)
//!           \    /
//!           Why(X)
//!          /      \
//!   PosBool(X)   Lineage(X)
//!          \      /
//!             𝔹
//! ```
//!
//! (PosBool and Lineage are *incomparable* quotients of Why: absorption
//! in PosBool discards witnesses whose tokens Lineage must keep, so
//! there is no homomorphism PosBool → Lineage — a fact our tests pin.)
//!
//! Every collapse commutes with query evaluation (Theorem 1), so a
//! single ℕ\[X\] run yields all coarser provenance notions for free.

use crate::nat::Nat;
use crate::poly::{Monomial, NatPoly};
use crate::semiring::Semiring;
use crate::var::Var;
use crate::why::write_token_set;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

type Witness = BTreeSet<Var>;

/// The Trio semiring `Trio(X)`: *bags* of witness sets — like
/// [`crate::Why`] but remembering how many derivations produce each
/// witness (drops exponents from ℕ\[X\], keeps coefficients).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Trio {
    bags: BTreeMap<Witness, Nat>,
}

impl Trio {
    /// A single token with multiplicity 1.
    pub fn var(v: Var) -> Self {
        let mut bags = BTreeMap::new();
        bags.insert(BTreeSet::from([v]), Nat::ONE);
        Trio { bags }
    }

    /// Iterate `(witness, multiplicity)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Witness, Nat)> + '_ {
        self.bags.iter().map(|(w, &n)| (w, n))
    }

    fn insert(bags: &mut BTreeMap<Witness, Nat>, w: Witness, n: Nat) {
        if n.is_zero() {
            return;
        }
        use std::collections::btree_map::Entry;
        match bags.entry(w) {
            Entry::Vacant(e) => {
                e.insert(n);
            }
            Entry::Occupied(mut e) => {
                let m = e.get().plus(&n);
                *e.get_mut() = m;
            }
        }
    }
}

impl Semiring for Trio {
    fn zero() -> Self {
        Trio::default()
    }

    fn one() -> Self {
        let mut bags = BTreeMap::new();
        bags.insert(Witness::new(), Nat::ONE);
        Trio { bags }
    }

    fn plus(&self, other: &Self) -> Self {
        let mut bags = self.bags.clone();
        for (w, &n) in &other.bags {
            Trio::insert(&mut bags, w.clone(), n);
        }
        Trio { bags }
    }

    fn times(&self, other: &Self) -> Self {
        let mut bags = BTreeMap::new();
        for (wa, &na) in &self.bags {
            for (wb, &nb) in &other.bags {
                let w: Witness = wa.union(wb).copied().collect();
                Trio::insert(&mut bags, w, na.times(&nb));
            }
        }
        Trio { bags }
    }

    fn is_zero(&self) -> bool {
        self.bags.is_empty()
    }

    fn is_one(&self) -> bool {
        self.bags.len() == 1
            && self
                .bags
                .first_key_value()
                .is_some_and(|(w, n)| w.is_empty() && n.is_one())
    }
}

impl fmt::Debug for Trio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")?;
        Ok(())
    }
}

impl fmt::Display for Trio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bags.is_empty() {
            return f.write_str("0");
        }
        for (i, (w, n)) in self.bags.iter().enumerate() {
            if i > 0 {
                f.write_str(" + ")?;
            }
            if !n.is_one() {
                fmt::Display::fmt(n, f)?;
                f.write_str("·")?;
            }
            write_token_set(f, w)?;
        }
        Ok(())
    }
}

/// The semiring `𝔹[X]` of polynomials with Boolean coefficients: sets of
/// monomials (drops coefficients from ℕ\[X\], keeps exponents).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BoolPoly {
    monomials: BTreeSet<Monomial>,
}

impl BoolPoly {
    /// A single variable.
    pub fn var(v: Var) -> Self {
        let mut monomials = BTreeSet::new();
        monomials.insert(Monomial::var(v));
        BoolPoly { monomials }
    }

    /// Iterate the monomials.
    pub fn iter(&self) -> impl Iterator<Item = &Monomial> + '_ {
        self.monomials.iter()
    }

    /// Number of monomials.
    pub fn num_terms(&self) -> usize {
        self.monomials.len()
    }
}

impl Semiring for BoolPoly {
    fn zero() -> Self {
        BoolPoly::default()
    }

    fn one() -> Self {
        let mut monomials = BTreeSet::new();
        monomials.insert(Monomial::unit());
        BoolPoly { monomials }
    }

    fn plus(&self, other: &Self) -> Self {
        BoolPoly {
            monomials: self.monomials.union(&other.monomials).cloned().collect(),
        }
    }

    fn times(&self, other: &Self) -> Self {
        let mut monomials = BTreeSet::new();
        for a in &self.monomials {
            for b in &other.monomials {
                monomials.insert(a.times(b));
            }
        }
        BoolPoly { monomials }
    }

    fn is_zero(&self) -> bool {
        self.monomials.is_empty()
    }

    fn is_one(&self) -> bool {
        self.monomials.len() == 1 && self.monomials.first().is_some_and(Monomial::is_unit)
    }
}

impl fmt::Debug for BoolPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for BoolPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.monomials.is_empty() {
            return f.write_str("0");
        }
        for (i, m) in self.monomials.iter().enumerate() {
            if i > 0 {
                f.write_str(" + ")?;
            }
            fmt::Display::fmt(m, f)?;
        }
        Ok(())
    }
}

/// The surjective homomorphisms ("collapses") of the provenance
/// hierarchy. Each is a [`crate::SemiringHom`] via [`crate::FnHom`];
/// the `theorems` integration tests verify the homomorphism laws and
/// the commutation with query evaluation for every collapse.
pub mod collapse {
    use super::*;
    use crate::posbool::PosBool;
    use crate::why::{Lineage, Why};

    /// ℕ\[X\] → 𝔹\[X\]: drop coefficients.
    pub fn natpoly_to_boolpoly(p: &NatPoly) -> BoolPoly {
        BoolPoly {
            monomials: p.iter().map(|(m, _)| m.clone()).collect(),
        }
    }

    /// ℕ\[X\] → Trio(X): drop exponents (merging monomials with the same
    /// variable set, adding coefficients).
    pub fn natpoly_to_trio(p: &NatPoly) -> Trio {
        let mut bags = BTreeMap::new();
        for (m, c) in p.iter() {
            Trio::insert(&mut bags, m.support_set(), c);
        }
        Trio { bags }
    }

    /// 𝔹\[X\] → Why(X): drop exponents.
    pub fn boolpoly_to_why(p: &BoolPoly) -> Why {
        Why::from_witnesses(p.iter().map(|m| m.support_set()))
    }

    /// Trio(X) → Why(X): drop coefficients.
    pub fn trio_to_why(t: &Trio) -> Why {
        Why::from_witnesses(t.iter().map(|(w, _)| w.iter().copied()))
    }

    /// ℕ\[X\] → Why(X): drop both (the diamond commutes; tested).
    pub fn natpoly_to_why(p: &NatPoly) -> Why {
        Why::from_witnesses(p.iter().map(|(m, _)| m.support_set()))
    }

    /// Why(X) → PosBool(X): absorb non-minimal witnesses.
    pub fn why_to_posbool(w: &Why) -> PosBool {
        PosBool::from_clauses(w.witnesses().map(|c| c.iter().copied()))
    }

    /// ℕ\[X\] → PosBool(X): the composite used by §5's incomplete-data
    /// representation ("the obvious homomorphism").
    pub fn natpoly_to_posbool(p: &NatPoly) -> PosBool {
        PosBool::from_clauses(p.iter().map(|(m, _)| m.support_set()))
    }

    /// Why(X) → Lineage(X): union all witnesses (⊥ for the empty set).
    ///
    /// Note this factors through *Why*, not PosBool: PosBool's
    /// absorption (`true + x = true`) discards the token `x` that
    /// Lineage must retain, so no homomorphism PosBool → Lineage
    /// exists (see the module-level hierarchy diagram).
    pub fn why_to_lineage(w: &Why) -> Lineage {
        if w.is_zero() {
            return Lineage::bottom();
        }
        Lineage::from_tokens(w.witnesses().flatten().copied())
    }

    /// ℕ\[X\] → Lineage(X): the composite through Why.
    pub fn natpoly_to_lineage(p: &NatPoly) -> Lineage {
        why_to_lineage(&natpoly_to_why(p))
    }
}

#[cfg(test)]
mod tests {
    use super::collapse::*;
    use super::*;
    use crate::hom::{assert_hom_laws, FnHom};
    use crate::semiring::laws::check_laws;
    use crate::var::vars;

    fn poly_samples() -> Vec<NatPoly> {
        let [x, y] = vars(["tr_x", "tr_y"]);
        let (px, py) = (NatPoly::var(x), NatPoly::var(y));
        vec![
            NatPoly::zero(),
            NatPoly::one(),
            px.clone(),
            px.plus(&py),
            px.times(&px).plus(&NatPoly::constant(2u32).times(&py)),
            px.times(&py),
        ]
    }

    #[test]
    fn trio_is_a_semiring() {
        let samples: Vec<Trio> = poly_samples().iter().map(natpoly_to_trio).collect();
        for a in &samples {
            for b in &samples {
                for c in &samples {
                    check_laws(a, b, c);
                }
            }
        }
    }

    #[test]
    fn boolpoly_is_a_semiring() {
        let samples: Vec<BoolPoly> = poly_samples().iter().map(natpoly_to_boolpoly).collect();
        for a in &samples {
            for b in &samples {
                for c in &samples {
                    check_laws(a, b, c);
                }
            }
        }
    }

    #[test]
    fn all_collapses_are_homomorphisms() {
        let polys = poly_samples();
        assert_hom_laws(&FnHom::new(natpoly_to_boolpoly), &polys);
        assert_hom_laws(&FnHom::new(natpoly_to_trio), &polys);
        assert_hom_laws(&FnHom::new(natpoly_to_why), &polys);
        assert_hom_laws(&FnHom::new(natpoly_to_posbool), &polys);
        let bps: Vec<BoolPoly> = polys.iter().map(natpoly_to_boolpoly).collect();
        assert_hom_laws(&FnHom::new(boolpoly_to_why), &bps);
        let trios: Vec<Trio> = polys.iter().map(natpoly_to_trio).collect();
        assert_hom_laws(&FnHom::new(trio_to_why), &trios);
        let whys: Vec<crate::Why> = polys.iter().map(natpoly_to_why).collect();
        assert_hom_laws(&FnHom::new(why_to_posbool), &whys);
        assert_hom_laws(&FnHom::new(why_to_lineage), &whys);
        assert_hom_laws(&FnHom::new(natpoly_to_lineage), &polys);
    }

    #[test]
    fn posbool_to_lineage_is_not_a_homomorphism() {
        // Pin the counterexample: in PosBool, true + x = true
        // (absorption), so any additive map to Lineage would need
        // h(true) = h(true) + h(x), i.e. {} = {x}. Contradiction.
        use crate::posbool::PosBool;
        use crate::why::Lineage;
        let x = PosBool::var_named("nl_x");
        let lhs = PosBool::tt().plus(&x); // = true by absorption
        assert_eq!(lhs, PosBool::tt());
        // Whereas through Why the witness {x} survives:
        let wx = crate::Why::var(crate::Var::new("nl_x"));
        let w = crate::Why::one().plus(&wx);
        assert_eq!(
            why_to_lineage(&w),
            Lineage::from_tokens([crate::Var::new("nl_x")])
        );
    }

    #[test]
    fn hierarchy_diamond_commutes() {
        for p in poly_samples() {
            let via_boolpoly = boolpoly_to_why(&natpoly_to_boolpoly(&p));
            let via_trio = trio_to_why(&natpoly_to_trio(&p));
            let direct = natpoly_to_why(&p);
            assert_eq!(via_boolpoly, direct, "𝔹[X] route for {p}");
            assert_eq!(via_trio, direct, "Trio route for {p}");
        }
    }

    #[test]
    fn trio_distinguishes_multiplicity_why_does_not() {
        // 2x vs x: distinct in Trio, identical in Why.
        let [x] = vars(["tm_x"]);
        let two_x: NatPoly = NatPoly::var(x).plus(&NatPoly::var(x));
        let one_x = NatPoly::var(x);
        assert_ne!(natpoly_to_trio(&two_x), natpoly_to_trio(&one_x));
        assert_eq!(natpoly_to_why(&two_x), natpoly_to_why(&one_x));
    }

    #[test]
    fn boolpoly_distinguishes_exponent_trio_does_not() {
        // x² vs x: distinct in 𝔹[X], identical in Trio.
        let [x] = vars(["te_x"]);
        let x2 = NatPoly::var(x).times(&NatPoly::var(x));
        let x1 = NatPoly::var(x);
        assert_ne!(natpoly_to_boolpoly(&x2), natpoly_to_boolpoly(&x1));
        assert_eq!(natpoly_to_trio(&x2), natpoly_to_trio(&x1));
    }

    #[test]
    fn display_forms() {
        let [x, y] = vars(["td_x", "td_y"]);
        let p: NatPoly = "2*td_x + td_x*td_y".parse().unwrap();
        assert_eq!(natpoly_to_trio(&p).to_string(), "2·{td_x} + {td_x,td_y}");
        assert_eq!(natpoly_to_boolpoly(&p).to_string(), "td_x + td_x*td_y");
        let _ = (x, y);
    }
}
