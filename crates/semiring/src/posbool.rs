//! Positive Boolean expressions `PosBool(B)` (§5).
//!
//! The semiring `(PosBool(B), ∨, ∧, false, true)` of positive boolean
//! expressions over a set `B` of variables, *identifying expressions
//! which yield the same truth value for all Boolean assignments* (the
//! paper's footnote 8). `PosBool(B)`-UXML is the XML analogue of the
//! Boolean c-tables of Imieliński–Lipski and is a strong representation
//! system for UXQuery on ordinary (B-)UXML.
//!
//! # Canonical form
//!
//! Positive (monotone) boolean functions are in bijection with
//! *antichains* of variable sets: the irredundant monotone DNF, i.e. the
//! set of minimal satisfying assignments. We store exactly that:
//! a `BTreeSet` of clauses (each a `BTreeSet<Var>`) such that no clause
//! is a subset of another. This makes semantic equivalence coincide with
//! structural equality, as the `Semiring` contract requires:
//! `x ∨ (x ∧ y) = x` holds by construction (absorption).

use crate::semiring::Semiring;
use crate::var::Var;
use std::collections::BTreeSet;
use std::fmt;

type Clause = BTreeSet<Var>;

/// A positive boolean expression in canonical irredundant DNF.
///
/// `false` is the empty set of clauses; `true` is the single empty
/// clause. `∨` is union followed by minimization; `∧` is pairwise
/// clause union followed by minimization.
///
/// ```
/// use axml_semiring::{PosBool, Semiring, Var};
/// let x = PosBool::var(Var::new("pb_doc_x"));
/// let y = PosBool::var(Var::new("pb_doc_y"));
/// // absorption: x ∨ (x ∧ y) = x
/// assert_eq!(x.plus(&x.times(&y)), x);
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PosBool {
    clauses: BTreeSet<Clause>,
}

impl PosBool {
    /// The constant `false` (semiring 0).
    pub fn ff() -> Self {
        PosBool::default()
    }

    /// The constant `true` (semiring 1).
    pub fn tt() -> Self {
        let mut clauses = BTreeSet::new();
        clauses.insert(Clause::new());
        PosBool { clauses }
    }

    /// A single variable.
    pub fn var(v: Var) -> Self {
        let mut clause = Clause::new();
        clause.insert(v);
        let mut clauses = BTreeSet::new();
        clauses.insert(clause);
        PosBool { clauses }
    }

    /// A single variable, interned by name.
    pub fn var_named(name: &str) -> Self {
        PosBool::var(Var::new(name))
    }

    /// Build from an iterator of clauses (conjunctions of variables);
    /// the result is minimized.
    pub fn from_clauses<I, C>(clauses: I) -> Self
    where
        I: IntoIterator<Item = C>,
        C: IntoIterator<Item = Var>,
    {
        let raw: BTreeSet<Clause> = clauses
            .into_iter()
            .map(|c| c.into_iter().collect())
            .collect();
        PosBool {
            clauses: minimize(raw),
        }
    }

    /// Number of clauses in the canonical DNF.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Iterate the canonical clauses (minimal witnesses).
    pub fn clauses(&self) -> impl Iterator<Item = &Clause> + '_ {
        self.clauses.iter()
    }

    /// All variables mentioned.
    pub fn variables(&self) -> BTreeSet<Var> {
        self.clauses.iter().flatten().copied().collect()
    }

    /// Evaluate under a Boolean assignment: true iff some clause has all
    /// its variables true. (Total assignment given as the set of true
    /// variables — monotone functions need nothing more.)
    pub fn eval_assignment(&self, true_vars: &BTreeSet<Var>) -> bool {
        self.clauses.iter().any(|c| c.is_subset(true_vars))
    }
}

/// A 64-bit literal fingerprint: bit `v.id() mod 64` set for every
/// variable in the clause. `d ⊆ c` implies
/// `fp(d) & !fp(c) == 0`, so a single mask test rejects most
/// non-subset pairs in O(1) before the O(|d|) `is_subset` walk.
fn fingerprint(c: &Clause) -> u64 {
    c.iter().fold(0u64, |m, v| m | 1u64 << (v.id() & 63))
}

/// Keep only ⊆-minimal clauses (the antichain / irredundant DNF).
///
/// Clauses are processed in ascending size: a strict subset is always
/// strictly smaller (the input is deduplicated), so each clause only
/// needs checking against the already-kept smaller clauses — and the
/// fingerprint mask short-circuits the pairs that cannot be subsets.
fn minimize(raw: BTreeSet<Clause>) -> BTreeSet<Clause> {
    if raw.len() <= 1 {
        return raw;
    }
    let mut items: Vec<(u64, Clause)> = raw.into_iter().map(|c| (fingerprint(&c), c)).collect();
    items.sort_by_key(|(_, c)| c.len());
    let mut keep: Vec<(u64, Clause)> = Vec::with_capacity(items.len());
    'next: for (fp, c) in items {
        for (kfp, k) in &keep {
            // k ⊆ c needs every k-bit inside fp; since |k| ≤ |c| and
            // equal clauses were deduplicated, subset ⇒ |k| < |c|.
            if kfp & !fp == 0 && k.len() < c.len() && k.is_subset(&c) {
                continue 'next;
            }
        }
        keep.push((fp, c));
    }
    keep.into_iter().map(|(_, c)| c).collect()
}

impl Semiring for PosBool {
    fn zero() -> Self {
        PosBool::ff()
    }

    fn one() -> Self {
        PosBool::tt()
    }

    /// Disjunction, minimized.
    fn plus(&self, other: &Self) -> Self {
        if self.clauses.is_empty() {
            return other.clone();
        }
        if other.clauses.is_empty() {
            return self.clone();
        }
        let union: BTreeSet<Clause> = self.clauses.union(&other.clauses).cloned().collect();
        PosBool {
            clauses: minimize(union),
        }
    }

    /// Conjunction: pairwise clause union, minimized.
    fn times(&self, other: &Self) -> Self {
        if self.clauses.is_empty() || other.clauses.is_empty() {
            return PosBool::ff();
        }
        let mut product = BTreeSet::new();
        for a in &self.clauses {
            for b in &other.clauses {
                product.insert(a.union(b).copied().collect::<Clause>());
            }
        }
        PosBool {
            clauses: minimize(product),
        }
    }

    fn is_zero(&self) -> bool {
        self.clauses.is_empty()
    }

    fn is_one(&self) -> bool {
        self.clauses.len() == 1 && self.clauses.iter().next().is_some_and(|c| c.is_empty())
    }
}

impl fmt::Debug for PosBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for PosBool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.clauses.is_empty() {
            return f.write_str("false");
        }
        if self.is_one() {
            return f.write_str("true");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            for (j, v) in c.iter().enumerate() {
                if j > 0 {
                    f.write_str("&")?;
                }
                fmt::Display::fmt(v, f)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::laws::{check_laws, check_plus_idempotent};
    use crate::var::vars;

    fn samples() -> Vec<PosBool> {
        let [x, y, z] = vars(["pbs_x", "pbs_y", "pbs_z"]);
        let (px, py, pz) = (PosBool::var(x), PosBool::var(y), PosBool::var(z));
        vec![
            PosBool::ff(),
            PosBool::tt(),
            px.clone(),
            py.clone(),
            px.plus(&py),
            px.times(&py).plus(&pz),
            px.times(&py.plus(&pz)),
        ]
    }

    #[test]
    fn posbool_is_a_semiring() {
        let s = samples();
        for a in &s {
            for b in &s {
                for c in &s {
                    check_laws(a, b, c);
                }
            }
        }
    }

    #[test]
    fn plus_and_times_idempotent() {
        for a in samples() {
            check_plus_idempotent(&a);
            assert_eq!(a.times(&a), a, "∧ idempotent");
        }
    }

    #[test]
    fn absorption_is_structural() {
        let [x, y] = vars(["abs_x", "abs_y"]);
        let (px, py) = (PosBool::var(x), PosBool::var(y));
        // x ∨ (x∧y) = x
        assert_eq!(px.plus(&px.times(&py)), px);
        // (x∨y) ∧ x = x
        assert_eq!(px.plus(&py).times(&px), px);
    }

    #[test]
    fn canonical_equality_of_distributed_forms() {
        let [x, y, z] = vars(["cde_x", "cde_y", "cde_z"]);
        let (px, py, pz) = (PosBool::var(x), PosBool::var(y), PosBool::var(z));
        // x∧(y∨z) == (x∧y)∨(x∧z) structurally
        assert_eq!(px.times(&py.plus(&pz)), px.times(&py).plus(&px.times(&pz)));
    }

    #[test]
    fn semantic_equality_exhaustive() {
        // Canonical form identifies expressions agreeing on all
        // assignments: check against brute-force truth tables.
        let [x, y] = vars(["se_x", "se_y"]);
        let (px, py) = (PosBool::var(x), PosBool::var(y));
        let e1 = px.plus(&py).times(&px.plus(&py)); // (x∨y)∧(x∨y)
        let e2 = px.plus(&py);
        assert_eq!(e1, e2);
        for bits in 0..4u8 {
            let mut tv = BTreeSet::new();
            if bits & 1 != 0 {
                tv.insert(x);
            }
            if bits & 2 != 0 {
                tv.insert(y);
            }
            assert_eq!(e1.eval_assignment(&tv), e2.eval_assignment(&tv));
        }
    }

    #[test]
    fn eval_assignment_basics() {
        let [x, y] = vars(["ea_x", "ea_y"]);
        let f = PosBool::var(x).times(&PosBool::var(y));
        let mut tv = BTreeSet::new();
        assert!(!f.eval_assignment(&tv));
        tv.insert(x);
        assert!(!f.eval_assignment(&tv));
        tv.insert(y);
        assert!(f.eval_assignment(&tv));
        assert!(PosBool::tt().eval_assignment(&BTreeSet::new()));
        assert!(!PosBool::ff().eval_assignment(&tv));
    }

    #[test]
    fn display() {
        let [x, y] = vars(["d_x", "d_y"]);
        assert_eq!(PosBool::ff().to_string(), "false");
        assert_eq!(PosBool::tt().to_string(), "true");
        assert_eq!(PosBool::var(x).to_string(), "d_x");
        assert_eq!(
            PosBool::var(x).times(&PosBool::var(y)).to_string(),
            "d_x&d_y"
        );
        assert_eq!(
            PosBool::var(x).plus(&PosBool::var(y)).to_string(),
            "d_x | d_y"
        );
    }

    #[test]
    fn minimize_agrees_with_allpairs_reference_under_collisions() {
        // 130 variables guarantee fingerprint-bit collisions (64-bit
        // masks); randomized clause sets pin the pruned minimize to
        // the naive all-pairs reference, including the empty clause
        // (`true`), which must absorb everything.
        let vs: Vec<Var> = (0..130).map(|i| Var::new(&format!("mmz_{i}"))).collect();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 11
        };
        for _ in 0..100 {
            let mut raw: BTreeSet<Clause> = BTreeSet::new();
            for _ in 0..(1 + rnd() % 12) {
                let mut c = Clause::new();
                for _ in 0..(rnd() % 5) {
                    c.insert(vs[(rnd() % 130) as usize]);
                }
                raw.insert(c);
            }
            let slow: BTreeSet<Clause> = raw
                .iter()
                .filter(|c| !raw.iter().any(|d| d != *c && d.is_subset(c)))
                .cloned()
                .collect();
            let fast = minimize(raw);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn from_clauses_minimizes() {
        let [x, y] = vars(["fc_x", "fc_y"]);
        let f = PosBool::from_clauses([vec![x], vec![x, y]]);
        assert_eq!(f, PosBool::var(x));
        assert_eq!(f.num_clauses(), 1);
    }

    #[test]
    fn variables_collects() {
        let [x, y, z] = vars(["vc_x", "vc_y", "vc_z"]);
        let f = PosBool::from_clauses([vec![x, y], vec![z]]);
        assert_eq!(f.variables(), BTreeSet::from([x, y, z]));
    }
}
