//! Provenance polynomials: the universal semiring ℕ\[X\] (§2, §3).
//!
//! `ℕ[X]` is the semiring of multivariate polynomials with natural-number
//! coefficients over indeterminates X (the "provenance tokens"). It is
//! *universal* among commutative semirings: any valuation `X → K`
//! extends uniquely to a homomorphism `ℕ[X] → K` ([`NatPoly::eval`]).
//! Combined with the commutation-with-homomorphisms theorem this makes
//! ℕ\[X\] "a good representation for implementations": compute provenance
//! once, specialize to any semiring later.

use crate::hom::Valuation;
use crate::nat::Nat;
use crate::semiring::Semiring;
use crate::var::Var;
use std::collections::BTreeMap;
use std::fmt;

/// A monomial: a finite multiset of variables, e.g. `x1²·y3`.
///
/// Represented canonically as a **flat sorted vector** of
/// `(variable, exponent)` pairs with strictly positive exponents: the
/// dominant operation, [`Monomial::times`], is a two-pointer merge of
/// two sorted runs of `Copy` pairs — no per-node allocation, no tree
/// rebalancing, cache-friendly comparisons. The empty monomial is the
/// constant `1`. Ordering is lexicographic over the pairs, which
/// coincides with the ordering of the previous `BTreeMap`-based
/// representation, so printed term order is unchanged.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Monomial {
    exps: Vec<(Var, u32)>,
}

impl Monomial {
    /// The empty monomial (the constant term's key).
    pub fn unit() -> Self {
        Monomial::default()
    }

    /// The monomial consisting of a single variable.
    pub fn var(v: Var) -> Self {
        Monomial { exps: vec![(v, 1)] }
    }

    /// Build from `(variable, exponent)` pairs; zero exponents are
    /// dropped, duplicate variables have their exponents summed.
    pub fn from_pairs<I: IntoIterator<Item = (Var, u32)>>(pairs: I) -> Self {
        let mut exps: Vec<(Var, u32)> = pairs.into_iter().filter(|&(_, e)| e > 0).collect();
        exps.sort_unstable_by_key(|&(v, _)| v);
        exps.dedup_by(|later, earlier| {
            if earlier.0 == later.0 {
                earlier.1 += later.1;
                true
            } else {
                false
            }
        });
        Monomial { exps }
    }

    /// Multiply two monomials (add exponents): a sorted two-run merge.
    pub fn times(&self, other: &Monomial) -> Monomial {
        if self.exps.is_empty() {
            return other.clone();
        }
        if other.exps.is_empty() {
            return self.clone();
        }
        let (a, b) = (&self.exps, &other.exps);
        let mut exps = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    exps.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    exps.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    exps.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        exps.extend_from_slice(&a[i..]);
        exps.extend_from_slice(&b[j..]);
        Monomial { exps }
    }

    /// Is this the empty monomial (constant 1)?
    pub fn is_unit(&self) -> bool {
        self.exps.is_empty()
    }

    /// Total degree (sum of exponents).
    pub fn degree(&self) -> u32 {
        self.exps.iter().map(|&(_, e)| e).sum()
    }

    /// Iterate `(variable, exponent)` pairs in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, u32)> + '_ {
        self.exps.iter().copied()
    }

    /// The set of variables occurring in this monomial.
    pub fn variables(&self) -> impl Iterator<Item = Var> + '_ {
        self.exps.iter().map(|&(v, _)| v)
    }

    /// Evaluate under a valuation into any semiring.
    pub fn eval<K: Semiring>(&self, val: &Valuation<K>) -> K {
        K::product(self.iter().map(|(v, e)| val.get(v).pow(e)))
    }

    /// Drop exponents: the *set* of variables (used by the ℕ\[X\] → Trio /
    /// Why collapses of the provenance hierarchy).
    pub fn support_set(&self) -> std::collections::BTreeSet<Var> {
        self.variables().collect()
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.exps.is_empty() {
            return f.write_str("1");
        }
        for (i, (v, e)) in self.exps.iter().enumerate() {
            if i > 0 {
                f.write_str("*")?;
            }
            fmt::Display::fmt(v, f)?;
            if *e != 1 {
                f.write_str("^")?;
                fmt::Display::fmt(e, f)?;
            }
        }
        Ok(())
    }
}

/// A provenance polynomial in ℕ\[X\]: a canonical (sorted) map from
/// monomials to nonzero natural coefficients.
///
/// ```
/// use axml_semiring::{NatPoly, Semiring, Var};
/// let x1 = NatPoly::var(Var::new("x1"));
/// let x4 = NatPoly::var(Var::new("x4"));
/// // The Fig. 5 annotation of tuple (a,c): x1² + x1·x4
/// let ann = x1.times(&x1).plus(&x1.times(&x4));
/// assert_eq!(ann.to_string(), "x1^2 + x1*x4");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NatPoly {
    /// Sorted by monomial, all coefficients nonzero. A flat vector:
    /// `plus` is a two-run merge, `times` accumulates all cross
    /// products into one capacity-preallocated vector and canonicalizes
    /// with a single sort-and-coalesce pass.
    terms: Vec<(Monomial, Nat)>,
}

impl NatPoly {
    /// The zero polynomial.
    pub fn zero_poly() -> Self {
        NatPoly::default()
    }

    /// A constant polynomial.
    pub fn constant(n: impl Into<Nat>) -> Self {
        let n = n.into();
        NatPoly {
            terms: if n.is_zero() {
                Vec::new()
            } else {
                vec![(Monomial::unit(), n)]
            },
        }
    }

    /// The polynomial consisting of a single variable.
    pub fn var(v: Var) -> Self {
        NatPoly {
            terms: vec![(Monomial::var(v), Nat::ONE)],
        }
    }

    /// The polynomial consisting of a single variable, interned by name.
    pub fn var_named(name: &str) -> Self {
        NatPoly::var(Var::new(name))
    }

    /// A single monomial term with coefficient.
    pub fn term(m: Monomial, coeff: impl Into<Nat>) -> Self {
        let c = coeff.into();
        NatPoly {
            terms: if c.is_zero() {
                Vec::new()
            } else {
                vec![(m, c)]
            },
        }
    }

    /// Number of monomials with nonzero coefficient.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Is this polynomial identically zero?
    pub fn is_zero_poly(&self) -> bool {
        self.terms.is_empty()
    }

    /// Maximum total degree over all monomials (0 for constants/zero).
    pub fn degree(&self) -> u32 {
        self.terms
            .iter()
            .map(|(m, _)| m.degree())
            .max()
            .unwrap_or(0)
    }

    /// A size measure for Prop 2's `O(|v|^|p|)` bound: the total number
    /// of symbols — for each term, its coefficient plus each
    /// variable-with-exponent counts 1.
    pub fn size(&self) -> usize {
        self.terms.iter().map(|(m, _)| 1 + m.iter().count()).sum()
    }

    /// Iterate `(monomial, coefficient)` pairs in monomial order.
    pub fn iter(&self) -> impl Iterator<Item = (&Monomial, Nat)> + '_ {
        self.terms.iter().map(|(m, c)| (m, *c))
    }

    /// All variables occurring in the polynomial, in order.
    pub fn variables(&self) -> std::collections::BTreeSet<Var> {
        self.terms.iter().flat_map(|(m, _)| m.variables()).collect()
    }

    /// Evaluate under a valuation `X → K`: the unique homomorphism
    /// extension `ℕ[X] → K` (universality, §2/§5). Variables missing
    /// from the valuation default to `K::one()` — the paper's convention
    /// for "setting the other indeterminates to 1" (§3).
    pub fn eval<K: Semiring>(&self, val: &Valuation<K>) -> K {
        K::sum(self.iter().map(|(m, c)| {
            // coefficient n maps to 1 + 1 + ... + 1 (n times) in K
            let coeff = nat_to_semiring::<K>(c);
            coeff.times(&m.eval(val))
        }))
    }

    /// Substitute polynomials for variables (endo-homomorphism
    /// `ℕ[X] → ℕ[X]`); missing variables are left untouched.
    pub fn substitute(&self, subst: &BTreeMap<Var, NatPoly>) -> NatPoly {
        let mut acc = NatPoly::zero_poly();
        for (m, c) in self.iter() {
            let mut t = NatPoly::constant(c);
            for (v, e) in m.iter() {
                let base = subst.get(&v).cloned().unwrap_or_else(|| NatPoly::var(v));
                t = t.times(&base.pow(e));
            }
            // consuming add: merges by moving monomials, no clones
            acc = acc.add(t);
        }
        acc
    }

    /// Canonicalize a vector of `(monomial, coefficient)` products:
    /// sort, coalesce equal monomials, drop zero coefficients.
    fn canonicalize(mut terms: Vec<(Monomial, Nat)>) -> Vec<(Monomial, Nat)> {
        terms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        terms.dedup_by(|later, earlier| {
            if earlier.0 == later.0 {
                earlier.1 = earlier.1.plus(&later.1);
                true
            } else {
                false
            }
        });
        terms.retain(|(_, c)| !c.is_zero());
        terms
    }
}

/// Merge two canonical term vectors (consuming both, moving monomials).
fn merge_terms(a: Vec<(Monomial, Nat)>, b: Vec<(Monomial, Nat)>) -> Vec<(Monomial, Nat)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut ia = a.into_iter().peekable();
    let mut ib = b.into_iter().peekable();
    loop {
        match (ia.peek(), ib.peek()) {
            (Some(ta), Some(tb)) => match ta.0.cmp(&tb.0) {
                std::cmp::Ordering::Less => {
                    out.push(ia.next().expect("peeked"));
                }
                std::cmp::Ordering::Greater => {
                    out.push(ib.next().expect("peeked"));
                }
                std::cmp::Ordering::Equal => {
                    let (m, ca) = ia.next().expect("peeked");
                    let (_, cb) = ib.next().expect("peeked");
                    let c = ca.plus(&cb);
                    if !c.is_zero() {
                        out.push((m, c));
                    }
                }
            },
            (Some(_), None) => {
                out.extend(ia);
                return out;
            }
            (None, Some(_)) => {
                out.extend(ib);
                return out;
            }
            (None, None) => return out,
        }
    }
}

/// Embed a natural number into any semiring as `1 + 1 + ... + 1`.
///
/// This is the canonical (unique) homomorphism ℕ → K. Uses binary
/// expansion (`n = Σ bᵢ·2ⁱ` with repeated doubling) so it is `O(log n)`
/// semiring operations rather than `O(n)`.
pub fn nat_to_semiring<K: Semiring>(n: Nat) -> K {
    let mut n = n.value();
    if n == 0 {
        return K::zero();
    }
    let one = K::one();
    let mut power = one.clone(); // 2^i in K
    let mut acc = K::zero();
    loop {
        if n & 1 == 1 {
            acc = acc.plus(&power);
        }
        n >>= 1;
        if n == 0 {
            return acc;
        }
        power = power.plus(&power);
    }
}

impl Semiring for NatPoly {
    fn zero() -> Self {
        NatPoly::zero_poly()
    }

    fn one() -> Self {
        NatPoly::constant(Nat::ONE)
    }

    fn plus(&self, other: &Self) -> Self {
        if self.terms.is_empty() {
            return other.clone();
        }
        if other.terms.is_empty() {
            return self.clone();
        }
        NatPoly {
            terms: merge_terms(self.terms.clone(), other.terms.clone()),
        }
    }

    fn times(&self, other: &Self) -> Self {
        if self.terms.is_empty() || other.terms.is_empty() {
            return NatPoly::zero_poly();
        }
        if self.is_one() {
            return other.clone();
        }
        if other.is_one() {
            return self.clone();
        }
        let (n, m) = (self.terms.len(), other.terms.len());
        // Bulk path: materialize all n·m cross products and
        // canonicalize with one sort-and-coalesce pass — fastest for
        // the polynomial sizes queries actually produce. Above the
        // threshold, accumulate row by row instead so peak memory is
        // bounded by the output size, not n·m.
        if n.saturating_mul(m) <= 1 << 16 {
            let mut products = Vec::with_capacity(n * m);
            for (ma, ca) in &self.terms {
                for (mb, cb) in &other.terms {
                    products.push((ma.times(mb), ca.times(cb)));
                }
            }
            NatPoly {
                terms: NatPoly::canonicalize(products),
            }
        } else {
            let mut acc: Vec<(Monomial, Nat)> = Vec::new();
            for (ma, ca) in &self.terms {
                let row: Vec<(Monomial, Nat)> = other
                    .terms
                    .iter()
                    .map(|(mb, cb)| (ma.times(mb), ca.times(cb)))
                    .collect();
                acc = merge_terms(acc, NatPoly::canonicalize(row));
            }
            NatPoly { terms: acc }
        }
    }

    fn add(self, other: Self) -> Self {
        if self.terms.is_empty() {
            return other;
        }
        if other.terms.is_empty() {
            return self;
        }
        NatPoly {
            terms: merge_terms(self.terms, other.terms),
        }
    }

    /// All terms concatenated and canonicalized once: `O(t log t)` in
    /// the total term count `t`, where a left fold of two-run merges
    /// re-copies the growing accumulator at every step.
    fn sum<I: IntoIterator<Item = Self>>(iter: I) -> Self {
        let mut terms = Vec::new();
        for p in iter {
            if terms.is_empty() {
                terms = p.terms;
            } else {
                terms.extend(p.terms);
            }
        }
        NatPoly {
            terms: NatPoly::canonicalize(terms),
        }
    }

    fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    fn is_one(&self) -> bool {
        self.terms.len() == 1 && self.terms[0].0.is_unit() && self.terms[0].1.is_one()
    }
}

impl From<Var> for NatPoly {
    fn from(v: Var) -> Self {
        NatPoly::var(v)
    }
}

impl From<u64> for NatPoly {
    fn from(n: u64) -> Self {
        NatPoly::constant(Nat::from(n))
    }
}

impl fmt::Debug for NatPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for NatPoly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return f.write_str("0");
        }
        // Print in descending monomial order so constants come last,
        // matching the paper's style (e.g. "x1^2 + x1*x4", "2*w1 + 3").
        for (i, (m, c)) in self.terms.iter().rev().enumerate() {
            if i > 0 {
                f.write_str(" + ")?;
            }
            if m.is_unit() {
                fmt::Display::fmt(c, f)?;
            } else {
                if !c.is_one() {
                    fmt::Display::fmt(c, f)?;
                    f.write_str("*")?;
                }
                fmt::Display::fmt(m, f)?;
            }
        }
        Ok(())
    }
}

/// Parse a polynomial from text, e.g. `"z*x1*y1 + z*x2*y2"`, `"x1^2 +
/// 3"`, `"2*w1^2*x1"`. Grammar: `poly := term ('+' term)*`, `term :=
/// factor ('*' factor)*`, `factor := NUMBER | IDENT ('^' NUMBER)? |
/// '(' poly ')'`. Identifiers start with a letter or `_` and may contain
/// alphanumerics, `_`, `.`.
impl std::str::FromStr for NatPoly {
    type Err = PolyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut p = PolyParser {
            chars: s.char_indices().peekable(),
            src: s,
            depth: 0,
        };
        let poly = p.parse_poly()?;
        p.skip_ws();
        if let Some(&(i, c)) = p.chars.peek() {
            return Err(PolyParseError {
                msg: format!("unexpected character {c:?}"),
                offset: i,
            });
        }
        Ok(poly)
    }
}

/// Error from parsing a polynomial annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyParseError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for PolyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "polynomial parse error at byte {}: {}",
            self.offset, self.msg
        )
    }
}

impl std::error::Error for PolyParseError {}

struct PolyParser<'a> {
    chars: std::iter::Peekable<std::str::CharIndices<'a>>,
    src: &'a str,
    depth: usize,
}

/// Maximum parenthesis nesting. Annotations come from user input
/// (document and query text), so `((((…` must yield a parse error,
/// not a stack overflow.
const MAX_PAREN_DEPTH: usize = 256;

impl<'a> PolyParser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(&(_, c)) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn parse_poly(&mut self) -> Result<NatPoly, PolyParseError> {
        let mut acc = self.parse_term()?;
        loop {
            self.skip_ws();
            if matches!(self.chars.peek(), Some(&(_, '+'))) {
                self.chars.next();
                let t = self.parse_term()?;
                acc = acc.plus(&t);
            } else {
                return Ok(acc);
            }
        }
    }

    fn parse_term(&mut self) -> Result<NatPoly, PolyParseError> {
        let mut acc = self.parse_factor()?;
        loop {
            self.skip_ws();
            match self.chars.peek() {
                Some(&(_, '*')) => {
                    self.chars.next();
                    let f = self.parse_factor()?;
                    acc = acc.times(&f);
                }
                // Juxtaposition also multiplies ("x1 y2" is x1*y2,
                // "2(x+1)" is 2*(x+1)) — convenient for figure input.
                Some(&(_, c)) if c.is_alphabetic() || c == '_' || c == '(' => {
                    let f = self.parse_factor()?;
                    acc = acc.times(&f);
                }
                _ => return Ok(acc),
            }
        }
    }

    fn parse_factor(&mut self) -> Result<NatPoly, PolyParseError> {
        self.skip_ws();
        match self.chars.peek().copied() {
            Some((i, '(')) => {
                self.chars.next();
                self.depth += 1;
                if self.depth > MAX_PAREN_DEPTH {
                    return Err(PolyParseError {
                        msg: format!("parenthesis nesting exceeds {MAX_PAREN_DEPTH} levels"),
                        offset: i,
                    });
                }
                let inner = self.parse_poly()?;
                self.depth -= 1;
                self.skip_ws();
                match self.chars.next() {
                    Some((_, ')')) => Ok(inner),
                    other => Err(PolyParseError {
                        msg: "expected ')'".into(),
                        offset: other.map_or(self.src.len(), |(i, _)| i),
                    }),
                }
            }
            Some((start, c)) if c.is_ascii_digit() => {
                let n = self.lex_number(start)?;
                Ok(NatPoly::constant(Nat(n)))
            }
            Some((start, c)) if c.is_alphabetic() || c == '_' => {
                let name = self.lex_ident(start);
                let v = Var::new(name);
                self.skip_ws();
                if matches!(self.chars.peek(), Some(&(_, '^'))) {
                    self.chars.next();
                    self.skip_ws();
                    let (ei, ec) = self.chars.peek().copied().ok_or(PolyParseError {
                        msg: "expected exponent".into(),
                        offset: self.src.len(),
                    })?;
                    if !ec.is_ascii_digit() {
                        return Err(PolyParseError {
                            msg: "expected numeric exponent".into(),
                            offset: ei,
                        });
                    }
                    let e: u32 = self
                        .lex_number(ei)?
                        .try_into()
                        .map_err(|_| PolyParseError {
                            msg: "exponent too large".into(),
                            offset: ei,
                        })?;
                    Ok(NatPoly::term(Monomial::from_pairs([(v, e)]), Nat::ONE))
                } else {
                    Ok(NatPoly::var(v))
                }
            }
            Some((i, c)) => Err(PolyParseError {
                msg: format!("unexpected character {c:?}"),
                offset: i,
            }),
            None => Err(PolyParseError {
                msg: "unexpected end of input".into(),
                offset: self.src.len(),
            }),
        }
    }

    fn lex_number(&mut self, start: usize) -> Result<u128, PolyParseError> {
        let mut end = start;
        while let Some(&(i, c)) = self.chars.peek() {
            if c.is_ascii_digit() {
                end = i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        self.src[start..end].parse().map_err(|_| PolyParseError {
            msg: "number too large".into(),
            offset: start,
        })
    }

    fn lex_ident(&mut self, start: usize) -> &'a str {
        let mut end = start;
        while let Some(&(i, c)) = self.chars.peek() {
            if c.is_alphanumeric() || c == '_' || c == '.' {
                end = i + c.len_utf8();
                self.chars.next();
            } else {
                break;
            }
        }
        &self.src[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::laws::check_laws;
    use crate::var::vars;

    fn p(s: &str) -> NatPoly {
        s.parse().expect("polynomial should parse")
    }

    #[test]
    fn paren_bomb_errors_instead_of_overflowing() {
        let bomb = format!("{}x{}", "(".repeat(100_000), ")".repeat(100_000));
        let e = bomb.parse::<NatPoly>().unwrap_err();
        assert!(e.msg.contains("nesting"), "{e}");
        // a reasonable depth still parses
        let ok = format!("{}x{}", "(".repeat(50), ")".repeat(50));
        assert_eq!(ok.parse::<NatPoly>().unwrap(), NatPoly::var(Var::new("x")));
    }

    #[test]
    fn oversized_exponents_are_errors() {
        assert!("x^4294967296".parse::<NatPoly>().is_err());
        assert!("x^99999999999999999999999999999"
            .parse::<NatPoly>()
            .is_err());
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in [
            "0",
            "1",
            "42",
            "x1",
            "x1^2",
            "x1^2 + x1*x4",
            "2*w1^2*x1 + 3",
            "z*x1*y1 + z*x2*y2",
        ] {
            let poly = p(s);
            assert_eq!(p(&poly.to_string()), poly, "roundtrip of {s}");
        }
    }

    #[test]
    fn parse_juxtaposition_and_parens() {
        assert_eq!(p("x1 y2"), p("x1*y2"));
        assert_eq!(p("(x1 + y2) * z"), p("x1*z + y2*z"));
        assert_eq!(p("2(x1 + 1)").to_string(), p("2*x1 + 2").to_string());
    }

    #[test]
    fn parse_errors() {
        assert!("".parse::<NatPoly>().is_err());
        assert!("x1 +".parse::<NatPoly>().is_err());
        assert!("(x1".parse::<NatPoly>().is_err());
        assert!("x1^".parse::<NatPoly>().is_err());
        assert!("@".parse::<NatPoly>().is_err());
    }

    #[test]
    fn semiring_laws_on_samples() {
        let samples = [
            p("0"),
            p("1"),
            p("x1"),
            p("x1 + y1"),
            p("2*x1^2 + y1*z1"),
            p("3"),
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
    fn times_row_merge_path_matches_bulk() {
        // 260×260 = 67 600 cross products crosses the 2^16 bulk-path
        // threshold, exercising the memory-bounded row-merge branch;
        // each half-product below stays on the bulk branch, so the two
        // paths are checked against each other.
        let var_sum = |prefix: &str, lo: usize, hi: usize| {
            let mut acc = NatPoly::zero_poly();
            for i in lo..hi {
                acc = acc.add(NatPoly::var_named(&format!("{prefix}{i}")));
            }
            acc
        };
        let a = var_sum("trm_a", 0, 260);
        let b = var_sum("trm_b", 0, 260);
        let big = a.times(&b);
        let halves = var_sum("trm_a", 0, 130)
            .times(&b)
            .plus(&var_sum("trm_a", 130, 260).times(&b));
        assert_eq!(big, halves);
        assert_eq!(big.num_terms(), 260 * 260);
    }

    #[test]
    fn canonical_forms_merge() {
        // x + x = 2x, and zero coefficients vanish
        let x = NatPoly::var_named("cf_x");
        let two_x = x.plus(&x);
        assert_eq!(two_x.num_terms(), 1);
        assert_eq!(two_x.to_string(), "2*cf_x");
        let zero = NatPoly::zero_poly().times(&x);
        assert!(zero.is_zero_poly());
        assert_eq!(NatPoly::constant(0u32).num_terms(), 0);
    }

    #[test]
    fn fig5_tuple_ac_annotation() {
        // Fig 5: annotation of (a,c) in Q is x1² + x1·x4.
        let [x1, x4] = vars(["x1", "x4"]);
        let (px1, px4) = (NatPoly::var(x1), NatPoly::var(x4));
        let ann = px1.times(&px1).plus(&px1.times(&px4));
        assert_eq!(ann, p("x1^2 + x1*x4"));
        assert_eq!(ann.degree(), 2);
        assert_eq!(ann.num_terms(), 2);
    }

    #[test]
    fn eval_universality_into_nat() {
        // p = 2·x² + x·y evaluated at x=3, y=5 is 18 + 15 = 33.
        let [x, y] = vars(["ev_x", "ev_y"]);
        let poly = p("2*ev_x^2 + ev_x*ev_y");
        let val = Valuation::<Nat>::from_pairs([(x, Nat(3)), (y, Nat(5))]);
        assert_eq!(poly.eval(&val), Nat(33));
    }

    #[test]
    fn eval_missing_vars_default_to_one() {
        // Setting "the other indeterminates to 1" (§3).
        let poly = p("dm_x*dm_y + dm_x");
        let val = Valuation::<Nat>::from_pairs([(Var::new("dm_x"), Nat(2))]);
        // 2·1 + 2 = 4
        assert_eq!(poly.eval(&val), Nat(4));
    }

    #[test]
    fn eval_into_bool_is_dup_elim_composed() {
        let poly = p("eb_x + eb_y");
        let val =
            Valuation::<bool>::from_pairs([(Var::new("eb_x"), false), (Var::new("eb_y"), false)]);
        assert!(!poly.eval(&val));
        let val2 =
            Valuation::<bool>::from_pairs([(Var::new("eb_x"), true), (Var::new("eb_y"), false)]);
        assert!(poly.eval(&val2));
    }

    #[test]
    fn nat_embedding_binary() {
        assert_eq!(nat_to_semiring::<Nat>(Nat(0)), Nat(0));
        assert_eq!(nat_to_semiring::<Nat>(Nat(1)), Nat(1));
        assert_eq!(nat_to_semiring::<Nat>(Nat(13)), Nat(13));
        assert!(!nat_to_semiring::<bool>(Nat(0)));
        assert!(nat_to_semiring::<bool>(Nat(7)));
    }

    #[test]
    fn substitution_is_homomorphic() {
        let [x, y] = vars(["sub_x", "sub_y"]);
        let a = p("sub_x + 1");
        let b = p("sub_y^2");
        let mut subst = BTreeMap::new();
        subst.insert(x, p("sub_y + 1"));
        // (x+1)·y² under x := y+1  ==  (y+2)·y²
        let lhs = a.times(&b).substitute(&subst);
        let rhs = a.substitute(&subst).times(&b.substitute(&subst));
        assert_eq!(lhs, rhs);
        assert_eq!(lhs, p("sub_y^3 + 2*sub_y^2"));
        let _ = y;
    }

    #[test]
    fn size_measure() {
        assert_eq!(p("0").size(), 0);
        assert_eq!(p("5").size(), 1);
        // x1² + x1·x4: term1 = coeff + x1 → 2; term2 = coeff + x1 + x4 → 3
        assert_eq!(p("x1^2 + x1*x4").size(), 5);
    }

    #[test]
    fn display_matches_paper_style() {
        assert_eq!(
            p("w1 * x1 * x4 * y2 * y5 * z1 * z6").to_string(),
            "w1*x1*x4*y2*y5*z1*z6"
        );
        assert_eq!(p("w1^2 x1^2 y2^2 z1^2").to_string(), "w1^2*x1^2*y2^2*z1^2");
    }
}
