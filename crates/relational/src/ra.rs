//! The positive relational algebra RA⁺ over K-relations, with the
//! annotation semantics of Green–Karvounarakis–Tannen \[16\]:
//!
//! - **union** adds annotations;
//! - **projection** sums the annotations of tuples that collapse;
//! - **join / product** multiplies annotations;
//! - **selection** keeps the annotation or drops the tuple.
//!
//! This is the baseline semantics Prop 1 and Prop 4 compare against,
//! and the algebra in which Fig 5's `Q = π_AC(π_AB(R) ⋈ (π_BC(R) ∪ S))`
//! is evaluated.

use crate::krel::{KRelation, RelValue, Schema};
use axml_semiring::Semiring;
use std::collections::BTreeMap;
use std::fmt;

/// A positive relational-algebra expression over named relations.
#[derive(Clone, Debug)]
pub enum RaExpr {
    /// A base relation by name.
    Rel(String),
    /// `σ_{attr = value}`.
    SelectConst {
        /// Input expression.
        input: Box<RaExpr>,
        /// Attribute name.
        attr: String,
        /// Constant compared against.
        value: RelValue,
    },
    /// `σ_{a1 = a2}`.
    SelectEq {
        /// Input expression.
        input: Box<RaExpr>,
        /// First attribute.
        a1: String,
        /// Second attribute.
        a2: String,
    },
    /// `π_{attrs}`.
    Project {
        /// Input expression.
        input: Box<RaExpr>,
        /// Attributes to keep (in output order).
        attrs: Vec<String>,
    },
    /// Natural join `l ⋈ r` (on all common attributes; a cartesian
    /// product when none are shared).
    Join(Box<RaExpr>, Box<RaExpr>),
    /// `l ∪ r` (same schema).
    Union(Box<RaExpr>, Box<RaExpr>),
    /// `ρ_{from → to}`.
    Rename {
        /// Input expression.
        input: Box<RaExpr>,
        /// Attribute to rename.
        from: String,
        /// New name.
        to: String,
    },
}

impl RaExpr {
    /// Base relation.
    pub fn rel(name: &str) -> RaExpr {
        RaExpr::Rel(name.into())
    }

    /// `π_{attrs}(self)`.
    pub fn project<const N: usize>(self, attrs: [&str; N]) -> RaExpr {
        RaExpr::Project {
            input: Box::new(self),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Natural join.
    pub fn join(self, other: RaExpr) -> RaExpr {
        RaExpr::Join(Box::new(self), Box::new(other))
    }

    /// Union.
    pub fn union(self, other: RaExpr) -> RaExpr {
        RaExpr::Union(Box::new(self), Box::new(other))
    }

    /// `σ_{attr = label}`.
    pub fn select_label(self, attr: &str, label: &str) -> RaExpr {
        RaExpr::SelectConst {
            input: Box::new(self),
            attr: attr.into(),
            value: RelValue::label(label),
        }
    }

    /// `σ_{a1 = a2}`.
    pub fn select_eq(self, a1: &str, a2: &str) -> RaExpr {
        RaExpr::SelectEq {
            input: Box::new(self),
            a1: a1.into(),
            a2: a2.into(),
        }
    }

    /// `ρ_{from → to}`.
    pub fn rename(self, from: &str, to: &str) -> RaExpr {
        RaExpr::Rename {
            input: Box::new(self),
            from: from.into(),
            to: to.into(),
        }
    }
}

/// A database: named K-relations.
#[derive(Clone, Debug, Default)]
pub struct Database<K: Semiring> {
    relations: BTreeMap<String, KRelation<K>>,
}

impl<K: Semiring> Database<K> {
    /// Empty database.
    pub fn new() -> Self {
        Database {
            relations: BTreeMap::new(),
        }
    }

    /// Add (or replace) a relation.
    pub fn with(mut self, name: &str, rel: KRelation<K>) -> Self {
        self.relations.insert(name.into(), rel);
        self
    }

    /// Insert a relation.
    pub fn insert(&mut self, name: &str, rel: KRelation<K>) {
        self.relations.insert(name.into(), rel);
    }

    /// Look up a relation.
    pub fn get(&self, name: &str) -> Option<&KRelation<K>> {
        self.relations.get(name)
    }

    /// Iterate relations by name.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &KRelation<K>)> + '_ {
        self.relations.iter()
    }
}

/// An RA⁺ evaluation error (unknown relation / attribute, schema
/// mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaError {
    /// Description.
    pub msg: String,
}

impl fmt::Display for RaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RA+ error: {}", self.msg)
    }
}

impl std::error::Error for RaError {}

fn err<T>(msg: impl Into<String>) -> Result<T, RaError> {
    Err(RaError { msg: msg.into() })
}

/// Evaluate an RA⁺ expression over a database.
pub fn eval_ra<K: Semiring>(e: &RaExpr, db: &Database<K>) -> Result<KRelation<K>, RaError> {
    match e {
        RaExpr::Rel(name) => db.get(name).cloned().ok_or_else(|| RaError {
            msg: format!("unknown relation {name:?}"),
        }),
        RaExpr::SelectConst { input, attr, value } => {
            let r = eval_ra(input, db)?;
            let Some(i) = r.schema().index_of(attr) else {
                return err(format!("unknown attribute {attr:?} in selection"));
            };
            let mut out = KRelation::new(r.schema().clone());
            for (t, k) in r.iter() {
                if t[i] == *value {
                    out.insert(t.clone(), k.clone());
                }
            }
            Ok(out)
        }
        RaExpr::SelectEq { input, a1, a2 } => {
            let r = eval_ra(input, db)?;
            let (Some(i), Some(j)) = (r.schema().index_of(a1), r.schema().index_of(a2)) else {
                return err(format!("unknown attribute in σ_{{{a1}={a2}}}"));
            };
            let mut out = KRelation::new(r.schema().clone());
            for (t, k) in r.iter() {
                if t[i] == t[j] {
                    out.insert(t.clone(), k.clone());
                }
            }
            Ok(out)
        }
        RaExpr::Project { input, attrs } => {
            let r = eval_ra(input, db)?;
            let mut idxs = Vec::with_capacity(attrs.len());
            for a in attrs {
                match r.schema().index_of(a) {
                    Some(i) => idxs.push(i),
                    None => return err(format!("unknown attribute {a:?} in projection")),
                }
            }
            let mut out = KRelation::new(Schema::new(attrs.clone()));
            for (t, k) in r.iter() {
                out.insert(KRelation::<K>::project_tuple(t, &idxs), k.clone());
            }
            Ok(out)
        }
        RaExpr::Join(l, r) => {
            let rl = eval_ra(l, db)?;
            let rr = eval_ra(r, db)?;
            Ok(natural_join(&rl, &rr))
        }
        RaExpr::Union(l, r) => {
            let mut rl = eval_ra(l, db)?;
            let rr = eval_ra(r, db)?;
            if rl.schema() != rr.schema() {
                return err(format!(
                    "union of incompatible schemas {:?} and {:?}",
                    rl.schema().attrs(),
                    rr.schema().attrs()
                ));
            }
            rl.union_with(rr);
            Ok(rl)
        }
        RaExpr::Rename { input, from, to } => {
            let r = eval_ra(input, db)?;
            let Some(_) = r.schema().index_of(from) else {
                return err(format!("unknown attribute {from:?} in rename"));
            };
            let attrs: Vec<String> = r
                .schema()
                .attrs()
                .iter()
                .map(|a| if a == from { to.clone() } else { a.clone() })
                .collect();
            let mut out = KRelation::new(Schema::new(attrs));
            for (t, k) in r.iter() {
                out.insert(t.clone(), k.clone());
            }
            Ok(out)
        }
    }
}

/// Natural join with annotation product. Output schema: left attrs,
/// then right-only attrs.
pub fn natural_join<K: Semiring>(l: &KRelation<K>, r: &KRelation<K>) -> KRelation<K> {
    let common = l.schema().common(r.schema());
    let l_common: Vec<usize> = common
        .iter()
        .map(|a| l.schema().index_of(a).expect("common attr"))
        .collect();
    let r_common: Vec<usize> = common
        .iter()
        .map(|a| r.schema().index_of(a).expect("common attr"))
        .collect();
    let r_only: Vec<usize> = r
        .schema()
        .attrs()
        .iter()
        .enumerate()
        .filter(|(_, a)| !common.contains(a))
        .map(|(i, _)| i)
        .collect();

    let mut attrs: Vec<String> = l.schema().attrs().to_vec();
    for &i in &r_only {
        attrs.push(r.schema().attrs()[i].clone());
    }
    let mut out = KRelation::new(Schema::new(attrs));

    // Hash-index the right side on the common-attr key (shared with
    // the Datalog evaluator's join layer; nested scans would be fine
    // for figure-sized data, but the index keeps benches honest).
    let index = r.index_on(&r_common);
    for (tl, kl) in l.iter() {
        let key = KRelation::<K>::project_tuple(tl, &l_common);
        for (tr, kr) in index.probe(&key) {
            let mut tuple = tl.clone();
            for &i in &r_only {
                tuple.push(tr[i].clone());
            }
            out.insert(tuple, kl.times(kr));
        }
    }
    out
}

/// The Fig 5 query `Q = π_AC(π_AB(R) ⋈ (π_BC(R) ∪ S))` as an [`RaExpr`]
/// (exported for reuse in figures, benches and Prop-1 tests).
pub fn fig5_query() -> RaExpr {
    RaExpr::rel("R")
        .project(["A", "B"])
        .join(RaExpr::rel("R").project(["B", "C"]).union(RaExpr::rel("S")))
        .project(["A", "C"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_semiring::{Nat, NatPoly};

    fn np(s: &str) -> NatPoly {
        s.parse().unwrap()
    }

    /// The Fig 5 instance.
    pub(crate) fn fig5_db() -> Database<NatPoly> {
        let r = KRelation::from_label_rows(
            Schema::new(["A", "B", "C"]),
            [
                (vec!["a", "b", "c"], np("x1")),
                (vec!["d", "b", "e"], np("x2")),
                (vec!["f", "g", "e"], np("x3")),
            ],
        );
        let s = KRelation::from_label_rows(
            Schema::new(["B", "C"]),
            [(vec!["b", "c"], np("x4")), (vec!["g", "c"], np("x5"))],
        );
        Database::new().with("R", r).with("S", s)
    }

    #[test]
    fn fig5_annotations_match_paper() {
        let out = eval_ra(&fig5_query(), &fig5_db()).unwrap();
        assert_eq!(out.len(), 6);
        assert_eq!(out.get_labels(&["a", "c"]), np("x1^2 + x1*x4"));
        assert_eq!(out.get_labels(&["a", "e"]), np("x1*x2"));
        assert_eq!(out.get_labels(&["d", "c"]), np("x1*x2 + x2*x4"));
        assert_eq!(out.get_labels(&["d", "e"]), np("x2^2"));
        assert_eq!(out.get_labels(&["f", "c"]), np("x3*x5"));
        assert_eq!(out.get_labels(&["f", "e"]), np("x3^2"));
    }

    #[test]
    fn fig5_under_bag_semantics() {
        // Evaluate the polynomials at x1..x5 = 1 ⇔ run directly in ℕ.
        let db_nat = Database::new()
            .with(
                "R",
                KRelation::from_label_rows(
                    Schema::new(["A", "B", "C"]),
                    [
                        (vec!["a", "b", "c"], Nat(1)),
                        (vec!["d", "b", "e"], Nat(1)),
                        (vec!["f", "g", "e"], Nat(1)),
                    ],
                ),
            )
            .with(
                "S",
                KRelation::from_label_rows(
                    Schema::new(["B", "C"]),
                    [(vec!["b", "c"], Nat(1)), (vec!["g", "c"], Nat(1))],
                ),
            );
        let out = eval_ra(&fig5_query(), &db_nat).unwrap();
        assert_eq!(out.get_labels(&["a", "c"]), Nat(2)); // x1² + x1x4 at 1
        assert_eq!(out.get_labels(&["f", "e"]), Nat(1));
    }

    #[test]
    fn selection_variants() {
        let db = fig5_db();
        let by_const = eval_ra(&RaExpr::rel("R").select_label("B", "b"), &db).unwrap();
        assert_eq!(by_const.len(), 2);
        let eq = eval_ra(&RaExpr::rel("R").rename("A", "X").select_eq("X", "X"), &db).unwrap();
        assert_eq!(eq.len(), 3);
    }

    #[test]
    fn rename_changes_schema() {
        let db = fig5_db();
        let out = eval_ra(&RaExpr::rel("S").rename("B", "X"), &db).unwrap();
        assert_eq!(out.schema().attrs(), ["X", "C"]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn join_without_common_attrs_is_product() {
        let db = fig5_db();
        let prod = eval_ra(
            &RaExpr::rel("R")
                .project(["A"])
                .join(RaExpr::rel("S").project(["C"]).rename("C", "C2")),
            &db,
        )
        .unwrap();
        // 3 A-values × 1 distinct C-value (c+c collapses? no: S C values
        // are both c → the projection merges them: x4 + x5)
        assert_eq!(prod.len(), 3);
        assert_eq!(prod.get_labels(&["a", "c"]), np("x1*x4 + x1*x5"));
    }

    #[test]
    fn union_requires_same_schema() {
        let db = fig5_db();
        let e = RaExpr::rel("R").union(RaExpr::rel("S"));
        assert!(eval_ra(&e, &db).is_err());
    }

    #[test]
    fn unknown_names_error() {
        let db = fig5_db();
        assert!(eval_ra(&RaExpr::rel("Z"), &db).is_err());
        assert!(eval_ra(&RaExpr::rel("R").project(["Z"]), &db).is_err());
        assert!(eval_ra(&RaExpr::rel("R").select_label("Z", "a"), &db).is_err());
    }

    #[test]
    fn projection_merges_annotations() {
        let db = fig5_db();
        let out = eval_ra(&RaExpr::rel("S").project(["C"]), &db).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out.get_labels(&["c"]), np("x4 + x5"));
    }
}
