//! [`AxmlResult`]: one result type across the runtime-selected
//! semirings.
//!
//! The statically-typed layer returns `Value<K>` for a compile-time
//! `K`; the facade returns this enum, tagged by the [`SemiringKind`]
//! that was requested. Accessors give back the typed value so callers
//! that know their kind lose nothing.

use crate::json::Json;
use crate::options::SemiringKind;
use axml_semiring::{Nat, NatPoly, PosBool, Prob, Trio, Tropical, Why};
use axml_uxml::{Tree, Value};
use std::fmt;

/// A query result in the semiring selected at call time.
#[derive(Clone, Debug, PartialEq)]
pub enum AxmlResult {
    /// Result under bag semantics.
    Nat(Value<Nat>),
    /// Result with positive-boolean (c-table) annotations.
    PosBool(Value<PosBool>),
    /// Result with cheapest-derivation costs.
    Tropical(Value<Tropical>),
    /// Result with provenance polynomials (symbolic — can be
    /// specialized to any other kind afterwards).
    NatPoly(Value<NatPoly>),
    /// Result with why-provenance witness bases.
    Why(Value<Why>),
    /// Result with Trio-style lineage.
    Trio(Value<Trio>),
    /// Result with most-likely-derivation probabilities.
    Prob(Value<Prob>),
}

macro_rules! accessor {
    ($(#[$doc:meta])* $name:ident, $variant:ident, $k:ty) => {
        $(#[$doc])*
        pub fn $name(&self) -> Option<&Value<$k>> {
            match self {
                AxmlResult::$variant(v) => Some(v),
                _ => None,
            }
        }
    };
}

impl AxmlResult {
    /// Which semiring this result is annotated in.
    pub fn kind(&self) -> SemiringKind {
        match self {
            AxmlResult::Nat(_) => SemiringKind::Nat,
            AxmlResult::PosBool(_) => SemiringKind::PosBool,
            AxmlResult::Tropical(_) => SemiringKind::Tropical,
            AxmlResult::NatPoly(_) => SemiringKind::NatPoly,
            AxmlResult::Why(_) => SemiringKind::Why,
            AxmlResult::Trio(_) => SemiringKind::Trio,
            AxmlResult::Prob(_) => SemiringKind::Prob,
        }
    }

    accessor!(
        /// The ℕ-annotated value, if this is a `Nat` result.
        as_nat,
        Nat,
        Nat
    );
    accessor!(
        /// The PosBool-annotated value, if this is a `PosBool` result.
        as_posbool,
        PosBool,
        PosBool
    );
    accessor!(
        /// The cost-annotated value, if this is a `Tropical` result.
        as_tropical,
        Tropical,
        Tropical
    );
    accessor!(
        /// The symbolic (ℕ\[X\]) value, if this is a `NatPoly` result.
        as_natpoly,
        NatPoly,
        NatPoly
    );
    accessor!(
        /// The why-provenance value, if this is a `Why` result.
        as_why,
        Why,
        Why
    );
    accessor!(
        /// The lineage value, if this is a `Trio` result.
        as_trio,
        Trio,
        Trio
    );
    accessor!(
        /// The probability-annotated value, if this is a `Prob` result.
        as_prob,
        Prob,
        Prob
    );

    /// The top-level `(tree, annotation)` pieces of a set-shaped
    /// result, in document order, without matching the seven variants
    /// by hand. `None` when the result is a scalar (a bare label or a
    /// single tree) that does not decompose into pieces.
    ///
    /// These are exactly the pieces a push evaluation
    /// ([`crate::PreparedQuery::eval_each`]) hands its callback, in the
    /// same order; `crate::json` renders both from the same accessors,
    /// so streamed and one-shot output are byte-identical.
    pub fn pieces(&self) -> Option<Vec<ResultPieceRef<'_>>> {
        macro_rules! arms {
            ($($variant:ident),*) => {
                match self {
                    $(AxmlResult::$variant(v) => match v {
                        Value::Set(f) => Some(
                            f.iter_document()
                                .into_iter()
                                .map(|(t, k)| ResultPieceRef::$variant(t, k))
                                .collect(),
                        ),
                        _ => None,
                    }),*
                }
            };
        }
        arms!(Nat, PosBool, Tropical, NatPoly, Why, Trio, Prob)
    }
}

/// A borrowed top-level `(tree, annotation)` piece of a set-shaped
/// [`AxmlResult`], kind-tagged like the result itself. Produced by
/// [`AxmlResult::pieces`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ResultPieceRef<'a> {
    /// A piece of a `Nat` result.
    Nat(&'a Tree<Nat>, &'a Nat),
    /// A piece of a `PosBool` result.
    PosBool(&'a Tree<PosBool>, &'a PosBool),
    /// A piece of a `Tropical` result.
    Tropical(&'a Tree<Tropical>, &'a Tropical),
    /// A piece of a `NatPoly` result.
    NatPoly(&'a Tree<NatPoly>, &'a NatPoly),
    /// A piece of a `Why` result.
    Why(&'a Tree<Why>, &'a Why),
    /// A piece of a `Trio` result.
    Trio(&'a Tree<Trio>, &'a Trio),
    /// A piece of a `Prob` result.
    Prob(&'a Tree<Prob>, &'a Prob),
}

macro_rules! for_each_piece {
    ($self:expr, $t:ident, $k:ident => $e:expr) => {
        match $self {
            Self::Nat($t, $k) => $e,
            Self::PosBool($t, $k) => $e,
            Self::Tropical($t, $k) => $e,
            Self::NatPoly($t, $k) => $e,
            Self::Why($t, $k) => $e,
            Self::Trio($t, $k) => $e,
            Self::Prob($t, $k) => $e,
        }
    };
}

impl ResultPieceRef<'_> {
    /// Which semiring this piece is annotated in.
    pub fn kind(&self) -> SemiringKind {
        match self {
            Self::Nat(..) => SemiringKind::Nat,
            Self::PosBool(..) => SemiringKind::PosBool,
            Self::Tropical(..) => SemiringKind::Tropical,
            Self::NatPoly(..) => SemiringKind::NatPoly,
            Self::Why(..) => SemiringKind::Why,
            Self::Trio(..) => SemiringKind::Trio,
            Self::Prob(..) => SemiringKind::Prob,
        }
    }

    /// The piece's label name.
    pub fn label(&self) -> &str {
        for_each_piece!(self, t, _k => t.label().name())
    }

    /// The piece's annotation, rendered in the semiring's syntax.
    pub fn annotation(&self) -> String {
        for_each_piece!(self, _t, k => k.to_string())
    }

    /// Append this piece's canonical JSON rendering (the element shape
    /// of the `result` array in `--format json` output) to a builder.
    pub fn write_json(&self, j: &mut Json) {
        for_each_piece!(self, t, k => crate::json::tree_json(j, t, Some(k)))
    }

    /// This piece's canonical JSON rendering as a string.
    pub fn json(&self) -> String {
        let mut j = Json::new();
        self.write_json(&mut j);
        j.finish()
    }

    /// An owned copy of this piece, to keep past the callback that
    /// borrowed it (the cursor records pieces this way).
    // The macro instantiates over every semiring; the `Copy` ones
    // trip clone_on_copy even though the clone is required for the
    // non-`Copy` ones.
    #[allow(clippy::clone_on_copy)]
    pub fn to_piece(&self) -> ResultPiece {
        for_each_piece!(self, t, k => ((*t).clone(), (*k).clone()).into())
    }
}

/// An owned top-level `(tree, annotation)` piece, kind-tagged like
/// [`AxmlResult`] — what a [`crate::StreamItem::Piece`] holds.
#[derive(Clone, Debug, PartialEq)]
pub enum ResultPiece {
    /// A piece of a `Nat` result.
    Nat(Tree<Nat>, Nat),
    /// A piece of a `PosBool` result.
    PosBool(Tree<PosBool>, PosBool),
    /// A piece of a `Tropical` result.
    Tropical(Tree<Tropical>, Tropical),
    /// A piece of a `NatPoly` result.
    NatPoly(Tree<NatPoly>, NatPoly),
    /// A piece of a `Why` result.
    Why(Tree<Why>, Why),
    /// A piece of a `Trio` result.
    Trio(Tree<Trio>, Trio),
    /// A piece of a `Prob` result.
    Prob(Tree<Prob>, Prob),
}

macro_rules! piece_from {
    ($($variant:ident, $k:ty;)*) => {
        $(impl From<(Tree<$k>, $k)> for ResultPiece {
            fn from((t, k): (Tree<$k>, $k)) -> Self {
                ResultPiece::$variant(t, k)
            }
        })*
    };
}
piece_from!(
    Nat, Nat;
    PosBool, PosBool;
    Tropical, Tropical;
    NatPoly, NatPoly;
    Why, Why;
    Trio, Trio;
    Prob, Prob;
);

impl ResultPiece {
    /// Which semiring this piece is annotated in.
    pub fn kind(&self) -> SemiringKind {
        self.as_ref().kind()
    }

    /// A borrowed view of this piece (label/annotation/JSON accessors).
    pub fn as_ref(&self) -> ResultPieceRef<'_> {
        match self {
            ResultPiece::Nat(t, k) => ResultPieceRef::Nat(t, k),
            ResultPiece::PosBool(t, k) => ResultPieceRef::PosBool(t, k),
            ResultPiece::Tropical(t, k) => ResultPieceRef::Tropical(t, k),
            ResultPiece::NatPoly(t, k) => ResultPieceRef::NatPoly(t, k),
            ResultPiece::Why(t, k) => ResultPieceRef::Why(t, k),
            ResultPiece::Trio(t, k) => ResultPieceRef::Trio(t, k),
            ResultPiece::Prob(t, k) => ResultPieceRef::Prob(t, k),
        }
    }

    /// This piece's canonical JSON rendering (see
    /// [`ResultPieceRef::json`]).
    pub fn json(&self) -> String {
        self.as_ref().json()
    }
}

impl fmt::Display for AxmlResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxmlResult::Nat(v) => v.fmt(f),
            AxmlResult::PosBool(v) => v.fmt(f),
            AxmlResult::Tropical(v) => v.fmt(f),
            AxmlResult::NatPoly(v) => v.fmt(f),
            AxmlResult::Why(v) => v.fmt(f),
            AxmlResult::Trio(v) => v.fmt(f),
            AxmlResult::Prob(v) => v.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_uxml::Forest;

    #[test]
    fn kind_and_accessors_agree() {
        let r = AxmlResult::Nat(Value::Set(Forest::new()));
        assert_eq!(r.kind(), SemiringKind::Nat);
        assert!(r.as_nat().is_some());
        assert!(r.as_natpoly().is_none());
    }
}
