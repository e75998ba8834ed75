//! [`EvalCursor`]: pull-based consumption of a query result.
//!
//! [`crate::PreparedQuery::eval_stream`] returns one of these instead
//! of a materialized [`AxmlResult`]. The cursor is a plain
//! [`Iterator`] over [`StreamItem`]s — the top-level
//! `(tree, annotation)` pieces of a set-shaped result in document
//! order, or a single scalar item — recorded from what
//! [`crate::PreparedQuery::eval_each`] pushes, on the calling thread
//! and the caller's pool. The evaluation has finished by the time the
//! cursor is returned: it is an adapter for callers that want to pull.
//! A consumer that wants each piece as soon as it is final — the HTTP
//! server, `axml query --stream` — calls `eval_each` directly.
//!
//! The recorded pieces are **identical** — same trees, same
//! annotations, same order — to the pieces of the materialized result
//! ([`crate::AxmlResult::pieces`]) on every route and mode.

use crate::error::AxmlError;
use crate::options::SemiringKind;
use crate::result::{AxmlResult, ResultPiece};
use axml_semiring::{Nat, NatPoly, PosBool, Prob, Semiring, Trio, Tropical, Why};
use axml_uxml::{Forest, Tree, Value};

/// One item pulled from an [`EvalCursor`].
#[derive(Clone, Debug, PartialEq)]
pub enum StreamItem {
    /// One top-level `(tree, annotation)` piece of a set-shaped
    /// result, in document order.
    Piece(ResultPiece),
    /// The whole result, when it is a scalar (a bare label or a single
    /// unannotated tree) that does not decompose into pieces. Always
    /// the only item of its cursor.
    Scalar(AxmlResult),
}

/// A pull iterator over the pieces of one evaluation's result. See the
/// module docs, and [`crate::PreparedQuery::eval_stream`] for how to
/// obtain one.
///
/// Yields `Result` items: an evaluation error (including a tripped
/// [`crate::EvalOptions::memory_budget`] or deadline, as
/// [`AxmlError::Budget`]) that stopped the evaluation after some pieces
/// is the last item, so a consumer can treat the stream as
/// pieces-then-maybe-error.
#[derive(Debug)]
pub struct EvalCursor {
    items: std::vec::IntoIter<Result<StreamItem, AxmlError>>,
    kind: SemiringKind,
}

impl EvalCursor {
    /// A cursor over the items one evaluation in `kind` recorded.
    pub(crate) fn new(items: Vec<Result<StreamItem, AxmlError>>, kind: SemiringKind) -> Self {
        EvalCursor {
            items: items.into_iter(),
            kind,
        }
    }

    /// The semiring the streamed pieces are annotated in.
    pub fn kind(&self) -> SemiringKind {
        self.kind
    }

    /// Drain the cursor into the materialized [`AxmlResult`] it is a
    /// stream of. Collecting a cursor and evaluating materialized
    /// produce equal results (differentially tested across semirings
    /// and routes); an in-band error is returned as `Err`, exactly as
    /// the materialized evaluation would have surfaced it.
    pub fn collect_result(mut self) -> Result<AxmlResult, AxmlError> {
        let mut pieces = Vec::new();
        for item in &mut self {
            match item? {
                StreamItem::Scalar(r) => return Ok(r),
                StreamItem::Piece(p) => pieces.push(p),
            }
        }
        Ok(rebuild(self.kind, pieces))
    }
}

impl Iterator for EvalCursor {
    type Item = Result<StreamItem, AxmlError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.items.next()
    }
}

/// Reassemble a set-shaped result from its streamed pieces. Pieces are
/// distinct and nonzero by construction (they came out of a K-set), so
/// insertion rebuilds the exact forest.
fn rebuild(kind: SemiringKind, pieces: Vec<ResultPiece>) -> AxmlResult {
    fn forest<K: Semiring>(
        pieces: Vec<ResultPiece>,
        get: fn(ResultPiece) -> (Tree<K>, K),
    ) -> Value<K> {
        let mut f = Forest::new();
        for p in pieces {
            let (t, k) = get(p);
            f.insert(t, k);
        }
        Value::Set(f)
    }
    macro_rules! arms {
        ($($variant:ident, $k:ty;)*) => {
            match kind {
                $(SemiringKind::$variant => AxmlResult::$variant(forest::<$k>(pieces, |p| {
                    match p {
                        ResultPiece::$variant(t, k) => (t, k),
                        other => unreachable!(
                            "cursor of kind {} yielded a {} piece",
                            SemiringKind::$variant,
                            other.kind()
                        ),
                    }
                }))),*
            }
        };
    }
    arms!(
        Nat, Nat;
        PosBool, PosBool;
        Tropical, Tropical;
        NatPoly, NatPoly;
        Why, Why;
        Trio, Trio;
        Prob, Prob;
    )
}
