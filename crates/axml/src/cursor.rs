//! [`EvalCursor`]: pull-based streaming consumption of a query result.
//!
//! [`crate::PreparedQuery::eval_stream`] returns one of these instead
//! of a materialized [`AxmlResult`]. The cursor is a plain
//! [`Iterator`] over [`StreamItem`]s — the top-level
//! `(tree, annotation)` pieces of a set-shaped result in document
//! order, or a single scalar item — produced by a detached evaluation
//! thread running [`crate::PreparedQuery::eval_each`]'s push path and
//! handed over a **bounded** channel ([`STREAM_BUFFER_PIECES`] pieces
//! of slack). Backpressure is therefore real: a consumer that stops
//! pulling stops the producer within one buffer's worth of pieces, and
//! a consumer that *drops* the cursor closes the channel, which the
//! producer observes as [`axml_uxml::SinkClosed`] at its next emission
//! and unwinds cleanly.
//!
//! A consumer on a thread of its own choosing that wants no hand-off
//! at all — the HTTP server — calls `eval_each` directly instead.
//!
//! The streamed pieces are **identical** — same trees, same
//! annotations, same order — to the pieces of the materialized
//! result ([`crate::AxmlResult::pieces`]); only the latency profile
//! differs. Routes and modes that cannot produce pieces incrementally
//! (the shredded and differential routes, `ProvenanceFirst`
//! specialization) materialize first and then cursor over the result,
//! so every combination supports the same consumption API.

use crate::error::AxmlError;
use crate::options::SemiringKind;
use crate::result::{AxmlResult, ResultPiece};
use axml_semiring::{Nat, NatPoly, PosBool, Prob, Semiring, Trio, Tropical, Why};
use axml_uxml::{Forest, Tree, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// How many pieces the streaming channel buffers between the producer
/// thread and the consuming [`EvalCursor`]. Small enough that a stalled
/// consumer stalls the producer promptly (bounding memory held in
/// flight), large enough to absorb bursty production.
pub const STREAM_BUFFER_PIECES: usize = 32;

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

enum Source {
    /// A live producer thread feeding the bounded channel.
    Live(Receiver<Result<StreamItem, AxmlError>>),
    /// A result that was materialized up front, cursored for API
    /// uniformity.
    Ready(std::vec::IntoIter<StreamItem>),
}

/// A pull iterator over the pieces of one evaluation's result. See the
/// module docs for the production model, and
/// [`crate::PreparedQuery::eval_stream`] for how to obtain one.
///
/// Yields `Result` items: evaluation errors (including tripped
/// [`crate::EvalOptions::memory_budget`]s and deadlines, as
/// [`AxmlError::Budget`]) arrive in-band as the final item. After an
/// error the cursor is exhausted — an error is never followed by more
/// pieces, so a consumer can treat the stream as
/// pieces-then-maybe-error.
pub struct EvalCursor {
    source: Source,
    /// Pieces emitted by the producer so far (monotone; for a `Ready`
    /// cursor, the total count up front). Lets tests pin *laziness* —
    /// pull one piece, assert the producer has not run ahead of the
    /// channel slack — without timing assumptions.
    produced: Arc<AtomicUsize>,
    kind: SemiringKind,
    failed: bool,
}

impl std::fmt::Debug for EvalCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalCursor")
            .field("kind", &self.kind)
            .field("produced", &self.produced_so_far())
            .field("live", &matches!(self.source, Source::Live(_)))
            .finish()
    }
}

impl EvalCursor {
    /// A cursor fed by a live producer thread.
    pub(crate) fn live(
        rx: Receiver<Result<StreamItem, AxmlError>>,
        produced: Arc<AtomicUsize>,
        kind: SemiringKind,
    ) -> Self {
        EvalCursor {
            source: Source::Live(rx),
            produced,
            kind,
            failed: false,
        }
    }

    /// A cursor over an already-materialized result (the fallback for
    /// routes/modes without incremental production).
    pub(crate) fn ready(out: AxmlResult) -> Self {
        let kind = out.kind();
        let items: Vec<StreamItem> = match out.pieces() {
            Some(pieces) => pieces
                .iter()
                .map(|p| StreamItem::Piece(p.to_piece()))
                .collect(),
            None => vec![StreamItem::Scalar(out)],
        };
        EvalCursor {
            produced: Arc::new(AtomicUsize::new(items.len())),
            source: Source::Ready(items.into_iter()),
            kind,
            failed: false,
        }
    }

    /// The semiring the streamed pieces are annotated in.
    pub fn kind(&self) -> SemiringKind {
        self.kind
    }

    /// How many pieces the producer has emitted so far — *pushed*, not
    /// pulled: at most [`STREAM_BUFFER_PIECES`] + 1 ahead of what the
    /// consumer has seen. Monotone; safe to poll while iterating.
    pub fn produced_so_far(&self) -> usize {
        self.produced.load(Ordering::Relaxed)
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
        if self.failed {
            return None;
        }
        match &mut self.source {
            Source::Live(rx) => match rx.recv() {
                Ok(Ok(item)) => Some(Ok(item)),
                Ok(Err(e)) => {
                    self.failed = true;
                    Some(Err(e))
                }
                // Channel closed: the producer finished (or was
                // already done when we dropped interest).
                Err(_) => None,
            },
            Source::Ready(items) => items.next().map(Ok),
        }
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
