//! Incremental result production and per-evaluation memory budgets —
//! the vocabulary shared by every evaluator in the workspace.
//!
//! [`ResultSink`] is the push half of a streaming evaluation: an
//! evaluator that can prove a top-level `(tree, annotation)` piece is
//! *final* — no later step of the computation can change its
//! annotation, drop it, or produce a piece that sorts before it in
//! document order — hands it to the sink immediately instead of
//! accumulating the whole K-set. The compiled plans in `axml-core`
//! and `axml-nrc` stream the root shapes where finality is provable
//! (see their `eval_stream*` entry points) and fall back to
//! materialize-then-emit everywhere else, so a sink always observes
//! the same pieces in the same (document) order as the materialized
//! K-set — only the latency differs.
//!
//! [`NodeBudget`] is the accounting half: a shared monotone counter of
//! logical tree nodes produced by an evaluation. Evaluators charge it
//! at op boundaries (each set-producing plan op charges its output
//! size), at semi-naive fixpoint round boundaries (the round's delta),
//! and per streamed piece. Like a wall-clock deadline it bounds
//! scheduling unfairness, not individual instructions: one enormous op
//! still completes before the trip is observed at the next boundary.
//!
//! [`Exec`] bundles one call's execution state — the pool context, the
//! deadline and the budget — so every evaluation layer has a single
//! entry point taking `&Exec`; `Exec::default()` is the sequential,
//! unlimited path.

use crate::tree::{Tree, Value};
use axml_pool::ExecCtx;
use axml_semiring::Semiring;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The consumer of a streaming evaluation vanished (e.g. the cursor
/// was dropped after a `limit`). Not an error: the producer should
/// stop quietly and discard any remaining work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkClosed;

/// Receives top-level `(tree, annotation)` result pieces as an
/// evaluation produces them. Pieces arrive deduplicated, with final
/// annotations, in document order — exactly the pairs
/// `Forest::iter_document` would yield from the materialized result.
pub trait ResultSink<K: Semiring> {
    /// Accept one final piece. `Err(SinkClosed)` tells the evaluator
    /// the consumer is gone; it should abandon the evaluation.
    fn piece(&mut self, tree: &Tree<K>, ann: &K) -> Result<(), SinkClosed>;
}

/// A sink that rebuilds the forest — the identity consumer, used by
/// differential tests to check streamed ≡ materialized.
#[derive(Debug, Default)]
pub struct CollectSink<K: Semiring> {
    /// The pieces received so far, in arrival order.
    pub pieces: Vec<(Tree<K>, K)>,
}

impl<K: Semiring> ResultSink<K> for CollectSink<K> {
    fn piece(&mut self, tree: &Tree<K>, ann: &K) -> Result<(), SinkClosed> {
        self.pieces.push((tree.clone(), ann.clone()));
        Ok(())
    }
}

/// How a streaming evaluation concluded: either the top-level result
/// was a K-set and every piece went through the sink, or it was a
/// scalar (a bare label, or a single tree from a top-level element
/// constructor) that does not decompose into pieces.
#[derive(Debug, Clone, PartialEq)]
pub enum Streamed<K: Semiring> {
    /// The result was a set; the sink received every piece.
    Set,
    /// The result was not a set; here it is whole.
    Scalar(Value<K>),
}

/// Why a streaming evaluation stopped early: an evaluation error of
/// the evaluator's own type, or the consumer hanging up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError<E> {
    /// The evaluation itself failed.
    Eval(E),
    /// The sink reported [`SinkClosed`]; evaluation was abandoned.
    Closed,
}

impl<E> From<SinkClosed> for StreamError<E> {
    fn from(_: SinkClosed) -> Self {
        StreamError::Closed
    }
}

/// The memory budget tripped: the evaluation produced more logical
/// nodes than the caller allowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded;

/// A monotone cap on the logical tree nodes an evaluation may
/// produce, shared (by reference) across every leg and round of one
/// evaluation — parallel differential legs, fixpoint rounds and
/// streamed pieces all charge the same counter. Thread-safe; relaxed
/// atomics suffice because the count only gates admission, never
/// synchronizes data.
///
/// "Logical nodes" counts each tree by its node count (`Tree::size`),
/// the same unit `StorageStats::logical_nodes` reports — a
/// hash-consed subtree shared nine ways still charges nine times, so
/// the budget tracks the *semantic* size of what a query produces,
/// which is what an operator provisioning result buffers cares about.
#[derive(Debug)]
pub struct NodeBudget {
    limit: usize,
    used: AtomicUsize,
}

impl NodeBudget {
    /// A budget of `limit` logical nodes.
    pub fn new(limit: usize) -> Self {
        NodeBudget {
            limit,
            used: AtomicUsize::new(0),
        }
    }

    /// Charge `nodes` against the budget. The charge is recorded even
    /// when it trips, so `used()` reports what the evaluation tried
    /// to produce.
    pub fn charge(&self, nodes: usize) -> Result<(), BudgetExceeded> {
        let before = self.used.fetch_add(nodes, Ordering::Relaxed);
        if before.saturating_add(nodes) > self.limit {
            Err(BudgetExceeded)
        } else {
            Ok(())
        }
    }

    /// Nodes charged so far.
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// The cap this budget was created with.
    pub fn limit(&self) -> usize {
        self.limit
    }
}

/// Which caller-imposed limit an evaluation ran past.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// The wall-clock deadline ([`Exec::deadline`]).
    WallClock,
    /// The memory budget ([`Exec::budget`]).
    Memory,
}

/// One call's execution state, built once per call and passed by
/// reference through every layer: the plans, the path memo, the
/// Datalog fixpoint and the shredding pipeline.
/// `Exec::default()` is the sequential path with no limits.
#[derive(Clone, Copy, Debug, Default)]
pub struct Exec<'a> {
    /// Where intra-query parallelism fans out. `None`, or a sequential
    /// context, is the exact sequential code path.
    pub ctx: Option<&'a ExecCtx<'a>>,
    /// The wall-clock deadline. Each layer checks it at its own
    /// boundaries: plan ops, fixpoint rounds, memo closures.
    pub deadline: Option<Instant>,
    /// The memory budget, shared by every leg and round of the call.
    pub budget: Option<&'a NodeBudget>,
}

impl<'a> Exec<'a> {
    /// The pool context, when it asks for fan-out.
    pub fn parallel(&self) -> Option<&'a ExecCtx<'a>> {
        self.ctx.filter(|c| !c.is_sequential())
    }

    /// Whether the deadline has passed (never, without one).
    pub fn past_deadline(&self) -> bool {
        matches!(self.deadline, Some(d) if Instant::now() >= d)
    }

    /// The op-boundary check: charge `nodes` against the budget, then
    /// look at the clock. Both are no-ops when unset.
    pub fn charge(&self, nodes: usize) -> Result<(), BudgetKind> {
        if let Some(b) = self.budget {
            if b.charge(nodes).is_err() {
                return Err(BudgetKind::Memory);
            }
        }
        if self.past_deadline() {
            return Err(BudgetKind::WallClock);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_trips_only_past_the_limit() {
        let b = NodeBudget::new(10);
        assert!(b.charge(4).is_ok());
        assert!(b.charge(6).is_ok()); // exactly at the limit: fine
        assert_eq!(b.used(), 10);
        assert_eq!(b.charge(1), Err(BudgetExceeded));
        assert_eq!(b.used(), 11); // the tripping charge is recorded
    }

    #[test]
    fn zero_budget_allows_empty_results() {
        let b = NodeBudget::new(0);
        assert!(b.charge(0).is_ok());
        assert!(b.charge(1).is_err());
    }
}
