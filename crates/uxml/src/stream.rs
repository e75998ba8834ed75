//! Incremental result production and per-evaluation memory budgets —
//! the vocabulary shared by every evaluator in the workspace.
//!
//! [`ResultSink`] is the push half of a streaming evaluation: an
//! evaluator that can prove a top-level `(tree, annotation)` piece is
//! *final* — no later step of the computation can change its
//! annotation, drop it, or produce a piece that sorts before it in
//! document order — hands it to the sink immediately instead of
//! accumulating the whole K-set. Each compiled plan in `axml-core`
//! and `axml-nrc` has one entry point taking a sink; what it does not
//! push it returns ([`Streamed`]), so a set a plan already has is
//! never re-sorted or rebuilt on the way out. [`CollectSink`] is the
//! materializing consumer.
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

use crate::label::Label;
use crate::tree::{Forest, Tree, Value};
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

/// The collecting sink: materialized evaluation is a streaming
/// evaluation into this sink ([`CollectSink::collect`]).
#[derive(Debug)]
pub struct CollectSink<K: Semiring> {
    pieces: Vec<(Tree<K>, K)>,
}

impl<K: Semiring> CollectSink<K> {
    /// Run one streaming evaluation into a fresh collector and return
    /// its value: the pushed pieces bulk-built into a forest (they are
    /// distinct), a whole value as it is, or a child step's K-set
    /// cloned from the tree (not charged here: see
    /// [`Streamed::Children`]).
    pub fn collect<E>(
        run: impl FnOnce(&mut Self) -> Result<Streamed<K>, StreamError<E>>,
    ) -> Result<Value<K>, E> {
        let mut sink = CollectSink { pieces: Vec::new() };
        match run(&mut sink) {
            Ok(Streamed::Set) => Ok(Value::Set(Forest::from_distinct_pairs(sink.pieces))),
            Ok(Streamed::Whole(v)) => Ok(v),
            Ok(Streamed::Children {
                parent,
                scale,
                label,
            }) => {
                let kids = match label {
                    Some(l) => parent.children().filter_label(|x| x == l),
                    None => parent.children().clone(),
                };
                let mut out = Forest::new();
                out.extend_scaled(kids, &scale);
                Ok(Value::Set(out))
            }
            Err(StreamError::Eval(e)) => Err(e),
            Err(StreamError::Closed) => unreachable!("a collecting sink never closes"),
        }
    }
}

impl<K: Semiring> ResultSink<K> for CollectSink<K> {
    fn piece(&mut self, tree: &Tree<K>, ann: &K) -> Result<(), SinkClosed> {
        self.pieces.push((tree.clone(), ann.clone()));
        Ok(())
    }
}

/// How a streaming evaluation concluded: every piece went through the
/// sink, or the evaluator returns the result for its caller to emit or
/// keep.
#[derive(Debug, Clone, PartialEq)]
pub enum Streamed<K: Semiring> {
    /// The result was a set; the sink received every piece.
    Set,
    /// The result, whole: a set the evaluator materialized anyway, or
    /// a scalar (a bare label, or a tree from a top-level element
    /// constructor), which has no pieces.
    Whole(Value<K>),
    /// The result is [`Tree::child_step`] of `parent`, whose pieces
    /// (the tree's cached document order) and K-set (its children)
    /// both exist already: a pushing consumer walks the one, a
    /// collecting one clones the other. Not charged against any budget
    /// yet: the consumer charges each piece it pushes, or the whole
    /// step when it collects it.
    Children {
        /// The one tree the step starts from.
        parent: Tree<K>,
        /// Its annotation, which scales every child.
        scale: K,
        /// The step's label test, if any.
        label: Option<Label>,
    },
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
