//! [`PreparedQuery`]: parse + elaborate + compile once, evaluate many
//! times.
//!
//! `compile` runs the whole front half of the pipeline — surface
//! parse, elaboration to the typed core, compilation to `NRC_K + srt`,
//! normalization by the Prop 5 axioms, **lowering both routes to
//! slot-resolved execution plans**, free-variable analysis, and
//! step-chain extraction for the relational route — over ℕ\[X\], the
//! universal semiring. Per-kind copies of the evaluation artifacts
//! (interpreter terms *and* compiled plans) are produced on first use
//! through the canonical homomorphisms and cached (`OnceLock`), so
//! steady-state `eval` does no per-call translation work in any
//! semiring: `Route::Direct` and `Route::ViaNrc` run the compiled
//! plans, and `Route::Differential` additionally replays the
//! tree-walking interpreters and asserts agreement.

use crate::cursor::{EvalCursor, StreamItem, STREAM_BUFFER_PIECES};
use crate::dispatch::{Artifacts, EvalKind, KindCaches};
use crate::engine::{Engine, StoredDoc};
use crate::error::{AxmlError, BudgetKind};
use crate::incr::IncrCounters;
use crate::options::{EvalMode, EvalOptions, Route, SemiringKind};
use crate::result::{AxmlResult, ResultPieceRef};
use axml_core::ast::SurfaceExpr;
use axml_core::eval::{eval_core, QueryEnv};
use axml_core::path::{extract_path, Ineligible, PathQuery};
use axml_core::{elaborate, parse_query};
use axml_pool::ExecCtx;
use axml_semiring::{Nat, NatPoly, PosBool, Prob, Semiring, Trio, Tropical, Why};
use axml_uxml::{
    Exec, Forest, NodeBudget, ResultSink, SinkClosed, StreamError, Streamed, Tree, Value,
};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;

pub(crate) struct PreparedInner {
    source: String,
    free_vars: Vec<String>,
    /// The symbolic artifacts — the source of truth every other kind
    /// is derived from.
    pub(crate) poly: Artifacts<NatPoly>,
    /// Lazily specialized per-kind artifacts.
    pub(crate) caches: KindCaches,
    /// `Ok((input var, path))` when the query is inside the §7 XPath
    /// fragment the relational route can evaluate (navigation chains,
    /// composition, union, branching predicates, label tests);
    /// `Err` names the first construct outside it.
    path: Result<(String, PathQuery), Ineligible>,
}

/// A compiled query, cheap to clone and safe to share across threads.
#[derive(Clone)]
pub struct PreparedQuery {
    inner: Arc<PreparedInner>,
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("source", &self.inner.source)
            .field("free_vars", &self.inner.free_vars)
            .field("shreddable", &self.inner.path.is_ok())
            .finish()
    }
}

/// Monomorphize `$e` at the semiring type `$S` selected by a runtime
/// [`SemiringKind`] — the one place the 7-way kind dispatch lives.
macro_rules! with_kind {
    ($kind:expr, $S:ident => $e:expr) => {
        match $kind {
            SemiringKind::Nat => {
                type $S = Nat;
                $e
            }
            SemiringKind::PosBool => {
                type $S = PosBool;
                $e
            }
            SemiringKind::Tropical => {
                type $S = Tropical;
                $e
            }
            SemiringKind::NatPoly => {
                type $S = NatPoly;
                $e
            }
            SemiringKind::Why => {
                type $S = Why;
                $e
            }
            SemiringKind::Trio => {
                type $S = Trio;
                $e
            }
            SemiringKind::Prob => {
                type $S = Prob;
                $e
            }
        }
    };
}

impl PreparedQuery {
    pub(crate) fn compile(src: &str) -> Result<Self, AxmlError> {
        let surface = parse_query::<NatPoly>(src).map_err(|e| AxmlError::query_parse(src, e))?;
        let core = elaborate(&surface)?;
        let path = extract_path(&core);
        let free_vars = free_vars(&surface);
        Ok(PreparedQuery {
            inner: Arc::new(PreparedInner {
                source: src.to_owned(),
                free_vars,
                poly: Artifacts::from_core(core),
                caches: KindCaches::default(),
                path,
            }),
        })
    }

    /// The query text this was prepared from.
    pub fn source(&self) -> &str {
        &self.inner.source
    }

    /// The free variables, i.e. the document names `eval` will bind,
    /// sorted.
    pub fn free_vars(&self) -> &[String] {
        &self.inner.free_vars
    }

    /// Whether the relational (`Route::Shredded`) route applies: the
    /// query is inside the §7 XPath fragment — navigation chains,
    /// step composition, union, branching predicates and label tests
    /// over one input document.
    pub fn is_shreddable(&self) -> bool {
        self.inner.path.is_ok()
    }

    /// Why `Route::Shredded` does not apply — the first construct
    /// outside the §7 fragment — or `None` when it does.
    pub fn shred_ineligibility(&self) -> Option<&str> {
        self.inner.path.as_ref().err().map(|e| e.construct.as_str())
    }

    /// Rendering of the elaborated core query.
    pub fn core_display(&self) -> String {
        self.inner.poly.core.to_string()
    }

    /// Rendering of the compiled, axiom-normalized NRC term.
    pub fn nrc_display(&self) -> String {
        self.inner.poly.nrc.to_string()
    }

    /// Evaluate against the engine's documents: every free variable
    /// `$X` binds the document loaded as `"X"`. Thin wrapper over
    /// [`eval_with`](Self::eval_with) with no aliases and the global
    /// pool.
    pub fn eval(&self, engine: &Engine, opts: EvalOptions) -> Result<AxmlResult, AxmlError> {
        self.eval_with(engine, opts, &[], None)
    }

    /// The one evaluation path everything else wraps: evaluate with
    /// query-variable → document-name `aliases` applied —
    /// `("S", "inventory_v2")` binds `$S` to the document loaded as
    /// `"inventory_v2"`; variables not aliased bind their own name —
    /// and intra-query parallelism scheduled on `pool` (`None` = the
    /// global pool).
    ///
    /// Every limit in `opts` is armed here into one [`Exec`] — the
    /// wall-clock deadline and the [`EvalOptions::memory_budget`] (one
    /// fresh [`NodeBudget`] counter per call, shared across every leg
    /// and fixpoint round of the chosen route) — and every route reads
    /// its documents through the same binding/projection step, so
    /// `eval`, the batch APIs and the streaming API cannot drift apart
    /// in behavior.
    ///
    /// The batch APIs pass their scheduling pool through here, so an
    /// entry's `EvalOptions::parallel(n)` fans out on the same pool
    /// the batch runs on — a tenant pinned to a dedicated pool never
    /// borrows global workers. Servers with their own worker pool
    /// call this directly so per-request parallelism stays on their
    /// pool.
    pub fn eval_with(
        &self,
        engine: &Engine,
        opts: EvalOptions,
        aliases: &[(&str, &str)],
        pool: Option<&axml_pool::Pool>,
    ) -> Result<AxmlResult, AxmlError> {
        armed(&opts, pool, |x| match opts.mode {
            EvalMode::ProvenanceFirst => {
                let sym = self.value_in::<NatPoly>(engine, aliases, opts.route, x)?;
                if opts.semiring == SemiringKind::NatPoly {
                    return Ok(AxmlResult::NatPoly(sym));
                }
                Ok(with_kind!(opts.semiring, S => {
                    S::wrap_value(S::specialize_value(&sym))
                }))
            }
            EvalMode::InSemiring => with_kind!(opts.semiring, S => {
                self.value_in::<S>(engine, aliases, opts.route, x)
                    .map(S::wrap_value)
            }),
        })
    }

    /// Evaluate and **push** each top-level `(tree, annotation)` piece
    /// of a set-shaped result into `each` — borrowed, in document
    /// order — as soon as it is final. The push happens on the calling
    /// thread, and intra-query parallelism fans out on `pool` (`None` =
    /// the global pool) in the [`EvalOptions::lane`] lane, exactly as
    /// for [`eval_with`](Self::eval_with).
    ///
    /// Returns `Ok(None)` once a set-shaped result has been pushed
    /// whole, or as soon as `each` returns [`SinkClosed`] (the caller
    /// has seen enough: the evaluation is abandoned, not an error), and
    /// `Ok(Some(result))` for a scalar result — a bare label or a single
    /// unannotated tree — which has no pieces and never reaches `each`.
    ///
    /// `InSemiring` evaluations on the `Direct` and `ViaNrc` routes run
    /// the plans' streaming entry points, so the first piece reaches
    /// `each` while later ones are still being computed — except on an
    /// edited document, where the subtree-fingerprint memo serves the
    /// query exactly when [`eval_with`](Self::eval_with)'s would (same
    /// engagement decision, same limits) and its result's pieces are
    /// pushed. The shredded and differential routes and
    /// `ProvenanceFirst` mode only have whole-result semantics; they
    /// run [`eval_with`](Self::eval_with) and then push its pieces.
    /// Either way `each` sees the pieces of the materialized result, in
    /// order. Errors — binding errors, tripped deadlines and memory
    /// budgets — are returned, possibly after some pieces were pushed.
    pub fn eval_each(
        &self,
        engine: &Engine,
        opts: EvalOptions,
        aliases: &[(&str, &str)],
        pool: Option<&axml_pool::Pool>,
        mut each: impl FnMut(ResultPieceRef<'_>) -> Result<(), SinkClosed>,
    ) -> Result<Option<AxmlResult>, AxmlError> {
        if !pushes_incrementally(&opts) {
            let out = self.eval_with(engine, opts, aliases, pool)?;
            return match out.pieces() {
                Some(pieces) => {
                    for p in pieces {
                        if each(p).is_err() {
                            break;
                        }
                    }
                    Ok(None)
                }
                None => Ok(Some(out)),
            };
        }
        with_kind!(opts.semiring, S => {
            let inputs = self.bind_inputs(engine, aliases, S::project_doc)?;
            self.push_in::<S>(&inputs, opts, pool, engine.incr_counters(), &mut each)
        })
    }

    /// Evaluate to a streaming cursor: top-level pieces of a
    /// set-shaped result become available **as they are produced**,
    /// before the evaluation has finished. See [`EvalCursor`] for the
    /// consumption model.
    ///
    /// Collecting the cursor ([`EvalCursor::collect_result`]) gives a
    /// result equal to [`eval`](Self::eval) with the same options —
    /// same pieces, same document order, same errors — so streaming is
    /// purely a latency choice. `InSemiring` evaluations on the
    /// `Direct` and `ViaNrc` routes run [`eval_each`](Self::eval_each)'s
    /// push path on a detached producer thread and emit incrementally
    /// (streamable root shapes emit each piece the moment it is final;
    /// others — and memo-served reads of edited documents —
    /// materialize inside the producer and then emit); the `Shredded`
    /// and `Differential` routes and `ProvenanceFirst` mode — where a
    /// result is only meaningful whole — materialize synchronously and
    /// cursor over the result.
    ///
    /// Binding errors (unknown documents, parse-stage leftovers)
    /// surface synchronously from this call; evaluation errors —
    /// including tripped deadlines and memory budgets — arrive
    /// in-band as the cursor's final item.
    pub fn eval_stream(&self, engine: &Engine, opts: EvalOptions) -> Result<EvalCursor, AxmlError> {
        self.eval_stream_with(engine, opts, &[], None)
    }

    /// [`eval_stream`](Self::eval_stream) with query-variable →
    /// document-name aliases and an explicit scheduling pool (the
    /// streaming analogue of [`eval_with`](Self::eval_with)).
    ///
    /// **Pool note:** `pool` only schedules the *materializing*
    /// combinations (shredded, differential, `ProvenanceFirst`), which
    /// evaluate on the calling thread. The incremental combinations
    /// run [`eval_each`](Self::eval_each)'s push path on a detached
    /// producer thread that cannot borrow a caller's pool, so their
    /// intra-query parallelism always fans out on the **global** pool.
    /// A caller that needs every evaluation on its own pool — a server
    /// with a dedicated worker pool — should call
    /// [`eval_each`](Self::eval_each) instead, which also saves the
    /// per-call thread and the per-piece channel hand-off.
    pub fn eval_stream_with(
        &self,
        engine: &Engine,
        opts: EvalOptions,
        aliases: &[(&str, &str)],
        pool: Option<&axml_pool::Pool>,
    ) -> Result<EvalCursor, AxmlError> {
        if !pushes_incrementally(&opts) {
            let out = self.eval_with(engine, opts, aliases, pool)?;
            return Ok(EvalCursor::ready(out));
        }
        with_kind!(opts.semiring, S => self.stream_in::<S>(engine, opts, aliases))
    }

    /// Spawn the detached producer for an incremental stream in `S`:
    /// the push path of [`eval_each`](Self::eval_each), forwarding each
    /// piece into the cursor's bounded channel.
    fn stream_in<S: EvalKind>(
        &self,
        engine: &Engine,
        opts: EvalOptions,
        aliases: &[(&str, &str)],
    ) -> Result<EvalCursor, AxmlError> {
        // Bind before spawning: unknown-document errors stay
        // synchronous (a caller maps them to an error *before* it
        // consumes anything).
        let inputs = self.bind_inputs(engine, aliases, S::project_doc)?;
        let me = self.clone();
        let counters = Arc::clone(engine.incr_counters());
        let (tx, rx) = sync_channel(STREAM_BUFFER_PIECES);
        let produced = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&produced);
        std::thread::Builder::new()
            .name("axml-eval-stream".into())
            .spawn(move || {
                // `send` blocks while the channel is full (that *is*
                // the backpressure) and fails once the cursor is
                // dropped, which stops the evaluation.
                let pushed = me.push_in::<S>(&inputs, opts, None, &counters, &mut |p| {
                    // Count before the (possibly blocking) send so the
                    // counter reflects what the producer has *reached*,
                    // not what the consumer has accepted.
                    counter.fetch_add(1, Ordering::Relaxed);
                    tx.send(Ok(StreamItem::Piece(p.to_piece())))
                        .map_err(|_| SinkClosed)
                });
                let last = match pushed {
                    // A finished (or abandoned) set: dropping `tx`
                    // closes the channel, which the cursor reads as
                    // end-of-stream.
                    Ok(None) => return,
                    Ok(Some(scalar)) => Ok(StreamItem::Scalar(scalar)),
                    Err(e) => Err(e),
                };
                let _ = tx.send(last);
            })
            .expect("spawn streaming producer thread");
        Ok(EvalCursor::live(rx, produced, opts.semiring))
    }

    /// The push path of an incremental combination. On an edited
    /// document the subtree memo serves the query when it engages
    /// ([`try_memoized`], the same decision [`eval_with`](Self::eval_with)
    /// makes) and its result's pieces are pushed in document order;
    /// otherwise the route's streaming plan entry runs on this thread,
    /// handing each final piece to `each`. See
    /// [`eval_each`](Self::eval_each) for the outcome.
    fn push_in<S: EvalKind>(
        &self,
        inputs: &BoundInputs<S>,
        opts: EvalOptions,
        pool: Option<&axml_pool::Pool>,
        counters: &Arc<IncrCounters>,
        each: &mut dyn FnMut(ResultPieceRef<'_>) -> Result<(), SinkClosed>,
    ) -> Result<Option<AxmlResult>, AxmlError> {
        let arts = S::artifacts(&self.inner);
        let mut sink = EachSink(each);
        let outcome = armed(&opts, pool, |x| {
            check_deadline(x).map_err(StreamError::Eval)?;
            let key = &self.inner.source;
            if let Some(memoized) = try_memoized(&self.inner.path, inputs, counters, x, key) {
                let forest = memoized.map_err(StreamError::Eval)?;
                for (t, k) in forest.iter_document() {
                    ResultSink::<S>::piece(&mut sink, t, k)?;
                }
                return Ok(Streamed::Set);
            }
            match opts.route {
                Route::Direct => {
                    let bound: Vec<(&str, Value<S>)> = inputs
                        .iter()
                        .map(|b| (b.name.as_str(), Value::Set((*b.forest).clone())))
                        .collect();
                    arts.core_plan
                        .eval_stream(&bound, x, &mut sink)
                        .map_err(stream_err)
                }
                Route::ViaNrc => {
                    let bound: Vec<(&str, &Forest<S>)> = inputs
                        .iter()
                        .map(|b| (b.name.as_str(), &*b.forest))
                        .collect();
                    arts.nrc_plan
                        .eval_stream_with_forests(&bound, x, &mut sink)
                        .map_err(stream_err)
                }
                Route::Shredded | Route::Differential => {
                    unreachable!("only the incremental combinations push piece by piece")
                }
            }
        });
        match outcome {
            // The set was pushed whole, or the consumer stopped
            // listening — either way there is nothing more to say.
            Ok(Streamed::Set) | Err(StreamError::Closed) => Ok(None),
            Ok(Streamed::Scalar(v)) => Ok(Some(S::wrap_value(v))),
            Err(StreamError::Eval(e)) => Err(e),
        }
    }

    /// Evaluate to a `Value` natively in `S`, resolving artifacts and
    /// documents through the kind's [`EvalKind`] hooks (specialized
    /// and cached on first use for every kind but ℕ\[X\] itself).
    fn value_in<S: EvalKind>(
        &self,
        engine: &Engine,
        aliases: &[(&str, &str)],
        route: Route,
        x: &Exec<'_>,
    ) -> Result<Value<S>, AxmlError> {
        let arts = S::artifacts(&self.inner);
        let inputs = self.bind_inputs(engine, aliases, S::project_doc)?;
        eval_route(
            arts,
            &self.inner.path,
            &inputs,
            route,
            x,
            engine,
            &self.inner.source,
        )
    }

    /// Resolve every free variable to a document, applying aliases.
    fn bind_inputs<K: Semiring>(
        &self,
        engine: &Engine,
        aliases: &[(&str, &str)],
        project: impl Fn(&Engine, &Arc<crate::engine::StoredDoc>) -> Arc<Forest<K>>,
    ) -> Result<BoundInputs<K>, AxmlError> {
        self.inner
            .free_vars
            .iter()
            .map(|var| {
                let doc_name = aliases
                    .iter()
                    .find(|(v, _)| v == var)
                    .map(|(_, d)| *d)
                    .unwrap_or(var);
                let stored = engine.stored_or_err(doc_name)?;
                Ok(BoundInput {
                    forest: project(engine, &stored),
                    doc: stored,
                    name: var.clone(),
                })
            })
            .collect()
    }
}

/// One `(query variable, document)` binding resolved for one
/// evaluation: the kind-projected forest plus the stored-document
/// snapshot it was projected from (the incremental layer reads the
/// snapshot's version and per-document state through it).
pub(crate) struct BoundInput<K: Semiring> {
    name: String,
    forest: Arc<Forest<K>>,
    doc: Arc<StoredDoc>,
}

/// The bindings resolved for one evaluation.
type BoundInputs<K> = Vec<BoundInput<K>>;

/// A deadline check, placed at route starts (each differential leg is
/// a route start). Past the start, the layers check `x` themselves:
/// plan ops, memo closures and fixpoint rounds.
fn check_deadline(x: &Exec<'_>) -> Result<(), AxmlError> {
    if x.past_deadline() {
        Err(AxmlError::Budget {
            resource: BudgetKind::WallClock,
            at: "route start".into(),
        })
    } else {
        Ok(())
    }
}

/// Whether `opts` selects a combination that produces pieces
/// incrementally: `InSemiring` on the `Direct` or `ViaNrc` route.
/// Piece-wise specialization is unsound for `ProvenanceFirst` (the
/// homomorphism can merge previously-distinct trees), and the
/// shredded/differential routes only have whole-result semantics, so
/// every other combination materializes first.
fn pushes_incrementally(opts: &EvalOptions) -> bool {
    opts.mode == EvalMode::InSemiring && matches!(opts.route, Route::Direct | Route::ViaNrc)
}

/// Arm one call's [`Exec`] once — the pool context for intra-query
/// parallelism (`pool`, `None` = global pool; sequential options get
/// no context at all, keeping every layer on its exact sequential
/// code path), the deadline, and one fresh [`NodeBudget`] for the
/// whole call, so the budget bounds the *evaluation* (all
/// differential legs, all fixpoint rounds), not any single leg — and
/// run `run` under it and the lane hint. The lane classifies every
/// scope the evaluation opens on the pool (thread-inherited, so
/// nested fan-out stays in the lane); it never changes what is
/// computed.
fn armed<R>(
    opts: &EvalOptions,
    pool: Option<&axml_pool::Pool>,
    run: impl FnOnce(&Exec<'_>) -> R,
) -> R {
    let ctx_slot;
    let ctx: Option<&ExecCtx<'_>> = if opts.parallelism.is_sequential() {
        None
    } else {
        ctx_slot = match pool {
            Some(p) => ExecCtx::new(p, opts.parallelism),
            None => ExecCtx::global(opts.parallelism),
        };
        Some(&ctx_slot)
    };
    let budget = opts.memory_budget.map(NodeBudget::new);
    let x = Exec {
        ctx,
        deadline: opts.deadline,
        budget: budget.as_ref(),
    };
    match opts.lane {
        Some(lane) => axml_pool::with_lane(lane, || run(&x)),
        None => run(&x),
    }
}

/// Adapts an [`PreparedQuery::eval_each`] callback to the plans'
/// [`ResultSink`], tagging each borrowed piece with its kind.
struct EachSink<'f>(&'f mut dyn FnMut(ResultPieceRef<'_>) -> Result<(), SinkClosed>);

impl<S: EvalKind> ResultSink<S> for EachSink<'_> {
    fn piece(&mut self, tree: &Tree<S>, ann: &S) -> Result<(), SinkClosed> {
        (self.0)(S::piece_ref(tree, ann))
    }
}

/// Map a plan-layer stream error into the facade error, preserving
/// the closed-channel case.
fn stream_err<E: Into<AxmlError>>(e: StreamError<E>) -> StreamError<AxmlError> {
    match e {
        StreamError::Eval(e) => StreamError::Eval(e.into()),
        StreamError::Closed => StreamError::Closed,
    }
}

/// Evaluate prepared artifacts over bound inputs along one route.
///
/// `Direct` and `ViaNrc` run the slot-resolved **compiled plans**;
/// the tree-walking interpreters survive as the differential
/// reference: `Differential` evaluates compiled *and* interpreted on
/// both routes (plus the relational route when the query is in the §7
/// fragment) and asserts agreement.
///
/// On **edited** documents (version > 0) the §7-fragment routes
/// engage the incremental layer: `Direct`/`ViaNrc` serve from the
/// subtree-fingerprint memo ([`crate::incr::eval_path_memoized`]);
/// `Differential` additionally runs the memoized evaluator as a sixth
/// leg and asserts it agrees with the compiled direct plan.
/// `Shredded` always reads through the document's retained views
/// ([`crate::incr::eval_shredded_incr`]): the first read of a
/// never-edited document shreds it once, later reads at that version
/// clone the kept result, and edits propagate deltas through the
/// retained Datalog fixpoint.
fn eval_route<S: EvalKind>(
    arts: &Artifacts<S>,
    path: &Result<(String, PathQuery), Ineligible>,
    inputs: &BoundInputs<S>,
    route: Route,
    x: &Exec<'_>,
    engine: &Engine,
    key: &str,
) -> Result<Value<S>, AxmlError> {
    let kind = S::KIND;
    check_deadline(x)?;
    match route {
        Route::Direct | Route::ViaNrc => {
            if let Some(out) = try_memoized(path, inputs, engine.incr_counters(), x, key) {
                return out.map(Value::Set);
            }
            if route == Route::Direct {
                eval_direct(arts, inputs, x)
            } else {
                eval_nrc(arts, inputs, x)
            }
        }
        Route::Shredded => eval_shredded(path, inputs, route, x, engine, key),
        Route::Differential => {
            // Up to five independent evaluation legs. With a
            // non-sequential context they run concurrently on the
            // pool (each leg also keeps its own inner parallelism);
            // either way the legs and comparisons are checked in the
            // same order, so outcomes — including which disagreement
            // is reported first — are identical.
            type Leg<S> = Option<Result<Value<S>, AxmlError>>;
            type Legs<S> = (Leg<S>, Leg<S>, Leg<S>, Leg<S>, Leg<S>);
            let (direct, direct_interp, nrc, nrc_interp, shredded) = match x.ctx {
                Some(c) => {
                    let (mut l1, mut l2, mut l3, mut l4, mut l5): Legs<S> =
                        (None, None, None, None, None);
                    let gate = || check_deadline(x);
                    c.pool.scope(|s| {
                        s.spawn(|| l1 = Some(gate().and_then(|()| eval_direct(arts, inputs, x))));
                        s.spawn(|| {
                            l2 = Some(gate().and_then(|()| eval_direct_interpreted(arts, inputs)))
                        });
                        s.spawn(|| l3 = Some(gate().and_then(|()| eval_nrc(arts, inputs, x))));
                        s.spawn(|| {
                            l4 = Some(gate().and_then(|()| eval_nrc_interpreted(arts, inputs)))
                        });
                        if path.is_ok() {
                            s.spawn(|| {
                                l5 = Some(eval_shredded(path, inputs, route, x, engine, key))
                            });
                        }
                    });
                    (
                        l1.expect("leg ran")?,
                        l2.expect("leg ran")?,
                        l3.expect("leg ran")?,
                        l4.expect("leg ran")?,
                        l5.transpose()?,
                    )
                }
                None => {
                    let direct = eval_direct(arts, inputs, x)?;
                    check_deadline(x)?;
                    let direct_interp = eval_direct_interpreted(arts, inputs)?;
                    check_deadline(x)?;
                    let nrc = eval_nrc(arts, inputs, x)?;
                    check_deadline(x)?;
                    let nrc_interp = eval_nrc_interpreted(arts, inputs)?;
                    let shredded = if path.is_ok() {
                        Some(eval_shredded(path, inputs, route, x, engine, key)?)
                    } else {
                        None
                    };
                    (direct, direct_interp, nrc, nrc_interp, shredded)
                }
            };
            if direct != direct_interp {
                return Err(evaluator_disagreement(
                    kind,
                    Route::Direct,
                    &direct,
                    &direct_interp,
                ));
            }
            if nrc != nrc_interp {
                return Err(evaluator_disagreement(
                    kind,
                    Route::ViaNrc,
                    &nrc,
                    &nrc_interp,
                ));
            }
            if direct != nrc {
                return Err(disagreement(
                    kind,
                    Route::Direct,
                    &direct,
                    Route::ViaNrc,
                    &nrc,
                ));
            }
            if let Some(shredded) = shredded {
                if direct != shredded {
                    return Err(disagreement(
                        kind,
                        Route::Direct,
                        &direct,
                        Route::Shredded,
                        &shredded,
                    ));
                }
            }
            // Sixth leg: when an edited document engages the
            // fingerprint memo, re-derive the result through it and
            // assert agreement with the compiled direct plan — the
            // incremental evaluator is differentially checked like
            // every other one.
            if let Some(memoized) = try_memoized(path, inputs, engine.incr_counters(), x, key) {
                let memoized = Value::Set(memoized?);
                if direct != memoized {
                    return Err(evaluator_disagreement(
                        kind,
                        Route::Direct,
                        &direct,
                        &memoized,
                    ));
                }
            }
            Ok(direct)
        }
    }
}

fn disagreement<K: Semiring>(
    semiring: SemiringKind,
    left_route: Route,
    left: &Value<K>,
    right_route: Route,
    right: &Value<K>,
) -> AxmlError {
    AxmlError::RouteDisagreement {
        semiring,
        left_route,
        left: left.to_string(),
        right_route,
        right: right.to_string(),
    }
}

fn evaluator_disagreement<K: Semiring>(
    semiring: SemiringKind,
    route: Route,
    compiled: &Value<K>,
    interpreted: &Value<K>,
) -> AxmlError {
    AxmlError::EvaluatorDisagreement {
        semiring,
        route,
        compiled: compiled.to_string(),
        interpreted: interpreted.to_string(),
    }
}

/// Fingerprint-memoized evaluation for the direct/NRC routes, engaged
/// only on §7-fragment queries over an **edited** document whose
/// snapshot is current. `None` = not engaged; the caller runs its
/// compiled plan (counted as a fallback when the document was edited).
/// The one engagement decision of every entry point: `eval_with`, the
/// differential route's memo leg and the push path all ask here.
fn try_memoized<S: EvalKind>(
    path: &Result<(String, PathQuery), Ineligible>,
    inputs: &BoundInputs<S>,
    counters: &Arc<IncrCounters>,
    x: &Exec<'_>,
    key: &str,
) -> Option<Result<Forest<S>, AxmlError>> {
    let Ok((var, p)) = path else { return None };
    let b = inputs.iter().find(|b| &b.name == var)?;
    if b.doc.version == 0 {
        return None;
    }
    let out = crate::incr::eval_path_memoized::<S>(&b.doc, &b.forest, key, p, x, counters);
    if out.is_none() {
        counters.note_fallback();
    }
    out
}

/// The direct route: the slot-resolved compiled plan.
fn eval_direct<K: Semiring>(
    arts: &Artifacts<K>,
    inputs: &BoundInputs<K>,
    x: &Exec<'_>,
) -> Result<Value<K>, AxmlError> {
    // The plan needs owned Values; this clone is shallow — a Forest is
    // a map over Arc'd trees, so only the top-level roots (usually
    // one) and their annotations are copied, never the document body.
    let bound: Vec<(&str, Value<K>)> = inputs
        .iter()
        .map(|b| (b.name.as_str(), Value::Set((*b.forest).clone())))
        .collect();
    Ok(arts.core_plan.eval(&bound, x)?)
}

/// The direct route's tree-walking interpreter — the differential
/// reference for [`eval_direct`].
fn eval_direct_interpreted<K: Semiring>(
    arts: &Artifacts<K>,
    inputs: &BoundInputs<K>,
) -> Result<Value<K>, AxmlError> {
    let mut env = QueryEnv::from_bindings(
        inputs
            .iter()
            .map(|b| (b.name.clone(), Value::Set((*b.forest).clone()))),
    );
    Ok(eval_core(&arts.core, &mut env)?)
}

/// The NRC route: the slot-resolved compiled plan (fused label
/// tests/descendant sweeps, iterative `srt`).
fn eval_nrc<K: Semiring>(
    arts: &Artifacts<K>,
    inputs: &BoundInputs<K>,
    x: &Exec<'_>,
) -> Result<Value<K>, AxmlError> {
    let bound: Vec<(&str, &Forest<K>)> = inputs
        .iter()
        .map(|b| (b.name.as_str(), &*b.forest))
        .collect();
    let out = arts.nrc_plan.eval_with_forests(&bound, x)?;
    out.to_uxml().ok_or_else(|| AxmlError::Nrc {
        msg: "query produced a non-UXML complex value".into(),
        at: arts.nrc.to_string(),
    })
}

/// The NRC route's Fig 8 interpreter — the differential reference for
/// [`eval_nrc`].
fn eval_nrc_interpreted<K: Semiring>(
    arts: &Artifacts<K>,
    inputs: &BoundInputs<K>,
) -> Result<Value<K>, AxmlError> {
    let mut env = axml_nrc::Env::from_bindings(
        inputs
            .iter()
            .map(|b| (b.name.clone(), axml_nrc::CValue::from_forest(&b.forest))),
    );
    let out = axml_nrc::eval(&arts.nrc, &mut env)?;
    out.to_uxml().ok_or_else(|| AxmlError::Nrc {
        msg: "query produced a non-UXML complex value".into(),
        at: arts.nrc.to_string(),
    })
}

fn eval_shredded<S: EvalKind>(
    path: &Result<(String, PathQuery), Ineligible>,
    inputs: &BoundInputs<S>,
    route: Route,
    x: &Exec<'_>,
    engine: &Engine,
    key: &str,
) -> Result<Value<S>, AxmlError> {
    check_deadline(x)?;
    let (var, p) = match path {
        Ok(x) => x,
        Err(why) => {
            return Err(AxmlError::UnsupportedRoute {
                route,
                construct: why.construct.clone(),
            })
        }
    };
    let Some(b) = inputs.iter().find(|b| &b.name == var) else {
        return Err(AxmlError::UnknownDocument {
            name: var.clone(),
            available: inputs.iter().map(|b| b.name.clone()).collect(),
        });
    };
    // Delta propagation: on a current snapshot, solve from the
    // retained view instead of re-shredding the document (a repeat
    // read at the same version is a clone of the kept result).
    match crate::incr::eval_shredded_incr::<S>(&b.doc, p, key, x, engine.incr_counters()) {
        Some(out) => return out.map(Value::Set),
        None => engine.incr_counters().note_fallback(),
    }
    let out = axml_relational::eval_path_via_shredding(&b.forest, p, x)?;
    Ok(Value::Set(out))
}

/// Free variables of a surface query, in sorted order.
fn free_vars<K: Semiring>(e: &SurfaceExpr<K>) -> Vec<String> {
    fn walk<K: Semiring>(e: &SurfaceExpr<K>, bound: &mut Vec<String>, out: &mut BTreeSet<String>) {
        match e {
            SurfaceExpr::LabelLit(_) | SurfaceExpr::Empty => {}
            SurfaceExpr::Var(x) => {
                if !bound.iter().any(|b| b == x) {
                    out.insert(x.clone());
                }
            }
            SurfaceExpr::Paren(a) | SurfaceExpr::Name(a) | SurfaceExpr::Annot(_, a) => {
                walk(a, bound, out)
            }
            SurfaceExpr::Path(a, _) => walk(a, bound, out),
            SurfaceExpr::Seq(a, b) => {
                walk(a, bound, out);
                walk(b, bound, out);
            }
            SurfaceExpr::For {
                binders,
                where_eq,
                body,
            } => {
                let depth = bound.len();
                for (v, src) in binders {
                    walk(src, bound, out);
                    bound.push(v.clone());
                }
                if let Some((l, r)) = where_eq {
                    walk(l, bound, out);
                    walk(r, bound, out);
                }
                walk(body, bound, out);
                bound.truncate(depth);
            }
            SurfaceExpr::Let { bindings, body } => {
                let depth = bound.len();
                for (v, def) in bindings {
                    walk(def, bound, out);
                    bound.push(v.clone());
                }
                walk(body, bound, out);
                bound.truncate(depth);
            }
            SurfaceExpr::If { l, r, then, els } => {
                walk(l, bound, out);
                walk(r, bound, out);
                walk(then, bound, out);
                walk(els, bound, out);
            }
            SurfaceExpr::Element { name, content } => {
                if let axml_core::ast::ElementName::Dynamic(n) = name {
                    walk(n, bound, out);
                }
                walk(content, bound, out);
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(e, &mut Vec::new(), &mut out);
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn surf(src: &str) -> SurfaceExpr<NatPoly> {
        parse_query(src).unwrap()
    }

    #[test]
    fn free_vars_respect_binders_and_shadowing() {
        let q = surf("for $x in $S return for $y in ($x)/child::* return ($y, $T)");
        assert_eq!(free_vars(&q), ["S", "T"]);
        let q2 = surf("let $S := $R return $S");
        assert_eq!(free_vars(&q2), ["R"]);
        let q3 = surf("for $a in $R, $b in ($a)/* where name($a) = name($c) return ($b)");
        assert_eq!(free_vars(&q3), ["R", "c"]);
    }

    #[test]
    fn fragment_queries_are_recognized() {
        let chain = elaborate(&surf("$S/a//b/self::c")).unwrap();
        let (var, path) = extract_path(&chain).expect("is a chain");
        assert_eq!(var, "S");
        assert_eq!(path.step_count(), 4); // child::* seed + 3 steps

        // newly eligible: unions, composition, branching predicates
        for q in [
            "($S//a, $S/b)",
            "for $x in $S//a return ($x)/c",
            "for $x in $S//a return for $y in ($x)/b return ($x)",
        ] {
            let core = elaborate(&surf(q)).unwrap();
            assert!(extract_path(&core).is_ok(), "{q} should be eligible");
        }

        let not_chain = elaborate(&surf("element r { $S/a }")).unwrap();
        let why = extract_path(&not_chain).unwrap_err();
        assert!(why.construct.contains("element constructor"), "{why}");
    }
}
