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

use crate::cursor::{EvalCursor, StreamItem};
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
    CollectSink, Exec, Forest, NodeBudget, ResultSink, SinkClosed, StreamError, Streamed, Tree,
    Value,
};
use std::collections::BTreeSet;
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

    /// Evaluate to a whole result, with query-variable → document-name
    /// `aliases` applied — `("S", "inventory_v2")` binds `$S` to the
    /// document loaded as `"inventory_v2"`; variables not aliased bind
    /// their own name — and intra-query parallelism scheduled on
    /// `pool` (`None` = the global pool; the batch APIs pass theirs).
    ///
    /// This is [`eval_each`](Self::eval_each)'s evaluation with a
    /// collecting sink: one dispatcher, and on the `Direct` and
    /// `ViaNrc` routes one plan entry point, serve both. Pieces a plan
    /// pushes are collected into the result forest; a result that
    /// arrives whole is kept as it is. `ProvenanceFirst` evaluates over
    /// ℕ\[X\] this way and then specializes the result.
    ///
    /// Every limit in `opts` is armed here into one [`Exec`] — the
    /// wall-clock deadline and the [`EvalOptions::memory_budget`] (one
    /// fresh [`NodeBudget`] counter per call, shared across every leg
    /// and fixpoint round of the chosen route).
    pub fn eval_with(
        &self,
        engine: &Engine,
        opts: EvalOptions,
        aliases: &[(&str, &str)],
        pool: Option<&axml_pool::Pool>,
    ) -> Result<AxmlResult, AxmlError> {
        armed(&opts, pool, |x| {
            with_kind!(opts.semiring, S => {
                collect(x, |sink| self.eval_in::<S>(engine, opts, aliases, x, sink))
                    .map(S::wrap_value)
            })
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
    /// This is [`eval_with`](Self::eval_with)'s evaluation with `each`
    /// as the sink. On the `Direct` and `ViaNrc` routes a streamable
    /// root shape reaches `each` piece by piece as it is produced;
    /// everything else (memo-served reads of edited documents, the
    /// shredded and differential routes, `ProvenanceFirst`) arrives
    /// whole and is then pushed in document order. Either way `each`
    /// sees the pieces of the materialized result, in order, each after
    /// a deadline check. Errors — binding errors, tripped deadlines and
    /// memory budgets — are returned, possibly after some pieces were
    /// pushed.
    pub fn eval_each(
        &self,
        engine: &Engine,
        opts: EvalOptions,
        aliases: &[(&str, &str)],
        pool: Option<&axml_pool::Pool>,
        mut each: impl FnMut(ResultPieceRef<'_>) -> Result<(), SinkClosed>,
    ) -> Result<Option<AxmlResult>, AxmlError> {
        armed(&opts, pool, |x| {
            with_kind!(opts.semiring, S => {
                let mut sink = EachSink(&mut each);
                let out = self.eval_in::<S>(engine, opts, aliases, x, &mut sink);
                pushed(emit_rest(x, out, &mut sink))
            })
        })
    }

    /// Evaluate to a pull cursor over the result ([`EvalCursor`]):
    /// [`eval_each`](Self::eval_each)'s evaluation, with every pushed
    /// piece recorded as an owned [`StreamItem::Piece`] and a scalar
    /// result as the one [`StreamItem::Scalar`]. The evaluation runs to
    /// its end before this returns; a caller that wants each piece as
    /// soon as it is final calls `eval_each` itself.
    ///
    /// Collecting the cursor ([`EvalCursor::collect_result`]) gives a
    /// result equal to [`eval`](Self::eval) with the same options —
    /// same pieces, same document order, same errors — on every route
    /// and mode. One error rule holds everywhere: an error raised
    /// before any piece was pushed (an unknown document, a budget or
    /// deadline tripped early) is returned from this call, and one
    /// raised after some pieces is the cursor's last item.
    pub fn eval_stream(&self, engine: &Engine, opts: EvalOptions) -> Result<EvalCursor, AxmlError> {
        self.eval_stream_with(engine, opts, &[], None)
    }

    /// [`eval_stream`](Self::eval_stream) with query-variable →
    /// document-name aliases and intra-query parallelism scheduled on
    /// `pool` (`None` = the global pool), exactly as for
    /// [`eval_each`](Self::eval_each).
    pub fn eval_stream_with(
        &self,
        engine: &Engine,
        opts: EvalOptions,
        aliases: &[(&str, &str)],
        pool: Option<&axml_pool::Pool>,
    ) -> Result<EvalCursor, AxmlError> {
        let mut items = Vec::new();
        let out = self.eval_each(engine, opts, aliases, pool, |p| {
            items.push(Ok(StreamItem::Piece(p.to_piece())));
            Ok(())
        });
        match out {
            Ok(None) => {}
            Ok(Some(scalar)) => items.push(Ok(StreamItem::Scalar(scalar))),
            Err(e) if items.is_empty() => return Err(e),
            Err(e) => items.push(Err(e)),
        }
        Ok(EvalCursor::new(items, opts.semiring))
    }

    /// One call's evaluation in `S`: bind the documents and [`run`]
    /// the route into `sink`. `ProvenanceFirst` (in any kind but
    /// ℕ\[X\] itself) runs the route over ℕ\[X\] into the collector
    /// instead and returns the specialized result whole — piece-wise
    /// specialization is unsound, because the homomorphism can merge
    /// previously distinct trees.
    ///
    /// [`run`]: Self::run
    fn eval_in<S: EvalKind>(
        &self,
        engine: &Engine,
        opts: EvalOptions,
        aliases: &[(&str, &str)],
        x: &Exec<'_>,
        sink: &mut dyn ResultSink<S>,
    ) -> Pushed<S> {
        let counters = engine.incr_counters();
        if opts.mode == EvalMode::ProvenanceFirst && S::KIND != SemiringKind::NatPoly {
            let inputs = self.bind_inputs(engine, aliases, NatPoly::project_doc)?;
            let sym = collect(x, |sym| self.run(&inputs, opts.route, x, counters, sym))?;
            return Ok(Streamed::Whole(S::specialize_value(&sym)));
        }
        let inputs = self.bind_inputs(engine, aliases, S::project_doc)?;
        self.run(&inputs, opts.route, x, counters, sink)
    }

    /// The one dispatcher every evaluation goes through: evaluate the
    /// bound inputs along `route`, pushing what the route's plan
    /// streams into `sink` and returning the rest.
    ///
    /// - `Direct` / `ViaNrc`: on an **edited** document a §7-fragment
    ///   query is served from the subtree-fingerprint memo when it
    ///   engages ([`try_memoized`]); otherwise the route's plan runs.
    /// - `Shredded` reads through the document's retained views
    ///   ([`crate::incr::eval_shredded_incr`]): shredded once per
    ///   document, then a clone per repeat read and a delta per edit.
    /// - `Differential` returns the agreed result of [`differential`].
    fn run<S: EvalKind>(
        &self,
        inputs: &BoundInputs<S>,
        route: Route,
        x: &Exec<'_>,
        counters: &Arc<IncrCounters>,
        sink: &mut dyn ResultSink<S>,
    ) -> Pushed<S> {
        let arts = S::artifacts(&self.inner);
        let (path, key) = (&self.inner.path, self.inner.source.as_str());
        check_deadline(x, ROUTE_START)?;
        let whole = match route {
            Route::Direct | Route::ViaNrc => match try_memoized(path, inputs, counters, x, key) {
                Some(memoized) => memoized.map(Value::Set),
                None => return plan(arts, route, inputs, x, sink),
            },
            Route::Shredded => eval_shredded(path, inputs, x, counters, key),
            Route::Differential => differential(arts, path, inputs, x, counters, key),
        };
        Ok(Streamed::Whole(whole?))
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

/// Where [`check_deadline`] runs at route starts (each differential
/// leg is a route start). Past the start, the layers check `x`
/// themselves: plan ops, memo closures and fixpoint rounds.
const ROUTE_START: &str = "route start";

/// Where the facade checks the pieces it pushes or collects itself
/// ([`emit_rest`], [`collect`]).
const EMISSION: &str = "result emission";

/// A deadline check at boundary `at`: a route start, or a piece about
/// to be pushed by [`emit_rest`].
fn check_deadline(x: &Exec<'_>, at: &str) -> Result<(), AxmlError> {
    if x.past_deadline() {
        Err(AxmlError::Budget {
            resource: BudgetKind::WallClock,
            at: at.into(),
        })
    } else {
        Ok(())
    }
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

/// What a push into a sink concluded with (see [`Streamed`]), or why it
/// stopped early.
type Pushed<S> = Result<Streamed<S>, StreamError<AxmlError>>;

/// The one emission boundary for results a route did not push itself:
/// a set that arrived whole is pushed into `sink` in document order,
/// each piece after a deadline check (its nodes were charged when it
/// was built), and a single-root child step ([`Streamed::Children`])
/// in its tree's cached document order, each piece charged (and so
/// deadline-checked) as it is pushed, like the pieces the plans push
/// themselves. So every pushed piece is checked. Returns the result
/// when it is a scalar.
fn emit_rest<S: Semiring>(
    x: &Exec<'_>,
    out: Pushed<S>,
    sink: &mut dyn ResultSink<S>,
) -> Result<Option<Value<S>>, StreamError<AxmlError>> {
    match out? {
        Streamed::Set => {}
        Streamed::Whole(Value::Set(f)) => {
            for (t, k) in f.iter_document() {
                check_deadline(x, EMISSION)?;
                sink.piece(t, k)?;
            }
        }
        Streamed::Whole(scalar) => return Ok(Some(scalar)),
        Streamed::Children {
            parent,
            scale,
            label,
        } => {
            for (c, k) in parent.child_step(&scale, label) {
                charge(x, c.size())?;
                sink.piece(c, &*k)?;
            }
        }
    }
    Ok(None)
}

/// Collect a push into its whole value ([`CollectSink::collect`]),
/// charging a single-root child step once it is collected — its pieces
/// were never pushed, so nothing charged them.
fn collect<S: Semiring>(
    x: &Exec<'_>,
    run: impl FnOnce(&mut CollectSink<S>) -> Pushed<S>,
) -> Result<Value<S>, AxmlError> {
    let mut children = false;
    let value = CollectSink::collect(|sink| {
        let out = run(sink)?;
        children = matches!(out, Streamed::Children { .. });
        Ok(out)
    })?;
    if children {
        charge(x, value.as_set().map_or(0, Forest::size))?;
    }
    Ok(value)
}

/// Charge `nodes` the facade produced itself against the budget, then
/// check the deadline ([`Exec::charge`]).
fn charge(x: &Exec<'_>, nodes: usize) -> Result<(), AxmlError> {
    x.charge(nodes).map_err(|resource| AxmlError::Budget {
        resource,
        at: EMISSION.into(),
    })
}

/// A push's outcome for the caller: the result for a scalar, `None`
/// once a set was pushed whole or the consumer stopped listening.
fn pushed<S: EvalKind>(
    out: Result<Option<Value<S>>, StreamError<AxmlError>>,
) -> Result<Option<AxmlResult>, AxmlError> {
    match out {
        Ok(scalar) => Ok(scalar.map(S::wrap_value)),
        Err(StreamError::Closed) => Ok(None),
        Err(StreamError::Eval(e)) => Err(e),
    }
}

/// Map a plan-layer stream error into the facade error, preserving
/// the closed-sink case.
fn stream_err<E: Into<AxmlError>>(e: StreamError<E>) -> StreamError<AxmlError> {
    match e {
        StreamError::Eval(e) => StreamError::Eval(e.into()),
        StreamError::Closed => StreamError::Closed,
    }
}

/// The compiled plan of the `Direct` or `ViaNrc` route, run through
/// its one entry point — by [`PreparedQuery::run`] and by the
/// differential route's compiled legs alike.
fn plan<S: Semiring>(
    arts: &Artifacts<S>,
    route: Route,
    inputs: &BoundInputs<S>,
    x: &Exec<'_>,
    sink: &mut dyn ResultSink<S>,
) -> Pushed<S> {
    if route == Route::Direct {
        // The plan needs owned Values; this clone is shallow — a
        // Forest is a map over Arc'd trees, so only the top-level
        // roots (usually one) and their annotations are copied, never
        // the document body.
        let bound: Vec<(&str, Value<S>)> = inputs
            .iter()
            .map(|b| (b.name.as_str(), Value::Set((*b.forest).clone())))
            .collect();
        arts.core_plan.eval(&bound, x, sink).map_err(stream_err)
    } else {
        let bound: Vec<(&str, &Forest<S>)> = inputs
            .iter()
            .map(|b| (b.name.as_str(), &*b.forest))
            .collect();
        arts.nrc_plan
            .eval_with_forests(&bound, x, sink)
            .map_err(stream_err)
    }
}

/// The differential route: the compiled plans (collected from the same
/// entry point the other routes stream from) *and* the tree-walking
/// interpreters on both routes, plus the relational route when the
/// query is in the §7 fragment, must all agree. On an edited document
/// whose query engages the fingerprint memo, the memoized evaluator is
/// a sixth leg that must agree with the compiled direct plan.
fn differential<S: EvalKind>(
    arts: &Artifacts<S>,
    path: &Result<(String, PathQuery), Ineligible>,
    inputs: &BoundInputs<S>,
    x: &Exec<'_>,
    counters: &Arc<IncrCounters>,
    key: &str,
) -> Result<Value<S>, AxmlError> {
    let kind = S::KIND;
    // Up to five independent evaluation legs, each starting with a
    // deadline check. With a non-sequential context they run
    // concurrently on the pool (each leg also keeps its own inner
    // parallelism); either way the legs and comparisons are checked in
    // the same order, so outcomes — including which disagreement is
    // reported first — are identical.
    type Leg<'a, S> = Box<dyn Fn() -> Result<Value<S>, AxmlError> + Sync + 'a>;
    let mut legs: Vec<Leg<S>> = vec![
        Box::new(|| collect(x, |sink| plan(arts, Route::Direct, inputs, x, sink))),
        Box::new(|| eval_direct_interpreted(arts, inputs)),
        Box::new(|| collect(x, |sink| plan(arts, Route::ViaNrc, inputs, x, sink))),
        Box::new(|| eval_nrc_interpreted(arts, inputs)),
    ];
    if path.is_ok() {
        legs.push(Box::new(|| eval_shredded(path, inputs, x, counters, key)));
    }
    let run = |leg: &Leg<S>| check_deadline(x, ROUTE_START).and_then(|()| leg());
    let mut done = Vec::with_capacity(legs.len());
    match x.ctx {
        Some(c) => {
            let mut slots: Vec<Option<Result<Value<S>, AxmlError>>> =
                legs.iter().map(|_| None).collect();
            c.pool.scope(|s| {
                for (slot, leg) in slots.iter_mut().zip(&legs) {
                    s.spawn(move || *slot = Some(run(leg)));
                }
            });
            for slot in slots {
                done.push(slot.expect("leg ran")?);
            }
        }
        None => {
            for leg in &legs {
                done.push(run(leg)?);
            }
        }
    }
    let mut done = done.into_iter();
    let mut next = || done.next().expect("four legs always run");
    let (direct, direct_interp, nrc, nrc_interp) = (next(), next(), next(), next());
    let shredded = done.next();
    // A compiled evaluator must match its reference, and every route
    // the compiled direct plan.
    let evaluators_agree = |route, compiled: &Value<S>, reference: &Value<S>| {
        if compiled == reference {
            return Ok(());
        }
        Err(AxmlError::EvaluatorDisagreement {
            semiring: kind,
            route,
            compiled: compiled.to_string(),
            interpreted: reference.to_string(),
        })
    };
    let routes_agree = |right_route, right: &Value<S>| {
        if direct == *right {
            return Ok(());
        }
        Err(AxmlError::RouteDisagreement {
            semiring: kind,
            left_route: Route::Direct,
            left: direct.to_string(),
            right_route,
            right: right.to_string(),
        })
    };
    evaluators_agree(Route::Direct, &direct, &direct_interp)?;
    evaluators_agree(Route::ViaNrc, &nrc, &nrc_interp)?;
    routes_agree(Route::ViaNrc, &nrc)?;
    if let Some(shredded) = &shredded {
        routes_agree(Route::Shredded, shredded)?;
    }
    // Sixth leg: when an edited document engages the fingerprint memo,
    // re-derive the result through it and assert agreement with the
    // compiled direct plan — the incremental evaluator is
    // differentially checked like every other one.
    if let Some(memoized) = try_memoized(path, inputs, counters, x, key) {
        evaluators_agree(Route::Direct, &direct, &Value::Set(memoized?))?;
    }
    Ok(direct)
}

/// Fingerprint-memoized evaluation for the direct/NRC routes, engaged
/// only on §7-fragment queries over an **edited** document whose
/// snapshot is current. `None` = not engaged; the caller runs its
/// compiled plan (counted as a fallback when the document was edited).
/// The one engagement decision of every entry point: [`PreparedQuery::run`]
/// and the differential route's memo leg both ask here.
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

/// The direct route's tree-walking interpreter — the differential
/// reference for the direct plan.
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

/// The NRC route's Fig 8 interpreter — the differential reference for
/// the NRC plan.
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

/// The relational route (only called for §7-fragment queries by the
/// differential route; `Route::Shredded` reports why others are not).
fn eval_shredded<S: EvalKind>(
    path: &Result<(String, PathQuery), Ineligible>,
    inputs: &BoundInputs<S>,
    x: &Exec<'_>,
    counters: &Arc<IncrCounters>,
    key: &str,
) -> Result<Value<S>, AxmlError> {
    check_deadline(x, ROUTE_START)?;
    let (var, p) = match path {
        Ok(x) => x,
        Err(why) => {
            return Err(AxmlError::UnsupportedRoute {
                route: Route::Shredded,
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
    match crate::incr::eval_shredded_incr::<S>(&b.doc, p, key, x, counters) {
        Some(out) => return out.map(Value::Set),
        None => counters.note_fallback(),
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
