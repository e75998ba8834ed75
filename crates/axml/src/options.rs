//! Runtime evaluation options: which semiring, which route, which
//! mode.
//!
//! The rest of the workspace is statically generic over `K: Semiring`;
//! these enums are the runtime face of that genericity. `Engine`
//! dispatches each [`SemiringKind`] to the corresponding monomorphized
//! evaluator, so selecting a semiring per request costs one `match`.

use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};

pub use axml_pool::{Lane, Parallelism};

/// The semirings selectable at runtime.
///
/// Documents are stored once as ℕ\[X\] (provenance-polynomial) values —
/// the *universal* annotation per §2 of the paper — and pushed into the
/// requested semiring through the canonical homomorphism:
///
/// | kind | semiring | homomorphism from ℕ\[X\] |
/// |------|----------|--------------------------|
/// | `Nat` | (ℕ, +, ·) bag semantics | every variable ↦ 1 |
/// | `PosBool` | positive boolean expressions | x ↦ x (polynomial read as a DNF) |
/// | `Tropical` | (ℕ∪{∞}, min, +) cost | every variable ↦ cost 0 |
/// | `NatPoly` | ℕ\[X\] itself | identity |
/// | `Why` | why-provenance (witness bases) | x ↦ {{x}} |
/// | `Trio` | lineage with multiplicity | drop exponents, keep counts |
/// | `Prob` | (\[0,1\], max, ·) Viterbi | every variable ↦ 1.0 |
///
/// For data-dependent valuations (event probabilities, per-token
/// costs), evaluate in `NatPoly` and specialize the symbolic answer
/// with [`axml_semiring::Valuation`] — Corollary 1 guarantees the two
/// orders agree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SemiringKind {
    /// ℕ — multiplicities / bag semantics.
    Nat,
    /// Positive boolean expressions — incomplete data (c-tables).
    PosBool,
    /// (ℕ ∪ {∞}, min, +) — cheapest-derivation cost.
    Tropical,
    /// ℕ\[X\] provenance polynomials (the default; universal).
    #[default]
    NatPoly,
    /// Why-provenance: witness bases.
    Why,
    /// Trio-style lineage: bags of witness sets.
    Trio,
    /// (\[0,1\], max, ·) — most-likely-derivation probability.
    Prob,
}

impl SemiringKind {
    /// All selectable kinds, in declaration order.
    pub const ALL: [SemiringKind; 7] = [
        SemiringKind::Nat,
        SemiringKind::PosBool,
        SemiringKind::Tropical,
        SemiringKind::NatPoly,
        SemiringKind::Why,
        SemiringKind::Trio,
        SemiringKind::Prob,
    ];

    /// The lowercase name (`nat`, `posbool`, …) accepted by [`FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            SemiringKind::Nat => "nat",
            SemiringKind::PosBool => "posbool",
            SemiringKind::Tropical => "tropical",
            SemiringKind::NatPoly => "natpoly",
            SemiringKind::Why => "why",
            SemiringKind::Trio => "trio",
            SemiringKind::Prob => "prob",
        }
    }
}

impl fmt::Display for SemiringKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for SemiringKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SemiringKind::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = SemiringKind::ALL.iter().map(|k| k.name()).collect();
                format!(
                    "unknown semiring {s:?} (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// Which evaluation pipeline answers the query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Route {
    /// The direct big-step evaluator over K-UXML (`axml-core::eval`).
    #[default]
    Direct,
    /// The §6.3 compilation semantics: the prepared `NRC_K + srt` term
    /// (already normalized by the Prop 5 axioms) evaluated by
    /// `axml-nrc`.
    ViaNrc,
    /// The §7 relational route: shred to an edge K-relation, run the
    /// semi-naive Datalog translation ψ, decode. Queries in the §7
    /// XPath fragment — navigation chains, step composition, union,
    /// branching predicates and label tests over one input — have a
    /// relational translation; anything else reports
    /// [`crate::AxmlError::UnsupportedRoute`] naming the construct.
    Shredded,
    /// Run `Direct` *and* `ViaNrc` (and `Shredded` too when the query
    /// is in the §7 fragment), assert they agree, and return the
    /// result — the workspace's differential tests as a user-facing
    /// debugging tool. For `Direct` and `ViaNrc` this checks **both
    /// evaluators of each route**: the compiled slot plan against the
    /// tree-walking reference interpreter
    /// ([`crate::AxmlError::EvaluatorDisagreement`] on divergence),
    /// then the routes against each other
    /// ([`crate::AxmlError::RouteDisagreement`]).
    Differential,
}

impl Route {
    /// The lowercase name accepted by [`FromStr`].
    pub fn name(self) -> &'static str {
        match self {
            Route::Direct => "direct",
            Route::ViaNrc => "via-nrc",
            Route::Shredded => "shredded",
            Route::Differential => "differential",
        }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Route {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [
            Route::Direct,
            Route::ViaNrc,
            Route::Shredded,
            Route::Differential,
        ]
        .into_iter()
        .find(|r| r.name() == s)
        .ok_or_else(|| {
            format!("unknown route {s:?} (expected direct, via-nrc, shredded or differential)")
        })
    }
}

/// How the requested semiring is reached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EvalMode {
    /// Specialize inputs and query into the target semiring first,
    /// then evaluate there (cheapest per call: annotations are small).
    #[default]
    InSemiring,
    /// Evaluate once over ℕ\[X\] and push the *result* through the
    /// homomorphism — Prop 2 / Corollary 1 as an API feature. One
    /// symbolic evaluation can serve every [`SemiringKind`]; the two
    /// modes agree by Theorem 1 (differentially tested).
    ProvenanceFirst,
}

impl EvalMode {
    /// The kebab-case name (`in-semiring` / `provenance-first`) used by
    /// the JSON result shape and the server's `mode` parameter.
    pub fn name(self) -> &'static str {
        match self {
            EvalMode::InSemiring => "in-semiring",
            EvalMode::ProvenanceFirst => "provenance-first",
        }
    }
}

impl fmt::Display for EvalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for EvalMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [EvalMode::InSemiring, EvalMode::ProvenanceFirst]
            .into_iter()
            .find(|m| m.name() == s)
            .ok_or_else(|| format!("unknown mode {s:?} (expected in-semiring or provenance-first)"))
    }
}

/// Per-call evaluation options for [`crate::PreparedQuery::eval`].
///
/// ```
/// use axml::{EvalOptions, Route, SemiringKind};
/// let opts = EvalOptions::new()
///     .semiring(SemiringKind::Nat)
///     .route(Route::ViaNrc)
///     .provenance_first();
/// assert_eq!(opts.semiring, SemiringKind::Nat);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct EvalOptions {
    /// Target semiring (default: `NatPoly`).
    pub semiring: SemiringKind,
    /// Evaluation route (default: `Direct`).
    pub route: Route,
    /// Specialize-then-evaluate, or evaluate-then-specialize.
    pub mode: EvalMode,
    /// Intra-query parallelism (default: sequential — the exact
    /// pre-parallelism code path). With a non-sequential value the
    /// evaluation fans out onto the global worker pool: descendant
    /// sweeps over large documents chunk across subtrees, semi-naive
    /// Datalog rounds partition their joins, and `Route::Differential`
    /// runs its evaluation legs concurrently. Results are identical
    /// either way (differentially tested).
    pub parallelism: Parallelism,
    /// Wall-clock deadline for this evaluation (default: none). The
    /// deadline is checked at coarse boundaries, and trips as
    /// [`crate::AxmlError::Budget`] with
    /// [`crate::BudgetKind::WallClock`] at the first one it finds
    /// passed:
    /// - when each evaluation route starts (every differential leg
    ///   counts as a route start);
    /// - in the direct and via-NRC plans, after every set-producing op
    ///   and every streamed piece — the boundaries where the
    ///   [`EvalOptions::memory_budget`] is charged;
    /// - every 1024 closures the subtree memo computes on an edited
    ///   document;
    /// - once per semi-naive Datalog round on the shredded route;
    /// - before every piece `PreparedQuery::eval_each` pushes (so every
    ///   piece the server streams and the cursor records), whichever
    ///   route produced it.
    ///
    /// It bounds scheduling unfairness, not individual instructions:
    /// the op or fixpoint round running when the deadline passes
    /// completes before the trip is observed.
    pub deadline: Option<Instant>,
    /// Memory budget for this evaluation, in logical tree nodes
    /// (default: none). One counter is shared across every leg and
    /// round of the evaluation: set-producing plan ops charge their
    /// output's node count, fixpoint rounds charge the round's derived
    /// tuples, and streamed pieces charge as they are emitted.
    /// Exceeding the budget trips as [`crate::AxmlError::Budget`] with
    /// [`crate::BudgetKind::Memory`] at the next boundary — like the
    /// deadline, it bounds unfairness, not individual operations, and
    /// intermediate sets count toward it (the budget tracks what the
    /// evaluation *produces*, which can exceed the final result size).
    pub memory_budget: Option<usize>,
    /// Scheduling lane hint for this evaluation's pool work (default:
    /// none — inherit the surrounding scope's lane, or
    /// [`Lane::Normal`]). With `Some(lane)`, every task the evaluation
    /// spawns — descendant-sweep chunks, Datalog round partitions,
    /// differential legs — is queued in that lane class of the pool's
    /// injector, and threads waiting on this evaluation's scopes only
    /// ever help with its own work (scope affinity; see the
    /// `axml-pool` crate docs). Purely a scheduling hint: results are
    /// byte-identical in every lane, and the sequential path ignores
    /// it entirely.
    pub lane: Option<Lane>,
}

impl EvalOptions {
    /// The defaults: provenance polynomials, direct route, sequential.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select the target semiring.
    pub fn semiring(mut self, k: SemiringKind) -> Self {
        self.semiring = k;
        self
    }

    /// Select the evaluation route.
    pub fn route(mut self, r: Route) -> Self {
        self.route = r;
        self
    }

    /// Evaluate symbolically in ℕ\[X\] and specialize the result
    /// (see [`EvalMode::ProvenanceFirst`]).
    pub fn provenance_first(mut self) -> Self {
        self.mode = EvalMode::ProvenanceFirst;
        self
    }

    /// Set the intra-query parallelism (see [`Parallelism`]).
    pub fn parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = p;
        self
    }

    /// Shorthand: fan this evaluation out across up to `n` parallel
    /// work streams (`0` = size to the global pool).
    pub fn parallel(self, n: usize) -> Self {
        self.parallelism(Parallelism::threads(n))
    }

    /// Set an absolute wall-clock deadline (see
    /// [`EvalOptions::deadline`]).
    pub fn deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Shorthand: a deadline `budget` from now. A budget too large to
    /// represent as an `Instant` means "no deadline".
    pub fn timeout(mut self, budget: Duration) -> Self {
        self.deadline = Instant::now().checked_add(budget);
        self
    }

    /// Cap the logical tree nodes this evaluation may produce (see
    /// [`EvalOptions::memory_budget`]).
    pub fn memory_budget(mut self, nodes: usize) -> Self {
        self.memory_budget = Some(nodes);
        self
    }

    /// Queue this evaluation's pool work in `lane` (see
    /// [`EvalOptions::lane`]).
    pub fn lane(mut self, lane: Lane) -> Self {
        self.lane = Some(lane);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for k in SemiringKind::ALL {
            assert_eq!(k.name().parse::<SemiringKind>(), Ok(k));
        }
        assert!("frobnitz".parse::<SemiringKind>().is_err());
    }

    #[test]
    fn route_names_roundtrip() {
        for r in [
            Route::Direct,
            Route::ViaNrc,
            Route::Shredded,
            Route::Differential,
        ] {
            assert_eq!(r.name().parse::<Route>(), Ok(r));
        }
        assert!("sideways".parse::<Route>().is_err());
    }

    #[test]
    fn mode_names_roundtrip() {
        for m in [EvalMode::InSemiring, EvalMode::ProvenanceFirst] {
            assert_eq!(m.name().parse::<EvalMode>(), Ok(m));
        }
        assert!("psychic".parse::<EvalMode>().is_err());
    }

    #[test]
    fn deadline_builders() {
        assert_eq!(EvalOptions::new().deadline, None);
        let at = Instant::now();
        assert_eq!(EvalOptions::new().deadline(at).deadline, Some(at));
        let o = EvalOptions::new().timeout(Duration::from_secs(3600));
        assert!(o.deadline.is_some_and(|d| d > at));
        // An unrepresentable budget degrades to "no deadline".
        assert_eq!(EvalOptions::new().timeout(Duration::MAX).deadline, None);
    }

    #[test]
    fn builder_sets_fields() {
        let o = EvalOptions::new()
            .semiring(SemiringKind::Why)
            .route(Route::Differential)
            .provenance_first()
            .lane(Lane::Cheap);
        assert_eq!(o.semiring, SemiringKind::Why);
        assert_eq!(o.route, Route::Differential);
        assert_eq!(o.mode, EvalMode::ProvenanceFirst);
        assert_eq!(o.lane, Some(Lane::Cheap));
        assert_eq!(EvalOptions::new().lane, None);
    }
}
