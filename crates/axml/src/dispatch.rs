//! Runtime → static dispatch: the bridge between [`SemiringKind`]
//! values and the workspace's compile-time `K: Semiring` generics.
//!
//! Each selectable kind implements [`EvalKind`]: the canonical
//! homomorphism out of ℕ\[X\] (documents and prepared queries are
//! stored symbolically, once), where the kind's specialized artifacts
//! and documents live, and how its values wrap into the kind-tagged
//! result types. The facade monomorphizes one evaluator per kind;
//! choosing a semiring at runtime is a `match` followed by a
//! `OnceLock` read and a root lookup in the kind's arena.

use crate::engine::{Engine, StoredDoc};
use crate::options::SemiringKind;
use crate::prepared::PreparedInner;
use crate::result::{AxmlResult, ResultPieceRef};
use axml_core::{compile_optimized, CompiledQuery, Query};
use axml_nrc::CompiledExpr;
use axml_semiring::trio::collapse::{natpoly_to_posbool, natpoly_to_trio, natpoly_to_why};
use axml_semiring::{FnHom, Nat, NatPoly, PosBool, Prob, Semiring, Trio, Tropical, Valuation, Why};
use axml_uxml::arena::{compact_mapped, intern_forest_mapped, ImageMemo};
use axml_uxml::{hom::map_value, Forest, Tree, TreeArena, Value};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything `prepare` produces for one semiring: the typed core
/// query and the normalized `NRC_K + srt` term (kept as the
/// differential reference interpretations), plus the slot-resolved
/// execution plans the `Direct` and `ViaNrc` routes actually run.
pub(crate) struct Artifacts<K: Semiring> {
    pub core: Query<K>,
    pub nrc: axml_nrc::Expr<K>,
    /// Compiled plan for the direct route (numeric frame slots).
    pub core_plan: CompiledQuery<K>,
    /// Compiled plan for the NRC route (slots + fused label tests,
    /// kids-flattening and descendant sweeps; iterative `srt`).
    pub nrc_plan: CompiledExpr<K>,
}

impl<K: Semiring> Artifacts<K> {
    /// Build all four artifacts from an elaborated core query.
    pub fn from_core(core: Query<K>) -> Self {
        let nrc = compile_optimized(&core);
        let core_plan = CompiledQuery::compile(&core);
        let nrc_plan = CompiledExpr::compile(&nrc);
        Artifacts {
            core,
            nrc,
            core_plan,
            nrc_plan,
        }
    }
}

impl Artifacts<NatPoly> {
    /// Push the ℕ\[X\] artifacts through a homomorphism and recompile
    /// the plans (plan lowering is linear in the term). The query is
    /// small (annotations occur only under `annot`), so this is cheap;
    /// it still runs at most once per kind per prepared query.
    pub fn specialize<S: EvalKind>(&self) -> Artifacts<S> {
        let h = FnHom::new(S::from_poly);
        let core = axml_core::hom::map_query(&h, &self.core);
        let nrc = axml_nrc::hom::map_expr(&h, &self.nrc);
        let core_plan = CompiledQuery::compile(&core);
        let nrc_plan = CompiledExpr::compile(&nrc);
        Artifacts {
            core,
            nrc,
            core_plan,
            nrc_plan,
        }
    }
}

/// Per-kind artifact cache on a prepared query. `NatPoly` is not here:
/// the symbolic artifacts are stored eagerly as the source of truth.
#[derive(Default)]
pub(crate) struct KindCaches {
    pub nat: OnceLock<Artifacts<Nat>>,
    pub posbool: OnceLock<Artifacts<PosBool>>,
    pub tropical: OnceLock<Artifacts<Tropical>>,
    pub why: OnceLock<Artifacts<Why>>,
    pub trio: OnceLock<Artifacts<Trio>>,
    pub prob: OnceLock<Artifacts<Prob>>,
}

/// One specialized kind's share of [`KindArenas`]: the kind's
/// hash-consing arena plus its **image memo**, which maps every
/// ℕ\[X\] subtree specialized into this kind since the last
/// compaction, or kept by it, to the id of its image in `arena`.
pub(crate) struct KindArena<S: Semiring> {
    pub arena: TreeArena<S>,
    pub images: ImageMemo<NatPoly>,
}

// Manual impls: `derive` would wrongly require `S: Default` /
// `S: Debug`, and a derived `Debug` would dump the whole memo.
impl<S: Semiring> Default for KindArena<S> {
    fn default() -> Self {
        KindArena {
            arena: TreeArena::default(),
            images: ImageMemo::default(),
        }
    }
}

impl<S: Semiring> std::fmt::Debug for KindArena<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KindArena")
            .field("arena", &self.arena)
            .field("images", &self.images.len())
            .finish()
    }
}

impl<S: EvalKind> KindArena<S> {
    /// `doc` pushed through the canonical homomorphism into this
    /// kind, over the arena's canonical handles. Only subtrees the
    /// image memo has not seen are mapped: a seen subtree costs one
    /// lookup, and nothing below it is visited.
    pub fn specialize(&mut self, doc: &Forest<NatPoly>) -> Arc<Forest<S>> {
        let h = FnHom::new(S::from_poly);
        let roots = intern_forest_mapped(&mut self.arena, &mut self.images, &h, doc);
        Arc::new(self.arena.canonical_forest(&roots))
    }
}

/// The engine's hash-consing arenas: one columnar [`TreeArena`] per
/// kind, shared across **all** documents in the store, so structurally
/// identical subtrees — within one document or between documents — are
/// interned once and every stored forest is built over canonical
/// `Arc` handles (equal subtrees are pointer-equal).
///
/// Each specialized kind's [`KindArena`] is also the engine's **only
/// specialization cache**. Its image memo maps an ℕ\[X\] subtree to
/// the id of its image, so specializing a document maps only what the
/// memo has not seen: the whole document on its first read, only the
/// new spine after an edit (every other subtree of the edited version
/// is a canonical handle the previous version already had), and only
/// the root lookups on a repeat read. The memo is sound on its own:
/// each entry holds a clone of its key tree, so a keyed pointer stays
/// allocated for as long as the entry and can never be reused by
/// another tree.
///
/// The `Mutex` is held while loading, editing or specializing a
/// document; evaluation never touches an arena (it runs on the
/// canonical handles). Locks are taken in the order `poly` → store
/// shard → specialized kinds.
///
/// **Compaction.** Every document write (load, replace, edit, remove)
/// runs with `poly` locked through its publish, then asks
/// [`TreeArena::compaction_due`]. When it is due, the engine compacts
/// `poly` down to the rows the stored documents reach, and then
/// [`KindArenas::compact_images`] compacts each kind: memo entries
/// whose ℕ\[X\] source row was dropped go (releasing the source trees
/// they kept alive), the kind's arena keeps only the images of the
/// entries left, and those entries' ids are remapped. Liveness comes
/// from the published documents alone, and reads never compact, so
/// where compactions happen depends only on the sequence of writes.
/// In-flight snapshots stay valid: they own their `Arc` handles.
#[derive(Debug, Default)]
pub(crate) struct KindArenas {
    pub poly: Mutex<TreeArena<NatPoly>>,
    pub nat: Mutex<KindArena<Nat>>,
    pub posbool: Mutex<KindArena<PosBool>>,
    pub tropical: Mutex<KindArena<Tropical>>,
    pub why: Mutex<KindArena<Why>>,
    pub trio: Mutex<KindArena<Trio>>,
    pub prob: Mutex<KindArena<Prob>>,
}

impl KindArenas {
    /// Compact every specialized kind against the just-compacted
    /// ℕ\[X\] arena (see the type docs). Takes each kind's lock in
    /// turn; the caller holds `poly`.
    pub fn compact_images(&self, poly: &TreeArena<NatPoly>) {
        fn compact<S: Semiring>(slot: &Mutex<KindArena<S>>, poly: &TreeArena<NatPoly>) {
            let mut kind = slot.lock().unwrap_or_else(|e| e.into_inner());
            let KindArena { arena, images } = &mut *kind;
            compact_mapped(arena, images, |source| poly.handle_id(source).is_some());
        }
        compact(&self.nat, poly);
        compact(&self.posbool, poly);
        compact(&self.tropical, poly);
        compact(&self.why, poly);
        compact(&self.trio, poly);
        compact(&self.prob, poly);
    }

    /// Image-memo entries per specialized kind.
    pub fn image_memo_entries(&self) -> [(SemiringKind, usize); 6] {
        fn entries<S: EvalKind>(slot: &Mutex<KindArena<S>>) -> (SemiringKind, usize) {
            let kind = slot.lock().unwrap_or_else(|e| e.into_inner());
            (S::KIND, kind.images.len())
        }
        [
            entries(&self.nat),
            entries(&self.posbool),
            entries(&self.tropical),
            entries(&self.why),
            entries(&self.trio),
            entries(&self.prob),
        ]
    }
}

/// A runtime-selectable semiring: the hooks one kind needs to take
/// part in evaluation — the canonical homomorphism out of ℕ\[X\],
/// where its compiled artifacts live, how a stored document projects
/// into it, how its values wrap into the kind-tagged result types.
/// ℕ\[X\] implements it by hand (its artifacts and documents *are* the
/// source of truth); `eval_kind!` implements it for the six
/// specialized kinds. Together with `with_kind!` this is what lets
/// every evaluation entry point share one generic body instead of
/// seven match arms.
pub(crate) trait EvalKind: Semiring {
    /// The runtime tag.
    const KIND: SemiringKind;
    /// The canonical homomorphism ℕ\[X\] → Self (see
    /// [`SemiringKind`]'s table) — also the value-level map the
    /// incremental layer uses on ±Δ facts.
    fn from_poly(p: &NatPoly) -> Self;
    /// This kind's evaluation artifacts (specializing and caching on
    /// first use where applicable).
    fn artifacts(inner: &PreparedInner) -> &Artifacts<Self>;
    /// A stored document projected into this kind.
    fn project_doc(engine: &Engine, doc: &Arc<StoredDoc>) -> Arc<Forest<Self>>;
    /// Tag a value of this kind as an [`AxmlResult`].
    fn wrap_value(v: Value<Self>) -> AxmlResult;
    /// Tag one borrowed piece of this kind as a [`ResultPieceRef`].
    fn piece_ref<'a>(t: &'a Tree<Self>, k: &'a Self) -> ResultPieceRef<'a>;
    /// Push a symbolic (ℕ\[X\]) result through the canonical
    /// homomorphism into this kind.
    fn specialize_value(sym: &Value<NatPoly>) -> Value<Self> {
        map_value(&FnHom::new(Self::from_poly), sym)
    }
}

impl EvalKind for NatPoly {
    const KIND: SemiringKind = SemiringKind::NatPoly;
    fn from_poly(p: &NatPoly) -> NatPoly {
        p.clone()
    }
    fn artifacts(inner: &PreparedInner) -> &Artifacts<NatPoly> {
        &inner.poly
    }
    fn project_doc(_engine: &Engine, doc: &Arc<StoredDoc>) -> Arc<Forest<NatPoly>> {
        doc.poly.clone()
    }
    fn wrap_value(v: Value<NatPoly>) -> AxmlResult {
        AxmlResult::NatPoly(v)
    }
    fn piece_ref<'a>(t: &'a Tree<NatPoly>, k: &'a NatPoly) -> ResultPieceRef<'a> {
        ResultPieceRef::NatPoly(t, k)
    }
}

/// Implement [`EvalKind`] for a specialized kind: `$k` names the type
/// and its `SemiringKind` / result variants, `$slot` its
/// [`KindCaches`] and [`KindArenas`] field.
macro_rules! eval_kind {
    ($k:ident, $slot:ident, $from:expr) => {
        impl EvalKind for $k {
            const KIND: SemiringKind = SemiringKind::$k;
            fn from_poly(p: &NatPoly) -> Self {
                ($from)(p)
            }
            fn artifacts(inner: &PreparedInner) -> &Artifacts<Self> {
                inner
                    .caches
                    .$slot
                    .get_or_init(|| inner.poly.specialize::<$k>())
            }
            fn project_doc(engine: &Engine, doc: &Arc<StoredDoc>) -> Arc<Forest<Self>> {
                engine
                    .arenas
                    .$slot
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .specialize(&doc.poly)
            }
            fn wrap_value(v: Value<Self>) -> AxmlResult {
                AxmlResult::$k(v)
            }
            fn piece_ref<'a>(t: &'a Tree<Self>, k: &'a Self) -> ResultPieceRef<'a> {
                ResultPieceRef::$k(t, k)
            }
        }
    };
}

eval_kind!(Nat, nat, |p: &NatPoly| p.eval(&Valuation::<Nat>::new()));
eval_kind!(PosBool, posbool, natpoly_to_posbool);
eval_kind!(Tropical, tropical, |p: &NatPoly| p
    .eval(&Valuation::<Tropical>::new()));
eval_kind!(Why, why, natpoly_to_why);
eval_kind!(Trio, trio, natpoly_to_trio);
eval_kind!(Prob, prob, |p: &NatPoly| p.eval(&Valuation::<Prob>::new()));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_homs_preserve_units() {
        // The dispatch homomorphisms must map 0 ↦ 0 and 1 ↦ 1 — the
        // full hom laws are property-tested in `axml-semiring`.
        fn check<S: EvalKind>() {
            assert_eq!(S::from_poly(&NatPoly::zero()), S::zero());
            assert_eq!(S::from_poly(&NatPoly::one()), S::one());
        }
        check::<Nat>();
        check::<PosBool>();
        check::<Tropical>();
        check::<Why>();
        check::<Trio>();
        check::<Prob>();
    }

    #[test]
    fn nat_hom_counts_derivations() {
        let p: NatPoly = "x*y + 2*z".parse().unwrap();
        assert_eq!(Nat::from_poly(&p), Nat(3));
    }
}
