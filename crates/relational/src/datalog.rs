//! Positive Datalog over K-relations, extended with Skolem functions in
//! rule heads (§7).
//!
//! Facts carry semiring annotations. The annotation of a derived fact
//! under one rule and one substitution is the *product* of the body
//! facts' annotations; alternatives (different rules or substitutions)
//! *add*. The iterate `Iₙ` therefore sums the annotations of all
//! derivation trees of depth ≤ n, and on tree-shaped data (like the §7
//! edge encoding) it stabilizes after at most `depth` iterations even
//! for ℕ\[X\]; a configurable iteration cap guards against
//! non-converging inputs (cyclic data with a non-idempotent semiring).
//!
//! Two evaluators compute that iterate:
//!
//! - [`eval_datalog`] — **semi-naive**: per-predicate delta relations
//!   and hash-indexed joins (see the crate-level "Performance"
//!   section). Each round derives only the annotations of derivation
//!   trees of the *new* depth, partitioned exactly (by the first body
//!   position of maximal depth) so nothing is double-counted in
//!   non-idempotent semirings; deltas absorbed by the accumulated
//!   iterate are pruned, which is what terminates recursion over
//!   cyclic data in idempotent semirings.
//! - [`eval_datalog_naive`] — the naïve fixpoint kept verbatim as an
//!   independent reference: every IDB relation is recomputed from the
//!   previous iterate until nothing changes. Property tests
//!   (`tests/seminaive.rs`) check the two agree on random programs.
//!
//! Both run the same upfront validation (the private `compile` pass), so malformed
//! programs (unsafe heads, Skolem terms in bodies, EDB/IDB overlap,
//! arity mismatches, unknown predicates) fail identically on either
//! path.

use crate::krel::{KRelation, RelIndex, RelValue, Schema, Tuple};
use crate::ra::Database;
use axml_semiring::Semiring;
use axml_uxml::{Exec, Label};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A term in a rule: variable, constant, or Skolem application.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Term {
    /// A variable.
    Var(String),
    /// A constant value.
    Const(RelValue),
    /// A Skolem function applied to terms (head positions only).
    Skolem(String, Vec<Term>),
}

/// Variable term.
pub fn v(name: &str) -> Term {
    Term::Var(name.into())
}

/// Label-constant term.
pub fn lbl(name: &str) -> Term {
    Term::Const(RelValue::label(name))
}

/// Node-id constant term.
pub fn node(n: u64) -> Term {
    Term::Const(RelValue::Node(n))
}

/// Skolem application term.
pub fn sk<I: IntoIterator<Item = Term>>(f: &str, args: I) -> Term {
    Term::Skolem(f.into(), args.into_iter().collect())
}

/// An atom `P(t₁, …, tₙ)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Atom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub args: Vec<Term>,
}

/// Build an atom.
pub fn atom<I: IntoIterator<Item = Term>>(pred: &str, args: I) -> Atom {
    Atom {
        pred: pred.into(),
        args: args.into_iter().collect(),
    }
}

/// A rule `head :- body₁, …, bodyₙ` (positive bodies only).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Rule {
    /// The head atom (may contain Skolem terms).
    pub head: Atom,
    /// The body atoms (no Skolem terms).
    pub body: Vec<Atom>,
}

impl Rule {
    /// Build a rule.
    pub fn new<I: IntoIterator<Item = Atom>>(head: Atom, body: I) -> Self {
        Rule {
            head,
            body: body.into_iter().collect(),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", fmt_atom(&self.head))?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            let mut first = true;
            for a in &self.body {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{}", fmt_atom(a))?;
            }
        }
        write!(f, ".")
    }
}

fn fmt_atom(a: &Atom) -> String {
    let args: Vec<String> = a.args.iter().map(fmt_term).collect();
    format!("{}({})", a.pred, args.join(","))
}

fn fmt_term(t: &Term) -> String {
    match t {
        Term::Var(x) => x.clone(),
        Term::Const(c) => c.to_string(),
        Term::Skolem(f, args) => {
            let inner: Vec<String> = args.iter().map(fmt_term).collect();
            format!("{f}({})", inner.join(","))
        }
    }
}

/// A Datalog program: rules plus the declared arity of each IDB
/// predicate (needed to create empty relations).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Program {
    /// The rules.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Build from rules.
    pub fn new<I: IntoIterator<Item = Rule>>(rules: I) -> Self {
        Program {
            rules: rules.into_iter().collect(),
        }
    }

    /// IDB predicate names (those appearing in heads) with arities.
    pub fn idb_preds(&self) -> BTreeMap<String, usize> {
        self.rules
            .iter()
            .map(|r| (r.head.pred.clone(), r.head.args.len()))
            .collect()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

/// Evaluation error (non-convergence, malformed rules, or an exceeded
/// wall-clock deadline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatalogError {
    /// Description.
    pub msg: String,
    /// `true` when the error is a caller-imposed resource limit
    /// tripping at a fixpoint round boundary (see
    /// [`eval_datalog_idb`]), not a Datalog-level
    /// failure — the facade maps it to its typed budget error.
    pub budget: bool,
    /// For budget errors, `true` when the limit was the memory budget
    /// rather than the wall-clock deadline (the facade maps the two
    /// to different resource kinds).
    pub memory: bool,
}

impl DatalogError {
    /// A Datalog-level failure.
    pub fn new(msg: impl Into<String>) -> Self {
        DatalogError {
            msg: msg.into(),
            budget: false,
            memory: false,
        }
    }

    /// A wall-clock deadline trip.
    pub fn deadline() -> Self {
        DatalogError {
            msg: "wall-clock deadline exceeded during the fixpoint".into(),
            budget: true,
            memory: false,
        }
    }

    /// A memory budget trip.
    pub fn memory() -> Self {
        DatalogError {
            msg: "memory budget exceeded during the fixpoint".into(),
            budget: true,
            memory: true,
        }
    }
}

impl fmt::Display for DatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "datalog error: {}", self.msg)
    }
}

impl std::error::Error for DatalogError {}

fn err<T>(msg: impl Into<String>) -> Result<T, DatalogError> {
    Err(DatalogError::new(msg))
}

/// Default iteration cap (far above any tree depth in this workspace).
pub const DEFAULT_MAX_ITERS: usize = 10_000;

// ---------------------------------------------------------------------
// Compilation: resolve predicates, number variables, split every body
// atom into probe-key columns / fresh bindings / equality checks.
// ---------------------------------------------------------------------

/// A resolved predicate: index into the EDB name table or the IDB
/// iterate vectors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Pred {
    Edb(usize),
    Idb(usize),
}

/// One component of an atom's probe key (a column whose value is known
/// before the atom is joined).
#[derive(Clone, Debug)]
enum KeyPart {
    Const(RelValue),
    Slot(usize),
}

/// A within-atom equality check: the column must equal a slot bound by
/// an *earlier column of the same atom* (repeated variables).
#[derive(Clone, Debug)]
struct SlotCheck {
    col: usize,
    slot: usize,
}

/// A body atom, join-ready.
#[derive(Clone, Debug)]
struct CAtom {
    pred: Pred,
    /// Columns with values known before this atom is reached, and how
    /// to produce them. Probed through a [`RelIndex`] on `key_cols`;
    /// empty = full scan.
    key_cols: Vec<usize>,
    key_parts: Vec<KeyPart>,
    /// `(column, slot)` first occurrences of variables: bound per row.
    binds: Vec<(usize, usize)>,
    /// Repeated variables within this atom.
    checks: Vec<SlotCheck>,
}

/// A head position: how to build the output value from the slots.
#[derive(Clone, Debug)]
enum HeadInstr {
    Const(RelValue),
    Slot(usize),
    Skolem(Label, Vec<HeadInstr>),
}

#[derive(Clone, Debug)]
struct CRule {
    head_pred: usize,
    head: Vec<HeadInstr>,
    atoms: Vec<CAtom>,
    /// Positions in `atoms` that read an IDB predicate.
    idb_positions: Vec<usize>,
    n_slots: usize,
}

/// A validated, join-ready program.
struct Compiled {
    idb_names: Vec<String>,
    idb_arities: Vec<usize>,
    rules: Vec<CRule>,
    /// Per IDB predicate: does any semi-naive variant read its
    /// *previous* iterate? Only predicates at a non-final IDB position
    /// of a multi-IDB body do; for linear programs (at most one IDB
    /// atom per body — every ψ output) this is all-false and the
    /// evaluator never copies an iterate.
    needs_prev: Vec<bool>,
    /// Per IDB predicate: does it occur in any rule body? Output-only
    /// predicates (ψ's `E2`) never have their delta re-read, so the
    /// delta is *moved* into the iterate instead of cloned.
    idb_in_body: Vec<bool>,
}

/// Validate and compile `prog` against the EDB's schemas. All rule
/// malformations are reported here, before any iteration runs, so the
/// semi-naive and naive evaluators fail identically.
fn compile<K: Semiring>(prog: &Program, edb: &Database<K>) -> Result<Compiled, DatalogError> {
    let edb_names: Vec<&String> = edb.iter().map(|(n, _)| n).collect();
    let edb_index: HashMap<&str, usize> = edb_names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();

    // IDB predicates, with arity consistency across heads.
    let mut idb_names: Vec<String> = Vec::new();
    let mut idb_arities: Vec<usize> = Vec::new();
    let mut idb_index: HashMap<String, usize> = HashMap::new();
    for rule in &prog.rules {
        let pred = &rule.head.pred;
        if edb_index.contains_key(pred.as_str()) {
            return err(format!("predicate {pred:?} is both EDB and IDB"));
        }
        match idb_index.get(pred.as_str()) {
            Some(&i) => {
                if idb_arities[i] != rule.head.args.len() {
                    return err(format!("arity mismatch on {pred:?}"));
                }
            }
            None => {
                idb_index.insert(pred.clone(), idb_names.len());
                idb_names.push(pred.clone());
                idb_arities.push(rule.head.args.len());
            }
        }
    }

    let mut rules = Vec::with_capacity(prog.rules.len());
    for rule in &prog.rules {
        let mut slots: HashMap<&str, usize> = HashMap::new();
        let mut n_slots = 0usize;
        let mut atoms = Vec::with_capacity(rule.body.len());
        let mut idb_positions = Vec::new();
        for (pos, batom) in rule.body.iter().enumerate() {
            let (pred, arity) = match idb_index.get(batom.pred.as_str()) {
                Some(&i) => (Pred::Idb(i), idb_arities[i]),
                None => match edb_index.get(batom.pred.as_str()) {
                    Some(&i) => (
                        Pred::Edb(i),
                        edb.get(edb_names[i]).expect("edb name").schema().arity(),
                    ),
                    None => return err(format!("unknown predicate {:?}", batom.pred)),
                },
            };
            if batom.args.len() != arity {
                return err(format!("arity mismatch on {:?}", batom.pred));
            }
            if matches!(pred, Pred::Idb(_)) {
                idb_positions.push(pos);
            }
            let mut ca = CAtom {
                pred,
                key_cols: Vec::new(),
                key_parts: Vec::new(),
                binds: Vec::new(),
                checks: Vec::new(),
            };
            let mut bound_here: Vec<&str> = Vec::new();
            for (col, term) in batom.args.iter().enumerate() {
                match term {
                    Term::Const(c) => {
                        ca.key_cols.push(col);
                        ca.key_parts.push(KeyPart::Const(c.clone()));
                    }
                    Term::Var(x) => match slots.get(x.as_str()) {
                        Some(&s) if !bound_here.contains(&x.as_str()) => {
                            // bound by an earlier atom: part of the key
                            ca.key_cols.push(col);
                            ca.key_parts.push(KeyPart::Slot(s));
                        }
                        Some(&s) => ca.checks.push(SlotCheck { col, slot: s }),
                        None => {
                            let s = n_slots;
                            n_slots += 1;
                            slots.insert(x.as_str(), s);
                            bound_here.push(x.as_str());
                            ca.binds.push((col, s));
                        }
                    },
                    Term::Skolem(..) => return err("Skolem terms may appear only in rule heads"),
                }
            }
            atoms.push(ca);
        }
        let head = rule
            .head
            .args
            .iter()
            .map(|t| compile_head_term(t, &slots))
            .collect::<Result<Vec<_>, _>>()?;
        rules.push(CRule {
            head_pred: idb_index[rule.head.pred.as_str()],
            head,
            atoms,
            idb_positions,
            n_slots,
        });
    }
    let mut needs_prev = vec![false; idb_names.len()];
    let mut idb_in_body = vec![false; idb_names.len()];
    for rule in &rules {
        if rule.idb_positions.len() >= 2 {
            for &pos in &rule.idb_positions[..rule.idb_positions.len() - 1] {
                if let Pred::Idb(i) = rule.atoms[pos].pred {
                    needs_prev[i] = true;
                }
            }
        }
        for atom in &rule.atoms {
            if let Pred::Idb(i) = atom.pred {
                idb_in_body[i] = true;
            }
        }
    }
    Ok(Compiled {
        idb_names,
        idb_arities,
        rules,
        needs_prev,
        idb_in_body,
    })
}

fn compile_head_term(t: &Term, slots: &HashMap<&str, usize>) -> Result<HeadInstr, DatalogError> {
    match t {
        Term::Const(c) => Ok(HeadInstr::Const(c.clone())),
        Term::Var(x) => match slots.get(x.as_str()) {
            Some(&s) => Ok(HeadInstr::Slot(s)),
            None => err(format!(
                "unsafe rule: head variable {x:?} not bound by the body"
            )),
        },
        Term::Skolem(f, args) => {
            let inner = args
                .iter()
                .map(|a| compile_head_term(a, slots))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(HeadInstr::Skolem(Label::new(f), inner))
        }
    }
}

// ---------------------------------------------------------------------
// Semi-naive evaluation.
// ---------------------------------------------------------------------

/// Which iterate a body atom reads during one join variant.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Src {
    /// The fixed EDB relation.
    Edb,
    /// The current iterate `Iₙ`.
    Full,
    /// The previous iterate `Iₙ₋₁`.
    Prev,
    /// The last delta `Δₙ`.
    Delta,
}

/// The relations visible during one round, plus probe indexes. EDB
/// indexes are built once per evaluation (the EDB never changes) and
/// borrowed here; IDB indexes are built lazily per round. All
/// relations are immutable for the lifetime of the round.
struct Round<'a, K: Semiring> {
    edb_rels: &'a [&'a KRelation<K>],
    edb_indexes: &'a HashMap<(usize, Vec<usize>), RelIndex<'a, K>>,
    full: &'a [KRelation<K>],
    prev: &'a [KRelation<K>],
    delta: &'a [KRelation<K>],
    idb_indexes: HashMap<(Src, usize, Vec<usize>), RelIndex<'a, K>>,
}

impl<'a, K: Semiring> Round<'a, K> {
    fn rel(&self, src: Src, pred: Pred) -> &'a KRelation<K> {
        match (src, pred) {
            (Src::Edb, Pred::Edb(i)) => self.edb_rels[i],
            (Src::Full, Pred::Idb(i)) => &self.full[i],
            (Src::Prev, Pred::Idb(i)) => &self.prev[i],
            (Src::Delta, Pred::Idb(i)) => &self.delta[i],
            _ => unreachable!("EDB atoms always read Src::Edb"),
        }
    }

    /// Make sure every keyed IDB atom of the variant has its index
    /// built (indexes are shared across variants and rules within a
    /// round; EDB indexes are prebuilt). Variants driven by a tiny
    /// relation skip the builds — [`Round::join`] scan-probes keyed
    /// atoms whose index is absent (see [`SCAN_PROBE_MAX`]).
    fn prepare(&mut self, rule: &CRule, srcs: &[Src]) {
        let tiny_driver = rule
            .atoms
            .first()
            .map(|a0| self.rel(srcs[0], a0.pred).len() <= SCAN_PROBE_MAX)
            .unwrap_or(true);
        if tiny_driver {
            return;
        }
        for (atom, &src) in rule.atoms.iter().zip(srcs) {
            let Pred::Idb(p) = atom.pred else { continue };
            if atom.key_cols.is_empty() {
                continue;
            }
            let key = (src, p, atom.key_cols.clone());
            if !self.idb_indexes.contains_key(&key) {
                let idx = self.rel(src, atom.pred).index_on(&atom.key_cols);
                self.idb_indexes.insert(key, idx);
            }
        }
    }

    /// Depth-first indexed join over the rule body, one source per
    /// atom, accumulating derived tuples (with annotation products)
    /// into `out` — the head predicate's *delta*. Contributions
    /// already absorbed by the accumulated iterate
    /// (`I[t] + k = I[t]`) are pruned here, per derivation: sound
    /// because in every semiring of this workspace absorption of a
    /// sum and absorption of its parts coincide (zero-sum-free, and
    /// `+` restricted to absorbed elements is a join).
    /// [`Round::prepare`] must have run for this variant.
    /// `seed0`, when given, restricts the first atom's scan to the
    /// listed tuples — the probe-chunk hook the parallel round uses to
    /// split one variant's outer loop across workers (only full-scan
    /// first atoms are chunked; an indexed first atom probes as usual).
    fn join(
        &self,
        rule: &CRule,
        srcs: &[Src],
        seed0: Option<&[(&'a Tuple, &'a K)]>,
        out: &mut KRelation<K>,
    ) {
        // Resolve each atom's index once, not per probe. A keyed atom
        // may have no index (tiny-driver variant, see `prepare`) — the
        // recursion scan-probes it instead.
        let indexes: Vec<Option<&RelIndex<'a, K>>> = rule
            .atoms
            .iter()
            .zip(srcs)
            .map(|(atom, &src)| {
                if atom.key_cols.is_empty() {
                    return None;
                }
                match atom.pred {
                    Pred::Edb(i) => self.edb_indexes.get(&(i, atom.key_cols.clone())),
                    Pred::Idb(i) => self.idb_indexes.get(&(src, i, atom.key_cols.clone())),
                }
            })
            .collect();
        let mut slots: Vec<Option<RelValue>> = vec![None; rule.n_slots];
        self.join_from(rule, srcs, &indexes, seed0, 0, &mut slots, K::one(), out);
    }

    #[allow(clippy::too_many_arguments)] // internal recursion, all state is positional
    fn join_from(
        &self,
        rule: &CRule,
        srcs: &[Src],
        indexes: &[Option<&RelIndex<'a, K>>],
        seed0: Option<&[(&'a Tuple, &'a K)]>,
        i: usize,
        slots: &mut Vec<Option<RelValue>>,
        ann: K,
        out: &mut KRelation<K>,
    ) {
        if i == rule.atoms.len() {
            let tuple: Tuple = rule.head.iter().map(|h| ground(h, slots)).collect();
            let keep = match self.full[rule.head_pred].rows().get_ref(&tuple) {
                None => true,
                Some(cur) => cur.plus(&ann) != *cur,
            };
            if keep {
                out.insert(tuple, ann);
            }
            return;
        }
        let atom = &rule.atoms[i];
        let mut step = |tuple: &Tuple, k: &K, slots: &mut Vec<Option<RelValue>>| {
            for &(col, slot) in &atom.binds {
                slots[slot] = Some(tuple[col].clone());
            }
            let ok = atom
                .checks
                .iter()
                .all(|c| slots[c.slot].as_ref() == Some(&tuple[c.col]));
            if ok {
                let next_ann = if k.is_one() {
                    ann.clone()
                } else {
                    ann.times(k)
                };
                self.join_from(rule, srcs, indexes, seed0, i + 1, slots, next_ann, out);
            }
            for &(_, slot) in &atom.binds {
                slots[slot] = None;
            }
        };
        if i == 0 {
            if let Some(seeds) = seed0 {
                for &(tuple, k) in seeds {
                    step(tuple, k, slots);
                }
                return;
            }
        }
        let ground_key = |slots: &Vec<Option<RelValue>>| -> Vec<RelValue> {
            atom.key_parts
                .iter()
                .map(|p| match p {
                    KeyPart::Const(c) => c.clone(),
                    KeyPart::Slot(s) => slots[*s].clone().expect("key slot bound"),
                })
                .collect()
        };
        match indexes[i] {
            None if atom.key_cols.is_empty() => {
                for (tuple, k) in self.rel(srcs[i], atom.pred).iter() {
                    step(tuple, k, slots);
                }
            }
            None => {
                // Keyed atom without an index (tiny-driver variant):
                // scan the relation, filtering on the key columns.
                let key = ground_key(slots);
                for (tuple, k) in self.rel(srcs[i], atom.pred).iter() {
                    if atom.key_cols.iter().zip(&key).all(|(&c, v)| tuple[c] == *v) {
                        step(tuple, k, slots);
                    }
                }
            }
            Some(idx) => {
                let key = ground_key(slots);
                for &(tuple, k) in idx.probe(&key) {
                    step(tuple, k, slots);
                }
            }
        }
    }
}

fn ground(h: &HeadInstr, slots: &[Option<RelValue>]) -> RelValue {
    match h {
        HeadInstr::Const(c) => c.clone(),
        HeadInstr::Slot(s) => slots[*s].clone().expect("head slot bound (checked)"),
        HeadInstr::Skolem(f, args) => {
            RelValue::Skolem(*f, args.iter().map(|a| ground(a, slots)).collect())
        }
    }
}

/// Positional schema `c0, c1, …` for IDB relations.
fn anon_schema(arity: usize) -> Schema {
    Schema::new((0..arity).map(|i| format!("c{i}")))
}

/// Evaluate `prog` over the EDB `db` (semi-naive, sequential, no
/// limits), returning EDB ∪ IDB.
pub fn eval_datalog<K: Semiring>(
    prog: &Program,
    db: &Database<K>,
) -> Result<Database<K>, DatalogError> {
    let idb = eval_datalog_idb(prog, db, DEFAULT_MAX_ITERS, &Exec::default())?;
    let mut out = db.clone();
    for (p, r) in idb {
        out.insert(&p, r);
    }
    Ok(out)
}

/// A join variant's full scan is only worth chunking across workers
/// once the scanned relation reaches this many tuples per chunk.
const PAR_JOIN_MIN_TUPLES: usize = 64;

/// A variant whose driving (first) atom holds at most this many tuples
/// skips building hash indexes for its keyed atoms and scan-probes them
/// instead: a handful of O(n) filtered scans is far cheaper than an
/// O(n) *allocating* index build that only a handful of probes would
/// ever consult. This is what makes resumed fixpoints
/// ([`eval_datalog_idb_resume`]) cost O(Δ·n) comparisons instead of
/// O(n) allocations per round when the edit delta is tiny.
const SCAN_PROBE_MAX: usize = 16;

/// Semi-naive evaluation returning only the derived IDB relations
/// (callers that own the EDB skip a database copy), with an explicit
/// iteration cap.
///
/// Round n derives exactly the annotations of depth-n derivation
/// trees: every rule with m IDB body atoms is evaluated in m variants,
/// the j-th reading `Iₙ₋₂` before position j, `Δₙ₋₁` at j, and `Iₙ₋₁`
/// after it — a partition of the depth-n trees by their first
/// maximal-depth subderivation, so annotations are counted exactly
/// once. A delta entry whose addition would not change the iterate
/// (`I\[t\] + δ = I\[t\]`) is pruned; the fixpoint is reached when a
/// round's whole delta is pruned. In every semiring of this workspace
/// (all are zero-sum-free, and absorption distributes over `+`/`·`)
/// this computes the same iterate sequence and the same fixpoint as
/// [`eval_datalog_naive`].
///
/// `x` carries the call's execution state:
/// - with a non-sequential context every round fans its rule
///   variants — and, for variants whose first body atom is a full
///   scan, chunks of that scan — out over the context's pool, merging
///   the per-task deltas with [`KRelation::union_with`]. Identical
///   iterates and fixpoint (the absorption check reads the immutable
///   previous iterate, and delta merging is the same commutative `+`);
/// - the deadline is checked at the top of every round: a round that
///   starts after it has passed aborts with [`DatalogError::deadline`]
///   (rounds already running complete, so abandonment is per round);
/// - the budget is charged at the end of every round with the round's
///   delta (one unit per derived tuple — the relational analog of a
///   logical tree node); a trip aborts with [`DatalogError::memory`].
pub fn eval_datalog_idb<K: Semiring>(
    prog: &Program,
    edb: &Database<K>,
    max_iters: usize,
    x: &Exec<'_>,
) -> Result<BTreeMap<String, KRelation<K>>, DatalogError> {
    let compiled = compile(prog, edb)?;
    let n_idb = compiled.idb_names.len();
    // One schema per predicate for the whole run (Schema is Arc-shared;
    // rebuilding it would allocate column names every round).
    let schemas: Vec<Schema> = compiled
        .idb_arities
        .iter()
        .map(|&n| anon_schema(n))
        .collect();
    let full = empty_rels::<K>(&schemas);
    let prev = empty_rels::<K>(&schemas);
    let prev_fresh = vec![true; n_idb];
    let edb_rels: Vec<&KRelation<K>> = edb.iter().map(|(_, r)| r).collect();

    // The EDB never changes: build each (relation, key-columns) probe
    // index exactly once for the whole evaluation.
    let edb_indexes = build_edb_indexes(&compiled.rules, &edb_rels);

    if max_iters == 0 {
        return no_fixpoint(0);
    }
    if x.past_deadline() {
        return Err(DatalogError::deadline());
    }
    // Round 0: depth-1 derivations — all-EDB bodies only.
    let zero = empty_rels::<K>(&schemas);
    let mut next_delta;
    {
        let mut round = Round {
            edb_rels: &edb_rels,
            edb_indexes: &edb_indexes,
            full: &full,
            prev: &prev,
            delta: &zero,
            idb_indexes: HashMap::new(),
        };
        let items: Vec<(usize, Vec<Src>)> = compiled
            .rules
            .iter()
            .enumerate()
            .filter(|(_, rule)| rule.idb_positions.is_empty())
            .map(|(ri, rule)| (ri, vec![Src::Edb; rule.atoms.len()]))
            .collect();
        next_delta = execute_round(&compiled.rules, &schemas, &mut round, &items, x);
    }
    charge_round(x, &next_delta)?;
    let mut full = full;
    let mut prev = prev;
    let mut prev_fresh = prev_fresh;
    if !merge_round(
        &compiled,
        &schemas,
        &mut full,
        &mut prev,
        &mut prev_fresh,
        &mut next_delta,
    ) {
        return Ok(named_idb(&compiled, full));
    }
    drive_rounds(
        &compiled,
        &schemas,
        &edb_rels,
        &edb_indexes,
        full,
        prev,
        prev_fresh,
        next_delta,
        max_iters - 1,
        max_iters,
        x,
    )
}

/// Resume a semi-naive fixpoint after an EDB delta: given the retained
/// IDB fixpoint over `edb[changed] \ added` (the caller has already
/// removed every tuple invalidated by deletions — see
/// `crate::ivm`), derive exactly the contributions of derivation trees
/// that use at least one `added` fact, on top of the retained iterate.
///
/// Correctness requires the caller's two invariants:
/// - `retained` **is** the least fixpoint of `prog` over the EDB with
///   `added` removed from the `changed` relation (sums over derivation
///   trees that avoid every added fact), and
/// - `added` is tuple-disjoint from the old `changed` relation (no
///   annotation of a retained tuple needs revising in place).
///
/// The seeding round fires each rule that mentions `changed` once, with
/// that atom scanning only the added facts (bodies are re-planned so
/// the added-facts atom drives the join and everything else is probed),
/// IDB atoms reading the retained iterate. Later rounds are ordinary
/// semi-naive IDB-delta rounds over the full new EDB — the same
/// partition-by-first-maximal-depth argument as the fresh evaluator,
/// with "depth" counted from the resume point, so every tree using an
/// added fact is counted exactly once and no tree is counted twice.
///
/// Each rule body may mention `changed` at most once (ψ programs
/// guarantee this); two occurrences would need the pre-delta relation
/// for exact seeding, which semirings without subtraction cannot
/// recover, so that case is rejected.
///
/// `x` is honoured exactly as by [`eval_datalog_idb`].
pub fn eval_datalog_idb_resume<K: Semiring>(
    prog: &Program,
    edb: &Database<K>,
    changed: &str,
    added: &KRelation<K>,
    retained: BTreeMap<String, KRelation<K>>,
    max_iters: usize,
    x: &Exec<'_>,
) -> Result<BTreeMap<String, KRelation<K>>, DatalogError> {
    let compiled = compile(prog, edb)?;
    let Some(changed_idx) = edb.iter().position(|(n, _)| n == changed) else {
        return err(format!("resume: unknown EDB relation {changed:?}"));
    };
    for rule in &prog.rules {
        if rule.body.iter().filter(|a| a.pred == changed).count() > 1 {
            return err(format!(
                "resume: rule {rule} mentions {changed:?} more than once \
                 (exact delta seeding needs the pre-delta relation)"
            ));
        }
    }
    // The seeding variants: each body rotated so the changed atom joins
    // first (the delta drives the join; everything else is probed).
    // Rules without the changed atom are kept verbatim — and never
    // fired in the seed round — purely so head order (and therefore
    // predicate numbering) matches `compiled` exactly.
    let mut seeded: Vec<bool> = Vec::with_capacity(prog.rules.len());
    let resume_prog =
        Program::new(prog.rules.iter().map(
            |r| match r.body.iter().position(|a| a.pred == changed) {
                Some(pos) => {
                    seeded.push(true);
                    let mut body = r.body.clone();
                    let a = body.remove(pos);
                    body.insert(0, a);
                    Rule::new(r.head.clone(), body)
                }
                None => {
                    seeded.push(false);
                    r.clone()
                }
            },
        ));
    let resumed = compile(&resume_prog, edb)?;
    debug_assert_eq!(resumed.idb_names, compiled.idb_names);

    let n_idb = compiled.idb_names.len();
    let schemas: Vec<Schema> = compiled
        .idb_arities
        .iter()
        .map(|&n| anon_schema(n))
        .collect();
    let mut retained = retained;
    let full: Vec<KRelation<K>> = compiled
        .idb_names
        .iter()
        .zip(&schemas)
        .map(|(n, s)| {
            retained
                .remove(n)
                .unwrap_or_else(|| KRelation::new(s.clone()))
        })
        .collect();
    // At the resume point the iterate is stable: Iₙ₋₁ = Iₙ = retained.
    let prev: Vec<KRelation<K>> = full
        .iter()
        .zip(&schemas)
        .zip(&compiled.needs_prev)
        .map(|((f, s), &np)| {
            if np {
                f.clone()
            } else {
                KRelation::new(s.clone())
            }
        })
        .collect();
    let prev_fresh = vec![true; n_idb];

    if max_iters == 0 {
        return no_fixpoint(0);
    }
    if x.past_deadline() {
        return Err(DatalogError::deadline());
    }
    // Seed round: the changed atom scans only the added facts.
    let mut seed_rels: Vec<&KRelation<K>> = edb.iter().map(|(_, r)| r).collect();
    seed_rels[changed_idx] = added;
    let seed_indexes = build_edb_indexes(&resumed.rules, &seed_rels);
    let zero = empty_rels::<K>(&schemas);
    let mut next_delta;
    {
        let mut round = Round {
            edb_rels: &seed_rels,
            edb_indexes: &seed_indexes,
            full: &full,
            prev: &prev,
            delta: &zero,
            idb_indexes: HashMap::new(),
        };
        let items: Vec<(usize, Vec<Src>)> = resumed
            .rules
            .iter()
            .enumerate()
            .filter(|(ri, _)| seeded[*ri])
            .map(|(ri, rule)| {
                let srcs = rule
                    .atoms
                    .iter()
                    .map(|a| match a.pred {
                        Pred::Edb(_) => Src::Edb,
                        Pred::Idb(_) => Src::Full,
                    })
                    .collect();
                (ri, srcs)
            })
            .collect();
        next_delta = execute_round(&resumed.rules, &schemas, &mut round, &items, x);
    }
    charge_round(x, &next_delta)?;
    let mut full = full;
    let mut prev = prev;
    let mut prev_fresh = prev_fresh;
    if !merge_round(
        &compiled,
        &schemas,
        &mut full,
        &mut prev,
        &mut prev_fresh,
        &mut next_delta,
    ) {
        return Ok(named_idb(&compiled, full));
    }
    let edb_rels: Vec<&KRelation<K>> = edb.iter().map(|(_, r)| r).collect();
    // A tiny seed delta stays tiny through the remaining rounds (each
    // derives only from the last delta), so a full-EDB hash index
    // would cost more to build than every probe it would serve —
    // leave the map empty and let the rounds scan-probe instead.
    let delta_total: usize = next_delta.iter().map(KRelation::len).sum();
    let edb_indexes = if delta_total > SCAN_PROBE_MAX {
        build_edb_indexes(&compiled.rules, &edb_rels)
    } else {
        HashMap::new()
    };
    drive_rounds(
        &compiled,
        &schemas,
        &edb_rels,
        &edb_indexes,
        full,
        prev,
        prev_fresh,
        next_delta,
        max_iters - 1,
        max_iters,
        x,
    )
}

fn empty_rels<K: Semiring>(schemas: &[Schema]) -> Vec<KRelation<K>> {
    schemas.iter().map(|s| KRelation::new(s.clone())).collect()
}

fn named_idb<K: Semiring>(
    compiled: &Compiled,
    full: Vec<KRelation<K>>,
) -> BTreeMap<String, KRelation<K>> {
    compiled.idb_names.iter().cloned().zip(full).collect()
}

fn no_fixpoint<T>(max_iters: usize) -> Result<T, DatalogError> {
    err(format!(
        "no fixpoint after {max_iters} iterations (cyclic data with a non-idempotent semiring?)"
    ))
}

/// Build each (EDB relation, key-columns) probe index the rules need,
/// exactly once per evaluation.
fn build_edb_indexes<'a, K: Semiring>(
    rules: &[CRule],
    edb_rels: &[&'a KRelation<K>],
) -> HashMap<(usize, Vec<usize>), RelIndex<'a, K>> {
    let mut edb_indexes: HashMap<(usize, Vec<usize>), RelIndex<'a, K>> = HashMap::new();
    for rule in rules {
        for atom in &rule.atoms {
            if let Pred::Edb(i) = atom.pred {
                if !atom.key_cols.is_empty() {
                    edb_indexes
                        .entry((i, atom.key_cols.clone()))
                        .or_insert_with(|| edb_rels[i].index_on(&atom.key_cols));
                }
            }
        }
    }
    edb_indexes
}

/// Execute one round's work list against an immutable [`Round`] view,
/// returning the per-predicate delta it derives. With a non-sequential
/// context the variants — and probe chunks of full-scan first atoms —
/// fan out over the pool and merge with the same commutative `+`.
fn execute_round<'a, K: Semiring>(
    rules: &[CRule],
    schemas: &[Schema],
    round: &mut Round<'a, K>,
    items: &[(usize, Vec<Src>)],
    x: &Exec<'_>,
) -> Vec<KRelation<K>> {
    // Build every index the work list needs up front, so the round is
    // immutable during the (possibly parallel) joins.
    for (ri, srcs) in items {
        round.prepare(&rules[*ri], srcs);
    }
    let mut next_delta = empty_rels::<K>(schemas);
    let round = &*round;
    match x.parallel() {
        None => {
            for (ri, srcs) in items {
                let rule = &rules[*ri];
                round.join(rule, srcs, None, &mut next_delta[rule.head_pred]);
            }
        }
        Some(c) => {
            // Fan out: one task per variant, and — when a variant's
            // first atom is a full scan over a big relation — one task
            // per probe chunk of that scan.
            let degree = c.degree();
            type Seeds<'r, K> = Option<Vec<(&'r Tuple, &'r K)>>;
            let mut tasks: Vec<(usize, &[Src], Seeds<'_, K>)> = Vec::new();
            for (ri, srcs) in items {
                let rule = &rules[*ri];
                // Only rules whose first atom is a full scan can be
                // probe-chunked (body-less fact rules and indexed
                // first atoms run as one task).
                if let Some(atom0) = rule.atoms.first().filter(|a| a.key_cols.is_empty()) {
                    let rel = round.rel(srcs[0], atom0.pred);
                    let want = (rel.len() / PAR_JOIN_MIN_TUPLES).min(degree);
                    if want >= 2 {
                        let tuples: Vec<(&Tuple, &K)> = rel.iter().collect();
                        let per = tuples.len().div_ceil(want);
                        for chunk in tuples.chunks(per) {
                            tasks.push((*ri, srcs.as_slice(), Some(chunk.to_vec())));
                        }
                        continue;
                    }
                }
                tasks.push((*ri, srcs.as_slice(), None));
            }
            let partials: Vec<(usize, KRelation<K>)> =
                c.pool.map_slice(&tasks, |_, (ri, srcs, seeds)| {
                    let rule = &rules[*ri];
                    let mut out = KRelation::new(schemas[rule.head_pred].clone());
                    round.join(rule, srcs, seeds.as_deref(), &mut out);
                    (rule.head_pred, out)
                });
            for (head, rel) in partials {
                next_delta[head].union_with(rel);
            }
        }
    }
    next_delta
}

/// Charge one round's derived tuples against the memory budget.
fn charge_round<K: Semiring>(
    x: &Exec<'_>,
    next_delta: &[KRelation<K>],
) -> Result<(), DatalogError> {
    if let Some(b) = x.budget {
        let derived: usize = next_delta.iter().map(|d| d.len()).sum();
        if b.charge(derived).is_err() {
            return Err(DatalogError::memory());
        }
    }
    Ok(())
}

/// Fold one round's delta into the iterate, maintaining the lazy
/// `prev` invariant (`prev[p] == Iₙ₋₁[p]` for every `needs_prev`
/// predicate at the top of the next round). Output-only predicates'
/// rows are *moved* into the iterate (their delta is never re-read).
/// Returns whether anything changed — `false` means fixpoint.
fn merge_round<K: Semiring>(
    compiled: &Compiled,
    schemas: &[Schema],
    full: &mut [KRelation<K>],
    prev: &mut [KRelation<K>],
    prev_fresh: &mut [bool],
    next_delta: &mut [KRelation<K>],
) -> bool {
    let changed = next_delta.iter().any(|d| !d.is_empty());
    if !changed {
        return false;
    }
    for p in 0..full.len() {
        if !next_delta[p].is_empty() {
            if compiled.needs_prev[p] {
                prev[p] = full[p].clone();
            }
            if compiled.idb_in_body[p] {
                for (t, k) in next_delta[p].iter() {
                    full[p].insert(t.clone(), k.clone());
                }
            } else {
                // Output-only predicate: no rule re-reads its delta,
                // so hand the rows over instead of cloning.
                let moved =
                    std::mem::replace(&mut next_delta[p], KRelation::new(schemas[p].clone()));
                full[p].union_with(moved);
            }
            prev_fresh[p] = false;
        } else if compiled.needs_prev[p] && !prev_fresh[p] {
            // The iterate stabilized this round; catch `prev` up once
            // so later rounds read Iₙ₋₁ = Iₙ.
            prev[p] = full[p].clone();
            prev_fresh[p] = true;
        }
    }
    true
}

/// The delta-driven rounds shared by the fresh and resumed fixpoints:
/// each fires one variant per IDB position carrying the last delta
/// (`Iₙ₋₂` before it, `Iₙ₋₁` after — the exact partition of new-depth
/// derivation trees), merging until a round derives nothing.
#[allow(clippy::too_many_arguments)]
fn drive_rounds<K: Semiring>(
    compiled: &Compiled,
    schemas: &[Schema],
    edb_rels: &[&KRelation<K>],
    edb_indexes: &HashMap<(usize, Vec<usize>), RelIndex<'_, K>>,
    mut full: Vec<KRelation<K>>,
    mut prev: Vec<KRelation<K>>,
    mut prev_fresh: Vec<bool>,
    mut delta: Vec<KRelation<K>>,
    rounds_left: usize,
    max_iters: usize,
    x: &Exec<'_>,
) -> Result<BTreeMap<String, KRelation<K>>, DatalogError> {
    for _ in 0..rounds_left {
        if x.past_deadline() {
            return Err(DatalogError::deadline());
        }
        // Derivations of the new depth, absorbed ones pruned at the
        // join (see [`Round::join`]): the next delta.
        let mut next_delta;
        {
            let mut round = Round {
                edb_rels,
                edb_indexes,
                full: &full,
                prev: &prev,
                delta: &delta,
                idb_indexes: HashMap::new(),
            };
            let mut items: Vec<(usize, Vec<Src>)> = Vec::new();
            for (ri, rule) in compiled.rules.iter().enumerate() {
                for (vi, &dpos) in rule.idb_positions.iter().enumerate() {
                    let Pred::Idb(dp) = rule.atoms[dpos].pred else {
                        unreachable!("idb_positions index IDB atoms")
                    };
                    if round.delta[dp].is_empty() {
                        continue; // this variant cannot derive anything
                    }
                    let srcs: Vec<Src> = rule
                        .atoms
                        .iter()
                        .enumerate()
                        .map(|(pos, atom)| match atom.pred {
                            Pred::Edb(_) => Src::Edb,
                            Pred::Idb(_) if pos == dpos => Src::Delta,
                            Pred::Idb(_) if rule.idb_positions[..vi].contains(&pos) => Src::Prev,
                            Pred::Idb(_) => Src::Full,
                        })
                        .collect();
                    items.push((ri, srcs));
                }
            }
            next_delta = execute_round(&compiled.rules, schemas, &mut round, &items, x);
        }
        charge_round(x, &next_delta)?;
        if !merge_round(
            compiled,
            schemas,
            &mut full,
            &mut prev,
            &mut prev_fresh,
            &mut next_delta,
        ) {
            return Ok(named_idb(compiled, full));
        }
        delta = next_delta;
    }
    no_fixpoint(max_iters)
}

// ---------------------------------------------------------------------
// Naive reference evaluation (the original evaluator, kept verbatim
// for differential testing and the `datalog_seminaive` benchmark).
// ---------------------------------------------------------------------

/// Evaluate `prog` over the EDB `db` with the naïve fixpoint.
pub fn eval_datalog_naive<K: Semiring>(
    prog: &Program,
    db: &Database<K>,
) -> Result<Database<K>, DatalogError> {
    eval_datalog_naive_capped(prog, db, DEFAULT_MAX_ITERS)
}

/// Naïve evaluation with an explicit iteration cap: every IDB relation
/// is recomputed from the previous iterate (nested-scan joins, no
/// deltas) until nothing changes.
pub fn eval_datalog_naive_capped<K: Semiring>(
    prog: &Program,
    edb: &Database<K>,
    max_iters: usize,
) -> Result<Database<K>, DatalogError> {
    // Same validation as the semi-naive path (errors must agree).
    let _ = compile(prog, edb)?;
    let idb_arities = prog.idb_preds();

    // IDB iterate: start empty.
    let mut idb: BTreeMap<String, KRelation<K>> = idb_arities
        .iter()
        .map(|(p, &n)| (p.clone(), KRelation::new(anon_schema(n))))
        .collect();

    for _ in 0..max_iters {
        let mut next: BTreeMap<String, KRelation<K>> = idb_arities
            .iter()
            .map(|(p, &n)| (p.clone(), KRelation::new(anon_schema(n))))
            .collect();
        for rule in &prog.rules {
            apply_rule(
                rule,
                edb,
                &idb,
                next.get_mut(&rule.head.pred).expect("idb pred"),
            )?;
        }
        if next == idb {
            let mut out = edb.clone();
            for (p, r) in idb {
                out.insert(&p, r);
            }
            return Ok(out);
        }
        idb = next;
    }
    err(format!(
        "no fixpoint after {max_iters} iterations (cyclic data with a non-idempotent semiring?)"
    ))
}

type Subst = BTreeMap<String, RelValue>;

fn apply_rule<K: Semiring>(
    rule: &Rule,
    edb: &Database<K>,
    idb: &BTreeMap<String, KRelation<K>>,
    out: &mut KRelation<K>,
) -> Result<(), DatalogError> {
    let mut subst = Subst::new();
    search(rule, 0, edb, idb, &mut subst, K::one(), out)
}

/// Depth-first join over the body atoms.
fn search<K: Semiring>(
    rule: &Rule,
    i: usize,
    edb: &Database<K>,
    idb: &BTreeMap<String, KRelation<K>>,
    subst: &mut Subst,
    ann: K,
    out: &mut KRelation<K>,
) -> Result<(), DatalogError> {
    if i == rule.body.len() {
        let tuple: Result<Tuple, DatalogError> = rule
            .head
            .args
            .iter()
            .map(|t| ground_subst(t, subst))
            .collect();
        out.insert(tuple?, ann);
        return Ok(());
    }
    let body_atom = &rule.body[i];
    let rel = idb
        .get(&body_atom.pred)
        .or_else(|| edb.get(&body_atom.pred))
        .ok_or_else(|| DatalogError::new(format!("unknown predicate {:?}", body_atom.pred)))?;
    for (tuple, k) in rel.iter() {
        let mut bound: Vec<String> = Vec::new();
        let mut ok = true;
        for (term, value) in body_atom.args.iter().zip(tuple.iter()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        ok = false;
                        break;
                    }
                }
                Term::Var(x) => match subst.get(x) {
                    Some(existing) => {
                        if existing != value {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        subst.insert(x.clone(), value.clone());
                        bound.push(x.clone());
                    }
                },
                Term::Skolem(..) => {
                    return err("Skolem terms may appear only in rule heads");
                }
            }
        }
        if ok {
            search(rule, i + 1, edb, idb, subst, ann.times(k), out)?;
        }
        for x in bound {
            subst.remove(&x);
        }
    }
    Ok(())
}

fn ground_subst(t: &Term, subst: &Subst) -> Result<RelValue, DatalogError> {
    match t {
        Term::Const(c) => Ok(c.clone()),
        Term::Var(x) => subst.get(x).cloned().ok_or_else(|| {
            DatalogError::new(format!(
                "unsafe rule: head variable {x:?} not bound by the body"
            ))
        }),
        Term::Skolem(f, args) => {
            let inner: Result<Vec<RelValue>, DatalogError> =
                args.iter().map(|a| ground_subst(a, subst)).collect();
            Ok(RelValue::Skolem(Label::new(f), inner?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_semiring::{Nat, NatPoly, PosBool, Tropical};

    fn np(s: &str) -> NatPoly {
        s.parse().unwrap()
    }

    fn edge_db() -> Database<NatPoly> {
        // chain 1 →y1 2 →y2 3, annotated edges
        let mut e = KRelation::new(Schema::new(["src", "dst"]));
        e.insert(vec![RelValue::Node(1), RelValue::Node(2)], np("y1"));
        e.insert(vec![RelValue::Node(2), RelValue::Node(3)], np("y2"));
        Database::new().with("E", e)
    }

    fn tc_prog() -> Program {
        Program::new([
            Rule::new(atom("T", [v("x"), v("y")]), [atom("E", [v("x"), v("y")])]),
            Rule::new(
                atom("T", [v("x"), v("z")]),
                [atom("T", [v("x"), v("y")]), atom("E", [v("y"), v("z")])],
            ),
        ])
    }

    #[test]
    fn transitive_closure_annotations() {
        let out = eval_datalog(&tc_prog(), &edge_db()).unwrap();
        let t = out.get("T").unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.get(&vec![RelValue::Node(1), RelValue::Node(3)]),
            np("y1*y2")
        );
    }

    #[test]
    fn seminaive_matches_naive_on_closure() {
        let a = eval_datalog(&tc_prog(), &edge_db()).unwrap();
        let b = eval_datalog_naive(&tc_prog(), &edge_db()).unwrap();
        assert_eq!(a.get("T"), b.get("T"));
    }

    #[test]
    fn an_expired_deadline_trips_at_the_first_round_boundary() {
        let past = Exec {
            deadline: Some(std::time::Instant::now()),
            ..Exec::default()
        };
        let err = eval_datalog_idb::<NatPoly>(&tc_prog(), &edge_db(), DEFAULT_MAX_ITERS, &past)
            .unwrap_err();
        assert!(err.budget, "{err:?}");
        assert!(err.msg.contains("deadline"), "{}", err.msg);
    }

    #[test]
    fn a_generous_deadline_changes_nothing() {
        let far = Exec {
            deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
            ..Exec::default()
        };
        let with =
            eval_datalog_idb::<NatPoly>(&tc_prog(), &edge_db(), DEFAULT_MAX_ITERS, &far).unwrap();
        let without =
            eval_datalog_idb(&tc_prog(), &edge_db(), DEFAULT_MAX_ITERS, &Exec::default()).unwrap();
        assert_eq!(with.get("T"), without.get("T"));
    }

    #[test]
    fn alternatives_add() {
        // two edges between the same nodes via different relations
        let mut e = KRelation::new(Schema::new(["src", "dst"]));
        e.insert(vec![RelValue::Node(1), RelValue::Node(2)], np("p"));
        let mut f = KRelation::new(Schema::new(["src", "dst"]));
        f.insert(vec![RelValue::Node(1), RelValue::Node(2)], np("q"));
        let db = Database::new().with("E", e).with("F", f);
        let prog = Program::new([
            Rule::new(atom("T", [v("x"), v("y")]), [atom("E", [v("x"), v("y")])]),
            Rule::new(atom("T", [v("x"), v("y")]), [atom("F", [v("x"), v("y")])]),
        ]);
        let out = eval_datalog(&prog, &db).unwrap();
        assert_eq!(
            out.get("T")
                .unwrap()
                .get(&vec![RelValue::Node(1), RelValue::Node(2)]),
            np("p + q")
        );
    }

    #[test]
    fn skolem_heads_invent_values() {
        let prog = Program::new([Rule::new(
            atom("Out", [sk("f", [v("x")]), v("y")]),
            [atom("E", [v("x"), v("y")])],
        )]);
        let out = eval_datalog(&prog, &edge_db()).unwrap();
        let o = out.get("Out").unwrap();
        assert_eq!(
            o.get(&vec![
                RelValue::Skolem("f".into(), vec![RelValue::Node(1)]),
                RelValue::Node(2)
            ]),
            np("y1")
        );
    }

    #[test]
    fn skolem_in_body_rejected() {
        let prog = Program::new([Rule::new(
            atom("Out", [v("x")]),
            [atom("E", [sk("f", [v("x")]), v("x")])],
        )]);
        for eval in [eval_datalog::<NatPoly>, eval_datalog_naive::<NatPoly>] {
            let e = eval(&prog, &edge_db()).unwrap_err();
            assert!(e.msg.contains("only in rule heads"), "{e}");
        }
    }

    #[test]
    fn unsafe_rule_rejected() {
        let prog = Program::new([Rule::new(
            atom("Out", [v("zzz")]),
            [atom("E", [v("x"), v("y")])],
        )]);
        for eval in [eval_datalog::<NatPoly>, eval_datalog_naive::<NatPoly>] {
            let e = eval(&prog, &edge_db()).unwrap_err();
            assert!(e.msg.contains("unsafe"), "{e}");
        }
    }

    #[test]
    fn cyclic_data_converges_for_idempotent_semirings() {
        // cycle 1 → 2 → 1 in PosBool: closure converges (idempotence)
        let mut e = KRelation::new(Schema::new(["src", "dst"]));
        e.insert(
            vec![RelValue::Node(1), RelValue::Node(2)],
            PosBool::var_named("dl_a"),
        );
        e.insert(
            vec![RelValue::Node(2), RelValue::Node(1)],
            PosBool::var_named("dl_b"),
        );
        let db = Database::new().with("E", e);
        let out = eval_datalog(&tc_prog(), &db).unwrap();
        assert_eq!(out.get("T").unwrap().len(), 4);
        let naive = eval_datalog_naive(&tc_prog(), &db).unwrap();
        assert_eq!(out.get("T"), naive.get("T"));
    }

    #[test]
    fn cyclic_data_converges_for_tropical() {
        // min-plus closure over a cycle: absorption prunes longer paths
        let mut e = KRelation::new(Schema::new(["src", "dst"]));
        e.insert(
            vec![RelValue::Node(1), RelValue::Node(2)],
            Tropical::cost(3),
        );
        e.insert(
            vec![RelValue::Node(2), RelValue::Node(1)],
            Tropical::cost(4),
        );
        let db = Database::new().with("E", e);
        let out = eval_datalog(&tc_prog(), &db).unwrap();
        let t = out.get("T").unwrap();
        assert_eq!(
            t.get(&vec![RelValue::Node(1), RelValue::Node(1)]),
            Tropical::cost(7)
        );
        let naive = eval_datalog_naive(&tc_prog(), &db).unwrap();
        assert_eq!(out.get("T"), naive.get("T"));
    }

    #[test]
    fn cyclic_data_hits_cap_for_nat() {
        // cycle with ℕ annotations: derivation count diverges
        let mut e = KRelation::new(Schema::new(["src", "dst"]));
        e.insert(vec![RelValue::Node(1), RelValue::Node(1)], Nat(2));
        let db = Database::new().with("E", e);
        let err = eval_datalog_idb(&tc_prog(), &db, 50, &Exec::default()).unwrap_err();
        assert!(err.msg.contains("fixpoint"), "{err}");
        let err2 = eval_datalog_naive_capped(&tc_prog(), &db, 50).unwrap_err();
        assert!(err2.msg.contains("fixpoint"), "{err2}");
    }

    #[test]
    fn edb_idb_overlap_rejected() {
        let prog = Program::new([Rule::new(
            atom("E", [v("x"), v("y")]),
            [atom("E", [v("x"), v("y")])],
        )]);
        for eval in [eval_datalog::<NatPoly>, eval_datalog_naive::<NatPoly>] {
            let e = eval(&prog, &edge_db()).unwrap_err();
            assert!(e.msg.contains("both EDB and IDB"), "{e}");
        }
    }

    #[test]
    fn idb_arity_mismatch_rejected() {
        let prog = Program::new([
            Rule::new(atom("T", [v("x"), v("y")]), [atom("E", [v("x"), v("y")])]),
            Rule::new(atom("T", [v("x")]), [atom("E", [v("x"), v("x")])]),
        ]);
        for eval in [eval_datalog::<NatPoly>, eval_datalog_naive::<NatPoly>] {
            let e = eval(&prog, &edge_db()).unwrap_err();
            assert!(e.msg.contains("arity mismatch"), "{e}");
        }
    }

    #[test]
    fn body_arity_mismatch_rejected() {
        let prog = Program::new([Rule::new(
            atom("Out", [v("x")]),
            [atom("E", [v("x"), v("y"), v("z")])],
        )]);
        for eval in [eval_datalog::<NatPoly>, eval_datalog_naive::<NatPoly>] {
            let e = eval(&prog, &edge_db()).unwrap_err();
            assert!(e.msg.contains("arity mismatch"), "{e}");
        }
    }

    #[test]
    fn unknown_predicate_rejected() {
        let prog = Program::new([Rule::new(
            atom("Out", [v("x")]),
            [atom("Nope", [v("x"), v("y")])],
        )]);
        for eval in [eval_datalog::<NatPoly>, eval_datalog_naive::<NatPoly>] {
            let e = eval(&prog, &edge_db()).unwrap_err();
            assert!(e.msg.contains("unknown predicate"), "{e}");
        }
    }

    #[test]
    fn repeated_variables_within_an_atom() {
        // self-loops only: E(x, x)
        let mut e = KRelation::new(Schema::new(["src", "dst"]));
        e.insert(vec![RelValue::Node(1), RelValue::Node(1)], np("a"));
        e.insert(vec![RelValue::Node(1), RelValue::Node(2)], np("b"));
        let db = Database::new().with("E", e);
        let prog = Program::new([Rule::new(
            atom("L", [v("x")]),
            [atom("E", [v("x"), v("x")])],
        )]);
        for eval in [eval_datalog::<NatPoly>, eval_datalog_naive::<NatPoly>] {
            let out = eval(&prog, &db).unwrap();
            let l = out.get("L").unwrap();
            assert_eq!(l.len(), 1);
            assert_eq!(l.get(&vec![RelValue::Node(1)]), np("a"));
        }
    }

    #[test]
    fn constants_filter() {
        let prog = Program::new([Rule::new(
            atom("FromOne", [v("y")]),
            [atom("E", [node(1), v("y")])],
        )]);
        let out = eval_datalog(&prog, &edge_db()).unwrap();
        let r = out.get("FromOne").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(&vec![RelValue::Node(2)]), np("y1"));
    }

    #[test]
    fn multiple_idb_atoms_in_one_body() {
        // P(x,z) :- T(x,y), T(y,z): quadratic use of a recursive IDB —
        // exercises the per-position delta variants without double
        // counting (checked against the naive reference).
        let prog = Program::new([
            Rule::new(atom("T", [v("x"), v("y")]), [atom("E", [v("x"), v("y")])]),
            Rule::new(
                atom("T", [v("x"), v("z")]),
                [atom("T", [v("x"), v("y")]), atom("E", [v("y"), v("z")])],
            ),
            Rule::new(
                atom("P", [v("x"), v("z")]),
                [atom("T", [v("x"), v("y")]), atom("T", [v("y"), v("z")])],
            ),
        ]);
        let a = eval_datalog(&prog, &edge_db()).unwrap();
        let b = eval_datalog_naive(&prog, &edge_db()).unwrap();
        assert_eq!(a.get("T"), b.get("T"));
        assert_eq!(a.get("P"), b.get("P"));
        assert_eq!(
            a.get("P")
                .unwrap()
                .get(&vec![RelValue::Node(1), RelValue::Node(3)]),
            np("y1*y2")
        );
    }

    #[test]
    fn display_rules() {
        let r = Rule::new(
            atom("E2", [sk("f", [v("p")]), sk("f", [v("n")]), v("l")]),
            [atom("E", [v("p"), v("n"), v("l")])],
        );
        assert_eq!(r.to_string(), "E2(f(p),f(n),l) :- E(p,n,l).");
    }
}
