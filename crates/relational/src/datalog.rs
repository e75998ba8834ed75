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

use crate::krel::{KRelation, RelValue, Schema, Tuple};
use crate::ra::Database;
use crate::term::{final_id, pack_key, Fresh, Interner, RowIndex, Rows, TermId, TermTable};
use axml_semiring::Semiring;
use axml_uxml::{BudgetKind, Exec, Label};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::ops::Range;

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

/// Evaluation error (non-convergence, malformed rules, or a tripped
/// resource limit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatalogError {
    /// Description.
    pub msg: String,
    /// `Some` when the error is a caller-imposed resource limit
    /// tripping at a fixpoint round boundary (see
    /// [`eval_datalog_idb`]), not a Datalog-level failure — the facade
    /// maps it to its typed budget error.
    pub budget: Option<BudgetKind>,
}

impl DatalogError {
    /// A Datalog-level failure.
    pub fn new(msg: impl Into<String>) -> Self {
        DatalogError {
            msg: msg.into(),
            budget: None,
        }
    }

    /// A wall-clock deadline trip.
    pub fn deadline() -> Self {
        DatalogError {
            msg: "wall-clock deadline exceeded during the fixpoint".into(),
            budget: Some(BudgetKind::WallClock),
        }
    }

    /// A memory budget trip.
    pub fn memory() -> Self {
        DatalogError {
            msg: "memory budget exceeded during the fixpoint".into(),
            budget: Some(BudgetKind::Memory),
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
    Const(TermId),
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
    /// to produce them. Probed through a [`RowIndex`] on `key_cols`;
    /// empty = full scan.
    key_cols: Vec<usize>,
    key_parts: Vec<KeyPart>,
    /// `(column, slot)` first occurrences of variables: bound per row.
    binds: Vec<(usize, usize)>,
    /// Repeated variables within this atom.
    checks: Vec<SlotCheck>,
}

/// A head position: how to build the output term from the slots.
#[derive(Clone, Debug)]
enum HeadInstr {
    Const(TermId),
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

/// A validated, join-ready program. Its constants are term ids of the
/// [`TermTable`] it was compiled against.
pub(crate) struct Compiled {
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

impl Compiled {
    /// The IDB position of a predicate.
    pub(crate) fn idb_index(&self, pred: &str) -> Option<usize> {
        self.idb_names.iter().position(|n| n == pred)
    }

    /// Empty IDB relations, one per predicate.
    pub(crate) fn empty_idb<K: Semiring>(&self) -> Vec<Rows<K>> {
        self.idb_arities.iter().map(|&a| Rows::new(a)).collect()
    }
}

/// The EDB as [`compile`] sees it: relation names with arities, in the
/// order the evaluator receives the relations.
fn signature<K: Semiring>(edb: &Database<K>) -> Vec<(&str, usize)> {
    edb.iter()
        .map(|(n, r)| (n.as_str(), r.schema().arity()))
        .collect()
}

/// Validate and compile `prog` against an EDB signature, interning its
/// constants into `terms`. All rule malformations are reported here,
/// before any iteration runs, so the semi-naive and naive evaluators
/// fail identically.
pub(crate) fn compile(
    prog: &Program,
    edb: &[(&str, usize)],
    terms: &mut TermTable,
) -> Result<Compiled, DatalogError> {
    let edb_index: HashMap<&str, usize> =
        edb.iter().enumerate().map(|(i, (n, _))| (*n, i)).collect();

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
                    Some(&i) => (Pred::Edb(i), edb[i].1),
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
                        ca.key_parts.push(KeyPart::Const(terms.intern(c)));
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
            .map(|t| compile_head_term(t, &slots, terms))
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

fn compile_head_term(
    t: &Term,
    slots: &HashMap<&str, usize>,
    terms: &mut TermTable,
) -> Result<HeadInstr, DatalogError> {
    match t {
        Term::Const(c) => Ok(HeadInstr::Const(terms.intern(c))),
        Term::Var(x) => match slots.get(x.as_str()) {
            Some(&s) => Ok(HeadInstr::Slot(s)),
            None => err(format!(
                "unsafe rule: head variable {x:?} not bound by the body"
            )),
        },
        Term::Skolem(f, args) => {
            let inner = args
                .iter()
                .map(|a| compile_head_term(a, slots, terms))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(HeadInstr::Skolem(Label::new(f), inner))
        }
    }
}

/// A program compiled both for fresh solves and for resuming a
/// retained fixpoint after a delta to one EDB relation (see
/// [`eval_datalog_idb_resume`]).
pub(crate) struct ResumePlan {
    pub(crate) compiled: Compiled,
    /// `compiled` with every body rotated so its `changed` atom joins
    /// first (the delta drives the join; everything else is probed).
    /// Rules without the changed atom are kept verbatim — and never
    /// fired in the seed round — purely so head order (and therefore
    /// predicate numbering) matches `compiled` exactly.
    resumed: Compiled,
    /// Per rule: does its body mention the changed relation?
    seeded: Vec<bool>,
    /// The changed relation's EDB position.
    changed: usize,
}

impl ResumePlan {
    pub(crate) fn new(
        prog: &Program,
        edb: &[(&str, usize)],
        changed: &str,
        terms: &mut TermTable,
    ) -> Result<Self, DatalogError> {
        let compiled = compile(prog, edb, terms)?;
        let Some(changed_idx) = edb.iter().position(|(n, _)| *n == changed) else {
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
        let mut seeded: Vec<bool> = Vec::with_capacity(prog.rules.len());
        let resume_prog = Program::new(prog.rules.iter().map(|r| {
            match r.body.iter().position(|a| a.pred == changed) {
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
            }
        }));
        let resumed = compile(&resume_prog, edb, terms)?;
        debug_assert_eq!(resumed.idb_names, compiled.idb_names);
        Ok(ResumePlan {
            compiled,
            resumed,
            seeded,
            changed: changed_idx,
        })
    }
}

// ---------------------------------------------------------------------
// Semi-naive evaluation over interned rows.
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

/// Probe indexes by (source, predicate position, key columns).
type Indexes = HashMap<(Src, usize, Vec<usize>), RowIndex>;

/// The relations visible during one round; immutable while it runs.
struct Rels<'a, K: Semiring> {
    edb: &'a [&'a Rows<K>],
    full: &'a [Rows<K>],
    prev: &'a [Rows<K>],
    delta: &'a [Rows<K>],
}

impl<'a, K: Semiring> Rels<'a, K> {
    fn rel(&self, src: Src, pred: Pred) -> &'a Rows<K> {
        match (src, pred) {
            (Src::Edb, Pred::Edb(i)) => self.edb[i],
            (Src::Full, Pred::Idb(i)) => &self.full[i],
            (Src::Prev, Pred::Idb(i)) => &self.prev[i],
            (Src::Delta, Pred::Idb(i)) => &self.delta[i],
            _ => unreachable!("EDB atoms always read Src::Edb"),
        }
    }

    /// Build every index one variant probes, unless the variant is
    /// driven by a tiny relation — then [`Join::run`] scan-probes its
    /// keyed atoms instead (see [`SCAN_PROBE_MAX`]). EDB indexes live
    /// for the whole evaluation (the EDB never changes), IDB indexes
    /// for one round; both are shared across variants and rules.
    fn prepare(&self, rule: &CRule, srcs: &[Src], edb_ix: &mut Indexes, idb_ix: &mut Indexes) {
        let tiny_driver = rule
            .atoms
            .first()
            .map(|a0| self.rel(srcs[0], a0.pred).len() <= SCAN_PROBE_MAX)
            .unwrap_or(true);
        if tiny_driver {
            return;
        }
        for (atom, &src) in rule.atoms.iter().zip(srcs) {
            if atom.key_cols.is_empty() {
                continue;
            }
            let (map, p) = match atom.pred {
                Pred::Edb(p) => (&mut *edb_ix, p),
                Pred::Idb(p) => (&mut *idb_ix, p),
            };
            map.entry((src, p, atom.key_cols.clone()))
                .or_insert_with(|| RowIndex::build(self.rel(src, atom.pred), &atom.key_cols));
        }
    }
}

/// A round's relations plus the probe indexes [`Rels::prepare`] built.
struct Round<'a, K: Semiring> {
    rels: Rels<'a, K>,
    edb_ix: &'a Indexes,
    idb_ix: &'a Indexes,
}

impl<'a, K: Semiring> Round<'a, K> {
    /// Depth-first indexed join over one rule variant (one source per
    /// atom), accumulating derived rows (with annotation products) into
    /// `out` — the head predicate's *delta*. Contributions already
    /// absorbed by the accumulated iterate (`I[t] + k = I[t]`) are
    /// pruned here, per derivation: sound because in every semiring of
    /// this workspace absorption of a sum and absorption of its parts
    /// coincide (zero-sum-free, and `+` restricted to absorbed elements
    /// is a join). `range0`, when given, restricts the first atom's
    /// scan to those row positions — the probe-chunk hook the parallel
    /// round uses to split one variant's outer loop across workers
    /// (only full-scan first atoms are chunked). Head Skolem terms are
    /// grounded through `terms`.
    fn join<I: Interner>(
        &self,
        rule: &CRule,
        srcs: &[Src],
        range0: Option<Range<usize>>,
        out: &mut Rows<K>,
        terms: &mut I,
    ) {
        // Resolve each atom's index once, not per probe. A keyed atom
        // may have no index (tiny-driver variant) — the join
        // scan-probes it instead.
        let indexes: Vec<Option<&RowIndex>> = rule
            .atoms
            .iter()
            .zip(srcs)
            .map(|(atom, &src)| {
                if atom.key_cols.is_empty() {
                    return None;
                }
                match atom.pred {
                    Pred::Edb(i) => self.edb_ix.get(&(src, i, atom.key_cols.clone())),
                    Pred::Idb(i) => self.idb_ix.get(&(src, i, atom.key_cols.clone())),
                }
            })
            .collect();
        let mut join = Join {
            rels: &self.rels,
            rule,
            srcs,
            indexes,
            range0,
            slots: vec![0; rule.n_slots],
            keys: vec![Vec::new(); rule.atoms.len()],
            head: Vec::with_capacity(rule.head.len()),
            out,
            terms,
        };
        join.run(0, K::one());
    }
}

/// The state of one variant's depth-first join.
struct Join<'j, 'a, K: Semiring, I> {
    rels: &'j Rels<'a, K>,
    rule: &'j CRule,
    srcs: &'j [Src],
    indexes: Vec<Option<&'j RowIndex>>,
    range0: Option<Range<usize>>,
    /// Variable bindings, by slot.
    slots: Vec<TermId>,
    /// Per atom, the reused probe-key buffer.
    keys: Vec<Vec<TermId>>,
    /// The reused head-row buffer.
    head: Vec<TermId>,
    out: &'j mut Rows<K>,
    terms: &'j mut I,
}

impl<K: Semiring, I: Interner> Join<'_, '_, K, I> {
    fn run(&mut self, i: usize, ann: K) {
        let rule = self.rule;
        if i == rule.atoms.len() {
            self.emit(ann);
            return;
        }
        let atom = &rule.atoms[i];
        let rel = self.rels.rel(self.srcs[i], atom.pred);
        if i == 0 {
            if let Some(range) = self.range0.clone() {
                for p in range {
                    self.step(i, rel, p, &ann);
                }
                return;
            }
        }
        if atom.key_cols.is_empty() {
            for p in 0..rel.len() {
                self.step(i, rel, p, &ann);
            }
            return;
        }
        let mut key = std::mem::take(&mut self.keys[i]);
        key.clear();
        key.extend(atom.key_parts.iter().map(|part| match part {
            KeyPart::Const(c) => *c,
            KeyPart::Slot(s) => self.slots[*s],
        }));
        let matches = |row: &[TermId]| atom.key_cols.iter().zip(&key).all(|(&c, &v)| row[c] == v);
        match self.indexes[i] {
            // Keyed atom without an index (tiny-driver variant): scan
            // the relation's cells, filtering on the key columns (a
            // keyed atom has at least one column).
            None => {
                let rows = rel.cells().chunks_exact(rel.arity()).enumerate();
                if let ([c], [v]) = (&atom.key_cols[..], &key[..]) {
                    for (p, row) in rows {
                        if row[*c] == *v {
                            self.step(i, rel, p, &ann);
                        }
                    }
                } else {
                    for (p, row) in rows {
                        if matches(row) {
                            self.step(i, rel, p, &ann);
                        }
                    }
                }
            }
            Some(idx) => {
                // Keys of one or two columns pack exactly; wider keys
                // are hashed, so their probe results are re-checked.
                let exact = key.len() <= 2;
                for &p in idx.probe(pack_key(key.iter().copied())) {
                    let p = p as usize;
                    if exact || matches(rel.row(p)) {
                        self.step(i, rel, p, &ann);
                    }
                }
            }
        }
        self.keys[i] = key;
    }

    /// Bind atom `i` to row `p` of `rel` and recurse.
    fn step(&mut self, i: usize, rel: &Rows<K>, p: usize, ann: &K) {
        let atom = &self.rule.atoms[i];
        let row = rel.row(p);
        for &(col, slot) in &atom.binds {
            self.slots[slot] = row[col];
        }
        if atom.checks.iter().all(|c| self.slots[c.slot] == row[c.col]) {
            let k = rel.ann(p);
            let next = if k.is_one() {
                ann.clone()
            } else {
                ann.times(k)
            };
            self.run(i + 1, next);
        }
    }

    /// Ground the head and add the derivation unless absorbed.
    fn emit(&mut self, ann: K) {
        self.head.clear();
        for h in &self.rule.head {
            let id = ground(h, &self.slots, self.terms);
            self.head.push(id);
        }
        let keep = match self.rels.full[self.rule.head_pred].get(&self.head) {
            None => true,
            Some(cur) => cur.plus(&ann) != *cur,
        };
        if keep {
            self.out.insert(&self.head, ann);
        }
    }
}

fn ground<I: Interner>(h: &HeadInstr, slots: &[TermId], terms: &mut I) -> TermId {
    match h {
        HeadInstr::Const(c) => *c,
        HeadInstr::Slot(s) => slots[*s],
        HeadInstr::Skolem(f, args) => {
            if let [a] = args.as_slice() {
                let a = ground(a, slots, terms);
                return terms.skolem(*f, &[a]);
            }
            let ids: Vec<TermId> = args.iter().map(|a| ground(a, slots, terms)).collect();
            terms.skolem(*f, &ids)
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
/// instead: a handful of O(n) `u32` scans is far cheaper than an O(n)
/// index build that only a handful of probes would ever consult. This
/// is what makes resumed fixpoints ([`eval_datalog_idb_resume`]) cost
/// O(Δ·n) comparisons and no index builds when the edit delta is tiny.
const SCAN_PROBE_MAX: usize = 16;

/// Intern a boundary relation into rows over `terms`.
fn intern_rel<K: Semiring>(rel: &KRelation<K>, terms: &mut TermTable) -> Rows<K> {
    let mut rows = Rows::new(rel.schema().arity());
    let mut row = Vec::with_capacity(rel.schema().arity());
    for (t, k) in rel.iter() {
        row.clear();
        row.extend(t.iter().map(|v| terms.intern(v)));
        rows.insert(&row, k.clone());
    }
    rows
}

/// Intern every EDB relation, in [`signature`] order.
fn intern_db<K: Semiring>(edb: &Database<K>, terms: &mut TermTable) -> Vec<Rows<K>> {
    edb.iter().map(|(_, r)| intern_rel(r, terms)).collect()
}

/// The IDB relations of a finished evaluation, back in boundary form.
fn named_idb<K: Semiring>(
    compiled: &Compiled,
    full: &[Rows<K>],
    terms: &TermTable,
) -> BTreeMap<String, KRelation<K>> {
    compiled
        .idb_names
        .iter()
        .zip(full)
        .map(|(name, rows)| {
            let mut rel = KRelation::new(anon_schema(rows.arity()));
            for (row, k) in rows.iter() {
                rel.insert(row.iter().map(|&t| terms.value(t)).collect(), k.clone());
            }
            (name.clone(), rel)
        })
        .collect()
}

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
/// The relations are interned on entry (one [`TermTable`] for the
/// whole call) and converted back on exit; every round in between
/// runs on `u32` rows.
///
/// `x` carries the call's execution state:
/// - with a non-sequential context every round fans its rule
///   variants — and, for variants whose first body atom is a full
///   scan, row ranges of that scan — out over the context's pool,
///   merging the per-task deltas. Identical iterates and fixpoint (the
///   absorption check reads the immutable previous iterate, and delta
///   merging is the same commutative `+`);
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
    let mut terms = TermTable::new();
    let compiled = compile(prog, &signature(edb), &mut terms)?;
    let rows = intern_db(edb, &mut terms);
    let refs: Vec<&Rows<K>> = rows.iter().collect();
    let full = solve(&compiled, &mut terms, &refs, max_iters, x)?;
    Ok(named_idb(&compiled, &full, &terms))
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
/// `x` is honoured exactly as by [`eval_datalog_idb`]. The incremental
/// shredded route keeps its fixpoint interned between edits and calls
/// the same resume without this boundary conversion (`crate::ivm`).
pub fn eval_datalog_idb_resume<K: Semiring>(
    prog: &Program,
    edb: &Database<K>,
    changed: &str,
    added: &KRelation<K>,
    retained: BTreeMap<String, KRelation<K>>,
    max_iters: usize,
    x: &Exec<'_>,
) -> Result<BTreeMap<String, KRelation<K>>, DatalogError> {
    let mut terms = TermTable::new();
    let plan = ResumePlan::new(prog, &signature(edb), changed, &mut terms)?;
    let rows = intern_db(edb, &mut terms);
    let refs: Vec<&Rows<K>> = rows.iter().collect();
    let added = intern_rel(added, &mut terms);
    let mut retained = retained;
    let full: Vec<Rows<K>> = plan
        .compiled
        .idb_names
        .iter()
        .zip(&plan.compiled.idb_arities)
        .map(|(n, &a)| match retained.remove(n) {
            Some(r) => intern_rel(&r, &mut terms),
            None => Rows::new(a),
        })
        .collect();
    let full = resume(&plan, &mut terms, &refs, &added, full, max_iters, x)?;
    Ok(named_idb(&plan.compiled, &full, &terms))
}

/// The iterate of a running fixpoint: `Iₙ`, the lazily kept `Iₙ₋₁`,
/// and whether each `prev` is already caught up.
struct Iterate<K: Semiring> {
    full: Vec<Rows<K>>,
    prev: Vec<Rows<K>>,
    prev_fresh: Vec<bool>,
}

impl<K: Semiring> Iterate<K> {
    /// A stable iterate (`Iₙ₋₁ = Iₙ = full`): the start of every
    /// evaluation, fresh (`full` empty) or resumed.
    fn stable(compiled: &Compiled, full: Vec<Rows<K>>) -> Self {
        let prev = full
            .iter()
            .zip(&compiled.needs_prev)
            .map(|(f, &np)| if np { f.clone() } else { Rows::new(f.arity()) })
            .collect();
        Iterate {
            prev_fresh: vec![true; full.len()],
            full,
            prev,
        }
    }

    /// Fold one round's delta into the iterate, maintaining the lazy
    /// `prev` invariant (`prev[p] == Iₙ₋₁[p]` for every `needs_prev`
    /// predicate at the top of the next round). Output-only
    /// predicates' rows are *moved* into the iterate (their delta is
    /// never re-read). Returns whether anything changed — `false`
    /// means fixpoint.
    fn merge(&mut self, compiled: &Compiled, next: &mut [Rows<K>]) -> bool {
        if next.iter().all(Rows::is_empty) {
            return false;
        }
        for (p, delta) in next.iter_mut().enumerate() {
            if !delta.is_empty() {
                if compiled.needs_prev[p] {
                    self.prev[p] = self.full[p].clone();
                }
                if compiled.idb_in_body[p] {
                    for (row, k) in delta.iter() {
                        self.full[p].insert(row, k.clone());
                    }
                } else {
                    // Output-only predicate: no rule re-reads its
                    // delta, so hand the rows over instead of cloning.
                    let moved = std::mem::replace(delta, Rows::new(delta.arity()));
                    self.full[p].union_with(moved);
                }
                self.prev_fresh[p] = false;
            } else if compiled.needs_prev[p] && !self.prev_fresh[p] {
                // The iterate stabilized this round; catch `prev` up
                // once so later rounds read Iₙ₋₁ = Iₙ.
                self.prev[p] = self.full[p].clone();
                self.prev_fresh[p] = true;
            }
        }
        true
    }
}

/// The fresh semi-naive fixpoint of `compiled` over interned EDB
/// relations (in the signature order it was compiled against).
pub(crate) fn solve<K: Semiring>(
    compiled: &Compiled,
    terms: &mut TermTable,
    edb: &[&Rows<K>],
    max_iters: usize,
    x: &Exec<'_>,
) -> Result<Vec<Rows<K>>, DatalogError> {
    if max_iters == 0 {
        return no_fixpoint(0);
    }
    if x.past_deadline() {
        return Err(DatalogError::deadline());
    }
    let mut it = Iterate::stable(compiled, compiled.empty_idb());
    let mut edb_ix = Indexes::new();
    // Round 0: depth-1 derivations — all-EDB bodies only.
    let items: Vec<(usize, Vec<Src>)> = compiled
        .rules
        .iter()
        .enumerate()
        .filter(|(_, rule)| rule.idb_positions.is_empty())
        .map(|(ri, rule)| (ri, vec![Src::Edb; rule.atoms.len()]))
        .collect();
    let zero = compiled.empty_idb();
    let mut next = execute_round(
        &compiled.rules,
        &compiled.idb_arities,
        terms,
        Rels {
            edb,
            full: &it.full,
            prev: &it.prev,
            delta: &zero,
        },
        &mut edb_ix,
        &items,
        x,
    );
    charge_round(x, &next)?;
    if !it.merge(compiled, &mut next) {
        return Ok(it.full);
    }
    drive_rounds(compiled, terms, edb, &mut edb_ix, it, next, max_iters, x)
}

/// [`eval_datalog_idb_resume`] on interned relations: `edb` is the new
/// EDB (the changed relation already includes `added`), `retained` the
/// pruned fixpoint in `plan.compiled`'s predicate order.
pub(crate) fn resume<K: Semiring>(
    plan: &ResumePlan,
    terms: &mut TermTable,
    edb: &[&Rows<K>],
    added: &Rows<K>,
    retained: Vec<Rows<K>>,
    max_iters: usize,
    x: &Exec<'_>,
) -> Result<Vec<Rows<K>>, DatalogError> {
    let compiled = &plan.compiled;
    // At the resume point the iterate is stable: Iₙ₋₁ = Iₙ = retained.
    let mut it = Iterate::stable(compiled, retained);
    if max_iters == 0 {
        return no_fixpoint(0);
    }
    if x.past_deadline() {
        return Err(DatalogError::deadline());
    }
    // Seed round: the changed atom scans only the added facts.
    let mut seed_edb: Vec<&Rows<K>> = edb.to_vec();
    seed_edb[plan.changed] = added;
    let items: Vec<(usize, Vec<Src>)> = plan
        .resumed
        .rules
        .iter()
        .enumerate()
        .filter(|(ri, _)| plan.seeded[*ri])
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
    let zero = compiled.empty_idb();
    let mut next = execute_round(
        &plan.resumed.rules,
        &compiled.idb_arities,
        terms,
        Rels {
            edb: &seed_edb,
            full: &it.full,
            prev: &it.prev,
            delta: &zero,
        },
        &mut Indexes::new(),
        &items,
        x,
    );
    charge_round(x, &next)?;
    if !it.merge(compiled, &mut next) {
        return Ok(it.full);
    }
    drive_rounds(
        compiled,
        terms,
        edb,
        &mut Indexes::new(),
        it,
        next,
        max_iters,
        x,
    )
}

fn no_fixpoint<T>(max_iters: usize) -> Result<T, DatalogError> {
    err(format!(
        "no fixpoint after {max_iters} iterations (cyclic data with a non-idempotent semiring?)"
    ))
}

/// Execute one round's work list, returning the per-predicate delta it
/// derives. Indexes are built up front, so the round is immutable
/// during the (possibly parallel) joins. With a non-sequential context
/// the variants — and row ranges of full-scan first atoms — fan out
/// over the pool; each task grounds head Skolem terms against a
/// read-only snapshot of `terms` ([`Fresh`]), and the partial deltas
/// are merged with the same commutative `+` once the new terms are
/// absorbed into the table.
#[allow(clippy::too_many_arguments)]
fn execute_round<K: Semiring>(
    rules: &[CRule],
    arities: &[usize],
    terms: &mut TermTable,
    rels: Rels<'_, K>,
    edb_ix: &mut Indexes,
    items: &[(usize, Vec<Src>)],
    x: &Exec<'_>,
) -> Vec<Rows<K>> {
    let mut idb_ix = Indexes::new();
    for (ri, srcs) in items {
        rels.prepare(&rules[*ri], srcs, edb_ix, &mut idb_ix);
    }
    let round = Round {
        rels,
        edb_ix,
        idb_ix: &idb_ix,
    };
    let mut next: Vec<Rows<K>> = arities.iter().map(|&a| Rows::new(a)).collect();
    let Some(c) = x.parallel() else {
        for (ri, srcs) in items {
            let rule = &rules[*ri];
            round.join(rule, srcs, None, &mut next[rule.head_pred], terms);
        }
        return next;
    };
    // Fan out: one task per variant, and — when a variant's first atom
    // is a full scan over a big relation — one task per row range of
    // that scan.
    let degree = c.degree();
    type Task<'s> = (usize, &'s [Src], Option<Range<usize>>);
    let mut tasks: Vec<Task<'_>> = Vec::new();
    for (ri, srcs) in items {
        let rule = &rules[*ri];
        // Only rules whose first atom is a full scan can be chunked
        // (body-less fact rules and indexed first atoms run as one
        // task).
        if let Some(atom0) = rule.atoms.first().filter(|a| a.key_cols.is_empty()) {
            let n = round.rels.rel(srcs[0], atom0.pred).len();
            let want = (n / PAR_JOIN_MIN_TUPLES).min(degree);
            if want >= 2 {
                let per = n.div_ceil(want);
                for start in (0..n).step_by(per) {
                    tasks.push((*ri, srcs.as_slice(), Some(start..(start + per).min(n))));
                }
                continue;
            }
        }
        tasks.push((*ri, srcs.as_slice(), None));
    }
    let base = terms.len();
    let table = &*terms;
    let partials = c.pool.map_slice(&tasks, |_, (ri, srcs, range)| {
        let rule = &rules[*ri];
        let mut fresh = Fresh::new(table);
        let mut out = Rows::new(arities[rule.head_pred]);
        round.join(rule, srcs, range.clone(), &mut out, &mut fresh);
        (rule.head_pred, out, fresh.into_terms())
    });
    for (head, mut rows, new_terms) in partials {
        if !new_terms.is_empty() {
            let remap = terms.absorb(base, &new_terms);
            rows.remap(|id| final_id(id, base, &remap));
        }
        next[head].union_with(rows);
    }
    next
}

/// Charge one round's derived tuples against the memory budget.
fn charge_round<K: Semiring>(x: &Exec<'_>, next_delta: &[Rows<K>]) -> Result<(), DatalogError> {
    if let Some(b) = x.budget {
        let derived: usize = next_delta.iter().map(Rows::len).sum();
        if b.charge(derived).is_err() {
            return Err(DatalogError::memory());
        }
    }
    Ok(())
}

/// The delta-driven rounds shared by the fresh and resumed fixpoints:
/// each fires one variant per IDB position carrying the last delta
/// (`Iₙ₋₂` before it, `Iₙ₋₁` after — the exact partition of new-depth
/// derivation trees), merging until a round derives nothing. The
/// caller has run one round of the `max_iters` already.
#[allow(clippy::too_many_arguments)]
fn drive_rounds<K: Semiring>(
    compiled: &Compiled,
    terms: &mut TermTable,
    edb: &[&Rows<K>],
    edb_ix: &mut Indexes,
    mut it: Iterate<K>,
    mut delta: Vec<Rows<K>>,
    max_iters: usize,
    x: &Exec<'_>,
) -> Result<Vec<Rows<K>>, DatalogError> {
    for _ in 1..max_iters {
        if x.past_deadline() {
            return Err(DatalogError::deadline());
        }
        let mut items: Vec<(usize, Vec<Src>)> = Vec::new();
        for (ri, rule) in compiled.rules.iter().enumerate() {
            for (vi, &dpos) in rule.idb_positions.iter().enumerate() {
                let Pred::Idb(dp) = rule.atoms[dpos].pred else {
                    unreachable!("idb_positions index IDB atoms")
                };
                if delta[dp].is_empty() {
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
        // Derivations of the new depth, absorbed ones pruned at the
        // join (see [`Round::join`]): the next delta.
        let mut next = execute_round(
            &compiled.rules,
            &compiled.idb_arities,
            terms,
            Rels {
                edb,
                full: &it.full,
                prev: &it.prev,
                delta: &delta,
            },
            edb_ix,
            &items,
            x,
        );
        charge_round(x, &next)?;
        if !it.merge(compiled, &mut next) {
            return Ok(it.full);
        }
        delta = next;
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
    let _ = compile(prog, &signature(edb), &mut TermTable::new())?;
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
        assert_eq!(err.budget, Some(BudgetKind::WallClock), "{err:?}");
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
