//! Interned terms and columnar rows: the storage the semi-naive
//! evaluator runs on.
//!
//! - [`TermTable`] hash-conses every relational value — labels, node
//!   ids and Skolem terms — into a dense [`TermId`], the way
//!   `TreeArena` hash-conses trees. A Skolem term's arguments are
//!   interned before the term itself, so an argument's id is always
//!   below its term's id: one forward pass over the table sees every
//!   argument before the terms built from it (see
//!   `TermTable::mentions`).
//! - `Rows` is a fixed-arity relation stored as one flat `Vec<TermId>`
//!   of row-major cells plus a parallel annotation column, with an
//!   open-addressing row → position table for deduplication and the
//!   absorption check.
//! - `RowIndex` groups a `Rows`' positions by the values of some key
//!   columns: the probe index of an indexed join.
//!
//! [`KRelation`](crate::KRelation) stays the boundary type; conversion
//! happens once on entry to and exit from an evaluation.

use crate::krel::RelValue;
use axml_semiring::Semiring;
use axml_uxml::Label;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A dense id for an interned relational value.
pub type TermId = u32;

/// A fast multiplicative hasher for small integer keys (term ids, row
/// cells, packed probe keys). Not DoS-resistant; every key it sees is
/// produced by the engine itself.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// `HashMap` with [`FxHasher`].
pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with [`FxHasher`].
pub(crate) type FxSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// The hash-consing key of a term.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Key {
    Label(Label),
    Node(u64),
    /// The one-argument Skolem terms ψ builds (`f(n)`), without a
    /// heap-allocated argument list.
    Skolem1(Label, TermId),
    Skolem(Label, Box<[TermId]>),
}

fn skolem_key(f: Label, args: &[TermId]) -> Key {
    match args {
        [a] => Key::Skolem1(f, *a),
        _ => Key::Skolem(f, args.into()),
    }
}

/// The stored form of one term.
#[derive(Clone, Copy, Debug)]
enum Data {
    Label(Label),
    Node(u64),
    /// Name plus the argument span in [`TermTable::args`].
    Skolem(Label, u32, u32),
}

/// One interned term, borrowed from its table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Shape<'a> {
    /// An atomic label.
    Label(Label),
    /// A node id.
    Node(u64),
    /// A Skolem term `f(a₁, …, aₙ)` over interned arguments.
    Skolem(Label, &'a [TermId]),
}

/// A hash-consing table of relational values (see the module docs).
/// Equal values always get the same id, so value equality is id
/// equality.
#[derive(Clone, Debug, Default)]
pub struct TermTable {
    data: Vec<Data>,
    args: Vec<TermId>,
    ids: FxMap<Key, TermId>,
}

impl TermTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned terms (ids run `0..len`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    fn intern_key(&mut self, key: Key, data: Data) -> TermId {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = TermId::try_from(self.data.len()).expect("term table overflow");
        self.data.push(data);
        self.ids.insert(key, id);
        id
    }

    /// Intern a label.
    pub(crate) fn label(&mut self, l: Label) -> TermId {
        self.intern_key(Key::Label(l), Data::Label(l))
    }

    /// Intern a node id.
    pub(crate) fn node(&mut self, n: u64) -> TermId {
        self.intern_key(Key::Node(n), Data::Node(n))
    }

    /// Intern the Skolem term `f(args…)`; the arguments must already be
    /// interned here.
    pub(crate) fn skolem(&mut self, f: Label, args: &[TermId]) -> TermId {
        let key = skolem_key(f, args);
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let start = self.args.len() as u32;
        self.args.extend_from_slice(args);
        self.intern_key(key, Data::Skolem(f, start, args.len() as u32))
    }

    /// The id of a node, if it was ever interned.
    pub(crate) fn find_node(&self, n: u64) -> Option<TermId> {
        self.ids.get(&Key::Node(n)).copied()
    }

    /// The id of `f(args…)`, if it was ever interned.
    pub(crate) fn find_skolem(&self, f: Label, args: &[TermId]) -> Option<TermId> {
        self.ids.get(&skolem_key(f, args)).copied()
    }

    /// Intern a value (Skolem arguments first, recursively).
    pub fn intern(&mut self, v: &RelValue) -> TermId {
        match v {
            RelValue::Label(l) => self.label(*l),
            RelValue::Node(n) => self.node(*n),
            RelValue::Skolem(f, args) => {
                let ids: Vec<TermId> = args.iter().map(|a| self.intern(a)).collect();
                self.skolem(*f, &ids)
            }
        }
    }

    /// The term behind an id.
    pub(crate) fn shape(&self, id: TermId) -> Shape<'_> {
        match self.data[id as usize] {
            Data::Label(l) => Shape::Label(l),
            Data::Node(n) => Shape::Node(n),
            Data::Skolem(f, start, len) => {
                Shape::Skolem(f, &self.args[start as usize..(start + len) as usize])
            }
        }
    }

    /// The label behind an id, if it is one.
    pub(crate) fn as_label(&self, id: TermId) -> Option<Label> {
        match self.data[id as usize] {
            Data::Label(l) => Some(l),
            _ => None,
        }
    }

    /// Rebuild the boxed value of an id.
    pub fn value(&self, id: TermId) -> RelValue {
        match self.shape(id) {
            Shape::Label(l) => RelValue::Label(l),
            Shape::Node(n) => RelValue::Node(n),
            Shape::Skolem(f, args) => {
                RelValue::Skolem(f, args.iter().map(|&a| self.value(a)).collect())
            }
        }
    }

    /// One forward pass: which terms mention a term for which `seed`
    /// holds — the term itself or, recursively, a Skolem argument.
    /// Arguments precede their terms, so each term reads only flags
    /// already computed. The result is indexed by term id.
    pub(crate) fn mentions(&self, mut seed: impl FnMut(TermId) -> bool) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.data.len());
        for (id, data) in self.data.iter().enumerate() {
            let hit = seed(id as TermId)
                || match *data {
                    Data::Skolem(_, start, len) => self.args
                        [start as usize..(start + len) as usize]
                        .iter()
                        .any(|&a| out[a as usize]),
                    _ => false,
                };
            out.push(hit);
        }
        out
    }

    /// Append every node id mentioned by `id` (itself, or through
    /// Skolem arguments) to `out`, as the ids of their `Node` terms.
    pub(crate) fn node_terms(&self, id: TermId, out: &mut Vec<TermId>) {
        match self.shape(id) {
            Shape::Label(_) => {}
            Shape::Node(_) => out.push(id),
            Shape::Skolem(_, args) => {
                for &a in args {
                    self.node_terms(a, out);
                }
            }
        }
    }

    /// Append terms interned elsewhere against a snapshot of this
    /// table (see `Fresh`): `fresh[i]` had the provisional id
    /// `base + i`, and its arguments may be provisional too. Returns
    /// the final id of each.
    pub(crate) fn absorb(&mut self, base: usize, fresh: &[(Label, Vec<TermId>)]) -> Vec<TermId> {
        let mut remap: Vec<TermId> = Vec::with_capacity(fresh.len());
        let mut args = Vec::new();
        for (f, provisional) in fresh {
            args.clear();
            args.extend(provisional.iter().map(|&a| final_id(a, base, &remap)));
            let id = self.skolem(*f, &args);
            remap.push(id);
        }
        remap
    }

    /// Keep only the terms for which `live` holds (which must be closed
    /// under Skolem arguments), renumbering them densely in their old
    /// order. Returns old id → new id (`TermId::MAX` for dropped terms).
    pub(crate) fn compact(&mut self, live: &[bool]) -> Vec<TermId> {
        let old = std::mem::take(self);
        let mut remap = vec![TermId::MAX; old.data.len()];
        let mut args = Vec::new();
        for (id, data) in old.data.iter().enumerate() {
            if !live.get(id).copied().unwrap_or(false) {
                continue;
            }
            remap[id] = match *data {
                Data::Label(l) => self.label(l),
                Data::Node(n) => self.node(n),
                Data::Skolem(f, start, len) => {
                    args.clear();
                    args.extend(
                        old.args[start as usize..(start + len) as usize]
                            .iter()
                            .map(|&a| remap[a as usize]),
                    );
                    debug_assert!(args.iter().all(|&a| a != TermId::MAX));
                    self.skolem(f, &args)
                }
            };
        }
        remap
    }

    /// Drop every term from id `len` on (none may be referenced any
    /// more): undoes the interning of a solve whose results are gone.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len >= self.data.len() {
            return;
        }
        let mut args_len = self.args.len();
        for id in len..self.data.len() {
            let key = match self.data[id] {
                Data::Label(l) => Key::Label(l),
                Data::Node(n) => Key::Node(n),
                Data::Skolem(f, start, n) => {
                    args_len = args_len.min(start as usize);
                    skolem_key(f, &self.args[start as usize..(start + n) as usize])
                }
            };
            self.ids.remove(&key);
        }
        self.data.truncate(len);
        self.args.truncate(args_len);
    }

    /// Mark every argument of a marked term, so `live` is closed under
    /// Skolem arguments (one backward pass: arguments precede terms).
    pub(crate) fn close_under_args(&self, live: &mut [bool]) {
        for id in (0..self.data.len()).rev() {
            if let (true, Data::Skolem(_, start, len)) = (live[id], self.data[id]) {
                for &a in &self.args[start as usize..(start + len) as usize] {
                    live[a as usize] = true;
                }
            }
        }
    }
}

/// The final id of a possibly provisional id (see [`TermTable::absorb`]).
pub(crate) fn final_id(id: TermId, base: usize, remap: &[TermId]) -> TermId {
    if (id as usize) < base {
        id
    } else {
        remap[id as usize - base]
    }
}

/// Where a join grounds the Skolem terms of rule heads: the table
/// itself (sequential rounds), or a task-local [`Fresh`] extension of
/// it (parallel rounds share the table read-only).
pub(crate) trait Interner {
    /// The id of `f(args…)`, interning it if new.
    fn skolem(&mut self, f: Label, args: &[TermId]) -> TermId;
}

impl Interner for TermTable {
    fn skolem(&mut self, f: Label, args: &[TermId]) -> TermId {
        TermTable::skolem(self, f, args)
    }
}

/// A task-local extension of a shared [`TermTable`]: terms missing
/// from the table get provisional ids from `table.len()` upward,
/// resolved by [`TermTable::absorb`] once the round's tasks are done.
pub(crate) struct Fresh<'t> {
    table: &'t TermTable,
    terms: Vec<(Label, Vec<TermId>)>,
    ids: FxMap<Key, TermId>,
}

impl<'t> Fresh<'t> {
    pub(crate) fn new(table: &'t TermTable) -> Self {
        Fresh {
            table,
            terms: Vec::new(),
            ids: FxMap::default(),
        }
    }

    /// The provisional terms, in id order.
    pub(crate) fn into_terms(self) -> Vec<(Label, Vec<TermId>)> {
        self.terms
    }
}

impl Interner for Fresh<'_> {
    fn skolem(&mut self, f: Label, args: &[TermId]) -> TermId {
        if let Some(id) = self.table.find_skolem(f, args) {
            return id;
        }
        let key = skolem_key(f, args);
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = (self.table.len() + self.terms.len()) as TermId;
        self.terms.push((f, args.to_vec()));
        self.ids.insert(key, id);
        id
    }
}

// ---------------------------------------------------------------------
// Columnar rows.
// ---------------------------------------------------------------------

const EMPTY: u32 = u32::MAX;

fn hash_row(row: &[TermId]) -> u64 {
    let mut h = FxHasher::default();
    for &c in row {
        h.add(u64::from(c));
    }
    // Fold the high bits in: slot indexes use the low ones.
    h.0 ^ (h.0 >> 29)
}

/// A fixed-arity K-relation over interned terms: row-major cells, a
/// parallel annotation column, and a linear-probing row → position
/// table. Zero-annotated rows are never stored. Row order is
/// insertion order, except that removals move the last row into the
/// hole.
#[derive(Clone, Debug)]
pub(crate) struct Rows<K> {
    arity: usize,
    cells: Vec<TermId>,
    anns: Vec<K>,
    /// Row positions by hash; `EMPTY` marks a free slot. The length is
    /// zero or a power of two at most half full.
    slots: Vec<u32>,
}

impl<K: Semiring> Rows<K> {
    pub(crate) fn new(arity: usize) -> Self {
        Rows {
            arity,
            cells: Vec::new(),
            anns: Vec::new(),
            slots: Vec::new(),
        }
    }

    pub(crate) fn arity(&self) -> usize {
        self.arity
    }

    pub(crate) fn len(&self) -> usize {
        self.anns.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.anns.is_empty()
    }

    pub(crate) fn row(&self, pos: usize) -> &[TermId] {
        &self.cells[pos * self.arity..(pos + 1) * self.arity]
    }

    pub(crate) fn ann(&self, pos: usize) -> &K {
        &self.anns[pos]
    }

    /// `(row, annotation)` pairs in position order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&[TermId], &K)> + '_ {
        (0..self.len()).map(move |p| (self.row(p), &self.anns[p]))
    }

    /// `Ok(position)` of `row`, or `Err(free slot)` where it would go.
    fn probe(&self, row: &[TermId]) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash_row(row) as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => return Err(i),
                p if self.row(p as usize) == row => return Ok(p as usize),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The position of `row`, if present.
    pub(crate) fn find(&self, row: &[TermId]) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(row).ok()
    }

    /// The annotation of `row`, if present.
    pub(crate) fn get(&self, row: &[TermId]) -> Option<&K> {
        self.find(row).map(|p| &self.anns[p])
    }

    fn rehash(&mut self, capacity: usize) {
        self.slots.clear();
        self.slots.resize(capacity, EMPTY);
        let mask = capacity - 1;
        for p in 0..self.len() {
            let mut i = hash_row(self.row(p)) as usize & mask;
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = p as u32;
        }
    }

    /// Add `k` to the annotation of `row` (inserting it if absent).
    pub(crate) fn insert(&mut self, row: &[TermId], k: K) {
        debug_assert_eq!(row.len(), self.arity, "row arity");
        if k.is_zero() {
            return;
        }
        if 2 * (self.len() + 1) > self.slots.len() {
            self.rehash((2 * (self.len() + 1)).next_power_of_two().max(8));
        }
        match self.probe(row) {
            Ok(p) => {
                let merged = self.anns[p].plus(&k);
                if merged.is_zero() {
                    self.swap_remove(p);
                } else {
                    self.anns[p] = merged;
                }
            }
            Err(slot) => {
                self.slots[slot] = self.len() as u32;
                self.cells.extend_from_slice(row);
                self.anns.push(k);
            }
        }
    }

    /// Add every row of `other` (annotations add), consuming it.
    pub(crate) fn union_with(&mut self, other: Rows<K>) {
        if self.is_empty() {
            *self = other;
            return;
        }
        for (row, k) in other.iter() {
            self.insert(row, k.clone());
        }
    }

    /// The slot holding position `p`.
    fn slot_of(&self, p: usize) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash_row(self.row(p)) as usize & mask;
        while self.slots[i] != p as u32 {
            i = (i + 1) & mask;
        }
        i
    }

    /// Free a slot, shifting later members of its probe run back
    /// (linear-probing deletion without tombstones).
    fn free_slot(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let p = self.slots[j];
            if p == EMPTY {
                break;
            }
            let home = hash_row(self.row(p as usize)) as usize & mask;
            // Move `p` into the hole unless its home lies cyclically in
            // (hole, j] — then the hole is not on its probe path.
            let stays = if hole <= j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if !stays {
                self.slots[hole] = p;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
    }

    /// Remove the row at `p`, moving the last row into its place.
    fn swap_remove(&mut self, p: usize) {
        let last = self.len() - 1;
        let hole = self.slot_of(p);
        self.free_slot(hole);
        if p != last {
            let s = self.slot_of(last);
            self.slots[s] = p as u32;
            let a = self.arity;
            self.cells.copy_within(last * a..(last + 1) * a, p * a);
            self.anns.swap(p, last);
        }
        self.cells.truncate(last * self.arity);
        self.anns.pop();
    }

    /// Keep only the rows satisfying `keep`. A few removals are
    /// patched into the row table one by one; many rebuild it.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&[TermId], &K) -> bool) {
        let drop: Vec<usize> = if self.arity == 0 {
            (0..self.len())
                .filter(|&p| !keep(&[], &self.anns[p]))
                .collect()
        } else {
            self.cells
                .chunks_exact(self.arity)
                .zip(&self.anns)
                .enumerate()
                .filter(|(_, (row, k))| !keep(row, k))
                .map(|(p, _)| p)
                .collect()
        };
        if drop.is_empty() {
            return;
        }
        if 4 * drop.len() < self.len() {
            // Descending: every row moved into a hole is a kept one.
            for &p in drop.iter().rev() {
                self.swap_remove(p);
            }
            return;
        }
        let a = self.arity;
        let mut gone = drop.into_iter().peekable();
        let mut w = 0;
        for p in 0..self.len() {
            if gone.peek() == Some(&p) {
                gone.next();
                continue;
            }
            if w != p {
                self.cells.copy_within(p * a..(p + 1) * a, w * a);
                self.anns.swap(w, p);
            }
            w += 1;
        }
        self.cells.truncate(w * a);
        self.anns.truncate(w);
        let cap = (2 * w).next_power_of_two().max(8);
        self.rehash(cap);
    }

    /// Rewrite every cell through `f` (which must be injective on the
    /// cells present) and rebuild the row table.
    pub(crate) fn remap(&mut self, f: impl Fn(TermId) -> TermId) {
        for c in &mut self.cells {
            *c = f(*c);
        }
        if !self.slots.is_empty() {
            let cap = self.slots.len();
            self.rehash(cap);
        }
    }

    /// Every cell, row-major.
    pub(crate) fn cells(&self) -> &[TermId] {
        &self.cells
    }
}

/// The probe key of a projection: exact for one or two columns, a
/// hash otherwise (callers then re-check the key columns).
pub(crate) fn pack_key(vals: impl ExactSizeIterator<Item = TermId>) -> u64 {
    let n = vals.len();
    let mut vals = vals;
    match n {
        0 => 0,
        1 => u64::from(vals.next().expect("one value")),
        2 => {
            let a = vals.next().expect("two values");
            let b = vals.next().expect("two values");
            (u64::from(a) << 32) | u64::from(b)
        }
        _ => {
            let mut h = FxHasher::default();
            for v in vals {
                h.add(u64::from(v));
            }
            h.finish()
        }
    }
}

/// A `Rows`' positions grouped by their projection onto key columns
/// (CSR layout: one position array, one span per distinct key).
pub(crate) struct RowIndex {
    spans: FxMap<u64, (u32, u32)>,
    positions: Vec<u32>,
}

impl RowIndex {
    pub(crate) fn build<K: Semiring>(rows: &Rows<K>, cols: &[usize]) -> Self {
        let mut group_of: FxMap<u64, u32> = FxMap::default();
        let mut groups: Vec<u32> = Vec::with_capacity(rows.len());
        let mut counts: Vec<u32> = Vec::new();
        for p in 0..rows.len() {
            let row = rows.row(p);
            let key = pack_key(cols.iter().map(|&c| row[c]));
            let next = counts.len() as u32;
            let g = *group_of.entry(key).or_insert(next);
            if g == next {
                counts.push(0);
            }
            counts[g as usize] += 1;
            groups.push(g);
        }
        let mut starts: Vec<u32> = Vec::with_capacity(counts.len());
        let mut at = 0u32;
        for &c in &counts {
            starts.push(at);
            at += c;
        }
        let mut fill = starts.clone();
        let mut positions = vec![0u32; rows.len()];
        for (p, &g) in groups.iter().enumerate() {
            positions[fill[g as usize] as usize] = p as u32;
            fill[g as usize] += 1;
        }
        let spans = group_of
            .into_iter()
            .map(|(key, g)| (key, (starts[g as usize], counts[g as usize])))
            .collect();
        RowIndex { spans, positions }
    }

    /// The positions whose key packs to `key`.
    pub(crate) fn probe(&self, key: u64) -> &[u32] {
        match self.spans.get(&key) {
            Some(&(start, len)) => &self.positions[start as usize..(start + len) as usize],
            None => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_semiring::Nat;

    fn nested() -> RelValue {
        RelValue::Skolem(
            Label::new("f"),
            vec![
                RelValue::Skolem(Label::new("g"), vec![RelValue::Node(3)]),
                RelValue::label("x"),
                RelValue::Node(3),
            ],
        )
    }

    #[test]
    fn interning_is_hash_consing_and_round_trips() {
        let mut t = TermTable::new();
        let a = t.intern(&nested());
        let b = t.intern(&nested());
        assert_eq!(a, b);
        assert_eq!(t.value(a), nested());
        // g(3), 3, x and f(…) — the shared node 3 is one term.
        assert_eq!(t.len(), 4);
        let Shape::Skolem(_, args) = t.shape(a) else {
            panic!("a Skolem term")
        };
        assert!(args.iter().all(|&x| x < a), "arguments precede terms");
    }

    #[test]
    fn mentions_follow_skolem_arguments() {
        let mut t = TermTable::new();
        let f = t.intern(&nested());
        let other = t.intern(&RelValue::Node(4));
        let three = t.find_node(3).unwrap();
        let hit = t.mentions(|id| id == three);
        assert!(hit[f as usize]);
        assert!(!hit[other as usize]);
    }

    #[test]
    fn fresh_terms_absorb_into_final_ids() {
        let mut t = TermTable::new();
        let n = t.node(1);
        let f = Label::new("f");
        let (inner, outer, terms) = {
            let mut fresh = Fresh::new(&t);
            let inner = fresh.skolem(f, &[n]);
            let outer = fresh.skolem(f, &[inner]);
            assert_eq!(fresh.skolem(f, &[n]), inner);
            (inner, outer, fresh.into_terms())
        };
        let base = t.len();
        let remap = t.absorb(base, &terms);
        assert_eq!(
            final_id(inner, base, &remap),
            t.find_skolem(f, &[n]).unwrap()
        );
        let expect = RelValue::Skolem(f, vec![RelValue::Skolem(f, vec![RelValue::Node(1)])]);
        assert_eq!(t.value(final_id(outer, base, &remap)), expect);
    }

    #[test]
    fn compaction_renumbers_live_terms() {
        let mut t = TermTable::new();
        let dead = t.intern(&RelValue::Node(9));
        let f = t.intern(&nested());
        let mut live = vec![false; t.len()];
        live[f as usize] = true;
        t.close_under_args(&mut live);
        assert!(!live[dead as usize]);
        let remap = t.compact(&live);
        assert_eq!(remap[dead as usize], TermId::MAX);
        assert_eq!(t.value(remap[f as usize]), nested());
        assert_eq!(t.find_node(9), None);
    }

    #[test]
    fn rows_dedup_add_and_remove() {
        let mut r = Rows::<Nat>::new(2);
        for i in 0..100u32 {
            r.insert(&[i, i + 1], Nat(1));
        }
        r.insert(&[5, 6], Nat(2));
        assert_eq!(r.len(), 100);
        assert_eq!(r.get(&[5, 6]), Some(&Nat(3)));
        // Few removals patch the table; many rebuild it.
        r.retain(|row, _| row[0] != 7);
        assert_eq!(r.len(), 99);
        assert_eq!(r.get(&[7, 8]), None);
        for i in (0..100u32).filter(|&i| i != 7) {
            assert!(r.get(&[i, i + 1]).is_some(), "row {i} lost");
        }
        r.retain(|row, _| row[0] % 2 == 0);
        assert_eq!(r.len(), 50);
        for i in 0..100u32 {
            assert_eq!(r.get(&[i, i + 1]).is_some(), i % 2 == 0, "row {i}");
        }
    }

    #[test]
    fn index_groups_positions_by_key() {
        let mut r = Rows::<Nat>::new(3);
        r.insert(&[1, 2, 3], Nat(1));
        r.insert(&[1, 4, 3], Nat(1));
        r.insert(&[2, 4, 3], Nat(1));
        let idx = RowIndex::build(&r, &[0]);
        assert_eq!(idx.probe(pack_key([1].into_iter())).len(), 2);
        assert_eq!(idx.probe(pack_key([9].into_iter())).len(), 0);
        let idx = RowIndex::build(&r, &[0, 1, 2]);
        assert_eq!(idx.probe(pack_key([2, 4, 3].into_iter())), &[2]);
    }
}
