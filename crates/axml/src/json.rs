//! The workspace's no-serde JSON writer, plus the canonical JSON
//! rendering of query results.
//!
//! The build environment has no `serde`, so everything that emits JSON
//! — the criterion-shim summaries consumed by `bench_regression`, the
//! checked-in `BENCH_*.json` baselines, the CLI's `--format json`
//! query output, and the `axml-server` HTTP responses — goes through
//! this one small writer instead of growing per-call-site string
//! plumbing. (It lived in `axml_bench::json` until the server needed
//! it; the bench crate re-exports this module for compatibility.)
//!
//! The result-rendering half ([`result_json`], [`result_header`],
//! [`result_pieces`]) is the single source of truth for the
//! `--format json` shape: the CLI prints [`result_json`] whole, the
//! server streams [`result_header`], then each pushed piece rendered by
//! [`tree_json`] (through `ResultPieceRef::write_json`), then `}`, and
//! because both compose the same pieces the bytes are identical either
//! way.
//!
//! [`tree_json`] is the per-piece hot path, so it bypasses the
//! builder's comma bookkeeping: one walk over the tree writes constant
//! literals, escaped label names and the cached document-order
//! children straight into the output bytes, and each annotation is
//! rendered by its own `Display`, escaped fragment by fragment as it
//! is written.

use crate::options::EvalOptions;
use crate::result::AxmlResult;
use axml_semiring::Semiring;
use axml_uxml::{Forest, Tree, Value};
use std::fmt::{self, Write as _};
use std::io::Write as _;

/// Escape `s` per JSON string rules (quotes, backslashes, control
/// characters; non-ASCII passes through — JSON is UTF-8).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A quoted, escaped JSON string literal.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// [`escape`] appended straight onto a byte buffer: runs of bytes that
/// need no escaping are copied whole (multi-byte UTF-8 never does).
fn escape_into(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\t' => b"\\t",
            b'\r' => b"\\r",
            0..=0x1f => b"",
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        if short.is_empty() {
            out.extend_from_slice(b"\\u00");
            out.push(HEX[usize::from(b >> 4)]);
            out.push(HEX[usize::from(b & 0xf)]);
        } else {
            out.extend_from_slice(short);
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
}

/// Append the scheduler-counter object for one pool snapshot. The
/// single source of truth for the `scheduler` stats shape: the
/// server's `GET /stats` (its own pool) and the CLI's
/// `query --stats` (the global pool) both emit exactly these keys.
pub fn scheduler_json(j: &mut Json, s: &axml_pool::PoolStats) {
    j.begin_obj();
    j.key("workers");
    j.int(s.workers as u64);
    j.key("lanes");
    j.int(s.lanes as u64);
    j.key("queued_cheap");
    j.int(s.queued_cheap as u64);
    j.key("queued_normal");
    j.int(s.queued_normal as u64);
    j.key("queued_expensive");
    j.int(s.queued_expensive as u64);
    j.key("queued_deques");
    j.int(s.queued_deques as u64);
    j.key("executed_owned");
    j.int(s.owned);
    j.key("executed_helped");
    j.int(s.helped);
    j.key("executed_stolen");
    j.int(s.stolen);
    j.key("executed_injected");
    j.int(s.injected);
    j.key("max_queue_residency_ns");
    j.int(s.max_queue_residency_ns);
    j.end_obj();
}

/// Append the incremental-layer object for one [`crate::IncrStats`]
/// snapshot: the single source of the `incremental` stats shape that
/// the server's `GET /stats` and the CLI's `--stats` line both emit.
pub fn incremental_json(j: &mut Json, s: &crate::IncrStats) {
    j.begin_obj();
    j.key("edits_applied");
    j.int(s.edits_applied);
    j.key("spine_nodes_interned");
    j.int(s.spine_nodes_interned);
    j.key("delta_facts_retired");
    j.int(s.delta_facts_retired);
    j.key("delta_facts_added");
    j.int(s.delta_facts_added);
    j.key("memo_hits");
    j.int(s.memo_hits);
    j.key("memo_misses");
    j.int(s.memo_misses);
    j.key("memo_entries");
    j.int(s.memo_entries);
    j.key("incremental_evals");
    j.int(s.incremental_evals);
    j.key("full_fallbacks");
    j.int(s.full_fallbacks);
    j.end_obj();
}

/// Append the compaction object for one [`crate::CompactionStats`]
/// snapshot: the single source of the `compaction` stats shape that
/// the server's `GET /stats` and the CLI's `--stats` line both emit.
pub fn compaction_json(j: &mut Json, s: &crate::CompactionStats) {
    j.begin_obj();
    j.key("live_subtrees");
    j.int(s.live_subtrees as u64);
    j.key("subtrees_dropped");
    j.int(s.subtrees_dropped);
    j.key("compactions");
    j.int(s.compactions);
    j.key("last_pause_us");
    j.int(s.last_pause_us);
    j.key("image_memo_entries");
    j.begin_obj();
    for (kind, n) in s.image_memo_entries {
        j.key(kind.name());
        j.int(n as u64);
    }
    j.end_obj();
    j.end_obj();
}

/// An incremental builder for one JSON value — objects, arrays and
/// scalars, with commas managed automatically. No reflection, no
/// intermediate DOM: values stream into one byte buffer, strings are
/// escaped straight into it, and [`append_to`](Json::append_to) lets a
/// response writer render into its own pending buffer instead.
///
/// ```
/// use axml::json::Json;
/// let mut j = Json::new();
/// j.begin_obj();
/// j.key("id");
/// j.str("eval/depth=8");
/// j.key("mean_ns");
/// j.num(75_312.5);
/// j.end_obj();
/// assert_eq!(j.finish(), r#"{"id":"eval/depth=8","mean_ns":75312.5}"#);
/// ```
#[derive(Debug, Default)]
pub struct Json {
    /// The rendered bytes. Only `str` data is ever appended, so the
    /// buffer is always valid UTF-8.
    buf: Vec<u8>,
    /// Whether the next emission at the current nesting level needs a
    /// leading comma (one flag per open container).
    need_comma: Vec<bool>,
}

impl Json {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn pre_value(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.buf.push(b',');
            }
            *need = true;
        }
    }

    /// Append `s` as a quoted, escaped JSON string literal.
    fn quoted(&mut self, s: &str) {
        self.buf.push(b'"');
        escape_into(&mut self.buf, s);
        self.buf.push(b'"');
    }

    /// Open an object (`{`).
    pub fn begin_obj(&mut self) {
        self.pre_value();
        self.buf.push(b'{');
        self.need_comma.push(false);
    }

    /// Close the innermost object (`}`).
    pub fn end_obj(&mut self) {
        self.need_comma.pop();
        self.buf.push(b'}');
    }

    /// Open an array (`[`).
    pub fn begin_arr(&mut self) {
        self.pre_value();
        self.buf.push(b'[');
        self.need_comma.push(false);
    }

    /// Close the innermost array (`]`).
    pub fn end_arr(&mut self) {
        self.need_comma.pop();
        self.buf.push(b']');
    }

    /// Emit an object key. Must be followed by exactly one value.
    pub fn key(&mut self, k: &str) {
        self.pre_value();
        self.quoted(k);
        self.buf.push(b':');
        // The value after a key is not a fresh element of the object.
        if let Some(need) = self.need_comma.last_mut() {
            *need = false;
        }
    }

    /// Emit a string value.
    pub fn str(&mut self, s: &str) {
        self.pre_value();
        self.quoted(s);
    }

    /// Emit a numeric value (finite; NaN/∞ become `null`, which JSON
    /// requires).
    pub fn num(&mut self, n: f64) {
        self.pre_value();
        if n.is_finite() {
            let _ = write!(self.buf, "{n}");
        } else {
            self.buf.extend_from_slice(b"null");
        }
    }

    /// Emit an integer value.
    pub fn int(&mut self, n: u64) {
        self.pre_value();
        let _ = write!(self.buf, "{n}");
    }

    /// Emit a boolean value.
    pub fn bool(&mut self, b: bool) {
        self.pre_value();
        self.buf
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Render one complete value through `f` onto the end of `out`
    /// (typically a response's pending buffer), reusing this builder's
    /// nesting stack so a caller rendering many values allocates
    /// nothing per value. The builder must hold no open container.
    pub fn append_to(&mut self, out: &mut Vec<u8>, f: impl FnOnce(&mut Json)) {
        debug_assert!(
            self.need_comma.is_empty(),
            "append_to inside an open container"
        );
        std::mem::swap(&mut self.buf, out);
        f(self);
        std::mem::swap(&mut self.buf, out);
    }

    /// The finished JSON text.
    pub fn finish(self) -> String {
        String::from_utf8(self.buf).expect("the builder only appends UTF-8")
    }
}

/// A value rendered as a JSON tree: annotations as strings in the
/// semiring's syntax (omitted when `1`), children in the byte-stable
/// document order the text printer uses.
pub fn value_json<K: Semiring + fmt::Display>(j: &mut Json, v: &Value<K>) {
    match v {
        Value::Label(l) => {
            j.begin_obj();
            j.key("label");
            j.str(l.name());
            j.end_obj();
        }
        Value::Tree(t) => tree_json(j, t, None),
        Value::Set(f) => forest_json(j, f),
    }
}

/// A forest as a JSON array of trees (document order).
pub fn forest_json<K: Semiring + fmt::Display>(j: &mut Json, f: &Forest<K>) {
    j.begin_arr();
    for (t, k) in f.iter_document() {
        tree_json(j, t, Some(k));
    }
    j.end_arr();
}

/// One tree as a JSON object; `ann` is its annotation in the parent
/// (omitted from the output when it is the semiring's `1`).
pub fn tree_json<K: Semiring + fmt::Display>(j: &mut Json, t: &Tree<K>, ann: Option<&K>) {
    j.pre_value();
    write_tree(&mut j.buf, t, ann);
}

/// [`tree_json`]'s walk: the object's bytes appended to `out`, with no
/// builder state — children are separated by literal commas.
fn write_tree<K: Semiring + fmt::Display>(out: &mut Vec<u8>, t: &Tree<K>, ann: Option<&K>) {
    out.extend_from_slice(b"{\"label\":\"");
    escape_into(out, t.label().name());
    out.push(b'"');
    if let Some(k) = ann.filter(|k| !k.is_one()) {
        out.extend_from_slice(b",\"annotation\":\"");
        let _ = write!(Escaped(out), "{k}");
        out.push(b'"');
    }
    if !t.is_leaf() {
        out.extend_from_slice(b",\"children\":[");
        for (i, (c, k)) in t.children_document().iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            write_tree(out, c, Some(k));
        }
        out.push(b']');
    }
    out.push(b'}');
}

/// A `fmt::Write` that escapes every fragment onto a byte buffer as it
/// is written, so a `Display` rendering becomes a JSON string body in
/// one pass.
struct Escaped<'a>(&'a mut Vec<u8>);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// The `result` value of one [`AxmlResult`], dispatched over its
/// runtime semiring, appended to an open builder.
pub fn result_value_json(j: &mut Json, out: &AxmlResult) {
    match out {
        AxmlResult::Nat(v) => value_json(j, v),
        AxmlResult::PosBool(v) => value_json(j, v),
        AxmlResult::Tropical(v) => value_json(j, v),
        AxmlResult::NatPoly(v) => value_json(j, v),
        AxmlResult::Why(v) => value_json(j, v),
        AxmlResult::Trio(v) => value_json(j, v),
        AxmlResult::Prob(v) => value_json(j, v),
    }
}

/// The opening of the result object, up to and including the
/// `"result":` key — everything known before any result bytes:
/// `{"query":…,"semiring":…,"route":…,"mode":…,"result":`.
///
/// Streaming writers (the server) emit this first, then the pieces of
/// the result array (as [`result_pieces`] cuts them), then the
/// closing `}`.
pub fn result_header(query: &str, opts: &EvalOptions) -> String {
    let mut j = Json::new();
    j.begin_obj();
    j.key("query");
    j.str(query);
    j.key("semiring");
    j.str(opts.semiring.name());
    j.key("route");
    j.str(opts.route.name());
    j.key("mode");
    j.str(opts.mode.name());
    j.key("result");
    j.finish()
}

/// The `result` field of one evaluation, cut into independently
/// writable pieces for streaming.
pub enum ResultPieces {
    /// A K-set: stream as a JSON array, one piece per
    /// `(tree, annotation)` pair, in document order.
    Set(Vec<String>),
    /// A scalar (bare label or a single unannotated tree): one piece.
    Scalar(String),
}

/// Cut the `result` field into streamable pieces (see
/// [`ResultPieces`]). [`result_json`] concatenates exactly these, so a
/// streaming writer that flushes them one at a time produces the same
/// bytes as the one-shot rendering.
pub fn result_pieces(out: &AxmlResult) -> ResultPieces {
    match out.pieces() {
        Some(pieces) => ResultPieces::Set(pieces.iter().map(|p| p.json()).collect()),
        None => {
            let mut j = Json::new();
            result_value_json(&mut j, out);
            ResultPieces::Scalar(j.finish())
        }
    }
}

/// Render a query result as one JSON object (the CLI's
/// `--format json` shape and the server's `/eval` response body):
/// request echo plus the value as a structured tree.
pub fn result_json(query: &str, opts: &EvalOptions, out: &AxmlResult) -> String {
    let mut s = result_header(query, opts);
    match result_pieces(out) {
        ResultPieces::Set(items) => {
            s.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(item);
            }
            s.push(']');
        }
        ResultPieces::Scalar(v) => s.push_str(&v),
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EvalOptions, SemiringKind};
    use axml_semiring::{Monomial, NatPoly, Var};
    use axml_uxml::Label;
    use proptest::prelude::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(string("hé"), "\"hé\"");
    }

    /// Arbitrary text weighted towards what escaping must get right:
    /// quotes, backslashes, every control character, multibyte UTF-8.
    fn text() -> impl Strategy<Value = String> {
        let ch = prop_oneof![
            proptest::sample::select(vec!['"', '\\', '\n', '\t', '\r', '\u{7f}', 'é', '中']),
            (0u32..0x20).prop_map(|c| char::from_u32(c).unwrap()),
            (0x20u32..0x80).prop_map(|c| char::from_u32(c).unwrap()),
            (0x80u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
        ];
        proptest::collection::vec(ch, 0..24).prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The in-place escaper emits exactly the bytes of the
        /// reference `escape`, for strings, keys and `Display` output
        /// escaped as it is written.
        #[test]
        fn str_key_and_display_match_the_reference_escape(s in text()) {
            let quoted = format!("\"{}\"", escape(&s));
            let mut j = Json::new();
            j.str(&s);
            prop_assert_eq!(j.finish(), quoted.clone());
            let mut j = Json::new();
            j.begin_obj();
            j.key(&s);
            j.str(&s);
            j.end_obj();
            prop_assert_eq!(j.finish(), format!("{{{quoted}:{quoted}}}"));
            // Two `write_str` calls, as a nested `Display` makes them.
            let mut buf = Vec::new();
            let _ = write!(Escaped(&mut buf), "{s}{s}");
            prop_assert_eq!(String::from_utf8(buf).unwrap(), escape(&s).repeat(2));
        }

        /// The direct byte walk renders every tree exactly as the
        /// builder-based renderer it replaced, whatever the label and
        /// variable names hold.
        #[test]
        fn tree_json_matches_the_builder_rendering(
            t in arb_tree(),
            k in arb_poly(),
        ) {
            for ann in [None, Some(&k)] {
                let mut want = Json::new();
                builder_tree_json(&mut want, &t, ann);
                let mut got = Json::new();
                tree_json(&mut got, &t, ann);
                prop_assert_eq!(got.finish(), want.finish());
            }
            // Inside a container, where the builder places the commas.
            let mut want = Json::new();
            let mut got = Json::new();
            for j in [&mut want, &mut got] {
                j.begin_arr();
                j.int(0);
            }
            builder_tree_json(&mut want, &t, Some(&k));
            tree_json(&mut got, &t, Some(&k));
            for j in [&mut want, &mut got] {
                j.end_arr();
            }
            prop_assert_eq!(got.finish(), want.finish());
        }
    }

    /// The renderer [`tree_json`] replaced, kept as its reference: every
    /// node through the builder, each annotation formatted whole and
    /// then escaped.
    fn builder_tree_json<K: Semiring + fmt::Display>(j: &mut Json, t: &Tree<K>, ann: Option<&K>) {
        j.begin_obj();
        j.key("label");
        j.str(t.label().name());
        if let Some(k) = ann {
            if !k.is_one() {
                j.key("annotation");
                j.str(&k.to_string());
            }
        }
        if !t.is_leaf() {
            j.key("children");
            j.begin_arr();
            for (c, k) in t.children_document() {
                builder_tree_json(j, c, Some(k));
            }
            j.end_arr();
        }
        j.end_obj();
    }

    /// ℕ\[X\] annotations over variables named by [`text`], with
    /// coefficients, exponents and the constant `1` (which is elided).
    fn arb_poly() -> impl Strategy<Value = NatPoly> {
        let term = (proptest::collection::vec((text(), 1u32..3), 0..3), 1u64..3);
        proptest::collection::vec(term, 0..3).prop_map(|terms| {
            NatPoly::sum(terms.into_iter().map(|(vars, c)| {
                let m = Monomial::from_pairs(vars.iter().map(|(v, e)| (Var::new(v), *e)));
                NatPoly::term(m, c)
            }))
        })
    }

    /// Trees up to depth 3 with labels named by [`text`].
    fn arb_tree() -> impl Strategy<Value = Tree<NatPoly>> {
        type Kids = Vec<(Tree<NatPoly>, NatPoly)>;
        let node = |kid: BoxedStrategy<Tree<NatPoly>>| {
            (text(), proptest::collection::vec((kid, arb_poly()), 0..4))
                .prop_map(|(l, kids): (String, Kids)| {
                    Tree::new(Label::new(&l), Forest::from_pairs(kids))
                })
                .boxed()
        };
        let leaf = text()
            .prop_map(|l: String| Tree::leaf(Label::new(&l)))
            .boxed();
        node(node(leaf))
    }

    /// The queries behind `testdata/result_json.golden`: the paper's
    /// Fig 1 and Fig 6 results (trees) and a descendant set over each
    /// document (top-level annotated pieces).
    const GOLDEN_QUERIES: [(&str, &str); 4] = [
        ("fig1", "element p { for $t in $S return for $x in ($t)/child::* return ($x)/child::* }"),
        ("fig1_desc", "$S//*"),
        ("fig6", "let $r := $d/R/*, $rAB := for $t in $r return <t> { $t/A, $t/B } </t>, $rBC := for $t in $r return <t> { $t/B, $t/C } </t>, $s := $d/S/* return <Q> { for $x in $rAB, $y in ($rBC, $s) where $x/B = $y/B return <t> { $x/A, $y/C } </t> } </Q>"),
        ("fig6_desc", "$d//t"),
    ];

    /// Every golden line is `name<TAB>semiring<TAB>result_json`, as the
    /// renderer produced it before its single-pass rewrite.
    #[test]
    fn result_json_matches_the_golden_renderings() {
        let engine = Engine::new();
        engine
            .load_document(
                "S",
                "<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>",
            )
            .unwrap();
        engine
            .load_document(
                "d",
                "<D> <R {w1}> \
                   <t {x1}> <A {y1}> a </A> <B {y2}> b {z1} </B> <C {y3}> c </C> </t> \
                   <t {x2}> <A {y1}> d </A> <B {y2}> b {z2} </B> <C {y3}> e {z3} </C> </t> \
                   <t {x3}> <A {y1}> f </A> <B {y2}> g {z4} </B> <C {y3}> e {z5} </C> </t> \
                 </R> <S> \
                   <t {x4}> <B {y5}> b {z6} </B> <C {y6}> c </C> </t> \
                   <t {x5}> <B {y5}> g {z7} </B> <C {y6}> c </C> </t> \
                 </S> </D>",
            )
            .unwrap();
        let golden = include_str!("../testdata/result_json.golden");
        let mut lines = golden.lines();
        for (name, query) in GOLDEN_QUERIES {
            for kind in SemiringKind::ALL {
                let line = lines.next().expect("a golden line per query and kind");
                let want = line
                    .strip_prefix(&format!("{name}\t{kind}\t"))
                    .unwrap_or_else(|| panic!("golden order: {name} {kind}, got {line}"));
                let opts = EvalOptions::new().semiring(kind);
                let out = engine.run(query, opts).unwrap();
                assert_eq!(result_json(query, &opts, &out), want, "{name} in {kind}");
            }
        }
        assert_eq!(lines.next(), None, "no stale golden lines");
    }

    #[test]
    fn append_to_renders_onto_a_foreign_buffer() {
        let mut j = Json::new();
        let mut out = b"[".to_vec();
        for i in 0..2 {
            j.append_to(&mut out, |j| {
                j.begin_obj();
                j.key("i");
                j.int(i);
                j.end_obj();
            });
            out.push(b',');
        }
        assert_eq!(out, br#"[{"i":0},{"i":1},"#);
        // The builder's own buffer is untouched.
        assert_eq!(j.finish(), "");
    }

    #[test]
    fn nested_structures_comma_correctly() {
        let mut j = Json::new();
        j.begin_arr();
        for i in 0..2 {
            j.begin_obj();
            j.key("i");
            j.int(i);
            j.key("kids");
            j.begin_arr();
            j.str("a");
            j.str("b");
            j.end_arr();
            j.end_obj();
        }
        j.end_arr();
        assert_eq!(
            j.finish(),
            r#"[{"i":0,"kids":["a","b"]},{"i":1,"kids":["a","b"]}]"#
        );
    }

    #[test]
    fn non_finite_numbers_are_null() {
        let mut j = Json::new();
        j.begin_arr();
        j.num(1.5);
        j.num(f64::NAN);
        j.end_arr();
        assert_eq!(j.finish(), "[1.5,null]");
    }

    #[test]
    fn streamed_pieces_concatenate_to_the_one_shot_rendering() {
        let engine = Engine::new();
        engine.load_document("S", "<a {z}> b {x} c </a>").unwrap();
        for kind in SemiringKind::ALL {
            let opts = EvalOptions::new().semiring(kind);
            let out = engine.run("$S/*", opts).unwrap();
            let whole = result_json("$S/*", &opts, &out);
            let mut streamed = result_header("$S/*", &opts);
            match result_pieces(&out) {
                ResultPieces::Set(items) => {
                    streamed.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            streamed.push(',');
                        }
                        streamed.push_str(item);
                    }
                    streamed.push(']');
                }
                ResultPieces::Scalar(v) => streamed.push_str(&v),
            }
            streamed.push('}');
            assert_eq!(whole, streamed, "{kind}");
        }
    }
}
