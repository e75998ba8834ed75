//! Seeded request plans for the three workloads.
//!
//! A plan is a table of distinct request templates plus two index
//! sequences into it: the set-up requests (document loads, prepares and
//! one warm-up pass over every read template) and the measured
//! operations. The operation count is fixed by the caller; the seed
//! only shuffles the order inside fixed-composition blocks and picks
//! edit paths, side-document payloads and the order of the inline query
//! texts, so every seed sends the same number of requests of each kind.

use axml::{query_handle, EvalOptions, Route, SemiringKind};
use axml_semiring::NatPoly;
use std::collections::HashMap;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["point_eval", "wide_stream", "churn_rw"];

/// One `/eval` request.
#[derive(Clone, Debug)]
pub struct EvalReq {
    pub query: String,
    /// Query text in the body instead of `?handle=`.
    pub inline: bool,
    pub semiring: SemiringKind,
    pub route: Route,
    /// Sent as `parallelism=` when above 1.
    pub parallelism: usize,
    pub limit: Option<usize>,
}

impl EvalReq {
    /// The options the server builds from this request's parameters.
    pub fn options(&self) -> EvalOptions {
        let opts = EvalOptions::new().semiring(self.semiring).route(self.route);
        if self.parallelism > 1 {
            opts.parallel(self.parallelism)
        } else {
            opts
        }
    }
}

#[derive(Clone, Debug)]
pub enum Op {
    Prepare(String),
    Eval(EvalReq),
    Put { doc: String, text: String },
    Patch { doc: String, script: String },
    Delete { doc: String },
}

impl Op {
    /// Reads are `/eval`s; everything else changes server state or
    /// sets it up.
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Eval(_))
    }

    pub fn is_write(&self) -> bool {
        matches!(self, Op::Put { .. } | Op::Patch { .. } | Op::Delete { .. })
    }

    /// The exact HTTP/1.1 request bytes.
    pub fn request_bytes(&self) -> Vec<u8> {
        let (method, target, body): (&str, String, &str) = match self {
            Op::Prepare(q) => ("POST", "/prepare".into(), q),
            Op::Eval(e) => {
                let mut t = String::from("/eval?");
                if !e.inline {
                    t.push_str(&format!("handle={}&", query_handle(&e.query)));
                }
                t.push_str(&format!(
                    "semiring={}&route={}",
                    e.semiring.name(),
                    e.route.name()
                ));
                if e.parallelism > 1 {
                    t.push_str(&format!("&parallelism={}", e.parallelism));
                }
                if let Some(n) = e.limit {
                    t.push_str(&format!("&limit={n}"));
                }
                ("POST", t, if e.inline { &e.query } else { "" })
            }
            Op::Put { doc, text } => ("PUT", format!("/documents/{doc}"), text),
            Op::Patch { doc, script } => ("PATCH", format!("/documents/{doc}"), script),
            Op::Delete { doc } => ("DELETE", format!("/documents/{doc}"), ""),
        };
        let mut out = format!(
            "{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body.as_bytes());
        out
    }
}

pub struct Template {
    pub op: Op,
    pub bytes: Vec<u8>,
}

pub struct Plan {
    /// The server's (and the reference registry's) `max_prepared`.
    pub max_prepared: usize,
    pub templates: Vec<Template>,
    pub setup: Vec<u32>,
    pub ops: Vec<u32>,
    /// Operations per block: `ops` is a whole number of blocks.
    pub block: usize,
}

impl Plan {
    pub fn op(&self, i: u32) -> &Op {
        &self.templates[i as usize].op
    }
}

/// splitmix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Interns templates by their request bytes.
struct Builder {
    templates: Vec<Template>,
    index: HashMap<Vec<u8>, u32>,
}

impl Builder {
    fn new() -> Self {
        Builder {
            templates: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn add(&mut self, op: Op) -> u32 {
        let bytes = op.request_bytes();
        if let Some(&i) = self.index.get(&bytes) {
            return i;
        }
        let i = u32::try_from(self.templates.len()).expect("fewer than 2^32 templates");
        self.index.insert(bytes.clone(), i);
        self.templates.push(Template { op, bytes });
        i
    }
}

/// One slot of a block: what kind of request goes there. Slots are
/// resolved to concrete requests in sequence order, after shuffling,
/// so stateful choices (which side document exists) follow the order
/// the server sees.
#[derive(Clone, Copy)]
enum Slot {
    /// A fixed read template.
    Read(u32),
    /// An inline `/eval` drawn from the workload's inline pool.
    Inline,
    /// A reannotation of the small side document `E`.
    SideEdit,
    /// A splice under the big churn document.
    Splice,
    /// A replace or delete of one churn side document.
    SideDoc,
}

fn eval(query: &str, semiring: SemiringKind, route: Route) -> EvalReq {
    EvalReq {
        query: query.to_owned(),
        inline: false,
        semiring,
        route,
        parallelism: 1,
        limit: None,
    }
}

fn shredded2(query: &str, semiring: SemiringKind) -> EvalReq {
    EvalReq {
        parallelism: 2,
        ..eval(query, semiring, Route::Shredded)
    }
}

/// The small side document every workload edits and reads at a low
/// rate, so that each workload runs the edit, fixpoint and pool layers
/// and reports a write latency.
const SIDE_DOC: &str = "E";
const SIDE_QUERY: &str = "$E//c";

fn side_reads() -> Vec<EvalReq> {
    vec![
        eval(SIDE_QUERY, SemiringKind::Nat, Route::Direct),
        eval(SIDE_QUERY, SemiringKind::NatPoly, Route::Direct),
        shredded2(SIDE_QUERY, SemiringKind::Nat),
        shredded2(SIDE_QUERY, SemiringKind::NatPoly),
    ]
}

/// A child-index path to a random node of a balanced branching-3 tree:
/// the root entry `/0`, then `depth` child indices.
fn random_path(rng: &mut Rng, depth: usize) -> String {
    let mut p = String::from("/0");
    for _ in 0..depth {
        p.push_str(&format!("/{}", rng.below(3)));
    }
    p
}

/// Document text of a forest: its display without the enclosing
/// parentheses.
fn doc_text(f: impl std::fmt::Display) -> String {
    let s = f.to_string();
    match s.strip_prefix('(').and_then(|s| s.strip_suffix(')')) {
        Some(inner) => inner.to_owned(),
        None => s,
    }
}

/// Point reads over the paper's figure documents.
const POINT_QUERIES: [&str; 6] = [
    axml_bench::FIG1_QUERY,
    axml_bench::FIG4_QUERY,
    axml_bench::FIG5_VIEW,
    "$S/*",
    "$T//c",
    "element q { $d/R/* }",
];
/// Distinct inline texts, sent in one seeded order over and over. The
/// pool is larger than `POINT_MAX_PREPARED`, so a text has always been
/// evicted by the time it comes round again: every inline eval misses
/// the registry and compiles, at a fixed rate. The capacity is above
/// the 40 inline texts of two blocks plus the 7 prepared handles, so a
/// handle is never evicted between two of its uses.
const POINT_INLINE_POOL: usize = 96;
const POINT_MAX_PREPARED: usize = 64;
/// Per block, the 20 inline compiles and the 2 shredded reads of `E`
/// are the costly class: 22 of 108 reads. p90 then falls near the
/// middle of that class (rank 97.2 of 108, 11 ranks from either edge),
/// and p50 inside the 86 cheap handle reads, not on the edge between.
const POINT_INLINE_PER_BLOCK: usize = 20;

fn point_inline(i: usize) -> String {
    match i % 3 {
        0 => format!("element p{i} {{ $S/*/* }}"),
        1 => format!("element p{i} {{ $T//c }}"),
        _ => format!("element p{i} {{ $d/S/* }}"),
    }
}

/// Wide documents: `n` distinct children alternating `<b>`/`<c>`, each
/// with one distinct leaf, every node annotated.
pub const WIDE_SIZES: [usize; 2] = [1000, 2000];

fn wide_doc(n: usize) -> String {
    let mut s = String::from("<w> ");
    for i in 0..n {
        let l = if i % 2 == 0 { "b" } else { "c" };
        s.push_str(&format!("<{l} {{x{i}}}> k{i} {{y{i}}} </{l}> "));
    }
    s.push_str("</w>");
    s
}

/// Churn: the big document is a balanced depth-7 branching-3 tree
/// (3280 nodes). Every height-1 node has its own label over the shared
/// leaves `c l1 l2`, so no two of them are equal; splices replace one
/// with a same-shape subtree under a fresh label. Each splice thus
/// swaps one distinct subtree for another: every path stays valid and
/// the document keeps its size and its number of distinct subtrees, so
/// reads cost the same at the end of a run as at its start. (Had the
/// height-1 nodes started equal, each splice would break sharing and
/// reads would slow down over the run.)
const CHURN_DEPTH: u32 = 7;

fn churn_doc() -> String {
    fn node(depth: u32, idx: u32, leaf_parents: &mut usize, out: &mut String) {
        if depth == 1 {
            *leaf_parents += 1;
            out.push_str(&format!("<u{leaf_parents}> c l1 l2 </u{leaf_parents}> "));
            return;
        }
        out.push_str(&format!("<n{depth}_{idx}> "));
        for i in 0..3 {
            node(depth - 1, i, leaf_parents, out);
        }
        out.push_str(&format!("</n{depth}_{idx}> "));
    }
    let mut out = String::new();
    node(CHURN_DEPTH, 0, &mut 0, &mut out);
    out
}
const CHURN_SIDE_DOCS: usize = 4;

fn churn_side_doc(r: usize) -> String {
    let rows: String = (0..16)
        .map(|k| format!("<row {{x{r}_{k}}}> v{k} </row> "))
        .collect();
    format!("<D> {rows}</D>")
}

/// Blocks per workload: (read templates repeated per block, inline
/// slots, side edits, splices, side-document writes).
struct Shape {
    docs: Vec<(String, String)>,
    reads: Vec<EvalReq>,
    inline: usize,
    side_edits: usize,
    splices: usize,
    side_docs: usize,
    max_prepared: usize,
}

fn shape(workload: &str) -> Option<Shape> {
    let side = (
        SIDE_DOC.to_owned(),
        axml_bench::balanced_tree::<NatPoly>(4, 3).to_string(),
    );
    Some(match workload {
        "point_eval" => {
            let mut reads = Vec::new();
            for q in POINT_QUERIES {
                for k in SemiringKind::ALL {
                    for r in [Route::Direct, Route::ViaNrc] {
                        reads.push(eval(q, k, r));
                    }
                }
            }
            reads.extend(side_reads());
            Shape {
                docs: vec![
                    ("S".into(), doc_text(axml_bench::fig1_source())),
                    ("T".into(), doc_text(axml_bench::fig4_source())),
                    ("d".into(), doc_text(axml_bench::fig6_source())),
                    side,
                ],
                reads,
                inline: POINT_INLINE_PER_BLOCK,
                side_edits: 4,
                splices: 0,
                side_docs: 0,
                max_prepared: POINT_MAX_PREPARED,
            }
        }
        "wide_stream" => {
            use SemiringKind::{Nat, NatPoly};
            let q = |text: &str, k, limit| EvalReq {
                limit,
                ..eval(text, k, Route::Direct)
            };
            // Four size classes of reads; the classes, not the
            // templates inside them, decide where p50 and p90 fall
            // (inside the 1000- and 2000-piece classes).
            let mut reads = vec![
                // 250 pieces
                q("$W1000/*", Nat, Some(250)),
                q("$W1000/b", NatPoly, Some(250)),
                // 500 pieces
                q("$W1000/b", Nat, None),
                q("$W1000/c", NatPoly, None),
                // 1000 pieces
                q("$W1000/*", Nat, None),
                q("$W2000/b", Nat, None),
                q("$W2000/*", Nat, Some(1000)),
                q("$W1000/*", NatPoly, None),
                q("$W2000/c", NatPoly, None),
                q("$W1000/*/*", NatPoly, None),
                // 2000 pieces
                q("$W2000/*", Nat, None),
                q("$W2000/*", Nat, None),
                q("$W2000/*/*", Nat, None),
                q("$W2000/*", NatPoly, None),
                q("$W2000/*", NatPoly, None),
                q("$W2000/*/*", NatPoly, None),
            ];
            reads.extend(side_reads());
            let mut docs: Vec<(String, String)> = WIDE_SIZES
                .iter()
                .map(|&n| (format!("W{n}"), wide_doc(n)))
                .collect();
            docs.push(side);
            Shape {
                docs,
                reads,
                inline: 0,
                side_edits: 8,
                splices: 0,
                side_docs: 0,
                max_prepared: 64,
            }
        }
        "churn_rw" => {
            let mut docs = vec![("S".to_owned(), churn_doc())];
            for k in 0..CHURN_SIDE_DOCS {
                docs.push((format!("D{k}"), churn_side_doc(k)));
            }
            // Per five reads: two direct Nat, then one each of direct
            // NatPoly, shredded Nat and shredded NatPoly. Ordered by
            // cost, p50 then falls inside the direct-Nat class and p90
            // inside the costliest one, not on a class edge.
            let mut reads = Vec::new();
            for _ in 0..20 {
                reads.push(eval("$S//c", SemiringKind::Nat, Route::Direct));
                reads.push(eval("$S//c", SemiringKind::Nat, Route::Direct));
                reads.push(eval("$S//c", SemiringKind::NatPoly, Route::Direct));
                reads.push(shredded2("$S//c", SemiringKind::Nat));
                reads.push(shredded2("$S//c", SemiringKind::NatPoly));
            }
            Shape {
                docs,
                reads,
                inline: 0,
                side_edits: 0,
                splices: 2,
                side_docs: 1,
                max_prepared: 64,
            }
        }
        _ => return None,
    })
}

/// Build the plan for `workload` with at least `min_ops` measured
/// operations. `None` for an unknown workload name.
pub fn plan(workload: &str, seed: u64, min_ops: usize) -> Option<Plan> {
    let shape = shape(workload)?;
    let mut rng = Rng::new(seed);
    let mut b = Builder::new();

    let mut setup = Vec::new();
    for (doc, text) in &shape.docs {
        setup.push(b.add(Op::Put {
            doc: doc.clone(),
            text: text.clone(),
        }));
    }
    let read_ids: Vec<u32> = shape
        .reads
        .iter()
        .map(|r| b.add(Op::Eval(r.clone())))
        .collect();
    let mut queries: Vec<&str> = shape.reads.iter().map(|r| r.query.as_str()).collect();
    queries.dedup();
    let mut prepared = std::collections::HashSet::new();
    for q in queries {
        if prepared.insert(q) {
            setup.push(b.add(Op::Prepare(q.to_owned())));
        }
    }
    // One warm-up pass: every read template once, in template order.
    let mut seen = std::collections::HashSet::new();
    setup.extend(read_ids.iter().filter(|&&i| seen.insert(i)));

    let mut block: Vec<Slot> = read_ids.iter().map(|&i| Slot::Read(i)).collect();
    block.extend(std::iter::repeat_n(Slot::Inline, shape.inline));
    block.extend(std::iter::repeat_n(Slot::SideEdit, shape.side_edits));
    block.extend(std::iter::repeat_n(Slot::Splice, shape.splices));
    block.extend(std::iter::repeat_n(Slot::SideDoc, shape.side_docs));
    let blocks = min_ops.div_ceil(block.len()).max(1);

    let mut side_present = [true; CHURN_SIDE_DOCS];
    // The inline texts' order is seeded; their semirings, routes and the
    // side edits' depths follow a fixed cycle, so every seed compiles
    // the same plans and interns the same number of spine nodes.
    let mut inline_order: Vec<usize> = (0..POINT_INLINE_POOL).collect();
    rng.shuffle(&mut inline_order);
    let (mut inlines, mut side_edits) = (0usize, 0usize);
    let mut ops = Vec::with_capacity(blocks * block.len());
    for _ in 0..blocks {
        let mut slots = block.clone();
        rng.shuffle(&mut slots);
        for slot in slots {
            let n = ops.len();
            let op = match slot {
                Slot::Read(i) => {
                    ops.push(i);
                    continue;
                }
                Slot::Inline => {
                    let q = point_inline(inline_order[inlines % POINT_INLINE_POOL]);
                    let kinds = SemiringKind::ALL.len();
                    let k = SemiringKind::ALL[inlines % kinds];
                    let r = [Route::Direct, Route::ViaNrc][inlines / kinds % 2];
                    inlines += 1;
                    Op::Eval(EvalReq {
                        inline: true,
                        ..eval(&q, k, r)
                    })
                }
                Slot::SideEdit => {
                    let path = random_path(&mut rng, side_edits % 5);
                    side_edits += 1;
                    Op::Patch {
                        doc: SIDE_DOC.into(),
                        script: format!("reannotate {path} e{n}"),
                    }
                }
                Slot::Splice => {
                    // A fresh label per operation: two identical
                    // siblings would merge and change the tree's shape.
                    let path = random_path(&mut rng, CHURN_DEPTH as usize - 1);
                    Op::Patch {
                        doc: "S".into(),
                        script: format!("splice {path} <v{n}> c l1 l2 </v{n}>"),
                    }
                }
                Slot::SideDoc => {
                    let k = rng.below(CHURN_SIDE_DOCS);
                    let doc = format!("D{k}");
                    if side_present[k] && rng.below(2) == 0 {
                        side_present[k] = false;
                        Op::Delete { doc }
                    } else {
                        side_present[k] = true;
                        Op::Put {
                            doc,
                            text: churn_side_doc(rng.below(1_000_000)),
                        }
                    }
                }
            };
            ops.push(b.add(op));
        }
    }
    Some(Plan {
        block: block.len(),
        max_prepared: shape.max_prepared,
        templates: b.templates,
        setup,
        ops,
    })
}
