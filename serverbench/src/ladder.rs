//! The in-process replay: every request of a plan, run through the
//! same public layer functions the server calls, on a fresh reference
//! engine.
//!
//! Each request is parsed with `axml_server::http::read_request`,
//! resolved through an `axml::QueryRegistry` of the server's capacity,
//! evaluated through an `EvalCursor` (the server's streaming path) and
//! written through `ChunkedWriter` into a sink that counts `write`
//! calls, which are the server's socket syscalls. The expected body of
//! every read comes from `eval_with` and `axml::json::result_json`,
//! independently of the cursor path; the server's replies are checked
//! against it, and so is the replay's own streamed body.

use crate::client::fnv;
use crate::trace::{Layer, Tracer};
use crate::workload::{EvalReq, Op, Plan};
use axml::json::{
    result_header, result_json, result_pieces, result_value_json, Json, ResultPieces,
};
use axml::{query_handle, Engine, Pool, PreparedQuery, QueryRegistry, Route, StreamItem};
use axml_server::http::{read_request, write_response, ChunkedWriter, Limits, ReadOutcome};
use std::io::{self, Cursor, Write};
use std::time::Instant;

/// What the server must answer to one request.
#[derive(Clone, Copy, Default)]
pub struct Expect {
    pub status: u16,
    pub hash: u64,
    pub len: usize,
    /// The replay's streamed body equals the materialized one.
    pub consistent: bool,
    /// Socket writes and bytes of the response (reads only).
    pub writes: u64,
    pub bytes: u64,
    /// Whether an inline `/eval` found its text in the registry.
    pub registry_hit: Option<bool>,
}

pub struct Replay {
    /// One per measured operation, in plan order.
    pub expects: Vec<Expect>,
    /// Wall time of the measured operations, in nanoseconds.
    pub ops_ns: u64,
    pub tracer: Tracer,
}

/// Counts `write` calls and bytes; keeps nothing.
#[derive(Default)]
struct CountingSink {
    writes: u64,
    bytes: u64,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

struct Ladder<'p> {
    plan: &'p Plan,
    engine: Engine,
    registry: QueryRegistry,
    pool: Pool,
    tracer: Tracer,
}

/// Replay `plan` (set-up requests, then the measured operations) on a
/// fresh engine, recording spans when `traced`. Spans of the measured
/// operation `i` carry request id `i`; set-up requests follow them.
pub fn replay(plan: &Plan, traced: bool) -> Replay {
    let mut l = Ladder {
        plan,
        engine: Engine::new(),
        registry: QueryRegistry::with_capacity(plan.max_prepared),
        pool: Pool::new(2),
        tracer: Tracer::new(traced),
    };
    for (k, &t) in plan.setup.iter().enumerate() {
        l.tracer.set_request(id(plan.ops.len() + k));
        l.request(t);
    }
    let start = Instant::now();
    let expects = plan
        .ops
        .iter()
        .enumerate()
        .map(|(k, &t)| {
            l.tracer.set_request(id(k));
            l.request(t)
        })
        .collect();
    let ops_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Replay {
        expects,
        ops_ns,
        tracer: l.tracer,
    }
}

fn id(k: usize) -> u32 {
    u32::try_from(k).expect("fewer than 2^32 requests")
}

fn expect_ok(body: &[u8]) -> Expect {
    Expect {
        status: 200,
        hash: fnv(body),
        len: body.len(),
        consistent: true,
        ..Expect::default()
    }
}

/// The replay could not serve the request: never equal to a reply.
const FAILED: Expect = Expect {
    status: 0,
    hash: 0,
    len: 0,
    consistent: false,
    writes: 0,
    bytes: 0,
    registry_hit: None,
};

impl Ladder<'_> {
    fn request(&mut self, template: u32) -> Expect {
        let req_span = self.tracer.begin(Layer::Request);
        let s = self.tracer.begin(Layer::HttpParse);
        let bytes = &self.plan.templates[template as usize].bytes;
        let parsed = read_request(&mut Cursor::new(bytes.as_slice()), &Limits::default());
        self.tracer.end(s);
        let out = match (parsed, self.plan.op(template)) {
            (Ok(ReadOutcome::Request(_)), Op::Eval(e)) => self.eval(e),
            (Ok(ReadOutcome::Request(_)), op) => self.write(op).unwrap_or(FAILED),
            _ => FAILED,
        };
        self.tracer.end(req_span);
        out
    }

    /// The registry step of `/eval`: lookup by handle, or prepare of an
    /// inline text (a compile on a miss).
    fn resolve(&mut self, e: &EvalReq) -> (Option<PreparedQuery>, Option<bool>) {
        if !e.inline {
            let s = self.tracer.begin(Layer::RegistryGet);
            let p = self.registry.get(&query_handle(&e.query));
            self.tracer.end(s);
            return (p, None);
        }
        let hit = self.registry.get(&query_handle(&e.query)).is_some();
        let layer = if hit {
            Layer::RegistryGet
        } else {
            Layer::RegistryPrepare
        };
        let s = self.tracer.begin(layer);
        let p = self.registry.prepare(&e.query).ok().map(|(_, p)| p);
        self.tracer.end(s);
        (p, Some(hit))
    }

    fn eval(&mut self, e: &EvalReq) -> Expect {
        let (prepared, registry_hit) = self.resolve(e);
        let Some(prepared) = prepared else {
            return FAILED;
        };
        let opts = e.options();
        let mut sink = CountingSink::default();
        let Ok(streamed) = self.stream(&prepared, e, &mut sink) else {
            return FAILED;
        };

        let s = self.tracer.begin(Layer::EvalMaterialize);
        let out = prepared.eval_with(&self.engine, opts, &[], Some(&self.pool));
        self.tracer.end(s);
        let Ok(out) = out else {
            return FAILED;
        };
        let mut body = match e.limit {
            None => result_json(prepared.source(), &opts, &out),
            Some(n) => {
                let mut b = result_header(prepared.source(), &opts);
                match result_pieces(&out) {
                    ResultPieces::Set(items) => {
                        b.push('[');
                        b.push_str(&items[..n.min(items.len())].join(","));
                        b.push(']');
                    }
                    ResultPieces::Scalar(v) => b.push_str(&v),
                }
                b.push('}');
                b
            }
        };
        body.push('\n');
        Expect {
            consistent: streamed == body.as_bytes(),
            writes: sink.writes,
            bytes: sink.bytes,
            registry_hit,
            ..expect_ok(body.as_bytes())
        }
    }

    /// `/prepare` and the document writes, answered as the server does.
    fn write(&mut self, op: &Op) -> Option<Expect> {
        enum Done {
            Prepared(String, PreparedQuery),
            Loaded,
            Edited(axml::EditStats),
            Removed,
        }
        let t = &mut self.tracer;
        let (doc, done) = match op {
            Op::Prepare(q) => {
                let hit = self.registry.get(&query_handle(q)).is_some();
                let s = t.begin(if hit {
                    Layer::RegistryGet
                } else {
                    Layer::RegistryPrepare
                });
                let r = self.registry.prepare(q);
                t.end(s);
                let (handle, p) = r.ok()?;
                ("", Done::Prepared(handle, p))
            }
            Op::Put { doc, text } => {
                let s = t.begin(Layer::EngineLoad);
                let r = self.engine.load_document(doc, text);
                t.end(s);
                r.ok()?;
                (doc.as_str(), Done::Loaded)
            }
            Op::Patch { doc, script } => {
                let s = t.begin(Layer::EditApply);
                let r = self.engine.edit_document_text(doc, script);
                t.end(s);
                (doc.as_str(), Done::Edited(r.ok()?))
            }
            Op::Delete { doc } => {
                let s = t.begin(Layer::EngineRemove);
                let removed = self.engine.remove_document(doc);
                t.end(s);
                removed.then_some((doc.as_str(), Done::Removed))?
            }
            Op::Eval(_) => return None,
        };

        let s = t.begin(Layer::JsonEncode);
        let mut j = Json::new();
        j.begin_obj();
        if let Done::Prepared(handle, p) = &done {
            j.key("handle");
            j.str(handle);
            j.key("free_vars");
            j.begin_arr();
            for v in p.free_vars() {
                j.str(v);
            }
            j.end_arr();
            j.key("shreddable");
            j.bool(p.is_shreddable());
        } else {
            j.key("document");
            j.str(doc);
        }
        match done {
            Done::Prepared(..) => {}
            Done::Loaded => {
                j.key("loaded");
                j.bool(true);
            }
            Done::Removed => {
                j.key("removed");
                j.bool(true);
            }
            Done::Edited(st) => {
                for (k, v) in [
                    ("version", st.version),
                    ("ops_applied", st.ops_applied as u64),
                    ("spine_nodes_interned", st.spine_nodes_interned as u64),
                    ("facts_retired", st.facts_retired),
                    ("facts_added", st.facts_added),
                ] {
                    j.key(k);
                    j.int(v);
                }
            }
        }
        j.end_obj();
        let mut body = j.finish();
        body.push('\n');
        t.end(s);

        let s = t.begin(Layer::HttpWrite);
        let mut sink = CountingSink::default();
        let r = write_response(
            &mut sink,
            200,
            "OK",
            "application/json",
            body.as_bytes(),
            true,
            &[],
        );
        t.end(s);
        r.ok()?;
        Some(Expect {
            writes: sink.writes,
            bytes: sink.bytes,
            ..expect_ok(body.as_bytes())
        })
    }

    /// The server's streaming path for one `/eval`: cursor, per-piece
    /// JSON, one chunk per piece. Returns the body's bytes.
    fn stream(
        &mut self,
        prepared: &PreparedQuery,
        e: &EvalReq,
        sink: &mut CountingSink,
    ) -> io::Result<Vec<u8>> {
        let opts = e.options();
        let t = &mut self.tracer;
        let shredded = e.route == Route::Shredded;
        let s = t.begin(if shredded {
            Layer::FixpointEval
        } else {
            Layer::CursorFirstPiece
        });
        let cursor = prepared.eval_stream_with(&self.engine, opts, &[], Some(&self.pool));
        let mut cursor = match cursor {
            Ok(c) => c,
            Err(err) => {
                t.end(s);
                return Err(io::Error::other(err.to_string()));
            }
        };
        let s = if shredded {
            t.end(s);
            t.begin(Layer::CursorFirstPiece)
        } else {
            s
        };
        let first = cursor.next();
        t.end(s);

        let mut body = Vec::new();
        let s = t.begin(Layer::JsonEncode);
        let header = result_header(prepared.source(), &opts);
        t.end(s);
        let s = t.begin(Layer::HttpWrite);
        let mut cw = ChunkedWriter::begin(sink, 200, "OK", "application/json", true)?;
        t.end(s);
        chunk(t, &mut cw, &mut body, header.as_bytes())?;
        let first = first
            .transpose()
            .map_err(|e| io::Error::other(e.to_string()))?;
        match first {
            None => chunk(t, &mut cw, &mut body, b"[]")?,
            Some(StreamItem::Piece(_)) if e.limit == Some(0) => {
                chunk(t, &mut cw, &mut body, b"[]")?
            }
            Some(StreamItem::Scalar(out)) => {
                let s = t.begin(Layer::JsonEncode);
                let mut j = Json::new();
                result_value_json(&mut j, &out);
                let json = j.finish();
                t.end(s);
                chunk(t, &mut cw, &mut body, json.as_bytes())?
            }
            Some(StreamItem::Piece(p)) => {
                chunk(t, &mut cw, &mut body, b"[")?;
                let mut piece = p;
                let mut kept = 1usize;
                loop {
                    let s = t.begin(Layer::JsonEncode);
                    let json = piece.json();
                    t.end(s);
                    chunk(t, &mut cw, &mut body, json.as_bytes())?;
                    if e.limit.is_some_and(|n| kept >= n) {
                        break;
                    }
                    let s = t.begin(Layer::CursorDrain);
                    let next = cursor.next();
                    t.end(s);
                    match next {
                        None => break,
                        Some(Ok(StreamItem::Piece(p))) => piece = p,
                        Some(Ok(StreamItem::Scalar(_))) => {
                            return Err(io::Error::other("scalar after a piece"))
                        }
                        Some(Err(err)) => return Err(io::Error::other(err.to_string())),
                    }
                    chunk(t, &mut cw, &mut body, b",")?;
                    kept += 1;
                }
                chunk(t, &mut cw, &mut body, b"]")?;
            }
        }
        drop(cursor);
        chunk(t, &mut cw, &mut body, b"}\n")?;
        let s = t.begin(Layer::HttpWrite);
        cw.finish()?;
        t.end(s);
        Ok(body)
    }
}

/// Write one chunk, timed as `http.write`, and keep its payload.
fn chunk(
    t: &mut Tracer,
    cw: &mut ChunkedWriter<'_, CountingSink>,
    body: &mut Vec<u8>,
    data: &[u8],
) -> io::Result<()> {
    let s = t.begin(Layer::HttpWrite);
    let r = cw.chunk(data);
    t.end(s);
    body.extend_from_slice(data);
    r
}
