//! # axml-server — a std-only HTTP/1.1 front end for the axml engine
//!
//! Everything here is `std`: the listener is a
//! [`std::net::TcpListener`], each admitted connection gets its own
//! scoped OS thread (socket reads block; parking them on pool workers
//! would let idle keep-alive clients starve the pool), evaluation
//! fans out onto the workspace's own [`axml_pool::Pool`], and
//! responses are written by the no-dependency JSON builder in
//! [`axml::json`]. No async runtime, no HTTP crate — the same
//! vendored-shim discipline as the rest of the workspace.
//!
//! ```text
//!   client ──TCP──▶ accept loop ──admission (≤ max_inflight)──▶ connection
//!                        │ 503 + Retry-After when full            thread
//!                        ▼                                          │
//!                   [http::read_request]  ◀─ keep-alive loop ───────┤
//!                    bounded, hostile-input hardened                │
//!                                                                   ▼
//!                    /prepare ─▶ QueryRegistry (compile once, stable handle,
//!                    │                          LRU-bounded at max_prepared)
//!                    /eval ────▶ PreparedQuery::eval_each(engine, pool)
//!                                   │ pieces pushed on the connection thread,
//!                                   │ first one flushed at once, the rest
//!                                   │ coalesced into 16 KiB chunks
//!                                   ▼
//!                    /documents  load / list / remove on the shared Engine
//! ```
//!
//! ## Endpoints
//!
//! | Method & path            | Body            | Response |
//! |--------------------------|-----------------|----------|
//! | `GET /health`            | —               | `{"status":"ok"}` |
//! | `GET /stats`             | —               | documents, prepared queries, in-flight connections, storage stats, intern-pool gauges, `incremental` edit/memo counters |
//! | `GET /documents`         | —               | `{"documents":[…]}` |
//! | `PUT /documents/{name}`  | document text   | `{"document":…,"loaded":true}` |
//! | `PATCH /documents/{name}` | edit script    | `{"document":…,"version":…,"ops_applied":…,"spine_nodes_interned":…,"facts_retired":…,"facts_added":…}` |
//! | `DELETE /documents/{name}` | —             | `{"document":…,"removed":true}` |
//! | `POST /prepare`          | query text      | `{"handle":"q…","free_vars":[…],"shreddable":…}` |
//! | `POST /eval`             | query text *or* `?handle=` | the [`axml::json::result_json`] shape, streamed |
//!
//! `POST /eval` takes `semiring`, `route`, `mode`, `parallelism`,
//! `deadline_ms`, `memory_budget` (an evaluation-memory cap in nodes;
//! tripping it is a `507` before output, a truncated chunked body
//! after), `limit` and `offset` (window the top-level piece stream;
//! the windowed body is a byte-literal slice of the unlimited one) as
//! query parameters; its body is byte-identical to the CLI's
//! `axml query --format json` output for the same options, and on the
//! incremental route/mode combinations the first chunk is written
//! before the evaluation has finished; later pieces are coalesced
//! into [`http::CHUNK_BYTES`] chunks. Errors are structured JSON
//! (`{"error":{"kind":…,"message":…}}`) with parse errors carrying
//! `line`/`column`/`line_text`; a tripped wall-clock deadline is a
//! `504` before output and, like the memory budget, a truncated
//! chunked body after; a tripped memory budget is a `507`.
//!
//! `PATCH /documents/{name}` applies a line-based edit script (see
//! [`axml::EditScript::parse`]: `splice`, `relabel`, `insert`,
//! `delete`, `reannotate` ops addressed by child-index paths) through
//! [`axml::Engine::edit_document`], so subsequent evaluations of the
//! edited document take the incremental paths — delta-propagated
//! Datalog fixpoints on the shredded route, subtree-fingerprint memo
//! hits on the direct/via-NRC routes. A malformed script or a
//! non-applicable op is a `400` (`"kind":"Edit"`); an edit that races
//! a concurrent `PUT` replace of the same name is a `409`
//! (`"kind":"EditConflict"`) and should simply be retried.
//!
//! ## Memory under document churn
//!
//! The engine's hash-consing arenas are append-only by design:
//! `DELETE /documents/{name}` frees the document's forest but keeps
//! its interned subtrees available for future sharing, so the
//! `distinct_subtrees`/`child_edges` counters in `GET /stats` grow
//! monotonically even as documents come and go. Long-running
//! deployments with heavy `PUT`/`DELETE` churn over *disjoint*
//! content should expect arena growth proportional to the distinct
//! subtrees ever loaded (arena compaction is an open ROADMAP item);
//! churn over similar content re-shares and costs nothing new.
//! The incremental state edits build is bounded by the live
//! documents instead: each subtree-fingerprint memo sweeps the values
//! of edited-away spines (the `memo_entries` gauge in `GET /stats`
//! follows it), and replacing or deleting a document drops its memos.
//! Prepared-query memory, by contrast, is bounded: the registry
//! evicts least-recently-used texts past
//! [`ServerConfig::max_prepared`].
//!
//! ## Quick start
//!
//! ```
//! use std::io::{Read, Write};
//!
//! let engine = std::sync::Arc::new(axml::Engine::new());
//! engine.load_document("S", "<a> b {x} </a>").unwrap();
//! let mut server =
//!     axml_server::start(axml_server::ServerConfig::default(), engine).unwrap();
//!
//! let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
//! write!(conn, "GET /health HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
//! let mut response = String::new();
//! conn.read_to_string(&mut response).unwrap();
//! assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
//!
//! server.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
mod server;

pub use server::{start, ServerConfig, ServerHandle};
