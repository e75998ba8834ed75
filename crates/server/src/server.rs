//! The query server: a [`std::net::TcpListener`] accept loop that
//! hands each admitted connection its own scoped OS thread; the
//! [`axml_pool::Pool`] is reserved for *evaluation* fan-out.
//!
//! Design notes:
//!
//! - **Connection I/O never occupies a pool worker.** A keep-alive
//!   connection blocks in socket reads for most of its life; parking
//!   it on a pool worker would let `workers` idle clients starve every
//!   other admitted connection (the pool helps with scope waits, not
//!   socket reads). Each connection therefore runs on a dedicated
//!   [`std::thread::scope`] thread — bounded by
//!   [`ServerConfig::max_inflight`] — while `POST /eval` fans its
//!   parallel work out onto the shared pool.
//! - **No new hot-path locks.** Every evaluation runs against the
//!   engine's `Arc`-shared document snapshots and a [`QueryRegistry`]
//!   whose entries are `OnceLock`-compiled; a request never holds a
//!   lock while evaluating.
//! - **Admission control at the front door.** The in-flight connection
//!   count is an atomic; past [`ServerConfig::max_inflight`] a new
//!   connection gets an immediate `503` with `Retry-After` and is
//!   closed, so overload sheds load instead of queueing it. The slot
//!   is released by a drop guard, so even a panicking connection
//!   cannot leak admission capacity.
//! - **Streaming results, pushed and coalesced.** A successful `/eval`
//!   streams the exact bytes of [`axml::json::result_json`] as a
//!   chunked body. The evaluation runs on the connection thread
//!   through [`PreparedQuery::eval_each`], with its fan-out on the
//!   server's pool in the request's lane, and pushes each final
//!   `(tree, annotation)` piece into the response: no producer thread,
//!   no channel, no per-piece copy. Pieces render straight into the
//!   response's pending buffer. The status line, the result header and
//!   the first piece are flushed together as soon as that piece exists
//!   (on the incremental combinations, `InSemiring` × direct/via-NRC,
//!   while the evaluation is still producing later pieces), so time to
//!   first byte is kept; later pieces coalesce into
//!   [`crate::http::CHUNK_BYTES`] frames, one write each.
//!   `limit`/`offset` window the piece stream server-side (the body is
//!   a literal prefix/slice of the unlimited bytes; a full window
//!   stops the evaluation), and `memory_budget` caps evaluation memory
//!   per request. Errors that precede the first output byte —
//!   including tripped budgets — get clean status lines (504
//!   wall-clock, 507 memory); an error after the 200 is out aborts the
//!   chunked body without a terminal chunk, so clients see a truncated
//!   transfer, never a short-but-valid one. HTTP/1.0 clients get the
//!   same window, buffered whole behind a `Content-Length`.
//! - **One write per response.** Every other reply is assembled in one
//!   buffer and leaves in a single write, so on a `TCP_NODELAY` socket
//!   it is one segment, not one per header line.
//! - **Graceful shutdown.** [`ServerHandle::shutdown`] flips a flag
//!   and nudges the accept loop; the pool scope then drains: requests
//!   already in flight complete, idle keep-alive connections notice
//!   the flag at their next read-timeout poll and close.

use crate::http::{read_request, write_response, ChunkedWriter, Limits, ReadOutcome, Request};
use axml::json::{result_header, result_value_json, Json};
use axml::{
    AxmlError, AxmlResult, BudgetKind, Engine, EvalOptions, Lane, PreparedQuery, QueryRegistry,
    ResultPieceRef, Route, SinkClosed,
};
use axml_pool::Pool;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tunables. `Default` gives an ephemeral loopback port, an
/// auto-sized pool and moderate limits — what the tests and the CLI's
/// defaults both start from.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port;
    /// [`ServerHandle::addr`] reports the one chosen).
    pub addr: String,
    /// Worker threads for the evaluation pool that `POST /eval` fans
    /// parallel work onto (`0` = one per available core). Connection
    /// I/O runs on its own per-connection threads, never on the pool.
    pub pool_workers: usize,
    /// Most connections served concurrently (each gets a dedicated
    /// thread); the rest get `503`.
    pub max_inflight: usize,
    /// Most prepared queries retained at once: the registry evicts
    /// least-recently-used entries past this, so unbounded streams of
    /// distinct `/prepare` or inline `/eval` texts cannot grow server
    /// memory without limit. An evicted handle just re-prepares.
    pub max_prepared: usize,
    /// Largest accepted request body (documents and inline queries).
    pub max_body: usize,
    /// Default per-request wall-clock deadline, when the request does
    /// not set `deadline_ms` itself. `None` = no default deadline.
    pub default_deadline_ms: Option<u64>,
    /// How often idle keep-alive connections wake to re-check the
    /// shutdown flag (also the stall guard granularity mid-request).
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            pool_workers: 0,
            max_inflight: 64,
            max_prepared: 1024,
            max_body: 4 * 1024 * 1024,
            default_deadline_ms: None,
            poll_interval: Duration::from_millis(250),
        }
    }
}

/// State shared between the accept loop and the controlling handle.
struct Shared {
    shutdown: AtomicBool,
    inflight: AtomicUsize,
}

/// Everything a connection thread needs, borrowed from the accept
/// thread's frame (the thread scope guarantees connections finish
/// first).
struct ServerState<'a> {
    engine: &'a Engine,
    registry: QueryRegistry,
    config: ServerConfig,
    shared: &'a Shared,
    pool: &'a Pool,
}

/// A running server. Dropping the handle **without** calling
/// [`shutdown`](ServerHandle::shutdown) detaches the server thread
/// (it keeps serving until the process exits).
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<Engine>,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` asked for 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server fronts — loads/removes through this
    /// handle are visible to requests immediately.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Connections currently admitted (serving or idle keep-alive).
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::SeqCst)
    }

    /// Stop accepting, drain in-flight requests, join the server
    /// thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept loop is blocked in `accept`; a throwaway
        // connection wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        // Joining the server thread joins the connection scope inside
        // it: every connection thread exits at its next read-timeout
        // poll (or request boundary) once the flag is up.
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.thread.is_some() {
            self.shutdown();
        }
    }
}

/// Bind and start serving `engine` in a background thread.
pub fn start(config: ServerConfig, engine: Arc<Engine>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        shutdown: AtomicBool::new(false),
        inflight: AtomicUsize::new(0),
    });
    let thread = {
        let engine = Arc::clone(&engine);
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("axml-server-accept".into())
            .spawn(move || accept_loop(listener, config, &engine, &shared))?
    };
    Ok(ServerHandle {
        addr,
        engine,
        shared,
        thread: Some(thread),
    })
}

fn accept_loop(listener: TcpListener, config: ServerConfig, engine: &Engine, shared: &Shared) {
    let workers = if config.pool_workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        config.pool_workers
    };
    let pool = Pool::new(workers);
    let max_inflight = config.max_inflight.max(1);
    let max_prepared = config.max_prepared.max(1);
    let state = ServerState {
        engine,
        registry: QueryRegistry::with_capacity(max_prepared),
        config,
        shared,
        pool: &pool,
    };
    // One OS thread per admitted connection (bounded by max_inflight):
    // socket reads block for most of a keep-alive connection's life,
    // so parking connections on pool workers would let `workers` idle
    // clients starve everyone else. The thread scope is the
    // graceful-shutdown drain: it returns only after every connection
    // thread has finished.
    std::thread::scope(|s| loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        // Checked *after* accept so the shutdown nudge connection
        // reliably unblocks the loop.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Admission: take a slot or shed the connection right here on
        // the accept thread (no pool task, no queueing).
        let admitted = shared
            .inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < max_inflight).then_some(n + 1)
            })
            .is_ok();
        if !admitted {
            let mut stream = stream;
            let body = error_body(
                "Overloaded",
                "request queue is full, try again shortly",
                &[],
            );
            let _ = write_response(
                &mut stream,
                503,
                "Service Unavailable",
                "application/json",
                body.as_bytes(),
                false,
                &[("Retry-After", "1")],
            );
            continue;
        }
        let state = &state;
        s.spawn(move || {
            // Release the admission slot however this thread ends — a
            // panic inside the handler must not leak capacity (each
            // leaked slot would permanently shrink the server until
            // everything 503s).
            let _slot = InflightSlot(state.shared);
            if std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_connection(stream, state)
            }))
            .is_err()
            {
                // The connection is lost but the server keeps serving;
                // propagating would poison the whole thread scope.
                eprintln!("axml-server: connection handler panicked");
            }
        });
    });
}

/// Drop guard for one admitted connection's slot in the in-flight
/// count (see [`accept_loop`]).
struct InflightSlot<'a>(&'a Shared);

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn handle_connection(stream: TcpStream, state: &ServerState<'_>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(state.config.poll_interval));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let limits = Limits {
        max_body: state.config.max_body,
        ..Limits::default()
    };
    loop {
        if state.shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_request(&mut reader, &limits) {
            Ok(ReadOutcome::Request(req)) => {
                // Stop advertising keep-alive once shutdown begins so
                // draining clients reconnect elsewhere.
                let keep_alive = req.keep_alive() && !state.shared.shutdown.load(Ordering::SeqCst);
                if respond(&mut writer, state, &req, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Ok(ReadOutcome::ClosedIdle) => return,
            Ok(ReadOutcome::TimedOutIdle) => continue,
            Err(e) => {
                if let Some((status, reason)) = e.status() {
                    let body = error_body("BadRequest", &e.to_string(), &[]);
                    let _ = write_response(
                        &mut writer,
                        status,
                        reason,
                        "application/json",
                        body.as_bytes(),
                        false,
                        &[],
                    );
                }
                return;
            }
        }
    }
}

/// Route one request. An `Err` here is a transport failure — the
/// connection is closed; application errors are JSON responses.
fn respond<W: Write>(
    w: &mut W,
    state: &ServerState<'_>,
    req: &Request,
    keep_alive: bool,
) -> io::Result<()> {
    let path = req.path().to_owned();
    let method = req.method.as_str();
    match (method, path.as_str()) {
        ("GET", "/health") => {
            let mut j = Json::new();
            j.begin_obj();
            j.key("status");
            j.str("ok");
            j.end_obj();
            ok_json(w, j.finish(), keep_alive)
        }
        ("GET", "/stats") => {
            let stats = state.engine.storage_stats();
            let mut j = Json::new();
            j.begin_obj();
            j.key("documents");
            j.int(state.engine.document_names().len() as u64);
            j.key("prepared_queries");
            j.int(state.registry.len() as u64);
            j.key("inflight_connections");
            j.int(state.shared.inflight.load(Ordering::SeqCst) as u64);
            j.key("logical_nodes");
            j.int(stats.logical_nodes as u64);
            j.key("distinct_subtrees");
            j.int(stats.distinct_subtrees as u64);
            j.key("child_edges");
            j.int(stats.child_edges as u64);
            j.key("interned_labels");
            j.int(stats.interned_labels as u64);
            j.key("interned_vars");
            j.int(stats.interned_vars as u64);
            j.key("incremental");
            axml::json::incremental_json(&mut j, &stats.incr);
            // The scheduler counters of *this server's* pool (the one
            // running /eval fan-out), not the process-global pool.
            j.key("scheduler");
            axml::json::scheduler_json(&mut j, &state.pool.stats());
            j.key("compaction");
            axml::json::compaction_json(&mut j, &stats.compaction);
            j.end_obj();
            ok_json(w, j.finish(), keep_alive)
        }
        ("GET", "/documents") => {
            let mut j = Json::new();
            j.begin_obj();
            j.key("documents");
            j.begin_arr();
            for name in state.engine.document_names() {
                j.str(&name);
            }
            j.end_arr();
            j.end_obj();
            ok_json(w, j.finish(), keep_alive)
        }
        ("PUT", _) if path.starts_with("/documents/") => {
            let name = crate::http::percent_decode(&path["/documents/".len()..]);
            if name.is_empty() {
                return bad_request(w, "document name is empty", keep_alive);
            }
            let Ok(text) = std::str::from_utf8(&req.body) else {
                return bad_request(w, "document body is not UTF-8", keep_alive);
            };
            match state.engine.load_document(&name, text) {
                Ok(()) => {
                    let mut j = Json::new();
                    j.begin_obj();
                    j.key("document");
                    j.str(&name);
                    j.key("loaded");
                    j.bool(true);
                    j.end_obj();
                    ok_json(w, j.finish(), keep_alive)
                }
                Err(e) => axml_error(w, &e, keep_alive),
            }
        }
        ("PATCH", _) if path.starts_with("/documents/") => {
            let name = crate::http::percent_decode(&path["/documents/".len()..]);
            if name.is_empty() {
                return bad_request(w, "document name is empty", keep_alive);
            }
            let Ok(script) = std::str::from_utf8(&req.body) else {
                return bad_request(w, "edit script is not UTF-8", keep_alive);
            };
            match state.engine.edit_document_text(&name, script) {
                Ok(stats) => {
                    let mut j = Json::new();
                    j.begin_obj();
                    j.key("document");
                    j.str(&name);
                    j.key("version");
                    j.int(stats.version);
                    j.key("ops_applied");
                    j.int(stats.ops_applied as u64);
                    j.key("spine_nodes_interned");
                    j.int(stats.spine_nodes_interned as u64);
                    j.key("facts_retired");
                    j.int(stats.facts_retired);
                    j.key("facts_added");
                    j.int(stats.facts_added);
                    j.end_obj();
                    ok_json(w, j.finish(), keep_alive)
                }
                Err(e) => axml_error(w, &e, keep_alive),
            }
        }
        ("DELETE", _) if path.starts_with("/documents/") => {
            let name = crate::http::percent_decode(&path["/documents/".len()..]);
            if state.engine.remove_document(&name) {
                let mut j = Json::new();
                j.begin_obj();
                j.key("document");
                j.str(&name);
                j.key("removed");
                j.bool(true);
                j.end_obj();
                ok_json(w, j.finish(), keep_alive)
            } else {
                let e = AxmlError::UnknownDocument {
                    name,
                    available: state.engine.document_names(),
                };
                axml_error(w, &e, keep_alive)
            }
        }
        ("POST", "/prepare") => {
            let Ok(src) = std::str::from_utf8(&req.body) else {
                return bad_request(w, "query body is not UTF-8", keep_alive);
            };
            if src.trim().is_empty() {
                return bad_request(w, "query body is empty", keep_alive);
            }
            match state.registry.prepare(src) {
                Ok((handle, prepared)) => {
                    let mut j = Json::new();
                    j.begin_obj();
                    j.key("handle");
                    j.str(&handle);
                    j.key("free_vars");
                    j.begin_arr();
                    for v in prepared.free_vars() {
                        j.str(v);
                    }
                    j.end_arr();
                    j.key("shreddable");
                    j.bool(prepared.is_shreddable());
                    j.end_obj();
                    ok_json(w, j.finish(), keep_alive)
                }
                Err(e) => axml_error(w, &e, keep_alive),
            }
        }
        ("POST", "/eval") => eval_endpoint(w, state, req, keep_alive),
        (_, "/health" | "/stats" | "/documents" | "/prepare" | "/eval") => {
            let body = error_body("MethodNotAllowed", "method not allowed for this path", &[]);
            write_response(
                w,
                405,
                "Method Not Allowed",
                "application/json",
                body.as_bytes(),
                keep_alive,
                &[],
            )
        }
        _ if path.starts_with("/documents/") => {
            let body = error_body(
                "MethodNotAllowed",
                "use PUT, PATCH or DELETE on /documents/{name}",
                &[],
            );
            write_response(
                w,
                405,
                "Method Not Allowed",
                "application/json",
                body.as_bytes(),
                keep_alive,
                &[],
            )
        }
        _ => {
            let body = error_body("NotFound", "no such endpoint", &[]);
            write_response(
                w,
                404,
                "Not Found",
                "application/json",
                body.as_bytes(),
                keep_alive,
                &[],
            )
        }
    }
}

/// History threshold for lane classification: a query whose EWMA
/// evaluation cost is at or above this is scheduled expensive.
const EXPENSIVE_COST_NS: u64 = 1_000_000;

/// Drop guard recording one request's wall-clock evaluation cost into
/// the registry's per-query EWMA, whatever path the handler exits by.
struct CostRecorder<'a> {
    registry: &'a QueryRegistry,
    handle: String,
    start: Instant,
}

impl Drop for CostRecorder<'_> {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.registry.record_cost(&self.handle, ns);
    }
}

/// `POST /eval`: by handle (`?handle=q…`) or inline query text in the
/// body — exactly one of the two. Inline text goes through the same
/// registry, so repeated inline evals of one query compile once.
fn eval_endpoint<W: Write>(
    w: &mut W,
    state: &ServerState<'_>,
    req: &Request,
    keep_alive: bool,
) -> io::Result<()> {
    // Decoded once; each option below looks its key up here.
    let params = req.query_params();
    let param = |key: &str| {
        params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let handle_param = param("handle");
    let inline = !req.body.is_empty();
    // The registry handle this request resolves to (inline texts get
    // one too) — keys the per-query cost history behind lane
    // classification.
    let mut cost_handle: Option<String> = handle_param.map(str::to_owned);
    let prepared: PreparedQuery = match (handle_param, inline) {
        (Some(_), true) => {
            return bad_request(
                w,
                "give either ?handle= or an inline query body, not both",
                keep_alive,
            )
        }
        (None, false) => {
            return bad_request(w, "give ?handle= or an inline query body", keep_alive)
        }
        (Some(h), false) => match state.registry.get(h) {
            Some(p) => p,
            None => {
                let body = error_body(
                    "UnknownHandle",
                    &format!("no prepared query under handle {h:?}"),
                    &[],
                );
                return write_response(
                    w,
                    404,
                    "Not Found",
                    "application/json",
                    body.as_bytes(),
                    keep_alive,
                    &[],
                );
            }
        },
        (None, true) => {
            let Ok(src) = std::str::from_utf8(&req.body) else {
                return bad_request(w, "query body is not UTF-8", keep_alive);
            };
            match state.registry.prepare(src) {
                Ok((h, p)) => {
                    cost_handle = Some(h);
                    p
                }
                Err(e) => return axml_error(w, &e, keep_alive),
            }
        }
    };

    // Per-request options, every knob optional.
    let mut opts = EvalOptions::new();
    macro_rules! parse_param {
        ($name:literal, $apply:expr) => {
            if let Some(v) = param($name) {
                match v.parse() {
                    Ok(parsed) => {
                        #[allow(clippy::redundant_closure_call)]
                        {
                            opts = $apply(opts, parsed);
                        }
                    }
                    Err(e) => return bad_request(w, &format!("bad {}: {e}", $name), keep_alive),
                }
            }
        };
    }
    parse_param!("semiring", |o: EvalOptions, v| o.semiring(v));
    parse_param!("route", |o: EvalOptions, v| o.route(v));
    parse_param!("mode", |mut o: EvalOptions, v| {
        o.mode = v;
        o
    });
    parse_param!("parallelism", |o: EvalOptions, v: usize| o.parallel(v));
    parse_param!("memory_budget", |o: EvalOptions, v: usize| o
        .memory_budget(v));
    let deadline_ms = match param("deadline_ms") {
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => Some(ms),
            Err(e) => return bad_request(w, &format!("bad deadline_ms: {e}"), keep_alive),
        },
        None => state.config.default_deadline_ms,
    };
    if let Some(ms) = deadline_ms {
        opts = opts.timeout(Duration::from_millis(ms));
    }
    let mut window = (0usize, None::<usize>); // (offset, limit) over set pieces
    if let Some(v) = param("offset") {
        match v.parse::<usize>() {
            Ok(n) => window.0 = n,
            Err(e) => return bad_request(w, &format!("bad offset: {e}"), keep_alive),
        }
    }
    if let Some(v) = param("limit") {
        match v.parse::<usize>() {
            Ok(n) => window.1 = Some(n),
            Err(e) => return bad_request(w, &format!("bad limit: {e}"), keep_alive),
        }
    }
    let (offset, limit) = window;

    // Scheduling lane: classify by per-query cost history when this
    // handle has been evaluated before (EWMA ≥ 1ms ⇒ expensive),
    // otherwise by route (the fixpoint-running routes start out
    // expensive, the plan routes cheap). The lane only orders pool
    // queues — results are byte-identical in every lane.
    let lane = match cost_handle
        .as_deref()
        .and_then(|h| state.registry.cost_hint(h))
    {
        Some(ns) if ns >= EXPENSIVE_COST_NS => Lane::Expensive,
        Some(_) => Lane::Cheap,
        None => match opts.route {
            Route::Shredded | Route::Differential => Lane::Expensive,
            Route::Direct | Route::ViaNrc => Lane::Cheap,
        },
    };
    opts = opts.lane(lane);
    // Feed the cost history on every exit path from here on (drop
    // guard): errors count too — a request that burned its deadline
    // was expensive.
    let _cost = cost_handle.map(|h| CostRecorder {
        registry: &state.registry,
        handle: h,
        start: Instant::now(),
    });

    // Evaluation pushes each final piece straight into the response on
    // this thread (fan-out runs on the server's pool). Nothing reaches
    // the wire before the first piece of the window, so every error
    // that precedes it — binding, deadline, memory budget, evaluation
    // failure — still gets a clean status line.
    let header = result_header(prepared.source(), &opts);
    let mut sink = EvalSink::new(w, req.http11, keep_alive, header, offset, limit)?;
    let pushed = prepared.eval_each(state.engine, opts, &[], Some(state.pool), |p| sink.piece(p));
    sink.finish(pushed)
}

/// Where one `/eval` response body accumulates.
enum Out<'w, W: Write> {
    /// HTTP/1.1: a coalescing chunked body (its head is buffered until
    /// the first emission).
    Chunked(ChunkedWriter<'w, W>),
    /// HTTP/1.0 has no chunked encoding: the window is buffered whole
    /// and sent with a `Content-Length` at the end.
    Whole(&'w mut W, Vec<u8>),
}

/// The response side of one `/eval`: windows the pushed pieces by
/// `offset`/`limit` and renders the survivors straight into the
/// response's pending buffer. On HTTP/1.1 the status line, the result
/// header and the first piece are flushed together (time to first
/// byte); later pieces coalesce into [`crate::http::CHUNK_BYTES`]
/// frames. HTTP/1.0 takes the same path with flushing off.
struct EvalSink<'w, W: Write> {
    out: Out<'w, W>,
    keep_alive: bool,
    /// `{"query":…,"result":`, sent with the first piece of the window.
    header: String,
    /// Pieces still to skip, and the most to write.
    offset: usize,
    limit: Option<usize>,
    /// Pieces written so far.
    kept: usize,
    json: Json,
    /// A transport failure met while pushing; the evaluation was
    /// abandoned and the connection is lost.
    failed: Option<io::Error>,
}

impl<'w, W: Write> EvalSink<'w, W> {
    fn new(
        w: &'w mut W,
        http11: bool,
        keep_alive: bool,
        header: String,
        offset: usize,
        limit: Option<usize>,
    ) -> io::Result<Self> {
        let out = if http11 {
            Out::Chunked(ChunkedWriter::begin(
                w,
                200,
                "OK",
                "application/json",
                keep_alive,
            )?)
        } else {
            Out::Whole(w, Vec::new())
        };
        Ok(EvalSink {
            out,
            keep_alive,
            header,
            offset,
            limit,
            kept: 0,
            json: Json::new(),
            failed: None,
        })
    }

    /// Append through `render`; on HTTP/1.1 a frame goes out once
    /// enough is pending.
    fn append(&mut self, render: impl FnOnce(&mut Vec<u8>, &mut Json)) -> io::Result<()> {
        let json = &mut self.json;
        match &mut self.out {
            Out::Chunked(cw) => cw.chunk_with(|buf| render(buf, json)),
            Out::Whole(_, body) => {
                render(body, json);
                Ok(())
            }
        }
    }

    /// Accept one pushed piece. `Err(SinkClosed)` stops the
    /// evaluation: the window is full, or the client is gone.
    fn piece(&mut self, p: ResultPieceRef<'_>) -> Result<(), SinkClosed> {
        if self.limit == Some(self.kept) {
            return Err(SinkClosed);
        }
        if self.offset > 0 {
            self.offset -= 1;
            return Ok(());
        }
        let first = self.kept == 0;
        self.kept += 1;
        // The header goes out exactly once: with the first piece, or
        // (when no piece makes the window) in `finish`.
        let header = if first {
            std::mem::take(&mut self.header)
        } else {
            String::new()
        };
        let mut sent = self.append(|buf, json| {
            if first {
                buf.extend_from_slice(header.as_bytes());
                buf.push(b'[');
            } else {
                buf.push(b',');
            }
            json.append_to(buf, |j| p.write_json(j));
        });
        if first && sent.is_ok() {
            if let Out::Chunked(cw) = &mut self.out {
                sent = cw.flush();
            }
        }
        match sent {
            Err(e) => {
                self.failed = Some(e);
                Err(SinkClosed)
            }
            Ok(()) if self.limit == Some(self.kept) => Err(SinkClosed),
            Ok(()) => Ok(()),
        }
    }

    /// Close the response once the evaluation has returned.
    fn finish(mut self, pushed: Result<Option<AxmlResult>, AxmlError>) -> io::Result<()> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let scalar = match pushed {
            Ok(scalar) => scalar,
            // The 200 status line is on the wire. Never end the chunked
            // body cleanly on a failed stream — abort the connection so
            // the client sees a truncated body, not a valid-looking
            // prefix.
            Err(e) if self.kept > 0 && matches!(self.out, Out::Chunked(_)) => {
                return Err(io::Error::other(format!("eval failed mid-stream: {e}")));
            }
            // Nothing has been sent: answer with a clean status.
            Err(e) => {
                let w = match self.out {
                    Out::Chunked(cw) => cw.into_inner(),
                    Out::Whole(w, _) => w,
                };
                return axml_error(w, &e, self.keep_alive);
            }
        };
        let (kept, header) = (self.kept, std::mem::take(&mut self.header));
        self.append(|buf, json| {
            if kept > 0 {
                buf.push(b']');
            } else {
                buf.extend_from_slice(header.as_bytes());
                match &scalar {
                    // `limit`/`offset` window set pieces; a scalar
                    // passes through untouched.
                    Some(out) => json.append_to(buf, |j| result_value_json(j, out)),
                    None => buf.extend_from_slice(b"[]"),
                }
            }
            buf.extend_from_slice(b"}\n");
        })?;
        match self.out {
            Out::Chunked(cw) => cw.finish(),
            Out::Whole(w, body) => write_response(
                w,
                200,
                "OK",
                "application/json",
                &body,
                self.keep_alive,
                &[],
            ),
        }
    }
}

fn ok_json<W: Write>(w: &mut W, mut body: String, keep_alive: bool) -> io::Result<()> {
    body.push('\n');
    write_response(
        w,
        200,
        "OK",
        "application/json",
        body.as_bytes(),
        keep_alive,
        &[],
    )
}

fn bad_request<W: Write>(w: &mut W, msg: &str, keep_alive: bool) -> io::Result<()> {
    let body = error_body("BadRequest", msg, &[]);
    write_response(
        w,
        400,
        "Bad Request",
        "application/json",
        body.as_bytes(),
        keep_alive,
        &[],
    )
}

/// `{"error":{"kind":…,"message":…, extra…}}` — the server's one
/// error shape.
fn error_body(kind: &str, message: &str, extra: &[(&str, String)]) -> String {
    let mut j = Json::new();
    j.begin_obj();
    j.key("error");
    j.begin_obj();
    j.key("kind");
    j.str(kind);
    j.key("message");
    j.str(message);
    for (k, v) in extra {
        j.key(k);
        j.str(v);
    }
    j.end_obj();
    j.end_obj();
    let mut s = j.finish();
    s.push('\n');
    s
}

/// Map an [`AxmlError`] to a status + structured JSON body. Parse
/// errors carry their [`axml::SourceSpan`] fields so API clients can
/// point at the offending line like the CLI does.
fn axml_error<W: Write>(w: &mut W, e: &AxmlError, keep_alive: bool) -> io::Result<()> {
    let (status, reason, kind) = match e {
        AxmlError::QueryParse { .. } => (400, "Bad Request", "QueryParse"),
        AxmlError::DocumentParse { .. } => (400, "Bad Request", "DocumentParse"),
        AxmlError::Type { .. } => (400, "Bad Request", "Type"),
        AxmlError::UnsupportedRoute { .. } => (400, "Bad Request", "UnsupportedRoute"),
        AxmlError::UnknownDocument { .. } => (404, "Not Found", "UnknownDocument"),
        AxmlError::Edit { .. } => (400, "Bad Request", "Edit"),
        AxmlError::EditConflict { .. } => (409, "Conflict", "EditConflict"),
        AxmlError::Budget {
            resource: BudgetKind::WallClock,
            ..
        } => (504, "Gateway Timeout", "Budget"),
        AxmlError::Budget {
            resource: BudgetKind::Memory,
            ..
        } => (507, "Insufficient Storage", "Budget"),
        AxmlError::Eval { .. } => (500, "Internal Server Error", "Eval"),
        AxmlError::Nrc { .. } => (500, "Internal Server Error", "Nrc"),
        AxmlError::Shredding { .. } => (500, "Internal Server Error", "Shredding"),
        AxmlError::EvaluatorDisagreement { .. } => {
            (500, "Internal Server Error", "EvaluatorDisagreement")
        }
        AxmlError::RouteDisagreement { .. } => (500, "Internal Server Error", "RouteDisagreement"),
    };
    let mut extra: Vec<(&str, String)> = Vec::new();
    let span = match e {
        AxmlError::QueryParse { span, .. } => Some(span),
        AxmlError::DocumentParse { span, .. } => Some(span),
        _ => None,
    };
    if let Some(span) = span {
        extra.push(("line", span.line.to_string()));
        extra.push(("column", span.column.to_string()));
        extra.push(("line_text", span.line_text.clone()));
    }
    let body = error_body(kind, &e.to_string(), &extra);
    write_response(
        w,
        status,
        reason,
        "application/json",
        body.as_bytes(),
        keep_alive,
        &[],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::CHUNK_BYTES;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// What a [`Recorder`] saw: every byte, the number of `write`
    /// calls, and how many bytes the last `flush` covered.
    #[derive(Default)]
    struct Log {
        bytes: Vec<u8>,
        writes: usize,
        flushed: usize,
    }

    /// A writer the test can inspect while a sink still borrows it.
    #[derive(Clone, Default)]
    struct Recorder(Rc<RefCell<Log>>);

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut log = self.0.borrow_mut();
            log.writes += 1;
            log.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            let mut log = self.0.borrow_mut();
            log.flushed = log.bytes.len();
            Ok(())
        }
    }

    /// Split a recorded chunked response into its head, its de-chunked
    /// body, and whether the terminal zero chunk arrived.
    fn dechunk(wire: &[u8]) -> (String, String, bool) {
        let text = std::str::from_utf8(wire).unwrap();
        let (head, mut rest) = text.split_once("\r\n\r\n").expect("a complete head");
        let mut body = String::new();
        while let Some((size, after)) = rest.split_once("\r\n") {
            let size = usize::from_str_radix(size, 16).unwrap();
            if size == 0 {
                assert_eq!(after, "\r\n", "nothing after the terminal chunk");
                return (head.to_owned(), body, true);
            }
            body.push_str(&after[..size]);
            rest = after[size..]
                .strip_prefix("\r\n")
                .expect("CRLF after chunk data");
        }
        (head.to_owned(), body, false)
    }

    const QUERY: &str = "$S/*";

    /// A 1500-piece set result (~50 KiB of JSON) and its options.
    fn wide() -> (AxmlResult, EvalOptions) {
        let engine = Engine::new();
        let kids: String = (0..1500).map(|i| format!("b{i} {{x{i}}} ")).collect();
        engine
            .load_document("S", &format!("<a> {kids} </a>"))
            .unwrap();
        let opts = EvalOptions::new();
        (engine.run(QUERY, opts).unwrap(), opts)
    }

    fn sink<'w>(w: &'w mut Recorder, http11: bool, opts: &EvalOptions) -> EvalSink<'w, Recorder> {
        EvalSink::new(w, http11, true, result_header(QUERY, opts), 0, None).unwrap()
    }

    fn budget_trip() -> AxmlError {
        AxmlError::Budget {
            resource: BudgetKind::Memory,
            at: "test".into(),
        }
    }

    #[test]
    fn the_first_piece_is_flushed_and_later_pieces_coalesce() {
        let (out, opts) = wide();
        let pieces = out.pieces().unwrap();
        let mut w = Recorder::default();
        let log = Rc::clone(&w.0);
        let mut s = sink(&mut w, true, &opts);

        // Piece 1: status line, headers, result header and the piece
        // leave together, and are flushed.
        s.piece(pieces[0]).unwrap();
        {
            let log = log.borrow();
            assert_eq!(log.writes, 1);
            assert_eq!(log.flushed, log.bytes.len());
            let (head, body, done) = dechunk(&log.bytes);
            assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
            assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
            assert_eq!(
                body,
                format!("{}[{}", result_header(QUERY, &opts), pieces[0].json())
            );
            assert!(!done);
        }

        // Later pieces stay pending until a full frame's worth is.
        let mut pending = 0;
        let mut writes = 1;
        for p in &pieces[1..] {
            s.piece(*p).unwrap();
            pending += 1 + p.json().len();
            let log = log.borrow();
            assert_eq!(log.flushed, log.bytes.len(), "nothing written unflushed");
            if log.writes > writes {
                assert_eq!(log.writes, writes + 1, "one write per frame");
                assert!(pending >= CHUNK_BYTES, "emitted at {pending} bytes");
                writes = log.writes;
                pending = 0;
            } else {
                assert!(pending < CHUNK_BYTES, "held {pending} bytes");
            }
        }
        assert!(writes >= 3, "a 50 KiB body spans several frames");

        // The end of the body goes out with the terminal chunk.
        s.finish(Ok(None)).unwrap();
        let log = log.borrow();
        assert_eq!(log.writes, writes + 1);
        assert_eq!(log.flushed, log.bytes.len());
        let (_, body, done) = dechunk(&log.bytes);
        assert!(done);
        assert_eq!(
            body,
            format!("{}\n", axml::json::result_json(QUERY, &opts, &out))
        );
    }

    #[test]
    fn a_mid_stream_error_leaves_no_terminal_chunk() {
        let (out, opts) = wide();
        let pieces = out.pieces().unwrap();
        let mut w = Recorder::default();
        let log = Rc::clone(&w.0);
        let mut s = sink(&mut w, true, &opts);
        for p in &pieces[..600] {
            s.piece(*p).unwrap();
        }
        assert!(
            s.finish(Err(budget_trip())).is_err(),
            "the connection aborts"
        );
        let log = log.borrow();
        let (head, _, done) = dechunk(&log.bytes);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(!done, "no terminal chunk after a failed stream");
        assert!(!log.bytes.ends_with(b"0\r\n\r\n"));
    }

    #[test]
    fn an_error_before_the_first_piece_is_a_clean_status() {
        let (_, opts) = wide();
        for http11 in [true, false] {
            let mut w = Recorder::default();
            let log = Rc::clone(&w.0);
            sink(&mut w, http11, &opts)
                .finish(Err(budget_trip()))
                .unwrap();
            let log = log.borrow();
            assert_eq!(log.writes, 1);
            let text = std::str::from_utf8(&log.bytes).unwrap();
            assert!(text.starts_with("HTTP/1.1 507 "), "{text}");
            assert!(text.contains("\"kind\":\"Budget\""), "{text}");
        }
    }

    #[test]
    fn http_1_0_buffers_the_window_and_writes_once() {
        let (out, opts) = wide();
        let pieces = out.pieces().unwrap();
        let mut w = Recorder::default();
        let log = Rc::clone(&w.0);
        let mut s = sink(&mut w, false, &opts);
        for p in &pieces {
            s.piece(*p).unwrap();
        }
        assert_eq!(log.borrow().writes, 0, "nothing goes out before the end");
        s.finish(Ok(None)).unwrap();
        let log = log.borrow();
        assert_eq!(log.writes, 1);
        let text = std::str::from_utf8(&log.bytes).unwrap();
        let (head, body) = text.split_once("\r\n\r\n").unwrap();
        assert!(
            head.contains(&format!("Content-Length: {}", body.len())),
            "{head}"
        );
        assert_eq!(
            body,
            format!("{}\n", axml::json::result_json(QUERY, &opts, &out))
        );
    }

    #[test]
    fn a_full_window_stops_the_evaluation() {
        let (out, opts) = wide();
        let pieces = out.pieces().unwrap();
        let mut w = Recorder::default();
        let header = result_header(QUERY, &opts);
        let mut s = EvalSink::new(&mut w, true, true, header, 2, Some(3)).unwrap();
        assert!(s.piece(pieces[0]).is_ok(), "skipped by the offset");
        assert!(s.piece(pieces[1]).is_ok(), "skipped by the offset");
        assert!(s.piece(pieces[2]).is_ok());
        assert!(s.piece(pieces[3]).is_ok());
        assert_eq!(s.piece(pieces[4]), Err(SinkClosed), "the third kept piece");
        assert_eq!(s.piece(pieces[5]), Err(SinkClosed));
        s.finish(Ok(None)).unwrap();
    }
}
