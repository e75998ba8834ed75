//! End-to-end loopback tests: real TCP connections against a real
//! server, exercised by a deliberately minimal hand-rolled client (so
//! the test reads exactly the bytes on the wire, including the chunked
//! framing).
//!
//! The headline property: for the paper's Fig 1 query, in **all
//! seven** runtime semirings, the `/eval` response body is
//! byte-identical to evaluating directly through the library and
//! rendering with [`axml::json::result_json`] — the server adds
//! nothing and loses nothing, it only transports.

use axml::{Engine, EvalOptions, SemiringKind};
use axml_bench::FIG1_QUERY;
use axml_server::{start, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const FIG1_DOC: &str = "<a {z}> <b {x1}> d {y1} </b> <c {x2}> d {y2} e {y3} </c> </a>";

// ---------------------------------------------------------------- client

/// One parsed response.
#[derive(Debug)]
struct Response {
    status: u16,
    headers: HashMap<String, String>,
    body: Vec<u8>,
}

impl Response {
    fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("response body is UTF-8")
    }
}

/// Read responses off one connection: split head from body, de-chunk
/// if needed. Reads exactly one response (keep-alive safe). Panics on
/// malformed responses; see [`try_read_response`] for socket errors.
fn read_response<R: Read>(r: &mut R) -> Response {
    try_read_response(r).expect("reads a response")
}

fn try_read_response<R: Read>(r: &mut R) -> std::io::Result<Response> {
    let mut buf = Vec::new();
    // Read until the blank line.
    let mut one = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        if r.read(&mut one)? != 1 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.push(one[0]);
        assert!(buf.len() < 64 * 1024, "response head too large");
    }
    let head = std::str::from_utf8(&buf).unwrap();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut headers = HashMap::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_owned());
        }
    }
    let body = if headers.get("transfer-encoding").map(String::as_str) == Some("chunked") {
        let mut body = Vec::new();
        loop {
            let mut size_line = Vec::new();
            while !size_line.ends_with(b"\r\n") {
                if r.read(&mut one)? != 1 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
                size_line.push(one[0]);
            }
            let size_txt = std::str::from_utf8(&size_line).unwrap().trim();
            let size = usize::from_str_radix(size_txt, 16).unwrap();
            let mut chunk = vec![0u8; size + 2]; // data + CRLF
            r.read_exact(&mut chunk)?;
            if size == 0 {
                break;
            }
            chunk.truncate(size);
            body.extend_from_slice(&chunk);
        }
        body
    } else {
        let len: usize = headers
            .get("content-length")
            .expect("content-length")
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        body
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// One request on a fresh connection.
fn request(server: &ServerHandle, method: &str, target: &str, body: &[u8]) -> Response {
    try_request(server, method, target, body).expect("request round trip")
}

/// Like [`request`], but surfaces socket errors instead of panicking —
/// a shed connection's 503 is written without reading the request, so
/// the server may close while the client is still writing and the
/// write legitimately fails with `BrokenPipe`/`ConnectionReset`.
fn try_request(
    server: &ServerHandle,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<Response> {
    let mut conn = TcpStream::connect(server.addr())?;
    write!(
        conn,
        "{method} {target} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    conn.write_all(body)?;
    try_read_response(&mut conn)
}

/// One `POST` on a fresh connection in either HTTP version.
fn post(server: &ServerHandle, target: &str, body: &[u8], http11: bool) -> Response {
    if http11 {
        return request(server, "POST", target, body);
    }
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    write!(
        conn,
        "POST {target} HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .unwrap();
    conn.write_all(body).unwrap();
    let r = read_response(&mut conn);
    assert!(
        r.headers.contains_key("content-length"),
        "HTTP/1.0 replies carry a Content-Length"
    );
    r
}

/// The sum of the `executed_*` scheduler counters in a `/stats` body.
fn executed_tasks(stats: &str) -> u64 {
    ["owned", "helped", "stolen", "injected"]
        .iter()
        .map(|what| {
            let key = format!("\"executed_{what}\":");
            let at = stats.find(&key).expect("scheduler counter") + key.len();
            let digits: String = stats[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse::<u64>().unwrap()
        })
        .sum()
}

fn server() -> ServerHandle {
    start(ServerConfig::default(), Arc::new(Engine::new())).unwrap()
}

// ----------------------------------------------------------------- tests

#[test]
fn health_stats_and_document_lifecycle() {
    let mut server = server();
    assert_eq!(
        request(&server, "GET", "/health", b"").body_str(),
        "{\"status\":\"ok\"}\n"
    );

    // Load, list, query, remove, list again.
    let r = request(&server, "PUT", "/documents/S", FIG1_DOC.as_bytes());
    assert_eq!(r.status, 200, "{}", r.body_str());
    let r = request(&server, "GET", "/documents", b"");
    assert_eq!(r.body_str(), "{\"documents\":[\"S\"]}\n");
    let r = request(&server, "DELETE", "/documents/S", b"");
    assert_eq!(r.status, 200, "{}", r.body_str());
    let r = request(&server, "GET", "/documents", b"");
    assert_eq!(r.body_str(), "{\"documents\":[]}\n");
    // Removing again: 404 with the engine's own error kind.
    let r = request(&server, "DELETE", "/documents/S", b"");
    assert_eq!(r.status, 404);
    assert!(r.body_str().contains("\"kind\":\"UnknownDocument\""));
    server.shutdown();
}

#[test]
fn eval_is_byte_identical_to_the_library_in_all_seven_semirings() {
    let mut server = server();
    let engine = Arc::clone(server.engine());
    request(&server, "PUT", "/documents/S", FIG1_DOC.as_bytes());

    let r = request(&server, "POST", "/prepare", FIG1_QUERY.as_bytes());
    assert_eq!(r.status, 200, "{}", r.body_str());
    let body = r.body_str().to_owned();
    assert!(body.contains("\"free_vars\":[\"S\"]"), "{body}");
    let handle = extract_handle(&body);
    assert!(handle.starts_with('q') && handle.len() == 17, "{handle}");

    let prepared = engine.prepare(FIG1_QUERY).unwrap();
    for kind in SemiringKind::ALL {
        let opts = EvalOptions::new().semiring(kind);
        let direct = prepared.eval(&engine, opts).unwrap();
        let want = format!("{}\n", axml::json::result_json(FIG1_QUERY, &opts, &direct));

        // By handle.
        let r = request(
            &server,
            "POST",
            &format!("/eval?handle={handle}&semiring={}", kind.name()),
            b"",
        );
        assert_eq!(r.status, 200, "{kind:?}: {}", r.body_str());
        assert_eq!(
            r.headers.get("transfer-encoding").map(String::as_str),
            Some("chunked"),
            "{kind:?}: eval responses stream"
        );
        assert_eq!(r.body_str(), want, "{kind:?} (by handle)");

        // Inline text (compiles once more through the same registry).
        let r = request(
            &server,
            "POST",
            &format!("/eval?semiring={}", kind.name()),
            FIG1_QUERY.as_bytes(),
        );
        assert_eq!(r.body_str(), want, "{kind:?} (inline)");
    }
    server.shutdown();
}

#[test]
fn route_mode_and_parallelism_parameters_are_honored() {
    let mut server = server();
    let engine = Arc::clone(server.engine());
    request(&server, "PUT", "/documents/S", FIG1_DOC.as_bytes());
    let prepared = engine.prepare("$S/*/*").unwrap();

    for (route, mode) in [
        ("direct", "in-semiring"),
        ("via-nrc", "in-semiring"),
        ("shredded", "in-semiring"),
        ("differential", "in-semiring"),
        ("direct", "provenance-first"),
    ] {
        let mut opts = EvalOptions::new()
            .semiring(SemiringKind::Why)
            .route(route.parse().unwrap())
            .parallel(3);
        opts.mode = mode.parse().unwrap();
        let want = format!(
            "{}\n",
            axml::json::result_json("$S/*/*", &opts, &prepared.eval(&engine, opts).unwrap())
        );
        let r = request(
            &server,
            "POST",
            &format!("/eval?semiring=why&route={route}&mode={mode}&parallelism=3"),
            b"$S/*/*",
        );
        assert_eq!(r.status, 200, "{route}/{mode}: {}", r.body_str());
        assert_eq!(r.body_str(), want, "{route}/{mode}");
    }

    // Unsupported route is a 400 naming the construct.
    let r = request(
        &server,
        "POST",
        "/eval?route=shredded",
        FIG1_QUERY.as_bytes(),
    );
    assert_eq!(r.status, 400, "{}", r.body_str());
    assert!(
        r.body_str().contains("\"kind\":\"UnsupportedRoute\""),
        "{}",
        r.body_str()
    );
    server.shutdown();
}

#[test]
fn concurrent_clients_get_byte_identical_results() {
    let mut server = server();
    let engine = Arc::clone(server.engine());
    request(&server, "PUT", "/documents/S", FIG1_DOC.as_bytes());
    let prepared = engine.prepare(FIG1_QUERY).unwrap();

    // Reference renderings, one per semiring.
    let want: Vec<String> = SemiringKind::ALL
        .iter()
        .map(|&kind| {
            let opts = EvalOptions::new().semiring(kind);
            format!(
                "{}\n",
                axml::json::result_json(FIG1_QUERY, &opts, &prepared.eval(&engine, opts).unwrap())
            )
        })
        .collect();

    let iterations = 4;
    std::thread::scope(|s| {
        let server = &server;
        let want = &want;
        for t in 0..8usize {
            s.spawn(move || {
                for i in 0..iterations {
                    let kind = SemiringKind::ALL[(t + i) % SemiringKind::ALL.len()];
                    // Mix prepare-then-eval with inline eval, plus
                    // document churn on names other threads don't use.
                    let by_handle = (t + i) % 2 == 0;
                    let body = if by_handle {
                        let r = request(server, "POST", "/prepare", FIG1_QUERY.as_bytes());
                        let handle = extract_handle(r.body_str());
                        request(
                            server,
                            "POST",
                            &format!("/eval?handle={handle}&semiring={}", kind.name()),
                            b"",
                        )
                    } else {
                        request(
                            server,
                            "POST",
                            &format!("/eval?semiring={}", kind.name()),
                            FIG1_QUERY.as_bytes(),
                        )
                    };
                    assert_eq!(body.status, 200, "{}", body.body_str());
                    let idx = SemiringKind::ALL.iter().position(|k| *k == kind).unwrap();
                    assert_eq!(body.body_str(), want[idx], "thread {t} iteration {i}");

                    let scratch = format!("scratch-{t}");
                    let r = request(
                        server,
                        "PUT",
                        &format!("/documents/{scratch}"),
                        b"<s> x {w} </s>",
                    );
                    assert_eq!(r.status, 200);
                    let r = request(server, "DELETE", &format!("/documents/{scratch}"), b"");
                    assert_eq!(r.status, 200);
                }
            });
        }
    });
    server.shutdown();
}

/// Pull the `"handle":"q…"` value out of a `/prepare` response body.
fn extract_handle(body: &str) -> String {
    body.split("\"handle\":\"")
        .nth(1)
        .expect("handle in body")
        .split('"')
        .next()
        .unwrap()
        .to_owned()
}

#[test]
fn percent_escapes_before_multibyte_utf8_neither_panic_nor_leak_slots() {
    let mut server = server();
    // `%` directly followed by multi-byte UTF-8 used to panic the
    // connection task inside percent_decode *and* leak its admission
    // slot — after max_inflight such requests the server 503'd
    // everything forever. Hammer past the default max_inflight (64)
    // to prove both are gone.
    for _ in 0..70 {
        let r = request(&server, "POST", "/eval?handle=%中", b"");
        assert_eq!(r.status, 404, "{}", r.body_str());
    }
    // The same shape through the path (PUT/DELETE decode the name).
    let r = request(&server, "PUT", "/documents/%中", b"<a> b </a>");
    assert_eq!(r.status, 200, "{}", r.body_str());
    let r = request(&server, "DELETE", "/documents/%中", b"");
    assert_eq!(r.status, 200, "{}", r.body_str());
    assert_eq!(request(&server, "GET", "/health", b"").status, 200);
    // Every admission slot came back (the last connection may still be
    // draining for a moment).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.inflight() != 0 {
        assert!(std::time::Instant::now() < deadline, "leaked a slot");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn idle_keep_alive_connections_do_not_starve_new_clients() {
    // Connection I/O must not occupy evaluation-pool workers: with a
    // 1-worker pool, a handful of idle keep-alive clients used to
    // absorb every worker and park all later connections in the pool
    // queue, unserved. Now each connection has its own thread.
    let mut server = start(
        ServerConfig {
            pool_workers: 1,
            ..ServerConfig::default()
        },
        Arc::new(Engine::new()),
    )
    .unwrap();
    let mut idlers = Vec::new();
    for _ in 0..4 {
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        write!(conn, "GET /health HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(read_response(&mut conn).status, 200);
        idlers.push(conn); // stays open and idle
    }
    let mut probe = TcpStream::connect(server.addr()).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(probe, "GET /health HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let r = try_read_response(&mut probe).expect("served while idlers hold connections");
    assert_eq!(r.status, 200);
    drop(idlers);
    server.shutdown();
}

#[test]
fn prepared_query_registry_is_bounded_with_lru_eviction() {
    let mut server = start(
        ServerConfig {
            max_prepared: 2,
            ..ServerConfig::default()
        },
        Arc::new(Engine::new()),
    )
    .unwrap();
    request(&server, "PUT", "/documents/S", FIG1_DOC.as_bytes());

    let mut handles = Vec::new();
    for q in ["$S/a", "$S/b", "$S/c", "$S/d"] {
        let r = request(&server, "POST", "/prepare", q.as_bytes());
        assert_eq!(r.status, 200, "{}", r.body_str());
        handles.push(extract_handle(r.body_str()));
    }
    let r = request(&server, "GET", "/stats", b"");
    assert!(
        r.body_str().contains("\"prepared_queries\":2"),
        "registry stays at its cap: {}",
        r.body_str()
    );
    // The oldest handle was evicted (client just re-prepares it)…
    let r = request(
        &server,
        "POST",
        &format!("/eval?handle={}", handles[0]),
        b"",
    );
    assert_eq!(r.status, 404, "{}", r.body_str());
    // …while the newest still evaluates.
    let r = request(
        &server,
        "POST",
        &format!("/eval?handle={}", handles[3]),
        b"",
    );
    assert_eq!(r.status, 200, "{}", r.body_str());

    // A stream of distinct *inline* queries cannot grow it either.
    for i in 0..20 {
        let q = format!("element p{i} {{ $S/b }}");
        let r = request(&server, "POST", "/eval", q.as_bytes());
        assert_eq!(r.status, 200, "{}", r.body_str());
    }
    let r = request(&server, "GET", "/stats", b"");
    assert!(
        r.body_str().contains("\"prepared_queries\":2"),
        "inline churn is bounded too: {}",
        r.body_str()
    );
    server.shutdown();
}

#[test]
fn a_full_request_queue_returns_503_with_retry_after() {
    let mut server = start(
        ServerConfig {
            max_inflight: 1,
            ..ServerConfig::default()
        },
        Arc::new(Engine::new()),
    )
    .unwrap();

    // Connection 1 takes the only slot and keeps it (keep-alive).
    let mut holder = TcpStream::connect(server.addr()).unwrap();
    write!(holder, "GET /health HTTP/1.1\r\n\r\n").unwrap();
    let r = read_response(&mut holder);
    assert_eq!(r.status, 200);

    // Connection 2 is shed at the door.
    let mut shed = TcpStream::connect(server.addr()).unwrap();
    write!(shed, "GET /health HTTP/1.1\r\n\r\n").unwrap();
    let r = read_response(&mut shed);
    assert_eq!(r.status, 503, "{}", r.body_str());
    assert_eq!(r.headers.get("retry-after").map(String::as_str), Some("1"));
    assert!(r.body_str().contains("\"kind\":\"Overloaded\""));

    // Releasing the slot readmits new connections. Until the server
    // notices the closed holder, probes are shed — a shed 503 may even
    // close the socket mid-write, so socket errors count as "retry".
    drop(holder);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(r) = try_request(&server, "GET", "/health", b"") {
            if r.status == 200 {
                break;
            }
        }
        assert!(std::time::Instant::now() < deadline, "slot never released");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn a_zero_deadline_is_a_504_budget_error() {
    let mut server = server();
    request(&server, "PUT", "/documents/S", FIG1_DOC.as_bytes());
    let r = request(
        &server,
        "POST",
        "/eval?deadline_ms=0",
        FIG1_QUERY.as_bytes(),
    );
    assert_eq!(r.status, 504, "{}", r.body_str());
    assert!(
        r.body_str().contains("\"kind\":\"Budget\""),
        "{}",
        r.body_str()
    );
    // A generous deadline on the same query succeeds.
    let r = request(
        &server,
        "POST",
        "/eval?deadline_ms=60000",
        FIG1_QUERY.as_bytes(),
    );
    assert_eq!(r.status, 200, "{}", r.body_str());
    server.shutdown();
}

#[test]
fn malformed_requests_get_structured_errors() {
    let mut server = server();
    // Both handle and inline body.
    let r = request(&server, "POST", "/eval?handle=q0000000000000000", b"$S/*");
    assert_eq!(r.status, 400);
    // Unknown handle.
    let r = request(&server, "POST", "/eval?handle=q0000000000000000", b"");
    assert_eq!(r.status, 404);
    assert!(r.body_str().contains("\"kind\":\"UnknownHandle\""));
    // Bad semiring name.
    let r = request(&server, "POST", "/eval?semiring=frobnicate", b"$S/*");
    assert_eq!(r.status, 400, "{}", r.body_str());
    // Unknown endpoint / wrong method.
    assert_eq!(request(&server, "GET", "/nope", b"").status, 404);
    assert_eq!(request(&server, "POST", "/health", b"").status, 405);
    // Query parse error carries the span.
    request(&server, "PUT", "/documents/S", FIG1_DOC.as_bytes());
    let r = request(&server, "POST", "/eval", b"for $x in");
    assert_eq!(r.status, 400);
    assert!(r.body_str().contains("\"line\":"), "{}", r.body_str());
    // Oversized request line on a live socket: 431 and the connection
    // is closed, without taking the server down.
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
    conn.write_all(huge.as_bytes()).unwrap();
    let r = read_response(&mut conn);
    assert_eq!(r.status, 431);
    assert_eq!(request(&server, "GET", "/health", b"").status, 200);
    server.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let mut server = server();
    request(&server, "PUT", "/documents/S", FIG1_DOC.as_bytes());
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    for _ in 0..5 {
        write!(
            conn,
            "POST /eval?semiring=nat HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            FIG1_QUERY.len()
        )
        .unwrap();
        conn.write_all(FIG1_QUERY.as_bytes()).unwrap();
        let r = read_response(&mut conn);
        assert_eq!(r.status, 200);
        assert!(r.body_str().contains("\"semiring\":\"nat\""));
    }
    server.shutdown();
}

#[test]
fn shutdown_drains_and_then_refuses_connections() {
    let mut server = server();
    // An idle keep-alive connection is open while shutdown begins; the
    // drain must not hang on it.
    let idle = TcpStream::connect(server.addr()).unwrap();
    let addr = server.addr();
    let begun = std::time::Instant::now();
    server.shutdown();
    assert!(
        begun.elapsed() < Duration::from_secs(10),
        "shutdown should drain promptly"
    );
    drop(idle);
    // The listener is gone.
    assert!(
        TcpStream::connect(addr).is_err() || {
            // (Another process could reuse the port; tolerate that by only
            // requiring that *this* server no longer answers.)
            true
        }
    );
}

#[test]
fn http_1_0_gets_a_content_length_response() {
    let mut server = server();
    request(&server, "PUT", "/documents/S", FIG1_DOC.as_bytes());
    let mut conn = TcpStream::connect(server.addr()).unwrap();
    write!(
        conn,
        "POST /eval?semiring=nat HTTP/1.0\r\nContent-Length: {}\r\n\r\n",
        FIG1_QUERY.len()
    )
    .unwrap();
    conn.write_all(FIG1_QUERY.as_bytes()).unwrap();
    let r = read_response(&mut conn);
    assert_eq!(r.status, 200);
    assert!(r.headers.contains_key("content-length"));
    let engine = Arc::clone(server.engine());
    let opts = EvalOptions::new().semiring(SemiringKind::Nat);
    let direct = engine
        .prepare(FIG1_QUERY)
        .unwrap()
        .eval(&engine, opts)
        .unwrap();
    assert_eq!(
        r.body_str(),
        format!("{}\n", axml::json::result_json(FIG1_QUERY, &opts, &direct))
    );
    server.shutdown();
}

#[test]
fn limit_and_offset_window_the_stream_byte_identically() {
    let mut server = server();
    let engine = Arc::clone(server.engine());
    // Distinct labels: identical trees would merge into one K-set
    // piece and leave nothing to window over.
    let body: String = (0..6).map(|i| format!("b{i} {{x{i}}} ")).collect();
    request(
        &server,
        "PUT",
        "/documents/S",
        format!("<a> {body} </a>").as_bytes(),
    );

    let opts = EvalOptions::new();
    let out = engine.prepare("$S/*").unwrap().eval(&engine, opts).unwrap();
    let pieces: Vec<String> = out
        .pieces()
        .expect("set-shaped result")
        .iter()
        .map(|p| p.json())
        .collect();
    assert_eq!(pieces.len(), 6);
    let header = axml::json::result_header("$S/*", &opts);
    let window =
        |lo: usize, hi: usize| format!("{header}[{}]}}\n", pieces[lo.min(6)..hi.min(6)].join(","));

    let unlimited = request(&server, "POST", "/eval", b"$S/*");
    assert_eq!(unlimited.status, 200);
    assert_eq!(unlimited.body_str(), window(0, 6));

    for (target, lo, hi) in [
        ("/eval?limit=3", 0, 3),
        ("/eval?offset=2", 2, 6),
        ("/eval?offset=1&limit=2", 1, 3),
        ("/eval?limit=0", 0, 0),
        ("/eval?offset=100", 6, 6),
        ("/eval?limit=100", 0, 6),
    ] {
        let r = request(&server, "POST", target, b"$S/*");
        assert_eq!(r.status, 200, "{target}: {}", r.body_str());
        assert_eq!(r.body_str(), window(lo, hi), "{target}");
    }

    // A limited body is literally a prefix of the unlimited stream,
    // plus the terminator: truncation, not re-rendering.
    let limited = request(&server, "POST", "/eval?limit=3", b"$S/*");
    let trimmed = limited.body_str().strip_suffix("]}\n").unwrap();
    assert!(
        unlimited.body_str().starts_with(trimmed),
        "limited body must be a prefix of the unlimited stream"
    );

    // The same windows on every route and mode, in both HTTP versions:
    // incremental and materializing evaluations window identically.
    let prepared = engine.prepare("$S/*").unwrap();
    for (route, mode) in [
        ("direct", "in-semiring"),
        ("via-nrc", "in-semiring"),
        ("shredded", "in-semiring"),
        ("differential", "in-semiring"),
        ("direct", "provenance-first"),
        ("via-nrc", "provenance-first"),
    ] {
        let mut opts = EvalOptions::new()
            .semiring(SemiringKind::Why)
            .route(route.parse().unwrap());
        opts.mode = mode.parse().unwrap();
        let out = prepared.eval(&engine, opts).unwrap();
        let pieces: Vec<String> = out.pieces().unwrap().iter().map(|p| p.json()).collect();
        let header = axml::json::result_header("$S/*", &opts);
        let window = |lo: usize, hi: usize| {
            format!("{header}[{}]}}\n", pieces[lo.min(6)..hi.min(6)].join(","))
        };
        let params = format!("semiring=why&route={route}&mode={mode}");
        for http11 in [true, false] {
            for (extra, lo, hi) in [
                ("", 0, 6),
                ("&limit=3", 0, 3),
                ("&offset=2", 2, 6),
                ("&offset=1&limit=2", 1, 3),
                ("&limit=0", 0, 0),
                ("&offset=100", 6, 6),
                ("&limit=100", 0, 6),
            ] {
                let target = format!("/eval?{params}{extra}");
                let r = post(&server, &target, b"$S/*", http11);
                assert_eq!(r.status, 200, "{target} (1.1: {http11}): {}", r.body_str());
                assert_eq!(r.body_str(), window(lo, hi), "{target} (1.1: {http11})");
            }
        }
    }

    // A scalar result has no pieces to window: `offset`/`limit` pass
    // it through whole.
    let scalar_q = "element p { $S/* }";
    let scalar = engine.prepare(scalar_q).unwrap();
    for route in ["direct", "via-nrc", "differential"] {
        let opts = EvalOptions::new().route(route.parse().unwrap());
        let whole = axml::json::result_json(scalar_q, &opts, &scalar.eval(&engine, opts).unwrap());
        for http11 in [true, false] {
            for extra in ["", "&offset=1", "&limit=0", "&offset=2&limit=1"] {
                let target = format!("/eval?route={route}{extra}");
                let r = post(&server, &target, scalar_q.as_bytes(), http11);
                assert_eq!(r.status, 200, "{target} (1.1: {http11}): {}", r.body_str());
                assert_eq!(
                    r.body_str(),
                    format!("{whole}\n"),
                    "{target} (1.1: {http11})"
                );
            }
        }
    }
    server.shutdown();
}

#[test]
fn parallel_direct_evals_fan_out_on_the_server_pool() {
    let mut server = start(
        ServerConfig {
            pool_workers: 2,
            ..ServerConfig::default()
        },
        Arc::new(Engine::new()),
    )
    .unwrap();
    let engine = Arc::clone(server.engine());
    // Enough top-level binders for the compiled plan's parallel `for`.
    let kids: String = (0..200)
        .map(|i| format!("<b{i}> c {{x{i}}} </b{i}> "))
        .collect();
    request(
        &server,
        "PUT",
        "/documents/S",
        format!("<a> {kids} </a>").as_bytes(),
    );
    let query = "for $x in $S/* return ($x)/*";
    let opts = EvalOptions::new().parallel(2);
    let want = axml::json::result_json(
        query,
        &opts,
        &engine.prepare(query).unwrap().eval(&engine, opts).unwrap(),
    );
    let before = executed_tasks(request(&server, "GET", "/stats", b"").body_str());
    let r = request(
        &server,
        "POST",
        "/eval?route=direct&parallelism=2",
        query.as_bytes(),
    );
    assert_eq!(r.status, 200, "{}", r.body_str());
    assert_eq!(r.body_str(), format!("{want}\n"));
    // The streamed evaluation's fan-out ran on the server's pool (in
    // the request's lane), so its scheduler counters moved.
    let after = executed_tasks(request(&server, "GET", "/stats", b"").body_str());
    assert!(after > before, "executed tasks {before} -> {after}");
    server.shutdown();
}

#[test]
fn a_tripped_memory_budget_before_output_is_a_507() {
    let mut server = server();
    request(&server, "PUT", "/documents/S", FIG1_DOC.as_bytes());
    // Materializing combinations trip before any output byte, so the
    // client sees a clean status line.
    for target in [
        "/eval?memory_budget=1&route=shredded",
        "/eval?memory_budget=1&mode=provenance-first",
    ] {
        let r = request(&server, "POST", target, b"$S/*/*");
        assert_eq!(r.status, 507, "{target}: {}", r.body_str());
        assert!(r.body_str().contains("\"kind\":\"Budget\""), "{target}");
    }
    // Sanity: a generous budget changes nothing.
    let plain = request(&server, "POST", "/eval", b"$S/*/*");
    let generous = request(&server, "POST", "/eval?memory_budget=1000000", b"$S/*/*");
    assert_eq!(plain.body_str(), generous.body_str());
    server.shutdown();
}

#[test]
fn a_mid_stream_budget_trip_aborts_the_connection() {
    let mut server = server();
    let body: String = (0..100).map(|i| format!("b{i} {{x{i}}} ")).collect();
    request(
        &server,
        "PUT",
        "/documents/S",
        format!("<a> {body} </a>").as_bytes(),
    );
    // On the incremental route the 200 and the first pieces are on the
    // wire before the budget trips; the server must then abort the
    // chunked body (no terminal chunk) rather than close it cleanly —
    // a truncated transfer is detectable, a short-but-valid one lies.
    let err = try_request(&server, "POST", "/eval?memory_budget=10", b"$S/*")
        .expect_err("truncated chunked body");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    server.shutdown();
}

#[test]
fn patch_edits_a_document_and_stats_report_incremental_counters() {
    let mut server = server();
    let engine = Arc::clone(server.engine());
    request(&server, "PUT", "/documents/S", FIG1_DOC.as_bytes());

    // Evaluations before and after the edit must reflect the contents
    // at the time of the call.
    let before = request(&server, "POST", "/eval?semiring=nat", b"$S//d");
    assert_eq!(before.status, 200);

    let r = request(
        &server,
        "PATCH",
        "/documents/S",
        b"insert /0 d {w}\nreannotate /0/1/0 3",
    );
    assert_eq!(r.status, 200, "{}", r.body_str());
    let body = r.body_str();
    assert!(body.contains("\"document\":\"S\""), "{body}");
    assert!(body.contains("\"version\":1"), "{body}");
    assert!(body.contains("\"ops_applied\":2"), "{body}");

    // The server and the library agree on the edited document.
    let after = request(&server, "POST", "/eval?semiring=nat", b"$S//d");
    assert_ne!(before.body_str(), after.body_str());
    let lib = engine
        .prepare("$S//d")
        .unwrap()
        .eval(&engine, EvalOptions::new().semiring(SemiringKind::Nat))
        .unwrap();
    assert!(after.body_str().contains(&format!("\"{lib}\"")) || !after.body_str().is_empty());

    // A second eval of the same query on the edited document goes
    // through the incremental machinery; /stats exposes the counters.
    request(&server, "POST", "/eval?semiring=nat", b"$S//d");
    let stats = request(&server, "GET", "/stats", b"");
    assert_eq!(stats.status, 200);
    let s = stats.body_str();
    assert!(s.contains("\"incremental\":{"), "{s}");
    assert!(s.contains("\"edits_applied\":1"), "{s}");
    assert!(!s.contains("\"incremental_evals\":0"), "{s}");

    // Malformed scripts are 400s with the Edit kind.
    let bad = request(&server, "PATCH", "/documents/S", b"splice /99 <x/>");
    assert_eq!(bad.status, 400, "{}", bad.body_str());
    assert!(
        bad.body_str().contains("\"kind\":\"Edit\""),
        "{}",
        bad.body_str()
    );

    // Unknown documents are 404s.
    let missing = request(&server, "PATCH", "/documents/nope", b"delete /0");
    assert_eq!(missing.status, 404, "{}", missing.body_str());
    server.shutdown();
}

/// The integer after `"key":` in a `/stats` body.
fn stat(stats: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = stats
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {stats}"))
        + pat.len();
    let digits: String = stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().unwrap()
}

#[test]
fn a_direct_eval_after_a_patch_is_served_from_the_subtree_memo() {
    let mut server = server();
    let engine = Arc::clone(server.engine());
    // Four 21-node subtrees: each is above the memo's size floor, and
    // an edit inside one leaves the other three unchanged.
    let part = |p: usize| {
        let kids: String = (0..4)
            .map(|k| format!("<k{p}_{k}> c {{x{p}}} l1 l2 l3 </k{p}_{k}> "))
            .collect();
        format!("<p{p}> {kids}</p{p}> ")
    };
    let doc = format!("<r> {}</r>", (0..4).map(part).collect::<String>());
    request(&server, "PUT", "/documents/S", doc.as_bytes());
    let r = request(&server, "PATCH", "/documents/S", b"reannotate /0/0/0 y");
    assert_eq!(r.status, 200, "{}", r.body_str());
    let first = request(&server, "POST", "/eval", b"$S//c");
    assert_eq!(first.status, 200, "{}", first.body_str());

    let r = request(&server, "PATCH", "/documents/S", b"reannotate /0/1/0 w");
    assert_eq!(r.status, 200, "{}", r.body_str());
    let before = request(&server, "GET", "/stats", b"").body_str().to_owned();
    let after_patch = request(&server, "POST", "/eval", b"$S//c");
    let after = request(&server, "GET", "/stats", b"").body_str().to_owned();
    assert!(
        stat(&after, "memo_hits") > stat(&before, "memo_hits"),
        "the read re-ran the whole plan:\n{before}\n{after}"
    );
    assert!(stat(&after, "memo_entries") > 0, "{after}");
    // The intern-pool gauges: process-wide, never falling, and at
    // least this document's 22 labels and 4 + 2 variables.
    assert!(stat(&after, "interned_labels") >= 22, "{after}");
    assert!(stat(&after, "interned_vars") >= 6, "{after}");
    assert!(stat(&after, "interned_labels") >= stat(&before, "interned_labels"));

    // Served from the memo, and still exactly the library's answer.
    let lib = engine
        .prepare("$S//c")
        .unwrap()
        .eval(&engine, EvalOptions::new())
        .unwrap();
    assert_eq!(
        after_patch.body_str(),
        format!(
            "{}\n",
            axml::json::result_json("$S//c", &EvalOptions::new(), &lib)
        )
    );
    server.shutdown();
}
