//! A minimal, hostile-input-hardened HTTP/1.1 reader/writer over
//! `std::io`.
//!
//! This is not a general HTTP implementation — it is the smallest
//! subset the query server needs, built with the same bounded-input
//! discipline as the workspace's document and query parsers: every
//! dimension an attacker controls (request-line length, header count
//! and size, body size, chunk framing, trailer count) has an explicit
//! cap from [`Limits`], and exceeding a cap is a typed error, never an
//! unbounded allocation. Malformed framing is rejected rather than
//! guessed at: a request carrying both `Content-Length` and
//! `Transfer-Encoding`, duplicate `Content-Length`s, non-`chunked`
//! transfer encodings, or whitespace-embedded header names (request
//! smuggling vectors) all fail with [`HttpError::Bad`].
//!
//! Reading is generic over [`BufRead`] so the hostile-input tests (and
//! the proptest that arbitrary byte noise never panics) run against
//! in-memory cursors; the server hands in a `BufReader<TcpStream>`
//! with a read timeout, which [`read_request`] reports as
//! [`ReadOutcome::TimedOutIdle`] *between* requests (the keep-alive
//! idle poll) and as a hard error *inside* one (the slow-client
//! guard).

use std::io::{BufRead, ErrorKind, Write};

/// Caps on attacker-controlled input dimensions.
#[derive(Clone, Debug)]
pub struct Limits {
    /// Longest accepted request line (method + target + version).
    pub max_request_line: usize,
    /// Longest accepted single header line.
    pub max_header_line: usize,
    /// Most headers per request (trailers count against it too).
    pub max_header_count: usize,
    /// Largest accepted body, by `Content-Length` or summed chunks.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_request_line: 8 * 1024,
            max_header_line: 8 * 1024,
            max_header_count: 64,
            max_body: 4 * 1024 * 1024,
        }
    }
}

/// Everything that can go wrong reading one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed (or stalled past its timeout) mid-request.
    /// There is nobody coherent to answer: close the connection.
    Truncated(&'static str),
    /// Malformed request (`400 Bad Request`).
    Bad(&'static str),
    /// Request line or headers exceed [`Limits`]
    /// (`431 Request Header Fields Too Large`).
    HeadersTooLarge(&'static str),
    /// Body exceeds [`Limits::max_body`] (`413 Content Too Large`).
    BodyTooLarge,
    /// Transport failure other than the above.
    Io(ErrorKind),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Truncated(why) => write!(f, "truncated request: {why}"),
            HttpError::Bad(why) => write!(f, "malformed request: {why}"),
            HttpError::HeadersTooLarge(what) => write!(f, "request too large: {what}"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::Io(kind) => write!(f, "i/o error: {kind}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl HttpError {
    /// The status line to answer with, or `None` when the connection
    /// should just be closed (truncation / transport errors).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Bad(_) => Some((400, "Bad Request")),
            HttpError::HeadersTooLarge(_) => Some((431, "Request Header Fields Too Large")),
            HttpError::BodyTooLarge => Some((413, "Content Too Large")),
            HttpError::Truncated(_) | HttpError::Io(_) => None,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The method token, upper-case (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target (path plus optional `?query`).
    pub target: String,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0`.
    pub http11: bool,
    /// Headers in arrival order, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The (de-chunked) body.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The target's path component (before `?`), percent-decoded per
    /// segment boundary left intact (only the raw path is returned;
    /// use [`percent_decode`] on segments).
    pub fn path(&self) -> &str {
        match self.target.split_once('?') {
            Some((p, _)) => p,
            None => &self.target,
        }
    }

    /// Decoded `key=value` pairs of the query string, in order (a
    /// repeated key keeps every pair; callers take the first).
    pub fn query_params(&self) -> Vec<(String, String)> {
        let Some((_, q)) = self.target.split_once('?') else {
            return Vec::new();
        };
        q.split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| match kv.split_once('=') {
                Some((k, v)) => (percent_decode(k), percent_decode(v)),
                None => (percent_decode(kv), String::new()),
            })
            .collect()
    }

    /// Whether the connection should stay open after this request
    /// (HTTP/1.1 defaults to keep-alive, 1.0 to close; a `Connection`
    /// header overrides either way).
    pub fn keep_alive(&self) -> bool {
        match self.header("connection").map(|v| v.to_ascii_lowercase()) {
            Some(v) if v.split(',').any(|t| t.trim() == "close") => false,
            Some(v) if v.split(',').any(|t| t.trim() == "keep-alive") => true,
            _ => self.http11,
        }
    }
}

/// Percent-decode a URL component (`%41` → `A`, `+` → space). Invalid
/// escapes pass through literally; the result is lossy-UTF-8. Works
/// on raw bytes throughout — a `%` followed by multi-byte UTF-8 (or
/// any non-hex bytes) is attacker-reachable input and must never land
/// on a `&str` slice at a non-character boundary.
pub fn percent_decode(s: &str) -> String {
    fn hex_val(b: u8) -> Option<u8> {
        match b {
            b'0'..=b'9' => Some(b - b'0'),
            b'a'..=b'f' => Some(b - b'a' + 10),
            b'A'..=b'F' => Some(b - b'A' + 10),
            _ => None,
        }
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => match (hex_val(bytes[i + 1]), hex_val(bytes[i + 2])) {
                (Some(hi), Some(lo)) => {
                    out.push(hi << 4 | lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The outcome of waiting for one request on a keep-alive connection.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// The peer closed cleanly between requests — stop reading.
    ClosedIdle,
    /// The read timed out with no request bytes consumed — the
    /// connection is idle; the caller re-checks its shutdown flag and
    /// polls again.
    TimedOutIdle,
}

/// Read one request. Bounded everywhere (see [`Limits`]); supports
/// `Content-Length` and `chunked` bodies and tolerates up to a few
/// blank lines before the request line (clients that send an extra
/// CRLF after a body).
pub fn read_request<R: BufRead>(r: &mut R, limits: &Limits) -> Result<ReadOutcome, HttpError> {
    let mut consumed_any = false;
    // Request line (skipping stray leading CRLFs, bounded).
    let mut line = Vec::new();
    for _ in 0..4 {
        line = match read_line(r, limits.max_request_line, &mut consumed_any)? {
            LineOutcome::Line(l) => l,
            LineOutcome::ClosedIdle => return Ok(ReadOutcome::ClosedIdle),
            LineOutcome::TimedOutIdle => return Ok(ReadOutcome::TimedOutIdle),
        };
        if !line.is_empty() {
            break;
        }
        // A blank line is request progress only in the sense that we
        // consumed bytes; reset so a close after stray CRLFs is still
        // a clean idle close.
        consumed_any = false;
    }
    if line.is_empty() {
        return Err(HttpError::Bad("blank lines where a request line belongs"));
    }
    let line = String::from_utf8(line).map_err(|_| HttpError::Bad("non-UTF-8 request line"))?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => {
            return Err(HttpError::Bad(
                "request line is not `METHOD TARGET VERSION`",
            ))
        }
    };
    if method.is_empty()
        || method.len() > 16
        || !method.bytes().all(|b| b.is_ascii_uppercase() || b == b'-')
    {
        return Err(HttpError::Bad("method is not an upper-case token"));
    }
    if !(target.starts_with('/') || target == "*") {
        return Err(HttpError::Bad("target must start with '/'"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(HttpError::Bad("unsupported HTTP version")),
    };

    // Headers.
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = match read_line(r, limits.max_header_line, &mut consumed_any)? {
            LineOutcome::Line(l) => l,
            _ => return Err(HttpError::Truncated("connection ended inside headers")),
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_header_count {
            return Err(HttpError::HeadersTooLarge("too many headers"));
        }
        headers.push(parse_header(&line)?);
    }

    // Body framing. Both `Transfer-Encoding` and `Content-Length` on
    // one request is the classic smuggling ambiguity: reject it.
    let te = headers.iter().filter(|(n, _)| n == "transfer-encoding");
    let te: Vec<&str> = te.map(|(_, v)| v.as_str()).collect();
    let cl: Vec<&str> = headers
        .iter()
        .filter(|(n, _)| n == "content-length")
        .map(|(_, v)| v.as_str())
        .collect();
    if !te.is_empty() && !cl.is_empty() {
        return Err(HttpError::Bad(
            "both Transfer-Encoding and Content-Length present",
        ));
    }
    let body = if !te.is_empty() {
        if te.len() > 1 || !te[0].eq_ignore_ascii_case("chunked") {
            return Err(HttpError::Bad("unsupported Transfer-Encoding"));
        }
        read_chunked(r, limits, &mut consumed_any)?
    } else if !cl.is_empty() {
        if cl.len() > 1 {
            return Err(HttpError::Bad("duplicate Content-Length"));
        }
        let n = parse_content_length(cl[0])?;
        if n > limits.max_body {
            return Err(HttpError::BodyTooLarge);
        }
        read_exactly(r, n)?
    } else {
        Vec::new()
    };

    Ok(ReadOutcome::Request(Request {
        method: method.to_owned(),
        target: target.to_owned(),
        http11,
        headers,
        body,
    }))
}

fn parse_header(line: &[u8]) -> Result<(String, String), HttpError> {
    let line = std::str::from_utf8(line).map_err(|_| HttpError::Bad("non-UTF-8 header"))?;
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError::Bad("header line without ':'"));
    };
    if name.is_empty()
        || !name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"-_!#$%&'*+.^`|~".contains(&b))
    {
        // Space or control characters in a header name are a folding /
        // smuggling vector, not a header.
        return Err(HttpError::Bad("invalid header name"));
    }
    Ok((name.to_ascii_lowercase(), value.trim().to_owned()))
}

fn parse_content_length(v: &str) -> Result<usize, HttpError> {
    if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
        return Err(HttpError::Bad("Content-Length is not a plain integer"));
    }
    v.parse()
        .map_err(|_| HttpError::Bad("Content-Length overflows"))
}

fn read_chunked<R: BufRead>(
    r: &mut R,
    limits: &Limits,
    consumed_any: &mut bool,
) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let line = match read_line(r, 256, consumed_any)? {
            LineOutcome::Line(l) => l,
            _ => return Err(HttpError::Truncated("connection ended inside chunked body")),
        };
        let line = std::str::from_utf8(&line).map_err(|_| HttpError::Bad("bad chunk size"))?;
        // Chunk extensions (`;name=value`) are allowed and ignored.
        let size_hex = line.split(';').next().unwrap_or("").trim();
        if size_hex.is_empty() || !size_hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(HttpError::Bad("bad chunk size"));
        }
        let size =
            usize::from_str_radix(size_hex, 16).map_err(|_| HttpError::Bad("bad chunk size"))?;
        if size == 0 {
            // Trailers until the blank line, bounded like headers.
            let mut trailers = 0;
            loop {
                let t = match read_line(r, limits.max_header_line, consumed_any)? {
                    LineOutcome::Line(l) => l,
                    _ => return Err(HttpError::Truncated("connection ended inside trailers")),
                };
                if t.is_empty() {
                    return Ok(body);
                }
                trailers += 1;
                if trailers > limits.max_header_count {
                    return Err(HttpError::HeadersTooLarge("too many trailers"));
                }
            }
        }
        if body.len().saturating_add(size) > limits.max_body {
            return Err(HttpError::BodyTooLarge);
        }
        let chunk = read_exactly(r, size)?;
        body.extend_from_slice(&chunk);
        // The CRLF after the chunk data.
        match read_line(r, 2, consumed_any)? {
            LineOutcome::Line(l) if l.is_empty() => {}
            LineOutcome::Line(_) => return Err(HttpError::Bad("chunk data not CRLF-terminated")),
            _ => return Err(HttpError::Truncated("connection ended inside chunked body")),
        }
    }
}

fn read_exactly<R: BufRead>(r: &mut R, n: usize) -> Result<Vec<u8>, HttpError> {
    let mut buf = vec![0u8; n];
    let mut filled = 0;
    while filled < n {
        match r.read(&mut buf[filled..]) {
            Ok(0) => return Err(HttpError::Truncated("connection ended inside body")),
            Ok(k) => filled += k,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(HttpError::Truncated("peer stalled inside body"))
            }
            Err(e) => return Err(HttpError::Io(e.kind())),
        }
    }
    Ok(buf)
}

enum LineOutcome {
    Line(Vec<u8>),
    ClosedIdle,
    TimedOutIdle,
}

/// Read one `\n`-terminated line (CR stripped), at most `max` bytes
/// long. EOF or a read timeout *before any request byte* is an idle
/// outcome; either one mid-line is an error.
fn read_line<R: BufRead>(
    r: &mut R,
    max: usize,
    consumed_any: &mut bool,
) -> Result<LineOutcome, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (take, newline) = {
            let buf = match r.fill_buf() {
                Ok(b) => b,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return if *consumed_any || !line.is_empty() {
                        Err(HttpError::Truncated("peer stalled mid-request"))
                    } else {
                        Ok(LineOutcome::TimedOutIdle)
                    };
                }
                Err(e) => return Err(HttpError::Io(e.kind())),
            };
            if buf.is_empty() {
                return if *consumed_any || !line.is_empty() {
                    Err(HttpError::Truncated("connection closed mid-request"))
                } else {
                    Ok(LineOutcome::ClosedIdle)
                };
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    if line.len() + i > max {
                        return Err(HttpError::HeadersTooLarge("line exceeds cap"));
                    }
                    line.extend_from_slice(&buf[..i]);
                    (i + 1, true)
                }
                None => {
                    if line.len() + buf.len() > max {
                        return Err(HttpError::HeadersTooLarge("line exceeds cap"));
                    }
                    line.extend_from_slice(buf);
                    (buf.len(), false)
                }
            }
        };
        r.consume(take);
        *consumed_any = true;
        if newline {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(LineOutcome::Line(line));
        }
    }
}

/// Pending body bytes at which [`ChunkedWriter`] emits a frame: large
/// enough that a streamed result costs a handful of writes (and
/// packets) instead of several per piece, small enough to bound what
/// sits in memory between emissions.
pub const CHUNK_BYTES: usize = 16 * 1024;

/// Append a status line and the common headers (everything but the
/// blank line that ends the head).
fn head(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    framing: std::fmt::Arguments<'_>,
    keep_alive: bool,
) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // Writing into a `Vec` cannot fail.
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n{framing}\r\nConnection: {connection}\r\n",
    );
}

/// Write a complete response with `Content-Length` framing. Head and
/// body are assembled in one buffer and leave in a single `write_all`
/// plus `flush` — one segment on a `TCP_NODELAY` socket, not one per
/// header line.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(160 + body.len());
    let length = format_args!("Content-Length: {}", body.len());
    head(&mut out, status, reason, content_type, length, keep_alive);
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    w.write_all(&out)?;
    w.flush()
}

/// An incremental `Transfer-Encoding: chunked` response body that
/// **coalesces**: [`chunk`](ChunkedWriter::chunk) only appends to a
/// pending buffer, and a frame goes out once [`CHUNK_BYTES`] are
/// pending. [`flush`](ChunkedWriter::flush) sends what is pending now
/// (a streaming writer calls it after its first piece, to keep the
/// time to first byte), and [`finish`](ChunkedWriter::finish) sends
/// the rest together with the terminal chunk. The head is held back
/// until the first emission, so a writer that fails before it can
/// still [abandon](ChunkedWriter::into_inner) the response and send a
/// clean error status instead. Every emission is one `write_all`.
pub struct ChunkedWriter<'a, W: Write> {
    w: &'a mut W,
    /// Bytes ready for the wire: the head until the first emission,
    /// then the frame being assembled.
    out: Vec<u8>,
    /// Body bytes not yet framed.
    pending: Vec<u8>,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Start a response: the status line and headers are buffered and
    /// go out with the first emitted frame.
    pub fn begin(
        w: &'a mut W,
        status: u16,
        reason: &str,
        content_type: &str,
        keep_alive: bool,
    ) -> std::io::Result<Self> {
        let mut out = Vec::new();
        let framing = format_args!("Transfer-Encoding: chunked");
        head(&mut out, status, reason, content_type, framing, keep_alive);
        out.extend_from_slice(b"\r\n");
        Ok(ChunkedWriter {
            w,
            out,
            pending: Vec::new(),
        })
    }

    /// Append `data` to the body; a frame goes out once
    /// [`CHUNK_BYTES`] are pending.
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.chunk_with(|pending| pending.extend_from_slice(data))
    }

    /// Append to the body by rendering straight into the pending
    /// buffer (no intermediate copy); a frame goes out once
    /// [`CHUNK_BYTES`] are pending.
    pub fn chunk_with(&mut self, render: impl FnOnce(&mut Vec<u8>)) -> std::io::Result<()> {
        render(&mut self.pending);
        if self.pending.len() >= CHUNK_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Send everything pending (the head too, the first time) and
    /// flush the underlying writer.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.frame();
        if !self.out.is_empty() {
            self.w.write_all(&self.out)?;
            self.out.clear();
        }
        self.w.flush()
    }

    /// Send the rest of the body and the terminal zero chunk.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.frame();
        self.out.extend_from_slice(b"0\r\n\r\n");
        self.w.write_all(&self.out)?;
        self.w.flush()
    }

    /// Abandon the response, discarding everything not yet emitted,
    /// and hand back the writer. Only a response that has emitted
    /// nothing (no [`flush`](Self::flush), fewer than [`CHUNK_BYTES`]
    /// appended) can be replaced by another one this way.
    pub fn into_inner(self) -> &'a mut W {
        self.w
    }

    /// Move the pending body into `out` as one chunk (an empty body is
    /// skipped: a zero-length chunk would terminate the body).
    fn frame(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let _ = write!(self.out, "{:x}\r\n", self.pending.len());
        self.out.extend_from_slice(&self.pending);
        self.out.extend_from_slice(b"\r\n");
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<ReadOutcome, HttpError> {
        read_request(&mut Cursor::new(bytes.to_vec()), &Limits::default())
    }

    fn req(bytes: &[u8]) -> Request {
        match parse(bytes).expect("parses") {
            ReadOutcome::Request(r) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_simple_get() {
        let r = req(b"GET /health?x=1&y=a%20b HTTP/1.1\r\nHost: h\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path(), "/health");
        assert_eq!(
            r.query_params(),
            vec![("x".into(), "1".into()), ("y".into(), "a b".into())]
        );
        assert!(r.keep_alive());
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_content_length_and_chunked_bodies_identically() {
        let a = req(b"POST /eval HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        let b = req(b"POST /eval HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nhel\r\n2\r\nlo\r\n0\r\n\r\n");
        assert_eq!(a.body, b"hello");
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn connection_header_overrides_keep_alive_defaults() {
        assert!(!req(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive());
        assert!(req(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive());
        assert!(!req(b"GET / HTTP/1.0\r\n\r\n").keep_alive());
    }

    #[test]
    fn smuggling_shapes_are_rejected() {
        for bytes in [
            &b"POST / HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\nabc"[..],
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
            b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Header: v\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bytes), Err(HttpError::Bad(_))),
                "{:?}",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    /// Records every `write` call and how many bytes each `flush`
    /// pushed out.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        writes: usize,
        flushed: usize,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.flushed = self.bytes.len();
            Ok(())
        }
    }

    #[test]
    fn a_response_leaves_in_one_write() {
        let mut w = Recorder::default();
        write_response(
            &mut w,
            503,
            "Service Unavailable",
            "application/json",
            b"{}\n",
            false,
            &[("Retry-After", "1"), ("X-Extra", "y")],
        )
        .unwrap();
        assert_eq!(w.writes, 1, "head and body in one write");
        assert_eq!(w.flushed, w.bytes.len());
        assert_eq!(
            std::str::from_utf8(&w.bytes).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 3\r\nConnection: close\r\nRetry-After: 1\r\nX-Extra: y\r\n\r\n{}\n"
        );
    }

    #[test]
    fn chunked_writes_coalesce_up_to_the_threshold() {
        let mut w = Recorder::default();
        let mut cw = ChunkedWriter::begin(&mut w, 200, "OK", "text/plain", true).unwrap();
        // Nothing goes out below the threshold — not even the head.
        let piece = [b'x'; 100];
        let below = (CHUNK_BYTES - 1) / piece.len();
        for _ in 0..below {
            cw.chunk(&piece).unwrap();
        }
        cw.chunk(b"").unwrap();
        assert_eq!(cw.w.writes, 0);
        // The piece that crosses it emits head and one frame together.
        cw.chunk(&piece).unwrap();
        let framed = (below + 1) * piece.len();
        assert_eq!(cw.w.writes, 1);
        assert_eq!(cw.w.flushed, cw.w.bytes.len());
        let head = "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n\
                    Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n";
        let frame = format!("{framed:x}\r\n");
        assert!(cw.w.bytes.starts_with(format!("{head}{frame}").as_bytes()));
        // `flush` sends what is pending now; `finish` the rest and the
        // terminal chunk, each in one write.
        cw.chunk(b"abc").unwrap();
        cw.flush().unwrap();
        assert_eq!(cw.w.writes, 2);
        assert!(cw.w.bytes.ends_with(b"3\r\nabc\r\n"));
        cw.chunk(b"de").unwrap();
        cw.finish().unwrap();
        assert_eq!(w.writes, 3);
        assert!(w.bytes.ends_with(b"2\r\nde\r\n0\r\n\r\n"));
        assert_eq!(w.flushed, w.bytes.len());
    }

    #[test]
    fn percent_decoding_is_total() {
        assert_eq!(percent_decode("a%2Fb+c"), "a/b c");
        assert_eq!(percent_decode("%zz%"), "%zz%");
        assert_eq!(percent_decode("%e4%b8%ad"), "中");
    }

    #[test]
    fn percent_decoding_never_slices_multibyte_utf8() {
        // A '%' directly followed by multi-byte UTF-8 used to slice the
        // &str at a non-character boundary and panic — remotely
        // reachable from any request target (`GET /?handle=%中`).
        assert_eq!(percent_decode("%中"), "%中");
        assert_eq!(percent_decode("%4中"), "%4中");
        assert_eq!(percent_decode("中%41中"), "中A中");
        assert_eq!(percent_decode("%\u{10348}"), "%\u{10348}");
        assert_eq!(percent_decode("%%e4%b8%ad"), "%中");
    }
}
