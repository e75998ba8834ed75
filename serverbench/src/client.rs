//! A keep-alive HTTP/1.1 client that reads through a buffered reader,
//! so that the client costs a few syscalls per response rather than
//! one per header byte.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One completed round trip.
pub struct Reply {
    pub status: u16,
    /// Request written → end of the first body chunk (the whole body
    /// for `Content-Length` responses), in nanoseconds.
    pub ttfb_ns: u64,
    /// Request written → last body byte, in nanoseconds.
    pub total_ns: u64,
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
    body: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::with_capacity(64 * 1024, writer.try_clone()?),
            writer,
            line: Vec::new(),
            body: Vec::new(),
        })
    }

    /// The de-chunked body of the last reply.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    fn read_line(&mut self) -> io::Result<&[u8]> {
        self.line.clear();
        if self.reader.read_until(b'\n', &mut self.line)? == 0 {
            return Err(bad("connection closed"));
        }
        while matches!(self.line.last(), Some(b'\n' | b'\r')) {
            self.line.pop();
        }
        Ok(&self.line)
    }

    /// Send one complete request and read its whole response.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.writer.write_all(request)?;
        let start = Instant::now();
        let status_line = self.read_line()?;
        let status = std::str::from_utf8(status_line)
            .ok()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut chunked = false;
        let mut length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let line = String::from_utf8_lossy(line).to_ascii_lowercase();
            if let Some(v) = line.strip_prefix("content-length:") {
                length = v.trim().parse().map_err(|_| bad("bad content-length"))?;
            } else if line.starts_with("transfer-encoding:") && line.ends_with("chunked") {
                chunked = true;
            }
        }
        self.body.clear();
        let mut ttfb_ns = None;
        if chunked {
            loop {
                let size_line = self.read_line()?;
                let size = std::str::from_utf8(size_line)
                    .ok()
                    .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
                    .ok_or_else(|| bad("bad chunk size"))?;
                if size == 0 {
                    if !self.read_line()?.is_empty() {
                        return Err(bad("trailers are not expected"));
                    }
                    break;
                }
                let at = self.body.len();
                self.body.resize(at + size, 0);
                self.reader.read_exact(&mut self.body[at..])?;
                if !self.read_line()?.is_empty() {
                    return Err(bad("chunk not CRLF-terminated"));
                }
                ttfb_ns.get_or_insert_with(|| nanos(start));
            }
        } else {
            self.body.resize(length, 0);
            self.reader.read_exact(&mut self.body)?;
        }
        let total_ns = nanos(start);
        Ok(Reply {
            status,
            ttfb_ns: ttfb_ns.unwrap_or(total_ns),
            total_ns,
        })
    }
}

fn nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// FNV-1a 64 of a response body: the timed run keeps only this and the
/// length per operation, and the reference bodies are compared to it.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}
