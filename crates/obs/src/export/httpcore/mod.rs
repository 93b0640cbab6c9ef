//! The one hand-rolled HTTP/1.1 layer of the workspace.
//!
//! Every network surface — the observability exporter
//! ([`super::http::ObsServer`]), the forecast server (`fdc-serve`) and
//! the routing tier (`fdc-router`) — speaks the same deliberately tiny
//! slice of HTTP/1.1: explicit `Content-Length` bodies in both
//! directions, no chunked transfer encoding, and **persistent
//! connections**. Sharing the layer here means the servers cannot drift
//! apart in how they parse a request line, fold headers, bound a body
//! or decide when a connection ends. Three parts:
//!
//! * this module — the request reader and response writer;
//! * [`server`] — the bounded connection queue and worker loop behind
//!   `fdc-serve` and `fdc-router`;
//! * [`client`] — the one HTTP client (router → shard hops, the
//!   follower's `/wal/fetch` loop, tests and load generators).
//!
//! ## Persistence rules
//!
//! * A request is persistent unless it says `Connection: close` or is
//!   HTTP/1.0 without `Connection: keep-alive` ([`Request::persistent`]).
//! * A response carries `Connection: close` **only when the server is
//!   going to close** after it ([`write_reply`]); without the header the
//!   connection stays open for the next request.
//! * A clean EOF before the first byte of a request is
//!   [`RequestError::Closed`], a read timeout there is
//!   [`RequestError::Idle`] — the ordinary ends of a kept-alive
//!   connection, not malformed traffic.
//! * A server that closes a connection the client was not told about —
//!   an idle one given up for a queued connection or at shutdown — first
//!   writes the [`CLOSE_NOTICE`]. A request that crosses the close is
//!   then known not to have been read, and [`client`] sends it again.
//! * Bytes read past one request's `Content-Length` belong to the next
//!   request: a [`RequestReader`] lives as long as its connection and
//!   keeps them.
//! * Head and body leave in **one** write on a `TCP_NODELAY` socket.
//!   Two writes on a kept-open socket meet Nagle's algorithm and the
//!   peer's delayed ACK — a 40 ms stall per response that closing the
//!   socket after every response used to hide.
//!
//! [`read_request`] and [`write_response`] are the one-request forms:
//! the first forgets what it read past the request, the second always
//! announces `Connection: close`. `ObsServer` is built on them and stays
//! one request per connection, saying so on the wire.
//!
//! The surface is small enough that parsing by hand is simpler and
//! safer than a dependency: read until the blank line, split the
//! request line, lower-case header names, then read exactly
//! `Content-Length` more bytes (bounded by the caller's `max_body`).

pub mod client;
pub mod server;

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on a request or response head (first line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Status of the *close notice*: the bodiless `Connection: close`
/// response a server writes, unasked, on an idle kept-alive connection it
/// gives up ([`server`]), and nowhere else. It has read nothing of a next
/// request and will not, so a client that finds the notice where it
/// expected its response may repeat the request on a new connection —
/// whatever the request is (RFC 9110 §15.5.9).
pub const CLOSE_NOTICE: u16 = 408;

/// A parsed HTTP/1.1 request: the request line, lower-cased header
/// names, and the raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, …).
    pub method: String,
    /// The raw request target, e.g. `/events?n=10`.
    pub target: String,
    /// Headers in arrival order; names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client expects the connection to stay open after the
    /// response: HTTP/1.1 without `Connection: close`, or HTTP/1.0 with
    /// `Connection: keep-alive`.
    pub persistent: bool,
}

impl Request {
    /// First value of the header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The target split into `(path, query)`; the query is `""` when
    /// the target carries none.
    pub fn path_query(&self) -> (&str, &str) {
        split_target(&self.target)
    }

    /// The caller's [`TraceContext`](crate::trace::TraceContext), parsed from the `traceparent`
    /// header. `None` when the header is absent *or malformed* — a bad
    /// caller gets a fresh root trace, never an error.
    pub fn trace_context(&self) -> Option<crate::trace::TraceContext> {
        crate::trace::TraceContext::parse_traceparent(
            self.header(crate::trace::TRACEPARENT_HEADER)?,
        )
    }
}

/// Splits a request target into `(path, query)`.
pub fn split_target(target: &str) -> (&str, &str) {
    match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    }
}

/// Errors a request read can fail with — mapped to a status code by the
/// caller so the two servers can answer malformed traffic uniformly.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed the connection cleanly before the first byte of
    /// a request — how a kept-alive connection normally ends.
    Closed,
    /// The read timeout passed before the first byte of a request — an
    /// idle kept-alive connection, reaped silently.
    Idle,
    /// Socket-level failure (timeout mid-request, reset).
    Io(std::io::Error),
    /// The request line or headers were not parseable HTTP/1.1.
    Malformed(&'static str),
    /// The declared `Content-Length` exceeds the caller's bound.
    BodyTooLarge(usize),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Closed => write!(f, "connection closed"),
            RequestError::Idle => write!(f, "connection idle"),
            RequestError::Io(e) => write!(f, "i/o error: {e}"),
            RequestError::Malformed(m) => write!(f, "malformed request: {m}"),
            RequestError::BodyTooLarge(n) => write!(f, "body of {n} bytes exceeds the limit"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<std::io::Error> for RequestError {
    fn from(e: std::io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// Reads the requests of one connection, one after the other. Bytes
/// that arrived past the end of a request (a pipelining client, or two
/// requests in one segment) are kept for the next request.
#[derive(Debug, Default)]
pub struct RequestReader {
    /// Bytes read from the socket and not yet consumed by a request.
    buf: Vec<u8>,
}

impl RequestReader {
    /// A reader with nothing buffered, for a fresh connection.
    pub fn new() -> Self {
        RequestReader::default()
    }

    /// Whether bytes of a following request are already here — the
    /// connection is not idle, whatever the socket says.
    pub fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Reads the next request: the head up to the blank line, then
    /// exactly `Content-Length` body bytes (rejected beyond `max_body`).
    /// `timeout` bounds every socket read. After an error the
    /// connection is out of step and must be closed.
    pub fn read(
        &mut self,
        stream: &mut TcpStream,
        max_body: usize,
        timeout: Duration,
    ) -> Result<Request, RequestError> {
        self.wait(stream, timeout)?;
        self.finish(stream, max_body)
    }

    /// Waits until the first byte of the next request is buffered: the
    /// part of a read during which a kept-alive connection is *idle*.
    /// Ends with [`RequestError::Closed`] or [`RequestError::Idle`] when
    /// no request is coming. Sets the read timeout [`Self::finish`] runs
    /// under.
    fn wait(&mut self, stream: &mut TcpStream, timeout: Duration) -> Result<(), RequestError> {
        stream.set_read_timeout(Some(timeout))?;
        if !self.buf.is_empty() {
            return Ok(());
        }
        let mut chunk = [0u8; 4096];
        match stream.read(&mut chunk) {
            Ok(0) => Err(RequestError::Closed),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err(RequestError::Idle)
            }
            Err(e) => Err(RequestError::Io(e)),
        }
    }

    /// Reads the rest of a request that [`Self::wait`] saw begin, from
    /// `source` — the connection itself, or a wrapper around it.
    fn finish(&mut self, source: &mut impl Read, max_body: usize) -> Result<Request, RequestError> {
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(pos) = find_head_end(&self.buf) {
                break pos;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(RequestError::Malformed("request head too large"));
            }
            match source.read(&mut chunk)? {
                0 => return Err(RequestError::Malformed("connection closed mid-head")),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let mut request = parse_head(&self.buf[..head_end])?;
        let content_length = request
            .header("content-length")
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| RequestError::Malformed("unparseable content-length"))
            })
            .transpose()?
            .unwrap_or(0);
        if content_length > max_body {
            return Err(RequestError::BodyTooLarge(content_length));
        }
        let body_start = head_end + 4;
        let buffered = self.buf.len() - body_start;
        request.body = if buffered >= content_length {
            let body = self.buf[body_start..body_start + content_length].to_vec();
            self.buf.drain(..body_start + content_length);
            body
        } else {
            let mut body = Vec::with_capacity(content_length);
            body.extend_from_slice(&self.buf[body_start..]);
            self.buf.clear();
            body.resize(content_length, 0);
            source
                .read_exact(&mut body[buffered..])
                .map_err(|e| match e.kind() {
                    ErrorKind::UnexpectedEof => {
                        RequestError::Malformed("connection closed mid-body")
                    }
                    _ => RequestError::Io(e),
                })?;
            body
        };
        Ok(request)
    }
}

/// Reads one HTTP/1.1 request from `stream`: the head up to the blank
/// line, then exactly `Content-Length` body bytes (rejected beyond
/// `max_body`). `timeout` bounds every socket read. Whatever arrived
/// past the request is dropped — a connection that serves more than one
/// request keeps a [`RequestReader`] instead.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    timeout: Duration,
) -> Result<Request, RequestError> {
    RequestReader::new().read(stream, max_body, timeout)
}

/// Parses the request line and headers of a head (terminator
/// excluded) into a [`Request`] whose body is still to be read.
fn parse_head(head: &[u8]) -> Result<Request, RequestError> {
    let head = String::from_utf8_lossy(head);
    let mut lines = head.lines();
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let method = parts
        .next()
        .ok_or(RequestError::Malformed("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(RequestError::Malformed("request line has no target"))?
        .to_string();
    let http10 = parts
        .next()
        .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.0"));
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RequestError::Malformed("header line without a colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let connection_says = |token: &str| {
        headers
            .iter()
            .filter(|(n, _)| n == "connection")
            .flat_map(|(_, v)| v.split(','))
            .any(|t| t.trim().eq_ignore_ascii_case(token))
    };
    let persistent = if http10 {
        connection_says("keep-alive")
    } else {
        !connection_says("close")
    };
    Ok(Request {
        method,
        target,
        headers,
        body: Vec::new(),
        persistent,
    })
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The status line tail of the codes the forecast server and the
/// router answer with (anything else reads as a `500`).
pub fn status_line(status: u16) -> &'static str {
    match status {
        200 => "200 OK",
        202 => "202 Accepted",
        400 => "400 Bad Request",
        404 => "404 Not Found",
        405 => "405 Method Not Allowed",
        408 => "408 Request Timeout",
        409 => "409 Conflict",
        410 => "410 Gone",
        413 => "413 Payload Too Large",
        421 => "421 Misdirected Request",
        429 => "429 Too Many Requests",
        502 => "502 Bad Gateway",
        503 => "503 Service Unavailable",
        _ => "500 Internal Server Error",
    }
}

/// Writes a complete HTTP/1.1 response that ends the connection: it
/// says `Connection: close`, and the caller closes after it.
/// `Content-Type`/`Content-Length` and any `extra_headers` ride along.
/// `status` is the full status line tail, e.g. `"200 OK"`.
pub fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<()> {
    write_reply(
        stream,
        status,
        content_type,
        body.as_bytes(),
        extra_headers,
        true,
    )
}

/// Writes a complete HTTP/1.1 response, head and body in **one** write
/// (see the module docs for why). `close` says whether the server closes
/// the connection after this response; only then does the response carry
/// `Connection: close`.
pub fn write_reply(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
    close: bool,
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(256 + body.len());
    write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    )?;
    if close {
        out.extend_from_slice(b"Connection: close\r\n");
    }
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    stream.write_all(&out)
}

/// Closes a connection whose request was *not* fully read, without
/// destroying the response: closing with unread bytes in the receive
/// buffer sends an RST that discards the client's buffered response, so
/// after writing the response we half-close and drain whatever the
/// client sent (bounded in bytes and time) before dropping the socket.
pub fn close_unread(mut stream: TcpStream, timeout: Duration) {
    stream.shutdown(std::net::Shutdown::Write).ok();
    stream.set_read_timeout(Some(timeout)).ok();
    let mut buf = [0u8; 8192];
    let mut total = 0usize;
    while let Ok(n) = stream.read(&mut buf) {
        if n == 0 {
            break;
        }
        total += n;
        if total > (4 << 20) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, TcpListener};

    /// Round-trips raw request bytes through a real socket pair.
    fn parse(raw: &[u8]) -> Result<Request, RequestError> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            // Keep the write half open until the reader is done parsing;
            // shutdown would race a reader still waiting on body bytes.
            s
        });
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request(&mut stream, 4096, Duration::from_millis(500));
        drop(writer.join().unwrap());
        result
    }

    #[test]
    fn parses_request_with_body() {
        let req = parse(
            b"POST /insert?sync=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/insert?sync=1");
        assert_eq!(req.path_query(), ("/insert", "sync=1"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("Content-Length"), Some("11"));
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/metrics");
        assert!(req.body.is_empty());
        assert_eq!(req.path_query(), ("/metrics", ""));
    }

    #[test]
    fn rejects_oversized_body() {
        let err = parse(b"POST /q HTTP/1.1\r\nContent-Length: 100000\r\n\r\n").unwrap_err();
        assert!(matches!(err, RequestError::BodyTooLarge(100000)), "{err}");
    }

    #[test]
    fn rejects_malformed_head() {
        assert!(matches!(
            parse(b"\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn split_target_handles_bare_paths() {
        assert_eq!(split_target("/a/b"), ("/a/b", ""));
        assert_eq!(split_target("/a?x=1&y=2"), ("/a", "x=1&y=2"));
    }

    #[test]
    fn trace_context_parses_valid_and_ignores_malformed() {
        let good = parse(
            b"GET /q HTTP/1.1\r\ntraceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01\r\n\r\n",
        )
        .unwrap();
        let ctx = good.trace_context().unwrap();
        assert_eq!(ctx.trace_id, 0x4bf9_2f35_77b3_4da6_a3ce_929d_0e0e_4736);
        assert!(ctx.sampled);
        let bad = parse(b"GET /q HTTP/1.1\r\ntraceparent: junk-header\r\n\r\n").unwrap();
        assert_eq!(bad.trace_context(), None);
        let none = parse(b"GET /q HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(none.trace_context(), None);
    }
}
