//! The one HTTP/1.1 client of the workspace: `Content-Length` framing in
//! both directions, `TCP_NODELAY`, one write per request, and a small
//! per-address pool of idle connections.
//!
//! Router → shard hops (`/plan`, `/query`, `/insert`, `/sketch`), the
//! follower's `/wal/fetch` loop, the integration tests and the load
//! generators all go through it, so none of them pays a connect, an
//! accept and a worker hand-off per call. A caller that wants the old
//! one-request connection — the router's health prober, which must also
//! prove the accept path — uses [`send_once`], which is simply a request
//! that says `Connection: close`.
//!
//! ## Reuse rules
//!
//! * A pooled socket is checked before reuse with a non-blocking `peek`:
//!   end-of-stream, an error or unexpected bytes mean the server gave the
//!   connection up (idle reap, restart) — it is discarded and a fresh
//!   connection made ([`Pooled::Stale`]).
//! * A reused socket that answers with the server's close notice
//!   ([`CLOSE_NOTICE`]: it gave the idle connection up as the request was
//!   on its way, and read none of it) has the request sent again on a
//!   fresh connection — **any** request, since none of it was taken.
//! * A request that dies on a **reused** socket before any response byte
//!   — the server closed between the check and the write — is sent once
//!   more on a fresh connection, *if* the caller marked it
//!   [`Outgoing::replay`]. A write that may already have been applied
//!   (`POST /insert`) is never replayed: the error goes to the caller.
//!   Timeouts are never retried; a slow server is not a gone one.
//! * When a trace context is active on the calling thread it rides along
//!   as a W3C `traceparent` header, so the callee's request span joins
//!   the caller's trace.

use super::CLOSE_NOTICE;
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

/// Upper bound on a response body (a ship chunk is at most 4 MB).
const MAX_BODY_BYTES: usize = 64 << 20;
/// Idle connections kept per address; one more is closed instead.
const MAX_IDLE_PER_ADDR: usize = 8;

/// One request to send.
#[derive(Debug, Clone, Copy)]
pub struct Outgoing<'a> {
    /// Method token, e.g. `"POST"`.
    pub method: &'a str,
    /// Request target, e.g. `"/query"`.
    pub path: &'a str,
    /// Extra request headers.
    pub headers: &'a [(&'a str, &'a str)],
    /// The body (`Content-Type: application/json`); may be empty.
    pub body: &'a [u8],
    /// Whether the request may be sent a second time when a reused
    /// connection turns out dead before any response byte. `false` for
    /// writes the server may already have applied.
    pub replay: bool,
}

impl<'a> Outgoing<'a> {
    /// A replayable request without extra headers.
    pub fn new(method: &'a str, path: &'a str, body: &'a [u8]) -> Self {
        Outgoing {
            method,
            path,
            headers: &[],
            body,
            replay: true,
        }
    }
}

/// How a [`Client`] came by the connection a response arrived on — the
/// `outcome` label of `router.pool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pooled {
    /// An idle pooled connection was reused.
    Hit,
    /// Nothing was pooled for the address: a fresh connect.
    Miss,
    /// A pooled connection turned out dead and was replaced.
    Stale,
}

impl Pooled {
    /// Every outcome, in the order `/stats` lists them.
    pub const ALL: [Pooled; 3] = [Pooled::Hit, Pooled::Miss, Pooled::Stale];

    /// The metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            Pooled::Hit => "hit",
            Pooled::Miss => "miss",
            Pooled::Stale => "stale",
        }
    }
}

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Exactly `Content-Length` body bytes.
    pub body: Vec<u8>,
    /// Where the connection came from ([`Pooled::Miss`] for [`send_once`]).
    pub pooled: Pooled,
}

impl Response {
    /// First header with the given name (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossless for the JSON routes).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive client with a per-address pool of idle connections.
/// Shareable between threads: a connection is out of the pool while a
/// request is in flight on it.
#[derive(Debug)]
pub struct Client {
    timeout: Duration,
    idle: Mutex<HashMap<String, Vec<TcpStream>>>,
}

impl Client {
    /// A client whose every connect, read and write is bounded by
    /// `timeout`.
    pub fn new(timeout: Duration) -> Client {
        Client {
            timeout,
            idle: Mutex::new(HashMap::new()),
        }
    }

    /// Sends `request` to `addr` (`host:port`) on a pooled connection
    /// when a live one exists, and keeps the connection for the next
    /// call unless either side said `Connection: close`.
    pub fn send(&self, addr: &str, request: &Outgoing<'_>) -> io::Result<Response> {
        let (mut stream, mut pooled) = match self.checkout(addr) {
            Ok(stream) => (stream, Pooled::Hit),
            Err(fresh) => (connect(addr, self.timeout)?, fresh),
        };
        loop {
            let mut answered = false;
            match exchange(&mut stream, addr, request, false, &mut answered) {
                Ok((response, _)) if response.status == CLOSE_NOTICE && pooled == Pooled::Hit => {
                    // Not an answer: the server gave the idle connection
                    // up and read nothing of this request, so any
                    // request, replayable or not, goes out again.
                    stream = connect(addr, self.timeout)?;
                    pooled = Pooled::Stale;
                }
                Ok((mut response, keep)) => {
                    response.pooled = pooled;
                    if keep {
                        self.checkin(addr, stream);
                    }
                    return Ok(response);
                }
                Err(e) if pooled == Pooled::Hit && request.replay && !answered && peer_gone(&e) => {
                    // The server let go of the idle connection after the
                    // liveness check; nothing of this request was
                    // answered, so it is safe to send again.
                    stream = connect(addr, self.timeout)?;
                    pooled = Pooled::Stale;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Pops idle connections to `addr` until a live one turns up. `Err`
    /// says what the fresh connection the caller now makes counts as:
    /// [`Pooled::Stale`] when a dead one was discarded on the way.
    fn checkout(&self, addr: &str) -> Result<TcpStream, Pooled> {
        let mut fresh = Pooled::Miss;
        loop {
            let candidate = self
                .idle
                .lock()
                .expect("no client panics holding the pool")
                .get_mut(addr)
                .and_then(Vec::pop);
            match candidate {
                Some(stream) if is_live(&stream) => return Ok(stream),
                Some(_) => fresh = Pooled::Stale,
                None => return Err(fresh),
            }
        }
    }

    fn checkin(&self, addr: &str, stream: TcpStream) {
        let mut idle = self.idle.lock().expect("no client panics holding the pool");
        let slot = match idle.get_mut(addr) {
            Some(slot) => slot,
            None => idle.entry(addr.to_string()).or_default(),
        };
        if slot.len() < MAX_IDLE_PER_ADDR {
            slot.push(stream);
        }
    }
}

/// One request over a fresh connection that says `Connection: close`:
/// connect → accept → one request → close, on purpose.
pub fn send_once(addr: &str, request: &Outgoing<'_>, timeout: Duration) -> io::Result<Response> {
    let mut stream = connect(addr, timeout)?;
    exchange(&mut stream, addr, request, true, &mut false).map(|(response, _)| response)
}

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| invalid("address resolves to nothing"))?;
    let stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(stream)
}

/// Whether an idle pooled socket is still open with nothing to read:
/// a non-blocking `peek` must find no data *and* no end-of-stream.
fn is_live(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let quiet = matches!(stream.peek(&mut [0u8; 1]), Err(e) if e.kind() == ErrorKind::WouldBlock);
    quiet && stream.set_nonblocking(false).is_ok()
}

/// Whether `e` says the peer is gone (as opposed to slow).
fn peer_gone(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
    )
}

/// Sends `request` on `stream` and reads the response; `Ok` carries it
/// and whether the connection may be reused. `answered` is set once the
/// first response byte is in: a peer found gone before that has not
/// answered this request.
fn exchange(
    stream: &mut TcpStream,
    addr: &str,
    request: &Outgoing<'_>,
    close: bool,
    answered: &mut bool,
) -> io::Result<(Response, bool)> {
    let mut head = format!(
        "{} {} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        request.method,
        request.path,
        request.body.len()
    );
    let mut header = |name: &str, value: &str| {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    };
    if let Some(ctx) = crate::trace::current() {
        header(crate::trace::TRACEPARENT_HEADER, &ctx.traceparent());
    }
    for (name, value) in request.headers {
        header(name, value);
    }
    if close {
        header("Connection", "close");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(request.body);
    // A peer that closed while the request was on its way may have left
    // its close notice behind: what was received before the reset can
    // still be read, so a write that finds the peer gone reads on, and
    // stays the error only if no response is there.
    let unsent = match stream.write_all(&out) {
        Err(e) if peer_gone(&e) => Some(e),
        wrote => wrote.map(|()| None)?,
    };

    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = super::find_head_end(&buf) {
            break pos;
        }
        if buf.len() > super::MAX_HEAD_BYTES {
            return Err(invalid("response head too large"));
        }
        let n = match stream.read(&mut chunk) {
            Ok(n) if n > 0 => n,
            read => {
                if let Some(unsent) = unsent {
                    return Err(unsent);
                }
                read?;
                return Err(io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-head",
                ));
            }
        };
        *answered = true;
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.lines();
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| invalid("response has no parseable status"))?;
    let headers = lines
        .filter_map(|l| {
            let (n, v) = l.split_once(':')?;
            Some((n.trim().to_ascii_lowercase(), v.trim().to_string()))
        })
        .collect();
    let mut response = Response {
        status,
        headers,
        body: buf.split_off(head_end + 4),
        pooled: Pooled::Miss,
    };
    let content_length = response
        .header("content-length")
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| invalid("response without a Content-Length"))?;
    if content_length > MAX_BODY_BYTES {
        return Err(invalid("response body too large"));
    }
    // Bytes past the body are something the server said unasked — its
    // close notice, in the same segment. The response stands; the
    // connection is not kept.
    let have = response.body.len().min(content_length);
    let unasked = response.body.len() > content_length;
    response.body.resize(content_length, 0);
    stream.read_exact(&mut response.body[have..])?;
    let says_close = response
        .header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
    Ok((response, !close && !says_close && !unasked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, TcpListener};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    const TIMEOUT: Duration = Duration::from_secs(5);

    /// What the scripted server does after answering a request.
    #[derive(Clone, Copy)]
    enum Then {
        /// Keep the connection open for the next request.
        Keep,
        /// Close without having announced it — an idle reap or a restart.
        CloseSilently,
    }

    /// A server that answers request `i` with body `i` and then follows
    /// `script[i]`; counts accepted connections and the requests it read.
    fn scripted(script: Vec<Then>) -> (String, Arc<AtomicUsize>, Arc<AtomicUsize>) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepts = Arc::new(AtomicUsize::new(0));
        let requests = Arc::new(AtomicUsize::new(0));
        let (a, r) = (Arc::clone(&accepts), Arc::clone(&requests));
        std::thread::spawn(move || {
            let mut served = 0;
            while served < script.len() {
                let (mut stream, _) = listener.accept().unwrap();
                a.fetch_add(1, Ordering::SeqCst);
                let mut reader = crate::httpcore::RequestReader::new();
                while served < script.len() {
                    if reader.read(&mut stream, 1 << 20, TIMEOUT).is_err() {
                        break;
                    }
                    r.fetch_add(1, Ordering::SeqCst);
                    let body = served.to_string();
                    crate::httpcore::write_reply(
                        &mut stream,
                        "200 OK",
                        "text/plain",
                        body.as_bytes(),
                        &[],
                        false,
                    )
                    .unwrap();
                    served += 1;
                    if matches!(script[served - 1], Then::CloseSilently) {
                        break;
                    }
                }
            }
        });
        (addr, accepts, requests)
    }

    #[test]
    fn one_connection_carries_many_requests() {
        let (addr, accepts, _) = scripted(vec![Then::Keep; 3]);
        let client = Client::new(TIMEOUT);
        let outcomes: Vec<Pooled> = (0..3)
            .map(|i| {
                let r = client
                    .send(&addr, &Outgoing::new("POST", "/q", b"{}"))
                    .unwrap();
                assert_eq!((r.status, r.text()), (200, i.to_string()));
                r.pooled
            })
            .collect();
        assert_eq!(outcomes, [Pooled::Miss, Pooled::Hit, Pooled::Hit]);
        assert_eq!(accepts.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_silently_closed_connection_is_replaced_before_the_next_request() {
        let (addr, accepts, requests) = scripted(vec![Then::CloseSilently, Then::Keep]);
        let client = Client::new(TIMEOUT);
        let insert = Outgoing {
            replay: false,
            ..Outgoing::new("POST", "/insert", b"{}")
        };
        assert_eq!(client.send(&addr, &insert).unwrap().pooled, Pooled::Miss);
        // Give the FIN time to arrive: the liveness check then sees it,
        // so even a request that may not be replayed goes through — on a
        // fresh connection, sent exactly once.
        std::thread::sleep(Duration::from_millis(50));
        let second = client.send(&addr, &insert).unwrap();
        assert_eq!(
            (second.pooled, second.text().as_str()),
            (Pooled::Stale, "1")
        );
        assert_eq!(accepts.load(Ordering::SeqCst), 2);
        assert_eq!(requests.load(Ordering::SeqCst), 2);
    }

    /// A server whose first connection reads one request, answers it,
    /// then reads the *next* request and closes without a byte — the
    /// race the liveness check cannot see. Later connections answer.
    fn drops_second_request() -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let requests = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&requests);
        std::thread::spawn(move || {
            for (conn, stream) in listener.incoming().enumerate() {
                let mut stream = stream.unwrap();
                let mut reader = crate::httpcore::RequestReader::new();
                while reader.read(&mut stream, 1 << 20, TIMEOUT).is_ok() {
                    let n = seen.fetch_add(1, Ordering::SeqCst);
                    if conn == 0 && n == 1 {
                        break;
                    }
                    crate::httpcore::write_reply(
                        &mut stream,
                        "200 OK",
                        "text/plain",
                        b"ok",
                        &[],
                        false,
                    )
                    .unwrap();
                }
            }
        });
        (addr, requests)
    }

    #[test]
    fn a_read_is_replayed_once_and_an_insert_never() {
        let (addr, requests) = drops_second_request();
        let client = Client::new(TIMEOUT);
        let read = Outgoing::new("POST", "/query", b"{}");
        assert_eq!(client.send(&addr, &read).unwrap().pooled, Pooled::Miss);
        // Dies on the reused socket before any response byte: replayed
        // on a fresh connection, transparently.
        let replayed = client.send(&addr, &read).unwrap();
        assert_eq!((replayed.status, replayed.pooled), (200, Pooled::Stale));
        assert_eq!(requests.load(Ordering::SeqCst), 3);

        let (addr, requests) = drops_second_request();
        let insert = Outgoing {
            replay: false,
            ..Outgoing::new("POST", "/insert", b"{}")
        };
        client.send(&addr, &insert).unwrap();
        let err = client.send(&addr, &insert).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::UnexpectedEof, "{err}");
        assert_eq!(
            requests.load(Ordering::SeqCst),
            2,
            "the insert was sent again"
        );
    }

    /// A server whose first connection answers one request and gives the
    /// connection up just as the next one arrives: it waits for the first
    /// bytes, reads none of them, writes the close notice and closes.
    /// Later connections answer; counts the requests read.
    fn gives_up_as_second_request_arrives() -> (String, Arc<AtomicUsize>) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let requests = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&requests);
        std::thread::spawn(move || {
            for (conn, stream) in listener.incoming().enumerate() {
                let mut stream = stream.unwrap();
                let mut reader = crate::httpcore::RequestReader::new();
                while reader.read(&mut stream, 8 << 20, TIMEOUT).is_ok() {
                    seen.fetch_add(1, Ordering::SeqCst);
                    crate::httpcore::write_reply(
                        &mut stream,
                        "200 OK",
                        "text/plain",
                        b"ok",
                        &[],
                        false,
                    )
                    .unwrap();
                    if conn == 0 {
                        stream.peek(&mut [0u8; 1]).unwrap();
                        let notice = crate::httpcore::status_line(CLOSE_NOTICE);
                        crate::httpcore::write_reply(
                            &mut stream,
                            notice,
                            "text/plain",
                            b"",
                            &[],
                            true,
                        )
                        .unwrap();
                        break;
                    }
                }
            }
        });
        (addr, requests)
    }

    #[test]
    fn a_request_that_crosses_the_close_notice_is_sent_again_even_an_insert() {
        // A small body is written whole before the reset comes back; a
        // large one has its write fail half-way. Either way the notice is
        // found, and the request the server never read goes out again.
        for body in [vec![b'x'; 2], vec![b'x'; 4 << 20]] {
            let (addr, requests) = gives_up_as_second_request_arrives();
            let client = Client::new(TIMEOUT);
            let insert = Outgoing {
                replay: false,
                ..Outgoing::new("POST", "/insert", &body)
            };
            assert_eq!(client.send(&addr, &insert).unwrap().pooled, Pooled::Miss);
            let second = client.send(&addr, &insert).unwrap();
            assert_eq!((second.status, second.pooled), (200, Pooled::Stale));
            assert_eq!(requests.load(Ordering::SeqCst), 2, "read twice, or never");
        }

        // On a fresh connection the status is an answer like any other.
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            crate::httpcore::read_request(&mut stream, 1024, TIMEOUT).unwrap();
            let notice = crate::httpcore::status_line(CLOSE_NOTICE);
            crate::httpcore::write_reply(&mut stream, notice, "text/plain", b"", &[], true)
                .unwrap();
        });
        let fresh = Client::new(TIMEOUT)
            .send(&addr, &Outgoing::new("GET", "/", b""))
            .unwrap();
        assert_eq!((fresh.status, fresh.pooled), (CLOSE_NOTICE, Pooled::Miss));
    }

    #[test]
    fn send_once_asks_for_close_and_large_bodies_arrive_whole() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let big: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let payload = big.clone();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let request = crate::httpcore::read_request(&mut stream, 1 << 20, TIMEOUT).unwrap();
            crate::httpcore::write_reply(
                &mut stream,
                "200 OK",
                "application/octet-stream",
                &payload,
                &[],
                true,
            )
            .unwrap();
            request
        });
        let r = send_once(&addr, &Outgoing::new("GET", "/big", b""), TIMEOUT).unwrap();
        assert_eq!(r.body, big);
        assert_eq!(r.header("Connection"), Some("close"));
        let request = server.join().unwrap();
        assert!(!request.persistent);
        assert_eq!(request.header("connection"), Some("close"));
    }

    #[test]
    fn connect_failure_and_missing_length_are_errors() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let dead = listener.local_addr().unwrap().to_string();
        drop(listener);
        assert!(Client::new(TIMEOUT)
            .send(&dead, &Outgoing::new("GET", "/", b""))
            .is_err());

        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            crate::httpcore::read_request(&mut stream, 1024, TIMEOUT).unwrap();
            stream.write_all(b"HTTP/1.1 200 OK\r\n\r\n").unwrap();
        });
        let err = send_once(&addr, &Outgoing::new("GET", "/", b""), TIMEOUT).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        server.join().unwrap();
    }
}
