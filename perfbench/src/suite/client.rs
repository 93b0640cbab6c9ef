//! The suite's one HTTP client.
//!
//! `TCP_NODELAY`, `Content-Length` framing in both directions (never
//! read-to-EOF), and a socket that is kept for the next request unless
//! the response carries `Connection: close` — so the day the servers
//! speak keep-alive the benchmark needs no edit, and until then the
//! connect cost is a named number instead of a hidden part of p50.
//! Every connect or I/O error is returned to the caller, who counts a
//! failed op; nothing is retried here.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on a response head; the servers answer a few hundred bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a response body (a 1000-row GROUP BY answer is ~100 KB).
const MAX_BODY_BYTES: usize = 16 << 20;
/// Bounds every socket wait so a hung server fails the op instead of
/// hanging the benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// When each phase of one request ended — the raw material of the
/// `client.request ⊃ {connect, send, wait, recv}` spans.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Request start (before connecting).
    pub start: Instant,
    /// Socket ready: freshly connected, or taken from the previous request.
    pub connected: Instant,
    /// Request bytes handed to the kernel.
    pub sent: Instant,
    /// First response byte read.
    pub first_byte: Instant,
    /// Last body byte read.
    pub done: Instant,
    /// Whether the socket was reused from the previous request.
    pub reused: bool,
}

impl Timing {
    /// Whole round trip in nanoseconds, connect included.
    pub fn total_ns(&self) -> u64 {
        (self.done - self.start).as_nanos() as u64
    }
}

/// One parsed response.
#[derive(Debug)]
pub struct Response {
    /// Status code of the status line.
    pub status: u16,
    /// Exactly `Content-Length` body bytes.
    pub body: Vec<u8>,
    /// Phase boundaries of the round trip.
    pub timing: Timing,
}

/// A closed-loop client of one server address.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
}

impl Client {
    /// A client of `addr`; connects on first use.
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, conn: None }
    }

    /// `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        self.request("POST", path, body)
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, "")
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let start = Instant::now();
        let (mut stream, reused) = match self.conn.take() {
            Some(s) => (s, true),
            None => {
                let s = TcpStream::connect(self.addr)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(IO_TIMEOUT))?;
                s.set_write_timeout(Some(IO_TIMEOUT))?;
                (s, false)
            }
        };
        let connected = Instant::now();
        // One write for head and body, so a small request is one segment.
        let mut request = format!(
            "{method} {path} HTTP/1.1\r\nHost: fdc\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        request.push_str(body);
        stream.write_all(request.as_bytes())?;
        let sent = Instant::now();

        let mut buf = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let mut first_byte = None;
        let head_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            if buf.len() > MAX_HEAD_BYTES {
                return Err(invalid("response head too large"));
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(invalid("connection closed mid-head"));
            }
            first_byte.get_or_insert_with(Instant::now);
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut content_length = None;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let content_length =
            content_length.ok_or_else(|| invalid("response without Content-Length"))?;
        if content_length > MAX_BODY_BYTES {
            return Err(invalid("response body too large"));
        }
        let mut body = buf.split_off(head_end + 4);
        if body.len() > content_length {
            return Err(invalid("more bytes than Content-Length"));
        }
        let have = body.len();
        body.resize(content_length, 0);
        stream.read_exact(&mut body[have..])?;
        let done = Instant::now();
        if !close {
            self.conn = Some(stream);
        }
        Ok(Response {
            status,
            body,
            timing: Timing {
                start,
                connected,
                sent,
                first_byte: first_byte.unwrap_or(done),
                done,
                reused,
            },
        })
    }
}

fn invalid(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, TcpListener};

    /// Serves `responses` in order, one per accepted request, reusing the
    /// connection when the previous response did not say `close`.
    fn serve(responses: Vec<&'static str>) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut accepts = 0;
            let mut stream: Option<TcpStream> = None;
            for response in responses {
                let mut s = stream.take().unwrap_or_else(|| {
                    accepts += 1;
                    listener.accept().unwrap().0
                });
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") {
                    s.read_exact(&mut byte).unwrap();
                    head.push(byte[0]);
                }
                let head = String::from_utf8(head).unwrap();
                let len: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .unwrap()
                    .parse()
                    .unwrap();
                let mut body = vec![0u8; len];
                s.read_exact(&mut body).unwrap();
                s.write_all(response.as_bytes()).unwrap();
                if !response.contains("Connection: close") {
                    stream = Some(s);
                }
            }
            accepts
        });
        (addr, handle)
    }

    #[test]
    fn close_means_a_fresh_connection_per_request() {
        let r = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok";
        let (addr, server) = serve(vec![r, r]);
        let mut client = Client::new(addr);
        for _ in 0..2 {
            let resp = client.post("/query", "{}").unwrap();
            assert_eq!((resp.status, resp.body.as_slice()), (200, &b"ok"[..]));
            assert!(!resp.timing.reused);
        }
        assert_eq!(server.join().unwrap(), 2);
    }

    #[test]
    fn socket_is_reused_without_connection_close() {
        let r = "HTTP/1.1 202 Accepted\r\nContent-Length: 3\r\n\r\nyes";
        let (addr, server) = serve(vec![r, r]);
        let mut client = Client::new(addr);
        assert!(!client.post("/insert", "{\"a\":1}").unwrap().timing.reused);
        let second = client.get("/healthz").unwrap();
        assert!(second.timing.reused);
        assert_eq!(second.body, b"yes");
        assert_eq!(server.join().unwrap(), 1);
    }

    #[test]
    fn connect_failure_and_missing_length_are_errors() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let dead = listener.local_addr().unwrap();
        drop(listener);
        assert!(Client::new(dead).get("/healthz").is_err());
        let (addr, server) = serve(vec!["HTTP/1.1 200 OK\r\n\r\n"]);
        assert!(Client::new(addr).get("/healthz").is_err());
        server.join().unwrap();
    }
}
