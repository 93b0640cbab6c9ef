//! The connection side of the worker-pool servers: a bounded queue of
//! accepted connections, and workers that serve each connection request
//! after request until one side ends it.
//!
//! `fdc-serve` and `fdc-router` share this module and differ only in
//! their [`Service`]: what a request is answered with, and which
//! counters tick. The shape is the classic one — an **accept thread**
//! ([`ConnQueue::accept_loop`]) admits connections into a bounded queue
//! and turns away what does not fit, a fixed pool of **workers**
//! ([`ConnQueue::run_worker`]) pops them — with one addition: a worker
//! keeps the connection it popped for as long as the client keeps using
//! it, instead of one queue trip per request.
//!
//! ## When a connection ends
//!
//! * The client closes, or sent `Connection: close` / HTTP/1.0
//!   ([`CloseReason::Client`]).
//! * Nothing arrives for `read_timeout` ([`CloseReason::Idle`]) — a
//!   silent close, not a `400`.
//! * **Backlog** ([`CloseReason::Backlog`]): a worker waiting on an idle
//!   kept-alive connection must never make a queued connection wait.
//!   A connection is *backlogged* when it is queued and no free worker
//!   is coming for it. A response written while one is carries
//!   `Connection: close`; and the moment a connection becomes
//!   backlogged the accept thread gives up the longest-idle parked
//!   connection, by shutting down the read half of a handle the
//!   worker registered — the blocked read returns immediately. A
//!   connection is *idle* only until the first byte of its next request:
//!   one whose request is still arriving is never given up. If the
//!   give-up and the first byte cross, the request is read whole all the
//!   same (`AfterShutdown`) and answered with `Connection: close`;
//!   otherwise the read returns end-of-stream and the connection is
//!   closed. With more active clients than workers the server thus
//!   degrades to one request per connection and no further. Only a
//!   give-up closes a connection the client was not told about, so it
//!   tells it on the way out: the worker writes the
//!   [`CLOSE_NOTICE`](super::CLOSE_NOTICE) — an unasked `408` with
//!   `Connection: close` — before it drops the socket. A request that
//!   reaches the socket after that was never read; its sender finds the
//!   notice where it expected a response and repeats the request on a
//!   new connection, an `/insert` included ([`super::client`]).
//! * Shutdown ([`CloseReason::Shutdown`]): idle connections are given up
//!   the same way, at once; queued and in-flight requests are answered
//!   (with `Connection: close`) before the workers exit.
//! * A request that cannot be served — `400`, `413`, `503` after waiting
//!   in the queue past the deadline ([`CloseReason::Error`]): answered,
//!   then closed through [`close_unread`].

use super::{
    close_unread, status_line, write_reply, Request, RequestError, RequestReader, CLOSE_NOTICE,
};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Per-request bounds of a server.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Bounds every socket read — and with it how long an idle
    /// kept-alive connection is held.
    pub read_timeout: Duration,
    /// Per-request deadline. Time spent in the queue counts against it
    /// for a connection's first request.
    pub deadline: Duration,
}

/// Why a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloseReason {
    /// The client closed, or asked for the connection to be closed.
    Client,
    /// No request arrived within the read timeout.
    Idle,
    /// Another connection was waiting for a worker.
    Backlog,
    /// The server is shutting down.
    Shutdown,
    /// A malformed, oversized or timed-out request, or an I/O error.
    Error,
}

impl CloseReason {
    /// Every reason, in the order `/stats` lists them.
    pub const ALL: [CloseReason; 5] = [
        CloseReason::Client,
        CloseReason::Idle,
        CloseReason::Backlog,
        CloseReason::Shutdown,
        CloseReason::Error,
    ];

    /// The metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            CloseReason::Client => "client",
            CloseReason::Idle => "idle",
            CloseReason::Backlog => "backlog",
            CloseReason::Shutdown => "shutdown",
            CloseReason::Error => "error",
        }
    }
}

/// Why a connection is answered without its request being served.
#[derive(Debug)]
pub enum Reject {
    /// The queue is full (`429`, from the accept thread).
    QueueFull,
    /// The connection waited in the queue past the deadline (`503`).
    QueuedTooLong,
    /// The declared body exceeds [`Limits::max_body`] (`413`).
    BodyTooLarge,
    /// The request could not be parsed (`400`); the text says why.
    Malformed(String),
}

/// What a server does with its connections' requests.
pub trait Service: Sync {
    /// Answers one parsed request through `out`. `budget` is what is
    /// left of the per-request deadline.
    fn answer(&self, request: &Request, budget: Duration, out: &mut Responder<'_>);

    /// Answers a connection that is turned away; it is closed afterwards.
    fn reject(&self, why: &Reject, out: &mut Responder<'_>);

    /// A connection ended after `requests` answered requests.
    fn closed(&self, _reason: CloseReason, _requests: u64) {}

    /// The queue now holds `depth` connections: one was admitted or
    /// popped.
    fn queued(&self, _depth: usize) {}
}

/// Where a [`Service`] writes the one response of a request. Whether the
/// response announces `Connection: close` is decided here, at the moment
/// it is written.
pub struct Responder<'a> {
    stream: &'a mut TcpStream,
    conns: &'a ConnQueue,
    /// Set when the connection ends after this response whatever the
    /// queue looks like.
    forced: Option<CloseReason>,
    /// `None` until [`Responder::send`]; then why the connection ends
    /// with this response, if it does.
    sent: Option<Option<CloseReason>>,
}

impl Responder<'_> {
    /// Writes the response: `status` is the status line tail (`"200
    /// OK"`). A failed write ends the connection; there is nobody left
    /// to tell.
    pub fn send(&mut self, status: &str, content_type: &str, body: &[u8], extra: &[(&str, &str)]) {
        let closing = self.forced.or_else(|| self.conns.pressure());
        let close = closing.is_some();
        self.sent = Some(
            match write_reply(self.stream, status, content_type, body, extra, close) {
                Ok(()) => closing,
                Err(_) => Some(CloseReason::Error),
            },
        );
    }
}

/// A connection waiting for a worker.
struct Queued {
    stream: TcpStream,
    enqueued: Instant,
}

/// A worker's kept-alive connection, as the accept thread sees it.
struct Slot {
    /// A second handle on the worker's socket: shutting down its read
    /// half wakes the worker out of a blocked read.
    handle: TcpStream,
    /// Since when the worker has been waiting for the next request.
    idle_since: Option<Instant>,
    /// Set by whoever gave the connection up, before the wake-up.
    given_up: Option<CloseReason>,
}

impl Slot {
    /// Whether the worker is in an idle wait nobody has cut short yet.
    fn is_idle(&self) -> bool {
        self.idle_since.is_some() && self.given_up.is_none()
    }

    /// Cuts the worker's idle wait short: its blocked read returns at
    /// once.
    fn give_up(&mut self, reason: CloseReason) {
        self.given_up = Some(reason);
        self.handle.shutdown(Shutdown::Read).ok();
    }
}

struct State {
    queue: VecDeque<Queued>,
    /// Workers blocked in [`ConnQueue::next`].
    waiting: usize,
    /// Workers woken out of an idle wait that have not noticed yet.
    reclaiming: usize,
    /// One slot per worker.
    slots: Vec<Option<Slot>>,
    stopping: bool,
}

impl State {
    /// Whether a connection is queued that no worker is coming for:
    /// every waiting worker has been notified of one queued connection,
    /// every worker being reclaimed will take one.
    fn backlogged(&self) -> bool {
        self.queue.len() > self.waiting + self.reclaiming
    }

    /// Gives up idle connections, longest idle first, until every queued
    /// connection has a worker coming for it (or none is idle).
    fn reclaim_for_queue(&mut self) {
        while self.backlogged() {
            let longest_idle = self
                .slots
                .iter_mut()
                .flatten()
                .filter(|s| s.is_idle())
                .min_by_key(|s| s.idle_since);
            let Some(slot) = longest_idle else { return };
            slot.give_up(CloseReason::Backlog);
            self.reclaiming += 1;
        }
    }
}

/// What [`ConnQueue::offer`] did with a connection.
enum Offer {
    /// Admitted; the queue now holds this many.
    Queued(usize),
    Full(TcpStream),
    Stopping,
}

/// The bounded connection queue of one server, plus what its accept
/// thread and workers need to know about each other.
pub struct ConnQueue {
    state: Mutex<State>,
    ready: Condvar,
    depth: usize,
    drained: AtomicU64,
}

impl ConnQueue {
    /// A queue holding at most `depth` connections for `workers` workers.
    pub fn new(workers: usize, depth: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                waiting: 0,
                reclaiming: 0,
                slots: (0..workers).map(|_| None).collect(),
                stopping: false,
            }),
            ready: Condvar::new(),
            depth,
            drained: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("no thread panics holding the queue")
    }

    /// Connections queued for a worker right now.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// Whether no connection is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued connections popped after [`ConnQueue::stop`] — what the
    /// drain answered.
    pub fn drained(&self) -> u64 {
        self.drained.load(Ordering::SeqCst)
    }

    /// Begins the drain: no connection is admitted any more, idle
    /// connections are given up at once, and the accept thread bound to
    /// `addr` is woken so it can exit. Workers exit once the queue is
    /// empty; join them, and the accept thread, afterwards.
    pub fn stop(&self, addr: SocketAddr) {
        {
            let mut s = self.lock();
            s.stopping = true;
            let mut woken = 0;
            for slot in s.slots.iter_mut().flatten().filter(|s| s.is_idle()) {
                slot.give_up(CloseReason::Shutdown);
                woken += 1;
            }
            s.reclaiming += woken;
            self.ready.notify_all();
        }
        // Unblock the accept thread with a no-op connection.
        drop(TcpStream::connect(addr));
    }

    /// Runs the accept thread: admits connections until
    /// [`ConnQueue::stop`]; what does not fit the queue is answered by
    /// [`Service::reject`] with [`Reject::QueueFull`] and closed.
    pub fn accept_loop(&self, listener: &TcpListener, service: &impl Service) {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) if self.lock().stopping => return,
                Err(_) => continue,
            };
            // Responses leave in one write; without this the kernel may
            // still hold a small one back for the peer's delayed ACK.
            stream.set_nodelay(true).ok();
            match self.offer(stream) {
                Offer::Queued(depth) => service.queued(depth),
                // The shutdown wake-up connection (or a late client);
                // the listener closes when this loop returns.
                Offer::Stopping => return,
                Offer::Full(stream) => {
                    stream
                        .set_write_timeout(Some(Duration::from_millis(500)))
                        .ok();
                    self.turn_away(service, stream, &Reject::QueueFull, 250);
                }
            }
        }
    }

    fn offer(&self, stream: TcpStream) -> Offer {
        let mut s = self.lock();
        if s.stopping {
            return Offer::Stopping;
        }
        if s.queue.len() >= self.depth {
            return Offer::Full(stream);
        }
        s.queue.push_back(Queued {
            stream,
            enqueued: Instant::now(),
        });
        s.reclaim_for_queue();
        self.ready.notify_one();
        Offer::Queued(s.queue.len())
    }

    /// Blocks until a connection is queued and pops it; `None` once the
    /// queue is empty and the server is stopping.
    fn next(&self, service: &impl Service) -> Option<Queued> {
        let mut s = self.lock();
        loop {
            if let Some(conn) = s.queue.pop_front() {
                if s.stopping {
                    self.drained.fetch_add(1, Ordering::SeqCst);
                }
                let depth = s.queue.len();
                drop(s);
                service.queued(depth);
                return Some(conn);
            }
            if s.stopping {
                return None;
            }
            s.waiting += 1;
            s = self
                .ready
                .wait(s)
                .expect("no thread panics holding the queue");
            s.waiting -= 1;
        }
    }

    /// Why a response written now must announce `Connection: close`, if
    /// it must.
    fn pressure(&self) -> Option<CloseReason> {
        let s = self.lock();
        if s.stopping {
            Some(CloseReason::Shutdown)
        } else if s.backlogged() {
            Some(CloseReason::Backlog)
        } else {
            None
        }
    }

    /// Marks `worker` as waiting for the next request of its kept-alive
    /// connection, registering the wake-up handle on first use. `Some`
    /// means the connection must be given up instead.
    fn park(&self, worker: usize, stream: &TcpStream) -> Option<CloseReason> {
        let mut s = self.lock();
        if s.stopping {
            return Some(CloseReason::Shutdown);
        }
        if s.backlogged() {
            return Some(CloseReason::Backlog);
        }
        let now = Some(Instant::now());
        match &mut s.slots[worker] {
            Some(slot) => slot.idle_since = now,
            empty => match stream.try_clone() {
                Ok(handle) => {
                    *empty = Some(Slot {
                        handle,
                        idle_since: now,
                        given_up: None,
                    });
                }
                // Without a handle nobody could reclaim this worker.
                Err(_) => return Some(CloseReason::Error),
            },
        }
        None
    }

    /// The wait of `worker` is over; `Some` when it was woken because its
    /// connection was given up.
    fn unpark(&self, worker: usize) -> Option<CloseReason> {
        let mut s = self.lock();
        let slot = s.slots[worker].as_mut().expect("unpark follows park");
        slot.idle_since = None;
        let given_up = slot.given_up;
        if given_up.is_some() {
            s.reclaiming -= 1;
        }
        given_up
    }

    /// Answers a connection with `why` and closes it without resetting
    /// the response away (see [`close_unread`]).
    fn turn_away(
        &self,
        service: &impl Service,
        mut stream: TcpStream,
        why: &Reject,
        grace_ms: u64,
    ) {
        let mut out = Responder {
            stream: &mut stream,
            conns: self,
            forced: Some(CloseReason::Error),
            sent: None,
        };
        service.reject(why, &mut out);
        close_unread(stream, Duration::from_millis(grace_ms));
    }

    /// Runs worker number `worker` (below the `workers` given to
    /// [`ConnQueue::new`]): serves queued connections until the queue is
    /// empty and the server is stopping.
    pub fn run_worker(&self, worker: usize, limits: &Limits, service: &impl Service) {
        while let Some(conn) = self.next(service) {
            let (reason, requests) = self.serve_connection(worker, conn, limits, service);
            self.lock().slots[worker] = None;
            service.closed(reason, requests);
        }
    }

    fn serve_connection(
        &self,
        worker: usize,
        conn: Queued,
        limits: &Limits,
        service: &impl Service,
    ) -> (CloseReason, u64) {
        let Queued {
            mut stream,
            enqueued,
        } = conn;
        let queued_for = enqueued.elapsed();
        if queued_for > limits.deadline {
            self.turn_away(service, stream, &Reject::QueuedTooLong, 500);
            return (CloseReason::Error, 0);
        }
        let mut reader = RequestReader::new();
        let mut served = 0u64;
        loop {
            // From the second request on, the wait for the first byte of
            // the next one is an idle park the accept thread may cut
            // short. A park that is refused is cut short by the worker
            // itself: either way the wait returns at once, with the
            // beginning of a request that raced in or with end-of-stream.
            let mut given_up = None;
            let begun = if served > 0 && !reader.has_buffered() {
                given_up = self.park(worker, &stream);
                let parked = given_up.is_none();
                if !parked {
                    stream.shutdown(Shutdown::Read).ok();
                }
                let begun = reader.wait(&mut stream, limits.read_timeout);
                if parked {
                    given_up = self.unpark(worker);
                }
                begun
            } else {
                reader.wait(&mut stream, limits.read_timeout)
            };
            // A request that has begun is read to its end, given up or not.
            let result = begun.and_then(|()| match given_up {
                None => reader.finish(&mut stream, limits.max_body),
                Some(_) => reader.finish(
                    &mut AfterShutdown {
                        stream: &stream,
                        until: Instant::now() + limits.read_timeout,
                    },
                    limits.max_body,
                ),
            });
            if let (Some(reason), Err(RequestError::Closed | RequestError::Idle)) =
                (given_up, &result)
            {
                // Nothing of a next request was read and nothing will be:
                // say so before closing, so that a request already on
                // the wire can be repeated on another connection.
                let notice = status_line(CLOSE_NOTICE);
                write_reply(&mut stream, notice, "text/plain", b"", &[], true).ok();
                return (reason, served);
            }
            let request = match result {
                Ok(request) => request,
                Err(RequestError::Closed) => return (CloseReason::Client, served),
                Err(RequestError::Idle) => return (CloseReason::Idle, served),
                Err(e) => {
                    let why = match e {
                        RequestError::BodyTooLarge(_) => Reject::BodyTooLarge,
                        e => Reject::Malformed(e.to_string()),
                    };
                    self.turn_away(service, stream, &why, 500);
                    return (CloseReason::Error, served);
                }
            };
            let budget = match served {
                0 => limits.deadline.saturating_sub(queued_for),
                _ => limits.deadline,
            };
            let asked = (!request.persistent).then_some(CloseReason::Client);
            let mut out = Responder {
                stream: &mut stream,
                conns: self,
                forced: given_up.or(asked),
                sent: None,
            };
            service.answer(&request, budget, &mut out);
            served += 1;
            match out.sent {
                Some(None) => {}
                Some(Some(reason)) => return (reason, served),
                None => return (CloseReason::Error, served),
            }
        }
    }
}

/// Reads on from a connection whose read half was shut down just as a
/// request began to arrive: the give-up and the first byte crossed. The
/// request must still be read whole. Linux keeps delivering what arrives
/// on such a socket but reports end-of-stream instead of blocking while
/// nothing has; this waits those gaps out, until `until`. (Where the
/// kernel discards what arrives after the shutdown, the wait runs out and
/// the request ends as a `400`.)
struct AfterShutdown<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for AfterShutdown<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf)? {
                0 if Instant::now() < self.until => {
                    std::thread::sleep(Duration::from_micros(200));
                }
                n => return Ok(n),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::httpcore::client::{send_once, Client, Outgoing};
    use std::io::{Read, Write};
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    /// Answers every request with its own target, and remembers how
    /// connections ended.
    #[derive(Default)]
    struct Echo {
        closed: Mutex<Vec<(CloseReason, u64)>>,
        rejected: Mutex<Vec<String>>,
        depths: Mutex<Vec<usize>>,
    }

    impl Service for Echo {
        fn answer(&self, request: &Request, _budget: Duration, out: &mut Responder<'_>) {
            if request.target == "/slow" {
                std::thread::sleep(Duration::from_millis(150));
            }
            out.send("200 OK", "text/plain", request.target.as_bytes(), &[]);
        }

        fn reject(&self, why: &Reject, out: &mut Responder<'_>) {
            self.rejected.lock().unwrap().push(format!("{why:?}"));
            out.send("400 Bad Request", "text/plain", b"rejected", &[]);
        }

        fn closed(&self, reason: CloseReason, requests: u64) {
            self.closed.lock().unwrap().push((reason, requests));
        }

        fn queued(&self, depth: usize) {
            self.depths.lock().unwrap().push(depth);
        }
    }

    struct Running {
        addr: SocketAddr,
        conns: Arc<ConnQueue>,
        echo: Arc<Echo>,
        threads: Vec<std::thread::JoinHandle<()>>,
    }

    fn start(workers: usize, read_timeout: Duration) -> Running {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let conns = Arc::new(ConnQueue::new(workers, 16));
        let echo = Arc::new(Echo::default());
        let limits = Limits {
            max_body: 1 << 20,
            read_timeout,
            deadline: Duration::from_secs(5),
        };
        let mut threads = Vec::new();
        {
            let (conns, echo) = (Arc::clone(&conns), Arc::clone(&echo));
            threads.push(std::thread::spawn(move || {
                conns.accept_loop(&listener, &*echo)
            }));
        }
        for worker in 0..workers {
            let (conns, echo) = (Arc::clone(&conns), Arc::clone(&echo));
            threads.push(std::thread::spawn(move || {
                conns.run_worker(worker, &limits, &*echo)
            }));
        }
        Running {
            addr,
            conns,
            echo,
            threads,
        }
    }

    impl Running {
        fn stop(self) -> Vec<(CloseReason, u64)> {
            self.conns.stop(self.addr);
            for t in self.threads {
                t.join().unwrap();
            }
            let closed = self.echo.closed.lock().unwrap().clone();
            closed
        }
    }

    /// Reads one `Content-Length`-framed response off `stream`.
    fn read_response(stream: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            assert_eq!(stream.read(&mut byte).unwrap(), 1, "closed mid-head");
            buf.push(byte[0]);
        }
        let head = String::from_utf8(buf).unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).unwrap();
        head + std::str::from_utf8(&body).unwrap()
    }

    const LONG: Duration = Duration::from_secs(5);

    #[test]
    fn one_socket_is_answered_in_order_until_the_client_says_close() {
        let server = start(2, LONG);
        let mut s = TcpStream::connect(server.addr).unwrap();
        for i in 0..5 {
            write!(s, "GET /{i} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let response = read_response(&mut s);
            assert!(response.ends_with(&format!("/{i}")), "{response}");
            assert!(!response.contains("Connection: close"), "{response}");
        }
        // Two requests in one write: the second's bytes are read with the
        // first and must not be lost. It asks for close, and gets it.
        s.write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        assert!(read_response(&mut s).ends_with("/a"));
        let last = read_response(&mut s);
        assert!(
            last.ends_with("/b") && last.contains("Connection: close"),
            "{last}"
        );
        assert_eq!(
            s.read(&mut [0u8; 1]).unwrap(),
            0,
            "server kept the connection"
        );

        // HTTP/1.0 closes by default.
        let mut old = TcpStream::connect(server.addr).unwrap();
        old.write_all(b"GET /old HTTP/1.0\r\n\r\n").unwrap();
        assert!(read_response(&mut old).contains("Connection: close"));
        assert_eq!(old.read(&mut [0u8; 1]).unwrap(), 0);

        let mut closed = server.stop();
        closed.sort_by_key(|(_, n)| *n);
        assert_eq!(closed, [(CloseReason::Client, 1), (CloseReason::Client, 7)]);
    }

    #[test]
    fn idle_connections_are_reaped_silently() {
        let server = start(1, Duration::from_millis(100));
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.write_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        read_response(&mut s);
        // No second request: end-of-stream after the read timeout, and no
        // response — the reap is not a malformed request.
        s.set_read_timeout(Some(LONG)).unwrap();
        assert_eq!(s.read(&mut [0u8; 64]).unwrap(), 0);
        // A client that hangs up between requests is no error either.
        let mut t = TcpStream::connect(server.addr).unwrap();
        t.write_all(b"GET /y HTTP/1.1\r\n\r\n").unwrap();
        read_response(&mut t);
        drop(t);
        let echo = Arc::clone(&server.echo);
        let waited = Instant::now();
        while echo.closed.lock().unwrap().len() < 2 {
            assert!(waited.elapsed() < LONG, "the hang-up went unnoticed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let closed = server.stop();
        assert!(closed.contains(&(CloseReason::Idle, 1)), "{closed:?}");
        assert!(closed.contains(&(CloseReason::Client, 1)), "{closed:?}");
        assert!(echo.rejected.lock().unwrap().is_empty());
    }

    #[test]
    fn more_persistent_clients_than_workers_all_get_answers_promptly() {
        let workers = 2;
        let server = start(workers, LONG);
        let addr = server.addr.to_string();
        // Every client keeps its connection; with one more client than
        // workers somebody's idle connection must be given up each round
        // — nobody may wait for a read timeout (5 s) instead.
        let clients: Vec<Client> = (0..workers + 1).map(|_| Client::new(LONG)).collect();
        let started = Instant::now();
        for round in 0..4 {
            for (c, client) in clients.iter().enumerate() {
                let path = format!("/{round}/{c}");
                let r = client
                    .send(&addr, &Outgoing::new("GET", &path, b""))
                    .unwrap();
                assert_eq!((r.status, r.text()), (200, path));
            }
        }
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "{:?}",
            started.elapsed()
        );
        let closed = server.stop();
        assert!(
            closed
                .iter()
                .any(|(reason, _)| *reason == CloseReason::Backlog),
            "{closed:?}"
        );
    }

    #[test]
    fn a_request_still_arriving_is_not_idle_and_is_never_cut() {
        let server = start(1, LONG);
        let addr = server.addr.to_string();
        let mut a = TcpStream::connect(server.addr).unwrap();
        a.write_all(b"GET /first HTTP/1.1\r\n\r\n").unwrap();
        read_response(&mut a);
        // The only worker is now parked on A. A's next request arrives in
        // two pieces; between them B queues up. A is mid-request, not
        // idle: B waits for it instead of having it given up.
        let body = vec![b'x'; 100_000];
        write!(
            a,
            "POST /big HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .unwrap();
        a.write_all(&body[..50_000]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let b = std::thread::spawn(move || {
            send_once(&addr, &Outgoing::new("GET", "/b", b""), LONG).unwrap()
        });
        std::thread::sleep(Duration::from_millis(50));
        a.write_all(&body[50_000..]).unwrap();
        let answer = read_response(&mut a);
        assert!(
            answer.starts_with("HTTP/1.1 200") && answer.ends_with("/big"),
            "{answer}"
        );
        assert!(
            answer.contains("Connection: close"),
            "B is waiting: {answer}"
        );
        assert_eq!(b.join().unwrap().text(), "/b");
        assert!(server.echo.rejected.lock().unwrap().is_empty());
        let closed = server.stop();
        assert!(closed.contains(&(CloseReason::Backlog, 2)), "{closed:?}");
    }

    #[test]
    fn a_request_that_crossed_the_give_up_is_still_read_whole() {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        // The first half is on its way when the read half is shut down;
        // the second half arrives well after.
        client
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n01234")
            .unwrap();
        stream.shutdown(Shutdown::Read).unwrap();
        let mut reader = RequestReader::new();
        reader.wait(&mut stream, LONG).unwrap();
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            client.write_all(b"56789").unwrap();
            client
        });
        let mut source = AfterShutdown {
            stream: &stream,
            until: Instant::now() + LONG,
        };
        let request = reader.finish(&mut source, 1 << 20).unwrap();
        assert_eq!(request.body, b"0123456789");
        // A peer that really is gone ends the wait at `until`.
        drop(late.join().unwrap());
        source.until = Instant::now() + Duration::from_millis(20);
        assert_eq!(source.read(&mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn a_given_up_connection_is_told_so_and_a_write_that_crosses_is_sent_again() {
        let server = start(1, LONG);
        let addr = server.addr.to_string();
        let mut a = TcpStream::connect(server.addr).unwrap();
        a.write_all(b"GET /first HTTP/1.1\r\n\r\n").unwrap();
        read_response(&mut a);
        // The only worker is parked on A when B arrives: A is given up,
        // and hears it — the close notice, then end-of-stream.
        let keeper = Client::new(LONG);
        fn write(path: &str) -> Outgoing<'_> {
            Outgoing {
                replay: false,
                ..Outgoing::new("POST", path, b"{}")
            }
        }
        assert_eq!(keeper.send(&addr, &write("/b")).unwrap().text(), "/b");
        let notice = read_response(&mut a);
        assert!(
            notice.starts_with("HTTP/1.1 408 ") && notice.contains("Connection: close"),
            "{notice}"
        );
        assert_eq!(a.read(&mut [0u8; 1]).unwrap(), 0);

        // Three writers that keep their connections, one worker: idle
        // connections are given up all the time, and some give-ups cross
        // a request already on its way. None may be replayed blindly, yet
        // every one is answered, and read exactly once.
        let per_client = 300;
        std::thread::scope(|scope| {
            for c in 0..3 {
                let addr = &addr;
                scope.spawn(move || {
                    let client = Client::new(LONG);
                    for i in 0..per_client {
                        let path = format!("/{c}/{i}");
                        let r = client.send(addr, &write(&path)).unwrap();
                        assert_eq!((r.status, r.text()), (200, path));
                    }
                });
            }
        });
        let closed = server.stop();
        let answered: u64 = closed.iter().map(|(_, requests)| requests).sum();
        assert_eq!(answered, 2 + 3 * per_client, "{closed:?}");
    }

    #[test]
    fn a_queued_connection_makes_the_running_response_say_close() {
        let server = start(1, LONG);
        let addr = server.addr.to_string();
        let keeper = Client::new(LONG);
        let slow = std::thread::scope(|scope| {
            let slow = scope.spawn(|| {
                keeper
                    .send(&addr, &Outgoing::new("GET", "/slow", b""))
                    .unwrap()
            });
            // Lands in the queue while the only worker sleeps in /slow.
            std::thread::sleep(Duration::from_millis(50));
            let queued = send_once(&addr, &Outgoing::new("GET", "/queued", b""), LONG).unwrap();
            assert_eq!(queued.text(), "/queued");
            slow.join().unwrap()
        });
        assert_eq!(slow.header("connection"), Some("close"));
        // The service heard the queue fill while its worker was busy, and
        // empty again: admitted, popped, admitted, popped.
        assert_eq!(*server.echo.depths.lock().unwrap(), [1, 0, 1, 0]);
        let closed = server.stop();
        assert!(closed.contains(&(CloseReason::Backlog, 1)), "{closed:?}");
    }

    #[test]
    fn stop_gives_up_idle_connections_at_once_and_answers_what_is_in_flight() {
        let server = start(2, LONG);
        let addr = server.addr.to_string();
        let idle = Client::new(LONG);
        idle.send(&addr, &Outgoing::new("GET", "/idle", b""))
            .unwrap();
        let busy = Client::new(LONG);
        let (in_flight, stopped_in) = std::thread::scope(|scope| {
            let in_flight = scope.spawn(|| busy.send(&addr, &Outgoing::new("GET", "/slow", b"")));
            std::thread::sleep(Duration::from_millis(50));
            let started = Instant::now();
            let closed = server.stop();
            (in_flight.join().unwrap(), (started.elapsed(), closed))
        });
        let in_flight = in_flight.expect("the in-flight request is answered");
        assert_eq!(in_flight.text(), "/slow");
        assert_eq!(in_flight.header("connection"), Some("close"));
        let (elapsed, closed) = stopped_in;
        assert!(elapsed < Duration::from_secs(2), "stop took {elapsed:?}");
        assert!(closed.contains(&(CloseReason::Shutdown, 1)), "{closed:?}");
    }
}
