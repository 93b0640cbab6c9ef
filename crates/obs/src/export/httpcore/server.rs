//! The one worker-pool server: `fdc-serve` and `fdc-router` are each a
//! [`Service`] — a route table, its handlers, the names it records under
//! and what it counts beyond them — and everything else is here.
//!
//! * **Lifecycle.** [`Pool::start`] binds `127.0.0.1:port`, builds the
//!   bounded connection queue and starts an **accept thread**, which
//!   admits connections and turns away what does not fit, and a fixed
//!   pool of **workers**, which pop them; [`Pool::stop`] drains and joins
//!   them. A worker keeps the connection it popped for as long as the
//!   client keeps using it.
//! * **Envelope.** Every request runs under the caller's `traceparent`
//!   or a fresh root sampled at [`Service::trace_sample`], inside the
//!   span [`Service::SPAN`]; the reply is counted in
//!   [`Service::REQUESTS`] by route and status, then timed in
//!   [`Service::LATENCY`] by route (the trace id its exemplar when
//!   sampled), then handed to [`Service::answered`].
//! * **Tables.** A request no route takes is a `405` with `Allow` when
//!   [`Service::PATHS`] serves its path with another method, else a
//!   `404`; a connection turned away is answered from [`Reject`]'s table.
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
use crate::trace::{self, TraceContext};
use fdc_codec::json::Writer;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-request bounds of a server.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Bounds every socket read — and with it how long an idle
    /// kept-alive connection is held.
    pub read_timeout: Duration,
    /// How long a connection may wait in the queue: past it, its first
    /// request is answered `503` before any work is done. A request a
    /// worker has taken is not bounded by it.
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

impl Reject {
    /// The `reason` label of a refusal at admission (a full queue, or a
    /// connection that waited past its deadline); `None` for a request
    /// that arrived and could not be read.
    pub fn admission(&self) -> Option<&'static str> {
        match self {
            Reject::QueueFull => Some("queue_full"),
            Reject::QueuedTooLong => Some("deadline"),
            Reject::BodyTooLarge | Reject::Malformed(_) => None,
        }
    }

    /// The answer; `queue_full` is the server's error text for a full
    /// queue.
    fn reply(&self, queue_full: &str) -> Reply {
        let (route, status, error) = match self {
            Reject::QueueFull => ("admission", 429, queue_full),
            Reject::QueuedTooLong => ("admission", 503, "deadline exceeded while queued"),
            Reject::BodyTooLarge => ("malformed", 413, "request body too large"),
            Reject::Malformed(m) => ("malformed", 400, m.as_str()),
        };
        let reply = Reply::error(route, status, error);
        match self {
            Reject::QueueFull => reply.header("Retry-After", "1"),
            _ => reply,
        }
    }
}

/// `{"error":"<msg>"}` — the body of every error answer.
pub fn err_body(msg: &str) -> String {
    let mut w = Writer::new();
    w.begin_object().key("error").str(msg).end_object();
    w.finish()
}

/// What a route answers a request with.
#[derive(Debug)]
pub struct Reply {
    /// The `route` label it is counted and timed under.
    pub route: &'static str,
    /// The status code.
    pub status: u16,
    /// The `Content-Type`.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Headers beyond `Content-Type`, `Content-Length` and `Connection`.
    pub headers: Vec<(&'static str, String)>,
}

impl Reply {
    /// A reply with a body of `content_type`.
    pub fn new(
        route: &'static str,
        status: u16,
        content_type: &'static str,
        body: Vec<u8>,
    ) -> Reply {
        Reply {
            route,
            status,
            content_type,
            body,
            headers: Vec::new(),
        }
    }

    /// A JSON reply.
    pub fn json(route: &'static str, status: u16, body: String) -> Reply {
        Reply::new(route, status, "application/json", body.into_bytes())
    }

    /// A JSON [`err_body`] reply.
    pub fn error(route: &'static str, status: u16, msg: &str) -> Reply {
        Reply::json(route, status, err_body(msg))
    }

    /// The same reply with one more header.
    pub fn header(mut self, name: &'static str, value: &str) -> Reply {
        self.headers.push((name, value.to_string()));
        self
    }

    /// The answer to a request no route took: `405` naming the method
    /// when one of `paths` serves its path, `404` otherwise.
    fn unrouted(path: &str, paths: &[(&'static str, &[&str])]) -> Reply {
        match paths.iter().find(|(_, served)| served.contains(&path)) {
            Some(&(method, _)) => {
                Reply::error("method", 405, &format!("use {method}")).header("Allow", method)
            }
            None => Reply::error("unknown", 404, "no such route"),
        }
    }
}

/// One server: its routes and handlers, the names it records under, and
/// what it counts beyond them. [`Pool::start`] runs it.
pub trait Service: Send + Sync + 'static {
    /// The span every request runs in (`serve.request`).
    const SPAN: &'static str;
    /// The counter of answered requests, labelled `route` and `status`.
    const REQUESTS: &'static str;
    /// The per-route request-latency histogram, in nanoseconds.
    const LATENCY: &'static str;
    /// The error text of the `429` a full queue is answered with.
    const QUEUE_FULL: &'static str;
    /// Every path the routes serve, by the one method each takes: what a
    /// request no route took is answered from.
    const PATHS: &'static [(&'static str, &'static [&'static str])];

    /// What a request's routing leaves for [`Service::answered`].
    type Note: Default;

    /// Head-sampling rate for traces minted at ingress.
    fn trace_sample(&self) -> f64;

    /// Answers one request; `None` when no route takes it.
    fn route(&self, request: &Request, note: &mut Self::Note) -> Option<Reply>;

    /// The reply to a request is on the wire, `elapsed` after the request
    /// began, still under its trace context `ctx`.
    fn answered(&self, _note: Self::Note, _reply: &Reply, _elapsed: Duration, _ctx: TraceContext) {}

    /// A connection is about to be turned away.
    fn rejected(&self, _why: &Reject) {}

    /// A connection ended after `requests` answered requests.
    fn closed(&self, _reason: CloseReason, _requests: u64) {}

    /// The queue now holds `depth` connections: one was admitted or
    /// popped. Called under the queue's lock, so the reports arrive in
    /// the order the queue changed.
    fn queued(&self, _depth: usize) {}
}

/// A running server: its accept thread and its workers. Stop it with
/// [`Pool::stop`]; dropped without a stop, its threads park on the queue
/// for the rest of the process.
pub struct Pool {
    addr: SocketAddr,
    conns: Arc<ConnQueue>,
    threads: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Binds `127.0.0.1:port` (`0` picks an ephemeral port), builds a
    /// queue of at most `queue_depth` connections for `workers` workers
    /// (at least one) and starts the accept thread and the workers. They
    /// answer with the service `build` makes of the queue (a service may
    /// report the queue's length), which is handed back beside the pool.
    pub fn start<S: Service>(
        port: u16,
        workers: usize,
        queue_depth: usize,
        limits: Limits,
        build: impl FnOnce(Arc<ConnQueue>) -> S,
    ) -> std::io::Result<(Pool, Arc<S>)> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        let addr = listener.local_addr()?;
        let workers = workers.max(1);
        let conns = Arc::new(ConnQueue::new(workers, queue_depth));
        let service = Arc::new(build(Arc::clone(&conns)));
        let (queue, accepting) = (Arc::clone(&conns), Arc::clone(&service));
        let mut threads = vec![std::thread::spawn(move || {
            queue.accept_loop(&listener, &*accepting)
        })];
        for worker in 0..workers {
            let (queue, service) = (Arc::clone(&conns), Arc::clone(&service));
            threads.push(std::thread::spawn(move || {
                queue.run_worker(worker, &limits, &*service)
            }));
        }
        let pool = Pool {
            addr,
            conns,
            threads,
        };
        Ok((pool, service))
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, gives up idle connections, answers what is
    /// queued or in flight and joins every thread. Returns how many
    /// queued connections the drain answered.
    pub fn stop(self) -> u64 {
        self.conns.stop(self.addr);
        for thread in self.threads {
            thread.join().expect("no server thread panics");
        }
        self.conns.drained()
    }
}

/// Answers one request in the envelope every request is answered in (see
/// the module docs).
fn answer<S: Service>(service: &S, request: &Request, out: &mut Responder<'_>) {
    let started = Instant::now();
    // Ingress is where a trace is born, or adopted: a valid
    // `traceparent` continues the caller's trace with the caller's
    // sampling decision; anything else mints a fresh root. The guard
    // scopes the context to this request on this worker thread.
    let ctx = request
        .trace_context()
        .unwrap_or_else(|| TraceContext::root(trace::should_sample(service.trace_sample())));
    let _ctx_guard = trace::activate(ctx);
    let mut note = S::Note::default();
    let reply = {
        let _span = crate::span!(S::SPAN);
        service
            .route(request, &mut note)
            .unwrap_or_else(|| Reply::unrouted(request.path_query().0, S::PATHS))
    };
    out.send::<S>(&reply);
    let elapsed = started.elapsed();
    let latency = crate::histogram_with(S::LATENCY, &[("route", reply.route)]);
    if ctx.sampled {
        latency.record_duration_with_trace(elapsed, ctx.trace_id);
    } else {
        latency.record_duration(elapsed);
    }
    service.answered(note, &reply, elapsed, ctx);
}

/// Where the one response of a request is written. Whether it announces
/// `Connection: close` is decided here, at the moment it is written.
struct Responder<'a> {
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
    /// Counts `reply` in the server's requests counter and writes it. A
    /// failed write ends the connection; there is nobody left to tell.
    fn send<S: Service>(&mut self, reply: &Reply) {
        let status = reply.status.to_string();
        crate::counter_with(S::REQUESTS, &[("route", reply.route), ("status", &status)]).incr();
        let headers: Vec<(&str, &str)> = reply
            .headers
            .iter()
            .map(|(name, value)| (*name, value.as_str()))
            .collect();
        let closing = self.forced.or_else(|| self.conns.pressure());
        let written = write_reply(
            self.stream,
            status_line(reply.status),
            reply.content_type,
            &reply.body,
            &headers,
            closing.is_some(),
        );
        self.sent = Some(match written {
            Ok(()) => closing,
            Err(_) => Some(CloseReason::Error),
        });
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
    Queued,
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
    fn new(workers: usize, depth: usize) -> ConnQueue {
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
    fn drained(&self) -> u64 {
        self.drained.load(Ordering::SeqCst)
    }

    /// Begins the drain: no connection is admitted any more, idle
    /// connections are given up at once, and the accept thread bound to
    /// `addr` is woken so it can exit. Workers exit once the queue is
    /// empty; join them, and the accept thread, afterwards.
    fn stop(&self, addr: SocketAddr) {
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
    /// [`ConnQueue::stop`]; what does not fit the queue is turned away
    /// with [`Reject::QueueFull`].
    fn accept_loop(&self, listener: &TcpListener, service: &impl Service) {
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) if self.lock().stopping => return,
                Err(_) => continue,
            };
            // Responses leave in one write; without this the kernel may
            // still hold a small one back for the peer's delayed ACK.
            stream.set_nodelay(true).ok();
            match self.offer(stream, service) {
                Offer::Queued => {}
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

    fn offer(&self, stream: TcpStream, service: &impl Service) -> Offer {
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
        service.queued(s.queue.len());
        Offer::Queued
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
                service.queued(s.queue.len());
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
    fn turn_away<S: Service>(
        &self,
        service: &S,
        mut stream: TcpStream,
        why: &Reject,
        grace_ms: u64,
    ) {
        service.rejected(why);
        let mut out = Responder {
            stream: &mut stream,
            conns: self,
            forced: Some(CloseReason::Error),
            sent: None,
        };
        out.send::<S>(&why.reply(S::QUEUE_FULL));
        close_unread(stream, Duration::from_millis(grace_ms));
    }

    /// Runs worker number `worker` (below the `workers` given to
    /// [`ConnQueue::new`]): serves queued connections until the queue is
    /// empty and the server is stopping.
    fn run_worker(&self, worker: usize, limits: &Limits, service: &impl Service) {
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
        if enqueued.elapsed() > limits.deadline {
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
            let asked = (!request.persistent).then_some(CloseReason::Client);
            let mut out = Responder {
                stream: &mut stream,
                conns: self,
                forced: given_up.or(asked),
                sent: None,
            };
            answer(service, &request, &mut out);
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
        const SPAN: &'static str = "httpcore_test.request";
        const REQUESTS: &'static str = "httpcore_test.requests";
        const LATENCY: &'static str = "httpcore_test.request.ns";
        const QUEUE_FULL: &'static str = "queue full";
        const PATHS: &'static [(&'static str, &'static [&'static str])] = &[];
        type Note = ();

        fn trace_sample(&self) -> f64 {
            0.0
        }

        fn route(&self, request: &Request, _note: &mut ()) -> Option<Reply> {
            if request.target == "/slow" {
                std::thread::sleep(Duration::from_millis(150));
            }
            let body = request.target.as_bytes().to_vec();
            Some(Reply::new("echo", 200, "text/plain", body))
        }

        fn rejected(&self, why: &Reject) {
            self.rejected.lock().unwrap().push(format!("{why:?}"));
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
        pool: Pool,
        echo: Arc<Echo>,
    }

    fn start(workers: usize, read_timeout: Duration) -> Running {
        let limits = Limits {
            max_body: 1 << 20,
            read_timeout,
            deadline: Duration::from_secs(5),
        };
        let (pool, echo) = Pool::start(0, workers, 16, limits, |_| Echo::default()).unwrap();
        Running {
            addr: pool.addr(),
            pool,
            echo,
        }
    }

    impl Running {
        fn stop(self) -> Vec<(CloseReason, u64)> {
            self.pool.stop();
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
    fn refusals_and_unrouted_requests_answer_from_one_table() {
        let paths: &[(&str, &[&str])] = &[("POST", &["/in"]), ("GET", &["/out", "/stats"])];
        let replies = [
            Reject::QueueFull.reply("full"),
            Reject::QueuedTooLong.reply("full"),
            Reject::BodyTooLarge.reply("full"),
            Reject::Malformed("bad line".into()).reply("full"),
            Reply::unrouted("/in", paths),
            Reply::unrouted("/stats", paths),
            Reply::unrouted("/nope", paths),
        ];
        let answers: Vec<String> = replies
            .into_iter()
            .map(|r| {
                let body = String::from_utf8(r.body).unwrap();
                format!("{} {} {body} {:?}", r.route, r.status, r.headers)
            })
            .collect();
        assert_eq!(
            answers,
            [
                r#"admission 429 {"error":"full"} [("Retry-After", "1")]"#,
                r#"admission 503 {"error":"deadline exceeded while queued"} []"#,
                r#"malformed 413 {"error":"request body too large"} []"#,
                r#"malformed 400 {"error":"bad line"} []"#,
                r#"method 405 {"error":"use POST"} [("Allow", "POST")]"#,
                r#"method 405 {"error":"use GET"} [("Allow", "GET")]"#,
                r#"unknown 404 {"error":"no such route"} []"#,
            ]
        );
    }

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
