//! # fdc-serve — the network forecast-serving subsystem
//!
//! Wraps an embedded [`F2db`] in a small, std-only HTTP/1.1 server so a
//! deployed model configuration can be queried and maintained over the
//! network. The architecture is the classic bounded-queue worker pool:
//!
//! * an **accept thread** owns the listener and performs admission
//!   control — when the bounded connection queue is full, the request is
//!   answered `429 Too Many Requests` (with `Retry-After`) immediately
//!   instead of queueing unboundedly;
//! * a fixed pool of **worker threads** pops connections, enforces the
//!   per-request deadline (a connection that waited in the queue longer
//!   than the deadline is answered `503` without doing the work), parses
//!   each request with the shared [`fdc_obs::httpcore`] reader, and
//!   dispatches on the route table below. Connections are
//!   **persistent**: a worker serves its connection request after
//!   request until the client closes, nothing arrives for
//!   `read_timeout`, or another connection needs the worker
//!   ([`fdc_obs::httpcore::server`] has the rules; the accept thread and
//!   worker loop live there and are shared with `fdc-router`);
//! * a **flusher thread** group-commits writes: `POST /insert` requests
//!   deposit resolved rows into the [`Batcher`] and block; the flusher
//!   commits what is buffered the moment there is any, in a single
//!   [`F2db::insert_batch`] call, and whatever is deposited while that
//!   commit runs goes in the next one — so a lone insert waits for its
//!   own commit and nothing else, and `n` concurrent ones cost one pass
//!   over the engine's write path instead of `n`. A `202 Accepted` is
//!   only sent *after* the commit.
//!
//! ## Routes
//!
//! | Route | Body | Answer |
//! |---|---|---|
//! | `POST /query` | a forecast request ([`wire`]) | `200` forecast rows |
//! | `POST /explain` | a forecast request ([`wire`]) | `200` plan |
//! | `POST /insert` | `{"dims": [...], "value": v}` or `{"rows": [...]}` | `202` after commit |
//! | `POST /maintain` | — | `200` re-fit count |
//! | `POST /plan` | `{"sql": "...", "key_dims": n?}` | `200` per-node placement keys |
//! | `GET /placement` | — | `200` binary placement map ([`fdc_f2db::Placement`]) |
//! | `GET /sketch` | — | `200` binary mergeable-sketch bundle |
//! | `GET /stats` | — | `200` engine + server counters |
//! | `GET /healthz` | — | `200` (`503` on a lagging follower) |
//! | `GET /slow` | — | `200` slow-query journal (auto-`EXPLAIN` capture) |
//! | `GET /metrics` | — | `200` the process registry as Prometheus text, with exemplars |
//! | `GET /events?n=N` | — | `200` the journal's last `N` events (default 64) |
//! | `GET /snapshot` | — | `200` the process registry as JSON |
//! | `GET /wal/fetch?after=N` | — | `200` binary ship chunk (primary side of replication) |
//! | `POST /promote` | `{"tail_wal_dir": "..."}?` | `200` promotion report (follower only) |
//!
//! `/metrics`, `/events` and `/snapshot` are the process's own
//! observability: whatever it records — engine, server, replica — is
//! read on the port that serves its forecasts, and it has no second
//! listener.
//!
//! ## Distributed tracing
//!
//! Every request runs under a [`fdc_obs::TraceContext`]: adopted from
//! the caller's `traceparent` header when present (malformed headers
//! are ignored and a fresh root is minted — a bad caller cannot break
//! ingress), otherwise minted at ingress with head sampling at
//! [`ServeOptions::trace_sample`]. Spans opened while the context is
//! active carry trace/span ids into the Chrome-trace export, the
//! insert path embeds the context into its WAL record so the
//! follower's apply joins the same trace, and the per-route latency
//! histograms record the trace id of the worst observation per window
//! as an OpenMetrics exemplar. Requests slower than
//! [`ServeOptions::slow_threshold`] are captured — with the request's
//! `EXPLAIN ANALYZE` output for query routes and a WAL/batcher wait
//! breakdown for writes — into the bounded [`slow::SlowLog`] served at
//! `GET /slow`.
//!
//! ## Replication
//!
//! With [`ServeOptions::replica_of`] set the server runs as a
//! **read-only follower**: [`open_follower`] builds the engine from the
//! local log, a fetch loop ships the primary's WAL over `GET
//! /wal/fetch`, writes answer `409` with a redirect-to-the-primary
//! error, and `POST /promote` turns the follower into a writable
//! primary (see [`replica`] for the protocol and the promotion state
//! machine).
//!
//! ## Graceful drain
//!
//! [`Server::shutdown`] stops accepting, closes idle connections at
//! once, answers everything already queued or in flight, joins the
//! workers, commits any still-buffered insert rows,
//! runs [`F2db::maintain`], and — when a catalog path is configured —
//! persists one `F2CK` checkpoint container (crash-safely): catalog,
//! base series and the rows of the incomplete next time stamp, so
//! **every acknowledged write survives a restart** and
//! [`F2db::open_catalog`] alone brings all of it back. The drain is
//! observable: a `ServeShutdown` journal event records what was drained
//! and flushed.
//!
//! ## Durability
//!
//! With [`ServeOptions::wal_dir`] set, [`open_engine`] attaches a
//! write-ahead log ([`fdc_wal`]) under the engine: an insert's `202` is
//! only sent after its rows are fsynced (group-committed — concurrent
//! requests coalesce into one fsync via the [`Batcher`] *and* one WAL
//! append), so acknowledged writes survive a SIGKILL, not just a
//! graceful drain. A checkpoint then also records the WAL position it
//! covers and truncates the log behind it; on restart [`open_engine`]
//! replays the suffix. `GET /stats` reports the log's position under
//! the `"wal"` key.

pub mod batcher;
pub mod json;
pub mod replica;
pub mod slow;
pub mod wire;

pub use batcher::{Batcher, DepositOutcome};
pub use replica::{open_follower, replica_marker_path, PromotionReport, Replica};
pub use slow::{SlowEntry, SlowLog};

use fdc_cube::NodeId;
use fdc_f2db::{
    ExplainReport, F2db, F2dbError, QueryAnswer, QueryMode, QueryRequest, QueryResult, WalRecord,
};
use fdc_obs::export::prom;
use fdc_obs::httpcore::server::{CloseReason, ConnQueue, Limits, Reject, Responder, Service};
use fdc_obs::httpcore::{status_line, Request};
use fdc_obs::{journal, names, trace, Event, TraceContext};
use json::Writer;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wire::{count_body, err_body};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads answering requests.
    pub workers: usize,
    /// Bound on connections queued for a worker; beyond it the accept
    /// thread answers `429`.
    pub queue_depth: usize,
    /// Per-request deadline: time in the queue counts against it (for a
    /// connection's first request), and an insert waits at most this
    /// long for its flush.
    pub deadline: Duration,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Socket read timeout while parsing a request — and how long an
    /// idle kept-alive connection is held before it is closed.
    pub read_timeout: Duration,
    /// When set, [`Server::shutdown`] persists the engine here as one
    /// `F2CK` checkpoint container, and [`open_engine`] opens it.
    pub catalog_path: Option<PathBuf>,
    /// When set, [`open_engine`] attaches a write-ahead log in this
    /// directory: every acknowledged insert is durable *before* its
    /// `202`, and a SIGKILL loses nothing. Without it the server falls
    /// back to the graceful-drain-only contract.
    pub wal_dir: Option<PathBuf>,
    /// Whether the write-ahead log fsyncs (group-committed) before
    /// acknowledging. `false` trades the crash guarantee for speed —
    /// useful for benchmarks quantifying exactly that trade.
    pub wal_fsync: bool,
    /// When set, this server is a read-only follower replica of the
    /// primary at this address (`host:port`): [`open_follower`] builds
    /// the engine, a fetch loop ships the primary's WAL into
    /// [`ServeOptions::wal_dir`], and writes answer `409` until `POST
    /// /promote`.
    pub replica_of: Option<String>,
    /// How long the follower's fetch loop sleeps between polls once it
    /// is caught up (it drains without sleeping while behind).
    pub replica_poll: Duration,
    /// On a follower, `GET /healthz` degrades to `503` when replication
    /// lag exceeds this many sequences.
    pub replica_lag_bound: u64,
    /// Head-sampling rate for traces minted at ingress (requests
    /// arriving *with* a `traceparent` header keep the caller's
    /// sampling decision). `1.0` traces everything, `0.0` nothing.
    pub trace_sample: f64,
    /// Requests slower than this are captured into the slow-query log
    /// (`GET /slow`) with auto-`EXPLAIN` / wait-breakdown context.
    /// `Duration::ZERO` captures every request.
    pub slow_threshold: Duration,
    /// Bound on slow-query-log entries kept; the newest win.
    pub slow_log_cap: usize,
    /// When set, this server is one shard of a partitioned deployment
    /// and owns exactly these base nodes: [`open_engine`] applies
    /// [`F2db::with_base_partition`] *before* WAL replay (the replayed
    /// rows advance on the owned count), inserts for foreign bases
    /// answer `421 Misdirected Request`, and queries are limited to
    /// resident nodes. A router fronts several such shards.
    pub partition_bases: Option<Vec<NodeId>>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(5),
            max_body: 1 << 20,
            read_timeout: Duration::from_secs(2),
            catalog_path: None,
            wal_dir: None,
            wal_fsync: true,
            replica_of: None,
            replica_poll: Duration::from_millis(10),
            replica_lag_bound: 10_000,
            trace_sample: 1.0,
            slow_threshold: Duration::from_millis(250),
            slow_log_cap: 64,
            partition_bases: None,
        }
    }
}

/// What the graceful drain accomplished, returned by
/// [`Server::shutdown`].
#[derive(Debug)]
pub struct ShutdownReport {
    /// The address the server was bound to.
    pub addr: SocketAddr,
    /// Queued requests answered after the listener stopped accepting.
    pub drained_requests: u64,
    /// Buffered insert rows committed by the final flush.
    pub flushed_rows: u64,
    /// Models re-estimated by the shutdown `maintain` pass.
    pub refitted: usize,
    /// Whether a checkpoint container was persisted.
    pub saved_catalog: bool,
    /// Rows of the incomplete next time stamp persisted in it.
    pub saved_pending_rows: usize,
    /// The WAL position the persisted checkpoint covers; `None` when no
    /// write-ahead log is attached.
    pub wal_checkpoint_seq: Option<u64>,
}

/// What [`open_engine`] recovered on the way to a servable engine.
#[derive(Debug)]
pub struct EngineRecovery {
    /// Whether a persisted catalog was found and opened (otherwise the
    /// caller's freshly configured engine was used).
    pub opened_catalog: bool,
    /// WAL replay report, when [`ServeOptions::wal_dir`] is set.
    pub wal: Option<fdc_f2db::RecoveryReport>,
    /// Whether a [`replica::REPLICA_MARKER`] was found in the WAL
    /// directory: the engine opened read-only and every write answers
    /// [`F2dbError::ReadOnly`] until the follower is promoted.
    pub replica_marker: bool,
}

/// Builds the engine a server should front, according to `opts`:
///
/// 1. when [`ServeOptions::catalog_path`] points at an existing file it
///    is opened (either format — an `F2CK` checkpoint container, which
///    also restores the base series and the pending rows, or a plain
///    catalog) in place of the caller's `fresh` engine;
/// 2. when [`ServeOptions::wal_dir`] is set the write-ahead log there is
///    replayed and attached, so every previously acknowledged insert is
///    recovered and every future one is durable before its `202`.
pub fn open_engine(
    fresh: F2db,
    opts: &ServeOptions,
) -> Result<(Arc<F2db>, EngineRecovery), F2dbError> {
    let mut opened_catalog = false;
    let mut db = match &opts.catalog_path {
        Some(path) if path.exists() => {
            opened_catalog = true;
            F2db::open_catalog(fresh.dataset().clone(), path)?
        }
        _ => fresh,
    };
    // Partition before WAL replay: a shard's log only carries owned
    // rows, and replaying them must advance on the owned count.
    if let Some(owned) = &opts.partition_bases {
        db = db.with_base_partition(owned)?;
    }
    let wal = match &opts.wal_dir {
        Some(dir) => {
            let wal_opts = fdc_wal::WalOptions {
                fsync: opts.wal_fsync,
                ..fdc_wal::WalOptions::default()
            };
            let (recovered, report) = db.attach_wal(dir, wal_opts)?;
            db = recovered;
            Some(report)
        }
        None => None,
    };
    // A WAL directory still carrying a follower's REPLICA marker must
    // not come up writable: its log is a replicated prefix owned by the
    // promotion protocol, and writing past it here would fork history.
    // The engine serves reads; writes answer a typed ReadOnly error.
    let replica_marker = opts
        .wal_dir
        .as_deref()
        .is_some_and(|d| replica_marker_path(d).exists());
    if replica_marker {
        db.set_read_only(true);
    }
    Ok((
        Arc::new(db),
        EngineRecovery {
            opened_catalog,
            wal,
            replica_marker,
        },
    ))
}

/// State shared by the accept thread, workers and flusher.
struct Shared {
    db: Arc<F2db>,
    opts: ServeOptions,
    /// The bounded connection queue and the keep-alive bookkeeping.
    conns: ConnQueue,
    batcher: Batcher,
    /// The slow-request ring behind `GET /slow`.
    slow: SlowLog,
    /// Present when this server fronts a follower replica; routes
    /// consult it for lag, write rejection and promotion.
    replica: Option<Arc<Replica>>,
}

/// The running server: a bound listener plus its thread pool. Stop it
/// with [`Server::shutdown`] — dropping without a shutdown leaks the
/// threads (they park on the queue) but keeps the process safe.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    flusher_handle: Option<JoinHandle<(u64, u64)>>,
}

impl Server {
    /// Binds `127.0.0.1:port` (`0` picks an ephemeral port — read it
    /// back with [`Server::addr`]) and starts the accept thread, the
    /// worker pool and the insert flusher.
    pub fn start(db: Arc<F2db>, port: u16, opts: ServeOptions) -> std::io::Result<Server> {
        Server::start_inner(db, port, opts, None)
    }

    /// [`Server::start`] for a follower replica built by
    /// [`open_follower`]: the same worker pool, plus the replica state
    /// the routes consult (`/healthz` lag, write rejection, `POST
    /// /promote`).
    pub fn start_with_replica(
        db: Arc<F2db>,
        port: u16,
        opts: ServeOptions,
        replica: Arc<Replica>,
    ) -> std::io::Result<Server> {
        Server::start_inner(db, port, opts, Some(replica))
    }

    fn start_inner(
        db: Arc<F2db>,
        port: u16,
        opts: ServeOptions,
        replica: Option<Arc<Replica>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        let addr = listener.local_addr()?;
        let slow = SlowLog::new(opts.slow_threshold, opts.slow_log_cap);
        let shared = Arc::new(Shared {
            db,
            conns: ConnQueue::new(opts.workers.max(1), opts.queue_depth),
            opts,
            batcher: Batcher::default(),
            slow,
            replica,
        });
        journal().publish(Event::ServeStart {
            addr: addr.to_string(),
        });

        let accept_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.conns.accept_loop(&listener, &*shared))
        };
        let limits = Limits {
            max_body: shared.opts.max_body,
            read_timeout: shared.opts.read_timeout,
            deadline: shared.opts.deadline,
        };
        let worker_handles = (0..shared.opts.workers.max(1))
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.conns.run_worker(worker, &limits, &*shared))
            })
            .collect();
        let flusher_handle = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || shared.batcher.run_flusher(&shared.db))
        };
        Ok(Server {
            addr,
            shared,
            accept_handle: Some(accept_handle),
            worker_handles,
            flusher_handle: Some(flusher_handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server fronts.
    pub fn db(&self) -> &Arc<F2db> {
        &self.shared.db
    }

    /// The slow-query log backing `GET /slow` — the shell's `\slow`
    /// meta command reads it in-process instead of scraping itself.
    pub fn slow_log(&self) -> &SlowLog {
        &self.shared.slow
    }

    /// Gracefully drains and stops the server: stop accepting and give
    /// up idle kept-alive connections → answer every queued and
    /// in-flight request → join the workers → commit buffered insert
    /// rows → `maintain` → persist the checkpoint container (when
    /// configured) → publish the `ServeShutdown` journal event.
    pub fn shutdown(mut self) -> Result<ShutdownReport, F2dbError> {
        self.shared.conns.stop(self.addr);
        if let Some(h) = self.accept_handle.take() {
            h.join().expect("accept thread panicked");
        }
        // Workers drain the queue, then exit.
        for h in self.worker_handles.drain(..) {
            h.join().expect("worker thread panicked");
        }
        // No depositor is left; whatever is still buffered commits now.
        let flushed_rows = self.shared.batcher.flush_once(&self.shared.db);
        self.shared.batcher.stop();
        if let Some(h) = self.flusher_handle.take() {
            h.join().expect("flusher thread panicked");
        }
        // An unpromoted follower stops its fetch loop and leaves its
        // state exactly as replicated: no maintain, no catalog save —
        // the local log *is* the state, and a restart replays it.
        if let Some(replica) = &self.shared.replica {
            replica.seal();
        }
        if self.shared.db.is_read_only() {
            let drained_requests = self.shared.conns.drained();
            journal().publish(Event::ServeShutdown {
                addr: self.addr.to_string(),
                drained_requests,
                flushed_rows,
            });
            return Ok(ShutdownReport {
                addr: self.addr,
                drained_requests,
                flushed_rows,
                refitted: 0,
                saved_catalog: false,
                saved_pending_rows: 0,
                wal_checkpoint_seq: None,
            });
        }
        let refitted = self.shared.db.maintain()?;
        let mut saved_catalog = false;
        let mut saved_pending_rows = 0;
        if let Some(path) = &self.shared.opts.catalog_path {
            self.shared.db.save_checkpoint(path)?;
            saved_pending_rows = self.shared.db.pending_rows().len();
            saved_catalog = true;
        }
        let wal_checkpoint_seq = self.shared.db.wal_stats().map(|s| s.checkpoint_seq);
        let drained_requests = self.shared.conns.drained();
        journal().publish(Event::ServeShutdown {
            addr: self.addr.to_string(),
            drained_requests,
            flushed_rows,
        });
        Ok(ShutdownReport {
            addr: self.addr,
            drained_requests,
            flushed_rows,
            refitted,
            saved_catalog,
            saved_pending_rows,
            wal_checkpoint_seq,
        })
    }
}

// ---------------------------------------------------------------------------
// Connections and requests
// ---------------------------------------------------------------------------

impl Service for Shared {
    fn reject(&self, why: &Reject, out: &mut Responder<'_>) {
        let rejected = |reason| fdc_obs::counter_with(names::SERVE_REJECTED, &[("reason", reason)]);
        let (route, status, error, extra): (_, _, _, &[(&str, &str)]) = match why {
            Reject::QueueFull => {
                rejected("queue_full").incr();
                (
                    "admission",
                    429,
                    "connection queue full",
                    &[("Retry-After", "1")],
                )
            }
            Reject::QueuedTooLong => {
                rejected("deadline").incr();
                ("admission", 503, "deadline exceeded while queued", &[])
            }
            Reject::BodyTooLarge => ("malformed", 413, "request body too large", &[]),
            Reject::Malformed(m) => ("malformed", 400, m.as_str(), &[]),
        };
        let body = Body::Json(err_body(error));
        respond(out, route, status, &body, extra);
    }

    fn closed(&self, reason: CloseReason, requests: u64) {
        fdc_obs::histogram!(names::SERVE_CONN_REQUESTS).record(requests);
        fdc_obs::counter_with(names::SERVE_CONN_CLOSED, &[("reason", reason.as_str())]).incr();
    }

    fn queued(&self, depth: usize) {
        fdc_obs::gauge(names::SERVE_QUEUE_DEPTH).set(depth as i64);
    }

    fn answer(&self, request: &Request, budget: Duration, out: &mut Responder<'_>) {
        let started = Instant::now();
        // Request ingress is where a trace is born (or adopted): a valid
        // `traceparent` header continues the caller's trace with the
        // caller's sampling decision; anything else mints a fresh root,
        // head-sampled at `ServeOptions::trace_sample`. The guard scopes
        // the context to this request on this worker thread.
        let ctx = request
            .trace_context()
            .unwrap_or_else(|| TraceContext::root(trace::should_sample(self.opts.trace_sample)));
        let _ctx_guard = trace::activate(ctx);
        // The decoded forecast request, kept for the slow log.
        let mut forecast = None;
        let (route, status, body, extra) = {
            let _span = fdc_obs::span!("serve.request");
            match (request.method.as_str(), request.path_query()) {
                // The binary routes: ship chunks, and the mergeable-sketch
                // bundle a router folds into a fleet-wide view.
                ("GET", ("/wal/fetch", query)) => {
                    let (status, body) = handle_wal_fetch(self, query);
                    ("wal_fetch", status, body, Vec::new())
                }
                ("GET", ("/sketch", _)) => {
                    ("sketch", 200, Body::Binary(sketch_bundle(self)), Vec::new())
                }
                // The map a router plans over — counted with `/plan`,
                // the other half of planning.
                ("GET", ("/placement", _)) => {
                    let map = self.db.placement().encode().to_vec();
                    ("plan", 200, Body::Binary(map), Vec::new())
                }
                // The one answer that is neither JSON nor binary.
                ("GET", ("/metrics", _)) => {
                    let text = fdc_obs::encode_prometheus(&fdc_obs::snapshot());
                    ("metrics", 200, Body::Prometheus(text), Vec::new())
                }
                _ => {
                    let (route, status, body, extra) =
                        route_request(self, request, budget, &mut forecast);
                    (route, status, Body::Json(body), extra)
                }
            }
        };
        let extra_refs: Vec<(&str, &str)> = extra.iter().map(|(n, v)| (*n, v.as_str())).collect();
        respond(out, route, status, &body, &extra_refs);
        let elapsed = started.elapsed();
        record_latency(route, elapsed, ctx);
        maybe_capture_slow(self, forecast, route, status, elapsed, ctx);
    }
}

/// Records the route/status counter and writes the response.
fn respond(
    out: &mut Responder<'_>,
    route: &'static str,
    status: u16,
    body: &Body,
    extra: &[(&str, &str)],
) {
    fdc_obs::counter_with(
        names::SERVE_REQUESTS,
        &[("route", route), ("status", &status.to_string())],
    )
    .incr();
    let (content_type, bytes) = match body {
        Body::Json(text) => ("application/json", text.as_bytes()),
        Body::Prometheus(text) => (prom::CONTENT_TYPE, text.as_bytes()),
        Body::Binary(bytes) => ("application/octet-stream", bytes.as_slice()),
    };
    out.send(status_line(status), content_type, bytes, extra);
}

/// Records a request's latency into the per-route histogram; sampled
/// requests attach their trace id, so `/metrics` can emit the family's
/// worst-of-window observation as an OpenMetrics exemplar.
fn record_latency(route: &'static str, elapsed: Duration, ctx: TraceContext) {
    let h = fdc_obs::histogram_with(names::SERVE_REQUEST_NS, &[("route", route)]);
    if ctx.sampled {
        h.record_duration_with_trace(elapsed, ctx.trace_id);
    } else {
        h.record_duration(elapsed);
    }
}

/// After the response is on the wire: when the request ran past the
/// slow threshold, capture the investigation context — re-running the
/// decoded request as `EXPLAIN ANALYZE` (same node filter, so a routed
/// sub-request on a partitioned shard analyzes exactly the rows it
/// served; off the client's critical path, on the worker that just went
/// slow), or snapshotting the WAL/batcher wait state for writes — into
/// the bounded slow log.
fn maybe_capture_slow(
    shared: &Shared,
    forecast: Option<QueryRequest>,
    route: &'static str,
    status: u16,
    elapsed: Duration,
    ctx: TraceContext,
) {
    if elapsed < shared.slow.threshold() {
        return;
    }
    // An analyzed plan executes the exact derivation: drop the controls.
    let analyze = forecast.map(|request| QueryRequest {
        mode: QueryMode::ExplainAnalyze,
        approx: None,
        ..request
    });
    let explain = analyze
        .as_ref()
        .and_then(|request| shared.db.execute(request).ok())
        .and_then(QueryAnswer::into_plan)
        .map(|report| report.to_masked_string());
    let sql = analyze.map(|request| request.sql);
    let wait = (route == "insert").then(|| {
        let mut w = Writer::new();
        w.begin_object();
        w.key("buffered_rows").usize(shared.batcher.buffered());
        w.key("queue_depth").usize(shared.conns.len()).key("wal");
        match shared.db.wal_stats() {
            Some(wal) => {
                w.begin_object().key("last_seq").u64(wal.last_seq);
                w.key("durable_seq").u64(wal.durable_seq).end_object()
            }
            None => w.null(),
        };
        w.end_object();
        w.finish()
    });
    shared.slow.push(SlowEntry {
        unix_ms: slow::unix_ms(),
        route,
        status,
        latency_ns: elapsed.as_nanos() as u64,
        trace_id: ctx.sampled.then_some(ctx.trace_id),
        sql,
        explain,
        wait,
    });
    fdc_obs::counter!(names::SERVE_SLOW_CAPTURED).incr();
}

/// What a route answers with.
enum Body {
    Json(String),
    /// The Prometheus text exposition of `GET /metrics`.
    Prometheus(String),
    /// `application/octet-stream`: ship chunks and sketch bundles.
    Binary(Vec<u8>),
}

// ---------------------------------------------------------------------------
// Routing and handlers
// ---------------------------------------------------------------------------

type Routed = (&'static str, u16, String, Vec<(&'static str, String)>);

/// How many of the journal's newest events `GET /events` answers with
/// when the request names no `n`.
const EVENTS: usize = 64;

fn route_request(
    shared: &Shared,
    request: &Request,
    remaining: Duration,
    forecast: &mut Option<QueryRequest>,
) -> Routed {
    let (path, query) = request.path_query();
    let no_extra = Vec::new;
    match (request.method.as_str(), path) {
        ("POST", "/query" | "/explain") => {
            let (status, body) = match stale_placement(shared, request) {
                Some(refusal) => (421, refusal),
                None => handle_forecast(shared, path, &request.body, forecast),
            };
            let route = if path == "/query" { "query" } else { "explain" };
            (route, status, body, no_extra())
        }
        ("POST", "/insert") => match follower_write_rejection(shared, "insert") {
            Some(routed) => routed,
            None => handle_insert(shared, &request.body, remaining),
        },
        ("POST", "/maintain") => match follower_write_rejection(shared, "maintain") {
            Some(routed) => routed,
            None => {
                let (status, body) = match shared.db.maintain() {
                    Ok(refitted) => (200, count_body("refitted", refitted)),
                    Err(e) => (500, err_body(&e.to_string())),
                };
                ("maintain", status, body, no_extra())
            }
        },
        ("POST", "/promote") => handle_promote(shared, &request.body),
        ("POST", "/plan") => {
            let (status, body) = handle_plan(shared, &request.body);
            ("plan", status, body, no_extra())
        }
        ("GET", "/stats") => ("stats", 200, stats_body(shared), no_extra()),
        ("GET", "/healthz") => handle_healthz(shared),
        ("GET", "/slow") => ("slow", 200, shared.slow.to_json(), no_extra()),
        ("GET", "/events") => {
            let (status, body) = match query_u64(query, "n") {
                Ok(n) => (200, journal().recent_json(n.map_or(EVENTS, |n| n as usize))),
                Err(m) => (400, err_body(&m)),
            };
            ("events", status, body, no_extra())
        }
        ("GET", "/snapshot") => ("snapshot", 200, fdc_obs::snapshot().to_json(), no_extra()),
        (_, "/query" | "/explain" | "/insert" | "/maintain" | "/promote" | "/plan") => (
            "method",
            405,
            err_body("use POST"),
            vec![("Allow", "POST".to_string())],
        ),
        (
            _,
            "/stats" | "/healthz" | "/slow" | "/wal/fetch" | "/sketch" | "/placement" | "/metrics"
            | "/events" | "/snapshot",
        ) => (
            "method",
            405,
            err_body("use GET"),
            vec![("Allow", "GET".to_string())],
        ),
        _ => ("unknown", 404, err_body("no such route"), no_extra()),
    }
}

/// HTTP status for an engine error: wrong-shard errors are routing
/// mistakes (`421 Misdirected Request` — a router must not retry them
/// against this shard), everything else the client's fault.
fn f2db_status(e: &F2dbError) -> u16 {
    match e {
        F2dbError::WrongShard(_) => 421,
        _ => 400,
    }
}

/// A routed forecast planned over another placement map than this
/// engine's: the refusal, when the request's [`wire::PLACEMENT_HEADER`]
/// names another fingerprint. A request without the header (a client,
/// not a router) is never refused here.
fn stale_placement(shared: &Shared, request: &Request) -> Option<String> {
    let seen = request.header(wire::PLACEMENT_HEADER)?;
    let own = shared.db.placement().fingerprint();
    (u64::from_str_radix(seen, 16).ok() != Some(own)).then(|| {
        err_body(&format!(
            "placement map {seen} is not this shard's ({}): fetch GET /placement again",
            wire::placement_header(own)
        ))
    })
}

/// `POST /query` and `POST /explain`: decode → [`F2db::execute`] →
/// render. The decoded request is left in `forecast` for the slow log.
fn handle_forecast(
    shared: &Shared,
    path: &str,
    body: &[u8],
    forecast: &mut Option<QueryRequest>,
) -> (u16, String) {
    let request = match wire::parse_body(body).and_then(|doc| wire::decode(path, &doc)) {
        Ok(request) => forecast.insert(request),
        Err(m) => return (400, err_body(&m)),
    };
    match shared.db.execute(request) {
        Ok(QueryAnswer::Rows(result)) => (200, rows_body(&result)),
        Ok(QueryAnswer::Plan(report)) => (200, plan_body(&report)),
        Err(e) => (f2db_status(&e), err_body(&e.to_string())),
    }
}

fn rows_body(result: &QueryResult) -> String {
    // Room for every row — its label, and some thirty bytes a value —
    // so the answer is written without growing.
    let room = |r: &fdc_f2db::QueryRow| r.label.len() + 48 + 32 * r.values.len();
    let mut w = Writer::with_capacity(16 + result.rows.iter().map(room).sum::<usize>());
    w.begin_object().key("rows").begin_array();
    for r in &result.rows {
        w.begin_object().key("node").usize(r.node);
        w.key("label").str(&r.label).key("values").begin_array();
        for (t, v) in &r.values {
            w.begin_array().i64(*t).f64(*v).end_array();
        }
        w.end_array();
        if let Some(a) = &r.approx {
            w.key("approx").begin_object().key("sampled").u64(a.sampled);
            w.key("population").u64(a.population);
            w.key("confidence").f64(a.confidence).key("ci_half");
            f64_array(&mut w, &a.ci_half);
            w.end_object();
        }
        w.end_object();
    }
    w.end_array().end_object();
    w.finish()
}

fn f64_array(w: &mut Writer, values: &[f64]) {
    w.begin_array();
    for v in values {
        w.f64(*v);
    }
    w.end_array();
}

fn plan_body(report: &ExplainReport) -> String {
    let mut w = Writer::with_capacity(256);
    w.begin_object().key("horizon").usize(report.horizon);
    w.key("analyzed").bool(report.total_elapsed.is_some());
    w.key("rows").begin_array();
    for r in &report.rows {
        w.begin_object().key("node").usize(r.node);
        w.key("label").str(&r.label);
        w.key("scheme")
            .str(r.scheme_kind)
            .key("weight")
            .f64(r.weight);
        w.key("sources").begin_array();
        for s in &r.sources {
            w.begin_object().key("label").str(&s.label);
            w.key("invalid").bool(s.invalid).end_object();
        }
        w.end_array();
        if let Some(a) = &r.analysis {
            w.key("elapsed_ns").u64(a.elapsed.as_nanos() as u64);
            w.key("values");
            f64_array(&mut w, &a.values);
        }
        if let Some(ap) = &r.approx {
            w.key("approx").begin_object();
            w.key("population").u64(ap.population);
            w.key("sampled").u64(ap.sampled);
            w.key("strata").usize(ap.strata).key("budget");
            match ap.budget {
                Some(b) => w.usize(b),
                None => w.null(),
            };
            // No target is `null`, as a number that is none.
            w.key("target_ci").f64(ap.target_ci.unwrap_or(f64::NAN));
            w.end_object();
        }
        w.end_object();
    }
    w.end_array().end_object();
    w.finish()
}

fn handle_insert(shared: &Shared, body: &[u8], remaining: Duration) -> Routed {
    let no_extra = Vec::new;
    // Each row's labels are resolved to its base node as they are read.
    // The resolver holds the data set's read lock and is gone with this
    // statement: it must be, before `deposit_and_wait` — the commit the
    // deposit waits for takes the write lock.
    let decoded = wire::decode_insert(body, &mut shared.db.base_resolver(), |node, value, _| {
        (node, value)
    });
    let rows = match decoded {
        Ok(rows) => rows,
        Err(m) => return ("insert", 400, err_body(&m), no_extra()),
    };
    // A misrouted row is rejected *before* the batcher: mixing it into
    // the coalesced commit would fail everyone's flush, and the router
    // needs the typed 421 to fix its placement rather than retry here.
    if let Some(&(node, _)) = rows.iter().find(|(n, _)| !shared.db.owns_base(*n)) {
        return (
            "insert",
            421,
            err_body(&format!(
                "base node {node} is owned by another shard of this partitioned deployment"
            )),
            no_extra(),
        );
    }
    let accepted = rows.len();
    match shared.batcher.deposit_and_wait(&rows, remaining) {
        DepositOutcome::Committed => ("insert", 202, count_body("accepted", accepted), no_extra()),
        DepositOutcome::Failed(msg) => ("insert", 500, err_body(&msg), no_extra()),
        DepositOutcome::TimedOut => {
            fdc_obs::counter_with(names::SERVE_REJECTED, &[("reason", "deadline")]).incr();
            (
                "insert",
                503,
                err_body("insert flush deadline exceeded"),
                vec![("Retry-After", "1".to_string())],
            )
        }
    }
}

/// On an unpromoted follower, every write route answers `409` with an
/// explicit redirect-to-the-primary error instead of reaching the
/// engine's read-only guard through the batcher. `None` means the
/// write may proceed (not a replica, or already promoted).
fn follower_write_rejection(shared: &Shared, route: &'static str) -> Option<Routed> {
    let replica = shared.replica.as_ref()?;
    if replica.is_promoted() {
        return None;
    }
    Some((
        route,
        409,
        err_body(&format!(
            "read-only follower replica of {}; write to the primary or POST /promote first",
            replica.primary()
        )),
        Vec::new(),
    ))
}

/// `POST /promote` — runs the follower's promotion state machine. The
/// optional JSON body names the dead primary's WAL directory for the
/// tail replay: `{"tail_wal_dir": "/path/to/primary/wal"}`.
fn handle_promote(shared: &Shared, body: &[u8]) -> Routed {
    let no_extra = Vec::new;
    let Some(replica) = shared.replica.as_ref() else {
        return (
            "promote",
            400,
            err_body("this server is not a replica"),
            no_extra(),
        );
    };
    let tail = if body.is_empty() {
        None
    } else {
        match wire::parse_body(body) {
            Ok(doc) => doc
                .get("tail_wal_dir")
                .and_then(json::Value::as_str)
                .map(PathBuf::from),
            Err(m) => return ("promote", 400, err_body(&m), no_extra()),
        }
    };
    match replica.promote(tail.as_deref()) {
        Ok(report) => {
            let mut w = Writer::new();
            w.begin_object().key("promoted").bool(true);
            w.key("applied_seq").u64(report.applied_seq);
            w.key("tail_records").u64(report.tail_records);
            w.key("last_seq").u64(report.last_seq);
            w.key("promotion_ns").u64(report.promotion_ns);
            w.end_object();
            ("promote", 200, w.finish(), no_extra())
        }
        Err(e) => ("promote", 409, err_body(&e.to_string()), no_extra()),
    }
}

/// `POST /plan` — the placement plan of a query, from this engine's
/// placement map: for every node the query resolves to, the
/// consistent-hash placement keys of its derivation closure under
/// `key_dims` leading dimensions (sorted, each once). A router plans
/// the same way from the map itself (`GET /placement`); this route is
/// for operators and the benchmark's probe.
fn handle_plan(shared: &Shared, body: &[u8]) -> (u16, String) {
    let decoded =
        wire::parse_body(body).and_then(|doc| Ok((wire::decode("/plan", &doc)?.sql, doc)));
    let (sql, doc) = match decoded {
        Ok(v) => v,
        Err(m) => return (400, err_body(&m)),
    };
    let key_dims = match doc.get("key_dims") {
        None => 0usize,
        Some(v) => match v.as_f64().filter(|f| f.fract() == 0.0 && *f >= 0.0) {
            Some(f) => f as usize,
            None => return (400, err_body("\"key_dims\" must be a non-negative integer")),
        },
    };
    let map = shared.db.placement();
    // The most permissive mode: any `EXPLAIN` prefix is accepted.
    let nodes = match map.plan(&sql, QueryMode::ExplainAnalyze, None) {
        Ok(nodes) => nodes,
        Err(e) => return (f2db_status(&e), err_body(&e.to_string())),
    };
    let mut w = Writer::new();
    w.begin_object().key("key_dims").usize(key_dims);
    w.key("sites").begin_array();
    for node in nodes {
        let mut keys: Vec<String> = map
            .closure(node)
            .into_iter()
            .map(|b| map.key(b, key_dims))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        w.begin_object().key("node").usize(node);
        w.key("label")
            .str(&map.label(node))
            .key("keys")
            .begin_array();
        for key in &keys {
            w.str(key);
        }
        w.end_array().end_object();
    }
    w.end_array().end_object();
    (200, w.finish())
}

/// `GET /sketch` — this process's mergeable observability state as one
/// binary [`SketchBundle`]: the drift monitor's per-key accuracy
/// partials (restricted to resident nodes, so a fleet-wide fold is a
/// disjoint union) and the t-digest behind every per-route latency
/// histogram. The router folds one bundle per shard into `/stats` and
/// `/metrics` views no single process could compute from quantiles.
fn sketch_bundle(shared: &Shared) -> Vec<u8> {
    let accuracy = match shared.db.drift_monitor() {
        Some(acc) => acc
            .summaries()
            .into_iter()
            .filter(|s| shared.db.is_resident(s.key as NodeId))
            .collect(),
        None => Vec::new(),
    };
    let prefix = format!("{}{{", names::SERVE_REQUEST_NS);
    let snap = fdc_obs::snapshot();
    let mut digests = Vec::new();
    for (key, _) in &snap.histograms {
        if key.starts_with(&prefix) {
            // The registry interns labeled series under their full key,
            // so the lookup lands on the live histogram, not a new one.
            digests.push((
                key.clone(),
                fdc_obs::registry().histogram(key).merged_digest(),
            ));
        }
    }
    fdc_obs::SketchBundle { accuracy, digests }.encode()
}

/// `GET /healthz` — degrades to `503` on a follower whose replication
/// lag exceeds [`ServeOptions::replica_lag_bound`], so a load balancer
/// stops routing reads at a replica serving stale forecasts.
fn handle_healthz(shared: &Shared) -> Routed {
    let no_extra = Vec::new;
    match shared.replica.as_ref().filter(|r| !r.is_promoted()) {
        Some(replica) => {
            let lag = replica.lag();
            let (status, state) = if lag > shared.opts.replica_lag_bound {
                (503, "degraded")
            } else {
                (200, "ok")
            };
            let mut w = Writer::new();
            w.begin_object().key("status").str(state);
            w.key("replication_lag_seq").u64(lag).end_object();
            ("healthz", status, w.finish(), no_extra())
        }
        None => ("healthz", 200, "{\"status\":\"ok\"}".into(), no_extra()),
    }
}

/// Largest chunk `GET /wal/fetch` will build, whatever the follower
/// asks for.
const SHIP_MAX_BYTES_CAP: usize = 4 << 20;

/// `GET /wal/fetch?after=N&max_bytes=M` — the primary side of log
/// shipping. Answers a binary [`fdc_wal::ShipChunk`] of durable frames
/// past `after`; a fetch below the checkpoint watermark is `410 Gone`
/// (the frames were truncated — re-bootstrap the follower).
fn handle_wal_fetch(shared: &Shared, query: &str) -> (u16, Body) {
    let Some(wal) = shared.db.wal() else {
        return (404, Body::Json(err_body("no write-ahead log attached")));
    };
    let (after, max_bytes) = match (query_u64(query, "after"), query_u64(query, "max_bytes")) {
        (Ok(after), Ok(max)) => (
            after.unwrap_or(0),
            (max.unwrap_or(256 << 10) as usize).clamp(1, SHIP_MAX_BYTES_CAP),
        ),
        (Err(m), _) | (_, Err(m)) => return (400, Body::Json(err_body(&m))),
    };
    match wal.ship_chunk(after, max_bytes) {
        Ok(chunk) => {
            // A traced frame carries the originating insert's context;
            // adopting the first one puts this ship span in the *same
            // trace* as the insert's serve/WAL-commit spans, so the
            // merged timeline shows the write leaving the primary.
            let _ship_ctx = chunk
                .frames
                .iter()
                .find_map(|(_, payload)| WalRecord::peek_trace(payload))
                .map(|(trace_id, span_id)| {
                    trace::activate(TraceContext {
                        trace_id,
                        span_id,
                        sampled: true,
                    })
                });
            let _ship_span = fdc_obs::span!("serve.wal_ship");
            fdc_obs::gauge(names::WAL_DURABLE_SEQ).set(chunk.durable_seq as i64);
            (200, Body::Binary(fdc_wal::encode_chunk(&chunk)))
        }
        Err(e @ fdc_wal::ShipError::WatermarkGap { .. }) => {
            (410, Body::Json(err_body(&e.to_string())))
        }
        Err(e) => (500, Body::Json(err_body(&e.to_string()))),
    }
}

/// Parses an optional `name=<u64>` pair out of a query string.
fn query_u64(query: &str, name: &str) -> Result<Option<u64>, String> {
    for pair in query.split('&') {
        let Some((k, v)) = pair.split_once('=') else {
            continue;
        };
        if k == name {
            return v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| format!("query parameter {name:?} must be an unsigned integer"));
        }
    }
    Ok(None)
}

/// Per-route request-latency quantiles from the digest-backed
/// `serve.request.ns{route=...}` histograms, as a JSON object keyed by
/// route. Empty object until the first request is recorded.
fn write_latency(w: &mut Writer) {
    let snap = fdc_obs::snapshot();
    let prefix = format!("{}{{route=\"", names::SERVE_REQUEST_NS);
    w.begin_object();
    for (key, h) in &snap.histograms {
        let Some(rest) = key.strip_prefix(&prefix) else {
            continue;
        };
        let Some(route) = rest.strip_suffix("\"}") else {
            continue;
        };
        w.key(route).begin_object().key("count").u64(h.count);
        w.key("p50").u64(h.p50).key("p95").u64(h.p95);
        w.key("p99").u64(h.p99).key("p999").u64(h.p999);
        // The exemplar ties the route's worst recent observation to a
        // trace id — the "what was that p999 spike" jump-off point.
        w.key("exemplar");
        match h.exemplar {
            Some(ex) => {
                w.begin_object().key("trace_id");
                w.str(&format!("{:032x}", ex.trace_id));
                w.key("value").u64(ex.value).end_object()
            }
            None => w.null(),
        };
        w.end_object();
    }
    w.end_object();
}

/// Drift-monitor summary: totals plus per-key rows keyed by the
/// dimension-value coordinate (not the raw catalog node id, which is
/// meaningless without a graph dump). Rows are capped at 50; the
/// `"more"` member counts what was cut, so the footer renders as
/// `… (N more)`. `null` when drift monitoring is disabled.
fn write_drift(w: &mut Writer, shared: &Shared) {
    const MAX_ROWS: usize = 50;
    let Some(acc) = shared.db.drift_monitor() else {
        w.null();
        return;
    };
    let summaries = acc.summaries();
    let drifting = summaries.iter().filter(|s| s.drifting).count();
    let ds = shared.db.dataset();
    let g = ds.graph();
    w.begin_object().key("tracked").usize(summaries.len());
    w.key("drifting").usize(drifting).key("keys").begin_array();
    for s in summaries.iter().take(MAX_ROWS) {
        let label = if (s.key as usize) < ds.node_count() {
            g.coord(s.key as usize).display(g.schema())
        } else {
            format!("node {}", s.key)
        };
        w.begin_object().key("cell").str(&label);
        w.key("n").u64(s.total()).key("mae").f64(s.err.abs_mean());
        w.key("smape").f64(s.smape.mean());
        w.key("drifting").bool(s.drifting).end_object();
    }
    let more = summaries.len().saturating_sub(MAX_ROWS);
    w.end_array().key("more").usize(more).end_object();
}

/// How connections are being used: requests served per connection and
/// why connections closed — the server-side view of client reuse (a
/// mean of 1 with `backlog` closes rising means more active clients
/// than workers).
fn write_connections(w: &mut Writer) {
    w.begin_object().key("closed").begin_object();
    for reason in CloseReason::ALL {
        let label = reason.as_str();
        let n = fdc_obs::counter_with(names::SERVE_CONN_CLOSED, &[("reason", label)]).get();
        w.key(label).u64(n);
    }
    let requests = fdc_obs::histogram!(names::SERVE_CONN_REQUESTS).snapshot();
    w.end_object().key("requests_per_connection").begin_object();
    w.key("count").u64(requests.count);
    w.key("mean").f64(requests.mean());
    w.key("p50").u64(requests.p50).key("max").u64(requests.max);
    w.end_object().end_object();
}

fn stats_body(shared: &Shared) -> String {
    let stats = shared.db.stats();
    let mut w = Writer::with_capacity(2048);
    w.begin_object();
    w.key("queries").usize(stats.queries);
    w.key("inserts").usize(stats.inserts);
    w.key("insert_batches").usize(stats.insert_batches);
    w.key("time_advances").usize(stats.time_advances);
    w.key("model_updates").usize(stats.model_updates);
    w.key("invalidations").usize(stats.invalidations);
    w.key("reestimations").usize(stats.reestimations);
    w.key("pending_inserts").usize(shared.db.pending_inserts());
    w.key("buffered_rows").usize(shared.batcher.buffered());
    w.key("queue_depth").usize(shared.conns.len());
    w.key("series_len").usize(shared.db.dataset().series_len());
    w.key("models").usize(shared.db.model_count());
    w.key("wal");
    match shared.db.wal_stats() {
        Some(wal) => {
            w.begin_object().key("last_seq").u64(wal.last_seq);
            w.key("durable_seq").u64(wal.durable_seq);
            w.key("checkpoint_seq").u64(wal.checkpoint_seq);
            w.key("segments").u64(wal.segments);
            w.key("appends").u64(wal.appends);
            w.key("fsyncs").u64(wal.fsyncs).end_object()
        }
        None => w.null(),
    };
    w.key("replication");
    match &shared.replica {
        Some(r) => {
            let role = if r.is_promoted() {
                "promoted"
            } else {
                "follower"
            };
            w.begin_object().key("role").str(role);
            w.key("primary").str(r.primary());
            w.key("applied_seq").u64(r.applied_seq());
            w.key("primary_durable_seq").u64(r.primary_durable_seq());
            w.key("lag_seq").u64(r.lag());
            w.key("fetch_errors").u64(r.fetch_errors());
            w.key("last_error");
            match r.last_error() {
                Some(e) => w.str(&e),
                None => w.null(),
            };
            w.end_object()
        }
        None => w.null(),
    };
    w.key("latency");
    write_latency(&mut w);
    w.key("connections");
    write_connections(&mut w);
    w.key("drift");
    write_drift(&mut w, shared);
    w.key("partition");
    match shared.db.partition_summary() {
        Some((owned, resident)) => {
            w.begin_object().key("owned_bases").usize(owned);
            w.key("resident_nodes").usize(resident).end_object()
        }
        None => w.null(),
    };
    w.end_object();
    w.finish()
}
