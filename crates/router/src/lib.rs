//! # fdc-router — consistent-hash partitioned serving
//!
//! A stateless routing tier in front of N [`fdc-serve`] shard
//! processes, each owning a disjoint set of base cells of the data
//! cube (see `F2db::with_base_partition`). The router holds no cube
//! data — only the [`Topology`] (shard id → address, optional replica),
//! a placement map it fetches from a shard and can fetch again at any
//! time, and pure functions:
//!
//! * **placement** — a base cell's key (its leading `key_dims`
//!   dimension values) is mapped to a shard by rendezvous hashing
//!   ([`placement`]), deterministically: any process with the same
//!   topology computes the same owner, across restarts and machines;
//! * **inserts** are routed whole to the owning shard (single-shard
//!   writes — no distributed transaction), preserving the row bytes
//!   verbatim so values survive bit-exactly;
//! * **forecast queries** scatter-gather in one shard hop: the router
//!   plans the statement itself, with the planner the shards run
//!   ([`fdc_f2db::Placement::plan`]) over the shards' placement map
//!   (`GET /placement` — the graph and every node's scheme sources,
//!   fetched once), maps each node to the shard owning its derivation
//!   closure (worked out once per map), fans the client's own request
//!   out with `nodes` narrowed per shard ([`fdc_serve::wire`] decodes
//!   the body and encodes every sub-request), and reassembles the
//!   per-shard row chunks **byte-identically** in plan order — the
//!   router never re-serializes a float of an answer. Every
//!   sub-request names the map's fingerprint; a shard holding another
//!   map answers `421`, and the router fetches the map again and
//!   re-plans, once;
//! * **sketch folding** — each shard's `GET /sketch` bundle (accuracy
//!   partials + latency t-digests) is folded with the sketches' own
//!   merge operations ([`fold`]), so the router's `/stats` and
//!   `/metrics` expose *fleet-wide* quantiles and per-node accuracy no
//!   single process could compute from percentiles;
//! * **degradation** — a health prober marks shards down/up
//!   (`ShardDown`/`ShardRecovered` journal events); reads fail over to
//!   the shard's replica, writes answer a typed partial-failure error
//!   naming what committed, `429`/`503` shard answers are forwarded
//!   with their `Retry-After`, and `GET /healthz` reflects quorum.
//!
//! ## Routes
//!
//! | Route | Body | Answer |
//! |---|---|---|
//! | `POST /query` | a forecast request ([`fdc_serve::wire`]) | `200` rows, byte-identical to one process |
//! | `POST /explain` | a forecast request ([`fdc_serve::wire`]) | `200` plan, scatter-gathered |
//! | `POST /insert` | `{"dims": [...], "value": v}` or `{"rows": [...]}` | `202` after owning shard commits |
//! | `GET /stats` | — | `200` router + folded fleet + per-shard stats |
//! | `GET /metrics` | — | `200` Prometheus text with fleet-folded series |
//! | `GET /healthz` | — | `200` quorum, `503` degraded |
//! | `GET /topology` | — | `200` the serving topology + live flags |
//!
//! The HTTP layer is the same [`fdc_obs::httpcore`] the shards use, on
//! both sides: clients keep their connections to the router
//! ([`fdc_obs::httpcore::server`]), and the router keeps a small pool of
//! connections to every shard ([`fdc_obs::httpcore::client`]), so a
//! routed request pays no connect on either hop. The router adopts
//! `traceparent` at ingress and the client propagates it on every shard
//! hop, so one trace spans the whole fan-out.

pub mod fold;
pub mod placement;
pub mod topology;

pub use topology::{ShardSpec, Topology};

use fdc_codec::json::{self, Writer};
use fdc_cube::NodeId;
use fdc_f2db::{Placement, QueryRequest};
use fdc_obs::httpcore::client::{send_once, Client, Outgoing, Pooled, Response};
use fdc_obs::httpcore::server::{ConnQueue, Limits, Reject, Responder, Service};
use fdc_obs::httpcore::{status_line, Request};
use fdc_obs::{journal, names, trace, Event, SketchBundle, TraceContext};
use fdc_serve::wire::{self, count_body, err_body};
use std::borrow::Cow;
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Router::start`].
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Worker threads answering requests.
    pub workers: usize,
    /// Bound on connections queued for a worker; beyond it `429`.
    pub queue_depth: usize,
    /// Per-request deadline (queue wait counts against it, for a
    /// connection's first request).
    pub deadline: Duration,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
    /// Socket read timeout while parsing a request — and how long an
    /// idle kept-alive connection is held before it is closed.
    pub read_timeout: Duration,
    /// Bound on a single router→shard call (connect, write, read).
    pub shard_timeout: Duration,
    /// How often the prober re-checks every shard's `/healthz`.
    pub probe_interval: Duration,
    /// Head-sampling rate for traces minted at ingress.
    pub trace_sample: f64,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(5),
            max_body: 1 << 20,
            read_timeout: Duration::from_secs(2),
            shard_timeout: Duration::from_secs(2),
            probe_interval: Duration::from_millis(250),
            trace_sample: 1.0,
        }
    }
}

/// Live view of one shard: its spec plus the prober's up/down flag.
struct ShardState {
    spec: ShardSpec,
    up: AtomicBool,
}

/// The shards' placement map as the router plans with it.
struct RouterMap {
    placement: Placement,
    /// The map's fingerprint, as [`wire::PLACEMENT_HEADER`] carries it.
    header: String,
    /// `owners[v]`: the index (into `Shared::shards`) of the shard that
    /// owns node `v`'s whole derivation closure under this router's
    /// topology, or the split-node refusal.
    owners: Vec<Result<usize, String>>,
}

/// Where the router's map stands.
enum MapSlot {
    /// Nothing fetched yet.
    Unfetched,
    /// The map every request plans over.
    Held(Arc<RouterMap>),
    /// Dropped after a shard refused a sub-request planned over it.
    Stale,
}

struct Shared {
    topology: Topology,
    shards: Vec<ShardState>,
    opts: RouterOptions,
    /// The bounded connection queue and the keep-alive bookkeeping.
    conns: ConnQueue,
    /// Kept-alive connections to the shards, bounded by `shard_timeout`.
    client: Client,
    stopping: AtomicBool,
    /// Held while a map is fetched, so one request fetches it and the
    /// others wait for it.
    map: Mutex<MapSlot>,
}

/// The running router. Stop it with [`Router::shutdown`].
pub struct Router {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    prober_handle: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds `127.0.0.1:port` (`0` picks an ephemeral port) and starts
    /// the worker pool and the health prober.
    pub fn start(topology: Topology, port: u16, opts: RouterOptions) -> std::io::Result<Router> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        let addr = listener.local_addr()?;
        let shards = topology
            .shards
            .iter()
            .map(|spec| ShardState {
                spec: spec.clone(),
                // Optimistic until the first probe: a router that boots
                // before its shards should not reject the first requests
                // it could in fact serve a moment later.
                up: AtomicBool::new(true),
            })
            .collect();
        let shared = Arc::new(Shared {
            shards,
            conns: ConnQueue::new(opts.workers.max(1), opts.queue_depth),
            client: Client::new(opts.shard_timeout),
            opts,
            stopping: AtomicBool::new(false),
            map: Mutex::new(MapSlot::Unfetched),
            topology,
        });
        journal().publish(Event::RouterStart {
            addr: addr.to_string(),
            shards: shared.shards.len() as u64,
            topology_version: shared.topology.version,
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
        let prober_handle = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("fdc-router-probe".into())
                .spawn(move || probe_loop(&shared))
                .expect("spawn prober")
        };
        Ok(Router {
            addr,
            shared,
            accept_handle: Some(accept_handle),
            worker_handles,
            prober_handle: Some(prober_handle),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The topology this router serves.
    pub fn topology(&self) -> &Topology {
        &self.shared.topology
    }

    /// Stops accepting, gives up idle kept-alive connections, answers
    /// what is queued or in flight and joins every thread.
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.conns.stop(self.addr);
        if let Some(h) = self.accept_handle.take() {
            h.join().expect("accept thread panicked");
        }
        for h in self.worker_handles.drain(..) {
            h.join().expect("worker thread panicked");
        }
        if let Some(h) = self.prober_handle.take() {
            h.join().expect("prober thread panicked");
        }
    }
}

// ---------------------------------------------------------------------------
// Health
// ---------------------------------------------------------------------------

fn probe_loop(shared: &Shared) {
    while !shared.stopping.load(Ordering::SeqCst) {
        for (i, shard) in shared.shards.iter().enumerate() {
            // One-shot on purpose: a fresh connection per probe also
            // proves the shard still accepts.
            let probe = Outgoing::new("GET", "/healthz", b"");
            let alive = send_once(&shard.spec.addr, &probe, shared.opts.shard_timeout)
                .is_ok_and(|r| r.status < 500);
            if alive {
                mark_up(shared, i);
            } else {
                mark_down(shared, i, "health probe failed");
            }
        }
        // Sleep in slices so shutdown is not held up by the interval.
        let mut left = shared.opts.probe_interval;
        while left > Duration::ZERO && !shared.stopping.load(Ordering::SeqCst) {
            let nap = left.min(Duration::from_millis(50));
            std::thread::sleep(nap);
            left = left.saturating_sub(nap);
        }
    }
}

fn mark_down(shared: &Shared, idx: usize, error: &str) {
    let shard = &shared.shards[idx];
    if shard.up.swap(false, Ordering::SeqCst) {
        journal().publish(Event::ShardDown {
            shard: shard.spec.id.clone(),
            addr: shard.spec.addr.clone(),
            error: error.to_string(),
        });
    }
}

fn mark_up(shared: &Shared, idx: usize) {
    let shard = &shared.shards[idx];
    if !shard.up.swap(true, Ordering::SeqCst) {
        journal().publish(Event::ShardRecovered {
            shard: shard.spec.id.clone(),
            addr: shard.spec.addr.clone(),
        });
    }
}

// ---------------------------------------------------------------------------
// Connections and requests (the serve pattern, without the write batcher)
// ---------------------------------------------------------------------------

impl Service for Shared {
    fn answer(&self, request: &Request, _budget: Duration, out: &mut Responder<'_>) {
        let started = Instant::now();
        let ctx = request
            .trace_context()
            .unwrap_or_else(|| TraceContext::root(trace::should_sample(self.opts.trace_sample)));
        let _ctx_guard = trace::activate(ctx);
        let (route, status, body, extra) = {
            let _span = fdc_obs::span!("router.request");
            route_request(self, request)
        };
        let extra_refs: Vec<(&str, &str)> = extra.iter().map(|(n, v)| (*n, v.as_str())).collect();
        let content_type = if route == "metrics" {
            fdc_obs::export::prom::CONTENT_TYPE
        } else {
            "application/json"
        };
        respond(out, route, status, content_type, &body, &extra_refs);
        fdc_obs::histogram_with(names::ROUTER_REQUEST_NS, &[("route", route)])
            .record_duration(started.elapsed());
    }

    fn reject(&self, why: &Reject, out: &mut Responder<'_>) {
        let (route, status, error, extra): (_, _, _, &[(&str, &str)]) = match why {
            Reject::QueueFull => (
                "admission",
                429,
                "router queue full",
                &[("Retry-After", "1")],
            ),
            Reject::QueuedTooLong => ("admission", 503, "deadline exceeded while queued", &[]),
            Reject::BodyTooLarge => ("malformed", 413, "request body too large", &[]),
            Reject::Malformed(m) => ("malformed", 400, m.as_str(), &[]),
        };
        respond(
            out,
            route,
            status,
            "application/json",
            &err_body(error),
            extra,
        );
    }
}

type Routed = (&'static str, u16, String, Vec<(&'static str, String)>);

fn route_request(shared: &Shared, request: &Request) -> Routed {
    let (path, _query) = request.path_query();
    let no_extra = Vec::new;
    match (request.method.as_str(), path) {
        ("POST", "/query") => handle_forecast(shared, path, &request.body, "query"),
        ("POST", "/explain") => handle_forecast(shared, path, &request.body, "explain"),
        ("POST", "/insert") => handle_insert(shared, &request.body),
        ("GET", "/stats") => ("stats", 200, stats_body(shared), no_extra()),
        ("GET", "/metrics") => ("metrics", 200, metrics_body(shared), no_extra()),
        ("GET", "/healthz") => handle_healthz(shared),
        ("GET", "/topology") => handle_topology(shared),
        (_, "/query" | "/explain" | "/insert") => (
            "method",
            405,
            err_body("use POST"),
            vec![("Allow", "POST".to_string())],
        ),
        (_, "/stats" | "/metrics" | "/healthz" | "/topology") => (
            "method",
            405,
            err_body("use GET"),
            vec![("Allow", "GET".to_string())],
        ),
        _ => ("unknown", 404, err_body("no such route"), no_extra()),
    }
}

/// Records the route/status counter and writes the response.
fn respond(
    out: &mut Responder<'_>,
    route: &'static str,
    status: u16,
    content_type: &str,
    body: &str,
    extra: &[(&str, &str)],
) {
    fdc_obs::counter_with(
        names::ROUTER_REQUESTS,
        &[("route", route), ("status", &status.to_string())],
    )
    .incr();
    out.send(status_line(status), content_type, body.as_bytes(), extra);
}

// ---------------------------------------------------------------------------
// Shard calls
// ---------------------------------------------------------------------------

/// One call over the pooled connection to `addr`, counted in
/// `router.pool` by how the connection was come by.
fn call(shared: &Shared, addr: &str, request: &Outgoing<'_>) -> std::io::Result<Response> {
    let response = shared.client.send(addr, request)?;
    fdc_obs::counter_with(names::ROUTER_POOL, &[("outcome", response.pooled.as_str())]).incr();
    Ok(response)
}

/// A read against shard `idx`: primary first; on a transport failure
/// the shard is marked down and the read fails over to the replica
/// (counted in `router.replica.reads`). HTTP-level errors come back as
/// `Ok` — the shard is alive and its answer (400, 421, 429...) is the
/// answer.
fn shard_read(
    shared: &Shared,
    idx: usize,
    path: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
) -> Result<Response, String> {
    let shard = &shared.shards[idx];
    let method = if body.is_some() { "POST" } else { "GET" };
    let request = Outgoing {
        headers,
        ..Outgoing::new(method, path, body.unwrap_or("").as_bytes())
    };
    match call(shared, &shard.spec.addr, &request) {
        Ok(resp) => {
            mark_up(shared, idx);
            Ok(resp)
        }
        Err(primary_err) => {
            shard_error(shared, idx, &primary_err.to_string());
            let Some(replica) = &shard.spec.replica else {
                return Err(format!(
                    "shard {} ({}) unreachable: {primary_err}",
                    shard.spec.id, shard.spec.addr
                ));
            };
            match call(shared, replica, &request) {
                Ok(resp) => {
                    fdc_obs::counter!(names::ROUTER_REPLICA_READS).incr();
                    Ok(resp)
                }
                Err(replica_err) => Err(format!(
                    "shard {} unreachable (primary {}: {primary_err}; replica {replica}: \
                     {replica_err})",
                    shard.spec.id, shard.spec.addr
                )),
            }
        }
    }
}

/// A write against shard `idx`: primary only — the replica is
/// read-only, failing a write over would fork history — and sent at
/// most once: a write that dies on a reused connection may already have
/// been applied, so it is never replayed (the caller answers the typed
/// partial-write failure instead).
fn shard_write(shared: &Shared, idx: usize, path: &str, body: &str) -> Result<Response, String> {
    let shard = &shared.shards[idx];
    let request = Outgoing {
        replay: false,
        ..Outgoing::new("POST", path, body.as_bytes())
    };
    match call(shared, &shard.spec.addr, &request) {
        Ok(resp) => {
            mark_up(shared, idx);
            Ok(resp)
        }
        Err(e) => {
            shard_error(shared, idx, &e.to_string());
            Err(format!(
                "shard {} ({}) unreachable: {e}",
                shard.spec.id, shard.spec.addr
            ))
        }
    }
}

fn shard_error(shared: &Shared, idx: usize, error: &str) {
    fdc_obs::counter_with(
        names::ROUTER_SHARD_ERRORS,
        &[("shard", &shared.shards[idx].spec.id)],
    )
    .incr();
    mark_down(shared, idx, error);
}

/// Propagates a shard's backpressure answer (`429`/`503`) with its
/// `Retry-After`, instead of wrapping it into an opaque 502.
fn forward_backpressure(route: &'static str, resp: &Response) -> Option<Routed> {
    if resp.status != 429 && resp.status != 503 {
        return None;
    }
    let extra = resp
        .header("retry-after")
        .map(|v| vec![("Retry-After", v.to_string())])
        .unwrap_or_default();
    Some((route, resp.status, resp.text(), extra))
}

// ---------------------------------------------------------------------------
// The placement map
// ---------------------------------------------------------------------------

impl RouterMap {
    /// Works out, under `topology`, the shard that owns each node's
    /// derivation closure: every base cell's key placed once, then each
    /// node's closure checked against one owner.
    fn new(placement: Placement, topology: &Topology) -> RouterMap {
        let g = placement.graph();
        let mut base_owner = vec![usize::MAX; g.node_count()];
        for &b in g.base_nodes() {
            base_owner[b] = topology.owner(&placement.key(b, topology.key_dims));
        }
        let owners = (0..g.node_count())
            .map(|v| {
                let closure = placement.closure(v);
                let owner = base_owner[closure[0]];
                if closure.iter().all(|&b| base_owner[b] == owner) {
                    Ok(owner)
                } else {
                    Err(split_refusal(&placement, topology, v, &closure))
                }
            })
            .collect();
        RouterMap {
            header: wire::placement_header(placement.fingerprint()),
            placement,
            owners,
        }
    }
}

/// The refusal of a *split node* — one whose placement keys straddle
/// shards, so no shard owns every base cell its forecast needs: the
/// query asks for something this deployment's key granularity cannot
/// co-locate. Names the owners of the smallest key and of the first key
/// after it that lands elsewhere.
fn split_refusal(
    placement: &Placement,
    topology: &Topology,
    node: NodeId,
    closure: &[NodeId],
) -> String {
    let mut keys: Vec<String> = closure
        .iter()
        .map(|&b| placement.key(b, topology.key_dims))
        .collect();
    keys.sort_unstable();
    let first = &topology.place(&keys[0]).id;
    let other = keys
        .iter()
        .map(|key| &topology.place(key).id)
        .find(|id| *id != first)
        .expect("a split closure has a second owner");
    format!(
        "node {} is split across shards {first} and {other}: its derivation needs base cells \
         from both; raise key_dims granularity or co-locate the hierarchy",
        placement.label(node)
    )
}

/// The map in use; fetched first when there is none. Any live shard
/// serves it — the map depends on the shared catalog, not on a shard's
/// partition — tried up shards first. A busy shard's `429`/`503` is
/// kept, with its `Retry-After`, in case every shard is busy.
fn current_map(shared: &Shared) -> Result<Arc<RouterMap>, Routed> {
    let mut slot = shared
        .map
        .lock()
        .expect("no request panics holding the map");
    let reason = match &*slot {
        MapSlot::Held(map) => return Ok(Arc::clone(map)),
        MapSlot::Unfetched => "boot",
        MapSlot::Stale => "stale",
    };
    let up = |i: &usize| shared.shards[*i].up.load(Ordering::SeqCst);
    let (live, down): (Vec<usize>, Vec<usize>) = (0..shared.shards.len()).partition(up);
    let mut last_err = String::from("no shard available for planning");
    let mut last_backpressure: Option<Routed> = None;
    for idx in live.into_iter().chain(down) {
        let id = &shared.shards[idx].spec.id;
        match shard_read(shared, idx, "/placement", None, &[]) {
            Ok(resp) if resp.status == 200 => match Placement::decode(&resp.body) {
                Ok(placement) => {
                    fdc_obs::counter_with(names::ROUTER_PLACEMENT_LOADS, &[("reason", reason)])
                        .incr();
                    let map = Arc::new(RouterMap::new(placement, &shared.topology));
                    *slot = MapSlot::Held(Arc::clone(&map));
                    return Ok(map);
                }
                Err(e) => last_err = format!("shard {id} served a bad placement map: {e}"),
            },
            Ok(resp) => match forward_backpressure("plan", &resp) {
                Some(routed) => last_backpressure = Some(routed),
                None => last_err = format!("shard {id} answered /placement with {}", resp.status),
            },
            Err(e) => last_err = e,
        }
    }
    Err(last_backpressure.unwrap_or_else(|| {
        (
            "plan",
            503,
            err_body(&last_err),
            vec![("Retry-After", "1".to_string())],
        )
    }))
}

/// Drops `stale` — unless another request has already replaced it.
fn drop_map(shared: &Shared, stale: &Arc<RouterMap>) {
    let mut slot = shared
        .map
        .lock()
        .expect("no request panics holding the map");
    if matches!(&*slot, MapSlot::Held(map) if Arc::ptr_eq(map, stale)) {
        *slot = MapSlot::Stale;
    }
}

// ---------------------------------------------------------------------------
// Scatter-gather forecasts
// ---------------------------------------------------------------------------

/// `POST /query` and `POST /explain`: decode and validate up front (a
/// malformed or illegal request gets the answer a shard would give,
/// without costing a shard anything) → plan locally → scatter to owning
/// shards → reassemble rows byte-identically in plan order. A shard's
/// `421` says the map is not its own: the router fetches the map again
/// and plans and sends the query once more; a second `421` is a `500`.
fn handle_forecast(shared: &Shared, path: &str, body: &[u8], route: &'static str) -> Routed {
    let mut request = match wire::parse_body(body).and_then(|doc| wire::decode(path, &doc)) {
        Ok(r) => r,
        Err(m) => return (route, 400, err_body(&m), Vec::new()),
    };
    if let Err(e) = request.validate() {
        return (route, 400, err_body(&e.to_string()), Vec::new());
    }
    // The client's own filter narrows the plan; each sub-request's
    // `nodes` is then its shard's share of what is left.
    let filter = request.nodes.take();
    let mut resent = false;
    loop {
        let map = match current_map(shared) {
            Ok(map) => map,
            Err(routed) => return routed,
        };
        match scatter_gather(shared, &map, &mut request, filter.as_deref(), route) {
            Gathered::Misdirected(_) if !resent => {
                drop_map(shared, &map);
                resent = true;
            }
            Gathered::Misdirected(refusal) => return (route, 500, refusal, Vec::new()),
            Gathered::Answer(routed) => return routed,
        }
    }
}

/// What one planned scatter came to.
enum Gathered {
    /// The answer for the client.
    Answer(Routed),
    /// A shard refused a sub-request with `421`; its body.
    Misdirected(String),
}

/// Plans `request` over `map`, keeping `filter`'s nodes, sends each
/// owning shard its share and reassembles the answers.
fn scatter_gather(
    shared: &Shared,
    map: &RouterMap,
    request: &mut QueryRequest,
    filter: Option<&[NodeId]>,
    route: &'static str,
) -> Gathered {
    let no_extra = Vec::new;
    let refused = |message: &str| Gathered::Answer(("plan", 400, err_body(message), no_extra()));
    let nodes = match map.placement.plan(&request.sql, request.mode, filter) {
        Ok(nodes) => nodes,
        Err(e) => return refused(&e.to_string()),
    };

    // Group nodes by owning shard, preserving first-seen order.
    let mut groups: Vec<(usize, Vec<NodeId>)> = Vec::new();
    for &node in &nodes {
        let shard = match &map.owners[node] {
            Ok(shard) => *shard,
            Err(split) => return refused(split),
        };
        match groups.iter_mut().find(|(s, _)| *s == shard) {
            Some((_, group)) => group.push(node),
            None => groups.push((shard, vec![node])),
        }
    }
    fdc_obs::histogram!(names::ROUTER_FANOUT_SIZE).record(groups.len() as u64);

    // The client's request, narrowed to each shard's nodes.
    let shard_path = wire::path(request.mode);
    let subs: Vec<(usize, String)> = groups
        .into_iter()
        .map(|(shard, group)| {
            request.nodes = Some(group);
            (shard, wire::encode(request))
        })
        .collect();
    let headers = [(wire::PLACEMENT_HEADER, map.header.as_str())];
    let send =
        |shard: usize, body: &str| shard_read(shared, shard, shard_path, Some(body), &headers);
    let results: Vec<(usize, Result<Response, String>)> = if let [(shard, body)] = &subs[..] {
        // One group — every point query: nothing to overlap, so the
        // call runs on this worker instead of paying for a thread.
        vec![(*shard, send(*shard, body))]
    } else {
        // Scatter concurrently; each sub-request carries this request's
        // trace context so the whole fan-out is one trace.
        let ctx = trace::current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = subs
                .iter()
                .map(|(shard, body)| {
                    scope.spawn(move || {
                        let _g = ctx.map(trace::activate);
                        (*shard, send(*shard, body))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    };

    // Gather: every shard must answer 200.
    let mut bodies = Vec::with_capacity(results.len());
    for (shard_idx, result) in results {
        let resp = match result {
            Ok(r) => r,
            Err(e) => {
                return Gathered::Answer((
                    route,
                    503,
                    err_body(&e),
                    vec![("Retry-After", "1".to_string())],
                ))
            }
        };
        if resp.status != 200 {
            if let Some(routed) = forward_backpressure(route, &resp) {
                return Gathered::Answer(routed);
            }
            if resp.status == 421 {
                return Gathered::Misdirected(resp.text());
            }
            // Anything else is the query's own error.
            return Gathered::Answer((route, resp.status, resp.text(), no_extra()));
        }
        bodies.push((shard_idx, resp.text()));
    }
    // Every answer's row chunks by node; what stands before `"rows"` (an
    // explain's horizon) is the same in all of them: the first one's.
    let mut chunks: HashMap<NodeId, &str> = HashMap::new();
    let mut head = None;
    for (shard_idx, body) in &bodies {
        match split_rows(body) {
            Ok((members, rows)) => {
                head.get_or_insert(members);
                chunks.extend(rows);
            }
            Err(m) => {
                return Gathered::Answer((
                    route,
                    500,
                    err_body(&format!(
                        "unparseable answer from shard {}: {m}",
                        shared.shards[*shard_idx].spec.id
                    )),
                    no_extra(),
                ))
            }
        }
    }

    // Reassemble in plan order — the exact row order a single
    // unpartitioned process would have produced, bytes untouched.
    let mut ordered = Vec::with_capacity(nodes.len());
    for &node in &nodes {
        match chunks.get(&node) {
            Some(chunk) => ordered.push(*chunk),
            None => {
                return Gathered::Answer((
                    route,
                    500,
                    err_body(&format!(
                        "shard answer is missing planned node {node} ({})",
                        map.placement.label(node)
                    )),
                    no_extra(),
                ))
            }
        }
    }
    let body = join_rows(&head.unwrap_or_default(), &ordered);
    Gathered::Answer((route, 200, body, no_extra()))
}

/// The answer [`split_rows`] takes apart, put together: the members
/// that stood before `"rows"`, then the row chunks as they are.
fn join_rows(head: &[(Cow<'_, str>, &str)], rows: &[&str]) -> String {
    let rows_len: usize = rows.iter().map(|row| row.len() + 1).sum();
    let mut w = Writer::with_capacity(rows_len + 64);
    w.begin_object();
    for (key, value) in head {
        w.key(key).raw(value);
    }
    w.key("rows").begin_array();
    for row in rows {
        w.raw(row);
    }
    w.end_array().end_object();
    w.finish()
}

/// The members that stand before `"rows"`, each key with its value as
/// it stands, plus each verbatim row chunk keyed by its leading
/// `"node":N`.
type RowChunks<'a> = (Vec<(Cow<'a, str>, &'a str)>, Vec<(NodeId, &'a str)>);

/// Splits a shard's `{"...":...,"rows":[{...},{...}]}` answer into its
/// verbatim row chunks, keyed by each chunk's leading `"node":N`, and
/// the members before them (horizon and friends ride along untouched).
/// The reader checks every chunk against the grammar and hands back its
/// bytes as they stand — labels may contain any escaped character, and
/// no float is ever re-rendered.
fn split_rows(body: &str) -> Result<RowChunks<'_>, String> {
    let mut r = json::Reader::new(body);
    let mut head = Vec::new();
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        let start = r.offset();
        if key != "rows" {
            r.skip_value()?;
            head.push((key, r.since(start)));
            continue;
        }
        r.begin_array()?;
        let mut rows = Vec::new();
        while r.next_element()? {
            let start = r.offset();
            r.skip_value()?;
            let chunk = r.since(start);
            let node = chunk
                .strip_prefix("{\"node\":")
                .and_then(|rest| {
                    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
                    rest[..digits].parse::<NodeId>().ok()
                })
                .ok_or("row chunk has no leading node id")?;
            rows.push((node, chunk));
        }
        return Ok((head, rows));
    }
    Err("answer has no rows array".into())
}

// ---------------------------------------------------------------------------
// Routed inserts
// ---------------------------------------------------------------------------

/// A row's placement, worked out while its labels are read: the first
/// `key_dims` of them joined with `|` — the same string the shard-side
/// `F2db::partition_key` computes, so router and shards agree on
/// ownership without the router knowing the schema — hashed to the
/// index of the owning shard. One key buffer serves every row.
struct Placer<'t> {
    topology: &'t Topology,
    key: String,
    /// Labels seen of the current row.
    seen: usize,
}

impl wire::RowDims for Placer<'_> {
    type Out = usize;

    fn label(&mut self, label: &str) {
        if self.topology.key_dims == 0 || self.seen < self.topology.key_dims {
            if self.seen > 0 {
                self.key.push('|');
            }
            self.key.push_str(label);
        }
        self.seen += 1;
    }

    fn end(&mut self) -> Result<usize, String> {
        let placed = if self.seen == 0 {
            Err("row needs a non-empty \"dims\" array".to_string())
        } else {
            Ok(self.topology.owner(&self.key))
        };
        self.key.clear();
        self.seen = 0;
        placed
    }
}

/// The rows of an `/insert` body, each as it stands in the body (value
/// bytes untouched) with the index of the shard that owns it. One pass:
/// the body is refused exactly when a shard would refuse it whole.
fn place_rows<'a>(topology: &Topology, body: &'a [u8]) -> Result<Vec<(usize, &'a str)>, String> {
    let mut placer = Placer {
        topology,
        key: String::new(),
        seen: 0,
    };
    wire::decode_insert(body, &mut placer, |shard, _, row| (shard, row))
}

/// `POST /insert`: read the body once, placing each row by its leading
/// `key_dims` dimension values and keeping its bytes; forward every
/// group whole to its owning shard's primary. All-or-error per shard;
/// a failure names what already committed — the caller decides whether
/// to retry the rest (inserts are idempotent per (cell, stamp) only
/// until the stamp completes, so the answer is explicit, not hidden).
fn handle_insert(shared: &Shared, body: &[u8]) -> Routed {
    let no_extra = Vec::new;
    let placed = match place_rows(&shared.topology, body) {
        Ok(placed) => placed,
        Err(m) => return ("insert", 400, err_body(&m), no_extra()),
    };
    let mut groups: Vec<(usize, Vec<&str>)> = Vec::new();
    for (idx, row) in placed {
        match groups.iter_mut().find(|(s, _)| *s == idx) {
            Some((_, rows)) => rows.push(row),
            None => groups.push((idx, vec![row])),
        }
    }
    fdc_obs::histogram!(names::ROUTER_FANOUT_SIZE).record(groups.len() as u64);

    let mut accepted = 0;
    let mut committed: Vec<&str> = Vec::new();
    for (idx, rows) in &groups {
        let mut w = Writer::with_capacity(body.len());
        w.begin_object().key("rows").begin_array();
        for row in rows {
            w.raw(row);
        }
        w.end_array().end_object();
        let sub_body = w.finish();
        let resp = match shard_write(shared, *idx, "/insert", &sub_body) {
            Ok(r) => r,
            Err(e) => return insert_failure(shared, *idx, &committed, &e, None),
        };
        if resp.status == 202 {
            accepted += rows.len();
            committed.push(&shared.shards[*idx].spec.id);
            continue;
        }
        if let Some((_, status, body, extra)) = forward_backpressure("insert", &resp) {
            // Backpressure with partial progress is still a partial
            // failure — the typed body names the committed shards.
            return insert_failure_with(
                shared,
                *idx,
                &committed,
                &body_error(&body),
                status,
                extra,
            );
        }
        return insert_failure_with(
            shared,
            *idx,
            &committed,
            &body_error(&resp.text()),
            resp.status,
            Vec::new(),
        );
    }
    ("insert", 202, count_body("accepted", accepted), no_extra())
}

/// Extracts the `"error"` text of a shard answer (or passes the body
/// through when it is not the typed error shape).
fn body_error(body: &str) -> String {
    json::parse(body)
        .ok()
        .and_then(|d| {
            d.get("error")
                .and_then(json::Value::as_str)
                .map(str::to_string)
        })
        .unwrap_or_else(|| body.to_string())
}

fn insert_failure(
    shared: &Shared,
    failed: usize,
    committed: &[&str],
    detail: &str,
    retry_after: Option<&str>,
) -> Routed {
    let extra = retry_after
        .map(|v| vec![("Retry-After", v.to_string())])
        .unwrap_or_else(|| vec![("Retry-After", "1".to_string())]);
    insert_failure_with(shared, failed, committed, detail, 503, extra)
}

fn insert_failure_with(
    shared: &Shared,
    failed: usize,
    committed: &[&str],
    detail: &str,
    status: u16,
    extra: Vec<(&'static str, String)>,
) -> Routed {
    let mut w = Writer::new();
    w.begin_object().key("error").str("partial write failure");
    w.key("failed_shard").str(&shared.shards[failed].spec.id);
    w.key("committed_shards").begin_array();
    for shard in committed {
        w.str(shard);
    }
    w.end_array().key("detail").str(detail).end_object();
    ("insert", status, w.finish(), extra)
}

// ---------------------------------------------------------------------------
// Fleet views
// ---------------------------------------------------------------------------

/// Fetches and decodes every live shard's sketch bundle.
fn gather_bundles(shared: &Shared) -> Vec<SketchBundle> {
    let mut bundles = Vec::new();
    for idx in 0..shared.shards.len() {
        if let Ok(resp) = shard_read(shared, idx, "/sketch", None, &[]) {
            if resp.status == 200 {
                if let Ok(bundle) = SketchBundle::decode(&resp.body) {
                    bundles.push(bundle);
                }
            }
        }
    }
    bundles
}

fn handle_healthz(shared: &Shared) -> Routed {
    let healthy = shared
        .shards
        .iter()
        .filter(|s| s.up.load(Ordering::SeqCst))
        .count();
    let total = shared.shards.len();
    // Quorum: a majority of shards must be live. Below it, routed
    // queries are mostly refusals, and a balancer should stop sending.
    let (status, state) = if healthy * 2 > total {
        (200, "ok")
    } else {
        (503, "degraded")
    };
    let mut w = Writer::new();
    w.begin_object().key("status").str(state);
    w.key("healthy").usize(healthy).key("shards").usize(total);
    w.key("topology_version").u64(shared.topology.version);
    w.end_object();
    ("healthz", status, w.finish(), Vec::new())
}

fn handle_topology(shared: &Shared) -> Routed {
    let mut w = Writer::new();
    w.begin_object();
    w.key("topology").raw(&shared.topology.encode());
    w.key("live").begin_object();
    for s in &shared.shards {
        w.key(&s.spec.id).bool(s.up.load(Ordering::SeqCst));
    }
    w.end_object().end_object();
    ("topology", 200, w.finish(), Vec::new())
}

/// `GET /stats` — the fleet view: router health, the folded sketch
/// plane (fleet-wide per-key accuracy and latency quantiles), and
/// every reachable shard's own `/stats` document verbatim.
fn stats_body(shared: &Shared) -> String {
    let healthy = shared
        .shards
        .iter()
        .filter(|s| s.up.load(Ordering::SeqCst))
        .count();
    let mut w = Writer::with_capacity(4096);
    w.begin_object().key("router").begin_object();
    w.key("topology_version").u64(shared.topology.version);
    w.key("shards").usize(shared.shards.len());
    w.key("healthy").usize(healthy).key("pool").begin_object();
    // How shard calls came by their connection: mostly `hit` when reuse
    // works, `stale` climbing when shards give idle connections up.
    for outcome in Pooled::ALL {
        let label = outcome.as_str();
        let n = fdc_obs::counter_with(names::ROUTER_POOL, &[("outcome", label)]).get();
        w.key(label).u64(n);
    }
    let fleet = fold::fold(&gather_bundles(shared)).to_json();
    w.end_object().end_object().key("fleet").raw(&fleet);
    w.key("shards").begin_object();
    for idx in 0..shared.shards.len() {
        w.key(&shared.shards[idx].spec.id);
        match shard_read(shared, idx, "/stats", None, &[]) {
            Ok(resp) if resp.status == 200 => w.raw(&resp.text()),
            _ => w.null(),
        };
    }
    w.end_object().end_object();
    w.finish()
}

/// `GET /metrics` — the router's own registry in Prometheus text form,
/// extended with fleet-folded series: per-route latency quantiles over
/// the *merged* shard digests and per-key fleet accuracy.
fn metrics_body(shared: &Shared) -> String {
    let mut out = fdc_obs::encode_prometheus(&fdc_obs::snapshot());
    let folded = fold::fold(&gather_bundles(shared));
    if !folded.digests.is_empty() {
        out.push_str("# TYPE fleet_latency_ns gauge\n");
        for (series, d) in &folded.digests {
            let (_, labels) = fdc_obs::split_series(series);
            for (q, name) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "fleet_latency_ns{{{labels},quantile=\"{name}\"}} {}\n",
                    d.quantile(q)
                ));
            }
        }
    }
    if !folded.accuracy.is_empty() {
        out.push_str("# TYPE fleet_accuracy_smape gauge\n");
        for a in &folded.accuracy {
            out.push_str(&format!(
                "fleet_accuracy_smape{{key=\"{}\"}} {}\n",
                a.key,
                a.smape.mean()
            ));
        }
        let drifting = folded.accuracy.iter().filter(|a| a.drifting).count();
        out.push_str("# TYPE fleet_accuracy_drifting gauge\n");
        out.push_str(&format!("fleet_accuracy_drifting {drifting}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_rows_preserves_bytes_and_keys_by_node() {
        let body = "{\"rows\":[{\"node\":3,\"label\":\"a \\\"x{\\\" b\",\"values\":[[1,0.1000000000000000055511151231257827]]},{\"node\":12,\"label\":\"(*, *)\",\"values\":[]}]}";
        let (head, rows) = split_rows(body).unwrap();
        assert!(head.is_empty());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 3);
        assert!(rows[0].1.contains("0.1000000000000000055511151231257827"));
        assert_eq!(rows[1].0, 12);
        // Reassembly of all chunks reproduces the body bytes exactly.
        let chunks: Vec<&str> = rows.iter().map(|(_, c)| *c).collect();
        assert_eq!(join_rows(&head, &chunks), body);
    }

    #[test]
    fn split_rows_passes_approx_metadata_through_verbatim() {
        // An approximate row carries a nested "approx" object; the
        // scatter-gather reassembly must keep its bytes untouched.
        let body = "{\"rows\":[{\"node\":7,\"label\":\"(*, *)\",\"values\":[[1,12.5]],\"approx\":{\"sampled\":96,\"population\":100000,\"confidence\":0.95,\"ci_half\":[0.30000000000000004]}},{\"node\":9,\"label\":\"x\",\"values\":[]}]}";
        let (head, rows) = split_rows(body).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 7);
        assert!(rows[0].1.contains("\"population\":100000"));
        assert!(rows[0].1.contains("0.30000000000000004"));
        let chunks: Vec<&str> = rows.iter().map(|(_, c)| *c).collect();
        assert_eq!(join_rows(&head, &chunks), body);
    }

    #[test]
    fn split_rows_keeps_the_members_before_the_rows() {
        let body = "{\"horizon\":3,\"an\\\"alyzed\":{\"x\":[1e0,false]},\"rows\":[{\"node\":1,\"weight\":0.1}]}";
        let (head, rows) = split_rows(body).unwrap();
        assert_eq!(head.len(), 2);
        assert_eq!(
            head[1],
            (Cow::Borrowed("an\"alyzed"), "{\"x\":[1e0,false]}")
        );
        assert_eq!(join_rows(&head, &[rows[0].1]), body);
        assert_eq!(join_rows(&[], &[]), "{\"rows\":[]}");
    }

    #[test]
    fn split_rows_rejects_malformed_bodies() {
        for bad in [
            "{\"norows\":[]}",
            "{\"rows\":[{\"node\":1]",
            "{\"rows\":[42]}",
            "{\"rows\":[{\"label\":\"no node\"}]}",
        ] {
            assert!(split_rows(bad).is_err(), "accepted {bad}");
        }
    }

    fn topology(key_dims: usize) -> Topology {
        let shard = |id: &str| ShardSpec {
            id: id.into(),
            addr: "127.0.0.1:1".into(),
            replica: None,
        };
        Topology {
            version: 1,
            key_dims,
            shards: vec![shard("s0"), shard("s1"), shard("s2")],
        }
    }

    /// The shard index the topology gives `key`.
    fn owner(topology: &Topology, key: &str) -> usize {
        let id = &topology.place(key).id;
        topology.shards.iter().position(|s| s.id == *id).unwrap()
    }

    #[test]
    fn place_rows_keys_by_leading_dims() {
        let body = b"{\"rows\":[{\"dims\":[\"Germany\",\"holiday\"],\"value\":1.25}]}";
        for (key_dims, key) in [
            (1, "Germany"),
            (0, "Germany|holiday"),
            (9, "Germany|holiday"),
        ] {
            let topology = topology(key_dims);
            let placed = place_rows(&topology, body).unwrap();
            assert_eq!(
                placed,
                [(
                    owner(&topology, key),
                    "{\"dims\":[\"Germany\",\"holiday\"],\"value\":1.25}"
                )]
            );
        }
        let topology = topology(1);
        assert!(place_rows(&topology, b"{\"value\":1}").is_err());
        assert!(place_rows(&topology, b"{\"dims\":[],\"value\":1}").is_err());
        assert!(place_rows(&topology, b"{\"rows\":[]}").is_err());
    }

    #[test]
    fn place_rows_keeps_value_bytes() {
        let body = b" {\"rows\": [{\"dims\":[\"a\"],\"value\":0.30000000000000004} , {\"value\":1e-12,\"dims\":[\"b\"]}]} ";
        let topology = topology(1);
        let placed = place_rows(&topology, body).unwrap();
        assert_eq!(
            placed,
            [
                (
                    owner(&topology, "a"),
                    "{\"dims\":[\"a\"],\"value\":0.30000000000000004}"
                ),
                (owner(&topology, "b"), "{\"value\":1e-12,\"dims\":[\"b\"]}"),
            ]
        );
        // The bare-row form is its own one chunk.
        let placed = place_rows(&topology, b" {\"dims\":[\"a\"],\"value\":-0} \n").unwrap();
        assert_eq!(
            placed,
            [(owner(&topology, "a"), "{\"dims\":[\"a\"],\"value\":-0}")]
        );
    }

    #[test]
    fn place_rows_finds_the_rows_member_not_the_word() {
        // A "rows" at another depth, and labels that look like structure:
        // the split is by grammar, and every row survives byte for byte.
        let tricky = r#"{"dims":["a\"rows\":[{","}]\\"],"value":1}"#;
        let body = format!(
            r#"{{"meta":{{"rows":[1]}},"rows":[{tricky},{{"dims":["b","c"],"value":2}}]}}"#
        );
        let topology = topology(0);
        let placed = place_rows(&topology, body.as_bytes()).unwrap();
        assert_eq!(placed.len(), 2);
        assert_eq!(placed[0], (owner(&topology, "a\"rows\":[{|}]\\"), tricky));
        assert_eq!(placed[1].1, r#"{"dims":["b","c"],"value":2}"#);
    }
}
