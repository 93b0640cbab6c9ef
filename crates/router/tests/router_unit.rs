//! Router behavior against scripted fake shards: backpressure
//! forwarding (`Retry-After` survives the hop instead of collapsing
//! into an opaque 502), `traceparent` propagation on every shard call,
//! up-front request validation, complete early-reject responses,
//! `/healthz` quorum transitions with their journal events, and — against
//! a fake shard that keeps connections alive — one placement map
//! fetch for any number of queries, one refetch and resend on a stale
//! map's `421`, connection reuse across `/placement` + `/query`, the
//! transparent replay of a read on a connection that died, and the rule
//! that an `/insert` is never replayed. The fakes serve the placement
//! map of a real engine.

mod common;

use fdc_obs::names::ROUTER_PLACEMENT_LOADS;
use fdc_router::{Router, RouterOptions, ShardSpec, Topology};
use fdc_serve::{ServeOptions, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// The encoded placement map of `common::own_model_db(1)`, and the top
/// node — what every query the fakes are sent resolves to.
fn map() -> &'static (Vec<u8>, usize) {
    static MAP: OnceLock<(Vec<u8>, usize)> = OnceLock::new();
    MAP.get_or_init(|| {
        let db = common::own_model_db(1);
        let top = db.dataset().graph().top_node();
        (db.placement().encode().to_vec(), top)
    })
}

/// The one row a fake answers `/query` with.
fn top_row() -> String {
    format!(
        "{{\"rows\":[{{\"node\":{},\"label\":\"x\",\"values\":[[1,2.5]]}}]}}",
        map().1
    )
}

/// A scripted shard: answers every request with the current status
/// (plus an optional `Retry-After`) and records the raw requests it
/// saw.
struct FakeShard {
    addr: SocketAddr,
    status: Arc<AtomicU16>,
    requests: Arc<Mutex<Vec<String>>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FakeShard {
    fn start(status: u16, retry_after: Option<&str>) -> FakeShard {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let status = Arc::new(AtomicU16::new(status));
        let requests = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let retry_after = retry_after.map(str::to_string);
        let handle = {
            let (status, requests, stop) = (status.clone(), requests.clone(), stop.clone());
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(mut stream) = stream else { continue };
                    stream
                        .set_read_timeout(Some(Duration::from_millis(500)))
                        .ok();
                    let Some(raw) = read_http_request(&mut stream) else {
                        continue;
                    };
                    let status = status.load(Ordering::SeqCst);
                    let body: &[u8] = if status >= 400 {
                        b"{\"error\":\"shard overloaded\"}"
                    } else if raw.starts_with("GET /placement") {
                        &map().0
                    } else {
                        b"{\"status\":\"ok\"}"
                    };
                    requests.lock().unwrap().push(raw);
                    let retry = retry_after
                        .as_deref()
                        .map(|v| format!("Retry-After: {v}\r\n"))
                        .unwrap_or_default();
                    let head = format!(
                        "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n\
                         {retry}Content-Length: {}\r\nConnection: close\r\n\r\n",
                        body.len()
                    );
                    stream.write_all(&[head.as_bytes(), body].concat()).ok();
                }
            })
        };
        FakeShard {
            addr,
            status,
            requests,
            stop,
            handle: Some(handle),
        }
    }

    fn saw_request_containing(&self, needle: &str) -> bool {
        self.requests
            .lock()
            .unwrap()
            .iter()
            .any(|r| r.contains(needle))
    }
}

impl Drop for FakeShard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(self.addr));
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

fn read_http_request(stream: &mut TcpStream) -> Option<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        match stream.read(&mut chunk) {
            Ok(0) => return None,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                    break pos + 4;
                }
                if buf.len() > 1 << 20 {
                    return None;
                }
            }
            Err(_) => return None,
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            let (n, v) = l.split_once(':')?;
            n.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    while buf.len() < head_end + content_length {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    Some(String::from_utf8_lossy(&buf).into_owned())
}

fn topology_of(shards: &[(&str, SocketAddr)]) -> Topology {
    Topology {
        version: 1,
        key_dims: 1,
        shards: shards
            .iter()
            .map(|(id, addr)| ShardSpec {
                id: id.to_string(),
                addr: addr.to_string(),
                replica: None,
            })
            .collect(),
    }
}

#[test]
fn insert_forwards_shard_backpressure_with_retry_after() {
    let shard = FakeShard::start(503, Some("7"));
    let router = Router::start(
        topology_of(&[("bp-insert", shard.addr)]),
        0,
        RouterOptions {
            probe_interval: Duration::from_secs(3600),
            ..RouterOptions::default()
        },
    )
    .unwrap();

    let resp = common::request(
        router.addr(),
        "POST",
        "/insert",
        Some("{\"dims\":[\"k\"],\"value\":1.5}"),
    );
    assert_eq!(resp.status, 503);
    assert_eq!(
        resp.header("retry-after"),
        Some("7"),
        "shard Retry-After was not forwarded"
    );
    let text = resp.text();
    assert!(
        text.contains("partial write failure") && text.contains("shard overloaded"),
        "not the typed partial-failure answer: {text}"
    );
    router.shutdown();
}

#[test]
fn query_forwards_plan_backpressure_and_propagates_traceparent() {
    let shard = FakeShard::start(429, Some("3"));
    let router = Router::start(
        topology_of(&[("bp-query", shard.addr)]),
        0,
        RouterOptions {
            probe_interval: Duration::from_secs(3600),
            ..RouterOptions::default()
        },
    )
    .unwrap();

    let resp = common::request(
        router.addr(),
        "POST",
        "/query",
        Some("{\"sql\":\"SELECT time, v FROM facts AS OF now() + '1 quarter'\"}"),
    );
    assert_eq!(resp.status, 429);
    assert_eq!(
        resp.header("retry-after"),
        Some("3"),
        "planning shard's Retry-After was not forwarded"
    );

    // The router minted a trace at ingress and carried it on the shard
    // hop: the map request the fake saw has a traceparent header.
    assert!(
        shard.saw_request_containing("GET /placement"),
        "router never asked the shard for its map"
    );
    assert!(
        shard.saw_request_containing("traceparent: 00-"),
        "shard hop carried no traceparent"
    );
    router.shutdown();
}

#[test]
fn illegal_requests_get_the_shard_answer_without_reaching_a_shard() {
    // The reference: what a real shard answers to the same bodies.
    let oracle = fdc_serve::Server::start(
        Arc::new(common::own_model_db(1)),
        0,
        fdc_serve::ServeOptions::default(),
    )
    .unwrap();
    let shard = FakeShard::start(200, None);
    let router = Router::start(
        topology_of(&[("validate", shard.addr)]),
        0,
        RouterOptions {
            probe_interval: Duration::from_secs(3600),
            ..RouterOptions::default()
        },
    )
    .unwrap();

    let sql = "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '1 quarter'";
    for (path, members) in [
        ("/query", "\"approx\":{\"budget\":0}"),
        ("/query", "\"approx\":3"),
        ("/explain", "\"approx\":{\"confidence\":1.5}"),
        ("/explain", "\"analyze\":true,\"approx\":{}"),
        ("/query", "\"nodes\":[-1]"),
    ] {
        let body = format!("{{\"sql\":\"{sql}\",{members}}}");
        let want = common::request(oracle.addr(), "POST", path, Some(&body));
        let got = common::request(router.addr(), "POST", path, Some(&body));
        assert_eq!(want.status, 400, "{path} {members}: {}", want.text());
        assert_eq!(got.status, 400, "{path} {members}: {}", got.text());
        assert_eq!(got.text(), want.text(), "{path} {members}");
    }
    // Not a map fetch, not a scatter: only the boot-time health probe.
    let reached: Vec<String> = shard
        .requests
        .lock()
        .unwrap()
        .iter()
        .filter(|r| !r.starts_with("GET /healthz"))
        .cloned()
        .collect();
    assert!(reached.is_empty(), "shard was reached: {reached:?}");
    router.shutdown();
    oracle.shutdown().unwrap();
}

#[test]
fn insert_bodies_get_the_status_an_unrouted_server_gives_them() {
    let serve = || {
        fdc_serve::Server::start(
            Arc::new(common::own_model_db(1)),
            0,
            fdc_serve::ServeOptions::default(),
        )
        .unwrap()
    };
    let (oracle, shard) = (serve(), serve());
    let router = Router::start(
        topology_of(&[("only", shard.addr())]),
        0,
        RouterOptions {
            probe_interval: Duration::from_secs(3600),
            ..RouterOptions::default()
        },
    )
    .unwrap();
    let row = "{\"dims\":[\"holiday\",\"NSW\"],\"value\":1}";
    for (body, status, routers_own) in [
        // A "rows" that is not the body's: the split used to find the
        // first one at any depth and refuse what a server accepts.
        (
            format!("{{\"meta\":{{\"rows\":[1]}},\"rows\":[{row}]}}"),
            202,
            false,
        ),
        (
            format!("{{\"note\":\"\\\"rows\\\":[{{\",\"rows\":[{row},{row}]}}"),
            202,
            false,
        ),
        (
            "{\"rows\":5,\"dims\":[\"holiday\",\"NSW\"],\"value\":2}".to_string(),
            202,
            false,
        ),
        (format!(" {row} "), 202, false),
        // Refused by the router as the server refuses them, word for word.
        ("{\"rows\":[]}".to_string(), 400, true),
        ("{\"rows\":[7]}".to_string(), 400, true),
        (
            "{\"rows\":[{\"dims\":[\"holiday\",\"NSW\"]}]}".to_string(),
            400,
            true,
        ),
        (format!("{{\"rows\":[{row}]"), 400, true),
        // Only a shard knows the labels: its refusal comes back wrapped.
        (
            "{\"rows\":[{\"dims\":[\"nope\",\"NSW\"],\"value\":1}]}".to_string(),
            400,
            false,
        ),
    ] {
        let want = common::request(oracle.addr(), "POST", "/insert", Some(&body));
        let got = common::request(router.addr(), "POST", "/insert", Some(&body));
        assert_eq!(want.status, status, "{body}: {}", want.text());
        assert_eq!(got.status, status, "{body}: {}", got.text());
        if routers_own || status == 202 {
            assert_eq!(got.text(), want.text(), "{body}");
        }
    }
    router.shutdown();
    shard.shutdown().unwrap();
    oracle.shutdown().unwrap();
}

#[test]
fn a_routed_row_reaches_its_shard_byte_for_byte() {
    let shard = FakeShard::start(202, None);
    let router = Router::start(
        topology_of(&[("bytes", shard.addr)]),
        0,
        RouterOptions {
            probe_interval: Duration::from_secs(3600),
            ..RouterOptions::default()
        },
    )
    .unwrap();
    // Labels that look like the rows member, braces, escaped quotes and
    // backslashes; a value no f64 round trip would keep.
    let rows = [
        r#"{"dims":["a\"rows\":[{","}]\\"],"value":0.1000000000000000055511151231257827}"#,
        r#"{ "value" : 1e-12 , "dims" : [ "{\"dims\":[]}" , "éé" ] }"#,
    ];
    let body = format!(r#"{{"rows": [{} ,{}]}}"#, rows[0], rows[1]);
    let resp = common::request(router.addr(), "POST", "/insert", Some(&body));
    assert_eq!(
        (resp.status, resp.text().as_str()),
        (202, "{\"accepted\":2}")
    );
    let forwarded = format!("{{\"rows\":[{},{}]}}", rows[0], rows[1]);
    assert!(
        shard.saw_request_containing(&forwarded),
        "{:?}",
        shard.requests.lock().unwrap()
    );
    router.shutdown();
}

#[test]
fn oversized_body_reads_a_complete_413_not_a_reset() {
    let shard = FakeShard::start(200, None);
    let router = Router::start(
        topology_of(&[("too-large", shard.addr)]),
        0,
        RouterOptions {
            max_body: 1024,
            probe_interval: Duration::from_secs(3600),
            ..RouterOptions::default()
        },
    )
    .unwrap();
    // Far more than the router reads before it rejects: without the
    // drain, closing on the unread rest resets the connection and the
    // client loses the response it was about to read.
    let body = format!("{{\"sql\":\"{}\"}}", "x".repeat(1 << 20));
    // `request` panics on a reset: a complete response is the point.
    let resp = common::request(router.addr(), "POST", "/query", Some(&body));
    assert_eq!(resp.status, 413);
    assert_eq!(resp.text(), "{\"error\":\"request body too large\"}");
    router.shutdown();
}

#[test]
fn healthz_tracks_quorum_transitions() {
    let shard_a = FakeShard::start(200, None);
    let shard_b = FakeShard::start(200, None);
    let router = Router::start(
        topology_of(&[("quorum-a", shard_a.addr), ("quorum-b", shard_b.addr)]),
        0,
        RouterOptions {
            probe_interval: Duration::from_millis(50),
            ..RouterOptions::default()
        },
    )
    .unwrap();
    let await_health = |status: u16| {
        for _ in 0..100 {
            if common::request(router.addr(), "GET", "/healthz", None).status == status {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        panic!("/healthz never reached {status}");
    };

    await_health(200);

    // One of two shards failing breaks the majority quorum...
    shard_b.status.store(500, Ordering::SeqCst);
    await_health(503);
    let text = common::request(router.addr(), "GET", "/healthz", None).text();
    assert!(
        text.contains("\"degraded\""),
        "not the degraded body: {text}"
    );

    // ...and recovery restores it.
    shard_b.status.store(200, Ordering::SeqCst);
    await_health(200);

    let events = fdc_obs::journal().recent(256);
    let down = events
        .iter()
        .filter(
            |e| matches!(&e.event, fdc_obs::Event::ShardDown { shard, .. } if shard == "quorum-b"),
        )
        .count();
    let up = events
        .iter()
        .filter(|e| {
            matches!(&e.event, fdc_obs::Event::ShardRecovered { shard, .. } if shard == "quorum-b")
        })
        .count();
    assert!(down >= 1, "no ShardDown event for the failed shard");
    assert!(up >= 1, "no ShardRecovered event after recovery");

    // A fleet scrape goes out under the one Prometheus content type.
    let metrics = common::request(router.addr(), "GET", "/metrics", None);
    assert_eq!(
        metrics.header("content-type"),
        Some(fdc_obs::export::prom::CONTENT_TYPE)
    );
    router.shutdown();
}

/// A shard that keeps connections alive and answers just enough of the
/// protocol (`/placement`, `/query`, `/insert`, `/healthz`) for a cube
/// whose every query is its top node. It records the requests of every
/// connection. When `drop_next` is armed it reads one more routed
/// request and closes the connection without a byte of response — a
/// shard that gave the idle connection up just as the router reused it;
/// while `misdirect` is above zero it answers `/query` with the `421` of
/// a shard that holds another placement map.
struct KeepAliveShard {
    addr: SocketAddr,
    /// `"METHOD /path"` of every request, per accepted connection.
    conns: Arc<Mutex<Vec<Vec<String>>>>,
    drop_next: Arc<AtomicBool>,
    misdirect: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl KeepAliveShard {
    fn start() -> KeepAliveShard {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conns = Arc::new(Mutex::new(Vec::<Vec<String>>::new()));
        let drop_next = Arc::new(AtomicBool::new(false));
        let misdirect = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let (conns, drop_next, misdirect, stop) = (
                conns.clone(),
                drop_next.clone(),
                misdirect.clone(),
                stop.clone(),
            );
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    let (conns, drop_next, misdirect) =
                        (conns.clone(), drop_next.clone(), misdirect.clone());
                    // Ends when the router lets go of the connection.
                    std::thread::spawn(move || Self::serve(stream, &conns, &drop_next, &misdirect));
                }
            })
        };
        KeepAliveShard {
            addr,
            conns,
            drop_next,
            misdirect,
            stop,
            acceptor: Some(acceptor),
        }
    }

    fn serve(
        mut stream: TcpStream,
        conns: &Mutex<Vec<Vec<String>>>,
        drop_next: &AtomicBool,
        misdirect: &AtomicUsize,
    ) {
        use fdc_obs::httpcore::{status_line, write_reply, RequestReader};
        let id = {
            let mut conns = conns.lock().unwrap();
            conns.push(Vec::new());
            conns.len() - 1
        };
        let mut reader = RequestReader::new();
        let row = top_row();
        while let Ok(request) = reader.read(&mut stream, 1 << 20, Duration::from_secs(10)) {
            let path = request.path_query().0;
            conns.lock().unwrap()[id].push(format!("{} {path}", request.method));
            if path != "/healthz" && drop_next.swap(false, Ordering::SeqCst) {
                return;
            }
            let stale = path == "/query"
                && misdirect
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok();
            let (status, body): (u16, &[u8]) = match path {
                "/query" if stale => (421, b"{\"error\":\"another placement map\"}"),
                "/placement" => (200, &map().0),
                "/query" => (200, row.as_bytes()),
                "/insert" => (202, b"{\"accepted\":1}"),
                _ => (200, b"{\"status\":\"ok\"}"),
            };
            let close = !request.persistent;
            let written = write_reply(
                &mut stream,
                status_line(status),
                "application/json",
                body,
                &[],
                close,
            );
            if close || written.is_err() {
                return;
            }
        }
    }

    /// The connections that carried routed traffic (not only probes).
    fn routed_conns(&self) -> Vec<Vec<String>> {
        self.conns
            .lock()
            .unwrap()
            .iter()
            .filter(|paths| paths.iter().any(|p| p != "GET /healthz"))
            .cloned()
            .collect()
    }

    /// How many routed requests were `request` (`"METHOD /path"`).
    fn count(&self, request: &str) -> usize {
        let conns = self.routed_conns();
        conns.concat().iter().filter(|r| *r == request).count()
    }
}

impl Drop for KeepAliveShard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(self.addr));
        if let Some(h) = self.acceptor.take() {
            h.join().ok();
        }
    }
}

const ANY_QUERY: &str = "{\"sql\":\"SELECT time, v FROM facts AS OF now() + '1 quarter'\"}";
const ANY_ROW: &str = "{\"dims\":[\"k\"],\"value\":1.5}";

fn router_over(shard: &KeepAliveShard, id: &str) -> Router {
    Router::start(
        topology_of(&[(id, shard.addr)]),
        0,
        RouterOptions {
            probe_interval: Duration::from_secs(3600),
            ..RouterOptions::default()
        },
    )
    .unwrap()
}

#[test]
fn one_map_fetch_plans_every_horizon() {
    let shard = KeepAliveShard::start();
    let router = router_over(&shard, "horizons");
    for h in 1..=50 {
        let body =
            format!("{{\"sql\":\"SELECT time, v FROM facts AS OF now() + '{h} quarters'\"}}");
        let resp = common::request(router.addr(), "POST", "/query", Some(&body));
        assert_eq!((resp.status, resp.text()), (200, top_row()));
    }
    // Fifty statements, one map: the shard is asked for it once and
    // never asked to plan.
    assert_eq!(shard.count("GET /placement"), 1);
    assert_eq!(shard.count("POST /query"), 50);
    assert_eq!(shard.count("POST /plan"), 0);
    router.shutdown();
}

#[test]
fn a_stale_map_is_fetched_again_and_the_query_sent_once_more() {
    let shard = KeepAliveShard::start();
    let router = router_over(&shard, "stale");
    let loads = |reason| fdc_obs::counter_with(ROUTER_PLACEMENT_LOADS, &[("reason", reason)]).get();
    let stale_before = loads("stale");
    // The shard refuses the first sub-request: the router fetches the
    // map again, plans again and sends again, and the client sees 200.
    shard.misdirect.store(1, Ordering::SeqCst);
    let resp = common::request(router.addr(), "POST", "/query", Some(ANY_QUERY));
    assert_eq!((resp.status, resp.text()), (200, top_row()));
    assert_eq!(
        shard.routed_conns().concat(),
        [
            "GET /placement",
            "POST /query",
            "GET /placement",
            "POST /query"
        ]
    );
    assert!(loads("boot") >= 1 && loads("stale") > stale_before);

    // Refused twice, the query is a 500 carrying the shard's refusal.
    shard.misdirect.store(2, Ordering::SeqCst);
    let resp = common::request(router.addr(), "POST", "/query", Some(ANY_QUERY));
    assert_eq!(
        (resp.status, resp.text().as_str()),
        (500, "{\"error\":\"another placement map\"}")
    );
    assert_eq!(shard.count("GET /placement"), 3);
    assert_eq!(shard.count("POST /query"), 4);
    router.shutdown();
}

/// Tourism with one model, at the top: every node derives from it — a
/// configuration whose scheme sources differ from `own_model_db`'s.
fn top_model_db(seed: u64) -> fdc_f2db::F2db {
    use fdc_cube::{Configuration, ConfiguredModel, CubeSplit};
    let ds = fdc_datagen::tourism_proxy(seed);
    let split = CubeSplit::new(&ds, 0.8);
    let top = ds.graph().top_node();
    let fit = fdc_forecast::FitOptions::default();
    let model = ConfiguredModel::fit(&split, top, &fdc_forecast::ModelSpec::Ses, &fit).unwrap();
    let mut cfg = Configuration::new(ds.node_count());
    cfg.insert_model(top, model);
    let all: Vec<usize> = (0..ds.node_count()).collect();
    cfg.recompute_nodes(&ds, &split, &all);
    fdc_f2db::F2db::load(ds, &cfg).unwrap()
}

#[test]
fn a_shard_reopened_on_another_configuration_is_planned_anew() {
    let serve = |db, port| Server::start(Arc::new(db), port, ServeOptions::default()).unwrap();
    let first = serve(common::own_model_db(1), 0);
    let addr = first.addr();
    let router = Router::start(
        topology_of(&[("reopened", addr)]),
        0,
        RouterOptions {
            probe_interval: Duration::from_secs(3600),
            ..RouterOptions::default()
        },
    )
    .unwrap();
    let body = "{\"sql\":\"SELECT time, SUM(visitors) FROM facts GROUP BY time, purpose AS OF now() + '2 quarters'\"}";
    let ask = |at| common::http(at, "POST", "/query", Some(body));
    let before = ask(router.addr());
    assert_eq!(before, ask(addr));

    // Same port, another configuration: the map the router holds is not
    // the shard's any more.
    first.shutdown().unwrap();
    let second = serve(top_model_db(1), addr.port());
    let stale = || fdc_obs::counter_with(ROUTER_PLACEMENT_LOADS, &[("reason", "stale")]).get();
    let stale_before = stale();
    let after = ask(router.addr());
    assert_eq!(after.0, 200, "{}", after.1);
    assert_eq!(after, ask(addr), "the router answered from the old map");
    assert_ne!(after, before);
    assert!(stale() > stale_before, "the router kept the old map");
    router.shutdown();
    second.shutdown().unwrap();
}

#[test]
fn plan_and_query_share_one_shard_connection() {
    let shard = KeepAliveShard::start();
    let router = router_over(&shard, "reuse");
    let hits_before =
        fdc_obs::counter_with(fdc_obs::names::ROUTER_POOL, &[("outcome", "hit")]).get();
    for _ in 0..3 {
        let resp = common::request(router.addr(), "POST", "/query", Some(ANY_QUERY));
        assert_eq!((resp.status, resp.text()), (200, top_row()));
    }
    // One accept for the map (first query only) and all three queries.
    assert_eq!(
        shard.routed_conns(),
        [[
            "GET /placement",
            "POST /query",
            "POST /query",
            "POST /query"
        ]]
    );
    let stats = common::request(router.addr(), "GET", "/stats", None).text();
    assert!(stats.contains("\"pool\":{\"hit\":"), "{stats}");
    let hits = fdc_obs::counter_with(fdc_obs::names::ROUTER_POOL, &[("outcome", "hit")]).get();
    assert!(hits >= hits_before + 3, "{hits_before} -> {hits}");
    router.shutdown();
}

#[test]
fn a_dead_connection_replays_a_read_but_never_an_insert() {
    let shard = KeepAliveShard::start();
    let router = router_over(&shard, "replay");
    let query = || common::request(router.addr(), "POST", "/query", Some(ANY_QUERY));
    let insert = || common::request(router.addr(), "POST", "/insert", Some(ANY_ROW));
    assert_eq!(query().status, 200);

    // The shard swallows the next request and hangs up. For a read the
    // router tries once more on a fresh connection; the client sees 200.
    shard.drop_next.store(true, Ordering::SeqCst);
    let replayed = query();
    assert_eq!(replayed.status, 200, "{}", replayed.text());
    assert_eq!(
        shard.routed_conns(),
        [
            vec!["GET /placement", "POST /query", "POST /query"],
            vec!["POST /query"]
        ]
    );

    // For a write the same death is an answer, not a retry: the shard may
    // have applied the rows, so the router reports the typed partial
    // failure and the shard has seen the insert exactly once.
    shard.drop_next.store(true, Ordering::SeqCst);
    let failed = insert();
    assert_eq!(failed.status, 503, "{}", failed.text());
    let text = failed.text();
    assert!(
        text.contains("partial write failure") && text.contains("\"failed_shard\":\"replay\""),
        "{text}"
    );
    let inserts = |shard: &KeepAliveShard| {
        shard
            .routed_conns()
            .concat()
            .iter()
            .filter(|p| *p == "POST /insert")
            .count()
    };
    assert_eq!(inserts(&shard), 1, "{:?}", shard.routed_conns());

    // The next insert finds the pool empty, connects and commits.
    let ok = insert();
    assert_eq!((ok.status, ok.text().as_str()), (202, "{\"accepted\":1}"));
    assert_eq!(inserts(&shard), 2);
    router.shutdown();
}
