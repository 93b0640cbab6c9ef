//! Router behavior against scripted fake shards: backpressure
//! forwarding (`Retry-After` survives the hop instead of collapsing
//! into an opaque 502), `traceparent` propagation on every shard call,
//! up-front request validation, complete early-reject responses, and
//! `/healthz` quorum transitions with their journal events.

mod common;

use fdc_router::{Router, RouterOptions, ShardSpec, Topology};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU16, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
                    if let Some(raw) = read_http_request(&mut stream) {
                        requests.lock().unwrap().push(raw);
                    }
                    let status = status.load(Ordering::SeqCst);
                    let body = if status < 400 {
                        "{\"status\":\"ok\"}"
                    } else {
                        "{\"error\":\"shard overloaded\"}"
                    };
                    let retry = retry_after
                        .as_deref()
                        .map(|v| format!("Retry-After: {v}\r\n"))
                        .unwrap_or_default();
                    stream
                        .write_all(
                            format!(
                                "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n\
                                 {retry}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                                body.len()
                            )
                            .as_bytes(),
                        )
                        .ok();
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

fn router_http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> fdc_router::client::ShardResponse {
    fdc_router::client::request(
        &addr.to_string(),
        method,
        path,
        body,
        Duration::from_secs(10),
    )
    .expect("router answers")
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

    let resp = router_http(
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

    let resp = router_http(
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
    // hop: the /plan request the fake saw has a traceparent header.
    assert!(
        shard.saw_request_containing("/plan"),
        "router never asked the shard to plan"
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
        let want = router_http(oracle.addr(), "POST", path, Some(&body));
        let got = router_http(router.addr(), "POST", path, Some(&body));
        assert_eq!(want.status, 400, "{path} {members}: {}", want.text());
        assert_eq!(got.status, 400, "{path} {members}: {}", got.text());
        assert_eq!(got.text(), want.text(), "{path} {members}");
    }
    // Not a `/plan` hop, not a scatter: only the boot-time health probe.
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
    let resp = fdc_router::client::request(
        &router.addr().to_string(),
        "POST",
        "/query",
        Some(&body),
        Duration::from_secs(10),
    )
    .expect("a complete response, not a reset");
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
            if router_http(router.addr(), "GET", "/healthz", None).status == status {
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
    let text = router_http(router.addr(), "GET", "/healthz", None).text();
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
    router.shutdown();
}
