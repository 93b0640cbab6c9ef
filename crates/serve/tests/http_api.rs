//! Route-level integration tests: every endpoint over a real socket,
//! the two admission-control rejections (`429` queue-full, `503`
//! deadline) provoked deterministically with artificially slow queries,
//! an insert whose commit outlasts the deadline, and the life of a kept-alive connection: reuse, idle reap, backlog
//! and shutdown.

mod common;

use common::{
    base_dims, full_round_body, http, http_with_headers, row_json, small_db, small_db_raw,
};
use fdc_f2db::{Placement, QueryMode};
use fdc_forecast::FitOptions;
use fdc_obs::httpcore::client::{send_once, Client, Outgoing, Pooled};
use fdc_obs::names;
use fdc_serve::{wire, ServeOptions, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn routes_answer_over_a_real_socket() {
    let db = small_db();
    let dims = base_dims(&db);
    let len_before = db.dataset().series_len();
    let server = Server::start(
        Arc::clone(&db),
        0,
        ServeOptions {
            max_body: 64 * 1024,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Health and stats.
    let r = http(addr, "GET", "/healthz", "").unwrap();
    assert_eq!((r.status, r.text().as_str()), (200, "{\"status\":\"ok\"}"));
    let r = http(addr, "GET", "/stats", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.text().contains("\"series_len\""), "{}", r.text());

    // Forecast query.
    let r = http(
        addr,
        "POST",
        "/query",
        r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '3 quarters'"}"#,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(
        r.text().starts_with("{\"rows\":[{\"node\":"),
        "{}",
        r.text()
    );
    assert!(r.text().contains("\"values\":[[32,"), "{}", r.text());

    // Explain, static and analyzed.
    let r = http(
        addr,
        "POST",
        "/explain",
        r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '2 quarters'"}"#,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"analyzed\":false"), "{}", r.text());
    assert!(r.text().contains("\"scheme\":"), "{}", r.text());
    let r = http(
        addr,
        "POST",
        "/explain",
        r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '2 quarters'", "analyze": true}"#,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"analyzed\":true"), "{}", r.text());
    assert!(r.text().contains("\"elapsed_ns\":"), "{}", r.text());

    // Single-row insert: acknowledged but no advance yet.
    let r = http(addr, "POST", "/insert", &row_json(&dims[0], 42.0)).unwrap();
    assert_eq!((r.status, r.text().as_str()), (202, "{\"accepted\":1}"));
    assert_eq!(db.pending_inserts(), 1);

    // Batch insert completing the round: the time stamp advances.
    let rest: Vec<String> = dims[1..].iter().map(|d| row_json(d, 42.0)).collect();
    let r = http(
        addr,
        "POST",
        "/insert",
        &format!("{{\"rows\":[{}]}}", rest.join(",")),
    )
    .unwrap();
    assert_eq!(r.status, 202, "{}", r.text());
    assert_eq!(db.dataset().series_len(), len_before + 1);
    assert_eq!(db.pending_inserts(), 0);

    // A full round in one request advances again.
    let r = http(addr, "POST", "/insert", &full_round_body(&dims, 43.0)).unwrap();
    assert_eq!(r.status, 202);
    assert_eq!(db.dataset().series_len(), len_before + 2);

    // Maintain.
    let r = http(addr, "POST", "/maintain", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.text().starts_with("{\"refitted\":"), "{}", r.text());

    // Error paths.
    let r = http(addr, "POST", "/query", "{not json").unwrap();
    assert_eq!(r.status, 400);
    let r = http(addr, "POST", "/query", r#"{"sql": "SELECT nonsense"}"#).unwrap();
    assert_eq!(r.status, 400);
    assert!(r.text().contains("error"), "{}", r.text());
    let r = http(addr, "POST", "/insert", r#"{"rows": []}"#).unwrap();
    assert_eq!(r.status, 400);
    let r = http(
        addr,
        "POST",
        "/insert",
        r#"{"dims": ["nope", "NSW"], "value": 1.0}"#,
    )
    .unwrap();
    assert_eq!(r.status, 400, "{}", r.text());
    let r = http(addr, "GET", "/no/such/route", "").unwrap();
    assert_eq!(r.status, 404);
    let r = http(addr, "GET", "/query", "").unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("POST"));
    let r = http(addr, "POST", "/stats", "").unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET"));
    let oversized = format!("{{\"sql\": \"{}\"}}", "x".repeat(80 * 1024));
    let r = http(addr, "POST", "/query", &oversized).unwrap();
    assert_eq!(r.status, 413);

    // Batch metrics: the full-round request committed all its rows in
    // one engine commit — more than one row per advance-lock trip.
    let stats = db.stats();
    assert!(stats.insert_batches >= 2);
    assert!(stats.inserts / stats.insert_batches > 1);

    // After real traffic, /stats carries digest-backed per-route
    // latency quantiles and a drift summary (null: monitoring is off).
    let r = http(addr, "GET", "/stats", "").unwrap();
    assert_eq!(r.status, 200);
    assert!(r.text().contains("\"latency\":{"), "{}", r.text());
    assert!(r.text().contains("\"query\":{\"count\":"), "{}", r.text());
    assert!(r.text().contains("\"p999\":"), "{}", r.text());
    assert!(r.text().contains("\"drift\":null"), "{}", r.text());

    let report = server.shutdown().unwrap();
    assert!(!report.saved_catalog);
}

#[test]
fn a_forecast_planned_over_another_placement_map_is_misdirected() {
    let db = small_db();
    let server = Server::start(Arc::clone(&db), 0, ServeOptions::default()).unwrap();
    let addr = server.addr();
    // The map a router fetches is the engine's own.
    let get = Outgoing::new("GET", "/placement", b"");
    let map = send_once(&addr.to_string(), &get, Duration::from_secs(30)).unwrap();
    assert_eq!(map.status, 200);
    let map = Placement::decode(&map.body).unwrap();
    assert_eq!(map.fingerprint(), db.placement().fingerprint());

    // A request naming it is answered as one without the header; one
    // naming another map is refused with 421 and the two fingerprints.
    let body = r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '1 quarter'"}"#;
    let ask = |fingerprint: Option<u64>| {
        let value = fingerprint.map(wire::placement_header);
        let headers: Vec<(&str, &str)> = value
            .iter()
            .map(|v| (wire::PLACEMENT_HEADER, v.as_str()))
            .collect();
        http_with_headers(addr, "POST", "/query", body, &headers).unwrap()
    };
    let plain = ask(None);
    assert_eq!(plain.status, 200, "{}", plain.text());
    let routed = ask(Some(map.fingerprint()));
    assert_eq!((routed.status, routed.text()), (200, plain.text()));
    let stale = ask(Some(!map.fingerprint()));
    assert_eq!(stale.status, 421, "{}", stale.text());
    assert!(
        stale
            .text()
            .contains(&wire::placement_header(!map.fingerprint()))
            && stale
                .text()
                .contains(&wire::placement_header(map.fingerprint())),
        "{}",
        stale.text()
    );
    server.shutdown().unwrap();
}

#[test]
fn slow_log_keeps_its_plan_on_a_partitioned_shard() {
    // One shard of a partitioned deployment: it owns the base cells of
    // one first-dimension slice.
    let db = small_db_raw();
    let bases = db.dataset().graph().base_nodes().to_vec();
    let key = db.partition_key(bases[0], 1).unwrap();
    let owned: Vec<_> = bases
        .into_iter()
        .filter(|&b| db.partition_key(b, 1).unwrap() == key)
        .collect();
    let db = Arc::new(db.with_base_partition(&owned).unwrap());
    let server = Server::start(
        Arc::clone(&db),
        0,
        ServeOptions {
            slow_threshold: Duration::ZERO,
            ..ServeOptions::default()
        },
    )
    .unwrap();

    // The routed sub-request a router would send: the fan-out query,
    // narrowed to the nodes this shard can serve.
    let sql = "SELECT time, SUM(visitors) FROM facts GROUP BY time, purpose, state AS OF now() + '2 quarters'";
    let map = db.placement();
    let nodes = map.plan(sql, QueryMode::Forecast, None).unwrap();
    let resident: Vec<_> = nodes.iter().filter(|&&n| db.is_resident(n)).collect();
    assert!(!resident.is_empty() && resident.len() < nodes.len());
    let ids: Vec<String> = resident.iter().map(|n| n.to_string()).collect();
    let body = format!("{{\"sql\":\"{sql}\",\"nodes\":[{}]}}", ids.join(","));
    let r = http(server.addr(), "POST", "/query", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());

    // The capture runs after the response is on the wire, and a
    // length-framed client has its answer before the worker is done.
    let waited = Instant::now();
    while !server
        .slow_log()
        .entries()
        .iter()
        .any(|e| e.route == "query")
    {
        assert!(waited.elapsed() < Duration::from_secs(10), "never captured");
        std::thread::sleep(Duration::from_millis(5));
    }
    // The capture re-ran the *same* request as EXPLAIN ANALYZE: exactly
    // the filtered rows, not a WrongShard on the unfiltered fan-out.
    let r = http(server.addr(), "GET", "/slow", "").unwrap();
    assert!(!r.text().contains("\"explain\":null"), "{}", r.text());
    let entries = server.slow_log().entries();
    let entry = entries.iter().find(|e| e.route == "query").unwrap();
    assert_eq!(entry.sql.as_deref(), Some(sql));
    let plan = entry.explain.as_deref().expect("captured plan");
    assert_eq!(plan.matches("-> node [").count(), resident.len(), "{plan}");
    for &&node in &resident {
        assert!(
            plan.contains(&format!("-> node [{}]", map.label(node))),
            "{plan}"
        );
    }
    server.shutdown().unwrap();
}

/// A database whose queries are artificially slow: every model is
/// invalid and each lazy re-fit stalls, so one `/query` holds a worker
/// for hundreds of milliseconds — long enough to fill a depth-1 queue
/// deterministically.
fn slow_db(stall_us: u64) -> Arc<fdc_f2db::F2db> {
    Arc::new(common::small_db_raw().with_fit_options(FitOptions {
        artificial_stall_us: stall_us,
        ..FitOptions::default()
    }))
}

const SLOW_QUERY: &str =
    r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '1 quarter'"}"#;

#[test]
fn queue_overflow_answers_429_with_retry_after() {
    let db = slow_db(400_000);
    let server = Server::start(
        Arc::clone(&db),
        0,
        ServeOptions {
            workers: 1,
            queue_depth: 1,
            deadline: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    db.invalidate_all();
    // First request: picked up by the only worker, stalls in lazy
    // re-estimation.
    let first = std::thread::spawn(move || http(addr, "POST", "/query", SLOW_QUERY).unwrap());
    std::thread::sleep(Duration::from_millis(150));
    // Second request: sits in the (now full) queue.
    let second = std::thread::spawn(move || http(addr, "POST", "/query", SLOW_QUERY).unwrap());
    std::thread::sleep(Duration::from_millis(100));
    // Third request: queue full → immediate 429 from the accept thread.
    let r = http(addr, "POST", "/query", SLOW_QUERY).unwrap();
    assert_eq!(r.status, 429, "{}", r.text());
    assert_eq!(r.header("retry-after"), Some("1"));

    assert_eq!(first.join().unwrap().status, 200);
    assert_eq!(second.join().unwrap().status, 200);
    server.shutdown().unwrap();
}

#[test]
fn stale_queued_request_answers_503() {
    let db = slow_db(500_000);
    let server = Server::start(
        Arc::clone(&db),
        0,
        ServeOptions {
            workers: 1,
            queue_depth: 8,
            deadline: Duration::from_millis(200),
            // The oracle below counts engine query executions; keep the
            // slow log's auto-`EXPLAIN ANALYZE` (which re-runs the
            // statement) out of the tally.
            slow_threshold: Duration::MAX,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    db.invalidate_all();
    // Occupy the only worker for well over the deadline.
    let first = std::thread::spawn(move || http(addr, "POST", "/query", SLOW_QUERY).unwrap());
    std::thread::sleep(Duration::from_millis(100));
    // This one will wait in the queue longer than the deadline and must
    // be answered 503 without running the query.
    let queries_before = db.stats().queries;
    let r = http(addr, "POST", "/query", SLOW_QUERY).unwrap();
    assert_eq!(r.status, 503, "{}", r.text());
    let first = first.join().unwrap();
    assert_eq!(first.status, 200);
    // The 503 request never reached the query processor.
    assert_eq!(db.stats().queries, queries_before + 1);
    server.shutdown().unwrap();
}

#[test]
fn an_insert_not_answered_202_commits_nothing() {
    // The commit outlasts the deadline: the test holds the data set's
    // read lock while a full round is in flight, and the round's time
    // advance needs the write lock. The deadline bounds only the wait
    // in the queue, so the insert runs to its commit and is answered
    // `202`; whatever the answer, the rounds that landed are exactly
    // the rounds acknowledged.
    let db = small_db();
    let dims = base_dims(&db);
    let len_before = db.dataset().series_len();
    let server = Server::start(
        Arc::clone(&db),
        0,
        ServeOptions {
            deadline: Duration::from_millis(200),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let held = db.dataset();
    let body = full_round_body(&dims, 7.0);
    let insert = std::thread::spawn(move || http(addr, "POST", "/insert", &body).unwrap());
    std::thread::sleep(Duration::from_millis(500));
    drop(held);
    let r = insert.join().unwrap();
    // Nothing the engine was handed is still on its way in after this.
    server.shutdown().unwrap();
    let acked = usize::from(r.status == 202);
    assert_eq!(
        db.dataset().series_len(),
        len_before + acked,
        "answered {}: {}",
        r.status,
        r.text()
    );
    assert_eq!(r.status, 202, "{}", r.text());
}

const POINT_QUERY: &str =
    r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '2 quarters'"}"#;

fn closed(reason: &str) -> u64 {
    fdc_obs::counter_with(names::SERVE_CONN_CLOSED, &[("reason", reason)]).get()
}

#[test]
fn one_connection_serves_many_requests_and_large_answers_arrive_whole() {
    let server = Server::start(small_db(), 0, ServeOptions::default()).unwrap();
    let addr = server.addr().to_string();
    let client = Client::new(Duration::from_secs(30));
    let first = client
        .send(
            &addr,
            &Outgoing::new("POST", "/query", POINT_QUERY.as_bytes()),
        )
        .unwrap();
    assert_eq!(first.pooled, Pooled::Miss);
    for _ in 0..10 {
        let r = client
            .send(
                &addr,
                &Outgoing::new("POST", "/query", POINT_QUERY.as_bytes()),
            )
            .unwrap();
        assert_eq!((r.status, r.pooled), (200, Pooled::Hit));
        assert_eq!(r.body, first.body, "answers on one connection drifted");
        assert_eq!(r.header("connection"), None, "server announced a close");
    }
    // A response far beyond one socket buffer, on the same connection:
    // every cell of the cube, a long horizon.
    let big = r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time, purpose, state AS OF now() + '400 quarters'"}"#;
    let r = client
        .send(&addr, &Outgoing::new("POST", "/query", big.as_bytes()))
        .unwrap();
    assert_eq!((r.status, r.pooled), (200, Pooled::Hit));
    assert!(r.body.len() > 64 * 1024, "only {} bytes", r.body.len());
    let doc = fdc_serve::json::parse(&r.text()).expect("the large answer is whole JSON");
    let rows = doc.get("rows").and_then(|v| v.as_array()).unwrap();
    assert!(rows.len() > 8, "{} rows", rows.len());
    assert!(rows
        .iter()
        .all(|row| row.get("values").and_then(|v| v.as_array()).unwrap().len() == 400));
    // …and the connection is still in step afterwards.
    let r = client
        .send(&addr, &Outgoing::new("GET", "/stats", b""))
        .unwrap();
    assert_eq!((r.status, r.pooled), (200, Pooled::Hit));
    assert!(
        r.text()
            .contains("\"connections\":{\"closed\":{\"client\":"),
        "{}",
        r.text()
    );
    // A request that asks for it still gets the one-shot connection.
    let r = http(server.addr(), "GET", "/healthz", "").unwrap();
    assert_eq!(r.header("connection"), Some("close"));
    server.shutdown().unwrap();
}

#[test]
fn idle_connection_is_reaped_silently() {
    let server = Server::start(
        small_db(),
        0,
        ServeOptions {
            read_timeout: Duration::from_millis(100),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let malformed = || {
        fdc_obs::counter_with(
            names::SERVE_REQUESTS,
            &[("route", "malformed"), ("status", "400")],
        )
        .get()
    };
    let (reaped_before, malformed_before) = (closed("idle"), malformed());
    let client = Client::new(Duration::from_secs(30));
    let healthz = Outgoing::new("GET", "/healthz", b"");
    assert_eq!(client.send(&addr, &healthz).unwrap().status, 200);
    let waited = Instant::now();
    while closed("idle") == reaped_before {
        assert!(waited.elapsed() < Duration::from_secs(10), "never reaped");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        malformed(),
        malformed_before,
        "the reap was counted as a 400"
    );
    // The client notices the reaped connection before using it.
    let again = client.send(&addr, &healthz).unwrap();
    assert_eq!((again.status, again.pooled), (200, Pooled::Stale));
    server.shutdown().unwrap();
}

#[test]
fn more_persistent_clients_than_workers_are_all_served_promptly() {
    let workers = 2;
    let server = Server::start(
        small_db(),
        0,
        ServeOptions {
            workers,
            read_timeout: Duration::from_secs(5),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr().to_string();
    let backlog_before = closed("backlog");
    let clients: Vec<Client> = (0..workers + 1)
        .map(|_| Client::new(Duration::from_secs(30)))
        .collect();
    let started = Instant::now();
    for _ in 0..5 {
        for client in &clients {
            let r = client
                .send(
                    &addr,
                    &Outgoing::new("POST", "/query", POINT_QUERY.as_bytes()),
                )
                .unwrap();
            assert_eq!(r.status, 200);
        }
    }
    // Fifteen requests; a single wait for the 5 s read timeout of a
    // connection parked on a worker would show.
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "{:?}",
        started.elapsed()
    );
    assert!(
        closed("backlog") > backlog_before,
        "no idle connection was given up"
    );
    server.shutdown().unwrap();
}

/// Reads one response off a raw kept-alive connection: the head, then
/// `Content-Length` bytes.
fn read_raw_response(stream: &mut TcpStream) -> String {
    let mut bytes = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let text = String::from_utf8_lossy(&bytes);
        if let Some(head_end) = text.find("\r\n\r\n") {
            let length: usize = text[..head_end]
                .lines()
                .find_map(|l| {
                    l.to_ascii_lowercase()
                        .strip_prefix("content-length:")?
                        .trim()
                        .parse()
                        .ok()
                })
                .unwrap_or(0);
            if bytes.len() >= head_end + 4 + length {
                return text.into_owned();
            }
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "connection closed mid-response");
        bytes.extend_from_slice(&buf[..n]);
    }
}

#[test]
fn shutdown_closes_idle_connections_at_once_and_answers_the_insert_in_flight() {
    let db = small_db();
    let dims = base_dims(&db);
    let server = Server::start(
        Arc::clone(&db),
        0,
        ServeOptions {
            read_timeout: Duration::from_secs(10),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    // Two kept-alive connections, each accepted and held by a worker.
    let [mut idle, mut writer] = [(); 2].map(|()| {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert!(read_raw_response(&mut stream).starts_with("HTTP/1.1 200"));
        stream
    });
    // The insert is in flight for as long as this test holds back the
    // second half of its body; the server shuts down around it.
    let row = row_json(&dims[0], 7.0);
    let (first, second) = row.as_bytes().split_at(row.len() / 2);
    write!(
        writer,
        "POST /insert HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        row.len()
    )
    .unwrap();
    writer.write_all(first).unwrap();
    let (answer, elapsed) = std::thread::scope(|scope| {
        let stopping = scope.spawn(move || {
            let started = Instant::now();
            server.shutdown().unwrap();
            started.elapsed()
        });
        // The idle connection is closed at once — while the insert is
        // still arriving, not after it or after `read_timeout` — and is
        // told so first: the close notice, then end-of-stream.
        let notice = read_raw_response(&mut idle);
        assert!(notice.starts_with("HTTP/1.1 408 "), "{notice}");
        assert!(notice.contains("Connection: close"), "{notice}");
        assert_eq!(idle.read(&mut [0u8; 16]).unwrap(), 0);
        writer.write_all(second).unwrap();
        (read_raw_response(&mut writer), stopping.join().unwrap())
    });
    assert!(answer.starts_with("HTTP/1.1 202"), "{answer}");
    assert!(answer.ends_with("{\"accepted\":1}"), "{answer}");
    assert!(answer.contains("Connection: close"), "{answer}");
    assert_eq!(db.pending_inserts(), 1);
    assert!(
        elapsed < Duration::from_secs(3),
        "shutdown took {elapsed:?}"
    );
}
