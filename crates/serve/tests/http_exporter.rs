//! End-to-end scrape test: scrape a live forecast server's `/metrics`
//! with a raw `TcpStream` GET and assert the Prometheus text exposition
//! is well-formed — correct content type, one `# TYPE` line per family,
//! canonical label ordering, and monotone cumulative histogram buckets.
//!
//! Runs as its own process, so the global registry contains only what
//! this file records, what the served engine registers, and the
//! server's own `serve_http_requests`.

use fdc_cube::Configuration;
use fdc_f2db::F2db;
use fdc_obs::httpcore::client::{Client, Outgoing, Pooled};
use fdc_serve::{ServeOptions, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// One-shot HTTP GET, returning `(status_line, headers, body)`. It asks
/// for `Connection: close`, so reading to EOF ends with the response.
fn get(addr: SocketAddr, target: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("blank line");
    let (status, headers) = head.split_once("\r\n").unwrap_or((head, ""));
    (status.to_string(), headers.to_string(), body.to_string())
}

/// Splits a sample line `name{labels} value` / `name value` into
/// `(series, value)`.
fn parse_sample(line: &str) -> (&str, f64) {
    let (series, value) = line.rsplit_once(' ').expect("sample has a value");
    (series, value.parse().expect("value parses as f64"))
}

#[test]
fn metrics_scrape_is_well_formed() {
    // Populate every metric kind, with deliberately unsorted labels.
    fdc_obs::counter_with("itest.hits", &[("zone", "eu"), ("app", "fdc")]).add(3);
    fdc_obs::counter("itest.plain").incr();
    fdc_obs::gauge("itest.level").set(-7);
    fdc_obs::float_gauge_with("itest.ratio", &[("node", "3")]).set(0.625);
    let hist = fdc_obs::histogram("itest.latency.ns");
    for v in [1, 100, 100, 5_000, 1_000_000] {
        hist.record(v);
    }

    // An engine with no model is enough: the scrape reads the registry.
    let ds = fdc_datagen::tourism_proxy(1);
    let db = F2db::load(ds.clone(), &Configuration::new(ds.node_count())).unwrap();
    let server = Server::start(Arc::new(db), 0, ServeOptions::default()).unwrap();
    let addr = server.addr();

    let (status, headers, _) = get(addr, "/healthz");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(headers.contains("application/json"), "{headers}");

    let (status, headers, body) = get(addr, "/metrics");
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(
        headers.contains(fdc_obs::export::prom::CONTENT_TYPE),
        "{headers}"
    );

    // Canonical label order: sorted by key regardless of call order.
    assert!(
        body.contains("itest_hits{app=\"fdc\",zone=\"eu\"} 3"),
        "{body}"
    );
    assert!(body.contains("itest_plain 1"), "{body}");
    assert!(body.contains("itest_level -7"), "{body}");
    assert!(body.contains("itest_ratio{node=\"3\"} 0.625"), "{body}");

    // Exactly one TYPE line per family, declared before its samples.
    let mut type_for: std::collections::BTreeMap<&str, &str> = Default::default();
    for line in body.lines().filter(|l| l.starts_with("# TYPE ")) {
        let mut parts = line["# TYPE ".len()..].split_whitespace();
        let family = parts.next().unwrap();
        let kind = parts.next().unwrap();
        assert!(
            type_for.insert(family, kind).is_none(),
            "duplicate TYPE line for {family}"
        );
    }
    assert_eq!(type_for.get("itest_hits"), Some(&"counter"));
    assert_eq!(type_for.get("itest_level"), Some(&"gauge"));
    assert_eq!(type_for.get("itest_latency_ns"), Some(&"histogram"));

    // Every sample line parses and belongs to a declared family.
    for line in body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (series, value) = parse_sample(line);
        assert!(value.is_finite() || value.is_nan(), "{line}");
        let name = series.split('{').next().unwrap();
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| type_for.get(f) == Some(&"histogram"))
            .unwrap_or(name);
        assert!(type_for.contains_key(family), "undeclared family: {line}");
    }

    // Histogram buckets: cumulative, non-decreasing, +Inf == _count.
    let buckets: Vec<f64> = body
        .lines()
        .filter(|l| l.starts_with("itest_latency_ns_bucket{"))
        .map(|l| parse_sample(l).1)
        .collect();
    assert!(buckets.len() >= 2, "{body}");
    for w in buckets.windows(2) {
        assert!(w[1] >= w[0], "buckets decrease: {buckets:?}");
    }
    let inf_line = body
        .lines()
        .find(|l| l.starts_with("itest_latency_ns_bucket{le=\"+Inf\"}"))
        .expect("+Inf bucket");
    let count_line = body
        .lines()
        .find(|l| l.starts_with("itest_latency_ns_count"))
        .expect("_count sample");
    assert_eq!(parse_sample(inf_line).1, 5.0);
    assert_eq!(parse_sample(count_line).1, 5.0);
    let sum_line = body
        .lines()
        .find(|l| l.starts_with("itest_latency_ns_sum"))
        .expect("_sum sample");
    assert!(parse_sample(sum_line).1 >= 1_000_000.0);

    // The server counts its own scrapes under a bounded route label.
    let (_, _, body2) = get(addr, "/metrics");
    assert!(
        body2.contains("serve_http_requests{route=\"metrics\",status=\"200\"}"),
        "{body2}"
    );
    assert!(
        body2.contains("serve_http_requests{route=\"healthz\",status=\"200\"} 1"),
        "{body2}"
    );

    // /events and /snapshot answer JSON.
    let (status, _, events) = get(addr, "/events?n=4");
    assert!(status.starts_with("HTTP/1.1 200"));
    assert!(events.starts_with('[') && events.ends_with(']'), "{events}");
    assert!(events.contains("\"type\":\"ServeStart\""), "{events}");
    let (status, _, snap) = get(addr, "/snapshot");
    assert!(status.starts_with("HTTP/1.1 200"));
    assert!(snap.trim_start().starts_with('{'), "{snap}");

    // The scrape routes are ordinary routes of the keep-alive server:
    // one connection carries them all, and anything but GET is a 405.
    let client = Client::new(Duration::from_secs(10));
    let at = addr.to_string();
    let send = |method, path| client.send(&at, &Outgoing::new(method, path, b"")).unwrap();
    assert_eq!(send("GET", "/healthz").pooled, Pooled::Miss);
    for path in ["/metrics", "/events?n=3", "/snapshot"] {
        let response = send("GET", path);
        assert_eq!(
            (response.status, response.pooled),
            (200, Pooled::Hit),
            "{path}"
        );
    }
    for path in ["/metrics", "/events", "/snapshot"] {
        let response = send("POST", path);
        assert_eq!(response.status, 405, "{path}");
        assert_eq!(response.header("allow"), Some("GET"), "{path}");
    }
    assert_eq!(send("GET", "/events?n=three").status, 400);

    server.shutdown().unwrap();
}
