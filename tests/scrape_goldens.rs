//! Frozen scrapes: what a process answers on `GET /metrics`, `GET
//! /events?n=` and `GET /snapshot` — the status, the `Content-Type`, and
//! the parts of the body this test controls: its own metric families
//! (all named `scrape.*`) and, as a masked skeleton, the events it
//! publishes itself.
//!
//! The expected values were produced while a second listener, apart
//! from the forecast server, answered these routes, and are the proof
//! that moving them changed no byte of what a scraper reads. They are
//! never edited; only [`serve`], which starts the server, may change.
//! What a server counts about its own requests is not the test's and is
//! not pinned.
//!
//! Runs as its own process, so the registry's `scrape.*` families and
//! the journal's newest events are this file's alone.

use fdc::obs::httpcore::client::{send_once, Outgoing};
use fdc::obs::{journal, Event};
use fdc::serve::json::Reader;
use std::time::Duration;

/// `doc` with every number — digits, then an optional fraction and
/// exponent — replaced by one `#` (the `json_goldens` mask).
fn mask(doc: &str) -> String {
    let bytes = doc.as_bytes();
    let digits = |mut at: usize| {
        while bytes.get(at).is_some_and(u8::is_ascii_digit) {
            at += 1;
        }
        at
    };
    let mut out = String::with_capacity(doc.len());
    let mut at = 0;
    while let Some(c) = doc[at..].chars().next() {
        if !c.is_ascii_digit() {
            out.push(c);
            at += c.len_utf8();
            continue;
        }
        out.push('#');
        at = digits(at);
        if bytes.get(at) == Some(&b'.') && digits(at + 1) > at + 1 {
            at = digits(at + 1);
        }
        if matches!(bytes.get(at), Some(b'e' | b'E')) {
            let sign = usize::from(matches!(bytes.get(at + 1), Some(b'+' | b'-')));
            if digits(at + 1 + sign) > at + 1 + sign {
                at = digits(at + 1 + sign);
            }
        }
    }
    out
}

/// Starts the server that answers the scrapes and returns its address.
/// It runs for the rest of the process.
fn serve() -> String {
    // A forecast server over an engine with no model: a scrape reads the
    // process's registry and journal, not the engine.
    let ds = fdc::datagen::tourism_proxy(1);
    let none = fdc::cube::Configuration::new(ds.node_count());
    let db = fdc::f2db::F2db::load(ds, &none).expect("the engine loads");
    let options = fdc::serve::ServeOptions::default();
    let server =
        fdc::serve::Server::start(std::sync::Arc::new(db), 0, options).expect("the server starts");
    let addr = server.addr().to_string();
    std::mem::forget(server);
    addr
}

/// `(status, content type, body)` of one GET.
fn get(addr: &str, target: &str) -> (u16, String, String) {
    let request = Outgoing::new("GET", target, b"");
    let response = send_once(addr, &request, Duration::from_secs(10)).expect("the server answers");
    let content_type = response.header("content-type").unwrap_or("").to_string();
    (response.status, content_type, response.text())
}

/// The Prometheus lines of this test's own families.
fn own_families(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let name = line.strip_prefix("# TYPE ").unwrap_or(line);
        if name.starts_with("scrape_") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The members of a snapshot document that name this test's own
/// series, one `section key value` line each, bytes as served.
fn own_series(doc: &str) -> String {
    let mut r = Reader::new(doc);
    let mut out = String::new();
    r.begin_object().expect("a snapshot is an object");
    while let Some(section) = r.next_key().expect("a section") {
        r.begin_object().expect("a section is an object");
        while let Some(key) = r.next_key().expect("a series") {
            let start = r.offset();
            r.skip_value().expect("a value");
            if key.starts_with("scrape.") {
                out.push_str(&format!("{section} {key} {}\n", r.since(start)));
            }
        }
    }
    r.finish().expect("one document");
    out
}

/// Records one series of every kind under `scrape.*`, with labels given
/// out of order and one label value a writer has to escape.
fn record_own_series() {
    fdc::obs::counter_with("scrape.hits", &[("zone", "eu"), ("app", "fdc")]).add(3);
    fdc::obs::counter("scrape.plain").incr();
    fdc::obs::gauge_with("scrape.level", &[("q", "a\"b")]).set(-7);
    fdc::obs::float_gauge("scrape.ratio").set(0.625);
    let latency = fdc::obs::histogram_with("scrape.latency.ns", &[("route", "query")]);
    for v in [1, 100, 100, 5_000, 1_000_000] {
        latency.record(v);
    }
}

/// The events this test publishes, oldest first.
fn own_events() -> Vec<Event> {
    vec![
        Event::CatalogSave { bytes: 1522 },
        Event::SeriesOverflow {
            family: "scrape.\"family\"".to_string(),
        },
        Event::DriftAlert {
            node: 3,
            smape: 0.625,
            mae: 1.5,
            threshold: 0.5,
            trigger: "smape_threshold",
        },
    ]
}

const METRICS_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Every value of the test's own series is its own, so these two are
/// pinned whole; only the events, which carry a clock and the journal's
/// sequence, are masked.
const METRICS: &str = r#"# TYPE scrape_hits counter
scrape_hits{app="fdc",zone="eu"} 3
# TYPE scrape_plain counter
scrape_plain 1
# TYPE scrape_level gauge
scrape_level{q="a\"b"} -7
# TYPE scrape_ratio gauge
scrape_ratio 0.625
# TYPE scrape_latency_ns histogram
scrape_latency_ns_bucket{route="query",le="1"} 1
scrape_latency_ns_bucket{route="query",le="127"} 3
scrape_latency_ns_bucket{route="query",le="8191"} 4
scrape_latency_ns_bucket{route="query",le="1048575"} 5
scrape_latency_ns_bucket{route="query",le="+Inf"} 5
scrape_latency_ns_sum{route="query"} 1005201
scrape_latency_ns_count{route="query"} 5
# TYPE scrape_latency_ns_digest gauge
scrape_latency_ns_digest{route="query",quantile="0.5"} 100
scrape_latency_ns_digest{route="query",quantile="0.95"} 1000000
scrape_latency_ns_digest{route="query",quantile="0.99"} 1000000
scrape_latency_ns_digest{route="query",quantile="0.999"} 1000000
"#;

const EVENTS: &str = r#"[{"seq":#,"unix_ms":#,"type":"CatalogSave","bytes":#},{"seq":#,"unix_ms":#,"type":"SeriesOverflow","family":"scrape.\"family\""},{"seq":#,"unix_ms":#,"type":"DriftAlert","node":#,"smape":#,"mae":#,"threshold":#,"trigger":"smape_threshold"}]
[{"seq":#,"unix_ms":#,"type":"DriftAlert","node":#,"smape":#,"mae":#,"threshold":#,"trigger":"smape_threshold"}]
"#;

const SNAPSHOT: &str = r#"counters scrape.hits{app="fdc",zone="eu"} 3
counters scrape.plain 1
gauges scrape.level{q="a\"b"} -7
float_gauges scrape.ratio 0.625
histograms scrape.latency.ns{route="query"} {"count":5,"sum":1005201,"min":1,"max":1000000,"p50":100,"p95":1000000,"p99":1000000,"p999":1000000}
"#;

#[test]
fn every_scrape_is_the_pinned_one() {
    let addr = serve();
    record_own_series();
    let events = own_events();
    let published = events.len();
    for event in events {
        journal().publish(event);
    }

    let (status, content_type, body) = get(&addr, "/metrics");
    assert_eq!((status, content_type.as_str()), (200, METRICS_TYPE));
    assert_eq!(own_families(&body), METRICS, "/metrics:\n{body}");

    // The count may sit among other parameters.
    let mut bodies = String::new();
    for target in [format!("/events?n={published}"), "/events?x=y&n=1".into()] {
        let (status, content_type, body) = get(&addr, &target);
        assert_eq!((status, content_type.as_str()), (200, "application/json"));
        bodies.push_str(&body);
        bodies.push('\n');
    }
    assert_eq!(mask(&bodies), EVENTS, "/events:\n{bodies}");

    let (status, content_type, body) = get(&addr, "/snapshot");
    assert_eq!((status, content_type.as_str()), (200, "application/json"));
    assert_eq!(own_series(&body), SNAPSHOT, "/snapshot:\n{body}");
}
