//! Frozen text: length and FNV-1a digest of every JSON document the
//! workspace writes — the forecast server's answers, the slow log, the
//! shared request encoding, the router's bodies and fold, the metrics
//! snapshot, the journal's events and the trace export.
//!
//! The expected values were produced by the commit *before* the
//! emitters moved onto `fdc_codec::json::Writer` (each of them then
//! assembled its document with `format!` and `join(",")`) and are the
//! proof that the move changed no byte. They are never edited. Member
//! order is part of the contract: the router keys a shard's row chunks
//! by their leading `{"node":`.
//!
//! One byte change was intended and is kept out of these samples: the
//! trace exporter's private escaper wrote a carriage return or a tab in
//! a span path or process name as `\u000d` / `\u0009`, where every
//! other emitter wrote `\r` / `\t`. With one escape routine the trace
//! export writes the short forms too; the `Writer`'s own unit tests pin
//! the escape set.
//!
//! Documents that carry clocks, counters or ports are pinned as a
//! skeleton: [`mask`] replaces every number with `#`, so key order,
//! quoting and nesting stay exact.
//!
//! To print the current values: `cargo test --test json_goldens --
//! --ignored --nocapture`.

mod common;

use fdc::cube::{Configuration, ConfiguredModel, CubeSplit, NodeEstimate, NodeId, Scheme, STAR};
use fdc::f2db::{ApproxOptions, ApproxQuerySpec, F2db, QueryMode, QueryRequest};
use fdc::forecast::{FitOptions, ModelSpec, SeasonalKind};
use fdc::obs::httpcore::client::{send_once, Outgoing};
use fdc::obs::{
    AccuracyOptions, Event, Registry, SketchBundle, SpanSubscriber, SpanTrace, TDigest, TimedEvent,
    TraceCollector,
};
use fdc::router::{fold, Router, RouterOptions, ShardSpec, Topology};
use fdc::serve::{open_engine, open_follower, wire, ServeOptions, Server, SlowEntry, SlowLog};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The digest of this file, kept local on purpose: the goldens must not
/// move when the workspace's own hash module does.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `doc` with every number — digits, then an optional fraction and
/// exponent — replaced by one `#`, inside strings too (addresses, plan
/// text). What is left is the document's skeleton.
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

#[test]
fn mask_leaves_the_skeleton() {
    assert_eq!(
        mask(r#"{"a":12,"b":-0.5,"c":1e-7,"d":"127.0.0.1:8080 é","e":[3.25E+4,null],"f":"1e"}"#),
        r##"{"a":#,"b":-#,"c":#,"d":"#.#:# é","e":[#,null],"f":"#e"}"##
    );
}

/// Everything a string can hold that a JSON writer must treat: the two
/// characters with their own escape, the named control escapes, a
/// control byte without one, and text outside ASCII.
const AWKWARD: &str = "a\"b\\c\nd\re\tf\u{1}g é😀";

// ---------------------------------------------------------------------
// Encoders that need no server
// ---------------------------------------------------------------------

/// `wire::encode` of every member combination, one body a line.
fn wire_bodies() -> String {
    let modes = [
        QueryMode::Forecast,
        QueryMode::Explain,
        QueryMode::ExplainAnalyze,
    ];
    let node_sets: [Option<Vec<NodeId>>; 3] =
        [None, Some(Vec::new()), Some(vec![0, 3, 17, 1usize << 53])];
    let mut out = String::new();
    for mode in modes {
        for nodes in &node_sets {
            // Every subset of the approx members, and no approx at all.
            for subset in 0..9 {
                let approx = (subset < 8).then(|| ApproxQuerySpec {
                    budget: (subset & 1 != 0).then_some(32),
                    target_ci: (subset & 2 != 0).then_some(0.05),
                    confidence: (subset & 4 != 0).then_some(0.9),
                });
                let request = QueryRequest {
                    sql: format!("SELECT '{AWKWARD}' FROM t"),
                    nodes: nodes.clone(),
                    approx,
                    mode,
                };
                out.push_str(&wire::encode(&request));
                out.push('\n');
            }
        }
    }
    // Numbers a request can carry at the edges of their rendering.
    for target_ci in [1e-7, 1e21, f64::MIN_POSITIVE, 0.1 + 0.2] {
        let request = QueryRequest {
            approx: Some(ApproxQuerySpec {
                target_ci: Some(target_ci),
                ..ApproxQuerySpec::default()
            }),
            ..QueryRequest::new("q", QueryMode::Forecast)
        };
        out.push_str(&wire::encode(&request));
        out.push('\n');
    }
    out
}

fn slow_entries() -> Vec<SlowEntry> {
    vec![
        SlowEntry {
            unix_ms: 1_700_000_000_000,
            route: "healthz",
            status: 200,
            latency_ns: 42,
            trace_id: None,
            sql: None,
            explain: None,
            wait: None,
        },
        SlowEntry {
            unix_ms: 1_700_000_000_001,
            route: "query",
            status: 400,
            latency_ns: u64::MAX,
            trace_id: Some(0xfeed_f00d_dead_beef_cafe_babe_0123_4567),
            sql: Some(format!("SELECT '{AWKWARD}'")),
            explain: Some(format!("plan\n  row {AWKWARD}\n")),
            wait: None,
        },
        SlowEntry {
            unix_ms: 0,
            route: "insert",
            status: 202,
            latency_ns: 7,
            trace_id: Some(1),
            sql: None,
            explain: None,
            wait: Some(
                "{\"buffered_rows\":3,\"queue_depth\":0,\"wal\":{\"last_seq\":9,\"durable_seq\":8}}"
                    .to_string(),
            ),
        },
    ]
}

fn slow_documents() -> String {
    let mut out = String::new();
    for entry in slow_entries() {
        out.push_str(&entry.to_json());
        out.push('\n');
    }
    out.push_str(&SlowLog::new(Duration::from_millis(250), 4).to_json());
    out.push('\n');
    let log = SlowLog::new(Duration::ZERO, 2);
    for entry in slow_entries() {
        log.push(entry);
    }
    out.push_str(&log.to_json());
    out
}

fn snapshot_document() -> String {
    let registry = Registry::default();
    registry.counter("a.b").add(3);
    registry
        .counter_with("m", &[("k", "a\"b\\c"), ("route", "/query")])
        .add(u64::MAX);
    registry.gauge("g").set(-2);
    registry.gauge_with("depth", &[("q", AWKWARD)]).set(7);
    for (name, v) in [
        ("ratio", 0.375),
        ("nan", f64::NAN),
        ("inf", f64::NEG_INFINITY),
        ("tiny", 1e-7),
        ("huge", 1e21),
        ("minus_zero", -0.0),
        ("sum", 0.1 + 0.2),
    ] {
        registry.float_gauge(name).set(v);
    }
    registry
        .float_gauge_with("smape", &[("node", "x\"y")])
        .set(-1.5);
    let h = registry.histogram("h.ns");
    for v in [0, 1, 900, 1_000_000, u64::MAX >> 1] {
        h.record(v);
    }
    registry
        .histogram_with("serve.request.ns", &[("route", "query")])
        .record(1234);
    let empty = Registry::default().snapshot().to_json();
    format!("{}\n{empty}", registry.snapshot().to_json())
}

/// One event of every variant, under an envelope with and without the
/// trace pair. Only `ShardDown::error` holds text a parent-built line
/// escapes, so only it is awkward here (the other strings are covered,
/// awkward, by `fdc-obs`'s own tests).
fn events() -> Vec<Event> {
    vec![
        Event::DriftAlert {
            node: 3,
            smape: 0.625,
            mae: f64::NAN,
            threshold: 1e-7,
            trigger: "smape_threshold",
        },
        Event::ReEstimation {
            node: 3,
            epoch: 2,
            outcome: "refit",
        },
        Event::BatchAdvance {
            time_index: 33,
            model_updates: 7,
            invalidations: 1,
            drift_alerts: 0,
        },
        Event::CatalogSave { bytes: 1522 },
        Event::CatalogLoad { bytes: u64::MAX },
        Event::ServeStart {
            addr: "127.0.0.1:9100".to_string(),
        },
        Event::WalCheckpoint {
            checkpoint_seq: 41,
            last_seq: 44,
            truncated_segments: 2,
        },
        Event::WalRecovery {
            replayed_records: 200,
            truncated_bytes: 13,
            last_seq: 244,
            checkpoint_seq: 44,
        },
        Event::ServeShutdown {
            addr: "127.0.0.1:8090".to_string(),
            drained_requests: 5,
            flushed_rows: 24,
        },
        Event::ReplicaStart {
            primary: "127.0.0.1:8090".to_string(),
            applied_seq: 17,
        },
        Event::SeriesOverflow {
            family: "f2db.node.smape".to_string(),
        },
        Event::RouterStart {
            addr: "127.0.0.1:7000".to_string(),
            shards: 2,
            topology_version: 3,
        },
        Event::ShardDown {
            shard: "s0".to_string(),
            addr: "127.0.0.1:7001".to_string(),
            error: format!("connect: {AWKWARD}"),
        },
        Event::ShardRecovered {
            shard: "s0".to_string(),
            addr: "127.0.0.1:7001".to_string(),
        },
        Event::ReplicaPromoted {
            applied_seq: 17,
            tail_records: 3,
            last_seq: 20,
            promotion_ns: 1_250_000,
        },
    ]
}

fn event_lines() -> String {
    let mut out = String::new();
    for (i, event) in events().into_iter().enumerate() {
        let traced = i % 2 == 0;
        let timed = TimedEvent {
            seq: i as u64 + 1,
            unix_ms: 1_700_000_000_000 + i as u64,
            trace_id: traced.then_some(0xfeed_f00d_dead_beef_cafe_babe_0123_4567),
            // A trace id without a span id is no pair: neither is written.
            span_id: (traced && i != 4).then_some(0x89ab_cdef_0011_2233),
            event,
        };
        out.push_str(&timed.to_json());
        out.push('\n');
    }
    out
}

/// The trace export; `ts`, `dur`, `pid` and `tid` are the process's.
fn trace_documents() -> String {
    let bare = TraceCollector::default();
    let empty = bare.to_json();
    bare.on_close("advisor.run", 0, Duration::from_millis(2));
    let named = TraceCollector::default();
    named.set_process_name("fdc \"primary\" \\ é\u{1}");
    named.on_close("advisor.run/step", 1, Duration::from_micros(1500));
    let trace = SpanTrace {
        trace_id: 0xfeed_f00d_dead_beef_cafe_babe_0123_4567,
        span_id: 0x89ab_cdef_0011_2233,
        parent_span_id: 0,
    };
    named.on_close_traced(
        "serve.request/f2db.query \"q\"\\\n\u{1}é",
        2,
        Duration::from_nanos(999),
        Some(&trace),
    );
    mask(&format!("{empty}\n{}\n{}", bare.to_json(), named.to_json()))
}

fn fleet_document() -> String {
    let mut second = TDigest::new(64.0);
    for i in 0..50 {
        second.insert((i * 13 % 101) as f64);
    }
    let other = SketchBundle {
        accuracy: common::accuracy(),
        digests: vec![
            ("serve.request.ns{route=\"/query\"}".to_string(), second),
            (format!("other{{k=\"{AWKWARD}\"}}"), TDigest::new(64.0)),
        ],
    };
    let empty = fold::fold(&[]).to_json();
    format!(
        "{empty}\n{}",
        fold::fold(&[common::bundle(), other]).to_json()
    )
}

fn topology_documents() -> String {
    let shard = |id: &str, addr: &str, replica: Option<&str>| ShardSpec {
        id: id.to_string(),
        addr: addr.to_string(),
        replica: replica.map(str::to_string),
    };
    let topology = Topology {
        version: 7,
        key_dims: 1,
        shards: vec![
            shard("s0", "127.0.0.1:9001", Some("127.0.0.1:9003")),
            shard("s1", "127.0.0.1:9002", None),
            shard(AWKWARD, "host\\name:1", Some("")),
        ],
    };
    let single = Topology {
        version: u64::MAX,
        key_dims: 0,
        shards: vec![shard("only", "a", None)],
    };
    format!("{}\n{}", topology.encode(), single.encode())
}

// ---------------------------------------------------------------------
// Served documents
// ---------------------------------------------------------------------

/// The products of the served cube as they are and as a JSON string
/// holds them; the regions are `r0..r2`.
const PRODUCTS: [(&str, &str); 4] = [
    ("p0", "p0"),
    ("pro\"d\\1", "pro\\\"d\\\\1"),
    ("prøduct 😀", "prøduct 😀"),
    ("c\u{1}\t3", "c\\u0001\\t3"),
];
const REGIONS: usize = 3;

/// A 4 × 3 engine with seven models, a drift monitor and (off a
/// partition) a sampling plane — built the same on every call.
fn engine(approx: bool) -> F2db {
    let products = PRODUCTS.iter().map(|(p, _)| p.to_string()).collect();
    let regions = (0..REGIONS).map(|r| format!("r{r}")).collect();
    let ds = common::labelled_cube(products, regions, 40, 0x150A);
    let split = CubeSplit::new(&ds, 0.8);
    let fit = FitOptions::default();
    let base = ds.graph().base_nodes().to_vec();
    let seasonal = ModelSpec::HoltWinters {
        period: 4,
        seasonal: SeasonalKind::Additive,
    };
    let mut placed = vec![
        (ds.graph().top_node(), seasonal),
        (base[0], ModelSpec::Ses),
        (base[4], ModelSpec::Holt),
    ];
    let totals: Vec<NodeId> = (0..PRODUCTS.len() as u32)
        .map(|p| ds.graph().node_at(&[p, STAR]).expect("a product total"))
        .collect();
    for (p, &node) in totals.iter().enumerate() {
        placed.push((node, [ModelSpec::Ses, ModelSpec::HoltDamped][p % 2].clone()));
    }
    let mut cfg = Configuration::new(ds.node_count());
    for (node, spec) in &placed {
        let model = ConfiguredModel::fit(&split, *node, spec, &fit).expect("sample fits");
        cfg.insert_model(*node, model);
    }
    let all: Vec<NodeId> = (0..ds.node_count()).collect();
    cfg.recompute_nodes(&ds, &split, &all);
    // A product's total is served by its own model whatever else scores
    // better: its derivation then needs that product's cells alone, and
    // a partition by product can serve it.
    for node in totals {
        let own = Scheme {
            sources: vec![node],
            weight: 1.0,
        };
        cfg.set_estimate(
            node,
            NodeEstimate {
                error: 0.25,
                scheme: Some(own),
            },
        );
    }
    let db = F2db::load(ds, &cfg)
        .expect("the configuration loads")
        .with_drift_monitoring(AccuracyOptions::default());
    if !approx {
        return db;
    }
    db.with_approx(ApproxOptions {
        strata: 2,
        samples_per_stratum: 3,
        min_population: 6,
        spec: Some(ModelSpec::Ses),
        ..ApproxOptions::default()
    })
    .expect("the plane builds")
}

/// One value for every base cell, in base order.
fn full_round(value: f64) -> String {
    let mut rows = Vec::new();
    for (_, product) in PRODUCTS {
        for r in 0..REGIONS {
            let cell = rows.len() as f64;
            rows.push(format!(
                "{{\"dims\":[\"{product}\",\"r{r}\"],\"value\":{}}}",
                value + cell
            ));
        }
    }
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

/// A traceparent whose ids [`mask`] covers whole, so the one sampled
/// request leaves a maskable exemplar.
const TRACEPARENT: (&str, &str) = (
    "traceparent",
    "00-00000000000000000000000000000042-0000000000000017-01",
);

fn call(addr: &str, method: &str, path: &str, body: &str) -> String {
    call_with(addr, method, path, body, &[])
}

/// `status body` of one request.
fn call_with(addr: &str, method: &str, path: &str, body: &str, headers: &[(&str, &str)]) -> String {
    let request = Outgoing {
        headers,
        ..Outgoing::new(method, path, body.as_bytes())
    };
    let response = send_once(addr, &request, Duration::from_secs(30)).expect("the server answers");
    format!("{} {}", response.status, response.text())
}

/// Waits until `ready`, then for what the servers' workers do after a
/// response is on the wire (count the request) to be done as well.
fn settle(ready: impl Fn() -> bool) {
    for _ in 0..1000 {
        if ready() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(ready(), "the servers did not settle");
    std::thread::sleep(Duration::from_millis(100));
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdc_json_goldens_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

const BY_PRODUCT: &str =
    "SELECT time, SUM(v) FROM facts GROUP BY time, product AS OF now() + '3 steps'";
const BY_REGION: &str =
    "SELECT time, SUM(v) FROM facts GROUP BY time, region AS OF now() + '2 steps'";
const TOTAL: &str = "SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '2 steps'";

fn quiet() -> ServeOptions {
    ServeOptions {
        trace_sample: 0.0,
        wal_fsync: false,
        ..ServeOptions::default()
    }
}

/// Every document a primary, its follower, two shards and their router
/// serve, in one fixed order: `/stats` lists the routes the process has
/// answered so far, so this is the one test of this file that serves.
fn served_documents() -> Vec<(&'static str, String)> {
    let mut docs = Vec::new();
    let sql = |text: &str, rest: &str| format!("{{\"sql\":\"{text}\"{rest}}}");

    // A server whose slow log captures every request. A capture follows
    // its response, so one worker keeps the ring in request order.
    let slow_dir = temp_dir("slow");
    let slow_opts = ServeOptions {
        wal_dir: Some(slow_dir.clone()),
        slow_threshold: Duration::ZERO,
        workers: 1,
        ..quiet()
    };
    let (db, _) = open_engine(engine(false), &slow_opts).expect("the engine opens");
    let slow = Server::start(db, 0, slow_opts).expect("the server starts");
    let at = slow.addr().to_string();
    call(&at, "POST", "/query", &sql(BY_REGION, ""));
    call_with(
        &at,
        "POST",
        "/explain",
        &sql(BY_PRODUCT, ""),
        &[TRACEPARENT],
    );
    call(
        &at,
        "POST",
        "/query",
        &sql("SELECT \\\"no\\\" FROM 'such'\\n", ""),
    );
    call(&at, "POST", "/insert", &full_round(100.0));
    call(&at, "GET", "/healthz", "");
    docs.push(("serve: /slow", mask(&call(&at, "GET", "/slow", ""))));
    slow.shutdown().expect("the server drains");

    // A primary with a log.
    let primary_dir = temp_dir("primary");
    let primary_opts = ServeOptions {
        wal_dir: Some(primary_dir.clone()),
        ..quiet()
    };
    let (db, _) = open_engine(engine(true), &primary_opts).expect("the engine opens");
    let primary = Server::start(db, 0, primary_opts).expect("the primary starts");
    let at = primary.addr().to_string();
    let by_product = call(&at, "POST", "/query", &sql(BY_PRODUCT, ""));
    let mut exact = format!("/query {by_product}\n");
    for (path, body) in [
        ("/query", sql(BY_REGION, "")),
        ("/query", sql(TOTAL, ",\"approx\":{}")),
        (
            "/query",
            sql(TOTAL, ",\"approx\":{\"budget\":4,\"confidence\":0.8}"),
        ),
        ("/query", sql(BY_PRODUCT, ",\"nodes\":[]")),
        ("/explain", sql(BY_PRODUCT, "")),
        ("/explain", sql(BY_REGION, "")),
        (
            "/explain",
            sql(TOTAL, ",\"approx\":{\"budget\":4,\"target_ci\":0.05}"),
        ),
        ("/explain", sql(TOTAL, ",\"approx\":{}")),
        ("/plan", sql(BY_PRODUCT, ",\"key_dims\":1")),
        ("/plan", sql(TOTAL, "")),
        ("/query", "{\"sql\": 7}".to_string()),
        ("/query", "{\"sql\": \"q\" \"x\"}".to_string()),
        ("/query", sql("SELECT \\\"no\\\" FROM 'such'\\n", "")),
        ("/nowhere", String::new()),
        (
            "/insert",
            "{\"dims\":[\"p0\",\"r\\\"9\"],\"value\":1}".to_string(),
        ),
    ] {
        exact.push_str(&format!("{path} {}\n", call(&at, "POST", path, &body)));
    }
    for (method, path) in [("GET", "/query"), ("POST", "/stats"), ("GET", "/healthz")] {
        exact.push_str(&format!("{path} {}\n", call(&at, method, path, "")));
    }
    docs.push(("serve: exact answers", exact));

    let masked = [
        call(
            &at,
            "POST",
            "/explain",
            &sql(BY_REGION, ",\"analyze\":true"),
        ),
        call_with(&at, "POST", "/query", &sql(TOTAL, ""), &[TRACEPARENT]),
        call(&at, "POST", "/insert", &full_round(100.0)),
        call(&at, "POST", "/insert", &full_round(250.5)),
        call(&at, "POST", "/maintain", ""),
    ];
    docs.push(("serve: analyzed plan, writes", mask(&masked.join("\n"))));

    // A follower of it.
    let follower_dir = temp_dir("follower");
    let follower_opts = ServeOptions {
        wal_dir: Some(follower_dir.clone()),
        replica_of: Some(at.clone()),
        ..quiet()
    };
    let (db, replica) = open_follower(engine(true), &follower_opts).expect("the follower opens");
    let follower = Server::start_with_replica(db, 0, follower_opts, Arc::clone(&replica))
        .expect("the follower starts");
    // Both servers record into the one process registry: let the
    // follower's first fetches be answered and counted before a
    // `/stats` lists the routes seen so far.
    settle(|| replica.applied_seq() > 0 && replica.lag() == 0);
    let follower_at = follower.addr().to_string();
    let mut replicated = String::new();
    for (method, path) in [
        ("GET", "/healthz"),
        ("POST", "/insert"),
        ("POST", "/maintain"),
        ("GET", "/stats"),
        ("POST", "/promote"),
        ("POST", "/promote"),
        ("GET", "/stats"),
    ] {
        let body = if path == "/insert" {
            full_round(1.0)
        } else {
            String::new()
        };
        replicated.push_str(&format!(
            "{path} {}\n",
            call(&follower_at, method, path, &body)
        ));
    }
    docs.push(("serve: follower", mask(&replicated)));
    follower.shutdown().expect("the follower drains");

    docs.push(("serve: /stats", mask(&call(&at, "GET", "/stats", ""))));

    // Two shards of the same cube, split by product, behind a router.
    let shard_spec = |id: &str, addr: &str| ShardSpec {
        id: id.to_string(),
        addr: addr.to_string(),
        replica: None,
    };
    let placement = Topology {
        version: 3,
        key_dims: 1,
        shards: vec![shard_spec("s0", "-"), shard_spec("s1", "-")],
    };
    let shards: Vec<Server> = ["s0", "s1"]
        .iter()
        .map(|id| {
            let db = engine(false);
            let opts = ServeOptions {
                partition_bases: Some(placement.owned_bases(&db, id).expect("owned bases")),
                ..quiet()
            };
            let (db, _) = open_engine(db, &opts).expect("the shard opens");
            Server::start(db, 0, opts).expect("the shard starts")
        })
        .collect();
    let topology = Topology {
        shards: ["s0", "s1"]
            .iter()
            .zip(&shards)
            .map(|(id, server)| shard_spec(id, &server.addr().to_string()))
            .collect(),
        ..placement
    };
    let router_opts = RouterOptions {
        trace_sample: 0.0,
        ..RouterOptions::default()
    };
    let router = Router::start(topology.clone(), 0, router_opts).expect("the router starts");
    let router_at = router.addr().to_string();

    // A routed answer is the unpartitioned one, byte for byte (the
    // primary's, from before its rounds of inserts).
    let routed = call(&router_at, "POST", "/query", &sql(BY_PRODUCT, ""));
    assert_eq!(routed, by_product, "the router re-rendered a row");

    // Two rows, the first owned by one shard and good, the second owned
    // by the other and naming a region no shard knows: one sub-batch
    // commits, the other is refused, and the router says so.
    let owner = |product: &str| topology.place(product).id.clone();
    let first = PRODUCTS[0];
    let second = PRODUCTS
        .iter()
        .find(|(p, _)| owner(p) != owner(first.0))
        .expect("the products spread over both shards");
    let partial = format!(
        "{{\"rows\":[{{\"dims\":[\"{}\",\"r0\"],\"value\":1}},\
         {{\"dims\":[\"{}\",\"no \\\"such\\\" région\\n\"],\"value\":2}}]}}",
        first.1, second.1
    );
    let round = full_round(100.0);
    let mut exact = String::new();
    for (method, path, body) in [
        ("POST", "/insert", round.as_str()),
        ("POST", "/insert", partial.as_str()),
        ("POST", "/insert", "{\"rows\":[]}"),
        ("POST", "/query", "{\"sql\":\"SELECT \\\"x\\\"\"}"),
        ("GET", "/healthz", ""),
        ("GET", "/nowhere", ""),
        ("PUT", "/stats", ""),
    ] {
        exact.push_str(&format!(
            "{path} {}\n",
            call(&router_at, method, path, body)
        ));
    }
    docs.push(("router: exact answers", exact));
    docs.push((
        "router: /topology",
        mask(&call(&router_at, "GET", "/topology", "")),
    ));
    // The first fleet view makes the shards answer `/sketch`; the pinned
    // one is taken once that route is among those they have counted.
    call(&router_at, "GET", "/stats", "");
    settle(|| true);
    docs.push((
        "router: /stats",
        mask(&call(&router_at, "GET", "/stats", "")),
    ));

    router.shutdown();
    for shard in shards {
        shard.shutdown().expect("the shard drains");
    }
    primary.shutdown().expect("the primary drains");
    for dir in [slow_dir, primary_dir, follower_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
    docs
}

fn plain_documents() -> Vec<(&'static str, String)> {
    vec![
        ("wire::encode", wire_bodies()),
        ("SlowEntry / SlowLog", slow_documents()),
        ("Snapshot", snapshot_document()),
        ("TimedEvent lines", event_lines()),
        ("FleetSketch", fleet_document()),
        ("Topology", topology_documents()),
        ("TraceCollector", trace_documents()),
    ]
}

fn fingerprint(doc: &str) -> (usize, u64) {
    (doc.len(), digest(doc.as_bytes()))
}

const PLAIN: [(&str, usize, u64); 7] = [
    ("wire::encode", 9214, 0x2fb6_389c_6061_91d6),
    ("SlowEntry / SlowLog", 1143, 0x9265_dc8a_667f_257a),
    ("Snapshot", 742, 0xf00a_1cf6_ccb3_4a6a),
    ("TimedEvent lines", 2146, 0xb55c_734c_3c16_38c7),
    ("FleetSketch", 503, 0x31d5_f703_2984_4197),
    ("Topology", 293, 0xf873_5c71_86d6_c3a1),
    ("TraceCollector", 544, 0xa932_3b5b_b172_232a),
];

const SERVED: [(&str, usize, u64); 8] = [
    ("serve: /slow", 1894, 0x365b_84a1_2aa1_7cbb),
    ("serve: exact answers", 3494, 0xdadf_0ee0_6bb0_87d9),
    ("serve: analyzed plan, writes", 563, 0x86dc_0f6e_8cd9_3e92),
    ("serve: follower", 4071, 0x3395_418b_5042_4239),
    ("serve: /stats", 1792, 0x5d60_7445_8a30_4e2a),
    ("router: exact answers", 460, 0xe96a_f501_71ed_6911),
    ("router: /topology", 135, 0x1f25_3abf_1807_bed9),
    ("router: /stats", 5002, 0x5aaf_1d34_2b8d_2419),
];

fn assert_pinned(got: &[(&'static str, String)], pinned: &[(&str, usize, u64)]) {
    assert_eq!(got.len(), pinned.len());
    for ((name, doc), (want_name, want_len, want_digest)) in got.iter().zip(pinned) {
        assert_eq!(name, want_name);
        assert_eq!(
            fingerprint(doc),
            (*want_len, *want_digest),
            "{name}: the document changed; it is now\n{doc}"
        );
    }
}

#[test]
fn every_encoder_writes_the_pinned_bytes() {
    let got = plain_documents();
    assert_pinned(&got, &PLAIN);
    // What is frozen is JSON: the workspace's own reader takes every
    // line (the trace export, last, is pinned masked).
    for (name, doc) in &got[..got.len() - 1] {
        for line in doc.lines() {
            fdc::serve::json::parse(line).unwrap_or_else(|e| panic!("{name}: {e}\n{line}"));
        }
    }
}

#[test]
fn every_served_document_is_the_pinned_one() {
    assert_pinned(&served_documents(), &SERVED);
}

#[test]
#[ignore = "prints the values this build produces"]
fn print_current_values() {
    for (constant, docs) in [("PLAIN", plain_documents()), ("SERVED", served_documents())] {
        for (name, doc) in &docs {
            println!("--- {name}\n{doc}");
        }
        println!("{constant} = [");
        for (name, doc) in &docs {
            let (len, digest) = fingerprint(doc);
            println!("    ({name:?}, {len}, {digest:#018x}),");
        }
        println!("];");
    }
}
