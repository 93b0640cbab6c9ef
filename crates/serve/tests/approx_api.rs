//! `/query` and `/explain` over a real socket with per-request
//! approximation controls: opted-in rows carry `"approx"` metadata,
//! plain requests stay byte-for-byte free of it, and malformed
//! controls are rejected before touching the engine.

mod common;

use common::http;
use fdc_cube::Configuration;
use fdc_datagen::{generate_highcard, HighCardSpec};
use fdc_f2db::{ApproxOptions, F2db};
use fdc_forecast::ModelSpec;
use fdc_serve::{ServeOptions, Server};
use std::sync::Arc;

const SQL: &str = "SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '3 steps'";

fn approx_db() -> Arc<F2db> {
    let ds = generate_highcard(&HighCardSpec {
        base_cells: 400,
        groups: 20,
        length: 16,
        ..HighCardSpec::new(400, 0x5EE)
    })
    .dataset;
    let empty = Configuration::new(ds.node_count());
    Arc::new(
        F2db::load(ds, &empty)
            .unwrap()
            .with_approx(ApproxOptions {
                strata: 6,
                samples_per_stratum: 16,
                min_population: 100,
                spec: Some(ModelSpec::Ses),
                ..ApproxOptions::default()
            })
            .unwrap(),
    )
}

#[test]
fn approx_controls_round_trip_over_http() {
    let db = approx_db();
    let server = Server::start(Arc::clone(&db), 0, ServeOptions::default()).unwrap();
    let addr = server.addr();

    // Opted-in query: rows carry sampling metadata.
    let body = format!("{{\"sql\": \"{SQL}\", \"approx\": {{}}}}");
    let r = http(addr, "POST", "/query", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(
        r.text().contains("\"approx\":{\"sampled\":"),
        "{}",
        r.text()
    );
    assert!(r.text().contains("\"population\":400"), "{}", r.text());
    assert!(r.text().contains("\"ci_half\":["), "{}", r.text());

    // A budget caps the evaluated cells (proportional allocation keeps
    // at least two cells per stratum, so compare against the full run).
    let sampled_of = |body: &str| -> u64 {
        let tail = &body[body.find("\"sampled\":").unwrap() + 10..];
        tail[..tail.find(',').unwrap()].parse().unwrap()
    };
    let full_sampled = sampled_of(&r.text());
    let body = format!("{{\"sql\": \"{SQL}\", \"approx\": {{\"budget\": 12}}}}");
    let r = http(addr, "POST", "/query", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(
        sampled_of(&r.text()) < full_sampled,
        "budget did not bind: {}",
        r.text()
    );

    // EXPLAIN with controls: the plan row is a sampled one.
    let body =
        format!("{{\"sql\": \"{SQL}\", \"approx\": {{\"budget\": 24, \"target_ci\": 0.05}}}}");
    let r = http(addr, "POST", "/explain", &body).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    assert!(r.text().contains("\"scheme\":\"sampled\""), "{}", r.text());
    assert!(r.text().contains("\"budget\":24"), "{}", r.text());
    assert!(r.text().contains("\"target_ci\":0.05"), "{}", r.text());

    // Malformed controls are a 400, not an engine error.
    for bad in [
        format!("{{\"sql\": \"{SQL}\", \"approx\": 3}}"),
        format!("{{\"sql\": \"{SQL}\", \"approx\": {{\"budget\": 0}}}}"),
        format!("{{\"sql\": \"{SQL}\", \"approx\": {{\"confidence\": 1.5}}}}"),
    ] {
        let r = http(addr, "POST", "/query", &bad).unwrap();
        assert_eq!(r.status, 400, "{}", r.text());
    }

    // `analyze` and `approx` cannot be combined.
    let body = format!("{{\"sql\": \"{SQL}\", \"analyze\": true, \"approx\": {{}}}}");
    let r = http(addr, "POST", "/explain", &body).unwrap();
    assert_eq!(r.status, 400, "{}", r.text());

    server.shutdown().unwrap();
}

#[test]
fn plain_requests_carry_no_approx_bytes() {
    let db = approx_db();
    let server = Server::start(Arc::clone(&db), 0, ServeOptions::default()).unwrap();
    let addr = server.addr();
    // The engine has a plane attached, but a request that does not opt
    // in must not even mention approximation in its answer.
    let body = format!("{{\"sql\": \"{SQL}\"}}");
    let r = http(addr, "POST", "/query", &body).unwrap();
    // The empty configuration has no exact scheme for the top node, so
    // the exact path errors — proving the plane was not consulted.
    assert_ne!(r.status, 200);
    assert!(!r.text().contains("approx"), "{}", r.text());
    server.shutdown().unwrap();
}
