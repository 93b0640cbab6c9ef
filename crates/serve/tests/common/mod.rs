//! Shared fixture for the server integration tests, and the one-shot
//! form of the workspace's HTTP client.

#![allow(dead_code)]

use fdc_core::{Advisor, AdvisorOptions};
use fdc_datagen::tourism_proxy;
use fdc_f2db::F2db;
use fdc_obs::httpcore::client::{send_once, Outgoing, Response};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// The tourism-proxy engine every test serves (unwrapped, so callers
/// can still apply builder options).
pub fn small_db_raw() -> F2db {
    let ds = tourism_proxy(1);
    let outcome = Advisor::new(
        &ds,
        AdvisorOptions {
            parallelism: Some(2),
            ..AdvisorOptions::default()
        },
    )
    .unwrap()
    .run();
    F2db::load(ds, &outcome.configuration).unwrap()
}

/// [`small_db_raw`] wrapped for sharing with a server.
pub fn small_db() -> Arc<F2db> {
    Arc::new(small_db_raw())
}

/// The dimension-value strings of every base series, in base-node order —
/// what an `/insert` body's `dims` arrays must carry.
pub fn base_dims(db: &F2db) -> Vec<Vec<String>> {
    let ds = db.dataset();
    let g = ds.graph();
    let schema = g.schema();
    g.base_nodes()
        .iter()
        .map(|&n| {
            g.coord(n)
                .values()
                .iter()
                .enumerate()
                .map(|(d, &idx)| schema.dimensions()[d].values()[idx as usize].clone())
                .collect()
        })
        .collect()
}

/// An `/insert` body carrying one value for every base series — a "full
/// round" that completes exactly one time stamp when committed.
pub fn full_round_body(dims: &[Vec<String>], value: f64) -> String {
    let rows: Vec<String> = dims.iter().map(|d| row_json(d, value)).collect();
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

/// A single `{"dims": [...], "value": v}` row object.
pub fn row_json(dims: &[String], value: f64) -> String {
    let quoted: Vec<String> = dims.iter().map(|d| format!("\"{d}\"")).collect();
    format!("{{\"dims\":[{}],\"value\":{value}}}", quoted.join(","))
}

/// Performs one request over a fresh connection that asks for
/// `Connection: close` — each call also proves the accept path. Tests of
/// connection reuse hold a [`fdc_obs::httpcore::client::Client`].
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
    http_with_headers(addr, method, path, body, &[])
}

/// [`http`] with caller-supplied extra request headers (e.g. a crafted
/// `traceparent` for propagation tests).
pub fn http_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    extra: &[(&str, &str)],
) -> std::io::Result<Response> {
    let request = Outgoing {
        headers: extra,
        ..Outgoing::new(method, path, body.as_bytes())
    };
    send_once(&addr.to_string(), &request, Duration::from_secs(30))
}
