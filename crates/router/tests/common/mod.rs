//! Shared helpers for the router integration suites: an all-own-models
//! catalog (every node carries its own model, so every node's
//! derivation closure is exactly its own base descendants — the
//! fully-partitionable configuration), child-process plumbing and a
//! tiny HTTP client.
#![allow(dead_code)]

use fdc_cube::{Configuration, ConfiguredModel, CubeSplit, NodeEstimate, Scheme};
use fdc_datagen::tourism_proxy;
use fdc_f2db::F2db;
use fdc_forecast::{FitOptions, ModelSpec};
use fdc_obs::httpcore::client::{send_once, Outgoing, Response};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

pub const ROLE_ENV: &str = "FDC_ROUTER_TEST_ROLE";
pub const SEED_ENV: &str = "FDC_ROUTER_TEST_SEED";
pub const CATALOG_ENV: &str = "FDC_ROUTER_TEST_CATALOG";
pub const IDS_ENV: &str = "FDC_ROUTER_TEST_IDS";
pub const SHARD_ENV: &str = "FDC_ROUTER_TEST_SHARD";
pub const WAL_ENV: &str = "FDC_ROUTER_TEST_WAL";
pub const PRIMARY_ENV: &str = "FDC_ROUTER_TEST_PRIMARY";

pub fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fdc_router_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An engine over `tourism_proxy(seed)` where *every* node carries its
/// own SES model and a self-scheme. Unlike an advisor configuration —
/// whose derivation schemes couple nodes to correlated series anywhere
/// in the cube — this one keeps every closure inside the node's own
/// subtree, so any query whose nodes' base cells share a placement key
/// is servable by a partitioned deployment, and multi-node queries
/// genuinely fan out.
pub fn own_model_db(seed: u64) -> F2db {
    let ds = tourism_proxy(seed);
    let split = CubeSplit::new(&ds, 0.8);
    let mut config = Configuration::new(ds.node_count());
    for v in 0..ds.node_count() {
        let model = ConfiguredModel::fit(&split, v, &ModelSpec::Ses, &FitOptions::default())
            .expect("SES fits any tourism series");
        config.insert_model(v, model);
        config.set_estimate(
            v,
            NodeEstimate {
                error: 0.5,
                scheme: Some(Scheme {
                    sources: vec![v],
                    weight: 1.0,
                }),
            },
        );
    }
    F2db::load(ds, &config).expect("load own-model configuration")
}

/// Spawns this test binary re-targeted at `child_test` (the usual
/// env-armed libtest re-exec) and waits for its `READY <addr>` line.
pub fn spawn_child(child_test: &str, envs: &[(&str, String)]) -> (Child, SocketAddr) {
    let exe = std::env::current_exe().unwrap();
    let mut cmd = Command::new(exe);
    cmd.args([child_test, "--exact", "--nocapture"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    for (name, value) in envs {
        cmd.env(name, value);
    }
    let mut child = cmd.spawn().expect("spawn child process");
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            // libtest prints `test <name> ... ` without a newline first,
            // so READY can land mid-line.
            Some(Ok(line)) => {
                if let Some((_, rest)) = line.split_once("READY ") {
                    break rest.trim().parse::<SocketAddr>().expect("child addr");
                }
            }
            other => panic!("child exited before READY: {other:?}"),
        }
    };
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// One request over a fresh connection that asks for `Connection:
/// close`.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
    let request = Outgoing::new(method, path, body.unwrap_or("").as_bytes());
    send_once(&addr.to_string(), &request, Duration::from_secs(30))
        .expect("request against a live server")
}

/// [`request`], as `(status, body)`.
pub fn http(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let resp = request(addr, method, path, body);
    (resp.status, resp.text())
}

/// Retries `GET path` until `status` (or panics after `tries`).
pub fn await_status(addr: SocketAddr, path: &str, status: u16, tries: usize) {
    for _ in 0..tries {
        let probe = Outgoing::new("GET", path, b"");
        if send_once(&addr.to_string(), &probe, Duration::from_secs(2))
            .is_ok_and(|resp| resp.status == status)
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    panic!("{path} never answered {status}");
}
