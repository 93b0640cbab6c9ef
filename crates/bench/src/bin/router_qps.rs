//! Closed-loop load generator for a partitioned `fdc-router` deployment
//! — two real shard processes, one follower replica, a mid-run SIGKILL.
//!
//! The parent advises the tourism-proxy cube **once**, saves the
//! catalog, and re-execs itself (`--shard <id>`) as two shard server
//! processes plus a follower replica of the first shard, all opening
//! that shared catalog (advisor nondeterminism must never give two
//! shards different model configurations). It then starts the
//! `fdc-router` scatter-gather tier in-process over the children and
//! hammers it with client threads, each on its own kept-alive
//! connection: single-shard reads (`WHERE
//! purpose = …`), fan-out reads (`GROUP BY time, purpose`), and
//! full-round `/insert` batches whose unique values double as write
//! identities.
//!
//! Mid-run the first shard's primary takes a SIGKILL — no drain, no
//! flush. The run then measures the degradation contract: reads fail
//! over to the replica (the degraded window is the time from the kill
//! to the first successful routed read of the dead shard's data),
//! writes touching the dead shard answer typed partial-failure errors,
//! and after the run the parent replays both shards' write-ahead logs
//! and proves **zero acknowledged rounds lost** — every value the
//! router answered `202` for is in a surviving log.
//!
//! Usage: `cargo run -p fdc-bench --release --bin router_qps --
//! [--threads n] [--healthy-secs s] [--degraded-secs s] [--strict]
//! [--json-out FILE]`. `--strict` exits non-zero on any lost
//! acknowledged round, a replica that never served the dead shard's
//! reads, or healthy-phase error responses — the CI `router-smoke`
//! contract. `--json-out` writes the `BENCH_router.json` artifact
//! (p50/p95/p99 per route, fleet throughput, degraded-window length).

use fdc_core::{Advisor, AdvisorOptions};
use fdc_datagen::tourism_proxy;
use fdc_f2db::{F2db, WalRecord};
use fdc_obs::httpcore::client::{Client, Outgoing};
use fdc_obs::AccuracyOptions;
use fdc_router::{Router, RouterOptions, ShardSpec, Topology};
use fdc_serve::{open_engine, open_follower, ServeOptions, Server};
use fdc_wal::{Wal, WalOptions};
use std::collections::HashSet;
use std::io::{BufRead, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const IDS_ENV: &str = "FDC_RQ_IDS";
const KEY_DIMS_ENV: &str = "FDC_RQ_KEY_DIMS";
const CATALOG_ENV: &str = "FDC_RQ_CATALOG";
const WAL_ENV: &str = "FDC_RQ_WAL";
const REPLICA_ENV: &str = "FDC_RQ_REPLICA_OF";
/// Bounds every client socket wait.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--shard") {
        let id = args.get(i + 1).expect("--shard needs an id").clone();
        run_shard(&id);
        return;
    }
    run_parent(&args);
}

// ---------------------------------------------------------------------------
// Child mode: one shard server process
// ---------------------------------------------------------------------------

/// A topology carrying only what placement needs (ids + key_dims) —
/// the child computes its owned base set before any address exists.
fn provisional_topology() -> Topology {
    let ids = std::env::var(IDS_ENV).expect("child needs FDC_RQ_IDS");
    let key_dims: usize = std::env::var(KEY_DIMS_ENV)
        .expect("child needs FDC_RQ_KEY_DIMS")
        .parse()
        .expect("integer key_dims");
    Topology {
        version: 0,
        key_dims,
        shards: ids
            .split(',')
            .map(|id| ShardSpec {
                id: id.to_string(),
                addr: "-".to_string(),
                replica: None,
            })
            .collect(),
    }
}

fn run_shard(id: &str) {
    let topo = provisional_topology();
    let catalog = PathBuf::from(std::env::var(CATALOG_ENV).expect("child needs FDC_RQ_CATALOG"));
    let wal = PathBuf::from(std::env::var(WAL_ENV).expect("child needs FDC_RQ_WAL"));
    let db = F2db::open_catalog(tourism_proxy(1), &catalog).expect("open shared catalog");
    let owned = topo.owned_bases(&db, id).expect("owned bases");
    let db = db.with_drift_monitoring(AccuracyOptions::default());
    let replica_of = std::env::var(REPLICA_ENV).ok();
    let opts = ServeOptions {
        wal_dir: Some(wal),
        replica_of: replica_of.clone(),
        partition_bases: Some(owned.clone()),
        ..ServeOptions::default()
    };
    let server = if replica_of.is_some() {
        // A follower of a partitioned primary runs the same partition;
        // `open_follower` takes the engine as-built, so apply it here.
        let db = db.with_base_partition(&owned).expect("partition follower");
        let (db, replica) = open_follower(db, &opts).expect("open follower");
        Server::start_with_replica(db, 0, opts, replica).expect("follower server")
    } else {
        let (db, _recovery) = open_engine(db, &opts).expect("open shard engine");
        Server::start(db, 0, opts).expect("shard server")
    };
    println!("READY {}", server.addr());
    std::io::stdout().flush().ok();
    // Serve until the parent kills us — SIGKILL is part of the bench.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

// ---------------------------------------------------------------------------
// Parent mode: the harness
// ---------------------------------------------------------------------------

fn spawn_shard(
    dir: &Path,
    id: &str,
    ids: &str,
    replica_of: Option<SocketAddr>,
) -> (Child, SocketAddr) {
    let exe = std::env::current_exe().unwrap();
    let mut cmd = Command::new(exe);
    cmd.args(["--shard", id])
        .env(IDS_ENV, ids)
        .env(KEY_DIMS_ENV, "1")
        .env(CATALOG_ENV, dir.join("catalog.f2db"))
        .env(
            WAL_ENV,
            dir.join(match replica_of {
                Some(_) => format!("wal_{id}_replica"),
                None => format!("wal_{id}"),
            }),
        )
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(primary) = replica_of {
        cmd.env(REPLICA_ENV, primary.to_string());
    }
    let mut child = cmd.spawn().expect("spawn shard child");
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some((_, rest)) = line.split_once("READY ") {
                    break rest.trim().parse::<SocketAddr>().expect("child addr");
                }
            }
            other => panic!("shard {id} exited before READY: {other:?}"),
        }
    };
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// One request against the router on `client`'s kept-alive connection;
/// returns `(status, body, latency_ns)`. An `/insert` is never replayed
/// on a dead connection: the run counts acknowledged rounds.
fn request(
    client: &Client,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String, u64)> {
    let start = Instant::now();
    let request = Outgoing {
        replay: path != "/insert",
        ..Outgoing::new(method, path, body.as_bytes())
    };
    let response = client.send(&addr.to_string(), &request)?;
    Ok((
        response.status,
        response.text(),
        start.elapsed().as_nanos() as u64,
    ))
}

/// Every base series' dimension values, in base-node order.
fn base_dims(db: &F2db) -> Vec<Vec<String>> {
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

fn full_round_body(dims: &[Vec<String>], value: f64) -> String {
    let rows: Vec<String> = dims
        .iter()
        .map(|d| {
            let quoted: Vec<String> = d.iter().map(|v| format!("\"{v}\"")).collect();
            format!("{{\"dims\":[{}],\"value\":{value}}}", quoted.join(","))
        })
        .collect();
    format!("{{\"rows\":[{}]}}", rows.join(","))
}

fn pctl(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// All row values in a shard's surviving write-ahead log, as bit
/// patterns (exact-equality identities for f64).
fn replay_values(wal_dir: &Path) -> HashSet<u64> {
    let mut values = HashSet::new();
    if !wal_dir.exists() {
        return values;
    }
    let (_wal, rec) = Wal::open(
        wal_dir,
        WalOptions {
            fsync: false,
            ..WalOptions::default()
        },
    )
    .expect("replay shard log");
    for (_seq, payload) in &rec.records {
        if let Ok(WalRecord::InsertBatch { rows, .. }) = WalRecord::decode(payload) {
            values.extend(rows.iter().map(|(_node, v)| v.to_bits()));
        }
    }
    values
}

struct RouteStats {
    samples: Vec<u64>,
    errors: u64,
}

fn route_json(name: &str, s: &RouteStats, secs: f64) -> String {
    let mut sorted = s.samples.clone();
    sorted.sort_unstable();
    format!(
        "\"{name}\":{{\"count\":{},\"errors\":{},\"rps\":{:.1},\"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3}}}",
        sorted.len(),
        s.errors,
        sorted.len() as f64 / secs.max(1e-9),
        pctl(&sorted, 0.50) as f64 / 1e6,
        pctl(&sorted, 0.95) as f64 / 1e6,
        pctl(&sorted, 0.99) as f64 / 1e6,
    )
}

fn run_parent(args: &[String]) {
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let threads: usize = value("--threads").and_then(|v| v.parse().ok()).unwrap_or(6);
    let healthy_secs: f64 = value("--healthy-secs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    let degraded_secs: f64 = value("--degraded-secs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3.0);
    let strict = flag("--strict");
    let json_out = value("--json-out");

    let dir = std::env::temp_dir().join(format!("fdc_router_qps_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // Advise once; the catalog file is the deployment's shared truth.
    eprintln!("advising tourism proxy (shared catalog)…");
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
    let seed_db = F2db::load(ds, &outcome.configuration).unwrap();
    seed_db.save_catalog(&dir.join("catalog.f2db")).unwrap();
    let dims = base_dims(&seed_db);

    // Pick two shard ids that both own at least one placement key —
    // rendezvous placement of 4 keys on 2 ids can in principle land
    // all on one side, which would be a degenerate deployment.
    let keys: Vec<String> = {
        let mut ks: Vec<String> = dims.iter().map(|d| d[0].clone()).collect();
        ks.sort();
        ks.dedup();
        ks
    };
    let ids: Vec<&str> = [["s0", "s1"], ["s0", "s2"], ["s1", "s2"], ["sa", "sb"]]
        .iter()
        .find(|pair| {
            pair.iter().all(|id| {
                keys.iter()
                    .any(|k| fdc_router::placement::place(k, pair.iter().copied()) == Some(id))
            })
        })
        .expect("some id pair splits the keys")
        .to_vec();
    let ids_csv = ids.join(",");
    eprintln!("shard ids {ids_csv} over placement keys {keys:?}");

    let (mut primary0, addr0) = spawn_shard(&dir, ids[0], &ids_csv, None);
    let (mut primary1, addr1) = spawn_shard(&dir, ids[1], &ids_csv, None);
    let (mut replica0, raddr0) = spawn_shard(&dir, ids[0], &ids_csv, Some(addr0));
    eprintln!(
        "shards up: {}={addr0} (replica {raddr0}), {}={addr1}",
        ids[0], ids[1]
    );

    let topology = Topology {
        version: 1,
        key_dims: 1,
        shards: vec![
            ShardSpec {
                id: ids[0].to_string(),
                addr: addr0.to_string(),
                replica: Some(raddr0.to_string()),
            },
            ShardSpec {
                id: ids[1].to_string(),
                addr: addr1.to_string(),
                replica: None,
            },
        ],
    };
    // The workload must be *servable*: the advisor is free to pick
    // derivation schemes that couple a node to base cells of several
    // placement keys, and a query resolving such a node is a typed
    // refusal in any partitioning — by design, not load. The parent
    // holds the same catalog as every shard, so it can classify each
    // candidate itself: the set of shards a query fans out to, or
    // `None` when some resolved node's derivation closure straddles
    // shards.
    let shards_of = |sql: &str| -> Option<HashSet<String>> {
        let sites = seed_db.query_derivation(sql).ok()?;
        let mut involved = HashSet::new();
        for site in &sites {
            let mut owner: Option<String> = None;
            for &b in &site.closure_base {
                let key = seed_db.partition_key(b, 1).ok()?;
                let id = topology.place(&key).id.clone();
                match &owner {
                    None => owner = Some(id),
                    Some(prev) if *prev == id => {}
                    Some(_) => return None,
                }
            }
            involved.insert(owner?);
        }
        Some(involved)
    };
    let mut candidates: Vec<String> = keys
        .iter()
        .map(|k| {
            format!(
                "SELECT time, SUM(visitors) FROM facts WHERE purpose = '{k}' GROUP BY time AS OF now() + '2 quarters'"
            )
        })
        .collect();
    for d in &dims {
        candidates.push(format!(
            "SELECT time, SUM(visitors) FROM facts WHERE purpose = '{}' AND state = '{}' GROUP BY time AS OF now() + '1 quarter'",
            d[0], d[1]
        ));
    }
    candidates.push(
        "SELECT time, SUM(visitors) FROM facts GROUP BY time, purpose AS OF now() + '1 quarter'"
            .to_string(),
    );
    let mut query_pool: Vec<String> = Vec::new();
    let mut probe_pool: Vec<String> = Vec::new();
    let mut fanout_pool: Vec<String> = Vec::new();
    for sql in &candidates {
        if let Some(owners) = shards_of(sql) {
            let body = format!("{{\"sql\":\"{sql}\"}}");
            if owners.len() == 1 && owners.contains(ids[0]) {
                probe_pool.push(body.clone());
            }
            if owners.len() > 1 {
                fanout_pool.push(body.clone());
            }
            query_pool.push(body);
        }
    }
    eprintln!(
        "workload: {} of {} candidate queries servable ({} single-shard on {}, {} fan-out)",
        query_pool.len(),
        candidates.len(),
        probe_pool.len(),
        ids[0],
        fanout_pool.len()
    );
    assert!(
        !query_pool.is_empty(),
        "no servable query under this catalog"
    );
    let probe_body = probe_pool
        .first()
        .expect("the doomed shard serves no query alone — replica failover unmeasurable")
        .clone();

    let router = Router::start(topology, 0, RouterOptions::default()).expect("start router");
    let raddr = router.addr();
    eprintln!("router on {raddr}");

    let stop = Arc::new(AtomicBool::new(false));
    let next_value = Arc::new(AtomicU64::new(1));
    let acked = Arc::new(Mutex::new(Vec::<u64>::new()));
    let queries = Arc::new(Mutex::new(RouteStats {
        samples: Vec::new(),
        errors: 0,
    }));
    let inserts = Arc::new(Mutex::new(RouteStats {
        samples: Vec::new(),
        errors: 0,
    }));
    let healthy_errors = Arc::new(AtomicU64::new(0));
    let degraded = Arc::new(AtomicBool::new(false));

    let mut handles = Vec::new();
    for t in 0..threads {
        let stop = Arc::clone(&stop);
        let query_pool = query_pool.clone();
        let queries = Arc::clone(&queries);
        let inserts = Arc::clone(&inserts);
        let acked = Arc::clone(&acked);
        let next_value = Arc::clone(&next_value);
        let healthy_errors = Arc::clone(&healthy_errors);
        let degraded = Arc::clone(&degraded);
        let dims = dims.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = fdc_rng::Rng::seed_from_u64(0xbadc0de + t as u64);
            let client = Client::new(IO_TIMEOUT);
            while !stop.load(Ordering::SeqCst) {
                let is_insert = rng.f64() < 0.2;
                if is_insert {
                    // A full round: one unique value for every base
                    // cell — `202` means every owning shard committed.
                    let v = 1_000_000.0 + next_value.fetch_add(1, Ordering::SeqCst) as f64;
                    let body = full_round_body(&dims, v);
                    match request(&client, raddr, "POST", "/insert", &body) {
                        Ok((202, _, ns)) => {
                            acked.lock().unwrap().push(v.to_bits());
                            inserts.lock().unwrap().samples.push(ns);
                        }
                        Ok((status, body, _)) => {
                            inserts.lock().unwrap().errors += 1;
                            if !degraded.load(Ordering::SeqCst)
                                && healthy_errors.fetch_add(1, Ordering::SeqCst) < 3
                            {
                                eprintln!(
                                    "healthy insert error {status}: {}",
                                    &body[..body.len().min(300)]
                                );
                            }
                        }
                        Err(_) => {
                            inserts.lock().unwrap().errors += 1;
                        }
                    }
                } else {
                    let body = &query_pool[(rng.next_u64() as usize) % query_pool.len()];
                    match request(&client, raddr, "POST", "/query", body) {
                        Ok((200, _, ns)) => queries.lock().unwrap().samples.push(ns),
                        Ok((status, body, _)) => {
                            queries.lock().unwrap().errors += 1;
                            if !degraded.load(Ordering::SeqCst)
                                && healthy_errors.fetch_add(1, Ordering::SeqCst) < 3
                            {
                                eprintln!(
                                    "healthy query error {status}: {}",
                                    &body[..body.len().min(300)]
                                );
                            }
                        }
                        Err(_) => queries.lock().unwrap().errors += 1,
                    }
                }
            }
        }));
    }

    // Healthy phase.
    let run_start = Instant::now();
    std::thread::sleep(Duration::from_secs_f64(healthy_secs));

    // The axe: SIGKILL the first shard's primary mid-load.
    degraded.store(true, Ordering::SeqCst);
    primary0.kill().expect("sigkill shard primary");
    primary0.wait().expect("reap shard primary");
    let kill_at = Instant::now();
    eprintln!("killed {} primary; probing replica failover…", ids[0]);

    // Degraded window: kill → first successful routed read of the dead
    // shard's data (served by the replica).
    let probe = probe_body;
    let client = Client::new(IO_TIMEOUT);
    let mut degraded_window_ms = -1.0f64;
    while kill_at.elapsed() < Duration::from_secs(10) {
        if let Ok((200, _, _)) = request(&client, raddr, "POST", "/query", &probe) {
            degraded_window_ms = kill_at.elapsed().as_secs_f64() * 1e3;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    eprintln!("degraded window: {degraded_window_ms:.1} ms");

    std::thread::sleep(Duration::from_secs_f64(degraded_secs));
    stop.store(true, Ordering::SeqCst);
    for h in handles {
        h.join().unwrap();
    }
    let total_secs = run_start.elapsed().as_secs_f64();

    // Health must reflect the dead shard (1 of 2 up is below quorum).
    let healthz = request(&client, raddr, "GET", "/healthz", "")
        .map(|(s, _, _)| s)
        .unwrap_or(0);
    let stats = request(&client, raddr, "GET", "/stats", "")
        .map(|(_, b, _)| b)
        .unwrap_or_default();
    let fleet_folds = stats.contains("\"fleet\"");
    let replica_reads = fdc_obs::counter(fdc_obs::names::ROUTER_REPLICA_READS).get();

    router.shutdown();
    primary1.kill().ok();
    primary1.wait().ok();
    replica0.kill().ok();
    replica0.wait().ok();

    // Zero acked-write loss: every `202` round's value must be in a
    // surviving log. The dead primary's log survives the SIGKILL (the
    // fsync preceded the ack); the live shard's log survives trivially.
    let mut survived = replay_values(&dir.join(format!("wal_{}", ids[0])));
    survived.extend(replay_values(&dir.join(format!("wal_{}", ids[1]))));
    let acked = acked.lock().unwrap();
    let lost: Vec<u64> = acked
        .iter()
        .copied()
        .filter(|v| !survived.contains(v))
        .collect();

    let q = queries.lock().unwrap();
    let i = inserts.lock().unwrap();
    let total_requests = q.samples.len() + i.samples.len();
    let json = format!(
        "{{\"threads\":{threads},\"healthy_secs\":{healthy_secs},\"degraded_secs\":{degraded_secs},\
         {},{},\
         \"throughput_rps\":{:.1},\"degraded_window_ms\":{degraded_window_ms:.1},\
         \"acked_rounds\":{},\"lost_rounds\":{},\"replica_reads\":{replica_reads},\
         \"healthz_after_kill\":{healthz},\"healthy_phase_errors\":{}}}",
        route_json("query", &q, total_secs),
        route_json("insert", &i, total_secs),
        total_requests as f64 / total_secs.max(1e-9),
        acked.len(),
        lost.len(),
        healthy_errors.load(Ordering::SeqCst),
    );
    println!("{json}");
    if let Some(path) = json_out {
        std::fs::write(&path, &json).expect("write json artifact");
        eprintln!("wrote {path}");
    }
    let _ = std::fs::remove_dir_all(&dir);

    if strict {
        let mut failures = Vec::new();
        if !lost.is_empty() {
            failures.push(format!("{} acknowledged round(s) lost", lost.len()));
        }
        if degraded_window_ms < 0.0 {
            failures.push("replica never served the dead shard's reads".into());
        }
        if replica_reads == 0 {
            failures.push("no read was counted against the replica".into());
        }
        if healthy_errors.load(Ordering::SeqCst) > 0 {
            failures.push(format!(
                "{} error response(s) during the healthy phase",
                healthy_errors.load(Ordering::SeqCst)
            ));
        }
        if acked.is_empty() {
            failures.push("no round was acknowledged — harness too weak".into());
        }
        if healthz != 503 {
            failures.push(format!("healthz after kill was {healthz}, want 503"));
        }
        if !fleet_folds {
            failures.push("router /stats has no folded fleet section".into());
        }
        if !failures.is_empty() {
            eprintln!("STRICT FAILURES:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        eprintln!("strict gate passed");
    }
}
