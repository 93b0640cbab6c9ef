//! Graceful degradation: SIGKILL one shard's primary mid-deployment and
//! assert the contract of the degraded window —
//!
//! * reads for the dead shard's keys fail over to its replica
//!   (`router.replica.reads` counts them);
//! * reads for the surviving shard are untouched;
//! * writes touching the dead shard come back as the **typed**
//!   partial-failure error naming the failed shard, not a bare 502;
//! * `GET /healthz` drops to `503 degraded` once the prober notices;
//! * **zero acked-write loss**: every row the router answered `202` for
//!   is in some shard's write-ahead log after the kill.

mod common;

use common::*;
use fdc_datagen::tourism_proxy;
use fdc_f2db::{F2db, WalRecord};
use fdc_obs::httpcore::client::{Client, Outgoing};
use fdc_router::{placement, Router, RouterOptions, ShardSpec, Topology};
use fdc_serve::{open_engine, open_follower, ServeOptions, Server};
use fdc_wal::{Wal, WalOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const PURPOSES: [&str; 4] = ["holiday", "business", "visiting", "other"];

/// Not a test of its own: a WAL-backed shard primary, or (with
/// `ROLE_ENV=replica`) a follower of `PRIMARY_ENV` over the same
/// partition.
#[test]
fn failover_child() {
    let role = match std::env::var(ROLE_ENV) {
        Ok(r) => r,
        Err(_) => return,
    };
    let seed: u64 = std::env::var(SEED_ENV).unwrap().parse().unwrap();
    let catalog = PathBuf::from(std::env::var(CATALOG_ENV).unwrap());
    let ids = std::env::var(IDS_ENV).unwrap();
    let shard_id = std::env::var(SHARD_ENV).unwrap();
    let wal = PathBuf::from(std::env::var(WAL_ENV).unwrap());
    let db = F2db::open_catalog(tourism_proxy(seed), &catalog).expect("open shared catalog");
    let topo = Topology {
        version: 0,
        key_dims: 1,
        shards: ids
            .split(',')
            .map(|id| ShardSpec {
                id: id.to_string(),
                addr: "-".to_string(),
                replica: None,
            })
            .collect(),
    };
    let owned = topo.owned_bases(&db, &shard_id).expect("owned bases");
    let opts = ServeOptions {
        wal_dir: Some(wal),
        replica_of: std::env::var(PRIMARY_ENV).ok(),
        partition_bases: Some(owned.clone()),
        ..ServeOptions::default()
    };
    let server = if role == "replica" {
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
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Every value (as exact bit patterns) in the `InsertBatch` records of
/// a WAL directory.
fn replayed_values(wal_dir: &Path) -> Vec<u64> {
    let (_wal, rec) = Wal::open(
        wal_dir,
        WalOptions {
            fsync: false,
            ..WalOptions::default()
        },
    )
    .expect("replay surviving WAL");
    let mut values = Vec::new();
    for (_seq, payload) in &rec.records {
        let WalRecord::InsertBatch { rows, .. } =
            WalRecord::decode(payload).expect("decodable record");
        values.extend(rows.iter().map(|(_node, v)| v.to_bits()));
    }
    values
}

#[test]
fn killed_primary_degrades_gracefully_and_loses_nothing() {
    let seed = 1u64;
    let dir = tmp_dir("kill");
    let catalog = dir.join("catalog.f2c");
    let parent_db = own_model_db(seed);
    parent_db
        .save_catalog(&catalog)
        .expect("save shared catalog");
    let dims: Vec<Vec<String>> = {
        let ds = parent_db.dataset();
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
    };

    // A pair where both shards own purposes, so the kill leaves live
    // keys on both sides of the fence.
    let pair = [["s0", "s1"], ["s0", "s2"], ["s1", "s2"], ["sa", "sb"]]
        .into_iter()
        .find(|pair| {
            let owners: Vec<&str> = PURPOSES
                .iter()
                .map(|p| placement::place(p, pair.iter().copied()).unwrap())
                .collect();
            pair.iter().all(|id| owners.contains(id))
        })
        .expect("some candidate pair splits the purposes");
    let doomed = pair[0];
    let survivor = pair[1];
    let doomed_purpose = PURPOSES
        .iter()
        .find(|p| placement::place(p, pair.iter().copied()).unwrap() == doomed)
        .unwrap();
    let survivor_purpose = PURPOSES
        .iter()
        .find(|p| placement::place(p, pair.iter().copied()).unwrap() == survivor)
        .unwrap();

    let ids_csv = pair.join(",");
    let envs = |id: &str, wal: &str, primary: Option<&str>| {
        let mut e = vec![
            (
                ROLE_ENV,
                if primary.is_some() {
                    "replica"
                } else {
                    "shard"
                }
                .to_string(),
            ),
            (SEED_ENV, seed.to_string()),
            (CATALOG_ENV, catalog.display().to_string()),
            (IDS_ENV, ids_csv.clone()),
            (SHARD_ENV, id.to_string()),
            (WAL_ENV, dir.join(wal).display().to_string()),
        ];
        if let Some(p) = primary {
            e.push((PRIMARY_ENV, p.to_string()));
        }
        e
    };
    let (mut primary0, addr0) = spawn_child("failover_child", &envs(doomed, "wal_0", None));
    let (mut primary1, addr1) = spawn_child("failover_child", &envs(survivor, "wal_1", None));
    let (mut replica0, raddr0) = spawn_child(
        "failover_child",
        &envs(doomed, "wal_0_replica", Some(&addr0.to_string())),
    );

    let topology = Topology {
        version: 1,
        key_dims: 1,
        shards: vec![
            ShardSpec {
                id: doomed.to_string(),
                addr: addr0.to_string(),
                replica: Some(raddr0.to_string()),
            },
            ShardSpec {
                id: survivor.to_string(),
                addr: addr1.to_string(),
                replica: None,
            },
        ],
    };
    let router = Router::start(
        topology,
        0,
        RouterOptions {
            probe_interval: Duration::from_millis(100),
            ..RouterOptions::default()
        },
    )
    .expect("router");
    await_status(router.addr(), "/healthz", 200, 50);

    let probe = format!(
        "{{\"sql\":\"SELECT time, SUM(visitors) FROM facts WHERE purpose = '{doomed_purpose}' \
         GROUP BY time AS OF now() + '2 quarters'\"}}"
    );
    let survivor_probe = format!(
        "{{\"sql\":\"SELECT time, SUM(visitors) FROM facts WHERE purpose = '{survivor_purpose}' \
         GROUP BY time AS OF now() + '2 quarters'\"}}"
    );
    // A full round: row `i` carries `value_of(i)`.
    let round_body = |value_of: &dyn Fn(usize) -> f64| {
        let rows: Vec<String> = dims
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let quoted: Vec<String> = d.iter().map(|v| format!("\"{v}\"")).collect();
                format!(
                    "{{\"dims\":[{}],\"value\":{}}}",
                    quoted.join(","),
                    value_of(i)
                )
            })
            .collect();
        format!("{{\"rows\":[{}]}}", rows.join(","))
    };

    // Healthy phase: 4 clients, each on its own kept-alive connection,
    // send full rounds through the router between the two probe reads.
    // The router's 4 workers, the follower and the prober are more
    // peers than a shard has workers, so the shards give idle
    // connections up all along — the load under which an `/insert`
    // that crossed a give-up once came back a 503. Every row value is
    // unique: a value doubles as the identity of its write.
    let (raddr, cells) = (router.addr().to_string(), dims.len());
    let acked: Vec<u64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4u64)
            .map(|t| {
                let (raddr, round_body) = (&raddr, &round_body);
                let (probe, survivor_probe) = (&probe, &survivor_probe);
                scope.spawn(move || {
                    let client = Client::new(Duration::from_secs(30));
                    let mut acked = Vec::new();
                    for round in 0..200u64 {
                        let value = |i: usize| ((t * 1000 + round) * 1000 + i as u64) as f64 + 0.5;
                        let body = round_body(&value);
                        // Never replayed: an acknowledged round is counted once.
                        let insert = Outgoing {
                            replay: false,
                            ..Outgoing::new("POST", "/insert", body.as_bytes())
                        };
                        let r = client.send(raddr, &insert).expect("healthy insert");
                        assert_eq!(r.status, 202, "healthy insert failed: {}", r.text());
                        assert!(r.text().contains(&format!("\"accepted\":{cells}")));
                        acked.extend((0..cells).map(|i| value(i).to_bits()));
                        for sql in [probe, survivor_probe] {
                            let query = Outgoing::new("POST", "/query", sql.as_bytes());
                            let r = client.send(raddr, &query).expect("healthy query");
                            assert_eq!(r.status, 200, "healthy query failed: {}", r.text());
                        }
                    }
                    acked
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    let (status, _) = http(router.addr(), "POST", "/query", Some(&probe));
    assert_eq!(status, 200);
    let (_, shard_stats) = http(addr0, "GET", "/stats", None);
    assert!(
        !shard_stats.contains("\"backlog\":0,"),
        "the shard never gave an idle connection up — as many workers as peers?"
    );

    // The axe: SIGKILL the doomed primary, no drain, no flush.
    let replica_reads_before = fdc_obs::counter(fdc_obs::names::ROUTER_REPLICA_READS).get();
    primary0.kill().expect("kill primary");
    primary0.wait().ok();

    // Reads for the dead shard's keys fail over to the replica.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, _) = http(router.addr(), "POST", "/query", Some(&probe));
        if status == 200 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "replica failover never served the dead shard's keys"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        fdc_obs::counter(fdc_obs::names::ROUTER_REPLICA_READS).get() > replica_reads_before,
        "failover did not count a replica read"
    );

    // The surviving shard is untouched.
    let (status, text) = http(router.addr(), "POST", "/query", Some(&survivor_probe));
    assert_eq!(
        status, 200,
        "survivor read failed during degradation: {text}"
    );

    // Writes touching the dead shard are typed partial failures.
    let body = round_body(&|i| (900_000 + i) as f64);
    let (status, text) = http(router.addr(), "POST", "/insert", Some(&body));
    assert_ne!(status, 202, "a write to a dead shard was acknowledged");
    assert!(
        text.contains("partial write failure")
            && text.contains(&format!("\"failed_shard\":\"{doomed}\"")),
        "not the typed partial-failure error: {text}"
    );

    // The prober notices and /healthz reflects lost quorum (1 of 2).
    await_status(router.addr(), "/healthz", 503, 100);

    // Zero acked loss: every 202'd value is in a surviving log.
    let mut survived = replayed_values(&dir.join("wal_0"));
    survived.extend(replayed_values(&dir.join("wal_1")));
    let survived: std::collections::HashSet<u64> = survived.into_iter().collect();
    let lost: Vec<u64> = acked
        .iter()
        .filter(|v| !survived.contains(v))
        .copied()
        .collect();
    assert!(
        lost.is_empty(),
        "{} of {} acked rows lost after SIGKILL",
        lost.len(),
        acked.len()
    );

    router.shutdown();
    for child in [&mut primary1, &mut replica0] {
        child.kill().ok();
        child.wait().ok();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
