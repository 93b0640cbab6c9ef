//! Scatter-gather correctness: routed answers must be **byte-identical**
//! to a single unpartitioned process over the same catalog.
//!
//! Each seed builds an all-own-models catalog (every node carries its
//! own model — see `common::own_model_db` — so multi-node queries
//! genuinely fan out instead of tripping over advisor-coupled
//! derivations), shares it on disk with two shard child processes, and
//! compares the router's `/query` and `/explain` answers byte-for-byte
//! against an in-process oracle server running the whole cube.
//!
//! Queries this partitioning *cannot* serve — nodes whose derivation
//! closure spans both shards — must come back as the typed `400`
//! split-node refusal, not a garbled partial answer.

mod common;

use common::*;
use fdc_datagen::tourism_proxy;
use fdc_f2db::F2db;
use fdc_router::{placement, Router, RouterOptions, ShardSpec, Topology};
use fdc_serve::{open_engine, ServeOptions, Server};
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Duration;

const PURPOSES: [&str; 4] = ["holiday", "business", "visiting", "other"];

/// Not a test of its own: one shard server process, re-executed by the
/// parent with the env below set. Opens the shared catalog, computes
/// its owned bases from ids + key_dims alone (no addresses exist yet)
/// and serves its partition.
#[test]
fn shard_child() {
    if std::env::var(ROLE_ENV).ok().as_deref() != Some("shard") {
        return;
    }
    let seed: u64 = std::env::var(SEED_ENV).unwrap().parse().unwrap();
    let catalog = PathBuf::from(std::env::var(CATALOG_ENV).unwrap());
    let ids = std::env::var(IDS_ENV).unwrap();
    let shard_id = std::env::var(SHARD_ENV).unwrap();
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
        partition_bases: Some(owned),
        ..ServeOptions::default()
    };
    let (db, _recovery) = open_engine(db, &opts).expect("open shard engine");
    let server = Server::start(db, 0, opts).expect("shard server");
    println!("READY {}", server.addr());
    std::io::stdout().flush().ok();
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// A shard-id pair under which the four purpose keys land on both
/// shards — so per-purpose queries actually fan out.
fn fanout_pair() -> [&'static str; 2] {
    for pair in [["s0", "s1"], ["s0", "s2"], ["s1", "s2"], ["sa", "sb"]] {
        let owners: Vec<&str> = PURPOSES
            .iter()
            .map(|p| placement::place(p, pair.iter().copied()).unwrap())
            .collect();
        if pair.iter().all(|id| owners.contains(id)) {
            return pair;
        }
    }
    unreachable!("some candidate pair splits four keys");
}

fn run_seed(seed: u64) {
    let dir = tmp_dir(&format!("sg_{seed}"));
    let catalog = dir.join("catalog.f2c");
    own_model_db(seed)
        .save_catalog(&catalog)
        .expect("save shared catalog");

    let pair = fanout_pair();
    let ids_csv = pair.join(",");
    let envs = |id: &str| {
        vec![
            (ROLE_ENV, "shard".to_string()),
            (SEED_ENV, seed.to_string()),
            (CATALOG_ENV, catalog.display().to_string()),
            (IDS_ENV, ids_csv.clone()),
            (SHARD_ENV, id.to_string()),
        ]
    };
    let (mut child0, addr0) = spawn_child("shard_child", &envs(pair[0]));
    let (mut child1, addr1) = spawn_child("shard_child", &envs(pair[1]));
    let topology = Topology {
        version: 1,
        key_dims: 1,
        shards: vec![
            ShardSpec {
                id: pair[0].to_string(),
                addr: addr0.to_string(),
                replica: None,
            },
            ShardSpec {
                id: pair[1].to_string(),
                addr: addr1.to_string(),
                replica: None,
            },
        ],
    };
    let router = Router::start(topology, 0, RouterOptions::default()).expect("router");

    // The oracle: one unpartitioned server over the very same catalog.
    let oracle_opts = ServeOptions::default();
    let (oracle_db, _recovery) = open_engine(
        F2db::open_catalog(tourism_proxy(seed), &catalog).expect("open oracle catalog"),
        &oracle_opts,
    )
    .expect("open oracle engine");
    let oracle = Server::start(oracle_db, 0, oracle_opts).expect("oracle server");

    // Every servable shape: a single base cell, a single-shard
    // aggregate, the per-purpose fan-out (nodes on both shards) and the
    // full base-level fan-out.
    let servable = [
        "SELECT time, visitors FROM facts WHERE purpose = 'holiday' AND state = 'NSW' AS OF now() + '4 quarters'",
        "SELECT time, SUM(visitors) FROM facts WHERE purpose = 'business' GROUP BY time AS OF now() + '2 quarters'",
        "SELECT time, SUM(visitors) FROM facts GROUP BY time, purpose AS OF now() + '2 quarters'",
        "SELECT time, SUM(visitors) FROM facts GROUP BY time, purpose, state AS OF now() + '1 quarter'",
    ];
    for sql in servable {
        let body = format!("{{\"sql\":\"{sql}\"}}");
        let (oracle_status, oracle_body) = http(oracle.addr(), "POST", "/query", Some(&body));
        assert_eq!(oracle_status, 200, "oracle rejected {sql}: {oracle_body}");
        let (routed_status, routed_body) = http(router.addr(), "POST", "/query", Some(&body));
        assert_eq!(routed_status, 200, "router rejected {sql}: {routed_body}");
        assert_eq!(
            routed_body, oracle_body,
            "seed {seed}: routed /query differs from the oracle for {sql}"
        );

        let (oracle_status, oracle_plan) = http(oracle.addr(), "POST", "/explain", Some(&body));
        assert_eq!(oracle_status, 200);
        let (routed_status, routed_plan) = http(router.addr(), "POST", "/explain", Some(&body));
        assert_eq!(routed_status, 200, "router /explain failed: {routed_plan}");
        assert_eq!(
            routed_plan, oracle_plan,
            "seed {seed}: routed /explain differs from the oracle for {sql}"
        );
    }

    // A statement the engine refuses is refused by the router in the
    // engine's own words and status.
    let by_purpose =
        "SELECT time, SUM(visitors) FROM facts GROUP BY time, purpose AS OF now() + '2 quarters'";
    for (path, sql) in [
        ("/query", "SELECT time # visitors FROM facts AS OF now() + '1 quarter'".to_string()),
        ("/query", "SELECT time, SUM(visitors) FROM facts GROUP time AS OF now() + '1 quarter'".to_string()),
        ("/query", "SELECT time, SUM(visitors) FROM facts WHERE planet = 'mars' GROUP BY time AS OF now() + '1 quarter'".to_string()),
        ("/query", "SELECT time, SUM(visitors) FROM facts WHERE purpose = 'sightseeing' GROUP BY time AS OF now() + '1 quarter'".to_string()),
        ("/query", "INSERT INTO facts VALUES ('holiday', 'NSW', 1.0)".to_string()),
        ("/query", format!("EXPLAIN {by_purpose}")),
        ("/explain", format!("EXPLAIN ANALYZE {by_purpose}")),
    ] {
        let body = format!("{{\"sql\":\"{sql}\"}}");
        let want = http(oracle.addr(), "POST", path, Some(&body));
        assert_eq!(want.0, 400, "oracle accepted {path} {sql}: {}", want.1);
        let got = http(router.addr(), "POST", path, Some(&body));
        assert_eq!(got, want, "seed {seed}: routed refusal differs for {path} {sql}");
    }

    // The client's node filter survives the hop: a kept node is the one
    // row, and a filter that keeps nothing is the engine's refusal.
    for (nodes, status, rows) in [("[2]", 200, 1), ("[999999]", 400, 0)] {
        let body = format!("{{\"sql\":\"{by_purpose}\",\"nodes\":{nodes}}}");
        let want = http(oracle.addr(), "POST", "/query", Some(&body));
        assert_eq!(want.0, status, "oracle on nodes {nodes}: {}", want.1);
        assert_eq!(want.1.matches("\"node\":").count(), rows, "{}", want.1);
        let got = http(router.addr(), "POST", "/query", Some(&body));
        assert_eq!(got, want, "seed {seed}: routed nodes {nodes} differ");
    }

    // Queries whose nodes need base cells from both shards are typed
    // refusals: the cube's top node, and a state-slice crossing every
    // purpose.
    for split in [
        "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '2 quarters'",
        "SELECT time, SUM(visitors) FROM facts WHERE state = 'QLD' GROUP BY time AS OF now() + '1 quarter'",
    ] {
        let body = format!("{{\"sql\":\"{split}\"}}");
        let (status, text) = http(router.addr(), "POST", "/query", Some(&body));
        assert_eq!(status, 400, "expected a split-node refusal for {split}, got {text}");
        assert!(
            text.contains("split across shards"),
            "refusal is not the typed split-node error: {text}"
        );
    }

    // The fleet view folds both shards' sketches.
    let (status, stats) = http(router.addr(), "GET", "/stats", None);
    assert_eq!(status, 200);
    assert!(
        stats.contains("\"fleet\""),
        "stats without fleet fold: {stats}"
    );
    for id in pair {
        assert!(
            stats.contains(&format!("\"{id}\"")),
            "stats misses shard {id}"
        );
    }

    router.shutdown();
    child0.kill().ok();
    child1.kill().ok();
    child0.wait().ok();
    child1.wait().ok();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn routed_answers_match_the_oracle_seed_1() {
    run_seed(1);
}

#[test]
fn routed_answers_match_the_oracle_seed_2() {
    run_seed(2);
}

#[test]
fn routed_answers_match_the_oracle_seed_3() {
    run_seed(3);
}
