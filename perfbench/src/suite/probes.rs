//! The traced pass: five stages, one per workload, each replaying a
//! fixed seeded sample of the workload single-threaded with spans
//! around every call into a layer's public surface, plus the isolated
//! probes that belong to the same layers. Layers are timed from
//! outside — HTTP for `fdc-serve` and `fdc-router`, direct calls for
//! `fdc-f2db`, `fdc-cube`, `fdc-forecast`, `fdc-wal`, `fdc-core` and
//! `fdc_obs::httpcore` — and the per-layer metrics are folded from the
//! span buffers, which are written to `<target>/benchmark/trace-*.json`.
//!
//! A layer's cost does not depend on which workload asked for the
//! trace, so every traced run walks all five stages and reports every
//! per-layer metric.

use crate::suite::advise;
use crate::suite::client::{Client, Response};
use crate::suite::embed;
use crate::suite::fixture::{
    base_bits, bench_config, default_spec, mix_seed, output_dir, scratch_dir, Cube, HISTORY,
    MAX_HORIZON,
};
use crate::suite::ops::{Op, Query};
use crate::suite::recover::TAIL_ROUNDS as RECOVERY_TAIL;
use crate::suite::report::{Metric, PER_LAYER};
use crate::suite::serve::{parse_rows, pool, serve_options, Deployment, Kind, BASES};
use crate::suite::stats::{median, percentile};
use crate::suite::trace::{Span, Tracer};
use fdc_core::{Advisor, AdvisorOptions, IterationStats};
use fdc_cube::derive::classify_scheme;
use fdc_cube::{
    derive_forecast, Configuration, ConfiguredModel, CubeSplit, Dataset, DimSelector, NodeEstimate,
    NodeId, NodeQuery, Scheme, SchemeKind,
};
use fdc_datagen::{generate_cube, GenSpec};
use fdc_f2db::{parse_query, Catalog, F2db, Statement, WalRecord};
use fdc_forecast::FitOptions;
use fdc_obs::httpcore;
use fdc_rng::Rng;
use fdc_serve::{json, open_engine, ServeOptions};
use fdc_wal::{Wal, WalOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Query ops replayed per stage.
const SAMPLE_QUERIES: usize = 2000;
/// Insert rounds of the engine stage, spread evenly through its queries.
const ENGINE_ROUNDS: usize = 20;
/// The benchmark checkpoints the traced mixed server this often.
const CHECKPOINT_EVERY: usize = 50;
/// Repetitions of the cheap isolated probes.
const REPEATS: usize = 200;

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// Where the stages put their numbers.
#[derive(Default)]
struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Adds one sample of `name`; the metric is the median of them.
    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Sets a metric that is a count or a ratio, not a median.
    fn set(&mut self, name: &'static str, value: f64) {
        self.samples.insert(name, vec![value]);
    }

    /// Adds the duration of every span as a sample of `name`, in units
    /// of `per` nanoseconds.
    fn fold<'a>(&mut self, name: &'static str, spans: impl Iterator<Item = &'a Span>, per: f64) {
        for s in spans {
            self.sample(name, s.ns() as f64 / per);
        }
    }

    /// Counts one op, failed unless `ok`.
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += !ok as u64;
    }

    fn get(&self, name: &str) -> Result<f64, String> {
        self.samples
            .get(name)
            .and_then(|v| median(v))
            .ok_or_else(|| format!("per-layer metric {name} has no sample"))
    }

    /// Checks the stage's nesting and writes its trace.
    fn finish(&mut self, t: &Tracer, workload: &str) -> Result<(), String> {
        t.verify_nesting()?;
        t.write_chrome(&output_dir().join(format!("trace-{workload}.json")))
            .map_err(|e| format!("writing the {workload} trace: {e}"))
    }
}

fn named<'a>(t: &'a Tracer, name: &'static str) -> impl Iterator<Item = &'a Span> {
    t.spans().iter().filter(move |s| s.name == name)
}

fn us_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / US
}

/// Runs the whole traced pass and returns every per-layer metric, the
/// median traced `serve-read` round trip (one client, for the
/// `trace_overhead` line of `--repeat`), the ops attempted and the ops
/// failed.
pub fn run(seed: u64) -> Result<(Vec<Metric>, Metric, u64, u64), String> {
    let mut ledger = Ledger::default();
    engine_stage(seed, &mut ledger)?;
    read_stage(seed, &mut ledger)?;
    mixed_stage(seed, &mut ledger)?;
    routed_stage(seed, &mut ledger)?;
    advisor_stage(seed, &mut ledger)?;

    // What an insert's round trip spends beyond the work it has to do:
    // the batcher's linger, and queueing.
    let work = ledger.get("serve.json_parse_insert_us")?
        + ledger.get("f2db.base_resolve_us")? * BASES as f64
        + ledger.get("f2db.insert_round_us")?
        + ledger.get("wal.append_fsync_us")?;
    let wait = ledger.get("client.insert_p50_us")? - work;
    ledger.set("serve.insert_wait_us", wait);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = ledger.get(name)?;
            Ok(Metric { name, value, unit })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let traced = Metric {
        name: "traced_query_p50_us",
        value: ledger.get("traced_query_p50_us")?,
        unit: "us",
    };
    Ok((metrics, traced, ledger.attempted, ledger.failed))
}

// ---------------------------------------------------------------------------
// embed-fig9b: the engine, the cube, the models and the log, in process
// ---------------------------------------------------------------------------

/// What the engine stage did at one op id.
#[derive(Clone, Copy, PartialEq)]
enum EngineOp {
    Insert,
    Point,
    GroupBy,
}

/// The dimension selectors `NodeQuery` takes, rebuilt from a parsed
/// statement the way the engine does it.
fn selectors(stmt: &Statement) -> Vec<(String, DimSelector)> {
    let Statement::Forecast(q) = stmt else {
        return Vec::new();
    };
    let values = q
        .predicates
        .iter()
        .map(|(d, v)| (d.clone(), DimSelector::Value(v.clone())));
    let groups = q
        .group_dims
        .iter()
        .map(|d| (d.clone(), DimSelector::GroupBy));
    values.chain(groups).collect()
}

/// One query op, layer by layer: first the real `F2db::query`, then —
/// for the same statement — each public function it is made of.
fn probe_query(t: &mut Tracer, op: u64, db: &F2db, cfg: &Configuration, q: &Query) -> bool {
    let probe = t.enter("probe.query", op);
    let answer = t.leaf("f2db.query", op, || db.query(&q.sql));
    let doc = t.leaf("serve.json_parse", op, || json::parse(&q.body));
    let stmt = t.leaf("f2db.sql_parse", op, || parse_query(&q.sql));
    let mut right = answer.is_ok_and(|a| a.rows.len() == q.nodes.len()) && doc.is_ok();
    match &stmt {
        Err(_) => right = false,
        Ok(stmt) => {
            let selectors = selectors(stmt);
            let predicates: Vec<(&str, DimSelector)> = selectors
                .iter()
                .map(|(d, s)| (d.as_str(), s.clone()))
                .collect();
            let ds = db.dataset();
            let nodes = t.leaf("cube.resolve", op, || {
                NodeQuery::from_predicates(ds.graph(), &predicates)
                    .and_then(|n| n.resolve(ds.graph()))
            });
            right &= nodes.is_ok_and(|n| n == q.nodes);
            let forecasts = t.leaf("f2db.catalog_forecast", op, || {
                q.nodes
                    .iter()
                    .filter_map(|&n| db.catalog().forecast(n, q.horizon))
                    .count()
            });
            right &= forecasts == q.nodes.len();
            if let [node] = q.nodes[..] {
                // The two parts of a catalog forecast, on the models of
                // the configuration the engine was loaded from.
                let entry = db
                    .catalog()
                    .entry(node)
                    .expect("a served node has an entry");
                let parts = t.leaf("forecast.forecast", op, || {
                    entry
                        .scheme_sources
                        .iter()
                        .filter_map(|&s| cfg.model(s))
                        .map(|m| m.model.forecast(q.horizon))
                        .collect::<Vec<_>>()
                });
                let refs: Vec<&[f64]> = parts.iter().map(Vec::as_slice).collect();
                black_box(t.leaf("cube.derive", op, || derive_forecast(&refs, entry.weight)));
            }
        }
    }
    t.exit(probe);
    right
}

/// One full-round insert, layer by layer, in the order the server
/// performs the steps.
fn probe_insert_round(
    t: &mut Tracer,
    op: u64,
    db: &F2db,
    cube: &Cube,
    round: usize,
    wal: &Wal,
) -> bool {
    let body = cube.round_body(round);
    let rows = cube.round_rows(round);
    let payload = WalRecord::InsertBatch {
        rows: rows.clone(),
        trace: None,
    }
    .encode();
    let probe = t.enter("probe.insert_round", op);
    let doc = t.leaf("serve.json_parse", op, || json::parse(&body));
    let dims: Vec<Vec<String>> = doc
        .as_ref()
        .ok()
        .and_then(|d| d.get("rows"))
        .and_then(json::Value::as_array)
        .map(|rows| {
            rows.iter()
                .filter_map(|r| r.get("dims").and_then(json::Value::as_array))
                .map(|d| {
                    d.iter()
                        .filter_map(|v| v.as_str().map(str::to_string))
                        .collect()
                })
                .collect()
        })
        .unwrap_or_default();
    let resolved = t.leaf("f2db.base_resolve", op, || {
        dims.iter().filter(|d| db.base_node_for(d).is_ok()).count()
    });
    let logged = t.leaf("wal.append", op, || wal.append(&payload));
    let advances = t.leaf("f2db.insert_batch", op, || db.insert_batch(&rows));
    t.exit(probe);
    resolved == rows.len() && logged.is_ok() && advances.is_ok_and(|a| a == 1)
}

fn open_wal(dir: &Path, fsync: bool) -> Result<(Wal, fdc_wal::WalRecovery), String> {
    let opts = WalOptions {
        fsync,
        ..WalOptions::default()
    };
    Wal::open(dir, opts).map_err(|e| e.to_string())
}

fn engine_stage(seed: u64, ledger: &mut Ledger) -> Result<(), String> {
    let cube = Cube::generate(BASES, ENGINE_ROUNDS, mix_seed(seed, 0xE0));
    let cfg = bench_config(&cube.history);
    let db = embed::engine(&cube)?;
    let dir = scratch_dir("trace-engine");
    let (wal, _) = open_wal(&dir.join("wal"), true)?;

    let stream = pool().stream(embed::MIX, mix_seed(seed, 0xE1), SAMPLE_QUERIES);
    let mut t = Tracer::new();
    let mut did: Vec<EngineOp> = Vec::new();
    for (round, queries) in stream.chunks(SAMPLE_QUERIES / ENGINE_ROUNDS).enumerate() {
        let ok = probe_insert_round(&mut t, did.len() as u64, &db, &cube, round, &wal);
        ledger.op(ok);
        did.push(EngineOp::Insert);
        for step in queries {
            let Op::Query(q) = *step else { continue };
            let q = &pool().queries[q as usize];
            let ok = probe_query(&mut t, did.len() as u64, &db, &cfg, q);
            ledger.op(ok);
            did.push(if q.nodes.len() == 1 {
                EngineOp::Point
            } else {
                EngineOp::GroupBy
            });
        }
    }
    let point = |s: &&Span| did[s.op as usize] == EngineOp::Point;
    let group = |s: &&Span| did[s.op as usize] == EngineOp::GroupBy;
    let insert = |s: &&Span| did[s.op as usize] == EngineOp::Insert;

    ledger.fold("f2db.query_us", named(&t, "f2db.query").filter(point), US);
    ledger.fold(
        "f2db.query_groupby_us",
        named(&t, "f2db.query").filter(group),
        US,
    );
    ledger.fold("f2db.sql_parse_us", named(&t, "f2db.sql_parse"), US);
    ledger.fold(
        "cube.resolve_us",
        named(&t, "cube.resolve").filter(point),
        US,
    );
    ledger.fold(
        "cube.resolve_groupby_us",
        named(&t, "cube.resolve").filter(group),
        US,
    );
    ledger.fold("cube.derive_us", named(&t, "cube.derive"), US);
    let parse = "serve.json_parse";
    ledger.fold(
        "serve.json_parse_query_us",
        named(&t, parse).filter(|s| !insert(s)),
        US,
    );
    ledger.fold(
        "serve.json_parse_insert_us",
        named(&t, parse).filter(insert),
        US,
    );
    let per_row = US * BASES as f64;
    ledger.fold(
        "f2db.base_resolve_us",
        named(&t, "f2db.base_resolve"),
        per_row,
    );
    ledger.fold("f2db.insert_round_us", named(&t, "f2db.insert_batch"), US);
    ledger.fold("wal.append_fsync_us", named(&t, "wal.append"), US);

    // A warm point query's self time: the whole minus the parts
    // measured for the same op.
    let mut whole_and_parts: BTreeMap<u64, [u64; 2]> = BTreeMap::new();
    for s in t.spans().iter().filter(point) {
        let slot = whole_and_parts.entry(s.op).or_default();
        match s.name {
            "f2db.query" => slot[0] += s.ns(),
            "f2db.sql_parse" | "cube.resolve" | "f2db.catalog_forecast" => slot[1] += s.ns(),
            _ => {}
        }
    }
    for [whole, parts] in whole_and_parts.values() {
        ledger.sample(
            "f2db.query_self_us",
            whole.saturating_sub(*parts) as f64 / US,
        );
    }
    let stats = db.stats();
    ledger.set("f2db.reestimations", stats.reestimations as f64);
    ledger.set("f2db.model_updates", stats.model_updates as f64);
    ledger.set(
        "f2db.refit_share",
        stats.reestimations as f64 / stats.queries as f64,
    );
    ledger.finish(&t, "embed-fig9b")?;

    // tspDB's framing: a forecast query against reading the node's
    // last stored value.
    let mut rng = Rng::seed_from_u64(mix_seed(seed, 0xE2));
    let nodes: Vec<NodeId> = (0..1000)
        .map(|_| rng.usize_below(cube.history.node_count()))
        .collect();
    let mut lookup_ns = Vec::new();
    for _ in 0..REPEATS {
        let started = Instant::now();
        for &n in &nodes {
            black_box(db.dataset().series(n).values().last().copied());
        }
        lookup_ns.push(started.elapsed().as_nanos() as f64 / nodes.len() as f64);
    }
    let lookup_us = median(&lookup_ns).expect("REPEATS > 0") / US;
    ledger.set(
        "f2db.lookup_ratio",
        ledger.get("f2db.query_us")? / lookup_us,
    );

    // Re-estimation of invalidated models, one by one.
    db.invalidate_all();
    let fit = FitOptions::default();
    for node in db.catalog().invalid_nodes().into_iter().take(REPEATS) {
        let ds = db.dataset();
        let started = Instant::now();
        db.catalog()
            .reestimate(node, &ds, &fit)
            .map_err(|e| e.to_string())?;
        ledger.sample("f2db.reestimate_us", us_since(started));
    }

    // The log without the fsync, its size per row, and its replay.
    let (nofsync, _) = open_wal(&dir.join("wal-nofsync"), false)?;
    let payload = WalRecord::InsertBatch {
        rows: cube.round_rows(0),
        trace: None,
    }
    .encode();
    for _ in 0..REPEATS {
        let started = Instant::now();
        nofsync.append(&payload).map_err(|e| e.to_string())?;
        ledger.sample("wal.append_nofsync_us", us_since(started));
    }
    let written = nofsync.stats();
    let rows = (written.appends * BASES as u64) as f64;
    ledger.set("wal.bytes_per_row", written.appended_bytes as f64 / rows);
    drop(nofsync);
    let started = Instant::now();
    let (reopened, recovery) = open_wal(&dir.join("wal-nofsync"), false)?;
    let secs = started.elapsed().as_secs_f64();
    if recovery.records.len() != REPEATS {
        return Err(format!(
            "log replay found {} of {REPEATS} records",
            recovery.records.len()
        ));
    }
    ledger.set("wal.replay_rows_per_s", rows / secs);
    drop((reopened, wal));

    cube_and_model_probes(&cube, &cfg, ledger)?;
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
}

/// `fdc-cube` and `fdc-forecast` on their own.
fn cube_and_model_probes(
    cube: &Cube,
    cfg: &Configuration,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let ds = &cube.history;
    let g = ds.graph();
    for _ in 0..5 {
        let base: Vec<_> = g
            .base_nodes()
            .iter()
            .map(|&n| (g.coord(n).clone(), ds.series(n).clone()))
            .collect();
        let schema = g.schema().clone();
        let started = Instant::now();
        black_box(Dataset::from_base(schema, base).map_err(|e| e.to_string())?);
        ledger.sample("cube.graph_build_ms", us_since(started) / 1e3);
    }
    let mut growing = ds.clone();
    for r in 0..ENGINE_ROUNDS {
        let rows = cube.round_rows(r);
        let started = Instant::now();
        growing.advance_time(&rows).map_err(|e| e.to_string())?;
        ledger.sample("cube.advance_us", us_since(started));
    }

    // A catalog forecast by scheme kind. Which kinds `benchcfg` picks
    // depends on the data (some cubes have no aggregation scheme at
    // all), so one node of each kind is pinned: the top node sums its
    // children, one of them forecasts itself, a base node scales its
    // parent's forecast down.
    let top = g.top_node();
    let children = g.edges(top).first().ok_or("the top node has no edge")?;
    let base = g.base_nodes()[1];
    let parent = g
        .parents(base)
        .first()
        .ok_or("a base node has no parent")?
        .1;
    let mut pinned = cfg.clone();
    let pins = [
        (
            "f2db.catalog_forecast_us.agg",
            top,
            children.children.clone(),
        ),
        (
            "f2db.catalog_forecast_us.direct",
            children.children[0],
            vec![children.children[0]],
        ),
        ("f2db.catalog_forecast_us.disagg", base, vec![parent]),
    ];
    let split = CubeSplit::new(ds, 0.8);
    for (_, node, sources) in &pins {
        let weight = split.train_weight(ds, sources, *node);
        let scheme = Scheme {
            sources: sources.clone(),
            weight,
        };
        pinned.set_estimate(
            *node,
            NodeEstimate {
                error: 0.0,
                scheme: Some(scheme),
            },
        );
    }
    let fit = FitOptions::default();
    let catalog = Catalog::from_configuration(ds, &pinned, &fit).map_err(|e| e.to_string())?;
    let kinds = [
        SchemeKind::Aggregation,
        SchemeKind::Direct,
        SchemeKind::Disaggregation,
    ];
    for ((name, node, sources), kind) in pins.iter().zip(kinds) {
        if classify_scheme(ds, sources, *node) != kind {
            return Err(format!("the scheme pinned for {name} is not {kind:?}"));
        }
        for _ in 0..REPEATS {
            let started = Instant::now();
            black_box(
                catalog
                    .forecast(*node, MAX_HORIZON)
                    .ok_or("a pinned node has no forecast")?,
            );
            ledger.sample(name, us_since(started));
        }
    }

    // One fit on a 38-point training series, and what the optimizer
    // spent on it.
    let spec = default_spec(ds, &split);
    let evals = fdc_obs::counter(&fdc_obs::names::optimize_evals("nelder_mead"));
    let runs = fdc_obs::counter(&fdc_obs::names::optimize_runs("nelder_mead"));
    let (evals_before, runs_before) = (evals.get(), runs.get());
    for v in 0..REPEATS {
        let started = Instant::now();
        black_box(ConfiguredModel::fit(&split, v, &spec, &fit).map_err(|e| e.to_string())?);
        ledger.sample("forecast.fit_us", us_since(started));
    }
    let fits = runs.get() - runs_before;
    if fits == 0 {
        return Err("the optimizer's run counter did not move".into());
    }
    let per_fit = (evals.get() - evals_before) as f64 / fits as f64;
    ledger.set("forecast.nm_evals_per_fit", per_fit);

    // Too short to time singly: batches of a thousand calls.
    const BATCH: usize = 1000;
    let (node, configured) = cfg.models().next().ok_or("benchcfg has no model")?;
    let mut model = configured.model.clone();
    let value = ds.series(node).mean();
    for _ in 0..REPEATS {
        let started = Instant::now();
        for _ in 0..BATCH {
            model.update(black_box(value));
        }
        ledger.sample("forecast.update_ns", us_since(started) * US / BATCH as f64);
        let started = Instant::now();
        for _ in 0..BATCH {
            black_box(model.forecast(black_box(MAX_HORIZON)));
        }
        ledger.sample(
            "forecast.forecast_ns",
            us_since(started) * US / BATCH as f64,
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The network stages
// ---------------------------------------------------------------------------

/// One request with `client.request ⊃ {connect, send, wait, recv}`.
fn traced_request(
    t: &mut Tracer,
    op: u64,
    client: &mut Client,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<Response> {
    let span = t.enter("client.request", op);
    let resp = match body {
        Some(body) => client.post(path, body),
        None => client.get(path),
    };
    if let Ok(r) = &resp {
        let at = &r.timing;
        t.add("client.connect", op, at.start, at.connected);
        t.add("client.send", op, at.connected, at.sent);
        t.add("client.wait", op, at.sent, at.first_byte);
        t.add("client.recv", op, at.first_byte, at.done);
    }
    t.exit(span);
    resp
}

/// The ops of one network stage: about `queries` query ops and the
/// inserts the workload's mix draws along the way.
fn sample_ops(kind: Kind, seed: u64, queries: usize) -> Vec<Op> {
    let count = queries as f64 / (1.0 - kind.mix().insert);
    pool().stream(kind.mix(), seed, count.round() as usize)
}

fn percentile_us(sorted: &[u64], q: f64) -> Result<f64, String> {
    percentile(sorted, q)
        .map(|ns| ns as f64 / US)
        .ok_or_else(|| "a traced stage measured no op".to_string())
}

fn read_stage(seed: u64, ledger: &mut Ledger) -> Result<(), String> {
    let cube = Cube::generate(BASES, MAX_HORIZON, mix_seed(seed, 0x5E));
    let dep = Deployment::start(Kind::Read, &cube, "trace-read", true)?;
    let db = &dep.engines[0];
    // The first tenth only warms the server up.
    let ops = sample_ops(Kind::Read, mix_seed(seed, 0x5F), SAMPLE_QUERIES * 10 / 9);
    let mut client = Client::new(dep.addr);
    let mut t = Tracer::new();
    let mut rtt = Vec::new();
    let (mut reused, mut point_answer) = (0u64, Vec::new());
    for (i, op) in ops.iter().enumerate() {
        let Op::Query(q) = *op else { continue };
        let q = &pool().queries[q as usize];
        if i < ops.len() / 10 {
            ledger.op(client
                .post("/query", &q.body)
                .is_ok_and(|r| r.status == 200));
            continue;
        }
        let op = i as u64;
        let probe = t.enter("probe.request", op);
        let resp = traced_request(&mut t, op, &mut client, "/query", Some(&q.body));
        let local = t.leaf("f2db.query", op, || db.query(&q.sql));
        t.exit(probe);
        let resp = resp.ok().filter(|r| r.status == 200 && local.is_ok());
        ledger.op(resp.is_some());
        let Some(resp) = resp else { continue };
        reused += resp.timing.reused as u64;
        rtt.push(resp.timing.total_ns());
        if q.nodes.len() == 1 {
            point_answer = resp.body;
        }
    }
    rtt.sort_unstable();
    // Per op: the round trip minus the engine's share of it.
    let engine: BTreeMap<u64, u64> = named(&t, "f2db.query").map(|s| (s.op, s.ns())).collect();
    for s in named(&t, "client.request") {
        if let Some(&engine_ns) = engine.get(&s.op) {
            let outside = s.ns().saturating_sub(engine_ns);
            ledger.sample("serve.outside_engine_us", outside as f64 / US);
        }
    }
    ledger.fold("client.connect_us", named(&t, "client.connect"), US);
    ledger.fold("client.ttfb_us", named(&t, "client.wait"), US);
    ledger.set(
        "client.conn_reused_share",
        reused as f64 / rtt.len().max(1) as f64,
    );
    ledger.set("client.query_p99_us", percentile_us(&rtt, 0.99)?);
    ledger.set("traced_query_p50_us", percentile_us(&rtt, 0.50)?);

    // Accept → queue → worker → close with no engine work at all.
    for i in 0..REPEATS {
        let op = (ops.len() + i) as u64;
        let rtt = traced_request(&mut t, op, &mut client, "/healthz", None)
            .ok()
            .filter(|r| r.status == 200)
            .map(|r| r.timing.total_ns() as f64 / US);
        ledger.op(rtt.is_some());
        if let Some(rtt) = rtt {
            ledger.sample("serve.null_rtt_us", rtt);
        }
    }
    ledger.finish(&t, "serve-read")?;

    let query = &pool().queries[0].body;
    http_probe(ledger, query, &cube.round_body(0), &point_answer)?;
    dep.stop()
}

/// `httpcore::read_request` and `write_response` over a loopback socket
/// pair, with a real `/query` request, a 1000-row `/insert` body and a
/// real result body.
fn http_probe(ledger: &mut Ledger, query: &str, insert: &str, answer: &[u8]) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).map_err(io)?;
    let mut near = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (mut far, _) = listener.accept().map_err(io)?;
    near.set_nodelay(true).map_err(io)?;
    far.set_nodelay(true).map_err(io)?;
    let answer = std::str::from_utf8(answer).map_err(|_| "answer is not UTF-8".to_string())?;

    for (name, path, body) in [
        ("obs.http_read_us", "/query", query),
        ("obs.http_read_insert_us", "/insert", insert),
    ] {
        let raw = format!(
            "POST {path} HTTP/1.1\r\nHost: fdc\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        for _ in 0..REPEATS {
            // The sender runs beside the timed reader, a head start
            // ahead, so a body larger than the socket buffers cannot
            // block it: the probe times the reader, not the transfer.
            let (parsed, us) = std::thread::scope(|scope| {
                let sender = scope.spawn(|| near.write_all(raw.as_bytes()));
                std::thread::sleep(Duration::from_micros(300));
                let started = Instant::now();
                let parsed = httpcore::read_request(&mut far, 1 << 20, Duration::from_secs(5));
                let us = us_since(started);
                sender
                    .join()
                    .expect("sender panicked")
                    .map(|()| (parsed, us))
            })
            .map_err(io)?;
            if parsed.map_err(|e| e.to_string())?.body.len() != body.len() {
                return Err("httpcore returned a body of the wrong length".into());
            }
            ledger.sample(name, us);
        }
    }

    let drain = std::thread::spawn(move || {
        let mut sink = [0u8; 1 << 16];
        while near.read(&mut sink).is_ok_and(|n| n > 0) {}
    });
    for _ in 0..REPEATS {
        let started = Instant::now();
        httpcore::write_response(&mut far, "200 OK", "application/json", answer, &[])
            .map_err(io)?;
        ledger.sample("obs.http_write_us", us_since(started));
    }
    drop(far);
    drain
        .join()
        .map_err(|_| "drain thread panicked".to_string())
}

fn mixed_stage(seed: u64, ledger: &mut Ledger) -> Result<(), String> {
    let ops = sample_ops(Kind::Mixed, mix_seed(seed, 0x3A), SAMPLE_QUERIES);
    let inserts = ops.iter().filter(|op| **op == Op::Insert).count();
    let cube = Cube::generate(BASES, inserts + RECOVERY_TAIL, mix_seed(seed, 0x3B));
    let dep = Deployment::start(Kind::Mixed, &cube, "trace-mixed", true)?;
    let db = &dep.engines[0];
    let checkpoint = dep.dir.join("checkpoint.f2ck");
    let save = |ledger: &mut Ledger| -> Result<(), String> {
        let started = Instant::now();
        db.save_catalog(&checkpoint).map_err(|e| e.to_string())?;
        ledger.sample("f2db.checkpoint_ms", us_since(started) / 1e3);
        Ok(())
    };

    let mut client = Client::new(dep.addr);
    let mut t = Tracer::new();
    let mut insert_ns = Vec::new();
    let (mut refused, mut round) = (0u64, 0usize);
    for (i, op) in ops.iter().enumerate() {
        let (path, body, want) = match *op {
            Op::Query(q) => ("/query", pool().queries[q as usize].body.clone(), 200),
            Op::Insert => {
                round += 1;
                ("/insert", cube.round_body(round - 1), 202)
            }
        };
        let resp = traced_request(&mut t, i as u64, &mut client, path, Some(&body));
        let ok = resp.as_ref().is_ok_and(|r| r.status == want);
        ledger.op(ok);
        if let Ok(r) = resp {
            refused += matches!(r.status, 429 | 503) as u64;
            if ok && *op == Op::Insert {
                insert_ns.push(r.timing.total_ns());
            }
        }
        if *op == Op::Insert && round % CHECKPOINT_EVERY == 0 {
            save(ledger)?;
        }
    }
    insert_ns.sort_unstable();
    ledger.set("client.insert_p50_us", percentile_us(&insert_ns, 0.50)?);
    ledger.set("client.insert_p95_us", percentile_us(&insert_ns, 0.95)?);
    ledger.set("client.insert_p99_us", percentile_us(&insert_ns, 0.99)?);
    ledger.set("serve.refused_share", refused as f64 / ops.len() as f64);
    let stats = db.stats();
    let per_flush = stats.inserts as f64 / stats.insert_batches.max(1) as f64;
    ledger.set("serve.rows_per_flush", per_flush);
    let log = db.wal_stats().ok_or("the mixed server has no log")?;
    ledger.set(
        "wal.group_size",
        log.appends as f64 / log.fsyncs.max(1) as f64,
    );
    ledger.finish(&t, "serve-mixed")?;

    // Recovery: a last checkpoint, exactly RECOVERY_TAIL more logged
    // rounds, then the server goes away without a graceful save.
    save(ledger)?;
    let bytes = std::fs::metadata(&checkpoint).map_err(|e| e.to_string())?;
    ledger.set("f2db.checkpoint_bytes", bytes.len() as f64);
    for r in inserts..inserts + RECOVERY_TAIL {
        let acked = client.post("/insert", &cube.round_body(r));
        ledger.op(acked.is_ok_and(|resp| resp.status == 202));
    }
    let before = base_bits(db);
    let dir = dep.crash()?;
    for _ in 0..5 {
        let started = Instant::now();
        let opened = F2db::open_catalog(cube.history.clone(), &checkpoint);
        ledger.sample("f2db.open_ms", us_since(started) / 1e3);
        opened.map_err(|e| e.to_string())?;
    }
    let opts = ServeOptions {
        catalog_path: Some(checkpoint),
        wal_dir: Some(dir.join("wal")),
        wal_fsync: true,
        ..serve_options()
    };
    // `open_engine` takes the data set from the engine it is handed and
    // everything else from the checkpoint.
    let empty = Configuration::new(cube.history.node_count());
    let fresh = F2db::load(cube.history.clone(), &empty).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let (recovered, report) = open_engine(fresh, &opts).map_err(|e| e.to_string())?;
    ledger.set("serve.recover_s", started.elapsed().as_secs_f64());
    let replayed = report.wal.map_or(0, |w| w.advances);
    let len = recovered.dataset().series_len();
    if !report.opened_catalog
        || replayed != RECOVERY_TAIL as u64
        || len != HISTORY + inserts + RECOVERY_TAIL
        || base_bits(&recovered) != before
    {
        return Err(format!(
            "recovery replayed {replayed} of {RECOVERY_TAIL} rounds to length {len}, or lost a value"
        ));
    }
    drop(recovered);
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())
}

fn routed_stage(seed: u64, ledger: &mut Ledger) -> Result<(), String> {
    let ops = sample_ops(Kind::Routed, mix_seed(seed, 0x40), SAMPLE_QUERIES / 2);
    let inserts = ops.iter().filter(|op| **op == Op::Insert).count();
    let cube = Cube::generate(BASES, inserts.max(MAX_HORIZON), mix_seed(seed, 0x41));
    let dep = Deployment::start(Kind::Routed, &cube, "trace-routed", true)?;
    let shards = dep.server_addrs();
    let mut via_router = Client::new(dep.addr);
    let mut direct: Vec<Client> = shards.iter().map(|&a| Client::new(a)).collect();
    let mut t = Tracer::new();
    let mut round = 0usize;
    let mut fanout = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let id = i as u64;
        let ok = match *op {
            Op::Insert => {
                round += 1;
                let body = cube.round_body(round - 1);
                traced_request(&mut t, id, &mut via_router, "/insert", Some(&body))
                    .is_ok_and(|r| r.status == 202)
            }
            Op::Query(q) => {
                let q = &pool().queries[q as usize];
                let owners: Vec<usize> = (0..shards.len())
                    .filter(|&s| q.nodes.iter().any(|&n| dep.engines[s].is_resident(n)))
                    .collect();
                fanout.push(owners.len() as f64);
                let probe = t.enter("probe.request", id);
                let routed = traced_request(&mut t, id, &mut via_router, "/query", Some(&q.body));
                // The same point query sent straight to the shard that
                // owns it: the difference is the router's hop.
                let straight = match owners[..] {
                    [owner] if q.nodes.len() == 1 => {
                        let span = t.enter("shard.request", id);
                        let r = direct[owner].post("/query", &q.body);
                        t.exit(span);
                        Some(r)
                    }
                    _ => None,
                };
                t.exit(probe);
                match (routed, straight) {
                    (Ok(a), Some(Ok(b))) if a.status == 200 && b.status == 200 => {
                        let hop = a.timing.total_ns() as f64 - b.timing.total_ns() as f64;
                        ledger.sample("router.hop_us", hop / US);
                        parse_rows(&a.body) == parse_rows(&b.body)
                    }
                    (Ok(a), None) => a.status == 200,
                    _ => false,
                }
            }
        };
        ledger.op(ok);
    }
    let mean_fanout = fanout.iter().sum::<f64>() / fanout.len().max(1) as f64;
    ledger.set("router.fanout", mean_fanout);

    // What a plan-cache miss costs the router (`POST /plan` on a
    // shard), and the router's own accept → queue → worker → close.
    let last = pool().queries.len() - 1;
    let plan = format!(
        "{{\"sql\":\"{}\",\"key_dims\":1}}",
        pool().queries[last].sql
    );
    for i in 0..REPEATS {
        let op = (ops.len() + i) as u64;
        for (name, client, path, body) in [
            (
                "router.plan_rtt_us",
                &mut direct[0],
                "/plan",
                Some(plan.as_str()),
            ),
            ("router.null_rtt_us", &mut via_router, "/topology", None),
        ] {
            let rtt = traced_request(&mut t, op, client, path, body)
                .ok()
                .filter(|r| r.status == 200)
                .map(|r| r.timing.total_ns() as f64 / US);
            ledger.op(rtt.is_some());
            if let Some(rtt) = rtt {
                ledger.sample(name, rtt);
            }
        }
    }
    ledger.finish(&t, "route-mixed")?;
    dep.stop()
}

// ---------------------------------------------------------------------------
// advise-genx: the advisor's phases, from its public iteration history
// ---------------------------------------------------------------------------

fn advisor_stage(seed: u64, ledger: &mut Ledger) -> Result<(), String> {
    let mut t = Tracer::new();
    let mut sizes: Vec<usize> = Vec::new();
    let mut reference: Option<(Dataset, f64)> = None;
    // Fig. 9(a)'s shape: the same advisor at three cube sizes.
    for (bases, cubes) in [(1000, 3), (advise::BASES, 5), (4000, 3)] {
        for i in 0..cubes {
            let cube_seed = mix_seed(seed, 0xAD00 + bases as u64 + i);
            let dataset = generate_cube(&GenSpec::new(bases, advise::LENGTH, cube_seed)).dataset;
            let op = sizes.len() as u64;
            sizes.push(bases);
            let run = t.enter("core.advise", op);
            let init = t.enter("core.init", op);
            let advisor = Advisor::new(&dataset, AdvisorOptions::default());
            t.exit(init);
            let mut advisor = advisor.map_err(|e| e.to_string())?;
            let outcome = t.leaf("core.run", op, || advisor.run());
            t.exit(run);
            let fits = advise::trial_fits(&outcome);
            ledger.op(fits > 0);
            if bases != advise::BASES {
                continue;
            }
            let sum = |f: fn(&IterationStats) -> f64| outcome.history.iter().map(f).sum::<f64>();
            let decided = sum(|it| (it.accepted + it.rejected) as f64);
            ledger.sample("core.select_s", sum(|it| it.selection_time.as_secs_f64()));
            ledger.sample(
                "core.evaluate_s",
                sum(|it| it.evaluation_time.as_secs_f64()),
            );
            ledger.sample("core.iterations", outcome.history.len() as f64);
            ledger.sample("core.candidates", sum(|it| it.candidates as f64));
            ledger.sample("core.trial_fits", fits as f64);
            ledger.sample(
                "core.accept_share",
                sum(|it| it.accepted as f64) / decided.max(1.0),
            );
            ledger.sample("core.smape", outcome.error);
            ledger.sample("core.models", outcome.model_count as f64);
            reference.get_or_insert((dataset, outcome.error));
        }
    }
    for s in named(&t, "core.advise") {
        let name = match sizes[s.op as usize] {
            1000 => "core.advise_s_gen1000",
            4000 => "core.advise_s_gen4000",
            _ => "core.advise_s_gen2000",
        };
        ledger.sample(name, s.ns() as f64 / 1e9);
    }
    let at_run_size = |s: &&Span| sizes[s.op as usize] == advise::BASES;
    ledger.fold(
        "core.init_ms",
        named(&t, "core.init").filter(at_run_size),
        MS,
    );
    ledger.finish(&t, "advise-genx")?;

    let (dataset, advised) = reference.ok_or("no advisor run at the run size")?;
    let (direct_smape, direct_s) = advise::direct_baseline(&dataset);
    ledger.set("hierarchical.direct_smape", direct_smape);
    ledger.set("hierarchical.direct_s", direct_s);
    if ledger.get("core.trial_fits")? <= 0.0 || advised >= direct_smape {
        return Err(format!(
            "the advisor's error {advised} is not below the direct baseline's {direct_smape}"
        ));
    }
    Ok(())
}
