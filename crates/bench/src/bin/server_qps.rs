//! Closed-loop load generator for the `fdc-serve` forecast server.
//!
//! Spawns an in-process server over the tourism-proxy engine and hammers
//! it with N client threads (default 8), each running a seeded mixed
//! workload: ~80 % `POST /query` (SQL from the shared [`QueryWorkload`]
//! generator) and ~20 % `POST /insert` full-round batches, each thread
//! on its own kept-alive connection — the closed loop a forecast
//! dashboard or an ingest pipeline would present. (With more client
//! threads than server workers the server closes after most responses,
//! so the run also exercises the reconnect path; `/stats`'
//! `connections` member shows which regime a run was in.) Reported per route: exact p50/p95/p99
//! latency and total throughput.
//!
//! `--restart` exercises the graceful-drain contract mid-run: the server
//! shuts down under full load (drain queue, flush the coalescing buffer,
//! maintain, persist the `F2CK` checkpoint container), the engine is
//! reopened with `open_catalog` from the container and the *original*
//! data set — the container carries the grown base series and the
//! pending rows — and a fresh server takes over while the clients retry
//! through the gap. The run then proves
//! the headline acceptance number: zero dropped acknowledged writes —
//! every `202` full round is a committed time stamp on one engine or
//! the other.
//!
//! The restarted listener binds a fresh ephemeral port (accepted
//! connections from the first life leave `TIME_WAIT` entries on the old
//! port and `std` cannot set `SO_REUSEADDR`); clients pick up the new
//! address from a shared cell, exactly as they would from a service
//! registry.
//!
//! `--durability` appends three measured phases that price the
//! write-ahead log: an insert-only closed loop against a WAL-backed
//! server with `fsync` on, the same loop with `fsync` off, and a raw
//! concurrent-appender microbench that shows group commit working
//! (fsyncs ≪ appends, mean group size > 1). The numbers land under the
//! `"durability"` key of the JSON summary.
//!
//! Usage: `cargo run -p fdc-bench --release --bin server_qps --
//! [--threads n] [--secs s] [--port p] [--scale n] [--restart]
//! [--durability] [--strict] [--json-out FILE]`. `--strict` exits
//! non-zero on any error response, any dropped acknowledged write, an
//! insert-batch ratio that shows coalescing is not happening, or (with
//! `--durability`) a WAL group-commit size that never exceeded one —
//! the CI smoke contract. `--json-out` writes the summary (the
//! `BENCH_server.json` artifact); the obs snapshot still lands in the
//! usual `--- metrics ---` fence.

use fdc_bench::{emit_metrics, obs_session, parse_scale_args, QueryWorkload};
use fdc_core::{Advisor, AdvisorOptions};
use fdc_datagen::{generate_cube, GenSpec};
use fdc_f2db::{F2db, QueryMode, QueryRequest};
use fdc_obs::httpcore::client::{Client, Outgoing};
use fdc_obs::names;
use fdc_rng::Rng;
use fdc_serve::{ServeOptions, Server};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fraction of requests that are inserts (the rest are queries).
const INSERT_MIX: f64 = 0.2;
/// Bounds every client socket wait.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What one client thread brings home.
#[derive(Default)]
struct ClientStats {
    /// `(route, latency, status)` per completed request; route 0 is
    /// query, 1 is insert.
    samples: Vec<(u8, u64, u16)>,
    /// `202` full-round inserts — each one is exactly one committed
    /// time stamp the server owes us across any restart.
    acked: u64,
    /// Connect/IO failures, expected only inside the restart gap.
    conn_errors: u64,
}

/// One `POST` on `client`'s kept-alive connection; returns `(status,
/// latency_ns)`. An `/insert` is never replayed on a dead connection: it
/// may have been applied, and the run counts acknowledged rounds.
fn post(client: &Client, addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, u64)> {
    let start = Instant::now();
    let request = Outgoing {
        replay: path != "/insert",
        ..Outgoing::new("POST", path, body.as_bytes())
    };
    let response = client.send(&addr.to_string(), &request)?;
    Ok((response.status, start.elapsed().as_nanos() as u64))
}

/// The dimension-value strings of every base series, in base-node order.
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

/// An `/insert` body carrying one value per base series — a full round
/// that commits exactly one time stamp.
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

/// Nearest-rank percentile over an ascending sample vector.
fn pctl(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// What one durability phase measured: an insert-only closed loop
/// against a WAL-backed server, with the fsync either in or out of the
/// acknowledgement path.
struct DurabilityPhase {
    rounds: u64,
    rows: u64,
    secs: f64,
    appends: u64,
    fsyncs: u64,
}

impl DurabilityPhase {
    fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.secs.max(1e-9)
    }

    fn json(&self) -> String {
        let rows_per_fsync = if self.fsyncs > 0 {
            self.rows as f64 / self.fsyncs as f64
        } else {
            0.0
        };
        format!(
            "{{\"rounds\":{},\"rounds_per_sec\":{:.1},\"rows\":{},\
             \"wal_appends\":{},\"fsyncs\":{},\"rows_per_fsync\":{rows_per_fsync:.2}}}",
            self.rounds,
            self.rounds_per_sec(),
            self.rows,
            self.appends,
            self.fsyncs,
        )
    }
}

/// Runs one insert-only closed loop for `secs` against a fresh engine
/// with a write-ahead log attached (`fsync` as given) and returns what
/// it cost: acked rounds, committed rows, WAL appends and fsyncs.
fn durability_phase(
    label: &str,
    fsync: bool,
    threads: usize,
    secs: f64,
    scale: usize,
    dir: &std::path::Path,
) -> DurabilityPhase {
    let cube = generate_cube(&GenSpec::new(8 * scale, 48, 11));
    let outcome = Advisor::new(&cube.dataset, AdvisorOptions::default())
        .expect("advisor construction")
        .run();
    let db = F2db::load(cube.dataset, &outcome.configuration).expect("load");
    let (db, _report) = db
        .attach_wal(
            &dir.join(format!("wal_{label}")),
            fdc_wal::WalOptions {
                fsync,
                ..fdc_wal::WalOptions::default()
            },
        )
        .expect("attach wal");
    let db = Arc::new(db);
    let dims = base_dims(&db);
    let server = Server::start(
        Arc::clone(&db),
        0,
        ServeOptions {
            workers: 4,
            queue_depth: 256,
            deadline: Duration::from_secs(30),
            ..ServeOptions::default()
        },
    )
    .expect("server start");
    let addr = server.addr();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let rounds: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let dims = &dims;
                let stop = &stop;
                scope.spawn(move || {
                    let mut rng = Rng::seed_from_u64(0xD04A_B1E0 + t as u64);
                    let client = Client::new(IO_TIMEOUT);
                    let mut acked = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let body = full_round_body(dims, rng.f64_range(10.0, 500.0));
                        if let Ok((202, _)) = post(&client, addr, "/insert", &body) {
                            acked += 1;
                        }
                    }
                    acked
                })
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(secs));
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    let elapsed = started.elapsed().as_secs_f64();
    server.shutdown().expect("durability phase shutdown");
    let w = db.wal_stats().expect("wal stats");
    DurabilityPhase {
        rounds,
        rows: db.stats().inserts as u64,
        secs: elapsed,
        appends: w.appends,
        fsyncs: w.fsyncs,
    }
}

/// Hammers a raw [`fdc_wal::Wal`] with concurrent appenders so the
/// dedicated fsync thread has waiters to coalesce; returns `(appends,
/// fsyncs)` — group commit working means fsyncs ≪ appends.
fn group_commit_micro(dir: &std::path::Path, threads: usize, per_thread: usize) -> (u64, u64) {
    let (wal, _) = fdc_wal::Wal::open(&dir.join("wal_group"), fdc_wal::WalOptions::default())
        .expect("wal open");
    let payload = [0xA5u8; 64];
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                for _ in 0..per_thread {
                    wal.append(&payload).expect("append");
                }
            });
        }
    });
    let s = wal.stats();
    (s.appends, s.fsyncs)
}

fn serve_options(catalog_path: &std::path::Path) -> ServeOptions {
    ServeOptions {
        workers: 4,
        queue_depth: 256,
        deadline: Duration::from_secs(30),
        catalog_path: Some(catalog_path.to_path_buf()),
        ..ServeOptions::default()
    }
}

fn main() {
    let _obs = obs_session();
    let (scale, _full, extra) = parse_scale_args();
    let mut threads = 8usize;
    let mut secs = 3.0f64;
    let mut port = 0u16;
    let mut restart = false;
    let mut durability = false;
    let mut strict = false;
    let mut json_out: Option<String> = None;
    let mut it = extra.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs an integer");
            }
            "--secs" => {
                secs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--secs needs a number");
            }
            "--port" => {
                port = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--port needs a port number");
            }
            "--restart" => restart = true,
            "--durability" => durability = true,
            "--strict" => strict = true,
            "--json-out" => json_out = Some(it.next().expect("--json-out needs a path")),
            other => panic!("unknown flag {other} (see the module doc for usage)"),
        }
    }
    let threads = threads.max(1);

    let cube = generate_cube(&GenSpec::new(16 * scale, 48, 7));
    let outcome = Advisor::new(&cube.dataset, AdvisorOptions::default())
        .expect("advisor construction")
        .run();
    let db = Arc::new(F2db::load(cube.dataset.clone(), &outcome.configuration).expect("load"));
    let dims = base_dims(&db);
    let graph = db.dataset().graph().clone();
    let initial_len = db.dataset().series_len();

    let dir = std::env::temp_dir().join(format!("fdc_server_qps_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let catalog_path = dir.join("catalog.bin");

    let server =
        Server::start(Arc::clone(&db), port, serve_options(&catalog_path)).expect("server start");
    let addr = Arc::new(Mutex::new(server.addr()));
    println!(
        "== server_qps: {threads} client(s), {secs:.1}s, {}% inserts, serving {} ({} models){} ==",
        (INSERT_MIX * 100.0) as u32,
        server.addr(),
        db.model_count(),
        if restart { ", restart mid-run" } else { "" },
    );

    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (stats, committed, flushed_rows, engine_inserts, engine_batches) =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let dims = &dims;
                    let graph = &graph;
                    let stop = &stop;
                    let addr = Arc::clone(&addr);
                    scope.spawn(move || {
                        let mut rng = Rng::seed_from_u64(0xBE9C_0000 + t as u64);
                        let mut wl = QueryWorkload::new(0x51E0_0000 + t as u64);
                        let client = Client::new(IO_TIMEOUT);
                        let mut stats = ClientStats::default();
                        while !stop.load(Ordering::Relaxed) {
                            let insert = rng.f64_range(0.0, 1.0) < INSERT_MIX;
                            let (route, path, body) = if insert {
                                let v = rng.f64_range(10.0, 500.0);
                                (1u8, "/insert", full_round_body(dims, v))
                            } else {
                                let sql = wl.next_query(graph);
                                let request = QueryRequest::new(sql, QueryMode::Forecast);
                                (0u8, "/query", fdc_serve::wire::encode(&request))
                            };
                            let at = *addr.lock().unwrap();
                            match post(&client, at, path, &body) {
                                Ok((status, ns)) => {
                                    stats.samples.push((route, ns, status));
                                    if insert && status == 202 {
                                        stats.acked += 1;
                                    }
                                }
                                Err(_) => {
                                    // Restart gap (or shutdown): back off and
                                    // re-read the address.
                                    stats.conn_errors += 1;
                                    std::thread::sleep(Duration::from_millis(2));
                                }
                            }
                        }
                        stats
                    })
                })
                .collect();

            let mut committed = 0u64;
            let mut flushed_rows = 0u64;
            if restart {
                std::thread::sleep(Duration::from_secs_f64(secs / 2.0));
                let report = server.shutdown().expect("graceful shutdown");
                flushed_rows += report.flushed_rows;
                committed += (db.dataset().series_len() - initial_len) as u64;
                // "Restart": a new process has only the original data
                // set; the container brings back the series the first
                // life grew and its pending rows. Serve again on a
                // fresh port.
                let db2 = Arc::new(
                    F2db::open_catalog(cube.dataset.clone(), &catalog_path).expect("open_catalog"),
                );
                let len2 = db2.dataset().series_len();
                assert_eq!(
                    (len2, db2.pending_inserts()),
                    (db.dataset().series_len(), db.pending_inserts()),
                    "the container lost committed rounds or pending rows"
                );
                let server2 = Server::start(Arc::clone(&db2), 0, serve_options(&catalog_path))
                    .expect("server restart");
                *addr.lock().unwrap() = server2.addr();
                std::thread::sleep(Duration::from_secs_f64(secs / 2.0));
                stop.store(true, Ordering::Relaxed);
                let stats: Vec<ClientStats> =
                    handles.into_iter().map(|h| h.join().unwrap()).collect();
                let report = server2.shutdown().expect("graceful shutdown");
                flushed_rows += report.flushed_rows;
                committed += (db2.dataset().series_len() - len2) as u64;
                let (s1, s2) = (db.stats(), db2.stats());
                (
                    stats,
                    committed,
                    flushed_rows,
                    s1.inserts + s2.inserts,
                    s1.insert_batches + s2.insert_batches,
                )
            } else {
                std::thread::sleep(Duration::from_secs_f64(secs));
                stop.store(true, Ordering::Relaxed);
                let stats: Vec<ClientStats> =
                    handles.into_iter().map(|h| h.join().unwrap()).collect();
                let report = server.shutdown().expect("graceful shutdown");
                flushed_rows += report.flushed_rows;
                committed += (db.dataset().series_len() - initial_len) as u64;
                let s = db.stats();
                (stats, committed, flushed_rows, s.inserts, s.insert_batches)
            }
        });
    let elapsed = started.elapsed().as_secs_f64();

    // ---- aggregate ----------------------------------------------------
    let acked: u64 = stats.iter().map(|s| s.acked).sum();
    let conn_errors: u64 = stats.iter().map(|s| s.conn_errors).sum();
    let mut by_route: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut errors = 0u64;
    let mut requests = 0u64;
    for s in &stats {
        for &(route, ns, status) in &s.samples {
            requests += 1;
            by_route[route as usize].push(ns);
            if status >= 400 {
                errors += 1;
            }
        }
    }
    by_route[0].sort_unstable();
    by_route[1].sort_unstable();
    let qps = requests as f64 / elapsed;
    let dropped = acked.saturating_sub(committed);

    let rows_per_batch = if engine_batches > 0 {
        engine_inserts as f64 / engine_batches as f64
    } else {
        0.0
    };

    println!(
        "{requests} requests in {elapsed:.2}s — {qps:.0} req/s, {errors} error response(s), \
         {conn_errors} connect retry(ies)"
    );
    println!(
        "{acked} acked insert round(s), {committed} committed, {dropped} dropped, \
         {flushed_rows} row(s) in drain flushes, {rows_per_batch:.1} rows/engine batch"
    );
    for (name, lats) in [("query", &by_route[0]), ("insert", &by_route[1])] {
        println!(
            "{name:<7} n={:<7} p50 {:>9.1?}  p95 {:>9.1?}  p99 {:>9.1?}",
            lats.len(),
            Duration::from_nanos(pctl(lats, 0.50)),
            Duration::from_nanos(pctl(lats, 0.95)),
            Duration::from_nanos(pctl(lats, 0.99)),
        );
    }

    // ---- durability phases --------------------------------------------
    let mut group_mean = 0.0f64;
    let durability_json = if durability {
        let secs_each = (secs / 4.0).clamp(0.5, 2.0);
        let on = durability_phase("on", true, threads, secs_each, scale, &dir);
        let off = durability_phase("off", false, threads, secs_each, scale, &dir);
        let (g_appends, g_fsyncs) = group_commit_micro(&dir, 16, 250);
        group_mean = if g_fsyncs > 0 {
            g_appends as f64 / g_fsyncs as f64
        } else {
            g_appends as f64
        };
        let on_off_ratio = if on.rounds_per_sec() > 0.0 {
            off.rounds_per_sec() / on.rounds_per_sec()
        } else {
            0.0
        };
        println!(
            "durability: fsync-on {:.0} round/s ({} fsyncs, {:.1} rows/fsync), \
             fsync-off {:.0} round/s — off/on ratio {on_off_ratio:.2}",
            on.rounds_per_sec(),
            on.fsyncs,
            if on.fsyncs > 0 {
                on.rows as f64 / on.fsyncs as f64
            } else {
                0.0
            },
            off.rounds_per_sec(),
        );
        println!(
            "group commit: {g_appends} concurrent appends in {g_fsyncs} fsync(s) — \
             mean group size {group_mean:.1}"
        );
        format!(
            "{{\"fsync_on\":{},\"fsync_off\":{},\"on_off_ratio\":{on_off_ratio:.2},\
             \"group_commit\":{{\"appends\":{g_appends},\"fsyncs\":{g_fsyncs},\
             \"mean_group_size\":{group_mean:.2}}}}}",
            on.json(),
            off.json(),
        )
    } else {
        "null".to_string()
    };

    for (stat, v) in [
        ("qps", qps as i64),
        ("requests", requests as i64),
        ("errors", errors as i64),
        ("acked", acked as i64),
        ("dropped_acked", dropped as i64),
        ("query_p95_us", (pctl(&by_route[0], 0.95) / 1_000) as i64),
        ("insert_p95_us", (pctl(&by_route[1], 0.95) / 1_000) as i64),
    ] {
        fdc_obs::gauge_with(names::BENCH_SERVER_QPS, &[("stat", stat)]).set(v);
    }

    let route_json = |lats: &[u64]| {
        format!(
            "{{\"count\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            lats.len(),
            pctl(lats, 0.50) / 1_000,
            pctl(lats, 0.95) / 1_000,
            pctl(lats, 0.99) / 1_000,
        )
    };
    let summary = format!(
        "{{\"bench\":\"server_qps\",\"threads\":{threads},\"secs\":{elapsed:.3},\
         \"restart\":{restart},\"requests\":{requests},\"qps\":{qps:.1},\
         \"errors\":{errors},\"conn_retries\":{conn_errors},\
         \"acked_insert_rounds\":{acked},\"committed_rounds\":{committed},\
         \"dropped_acked_writes\":{dropped},\"rows_per_insert_batch\":{rows_per_batch:.2},\
         \"routes\":{{\"query\":{},\"insert\":{}}},\"durability\":{durability_json}}}",
        route_json(&by_route[0]),
        route_json(&by_route[1]),
    );
    if let Some(path) = &json_out {
        std::fs::write(path, &summary).expect("write --json-out");
        println!("wrote {path}");
    }
    emit_metrics("server_qps");
    std::fs::remove_dir_all(&dir).ok();

    if strict {
        let batching_ok = acked == 0 || rows_per_batch > 1.0;
        let grouping_ok = !durability || group_mean > 1.0;
        if errors > 0 || dropped > 0 || !batching_ok || !grouping_ok {
            eprintln!(
                "strict: FAILED ({errors} error response(s), {dropped} dropped acked write(s), \
                 {rows_per_batch:.2} rows/batch, {group_mean:.2} mean wal group)"
            );
            std::process::exit(2);
        }
        println!("strict: ok");
    }
}
