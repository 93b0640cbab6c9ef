//! `fdc-shell` — an interactive session against the embedded
//! flash-forward database.
//!
//! Loads a data set (a CSV in the `fdc::datagen::import_csv` long format,
//! or a built-in demo cube), runs the model configuration advisor, and
//! then reads SQL statements from stdin: forecast queries, inserts,
//! `EXPLAIN` and `EXPLAIN ANALYZE`, plus the meta commands `\report`,
//! `\stats`, `\accuracy`, `\metrics`, `\events`, `\listen`, `\wal`,
//! `\trace` and `\quit`. `\listen <port>` starts the `fdc-serve`
//! forecast server on the session's engine, so the same catalog answers
//! both the prompt and HTTP clients — and the same port answers
//! `/metrics`, `/events` and `/snapshot`.
//!
//! `--wal <dir>` attaches a write-ahead log: acknowledged inserts are
//! fsynced before `ok` and replayed onto the freshly advised engine at
//! the next start, so a session (or a `\listen` server) survives a
//! crash. `\wal` shows the log position.
//!
//! `--replica-of <host:port>` (with `--wal <dir>` as the local log)
//! starts a read-only follower replica of a primary `\listen` server:
//! the primary's WAL is shipped into the local log and applied
//! continuously, reads serve from the replicated state, and writes are
//! rejected until `POST /promote` turns the follower into a primary.
//!
//! Partitioned deployments: `--catalog <file>` persists the advised
//! configuration (first start advises and saves, later starts load —
//! every process of a deployment must share the same catalog);
//! `--topology <file> --shard-id <id>` restricts this process to the
//! base cells the topology's rendezvous placement assigns to `<id>`
//! (`\topology` shows the partition); `--router <file>` starts no
//! engine at all — just the `fdc-router` scatter-gather tier over the
//! topology's shards (`--port <p>` picks its port).
//!
//! ```sh
//! cargo run --release --bin fdc-shell                 # demo cube
//! cargo run --release --bin fdc-shell -- data.csv     # your data (monthly)
//! cargo run --release --bin fdc-shell -- --wal wal/   # durable inserts
//! cargo run --release --bin fdc-shell -- --wal fwal/ --replica-of 127.0.0.1:8080
//! cargo run --release --bin fdc-shell -- --catalog cat.f2c --topology topo.json --shard-id s0
//! cargo run --release --bin fdc-shell -- --router topo.json --port 8080
//! ```

use fdc::advisor::{summarize, Advisor, AdvisorOptions};
use fdc::datagen::{generate_cube, import_csv, GenSpec};
use fdc::f2db::{
    parse_query, ApproxOptions, ApproxQuerySpec, F2db, QueryAnswer, QueryMode, QueryRequest,
    Statement,
};
use fdc::forecast::Granularity;
use fdc::obs::{AccuracyOptions, TraceCollector};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    // `FDC_TRACE_OUT=<file> fdc-shell …` streams every span close to a
    // Chrome-trace file (flushed ~100 ms, crash-tolerant), the same
    // exporter the failover harness uses; `FDC_TRACE_NAME` labels the
    // process track so merged primary/follower timelines read well.
    if fdc::obs::install_env_exporter().is_some() {
        eprintln!(
            "tracing spans to {} (FDC_TRACE_OUT)",
            std::env::var("FDC_TRACE_OUT").unwrap_or_default()
        );
    }
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Flag helpers: remove `--name value` from the positional args.
    let take_value = |args: &mut Vec<String>, name: &str| -> Option<String> {
        let i = args.iter().position(|a| a == name)?;
        args.remove(i);
        if i < args.len() {
            Some(args.remove(i))
        } else {
            eprintln!("{name} needs a value");
            std::process::exit(1);
        }
    };
    if let Some(topology_path) = take_value(&mut args, "--router") {
        let port = take_value(&mut args, "--port")
            .map(|p| p.parse::<u16>().unwrap_or(0))
            .unwrap_or(0);
        run_router(&PathBuf::from(topology_path), port);
        return;
    }
    let catalog_path = take_value(&mut args, "--catalog").map(PathBuf::from);
    let topology_path = take_value(&mut args, "--topology").map(PathBuf::from);
    let shard_id = take_value(&mut args, "--shard-id");
    if topology_path.is_some() != shard_id.is_some() {
        eprintln!("--topology and --shard-id go together");
        std::process::exit(1);
    }
    let mut wal_dir: Option<PathBuf> = None;
    if let Some(i) = args.iter().position(|a| a == "--wal") {
        args.remove(i);
        if i < args.len() {
            wal_dir = Some(PathBuf::from(args.remove(i)));
        } else {
            eprintln!("--wal needs a directory");
            std::process::exit(1);
        }
    }
    let mut replica_of: Option<String> = None;
    if let Some(i) = args.iter().position(|a| a == "--replica-of") {
        args.remove(i);
        if i < args.len() {
            replica_of = Some(args.remove(i));
        } else {
            eprintln!("--replica-of needs a primary address (host:port)");
            std::process::exit(1);
        }
    }
    if replica_of.is_some() && wal_dir.is_none() {
        eprintln!("--replica-of needs --wal <dir> for the follower's local log");
        std::process::exit(1);
    }
    let dataset = match args.first() {
        Some(path) => {
            let content = match std::fs::read_to_string(path) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            let granularity = match args.get(1).map(String::as_str) {
                Some("hourly") => Granularity::Hourly,
                Some("daily") => Granularity::Daily,
                Some("weekly") => Granularity::Weekly,
                Some("quarterly") => Granularity::Quarterly,
                Some("yearly") => Granularity::Yearly,
                _ => Granularity::Monthly,
            };
            match import_csv(&content, granularity) {
                Ok(ds) => ds,
                Err(e) => {
                    eprintln!("import failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => {
            eprintln!("no CSV given — using a demo cube (24 base series, quarterly)");
            generate_cube(&GenSpec::new(24, 48, 42)).dataset
        }
    };

    eprintln!(
        "cube: {} base series, {} nodes",
        dataset.graph().base_nodes().len(),
        dataset.node_count()
    );
    // `--catalog <file>`: a saved configuration is authoritative — every
    // process of a partitioned deployment must advise *once* and share
    // the result, or advisor nondeterminism would give each shard a
    // different model catalog and routed answers could never match an
    // unpartitioned oracle.
    let (db, report) = match &catalog_path {
        Some(path) if path.exists() => {
            eprintln!(
                "catalog: loading shared configuration from {}",
                path.display()
            );
            match F2db::open_catalog(dataset, path) {
                Ok(db) => (
                    db,
                    String::from("(configuration loaded from --catalog — no advisor report)"),
                ),
                Err(e) => {
                    eprintln!("catalog load failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => {
            eprintln!("running the advisor…");
            let outcome = match Advisor::new(&dataset, AdvisorOptions::default()) {
                Ok(mut advisor) => advisor.run(),
                Err(e) => {
                    eprintln!("advisor failed: {e}");
                    std::process::exit(1);
                }
            };
            eprintln!(
                "configuration ready: error {:.4}, {} models\n",
                outcome.error, outcome.model_count
            );
            let report = summarize(&dataset, &outcome.configuration, 5).to_string();
            let db = match F2db::load(dataset, &outcome.configuration) {
                Ok(db) => db,
                Err(e) => {
                    eprintln!("load failed: {e}");
                    std::process::exit(1);
                }
            };
            if let Some(path) = &catalog_path {
                match db.save_catalog(path) {
                    Ok(()) => eprintln!("catalog: saved to {}", path.display()),
                    Err(e) => {
                        eprintln!("catalog save failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
            (db, report)
        }
    };
    // `--topology`/`--shard-id`: restrict this engine to the base cells
    // the rendezvous placement assigns to this shard (before the WAL
    // attaches, so replay advances under the partitioned row count).
    let db = match (&topology_path, &shard_id) {
        (Some(tp), Some(id)) => {
            let topo = match fdc::router::Topology::load(tp) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            };
            if !topo.shards.iter().any(|s| s.id == *id) {
                eprintln!("shard id {id:?} is not in the topology");
                std::process::exit(1);
            }
            let bases: Vec<_> = db.dataset().graph().base_nodes().to_vec();
            let total = bases.len();
            let mut owned = Vec::new();
            for b in bases {
                match db.partition_key(b, topo.key_dims) {
                    Ok(key) if topo.place(&key).id == *id => owned.push(b),
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("partition key failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
            match db.with_base_partition(&owned) {
                Ok(db) => {
                    let (o, r) = db.partition_summary().unwrap_or((0, 0));
                    eprintln!(
                        "partition {id}: {o} of {total} base cell(s) owned, {r} node(s) resident"
                    );
                    db
                }
                Err(e) => {
                    eprintln!("partitioning failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        _ => db,
    };
    // Replica mode: the WAL directory is the follower's *local* log —
    // `open_follower` replays it, starts the fetch loop against the
    // primary and hands back a read-only engine. Otherwise attach
    // (replaying) the write-ahead log before serving the prompt:
    // inserts acknowledged by a previous session come back, future ones
    // are fsynced before their `ok`.
    let mut replica: Option<Arc<fdc::serve::Replica>> = None;
    let db: Arc<F2db> = if let Some(primary) = replica_of.clone() {
        let follower_opts = fdc::serve::ServeOptions {
            wal_dir: wal_dir.clone(),
            replica_of: Some(primary.clone()),
            ..fdc::serve::ServeOptions::default()
        };
        let follower = db.with_drift_monitoring(AccuracyOptions::default());
        match fdc::serve::open_follower(follower, &follower_opts) {
            Ok((db, r)) => {
                eprintln!(
                    "follower replica of {primary}: local log at seq {}, read-only until promoted",
                    r.applied_seq()
                );
                replica = Some(r);
                db
            }
            Err(e) => {
                eprintln!("replica start failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let db = match &wal_dir {
            Some(dir) => match db.attach_wal(dir, fdc::wal::WalOptions::default()) {
                Ok((db, report)) => {
                    eprintln!(
                        "wal: {} — replayed {} batch(es) / {} row(s), resumed from seq {}, {} torn byte(s) dropped",
                        dir.display(),
                        report.replayed_batches,
                        report.replayed_rows,
                        report.resumed_from_seq,
                        report.wal.truncated_bytes,
                    );
                    db
                }
                Err(e) => {
                    eprintln!("wal attach failed: {e}");
                    std::process::exit(1);
                }
            },
            None => db,
        };
        Arc::new(db.with_drift_monitoring(AccuracyOptions::default()))
    };

    let dims: Vec<String> = db
        .dataset()
        .graph()
        .schema()
        .dimensions()
        .iter()
        .map(|d| d.name().to_string())
        .collect();
    eprintln!("dimensions: {}", dims.join(", "));
    eprintln!("try: SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '4 steps'");
    eprintln!(
        "     EXPLAIN [ANALYZE] <query> | \\report | \\stats | \\accuracy | \\maintain | \\metrics [human|json]"
    );
    eprintln!("     \\events [n] | \\listen <port> | \\topology | \\wal | \\slow | \\quit");
    eprintln!("     \\approx [on|off|budget <cells>|target <rel> [conf]]");
    eprintln!("     \\trace <file.json> | \\trace | \\trace --merge <out.json> <in.json>...\n");

    // Export-plane state owned by the session: an in-progress Chrome
    // trace recording, and/or a forecast server answering HTTP clients
    // (and scrapes) from the same engine.
    let mut forecast_server: Option<fdc::serve::Server> = None;
    let mut trace: Option<(Arc<TraceCollector>, PathBuf)> = None;
    // Per-session approximation controls: `\approx on` attaches a
    // sampling plane to the engine; SELECTs then answer registered
    // nodes with Horvitz–Thompson scale-ups and an interval.
    let mut approx_spec: Option<ApproxQuerySpec> = None;

    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("fdc> ");
        out.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "\\quit" | "\\q" | "exit" => break,
            "\\report" => {
                println!("{report}");
                continue;
            }
            "\\metrics" => {
                // Same encoder as the HTTP /metrics route, so the shell
                // output and a scrape can never disagree.
                let snap = fdc::obs::snapshot();
                if snap.is_empty() {
                    println!("(no metrics recorded yet)");
                } else {
                    print!("{}", fdc::obs::encode_prometheus(&snap));
                }
                continue;
            }
            "\\metrics human" => {
                let snap = fdc::obs::snapshot();
                if snap.is_empty() {
                    println!("(no metrics recorded yet)");
                } else {
                    print!("{snap}");
                }
                continue;
            }
            "\\metrics json" => {
                println!("{}", fdc::obs::snapshot().to_json());
                continue;
            }
            "\\stats" => {
                let s = db.stats();
                println!(
                    "queries {}, inserts {}, advances {}, updates {}, invalidations {}, reestimations {}, avg query {:?}",
                    s.queries,
                    s.inserts,
                    s.time_advances,
                    s.model_updates,
                    s.invalidations,
                    s.reestimations,
                    s.avg_query_time()
                );
                continue;
            }
            "\\wal" => {
                match db.wal_stats() {
                    Some(s) => {
                        let grouped = if s.fsyncs > 0 {
                            format!(
                                ", {:.1} append(s)/fsync",
                                s.appends as f64 / s.fsyncs as f64
                            )
                        } else {
                            String::new()
                        };
                        println!(
                            "wal: last_seq {}, checkpoint_seq {}, {} segment(s), {} append(s) ({} bytes), {} fsync(s){grouped}",
                            s.last_seq,
                            s.checkpoint_seq,
                            s.segments,
                            s.appends,
                            s.appended_bytes,
                            s.fsyncs,
                        );
                    }
                    None => println!("(no write-ahead log — start the shell with --wal <dir>)"),
                }
                continue;
            }
            "\\accuracy" => {
                match db.drift_monitor() {
                    Some(acc) => {
                        let summaries = acc.summaries();
                        if summaries.is_empty() {
                            println!("(no accuracy windows yet — insert a full round first)");
                        } else {
                            // Keys are catalog node ids; render the
                            // dimension-value coordinate instead so the
                            // row is readable without a graph dump.
                            let ds = db.dataset();
                            let g = ds.graph();
                            let label = |key: u64| -> String {
                                let n = key as usize;
                                if n < ds.node_count() {
                                    g.coord(n).display(g.schema())
                                } else {
                                    format!("node {key}")
                                }
                            };
                            const MAX_ROWS: usize = 50;
                            println!(
                                "{:<28} {:>6} {:>12} {:>12} {:>12}  state",
                                "cell", "n", "mean err", "stddev", "smape"
                            );
                            for s in summaries.iter().take(MAX_ROWS) {
                                println!(
                                    "{:<28} {:>6} {:>12.4} {:>12.4} {:>12.4}  {}",
                                    label(s.key),
                                    s.total(),
                                    s.err.mean(),
                                    s.err.stddev(),
                                    s.smape.mean(),
                                    if s.drifting { "DRIFTING" } else { "ok" }
                                );
                            }
                            if summaries.len() > MAX_ROWS {
                                println!("… ({} more)", summaries.len() - MAX_ROWS);
                            }
                            let drifting = summaries.iter().filter(|s| s.drifting).count();
                            println!("{} node(s) tracked, {drifting} drifting", summaries.len());
                        }
                    }
                    None => println!("(drift monitoring disabled)"),
                }
                continue;
            }
            "\\topology" => {
                match db.partition_summary() {
                    Some((owned, resident)) => println!(
                        "partitioned shard: {owned} base cell(s) owned, {resident} of {} node(s) resident",
                        db.dataset().node_count()
                    ),
                    None => println!(
                        "(not partitioned — start with --topology <file> --shard-id <id>, \
                         or run the routing tier with --router <file>)"
                    ),
                }
                continue;
            }
            "\\maintain" => {
                match db.maintain() {
                    Ok(refitted) => println!(
                        "maintenance sweep done: {refitted} models re-fitted, {} still invalid",
                        db.catalog().invalid_nodes().len()
                    ),
                    Err(e) => println!("error: {e}"),
                }
                continue;
            }
            _ => {}
        }
        if let Some(rest) = line.strip_prefix("\\events") {
            let n = rest.trim().parse::<usize>().unwrap_or(16);
            let events = fdc::obs::journal().recent(n);
            if events.is_empty() {
                println!("(no events journaled yet)");
            } else {
                for e in events {
                    println!("{e}");
                }
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("\\listen") {
            if let Some(s) = &forecast_server {
                println!("forecast server already listening on {}", s.addr());
                continue;
            }
            let port = rest.trim().parse::<u16>().unwrap_or(0);
            let listen_opts = fdc::serve::ServeOptions {
                replica_of: replica_of.clone(),
                ..fdc::serve::ServeOptions::default()
            };
            let started = match &replica {
                Some(r) => fdc::serve::Server::start_with_replica(
                    Arc::clone(&db),
                    port,
                    listen_opts,
                    Arc::clone(r),
                ),
                None => fdc::serve::Server::start(Arc::clone(&db), port, listen_opts),
            };
            match started {
                Ok(s) => {
                    println!(
                        "forecast server on http://{} — POST /query /explain /insert /maintain, GET /stats /healthz /metrics /events?n= /snapshot{}",
                        s.addr(),
                        if replica.is_some() {
                            " (follower: writes 409 until POST /promote)"
                        } else {
                            ""
                        }
                    );
                    forecast_server = Some(s);
                }
                Err(e) => println!("error: cannot bind port {port}: {e}"),
            }
            continue;
        }
        if line == "\\slow" {
            match &forecast_server {
                Some(s) => {
                    let log = s.slow_log();
                    let entries = log.entries();
                    if entries.is_empty() {
                        println!(
                            "(no slow requests captured — threshold {:?}, {} captured total)",
                            log.threshold(),
                            log.captured()
                        );
                    } else {
                        for e in &entries {
                            println!(
                                "{} {} {} {:.1}ms trace={}",
                                e.unix_ms,
                                e.route,
                                e.status,
                                e.latency_ns as f64 / 1e6,
                                e.trace_id
                                    .map(|t| format!("{t:032x}"))
                                    .unwrap_or_else(|| "-".into()),
                            );
                            if let Some(sql) = &e.sql {
                                println!("  sql: {sql}");
                            }
                            if let Some(wait) = &e.wait {
                                println!("  wait: {wait}");
                            }
                            if let Some(plan) = &e.explain {
                                for l in plan.lines() {
                                    println!("  | {l}");
                                }
                            }
                        }
                        println!(
                            "{} shown, {} captured total (threshold {:?})",
                            entries.len(),
                            log.captured(),
                            log.threshold()
                        );
                    }
                }
                None => println!("(no forecast server — \\listen <port> first)"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("\\approx") {
            let rest = rest.trim();
            let mut parts = rest.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (None, _, _) => match (&approx_spec, db.approx_enabled()) {
                    (None, false) => {
                        println!("approx off — \\approx on to attach a sampling plane")
                    }
                    (None, true) => {
                        println!("plane attached, queries exact — set a budget or target")
                    }
                    (Some(spec), enabled) => println!(
                        "approx on (plane {}): budget {}, target CI {}, confidence {}",
                        if enabled { "attached" } else { "MISSING" },
                        spec.budget.map_or("none".into(), |b| b.to_string()),
                        spec.target_ci
                            .map_or("none".into(), |t| format!("{:.1}%", t * 100.0)),
                        spec.confidence
                            .map_or("default".into(), |c| format!("{c:.2}")),
                    ),
                },
                (Some("on"), _, _) => {
                    if db.approx_enabled() {
                        println!("plane already attached");
                    } else {
                        match db.enable_approx(ApproxOptions::default()) {
                            Ok(()) => println!("sampling plane attached"),
                            Err(e) => {
                                println!("error: {e}");
                                continue;
                            }
                        }
                    }
                    approx_spec.get_or_insert_with(ApproxQuerySpec::default);
                }
                (Some("off"), _, _) => {
                    db.disable_approx();
                    approx_spec = None;
                    println!("approx off — queries exact");
                }
                (Some("budget"), Some(n), _) => match n.parse::<usize>() {
                    Ok(n) if n > 0 => {
                        let spec = approx_spec.get_or_insert_with(ApproxQuerySpec::default);
                        spec.budget = Some(n);
                        if !db.approx_enabled() {
                            println!("(budget set; \\approx on to attach the plane)");
                        } else {
                            println!("budget: {n} cells per node");
                        }
                    }
                    _ => println!("usage: \\approx budget <cells>"),
                },
                (Some("target"), Some(t), conf) => match t.trim_end_matches('%').parse::<f64>() {
                    Ok(t) if t > 0.0 && t.is_finite() => {
                        let rel = if t >= 1.0 { t / 100.0 } else { t };
                        let spec = approx_spec.get_or_insert_with(ApproxQuerySpec::default);
                        spec.target_ci = Some(rel);
                        if let Some(c) = conf {
                            match c.parse::<f64>() {
                                Ok(c) if c > 0.0 && c < 1.0 => spec.confidence = Some(c),
                                _ => {
                                    println!("confidence must be in (0, 1)");
                                    continue;
                                }
                            }
                        }
                        if !db.approx_enabled() {
                            println!("(target set; \\approx on to attach the plane)");
                        } else {
                            println!("target CI: {:.1}% relative half-width", rel * 100.0);
                        }
                    }
                    _ => println!("usage: \\approx target <rel|pct%> [confidence]"),
                },
                _ => println!("usage: \\approx [on|off|budget <cells>|target <rel> [conf]]"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("\\trace --merge") {
            let paths: Vec<PathBuf> = rest.split_whitespace().map(PathBuf::from).collect();
            if paths.len() < 2 {
                println!("usage: \\trace --merge <out.json> <in.json> <in.json>...");
                continue;
            }
            let inputs: Vec<&std::path::Path> = paths[1..].iter().map(PathBuf::as_path).collect();
            match fdc::obs::merge_trace_files(&inputs, &paths[0]) {
                Ok(()) => println!(
                    "merged {} trace(s) into {} — load it at https://ui.perfetto.dev",
                    inputs.len(),
                    paths[0].display()
                ),
                Err(e) => println!("error merging traces: {e}"),
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("\\trace") {
            let rest = rest.trim();
            match (&mut trace, rest.is_empty()) {
                (Some((collector, path)), true) => {
                    fdc::obs::take_subscriber();
                    match collector.write_to(path) {
                        Ok(()) => println!(
                            "wrote {} span(s) to {} — load it at https://ui.perfetto.dev",
                            collector.len(),
                            path.display()
                        ),
                        Err(e) => println!("error writing trace: {e}"),
                    }
                    trace = None;
                }
                (None, true) => println!("usage: \\trace <file.json> to record, \\trace to stop"),
                (_, false) => {
                    let collector = TraceCollector::new();
                    fdc::obs::set_subscriber(collector.clone());
                    trace = Some((collector, PathBuf::from(rest)));
                    println!("recording spans; \\trace again to write {rest}");
                }
            }
            continue;
        }
        // One statement, one request: the parser's own classification
        // picks the mode, the session's `\approx` controls ride along.
        let mode = match parse_query(line) {
            Ok(Statement::Insert { values, measure }) => {
                let inserted = db
                    .base_node_for(&values)
                    .and_then(|node| db.insert_value(node, measure));
                match inserted {
                    Ok(_) => println!("ok ({} inserts pending)", db.pending_inserts()),
                    Err(e) => println!("error: {e}"),
                }
                continue;
            }
            Ok(Statement::Forecast(_)) => QueryMode::Forecast,
            Ok(Statement::Explain { analyze: false, .. }) => QueryMode::Explain,
            Ok(Statement::Explain { analyze: true, .. }) => QueryMode::ExplainAnalyze,
            Err(e) => {
                println!("error: {e}");
                continue;
            }
        };
        let request = QueryRequest {
            // An analyzed plan executes the exact derivation, so the
            // session-wide controls do not apply to it.
            approx: approx_spec
                .clone()
                .filter(|_| mode != QueryMode::ExplainAnalyze),
            ..QueryRequest::new(line, mode)
        };
        match db.execute(&request) {
            Ok(QueryAnswer::Plan(plan)) => println!("{plan}"),
            Ok(QueryAnswer::Rows(result)) => {
                for row in &result.rows {
                    match &row.approx {
                        None => {
                            println!("[{}]", row.label);
                            for (t, v) in &row.values {
                                println!("  t={t:<6} {v:.3}");
                            }
                        }
                        Some(a) => {
                            println!(
                                "[{}]  ~ {} of {} cells sampled, {:.0}% CI",
                                row.label,
                                a.sampled,
                                a.population,
                                a.confidence * 100.0
                            );
                            for ((t, v), half) in row.values.iter().zip(&a.ci_half) {
                                println!("  t={t:<6} {v:.3} ± {half:.3}");
                            }
                        }
                    }
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
    if let Some(s) = forecast_server.take() {
        match s.shutdown() {
            Ok(r) => eprintln!(
                "forecast server drained: {} queued request(s) answered",
                r.drained_requests
            ),
            Err(e) => eprintln!("forecast server shutdown failed: {e}"),
        }
    }
    if let Some(r) = replica.take() {
        // Stop the fetch loop cleanly; the local log stays as
        // replicated and the next start resumes from it.
        r.seal();
    }
}

/// `--router <topology>`: the stateless scatter-gather tier. No data
/// set, no advisor, no engine — just the topology and a prompt for the
/// few meta commands that make sense without one.
fn run_router(path: &std::path::Path, port: u16) {
    let topology = match fdc::router::Topology::load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let shards: Vec<String> = topology
        .shards
        .iter()
        .map(|s| match &s.replica {
            Some(r) => format!("{} ({}, replica {r})", s.id, s.addr),
            None => format!("{} ({})", s.id, s.addr),
        })
        .collect();
    let router =
        match fdc::router::Router::start(topology, port, fdc::router::RouterOptions::default()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("cannot start router: {e}");
                std::process::exit(1);
            }
        };
    eprintln!(
        "router on http://{} — POST /query /explain /insert, GET /stats /metrics /healthz /topology",
        router.addr()
    );
    eprintln!("shards: {}", shards.join(", "));
    eprintln!("meta: \\topology | \\metrics | \\events [n] | \\quit\n");
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("fdc-router> ");
        out.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        match line {
            "" => continue,
            "\\quit" | "\\q" | "exit" => break,
            "\\topology" => println!("{}", router.topology().encode()),
            "\\metrics" => {
                let snap = fdc::obs::snapshot();
                if snap.is_empty() {
                    println!("(no metrics recorded yet)");
                } else {
                    print!("{}", fdc::obs::encode_prometheus(&snap));
                }
            }
            _ => {
                if let Some(rest) = line.strip_prefix("\\events") {
                    let n = rest.trim().parse::<usize>().unwrap_or(16);
                    let events = fdc::obs::journal().recent(n);
                    if events.is_empty() {
                        println!("(no events journaled yet)");
                    } else {
                        for e in events {
                            println!("{e}");
                        }
                    }
                } else {
                    println!("(router mode — SQL goes to POST /query; meta commands only here)");
                }
            }
        }
    }
    router.shutdown();
    eprintln!("router stopped");
}
