//! Crash-injection harness: a real server process, real SIGKILL, real
//! recovery.
//!
//! Each seed spawns this very test binary as a child process (the
//! [`crash_child`] test below, selected with `--exact` and armed by an
//! environment variable). The child opens a WAL-backed engine through
//! [`fdc_serve::open_engine`], starts the HTTP server and prints
//! `READY <addr>`. The parent then hammers `/insert` from several
//! threads — every row carrying a globally unique value — and SIGKILLs
//! the child at a seed-chosen moment mid-load, exactly like a power
//! failure: no drain, no flush, no atexit.
//!
//! Afterwards the parent verifies the durability contract from the
//! surviving bytes alone:
//!
//! 1. **no acknowledged write is lost** — every value the parent saw a
//!    `202` for is present in the replayed log exactly once;
//! 2. **no write is duplicated** — no value appears twice;
//! 3. **replay is deterministic** — a second replay of the recovered
//!    directory yields byte-identical records and truncates nothing;
//! 4. **the engine restarts** on the same directory and applies every
//!    replayed row.
//!
//! With `FDC_STRESS_ARTIFACT_DIR` set (as in CI's crash-smoke job) each
//! seed writes a JSON summary there as a build artifact.

mod common;

use common::{http, http_with_headers, row_json};
use fdc_core::{Advisor, AdvisorOptions};
use fdc_cube::Dataset;
use fdc_datagen::tourism_proxy;
use fdc_f2db::{F2db, WalRecord};
use fdc_serve::{open_engine, ServeOptions, Server};
use fdc_wal::{Wal, WalOptions};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const CHILD_ENV: &str = "FDC_CRASH_CHILD";
const DIR_ENV: &str = "FDC_CRASH_DIR";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fdc_crash_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn engine_opts(dir: &Path) -> ServeOptions {
    ServeOptions {
        catalog_path: Some(dir.join("catalog.f2db")),
        wal_dir: Some(dir.join("wal")),
        ..ServeOptions::default()
    }
}

fn build_engine() -> F2db {
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

/// The dimension-value strings of every base series, straight from the
/// dataset (the parent needs them without paying for an advisor run).
fn base_dims(ds: &Dataset) -> Vec<Vec<String>> {
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

/// Not a test of its own: the server process the harness SIGKILLs. Runs
/// only when re-invoked by a parent with [`CHILD_ENV`] set; under a
/// plain `cargo test` it returns immediately.
#[test]
fn crash_child() {
    if std::env::var(CHILD_ENV).is_err() {
        return;
    }
    let dir = PathBuf::from(std::env::var(DIR_ENV).expect("child needs FDC_CRASH_DIR"));
    // With FDC_TRACE_OUT set by the parent, every span this process
    // closes lands in a Chrome-trace file the parent merges with the
    // follower's for the cross-process trace assertions.
    fdc_obs::install_env_exporter();
    let opts = engine_opts(&dir);
    let (db, _recovery) = open_engine(build_engine(), &opts).expect("child open_engine");
    let server = Server::start(db, 0, opts).expect("child server");
    // The parent parses this line; everything else on stdout is libtest
    // chatter it skips over.
    println!("READY {}", server.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    // Wait for the axe. The server threads do all the work; a graceful
    // exit never happens on this path.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn spawn_child(dir: &Path) -> (std::process::Child, SocketAddr) {
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(exe)
        .args(["crash_child", "--exact", "--nocapture"])
        .env(CHILD_ENV, "1")
        .env(DIR_ENV, dir)
        .env("FDC_TRACE_OUT", dir.join("trace.json"))
        .env("FDC_TRACE_NAME", "primary")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child server");
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            // libtest prints `test crash_child ... ` without a newline
            // first, so READY can land mid-line.
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

/// One replay of the crashed log, flattened for the assertions.
struct Replay {
    /// Raw `(seq, payload)` records, in log order.
    records: Vec<(u64, Vec<u8>)>,
    /// Torn bytes this open truncated.
    truncated: u64,
    /// Every row value across all decoded `InsertBatch` records, as
    /// bit patterns (exact-equality keys for f64).
    values: Vec<u64>,
}

fn replay_wal(wal_dir: &Path) -> Replay {
    let (_wal, rec) = Wal::open(
        wal_dir,
        WalOptions {
            fsync: false,
            ..WalOptions::default()
        },
    )
    .expect("replay after crash");
    let mut values = Vec::new();
    for (_seq, payload) in &rec.records {
        let WalRecord::InsertBatch { rows, .. } =
            WalRecord::decode(payload).expect("decodable record");
        values.extend(rows.iter().map(|(_node, v)| v.to_bits()));
    }
    Replay {
        records: rec.records,
        truncated: rec.truncated_bytes,
        values,
    }
}

fn run_crash(seed: u64) {
    let mut rng = fdc_rng::Rng::seed_from_u64(seed);
    let dir = tmp_dir(&format!("{seed:x}"));
    let dims = base_dims(&tourism_proxy(1));
    let (mut child, addr) = spawn_child(&dir);

    // Hammer /insert from several threads; every row value is unique, so
    // a value doubles as the identity of its write. A thread records a
    // value as acknowledged only after reading the 202.
    let stop = AtomicBool::new(false);
    let acked_count = std::sync::atomic::AtomicUsize::new(0);
    let threads = 3usize;
    let acked: Vec<u64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let dims = &dims;
                let stop = &stop;
                let acked_count = &acked_count;
                scope.spawn(move || {
                    let mut acked = Vec::new();
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let value = (t as u64 * 1_000_000 + i) as f64 + 0.5;
                        let body = row_json(&dims[(i as usize + t) % dims.len()], value);
                        match http(addr, "POST", "/insert", &body) {
                            Ok(r) if r.status == 202 => {
                                acked.push(value.to_bits());
                                acked_count.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(_) => {}      // backpressure — not acknowledged
                            Err(_) => break, // the axe fell mid-request
                        }
                        i += 1;
                    }
                    acked
                })
            })
            .collect();

        // A kill before anything was acknowledged proves nothing, so
        // wait until the load is real before picking the crash moment.
        let armed = std::time::Instant::now();
        while acked_count.load(Ordering::Relaxed) < 20 && armed.elapsed() < Duration::from_secs(20)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        // SIGKILL at a seed-chosen moment mid-load: Child::kill is
        // SIGKILL on unix — no drain, no flush, no atexit.
        std::thread::sleep(Duration::from_millis(40 + rng.usize_below(240) as u64));
        child.kill().expect("sigkill child");
        child.wait().expect("reap child");
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect()
    });
    assert!(
        acked.len() >= 20,
        "seed {seed:#x}: only {} writes acknowledged before the kill — harness too weak",
        acked.len()
    );

    // 1 + 2: every acked value present exactly once, nothing duplicated.
    let wal_dir = dir.join("wal");
    let Replay {
        records,
        truncated,
        values,
    } = replay_wal(&wal_dir);
    let mut sorted = values.clone();
    sorted.sort_unstable();
    let len_before = sorted.len();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        len_before,
        "seed {seed:#x}: a write was duplicated in the log"
    );
    for v in &acked {
        assert!(
            sorted.binary_search(v).is_ok(),
            "seed {seed:#x}: acknowledged write {} lost ({} acked, {} recovered)",
            f64::from_bits(*v),
            acked.len(),
            values.len()
        );
    }

    // 3: replaying the recovered directory again is byte-deterministic —
    // identical records, nothing further to truncate.
    let second = replay_wal(&wal_dir);
    assert_eq!(
        second.records, records,
        "seed {seed:#x}: replay not deterministic"
    );
    assert_eq!(
        second.truncated, 0,
        "seed {seed:#x}: second replay truncated"
    );

    // 4: the engine restarts on the crashed directory and applies every
    // row the log carries.
    let (db, recovery) = open_engine(build_engine(), &engine_opts(&dir)).expect("restart");
    let report = recovery.wal.expect("wal attached on restart");
    assert_eq!(
        report.replayed_rows as usize,
        values.len(),
        "seed {seed:#x}: restart applied a different row count"
    );
    assert_eq!(db.stats().inserts, values.len());

    if let Some(artifact_dir) = std::env::var("FDC_STRESS_ARTIFACT_DIR")
        .ok()
        .filter(|d| !d.is_empty())
    {
        std::fs::create_dir_all(&artifact_dir).expect("artifact dir");
        let summary = format!(
            "{{\"seed\":\"{seed:#x}\",\"acked\":{},\"recovered_rows\":{},\"wal_records\":{},\"torn_bytes_truncated\":{}}}\n",
            acked.len(),
            values.len(),
            records.len(),
            truncated
        );
        std::fs::write(
            PathBuf::from(artifact_dir).join(format!("crash-recovery-{seed:x}.json")),
            summary,
        )
        .expect("artifact write");
    }

    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Primary-kill failover: a real primary, a real follower, a real SIGKILL
// ---------------------------------------------------------------------------
//
// The replica suite spawns TWO children: the [`crash_child`] primary
// above and the [`replica_child`] follower below, wired together by
// `--replica-of`-style options. The parent hammers the primary under
// seeded load while the follower ships the primary's WAL, SIGKILLs the
// primary mid-group-commit, promotes the follower over the dead
// primary's log tail, and then proves from the surviving bytes that
//
// 1. **no acknowledged write was lost** — every primary `202` and every
//    post-promotion `202` is in the promoted follower's log;
// 2. **no write was duplicated** — each value appears exactly once;
// 3. **the follower log is a prefix-extension of the primary log** —
//    byte-identical records up to the primary's last recovered
//    sequence, followed only by post-promotion writes;
// 4. **catalog state is byte-deterministic** — two independent replays
//    of the promoted log encode identical catalogs, and apply exactly
//    the rows the log carries.

const REPLICA_CHILD_ENV: &str = "FDC_REPLICA_CHILD";
const REPLICA_DIR_ENV: &str = "FDC_REPLICA_DIR";
const PRIMARY_ADDR_ENV: &str = "FDC_PRIMARY_ADDR";

/// Not a test of its own: the follower process of the failover suite.
/// Runs only when re-invoked by a parent with [`REPLICA_CHILD_ENV`]
/// set.
#[test]
fn replica_child() {
    if std::env::var(REPLICA_CHILD_ENV).is_err() {
        return;
    }
    let dir = PathBuf::from(std::env::var(REPLICA_DIR_ENV).expect("child needs FDC_REPLICA_DIR"));
    let primary = std::env::var(PRIMARY_ADDR_ENV).expect("child needs FDC_PRIMARY_ADDR");
    fdc_obs::install_env_exporter();
    let opts = ServeOptions {
        wal_dir: Some(dir.join("wal")),
        replica_of: Some(primary),
        replica_poll: Duration::from_millis(2),
        ..ServeOptions::default()
    };
    let (db, replica) = fdc_serve::open_follower(build_engine(), &opts).expect("open_follower");
    let server = Server::start_with_replica(db, 0, opts, replica).expect("child follower server");
    println!("READY {}", server.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

fn spawn_replica_child(dir: &Path, primary: SocketAddr) -> (std::process::Child, SocketAddr) {
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(exe)
        .args(["replica_child", "--exact", "--nocapture"])
        .env(REPLICA_CHILD_ENV, "1")
        .env(REPLICA_DIR_ENV, dir)
        .env(PRIMARY_ADDR_ENV, primary.to_string())
        .env("FDC_TRACE_OUT", dir.join("trace.json"))
        .env("FDC_TRACE_NAME", "follower")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn follower server");
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some((_, rest)) = line.split_once("READY ") {
                    break rest.trim().parse::<SocketAddr>().expect("follower addr");
                }
            }
            other => panic!("follower exited before READY: {other:?}"),
        }
    };
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// Span paths that closed under `trace_hex`, scraped from a Chrome-trace
/// document: each event serializes as `{"name":"<path>",...}` with the
/// trace id (when the span was sampled) among its `args`.
fn span_names_with_trace(doc: &str, trace_hex: &str) -> std::collections::BTreeSet<String> {
    doc.split("{\"name\":\"")
        .skip(1)
        .filter(|chunk| chunk.contains(trace_hex))
        .map(|chunk| chunk.split('"').next().unwrap_or("").to_string())
        .collect()
}

/// The four hops a traced `/insert` must light up across the pair: the
/// request span and the WAL group-commit span on the primary, the ship
/// span on the primary's `/wal/fetch` answer, and the apply span on the
/// follower — all under one trace id.
const TRACED_INSERT_CHAIN: [&str; 4] = [
    "serve.request",
    "f2db.wal_commit",
    "serve.wal_ship",
    "replica.apply",
];

/// First `"key":<u64>` value in a JSON body, without a parser — the
/// stats/promote bodies are flat enough for this.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn run_replica_kill(seed: u64) {
    let mut rng = fdc_rng::Rng::seed_from_u64(seed);
    let p_dir = tmp_dir(&format!("rp_{seed:x}"));
    let f_dir = tmp_dir(&format!("rf_{seed:x}"));
    // A recognizable, seed-unique trace id for the crafted traceparent
    // the tracing assertions below hunt for in both processes' exports.
    let trace_id: u128 = (0xF2DB_u128 << 96) | u128::from(seed);
    let trace_hex = format!("{trace_id:032x}");
    let traceparent = format!("00-{trace_hex}-00f067aa0ba902b7-01");
    let dims = base_dims(&tourism_proxy(1));
    let (mut primary, p_addr) = spawn_child(&p_dir);
    let (mut follower, f_addr) = spawn_replica_child(&f_dir, p_addr);

    // The follower rejects writes explicitly — not a 500 from deep in
    // the engine, a typed redirect-to-the-primary answer.
    let rejected = http(f_addr, "POST", "/insert", &row_json(&dims[0], 424_242.5)).unwrap();
    assert_eq!(
        rejected.status,
        409,
        "follower accepted a write: {}",
        rejected.text()
    );
    assert!(
        rejected.text().contains("read-only follower"),
        "rejection is not explicit: {}",
        rejected.text()
    );

    // Load the primary from several threads (unique values = write
    // identities) while a sampler thread watches the follower's
    // replication lag through /stats.
    let stop = AtomicBool::new(false);
    let sampler_stop = AtomicBool::new(false);
    let acked_count = std::sync::atomic::AtomicUsize::new(0);
    let follower_applied = std::sync::atomic::AtomicU64::new(0);
    let threads = 3usize;
    let (acked, lag_samples) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let dims = &dims;
                let stop = &stop;
                let acked_count = &acked_count;
                scope.spawn(move || {
                    let mut acked = Vec::new();
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let value = (t as u64 * 1_000_000 + i) as f64 + 0.5;
                        let body = row_json(&dims[(i as usize + t) % dims.len()], value);
                        match http(p_addr, "POST", "/insert", &body) {
                            Ok(r) if r.status == 202 => {
                                acked.push(value.to_bits());
                                acked_count.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(_) => {}
                            Err(_) => break,
                        }
                        i += 1;
                    }
                    acked
                })
            })
            .collect();
        let sampler = {
            let sampler_stop = &sampler_stop;
            let follower_applied = &follower_applied;
            scope.spawn(move || {
                let mut lags = Vec::new();
                while !sampler_stop.load(Ordering::Relaxed) {
                    if let Ok(r) = http(f_addr, "GET", "/stats", "") {
                        if let Some(lag) = json_u64(&r.text(), "lag_seq") {
                            lags.push(lag);
                        }
                        if let Some(applied) = json_u64(&r.text(), "applied_seq") {
                            follower_applied.store(applied, Ordering::Relaxed);
                        }
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                lags
            })
        };

        // Arm only once the load is real AND replication is visibly
        // flowing — a kill before the follower applied anything would
        // prove tail replay, not shipping.
        let armed = std::time::Instant::now();
        while (acked_count.load(Ordering::Relaxed) < 20
            || follower_applied.load(Ordering::Relaxed) == 0)
            && armed.elapsed() < Duration::from_secs(30)
        {
            std::thread::sleep(Duration::from_millis(5));
        }

        // Tentpole acceptance: send crafted-traceparent inserts until
        // the trace id lights up the full cross-process chain in the
        // two trace exports. Retries are needed because the follower
        // applies, and both exporters rewrite their files, on their own
        // schedule.
        let trace_started = std::time::Instant::now();
        let mut ti = 0u64;
        loop {
            // Values disjoint from the load threads' range, unique per
            // attempt, so the duplicate-detection oracle still holds.
            let value = 8_500_000.5 + ti as f64;
            let body = row_json(&dims[ti as usize % dims.len()], value);
            let _ = http_with_headers(
                p_addr,
                "POST",
                "/insert",
                &body,
                &[("traceparent", traceparent.as_str())],
            );
            ti += 1;
            std::thread::sleep(Duration::from_millis(20));
            let p_doc = std::fs::read_to_string(p_dir.join("trace.json")).unwrap_or_default();
            let f_doc = std::fs::read_to_string(f_dir.join("trace.json")).unwrap_or_default();
            let mut names = span_names_with_trace(&p_doc, &trace_hex);
            names.extend(span_names_with_trace(&f_doc, &trace_hex));
            let covered = TRACED_INSERT_CHAIN
                .iter()
                .all(|needle| names.iter().any(|n| n.contains(needle)));
            if covered {
                break;
            }
            assert!(
                trace_started.elapsed() < Duration::from_secs(30),
                "seed {seed:#x}: traced insert chain incomplete after {ti} attempts; \
                 spans under trace {trace_hex}: {names:?}"
            );
        }

        std::thread::sleep(Duration::from_millis(40 + rng.usize_below(240) as u64));
        primary.kill().expect("sigkill primary");
        primary.wait().expect("reap primary");
        stop.store(true, Ordering::Relaxed);
        let acked: Vec<u64> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        sampler_stop.store(true, Ordering::Relaxed);
        (acked, sampler.join().unwrap())
    });
    assert!(
        acked.len() >= 20,
        "seed {seed:#x}: only {} writes acknowledged before the kill — harness too weak",
        acked.len()
    );
    assert!(
        follower_applied.load(Ordering::Relaxed) > 0,
        "seed {seed:#x}: follower never applied a shipped frame before the kill"
    );

    // Promote the follower over the dead primary's log tail.
    let promote_started = std::time::Instant::now();
    let promoted = http(
        f_addr,
        "POST",
        "/promote",
        &format!("{{\"tail_wal_dir\":\"{}\"}}", p_dir.join("wal").display()),
    )
    .unwrap();
    let promote_wall_ns = promote_started.elapsed().as_nanos() as u64;
    assert_eq!(
        promoted.status,
        200,
        "promotion failed: {}",
        promoted.text()
    );
    let tail_records = json_u64(&promoted.text(), "tail_records").expect("tail_records");
    let promotion_ns = json_u64(&promoted.text(), "promotion_ns").expect("promotion_ns");
    let promoted_last_seq = json_u64(&promoted.text(), "last_seq").expect("last_seq");

    // The state machine only moves forward: a second promote is a 409.
    let again = http(f_addr, "POST", "/promote", "").unwrap();
    assert_eq!(
        again.status, 409,
        "double promote answered {}",
        again.status
    );

    // The promoted follower is a primary now: healthy, labelled, and
    // accepting both queries and writes.
    let health = http(f_addr, "GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200, "{}", health.text());
    let stats = http(f_addr, "GET", "/stats", "").unwrap();
    assert!(
        stats.text().contains("\"role\":\"promoted\""),
        "stats after promotion: {}",
        stats.text()
    );
    let query = http(
        f_addr,
        "POST",
        "/query",
        r#"{"sql": "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '2 quarters'"}"#,
    )
    .unwrap();
    assert_eq!(query.status, 200, "query after promotion: {}", query.text());
    let mut post_acked = Vec::new();
    for i in 0..10u64 {
        let value = (9_000_000 + i) as f64 + 0.5;
        let r = http(
            f_addr,
            "POST",
            "/insert",
            &row_json(&dims[i as usize % dims.len()], value),
        )
        .unwrap();
        assert_eq!(r.status, 202, "post-promotion insert: {}", r.text());
        post_acked.push(value.to_bits());
    }
    assert!(
        !f_dir.join("wal").join("REPLICA").exists(),
        "promotion left the REPLICA marker behind"
    );

    // Kill the follower too (its log is complete and fsynced) and
    // verify the whole contract from the surviving bytes.
    follower.kill().expect("sigkill follower");
    follower.wait().expect("reap follower");

    // The two Chrome-trace exports splice into one Perfetto document:
    // both process tracks present, and the crafted insert's trace id
    // still covering the whole primary→follower chain.
    let p_doc = std::fs::read_to_string(p_dir.join("trace.json")).expect("primary trace export");
    let f_doc = std::fs::read_to_string(f_dir.join("trace.json")).expect("follower trace export");
    let merged = fdc_obs::merge_trace_documents(&[p_doc.as_str(), f_doc.as_str()]);
    for label in ["\"primary\"", "\"follower\""] {
        assert!(
            merged.contains(label),
            "seed {seed:#x}: merged trace is missing the {label} process track"
        );
    }
    let merged_names = span_names_with_trace(&merged, &trace_hex);
    for needle in TRACED_INSERT_CHAIN {
        assert!(
            merged_names.iter().any(|n| n.contains(needle)),
            "seed {seed:#x}: merged trace lost the {needle} span of trace {trace_hex}: \
             {merged_names:?}"
        );
    }

    let p_replay = replay_wal(&p_dir.join("wal"));
    let f_replay = replay_wal(&f_dir.join("wal"));
    let f_last = f_replay.records.last().map_or(0, |(s, _)| *s);
    assert!(
        f_last > promoted_last_seq,
        "seed {seed:#x}: post-promotion writes never reached the promoted log \
         (last seq {f_last}, promoted at {promoted_last_seq})"
    );
    // 3: byte-identical prefix — the promoted log IS the primary's
    // recovered log, extended only by post-promotion writes.
    assert!(
        f_replay.records.len() >= p_replay.records.len(),
        "seed {seed:#x}: follower log shorter than the primary's"
    );
    assert_eq!(
        &f_replay.records[..p_replay.records.len()],
        &p_replay.records[..],
        "seed {seed:#x}: follower log diverges from the primary log"
    );

    // 1 + 2: every acked value (primary-side and post-promotion)
    // present exactly once.
    let mut sorted = f_replay.values.clone();
    sorted.sort_unstable();
    let len_before = sorted.len();
    sorted.dedup();
    assert_eq!(
        sorted.len(),
        len_before,
        "seed {seed:#x}: a write was duplicated in the promoted log"
    );
    for v in acked.iter().chain(&post_acked) {
        assert!(
            sorted.binary_search(v).is_ok(),
            "seed {seed:#x}: acknowledged write {} lost across failover \
             ({} acked on the primary, {} post-promotion, {} recovered)",
            f64::from_bits(*v),
            acked.len(),
            post_acked.len(),
            f_replay.values.len()
        );
    }

    // 4: two independent single-process replays of the promoted log,
    // from the same model configuration, produce byte-identical
    // catalogs and apply exactly the rows the log carries. (The advisor
    // itself is free to pick differently between runs, so the oracle
    // pins one configuration and varies only the replay.)
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
    let f_opts = engine_opts(&f_dir);
    let fresh = || F2db::load(ds.clone(), &outcome.configuration).unwrap();
    let (oracle1, recovery1) = open_engine(fresh(), &f_opts).expect("oracle replay 1");
    assert_eq!(
        recovery1.wal.expect("wal attached").replayed_rows as usize,
        f_replay.values.len(),
        "seed {seed:#x}: oracle replay applied a different row count"
    );
    let bytes1 = oracle1.catalog().encode();
    drop(oracle1);
    let (oracle2, _) = open_engine(fresh(), &f_opts).expect("oracle replay 2");
    let bytes2 = oracle2.catalog().encode();
    assert_eq!(
        bytes1, bytes2,
        "seed {seed:#x}: catalog replay is not byte-deterministic"
    );
    drop(oracle2);

    if let Some(artifact_dir) = std::env::var("FDC_STRESS_ARTIFACT_DIR")
        .ok()
        .filter(|d| !d.is_empty())
    {
        std::fs::create_dir_all(&artifact_dir).expect("artifact dir");
        let mut lags = lag_samples.clone();
        lags.sort_unstable();
        let pct = |p: f64| -> u64 {
            if lags.is_empty() {
                0
            } else {
                lags[((lags.len() - 1) as f64 * p) as usize]
            }
        };
        let summary = format!(
            "{{\"seed\":\"{seed:#x}\",\"acked_primary\":{},\"acked_post_promotion\":{},\
             \"tail_records\":{tail_records},\"promoted_last_seq\":{promoted_last_seq},\
             \"promotion_ns\":{promotion_ns},\"promotion_wall_ns\":{promote_wall_ns},\
             \"lag_samples\":{},\"lag_p50\":{},\"lag_p95\":{},\"lag_max\":{},\
             \"follower_records\":{},\"primary_records\":{}}}\n",
            acked.len(),
            post_acked.len(),
            lags.len(),
            pct(0.50),
            pct(0.95),
            lags.last().copied().unwrap_or(0),
            f_replay.records.len(),
            p_replay.records.len(),
        );
        let artifact_dir = PathBuf::from(artifact_dir);
        std::fs::write(
            artifact_dir.join(format!("replica-kill-{seed:x}.json")),
            summary,
        )
        .expect("artifact write");
        // The merged two-process trace, loadable in Perfetto as-is.
        std::fs::write(
            artifact_dir.join(format!("replica-kill-trace-{seed:x}.json")),
            &merged,
        )
        .expect("merged trace artifact write");
    }

    std::fs::remove_dir_all(&p_dir).ok();
    std::fs::remove_dir_all(&f_dir).ok();
}

#[test]
fn replica_kill_seed_1_promotes_without_losing_acked_writes() {
    run_replica_kill(0xF2DB_FA11_0001);
}

#[test]
fn replica_kill_seed_2_promotes_without_losing_acked_writes() {
    run_replica_kill(0xF2DB_FA11_0002);
}

#[test]
fn replica_kill_seed_3_promotes_without_losing_acked_writes() {
    run_replica_kill(0xF2DB_FA11_0003);
}

/// Follower directories are poisoned against accidental writes: a
/// `REPLICA` marker in the WAL dir makes [`open_engine`] come up
/// read-only, every write is a typed [`fdc_f2db::F2dbError::ReadOnly`],
/// and deleting the marker (what promotion does) restores a writable
/// engine on the same directory.
#[test]
fn replica_marker_opens_the_engine_read_only_and_rejects_writes() {
    let dir = tmp_dir("replica_marker");
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    std::fs::write(fdc_serve::replica_marker_path(&wal_dir), b"").unwrap();
    let (db, recovery) = open_engine(build_engine(), &engine_opts(&dir)).expect("open with marker");
    assert!(recovery.replica_marker, "marker went undetected");
    assert!(db.is_read_only());
    let err = db.insert_batch(&[]).unwrap_err();
    assert!(
        matches!(err, fdc_f2db::F2dbError::ReadOnly(_)),
        "expected a typed ReadOnly rejection, got {err}"
    );
    drop(db);
    std::fs::remove_file(fdc_serve::replica_marker_path(&wal_dir)).unwrap();
    let (db, recovery) =
        open_engine(build_engine(), &engine_opts(&dir)).expect("reopen without marker");
    assert!(!recovery.replica_marker);
    assert!(!db.is_read_only());
    drop(db);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_seed_1_loses_no_acknowledged_write() {
    run_crash(0xF2DB_C4A5_0001);
}

#[test]
fn crash_seed_2_loses_no_acknowledged_write() {
    run_crash(0xF2DB_C4A5_0002);
}

#[test]
fn crash_seed_3_loses_no_acknowledged_write() {
    run_crash(0xF2DB_C4A5_0003);
}
