//! Deterministic concurrency stress suite for the sharded F²DB engine.
//!
//! A scripted schedule of phases — reader bursts, batched insert rounds,
//! maintenance sweeps — runs twice over the same seeded cube: once with
//! many threads against the sharded engine, once single-threaded as the
//! serial reference. Phases are separated by thread joins, so the two
//! runs see the same sequence of *states*; within a phase the threads
//! interleave freely.
//!
//! Invariants asserted after every run (see DESIGN.md for the
//! equivalence argument):
//!
//! 1. Every forecast produced by the concurrent run is **byte-identical**
//!    (bit-for-bit, via [`QueryResult::fingerprint`]) to the serial run's
//!    answer for the same query-log entry.
//! 2. No model is re-estimated twice within one invalidation epoch: the
//!    concurrent run's re-estimation count equals the serial run's, and
//!    every model's final epoch matches.
//! 3. `MaintenanceStats` counters are consistent with the schedule
//!    (exact query/insert/advance/update/invalidation counts).
//!
//! Everything is std-only and seeded through `fdc-rng`; the three seeds
//! here are the ones CI runs in release mode.

use fdc_cube::{NodeId, TimeSeriesGraph, STAR};
use fdc_datagen::tourism_proxy;
use fdc_f2db::{F2db, MaintenancePolicy, QueryResult};
use fdc_rng::Rng;
use std::sync::Mutex;

/// One phase of the scripted schedule. Phases are homogeneous on
/// purpose: within a phase all threads run the same kind of operation,
/// which is what makes any interleaving equivalent to the serial order.
#[derive(Debug, Clone)]
enum Phase {
    /// `queries` pre-generated SQL strings fanned out over `threads`
    /// reader threads (query `i` goes to thread `i % threads`).
    Queries { sql: Vec<String>, threads: usize },
    /// One batched insert round: a new value for every base series,
    /// partitioned over `threads` writer threads; the last insert
    /// triggers the time advance.
    Inserts {
        values: Vec<(NodeId, f64)>,
        threads: usize,
    },
    /// `threads` concurrent maintenance sweeps (`F2db::maintain`).
    Maintain { threads: usize },
}

/// Renders the forecast query addressing `node`: one equality predicate
/// per concrete dimension, `GROUP BY time`, seeded horizon.
fn sql_for_node(graph: &TimeSeriesGraph, node: NodeId, horizon: usize) -> String {
    let schema = graph.schema();
    let coord = graph.coord(node);
    let mut predicates = Vec::new();
    for (d, &v) in coord.values().iter().enumerate() {
        if v != STAR {
            predicates.push(format!(
                "{} = '{}'",
                schema.dimensions()[d].name(),
                schema.dimensions()[d].values()[v as usize]
            ));
        }
    }
    let where_clause = if predicates.is_empty() {
        String::new()
    } else {
        format!(" WHERE {}", predicates.join(" AND "))
    };
    format!(
        "SELECT time, SUM(v) FROM facts{where_clause} GROUP BY time AS OF now() + '{horizon} steps'"
    )
}

/// Builds the scripted schedule for a seed: alternating query bursts,
/// insert rounds and maintenance sweeps, all pre-generated so the
/// concurrent run and the serial replay execute the identical log.
fn build_schedule(seed: u64, graph: &TimeSeriesGraph) -> Vec<Phase> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut insert_rng = rng.fork(1);
    let mut schedule = Vec::new();
    let rounds = 3 + rng.usize_below(2);
    for _ in 0..rounds {
        let count = 24 + rng.usize_below(17);
        let sql = (0..count)
            .map(|_| {
                let node = rng.usize_below(graph.node_count());
                let horizon = 1 + rng.usize_below(4);
                sql_for_node(graph, node, horizon)
            })
            .collect();
        schedule.push(Phase::Queries {
            sql,
            threads: 2 + rng.usize_below(7),
        });
        let values = graph
            .base_nodes()
            .iter()
            .map(|&b| (b, insert_rng.f64_range(10.0, 500.0)))
            .collect();
        schedule.push(Phase::Inserts { values, threads: 4 });
        if rng.bool() {
            schedule.push(Phase::Maintain {
                threads: 1 + rng.usize_below(4),
            });
        }
    }
    // Final query burst so lazily-invalidated models get referenced.
    let sql = (0..16)
        .map(|_| {
            let node = rng.usize_below(graph.node_count());
            sql_for_node(graph, node, 1 + rng.usize_below(4))
        })
        .collect();
    schedule.push(Phase::Queries { sql, threads: 8 });
    schedule
}

/// Two engines over the same seeded cube and the same advised
/// configuration. The advisor runs ONCE per seed: its cost-aware
/// objective measures wall-clock model-creation time, so two separate
/// runs may keep slightly different model sets — the suite compares
/// engine behavior, not advisor reproducibility.
fn stress_dbs(seed: u64) -> (F2db, F2db) {
    let ds = tourism_proxy(seed);
    let outcome = fdc_core::Advisor::new(
        &ds,
        fdc_core::AdvisorOptions {
            parallelism: Some(2),
            ..fdc_core::AdvisorOptions::default()
        },
    )
    .unwrap()
    .run();
    let mk = |ds: &fdc_cube::Dataset| {
        F2db::load(ds.clone(), &outcome.configuration)
            .unwrap()
            .with_policy(MaintenancePolicy::TimeBased { every: 1 })
    };
    (mk(&ds), mk(&ds))
}

/// Executes the schedule with real thread fan-out. Returns the
/// fingerprint of every query result, indexed by query-log position.
fn run_concurrent(db: &F2db, schedule: &[Phase]) -> Vec<u64> {
    let mut fingerprints = Vec::new();
    for phase in schedule {
        match phase {
            Phase::Queries { sql, threads } => {
                let slots = Mutex::new(vec![0u64; sql.len()]);
                std::thread::scope(|scope| {
                    for t in 0..*threads {
                        let slots = &slots;
                        scope.spawn(move || {
                            for (i, q) in sql.iter().enumerate() {
                                if i % threads == t {
                                    let result: QueryResult = db.query(q).expect("query runs");
                                    slots.lock().unwrap()[i] = result.fingerprint();
                                }
                            }
                        });
                    }
                });
                fingerprints.extend(slots.into_inner().unwrap());
            }
            Phase::Inserts { values, threads } => {
                std::thread::scope(|scope| {
                    for t in 0..*threads {
                        scope.spawn(move || {
                            for (i, &(node, v)) in values.iter().enumerate() {
                                if i % threads == t {
                                    db.insert_value(node, v).expect("insert runs");
                                }
                            }
                        });
                    }
                });
            }
            Phase::Maintain { threads } => {
                std::thread::scope(|scope| {
                    for _ in 0..*threads {
                        scope.spawn(|| {
                            db.maintain().expect("maintenance runs");
                        });
                    }
                });
            }
        }
    }
    fingerprints
}

/// Executes the same schedule on one thread — the serial reference.
fn run_serial(db: &F2db, schedule: &[Phase]) -> Vec<u64> {
    let mut fingerprints = Vec::new();
    for phase in schedule {
        match phase {
            Phase::Queries { sql, .. } => {
                for q in sql {
                    fingerprints.push(db.query(q).expect("query runs").fingerprint());
                }
            }
            Phase::Inserts { values, .. } => {
                for &(node, v) in values {
                    db.insert_value(node, v).expect("insert runs");
                }
            }
            Phase::Maintain { threads } => {
                // The concurrent run issues `threads` maintain() calls;
                // replay the same number (later calls find nothing to do).
                for _ in 0..*threads {
                    db.maintain().expect("maintenance runs");
                }
            }
        }
    }
    fingerprints
}

fn run_stress(seed: u64) {
    let (concurrent, serial) = stress_dbs(seed);
    let schedule = build_schedule(seed, &concurrent.dataset().graph().clone());

    let fp_concurrent = run_concurrent(&concurrent, &schedule);
    let fp_serial = run_serial(&serial, &schedule);

    // 1. Forecasts byte-identical per query-log entry.
    assert_eq!(fp_concurrent.len(), fp_serial.len());
    for (i, (c, s)) in fp_concurrent.iter().zip(&fp_serial).enumerate() {
        assert_eq!(c, s, "seed {seed:#x}: query {i} diverged from serial run");
    }

    // 2. One re-estimation per invalidation epoch: counts and per-model
    //    epochs must match the serial run exactly.
    let sc = concurrent.stats();
    let ss = serial.stats();
    assert_eq!(
        sc.reestimations, ss.reestimations,
        "seed {seed:#x}: single-flight dedup broke (a model was re-fit more than once per epoch)"
    );
    assert!(sc.reestimations <= sc.invalidations);
    let node_count = concurrent.dataset().node_count();
    for v in 0..node_count {
        assert_eq!(
            concurrent.catalog().epoch(v),
            serial.catalog().epoch(v),
            "seed {seed:#x}: node {v} epochs diverged"
        );
        assert_eq!(
            concurrent.catalog().is_invalid(v),
            serial.catalog().is_invalid(v),
            "seed {seed:#x}: node {v} validity diverged"
        );
    }

    // 3. Counters consistent with the schedule.
    let mut expect_queries = 0;
    let mut expect_inserts = 0;
    let mut expect_advances = 0;
    for phase in &schedule {
        match phase {
            Phase::Queries { sql, .. } => expect_queries += sql.len(),
            Phase::Inserts { values, .. } => {
                expect_inserts += values.len();
                expect_advances += 1;
            }
            Phase::Maintain { .. } => {}
        }
    }
    for (label, stats) in [("concurrent", &sc), ("serial", &ss)] {
        assert_eq!(stats.queries, expect_queries, "{label} seed {seed:#x}");
        assert_eq!(stats.inserts, expect_inserts, "{label} seed {seed:#x}");
        assert_eq!(
            stats.time_advances, expect_advances,
            "{label} seed {seed:#x}"
        );
        // TimeBased{every: 1} invalidates every model on every advance
        // (unless it is still invalid from the previous epoch).
        assert!(stats.invalidations <= expect_advances * concurrent.model_count());
        assert_eq!(
            stats.model_updates,
            expect_advances * concurrent.model_count(),
            "{label} seed {seed:#x}"
        );
    }
    assert_eq!(
        sc.counters(),
        ss.counters(),
        "seed {seed:#x}: stats diverged"
    );

    // The engines also end in the same persisted state.
    assert_eq!(
        concurrent.catalog().encode(),
        serial.catalog().encode(),
        "seed {seed:#x}: persisted catalogs diverged"
    );
}

#[test]
fn stress_seed_1_concurrent_matches_serial() {
    run_stress(0xF2DB_0001);
}

#[test]
fn stress_seed_2_concurrent_matches_serial() {
    run_stress(0xF2DB_0002);
}

#[test]
fn stress_seed_3_concurrent_matches_serial() {
    run_stress(0xF2DB_0003);
}

/// The export plane must be pure observation: running one stress seed
/// with a scraper thread rendering `/metrics` every 5 ms throughout
/// (the registry and journal read concurrently with the engine writing
/// them) plus the journal sinking JSONL must leave the byte-identical
/// serial-equivalence intact. When `FDC_STRESS_ARTIFACT_DIR` is set (as
/// in CI), the final scrape and the journal land there as build
/// artifacts.
#[test]
fn stress_with_exporter_and_journal_is_byte_identical() {
    use std::sync::atomic::{AtomicBool, Ordering};

    // What a server answers `GET /metrics` with, rendered in process.
    fn scrape() -> String {
        fdc_obs::encode_prometheus(&fdc_obs::snapshot())
    }

    let artifact_dir = std::env::var("FDC_STRESS_ARTIFACT_DIR")
        .ok()
        .filter(|d| !d.is_empty())
        .map(std::path::PathBuf::from);
    if let Some(dir) = &artifact_dir {
        std::fs::create_dir_all(dir).expect("artifact dir");
        fdc_obs::journal()
            .set_jsonl_sink(&dir.join("stress-journal.jsonl"))
            .expect("journal sink");
    }

    let stop = AtomicBool::new(false);
    let body = std::thread::scope(|scope| {
        // Scrape continuously while the stress schedule runs.
        let scraper = scope.spawn(|| {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let _ = scrape();
                scrapes += 1;
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            scrapes
        });
        run_stress(0xF2DB_0001);
        stop.store(true, Ordering::Relaxed);
        assert!(scraper.join().unwrap() >= 1, "scraper never ran");
        scrape()
    });

    // The final scrape reflects the run just executed.
    assert!(body.contains("# TYPE f2db_queries counter"), "{body}");
    assert!(body.contains("f2db_models_reestimated"), "{body}");
    assert!(body.contains("obs_journal_events"), "{body}");
    assert!(fdc_obs::journal().total() > 0);

    if let Some(dir) = &artifact_dir {
        std::fs::write(dir.join("stress-metrics.prom"), &body).expect("scrape artifact");
        fdc_obs::journal().close_sink();
        let journal = std::fs::read_to_string(dir.join("stress-journal.jsonl")).unwrap();
        assert!(journal.lines().count() > 0, "journal artifact is empty");
    }
}

/// A single-shard engine must behave identically too (the shard count is
/// an operational knob, not a semantic one).
#[test]
fn stress_single_shard_layout_matches_serial() {
    let seed = 0xF2DB_0001;
    let (concurrent, serial) = stress_dbs(seed);
    let concurrent = concurrent.with_shards(1);
    let schedule = build_schedule(seed, &concurrent.dataset().graph().clone());
    let fp_concurrent = run_concurrent(&concurrent, &schedule);
    let fp_serial = run_serial(&serial, &schedule);
    assert_eq!(fp_concurrent, fp_serial);
    assert_eq!(concurrent.stats().counters(), serial.stats().counters());
}
