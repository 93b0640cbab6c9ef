//! Graceful-drain stress: concurrent inserts racing shutdown must lose
//! no acknowledged write.
//!
//! The contract under test (ISSUE 4, satellite 3): a `202 Accepted` is
//! only sent after the rows are committed into the engine, the shutdown
//! drains the queue before persisting, and the `F2CK` container written at shutdown carries the grown base
//! series and the rows of the incomplete next time stamp across the
//! restart. So a restart handed only the *original* data set must
//! account for every acknowledged row.
//!
//! Client workloads are seeded (`fdc-rng`, `concurrency_stress.rs`
//! style) so the values — and therefore any mismatch — are reproducible;
//! only the interleaving with shutdown varies run to run, and the
//! assertions hold for every interleaving.

mod common;

use common::{base_dims, full_round_body, http, row_json, small_db};
use fdc_cube::Configuration;
use fdc_datagen::tourism_proxy;
use fdc_f2db::F2db;
use fdc_rng::Rng;
use fdc_serve::{open_engine, ServeOptions, Server};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a restarted process has before it reads anything back: the
/// data set as it was before any insert (the fixture's, regenerated)
/// and no configuration.
fn fresh_engine() -> F2db {
    let ds = tourism_proxy(1);
    let empty = Configuration::new(ds.node_count());
    F2db::load(ds, &empty).unwrap()
}

#[test]
fn concurrent_inserts_racing_shutdown_lose_no_acked_write() {
    let db = small_db();
    let dims = base_dims(&db);
    let initial_len = db.dataset().series_len();
    let initial_advances = db.catalog().advances();

    let dir = std::env::temp_dir().join(format!("fdc_drain_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let catalog_path = dir.join("catalog.bin");
    let server = Server::start(
        Arc::clone(&db),
        0,
        ServeOptions {
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(10),
            catalog_path: Some(catalog_path.clone()),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // 6 seeded clients hammer full-round batch inserts; each 202 is one
    // committed time stamp (a full round advances exactly once). The
    // main thread yanks the server out from under them mid-flight.
    let acked = Arc::new(AtomicU64::new(0));
    let timed_out = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..6)
        .map(|client| {
            let dims = dims.clone();
            let acked = Arc::clone(&acked);
            let timed_out = Arc::clone(&timed_out);
            std::thread::spawn(move || {
                let mut rng = Rng::seed_from_u64(0xD4A1_0000 + client);
                for _ in 0..40 {
                    let body = full_round_body(&dims, rng.f64_range(10.0, 500.0));
                    match http(addr, "POST", "/insert", &body) {
                        Ok(r) if r.status == 202 => {
                            acked.fetch_add(1, Ordering::SeqCst);
                        }
                        Ok(r) if r.status == 503 => {
                            // Queued past the deadline: answered before
                            // any work, so nothing of it commits.
                            timed_out.fetch_add(1, Ordering::SeqCst);
                        }
                        // 429 or a connection refused/reset by the
                        // stopping server: the write was rejected before
                        // acknowledgement — clients stop here.
                        _ => break,
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(120));
    let report = server.shutdown().unwrap();
    for h in handles {
        h.join().unwrap();
    }
    let acked = acked.load(Ordering::SeqCst);
    let timed_out = timed_out.load(Ordering::SeqCst);
    assert!(acked > 0, "stress produced no acknowledged writes");

    // Every full-round 202 advanced the graph exactly once; a commit
    // whose response was lost on the wire may only ever add rounds — an
    // acknowledged one must never go missing.
    let committed = (db.dataset().series_len() - initial_len) as u64;
    assert!(
        committed >= acked,
        "{acked} acked rounds but only {committed} committed ({timed_out} timed out)"
    );
    assert_eq!(
        db.pending_inserts() as u64,
        report.saved_pending_rows as u64
    );

    // Restart through `open_engine` with the original, pre-insert data
    // set: the container alone must bring back every committed round
    // (base series and the persisted advance counter) and the pending
    // rows.
    let opts = ServeOptions {
        catalog_path: Some(catalog_path.clone()),
        ..ServeOptions::default()
    };
    let (restored, recovery) = open_engine(fresh_engine(), &opts).unwrap();
    assert!(recovery.opened_catalog);
    assert_eq!(restored.model_count(), db.model_count());
    assert_eq!(restored.dataset().series_len(), db.dataset().series_len());
    assert_eq!(restored.catalog().advances(), initial_advances + committed);
    assert!(restored.catalog().advances() >= initial_advances + acked);
    assert_eq!(restored.pending_inserts(), db.pending_inserts());
    assert_eq!(restored.pending_inserts(), report.saved_pending_rows);

    // The restored engine answers queries.
    restored
        .query("SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '2 quarters'")
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Deterministic variant: acknowledged single-row inserts that do *not*
/// complete a time stamp survive the restart in the container.
#[test]
fn acked_partial_rows_survive_restart_in_the_container() {
    let db = small_db();
    let dims = base_dims(&db);
    assert!(dims.len() >= 3, "fixture must have several base series");
    let keep = dims.len() - 1; // one short of a full round: never advances

    let dir = std::env::temp_dir().join(format!("fdc_drain_partial_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let catalog_path = dir.join("catalog.bin");
    let server = Server::start(
        Arc::clone(&db),
        0,
        ServeOptions {
            catalog_path: Some(catalog_path.clone()),
            ..ServeOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    let mut rng = Rng::seed_from_u64(0x51DE_CA12);
    let mut expected: Vec<f64> = Vec::new();
    for d in &dims[..keep] {
        let v = rng.f64_range(1.0, 9.0);
        let r = http(addr, "POST", "/insert", &row_json(d, v)).unwrap();
        assert_eq!(r.status, 202, "{}", r.text());
        expected.push(v);
    }
    let len_before = db.dataset().series_len();
    let report = server.shutdown().unwrap();
    assert_eq!(report.saved_pending_rows, keep);
    assert!(report.saved_catalog);
    // No advance happened (the round is incomplete) …
    assert_eq!(db.dataset().series_len(), len_before);

    // … yet after a restart every acknowledged row is back in pending,
    // and completing the round commits them.
    let restored = F2db::open_catalog(tourism_proxy(1), &catalog_path).unwrap();
    assert_eq!(restored.pending_inserts(), keep);
    assert_eq!(restored.pending_rows(), db.pending_rows());
    let last = restored.base_node_for(&dims[keep]).unwrap();
    assert!(restored.insert_value(last, 5.0).unwrap());
    assert_eq!(restored.dataset().series_len(), len_before + 1);
    std::fs::remove_dir_all(&dir).ok();
}
