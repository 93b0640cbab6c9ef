//! End-to-end durability: checkpoint container + WAL replay.
//!
//! These tests exercise the full `save_catalog` (checkpoint) /
//! `recover` cycle at the engine level: acked inserts survive a
//! simulated crash (dropping the engine without a save), replay is
//! byte-deterministic, checkpoints truncate segments, torn tails are
//! dropped cleanly and pre-watermark corruption is a hard error.

use fdc_core::{Advisor, AdvisorOptions};
use fdc_cube::NodeId;
use fdc_datagen::tourism_proxy;
use fdc_f2db::{F2db, F2dbError, WalRecord};
use fdc_wal::WalOptions;
use std::fs;
use std::path::PathBuf;

fn small_db() -> F2db {
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

struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "fdc_wal_recovery_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        Scratch { dir }
    }

    fn catalog(&self) -> PathBuf {
        self.dir.join("catalog.f2db")
    }

    fn wal_dir(&self) -> PathBuf {
        self.dir.join("wal")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

fn wal_opts() -> WalOptions {
    WalOptions::default()
}

#[test]
fn acked_inserts_survive_crash_without_save() {
    let s = Scratch::new("crash");
    let db = small_db();
    db.save_catalog(&s.catalog()).unwrap();
    let (db, rec) =
        F2db::recover(db.dataset().clone(), &s.catalog(), &s.wal_dir(), wal_opts()).unwrap();
    assert_eq!(rec.replayed_batches, 0);

    let base: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
    let len_before = db.dataset().series_len();
    // Two full rounds plus a partial one, all acked.
    let mut rows: Vec<(NodeId, f64)> = Vec::new();
    for round in 0..2 {
        rows.extend(base.iter().map(|&b| (b, 10.0 + round as f64)));
    }
    rows.extend(base[..base.len() - 1].iter().map(|&b| (b, 99.0)));
    db.insert_batch(&rows).unwrap();
    assert_eq!(db.dataset().series_len(), len_before + 2);
    let pending_before = db.pending_rows();
    assert!(!pending_before.is_empty());
    let catalog_bytes_before = db.catalog().encode();

    // Crash: drop without saving. Everything past the checkpoint lives
    // only in the WAL.
    drop(db);

    let (recovered, rec) = F2db::recover(
        small_db().dataset().clone(),
        &s.catalog(),
        &s.wal_dir(),
        wal_opts(),
    )
    .unwrap();
    assert_eq!(rec.replayed_batches, 1);
    assert_eq!(rec.replayed_rows, rows.len() as u64);
    assert_eq!(rec.advances, 2);
    assert_eq!(recovered.dataset().series_len(), len_before + 2);
    assert_eq!(recovered.pending_rows(), pending_before);
    assert_eq!(recovered.catalog().encode(), catalog_bytes_before);
    // The recovered engine keeps serving.
    recovered
        .query("SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '1 quarter'")
        .unwrap();
}

#[test]
fn recovery_is_byte_deterministic() {
    let s = Scratch::new("determinism");
    {
        let db = small_db();
        db.save_catalog(&s.catalog()).unwrap();
        let (db, _) =
            F2db::recover(db.dataset().clone(), &s.catalog(), &s.wal_dir(), wal_opts()).unwrap();
        let base: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
        for round in 0..3 {
            let rows: Vec<(NodeId, f64)> = base.iter().map(|&b| (b, 5.0 * round as f64)).collect();
            db.insert_batch(&rows).unwrap();
        }
        db.insert_batch(&[(base[0], 42.0)]).unwrap();
        // Crash without checkpoint.
    }
    let recover_once = || {
        let (db, _) = F2db::recover(
            small_db().dataset().clone(),
            &s.catalog(),
            &s.wal_dir(),
            wal_opts(),
        )
        .unwrap();
        let series: Vec<Vec<f64>> = (0..db.dataset().node_count())
            .map(|n| db.dataset().series(n).values().to_vec())
            .collect();
        (db.catalog().encode(), db.pending_rows(), series)
    };
    let a = recover_once();
    let b = recover_once();
    assert_eq!(a.0, b.0, "catalog bytes differ between recoveries");
    assert_eq!(a.1, b.1, "pending rows differ between recoveries");
    assert_eq!(a.2, b.2, "series values differ between recoveries");
}

#[test]
fn checkpoint_truncates_wal_and_filters_replay() {
    let s = Scratch::new("truncate");
    let db = small_db();
    db.save_catalog(&s.catalog()).unwrap();
    // Small segments so truncation has files to reclaim.
    let opts = WalOptions {
        segment_bytes: 256,
        ..WalOptions::default()
    };
    let (db, _) = F2db::recover(
        db.dataset().clone(),
        &s.catalog(),
        &s.wal_dir(),
        opts.clone(),
    )
    .unwrap();
    let base: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
    for round in 0..6 {
        let rows: Vec<(NodeId, f64)> = base.iter().map(|&b| (b, round as f64)).collect();
        db.insert_batch(&rows).unwrap();
    }
    let before = db.wal_stats().unwrap();
    assert!(before.segments > 1, "{before:?}");
    // Checkpoint: snapshot + truncate.
    db.save_catalog(&s.catalog()).unwrap();
    let after = db.wal_stats().unwrap();
    assert_eq!(after.checkpoint_seq, after.last_seq);
    assert!(after.segments < before.segments, "{before:?} -> {after:?}");
    let len_at_checkpoint = db.dataset().series_len();

    // Post-checkpoint writes replay; pre-checkpoint ones are filtered.
    db.insert_batch(&base.iter().map(|&b| (b, 77.0)).collect::<Vec<_>>())
        .unwrap();
    drop(db);
    let (recovered, rec) = F2db::recover(
        small_db().dataset().clone(),
        &s.catalog(),
        &s.wal_dir(),
        opts,
    )
    .unwrap();
    assert_eq!(rec.replayed_batches, 1);
    assert_eq!(rec.advances, 1);
    assert_eq!(recovered.dataset().series_len(), len_at_checkpoint + 1);
}

#[test]
fn torn_tail_drops_only_the_unsynced_suffix() {
    let s = Scratch::new("torn");
    let db = small_db();
    db.save_catalog(&s.catalog()).unwrap();
    let (db, _) =
        F2db::recover(db.dataset().clone(), &s.catalog(), &s.wal_dir(), wal_opts()).unwrap();
    let base: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
    db.insert_batch(&base.iter().map(|&b| (b, 1.0)).collect::<Vec<_>>())
        .unwrap();
    let len_after_first = {
        let l = db.dataset().series_len();
        db.insert_batch(&[(base[0], 2.0)]).unwrap();
        l
    };
    drop(db);

    // Tear the tail: chop a few bytes off the last (only) segment, as a
    // crash mid-write would.
    let seg = fs::read_dir(s.wal_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .max()
        .unwrap();
    let len = fs::metadata(&seg).unwrap().len();
    let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);

    let (recovered, rec) = F2db::recover(
        small_db().dataset().clone(),
        &s.catalog(),
        &s.wal_dir(),
        wal_opts(),
    )
    .unwrap();
    // The torn second record is gone; the first (complete) one replays.
    assert!(rec.wal.truncated_bytes > 0);
    assert_eq!(rec.replayed_batches, 1);
    assert_eq!(recovered.dataset().series_len(), len_after_first);
    assert!(recovered.pending_rows().is_empty());
}

#[test]
fn corruption_before_watermark_is_hard_error() {
    let s = Scratch::new("corrupt");
    let db = small_db();
    db.save_catalog(&s.catalog()).unwrap();
    let (db, _) =
        F2db::recover(db.dataset().clone(), &s.catalog(), &s.wal_dir(), wal_opts()).unwrap();
    let base: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
    db.insert_batch(&base.iter().map(|&b| (b, 3.0)).collect::<Vec<_>>())
        .unwrap();
    // Checkpoint marks the record durable, but leave the segment file
    // in place by writing MORE records after (segments holding any
    // post-watermark record are not truncated).
    db.save_catalog(&s.catalog()).unwrap();
    db.insert_batch(&[(base[0], 4.0)]).unwrap();
    drop(db);

    // Flip a byte inside the checkpointed (pre-watermark) record.
    let seg = fs::read_dir(s.wal_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .min()
        .unwrap();
    let mut bytes = fs::read(&seg).unwrap();
    // Past the 8-byte segment header and 16-byte frame header: payload
    // of the first (checkpointed) record.
    bytes[8 + 16 + 2] ^= 0xFF;
    fs::write(&seg, &bytes).unwrap();

    let err = match F2db::recover(
        small_db().dataset().clone(),
        &s.catalog(),
        &s.wal_dir(),
        wal_opts(),
    ) {
        Ok(_) => panic!("recovery of a corrupted pre-watermark record must fail"),
        Err(e) => e,
    };
    match err {
        F2dbError::Storage(msg) => {
            assert!(msg.contains("corrupt"), "{msg}");
            assert!(
                msg.contains("v1"),
                "error must carry the format version: {msg}"
            );
        }
        other => panic!("expected Storage, got {other:?}"),
    }
}

#[test]
fn checkpoints_racing_inserts_never_lose_acked_writes() {
    // Regression: `insert_value` drops the pending mutex before its
    // advance runs, so a checkpoint in that window used to record a
    // WAL position covering rows that were in neither the pending map
    // nor the dataset snapshot — truncation then destroyed the only
    // durable copy of acknowledged writes. `save_catalog` now takes
    // the advance lock too, waiting out any in-flight advance.
    let s = Scratch::new("cp_race");
    let db = small_db();
    db.save_catalog(&s.catalog()).unwrap();
    let (db, _) =
        F2db::recover(db.dataset().clone(), &s.catalog(), &s.wal_dir(), wal_opts()).unwrap();
    let db = std::sync::Arc::new(db);
    let base: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
    let len_before = db.dataset().series_len();
    let rounds = 25usize;
    let writer = {
        let db = std::sync::Arc::clone(&db);
        let base = base.clone();
        std::thread::spawn(move || {
            for round in 0..rounds {
                for &b in &base {
                    db.insert_value(b, round as f64).unwrap();
                }
            }
        })
    };
    // Checkpoint continuously while inserts drain and advance; every
    // iteration is a fresh shot at the drain→advance window.
    let mut saves = 0;
    while !writer.is_finished() && saves < 100 {
        db.save_catalog(&s.catalog()).unwrap();
        saves += 1;
    }
    writer.join().unwrap();
    assert_eq!(db.dataset().series_len(), len_before + rounds);
    let series_before: Vec<Vec<f64>> = (0..db.dataset().node_count())
        .map(|n| db.dataset().series(n).values().to_vec())
        .collect();
    let catalog_bytes_before = db.catalog().encode();
    // Crash without a final save: everything past the last racing
    // checkpoint lives only in the WAL.
    drop(db);

    let (recovered, _) = F2db::recover(
        small_db().dataset().clone(),
        &s.catalog(),
        &s.wal_dir(),
        wal_opts(),
    )
    .unwrap();
    assert_eq!(recovered.dataset().series_len(), len_before + rounds);
    for (n, before) in series_before.iter().enumerate() {
        assert_eq!(
            recovered.dataset().series(n).values(),
            &before[..],
            "series {n} lost acked writes across checkpoint + recovery"
        );
    }
    assert_eq!(recovered.catalog().encode(), catalog_bytes_before);
    assert!(recovered.pending_rows().is_empty());
}

#[test]
fn concurrent_single_row_inserts_share_group_commits() {
    // Each insert is its own log record; writers that arrive while a
    // sync runs must share the next one, so a synced log pays far
    // fewer fsyncs than appends.
    let s = Scratch::new("group_commit");
    let (db, _) = small_db().attach_wal(&s.wal_dir(), wal_opts()).unwrap();
    let base: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
    let len_before = db.dataset().series_len();
    // 8 threads × 40 single-row inserts: 10 rounds of the 32 base
    // series, each thread writing its own 4 cells of every round.
    let (threads, rounds) = (8, 10);
    let round_done = std::sync::Barrier::new(threads);
    std::thread::scope(|scope| {
        for cells in base.chunks(base.len() / threads) {
            let (db, round_done) = (&db, &round_done);
            scope.spawn(move || {
                for round in 0..rounds {
                    for &cell in cells {
                        db.insert_batch(&[(cell, round as f64)]).unwrap();
                    }
                    // A cell's next value must not overwrite this one.
                    round_done.wait();
                }
            });
        }
    });
    // Every row landed, and every one of them is durable.
    assert_eq!(db.dataset().series_len(), len_before + rounds);
    assert_eq!(db.pending_inserts(), 0);
    let wal = db.wal_stats().unwrap();
    assert_eq!(wal.appends, (base.len() * rounds) as u64);
    assert_eq!(wal.durable_seq, wal.last_seq);
    assert!(
        wal.fsyncs * 2 <= wal.appends,
        "{} fsyncs for {} appends",
        wal.fsyncs,
        wal.appends
    );
}

#[test]
fn legacy_plain_catalog_still_opens_and_upgrades() {
    let s = Scratch::new("legacy");
    let db = small_db();
    // A pre-WAL save: plain F2DB catalog format.
    db.save_catalog(&s.catalog()).unwrap();
    let bytes = fs::read(s.catalog()).unwrap();
    assert_eq!(&bytes[..4], b"F2DB");

    // Opens with no WAL attached, exactly as before.
    let reopened = F2db::open_catalog(db.dataset().clone(), &s.catalog()).unwrap();
    assert_eq!(reopened.model_count(), db.model_count());
    assert!(reopened.wal_stats().is_none());

    // Attaching a WAL upgrades: the next save writes a container.
    let (upgraded, rec) = reopened.attach_wal(&s.wal_dir(), wal_opts()).unwrap();
    assert_eq!(rec.replayed_batches, 0);
    upgraded.save_catalog(&s.catalog()).unwrap();
    let bytes = fs::read(s.catalog()).unwrap();
    assert_eq!(&bytes[..4], b"F2CK");
    drop(upgraded);
    let (recovered, _) =
        F2db::recover(db.dataset().clone(), &s.catalog(), &s.wal_dir(), wal_opts()).unwrap();
    assert_eq!(recovered.model_count(), db.model_count());
}

#[test]
fn stale_tmp_orphans_are_swept_on_open() {
    let s = Scratch::new("sweep");
    let db = small_db();
    db.save_catalog(&s.catalog()).unwrap();
    // An orphan from a dead process.
    let orphan = s.dir.join("catalog.f2db.tmp.1");
    fs::write(&orphan, b"interrupted save garbage").unwrap();
    let _ = F2db::open_catalog(db.dataset().clone(), &s.catalog()).unwrap();
    assert!(!orphan.exists(), "stale tmp must be swept on open");
}

/// Logs three full rounds, checkpointing after the first and after the
/// second: the image at seq 1 is copied aside before the second
/// checkpoint moves the log's marker to 2, and record 3 stays in the
/// log. Returns the stale image's path and the history length before
/// the rounds.
fn log_checkpointed_past_an_image(s: &Scratch) -> (PathBuf, usize) {
    let db = small_db();
    db.save_catalog(&s.catalog()).unwrap();
    let (db, _) =
        F2db::recover(db.dataset().clone(), &s.catalog(), &s.wal_dir(), wal_opts()).unwrap();
    let base: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
    let len_before = db.dataset().series_len();
    let round = |v: f64| base.iter().map(|&b| (b, v)).collect::<Vec<_>>();
    db.insert_batch(&round(1.0)).unwrap();
    db.save_catalog(&s.catalog()).unwrap();
    let stale = s.dir.join("stale.f2db");
    fs::copy(s.catalog(), &stale).unwrap();
    db.insert_batch(&round(2.0)).unwrap();
    db.save_catalog(&s.catalog()).unwrap();
    assert_eq!(db.wal_stats().unwrap().checkpoint_seq, 2);
    db.insert_batch(&round(3.0)).unwrap();
    drop(db);
    // The current image recovers every round.
    let (current, rec) = F2db::recover(
        small_db().dataset().clone(),
        &s.catalog(),
        &s.wal_dir(),
        wal_opts(),
    )
    .unwrap();
    assert_eq!((rec.resumed_from_seq, rec.replayed_batches), (2, 1));
    assert_eq!(current.dataset().series_len(), len_before + 3);
    (stale, len_before)
}

fn assert_names_the_gap(result: Result<(F2db, fdc_f2db::RecoveryReport), F2dbError>, image: u64) {
    match result {
        Ok((db, rec)) => panic!(
            "recovered a history of {} steps from seq {} over a log checkpointed at 2",
            db.dataset().series_len(),
            rec.resumed_from_seq
        ),
        Err(F2dbError::Storage(msg)) => {
            assert!(msg.contains(&format!("seq {image}")), "{msg}");
            assert!(msg.contains("seq 2"), "{msg}");
        }
        Err(other) => panic!("expected Storage, got {other:?}"),
    }
}

#[test]
fn an_image_older_than_the_log_marker_is_refused() {
    let s = Scratch::new("stale_image");
    let (stale, _) = log_checkpointed_past_an_image(&s);
    let result = F2db::recover(
        small_db().dataset().clone(),
        &stale,
        &s.wal_dir(),
        wal_opts(),
    );
    assert_names_the_gap(result, 1);
}

#[test]
fn a_missing_image_under_a_checkpointed_log_is_refused() {
    let s = Scratch::new("no_image");
    log_checkpointed_past_an_image(&s);
    // No image: the engine built from the data set alone, as a server
    // whose catalog file is gone opens it.
    let result = small_db().attach_wal(&s.wal_dir(), wal_opts());
    assert_names_the_gap(result, 0);
}

#[test]
fn replay_skips_applies_or_refuses_by_the_engine_position() {
    let s = Scratch::new("replay");
    let db = small_db();
    let base = db.dataset().graph().base_nodes()[0];
    let record = WalRecord::InsertBatch {
        rows: vec![(base, 1.0)],
        trace: None,
    };
    // The engine holds no record yet: seq 2 is a gap, seq 1 the next.
    assert!(matches!(db.replay(2, &record), Err(F2dbError::Storage(_))));
    assert_eq!(db.replay(1, &record).unwrap(), Some(0));
    assert_eq!(db.replay(1, &record).unwrap(), None, "seq 1 is held");
    assert_eq!(db.pending_rows(), vec![(base, 1.0)]);

    // With its log attached, a replayed record would be logged again.
    let (db, _) = small_db().attach_wal(&s.wal_dir(), wal_opts()).unwrap();
    assert!(matches!(db.replay(1, &record), Err(F2dbError::Storage(_))));
    assert_eq!(db.pending_inserts(), 0);
    assert_eq!(db.wal_stats().unwrap().last_seq, 0);
}
