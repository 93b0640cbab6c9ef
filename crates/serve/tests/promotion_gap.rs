//! Promotion refuses a gapped tail: when the dead primary's log was
//! checkpointed past the follower's applied watermark, the records in
//! between are gone, and promoting over them would lose acknowledged
//! writes. The refusal must leave both the engine and the follower's
//! local log exactly as they were.

mod common;

use common::small_db_raw;
use fdc_f2db::{F2dbError, WalRecord};
use fdc_serve::{open_follower, ServeOptions};
use fdc_wal::{Wal, WalOptions};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fdc_promote_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts(segment_bytes: u64) -> WalOptions {
    WalOptions {
        segment_bytes,
        fsync: false,
        ..WalOptions::default()
    }
}

/// Appends one full round per value to the log in `dir`, so record `i`
/// completes one time stamp.
fn log_rounds(dir: &Path, opts: WalOptions, base: &[usize], values: &[f64]) -> Wal {
    let (wal, _) = Wal::open(dir, opts).unwrap();
    for &value in values {
        let rows = base.iter().map(|&b| (b, value)).collect();
        wal.append(&WalRecord::InsertBatch { rows, trace: None }.encode())
            .unwrap();
    }
    wal
}

#[test]
fn promotion_over_a_gapped_tail_is_refused_and_changes_nothing() {
    let db = small_db_raw();
    let base = db.dataset().graph().base_nodes().to_vec();
    let dir = tmp_dir("gap");

    // The follower has applied seq 1 from its own log.
    let follower_wal = dir.join("follower");
    drop(log_rounds(&follower_wal, opts(1 << 20), &base, &[1.0]));
    // The dead primary logged 1..=5 and checkpointed at 3: small
    // segments, so the checkpoint deletes the files holding 1..=3.
    let primary_wal = dir.join("primary");
    let primary = log_rounds(&primary_wal, opts(256), &base, &[1.0, 2.0, 3.0, 4.0, 5.0]);
    primary.checkpoint(3).unwrap();
    drop(primary);

    // A primary address that refuses connections: the fetch loop only
    // counts errors until promotion seals it.
    let unreachable = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let serve_opts = ServeOptions {
        wal_dir: Some(follower_wal.clone()),
        wal_fsync: false,
        replica_of: Some(unreachable.to_string()),
        replica_poll: Duration::from_millis(1),
        ..ServeOptions::default()
    };
    let (db, replica) = open_follower(db, &serve_opts).expect("open follower");
    assert_eq!(replica.applied_seq(), 1);
    let len_before = db.dataset().series_len();

    let err = replica
        .promote(Some(&primary_wal))
        .expect_err("promotion over records 2..=3 that no log holds");
    assert!(matches!(err, F2dbError::Storage(_)), "{err:?}");
    assert_eq!(db.dataset().series_len(), len_before);
    assert_eq!(db.pending_inserts(), 0);
    let (local, _) = Wal::open(&follower_wal, opts(1 << 20)).unwrap();
    assert_eq!(
        local.stats().last_seq,
        1,
        "the refusal appended to the local log"
    );
    drop(local);
    std::fs::remove_dir_all(&dir).ok();
}
