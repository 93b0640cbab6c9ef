//! Property tests for recovery and fault-injection tests for the
//! append path.
//!
//! The recovery property (the heart of the durability contract): for a
//! log image cut off at *any* byte offset — every possible torn write —
//! replay recovers **exactly the maximal prefix of whole records**, no
//! more, no less, and the log continues appending from there. The
//! companion property pins the other side of the contract: once the
//! checkpoint watermark covers a record, flipping *any* byte of it
//! turns recovery into a hard, versioned error instead of silent loss.
//!
//! The fault-injection tests drive the [`WalStorage`] seam with the
//! three classic disk betrayals: a short write that errors mid-frame, a
//! *lying* write that reports success but drops bytes, and an fsync
//! error. In every case the log must poison itself (never acknowledge
//! past a failure) and recovery must come back to a consistent prefix.

use fdc_rng::Rng;
use fdc_wal::{
    decode_chunk, encode_chunk, encode_frame, sync_dir, ShipError, Wal, WalError, WalFile,
    WalOptions, WalStorage, SEGMENT_HEADER, SHIP_VERSION, WAL_VERSION,
};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fdc_prop_wal_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The 8-byte header every segment file starts with.
fn segment_header() -> Vec<u8> {
    let mut h = Vec::with_capacity(SEGMENT_HEADER);
    h.extend_from_slice(b"FDCWAL");
    h.extend_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

/// Random payloads for one seed: sizes 0..64, arbitrary bytes.
fn random_payloads(seed: u64, n: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let len = rng.usize_below(64);
            (0..len).map(|_| rng.next_u64() as u8).collect()
        })
        .collect()
}

/// Builds a single-segment log image: header + frames for `payloads`
/// with sequence numbers from 1. Returns `(image, frame_ends)` where
/// `frame_ends[i]` is the offset just past frame `i`.
fn build_image(payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut image = segment_header();
    let mut ends = Vec::with_capacity(payloads.len());
    for (i, p) in payloads.iter().enumerate() {
        image.extend_from_slice(&encode_frame(i as u64 + 1, p));
        ends.push(image.len());
    }
    (image, ends)
}

#[test]
fn truncation_at_every_offset_recovers_exactly_the_durable_prefix() {
    for seed in [0xFDC_0A11u64, 0xFDC_0A22, 0xFDC_0A33] {
        let payloads = random_payloads(seed, 10);
        let (image, frame_ends) = build_image(&payloads);
        let dir = tmp_dir(&format!("cut_{seed:x}"));
        // fsync off: the property is about the bytes on disk, and the
        // ~500 opens per seed should not each pay a real disk flush.
        let opts = || WalOptions {
            fsync: false,
            ..WalOptions::default()
        };
        for cut in 0..=image.len() {
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("wal-0000000000000001.log"), &image[..cut]).unwrap();
            let (wal, rec) = Wal::open(&dir, opts())
                .unwrap_or_else(|e| panic!("seed {seed:#x} cut {cut}: open failed: {e}"));
            // The maximal prefix of whole frames that fit in `cut` bytes.
            let expect = frame_ends.iter().filter(|&&end| end <= cut).count();
            assert_eq!(
                rec.records.len(),
                expect,
                "seed {seed:#x} cut {cut}: recovered {} records, expected {expect}",
                rec.records.len()
            );
            for (i, (seq, payload)) in rec.records.iter().enumerate() {
                assert_eq!(*seq, i as u64 + 1);
                assert_eq!(payload, &payloads[i], "seed {seed:#x} cut {cut} record {i}");
            }
            // Whatever was past the last whole frame is physically
            // gone. A cut inside the 8-byte segment header drops the
            // whole shell; otherwise the header survives.
            let expect_truncated = match expect {
                0 if cut < SEGMENT_HEADER => cut,
                0 => cut - SEGMENT_HEADER,
                n => cut - frame_ends[n - 1],
            };
            assert_eq!(
                rec.truncated_bytes, expect_truncated as u64,
                "seed {seed:#x} cut {cut}"
            );
            // The log continues from the surviving prefix.
            let next = wal.append(b"resume").unwrap();
            assert_eq!(next, expect as u64 + 1, "seed {seed:#x} cut {cut}");
            drop(wal);
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn flipping_any_byte_of_a_checkpointed_record_is_a_versioned_hard_error() {
    let payloads = random_payloads(0xFDC_0B44, 3);
    let (image, frame_ends) = build_image(&payloads);
    let dir = tmp_dir("flip");
    // Hand-built fixture: segment bytes assembled here, watermark
    // covering every record written the way `checkpoint` writes it.
    for flip_at in SEGMENT_HEADER..frame_ends[frame_ends.len() - 1] {
        fs::create_dir_all(&dir).unwrap();
        let mut bytes = image.clone();
        bytes[flip_at] ^= 0x40;
        fs::write(dir.join("wal-0000000000000001.log"), &bytes).unwrap();
        fs::write(
            dir.join("wal.checkpoint"),
            format!("fdc-wal-checkpoint v1\n{}\n", payloads.len()),
        )
        .unwrap();
        let err = match Wal::open(&dir, WalOptions::default()) {
            Err(e) => e,
            Ok(_) => panic!("flip at {flip_at} went unnoticed"),
        };
        match err {
            WalError::Corrupt { version, detail } => {
                assert_eq!(version, WAL_VERSION, "flip at {flip_at}");
                assert!(
                    detail.contains("watermark"),
                    "flip at {flip_at}: unexpected detail {detail}"
                );
            }
            other => panic!("flip at {flip_at}: expected Corrupt, got {other}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Fault injection through the WalStorage seam
// ---------------------------------------------------------------------------

/// How a [`FaultFile`] betrays its caller.
#[derive(Clone, Copy)]
enum Fault {
    /// `write_all` lands only the first half of the buffer and errors.
    ShortWrite,
    /// `write_all` lands only the first half but reports success.
    LyingWrite,
    /// `sync_all` errors.
    SyncError,
}

/// Shared fault plan: inject `fault` starting at the Nth `write_all`
/// (counting across all files, segment headers included) or, for
/// [`Fault::SyncError`], at the Nth `sync_all`.
struct FaultState {
    fault: Fault,
    after: usize,
    writes: AtomicUsize,
    syncs: AtomicUsize,
}

struct FaultStorage {
    state: Arc<FaultState>,
}

impl FaultStorage {
    fn new(fault: Fault, after: usize) -> FaultStorage {
        FaultStorage {
            state: Arc::new(FaultState {
                fault,
                after,
                writes: AtomicUsize::new(0),
                syncs: AtomicUsize::new(0),
            }),
        }
    }
}

struct FaultFile {
    inner: fs::File,
    state: Arc<FaultState>,
}

impl WalFile for FaultFile {
    fn write_all(&self, buf: &[u8]) -> io::Result<()> {
        let n = self.state.writes.fetch_add(1, Ordering::SeqCst);
        let inject = n >= self.state.after;
        match self.state.fault {
            Fault::ShortWrite if inject => {
                io::Write::write_all(&mut &self.inner, &buf[..buf.len() / 2])?;
                Err(io::Error::other("injected short write"))
            }
            Fault::LyingWrite if inject => {
                io::Write::write_all(&mut &self.inner, &buf[..buf.len() / 2])
            }
            _ => io::Write::write_all(&mut &self.inner, buf),
        }
    }

    fn sync_all(&self) -> io::Result<()> {
        let n = self.state.syncs.fetch_add(1, Ordering::SeqCst);
        match self.state.fault {
            Fault::SyncError if n >= self.state.after => {
                Err(io::Error::other("injected fsync error"))
            }
            _ => self.inner.sync_all(),
        }
    }
}

impl WalStorage for FaultStorage {
    fn create(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(FaultFile {
            inner: fs::File::create(path)?,
            state: Arc::clone(&self.state),
        }))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(FaultFile {
            inner: fs::OpenOptions::new().append(true).open(path)?,
            state: Arc::clone(&self.state),
        }))
    }
}

fn faulty_opts(fault: Fault, after: usize) -> WalOptions {
    WalOptions {
        storage: Arc::new(FaultStorage::new(fault, after)),
        ..WalOptions::default()
    }
}

#[test]
fn short_write_poisons_the_log_and_recovery_keeps_the_whole_prefix() {
    let dir = tmp_dir("short_write");
    {
        // Write #0 is the segment header; appends are #1, #2, #3 — the
        // third append dies half-written.
        let (wal, _) = Wal::open(&dir, faulty_opts(Fault::ShortWrite, 3)).unwrap();
        wal.append(b"first").unwrap();
        wal.append(b"second").unwrap();
        let err = wal.append(b"half-lands").unwrap_err();
        assert!(matches!(err, WalError::Io(_)), "{err}");
        // The log never acknowledges past a failure.
        let err = wal.append(b"after the failure").unwrap_err();
        assert!(err.to_string().contains("short write"), "{err}");
    }
    // Recovery truncates the half-written frame, keeps both good ones.
    let (wal, rec) = Wal::open(&dir, WalOptions::default()).unwrap();
    assert_eq!(
        rec.records,
        vec![(1, b"first".to_vec()), (2, b"second".to_vec())]
    );
    assert!(rec.truncated_bytes > 0);
    assert_eq!(wal.append(b"healed").unwrap(), 3);
    drop(wal);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn lying_write_is_caught_by_the_checksum_on_replay() {
    let dir = tmp_dir("lying_write");
    {
        // The second append reports success but lands only half its
        // frame — the classic firmware lie fsync cannot catch.
        let (wal, _) = Wal::open(&dir, faulty_opts(Fault::LyingWrite, 2)).unwrap();
        wal.append(b"truthful").unwrap();
        wal.append(b"liar liar").unwrap();
    }
    let (_, rec) = Wal::open(&dir, WalOptions::default()).unwrap();
    // The torn frame fails its checksum and is dropped; the prefix
    // before the lie survives.
    assert_eq!(rec.records, vec![(1, b"truthful".to_vec())]);
    assert!(rec.truncated_bytes > 0);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn fsync_error_fails_the_acknowledgement_and_poisons_the_log() {
    let dir = tmp_dir("sync_error");
    let (wal, _) = Wal::open(&dir, faulty_opts(Fault::SyncError, 0)).unwrap();
    let err = wal.append(b"never durable").unwrap_err();
    assert!(err.to_string().contains("fsync error"), "{err}");
    // Poisoned: later appends fail fast without touching the file.
    let err = wal.append(b"still down").unwrap_err();
    assert!(err.to_string().contains("fsync error"), "{err}");
    drop(wal);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn segment_rotation_image_survives_truncation_too() {
    // The single-segment property above, but across a rotation: build a
    // real multi-segment log, then cut the *last* segment at every
    // offset and check the earlier segments always replay whole.
    let dir = tmp_dir("multi_seg");
    let opts = || WalOptions {
        segment_bytes: 96,
        fsync: false,
        ..WalOptions::default()
    };
    {
        let (wal, _) = Wal::open(&dir, opts()).unwrap();
        for i in 0..6u8 {
            wal.append(&[i; 40]).unwrap();
        }
        assert!(wal.stats().segments >= 3, "{:?}", wal.stats());
    }
    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    segments.sort();
    let last = segments.last().unwrap().clone();
    let last_bytes = fs::read(&last).unwrap();
    let prior_records: usize = segments[..segments.len() - 1]
        .iter()
        .map(|p| count_frames(&fs::read(p).unwrap()))
        .sum();
    for cut in 0..=last_bytes.len() {
        let scratch = tmp_dir("multi_seg_cut");
        fs::create_dir_all(&scratch).unwrap();
        for p in &segments[..segments.len() - 1] {
            fs::copy(p, scratch.join(p.file_name().unwrap())).unwrap();
        }
        fs::write(scratch.join(last.file_name().unwrap()), &last_bytes[..cut]).unwrap();
        sync_dir(&scratch).unwrap();
        let (_, rec) =
            Wal::open(&scratch, opts()).unwrap_or_else(|e| panic!("cut {cut}: open failed: {e}"));
        let expect = prior_records + count_frames(&last_bytes[..cut]);
        assert_eq!(rec.records.len(), expect, "cut {cut}");
        // Contiguous sequence numbers from 1, across the segment files.
        for (i, (seq, _)) in rec.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1, "cut {cut}");
        }
        fs::remove_dir_all(&scratch).unwrap();
    }
    fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Log shipping: the replay property and fault injection on the fetch path
// ---------------------------------------------------------------------------

/// The replay property for shipping: for every torn primary image
/// (the truncate-at-every-offset generator above), any follower
/// segment size, and any per-fetch byte budget, `ship → apply`
/// reconstructs **exactly** the records a local replay of the primary
/// recovers — same sequences, same payloads, nothing skipped or
/// invented at chunk or segment boundaries.
#[test]
fn ship_apply_replays_identically_to_local_replay_for_every_torn_image() {
    for seed in [0xFDC_5417u64, 0xFDC_5428] {
        let mut rng = Rng::seed_from_u64(seed ^ 0x5419);
        let payloads = random_payloads(seed, 8);
        let (image, _) = build_image(&payloads);
        let p_dir = tmp_dir(&format!("ship_p_{seed:x}"));
        let f_dir = tmp_dir(&format!("ship_f_{seed:x}"));
        let opts = |segment_bytes| WalOptions {
            segment_bytes,
            fsync: false,
            ..WalOptions::default()
        };
        for cut in 0..=image.len() {
            fs::create_dir_all(&p_dir).unwrap();
            fs::write(p_dir.join("wal-0000000000000001.log"), &image[..cut]).unwrap();
            let (primary, p_rec) = Wal::open(&p_dir, opts(1 << 20))
                .unwrap_or_else(|e| panic!("seed {seed:#x} cut {cut}: primary open: {e}"));
            // The follower rotates on different boundaries than the
            // primary ever did.
            let (follower, _) = Wal::open(&f_dir, opts(48 + rng.next_u64() % 200)).unwrap();
            let mut applied = 0;
            while applied < primary.stats().durable_seq {
                let budget = 1 + rng.usize_below(96);
                let chunk = primary.ship_chunk(applied, budget).unwrap();
                assert!(
                    !chunk.frames.is_empty(),
                    "seed {seed:#x} cut {cut}: shipping stalled at {applied}"
                );
                applied = follower.apply_chunk(&chunk).unwrap();
            }
            drop(follower);
            let (_, f_rec) = Wal::open(&f_dir, opts(1 << 20)).unwrap();
            assert_eq!(f_rec.records, p_rec.records, "seed {seed:#x} cut {cut}");
            drop(primary);
            fs::remove_dir_all(&p_dir).unwrap();
            fs::remove_dir_all(&f_dir).unwrap();
        }
    }
}

/// A fetch response cut off at any byte — a dropped connection, a
/// proxy timeout — must decode to a versioned error, never to a
/// shorter-but-valid chunk the follower would silently apply. The
/// chunk here comes off a real rotated log, so frame boundaries cross
/// segment files.
#[test]
fn a_torn_fetch_response_from_a_rotated_log_is_a_versioned_error() {
    let dir = tmp_dir("ship_torn_fetch");
    let (wal, _) = Wal::open(
        &dir,
        WalOptions {
            segment_bytes: 96,
            fsync: false,
            ..WalOptions::default()
        },
    )
    .unwrap();
    let payloads = random_payloads(0xFDC_F417, 6);
    for p in &payloads {
        wal.append(p).unwrap();
    }
    assert!(wal.stats().segments >= 2, "{:?}", wal.stats());
    let chunk = wal.ship_chunk(0, usize::MAX).unwrap();
    assert_eq!(chunk.frames.len(), payloads.len());
    let wire = encode_chunk(&chunk);
    assert_eq!(decode_chunk(&wire).unwrap(), chunk);
    for cut in 0..wire.len() {
        match decode_chunk(&wire[..cut]) {
            Ok(c) => panic!(
                "cut {cut}: decoded {} frames from a torn response",
                c.frames.len()
            ),
            Err(ShipError::Truncated { version, .. } | ShipError::Corrupt { version, .. }) => {
                assert_eq!(version, SHIP_VERSION, "cut {cut}");
            }
            Err(other) => panic!("cut {cut}: expected a versioned decode error, got {other}"),
        }
    }
    drop(wal);
    fs::remove_dir_all(&dir).ok();
}

/// Replay attack / duplicate delivery: applying the same chunk twice
/// is a typed [`ShipError::StaleSequence`] and appends nothing — the
/// follower's log is byte-for-byte what a single delivery leaves.
#[test]
fn a_replayed_chunk_is_a_stale_sequence_error_and_appends_nothing() {
    let p_dir = tmp_dir("ship_replay_p");
    let f_dir = tmp_dir("ship_replay_f");
    let opts = || WalOptions {
        fsync: false,
        ..WalOptions::default()
    };
    let (primary, _) = Wal::open(&p_dir, opts()).unwrap();
    let payloads = random_payloads(0xFDC_D0B1, 6);
    for p in &payloads {
        primary.append(p).unwrap();
    }
    let chunk = primary.ship_chunk(0, usize::MAX).unwrap();
    let (follower, _) = Wal::open(&f_dir, opts()).unwrap();
    assert_eq!(follower.apply_chunk(&chunk).unwrap(), 6);
    match follower.apply_chunk(&chunk) {
        Err(ShipError::StaleSequence {
            version,
            expected,
            found,
        }) => {
            assert_eq!(version, SHIP_VERSION);
            assert_eq!(expected, 7);
            assert_eq!(found, 1);
        }
        other => panic!("expected StaleSequence, got {other:?}"),
    }
    assert_eq!(follower.stats().last_seq, 6);
    drop(follower);
    let (_, f_rec) = Wal::open(&f_dir, opts()).unwrap();
    let expected: Vec<(u64, Vec<u8>)> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64 + 1, p.clone()))
        .collect();
    assert_eq!(f_rec.records, expected);
    drop(primary);
    fs::remove_dir_all(&p_dir).ok();
    fs::remove_dir_all(&f_dir).ok();
}

/// A follower that falls behind a checkpoint-truncated segment gets a
/// typed [`ShipError::WatermarkGap`] carrying the watermark it must
/// rebase to — never frames that silently start past its position.
#[test]
fn fetching_past_a_checkpoint_truncated_segment_is_a_watermark_gap() {
    let dir = tmp_dir("ship_gap");
    let (wal, _) = Wal::open(
        &dir,
        WalOptions {
            segment_bytes: 96,
            fsync: false,
            ..WalOptions::default()
        },
    )
    .unwrap();
    for i in 0..8u8 {
        wal.append(&[i; 40]).unwrap();
    }
    let truncated = wal.checkpoint(6).unwrap();
    assert!(truncated > 0, "checkpoint removed no segments");
    match wal.ship_chunk(0, usize::MAX) {
        Err(ShipError::WatermarkGap {
            version,
            requested_after,
            checkpoint_seq,
        }) => {
            assert_eq!(version, SHIP_VERSION);
            assert_eq!(requested_after, 0);
            assert_eq!(checkpoint_seq, 6);
        }
        other => panic!("expected WatermarkGap, got {other:?}"),
    }
    // Rebasing to the advertised watermark resumes cleanly.
    let chunk = wal.ship_chunk(6, usize::MAX).unwrap();
    assert_eq!(
        chunk.frames.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        vec![7, 8]
    );
    drop(wal);
    fs::remove_dir_all(&dir).ok();
}

/// Fault injection through the [`WalStorage`] seam on the *apply*
/// side: a short write mid-chunk surfaces as [`ShipError::Io`], the
/// follower's log recovers to a contiguous prefix of the primary's
/// records (no silent gap), and shipping resumes from the surviving
/// watermark to full catch-up.
#[test]
fn apply_chunk_over_faulty_storage_fails_loudly_and_resumes_after_repair() {
    let p_dir = tmp_dir("ship_fault_p");
    let f_dir = tmp_dir("ship_fault_f");
    let (primary, _) = Wal::open(
        &p_dir,
        WalOptions {
            fsync: false,
            ..WalOptions::default()
        },
    )
    .unwrap();
    let payloads = random_payloads(0xFDC_FA17, 6);
    for p in &payloads {
        primary.append(p).unwrap();
    }
    let expected: Vec<(u64, Vec<u8>)> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64 + 1, p.clone()))
        .collect();
    let chunk = primary.ship_chunk(0, usize::MAX).unwrap();
    {
        // Write #0 is the segment header; the first frame write after
        // it dies half-written, whatever batching the group commit
        // chose.
        let (follower, _) = Wal::open(&f_dir, faulty_opts(Fault::ShortWrite, 1)).unwrap();
        let err = follower.apply_chunk(&chunk).unwrap_err();
        assert!(matches!(err, ShipError::Io(_)), "{err}");
    }
    // No silent gap: recovery keeps a contiguous prefix of the
    // primary's records and nothing else.
    let (follower, f_rec) = Wal::open(
        &f_dir,
        WalOptions {
            fsync: false,
            ..WalOptions::default()
        },
    )
    .unwrap();
    let kept = f_rec.records.len();
    assert!(kept < expected.len(), "the injected fault lost nothing?");
    assert_eq!(f_rec.records, expected[..kept]);
    // Resume from the surviving watermark; the follower catches up to
    // an identical log.
    let resume = primary.ship_chunk(f_rec.last_seq, usize::MAX).unwrap();
    assert_eq!(follower.apply_chunk(&resume).unwrap(), 6);
    drop(follower);
    let (_, f_rec) = Wal::open(
        &f_dir,
        WalOptions {
            fsync: false,
            ..WalOptions::default()
        },
    )
    .unwrap();
    assert_eq!(f_rec.records, expected);
    drop(primary);
    fs::remove_dir_all(&p_dir).ok();
    fs::remove_dir_all(&f_dir).ok();
}

/// Whole frames decodable from a segment image (header included).
fn count_frames(bytes: &[u8]) -> usize {
    if bytes.len() < SEGMENT_HEADER {
        return 0;
    }
    let mut offset = SEGMENT_HEADER;
    let mut n = 0;
    while offset < bytes.len() {
        match fdc_wal::decode_frame(&bytes[offset..], None) {
            Ok(frame) => {
                offset += frame.encoded_len;
                n += 1;
            }
            Err(_) => break,
        }
    }
    n
}
