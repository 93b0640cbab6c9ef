//! The log itself: segments, append, group commit, replay, checkpoint.
//!
//! A log is a directory of segment files named `wal-<first-seq>.log`
//! (sixteen hex digits), each starting with an 8-byte header
//! (`b"FDCWAL"` + a little-endian version) followed by frames in
//! sequence order, plus a `wal.checkpoint` marker file holding the
//! durable watermark. Appends go to the last segment; when it crosses
//! [`WalOptions::segment_bytes`] the writer rotates to a fresh file, so
//! checkpoint truncation can reclaim space by deleting whole files.
//!
//! ## Group commit
//!
//! An append is two phases. [`Wal::submit`] writes the frame into the
//! current segment under the log mutex — cheap, the OS buffers it — and
//! registers a completion channel. [`Append::wait`] then blocks until a
//! dedicated sync thread has run one `sync_all` covering the frame. The
//! sync thread drains *all* registered waiters, then reads the current
//! segment's handle and the last written sequence `upto` under the log
//! mutex, and syncs with the mutex released: frames written while the
//! disk flushes join the next group instead of queueing behind the
//! mutex. Before it takes the waiters it yields the CPU once, so the
//! writers the last sync released can write their next frame and join
//! this group rather than the one after. So N concurrent appenders cost
//! one disk flush, not N; the achieved group size is recorded in the
//! `wal.group_size` histogram.
//! The sync covers every taken waiter: each registered after its frame
//! was written, so its frame is at or below `upto`; a frame in an older
//! segment was synced by the rotation that closed it; and `durable_seq`
//! only rises (`max`) to `upto` once the sync returns. With
//! `fsync: false` the wait is a no-op (benchmark mode — durability is
//! reduced to "what the OS got around to writing").
//!
//! ## Replay and the torn tail
//!
//! [`Wal::open`] reads every segment in name order and decodes frames
//! sequentially, verifying lengths, checksums and sequence contiguity.
//! A frame that fails to decode is one of two very different things:
//!
//! * **a torn tail** — the crash interrupted the last write. Only
//!   possible at the *end of the last segment*: past the checkpoint
//!   watermark (nothing before the watermark was ever acknowledged
//!   un-fsynced) *and* with no intact frame after it (a torn write is
//!   the end of the stream, so nothing decodable can follow). Recovery
//!   truncates the file at the last good frame and carries on.
//! * **corruption** — a bad frame anywhere else: mid-log, in a non-last
//!   segment, at a sequence the checkpoint already covered, or followed
//!   by a later frame that still decodes (a bit flip in an acknowledged
//!   record, not an interrupted write). That is data loss no replay can
//!   paper over, so `open` fails with the versioned
//!   [`WalError::Corrupt`] and leaves the files untouched for
//!   forensics. So is a first live segment starting past the watermark
//!   + 1: a file holding acknowledged records went missing.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use fdc_codec::{DecodeError, Reader, Writer};

use crate::record::{self, MAX_PAYLOAD};
use crate::storage::{StdWalStorage, WalFile, WalStorage};
use crate::{atomic_write_durable, sweep_stale_tmp, sync_dir};

/// On-disk format version, embedded in every segment header and in
/// [`WalError::Corrupt`] so an error message names the format it failed
/// to read.
pub const WAL_VERSION: u16 = 1;

/// Segment header: `b"FDCWAL"` + little-endian [`WAL_VERSION`].
pub const SEGMENT_HEADER: usize = 8;

const SEGMENT_MAGIC: &[u8; 6] = b"FDCWAL";

/// Name of the checkpoint marker file inside the log directory.
pub const CHECKPOINT_FILE: &str = "wal.checkpoint";

/// Everything that can go wrong appending to or recovering a log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An I/O error (message carries the `std::io::Error` rendering).
    Io(String),
    /// The log is damaged in a way replay must not silently repair:
    /// corruption before the durable watermark, a bad frame that is not
    /// a torn tail, a gap in the segment sequence, or an unreadable
    /// header. `version` is the format version this reader speaks.
    Corrupt {
        /// The reader's format version ([`WAL_VERSION`]).
        version: u16,
        /// What was found and where.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(msg) => write!(f, "wal i/o error: {msg}"),
            WalError::Corrupt { version, detail } => {
                write!(f, "wal corrupt (format v{version}): {detail}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> WalError {
        WalError::Io(e.to_string())
    }
}

fn corrupt(detail: impl Into<String>) -> WalError {
    WalError::Corrupt {
        version: WAL_VERSION,
        detail: detail.into(),
    }
}

/// Tuning knobs for [`Wal::open`].
#[derive(Clone)]
pub struct WalOptions {
    /// Rotate to a new segment once the current one exceeds this many
    /// bytes. Small values make checkpoint truncation reclaim space
    /// sooner at the cost of more files.
    pub segment_bytes: u64,
    /// Whether acknowledgements wait for `sync_all`. `false` is a
    /// benchmark mode: appends still go through the OS but an ack no
    /// longer implies durability.
    pub fsync: bool,
    /// The storage backend — [`StdWalStorage`] in production, a
    /// fault-injecting implementation in recovery tests.
    pub storage: Arc<dyn WalStorage>,
}

impl Default for WalOptions {
    fn default() -> WalOptions {
        WalOptions {
            segment_bytes: 1 << 20,
            fsync: true,
            storage: Arc::new(StdWalStorage),
        }
    }
}

impl fmt::Debug for WalOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WalOptions")
            .field("segment_bytes", &self.segment_bytes)
            .field("fsync", &self.fsync)
            .finish()
    }
}

/// What [`Wal::open`] found and did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WalRecovery {
    /// Replayed records past the checkpoint watermark, in sequence
    /// order: `(seq, payload)`.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Highest sequence number present in the log (0 if empty).
    pub last_seq: u64,
    /// The checkpoint watermark replay started from.
    pub checkpoint_seq: u64,
    /// Torn-tail bytes physically truncated from the last segment.
    pub truncated_bytes: u64,
    /// Segment files found.
    pub segments: usize,
    /// Stale `*.tmp.*` orphans swept from the directory.
    pub swept_tmp: usize,
}

/// A point-in-time snapshot of the log's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Highest sequence number appended (0 if none yet).
    pub last_seq: u64,
    /// Highest sequence number known durable: covered by a completed
    /// `sync_all` (equals `last_seq` when fsync is off — durability is
    /// then whatever the OS got around to writing). Log shipping serves
    /// only frames at or below this watermark, so a follower never
    /// applies a record the primary could still lose in a crash.
    pub durable_seq: u64,
    /// The durable watermark recorded by the last checkpoint.
    pub checkpoint_seq: u64,
    /// Live segment files.
    pub segments: u64,
    /// Records appended this process lifetime.
    pub appends: u64,
    /// Frame bytes appended this process lifetime.
    pub appended_bytes: u64,
    /// Group-commit fsyncs performed this process lifetime.
    pub fsyncs: u64,
}

struct Inner {
    /// The current segment. Shared so the sync thread can sync it
    /// without holding the log mutex.
    file: Arc<dyn WalFile>,
    /// First sequence number of every live segment, in order; the last
    /// entry is the segment currently appended to.
    segments: Vec<u64>,
    /// Bytes written to the current segment, header included.
    segment_written: u64,
    next_seq: u64,
    /// Highest sequence covered by a completed fsync (== `next_seq - 1`
    /// when fsync is off).
    durable_seq: u64,
    checkpoint_seq: u64,
    appends: u64,
    appended_bytes: u64,
    fsyncs: u64,
    /// Set on the first write or fsync failure; all later appends and
    /// waits fail with it (the log never acknowledges past an error).
    failed: Option<String>,
}

#[derive(Default)]
struct SyncQueue {
    waiters: Vec<mpsc::SyncSender<Result<(), String>>>,
    stop: bool,
}

struct Shared {
    dir: PathBuf,
    opts: WalOptions,
    inner: Mutex<Inner>,
    queue: Mutex<SyncQueue>,
    work: Condvar,
    /// Serializes whole checkpoints (marker rename must stay monotonic)
    /// so their durable I/O can run *outside* `inner` — submitters and
    /// the group-commit sync thread never wait behind checkpoint
    /// fsyncs. Never acquired while holding `inner`.
    checkpoint_lock: Mutex<()>,
}

/// An append-only, segmented, checksummed write-ahead log with group
/// commit. See the module docs for the format and the durability rules.
pub struct Wal {
    shared: Arc<Shared>,
    syncer: Option<thread::JoinHandle<()>>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let stats = self.stats();
        f.debug_struct("Wal")
            .field("dir", &self.shared.dir)
            .field("stats", &stats)
            .finish()
    }
}

/// A submitted record: the sequence number is assigned and the bytes
/// are in the OS, but not yet known durable. [`Append::wait`] blocks
/// until the group-commit fsync covering this record completes.
#[must_use = "an append is not durable until wait() returns"]
pub struct Append {
    /// The record's assigned sequence number.
    pub seq: u64,
    ticket: Option<mpsc::Receiver<Result<(), String>>>,
}

impl Append {
    /// Blocks until the record is durable (or the log has failed).
    /// Returns the record's sequence number.
    pub fn wait(self) -> Result<u64, WalError> {
        match self.ticket {
            None => Ok(self.seq),
            Some(rx) => match rx.recv() {
                Ok(Ok(())) => Ok(self.seq),
                Ok(Err(msg)) => Err(WalError::Io(msg)),
                Err(_) => Err(WalError::Io("wal sync thread exited".to_string())),
            },
        }
    }
}

fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq:016x}.log")
}

pub(crate) fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(segment_file_name(first_seq))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn segment_header_bytes() -> Vec<u8> {
    let mut w = Writer::with_capacity(SEGMENT_HEADER);
    w.header(SEGMENT_MAGIC, WAL_VERSION);
    w.finish()
}

fn read_checkpoint_marker(dir: &Path) -> Result<u64, WalError> {
    let path = dir.join(CHECKPOINT_FILE);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e.into()),
    };
    // Format: `fdc-wal-checkpoint v1\n<seq>\n`. The marker is written
    // atomically, so a malformed one is corruption, not a torn write.
    let mut lines = text.lines();
    match lines.next() {
        Some("fdc-wal-checkpoint v1") => {}
        other => {
            return Err(corrupt(format!(
                "checkpoint marker has unrecognized header {other:?}"
            )))
        }
    }
    let seq_line = lines
        .next()
        .ok_or_else(|| corrupt("checkpoint marker missing sequence line"))?;
    seq_line
        .trim()
        .parse::<u64>()
        .map_err(|_| corrupt(format!("checkpoint marker has bad sequence {seq_line:?}")))
}

/// The sequence number after `seq`. A marker or a frame that decodes
/// may still claim the top of the range, where there is none: that is
/// corruption, not an overflow to panic on (or, in release, to wrap).
fn next_after(seq: u64, what: &str) -> Result<u64, WalError> {
    seq.checked_add(1).ok_or_else(|| {
        corrupt(format!(
            "{what} has sequence number {seq}, the last there is"
        ))
    })
}

impl Wal {
    /// Opens (creating if necessary) the log in `dir`, replays it, and
    /// returns the live log plus everything recovery found. Torn tails
    /// are truncated; real corruption fails with [`WalError::Corrupt`].
    pub fn open(dir: &Path, opts: WalOptions) -> Result<(Wal, WalRecovery), WalError> {
        let started = Instant::now();
        fs::create_dir_all(dir)?;
        let swept_tmp = sweep_stale_tmp(&dir.join(CHECKPOINT_FILE)).unwrap_or(0);
        let checkpoint_seq = read_checkpoint_marker(dir)?;

        // Collect segments by the first-sequence encoded in their name.
        let mut segs: BTreeMap<u64, PathBuf> = BTreeMap::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(first) = parse_segment_name(name) {
                segs.insert(first, entry.path());
            }
        }

        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut last_seq = checkpoint_seq;
        let mut truncated_bytes = 0u64;
        let seg_list: Vec<(u64, PathBuf)> = segs.into_iter().collect();
        // Checkpoint truncation only ever deletes whole fully-covered
        // segments from the front, so the first live segment must begin
        // at or below the watermark + 1. One starting above it means a
        // segment holding acknowledged, uncheckpointed records vanished
        // (external deletion, restore from a partial backup) — replay
        // must not silently resume past the gap.
        let resume_at = next_after(checkpoint_seq, "the checkpoint marker")?;
        if let Some((first, path)) = seg_list.first() {
            if *first > resume_at {
                return Err(corrupt(format!(
                    "first live segment {} starts at seq {first}, but the durable watermark \
                     is {checkpoint_seq}: a segment holding acknowledged records is missing",
                    path.display()
                )));
            }
        }
        let mut expected_first: Option<u64> = None;
        for (i, (first, path)) in seg_list.iter().enumerate() {
            let is_last = i == seg_list.len() - 1;
            if let Some(expected) = expected_first {
                if *first != expected {
                    return Err(corrupt(format!(
                        "segment {} starts at seq {first} but the previous segment ended at {}",
                        path.display(),
                        expected - 1
                    )));
                }
            }
            let bytes = fs::read(path)?;
            if bytes.len() < SEGMENT_HEADER {
                if is_last && *first > checkpoint_seq {
                    // A crash between creating the file and flushing its
                    // header: an empty shell holding no records.
                    truncated_bytes += bytes.len() as u64;
                    truncate_segment(path, 0)?;
                    fs::remove_file(path)?;
                    break;
                }
                return Err(corrupt(format!(
                    "segment {} too short for its header",
                    path.display()
                )));
            }
            match Reader::new(&bytes).header(SEGMENT_MAGIC, WAL_VERSION..=WAL_VERSION) {
                Ok(_) => {}
                Err(DecodeError::UnsupportedVersion { found, .. }) => {
                    return Err(corrupt(format!(
                        "segment {} has format version {found}, reader speaks {WAL_VERSION}",
                        path.display()
                    )))
                }
                Err(_) => return Err(corrupt(format!("segment {} has bad magic", path.display()))),
            }
            let mut offset = SEGMENT_HEADER;
            let mut seq = *first;
            while offset < bytes.len() {
                match record::decode_frame(&bytes[offset..], Some(seq)) {
                    Ok(frame) => {
                        if seq > checkpoint_seq {
                            records.push((seq, frame.payload));
                        }
                        offset += frame.encoded_len;
                        seq = next_after(seq, "a logged record")?;
                    }
                    Err(err) => {
                        let at = format!("{} offset {offset} (seq {seq}): {err:?}", path.display());
                        if !is_last {
                            return Err(corrupt(format!("bad frame inside non-last segment {at}")));
                        }
                        if seq <= checkpoint_seq {
                            return Err(corrupt(format!(
                                "bad frame at or before durable watermark {checkpoint_seq}: {at}"
                            )));
                        }
                        // A torn tail is the *end* of the write stream:
                        // nothing decodable can follow it. If a later
                        // offset still holds an intact frame with a
                        // plausible sequence number, the bad frame is a
                        // damaged acknowledged record (e.g. a post-crash
                        // bit flip) — truncating here would silently
                        // destroy it and everything after, so fail.
                        if let Some(later) = scan_decodable_frame(&bytes, offset + 1, *first, seq) {
                            return Err(corrupt(format!(
                                "bad frame followed by an intact frame (seq {} at offset {}), \
                                 so it is damage, not a torn tail: {at}",
                                later.1, later.0
                            )));
                        }
                        // Torn tail: drop everything from the bad frame on.
                        truncated_bytes += (bytes.len() - offset) as u64;
                        truncate_segment(path, offset as u64)?;
                        break;
                    }
                }
            }
            last_seq = last_seq.max(seq.saturating_sub(1));
            expected_first = Some(seq);
        }

        // Live segments after tail cleanup (an all-torn last shell was
        // removed above).
        let mut live: Vec<u64> = seg_list
            .iter()
            .map(|(first, _)| *first)
            .filter(|first| segment_path(dir, *first).exists())
            .collect();

        let next_seq = next_after(last_seq, "the last logged record")?;
        let file = match live.last() {
            Some(first) => opts.storage.open_append(&segment_path(dir, *first))?,
            None => {
                let path = segment_path(dir, next_seq);
                let f = opts.storage.create(&path)?;
                f.write_all(&segment_header_bytes())?;
                sync_dir(dir)?;
                live.push(next_seq);
                f
            }
        };
        let segment_written = match live.last() {
            Some(first) => fs::metadata(segment_path(dir, *first))?.len(),
            None => unreachable!(),
        };

        let recovery = WalRecovery {
            records,
            last_seq,
            checkpoint_seq,
            truncated_bytes,
            segments: live.len(),
            swept_tmp,
        };

        fdc_obs::counter(fdc_obs::names::WAL_REPLAYED_RECORDS).add(recovery.records.len() as u64);
        fdc_obs::counter(fdc_obs::names::WAL_TORN_TAIL_BYTES).add(truncated_bytes);
        fdc_obs::histogram(fdc_obs::names::WAL_RECOVERY_NS).record_duration(started.elapsed());
        fdc_obs::gauge(fdc_obs::names::WAL_SEGMENTS).set(live.len() as i64);
        fdc_obs::gauge(fdc_obs::names::WAL_LAST_SEQ).set(last_seq as i64);
        fdc_obs::gauge(fdc_obs::names::WAL_CHECKPOINT_SEQ).set(checkpoint_seq as i64);
        fdc_obs::journal().publish(fdc_obs::Event::WalRecovery {
            replayed_records: recovery.records.len() as u64,
            truncated_bytes,
            last_seq,
            checkpoint_seq,
        });

        let shared = Arc::new(Shared {
            dir: dir.to_path_buf(),
            opts,
            inner: Mutex::new(Inner {
                file: file.into(),
                segments: live,
                segment_written,
                next_seq,
                durable_seq: last_seq,
                checkpoint_seq,
                appends: 0,
                appended_bytes: 0,
                fsyncs: 0,
                failed: None,
            }),
            queue: Mutex::new(SyncQueue::default()),
            work: Condvar::new(),
            checkpoint_lock: Mutex::new(()),
        });
        let syncer = if shared.opts.fsync {
            let s = Arc::clone(&shared);
            Some(
                thread::Builder::new()
                    .name("fdc-wal-sync".to_string())
                    .spawn(move || s.run_syncer())
                    .map_err(|e| WalError::Io(e.to_string()))?,
            )
        } else {
            None
        };
        Ok((Wal { shared, syncer }, recovery))
    }

    /// Phase one of an append: assigns the next sequence number, writes
    /// the frame into the current segment (rotating first if it is
    /// full), and registers for the next group-commit fsync. Cheap —
    /// the disk flush happens in [`Append::wait`].
    pub fn submit(&self, payload: &[u8]) -> Result<Append, WalError> {
        if payload.len() as u64 > MAX_PAYLOAD as u64 {
            return Err(WalError::Io(format!(
                "payload of {} bytes exceeds the {MAX_PAYLOAD}-byte record bound",
                payload.len()
            )));
        }
        let seq;
        {
            let mut inner = self.shared.inner.lock().unwrap();
            if let Some(msg) = &inner.failed {
                return Err(WalError::Io(msg.clone()));
            }
            seq = inner.next_seq;
            let next_seq = next_after(seq, "the record being appended")?;
            let frame = record::encode_frame(seq, payload);
            if inner.segment_written + frame.len() as u64 > self.shared.opts.segment_bytes
                && inner.segment_written > SEGMENT_HEADER as u64
            {
                self.rotate(&mut inner, seq)?;
            }
            if let Err(e) = inner.file.write_all(&frame) {
                inner.failed = Some(e.to_string());
                return Err(e.into());
            }
            inner.next_seq = next_seq;
            inner.segment_written += frame.len() as u64;
            inner.appends += 1;
            inner.appended_bytes += frame.len() as u64;
            if !self.shared.opts.fsync {
                // No fsync barrier: the record is as durable as it will
                // ever be, so it is immediately shippable.
                inner.durable_seq = seq;
            }
            fdc_obs::counter(fdc_obs::names::WAL_APPENDS).incr();
            fdc_obs::counter(fdc_obs::names::WAL_APPENDED_BYTES).add(frame.len() as u64);
            fdc_obs::gauge(fdc_obs::names::WAL_LAST_SEQ).set(seq as i64);
        }
        if !self.shared.opts.fsync {
            return Ok(Append { seq, ticket: None });
        }
        let (tx, rx) = mpsc::sync_channel(1);
        self.shared.queue.lock().unwrap().waiters.push(tx);
        self.shared.work.notify_one();
        Ok(Append {
            seq,
            ticket: Some(rx),
        })
    }

    /// Appends one record and blocks until it is durable. Equivalent to
    /// `submit(payload)?.wait()`.
    pub fn append(&self, payload: &[u8]) -> Result<u64, WalError> {
        self.submit(payload)?.wait()
    }

    /// Rotates to a fresh segment whose first record will be
    /// `first_seq`. The outgoing segment is fsynced first so records in
    /// it can be acknowledged by fsyncs against the new file.
    fn rotate(&self, inner: &mut Inner, first_seq: u64) -> Result<(), WalError> {
        if let Err(e) = inner.file.sync_all() {
            inner.failed = Some(e.to_string());
            return Err(e.into());
        }
        inner.fsyncs += 1;
        // Everything below the record that forced the rotation is now
        // on disk in the outgoing segment.
        inner.durable_seq = inner.durable_seq.max(first_seq - 1);
        fdc_obs::counter(fdc_obs::names::WAL_FSYNCS).incr();
        let path = segment_path(&self.shared.dir, first_seq);
        let file = self.shared.opts.storage.create(&path)?;
        file.write_all(&segment_header_bytes())?;
        sync_dir(&self.shared.dir)?;
        inner.file = file.into();
        inner.segment_written = SEGMENT_HEADER as u64;
        inner.segments.push(first_seq);
        fdc_obs::gauge(fdc_obs::names::WAL_SEGMENTS).set(inner.segments.len() as i64);
        Ok(())
    }

    /// Records `upto` as the durable watermark (atomically, surviving
    /// power failure) and deletes segments every record of which is at
    /// or below it. The current segment is never deleted. Returns the
    /// number of segments truncated.
    pub fn checkpoint(&self, upto: u64) -> Result<u64, WalError> {
        // One checkpoint at a time, serialized by its own mutex: the
        // marker renames must land in watermark order. `inner` is only
        // taken for the short in-memory edits, never across the marker
        // write (two fsyncs) or the segment unlinks + directory fsync —
        // a periodic checkpoint must not stall the append path.
        let _cp = self.shared.checkpoint_lock.lock().unwrap();
        let upto = {
            let inner = self.shared.inner.lock().unwrap();
            let upto = upto.min(inner.next_seq.saturating_sub(1));
            if upto < inner.checkpoint_seq {
                return Ok(0);
            }
            upto
        };
        let uncovered_from = next_after(upto, "the checkpointed record")?;
        // The marker must be durable *before* any segment it covers is
        // deleted; the reverse order would leave a log whose first
        // segment starts past the (old) watermark — corruption to the
        // replayer.
        let marker = format!("fdc-wal-checkpoint v1\n{upto}\n");
        atomic_write_durable(&self.shared.dir.join(CHECKPOINT_FILE), marker.as_bytes())?;

        // segments[i] is fully covered iff the next segment starts at or
        // below upto + 1 — i.e. every record in it has seq <= upto.
        let (to_remove, last_seq, segments) = {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.checkpoint_seq = upto;
            let mut to_remove = Vec::new();
            while inner.segments.len() > 1 && inner.segments[1] <= uncovered_from {
                to_remove.push(inner.segments.remove(0));
            }
            (to_remove, inner.next_seq - 1, inner.segments.len() as i64)
        };
        let removed = to_remove.len() as u64;
        for first in to_remove {
            fs::remove_file(segment_path(&self.shared.dir, first))?;
        }
        if removed > 0 {
            sync_dir(&self.shared.dir)?;
        }

        fdc_obs::gauge(fdc_obs::names::WAL_CHECKPOINT_SEQ).set(upto as i64);
        fdc_obs::gauge(fdc_obs::names::WAL_SEGMENTS).set(segments);
        fdc_obs::counter(fdc_obs::names::WAL_SEGMENTS_TRUNCATED).add(removed);
        fdc_obs::journal().publish(fdc_obs::Event::WalCheckpoint {
            checkpoint_seq: upto,
            last_seq,
            truncated_segments: removed,
        });
        Ok(removed)
    }

    /// The directory the log lives in.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// Consistent snapshot of the state log shipping needs: the live
    /// segment list plus the durable and checkpoint watermarks, all
    /// read under one acquisition of the log mutex. Segment file reads
    /// happen *outside* the lock so shipping never stalls appenders.
    pub(crate) fn ship_snapshot(&self) -> (Vec<u64>, u64, u64) {
        let inner = self.shared.inner.lock().unwrap();
        (
            inner.segments.clone(),
            inner.durable_seq,
            inner.checkpoint_seq,
        )
    }

    /// A snapshot of the log's counters.
    pub fn stats(&self) -> WalStats {
        let inner = self.shared.inner.lock().unwrap();
        WalStats {
            last_seq: inner.next_seq - 1,
            durable_seq: inner.durable_seq,
            checkpoint_seq: inner.checkpoint_seq,
            segments: inner.segments.len() as u64,
            appends: inner.appends,
            appended_bytes: inner.appended_bytes,
            fsyncs: inner.fsyncs,
        }
    }
}

impl Shared {
    fn run_syncer(&self) {
        loop {
            // Writers the last sync released are runnable but may not
            // have run yet on a busy machine: let them write their next
            // frame and join this group, instead of syncing without them
            // and making them wait for the sync after. No timer: on an
            // idle core this returns at once.
            thread::yield_now();
            let waiters = {
                let mut q = self.queue.lock().unwrap();
                while q.waiters.is_empty() && !q.stop {
                    q = self.work.wait(q).unwrap();
                }
                if q.waiters.is_empty() && q.stop {
                    return;
                }
                std::mem::take(&mut q.waiters)
            };
            // Read after the waiters are taken: each registered after
            // its frame was written, so every frame they wait for is at
            // or below `upto` (see the module docs).
            let target = {
                let inner = self.inner.lock().unwrap();
                match &inner.failed {
                    Some(msg) => Err(msg.clone()),
                    None => Ok((Arc::clone(&inner.file), inner.next_seq - 1)),
                }
            };
            let result = target.and_then(|(file, upto)| {
                let synced = file.sync_all();
                let mut inner = self.inner.lock().unwrap();
                match synced {
                    Ok(()) => {
                        inner.fsyncs += 1;
                        inner.durable_seq = inner.durable_seq.max(upto);
                        Ok(())
                    }
                    Err(e) => {
                        let msg = e.to_string();
                        inner.failed = Some(msg.clone());
                        Err(msg)
                    }
                }
            });
            fdc_obs::counter(fdc_obs::names::WAL_FSYNCS).incr();
            fdc_obs::histogram(fdc_obs::names::WAL_GROUP_SIZE).record(waiters.len() as u64);
            for w in waiters {
                let _ = w.send(result.clone());
            }
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        if let Some(handle) = self.syncer.take() {
            {
                let mut q = self.shared.queue.lock().unwrap();
                q.stop = true;
            }
            self.shared.work.notify_all();
            let _ = handle.join();
        }
    }
}

/// Scans `bytes[from..]` byte by byte for an offset where a frame
/// decodes cleanly with a plausible sequence number: at least `min_seq`
/// (the bad frame's), and no larger than the segment's first seq plus
/// the maximum number of frames that could physically fit before the
/// offset. Used to distinguish a torn tail (nothing decodable follows
/// the bad frame) from mid-file damage (a later intact frame proves the
/// stream continued past it). Returns `(offset, seq)` of the first such
/// frame.
fn scan_decodable_frame(
    bytes: &[u8],
    from: usize,
    first_seq: u64,
    min_seq: u64,
) -> Option<(usize, u64)> {
    for o in from..bytes.len() {
        if let Ok(frame) = record::decode_frame(&bytes[o..], None) {
            // Every frame occupies at least FRAME_HEADER bytes, so at
            // most this many frames can precede offset `o`.
            let max_plausible = first_seq + ((o - SEGMENT_HEADER) / record::FRAME_HEADER) as u64;
            if frame.seq >= min_seq && frame.seq <= max_plausible {
                return Some((o, frame.seq));
            }
        }
    }
    None
}

/// Truncates a segment file to `len` bytes in place (used to drop a
/// torn tail during replay).
fn truncate_segment(path: &Path, len: u64) -> Result<(), WalError> {
    let file = fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FRAME_HEADER;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fdc_wal_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn opts(segment_bytes: u64) -> WalOptions {
        WalOptions {
            segment_bytes,
            ..WalOptions::default()
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let dir = tmp_dir("round_trip");
        {
            let (wal, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
            assert_eq!(rec.records.len(), 0);
            assert_eq!(wal.append(b"one").unwrap(), 1);
            assert_eq!(wal.append(b"two").unwrap(), 2);
            assert_eq!(wal.append(b"three").unwrap(), 3);
            let stats = wal.stats();
            assert_eq!(stats.last_seq, 3);
            assert_eq!(stats.appends, 3);
        }
        let (wal, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
        assert_eq!(
            rec.records,
            vec![
                (1, b"one".to_vec()),
                (2, b"two".to_vec()),
                (3, b"three".to_vec())
            ]
        );
        assert_eq!(wal.append(b"four").unwrap(), 4);
        drop(wal);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_splits_segments_and_replay_spans_them() {
        let dir = tmp_dir("rotation");
        {
            // Tiny segments: every record larger than ~48 bytes rotates.
            let (wal, _) = Wal::open(&dir, opts(64)).unwrap();
            for i in 0..10u8 {
                wal.append(&[i; 40]).unwrap();
            }
            assert!(wal.stats().segments > 1, "{:?}", wal.stats());
        }
        let (_, rec) = Wal::open(&dir, opts(64)).unwrap();
        assert_eq!(rec.records.len(), 10);
        for (i, (seq, payload)) in rec.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(payload, &vec![i as u8; 40]);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = tmp_dir("torn_tail");
        {
            let (wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
            wal.append(b"keep").unwrap();
            wal.append(b"tear me").unwrap();
        }
        // Chop the last 3 bytes off the only segment.
        let seg = segment_path(&dir, 1);
        let len = fs::metadata(&seg).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (wal, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
        assert_eq!(rec.records, vec![(1, b"keep".to_vec())]);
        assert_eq!(rec.truncated_bytes, (FRAME_HEADER + 7 - 3) as u64);
        // The log continues from the surviving prefix.
        assert_eq!(wal.append(b"after").unwrap(), 2);
        drop(wal);
        let (_, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
        assert_eq!(
            rec.records,
            vec![(1, b"keep".to_vec()), (2, b"after".to_vec())]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_before_watermark_is_fatal() {
        let dir = tmp_dir("pre_watermark");
        {
            let (wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
            wal.append(b"alpha").unwrap();
            wal.append(b"beta").unwrap();
            wal.checkpoint(2).unwrap();
        }
        // Flip a byte inside the first record's payload.
        let seg = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        bytes[SEGMENT_HEADER + FRAME_HEADER] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        let err = Wal::open(&dir, opts(1 << 20)).unwrap_err();
        match err {
            WalError::Corrupt { version, detail } => {
                assert_eq!(version, WAL_VERSION);
                assert!(detail.contains("watermark"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_record_with_intact_successor_is_fatal() {
        let dir = tmp_dir("damage_mid_tail");
        {
            let (wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
            wal.append(b"alpha").unwrap();
            wal.append(b"beta").unwrap();
            wal.append(b"gamma").unwrap();
        }
        // Flip a payload byte of record 2: records 1..3 are all acked
        // and fsynced, none checkpointed. Record 3 still decodes after
        // the bad frame, so this is damage, not a torn tail — silently
        // truncating would destroy the acknowledged records 2 and 3.
        let seg = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        let rec1_len = FRAME_HEADER + b"alpha".len();
        bytes[SEGMENT_HEADER + rec1_len + FRAME_HEADER + 1] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        let err = Wal::open(&dir, opts(1 << 20)).unwrap_err();
        match err {
            WalError::Corrupt { version, detail } => {
                assert_eq!(version, WAL_VERSION);
                assert!(detail.contains("not a torn tail"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_first_segment_is_fatal() {
        let dir = tmp_dir("missing_segment");
        {
            let (wal, _) = Wal::open(&dir, opts(64)).unwrap();
            for i in 0..6u8 {
                wal.append(&[i; 40]).unwrap();
            }
            assert!(wal.stats().segments > 2, "{:?}", wal.stats());
        }
        // Delete the first segment: it holds acknowledged records the
        // checkpoint (watermark 0) does not cover. Replay must not
        // silently resume from the next segment's first sequence.
        fs::remove_file(segment_path(&dir, 1)).unwrap();
        let err = Wal::open(&dir, opts(64)).unwrap_err();
        match err {
            WalError::Corrupt { version, detail } => {
                assert_eq!(version, WAL_VERSION);
                assert!(detail.contains("missing"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoints_concurrent_with_appends_keep_the_log_consistent() {
        let dir = tmp_dir("cp_concurrent");
        let (wal, _) = Wal::open(&dir, opts(256)).unwrap();
        let wal = Arc::new(wal);
        let appender = {
            let wal = Arc::clone(&wal);
            thread::spawn(move || {
                for i in 0..200u8 {
                    wal.append(&[i; 24]).unwrap();
                }
            })
        };
        // Checkpoint continuously while the appender runs: the marker
        // and unlink I/O happens off the append mutex, but the log must
        // stay consistent throughout.
        while !appender.is_finished() {
            let upto = wal.stats().last_seq;
            wal.checkpoint(upto).unwrap();
        }
        appender.join().unwrap();
        let final_cp = wal.stats().checkpoint_seq;
        drop(wal);
        let (_, rec) = Wal::open(&dir, opts(256)).unwrap();
        assert_eq!(rec.last_seq, 200);
        assert_eq!(rec.checkpoint_seq, final_cp);
        // Exactly the post-watermark records replay, in order.
        assert_eq!(
            rec.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (final_cp + 1..=200).collect::<Vec<_>>()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_in_non_last_segment_is_fatal() {
        let dir = tmp_dir("mid_log");
        {
            let (wal, _) = Wal::open(&dir, opts(64)).unwrap();
            for i in 0..6u8 {
                wal.append(&[i; 40]).unwrap();
            }
            assert!(wal.stats().segments > 2);
        }
        // Corrupt the first segment (not the last).
        let seg = segment_path(&dir, 1);
        let mut bytes = fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&seg, &bytes).unwrap();
        let err = Wal::open(&dir, opts(64)).unwrap_err();
        assert!(
            matches!(err, WalError::Corrupt { .. }),
            "expected Corrupt, got {err:?}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_truncates_covered_segments_and_filters_replay() {
        let dir = tmp_dir("checkpoint");
        {
            let (wal, _) = Wal::open(&dir, opts(64)).unwrap();
            for i in 0..8u8 {
                wal.append(&[i; 40]).unwrap();
            }
            let before = wal.stats();
            assert!(before.segments >= 4, "{before:?}");
            let removed = wal.checkpoint(6).unwrap();
            assert!(removed >= 1, "expected truncation, removed {removed}");
            let after = wal.stats();
            assert_eq!(after.checkpoint_seq, 6);
            assert!(after.segments < before.segments);
        }
        let (wal, rec) = Wal::open(&dir, opts(64)).unwrap();
        // Only records past the watermark replay.
        assert_eq!(
            rec.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![7, 8]
        );
        assert_eq!(rec.checkpoint_seq, 6);
        // Sequence numbering continues across restart.
        assert_eq!(wal.append(b"next").unwrap(), 9);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_of_everything_survives_restart_with_empty_replay() {
        let dir = tmp_dir("full_checkpoint");
        {
            let (wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
            wal.append(b"a").unwrap();
            wal.append(b"b").unwrap();
            wal.checkpoint(2).unwrap();
        }
        let (wal, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.last_seq, 2);
        assert_eq!(wal.append(b"c").unwrap(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_coalesces_concurrent_appenders() {
        let dir = tmp_dir("group_commit");
        let (wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
        let wal = Arc::new(wal);
        let threads = 8;
        let per_thread = 25;
        let mut handles = Vec::new();
        for t in 0..threads {
            let wal = Arc::clone(&wal);
            handles.push(thread::spawn(move || {
                for i in 0..per_thread {
                    wal.append(format!("t{t}i{i}").as_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = wal.stats();
        assert_eq!(stats.appends, (threads * per_thread) as u64);
        // Group commit working: some flush covered more than one append.
        assert!(
            stats.fsyncs < stats.appends,
            "{} fsyncs for {} appends",
            stats.fsyncs,
            stats.appends
        );
        drop(wal);
        let wal2 = Wal::open(&dir, opts(1 << 20)).unwrap();
        assert_eq!(wal2.1.records.len(), threads * per_thread);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_off_acks_immediately() {
        let dir = tmp_dir("nofsync");
        let o = WalOptions {
            fsync: false,
            ..opts(1 << 20)
        };
        let (wal, _) = Wal::open(&dir, o.clone()).unwrap();
        wal.append(b"x").unwrap();
        assert_eq!(wal.stats().fsyncs, 0);
        drop(wal);
        let (_, rec) = Wal::open(&dir, o).unwrap();
        assert_eq!(rec.records.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequence_numbers_are_contiguous_across_reopen() {
        let dir = tmp_dir("contiguous");
        let mut expected = 1u64;
        for _ in 0..3 {
            let (wal, _) = Wal::open(&dir, opts(128)).unwrap();
            for _ in 0..5 {
                assert_eq!(wal.append(b"payload").unwrap(), expected);
                expected += 1;
            }
        }
        let (_, rec) = Wal::open(&dir, opts(128)).unwrap();
        assert_eq!(
            rec.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (1..expected).collect::<Vec<_>>()
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_last_segment_shell_is_swept() {
        let dir = tmp_dir("empty_shell");
        {
            let (wal, _) = Wal::open(&dir, opts(1 << 20)).unwrap();
            wal.append(b"a").unwrap();
        }
        // Simulate a crash right after rotation created the next file
        // but before its header hit the disk.
        fs::write(segment_path(&dir, 2), b"").unwrap();
        let (wal, rec) = Wal::open(&dir, opts(1 << 20)).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(wal.append(b"b").unwrap(), 2);
        fs::remove_dir_all(&dir).ok();
    }
}
