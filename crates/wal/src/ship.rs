//! Log shipping: the wire chunk a primary serves to follower replicas
//! and the follower-side apply path.
//!
//! A follower tracks an *applied watermark* — the highest sequence it
//! has durably appended to its own log — and repeatedly asks the
//! primary for "everything past `after`". The primary answers with a
//! [`ShipChunk`]: a versioned header carrying its durable and
//! checkpoint watermarks plus a contiguous run of re-encoded frames
//! starting at `after + 1`. Three invariants keep the protocol honest:
//!
//! * **Only durable frames ship.** [`Wal::ship_chunk`] never serves a
//!   frame past the primary's fsync watermark, so a follower can never
//!   hold a record the primary might still lose in a crash — the
//!   follower's log is always a prefix of the primary's durable log,
//!   which is what makes promoted-follower state byte-deterministic.
//! * **Gaps are errors, never silence.** A fetch whose `after` lies
//!   below the primary's checkpoint watermark would skip records that
//!   were truncated away; that is [`ShipError::WatermarkGap`], and the
//!   follower must bootstrap from a checkpoint image instead. On the
//!   apply side a chunk that rewinds ([`ShipError::StaleSequence`]) or
//!   skips ahead ([`ShipError::SequenceGap`]) is rejected before any
//!   frame lands.
//! * **Every frame is re-verified on apply.** [`decode_chunk`] checks
//!   the chunk header version, each frame's CRC, and sequence
//!   contiguity, so a truncated or bit-flipped fetch response fails
//!   with a versioned error instead of poisoning the follower log.

use std::fmt;
use std::fs;
use std::io;

use fdc_codec::{DecodeError, Reader, Writer};

use crate::record;
use crate::wal::{segment_path, Wal, WalError, SEGMENT_HEADER};

/// Wire version of the ship chunk format, embedded in every chunk
/// header and named by every [`ShipError`].
pub const SHIP_VERSION: u16 = 1;

/// `b"FDCSHIP\0"` + version + durable + checkpoint + first_seq + count.
pub const CHUNK_HEADER: usize = 8 + 2 + 8 + 8 + 8 + 4;

const CHUNK_MAGIC: &[u8; 8] = b"FDCSHIP\0";

/// Everything that can go wrong shipping or applying a chunk. Every
/// variant names the protocol version so an operator can tell a
/// version skew from damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipError {
    /// The chunk bytes end mid-header or mid-frame (a truncated fetch
    /// response).
    Truncated {
        /// The reader's protocol version ([`SHIP_VERSION`]).
        version: u16,
        /// What was missing.
        detail: String,
    },
    /// The chunk was written by a protocol version this reader does not
    /// speak.
    UnsupportedVersion {
        /// The reader's protocol version.
        version: u16,
        /// The version found in the chunk header.
        found: u16,
    },
    /// The chunk is structurally damaged: bad magic, a frame that fails
    /// its CRC, or trailing garbage after the advertised frame count.
    Corrupt {
        /// The reader's protocol version.
        version: u16,
        /// What was found and where.
        detail: String,
    },
    /// The requested frames were already truncated by a primary
    /// checkpoint — the follower is too far behind to catch up by log
    /// shipping alone and must re-bootstrap from a checkpoint image.
    WatermarkGap {
        /// The reader's protocol version.
        version: u16,
        /// The follower's applied watermark in the failed fetch.
        requested_after: u64,
        /// The primary's checkpoint watermark; frames at or below it
        /// may no longer exist.
        checkpoint_seq: u64,
    },
    /// The chunk replays a frame at or before the follower's applied
    /// watermark (a stale or duplicated response).
    StaleSequence {
        /// The reader's protocol version.
        version: u16,
        /// The sequence the follower expected next.
        expected: u64,
        /// The stale sequence the chunk starts at.
        found: u64,
    },
    /// The chunk skips past the follower's next expected sequence —
    /// applying it would leave a hole in the follower log.
    SequenceGap {
        /// The reader's protocol version.
        version: u16,
        /// The sequence the follower expected next.
        expected: u64,
        /// The sequence the chunk starts at.
        found: u64,
    },
    /// An I/O error reading segments or appending to the follower log.
    Io(String),
}

impl fmt::Display for ShipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShipError::Truncated { version, detail } => {
                write!(f, "ship chunk truncated (protocol v{version}): {detail}")
            }
            ShipError::UnsupportedVersion { version, found } => write!(
                f,
                "ship chunk has protocol version {found}, reader speaks v{version}"
            ),
            ShipError::Corrupt { version, detail } => {
                write!(f, "ship chunk corrupt (protocol v{version}): {detail}")
            }
            ShipError::WatermarkGap {
                version,
                requested_after,
                checkpoint_seq,
            } => write!(
                f,
                "ship fetch after seq {requested_after} falls below the primary's checkpoint \
                 watermark {checkpoint_seq} (protocol v{version}): the frames were truncated; \
                 re-bootstrap the follower from a checkpoint image"
            ),
            ShipError::StaleSequence {
                version,
                expected,
                found,
            } => write!(
                f,
                "ship chunk starts at stale seq {found}, follower expects {expected} \
                 (protocol v{version})"
            ),
            ShipError::SequenceGap {
                version,
                expected,
                found,
            } => write!(
                f,
                "ship chunk starts at seq {found}, skipping past the follower's next \
                 expected seq {expected} (protocol v{version})"
            ),
            ShipError::Io(msg) => write!(f, "ship i/o error: {msg}"),
        }
    }
}

impl std::error::Error for ShipError {}

impl From<io::Error> for ShipError {
    fn from(e: io::Error) -> ShipError {
        ShipError::Io(e.to_string())
    }
}

impl From<WalError> for ShipError {
    fn from(e: WalError) -> ShipError {
        match e {
            WalError::Io(msg) => ShipError::Io(msg),
            WalError::Corrupt { detail, .. } => ShipError::Corrupt {
                version: SHIP_VERSION,
                detail,
            },
        }
    }
}

impl From<DecodeError> for ShipError {
    fn from(e: DecodeError) -> ShipError {
        match e {
            DecodeError::Truncated => truncated("the bytes end inside the chunk header"),
            DecodeError::UnsupportedVersion { found, .. } => ShipError::UnsupportedVersion {
                version: SHIP_VERSION,
                found,
            },
            DecodeError::BadMagic => corrupt("chunk has bad magic"),
            DecodeError::Corrupt(what) => corrupt(what),
        }
    }
}

fn corrupt(detail: impl Into<String>) -> ShipError {
    ShipError::Corrupt {
        version: SHIP_VERSION,
        detail: detail.into(),
    }
}

fn truncated(detail: impl Into<String>) -> ShipError {
    ShipError::Truncated {
        version: SHIP_VERSION,
        detail: detail.into(),
    }
}

/// One fetch response: the primary's watermarks plus a contiguous run
/// of `(seq, payload)` frames. `frames` may be empty when the follower
/// is caught up — the watermarks still advance so lag can be measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipChunk {
    /// The primary's durable (fsynced) watermark at snapshot time.
    pub durable_seq: u64,
    /// The primary's checkpoint watermark at snapshot time.
    pub checkpoint_seq: u64,
    /// Contiguous frames, each `(seq, payload)`, starting at the
    /// requested `after + 1`.
    pub frames: Vec<(u64, Vec<u8>)>,
}

impl ShipChunk {
    /// The sequence of the first frame, if any.
    pub fn first_seq(&self) -> Option<u64> {
        self.frames.first().map(|(s, _)| *s)
    }

    /// The sequence of the last frame, if any.
    pub fn last_seq(&self) -> Option<u64> {
        self.frames.last().map(|(s, _)| *s)
    }
}

/// Serializes a chunk: magic, version, watermarks, frame count, then
/// each frame in the standard CRC wal-frame encoding. Deterministic —
/// the same frames always produce the same bytes.
pub fn encode_chunk(chunk: &ShipChunk) -> Vec<u8> {
    let mut w = Writer::with_capacity(
        CHUNK_HEADER
            + chunk
                .frames
                .iter()
                .map(|(_, p)| record::FRAME_HEADER + p.len())
                .sum::<usize>(),
    );
    w.header(CHUNK_MAGIC, SHIP_VERSION);
    w.u64(chunk.durable_seq);
    w.u64(chunk.checkpoint_seq);
    w.u64(chunk.first_seq().unwrap_or(0));
    w.u32(chunk.frames.len() as u32);
    for (seq, payload) in &chunk.frames {
        w.bytes(&record::encode_frame(*seq, payload));
    }
    w.finish()
}

/// Decodes and fully verifies a chunk: header magic and version, every
/// frame's length and CRC, and sequence contiguity from the advertised
/// first sequence. A response cut short mid-frame is
/// [`ShipError::Truncated`]; trailing bytes past the advertised count
/// are [`ShipError::Corrupt`].
pub fn decode_chunk(bytes: &[u8]) -> Result<ShipChunk, ShipError> {
    let mut r = Reader::new(bytes);
    r.header(CHUNK_MAGIC, SHIP_VERSION..=SHIP_VERSION)?;
    let durable_seq = r.u64()?;
    let checkpoint_seq = r.u64()?;
    let first_seq = r.u64()?;
    // A frame is at least its header; a count the bytes cannot hold is
    // a response cut short.
    let count = r
        .count_u32(record::FRAME_HEADER)
        .map_err(|_| truncated("the chunk advertises more frames than its bytes can hold"))?;
    let mut frames = Vec::with_capacity(count);
    for i in 0..count {
        let seq = first_seq.checked_add(i as u64).ok_or_else(|| {
            corrupt(format!(
                "frame {i} of {count} has no sequence number after {first_seq}"
            ))
        })?;
        let offset = bytes.len() - r.remaining();
        let frame = record::decode_frame(r.clone().rest(), Some(seq)).map_err(|e| match e {
            record::FrameError::TruncatedHeader | record::FrameError::TruncatedBody => truncated(
                format!("chunk ends mid-frame at offset {offset} (frame {i} of {count})"),
            ),
            other => corrupt(format!(
                "frame {i} of {count} at offset {offset} (seq {seq}): {other:?}"
            )),
        })?;
        r.take(frame.encoded_len)?;
        frames.push((seq, frame.payload));
    }
    if r.remaining() != 0 {
        return Err(corrupt(format!(
            "{} trailing bytes after the {count} advertised frames",
            r.remaining()
        )));
    }
    Ok(ShipChunk {
        durable_seq,
        checkpoint_seq,
        frames,
    })
}

impl Wal {
    /// Primary side of log shipping: collects durable frames with
    /// sequence greater than `after`, stopping once `max_bytes` of
    /// frame bytes are gathered (always at least one frame when any is
    /// available). Returns [`ShipError::WatermarkGap`] when `after`
    /// falls below the checkpoint watermark — those frames may have
    /// been truncated, so resuming silently would skip records.
    ///
    /// Segment files are read outside the log mutex; only the segment
    /// list and watermarks are snapshotted under it.
    pub fn ship_chunk(&self, after: u64, max_bytes: usize) -> Result<ShipChunk, ShipError> {
        let (segments, durable_seq, checkpoint_seq) = self.ship_snapshot();
        if after < checkpoint_seq {
            return Err(ShipError::WatermarkGap {
                version: SHIP_VERSION,
                requested_after: after,
                checkpoint_seq,
            });
        }
        let mut chunk = ShipChunk {
            durable_seq,
            checkpoint_seq,
            frames: Vec::new(),
        };
        if after >= durable_seq {
            return Ok(chunk);
        }
        let mut want = after + 1;
        let mut budget = 0usize;
        'segments: for (i, first) in segments.iter().enumerate() {
            // Skip segments that end before the first wanted frame.
            if let Some(next_first) = segments.get(i + 1) {
                if *next_first <= want {
                    continue;
                }
            }
            let path = segment_path(self.dir(), *first);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    // A checkpoint truncated this segment between the
                    // snapshot and the read; report the gap with the
                    // current watermark.
                    let (_, _, cp) = self.ship_snapshot();
                    return Err(ShipError::WatermarkGap {
                        version: SHIP_VERSION,
                        requested_after: after,
                        checkpoint_seq: cp,
                    });
                }
                Err(e) => return Err(e.into()),
            };
            if bytes.len() < SEGMENT_HEADER {
                return Err(corrupt(format!(
                    "segment {} too short for its header",
                    path.display()
                )));
            }
            let mut offset = SEGMENT_HEADER;
            let mut seq = *first;
            while offset < bytes.len() {
                if seq > durable_seq {
                    break 'segments;
                }
                let frame = record::decode_frame(&bytes[offset..], Some(seq)).map_err(|e| {
                    corrupt(format!(
                        "durable frame failed to decode in {} at offset {offset} \
                         (seq {seq}): {e:?}",
                        path.display()
                    ))
                })?;
                offset += frame.encoded_len;
                if seq >= want {
                    let frame_bytes = record::FRAME_HEADER + frame.payload.len();
                    if budget + frame_bytes > max_bytes && !chunk.frames.is_empty() {
                        break 'segments;
                    }
                    budget += frame_bytes;
                    chunk.frames.push((seq, frame.payload));
                    want = seq + 1;
                }
                seq += 1;
            }
        }
        fdc_obs::counter(fdc_obs::names::WAL_SHIP_CHUNKS).incr();
        fdc_obs::counter(fdc_obs::names::WAL_SHIP_FRAMES).add(chunk.frames.len() as u64);
        fdc_obs::counter(fdc_obs::names::WAL_SHIP_BYTES).add(budget as u64);
        Ok(chunk)
    }

    /// Follower side of log shipping: appends the chunk's frames to
    /// this log, verifying they pick up exactly where it ends. A chunk
    /// that rewinds is [`ShipError::StaleSequence`]; one that skips
    /// ahead is [`ShipError::SequenceGap`] — in both cases nothing is
    /// appended. Blocks until the last frame is durable (group commit
    /// covers the whole chunk) and returns the new applied watermark.
    pub fn apply_chunk(&self, chunk: &ShipChunk) -> Result<u64, ShipError> {
        let expected = self.stats().last_seq + 1;
        let Some(first) = chunk.first_seq() else {
            return Ok(expected - 1);
        };
        if first < expected {
            return Err(ShipError::StaleSequence {
                version: SHIP_VERSION,
                expected,
                found: first,
            });
        }
        if first > expected {
            return Err(ShipError::SequenceGap {
                version: SHIP_VERSION,
                expected,
                found: first,
            });
        }
        let mut last = None;
        for (seq, payload) in &chunk.frames {
            let append = self.submit(payload)?;
            debug_assert_eq!(append.seq, *seq);
            last = Some(append);
        }
        match last {
            Some(append) => Ok(append.wait()?),
            None => Ok(expected - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WalOptions;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fdc_ship_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts(segment_bytes: u64) -> WalOptions {
        WalOptions {
            segment_bytes,
            ..WalOptions::default()
        }
    }

    #[test]
    fn chunk_round_trips_through_the_codec() {
        let chunk = ShipChunk {
            durable_seq: 9,
            checkpoint_seq: 2,
            frames: vec![(3, b"aa".to_vec()), (4, Vec::new()), (5, vec![7u8; 40])],
        };
        let bytes = encode_chunk(&chunk);
        assert_eq!(decode_chunk(&bytes).unwrap(), chunk);
        // Empty chunks round-trip too.
        let empty = ShipChunk {
            durable_seq: 12,
            checkpoint_seq: 12,
            frames: Vec::new(),
        };
        assert_eq!(decode_chunk(&encode_chunk(&empty)).unwrap(), empty);
    }

    #[test]
    fn every_truncation_point_is_a_versioned_error() {
        let chunk = ShipChunk {
            durable_seq: 5,
            checkpoint_seq: 0,
            frames: vec![(1, b"hello".to_vec()), (2, b"world!".to_vec())],
        };
        let bytes = encode_chunk(&chunk);
        for cut in 0..bytes.len() {
            let err = decode_chunk(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ShipError::Truncated {
                        version: SHIP_VERSION,
                        ..
                    } | ShipError::Corrupt {
                        version: SHIP_VERSION,
                        ..
                    }
                ),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn version_skew_and_trailing_bytes_are_rejected() {
        let chunk = ShipChunk {
            durable_seq: 1,
            checkpoint_seq: 0,
            frames: vec![(1, b"x".to_vec())],
        };
        let mut bytes = encode_chunk(&chunk);
        bytes[8] = 0xFE;
        assert!(matches!(
            decode_chunk(&bytes).unwrap_err(),
            ShipError::UnsupportedVersion {
                version: SHIP_VERSION,
                found: 0xFE
            }
        ));
        let mut trailing = encode_chunk(&chunk);
        trailing.push(0);
        assert!(matches!(
            decode_chunk(&trailing).unwrap_err(),
            ShipError::Corrupt { .. }
        ));
    }

    #[test]
    fn ship_serves_only_durable_frames_and_respects_the_budget() {
        let dir = tmp_dir("serve");
        let (wal, _) = Wal::open(&dir, opts(64)).unwrap();
        for i in 0..10u8 {
            wal.append(&[i; 20]).unwrap();
        }
        assert_eq!(wal.stats().durable_seq, 10);
        // Everything in one big chunk.
        let chunk = wal.ship_chunk(0, usize::MAX).unwrap();
        assert_eq!(chunk.durable_seq, 10);
        assert_eq!(
            chunk.frames.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            (1..=10).collect::<Vec<_>>()
        );
        // A tight budget still makes progress: at least one frame.
        let tight = wal.ship_chunk(0, 1).unwrap();
        assert_eq!(tight.frames.len(), 1);
        assert_eq!(tight.first_seq(), Some(1));
        // Resume from the middle.
        let rest = wal.ship_chunk(7, usize::MAX).unwrap();
        assert_eq!(
            rest.frames.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![8, 9, 10]
        );
        // Caught up: empty chunk, watermarks still present.
        let done = wal.ship_chunk(10, usize::MAX).unwrap();
        assert!(done.frames.is_empty());
        assert_eq!(done.durable_seq, 10);
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fetch_below_the_checkpoint_watermark_is_a_gap_error() {
        let dir = tmp_dir("gap");
        let (wal, _) = Wal::open(&dir, opts(64)).unwrap();
        for i in 0..8u8 {
            wal.append(&[i; 40]).unwrap();
        }
        wal.checkpoint(6).unwrap();
        let err = wal.ship_chunk(3, usize::MAX).unwrap_err();
        match err {
            ShipError::WatermarkGap {
                version,
                requested_after,
                checkpoint_seq,
            } => {
                assert_eq!(version, SHIP_VERSION);
                assert_eq!(requested_after, 3);
                assert_eq!(checkpoint_seq, 6);
            }
            other => panic!("expected WatermarkGap, got {other:?}"),
        }
        // At the watermark is fine: frames past it still exist.
        let ok = wal.ship_chunk(6, usize::MAX).unwrap();
        assert_eq!(
            ok.frames.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![7, 8]
        );
        drop(wal);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn apply_rejects_stale_and_gapped_chunks_without_appending() {
        let p_dir = tmp_dir("apply_primary");
        let f_dir = tmp_dir("apply_follower");
        let (primary, _) = Wal::open(&p_dir, opts(1 << 20)).unwrap();
        let (follower, _) = Wal::open(&f_dir, opts(1 << 20)).unwrap();
        for i in 0..6u8 {
            primary.append(&[i; 10]).unwrap();
        }
        let chunk = primary.ship_chunk(0, usize::MAX).unwrap();
        assert_eq!(follower.apply_chunk(&chunk).unwrap(), 6);
        // Replaying the same chunk is stale, not a silent no-op.
        let err = follower.apply_chunk(&chunk).unwrap_err();
        assert!(
            matches!(
                err,
                ShipError::StaleSequence {
                    version: SHIP_VERSION,
                    expected: 7,
                    found: 1
                }
            ),
            "{err:?}"
        );
        // A chunk skipping ahead is a gap.
        for i in 0..4u8 {
            primary.append(&[i; 10]).unwrap();
        }
        let ahead = primary.ship_chunk(8, usize::MAX).unwrap();
        let err = follower.apply_chunk(&ahead).unwrap_err();
        assert!(
            matches!(
                err,
                ShipError::SequenceGap {
                    version: SHIP_VERSION,
                    expected: 7,
                    found: 9
                }
            ),
            "{err:?}"
        );
        // Neither error appended anything.
        assert_eq!(follower.stats().last_seq, 6);
        drop((primary, follower));
        std::fs::remove_dir_all(&p_dir).ok();
        std::fs::remove_dir_all(&f_dir).ok();
    }

    #[test]
    fn shipped_follower_replays_identically_to_the_primary() {
        let p_dir = tmp_dir("identical_p");
        let f_dir = tmp_dir("identical_f");
        {
            let (primary, _) = Wal::open(&p_dir, opts(96)).unwrap();
            // Follower uses a different segment size: physical layout
            // differs, logical stream must not.
            let (follower, _) = Wal::open(&f_dir, opts(200)).unwrap();
            for i in 0..20u32 {
                primary.append(&i.to_le_bytes()).unwrap();
            }
            let mut applied = 0;
            loop {
                let chunk = primary.ship_chunk(applied, 64).unwrap();
                if chunk.frames.is_empty() {
                    break;
                }
                applied = follower.apply_chunk(&chunk).unwrap();
            }
            assert_eq!(applied, 20);
        }
        let (_, p_rec) = Wal::open(&p_dir, opts(96)).unwrap();
        let (_, f_rec) = Wal::open(&f_dir, opts(200)).unwrap();
        assert_eq!(p_rec.records, f_rec.records);
        std::fs::remove_dir_all(&p_dir).ok();
        std::fs::remove_dir_all(&f_dir).ok();
    }
}
