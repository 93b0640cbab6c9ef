//! Record framing: length-prefixed, CRC32-checksummed frames.
//!
//! One frame on disk is
//!
//! ```text
//! ┌───────────┬───────────┬───────────┬─────────────────┐
//! │ len: u32  │ crc: u32  │ seq: u64  │ payload (len B) │
//! └───────────┴───────────┴───────────┴─────────────────┘
//! ```
//!
//! all little-endian. `len` is the payload length alone; `crc` is the
//! CRC32 (IEEE, reflected, the zlib polynomial) of `seq ‖ payload`, so a
//! frame whose length prefix survived but whose body was torn by a crash
//! still fails verification. Sequence numbers are assigned by the log,
//! start at 1 and are contiguous — a gap or repeat is corruption, not a
//! torn write.

use fdc_codec::hash::Crc32;
use fdc_codec::{DecodeError, Reader, Writer};

/// Frame header size: len (4) + crc (4) + seq (8).
pub const FRAME_HEADER: usize = 16;

/// Upper bound on a single record's payload. Anything larger in a length
/// prefix is treated as corruption rather than attempted as an
/// allocation.
pub const MAX_PAYLOAD: u32 = 1 << 28;

/// CRC32 (IEEE 802.3, reflected — the zlib/PNG checksum) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Encodes one frame (header + payload) into a fresh buffer.
pub fn encode_frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() as u64 <= MAX_PAYLOAD as u64);
    let mut crc = Crc32::new();
    crc.update(&seq.to_le_bytes());
    crc.update(payload);
    let mut w = Writer::with_capacity(FRAME_HEADER + payload.len());
    w.u32(payload.len() as u32);
    w.u32(crc.finish());
    w.u64(seq);
    w.bytes(payload);
    w.finish()
}

/// Why a frame could not be decoded at some offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes remain than a frame header — a torn header.
    TruncatedHeader,
    /// The length prefix points past the end of the buffer — a torn
    /// body.
    TruncatedBody,
    /// The length prefix is implausibly large.
    ImplausibleLength(u32),
    /// The checksum over `seq ‖ payload` does not match.
    BadChecksum,
    /// The frame decoded cleanly but carries the wrong sequence number.
    SequenceGap {
        /// The sequence number the reader expected next.
        expected: u64,
        /// The sequence number the frame carries.
        found: u64,
    },
}

/// A decoded frame plus how many bytes it occupied.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The record's sequence number.
    pub seq: u64,
    /// The record payload.
    pub payload: Vec<u8>,
    /// Total encoded size (header + payload).
    pub encoded_len: usize,
}

impl From<DecodeError> for FrameError {
    /// A frame has no magic, version or counts: all the kit can report
    /// while reading one is that the bytes ran out.
    fn from(_: DecodeError) -> Self {
        FrameError::TruncatedHeader
    }
}

/// Decodes the frame at the start of `buf`, verifying length, checksum
/// and (when `expected_seq` is `Some`) the sequence number.
pub fn decode_frame(buf: &[u8], expected_seq: Option<u64>) -> Result<Frame, FrameError> {
    let mut r = Reader::new(buf);
    if r.remaining() < FRAME_HEADER {
        return Err(FrameError::TruncatedHeader);
    }
    let len = r.u32()?;
    if len > MAX_PAYLOAD {
        return Err(FrameError::ImplausibleLength(len));
    }
    let crc = r.u32()?;
    // The checksum covers `seq ‖ payload`, contiguous in the frame.
    let checked = r
        .take(8 + len as usize)
        .map_err(|_| FrameError::TruncatedBody)?;
    if crc32(checked) != crc {
        return Err(FrameError::BadChecksum);
    }
    let mut body = Reader::new(checked);
    let seq = body.u64()?;
    if let Some(expected) = expected_seq {
        if seq != expected {
            return Err(FrameError::SequenceGap {
                expected,
                found: seq,
            });
        }
    }
    Ok(Frame {
        seq,
        payload: body.rest().to_vec(),
        encoded_len: FRAME_HEADER + len as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard zlib/PNG test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frame_round_trips() {
        let payload = b"hello wal".to_vec();
        let bytes = encode_frame(7, &payload);
        assert_eq!(bytes.len(), FRAME_HEADER + payload.len());
        let frame = decode_frame(&bytes, Some(7)).unwrap();
        assert_eq!(frame.seq, 7);
        assert_eq!(frame.payload, payload);
        assert_eq!(frame.encoded_len, bytes.len());
        // Empty payloads are legal.
        let empty = encode_frame(1, &[]);
        assert_eq!(
            decode_frame(&empty, None).unwrap().payload,
            Vec::<u8>::new()
        );
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let bytes = encode_frame(3, b"abcdef");
        for bit in 0..bytes.len() * 8 {
            let mut corrupt = bytes.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let r = decode_frame(&corrupt, Some(3));
            assert!(r.is_err(), "flipping bit {bit} went undetected: {r:?}");
        }
    }

    #[test]
    fn truncation_is_classified() {
        let bytes = encode_frame(3, b"abcdef");
        assert_eq!(
            decode_frame(&bytes[..8], None),
            Err(FrameError::TruncatedHeader)
        );
        assert_eq!(
            decode_frame(&bytes[..FRAME_HEADER + 2], None),
            Err(FrameError::TruncatedBody)
        );
        let mut huge = bytes.clone();
        huge[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&huge, None),
            Err(FrameError::ImplausibleLength(_))
        ));
    }

    #[test]
    fn sequence_gap_is_detected() {
        let bytes = encode_frame(5, b"x");
        assert_eq!(
            decode_frame(&bytes, Some(4)),
            Err(FrameError::SequenceGap {
                expected: 4,
                found: 5
            })
        );
    }
}
