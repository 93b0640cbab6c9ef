//! # fdc-codec — the workspace's one byte-codec kit
//!
//! Every binary format of the workspace — catalog, checkpoint
//! container, WAL records, frames and segments, ship chunks, sampling
//! planes, sketches — is written with [`Writer`] and read with
//! [`Reader`]; every hash that ends up in persisted bytes or in a
//! cross-process decision comes from [`hash`]. Nothing else in the
//! workspace turns bytes into integers.
//!
//! All integers and floats are little-endian; floats travel as their
//! IEEE-754 bit patterns, so round trips are exact.
//!
//! ## How a decoded length is trusted
//!
//! A length read from outside is accepted only if the bytes that are
//! left could hold that many elements: [`Reader::count`] takes the size
//! of the *smallest possible* encoded element and refuses a count whose
//! product with it exceeds what remains. So `Vec::with_capacity(count)`
//! is safe after it, a decoder's memory is at most a constant multiple
//! of its input, and there is no plausibility constant to tune — the
//! input's own size is the bound (and inputs are bounded where they
//! enter: a request's `max_body`, the client's response cap, a file).

pub mod hash;
pub mod json;

use std::fmt;
use std::ops::RangeInclusive;

/// Appends little-endian values to a growing byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// An empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Writes a format header: the magic bytes, then the version.
    pub fn header(&mut self, magic: &[u8], version: u16) {
        self.bytes(magic);
        self.u16(version);
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length or count as a `u64` (what [`Reader::count`]
    /// reads back).
    #[inline]
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Appends raw bytes, with no length prefix.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a count-prefixed run of `f64`s (what [`Reader::f64s`]
    /// reads back).
    pub fn f64s(&mut self, values: &[f64]) {
        self.len(values.len());
        for &v in values {
            self.f64(v);
        }
    }

    /// The bytes written so far, for a format that hashes itself.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// The bytes written so far.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Why bytes could not be decoded. Each crate maps this into its own
/// public error type with one `From`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes end before the value, run or count they declare.
    Truncated,
    /// The leading magic bytes are not this format's.
    BadMagic,
    /// The header names a version this build does not read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
        /// The oldest version this build reads.
        min: u16,
        /// The newest version this build reads.
        max: u16,
    },
    /// The bytes parse but break an invariant of the format.
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => {
                write!(f, "truncated: the bytes end before what they declare")
            }
            DecodeError::BadMagic => write!(f, "bad magic: not this format"),
            DecodeError::UnsupportedVersion { found, min, max } => write!(
                f,
                "unsupported version {found} (this build reads versions {min} through {max})"
            ),
            DecodeError::Corrupt(what) => write!(f, "corrupt: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Reads little-endian values off the front of a byte slice. Every
/// method either consumes exactly what it returns or fails without
/// panicking, whatever the bytes are.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { buf: bytes }
    }

    /// Checks a format header written by [`Writer::header`] and returns
    /// its version, which must lie in `versions`.
    pub fn header(
        &mut self,
        magic: &[u8],
        versions: RangeInclusive<u16>,
    ) -> Result<u16, DecodeError> {
        if self.take(magic.len())? != magic {
            return Err(DecodeError::BadMagic);
        }
        let found = self.u16()?;
        if !versions.contains(&found) {
            return Err(DecodeError::UnsupportedVersion {
                found,
                min: *versions.start(),
                max: *versions.end(),
            });
        }
        Ok(found)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, tail) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated)?;
        self.buf = tail;
        Ok(*head)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    /// Reads a `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        self.u64().map(f64::from_bits)
    }

    /// Takes the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, tail) = self.buf.split_at_checked(n).ok_or(DecodeError::Truncated)?;
        self.buf = tail;
        Ok(head)
    }

    /// How many bytes are left.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Accepts `declared` as an element count only if that many
    /// elements of at least `min_elem_bytes` bytes each could still
    /// follow — the one length-trust rule (see the crate docs).
    fn trust(&self, declared: u64, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        usize::try_from(declared)
            .ok()
            .filter(|n| {
                n.checked_mul(min_elem_bytes)
                    .is_some_and(|bytes| bytes <= self.buf.len())
            })
            .ok_or(DecodeError::Truncated)
    }

    /// Reads a `u64` count written by [`Writer::len`] of elements whose
    /// smallest encoding is `min_elem_bytes` bytes.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let declared = self.u64()?;
        self.trust(declared, min_elem_bytes)
    }

    /// [`Reader::count`] for the formats whose counts are `u32`s.
    pub fn count_u32(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let declared = self.u32()?;
        self.trust(declared.into(), min_elem_bytes)
    }

    /// Reads a count-prefixed run of `f64`s written by
    /// [`Writer::f64s`].
    pub fn f64s(&mut self) -> Result<Vec<f64>, DecodeError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Takes everything that is left.
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    /// Ends the read; bytes left over are an error.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::Corrupt("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.header(b"TEST", 3);
        w.u8(7);
        w.u16(0xBEEF);
        w.u32(123_456);
        w.u64(u64::MAX - 5);
        w.f64(-1.5e10);
        w.f64s(&[1.0, -0.0, f64::INFINITY]);
        w.len(2);
        w.bytes(b"ab");
        let bytes = w.finish();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.header(b"TEST", 1..=3), Ok(3));
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(123_456));
        assert_eq!(r.u64(), Ok(u64::MAX - 5));
        assert_eq!(r.f64(), Ok(-1.5e10));
        let back = r.f64s().unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back[1].to_bits(), (-0.0f64).to_bits());
        let n = r.count(1).unwrap();
        assert_eq!(r.take(n), Ok(&b"ab"[..]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn header_classifies_magic_and_version() {
        let mut w = Writer::new();
        w.header(b"TEST", 9);
        let bytes = w.finish();
        assert_eq!(
            Reader::new(&bytes).header(b"NOPE", 1..=9),
            Err(DecodeError::BadMagic)
        );
        assert_eq!(
            Reader::new(&bytes).header(b"TEST", 1..=2),
            Err(DecodeError::UnsupportedVersion {
                found: 9,
                min: 1,
                max: 2
            })
        );
        assert_eq!(
            Reader::new(&bytes[..5]).header(b"TEST", 1..=9),
            Err(DecodeError::Truncated)
        );
        assert_eq!(
            Reader::new(b"TE").header(b"TEST", 1..=9),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.u32(1);
        w.f64s(&[1.0, 2.0, 3.0]);
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let got = r.u32().and_then(|_| r.f64s());
            assert_eq!(got, Err(DecodeError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn a_count_is_trusted_only_if_its_elements_could_follow() {
        // Four elements of eight bytes fit in 32 bytes; five do not.
        let mut w = Writer::new();
        w.len(4);
        w.bytes(&[0; 32]);
        let bytes = w.finish();
        assert_eq!(Reader::new(&bytes).count(8), Ok(4));
        assert_eq!(Reader::new(&bytes).count(9), Err(DecodeError::Truncated));
        // A count no memory could hold fails the same way, whatever
        // the element size — including sizes whose product wraps.
        for declared in [u64::MAX, 1 << 63, 1 << 40] {
            let mut w = Writer::new();
            w.u64(declared);
            let bytes = w.finish();
            for min in [1, 8, usize::MAX] {
                assert_eq!(
                    Reader::new(&bytes).count(min),
                    Err(DecodeError::Truncated),
                    "{declared} x {min}"
                );
            }
            assert_eq!(Reader::new(&bytes).f64s(), Err(DecodeError::Truncated));
        }
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.finish();
        assert_eq!(
            Reader::new(&bytes).count_u32(16),
            Err(DecodeError::Truncated)
        );
        // Zero elements always fit.
        let mut w = Writer::new();
        w.len(0);
        let bytes = w.finish();
        assert_eq!(Reader::new(&bytes).count(1 << 20), Ok(0));
    }

    #[test]
    fn rest_and_finish_account_for_every_byte() {
        let mut r = Reader::new(b"abcdef");
        assert_eq!(r.take(2), Ok(&b"ab"[..]));
        assert_eq!(r.remaining(), 4);
        assert_eq!(
            r.clone().finish(),
            Err(DecodeError::Corrupt("trailing bytes"))
        );
        assert_eq!(r.take(5), Err(DecodeError::Truncated));
        assert_eq!(r.rest(), b"cdef");
        assert_eq!(r.finish(), Ok(()));
    }
}
