//! Durability formats: the WAL record payloads and the `F2CK`
//! checkpoint container.
//!
//! Two formats live here:
//!
//! * [`WalRecord`] — what one write-ahead-log record carries. Today a
//!   single variant, `InsertBatch`: the rows of one committed
//!   [`F2db::insert_batch`](crate::F2db::insert_batch) call, in apply
//!   order. Replaying records in sequence order reproduces the exact
//!   in-memory commit order, because the engine appends the record
//!   under the same mutex that serializes the applies.
//! * the **checkpoint container** — what
//!   [`F2db::save_checkpoint`](crate::F2db::save_checkpoint) writes: a
//!   server's shutdown, and `save_catalog` whenever a WAL is attached.
//!   A catalog file alone is not enough to restart
//!   from: replay also needs the durable WAL position the snapshot
//!   corresponds to, the pending (incomplete-time-stamp) rows, and the
//!   base series the advances have grown — the caller's data set on
//!   disk predates every advance the log absorbed. All four parts go in
//!   *one* file behind *one* atomic rename, so a crash mid-checkpoint
//!   can never tear them apart: magic `F2CK`, then the WAL sequence
//!   number, the pending rows, a base-series snapshot (aggregates are
//!   recomputed deterministically by [`Dataset::from_base`]), and the
//!   ordinary `F2DB`-encoded catalog bytes. Plain catalog files (an
//!   engine saved without a log) still open: [`is_checkpoint_container`]
//!   dispatches on the magic.

use crate::{F2dbError, Result};
use fdc_codec::{Reader, Writer};
use fdc_cube::{Coord, Dataset, NodeId};
use fdc_forecast::{Granularity, TimeSeries};

/// Magic bytes identifying a checkpoint container file.
pub const CONTAINER_MAGIC: &[u8; 4] = b"F2CK";
/// Container format version.
pub const CONTAINER_VERSION: u16 = 1;

/// One write-ahead-log record, as the engine logs it.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// The rows of one committed insert batch, in apply order.
    InsertBatch {
        /// `(base node, measure)` pairs.
        rows: Vec<(NodeId, f64)>,
        /// The sampled `(trace_id, span_id)` active when the batch was
        /// logged, if any. Carried through shipping so a follower's
        /// apply span joins the originating request's trace. Untraced
        /// batches encode as the legacy tag and decode as `None`.
        trace: Option<(u128, u64)>,
    },
}

const TAG_INSERT_BATCH: u8 = 1;
/// Tag 2: an `InsertBatch` carrying its trace identity — `u64` trace-id
/// high half, low half, span id, then the row payload of tag 1.
const TAG_INSERT_BATCH_TRACED: u8 = 2;

impl WalRecord {
    /// Encodes the record payload (framing — length, checksum, sequence
    /// number — is the WAL's job, not ours).
    pub fn encode(&self) -> Vec<u8> {
        let WalRecord::InsertBatch { rows, trace } = self;
        let mut w = Writer::with_capacity(1 + 24 + 8 + rows.len() * ROW_BYTES);
        match trace {
            Some((trace_id, span_id)) => {
                w.u8(TAG_INSERT_BATCH_TRACED);
                w.u64((trace_id >> 64) as u64);
                w.u64(*trace_id as u64);
                w.u64(*span_id);
            }
            None => w.u8(TAG_INSERT_BATCH),
        }
        write_rows(&mut w, rows);
        w.finish()
    }

    /// Decodes a record payload. A payload that does not parse is a
    /// versioned hard error: the WAL's checksum already passed, so this
    /// is a format mismatch, not a torn write.
    pub fn decode(bytes: &[u8]) -> Result<WalRecord> {
        let mut r = Reader::new(bytes);
        let trace = match r.u8()? {
            TAG_INSERT_BATCH => None,
            TAG_INSERT_BATCH_TRACED => Some(read_trace(&mut r)?),
            t => {
                return Err(F2dbError::Storage(format!(
                    "unknown wal record tag {t} (this build reads wal record format v{CONTAINER_VERSION})"
                )))
            }
        };
        let rows = read_rows(&mut r)?;
        r.finish()?;
        Ok(WalRecord::InsertBatch { rows, trace })
    }

    /// Reads just the trace identity off an encoded record, without
    /// decoding (or cloning) the row payload — the ship path uses this
    /// to let a `/wal/fetch` span join the originating insert's trace.
    /// `None` for untraced records or anything that does not parse.
    pub fn peek_trace(bytes: &[u8]) -> Option<(u128, u64)> {
        let mut r = Reader::new(bytes);
        if r.u8().ok()? != TAG_INSERT_BATCH_TRACED {
            return None;
        }
        read_trace(&mut r).ok()
    }
}

/// One encoded `(node, value)` row.
const ROW_BYTES: usize = 8 + 8;

fn write_rows(w: &mut Writer, rows: &[(NodeId, f64)]) {
    w.len(rows.len());
    for &(node, value) in rows {
        w.u64(node as u64);
        w.f64(value);
    }
}

fn read_rows(r: &mut Reader<'_>) -> Result<Vec<(NodeId, f64)>> {
    let n = r.count(ROW_BYTES)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        rows.push((r.u64()? as NodeId, r.f64()?));
    }
    Ok(rows)
}

fn read_trace(r: &mut Reader<'_>) -> Result<(u128, u64)> {
    let (hi, lo, span_id) = (r.u64()?, r.u64()?, r.u64()?);
    Ok(((u128::from(hi) << 64) | u128::from(lo), span_id))
}

/// Whether `bytes` is a checkpoint container (as opposed to a plain
/// `F2DB` catalog file).
pub fn is_checkpoint_container(bytes: &[u8]) -> bool {
    bytes.starts_with(CONTAINER_MAGIC)
}

fn granularity_tag(g: Granularity) -> u8 {
    match g {
        Granularity::Hourly => 0,
        Granularity::Daily => 1,
        Granularity::Weekly => 2,
        Granularity::Monthly => 3,
        Granularity::Quarterly => 4,
        Granularity::Yearly => 5,
    }
}

fn granularity_from_tag(tag: u8) -> Result<Granularity> {
    Ok(match tag {
        0 => Granularity::Hourly,
        1 => Granularity::Daily,
        2 => Granularity::Weekly,
        3 => Granularity::Monthly,
        4 => Granularity::Quarterly,
        5 => Granularity::Yearly,
        t => {
            return Err(F2dbError::Storage(format!(
                "bad granularity tag {t} in checkpoint container"
            )))
        }
    })
}

/// Encodes a checkpoint container: the durable WAL position, the
/// pending rows, the base-series snapshot of `dataset`, and the encoded
/// catalog. Everything replay-on-open needs, in one atomically-written
/// file.
pub fn encode_checkpoint(
    wal_seq: u64,
    pending: &[(NodeId, f64)],
    dataset: &Dataset,
    catalog_bytes: &[u8],
) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 + catalog_bytes.len());
    w.header(CONTAINER_MAGIC, CONTAINER_VERSION);
    w.u64(wal_seq);
    write_rows(&mut w, pending);
    let base = dataset.graph().base_nodes();
    w.len(base.len());
    for &b in base {
        let coord = dataset.graph().coord(b);
        w.len(coord.values().len());
        for &v in coord.values() {
            w.u32(v);
        }
        let series = dataset.series(b);
        w.u64(series.start() as u64);
        w.u8(granularity_tag(series.granularity()));
        w.f64s(series.values());
    }
    w.len(catalog_bytes.len());
    w.bytes(catalog_bytes);
    w.finish()
}

/// A decoded checkpoint container.
#[derive(Debug, Clone)]
pub struct DecodedCheckpoint {
    /// The WAL sequence number this snapshot is consistent with; replay
    /// applies only records past it.
    pub wal_seq: u64,
    /// Inserts that were waiting for a complete time stamp.
    pub pending: Vec<(NodeId, f64)>,
    /// Base series at checkpoint time, in base-node order.
    pub base: Vec<(Coord, TimeSeries)>,
    /// The embedded `F2DB`-encoded catalog.
    pub catalog_bytes: Vec<u8>,
}

/// Decodes a checkpoint container written by [`encode_checkpoint`].
pub fn decode_checkpoint(bytes: &[u8]) -> Result<DecodedCheckpoint> {
    let mut r = Reader::new(bytes);
    r.header(CONTAINER_MAGIC, CONTAINER_VERSION..=CONTAINER_VERSION)?;
    let wal_seq = r.u64()?;
    let pending = read_rows(&mut r)?;
    // The smallest base series: no dimensions, a start, a granularity
    // and an empty run of values.
    let n_base = r.count(8 + 8 + 1 + 8)?;
    let mut base = Vec::with_capacity(n_base);
    for _ in 0..n_base {
        let n_dims = r.count(4)?;
        let mut coord = Vec::with_capacity(n_dims);
        for _ in 0..n_dims {
            coord.push(r.u32()?);
        }
        let start = r.u64()? as i64;
        let granularity = granularity_from_tag(r.u8()?)?;
        let values = r.f64s()?;
        base.push((
            Coord::new(coord),
            TimeSeries::with_start(values, start, granularity),
        ));
    }
    let catalog_len = r.u64()?;
    let catalog_bytes = r.rest();
    if catalog_bytes.len() as u64 != catalog_len {
        return Err(F2dbError::Storage(format!(
            "checkpoint container declares {catalog_len} catalog bytes, {} present",
            catalog_bytes.len()
        )));
    }
    Ok(DecodedCheckpoint {
        wal_seq,
        pending,
        base,
        catalog_bytes: catalog_bytes.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_record_round_trips() {
        let records = [
            WalRecord::InsertBatch {
                rows: vec![],
                trace: None,
            },
            WalRecord::InsertBatch {
                rows: vec![(0, 1.5), (7, -2.25), (usize::MAX >> 1, 0.0)],
                trace: None,
            },
            WalRecord::InsertBatch {
                rows: vec![(3, 4.5)],
                trace: Some((
                    0xfeed_f00d_dead_beef_cafe_babe_0123_4567,
                    0x89ab_cdef_0011_2233,
                )),
            },
        ];
        for r in &records {
            let bytes = r.encode();
            assert_eq!(&WalRecord::decode(&bytes).unwrap(), r);
        }
    }

    #[test]
    fn untraced_records_keep_the_legacy_tag() {
        // Backward/forward compatibility: an untraced batch must encode
        // byte-identically to the pre-trace format (tag 1), so logs
        // written by this build replay on the previous one as long as
        // tracing was off.
        let bytes = WalRecord::InsertBatch {
            rows: vec![(1, 2.0)],
            trace: None,
        }
        .encode();
        assert_eq!(bytes[0], TAG_INSERT_BATCH);
        let traced = WalRecord::InsertBatch {
            rows: vec![(1, 2.0)],
            trace: Some((9, 9)),
        }
        .encode();
        assert_eq!(traced[0], TAG_INSERT_BATCH_TRACED);
        assert_eq!(traced.len(), bytes.len() + 24);
    }

    #[test]
    fn unknown_record_tag_is_versioned_error() {
        let err = WalRecord::decode(&[0xEE]).unwrap_err();
        match err {
            F2dbError::Storage(msg) => {
                assert!(msg.contains("unknown wal record tag"), "{msg}");
                assert!(msg.contains('v'), "{msg}");
            }
            other => panic!("expected Storage, got {other:?}"),
        }
    }

    #[test]
    fn truncated_record_is_error() {
        let bytes = WalRecord::InsertBatch {
            rows: vec![(1, 2.0), (3, 4.0)],
            trace: Some((5, 6)),
        }
        .encode();
        for cut in 1..bytes.len() {
            assert!(
                WalRecord::decode(&bytes[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn checkpoint_round_trips_exact_bits() {
        let ds = fdc_datagen::tourism_proxy(1);
        // The third value's decimal rendering would lose bits in any
        // format that stored decimals instead of bit patterns.
        let pending = vec![
            (3usize, 1.5),
            (7, -0.0),
            (11, f64::from_bits(0x3FF0_0000_0000_0001)),
        ];
        let bytes = encode_checkpoint(41, &pending, &ds, b"catalog bytes");
        let cp = decode_checkpoint(&bytes).unwrap();
        assert_eq!(cp.wal_seq, 41);
        assert_eq!(cp.catalog_bytes, b"catalog bytes");
        let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(cp.pending.len(), pending.len());
        for ((n1, v1), (n2, v2)) in pending.iter().zip(&cp.pending) {
            assert_eq!((n1, v1.to_bits()), (n2, v2.to_bits()));
        }
        let base = ds.graph().base_nodes();
        assert_eq!(cp.base.len(), base.len());
        for ((coord, series), &b) in cp.base.iter().zip(base) {
            assert_eq!(coord, ds.graph().coord(b));
            assert_eq!(series.start(), ds.series(b).start());
            assert_eq!(bits(series.values()), bits(ds.series(b).values()));
        }
        // A catalog shorter or longer than declared is refused.
        assert!(decode_checkpoint(&bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes;
        longer.push(0);
        assert!(decode_checkpoint(&longer).is_err());
    }

    #[test]
    fn container_magic_dispatch() {
        assert!(is_checkpoint_container(b"F2CKxxxx"));
        assert!(!is_checkpoint_container(b"F2DBxxxx"));
        assert!(!is_checkpoint_container(b"F2"));
        assert!(decode_checkpoint(b"F2DB\x02\x00").is_err());
        // Unsupported version.
        let mut bad = Vec::new();
        bad.extend_from_slice(CONTAINER_MAGIC);
        bad.extend_from_slice(&99u16.to_le_bytes());
        let err = decode_checkpoint(&bad).unwrap_err();
        assert!(matches!(err, F2dbError::Storage(_)));
    }
}
