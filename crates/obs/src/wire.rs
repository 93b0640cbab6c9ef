//! The cross-process sketch container: what a shard ships and a router
//! folds.
//!
//! [`crate::sketch`] gives each summary its own versioned codec;
//! partitioned serving needs one more layer — a single byte blob a
//! shard can answer `GET /sketch` with, carrying *all* of its mergeable
//! state: the per-key [`KeyAccuracy`] partials of its accuracy tracker
//! and the named [`TDigest`]s behind its latency histograms. The router
//! decodes one [`SketchBundle`] per shard and folds them
//! ([`KeyAccuracy::merge`] / [`TDigest::merge`]) into a fleet-wide view
//! without ever seeing a raw sample.
//!
//! The container is length-prefixed throughout, so a corrupt or
//! truncated shard response fails decoding loudly instead of smearing
//! garbage into the fold; counts and lengths are trusted only as far
//! as the bytes that follow them (`fdc_codec::Reader::count`).

use crate::accuracy::KeyAccuracy;
use crate::sketch::{expect_version, SketchDecodeError, TDigest};
use fdc_codec::{Reader, Writer};

/// Codec version written by [`SketchBundle::encode`].
pub const SKETCH_BUNDLE_CODEC_VERSION: u8 = 1;

/// Everything mergeable one process ships to an aggregator: accuracy
/// partials (sorted by key on encode) and named latency digests.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SketchBundle {
    /// Per-key accuracy partials (one per tracked catalog node).
    pub accuracy: Vec<KeyAccuracy>,
    /// Named t-digests, e.g. one per `serve.request.ns{route=...}`
    /// series. Names are the full series keys.
    pub digests: Vec<(String, TDigest)>,
}

impl SketchBundle {
    /// Serializes as `[version][n_acc][len,bytes]*[n_dig]
    /// [name_len,name,len,bytes]*` (all lengths little-endian `u32`),
    /// each item using its own sketch codec.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64 + self.accuracy.len() * 180);
        let run = |w: &mut Writer, bytes: &[u8]| {
            w.u32(bytes.len() as u32);
            w.bytes(bytes);
        };
        w.u8(SKETCH_BUNDLE_CODEC_VERSION);
        w.u32(self.accuracy.len() as u32);
        for a in &self.accuracy {
            run(&mut w, &a.encode());
        }
        w.u32(self.digests.len() as u32);
        for (name, d) in &self.digests {
            run(&mut w, name.as_bytes());
            run(&mut w, &d.encode());
        }
        w.finish()
    }

    /// Decodes a bundle produced by [`SketchBundle::encode`].
    pub fn decode(bytes: &[u8]) -> Result<SketchBundle, SketchDecodeError> {
        fn run<'a>(r: &mut Reader<'a>) -> Result<&'a [u8], SketchDecodeError> {
            let len = r.count_u32(1)?;
            Ok(r.take(len)?)
        }
        let mut r = Reader::new(bytes);
        expect_version(&mut r, SKETCH_BUNDLE_CODEC_VERSION)?;
        // Smallest items: a length-prefixed partial (fixed size), and an
        // empty name with an empty digest.
        let n_acc = r.count_u32(4 + KeyAccuracy::ENCODED_BYTES)?;
        let mut accuracy = Vec::with_capacity(n_acc);
        for _ in 0..n_acc {
            accuracy.push(KeyAccuracy::decode(run(&mut r)?)?);
        }
        let n_dig = r.count_u32(4 + 4 + TDigest::MIN_ENCODED_BYTES)?;
        let mut digests = Vec::with_capacity(n_dig);
        for _ in 0..n_dig {
            let name = std::str::from_utf8(run(&mut r)?)
                .map_err(|_| SketchDecodeError::Corrupt("digest name utf-8"))?
                .to_string();
            digests.push((name, TDigest::decode(run(&mut r)?)?));
        }
        r.finish()?;
        Ok(SketchBundle { accuracy, digests })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::{AccuracyOptions, RollingAccuracy};

    fn sample_bundle() -> SketchBundle {
        let acc = RollingAccuracy::new(AccuracyOptions::default());
        for i in 0..9 {
            acc.record(3, 10.0 + i as f64, 10.0);
            acc.record(7, 4.0, 2.0 + i as f64);
        }
        let mut d = TDigest::new(64.0);
        for i in 0..500 {
            d.insert((i * 31 % 977) as f64);
        }
        // Structural equality after a round trip needs the buffer folded
        // (encode flushes a copy; the decoded digest is always flushed).
        d.flush();
        SketchBundle {
            accuracy: acc.summaries(),
            digests: vec![
                ("serve.request.ns{route=\"/query\"}".to_string(), d.clone()),
                ("serve.request.ns{route=\"/insert\"}".to_string(), d),
            ],
        }
    }

    #[test]
    fn bundle_codec_round_trips_exactly() {
        let bundle = sample_bundle();
        let bytes = bundle.encode();
        let back = SketchBundle::decode(&bytes).unwrap();
        assert_eq!(back.accuracy, bundle.accuracy);
        // Digests carry a local-only compression-pass counter outside
        // the codec; equality holds at the wire level.
        assert_eq!(back.encode(), bytes, "round-trip is a codec fixed point");
        for ((name, d), (orig_name, orig)) in back.digests.iter().zip(&bundle.digests) {
            assert_eq!(name, orig_name);
            assert_eq!(d.count(), orig.count());
            for q in [0.5, 0.95, 0.99] {
                assert_eq!(d.quantile(q).to_bits(), orig.quantile(q).to_bits());
            }
        }
    }

    #[test]
    fn empty_bundle_round_trips() {
        let bytes = SketchBundle::default().encode();
        let back = SketchBundle::decode(&bytes).unwrap();
        assert!(back.accuracy.is_empty() && back.digests.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        let bundle = sample_bundle();
        let bytes = bundle.encode();
        assert_eq!(
            SketchBundle::decode(&bytes[..bytes.len() - 3]),
            Err(SketchDecodeError::Truncated)
        );
        let mut wrong = bytes.clone();
        wrong[0] = 42;
        assert_eq!(
            SketchBundle::decode(&wrong),
            Err(SketchDecodeError::UnsupportedVersion(42))
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            SketchBundle::decode(&trailing),
            Err(SketchDecodeError::Corrupt(_))
        ));
        // A corrupt count prefix must fail fast, not allocate wildly.
        let mut huge = bytes;
        huge[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(SketchBundle::decode(&huge).is_err());
    }
}
