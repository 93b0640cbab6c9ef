//! Mergeable sketches: a t-digest for tail quantiles and an exactly
//! mergeable moment summary.
//!
//! The log-bucketed [`crate::Histogram`] bounds percentile error by the
//! bucket width (≤ 2× the true value) — fine for dashboards, too coarse
//! for latency SLOs at p99/p999. And `RollingAccuracy`'s raw error
//! windows cannot be combined across shards or processes. This module
//! supplies the two primitives that fix both:
//!
//! * [`TDigest`] — Dunning's *merging* t-digest: constant space
//!   (configurable compression δ), O(1) amortized insert, sub-percent
//!   rank error that *tightens* towards the tails, and a `merge` that
//!   lets per-thread or per-process digests combine into one truthful
//!   global distribution.
//! * [`MomentSummary`] — n, mean, M2/M3 (Welford), min/max and Σ|x|,
//!   with an **exact** pooled `merge` (Chan et al.'s parallel update):
//!   merging the same partials in the same order is bit-for-bit
//!   reproducible no matter which thread or process produced each
//!   partial. Feed it forecast errors and `mean`/`abs_mean`/`stddev`
//!   give bias, MAE and error spread — the inputs of variance-aware
//!   drift detection.
//!
//! Both carry a versioned byte codec ([`TDigest::encode`] /
//! [`MomentSummary::encode`]) so partial aggregates can cross process
//! boundaries alongside WAL shipping: a router decodes per-shard
//! sketches and merges them without ever seeing raw samples.
//!
//! Everything here is `std`-only and deterministic: no clocks, no
//! randomness, total-order float comparisons.

use fdc_codec::{DecodeError, Reader, Writer};
use std::fmt;

// ---------------------------------------------------------------------
// Codec plumbing
// ---------------------------------------------------------------------

/// Codec version written by [`MomentSummary::encode`].
pub const MOMENT_CODEC_VERSION: u8 = 1;
/// Codec version written by [`TDigest::encode`].
pub const DIGEST_CODEC_VERSION: u8 = 1;

/// Why a sketch could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SketchDecodeError {
    /// The buffer ended before the declared payload.
    Truncated,
    /// The leading version byte is not one this build understands.
    UnsupportedVersion(u8),
    /// The payload decoded but violates an invariant (negative weight,
    /// non-finite centroid, inconsistent counts).
    Corrupt(&'static str),
}

impl fmt::Display for SketchDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SketchDecodeError::Truncated => write!(f, "sketch payload truncated"),
            SketchDecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported sketch codec version {v}")
            }
            SketchDecodeError::Corrupt(what) => write!(f, "corrupt sketch payload: {what}"),
        }
    }
}

impl std::error::Error for SketchDecodeError {}

impl From<DecodeError> for SketchDecodeError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => SketchDecodeError::Truncated,
            DecodeError::Corrupt(what) => SketchDecodeError::Corrupt(what),
            // Sketches lead with a one-byte version their decoders
            // check themselves; the kit's header errors cannot arise.
            DecodeError::BadMagic | DecodeError::UnsupportedVersion { .. } => {
                SketchDecodeError::Corrupt("header")
            }
        }
    }
}

/// Reads and checks the leading one-byte codec version of a sketch.
pub(crate) fn expect_version(r: &mut Reader<'_>, version: u8) -> Result<(), SketchDecodeError> {
    match r.u8()? {
        found if found == version => Ok(()),
        found => Err(SketchDecodeError::UnsupportedVersion(found)),
    }
}

// ---------------------------------------------------------------------
// MomentSummary
// ---------------------------------------------------------------------

/// An exactly mergeable running-moments summary: count, mean, second
/// and third central moments (Welford), min/max, and the sum of
/// absolute values (so a summary over forecast errors yields the MAE).
///
/// `merge` uses the pooled parallel-update formulas, so
/// `merge(merge(s1, s2), s3)` over partials equals — bit for bit — the
/// same partials merged on any other thread or decoded from bytes on
/// another process. (Merging is exact over *partials*; like any
/// floating-point accumulation, a different partitioning of the raw
/// stream may differ in the last ulp.)
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MomentSummary {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    min: f64,
    max: f64,
    abs_sum: f64,
}

impl Default for MomentSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl MomentSummary {
    /// An empty summary.
    pub fn new() -> Self {
        MomentSummary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            abs_sum: 0.0,
        }
    }

    /// A summary of a single observation.
    pub fn of(x: f64) -> Self {
        let mut s = Self::new();
        s.insert(x);
        s
    }

    /// Absorbs one observation (non-finite values are ignored — a NaN
    /// must not poison a summary that crosses process boundaries).
    pub fn insert(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let n0 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let term1 = delta * delta_n * n0;
        self.mean += delta_n;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.abs_sum += x.abs();
    }

    /// Pooled merge of two summaries (Chan et al.). Deterministic: the
    /// same operands in the same order produce bit-identical results.
    pub fn merge(&self, other: &MomentSummary) -> MomentSummary {
        if other.n == 0 {
            return *self;
        }
        if self.n == 0 {
            return *other;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * nb / n;
        let m2 = self.m2 + other.m2 + delta * delta * na * nb / n;
        let m3 = self.m3
            + other.m3
            + delta * delta * delta * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        MomentSummary {
            n: self.n.saturating_add(other.n),
            mean,
            m2,
            m3,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            abs_sum: self.abs_sum + other.abs_sum,
        }
    }

    /// Number of absorbed observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Mean of absolute values — the MAE when the summary holds forecast
    /// errors (0 when empty).
    pub fn abs_mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.abs_sum / self.n as f64
        }
    }

    /// Sum of absolute values.
    pub fn abs_sum(&self) -> f64 {
        self.abs_sum
    }

    /// Population variance M2/n (0 when empty).
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.m2 / self.n as f64).max(0.0)
        }
    }

    /// Sample variance M2/(n−1); 0 until two observations exist, so a
    /// 1-sample baseline can never divide by zero.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n as f64 - 1.0)).max(0.0)
        }
    }

    /// Sample standard deviation (0 until two observations exist).
    pub fn stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean, `stddev / √n` (0 until two
    /// observations exist). This is the scale of a confidence interval
    /// around [`MomentSummary::mean`]: callers building intervals use
    /// `z · stderr()` instead of recomputing `√(m2 / (n−1) / n)` by
    /// hand.
    pub fn stderr(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.stddev() / (self.n as f64).sqrt()
        }
    }

    /// Skewness g1 = √n·M3 / M2^{3/2} (0 when undefined).
    pub fn skewness(&self) -> f64 {
        if self.n < 2 || self.m2 <= 0.0 {
            0.0
        } else {
            (self.n as f64).sqrt() * self.m3 / self.m2.powf(1.5)
        }
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Serializes as `[version][n][mean][m2][m3][min][max][abs_sum]`
    /// (little-endian, f64 bit patterns — exact round-trip).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(MomentSummary::ENCODED_BYTES);
        w.u8(MOMENT_CODEC_VERSION);
        w.u64(self.n);
        for v in [
            self.mean,
            self.m2,
            self.m3,
            self.min,
            self.max,
            self.abs_sum,
        ] {
            w.f64(v);
        }
        w.finish()
    }

    /// The fixed size of an encoded summary.
    pub(crate) const ENCODED_BYTES: usize = 1 + 7 * 8;

    /// Decodes a summary produced by [`MomentSummary::encode`].
    pub fn decode(bytes: &[u8]) -> Result<MomentSummary, SketchDecodeError> {
        let mut r = Reader::new(bytes);
        expect_version(&mut r, MOMENT_CODEC_VERSION)?;
        let s = MomentSummary {
            n: r.u64()?,
            mean: r.f64()?,
            m2: r.f64()?,
            m3: r.f64()?,
            min: r.f64()?,
            max: r.f64()?,
            abs_sum: r.f64()?,
        };
        r.finish()?;
        if s.n > 0 && (!s.mean.is_finite() || s.m2 < 0.0 || s.min > s.max) {
            return Err(SketchDecodeError::Corrupt("moment invariants"));
        }
        // No stream is that long, and the headroom keeps `n + 1` and a
        // pairwise merge from wrapping.
        if s.n > i64::MAX as u64 {
            return Err(SketchDecodeError::Corrupt("count"));
        }
        Ok(s)
    }
}

// ---------------------------------------------------------------------
// TDigest
// ---------------------------------------------------------------------

/// One weighted centroid: `weight` samples summarized by their mean.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Centroid {
    mean: f64,
    weight: f64,
}

/// Default compression δ (≈ the retained centroid budget).
pub const DEFAULT_COMPRESSION: f64 = 200.0;
/// Largest compression δ a digest is built or decoded with. The
/// compression sizes the sample buffer and every compression pass, so a
/// decoded one must be bounded; real digests use 50–1000.
pub const MAX_COMPRESSION: f64 = 10_000.0;

/// A merging t-digest (Dunning): a constant-space quantile sketch whose
/// rank error shrinks towards the distribution tails — exactly where
/// latency SLOs live.
///
/// Samples buffer in an unsorted `Vec`; when the buffer fills (or on
/// [`TDigest::merge`] / [`TDigest::flush`]) it is sorted and merged
/// into the centroid list under the `k1` scale function
/// `k(q) = δ/2π · asin(2q−1)`, which caps centroid width near q=0 and
/// q=1. Two digests merge by replaying one's centroids into the other's
/// buffer — associative up to the usual t-digest approximation error.
///
/// Deterministic by construction: sorting uses `f64::total_cmp`, and no
/// randomness or clocks are involved, so the same insert/merge sequence
/// always yields the same centroids (and the same [`TDigest::encode`]
/// bytes).
#[derive(Debug, Clone, PartialEq)]
pub struct TDigest {
    compression: f64,
    centroids: Vec<Centroid>,
    buffer: Vec<Centroid>,
    /// Buffered samples that trigger a compression pass (fixed at
    /// construction; `Vec::capacity` grows on push, so it cannot serve
    /// as the trigger).
    buffer_limit: usize,
    min: f64,
    max: f64,
    /// Total weight across centroids and buffer.
    weight: f64,
    /// Compression passes performed (observability of the sketch plane).
    compressions: u64,
}

impl Default for TDigest {
    fn default() -> Self {
        TDigest::new(DEFAULT_COMPRESSION)
    }
}

/// Scale function `k1` and its inverse, in units where one centroid
/// spans one `k`-unit.
fn k_of(q: f64, compression: f64) -> f64 {
    compression / (2.0 * std::f64::consts::PI) * (2.0 * q - 1.0).clamp(-1.0, 1.0).asin()
}

fn q_of(k: f64, compression: f64) -> f64 {
    ((k * 2.0 * std::f64::consts::PI / compression).sin() + 1.0) / 2.0
}

impl TDigest {
    /// Creates an empty digest with the given compression δ (clamped to
    /// `20..=`[`MAX_COMPRESSION`]; higher δ → more centroids → lower
    /// rank error).
    pub fn new(compression: f64) -> Self {
        let compression = if compression.is_finite() {
            compression.clamp(20.0, MAX_COMPRESSION)
        } else {
            DEFAULT_COMPRESSION
        };
        // Amortizes sort cost: one compression pass per ~4δ inserts.
        let buffer_limit = ((4.0 * compression) as usize).max(32);
        TDigest {
            compression,
            centroids: Vec::new(),
            // Grown on first use: a decoded digest may never see an
            // insert, and a bundle can carry very many of them.
            buffer: Vec::new(),
            buffer_limit,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            weight: 0.0,
            compressions: 0,
        }
    }

    /// The configured compression δ.
    pub fn compression(&self) -> f64 {
        self.compression
    }

    /// Total number of absorbed samples (sum of weights).
    pub fn count(&self) -> u64 {
        self.weight as u64
    }

    /// True when nothing was inserted.
    pub fn is_empty(&self) -> bool {
        self.weight == 0.0
    }

    /// Smallest absorbed sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.min)
    }

    /// Largest absorbed sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (!self.is_empty()).then_some(self.max)
    }

    /// Centroids currently retained (after the last compression).
    pub fn centroid_count(&self) -> usize {
        self.centroids.len()
    }

    /// Compression passes performed so far.
    pub fn compressions(&self) -> u64 {
        self.compressions
    }

    /// Absorbs one sample (non-finite samples are ignored).
    pub fn insert(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.buffer.push(Centroid {
            mean: x,
            weight: 1.0,
        });
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.weight += 1.0;
        if self.buffer.len() >= self.buffer_limit {
            self.compress();
        }
    }

    /// Merges `other` into `self` (other is unchanged). Weight, min and
    /// max pool exactly; quantiles pool up to t-digest accuracy.
    pub fn merge(&mut self, other: &TDigest) {
        if other.weight == 0.0 {
            return;
        }
        self.buffer.extend_from_slice(&other.centroids);
        self.buffer.extend_from_slice(&other.buffer);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.weight += other.weight;
        self.compress();
    }

    /// Folds any buffered samples into the centroid list.
    pub fn flush(&mut self) {
        if !self.buffer.is_empty() {
            self.compress();
        }
    }

    /// One merging-digest compression pass: take the pending points and
    /// the retained centroids in order of their means, then greedily
    /// coalesce neighbours while each stays within its `k1` width budget.
    ///
    /// The centroids come out of the last pass in order, so only the
    /// buffer needs a real sort (sorting a sorted run is one pass; it
    /// repairs a coalesced mean that rounded past its neighbour, and a
    /// decoded list). The two runs are then merged, a centroid going
    /// before a point of equal mean: exactly the stable sort of the
    /// centroids followed by the buffer.
    fn compress(&mut self) {
        if self.buffer.is_empty() && self.centroids.len() <= (self.compression as usize) * 2 {
            return;
        }
        let by_mean = |a: &Centroid, b: &Centroid| a.mean.total_cmp(&b.mean);
        let mut old = std::mem::take(&mut self.centroids);
        old.sort_by(by_mean);
        let mut old = old.into_iter().peekable();
        self.buffer.sort_by(by_mean);
        let mut new = self.buffer.drain(..).peekable();
        let mut points = std::iter::from_fn(|| match (old.peek(), new.peek()) {
            (Some(a), Some(b)) if by_mean(b, a).is_lt() => new.next(),
            (Some(_), _) => old.next(),
            (None, _) => new.next(),
        });
        let Some(mut cur) = points.next() else {
            return;
        };
        let total: f64 = self.weight;
        let mut merged: Vec<Centroid> = Vec::with_capacity(self.compression as usize * 2);
        let mut w_so_far = 0.0;
        let mut limit = total * q_of(k_of(0.0, self.compression) + 1.0, self.compression);
        for p in points {
            let proposed = cur.weight + p.weight;
            if w_so_far + proposed <= limit {
                // Coalesce: weighted mean keeps the centroid unbiased.
                cur.mean = (cur.mean * cur.weight + p.mean * p.weight) / proposed;
                cur.weight = proposed;
            } else {
                w_so_far += cur.weight;
                limit = total
                    * q_of(
                        k_of(w_so_far / total, self.compression) + 1.0,
                        self.compression,
                    );
                merged.push(cur);
                cur = p;
            }
        }
        merged.push(cur);
        self.centroids = merged;
        self.compressions += 1;
    }

    /// Estimated value of the `q`-quantile (`q` clamped to `[0, 1]`;
    /// 0.0 when empty). Interpolates linearly between centroid means,
    /// anchored at the exact observed min and max.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        if !self.buffer.is_empty() {
            // Read-only callers pay a one-off clone; the registry's
            // snapshot path flushes first and never takes this branch.
            let mut flushed = self.clone();
            flushed.flush();
            return flushed.quantile(q);
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.weight;
        // Positions of centroid means along the cumulative-weight axis:
        // half a centroid's weight sits below its mean.
        let mut cum = 0.0;
        let mut prev_pos = 0.0;
        let mut prev_mean = self.min;
        for c in &self.centroids {
            let pos = cum + c.weight / 2.0;
            if target < pos {
                let span = pos - prev_pos;
                let frac = if span > 0.0 {
                    (target - prev_pos) / span
                } else {
                    0.0
                };
                return (prev_mean + frac * (c.mean - prev_mean)).clamp(self.min, self.max);
            }
            cum += c.weight;
            prev_pos = pos;
            prev_mean = c.mean;
        }
        let span = self.weight - prev_pos;
        let frac = if span > 0.0 {
            (target - prev_pos) / span
        } else {
            1.0
        };
        (prev_mean + frac * (self.max - prev_mean)).clamp(self.min, self.max)
    }

    /// Serializes as `[version][compression][weight][min][max]
    /// [n_centroids][mean, weight]*` (little-endian, f64 bit patterns).
    /// Buffered samples are folded in first, so `decode(encode(d))`
    /// reproduces the digest exactly.
    pub fn encode(&self) -> Vec<u8> {
        let flushed;
        let d = if self.buffer.is_empty() {
            self
        } else {
            let mut f = self.clone();
            f.flush();
            flushed = f;
            &flushed
        };
        let mut w = Writer::with_capacity(TDigest::MIN_ENCODED_BYTES + d.centroids.len() * 16);
        w.u8(DIGEST_CODEC_VERSION);
        for v in [d.compression, d.weight, d.min, d.max] {
            w.f64(v);
        }
        w.u32(d.centroids.len() as u32);
        for c in &d.centroids {
            w.f64(c.mean);
            w.f64(c.weight);
        }
        w.finish()
    }

    /// The size of an encoded digest with no centroids.
    pub(crate) const MIN_ENCODED_BYTES: usize = 1 + 4 * 8 + 4;

    /// Decodes a digest produced by [`TDigest::encode`].
    pub fn decode(bytes: &[u8]) -> Result<TDigest, SketchDecodeError> {
        let mut r = Reader::new(bytes);
        expect_version(&mut r, DIGEST_CODEC_VERSION)?;
        let compression = r.f64()?;
        let weight = r.f64()?;
        let min = r.f64()?;
        let max = r.f64()?;
        let n = r.count_u32(8 + 8)?;
        if !(20.0..=MAX_COMPRESSION).contains(&compression) {
            return Err(SketchDecodeError::Corrupt("compression"));
        }
        if !weight.is_finite() || weight < 0.0 {
            return Err(SketchDecodeError::Corrupt("weight"));
        }
        let mut centroids = Vec::with_capacity(n);
        let mut sum = 0.0;
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..n {
            let mean = r.f64()?;
            let w = r.f64()?;
            if !mean.is_finite() || !w.is_finite() || w <= 0.0 {
                return Err(SketchDecodeError::Corrupt("centroid"));
            }
            if mean < prev {
                return Err(SketchDecodeError::Corrupt("centroid order"));
            }
            prev = mean;
            sum += w;
            centroids.push(Centroid { mean, weight: w });
        }
        r.finish()?;
        if weight > 0.0 && (sum - weight).abs() > weight * 1e-9 {
            return Err(SketchDecodeError::Corrupt("weight total"));
        }
        // `quantile` clamps into `[min, max]`, which panics on a NaN or
        // inverted range.
        if weight > 0.0 && (min.is_nan() || max.is_nan() || min > max) {
            return Err(SketchDecodeError::Corrupt("min/max"));
        }
        let mut d = TDigest::new(compression);
        d.centroids = centroids;
        d.min = if weight > 0.0 { min } else { f64::INFINITY };
        d.max = if weight > 0.0 { max } else { f64::NEG_INFINITY };
        d.weight = weight;
        Ok(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- MomentSummary ------------------------------------------------

    #[test]
    fn moments_match_hand_computation() {
        let mut s = MomentSummary::new();
        for x in [2.0, -4.0, 6.0, -8.0] {
            s.insert(x);
        }
        assert_eq!(s.count(), 4);
        assert!((s.mean() - (-1.0)).abs() < 1e-12);
        assert!((s.abs_mean() - 5.0).abs() < 1e-12);
        // Population variance of {2,-4,6,-8} around -1: (9+9+49+49)/4 = 29.
        assert!((s.variance() - 29.0).abs() < 1e-9, "{}", s.variance());
        assert!((s.sample_variance() - 116.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.min(), Some(-8.0));
        assert_eq!(s.max(), Some(6.0));
    }

    #[test]
    fn stderr_matches_pinned_golden_values() {
        // Golden: {2, -4, 6, -8} has sample variance 116/3, so
        // stderr = √(116/3)/√4 = √(116/3)/2 = 3.1091263510296048.
        let mut s = MomentSummary::new();
        for x in [2.0, -4.0, 6.0, -8.0] {
            s.insert(x);
        }
        assert!(
            (s.stderr() - 3.1091263510296048).abs() < 1e-12,
            "{}",
            s.stderr()
        );
        assert_eq!(s.stderr(), s.stddev() / (s.count() as f64).sqrt());
        // Golden: {1, 2, 3, 4, 5} has sample variance 2.5, so
        // stderr = √2.5/√5 = √0.5 = 0.7071067811865476.
        let mut t = MomentSummary::new();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            t.insert(x);
        }
        #[allow(clippy::approx_constant)] // golden literal, not a rounded constant
        let expected = 0.7071067811865476;
        assert!((t.stderr() - expected).abs() < 1e-12, "{}", t.stderr());
        // Degenerate counts never divide by zero.
        assert_eq!(MomentSummary::new().stderr(), 0.0);
        assert_eq!(MomentSummary::of(9.0).stderr(), 0.0);
    }

    #[test]
    fn empty_and_single_sample_summaries_are_safe() {
        let empty = MomentSummary::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.stddev(), 0.0);
        assert_eq!(empty.min(), None);
        let one = MomentSummary::of(5.0);
        assert_eq!(one.count(), 1);
        assert_eq!(one.mean(), 5.0);
        // n=1: sample variance must be defined (0), not a division by 0.
        assert_eq!(one.sample_variance(), 0.0);
        assert!(one.stddev().is_finite());
    }

    #[test]
    fn merge_equals_sequential_insert_up_to_float_noise() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| ((i * 37 + 11) % 101) as f64 - 50.0)
            .collect();
        let mut whole = MomentSummary::new();
        for &x in &xs {
            whole.insert(x);
        }
        let mut a = MomentSummary::new();
        let mut b = MomentSummary::new();
        for &x in &xs[..400] {
            a.insert(x);
        }
        for &x in &xs[400..] {
            b.insert(x);
        }
        let merged = a.merge(&b);
        assert_eq!(merged.count(), whole.count());
        assert!((merged.mean() - whole.mean()).abs() < 1e-9);
        assert!((merged.variance() - whole.variance()).abs() < 1e-6);
        assert!((merged.skewness() - whole.skewness()).abs() < 1e-6);
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        assert!((merged.abs_sum() - whole.abs_sum()).abs() < 1e-9);
    }

    #[test]
    fn merge_of_identical_partials_is_bit_identical() {
        // The merge-demo guarantee: merging the same partial summaries
        // in the same order is reproducible to the last bit.
        let mut parts = Vec::new();
        for t in 0..8 {
            let mut s = MomentSummary::new();
            for i in 0..500 {
                s.insert(((t * 500 + i) as f64).sin() * 100.0);
            }
            parts.push(s);
        }
        let fold =
            |ps: &[MomentSummary]| ps.iter().fold(MomentSummary::new(), |acc, p| acc.merge(p));
        assert_eq!(fold(&parts).encode(), fold(&parts).encode());
        // Merging with an empty summary is the identity, bitwise.
        let m = fold(&parts);
        assert_eq!(m.merge(&MomentSummary::new()).encode(), m.encode());
        assert_eq!(MomentSummary::new().merge(&m).encode(), m.encode());
    }

    #[test]
    fn moment_codec_round_trips_and_rejects_garbage() {
        let mut s = MomentSummary::new();
        for x in [1.5, -0.25, 1e9, -3.75] {
            s.insert(x);
        }
        let bytes = s.encode();
        let back = MomentSummary::decode(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.encode(), bytes);
        assert_eq!(
            MomentSummary::decode(&bytes[..bytes.len() - 1]),
            Err(SketchDecodeError::Truncated)
        );
        let mut wrong = bytes.clone();
        wrong[0] = 99;
        assert_eq!(
            MomentSummary::decode(&wrong),
            Err(SketchDecodeError::UnsupportedVersion(99))
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            MomentSummary::decode(&trailing),
            Err(SketchDecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn nan_inputs_are_ignored() {
        let mut s = MomentSummary::new();
        s.insert(f64::NAN);
        s.insert(f64::INFINITY);
        s.insert(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 1.0);
        let mut d = TDigest::new(100.0);
        d.insert(f64::NAN);
        d.insert(2.0);
        assert_eq!(d.count(), 1);
        assert_eq!(d.quantile(0.5), 2.0);
    }

    // ---- TDigest ------------------------------------------------------

    #[test]
    fn digest_is_exact_on_tiny_inputs() {
        let mut d = TDigest::new(100.0);
        for x in [10.0, 20.0, 30.0] {
            d.insert(x);
        }
        assert_eq!(d.count(), 3);
        assert_eq!(d.quantile(0.0), 10.0);
        assert_eq!(d.quantile(1.0), 30.0);
        let med = d.quantile(0.5);
        assert!((10.0..=30.0).contains(&med), "{med}");
    }

    #[test]
    fn digest_bounds_centroids_and_tracks_uniform_quantiles() {
        let n = 50_000;
        let mut d = TDigest::new(100.0);
        // Deterministic permutation of 0..n (n is not divisible by 7).
        for i in 0..n {
            d.insert(((i * 7919) % n) as f64);
        }
        d.flush();
        assert!(
            d.centroid_count() <= 2 * 100,
            "{} centroids",
            d.centroid_count()
        );
        assert_eq!(d.count(), n as u64);
        for (q, tol) in [(0.5, 0.01), (0.95, 0.005), (0.99, 0.002), (0.999, 0.001)] {
            let est = d.quantile(q);
            let rank = est / n as f64; // uniform: value ≈ rank * n
            assert!(
                (rank - q).abs() <= tol,
                "q={q}: est {est} → rank {rank} (tol {tol})"
            );
        }
    }

    #[test]
    fn digest_merge_pools_weight_min_max() {
        let mut a = TDigest::new(100.0);
        let mut b = TDigest::new(100.0);
        for i in 0..1000 {
            a.insert(i as f64);
            b.insert((i + 5000) as f64);
        }
        let mut m = a.clone();
        m.merge(&b);
        assert_eq!(m.count(), 2000);
        assert_eq!(m.min(), Some(0.0));
        assert_eq!(m.max(), Some(5999.0));
        // Median of the union sits in the gap between the two halves.
        let med = m.quantile(0.5);
        assert!((900.0..=5100.0).contains(&med), "{med}");
        // b itself is untouched.
        assert_eq!(b.count(), 1000);
    }

    /// The compression pass as it was before the merge: one stable sort
    /// of the centroids followed by the buffer, then the same coalescing.
    fn compress_by_concatenation(d: &mut TDigest) {
        let mut points = std::mem::take(&mut d.centroids);
        points.append(&mut d.buffer);
        if points.is_empty() {
            return;
        }
        points.sort_by(|a, b| a.mean.total_cmp(&b.mean));
        let total = d.weight;
        let mut merged = Vec::new();
        let mut iter = points.into_iter();
        let mut cur = iter.next().unwrap();
        let mut w_so_far = 0.0;
        let mut limit = total * q_of(k_of(0.0, d.compression) + 1.0, d.compression);
        for p in iter {
            let proposed = cur.weight + p.weight;
            if w_so_far + proposed <= limit {
                cur.mean = (cur.mean * cur.weight + p.mean * p.weight) / proposed;
                cur.weight = proposed;
            } else {
                w_so_far += cur.weight;
                limit = total * q_of(k_of(w_so_far / total, d.compression) + 1.0, d.compression);
                merged.push(cur);
                cur = p;
            }
        }
        merged.push(cur);
        d.centroids = merged;
    }

    /// Every centroid's mean and weight bits.
    fn centroid_bits(d: &TDigest) -> Vec<(u64, u64)> {
        let centroids = d.centroids.iter();
        centroids
            .map(|c| (c.mean.to_bits(), c.weight.to_bits()))
            .collect()
    }

    /// Compresses copies of `d` both ways and compares the centroids.
    fn assert_compressions_agree(d: &TDigest, what: &str) {
        let (mut merged, mut sorted) = (d.clone(), d.clone());
        merged.compress();
        compress_by_concatenation(&mut sorted);
        assert_eq!(centroid_bits(&merged), centroid_bits(&sorted), "{what}");
    }

    #[test]
    fn merging_the_sorted_buffer_is_the_sort_of_the_concatenation() {
        let mut rng = fdc_rng::Rng::seed_from_u64(0x7D16_E575);
        type Sample = fn(&mut fdc_rng::Rng, usize) -> f64;
        let streams: [(&str, Sample); 5] = [
            ("ties", |rng, _| rng.usize_below(8) as f64),
            ("signed zeros", |rng, _| if rng.bool() { 0.0 } else { -0.0 }),
            ("uniform", |rng, _| rng.f64() * 1e4 - 5e3),
            ("ascending", |_, i| i as f64),
            ("descending", |_, i| -(i as f64)),
        ];
        for (name, sample) in streams {
            for compression in [20.0, 50.0] {
                let mut d = TDigest::new(compression);
                let mut other = TDigest::new(compression);
                // Enough samples for the digest to fill its centroid
                // budget many times over.
                for i in 0..6_000 {
                    d.insert(sample(&mut rng, i));
                    other.insert(sample(&mut rng, i));
                    if i % 5 == 0 {
                        assert_compressions_agree(&d, &format!("{name} δ={compression} at {i}"));
                    }
                    if i % 997 == 0 {
                        let mut reference = d.clone();
                        reference.buffer.extend_from_slice(&other.centroids);
                        reference.buffer.extend_from_slice(&other.buffer);
                        reference.weight += other.weight;
                        d.merge(&other);
                        compress_by_concatenation(&mut reference);
                        let (got, want) = (centroid_bits(&d), centroid_bits(&reference));
                        assert_eq!(got, want, "{name} merge at {i}");
                    }
                }
                assert!(
                    d.centroid_count() > compression as usize / 2,
                    "{name} filled up"
                );
            }
        }
        // A decoded list need not be in order.
        let mut d = TDigest::new(20.0);
        for x in [5.0, 1.0, 3.0, 1.0, 2.0] {
            d.centroids.push(Centroid {
                mean: x,
                weight: 2.0,
            });
            d.weight += 2.0;
        }
        d.buffer.push(Centroid {
            mean: 1.0,
            weight: 1.0,
        });
        d.weight += 1.0;
        assert_compressions_agree(&d, "unsorted centroids");
    }

    #[test]
    fn digest_quantiles_are_monotone_in_q() {
        let mut d = TDigest::new(50.0);
        for i in 0..10_000 {
            d.insert(((i * 2654435761u64) % 100_000) as f64);
        }
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = d.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn digest_codec_round_trips_and_rejects_garbage() {
        let mut d = TDigest::new(128.0);
        for i in 0..5000 {
            d.insert((i % 997) as f64 * 1.5);
        }
        let bytes = d.encode();
        let back = TDigest::decode(&bytes).unwrap();
        assert_eq!(back.count(), d.count());
        assert_eq!(back.compression(), 128.0);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(back.quantile(q).to_bits(), d.quantile(q).to_bits());
        }
        // Round-trip is a fixed point of the codec.
        assert_eq!(back.encode(), bytes);
        assert_eq!(
            TDigest::decode(&bytes[..10]),
            Err(SketchDecodeError::Truncated)
        );
        let mut wrong = bytes.clone();
        wrong[0] = 2;
        assert_eq!(
            TDigest::decode(&wrong),
            Err(SketchDecodeError::UnsupportedVersion(2))
        );
        // Corrupt a centroid weight into a negative number.
        let mut corrupt = bytes.clone();
        let weight_off = 1 + 4 * 8 + 4 + 8;
        corrupt[weight_off..weight_off + 8].copy_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        assert!(matches!(
            TDigest::decode(&corrupt),
            Err(SketchDecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_digest_is_well_behaved() {
        let d = TDigest::default();
        assert!(d.is_empty());
        assert_eq!(d.quantile(0.5), 0.0);
        assert_eq!(d.min(), None);
        let bytes = d.encode();
        let back = TDigest::decode(&bytes).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn same_insert_sequence_is_deterministic() {
        let build = || {
            let mut d = TDigest::new(64.0);
            for i in 0..20_000u64 {
                d.insert((i.wrapping_mul(6364136223846793005) >> 33) as f64);
            }
            d.encode()
        };
        assert_eq!(build(), build());
    }
}
