//! The metrics registry: atomic counters, gauges, and log-bucketed
//! histograms with percentile snapshots.
//!
//! All types are lock-free on the hot path (a single atomic RMW per
//! record); the registry itself takes a short `RwLock` read to resolve
//! a name to its handle. Callers on genuinely hot loops should resolve
//! the `Arc` handle once and reuse it.

use crate::labels::{overflow_series, series_key, MAX_SERIES_PER_FAMILY};
use crate::names;
use crate::sketch::TDigest;
use fdc_codec::json::Writer;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i`
/// (1 ≤ i ≤ 64) holds values whose bit length is `i`, i.e. the range
/// `[2^(i-1), 2^i)`.
pub(crate) const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (used by benches between phases).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A gauge: an instantaneous signed value (model counts, scaled errors).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta`.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments by one (e.g. a work item entered an in-flight set).
    pub fn incr(&self) {
        self.add(1);
    }

    /// Decrements by one (the work item left the in-flight set).
    pub fn decr(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.set(0);
    }
}

/// A gauge holding an `f64` (scaled errors, ratios — values an [`i64`]
/// gauge would truncate). Stored as the value's bit pattern in one
/// atomic, so reads and writes stay lock-free.
#[derive(Debug, Default)]
pub struct FloatGauge(AtomicU64);

impl FloatGauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

/// Number of per-thread-striped t-digest shards per histogram. Each
/// recording thread hashes to one shard's mutex, so uncontended records
/// stay cheap; snapshots merge the shards into one digest — exercising
/// the same merge path a multi-process router uses.
pub(crate) const DIGEST_SHARDS: usize = 4;

/// Compression δ of the per-histogram digests: ~δ centroids retained,
/// sub-0.5% rank error at p99/p999 on latency-shaped streams.
pub(crate) const HISTOGRAM_DIGEST_COMPRESSION: f64 = 100.0;

/// Stable per-thread shard index (assigned round-robin on first use).
fn digest_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    SHARD.with(|s| *s) % DIGEST_SHARDS
}

/// A log-bucketed histogram of `u64` samples (by convention
/// nanoseconds when the metric name ends in `.ns`).
///
/// Buckets are powers of two, so the bucket update is one
/// `leading_zeros` plus one atomic add, and the full value range of
/// `u64` is covered with 65 buckets. The buckets feed the Prometheus
/// `_bucket{le=...}` series; **percentiles** come from an embedded,
/// thread-striped [`TDigest`] (merged across stripes at snapshot time),
/// so p50/p95/p99/p999 carry sub-percent rank error instead of the
/// bucket estimator's ≤ 2× bound. The bucket-midpoint estimator remains
/// as the fallback for the (racy) case of a snapshot observing a bucket
/// update before the matching digest insert.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    digests: [Mutex<TDigest>; DIGEST_SHARDS],
    /// Worst traced observation of the current exemplar window.
    exemplar: Mutex<Option<(Exemplar, Instant)>>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            digests: std::array::from_fn(|_| {
                Mutex::new(TDigest::new(HISTOGRAM_DIGEST_COMPRESSION))
            }),
            exemplar: Mutex::new(None),
        }
    }
}

/// Length of a histogram's exemplar window: within one window the
/// exemplar tracks the *worst* traced observation; once the window
/// ages out, the next traced observation starts a fresh one, so a
/// startup spike cannot pin the exemplar forever.
pub const EXEMPLAR_WINDOW: Duration = Duration::from_secs(10);

/// A traced observation attached to a histogram — the OpenMetrics
/// exemplar: the sample's value, the trace that produced it, and when.
/// A p99 spike on `/metrics` thereby links directly to a trace id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The observed sample (nanoseconds for `.ns` histograms).
    pub value: u64,
    /// Trace id of the request that produced the sample.
    pub trace_id: u128,
    /// Wall-clock observation time, ms since the Unix epoch.
    pub unix_ms: u64,
}

/// Bucket index of a value: 0 for 0, otherwise its bit length.
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive value range `[lo, hi]` covered by a bucket.
pub(crate) fn bucket_bounds(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

/// The log-bucket percentile estimator (the digest's fallback):
/// midpoint of the rank's bucket after clamping the bucket to the
/// observed `[min, max]`. When the clamped range collapses to a single
/// value — constant streams, the zero bucket — that value is **exact**,
/// not a midpoint estimate; otherwise the error stays bounded by the
/// (clamped) bucket width.
pub(crate) fn bucket_percentile(counts: &[u64], count: u64, min: u64, max: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    // 1-based rank of the q-quantile sample.
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            let (lo, hi) = bucket_bounds(i);
            // A non-empty bucket always intersects [min, max].
            let lo = lo.max(min);
            let hi = hi.min(max);
            if lo == hi {
                return lo;
            }
            return lo + (hi - lo) / 2;
        }
    }
    max
}

impl Histogram {
    /// Records a sample. The extremes only ever move one way between
    /// resets, so a sample a plain load shows inside `[min, max]` skips
    /// the two read-modify-writes.
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        if v < self.min.load(Ordering::Relaxed) {
            self.min.fetch_min(v, Ordering::Relaxed);
        }
        if v > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(v, Ordering::Relaxed);
        }
        self.digests[digest_shard()]
            .lock()
            .unwrap()
            .insert(v as f64);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records a sample carrying its trace id, making it an exemplar
    /// candidate: the slot keeps the worst observation per
    /// [`EXEMPLAR_WINDOW`]. The plain [`Histogram::record`] path stays
    /// lock-free; only traced (i.e. sampled) observations pay the
    /// exemplar mutex.
    pub fn record_with_trace(&self, v: u64, trace_id: u128) {
        self.record(v);
        let now = Instant::now();
        let unix_ms = crate::unix_ms();
        let mut slot = self.exemplar.lock().unwrap();
        let fresh = Exemplar {
            value: v,
            trace_id,
            unix_ms,
        };
        match slot.as_mut() {
            Some((ex, window_start)) => {
                if now.duration_since(*window_start) > EXEMPLAR_WINDOW {
                    *slot = Some((fresh, now));
                } else if v >= ex.value {
                    *ex = fresh;
                }
            }
            None => *slot = Some((fresh, now)),
        }
    }

    /// [`Histogram::record_with_trace`] for durations in nanoseconds.
    pub fn record_duration_with_trace(&self, d: Duration, trace_id: u128) {
        self.record_with_trace(d.as_nanos().min(u128::from(u64::MAX)) as u64, trace_id);
    }

    /// The current exemplar, if a traced observation has been recorded.
    pub fn exemplar(&self) -> Option<Exemplar> {
        self.exemplar.lock().unwrap().map(|(e, _)| e)
    }

    /// Merges the thread-striped digest shards into one digest — the
    /// percentile source for snapshots, and the partial a router would
    /// ship across processes via [`TDigest::encode`].
    pub fn merged_digest(&self) -> TDigest {
        let mut merged = TDigest::new(HISTOGRAM_DIGEST_COMPRESSION);
        for shard in &self.digests {
            merged.merge(&shard.lock().unwrap());
        }
        merged.flush();
        merged
    }

    /// Takes a point-in-time snapshot (not atomic across buckets, which
    /// is fine for reporting).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let (min, max) = if count == 0 {
            (0, 0)
        } else {
            (
                self.min.load(Ordering::Relaxed),
                self.max.load(Ordering::Relaxed),
            )
        };
        let digest = self.merged_digest();
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            if digest.is_empty() {
                // A snapshot raced between a bucket update and the
                // matching digest insert; fall back to the buckets.
                return bucket_percentile(&counts, count, min, max, q);
            }
            // Digest quantiles are clamped into the observed range so a
            // snapshot can never report a percentile outside [min, max].
            (digest.quantile(q).round() as u64).clamp(min, max)
        };
        let mut buckets = [0u64; BUCKETS];
        buckets.copy_from_slice(&counts);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: percentile(0.50),
            p95: percentile(0.95),
            p99: percentile(0.99),
            p999: percentile(0.999),
            buckets,
            exemplar: self.exemplar(),
        }
    }

    /// Resets all buckets, statistics, digest shards and the exemplar.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for shard in &self.digests {
            *shard.lock().unwrap() = TDigest::new(HISTOGRAM_DIGEST_COMPRESSION);
        }
        *self.exemplar.lock().unwrap() = None;
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Estimated median (digest-backed).
    pub p50: u64,
    /// Estimated 95th percentile (digest-backed).
    pub p95: u64,
    /// Estimated 99th percentile (digest-backed).
    pub p99: u64,
    /// Estimated 99.9th percentile (digest-backed).
    pub p999: u64,
    /// Raw per-bucket sample counts (power-of-two buckets; see
    /// [`Histogram`]). The Prometheus exporter renders these as
    /// cumulative `le` buckets.
    pub buckets: [u64; BUCKETS],
    /// Worst traced observation of the current exemplar window, if any.
    pub exemplar: Option<Exemplar>,
}

impl HistogramSnapshot {
    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Cumulative `(upper_bound, count ≤ upper_bound)` pairs over the
    /// non-empty buckets, in ascending bound order — the exact shape of
    /// Prometheus histogram `_bucket{le=...}` samples (`+Inf` excluded;
    /// it equals [`HistogramSnapshot::count`]). Cumulative counts are
    /// non-decreasing by construction.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            out.push((bucket_bounds(i).1, cum));
        }
        out
    }
}

/// The process-wide registry interning metrics by name.
///
/// Labeled series are interned under their canonical series key
/// ([`crate::labels::series_key`]); the `*_with` methods enforce the
/// per-family cardinality bound.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    float_gauges: RwLock<BTreeMap<String, Arc<FloatGauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    /// Families that already logged their one overflow warning event.
    overflow_warned: Mutex<BTreeSet<String>>,
}

fn intern<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().unwrap().get(name) {
        return Arc::clone(m);
    }
    let mut w = map.write().unwrap();
    Arc::clone(w.entry(name.to_string()).or_default())
}

/// Interns the labeled series of `name`, enforcing the per-family
/// cardinality bound: a new label set beyond [`MAX_SERIES_PER_FAMILY`]
/// is redirected to the family's shared `{overflow="true"}` series and
/// reported via the `obs.series.dropped` counter handed in by the
/// caller (passed, not resolved here, to keep the drop path free of
/// recursion into this function). The returned flag says whether this
/// call overflowed, so the caller can attribute the drop to its family
/// *after* releasing the map lock.
fn intern_labeled<T: Default>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    name: &str,
    labels: &[(&str, &str)],
    dropped: &Counter,
) -> (Arc<T>, bool) {
    let key = series_key(name, labels);
    if let Some(m) = map.read().unwrap().get(&key) {
        return (Arc::clone(m), false);
    }
    let mut w = map.write().unwrap();
    if w.contains_key(&key) {
        return (Arc::clone(&w[&key]), false);
    }
    // New series: count the family's existing labeled series. The
    // prefix `name{` cannot collide with other families because `{`
    // never appears in family names.
    let prefix = format!("{name}{{");
    let family_series = w
        .range(prefix.clone()..)
        .take_while(|(k, _)| k.starts_with(&prefix))
        .count();
    if !labels.is_empty() && family_series >= MAX_SERIES_PER_FAMILY {
        dropped.incr();
        return (
            Arc::clone(w.entry(overflow_series(name)).or_default()),
            true,
        );
    }
    (Arc::clone(w.entry(key).or_default()), false)
}

impl Registry {
    /// Resolves (creating on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// Resolves (creating on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// Resolves (creating on first use) the float gauge `name`.
    pub fn float_gauge(&self, name: &str) -> Arc<FloatGauge> {
        intern(&self.float_gauges, name)
    }

    /// Resolves (creating on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Resolves the labeled counter series `name{labels}` (canonical
    /// label order, bounded per-family cardinality).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let dropped = self.counter(names::OBS_SERIES_DROPPED);
        let (c, overflowed) = intern_labeled(&self.counters, name, labels, &dropped);
        if overflowed {
            self.note_overflow(name);
        }
        c
    }

    /// Resolves the labeled gauge series `name{labels}`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let dropped = self.counter(names::OBS_SERIES_DROPPED);
        let (g, overflowed) = intern_labeled(&self.gauges, name, labels, &dropped);
        if overflowed {
            self.note_overflow(name);
        }
        g
    }

    /// Resolves the labeled float-gauge series `name{labels}`.
    pub fn float_gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<FloatGauge> {
        let dropped = self.counter(names::OBS_SERIES_DROPPED);
        let (g, overflowed) = intern_labeled(&self.float_gauges, name, labels, &dropped);
        if overflowed {
            self.note_overflow(name);
        }
        g
    }

    /// Resolves the labeled histogram series `name{labels}`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let dropped = self.counter(names::OBS_SERIES_DROPPED);
        let (h, overflowed) = intern_labeled(&self.histograms, name, labels, &dropped);
        if overflowed {
            self.note_overflow(name);
        }
        h
    }

    /// Attributes a cardinality overflow to its family: bumps the
    /// per-family `obs.labels.overflow{family=...}` counter (interned
    /// directly — the family label set is code-controlled, so it cannot
    /// itself overflow) and publishes one `SeriesOverflow` warning event
    /// per family per process. Called after the series-map lock is
    /// released; the plain `obs.series.dropped` total remains as the
    /// family-blind aggregate.
    fn note_overflow(&self, family: &str) {
        let key = series_key(names::OBS_LABELS_OVERFLOW, &[("family", family)]);
        intern(&self.counters, &key).incr();
        let first = self
            .overflow_warned
            .lock()
            .unwrap()
            .insert(family.to_string());
        if first {
            crate::events::journal().publish(crate::events::Event::SeriesOverflow {
                family: family.to_string(),
            });
        }
    }

    /// Snapshots every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        // Each histogram snapshot merges its DIGEST_SHARDS digest
        // stripes; account for them before the counters are read so the
        // tally is visible in this very snapshot.
        let hist_count = self.histograms.read().unwrap().len() as u64;
        if hist_count > 0 {
            self.counter(names::OBS_SKETCH_MERGES)
                .add(hist_count * DIGEST_SHARDS as u64);
        }
        Snapshot {
            counters: self
                .counters
                .read()
                .unwrap()
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .unwrap()
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            float_gauges: self
                .float_gauges
                .read()
                .unwrap()
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .unwrap()
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every registered metric. Existing handles stay valid.
    pub fn reset(&self) {
        for c in self.counters.read().unwrap().values() {
            c.reset();
        }
        for g in self.gauges.read().unwrap().values() {
            g.reset();
        }
        for g in self.float_gauges.read().unwrap().values() {
            g.reset();
        }
        for h in self.histograms.read().unwrap().values() {
            h.reset();
        }
    }
}

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// A full registry snapshot. `Display` renders a human-readable report
/// (durations humanized for `.ns`-suffixed names); [`Snapshot::to_json`]
/// renders a machine-readable document.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` per counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, value)` per float gauge, sorted by name.
    pub float_gauges: Vec<(String, f64)>,
    /// `(name, summary)` per histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Renders nanoseconds via `Duration`'s humanized `Debug` form.
fn fmt_ns(ns: u64) -> String {
    format!("{:?}", Duration::from_nanos(ns))
}

fn is_nanos(name: &str) -> bool {
    name.ends_with(".ns") || name.ends_with("_ns")
}

impl Snapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.float_gauges.is_empty()
            && self.histograms.is_empty()
    }

    /// Serializes the snapshot as a JSON object:
    /// `{"counters":{...},"gauges":{...},"float_gauges":{...},"histograms":{name:{count,sum,min,max,p50,p95,p99,p999}}}`.
    ///
    /// Series names may carry labels (`name{k="v"}`), so the string
    /// escaping of names is load-bearing: quotes and backslashes inside
    /// label values must round-trip.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(256);
        w.begin_object().key("counters").begin_object();
        for (name, v) in &self.counters {
            w.key(name).u64(*v);
        }
        w.end_object().key("gauges").begin_object();
        for (name, v) in &self.gauges {
            w.key(name).i64(*v);
        }
        w.end_object().key("float_gauges").begin_object();
        for (name, v) in &self.float_gauges {
            w.key(name).f64(*v);
        }
        w.end_object().key("histograms").begin_object();
        for (name, h) in &self.histograms {
            w.key(name).begin_object();
            w.key("count").u64(h.count).key("sum").u64(h.sum);
            w.key("min").u64(h.min).key("max").u64(h.max);
            w.key("p50").u64(h.p50).key("p95").u64(h.p95);
            w.key("p99").u64(h.p99).key("p999").u64(h.p999);
            w.end_object();
        }
        w.end_object().end_object();
        w.finish()
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(no metrics recorded)");
        }
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for (name, v) in &self.counters {
                writeln!(f, "  {name:<44} {v}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for (name, v) in &self.gauges {
                writeln!(f, "  {name:<44} {v}")?;
            }
        }
        if !self.float_gauges.is_empty() {
            writeln!(f, "float gauges:")?;
            for (name, v) in &self.float_gauges {
                writeln!(f, "  {name:<44} {v:.6}")?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            for (name, h) in &self.histograms {
                if is_nanos(name) {
                    writeln!(
                        f,
                        "  {name:<44} count={} mean={} p50={} p95={} p99={} p999={} max={}",
                        h.count,
                        fmt_ns(h.mean() as u64),
                        fmt_ns(h.p50),
                        fmt_ns(h.p95),
                        fmt_ns(h.p99),
                        fmt_ns(h.p999),
                        fmt_ns(h.max),
                    )?;
                } else {
                    writeln!(
                        f,
                        "  {name:<44} count={} mean={:.1} p50={} p95={} p99={} p999={} max={}",
                        h.count,
                        h.mean(),
                        h.p50,
                        h.p95,
                        h.p99,
                        h.p999,
                        h.max,
                    )?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_of_is_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_partition_the_u64_range() {
        let (lo, hi) = bucket_bounds(0);
        assert_eq!((lo, hi), (0, 0));
        let mut expected_lo = 1u64;
        for i in 1..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i}");
            assert!(bucket_of(lo) == i && bucket_of(hi) == i, "bucket {i}");
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "last bucket ends at u64::MAX");
    }

    #[test]
    fn empty_histogram_snapshots_to_zeros() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.p50, s.p95, s.p99, s.p999),
            (0, 0, 0, 0, 0, 0, 0, 0)
        );
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_value_percentiles_collapse() {
        let h = Histogram::default();
        for _ in 0..100 {
            h.record(777);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 777);
        assert_eq!(s.max, 777);
        assert_eq!(s.p50, 777);
        assert_eq!(s.p95, 777);
        assert_eq!(s.p99, 777);
        assert_eq!(s.p999, 777);
    }

    #[test]
    fn percentiles_track_uniform_distribution() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        // Digest-backed percentiles land within ±1% rank of the truth —
        // far inside the old log-bucket bound.
        assert!((490..=510).contains(&s.p50), "p50 {}", s.p50);
        assert!((940..=960).contains(&s.p95), "p95 {}", s.p95);
        assert!((980..=1000).contains(&s.p99), "p99 {}", s.p99);
        assert!((989..=1000).contains(&s.p999), "p999 {}", s.p999);
        assert!(s.p95 >= s.p50 && s.p99 >= s.p95 && s.p999 >= s.p99);
    }

    /// Regression for the bucket-estimator percentile bias: a constant
    /// stream sitting mid-bucket must report the exact value once the
    /// bucket clamps to a singleton range, even with an outlier pulling
    /// the clamp bounds apart (the pre-fix code clamped the *unclamped*
    /// midpoint, reporting 767 for a stream of 777s).
    #[test]
    fn bucket_percentile_is_exact_on_singleton_ranges() {
        // Constant stream: bucket [512, 1023] clamps to [777, 777].
        let mut counts = vec![0u64; BUCKETS];
        counts[bucket_of(777)] = 100;
        assert_eq!(bucket_percentile(&counts, 100, 777, 777, 0.5), 777);
        assert_eq!(bucket_percentile(&counts, 100, 777, 777, 0.99), 777);
        // Zero bucket is a singleton by construction.
        let mut zeros = vec![0u64; BUCKETS];
        zeros[0] = 10;
        assert_eq!(bucket_percentile(&zeros, 10, 0, 0, 0.5), 0);
        // With an outlier above, the p50 bucket clamps to [777, 1023]:
        // still an estimate, but never below the observed minimum.
        let mut mixed = vec![0u64; BUCKETS];
        mixed[bucket_of(777)] = 100;
        mixed[bucket_of(5000)] = 1;
        let p50 = bucket_percentile(&mixed, 101, 777, 5000, 0.5);
        assert!((777..=1023).contains(&p50), "p50 {p50}");
    }

    /// A sample inside `[min, max]` skips the extremes' read-modify-
    /// writes; nothing a snapshot reads may tell. A seeded stream with
    /// both ends of the range, repeats and descending runs, recorded on
    /// one thread, must leave exactly what a plain fold of it gives.
    #[test]
    fn record_matches_a_plain_fold_of_the_stream() {
        let mut rng = 0x5EED_u64;
        let mut stream = vec![0, u64::MAX, 7, 7, 7, 0, u64::MAX];
        for run in 0..40u64 {
            let top = fdc_codec::hash::splitmix64(&mut rng) >> (run % 60);
            stream.extend((0..25).map(|i| top.saturating_sub(i * (run + 1))));
            stream.extend([top, top, 1, u64::MAX - run]);
        }
        let h = Histogram::default();
        let mut reference = TDigest::new(HISTOGRAM_DIGEST_COMPRESSION);
        let mut buckets = [0u64; BUCKETS];
        let (mut sum, mut min, mut max) = (0u64, u64::MAX, 0u64);
        for &v in &stream {
            h.record(v);
            reference.insert(v as f64);
            buckets[bucket_of(v)] += 1;
            sum = sum.wrapping_add(v);
            min = min.min(v);
            max = max.max(v);
        }
        let s = h.snapshot();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.buckets),
            (stream.len() as u64, sum, min, max, buckets)
        );
        let mut merged = TDigest::new(HISTOGRAM_DIGEST_COMPRESSION);
        merged.merge(&reference);
        merged.flush();
        assert_eq!(h.merged_digest().encode(), merged.encode());
    }

    #[test]
    fn histogram_digest_merges_across_recording_threads() {
        // Samples recorded from many threads stripe over the digest
        // shards; the snapshot must still see one coherent distribution.
        let h = Arc::new(Histogram::default());
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.record(t * 1000 + i + 1);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 8000);
        // True p50 = 4000, within ±2.5 % rank. At δ = 100 the k1 scale's
        // median centroid holds ≈ n·π/(2δ) = 126 of the 8,000 samples,
        // and the shard a thread records into comes from a process-wide
        // counter, so the four-way merge can sit two centroids off; the
        // digest's sub-0.5 % bound is for the tails (p999 below).
        assert!((3800..=4200).contains(&s.p50), "p50 {}", s.p50);
        assert!((7840..=8000).contains(&s.p999), "p999 {}", s.p999);
    }

    #[test]
    fn extreme_values_do_not_overflow_buckets() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let c = Arc::new(Counter::default());
        let threads = 8;
        let per_thread = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
    }

    #[test]
    fn concurrent_histogram_records_are_lossless() {
        let h = Arc::new(Histogram::default());
        let threads = 8u64;
        let per_thread = 5_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i + 1);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, threads * per_thread);
        let n = threads * per_thread;
        assert_eq!(s.sum, n * (n + 1) / 2);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, n);
    }

    #[test]
    fn gauge_incr_decr_track_in_flight_work() {
        let g = Gauge::default();
        g.incr();
        g.incr();
        assert_eq!(g.get(), 2);
        g.decr();
        assert_eq!(g.get(), 1);
        g.decr();
        g.decr();
        assert_eq!(g.get(), -1, "gauges may go negative; callers balance");
    }

    #[test]
    fn registry_interns_by_name() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.incr();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn registry_reset_keeps_handles_valid() {
        let r = Registry::default();
        let c = r.counter("c");
        let h = r.histogram("h");
        c.add(5);
        h.record(9);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        c.incr();
        assert_eq!(r.snapshot().counters[0].1, 1);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let r = Registry::default();
        r.counter("a.b").add(3);
        r.gauge("g").set(-2);
        r.histogram("h.ns").record(1000);
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a.b\":3"), "{json}");
        assert!(json.contains("\"g\":-2"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
        // Balanced braces (crude structural check without a parser).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn json_escapes_labeled_series_names() {
        // Labeled series keys contain quotes and (for escaped label
        // values) backslashes — `to_json` must keep the document
        // parseable. Exercise the worst case: a label value containing
        // a quote and a backslash, which the canonical key stores as
        // `m{k="a\"b\\c"}`.
        let r = Registry::default();
        r.counter_with("m", &[("k", "a\"b\\c")]).add(1);
        r.float_gauge_with("g", &[("k", "x\"y")]).set(0.5);
        let json = r.snapshot().to_json();
        // The key's `"` chars are JSON-escaped; its `\` chars doubled.
        assert!(json.contains(r#""m{k=\"a\\\"b\\\\c\"}":1"#), "{json}");
        assert!(json.contains(r#""g{k=\"x\\\"y\"}":0.5"#), "{json}");
        // Structural sanity: balanced braces.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn float_gauge_round_trips_values() {
        let r = Registry::default();
        let g = r.float_gauge("ratio");
        g.set(0.375);
        assert_eq!(g.get(), 0.375);
        let snap = r.snapshot();
        assert_eq!(snap.float_gauges, vec![("ratio".to_string(), 0.375)]);
        assert!(snap.to_json().contains("\"ratio\":0.375"));
        assert!(snap.to_string().contains("ratio"));
        r.reset();
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn labeled_series_intern_by_canonical_key() {
        let r = Registry::default();
        let a = r.counter_with("hits", &[("node", "3"), ("kind", "q")]);
        let b = r.counter_with("hits", &[("kind", "q"), ("node", "3")]);
        assert!(Arc::ptr_eq(&a, &b), "label order must not split series");
        a.incr();
        let snap = r.snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .find(|(n, _)| n == "hits{kind=\"q\",node=\"3\"}")
                .map(|(_, v)| *v),
            Some(1)
        );
    }

    #[test]
    fn overflow_counts_are_attributed_to_the_family() {
        // Regression: the overflow redirect used to lose the overflowed
        // family's name — only the family-blind obs.series.dropped total
        // moved. Overflow two distinct families and check each gets its
        // own attributed count plus exactly one warning event.
        let r = Registry::default();
        let fam_a = "overflow_attr_test.alpha";
        let fam_b = "overflow_attr_test.beta";
        for i in 0..MAX_SERIES_PER_FAMILY + 3 {
            let v = i.to_string();
            r.counter_with(fam_a, &[("node", &v)]).incr();
        }
        for i in 0..MAX_SERIES_PER_FAMILY + 1 {
            let v = i.to_string();
            r.gauge_with(fam_b, &[("node", &v)]).set(1);
        }
        let key_a = series_key(names::OBS_LABELS_OVERFLOW, &[("family", fam_a)]);
        let key_b = series_key(names::OBS_LABELS_OVERFLOW, &[("family", fam_b)]);
        let snap = r.snapshot();
        let get = |key: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == key)
                .map(|(_, v)| *v)
        };
        assert_eq!(get(&key_a), Some(3), "alpha overflowed 3 times");
        assert_eq!(get(&key_b), Some(1), "beta overflowed once");
        // Re-resolving an *existing* overflow label set must not count.
        r.counter_with(fam_a, &[("node", "0")]).incr();
        assert_eq!(
            r.snapshot()
                .counters
                .iter()
                .find(|(n, _)| n == &key_a)
                .map(|(_, v)| *v),
            Some(3)
        );
        // One warning event per family, in the global journal.
        let warnings: Vec<_> = crate::events::journal()
            .recent(usize::MAX)
            .into_iter()
            .filter(|e| {
                matches!(
                    &e.event,
                    crate::events::Event::SeriesOverflow { family }
                        if family == fam_a || family == fam_b
                )
            })
            .collect();
        assert_eq!(warnings.len(), 2, "exactly one warning per family");
    }

    #[test]
    fn exemplar_tracks_worst_traced_observation() {
        let h = Histogram::default();
        assert_eq!(h.exemplar(), None);
        h.record(1_000_000); // untraced: never an exemplar
        assert_eq!(h.exemplar(), None);
        h.record_with_trace(500, 0xaaaa);
        h.record_with_trace(9_000, 0xbbbb);
        h.record_with_trace(700, 0xcccc); // smaller: keeps the worst
        let ex = h.exemplar().unwrap();
        assert_eq!(ex.value, 9_000);
        assert_eq!(ex.trace_id, 0xbbbb);
        assert!(ex.unix_ms > 0);
        let snap = h.snapshot();
        assert_eq!(snap.exemplar, Some(ex));
        assert_eq!(snap.count, 4);
        h.reset();
        assert_eq!(h.exemplar(), None);
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100, 5000, 5001] {
            h.record(v);
        }
        let s = h.snapshot();
        let cum = s.cumulative_buckets();
        assert!(!cum.is_empty());
        let mut last = 0;
        for (le, c) in &cum {
            assert!(*c >= last, "cumulative counts must not decrease");
            assert!(*le > 0);
            last = *c;
        }
        assert_eq!(last, s.count);
    }

    #[test]
    fn display_humanizes_ns_histograms() {
        let r = Registry::default();
        r.histogram("query.ns").record(1_500_000);
        let text = r.snapshot().to_string();
        assert!(text.contains("query.ns"), "{text}");
        assert!(text.contains("ms") || text.contains("µs"), "{text}");
    }
}
