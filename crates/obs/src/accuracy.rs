//! Rolling forecast-accuracy tracking and drift detection, built on
//! mergeable moment summaries.
//!
//! The maintenance loop (paper §V) watches per-model forecast error to
//! decide when to re-estimate. [`RollingAccuracy`] is the observable
//! half of that loop: per tracked key (catalog node) it keeps a ring of
//! [`MomentSummary`] slots — one slot per recorded `(actual, predicted)`
//! pair, holding the SMAPE term and the signed error — plus a baseline
//! summary absorbing everything that ages out of the ring. Because every
//! piece of state is a `MomentSummary`, per-key accuracy is
//! **partializable**: [`KeyAccuracy`] values from different trackers
//! (threads, shards, processes — via the sketch codec) merge exactly at
//! read time without any global lock.
//!
//! Drift fires edge-triggered (once per excursion, not once per step)
//! on either of two conditions:
//!
//! * **SMAPE threshold** — the recent window's mean SMAPE term crosses
//!   `smape_threshold` from below (the classic trigger), or
//! * **variance-aware** — the recent window's mean absolute error
//!   exceeds the baseline's by more than `stddev_k` baseline standard
//!   deviations: a model can degrade badly relative to its own history
//!   while its SMAPE still sits under a global threshold.
//!
//! Each key's windowed SMAPE, MAE and error stddev publish into
//! float-gauge families (label `node`) so `/metrics` exposes per-node
//! accuracy. The tracker is engine-agnostic: keys are plain `u64`s and
//! the gauge families are configured by the caller, so `fdc-f2db` wires
//! it to its catalog nodes without this crate knowing about catalogs.

use crate::metrics::registry;
use crate::names;
use crate::sketch::{expect_version, MomentSummary, SketchDecodeError};
use fdc_codec::{Reader, Writer};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Configuration of a [`RollingAccuracy`] tracker.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyOptions {
    /// Window length in observations (per key).
    pub window: usize,
    /// Windowed-SMAPE threshold in `[0, 1]` above which a key is
    /// considered drifting.
    pub smape_threshold: f64,
    /// Minimum observations in the window before drift can fire (a
    /// single bad step in a near-empty window is noise, not drift).
    /// Clamped to ≥ 1; the variance trigger additionally requires a
    /// baseline of ≥ 2 observations, so a 1-sample baseline can never
    /// produce a stddev-based alert.
    pub min_samples: usize,
    /// Variance-trigger sensitivity: alert when the recent window's
    /// mean absolute error exceeds the baseline's mean absolute error
    /// by more than `stddev_k` baseline standard deviations.
    /// Non-positive disables the variance trigger.
    pub stddev_k: f64,
}

impl Default for AccuracyOptions {
    fn default() -> Self {
        AccuracyOptions {
            window: 12,
            smape_threshold: 0.5,
            min_samples: 4,
            stddev_k: 3.0,
        }
    }
}

/// Which condition raised a [`DriftAlert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftTrigger {
    /// The windowed SMAPE crossed `smape_threshold` from below.
    SmapeThreshold,
    /// The recent mean absolute error exceeded the baseline mean by
    /// more than `stddev_k` baseline standard deviations.
    Variance,
}

impl DriftTrigger {
    /// Stable string tag (journal events, JSON payloads).
    pub fn as_str(&self) -> &'static str {
        match self {
            DriftTrigger::SmapeThreshold => "smape_threshold",
            DriftTrigger::Variance => "variance",
        }
    }
}

/// A drift signal returned by [`RollingAccuracy::record`] when a key
/// crosses one of its drift conditions from below.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftAlert {
    /// The tracked key (catalog node id).
    pub key: u64,
    /// Windowed SMAPE at the moment of crossing.
    pub smape: f64,
    /// Windowed MAE at the moment of crossing.
    pub mae: f64,
    /// The configured SMAPE threshold.
    pub threshold: f64,
    /// Which condition fired (SMAPE wins when both cross at once).
    pub trigger: DriftTrigger,
    /// Baseline mean absolute error at the moment of crossing.
    pub baseline_mae: f64,
    /// Baseline error standard deviation at the moment of crossing.
    pub baseline_stddev: f64,
}

/// Mergeable per-key accuracy state: the partial a shard ships to a
/// router. All members are [`MomentSummary`]s, so [`KeyAccuracy::merge`]
/// is exact and deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyAccuracy {
    /// The tracked key (catalog node id).
    pub key: u64,
    /// Recent-window SMAPE terms (`mean()` is the windowed SMAPE).
    pub smape: MomentSummary,
    /// Recent-window signed errors (`abs_mean()` is the windowed MAE,
    /// `stddev()` the error spread, `mean()` the bias).
    pub err: MomentSummary,
    /// Errors that aged out of the window since the last reset — the
    /// baseline the variance trigger compares against.
    pub baseline_err: MomentSummary,
    /// Whether the key was in a drift excursion after its last record.
    pub drifting: bool,
}

/// Codec version written by [`KeyAccuracy::encode`].
pub const KEY_ACCURACY_CODEC_VERSION: u8 = 1;

impl KeyAccuracy {
    /// Observations represented (recent window + baseline).
    pub fn total(&self) -> u64 {
        self.err.count() + self.baseline_err.count()
    }

    /// Pools two partials for the same key: summaries merge exactly,
    /// drift states OR together.
    pub fn merge(&self, other: &KeyAccuracy) -> KeyAccuracy {
        KeyAccuracy {
            key: self.key,
            smape: self.smape.merge(&other.smape),
            err: self.err.merge(&other.err),
            baseline_err: self.baseline_err.merge(&other.baseline_err),
            drifting: self.drifting || other.drifting,
        }
    }

    /// Serializes as `[version][key][drifting][smape][err][baseline]`
    /// using the [`MomentSummary`] codec for each member — the wire
    /// format a shard ships alongside WAL frames.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(KeyAccuracy::ENCODED_BYTES);
        w.u8(KEY_ACCURACY_CODEC_VERSION);
        w.u64(self.key);
        w.u8(self.drifting as u8);
        for s in [&self.smape, &self.err, &self.baseline_err] {
            w.bytes(&s.encode());
        }
        w.finish()
    }

    /// The fixed size of an encoded partial.
    pub(crate) const ENCODED_BYTES: usize = 1 + 8 + 1 + 3 * MomentSummary::ENCODED_BYTES;

    /// Decodes a partial produced by [`KeyAccuracy::encode`].
    pub fn decode(bytes: &[u8]) -> Result<KeyAccuracy, SketchDecodeError> {
        let mut r = Reader::new(bytes);
        expect_version(&mut r, KEY_ACCURACY_CODEC_VERSION)?;
        let key = r.u64()?;
        let drifting = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(SketchDecodeError::Corrupt("drift flag")),
        };
        let mut summary = || MomentSummary::decode(r.take(MomentSummary::ENCODED_BYTES)?);
        let (smape, err, baseline_err) = (summary()?, summary()?, summary()?);
        r.finish()?;
        Ok(KeyAccuracy {
            key,
            drifting,
            smape,
            err,
            baseline_err,
        })
    }
}

/// Per-key state: a ring of single-observation [`MomentSummary`] slots
/// (two per observation: SMAPE term and signed error) plus the baseline
/// absorbing evicted observations.
#[derive(Debug)]
struct KeyWindow {
    /// Ring of per-observation SMAPE-term summaries.
    smape_slots: Vec<MomentSummary>,
    /// Ring of per-observation signed-error summaries (parallel to
    /// `smape_slots`).
    err_slots: Vec<MomentSummary>,
    /// Next write position in the rings.
    next: usize,
    /// Observations absorbed so far (saturates at the window length).
    filled: usize,
    /// Signed errors evicted from the ring since the last reset.
    baseline_err: MomentSummary,
    /// Whether the key was above a drift condition after the last
    /// record — drift fires only on the false→true edge.
    above: bool,
}

impl KeyWindow {
    fn new(window: usize) -> Self {
        KeyWindow {
            smape_slots: vec![MomentSummary::new(); window],
            err_slots: vec![MomentSummary::new(); window],
            next: 0,
            filled: 0,
            baseline_err: MomentSummary::new(),
            above: false,
        }
    }

    fn push(&mut self, smape_term: f64, err: f64) {
        if self.filled == self.smape_slots.len() {
            // The slot being overwritten ages into the baseline.
            self.baseline_err = self.baseline_err.merge(&self.err_slots[self.next]);
        }
        self.smape_slots[self.next] = MomentSummary::of(smape_term);
        self.err_slots[self.next] = MomentSummary::of(err);
        self.next = (self.next + 1) % self.smape_slots.len();
        self.filled = (self.filled + 1).min(self.smape_slots.len());
    }

    /// Merged recent-window summaries `(smape, err)`.
    fn recent(&self) -> (MomentSummary, MomentSummary) {
        let mut smape = MomentSummary::new();
        let mut err = MomentSummary::new();
        for i in 0..self.filled {
            smape = smape.merge(&self.smape_slots[i]);
            err = err.merge(&self.err_slots[i]);
        }
        (smape, err)
    }
}

/// Windowed per-key accuracy tracker on [`MomentSummary`] ring slots,
/// with edge-triggered SMAPE-threshold and variance-aware drift
/// detection. All methods take `&self`; internally one mutex guards the
/// key map (records happen once per key per time advance — far off any
/// hot path). Reads produce mergeable [`KeyAccuracy`] partials, so
/// per-shard trackers combine at read time without a global lock.
#[derive(Debug)]
pub struct RollingAccuracy {
    opts: AccuracyOptions,
    /// Float-gauge families to publish into: `(smape_family,
    /// mae_family, stddev_family)`, label `node=<key>`. `None` keeps
    /// the tracker registry-silent (tests, ad-hoc use).
    gauges: Option<(String, String, String)>,
    windows: Mutex<HashMap<u64, KeyWindow>>,
}

impl RollingAccuracy {
    /// Creates a tracker with the given options, not publishing gauges.
    pub fn new(opts: AccuracyOptions) -> Self {
        RollingAccuracy {
            opts: AccuracyOptions {
                window: opts.window.max(1),
                min_samples: opts.min_samples.max(1),
                ..opts
            },
            gauges: None,
            windows: Mutex::new(HashMap::new()),
        }
    }

    /// Publishes each key's windowed SMAPE, MAE and error stddev into
    /// the given float-gauge families (label `node`), e.g.
    /// `f2db.node.smape{node="17"}`.
    pub fn with_gauge_families(
        mut self,
        smape_family: &str,
        mae_family: &str,
        stddev_family: &str,
    ) -> Self {
        self.gauges = Some((
            smape_family.to_string(),
            mae_family.to_string(),
            stddev_family.to_string(),
        ));
        self
    }

    /// The configured options.
    pub fn options(&self) -> &AccuracyOptions {
        &self.opts
    }

    /// Records one `(actual, predicted)` pair for `key`. Returns a
    /// [`DriftAlert`] when this record moved the key across a drift
    /// condition from below: the windowed SMAPE over `smape_threshold`
    /// (with ≥ `min_samples` observations), or the windowed MAE over
    /// the baseline MAE plus `stddev_k` baseline standard deviations
    /// (additionally requiring a baseline of ≥ 2 observations).
    pub fn record(&self, key: u64, actual: f64, predicted: f64) -> Option<DriftAlert> {
        let denom = (actual + predicted).abs();
        let smape_term = if denom < f64::EPSILON {
            0.0
        } else {
            (actual - predicted).abs() / denom
        };
        let err = actual - predicted;

        let (smape, mae, stddev, fired) = {
            let mut windows = self.windows.lock().unwrap();
            let w = windows
                .entry(key)
                .or_insert_with(|| KeyWindow::new(self.opts.window));
            w.push(smape_term, err);
            let (recent_smape, recent_err) = w.recent();
            let smape = recent_smape.mean();
            let mae = recent_err.abs_mean();
            let stddev = recent_err.stddev();
            let enough = w.filled >= self.opts.min_samples;
            let above_smape = enough && smape > self.opts.smape_threshold;
            // Variance trigger: never against a baseline of fewer than
            // two observations (a 1-sample baseline has no spread, and
            // with min_samples = 0 it would alert on the very first
            // record).
            let baseline = &w.baseline_err;
            let above_var = self.opts.stddev_k > 0.0
                && enough
                && baseline.count() >= 2
                && mae > baseline.abs_mean() + self.opts.stddev_k * baseline.stddev();
            let above = above_smape || above_var;
            let fired = (above && !w.above).then(|| DriftAlert {
                key,
                smape,
                mae,
                threshold: self.opts.smape_threshold,
                trigger: if above_smape {
                    DriftTrigger::SmapeThreshold
                } else {
                    DriftTrigger::Variance
                },
                baseline_mae: baseline.abs_mean(),
                baseline_stddev: baseline.stddev(),
            });
            w.above = above;
            (smape, mae, stddev, fired)
        };

        self.publish_gauges(key, smape, mae, stddev);
        fired
    }

    fn publish_gauges(&self, key: u64, smape: f64, mae: f64, stddev: f64) {
        if let Some((smape_family, mae_family, stddev_family)) = &self.gauges {
            let node = key.to_string();
            registry()
                .float_gauge_with(smape_family, &[("node", &node)])
                .set(smape);
            registry()
                .float_gauge_with(mae_family, &[("node", &node)])
                .set(mae);
            registry()
                .float_gauge_with(stddev_family, &[("node", &node)])
                .set(stddev);
        }
    }

    /// Windowed SMAPE of `key` (`None` until its first record).
    pub fn smape(&self, key: u64) -> Option<f64> {
        self.windows
            .lock()
            .unwrap()
            .get(&key)
            .map(|w| w.recent().0.mean())
    }

    /// Windowed MAE of `key` (`None` until its first record).
    pub fn mae(&self, key: u64) -> Option<f64> {
        self.windows
            .lock()
            .unwrap()
            .get(&key)
            .map(|w| w.recent().1.abs_mean())
    }

    /// Mergeable accuracy partial of `key` (`None` until its first
    /// record).
    pub fn summary(&self, key: u64) -> Option<KeyAccuracy> {
        self.windows.lock().unwrap().get(&key).map(|w| {
            let (smape, err) = w.recent();
            KeyAccuracy {
                key,
                smape,
                err,
                baseline_err: w.baseline_err,
                drifting: w.above,
            }
        })
    }

    /// Mergeable accuracy partials for every tracked key, sorted by
    /// key. The per-tracker mutex is held only while copying summaries
    /// out — merging across trackers happens lock-free on the copies.
    pub fn summaries(&self) -> Vec<KeyAccuracy> {
        let windows = self.windows.lock().unwrap();
        let mut out: Vec<KeyAccuracy> = windows
            .iter()
            .map(|(&key, w)| {
                let (smape, err) = w.recent();
                KeyAccuracy {
                    key,
                    smape,
                    err,
                    baseline_err: w.baseline_err,
                    drifting: w.above,
                }
            })
            .collect();
        drop(windows);
        out.sort_by_key(|s| s.key);
        out
    }

    /// Merges per-key partials from many trackers (shards) into one
    /// global view, sorted by key. No lock spans trackers: each tracker
    /// is snapshotted independently and the [`KeyAccuracy::merge`]
    /// folds run on the copies. Merge work counts into
    /// `obs.sketch.accuracy_merges`.
    pub fn merged(trackers: &[&RollingAccuracy]) -> Vec<KeyAccuracy> {
        let mut by_key: BTreeMap<u64, KeyAccuracy> = BTreeMap::new();
        let mut merges = 0u64;
        for t in trackers {
            for s in t.summaries() {
                by_key
                    .entry(s.key)
                    .and_modify(|acc| {
                        *acc = acc.merge(&s);
                        merges += 1;
                    })
                    .or_insert(s);
            }
        }
        if merges > 0 {
            registry()
                .counter(names::OBS_SKETCH_ACCURACY_MERGES)
                .add(merges);
        }
        by_key.into_values().collect()
    }

    /// Folds already-snapshotted partials (e.g. decoded from shard
    /// `/sketch` bundles) into one global view, sorted by key — the
    /// router-side counterpart of [`RollingAccuracy::merged`]. Merge
    /// work counts into `obs.sketch.accuracy_merges`.
    pub fn merged_partials(groups: &[Vec<KeyAccuracy>]) -> Vec<KeyAccuracy> {
        let mut by_key: BTreeMap<u64, KeyAccuracy> = BTreeMap::new();
        let mut merges = 0u64;
        for group in groups {
            for s in group {
                by_key
                    .entry(s.key)
                    .and_modify(|acc| {
                        *acc = acc.merge(s);
                        merges += 1;
                    })
                    .or_insert(*s);
            }
        }
        if merges > 0 {
            registry()
                .counter(names::OBS_SKETCH_ACCURACY_MERGES)
                .add(merges);
        }
        by_key.into_values().collect()
    }

    /// Number of keys tracked so far.
    pub fn tracked_keys(&self) -> usize {
        self.windows.lock().unwrap().len()
    }

    /// Clears `key`'s window **and baseline** (call after the model was
    /// re-estimated, so the fresh parameters are not judged by stale
    /// errors — and so the next genuine excursion re-alerts on either
    /// trigger).
    pub fn reset_key(&self, key: u64) {
        let mut windows = self.windows.lock().unwrap();
        if let Some(w) = windows.get_mut(&key) {
            *w = KeyWindow::new(self.opts.window);
        }
        drop(windows);
        self.publish_gauges(key, 0.0, 0.0, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(window: usize, threshold: f64, min_samples: usize) -> AccuracyOptions {
        AccuracyOptions {
            window,
            smape_threshold: threshold,
            min_samples,
            // Tests of the SMAPE trigger disable the variance trigger.
            stddev_k: 0.0,
        }
    }

    #[test]
    fn window_math_matches_hand_computation() {
        let acc = RollingAccuracy::new(opts(3, 0.9, 1));
        // Perfect forecast: SMAPE term 0, MAE 0.
        acc.record(1, 10.0, 10.0);
        assert_eq!(acc.smape(1), Some(0.0));
        assert_eq!(acc.mae(1), Some(0.0));
        // One fully-wrong step: |10-0|/|10+0| = 1.
        acc.record(1, 10.0, 0.0);
        assert!((acc.smape(1).unwrap() - 0.5).abs() < 1e-12);
        assert!((acc.mae(1).unwrap() - 5.0).abs() < 1e-12);
        // Window slides: after 3 more perfect steps the bad one is gone.
        for _ in 0..3 {
            acc.record(1, 10.0, 10.0);
        }
        assert_eq!(acc.smape(1), Some(0.0));
        // ... but not forgotten: it aged into the baseline.
        let s = acc.summary(1).expect("tracked");
        assert_eq!(s.err.count(), 3);
        assert_eq!(s.baseline_err.count(), 2);
        assert_eq!(s.total(), 5);
    }

    #[test]
    fn drift_fires_on_threshold_crossing_only() {
        let acc = RollingAccuracy::new(opts(4, 0.4, 2));
        assert!(acc.record(7, 10.0, 10.0).is_none());
        // First bad step: window SMAPE 0.5 but only fires once the edge
        // is crossed with >= min_samples.
        let alert = acc.record(7, 10.0, 0.0).expect("crossing fires");
        assert_eq!(alert.key, 7);
        assert!(alert.smape > 0.4);
        assert_eq!(alert.threshold, 0.4);
        assert_eq!(alert.trigger, DriftTrigger::SmapeThreshold);
        // Still above: no re-fire.
        assert!(acc.record(7, 10.0, 0.0).is_none());
        // Recover below, then cross again: fires again.
        for _ in 0..4 {
            assert!(acc.record(7, 10.0, 10.0).is_none());
        }
        for _ in 0..4 {
            if acc.record(7, 10.0, 0.0).is_some() {
                return;
            }
        }
        panic!("second excursion must re-alert");
    }

    #[test]
    fn min_samples_suppresses_early_noise() {
        let acc = RollingAccuracy::new(opts(8, 0.2, 4));
        // Three terrible steps — below min_samples, no alert.
        for _ in 0..3 {
            assert!(acc.record(1, 100.0, 0.0).is_none());
        }
        // The fourth reaches min_samples and fires.
        assert!(acc.record(1, 100.0, 0.0).is_some());
    }

    #[test]
    fn variance_trigger_catches_mean_shift_under_the_smape_radar() {
        // SMAPE threshold unreachable (SMAPE terms are ≤ 1), so only
        // the variance trigger can fire.
        let acc = RollingAccuracy::new(AccuracyOptions {
            window: 4,
            smape_threshold: 2.0,
            min_samples: 2,
            stddev_k: 3.0,
        });
        // Build a calm baseline: small errors around 1.0 must age out
        // of the 4-slot ring into the baseline.
        for i in 0..12 {
            let jitter = if i % 2 == 0 { 0.9 } else { 1.1 };
            assert!(
                acc.record(5, 100.0 + jitter, 100.0).is_none(),
                "calm phase must not alert (step {i})"
            );
        }
        // Level shift: errors jump to ~25 — far beyond baseline
        // mean + 3·stddev, while SMAPE stays ≈ 0.11.
        let mut fired = None;
        for _ in 0..4 {
            if let Some(a) = acc.record(5, 125.0, 100.0) {
                fired = Some(a);
                break;
            }
        }
        let alert = fired.expect("variance trigger fires on the shift");
        assert_eq!(alert.trigger, DriftTrigger::Variance);
        assert!(alert.smape < 0.2, "smape {} stayed small", alert.smape);
        assert!(alert.mae > alert.baseline_mae + 3.0 * alert.baseline_stddev);
        // Still above: edge-triggered, no re-fire.
        assert!(acc.record(5, 125.0, 100.0).is_none());
    }

    /// Regression: with `min_samples = 0` the very first observation
    /// must not raise a drift alert — the effective minimum clamps to 1
    /// for the SMAPE trigger, and the variance trigger needs a baseline
    /// of at least two observations (a 1-sample baseline has stddev 0
    /// and would otherwise alert on any increase).
    #[test]
    fn min_samples_zero_cannot_alert_on_first_observation() {
        let acc = RollingAccuracy::new(AccuracyOptions {
            window: 2,
            smape_threshold: 2.0, // unreachable: isolate the variance path
            min_samples: 0,
            stddev_k: 0.5,
        });
        assert_eq!(acc.options().min_samples, 1, "clamped on construction");
        // First observation: window of 1, baseline of 0 — silence, and
        // the published stddev is finite.
        assert!(acc.record(9, 1000.0, 0.0).is_none());
        let s = acc.summary(9).expect("tracked");
        assert!(s.err.stddev().is_finite());
        assert!(!s.drifting);
        // Second observation: baseline still has < 2 samples — silence.
        assert!(acc.record(9, 1000.0, 0.0).is_none());
        // Two more calm records age errors into the baseline; once the
        // baseline holds 2 observations the variance trigger arms and a
        // genuine excursion still fires.
        assert!(acc.record(9, 1.0, 0.0).is_none());
        assert!(acc.record(9, 1.0, 0.0).is_none());
        assert!(
            acc.record(9, 5000.0, 0.0).is_some(),
            "armed trigger still catches a real excursion"
        );
    }

    #[test]
    fn reset_key_clears_window_and_rearms() {
        let acc = RollingAccuracy::new(opts(4, 0.4, 1));
        assert!(acc.record(3, 10.0, 0.0).is_some());
        acc.reset_key(3);
        assert_eq!(acc.smape(3), Some(0.0));
        assert_eq!(acc.summary(3).unwrap().total(), 0, "baseline cleared too");
        // Re-armed: the next excursion alerts again.
        assert!(acc.record(3, 10.0, 0.0).is_some());
    }

    #[test]
    fn gauges_publish_per_key_series() {
        let acc = RollingAccuracy::new(opts(4, 0.9, 1)).with_gauge_families(
            "acc_test.smape",
            "acc_test.mae",
            "acc_test.err_stddev",
        );
        acc.record(42, 10.0, 0.0);
        acc.record(42, 14.0, 0.0);
        let snap = crate::snapshot();
        let find = |name: &str| {
            snap.float_gauges
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .1
        };
        assert!((find("acc_test.smape{node=\"42\"}") - 1.0).abs() < 1e-12);
        assert!((find("acc_test.mae{node=\"42\"}") - 12.0).abs() < 1e-12);
        // Sample stddev of {10, 14} = √8.
        assert!((find("acc_test.err_stddev{node=\"42\"}") - 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn zero_denominator_is_not_an_error() {
        let acc = RollingAccuracy::new(opts(2, 0.1, 1));
        assert!(acc.record(1, 0.0, 0.0).is_none());
        assert_eq!(acc.smape(1), Some(0.0));
    }

    #[test]
    fn partials_merge_exactly_across_trackers() {
        // Two shards observe different steps of the same node; the
        // merged view must pool counts and moments exactly — the router
        // story for partitioned serving.
        let a = RollingAccuracy::new(opts(8, 0.9, 1));
        let b = RollingAccuracy::new(opts(8, 0.9, 1));
        for i in 0..5 {
            a.record(7, 10.0 + i as f64, 10.0);
        }
        for i in 0..3 {
            b.record(7, 20.0 + i as f64, 10.0);
        }
        b.record(9, 1.0, 1.0); // a key only shard b tracks
        let merged = RollingAccuracy::merged(&[&a, &b]);
        assert_eq!(merged.len(), 2);
        let node7 = &merged[0];
        assert_eq!(node7.key, 7);
        assert_eq!(node7.err.count(), 8);
        // Pooled MAE over {0,1,2,3,4} ∪ {10,11,12}: 43/8.
        assert!((node7.err.abs_mean() - 43.0 / 8.0).abs() < 1e-12);
        // Merging is reproducible bit-for-bit over the same partials.
        let s1 = a.summary(7).unwrap();
        let s2 = b.summary(7).unwrap();
        assert_eq!(s1.merge(&s2).encode(), s1.merge(&s2).encode());
        assert_eq!(merged[1].key, 9);
    }

    /// Replication story: a primary and a follower each track accuracy
    /// locally and ship [`KeyAccuracy`] **codec bytes**; the view
    /// rebuilt from the wire must equal the in-process
    /// [`RollingAccuracy::merged`] oracle bit-for-bit — same keys, same
    /// moments, same drift flags, same encoded bytes.
    #[test]
    fn follower_merge_over_codec_bytes_matches_the_in_process_oracle() {
        let primary = RollingAccuracy::new(opts(6, 0.4, 1));
        let follower = RollingAccuracy::new(opts(6, 0.4, 1));
        // Key 3 is observed by both sides (overlapping windows, one
        // side driven into a drift excursion), 5 only by the primary,
        // 8 only by the follower.
        for i in 0..9 {
            primary.record(3, 10.0 + i as f64, 10.0);
            primary.record(5, 4.0, 2.0 + i as f64);
        }
        for i in 0..5 {
            follower.record(3, 30.0 + i as f64, 1.0);
            follower.record(8, 2.0, 2.0);
        }
        // The wire trip a router performs: encode every partial on its
        // origin, decode and fold on arrival.
        let mut shipped: Vec<Vec<u8>> = Vec::new();
        for tracker in [&primary, &follower] {
            for s in tracker.summaries() {
                shipped.push(s.encode());
            }
        }
        let mut by_key: BTreeMap<u64, KeyAccuracy> = BTreeMap::new();
        for bytes in &shipped {
            let s = KeyAccuracy::decode(bytes).expect("wire partial decodes");
            by_key
                .entry(s.key)
                .and_modify(|acc| *acc = acc.merge(&s))
                .or_insert(s);
        }
        let via_bytes: Vec<KeyAccuracy> = by_key.into_values().collect();

        let oracle = RollingAccuracy::merged(&[&primary, &follower]);
        assert_eq!(via_bytes.len(), oracle.len());
        assert_eq!(
            via_bytes.iter().map(|s| s.key).collect::<Vec<_>>(),
            vec![3, 5, 8]
        );
        for (wire, local) in via_bytes.iter().zip(&oracle) {
            assert_eq!(wire, local, "key {} diverged over the wire", local.key);
            assert_eq!(
                wire.encode(),
                local.encode(),
                "key {} re-encodes differently",
                local.key
            );
        }
        // The overlapping key pooled both windows and kept the drift OR.
        let node3 = &oracle[0];
        assert_eq!(node3.err.count(), 6 + 5);
        assert!(
            node3.drifting,
            "the follower-side excursion must survive the merge"
        );
    }

    #[test]
    fn key_accuracy_codec_round_trips() {
        let acc = RollingAccuracy::new(opts(3, 0.4, 1));
        for i in 0..7 {
            acc.record(11, i as f64, 0.5);
        }
        let s = acc.summary(11).unwrap();
        let bytes = s.encode();
        let back = KeyAccuracy::decode(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.encode(), bytes);
        assert_eq!(
            KeyAccuracy::decode(&bytes[..5]),
            Err(SketchDecodeError::Truncated)
        );
        let mut wrong = bytes.clone();
        wrong[0] = 9;
        assert_eq!(
            KeyAccuracy::decode(&wrong),
            Err(SketchDecodeError::UnsupportedVersion(9))
        );
    }
}
