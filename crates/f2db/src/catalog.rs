//! Configuration storage (§V): the two catalog tables of F²DB, stored by
//! node.
//!
//! "The first one stores the time series graph and model configuration
//! (including model assignments, derivation schemes and corresponding
//! weights), and the second table stores the forecast models itself
//! including state and parameter values." Here the first table is the
//! per-node scheme and weight columns (a row copied out is a
//! [`CatalogEntry`]), the second the [`StoredModel`] slots; both
//! serialize into one `F2DB` file (see [`Catalog::encode`]).
//!
//! ## Concurrency
//!
//! Every per-node scalar sits in a dense table indexed by node id. A
//! node's scheme sources never change after the catalog is built, and
//! its derivation weight is the bits of an `f64` in an atomic that only
//! the advance rewrites, so both are read under no lock. The set of
//! stored models is fixed once the catalog is built or decoded: each
//! model has its own slot behind its own `RwLock`. A point query
//! read-locks the models its scheme derives from and nothing for the
//! node itself; a re-fit write-locks only the model it re-fits, so it
//! stalls no reader of another model; the advance write-locks each model
//! in turn. The history sums, read only by the advance and by
//! [`Catalog::encode`], are one vector behind one mutex.
//!
//! Lock rule: **a reader holds one model lock at a time.** `std`'s
//! `RwLock` turns new readers away while a writer waits, so two readers
//! that each hold one model and ask for the other's, with a re-fit
//! waiting on each, would never finish. [`Catalog::forecast`] therefore
//! releases each source's model before it visits the next.
//! ([`Catalog::encode`] takes every model's read lock, in node order; it
//! is the only holder of several.)
//!
//! Lazy parameter re-estimation is **single-flight**, and the model's
//! write lock is the flight: a caller that finds the model invalid takes
//! that lock and decides under it — still invalid, it re-fits; valid
//! again, the re-fit it queued behind served it. The dedup is observable
//! in the `fdc-obs` registry (`f2db.models.reestimated` counts exactly
//! one re-fit per invalidation epoch, `f2db.reestimate.in_flight` gauges
//! the fits currently running).
//!
//! Consistency model: every individual model read is consistent (model
//! locks), and [`Catalog::advance_time`] is serialized by the caller
//! (F²DB's maintenance processor). A query that reads several models
//! *while* an advance is in progress may observe a mix of pre- and
//! post-advance models and weights; callers that need strict serial
//! equivalence (the stress suite) phase queries and advances with
//! barriers. A lazy re-fit that races an advance stays safe even without
//! barriers: a refit landing after the dataset append already absorbed
//! the newest observation, and the advance pass detects this (via the
//! model's observation count) and skips its incremental update, so no
//! observation is ever applied twice.

use crate::maintenance::MaintenancePolicy;
use crate::{F2dbError, Result, INLINE_STEPS};
use fdc_codec::{Reader, Writer};
use fdc_cube::derive::{derived_point, weight};
use fdc_cube::query::stack_or_heap;
use fdc_cube::{Configuration, Dataset, NodeId};
use fdc_forecast::model::restore_model;
use fdc_forecast::{AccuracyMeasure, FitOptions, ForecastModel, ModelState};
use fdc_obs::{journal, names, Event, RollingAccuracy};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Magic bytes identifying a catalog file.
pub const MAGIC: &[u8; 4] = b"F2DB";
/// On-disk format version, the only one this build reads or writes.
/// (Version 2 added the per-model invalidation epoch; no build since
/// has written version 1.)
pub const VERSION: u16 = 2;

/// The slot of a node without a stored model.
const NO_MODEL: usize = usize::MAX;

/// Per-node configuration row: the derivation scheme serving the node,
/// as [`Catalog::entry`] copies it out.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// Source nodes whose model forecasts are combined.
    pub scheme_sources: Vec<NodeId>,
    /// Derivation weight `k` (maintained incrementally as time advances).
    pub weight: f64,
}

/// A stored forecast model with its maintenance state.
pub struct StoredModel {
    /// The live model instance (kept up to date incrementally).
    pub model: Box<dyn ForecastModel>,
    /// Whether the model was marked invalid (parameters stale); lazily
    /// re-estimated when a query references it.
    pub invalid: bool,
    /// Exponentially weighted one-step SMAPE at the model's node, driving
    /// the threshold-based invalidation strategy.
    pub rolling_error: f64,
    /// Invalidation epoch: incremented every time the model is marked
    /// invalid. Lets the stress suite assert that one epoch never pays
    /// for more than one re-estimation. Persisted by the codec (format
    /// version 2), so the count survives a save/restore — and saturates,
    /// because a decoded count may sit at the top of its range.
    pub epoch: u64,
}

impl std::fmt::Debug for StoredModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoredModel")
            .field("name", &self.model.name())
            .field("invalid", &self.invalid)
            .field("rolling_error", &self.rolling_error)
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl StoredModel {
    /// Marks the model invalid, opening a new epoch. Returns whether the
    /// flag changed.
    fn invalidate(&mut self) -> bool {
        if self.invalid {
            return false;
        }
        self.invalid = true;
        self.epoch = self.epoch.saturating_add(1);
        true
    }

    /// Re-estimates the model at `node` on its full current history,
    /// paying the artificial cost first, and clears its invalid flag and
    /// rolling error.
    fn refit(&mut self, node: NodeId, dataset: &Dataset, fit: &FitOptions) -> Result<()> {
        fit.apply_artificial_cost();
        self.model
            .refit(dataset.series(node), fit)
            .map_err(|e| F2dbError::Cube(format!("re-estimating node {node}: {e}")))?;
        self.invalid = false;
        self.rolling_error = 0.0;
        Ok(())
    }
}

/// Tallies of one [`Catalog::advance_time`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceOutcome {
    /// Incremental model state updates performed.
    pub model_updates: u64,
    /// Models newly marked invalid (by the policy or a drift alert).
    pub invalidations: u64,
    /// Drift alerts raised by the accuracy tracker during this advance.
    pub drift_alerts: u64,
}

/// How a [`Catalog::reestimate_single_flight`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reestimation {
    /// The model was already valid; nothing to do.
    AlreadyValid,
    /// This thread was the leader and re-fitted the model.
    Refit,
    /// Another thread was already re-fitting; this thread waited on the
    /// model's lock and reused the result.
    Waited,
}

/// The catalog: configuration rows + model store + the per-node history
/// sums needed to update derivation weights incrementally.
#[derive(Debug)]
pub struct Catalog {
    advances: AtomicU64,
    /// `schemes[v]`: the scheme sources of node `v`, `None` without a
    /// scheme, one row per node. Fixed for the catalog's lifetime, so
    /// read under no lock.
    schemes: Vec<Option<Box<[NodeId]>>>,
    /// `weights[v]`: the bits of node `v`'s derivation weight `k` (0
    /// without a scheme). Rewritten only by the advance, read under no
    /// lock; `Relaxed`, as a weight publishes no other data.
    weights: Vec<AtomicU64>,
    /// `slots[v]`: where node `v`'s model sits in `models`, [`NO_MODEL`]
    /// without one.
    slots: Vec<usize>,
    /// The stored models with their nodes, in ascending node order, each
    /// behind its own lock.
    models: Vec<(NodeId, RwLock<StoredModel>)>,
    /// `history_sums[v]`: the sum of node `v`'s history so far.
    history_sums: Mutex<Vec<f64>>,
}

/// Read-locks a model, counting contended acquisitions into the
/// `f2db.model.read_contention` metric.
fn read(lock: &RwLock<StoredModel>) -> RwLockReadGuard<'_, StoredModel> {
    lock.try_read().unwrap_or_else(|_| {
        fdc_obs::counter!(names::F2DB_MODEL_READ_CONTENTION).incr();
        lock.read().unwrap()
    })
}

/// Write-locks a model, counting contended acquisitions into the
/// `f2db.model.write_contention` metric.
fn write(lock: &RwLock<StoredModel>) -> RwLockWriteGuard<'_, StoredModel> {
    lock.try_write().unwrap_or_else(|_| {
        fdc_obs::counter!(names::F2DB_MODEL_WRITE_CONTENTION).incr();
        lock.write().unwrap()
    })
}

impl Catalog {
    /// A catalog of these per-node schemes, weights and history sums
    /// and of these models (every node below `schemes.len()`).
    fn new(
        schemes: Vec<Option<Box<[NodeId]>>>,
        weights: Vec<f64>,
        models: BTreeMap<NodeId, StoredModel>,
        history_sums: Vec<f64>,
        advances: u64,
    ) -> Self {
        let mut slots = vec![NO_MODEL; schemes.len()];
        for (slot, &node) in models.keys().enumerate() {
            slots[node] = slot;
        }
        Catalog {
            advances: AtomicU64::new(advances),
            schemes,
            weights: weights
                .into_iter()
                .map(|k| AtomicU64::new(k.to_bits()))
                .collect(),
            slots,
            models: models
                .into_iter()
                .map(|(node, stored)| (node, RwLock::new(stored)))
                .collect(),
            history_sums: Mutex::new(history_sums),
        }
    }

    /// The lock of `node`'s model, if it has one ([`NO_MODEL`] is no
    /// index of `models`).
    fn model(&self, node: NodeId) -> Option<&RwLock<StoredModel>> {
        let &slot = self.slots.get(node)?;
        self.models.get(slot).map(|(_, lock)| lock)
    }

    /// `node`'s model, read-locked.
    fn read_model(&self, node: NodeId) -> Option<RwLockReadGuard<'_, StoredModel>> {
        self.model(node).map(read)
    }

    /// The derivation weight `k` of `node` (0 without a scheme).
    fn weight(&self, node: NodeId) -> f64 {
        f64::from_bits(self.weights[node].load(Ordering::Relaxed))
    }

    /// Sets every scheme's weight `k` from these per-node history sums.
    fn refresh_weights(&self, sums: &[f64]) {
        for (v, sources) in self.schemes.iter().enumerate() {
            if let Some(sources) = sources {
                let h_s: f64 = sources.iter().map(|&s| sums[s]).sum();
                self.weights[v].store(weight(sums[v], h_s).to_bits(), Ordering::Relaxed);
            }
        }
    }

    /// Builds a catalog from an advisor/baseline configuration.
    ///
    /// Every stored model is refit on the node's **full** history (the
    /// advisor evaluated on the training split; deployment forecasts must
    /// start at the current end of the data). Derivation weights are
    /// recomputed over the full history accordingly.
    pub fn from_configuration(
        dataset: &Dataset,
        configuration: &Configuration,
        fit: &FitOptions,
    ) -> Result<Self> {
        let n = dataset.node_count();
        let schemes = (0..n)
            .map(|v| {
                let scheme = configuration.estimate(v).scheme.as_ref();
                scheme.map(|scheme| scheme.sources.clone().into_boxed_slice())
            })
            .collect();
        let mut models = BTreeMap::new();
        for (node, cm) in configuration.models() {
            let model = cm
                .spec
                .fit(dataset.series(node), fit)
                .map_err(|e| F2dbError::Cube(format!("refitting model at node {node}: {e}")))?;
            let stored = StoredModel {
                model,
                invalid: false,
                rolling_error: 0.0,
                epoch: 0,
            };
            models.insert(node, stored);
        }
        let history_sums: Vec<f64> = (0..n).map(|v| dataset.series(v).history_sum()).collect();
        let catalog = Catalog::new(schemes, vec![0.0; n], models, history_sums, 0);
        catalog.refresh_weights(&catalog.history_sums.lock().unwrap());
        Ok(catalog)
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.schemes.len()
    }

    /// Lifetime count of time advances this catalog has absorbed —
    /// persisted with the catalog, so it survives a save/open cycle and
    /// lets a restart verify that every acknowledged advance was durable.
    pub fn advances(&self) -> u64 {
        self.advances.load(Ordering::SeqCst)
    }

    /// Number of stored models.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// The configuration row of `node` (copied out).
    pub fn entry(&self, node: NodeId) -> Option<CatalogEntry> {
        let sources = self.schemes.get(node)?.as_deref()?;
        Some(CatalogEntry {
            scheme_sources: sources.to_vec(),
            weight: self.weight(node),
        })
    }

    /// Whether the model at `node` is marked invalid.
    pub fn is_invalid(&self, node: NodeId) -> bool {
        self.read_model(node).is_some_and(|m| m.invalid)
    }

    /// Invalidation epoch of the model at `node` (how many times it has
    /// been marked invalid so far).
    pub fn epoch(&self, node: NodeId) -> Option<u64> {
        self.read_model(node).map(|m| m.epoch)
    }

    /// Number of observations the model at `node` has absorbed.
    pub fn observations(&self, node: NodeId) -> Option<usize> {
        self.read_model(node).map(|m| m.model.observations())
    }

    /// Rolling one-step SMAPE of the model at `node`.
    pub fn rolling_error(&self, node: NodeId) -> Option<f64> {
        self.read_model(node).map(|m| m.rolling_error)
    }

    /// All nodes whose models are currently marked invalid, ascending.
    pub fn invalid_nodes(&self) -> Vec<NodeId> {
        self.models
            .iter()
            .filter(|(_, lock)| read(lock).invalid)
            .map(|&(node, _)| node)
            .collect()
    }

    /// Marks the model at `node` invalid (next referencing query pays for
    /// a re-estimation). Returns whether the flag changed.
    pub fn invalidate(&self, node: NodeId) -> bool {
        self.model(node)
            .is_some_and(|lock| write(lock).invalidate())
    }

    /// Marks every stored model invalid; returns how many flags changed.
    pub fn invalidate_all(&self) -> usize {
        self.models
            .iter()
            .filter(|(_, lock)| write(lock).invalidate())
            .count()
    }

    /// Computes the forecast of `node` from its scheme and the stored
    /// models. `None` when the node has no scheme or a source model is
    /// missing.
    pub fn forecast(&self, node: NodeId, horizon: usize) -> Option<Vec<f64>> {
        let mut values = Vec::with_capacity(horizon);
        values.resize(horizon, 0.0);
        let len = self.forecast_into(node, &mut values)?;
        values.truncate(len);
        Some(values)
    }

    /// [`Catalog::forecast`] over `out.len()` steps, written into `out`.
    /// Returns how many values were derived: all of `out`, or none for
    /// a scheme of no sources.
    pub(crate) fn forecast_into(&self, node: NodeId, out: &mut [f64]) -> Option<usize> {
        Some(self.derive(node, out, false)?.0)
    }

    /// [`Catalog::forecast_into`] for a query that has not looked at the
    /// node's sources yet: the visit that forecasts a source checks it.
    /// The number of values derived and of sources they were derived
    /// from — or `None` unless every source is present, valid and
    /// strictly above the one before it: anything else is for the lazy
    /// re-estimation pass to sort, deduplicate, re-fit and count the way
    /// it does.
    pub(crate) fn forecast_if_settled(
        &self,
        node: NodeId,
        out: &mut [f64],
    ) -> Option<(usize, usize)> {
        self.derive(node, out, true)
    }

    /// Eq. (1) over the stored models into `out`, copying nothing: the
    /// sources and the weight are read from the per-node tables under no
    /// lock, and each source's model under its own lock, released before
    /// the next source is visited — a reader never holds two model locks
    /// (`a_reader_waiting_for_a_source_holds_no_other_model`).
    ///
    /// The first source forecasts straight into `out`: every further
    /// source forecasts into a scratch buffer and adds into it in place,
    /// and each sum is then scaled by [`derived_point`]. A left fold
    /// from the first value, then added to `0.0`, is bit for bit the
    /// fold from `0.0` that `derived_point` takes over all the values
    /// (`-0.0` included), so a single-source scheme scales its one
    /// forecast, and every value keeps the bits `derive_forecast` gives
    /// it. Returns the number of values derived (none without sources)
    /// and of sources.
    fn derive(&self, node: NodeId, out: &mut [f64], settled_only: bool) -> Option<(usize, usize)> {
        let sources = self.schemes.get(node)?.as_deref()?;
        let k = self.weight(node);
        let (mut inline, mut heap) = ([0.0; INLINE_STEPS], Vec::new());
        for (i, &s) in sources.iter().enumerate() {
            let stored = self.read_model(s)?;
            if settled_only && (stored.invalid || (i > 0 && sources[i - 1] >= s)) {
                return None;
            }
            if i == 0 {
                stored.model.forecast_into(out);
            } else {
                let forecast = stack_or_heap(&mut inline, &mut heap, out.len(), 0.0);
                stored.model.forecast_into(forecast);
                out.iter_mut().zip(forecast).for_each(|(acc, v)| *acc += *v);
            }
        }
        if sources.is_empty() {
            return Some((0, 0));
        }
        for v in out.iter_mut() {
            *v = derived_point([*v], k);
        }
        Some((out.len(), sources.len()))
    }

    /// The scheme sources of `node` (none without a scheme).
    pub(crate) fn sources(&self, node: NodeId) -> &[NodeId] {
        self.schemes
            .get(node)
            .and_then(Option::as_deref)
            .unwrap_or(&[])
    }

    /// Advances the catalog by one time stamp after the data set grew:
    /// model states absorb their node's new actual value, rolling errors
    /// update, derivation weights are refreshed from the new history
    /// sums, and the invalidation policy is applied.
    ///
    /// Write-locks one model at a time (never the whole catalog); the
    /// caller (F²DB's maintenance processor) serializes concurrent
    /// advances.
    pub fn advance_time(
        &self,
        dataset: &Dataset,
        last_index: usize,
        policy: &MaintenancePolicy,
    ) -> AdvanceOutcome {
        self.advance_time_with(dataset, last_index, policy, None)
    }

    /// [`Catalog::advance_time`] with an optional [`RollingAccuracy`]
    /// tracker: each stored model's `(actual, one-step forecast)` pair is
    /// fed into the tracker, and a [`fdc_obs::DriftAlert`] (windowed
    /// SMAPE crossing its threshold, or MAE exceeding the node's own
    /// baseline by k·stddev) additionally marks the model invalid —
    /// drift is a first-class invalidation trigger alongside the
    /// configured policy. Alerts land in the event journal (tagged with
    /// their trigger) and the `f2db.drift.alerts` counter.
    pub fn advance_time_with(
        &self,
        dataset: &Dataset,
        last_index: usize,
        policy: &MaintenancePolicy,
        accuracy: Option<&RollingAccuracy>,
    ) -> AdvanceOutcome {
        // Wrapping, as `fetch_add` itself is: a decoded counter may sit
        // at the top of its range.
        let advances = self.advances.fetch_add(1, Ordering::SeqCst).wrapping_add(1);
        let time_due = match policy {
            MaintenancePolicy::TimeBased { every } => {
                *every > 0 && advances.is_multiple_of(*every as u64)
            }
            _ => false,
        };
        let mut out = AdvanceOutcome::default();
        // Each model under its own write lock: state update + rolling
        // error + invalidation.
        for (node, lock) in &self.models {
            let node = *node;
            let mut stored = write(lock);
            // A lazy re-fit racing this advance may already have
            // fitted the model on the history *including*
            // `last_index`: the dataset append happens before this
            // pass, so a query's refit can observe the new value first.
            // Re-applying the incremental update would absorb the
            // newest observation twice and every later forecast would
            // silently diverge from the serial order. Such a refit
            // instead serializes after this advance: skip the update,
            // the rolling-error step and the policy (whose invalidation
            // that refit already consumed).
            if stored.model.observations() > last_index {
                fdc_obs::counter!(names::F2DB_ADVANCE_SKIPPED_UPDATES).incr();
                continue;
            }
            let actual = dataset.series(node).values()[last_index];
            let predicted = stored.model.forecast(1)[0];
            let step_err = AccuracyMeasure::Smape.point_error(actual, predicted);
            stored.rolling_error = 0.8 * stored.rolling_error + 0.2 * step_err;
            stored.model.update(actual);
            out.model_updates += 1;
            let mut invalidate = match policy {
                MaintenancePolicy::None => false,
                MaintenancePolicy::TimeBased { .. } => time_due,
                MaintenancePolicy::ThresholdBased { smape_threshold } => {
                    stored.rolling_error > *smape_threshold
                }
            };
            if let Some(acc) = accuracy {
                if let Some(alert) = acc.record(node as u64, actual, predicted) {
                    out.drift_alerts += 1;
                    invalidate = true;
                    fdc_obs::counter!(names::F2DB_DRIFT_ALERTS).incr();
                    journal().publish(Event::DriftAlert {
                        node: node as u64,
                        smape: alert.smape,
                        mae: alert.mae,
                        threshold: alert.threshold,
                        trigger: alert.trigger.as_str(),
                    });
                }
            }
            if invalidate && stored.invalidate() {
                out.invalidations += 1;
            }
        }
        // The history sums, then the weights derived from them (a weight
        // needs the sums of its node's sources).
        let mut sums = self.history_sums.lock().unwrap();
        for (v, h) in sums.iter_mut().enumerate() {
            *h += dataset.series(v).values()[last_index];
        }
        self.refresh_weights(&sums);
        out
    }

    /// Re-estimates the model at `node` on its full current history and
    /// clears the invalid flag (lazy maintenance, §V). Unconditional —
    /// concurrent callers should prefer
    /// [`Catalog::reestimate_single_flight`].
    pub fn reestimate(&self, node: NodeId, dataset: &Dataset, fit: &FitOptions) -> Result<()> {
        let lock = self
            .model(node)
            .ok_or_else(|| F2dbError::Semantic(format!("no model at node {node}")))?;
        write(lock).refit(node, dataset, fit)
    }

    /// Single-flight lazy re-estimation: when many threads hit the same
    /// invalidated model, exactly one re-fits; the rest queue on the
    /// model's write lock and find it valid. Re-fitting is deterministic
    /// (full-history refit), so which thread leads does not affect the
    /// forecasts served afterwards — and a failed re-fit leaves the
    /// model invalid, so the next caller fits again and meets the same
    /// error.
    pub fn reestimate_single_flight(
        &self,
        node: NodeId,
        dataset: &Dataset,
        fit: &FitOptions,
    ) -> Result<Reestimation> {
        let Some(lock) = self.model(node) else {
            return Ok(Reestimation::AlreadyValid);
        };
        if !read(lock).invalid {
            return Ok(Reestimation::AlreadyValid);
        }
        let mut stored = write(lock);
        if !stored.invalid {
            return Ok(Reestimation::Waited);
        }
        let in_flight = fdc_obs::gauge(names::F2DB_REESTIMATE_IN_FLIGHT);
        in_flight.incr();
        let result = stored.refit(node, dataset, fit);
        in_flight.decr();
        result?;
        let epoch = stored.epoch;
        drop(stored);
        journal().publish(Event::ReEstimation {
            node: node as u64,
            epoch,
            outcome: "refit",
        });
        Ok(Reestimation::Refit)
    }

    /// Serializes the catalog. The byte layout is canonical (node order).
    pub fn encode(&self) -> Vec<u8> {
        // Every model's read lock (ascending node), then the history
        // sums, for a consistent snapshot.
        let models: Vec<(NodeId, RwLockReadGuard<'_, StoredModel>)> = self
            .models
            .iter()
            .map(|(node, lock)| (*node, read(lock)))
            .collect();
        let sums = self.history_sums.lock().unwrap();

        let mut w = Writer::with_capacity(1024);
        w.header(MAGIC, VERSION);
        w.len(self.node_count());
        for (v, scheme) in self.schemes.iter().enumerate() {
            match scheme {
                None => w.u8(0),
                Some(sources) => {
                    w.u8(1);
                    w.len(sources.len());
                    for &source in sources.iter() {
                        w.u64(source as u64);
                    }
                    w.f64(self.weight(v));
                }
            }
        }
        w.len(models.len());
        for (node, stored) in &models {
            w.u64(*node as u64);
            w.u8(stored.invalid as u8);
            w.f64(stored.rolling_error);
            w.u64(stored.epoch);
            stored.model.state().encode_into(&mut w);
        }
        w.f64s(&sums);
        w.u64(self.advances.load(Ordering::SeqCst));
        w.finish()
    }

    /// Deserializes a catalog.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        r.header(MAGIC, VERSION..=VERSION)?;
        // The smallest entry is its tag byte alone.
        let n = r.count(1)?;
        let mut schemes: Vec<Option<Box<[NodeId]>>> = Vec::with_capacity(n);
        let mut weights = Vec::with_capacity(n);
        for _ in 0..n {
            match r.u8()? {
                0 => {
                    schemes.push(None);
                    weights.push(0.0);
                }
                1 => {
                    let sources = r.count(8)?;
                    let sources = (0..sources)
                        .map(|_| r.u64().map(|v| v as NodeId))
                        .collect::<std::result::Result<_, _>>()?;
                    schemes.push(Some(sources));
                    weights.push(r.f64()?);
                }
                t => return Err(F2dbError::Storage(format!("bad entry tag {t}"))),
            }
        }
        // Node, invalid flag, rolling error and epoch precede the state.
        let m = r.count(8 + 1 + 8 + 8 + ModelState::MIN_ENCODED_BYTES)?;
        let mut models = BTreeMap::new();
        for _ in 0..m {
            let node = r.u64()? as NodeId;
            let invalid = r.u8()? != 0;
            let rolling_error = r.f64()?;
            let epoch = r.u64()?;
            let state = ModelState::decode(&mut r)?;
            let model = restore_model(&state)
                .map_err(|e| F2dbError::Storage(format!("restoring model: {e}")))?;
            models.insert(
                node,
                StoredModel {
                    model,
                    invalid,
                    rolling_error,
                    epoch,
                },
            );
        }
        let history_sums = r.f64s()?;
        let advances = r.u64()?;
        r.finish()?;
        if history_sums.len() != n {
            return Err(F2dbError::Storage("inconsistent catalog arrays".into()));
        }
        // Weights are refreshed by indexing the per-node sums with every
        // scheme source.
        let mut sources = schemes.iter().flatten().flat_map(|sources| sources.iter());
        if let Some(source) = sources.find(|&&s| s >= n) {
            return Err(F2dbError::Storage(format!(
                "scheme source {source} outside catalog of {n} nodes"
            )));
        }
        if let Some(node) = models.keys().find(|&&node| node >= n) {
            return Err(F2dbError::Storage(format!(
                "model at node {node} outside catalog of {n} nodes"
            )));
        }
        Ok(Catalog::new(
            schemes,
            weights,
            models,
            history_sums,
            advances,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_cube::{ConfiguredModel, CubeSplit};
    use fdc_datagen::tourism_proxy;
    use fdc_forecast::ModelSpec;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn catalog_fixture() -> (Dataset, Catalog) {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let mut cfg = Configuration::new(ds.node_count());
        let top = ds.graph().top_node();
        let model = ConfiguredModel::fit(
            &split,
            top,
            &ModelSpec::default_for_period(4),
            &FitOptions::default(),
        )
        .unwrap();
        cfg.insert_model(top, model);
        let all: Vec<NodeId> = (0..ds.node_count()).collect();
        cfg.recompute_nodes(&ds, &split, &all);
        let catalog = Catalog::from_configuration(&ds, &cfg, &FitOptions::default()).unwrap();
        (ds, catalog)
    }

    #[test]
    fn catalog_serves_every_configured_node() {
        let (ds, catalog) = catalog_fixture();
        assert_eq!(catalog.model_count(), 1);
        for v in 0..ds.node_count() {
            let fc = catalog.forecast(v, 4).expect("every node has a scheme");
            assert_eq!(fc.len(), 4);
            assert!(fc.iter().all(|x| x.is_finite()));
        }
    }

    /// The in-place derivation against `derive_forecast` over the
    /// stored models, bit for bit: single-source schemes (direct and
    /// disaggregation) and schemes of two to five sources.
    #[test]
    fn a_derived_forecast_keeps_the_bits_of_derive_forecast() {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let g = ds.graph();
        let mut cfg = Configuration::new(ds.node_count());
        let spec = ModelSpec::default_for_period(4);
        let mut with_model = vec![g.top_node()];
        with_model.extend(g.base_nodes().iter().step_by(3));
        for &v in &with_model {
            let model = ConfiguredModel::fit(&split, v, &spec, &FitOptions::default());
            cfg.insert_model(v, model.unwrap());
        }
        let all: Vec<NodeId> = (0..ds.node_count()).collect();
        cfg.recompute_nodes(&ds, &split, &all);
        for (i, v) in (0..ds.node_count()).step_by(2).enumerate() {
            let sources = with_model.iter().copied().skip(i % 3).take(2 + i % 4);
            let scheme = fdc_cube::Scheme {
                sources: sources.collect(),
                weight: 1.0,
            };
            let estimate = fdc_cube::NodeEstimate {
                error: 0.5,
                scheme: Some(scheme),
            };
            cfg.set_estimate(v, estimate);
        }
        let catalog = Catalog::from_configuration(&ds, &cfg, &FitOptions::default()).unwrap();
        let mut widths = std::collections::BTreeSet::new();
        for v in 0..ds.node_count() {
            let entry = catalog.entry(v).expect("every node has a scheme");
            widths.insert(entry.scheme_sources.len());
            let forecasts: Vec<Vec<f64>> = entry
                .scheme_sources
                .iter()
                .map(|&s| catalog.read_model(s).unwrap().model.forecast(3))
                .collect();
            let refs: Vec<&[f64]> = forecasts.iter().map(Vec::as_slice).collect();
            let expected = fdc_cube::derive_forecast(&refs, entry.weight);
            let bits = |values: &[f64]| values.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let derived = catalog.forecast(v, 3).unwrap();
            assert_eq!(bits(&derived), bits(&expected), "node {v}");
        }
        assert_eq!(widths.into_iter().collect::<Vec<_>>(), [1, 2, 3, 4, 5]);
    }

    #[test]
    fn the_checking_visit_forecasts_only_a_settled_scheme() {
        // Two base models; the top derives from both, once with its
        // sources ascending and once the other way round.
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let (a, b) = (ds.graph().base_nodes()[0], ds.graph().base_nodes()[1]);
        let top = ds.graph().top_node();
        let catalog_with = |sources: Vec<NodeId>| {
            let mut cfg = Configuration::new(ds.node_count());
            for v in [a, b] {
                let spec = ModelSpec::default_for_period(4);
                let model = ConfiguredModel::fit(&split, v, &spec, &FitOptions::default());
                cfg.insert_model(v, model.unwrap());
            }
            let scheme = fdc_cube::Scheme {
                sources,
                weight: 1.0,
            };
            cfg.set_estimate(
                top,
                fdc_cube::NodeEstimate {
                    error: 0.5,
                    scheme: Some(scheme),
                },
            );
            Catalog::from_configuration(&ds, &cfg, &FitOptions::default()).unwrap()
        };
        let (low, high) = (a.min(b), a.max(b));
        let if_settled = |catalog: &Catalog| {
            let mut out = [0.0; 3];
            let (len, sources) = catalog.forecast_if_settled(top, &mut out)?;
            Some((out[..len].to_vec(), sources))
        };

        let catalog = catalog_with(vec![low, high]);
        let plain = catalog.forecast(top, 3).unwrap();
        let settled = Some((plain.clone(), 2));
        assert_eq!(if_settled(&catalog), settled);
        // A stale source: nothing to forecast from until it is re-fitted;
        // the plain forecast never asked.
        catalog.invalidate(high);
        assert_eq!(if_settled(&catalog), None);
        assert_eq!(catalog.forecast(top, 3), Some(plain));
        catalog
            .reestimate(high, &ds, &FitOptions::default())
            .unwrap();
        assert_eq!(if_settled(&catalog), settled);

        // Out of order, or one source twice: left to the pass that
        // sorts and deduplicates what it counts.
        for sources in [vec![high, low], vec![low, low]] {
            let catalog = catalog_with(sources);
            assert_eq!(if_settled(&catalog), None);
            assert!(catalog.forecast(top, 3).is_some());
        }
    }

    /// Four models whose schemes cross both ways: `x` derives from `m1`
    /// then `m0`, `y` from `m0` then `m1`, and `x` and `y` have models of
    /// their own. Returns `(dataset, catalog, [m0, m1], [x, y])`.
    fn crossing_fixture() -> (Dataset, Catalog, [NodeId; 2], [NodeId; 2]) {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let base = ds.graph().base_nodes();
        let (m0, m1, x, y) = (base[0], base[1], base[2], base[3]);
        let mut cfg = Configuration::new(ds.node_count());
        for m in [m0, m1, x, y] {
            let spec = ModelSpec::default_for_period(4);
            let model = ConfiguredModel::fit(&split, m, &spec, &FitOptions::default());
            cfg.insert_model(m, model.unwrap());
        }
        for (node, sources) in [(x, vec![m1, m0]), (y, vec![m0, m1])] {
            let scheme = fdc_cube::Scheme {
                sources,
                weight: 1.0,
            };
            cfg.set_estimate(
                node,
                fdc_cube::NodeEstimate {
                    error: 0.5,
                    scheme: Some(scheme),
                },
            );
        }
        let catalog = Catalog::from_configuration(&ds, &cfg, &FitOptions::default()).unwrap();
        (ds, catalog, [m0, m1], [x, y])
    }

    /// `std`'s `RwLock` turns new readers away while a writer waits, so
    /// a reader that held one model while asking for another could close
    /// a cycle with a reader nesting the other way and a re-fit waiting
    /// on each model. Pinned directly: while a source's model is
    /// write-held, the reader waiting for it holds no other model's
    /// lock — not the source it has visited, nor its own node's.
    #[test]
    fn a_reader_waiting_for_a_source_holds_no_other_model() {
        let (_ds, catalog, [m0, m1], [x, _]) = crossing_fixture();
        let refit_in_progress = catalog.model(m0).unwrap().write().unwrap();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| catalog.forecast(x, 2));
            // The reader needs microseconds to visit m1, reach m0 and block.
            let waited = Instant::now();
            while !reader.is_finished() && waited.elapsed() < Duration::from_millis(300) {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert!(!reader.is_finished(), "m0 is write-held");
            let free = |node| catalog.model(node).unwrap().try_write().is_ok();
            let (visited_is_free, home_is_free) = (free(m1), free(x));
            drop(refit_in_progress);
            assert!(reader.join().unwrap().is_some());
            assert!(visited_is_free, "the reader kept m1 while waiting");
            assert!(home_is_free, "the reader kept x's model while waiting");
        });
    }

    /// A re-fit write-locks its own model only: while one stalls, every
    /// other model of a catalog with a model at each node serves its
    /// forecast at once.
    #[test]
    fn a_refit_blocks_only_readers_of_its_own_model() {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let mut cfg = Configuration::new(ds.node_count());
        for v in 0..ds.node_count() {
            let model = ConfiguredModel::fit(&split, v, &ModelSpec::Ses, &FitOptions::default());
            cfg.insert_model(v, model.unwrap());
            let scheme = fdc_cube::Scheme {
                sources: vec![v],
                weight: 1.0,
            };
            cfg.set_estimate(
                v,
                fdc_cube::NodeEstimate {
                    error: 0.5,
                    scheme: Some(scheme),
                },
            );
        }
        assert!(ds.node_count() >= 17);
        let catalog = Catalog::from_configuration(&ds, &cfg, &FitOptions::default()).unwrap();
        assert!(catalog.invalidate(0));
        let stalled = FitOptions {
            artificial_stall_us: 500_000,
            ..FitOptions::default()
        };
        std::thread::scope(|scope| {
            let refit = scope.spawn(|| catalog.reestimate_single_flight(0, &ds, &stalled));
            // Read once the re-fit holds node 0's write lock.
            while !refit.is_finished() && catalog.model(0).unwrap().try_read().is_ok() {
                std::thread::yield_now();
            }
            for v in 1..ds.node_count() {
                let started = Instant::now();
                assert!(catalog.forecast(v, 2).is_some());
                let took = started.elapsed();
                assert!(
                    took < Duration::from_millis(250),
                    "node {v} waited {took:?} behind node 0's re-fit"
                );
            }
            assert!(!refit.is_finished(), "the reads ran during the stall");
            assert_eq!(refit.join().unwrap().unwrap(), Reestimation::Refit);
        });
    }

    /// The same under load: readers of both crossing schemes against
    /// back-to-back re-fits (each holds its model's write lock for the
    /// whole fit) of both sources.
    #[test]
    fn crossing_readers_and_refits_all_finish() {
        let (ds, catalog, models, nodes) = crossing_fixture();
        let shared = Arc::new((ds, catalog, std::sync::atomic::AtomicBool::new(false)));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        // Detached on purpose: a deadlocked thread cannot be joined.
        for model in models {
            let (shared, done) = (Arc::clone(&shared), done_tx.clone());
            std::thread::spawn(move || {
                let (ds, catalog, _) = &*shared;
                for _ in 0..1_000 {
                    catalog.invalidate(model);
                    let fit = FitOptions::default();
                    catalog.reestimate_single_flight(model, ds, &fit).unwrap();
                }
                done.send(()).unwrap();
            });
        }
        for reader in 0..8 {
            let (shared, done) = (Arc::clone(&shared), done_tx.clone());
            std::thread::spawn(move || {
                let (_, catalog, stop) = &*shared;
                while !stop.load(Ordering::Relaxed) {
                    assert!(catalog.forecast(nodes[reader % 2], 2).is_some());
                    // `None` while the source is stale.
                    let _ = catalog.forecast_if_settled(nodes[reader % 2], &mut [0.0; 2]);
                }
                done.send(()).unwrap();
            });
        }
        let finished = |threads: usize| {
            for _ in 0..threads {
                done_rx
                    .recv_timeout(Duration::from_secs(60))
                    .expect("no lock cycle between readers and re-fits");
            }
        };
        finished(2);
        shared.2.store(true, Ordering::Relaxed);
        finished(8);
    }

    #[test]
    fn weights_use_full_history() {
        let (ds, catalog) = catalog_fixture();
        let top = ds.graph().top_node();
        let base = ds.graph().base_nodes()[0];
        let entry = catalog.entry(base).unwrap();
        assert_eq!(entry.scheme_sources, vec![top]);
        let expect = ds.series(base).history_sum() / ds.series(top).history_sum();
        assert!((entry.weight - expect).abs() < 1e-12);
    }

    #[test]
    fn advance_time_updates_models_and_weights() {
        let (mut ds, catalog) = catalog_fixture();
        let top = ds.graph().top_node();
        let obs_before = catalog.observations(top).unwrap();
        let new: Vec<(NodeId, f64)> = ds
            .graph()
            .base_nodes()
            .iter()
            .map(|&b| (b, 500.0))
            .collect();
        ds.advance_time(&new).unwrap();
        let out = catalog.advance_time(&ds, ds.series_len() - 1, &MaintenancePolicy::None);
        assert_eq!(out.model_updates, 1);
        assert_eq!(catalog.observations(top).unwrap(), obs_before + 1);
        // Weight of an equally-sized base on the total drifts toward 1/32.
        let base = ds.graph().base_nodes()[0];
        let e = catalog.entry(base).unwrap();
        let expect = ds.series(base).history_sum() / ds.series(top).history_sum();
        assert!((e.weight - expect).abs() < 1e-12);
    }

    #[test]
    fn time_based_policy_invalidates_periodically() {
        let (mut ds, catalog) = catalog_fixture();
        let policy = MaintenancePolicy::TimeBased { every: 2 };
        let mut invalidations = 0;
        for round in 1..=4 {
            let new: Vec<(NodeId, f64)> = ds
                .graph()
                .base_nodes()
                .iter()
                .map(|&b| (b, 100.0))
                .collect();
            ds.advance_time(&new).unwrap();
            invalidations += catalog
                .advance_time(&ds, ds.series_len() - 1, &policy)
                .invalidations;
            let top = ds.graph().top_node();
            if round == 2 {
                assert!(catalog.is_invalid(top));
                assert_eq!(catalog.epoch(top), Some(1));
                // Re-estimate to observe the next invalidation.
                catalog
                    .reestimate(top, &ds, &FitOptions::default())
                    .unwrap();
                assert!(!catalog.is_invalid(top));
            }
        }
        assert_eq!(invalidations, 2);
    }

    #[test]
    fn threshold_policy_reacts_to_bad_forecasts() {
        let (mut ds, catalog) = catalog_fixture();
        let policy = MaintenancePolicy::ThresholdBased {
            smape_threshold: 0.15,
        };
        let mut invalidations = 0;
        // Feed absurd values so the one-step error explodes. The rolling
        // error is an EWMA with weight 0.2, so a single fully-wrong step
        // (SMAPE ≈ 1) pushes it to ≈ 0.2 — above the threshold.
        for _ in 0..2 {
            let new: Vec<(NodeId, f64)> =
                ds.graph().base_nodes().iter().map(|&b| (b, 1e6)).collect();
            ds.advance_time(&new).unwrap();
            invalidations += catalog
                .advance_time(&ds, ds.series_len() - 1, &policy)
                .invalidations;
        }
        assert!(catalog.is_invalid(ds.graph().top_node()));
        assert!(invalidations >= 1);
    }

    #[test]
    fn racing_refit_is_not_double_updated_by_advance() {
        let (mut ds, catalog) = catalog_fixture();
        let top = ds.graph().top_node();
        assert!(catalog.invalidate(top));
        let new: Vec<(NodeId, f64)> = ds
            .graph()
            .base_nodes()
            .iter()
            .map(|&b| (b, 321.0))
            .collect();
        ds.advance_time(&new).unwrap();
        // Replay the race window serially: a lazy refit lands between the
        // dataset append and the catalog advance, fitting through the new
        // observation and clearing the invalid flag.
        catalog
            .reestimate(top, &ds, &FitOptions::default())
            .unwrap();
        let obs = catalog.observations(top).unwrap();
        assert_eq!(obs, ds.series_len());
        let epoch = catalog.epoch(top);
        let out = catalog.advance_time(
            &ds,
            ds.series_len() - 1,
            &MaintenancePolicy::TimeBased { every: 1 },
        );
        assert_eq!(out.model_updates, 0, "already-fitted model must be skipped");
        assert_eq!(out.invalidations, 0, "the refit consumed this invalidation");
        assert_eq!(
            catalog.observations(top),
            Some(obs),
            "observation absorbed twice"
        );
        assert_eq!(catalog.epoch(top), epoch);
        assert!(!catalog.is_invalid(top));
        // The next advance updates the model normally again.
        let new: Vec<(NodeId, f64)> = ds
            .graph()
            .base_nodes()
            .iter()
            .map(|&b| (b, 322.0))
            .collect();
        ds.advance_time(&new).unwrap();
        let out = catalog.advance_time(&ds, ds.series_len() - 1, &MaintenancePolicy::None);
        assert_eq!(out.model_updates, 1);
        assert_eq!(catalog.observations(top), Some(obs + 1));
    }

    #[test]
    fn epochs_survive_codec_round_trip() {
        let (ds, catalog) = catalog_fixture();
        let top = ds.graph().top_node();
        // Two full invalidation epochs, ending valid: epoch 2, invalid
        // false — a state the invalid flag alone cannot reconstruct.
        catalog.invalidate(top);
        catalog
            .reestimate(top, &ds, &FitOptions::default())
            .unwrap();
        catalog.invalidate(top);
        catalog
            .reestimate(top, &ds, &FitOptions::default())
            .unwrap();
        assert_eq!(catalog.epoch(top), Some(2));
        assert!(!catalog.is_invalid(top));
        let restored = Catalog::decode(&catalog.encode()).unwrap();
        assert_eq!(restored.epoch(top), Some(2));
        assert!(!restored.is_invalid(top));
    }

    #[test]
    fn encode_decode_round_trip() {
        let (_, catalog) = catalog_fixture();
        let bytes = catalog.encode();
        let restored = Catalog::decode(&bytes).unwrap();
        assert_eq!(restored.node_count(), catalog.node_count());
        assert_eq!(restored.model_count(), catalog.model_count());
        for v in 0..catalog.node_count() {
            assert_eq!(restored.entry(v), catalog.entry(v));
            assert_eq!(restored.forecast(v, 3), catalog.forecast(v, 3));
        }
    }

    #[test]
    fn decode_then_encode_gives_the_same_bytes() {
        let (_, catalog) = catalog_fixture();
        let bytes = catalog.encode();
        assert_eq!(Catalog::decode(&bytes).unwrap().encode(), bytes);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Catalog::decode(b"garbage").is_err());
        let (_, catalog) = catalog_fixture();
        let bytes = catalog.encode();
        assert!(Catalog::decode(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn reestimate_unknown_node_fails() {
        let (ds, catalog) = catalog_fixture();
        assert!(catalog.reestimate(0, &ds, &FitOptions::default()).is_err());
        assert!(catalog
            .reestimate_single_flight(ds.graph().top_node(), &ds, &FitOptions::default())
            .is_ok());
    }

    #[test]
    fn single_flight_dedups_concurrent_reestimation() {
        let (ds, catalog) = catalog_fixture();
        let top = ds.graph().top_node();
        assert!(catalog.invalidate(top));
        assert!(!catalog.invalidate(top), "already invalid");
        assert_eq!(catalog.epoch(top), Some(1));

        let fit = FitOptions::default();
        let outcomes: Vec<Reestimation> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        catalog
                            .reestimate_single_flight(top, &ds, &fit)
                            .expect("re-estimation succeeds")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let refits = outcomes
            .iter()
            .filter(|o| **o == Reestimation::Refit)
            .count();
        assert_eq!(refits, 1, "exactly one leader per epoch: {outcomes:?}");
        assert!(!catalog.is_invalid(top));
        // A second epoch pays for exactly one more re-fit.
        catalog.invalidate(top);
        assert_eq!(catalog.epoch(top), Some(2));
        assert_eq!(
            catalog.reestimate_single_flight(top, &ds, &fit).unwrap(),
            Reestimation::Refit
        );
    }

    #[test]
    fn invalidate_all_flags_every_model() {
        let (_, catalog) = catalog_fixture();
        assert_eq!(catalog.invalidate_all(), catalog.model_count());
        assert_eq!(catalog.invalidate_all(), 0);
        assert_eq!(catalog.invalid_nodes().len(), catalog.model_count());
    }
}
