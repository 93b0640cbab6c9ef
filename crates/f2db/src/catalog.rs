//! Configuration storage (§V): the two catalog tables of F²DB, sharded
//! for concurrent access.
//!
//! "The first one stores the time series graph and model configuration
//! (including model assignments, derivation schemes and corresponding
//! weights), and the second table stores the forecast models itself
//! including state and parameter values." Here the first table is the
//! per-node [`CatalogEntry`] map, the second the [`StoredModel`] map;
//! both serialize into one `F2DB` file (see [`Catalog::encode`]).
//!
//! ## Concurrency
//!
//! The catalog is split into [`Catalog::shard_count`] shards, each one an
//! independently `RwLock`-guarded slice of the node space keyed by a
//! node-id hash. Point queries on different nodes touch different shards
//! and never contend; the batched time-advance write path takes one shard
//! write lock at a time instead of a global lock, so readers of other
//! shards keep flowing while maintenance runs.
//!
//! A node's scheme sources never change after the catalog is built, so
//! they sit outside the shards in one table that is read under no lock;
//! the shards hold what changes — the derivation weights, the models and
//! the history sums.
//!
//! Lock rule: **a reader holds one shard lock at a time.** `std`'s
//! `RwLock` turns new readers away while a writer waits, so two readers
//! that each hold one shard and ask for the other's, with a re-fit
//! waiting on each, would never finish. [`Catalog::forecast`] therefore
//! reads the node's weight and releases its shard before it visits a
//! source. ([`Catalog::encode`] takes every shard, in ascending order;
//! it is the only holder of several.)
//!
//! Lazy parameter re-estimation is **single-flight**: when a maintenance
//! policy has invalidated a model and many concurrent queries reference
//! it, exactly one thread re-fits (the *leader*); the others wait on the
//! node's in-flight slot and reuse the result. The dedup is observable in
//! the `fdc-obs` registry (`f2db.models.reestimated` counts exactly one
//! re-fit per invalidation epoch, `f2db.reestimate.in_flight` gauges the
//! fits currently running).
//!
//! Consistency model: every individual node read is consistent (shard
//! locks), and [`Catalog::advance_time`] is serialized by the caller
//! (F²DB's maintenance processor). A query that spans shards *while* an
//! advance is in progress may observe a mix of pre- and post-advance
//! models; callers that need strict serial equivalence (the stress suite)
//! phase queries and advances with barriers. A lazy re-fit that races an
//! advance stays safe even without barriers: a refit landing after the
//! dataset append already absorbed the newest observation, and the
//! advance pass detects this (via the model's observation count) and
//! skips its incremental update, so no observation is ever applied twice.

use crate::maintenance::MaintenancePolicy;
use crate::{F2dbError, Result, INLINE_STEPS};
use fdc_codec::{Reader, Writer};
use fdc_cube::derive::{derived_point, weight};
use fdc_cube::query::stack_or_heap;
use fdc_cube::{Configuration, Dataset, NodeId};
use fdc_forecast::model::restore_model;
use fdc_forecast::{AccuracyMeasure, FitOptions, ForecastModel, ModelState};
use fdc_obs::{journal, names, Event, RollingAccuracy};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Magic bytes identifying a catalog file.
pub const MAGIC: &[u8; 4] = b"F2DB";
/// On-disk format version, the only one this build reads or writes.
/// (Version 2 added the per-model invalidation epoch; no build since
/// has written version 1.)
pub const VERSION: u16 = 2;

/// Default number of catalog shards. A modest power of two: enough that 8
/// reader threads rarely collide, small enough that whole-catalog
/// operations (encode, advance) stay cheap.
pub const DEFAULT_SHARD_COUNT: usize = 16;

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

/// One lock-guarded slice of the catalog: the nodes whose id hashes to
/// this shard, with their derivation weights, models and history sums.
#[derive(Debug, Default)]
struct Shard {
    /// The weight `k` of every node with a scheme.
    weights: BTreeMap<NodeId, f64>,
    models: BTreeMap<NodeId, StoredModel>,
    history_sums: BTreeMap<NodeId, f64>,
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
    /// in-flight slot and reused the result.
    Waited,
}

/// In-flight slot of a single-flight re-estimation.
#[derive(Debug)]
struct InflightSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

#[derive(Debug)]
enum SlotState {
    Running,
    Done(Option<F2dbError>),
}

impl InflightSlot {
    fn new() -> Self {
        InflightSlot {
            state: Mutex::new(SlotState::Running),
            cv: Condvar::new(),
        }
    }
}

/// The sharded catalog: configuration rows + model store + the per-node
/// history sums needed to update derivation weights incrementally.
#[derive(Debug)]
pub struct Catalog {
    advances: AtomicU64,
    /// `schemes[v]`: the scheme sources of node `v`, `None` without a
    /// scheme, one row per node. Fixed for the catalog's lifetime, so
    /// read under no lock.
    schemes: Vec<Option<Box<[NodeId]>>>,
    shards: Vec<RwLock<Shard>>,
    inflight: Mutex<HashMap<NodeId, Arc<InflightSlot>>>,
}

/// Fibonacci-hash of a node id (spreads consecutive ids across shards).
fn hash_node(node: NodeId) -> u64 {
    (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Catalog {
    /// A catalog of these schemes (one row per node) with no weight,
    /// model or history sum yet.
    fn empty(schemes: Vec<Option<Box<[NodeId]>>>, shard_count: usize) -> Self {
        let shard_count = shard_count.max(1);
        fdc_obs::gauge(names::F2DB_CATALOG_SHARDS).set(shard_count as i64);
        Catalog {
            advances: AtomicU64::new(0),
            schemes,
            shards: (0..shard_count)
                .map(|_| RwLock::new(Shard::default()))
                .collect(),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    fn shard_of(&self, node: NodeId) -> usize {
        (hash_node(node) % self.shards.len() as u64) as usize
    }

    /// Read-locks shard `i`, counting contended acquisitions into the
    /// `f2db.shard.read_contention` metric.
    fn read_shard(&self, i: usize) -> RwLockReadGuard<'_, Shard> {
        match self.shards[i].try_read() {
            Ok(g) => g,
            Err(_) => {
                fdc_obs::counter!(names::F2DB_SHARD_READ_CONTENTION).incr();
                self.shards[i].read().unwrap()
            }
        }
    }

    /// Write-locks shard `i`, counting contended acquisitions into the
    /// `f2db.shard.write_contention` metric.
    fn write_shard(&self, i: usize) -> RwLockWriteGuard<'_, Shard> {
        match self.shards[i].try_write() {
            Ok(g) => g,
            Err(_) => {
                fdc_obs::counter!(names::F2DB_SHARD_WRITE_CONTENTION).incr();
                self.shards[i].write().unwrap()
            }
        }
    }

    /// Builds a catalog from an advisor/baseline configuration with the
    /// default shard count.
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
        Self::from_configuration_sharded(dataset, configuration, fit, DEFAULT_SHARD_COUNT)
    }

    /// [`Catalog::from_configuration`] with an explicit shard count
    /// (`1` reproduces a single global lock — the concurrency baseline).
    pub fn from_configuration_sharded(
        dataset: &Dataset,
        configuration: &Configuration,
        fit: &FitOptions,
        shard_count: usize,
    ) -> Result<Self> {
        let n = dataset.node_count();
        let schemes = (0..n)
            .map(|v| {
                let scheme = configuration.estimate(v).scheme.as_ref();
                scheme.map(|scheme| scheme.sources.clone().into_boxed_slice())
            })
            .collect();
        let catalog = Catalog::empty(schemes, shard_count);
        let history_sums: Vec<f64> = (0..n).map(|v| dataset.series(v).history_sum()).collect();
        for (node, cm) in configuration.models() {
            let model = cm
                .spec
                .fit(dataset.series(node), fit)
                .map_err(|e| F2dbError::Cube(format!("refitting model at node {node}: {e}")))?;
            let mut shard = catalog.shards[catalog.shard_of(node)].write().unwrap();
            shard.models.insert(
                node,
                StoredModel {
                    model,
                    invalid: false,
                    rolling_error: 0.0,
                    epoch: 0,
                },
            );
        }
        for v in 0..n {
            let mut shard = catalog.shards[catalog.shard_of(v)].write().unwrap();
            shard.history_sums.insert(v, history_sums[v]);
            if let Some(sources) = &catalog.schemes[v] {
                let h_s: f64 = sources.iter().map(|&s| history_sums[s]).sum();
                shard.weights.insert(v, weight(history_sums[v], h_s));
            }
        }
        Ok(catalog)
    }

    /// Redistributes the catalog over `shard_count` shards (contents and
    /// on-disk encoding are shard-count independent).
    pub fn reshard(self, shard_count: usize) -> Self {
        let advances = self.advances.load(Ordering::SeqCst);
        let resharded = Catalog::empty(self.schemes, shard_count);
        resharded.advances.store(advances, Ordering::SeqCst);
        for old in self.shards {
            let old = old.into_inner().unwrap();
            for (node, k) in old.weights {
                resharded.shards[resharded.shard_of(node)]
                    .write()
                    .unwrap()
                    .weights
                    .insert(node, k);
            }
            for (node, stored) in old.models {
                resharded.shards[resharded.shard_of(node)]
                    .write()
                    .unwrap()
                    .models
                    .insert(node, stored);
            }
            for (node, h) in old.history_sums {
                resharded.shards[resharded.shard_of(node)]
                    .write()
                    .unwrap()
                    .history_sums
                    .insert(node, h);
            }
        }
        resharded
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.schemes.len()
    }

    /// Number of shards the catalog is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Lifetime count of time advances this catalog has absorbed —
    /// persisted with the catalog, so it survives a save/open cycle and
    /// lets a restart verify that every acknowledged advance was durable.
    pub fn advances(&self) -> u64 {
        self.advances.load(Ordering::SeqCst)
    }

    /// Number of stored models.
    pub fn model_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap().models.len())
            .sum()
    }

    /// The configuration row of `node` (copied out).
    pub fn entry(&self, node: NodeId) -> Option<CatalogEntry> {
        let sources = self.schemes.get(node)?.as_deref()?;
        let weight = *self.read_shard(self.shard_of(node)).weights.get(&node)?;
        Some(CatalogEntry {
            scheme_sources: sources.to_vec(),
            weight,
        })
    }

    /// Whether the model at `node` is marked invalid.
    pub fn is_invalid(&self, node: NodeId) -> bool {
        self.read_shard(self.shard_of(node))
            .models
            .get(&node)
            .is_some_and(|m| m.invalid)
    }

    /// Invalidation epoch of the model at `node` (how many times it has
    /// been marked invalid so far).
    pub fn epoch(&self, node: NodeId) -> Option<u64> {
        self.read_shard(self.shard_of(node))
            .models
            .get(&node)
            .map(|m| m.epoch)
    }

    /// Number of observations the model at `node` has absorbed.
    pub fn observations(&self, node: NodeId) -> Option<usize> {
        self.read_shard(self.shard_of(node))
            .models
            .get(&node)
            .map(|m| m.model.observations())
    }

    /// Rolling one-step SMAPE of the model at `node`.
    pub fn rolling_error(&self, node: NodeId) -> Option<f64> {
        self.read_shard(self.shard_of(node))
            .models
            .get(&node)
            .map(|m| m.rolling_error)
    }

    /// All nodes whose models are currently marked invalid, ascending.
    pub fn invalid_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .unwrap()
                    .models
                    .iter()
                    .filter(|(_, m)| m.invalid)
                    .map(|(&n, _)| n)
                    .collect::<Vec<_>>()
            })
            .collect();
        nodes.sort_unstable();
        nodes
    }

    /// Marks the model at `node` invalid (next referencing query pays for
    /// a re-estimation). Returns whether the flag changed.
    pub fn invalidate(&self, node: NodeId) -> bool {
        let mut shard = self.write_shard(self.shard_of(node));
        match shard.models.get_mut(&node) {
            Some(m) if !m.invalid => {
                m.invalid = true;
                m.epoch = m.epoch.saturating_add(1);
                true
            }
            _ => false,
        }
    }

    /// Marks every stored model invalid; returns how many flags changed.
    pub fn invalidate_all(&self) -> usize {
        let mut changed = 0;
        for lock in &self.shards {
            let mut shard = lock.write().unwrap();
            for m in shard.models.values_mut() {
                if !m.invalid {
                    m.invalid = true;
                    m.epoch = m.epoch.saturating_add(1);
                    changed += 1;
                }
            }
        }
        changed
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
    /// sources are read from the scheme table and the weight under the
    /// node's shard lock, which is released before any source is
    /// visited, each under its own shard's lock — a reader never holds
    /// two shard locks (`a_reader_waiting_for_a_source_holds_no_other_shard`).
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
        let k = *self.read_shard(self.shard_of(node)).weights.get(&node)?;
        let (mut inline, mut heap) = ([0.0; INLINE_STEPS], Vec::new());
        for (i, &s) in sources.iter().enumerate() {
            let shard = self.read_shard(self.shard_of(s));
            let stored = shard.models.get(&s)?;
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
    /// Takes per-shard write locks one at a time (never a global lock);
    /// the caller (F²DB's maintenance processor) serializes concurrent
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
        // Pass 1 (per-shard write): model state updates + history sums +
        // invalidation. No cross-shard data is needed here.
        for lock in &self.shards {
            let mut shard = lock.write().unwrap();
            let shard = &mut *shard;
            for (&node, stored) in shard.models.iter_mut() {
                // A lazy re-fit racing this advance may already have
                // fitted the model on the history *including*
                // `last_index`: the dataset append happens before these
                // shard passes, so a query's refit can observe the new
                // value first. Re-applying the incremental update would
                // absorb the newest observation twice and every later
                // forecast would silently diverge from the serial order.
                // Such a refit instead serializes after this advance:
                // skip the update, the rolling-error step and the policy
                // (whose invalidation that refit already consumed).
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
                if invalidate && !stored.invalid {
                    stored.invalid = true;
                    stored.epoch = stored.epoch.saturating_add(1);
                    out.invalidations += 1;
                }
            }
            for (&node, h) in shard.history_sums.iter_mut() {
                *h += dataset.series(node).values()[last_index];
            }
        }
        // Pass 2 (per-shard read): snapshot the full history-sum vector.
        let mut sums = vec![0.0; self.node_count()];
        for lock in &self.shards {
            let shard = lock.read().unwrap();
            for (&node, &h) in &shard.history_sums {
                sums[node] = h;
            }
        }
        // Pass 3 (per-shard write): refresh derivation weights from the
        // snapshot (weights need the sums of cross-shard source nodes).
        for lock in &self.shards {
            let mut shard = lock.write().unwrap();
            for (&v, k) in shard.weights.iter_mut() {
                let h_s: f64 = self.sources(v).iter().map(|&s| sums[s]).sum();
                *k = weight(sums[v], h_s);
            }
        }
        out
    }

    /// Re-estimates the model at `node` on its full current history and
    /// clears the invalid flag (lazy maintenance, §V). Unconditional —
    /// concurrent callers should prefer
    /// [`Catalog::reestimate_single_flight`].
    pub fn reestimate(&self, node: NodeId, dataset: &Dataset, fit: &FitOptions) -> Result<()> {
        self.refit(node, dataset, fit, false).map(|_| ())
    }

    /// The one re-fit body of [`Catalog::reestimate`] and the single
    /// flight: under the node's shard lock, pays the artificial cost,
    /// re-estimates the model and clears its invalid flag and rolling
    /// error. With `only_invalid`, a model found valid under the lock is
    /// left alone. Returns whether a re-fit happened.
    fn refit(
        &self,
        node: NodeId,
        dataset: &Dataset,
        fit: &FitOptions,
        only_invalid: bool,
    ) -> Result<bool> {
        let mut shard = self.write_shard(self.shard_of(node));
        let stored = shard
            .models
            .get_mut(&node)
            .ok_or_else(|| F2dbError::Semantic(format!("no model at node {node}")))?;
        if only_invalid && !stored.invalid {
            return Ok(false);
        }
        fit.apply_artificial_cost();
        stored
            .model
            .refit(dataset.series(node), fit)
            .map_err(|e| F2dbError::Cube(format!("re-estimating node {node}: {e}")))?;
        stored.invalid = false;
        stored.rolling_error = 0.0;
        Ok(true)
    }

    /// Single-flight lazy re-estimation: when many threads hit the same
    /// invalidated model, exactly one re-fits; the rest wait on the
    /// node's in-flight slot and reuse the result. Re-fitting is
    /// deterministic (full-history refit), so which thread leads does not
    /// affect the forecasts served afterwards.
    pub fn reestimate_single_flight(
        &self,
        node: NodeId,
        dataset: &Dataset,
        fit: &FitOptions,
    ) -> Result<Reestimation> {
        let mut waited = false;
        loop {
            if !self.is_invalid(node) {
                return Ok(if waited {
                    Reestimation::Waited
                } else {
                    Reestimation::AlreadyValid
                });
            }
            let (slot, leader) = {
                let mut map = self.inflight.lock().unwrap();
                match map.entry(node) {
                    std::collections::hash_map::Entry::Occupied(e) => (Arc::clone(e.get()), false),
                    std::collections::hash_map::Entry::Vacant(v) => {
                        (Arc::clone(v.insert(Arc::new(InflightSlot::new()))), true)
                    }
                }
            };
            if leader {
                let in_flight = fdc_obs::gauge(names::F2DB_REESTIMATE_IN_FLIGHT);
                in_flight.incr();
                let result = self.refit(node, dataset, fit, true);
                {
                    let mut state = slot.state.lock().unwrap();
                    *state = SlotState::Done(result.as_ref().err().cloned());
                    slot.cv.notify_all();
                }
                self.inflight.lock().unwrap().remove(&node);
                in_flight.decr();
                if let Ok(true) = result {
                    journal().publish(Event::ReEstimation {
                        node: node as u64,
                        epoch: self.epoch(node).unwrap_or(0),
                        outcome: "refit",
                    });
                }
                return match result {
                    Ok(true) => Ok(Reestimation::Refit),
                    Ok(false) => Ok(if waited {
                        Reestimation::Waited
                    } else {
                        Reestimation::AlreadyValid
                    }),
                    Err(e) => Err(e),
                };
            }
            let mut state = slot.state.lock().unwrap();
            while matches!(*state, SlotState::Running) {
                state = slot.cv.wait(state).unwrap();
            }
            if let SlotState::Done(Some(e)) = &*state {
                return Err(e.clone());
            }
            drop(state);
            waited = true;
            // Loop: the model is normally valid now; re-check handles the
            // race where a new invalidation landed in the meantime.
        }
    }

    /// Serializes the catalog. The byte layout is canonical (node order)
    /// and therefore independent of the shard count.
    pub fn encode(&self) -> Vec<u8> {
        // Lock every shard (ascending index) for a consistent snapshot.
        let guards: Vec<RwLockReadGuard<'_, Shard>> =
            self.shards.iter().map(|s| s.read().unwrap()).collect();
        let weight_of = |v: NodeId| guards[self.shard_of(v)].weights.get(&v);
        let model_of = |v: NodeId| guards[self.shard_of(v)].models.get(&v);

        let mut w = Writer::with_capacity(1024);
        w.header(MAGIC, VERSION);
        w.len(self.node_count());
        for (v, scheme) in self.schemes.iter().enumerate() {
            match scheme.as_deref().zip(weight_of(v)) {
                None => w.u8(0),
                Some((sources, &k)) => {
                    w.u8(1);
                    w.len(sources.len());
                    for &source in sources {
                        w.u64(source as u64);
                    }
                    w.f64(k);
                }
            }
        }
        let model_nodes: Vec<NodeId> = (0..self.node_count())
            .filter(|&v| model_of(v).is_some())
            .collect();
        w.len(model_nodes.len());
        for &node in &model_nodes {
            let stored = model_of(node).expect("model listed above");
            w.u64(node as u64);
            w.u8(stored.invalid as u8);
            w.f64(stored.rolling_error);
            w.u64(stored.epoch);
            stored.model.state().encode_into(&mut w);
        }
        let sums: Vec<f64> = (0..self.node_count())
            .map(|v| {
                guards[self.shard_of(v)]
                    .history_sums
                    .get(&v)
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();
        w.f64s(&sums);
        w.u64(self.advances.load(Ordering::SeqCst));
        w.finish()
    }

    /// Deserializes a catalog into the default shard count.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        Self::decode_sharded(bytes, DEFAULT_SHARD_COUNT)
    }

    /// Deserializes a catalog into an explicit shard count.
    pub fn decode_sharded(bytes: &[u8], shard_count: usize) -> Result<Self> {
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
                    weights.push(None);
                }
                1 => {
                    let sources = r.count(8)?;
                    let sources = (0..sources)
                        .map(|_| r.u64().map(|v| v as NodeId))
                        .collect::<std::result::Result<_, _>>()?;
                    schemes.push(Some(sources));
                    weights.push(Some(r.f64()?));
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
        let catalog = Catalog::empty(schemes, shard_count);
        catalog.advances.store(advances, Ordering::SeqCst);
        for (v, k) in weights.into_iter().enumerate() {
            let mut shard = catalog.shards[catalog.shard_of(v)].write().unwrap();
            shard.history_sums.insert(v, history_sums[v]);
            if let Some(k) = k {
                shard.weights.insert(v, k);
            }
        }
        for (node, stored) in models {
            if node >= n {
                return Err(F2dbError::Storage(format!(
                    "model at node {node} outside catalog of {n} nodes"
                )));
            }
            catalog.shards[catalog.shard_of(node)]
                .write()
                .unwrap()
                .models
                .insert(node, stored);
        }
        Ok(catalog)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_cube::{ConfiguredModel, CubeSplit};
    use fdc_datagen::tourism_proxy;
    use fdc_forecast::ModelSpec;
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
        assert_eq!(catalog.shard_count(), DEFAULT_SHARD_COUNT);
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
                .map(|&s| {
                    let shard = catalog.read_shard(catalog.shard_of(s));
                    shard.models[&s].model.forecast(3)
                })
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

    /// A two-shard catalog whose schemes cross the shards both ways:
    /// `x` lives on shard 1 and derives from model `m0` on shard 0, `y`
    /// lives on shard 0 and derives from `m1` on shard 1. Returns
    /// `(dataset, catalog, [m0, m1], [x, y])`.
    fn crossing_fixture() -> (Dataset, Catalog, [NodeId; 2], [NodeId; 2]) {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let probe = Catalog::empty(vec![None; ds.node_count()], 2);
        let on_shard = |i: usize, skip: usize| {
            (0..ds.node_count())
                .filter(|&v| probe.shard_of(v) == i)
                .nth(skip)
                .expect("both shards hold several nodes")
        };
        let (m0, y) = (on_shard(0, 0), on_shard(0, 1));
        let (m1, x) = (on_shard(1, 0), on_shard(1, 1));
        let mut cfg = Configuration::new(ds.node_count());
        for m in [m0, m1] {
            let spec = ModelSpec::default_for_period(4);
            let model = ConfiguredModel::fit(&split, m, &spec, &FitOptions::default());
            cfg.insert_model(m, model.unwrap());
        }
        for (node, source) in [(x, m0), (y, m1)] {
            let scheme = fdc_cube::Scheme {
                sources: vec![source],
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
        let fit = FitOptions::default();
        let catalog = Catalog::from_configuration_sharded(&ds, &cfg, &fit, 2).unwrap();
        (ds, catalog, [m0, m1], [x, y])
    }

    /// `std`'s `RwLock` turns new readers away while a writer waits, so
    /// a reader that held its node's shard while asking for a source's
    /// could close a cycle with a reader nesting the other way and a
    /// re-fit waiting on each shard. Pinned directly: while a source's
    /// shard is write-held, the reader waiting for it holds nothing.
    #[test]
    fn a_reader_waiting_for_a_source_holds_no_other_shard() {
        let (_ds, catalog, _, [x, _]) = crossing_fixture();
        let refit_in_progress = catalog.shards[0].write().unwrap();
        std::thread::scope(|scope| {
            let reader = scope.spawn(|| catalog.forecast(x, 2));
            // The reader needs microseconds to reach shard 0 and block.
            let waited = Instant::now();
            while !reader.is_finished() && waited.elapsed() < Duration::from_millis(300) {
                std::thread::sleep(Duration::from_millis(10));
            }
            assert!(!reader.is_finished(), "shard 0 is write-held");
            let home_is_free = catalog.shards[1].try_write().is_ok();
            drop(refit_in_progress);
            assert!(reader.join().unwrap().is_some());
            assert!(home_is_free, "the reader kept x's shard while waiting");
        });
    }

    /// The same under load: readers of both crossing schemes against
    /// back-to-back re-fits (each holds its shard's write lock for the
    /// whole fit) on both shards.
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
    fn encoding_is_shard_count_independent() {
        let (_, catalog) = catalog_fixture();
        let bytes = catalog.encode();
        for shards in [1, 3, 7, 64] {
            let re = Catalog::decode_sharded(&bytes, shards).unwrap();
            assert_eq!(re.shard_count(), shards);
            assert_eq!(re.encode(), bytes, "{shards}-shard layout changed bytes");
        }
        let resharded = Catalog::decode(&bytes).unwrap().reshard(5);
        assert_eq!(resharded.encode(), bytes);
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
