//! Indicators (§III-B): cheap heuristics for the expected benefit of a
//! model, computed *without* building the model.
//!
//! Two ingredients are combined into one value per derivation scheme
//! `s → t`:
//!
//! * **historical error** — assume perfect accuracy at the source and use
//!   its real history as "forecasts"; derive the target with the weight
//!   `k_{s→t}` and score against the target's real history;
//! * **similarity** — the variance of the per-time-point derivation
//!   weights: constant weights indicate a consistent relationship,
//!   fluctuating weights an unstable scheme.
//!
//! A *local indicator array* for source `s` holds the combined value for
//! the `|I|` nodes closest to `s` in the graph; the *global indicator* is
//! the element-wise minimum over all local arrays, i.e. the best expected
//! derivation error currently available for each node. Low values mean
//! the node is already well served; high values flag candidates.

use fdc_cube::{derive, Dataset, NodeId};
use fdc_forecast::accuracy::AccuracyMeasure;

/// Indicator value assigned to nodes not covered by any local indicator:
/// the maximum SMAPE, so uncovered nodes surface as candidates.
pub const UNCOVERED: f64 = 1.0;

/// Options controlling indicator computation.
#[derive(Debug, Clone)]
pub struct IndicatorOptions {
    /// Maximum entries per local indicator (`|I|`).
    pub size: usize,
    /// Weight λ of the similarity ingredient in the combined value.
    pub lambda: f64,
    /// Accuracy measure for the historical error.
    pub measure: AccuracyMeasure,
    /// History prefix used for the indicator computation (the training
    /// length, so indicators never see test data).
    pub history_len: usize,
}

impl IndicatorOptions {
    /// Defaults: full graph coverage, λ = 1, SMAPE over the whole history.
    pub fn new(size: usize, history_len: usize) -> Self {
        IndicatorOptions {
            size,
            lambda: 1.0,
            measure: AccuracyMeasure::Smape,
            history_len,
        }
    }
}

/// The combined indicator value of the scheme `s → t` — low is good.
///
/// The historical error is already scale-free in `[0, 1]` (SMAPE); the
/// weight variance is normalized by the squared mean weight (a squared
/// coefficient of variation) and capped at 1 so both ingredients share a
/// scale before λ-weighting.
pub fn scheme_indicator(
    dataset: &Dataset,
    source: NodeId,
    target: NodeId,
    options: &IndicatorOptions,
) -> f64 {
    if source == target {
        return 0.0;
    }
    let hist_err = derive::historical_error_over(
        dataset,
        &[source],
        target,
        options.measure,
        options.history_len,
    );
    let w = derive::weight_series(dataset, &[source], target);
    let take = options.history_len.min(w.len());
    let w = &w[..take];
    let similarity = if w.len() < 2 {
        0.0
    } else {
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        if mean.abs() < 1e-12 {
            1.0
        } else {
            let var = w.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / w.len() as f64;
            (var / (mean * mean)).min(1.0)
        }
    };
    (hist_err + options.lambda * similarity) / (1.0 + options.lambda)
}

/// A local indicator array for a source node: expected derivation error
/// for the `|I|` nodes closest to the source.
#[derive(Debug, Clone)]
pub struct LocalIndicator {
    /// The source node the array belongs to.
    pub source: NodeId,
    /// Covered target nodes (the source itself first).
    pub targets: Vec<NodeId>,
    /// Combined indicator value per target (aligned with `targets`).
    pub values: Vec<f64>,
}

impl LocalIndicator {
    /// Computes the local indicator of `source`.
    ///
    /// The neighborhood is chosen as the `|I|` closest nodes by graph
    /// distance ("our current strategy … constructed by including those
    /// nodes which are closest to s in the time series graph", §IV-C.1),
    /// with ties broken by node id for determinism.
    pub fn compute(dataset: &Dataset, source: NodeId, options: &IndicatorOptions) -> Self {
        let g = dataset.graph();
        let n = g.node_count();
        let mut by_distance: Vec<NodeId> = (0..n).collect();
        by_distance.sort_by_key(|&v| (g.distance(source, v), v));
        by_distance.truncate(options.size.max(1));
        let values = by_distance
            .iter()
            .map(|&t| scheme_indicator(dataset, source, t, options))
            .collect();
        LocalIndicator {
            source,
            targets: by_distance,
            values,
        }
    }

    /// The indicator value for `target`, if covered.
    pub fn value_for(&self, target: NodeId) -> Option<f64> {
        self.targets
            .iter()
            .position(|&t| t == target)
            .map(|i| self.values[i])
    }
}

/// The set of local indicators of the current configuration plus the
/// derived global indicator.
#[derive(Debug, Clone, Default)]
pub struct IndicatorStore {
    locals: Vec<LocalIndicator>,
    global: Vec<f64>,
}

impl IndicatorStore {
    /// An empty store over `node_count` nodes (global = all uncovered).
    pub fn new(node_count: usize) -> Self {
        IndicatorStore {
            locals: Vec::new(),
            global: vec![UNCOVERED; node_count],
        }
    }

    /// The local indicators currently installed.
    pub fn locals(&self) -> &[LocalIndicator] {
        &self.locals
    }

    /// The global indicator: per node, the minimum expected derivation
    /// error over all installed local indicators.
    pub fn global(&self) -> &[f64] {
        &self.global
    }

    /// Installs a local indicator and folds it into the global array.
    pub fn insert(&mut self, local: LocalIndicator) {
        for (&t, &v) in local.targets.iter().zip(&local.values) {
            if v < self.global[t] {
                self.global[t] = v;
            }
        }
        // Replace an existing local for the same source, if any.
        if let Some(pos) = self.locals.iter().position(|l| l.source == local.source) {
            self.locals[pos] = local;
            self.rebuild_global();
        } else {
            self.locals.push(local);
        }
    }

    /// Removes the local indicator of `source` and rebuilds the global
    /// array.
    pub fn remove(&mut self, source: NodeId) -> Option<LocalIndicator> {
        let pos = self.locals.iter().position(|l| l.source == source)?;
        let removed = self.locals.swap_remove(pos);
        self.rebuild_global();
        Some(removed)
    }

    /// Mean of the global indicator.
    pub fn global_mean(&self) -> f64 {
        if self.global.is_empty() {
            return 0.0;
        }
        self.global.iter().sum::<f64>() / self.global.len() as f64
    }

    /// Standard deviation of the global indicator.
    pub fn global_std(&self) -> f64 {
        let n = self.global.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.global_mean();
        (self
            .global
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n as f64)
            .sqrt()
    }

    /// Mean of the global indicator if `local` were additionally
    /// installed — the ranking score for positive candidates (§IV-A.2):
    /// lower hypothetical mean = higher benefit.
    pub fn mean_with(&self, local: &LocalIndicator) -> f64 {
        if self.global.is_empty() {
            return 0.0;
        }
        let mut sum: f64 = self.global.iter().sum();
        for (&t, &v) in local.targets.iter().zip(&local.values) {
            if v < self.global[t] {
                sum += v - self.global[t];
            }
        }
        sum / self.global.len() as f64
    }

    /// Mean of the global indicator if the local indicator of `source`
    /// were removed — the ranking score for negative candidates: the
    /// smaller the increase, the lower the benefit of keeping the model.
    pub fn mean_without(&self, source: NodeId) -> f64 {
        if self.global.is_empty() {
            return 0.0;
        }
        let mut global = vec![UNCOVERED; self.global.len()];
        for l in self.locals.iter().filter(|l| l.source != source) {
            for (&t, &v) in l.targets.iter().zip(&l.values) {
                if v < global[t] {
                    global[t] = v;
                }
            }
        }
        global.iter().sum::<f64>() / global.len() as f64
    }

    fn rebuild_global(&mut self) {
        for v in &mut self.global {
            *v = UNCOVERED;
        }
        for l in &self.locals {
            for (&t, &v) in l.targets.iter().zip(&l.values) {
                if v < self.global[t] {
                    self.global[t] = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_datagen::{generate_cube, tourism_proxy, GenSpec};

    fn options(ds: &Dataset) -> IndicatorOptions {
        IndicatorOptions::new(ds.node_count(), ds.series_len() * 8 / 10)
    }

    #[test]
    fn self_indicator_is_zero() {
        let ds = tourism_proxy(1);
        let opts = options(&ds);
        assert_eq!(scheme_indicator(&ds, 3, 3, &opts), 0.0);
    }

    #[test]
    fn correlated_nodes_have_lower_indicator_than_unrelated() {
        let ds = tourism_proxy(1);
        let opts = options(&ds);
        let g = ds.graph();
        let top = g.top_node();
        let base = g.base_nodes()[0];
        // Deriving a base series from the total (correlated proxies) should
        // look better than deriving it from an unrelated tiny series.
        let from_top = scheme_indicator(&ds, top, base, &opts);
        assert!(from_top < 0.5, "indicator {from_top}");
        assert!((0.0..=1.0).contains(&from_top));
    }

    #[test]
    fn local_indicator_covers_closest_nodes_first() {
        let ds = tourism_proxy(1);
        let opts = IndicatorOptions::new(5, ds.series_len() * 8 / 10);
        let base = ds.graph().base_nodes()[0];
        let local = LocalIndicator::compute(&ds, base, &opts);
        assert_eq!(local.targets.len(), 5);
        assert_eq!(local.targets[0], base);
        assert_eq!(local.values[0], 0.0);
        // Distances are non-decreasing along the neighborhood.
        let g = ds.graph();
        for w in local.targets.windows(2) {
            assert!(g.distance(base, w[0]) <= g.distance(base, w[1]));
        }
    }

    #[test]
    fn store_global_is_min_over_locals() {
        let ds = tourism_proxy(1);
        let opts = options(&ds);
        let g = ds.graph();
        let mut store = IndicatorStore::new(ds.node_count());
        assert_eq!(store.global_mean(), UNCOVERED);

        let top_local = LocalIndicator::compute(&ds, g.top_node(), &opts);
        store.insert(top_local.clone());
        for (&t, &v) in top_local.targets.iter().zip(&top_local.values) {
            assert_eq!(store.global()[t], v.min(UNCOVERED));
        }
        let base_local = LocalIndicator::compute(&ds, g.base_nodes()[0], &opts);
        store.insert(base_local.clone());
        for (i, &gv) in store.global().iter().enumerate() {
            let expect = top_local
                .value_for(i)
                .unwrap_or(UNCOVERED)
                .min(base_local.value_for(i).unwrap_or(UNCOVERED));
            assert!((gv - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn insert_replaces_same_source() {
        let ds = tourism_proxy(2);
        let opts = options(&ds);
        let mut store = IndicatorStore::new(ds.node_count());
        let local = LocalIndicator::compute(&ds, 0, &opts);
        store.insert(local.clone());
        store.insert(local);
        assert_eq!(store.locals().len(), 1);
    }

    #[test]
    fn remove_rebuilds_global() {
        let ds = tourism_proxy(1);
        let opts = options(&ds);
        let g = ds.graph();
        let mut store = IndicatorStore::new(ds.node_count());
        store.insert(LocalIndicator::compute(&ds, g.top_node(), &opts));
        let mean_before = store.global_mean();
        store.insert(LocalIndicator::compute(&ds, g.base_nodes()[0], &opts));
        store.remove(g.base_nodes()[0]);
        assert!((store.global_mean() - mean_before).abs() < 1e-12);
        assert!(store.remove(9999).is_none());
    }

    #[test]
    fn mean_with_and_without_are_consistent() {
        let ds = tourism_proxy(1);
        let opts = options(&ds);
        let g = ds.graph();
        let mut store = IndicatorStore::new(ds.node_count());
        let top_local = LocalIndicator::compute(&ds, g.top_node(), &opts);
        store.insert(top_local);

        let candidate = LocalIndicator::compute(&ds, g.base_nodes()[0], &opts);
        let predicted = store.mean_with(&candidate);
        store.insert(candidate);
        assert!((store.global_mean() - predicted).abs() < 1e-12);

        let without = store.mean_without(g.base_nodes()[0]);
        store.remove(g.base_nodes()[0]);
        assert!((store.global_mean() - without).abs() < 1e-12);
    }

    #[test]
    fn indicator_size_limits_coverage() {
        let cube = generate_cube(&GenSpec::new(32, 40, 3));
        let ds = &cube.dataset;
        let small = IndicatorOptions::new(4, 32);
        let local = LocalIndicator::compute(ds, ds.graph().top_node(), &small);
        assert_eq!(local.targets.len(), 4);
    }

    #[test]
    fn global_std_is_zero_for_uniform() {
        let store = IndicatorStore::new(10);
        assert_eq!(store.global_std(), 0.0);
    }
}
