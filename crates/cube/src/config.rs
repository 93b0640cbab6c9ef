//! Model configurations and their evaluation (§II-D).
//!
//! A **model configuration** assigns forecast models to some nodes of the
//! hyper graph and a derivation scheme (source nodes + weight) to every
//! node. Its quality is judged by two measures:
//!
//! * **forecast error** — every node's error under its best known scheme,
//!   combined into one overall measure (we use the mean node SMAPE);
//! * **model costs** — the total model creation work over all models
//!   (optimizer evaluations × training points, counted rather than timed),
//!   the paper's worst-case proxy for maintenance cost, plus the plain
//!   model count reported in the figures.
//!
//! Errors are measured on a train/test split of the data
//! ([`CubeSplit`]): models are created over the training part, forecasts
//! are scored on the testing part, and derivation weights are computed
//! from the training history only.

use crate::dataset::Dataset;
use crate::derive::{derive_forecast, derived_point, weight};
use crate::graph::NodeId;
use fdc_forecast::accuracy::AccuracyMeasure;
use fdc_forecast::optimize::thread_evaluations;
use fdc_forecast::{FitOptions, ForecastModel, ModelSpec, TimeSeries};
use std::collections::BTreeMap;

/// Train/test split of every node series, shared by all evaluation code.
#[derive(Debug, Clone)]
pub struct CubeSplit {
    train: Vec<TimeSeries>,
    test: Vec<Vec<f64>>,
    /// Every node's training-history sum `h_v`, the operand of every
    /// derivation weight.
    train_sums: Vec<f64>,
    train_len: usize,
}

impl CubeSplit {
    /// Splits every node series with the given training fraction (the
    /// paper uses about 0.8, §VI-A). Schemes are scored by SMAPE (§II-D).
    pub fn new(dataset: &Dataset, train_frac: f64) -> Self {
        let n = dataset.node_count();
        let mut train = Vec::with_capacity(n);
        let mut test = Vec::with_capacity(n);
        for v in 0..n {
            let (tr, te) = dataset.series(v).split(train_frac);
            train.push(tr);
            test.push(te.values().to_vec());
        }
        let train_len = train.first().map_or(0, |s| s.len());
        let take = train_len.min(dataset.series_len());
        let train_sums = (0..n)
            .map(|v| dataset.series(v).values()[..take].iter().sum())
            .collect();
        CubeSplit {
            train,
            test,
            train_sums,
            train_len,
        }
    }

    /// Training part of node `v`.
    pub fn train(&self, v: NodeId) -> &TimeSeries {
        &self.train[v]
    }

    /// Test values of node `v`.
    pub fn test(&self, v: NodeId) -> &[f64] {
        &self.test[v]
    }

    /// Number of training observations.
    pub fn train_len(&self) -> usize {
        self.train_len
    }

    /// The evaluation horizon (test length).
    pub fn horizon(&self) -> usize {
        self.test.first().map_or(0, |t| t.len())
    }

    /// Derivation weight `k_{S→t}` computed from the training history only
    /// (no test leakage): [`weight`] of the training-prefix sums cached at
    /// construction, so it costs `O(|S|)`. `dataset` must be the one the
    /// split was made from.
    pub fn train_weight(&self, dataset: &Dataset, sources: &[NodeId], target: NodeId) -> f64 {
        debug_assert_eq!(dataset.node_count(), self.train_sums.len());
        let h_s: f64 = sources.iter().map(|&s| self.train_sums[s]).sum();
        weight(self.train_sums[target], h_s)
    }

    /// The error of deriving `target` from the source test-window
    /// `forecasts` with weight `k`: the scheme-error kernel. Each
    /// [`derived_point`] is scored by SMAPE as it is formed, so the value
    /// equals `smape(test(target), &derive_forecast(forecasts, k))` bit
    /// for bit without storing the derived forecast.
    pub fn derived_error(&self, forecasts: &[&[f64]], k: f64, target: NodeId) -> f64 {
        let test = &self.test[target];
        if test.is_empty() {
            return 0.0;
        }
        let horizon = forecasts.first().map_or(0, |f| f.len());
        let measure = AccuracyMeasure::Smape;
        let sum: f64 = test
            .iter()
            .take(horizon)
            .enumerate()
            .map(|(i, &x)| measure.point_error(x, derived_point(forecasts.iter().map(|f| f[i]), k)))
            .sum();
        measure.from_sum(sum, test.len())
    }
}

/// A derivation scheme assigned to a node: the source nodes whose model
/// forecasts are summed, and the weight `k` applied to the sum (Eq. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct Scheme {
    /// Source node ids (each must carry a model in the configuration).
    pub sources: Vec<NodeId>,
    /// The derivation weight `k_{S→t}`.
    pub weight: f64,
}

/// A model stored in a configuration, with the bookkeeping the evaluation
/// needs: its spec, how much work it took to create (the cost proxy), and
/// its cached forecasts over the test window.
pub struct ConfiguredModel {
    /// The fitted model (trained on the training split).
    pub model: Box<dyn ForecastModel>,
    /// The specification it was fitted with.
    pub spec: ModelSpec,
    /// Counted creation work, the model's cost (§II-D): the fit's
    /// optimizer objective evaluations × the training length, plus
    /// [`FitOptions::artificial_work`]. The same on every run and machine.
    pub creation_work: u64,
    /// Forecasts over the test window, cached for scheme evaluation.
    pub test_forecast: Vec<f64>,
}

impl Clone for ConfiguredModel {
    fn clone(&self) -> Self {
        ConfiguredModel {
            model: self.model.clone(),
            spec: self.spec.clone(),
            creation_work: self.creation_work,
            test_forecast: self.test_forecast.clone(),
        }
    }
}

impl std::fmt::Debug for ConfiguredModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConfiguredModel")
            .field("spec", &self.spec)
            .field("creation_work", &self.creation_work)
            .finish_non_exhaustive()
    }
}

impl ConfiguredModel {
    /// Fits a model of `spec` on the training part of node `v`, counting
    /// the creation work and caching the test-window forecasts.
    pub fn fit(
        split: &CubeSplit,
        v: NodeId,
        spec: &ModelSpec,
        options: &FitOptions,
    ) -> fdc_forecast::Result<Self> {
        let evaluations = thread_evaluations();
        let model = spec.fit(split.train(v), options)?;
        let creation_work = (thread_evaluations() - evaluations) * split.train_len() as u64
            + options.artificial_work();
        let test_forecast = model.forecast(split.horizon());
        Ok(ConfiguredModel {
            model,
            spec: spec.clone(),
            creation_work,
            test_forecast,
        })
    }
}

/// Per-node evaluation state: the best error found so far and the scheme
/// achieving it. §IV-B.1: "each node in the current configuration knows
/// its current best forecast error and associated derivation scheme".
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEstimate {
    /// Best known forecast error of the node (1.0 when nothing derivable —
    /// the SMAPE of an all-zero forecast on positive data).
    pub error: f64,
    /// The scheme achieving the error, if any model can serve the node.
    pub scheme: Option<Scheme>,
}

impl Default for NodeEstimate {
    fn default() -> Self {
        NodeEstimate {
            error: 1.0,
            scheme: None,
        }
    }
}

/// A model configuration: models at some nodes plus the per-node best
/// scheme/error bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct Configuration {
    models: BTreeMap<NodeId, ConfiguredModel>,
    estimates: Vec<NodeEstimate>,
}

impl Configuration {
    /// An empty configuration over `node_count` nodes: no models, every
    /// node at the maximal error.
    pub fn new(node_count: usize) -> Self {
        Configuration {
            models: BTreeMap::new(),
            estimates: vec![NodeEstimate::default(); node_count],
        }
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.estimates.len()
    }

    /// Number of models currently stored.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// Iterates over `(node, model)` pairs.
    pub fn models(&self) -> impl Iterator<Item = (NodeId, &ConfiguredModel)> {
        self.models.iter().map(|(&v, m)| (v, m))
    }

    /// Node ids that carry a model.
    pub fn model_nodes(&self) -> Vec<NodeId> {
        self.models.keys().copied().collect()
    }

    /// Whether node `v` carries a model.
    pub fn has_model(&self, v: NodeId) -> bool {
        self.models.contains_key(&v)
    }

    /// The model at node `v`, if any.
    pub fn model(&self, v: NodeId) -> Option<&ConfiguredModel> {
        self.models.get(&v)
    }

    /// The evaluation state of node `v`.
    pub fn estimate(&self, v: NodeId) -> &NodeEstimate {
        &self.estimates[v]
    }

    /// Total model cost: the sum of model creation work (§II-D's
    /// worst-case maintenance approximation).
    pub fn total_cost(&self) -> u64 {
        self.models.values().map(|m| m.creation_work).sum()
    }

    /// Overall configuration error: mean node error.
    pub fn overall_error(&self) -> f64 {
        if self.estimates.is_empty() {
            return 0.0;
        }
        self.estimates.iter().map(|e| e.error).sum::<f64>() / self.estimates.len() as f64
    }

    /// Inserts (or replaces) the model at node `v`. The caller is expected
    /// to follow up with scheme adoption for affected targets.
    pub fn insert_model(&mut self, v: NodeId, model: ConfiguredModel) {
        self.models.insert(v, model);
    }

    /// Removes the model at `v` and returns it. Estimates of nodes whose
    /// schemes referenced `v` must be recomputed via
    /// [`Configuration::recompute_nodes`].
    pub fn remove_model(&mut self, v: NodeId) -> Option<ConfiguredModel> {
        self.models.remove(&v)
    }

    /// Node ids whose current best scheme references `s`.
    pub fn dependents_of(&self, s: NodeId) -> Vec<NodeId> {
        self.estimates
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                e.scheme
                    .as_ref()
                    .is_some_and(|sch| sch.sources.contains(&s))
            })
            .map(|(v, _)| v)
            .collect()
    }

    /// Error of the scheme `sources → target` under the current models,
    /// or `None` when some source lacks a model (or there are no
    /// sources).
    pub fn scheme_error(
        &self,
        dataset: &Dataset,
        split: &CubeSplit,
        sources: &[NodeId],
        target: NodeId,
    ) -> Option<f64> {
        let forecast = |s: &NodeId| self.models.get(s).map(|m| m.test_forecast.as_slice());
        let k = || split.train_weight(dataset, sources, target);
        match sources {
            [] => None,
            [s] => Some(split.derived_error(&[forecast(s)?], k(), target)),
            _ => {
                let forecasts = sources.iter().map(forecast).collect::<Option<Vec<_>>>()?;
                Some(split.derived_error(&forecasts, k(), target))
            }
        }
    }

    /// Evaluates `sources → target` and adopts it if it beats the target's
    /// current best error. Returns true when adopted.
    pub fn adopt_if_better(
        &mut self,
        dataset: &Dataset,
        split: &CubeSplit,
        sources: &[NodeId],
        target: NodeId,
    ) -> bool {
        let Some(err) = self.scheme_error(dataset, split, sources, target) else {
            return false;
        };
        if err < self.estimates[target].error {
            let weight = split.train_weight(dataset, sources, target);
            self.estimates[target] = NodeEstimate {
                error: err,
                scheme: Some(Scheme {
                    sources: sources.to_vec(),
                    weight,
                }),
            };
            true
        } else {
            false
        }
    }

    /// Re-derives the best estimate of every node in `targets` from
    /// scratch, considering: the direct scheme, every single-source scheme
    /// from a model node, and full-hyperedge aggregation schemes whose
    /// children all carry models.
    pub fn recompute_nodes(&mut self, dataset: &Dataset, split: &CubeSplit, targets: &[NodeId]) {
        for &t in targets {
            self.estimates[t] = self.best_estimate(dataset, split, t, None);
        }
    }

    /// The estimate [`Configuration::recompute_nodes`] derives for `t`
    /// from scratch, ignoring the model at `without`: the best of every
    /// single-source scheme from a model node, then of every
    /// full-hyperedge aggregation whose children all carry models, each
    /// adopted only when strictly better than the best so far.
    fn best_estimate(
        &self,
        dataset: &Dataset,
        split: &CubeSplit,
        t: NodeId,
        without: Option<NodeId>,
    ) -> NodeEstimate {
        let mut best = NodeEstimate::default();
        let mut consider = |sources: &[NodeId]| {
            if let Some(err) = self.scheme_error(dataset, split, sources, t) {
                if err < best.error {
                    best = NodeEstimate {
                        error: err,
                        scheme: Some(Scheme {
                            sources: sources.to_vec(),
                            weight: split.train_weight(dataset, sources, t),
                        }),
                    };
                }
            }
        };
        for &s in self.models.keys() {
            if Some(s) != without {
                consider(&[s]);
            }
        }
        for edge in dataset.graph().edges(t) {
            if edge
                .children
                .iter()
                .all(|&c| Some(c) != without && self.has_model(c))
            {
                consider(&edge.children);
            }
        }
        best
    }

    /// The overall error this configuration would have without the model
    /// at `victim`: the nodes whose scheme references it re-derive their
    /// best scheme from the remaining models, exactly as
    /// [`Configuration::recompute_nodes`] does after
    /// [`Configuration::remove_model`], and the mean is taken in node
    /// order. Nothing is cloned. `None` when `victim` carries no model.
    pub fn deletion_error(
        &self,
        dataset: &Dataset,
        split: &CubeSplit,
        victim: NodeId,
    ) -> Option<f64> {
        if !self.has_model(victim) {
            return None;
        }
        let mut repriced = self
            .dependents_of(victim)
            .into_iter()
            .map(|d| (d, self.best_estimate(dataset, split, d, Some(victim)).error))
            .peekable();
        let sum: f64 = self
            .estimates
            .iter()
            .enumerate()
            .map(|(v, e)| match repriced.next_if(|&(d, _)| d == v) {
                Some((_, err)) => err,
                None => e.error,
            })
            .sum();
        Some(sum / self.estimates.len() as f64)
    }

    /// Computes the final deployed forecast for node `v` at the given
    /// horizon, using the node's scheme and the stored models' current
    /// state. Returns `None` when the node has no scheme or a source lost
    /// its model.
    pub fn forecast_node(&self, v: NodeId, horizon: usize) -> Option<Vec<f64>> {
        let scheme = self.estimates[v].scheme.as_ref()?;
        let forecasts: Vec<Vec<f64>> = scheme
            .sources
            .iter()
            .map(|s| self.models.get(s).map(|m| m.model.forecast(horizon)))
            .collect::<Option<Vec<_>>>()?;
        let refs: Vec<&[f64]> = forecasts.iter().map(|f| f.as_slice()).collect();
        Some(derive_forecast(&refs, scheme.weight))
    }

    /// Directly sets a node's estimate (used by configuration loading and
    /// by baselines that compute estimates externally).
    pub fn set_estimate(&mut self, v: NodeId, estimate: NodeEstimate) {
        self.estimates[v] = estimate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Coord, STAR};
    use crate::schema::{Dimension, FunctionalDependency, Schema};
    use fdc_forecast::Granularity;

    fn dataset() -> Dataset {
        let schema = Schema::new(
            vec![
                Dimension::new(
                    "city",
                    vec!["C1".into(), "C2".into(), "C3".into(), "C4".into()],
                ),
                Dimension::new("region", vec!["R1".into(), "R2".into()]),
            ],
            vec![FunctionalDependency::new(0, 1, vec![0, 0, 1, 1])],
        )
        .unwrap();
        let region_of = [0u32, 0, 1, 1];
        let base = (0..4u32)
            .map(|city| {
                // Seasonal + trend, proportional across cities so schemes
                // can be accurate.
                let values: Vec<f64> = (0..40)
                    .map(|t| {
                        (city as f64 + 1.0)
                            * (20.0
                                + 0.3 * t as f64
                                + 5.0 * (2.0 * std::f64::consts::PI * (t % 4) as f64 / 4.0).sin())
                    })
                    .collect();
                (
                    Coord::new(vec![city, region_of[city as usize]]),
                    TimeSeries::new(values, Granularity::Quarterly),
                )
            })
            .collect();
        Dataset::from_base(schema, base).unwrap()
    }

    fn node(ds: &Dataset, vals: Vec<u32>) -> NodeId {
        ds.graph().node(&Coord::new(vals)).unwrap()
    }

    fn fit(split: &CubeSplit, v: NodeId) -> ConfiguredModel {
        ConfiguredModel::fit(
            split,
            v,
            &ModelSpec::default_for_period(4),
            &FitOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn split_has_expected_shapes() {
        let ds = dataset();
        let split = CubeSplit::new(&ds, 0.8);
        assert_eq!(split.train_len(), 32);
        assert_eq!(split.horizon(), 8);
        assert_eq!(split.train(0).len(), 32);
        assert_eq!(split.test(0).len(), 8);
    }

    #[test]
    fn empty_configuration_has_max_error() {
        let ds = dataset();
        let cfg = Configuration::new(ds.node_count());
        assert_eq!(cfg.model_count(), 0);
        assert_eq!(cfg.overall_error(), 1.0);
        assert_eq!(cfg.total_cost(), 0);
        assert!(cfg.forecast_node(0, 4).is_none());
    }

    #[test]
    fn direct_scheme_improves_node() {
        let ds = dataset();
        let split = CubeSplit::new(&ds, 0.8);
        let mut cfg = Configuration::new(ds.node_count());
        let top = ds.graph().top_node();
        cfg.insert_model(top, fit(&split, top));
        assert!(cfg.adopt_if_better(&ds, &split, &[top], top));
        let est = cfg.estimate(top);
        assert!(est.error < 0.1, "direct error {}", est.error);
        let scheme = est.scheme.as_ref().unwrap();
        assert_eq!(scheme.sources, vec![top]);
        assert!((scheme.weight - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disaggregation_serves_children_of_model_node() {
        let ds = dataset();
        let split = CubeSplit::new(&ds, 0.8);
        let mut cfg = Configuration::new(ds.node_count());
        let top = ds.graph().top_node();
        cfg.insert_model(top, fit(&split, top));
        let c1 = node(&ds, vec![0, 0]);
        assert!(cfg.adopt_if_better(&ds, &split, &[top], c1));
        let est = cfg.estimate(c1);
        // Proportional data: disaggregation is nearly as good as direct.
        assert!(est.error < 0.1, "disagg error {}", est.error);
        // Weight equals C1's share of the total = 1/10.
        assert!((est.scheme.as_ref().unwrap().weight - 0.1).abs() < 1e-6);
    }

    #[test]
    fn derived_error_is_the_score_of_the_derived_forecast() {
        let ds = dataset();
        let bits = |split: &CubeSplit, fc: &[&[f64]], k: f64, t: NodeId| {
            let stored = AccuracyMeasure::Smape.score(split.test(t), &derive_forecast(fc, k));
            assert_eq!(split.derived_error(fc, k, t).to_bits(), stored.to_bits());
        };
        let f: Vec<Vec<f64>> = (0..4)
            .map(|s| {
                (0..8)
                    .map(|i| 3.7 * s as f64 - 1.3 * i as f64 + 0.1)
                    .collect()
            })
            .collect();
        let negated: Vec<f64> = f[1].iter().map(|v| -v).collect();
        let split = CubeSplit::new(&ds, 0.8);
        for t in 0..ds.node_count() {
            for n in [1, 2, 4] {
                let fc: Vec<&[f64]> = f[..n].iter().map(Vec::as_slice).collect();
                for k in [0.37, 1.0, 0.0] {
                    bits(&split, &fc, k, t);
                }
            }
            // Sources summing to zero at every point.
            bits(&split, &[&f[1], &negated], 0.5, t);
        }
        // One observation per series: all training, an empty horizon.
        let short = Dataset::from_base(
            Schema::flat(vec![Dimension::new("d", vec!["a".into()])]).unwrap(),
            vec![(
                Coord::new(vec![0]),
                TimeSeries::new(vec![2.0], Granularity::Monthly),
            )],
        )
        .unwrap();
        let empty = CubeSplit::new(&short, 0.8);
        assert_eq!(empty.horizon(), 0);
        bits(&empty, &[&[], &[]], 0.5, 0);
        assert_eq!(empty.derived_error(&[&[]], 0.5, 0), 0.0);
    }

    #[test]
    fn scheme_error_requires_models_at_sources() {
        let ds = dataset();
        let split = CubeSplit::new(&ds, 0.8);
        let cfg = Configuration::new(ds.node_count());
        assert!(cfg.scheme_error(&ds, &split, &[0], 1).is_none());
        assert!(cfg.scheme_error(&ds, &split, &[], 1).is_none());
    }

    #[test]
    fn aggregation_scheme_from_children() {
        let ds = dataset();
        let split = CubeSplit::new(&ds, 0.8);
        let mut cfg = Configuration::new(ds.node_count());
        let c1 = node(&ds, vec![0, 0]);
        let c2 = node(&ds, vec![1, 0]);
        let r1 = node(&ds, vec![STAR, 0]);
        cfg.insert_model(c1, fit(&split, c1));
        cfg.insert_model(c2, fit(&split, c2));
        assert!(cfg.adopt_if_better(&ds, &split, &[c1, c2], r1));
        assert!(cfg.estimate(r1).error < 0.1);
    }

    #[test]
    fn removal_and_recompute_restores_consistency() {
        let ds = dataset();
        let split = CubeSplit::new(&ds, 0.8);
        let mut cfg = Configuration::new(ds.node_count());
        let top = ds.graph().top_node();
        let c1 = node(&ds, vec![0, 0]);
        cfg.insert_model(top, fit(&split, top));
        cfg.insert_model(c1, fit(&split, c1));
        let all: Vec<NodeId> = (0..ds.node_count()).collect();
        cfg.recompute_nodes(&ds, &split, &all);
        assert!(cfg.estimate(c1).scheme.is_some());

        // Remove whichever model serves more nodes; its dependents must be
        // recomputed.
        let victim = if cfg.dependents_of(top).len() >= cfg.dependents_of(c1).len() {
            top
        } else {
            c1
        };
        let deps = cfg.dependents_of(victim);
        assert!(!deps.is_empty(), "one of the two models must serve nodes");
        cfg.remove_model(victim);
        cfg.recompute_nodes(&ds, &split, &deps);
        for &d in &deps {
            if let Some(s) = &cfg.estimate(d).scheme {
                assert!(!s.sources.contains(&victim));
            }
        }
        // Every remaining scheme's sources still carry models.
        for v in 0..cfg.node_count() {
            if let Some(s) = &cfg.estimate(v).scheme {
                assert!(s.sources.iter().all(|src| cfg.has_model(*src)));
            }
        }
    }

    #[test]
    fn recompute_considers_aggregation_edges() {
        let ds = dataset();
        let split = CubeSplit::new(&ds, 0.8);
        let mut cfg = Configuration::new(ds.node_count());
        let c1 = node(&ds, vec![0, 0]);
        let c2 = node(&ds, vec![1, 0]);
        let r1 = node(&ds, vec![STAR, 0]);
        cfg.insert_model(c1, fit(&split, c1));
        cfg.insert_model(c2, fit(&split, c2));
        cfg.recompute_nodes(&ds, &split, &[r1]);
        assert!(cfg.estimate(r1).scheme.is_some());
    }

    #[test]
    fn overall_error_decreases_with_useful_models() {
        let ds = dataset();
        let split = CubeSplit::new(&ds, 0.8);
        let mut cfg = Configuration::new(ds.node_count());
        let before = cfg.overall_error();
        let top = ds.graph().top_node();
        cfg.insert_model(top, fit(&split, top));
        let all: Vec<NodeId> = (0..ds.node_count()).collect();
        cfg.recompute_nodes(&ds, &split, &all);
        assert!(cfg.overall_error() < before);
    }

    #[test]
    fn forecast_node_combines_sources() {
        let ds = dataset();
        let split = CubeSplit::new(&ds, 0.8);
        let mut cfg = Configuration::new(ds.node_count());
        let top = ds.graph().top_node();
        cfg.insert_model(top, fit(&split, top));
        let c1 = node(&ds, vec![0, 0]);
        cfg.adopt_if_better(&ds, &split, &[top], c1);
        let fc = cfg.forecast_node(c1, 4).unwrap();
        assert_eq!(fc.len(), 4);
        let top_fc = cfg.model(top).unwrap().model.forecast(4);
        let k = cfg.estimate(c1).scheme.as_ref().unwrap().weight;
        for (a, b) in fc.iter().zip(&top_fc) {
            assert!((a - k * b).abs() < 1e-12);
        }
    }

    #[test]
    fn creation_work_is_counted_and_repeatable() {
        let ds = dataset();
        let split = CubeSplit::new(&ds, 0.8);
        let top = ds.graph().top_node();
        let work = fit(&split, top).creation_work;
        assert!(work > 0);
        assert_eq!(work % split.train_len() as u64, 0, "evaluations × points");
        assert_eq!(fit(&split, top).creation_work, work);
        let costly = FitOptions {
            artificial_cost_us: 3,
            artificial_stall_us: 2,
            ..FitOptions::default()
        };
        let spec = ModelSpec::default_for_period(4);
        let model = ConfiguredModel::fit(&split, top, &spec, &costly).unwrap();
        assert_eq!(
            model.creation_work,
            work + 5 * fdc_forecast::WORK_UNITS_PER_US
        );
    }

    #[test]
    fn cost_accumulates_creation_work() {
        let ds = dataset();
        let split = CubeSplit::new(&ds, 0.8);
        let mut cfg = Configuration::new(ds.node_count());
        let top = ds.graph().top_node();
        let c1 = node(&ds, vec![0, 0]);
        let (top_model, c1_model) = (fit(&split, top), fit(&split, c1));
        let (top_work, c1_work) = (top_model.creation_work, c1_model.creation_work);
        assert!(top_work > 0 && c1_work > 0);
        cfg.insert_model(top, top_model);
        cfg.insert_model(c1, c1_model);
        assert_eq!(cfg.model_count(), 2);
        assert_eq!(cfg.total_cost(), top_work + c1_work);
        cfg.remove_model(c1).unwrap();
        assert_eq!(cfg.total_cost(), top_work);
        assert_eq!(cfg.model_count(), 1);
    }
}
