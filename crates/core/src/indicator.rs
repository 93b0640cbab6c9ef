//! Indicators (§III-B): cheap heuristics for the expected benefit of a
//! model, computed *without* building the model.
//!
//! Two ingredients are combined into one value per derivation scheme
//! `s → t`:
//!
//! * **historical error** — assume perfect accuracy at the source and use
//!   its real history as "forecasts"; derive the target with the weight
//!   `k_{s→t}` and score it by SMAPE against the target's real history;
//! * **similarity** — the squared coefficient of variation of the
//!   per-time-point shares `x_t(τ) / x_s(τ)`, capped at 1: constant
//!   shares indicate a consistent relationship, fluctuating shares an
//!   unstable scheme.
//!
//! Both read the training prefix only (`history_len`), so no indicator
//! sees test data.
//!
//! A *local indicator array* for source `s` holds the combined value for
//! the `|I|` nodes closest to `s` in the graph; the *global indicator* is
//! the element-wise minimum over all local arrays, i.e. the best expected
//! derivation error currently available for each node. Low values mean
//! the node is already well served; high values flag candidates.

use crate::evaluation::run_chunked;
use fdc_cube::derive::{derived_point, weight};
use fdc_cube::{Dataset, NodeId};
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
    /// History prefix used for the indicator computation (the training
    /// length, so indicators never see test data).
    pub history_len: usize,
}

impl IndicatorOptions {
    /// Defaults: λ = 1, `size` entries per array, the first `history_len`
    /// points of every series.
    pub fn new(size: usize, history_len: usize) -> Self {
        IndicatorOptions {
            size,
            lambda: 1.0,
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
    let [value] = Kernel::new(dataset, source, options).values([dataset.series(target).values()]);
    value
}

/// What every indicator entry of one source shares: the source's
/// history, its training-prefix sum and the options. [`Kernel::values`]
/// then scores `L` targets in two allocation-free passes.
struct Kernel<'a> {
    source: &'a [f64],
    source_sum: f64,
    take: usize,
    options: &'a IndicatorOptions,
}

/// Denominators at or below this magnitude give no per-point weight.
const ZERO_SHARE: f64 = 1e-12;

impl<'a> Kernel<'a> {
    fn new(dataset: &'a Dataset, source: NodeId, options: &'a IndicatorOptions) -> Self {
        let source = dataset.series(source).values();
        let take = options.history_len.min(source.len());
        Kernel {
            source,
            source_sum: source[..take].iter().sum(),
            take,
            options,
        }
    }

    /// The combined value of `source → target` for each of the `L`
    /// target histories `targets`, read over the training prefix only:
    /// the historical error of deriving it with `k = h_t / h_s`, and the
    /// squared coefficient of variation of the per-point shares
    /// `x_t(τ) / x_s(τ)` at the points with a non-zero source value.
    ///
    /// The `L` targets are scored in lockstep, so their sums form `L`
    /// independent chains instead of one serial chain. Each lane's sums
    /// still run in index order from `-0.0`, the start `Iterator::sum`
    /// uses for `f64`, so every value equals summing stored `derived` and
    /// weight vectors bit for bit, whatever `L` is.
    fn values<const L: usize>(&self, targets: [&[f64]; L]) -> [f64; L] {
        let take = self.take;
        let (targets, source) = (targets.map(|t| &t[..take]), &self.source[..take]);
        let measure = AccuracyMeasure::Smape;
        // Pass 1: the targets' training sums, and the share sums and count.
        let (mut target_sum, mut share_sum, mut shares) = ([-0.0; L], [-0.0; L], 0usize);
        for (i, &s) in source.iter().enumerate() {
            let positive = s.abs() > ZERO_SHARE;
            shares += usize::from(positive);
            for l in 0..L {
                let x = targets[l][i];
                target_sum[l] += x;
                if positive {
                    share_sum[l] += x / s;
                }
            }
        }
        let k = target_sum.map(|sum| weight(sum, self.source_sum));
        let share_mean = share_sum.map(|sum| sum / shares as f64);
        // Pass 2: the derivations' point errors and the shares' squared
        // deviations.
        let (mut error_sum, mut deviation_sum) = ([-0.0; L], [-0.0; L]);
        for (i, &s) in source.iter().enumerate() {
            let positive = s.abs() > ZERO_SHARE;
            for l in 0..L {
                let x = targets[l][i];
                error_sum[l] += measure.point_error(x, derived_point([s], k[l]));
                if positive {
                    let d = x / s - share_mean[l];
                    deviation_sum[l] += d * d;
                }
            }
        }
        let lambda = self.options.lambda;
        std::array::from_fn(|l| {
            let hist_err = if take == 0 {
                0.0
            } else {
                measure.from_sum(error_sum[l], take)
            };
            let mean = share_mean[l];
            let similarity = if shares < 2 {
                0.0
            } else if mean.abs() < 1e-12 {
                1.0
            } else {
                let var = deviation_sum[l] / shares as f64;
                (var / (mean * mean)).min(1.0)
            };
            (hist_err + lambda * similarity) / (1.0 + lambda)
        })
    }
}

/// Targets [`Kernel::values`] scores in lockstep when filling an array.
const LANES: usize = 4;

/// Entries per task when [`LocalIndicator::compute_many`] spreads arrays
/// over threads.
const TARGETS_PER_TASK: usize = 256;

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
    /// with ties broken by node id for determinism. Each node's distance
    /// is computed once; the array is filled one distance at a time.
    pub fn compute(dataset: &Dataset, source: NodeId, options: &IndicatorOptions) -> Self {
        let targets = Self::neighborhood(dataset, source, options);
        let values = Self::values_at(dataset, source, &targets, options);
        LocalIndicator {
            source,
            targets,
            values,
        }
    }

    /// [`LocalIndicator::compute`] for every node of `sources`, in order,
    /// on `threads` workers. The arrays are cut into tasks of
    /// [`TARGETS_PER_TASK`] entries, so a handful of sources still keeps
    /// every worker busy; each entry is computed exactly as `compute`
    /// computes it.
    pub fn compute_many(
        dataset: &Dataset,
        sources: &[NodeId],
        options: &IndicatorOptions,
        threads: usize,
    ) -> Vec<Self> {
        let neighborhoods: Vec<Vec<NodeId>> = sources
            .iter()
            .map(|&s| Self::neighborhood(dataset, s, options))
            .collect();
        let tasks: Vec<(NodeId, &[NodeId])> = sources
            .iter()
            .zip(&neighborhoods)
            .flat_map(|(&s, targets)| targets.chunks(TARGETS_PER_TASK).map(move |c| (s, c)))
            .collect();
        let (parts, _peak) = run_chunked(&tasks, threads, |&(s, chunk)| {
            Self::values_at(dataset, s, chunk, options)
        });
        let mut parts = parts.into_iter();
        sources
            .iter()
            .zip(neighborhoods)
            .map(|(&source, targets)| {
                // Sized exactly: the cache keeps every array for the run.
                let mut values = Vec::with_capacity(targets.len());
                for part in parts
                    .by_ref()
                    .take(targets.len().div_ceil(TARGETS_PER_TASK))
                {
                    values.extend(part);
                }
                LocalIndicator {
                    source,
                    targets,
                    values,
                }
            })
            .collect()
    }

    /// The covered targets of `source`'s array, in array order.
    fn neighborhood(dataset: &Dataset, source: NodeId, options: &IndicatorOptions) -> Vec<NodeId> {
        let g = dataset.graph();
        let n = g.node_count();
        let size = options.size.max(1).min(n);
        let distance: Vec<usize> = (0..n).map(|v| g.distance(source, v)).collect();
        let farthest = distance.iter().copied().max().unwrap_or(0);
        let mut targets = Vec::with_capacity(size);
        'fill: for d in 0..=farthest {
            for (v, &dv) in distance.iter().enumerate() {
                if targets.len() == size {
                    break 'fill;
                }
                if dv == d {
                    targets.push(v);
                }
            }
        }
        targets
    }

    /// The values of `source`'s array at `targets`, in order.
    fn values_at(
        dataset: &Dataset,
        source: NodeId,
        targets: &[NodeId],
        options: &IndicatorOptions,
    ) -> Vec<f64> {
        let kernel = Kernel::new(dataset, source, options);
        let series = |t: NodeId| dataset.series(t).values();
        let mut values = Vec::with_capacity(targets.len());
        let mut lanes = targets.chunks_exact(LANES);
        for chunk in &mut lanes {
            values.extend(kernel.values::<LANES>(std::array::from_fn(|l| series(chunk[l]))));
        }
        for &t in lanes.remainder() {
            values.extend(kernel.values([series(t)]));
        }
        // The source's own entry is the direct scheme, free of error.
        for (value, &t) in values.iter_mut().zip(targets) {
            if t == source {
                *value = 0.0;
            }
        }
        values
    }

    /// The indicator value for `target`, if covered.
    pub fn value_for(&self, target: NodeId) -> Option<f64> {
        self.targets
            .iter()
            .position(|&t| t == target)
            .map(|i| self.values[i])
    }
}

/// No local indicator covers the node.
const NO_HOLDER: NodeId = NodeId::MAX;

/// Sources [`IndicatorStore::means_without`] scores per pass over the
/// nodes.
const WITHOUT_LANES: usize = 8;

/// The set of local indicators of the current configuration plus the
/// derived global indicator.
///
/// Per node the store keeps the best value (the global indicator), the
/// source whose local indicator first reached it, and the best value
/// among all other sources, so the global mean without one source is a
/// single pass over the nodes. The sum of the global indicator is kept
/// beside it, summed in node order whenever the indicator changes.
#[derive(Debug, Clone, Default)]
pub struct IndicatorStore {
    locals: Vec<LocalIndicator>,
    global: Vec<f64>,
    global_sum: f64,
    holder: Vec<NodeId>,
    runner_up: Vec<f64>,
}

impl IndicatorStore {
    /// An empty store over `node_count` nodes (global = all uncovered).
    pub fn new(node_count: usize) -> Self {
        let global = vec![UNCOVERED; node_count];
        IndicatorStore {
            locals: Vec::new(),
            global_sum: global.iter().sum(),
            global,
            holder: vec![NO_HOLDER; node_count],
            runner_up: vec![UNCOVERED; node_count],
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
        // Replace an existing local for the same source, if any.
        if let Some(pos) = self.locals.iter().position(|l| l.source == local.source) {
            self.locals[pos] = local;
            self.rebuild_global();
        } else {
            self.fold(&local);
            self.locals.push(local);
            self.global_sum = self.global.iter().sum();
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
        self.global_sum / self.global.len() as f64
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
        let mut sum = self.global_sum;
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
        self.lanes_without([source])[0]
    }

    /// [`IndicatorStore::mean_without`] of every one of `sources`, in
    /// order, scored eight per pass over the nodes.
    pub(crate) fn means_without(&self, sources: &[NodeId]) -> Vec<f64> {
        let mut means = Vec::with_capacity(sources.len());
        for chunk in sources.chunks(WITHOUT_LANES) {
            let mut lanes = [NO_HOLDER; WITHOUT_LANES];
            lanes[..chunk.len()].copy_from_slice(chunk);
            means.extend_from_slice(&self.lanes_without(lanes)[..chunk.len()]);
        }
        means
    }

    /// The global mean without each of `L` sources, in one pass over the
    /// nodes. Each lane sums in node order from `-0.0`, as
    /// `Iterator::sum` does, so a lane's bits do not depend on `L`.
    fn lanes_without<const L: usize>(&self, sources: [NodeId; L]) -> [f64; L] {
        if self.global.is_empty() {
            return [0.0; L];
        }
        let mut sums = [-0.0; L];
        let nodes = self.global.iter().zip(&self.holder).zip(&self.runner_up);
        for ((&global, &holder), &runner_up) in nodes {
            for (sum, &source) in sums.iter_mut().zip(&sources) {
                *sum += if holder == source { runner_up } else { global };
            }
        }
        let n = self.global.len() as f64;
        sums.map(|sum| sum / n)
    }

    /// Folds one local indicator into the per-node best, holder and
    /// runner-up; a tie keeps the earlier holder.
    fn fold(&mut self, local: &LocalIndicator) {
        for (&t, &v) in local.targets.iter().zip(&local.values) {
            if v < self.global[t] {
                self.runner_up[t] = self.global[t];
                self.global[t] = v;
                self.holder[t] = local.source;
            } else if v < self.runner_up[t] {
                self.runner_up[t] = v;
            }
        }
    }

    fn rebuild_global(&mut self) {
        self.global.fill(UNCOVERED);
        self.holder.fill(NO_HOLDER);
        self.runner_up.fill(UNCOVERED);
        let locals = std::mem::take(&mut self.locals);
        for l in &locals {
            self.fold(l);
        }
        self.locals = locals;
        self.global_sum = self.global.iter().sum();
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
    fn compute_many_is_compute_per_source() {
        let ds = generate_cube(&GenSpec::new(500, 24, 5)).dataset;
        let opts = options(&ds);
        assert!(ds.node_count() > 2 * TARGETS_PER_TASK, "arrays span tasks");
        let sources = [ds.graph().top_node(), 0, 7, ds.node_count() - 1];
        for threads in [1, 3] {
            let many = LocalIndicator::compute_many(&ds, &sources, &opts, threads);
            assert_eq!(many.len(), sources.len());
            for (local, &s) in many.iter().zip(&sources) {
                let one = LocalIndicator::compute(&ds, s, &opts);
                assert_eq!((local.source, &local.targets), (s, &one.targets));
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&local.values), bits(&one.values));
            }
        }
        assert!(LocalIndicator::compute_many(&ds, &[], &opts, 2).is_empty());
    }

    #[test]
    fn lane_kernel_equals_the_one_lane_kernel() {
        let ds = tourism_proxy(1);
        let opts = options(&ds);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // One value per entry, the source's own entry zero.
        let one_lane = |s: NodeId, targets: &[NodeId]| -> Vec<f64> {
            targets
                .iter()
                .map(|&t| scheme_indicator(&ds, s, t, &opts))
                .collect()
        };
        let sources = [ds.graph().top_node(), 0, 5];
        for len in 0..=9 {
            for &s in &sources {
                // Every remainder, with and without the source among the
                // lanes.
                for start in [s, s + 1] {
                    let targets: Vec<NodeId> =
                        (start..start + len).map(|t| t % ds.node_count()).collect();
                    let lanes = LocalIndicator::values_at(&ds, s, &targets, &opts);
                    assert_eq!(bits(&lanes), bits(&one_lane(s, &targets)), "{len}");
                }
            }
            let sized = IndicatorOptions::new(len, opts.history_len);
            for threads in [1, 3] {
                for local in LocalIndicator::compute_many(&ds, &sources, &sized, threads) {
                    assert_eq!(local.targets.len(), len.max(1));
                    let expect = local
                        .targets
                        .iter()
                        .map(|&t| scheme_indicator(&ds, local.source, t, &sized))
                        .collect::<Vec<_>>();
                    assert_eq!(bits(&local.values), bits(&expect), "{len}, {threads}");
                }
            }
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

    /// The eight-lane pass against the one-source sum it replaced, at
    /// every remainder of the sources over the lanes.
    #[test]
    fn lanes_without_are_bit_identical_to_one_source_sums() {
        let cube = generate_cube(&GenSpec::new(40, 24, 7));
        let ds = &cube.dataset;
        let opts = IndicatorOptions::new(ds.node_count() / 2, 20);
        let mut store = IndicatorStore::new(ds.node_count());
        let sources: Vec<NodeId> = (0..ds.node_count()).step_by(3).take(17).collect();
        for &s in &sources {
            store.insert(LocalIndicator::compute(ds, s, &opts));
        }
        let summed = |source: NodeId| {
            let sum: f64 = (0..store.global.len())
                .map(|t| {
                    if store.holder[t] == source {
                        store.runner_up[t]
                    } else {
                        store.global[t]
                    }
                })
                .sum();
            sum / store.global.len() as f64
        };
        for count in 0..=sources.len() {
            let lanes = store.means_without(&sources[..count]);
            assert_eq!(lanes.len(), count);
            for (&s, lane) in sources.iter().zip(lanes) {
                assert_eq!(lane.to_bits(), store.mean_without(s).to_bits(), "{count}");
                assert_eq!(lane.to_bits(), summed(s).to_bits(), "{count}");
            }
        }
        assert_eq!(
            store.global_mean().to_bits(),
            (store.global.iter().sum::<f64>() / store.global.len() as f64).to_bits()
        );
    }

    #[test]
    fn indicator_size_limits_coverage() {
        let cube = generate_cube(&GenSpec::new(32, 40, 3));
        let ds = &cube.dataset;
        let small = IndicatorOptions::new(4, 32);
        let local = LocalIndicator::compute(ds, ds.graph().top_node(), &small);
        assert_eq!(local.targets.len(), 4);
    }

    /// Two cells `a` and `b` over ten points, eight of them training; `a`
    /// has a zero at τ = 1 and `b` is twice `a` elsewhere in training.
    fn zero_in_training(test_b: [f64; 2]) -> Dataset {
        use fdc_cube::{Coord, Dimension, Schema};
        use fdc_forecast::{Granularity, TimeSeries};
        let schema = Schema::flat(vec![Dimension::new("d", vec!["a".into(), "b".into()])]).unwrap();
        let a = vec![2.0, 0.0, 2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 1.0, 1.0];
        let mut b: Vec<f64> = a[..8].iter().map(|v| 2.0 * v).collect();
        b[1] = 5.0;
        b.extend(test_b);
        Dataset::from_base(
            schema,
            vec![
                (
                    Coord::new(vec![0]),
                    TimeSeries::new(a, Granularity::Monthly),
                ),
                (
                    Coord::new(vec![1]),
                    TimeSeries::new(b, Granularity::Monthly),
                ),
            ],
        )
        .unwrap()
    }

    /// The historical error of `a → b` over the first `take` points,
    /// formed the stored way: the derived series, then its SMAPE.
    fn stored_historical_error(ds: &Dataset, a: NodeId, b: NodeId, take: usize) -> f64 {
        let (a, b) = (
            &ds.series(a).values()[..take],
            &ds.series(b).values()[..take],
        );
        let k = b.iter().sum::<f64>() / a.iter().sum::<f64>();
        let derived: Vec<f64> = a.iter().map(|v| v * k).collect();
        AccuracyMeasure::Smape.score(b, &derived)
    }

    #[test]
    fn similarity_reads_only_the_training_window() {
        let ds = zero_in_training([40.0, 40.0]);
        let (a, b) = (ds.graph().base_nodes()[0], ds.graph().base_nodes()[1]);
        let opts = IndicatorOptions::new(ds.node_count(), 8);
        // The seven training shares are all 2: no similarity penalty, so
        // the value is half the historical error. Reading on past the
        // skipped zero would take the test share 40 and cap the
        // similarity at 1.
        let hist = stored_historical_error(&ds, a, b, 8);
        assert!(hist > 0.0);
        assert_eq!(scheme_indicator(&ds, a, b, &opts), hist / 2.0);
        // No test value reaches any indicator.
        let other = zero_in_training([1.0, 1e6]);
        for v in 0..ds.node_count() {
            let local = LocalIndicator::compute(&ds, v, &opts);
            assert_eq!(
                local.values,
                LocalIndicator::compute(&other, v, &opts).values
            );
        }
    }

    #[test]
    fn global_std_is_zero_for_uniform() {
        let store = IndicatorStore::new(10);
        assert_eq!(store.global_std(), 0.0);
    }
}
