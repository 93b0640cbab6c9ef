//! Evaluation phase (§IV-B): model creation, acceptance and deletion.
//!
//! The top-n positive candidates get real models (created in parallel,
//! "the number of nodes n is restricted by the number of available
//! processors"), the real effect of each model on the cube is measured,
//! and the generalized acceptance criterion of Eq. (8)
//!
//! ```text
//! α·err_new + (1−α)·cost_new  <  α·err_old + (1−α)·cost_old
//! ```
//!
//! decides admission. A cost is counted creation work
//! ([`ConfiguredModel::creation_work`]), never a measured time, so the
//! decision is the same on every run and machine. Costs are normalized so
//! error and cost are comparable: a configuration's cost is expressed as
//! its share of the estimated cost of the *direct* approach (a model at
//! every node), which maps it into the same `[0, 1]` scale as SMAPE.

use fdc_cube::{Configuration, ConfiguredModel, CubeSplit, Dataset, NodeId};
use fdc_forecast::{FitOptions, ModelSpec, WORK_UNITS_PER_US};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The generalized acceptance criterion (Eq. 8).
#[derive(Debug, Clone)]
pub struct AcceptanceCriterion {
    /// The error/cost trade-off weight α ∈ [0, 1]; α = 1 is error-only
    /// (Eq. 7).
    pub alpha: f64,
    /// Estimated average model creation work, used for cost
    /// normalization. Updated as models are built.
    pub avg_creation_work: f64,
    /// Number of nodes in the graph (the direct approach would build this
    /// many models).
    pub node_count: usize,
    /// Error of the initial configuration, the scale of the error term.
    pub error_scale: f64,
}

impl AcceptanceCriterion {
    /// Creates a criterion for a graph of `node_count` nodes.
    pub fn new(alpha: f64, node_count: usize) -> Self {
        AcceptanceCriterion {
            alpha,
            // One millisecond's worth of work until a fit is observed.
            avg_creation_work: (1_000 * WORK_UNITS_PER_US) as f64,
            node_count: node_count.max(1),
            error_scale: 1.0,
        }
    }

    /// Sets the error normalization scale (the initial configuration
    /// error); clamped away from zero so a perfect seed cannot divide by
    /// zero.
    pub fn set_error_scale(&mut self, initial_error: f64) {
        self.error_scale = initial_error.max(1e-6);
    }

    /// Folds a newly observed creation work into the running average.
    pub fn observe_creation(&mut self, work: u64) {
        // Exponential moving average with a light smoothing factor, kept
        // above zero so a free fit cannot zero the normalization.
        let new = 0.8 * self.avg_creation_work + 0.2 * work as f64;
        self.avg_creation_work = new.max(1.0);
    }

    /// Normalizes a total configuration cost into `[0, ~1]`: its share of
    /// the projected cost of building a model at every node.
    pub fn normalized_cost(&self, total: u64) -> f64 {
        total as f64 / (self.avg_creation_work * self.node_count as f64)
    }

    /// The weighted objective `α·(err/err₀) + (1−α)·cost_norm`.
    pub fn objective(&self, error: f64, total_cost: u64) -> f64 {
        self.alpha * (error / self.error_scale)
            + (1.0 - self.alpha) * self.normalized_cost(total_cost)
    }

    /// Whether the transition old → new is an improvement under Eq. (8).
    pub fn accepts(&self, err_old: f64, cost_old: u64, err_new: f64, cost_new: u64) -> bool {
        self.objective(err_new, cost_new) < self.objective(err_old, cost_old)
    }
}

/// Runs `work` over every item on a bounded pool of at most `parallelism`
/// worker threads pulling from a shared index. Results come back in input
/// order, together with the peak number of workers observed inside `work`
/// simultaneously — the quantity the parallelism-limit test asserts on.
pub fn run_chunked<T, R, F>(items: &[T], parallelism: usize, work: F) -> (Vec<R>, usize)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = parallelism.max(1).min(items.len());
    if workers <= 1 {
        let results: Vec<R> = items.iter().map(&work).collect();
        return (results, usize::from(!items.is_empty()));
    }
    let next = AtomicUsize::new(0);
    let current = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= items.len() {
                            break;
                        }
                        let running = current.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(running, Ordering::SeqCst);
                        let r = work(&items[i]);
                        current.fetch_sub(1, Ordering::SeqCst);
                        done.push((i, r));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("worker thread panicked") {
                results[i] = Some(r);
            }
        }
    });
    let results = results
        .into_iter()
        .map(|r| r.expect("every slot filled"))
        .collect();
    (results, peak.load(Ordering::SeqCst))
}

/// Builds models for the given candidate nodes in parallel on at most
/// `parallelism` worker threads ("the number of nodes n is restricted by
/// the number of available processors", §IV-B.1).
pub fn build_models_parallel(
    split: &CubeSplit,
    candidates: &[NodeId],
    spec: &ModelSpec,
    options: &FitOptions,
    parallelism: usize,
) -> Vec<(NodeId, Option<ConfiguredModel>)> {
    let (models, _peak) = run_chunked(candidates, parallelism, |&v| {
        ConfiguredModel::fit(split, v, spec, options).ok()
    });
    candidates.iter().copied().zip(models).collect()
}

/// The measured effect of tentatively adding a model at `source`: the new
/// overall error if all improving adoptions were committed, plus the list
/// of `(target, error)` improvements.
#[derive(Debug, Clone)]
pub struct ModelEffect {
    /// Candidate source node.
    pub source: NodeId,
    /// Overall configuration error after adopting all improvements.
    pub err_new: f64,
    /// Improving targets with their new errors.
    pub improvements: Vec<(NodeId, f64)>,
    /// Schemes scored over the test window (the effect's counted work,
    /// in horizons).
    pub measured: usize,
}

/// Measures the effect of a candidate model on the cube without mutating
/// the configuration.
///
/// Targets examined: the candidate itself (direct scheme) plus
/// `neighborhood` (its indicator array targets), and full-hyperedge
/// aggregations at its parents ("computing the accuracy of the model at
/// its own node as well as in derivation schemes", §IV-B.1). Every
/// scheme is scored by [`CubeSplit::derived_error`] straight from the
/// candidate's and the siblings' cached test forecasts.
pub fn measure_model_effect(
    dataset: &Dataset,
    split: &CubeSplit,
    configuration: &Configuration,
    model: &ConfiguredModel,
    source: NodeId,
    neighborhood: &[NodeId],
) -> ModelEffect {
    let forecast = model.test_forecast.as_slice();
    let mut improvements = Vec::new();
    let mut measured = 0usize;
    let mut consider = |target: NodeId, e: f64| {
        measured += 1;
        if e < configuration.estimate(target).error {
            improvements.push((target, e));
        }
    };

    let targets = neighborhood.iter().copied().filter(|&t| t != source);
    for t in std::iter::once(source).chain(targets) {
        let k = split.train_weight(dataset, &[source], t);
        consider(t, split.derived_error(&[forecast], k, t));
    }

    // Aggregations at parents whose hyperedge is now fully covered
    // (children models from the existing configuration + the candidate).
    for &(_, parent) in dataset.graph().parents(source) {
        for edge in dataset.graph().edges(parent) {
            if !edge.children.contains(&source) {
                continue;
            }
            let forecasts: Option<Vec<&[f64]>> = edge
                .children
                .iter()
                .map(|&c| {
                    if c == source {
                        Some(forecast)
                    } else {
                        configuration.model(c).map(|m| m.test_forecast.as_slice())
                    }
                })
                .collect();
            if let Some(forecasts) = forecasts {
                let k = split.train_weight(dataset, &edge.children, parent);
                consider(parent, split.derived_error(&forecasts, k, parent));
            }
        }
    }

    // Deduplicate improvements per target, keeping the best.
    improvements.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    improvements.dedup_by_key(|(t, _)| *t);
    let mut delta = 0.0;
    for &(t, e) in &improvements {
        delta += e - configuration.estimate(t).error;
    }

    let n = configuration.node_count() as f64;
    ModelEffect {
        source,
        err_new: configuration.overall_error() + delta / n,
        improvements,
        measured,
    }
}

/// Commits an accepted model: inserts it and adopts its improving
/// schemes.
pub fn commit_model(
    dataset: &Dataset,
    split: &CubeSplit,
    configuration: &mut Configuration,
    model: ConfiguredModel,
    effect: &ModelEffect,
) {
    let source = effect.source;
    configuration.insert_model(source, model);
    for &(t, _) in &effect.improvements {
        // Re-adopt through the configuration so weights and error
        // bookkeeping stay consistent.
        configuration.adopt_if_better(dataset, split, &[source], t);
        // Aggregation improvements carry multi-source schemes; try those
        // too when the target is a parent of the source.
        for edge in dataset.graph().edges(t) {
            let children = &edge.children;
            if children.contains(&source) && children.iter().all(|&c| configuration.has_model(c)) {
                configuration.adopt_if_better(dataset, split, children, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_datagen::tourism_proxy;
    use std::time::Duration;

    fn spec() -> ModelSpec {
        ModelSpec::default_for_period(4)
    }

    #[test]
    fn criterion_alpha_one_is_error_only() {
        let c = AcceptanceCriterion::new(1.0, 100);
        assert!(c.accepts(0.5, 0, 0.4, u64::MAX));
        assert!(!c.accepts(0.4, 0, 0.5, 0));
    }

    #[test]
    fn criterion_low_alpha_penalizes_cost() {
        let mut c = AcceptanceCriterion::new(0.1, 10);
        c.avg_creation_work = 10_000.0;
        // Tiny error improvement, large cost increase → reject.
        assert!(!c.accepts(0.50, 0, 0.499, 50_000));
        // With a balanced α, a large error improvement justifies a modest
        // cost increase (one model ≈ 0.1 of the direct cost here).
        let balanced = AcceptanceCriterion {
            alpha: 0.5,
            ..c.clone()
        };
        assert!(balanced.accepts(0.50, 0, 0.10, 10_000));
    }

    #[test]
    fn observe_creation_moves_average() {
        let mut c = AcceptanceCriterion::new(0.5, 10);
        assert_eq!(c.avg_creation_work, (1_000 * WORK_UNITS_PER_US) as f64);
        c.observe_creation(1_000_000);
        assert_eq!(c.avg_creation_work, 0.8 * 128_000.0 + 0.2 * 1_000_000.0);
    }

    #[test]
    fn normalized_cost_is_share_of_direct() {
        let mut c = AcceptanceCriterion::new(0.5, 10);
        c.avg_creation_work = 10_000.0;
        // 5 models worth of average cost out of 10 nodes → 0.5.
        assert_eq!(c.normalized_cost(50_000), 0.5);
    }

    #[test]
    fn parallel_build_returns_all_candidates() {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let candidates: Vec<NodeId> = ds.graph().base_nodes()[..4].to_vec();
        let built = build_models_parallel(&split, &candidates, &spec(), &FitOptions::default(), 4);
        assert_eq!(built.len(), 4);
        for (v, m) in &built {
            assert!(candidates.contains(v));
            assert!(m.is_some());
        }
    }

    #[test]
    fn parallel_build_matches_serial_fits() {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let candidates: Vec<NodeId> = ds.graph().base_nodes()[..8].to_vec();
        let (spec, fit) = (spec(), FitOptions::default());
        for threads in [1, 2, 8] {
            for (v, m) in build_models_parallel(&split, &candidates, &spec, &fit, threads) {
                let m = m.unwrap();
                let serial = ConfiguredModel::fit(&split, v, &spec, &fit).unwrap();
                assert_eq!(m.test_forecast, serial.test_forecast);
                assert_eq!(m.creation_work, serial.creation_work, "{threads} threads");
            }
        }
    }

    #[test]
    fn chunked_worker_pool_respects_parallelism_limit() {
        // 16 slow tasks on a limit of 3: the observed peak concurrency
        // must never exceed the limit, and the slow tasks guarantee the
        // workers actually overlap (peak > 1).
        let items: Vec<usize> = (0..16).collect();
        let (results, peak) = run_chunked(&items, 3, |&i| {
            std::thread::sleep(Duration::from_millis(10));
            i * 2
        });
        assert_eq!(results, (0..16).map(|i| i * 2).collect::<Vec<_>>());
        assert!(peak <= 3, "peak {peak} exceeds the configured limit of 3");
        assert!(peak >= 2, "workers never overlapped (peak {peak})");

        // Degenerate limits behave: serial execution peaks at one worker.
        let (serial, peak1) = run_chunked(&items, 1, |&i| i);
        assert_eq!(serial, items);
        assert_eq!(peak1, 1);
        let (none, peak0) = run_chunked::<usize, usize, _>(&[], 4, |&i| i);
        assert!(none.is_empty());
        assert_eq!(peak0, 0);
    }

    #[test]
    fn parallel_build_with_slow_fits_stays_within_limit() {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let candidates: Vec<NodeId> = ds.graph().base_nodes()[..6].to_vec();
        let slow = FitOptions {
            artificial_cost_us: 5_000,
            ..FitOptions::default()
        };
        let (models, peak) = run_chunked(&candidates, 2, |&v| {
            ConfiguredModel::fit(&split, v, &spec(), &slow).ok()
        });
        assert!(models.iter().all(|m| m.is_some()));
        assert!(peak <= 2, "peak {peak} exceeds AdvisorOptions-style limit");
    }

    #[test]
    fn effect_measurement_matches_commit() {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let cfg = Configuration::new(ds.node_count());
        let top = ds.graph().top_node();
        let model = ConfiguredModel::fit(&split, top, &spec(), &FitOptions::default()).unwrap();
        let neighborhood: Vec<NodeId> = (0..ds.node_count()).collect();
        let effect = measure_model_effect(&ds, &split, &cfg, &model, top, &neighborhood);
        assert!(effect.err_new < cfg.overall_error());

        let mut committed = cfg.clone();
        commit_model(&ds, &split, &mut committed, model, &effect);
        assert!(
            (committed.overall_error() - effect.err_new).abs() < 1e-9,
            "measured {} vs committed {}",
            effect.err_new,
            committed.overall_error()
        );
    }

    #[test]
    fn effect_includes_parent_aggregation_when_siblings_have_models() {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let g = ds.graph();
        // Find a parent with exactly 4 children (purpose aggregation over
        // the 4 purposes for one state): give models to 3 children, then
        // measure the 4th — the parent should appear in the improvements.
        let state0 = g
            .node(&fdc_cube::Coord::new(vec![fdc_cube::STAR, 0]))
            .unwrap();
        let children = g.edges(state0)[0].children.clone();
        assert_eq!(children.len(), 4);
        let mut cfg = Configuration::new(ds.node_count());
        for &c in &children[..3] {
            let m = ConfiguredModel::fit(&split, c, &spec(), &FitOptions::default()).unwrap();
            cfg.insert_model(c, m);
        }
        let last = children[3];
        let model = ConfiguredModel::fit(&split, last, &spec(), &FitOptions::default()).unwrap();
        let effect = measure_model_effect(&ds, &split, &cfg, &model, last, &[]);
        assert!(
            effect.improvements.iter().any(|&(t, _)| t == state0),
            "parent not improved: {:?}",
            effect.improvements
        );
    }
}
