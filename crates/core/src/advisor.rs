//! The model configuration advisor driver (§III–IV).
//!
//! [`Advisor`] wires the four phases into the iterative process of
//! Fig. 5: candidate selection → evaluation → control → output. Each
//! iteration adds (and possibly removes) models; the advisor can be
//! stopped at any time and always holds a valid configuration, its error
//! and its costs — "allowing the user to retrieve a valid configuration
//! at any time, trading forecast accuracy and model costs".

use crate::candidate::select_candidates;
use crate::control::{indicator_size_for_budget, ControlState};
use crate::evaluation::{
    build_models_parallel, commit_model, measure_model_effect, AcceptanceCriterion,
};
use crate::indicator::{IndicatorOptions, IndicatorStore, LocalIndicator};
use crate::multisource::MultiSourceSearch;
use fdc_cube::{Configuration, ConfiguredModel, CubeSplit, Dataset, NodeId};
use fdc_forecast::{FitOptions, ModelSpec};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// User-settable stop criteria (§IV-D): error-based (absolute or relative
/// to the initial configuration) or cost-based (absolute or relative), in
/// addition to the always-active α schedule.
#[derive(Debug, Clone, Default)]
pub struct StopCriteria {
    /// Stop once the overall error falls to or below this value.
    pub absolute_error: Option<f64>,
    /// Stop once the error falls to or below `fraction × initial error`.
    pub relative_error: Option<f64>,
    /// Stop once the total model cost reaches this much counted creation
    /// work ([`Configuration::total_cost`]).
    pub absolute_cost: Option<u64>,
    /// Stop once this many models are stored.
    pub max_models: Option<usize>,
    /// Stop once `fraction × node count` models are stored.
    pub relative_models: Option<f64>,
    /// Hard iteration cap.
    pub max_iterations: Option<usize>,
}

/// Why the advisor terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The α schedule passed its limit (default termination).
    ScheduleExhausted,
    /// An error-based stop criterion fired.
    ErrorReached,
    /// A cost-based stop criterion fired.
    CostReached,
    /// The iteration cap fired.
    IterationLimit,
}

/// Options of the advisor. "Ideally no further parameterization input
/// should be needed when running the advisor" (§III-A) — every field has
/// a sensible default.
#[derive(Debug, Clone)]
pub struct AdvisorOptions {
    /// Training fraction of each series (paper: ≈ 0.8).
    pub train_frac: f64,
    /// Model specification; `None` = default for the data's seasonality.
    pub spec: Option<ModelSpec>,
    /// Fitting options.
    pub fit: FitOptions,
    /// Models built per iteration (the evaluation's top-n); `None` = 4
    /// on every machine. The thread count only decides how a batch runs:
    /// local indicators and fits use `available_parallelism` threads.
    pub parallelism: Option<usize>,
    /// Fixed indicator size `|I|`; `None` = memory-budget rule.
    pub indicator_size: Option<usize>,
    /// Memory budget for indicator arrays (default 256 MB).
    pub memory_budget_bytes: usize,
    /// Weight λ of the similarity ingredient in the combined indicator.
    pub lambda: f64,
    /// Initial α of the acceptance schedule (paper: 0.1).
    pub initial_alpha: f64,
    /// α value past which the schedule terminates (1.0 reproduces the
    /// paper's default; 0.5 reproduces the Fig. 9 configuration).
    pub alpha_limit: f64,
    /// Whether γ adapts to the phases' counted work.
    pub adaptive_gamma: bool,
    /// Multi-source search rounds per iteration (0 disables §IV-C.2).
    pub multisource_steps: usize,
    /// Seed a model at the top node so every node is immediately
    /// derivable (the initialization of the running example, Fig. 4).
    pub seed_top_model: bool,
    /// RNG seed (multi-source sampling, stochastic optimizers).
    pub seed: u64,
    /// Stop criteria.
    pub stop: StopCriteria,
}

impl Default for AdvisorOptions {
    fn default() -> Self {
        AdvisorOptions {
            train_frac: 0.8,
            spec: None,
            fit: FitOptions::default(),
            parallelism: None,
            indicator_size: None,
            memory_budget_bytes: 256 << 20,
            lambda: 1.0,
            initial_alpha: 0.1,
            alpha_limit: 1.0,
            adaptive_gamma: true,
            multisource_steps: 8,
            seed_top_model: true,
            seed: 0xadff,
            stop: StopCriteria::default(),
        }
    }
}

/// Per-iteration statistics, streamed out for the output phase and kept
/// as the advisor's history.
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// α in effect during the iteration.
    pub alpha: f64,
    /// γ in effect during the iteration.
    pub gamma: f64,
    /// Overall configuration error after the iteration.
    pub error: f64,
    /// Models stored after the iteration.
    pub model_count: usize,
    /// Total model cost (counted creation work) after the iteration.
    pub cost: u64,
    /// Positive candidates selected.
    pub candidates: usize,
    /// Models actually built.
    pub models_built: usize,
    /// Models accepted.
    pub accepted: usize,
    /// Models rejected.
    pub rejected: usize,
    /// Models deleted.
    pub deleted: usize,
    /// Wall time of the candidate selection phase (reported only).
    pub selection_time: Duration,
    /// Wall time of the evaluation phase (reported only).
    pub evaluation_time: Duration,
    /// Counted work of the selection phase: local indicator entries built
    /// × (training length + series length). γ adapts on this.
    pub selection_work: u64,
    /// Counted work of the evaluation phase: effect targets measured ×
    /// horizon, plus every fit's creation work. γ adapts on this.
    pub evaluation_work: u64,
}

/// Final outcome of an advisor run.
#[derive(Debug)]
pub struct AdvisorOutcome {
    /// The final configuration.
    pub configuration: Configuration,
    /// Per-iteration history.
    pub history: Vec<IterationStats>,
    /// Final overall error.
    pub error: f64,
    /// Final model count.
    pub model_count: usize,
    /// Final total model cost (counted creation work).
    pub total_cost: u64,
    /// Total wall time of the run (reported only).
    pub wall_time: Duration,
    /// Why the run stopped.
    pub stop_reason: StopReason,
}

/// The model configuration advisor.
pub struct Advisor<'a> {
    dataset: &'a Dataset,
    split: CubeSplit,
    configuration: Configuration,
    store: IndicatorStore,
    control: ControlState,
    criterion: AcceptanceCriterion,
    rejected: HashSet<NodeId>,
    local_cache: HashMap<NodeId, LocalIndicator>,
    /// Models already built this run. Fitting is deterministic for a
    /// fixed split, so a candidate that is re-examined at a later α level
    /// reuses its earlier fit instead of paying the creation cost again —
    /// this keeps the advisor's total model-creation work bounded by the
    /// number of *distinct* candidates, the behaviour behind the paper's
    /// Fig. 8(c) ("the model configuration advisor only shows a slight
    /// increase in runtime").
    built_cache: HashMap<NodeId, ConfiguredModel>,
    multisource: MultiSourceSearch,
    history: Vec<IterationStats>,
    iteration: usize,
    initial_error: f64,
    indicator_options: IndicatorOptions,
    spec: ModelSpec,
    parallelism: usize,
    threads: usize,
    multisource_steps: usize,
    fit: FitOptions,
    stop: StopCriteria,
}

impl<'a> Advisor<'a> {
    /// Creates an advisor over `dataset`.
    pub fn new(dataset: &'a Dataset, options: AdvisorOptions) -> fdc_cube::Result<Self> {
        if dataset.node_count() == 0 {
            return Err(fdc_cube::CubeError::InvalidData("empty data set".into()));
        }
        let split = CubeSplit::new(dataset, options.train_frac);
        let spec = options.spec.clone().unwrap_or_else(|| {
            ModelSpec::default_for_history(
                dataset.series(0).granularity().seasonal_period(),
                split.train_len(),
            )
        });
        // §IV-B.1 ties the batch to the processor count; a fixed default
        // keeps the search the same on every machine.
        let parallelism = options.parallelism.unwrap_or(4);
        let indicator_size = options.indicator_size.unwrap_or_else(|| {
            indicator_size_for_budget(dataset.node_count(), options.memory_budget_bytes, 16)
        });
        let mut indicator_options = IndicatorOptions::new(indicator_size, split.train_len());
        indicator_options.lambda = options.lambda;

        let mut control = ControlState::new(
            options.initial_alpha,
            options.alpha_limit,
            options.adaptive_gamma,
        );
        control.init_gamma(parallelism, dataset.node_count());
        let criterion =
            AcceptanceCriterion::new(options.initial_alpha.min(1.0), dataset.node_count());

        let mut advisor = Advisor {
            dataset,
            split,
            configuration: Configuration::new(dataset.node_count()),
            store: IndicatorStore::new(dataset.node_count()),
            control,
            criterion,
            rejected: HashSet::new(),
            local_cache: HashMap::new(),
            built_cache: HashMap::new(),
            multisource: MultiSourceSearch::new(options.seed),
            history: Vec::new(),
            iteration: 0,
            initial_error: 1.0,
            indicator_options,
            spec,
            parallelism: parallelism.max(1),
            threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
            multisource_steps: options.multisource_steps,
            fit: options.fit.clone(),
            stop: options.stop.clone(),
        };

        if options.seed_top_model {
            advisor.seed_top();
        }
        advisor.initial_error = advisor.configuration.overall_error();
        advisor.criterion.set_error_scale(advisor.initial_error);
        Ok(advisor)
    }

    /// Installs the initial model at the top node (Fig. 4a) so every node
    /// is derivable by disaggregation from the start.
    fn seed_top(&mut self) {
        let top = self.dataset.graph().top_node();
        let Ok(model) = ConfiguredModel::fit(&self.split, top, &self.spec, &self.fit) else {
            return; // series too short for the spec — start empty
        };
        self.criterion.observe_creation(model.creation_work);
        self.configuration.insert_model(top, model);
        for t in 0..self.dataset.node_count() {
            self.configuration
                .adopt_if_better(self.dataset, &self.split, &[top], t);
        }
        let local = LocalIndicator::compute(self.dataset, top, &self.indicator_options);
        self.local_cache.insert(top, local.clone());
        self.store.insert(local);
    }

    /// The data split used for evaluation.
    pub fn split(&self) -> &CubeSplit {
        &self.split
    }

    /// The current configuration (valid at any time).
    pub fn configuration(&self) -> &Configuration {
        &self.configuration
    }

    /// The iteration history so far.
    pub fn history(&self) -> &[IterationStats] {
        &self.history
    }

    /// Runs one full iteration (all four phases) and returns its
    /// statistics.
    pub fn step(&mut self) -> IterationStats {
        let _step_span = fdc_obs::span!("advisor.step");
        self.iteration += 1;
        fdc_obs::counter(fdc_obs::names::ADVISOR_ITERATIONS).incr();
        let err_before = self.configuration.overall_error();
        self.criterion.alpha = self.control.effective_alpha();

        // ---- Candidate selection phase -----------------------------------
        let selection_start = Instant::now();
        let candidates = {
            let _span = fdc_obs::span!("select");
            select_candidates(
                self.dataset,
                &self.configuration,
                &self.store,
                &self.indicator_options,
                self.control.gamma,
                self.parallelism,
                &self.rejected,
                &mut self.local_cache,
            )
        };
        let selection_time = selection_start.elapsed();
        let selection_work = (candidates.entries_built
            * (self.split.train_len() + self.dataset.series_len()))
            as u64;
        fdc_obs::counter(fdc_obs::names::ADVISOR_CANDIDATES).add(candidates.positive.len() as u64);

        // ---- Evaluation phase --------------------------------------------
        let evaluation_start = Instant::now();
        let evaluation_span = fdc_obs::span!("evaluate");
        // Indicator-based pre-filter: skip building candidates whose
        // acceptance is hopeless even under an optimistic (2×) reading of
        // their indicator-predicted benefit. At low α this avoids paying
        // creation cost for marginal models; as α grows the bar drops and
        // the candidates return (they are not marked rejected).
        let err_now = self.configuration.overall_error();
        let cost_now = self.configuration.total_cost();
        let global_mean_now = self.store.global_mean();
        let picked: Vec<NodeId> = candidates
            .positive
            .iter()
            .enumerate()
            .filter(|(rank, c)| {
                // The best-ranked candidate is always examined so the
                // search cannot starve itself; cached builds are free.
                if *rank == 0 || self.built_cache.contains_key(&c.node) {
                    return true;
                }
                let predicted_gain = (global_mean_now - c.score).max(0.0);
                let optimistic_err = (err_now - 2.0 * predicted_gain).max(0.0);
                self.criterion.accepts(
                    err_now,
                    cost_now,
                    optimistic_err,
                    cost_now + self.criterion.avg_creation_work as u64,
                )
            })
            .map(|(_, c)| c.node)
            .collect();
        let misses: Vec<NodeId> = picked
            .iter()
            .copied()
            .filter(|v| !self.built_cache.contains_key(v))
            .collect();
        let models_built = misses.len();
        let mut evaluation_work = 0u64;
        for (node, model) in
            build_models_parallel(&self.split, &misses, &self.spec, &self.fit, self.threads)
        {
            match model {
                Some(m) => {
                    evaluation_work += m.creation_work;
                    self.criterion.observe_creation(m.creation_work);
                    self.built_cache.insert(node, m);
                }
                None => {
                    // Unfittable (series too short): never try again.
                    self.rejected.insert(node);
                }
            }
        }
        let mut accepted = 0usize;
        let mut rejected_now = 0usize;
        for &node in &picked {
            let Some(model) = self.built_cache.get(&node) else {
                continue; // unfittable: marked rejected above
            };
            let neighborhood = self.local_cache.get(&node).map_or(&[][..], |l| &l.targets);
            let effect = measure_model_effect(
                self.dataset,
                &self.split,
                &self.configuration,
                model,
                node,
                neighborhood,
            );
            evaluation_work += (effect.measured * self.split.horizon()) as u64;
            let err_old = self.configuration.overall_error();
            let cost_old = self.configuration.total_cost();
            let cost_new = cost_old + model.creation_work;
            if self
                .criterion
                .accepts(err_old, cost_old, effect.err_new, cost_new)
            {
                // The cache keeps its copy: a model deleted later returns
                // as a free candidate.
                commit_model(
                    self.dataset,
                    &self.split,
                    &mut self.configuration,
                    model.clone(),
                    &effect,
                );
                let local = self.local_cache.get(&node).cloned().unwrap_or_else(|| {
                    LocalIndicator::compute(self.dataset, node, &self.indicator_options)
                });
                self.store.insert(local);
                accepted += 1;
            } else {
                rejected_now += 1;
                if effect.err_new >= err_old {
                    // No error improvement either: never reconsider
                    // (§IV-B.2).
                    self.rejected.insert(node);
                }
            }
        }

        // Deletion: examine the top negative candidate (§IV-B.2).
        let mut deleted = 0usize;
        if let Some(victim) = candidates.negative.first() {
            if self.configuration.model_count() > 1 {
                deleted += self.try_delete(victim.node) as usize;
            }
        }
        drop(evaluation_span);
        let evaluation_time = evaluation_start.elapsed();
        fdc_obs::counter(fdc_obs::names::ADVISOR_MODELS_BUILT).add(models_built as u64);
        fdc_obs::counter(fdc_obs::names::ADVISOR_ACCEPTED).add(accepted as u64);
        fdc_obs::counter(fdc_obs::names::ADVISOR_REJECTED).add(rejected_now as u64);
        fdc_obs::counter(fdc_obs::names::ADVISOR_DELETED).add(deleted as u64);
        fdc_obs::histogram(fdc_obs::names::ADVISOR_SELECTION_NS).record_duration(selection_time);
        fdc_obs::histogram(fdc_obs::names::ADVISOR_EVALUATION_NS).record_duration(evaluation_time);

        // ---- Asynchronous multi-source optimization ------------------------
        {
            let _span = fdc_obs::span!("multisource");
            for _ in 0..self.multisource_steps {
                self.multisource
                    .step(self.dataset, &self.split, &mut self.configuration);
            }
        }

        // ---- Control phase --------------------------------------------------
        if models_built == 0 && !candidates.positive.is_empty() {
            // The evaluation phase built nothing (all candidates were
            // filtered or cached): widen the candidate pool instead of
            // letting the work rule squeeze it further.
            self.control.adapt_gamma(0, 1);
        } else {
            self.control.adapt_gamma(selection_work, evaluation_work);
        }
        let err_after = self.configuration.overall_error();
        self.control
            .record_iteration(rejected_now, (err_before - err_after).max(0.0));

        let stats = IterationStats {
            iteration: self.iteration,
            alpha: self.criterion.alpha,
            gamma: self.control.gamma,
            error: err_after,
            model_count: self.configuration.model_count(),
            cost: self.configuration.total_cost(),
            candidates: candidates.positive.len(),
            models_built,
            accepted,
            rejected: rejected_now,
            deleted,
            selection_time,
            evaluation_time,
            selection_work,
            evaluation_work,
        };
        self.history.push(stats.clone());
        stats
    }

    /// Evaluates deleting the model at `victim` under Eq. (8); commits the
    /// deletion when it improves the weighted objective. Returns whether
    /// the model was removed.
    fn try_delete(&mut self, victim: NodeId) -> bool {
        let err_old = self.configuration.overall_error();
        let cost_old = self.configuration.total_cost();
        let Some(model) = self.configuration.model(victim) else {
            return false;
        };
        let model_cost = model.creation_work;
        let Some(err_new) = self
            .configuration
            .deletion_error(self.dataset, &self.split, victim)
        else {
            return false;
        };
        let cost_new = cost_old.saturating_sub(model_cost);

        if self.criterion.accepts(err_old, cost_old, err_new, cost_new) {
            let deps = self.configuration.dependents_of(victim);
            self.configuration.remove_model(victim);
            self.configuration
                .recompute_nodes(self.dataset, &self.split, &deps);
            self.store.remove(victim);
            true
        } else {
            false
        }
    }

    /// Evaluates the stop criteria; `None` means keep going.
    fn stop_reason(&self) -> Option<StopReason> {
        let err = self.configuration.overall_error();
        if let Some(limit) = self.stop.absolute_error {
            if err <= limit {
                return Some(StopReason::ErrorReached);
            }
        }
        if let Some(frac) = self.stop.relative_error {
            if err <= frac * self.initial_error {
                return Some(StopReason::ErrorReached);
            }
        }
        if let Some(limit) = self.stop.absolute_cost {
            if self.configuration.total_cost() >= limit {
                return Some(StopReason::CostReached);
            }
        }
        if let Some(limit) = self.stop.max_models {
            if self.configuration.model_count() >= limit {
                return Some(StopReason::CostReached);
            }
        }
        if let Some(frac) = self.stop.relative_models {
            if self.configuration.model_count() as f64 >= frac * self.dataset.node_count() as f64 {
                return Some(StopReason::CostReached);
            }
        }
        if let Some(limit) = self.stop.max_iterations {
            if self.iteration >= limit {
                return Some(StopReason::IterationLimit);
            }
        }
        if self.control.schedule_exhausted() {
            return Some(StopReason::ScheduleExhausted);
        }
        None
    }

    /// Runs iterations until a stop criterion fires and returns the final
    /// outcome.
    pub fn run(&mut self) -> AdvisorOutcome {
        let _span = fdc_obs::span!("advisor.run");
        let started = Instant::now();
        let stop_reason = loop {
            if let Some(reason) = self.stop_reason() {
                break reason;
            }
            self.step();
        };
        let outcome = AdvisorOutcome {
            configuration: self.configuration.clone(),
            history: self.history.clone(),
            error: self.configuration.overall_error(),
            model_count: self.configuration.model_count(),
            total_cost: self.configuration.total_cost(),
            wall_time: started.elapsed(),
            stop_reason,
        };
        fdc_obs::gauge(fdc_obs::names::ADVISOR_MODEL_COUNT).set(outcome.model_count as i64);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_datagen::{generate_cube, tourism_proxy, GenSpec};

    fn quick_options() -> AdvisorOptions {
        AdvisorOptions {
            parallelism: Some(2),
            multisource_steps: 4,
            ..AdvisorOptions::default()
        }
    }

    #[test]
    fn advisor_improves_over_seed_configuration() {
        let ds = tourism_proxy(1);
        let mut advisor = Advisor::new(&ds, quick_options()).unwrap();
        let initial = advisor.configuration().overall_error();
        let outcome = advisor.run();
        assert!(outcome.error <= initial, "{} vs {initial}", outcome.error);
        assert!(outcome.model_count >= 1);
        assert_eq!(outcome.stop_reason, StopReason::ScheduleExhausted);
        assert!(!outcome.history.is_empty());
    }

    #[test]
    fn advisor_keeps_fewer_models_than_direct() {
        let ds = tourism_proxy(1);
        let outcome = Advisor::new(&ds, quick_options()).unwrap().run();
        assert!(
            outcome.model_count < ds.node_count(),
            "advisor kept {} of {} possible models",
            outcome.model_count,
            ds.node_count()
        );
    }

    #[test]
    fn every_node_is_served_after_run() {
        let ds = tourism_proxy(2);
        let outcome = Advisor::new(&ds, quick_options()).unwrap().run();
        for v in 0..ds.node_count() {
            let est = outcome.configuration.estimate(v);
            assert!(est.scheme.is_some(), "node {v} has no derivation scheme");
            assert!(est.error < 1.0);
        }
    }

    #[test]
    fn schemes_only_reference_model_nodes() {
        let ds = tourism_proxy(3);
        let outcome = Advisor::new(&ds, quick_options()).unwrap().run();
        for v in 0..ds.node_count() {
            if let Some(s) = &outcome.configuration.estimate(v).scheme {
                for src in &s.sources {
                    assert!(outcome.configuration.has_model(*src));
                }
            }
        }
    }

    #[test]
    fn stop_on_max_models() {
        let ds = tourism_proxy(1);
        let options = AdvisorOptions {
            stop: StopCriteria {
                max_models: Some(2),
                ..StopCriteria::default()
            },
            ..quick_options()
        };
        let outcome = Advisor::new(&ds, options).unwrap().run();
        // The seed model plus at most one accepted batch beyond the limit.
        assert!(outcome.stop_reason == StopReason::CostReached);
        assert!(outcome.model_count >= 2);
    }

    #[test]
    fn stop_on_absolute_cost() {
        let ds = tourism_proxy(1);
        let with_limit = |limit| AdvisorOptions {
            stop: StopCriteria {
                absolute_cost: Some(limit),
                ..StopCriteria::default()
            },
            ..quick_options()
        };
        // The seed model alone already costs more than one unit of work.
        let outcome = Advisor::new(&ds, with_limit(1)).unwrap().run();
        assert_eq!(outcome.stop_reason, StopReason::CostReached);
        assert!(outcome.history.is_empty(), "stopped before iterating");

        // One unit above the seed: the run stops at the first iteration
        // whose kept models cost at least that much.
        let seed_cost = outcome.total_cost;
        let outcome = Advisor::new(&ds, with_limit(seed_cost + 1)).unwrap().run();
        assert_eq!(outcome.stop_reason, StopReason::CostReached);
        assert!(outcome.total_cost > seed_cost);
        let (last, earlier) = outcome.history.split_last().unwrap();
        assert_eq!(last.cost, outcome.total_cost);
        assert!(earlier.iter().all(|it| it.cost <= seed_cost));
    }

    #[test]
    fn stop_on_iteration_limit() {
        let ds = tourism_proxy(1);
        let options = AdvisorOptions {
            stop: StopCriteria {
                max_iterations: Some(1),
                ..StopCriteria::default()
            },
            ..quick_options()
        };
        let outcome = Advisor::new(&ds, options).unwrap().run();
        assert_eq!(outcome.stop_reason, StopReason::IterationLimit);
        assert_eq!(outcome.history.len(), 1);
    }

    #[test]
    fn stop_on_error_threshold() {
        let ds = tourism_proxy(1);
        let options = AdvisorOptions {
            stop: StopCriteria {
                absolute_error: Some(1.0), // trivially satisfied at start
                ..StopCriteria::default()
            },
            ..quick_options()
        };
        let outcome = Advisor::new(&ds, options).unwrap().run();
        assert_eq!(outcome.stop_reason, StopReason::ErrorReached);
        assert!(outcome.history.is_empty(), "stopped before iterating");
    }

    #[test]
    fn alpha_limit_produces_cheaper_configuration() {
        let ds = tourism_proxy(4);
        let full = Advisor::new(&ds, quick_options()).unwrap().run();
        let half = Advisor::new(
            &ds,
            AdvisorOptions {
                alpha_limit: 0.4,
                ..quick_options()
            },
        )
        .unwrap()
        .run();
        assert!(
            half.model_count <= full.model_count,
            "α≤0.4 kept {} models, α≤1.0 kept {}",
            half.model_count,
            full.model_count
        );
    }

    #[test]
    fn history_alpha_is_nondecreasing() {
        let ds = tourism_proxy(1);
        let outcome = Advisor::new(&ds, quick_options()).unwrap().run();
        for w in outcome.history.windows(2) {
            assert!(w[0].alpha <= w[1].alpha + 1e-12);
        }
    }

    #[test]
    fn works_without_top_seed() {
        let ds = tourism_proxy(1);
        let options = AdvisorOptions {
            seed_top_model: false,
            ..quick_options()
        };
        let outcome = Advisor::new(&ds, options).unwrap().run();
        assert!(outcome.model_count >= 1);
        assert!(outcome.error < 1.0);
    }

    #[test]
    fn works_on_uncorrelated_synthetic_cube() {
        let cube = generate_cube(&GenSpec::new(24, 48, 7));
        let outcome = Advisor::new(&cube.dataset, quick_options()).unwrap().run();
        assert!(outcome.error < 0.5, "error {}", outcome.error);
        assert!(outcome.model_count < cube.dataset.node_count());
    }

    #[test]
    fn build_cache_prevents_refitting_candidates() {
        let ds = tourism_proxy(5);
        let mut advisor = Advisor::new(&ds, quick_options()).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut total_built = 0usize;
        for _ in 0..12 {
            let stats = advisor.step();
            total_built += stats.models_built;
            for (v, _) in advisor.configuration().models() {
                seen.insert(v);
            }
        }
        // Every build is a distinct node: total builds never exceed the
        // node count even across many iterations.
        assert!(
            total_built <= ds.node_count(),
            "built {total_built} models for {} nodes",
            ds.node_count()
        );
    }

    #[test]
    fn expensive_models_do_not_explode_runtime() {
        use fdc_forecast::FitOptions;
        let ds = fdc_datagen::sales_proxy(2);
        let cheap = AdvisorOptions {
            fit: FitOptions::default(),
            ..quick_options()
        };
        let costly = AdvisorOptions {
            fit: FitOptions {
                artificial_cost_us: 2_000,
                ..FitOptions::default()
            },
            ..quick_options()
        };
        let built_cheap: usize = Advisor::new(&ds, cheap)
            .unwrap()
            .run()
            .history
            .iter()
            .map(|s| s.models_built)
            .sum();
        let built_costly: usize = Advisor::new(&ds, costly)
            .unwrap()
            .run()
            .history
            .iter()
            .map(|s| s.models_built)
            .sum();
        // The pre-filter and cache keep the build count bounded by the
        // node count in both regimes.
        assert!(built_cheap <= ds.node_count());
        assert!(built_costly <= ds.node_count());
    }

    #[test]
    fn single_series_cube_is_handled() {
        use fdc_cube::{Coord, Dimension, Schema};
        use fdc_forecast::{Granularity, TimeSeries};
        let schema = Schema::flat(vec![Dimension::new("only", vec!["a".into()])]).unwrap();
        let values: Vec<f64> = (0..30).map(|t| 10.0 + t as f64).collect();
        let ds = fdc_cube::Dataset::from_base(
            schema,
            vec![(
                Coord::new(vec![0]),
                TimeSeries::new(values, Granularity::Monthly),
            )],
        )
        .unwrap();
        // Graph: the base node + the top; the advisor must terminate with
        // a sane configuration.
        let outcome = Advisor::new(&ds, quick_options()).unwrap().run();
        assert!(outcome.model_count >= 1);
        assert!(
            outcome.error < 0.2,
            "trend series is easy: {}",
            outcome.error
        );
    }

    #[test]
    fn all_zero_cube_is_handled() {
        use fdc_cube::{Coord, Dimension, Schema};
        use fdc_forecast::{Granularity, TimeSeries};
        let schema = Schema::flat(vec![Dimension::new("d", vec!["a".into(), "b".into()])]).unwrap();
        let ds = fdc_cube::Dataset::from_base(
            schema,
            vec![
                (
                    Coord::new(vec![0]),
                    TimeSeries::new(vec![0.0; 24], Granularity::Monthly),
                ),
                (
                    Coord::new(vec![1]),
                    TimeSeries::new(vec![0.0; 24], Granularity::Monthly),
                ),
            ],
        )
        .unwrap();
        // SMAPE of zero forecasts on zero data is zero: the seed model
        // already achieves perfect error and the advisor stops quickly.
        let outcome = Advisor::new(&ds, quick_options()).unwrap().run();
        assert!(outcome.error <= 1e-12, "error {}", outcome.error);
        assert!(outcome
            .configuration
            .forecast_node(ds.graph().top_node(), 3)
            .is_some());
    }

    #[test]
    fn gamma_follows_the_counted_work_of_each_iteration() {
        let ds = tourism_proxy(1);
        let outcome = Advisor::new(&ds, quick_options()).unwrap().run();
        let unit = (0.8 * ds.series_len() as f64).round() as u64 + ds.series_len() as u64;
        for w in outcome.history.windows(2) {
            let (before, it) = (w[0].gamma, &w[1]);
            assert_eq!(it.selection_work % unit, 0, "entries × (train + series)");
            if it.models_built > 0 {
                assert!(it.evaluation_work > 0, "fits are counted: {it:?}");
            }
            let raise = if it.models_built == 0 && it.candidates > 0 {
                false
            } else {
                it.selection_work > it.evaluation_work
            };
            if raise {
                assert!(it.gamma > before || it.gamma == 4.0, "{it:?}");
            } else {
                assert!(it.gamma < before || it.gamma == -2.0, "{it:?}");
            }
        }
    }

    #[test]
    fn default_top_n_is_four_on_every_machine() {
        let ds = fdc_datagen::sales_proxy(1);
        let mut advisor = Advisor::new(&ds, AdvisorOptions::default()).unwrap();
        assert_eq!(advisor.parallelism, 4);
        for _ in 0..3 {
            let stats = advisor.step();
            assert!(stats.candidates <= 4 && stats.models_built <= 4);
        }
    }

    #[test]
    fn step_returns_live_statistics() {
        let ds = tourism_proxy(1);
        let mut advisor = Advisor::new(&ds, quick_options()).unwrap();
        let s1 = advisor.step();
        assert_eq!(s1.iteration, 1);
        assert!(s1.error <= 1.0);
        let s2 = advisor.step();
        assert_eq!(s2.iteration, 2);
        assert_eq!(advisor.history().len(), 2);
    }
}
