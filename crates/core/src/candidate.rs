//! Candidate selection phase (§IV-A): preselection and ranking.
//!
//! **Preselection** (Eq. 5/6) splits nodes by the global indicator:
//! positive candidates `V_A` are nodes whose indicator exceeds
//! `E(I) + γ·σ(I)` (probably high error, might benefit from a model);
//! negative candidates `V_R` are nodes with an indicator of zero (they
//! carry a model whose removal might pay off).
//!
//! **Ranking** examines positive candidates more closely: a local
//! indicator is created for each (cached across iterations), a temporary
//! global indicator including it is computed, and candidates are ordered
//! by decreasing benefit — the drop in the mean global indicator.
//! Negative candidates are ranked by the *increase* the removal of their
//! local indicator would cause, ascending (lowest benefit first).

use crate::indicator::{IndicatorOptions, IndicatorStore, LocalIndicator};
use fdc_cube::{Configuration, Dataset, NodeId};
use std::collections::{HashMap, HashSet};

/// A ranked positive candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedCandidate {
    /// The candidate node.
    pub node: NodeId,
    /// Hypothetical mean of the global indicator if this node's local
    /// indicator were installed (lower = better).
    pub score: f64,
}

/// Outcome of the candidate selection phase.
#[derive(Debug, Clone, Default)]
pub struct CandidateSet {
    /// Positive candidates, best first.
    pub positive: Vec<RankedCandidate>,
    /// Negative candidates (deletion), lowest benefit first.
    pub negative: Vec<RankedCandidate>,
    /// Local indicator entries built by this selection (cache misses
    /// only) — the phase's counted work.
    pub entries_built: usize,
}

/// Runs preselection + ranking.
///
/// `rejected` holds nodes marked after a failed acceptance that also did
/// not improve the error — they are never selected again (§IV-B.2).
/// Local indicators created during ranking are cached in `local_cache` so
/// repeated examinations of the same node are free; the missing ones are
/// built on `available_parallelism` workers.
#[allow(clippy::too_many_arguments)]
pub fn select_candidates(
    dataset: &Dataset,
    configuration: &Configuration,
    store: &IndicatorStore,
    indicator_options: &IndicatorOptions,
    gamma: f64,
    max_positive: usize,
    rejected: &HashSet<NodeId>,
    local_cache: &mut HashMap<NodeId, LocalIndicator>,
) -> CandidateSet {
    let global = store.global();
    let mean = store.global_mean();
    let std = store.global_std();
    let threshold = mean + gamma * std;

    // Preselection, Eq. 5: high-indicator nodes without a model. The
    // comparison is inclusive so a degenerate all-equal global indicator
    // (e.g. an empty configuration, σ = 0) still yields candidates.
    let mut positive_pre: Vec<NodeId> = (0..dataset.node_count())
        .filter(|&v| {
            global[v] >= threshold
                && global[v] > 0.0
                && !configuration.has_model(v)
                && !rejected.contains(&v)
        })
        .collect();
    // Deterministic processing order: worst indicator first.
    positive_pre.sort_by(|&a, &b| global[b].total_cmp(&global[a]).then(a.cmp(&b)));
    // Ranking is the expensive step (one local indicator per candidate);
    // bound the examined set generously relative to what evaluation can
    // absorb.
    positive_pre.truncate(max_positive.max(1) * 4);

    // Ranking: benefit = drop of the global mean with the candidate's
    // local indicator installed.
    let misses: Vec<NodeId> = positive_pre
        .iter()
        .copied()
        .filter(|v| !local_cache.contains_key(v))
        .collect();
    fdc_obs::counter(fdc_obs::names::ADVISOR_INDICATOR_CACHE_HIT)
        .add((positive_pre.len() - misses.len()) as u64);
    fdc_obs::counter(fdc_obs::names::ADVISOR_INDICATOR_CACHE_MISS).add(misses.len() as u64);
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let built = LocalIndicator::compute_many(dataset, &misses, indicator_options, threads);
    let entries_built = built.iter().map(|l| l.targets.len()).sum();
    local_cache.extend(misses.into_iter().zip(built));
    let mut positive: Vec<RankedCandidate> = positive_pre
        .into_iter()
        .map(|v| RankedCandidate {
            node: v,
            score: store.mean_with(&local_cache[&v]),
        })
        .collect();
    positive.sort_by(|a, b| a.score.total_cmp(&b.score).then(a.node.cmp(&b.node)));
    positive.truncate(max_positive.max(1));

    // Preselection, Eq. 6: zero-indicator nodes (model holders).
    let holders: Vec<NodeId> = (0..dataset.node_count())
        .filter(|&v| global[v] <= f64::EPSILON && configuration.has_model(v))
        .collect();
    let mut negative: Vec<RankedCandidate> = holders
        .iter()
        .zip(store.means_without(&holders))
        .map(|(&node, score)| RankedCandidate { node, score })
        .collect();
    // Ascending: the smallest increase (lowest benefit of keeping) first.
    negative.sort_by(|a, b| a.score.total_cmp(&b.score).then(a.node.cmp(&b.node)));

    CandidateSet {
        positive,
        negative,
        entries_built,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_cube::{ConfiguredModel, CubeSplit};
    use fdc_datagen::tourism_proxy;
    use fdc_forecast::{FitOptions, ModelSpec};

    struct Fixture {
        ds: Dataset,
        split: CubeSplit,
        cfg: Configuration,
        store: IndicatorStore,
        opts: IndicatorOptions,
    }

    fn fixture() -> Fixture {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let mut cfg = Configuration::new(ds.node_count());
        let opts = IndicatorOptions::new(ds.node_count(), split.train_len());
        let mut store = IndicatorStore::new(ds.node_count());
        let top = ds.graph().top_node();
        let model = ConfiguredModel::fit(
            &split,
            top,
            &ModelSpec::default_for_period(4),
            &FitOptions::default(),
        )
        .unwrap();
        cfg.insert_model(top, model);
        cfg.adopt_if_better(&ds, &split, &[top], top);
        store.insert(LocalIndicator::compute(&ds, top, &opts));
        Fixture {
            ds,
            split,
            cfg,
            store,
            opts,
        }
    }

    #[test]
    fn positive_candidates_lack_models_and_exceed_threshold() {
        let f = fixture();
        let mut cache = HashMap::new();
        let set = select_candidates(
            &f.ds,
            &f.cfg,
            &f.store,
            &f.opts,
            0.0,
            4,
            &HashSet::new(),
            &mut cache,
        );
        assert!(!set.positive.is_empty());
        assert!(set.positive.len() <= 4);
        let threshold = f.store.global_mean();
        for c in &set.positive {
            assert!(!f.cfg.has_model(c.node));
            assert!(f.store.global()[c.node] > threshold);
        }
        let _ = &f.split;
    }

    #[test]
    fn ranking_orders_by_benefit() {
        let f = fixture();
        let mut cache = HashMap::new();
        let set = select_candidates(
            &f.ds,
            &f.cfg,
            &f.store,
            &f.opts,
            0.0,
            8,
            &HashSet::new(),
            &mut cache,
        );
        for w in set.positive.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
    }

    #[test]
    fn negative_candidates_are_model_holders_with_zero_indicator() {
        let f = fixture();
        let mut cache = HashMap::new();
        let set = select_candidates(
            &f.ds,
            &f.cfg,
            &f.store,
            &f.opts,
            0.0,
            4,
            &HashSet::new(),
            &mut cache,
        );
        let top = f.ds.graph().top_node();
        assert_eq!(set.negative.len(), 1);
        assert_eq!(set.negative[0].node, top);
    }

    #[test]
    fn rejected_nodes_are_excluded() {
        let f = fixture();
        let mut cache = HashMap::new();
        let all = select_candidates(
            &f.ds,
            &f.cfg,
            &f.store,
            &f.opts,
            0.0,
            50,
            &HashSet::new(),
            &mut cache,
        );
        let mut rejected = HashSet::new();
        for c in &all.positive {
            rejected.insert(c.node);
        }
        let none = select_candidates(
            &f.ds, &f.cfg, &f.store, &f.opts, 0.0, 50, &rejected, &mut cache,
        );
        assert!(none.positive.is_empty());
    }

    #[test]
    fn higher_gamma_selects_fewer_candidates() {
        let f = fixture();
        let mut cache = HashMap::new();
        let loose = select_candidates(
            &f.ds,
            &f.cfg,
            &f.store,
            &f.opts,
            -1.0,
            1_000,
            &HashSet::new(),
            &mut cache,
        );
        let tight = select_candidates(
            &f.ds,
            &f.cfg,
            &f.store,
            &f.opts,
            3.0,
            1_000,
            &HashSet::new(),
            &mut cache,
        );
        assert!(tight.positive.len() <= loose.positive.len());
    }

    #[test]
    fn cache_is_reused_across_calls() {
        let f = fixture();
        let mut cache = HashMap::new();
        let first = select_candidates(
            &f.ds,
            &f.cfg,
            &f.store,
            &f.opts,
            0.0,
            4,
            &HashSet::new(),
            &mut cache,
        );
        let cached = cache.len();
        assert!(cached >= first.positive.len());
        // Second call must not grow the cache for the same candidates.
        let _ = select_candidates(
            &f.ds,
            &f.cfg,
            &f.store,
            &f.opts,
            0.0,
            4,
            &HashSet::new(),
            &mut cache,
        );
        assert_eq!(cache.len(), cached);
    }
}
