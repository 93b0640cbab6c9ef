//! Asynchronous multi-source scheme search (§IV-C.2).
//!
//! The indicators only consider derivation schemes with a *single*
//! source. Schemes with several sources can further improve accuracy, so
//! an additional component "iteratively selects a target node and a
//! random number of source nodes from the time series graph, where the
//! possibility of selecting a source node decreases with increasing
//! distance from the target node", evaluates the scheme and applies it if
//! the configuration improves. [`MultiSourceSearch::step`] runs one
//! propose/evaluate/adopt round inside the advisor loop, so the search is
//! deterministic.

use fdc_cube::{Configuration, CubeSplit, Dataset, NodeId};
use fdc_rng::Rng;

/// A proposed derivation scheme: derive `target` from `sources`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proposal {
    /// The node whose forecast would be derived.
    pub target: NodeId,
    /// The proposed source nodes (all carry models at proposal time).
    pub sources: Vec<NodeId>,
}

/// Distance-decaying sampling weight: `1 / (1 + d)²`.
fn source_weight(distance: usize) -> f64 {
    let d = distance as f64;
    1.0 / ((1.0 + d) * (1.0 + d))
}

/// Samples one proposal: a uniform random target plus 1..=`max_sources`
/// model nodes drawn without replacement, weighted by proximity to the
/// target. Returns `None` when no model node exists.
fn sample_proposal(
    rng: &mut Rng,
    node_count: usize,
    distance: impl Fn(NodeId, NodeId) -> usize,
    model_nodes: &[NodeId],
    max_sources: usize,
) -> Option<Proposal> {
    if model_nodes.is_empty() || node_count == 0 {
        return None;
    }
    let target = rng.usize_below(node_count);
    let m = (1 + rng.usize_below(max_sources.max(1))).min(model_nodes.len());
    // Weighted sampling without replacement (sequential roulette).
    let mut pool: Vec<NodeId> = model_nodes.to_vec();
    let mut weights: Vec<f64> = pool
        .iter()
        .map(|&s| source_weight(distance(target, s)))
        .collect();
    let mut sources = Vec::with_capacity(m);
    for _ in 0..m {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            break;
        }
        let mut pick = rng.f64_range(0.0, total);
        let mut idx = 0;
        for (i, &w) in weights.iter().enumerate() {
            if pick < w {
                idx = i;
                break;
            }
            pick -= w;
            idx = i;
        }
        sources.push(pool.swap_remove(idx));
        weights.swap_remove(idx);
    }
    if sources.is_empty() {
        return None;
    }
    sources.sort_unstable();
    Some(Proposal { target, sources })
}

/// Synchronous multi-source searcher owned by the advisor.
#[derive(Debug)]
pub struct MultiSourceSearch {
    rng: Rng,
    /// Maximum number of sources per proposal.
    pub max_sources: usize,
}

impl MultiSourceSearch {
    /// Creates a searcher with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        MultiSourceSearch {
            rng: Rng::seed_from_u64(seed),
            max_sources: 3,
        }
    }

    /// One propose/evaluate/adopt round. Returns `true` when a proposal
    /// improved the configuration.
    pub fn step(
        &mut self,
        dataset: &Dataset,
        split: &CubeSplit,
        configuration: &mut Configuration,
    ) -> bool {
        let model_nodes = configuration.model_nodes();
        let g = dataset.graph();
        let Some(p) = sample_proposal(
            &mut self.rng,
            dataset.node_count(),
            |a, b| g.distance(a, b),
            &model_nodes,
            self.max_sources,
        ) else {
            return false;
        };
        configuration.adopt_if_better(dataset, split, &p.sources, p.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_cube::ConfiguredModel;
    use fdc_datagen::tourism_proxy;
    use fdc_forecast::{FitOptions, ModelSpec};

    fn with_models(ds: &Dataset, split: &CubeSplit, nodes: &[NodeId]) -> Configuration {
        let mut cfg = Configuration::new(ds.node_count());
        for &v in nodes {
            let m = ConfiguredModel::fit(
                split,
                v,
                &ModelSpec::default_for_period(4),
                &FitOptions::default(),
            )
            .unwrap();
            cfg.insert_model(v, m);
        }
        cfg
    }

    #[test]
    fn sampling_respects_source_pool_and_count() {
        let mut rng = Rng::seed_from_u64(1);
        let models = vec![2usize, 5, 7];
        for _ in 0..50 {
            let p = sample_proposal(&mut rng, 20, |_, _| 1, &models, 3).unwrap();
            assert!(!p.sources.is_empty() && p.sources.len() <= 3);
            assert!(p.sources.iter().all(|s| models.contains(s)));
            // No duplicates.
            let mut sorted = p.sources.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), p.sources.len());
            assert!(p.target < 20);
        }
    }

    #[test]
    fn sampling_prefers_close_sources() {
        // Node 0 is distance 0 from target; node 1 is distance 5. With
        // many samples, node 0 must be drawn far more often in size-1
        // proposals.
        let mut rng = Rng::seed_from_u64(2);
        let models = vec![0usize, 1];
        let mut near = 0;
        let mut far = 0;
        for _ in 0..400 {
            let p = sample_proposal(
                &mut rng,
                1, // force target 0
                |_, s| if s == 0 { 0 } else { 5 },
                &models,
                1,
            )
            .unwrap();
            match p.sources[0] {
                0 => near += 1,
                _ => far += 1,
            }
        }
        assert!(near > far * 5, "near {near}, far {far}");
    }

    #[test]
    fn empty_model_set_yields_no_proposal() {
        let mut rng = Rng::seed_from_u64(3);
        assert!(sample_proposal(&mut rng, 10, |_, _| 0, &[], 3).is_none());
    }

    #[test]
    fn step_can_improve_configuration() {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        // Give models to two base nodes; many nodes start unserved, so
        // *some* proposal must eventually stick.
        let nodes: Vec<NodeId> = ds.graph().base_nodes()[..2].to_vec();
        let mut cfg = with_models(&ds, &split, &nodes);
        let before = cfg.overall_error();
        let mut search = MultiSourceSearch::new(7);
        let mut improved = false;
        for _ in 0..200 {
            improved |= search.step(&ds, &split, &mut cfg);
        }
        assert!(improved);
        assert!(cfg.overall_error() < before);
    }
}
