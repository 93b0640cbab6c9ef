//! The naive **direct** approach: one model per node.
//!
//! "The naive direct approach creates a model for each node in the time
//! series graph and uses the model to directly calculate the forecasts of
//! the corresponding node" (§VI-B). Highest possible model cost, but each
//! node is served by a model fitted on exactly its own series.

use crate::{errors_of, BaselineOptions, BaselineResult};
use fdc_cube::{Configuration, ConfiguredModel, CubeSplit, Dataset};
use std::time::Instant;

/// Runs the direct baseline.
pub fn direct(dataset: &Dataset, split: &CubeSplit, options: &BaselineOptions) -> BaselineResult {
    let start = Instant::now();
    let spec = options.resolve_spec(dataset);
    let mut cfg = Configuration::new(dataset.node_count());
    for v in 0..dataset.node_count() {
        match ConfiguredModel::fit(split, v, &spec, &options.fit) {
            Ok(model) => {
                cfg.insert_model(v, model);
                cfg.adopt_if_better(dataset, split, &[v], v);
            }
            Err(_) => {
                // Series too short for the spec: the node keeps its default
                // (maximal) error, mirroring a model that cannot be built.
            }
        }
    }
    BaselineResult {
        name: "direct",
        node_errors: errors_of(&cfg),
        model_count: cfg.model_count(),
        total_cost: cfg.total_cost(),
        wall_time: start.elapsed(),
        configuration: Some(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_datagen::tourism_proxy;

    #[test]
    fn direct_builds_model_for_every_node() {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let r = direct(&ds, &split, &BaselineOptions::default());
        assert_eq!(r.model_count, ds.node_count());
        assert!(r.overall_error() < 0.3, "error {}", r.overall_error());
        let cfg = r.configuration.as_ref().unwrap();
        // Every node is served by its own (direct) scheme.
        for v in 0..ds.node_count() {
            let scheme = cfg.estimate(v).scheme.as_ref().unwrap();
            assert_eq!(scheme.sources, vec![v]);
        }
    }

    #[test]
    fn direct_cost_exceeds_zero_and_scales_with_nodes() {
        let ds = tourism_proxy(2);
        let split = CubeSplit::new(&ds, 0.8);
        let r = direct(&ds, &split, &BaselineOptions::default());
        assert!(r.total_cost > 0);
        assert_eq!(r.node_errors.len(), ds.node_count());
    }
}
