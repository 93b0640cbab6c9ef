//! # fdc-hierarchical
//!
//! The hierarchical-forecasting baselines the paper compares against
//! (§VI-B):
//!
//! * [`direct`](mod@crate::direct) — one model per node, forecasts taken directly;
//! * [`bottom_up`](mod@crate::bottom_up) — models only for base series, aggregates forecast by
//!   summing base forecasts (the most common method in the literature
//!   \[10\], \[24\]);
//! * [`top_down`](mod@crate::top_down) — a single model at the top node, forecasts distributed
//!   down by historical proportions (Gross & Sohl's best-performing
//!   variant: proportions of the historical averages \[16\]);
//! * [`combine`](mod@crate::combine) — Hyndman et al.'s optimal combination \[17\]: independent
//!   forecasts at *all* nodes reconciled by the OLS projection
//!   `ŷ̃ = S (SᵀS)⁻¹ Sᵀ ŷ`;
//! * [`greedy`](mod@crate::greedy) — the empirical greedy selection of \[19\]: prefit all
//!   models, repeatedly add the model with the highest accuracy benefit
//!   under the traditional schemes (direct / aggregation /
//!   disaggregation), stop when no model improves the configuration.
//!
//! All baselines produce a [`BaselineResult`] with per-node errors, model
//! counts and timing, directly comparable with the advisor's output.

//! ## Example
//!
//! ```
//! use fdc_cube::CubeSplit;
//! use fdc_datagen::tourism_proxy;
//! use fdc_hierarchical::{top_down, BaselineOptions};
//!
//! let ds = tourism_proxy(1);
//! let split = CubeSplit::new(&ds, 0.8);
//! let result = top_down(&ds, &split, &BaselineOptions::default());
//! assert_eq!(result.model_count, 1); // one model at the top node
//! assert!(result.overall_error() < 1.0);
//! ```

pub mod bottom_up;
pub mod combine;
pub mod direct;
pub mod greedy;
pub mod top_down;

pub use bottom_up::bottom_up;
pub use combine::combine;
pub use direct::direct;
pub use greedy::greedy;
pub use top_down::top_down;

use fdc_cube::{Configuration, CubeSplit, Dataset};
use fdc_forecast::{FitOptions, ModelSpec};
use std::time::Duration;

/// Options shared by all baselines.
#[derive(Debug, Clone, Default)]
pub struct BaselineOptions {
    /// Model specification; `None` selects the default for the series'
    /// seasonal period (triple exponential smoothing where seasonal).
    pub spec: Option<ModelSpec>,
    /// Fitting options (optimizer, iteration budget, artificial cost).
    pub fit: FitOptions,
}

impl BaselineOptions {
    /// Resolves the model spec for a data set, degrading to simpler
    /// specs when the training history (≈ 80% of the data) is too short
    /// for the seasonal default.
    pub fn resolve_spec(&self, dataset: &Dataset) -> ModelSpec {
        self.spec.clone().unwrap_or_else(|| {
            ModelSpec::default_for_history(
                dataset.series(0).granularity().seasonal_period(),
                dataset.series_len() * 4 / 5,
            )
        })
    }
}

/// Outcome of running a baseline (or the advisor, adapted in `fdc-bench`).
#[derive(Debug)]
pub struct BaselineResult {
    /// Short method name for reports.
    pub name: &'static str,
    /// The resulting configuration, when the method produces one
    /// (`None` for Combine, whose reconciliation is not expressible as
    /// per-node derivation schemes).
    pub configuration: Option<Configuration>,
    /// Per-node forecast error on the test window.
    pub node_errors: Vec<f64>,
    /// Number of models created *and kept*.
    pub model_count: usize,
    /// Total counted creation work of the kept models (cost measure
    /// §II-D).
    pub total_cost: u64,
    /// Wall-clock time of the whole configuration search.
    pub wall_time: Duration,
}

impl BaselineResult {
    /// Overall error: mean of the node errors.
    pub fn overall_error(&self) -> f64 {
        if self.node_errors.is_empty() {
            0.0
        } else {
            self.node_errors.iter().sum::<f64>() / self.node_errors.len() as f64
        }
    }
}

/// Extracts per-node errors from a configuration.
pub(crate) fn errors_of(cfg: &Configuration) -> Vec<f64> {
    (0..cfg.node_count())
        .map(|v| cfg.estimate(v).error)
        .collect()
}

/// Recomputes every node's estimate considering only the *traditional*
/// derivation schemes (direct, full-hyperedge aggregation,
/// disaggregation from an ancestor) — the scheme set the Greedy baseline
/// is restricted to \[19\].
pub(crate) fn adopt_traditional(cfg: &mut Configuration, dataset: &Dataset, split: &CubeSplit) {
    let g = dataset.graph();
    let model_nodes = cfg.model_nodes();
    for t in 0..g.node_count() {
        // Direct.
        if cfg.has_model(t) {
            cfg.adopt_if_better(dataset, split, &[t], t);
        }
        // Aggregation over a fully covered hyperedge.
        let edges: Vec<Vec<usize>> = g.edges(t).iter().map(|e| e.children.clone()).collect();
        for children in edges {
            if children.iter().all(|&c| cfg.has_model(c)) {
                cfg.adopt_if_better(dataset, split, &children, t);
            }
        }
        // Disaggregation from any ancestor carrying a model.
        for &s in &model_nodes {
            if s != t && is_ancestor(dataset, s, t) {
                cfg.adopt_if_better(dataset, split, &[s], t);
            }
        }
    }
}

/// Whether `a`'s region strictly contains `d`'s (ancestor test on
/// canonical coordinates: stars in `a` where `d` is concrete, equal
/// elsewhere).
pub(crate) fn is_ancestor(dataset: &Dataset, a: usize, d: usize) -> bool {
    let g = dataset.graph();
    if a == d {
        return false;
    }
    g.coord(a)
        .values()
        .iter()
        .zip(g.coord(d).values())
        .all(|(&x, &y)| x == fdc_cube::STAR || x == y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_cube::{Coord, STAR};
    use fdc_datagen::tourism_proxy;

    #[test]
    fn ancestor_test_matches_graph_structure() {
        let ds = tourism_proxy(1);
        let g = ds.graph();
        let top = g.top_node();
        let base = g.base_nodes()[0];
        assert!(is_ancestor(&ds, top, base));
        assert!(!is_ancestor(&ds, base, top));
        assert!(!is_ancestor(&ds, base, base));
        // A purpose aggregate is an ancestor of its base series only.
        let purpose0 = g.node(&Coord::new(vec![0, STAR])).unwrap();
        assert!(is_ancestor(&ds, purpose0, base)); // base has purpose 0
        let other_base = g
            .base_nodes()
            .iter()
            .copied()
            .find(|&b| g.coord(b).values()[0] != 0)
            .unwrap();
        assert!(!is_ancestor(&ds, purpose0, other_base));
    }

    #[test]
    fn baseline_result_overall_error() {
        let r = BaselineResult {
            name: "x",
            configuration: None,
            node_errors: vec![0.2, 0.4],
            model_count: 1,
            total_cost: 0,
            wall_time: Duration::ZERO,
        };
        assert!((r.overall_error() - 0.3).abs() < 1e-12);
    }
}
