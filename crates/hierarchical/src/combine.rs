//! The **optimal combination** approach of Hyndman et al. \[17\].
//!
//! Independently forecasts *all* series at all aggregation levels and
//! reconciles them with the OLS projection `ŷ̃ = S (SᵀS)⁻¹ Sᵀ ŷ`, where
//! `S` is the summing matrix mapping base series to every node. The
//! reconciled forecasts are coherent with the aggregation structure and
//! minimize the total adjustment in the least squares sense.
//!
//! The paper reports (§VI-B/D) that Combine achieves slightly better
//! error than the data-independent approaches but needs maximum model
//! costs and scales poorly ("requires the computation of a regression
//! matrix over all base forecasts"); the same structure emerges here.

use crate::{BaselineOptions, BaselineResult};
use fdc_cube::{ConfiguredModel, CubeSplit, Dataset};
use fdc_forecast::smape;
use fdc_linalg::{ols_projection, Matrix};
use std::time::Instant;

/// Runs the optimal-combination baseline. Returns `None` in
/// `configuration`: reconciliation mixes every node into every forecast
/// and is not representable as per-node derivation schemes.
pub fn combine(dataset: &Dataset, split: &CubeSplit, options: &BaselineOptions) -> BaselineResult {
    let start = Instant::now();
    let spec = options.resolve_spec(dataset);
    let g = dataset.graph();
    let n = dataset.node_count();
    let base = g.base_nodes();
    let horizon = split.horizon();

    // Independent forecasts at every node (zeros where fitting fails).
    let mut forecasts = vec![vec![0.0; horizon]; n];
    let mut model_count = 0usize;
    let mut total_cost = 0u64;
    for (v, slot) in forecasts.iter_mut().enumerate() {
        if let Ok(m) = ConfiguredModel::fit(split, v, &spec, &options.fit) {
            *slot = m.test_forecast.clone();
            total_cost += m.creation_work;
            model_count += 1;
        }
    }

    // Summing matrix S: rows = nodes, cols = base series.
    let mut s = Matrix::zeros(n, base.len());
    for v in 0..n {
        let pat = g.coord(v);
        for (j, &b) in base.iter().enumerate() {
            if pat.matches_base(g.coord(b)) {
                s[(v, j)] = 1.0;
            }
        }
    }

    // Reconcile each horizon step: ŷ̃ = P ŷ with P = S (SᵀS)⁻¹ Sᵀ.
    let node_errors = match ols_projection(&s) {
        Ok(p) => {
            let mut reconciled = vec![vec![0.0; horizon]; n];
            let mut y = vec![0.0; n];
            for h in 0..horizon {
                for (v, fy) in y.iter_mut().enumerate() {
                    *fy = forecasts[v][h];
                }
                let yt = p.matvec(&y).expect("projection dims match");
                for (v, val) in yt.into_iter().enumerate() {
                    reconciled[v][h] = val;
                }
            }
            (0..n)
                .map(|v| smape(split.test(v), &reconciled[v]))
                .collect()
        }
        Err(_) => {
            // Singular Gram matrix (duplicate base columns) cannot occur for
            // distinct base coords, but degrade gracefully to the unreconciled
            // forecasts if it ever does.
            (0..n)
                .map(|v| smape(split.test(v), &forecasts[v]))
                .collect()
        }
    };

    BaselineResult {
        name: "combine",
        configuration: None,
        node_errors,
        model_count,
        total_cost,
        wall_time: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_datagen::tourism_proxy;

    #[test]
    fn combine_uses_all_models() {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let r = combine(&ds, &split, &BaselineOptions::default());
        assert_eq!(r.model_count, ds.node_count());
        assert_eq!(r.node_errors.len(), ds.node_count());
        assert!(r.configuration.is_none());
    }

    #[test]
    fn combine_error_is_competitive_with_direct() {
        let ds = tourism_proxy(1);
        let split = CubeSplit::new(&ds, 0.8);
        let comb = combine(&ds, &split, &BaselineOptions::default());
        let dir = crate::direct(&ds, &split, &BaselineOptions::default());
        // Reconciliation should not catastrophically hurt the direct
        // forecasts; allow a modest tolerance.
        assert!(
            comb.overall_error() < dir.overall_error() + 0.05,
            "combine {} vs direct {}",
            comb.overall_error(),
            dir.overall_error()
        );
    }
}
