//! # fdc-bench
//!
//! The benchmark harness regenerating every figure of the paper's
//! evaluation (§VI), plus framework-free micro-benchmarks and ablation
//! studies. See DESIGN.md for the experiment index and EXPERIMENTS.md for
//! recorded paper-vs-measured results.
//!
//! Figure regenerators (binaries):
//!
//! * `fig7_accuracy` — §VI-B accuracy analysis over Tourism / Sales /
//!   Energy / GenX,
//! * `fig8_parameters` — §VI-C indicator correlation, indicator size,
//!   γ and α analyses,
//! * `fig9_runtime` — §VI-D scalability sweep and forecast query runtime,
//! * `ablation` — quality ablations of the advisor's design choices.
//!
//! All binaries accept `--scale <n>` to size the synthetic sweeps (the
//! paper's largest runs were sized for a 12-core server and hours of wall
//! time; the defaults regenerate every figure's *shape* on a laptop in
//! minutes).

pub mod timing;
pub mod workload;

pub use timing::{bench, emit_metrics, obs_session, ObsSession};
pub use workload::QueryWorkload;

use fdc_core::{Advisor, AdvisorOptions, StopCriteria};
use fdc_cube::{CubeSplit, Dataset};
use fdc_forecast::FitOptions;
use fdc_hierarchical::{
    bottom_up, combine, direct, greedy, top_down, BaselineOptions, BaselineResult,
};
use std::time::{Duration, Instant};

/// One row of an accuracy/cost comparison table.
#[derive(Debug, Clone)]
pub struct ApproachRow {
    /// Method name.
    pub name: &'static str,
    /// Overall forecast error (mean node SMAPE).
    pub error: f64,
    /// Number of models kept.
    pub models: usize,
    /// Total model creation cost (counted work units).
    pub cost: u64,
    /// Wall-clock time of configuration construction.
    pub wall_time: Duration,
}

impl From<BaselineResult> for ApproachRow {
    fn from(r: BaselineResult) -> Self {
        ApproachRow {
            name: r.name,
            error: r.overall_error(),
            models: r.model_count,
            cost: r.total_cost,
            wall_time: r.wall_time,
        }
    }
}

/// Runs the advisor and adapts its outcome into an [`ApproachRow`].
pub fn run_advisor(dataset: &Dataset, options: AdvisorOptions) -> ApproachRow {
    let start = Instant::now();
    let outcome = Advisor::new(dataset, options)
        .expect("advisor construction succeeds on benchmark data")
        .run();
    ApproachRow {
        name: "advisor",
        error: outcome.error,
        models: outcome.model_count,
        cost: outcome.total_cost,
        wall_time: start.elapsed(),
    }
}

/// Default advisor options used across the figure harness.
pub fn advisor_options(alpha_limit: f64, fit: FitOptions) -> AdvisorOptions {
    AdvisorOptions {
        alpha_limit,
        fit,
        stop: StopCriteria::default(),
        ..AdvisorOptions::default()
    }
}

/// Which approaches to include in a comparison run.
#[derive(Debug, Clone, Copy)]
pub struct ApproachSelection {
    /// Include the Combine baseline (skipped on large cubes, as the paper
    /// skipped it for Gen10k: "> one day").
    pub combine: bool,
    /// Include the Greedy baseline (quadratic; skipped on the largest
    /// sweep sizes).
    pub greedy: bool,
}

/// Runs every selected approach on a data set with a shared split.
pub fn run_all(
    dataset: &Dataset,
    selection: ApproachSelection,
    fit: FitOptions,
    alpha_limit: f64,
) -> Vec<ApproachRow> {
    let split = CubeSplit::new(dataset, 0.8);
    let opts = BaselineOptions {
        spec: None,
        fit: fit.clone(),
    };
    let mut rows = vec![
        ApproachRow::from(direct(dataset, &split, &opts)),
        ApproachRow::from(bottom_up(dataset, &split, &opts)),
        ApproachRow::from(top_down(dataset, &split, &opts)),
    ];
    if selection.combine {
        rows.push(ApproachRow::from(combine(dataset, &split, &opts)));
    }
    if selection.greedy {
        rows.push(ApproachRow::from(greedy(dataset, &split, &opts)));
    }
    rows.push(run_advisor(dataset, advisor_options(alpha_limit, fit)));
    rows
}

/// Prints a comparison table in the layout of Fig. 7 (error bars + model
/// count bars).
pub fn print_table(title: &str, rows: &[ApproachRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<12} {:>10} {:>9} {:>12} {:>12}",
        "approach", "error", "#models", "cost [work]", "wall time"
    );
    for r in rows {
        println!(
            "{:<12} {:>10.4} {:>9} {:>12} {:>12.3?}",
            r.name, r.error, r.models, r.cost, r.wall_time
        );
    }
}

/// Parses `--scale <n>` / `--full` style flags shared by the figure
/// binaries. Returns `(scale, full, extra_args)`.
pub fn parse_scale_args() -> (usize, bool, Vec<String>) {
    let mut scale = 1usize;
    let mut full = false;
    let mut extra = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale needs an integer argument");
            }
            "--full" => full = true,
            other => extra.push(other.to_string()),
        }
    }
    (scale.max(1), full, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_datagen::tourism_proxy;

    #[test]
    fn run_all_produces_expected_approaches() {
        let ds = tourism_proxy(1);
        let rows = run_all(
            &ds,
            ApproachSelection {
                combine: true,
                greedy: true,
            },
            FitOptions::default(),
            1.0,
        );
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(
            names,
            vec![
                "direct",
                "bottom-up",
                "top-down",
                "combine",
                "greedy",
                "advisor"
            ]
        );
        for r in &rows {
            assert!(r.error.is_finite() && r.error >= 0.0);
        }
    }

    #[test]
    fn advisor_row_has_reasonable_shape() {
        let ds = tourism_proxy(2);
        let row = run_advisor(&ds, advisor_options(1.0, FitOptions::default()));
        assert_eq!(row.name, "advisor");
        assert!(row.models >= 1);
        assert!(row.models < ds.node_count());
    }
}
