//! Quickstart: generate a small cube, run the model configuration
//! advisor, inspect the configuration, and answer a forecast query
//! through the embedded F²DB engine.
//!
//! Run with: `cargo run --release --example quickstart`

use fdc::advisor::{Advisor, AdvisorOptions};
use fdc::datagen::{generate_cube, GenSpec};
use fdc::f2db::F2db;

fn main() {
    // 1. A synthetic data cube: 32 base time series, 48 quarterly
    //    observations, hierarchy levels per the paper's GenX rule.
    let cube = generate_cube(&GenSpec::new(32, 48, 7));
    let dataset = cube.dataset;
    println!(
        "cube: {} base series, {} graph nodes, {} levels",
        dataset.graph().base_nodes().len(),
        dataset.node_count(),
        dataset.graph().max_level() + 1
    );

    // 2. Run the advisor. No parameterization needed — indicator size,
    //    candidate threshold and acceptance weight regulate themselves.
    let mut advisor = Advisor::new(&dataset, AdvisorOptions::default()).expect("dataset is valid");
    let outcome = advisor.run();
    println!(
        "advisor: error {:.4}, {} models (of {} possible), cost {} work units, {} iterations, stopped: {:?}",
        outcome.error,
        outcome.model_count,
        dataset.node_count(),
        outcome.total_cost,
        outcome.history.len(),
        outcome.stop_reason,
    );

    // 3. Inspect a few derivation schemes the advisor chose.
    for v in [dataset.graph().top_node(), dataset.graph().base_nodes()[0]] {
        let est = outcome.configuration.estimate(v);
        println!(
            "node {:<18} error {:.4}  scheme {:?}",
            dataset.graph().coord(v).display(dataset.graph().schema()),
            est.error,
            est.scheme.as_ref().map(|s| (&s.sources, s.weight)),
        );
    }

    // 4. Load the configuration into F²DB and process a forecast query.
    let db = F2db::load(dataset, &outcome.configuration).expect("configuration loads");
    let result = db
        .query("SELECT time, SUM(value) FROM facts GROUP BY time AS OF now() + '4 quarters'")
        .expect("query succeeds");
    for row in &result.rows {
        println!("forecast of {}:", row.label);
        for (t, v) in &row.values {
            println!("  t={t}  {v:.2}");
        }
    }
}
