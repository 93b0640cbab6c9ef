//! Smart-grid scenario: hourly energy demand of 86 customers organized
//! into districts. Demonstrates the *maintenance processor*: streaming
//! inserts are batched per time stamp, model states update incrementally,
//! and parameter re-estimation is deferred until an invalidated model is
//! referenced by a query (§V of the paper).
//!
//! Run with: `cargo run --release --example smart_grid`

use fdc::advisor::{Advisor, AdvisorOptions};
use fdc::datagen::energy_proxy;
use fdc::f2db::{F2db, MaintenancePolicy};
use fdc_rng::Rng;

fn main() {
    // Two weeks of hourly demand for 86 customers in 8 districts.
    let dataset = energy_proxy(11, 336);
    println!(
        "energy cube: {} customers, {} nodes, {} hourly observations",
        dataset.graph().base_nodes().len(),
        dataset.node_count(),
        dataset.series_len()
    );

    let outcome = Advisor::new(&dataset, AdvisorOptions::default())
        .expect("valid dataset")
        .run();
    println!(
        "configuration: error {:.4}, {} models, cost {} work units\n",
        outcome.error, outcome.model_count, outcome.total_cost
    );

    // Deploy with a threshold-based invalidation strategy: models whose
    // rolling one-step error exceeds 20% are marked stale and re-estimated
    // lazily on the next query that needs them.
    let db = F2db::load(dataset, &outcome.configuration)
        .expect("loads")
        .with_policy(MaintenancePolicy::ThresholdBased {
            smape_threshold: 0.2,
        });

    // Stream 24 hours of smart-meter readings, interleaved with grid
    // operator queries.
    let mut rng = Rng::seed_from_u64(99);
    let base = db.dataset().graph().base_nodes().to_vec();
    for hour in 0..24 {
        // All meters report their reading for this hour (the maintenance
        // processor batches them and advances the graph at once).
        for &meter in &base {
            let last = *db.dataset().series(meter).values().last().unwrap();
            let reading = (last + rng.f64_range(-0.5, 0.5)).max(0.1);
            db.insert_value(meter, reading).expect("insert");
        }
        // The operator asks for the total demand over the next day.
        let result = db
            .query("SELECT time, SUM(demand) FROM grid GROUP BY time AS OF now() + '1 day'")
            .expect("query");
        if hour % 6 == 0 {
            let peak = result.rows[0]
                .values
                .iter()
                .cloned()
                .fold((0i64, f64::MIN), |acc, v| if v.1 > acc.1 { v } else { acc });
            println!(
                "hour {hour:>2}: next-day peak demand forecast {:.1} at t={}",
                peak.1, peak.0
            );
        }
    }

    let stats = db.stats();
    println!(
        "\nmaintenance: {} inserts → {} time advances, {} incremental model updates",
        stats.inserts, stats.time_advances, stats.model_updates
    );
    println!(
        "             {} invalidations, {} lazy re-estimations, avg query {:?}",
        stats.invalidations,
        stats.reestimations,
        stats.avg_query_time()
    );
}
