//! Bring-your-own-data workflow: import a CSV of multi-dimensional time
//! series (schema and functional dependencies are inferred), run the
//! advisor, inspect query plans with EXPLAIN, and export the data back.
//!
//! Run with: `cargo run --release --example csv_and_explain`

use fdc::advisor::{Advisor, AdvisorOptions};
use fdc::datagen::{export_csv, import_csv};
use fdc::f2db::{F2db, QueryAnswer, QueryMode, QueryRequest};
use fdc::forecast::Granularity;

fn main() {
    // A small shop: 2 regions of 2 stores each (store → region is
    // inferred from the data), 24 months of sales.
    let mut csv = String::from("time,store,region,sales\n");
    for t in 0..24 {
        for (store, region, level) in [
            ("S1", "North", 100.0),
            ("S2", "North", 60.0),
            ("S3", "South", 140.0),
            ("S4", "South", 80.0),
        ] {
            let season = 1.0 + 0.25 * (t as f64 / 12.0 * std::f64::consts::TAU).sin();
            let value = level * season + (t as f64) * 0.5 + ((t * 7 + store.len()) % 5) as f64;
            csv.push_str(&format!("{t},{store},{region},{value:.2}\n"));
        }
    }

    let dataset = import_csv(&csv, Granularity::Monthly).expect("valid CSV");
    let schema = dataset.graph().schema();
    println!(
        "imported: {} base series, {} nodes, inferred {} functional dependenc{}",
        dataset.graph().base_nodes().len(),
        dataset.node_count(),
        schema.dependencies().len(),
        if schema.dependencies().len() == 1 {
            "y"
        } else {
            "ies"
        },
    );
    for fd in schema.dependencies() {
        println!(
            "  {} -> {}",
            schema.dimensions()[fd.determinant].name(),
            schema.dimensions()[fd.dependent].name()
        );
    }

    let outcome = Advisor::new(&dataset, AdvisorOptions::default())
        .expect("valid dataset")
        .run();
    println!(
        "\nadvisor: error {:.4}, {} models\n",
        outcome.error, outcome.model_count
    );

    let db = F2db::load(dataset, &outcome.configuration).expect("loads");

    // EXPLAIN shows how the query will be answered before running it.
    let sql = "SELECT time, SUM(sales) FROM facts WHERE region = 'North' GROUP BY time AS OF now() + '3 months'";
    let plan = db
        .execute(&QueryRequest::new(sql, QueryMode::Explain))
        .ok()
        .and_then(QueryAnswer::into_plan)
        .expect("plan");
    println!("{plan}");

    let result = db.query(sql).expect("query");
    for (t, v) in &result.rows[0].values {
        println!("North region forecast t={t}: {v:.1}");
    }

    // AVG queries derive from the SUM forecast.
    let avg = db
        .query("SELECT time, AVG(sales) FROM facts GROUP BY time AS OF now() + '1 month'")
        .expect("avg query");
    println!(
        "\naverage store sales next month: {:.1}",
        avg.rows[0].values[0].1
    );

    // Round-trip back to CSV.
    let exported = export_csv(&db.dataset(), "sales");
    println!(
        "\nexport: {} lines of CSV (round-trips through import_csv)",
        exported.lines().count()
    );
}
