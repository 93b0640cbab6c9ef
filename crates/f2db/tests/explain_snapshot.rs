//! Snapshot test for the `EXPLAIN ANALYZE` rendering on the paper's
//! running example (Fig. 1/4: three cities rolling up into one region).
//!
//! Wall-clock fields vary run to run, so the snapshot uses
//! [`ExplainReport::to_masked_string`], which replaces them with
//! `<masked>`; everything else — plan shape, scheme kinds, weights,
//! maintenance states, forecast values — is deterministic.

use fdc_cube::{Configuration, ConfiguredModel, Coord, CubeSplit, Dataset, Dimension, Schema};
use fdc_f2db::{ExplainReport, F2db, MaintenancePolicy, QueryMode, QueryRequest};
use fdc_forecast::{FitOptions, Granularity, ModelSpec, TimeSeries};

/// The running example: one `city` dimension with C1/C2/C3; the
/// all-star node is the region. 40 quarterly steps of clean linear
/// trends (C1 trends down, the others up). The configuration is the
/// paper's Fig. 4 outcome, built by hand — a model at the region and
/// one at the down-trending C1 — so the snapshot pins the engine's
/// rendering of exactly that configuration, whatever the advisor would
/// choose for this data.
fn fig4_db() -> F2db {
    let schema = Schema::flat(vec![Dimension::new(
        "city",
        vec!["C1".into(), "C2".into(), "C3".into()],
    )])
    .unwrap();
    let series = |f: &dyn Fn(usize) -> f64| -> TimeSeries {
        TimeSeries::new(
            (0..40).map(|t| f(t).max(0.1)).collect(),
            Granularity::Quarterly,
        )
    };
    let base = vec![
        (Coord::new(vec![0]), series(&|t| 200.0 - 3.0 * t as f64)),
        (Coord::new(vec![1]), series(&|t| 40.0 + 0.5 * t as f64)),
        (Coord::new(vec![2]), series(&|t| 80.0 + 1.0 * t as f64)),
    ];
    let ds = Dataset::from_base(schema, base).unwrap();
    let split = CubeSplit::new(&ds, 0.8);
    let fit = FitOptions::default();
    let mut cfg = Configuration::new(ds.node_count());
    let top = ds.graph().top_node();
    let c1 = ds.graph().node(&Coord::new(vec![0])).unwrap();
    for v in [top, c1] {
        cfg.insert_model(
            v,
            ConfiguredModel::fit(&split, v, &ModelSpec::Holt, &fit).unwrap(),
        );
    }
    let all: Vec<usize> = (0..ds.node_count()).collect();
    cfg.recompute_nodes(&ds, &split, &all);
    F2db::load(ds, &cfg).unwrap()
}

fn explain_analyze(db: &F2db, q: &str) -> ExplainReport {
    let request = QueryRequest::new(format!("EXPLAIN ANALYZE {q}"), QueryMode::ExplainAnalyze);
    db.execute(&request).unwrap().into_plan().unwrap()
}

const QUERY: &str =
    "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '2 quarters'";

const CITY_QUERY: &str =
    "SELECT time, SUM(visitors) FROM facts WHERE city = 'C2' GROUP BY time AS OF now() + '2 quarters'";

#[test]
fn masked_explain_analyze_matches_snapshot() {
    let db = fig4_db();
    let mut rendered = String::new();
    for q in [QUERY, CITY_QUERY] {
        let report = explain_analyze(&db, q);
        rendered.push_str(&report.to_masked_string());
    }
    let expected = "\
Forecast Plan (horizon: 2 steps, aggregate: Sum)
  -> node [*] via direct (k = 1.000000)  (actual time: <masked>)
       model @ [*]  (cached)
       values: [260.000, 258.500]
Execution time: <masked>
Forecast Plan (horizon: 2 steps, aggregate: Sum)
  -> node [C2] via disaggregation (k = 0.171109)  (actual time: <masked>)
       model @ [*]  (cached)
       values: [44.488, 44.232]
Execution time: <masked>
";
    assert_eq!(rendered, expected, "EXPLAIN ANALYZE snapshot drifted");
}

#[test]
fn masked_rendering_is_stable_after_maintenance_round() {
    // The plan (and thus the masked snapshot) must not depend on when
    // maintenance last ran: a full insert round plus lazy re-estimation
    // returns the catalog to an all-valid state with identical shape.
    let db = fig4_db().with_policy(MaintenancePolicy::TimeBased { every: 1 });
    let before = explain_analyze(&db, QUERY);
    let base: Vec<usize> = db.dataset().graph().base_nodes().to_vec();
    for &b in &base {
        db.insert_value(b, 100.0).unwrap();
    }
    db.maintain().unwrap();
    let after = explain_analyze(&db, QUERY);
    assert_eq!(before.rows.len(), after.rows.len());
    for (b, a) in before.rows.iter().zip(&after.rows) {
        assert_eq!(b.label, a.label);
        assert_eq!(b.scheme_kind, a.scheme_kind);
    }
}
