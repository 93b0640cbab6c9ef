//! Integration tests of `EXPLAIN ANALYZE`: the executed plan must carry
//! per-node wall-clock timings, and a query following an invalidating
//! insert round must report the lazily re-estimated source models.

use fdc_core::{Advisor, AdvisorOptions};
use fdc_datagen::tourism_proxy;
use fdc_f2db::{
    ExplainReport, F2db, F2dbError, MaintenancePolicy, QueryMode, QueryRequest, SourceModelState,
};

fn small_db() -> F2db {
    let ds = tourism_proxy(1);
    let outcome = Advisor::new(
        &ds,
        AdvisorOptions {
            parallelism: Some(2),
            ..AdvisorOptions::default()
        },
    )
    .unwrap()
    .run();
    F2db::load(ds, &outcome.configuration).unwrap()
}

fn explain_analyze(db: &F2db, sql: &str) -> ExplainReport {
    db.execute(&QueryRequest::new(sql, QueryMode::ExplainAnalyze))
        .unwrap()
        .into_plan()
        .unwrap()
}

const QUERY: &str =
    "SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '4 quarters'";

#[test]
fn explain_analyze_reports_per_node_timings_and_values() {
    let db = small_db();
    let report = explain_analyze(&db, &format!("EXPLAIN ANALYZE {QUERY}"));
    assert!(!report.rows.is_empty());
    let total = report.total_elapsed.expect("analyzed plan has a total");
    assert!(total.as_nanos() > 0);
    for row in &report.rows {
        let analysis = row.analysis.as_ref().expect("every row is analyzed");
        assert_eq!(analysis.values.len(), report.horizon);
        assert!(analysis.values.iter().all(|v| v.is_finite()));
        assert_eq!(analysis.source_states.len(), row.sources.len());
        assert!(analysis.elapsed <= total);
    }
    let rendered = format!("{report}");
    assert!(rendered.contains("actual time"), "{rendered}");
    assert!(rendered.contains("Execution time"), "{rendered}");
}

#[test]
fn explain_analyze_accepts_query_without_explain_prefix() {
    let db = small_db();
    let report = explain_analyze(&db, QUERY);
    assert!(report.rows.iter().all(|r| r.analysis.is_some()));
}

#[test]
fn fresh_catalog_reports_all_sources_cached() {
    let db = small_db();
    let report = explain_analyze(&db, QUERY);
    for row in &report.rows {
        let analysis = row.analysis.as_ref().unwrap();
        assert!(analysis
            .source_states
            .iter()
            .all(|s| *s == SourceModelState::Cached));
    }
}

#[test]
fn query_after_insert_reports_reestimated_models() {
    let db = small_db().with_policy(MaintenancePolicy::TimeBased { every: 1 });
    // A full insert round advances time; the time-based policy then
    // invalidates every model, so the next query must pay lazy
    // re-estimation and say so.
    let base: Vec<usize> = db.dataset().graph().base_nodes().to_vec();
    for &b in &base {
        db.insert_value(b, 250.0).unwrap();
    }
    assert_eq!(db.stats().time_advances, 1);
    let reest_before = db.stats().reestimations;

    let report = explain_analyze(&db, QUERY);
    let reestimated: usize = report
        .rows
        .iter()
        .flat_map(|r| r.analysis.as_ref().unwrap().source_states.iter())
        .filter(|s| **s == SourceModelState::Reestimated)
        .count();
    assert!(
        reestimated > 0,
        "expected at least one re-estimated source model"
    );
    assert!(db.stats().reestimations > reest_before);
    let rendered = format!("{report}");
    assert!(rendered.contains("re-estimated"), "{rendered}");

    // The very next analyzed query finds everything cached again.
    let report2 = explain_analyze(&db, QUERY);
    for row in &report2.rows {
        assert!(row
            .analysis
            .as_ref()
            .unwrap()
            .source_states
            .iter()
            .all(|s| *s == SourceModelState::Cached));
    }
}

#[test]
fn plain_explain_does_not_execute() {
    let db = small_db();
    let explain = |sql: String| db.execute(&QueryRequest::new(sql, QueryMode::Explain));
    let report = explain(format!("EXPLAIN {QUERY}"))
        .unwrap()
        .into_plan()
        .unwrap();
    assert!(report.rows.iter().all(|r| r.analysis.is_none()));
    assert!(report.total_elapsed.is_none());
    // EXPLAIN ANALYZE text under the non-executing mode is a semantic
    // error pointing at the analyze mode.
    let err = explain(format!("EXPLAIN ANALYZE {QUERY}")).unwrap_err();
    assert!(matches!(err, F2dbError::Semantic(_)));
    assert!(err.to_string().contains("ExplainAnalyze"), "{err}");
}

#[test]
fn analyzed_queries_record_latency_metrics() {
    let db = small_db();
    explain_analyze(&db, QUERY);
    let snap = fdc_obs::snapshot();
    let (_, hist) = snap
        .histograms
        .iter()
        .find(|(name, _)| name == fdc_obs::names::F2DB_QUERY_NS)
        .expect("query latency histogram exists");
    assert!(hist.count >= 1);
    assert!(hist.p50 > 0);
}
