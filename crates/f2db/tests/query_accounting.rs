//! What counts as a query, what its latency covers, and which models
//! it counts as cached or re-estimated.
//!
//! `f2db.queries`, `f2db.query.ns` and `MaintenanceStats` move by one
//! per *answered* query — under `Forecast` and `ExplainAnalyze` alike —
//! and not at all for a statement that does not parse; and the time
//! they (and `EXPLAIN ANALYZE`'s `Execution time`) report starts before
//! the statement is parsed, not after. A query counts every distinct
//! model its nodes are derived from once, as `f2db.models.cached` or —
//! when it had to re-fit it — `f2db.models.reestimated`, whether one
//! catalog visit answered it (a lone node) or the lazy re-estimation
//! pass ran first (several nodes, or anything to settle).
//!
//! An executed query reads one clock pair: its span's duration is the
//! one `f2db.query.ns` records, so a span collector and the histogram
//! agree to the nanosecond, and the span exports no `span.*.ns` series
//! of its own.
//!
//! One test, so the process-wide registry sees only these queries.

use fdc_core::{Advisor, AdvisorOptions};
use fdc_cube::{NodeId, STAR};
use fdc_datagen::{generate_cube, GenSpec};
use fdc_f2db::{parse_query, F2db, F2dbError, QueryMode, QueryRequest};
use fdc_obs::names;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// `(f2db.queries, samples in f2db.query.ns, stats.queries, stats time)`.
fn accounted(db: &F2db) -> (u64, u64, usize, Duration) {
    let stats = db.stats();
    (
        fdc_obs::counter(names::F2DB_QUERIES).get(),
        fdc_obs::histogram(names::F2DB_QUERY_NS).snapshot().count,
        stats.queries,
        stats.total_query_time,
    )
}

#[test]
fn queries_and_the_models_behind_them_are_counted_once() {
    let cube = generate_cube(&GenSpec::new(8, 36, 2));
    let outcome = Advisor::new(&cube.dataset, AdvisorOptions::default())
        .unwrap()
        .run();
    let db = F2db::load(cube.dataset, &outcome.configuration).unwrap();
    answered_queries_count_once_with_their_parse(&db);
    referenced_models_count_once_per_query(&db);
    an_answered_query_is_timed_by_one_clock(&db);
}

fn answered_queries_count_once_with_their_parse(db: &F2db) {
    let sql = "SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '4 steps'";

    let (queries, samples, answered, _) = accounted(db);
    db.query(sql).unwrap();
    let analyze = QueryRequest::new(sql, QueryMode::ExplainAnalyze);
    db.execute(&analyze).unwrap();
    // A static plan executes nothing and is not a query.
    db.execute(&QueryRequest::new(sql, QueryMode::Explain))
        .unwrap();
    let after = accounted(db);
    assert_eq!(
        (after.0, after.1, after.2),
        (queries + 2, samples + 2, answered + 2)
    );

    for broken in [
        "SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '4 steps",
        "SELECT time, SUM(v) FROM facts AS OF now() + '4 lightyears'",
        "SELECT time FROM",
        "",
    ] {
        for mode in [QueryMode::Forecast, QueryMode::ExplainAnalyze] {
            let answer = db.execute(&QueryRequest::new(broken, mode));
            assert!(matches!(answer, Err(F2dbError::Parse(_))), "{broken:?}");
        }
    }
    assert_eq!(accounted(db), after, "a parse error was counted");

    // The same statement behind 8 MB of blanks: lexing them takes many
    // times what the rest of the query does, so a latency that starts
    // after the parse cannot come near the parse's own time. Half of
    // the fastest of three parses is asked for.
    let padded = format!("{}{sql}", " ".repeat(8 << 20));
    let parse_alone = (0..3)
        .map(|_| {
            let started = Instant::now();
            parse_query(&padded).unwrap();
            started.elapsed()
        })
        .min()
        .unwrap();
    db.query(&padded).unwrap();
    let recorded = accounted(db).3 - after.3;
    assert!(
        recorded >= parse_alone / 2,
        "the query recorded {recorded:?}, its parse alone takes {parse_alone:?}"
    );
    let report = db
        .execute(&QueryRequest::new(padded, QueryMode::ExplainAnalyze))
        .unwrap()
        .into_plan()
        .unwrap();
    let execution_time = report.total_elapsed.expect("an analyzed plan is timed");
    assert!(execution_time >= parse_alone / 2, "{execution_time:?}");
}

/// `(f2db.models.cached, f2db.models.reestimated, stats.reestimations)`.
fn models_counted(db: &F2db) -> (u64, u64, usize) {
    (
        fdc_obs::counter(names::F2DB_MODELS_CACHED).get(),
        fdc_obs::counter(names::F2DB_MODELS_REESTIMATED).get(),
        db.stats().reestimations,
    )
}

fn referenced_models_count_once_per_query(db: &F2db) {
    let sources_of = |n: NodeId| db.catalog().entry(n).expect("served").scheme_sources;
    let point = |n: NodeId| {
        let ds = db.dataset();
        let g = ds.graph();
        let predicates: Vec<String> = g
            .coord(n)
            .values()
            .iter()
            .zip(g.schema().dimensions())
            .filter(|(&v, _)| v != STAR)
            .map(|(&v, dim)| format!("{} = '{}'", dim.name(), dim.values()[v as usize]))
            .collect();
        let filter = match predicates.len() {
            0 => String::new(),
            _ => format!(" WHERE {}", predicates.join(" AND ")),
        };
        format!("SELECT time, SUM(v) FROM facts{filter} GROUP BY time AS OF now() + '2 steps'")
    };
    let nodes = db.dataset().node_count();

    // Every node as a point query: one catalog visit each.
    for n in 0..nodes {
        let before = models_counted(db);
        assert_eq!(db.query(&point(n)).unwrap().rows[0].node, n);
        let distinct: BTreeSet<NodeId> = sources_of(n).into_iter().collect();
        let after = models_counted(db);
        assert_eq!(
            (after.0 - before.0, after.1, after.2),
            (distinct.len() as u64, before.1, before.2),
            "node {n}"
        );
    }

    // A stale source: the visit gives way to the lazy pass, which
    // re-fits that one model and counts the others as cached; the next
    // query finds everything in order again.
    let n = (0..nodes).max_by_key(|&n| sources_of(n).len()).unwrap();
    let sources = sources_of(n);
    assert!(db.invalidate(sources[0]));
    for (refits, cached) in [(1, sources.len() as u64 - 1), (0, sources.len() as u64)] {
        let before = models_counted(db);
        db.query(&point(n)).unwrap();
        let after = models_counted(db);
        assert_eq!(
            (after.0 - before.0, after.1 - before.1, after.2 - before.2),
            (cached, refits, refits as usize)
        );
        assert!(!db.catalog().is_invalid(sources[0]));
    }

    // Several nodes: a source two of them share counts once.
    let ds = db.dataset();
    let dim = ds.graph().schema().dimensions()[0].name().to_string();
    drop(ds);
    let group_by =
        format!("SELECT time, SUM(v) FROM facts GROUP BY time, {dim} AS OF now() + '2 steps'");
    let before = models_counted(db);
    let answer = db.query(&group_by).unwrap();
    assert!(answer.rows.len() > 1);
    let distinct: BTreeSet<NodeId> = answer
        .rows
        .iter()
        .flat_map(|row| sources_of(row.node))
        .collect();
    let after = models_counted(db);
    assert_eq!(
        (after.0 - before.0, after.1, after.2),
        (distinct.len() as u64, before.1, before.2)
    );
}

fn an_answered_query_is_timed_by_one_clock(db: &F2db) {
    let sql = "SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '4 steps'";
    let collector = fdc_obs::FlameCollector::new();
    fdc_obs::set_subscriber(collector.clone());
    let latency = || fdc_obs::histogram(names::F2DB_QUERY_NS).snapshot();
    let before = latency();
    const ANSWERED: u64 = 25;
    for _ in 0..ANSWERED {
        db.query(sql).unwrap();
    }
    let after = latency();
    let (spans, span_time) = collector.total("f2db.query");
    assert_eq!((spans, after.count - before.count), (ANSWERED, ANSWERED));
    assert_eq!(span_time.as_nanos(), u128::from(after.sum - before.sum));

    // A statement that does not parse closes its span, which the
    // collector sees, and records no sample.
    let answer = db.query("SELECT time FROM");
    assert!(matches!(answer, Err(F2dbError::Parse(_))));
    assert_eq!(collector.total("f2db.query").0, ANSWERED + 1);
    assert_eq!(latency().count, after.count);
    fdc_obs::take_subscriber();

    let series = fdc_obs::snapshot();
    let span_series: Vec<&String> = series
        .histograms
        .iter()
        .map(|(name, _)| name)
        .filter(|name| name.contains("f2db.query") || name.contains("f2db.explain_analyze"))
        .filter(|name| name.starts_with("span."))
        .collect();
    assert!(span_series.is_empty(), "{span_series:?}");
}
