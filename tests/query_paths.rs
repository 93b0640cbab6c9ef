//! One statement front end, checked against the frozen public path.
//!
//! Over a GenX-1000 engine loaded as the benchmark loads it, every
//! statement of the `parser_goldens` corpus and every statement of the
//! benchmark pool must get the same node set — or the same error text —
//! from the engine (`F2db::query`, `F2db::execute`) and from the
//! router's planner (`Placement::plan`) as from the public pieces a
//! caller can put together: `parse_query`, then
//! `NodeQuery::from_predicates` and `NodeQuery::resolve`.
//!
//! The corpus is `common::corpus`, pinned here to the digest
//! `parser_goldens` holds for its own copy of the generator.

mod common;

use common::corpus::corpus;
use fdc::codec::hash::{fnv1a, FNV_OFFSET};
use fdc::cube::{
    Configuration, ConfiguredModel, CubeSplit, Dataset, DimSelector, NodeId, NodeQuery,
    TimeSeriesGraph, STAR,
};
use fdc::datagen::{generate_cube, GenSpec};
use fdc::f2db::{
    parse_query, F2db, F2dbError, ForecastQuery, QueryAnswer, QueryMode, QueryRequest, Statement,
};
use fdc::forecast::{FitOptions, ModelSpec};

#[test]
fn the_corpus_is_the_parser_goldens_corpus() {
    let corpus = corpus();
    let mut accepted = 0usize;
    let mut digest = FNV_OFFSET;
    for statement in &corpus {
        let parsed = parse_query(statement);
        accepted += parsed.is_ok() as usize;
        digest = fnv1a(digest, format!("{parsed:?}\n").as_bytes());
    }
    assert_eq!(
        (corpus.len(), accepted, digest),
        (9743, 1893, 6754940146985030458)
    );
}

// ---------------------------------------------------------------------
// The engine and the oracle
// ---------------------------------------------------------------------

/// `perfbench`'s `benchcfg` over `dataset`: a model at every aggregated
/// node and at every eighth base node, schemes over all nodes.
fn bench_config(dataset: &Dataset) -> Configuration {
    let split = CubeSplit::new(dataset, 0.8);
    let spec = ModelSpec::default_for_history(
        dataset.series(0).granularity().seasonal_period(),
        split.train_len(),
    );
    let fit = FitOptions::default();
    let mut cfg = Configuration::new(dataset.node_count());
    for v in 0..dataset.node_count() {
        if !dataset.graph().coord(v).is_base() || v % 8 == 0 {
            let model = ConfiguredModel::fit(&split, v, &spec, &fit).expect("benchcfg model fits");
            cfg.insert_model(v, model);
        }
    }
    let all: Vec<NodeId> = (0..dataset.node_count()).collect();
    cfg.recompute_nodes(dataset, &split, &all);
    cfg
}

/// The statements of the benchmark pool: a point query per node and
/// horizon, predicates in schema order, and `GROUP BY time, <dim>` over
/// the two coarsest dimensions.
fn pool(graph: &TimeSeriesGraph) -> Vec<String> {
    let dimensions = graph.schema().dimensions();
    let mut out = Vec::new();
    for node in 0..graph.node_count() {
        let predicates: Vec<String> = graph
            .coord(node)
            .values()
            .iter()
            .zip(dimensions)
            .filter(|(&v, _)| v != STAR)
            .map(|(&v, dim)| format!("{} = '{}'", dim.name(), dim.values()[v as usize]))
            .collect();
        let filter = if predicates.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", predicates.join(" AND "))
        };
        for h in 1..=4 {
            out.push(format!(
                "SELECT time, SUM(value) FROM facts{filter} GROUP BY time AS OF now() + '{h} steps'"
            ));
        }
    }
    for dim in &dimensions[..2] {
        for h in 1..=4 {
            out.push(format!(
                "SELECT time, SUM(value) FROM facts GROUP BY time, {} AS OF now() + '{h} steps'",
                dim.name()
            ));
        }
    }
    out
}

/// What the corpus seldom says over this schema: a dimension named
/// twice (the later predicate counts), unknown labels in two dimensions
/// (the first in schema order is reported), an unknown dimension beside
/// an unknown label, GROUP BY over a dimension a predicate pins, and
/// two GROUP BYs.
fn edge_cases(graph: &TimeSeriesGraph) -> Vec<String> {
    let dimensions = graph.schema().dimensions();
    let [d0, d1, d2] = [0, 1, 2].map(|d| dimensions[d].name());
    let [v0, v1] = [0, 1].map(|d| dimensions[d].values()[0].as_str());
    let last1 = dimensions[1].values().last().expect("a value").as_str();
    let wheres = [
        format!("{d0} = 'nope' AND {d0} = '{v0}'"),
        format!("{d0} = '{v0}' AND {d0} = 'nope'"),
        format!("{d0} = '{v0}' AND {d1} = '{v1}' AND {d0} = 'nope' AND {d0} = '{v0}'"),
        format!("{d2} = 'bad2' AND {d0} = 'bad0'"),
        format!("{d1} = 'bad' AND nodim = 'x'"),
        "nodim = 'x' AND other = 'y'".to_string(),
        format!("{d0} = '{v0}' AND {d1} = '{last1}'"),
        format!("{d1} = '{v1}'"),
    ];
    let groups = ["", ", time", &format!(", {d0}"), &format!(", {d2}, {d1}")];
    let mut out = Vec::new();
    for filter in std::iter::once(String::new()).chain(wheres.map(|w| format!(" WHERE {w}"))) {
        for group in groups {
            out.push(format!(
                "SELECT time, SUM(value) FROM facts{filter} GROUP BY time{group} AS OF now() + '2 steps'"
            ));
        }
    }
    out.push(format!(
        "SELECT time FROM facts GROUP BY {} AS OF now() + '1 step'",
        d0.to_uppercase()
    ));
    out
}

/// What the public pieces answer for `sql` under `mode`: the parse,
/// the statement kind the mode admits, then the node query.
fn oracle(graph: &TimeSeriesGraph, sql: &str, mode: QueryMode) -> Result<Vec<NodeId>, String> {
    let query = match (parse_query(sql).map_err(|e| e.to_string())?, mode) {
        (Statement::Forecast(query), _) => query,
        (Statement::Explain { query, analyze }, QueryMode::Explain) if !analyze => query,
        (Statement::Explain { query, .. }, QueryMode::ExplainAnalyze) => query,
        (other, _) => return Err(format!("{other:?} under {mode:?}")),
    };
    resolve(graph, &query).map_err(|e| F2dbError::Semantic(e.to_string()).to_string())
}

fn resolve(graph: &TimeSeriesGraph, query: &ForecastQuery) -> fdc::cube::Result<Vec<NodeId>> {
    let values = query
        .predicates
        .iter()
        .map(|(dim, value)| (dim.as_str(), DimSelector::Value(value.clone())));
    let groups = query
        .group_dims
        .iter()
        .map(|dim| (dim.as_str(), DimSelector::GroupBy));
    let selectors: Vec<(&str, DimSelector)> = values.chain(groups).collect();
    NodeQuery::from_predicates(graph, &selectors)?.resolve(graph)
}

/// The nodes an answer's rows or plan rows are for.
fn answered(answer: QueryAnswer) -> Vec<NodeId> {
    match answer {
        QueryAnswer::Rows(result) => result.rows.iter().map(|row| row.node).collect(),
        QueryAnswer::Plan(report) => report.rows.iter().map(|row| row.node).collect(),
    }
}

#[test]
fn the_engine_and_the_planner_answer_as_the_public_pieces() {
    let dataset = generate_cube(&GenSpec::new(1000, 48, 0xA110C)).dataset;
    let cfg = bench_config(&dataset);
    let graph = dataset.graph().clone();
    let db = F2db::load(dataset, &cfg).expect("the configuration loads");
    let map = db.placement();
    let granularity = db.dataset().series(0).granularity();

    let mut statements = corpus();
    statements.extend(pool(&graph));
    statements.extend(edge_cases(&graph));
    let (mut answered_rows, mut refused) = (0usize, 0usize);
    for sql in &statements {
        for mode in [QueryMode::Forecast, QueryMode::Explain] {
            let expected = oracle(&graph, sql, mode);
            // Statement kinds the mode refuses: the engine and the
            // planner refuse them alike, with a semantic error.
            if let Err(e) = &expected {
                if e.ends_with(&format!("under {mode:?}")) {
                    let plan = map.plan(sql, mode, None).unwrap_err();
                    let engine = db
                        .execute(&QueryRequest::new(sql.as_str(), mode))
                        .unwrap_err();
                    assert!(matches!(plan, F2dbError::Semantic(_)), "{sql:?}: {plan}");
                    assert_eq!(engine, plan, "{sql:?}");
                    continue;
                }
            }
            let plan = map.plan(sql, mode, None).map_err(|e| e.to_string());
            assert_eq!(plan, expected, "Placement::plan, {mode:?}: {sql:?}");
            // The engine converts the horizon after resolving.
            let horizon = parse_query(sql).ok().and_then(|statement| match statement {
                Statement::Forecast(q) | Statement::Explain { query: q, .. } => Some(q.horizon),
                Statement::Insert { .. } => None,
            });
            let engine_expected = match (expected, horizon) {
                (Ok(_), Some(h)) if h.steps(granularity).is_none() => Err(F2dbError::Semantic(
                    format!("horizon unit {h:?} is finer than the data granularity"),
                )
                .to_string()),
                (expected, _) => expected,
            };
            let engine = match mode {
                QueryMode::Forecast => db
                    .query(sql)
                    .map(|result| result.rows.iter().map(|row| row.node).collect::<Vec<_>>()),
                _ => db
                    .execute(&QueryRequest::new(sql.as_str(), mode))
                    .map(answered),
            };
            let engine = engine.map_err(|e| e.to_string());
            answered_rows += engine.as_ref().map_or(0, Vec::len);
            refused += engine.is_err() as usize;
            assert_eq!(engine, engine_expected, "F2db, {mode:?}: {sql:?}");
        }
    }
    // Both outcomes are well represented.
    assert!(answered_rows > 10_000, "{answered_rows} rows");
    assert!(refused > 10_000, "{refused} refusals");
}
