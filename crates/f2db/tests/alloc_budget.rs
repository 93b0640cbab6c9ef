//! Heap allocations per warm forecast query, counted — a budget that
//! cannot flake the way a timing can.
//!
//! The cube is a seeded GenX cube of 1000 base series (dimensions of
//! 1000, 100 and 10 values, 1111 nodes) under a `benchcfg`-style
//! configuration as `perfbench` serves it: a model at every aggregated
//! node and at every eighth base node, schemes recomputed over all
//! nodes, so direct, aggregation and disaggregation schemes all occur.
//! The statements are the benchmark pool's shapes.
//!
//! | statement                          | budget | at 3c97547 | at 4c8de16 | at 1a0d4da |
//! |------------------------------------|-------:|-----------:|-----------:|-----------:|
//! | point query, three predicates      |      4 |          6 |         23 |         84 |
//! | `GROUP BY time, level2` (10 rows)  |     28 |         38 |         86 |        197 |
//! | `GROUP BY time, level1` (100 rows) |    214 |        314 |        722 |       1466 |
//!
//! The right columns are what this file counted before three rewrites
//! of the read path. At 1a0d4da every token was an owned `String`,
//! every node resolution cloned its labels and a `Coord` per candidate,
//! and a catalog read cloned the node's entry twice. At 4c8de16 a parse
//! still copied every label, identifier and select item into a
//! `String`, the resolver built two selector vectors and a candidate
//! vector, and a catalog read cloned the node's row and collected the
//! source forecasts and a slice of them before deriving a third vector.
//! At 3c97547 the parse still kept its predicates in a vector, and
//! every exact row's forecast was a vector of the model's own before it
//! became the row's pairs.
//!
//! What is left of a point query: the resolved node list, the row's
//! label and `(time, value)` pairs, and the row list: four, in debug
//! and release builds alike. The predicates live inline in the parse
//! and the forecast is derived into a stack buffer the row's pairs are
//! built from. A GROUP BY query adds a label and a pairs vector per
//! row, and its GROUP BY dimensions and lazy re-estimation pass a few
//! vectors per query.

#[path = "../../obs/tests/support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::allocations;
use fdc_cube::{Configuration, ConfiguredModel, CubeSplit, Dataset, NodeId};
use fdc_datagen::{generate_cube, GenSpec};
use fdc_f2db::F2db;
use fdc_forecast::{FitOptions, ModelSpec};

/// `perfbench`'s `benchcfg` over `dataset`.
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

/// Median allocation count of 100 consecutive calls.
fn median_of_100(mut call: impl FnMut()) -> u64 {
    let mut counts: Vec<u64> = (0..100)
        .map(|_| {
            let before = allocations();
            call();
            allocations() - before
        })
        .collect();
    counts.sort_unstable();
    counts[counts.len() / 2]
}

/// [`median_of_100`] for a statement, after warm-up (the first calls
/// resolve metric handles and learn the span path).
fn median_allocations(db: &F2db, sql: &str, rows: usize) -> u64 {
    for _ in 0..10 {
        assert_eq!(
            db.query(sql).expect("the statement answers").rows.len(),
            rows
        );
    }
    median_of_100(|| drop(db.query(sql)))
}

#[test]
fn a_warm_query_stays_inside_its_allocation_budget() {
    let dataset = generate_cube(&GenSpec::new(1000, 48, 0xA110C)).dataset;
    assert_eq!(dataset.node_count(), 1111);
    let cfg = bench_config(&dataset);
    // A base node served by disaggregation: three predicates, the most
    // a point statement of this cube carries.
    let g = dataset.graph();
    let base = *g
        .base_nodes()
        .iter()
        .find(|&&b| !cfg.has_model(b))
        .expect("seven of eight base nodes have no model");
    let predicates: Vec<String> = g
        .coord(base)
        .values()
        .iter()
        .zip(g.schema().dimensions())
        .map(|(&v, dim)| format!("{} = '{}'", dim.name(), dim.values()[v as usize]))
        .collect();
    let point = format!(
        "SELECT time, SUM(value) FROM facts WHERE {} GROUP BY time AS OF now() + '4 steps'",
        predicates.join(" AND ")
    );
    let group_by = |dim: &str| {
        format!("SELECT time, SUM(value) FROM facts GROUP BY time, {dim} AS OF now() + '4 steps'")
    };
    let db = F2db::load(dataset, &cfg).expect("the configuration loads");

    let counted = [
        median_allocations(&db, &point, 1),
        median_allocations(&db, &group_by("level2"), 10),
        median_allocations(&db, &group_by("level1"), 100),
    ];
    println!("allocations per warm query (point, 10 rows, 100 rows): {counted:?}");
    for (count, budget) in counted.into_iter().zip([4, 28, 214]) {
        assert!(count <= budget, "{counted:?} against budgets [4, 28, 214]");
    }

    // Leaving tracing on is free, as a count: under an unsampled root
    // context, with a collector installed, a 100-row insert allocates
    // no more than with spans switched off, and nothing is collected.
    // Every row goes to one node, so no round completes and each call
    // does the same work.
    let rows = vec![(base, 1.0); 100];
    let insert = || {
        db.insert_batch(&rows).expect("the batch is accepted");
    };
    fdc_obs::set_spans_enabled(false);
    let spans_off = median_of_100(insert);
    fdc_obs::set_spans_enabled(true);
    let collector = fdc_obs::TraceCollector::new();
    fdc_obs::set_subscriber(collector.clone());
    let unsampled = {
        let _ctx = fdc_obs::trace::activate(fdc_obs::TraceContext::root(false));
        median_of_100(insert)
    };
    fdc_obs::take_subscriber();
    println!(
        "allocations per 100-row insert (spans off, unsampled context): {spans_off}, {unsampled}"
    );
    assert!(unsampled <= spans_off, "{unsampled} > {spans_off}");
    assert_eq!(collector.len(), 0, "an unsampled insert was collected");
}
