//! Micro-benchmarks of the cube substrate: hyper graph construction,
//! aggregate materialization, the derivation arithmetic (weight,
//! indicator, derived forecast) and query resolution.
//!
//! Run with `cargo bench -p fdc-bench --bench cube`.

use fdc_bench::timing::{bench, emit_metrics};
use fdc_core::indicator::{scheme_indicator, IndicatorOptions};
use fdc_cube::{derive_forecast, CubeSplit, DimSelector, NodeQuery};
use fdc_datagen::{generate_cube, tourism_proxy, GenSpec};
use std::hint::black_box;

fn bench_graph_build() {
    for size in [100usize, 400, 1600] {
        let spec = GenSpec::new(size, 24, 1);
        bench(&format!("graph_build/{size}"), || {
            black_box(generate_cube(&spec))
        });
    }
}

fn bench_derivation() {
    let ds = tourism_proxy(1);
    let top = ds.graph().top_node();
    let base = ds.graph().base_nodes()[0];
    let split = CubeSplit::new(&ds, 0.8);
    bench("train_weight", || split.train_weight(&ds, &[top], base));
    let options = IndicatorOptions::new(ds.node_count(), split.train_len());
    bench("scheme_indicator", || {
        scheme_indicator(&ds, top, base, &options)
    });
    let k = split.train_weight(&ds, &[top], base);
    let forecast = split.test(top);
    bench("derive_forecast", || {
        derive_forecast(&[black_box(forecast)], k)
    });
}

fn bench_query_resolution() {
    let cube = generate_cube(&GenSpec::new(400, 24, 1));
    let g = cube.dataset.graph();
    let query =
        NodeQuery::from_predicates(g, &[("level1", DimSelector::Value("L1V0".into()))]).unwrap();
    bench("query_resolve", || query.resolve(g).unwrap());
}

fn bench_advance_time() {
    let cube = generate_cube(&GenSpec::new(200, 24, 1));
    let base: Vec<usize> = cube.dataset.graph().base_nodes().to_vec();
    let values: Vec<(usize, f64)> = base.iter().map(|&b| (b, 42.0)).collect();
    bench("advance_time_200", || {
        let mut ds = cube.dataset.clone();
        ds.advance_time(black_box(&values)).unwrap();
        ds
    });
}

fn main() {
    bench_graph_build();
    bench_derivation();
    bench_query_resolution();
    bench_advance_time();
    emit_metrics("bench_cube");
}
