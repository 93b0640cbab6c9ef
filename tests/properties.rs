//! Randomized integration tests over the public API, driven by the
//! deterministic workspace RNG.

use fdc::advisor::indicator::{scheme_indicator, IndicatorOptions};
use fdc::cube::{
    Configuration, Coord, CubeSplit, Dataset, Dimension, FunctionalDependency, NodeEstimate,
    Schema, Scheme,
};
use fdc::f2db::Catalog;
use fdc::forecast::{smape, FitOptions, Granularity, TimeSeries};
use fdc::rng::Rng;

/// A small two-level cube (cities grouped into regions) with aligned
/// positive base series.
fn random_cube(rng: &mut Rng) -> Dataset {
    let cities = 2 + rng.usize_below(4);
    let regions = 2 + rng.usize_below(2);
    let len = 8 + rng.usize_below(16);
    let schema = Schema::new(
        vec![
            Dimension::new("city", (0..cities).map(|i| format!("C{i}")).collect()),
            Dimension::new("region", (0..regions).map(|i| format!("R{i}")).collect()),
        ],
        vec![FunctionalDependency::new(
            0,
            1,
            (0..cities).map(|i| (i % regions) as u32).collect(),
        )],
    )
    .expect("generated schema is valid");
    let base = (0..cities)
        .map(|i| {
            let vals: Vec<f64> = (0..len).map(|_| rng.f64_range(0.5, 500.0)).collect();
            (
                Coord::new(vec![i as u32, (i % regions) as u32]),
                TimeSeries::new(vals, Granularity::Monthly),
            )
        })
        .collect();
    Dataset::from_base(schema, base).expect("generated data is valid")
}

/// Every aggregate equals the sum of the base series it covers, at
/// every time point, for arbitrary cubes.
#[test]
fn aggregates_always_sum_base_descendants() {
    let mut rng = Rng::seed_from_u64(0x9101);
    for _ in 0..64 {
        let ds = random_cube(&mut rng);
        let g = ds.graph();
        for v in 0..g.node_count() {
            let mut expect = vec![0.0; ds.series_len()];
            for b in g.base_descendants(v) {
                for (acc, x) in expect.iter_mut().zip(ds.series(b).values()) {
                    *acc += x;
                }
            }
            for (a, e) in ds.series(v).values().iter().zip(&expect) {
                assert!((a - e).abs() < 1e-6 * e.abs().max(1.0));
            }
        }
    }
}

/// Derivation: the historical-share weights of all base nodes from the
/// top node sum to 1, over the advisor's training prefix and over the
/// catalog's whole history.
#[test]
fn derivation_weights_are_shares() {
    let mut rng = Rng::seed_from_u64(0x9102);
    for _ in 0..64 {
        let ds = random_cube(&mut rng);
        let g = ds.graph();
        let top = g.top_node();
        let split = CubeSplit::new(&ds, 0.8);
        let train: f64 = g
            .base_nodes()
            .iter()
            .map(|&b| split.train_weight(&ds, &[top], b))
            .sum();
        assert!((train - 1.0).abs() < 1e-9, "training shares sum to {train}");
        let mut configuration = Configuration::new(ds.node_count());
        for &b in g.base_nodes() {
            let scheme = Scheme {
                sources: vec![top],
                weight: 0.0,
            };
            configuration.set_estimate(
                b,
                NodeEstimate {
                    error: 0.0,
                    scheme: Some(scheme),
                },
            );
        }
        let catalog = Catalog::from_configuration(&ds, &configuration, &FitOptions::default())
            .expect("a catalog without models builds");
        let full: f64 = g
            .base_nodes()
            .iter()
            .map(|&b| {
                catalog
                    .entry(b)
                    .expect("every base node has a scheme")
                    .weight
            })
            .sum();
        assert!((full - 1.0).abs() < 1e-9, "catalog shares sum to {full}");
    }
}

/// The indicator of a node derived from itself is 0, and every
/// indicator value lies in [0, 1].
#[test]
fn weight_variance_invariants() {
    let mut rng = Rng::seed_from_u64(0x9103);
    for _ in 0..64 {
        let ds = random_cube(&mut rng);
        let options = IndicatorOptions::new(ds.node_count(), ds.series_len() * 8 / 10);
        for s in 0..ds.node_count() {
            assert_eq!(scheme_indicator(&ds, s, s, &options), 0.0);
            for t in 0..ds.node_count() {
                let value = scheme_indicator(&ds, s, t, &options);
                assert!((0.0..=1.0).contains(&value), "{s} → {t}: {value}");
            }
        }
    }
}

/// SMAPE is symmetric in its arguments, bounded in [0, 1] for
/// sign-consistent data, and zero iff forecasts are exact.
#[test]
fn smape_axioms() {
    let mut rng = Rng::seed_from_u64(0x9104);
    for _ in 0..64 {
        let n = 1 + rng.usize_below(63);
        let actual: Vec<f64> = (0..n).map(|_| rng.f64_range(0.01, 1e6)).collect();
        let forecast: Vec<f64> = actual.iter().map(|a| a * rng.f64_range(0.0, 2.0)).collect();
        let e = smape(&actual, &forecast);
        assert!((0.0..=1.0 + 1e-12).contains(&e));
        assert!((smape(&forecast, &actual) - e).abs() < 1e-12);
        assert!(smape(&actual, &actual) == 0.0);
    }
}

/// Advancing time by one step grows every node series by exactly one
/// value and keeps aggregation consistency.
#[test]
fn advance_time_preserves_consistency() {
    let mut rng = Rng::seed_from_u64(0x9105);
    for _ in 0..64 {
        let mut ds = random_cube(&mut rng);
        let base = ds.graph().base_nodes().to_vec();
        let updates: Vec<(usize, f64)> = base
            .iter()
            .map(|&b| (b, rng.f64_range(0.5, 100.0)))
            .collect();
        let len0 = ds.series_len();
        ds.advance_time(&updates).expect("aligned update");
        assert_eq!(ds.series_len(), len0 + 1);
        let top = ds.graph().top_node();
        let expect: f64 = updates.iter().map(|(_, v)| v).sum();
        let got = *ds.series(top).values().last().unwrap();
        assert!((got - expect).abs() < 1e-9);
    }
}
