//! High-cardinality cubes for the approximate-forecasting workload.
//!
//! The GenX generator reproduces the paper's shapes (up to ~10⁵ base
//! series with several hierarchy levels); the approximate plane needs a
//! different stress profile: 10⁵–10⁶ base cells, **heavy-tailed cell
//! scales** (a few cells dominate the aggregate, the regime where naive
//! uniform sampling has terrible variance and stratification pays) and
//! **controllable seasonality**. To keep a million-cell graph linear in
//! the cell count, the hierarchy is the same functional-dependency chain
//! GenX uses: leaf dimension of cardinality `base_cells`, one grouping
//! dimension above it, so the graph is `base_cells` base nodes +
//! `groups` aggregation nodes + the top node.
//!
//! Per-cell series are generated directly (scale × seasonal profile ×
//! multiplicative noise) instead of via SARIMA simulation: at 10⁶ cells
//! the generator itself must stay cheap, and the approximate estimator
//! only cares about the cross-cell scale distribution, not within-cell
//! ARMA structure. Cell scales are Pareto(α) draws — `tail_index` α
//! around 1.1–1.5 gives the heavy tail where a 0.1 % cell minority
//! carries a double-digit share of the total.

use fdc_codec::hash::{fnv1a, FNV_OFFSET};
use fdc_cube::{Coord, Dataset, Dimension, FunctionalDependency, Schema};
use fdc_forecast::{Granularity, TimeSeries};
use fdc_rng::Rng;

use crate::genx::GeneratedCube;

/// Specification of a high-cardinality cube.
#[derive(Debug, Clone, PartialEq)]
pub struct HighCardSpec {
    /// Number of base cells (10⁵–10⁶ is the target regime).
    pub base_cells: usize,
    /// Number of groups in the aggregation dimension above the leaf.
    pub groups: usize,
    /// Observations per series.
    pub length: usize,
    /// Seasonal period of the cell profiles (≤ 1 disables seasonality).
    pub seasonal_period: usize,
    /// Seasonal amplitude as a fraction of the cell scale, in [0, 1).
    pub seasonal_strength: f64,
    /// Pareto tail index α of the cell-scale distribution; smaller is
    /// heavier-tailed. Values ≤ 0 fall back to uniform scales.
    pub tail_index: f64,
    /// Multiplicative noise level (stddev as a fraction of the scale).
    pub noise: f64,
    /// Granularity tag attached to every series.
    pub granularity: Granularity,
    /// RNG seed; equal seeds produce byte-identical cubes.
    pub seed: u64,
}

impl HighCardSpec {
    /// A heavy-tailed, mildly seasonal spec at the given cell count.
    pub fn new(base_cells: usize, seed: u64) -> Self {
        HighCardSpec {
            base_cells,
            groups: (base_cells as f64).sqrt().round().max(1.0) as usize,
            length: 36,
            seasonal_period: 4,
            seasonal_strength: 0.3,
            tail_index: 1.3,
            noise: 0.1,
            granularity: Granularity::Quarterly,
            seed,
        }
    }
}

/// Generates a high-cardinality cube.
///
/// # Panics
/// Panics on a zero `base_cells`, zero `length` or `groups` larger than
/// `base_cells` — benchmark-setup programmer errors.
pub fn generate_highcard(spec: &HighCardSpec) -> GeneratedCube {
    assert!(spec.base_cells > 0, "base_cells must be positive");
    assert!(spec.length > 0, "length must be positive");
    let groups = spec.groups.clamp(1, spec.base_cells);

    // Leaf dimension (one value per cell) + group dimension, tied by a
    // proportional functional dependency exactly like GenX — this is
    // what keeps canonicalization from exploding the graph.
    let leaf_values = (0..spec.base_cells).map(|v| format!("c{v}")).collect();
    let group_values = (0..groups).map(|g| format!("g{g}")).collect();
    let mapping = (0..spec.base_cells)
        .map(|v| ((v as u64 * groups as u64) / spec.base_cells as u64) as u32)
        .collect();
    let schema = Schema::new(
        vec![
            Dimension::new("cell".to_string(), leaf_values),
            Dimension::new("group".to_string(), group_values),
        ],
        vec![FunctionalDependency::new(0, 1, mapping)],
    )
    .expect("generated schema is valid");

    let mut root = Rng::seed_from_u64(spec.seed);
    let mut base = Vec::with_capacity(spec.base_cells);
    for v in 0..spec.base_cells {
        let g = ((v as u64 * groups as u64) / spec.base_cells as u64) as u32;
        let mut rng = root.fork(v as u64);
        // Heavy-tailed per-cell scale: Pareto(α) via inverse CDF,
        // clamped so one astronomically lucky draw cannot overflow the
        // aggregate into the e308 range at 10⁶ cells.
        let scale = if spec.tail_index > 0.0 {
            let u = (1.0 - rng.f64()).max(1e-12);
            (10.0 * u.powf(-1.0 / spec.tail_index)).min(1e9)
        } else {
            10.0 + 90.0 * rng.f64()
        };
        let phase = rng.f64() * std::f64::consts::TAU;
        let trend = rng.f64_range(-0.002, 0.004);
        let mut values = Vec::with_capacity(spec.length);
        for t in 0..spec.length {
            let seasonal = if spec.seasonal_period > 1 {
                1.0 + spec.seasonal_strength
                    * (std::f64::consts::TAU * t as f64 / spec.seasonal_period as f64 + phase).sin()
            } else {
                1.0
            };
            let level = 1.0 + trend * t as f64;
            let noise = 1.0 + spec.noise * rng.standard_normal();
            // Floor at 1 % of scale: series stay positive so both
            // multiplicative models and SUM aggregates behave.
            values.push((scale * seasonal * level * noise).max(scale * 0.01));
        }
        base.push((
            Coord::new(vec![v as u32, g]),
            TimeSeries::new(values, spec.granularity),
        ));
    }

    let dataset = Dataset::from_base(schema, base).expect("generated base data is valid");
    GeneratedCube {
        dataset,
        level_cardinalities: vec![spec.base_cells, groups],
    }
}

/// FNV-1a fingerprint over every base series' exact bit patterns —
/// byte-identity of two generated cubes without holding both in memory.
pub fn cube_fingerprint(cube: &GeneratedCube) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
    let ds = &cube.dataset;
    let g = ds.graph();
    eat(&(g.base_nodes().len() as u64).to_le_bytes());
    for &b in g.base_nodes() {
        eat(&(b as u64).to_le_bytes());
        for v in ds.series(b).values() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_hierarchy_keeps_the_graph_linear() {
        let cube = generate_highcard(&HighCardSpec {
            base_cells: 200,
            groups: 10,
            ..HighCardSpec::new(200, 1)
        });
        let g = cube.dataset.graph();
        assert_eq!(g.base_nodes().len(), 200);
        // base + groups + top, nothing else.
        assert_eq!(g.node_count(), 200 + 10 + 1);
        assert_eq!(g.max_level(), 2);
    }

    #[test]
    fn aggregates_are_consistent_sums() {
        let cube = generate_highcard(&HighCardSpec::new(64, 7));
        let ds = &cube.dataset;
        let top = ds.graph().top_node();
        let expected: f64 = ds
            .graph()
            .base_nodes()
            .iter()
            .map(|&b| ds.series(b).values()[0])
            .sum();
        assert!((ds.series(top).values()[0] - expected).abs() < 1e-6 * expected.abs());
    }

    #[test]
    fn scales_are_heavy_tailed() {
        let cube = generate_highcard(&HighCardSpec::new(2_000, 11));
        let ds = &cube.dataset;
        let mut first: Vec<f64> = ds
            .graph()
            .base_nodes()
            .iter()
            .map(|&b| ds.series(b).values()[0])
            .collect();
        first.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f64 = first.iter().sum();
        let top_1pct: f64 = first[..20].iter().sum();
        // Pareto(1.3): the top 1 % of cells must carry a large share —
        // far beyond the 1 % a uniform distribution would give them.
        assert!(
            top_1pct / total > 0.10,
            "top 1% share {:.3} not heavy-tailed",
            top_1pct / total
        );
    }

    #[test]
    fn seasonality_is_controllable() {
        let no_season = generate_highcard(&HighCardSpec {
            seasonal_strength: 0.0,
            noise: 0.0,
            ..HighCardSpec::new(32, 3)
        });
        let seasonal = generate_highcard(&HighCardSpec {
            seasonal_strength: 0.5,
            noise: 0.0,
            ..HighCardSpec::new(32, 3)
        });
        let spread = |cube: &GeneratedCube| {
            let s = cube.dataset.series(cube.dataset.graph().base_nodes()[0]);
            let v = s.values();
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - mean).abs()).sum::<f64>() / v.len() as f64 / mean
        };
        assert!(spread(&no_season) < 0.05, "{}", spread(&no_season));
        assert!(spread(&seasonal) > 0.15, "{}", spread(&seasonal));
    }

    #[test]
    fn all_values_positive_and_finite() {
        let cube = generate_highcard(&HighCardSpec::new(128, 5));
        for v in 0..cube.dataset.node_count() {
            for x in cube.dataset.series(v).values() {
                assert!(x.is_finite() && *x > 0.0);
            }
        }
    }
}
