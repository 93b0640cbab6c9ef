//! Shared fixtures, all deterministic in the seed they are given: the
//! GenX cube with its held-out insert stream, the two serving
//! configurations, and the scratch directory for logs and checkpoints.

use fdc_cube::{
    Configuration, ConfiguredModel, Coord, CubeSplit, Dataset, FunctionalDependency, NodeEstimate,
    NodeId, Schema, Scheme,
};
use fdc_datagen::{generate_cube, GenSpec};
use fdc_f2db::F2db;
use fdc_forecast::{FitOptions, ModelSpec, TimeSeries};
use fdc_hierarchical::BaselineOptions;
use std::path::PathBuf;

/// Points of every series loaded as history before the first op.
pub const HISTORY: usize = 48;
/// Horizon of the accuracy pass, and the largest horizon a query asks for.
pub const MAX_HORIZON: usize = 4;

/// SplitMix64 step: derives independent sub-seeds (per block, per
/// client) from the one `--seed`.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A GenX cube split into loaded history and a held-out tail.
///
/// The tail is replayed in order as the insert stream, so threshold
/// invalidation fires at the rate the SARIMA data warrants, and it is
/// the ground truth of the accuracy pass. Dimensions are ordered
/// coarsest first (`generate_cube` emits the leaf first): the router
/// places a base cell by its *leading* dimension values, and only with
/// the coarse dimension leading does a shard own whole sub-hierarchies.
pub struct Cube {
    /// The first [`HISTORY`] points of every series.
    pub history: Dataset,
    /// Every generated point; same node ids as `history`.
    pub full: Dataset,
    /// Per base node, the `{"dims":[…],"value":` prefix of its insert row.
    row_prefix: Vec<String>,
}

impl Cube {
    /// Generates `base_count` base series of `HISTORY + rounds` points.
    pub fn generate(base_count: usize, rounds: usize, seed: u64) -> Cube {
        assert!(rounds >= MAX_HORIZON, "the accuracy pass needs a tail");
        let generated = generate_cube(&GenSpec::new(base_count, HISTORY + rounds, seed)).dataset;
        let g = generated.graph();
        let old = g.schema();
        let last = old.dim_count() - 1;
        let dimensions = old.dimensions().iter().rev().cloned().collect();
        let dependencies = old
            .dependencies()
            .iter()
            .map(|fd| {
                FunctionalDependency::new(
                    last - fd.determinant,
                    last - fd.dependent,
                    fd.mapping.clone(),
                )
            })
            .collect();
        let schema = Schema::new(dimensions, dependencies).expect("reversed schema stays valid");
        let granularity = generated.series(0).granularity();
        let reversed = |n: NodeId| {
            let mut values = g.coord(n).values().to_vec();
            values.reverse();
            Coord::new(values)
        };
        let base_of = |len: usize| {
            g.base_nodes()
                .iter()
                .map(|&n| {
                    let values = generated.series(n).values()[..len].to_vec();
                    (reversed(n), TimeSeries::new(values, granularity))
                })
                .collect()
        };
        let history =
            Dataset::from_base(schema.clone(), base_of(HISTORY)).expect("history data set");
        let full = Dataset::from_base(schema, base_of(HISTORY + rounds)).expect("full data set");
        let hg = history.graph();
        let row_prefix = hg
            .base_nodes()
            .iter()
            .map(|&n| {
                let dims: Vec<String> = hg
                    .coord(n)
                    .values()
                    .iter()
                    .enumerate()
                    .map(|(d, &v)| {
                        format!("\"{}\"", hg.schema().dimensions()[d].values()[v as usize])
                    })
                    .collect();
                format!("{{\"dims\":[{}],\"value\":", dims.join(","))
            })
            .collect();
        Cube {
            history,
            full,
            row_prefix,
        }
    }

    /// Held-out rounds available to insert.
    pub fn rounds(&self) -> usize {
        self.full.series_len() - HISTORY
    }

    /// The `(base node, value)` rows of held-out round `r` (0-based).
    pub fn round_rows(&self, r: usize) -> Vec<(NodeId, f64)> {
        self.full
            .graph()
            .base_nodes()
            .iter()
            .map(|&n| (n, self.full.series(n).values()[HISTORY + r]))
            .collect()
    }

    /// Round `r` as an `/insert` body: one row per base series, which
    /// commits exactly one time stamp.
    pub fn round_body(&self, r: usize) -> String {
        let mut body = String::with_capacity(self.row_prefix.len() * 72);
        body.push_str("{\"rows\":[");
        for (i, (_, value)) in self.round_rows(r).into_iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&self.row_prefix[i]);
            body.push_str(&value.to_string());
            body.push('}');
        }
        body.push_str("]}");
        body
    }

    /// What `node` really did over the `horizon` steps that follow the
    /// history and `inserted` held-out rounds.
    pub fn truth(&self, node: NodeId, inserted: usize, horizon: usize) -> &[f64] {
        let from = HISTORY + inserted;
        &self.full.series(node).values()[from..from + horizon]
    }
}

/// The bits of every stored base value of `db`, node by node — what a
/// recovery must bring back exactly.
pub fn base_bits(db: &F2db) -> Vec<u64> {
    let ds = db.dataset();
    let bases = ds.graph().base_nodes().iter();
    bases
        .flat_map(|&n| ds.series(n).values().iter().map(|v| v.to_bits()))
        .collect()
}

/// The default model for the cube's seasonality and training length
/// (Holt-Winters additive on GenX).
pub fn default_spec(dataset: &Dataset, split: &CubeSplit) -> ModelSpec {
    ModelSpec::default_for_history(
        dataset.series(0).granularity().seasonal_period(),
        split.train_len(),
    )
}

/// `benchcfg`: default-spec models at every aggregated node and at
/// every base node with `id % 8 == 0`, schemes recomputed over all
/// nodes — direct, aggregation and disaggregation schemes all occur.
/// The advisor's own output is not served because its wall-clock cost
/// objective makes it differ from run to run.
pub fn bench_config(dataset: &Dataset) -> Configuration {
    let split = CubeSplit::new(dataset, 0.8);
    let spec = default_spec(dataset, &split);
    let fit = FitOptions::default();
    let g = dataset.graph();
    let mut cfg = Configuration::new(dataset.node_count());
    for v in 0..dataset.node_count() {
        if !g.coord(v).is_base() || v % 8 == 0 {
            let model = ConfiguredModel::fit(&split, v, &spec, &fit).expect("benchcfg model fits");
            cfg.insert_model(v, model);
        }
    }
    let all: Vec<NodeId> = (0..dataset.node_count()).collect();
    cfg.recompute_nodes(dataset, &split, &all);
    cfg
}

/// Every node served by its own model, as `fdc_hierarchical::direct`
/// builds it: derivation closures stay inside the node's subtree, so
/// on a partitioned deployment every node below the top is resident
/// on exactly one shard and a GROUP BY genuinely fans out.
pub fn own_model_config(dataset: &Dataset) -> Configuration {
    let split = CubeSplit::new(dataset, 0.8);
    let mut cfg = fdc_hierarchical::direct(dataset, &split, &BaselineOptions::default())
        .configuration
        .expect("direct yields a configuration");
    // `direct` adopts a node's own scheme only when it beats the
    // no-forecast error of 1.0; a node it left unserved would answer
    // every query with an error.
    for v in 0..dataset.node_count() {
        if cfg.estimate(v).scheme.is_none() {
            assert!(cfg.has_model(v), "node {v} has no model to serve it");
            cfg.set_estimate(
                v,
                NodeEstimate {
                    error: 1.0,
                    scheme: Some(Scheme {
                        sources: vec![v],
                        weight: 1.0,
                    }),
                },
            );
        }
    }
    cfg
}

/// A fresh, empty directory for one block's logs and checkpoints,
/// next to the benchmark binary (`<target>/benchmark/…`), so nothing
/// is written outside the checkout.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = output_dir().join(format!("run-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// `<target>/benchmark`, where traces and scratch data go.
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    // <target>/<profile>/benchmark → <target>/benchmark
    exe.ancestors()
        .nth(2)
        .expect("the binary lives in <target>/<profile>/")
        .join("benchmark")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_is_coarse_first_and_consistent() {
        let cube = Cube::generate(1000, 6, 11);
        let g = cube.history.graph();
        let cards: Vec<usize> = g
            .schema()
            .dimensions()
            .iter()
            .map(|d| d.cardinality())
            .collect();
        assert_eq!(cards, vec![10, 100, 1000]);
        assert_eq!(cube.history.node_count(), 1111);
        assert_eq!(cube.history.series_len(), HISTORY);
        assert_eq!(cube.rounds(), 6);
        // Aggregates are sums of the base series, history is a prefix.
        let top = g.top_node();
        let sum: f64 = g
            .base_nodes()
            .iter()
            .map(|&b| cube.full.series(b).values()[HISTORY])
            .sum();
        assert!((cube.truth(top, 0, 1)[0] - sum).abs() < 1e-6 * sum.abs());
        assert_eq!(
            cube.history.series(top).values(),
            &cube.full.series(top).values()[..HISTORY]
        );
    }

    #[test]
    fn benchcfg_mixes_scheme_kinds_and_serves_every_node() {
        let cube = Cube::generate(1000, MAX_HORIZON, 11);
        let cfg = bench_config(&cube.history);
        assert_eq!(cfg.model_count(), 237);
        let mut kinds = std::collections::BTreeSet::new();
        for v in 0..cube.history.node_count() {
            let scheme = cfg
                .estimate(v)
                .scheme
                .as_ref()
                .expect("every node is served");
            let kind = fdc_cube::derive::classify_scheme(&cube.history, &scheme.sources, v);
            kinds.insert(format!("{kind:?}"));
        }
        for kind in ["Direct", "Aggregation", "Disaggregation"] {
            assert!(kinds.contains(kind), "no {kind} scheme in {kinds:?}");
        }
    }

    #[test]
    fn own_model_config_serves_every_node_from_itself() {
        let cube = Cube::generate(120, MAX_HORIZON, 5);
        let cfg = own_model_config(&cube.history);
        for v in 0..cube.history.node_count() {
            let scheme = cfg
                .estimate(v)
                .scheme
                .as_ref()
                .expect("every node is served");
            assert_eq!(scheme.sources, vec![v]);
        }
    }

    #[test]
    fn sub_seeds_differ() {
        assert_ne!(mix_seed(1, 0), mix_seed(1, 1));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
        assert_eq!(mix_seed(9, 4), mix_seed(9, 4));
    }
}
