//! Frozen advisor evaluation: FNV-1a fingerprints over the `to_bits()` of
//! every value the advisor's evaluation phase computes, on Tourism, Sales
//! and Gen200, plus the default-options configurations of two Gen2000
//! cubes.
//!
//! * `Configuration::scheme_error` for every (`bench_config`-style model
//!   node, target) pair, and for every full-hyperedge aggregation;
//! * every node's estimate after `recompute_nodes` over all nodes;
//! * `measure_model_effect` — `err_new`, the improvements and `measured`
//!   — for every model of that configuration, measured on one fixed
//!   sparser configuration with the full neighbourhood;
//! * the configuration fingerprint (every node's error bits, scheme
//!   sources and weight bits, plus the model count) of a default-options
//!   advisor run on two Gen2000 cubes, the size `advise-genx` runs.
//!
//! The expected values were produced by the commit *before* the scheme
//! error and effect kernels were rewritten for speed and are the proof
//! that the rewrite changed no bit. They are never edited.
//!
//! To print the current values: `cargo test --test advisor_effect_goldens
//! -- --ignored --nocapture`.

use fdc::advisor::evaluation::measure_model_effect;
use fdc::advisor::{Advisor, AdvisorOptions};
use fdc::codec::hash::{fnv1a, FNV_OFFSET};
use fdc::cube::{Configuration, ConfiguredModel, CubeSplit, Dataset, NodeId};
use fdc::datagen::{generate_cube, sales_proxy, tourism_proxy, GenSpec};
use fdc::forecast::{FitOptions, ModelSpec};

/// A running fingerprint plus the number of values folded into it.
struct Fingerprint {
    hash: u64,
    count: usize,
}

impl Fingerprint {
    fn new() -> Self {
        Fingerprint {
            hash: FNV_OFFSET,
            count: 0,
        }
    }

    fn value(&mut self, v: f64) {
        self.hash = fnv1a(self.hash, &v.to_bits().to_le_bytes());
        self.count += 1;
    }

    fn word(&mut self, v: u64) {
        self.hash = fnv1a(self.hash, &v.to_le_bytes());
    }

    /// A scheme error, or a marker when some source has no model.
    fn error(&mut self, e: Option<f64>) {
        match e {
            Some(e) => self.value(e),
            None => self.word(u64::MAX),
        }
    }
}

fn datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("tourism", tourism_proxy(1)),
        ("sales", sales_proxy(1)),
        ("gen200", generate_cube(&GenSpec::new(200, 48, 11)).dataset),
    ]
}

/// `bench_config`'s model nodes: every aggregated node and every base
/// node with `id % 8 == 0`.
fn model_nodes(ds: &Dataset) -> Vec<NodeId> {
    let g = ds.graph();
    (0..ds.node_count())
        .filter(|&v| !g.is_base(v) || v % 8 == 0)
        .collect()
}

/// The `bench_config`-style configuration: default-spec models at the
/// model nodes, schemes recomputed over all nodes.
fn bench_config(ds: &Dataset, split: &CubeSplit) -> Configuration {
    let spec = ModelSpec::default_for_history(
        ds.series(0).granularity().seasonal_period(),
        split.train_len(),
    );
    let mut cfg = Configuration::new(ds.node_count());
    for v in model_nodes(ds) {
        let model = ConfiguredModel::fit(split, v, &spec, &FitOptions::default())
            .expect("fixture model fits");
        cfg.insert_model(v, model);
    }
    let all: Vec<NodeId> = (0..ds.node_count()).collect();
    cfg.recompute_nodes(ds, split, &all);
    cfg
}

fn scheme_errors(ds: &Dataset, split: &CubeSplit, cfg: &Configuration) -> Fingerprint {
    let mut fp = Fingerprint::new();
    for m in cfg.model_nodes() {
        for t in 0..ds.node_count() {
            fp.error(cfg.scheme_error(ds, split, &[m], t));
        }
    }
    for t in 0..ds.node_count() {
        for edge in ds.graph().edges(t) {
            fp.error(cfg.scheme_error(ds, split, &edge.children, t));
        }
    }
    fp
}

fn estimates(cfg: &Configuration) -> Fingerprint {
    let mut fp = Fingerprint::new();
    for v in 0..cfg.node_count() {
        let est = cfg.estimate(v);
        fp.value(est.error);
        let (sources, weight) = est
            .scheme
            .as_ref()
            .map_or((&[][..], f64::NAN), |s| (&s.sources[..], s.weight));
        fp.word(sources.len() as u64);
        for &s in sources {
            fp.word(s as u64);
        }
        fp.value(weight);
    }
    fp
}

/// The effect of every model of `bench` on a sparser configuration that
/// keeps the top node's model and two of every three others (in node
/// order). The models it lacks improve nodes, and those whose hyperedge
/// siblings it holds are measured in aggregations too.
fn effects(ds: &Dataset, split: &CubeSplit, bench: &Configuration) -> Fingerprint {
    let g = ds.graph();
    let mut cfg = Configuration::new(ds.node_count());
    for (i, (v, model)) in bench.models().enumerate() {
        if v == g.top_node() || i % 3 != 1 {
            cfg.insert_model(v, model.clone());
        }
    }
    let all: Vec<NodeId> = (0..ds.node_count()).collect();
    cfg.recompute_nodes(ds, split, &all);
    let mut fp = Fingerprint::new();
    for (v, model) in bench.models() {
        let effect = measure_model_effect(ds, split, &cfg, model, v, &all);
        fp.word(effect.source as u64);
        fp.value(effect.err_new);
        fp.word(effect.improvements.len() as u64);
        for &(t, e) in &effect.improvements {
            fp.word(t as u64);
            fp.value(e);
        }
        fp.word(effect.measured as u64);
    }
    fp
}

/// `(model count, fingerprint)` of a default-options advisor run.
fn advised(ds: &Dataset) -> Fingerprint {
    let outcome = Advisor::new(ds, AdvisorOptions::default()).unwrap().run();
    let mut fp = Fingerprint::new();
    fp.word(outcome.model_count as u64);
    let est = estimates(&outcome.configuration);
    fp.word(est.hash);
    fp.count = est.count;
    fp
}

fn current() -> Vec<(String, usize, u64)> {
    let mut out = Vec::new();
    let mut push = |name: String, fp: Fingerprint| out.push((name, fp.count, fp.hash));
    for (name, ds) in datasets() {
        let split = CubeSplit::new(&ds, 0.8);
        let cfg = bench_config(&ds, &split);
        push(
            format!("{name} scheme errors"),
            scheme_errors(&ds, &split, &cfg),
        );
        push(format!("{name} estimates"), estimates(&cfg));
        push(format!("{name} effects"), effects(&ds, &split, &cfg));
    }
    for seed in [1, 2] {
        let ds = generate_cube(&GenSpec::new(2000, 48, seed)).dataset;
        push(format!("gen2000 seed {seed} advised"), advised(&ds));
    }
    out
}

const PINNED: [(&str, usize, u64); 11] = [
    ("tourism scheme errors", 857, 0xe140_adb0_87fc_beaa),
    ("tourism estimates", 90, 0x3de6_e11d_7bf6_1bbf),
    ("tourism effects", 44, 0x35e1_c957_b9d3_3c5c),
    ("sales scheme errors", 1623, 0x28d3_2fd6_274d_8292),
    ("sales estimates", 104, 0x4fa2_326e_434e_649d),
    ("sales effects", 71, 0x2532_8cd7_3216_5fd7),
    ("gen200 scheme errors", 8601, 0x4fd9_69ed_6d1e_a55f),
    ("gen200 estimates", 430, 0x1abe_074b_829d_64d8),
    ("gen200 effects", 134, 0x485a_92b3_414c_1e71),
    ("gen2000 seed 1 advised", 4346, 0xf645_04a8_72ef_272e),
    ("gen2000 seed 2 advised", 4346, 0x61ff_81a2_b544_e334),
];

#[test]
fn advisor_evaluation_is_bit_identical_to_the_pinned_values() {
    let got = current();
    assert_eq!(got.len(), PINNED.len());
    for ((name, count, hash), (want_name, want_count, want_hash)) in got.iter().zip(PINNED) {
        assert_eq!(name, want_name);
        assert_eq!(
            (*count, *hash),
            (want_count, want_hash),
            "{name}: computed values changed"
        );
    }
}

#[test]
#[ignore = "prints the values this build produces"]
fn print_current_values() {
    for (name, count, hash) in current() {
        println!("    ({name:?}, {count}, {hash:#018x}),");
    }
}
