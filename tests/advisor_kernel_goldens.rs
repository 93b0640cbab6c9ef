//! Frozen advisor kernels: FNV-1a fingerprints over the `to_bits()` of
//! every value the advisor's selection and deletion pricing compute, on
//! Tourism, Sales and Gen200.
//!
//! * every `LocalIndicator::compute` value and target order, for every
//!   source, at full coverage and at `|I| = 16`;
//! * the global indicator and `IndicatorStore::mean_without` for every
//!   installed source after inserting the top node and ten seeded
//!   sources, then again after a replace and a removal;
//! * `CubeSplit::train_weight` for every (model node, target) pair of a
//!   `bench_config`-style model set, plus every full-hyperedge
//!   aggregation;
//! * on Tourism, `Configuration::deletion_error` of every model holder
//!   of one fixed configuration.
//!
//! The expected values were produced by the commit *before* these
//! kernels were rewritten for speed and are the proof that the rewrite
//! changed no bit. They are never edited.
//!
//! To print the current values: `cargo test --test advisor_kernel_goldens
//! -- --ignored --nocapture`.

use fdc::advisor::{IndicatorOptions, IndicatorStore, LocalIndicator};
use fdc::codec::hash::{fnv1a, FNV_OFFSET};
use fdc::cube::{Configuration, ConfiguredModel, CubeSplit, Dataset, NodeId};
use fdc::datagen::{generate_cube, sales_proxy, tourism_proxy, GenSpec};
use fdc::forecast::{FitOptions, ModelSpec};
use fdc::rng::Rng;

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

    fn node(&mut self, v: NodeId) {
        self.hash = fnv1a(self.hash, &(v as u64).to_le_bytes());
    }
}

fn datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("tourism", tourism_proxy(1)),
        ("sales", sales_proxy(1)),
        ("gen200", generate_cube(&GenSpec::new(200, 48, 11)).dataset),
    ]
}

fn split(ds: &Dataset) -> CubeSplit {
    CubeSplit::new(ds, 0.8)
}

fn local_indicators(ds: &Dataset, size: usize) -> Fingerprint {
    let options = IndicatorOptions::new(size, split(ds).train_len());
    let mut fp = Fingerprint::new();
    for source in 0..ds.node_count() {
        let local = LocalIndicator::compute(ds, source, &options);
        fp.node(local.source);
        for (&t, &v) in local.targets.iter().zip(&local.values) {
            fp.node(t);
            fp.value(v);
        }
    }
    fp
}

/// The top node plus ten distinct seeded sources, in insertion order.
fn seeded_sources(ds: &Dataset) -> Vec<NodeId> {
    let top = ds.graph().top_node();
    let mut rng = Rng::seed_from_u64(0x1D1C);
    let mut sources = vec![top];
    while sources.len() < 11 {
        let v = rng.usize_below(ds.node_count());
        if !sources.contains(&v) {
            sources.push(v);
        }
    }
    sources
}

fn store_scores(ds: &Dataset) -> Fingerprint {
    let options = IndicatorOptions::new(ds.node_count(), split(ds).train_len());
    let sources = seeded_sources(ds);
    let mut store = IndicatorStore::new(ds.node_count());
    for &s in &sources {
        store.insert(LocalIndicator::compute(ds, s, &options));
    }
    let mut fp = Fingerprint::new();
    let fold = |fp: &mut Fingerprint, store: &IndicatorStore| {
        for &g in store.global() {
            fp.value(g);
        }
        fp.value(store.global_mean());
        for local in store.locals() {
            fp.node(local.source);
            fp.value(store.mean_without(local.source));
        }
    };
    fold(&mut fp, &store);
    // Replacing an installed source, then removing one.
    store.insert(LocalIndicator::compute(ds, sources[3], &options));
    fold(&mut fp, &store);
    store.remove(sources[5]);
    fold(&mut fp, &store);
    fp
}

/// `bench_config`'s model nodes: every aggregated node and every base
/// node with `id % 8 == 0`.
fn model_nodes(ds: &Dataset) -> Vec<NodeId> {
    let g = ds.graph();
    (0..ds.node_count())
        .filter(|&v| !g.is_base(v) || v % 8 == 0)
        .collect()
}

fn train_weights(ds: &Dataset) -> Fingerprint {
    let split = split(ds);
    let mut fp = Fingerprint::new();
    for m in model_nodes(ds) {
        for t in 0..ds.node_count() {
            fp.value(split.train_weight(ds, &[m], t));
        }
    }
    for t in 0..ds.node_count() {
        for edge in ds.graph().edges(t) {
            fp.value(split.train_weight(ds, &edge.children, t));
        }
    }
    fp
}

/// One fixed Tourism configuration: Holt-Winters at the top node and at
/// every third aggregated node, plus every eighth base node.
fn deletion_errors() -> Fingerprint {
    let ds = tourism_proxy(1);
    let split = split(&ds);
    let spec = ModelSpec::default_for_history(
        ds.series(0).granularity().seasonal_period(),
        split.train_len(),
    );
    let g = ds.graph();
    let mut cfg = Configuration::new(ds.node_count());
    for v in 0..ds.node_count() {
        if v == g.top_node() || v % if g.is_base(v) { 8 } else { 3 } == 0 {
            let model = ConfiguredModel::fit(&split, v, &spec, &FitOptions::default())
                .expect("fixture model fits");
            cfg.insert_model(v, model);
        }
    }
    let all: Vec<NodeId> = (0..ds.node_count()).collect();
    cfg.recompute_nodes(&ds, &split, &all);
    let mut fp = Fingerprint::new();
    for v in cfg.model_nodes() {
        fp.node(v);
        fp.value(cfg.deletion_error(&ds, &split, v).expect("a model holder"));
    }
    fp
}

fn current() -> Vec<(String, usize, u64)> {
    let mut out = Vec::new();
    let mut push = |name: String, fp: Fingerprint| out.push((name, fp.count, fp.hash));
    for (name, ds) in datasets() {
        push(
            format!("{name} local indicators"),
            local_indicators(&ds, ds.node_count()),
        );
        push(
            format!("{name} local indicators |I|=16"),
            local_indicators(&ds, 16),
        );
        push(format!("{name} store scores"), store_scores(&ds));
        push(format!("{name} train weights"), train_weights(&ds));
    }
    push("tourism deletion errors".to_string(), deletion_errors());
    out
}

const PINNED: [(&str, usize, u64); 13] = [
    ("tourism local indicators", 2025, 0x34fd_123a_8009_c2e8),
    (
        "tourism local indicators |I|=16",
        720,
        0xe517_2d89_9ba5_80af,
    ),
    ("tourism store scores", 170, 0x2fb1_7c90_202e_e08e),
    ("tourism train weights", 869, 0x4bb4_477d_0b14_c6bf),
    ("sales local indicators", 2704, 0xb3cd_4830_5b51_ff9b),
    ("sales local indicators |I|=16", 832, 0x7917_c91e_558c_db44),
    ("sales store scores", 191, 0xc545_b665_17e2_bad5),
    ("sales train weights", 1641, 0x8e43_291d_9ac0_9976),
    ("gen200 local indicators", 46225, 0x6663_9eec_0f21_ee10),
    (
        "gen200 local indicators |I|=16",
        3440,
        0x39a9_6f5a_38f0_e318,
    ),
    ("gen200 store scores", 680, 0xa6a2_1352_0b79_9918),
    ("gen200 train weights", 8615, 0x55c1_b66d_dac0_f641),
    ("tourism deletion errors", 9, 0xd9af_ff94_e97f_823f),
];

#[test]
fn advisor_kernels_are_bit_identical_to_the_pinned_values() {
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
