//! `Advisor::run` is a pure function of (data set, options): the model
//! cost it weighs is counted creation work, not a measured time, so the
//! same cube gives the same configuration on every run, machine and
//! thread count.
//!
//! A configuration's fingerprint is FNV-1a over every node's error bits,
//! scheme sources and weight bits, plus the model count, under default
//! options on Tourism, Sales, Energy and Gen200. Two in-process runs must
//! agree, and both must equal the pinned value.
//!
//! The advisor that weighed wall-clock creation time had no stable value
//! to pin: its configuration changed from run to run. The values below
//! were taken from the first build that costs models by counted work.
//! They must hold under `taskset -c 0` as on all cores.
//!
//! To print the current values: `cargo test --test advisor_determinism
//! -- --ignored --nocapture`.

use fdc::advisor::{Advisor, AdvisorOptions};
use fdc::codec::hash::{fnv1a, FNV_OFFSET};
use fdc::cube::{Configuration, Dataset};
use fdc::datagen::{energy_proxy, generate_cube, sales_proxy, tourism_proxy, GenSpec};

fn datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        ("tourism", tourism_proxy(1)),
        ("sales", sales_proxy(1)),
        ("energy", energy_proxy(1, 336)),
        ("gen200", generate_cube(&GenSpec::new(200, 48, 11)).dataset),
    ]
}

fn fingerprint(cfg: &Configuration) -> u64 {
    let mut hash = fnv1a(FNV_OFFSET, &(cfg.model_count() as u64).to_le_bytes());
    for v in 0..cfg.node_count() {
        let est = cfg.estimate(v);
        hash = fnv1a(hash, &est.error.to_bits().to_le_bytes());
        let (sources, weight) = est
            .scheme
            .as_ref()
            .map_or((&[][..], f64::NAN), |s| (&s.sources[..], s.weight));
        hash = fnv1a(hash, &(sources.len() as u64).to_le_bytes());
        for &s in sources {
            hash = fnv1a(hash, &(s as u64).to_le_bytes());
        }
        hash = fnv1a(hash, &weight.to_bits().to_le_bytes());
    }
    hash
}

/// `(name, model count, fingerprint)` of one default-options run.
fn advise(name: &'static str, ds: &Dataset) -> (&'static str, usize, u64) {
    let outcome = Advisor::new(ds, AdvisorOptions::default()).unwrap().run();
    (
        name,
        outcome.model_count,
        fingerprint(&outcome.configuration),
    )
}

const PINNED: [(&str, usize, u64); 4] = [
    ("tourism", 25, 0x6df1_65aa_72e3_bc8a),
    ("sales", 23, 0x0533_22a3_e70f_33d1),
    ("energy", 1, 0x7598_4650_7fcb_7ad1),
    ("gen200", 35, 0x21b6_1c17_65f1_418e),
];

#[test]
fn two_runs_give_the_pinned_configuration() {
    for ((name, ds), pinned) in datasets().iter().zip(PINNED) {
        let first = advise(name, ds);
        assert_eq!(advise(name, ds), first, "{name}: two runs differ");
        assert_eq!(first, pinned, "{name}: the configuration changed");
    }
}

#[test]
#[ignore = "prints the values this build produces"]
fn print_current_values() {
    for (name, ds) in datasets() {
        let (name, models, hash) = advise(name, &ds);
        println!("    ({name:?}, {models}, {hash:#018x}),");
    }
}
