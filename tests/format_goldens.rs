//! Frozen bytes: length and FNV-1a digest of one seeded sample of every
//! binary encoding, plus the hash-derived decisions other processes
//! must agree on (`place()`, the `Rng` stream, result fingerprints).
//!
//! The expected values were produced by the commit *before* the
//! formats moved onto `fdc-codec` and are the proof that the move
//! changed no byte. They are never edited: a change here means stored
//! catalogs, logs and shipped chunks no longer read back.
//!
//! To print the current values: `cargo test --test format_goldens --
//! --ignored --nocapture`.

mod common;

use fdc::datagen::{cube_fingerprint, GeneratedCube};
use fdc::f2db::{QueryResult, QueryRow};
use fdc::rng::Rng;
use fdc::router::placement::{place, score};

/// The digest of this file, kept local on purpose: the goldens must not
/// move when the workspace's own hash module does.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn encodings() -> Vec<(&'static str, Vec<u8>)> {
    let accuracy = common::accuracy();
    vec![
        ("F2DB catalog", common::catalog().1.encode()),
        ("F2CK checkpoint", common::checkpoint()),
        ("WalRecord untraced", common::record_untraced().encode()),
        ("WalRecord traced", common::record_traced().encode()),
        ("WAL frame", common::frame()),
        ("FDCSHIP chunk", common::chunk_bytes()),
        ("FDCA plane", common::plane_bytes()),
        ("MomentSummary", common::moments().encode()),
        ("KeyAccuracy windowed", accuracy[0].encode()),
        ("KeyAccuracy filling", accuracy[1].encode()),
        ("TDigest", common::digest().encode()),
        ("SketchBundle", common::bundle().encode()),
        ("FDCP placement", common::placement().encode().to_vec()),
    ]
}

const ENCODINGS: [(&str, usize, u64); 13] = [
    ("F2DB catalog", 1522, 0x929f_0f58_165e_8f7d),
    ("F2CK checkpoint", 6020, 0x1127_efac_1c6a_3b41),
    ("WalRecord untraced", 201, 0x471d_5e0f_c17c_d879),
    ("WalRecord traced", 113, 0x2a75_bd64_9862_1f68),
    ("WAL frame", 129, 0xc278_8807_3e3c_d12d),
    ("FDCSHIP chunk", 400, 0xac26_df36_6daa_937f),
    ("FDCA plane", 6860, 0x83ff_78b2_f073_59e7),
    ("MomentSummary", 57, 0x7b92_d3ca_ea05_2173),
    ("KeyAccuracy windowed", 181, 0xe039_6d83_12ea_d784),
    ("KeyAccuracy filling", 181, 0x37f5_9418_b6ed_80eb),
    ("TDigest", 597, 0x71ac_ed84_5054_dca7),
    ("SketchBundle", 1126, 0x008f_45b0_dc02_4a93),
    // Pinned when the format was introduced, not by the commit above.
    ("FDCP placement", 785, 0x2ffe_ca4f_eb59_8874),
];

#[test]
fn every_encoding_is_byte_identical_to_the_pinned_sample() {
    let got = encodings();
    assert_eq!(got.len(), ENCODINGS.len());
    for ((name, bytes), (want_name, want_len, want_digest)) in got.iter().zip(ENCODINGS) {
        assert_eq!(*name, want_name);
        assert_eq!(
            (bytes.len(), digest(bytes)),
            (want_len, want_digest),
            "{name}: encoded bytes changed"
        );
    }
}

const KEYS: [&str; 5] = ["Germany", "Spain", "cell-17", "", "p3,r2"];
const SHARDS: [&str; 3] = ["s0", "s1", "s2"];
const OWNERS: [&str; 5] = ["s1", "s0", "s1", "s2", "s2"];
const SCORE_GERMANY_S0: u64 = 0x127e_7d87_ebc7_6a76;

#[test]
fn placement_decisions_are_frozen() {
    for (key, owner) in KEYS.iter().zip(OWNERS) {
        assert_eq!(place(key, SHARDS), Some(owner), "owner of {key:?} moved");
    }
    assert_eq!(score("Germany", "s0"), SCORE_GERMANY_S0);
}

const RNG_SEED_1: [u64; 4] = [
    0xb3f2_af6d_0fc7_10c5,
    0x853b_5596_4736_4cea,
    0x92f8_9756_082a_4514,
    0x642e_1c7b_c266_a3a7,
];

#[test]
fn rng_stream_is_frozen() {
    let mut rng = Rng::seed_from_u64(1);
    let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(got, RNG_SEED_1);
}

fn result() -> QueryResult {
    QueryResult {
        rows: vec![
            QueryRow {
                node: 3,
                label: "holiday,NSW".to_string(),
                values: vec![(40, 101.5), (41, -0.0)],
                approx: None,
            },
            QueryRow {
                node: 19,
                label: "*,*".to_string(),
                values: vec![(40, 1e300)],
                approx: None,
            },
        ],
    }
}

const RESULT_FINGERPRINT: u64 = 0xdd49_840a_25de_9eac;
const EMPTY_RESULT_FINGERPRINT: u64 = 0xa8c7_f832_281a_39c5;

#[test]
fn result_fingerprint_is_frozen() {
    assert_eq!(result().fingerprint(), RESULT_FINGERPRINT);
    assert_eq!(
        QueryResult::default().fingerprint(),
        EMPTY_RESULT_FINGERPRINT
    );
}

fn cube() -> GeneratedCube {
    GeneratedCube {
        dataset: common::catalog_cube(),
        level_cardinalities: vec![4, 3],
    }
}

const CUBE_FINGERPRINT: u64 = 0x9b8e_96af_5f16_24e1;

#[test]
fn cube_fingerprint_is_frozen() {
    assert_eq!(cube_fingerprint(&cube()), CUBE_FINGERPRINT);
}

#[test]
#[ignore = "prints the values this build produces"]
fn print_current_values() {
    for (name, bytes) in encodings() {
        println!("    ({name:?}, {}, {:#018x}),", bytes.len(), digest(&bytes));
    }
    let owners: Vec<_> = KEYS.iter().map(|k| place(k, SHARDS).unwrap()).collect();
    println!("OWNERS = {owners:?}");
    println!("SCORE_GERMANY_S0 = {:#018x}", score("Germany", "s0"));
    let mut rng = Rng::seed_from_u64(1);
    let stream: Vec<String> = (0..4)
        .map(|_| format!("{:#018x}", rng.next_u64()))
        .collect();
    println!("RNG_SEED_1 = [{}]", stream.join(", "));
    println!("RESULT_FINGERPRINT = {:#018x}", result().fingerprint());
    println!(
        "EMPTY_RESULT_FINGERPRINT = {:#018x}",
        QueryResult::default().fingerprint()
    );
    println!("CUBE_FINGERPRINT = {:#018x}", cube_fingerprint(&cube()));
}
