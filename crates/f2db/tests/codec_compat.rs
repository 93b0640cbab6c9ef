//! Version gate of the catalog's on-disk format.
//!
//! This build reads and writes exactly one catalog version. Older files
//! (version 1, pre-invalidation-epoch — no build since the epoch landed
//! has written one) and unknown future versions must both fail with a
//! clear, versioned error rather than a truncation mess. The bytes here
//! are hand-built to the version 1 layout, independently of the current
//! encoder.

use fdc_f2db::catalog::{MAGIC, VERSION};
use fdc_f2db::{Catalog, F2dbError};

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Hand-built VERSION 1 catalog: one node with a direct scheme and one
/// invalid SES model — written exactly as the v1 encoder did, with *no*
/// per-model epoch field between `rolling_error` and the model state.
fn v1_fixture() -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(MAGIC);
    b.extend_from_slice(&1u16.to_le_bytes());
    put_u64(&mut b, 1); // node_count
    b.push(1); // node 0: entry present
    put_u64(&mut b, 1); // scheme_sources.len()
    put_u64(&mut b, 0); // source node 0 (direct scheme)
    put_f64(&mut b, 1.0); // weight
    put_u64(&mut b, 1); // model_count
    put_u64(&mut b, 0); // model at node 0
    b.push(1); // invalid = true
    put_f64(&mut b, 0.125); // rolling_error
    b.push(0); // model spec tag: SES
    put_u64(&mut b, 1); // params.len()
    put_f64(&mut b, 0.4); // alpha
    put_u64(&mut b, 1); // state.len()
    put_f64(&mut b, 42.0); // level
    put_u64(&mut b, 20); // observations
    put_u64(&mut b, 1); // history_sums.len()
    put_f64(&mut b, 840.0);
    put_u64(&mut b, 0); // advances
    b
}

/// The storage error `version` is refused with; panics if it decodes.
fn refusal(version: u16) -> String {
    let mut bytes = v1_fixture();
    bytes[4..6].copy_from_slice(&version.to_le_bytes());
    match Catalog::decode(&bytes) {
        Err(F2dbError::Storage(msg)) => msg,
        Err(other) => panic!("expected a storage error, got {other:?}"),
        Ok(_) => panic!("a version {version} catalog decoded"),
    }
}

#[test]
fn future_version_fails_with_clear_versioned_error() {
    let msg = refusal(99);
    assert!(
        msg.contains("unsupported version 99"),
        "error must name the offending version: {msg}"
    );
    assert!(
        msg.contains(&format!("through {VERSION}")),
        "error must name the supported range: {msg}"
    );
}

#[test]
fn version_1_is_refused_not_migrated() {
    // A complete, well-formed version 1 file: the refusal is about the
    // version, not about its bytes.
    let msg = refusal(1);
    assert!(msg.contains("unsupported version 1 "), "{msg}");
    assert!(
        msg.contains(&format!("versions {VERSION} through {VERSION}")),
        "{msg}"
    );
}
