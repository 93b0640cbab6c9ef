//! Every decoder and parser is total: arbitrary bytes give a typed
//! error or a value that survives use — never a panic, never an abort.
//!
//! One seeded mutation driver runs over every binary format (the
//! samples `format_goldens.rs` pins, plus a WAL segment as `Wal::open`
//! reads it) and then over every text parser. A format gets, per
//! sample: every truncation prefix, bit flips, every 4- and 8-byte
//! window overwritten with `0`, `1`, a power of two and `MAX`, single
//! bytes replaced by structural characters, splices with another
//! sample, and appended garbage. The inputs that crashed a decoder
//! before the formats moved onto `fdc-codec` are kept as named cases.

mod common;

use common::mutate::{apply, mutations};
use fdc::approx::{decode_plane, encode_plane, ApproxQuerySpec};
use fdc::codec::hash::{fnv1a, FNV_OFFSET};
use fdc::codec::{json, Writer};
use fdc::cube::{
    Configuration, ConfiguredModel, Coord, CubeSplit, Dataset, Dimension, NodeId, Schema,
};
use fdc::f2db::durability::{decode_checkpoint, encode_checkpoint};
use fdc::f2db::{parse_query, Catalog, F2db, MaintenancePolicy, Placement, QueryMode, WalRecord};
use fdc::forecast::{FitOptions, Granularity, ModelSpec, TimeSeries};
use fdc::obs::httpcore::{RequestError, RequestReader};
use fdc::obs::{KeyAccuracy, MomentSummary, SketchBundle, TDigest, TraceContext};
use fdc::rng::Rng;
use fdc::router::Topology;
use fdc::serve::wire;
use fdc::wal::{decode_chunk, decode_frame, encode_chunk, encode_frame, Wal, WalOptions};
use std::io::Write as _;
use std::net::{Ipv4Addr, Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Duration;

// ---------------------------------------------------------------------
// The mutation driver (the mutations themselves: `common/mutate.rs`)
// ---------------------------------------------------------------------

/// Runs `check` on every sample and on every mutation of every sample.
/// `check` decodes and uses what decoded; a panic inside it fails the
/// test, naming the mutation.
fn drive(name: &str, samples: &[Vec<u8>], check: &mut dyn FnMut(&[u8])) {
    let mut rng = Rng::seed_from_u64(samples.iter().map(|s| s.len() as u64).sum());
    let mut ran = 0;
    for index in 0..samples.len() {
        check(&samples[index]);
        for mutation in mutations(samples, index, &mut rng) {
            let bytes = apply(samples, index, mutation);
            if let Err(panic) = catch_unwind(AssertUnwindSafe(|| check(&bytes))) {
                eprintln!("{name}: sample {index} panicked under {mutation:?}");
                resume_unwind(panic);
            }
            ran += 1;
        }
    }
    assert!(ran >= 2000, "{name}: only {ran} mutations ran");
}

// ---------------------------------------------------------------------
// Binary formats
// ---------------------------------------------------------------------

/// Uses a decoded catalog the way the engine does: re-encode, forecast
/// every node, and — when it covers `dataset` — absorb one time stamp,
/// which updates every model and refreshes every weight.
fn use_catalog(catalog: &Catalog, dataset: &Dataset) {
    let _ = catalog.encode();
    for v in 0..catalog.node_count().min(64) {
        let _ = catalog.forecast(v, 3);
    }
    if catalog.node_count() == dataset.node_count() && dataset.series_len() > 0 {
        catalog.advance_time(dataset, dataset.series_len() - 1, &MaintenancePolicy::None);
    }
}

#[test]
fn catalog_decoder_is_total() {
    let (ds, big) = common::catalog();
    let (_, small) = common::small_catalog();
    let samples = [big.encode(), small.encode()];
    assert!(Catalog::decode(&samples[0]).is_ok() && Catalog::decode(&samples[1]).is_ok());
    drive("F2DB catalog", &samples, &mut |bytes| {
        if let Ok(catalog) = Catalog::decode(bytes) {
            use_catalog(&catalog, &ds);
        }
    });
}

#[test]
fn checkpoint_decoder_is_total() {
    // Small cubes: most mutations land in series values, decode, and
    // pay for rebuilding the data set.
    let samples = [
        common::small_checkpoint(),
        common::small_checkpoint_with_pending(),
    ];
    let schema = common::small_catalog().0.graph().schema().clone();
    assert!(decode_checkpoint(&samples[0]).is_ok() && decode_checkpoint(&samples[1]).is_ok());
    assert!(decode_checkpoint(&common::checkpoint()).is_ok());
    // What `F2db::open_catalog` does with a container, in memory.
    drive("F2CK checkpoint", &samples, &mut |bytes| {
        let Ok(cp) = decode_checkpoint(bytes) else {
            return;
        };
        let catalog = Catalog::decode(&cp.catalog_bytes);
        let Ok(ds) = Dataset::from_base(schema.clone(), cp.base) else {
            return;
        };
        let _ = encode_checkpoint(cp.wal_seq, &cp.pending, &ds, &cp.catalog_bytes);
        if let Ok(catalog) = catalog {
            use_catalog(&catalog, &ds);
        }
    });
}

#[test]
fn wal_record_decoder_is_total() {
    let samples = [
        common::record_untraced().encode(),
        common::record_traced().encode(),
    ];
    drive("WalRecord", &samples, &mut |bytes| {
        let _ = WalRecord::peek_trace(bytes);
        if let Ok(record) = WalRecord::decode(bytes) {
            assert_eq!(
                record.encode(),
                bytes,
                "a decoded record re-encodes to itself"
            );
        }
    });
}

#[test]
fn frame_decoder_is_total() {
    let samples = [common::frame(), encode_frame(1, b"")];
    drive("WAL frame", &samples, &mut |bytes| {
        let _ = decode_frame(bytes, Some(9));
        if let Ok(frame) = decode_frame(bytes, None) {
            assert_eq!(
                encode_frame(frame.seq, &frame.payload),
                bytes[..frame.encoded_len]
            );
            let _ = WalRecord::decode(&frame.payload);
        }
    });
}

#[test]
fn chunk_decoder_is_total() {
    let mut empty = common::chunk();
    empty.frames.clear();
    let samples = [common::chunk_bytes(), encode_chunk(&empty)];
    drive("FDCSHIP chunk", &samples, &mut |bytes| {
        if let Ok(chunk) = decode_chunk(bytes) {
            // (Not byte-for-byte: an empty chunk's first-sequence field
            // is ignored.)
            assert_eq!(decode_chunk(&encode_chunk(&chunk)), Ok(chunk.clone()));
            for (_, payload) in &chunk.frames {
                let _ = WalRecord::decode(payload);
            }
        }
    });
}

#[test]
fn plane_decoder_is_total() {
    let samples = [
        common::small_seasonal_plane_bytes(),
        common::small_plane_bytes(),
    ];
    assert!(decode_plane(&common::plane_bytes(), FitOptions::default()).is_ok());
    let exact = ApproxQuerySpec::default();
    let budgeted = ApproxQuerySpec {
        budget: Some(3),
        target_ci: Some(0.05),
        ..ApproxQuerySpec::default()
    };
    drive("FDCA plane", &samples, &mut |bytes| {
        let Ok(mut plane) = decode_plane(bytes, FitOptions::default()) else {
            return;
        };
        let _ = encode_plane(&plane);
        for node in plane.registered_nodes().into_iter().take(8) {
            let _ = plane.node_info(node);
            let _ = plane.estimate(node, 3, &exact);
            let _ = plane.estimate(node, 3, &budgeted);
        }
        for cell in 0..64 {
            plane.observe(cell, 1.0);
        }
    });
}

#[test]
fn sketch_decoders_are_total() {
    let (valid_moments, valid_digest) = (common::moments(), common::digest());
    let moments = [valid_moments.encode(), MomentSummary::new().encode()];
    drive("MomentSummary", &moments, &mut |bytes| {
        if let Ok(mut s) = MomentSummary::decode(bytes) {
            assert_eq!(s.encode(), bytes);
            s.insert(1.0);
            let _ = (s.merge(&valid_moments), s.stddev(), s.skewness());
        }
    });

    let accuracy: Vec<Vec<u8>> = common::accuracy().iter().map(|a| a.encode()).collect();
    drive("KeyAccuracy", &accuracy, &mut |bytes| {
        if let Ok(a) = KeyAccuracy::decode(bytes) {
            assert_eq!(a.encode(), bytes);
            let _ = (a.merge(&a), a.total());
        }
    });

    let digests = [valid_digest.encode(), TDigest::default().encode()];
    drive("TDigest", &digests, &mut |bytes| {
        if let Ok(mut d) = TDigest::decode(bytes) {
            let _ = d.encode();
            let _ = (d.quantile(0.5), d.quantile(0.999), d.count());
            d.insert(1.0);
            d.merge(&valid_digest);
            let _ = d.quantile(0.5);
        }
    });

    let bundles = [common::bundle().encode(), SketchBundle::default().encode()];
    drive("SketchBundle", &bundles, &mut |bytes| {
        if let Ok(bundle) = SketchBundle::decode(bytes) {
            // (Not byte-for-byte: an empty digest's min and max are
            // normalised.) Re-encoding is a fixed point.
            let encoded = bundle.encode();
            let again = SketchBundle::decode(&encoded).map(|b| b.encode());
            assert!(
                again.as_ref() == Ok(&encoded),
                "re-encoding is not a fixed point"
            );
        }
    });
}

/// Uses a decoded placement map the way a router does: plans, labels,
/// closures and keys of every node, and the encoding read back.
fn use_placement(map: &Placement) {
    assert_eq!(
        Placement::decode(map.encode()).unwrap().encode(),
        map.encode()
    );
    let g = map.graph();
    for v in 0..g.node_count() {
        let _ = (map.label(v), map.closure(v));
    }
    for &b in g.base_nodes() {
        let _ = (map.key(b, 0), map.key(b, 1));
    }
    let dims = g.schema().dimensions();
    let group = format!("GROUP BY time, {}", dims[dims.len() - 1].name());
    for sql in ["GROUP BY time", group.as_str()] {
        let sql = format!("SELECT time, SUM(v) FROM facts {sql} AS OF now() + '1 steps'");
        let _ = map.plan(&sql, QueryMode::Forecast, None);
        let _ = map.plan(&sql, QueryMode::Explain, Some(&[0, 3]));
    }
}

#[test]
fn placement_decoder_is_total() {
    let samples = [common::placement().encode().to_vec()];
    // Sealed: the fingerprint refuses every change, so whatever decodes
    // is a sample (a mutation that rewrote a byte to itself).
    drive("FDCP placement", &samples, &mut |bytes| {
        if let Ok(map) = Placement::decode(bytes) {
            assert!(samples.iter().any(|s| s == bytes), "a changed map decoded");
            use_placement(&map);
        }
    });
    // Resealed: the same mutations with the fingerprint recomputed, so
    // the structure under it is what is tried.
    drive("FDCP placement, resealed", &samples, &mut |bytes| {
        let body = &bytes[..bytes.len().saturating_sub(8)];
        let mut w = Writer::new();
        w.bytes(body);
        w.u64(fnv1a(FNV_OFFSET, body));
        if let Ok(map) = Placement::decode(&w.finish()) {
            use_placement(&map);
        }
    });
}

#[test]
fn wal_segment_replay_is_total() {
    let dir = std::env::temp_dir().join(format!("fdc_total_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = || WalOptions {
        fsync: false,
        ..WalOptions::default()
    };
    let segment = |payloads: &[Vec<u8>]| {
        let (wal, _) = Wal::open(&dir, options()).expect("fresh log");
        for p in payloads {
            wal.append(p).expect("append");
        }
        drop(wal);
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "log"))
            .expect("one segment");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        (path, bytes)
    };
    let (path, three) = segment(&[b"first".to_vec(), Vec::new(), b"the third".to_vec()]);
    let (_, one) = segment(&[b"only".to_vec()]);
    drive("WAL segment", &[three, one], &mut |bytes| {
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, bytes).unwrap();
        if let Ok((wal, recovery)) = Wal::open(&dir, options()) {
            assert!(recovery.records.len() <= 3);
            let seq = wal
                .append(b"after recovery")
                .expect("a recovered log appends");
            assert_eq!(seq, recovery.last_seq + 1);
            let _ = wal.ship_chunk(0, 1 << 20);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    });
}

// ---------------------------------------------------------------------
// The inputs that crashed a decoder before this harness existed
// ---------------------------------------------------------------------

fn chunk_header(first_seq: u64, count: u32) -> Writer {
    let mut w = Writer::new();
    w.header(b"FDCSHIP\0", 1);
    w.u64(0);
    w.u64(0);
    w.u64(first_seq);
    w.u32(count);
    w
}

/// 38 bytes asking for `u32::MAX` frames: a 137 GB `with_capacity`.
#[test]
fn crash_case_chunk_count_max() {
    let bytes = chunk_header(1, u32::MAX).finish();
    assert_eq!(bytes.len(), 38);
    assert!(matches!(
        decode_chunk(&bytes),
        Err(fdc::wal::ShipError::Truncated { .. })
    ));
}

/// Frame sequence numbers running past `u64::MAX`: `first_seq + i`
/// overflowed (a panic in debug, a silent wrap to seq 0 in release).
#[test]
fn crash_case_chunk_first_seq_max() {
    let mut w = chunk_header(u64::MAX, 2);
    w.bytes(&encode_frame(u64::MAX, b""));
    w.bytes(&encode_frame(0, b""));
    assert!(matches!(
        decode_chunk(&w.finish()),
        Err(fdc::wal::ShipError::Corrupt { .. })
    ));
}

/// A 14-byte catalog declaring 2^39 nodes: a 16 TiB `with_capacity`.
#[test]
fn crash_case_catalog_count_2_39() {
    let mut w = Writer::new();
    w.header(b"F2DB", 2);
    w.u64(1 << 39);
    let bytes = w.finish();
    assert_eq!(bytes.len(), 14);
    assert!(Catalog::decode(&bytes).is_err());
}

/// A 71-byte plane declaring 2^39 nodes: a 36 TB `HashMap`.
#[test]
fn crash_case_plane_count_2_39() {
    let mut w = Writer::new();
    w.header(b"FDCA", 1);
    for v in [4, 16, 7, 100, 64] {
        w.u64(v);
    }
    w.f64(0.95);
    w.u8(0); // spec: SES
    w.f64s(&[]);
    w.u64(1 << 39);
    let bytes = w.finish();
    assert_eq!(bytes.len(), 71);
    assert!(decode_plane(&bytes, FitOptions::default()).is_err());
}

/// A sealed placement map over the flat schema `d0 ∈ {a, b}` ×
/// `d1 ∈ {x, y}` with the given base coordinates and `rows` source rows,
/// none of them serving its node.
fn placement_map(bases: &[[u32; 2]], rows: usize) -> Vec<u8> {
    let mut w = Writer::new();
    w.header(b"FDCP", 1);
    w.len(2);
    let text = |w: &mut Writer, text: &str| {
        w.len(text.len());
        w.bytes(text.as_bytes());
    };
    for (name, labels) in [("d0", ["a", "b"]), ("d1", ["x", "y"])] {
        text(&mut w, name);
        w.len(labels.len());
        for label in labels {
            text(&mut w, label);
        }
    }
    w.len(0); // dependencies
    w.len(bases.len());
    for base in bases {
        w.u32(base[0]);
        w.u32(base[1]);
    }
    w.len(rows);
    for _ in 0..rows {
        w.u8(0);
    }
    let body = w.finish();
    let mut w = Writer::new();
    w.bytes(&body);
    w.u64(fnv1a(FNV_OFFSET, &body));
    w.finish()
}

/// Two bases on the diagonal make a graph of seven nodes: themselves,
/// both values of each dimension aggregated, and the top.
#[test]
fn placement_with_a_source_row_per_node_decodes() {
    let map = Placement::decode(&placement_map(&[[0, 0], [1, 1]], 7)).unwrap();
    assert_eq!(map.graph().node_count(), 7);
}

/// A map whose graph does not build — a base coordinate twice — is an
/// error, fingerprint and all.
#[test]
fn placement_whose_graph_does_not_build_is_an_error() {
    let err = Placement::decode(&placement_map(&[[0, 0], [0, 0]], 7)).unwrap_err();
    assert!(err.to_string().contains("placement graph"), "{err}");
}

/// A source table that is not one row per graph node is an error.
#[test]
fn placement_whose_source_table_disagrees_is_an_error() {
    for rows in [6, 8] {
        let err = Placement::decode(&placement_map(&[[0, 0], [1, 1]], rows)).unwrap_err();
        assert!(err.to_string().contains("its graph has 7"), "{rows}: {err}");
    }
}

/// A one-node catalog whose only model has the given encoded spec,
/// parameters and state.
fn one_model_catalog(spec: impl FnOnce(&mut Writer), params: &[f64], state: &[f64]) -> Vec<u8> {
    let mut w = Writer::new();
    w.header(b"F2DB", 2);
    w.len(1); // nodes
    w.u8(1); // node 0 has an entry
    w.len(1);
    w.u64(0); // derived from itself
    w.f64(1.0);
    w.len(1); // models
    w.u64(0);
    w.u8(0);
    w.f64(0.0);
    w.u64(0);
    spec(&mut w);
    w.f64s(params);
    w.f64s(state);
    w.len(20); // observations
    w.f64s(&[840.0]);
    w.u64(0);
    w.finish()
}

/// Holt-Winters with period 0 decoded fine, then took `% 0` on its
/// first forecast.
#[test]
fn crash_case_holt_winters_period_zero() {
    let bytes = one_model_catalog(
        |w| {
            w.u8(2);
            w.u64(0);
            w.u8(0);
        },
        &[0.3, 0.1, 0.2],
        &[10.0, 1.0],
    );
    assert!(Catalog::decode(&bytes).is_err());
    // The same bytes with a real period decode and forecast.
    let bytes = one_model_catalog(
        |w| {
            w.u8(2);
            w.u64(2);
            w.u8(0);
        },
        &[0.3, 0.1, 0.2],
        &[10.0, 1.0, 0.5, -0.5],
    );
    let catalog = Catalog::decode(&bytes).expect("a well-formed Holt-Winters state");
    assert_eq!(catalog.forecast(0, 3).map(|f| f.len()), Some(3));
}

/// ARIMA orders summed unchecked: `p = usize::MAX, q = 1` wrapped to 0
/// (a panic in debug; in release a slice split past its end).
#[test]
fn crash_case_arima_order_overflow() {
    let bytes = one_model_catalog(
        |w| {
            w.u8(3);
            w.u64(u64::MAX);
            w.u64(0);
            w.u64(1);
        },
        &[],
        &[0.0],
    );
    assert!(Catalog::decode(&bytes).is_err());
}

/// A stored model whose invalidation epoch decodes as `u64::MAX`: the
/// next invalidation's `epoch += 1` overflowed (a panic in debug, a wrap
/// to epoch 0 in release) at each of the three places that invalidate.
#[test]
fn crash_case_epoch_max() {
    let (mut ds, catalog) = common::small_catalog();
    let top = ds.graph().top_node();
    // Invalidating flips the model's flag and takes its epoch from 0 to
    // 1: the two bytes that differ are the flag and, behind the rolling
    // error, the epoch's lowest byte.
    let plain = catalog.encode();
    assert!(catalog.invalidate(top));
    let changed: Vec<usize> = (0..plain.len())
        .filter(|&i| plain[i] != catalog.encode()[i])
        .collect();
    let [flag, epoch] = changed[..] else {
        panic!("expected the flag and the epoch to differ, found {changed:?}");
    };
    assert_eq!(epoch, flag + 9);
    let mut bytes = plain;
    bytes[epoch..epoch + 8].fill(0xff);

    // One more time stamp, for the advance to absorb.
    let round: Vec<(NodeId, f64)> = ds.graph().base_nodes().iter().map(|&b| (b, 50.0)).collect();
    ds.advance_time(&round).expect("a full round");
    let policy = MaintenancePolicy::TimeBased { every: 1 };
    let invalidations: [&dyn Fn(&Catalog) -> bool; 3] =
        [&|c| c.invalidate(top), &|c| c.invalidate_all() == 1, &|c| {
            c.advance_time(&ds, ds.series_len() - 1, &policy)
                .invalidations
                == 1
        }];
    for invalidate in invalidations {
        let catalog = Catalog::decode(&bytes).expect("the epoch is any u64");
        assert_eq!(catalog.epoch(top), Some(u64::MAX));
        assert!(invalidate(&catalog), "the model was valid");
        assert!(catalog.is_invalid(top));
        assert_eq!(catalog.epoch(top), Some(u64::MAX), "the epoch saturates");
    }
}

/// A checkpoint marker holding `u64::MAX`: `Wal::open` computed the
/// sequence number to resume at with `+ 1` — `checkpoint_seq + 1` with
/// a segment in the directory, `last_seq + 1` without one.
#[test]
fn crash_case_checkpoint_seq_max() {
    let dir = std::env::temp_dir().join(format!("fdc_total_marker_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = || WalOptions {
        fsync: false,
        ..WalOptions::default()
    };
    let marker = format!("fdc-wal-checkpoint v1\n{}\n", u64::MAX);
    let open_is_corrupt = || {
        std::fs::write(dir.join(fdc::wal::CHECKPOINT_FILE), &marker).unwrap();
        assert!(matches!(
            Wal::open(&dir, options()),
            Err(fdc::wal::WalError::Corrupt { .. })
        ));
    };
    // The marker alone, then beside a segment holding one record.
    std::fs::create_dir_all(&dir).unwrap();
    open_is_corrupt();
    std::fs::remove_dir_all(&dir).unwrap();
    let (wal, _) = Wal::open(&dir, options()).expect("fresh log");
    wal.append(b"a record").expect("append");
    drop(wal);
    open_is_corrupt();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A 37-byte digest with compression 1e18 passed the `>= 20` check and
/// asked `TDigest::new` for a 4e18-element buffer.
#[test]
fn crash_case_digest_compression_1e18() {
    let mut w = Writer::new();
    w.u8(1);
    for v in [1e18, 0.0, 0.0, 0.0] {
        w.f64(v);
    }
    w.u32(0);
    let bytes = w.finish();
    assert_eq!(bytes.len(), 37);
    assert_eq!(
        TDigest::decode(&bytes),
        Err(fdc::obs::SketchDecodeError::Corrupt("compression"))
    );
}

// ---------------------------------------------------------------------
// Text parsers
// ---------------------------------------------------------------------

fn texts(samples: &[&str]) -> Vec<Vec<u8>> {
    samples.iter().map(|s| s.as_bytes().to_vec()).collect()
}

#[test]
fn sql_parser_is_total() {
    let samples = texts(&[
        "SELECT time, SUM(sales) FROM facts WHERE product = 'prod0' AND country = 'DE' \
         GROUP BY time, category AS OF now() + '3 months'",
        "EXPLAIN ANALYZE SELECT time, v FROM t AS OF now() + '12 steps'",
        "INSERT INTO facts VALUES ('L0V16', 'L1V3', 250.0), ('a', 'b', -1e3)",
    ]);
    drive("SQL", &samples, &mut |bytes| {
        if let Ok(statement) = parse_query(&String::from_utf8_lossy(bytes)) {
            let _ = format!("{statement:?}");
        }
    });
}

const QUERY_BODY: &str = r#"{"sql": "SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '4 steps'", "nodes": [0, 3, 17], "approx": {"budget": 32, "target_ci": 0.05, "confidence": 0.9}}"#;
const EXPLAIN_BODY: &str = r#"{"sql": "SELECT time, v FROM t", "analyze": true, "nodes": []}"#;
const INSERT_BODY: &str = r#"{"rows": [{"dims": ["p0", "région 😀"], "value": -1.5e-3}, {"dims": [], "value": 0}], "x": [null, true, false, "\"\\\/\b\f\n\r\t"]}"#;

#[test]
fn json_and_request_parsers_are_total() {
    let samples = texts(&[QUERY_BODY, EXPLAIN_BODY, INSERT_BODY]);
    drive("JSON", &samples, &mut |bytes| {
        if let Ok(doc) = json::parse(&String::from_utf8_lossy(bytes)) {
            let _ = (doc.get("sql"), doc.as_array(), doc.as_f64(), doc.as_str());
            let _ = format!("{doc:?}");
        }
        let Ok(doc) = wire::parse_body(bytes) else {
            return;
        };
        for path in ["/query", "/explain", "/plan"] {
            if let Ok(request) = wire::decode(path, &doc) {
                let again = wire::parse_body(wire::encode(&request).as_bytes())
                    .and_then(|doc| wire::decode(wire::path(request.mode), &doc));
                assert_eq!(
                    again.as_ref(),
                    Ok(&request),
                    "encode does not invert decode"
                );
            }
        }
    });
    // Nesting is bounded, so a body of brackets cannot exhaust the stack.
    assert!(json::parse(&"[".repeat(1 << 20)).is_err());
    assert!(json::parse(&"{\"a\":".repeat(1 << 16)).is_err());
}

/// What `json::Writer` writes, `json::parse` reads back: every mutant
/// of the corpus as a key and as a string, and `f64`s by bit pattern —
/// the edges of the format, subnormals and a seeded scatter of all 64
/// bits (a number that is not finite is written, and read, as `null`).
#[test]
fn json_writer_output_reads_back() {
    let samples = texts(&[QUERY_BODY, EXPLAIN_BODY, INSERT_BODY]);
    drive("JSON writer", &samples, &mut |bytes| {
        let text = String::from_utf8_lossy(bytes);
        let mut w = json::Writer::new();
        w.begin_object().key(&text).str(&text).end_object();
        let doc = json::parse(&w.finish()).expect("a written string parses");
        assert_eq!(doc.get(&text).and_then(json::Value::as_str), Some(&*text));
    });
    let edges = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        1e21,
        1e-7,
        0.1 + 0.2,
    ];
    let mut rng = Rng::seed_from_u64(0xF64);
    let scatter: Vec<f64> = (0..20_000)
        .map(|i| match i % 4 {
            // A zero exponent: subnormal, of either sign.
            0 => f64::from_bits(rng.next_u64() & 0x800f_ffff_ffff_ffff),
            _ => f64::from_bits(rng.next_u64()),
        })
        .collect();
    for v in edges.into_iter().chain(scatter) {
        let mut w = json::Writer::new();
        w.begin_array().f64(v).end_array();
        let text = w.finish();
        let doc = json::parse(&text).expect("a written number parses");
        match doc.as_array() {
            Some([json::Value::Num(read)]) if v.is_finite() => {
                assert_eq!(read.to_bits(), v.to_bits(), "{text}")
            }
            Some([json::Value::Null]) if !v.is_finite() => {}
            _ => panic!("{v:?} written as {text} read back as {doc:?}"),
        }
    }
}

/// `/insert` bodies: several rows, the bare-row form, `value` before
/// `dims`, repeated keys (the last one counts), escaped and non-ASCII
/// labels, numbers at the edges of f64, an empty `rows`, members no
/// decoder reads and `"rows"` where it does not mean the rows.
const INSERT_SEEDS: &[&str] = &[
    r#"{"rows": [{"dims": ["p0", "r0"], "value": 1.5}, {"dims": ["région 😀", "1e3"], "value": -2}, {"dims":["p1","r0"],"value":3}]}"#,
    r#" {"dims": ["p1", "r0"], "value": 7} "#,
    r#"{"rows":[{"value": 0.25, "dims": ["p0", "r0"]}]}"#,
    r#"{"rows":[{"dims":["nope"],"dims":["p0","r0"],"value":"x","value":4}],"rows":[{"dims":["p1","r0"],"value":5,"value":6}]}"#,
    r#"{"rows":[{"dims":["a\"b\\c","{\"rows\":["],"value":1},{"dims":["région 😀","r0"],"value":2}]}"#,
    r#"{"rows":[{"dims":["p0","r0"],"value":1e3},{"dims":["p0","1e3"],"value":-0},{"dims":["p1","r0"],"value":1e400},{"dims":["p1","1e3"],"value":-1E-400},{"dims":["a\"b\\c","r0"],"value":123456789012345678901234567890}]}"#,
    r#"{"rows": []}"#,
    r#"{"meta":{"rows":[1]},"rows":[{"dims":["p0","r0"],"value":1,"rows":[],"x":{"dims":[1]}}],"dims":["zz"],"value":null}"#,
    r#"{"rows": 5, "dims": ["p0", "r0"], "value": 9}"#,
];

/// What `json::parse` makes of every sample and every mutant of it,
/// error strings included, folded into one number.
fn parse_fingerprint(name: &str, samples: &[&str]) -> (usize, usize, u64) {
    let (mut ran, mut accepted, mut hash) = (0, 0, FNV_OFFSET);
    drive(name, &texts(samples), &mut |bytes| {
        let parsed = json::parse(&String::from_utf8_lossy(bytes));
        ran += 1;
        accepted += usize::from(parsed.is_ok());
        hash = fnv1a(hash, format!("{parsed:?}\n").as_bytes());
    });
    (ran, accepted, hash)
}

/// `json::parse` is a fold over `json::Reader`; these numbers were made
/// by the recursive-descent parser it replaced (commit cbf1666) and are
/// never edited: same trees, same refusals, same messages.
#[test]
fn json_parse_answers_as_the_tree_parser_did() {
    assert_eq!(
        parse_fingerprint("JSON trees", &[QUERY_BODY, EXPLAIN_BODY, INSERT_BODY]),
        PINNED_REQUEST_TREES
    );
    assert_eq!(
        parse_fingerprint("insert trees", INSERT_SEEDS),
        PINNED_INSERT_TREES
    );
}

const PINNED_REQUEST_TREES: (usize, usize, u64) = (7233, 1934, 7472503709916600527);
const PINNED_INSERT_TREES: (usize, usize, u64) = (16893, 3378, 12233575075467892018);

/// A 4 × 3 cube whose labels need escaping, are not ASCII, or look
/// like JSON structure or a number, behind a one-model engine.
fn insert_engine() -> F2db {
    let labels = |l: &[&str]| l.iter().map(|s| s.to_string()).collect();
    let schema = Schema::flat(vec![
        Dimension::new("product", labels(&["p0", "p1", "a\"b\\c", "région 😀"])),
        Dimension::new("region", labels(&["r0", "{\"rows\":[", "1e3"])),
    ])
    .expect("flat schema");
    let mut base = Vec::new();
    for p in 0..4u32 {
        for r in 0..3u32 {
            let values = (0..12).map(|t| f64::from(10 + p * 3 + r + t)).collect();
            base.push((
                Coord::new(vec![p, r]),
                TimeSeries::new(values, Granularity::Quarterly),
            ));
        }
    }
    let ds = Dataset::from_base(schema, base).expect("base data is valid");
    let split = CubeSplit::new(&ds, 0.8);
    let top = ds.graph().top_node();
    let mut cfg = Configuration::new(ds.node_count());
    let fit = FitOptions::default();
    let model = ConfiguredModel::fit(&split, top, &ModelSpec::Ses, &fit).expect("sample fits");
    cfg.insert_model(top, model);
    let all: Vec<NodeId> = (0..ds.node_count()).collect();
    cfg.recompute_nodes(&ds, &split, &all);
    F2db::load(ds, &cfg).expect("engine loads")
}

/// The `/insert` decode as `fdc-serve` did it before the one-pass
/// reader (commit cbf1666): the whole body to a tree, then row by row.
/// Kept as the reference the reader-based decode must agree with.
fn tree_insert_rows(db: &F2db, body: &[u8]) -> Result<Vec<(NodeId, f64)>, String> {
    let doc = wire::parse_body(body)?;
    let row_of = |v: &json::Value| -> Result<(NodeId, f64), String> {
        let dims = v
            .get("dims")
            .and_then(json::Value::as_array)
            .ok_or("row needs a \"dims\" array")?;
        let dims: Vec<String> = dims
            .iter()
            .map(|d| d.as_str().map(str::to_string).ok_or("dims must be strings"))
            .collect::<Result<_, _>>()?;
        let value = v
            .get("value")
            .and_then(json::Value::as_f64)
            .ok_or("row needs a numeric \"value\"")?;
        let node = db.base_node_for(&dims).map_err(|e| e.to_string())?;
        Ok((node, value))
    };
    match doc.get("rows").and_then(json::Value::as_array) {
        Some(rows) => {
            if rows.is_empty() {
                return Err("\"rows\" must not be empty".into());
            }
            rows.iter().map(row_of).collect()
        }
        None => Ok(vec![row_of(&doc)?]),
    }
}

#[test]
fn one_pass_insert_decode_agrees_with_the_tree_decode() {
    let db = insert_engine();
    let samples: Vec<&str> = INSERT_SEEDS.iter().copied().chain([INSERT_BODY]).collect();
    let bits = |rows: Result<Vec<(NodeId, f64)>, String>| {
        rows.map(|rows| Vec::from_iter(rows.into_iter().map(|(n, v)| (n, v.to_bits()))))
    };
    let mut accepted = 0;
    drive("insert bodies", &texts(&samples), &mut |bytes| {
        // The server's own decode, as its `handle_insert` calls it.
        let one_pass = bits(fdc::serve::wire::decode_insert(
            bytes,
            &mut db.base_resolver(),
            |node, value, _| (node, value),
        ));
        // Accept or refuse, the rows bit for bit — and the message.
        assert_eq!(one_pass, bits(tree_insert_rows(&db, bytes)));
        accepted += usize::from(one_pass.is_ok());
    });
    // Most seeds and a fair share of their mutants are whole batches.
    assert!(accepted >= 500, "only {accepted} bodies decoded");
}

#[test]
fn topology_parser_is_total() {
    let samples = texts(&[
        r#"{"version": 7, "key_dims": 1, "shards": [{"id": "s0", "addr": "127.0.0.1:9000", "replica": "127.0.0.1:9100"}, {"id": "s1", "addr": "h:1"}]}"#,
        r#"{"version": 0, "key_dims": 0, "shards": [{"id": "only", "addr": "a"}]}"#,
    ]);
    drive("topology", &samples, &mut |bytes| {
        if let Ok(topology) = Topology::parse(&String::from_utf8_lossy(bytes)) {
            assert_eq!(Topology::parse(&topology.encode()).as_ref(), Ok(&topology));
            let _ = topology.place("Germany");
        }
    });
    // Numbers no integer holds are refused or saturate — never wrap.
    for version in ["1e400", "-0", "1.5", "18446744073709551616"] {
        let text = format!(
            r#"{{"version": {version}, "key_dims": 0, "shards": [{{"id": "s", "addr": "a"}}]}}"#
        );
        let _ = Topology::parse(&text);
    }
}

#[test]
fn traceparent_parser_is_total() {
    let samples = texts(&[
        "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
        "  cc-ffffffffffffffffffffffffffffffff-ffffffffffffffff-00 ",
    ]);
    drive("traceparent", &samples, &mut |bytes| {
        if let Some(context) = TraceContext::parse_traceparent(&String::from_utf8_lossy(bytes)) {
            assert_eq!(
                TraceContext::parse_traceparent(&context.traceparent()),
                Some(context)
            );
        }
    });
}

const MAX_BODY: usize = 4096;

/// Sends `bytes` down a fresh loopback connection, closes the sending
/// side, and reads requests off the other end until the reader reports
/// the connection is done. Returns the requests read and the error
/// that ended the connection.
fn read_connection(listener: &TcpListener, bytes: &[u8]) -> (usize, RequestError) {
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (mut server, _) = listener.accept().unwrap();
    client.write_all(bytes).unwrap();
    client.shutdown(Shutdown::Write).unwrap();
    let mut reader = RequestReader::new();
    let mut requests = 0;
    loop {
        match reader.read(&mut server, MAX_BODY, Duration::from_secs(5)) {
            Ok(request) => {
                assert!(request.body.len() <= MAX_BODY);
                let _ = (request.path_query(), request.trace_context());
                requests += 1;
            }
            Err(e) => return (requests, e),
        }
    }
}

#[test]
fn http_request_reader_is_total() {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
    let post = format!(
        "POST /query?x=1 HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\n\
         traceparent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\r\n\
         Content-Length: {}\r\n\r\n{EXPLAIN_BODY}",
        EXPLAIN_BODY.len()
    );
    let get = "GET /healthz HTTP/1.0\r\nConnection: keep-alive, x\r\n\r\n";
    let pipelined = format!("{post}{get}");

    // The unmutated inputs, with what they must read as.
    assert!(matches!(
        read_connection(&listener, post.as_bytes()),
        (1, RequestError::Closed)
    ));
    assert!(matches!(
        read_connection(&listener, pipelined.as_bytes()),
        (2, RequestError::Closed)
    ));
    let oversized = format!(
        "POST /insert HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY + 1
    );
    assert!(matches!(
        read_connection(&listener, oversized.as_bytes()),
        (0, RequestError::BodyTooLarge(n)) if n == MAX_BODY + 1
    ));
    let unparseable = "POST /insert HTTP/1.1\r\nContent-Length: 18446744073709551616\r\n\r\n";
    assert!(matches!(
        read_connection(&listener, unparseable.as_bytes()),
        (0, RequestError::Malformed(_))
    ));

    let samples = texts(&[&pipelined, get, &oversized]);
    drive("HTTP", &samples, &mut |bytes| {
        let (requests, _) = read_connection(&listener, bytes);
        assert!(requests <= 3, "{requests} requests out of at most three");
    });
}
