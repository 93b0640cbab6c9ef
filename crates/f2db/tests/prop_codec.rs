//! Randomized property tests of the catalog codec and the SQL parser,
//! driven by the deterministic workspace RNG.

use fdc_codec::{Reader, Writer};
use fdc_cube::{Configuration, ConfiguredModel, CubeSplit, Dataset, NodeId};
use fdc_datagen::{generate_cube, GenSpec};
use fdc_f2db::parser::{parse_horizon, parse_query};
use fdc_f2db::query::{HorizonSpec, Statement};
use fdc_f2db::{Catalog, MaintenancePolicy};
use fdc_forecast::{FitOptions, ModelSpec, ModelState, SeasonalKind};
use fdc_rng::Rng;

fn random_model_state(rng: &mut Rng) -> ModelState {
    let spec = match rng.usize_below(5) {
        0 => ModelSpec::Ses,
        1 => ModelSpec::Holt,
        2 => ModelSpec::HoltWinters {
            period: 2 + rng.usize_below(22),
            seasonal: if rng.bool() {
                SeasonalKind::Additive
            } else {
                SeasonalKind::Multiplicative
            },
        },
        3 => ModelSpec::Arima {
            p: rng.usize_below(3),
            d: rng.usize_below(2),
            q: rng.usize_below(3),
        },
        _ => ModelSpec::Sarima {
            order: (rng.usize_below(2), rng.usize_below(2), rng.usize_below(2)),
            seasonal: (rng.usize_below(2), rng.usize_below(2), rng.usize_below(2)),
            period: 2 + rng.usize_below(11),
        },
    };
    // The decoder refuses orders and periods the vectors cannot back, so
    // the vectors are at least as long as the spec's sizes — and
    // otherwise arbitrary.
    let (min_params, min_state) = match spec {
        ModelSpec::HoltWinters { period, .. } => (0, period),
        ModelSpec::Arima { p, d, q } => (p.max(q), d),
        ModelSpec::Sarima {
            order: (p, d, q),
            seasonal: (sp, sd, sq),
            period,
        } => (p.max(q).max(sp).max(sq), d.max(sp.max(sd).max(sq) * period)),
        _ => (0, 0),
    };
    let params: Vec<f64> = (0..min_params + rng.usize_below(8))
        .map(|_| rng.f64_range(-1e6, 1e6))
        .collect();
    let state: Vec<f64> = (0..min_state + rng.usize_below(32))
        .map(|_| rng.f64_range(-1e6, 1e6))
        .collect();
    ModelState {
        spec,
        params,
        state,
        observations: rng.usize_below(100_000),
    }
}

/// Arbitrary model states survive the binary codec bit-exactly.
#[test]
fn model_state_codec_round_trip() {
    let mut rng = Rng::seed_from_u64(0xc0dec1);
    for case in 0..128 {
        let states: Vec<ModelState> = (0..1 + rng.usize_below(7))
            .map(|_| random_model_state(&mut rng))
            .collect();
        let mut w = Writer::new();
        for s in &states {
            s.encode_into(&mut w);
        }
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        for s in &states {
            assert_eq!(&ModelState::decode(&mut r).unwrap(), s, "case {case}");
        }
        assert!(r.finish().is_ok());
    }
}

/// A random small cube with a random configuration loaded into a catalog,
/// randomly invalidated and advanced so invalid flags, rolling errors,
/// epochs and the advance counter all carry arbitrary values.
fn random_catalog(rng: &mut Rng) -> (Dataset, Catalog, Vec<NodeId>) {
    let base = 2 + rng.usize_below(7);
    let length = 16 + rng.usize_below(17);
    let mut ds = generate_cube(&GenSpec::new(base, length, rng.next_u64())).dataset;
    let split = CubeSplit::new(&ds, 0.8);
    let fit = FitOptions::default();
    let mut cfg = Configuration::new(ds.node_count());
    // A model at the top plus a random subset of further nodes.
    let mut model_nodes = vec![ds.graph().top_node()];
    for v in 0..ds.node_count() {
        if v != ds.graph().top_node() && rng.usize_below(4) == 0 {
            model_nodes.push(v);
        }
    }
    for &v in &model_nodes {
        let spec = if rng.bool() {
            ModelSpec::Ses
        } else {
            ModelSpec::Holt
        };
        let model = ConfiguredModel::fit(&split, v, &spec, &fit).expect("short fits succeed");
        cfg.insert_model(v, model);
    }
    let all: Vec<NodeId> = (0..ds.node_count()).collect();
    cfg.recompute_nodes(&ds, &split, &all);
    let catalog = Catalog::from_configuration(&ds, &cfg, &fit).expect("catalog loads");

    // Random time advances stamp rolling errors, weights and the advance
    // counter; a threshold policy flips some invalid flags along the way.
    let policy = MaintenancePolicy::ThresholdBased {
        smape_threshold: 0.05,
    };
    for _ in 0..rng.usize_below(4) {
        let batch: Vec<(NodeId, f64)> = ds
            .graph()
            .base_nodes()
            .iter()
            .map(|&b| (b, rng.f64_range(0.1, 1e4)))
            .collect();
        ds.advance_time(&batch).unwrap();
        catalog.advance_time(&ds, ds.series_len() - 1, &policy);
    }
    // Plus explicit random invalidations.
    for &v in &model_nodes {
        if rng.bool() {
            catalog.invalidate(v);
        }
    }
    (ds, catalog, model_nodes)
}

/// encode → decode → encode is byte-stable for arbitrary catalogs: the
/// encoding is canonical (node order).
#[test]
fn catalog_codec_round_trip_is_byte_stable() {
    let mut rng = Rng::seed_from_u64(0xc0dec6);
    for case in 0..12 {
        let (_, catalog, _) = random_catalog(&mut rng);
        let bytes = catalog.encode();
        let decoded = Catalog::decode(&bytes).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(
            decoded.encode(),
            bytes,
            "case {case}: re-encode changed bytes"
        );
    }
}

/// Decoded catalogs serve the same forecasts and maintenance state as the
/// original.
#[test]
fn decoded_catalog_preserves_forecasts_and_state() {
    let mut rng = Rng::seed_from_u64(0xc0dec7);
    for case in 0..8 {
        let (ds, catalog, model_nodes) = random_catalog(&mut rng);
        let bytes = catalog.encode();
        let decoded = Catalog::decode(&bytes).unwrap();
        assert_eq!(decoded.node_count(), catalog.node_count(), "case {case}");
        assert_eq!(decoded.model_count(), catalog.model_count(), "case {case}");
        for v in 0..ds.node_count() {
            assert_eq!(decoded.entry(v), catalog.entry(v), "case {case} node {v}");
            assert_eq!(
                decoded.forecast(v, 3),
                catalog.forecast(v, 3),
                "case {case} node {v}"
            );
        }
        for &v in &model_nodes {
            assert_eq!(
                decoded.is_invalid(v),
                catalog.is_invalid(v),
                "case {case} node {v}"
            );
            assert_eq!(
                decoded.rolling_error(v),
                catalog.rolling_error(v),
                "case {case} node {v}"
            );
            assert_eq!(
                decoded.epoch(v),
                catalog.epoch(v),
                "case {case} node {v}: epoch lost across persistence"
            );
        }
    }
}

/// Truncating an encoded stream anywhere never panics — it errors.
#[test]
fn truncated_streams_error_gracefully() {
    let mut rng = Rng::seed_from_u64(0xc0dec2);
    for _ in 0..128 {
        let state = random_model_state(&mut rng);
        let mut w = Writer::new();
        state.encode_into(&mut w);
        let bytes = w.finish();
        let cut = rng.usize_below(64).min(bytes.len().saturating_sub(1));
        // Must not panic; every proper prefix is an error.
        assert!(ModelState::decode(&mut Reader::new(&bytes[..cut])).is_err());
    }
}

/// Generated forecast queries parse to the expected structure.
#[test]
fn generated_queries_parse() {
    let mut rng = Rng::seed_from_u64(0xc0dec3);
    for case in 0..128 {
        let ndims = rng.usize_below(4);
        let dims: Vec<(String, String)> = (0..ndims)
            .map(|i| {
                let dlen = 1 + rng.usize_below(8);
                let d: String = (0..dlen)
                    .map(|_| (b'a' + rng.usize_below(26) as u8) as char)
                    .collect();
                let vlen = 1 + rng.usize_below(8);
                let v: String = (0..vlen)
                    .map(|_| {
                        const ALNUM: &[u8] =
                            b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
                        ALNUM[rng.usize_below(ALNUM.len())] as char
                    })
                    .collect();
                // Distinct dimension names: prefix with a per-index letter.
                (format!("{}{d}", (b'a' + i as u8) as char), v)
            })
            .collect();
        let n = 1 + rng.usize_below(49);
        let mut sql = String::from("SELECT time, SUM(m) FROM facts");
        for (i, (d, v)) in dims.iter().enumerate() {
            sql.push_str(if i == 0 { " WHERE " } else { " AND " });
            sql.push_str(&format!("{d} = '{v}'"));
        }
        sql.push_str(&format!(" AS OF now() + '{n} steps'"));
        match parse_query(&sql).unwrap() {
            Statement::Forecast(q) => {
                assert_eq!(q.predicates.len(), dims.len(), "case {case}: {sql}");
                assert_eq!(q.horizon, HorizonSpec::Steps(n));
            }
            other => panic!("case {case}: unexpected {other:?}"),
        }
    }
}

/// Horizon strings round-trip through formatting for all units.
#[test]
fn horizon_parser_accepts_all_units() {
    let mut rng = Rng::seed_from_u64(0xc0dec4);
    for _ in 0..64 {
        let n = 1 + rng.usize_below(999);
        for unit in ["hour", "day", "week", "month", "quarter", "year", "step"] {
            let plural = format!("{n} {unit}s");
            let parsed = parse_horizon(&plural).unwrap();
            match parsed {
                HorizonSpec::Steps(k) => assert_eq!(k, n),
                HorizonSpec::Units { n: k, .. } => assert_eq!(k, n),
            }
        }
    }
}

/// The parser never panics on arbitrary input.
#[test]
fn parser_total_on_arbitrary_input() {
    let mut rng = Rng::seed_from_u64(0xc0dec5);
    for _ in 0..256 {
        let len = rng.usize_below(200);
        let input: String = (0..len)
            .map(|_| {
                // Bias toward printable ASCII with occasional arbitrary
                // Unicode scalar values.
                if rng.usize_below(8) == 0 {
                    char::from_u32(rng.usize_below(0xD7FF) as u32).unwrap_or('?')
                } else {
                    (0x20 + rng.usize_below(0x5F) as u8) as char
                }
            })
            .collect();
        let _ = parse_query(&input);
    }
}
