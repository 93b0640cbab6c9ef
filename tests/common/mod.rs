//! One seeded sample of every binary encoding the workspace persists
//! or ships — shared by `format_goldens.rs` (which pins the bytes) and
//! `decoders_total.rs` (which mutates them).
//!
//! Everything here is built from integer arithmetic and the workspace
//! RNG's uniform draws, so the bytes do not depend on the platform's
//! `libm` (the plane's log-spaced strata bounds are the one exception).

#![allow(dead_code)] // each test target uses its own subset

pub mod corpus;
pub mod mutate;

use fdc::approx::{encode_plane, ApproxOptions, ApproxPlane};
use fdc::cube::{
    Configuration, ConfiguredModel, Coord, CubeSplit, Dataset, Dimension, FunctionalDependency,
    NodeEstimate, NodeId, Schema, Scheme,
};
use fdc::f2db::durability::encode_checkpoint;
use fdc::f2db::{Catalog, F2db, MaintenancePolicy, Placement, WalRecord};
use fdc::forecast::{FitOptions, Granularity, ModelSpec, SeasonalKind, TimeSeries};
use fdc::obs::{
    AccuracyOptions, KeyAccuracy, MomentSummary, RollingAccuracy, SketchBundle, TDigest,
};
use fdc::rng::Rng;
use fdc::wal::{encode_chunk, encode_frame, ShipChunk};

/// A `products × regions` cube of quarterly series: linear trend times
/// a seasonal profile plus uniform noise, scaled per cell.
pub fn cube(products: usize, regions: usize, length: usize, seed: u64) -> Dataset {
    let labels = |prefix: &str, n: usize| (0..n).map(|i| format!("{prefix}{i}")).collect();
    labelled_cube(labels("p", products), labels("r", regions), length, seed)
}

/// [`cube`] over the given dimension values.
pub fn labelled_cube(
    products: Vec<String>,
    regions: Vec<String>,
    length: usize,
    seed: u64,
) -> Dataset {
    let (n_products, n_regions) = (products.len(), regions.len());
    let schema = Schema::flat(vec![
        Dimension::new("product", products),
        Dimension::new("region", regions),
    ])
    .expect("flat schema");
    let mut rng = Rng::seed_from_u64(seed);
    let season = [1.12, 0.94, 0.78, 1.16];
    let mut base = Vec::new();
    for p in 0..n_products {
        for r in 0..n_regions {
            let scale = 1.0 + (p * n_regions + r) as f64 * 0.75;
            let values = (0..length)
                .map(|t| {
                    let trend = 40.0 + 1.5 * t as f64;
                    scale * trend * season[t % 4] + rng.f64_range(-2.0, 2.0)
                })
                .collect();
            base.push((
                Coord::new(vec![p as u32, r as u32]),
                TimeSeries::new(values, Granularity::Quarterly),
            ));
        }
    }
    Dataset::from_base(schema, base).expect("base data is valid")
}

/// The cube behind the catalog and checkpoint samples.
pub fn catalog_cube() -> Dataset {
    cube(4, 3, 40, 0xF2DB)
}

/// A catalog carrying one model of every family, advanced twice under
/// a threshold policy and partly invalidated, so every persisted field
/// holds a non-default value. Returns the advanced data set with it.
pub fn catalog() -> (Dataset, Catalog) {
    let mut ds = catalog_cube();
    let split = CubeSplit::new(&ds, 0.8);
    let fit = FitOptions::default();
    let base = ds.graph().base_nodes().to_vec();
    let top = ds.graph().top_node();
    let aggregates: Vec<NodeId> = (0..ds.node_count())
        .filter(|v| *v != top && !base.contains(v))
        .collect();
    let hw = |seasonal| ModelSpec::HoltWinters {
        period: 4,
        seasonal,
    };
    let placed = [
        (top, hw(SeasonalKind::Additive)),
        (aggregates[0], ModelSpec::Ses),
        (aggregates[1], ModelSpec::Holt),
        (aggregates[2], hw(SeasonalKind::Multiplicative)),
        (base[0], ModelSpec::HoltDamped),
        (base[1], ModelSpec::Arima { p: 1, d: 1, q: 1 }),
        (
            base[2],
            ModelSpec::Sarima {
                order: (1, 0, 0),
                seasonal: (0, 1, 1),
                period: 4,
            },
        ),
    ];
    let mut cfg = Configuration::new(ds.node_count());
    for (node, spec) in &placed {
        let model = ConfiguredModel::fit(&split, *node, spec, &fit).expect("sample fits");
        cfg.insert_model(*node, model);
    }
    let all: Vec<NodeId> = (0..ds.node_count()).collect();
    cfg.recompute_nodes(&ds, &split, &all);
    let catalog = Catalog::from_configuration(&ds, &cfg, &fit).expect("catalog loads");

    let policy = MaintenancePolicy::ThresholdBased {
        smape_threshold: 0.02,
    };
    let mut rng = Rng::seed_from_u64(0xADFA);
    for _ in 0..2 {
        let batch: Vec<(NodeId, f64)> = base
            .iter()
            .map(|&b| (b, rng.f64_range(10.0, 400.0)))
            .collect();
        ds.advance_time(&batch).expect("full round");
        catalog.advance_time(&ds, ds.series_len() - 1, &policy);
    }
    catalog.invalidate(aggregates[1]);
    catalog.invalidate(base[0]);
    catalog
        .reestimate(base[0], &ds, &fit)
        .expect("re-estimation succeeds");
    (ds, catalog)
}

/// An `F2CK` container over [`catalog`]: a WAL position, two pending
/// rows, the base snapshot and the catalog bytes.
pub fn checkpoint() -> Vec<u8> {
    let (ds, catalog) = catalog();
    let base = ds.graph().base_nodes();
    let pending = [(base[0], 17.5), (base[3], -2.25)];
    encode_checkpoint(41, &pending, &ds, &catalog.encode())
}

fn rows(seed: u64, n: usize) -> Vec<(NodeId, f64)> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.usize_below(64), rng.f64_range(-500.0, 500.0)))
        .collect()
}

/// An insert batch logged outside any trace.
pub fn record_untraced() -> WalRecord {
    WalRecord::InsertBatch {
        rows: rows(0x4A1, 12),
        trace: None,
    }
}

/// An insert batch carrying its trace identity.
pub fn record_traced() -> WalRecord {
    WalRecord::InsertBatch {
        rows: rows(0x4A2, 5),
        trace: Some((
            0xfeed_f00d_dead_beef_cafe_babe_0123_4567,
            0x89ab_cdef_0011_2233,
        )),
    }
}

/// One WAL frame around the traced record.
pub fn frame() -> Vec<u8> {
    encode_frame(9, &record_traced().encode())
}

/// A ship chunk of three frames, the middle one with an empty payload.
pub fn chunk() -> ShipChunk {
    ShipChunk {
        durable_seq: 12,
        checkpoint_seq: 3,
        frames: vec![
            (10, record_untraced().encode()),
            (11, Vec::new()),
            (12, record_traced().encode()),
        ],
    }
}

/// The encoded form of [`chunk`].
pub fn chunk_bytes() -> Vec<u8> {
    encode_chunk(&chunk())
}

/// The cube behind the plane sample.
pub fn plane_cube() -> Dataset {
    cube(8, 6, 24, 0xFDCA)
}

/// A sampling plane over [`plane_cube`]: three strata, small
/// reservoirs, seasonal cell models.
pub fn plane() -> ApproxPlane {
    let options = ApproxOptions {
        strata: 3,
        samples_per_stratum: 3,
        min_population: 6,
        spec: Some(ModelSpec::HoltWinters {
            period: 4,
            seasonal: SeasonalKind::Additive,
        }),
        ..ApproxOptions::default()
    };
    ApproxPlane::build(&plane_cube(), None, options).expect("plane builds")
}

/// The encoded form of [`plane`].
pub fn plane_bytes() -> Vec<u8> {
    encode_plane(&plane())
}

/// A moment summary over a fixed stream.
pub fn moments() -> MomentSummary {
    let mut s = MomentSummary::new();
    for i in 0..40 {
        s.insert(((i * 37 + 11) % 101) as f64 - 50.25);
    }
    s
}

/// Per-key accuracy partials, one of them past its window so the
/// baseline is populated.
pub fn accuracy() -> Vec<KeyAccuracy> {
    let acc = RollingAccuracy::new(AccuracyOptions::default());
    for i in 0..80 {
        acc.record(3, 10.0 + (i % 7) as f64, 10.5);
    }
    for i in 0..9 {
        acc.record(7, 4.0, 2.0 + i as f64);
    }
    acc.summaries()
}

/// A flushed digest over a fixed stream.
pub fn digest() -> TDigest {
    let mut d = TDigest::new(64.0);
    for i in 0..500 {
        d.insert((i * 31 % 977) as f64);
    }
    d.flush();
    d
}

/// The bundle a shard answers `GET /sketch` with.
pub fn bundle() -> SketchBundle {
    SketchBundle {
        accuracy: accuracy(),
        digests: vec![
            ("serve.request.ns{route=\"/query\"}".to_string(), digest()),
            ("serve.request.ns{route=\"/insert\"}".to_string(), {
                let mut d = TDigest::new(100.0);
                d.insert(7.0);
                d.insert(9.0);
                d
            }),
        ],
    }
}

/// A second, minimal catalog: one SES model over a two-cell cube.
pub fn small_catalog() -> (Dataset, Catalog) {
    let ds = cube(2, 1, 12, 0x5A11);
    let split = CubeSplit::new(&ds, 0.8);
    let fit = FitOptions::default();
    let top = ds.graph().top_node();
    let mut cfg = Configuration::new(ds.node_count());
    let model = ConfiguredModel::fit(&split, top, &ModelSpec::Ses, &fit).expect("sample fits");
    cfg.insert_model(top, model);
    let all: Vec<NodeId> = (0..ds.node_count()).collect();
    cfg.recompute_nodes(&ds, &split, &all);
    let catalog = Catalog::from_configuration(&ds, &cfg, &fit).expect("catalog loads");
    (ds, catalog)
}

/// A second checkpoint: [`small_catalog`] with no log and nothing
/// pending — what a server without a WAL writes at shutdown.
pub fn small_checkpoint() -> Vec<u8> {
    let (ds, catalog) = small_catalog();
    encode_checkpoint(0, &[], &ds, &catalog.encode())
}

/// [`small_checkpoint`] taken mid-round behind a log.
pub fn small_checkpoint_with_pending() -> Vec<u8> {
    let (ds, catalog) = small_catalog();
    let pending = [(ds.graph().base_nodes()[1], 3.5)];
    encode_checkpoint(7, &pending, &ds, &catalog.encode())
}

fn small_plane(products: usize, regions: usize, options: ApproxOptions) -> Vec<u8> {
    let ds = cube(products, regions, 12, 0x91A);
    encode_plane(&ApproxPlane::build(&ds, None, options).expect("plane builds"))
}

/// A smaller plane than [`plane`] with the same shape: several strata,
/// seasonal cell models.
pub fn small_seasonal_plane_bytes() -> Vec<u8> {
    let options = ApproxOptions {
        strata: 2,
        samples_per_stratum: 2,
        min_population: 3,
        spec: Some(ModelSpec::HoltWinters {
            period: 4,
            seasonal: SeasonalKind::Multiplicative,
        }),
        ..ApproxOptions::default()
    };
    small_plane(4, 3, options)
}

/// The smallest plane worth the name: one stratum, trend-only models.
pub fn small_plane_bytes() -> Vec<u8> {
    let options = ApproxOptions {
        strata: 1,
        samples_per_stratum: 2,
        min_population: 3,
        spec: Some(ModelSpec::Holt),
        ..ApproxOptions::default()
    };
    small_plane(3, 2, options)
}

/// A placement map over a `city → region` × product cube (a functional
/// dependency, a label outside ASCII): a third of the nodes unserved,
/// the others derived from themselves or from themselves and one more
/// node, picked by id — no model is fitted, so no float decides a byte.
pub fn placement() -> Placement {
    let labels = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
    let schema = Schema::new(
        vec![
            Dimension::new("city", labels(&["Zürich", "Basel", "Lyon", "Nice"])),
            Dimension::new("region", labels(&["CH", "FR"])),
            Dimension::new("product", labels(&["p0", "p1", "p2"])),
        ],
        vec![FunctionalDependency::new(0, 1, vec![0, 0, 1, 1])],
    )
    .expect("schema is valid");
    let mut base = Vec::new();
    for city in 0..4u32 {
        for product in 0..3u32 {
            let values = (0..8).map(|t| (city * 3 + product + t) as f64).collect();
            base.push((
                Coord::new(vec![city, city / 2, product]),
                TimeSeries::new(values, Granularity::Quarterly),
            ));
        }
    }
    let ds = Dataset::from_base(schema, base).expect("base data is valid");
    let n = ds.node_count();
    let mut cfg = Configuration::new(n);
    for v in 0..n {
        let sources = match v % 3 {
            0 => continue,
            1 => vec![v],
            _ => vec![v, (v * 7 + 3) % n],
        };
        let scheme = Some(Scheme {
            sources,
            weight: 1.0,
        });
        cfg.set_estimate(v, NodeEstimate { error: 0.5, scheme });
    }
    F2db::load(ds, &cfg)
        .expect("a configuration without models loads")
        .placement()
        .clone()
}
