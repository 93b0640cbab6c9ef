//! Engine-level approximation guarantees: exact results stay
//! byte-identical when a plane is attached, opt-in queries carry CI
//! metadata, EXPLAIN annotates sampled nodes, the plane survives
//! persistence, and the advance path maintains sampled models.

use fdc_approx::plan_coverage;
use fdc_cube::{Configuration, ConfiguredModel, CubeSplit, Dataset, NodeId};
use fdc_datagen::{generate_cube, generate_highcard, GenSpec, HighCardSpec};
use fdc_f2db::{
    ApproxOptions, ApproxQuerySpec, CoverageOptions, F2db, F2dbError, QueryAnswer, QueryMode,
    QueryRequest, QueryResult,
};
use fdc_forecast::{FitOptions, ModelSpec};

const Q: &str = "SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '3 steps'";

fn highcard() -> Dataset {
    generate_highcard(&HighCardSpec {
        base_cells: 500,
        groups: 25,
        length: 16,
        ..HighCardSpec::new(500, 0xDB)
    })
    .dataset
}

fn approx_options() -> ApproxOptions {
    ApproxOptions {
        strata: 6,
        samples_per_stratum: 24,
        min_population: 100,
        spec: Some(ModelSpec::Ses),
        ..ApproxOptions::default()
    }
}

fn approx_query(db: &F2db, sql: &str, spec: &ApproxQuerySpec) -> QueryResult {
    db.execute(&QueryRequest {
        approx: Some(spec.clone()),
        ..QueryRequest::new(sql, QueryMode::Forecast)
    })
    .unwrap()
    .into_rows()
    .unwrap()
}

/// A configuration with a direct model at every aggregation node the
/// tests query exactly.
fn full_config(ds: &Dataset, nodes: &[NodeId]) -> Configuration {
    let split = CubeSplit::new(ds, 0.8);
    let fit = FitOptions::default();
    let mut cfg = Configuration::new(ds.node_count());
    for &v in nodes {
        let model = ConfiguredModel::fit(&split, v, &ModelSpec::Ses, &fit).unwrap();
        cfg.insert_model(v, model);
    }
    let all: Vec<NodeId> = (0..ds.node_count()).collect();
    cfg.recompute_nodes(ds, &split, &all);
    cfg
}

#[test]
fn exact_queries_are_byte_identical_with_a_plane_attached() {
    let make = || {
        let cube = generate_cube(&GenSpec::new(8, 36, 2));
        let top = cube.dataset.graph().top_node();
        let cfg = full_config(&cube.dataset, &[top]);
        (cube.dataset, cfg)
    };
    let (ds_a, cfg_a) = make();
    let (ds_b, cfg_b) = make();
    let vanilla = F2db::load(ds_a, &cfg_a).unwrap();
    let with_plane = F2db::load(ds_b, &cfg_b)
        .unwrap()
        .with_approx(ApproxOptions {
            min_population: 2,
            ..approx_options()
        })
        .unwrap();
    assert!(with_plane.approx_enabled());
    let q = "SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '4 steps'";
    // No approx spec → the plane must be invisible, bit for bit.
    let a = vanilla.query(q).unwrap();
    let b = with_plane.query(q).unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert!(b.rows.iter().all(|r| r.approx.is_none()));
    // Even execute with `approx: None` is the exact path.
    let c = with_plane
        .execute(&QueryRequest::new(q, QueryMode::Forecast))
        .unwrap();
    assert_eq!(QueryAnswer::Rows(a), c);
}

#[test]
fn opt_in_queries_carry_ci_metadata() {
    let ds = highcard();
    let empty = Configuration::new(ds.node_count());
    let db = F2db::load(ds, &empty)
        .unwrap()
        .with_approx(approx_options())
        .unwrap();
    let spec = ApproxQuerySpec::default();
    let res = approx_query(&db, Q, &spec);
    assert_eq!(res.rows.len(), 1);
    let row = &res.rows[0];
    let ap = row.approx.as_ref().expect("top node answers approximately");
    assert_eq!(ap.population, 500);
    assert!(ap.sampled > 0 && ap.sampled < ap.population);
    assert_eq!(ap.ci_half.len(), 3);
    assert_eq!(row.values.len(), 3);
    assert!((ap.confidence - 0.95).abs() < 1e-12);
    assert!(row.values.iter().all(|&(_, v)| v.is_finite() && v > 0.0));
    assert!(ap.ci_half.iter().all(|&h| h.is_finite() && h >= 0.0));

    // A cell budget caps the evaluated sample.
    let budgeted = db
        .execute(&QueryRequest {
            approx: Some(ApproxQuerySpec {
                budget: Some(12),
                ..ApproxQuerySpec::default()
            }),
            ..QueryRequest::new(Q, QueryMode::Forecast)
        })
        .unwrap()
        .into_rows()
        .unwrap();
    let bp = budgeted.rows[0].approx.as_ref().unwrap();
    assert!(bp.sampled < ap.sampled);
}

#[test]
fn avg_aggregate_divides_estimate_and_interval_by_population() {
    let ds = highcard();
    let empty = Configuration::new(ds.node_count());
    let db = F2db::load(ds, &empty)
        .unwrap()
        .with_approx(approx_options())
        .unwrap();
    let spec = ApproxQuerySpec::default();
    let sum = approx_query(&db, Q, &spec);
    let avg_q = "SELECT time, AVG(v) FROM facts GROUP BY time AS OF now() + '3 steps'";
    let avg = approx_query(&db, avg_q, &spec);
    let (s, a) = (&sum.rows[0], &avg.rows[0]);
    let pop = s.approx.as_ref().unwrap().population as f64;
    for ((_, sv), (_, av)) in s.values.iter().zip(&a.values) {
        assert!((sv / pop - av).abs() <= 1e-9 * sv.abs());
    }
    for (sh, ah) in s
        .approx
        .as_ref()
        .unwrap()
        .ci_half
        .iter()
        .zip(&a.approx.as_ref().unwrap().ci_half)
    {
        assert!((sh / pop - ah).abs() <= 1e-9 * sh.abs());
    }
}

#[test]
fn explain_annotates_sampled_nodes() {
    let ds = highcard();
    let empty = Configuration::new(ds.node_count());
    let db = F2db::load(ds, &empty)
        .unwrap()
        .with_approx(approx_options())
        .unwrap();
    let spec = ApproxQuerySpec {
        budget: Some(32),
        target_ci: Some(0.05),
        ..ApproxQuerySpec::default()
    };
    let explain = |approx: Option<ApproxQuerySpec>| {
        db.execute(&QueryRequest {
            approx,
            ..QueryRequest::new(Q, QueryMode::Explain)
        })
    };
    let report = explain(Some(spec)).unwrap().into_plan().unwrap();
    assert_eq!(report.rows.len(), 1);
    let row = &report.rows[0];
    assert_eq!(row.scheme_kind, "sampled");
    let ap = row.approx.expect("sampled row carries approx facts");
    assert_eq!(ap.population, 500);
    assert_eq!(ap.budget, Some(32));
    assert_eq!(ap.target_ci, Some(0.05));
    let text = report.to_masked_string();
    assert!(text.contains("via sampled"), "{text}");
    assert!(text.contains("sampling:"), "{text}");
    assert!(text.contains("budget 32"), "{text}");
    // Without the spec, EXPLAIN is the exact planner (and errors here,
    // since the empty configuration has no scheme for the top node).
    assert!(explain(None).is_err());
}

#[test]
fn node_filter_applies_to_sampled_plans() {
    let ds = highcard();
    let empty = Configuration::new(ds.node_count());
    let db = F2db::load(ds, &empty)
        .unwrap()
        .with_approx(ApproxOptions {
            min_population: 10,
            ..approx_options()
        })
        .unwrap();
    let by_group = "SELECT time, SUM(v) FROM facts GROUP BY time, group AS OF now() + '3 steps'";
    let explain = |nodes: Option<Vec<NodeId>>| {
        db.execute(&QueryRequest {
            nodes,
            approx: Some(ApproxQuerySpec::default()),
            ..QueryRequest::new(by_group, QueryMode::Explain)
        })
    };
    let full = explain(None).unwrap().into_plan().unwrap();
    assert_eq!(full.rows.len(), 25);
    assert!(full.rows.iter().all(|r| r.scheme_kind == "sampled"));
    // The filter keeps resolve order, whatever order it is given in,
    // and ignores ids the query does not resolve to.
    let keep = vec![full.rows[7].node, NodeId::MAX, full.rows[2].node];
    let trimmed = explain(Some(keep)).unwrap().into_plan().unwrap();
    assert_eq!(trimmed.rows, [full.rows[2].clone(), full.rows[7].clone()]);
    // An empty intersection is the router's mistake, not an empty plan.
    let err = explain(Some(vec![NodeId::MAX])).unwrap_err();
    assert_eq!(
        err,
        F2dbError::Semantic("node filter excludes every node the query resolves to".into())
    );
}

#[test]
fn plane_survives_persistence_bit_for_bit() {
    let dir = std::env::temp_dir().join("fdc_approx_persist_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("plane.fdca");

    let ds = highcard();
    let empty = Configuration::new(ds.node_count());
    let db = F2db::load(ds, &empty)
        .unwrap()
        .with_approx(approx_options())
        .unwrap();
    let spec = ApproxQuerySpec::default();
    let before = approx_query(&db, Q, &spec);
    db.save_approx(&path).unwrap();

    let ds2 = highcard();
    let empty2 = Configuration::new(ds2.node_count());
    let restored = F2db::load(ds2, &empty2).unwrap();
    assert!(!restored.approx_enabled());
    restored.load_approx(&path).unwrap();
    assert!(restored.approx_enabled());
    let after = approx_query(&restored, Q, &spec);
    assert_eq!(before.fingerprint(), after.fingerprint());
    let (b, a) = (
        before.rows[0].approx.as_ref().unwrap(),
        after.rows[0].approx.as_ref().unwrap(),
    );
    assert_eq!(b.sampled, a.sampled);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&b.ci_half), bits(&a.ci_half));

    std::fs::remove_file(&path).ok();
}

#[test]
fn coverage_plan_drives_registration() {
    let ds = highcard();
    let plan = plan_coverage(
        &ds,
        &CoverageOptions {
            query_budget_secs: 100e-6,
            forecast_cost_secs: 1e-6,
            min_population: 50,
            ..CoverageOptions::default()
        },
    );
    let top = ds.graph().top_node();
    assert_eq!(plan.sampled_nodes(), vec![top]);
    let empty = Configuration::new(ds.node_count());
    let db = F2db::load(ds, &empty)
        .unwrap()
        .with_approx_plan(&plan, approx_options())
        .unwrap();
    assert!(db.approx_enabled());
    let info = db.approx_node_info(top).unwrap();
    assert_eq!(info.population, 500);
    // Plan-sized reservoirs: 100 affordable cells over 8 strata → 12
    // per stratum (clamped), times default strata count.
    let res = approx_query(&db, Q, &ApproxQuerySpec::default());
    assert!(res.rows[0].approx.is_some());
}

#[test]
fn advance_path_maintains_sampled_models() {
    let ds = highcard();
    let bases: Vec<NodeId> = ds.graph().base_nodes().to_vec();
    let lasts: Vec<f64> = bases
        .iter()
        .map(|&b| *ds.series(b).values().last().unwrap())
        .collect();
    let empty = Configuration::new(ds.node_count());
    let db = F2db::load(ds, &empty)
        .unwrap()
        .with_approx(approx_options())
        .unwrap();
    let spec = ApproxQuerySpec::default();
    let before = approx_query(&db, Q, &spec);
    // Commit one full time stamp with every cell tripled: sampled
    // models absorb the new level and the estimate moves up.
    let batch: Vec<(NodeId, f64)> = bases
        .iter()
        .zip(&lasts)
        .map(|(&b, &v)| (b, v * 3.0))
        .collect();
    db.insert_batch(&batch).unwrap();
    let after = approx_query(&db, Q, &spec);
    let (b0, a0) = (before.rows[0].values[0].1, after.rows[0].values[0].1);
    assert!(
        a0 > b0 * 1.2,
        "advance did not update sampled models: {b0} -> {a0}"
    );
}
