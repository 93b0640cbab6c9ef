//! The benchmark's inputs are a function of `--seed` and nothing else,
//! and `BENCHMARK.json` names exactly what the code reports.

use fdc_f2db::F2db;
use fdc_perfbench::suite::fixture::{bench_config, mix_seed, Cube, MAX_HORIZON};
use fdc_perfbench::suite::ops::QueryPool;
use fdc_perfbench::suite::report::{END_TO_END, PER_LAYER, WORKLOADS};
use fdc_perfbench::suite::serve::Kind;
use fdc_serve::json::{self, Value};

/// The serving cube: 1,111 nodes, 237 `benchcfg` models.
const BASES: usize = 1000;

fn catalog_bytes(seed: u64) -> Vec<u8> {
    let cube = Cube::generate(BASES, MAX_HORIZON, seed);
    let cfg = bench_config(&cube.history);
    F2db::load(cube.history.clone(), &cfg)
        .expect("benchcfg loads")
        .catalog()
        .encode()
}

#[test]
fn same_seed_same_catalog_bytes_and_other_seed_other_bytes() {
    let a = catalog_bytes(7);
    assert_eq!(a, catalog_bytes(7));
    assert_ne!(a, catalog_bytes(8));
}

#[test]
fn same_seed_same_op_stream_and_other_seed_other_stream() {
    let cube = Cube::generate(BASES, MAX_HORIZON, 1);
    let pool = QueryPool::new(cube.history.graph());
    // The pool depends on the cube's shape only, never on its values.
    let other = QueryPool::new(Cube::generate(BASES, MAX_HORIZON, 2).history.graph());
    let sql = |p: &QueryPool| p.queries.iter().map(|q| q.sql.clone()).collect::<Vec<_>>();
    assert_eq!(sql(&pool), sql(&other));
    for kind in [Kind::Read, Kind::Mixed, Kind::Ingest, Kind::Routed] {
        let a = pool.stream(kind.mix(), mix_seed(5, 1), 5000);
        assert_eq!(a, pool.stream(kind.mix(), mix_seed(5, 1), 5000));
        assert_ne!(a, pool.stream(kind.mix(), mix_seed(6, 1), 5000));
        assert_ne!(a, pool.stream(kind.mix(), mix_seed(5, 2), 5000));
    }
}

#[test]
fn same_seed_same_insert_stream() {
    let a = Cube::generate(BASES, 6, 3);
    let b = Cube::generate(BASES, 6, 3);
    for r in 0..a.rounds() {
        assert_eq!(a.round_body(r), b.round_body(r));
    }
    assert_ne!(a.round_body(0), Cube::generate(BASES, 6, 4).round_body(0));
}

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn names_of(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_names_what_the_code_reports() {
    let doc = manifest();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|&(n, u)| (n.into(), u.into())).collect()
    };
    let e2e: Vec<(&str, &str)> = END_TO_END.iter().map(|&(n, u, ..)| (n, u)).collect();
    assert_eq!(names_of(&doc, "end_to_end"), own(&e2e));
    assert_eq!(names_of(&doc, "per_layer"), own(&PER_LAYER));

    for (m, &(name, _, higher, bound)) in doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end")
        .iter()
        .zip(&END_TO_END)
    {
        let better = m.get("better").and_then(Value::as_str).expect("better");
        assert_eq!(better == "higher", higher, "{name}");
        assert_eq!(
            m.get("bound").and_then(Value::as_f64),
            Some(bound),
            "{name}"
        );
    }
}
