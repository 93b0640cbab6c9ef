//! Prices sampled aggregate forecasting at high cardinality — the
//! headline contract of the sampling plane: **aggregate forecasts over
//! a million base cells in single-digit milliseconds**, with honest
//! confidence intervals.
//!
//! Two measurements, one binary:
//!
//! - **Latency** — a heavy-tailed cube at `--cells` (default 10⁶) base
//!   cells, a stratified plane attached, then `--queries` aggregate
//!   forecast queries through the full engine path
//!   ([`F2db::execute`] with `approx` controls). Reported as p50/p95
//!   wall-clock per query. An exact answer would fold 10⁶ per-cell
//!   forecasts per query; the plane folds a few hundred sampled ones.
//! - **Coverage** — the intervals must mean what they say. At a reduced
//!   cell count (exact oracles over 10⁶ cells per trial would dominate
//!   the run), `--trials` independently seeded planes each forecast the
//!   cube total; a trial *hits* when the oracle — the exact sum of
//!   per-cell model forecasts, the quantity the estimator targets —
//!   lies inside the interval on every step. Empirical coverage must
//!   stay within `EPSILON` of the nominal confidence.
//!
//! Everything is seeded: two runs of the same build produce identical
//! estimates, intervals, and coverage (latency numbers move, verdicts
//! don't).
//!
//! `--strict` exits non-zero when p95 exceeds [`MAX_P95_MS`] or
//! coverage falls below nominal − [`EPSILON`] — the CI gate
//! (`approx-smoke`) that keeps the contract honest.
//!
//! Usage: `cargo run -p fdc-bench --release --bin approx_qps --
//! [--cells n] [--queries n] [--trials n] [--budget n] [--strict]
//! [--json-out FILE]`

use fdc_approx::{ApproxOptions, ApproxPlane, ApproxQuerySpec};
use fdc_cube::{Configuration, Dataset};
use fdc_datagen::{generate_highcard, HighCardSpec};
use fdc_f2db::{F2db, QueryAnswer, QueryMode, QueryRequest};
use fdc_forecast::{FitOptions, ModelSpec};
use std::time::Instant;

/// Strict-mode bound on the p95 query latency, in milliseconds.
const MAX_P95_MS: f64 = 10.0;

/// Nominal confidence of the coverage trials.
const CONFIDENCE: f64 = 0.90;

/// Strict-mode slack under the nominal confidence.
const EPSILON: f64 = 0.10;

/// Forecast horizon of every query and trial.
const HORIZON: usize = 3;

const SQL: &str = "SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '3 steps'";

fn spec_at(cells: usize, seed: u64) -> HighCardSpec {
    HighCardSpec {
        // Groups sized so every group stays under the plane's
        // population floor: only the cube total answers sampled, the
        // worst-case (largest-population) aggregate.
        groups: (cells / 100).max(1),
        length: 16,
        ..HighCardSpec::new(cells, seed)
    }
}

fn plane_options(seed: u64) -> ApproxOptions {
    ApproxOptions {
        strata: 10,
        samples_per_stratum: 64,
        seed,
        confidence: CONFIDENCE,
        spec: Some(ModelSpec::Ses),
        ..ApproxOptions::default()
    }
}

/// The exact oracle: the sum over every base cell of that cell's own
/// model forecast — the population total the estimator scales up to.
fn exact_sum_forecast(ds: &Dataset, fit: &FitOptions) -> Vec<f64> {
    let mut total = vec![0.0f64; HORIZON];
    for &b in ds.graph().base_nodes() {
        let model = ModelSpec::Ses.fit(ds.series(b), fit).expect("oracle fit");
        for (h, v) in model.forecast(HORIZON).iter().enumerate() {
            total[h] += v;
        }
    }
    total
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

fn main() {
    let mut cells = 1_000_000usize;
    let mut queries = 200usize;
    let mut trials = 24usize;
    let mut budget: Option<usize> = None;
    let mut strict = false;
    let mut json_out: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cells" => {
                cells = it
                    .next()
                    .expect("--cells needs n")
                    .parse()
                    .expect("--cells")
            }
            "--queries" => {
                queries = it
                    .next()
                    .expect("--queries needs n")
                    .parse()
                    .expect("--queries")
            }
            "--trials" => {
                trials = it
                    .next()
                    .expect("--trials needs n")
                    .parse()
                    .expect("--trials")
            }
            "--budget" => {
                budget = Some(
                    it.next()
                        .expect("--budget needs n")
                        .parse()
                        .expect("--budget"),
                )
            }
            "--strict" => strict = true,
            "--json-out" => json_out = Some(it.next().expect("--json-out needs a path")),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    // ---- Latency at full scale ------------------------------------
    println!("generating {cells} base cell(s)…");
    let gen_start = Instant::now();
    let ds = generate_highcard(&spec_at(cells, 0xBE9C)).dataset;
    println!("  generated in {:.1?}", gen_start.elapsed());

    let build_start = Instant::now();
    let empty = Configuration::new(ds.node_count());
    let db = F2db::load(ds, &empty)
        .expect("load")
        .with_approx(plane_options(0xA9B0))
        .expect("plane");
    let build_secs = build_start.elapsed().as_secs_f64();
    println!("  plane attached in {build_secs:.1}s");

    let request = QueryRequest {
        approx: Some(ApproxQuerySpec {
            budget,
            ..ApproxQuerySpec::default()
        }),
        ..QueryRequest::new(SQL, QueryMode::Forecast)
    };
    let query = || {
        db.execute(&request)
            .ok()
            .and_then(QueryAnswer::into_rows)
            .expect("query")
    };
    // One warmup answers lazy one-time costs; measured queries follow.
    let warm = query();
    let row = &warm.rows[0];
    let meta = row.approx.as_ref().expect("sampled row");
    println!(
        "  estimate {:.3e} ± {:.3e} from {} of {} cells",
        row.values[0].1, meta.ci_half[0], meta.sampled, meta.population
    );

    let mut lat_ms: Vec<f64> = Vec::with_capacity(queries);
    for _ in 0..queries {
        let started = Instant::now();
        let res = query();
        assert_eq!(res.rows[0].values.len(), HORIZON);
        lat_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (p50, p95) = (percentile(&lat_ms, 0.50), percentile(&lat_ms, 0.95));
    println!(
        "latency over {queries} aggregate queries at {cells} cells: p50 {p50:.3} ms, p95 {p95:.3} ms"
    );

    // ---- Coverage at reduced scale --------------------------------
    let cov_cells = cells.clamp(1_000, 50_000);
    let cov_ds = generate_highcard(&spec_at(cov_cells, 0xC07E)).dataset;
    let fit = FitOptions::default();
    let truth = exact_sum_forecast(&cov_ds, &fit);
    let top = cov_ds.graph().top_node();
    let mut hits = 0usize;
    for t in 0..trials {
        let plane = ApproxPlane::build(
            &cov_ds,
            Some(&[top]),
            ApproxOptions {
                samples_per_stratum: 24,
                min_population: cov_cells / 2,
                ..plane_options(0x51AB_0000 + t as u64)
            },
        )
        .expect("trial plane");
        let fc = plane
            .estimate(top, HORIZON, &ApproxQuerySpec::default())
            .expect("trial estimate");
        let hit = truth
            .iter()
            .zip(fc.values.iter().zip(&fc.ci_half))
            .all(|(&t, (&est, &half))| (est - t).abs() <= half);
        hits += hit as usize;
    }
    let coverage = hits as f64 / trials as f64;
    println!(
        "coverage at {cov_cells} cells: {hits}/{trials} trials inside the {:.0}% interval ({coverage:.3}; floor {:.3})",
        CONFIDENCE * 100.0,
        CONFIDENCE - EPSILON
    );

    if let Some(path) = json_out {
        let summary = format!(
            "{{\"suite\":\"approx-qps\",\"cells\":{cells},\"queries\":{queries},\
             \"sampled\":{},\"population\":{},\"plane_build_secs\":{build_secs:.2},\
             \"p50_ms\":{p50:.4},\"p95_ms\":{p95:.4},\
             \"coverage\":{{\"cells\":{cov_cells},\"trials\":{trials},\"hits\":{hits},\
             \"empirical\":{coverage:.4},\"confidence\":{CONFIDENCE},\"epsilon\":{EPSILON}}},\
             \"strict_bound_p95_ms\":{MAX_P95_MS}}}",
            meta.sampled, meta.population,
        );
        std::fs::write(&path, &summary).expect("write --json-out");
        println!("wrote {path}");
    }

    if strict {
        let mut failed = false;
        if p95 >= MAX_P95_MS {
            eprintln!("STRICT FAIL: p95 {p95:.3} ms >= {MAX_P95_MS} ms");
            failed = true;
        }
        if coverage < CONFIDENCE - EPSILON {
            eprintln!(
                "STRICT FAIL: coverage {coverage:.3} < {:.3}",
                CONFIDENCE - EPSILON
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("strict bounds hold: p95 < {MAX_P95_MS} ms, coverage >= nominal - epsilon");
    }
}
