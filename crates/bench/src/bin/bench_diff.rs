//! Compares two benchmark ledgers (files `bench_ledger` writes) metric
//! by metric against the bounds of `BENCHMARK.json`.
//!
//! ```text
//! bench_diff <parent.json> <change.json>
//! ```
//!
//! Run it from the repository root, where `BENCHMARK.json` is. One line
//! per workload and end-to-end metric: the parent's value, the
//! change's, Δ = change / parent − 1, the bound, and whether the change
//! is within it — worse than the parent by no more than the bound, in
//! the metric's `better` direction. A workload's failed share is within
//! when it is no higher. The traced pass's per-layer metrics follow,
//! with Δ and no bound. The exit code is 1 when anything is outside.
//! Two ledgers are one pair of runs on a noisy host: a claim still needs
//! paired runs.

use fdc_codec::json::{self, Value};
use std::process::ExitCode;

/// The ledger layout this reads (`bench_ledger`'s `SCHEMA`).
const SCHEMA: f64 = 1.0;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("bench_diff: {why}");
            ExitCode::from(2)
        }
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `member` of `doc` as text, or `?`.
fn text<'a>(doc: &'a Value, member: &str) -> &'a str {
    doc.get(member).and_then(Value::as_str).unwrap_or("?")
}

/// The result line of `workload` in a ledger.
fn run_of<'a>(ledger: &'a Value, workload: &str) -> Option<&'a Value> {
    ledger.get("workloads")?.get(workload)
}

/// The value of metric `name` in a result line.
fn metric(result: Option<&Value>, name: &str) -> Option<f64> {
    result?.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// `change / parent − 1`; two equal values (two zeros too) differ by 0.
fn delta(parent: f64, change: f64) -> f64 {
    if parent == change {
        0.0
    } else {
        change / parent - 1.0
    }
}

/// The failed share of a result line.
fn failed_share(result: Option<&Value>) -> Option<f64> {
    let count = |member| result?.get(member)?.as_f64();
    Some(count("failed")? / count("attempted")?.max(1.0))
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [parent, change] = args.as_slice() else {
        return Err("usage: bench_diff <parent.json> <change.json>".into());
    };
    let (parent, change, spec) = (load(parent)?, load(change)?, load("BENCHMARK.json")?);
    for (side, ledger) in [("parent", &parent), ("change", &change)] {
        if ledger.get("schema").and_then(Value::as_f64) != Some(SCHEMA) {
            return Err(format!("the {side} ledger is not of schema {SCHEMA}"));
        }
        let revision = text(ledger, "revision");
        println!("{side}: {revision} {}", text(ledger, "fingerprint"));
    }
    let list = |key: &str| -> Vec<&Value> {
        let items = spec.get(key).and_then(Value::as_array).unwrap_or_default();
        items.iter().collect()
    };
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>8} {:>6}  within",
        "workload", "metric", "parent", "change", "delta", "bound"
    );
    // `within` is `None` for a metric without a bound.
    let row = |workload: &str, name: &str, p, c, bound: &str, within: Option<bool>| {
        let delta = match (p, c) {
            (Some(p), Some(c)) => format!("{:+.1}%", delta(p, c) * 100.0),
            _ => "-".to_string(),
        };
        let shown = |v: Option<f64>| v.map_or("missing".to_string(), |v| format!("{v:.4}"));
        let (p, c) = (shown(p), shown(c));
        let flag = within.map_or("-", |w| if w { "yes" } else { "NO" });
        println!("{workload:<14} {name:<34} {p:>14} {c:>14} {delta:>8} {bound:>6}  {flag}");
    };
    let mut within_all = true;
    for workload in list("workloads") {
        let workload = text(workload, "name");
        let (p_run, c_run) = (run_of(&parent, workload), run_of(&change, workload));
        for m in list("end_to_end") {
            let name = text(m, "name");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let (p, c) = (metric(p_run, name), metric(c_run, name));
            // How much worse the change is: Δ itself where lower is better.
            let worse = if text(m, "better") == "higher" {
                -1.0
            } else {
                1.0
            };
            let within = matches!((p, c), (Some(p), Some(c)) if worse * delta(p, c) <= bound);
            within_all &= within;
            let shown = format!("{:.0}%", bound * 100.0);
            row(workload, name, p, c, &shown, Some(within));
        }
        let (p, c) = (failed_share(p_run), failed_share(c_run));
        let within = matches!((p, c), (Some(p), Some(c)) if c <= p);
        within_all &= within;
        row(workload, "failed share", p, c, "-", Some(within));
    }
    for m in list("per_layer") {
        let name = text(m, "name");
        let traced = |ledger: &Value| metric(ledger.get("traced"), name);
        row("traced", name, traced(&parent), traced(&change), "-", None);
    }
    println!(
        "{}",
        if within_all {
            "every end-to-end metric and failed share is within its bound"
        } else {
            "something is outside its bound (NO above)"
        }
    );
    Ok(within_all)
}
