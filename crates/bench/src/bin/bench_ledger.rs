//! Writes one benchmark ledger: the result line of every workload
//! `BENCHMARK.json` lists, one traced pass, and where they were taken.
//!
//! ```text
//! bench_ledger <out.json>
//! ```
//!
//! Run it from the root of the checkout to measure: it runs that
//! checkout's `BENCHMARK.json` command (which builds the benchmark from
//! the checkout's own source) once per workload at `--seed 11 --seconds
//! 10 --trace 0`, then once with `--trace 1`, and refuses to mix runs
//! whose `fingerprint:` lines differ. Every ledger is taken the same
//! way, so any two compare; `bench_diff` reads two.
//!
//! The document (schema 1): `schema`, `revision` (the checkout's
//! `HEAD`), `available_parallelism`, `fingerprint`, `seed`, `seconds`,
//! `workloads` (workload → result line) and `traced` (a result line).

use fdc_codec::json::{self, Value, Writer};
use std::process::{Command, ExitCode, Stdio};

/// The ledger layout; a member that changes meaning bumps it.
const SCHEMA: u64 = 1;

/// The benchmark's seed and run length, as every ledger takes them.
const SEED: u64 = 11;
const SECONDS: u64 = 10;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("bench_ledger: {why}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [out] = args.as_slice() else {
        return Err("usage: bench_ledger <out.json>".into());
    };
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the checkout's root)"))?;
    let spec = json::parse(&spec)?;
    let strings = |v: &Value| v.as_str().map(str::to_string);
    let command: Vec<String> = members(&spec, "command")?
        .iter()
        .filter_map(strings)
        .collect();
    let workloads: Vec<String> = members(&spec, "workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(strings))
        .collect();
    let (program, fixed) = command
        .split_first()
        .ok_or("BENCHMARK.json has no command")?;
    let first = workloads
        .first()
        .ok_or("BENCHMARK.json lists no workload")?;

    let bench = |workload: &str, trace: &str| -> Result<(String, String), String> {
        eprintln!("bench_ledger: {workload} --trace {trace}");
        let output = Command::new(program)
            .args(fixed)
            .args(["--workload", workload, "--seed", &SEED.to_string()])
            .args(["--seconds", &SECONDS.to_string(), "--trace", trace])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{program}: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        if !output.status.success() {
            return Err(format!("{workload} exited with {}", output.status));
        }
        let fingerprint = stdout
            .lines()
            .find_map(|l| l.strip_prefix("fingerprint: "))
            .ok_or(format!("{workload} printed no fingerprint"))?;
        let result = stdout.lines().last().unwrap_or_default();
        json::parse(result).map_err(|e| format!("{workload}'s result line: {e}"))?;
        Ok((fingerprint.to_string(), result.to_string()))
    };
    let mut runs = Vec::new();
    for workload in &workloads {
        runs.push((workload, bench(workload, "0")?));
    }
    let (traced_print, traced) = bench(first, "1")?;
    let fingerprint = &runs[0].1 .0;
    let prints = runs.iter().map(|(_, (print, _))| print);
    if let Some(other) = prints.chain([&traced_print]).find(|p| *p != fingerprint) {
        return Err(format!(
            "two machines or builds:\n  {fingerprint}\n  {other}"
        ));
    }

    let git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .map_err(|e| format!("git: {e}"))?;
    let revision = String::from_utf8_lossy(&git.stdout).trim().to_string();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut w = Writer::new();
    w.begin_object().key("schema").u64(SCHEMA);
    w.key("revision").str(&revision);
    w.key("available_parallelism").usize(cores);
    w.key("fingerprint").str(fingerprint);
    w.key("seed").u64(SEED).key("seconds").u64(SECONDS);
    w.key("workloads").begin_object();
    for (workload, (_, result)) in &runs {
        w.key(workload).raw(result);
    }
    w.end_object().key("traced").raw(&traced).end_object();
    let mut document = w.finish();
    document.push('\n');
    std::fs::write(out, document).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("bench_ledger: wrote {out}");
    Ok(())
}

/// The array under `key` of `BENCHMARK.json`.
fn members<'a>(spec: &'a Value, key: &str) -> Result<&'a [Value], String> {
    spec.get(key)
        .and_then(Value::as_array)
        .ok_or(format!("BENCHMARK.json has no \"{key}\" array"))
}
