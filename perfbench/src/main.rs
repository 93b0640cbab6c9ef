//! The repo benchmark.
//!
//! ```text
//! benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//! benchmark --repeat <sets>   [--seed n] [--seconds s]
//! ```
//!
//! The first form runs one workload and prints every metric by name
//! with its unit, then — as the last line of standard output — the
//! result object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, measured with no
//! tracing at all; with `--trace 1` the traced pass runs instead and
//! the metrics are the per-layer ones. The exit code is non-zero when
//! an op failed or a correctness check did not hold.
//!
//! The second form runs every workload `sets` times, each in its own
//! process, and prints per workload and end-to-end metric every set's
//! value, their relative spread and the bound — the evidence that sets
//! of runs of one commit agree.

use fdc_perfbench::suite::report::{
    end_to_end, fingerprint, peak_rss_mb, result_line, Block, Metric, END_TO_END, WORKLOADS,
};
use fdc_perfbench::suite::{advise, embed, probes, recover, serve};
use fdc_serve::json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 11,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                args.repeat = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or_else(|| bad("2 or more"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn run_block(workload: &str, seed: u64, block: u64) -> Result<Block, String> {
    match workload {
        "embed-fig9b" => embed::run_block(seed, block),
        "serve-read" => serve::run_block(serve::Kind::Read, seed, block),
        "serve-mixed" => serve::run_block(serve::Kind::Mixed, seed, block),
        "serve-ingest" => serve::run_block(serve::Kind::Ingest, seed, block),
        "serve-recover" => recover::run_block(seed, block),
        "route-mixed" => serve::run_block(serve::Kind::Routed, seed, block),
        "advise-genx" => advise::run_block(seed, block),
        _ => unreachable!("the workload name was checked"),
    }
}

/// What one run reports: the metrics of the result line, numbers that
/// are only printed beside them, ops attempted and ops failed.
type Outcome = (Vec<Metric>, Vec<Metric>, u64, u64);

/// Runs blocks of `workload` until the undisturbed parts of their timed
/// phases add up to about `seconds` (a block in whose first half that
/// would be reached is not begun) or all of them to half as much again,
/// and folds them into the end-to-end metrics.
fn measure(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut blocks: Vec<Block> = Vec::new();
    let (mut measured, mut undisturbed) = (0.0, 0.0);
    // Memory is read after the first block: whether a later block finds
    // room in what the allocator kept of an earlier one is a matter of
    // thread timing, and moved the peak of a whole run by a third.
    let mut peak_mb = 0.0;
    while blocks.is_empty()
        || (undisturbed + measured / blocks.len() as f64 / 2.0 < seconds
            && measured < 1.5 * seconds)
    {
        let block = run_block(workload, seed, blocks.len() as u64)?;
        eprintln!(
            "block {}: setup {:.3} s, measured {:.3} s ({:.3} s undisturbed), {} ops, {} failed",
            blocks.len(),
            block.setup_s,
            block.measured_s,
            block.undisturbed_s(),
            block.attempted,
            block.failed
        );
        measured += block.measured_s;
        undisturbed += block.undisturbed_s();
        if blocks.is_empty() {
            peak_mb = peak_rss_mb()?;
        }
        blocks.push(block);
    }
    let attempted = blocks.iter().map(|b| b.attempted).sum();
    let failed = blocks.iter().map(|b| b.failed).sum();
    let (metrics, raw) = end_to_end(&blocks, peak_mb)?;
    Ok((metrics, vec![raw], attempted, failed))
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    if !WORKLOADS.contains(&workload) {
        eprintln!("unknown workload {workload}; one of {WORKLOADS:?}");
        return ExitCode::from(2);
    }
    println!("fingerprint: {}", fingerprint());
    let outcome = if args.trace {
        probes::run(args.seed).map(|(metrics, traced, a, f)| (metrics, vec![traced], a, f))
    } else {
        measure(workload, args.seed, args.seconds)
    };
    match outcome {
        Ok((metrics, beside, attempted, failed)) => {
            for m in metrics.iter().chain(&beside) {
                println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
            }
            let share = failed as f64 / attempted.max(1) as f64;
            println!("failed_share {share} ({failed} of {attempted} ops)");
            println!("{}", result_line(failed == 0, attempted, failed, &metrics));
            if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(why) => {
            eprintln!("{workload}: correctness check failed: {why}");
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}

/// The numbers one run printed, by name.
type Values = BTreeMap<String, f64>;

/// One child run: its fingerprint line, and every `name value unit`
/// line it printed (the metrics of its result line among them).
fn child(workload: &str, args: &Args, trace: bool) -> Result<(String, Values), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let print = stdout
        .lines()
        .find_map(|l| l.strip_prefix("fingerprint: "))
        .ok_or("the run printed no fingerprint")?
        .to_string();
    let result = stdout.lines().last().ok_or("the run printed no result")?;
    json::parse(result)?;
    let values = stdout
        .lines()
        .filter_map(|l| {
            let mut words = l.split_whitespace();
            let (name, value, _unit) = (words.next()?, words.next()?, words.next()?);
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect();
    Ok((print, values))
}

fn repeat(sets: usize, args: &Args) -> Result<bool, String> {
    let mut prints: Vec<String> = Vec::new();
    // runs[workload][set] = the numbers that run printed, by name
    let mut runs: Vec<Vec<Values>> = vec![Vec::new(); WORKLOADS.len()];
    let mut traced: Vec<Values> = Vec::new();
    for set in 0..sets {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!("set {set}: {workload}");
            let (print, values) = child(workload, args, false)?;
            prints.push(print);
            runs[w].push(values);
        }
        eprintln!("set {set}: traced pass");
        let (print, values) = child(WORKLOADS[0], args, true)?;
        prints.push(print);
        traced.push(values);
    }
    if let Some(other) = prints.iter().find(|p| **p != prints[0]) {
        return Err(format!(
            "refusing to compare runs of two machines or builds:\n  {}\n  {other}",
            prints[0]
        ));
    }
    println!("fingerprint: {}", prints[0]);
    let mut agree = true;
    println!(
        "{:<13} {:<15} {:>7} {:>6}  values, set by set",
        "workload", "metric", "spread", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for &(name, _, _, bound) in &END_TO_END {
            let values = named(&runs[w], name).map_err(|e| format!("{workload}: {e}"))?;
            // Two runs of one commit have no better and no worse: the
            // spread is symmetric.
            let (low, high) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            let spread = (high - low) / low;
            let within = spread <= bound;
            agree &= within;
            let listed: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{workload:<13} {name:<15} {:>6.1}% {:>5.0}%  {}{}",
                spread * 100.0,
                bound * 100.0,
                listed.join("  "),
                if within {
                    ""
                } else {
                    "  <-- outside the bound"
                }
            );
        }
    }
    // Single-threaded engine counters must repeat exactly.
    for name in ["f2db.reestimations", "f2db.model_updates"] {
        let values = named(&traced, name)?;
        let same = values.iter().all(|v| *v == values[0]);
        agree &= same;
        println!("{name}: {values:?}, the same in every set: {same}");
    }
    // What the spans cost: the traced pass's `serve-read` round trip
    // (one client) against the untraced workload's (two clients).
    let read = WORKLOADS
        .iter()
        .position(|w| *w == "serve-read")
        .expect("serve-read is a workload");
    let with = named(&traced, "traced_query_p50_us")?;
    let without = named(&runs[read], "raw_op_p50_us")?;
    for (set, (with, without)) in with.iter().zip(&without).enumerate() {
        println!(
            "trace_overhead set {set}: traced p50 {with:.1} us - untraced p50 {without:.1} us = {:.1} us",
            with - without
        );
    }
    Ok(agree)
}

/// The value every set printed under `name`.
fn named(sets: &[Values], name: &str) -> Result<Vec<f64>, String> {
    sets.iter()
        .map(|set| {
            set.get(name)
                .copied()
                .ok_or_else(|| format!("a run did not report {name}"))
        })
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\nusage: benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]\n       benchmark --repeat <sets> [--seed n] [--seconds s]");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.repeat) {
        (Some(workload), None) => run_one(workload, &args),
        (None, Some(sets)) => match repeat(sets, &args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("{why}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("give exactly one of --workload and --repeat");
            ExitCode::from(2)
        }
    }
}
