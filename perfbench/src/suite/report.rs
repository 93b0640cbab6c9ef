//! Metric names and units (the same lists as `BENCHMARK.json`), the
//! fold from measured blocks to end-to-end metrics, and the result
//! line the driver reads.

use crate::suite::stats::{median, percentile};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, all digits.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The workloads: the five of the issue, by their normative names, and
/// two that look at `serve-mixed`'s deployment from the writer's side
/// and from after a crash (every workload reports the same metrics, so
/// an op whose latency is to be gated needs a workload of which it is
/// *the* op).
pub const WORKLOADS: [&str; 7] = [
    "embed-fig9b",
    "serve-read",
    "serve-mixed",
    "serve-ingest",
    "serve-recover",
    "route-mixed",
    "advise-genx",
];

/// The end-to-end metrics in report order: name, unit, whether higher
/// is better, and the share of the parent's median by which the metric
/// may get worse before a change is rejected. Every workload reports
/// every one of them; the **op** is the workload's forecast query, the
/// full-round insert on `serve-ingest`, one recovery on `serve-recover`
/// and one advisor run on `advise-genx`. Timings are scaled to the
/// box's nominal speed (see [`crate::suite::reference`]).
pub const END_TO_END: [(&str, &str, bool, f64); 7] = [
    ("op_p50_us", "us", false, 0.20),
    ("op_p90_us", "us", false, 0.20),
    ("ops_per_s", "1/s", true, 0.20),
    ("forecast_smape", "ratio", false, 0.15),
    ("config_models", "count", false, 0.10),
    ("setup_s", "s", false, 0.25),
    ("peak_rss_mb", "MB", false, 0.15),
];

/// The per-layer metrics of the traced pass, in report order; layer =
/// crate name, `client.*` is the load generator's view. Timings are
/// medians over the pass unless the name says otherwise.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("client.connect_us", "us"),
    ("client.conn_reused_share", "ratio"),
    ("client.ttfb_us", "us"),
    ("client.query_p99_us", "us"),
    ("client.insert_p50_us", "us"),
    ("client.insert_p95_us", "us"),
    ("client.insert_p99_us", "us"),
    ("obs.http_read_us", "us"),
    ("obs.http_read_insert_us", "us"),
    ("obs.http_write_us", "us"),
    ("serve.null_rtt_us", "us"),
    ("serve.outside_engine_us", "us"),
    ("serve.json_parse_query_us", "us"),
    ("serve.json_parse_insert_us", "us"),
    ("serve.insert_wait_us", "us"),
    ("serve.rows_per_flush", "rows"),
    ("serve.refused_share", "ratio"),
    ("serve.recover_s", "s"),
    ("f2db.sql_parse_us", "us"),
    ("f2db.query_us", "us"),
    ("f2db.query_groupby_us", "us"),
    ("f2db.query_self_us", "us"),
    ("f2db.catalog_forecast_us.direct", "us"),
    ("f2db.catalog_forecast_us.agg", "us"),
    ("f2db.catalog_forecast_us.disagg", "us"),
    ("f2db.lookup_ratio", "ratio"),
    ("f2db.base_resolve_us", "us"),
    ("f2db.insert_round_us", "us"),
    ("f2db.reestimate_us", "us"),
    ("f2db.refit_share", "ratio"),
    ("f2db.reestimations", "count"),
    ("f2db.model_updates", "count"),
    ("f2db.checkpoint_ms", "ms"),
    ("f2db.checkpoint_bytes", "bytes"),
    ("f2db.open_ms", "ms"),
    ("cube.resolve_us", "us"),
    ("cube.resolve_groupby_us", "us"),
    ("cube.derive_us", "us"),
    ("cube.advance_us", "us"),
    ("cube.graph_build_ms", "ms"),
    ("forecast.fit_us", "us"),
    ("forecast.update_ns", "ns"),
    ("forecast.forecast_ns", "ns"),
    ("forecast.nm_evals_per_fit", "count"),
    ("wal.append_fsync_us", "us"),
    ("wal.append_nofsync_us", "us"),
    ("wal.group_size", "count"),
    ("wal.bytes_per_row", "bytes"),
    ("wal.replay_rows_per_s", "rows/s"),
    ("router.hop_us", "us"),
    ("router.plan_rtt_us", "us"),
    ("router.null_rtt_us", "us"),
    ("router.fanout", "count"),
    ("core.init_ms", "ms"),
    ("core.select_s", "s"),
    ("core.evaluate_s", "s"),
    ("core.iterations", "count"),
    ("core.candidates", "count"),
    ("core.trial_fits", "count"),
    ("core.accept_share", "ratio"),
    ("core.smape", "ratio"),
    ("core.models", "count"),
    ("core.advise_s_gen1000", "s"),
    ("core.advise_s_gen2000", "s"),
    ("core.advise_s_gen4000", "s"),
    ("hierarchical.direct_s", "s"),
    ("hierarchical.direct_smape", "ratio"),
];

/// A short stretch of a client's fixed op sequence, summarised. Runs
/// are folded segment by segment: interference on a shared box comes in
/// bursts of a second or so, and a median over many short segments
/// ignores a burst that a whole-run percentile would absorb.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Median caller-observed latency of the segment's ops, scaled.
    pub p50_us: f64,
    /// Their 90th percentile, scaled — the slowest op where the segment
    /// holds fewer than ten (`serve-recover`). The tail is gated at p90,
    /// not higher: on `serve-mixed` the queries that wait behind an
    /// insert are about one in twenty, so p95 sits on the knee between
    /// them and the rest and moved by 21 % between runs.
    pub p90_us: f64,
    /// Ops completed per second while the segment ran, all clients,
    /// scaled.
    pub ops_per_s: f64,
    /// The median latency as the clock read it, before scaling.
    pub raw_p50_us: f64,
    /// Share of the machine's CPU time the hypervisor took away while
    /// the segment ran.
    pub steal_share: f64,
}

impl Segment {
    /// Summarises `latencies_ns` of the ops of one client's segment,
    /// during which all clients together completed `ops` ops (inserts
    /// included) in `elapsed`. `scale` is `nominal / measured` of the
    /// reference work that followed the segment (see
    /// [`crate::suite::reference`]).
    pub fn of(
        latencies_ns: &mut [u64],
        ops: usize,
        elapsed: Elapsed,
        scale: f64,
    ) -> Option<Segment> {
        latencies_ns.sort_unstable();
        let raw_p50_us = percentile(latencies_ns, 0.50)? as f64 / 1e3;
        Some(Segment {
            p50_us: raw_p50_us * scale,
            p90_us: percentile(latencies_ns, 0.90)? as f64 / 1e3 * scale,
            ops_per_s: ops as f64 / (elapsed.wall_s * scale),
            raw_p50_us,
            steal_share: elapsed.steal_share,
        })
    }

    /// Whether the hypervisor left the segment alone.
    pub fn undisturbed(&self) -> bool {
        self.steal_share <= MAX_STEAL_SHARE
    }
}

/// The ops of one segment of a workload whose ops are long enough
/// (a tenth of a second) that each is followed by its own sample of the
/// reference kernel: the machine changes speed faster than a segment of
/// them ends.
#[derive(Debug, Default)]
pub struct ScaledOps {
    ns: Vec<u64>,
    scaled_ns: f64,
}

impl ScaledOps {
    /// Adds an op that took `ns`, after which the reference kernel gave
    /// `scale`.
    pub fn push(&mut self, ns: u64, scale: f64) {
        self.ns.push(ns);
        self.scaled_ns += ns as f64 * scale;
    }

    /// Folds the ops into the segment that began at `started` and
    /// forgets them. The segment's scale is that of its ops, each
    /// weighted by the time it took; its wall time is theirs alone,
    /// without the reference samples and answer checks in between.
    pub fn fold(&mut self, started: &SegmentStart) -> Option<Segment> {
        let busy_ns = self.ns.iter().sum::<u64>() as f64;
        let elapsed = Elapsed {
            wall_s: busy_ns / 1e9,
            ..started.elapsed()
        };
        let ops = self.ns.len();
        let segment = Segment::of(&mut self.ns, ops, elapsed, self.scaled_ns / busy_ns);
        *self = ScaledOps::default();
        segment
    }
}

/// When a segment began, and the hypervisor's steal counter then.
#[derive(Debug, Clone, Copy)]
pub struct SegmentStart {
    at: std::time::Instant,
    steal_ticks: u64,
}

/// How long a segment ran and how much of that the hypervisor took.
#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    wall_s: f64,
    steal_share: f64,
}

impl SegmentStart {
    /// Now.
    pub fn now() -> SegmentStart {
        SegmentStart {
            steal_ticks: steal_ticks(),
            at: std::time::Instant::now(),
        }
    }

    /// From then to now.
    pub fn elapsed(&self) -> Elapsed {
        let wall_s = self.at.elapsed().as_secs_f64();
        let stolen_s = steal_ticks().saturating_sub(self.steal_ticks) as f64 / USER_HZ;
        let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
        Elapsed {
            wall_s,
            steal_share: stolen_s / (wall_s * cpus as f64),
        }
    }
}

/// Ticks per second of the `/proc/stat` counters.
const USER_HZ: f64 = 100.0;

/// Time the hypervisor ran something else while a virtual CPU of this
/// machine had work to do, in ticks since boot, summed over the CPUs
/// (the eighth counter of the `cpu` line of `/proc/stat`); 0 where the
/// kernel does not report it.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// What one block of a workload measured. A block sets up a fresh
/// fixture and runs a fixed, seeded op sequence against it.
#[derive(Debug, Default)]
pub struct Block {
    /// Cube generation + model fitting + configuration + engine, server
    /// and router start (and on `serve-recover` the crash image), scaled.
    pub setup_s: f64,
    /// The measured part of the op sequence, segment by segment.
    pub segments: Vec<Segment>,
    /// Mean SMAPE of the block's forecasts against held-out truth.
    pub smape: f64,
    /// Models of the configuration the block served (or was advised).
    pub models: f64,
    /// Ops attempted, warm-up included.
    pub attempted: u64,
    /// Ops that failed, were refused or answered wrongly.
    pub failed: u64,
    /// Length of the timed phase.
    pub measured_s: f64,
}

impl Block {
    /// The part of the timed phase that ran undisturbed.
    pub fn undisturbed_s(&self) -> f64 {
        let clean = self.segments.iter().filter(|s| s.undisturbed()).count();
        self.measured_s * clean as f64 / self.segments.len().max(1) as f64
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// A segment during which the hypervisor took more than this share of
/// the machine's CPU time away is set aside.
pub const MAX_STEAL_SHARE: f64 = 0.01;

/// The segments to fold: those that ran undisturbed, or — when fewer
/// than a quarter did — the least disturbed quarter.
fn undisturbed(mut segments: Vec<Segment>) -> Vec<Segment> {
    segments.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
    let clean = segments.partition_point(Segment::undisturbed);
    segments.truncate(clean.max(segments.len().div_ceil(4)));
    segments
}

/// Folds blocks into the end-to-end metrics — latencies and rate are
/// medians over the undisturbed segments of every block; set-up time,
/// accuracy and model count medians over the blocks; `peak_rss_mb` as
/// the caller read it — and the unscaled median latency, which is
/// printed beside them.
pub fn end_to_end(blocks: &[Block], peak_rss_mb: f64) -> Result<(Vec<Metric>, Metric), String> {
    let all: Vec<Segment> = blocks.iter().flat_map(|b| b.segments.clone()).collect();
    let measured = all.len();
    let segments = undisturbed(all);
    eprintln!("{} of {measured} segments folded", segments.len());
    let over_segments = |f: fn(&Segment) -> f64| {
        median(&segments.iter().map(f).collect::<Vec<_>>()).ok_or("no segment was measured")
    };
    let over_blocks = |f: fn(&Block) -> f64| {
        median(&blocks.iter().map(f).collect::<Vec<_>>()).ok_or("no block ran")
    };
    let values = [
        over_segments(|s| s.p50_us)?,
        over_segments(|s| s.p90_us)?,
        over_segments(|s| s.ops_per_s)?,
        over_blocks(|b| b.smape)?,
        over_blocks(|b| b.models)?,
        over_blocks(|b| b.setup_s)?,
        peak_rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, ..), value)| Metric { name, value, unit })
        .collect();
    let raw = Metric {
        name: "raw_op_p50_us",
        value: over_segments(|s| s.raw_p50_us)?,
        unit: "us",
    };
    Ok((metrics, raw))
}

/// The result line: one JSON object with exactly the keys the driver
/// expects, every value printed with all its digits.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    )
}

/// Where the numbers were taken: cores, CPU model, frequency governor
/// when readable, kernel, compiler and commit. Numbers of two
/// fingerprints are never compared.
pub fn fingerprint() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let first_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
    };
    let unknown = || "unknown".to_string();
    let cpu = read("/proc/cpuinfo")
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let governor = read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
    let kernel = read("/proc/sys/kernel/osrelease");
    format!(
        "nproc={} cpu=\"{cpu}\" governor={} kernel={} rustc=\"{}\" commit={}",
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        governor.map_or_else(unknown, |g| g.trim().to_string()),
        kernel.map_or_else(unknown, |k| k.trim().to_string()),
        first_line("rustc", &["--version"]).unwrap_or_else(unknown),
        first_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
    )
}
