//! A minimal micro-benchmark harness (plain `main()` benches, no
//! external framework): warm up, pick an iteration count targeting a
//! fixed measurement window, report mean/min per iteration, and record
//! every sample into the global metrics registry so a bench run ends
//! with a machine-readable snapshot.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs `f` repeatedly and prints one result line. The return value of
/// `f` is passed through [`black_box`] so the work cannot be optimized
/// away. Timings are also recorded into the `bench.<name>.ns` histogram
/// of the global registry.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Warm-up + calibration: run until 10 iterations or 50 ms.
    let calib_start = Instant::now();
    let mut calib_iters = 0u32;
    while calib_iters < 10 && calib_start.elapsed() < Duration::from_millis(50) {
        black_box(f());
        calib_iters += 1;
    }
    let per_iter = calib_start.elapsed() / calib_iters.max(1);
    // Measurement window of ~200 ms, capped at 1000 iterations.
    let iters = if per_iter.is_zero() {
        1000
    } else {
        (Duration::from_millis(200).as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1000) as u32
    };

    let hist = fdc_obs::histogram(&fdc_obs::names::bench_ns(name));
    let mut min = Duration::MAX;
    let total_start = Instant::now();
    for _ in 0..iters {
        let start = Instant::now();
        black_box(f());
        let elapsed = start.elapsed();
        hist.record_duration(elapsed);
        min = min.min(elapsed);
    }
    let mean = total_start.elapsed() / iters;
    println!("{name:<44} {iters:>5} iters   mean {mean:>12.1?}   min {min:>12.1?}");
}

/// Span recording for a bench binary, driven by the environment so no
/// bench needs its own flag parsing: with `FDC_TRACE=<file.json>` set,
/// every span is recorded into a Chrome `trace_event` file written when
/// the session drops; without it this is free.
///
/// Construct one at the top of `main` and keep it alive:
/// `let _obs = fdc_bench::obs_session();`.
pub struct ObsSession {
    trace: Option<(std::sync::Arc<fdc_obs::TraceCollector>, String)>,
}

/// Reads `FDC_TRACE` and, when it names a file, starts recording spans.
pub fn obs_session() -> ObsSession {
    let trace = std::env::var("FDC_TRACE").ok().and_then(|path| {
        let path = path.trim().to_string();
        if path.is_empty() {
            return None;
        }
        let collector = fdc_obs::TraceCollector::new();
        fdc_obs::set_subscriber(collector.clone());
        eprintln!("obs: recording spans to {path}");
        Some((collector, path))
    });
    ObsSession { trace }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        if let Some((collector, path)) = self.trace.take() {
            fdc_obs::take_subscriber();
            match collector.write_to(std::path::Path::new(&path)) {
                Ok(()) => eprintln!("obs: wrote {} span(s) to {path}", collector.len()),
                Err(e) => eprintln!("obs: cannot write trace to {path}: {e}"),
            }
        }
    }
}

/// Prints the global metrics snapshot as JSON, framed so scripts can
/// extract it from mixed stdout (`--- metrics <label> ---` fences).
/// When the environment variable `FDC_METRICS_OUT` is set, the JSON is
/// also written to that file.
pub fn emit_metrics(label: &str) {
    let snap = fdc_obs::snapshot();
    let json = snap.to_json();
    println!("--- metrics {label} ---");
    println!("{json}");
    println!("--- end metrics ---");
    if let Ok(path) = std::env::var("FDC_METRICS_OUT") {
        if !path.is_empty() {
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("cannot write metrics to {path}: {e}");
            }
        }
    }
}
