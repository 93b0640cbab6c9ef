//! # fdc-obs — observability for the data-cube advisor and F²DB
//!
//! The paper's whole value proposition is a cost/accuracy trade-off: the
//! advisor spends model-creation time to buy SMAPE, and F²DB answers
//! forecast queries under latency constraints. This crate is the
//! measurement layer that makes those costs visible:
//!
//! * a process-global, thread-safe **metrics registry** — atomic
//!   [`Counter`]s, [`Gauge`]s, and log-bucketed [`Histogram`]s whose
//!   p50/p95/p99/p999 snapshots come from an embedded t-digest
//!   ([`Snapshot`] renders as text or JSON);
//! * lightweight hierarchical **tracing spans** — `let _g =
//!   span!("advisor.step");` RAII guards that aggregate wall-clock time
//!   per dotted path, with an optional [`SpanSubscriber`] such as
//!   [`FlameCollector`] that renders a flame-style summary.
//!
//! Everything is `std`-only and safe to leave enabled in release
//! builds: counters are single atomic adds, histograms are one atomic
//! add into a power-of-two bucket, and spans cost two `Instant::now()`
//! calls plus one histogram record. Span collection can be switched off
//! globally with [`set_spans_enabled`].
//!
//! Metric names are dotted paths (`f2db.query.ns`); by convention a
//! name ending in `.ns` holds nanoseconds and is rendered as a humanized
//! duration by [`Snapshot`]'s `Display`. The canonical names used by the
//! workspace live in [`names`].
//!
//! On top of the registry sit the drift/export layers:
//!
//! * **labeled series** — `counter_with("hits", &[("node", "3")])`
//!   interns `hits{node="3"}` with canonical label order and a bounded
//!   per-family cardinality ([`labels`]);
//! * **mergeable sketches** — [`TDigest`] (accurate tail quantiles in
//!   constant space; backs every histogram's p50/p95/p99/p999) and
//!   [`MomentSummary`] (exactly mergeable moments), both with versioned
//!   byte codecs so per-shard sketches can cross process boundaries
//!   ([`sketch`]);
//! * **rolling accuracy** — [`RollingAccuracy`] tracks per-key error
//!   moments on [`MomentSummary`] ring slots and raises edge-triggered
//!   [`DriftAlert`]s (SMAPE threshold or variance-aware);
//! * **event journal** — [`journal`] is a bounded ring of typed
//!   [`Event`]s with an optional JSONL sink;
//! * **export plane** — [`encode_prometheus`] (text exposition, which
//!   `fdc-serve` and `fdc-router` answer `GET /metrics` with),
//!   [`httpcore`] (the one HTTP/1.1 layer), and [`TraceCollector`]
//!   (Chrome `trace_event` JSON for Perfetto).

pub mod accuracy;
pub mod events;
pub mod export;
pub mod labels;
pub mod metrics;
pub mod names;
pub mod sketch;
pub mod span;
pub mod trace;
pub mod wire;

pub use accuracy::{AccuracyOptions, DriftAlert, DriftTrigger, KeyAccuracy, RollingAccuracy};
pub use events::{journal, Event, Journal, TimedEvent};
pub use export::httpcore;
pub use export::prom::encode_prometheus;
pub use export::trace::{
    install_env_exporter, merge_trace_documents, merge_trace_files, TraceCollector,
};
pub use labels::{prometheus_name, series_key, split_series, MAX_SERIES_PER_FAMILY};
pub use metrics::{
    registry, Counter, Exemplar, FloatGauge, Gauge, Histogram, HistogramSnapshot, Registry,
    Snapshot, EXEMPLAR_WINDOW,
};
pub use sketch::{MomentSummary, SketchDecodeError, TDigest};
pub use span::{
    set_spans_enabled, set_subscriber, spans_enabled, take_subscriber, FlameCollector, SpanGuard,
    SpanSubscriber, SpanTrace,
};
pub use trace::{TraceContext, TRACEPARENT_HEADER};
pub use wire::SketchBundle;

use std::sync::Arc;

/// Returns (interning on first use) the counter registered under `name`.
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

/// Returns (interning on first use) the gauge registered under `name`.
pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name)
}

/// Returns (interning on first use) the float gauge registered under
/// `name`.
pub fn float_gauge(name: &str) -> Arc<FloatGauge> {
    registry().float_gauge(name)
}

/// Returns (interning on first use) the histogram registered under
/// `name`. Suffix the name with `.ns` when recording nanoseconds.
pub fn histogram(name: &str) -> Arc<Histogram> {
    registry().histogram(name)
}

/// Returns the labeled counter series `name{labels}` (canonical label
/// order; per-family cardinality bounded by [`MAX_SERIES_PER_FAMILY`]).
pub fn counter_with(name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    registry().counter_with(name, labels)
}

/// Returns the labeled gauge series `name{labels}`.
pub fn gauge_with(name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
    registry().gauge_with(name, labels)
}

/// Returns the labeled float-gauge series `name{labels}`.
pub fn float_gauge_with(name: &str, labels: &[(&str, &str)]) -> Arc<FloatGauge> {
    registry().float_gauge_with(name, labels)
}

/// Returns the labeled histogram series `name{labels}`.
pub fn histogram_with(name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    registry().histogram_with(name, labels)
}

/// The counter registered under `$name`, as a `&'static Counter` this
/// call site resolves on its first pass and keeps: a per-request path
/// pays the registry's lock and name walk once, not per request. The
/// name is read on that first pass only, so it must not vary.
/// [`Registry::reset`] zeroes what the handle points at, as for any
/// other handle.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::counter($name))
    }};
}

/// [`counter!`] for the histogram registered under `$name`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        &**HANDLE.get_or_init(|| $crate::histogram($name))
    }};
}

/// Takes a consistent snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Opens a hierarchical tracing span that closes when the returned
/// guard is dropped:
///
/// ```
/// let _g = fdc_obs::span!("advisor.step");
/// // ... timed work ...
/// ```
///
/// Nested spans build dotted paths (`advisor.step/select`); each close
/// records into the `span.<path>.ns` histogram and notifies the global
/// subscriber, if any. The guard must be bound to a named variable
/// (`let _g = ...`) — `let _ = ...` drops it immediately.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exercises the global enable flag and the macro in one sequential
    /// test: other tests in this binary use spans concurrently, so the
    /// flag must only ever be toggled here.
    #[test]
    fn span_macro_records_into_registry() {
        set_spans_enabled(false);
        {
            let _g = crate::span!("obs_lib_test.disabled");
        }
        set_spans_enabled(true);
        assert!(
            !crate::snapshot()
                .histograms
                .iter()
                .any(|(n, _)| n == "span.obs_lib_test.disabled.ns"),
            "disabled span leaked into registry"
        );
        {
            let _g = crate::span!("obs_lib_test.outer");
            let _h = crate::span!("inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = crate::snapshot();
        let outer = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "span.obs_lib_test.outer.ns")
            .expect("outer span histogram");
        assert!(outer.1.count >= 1);
        assert!(
            snap.histograms
                .iter()
                .any(|(n, _)| n == "span.obs_lib_test.outer/inner.ns"),
            "nested span path missing: {:?}",
            snap.histograms.iter().map(|(n, _)| n).collect::<Vec<_>>()
        );
    }
}
