//! Micro-benchmarks of the observability plane itself: what one metric
//! record costs (plain vs labeled, interned vs held handle), what a span
//! costs to enter and close (plain, and timed into a held histogram),
//! what the drift tracker adds per time advance, what the sketches cost
//! (t-digest insert/merge, moment-summary insert/merge), and what a full
//! Prometheus encode / journal publish costs. The measured numbers back
//! the overhead discussion in DESIGN.md §7 and EXPERIMENTS.md.
//!
//! Run with `cargo bench -p fdc-bench --bench obs`.

use fdc_bench::timing::{bench, emit_metrics};
use fdc_obs::{AccuracyOptions, Event, Journal, MomentSummary, RollingAccuracy, TDigest};
use std::hint::black_box;

fn bench_metric_records() {
    bench("counter_incr_held_handle", {
        let c = fdc_obs::counter("obsbench.plain");
        move || c.incr()
    });
    bench("counter_incr_interned_by_name", || {
        fdc_obs::counter("obsbench.plain").incr()
    });
    bench("labeled_counter_incr_held_handle", {
        let c = fdc_obs::counter_with("obsbench.labeled", &[("node", "17"), ("phase", "x")]);
        move || c.incr()
    });
    bench("labeled_counter_incr_interned", || {
        fdc_obs::counter_with("obsbench.labeled", &[("node", "17"), ("phase", "x")]).incr()
    });
    bench("histogram_record_held_handle", {
        let h = fdc_obs::histogram("obsbench.lat.ns");
        let mut v = 1u64;
        move || {
            v = v.wrapping_mul(2862933555777941757).wrapping_add(1);
            h.record(v >> 40)
        }
    });
    // Both extremes recorded first, so every later sample skips the
    // min/max read-modify-writes: the common case of a warm histogram.
    bench("histogram_record_inside_range", {
        let h = fdc_obs::histogram("obsbench.inside.ns");
        h.record(0);
        h.record(u64::MAX);
        let mut v = 1u64;
        move || {
            v = v.wrapping_mul(2862933555777941757).wrapping_add(1);
            h.record(v >> 40)
        }
    });
}

/// What a span costs with no subscriber installed: a plain span's enter
/// and close (two clock reads, its `span.<path>.ns` record), and a timed
/// span's enter and finish into a held histogram (the same two clock
/// reads and one record, which its caller would otherwise make itself).
fn bench_spans() {
    bench("span_enter_close", || {
        let _g = fdc_obs::span!("obsbench.span");
    });
    bench("timed_span_finish", {
        let h = fdc_obs::histogram("obsbench.timed.ns");
        move || fdc_obs::SpanGuard::timed("obsbench.timed").finish(&h)
    });
}

fn bench_drift_tracker() {
    let acc = RollingAccuracy::new(AccuracyOptions::default()).with_gauge_families(
        "obsbench.smape",
        "obsbench.mae",
        "obsbench.err_stddev",
    );
    let mut key = 0u64;
    bench("rolling_accuracy_record_64_keys", move || {
        key = (key + 1) % 64;
        acc.record(key, 100.0, 98.5)
    });
}

/// What the sketches cost: digest inserts (the per-histogram-record
/// overhead), digest merges at snapshot shape, and moment-summary
/// insert/merge — the numbers behind the EXPERIMENTS.md overhead table.
fn bench_sketches() {
    bench("tdigest_insert", {
        let mut d = TDigest::new(100.0);
        let mut v = 1u64;
        move || {
            v = v.wrapping_mul(2862933555777941757).wrapping_add(1);
            d.insert((v >> 40) as f64)
        }
    });
    // Merge cost at the shape Histogram::snapshot sees: four populated
    // shard digests folded into a fresh one.
    let shards: Vec<TDigest> = (0..4)
        .map(|s| {
            let mut d = TDigest::new(100.0);
            let mut v = 1u64 + s;
            for _ in 0..10_000 {
                v = v.wrapping_mul(2862933555777941757).wrapping_add(1);
                d.insert((v >> 40) as f64);
            }
            d.flush();
            d
        })
        .collect();
    bench("tdigest_merge_4_shards_10k_each", || {
        let mut merged = TDigest::new(100.0);
        for s in &shards {
            merged.merge(s);
        }
        merged.flush();
        black_box(merged.quantile(0.99))
    });
    bench("moment_summary_insert", {
        let mut m = MomentSummary::new();
        let mut v = 1u64;
        move || {
            v = v.wrapping_mul(2862933555777941757).wrapping_add(1);
            m.insert((v >> 40) as f64)
        }
    });
    let a = {
        let mut m = MomentSummary::new();
        for i in 0..10_000 {
            m.insert(i as f64);
        }
        m
    };
    let b = {
        let mut m = MomentSummary::new();
        for i in 0..10_000 {
            m.insert(1.5 * i as f64);
        }
        m
    };
    bench("moment_summary_merge", || black_box(a.merge(&b)));
}

fn bench_export_plane() {
    // Populate a realistic registry shape first (the other benches above
    // already added families; add a labeled spread).
    for node in 0..64 {
        fdc_obs::float_gauge_with("obsbench.spread", &[("node", &node.to_string())])
            .set(node as f64 / 64.0);
    }
    bench("encode_prometheus_full_registry", || {
        black_box(fdc_obs::encode_prometheus(&fdc_obs::snapshot()).len())
    });
    bench("snapshot_to_json", || {
        black_box(fdc_obs::snapshot().to_json().len())
    });
    let journal = Journal::with_capacity(1024);
    let mut i = 0u64;
    bench("journal_publish_ring_only", move || {
        i += 1;
        journal.publish(Event::BatchAdvance {
            time_index: i,
            model_updates: 22,
            invalidations: 3,
            drift_alerts: 0,
        })
    });
}

fn main() {
    bench_metric_records();
    bench_spans();
    bench_drift_tracker();
    bench_sketches();
    bench_export_plane();
    emit_metrics("bench_obs");
}
