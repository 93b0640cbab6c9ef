//! Prometheus text-format exposition (version 0.0.4).
//!
//! One encoder renders a [`Snapshot`] for every consumer: the shell's
//! `\metrics` command and the `/metrics` routes of the forecast server
//! and the router, so they can never drift apart.
//!
//! Series keys in the registry already carry their labels in Prometheus
//! syntax (`name{k="v"}`, canonical order, escaped values — see
//! `crate::labels`), so encoding a labeled sample is: split the family
//! off at the first `{`, sanitize the family into the Prometheus name
//! charset, and emit the label body verbatim. Histograms expand into
//! the conventional `_bucket{le=...}` / `_sum` / `_count` triple with
//! cumulative, non-decreasing bucket counts.

use crate::labels::{prometheus_name, split_series};
use crate::metrics::Snapshot;
use std::collections::BTreeMap;

/// The `Content-Type` of every `GET /metrics` answer: the text format,
/// version 0.0.4, in UTF-8.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Groups a section's series by sanitized family name, preserving the
/// snapshot's sorted order within each family. Prometheus requires all
/// samples of a family to be contiguous under one `# TYPE` line.
fn group_by_family<V: Copy>(series: &[(String, V)]) -> BTreeMap<String, Vec<(&str, V)>> {
    let mut families: BTreeMap<String, Vec<(&str, V)>> = BTreeMap::new();
    for (key, v) in series {
        let (family, _) = split_series(key);
        families
            .entry(prometheus_name(family))
            .or_default()
            .push((key.as_str(), *v));
    }
    families
}

/// Appends one sample line: `name{body} value` (or `name value` when
/// the series has no labels).
fn push_sample(out: &mut String, name: &str, body: &str, value: &str) {
    out.push_str(name);
    if !body.is_empty() {
        out.push('{');
        out.push_str(body);
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Renders `f` the way Prometheus expects floats (finite shortest form;
/// non-finite becomes `NaN`/`+Inf`/`-Inf`, which the text format allows).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Encodes a snapshot in the Prometheus text exposition format.
pub fn encode_prometheus(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(1024);

    for (family, series) in group_by_family(&snap.counters) {
        out.push_str(&format!("# TYPE {family} counter\n"));
        for (key, v) in series {
            let (_, body) = split_series(key);
            push_sample(&mut out, &family, body, &v.to_string());
        }
    }

    for (family, series) in group_by_family(&snap.gauges) {
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for (key, v) in series {
            let (_, body) = split_series(key);
            push_sample(&mut out, &family, body, &v.to_string());
        }
    }

    for (family, series) in group_by_family(&snap.float_gauges) {
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for (key, v) in series {
            let (_, body) = split_series(key);
            push_sample(&mut out, &family, body, &fmt_f64(v));
        }
    }

    for (family, series) in group_by_family(&snap.histograms) {
        out.push_str(&format!("# TYPE {family} histogram\n"));
        for (key, h) in series {
            let (_, body) = split_series(key);
            let bucket_name = format!("{family}_bucket");
            for (le, cum) in h.cumulative_buckets() {
                let le_label = format!("le=\"{le}\"");
                let full_body = if body.is_empty() {
                    le_label
                } else {
                    format!("{body},{le_label}")
                };
                push_sample(&mut out, &bucket_name, &full_body, &cum.to_string());
            }
            let inf_body = if body.is_empty() {
                "le=\"+Inf\"".to_string()
            } else {
                format!("{body},le=\"+Inf\"")
            };
            match h.exemplar {
                // OpenMetrics exemplar: ` # {labels} value timestamp`.
                // Attached to the `+Inf` bucket, whose bound trivially
                // admits any observed value.
                Some(ex) => {
                    out.push_str(&format!(
                        "{bucket_name}{{{inf_body}}} {} # {{trace_id=\"{:032x}\"}} {} {}\n",
                        h.count,
                        ex.trace_id,
                        ex.value,
                        fmt_f64(ex.unix_ms as f64 / 1000.0),
                    ));
                }
                None => push_sample(&mut out, &bucket_name, &inf_body, &h.count.to_string()),
            }
            push_sample(&mut out, &format!("{family}_sum"), body, &h.sum.to_string());
            push_sample(
                &mut out,
                &format!("{family}_count"),
                body,
                &h.count.to_string(),
            );
        }
    }

    // Digest-backed percentile gauges: a companion `<family>_digest`
    // gauge family per histogram, labeled `quantile=...` in the style of
    // Prometheus summaries. The `_bucket` series above keep the coarse
    // log-bucket shape; these carry the t-digest's tail accuracy.
    for (family, series) in group_by_family(&snap.histograms) {
        out.push_str(&format!("# TYPE {family}_digest gauge\n"));
        let name = format!("{family}_digest");
        for (key, h) in series {
            let (_, body) = split_series(key);
            for (q, v) in [
                ("0.5", h.p50),
                ("0.95", h.p95),
                ("0.99", h.p99),
                ("0.999", h.p999),
            ] {
                let q_label = format!("quantile=\"{q}\"");
                let full_body = if body.is_empty() {
                    q_label
                } else {
                    format!("{body},{q_label}")
                };
                push_sample(&mut out, &name, &full_body, &v.to_string());
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn encodes_all_metric_kinds() {
        let r = Registry::default();
        r.counter("f2db.queries").add(7);
        r.gauge("advisor.model_count").set(42);
        r.float_gauge_with("f2db.node.smape", &[("node", "3")])
            .set(0.625);
        r.histogram("f2db.query.ns").record(1000);
        r.histogram("f2db.query.ns").record(3000);
        let text = encode_prometheus(&r.snapshot());

        assert!(text.contains("# TYPE f2db_queries counter\n"), "{text}");
        assert!(text.contains("f2db_queries 7\n"), "{text}");
        assert!(text.contains("# TYPE advisor_model_count gauge\n"));
        assert!(text.contains("advisor_model_count 42\n"));
        assert!(text.contains("# TYPE f2db_node_smape gauge\n"));
        assert!(text.contains("f2db_node_smape{node=\"3\"} 0.625\n"));
        assert!(text.contains("# TYPE f2db_query_ns histogram\n"));
        assert!(
            text.contains("f2db_query_ns_bucket{le=\"1023\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("f2db_query_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("f2db_query_ns_sum 4000\n"));
        assert!(text.contains("f2db_query_ns_count 2\n"));
        // Digest-backed quantile gauges ride along as a companion family.
        assert!(
            text.contains("# TYPE f2db_query_ns_digest gauge\n"),
            "{text}"
        );
        assert!(
            text.contains("f2db_query_ns_digest{quantile=\"0.5\"} "),
            "{text}"
        );
        assert!(
            text.contains("f2db_query_ns_digest{quantile=\"0.999\"} 3000\n"),
            "{text}"
        );
        // Every line is a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# ") || line.rsplit_once(' ').is_some(),
                "{line}"
            );
        }
    }

    #[test]
    fn labeled_histogram_merges_le_label() {
        let r = Registry::default();
        r.histogram_with("work.ns", &[("kind", "fit")]).record(100);
        let text = encode_prometheus(&r.snapshot());
        assert!(
            text.contains("work_ns_bucket{kind=\"fit\",le=\"127\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("work_ns_bucket{kind=\"fit\",le=\"+Inf\"} 1\n"));
        assert!(text.contains("work_ns_sum{kind=\"fit\"} 100\n"));
        assert!(text.contains("work_ns_count{kind=\"fit\"} 1\n"));
        assert!(
            text.contains("work_ns_digest{kind=\"fit\",quantile=\"0.99\"} 100\n"),
            "{text}"
        );
    }

    #[test]
    fn one_type_line_per_family() {
        let r = Registry::default();
        for node in ["1", "2", "3"] {
            r.counter_with("family.hits", &[("node", node)]).incr();
        }
        let text = encode_prometheus(&r.snapshot());
        assert_eq!(text.matches("# TYPE family_hits counter").count(), 1);
        assert_eq!(text.matches("family_hits{node=").count(), 3);
    }

    #[test]
    fn traced_observations_emit_openmetrics_exemplars() {
        let r = Registry::default();
        let h = r.histogram("exq.ns");
        h.record(1000);
        h.record_with_trace(50_000, 0xdead_beef);
        let text = encode_prometheus(&r.snapshot());
        // The +Inf bucket carries the exemplar: bucket sample, then
        // ` # {trace_id="..."} value timestamp`.
        let line = text
            .lines()
            .find(|l| l.starts_with("exq_ns_bucket{le=\"+Inf\"}"))
            .unwrap();
        assert!(line.contains(" 2 # {trace_id=\""), "{line}");
        assert!(line.contains(&format!("{:032x}", 0xdead_beefu64)), "{line}");
        assert!(line.contains("\"} 50000 "), "{line}");
        // Untraced histograms keep the plain bucket line.
        let plain = encode_prometheus(&{
            let r2 = Registry::default();
            r2.histogram("plain.ns").record(5);
            r2.snapshot()
        });
        assert!(
            plain.contains("plain_ns_bucket{le=\"+Inf\"} 1\n"),
            "{plain}"
        );
    }

    #[test]
    fn cumulative_bucket_counts_do_not_decrease() {
        let r = Registry::default();
        let h = r.histogram("lat.ns");
        for v in [1u64, 5, 5, 900, 70_000] {
            h.record(v);
        }
        let text = encode_prometheus(&r.snapshot());
        let mut last = 0u64;
        let mut buckets = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("lat_ns_bucket{") {
                let count: u64 = rest.rsplit_once(' ').unwrap().1.parse().unwrap();
                assert!(count >= last, "{text}");
                last = count;
                buckets += 1;
            }
        }
        assert!(buckets >= 4, "{text}");
        assert_eq!(last, 5, "+Inf bucket equals total count");
    }
}
