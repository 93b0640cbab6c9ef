//! End-to-end drift monitoring: feed a deployed catalog a series that
//! abruptly changes level and assert the full observable story — the
//! journal records a `DriftAlert` for the node and then (strictly later
//! in sequence order) the `ReEstimation` that heals it, the node's
//! windowed SMAPE is exported in the Prometheus text a `/metrics` scrape
//! answers with, as the `f2db_node_smape` gauge family, and the alert
//! marks the model invalid so lazy maintenance actually re-fits it.
//!
//! Single `#[test]` on purpose: the journal and metrics registry are
//! process-global, and one linear story keeps the assertions exact.

use fdc_core::{Advisor, AdvisorOptions};
use fdc_datagen::tourism_proxy;
use fdc_f2db::{F2db, MaintenancePolicy};
use fdc_obs::{encode_prometheus, journal, AccuracyOptions, Event};

#[test]
fn drift_alert_then_reestimation_heals_the_node() {
    let ds = tourism_proxy(1);
    let outcome = Advisor::new(
        &ds,
        AdvisorOptions {
            parallelism: Some(2),
            ..AdvisorOptions::default()
        },
    )
    .unwrap()
    .run();
    let opts = AccuracyOptions {
        window: 8,
        smape_threshold: 0.5,
        min_samples: 4,
        stddev_k: 3.0,
    };
    // Policy `None`: every invalidation in this test is drift-driven.
    let db = F2db::load(ds, &outcome.configuration)
        .unwrap()
        .with_policy(MaintenancePolicy::None)
        .with_drift_monitoring(opts.clone());

    let monitor = db.drift_monitor().expect("monitoring enabled");
    assert_eq!(monitor.options().smape_threshold, 0.5);
    assert_eq!(monitor.tracked_keys(), 0, "no advances yet");

    // Level shift: the proxy's visitor counts are O(100); inserting a
    // constant far above that drives every model's windowed SMAPE
    // towards 2 within `min_samples` advances.
    let base: Vec<usize> = db.dataset().graph().base_nodes().to_vec();
    for _round in 0..opts.min_samples {
        for &b in &base {
            db.insert_value(b, 1.0e6).unwrap();
        }
    }
    assert_eq!(db.stats().time_advances, opts.min_samples);

    // The journal tells the story in order: at least one DriftAlert,
    // and a BatchAdvance accounting for it.
    let events = journal().recent(usize::MAX);
    let alerts: Vec<_> = events
        .iter()
        .filter_map(|e| match e.event {
            Event::DriftAlert {
                node,
                smape,
                threshold,
                trigger,
                ..
            } => Some((e.seq, node, smape, threshold, trigger)),
            _ => None,
        })
        .collect();
    assert!(!alerts.is_empty(), "level shift raised no drift alert");
    for &(_, _, smape, threshold, trigger) in &alerts {
        assert!(
            trigger == "smape_threshold" || trigger == "variance",
            "unknown trigger tag {trigger}"
        );
        if trigger == "smape_threshold" {
            assert!(smape > threshold, "alert below threshold: {smape}");
        }
    }
    assert!(
        events.iter().any(|e| matches!(
            e.event,
            Event::BatchAdvance { drift_alerts, .. } if drift_alerts > 0
        )),
        "no BatchAdvance event accounted for the alerts"
    );

    // Drift is an invalidation trigger: every alerted node is invalid.
    let invalid = db.catalog().invalid_nodes();
    for &(_, node, _, _, _) in &alerts {
        assert!(
            invalid.contains(&(node as usize)),
            "alerted node {node} not invalidated"
        );
    }

    // The node's windowed SMAPE is in what a /metrics scrape reads.
    let body = encode_prometheus(&fdc_obs::snapshot());
    let (_, alert_node, alert_smape, _, _) = alerts[0];
    assert!(
        body.contains(&format!("f2db_node_smape{{node=\"{alert_node}\"}}")),
        "scrape missing the node's smape gauge:\n{body}"
    );
    assert!(body.contains("# TYPE f2db_node_smape gauge"), "{body}");
    assert!(
        body.contains(&format!("f2db_node_err_stddev{{node=\"{alert_node}\"}}")),
        "scrape missing the node's error-stddev gauge:\n{body}"
    );
    assert!(body.contains("f2db_drift_alerts"), "{body}");
    assert!(
        monitor.smape(alert_node).expect("window populated") >= alert_smape,
        "window should still be at or above the alerting level"
    );

    // Maintenance pays the re-fits; each one lands in the journal with
    // a sequence number strictly after the alert that caused it, and
    // resets the node's accuracy window.
    let refitted = db.maintain().unwrap();
    assert!(refitted >= alerts.len(), "maintain missed alerted nodes");
    let events = journal().recent(usize::MAX);
    for &(alert_seq, node, _, _, _) in &alerts {
        let reest = events
            .iter()
            .find(|e| {
                matches!(
                    e.event,
                    Event::ReEstimation {
                        node: n,
                        outcome: "refit",
                        ..
                    } if n == node
                )
            })
            .unwrap_or_else(|| panic!("no ReEstimation event for node {node}"));
        assert!(
            reest.seq > alert_seq,
            "refit (seq {}) not after alert (seq {alert_seq})",
            reest.seq
        );
    }
    assert_eq!(
        monitor.smape(alert_node),
        Some(0.0),
        "refit must reset the node's accuracy window"
    );
    assert!(db.catalog().invalid_nodes().is_empty());

    // A healed model forecasts the new level: one more round must not
    // re-alert (the window restarts fresh below min_samples).
    let alerts_before = fdc_obs::counter(fdc_obs::names::F2DB_DRIFT_ALERTS).get();
    for &b in &base {
        db.insert_value(b, 1.0e6).unwrap();
    }
    assert_eq!(
        fdc_obs::counter(fdc_obs::names::F2DB_DRIFT_ALERTS).get(),
        alerts_before,
        "fresh window re-alerted immediately after refit"
    );
}
