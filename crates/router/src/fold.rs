//! Folding shard sketch bundles into a fleet-wide view.
//!
//! Each shard's `GET /sketch` ships a [`SketchBundle`]: per-key
//! accuracy partials (disjoint across shards — a key's node is
//! resident on exactly one) and the t-digests behind its per-route
//! latency histograms. The router merges them with the sketches' own
//! merge operations — [`fdc_obs::KeyAccuracy::merge`] via
//! [`fdc_obs::accuracy::merged_partials`], [`TDigest::merge`] for the
//! digests — so fleet-wide p99s and per-node accuracy come out exactly
//! as if one process had seen every sample. Averaging per-shard
//! quantiles could not do this; merging the sketches can.

use fdc_codec::json::Writer;
use fdc_obs::{names, KeyAccuracy, SketchBundle, TDigest};

/// The fleet-wide fold of every live shard's bundle.
#[derive(Debug, Default)]
pub struct FleetSketch {
    /// Accuracy partials merged across shards, sorted by key.
    pub accuracy: Vec<KeyAccuracy>,
    /// Latency digests merged by series name, sorted by name.
    pub digests: Vec<(String, TDigest)>,
}

/// Folds shard bundles. Each call counts one `router.sketch.folds`;
/// cross-shard accuracy merges land in `obs.sketch.accuracy_merges`.
pub fn fold(bundles: &[SketchBundle]) -> FleetSketch {
    let groups: Vec<Vec<KeyAccuracy>> = bundles.iter().map(|b| b.accuracy.clone()).collect();
    let accuracy = fdc_obs::RollingAccuracy::merged_partials(&groups);
    let mut digests: Vec<(String, TDigest)> = Vec::new();
    for bundle in bundles {
        for (name, digest) in &bundle.digests {
            match digests.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => acc.merge(digest),
                None => digests.push((name.clone(), digest.clone())),
            }
        }
    }
    digests.sort_by(|(a, _), (b, _)| a.cmp(b));
    fdc_obs::counter!(names::ROUTER_SKETCH_FOLDS).incr();
    FleetSketch { accuracy, digests }
}

impl FleetSketch {
    /// Renders the fold as the `"fleet"` JSON object of the router's
    /// `/stats`: per-key accuracy (count/SMAPE-mean/drifting) and
    /// per-series latency quantiles.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object().key("accuracy").begin_array();
        for a in &self.accuracy {
            w.begin_object().key("key").u64(a.key);
            w.key("count").u64(a.smape.count());
            w.key("mean_smape").f64(a.smape.mean());
            w.key("drifting").bool(a.drifting).end_object();
        }
        w.end_array().key("latency").begin_array();
        for (name, d) in &self.digests {
            w.begin_object().key("series").str(name);
            w.key("count").u64(d.count());
            w.key("p50").f64(d.quantile(0.50));
            w.key("p95").f64(d.quantile(0.95));
            w.key("p99").f64(d.quantile(0.99)).end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_obs::{AccuracyOptions, RollingAccuracy};

    fn bundle(keys: &[(u64, f64)], route: &str, samples: std::ops::Range<u64>) -> SketchBundle {
        let acc = RollingAccuracy::new(AccuracyOptions::default());
        for &(key, err) in keys {
            acc.record(key, 10.0 + err, 10.0);
        }
        let mut d = TDigest::new(64.0);
        for s in samples {
            d.insert(s as f64);
        }
        SketchBundle {
            accuracy: acc.summaries(),
            digests: vec![(format!("serve.request.ns{{route=\"{route}\"}}"), d)],
        }
    }

    #[test]
    fn fold_unions_disjoint_keys_and_merges_digests() {
        let a = bundle(&[(1, 2.0), (2, 0.5)], "query", 0..100);
        let b = bundle(&[(3, 1.0)], "query", 100..200);
        let folded = fold(&[a, b]);
        let keys: Vec<u64> = folded.accuracy.iter().map(|s| s.key).collect();
        assert_eq!(keys, vec![1, 2, 3]);
        assert_eq!(folded.digests.len(), 1);
        let d = &folded.digests[0].1;
        assert_eq!(d.count(), 200);
        // The merged median sits where the pooled samples put it, not
        // where either shard's local median was.
        let p50 = d.quantile(0.5);
        assert!((80.0..=120.0).contains(&p50), "pooled p50 = {p50}");
    }

    #[test]
    fn fold_merges_overlapping_keys_exactly() {
        let a = bundle(&[(7, 4.0)], "insert", 0..10);
        let b = bundle(&[(7, 4.0)], "insert", 0..10);
        let folded = fold(&[a.clone(), b]);
        assert_eq!(folded.accuracy.len(), 1);
        assert_eq!(
            folded.accuracy[0].smape.count(),
            2 * a.accuracy[0].smape.count()
        );
        assert!(folded.to_json().contains("\"key\":7"));
    }
}
