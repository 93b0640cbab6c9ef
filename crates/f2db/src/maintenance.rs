//! Maintenance policies and statistics (§V).
//!
//! Model maintenance has a cheap and an expensive part: updating the
//! model *state* with each new value is incremental and always performed;
//! *parameter re-estimation* is expensive and therefore deferred — models
//! are only **marked invalid** by a policy, and re-estimated lazily when
//! a query actually references them ("with this approach we reduce
//! maintenance overhead by delaying parameter reestimation until the
//! model is actually referenced by a query").

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// When to mark stored models invalid (cf. \[12\] for the strategies).
#[derive(Debug, Clone, PartialEq)]
pub enum MaintenancePolicy {
    /// Never invalidate (state updates only).
    None,
    /// Invalidate all models every `every` time advances.
    TimeBased {
        /// Invalidation period in time stamps.
        every: usize,
    },
    /// Invalidate a model when its rolling one-step SMAPE exceeds the
    /// threshold.
    ThresholdBased {
        /// Rolling-error threshold in `[0, 1]`.
        smape_threshold: f64,
    },
}

impl Default for MaintenancePolicy {
    fn default() -> Self {
        MaintenancePolicy::ThresholdBased {
            smape_threshold: 0.25,
        }
    }
}

/// Counters describing the database's maintenance and query activity —
/// the quantities behind the paper's Fig. 9(b) experiment.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceStats {
    /// Forecast queries processed.
    pub queries: usize,
    /// Insert statements processed.
    pub inserts: usize,
    /// Insert commits: [`crate::F2db::insert_batch`] and
    /// [`crate::F2db::insert_value`] calls (a one-row batch); each
    /// commit enters the write path once for all its rows.
    pub insert_batches: usize,
    /// Completed time advances (batched inserts).
    pub time_advances: usize,
    /// Incremental model state updates.
    pub model_updates: usize,
    /// Models marked invalid by the policy.
    pub invalidations: usize,
    /// Lazy parameter re-estimations triggered by queries.
    pub reestimations: usize,
    /// Total wall time spent answering forecast queries.
    pub total_query_time: Duration,
}

impl MaintenanceStats {
    /// Average forecast query latency.
    pub fn avg_query_time(&self) -> Duration {
        if self.queries == 0 {
            Duration::ZERO
        } else {
            self.total_query_time / self.queries as u32
        }
    }

    /// The pure counters (everything except wall time), for comparing a
    /// concurrent run against its serial replay where the counts must
    /// match but latencies obviously differ.
    pub fn counters(&self) -> [usize; 7] {
        [
            self.queries,
            self.inserts,
            self.insert_batches,
            self.time_advances,
            self.model_updates,
            self.invalidations,
            self.reestimations,
        ]
    }
}

/// Thread-safe maintenance counters: the engine's internal, atomically
/// updated form of [`MaintenanceStats`]. Readers take a [`Self::snapshot`];
/// the relaxed ordering is fine because each counter is independent and
/// only ever summed.
#[derive(Debug, Default)]
pub struct SharedMaintenanceStats {
    queries: AtomicU64,
    inserts: AtomicU64,
    insert_batches: AtomicU64,
    time_advances: AtomicU64,
    model_updates: AtomicU64,
    invalidations: AtomicU64,
    reestimations: AtomicU64,
    total_query_ns: AtomicU64,
}

impl SharedMaintenanceStats {
    /// Records one answered forecast query and its wall time.
    pub fn record_query(&self, elapsed: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.total_query_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records one processed insert statement.
    pub fn record_insert(&self) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one insert commit.
    pub fn record_insert_batch(&self) {
        self.insert_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed time advance and its per-model tallies.
    pub fn record_advance(&self, model_updates: u64, invalidations: u64) {
        self.time_advances.fetch_add(1, Ordering::Relaxed);
        self.model_updates
            .fetch_add(model_updates, Ordering::Relaxed);
        self.invalidations
            .fetch_add(invalidations, Ordering::Relaxed);
    }

    /// Records one lazy parameter re-estimation.
    pub fn record_reestimation(&self) {
        self.reestimations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records explicitly requested invalidations (outside a time
    /// advance, e.g. `F2db::invalidate_all`).
    pub fn record_invalidations(&self, n: u64) {
        self.invalidations.fetch_add(n, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of the counters. (Counters
    /// advanced mid-snapshot may or may not be included; call from a
    /// quiescent point for exact numbers.)
    pub fn snapshot(&self) -> MaintenanceStats {
        MaintenanceStats {
            queries: self.queries.load(Ordering::Relaxed) as usize,
            inserts: self.inserts.load(Ordering::Relaxed) as usize,
            insert_batches: self.insert_batches.load(Ordering::Relaxed) as usize,
            time_advances: self.time_advances.load(Ordering::Relaxed) as usize,
            model_updates: self.model_updates.load(Ordering::Relaxed) as usize,
            invalidations: self.invalidations.load(Ordering::Relaxed) as usize,
            reestimations: self.reestimations.load(Ordering::Relaxed) as usize,
            total_query_time: Duration::from_nanos(self.total_query_ns.load(Ordering::Relaxed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_threshold_based() {
        assert!(matches!(
            MaintenancePolicy::default(),
            MaintenancePolicy::ThresholdBased { .. }
        ));
    }

    #[test]
    fn shared_stats_snapshot_reflects_records() {
        let shared = SharedMaintenanceStats::default();
        shared.record_query(Duration::from_millis(3));
        shared.record_query(Duration::from_millis(5));
        shared.record_insert();
        shared.record_insert_batch();
        shared.record_advance(7, 2);
        shared.record_reestimation();
        shared.record_invalidations(3);
        let snap = shared.snapshot();
        assert_eq!(snap.counters(), [2, 1, 1, 1, 7, 5, 1]);
        assert_eq!(snap.total_query_time, Duration::from_millis(8));
        assert_eq!(snap.avg_query_time(), Duration::from_millis(4));
    }

    #[test]
    fn avg_query_time_handles_zero_queries() {
        let stats = MaintenanceStats::default();
        assert_eq!(stats.avg_query_time(), Duration::ZERO);
        let stats = MaintenanceStats {
            queries: 4,
            total_query_time: Duration::from_millis(8),
            ..MaintenanceStats::default()
        };
        assert_eq!(stats.avg_query_time(), Duration::from_millis(2));
    }
}
