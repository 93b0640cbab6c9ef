//! Canonical metric and event names.
//!
//! Every metric the workspace records is named here once; `f2db`,
//! `core` and `bench` reference these constants instead of string
//! literals, so a typo can no longer silently create a parallel series.
//! The DESIGN.md "Metric catalog" section documents each name's meaning
//! and labels; keep the two in sync.
//!
//! Naming convention: dotted paths, `<subsystem>.<noun>[.<unit>]`; a
//! name ending in `.ns` holds nanoseconds (humanized by `Snapshot`'s
//! `Display` and converted by the Prometheus encoder's name mangling to
//! `_ns`).

// ---- F²DB query path -------------------------------------------------

/// Counter: forecast queries answered (plain and `EXPLAIN ANALYZE`).
pub const F2DB_QUERIES: &str = "f2db.queries";
/// Counter: `EXPLAIN ANALYZE` executions (subset of [`F2DB_QUERIES`]).
pub const F2DB_EXPLAIN_ANALYZE: &str = "f2db.explain_analyze";
/// Histogram: end-to-end forecast query latency in nanoseconds.
pub const F2DB_QUERY_NS: &str = "f2db.query.ns";
/// Counter: query rows answered approximately from the sampling plane.
pub const F2DB_APPROX_ROWS: &str = "f2db.approx.rows";
/// Counter: source models served from the catalog without a re-fit.
pub const F2DB_MODELS_CACHED: &str = "f2db.models.cached";
/// Counter: lazy parameter re-estimations (one per invalidation epoch).
pub const F2DB_MODELS_REESTIMATED: &str = "f2db.models.reestimated";

// ---- F²DB write path -------------------------------------------------

/// Counter: insert statements processed.
pub const F2DB_INSERTS: &str = "f2db.inserts";
/// Counter: completed batched time advances.
pub const F2DB_TIME_ADVANCES: &str = "f2db.time_advances";
/// Counter: incremental model updates skipped because a racing lazy
/// re-fit already absorbed the newest observation.
pub const F2DB_ADVANCE_SKIPPED_UPDATES: &str = "f2db.advance.skipped_updates";
/// Counter: micro-batched insert commits (`F2db::insert_batch` calls).
pub const F2DB_INSERT_BATCHES: &str = "f2db.insert.batches";
/// Histogram: rows per micro-batched insert commit.
pub const F2DB_INSERT_BATCH_ROWS: &str = "f2db.insert.batch_rows";

// ---- F²DB catalog ----------------------------------------------------

/// Gauge: number of catalog shards.
pub const F2DB_CATALOG_SHARDS: &str = "f2db.catalog.shards";
/// Counter: bytes written by catalog persistence.
pub const F2DB_CATALOG_ENCODED_BYTES: &str = "f2db.catalog.encoded_bytes";
/// Counter: bytes read by catalog restoration.
pub const F2DB_CATALOG_DECODED_BYTES: &str = "f2db.catalog.decoded_bytes";
/// Counter: contended catalog shard read-lock acquisitions.
pub const F2DB_SHARD_READ_CONTENTION: &str = "f2db.shard.read_contention";
/// Counter: contended catalog shard write-lock acquisitions.
pub const F2DB_SHARD_WRITE_CONTENTION: &str = "f2db.shard.write_contention";
/// Gauge: single-flight re-estimations currently running.
pub const F2DB_REESTIMATE_IN_FLIGHT: &str = "f2db.reestimate.in_flight";

// ---- F²DB accuracy / drift monitoring --------------------------------

/// Float gauge family (label `node`): windowed SMAPE of the stored
/// model's one-step forecasts at a catalog node.
pub const F2DB_NODE_SMAPE: &str = "f2db.node.smape";
/// Float gauge family (label `node`): windowed mean absolute error of
/// the stored model's one-step forecasts at a catalog node.
pub const F2DB_NODE_MAE: &str = "f2db.node.mae";
/// Float gauge family (label `node`): sample standard deviation of the
/// recent-window forecast errors at a catalog node (the spread behind
/// variance-aware drift detection).
pub const F2DB_NODE_ERR_STDDEV: &str = "f2db.node.err_stddev";
/// Counter: drift alerts raised (windowed SMAPE crossed its threshold,
/// or the recent mean error exceeded the baseline by `k`·stddev).
pub const F2DB_DRIFT_ALERTS: &str = "f2db.drift.alerts";

// ---- Advisor ---------------------------------------------------------

/// Counter: advisor iterations run.
pub const ADVISOR_ITERATIONS: &str = "advisor.iterations";
/// Counter: candidate nodes proposed by the selection phase.
pub const ADVISOR_CANDIDATES: &str = "advisor.candidates";
/// Counter: candidate models actually built (post pre-filter).
pub const ADVISOR_MODELS_BUILT: &str = "advisor.models_built";
/// Counter: candidate models accepted into the configuration.
pub const ADVISOR_ACCEPTED: &str = "advisor.accepted";
/// Counter: candidate models rejected by the acceptance criterion.
pub const ADVISOR_REJECTED: &str = "advisor.rejected";
/// Counter: models deleted by the deletion phase.
pub const ADVISOR_DELETED: &str = "advisor.deleted";
/// Histogram: per-iteration candidate selection time.
pub const ADVISOR_SELECTION_NS: &str = "advisor.selection.ns";
/// Histogram: per-iteration evaluation time.
pub const ADVISOR_EVALUATION_NS: &str = "advisor.evaluation.ns";
/// Gauge: models in the final configuration.
pub const ADVISOR_MODEL_COUNT: &str = "advisor.model_count";
/// Counter: indicator-store cache hits during selection.
pub const ADVISOR_INDICATOR_CACHE_HIT: &str = "advisor.indicator.cache_hit";
/// Counter: indicator-store cache misses during selection.
pub const ADVISOR_INDICATOR_CACHE_MISS: &str = "advisor.indicator.cache_miss";

// ---- Observability plane itself --------------------------------------

/// Counter: labeled series dropped because a family hit its cardinality
/// bound (the sample lands in the family's `overflow="true"` series).
pub const OBS_SERIES_DROPPED: &str = "obs.series.dropped";
/// Counter family (label `family`): cardinality overflows attributed to
/// the family that overflowed — unlike [`OBS_SERIES_DROPPED`], this
/// keeps the overflowed family's name.
pub const OBS_LABELS_OVERFLOW: &str = "obs.labels.overflow";
/// Counter: events pushed into the journal.
pub const OBS_JOURNAL_EVENTS: &str = "obs.journal.events";
/// Counter: t-digest shard merges performed by registry snapshots (each
/// histogram folds its thread-striped digest shards per snapshot).
pub const OBS_SKETCH_MERGES: &str = "obs.sketch.merges";
/// Counter: per-key accuracy-summary merges performed at read time
/// (lock-free partial aggregation across trackers/shards).
pub const OBS_SKETCH_ACCURACY_MERGES: &str = "obs.sketch.accuracy_merges";

// ---- Forecast-serving subsystem (`fdc-serve`) ------------------------

/// Counter family (labels `route`, `status`): HTTP requests answered by
/// the forecast server, by route and status code.
pub const SERVE_REQUESTS: &str = "serve.http.requests";
/// Histogram family (label `route`): end-to-end request latency from
/// worker pickup to response written, in nanoseconds.
pub const SERVE_REQUEST_NS: &str = "serve.request.ns";
/// Gauge: connections currently queued for a worker.
pub const SERVE_QUEUE_DEPTH: &str = "serve.queue.depth";
/// Counter family (label `reason`): requests rejected by admission
/// control — `queue_full` (429) or `deadline` (503).
pub const SERVE_REJECTED: &str = "serve.rejected";
/// Counter: micro-batch flushes performed by the insert coalescer.
pub const SERVE_BATCH_FLUSHES: &str = "serve.batch.flushes";
/// Histogram: rows per insert-coalescer flush.
pub const SERVE_BATCH_FLUSH_ROWS: &str = "serve.batch.flush_rows";
/// Counter: requests captured into the slow-query journal (latency past
/// `ServeOptions::slow_threshold`, with `EXPLAIN ANALYZE` / wait
/// breakdown attached).
pub const SERVE_SLOW_CAPTURED: &str = "serve.slow.captured";
/// Histogram: requests served per connection, recorded when the
/// connection closes — 1 everywhere means no client reuses connections
/// (or the server is oversubscribed and closes after every response).
pub const SERVE_CONN_REQUESTS: &str = "serve.conn.requests";
/// Counter family (label `reason`): connections closed by the forecast
/// server — `client` (closed or asked for close), `idle` (read timeout
/// between requests), `backlog` (given up for a queued connection),
/// `shutdown`, `error` (malformed/oversized/stale request, I/O error).
pub const SERVE_CONN_CLOSED: &str = "serve.conn.closed";

// ---- Routing tier (`fdc-router`) -------------------------------------

/// Counter family (labels `route`, `status`): HTTP requests answered by
/// the routing tier, by route and status code.
pub const ROUTER_REQUESTS: &str = "router.http.requests";
/// Histogram family (label `route`): end-to-end router request latency
/// (fan-out included) in nanoseconds.
pub const ROUTER_REQUEST_NS: &str = "router.request.ns";
/// Histogram: shards contacted per scatter-gather request (the fan-out
/// width — 1 for single-shard routes, N for fleet-wide folds).
pub const ROUTER_FANOUT_SIZE: &str = "router.fanout.size";
/// Counter family (label `shard`): failed shard calls (connect errors,
/// timeouts, 5xx) attributed to the shard that failed.
pub const ROUTER_SHARD_ERRORS: &str = "router.shard.errors";
/// Counter family (label `shard`): read requests served by a shard's
/// replica because its primary was unreachable.
pub const ROUTER_REPLICA_READS: &str = "router.replica.reads";
/// Counter family (label `outcome`): how the router came by the
/// connection of a shard call — `hit` (idle pooled connection reused),
/// `miss` (nothing pooled: fresh connect), `stale` (pooled connection
/// found dead and replaced).
pub const ROUTER_POOL: &str = "router.pool";
/// Counter: fleet-wide sketch folds performed by the router (one per
/// `/stats` or `/metrics` aggregation over shipped codec bytes).
pub const ROUTER_SKETCH_FOLDS: &str = "router.sketch.folds";
/// Counter family (label `reason`): placement maps the router fetched
/// from a shard — `boot` (the first), `stale` (after a shard refused a
/// sub-request planned over another map with `421`).
pub const ROUTER_PLACEMENT_LOADS: &str = "router.placement.loads";

// ---- Write-ahead log (`fdc-wal`) -------------------------------------

/// Counter: records appended to the write-ahead log.
pub const WAL_APPENDS: &str = "wal.appends";
/// Counter: bytes appended to the write-ahead log (frames, including
/// headers).
pub const WAL_APPENDED_BYTES: &str = "wal.appended_bytes";
/// Counter: group-commit fsyncs performed by the dedicated sync thread.
pub const WAL_FSYNCS: &str = "wal.fsyncs";
/// Histogram: appenders acknowledged per group-commit fsync (the group
/// size — `> 1` means concurrent appenders shared one fsync).
pub const WAL_GROUP_SIZE: &str = "wal.group_size";
/// Counter: records replayed by recovery (`Wal::open`).
pub const WAL_REPLAYED_RECORDS: &str = "wal.replayed_records";
/// Histogram: wall-clock time of a `Wal::open` replay, in nanoseconds.
pub const WAL_RECOVERY_NS: &str = "wal.recovery.ns";
/// Gauge: live segment files in the log directory.
pub const WAL_SEGMENTS: &str = "wal.segments";
/// Gauge: sequence number of the most recently appended record.
pub const WAL_LAST_SEQ: &str = "wal.last_seq";
/// Gauge: sequence number covered by the most recent checkpoint.
pub const WAL_CHECKPOINT_SEQ: &str = "wal.checkpoint_seq";
/// Counter: fully-checkpointed segment files deleted by truncation.
pub const WAL_SEGMENTS_TRUNCATED: &str = "wal.segments.truncated";
/// Counter: torn-tail bytes discarded by recovery (a partial record a
/// crash left at the end of the log).
pub const WAL_TORN_TAIL_BYTES: &str = "wal.torn_tail_bytes";
/// Gauge: sequence number covered by the most recent completed fsync
/// (the shipping watermark — followers never see frames past it).
pub const WAL_DURABLE_SEQ: &str = "wal.durable_seq";

// ---- WAL shipping / replication --------------------------------------

/// Counter: ship chunks served to followers by the primary.
pub const WAL_SHIP_CHUNKS: &str = "wal.ship.chunks";
/// Counter: frames shipped to followers.
pub const WAL_SHIP_FRAMES: &str = "wal.ship.frames";
/// Counter: frame bytes shipped to followers (headers included).
pub const WAL_SHIP_BYTES: &str = "wal.ship.bytes";
/// Gauge: follower-side replication lag in sequence numbers (the
/// primary's durable watermark minus the follower's applied watermark).
pub const WAL_REPLICATION_LAG_SEQ: &str = "wal.replication.lag_seq";
/// Gauge: follower-side applied watermark (highest sequence durably
/// appended to the follower's own log).
pub const WAL_REPLICATION_APPLIED_SEQ: &str = "wal.replication.applied_seq";
/// Counter: fetch-and-apply rounds the follower failed (network error,
/// truncated chunk, watermark gap); the fetch loop retries after each.
pub const WAL_REPLICATION_ERRORS: &str = "wal.replication.errors";

// ---- Bench harness ---------------------------------------------------

/// Histogram name for a micro-benchmark's per-iteration samples.
pub fn bench_ns(name: &str) -> String {
    format!("bench.{name}.ns")
}

/// Counter name for an optimizer's run count.
pub fn optimize_runs(algo: &str) -> String {
    format!("optimize.{algo}.runs")
}

/// Counter name for an optimizer's objective-evaluation count.
pub fn optimize_evals(algo: &str) -> String {
    format!("optimize.{algo}.evals")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_dotted_and_unique() {
        let all = [
            F2DB_QUERIES,
            F2DB_EXPLAIN_ANALYZE,
            F2DB_QUERY_NS,
            F2DB_MODELS_CACHED,
            F2DB_MODELS_REESTIMATED,
            F2DB_INSERTS,
            F2DB_TIME_ADVANCES,
            F2DB_ADVANCE_SKIPPED_UPDATES,
            F2DB_INSERT_BATCHES,
            F2DB_INSERT_BATCH_ROWS,
            F2DB_CATALOG_SHARDS,
            F2DB_CATALOG_ENCODED_BYTES,
            F2DB_CATALOG_DECODED_BYTES,
            F2DB_SHARD_READ_CONTENTION,
            F2DB_SHARD_WRITE_CONTENTION,
            F2DB_REESTIMATE_IN_FLIGHT,
            F2DB_NODE_SMAPE,
            F2DB_NODE_MAE,
            F2DB_NODE_ERR_STDDEV,
            F2DB_DRIFT_ALERTS,
            ADVISOR_ITERATIONS,
            ADVISOR_CANDIDATES,
            ADVISOR_MODELS_BUILT,
            ADVISOR_ACCEPTED,
            ADVISOR_REJECTED,
            ADVISOR_DELETED,
            ADVISOR_SELECTION_NS,
            ADVISOR_EVALUATION_NS,
            ADVISOR_MODEL_COUNT,
            ADVISOR_INDICATOR_CACHE_HIT,
            ADVISOR_INDICATOR_CACHE_MISS,
            OBS_SERIES_DROPPED,
            OBS_LABELS_OVERFLOW,
            OBS_JOURNAL_EVENTS,
            OBS_SKETCH_MERGES,
            OBS_SKETCH_ACCURACY_MERGES,
            SERVE_REQUESTS,
            SERVE_REQUEST_NS,
            SERVE_QUEUE_DEPTH,
            SERVE_REJECTED,
            SERVE_BATCH_FLUSHES,
            SERVE_BATCH_FLUSH_ROWS,
            SERVE_SLOW_CAPTURED,
            SERVE_CONN_REQUESTS,
            SERVE_CONN_CLOSED,
            ROUTER_REQUESTS,
            ROUTER_REQUEST_NS,
            ROUTER_FANOUT_SIZE,
            ROUTER_SHARD_ERRORS,
            ROUTER_REPLICA_READS,
            ROUTER_POOL,
            ROUTER_SKETCH_FOLDS,
            ROUTER_PLACEMENT_LOADS,
            WAL_APPENDS,
            WAL_APPENDED_BYTES,
            WAL_FSYNCS,
            WAL_GROUP_SIZE,
            WAL_REPLAYED_RECORDS,
            WAL_RECOVERY_NS,
            WAL_SEGMENTS,
            WAL_LAST_SEQ,
            WAL_CHECKPOINT_SEQ,
            WAL_SEGMENTS_TRUNCATED,
            WAL_TORN_TAIL_BYTES,
            WAL_DURABLE_SEQ,
            WAL_SHIP_CHUNKS,
            WAL_SHIP_FRAMES,
            WAL_SHIP_BYTES,
            WAL_REPLICATION_LAG_SEQ,
            WAL_REPLICATION_APPLIED_SEQ,
            WAL_REPLICATION_ERRORS,
        ];
        let mut seen = std::collections::BTreeSet::new();
        for n in all {
            assert!(!n.is_empty() && !n.contains(['{', '}', '"', ' ']), "{n}");
            assert!(seen.insert(n), "duplicate metric name {n}");
        }
        assert_eq!(bench_ns("models"), "bench.models.ns");
    }
}
