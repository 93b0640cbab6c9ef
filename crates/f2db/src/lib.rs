//! # fdc-f2db — the flash-forward database
//!
//! An embedded reimplementation of **F²DB** (§V of the paper; \[12\]), the
//! PostgreSQL extension that stores a model configuration and processes
//! forecast queries over it. The paper's architecture (Fig. 6) is
//! reproduced with the same separation of concerns:
//!
//! * **Configuration storage** ([`catalog`]) — two catalog tables: one for
//!   the time series graph + configuration (model assignments, derivation
//!   schemes, weights), one for the forecast models themselves (state and
//!   parameter values), persisted as one `F2DB` file on the workspace's
//!   byte-codec kit (`fdc-codec`);
//! * **Forecast query processor** ([`parser`], [`query`], and
//!   [`F2db::query`]) — a SQL dialect with the paper's `… AS OF now() +
//!   '1 day'` horizon clause; a query is rewritten to nodes of the time
//!   series graph, the necessary models are loaded and the forecasts
//!   derived — *without* touching the base tables;
//! * **Maintenance processor** ([`maintenance`] and [`F2db::insert_value`]) —
//!   inserts are batched until a new value is available for every base
//!   series, then time advances through the whole graph at once: model
//!   states and derivation weights are updated incrementally, and models
//!   are optionally marked invalid (time- or threshold-based strategy);
//!   re-estimation is deferred until an invalid model is actually
//!   referenced by a query.
//!
//! ## Concurrency
//!
//! Every `F2db` method takes `&self`; the engine is safe to share across
//! threads (`Arc<F2db>` or scoped borrows). Internally the catalog
//! ([`catalog`]) keeps each stored model behind its own lock, lazy
//! re-estimation is single-flight on that lock (one re-fit per
//! invalidation epoch, concurrent queries wait and reuse the result), and
//! inserts/time advances form a batched write path taking one model's
//! write lock at a time. See DESIGN.md for the lock order and the
//! serial-equivalence argument behind the stress suite in
//! `tests/concurrency_stress.rs`.
//!
//! Substitution note (see DESIGN.md): the paper hosts this inside
//! PostgreSQL; the embedded engine exercises the identical logic — what
//! is stored, how queries resolve, when models are maintained — without
//! the Postgres plumbing.

//! ## Example
//!
//! ```
//! use fdc_core::{Advisor, AdvisorOptions};
//! use fdc_datagen::{generate_cube, GenSpec};
//! use fdc_f2db::F2db;
//!
//! let cube = generate_cube(&GenSpec::new(8, 36, 2));
//! let outcome = Advisor::new(&cube.dataset, AdvisorOptions::default()).unwrap().run();
//! let db = F2db::load(cube.dataset, &outcome.configuration).unwrap();
//! let result = db
//!     .query("SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '4 steps'")
//!     .unwrap();
//! assert_eq!(result.rows[0].values.len(), 4);
//! ```

pub mod catalog;
pub mod durability;
pub mod explain;
pub mod maintenance;
pub mod parser;
pub mod placement;
pub mod query;

pub use catalog::{AdvanceOutcome, Catalog, CatalogEntry, Reestimation, StoredModel};
pub use durability::{DecodedCheckpoint, WalRecord};
pub use explain::{
    ExplainApprox, ExplainReport, ExplainRow, ExplainSource, NodeAnalysis, SourceModelState,
};
pub use maintenance::{MaintenancePolicy, MaintenanceStats, SharedMaintenanceStats};
pub use parser::parse_query;
pub use placement::Placement;
pub use query::{
    AggregateFn, ForecastQuery, HorizonSpec, QueryAnswer, QueryMode, QueryRequest, QueryResult,
    QueryRow, RowApprox, Statement,
};
// Approximation surface, re-exported so engine embedders need not depend
// on fdc-approx directly.
pub use fdc_approx::{ApproxOptions, ApproxQuerySpec, CoverageOptions, CoveragePlan};

use fdc_approx::ApproxPlane;
use fdc_cube::query::stack_or_heap;
use fdc_cube::{Configuration, Dataset, NodeId};
use fdc_forecast::FitOptions;
use fdc_obs::{journal, names, AccuracyOptions, Event, RollingAccuracy, SpanGuard};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

/// Errors raised by the database layer.
#[derive(Debug, Clone, PartialEq)]
pub enum F2dbError {
    /// SQL syntax error.
    Parse(String),
    /// The query referenced unknown tables, dimensions or values.
    Semantic(String),
    /// Cube-level failure (misaligned inserts etc.).
    Cube(String),
    /// Persistence failure.
    Storage(String),
    /// A write path was called on a read-only engine (a follower
    /// replica that has not been promoted).
    ReadOnly(String),
    /// A partitioned engine was asked about a node another shard owns —
    /// an insert for a non-owned base, or a forecast whose derivation
    /// closure leaves this shard's partition. The router retries on the
    /// owning shard; a direct caller has misrouted.
    WrongShard(String),
}

impl std::fmt::Display for F2dbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            F2dbError::Parse(m) => write!(f, "parse error: {m}"),
            F2dbError::Semantic(m) => write!(f, "semantic error: {m}"),
            F2dbError::Cube(m) => write!(f, "cube error: {m}"),
            F2dbError::Storage(m) => write!(f, "storage error: {m}"),
            F2dbError::ReadOnly(m) => write!(f, "read-only error: {m}"),
            F2dbError::WrongShard(m) => write!(f, "wrong-shard error: {m}"),
        }
    }
}

impl std::error::Error for F2dbError {}

impl From<fdc_cube::CubeError> for F2dbError {
    fn from(e: fdc_cube::CubeError) -> Self {
        F2dbError::Cube(e.to_string())
    }
}

impl From<fdc_codec::DecodeError> for F2dbError {
    fn from(e: fdc_codec::DecodeError) -> Self {
        F2dbError::Storage(e.to_string())
    }
}

impl From<fdc_approx::ApproxError> for F2dbError {
    fn from(e: fdc_approx::ApproxError) -> Self {
        match e {
            fdc_approx::ApproxError::Codec(m) => F2dbError::Storage(m),
            other => F2dbError::Semantic(other.to_string()),
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, F2dbError>;

/// The approximation side of a request once the plane is locked: the
/// caller's controls and the attached plane, or `None` for exact.
type Sampling<'a> = Option<(&'a ApproxQuerySpec, &'a ApproxPlane)>;

/// Forecast steps a query derives on the stack; a longer horizon's
/// scratch buffer goes to the heap.
pub(crate) const INLINE_STEPS: usize = 16;

/// A statement resolved against the data set it holds the read lock of.
struct Resolved<'d> {
    ds: RwLockReadGuard<'d, Dataset>,
    /// The sampling plane, locked only for a request with `approx`.
    plane: Option<RwLockReadGuard<'d, Option<ApproxPlane>>>,
    aggregate: AggregateFn,
    horizon: usize,
    nodes: Vec<NodeId>,
}

impl Resolved<'_> {
    fn sampling<'a>(&'a self, approx: Option<&'a ApproxQuerySpec>) -> Sampling<'a> {
        approx.zip(self.plane.as_ref().and_then(|guard| guard.as_ref()))
    }
}

/// The embedded flash-forward database.
///
/// All methods take `&self`; share it across threads with `Arc` or scoped
/// borrows. Lock order (see DESIGN.md): `wal_position` → `pending` →
/// `advance_lock` → `dataset` → catalog model. Callers holding the
/// [`F2db::dataset`] guard must drop it before calling a write path
/// ([`F2db::insert_value`]) from the same thread.
pub struct F2db {
    dataset: RwLock<Dataset>,
    catalog: Catalog,
    /// Batched inserts awaiting a complete next time stamp.
    pending: Mutex<HashMap<NodeId, f64>>,
    /// Serializes time advances (inserts completing a time stamp).
    advance_lock: Mutex<()>,
    policy: MaintenancePolicy,
    fit: FitOptions,
    stats: SharedMaintenanceStats,
    /// Optional drift monitor: windowed per-node SMAPE/MAE fed by the
    /// advance path, publishing `f2db.node.smape`/`.mae` gauge families
    /// and raising drift alerts (see [`F2db::with_drift_monitoring`]).
    accuracy: Option<RollingAccuracy>,
    /// Optional write-ahead log. When attached, every committed insert
    /// batch appends one [`WalRecord`] *before* mutating in-memory
    /// state (under the `pending` mutex, so log order equals apply
    /// order), and the insert only returns once the record's
    /// group-commit fsync completes. A `OnceLock` (not an `Option`) so
    /// promotion can attach a log through `&self` on a shared engine
    /// ([`F2db::adopt_wal`]).
    wal: std::sync::OnceLock<fdc_wal::Wal>,
    /// The log position the state covers: the image's WAL position (0
    /// after [`F2db::load`]), moved up by [`F2db::replay`], which holds
    /// it across the apply.
    wal_position: Mutex<u64>,
    /// When set, public write paths ([`F2db::insert_value`],
    /// [`F2db::insert_batch`], [`F2db::maintain`]) fail with
    /// [`F2dbError::ReadOnly`]. A follower replica runs read-only until
    /// promotion flips this; replicated records land through
    /// [`F2db::replay`], which bypasses the guard.
    read_only: std::sync::atomic::AtomicBool,
    /// When set ([`F2db::with_base_partition`]), this engine is one
    /// shard of a partitioned deployment: it accepts inserts only for
    /// its owned base nodes, advances time once all *owned* bases have
    /// a pending value (non-owned bases are zero-padded), and serves
    /// forecasts only for resident nodes.
    partition: Option<Partition>,
    /// Optional sampling plane ([`F2db::with_approx`]): stratified cell
    /// samples + models on sampled cells, answering aggregate forecasts
    /// approximately for queries that opt in via [`ApproxQuerySpec`].
    /// Strictly additive — queries without an approx spec never touch
    /// it, so exact results stay byte-identical. Behind its own lock,
    /// taken *after* `dataset` on the advance path (lock order:
    /// `pending` → `advance_lock` → `dataset` → model → `approx`).
    approx: RwLock<Option<ApproxPlane>>,
    /// The placement map ([`F2db::placement`]), built on first use: the
    /// graph and the scheme sources it copies never change.
    placement: std::sync::OnceLock<Placement>,
}

/// Partition state of one shard: which base nodes it owns, and which
/// catalog nodes it can serve bit-exactly.
#[derive(Debug, Clone)]
struct Partition {
    /// Base nodes whose inserts this shard accepts.
    owned: std::collections::BTreeSet<NodeId>,
    /// Catalog nodes whose full derivation closure (own base
    /// descendants plus every scheme source's) lies inside `owned` —
    /// their series, models and weights are bit-identical to an
    /// unpartitioned engine fed the same per-cell values, because
    /// aggregates roll up level-by-level as sums of children and every
    /// contributing child is genuine (zero-padding only touches
    /// subtrees outside the closure).
    resident: std::collections::BTreeSet<NodeId>,
}

/// What [`F2db::attach_wal`] (and [`F2db::recover`]) replayed.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// The raw log-level recovery: records found, torn bytes truncated,
    /// segment count.
    pub wal: fdc_wal::WalRecovery,
    /// WAL records decoded and re-applied to the engine.
    pub replayed_batches: u64,
    /// Insert rows those records carried.
    pub replayed_rows: u64,
    /// Time advances the replay triggered.
    pub advances: u64,
    /// The engine's log position replay began from: the image's WAL
    /// position, 0 for a plain catalog or a fresh engine.
    pub resumed_from_seq: u64,
}

/// Resolves rows of dimension labels to base nodes under one read of
/// the data set; made by [`F2db::base_resolver`]. A row is its labels
/// [`push`](BaseResolver::push)ed in schema order, then
/// [`finish`](BaseResolver::finish).
pub struct BaseResolver<'a> {
    dataset: RwLockReadGuard<'a, Dataset>,
    /// Value indices of the current row's leading labels.
    coord: Vec<u32>,
    /// Labels pushed for the current row.
    seen: usize,
    /// The first label of the current row its dimension does not have.
    unknown: Option<F2dbError>,
}

impl BaseResolver<'_> {
    /// The next dimension's label of the current row.
    pub fn push(&mut self, label: &str) {
        let dimensions = self.dataset.graph().schema().dimensions();
        if let (Some(dimension), None) = (dimensions.get(self.seen), &self.unknown) {
            match dimension.value_index(label) {
                Some(index) => self.coord.push(index),
                None => {
                    self.unknown = Some(F2dbError::Semantic(format!(
                        "unknown value {label} for dimension {}",
                        dimension.name()
                    )))
                }
            }
        }
        self.seen += 1;
    }

    /// The base node of the labels pushed since the last `finish`; the
    /// next `push` begins another row.
    pub fn finish(&mut self) -> Result<NodeId> {
        let graph = self.dataset.graph();
        let dim_count = graph.schema().dim_count();
        let (seen, unknown) = (std::mem::take(&mut self.seen), self.unknown.take());
        let result = if seen != dim_count {
            Err(F2dbError::Semantic(format!(
                "INSERT carries {seen} dimension values, schema has {dim_count}"
            )))
        } else if let Some(unknown) = unknown {
            Err(unknown)
        } else {
            graph
                .node_at(&self.coord)
                .ok_or_else(|| F2dbError::Semantic("no base series for these values".into()))
        };
        self.coord.clear();
        result
    }
}

impl F2db {
    /// Loads a configuration produced by the advisor (or a baseline) into
    /// the database: schemes and weights are stored, and each model is
    /// refit on the node's *full* history so deployed forecasts start
    /// from the current point in time.
    pub fn load(dataset: Dataset, configuration: &Configuration) -> Result<Self> {
        let catalog = Catalog::from_configuration(&dataset, configuration, &FitOptions::default())?;
        Ok(F2db {
            dataset: RwLock::new(dataset),
            catalog,
            pending: Mutex::new(HashMap::new()),
            advance_lock: Mutex::new(()),
            policy: MaintenancePolicy::default(),
            fit: FitOptions::default(),
            stats: SharedMaintenanceStats::default(),
            accuracy: None,
            wal: std::sync::OnceLock::new(),
            wal_position: Mutex::new(0),
            read_only: std::sync::atomic::AtomicBool::new(false),
            partition: None,
            approx: RwLock::new(None),
            placement: std::sync::OnceLock::new(),
        })
    }

    /// Sets the maintenance (invalidation) policy.
    pub fn with_policy(mut self, policy: MaintenancePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the fit options used for lazy re-estimation.
    pub fn with_fit_options(mut self, fit: FitOptions) -> Self {
        self.fit = fit;
        self
    }

    /// Enables drift-aware accuracy monitoring: every time advance feeds
    /// each stored model's `(actual, one-step forecast)` pair into a
    /// windowed error tracker published as the `f2db.node.smape` /
    /// `f2db.node.mae` / `f2db.node.err_stddev` gauge families (label
    /// `node`). A window crossing `opts.smape_threshold` — or the
    /// windowed MAE exceeding the node's own error baseline by
    /// `opts.stddev_k` standard deviations — raises a `DriftAlert`
    /// journal event (tagged with its trigger), counts into
    /// `f2db.drift.alerts` and marks the model invalid, so the next
    /// referencing query re-estimates it (which in turn resets the
    /// node's window — a fresh model is not judged by stale errors).
    pub fn with_drift_monitoring(mut self, opts: AccuracyOptions) -> Self {
        self.accuracy = Some(RollingAccuracy::new(opts).with_gauge_families(
            names::F2DB_NODE_SMAPE,
            names::F2DB_NODE_MAE,
            names::F2DB_NODE_ERR_STDDEV,
        ));
        self
    }

    /// The drift monitor, when enabled by [`F2db::with_drift_monitoring`].
    pub fn drift_monitor(&self) -> Option<&RollingAccuracy> {
        self.accuracy.as_ref()
    }

    /// Attaches a sampling plane built over the current dataset with
    /// auto-registered targets (every aggregation node whose population
    /// reaches `options.min_population`). Queries opting in via
    /// [`ApproxQuerySpec`] get Horvitz–Thompson scale-ups with
    /// confidence intervals for registered nodes; everything else —
    /// including every query that does *not* opt in — is answered
    /// exactly, byte-identical to an engine without a plane.
    pub fn with_approx(self, options: ApproxOptions) -> Result<Self> {
        self.enable_approx(options)?;
        Ok(self)
    }

    /// Runtime form of [`F2db::with_approx`] for engines already shared
    /// behind an `Arc` (the shell's `\approx on`): builds a plane from
    /// the current data set and attaches it in place, replacing any
    /// existing plane.
    pub fn enable_approx(&self, options: ApproxOptions) -> Result<()> {
        let plane = {
            let ds = self.dataset.read().unwrap();
            ApproxPlane::build(&ds, None, options)?
        };
        *self.approx.write().unwrap() = Some(plane);
        Ok(())
    }

    /// Detaches the sampling plane; subsequent queries are exact-only.
    /// A no-op when none is attached.
    pub fn disable_approx(&self) {
        *self.approx.write().unwrap() = None;
    }

    /// Attaches a sampling plane whose registered nodes come from an
    /// advisor coverage plan ([`fdc_approx::plan_coverage`]): exactly
    /// the nodes the plan routed through sampling, with reservoirs sized
    /// to the plan's per-stratum choice.
    pub fn with_approx_plan(self, plan: &CoveragePlan, options: ApproxOptions) -> Result<Self> {
        let targets = plan.sampled_nodes();
        if targets.is_empty() {
            // Nothing exceeds the latency budget: no plane at all.
            return Ok(self);
        }
        let options = ApproxOptions {
            samples_per_stratum: plan.per_stratum().max(2),
            ..options
        };
        let plane = {
            let ds = self.dataset.read().unwrap();
            ApproxPlane::build(&ds, Some(&targets), options)?
        };
        *self.approx.write().unwrap() = Some(plane);
        Ok(self)
    }

    /// Whether a sampling plane is attached.
    pub fn approx_enabled(&self) -> bool {
        self.approx.read().unwrap().is_some()
    }

    /// Sampling facts of `node` (population, stored sample size, strata)
    /// when a plane is attached and the node is registered.
    pub fn approx_node_info(&self, node: NodeId) -> Option<fdc_approx::ApproxNodeInfo> {
        self.approx.read().unwrap().as_ref()?.node_info(node)
    }

    /// Persists the sampling plane to a sidecar file (crash-safely, like
    /// the catalog). Errors when no plane is attached. The catalog file
    /// is untouched — approximation never changes catalog bytes.
    pub fn save_approx(&self, path: &std::path::Path) -> Result<()> {
        let guard = self.approx.read().unwrap();
        let plane = guard
            .as_ref()
            .ok_or_else(|| F2dbError::Semantic("no sampling plane attached".into()))?;
        let bytes = fdc_approx::encode_plane(plane);
        fdc_wal::atomic_write_durable(path, &bytes).map_err(|e| F2dbError::Storage(e.to_string()))
    }

    /// Restores a sampling plane from a sidecar file written by
    /// [`F2db::save_approx`], replacing any attached plane. Restored
    /// reservoirs and model states are bit-identical to the saved ones.
    pub fn load_approx(&self, path: &std::path::Path) -> Result<()> {
        let bytes = std::fs::read(path).map_err(|e| F2dbError::Storage(e.to_string()))?;
        let plane = fdc_approx::decode_plane(&bytes, self.fit.clone())?;
        *self.approx.write().unwrap() = Some(plane);
        Ok(())
    }

    /// Turns this engine into one shard of a partitioned deployment: it
    /// owns exactly the base nodes in `owned` (each must be a base
    /// series; the set must be non-empty). Inserts for other bases are
    /// rejected with [`F2dbError::WrongShard`]; a time stamp completes
    /// once every *owned* base has a pending value, with non-owned
    /// bases zero-padded into the advance. Forecast queries are limited
    /// to resident nodes — nodes whose derivation closure lies entirely
    /// inside the owned set, which makes their series, model states and
    /// derivation weights bit-identical to an unpartitioned oracle fed
    /// the same per-cell values.
    pub fn with_base_partition(mut self, owned: &[NodeId]) -> Result<Self> {
        let partition = {
            let ds = self.dataset.read().unwrap();
            let g = ds.graph();
            let mut owned_set = std::collections::BTreeSet::new();
            for &n in owned {
                if !g.is_base(n) {
                    return Err(F2dbError::Semantic(format!(
                        "partition owns node {n}, which is not a base series"
                    )));
                }
                owned_set.insert(n);
            }
            if owned_set.is_empty() {
                return Err(F2dbError::Semantic(
                    "a shard partition must own at least one base node".into(),
                ));
            }
            let mut resident = std::collections::BTreeSet::new();
            for v in 0..g.node_count() {
                let Some(entry) = self.catalog.entry(v) else {
                    continue;
                };
                let closure = placement::closure(g, &entry.scheme_sources, v);
                if closure.iter().all(|b| owned_set.contains(b)) {
                    resident.insert(v);
                }
            }
            Partition {
                owned: owned_set,
                resident,
            }
        };
        self.partition = Some(partition);
        Ok(self)
    }

    /// Whether this engine accepts inserts for `base` — always true on
    /// an unpartitioned engine.
    pub fn owns_base(&self, base: NodeId) -> bool {
        match &self.partition {
            None => true,
            Some(p) => p.owned.contains(&base),
        }
    }

    /// Whether forecasts for `node` can be served bit-exactly by this
    /// engine — always true on an unpartitioned engine (for any node
    /// with a catalog entry the resolver would produce).
    pub fn is_resident(&self, node: NodeId) -> bool {
        match &self.partition {
            None => true,
            Some(p) => p.resident.contains(&node),
        }
    }

    /// `(owned bases, resident nodes)` of a partitioned engine; `None`
    /// when unpartitioned.
    pub fn partition_summary(&self) -> Option<(usize, usize)> {
        self.partition
            .as_ref()
            .map(|p| (p.owned.len(), p.resident.len()))
    }

    /// The placement key of base node `base` (see
    /// [`Placement::key`]): its first `key_dims` dimension values joined
    /// with `|`.
    pub fn partition_key(&self, base: NodeId, key_dims: usize) -> Result<String> {
        let ds = self.dataset.read().unwrap();
        if !ds.graph().is_base(base) {
            return Err(F2dbError::Semantic(format!(
                "node {base} is not a base series"
            )));
        }
        Ok(placement::key(ds.graph(), base, key_dims))
    }

    /// This engine's placement map: its graph and its configuration's
    /// scheme sources, which a router plans routed queries over. Built
    /// on first use and kept — neither part ever changes.
    pub fn placement(&self) -> &Placement {
        self.placement.get_or_init(|| {
            let graph = self.dataset.read().unwrap().shared_graph();
            let sources = (0..graph.node_count())
                .map(|v| self.catalog.entry(v).map(|entry| entry.scheme_sources))
                .collect();
            Placement::new(graph, sources)
        })
    }

    /// Read access to the underlying data set. Holds a read lock for the
    /// guard's lifetime — drop it before calling an insert path from the
    /// same thread.
    pub fn dataset(&self) -> RwLockReadGuard<'_, Dataset> {
        self.dataset.read().unwrap()
    }

    /// A point-in-time snapshot of the maintenance and query statistics.
    pub fn stats(&self) -> MaintenanceStats {
        self.stats.snapshot()
    }

    /// Number of models stored in the catalog.
    pub fn model_count(&self) -> usize {
        self.catalog.model_count()
    }

    /// The catalog itself — read-only diagnostics (invalid flags,
    /// invalidation epochs) for tools and test harnesses.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Executes one forecast request: the single entry point of the §V
    /// query processor (rewrite → nodes → models → derive). The
    /// statement is parsed and classified against [`QueryRequest::mode`]
    /// here, the node filter and the approximation controls apply the
    /// same way in every mode, and an illegal combination is a typed
    /// [`F2dbError::Semantic`]:
    ///
    /// * `INSERT` text under any mode (writes go through
    ///   [`F2db::insert_value`] / [`F2db::insert_batch`]);
    /// * `EXPLAIN` text under [`QueryMode::Forecast`], `EXPLAIN ANALYZE`
    ///   text under [`QueryMode::Explain`] (the explain modes accept the
    ///   query with or without the prefix);
    /// * `approx` with [`QueryMode::ExplainAnalyze`].
    ///
    /// `nodes` restricts the resolved nodes (rows keep resolve order; a
    /// filter excluding every node is an error — the router misrouted).
    /// `approx` answers nodes registered on the sampling plane as
    /// Horvitz–Thompson scale-ups carrying [`RowApprox`] (or, when
    /// explaining, plans them as `sampled` rows with [`ExplainApprox`]
    /// facts); with `approx: None` the plane is never consulted, so
    /// exact results stay bit-identical. The executing modes count as
    /// queries for maintenance statistics and latency metrics, trigger
    /// lazy re-estimation and — on a partitioned engine — require every
    /// surviving node to be resident; [`QueryMode::Explain`] is static
    /// planning and works for any node.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryAnswer> {
        request.validate()?;
        let (sql, filter) = (request.sql.as_str(), request.nodes.as_deref());
        let approx = request.approx.as_ref();
        match request.mode {
            QueryMode::Forecast => self.run(sql, filter, approx).map(QueryAnswer::Rows),
            mode => self
                .explain(sql, filter, approx, mode)
                .map(QueryAnswer::Plan),
        }
    }

    /// Executes a forecast query: sugar for [`F2db::execute`] with a
    /// plain [`QueryMode::Forecast`] request (no node filter, exact).
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.run(sql, None, None)
    }

    /// The forecast mode: the rows of the statement's nodes.
    fn run(
        &self,
        sql: &str,
        filter: Option<&[NodeId]>,
        approx: Option<&ApproxQuerySpec>,
    ) -> Result<QueryResult> {
        // The span's clock starts before the parse: it is part of what
        // the query cost. A statement that does not parse (or any other
        // error) leaves through `?`, and the dropped span records
        // nothing.
        let span = SpanGuard::timed("f2db.query");
        let r = self.resolve(sql, filter, QueryMode::Forecast, approx)?;
        let sampling = r.sampling(approx);
        let rows = self.forecast_rows(&r.ds, r.aggregate, r.horizon, &r.nodes, sampling)?;
        drop(r);
        self.record_query(span);
        Ok(rows)
    }

    /// The explain modes: the static plan, executed in place under
    /// [`QueryMode::ExplainAnalyze`] (timed and counted as a query the
    /// way [`F2db::run`] is).
    fn explain(
        &self,
        sql: &str,
        filter: Option<&[NodeId]>,
        approx: Option<&ApproxQuerySpec>,
        mode: QueryMode,
    ) -> Result<ExplainReport> {
        let analyze = mode == QueryMode::ExplainAnalyze;
        let span = analyze.then(|| SpanGuard::timed("f2db.explain_analyze"));
        let r = self.resolve(sql, filter, mode, approx)?;
        let sampling = r.sampling(approx);
        let mut report = self.plan_report(&r.ds, r.aggregate, r.horizon, &r.nodes, sampling)?;
        if analyze {
            self.analyze(&r.ds, &mut report)?;
        }
        drop(r);
        if let Some(span) = span {
            report.total_elapsed = Some(self.record_query(span));
            fdc_obs::counter!(names::F2DB_EXPLAIN_ANALYZE).incr();
        }
        Ok(report)
    }

    /// Parses `sql`, classifies it against `mode` and resolves its
    /// nodes under the data set's read lock; the executing modes also
    /// check that every node is resident. The approximation plane is
    /// locked only for a request with `approx`, so the exact path never
    /// touches it.
    fn resolve<'d>(
        &'d self,
        sql: &str,
        filter: Option<&[NodeId]>,
        mode: QueryMode,
        approx: Option<&ApproxQuerySpec>,
    ) -> Result<Resolved<'d>> {
        let query = placement::statement(sql, mode)?;
        let ds = self.dataset.read().unwrap();
        // The planner a router runs over this engine's placement map,
        // so a statement is refused the same way on both tiers; only
        // what the map does not hold is checked after it.
        let nodes = placement::resolve(ds.graph(), &query, filter)?;
        let spec = query.horizon;
        let horizon = spec.steps(ds.series(0).granularity()).ok_or_else(|| {
            F2dbError::Semantic(format!(
                "horizon unit {spec:?} is finer than the data granularity"
            ))
        })?;
        if mode != QueryMode::Explain {
            self.check_resident(&nodes)?;
        }
        Ok(Resolved {
            ds,
            plane: approx.map(|_| self.approx.read().unwrap()),
            aggregate: query.aggregate,
            horizon,
            nodes,
        })
    }

    /// Closes an executed query's span: its one duration is what
    /// `f2db.query.ns` and the maintenance statistics record, and what
    /// is returned.
    fn record_query(&self, span: SpanGuard) -> Duration {
        let elapsed = span.finish(fdc_obs::histogram!(names::F2DB_QUERY_NS));
        self.stats.record_query(elapsed);
        fdc_obs::counter!(names::F2DB_QUERIES).incr();
        elapsed
    }

    /// The exact forecast of `n`: the catalog derivation, divided by the
    /// number of base series under the node for AVG (series are aligned,
    /// so the count is constant over time). `lazy` says nobody has
    /// looked at the node's sources yet: the visit that forecasts them
    /// checks them, and only when it finds something to settle does
    /// [`F2db::reestimate_referenced`] run first.
    fn exact_forecast(
        &self,
        ds: &Dataset,
        aggregate: AggregateFn,
        n: NodeId,
        lazy: bool,
        out: &mut [f64],
    ) -> Result<usize> {
        let settled = lazy.then(|| self.catalog.forecast_if_settled(n, out));
        let len = match settled.flatten() {
            Some((len, sources)) => {
                // What `reestimate_referenced` counts for valid sources.
                fdc_obs::counter!(names::F2DB_MODELS_CACHED).add(sources as u64);
                Some(len)
            }
            None => {
                if lazy {
                    self.reestimate_referenced(ds, [n])?;
                }
                self.catalog.forecast_into(n, out)
            }
        };
        let len = len.ok_or_else(|| {
            F2dbError::Semantic(format!(
                "node {} has no derivation scheme in the configuration",
                ds.graph().coord(n).display(ds.graph().schema())
            ))
        })?;
        if aggregate == AggregateFn::Avg {
            let count = ds.graph().base_descendants(n).len().max(1) as f64;
            for v in &mut out[..len] {
                *v /= count;
            }
        }
        Ok(len)
    }

    /// Forecast rows of the resolved `nodes`: plane-registered nodes (only
    /// with `sampling`) as Horvitz–Thompson scale-ups, the rest through
    /// the catalog after lazily re-estimating the models they reference.
    fn forecast_rows(
        &self,
        ds: &Dataset,
        aggregate: AggregateFn,
        horizon: usize,
        nodes: &[NodeId],
        sampling: Sampling<'_>,
    ) -> Result<QueryResult> {
        let sampled = |n: NodeId| sampling.filter(|(_, plane)| plane.is_registered(n));
        // Only exactly-answered nodes reference catalog models. A lone
        // node's are checked by the visit that forecasts it; several
        // nodes may share sources, which count once per query.
        let lazy = nodes.len() == 1;
        if !lazy {
            let exact = nodes.iter().copied().filter(|&n| sampled(n).is_none());
            self.reestimate_referenced(ds, exact)?;
        }

        let g = ds.graph();
        let now = ds.series(0).end();
        let stamped =
            |values: &[f64]| -> Vec<(i64, f64)> { (now..).zip(values.iter().copied()).collect() };
        // The catalog derives an exact row into this buffer, and the
        // row's `(time, value)` pairs are built from it.
        let (mut inline, mut heap) = ([0.0; INLINE_STEPS], Vec::new());
        let buffer = stack_or_heap(&mut inline, &mut heap, horizon, 0.0);
        let mut rows = Vec::with_capacity(nodes.len());
        for &n in nodes {
            let (values, approx) = match sampled(n) {
                None => {
                    let len = self.exact_forecast(ds, aggregate, n, lazy, buffer)?;
                    (stamped(&buffer[..len]), None)
                }
                Some((spec, plane)) => {
                    let mut fc = plane.estimate(n, horizon, spec).ok_or_else(|| {
                        F2dbError::Semantic(format!(
                            "node {} has no sampled estimate",
                            g.coord(n).display(g.schema())
                        ))
                    })?;
                    fdc_obs::counter!(names::F2DB_APPROX_ROWS).incr();
                    if aggregate == AggregateFn::Avg {
                        // AVG = SUM / population; the plane knows the exact
                        // population without an O(cells) descendant scan.
                        let count = fc.population.max(1) as f64;
                        for v in fc.values.iter_mut().chain(&mut fc.ci_half) {
                            *v /= count;
                        }
                    }
                    let approx = RowApprox {
                        sampled: fc.sampled,
                        population: fc.population,
                        confidence: fc.confidence,
                        ci_half: fc.ci_half,
                    };
                    (stamped(&fc.values), Some(approx))
                }
            };
            rows.push(QueryRow {
                node: n,
                label: g.coord(n).display(g.schema()),
                values,
                approx,
            });
        }
        Ok(QueryResult { rows })
    }

    /// The static plan of the resolved `nodes`. With `sampling`, nodes
    /// registered on the plane plan as `sampled` rows instead of catalog
    /// derivations.
    fn plan_report(
        &self,
        ds: &Dataset,
        aggregate: AggregateFn,
        horizon: usize,
        nodes: &[NodeId],
        sampling: Sampling<'_>,
    ) -> Result<ExplainReport> {
        let g = ds.graph();
        let mut rows = Vec::with_capacity(nodes.len());
        for &n in nodes {
            let label = g.coord(n).display(g.schema());
            let sampled =
                sampling.and_then(|(spec, plane)| plane.node_info(n).map(|info| (spec, info)));
            if let Some((spec, info)) = sampled {
                rows.push(ExplainRow {
                    node: n,
                    label,
                    scheme_kind: "sampled",
                    sources: Vec::new(),
                    weight: 1.0,
                    analysis: None,
                    approx: Some(ExplainApprox {
                        population: info.population,
                        sampled: info.sampled,
                        strata: info.strata,
                        budget: spec.budget,
                        target_ci: spec.target_ci,
                    }),
                });
                continue;
            }
            let entry = self.catalog.entry(n).ok_or_else(|| {
                F2dbError::Semantic(format!(
                    "node {label} has no derivation scheme in the configuration"
                ))
            })?;
            let scheme_kind = match fdc_cube::derive::classify_scheme(ds, &entry.scheme_sources, n)
            {
                fdc_cube::SchemeKind::Direct => "direct",
                fdc_cube::SchemeKind::Aggregation => "aggregation",
                fdc_cube::SchemeKind::Disaggregation => "disaggregation",
                fdc_cube::SchemeKind::General => "general",
            };
            let sources = entry
                .scheme_sources
                .iter()
                .map(|&s| ExplainSource {
                    label: g.coord(s).display(g.schema()),
                    invalid: self.catalog.is_invalid(s),
                })
                .collect();
            rows.push(ExplainRow {
                node: n,
                label,
                scheme_kind,
                sources,
                weight: entry.weight,
                analysis: None,
                approx: None,
            });
        }
        Ok(ExplainReport {
            horizon,
            aggregate,
            rows,
            total_elapsed: None,
        })
    }

    /// Executes a static plan in place (`EXPLAIN ANALYZE`): lazily
    /// re-estimates every invalid source the plan references, then
    /// annotates each row with the wall-clock time spent deriving its
    /// forecast, the state of each source model (cached, or re-estimated
    /// by this very query) and the values produced.
    fn analyze(&self, ds: &Dataset, report: &mut ExplainReport) -> Result<()> {
        let reestimated = self.reestimate_referenced(ds, report.rows.iter().map(|r| r.node))?;
        for row in &mut report.rows {
            let node_started = Instant::now();
            let mut values = vec![0.0; report.horizon];
            let len = self.exact_forecast(ds, report.aggregate, row.node, false, &mut values)?;
            values.truncate(len);
            let elapsed = node_started.elapsed();
            let source_states = self
                .catalog
                .sources(row.node)
                .iter()
                .map(|s| {
                    if reestimated.binary_search(s).is_ok() {
                        SourceModelState::Reestimated
                    } else {
                        SourceModelState::Cached
                    }
                })
                .collect();
            row.analysis = Some(NodeAnalysis {
                elapsed,
                source_states,
                values,
            });
        }
        Ok(())
    }

    /// Lazily re-estimates every invalid model referenced by the
    /// derivation schemes of `nodes` (§V maintenance processor). Each
    /// model's lock is its single flight, so under concurrency each
    /// invalidation epoch pays for exactly one re-fit. Returns the
    /// sources this call was the leader for, sorted ascending.
    fn reestimate_referenced(
        &self,
        ds: &Dataset,
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> Result<Vec<NodeId>> {
        let mut referenced: Vec<NodeId> = Vec::new();
        for n in nodes {
            referenced.extend_from_slice(self.catalog.sources(n));
        }
        referenced.sort_unstable();
        referenced.dedup();
        let mut refitted = Vec::new();
        for s in referenced {
            if self.catalog.reestimate_single_flight(s, ds, &self.fit)? == Reestimation::Refit {
                self.refitted(s);
                refitted.push(s);
            } else {
                fdc_obs::counter!(names::F2DB_MODELS_CACHED).incr();
            }
        }
        Ok(refitted)
    }

    /// On a partitioned engine, refuses to execute a forecast for a
    /// node whose derivation closure leaves this shard: it would
    /// silently mix zero-padded series into the answer, so it is a
    /// [`F2dbError::WrongShard`] instead.
    fn check_resident(&self, nodes: &[NodeId]) -> Result<()> {
        match nodes.iter().find(|&&n| !self.is_resident(n)) {
            Some(n) => Err(F2dbError::WrongShard(format!(
                "node {n} is not resident on this shard (its derivation \
                 closure spans base nodes owned elsewhere)"
            ))),
            None => Ok(()),
        }
    }

    /// Resolves dimension values (in schema order) to the base node they
    /// identify, for callers (a network server, the shell's `INSERT`)
    /// that resolve rows up front and commit them through
    /// [`F2db::insert_value`] or [`F2db::insert_batch`].
    pub fn base_node_for(&self, dim_values: &[impl AsRef<str>]) -> Result<NodeId> {
        let mut resolver = self.base_resolver();
        for value in dim_values {
            resolver.push(value.as_ref());
        }
        resolver.finish()
    }

    /// [`F2db::base_node_for`] for a caller that resolves many rows
    /// (one `/insert` body): one read of the data set and one
    /// coordinate buffer serve all of them, and the labels are taken
    /// one at a time, as a pull parser hands them out.
    pub fn base_resolver(&self) -> BaseResolver<'_> {
        BaseResolver {
            dataset: self.dataset.read().unwrap(),
            coord: Vec::new(),
            seen: 0,
            unknown: None,
        }
    }

    /// Inserts one new observation for a base node id. Inserts are
    /// batched "until a new value is available for each base time series
    /// for the next time stamp" (§V); then time advances through the
    /// whole graph at once. Returns `true` when the graph advanced.
    pub fn insert_value(&self, base_node: NodeId, measure: f64) -> Result<bool> {
        self.insert_batch(&[(base_node, measure)])
            .map(|advances| advances > 0)
    }

    /// Submits one [`WalRecord::InsertBatch`] for `rows` (no-op without
    /// an attached log). Must be called under the `pending` mutex so
    /// log order matches apply order.
    fn wal_submit(&self, rows: &[(NodeId, f64)]) -> Result<Option<fdc_wal::Append>> {
        match self.wal.get() {
            None => Ok(None),
            Some(wal) => {
                // Embed the sampled trace identity so a follower that
                // replays this record can join its apply span to the
                // originating request's trace.
                let payload = WalRecord::InsertBatch {
                    rows: rows.to_vec(),
                    trace: fdc_obs::trace::current_sampled_pair(),
                }
                .encode();
                wal.submit(&payload)
                    .map(Some)
                    .map_err(|e| F2dbError::Storage(e.to_string()))
            }
        }
    }

    /// Blocks until a submitted record is durable. Call with every lock
    /// released.
    fn wal_wait(&self, ticket: Option<fdc_wal::Append>) -> Result<()> {
        match ticket {
            None => Ok(()),
            Some(t) => {
                // The group-commit wait is the dominant insert latency
                // under fsync; give it its own span in the trace.
                let _span = fdc_obs::span!("f2db.wal_commit");
                t.wait()
                    .map(|_| ())
                    .map_err(|e| F2dbError::Storage(e.to_string()))
            }
        }
    }

    /// Inserts a micro-batch of observations in one pass over the write
    /// path: the pending map's mutex is held across the *whole* batch, and
    /// every time stamp the batch completes advances inline — so `n`
    /// coalesced rows cost one `pending` acquisition and at most
    /// `n / base_count` advance-lock acquisitions, instead of `n` of each.
    /// `fdc-serve` commits each `/insert` request through this on its
    /// own worker: concurrent callers take `pending` in turn and wait
    /// for durability after releasing it, so they share the log's
    /// group-commit fsync.
    ///
    /// Later duplicates of a base node within one incomplete time stamp
    /// overwrite earlier ones, exactly as repeated [`F2db::insert_value`]
    /// calls would. Returns the number of time advances the batch
    /// triggered. On error (a row that is not a base series) the rows
    /// before the offending one remain applied, like a failing statement
    /// in a script.
    pub fn insert_batch(&self, rows: &[(NodeId, f64)]) -> Result<usize> {
        self.check_writable("INSERT")?;
        self.insert_batch_inner(rows)
    }

    /// Applies logged record `seq` on top of the engine's state: the one
    /// door of crash recovery ([`F2db::attach_wal`]), a follower's open
    /// and fetch, and promotion's tail. At or below the engine's log
    /// position it is skipped (`None`); the next one runs the write path
    /// past the read-only guard, unlogged (an attached log refuses), and
    /// returns its time advances; a later one is a typed gap error.
    pub fn replay(&self, seq: u64, record: &WalRecord) -> Result<Option<usize>> {
        let mut position = self.wal_position.lock().unwrap();
        let held = *position;
        if seq <= held {
            return Ok(None);
        }
        if seq != held + 1 {
            return Err(F2dbError::Storage(format!(
                "log replay gap: the engine holds seq {held}, the next record is seq {seq}"
            )));
        }
        if self.wal.get().is_some() {
            return Err(F2dbError::Storage("replay onto an attached log".into()));
        }
        let WalRecord::InsertBatch { rows, .. } = record;
        let advances = self.insert_batch_inner(rows)?;
        *position = seq;
        Ok(Some(advances))
    }

    fn insert_batch_inner(&self, rows: &[(NodeId, f64)]) -> Result<usize> {
        if rows.is_empty() {
            return Ok(0);
        }
        let _span = fdc_obs::span!("f2db.insert_batch");
        let target_count = {
            let ds = self.dataset.read().unwrap();
            for &(node, _) in rows {
                if !ds.graph().is_base(node) {
                    return Err(F2dbError::Semantic(format!(
                        "node {node} is not a base series"
                    )));
                }
                self.check_owned(node)?;
            }
            self.advance_target(ds.graph().base_nodes().len())
        };
        let mut advances = 0usize;
        let mut pending = self.pending.lock().unwrap();
        // One WAL record covers the whole batch: its N rows cost one log
        // append, and concurrent batches share one group-commit fsync.
        let ticket = self.wal_submit(rows)?;
        for &(node, measure) in rows {
            pending.insert(node, measure);
            self.stats.record_insert();
            fdc_obs::counter!(names::F2DB_INSERTS).incr();
            if pending.len() < target_count {
                continue;
            }
            // Acquire the advance lock while holding pending, so that
            // completed time stamps commit in completion order: taken
            // only inside the advance, it would let a later-drained batch
            // overtake an earlier one and swap which values land at which
            // time index. The pending mutex stays held through
            // the advance — lock order `pending → advance_lock → dataset
            // → model` allows it, and it is what makes the batch a single
            // write-path pass.
            let serial = self.advance_lock.lock().unwrap();
            let batch: Vec<(NodeId, f64)> = pending.drain().collect();
            self.advance_time(batch, serial)?;
            advances += 1;
        }
        drop(pending);
        self.stats.record_insert_batch();
        fdc_obs::counter!(names::F2DB_INSERT_BATCHES).incr();
        fdc_obs::histogram!(names::F2DB_INSERT_BATCH_ROWS).record(rows.len() as u64);
        // Ack only once durable. Waiting after the locks drop lets the
        // sync thread coalesce concurrent committers into one fsync.
        self.wal_wait(ticket)?;
        Ok(advances)
    }

    /// Number of inserts currently waiting for a complete time stamp.
    pub fn pending_inserts(&self) -> usize {
        self.pending.lock().unwrap().len()
    }

    /// Snapshot of the inserts waiting for a complete time stamp, sorted
    /// by node id — the rows [`F2db::save_checkpoint`] persists, so
    /// acknowledged writes of an incomplete time stamp survive a restart.
    pub fn pending_rows(&self) -> Vec<(NodeId, f64)> {
        let pending = self.pending.lock().unwrap();
        let mut rows: Vec<(NodeId, f64)> = pending.iter().map(|(&n, &v)| (n, v)).collect();
        drop(pending);
        rows.sort_by_key(|&(n, _)| n);
        rows
    }

    /// Proactively re-estimates every currently-invalid model — the job
    /// a background maintenance worker runs between query bursts. Safe to
    /// call from many threads concurrently; each model's lock is its
    /// single flight, so each invalidation epoch pays for one re-fit
    /// total. Returns how many models this call re-fitted.
    pub fn maintain(&self) -> Result<usize> {
        self.check_writable("MAINTAIN")?;
        let ds = self.dataset.read().unwrap();
        let mut refitted = 0;
        for node in self.catalog.invalid_nodes() {
            if self
                .catalog
                .reestimate_single_flight(node, &ds, &self.fit)?
                == Reestimation::Refit
            {
                self.refitted(node);
                refitted += 1;
            }
        }
        Ok(refitted)
    }

    /// The bookkeeping of one re-fit of `node`'s model: counted, and its
    /// drift window started over.
    fn refitted(&self, node: NodeId) {
        self.stats.record_reestimation();
        fdc_obs::counter!(names::F2DB_MODELS_REESTIMATED).incr();
        if let Some(acc) = &self.accuracy {
            acc.reset_key(node as u64);
        }
    }

    /// Marks the model at `node` invalid (as a maintenance policy would).
    /// Returns whether the flag changed.
    pub fn invalidate(&self, node: NodeId) -> bool {
        let changed = self.catalog.invalidate(node);
        if changed {
            self.stats.record_invalidations(1);
        }
        changed
    }

    /// Marks every stored model invalid; returns how many flags changed.
    pub fn invalidate_all(&self) -> usize {
        let n = self.catalog.invalidate_all();
        self.stats.record_invalidations(n as u64);
        n
    }

    /// Applies one complete batch under the advance lock the caller
    /// already holds ([`F2db::insert_batch`] acquires it while draining,
    /// so batches commit in completion order). Advances are serialized:
    /// the catalog's pass assumes one advance at a time (queries keep
    /// flowing model by model).
    fn advance_time(
        &self,
        mut batch: Vec<(NodeId, f64)>,
        _serial: MutexGuard<'_, ()>,
    ) -> Result<()> {
        let _span = fdc_obs::span!("f2db.advance_time");
        let last = {
            let mut ds = self.dataset.write().unwrap();
            if let Some(p) = &self.partition {
                // The dataset's advance needs one value per base node;
                // a shard zero-pads the bases it does not own. Padding
                // only corrupts subtrees outside every resident node's
                // derivation closure, so resident forecasts stay
                // bit-exact.
                batch.extend(
                    ds.graph()
                        .base_nodes()
                        .iter()
                        .filter(|b| !p.owned.contains(b))
                        .map(|&b| (b, 0.0)),
                );
            }
            ds.advance_time(&batch)?;
            ds.series_len() - 1
        };
        let ds = self.dataset.read().unwrap();
        // Feed committed values into the sampling plane's cell models
        // (O(1) per cell — only sampled cells own a model). Zero-padded
        // entries from a partitioned advance are skipped: a shard only
        // *knows* the values of bases it owns, and feeding padding would
        // corrupt sampled models.
        {
            let mut plane = self.approx.write().unwrap();
            if let Some(plane) = plane.as_mut() {
                for &(n, v) in &batch {
                    let owned = self
                        .partition
                        .as_ref()
                        .map(|p| p.owned.contains(&n))
                        .unwrap_or(true);
                    if owned {
                        plane.observe(n, v);
                    }
                }
            }
        }
        let out = self
            .catalog
            .advance_time_with(&ds, last, &self.policy, self.accuracy.as_ref());
        self.stats
            .record_advance(out.model_updates, out.invalidations);
        fdc_obs::counter!(names::F2DB_TIME_ADVANCES).incr();
        journal().publish(Event::BatchAdvance {
            time_index: last as u64,
            model_updates: out.model_updates,
            invalidations: out.invalidations,
            drift_alerts: out.drift_alerts,
        });
        Ok(())
    }

    /// Persists the engine state to a file, crash-safely *and* durably:
    /// the bytes are written to a temporary sibling, fsynced, atomically
    /// renamed over `path`, and the parent directory is fsynced so the
    /// rename itself survives power failure.
    ///
    /// Without a WAL this writes the plain catalog (configuration +
    /// model states). With a WAL attached it is a **checkpoint**
    /// ([`F2db::save_checkpoint`]).
    pub fn save_catalog(&self, path: &std::path::Path) -> Result<()> {
        if self.wal.get().is_some() {
            return self.save_checkpoint(path);
        }
        write_saved(path, &self.catalog.encode())
    }

    /// Persists everything a restart needs as one `F2CK` container,
    /// written like [`F2db::save_catalog`] writes: the catalog, the
    /// pending rows of the incomplete time stamp, the base-series
    /// snapshot (the caller's data set on disk predates every advance)
    /// and the durable WAL position the three correspond to — `0` when
    /// no log is attached. With a log, its fully-checkpointed segments
    /// are then truncated. [`F2db::open_catalog`] restores all of it.
    pub fn save_checkpoint(&self, path: &std::path::Path) -> Result<()> {
        let wal = self.wal.get();
        // Hold `pending` *and* `advance_lock` across the snapshot, in
        // the write path's `pending → advance_lock → dataset → model`
        // order. The write path submits its WAL record and runs its
        // advance under `pending`, and every advance runs under the
        // advance lock: with both held, `last_seq` names exactly the
        // state the snapshot captures, and no drained row is missing
        // from both the pending map and the dataset — the checkpoint
        // below would truncate the only durable copy of an
        // acknowledged write.
        let pending = self.pending.lock().unwrap();
        let serial = self.advance_lock.lock().unwrap();
        let wal_seq = wal.map_or(0, |w| w.stats().last_seq);
        let mut rows: Vec<(NodeId, f64)> = pending.iter().map(|(&n, &v)| (n, v)).collect();
        rows.sort_by_key(|&(n, _)| n);
        let catalog_bytes = self.catalog.encode();
        let container = {
            let ds = self.dataset.read().unwrap();
            durability::encode_checkpoint(wal_seq, &rows, &ds, &catalog_bytes)
        };
        // The snapshot bytes are captured; later advances only add
        // records past `wal_seq`, which the checkpoint below leaves in
        // the log.
        drop(serial);
        write_saved(path, &container)?;
        drop(pending);
        if let Some(wal) = wal {
            // The snapshot is durable; segments at or below wal_seq
            // are now dead weight.
            wal.checkpoint(wal_seq)
                .map_err(|e| F2dbError::Storage(e.to_string()))?;
        }
        Ok(())
    }

    /// Restores a database from a persisted file and the (current) data
    /// set. Reads both formats: a plain catalog uses the caller's data
    /// set as-is; an `F2CK` checkpoint container additionally
    /// restores the base series the checkpoint snapshotted (recomputing
    /// aggregates), the pending rows, and the WAL watermark that
    /// [`F2db::attach_wal`] will resume replay from. Stale `*.tmp.*`
    /// siblings from interrupted saves are swept.
    pub fn open_catalog(dataset: Dataset, path: &std::path::Path) -> Result<Self> {
        let _ = fdc_wal::sweep_stale_tmp(path);
        let bytes = std::fs::read(path).map_err(|e| F2dbError::Storage(e.to_string()))?;
        fdc_obs::counter(names::F2DB_CATALOG_DECODED_BYTES).add(bytes.len() as u64);
        journal().publish(Event::CatalogLoad {
            bytes: bytes.len() as u64,
        });
        let (catalog, dataset, pending, recovered_wal_seq) =
            if durability::is_checkpoint_container(&bytes) {
                let cp = durability::decode_checkpoint(&bytes)?;
                let schema = dataset.graph().schema().clone();
                let restored = Dataset::from_base(schema, cp.base)?;
                let catalog = Catalog::decode(&cp.catalog_bytes)?;
                let pending: HashMap<NodeId, f64> = cp.pending.into_iter().collect();
                (catalog, restored, pending, cp.wal_seq)
            } else {
                (Catalog::decode(&bytes)?, dataset, HashMap::new(), 0)
            };
        if catalog.node_count() != dataset.node_count() {
            return Err(F2dbError::Storage(format!(
                "catalog covers {} nodes, data set has {}",
                catalog.node_count(),
                dataset.node_count()
            )));
        }
        Ok(F2db {
            dataset: RwLock::new(dataset),
            catalog,
            pending: Mutex::new(pending),
            advance_lock: Mutex::new(()),
            policy: MaintenancePolicy::default(),
            fit: FitOptions::default(),
            stats: SharedMaintenanceStats::default(),
            accuracy: None,
            wal: std::sync::OnceLock::new(),
            wal_position: Mutex::new(recovered_wal_seq),
            read_only: std::sync::atomic::AtomicBool::new(false),
            partition: None,
            approx: RwLock::new(None),
            placement: std::sync::OnceLock::new(),
        })
    }

    /// Opens (replaying) the write-ahead log in `wal_dir`, re-applies
    /// every record through [`F2db::replay`], and attaches the log so
    /// subsequent inserts are durable. Call on a freshly loaded or
    /// freshly opened engine, before serving traffic.
    ///
    /// Replay is idempotent across restarts: records the image already
    /// covers are skipped, and a second recovery of the same files
    /// reproduces byte-identical state. A log checkpointed past the
    /// engine's position is refused: the records in between are gone.
    pub fn attach_wal(
        self,
        wal_dir: &std::path::Path,
        opts: fdc_wal::WalOptions,
    ) -> Result<(Self, RecoveryReport)> {
        let (wal, wal_recovery) =
            fdc_wal::Wal::open(wal_dir, opts).map_err(|e| F2dbError::Storage(e.to_string()))?;
        let mut report = RecoveryReport {
            resumed_from_seq: *self.wal_position.lock().unwrap(),
            wal: wal_recovery,
            ..RecoveryReport::default()
        };
        if report.wal.checkpoint_seq > report.resumed_from_seq {
            return Err(F2dbError::Storage(format!(
                "log checkpointed at seq {}, past the engine image at seq {}",
                report.wal.checkpoint_seq, report.resumed_from_seq
            )));
        }
        for (seq, payload) in &report.wal.records {
            let record = WalRecord::decode(payload)?;
            if let Some(advances) = self.replay(*seq, &record)? {
                let WalRecord::InsertBatch { rows, .. } = &record;
                report.advances += advances as u64;
                report.replayed_rows += rows.len() as u64;
                report.replayed_batches += 1;
            }
        }
        self.adopt_wal(wal)?;
        Ok((self, report))
    }

    /// One-call crash recovery: [`F2db::open_catalog`] (either format)
    /// followed by [`F2db::attach_wal`].
    pub fn recover(
        dataset: Dataset,
        catalog_path: &std::path::Path,
        wal_dir: &std::path::Path,
        opts: fdc_wal::WalOptions,
    ) -> Result<(Self, RecoveryReport)> {
        Self::open_catalog(dataset, catalog_path)?.attach_wal(wal_dir, opts)
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&fdc_wal::Wal> {
        self.wal.get()
    }

    /// Counters of the attached write-ahead log, if any: last appended
    /// sequence number, checkpoint watermark, live segments, fsyncs.
    pub fn wal_stats(&self) -> Option<fdc_wal::WalStats> {
        self.wal.get().map(|w| w.stats())
    }

    /// Attaches an already-opened (and already-replayed) log through a
    /// shared reference — the promotion path: a follower replica's
    /// engine is behind an `Arc` by the time it becomes writable, so
    /// the by-value [`F2db::attach_wal`] is out of reach. Fails if a
    /// log is already attached. The caller is responsible for having
    /// replayed the log's records into the engine first.
    pub fn adopt_wal(&self, wal: fdc_wal::Wal) -> Result<()> {
        self.wal.set(wal).map_err(|_| {
            F2dbError::Storage("a write-ahead log is already attached to this engine".into())
        })
    }

    /// Whether public write paths are rejected (a follower replica
    /// before promotion).
    pub fn is_read_only(&self) -> bool {
        self.read_only.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Marks the engine read-only (`true` — a follower replica) or
    /// writable again (`false` — promotion).
    pub fn set_read_only(&self, read_only: bool) {
        self.read_only
            .store(read_only, std::sync::atomic::Ordering::Release);
    }

    /// Rejects a write for a base node another shard owns.
    fn check_owned(&self, base: NodeId) -> Result<()> {
        if !self.owns_base(base) {
            return Err(F2dbError::WrongShard(format!(
                "base node {base} is owned by another shard of this partitioned deployment"
            )));
        }
        Ok(())
    }

    /// How many pending rows complete a time stamp: every base node, or
    /// on a partitioned shard only the owned ones.
    fn advance_target(&self, base_count: usize) -> usize {
        match &self.partition {
            None => base_count,
            Some(p) => p.owned.len(),
        }
    }

    fn check_writable(&self, op: &str) -> Result<()> {
        if self.is_read_only() {
            return Err(F2dbError::ReadOnly(format!(
                "{op} rejected: this engine is a read-only follower replica; \
                 write to the primary or promote the follower first"
            )));
        }
        Ok(())
    }
}

/// Writes a saved catalog or checkpoint durably (temporary sibling,
/// fsync, atomic rename, parent-directory fsync) and accounts for it.
fn write_saved(path: &std::path::Path, bytes: &[u8]) -> Result<()> {
    fdc_obs::counter(names::F2DB_CATALOG_ENCODED_BYTES).add(bytes.len() as u64);
    journal().publish(Event::CatalogSave {
        bytes: bytes.len() as u64,
    });
    fdc_wal::atomic_write_durable(path, bytes).map_err(|e| F2dbError::Storage(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdc_core::{Advisor, AdvisorOptions};
    use fdc_datagen::tourism_proxy;

    fn small_db() -> F2db {
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
        F2db::load(ds, &outcome.configuration).unwrap()
    }

    fn plan(db: &F2db, sql: &str, mode: QueryMode) -> ExplainReport {
        db.execute(&QueryRequest::new(sql, mode))
            .unwrap()
            .into_plan()
            .unwrap()
    }

    #[test]
    fn forecast_query_returns_horizon_rows() {
        let db = small_db();
        let result = db
            .query("SELECT time, visitors FROM facts WHERE purpose = 'holiday' AND state = 'NSW' AS OF now() + '4 quarters'")
            .unwrap();
        assert_eq!(result.rows.len(), 1);
        assert_eq!(result.rows[0].values.len(), 4);
        assert!(result.rows[0].values.iter().all(|(_, v)| v.is_finite()));
        // Forecast time stamps continue the history.
        assert_eq!(result.rows[0].values[0].0, 32);
    }

    #[test]
    fn aggregate_query_resolves_aggregate_node() {
        let db = small_db();
        let result = db
            .query("SELECT time, SUM(visitors) FROM facts WHERE state = 'QLD' GROUP BY time AS OF now() + '2 quarters'")
            .unwrap();
        assert_eq!(result.rows.len(), 1);
        assert!(result.rows[0].label.contains('*'));
    }

    #[test]
    fn group_by_dimension_returns_multiple_rows() {
        let db = small_db();
        let result = db
            .query("SELECT time, SUM(visitors) FROM facts GROUP BY time, purpose AS OF now() + '1 quarter'")
            .unwrap();
        assert_eq!(result.rows.len(), 4);
    }

    #[test]
    fn unknown_value_is_semantic_error() {
        let db = small_db();
        let err = db
            .query("SELECT time, v FROM facts WHERE state = 'Nowhere' AS OF now() + '1 quarter'")
            .unwrap_err();
        assert!(matches!(err, F2dbError::Semantic(_)));
    }

    #[test]
    fn inserts_batch_until_complete_then_advance() {
        let db = small_db();
        let base: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
        let len_before = db.dataset().series_len();
        for (i, &b) in base.iter().enumerate() {
            let advanced = db.insert_value(b, 100.0).unwrap();
            assert_eq!(advanced, i + 1 == base.len());
        }
        assert_eq!(db.dataset().series_len(), len_before + 1);
        assert_eq!(db.pending_inserts(), 0);
        assert_eq!(db.stats().time_advances, 1);
    }

    #[test]
    fn insert_batch_commits_many_rows_per_advance() {
        let db = small_db();
        let base: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
        assert!(base.len() > 1, "fixture must have several base series");
        let len_before = db.dataset().series_len();
        // Three complete rounds in a single micro-batch.
        let rows: Vec<(NodeId, f64)> = (0..3)
            .flat_map(|round| {
                base.iter()
                    .map(move |&b| (b, 100.0 + round as f64))
                    .collect::<Vec<_>>()
            })
            .collect();
        let advances = db.insert_batch(&rows).unwrap();
        assert_eq!(advances, 3);
        assert_eq!(db.dataset().series_len(), len_before + 3);
        assert_eq!(db.pending_inserts(), 0);
        let stats = db.stats();
        assert_eq!(stats.inserts, rows.len());
        assert_eq!(stats.insert_batches, 1);
        assert_eq!(stats.time_advances, 3);
        // The point of micro-batching: >1 row per advance-lock trip.
        assert!(stats.inserts / stats.time_advances > 1);
    }

    #[test]
    fn insert_batch_partial_round_stays_pending() {
        let db = small_db();
        let base: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
        let rows: Vec<(NodeId, f64)> = base[..base.len() - 1]
            .iter()
            .enumerate()
            .map(|(i, &b)| (b, i as f64))
            .collect();
        let advances = db.insert_batch(&rows).unwrap();
        assert_eq!(advances, 0);
        assert_eq!(db.pending_inserts(), rows.len());
        // pending_rows is the sorted snapshot a draining server persists.
        let mut expected = rows.clone();
        expected.sort_by_key(|&(n, _)| n);
        assert_eq!(db.pending_rows(), expected);
        // Re-applying the snapshot elsewhere reproduces the same pending
        // state (duplicates overwrite, so this is idempotent).
        let db2 = small_db();
        db2.insert_batch(&db.pending_rows()).unwrap();
        assert_eq!(db2.pending_rows(), db.pending_rows());
    }

    #[test]
    fn insert_batch_rejects_non_base_nodes_before_applying() {
        let db = small_db();
        let top = db.dataset().graph().top_node();
        let b = db.dataset().graph().base_nodes()[0];
        assert!(db.insert_batch(&[(b, 1.0), (top, 2.0)]).is_err());
        // Validation happens before any row is applied.
        assert_eq!(db.pending_inserts(), 0);
        assert_eq!(db.insert_batch(&[]).unwrap(), 0);
    }

    #[test]
    fn interrupted_save_leaves_previous_catalog_intact() {
        let db = small_db();
        let dir = std::env::temp_dir().join(format!("fdc_atomic_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.bin");
        db.save_catalog(&path).unwrap();

        // Simulate a crash mid-save: a later save got as far as writing
        // garbage into its temp sibling but never renamed it.
        let tmp = {
            let mut t = path.as_os_str().to_owned();
            t.push(format!(".tmp.{}", std::process::id()));
            std::path::PathBuf::from(t)
        };
        std::fs::write(&tmp, b"partial garbage from an interrupted save").unwrap();

        // The real catalog is untouched and still opens.
        let restored = F2db::open_catalog(db.dataset().clone(), &path).unwrap();
        assert_eq!(restored.model_count(), db.model_count());

        // The next successful save consumes the temp file via rename and
        // leaves a valid catalog.
        db.save_catalog(&path).unwrap();
        assert!(!tmp.exists(), "temp file must be renamed away");
        F2db::open_catalog(db.dataset().clone(), &path).unwrap();

        // A failing save (unwritable target directory) reports Storage
        // and cleans its temp file up.
        let bad = dir.join("no_such_subdir").join("catalog.bin");
        assert!(matches!(
            db.save_catalog(&bad).unwrap_err(),
            F2dbError::Storage(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_pending_insert_overwrites() {
        let db = small_db();
        let b = db.dataset().graph().base_nodes()[0];
        db.insert_value(b, 1.0).unwrap();
        db.insert_value(b, 2.0).unwrap();
        assert_eq!(db.pending_inserts(), 1);
    }

    #[test]
    fn non_base_insert_is_rejected() {
        let db = small_db();
        let top = db.dataset().graph().top_node();
        assert!(db.insert_value(top, 1.0).is_err());
    }

    #[test]
    fn catalog_round_trips_through_disk() {
        let db = small_db();
        let path = std::env::temp_dir().join(format!("fdc_catalog_{}.bin", std::process::id()));
        db.save_catalog(&path).unwrap();
        let restored = F2db::open_catalog(db.dataset().clone(), &path).unwrap();
        assert_eq!(restored.model_count(), db.model_count());
        let result = restored
            .query("SELECT time, v FROM facts AS OF now() + '2 quarters'")
            .unwrap();
        assert_eq!(result.rows.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn avg_aggregate_divides_by_base_count() {
        let db = small_db();
        let sum = db
            .query("SELECT time, SUM(visitors) FROM facts GROUP BY time AS OF now() + '2 quarters'")
            .unwrap();
        let avg = db
            .query("SELECT time, AVG(visitors) FROM facts GROUP BY time AS OF now() + '2 quarters'")
            .unwrap();
        let n = db.dataset().graph().base_nodes().len() as f64;
        for (s, a) in sum.rows[0].values.iter().zip(&avg.rows[0].values) {
            assert!((s.1 / n - a.1).abs() < 1e-9, "{} vs {}", s.1 / n, a.1);
        }
    }

    #[test]
    fn explain_describes_the_plan() {
        let db = small_db();
        let report = plan(&db, "EXPLAIN SELECT time, SUM(visitors) FROM facts WHERE state = 'NSW' GROUP BY time AS OF now() + '4 quarters'", QueryMode::Explain);
        assert_eq!(report.horizon, 4);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert!(row.label.contains("NSW"));
        assert!(!row.sources.is_empty());
        assert!(row.weight.is_finite());
        assert!(["direct", "aggregation", "disaggregation", "general"].contains(&row.scheme_kind));
        // Rendered plan mentions the node and scheme.
        let text = report.to_string();
        assert!(text.contains("NSW"));
        assert!(text.contains(row.scheme_kind));
        // Explain mode also accepts the query without the EXPLAIN prefix.
        let same = plan(&db, "SELECT time, SUM(visitors) FROM facts WHERE state = 'NSW' GROUP BY time AS OF now() + '4 quarters'", QueryMode::Explain);
        assert_eq!(same, report);
    }

    #[test]
    fn execute_rejects_illegal_combinations_with_typed_errors() {
        let db = small_db();
        let select = "SELECT time, v FROM facts AS OF now() + '1 quarter'";
        let modes = [
            QueryMode::Forecast,
            QueryMode::Explain,
            QueryMode::ExplainAnalyze,
        ];
        let semantic = |request: QueryRequest| {
            let err = db.execute(&request).unwrap_err();
            assert!(matches!(err, F2dbError::Semantic(_)), "{request:?}: {err}");
        };
        // INSERT text is not a forecast request, whatever the mode.
        for mode in modes {
            semantic(QueryRequest::new(
                "INSERT INTO facts VALUES ('holiday', 'NSW', 123.0)",
                mode,
            ));
        }
        assert_eq!(db.pending_inserts(), 0);
        // EXPLAIN text needs an explain mode; ANALYZE text the analyze one.
        semantic(QueryRequest::new(
            format!("EXPLAIN {select}"),
            QueryMode::Forecast,
        ));
        semantic(QueryRequest::new(
            format!("EXPLAIN ANALYZE {select}"),
            QueryMode::Explain,
        ));
        // An analyzed plan executes the exact derivation: no approx.
        semantic(QueryRequest {
            approx: Some(ApproxQuerySpec::default()),
            ..QueryRequest::new(select, QueryMode::ExplainAnalyze)
        });
        // None of the rejections counted as a query.
        assert_eq!(db.stats().queries, 0);
        for mode in modes {
            db.execute(&QueryRequest::new(select, mode)).unwrap();
        }
        // Static planning is not a query; the two executing modes are.
        assert_eq!(db.stats().queries, 2);
    }

    #[test]
    fn queries_are_fast_because_precomputed() {
        let db = small_db();
        // Warm up, then measure: a forecast query must not scan base data.
        db.query("SELECT time, v FROM facts AS OF now() + '1 quarter'")
            .unwrap();
        let start = std::time::Instant::now();
        for _ in 0..100 {
            db.query("SELECT time, v FROM facts AS OF now() + '1 quarter'")
                .unwrap();
        }
        let avg = start.elapsed() / 100;
        assert!(avg < std::time::Duration::from_millis(5), "avg {avg:?}");
    }

    #[test]
    fn concurrent_queries_and_inserts_do_not_deadlock() {
        let db = small_db().with_policy(MaintenancePolicy::TimeBased { every: 1 });
        let base: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        db.query("SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '1 quarter'")
                            .unwrap();
                    }
                });
            }
            scope.spawn(|| {
                for round in 0..3 {
                    for &b in &base {
                        db.insert_value(b, 50.0 + round as f64).unwrap();
                    }
                }
            });
            scope.spawn(|| {
                for _ in 0..5 {
                    db.maintain().unwrap();
                }
            });
        });
        let stats = db.stats();
        assert_eq!(stats.queries, 80);
        assert_eq!(stats.time_advances, 3);
        // Every invalidation epoch paid for at most one re-estimation.
        assert!(stats.reestimations <= stats.invalidations);
    }

    #[test]
    fn invalidate_all_then_query_reestimates_once() {
        let db = small_db();
        let n = db.invalidate_all();
        assert_eq!(n, db.model_count());
        db.query("SELECT time, SUM(v) FROM facts GROUP BY time AS OF now() + '1 quarter'")
            .unwrap();
        let stats = db.stats();
        assert!(stats.reestimations >= 1);
        assert!(stats.reestimations <= n);
    }

    #[test]
    fn read_only_engine_rejects_writes_with_typed_errors() {
        let db = small_db();
        db.set_read_only(true);
        assert!(db.is_read_only());
        let b = db.dataset().graph().base_nodes()[0];
        // Every public write path fails with the typed error...
        for err in [
            db.insert_value(b, 1.0).unwrap_err(),
            db.insert_batch(&[(b, 1.0)]).unwrap_err(),
            db.maintain().unwrap_err(),
        ] {
            assert!(matches!(err, F2dbError::ReadOnly(_)), "{err:?}");
        }
        // ...and nothing landed.
        assert_eq!(db.pending_inserts(), 0);
        // Reads still work.
        db.query("SELECT time, v FROM facts AS OF now() + '1 quarter'")
            .unwrap();
        // Log replay bypasses the guard.
        let record = WalRecord::InsertBatch {
            rows: vec![(b, 2.0)],
            trace: None,
        };
        assert_eq!(db.replay(1, &record).unwrap(), Some(0));
        assert_eq!(db.pending_inserts(), 1);
        // Promotion reopens the write paths.
        db.set_read_only(false);
        db.insert_value(b, 3.0).unwrap();
    }

    #[test]
    fn adopt_wal_attaches_once_and_logs_subsequent_writes() {
        let dir = std::env::temp_dir().join(format!("fdc_adopt_wal_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = small_db();
        assert!(db.wal().is_none());
        let (wal, _) = fdc_wal::Wal::open(&dir, fdc_wal::WalOptions::default()).unwrap();
        db.adopt_wal(wal).unwrap();
        let b = db.dataset().graph().base_nodes()[0];
        db.insert_value(b, 4.0).unwrap();
        assert_eq!(db.wal_stats().unwrap().last_seq, 1);
        // A second log cannot displace the first.
        let dir2 = std::env::temp_dir().join(format!("fdc_adopt_wal2_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir2);
        let (other, _) = fdc_wal::Wal::open(&dir2, fdc_wal::WalOptions::default()).unwrap();
        assert!(matches!(
            db.adopt_wal(other).unwrap_err(),
            F2dbError::Storage(_)
        ));
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    /// Owned base nodes of one first-dimension slice — the natural
    /// partition under `key_dims = 1`, where every base under one
    /// dimension value lands on one shard.
    fn first_slice_partition(db: &F2db) -> (String, Vec<NodeId>) {
        let bases: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
        let key = db.partition_key(bases[0], 1).unwrap();
        let owned: Vec<NodeId> = bases
            .iter()
            .copied()
            .filter(|&b| db.partition_key(b, 1).unwrap() == key)
            .collect();
        (key, owned)
    }

    #[test]
    fn partition_rejects_foreign_inserts_and_advances_on_owned_count() {
        let db = small_db();
        let all: Vec<NodeId> = db.dataset().graph().base_nodes().to_vec();
        let (_, owned) = first_slice_partition(&db);
        assert!(owned.len() < all.len(), "fixture must span >1 slice");
        let db = db.with_base_partition(&owned).unwrap();
        assert!(owned.iter().all(|&b| db.owns_base(b)));

        let foreign = *all.iter().find(|b| !owned.contains(b)).unwrap();
        assert!(matches!(
            db.insert_value(foreign, 1.0).unwrap_err(),
            F2dbError::WrongShard(_)
        ));

        // A stamp completes once every *owned* base has a value; the
        // other shards' bases are zero-padded into the advance.
        let len_before = db.dataset().series_len();
        for (i, &b) in owned.iter().enumerate() {
            let advanced = db.insert_value(b, 50.0 + i as f64).unwrap();
            assert_eq!(advanced, i + 1 == owned.len());
        }
        assert_eq!(db.dataset().series_len(), len_before + 1);
        assert_eq!(db.pending_inserts(), 0);
    }

    #[test]
    fn partition_constructor_validates_inputs() {
        let db = small_db();
        let not_base = (0..db.dataset().graph().node_count())
            .find(|&v| !db.dataset().graph().base_nodes().contains(&v))
            .unwrap();
        let Err(e) = small_db().with_base_partition(&[not_base]) else {
            panic!("non-base ownership accepted");
        };
        assert!(matches!(e, F2dbError::Semantic(_)));
        let Err(e) = db.with_base_partition(&[]) else {
            panic!("empty ownership accepted");
        };
        assert!(matches!(e, F2dbError::Semantic(_)));
    }

    #[test]
    fn partitioned_shard_matches_oracle_bit_for_bit_on_resident_nodes() {
        // Shard and oracle must run the *same* configuration — the
        // advisor is free to pick different schemes per run — so the
        // catalog crosses via its codec, exactly as a deployment would
        // share a checkpoint file.
        let dir = std::env::temp_dir().join(format!("fdc_part_oracle_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("catalog.f2db");
        small_db().save_catalog(&path).unwrap();

        let oracle = F2db::open_catalog(tourism_proxy(1), &path).unwrap();
        let (_, owned) = first_slice_partition(&oracle);
        let shard = F2db::open_catalog(tourism_proxy(1), &path)
            .unwrap()
            .with_base_partition(&owned)
            .unwrap();
        let (owned_count, resident_count) = shard.partition_summary().unwrap();
        assert_eq!(owned_count, owned.len());
        assert!(resident_count >= 1, "slice must serve at least one node");

        // One full stamp: the oracle sees every cell, the shard only its
        // own — identical values where they overlap.
        let all: Vec<NodeId> = oracle.dataset().graph().base_nodes().to_vec();
        let rows: Vec<(NodeId, f64)> = all.iter().map(|&b| (b, 100.0 + (b as f64) * 3.5)).collect();
        assert_eq!(oracle.insert_batch(&rows).unwrap(), 1);
        let owned_rows: Vec<(NodeId, f64)> = rows
            .iter()
            .copied()
            .filter(|(b, _)| owned.contains(b))
            .collect();
        assert_eq!(shard.insert_batch(&owned_rows).unwrap(), 1);

        // Every resident node the all-cells query resolves to must
        // produce byte-identical forecasts on both engines.
        let sql = "SELECT time, SUM(visitors) FROM facts \
                   GROUP BY time, purpose, state AS OF now() + '3 quarters'";
        let map = oracle.placement();
        let mut compared = 0;
        for node in map.plan(sql, QueryMode::Forecast, None).unwrap() {
            let only = QueryRequest {
                nodes: Some(vec![node]),
                ..QueryRequest::new(sql, QueryMode::Forecast)
            };
            if !shard.is_resident(node) {
                assert!(matches!(
                    shard.execute(&only).unwrap_err(),
                    F2dbError::WrongShard(_)
                ));
                continue;
            }
            let want = oracle.execute(&only).unwrap().into_rows().unwrap();
            let got = shard.execute(&only).unwrap().into_rows().unwrap();
            assert_eq!(got.rows.len(), 1);
            assert_eq!(got.rows[0].label, want.rows[0].label);
            for (g, w) in got.rows[0].values.iter().zip(&want.rows[0].values) {
                assert_eq!(g.0, w.0);
                assert_eq!(g.1.to_bits(), w.1.to_bits(), "node {}", map.label(node));
            }
            compared += 1;
        }
        assert!(compared >= 1, "no resident node was compared");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn filtered_explain_and_analyze_trim_rows() {
        let db = small_db();
        let sql = "SELECT time, SUM(visitors) FROM facts \
                   GROUP BY time, purpose AS OF now() + '1 quarter'";
        let full = plan(&db, sql, QueryMode::Explain);
        assert!(full.rows.len() > 1);
        let keep = full.rows[1].node;
        let filtered = |nodes: Vec<NodeId>, mode| {
            db.execute(&QueryRequest {
                nodes: Some(nodes),
                ..QueryRequest::new(sql, mode)
            })
        };
        let trimmed = filtered(vec![keep], QueryMode::Explain)
            .unwrap()
            .into_plan()
            .unwrap();
        assert_eq!(trimmed.rows.len(), 1);
        assert_eq!(trimmed.rows[0].node, keep);
        let analyzed = filtered(vec![keep], QueryMode::ExplainAnalyze)
            .unwrap()
            .into_plan()
            .unwrap();
        assert_eq!(analyzed.rows.len(), 1);
        assert!(analyzed.rows[0].analysis.is_some());
        assert!(matches!(
            filtered(vec![NodeId::MAX], QueryMode::Explain).unwrap_err(),
            F2dbError::Semantic(_)
        ));
    }

    #[test]
    fn partition_key_is_schema_ordered_dimension_values() {
        let db = small_db();
        let g_len = db.dataset().graph().base_nodes().len();
        let b = db.dataset().graph().base_nodes()[g_len / 2];
        let full = db.partition_key(b, 0).unwrap();
        let one = db.partition_key(b, 1).unwrap();
        assert!(full.starts_with(&one));
        assert_eq!(
            full.matches('|').count() + 1,
            db.dataset().graph().schema().dim_count()
        );
        // Oversized key_dims clamps to the schema width.
        assert_eq!(db.partition_key(b, 99).unwrap(), full);
        // Only base nodes have placement keys.
        let not_base = (0..db.dataset().graph().node_count())
            .find(|&v| !db.dataset().graph().base_nodes().contains(&v))
            .unwrap();
        assert!(db.partition_key(not_base, 1).is_err());
    }
}
