//! # fdc-cube
//!
//! The multi-dimensional data model of the paper (§II):
//!
//! * [`schema`] — categorical dimensions and functional dependencies
//!   between them (e.g. *city → region*),
//! * [`graph`] — the **time series hyper graph**: one node per (base or
//!   aggregated) time series instance, hyperedges assigning sets of time
//!   series to their aggregates, functional dependencies encoded
//!   explicitly (Fig. 2),
//! * [`dataset`] — base series plus eagerly materialized aggregated series
//!   for every node (§VI-A: "we initially created all aggregated time
//!   series for the whole time series graph"),
//! * [`derive`](mod@crate::derive) — derivation schemes, the Gross–Sohl
//!   weight and the derived point (Eq. 1–3) used to compute a node's
//!   forecasts from models at other nodes,
//! * [`config`] — the **model configuration** (assignment of models and
//!   derivation schemes to nodes) and its evaluation by forecast error and
//!   model costs (§II-D),
//! * [`query`] — node-level queries (the SELECT/WHERE/GROUP BY shape of
//!   Fig. 1) resolved against the graph.

//! ## Example
//!
//! ```
//! use fdc_cube::{derive, Coord, Dataset, Dimension, Schema};
//! use fdc_forecast::{Granularity, TimeSeries};
//!
//! let schema = Schema::flat(vec![Dimension::new("store", vec!["S1".into(), "S2".into()])]).unwrap();
//! let base = vec![
//!     (Coord::new(vec![0]), TimeSeries::new(vec![1.0; 8], Granularity::Monthly)),
//!     (Coord::new(vec![1]), TimeSeries::new(vec![3.0; 8], Granularity::Monthly)),
//! ];
//! let ds = Dataset::from_base(schema, base).unwrap();
//! let top = ds.graph().top_node();
//! let s1 = ds.graph().base_nodes()[0];
//! // S1 contributes a quarter of the total: the Gross–Sohl weight for
//! // disaggregating S1 from the top model is 0.25.
//! let h = |v| ds.series(v).history_sum();
//! assert_eq!(derive::weight(h(s1), h(top)), 0.25);
//! // Its derived forecast is a quarter of the top forecast.
//! assert_eq!(derive::derive_forecast(&[&[40.0, 48.0]], 0.25), [10.0, 12.0]);
//! ```

pub mod config;
pub mod dataset;
pub mod derive;
pub mod graph;
pub mod query;
pub mod schema;
pub mod slice;

pub use config::{Configuration, ConfiguredModel, CubeSplit, NodeEstimate, Scheme};
pub use dataset::Dataset;
pub use derive::{derive_forecast, SchemeKind};
pub use graph::{Coord, NodeId, TimeSeriesGraph, STAR};
pub use query::{DimSelector, NodeQuery};
pub use schema::{Dimension, FunctionalDependency, Schema};
pub use slice::slice_dataset;

/// Errors raised by cube construction and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum CubeError {
    /// The schema definition is inconsistent.
    InvalidSchema(String),
    /// A coordinate does not fit the schema or violates a functional
    /// dependency.
    InvalidCoordinate(String),
    /// Base time series are missing or misaligned.
    InvalidData(String),
    /// A node id or query did not resolve.
    NotFound(String),
}

impl std::fmt::Display for CubeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CubeError::InvalidSchema(m) => write!(f, "invalid schema: {m}"),
            CubeError::InvalidCoordinate(m) => write!(f, "invalid coordinate: {m}"),
            CubeError::InvalidData(m) => write!(f, "invalid data: {m}"),
            CubeError::NotFound(m) => write!(f, "not found: {m}"),
        }
    }
}

impl std::error::Error for CubeError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CubeError>;
